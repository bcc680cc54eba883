//! The Rottnest client and the search entry points (§IV-B): admission of
//! the deadline, brownout, planning, then one pipeline per query class.
//! The other protocol steps live in `plan`, `exact`, `vector`, `hedge` and
//! `maintain`; what differs per index kind lives in `family`.

use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

use rottnest_fm::{FmOptions, MergePolicy};
use rottnest_format::{DataType, NegScanCache, PageCacheSession, ValueRef};
use rottnest_ivfpq::IvfPqParams;
use rottnest_lake::{Snapshot, Table};
use rottnest_object_store::{
    push_deadline, BreakerState, HealthTracker, ObjectStore, RetryPolicy, RetryStore, StoreError,
};

use crate::exact::{contains_sub, ExactQuery};
use crate::family;
use crate::meta::{IndexEntry, MetaTable};
use crate::query::{Query, SearchOutcome, SearchStats};
use crate::{Result, RottnestError};

/// Configuration of a Rottnest client.
#[derive(Debug, Clone)]
pub struct RottnestConfig {
    /// Index operations must finish within this budget (store clock); it is
    /// also the age below which `vacuum` never deletes uncommitted objects
    /// (§IV-A step 4, §IV-C).
    pub index_timeout_ms: u64,
    /// Index builds covering fewer rows abort in favor of brute-force scan
    /// (§IV-A footnote 2). Only enforced for vector indexes, which need
    /// enough vectors to train quantizers.
    pub min_vector_rows: u64,
    /// `compact` merges index files smaller than this (bin packing, §IV-C).
    pub compact_below_bytes: u64,
    /// Maximum index files merged per compaction bin.
    pub compact_fanin: usize,
    /// FM-index layout options.
    pub fm: FmOptions,
    /// IVF-PQ training parameters.
    pub ivf: IvfPqParams,
    /// FM merge policy.
    pub fm_merge: MergePolicy,
    /// Metadata commit retry budget.
    pub meta_retries: u32,
    /// Transient-fault retry policy for every store request the client
    /// issues (index builds, searches, compaction, vacuum). Deterministic
    /// failures are never retried; see [`RetryStore`].
    pub retry: RetryPolicy,
    /// Parallel search executor knobs. Results are identical at every
    /// setting (the merge is deterministic); only wall-clock changes.
    pub search: SearchConfig,
    /// Maximum worker threads the ingest pipeline fans out over: file
    /// download+decode during `index`, builder internals (FM block
    /// serialization, PQ subspace training), and source-component opens
    /// during `compact`. `1` runs everything inline on the calling
    /// thread. The produced index bytes are **bit-identical** at every
    /// setting — decoded files feed the builder through a single
    /// in-order consumer and every parallelized stage merges its results
    /// in input order (`tests/tests/build_equivalence.rs`) — so only
    /// wall-clock changes.
    pub build_parallelism: usize,
}

impl Default for RottnestConfig {
    fn default() -> Self {
        Self {
            index_timeout_ms: 3_600_000,
            min_vector_rows: 256,
            compact_below_bytes: 64 << 20,
            compact_fanin: 16,
            fm: FmOptions::default(),
            ivf: IvfPqParams::default(),
            fm_merge: MergePolicy::default(),
            meta_retries: 16,
            retry: RetryPolicy::default(),
            search: SearchConfig::default(),
            build_parallelism: rottnest_object_store::default_parallelism(),
        }
    }
}

/// Knobs for the search path: fan-out width, caches, deadline, hedging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchConfig {
    /// Maximum worker threads a single search fans out over. `1` disables
    /// threading entirely (work runs inline on the calling thread).
    /// Results are identical at every setting; only wall-clock changes.
    pub parallelism: usize,
    /// Whether probe reads consult the process-wide data-page cache
    /// (`rottnest_format::PageCache`). Results are identical either way —
    /// pages are immutable and validator-fenced — only the GET count
    /// changes. On by default; benchmarks turn it off to measure the
    /// uncached path.
    pub page_cache: bool,
    /// Per-query time budget in store-clock milliseconds. `None` (the
    /// default) searches without a deadline, exactly as before. With a
    /// budget set, the executor polls the deadline between index probes
    /// and between brute-scanned files and aborts the whole search with
    /// [`RottnestError::DeadlineExceeded`] — never partial results.
    pub timeout_ms: Option<u64>,
    /// Whether brute-force scans consult and feed the process-wide
    /// negative-scan cache ("probe P matched nothing in file F"), skipping
    /// re-scans of unchanged files that are known not to match. Results
    /// are identical either way; only the request count changes.
    pub neg_cache: bool,
    /// Whether deadline-pressured index probes are hedged: when a query's
    /// remaining budget drops below the EWMA-derived threshold (see
    /// [`SearchConfig::hedge_threshold_pct`]), the executor issues the
    /// same probe on a second lane and takes whichever finishes first,
    /// cancelling the loser at its next store request. Both lanes compute
    /// the identical probe over shared caches, so *matches* are
    /// bit-identical with hedging on or off; only latency and the
    /// hedge counters in `SearchStats` change. Off by default.
    pub hedge: bool,
    /// Hedge trigger, as a percentage of the probe-duration EWMA: a probe
    /// is hedged when `remaining_budget_ms < ewma_ms * pct / 100`. The
    /// default 300 hedges once fewer than three typical probes fit in the
    /// remaining budget. `u32::MAX` effectively hedges every probe (used
    /// by tests); `0` never triggers.
    pub hedge_threshold_pct: u32,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            parallelism: rottnest_object_store::default_parallelism(),
            page_cache: true,
            timeout_ms: None,
            neg_cache: true,
            hedge: false,
            hedge_threshold_pct: 300,
        }
    }
}

/// Outcome of a `vacuum` call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VacuumReport {
    /// Metadata records dropped.
    pub records_removed: u64,
    /// Index objects physically deleted.
    pub objects_deleted: u64,
    /// Objects spared because they are younger than the index timeout.
    pub objects_spared: u64,
}

/// What every step of one search shares.
pub(crate) struct Search<'s> {
    pub table: &'s Table<'s>,
    pub snapshot: &'s Snapshot,
    pub column: &'s str,
    pub query: &'s Query<'s>,
    /// One page-cache session per query: probe reads across all workers
    /// share its validator memo, so revalidation costs one HEAD per data
    /// file per query, and each batch's HEADs overlap over the search's
    /// fan-out width. `None` disables the cache entirely.
    pub session: Option<&'s PageCacheSession>,
    /// Absolute deadline on the store clock, if any.
    pub deadline_ms: Option<u64>,
    /// `Some(v)`: the plan came from the plan cache, replayed at metadata
    /// log version `v`, and `probe_selected` still owes the freshness probe.
    pub unverified: Option<u64>,
}

/// A Rottnest index client bound to an `index_dir` on an object store.
///
/// All four APIs may be called from any process with store access,
/// concurrently with each other and with lake operations (§IV).
pub struct Rottnest<'a> {
    retry: RetryStore<&'a dyn ObjectStore>,
    pub(crate) index_dir: String,
    config: RottnestConfig,
    /// Metadata record set memoized per log version. Revalidation is one
    /// HEAD (`MetaTable::moved_past`): any index/compact/vacuum commit — from
    /// any process — creates the next version's object, so its absence
    /// proves the cached plan current. This client's own commits drop it.
    pub(crate) plan_cache: Mutex<Option<(u64, Arc<Vec<IndexEntry>>)>>,
    /// EWMA of per-entry index-probe duration (store-clock ms), fed by
    /// unhedged probes and read by the hedge trigger: a probe hedges when
    /// the remaining deadline budget is smaller than a few typical probe
    /// durations. 0 until the first observation.
    pub(crate) probe_ewma_ms: AtomicU64,
}

impl<'a> Rottnest<'a> {
    /// Creates a client for the index at `index_dir`.
    pub fn new(
        store: &'a dyn ObjectStore,
        index_dir: impl Into<String>,
        config: RottnestConfig,
    ) -> Self {
        let retry = RetryStore::new(store, config.retry.clone());
        Self {
            retry,
            index_dir: index_dir.into(),
            config,
            plan_cache: Mutex::new(None),
            probe_ewma_ms: AtomicU64::new(0),
        }
    }

    /// The store every client request goes through: the caller's store
    /// behind the configured transient-fault retry decorator.
    pub fn store(&self) -> &dyn ObjectStore {
        &self.retry
    }

    /// The metadata table handle.
    pub fn meta(&self) -> MetaTable<'_> {
        MetaTable::new(self.store(), &self.index_dir)
    }

    /// The store-health tracker behind this client's retry layer: per-
    /// failure-domain circuit breakers plus the process-wide retry budget.
    /// The serving layer reads it to detect brownout; tests read it to
    /// assert breaker state.
    pub fn health(&self) -> &Arc<HealthTracker> {
        self.retry.health()
    }

    /// Whether searches against this index would currently run in
    /// brownout mode: the circuit breaker for the index directory's
    /// failure domain is open, so index probes are skipped in favor of
    /// brute-force scans. Non-mutating — reading the state never
    /// consumes a half-open probe slot.
    pub fn in_brownout(&self) -> bool {
        let domain = HealthTracker::domain_of(&self.index_dir);
        self.health().state(domain, self.store().now_ms()) == BreakerState::Open
    }

    /// The configuration in effect.
    pub fn config(&self) -> &RottnestConfig {
        &self.config
    }

    /// Total bytes of committed index files (the `cpm_r − cpm_bf` storage
    /// term of the TCO model).
    pub fn index_bytes(&self) -> Result<u64> {
        Ok(self.meta().scan()?.iter().map(|e| e.size).sum())
    }

    /// Cooperative deadline poll for searches: compares the store clock
    /// against the query's absolute deadline. Polled between index probes
    /// and between brute-scanned files, so an over-budget search aborts at
    /// the next unit boundary — never mid-read, which is what keeps the
    /// process-wide caches unpoisoned (only fully verified payloads are
    /// ever inserted). `None` means no deadline and always passes.
    pub(crate) fn check_deadline(&self, deadline_ms: Option<u64>) -> Result<()> {
        let Some(deadline_ms) = deadline_ms else {
            return Ok(());
        };
        let now_ms = self.store().now_ms();
        if now_ms > deadline_ms {
            return Err(RottnestError::DeadlineExceeded {
                deadline_ms,
                now_ms,
            });
        }
        Ok(())
    }

    /// §IV-B: searches a snapshot of the lake table.
    ///
    /// With [`SearchConfig::timeout_ms`] set, the search runs against an
    /// absolute deadline of "now + budget" on the store clock; see
    /// [`Rottnest::search_with_deadline`] for the abort semantics.
    pub fn search(
        &self,
        table: &Table<'_>,
        snapshot: &Snapshot,
        column: &str,
        query: &Query<'_>,
    ) -> Result<SearchOutcome> {
        let deadline_ms = self
            .config
            .search
            .timeout_ms
            .map(|budget| self.store().now_ms().saturating_add(budget));
        self.search_with_deadline(table, snapshot, column, query, deadline_ms)
    }

    /// [`Rottnest::search`] against an absolute deadline on the store
    /// clock (the serving layer's entry point — it propagates the client
    /// deadline rather than a fresh per-call budget).
    ///
    /// The deadline is polled cooperatively between index probes and
    /// between brute-scanned files. Expiry aborts the whole search with
    /// [`RottnestError::DeadlineExceeded`] — never partial results — and
    /// an already-expired deadline fails before any store traffic. An
    /// aborted search leaves every process-wide cache (component, page,
    /// negative-scan) exactly as correct as before: caches only ever
    /// admit fully read and verified payloads, so there is nothing a
    /// mid-flight abort could poison.
    pub fn search_with_deadline(
        &self,
        table: &Table<'_>,
        snapshot: &Snapshot,
        column: &str,
        query: &Query<'_>,
        deadline_ms: Option<u64>,
    ) -> Result<SearchOutcome> {
        // The retry layer consults the caller's absolute deadline before
        // every backoff sleep (a wait that cannot fit fails typed instead
        // of burning the budget asleep). The guard propagates it to every
        // sequential store call in this search; fan-out closures re-install
        // it on their worker threads.
        let _deadline = push_deadline(deadline_ms);
        let session = self
            .config
            .search
            .page_cache
            .then(|| PageCacheSession::with_parallelism(self.config.search.parallelism));
        let cx = Search {
            table,
            snapshot,
            column,
            query,
            session: session.as_ref(),
            deadline_ms,
            unverified: None,
        };
        self.run(&cx).map_err(map_health_error)
    }

    /// Plans — off the plan cache if `use_cache` — and runs the query's
    /// pipeline. `None`: the cached plan turned out stale.
    fn attempt(&self, cx: &Search<'_>, use_cache: bool) -> Result<Option<SearchOutcome>> {
        // Brownout (tentpole of the store-health layer): when the circuit
        // breaker for the index domain is open, planning and probing the
        // index would only be rejected at admission — skip both and treat
        // every snapshot file as uncovered. Exact queries brute-scan (with
        // negative-scan-cache help); vector queries already rank every
        // file. Results are identical to the indexed path, only costlier.
        // Half-open is NOT brownout: probes flow through store-level
        // admission, which bounds them, and a rejected probe degrades per
        // entry in `probe_selected`.
        let kind = family::kind_of(cx.query);
        let plan = if self.in_brownout() {
            None
        } else {
            match self.plan_search(cx.snapshot, &kind, cx.column, use_cache) {
                Ok(plan) => Some(plan),
                // The index *metadata* itself is unreachable (mid-outage,
                // before the breaker trips, or a rejected half-open
                // probe): degrade the whole query to a brute scan rather
                // than failing it — same results, costlier path — and let
                // the recorded failures trip the breaker for successors.
                Err(e) if is_degradable(&e) => None,
                Err(e) => return Err(e),
            }
        };
        let brownout = plan.is_none();
        let (selected, uncovered, unverified) =
            plan.unwrap_or_else(|| (Vec::new(), cx.snapshot.files().cloned().collect(), None));
        let cx = &Search { unverified, ..*cx };
        let stats = SearchStats {
            index_files_queried: selected.len() as u64,
            brownout_queries: u64::from(brownout),
            ..SearchStats::default()
        };

        // One pipeline per query class. Exact probes get a negative-scan-
        // cache fingerprint; scoring queries must rank every row, so they
        // never consult that cache.
        match *cx.query {
            Query::UuidEq { key, k } => {
                let exact = ExactQuery {
                    k,
                    data_type: DataType::Binary,
                    fingerprint: NegScanCache::probe_fingerprint(0, cx.column, key),
                    predicate: &|v| value_bytes(v).is_some_and(|b| b == key),
                };
                self.exact_search(cx, &exact, &selected, uncovered, stats)
            }
            Query::Substring { pattern, k } => {
                let exact = ExactQuery {
                    k,
                    data_type: DataType::Utf8,
                    fingerprint: NegScanCache::probe_fingerprint(1, cx.column, pattern),
                    predicate: &|v| value_bytes(v).is_some_and(|b| contains_sub(b, pattern)),
                };
                self.exact_search(cx, &exact, &selected, uncovered, stats)
            }
            Query::VectorNn {
                query: qvec,
                params,
            } => self.vector_search(cx, qvec, params, &selected, uncovered, stats),
        }
    }

    fn run(&self, cx: &Search<'_>) -> Result<SearchOutcome> {
        self.check_deadline(cx.deadline_ms)?;
        // Component- and page-cache accounting is kept on the store; the
        // delta over this search becomes the outcome's cache_* stats.
        let store_before = self.store().stats();
        // A cached plan is used while its freshness probe rides the index
        // wave; found stale, that wave is thrown away and the pipeline runs
        // once more on a plan replayed from a LIST, current by construction.
        let mut outcome = match self.attempt(cx, true)? {
            Some(outcome) => outcome,
            None => (self.attempt(cx, false)?).expect("a plan off a LIST needs no freshness probe"),
        };
        let delta = self.store().stats().since(&store_before);
        outcome.stats.cache_hits = delta.cache_hits;
        outcome.stats.cache_misses = delta.cache_misses;
        outcome.stats.cache_bytes_saved = delta.cache_bytes_saved;
        outcome.stats.page_cache_hits = delta.page_cache_hits;
        outcome.stats.page_cache_misses = delta.page_cache_misses;
        outcome.stats.page_cache_bytes_saved = delta.page_cache_bytes_saved;
        outcome.stats.page_cache_bypassed = delta.page_cache_bypassed;
        outcome.stats.dedup_hits = delta.dedup_hits;
        outcome.stats.breaker_rejections = delta.breaker_rejections;
        outcome.stats.retry_tokens_denied = delta.retry_tokens_denied;
        Ok(outcome)
    }
}

/// The bytes an exact predicate compares: binary and text values alike.
fn value_bytes(value: ValueRef<'_>) -> Option<&[u8]> {
    match value {
        ValueRef::Binary(b) => Some(b),
        ValueRef::Utf8(s) => Some(s.as_bytes()),
        _ => None,
    }
}

/// Whether a search-time failure can be absorbed by degrading to the
/// brute-force path: store faults that are still retryable after the
/// retry budget ran out (throttling, transient request failures), plus
/// circuit-breaker rejections (the domain is collapsed; scanning data
/// files instead is exactly what the breaker buys). Deterministic
/// failures — missing objects, corrupt bytes, injected crashes — and
/// deadline expiry must surface to the caller.
pub(crate) fn is_degradable(err: &RottnestError) -> bool {
    err.store_fault()
        .is_some_and(|e| e.is_retryable() || matches!(e.root(), StoreError::BreakerOpen { .. }))
}

/// Surfaces store-health outcomes as typed protocol errors at the search
/// boundary: a retry-layer deadline expiry becomes
/// [`RottnestError::DeadlineExceeded`] (same contract as the cooperative
/// poll) and a breaker rejection that could not be degraded becomes
/// [`RottnestError::Overloaded`] (the query was refused, not corrupted —
/// retry after the cooldown). Every other error passes through.
fn map_health_error(err: RottnestError) -> RottnestError {
    match err.store_fault().map(StoreError::root) {
        Some(&StoreError::DeadlineExceeded {
            deadline_ms,
            now_ms,
        }) => RottnestError::DeadlineExceeded {
            deadline_ms,
            now_ms,
        },
        Some(StoreError::BreakerOpen {
            domain,
            retry_after_ms,
        }) => RottnestError::Overloaded {
            reason: format!("circuit breaker open for store domain '{domain}'"),
            retry_after_ms: *retry_after_ms,
        },
        _ => err,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_parallelism_is_bounded() {
        let p = SearchConfig::default().parallelism;
        assert!((1..=8).contains(&p));
    }
}
