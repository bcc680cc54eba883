//! The Rottnest client: `index`, `search`, `compact`, `vacuum` (§IV).

use std::sync::atomic::{AtomicU64, Ordering};

use rottnest_bloom::BloomIndex;
use rottnest_fm::{FmIndex, FmOptions, MergePolicy};
use rottnest_format::{ChunkReader, DataType, NegScanCache, PageCacheSession, ValueRef};
use rottnest_ivfpq::{IvfPqIndex, IvfPqParams, SearchParams, VecPosting};
use rottnest_lake::{FileEntry, Snapshot, Table};
use rottnest_object_store::{
    is_cancelled, ordered_parallel_map_io, parallel::captured_lane_micros, push_deadline,
    BreakerState, CancelStore, FxHashMap, FxHashSet, HealthTracker, ObjectStore, RetryPolicy,
    RetryStore, StoreError, WorkerPool,
};
use rottnest_trie::TrieIndex;

use crate::build::build_index_file;
use crate::executor::{parallel_map_io, SearchConfig};
use crate::meta::{IndexEntry, IndexKind, MetaOp, MetaTable};
use crate::probe::{fetch_vectors, load_dvs, probe_exact, PageRef};
use crate::query::{Match, Query, SearchOutcome, SearchStats};
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

static INDEX_SEQ: AtomicU64 = AtomicU64::new(0);

/// What happened to one potentially hedged index probe.
#[derive(Debug, Clone, Copy, Default)]
struct HedgeOutcome {
    /// The probe ran on two lanes (the hedge trigger fired).
    hedged: bool,
    /// The backup lane's result was the one used.
    backup_won: bool,
    /// The losing lane was observed to stop at a cancellation point.
    loser_cancelled: bool,
}

impl HedgeOutcome {
    /// Folds this outcome into a search's stats counters.
    fn account(&self, stats: &mut SearchStats) {
        if self.hedged {
            stats.hedged_probes += 1;
            if self.backup_won {
                stats.hedge_wins += 1;
            }
            if self.loser_cancelled {
                stats.hedge_cancels += 1;
            }
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

/// A Rottnest index client bound to an `index_dir` on an object store.
///
/// All four APIs may be called from any process with store access,
/// concurrently with each other and with lake operations (§IV).
pub struct Rottnest<'a> {
    retry: RetryStore<&'a dyn ObjectStore>,
    index_dir: String,
    config: RottnestConfig,
    /// Metadata record set memoized per log version. Revalidation is one
    /// LIST (`MetaTable::listing`); any index/compact/vacuum commit — from any
    /// process — bumps the version, so a version match proves the cached
    /// plan is current.
    plan_cache: std::sync::Mutex<Option<(u64, std::sync::Arc<Vec<IndexEntry>>)>>,
    /// EWMA of per-entry index-probe duration (store-clock ms), fed by
    /// unhedged probes and read by the hedge trigger: a probe hedges when
    /// the remaining deadline budget is smaller than a few typical probe
    /// durations. 0 until the first observation.
    probe_ewma_ms: AtomicU64,
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
            plan_cache: std::sync::Mutex::new(None),
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
    pub fn health(&self) -> &std::sync::Arc<HealthTracker> {
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

    fn fresh_index_key(&self, ext: &str) -> String {
        let seq = INDEX_SEQ.fetch_add(1, Ordering::Relaxed);
        format!(
            "{}/files/{:012}-{seq:06}.{ext}",
            self.index_dir,
            self.store().now_ms()
        )
    }

    fn ext_of(kind: &IndexKind) -> &'static str {
        match kind {
            IndexKind::Uuid { .. } => "trie",
            IndexKind::Substring => "fm",
            IndexKind::Vector { .. } => "ivf",
            IndexKind::Bloom { .. } => "bloom",
        }
    }

    /// Whether an index of `entry_kind` can serve a query planned for
    /// `query_kind` (UUID-equality queries are served by tries *and* bloom
    /// filters over the same key length).
    fn serves(entry_kind: &IndexKind, query_kind: &IndexKind) -> bool {
        match (entry_kind, query_kind) {
            (IndexKind::Uuid { key_len: a }, IndexKind::Uuid { key_len: b })
            | (IndexKind::Bloom { key_len: a }, IndexKind::Uuid { key_len: b })
            | (IndexKind::Bloom { key_len: a }, IndexKind::Bloom { key_len: b })
            | (IndexKind::Uuid { key_len: a }, IndexKind::Bloom { key_len: b }) => a == b,
            _ => entry_kind.compatible(query_kind),
        }
    }

    /// §IV-A: indexes every Parquet file in the latest snapshot not yet
    /// covered by the metadata table. Returns the new entry, or `None` when
    /// nothing needed indexing (or a vector build had too few rows).
    pub fn index(
        &self,
        table: &Table<'_>,
        kind: IndexKind,
        column: &str,
    ) -> Result<Option<IndexEntry>> {
        let start_ms = self.store().now_ms();
        // 1. Plan.
        let snapshot = table.snapshot()?;
        let meta = self.meta();
        let indexed: FxHashSet<String> = meta
            .scan()?
            .iter()
            .filter(|e| e.kind.compatible(&kind) && e.column == column)
            .flat_map(|e| e.covered_paths().map(str::to_string))
            .collect();
        let new_files: Vec<FileEntry> = snapshot
            .files()
            .filter(|f| !indexed.contains(&f.path))
            .cloned()
            .collect();
        if new_files.is_empty() {
            return Ok(None);
        }
        let total_rows: u64 = new_files.iter().map(|f| f.rows).sum();
        if matches!(kind, IndexKind::Vector { .. }) && total_rows < self.config.min_vector_rows {
            // Abort in favor of brute-force scanning (§IV-A footnote 2).
            return Ok(None);
        }

        // 2. Index (aborts if an input file vanished mid-build, or if the
        // timeout budget runs out between files).
        let (bytes, coverage, rows) = build_index_file(
            self.store(),
            &self.config,
            &kind,
            column,
            &new_files,
            &|| self.check_timeout(start_ms),
        )?;
        self.check_timeout(start_ms)?;

        // Upload.
        let path = self.fresh_index_key(Self::ext_of(&kind));
        let size = bytes.len() as u64;
        self.store().put(&path, bytes)?;
        self.check_timeout(start_ms)?;

        // 3. Commit.
        let created_ms = self.store().now_ms();
        let column = column.to_string();
        let mut committed = None;
        meta.commit_with(self.config.meta_retries, |version| {
            let entry = IndexEntry {
                id: MetaTable::id_for(version, 0),
                kind,
                column: column.clone(),
                path: path.clone(),
                size,
                rows,
                created_ms,
                files: coverage.clone(),
            };
            committed = Some(entry.clone());
            vec![MetaOp::Add(Box::new(entry))]
        })?;
        Ok(committed)
    }

    fn check_timeout(&self, start_ms: u64) -> Result<()> {
        let elapsed = self.store().now_ms().saturating_sub(start_ms);
        if elapsed > self.config.index_timeout_ms {
            return Err(RottnestError::Aborted(format!(
                "index operation exceeded timeout ({elapsed}ms > {}ms)",
                self.config.index_timeout_ms
            )));
        }
        Ok(())
    }

    /// Cooperative deadline poll for searches: compares the store clock
    /// against the query's absolute deadline. Polled between index probes
    /// and between brute-scanned files, so an over-budget search aborts at
    /// the next unit boundary — never mid-read, which is what keeps the
    /// process-wide caches unpoisoned (only fully verified payloads are
    /// ever inserted). `None` means no deadline and always passes.
    fn check_deadline(&self, deadline_ms: Option<u64>) -> Result<()> {
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

    /// Folds one observed probe duration into the EWMA (weight 1/4 for
    /// the new sample). Only unhedged probes feed it: a hedged probe's
    /// duration reflects two racing lanes, not typical cost.
    fn observe_probe_ms(&self, elapsed_ms: u64) {
        // Lock-free read-modify-write; a lost race just drops one sample,
        // which an EWMA tolerates by construction.
        let old = self.probe_ewma_ms.load(Ordering::Relaxed);
        let next = if old == 0 {
            elapsed_ms
        } else {
            (old * 3 + elapsed_ms) / 4
        };
        self.probe_ewma_ms.store(next, Ordering::Relaxed);
    }

    /// Whether a probe starting now should hedge: hedging is on, a
    /// deadline exists, and the remaining budget is below
    /// `ewma * hedge_threshold_pct / 100`.
    fn should_hedge(&self, deadline_ms: Option<u64>) -> bool {
        if !self.config.search.hedge {
            return false;
        }
        let Some(deadline_ms) = deadline_ms else {
            return false;
        };
        let remaining = deadline_ms.saturating_sub(self.store().now_ms());
        let ewma = self.probe_ewma_ms.load(Ordering::Relaxed).max(1);
        let pct = u64::from(self.config.search.hedge_threshold_pct);
        remaining < ewma.saturating_mul(pct) / 100
    }

    /// Runs `probe` once — or, under deadline pressure with hedging
    /// enabled, twice concurrently on independent cancellation lanes,
    /// returning whichever lane finishes first and cancelling the loser
    /// at its next store request.
    ///
    /// Both lanes evaluate the identical pure function over the same
    /// shared caches and single-flight tables (the [`CancelStore`]
    /// wrapper preserves `store_id`), so the *value* returned is the same
    /// whichever lane wins — hedging changes latency and the hedge
    /// counters, never matches. A lane that lost and was cancelled
    /// surfaces a typed [`rottnest_object_store::CANCELLED`] error, which
    /// is discarded in favor of the winner's result.
    fn hedged_probe<R: Send>(
        &self,
        deadline_ms: Option<u64>,
        probe: &(dyn Fn(&dyn ObjectStore) -> Result<R> + Sync),
    ) -> (Result<R>, HedgeOutcome) {
        if !self.should_hedge(deadline_ms) {
            // Simulated elapsed time for the EWMA: inside a captured
            // fan-out item the clock defers to the item's lane, so the
            // true duration is the clock delta plus the lane delta.
            let started_ms = self.store().now_ms();
            let started_lane = captured_lane_micros().unwrap_or(0);
            let out = probe(self.store());
            if out.is_ok() {
                let lane_ms = captured_lane_micros()
                    .unwrap_or(0)
                    .saturating_sub(started_lane)
                    / 1000;
                let clock_ms = self.store().now_ms().saturating_sub(started_ms);
                self.observe_probe_ms(clock_ms + lane_ms);
            }
            return (out, HedgeOutcome::default());
        }

        let first = AtomicU64::new(u64::MAX);
        let cancels = [
            std::sync::atomic::AtomicBool::new(false),
            std::sync::atomic::AtomicBool::new(false),
        ];
        let run_lane = |lane: usize| -> Result<R> {
            // The backup lane may run on a pool worker: re-install the
            // caller's deadline for the retry layer on that thread.
            let _deadline = push_deadline(deadline_ms);
            let lane_store = CancelStore::new(self.store(), &cancels[lane]);
            let out = probe(&lane_store);
            if first
                .compare_exchange(u64::MAX, lane as u64, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                cancels[1 - lane].store(true, Ordering::Release);
            }
            out
        };
        // The backup lane is a single stealable unit offered to the shared
        // pool — no thread is spawned for it. If no worker claims it by the
        // time the primary finishes, `join` revokes it (the backup never
        // ran: a busy pool degrades hedging to the unhedged path, it never
        // queues latent work behind the query). If a worker did claim it,
        // `join` waits for it — the losing lane dies at its next store
        // request via the cancellation token, exactly as before.
        let offer = WorkerPool::global().offer(|| run_lane(1));
        let primary = run_lane(0);
        let backup = offer.join();

        let backup_won = match (&primary, &backup) {
            (Ok(_), Some(Ok(_))) => first.load(Ordering::Acquire) == 1,
            (Err(_), Some(Ok(_))) => true,
            _ => false,
        };
        let (winner, loser) = match backup {
            Some(backup) if backup_won => (backup, Some(primary)),
            Some(backup) => (primary, Some(backup)),
            None => (primary, None),
        };
        // The typed cancellation a `CancelStore` raises is the expected way
        // a losing lane dies, not a real fault.
        let loser_cancelled =
            matches!(&loser, Some(Err(e)) if e.store_fault().is_some_and(is_cancelled));
        (
            winner,
            HedgeOutcome {
                hedged: true,
                backup_won,
                loser_cancelled,
            },
        )
    }

    /// The full metadata record set, memoized per log version. A hit costs
    /// one LIST instead of replaying the log (checkpoint/record GETs);
    /// since every metadata mutation commits a new version, an unchanged
    /// version guarantees an unchanged record set across processes. A miss
    /// replays off the same listing, so it costs one LIST too.
    fn cached_meta_scan(&self) -> Result<std::sync::Arc<Vec<IndexEntry>>> {
        let meta = self.meta();
        let listing = meta.listing()?;
        let Some(version) = listing.latest_version() else {
            // Empty log: nothing to key a cache entry on (and nothing to
            // cache — the scan would be free anyway).
            return Ok(std::sync::Arc::new(Vec::new()));
        };
        if let Some((cached_version, entries)) = &*self.plan_cache.lock().expect("plan cache lock")
        {
            if *cached_version == version {
                return Ok(entries.clone());
            }
        }
        let fresh = std::sync::Arc::new(meta.scan_listed(&listing, version)?);
        *self.plan_cache.lock().expect("plan cache lock") = Some((version, fresh.clone()));
        Ok(fresh)
    }

    /// Greedy cover (§IV-B plan): entries of the right kind/column, picked
    /// while they add coverage of active files. Returns (selected entries,
    /// uncovered active files).
    fn plan_search(
        &self,
        snapshot: &Snapshot,
        kind: &IndexKind,
        column: &str,
    ) -> Result<(Vec<IndexEntry>, Vec<FileEntry>)> {
        let mut entries: Vec<IndexEntry> = self
            .cached_meta_scan()?
            .iter()
            .filter(|e| Self::serves(&e.kind, kind) && e.column == column)
            .cloned()
            .collect();
        let active: FxHashSet<&str> = snapshot.files().map(|f| f.path.as_str()).collect();
        entries.sort_by_key(|e| {
            std::cmp::Reverse(e.covered_paths().filter(|p| active.contains(p)).count())
        });

        let mut covered: FxHashSet<String> = FxHashSet::default();
        let mut selected = Vec::new();
        for e in entries {
            let adds = e
                .covered_paths()
                .any(|p| active.contains(p) && !covered.contains(p));
            if adds {
                covered.extend(
                    e.covered_paths()
                        .filter(|p| active.contains(p))
                        .map(str::to_string),
                );
                selected.push(e);
            }
        }
        let uncovered: Vec<FileEntry> = snapshot
            .files()
            .filter(|f| !covered.contains(&f.path))
            .cloned()
            .collect();
        Ok((selected, uncovered))
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
        self.search_inner(table, snapshot, column, query, deadline_ms)
            .map_err(map_health_error)
    }

    fn search_inner(
        &self,
        table: &Table<'_>,
        snapshot: &Snapshot,
        column: &str,
        query: &Query<'_>,
        deadline_ms: Option<u64>,
    ) -> Result<SearchOutcome> {
        self.check_deadline(deadline_ms)?;
        let kind = match query {
            Query::UuidEq { key, .. } => IndexKind::Uuid {
                key_len: key.len() as u8,
            },
            Query::Substring { .. } => IndexKind::Substring,
            Query::VectorNn { query, .. } => IndexKind::Vector {
                dim: query.len() as u32,
            },
        };
        // Component- and page-cache accounting is kept on the store; the
        // delta over this search becomes the outcome's cache_* stats.
        let store_before = self.store().stats();
        // One page-cache session per query: probe reads across all workers
        // share its validator memo, so revalidation costs one HEAD per
        // data file per query, and each batch's HEADs overlap over the
        // search's fan-out width. `None` disables the cache entirely.
        let session = self
            .config
            .search
            .page_cache
            .then(|| PageCacheSession::with_parallelism(self.config.search.parallelism));
        let session = session.as_ref();
        // Exact probes get a negative-scan-cache fingerprint; scoring
        // queries must rank every row, so they never consult it.
        let probe = match query {
            Query::UuidEq { key, .. } => Some(NegScanCache::probe_fingerprint(0, column, key)),
            Query::Substring { pattern, .. } => {
                Some(NegScanCache::probe_fingerprint(1, column, pattern))
            }
            Query::VectorNn { .. } => None,
        };
        // Brownout (tentpole of the store-health layer): when the circuit
        // breaker for the index domain is open, planning and probing the
        // index would only be rejected at admission — skip both and treat
        // every snapshot file as uncovered. Exact queries brute-scan (with
        // negative-scan-cache help); vector queries already rank every
        // file. Results are identical to the indexed path, only costlier.
        // Half-open is NOT brownout: probes flow through store-level
        // admission, which bounds them, and a rejected probe degrades per
        // entry below.
        let mut brownout = self.in_brownout();
        let (selected, mut uncovered) = if brownout {
            (Vec::new(), snapshot.files().cloned().collect())
        } else {
            match self.plan_search(snapshot, &kind, column) {
                Ok(plan) => plan,
                // The index *metadata* itself is unreachable (mid-outage,
                // before the breaker trips, or a rejected half-open
                // probe): degrade the whole query to a brute scan rather
                // than failing it — same results, costlier path — and let
                // the recorded failures trip the breaker for successors.
                Err(e) if is_degradable(&e) => {
                    brownout = true;
                    (Vec::new(), snapshot.files().cloned().collect())
                }
                Err(e) => return Err(e),
            }
        };
        let mut stats = SearchStats {
            index_files_queried: selected.len() as u64,
            brownout_queries: u64::from(brownout),
            ..SearchStats::default()
        };

        let mut outcome = match query {
            Query::UuidEq { key, k } => {
                let predicate = |v: ValueRef<'_>| match v {
                    ValueRef::Binary(b) => b == *key,
                    ValueRef::Utf8(s) => s.as_bytes() == *key,
                    _ => false,
                };
                let (mut matches, failed) = self.exact_index_pass(
                    table,
                    snapshot,
                    &selected,
                    &mut stats,
                    *k,
                    DataType::Binary,
                    &predicate,
                    session,
                    deadline_ms,
                    |store, entry| match entry.kind {
                        IndexKind::Bloom { .. } => {
                            let idx = BloomIndex::open(store, &entry.path)?;
                            Ok(idx.lookup(key)?)
                        }
                        _ => {
                            let idx = TrieIndex::open(store, &entry.path)?;
                            Ok(idx.lookup(key)?)
                        }
                    },
                )?;
                self.extend_uncovered_for_failures(
                    snapshot,
                    &selected,
                    &failed,
                    &mut uncovered,
                    &mut stats,
                );
                if matches.len() < *k {
                    let need = *k - matches.len();
                    matches.extend(self.brute_exact(
                        table,
                        snapshot,
                        &uncovered,
                        column,
                        need,
                        &predicate,
                        &mut stats,
                        deadline_ms,
                        probe,
                    )?);
                }
                matches.truncate(*k);
                Ok(SearchOutcome { matches, stats })
            }
            Query::Substring { pattern, k } => {
                let predicate = |v: ValueRef<'_>| match v {
                    ValueRef::Utf8(s) => contains_sub(s.as_bytes(), pattern),
                    ValueRef::Binary(b) => contains_sub(b, pattern),
                    _ => false,
                };
                let (mut matches, failed) = self.exact_index_pass(
                    table,
                    snapshot,
                    &selected,
                    &mut stats,
                    *k,
                    DataType::Utf8,
                    &predicate,
                    session,
                    deadline_ms,
                    |store, entry| {
                        let idx = FmIndex::open(store, &entry.path)?;
                        // Stage the locate: a small multiple of k first; if
                        // the limit was hit there are unresolved occurrences
                        // and the full locate runs. (Resolving fewer than the
                        // limit proves completeness — no extra count() pass.)
                        let limit = k.saturating_mul(8).max(64);
                        let mut hits = idx.locate_pages(pattern, limit)?;
                        let resolved: usize = hits.iter().map(|&(_, n)| n as usize).sum();
                        if resolved >= limit {
                            hits = idx.locate_pages(pattern, usize::MAX)?;
                        }
                        Ok(hits.into_iter().map(|(p, _)| p).collect())
                    },
                )?;
                self.extend_uncovered_for_failures(
                    snapshot,
                    &selected,
                    &failed,
                    &mut uncovered,
                    &mut stats,
                );
                if matches.len() < *k {
                    let need = *k - matches.len();
                    matches.extend(self.brute_exact(
                        table,
                        snapshot,
                        &uncovered,
                        column,
                        need,
                        &predicate,
                        &mut stats,
                        deadline_ms,
                        probe,
                    )?);
                }
                matches.truncate(*k);
                Ok(SearchOutcome { matches, stats })
            }
            Query::VectorNn {
                query: qvec,
                params,
            } => self.vector_search(
                table,
                snapshot,
                column,
                qvec,
                *params,
                &selected,
                uncovered,
                session,
                stats,
                deadline_ms,
            ),
        }?;
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

    /// Runs the index-query + in-situ-probe pipeline for exact queries.
    /// Returns the matches plus the indices (into `selected`) of entries
    /// whose index files could not be read even after retries — the caller
    /// degrades their coverage to the brute-force path.
    ///
    /// Index entries are queried by the parallel executor; the merge below
    /// walks outcomes in entry order, so stats, page dedup, degradation,
    /// and the first hard error all reproduce the sequential pass exactly.
    /// (Sequential execution stops querying after a hard error; running
    /// the remaining entries' queries is the only extra work parallelism
    /// adds on that path, and their outcomes are discarded.)
    #[allow(clippy::too_many_arguments)]
    fn exact_index_pass(
        &self,
        table: &Table<'_>,
        snapshot: &Snapshot,
        selected: &[IndexEntry],
        stats: &mut SearchStats,
        k: usize,
        data_type: DataType,
        predicate: &(dyn Fn(ValueRef<'_>) -> bool + Sync),
        session: Option<&PageCacheSession>,
        deadline_ms: Option<u64>,
        query_index: impl Fn(&dyn ObjectStore, &IndexEntry) -> Result<Vec<rottnest_component::Posting>>
            + Sync,
    ) -> Result<(Vec<Match>, Vec<usize>)> {
        // 2. Query indexes (fanned out), filtering postings outside the
        // snapshot (merged in entry order). Each probe polls the deadline
        // first, so an over-budget fan-out aborts per entry instead of
        // finishing every index query it already queued. Under deadline
        // pressure with hedging on, individual probes race two lanes (see
        // `hedged_probe`); the winning value is identical either way.
        // The I/O-aware map charges the probes' simulated latency as the
        // overlapped critical path of `parallelism` connection lanes.
        let outcomes = parallel_map_io(
            self.config.search.parallelism,
            self.store().clock(),
            selected,
            |_, entry| {
                let _deadline = push_deadline(deadline_ms);
                if let Err(e) = self.check_deadline(deadline_ms) {
                    return (Err(e), HedgeOutcome::default());
                }
                self.hedged_probe(deadline_ms, &|store| query_index(store, entry))
            },
        );
        let mut pages: Vec<PageRef<'_>> = Vec::new();
        let mut failed: Vec<usize> = Vec::new();
        // Keyed by (path, page): concurrently-built indexes may cover the
        // same file (§IV-A allows the wasteful overlap), and the same page
        // must be probed only once or matches would duplicate.
        let mut seen: FxHashSet<(&str, u32)> = FxHashSet::default();
        for (entry_idx, (entry, (outcome, hedge))) in selected.iter().zip(outcomes).enumerate() {
            hedge.account(stats);
            let postings = match outcome {
                Ok(postings) => postings,
                Err(e) if is_degradable(&e) => {
                    stats.index_files_failed += 1;
                    failed.push(entry_idx);
                    continue;
                }
                Err(e) => return Err(e),
            };
            stats.postings_returned += postings.len() as u64;
            for p in postings {
                let Some(cov) = entry.files.get(p.file as usize) else {
                    return Err(RottnestError::Corrupt(format!(
                        "posting references file {} beyond coverage of {}",
                        p.file, entry.path
                    )));
                };
                if !snapshot.contains(&cov.path) {
                    stats.postings_filtered += 1;
                    continue;
                }
                let key = (cov.path.as_str(), p.page);
                if seen.insert(key) {
                    pages.push(PageRef {
                        path: &cov.path,
                        table: &cov.page_table,
                        page_id: p.page,
                    });
                }
            }
        }
        // 3. In-situ probe.
        self.check_deadline(deadline_ms)?;
        let matches = probe_exact(
            table,
            snapshot,
            &pages,
            data_type,
            predicate,
            k,
            session,
            self.config.search.parallelism,
            stats,
        )?;
        Ok((matches, failed))
    }

    /// Graceful degradation (tentpole of the resilience layer): files whose
    /// only selected index entries failed fall back to the brute-force scan
    /// list. Results stay correct — the query just pays scan cost for the
    /// affected files — and the reassignment is visible in `stats`.
    fn extend_uncovered_for_failures(
        &self,
        snapshot: &Snapshot,
        selected: &[IndexEntry],
        failed: &[usize],
        uncovered: &mut Vec<FileEntry>,
        stats: &mut SearchStats,
    ) {
        if failed.is_empty() {
            return;
        }
        let failed_set: FxHashSet<usize> = failed.iter().copied().collect();
        let ok_covered: FxHashSet<&str> = selected
            .iter()
            .enumerate()
            .filter(|(i, _)| !failed_set.contains(i))
            .flat_map(|(_, e)| e.covered_paths())
            .collect();
        let listed: FxHashSet<String> = uncovered.iter().map(|f| f.path.clone()).collect();
        for file in snapshot.files() {
            if ok_covered.contains(file.path.as_str()) || listed.contains(&file.path) {
                continue;
            }
            stats.files_degraded += 1;
            uncovered.push(file.clone());
        }
    }

    /// Brute-force scan of uncovered files for exact queries — "the
    /// unindexed Parquet files are only scanned if the filtered results are
    /// not sufficient" (§IV-B step 3).
    ///
    /// With `parallelism <= 1` this is a literal sequential scan with
    /// global early exit: a file is not even opened once `need` matches
    /// exist, which is the cheapest possible request count. In parallel
    /// every uncovered file is scanned speculatively (each worker stops
    /// after `need` live rows, an upper bound on what any file can
    /// contribute) and a sequential replay over the per-file row events
    /// reapplies the exact global cutoff — matches, `files_brute_scanned`,
    /// `rows_deleted`, and error order come out identical to the
    /// sequential scan; the speculative extra GETs are the price of the
    /// wall-clock win.
    ///
    /// The negative-scan cache rides on top without disturbing that
    /// equivalence: the skip set is computed upfront from pure cache
    /// consults (no store traffic, so both executors see identical
    /// decisions), skips are counted only inside the sequential cutoff,
    /// and "proved empty" is recorded only for files the cutoff actually
    /// consumed whose full scan produced zero predicate hits. Predicate
    /// hits depend only on the file's immutable bytes — deletion-vector
    /// churn can never stale an entry — and the file's snapshot size acts
    /// as the validator against rewrites.
    #[allow(clippy::too_many_arguments)]
    fn brute_exact(
        &self,
        table: &Table<'_>,
        snapshot: &Snapshot,
        uncovered: &[FileEntry],
        column: &str,
        need: usize,
        predicate: &(dyn Fn(ValueRef<'_>) -> bool + Sync),
        stats: &mut SearchStats,
        deadline_ms: Option<u64>,
        probe: Option<u64>,
    ) -> Result<Vec<Match>> {
        let mut matches = Vec::new();
        let parallelism = self.config.search.parallelism;
        let dvs = load_dvs(
            table,
            snapshot,
            uncovered.iter().map(|f| f.path.as_str()),
            parallelism,
        )?;
        let neg = match (self.config.search.neg_cache, self.store().store_id(), probe) {
            (true, ns, Some(p)) if ns != 0 => Some((NegScanCache::global(), ns, p)),
            _ => None,
        };
        let skip: Vec<bool> = uncovered
            .iter()
            .map(|f| neg.is_some_and(|(c, ns, p)| c.known_empty(ns, &f.path, f.size, p)))
            .collect();
        if parallelism <= 1 || uncovered.len() <= 1 {
            for (file, &skipped) in uncovered.iter().zip(&skip) {
                if matches.len() >= need {
                    break;
                }
                self.check_deadline(deadline_ms)?;
                if skipped {
                    stats.neg_cache_skips += 1;
                    continue;
                }
                stats.files_brute_scanned += 1;
                // Under deadline pressure the file scan races two lanes,
                // like an index probe. Both lanes scan the same immutable
                // bytes, so the event list is identical whichever wins.
                let limit = need - matches.len();
                let dv = dvs.get(&file.path);
                let (scan, hedge) = self.hedged_probe(deadline_ms, &|store| {
                    self.scan_file_events(store, file, column, limit, predicate, dv)
                });
                hedge.account(stats);
                if hedge.hedged {
                    stats.hedged_scans += 1;
                }
                let (events, pages) = scan?;
                self.store().record_page_cache_bypass(pages);
                // Zero hits ⟹ the row loop never broke early ⟹ the whole
                // column was scanned: safe to record as proven empty.
                if let Some((cache, ns, p)) = neg {
                    if events.is_empty() {
                        cache.record_empty(ns, &file.path, file.size, p);
                    }
                }
                for (row, deleted) in events {
                    if matches.len() >= need {
                        break;
                    }
                    if deleted {
                        stats.rows_deleted += 1;
                        continue;
                    }
                    matches.push(Match {
                        path: file.path.clone(),
                        row,
                        score: None,
                    });
                }
            }
            return Ok(matches);
        }

        // Each worker emits the file's predicate hits in row order as
        // (row, deleted) events plus the file's page count, stopping after
        // `need` live rows (an upper bound on the file's contribution).
        // Known-empty files are not even opened. Individual file scans
        // hedge under the same trigger as index probes.
        let scans = parallel_map_io(parallelism, self.store().clock(), uncovered, |i, file| {
            if skip[i] {
                return (Ok((Vec::new(), 0)), HedgeOutcome::default());
            }
            let _deadline = push_deadline(deadline_ms);
            if let Err(e) = self.check_deadline(deadline_ms) {
                return (Err(e), HedgeOutcome::default());
            }
            let dv = dvs.get(&file.path);
            self.hedged_probe(deadline_ms, &|store| {
                self.scan_file_events(store, file, column, need, predicate, dv)
            })
        });

        // Replay in file order under the sequential cutoff. Bypass, skip,
        // proven-empty, and hedge accounting all happen here — not on the
        // workers — so they cover exactly the files the sequential scan
        // would have touched, at any parallelism.
        for ((file, (scan, hedge)), &skipped) in uncovered.iter().zip(scans).zip(&skip) {
            if matches.len() >= need {
                break;
            }
            if skipped {
                stats.neg_cache_skips += 1;
                continue;
            }
            stats.files_brute_scanned += 1;
            hedge.account(stats);
            if hedge.hedged {
                stats.hedged_scans += 1;
            }
            let (events, pages) = scan?;
            self.store().record_page_cache_bypass(pages);
            if let Some((cache, ns, p)) = neg {
                // Workers stop early only after a predicate hit, so an
                // empty event list proves a full scan with zero hits.
                if events.is_empty() {
                    cache.record_empty(ns, &file.path, file.size, p);
                }
            }
            for (row, deleted) in events {
                if matches.len() >= need {
                    break;
                }
                if deleted {
                    stats.rows_deleted += 1;
                    continue;
                }
                matches.push(Match {
                    path: file.path.clone(),
                    row,
                    score: None,
                });
            }
        }
        Ok(matches)
    }

    /// Scans one uncovered file's column for predicate hits, emitting
    /// `(row, deleted)` events in row order and stopping after `limit`
    /// live rows; also returns the column's page count for bypass
    /// accounting. This is the brute-force unit of work: both the
    /// sequential cutoff loop and the parallel fan-out (and each lane of a
    /// hedged scan) run exactly this function, so its event list depends
    /// only on the file's immutable bytes — never on the executor.
    fn scan_file_events(
        &self,
        store: &dyn ObjectStore,
        file: &FileEntry,
        column: &str,
        limit: usize,
        predicate: &(dyn Fn(ValueRef<'_>) -> bool + Sync),
        dv: Option<&rottnest_lake::DeletionVector>,
    ) -> Result<(Vec<(u64, bool)>, u64)> {
        let reader = ChunkReader::open(store, &file.path)?;
        let col = reader
            .meta()
            .schema
            .index_of(column)
            .ok_or_else(|| RottnestError::BadQuery(format!("no column {column}")))?;
        let data = reader.read_column(col)?;
        let pages = column_page_count(reader.meta(), col);
        let mut events = Vec::new();
        let mut live = 0usize;
        for i in 0..data.len() {
            if live >= limit {
                break;
            }
            if !predicate(data.get(i).expect("in range")) {
                continue;
            }
            let row = i as u64;
            let deleted = dv.is_some_and(|dv| dv.contains(row));
            if !deleted {
                live += 1;
            }
            events.push((row, deleted));
        }
        Ok((events, pages))
    }

    /// Vector search: probed + refined index candidates merged with a
    /// brute-force pass over uncovered files (scoring queries must rank all
    /// data, §IV-B footnote 3).
    #[allow(clippy::too_many_arguments)]
    fn vector_search(
        &self,
        table: &Table<'_>,
        snapshot: &Snapshot,
        column: &str,
        qvec: &[f32],
        params: SearchParams,
        selected: &[IndexEntry],
        mut uncovered: Vec<FileEntry>,
        session: Option<&PageCacheSession>,
        mut stats: SearchStats,
        deadline_ms: Option<u64>,
    ) -> Result<SearchOutcome> {
        let dim = qvec.len() as u32;
        let mut results: Vec<Match> = Vec::new();
        let mut failed: Vec<usize> = Vec::new();
        let parallelism = self.config.search.parallelism;

        // Index entries probe in parallel into per-entry results + stats;
        // the merge absorbs them in entry order. A degradable failure
        // simply discards the entry's contribution (the sequential
        // executor's rollback, for free) and routes its files to the
        // brute-force pass below. Deadline expiry is NOT degradable: the
        // poll before each entry aborts the whole search.
        let passes = parallel_map_io(parallelism, self.store().clock(), selected, |_, entry| {
            let _deadline = push_deadline(deadline_ms);
            if let Err(e) = self.check_deadline(deadline_ms) {
                return (Err(e), HedgeOutcome::default());
            }
            self.hedged_probe(deadline_ms, &|store| {
                self.vector_entry_pass(store, table, snapshot, entry, qvec, params, dim, session)
            })
        });
        for (entry_idx, (pass, hedge)) in passes.into_iter().enumerate() {
            hedge.account(&mut stats);
            match pass {
                Ok((matches, entry_stats)) => {
                    results.extend(matches);
                    stats.absorb(&entry_stats);
                }
                Err(e) if is_degradable(&e) => {
                    stats.index_files_failed += 1;
                    failed.push(entry_idx);
                }
                Err(e) => return Err(e),
            }
        }
        self.extend_uncovered_for_failures(snapshot, selected, &failed, &mut uncovered, &mut stats);
        let uncovered = &uncovered;

        // Brute-force scan of uncovered files (always, for scoring
        // queries) — no early exit, so the parallel fan-out does no
        // speculative work; the merge just sums in file order.
        let dvs = load_dvs(
            table,
            snapshot,
            uncovered.iter().map(|f| f.path.as_str()),
            parallelism,
        )?;
        let scans = parallel_map_io(
            parallelism,
            self.store().clock(),
            uncovered,
            |_, file| -> Result<(Vec<Match>, u64, u64)> {
                let _deadline = push_deadline(deadline_ms);
                self.check_deadline(deadline_ms)?;
                let reader = ChunkReader::open(self.store(), &file.path)?;
                let col = reader
                    .meta()
                    .schema
                    .index_of(column)
                    .ok_or_else(|| RottnestError::BadQuery(format!("no column {column}")))?;
                let field_type = reader.meta().schema.fields()[col].data_type;
                if field_type != (rottnest_format::DataType::VectorF32 { dim }) {
                    return Err(RottnestError::BadQuery(format!(
                        "column {column} is {field_type:?}, not VectorF32 {{ dim: {dim} }}"
                    )));
                }
                let data = reader.read_column(col)?;
                let pages = column_page_count(reader.meta(), col);
                let dv = dvs.get(&file.path);
                let mut found = Vec::new();
                let mut deleted = 0u64;
                for i in 0..data.len() {
                    if let Some(ValueRef::VectorF32(v)) = data.get(i) {
                        let row = i as u64;
                        if let Some(dv) = dv {
                            if dv.contains(row) {
                                deleted += 1;
                                continue;
                            }
                        }
                        found.push(Match {
                            path: file.path.clone(),
                            row,
                            score: Some(rottnest_ivfpq::l2_sq(qvec, v)),
                        });
                    }
                }
                Ok((found, deleted, pages))
            },
        );
        for scan in scans {
            stats.files_brute_scanned += 1;
            let (found, deleted, pages) = scan?;
            self.store().record_page_cache_bypass(pages);
            stats.rows_deleted += deleted;
            results.extend(found);
        }

        // Tie-break equal scores by (path, row) so duplicates from
        // double-covered files are adjacent for dedup.
        results.sort_by(|a, b| {
            a.score
                .unwrap_or(f32::MAX)
                .total_cmp(&b.score.unwrap_or(f32::MAX))
                .then_with(|| a.path.cmp(&b.path))
                .then_with(|| a.row.cmp(&b.row))
        });
        results.dedup_by(|a, b| a.path == b.path && a.row == b.row);
        results.truncate(params.k);
        Ok(SearchOutcome {
            matches: results,
            stats,
        })
    }

    /// One index entry's contribution to a vector search: ADC pass, stale
    /// posting + deletion-vector filtering, optional exact rerank. Returns
    /// the entry's matches and local stats so the executor's workers never
    /// share mutable state; on error the caller discards both (the
    /// sequential rollback semantics).
    #[allow(clippy::too_many_arguments)]
    fn vector_entry_pass(
        &self,
        store: &dyn ObjectStore,
        table: &Table<'_>,
        snapshot: &Snapshot,
        entry: &IndexEntry,
        qvec: &[f32],
        params: SearchParams,
        dim: u32,
        session: Option<&PageCacheSession>,
    ) -> Result<(Vec<Match>, SearchStats)> {
        let mut results: Vec<Match> = Vec::new();
        let mut stats = SearchStats::default();
        let idx = IvfPqIndex::open(store, &entry.path)?;
        // ADC pass without refine so stale postings can be filtered
        // before any page fetch.
        let adc = idx.search(
            qvec,
            SearchParams {
                k: params.refine.max(params.k),
                nprobe: params.nprobe,
                refine: 0,
            },
            &|_| Ok(Vec::new()),
        )?;
        stats.postings_returned += adc.len() as u64;
        let dvs = load_dvs(
            table,
            snapshot,
            entry.files.iter().map(|f| f.path.as_str()),
            self.config.search.parallelism,
        )?;
        let live: Vec<(VecPosting, f32)> = adc
            .into_iter()
            .filter(|(p, _)| {
                let Some(cov) = entry.files.get(p.posting.file as usize) else {
                    return false;
                };
                if !snapshot.contains(&cov.path) {
                    stats.postings_filtered += 1;
                    return false;
                }
                // Deletion vectors apply at probe time.
                if let Some(dv) = dvs.get(&cov.path) {
                    let first = cov
                        .page_table
                        .page(p.posting.page as usize)
                        .map_or(0, |l| l.first_row);
                    if dv.contains(first + p.row as u64) {
                        stats.rows_deleted += 1;
                        return false;
                    }
                }
                true
            })
            .collect();

        let resolve_match = |p: &VecPosting, score: f32| {
            let cov = &entry.files[p.posting.file as usize];
            let first = cov
                .page_table
                .page(p.posting.page as usize)
                .map_or(0, |l| l.first_row);
            Match {
                path: cov.path.clone(),
                row: first + p.row as u64,
                score: Some(score),
            }
        };

        if params.refine == 0 {
            results.extend(
                live.iter()
                    .take(params.k)
                    .map(|(p, d)| resolve_match(p, *d)),
            );
            return Ok((results, stats));
        }
        // Exact rerank of the top `refine` live candidates, fetched in
        // situ from the data pages.
        let candidates: Vec<VecPosting> =
            live.iter().take(params.refine).map(|&(p, _)| p).collect();
        let exact = fetch_vectors(
            store,
            dim,
            &candidates,
            &|file_id| {
                entry
                    .files
                    .get(file_id as usize)
                    .map(|c| (c.path.as_str(), &c.page_table))
            },
            session,
            &mut stats.pages_probed,
        )?;
        let mut reranked: Vec<(VecPosting, f32)> = candidates
            .into_iter()
            .zip(exact)
            .map(|(p, v)| (p, rottnest_ivfpq::l2_sq(qvec, &v)))
            .collect();
        reranked.sort_by(|a, b| a.1.total_cmp(&b.1));
        results.extend(
            reranked
                .iter()
                .take(params.k)
                .map(|(p, d)| resolve_match(p, *d)),
        );
        Ok((results, stats))
    }

    /// §IV-C: merges small index files of one kind/column (bin packing),
    /// committing `remove`s and the `add` atomically. Old index files stay
    /// behind for `vacuum`. Returns the merged entries created.
    pub fn compact(&self, kind: IndexKind, column: &str) -> Result<Vec<IndexEntry>> {
        let meta = self.meta();
        // 1. Plan.
        let mut small: Vec<IndexEntry> = meta
            .scan()?
            .into_iter()
            .filter(|e| {
                e.kind.compatible(&kind)
                    && e.column == column
                    && e.size < self.config.compact_below_bytes
            })
            .collect();
        small.sort_by_key(|e| e.size);

        let mut created = Vec::new();
        for bin in small.chunks(self.config.compact_fanin.max(2)) {
            if bin.len() < 2 {
                continue;
            }
            // 2. Merge. Source index files are opened in parallel (their
            // root/component GETs overlap); the kind-specific merge then
            // consumes them strictly in bin order, so the merged bytes are
            // identical to sequential opens.
            let out_key = self.fresh_index_key(Self::ext_of(&kind));
            let offsets: Vec<u32> = bin
                .iter()
                .scan(0u32, |acc, e| {
                    let here = *acc;
                    *acc += e.files.len() as u32;
                    Some(here)
                })
                .collect();
            let size = match kind {
                IndexKind::Uuid { .. } => {
                    let opened: Vec<TrieIndex<'_>> = ordered_parallel_map_io(
                        self.config.build_parallelism,
                        self.store().clock(),
                        bin,
                        |_, e| TrieIndex::open(self.store(), &e.path),
                    )
                    .into_iter()
                    .collect::<std::result::Result<_, _>>()?;
                    let sources: Vec<(&TrieIndex<'_>, u32)> =
                        opened.iter().zip(offsets.iter().copied()).collect();
                    rottnest_trie::index::merge_tries(self.store(), &sources, &out_key)?
                }
                IndexKind::Substring => {
                    let opened: Vec<FmIndex<'_>> = ordered_parallel_map_io(
                        self.config.build_parallelism,
                        self.store().clock(),
                        bin,
                        |_, e| FmIndex::open(self.store(), &e.path),
                    )
                    .into_iter()
                    .collect::<std::result::Result<_, _>>()?;
                    let sources: Vec<(&FmIndex<'_>, u32)> =
                        opened.iter().zip(offsets.iter().copied()).collect();
                    let mut policy = self.config.fm_merge.clone();
                    policy.parallelism = self.config.build_parallelism;
                    rottnest_fm::merge_fm(self.store(), &sources, &out_key, &policy)?
                }
                IndexKind::Vector { .. } => {
                    let opened: Vec<IvfPqIndex<'_>> = ordered_parallel_map_io(
                        self.config.build_parallelism,
                        self.store().clock(),
                        bin,
                        |_, e| IvfPqIndex::open(self.store(), &e.path),
                    )
                    .into_iter()
                    .collect::<std::result::Result<_, _>>()?;
                    let sources: Vec<(&IvfPqIndex<'_>, u32)> =
                        opened.iter().zip(offsets.iter().copied()).collect();
                    rottnest_ivfpq::index::merge_ivf(self.store(), &sources, &out_key)?
                }
                IndexKind::Bloom { .. } => {
                    let opened: Vec<BloomIndex<'_>> = ordered_parallel_map_io(
                        self.config.build_parallelism,
                        self.store().clock(),
                        bin,
                        |_, e| BloomIndex::open(self.store(), &e.path),
                    )
                    .into_iter()
                    .collect::<std::result::Result<_, _>>()?;
                    let sources: Vec<(&BloomIndex<'_>, u32)> =
                        opened.iter().zip(offsets.iter().copied()).collect();
                    rottnest_bloom::merge_blooms(self.store(), &sources, &out_key)?
                }
            };

            // 3. Commit (removes + add, atomically).
            let files: Vec<crate::meta::FileCoverage> =
                bin.iter().flat_map(|e| e.files.iter().cloned()).collect();
            let rows = bin.iter().map(|e| e.rows).sum();
            let created_ms = self.store().now_ms();
            let ids: Vec<u64> = bin.iter().map(|e| e.id).collect();
            let column = column.to_string();
            let mut merged_entry = None;
            meta.commit_with(self.config.meta_retries, |version| {
                let entry = IndexEntry {
                    id: MetaTable::id_for(version, 0),
                    kind,
                    column: column.clone(),
                    path: out_key.clone(),
                    size,
                    rows,
                    created_ms,
                    files: files.clone(),
                };
                merged_entry = Some(entry.clone());
                let mut ops: Vec<MetaOp> = ids.iter().map(|&id| MetaOp::Remove(id)).collect();
                ops.push(MetaOp::Add(Box::new(entry)));
                ops
            })?;
            created.push(merged_entry.expect("commit ran"));
        }
        Ok(created)
    }

    /// Writes a checkpoint of the metadata table's log, so search planning
    /// reads one object instead of the whole commit history. Safe to run
    /// any time, from any process.
    pub fn checkpoint_meta(&self) -> Result<()> {
        let log = rottnest_lake::TxLog::new(self.store(), format!("{}/meta", self.index_dir));
        if let Some(v) = log.latest_version().map_err(RottnestError::Lake)? {
            log.write_checkpoint(v).map_err(RottnestError::Lake)?;
        }
        Ok(())
    }

    /// §IV-C `vacuum`: keeps a greedy cover of the latest snapshot's files
    /// per (kind, column) group, removes the rest from the metadata table,
    /// then physically deletes unreferenced index objects **older than the
    /// index timeout** (so concurrent uncommitted uploads survive).
    pub fn vacuum(&self, table: &Table<'_>) -> Result<VacuumReport> {
        let snapshot = table.snapshot()?;
        let active: FxHashSet<&str> = snapshot.files().map(|f| f.path.as_str()).collect();
        let meta = self.meta();
        let entries = meta.scan()?;

        // 1. Plan: greedy cover per (kind, column).
        let mut groups: FxHashMap<(String, &'static str), Vec<&IndexEntry>> = FxHashMap::default();
        for e in &entries {
            groups
                .entry((e.column.clone(), Self::ext_of(&e.kind)))
                .or_default()
                .push(e);
        }
        let mut keep: FxHashSet<u64> = FxHashSet::default();
        for group in groups.values_mut() {
            group.sort_by_key(|e| {
                std::cmp::Reverse(e.covered_paths().filter(|p| active.contains(p)).count())
            });
            let mut covered: FxHashSet<&str> = FxHashSet::default();
            for e in group.iter() {
                let adds = e
                    .covered_paths()
                    .any(|p| active.contains(p) && !covered.contains(p));
                if adds {
                    covered.extend(e.covered_paths().filter(|p| active.contains(p)));
                    keep.insert(e.id);
                }
            }
        }

        // 2. Commit removals.
        let doomed: Vec<u64> = entries
            .iter()
            .filter(|e| !keep.contains(&e.id))
            .map(|e| e.id)
            .collect();
        let mut report = VacuumReport {
            records_removed: doomed.len() as u64,
            ..Default::default()
        };
        if !doomed.is_empty() {
            meta.commit_with(self.config.meta_retries, |_| {
                doomed.iter().map(|&id| MetaOp::Remove(id)).collect()
            })?;
        }

        // 3. Remove: LIST the index dir, delete unreferenced objects older
        // than the timeout (store clock).
        let referenced: FxHashSet<String> = meta.scan()?.into_iter().map(|e| e.path).collect();
        let now = self.store().now_ms();
        for obj in self.store().list(&format!("{}/files/", self.index_dir))? {
            if referenced.contains(&obj.key) {
                continue;
            }
            if now.saturating_sub(obj.created_ms) < self.config.index_timeout_ms {
                report.objects_spared += 1;
                continue;
            }
            self.store().delete(&obj.key)?;
            // Hint the component cache so the vacuumed index file's open
            // entry and components stop pinning cache budget immediately.
            let ns = self.store().store_id();
            if ns != 0 {
                rottnest_component::ComponentCache::global().invalidate_file(ns, &obj.key);
            }
            report.objects_deleted += 1;
        }
        Ok(report)
    }
}

/// Whether a search-time failure can be absorbed by degrading to the
/// brute-force path: store faults that are still retryable after the
/// retry budget ran out (throttling, transient request failures), plus
/// circuit-breaker rejections (the domain is collapsed; scanning data
/// files instead is exactly what the breaker buys). Deterministic
/// failures — missing objects, corrupt bytes, injected crashes — and
/// deadline expiry must surface to the caller.
fn is_degradable(err: &RottnestError) -> bool {
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

/// Number of data pages in column `col` across every row group — the
/// page count a brute-force whole-column read covers, reported as
/// page-cache admission bypasses.
fn column_page_count(meta: &rottnest_format::FileMeta, col: usize) -> u64 {
    meta.row_groups
        .iter()
        .map(|g| g.chunks[col].pages.len() as u64)
        .sum()
}

/// Byte-level substring containment (naive scan — patterns are short).
pub(crate) fn contains_sub(haystack: &[u8], needle: &[u8]) -> bool {
    if needle.is_empty() || needle.len() > haystack.len() {
        return needle.is_empty();
    }
    haystack.windows(needle.len()).any(|w| w == needle)
}
