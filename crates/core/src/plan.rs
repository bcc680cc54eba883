//! Planning (§IV-B step 1): the cached metadata scan, the greedy cover that
//! `search` and `vacuum` share, and the probe pass over the selected entries
//! that re-plans around unreadable index files.

use std::sync::Arc;

use rottnest_lake::{FileEntry, Snapshot};
use rottnest_object_store::{ordered_parallel_map_io, push_deadline, FxHashSet, ObjectStore};

use crate::family;
use crate::meta::{IndexEntry, IndexKind};
use crate::query::SearchStats;
use crate::rottnest::{is_degradable, Rottnest, Search};
use crate::Result;

/// Greedy cover: walks `candidates` by descending coverage of `active`
/// files (ties keep their input order) and keeps each one that covers an
/// active file no earlier pick covers. Returns the picks and the active
/// paths they cover.
pub(crate) fn greedy_cover<'e>(
    mut candidates: Vec<&'e IndexEntry>,
    active: &FxHashSet<&str>,
) -> (Vec<&'e IndexEntry>, FxHashSet<&'e str>) {
    let active_paths = |e: &'e IndexEntry| e.covered_paths().filter(|path| active.contains(path));
    candidates.sort_by_key(|e| std::cmp::Reverse(active_paths(e).count()));
    let mut covered: FxHashSet<&'e str> = FxHashSet::default();
    candidates.retain(|e| {
        let adds = active_paths(e).any(|path| !covered.contains(path));
        if adds {
            covered.extend(active_paths(e));
        }
        adds
    });
    (candidates, covered)
}

/// One unit of the probe wave, as asked and as answered.
enum Unit<P, F> {
    /// An index entry's probe.
    Probe(P),
    /// Has the metadata log moved past the version the cached plan is of?
    Freshness(F),
}

impl Rottnest<'_> {
    /// The full metadata record set, memoized per log version, and — when
    /// it is served from the cache (`use_cache`) — the version it was
    /// replayed at, which nobody has checked yet: every metadata mutation
    /// commits a new version, so the caller proves the set current, across
    /// processes, with one HEAD for the next one (`MetaTable::moved_past`).
    /// A miss costs one LIST: the replay runs off the same listing.
    fn cached_meta_scan(&self, use_cache: bool) -> Result<(Arc<Vec<IndexEntry>>, Option<u64>)> {
        if use_cache {
            if let Some((version, entries)) = &*self.plan_cache.lock().expect("plan cache lock") {
                return Ok((entries.clone(), Some(*version)));
            }
        }
        let meta = self.meta();
        let listing = meta.listing()?;
        let Some(version) = listing.latest_version() else {
            // Empty log: nothing to key a cache entry on (and nothing to
            // cache — the scan would be free anyway).
            return Ok((Arc::new(Vec::new()), None));
        };
        let fresh = Arc::new(meta.scan_listed(&listing, version)?);
        *self.plan_cache.lock().expect("plan cache lock") = Some((version, fresh.clone()));
        Ok((fresh, None))
    }

    /// §IV-B plan: the greedy cover of the snapshot's files by the entries
    /// over `column` that serve `kind`. Returns (selected entries, uncovered
    /// active files, the version a cached plan is still unverified at).
    pub(crate) fn plan_search(
        &self,
        snapshot: &Snapshot,
        kind: &IndexKind,
        column: &str,
        use_cache: bool,
    ) -> Result<(Vec<IndexEntry>, Vec<FileEntry>, Option<u64>)> {
        let (entries, unverified) = self.cached_meta_scan(use_cache)?;
        let candidates = entries
            .iter()
            .filter(|e| e.column == column && family::with(e.kind, |f| f.serves()) == *kind)
            .collect();
        let active: FxHashSet<&str> = snapshot.files().map(|f| f.path.as_str()).collect();
        let (selected, covered) = greedy_cover(candidates, &active);
        let uncovered = snapshot
            .files()
            .filter(|f| !covered.contains(f.path.as_str()))
            .cloned()
            .collect();
        let selected = selected.into_iter().cloned().collect();
        Ok((selected, uncovered, unverified))
    }

    /// Probes every selected entry — fanned out over the search's lanes
    /// (the I/O-aware map charges the probes' simulated latency as the
    /// overlapped critical path of `parallelism` connections), each unit
    /// deadline-polled and hedged under pressure — and returns what the
    /// entries that answered returned, in entry order, so the caller's merge
    /// reproduces the sequential pass exactly: stats, degradation and the
    /// first hard error. (Sequential execution stops probing after a hard
    /// error; running the remaining probes is the only extra work
    /// parallelism adds on that path, and their outcomes are discarded.)
    ///
    /// A cached plan still unverified (`cx.unverified`) gets its freshness
    /// probe here, as the wave's first unit: the index probes read nothing
    /// it decides — their entries come from the cached plan — so the HEAD
    /// overlaps them instead of preceding them. If the log has moved, every
    /// outcome of the wave is discarded and `Ok(None)` tells the caller to
    /// re-plan from a LIST: index files are immutable, so a stale plan costs
    /// time, never an answer, and a probe that met a vacuumed file is thrown
    /// away unread. A probe that *fails* is never read as "still current":
    /// like a failed LIST, a degradable fault sends the whole query to the
    /// brute path and any other surfaces.
    ///
    /// Graceful degradation (tentpole of the resilience layer): an entry
    /// whose index file still cannot be read after the retry budget is
    /// counted and contributes nothing, and the files only such entries
    /// cover join `uncovered` for the brute-force pass. Results stay correct
    /// — the query just pays scan cost for the affected files — and the
    /// reassignment is visible in `stats`. Deadline expiry is NOT
    /// degradable: it aborts the whole search.
    pub(crate) fn probe_selected<'e, R: Send>(
        &self,
        cx: &Search<'_>,
        selected: &'e [IndexEntry],
        uncovered: &mut Vec<FileEntry>,
        stats: &mut SearchStats,
        probe: impl Fn(&dyn ObjectStore, &IndexEntry) -> Result<R> + Sync,
    ) -> Result<Option<Vec<(&'e IndexEntry, R)>>> {
        let lanes = self.config().search.parallelism;
        let units: Vec<Unit<&IndexEntry, u64>> = (cx.unverified.map(Unit::Freshness).into_iter())
            .chain(selected.iter().map(Unit::Probe))
            .collect();
        let outcomes =
            ordered_parallel_map_io(lanes, self.store().clock(), &units, |_, unit| match *unit {
                Unit::Probe(entry) => {
                    Unit::Probe(self.hedged_probe(cx.deadline_ms, &|store| probe(store, entry)))
                }
                Unit::Freshness(version) => {
                    let _deadline = push_deadline(cx.deadline_ms);
                    let in_time = self.check_deadline(cx.deadline_ms);
                    Unit::Freshness(in_time.and_then(|()| self.meta().moved_past(version)))
                }
            });
        let mut answered = Vec::with_capacity(selected.len());
        let mut entries = selected.iter();
        for unit in outcomes {
            match unit {
                Unit::Freshness(Ok(false)) => {}
                Unit::Freshness(Ok(true)) => return Ok(None),
                Unit::Freshness(Err(e)) if is_degradable(&e) => {
                    *stats = SearchStats {
                        brownout_queries: 1,
                        ..SearchStats::default()
                    };
                    *uncovered = cx.snapshot.files().cloned().collect();
                    return Ok(Some(Vec::new()));
                }
                Unit::Freshness(Err(e)) => return Err(e),
                Unit::Probe((outcome, hedge)) => {
                    let entry = entries.next().expect("one probe per selected entry");
                    hedge.account(stats);
                    match outcome {
                        Ok(found) => answered.push((entry, found)),
                        Err(e) if is_degradable(&e) => stats.index_files_failed += 1,
                        Err(e) => return Err(e),
                    }
                }
            }
        }
        if answered.len() < selected.len() {
            let still_covered: FxHashSet<&str> = answered
                .iter()
                .flat_map(|(e, _)| e.covered_paths())
                .chain(uncovered.iter().map(|f| f.path.as_str()))
                .collect();
            let degraded: Vec<FileEntry> = cx
                .snapshot
                .files()
                .filter(|f| !still_covered.contains(f.path.as_str()))
                .cloned()
                .collect();
            stats.files_degraded += degraded.len() as u64;
            uncovered.extend(degraded);
        }
        Ok(Some(answered))
    }
}
