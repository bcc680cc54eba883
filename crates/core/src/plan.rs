//! Planning (§IV-B step 1): the cached metadata scan, the greedy cover that
//! `search` and `vacuum` share, and the probe pass over the selected entries
//! that re-plans around unreadable index files.

use std::sync::Arc;

use rottnest_lake::{FileEntry, Snapshot};
use rottnest_object_store::{ordered_parallel_map_io, FxHashSet, ObjectStore};

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

impl Rottnest<'_> {
    /// The full metadata record set, memoized per log version. A hit costs
    /// one LIST instead of replaying the log (checkpoint/record GETs);
    /// since every metadata mutation commits a new version, an unchanged
    /// version guarantees an unchanged record set across processes. A miss
    /// replays off the same listing, so it costs one LIST too.
    fn cached_meta_scan(&self) -> Result<Arc<Vec<IndexEntry>>> {
        let meta = self.meta();
        let listing = meta.listing()?;
        let Some(version) = listing.latest_version() else {
            // Empty log: nothing to key a cache entry on (and nothing to
            // cache — the scan would be free anyway).
            return Ok(Arc::new(Vec::new()));
        };
        if let Some((cached_version, entries)) = &*self.plan_cache.lock().expect("plan cache lock")
        {
            if *cached_version == version {
                return Ok(entries.clone());
            }
        }
        let fresh = Arc::new(meta.scan_listed(&listing, version)?);
        *self.plan_cache.lock().expect("plan cache lock") = Some((version, fresh.clone()));
        Ok(fresh)
    }

    /// §IV-B plan: the greedy cover of the snapshot's files by the entries
    /// over `column` that serve `kind`. Returns (selected entries, uncovered
    /// active files).
    pub(crate) fn plan_search(
        &self,
        snapshot: &Snapshot,
        kind: &IndexKind,
        column: &str,
    ) -> Result<(Vec<IndexEntry>, Vec<FileEntry>)> {
        let entries = self.cached_meta_scan()?;
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
        Ok((selected.into_iter().cloned().collect(), uncovered))
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
    ) -> Result<Vec<(&'e IndexEntry, R)>> {
        let lanes = self.config().search.parallelism;
        let outcomes =
            ordered_parallel_map_io(lanes, self.store().clock(), selected, |_, entry| {
                self.hedged_probe(cx.deadline_ms, &|store| probe(store, entry))
            });
        let mut answered = Vec::with_capacity(selected.len());
        for (entry, (outcome, hedge)) in selected.iter().zip(outcomes) {
            hedge.account(stats);
            match outcome {
                Ok(found) => answered.push((entry, found)),
                Err(e) if is_degradable(&e) => stats.index_files_failed += 1,
                Err(e) => return Err(e),
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
        Ok(answered)
    }
}
