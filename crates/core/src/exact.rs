//! The exact-query pipeline (§IV-B steps 2–3): probe the selected indexes,
//! verify their page postings in situ, and brute-scan what no healthy index
//! covers — only while fewer than `k` matches are in hand.

use rottnest_format::{DataType, NegScanCache, ValueRef};
use rottnest_lake::{DeletionVector, FileEntry};
use rottnest_object_store::{ordered_parallel_map_io, FxHashSet, ObjectStore};

use crate::family::{self, Postings};
use crate::meta::IndexEntry;
use crate::probe::{load_dvs, open_column, probe_exact, PageRef};
use crate::query::{Match, SearchOutcome, SearchStats};
use crate::rottnest::{Rottnest, Search};
use crate::Result;

/// What the exact pipeline needs of a query: any `k` live rows whose value
/// satisfies `predicate`.
pub(crate) struct ExactQuery<'q> {
    pub k: usize,
    /// The type probed pages decode as.
    pub data_type: DataType,
    /// Identity of the probe in the negative-scan cache.
    pub fingerprint: u64,
    /// The true predicate, re-evaluated on every candidate row.
    pub predicate: &'q (dyn Fn(ValueRef<'_>) -> bool + Sync),
}

/// One brute-scanned file: predicate hits in row order as `(row, deleted)`
/// events, plus the column's page count for bypass accounting.
type FileScan = (Vec<(u64, bool)>, u64);

impl Rottnest<'_> {
    /// Runs an exact query over the plan: index probes, in-situ probe of
    /// the pages they name, then the brute-force pass if matches are short.
    /// `None`: the cached plan was stale (see [`Rottnest::probe_selected`]).
    pub(crate) fn exact_search(
        &self,
        cx: &Search<'_>,
        exact: &ExactQuery<'_>,
        selected: &[IndexEntry],
        mut uncovered: Vec<FileEntry>,
        mut stats: SearchStats,
    ) -> Result<Option<SearchOutcome>> {
        // 2. Query indexes, filtering postings outside the snapshot.
        let probed =
            self.probe_selected(cx, selected, &mut uncovered, &mut stats, |store, entry| {
                match family::with(entry.kind, |f| f.probe(store, &entry.path, cx.query))? {
                    Postings::Pages(pages) => Ok(pages),
                    Postings::Scored(_) => Err(family::unserved("scoring")),
                }
            })?;
        let Some(probed) = probed else {
            return Ok(None);
        };
        let mut pages: Vec<PageRef<'_>> = Vec::new();
        // Keyed by (path, page): concurrently-built indexes may cover the
        // same file (§IV-A allows the wasteful overlap), and the same page
        // must be probed only once or matches would duplicate.
        let mut seen: FxHashSet<(&str, u32)> = FxHashSet::default();
        for (entry, postings) in probed {
            stats.postings_returned += postings.len() as u64;
            for p in postings {
                let (cov, first_row) = entry.resolve(p.file, p.page)?;
                if !cx.snapshot.contains(&cov.path) {
                    stats.postings_filtered += 1;
                } else if seen.insert((cov.path.as_str(), p.page)) {
                    pages.push(PageRef {
                        path: &cov.path,
                        table: &cov.page_table,
                        page_id: p.page,
                        first_row,
                    });
                }
            }
        }
        // 3. In-situ probe.
        self.check_deadline(cx.deadline_ms)?;
        let mut matches = probe_exact(
            cx.table,
            cx.snapshot,
            &pages,
            exact.data_type,
            exact.predicate,
            exact.k,
            cx.session,
            self.config().search.parallelism,
            &mut stats,
        )?;
        if matches.len() < exact.k {
            let need = exact.k - matches.len();
            matches.extend(self.brute_exact(cx, exact, &uncovered, need, &mut stats)?);
        }
        matches.truncate(exact.k);
        Ok(Some(SearchOutcome { matches, stats }))
    }

    /// Brute-force scan of uncovered files for exact queries — "the
    /// unindexed Parquet files are only scanned if the filtered results are
    /// not sufficient" (§IV-B step 3).
    ///
    /// One replay walks the files in order under the global cutoff and is
    /// the only place matches and stats are produced; what differs with
    /// `parallelism` is where a file's scan comes from. With
    /// `parallelism <= 1` the replay scans lazily: a file is not even
    /// opened once `need` matches exist, which is the cheapest possible
    /// request count. In parallel every uncovered file is scanned
    /// speculatively up front (each worker stops after `need` live rows,
    /// an upper bound on what any file can contribute), so matches,
    /// `files_brute_scanned`, `rows_deleted`, and error order come out
    /// identical; the speculative extra GETs are the price of the
    /// wall-clock win.
    ///
    /// The negative-scan cache rides on top without disturbing that
    /// equivalence: the skip set is computed upfront from pure cache
    /// consults (no store traffic, so both sources see identical
    /// decisions), skips are counted only inside the cutoff, and "proved
    /// empty" is recorded only for files the cutoff actually consumed
    /// whose full scan produced zero predicate hits. Predicate hits depend
    /// only on the file's immutable bytes — deletion-vector churn can
    /// never stale an entry — and the file's snapshot size acts as the
    /// validator against rewrites.
    fn brute_exact(
        &self,
        cx: &Search<'_>,
        exact: &ExactQuery<'_>,
        uncovered: &[FileEntry],
        need: usize,
        stats: &mut SearchStats,
    ) -> Result<Vec<Match>> {
        let parallelism = self.config().search.parallelism;
        let paths = uncovered.iter().map(|f| f.path.as_str());
        let dvs = load_dvs(cx.table, cx.snapshot, paths, parallelism)?;
        let ns = self.store().store_id();
        let neg = (self.config().search.neg_cache && ns != 0).then(NegScanCache::global);
        let skip: Vec<bool> = uncovered
            .iter()
            .map(|f| neg.is_some_and(|c| c.known_empty(ns, &f.path, f.size, exact.fingerprint)))
            .collect();
        // The unit of work of both sources: one file's scan, hedged under
        // deadline pressure like an index probe. Both lanes scan the same
        // immutable bytes, so the events are identical whichever wins.
        let scan = |file: &FileEntry, limit: usize| {
            let dv = dvs.get(&file.path);
            self.hedged_probe(cx.deadline_ms, &|store| {
                scan_file_events(store, file, cx.column, limit, exact.predicate, dv)
            })
        };
        // Known-empty files are not even opened.
        let mut eager = (parallelism > 1 && uncovered.len() > 1).then(|| {
            ordered_parallel_map_io(parallelism, self.store().clock(), uncovered, |i, file| {
                (!skip[i]).then(|| scan(file, need))
            })
            .into_iter()
        });

        // Bypass, skip, proven-empty, and hedge accounting all happen in
        // the replay — not on the workers — so they cover exactly the files
        // the lazy scan would have touched, at any parallelism.
        let mut matches = Vec::new();
        for (file, &skipped) in uncovered.iter().zip(&skip) {
            if matches.len() >= need {
                break;
            }
            let scanned = match &mut eager {
                Some(scans) => scans.next().expect("one slot per uncovered file"),
                None => (!skipped).then(|| scan(file, need - matches.len())),
            };
            let Some((scanned, hedge)) = scanned else {
                stats.neg_cache_skips += 1;
                continue;
            };
            stats.files_brute_scanned += 1;
            hedge.account(stats);
            stats.hedged_scans += u64::from(hedge.hedged);
            let (events, pages) = scanned?;
            self.store().record_page_cache_bypass(pages);
            // A scan stops early only after a predicate hit, so an empty
            // event list proves the whole column was scanned with zero
            // hits: safe to record as proven empty.
            if let (Some(cache), true) = (neg, events.is_empty()) {
                cache.record_empty(ns, &file.path, file.size, exact.fingerprint);
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
}

/// Scans one uncovered file's column for predicate hits, emitting
/// `(row, deleted)` events in row order and stopping after `limit` live
/// rows. This is the brute-force unit of work: the lazy and the eager
/// source (and each lane of a hedged scan) run exactly this function, so
/// its event list depends only on the file's immutable bytes — never on
/// the executor.
fn scan_file_events(
    store: &dyn ObjectStore,
    file: &FileEntry,
    column: &str,
    limit: usize,
    predicate: &(dyn Fn(ValueRef<'_>) -> bool + Sync),
    dv: Option<&DeletionVector>,
) -> Result<FileScan> {
    let (reader, col, pages) = open_column(store, &file.path, column)?;
    let data = reader.read_column(col)?;
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

/// Byte-level substring containment (naive scan — patterns are short).
pub(crate) fn contains_sub(haystack: &[u8], needle: &[u8]) -> bool {
    if needle.is_empty() || needle.len() > haystack.len() {
        return needle.is_empty();
    }
    haystack.windows(needle.len()).any(|w| w == needle)
}
