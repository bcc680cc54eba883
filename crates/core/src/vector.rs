//! The scoring-query pipeline: probed and exactly reranked index candidates
//! merged with a brute-force pass over uncovered files (scoring queries
//! must rank all data, §IV-B footnote 3).

use rottnest_format::{DataType, ValueRef};
use rottnest_ivfpq::{l2_sq, SearchParams, VecPosting};
use rottnest_lake::FileEntry;
use rottnest_object_store::{ordered_parallel_map_io, push_deadline, ObjectStore};

use crate::family::{self, Postings};
use crate::meta::IndexEntry;
use crate::probe::{fetch_vectors, load_dvs, open_column};
use crate::query::{Match, SearchOutcome, SearchStats};
use crate::rottnest::{Rottnest, Search};
use crate::{Result, RottnestError};

impl Rottnest<'_> {
    /// Runs a nearest-neighbour query over the plan. `None`: the cached plan
    /// was stale (see [`Rottnest::probe_selected`]).
    pub(crate) fn vector_search(
        &self,
        cx: &Search<'_>,
        qvec: &[f32],
        params: SearchParams,
        selected: &[IndexEntry],
        mut uncovered: Vec<FileEntry>,
        mut stats: SearchStats,
    ) -> Result<Option<SearchOutcome>> {
        let dim = qvec.len() as u32;
        let parallelism = self.config().search.parallelism;
        // Each entry probes into its own results + stats; they are absorbed
        // in entry order. A failed entry's contribution is simply absent
        // (the sequential executor's rollback, for free).
        let passes =
            self.probe_selected(cx, selected, &mut uncovered, &mut stats, |store, entry| {
                self.vector_entry_pass(store, cx, entry, qvec, params)
            })?;
        let Some(passes) = passes else {
            return Ok(None);
        };
        let mut results: Vec<Match> = Vec::new();
        for (_, (matches, entry_stats)) in passes {
            results.extend(matches);
            stats.absorb(&entry_stats);
        }
        let uncovered = &uncovered;

        // Brute-force scan of uncovered files (always, for scoring
        // queries) — no early exit, so the parallel fan-out does no
        // speculative work; the merge just sums in file order.
        let paths = uncovered.iter().map(|f| f.path.as_str());
        let dvs = load_dvs(cx.table, cx.snapshot, paths, parallelism)?;
        let scans = ordered_parallel_map_io(
            parallelism,
            self.store().clock(),
            uncovered,
            |_, file| -> Result<(Vec<Match>, u64, u64)> {
                let _deadline = push_deadline(cx.deadline_ms);
                self.check_deadline(cx.deadline_ms)?;
                let (reader, col, pages) = open_column(self.store(), &file.path, cx.column)?;
                let field_type = reader.meta().schema.fields()[col].data_type;
                if field_type != (DataType::VectorF32 { dim }) {
                    return Err(RottnestError::BadQuery(format!(
                        "column {} is {field_type:?}, not VectorF32 {{ dim: {dim} }}",
                        cx.column
                    )));
                }
                let data = reader.read_column(col)?;
                let dv = dvs.get(&file.path);
                let mut found = Vec::new();
                let mut deleted = 0u64;
                for i in 0..data.len() {
                    if let Some(ValueRef::VectorF32(v)) = data.get(i) {
                        let row = i as u64;
                        if dv.is_some_and(|dv| dv.contains(row)) {
                            deleted += 1;
                            continue;
                        }
                        found.push(Match {
                            path: file.path.clone(),
                            row,
                            score: Some(l2_sq(qvec, v)),
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
        Ok(Some(SearchOutcome {
            matches: results,
            stats,
        }))
    }

    /// One index entry's contribution to a vector search: ADC pass, stale
    /// posting + deletion-vector filtering, optional exact rerank. Returns
    /// the entry's matches and local stats so the executor's workers never
    /// share mutable state; on error the caller discards both (the
    /// sequential rollback semantics).
    fn vector_entry_pass(
        &self,
        store: &dyn ObjectStore,
        cx: &Search<'_>,
        entry: &IndexEntry,
        qvec: &[f32],
        params: SearchParams,
    ) -> Result<(Vec<Match>, SearchStats)> {
        let mut stats = SearchStats::default();
        let probed = family::with(entry.kind, |f| f.probe(store, &entry.path, cx.query))?;
        let Postings::Scored(adc) = probed else {
            return Err(family::unserved("page-granular"));
        };
        stats.postings_returned += adc.len() as u64;
        let dvs = load_dvs(
            cx.table,
            cx.snapshot,
            entry.covered_paths(),
            self.config().search.parallelism,
        )?;
        // Candidates still worth a page fetch, with their file-global row:
        // stale postings and deleted rows (deletion vectors apply at probe
        // time) drop out before any page is read.
        let mut live: Vec<(VecPosting, u64, f32)> = Vec::with_capacity(adc.len());
        for (p, score) in adc {
            let (cov, first_row) = entry.resolve(p.posting.file, p.posting.page)?;
            if !cx.snapshot.contains(&cov.path) {
                stats.postings_filtered += 1;
                continue;
            }
            let row = first_row + u64::from(p.row);
            if dvs.get(&cov.path).is_some_and(|dv| dv.contains(row)) {
                stats.rows_deleted += 1;
                continue;
            }
            live.push((p, row, score));
        }
        // Exact rerank of the top `refine` live candidates, fetched in
        // situ from the data pages.
        if params.refine > 0 {
            live.truncate(params.refine);
            let candidates: Vec<VecPosting> = live.iter().map(|&(p, _, _)| p).collect();
            let exact = fetch_vectors(
                store,
                qvec.len() as u32,
                &candidates,
                entry,
                cx.session,
                &mut stats.pages_probed,
            )?;
            for ((_, _, score), v) in live.iter_mut().zip(&exact) {
                *score = l2_sq(qvec, v);
            }
            live.sort_by(|a, b| a.2.total_cmp(&b.2));
        }
        let matches = live
            .iter()
            .take(params.k)
            .map(|&(p, row, score)| Match {
                // `resolve` vouched for the file id above.
                path: entry.files[p.posting.file as usize].path.clone(),
                row,
                score: Some(score),
            })
            .collect();
        Ok((matches, stats))
    }
}
