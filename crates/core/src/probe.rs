//! In-situ probing of data pages (§IV-B step 3).
//!
//! Index postings are page-granular and may include false positives; the
//! prober downloads exactly the referenced pages (batched into one parallel
//! round trip through [`PageReader`]), re-evaluates the true predicate on
//! the decoded rows, and applies deletion vectors (fetched as one
//! overlapped wave ahead of the page batch).

use rottnest_format::{ChunkReader, DataType, PageCacheSession, PageReader, PageTable, ValueRef};
use rottnest_lake::{DeletionVector, FileEntry, Snapshot, Table};
use rottnest_object_store::{
    current_deadline_ms, ordered_parallel_map_io, push_deadline, FxHashMap, FxHashSet, ObjectStore,
};

use crate::meta::IndexEntry;
use crate::query::{Match, SearchStats};
use crate::{Result, RottnestError};

/// A page to probe: which file (by path + page table), which page, and the
/// file-global row the page starts at (see [`IndexEntry::resolve`]).
#[derive(Debug, Clone)]
pub(crate) struct PageRef<'p> {
    pub path: &'p str,
    pub table: &'p PageTable,
    pub page_id: u32,
    pub first_row: u64,
}

/// Opens a data file for a brute-force read of `column`: the reader, the
/// column's ordinal, and its page count across every row group — the pages
/// a whole-column read covers, reported as page-cache admission bypasses.
pub(crate) fn open_column<'s>(
    store: &'s dyn ObjectStore,
    path: &str,
    column: &str,
) -> Result<(ChunkReader<'s>, usize, u64)> {
    let reader = ChunkReader::open(store, path)?;
    let col = reader
        .meta()
        .schema
        .index_of(column)
        .ok_or_else(|| RottnestError::BadQuery(format!("no column {column}")))?;
    let pages = reader
        .meta()
        .row_groups
        .iter()
        .map(|g| g.chunks[col].pages.len() as u64)
        .sum();
    Ok((reader, col, pages))
}

/// Loads the deletion vector of every distinct path in `paths` that has
/// one, as **one overlapped wave** of GETs over `parallelism` lanes — the
/// vectors are independent objects, so fetching them one after the other
/// between the index probe and the page fetch would only add depth. Results
/// merge in path order: the first error in input order wins, exactly as in
/// a serial loop (which is what `parallelism = 1` runs).
pub(crate) fn load_dvs<'p>(
    table: &Table<'_>,
    snapshot: &Snapshot,
    paths: impl Iterator<Item = &'p str>,
    parallelism: usize,
) -> Result<FxHashMap<String, DeletionVector>> {
    let mut seen = FxHashSet::default();
    let entries: Vec<&FileEntry> = paths
        .filter(|path| seen.insert(*path))
        .filter_map(|path| snapshot.file(path))
        .filter(|entry| entry.dv_path.is_some())
        .collect();
    // Units may run on pool workers: re-install the caller's deadline there
    // so a retry backoff inside the wave still fails typed.
    let deadline_ms = current_deadline_ms();
    let clock = table.store().clock();
    let loaded = ordered_parallel_map_io(parallelism, clock, &entries, |_, entry| {
        let _deadline = push_deadline(deadline_ms);
        table.load_dv(entry)
    });
    let mut dvs = FxHashMap::default();
    for (entry, dv) in entries.iter().zip(loaded) {
        if let Some(dv) = dv? {
            dvs.insert(entry.path.clone(), dv);
        }
    }
    Ok(dvs)
}

/// Probes `pages` with `predicate`, returning matches (file-global row
/// indices) with deletion vectors applied. Updates `stats`.
///
/// Pages are fetched in **one** parallel round trip; `limit` truncates the
/// result but never the fetch (the batch is already in flight).
#[allow(clippy::too_many_arguments)]
pub(crate) fn probe_exact(
    table: &Table<'_>,
    snapshot: &Snapshot,
    pages: &[PageRef<'_>],
    data_type: DataType,
    predicate: &(dyn Fn(ValueRef<'_>) -> bool + Sync),
    limit: usize,
    session: Option<&PageCacheSession>,
    parallelism: usize,
    stats: &mut SearchStats,
) -> Result<Vec<Match>> {
    if pages.is_empty() {
        return Ok(Vec::new());
    }
    let dvs = load_dvs(table, snapshot, pages.iter().map(|p| p.path), parallelism)?;

    let reader = match session {
        Some(s) => PageReader::cached(table.store(), s),
        None => PageReader::new(table.store()),
    };
    let requests: Vec<(&str, &PageTable, usize)> = pages
        .iter()
        .map(|p| (p.path, p.table, p.page_id as usize))
        .collect();
    let decoded = reader.read_pages(&requests, data_type)?;
    stats.pages_probed += pages.len() as u64;

    let mut matches = Vec::new();
    'outer: for (page, data) in pages.iter().zip(&decoded) {
        let dv = dvs.get(page.path);
        for i in 0..data.len() {
            let value = data.get(i).expect("in range");
            if !predicate(value) {
                continue;
            }
            let row = page.first_row + i as u64;
            if let Some(dv) = dv {
                if dv.contains(row) {
                    stats.rows_deleted += 1;
                    continue;
                }
            }
            matches.push(Match {
                path: page.path.to_string(),
                row,
                score: None,
            });
            if matches.len() >= limit {
                break 'outer;
            }
        }
    }
    Ok(matches)
}

/// Fetches exact vectors for refine candidates of `entry`: one batched page
/// fetch, then row extraction. A failed page fetch keeps its store fault
/// (typed deadline expiry, cancellation, degradable transients) visible to
/// the executor.
pub(crate) fn fetch_vectors(
    store: &dyn ObjectStore,
    dim: u32,
    candidates: &[rottnest_ivfpq::VecPosting],
    entry: &IndexEntry,
    session: Option<&PageCacheSession>,
    stats_pages: &mut u64,
) -> Result<Vec<Vec<f32>>> {
    use rottnest_ivfpq::IvfError;

    // Group unique pages.
    let mut order: Vec<(&str, &PageTable, usize)> = Vec::new();
    let mut page_slot: FxHashMap<(u32, u32), usize> = FxHashMap::default();
    for c in candidates {
        let key = (c.posting.file, c.posting.page);
        if let std::collections::hash_map::Entry::Vacant(e) = page_slot.entry(key) {
            let (cov, _) = entry.resolve(c.posting.file, c.posting.page)?;
            e.insert(order.len());
            order.push((&cov.path, &cov.page_table, c.posting.page as usize));
        }
    }
    let reader = match session {
        Some(s) => PageReader::cached(store, s),
        None => PageReader::new(store),
    };
    let decoded = reader.read_pages(&order, DataType::VectorF32 { dim })?;
    *stats_pages += order.len() as u64;

    candidates
        .iter()
        .map(|c| {
            let slot = page_slot[&(c.posting.file, c.posting.page)];
            match decoded[slot].get(c.row as usize) {
                Some(ValueRef::VectorF32(v)) => Ok(v.to_vec()),
                _ => Err(
                    IvfError::BadInput(format!("row {} out of range in probed page", c.row)).into(),
                ),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rottnest_format::{ColumnData, Field, RecordBatch, Schema};
    use rottnest_lake::TableConfig;
    use rottnest_object_store::MemoryStore;

    /// Six files, each with a deletion vector: the six GETs cost one wave of
    /// simulated time once there are six lanes, six at `parallelism = 1`,
    /// and the probe's matches and `rows_deleted` do not depend on it.
    #[test]
    fn deletion_vectors_load_as_one_wave() {
        let store = MemoryStore::new();
        let schema = Schema::new(vec![Field::new("body", DataType::Utf8)]);
        let table = Table::create(store.as_ref(), "t", &schema, TableConfig::default()).unwrap();
        let mut paths = Vec::new();
        for f in 0..6u64 {
            let rows = (0..20).map(|i| format!("file {f} row {i} needle"));
            let batch =
                RecordBatch::new(schema.clone(), vec![ColumnData::from_strings(rows)]).unwrap();
            let path = table.append(&batch).unwrap();
            table.delete_rows(&path, &[f, 7]).unwrap();
            paths.push(path);
        }
        let snapshot = table.snapshot().unwrap();
        let tables: Vec<PageTable> = paths
            .iter()
            .map(|p| PageTable::from_meta(&table.file_meta(p).unwrap(), 0).unwrap())
            .collect();
        let pages: Vec<PageRef<'_>> = paths
            .iter()
            .zip(&tables)
            .map(|(path, table)| PageRef {
                path,
                table,
                page_id: 0,
                first_row: 0,
            })
            .collect();

        let clock = store.clock().unwrap();
        let one_get = store.latency_model().get_us(1);
        let mut outcomes = Vec::new();
        for (parallelism, waves) in [(1, 6), (6, 1), (8, 1)] {
            let before = store.stats();
            let (dvs, elapsed) = clock.time(|| {
                load_dvs(
                    &table,
                    &snapshot,
                    paths.iter().map(String::as_str),
                    parallelism,
                )
                .unwrap()
            });
            assert_eq!(elapsed, waves * one_get, "parallelism {parallelism}");
            assert_eq!(store.stats().since(&before).gets, 6);
            assert_eq!(dvs.len(), 6);

            let mut stats = SearchStats::default();
            let matches = probe_exact(
                &table,
                &snapshot,
                &pages,
                DataType::Utf8,
                &|v| matches!(v, ValueRef::Utf8(s) if s.contains("needle")),
                usize::MAX,
                None,
                parallelism,
                &mut stats,
            )
            .unwrap();
            assert_eq!(stats.rows_deleted, 12);
            assert_eq!(matches.len(), 6 * 20 - 12);
            outcomes.push(matches);
        }
        assert!(outcomes.windows(2).all(|w| w[0] == w[1]));
    }

    /// The first failing vector in path order is the error reported, at
    /// every parallelism — what a serial loop would have returned.
    #[test]
    fn first_dv_error_in_path_order_wins() {
        let store = MemoryStore::unmetered();
        let schema = Schema::new(vec![Field::new("body", DataType::Utf8)]);
        let table = Table::create(store.as_ref(), "t", &schema, TableConfig::default()).unwrap();
        let mut paths = Vec::new();
        for f in 0..6u64 {
            let rows = (0..4).map(|i| format!("file {f} row {i}"));
            let batch =
                RecordBatch::new(schema.clone(), vec![ColumnData::from_strings(rows)]).unwrap();
            let path = table.append(&batch).unwrap();
            table.delete_rows(&path, &[1]).unwrap();
            paths.push(path);
        }
        let snapshot = table.snapshot().unwrap();
        // Vectors 2 and 4 are gone: a missing object fails without retries.
        for f in [4, 2] {
            let dv_path = snapshot.file(&paths[f]).unwrap().dv_path.clone().unwrap();
            store.delete(&dv_path).unwrap();
        }
        let gone = snapshot.file(&paths[2]).unwrap().dv_path.clone().unwrap();
        for parallelism in [1, 8] {
            let err = load_dvs(
                &table,
                &snapshot,
                paths.iter().map(String::as_str),
                parallelism,
            )
            .unwrap_err();
            assert!(
                err.to_string().contains(&gone),
                "parallelism {parallelism}: {err}"
            );
        }
    }
}
