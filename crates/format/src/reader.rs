//! The two read paths of Figure 5.
//!
//! [`ChunkReader`] models today's query engines: a dependent chain of
//! (1) footer fetch → (2) whole-column-chunk fetch → decompress everything.
//! [`PageReader`] is Rottnest's optimized reader: armed with an external
//! [`PageTable`], it issues **one** range GET per needed page (~300 KiB) and
//! never touches the footer. §VII-C shows this one change moves Rottnest
//! from losing to the copy-data approach to matching a purpose-built format.

use std::sync::OnceLock;

use bytes::Bytes;
use rottnest_object_store::{ObjectStore, RangeRequest, SingleFlight};

use crate::column::ColumnData;
use crate::footer::FileMeta;
use crate::page::decode_page;
use crate::page_cache::{PageCache, PageCacheSession};
use crate::page_table::PageTable;
use crate::schema::DataType;
use crate::{FormatError, Result};

/// Speculative tail fetch size: one GET usually captures the whole footer.
const TAIL_FETCH: u64 = 64 * 1024;

/// `(store id, file key, offset, len, validator)` — the same coordinates
/// that key the page cache, so two flights can only merge when a cache hit
/// would also have been legal (same bytes, same file generation).
type PageFlightKey = (u64, String, u64, u64, u64);

/// Process-wide single-flight table for single-page GETs: concurrent
/// identical cache misses share one underlying request instead of
/// stampeding the store. Only validator-fenced reads on cacheable stores
/// participate; everything else goes straight to the store, so sequential
/// request counts are bit-identical to a build without single-flight.
fn page_flights() -> &'static SingleFlight<PageFlightKey, Bytes> {
    static FLIGHTS: OnceLock<SingleFlight<PageFlightKey, Bytes>> = OnceLock::new();
    FLIGHTS.get_or_init(SingleFlight::new)
}

/// Traditional footer-first, whole-chunk reader.
pub struct ChunkReader<'a> {
    store: &'a dyn ObjectStore,
    key: String,
    meta: FileMeta,
}

impl<'a> ChunkReader<'a> {
    /// Opens a file: HEAD for the length, then a speculative tail GET for
    /// the footer (a second GET only if the footer exceeds 64 KiB).
    pub fn open(store: &'a dyn ObjectStore, key: &str) -> Result<Self> {
        let head = store.head(key)?;
        let len = head.size;
        let tail_start = len.saturating_sub(TAIL_FETCH);
        let tail = store.get_range(key, tail_start..len)?;
        let meta = match FileMeta::from_tail(&tail, len) {
            Ok((meta, _)) => meta,
            Err(_) if tail_start > 0 => {
                // Footer larger than the speculative fetch: read it exactly.
                let frame = store.get_range(key, len - 8..len)?;
                let footer_len = u32::from_le_bytes(frame[..4].try_into().unwrap()) as u64;
                let full = store.get_range(key, len - 8 - footer_len..len)?;
                FileMeta::from_tail(&full, len)?.0
            }
            Err(e) => return Err(e),
        };
        Ok(Self {
            store,
            key: key.to_string(),
            meta,
        })
    }

    /// The parsed file metadata.
    pub fn meta(&self) -> &FileMeta {
        &self.meta
    }

    /// Downloads and decodes **an entire column chunk** (all pages of column
    /// `col` in row group `rg`) — the traditional access pattern whose cost
    /// §II-B2 criticizes.
    pub fn read_chunk(&self, rg: usize, col: usize) -> Result<ColumnData> {
        let group = self
            .meta
            .row_groups
            .get(rg)
            .ok_or_else(|| FormatError::Corrupt(format!("no row group {rg}")))?;
        let chunk = group
            .chunks
            .get(col)
            .ok_or_else(|| FormatError::Corrupt(format!("no column {col}")))?;
        let data_type = self.meta.schema.fields()[col].data_type;
        let bytes = self
            .store
            .get_range(&self.key, chunk.offset..chunk.offset + chunk.size)?;

        let mut out = ColumnData::empty(data_type);
        for page in &chunk.pages {
            let start = (page.offset - chunk.offset) as usize;
            let end = start + page.size as usize;
            let col_data = decode_page(&bytes[start..end], data_type)?;
            out.extend_from_page(&col_data)?;
        }
        Ok(out)
    }

    /// Reads the full column across all row groups (the brute-force scan
    /// path).
    pub fn read_column(&self, col: usize) -> Result<ColumnData> {
        let data_type = self.meta.schema.fields()[col].data_type;
        let mut out = ColumnData::empty(data_type);
        for rg in 0..self.meta.row_groups.len() {
            let chunk = self.read_chunk(rg, col)?;
            out.extend_from_page(&chunk)?;
        }
        Ok(out)
    }

    /// Bytes that [`ChunkReader::read_column`] would transfer, without
    /// reading (used by the cluster cost model).
    pub fn column_bytes(&self, col: usize) -> u64 {
        self.meta
            .row_groups
            .iter()
            .map(|rg| rg.chunks[col].size)
            .sum()
    }
}

// Private helper so ColumnData keeps a single public extend API.
trait ExtendFromPage {
    fn extend_from_page(&mut self, other: &ColumnData) -> Result<()>;
}

impl ExtendFromPage for ColumnData {
    fn extend_from_page(&mut self, other: &ColumnData) -> Result<()> {
        self.extend_from(other)
    }
}

/// Rottnest's page-granular reader.
///
/// Requires no file metadata at all — the caller supplies
/// [`PageLocation`](crate::page_table::PageLocation)s from an index's
/// embedded page table.
pub struct PageReader<'a> {
    store: &'a dyn ObjectStore,
    cache: Option<&'a PageCacheSession>,
}

impl<'a> PageReader<'a> {
    /// Creates an uncached reader over `store`: every page is one range
    /// GET, exactly as before the page cache existed.
    pub fn new(store: &'a dyn ObjectStore) -> Self {
        Self { store, cache: None }
    }

    /// Creates a reader that consults the process-wide [`PageCache`],
    /// revalidating files through `session` (one HEAD per file per
    /// session). Results are identical to [`PageReader::new`] — pages are
    /// immutable bytes keyed by a validator of the file generation — only
    /// the request count changes.
    pub fn cached(store: &'a dyn ObjectStore, session: &'a PageCacheSession) -> Self {
        Self {
            store,
            cache: Some(session),
        }
    }

    /// Fetches and decodes a single page with one range GET (or zero, on a
    /// page-cache hit).
    pub fn read_page(
        &self,
        key: &str,
        table: &PageTable,
        page_id: usize,
        data_type: DataType,
    ) -> Result<ColumnData> {
        let loc = table
            .page(page_id)
            .ok_or_else(|| FormatError::Corrupt(format!("no page {page_id} in table")))?;
        let validator = match self.cache {
            Some(session) => session.validators(self.store, &[key])?[0],
            None => None,
        };
        if let Some(v) = validator {
            let ns = self.store.store_id();
            if let Some(bytes) = PageCache::global().get(ns, key, loc.offset, loc.size, v) {
                self.store.record_page_cache(1, 0, loc.size);
                return decode_page(&bytes, data_type);
            }
        }
        let ns = self.store.store_id();
        let bytes = match validator {
            Some(v) if ns != 0 => {
                let flight_key = (ns, key.to_string(), loc.offset, loc.size, v);
                let (fetched, deduped) = page_flights().run(&flight_key, || {
                    self.store.get_range(key, loc.offset..loc.offset + loc.size)
                });
                if deduped {
                    self.store.record_dedup(1);
                }
                fetched?
            }
            _ => self
                .store
                .get_range(key, loc.offset..loc.offset + loc.size)?,
        };
        if let Some(v) = validator {
            self.store.record_page_cache(0, 1, 0);
            // Never cache a torn short read; retry layers above re-fetch.
            if bytes.len() as u64 == loc.size {
                PageCache::global().put(ns, key, loc.offset, loc.size, v, bytes.clone());
            }
        }
        decode_page(&bytes, data_type)
    }

    /// Fetches many pages, possibly across files, in **one parallel round
    /// trip** (the access-width optimization of §V-B). Requests are
    /// `(file_key, page_table, page_id)` triples; results come back in
    /// order.
    ///
    /// With a cache session, the batch's files are first revalidated in one
    /// overlapped HEAD wave (only those the session has not seen yet), then
    /// the cache is consulted **before** the batch is handed to
    /// [`ObjectStore::get_ranges`]: cached pages never reach the range
    /// coalescer, so a hit can never widen a covering GET around it — only
    /// the true misses are fetched (and inserted for next time).
    pub fn read_pages(
        &self,
        requests: &[(&str, &PageTable, usize)],
        data_type: DataType,
    ) -> Result<Vec<ColumnData>> {
        let mut locs = Vec::with_capacity(requests.len());
        for (key, table, page_id) in requests {
            let loc = table.page(*page_id).ok_or_else(|| {
                FormatError::Corrupt(format!("no page {page_id} in table for {key}"))
            })?;
            locs.push((loc.offset, loc.size));
        }

        let ns = self.store.store_id();
        let validators = match self.cache {
            Some(session) => {
                let keys: Vec<&str> = requests.iter().map(|&(key, _, _)| key).collect();
                session.validators(self.store, &keys)?
            }
            None => vec![None; requests.len()],
        };
        let mut payloads: Vec<Option<Bytes>> = vec![None; requests.len()];
        // (request index, validator) for pages the cache could not serve.
        let mut misses: Vec<(usize, Option<u64>)> = Vec::new();
        let (mut hits, mut tracked_misses, mut bytes_saved) = (0u64, 0u64, 0u64);
        for (i, (((key, _, _), &(offset, size)), validator)) in
            requests.iter().zip(&locs).zip(validators).enumerate()
        {
            if let Some(v) = validator {
                if let Some(bytes) = PageCache::global().get(ns, key, offset, size, v) {
                    hits += 1;
                    bytes_saved += size;
                    payloads[i] = Some(bytes);
                    continue;
                }
                tracked_misses += 1;
            }
            misses.push((i, validator));
        }

        if !misses.is_empty() {
            let ranges: Vec<RangeRequest> = misses
                .iter()
                .map(|&(i, _)| {
                    let (offset, size) = locs[i];
                    RangeRequest::new(requests[i].0, offset..offset + size)
                })
                .collect();
            // Share the miss batch *partially* when every page is
            // validator-fenced: each page rides the same per-page flight
            // table as `read_page`, so this caller leads the pages nobody
            // is fetching (one parallel round trip over just those) and
            // joins in-flight fetches for the rest — two queries whose
            // page sets merely overlap still share the overlap, and a
            // single-page reader can join a superset batch fetch. Solo,
            // every page is owned and the one `get_ranges` round trip is
            // bit-identical to a build without single-flight.
            let fetched = if ns != 0 && misses.iter().all(|&(_, v)| v.is_some()) {
                let keys: Vec<PageFlightKey> = misses
                    .iter()
                    .map(|&(i, v)| {
                        let (offset, size) = locs[i];
                        (
                            ns,
                            requests[i].0.to_string(),
                            offset,
                            size,
                            v.expect("checked above"),
                        )
                    })
                    .collect();
                let (fetched, joined) = page_flights().run_partial(&keys, |owned| {
                    let subset: Vec<RangeRequest> = owned
                        .iter()
                        .map(|&j| {
                            let (i, _) = misses[j];
                            let (offset, size) = locs[i];
                            RangeRequest::new(requests[i].0, offset..offset + size)
                        })
                        .collect();
                    self.store.get_ranges(&subset)
                });
                if joined > 0 {
                    self.store.record_dedup(joined);
                }
                fetched?
            } else {
                self.store.get_ranges(&ranges)?
            };
            for ((i, validator), bytes) in misses.into_iter().zip(fetched) {
                if let Some(v) = validator {
                    let (offset, size) = locs[i];
                    // Never cache a torn short read.
                    if bytes.len() as u64 == size {
                        PageCache::global().put(ns, requests[i].0, offset, size, v, bytes.clone());
                    }
                }
                payloads[i] = Some(bytes);
            }
        }
        if hits + tracked_misses > 0 {
            self.store
                .record_page_cache(hits, tracked_misses, bytes_saved);
        }

        payloads
            .iter()
            .map(|b| decode_page(b.as_ref().expect("every payload filled"), data_type))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::{RecordBatch, ValueRef};
    use crate::schema::{Field, Schema};
    use crate::writer::{FileWriter, WriterOptions};
    use rottnest_object_store::MemoryStore;

    fn write_file(
        store: &dyn ObjectStore,
        key: &str,
        rows: usize,
        opts: WriterOptions,
    ) -> FileMeta {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("body", DataType::Utf8),
        ]);
        let ids: Vec<i64> = (0..rows as i64).collect();
        let bodies: Vec<String> = (0..rows)
            .map(|i| format!("record {i} body with some text payload"))
            .collect();
        let batch = RecordBatch::new(
            schema.clone(),
            vec![ColumnData::Int64(ids), ColumnData::from_strings(bodies)],
        )
        .unwrap();
        let mut w = FileWriter::with_options(schema, opts);
        w.write_batch(&batch).unwrap();
        w.finish_into(store, key).unwrap()
    }

    #[test]
    fn chunk_reader_reads_whole_column() {
        let store = MemoryStore::unmetered();
        let opts = WriterOptions {
            row_group_rows: 100,
            page_raw_bytes: 512,
            ..Default::default()
        };
        write_file(store.as_ref(), "t/a.lkpq", 250, opts);

        let reader = ChunkReader::open(store.as_ref(), "t/a.lkpq").unwrap();
        assert_eq!(reader.meta().num_rows, 250);
        assert_eq!(reader.meta().row_groups.len(), 3);

        let col = reader.read_column(1).unwrap();
        assert_eq!(col.len(), 250);
        assert_eq!(
            col.get(123),
            Some(ValueRef::Utf8("record 123 body with some text payload"))
        );
    }

    #[test]
    fn chunk_reader_handles_large_footer() {
        let store = MemoryStore::unmetered();
        // Tiny pages => thousands of page entries => footer > 64 KiB.
        let opts = WriterOptions {
            row_group_rows: 50,
            page_raw_bytes: 64,
            ..Default::default()
        };
        write_file(store.as_ref(), "t/big-footer.lkpq", 5000, opts);
        let reader = ChunkReader::open(store.as_ref(), "t/big-footer.lkpq").unwrap();
        assert_eq!(reader.meta().num_rows, 5000);
        let col = reader.read_chunk(0, 0).unwrap();
        assert_eq!(col.len(), 50);
    }

    #[test]
    fn page_reader_fetches_single_pages_without_footer() {
        let store = MemoryStore::unmetered();
        let opts = WriterOptions {
            row_group_rows: 1000,
            page_raw_bytes: 512,
            ..Default::default()
        };
        let meta = write_file(store.as_ref(), "t/b.lkpq", 300, opts);
        let table = PageTable::from_meta(&meta, 1).unwrap();
        assert!(table.len() > 5);

        let reader = PageReader::new(store.as_ref());
        let before = store.stats();
        let page_id = table.page_of_row(200).unwrap();
        let col = reader
            .read_page("t/b.lkpq", &table, page_id, DataType::Utf8)
            .unwrap();
        let after = store.stats().since(&before);
        assert_eq!(after.gets, 1, "exactly one GET, no footer read");
        assert_eq!(after.heads, 0);

        let first = table.page(page_id).unwrap().first_row;
        let within = (200 - first) as usize;
        assert_eq!(
            col.get(within),
            Some(ValueRef::Utf8("record 200 body with some text payload"))
        );
    }

    #[test]
    fn page_reader_batches_many_pages_into_one_round_trip() {
        let store = MemoryStore::new(); // metered
        let opts = WriterOptions {
            row_group_rows: 1000,
            page_raw_bytes: 512,
            ..Default::default()
        };
        let meta = write_file(store.as_ref(), "t/c.lkpq", 400, opts);
        let table = PageTable::from_meta(&meta, 1).unwrap();
        let reader = PageReader::new(store.as_ref());

        let requests: Vec<(&str, &PageTable, usize)> =
            (0..table.len()).map(|i| ("t/c.lkpq", &table, i)).collect();
        let clock = store.clock().unwrap();
        let (cols, elapsed) = clock.time(|| reader.read_pages(&requests, DataType::Utf8).unwrap());
        let total: usize = cols.iter().map(|c| c.len()).sum();
        assert_eq!(total, 400);
        // One parallel round trip: modeled latency ~ a single small GET.
        let single = store.latency_model().get_us(1024);
        assert!(
            elapsed < single * 3,
            "batch cost {elapsed}us vs single {single}us"
        );
    }

    #[test]
    fn page_reader_reads_much_less_than_chunk_reader() {
        let store = MemoryStore::unmetered();
        let opts = WriterOptions {
            row_group_rows: 100_000,
            page_raw_bytes: 4096,
            ..Default::default()
        };
        let meta = write_file(store.as_ref(), "t/d.lkpq", 20_000, opts);
        let table = PageTable::from_meta(&meta, 1).unwrap();

        let before = store.stats();
        let reader = ChunkReader::open(store.as_ref(), "t/d.lkpq").unwrap();
        reader.read_column(1).unwrap();
        let chunk_bytes = store.stats().since(&before).bytes_read;

        let before = store.stats();
        PageReader::new(store.as_ref())
            .read_page("t/d.lkpq", &table, table.len() / 2, DataType::Utf8)
            .unwrap();
        let page_bytes = store.stats().since(&before).bytes_read;

        assert!(
            chunk_bytes > page_bytes * 50,
            "chunk path read {chunk_bytes}B, page path {page_bytes}B"
        );
    }

    #[test]
    fn cached_reader_serves_warm_pages_without_gets() {
        let store = MemoryStore::unmetered();
        let opts = WriterOptions {
            row_group_rows: 1000,
            page_raw_bytes: 512,
            ..Default::default()
        };
        let meta = write_file(store.as_ref(), "t/w.lkpq", 300, opts);
        let table = PageTable::from_meta(&meta, 1).unwrap();
        let page_id = table.page_of_row(200).unwrap();

        let session = PageCacheSession::new();
        let reader = PageReader::cached(store.as_ref(), &session);
        let before = store.stats();
        let cold = reader
            .read_page("t/w.lkpq", &table, page_id, DataType::Utf8)
            .unwrap();
        let after = store.stats().since(&before);
        assert_eq!(after.gets, 1);
        assert_eq!(after.heads, 1, "one revalidation HEAD for the file");
        assert_eq!(after.page_cache_misses, 1);

        let before = store.stats();
        let warm = reader
            .read_page("t/w.lkpq", &table, page_id, DataType::Utf8)
            .unwrap();
        let after = store.stats().since(&before);
        assert_eq!(after.gets, 0, "warm page served from cache");
        assert_eq!(after.heads, 0, "validator memoized for the session");
        assert_eq!(after.page_cache_hits, 1);
        assert!(after.page_cache_bytes_saved > 0);
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
    }

    #[test]
    fn cached_batch_reader_fetches_only_misses() {
        let store = MemoryStore::new(); // metered
        let opts = WriterOptions {
            row_group_rows: 1000,
            page_raw_bytes: 512,
            ..Default::default()
        };
        let meta = write_file(store.as_ref(), "t/x.lkpq", 400, opts);
        let table = PageTable::from_meta(&meta, 1).unwrap();
        let all: Vec<(&str, &PageTable, usize)> =
            (0..table.len()).map(|i| ("t/x.lkpq", &table, i)).collect();

        let session = PageCacheSession::new();
        let reader = PageReader::cached(store.as_ref(), &session);
        // Warm half the pages.
        let half: Vec<_> = all.iter().step_by(2).cloned().collect();
        reader.read_pages(&half, DataType::Utf8).unwrap();

        let before = store.stats();
        let cols = reader.read_pages(&all, DataType::Utf8).unwrap();
        let delta = store.stats().since(&before);
        let uncached = PageReader::new(store.as_ref())
            .read_pages(&all, DataType::Utf8)
            .unwrap();
        assert_eq!(delta.page_cache_hits as usize, half.len(), "warm pages hit");
        assert_eq!(delta.page_cache_misses as usize, all.len() - half.len());
        assert_eq!(
            (delta.gets + delta.coalesced_gets) as usize,
            all.len() - half.len(),
            "only misses reach get_ranges"
        );
        assert_eq!(format!("{cols:?}"), format!("{uncached:?}"));
    }

    #[test]
    fn cached_reader_refuses_stale_pages_after_overwrite() {
        let store = MemoryStore::unmetered();
        let opts = WriterOptions {
            row_group_rows: 1000,
            page_raw_bytes: 512,
            ..Default::default()
        };
        let meta = write_file(store.as_ref(), "t/y.lkpq", 100, opts.clone());
        let table = PageTable::from_meta(&meta, 0).unwrap();
        let session = PageCacheSession::new();
        PageReader::cached(store.as_ref(), &session)
            .read_page("t/y.lkpq", &table, 0, DataType::Int64)
            .unwrap();
        assert!(PageCache::global().entries_for_file(store.store_id(), "t/y.lkpq") > 0);

        // Overwrite the file at a later store timestamp: the validator must
        // change, so a fresh session re-reads instead of serving old bytes.
        store.clock().unwrap().advance_ms(10_000);
        let meta2 = write_file(store.as_ref(), "t/y.lkpq", 100, opts);
        let table2 = PageTable::from_meta(&meta2, 0).unwrap();
        let fresh = PageCacheSession::new();
        let before = store.stats();
        PageReader::cached(store.as_ref(), &fresh)
            .read_page("t/y.lkpq", &table2, 0, DataType::Int64)
            .unwrap();
        let delta = store.stats().since(&before);
        assert_eq!(delta.gets, 1, "stale generation is not served");
        assert_eq!(delta.page_cache_hits, 0);
    }

    #[test]
    fn missing_page_id_is_an_error() {
        let store = MemoryStore::unmetered();
        let meta = write_file(store.as_ref(), "t/e.lkpq", 10, WriterOptions::default());
        let table = PageTable::from_meta(&meta, 0).unwrap();
        let reader = PageReader::new(store.as_ref());
        assert!(reader
            .read_page("t/e.lkpq", &table, 999, DataType::Int64)
            .is_err());
    }
}
