//! Request-depth ledger: which round trips a search pays one after the
//! other, per query kind, cold and warm.
//!
//! On object storage latency is request *depth* times first-byte latency
//! (§V-B, §VII-D3), so the depth of every search shape is pinned here: a
//! later change that re-serialises an independent chain — one HEAD per file
//! after the other, one LF walk at a time, a second LIST of the same prefix
//! — moves an exact simulated time or count below and fails.
//!
//! The metered `MemoryStore` charges the paper's latency model (LIST 80 ms,
//! GET 30 ms first byte, HEAD 15 ms) on a virtual clock, so every number is
//! a deterministic function of the requests issued.

use std::ops::Range;
use std::sync::{Arc, Mutex};

use bytes::Bytes;
use rottnest::{IndexKind, Query, Rottnest, RottnestConfig, SearchOutcome, SearchStats};
use rottnest_component::ComponentCache;
use rottnest_fm::FmIndex;
use rottnest_format::{DataType, PageCache, PageCacheSession, PageReader, PageTable};
use rottnest_integration::*;
use rottnest_lake::{Snapshot, Table};
use rottnest_object_store::{
    MemoryStore, ObjectMeta, ObjectStore, RangeRequest, SimClock, StatsSnapshot, StoreError,
};

/// One request as the store saw it.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    List(String),
    Head(String),
    /// One `get` / `get_range` call.
    Get(String, Range<u64>),
    /// One `get_ranges` call: a single batched round trip.
    Batch(Vec<(String, Range<u64>)>),
}

/// A metered `MemoryStore` that also records every read request, in order.
struct Ledger {
    inner: Arc<MemoryStore>,
    events: Mutex<Vec<Event>>,
    /// HEADs of keys containing this fail with a transient error.
    failing_heads: Mutex<Option<&'static str>>,
}

impl Ledger {
    fn new() -> Self {
        Self {
            inner: MemoryStore::new(),
            events: Mutex::default(),
            failing_heads: Mutex::default(),
        }
    }
    fn log(&self, e: Event) {
        self.events.lock().unwrap().push(e);
    }
    fn take(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.lock().unwrap())
    }
}

impl ObjectStore for Ledger {
    fn put(&self, key: &str, data: Bytes) -> rottnest_object_store::Result<()> {
        self.inner.put(key, data)
    }
    fn put_if_absent(&self, key: &str, data: Bytes) -> rottnest_object_store::Result<()> {
        self.inner.put_if_absent(key, data)
    }
    fn get(&self, key: &str) -> rottnest_object_store::Result<Bytes> {
        self.log(Event::Get(key.to_string(), 0..u64::MAX));
        self.inner.get(key)
    }
    fn get_range(&self, key: &str, range: Range<u64>) -> rottnest_object_store::Result<Bytes> {
        self.log(Event::Get(key.to_string(), range.clone()));
        self.inner.get_range(key, range)
    }
    fn get_ranges(&self, requests: &[RangeRequest]) -> rottnest_object_store::Result<Vec<Bytes>> {
        self.log(Event::Batch(
            requests
                .iter()
                .map(|r| (r.key.clone(), r.range.clone()))
                .collect(),
        ));
        self.inner.get_ranges(requests)
    }
    fn head(&self, key: &str) -> rottnest_object_store::Result<ObjectMeta> {
        self.log(Event::Head(key.to_string()));
        if (self.failing_heads.lock().unwrap()).is_some_and(|part| key.contains(part)) {
            return Err(StoreError::Transient("ledger: head failed"));
        }
        self.inner.head(key)
    }
    fn list(&self, prefix: &str) -> rottnest_object_store::Result<Vec<ObjectMeta>> {
        self.log(Event::List(prefix.to_string()));
        self.inner.list(prefix)
    }
    fn delete(&self, key: &str) -> rottnest_object_store::Result<()> {
        self.inner.delete(key)
    }
    fn now_ms(&self) -> u64 {
        self.inner.now_ms()
    }
    fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }
    fn clock(&self) -> Option<&SimClock> {
        self.inner.clock()
    }
    fn record_retry(&self, retries: u64, backoff_ms: u64) {
        self.inner.record_retry(retries, backoff_ms)
    }
    fn coalesce_gap(&self) -> Option<u64> {
        self.inner.coalesce_gap()
    }
    fn store_id(&self) -> u64 {
        self.inner.store_id()
    }
    fn record_cache(&self, hits: u64, misses: u64, bytes_saved: u64) {
        self.inner.record_cache(hits, misses, bytes_saved)
    }
    fn record_coalesced(&self, n: u64) {
        self.inner.record_coalesced(n)
    }
    fn record_page_cache(&self, hits: u64, misses: u64, bytes_saved: u64) {
        self.inner.record_page_cache(hits, misses, bytes_saved)
    }
    fn record_page_cache_bypass(&self, n: u64) {
        self.inner.record_page_cache_bypass(n)
    }
    fn record_dedup(&self, n: u64) {
        self.inner.record_dedup(n)
    }
    fn record_health(&self, breaker_rejections: u64, retry_tokens_denied: u64) {
        self.inner
            .record_health(breaker_rejections, retry_tokens_denied)
    }
}

const FILES: usize = 12;
const DATA_PREFIX: &str = "tbl/data/";
const META_LOG: &str = "idx/meta/_log/";
const PATTERN: &[u8] = b"status S001";

/// Small FM blocks, so the index outgrows the speculative head GET and a
/// cold locate really fetches blocks.
fn config(lanes: usize) -> RottnestConfig {
    let mut cfg = rot_config();
    cfg.search.parallelism = lanes;
    cfg.fm.block_size = 4096;
    cfg
}

/// Key of commit `version` in the metadata table's log.
fn log_key(version: u64) -> String {
    format!("{META_LOG}{version:020}.log")
}

/// Keys under `prefix` that were HEADed, in request order.
fn heads_under<'e>(events: &'e [Event], prefix: &str) -> Vec<&'e str> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Head(key) if key.starts_with(prefix) => Some(key.as_str()),
            _ => None,
        })
        .collect()
}

/// Keys of the data files HEADed, in request order.
fn data_heads(events: &[Event]) -> Vec<&str> {
    heads_under(events, DATA_PREFIX)
}

fn distinct<T: Ord + Clone>(items: &[T]) -> usize {
    let mut v = items.to_vec();
    v.sort();
    v.dedup();
    v.len()
}

/// Every byte range GET of `key`, batched or not.
fn ranges_of<'e>(events: &'e [Event], key: &str) -> Vec<&'e Range<u64>> {
    events
        .iter()
        .flat_map(|e| match e {
            Event::Get(k, r) => vec![(k, r)],
            Event::Batch(rs) => rs.iter().map(|(k, r)| (k, r)).collect(),
            _ => Vec::new(),
        })
        .filter(|(k, _)| k.as_str() == key)
        .map(|(_, r)| r)
        .collect()
}

fn count(events: &[Event], pred: impl Fn(&Event) -> bool) -> usize {
    events.iter().filter(|e| pred(e)).count()
}

fn list_count(events: &[Event]) -> usize {
    count(events, |e| matches!(e, Event::List(_)))
}

fn head_count(events: &[Event]) -> usize {
    count(events, |e| matches!(e, Event::Head(_)))
}

/// GET round trips: a `get`/`get_range` call or one whole `get_ranges`.
fn get_rounds(events: &[Event]) -> usize {
    count(events, |e| matches!(e, Event::Get(..) | Event::Batch(_)))
}

/// What the recorded requests cost when every dependent step is one round
/// trip: LISTs and GET rounds one after the other, the index file's HEAD,
/// and the data-file HEADs overlapped `lanes` at a time. All objects here
/// are far below the latency model's 1 MiB knee, so a round costs its flat
/// first-byte latency.
fn depth_us(store: &Ledger, events: &[Event], lanes: usize) -> u64 {
    let model = store.inner.latency_model();
    let data = data_heads(events).len();
    list_count(events) as u64 * model.list_us(0)
        + get_rounds(events) as u64 * model.get_us(1)
        + ((head_count(events) - data) + data.div_ceil(lanes)) as u64 * model.small_op_us
}

#[test]
fn request_depth_by_query_kind() {
    for lanes in [8, 1] {
        let store = Ledger::new();
        let table = make_table(&store, 12_000, FILES as u64);
        let builder = Rottnest::new(&store, "idx", config(lanes));
        let kinds = [
            (IndexKind::Uuid { key_len: 16 }, "trace_id"),
            (IndexKind::Substring, "body"),
            (IndexKind::Vector { dim: DIM as u32 }, "embedding"),
        ];
        for (kind, column) in kinds {
            builder.index(&table, kind, column).unwrap().unwrap();
        }
        let snap = table.snapshot().unwrap();

        // A metadata scan is one LIST plus the replay, not two LISTs.
        store.take();
        let entries = builder.meta().scan().unwrap();
        let events = store.take();
        assert_eq!(entries.len(), 3);
        assert_eq!(list_count(&events), 1, "one LIST per scan: {events:?}");
        let fm_key = entries
            .iter()
            .find(|e| e.kind == IndexKind::Substring)
            .unwrap()
            .path
            .clone();

        let key = trace_id(777);
        let qvec = embedding(5);
        let queries: [(&str, Query<'_>); 3] = [
            ("trace_id", Query::UuidEq { key: &key, k: 1 }),
            (
                "body",
                Query::Substring {
                    pattern: PATTERN,
                    k: 10,
                },
            ),
            (
                "embedding",
                Query::VectorNn {
                    query: &qvec,
                    params: rottnest_ivfpq::SearchParams {
                        k: 10,
                        nprobe: 8,
                        refine: 64,
                    },
                },
            ),
        ];
        let clock = store.clock().unwrap();
        for (column, query) in &queries {
            let ctx = format!("{column}, {lanes} lanes");
            // Cold: no cached component or page, and a fresh client, so the
            // plan cache misses too.
            ComponentCache::global().clear();
            PageCache::global().clear();
            let rot = Rottnest::new(&store, "idx", config(lanes));
            let search = || {
                store.take();
                let (out, elapsed) =
                    clock.time(|| rot.search(&table, &snap, column, query).unwrap());
                (out, elapsed, store.take())
            };
            let (cold_out, cold_us, cold) = search();
            let (warm_out, warm_us, warm) = search();
            assert_eq!(cold_out.matches, warm_out.matches, "{ctx}");
            assert!(!cold_out.matches.is_empty(), "{ctx}");

            // Cold: LIST → log replay → index open → index-internal rounds
            // → one HEAD wave → one page batch; nothing else, and elapsed
            // time is exactly that chain.
            assert_eq!(cold[0], Event::List(META_LOG.into()), "{ctx}");
            assert!(
                matches!(&cold[1], Event::Batch(logs) if logs.len() == 3),
                "{ctx}: the log replays in one batch: {:?}",
                cold[1]
            );
            assert!(
                matches!(&cold[2], Event::Get(k, r) if k.starts_with("idx/files/") && r.start == 0),
                "{ctx}: one speculative open: {:?}",
                cold[2]
            );
            assert_eq!(list_count(&cold), 1, "{ctx}: a plan miss is one LIST");
            let Some(Event::Batch(pages)) = cold.last() else {
                panic!("{ctx}: the page fetch is the last round: {:?}", cold.last());
            };
            let page_files: Vec<&str> = pages.iter().map(|(k, _)| k.as_str()).collect();
            assert!(
                page_files.iter().all(|k| k.starts_with(DATA_PREFIX)),
                "{ctx}"
            );
            let heads = data_heads(&cold);
            assert_eq!(heads.len(), distinct(&heads), "{ctx}: one HEAD per file");
            assert_eq!(
                heads.len(),
                distinct(&page_files),
                "{ctx}: HEADs == files touched"
            );
            assert_eq!(head_count(&cold), heads.len(), "{ctx}: no other HEAD");
            assert_eq!(cold_us, depth_us(&store, &cold, lanes), "{ctx}: cold depth");

            // Warm: the freshness HEAD (three index commits: is there a
            // version 3?) beside the index HEAD, then the HEAD wave — no
            // LIST and not a single GET.
            assert_eq!(warm[0], Event::Head(log_key(3)), "{ctx}");
            assert!(
                matches!(&warm[1], Event::Head(k) if k.starts_with("idx/files/")),
                "{ctx}: {:?}",
                warm[1]
            );
            assert_eq!(list_count(&warm), 0, "{ctx}: warm LISTs");
            assert_eq!(get_rounds(&warm), 0, "{ctx}: warm GETs");
            // (Pool workers log a wave's HEADs in any order.)
            let sorted = |mut keys: Vec<&str>| {
                keys.sort_unstable();
                keys.join(" ")
            };
            assert_eq!(
                sorted(data_heads(&warm)),
                sorted(heads.clone()),
                "{ctx}: same wave"
            );
            assert_eq!(warm.len(), 2 + heads.len(), "{ctx}: {warm:?}");
            // The freshness HEAD overlaps the index HEAD whenever there is a
            // second lane to put it on.
            let rounds = if lanes == 1 {
                2 + heads.len()
            } else {
                1 + heads.len().div_ceil(lanes)
            };
            assert_eq!(
                warm_us,
                rounds as u64 * store.inner.latency_model().small_op_us,
                "{ctx}: warm = (freshness ‖ index) HEAD + ceil(files / lanes) HEAD rounds"
            );

            match query {
                // One key lives in one page of one file.
                Query::UuidEq { .. } => assert_eq!(heads.len(), 1, "{ctx}"),
                // The pattern occurs in every file: the 12 HEADs are 2
                // rounds at 8 lanes, not 12.
                Query::Substring { .. } => assert_eq!(heads.len(), FILES, "{ctx}"),
                // The refine candidates are spread over more files than
                // there are lanes (which ones depends on the trained
                // quantizer), so the wave is more than one round.
                Query::VectorNn { .. } => assert!(heads.len() > 8, "{ctx}"),
            }
            if let Query::Substring { .. } = query {
                // Two staged locates (the first hits its limit) over an
                // 11-symbol pattern: backward search is one round per
                // symbol at most, each lockstep walk at most `sample_rate`
                // rounds, and no block is fetched twice.
                let sample_rate = config(lanes).fm.sample_rate as usize;
                let fm_rounds = get_rounds(&cold) - 3;
                assert!(
                    fm_rounds <= PATTERN.len() + 2 * sample_rate,
                    "{ctx}: {fm_rounds} FM rounds"
                );
                let blocks = ranges_of(&cold, &fm_key);
                assert_eq!(
                    blocks.len(),
                    distinct(&blocks.iter().map(|r| r.start).collect::<Vec<_>>())
                );
            }
        }

        // The locate alone, on a cold handle: every occurrence (324 of
        // them) resolves in at most `sample_rate` batched rounds, fetching
        // no block the backward search already fetched.
        ComponentCache::global().clear();
        let idx = FmIndex::open(&store, &fm_key).unwrap();
        store.take();
        let (l, r) = idx.interval(PATTERN).unwrap();
        let search_rounds = store.take();
        let offsets = idx.locate_offsets(PATTERN, usize::MAX).unwrap();
        let walk_rounds = store.take();
        assert_eq!(offsets.len(), r - l);
        assert!(offsets.len() > 300, "{} occurrences", offsets.len());
        assert!(search_rounds.len() <= PATTERN.len());
        assert!(
            (2..=idx.sample_rate() as usize).contains(&walk_rounds.len()),
            "{} walk rounds for {} occurrences",
            walk_rounds.len(),
            offsets.len()
        );
        assert!(walk_rounds.iter().all(|e| matches!(e, Event::Batch(_))));
        let all: Vec<Event> = search_rounds.into_iter().chain(walk_rounds).collect();
        let blocks: Vec<u64> = ranges_of(&all, &fm_key).iter().map(|r| r.start).collect();
        assert_eq!(blocks.len(), distinct(&blocks), "a block fetched twice");
    }
}

/// Two threads share one session over overlapping file sets: still one
/// HEAD per distinct file, whichever thread asks first.
#[test]
fn shared_session_heads_each_file_once_across_threads() {
    let store = Ledger::new();
    let table = make_table(&store, 1_200, FILES as u64);
    let snap = table.snapshot().unwrap();
    let files: Vec<(String, PageTable)> = snap
        .files()
        .map(|f| {
            let meta = table.file_meta(&f.path).unwrap();
            (f.path.clone(), PageTable::from_meta(&meta, 1).unwrap())
        })
        .collect();
    let session = PageCacheSession::with_parallelism(8);
    let barrier = std::sync::Barrier::new(2);
    store.take();
    std::thread::scope(|scope| {
        for range in [0..8, 4..FILES] {
            let (store, session, barrier, files) = (&store, &session, &barrier, &files);
            scope.spawn(move || {
                let requests: Vec<(&str, &PageTable, usize)> = files[range]
                    .iter()
                    .map(|(path, pt)| (path.as_str(), pt, 0))
                    .collect();
                barrier.wait();
                PageReader::cached(store, session)
                    .read_pages(&requests, DataType::Utf8)
                    .unwrap();
            });
        }
    });
    let events = store.take();
    let heads = data_heads(&events);
    assert_eq!(heads.len(), FILES, "{heads:?}");
    assert_eq!(distinct(&heads), FILES);
}

const UUID: IndexKind = IndexKind::Uuid { key_len: 16 };

fn uuid_search(rot: &Rottnest<'_>, table: &Table<'_>, snap: &Snapshot, row: u64) -> SearchOutcome {
    let key = trace_id(row);
    rot.search(table, snap, "trace_id", &Query::UuidEq { key: &key, k: 1 })
        .unwrap()
}

/// What the protocol decided, without the counters that depend on what
/// earlier queries left in the process-wide caches.
fn protocol_stats(stats: SearchStats) -> SearchStats {
    SearchStats {
        cache_hits: 0,
        cache_misses: 0,
        cache_bytes_saved: 0,
        page_cache_hits: 0,
        page_cache_misses: 0,
        page_cache_bytes_saved: 0,
        dedup_hits: 0,
        ..stats
    }
}

fn meta_lists(events: &[Event]) -> usize {
    count(events, |e| *e == Event::List(META_LOG.into()))
}

fn meta_heads(events: &[Event]) -> Vec<&str> {
    heads_under(events, META_LOG)
}

/// `reader` holds a warm plan and another client has just committed: the
/// search's freshness probe finds `moved_to`, so it re-plans from exactly
/// one LIST and one replay batch, and answers what a fresh client answers.
fn assert_read_after_write(
    store: &Ledger,
    reader: &Rottnest<'_>,
    table: &Table<'_>,
    snap: &Snapshot,
    row: u64,
    moved_to: u64,
) {
    store.take();
    let seen = uuid_search(reader, table, snap, row);
    let events = store.take();
    assert_eq!(meta_heads(&events), [log_key(moved_to)], "{events:?}");
    assert_eq!(list_count(&events), 1, "{events:?}");
    let replays = count(
        &events,
        |e| matches!(e, Event::Batch(gets) if gets.iter().all(|(k, _)| k.starts_with(META_LOG))),
    );
    assert_eq!(replays, 1, "{events:?}");
    assert_eq!(seen.matches.len(), 1);

    let fresh = uuid_search(&Rottnest::new(store, "idx", config(8)), table, snap, row);
    assert_eq!(seen.matches, fresh.matches);
    assert_eq!(protocol_stats(seen.stats), protocol_stats(fresh.stats));

    // And the re-cached plan is current again: no LIST.
    store.take();
    assert_eq!(uuid_search(reader, table, snap, row).matches, fresh.matches);
    assert_eq!(list_count(&store.take()), 0);
}

/// Read-after-write across clients: whatever another client commits between
/// two warm searches — index, compact, vacuum — the second search sees.
#[test]
fn warm_search_sees_another_clients_commit() {
    let store = Ledger::new();
    let table = make_table(&store, 4_000, 4);
    let reader = Rottnest::new(&store, "idx", config(8));
    let writer = Rottnest::new(&store, "idx", config(8));
    writer.index(&table, UUID, "trace_id").unwrap().unwrap();
    table.append(&batch(4_000..5_000)).unwrap();
    writer.index(&table, UUID, "trace_id").unwrap().unwrap();
    let snap = table.snapshot().unwrap();
    let cold = uuid_search(&reader, &table, &snap, 777);
    assert_eq!(cold.stats.index_files_queried, 2);

    // index: row 5 500 lives in a file only the new index covers, so the
    // stale plan would have brute-scanned for it.
    table.append(&batch(5_000..6_000)).unwrap();
    let snap = table.snapshot().unwrap();
    writer.index(&table, UUID, "trace_id").unwrap().unwrap();
    assert_read_after_write(&store, &reader, &table, &snap, 5_500, 2);
    let seen = uuid_search(&reader, &table, &snap, 5_500);
    assert_eq!(seen.stats.index_files_queried, 3);
    assert_eq!(seen.stats.files_brute_scanned, 0);

    // compact: three index files become one.
    assert_eq!(writer.compact(UUID, "trace_id").unwrap().len(), 1);
    assert_read_after_write(&store, &reader, &table, &snap, 777, 3);
    assert_eq!(
        uuid_search(&reader, &table, &snap, 777)
            .stats
            .index_files_queried,
        1
    );

    // vacuum: the lake rewrites every data file into one, so the merged
    // index covers nothing live and vacuum commits its removal.
    table.compact(u64::MAX).unwrap().unwrap();
    let snap = table.snapshot().unwrap();
    let report = writer.vacuum(&table).unwrap();
    assert_eq!(report.records_removed, 1);
    assert_read_after_write(&store, &reader, &table, &snap, 777, 4);
    let seen = uuid_search(&reader, &table, &snap, 777);
    assert_eq!(seen.stats.index_files_queried, 0);
    assert_eq!(seen.stats.files_brute_scanned, 1);
}

/// The stale plan names index files another client's vacuum has already
/// deleted: the wave that met them is thrown away, not surfaced.
#[test]
fn stale_plan_over_vacuumed_index_files_still_answers() {
    let store = Ledger::new();
    let table = make_table(&store, 2_000, 2);
    let reader = Rottnest::new(&store, "idx", config(8));
    let writer = Rottnest::new(&store, "idx", config(8));
    let first = writer.index(&table, UUID, "trace_id").unwrap().unwrap();
    table.append(&batch(2_000..3_000)).unwrap();
    let second = writer.index(&table, UUID, "trace_id").unwrap().unwrap();
    let snap = table.snapshot().unwrap();
    let before = uuid_search(&reader, &table, &snap, 2_500);
    assert_eq!(before.stats.index_files_queried, 2);

    writer.compact(UUID, "trace_id").unwrap();
    // A vacuum entitled to delete at once (anything a millisecond old).
    let mut eager = config(8);
    eager.index_timeout_ms = 1;
    let report = Rottnest::new(&store, "idx", eager).vacuum(&table).unwrap();
    assert_eq!(report.objects_deleted, 2);

    store.take();
    let after = uuid_search(&reader, &table, &snap, 2_500);
    let events = store.take();
    let gone = |key: &str| key == first.path || key == second.path;
    assert!(
        events.iter().any(|e| match e {
            Event::Head(k) | Event::Get(k, _) => gone(k),
            _ => false,
        }),
        "the stale wave met a deleted index file: {events:?}"
    );
    assert_eq!(list_count(&events), 1, "{events:?}");
    assert_eq!(after.matches, before.matches);
    assert_eq!(after.stats.index_files_queried, 1);
    assert_eq!(after.stats.index_files_failed, 0);
}

/// A freshness HEAD that still fails after the retry budget says nothing
/// about the log: the query degrades to the brute path, as a failed LIST
/// makes it, and is never answered off the unconfirmed plan.
#[test]
fn failed_freshness_probe_degrades_to_the_brute_path() {
    let store = Ledger::new();
    let table = make_table(&store, 2_000, 2);
    let rot = Rottnest::new(&store, "idx", config(8));
    rot.index(&table, UUID, "trace_id").unwrap().unwrap();
    let snap = table.snapshot().unwrap();
    uuid_search(&rot, &table, &snap, 1_500);
    let warm = uuid_search(&rot, &table, &snap, 1_500);
    assert_eq!(warm.stats.index_files_queried, 1);
    assert_eq!(warm.stats.brownout_queries, 0);

    *store.failing_heads.lock().unwrap() = Some("idx/meta/_log/");
    store.take();
    let degraded = uuid_search(&rot, &table, &snap, 1_500);
    let events = store.take();
    assert!(meta_heads(&events).len() > 1, "retried: {events:?}");
    assert_eq!(degraded.matches, warm.matches);
    assert_eq!(degraded.stats.brownout_queries, 1);
    assert_eq!(degraded.stats.index_files_queried, 0);
    assert_eq!(degraded.stats.postings_returned, 0);
    assert_eq!(degraded.stats.files_brute_scanned, 2);

    // The fault lifted, the same cached plan is confirmed and used again.
    *store.failing_heads.lock().unwrap() = None;
    let healed = uuid_search(&rot, &table, &snap, 1_500);
    assert_eq!(healed.stats, warm.stats);
}

/// A client that commits knows it moved the log: its next search goes
/// straight to the LIST instead of HEAD-then-LIST.
#[test]
fn own_commit_skips_the_freshness_probe() {
    let store = Ledger::new();
    let table = make_table(&store, 2_000, 2);
    let rot = Rottnest::new(&store, "idx", config(8));
    rot.index(&table, UUID, "trace_id").unwrap().unwrap();
    let snap = table.snapshot().unwrap();
    uuid_search(&rot, &table, &snap, 1_500);
    store.take();
    uuid_search(&rot, &table, &snap, 1_500);
    assert_eq!(meta_heads(&store.take()), [log_key(1)], "a plan is cached");

    table.append(&batch(2_000..3_000)).unwrap();
    let snap = table.snapshot().unwrap();
    rot.index(&table, UUID, "trace_id").unwrap().unwrap();
    store.take();
    let out = uuid_search(&rot, &table, &snap, 2_500);
    let events = store.take();
    assert_eq!(out.stats.index_files_queried, 2);
    assert_eq!(list_count(&events), 1, "{events:?}");
    assert_eq!(meta_lists(&events), 1, "{events:?}");
    assert!(meta_heads(&events).is_empty(), "{events:?}");
}

/// A maintenance operation LISTs the metadata log once — for its scan — and
/// commits where that scan (or its own previous commit) left the log.
#[test]
fn maintenance_commits_without_a_second_list() {
    let store = Ledger::new();
    let table = make_table(&store, 1_000, 1);
    let mut cfg = config(8);
    cfg.compact_fanin = 2;
    let rot = Rottnest::new(&store, "idx", cfg);
    for i in 0..4 {
        if i > 0 {
            table.append(&batch(i * 1_000..(i + 1) * 1_000)).unwrap();
        }
        store.take();
        let entry = rot.index(&table, UUID, "trace_id").unwrap().unwrap();
        assert_eq!(meta_lists(&store.take()), 1, "index() #{i}");
        // An empty log commits at version 0, then one version per commit.
        assert_eq!(entry.id, rottnest::MetaTable::id_for(i, 0));
        assert_eq!(rot.meta().latest_version().unwrap(), Some(i));
    }

    // Four entries, fan-in two: two bins, two commits, still one LIST.
    store.take();
    let merged = rot.compact(UUID, "trace_id").unwrap();
    assert_eq!(meta_lists(&store.take()), 1, "compact()");
    let ids: Vec<u64> = merged.iter().map(|e| e.id).collect();
    let id_for = rottnest::MetaTable::id_for;
    assert_eq!(ids, [id_for(4, 0), id_for(5, 0)]);
    assert_eq!(rot.meta().latest_version().unwrap(), Some(5));

    // Vacuum's removal commit rides its scan's LIST too; its second LIST is
    // the re-scan that decides what is still referenced.
    table.compact(u64::MAX).unwrap().unwrap();
    store.take();
    assert_eq!(rot.vacuum(&table).unwrap().records_removed, 2);
    assert_eq!(meta_lists(&store.take()), 2, "vacuum()");
    assert_eq!(rot.meta().latest_version().unwrap(), Some(6));
}
