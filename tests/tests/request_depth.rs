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
use rottnest::{IndexKind, Query, Rottnest, RottnestConfig};
use rottnest_component::ComponentCache;
use rottnest_fm::FmIndex;
use rottnest_format::{DataType, PageCache, PageCacheSession, PageReader, PageTable};
use rottnest_integration::*;
use rottnest_object_store::{
    MemoryStore, ObjectMeta, ObjectStore, RangeRequest, SimClock, StatsSnapshot,
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
}

impl Ledger {
    fn new() -> Self {
        Self {
            inner: MemoryStore::new(),
            events: Mutex::default(),
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
const PATTERN: &[u8] = b"status S001";

/// Small FM blocks, so the index outgrows the speculative head GET and a
/// cold locate really fetches blocks.
fn config(lanes: usize) -> RottnestConfig {
    let mut cfg = rot_config();
    cfg.search.parallelism = lanes;
    cfg.fm.block_size = 4096;
    cfg
}

/// Keys of the data files HEADed, in request order.
fn data_heads(events: &[Event]) -> Vec<&str> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Head(key) if key.starts_with(DATA_PREFIX) => Some(key.as_str()),
            _ => None,
        })
        .collect()
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
            assert_eq!(cold[0], Event::List("idx/meta/_log/".into()), "{ctx}");
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

            // Warm: LIST (plan revalidation) + index HEAD + the HEAD wave,
            // and not a single GET.
            assert_eq!(warm[0], Event::List("idx/meta/_log/".into()), "{ctx}");
            assert!(
                matches!(&warm[1], Event::Head(k) if k.starts_with("idx/files/")),
                "{ctx}: {:?}",
                warm[1]
            );
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
            let model = store.inner.latency_model();
            assert_eq!(
                warm_us,
                model.list_us(0) + (1 + heads.len().div_ceil(lanes)) as u64 * model.small_op_us,
                "{ctx}: warm = LIST + index HEAD + ceil(files / lanes) HEAD rounds"
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
