//! Spans recorded from outside the program: one around each call the
//! benchmark makes into a layer, and one per store call through the
//! [`TracingStore`] decorator. Kept in memory, written out at the end.

use std::cell::Cell;
use std::io::Write;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use rottnest_object_store::{
    MemoryStore, ObjectMeta, ObjectStore, RangeRequest, SimClock, StatsSnapshot,
};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// Enclosing span, 0 for a root.
    pub parent: u32,
    /// Query the span belongs to, 0 when it could not be attributed.
    pub query: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Store-clock time that passed during the span.
    pub sim_us: u64,
    pub bytes: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

thread_local! {
    /// (query, span) enclosing whatever this thread does next.
    static CURRENT: Cell<(u32, u32)> = const { Cell::new((0, 0)) };
}

pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
    /// With one client, store calls made on the program's worker threads
    /// (which carry no thread-local) belong to the one query in flight:
    /// its (query, span) is published here. 0 with several clients.
    shared: AtomicU64,
    single_client: bool,
}

impl Tracer {
    pub fn new(single_client: bool) -> Arc<Self> {
        Arc::new(Self {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
            shared: AtomicU64::new(0),
            single_client,
        })
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enclosing(&self) -> (u32, u32) {
        let local = CURRENT.with(Cell::get);
        if local.1 != 0 {
            return local;
        }
        let shared = self.shared.load(Ordering::Acquire);
        ((shared >> 32) as u32, shared as u32)
    }

    /// Runs `f` inside a new span under the thread's current one. `query`
    /// starts a new query when non-zero; 0 inherits the enclosing query.
    /// `bytes` reads the payload size off the result.
    pub fn span<T>(
        &self,
        query: u32,
        layer: &'static str,
        name: &'static str,
        clock: Option<&SimClock>,
        bytes: impl FnOnce(&T) -> u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let (outer_query, parent) = self.enclosing();
        let query = if query != 0 { query } else { outer_query };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let saved = CURRENT.with(|c| c.replace((query, id)));
        // Only a root is published to other threads; a span that found a
        // parent (thread-local or published) must leave the slot alone.
        let publish = self.single_client && parent == 0;
        if publish {
            self.shared
                .store(u64::from(query) << 32 | u64::from(id), Ordering::Release);
        }
        let sim0 = clock.map_or(0, SimClock::now_micros);
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let sim_us = clock.map_or(0, SimClock::now_micros) - sim0;
        if publish {
            self.shared.store(0, Ordering::Release);
        }
        CURRENT.with(|c| c.set(saved));
        let span = Span {
            id,
            parent,
            query,
            layer,
            name,
            start_ns,
            end_ns,
            sim_us,
            bytes: bytes(&out),
        };
        self.spans
            .lock()
            .expect("no panic while recording")
            .push(span);
        out
    }

    /// A span around a layer call that moves no payload of its own.
    pub fn call<T>(
        &self,
        query: u32,
        layer: &'static str,
        name: &'static str,
        clock: Option<&SimClock>,
        f: impl FnOnce() -> T,
    ) -> T {
        self.span(query, layer, name, clock, |_| 0, f)
    }

    /// Removes and returns every span recorded so far.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("no panic while recording"))
    }
}

/// Total length covered by `intervals` (overlaps counted once).
pub fn covered_ns(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, 0u64);
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Number of groups of mutually overlapping intervals: calls in one group
/// ran side by side, groups ran one after another.
pub fn sequential_groups(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let (mut groups, mut reach) = (0u64, 0u64);
    for &(start, end) in intervals.iter() {
        if groups == 0 || start >= reach {
            groups += 1;
        }
        reach = reach.max(end);
    }
    groups
}

/// A span's duration minus the part of it its children cover.
pub fn self_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    span.dur_ns() - covered_ns(&mut clipped)
}

/// Spans grouped under their parents.
pub struct SpanTree<'s> {
    spans: &'s [Span],
    children: std::collections::HashMap<u32, Vec<&'s Span>>,
}

impl<'s> SpanTree<'s> {
    pub fn new(spans: &'s [Span]) -> Self {
        let mut children: std::collections::HashMap<u32, Vec<&Span>> = Default::default();
        for s in spans {
            children.entry(s.parent).or_default().push(s);
        }
        Self { spans, children }
    }

    pub fn children(&self, id: u32) -> &[&'s Span] {
        self.children.get(&id).map_or(&[], Vec::as_slice)
    }

    pub fn self_ns(&self, span: &Span) -> u64 {
        self_ns(span, self.children(span.id))
    }

    /// Spans of one layer and name, in recording order.
    pub fn named(&self, layer: &str, name: &str) -> impl Iterator<Item = &'s Span> + '_ {
        let (layer, name) = (layer.to_string(), name.to_string());
        self.spans
            .iter()
            .filter(move |s| s.layer == layer && s.name == name)
    }

    /// Every store span below `span`, at any depth.
    pub fn store_spans_under(&self, span: &Span) -> Vec<&'s Span> {
        let mut out = Vec::new();
        let mut stack = vec![span.id];
        while let Some(id) = stack.pop() {
            for c in self.children(id) {
                if c.layer == STORE_LAYER {
                    out.push(*c);
                } else {
                    stack.push(c.id);
                }
            }
        }
        out
    }
}

pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"query\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"sim_us\":{},\"bytes\":{}}}",
            s.id, s.parent, s.query, s.layer, s.name, s.start_ns, s.end_ns, s.sim_us, s.bytes
        )?;
    }
    out.flush()
}

pub const STORE_LAYER: &str = "object-store";

/// Decorator placed between `MemoryStore` and the clients in traced runs:
/// one span per store call. Forwards identity, clock, coalescing and every
/// accounting hook, so caches, simulated time and counters behave exactly
/// as without it.
pub struct TracingStore {
    inner: Arc<MemoryStore>,
    tracer: Arc<Tracer>,
}

impl TracingStore {
    pub fn new(inner: Arc<MemoryStore>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }

    fn traced<T>(
        &self,
        name: &'static str,
        bytes: impl FnOnce(&T) -> u64,
        f: impl FnOnce() -> T,
    ) -> T {
        self.tracer
            .span(0, STORE_LAYER, name, self.inner.clock(), bytes, f)
    }
}

type StoreResult<T> = rottnest_object_store::Result<T>;

fn payload(r: &StoreResult<Bytes>) -> u64 {
    r.as_ref().map_or(0, |b| b.len() as u64)
}

impl ObjectStore for TracingStore {
    fn put(&self, key: &str, data: Bytes) -> StoreResult<()> {
        let len = data.len() as u64;
        self.traced("put", |_| len, || self.inner.put(key, data))
    }
    fn put_if_absent(&self, key: &str, data: Bytes) -> StoreResult<()> {
        let len = data.len() as u64;
        self.traced(
            "put_if_absent",
            |_| len,
            || self.inner.put_if_absent(key, data),
        )
    }
    fn get(&self, key: &str) -> StoreResult<Bytes> {
        self.traced("get", payload, || self.inner.get(key))
    }
    fn get_range(&self, key: &str, range: Range<u64>) -> StoreResult<Bytes> {
        self.traced("get_range", payload, || self.inner.get_range(key, range))
    }
    fn get_ranges(&self, requests: &[RangeRequest]) -> StoreResult<Vec<Bytes>> {
        self.traced(
            "get_ranges",
            |r: &StoreResult<Vec<Bytes>>| {
                r.as_ref()
                    .map_or(0, |v| v.iter().map(|b| b.len() as u64).sum())
            },
            || self.inner.get_ranges(requests),
        )
    }
    fn head(&self, key: &str) -> StoreResult<ObjectMeta> {
        self.traced("head", |_| 0, || self.inner.head(key))
    }
    fn list(&self, prefix: &str) -> StoreResult<Vec<ObjectMeta>> {
        self.traced("list", |_| 0, || self.inner.list(prefix))
    }
    fn delete(&self, key: &str) -> StoreResult<()> {
        self.traced("delete", |_| 0, || self.inner.delete(key))
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

#[cfg(test)]
mod tests {
    use super::*;
    use rottnest_component::{ComponentCache, ComponentFile, ComponentWriter};

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            query: 1,
            layer: if parent == 0 { "core" } else { STORE_LAYER },
            name: "x",
            start_ns,
            end_ns,
            sim_us: 0,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let root = span(1, 0, 100, 1100);
        // Two overlapping children cover 200..600; a third 800..900; a
        // fourth sticks out past the parent and is clipped to 1000..1100.
        let kids = [
            span(2, 1, 200, 500),
            span(3, 1, 400, 600),
            span(4, 1, 800, 900),
            span(5, 1, 1000, 1300),
        ];
        let refs: Vec<&Span> = kids.iter().collect();
        assert_eq!(self_ns(&root, &refs), 1000 - (400 + 100 + 100));
        assert_eq!(self_ns(&root, &[]), 1000);
    }

    #[test]
    fn self_time_plus_children_cover_equals_the_span() {
        let spans = vec![
            span(1, 0, 0, 1000),
            span(2, 1, 100, 300),
            span(3, 1, 250, 700),
        ];
        let tree = SpanTree::new(&spans);
        let mut cover: Vec<(u64, u64)> = tree
            .children(1)
            .iter()
            .map(|c| (c.start_ns, c.end_ns))
            .collect();
        assert_eq!(tree.self_ns(&spans[0]) + covered_ns(&mut cover), 1000);
    }

    #[test]
    fn overlapping_calls_are_one_round_trip() {
        let mut calls = vec![(0, 10), (5, 20), (20, 30), (40, 50), (41, 42)];
        assert_eq!(sequential_groups(&mut calls), 3);
        assert_eq!(sequential_groups(&mut []), 0);
    }

    #[test]
    fn nested_spans_record_their_parents() {
        let tracer = Tracer::new(true);
        tracer.call(7, "core", "search", None, || {
            tracer.call(0, "fm", "locate", None, || {
                tracer.call(0, STORE_LAYER, "get", None, || ());
            });
        });
        let spans = tracer.take();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).unwrap().clone();
        let (search, locate, get) = (by_name("search"), by_name("locate"), by_name("get"));
        assert_eq!(search.parent, 0);
        assert_eq!(locate.parent, search.id);
        assert_eq!(get.parent, locate.id);
        assert!(spans.iter().all(|s| s.query == 7));
        let tree = SpanTree::new(&spans);
        assert_eq!(tree.store_spans_under(&search).len(), 1);
    }

    #[test]
    fn worker_threads_attribute_to_the_single_query_in_flight() {
        let tracer = Tracer::new(true);
        tracer.call(3, "core", "search", None, || {
            std::thread::scope(|s| {
                s.spawn(|| tracer.call(0, STORE_LAYER, "get", None, || ()));
            });
        });
        let spans = tracer.take();
        let get = spans.iter().find(|s| s.name == "get").unwrap();
        let search = spans.iter().find(|s| s.name == "search").unwrap();
        assert_eq!((get.query, get.parent), (3, search.id));
    }

    #[test]
    fn tracing_store_forwards_identity_clock_and_accounting() {
        let mem = MemoryStore::new();
        let tracer = Tracer::new(true);
        let traced = TracingStore::new(mem.clone(), tracer.clone());
        assert_eq!(traced.store_id(), mem.store_id());
        assert_ne!(
            traced.store_id(),
            0,
            "a store id of 0 would opt out of caching"
        );
        assert_eq!(traced.coalesce_gap(), mem.coalesce_gap());
        assert!(std::ptr::eq(traced.clock().unwrap(), mem.clock().unwrap()));

        traced.record_cache(2, 1, 10);
        traced.record_page_cache(3, 4, 20);
        traced.record_page_cache_bypass(5);
        traced.record_dedup(6);
        traced.record_coalesced(7);
        traced.record_retry(8, 9);
        let s = mem.stats();
        assert_eq!(
            (s.cache_hits, s.cache_misses, s.cache_bytes_saved),
            (2, 1, 10)
        );
        assert_eq!((s.page_cache_hits, s.page_cache_misses), (3, 4));
        assert_eq!((s.page_cache_bypassed, s.dedup_hits), (5, 6));
        assert_eq!((s.coalesced_gets, s.retries, s.backoff_ms), (7, 8, 9));

        let before = mem.clock().unwrap().now_micros();
        traced.put("k", Bytes::from(vec![1u8; 100])).unwrap();
        assert_eq!(traced.get("k").unwrap().len(), 100);
        let spans = tracer.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].bytes, 100);
        assert_eq!(
            spans.iter().map(|s| s.sim_us).sum::<u64>(),
            mem.clock().unwrap().now_micros() - before
        );
    }

    #[test]
    fn cached_read_through_the_decorator_hits_the_same_cache_entries() {
        let mem = MemoryStore::new();
        let mut w = ComponentWriter::new();
        w.add(vec![7u8; 200_000]);
        w.add(vec![9u8; 200_000]);
        w.finish_into(mem.as_ref(), "f.idx").unwrap();

        // Fill the process-wide cache through the plain store...
        let plain = ComponentFile::open(mem.as_ref(), "f.idx").unwrap();
        plain.components(&[0, 1]).unwrap();
        let entries = ComponentCache::global().entries_for_file(mem.store_id(), "f.idx");
        assert!(entries > 0);

        // ...then read through the decorator: no GET, all hits.
        let traced = TracingStore::new(mem.clone(), Tracer::new(true));
        let before = mem.stats();
        let file = ComponentFile::open(&traced, "f.idx").unwrap();
        let got = file.components(&[0, 1]).unwrap();
        assert_eq!(got[1][0], 9);
        let delta = mem.stats().since(&before);
        assert_eq!(
            delta.gets, 0,
            "served from the entries the plain store filled"
        );
        assert!(delta.cache_hits >= 2);
        assert_eq!(
            ComponentCache::global().entries_for_file(mem.store_id(), "f.idx"),
            entries
        );
    }
}
