//! Process-wide byte-budgeted cache of lakeparquet **data pages**.
//!
//! The component cache (PR 2, `rottnest-component`) removed repeat GETs for
//! *index* structure; this cache does the same for the *data* pages the
//! probe path fetches to verify candidates. Skewed traffic — the same hot
//! UUIDs or substrings queried again and again — re-reads the same handful
//! of ~300 KiB pages every query, and each re-read is a billable range GET
//! with a ~30 ms first-byte latency (§VII-D3). A warm page cache turns
//! those into memory hits with **identical results**: pages are immutable
//! bytes, so a hit decodes to exactly what the GET would have returned.
//!
//! Keys are `(store id, file key, page offset, page length, validator)`:
//!
//! * store id — [`ObjectStore::store_id`]; `0` means "uncacheable" and
//!   bypasses the cache entirely (reads behave exactly as before).
//! * validator — a hash of the file's HEAD metadata (size + created
//!   timestamp), standing in for the etag real object stores provide. An
//!   overwritten file gets a new validator, so stale pages can never be
//!   served; they age out of the LRU unreferenced.
//!
//! Revalidation costs **one HEAD per file per query, issued as one wave per
//! batch**, not per page: the [`PageCacheSession`] a search creates memoizes
//! validators for the duration of the query, the session is shared across
//! parallel probe workers, and a batch read revalidates all of its
//! not-yet-memoized files at once, overlapped over the session's connection
//! lanes — the HEADs do not depend on each other, so a 12-file batch pays
//! ⌈12 / lanes⌉ HEAD latencies, not 12. A HEAD is an order of magnitude
//! cheaper than the GET it can save, and on a miss the HEAD still primes the
//! insert's validator.
//!
//! Budget: a separate [`ByteLru`] instance from the component cache —
//! default 256 MiB each — so a burst of large data pages can never evict
//! hot index components, and vice versa.
//!
//! Invalidation hints: the lake layer calls [`PageCache::invalidate_file`]
//! when compaction replaces data files and when vacuum physically deletes
//! them, so dead bytes stop pinning cache budget the moment the file is
//! gone rather than lingering until eviction.

use std::sync::{Mutex, OnceLock};

use bytes::Bytes;
use rottnest_object_store::{
    current_deadline_ms, is_cancelled, ordered_parallel_map_io, push_deadline, ByteLru, FxHashMap,
    ObjectStore, StoreError,
};

/// Default page-cache capacity in bytes (separate from the component
/// cache's budget).
pub const DEFAULT_PAGE_CACHE_CAPACITY: usize = 256 * 1024 * 1024;

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PageKey {
    ns: u64,
    key: String,
    offset: u64,
    len: u64,
    validator: u64,
}

/// Sharded, byte-capped, process-wide LRU for data pages.
pub struct PageCache {
    lru: ByteLru<PageKey, Bytes>,
}

impl PageCache {
    /// Creates a cache bounded by `capacity` total bytes.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            lru: ByteLru::with_capacity(capacity),
        }
    }

    /// The process-wide instance used by [`crate::PageReader`].
    pub fn global() -> &'static PageCache {
        static GLOBAL: OnceLock<PageCache> = OnceLock::new();
        GLOBAL.get_or_init(|| PageCache::with_capacity(DEFAULT_PAGE_CACHE_CAPACITY))
    }

    /// Combines a file's HEAD metadata into the validator pages are keyed
    /// by. FNV-1a over the fixed-width fields.
    pub fn file_validator(size: u64, created_ms: u64) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in size
            .to_le_bytes()
            .into_iter()
            .chain(created_ms.to_le_bytes())
        {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h
    }

    /// Looks up the page at `offset..offset+len` of `key` on store `ns`
    /// under `validator`.
    pub fn get(&self, ns: u64, key: &str, offset: u64, len: u64, validator: u64) -> Option<Bytes> {
        self.lru.get(&PageKey {
            ns,
            key: key.to_string(),
            offset,
            len,
            validator,
        })
    }

    /// Installs page bytes. Callers must only insert payloads whose length
    /// matches the page-table entry (a torn short read must never be
    /// cached).
    pub fn put(&self, ns: u64, key: &str, offset: u64, len: u64, validator: u64, data: Bytes) {
        let charge = data.len();
        self.lru.insert(
            PageKey {
                ns,
                key: key.to_string(),
                offset,
                len,
                validator,
            },
            data,
            charge,
        );
    }

    /// Drops every cached page of `key` on store `ns`, across all
    /// validators — the invalidation hint compaction and vacuum emit after
    /// replacing or physically deleting a data file.
    pub fn invalidate_file(&self, ns: u64, key: &str) {
        self.lru.retain(|k| !(k.ns == ns && k.key == key));
    }

    /// Number of cached pages for `key` on store `ns` (tests assert
    /// invalidation hints landed).
    pub fn entries_for_file(&self, ns: u64, key: &str) -> usize {
        self.lru.count_matching(|k| k.ns == ns && k.key == key)
    }

    /// Empties the cache (benchmarks use this to model a cold client).
    pub fn clear(&self) {
        self.lru.clear();
    }

    /// Number of cached pages (all shards).
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }

    /// Total cached bytes (all shards).
    pub fn bytes(&self) -> usize {
        self.lru.bytes()
    }
}

/// Per-query validator memo: one HEAD per file per query.
///
/// A search creates one session and shares it (by reference) across every
/// probe worker. The first batch that touches a file HEADs it — together
/// with every other new file of that batch, in one overlapped wave — to
/// derive the validator; every later page of that file, from any worker,
/// reuses the memoized answer. `None` is memoized too: a file whose HEAD
/// failed (or a store with id 0) reads straight through without caching,
/// preserving exact pre-cache behaviour.
pub struct PageCacheSession {
    validators: Mutex<FxHashMap<(u64, String), Option<u64>>>,
    /// Connection lanes a revalidation wave overlaps its HEADs over.
    lanes: usize,
}

impl Default for PageCacheSession {
    fn default() -> Self {
        Self::with_parallelism(1)
    }
}

impl PageCacheSession {
    /// Creates an empty session that revalidates files one HEAD after the
    /// other.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty session whose revalidation waves overlap up to
    /// `lanes` HEADs (a search passes its fan-out width). Validators, and
    /// the one-HEAD-per-file count, are the same at every setting; only
    /// elapsed time differs.
    pub fn with_parallelism(lanes: usize) -> Self {
        Self {
            validators: Mutex::default(),
            lanes: lanes.max(1),
        }
    }

    /// The validators for `keys` on `store`, one per key in order, HEADing
    /// every distinct file this session has not seen yet in **one wave**.
    ///
    /// `None` marks a file to read uncached: the store is uncacheable
    /// (`store_id() == 0`) or its HEAD failed. A HEAD that was cancelled or
    /// ran out of the caller's deadline says nothing about the file: it is
    /// not memoized and the first such error, in key order, is returned.
    ///
    /// The memo lock is held across the wave — and only the wave — so
    /// concurrent workers asking about the same files still cost a single
    /// HEAD per file, and nobody queues behind more than one round of
    /// overlapped HEADs. When every file is already memoized no request is
    /// made and the worker pool is not touched.
    pub fn validators(
        &self,
        store: &dyn ObjectStore,
        keys: &[&str],
    ) -> Result<Vec<Option<u64>>, StoreError> {
        let ns = store.store_id();
        if ns == 0 {
            return Ok(vec![None; keys.len()]);
        }
        // The distinct files of the batch, in first-seen order; `slots[i]`
        // is the file of `keys[i]`. A batch is many pages of few files, so
        // the memo is consulted once per file, not per page.
        let mut slot_of: FxHashMap<&str, usize> = FxHashMap::default();
        let mut files: Vec<&str> = Vec::new();
        let slots: Vec<usize> = keys
            .iter()
            .map(|&key| {
                *slot_of.entry(key).or_insert_with(|| {
                    files.push(key);
                    files.len() - 1
                })
            })
            .collect();

        let mut memo = self.validators.lock().expect("validator memo lock");
        let mut resolved: Vec<Option<Option<u64>>> = files
            .iter()
            .map(|file| memo.get(&(ns, file.to_string())).copied())
            .collect();
        let missing: Vec<usize> = (0..files.len())
            .filter(|&f| resolved[f].is_none())
            .collect();
        if !missing.is_empty() {
            // Units may run on pool workers: re-install the caller's
            // deadline there so a retry backoff inside the wave still fails
            // typed instead of sleeping through the budget.
            let deadline_ms = current_deadline_ms();
            let heads = ordered_parallel_map_io(self.lanes, store.clock(), &missing, |_, &f| {
                let _deadline = push_deadline(deadline_ms);
                store.head(files[f])
            });
            let mut aborted = None;
            for (&f, head) in missing.iter().zip(heads) {
                let validator = match head {
                    Ok(meta) => Some(PageCache::file_validator(meta.size, meta.created_ms)),
                    Err(e)
                        if is_cancelled(&e)
                            || matches!(e.root(), StoreError::DeadlineExceeded { .. }) =>
                    {
                        aborted.get_or_insert(e);
                        continue;
                    }
                    Err(_) => None,
                };
                memo.insert((ns, files[f].to_string()), validator);
                resolved[f] = Some(validator);
            }
            if let Some(e) = aborted {
                return Err(e);
            }
        }
        Ok(slots
            .into_iter()
            .map(|f| resolved[f].expect("every file resolved"))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_of(n: usize, fill: u8) -> Bytes {
        Bytes::from(vec![fill; n])
    }

    #[test]
    fn hit_requires_every_key_part_to_match() {
        let cache = PageCache::with_capacity(1 << 20);
        cache.put(1, "d/a.lkpq", 100, 50, 7, bytes_of(50, 1));
        assert!(cache.get(1, "d/a.lkpq", 100, 50, 7).is_some());
        assert!(cache.get(2, "d/a.lkpq", 100, 50, 7).is_none(), "store id");
        assert!(cache.get(1, "d/b.lkpq", 100, 50, 7).is_none(), "file key");
        assert!(cache.get(1, "d/a.lkpq", 150, 50, 7).is_none(), "offset");
        assert!(cache.get(1, "d/a.lkpq", 100, 51, 7).is_none(), "length");
        assert!(cache.get(1, "d/a.lkpq", 100, 50, 8).is_none(), "validator");
    }

    #[test]
    fn eviction_respects_byte_cap() {
        let cache = PageCache::with_capacity(16 * 1024);
        for i in 0..200u64 {
            cache.put(1, "d/a.lkpq", i * 1024, 1024, 7, bytes_of(1024, i as u8));
        }
        assert!(cache.bytes() <= 16 * 1024);
        assert!(cache.len() < 200);
    }

    #[test]
    fn invalidate_file_drops_every_generation() {
        let cache = PageCache::with_capacity(1 << 20);
        cache.put(1, "d/a.lkpq", 0, 10, 7, bytes_of(10, 1));
        cache.put(1, "d/a.lkpq", 10, 10, 7, bytes_of(10, 2));
        cache.put(1, "d/a.lkpq", 0, 10, 8, bytes_of(10, 3)); // older generation
        cache.put(1, "d/b.lkpq", 0, 10, 7, bytes_of(10, 4));
        assert_eq!(cache.entries_for_file(1, "d/a.lkpq"), 3);
        cache.invalidate_file(1, "d/a.lkpq");
        assert_eq!(cache.entries_for_file(1, "d/a.lkpq"), 0);
        assert_eq!(cache.entries_for_file(1, "d/b.lkpq"), 1);
    }

    #[test]
    fn validator_changes_with_size_and_timestamp() {
        let v = PageCache::file_validator(1000, 5);
        assert_ne!(v, PageCache::file_validator(1001, 5));
        assert_ne!(v, PageCache::file_validator(1000, 6));
        assert_eq!(v, PageCache::file_validator(1000, 5));
    }

    #[test]
    fn session_heads_each_file_once() {
        use rottnest_object_store::MemoryStore;
        let store = MemoryStore::unmetered();
        store.put("d/a.lkpq", bytes_of(100, 1)).unwrap();
        store.put("d/b.lkpq", bytes_of(200, 2)).unwrap();

        let session = PageCacheSession::new();
        let validators = |keys: &[&str]| session.validators(store.as_ref(), keys).unwrap();
        let before = store.stats();
        let va = validators(&["d/a.lkpq"]);
        assert!(va[0].is_some());
        for _ in 0..5 {
            assert_eq!(validators(&["d/a.lkpq"]), va);
        }
        let both = validators(&["d/b.lkpq", "d/a.lkpq", "d/b.lkpq"]);
        assert_eq!(both[1], va[0]);
        assert_eq!(both[0], both[2]);
        assert_ne!(both[0], both[1]);
        let delta = store.stats().since(&before);
        assert_eq!(delta.heads, 2, "one HEAD per distinct file");

        // Missing files memoize None without re-HEADing.
        let before = store.stats();
        assert_eq!(validators(&["d/gone.lkpq"]), [None]);
        assert_eq!(validators(&["d/gone.lkpq", "d/a.lkpq"]), [None, va[0]]);
        assert_eq!(store.stats().since(&before).heads, 1);
    }

    #[test]
    fn revalidation_wave_overlaps_heads_over_the_session_lanes() {
        use rottnest_object_store::MemoryStore;
        let keys: Vec<String> = (0..12).map(|i| format!("d/{i:02}.lkpq")).collect();
        let keys: Vec<&str> = keys.iter().map(String::as_str).collect();
        let head_us = rottnest_object_store::LatencyModel::default().small_op_us;
        // (lanes, rounds of HEAD latency a 12-file wave costs)
        for (lanes, rounds) in [(1, 12), (8, 2), (12, 1), (64, 1)] {
            let store = MemoryStore::new();
            for key in &keys {
                store.put(key, bytes_of(10, 1)).unwrap();
            }
            let session = PageCacheSession::with_parallelism(lanes);
            let clock = store.clock().unwrap();
            let before = store.stats();
            let (first, elapsed) = clock.time(|| session.validators(store.as_ref(), &keys));
            assert_eq!(elapsed, rounds * head_us, "{lanes} lanes");
            assert_eq!(store.stats().since(&before).heads, 12);
            // Memoized: free, and identical.
            let (again, elapsed) = clock.time(|| session.validators(store.as_ref(), &keys));
            assert_eq!(elapsed, 0);
            assert_eq!(first.unwrap(), again.unwrap());
            assert_eq!(store.stats().since(&before).heads, 12);
        }
    }

    #[test]
    fn concurrent_readers_of_overlapping_files_head_each_file_once() {
        use rottnest_object_store::MemoryStore;
        let store = MemoryStore::unmetered();
        let keys: Vec<String> = (0..10).map(|i| format!("d/{i:02}.lkpq")).collect();
        for key in &keys {
            store.put(key, bytes_of(10, 1)).unwrap();
        }
        let session = PageCacheSession::with_parallelism(4);
        let barrier = std::sync::Barrier::new(2);
        let before = store.stats();
        let (a, b) = std::thread::scope(|scope| {
            let wave = |range: std::ops::Range<usize>| {
                let (session, store, barrier, keys) = (&session, &store, &barrier, &keys);
                scope.spawn(move || {
                    let mine: Vec<&str> = keys[range].iter().map(String::as_str).collect();
                    barrier.wait();
                    session.validators(store.as_ref(), &mine).unwrap()
                })
            };
            let (a, b) = (wave(0..7), wave(3..10));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(store.stats().since(&before).heads, 10, "one HEAD per file");
        assert_eq!(a[3..], b[..4], "both readers see the same validators");
    }
}
