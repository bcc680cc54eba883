//! Componentized on-object-store layout of the FM-index.
//!
//! ```text
//! component 0 (root): n_rows, block_size, sample_rate,
//!                     C table, per-block symbol counts, per-block sample
//!                     bases, page map
//! component 1..=B:    per BWT block: wavelet matrix, sample marks
//!                     bit vector, sampled suffix-array values
//! ```
//!
//! A `count` costs ~2 block components per pattern symbol (the `l` and `r`
//! boundaries), fetched as one round trip per symbol — backward search is
//! inherently one dependent step per symbol. A `locate` additionally walks
//! every occurrence back to a sampled row, but the walks do not depend on
//! each other: they advance in lockstep, each round fetching the blocks all
//! unresolved walks stand on in one batched round trip, so a locate costs at
//! most `sample_rate` rounds however many occurrences it resolves. The root
//! rides along with the speculative open GET.

use bytes::Bytes;
use rottnest_component::{ComponentFile, ComponentWriter, Posting};
use rottnest_compress::{bitpack, varint};
use rottnest_object_store::{ordered_parallel_map, ObjectStore};

use crate::bitvec::RankBitVec;
use crate::core::{check_pattern, FmCore, DEFAULT_SAMPLE_RATE};
use crate::wavelet::WaveletMatrix;
use crate::{FmError, Result, SENTINEL, SEPARATOR};

/// Tuning knobs for the on-store layout.
#[derive(Debug, Clone)]
pub struct FmOptions {
    /// Symbols per BWT block component. Default 64 Ki symbols.
    pub block_size: usize,
    /// Suffix-array sampling rate.
    pub sample_rate: u32,
}

impl Default for FmOptions {
    fn default() -> Self {
        Self {
            block_size: 1 << 16,
            sample_rate: DEFAULT_SAMPLE_RATE,
        }
    }
}

/// Maps global text offsets to page postings.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageMap {
    /// Segment start offsets (sorted); segment `i` covers
    /// `starts[i]..starts[i+1]`.
    pub starts: Vec<u64>,
    /// Posting of each segment.
    pub postings: Vec<Posting>,
}

impl PageMap {
    /// Posting covering text offset `pos`.
    pub fn lookup(&self, pos: u64) -> Option<Posting> {
        let idx = self.starts.partition_point(|&s| s <= pos).checked_sub(1)?;
        Some(self.postings[idx])
    }

    /// Appends another map whose offsets shift by `offset`.
    pub fn append_shifted(&mut self, other: &PageMap, offset: u64) {
        self.starts.extend(other.starts.iter().map(|&s| s + offset));
        self.postings.extend_from_slice(&other.postings);
    }

    fn encode(&self, out: &mut Vec<u8>) {
        bitpack::pack_sorted(out, &self.starts);
        bitpack::pack(
            out,
            &self
                .postings
                .iter()
                .map(|p| u64::from(p.file))
                .collect::<Vec<_>>(),
        );
        bitpack::pack(
            out,
            &self
                .postings
                .iter()
                .map(|p| u64::from(p.page))
                .collect::<Vec<_>>(),
        );
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Result<Self> {
        let starts = bitpack::unpack_sorted(buf, pos)?;
        let files = bitpack::unpack(buf, pos)?;
        let pages = bitpack::unpack(buf, pos)?;
        if files.len() != starts.len() || pages.len() != starts.len() {
            return Err(FmError::Corrupt("page map arrays disagree".into()));
        }
        let postings = files
            .into_iter()
            .zip(pages)
            .map(|(f, p)| Posting::new(f as u32, p as u32))
            .collect();
        Ok(Self { starts, postings })
    }
}

/// Incrementally builds an FM-index file from page texts.
pub struct FmBuilder {
    options: FmOptions,
    parallelism: usize,
    text: Vec<u8>,
    map: PageMap,
}

impl FmBuilder {
    /// Creates a builder with default options.
    pub fn new() -> Self {
        Self::with_options(FmOptions::default())
    }

    /// Creates a builder with explicit options.
    pub fn with_options(options: FmOptions) -> Self {
        Self {
            options,
            parallelism: 1,
            text: Vec::new(),
            map: PageMap::default(),
        }
    }

    /// Sets the worker-thread bound for `finish`'s CPU-heavy stages (BWT
    /// derivation, per-block wavelet construction). The produced bytes are
    /// identical at every setting; only wall-clock changes.
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism.max(1);
        self
    }

    /// Adds one document belonging to data page `posting`. Documents for the
    /// same posting should be added consecutively; consecutive same-posting
    /// documents share a page-map segment.
    pub fn add_document(&mut self, posting: Posting, doc: &[u8]) {
        if self.map.postings.last() != Some(&posting) {
            self.map.starts.push(self.text.len() as u64);
            self.map.postings.push(posting);
        }
        let at = self.text.len();
        self.text.extend_from_slice(doc);
        crate::core::sanitize(&mut self.text[at..]);
        self.text.push(SEPARATOR);
    }

    /// Total sanitized text bytes accumulated.
    pub fn text_len(&self) -> usize {
        self.text.len()
    }

    /// Whether nothing was added.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// Builds the index image.
    pub fn finish(self) -> Bytes {
        let core =
            FmCore::build_with_parallelism(&self.text, self.options.sample_rate, self.parallelism);
        write_file(&core, &self.map, &self.options, self.parallelism)
    }

    /// Builds and uploads; returns the file size.
    pub fn finish_into(self, store: &dyn ObjectStore, key: &str) -> Result<u64> {
        let bytes = self.finish();
        let len = bytes.len() as u64;
        store.put(key, bytes)?;
        Ok(len)
    }
}

impl Default for FmBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Serializes a built core + page map into the component layout. Shared by
/// the builder and the merge path.
///
/// Blocks are independent: their symbol counts, wavelet matrices, and
/// sample slices (addressed by prefix-summed per-block sample bases, the
/// same arithmetic the serial cursor performed) are computed over
/// `parallelism` threads and emitted strictly in block order, so the file
/// image is byte-identical at every setting.
pub(crate) fn write_file(
    core: &FmCore,
    map: &PageMap,
    options: &FmOptions,
    parallelism: usize,
) -> Bytes {
    let n = core.len();
    let bs = options.block_size;
    let n_blocks = n.div_ceil(bs);
    let blocks: Vec<usize> = (0..n_blocks).collect();

    // Per-block symbol counts and mark counts, computed in parallel and
    // consumed in block order below.
    let block_stats = ordered_parallel_map(parallelism, &blocks, |_, &b| {
        let start = b * bs;
        let end = (start + bs).min(n);
        let mut counts = [0u64; 256];
        for &sym in &core.bwt[start..end] {
            counts[sym as usize] += 1;
        }
        let marks = core.marks[start..end].iter().filter(|&&m| m).count() as u64;
        (counts, marks)
    });

    let mut writer = ComponentWriter::new();

    // Root component.
    let mut root = Vec::new();
    root.push(1u8); // layout version
    varint::write_usize(&mut root, n);
    varint::write_usize(&mut root, bs);
    varint::write_u64(&mut root, u64::from(options.sample_rate));
    for &c in core.c_table.iter() {
        varint::write_u64(&mut root, c);
    }
    varint::write_usize(&mut root, n_blocks);
    // Per-block symbol-count increments (reconstructed to cumulative on
    // open) and sample bases — the bases double as each block's starting
    // cursor into `core.samples`.
    let mut sample_base = 0u64;
    let mut sample_starts = Vec::with_capacity(n_blocks);
    for (counts, mark_count) in &block_stats {
        for &c in counts {
            varint::write_u64(&mut root, c);
        }
        varint::write_u64(&mut root, sample_base);
        sample_starts.push(sample_base as usize);
        sample_base += mark_count;
    }
    map.encode(&mut root);
    writer.add(root);

    // Block components: wavelet-matrix construction dominates the CPU
    // cost of serialization, and every block is independent.
    let bufs = ordered_parallel_map(parallelism, &blocks, |idx, &b| {
        let start = b * bs;
        let end = (start + bs).min(n);
        let mut buf = Vec::new();
        WaveletMatrix::build(&core.bwt[start..end]).encode(&mut buf);
        let mut marks_bv = crate::bitvec::BitVecBuilder::with_capacity(end - start);
        let mut block_samples = Vec::new();
        let mut sample_cursor = sample_starts[idx];
        for i in start..end {
            marks_bv.push(core.marks[i]);
            if core.marks[i] {
                block_samples.push(core.samples[sample_cursor]);
                sample_cursor += 1;
            }
        }
        marks_bv.finish().encode(&mut buf);
        bitpack::pack(&mut buf, &block_samples);
        buf
    });
    for buf in bufs {
        writer.add(buf);
    }
    writer.finish()
}

pub(crate) struct Block {
    pub(crate) wm: WaveletMatrix,
    pub(crate) marks: RankBitVec,
    pub(crate) samples: Vec<u64>,
}

fn decode_block(buf: &[u8]) -> Result<Block> {
    let mut pos = 0usize;
    let wm = WaveletMatrix::decode(buf, &mut pos)?;
    let marks = RankBitVec::decode(buf, &mut pos)?;
    let samples = bitpack::unpack(buf, &mut pos)?;
    if marks.len() != wm.len() || samples.len() != marks.count_ones() {
        return Err(FmError::Corrupt("block arrays disagree".into()));
    }
    Ok(Block { wm, marks, samples })
}

/// Read handle over an FM-index file on object storage.
pub struct FmIndex<'a> {
    file: ComponentFile<'a>,
    /// Decoded-block cache: LF walks revisit the same block many times per
    /// locate; decoding the wavelet matrix once per block, not per step,
    /// keeps the CPU cost proportional to distinct blocks touched.
    blocks: std::sync::Mutex<rottnest_object_store::FxHashMap<usize, std::sync::Arc<Block>>>,
    n: usize,
    block_size: usize,
    sample_rate: u32,
    c_table: [u64; 257],
    /// `cum[b][c]` = occurrences of `c` before block `b`; length
    /// `n_blocks + 1`.
    cum: Vec<[u64; 256]>,
    /// Cumulative sample counts per block (on-disk field; kept for
    /// future global-sample addressing, currently resolved per block).
    #[allow(dead_code)]
    sample_bases: Vec<u64>,
    map: PageMap,
}

impl<'a> FmIndex<'a> {
    /// Opens an index written by [`FmBuilder`] (or [`crate::merge_fm`]).
    pub fn open(store: &'a dyn ObjectStore, key: &str) -> Result<Self> {
        let file = ComponentFile::open(store, key)?;
        let root = file.component(0)?;
        if root.first() != Some(&1u8) {
            return Err(FmError::Corrupt("unsupported fm layout version".into()));
        }
        let mut pos = 1usize;
        let n = varint::read_usize(&root, &mut pos)?;
        let block_size = varint::read_usize(&root, &mut pos)?;
        if block_size == 0 {
            return Err(FmError::Corrupt("zero block size".into()));
        }
        let sample_rate = varint::read_u64(&root, &mut pos)? as u32;
        let mut c_table = [0u64; 257];
        for c in c_table.iter_mut() {
            *c = varint::read_u64(&root, &mut pos)?;
        }
        let n_blocks = varint::read_usize(&root, &mut pos)?;
        let mut cum = vec![[0u64; 256]; n_blocks + 1];
        let mut sample_bases = Vec::with_capacity(n_blocks);
        for b in 0..n_blocks {
            let prev = cum[b];
            for (c, slot) in cum[b + 1].iter_mut().enumerate() {
                let inc = varint::read_u64(&root, &mut pos)?;
                *slot = prev[c] + inc;
            }
            sample_bases.push(varint::read_u64(&root, &mut pos)?);
        }
        let map = PageMap::decode(&root, &mut pos)?;
        Ok(Self {
            file,
            blocks: std::sync::Mutex::new(Default::default()),
            n,
            block_size,
            sample_rate,
            c_table,
            cum,
            sample_bases,
            map,
        })
    }

    /// BWT length (text + sentinels).
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the index covers no text.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Suffix-array sample rate recorded at build time.
    pub fn sample_rate(&self) -> u32 {
        self.sample_rate
    }

    /// The page map (text offsets → postings).
    pub fn page_map(&self) -> &PageMap {
        &self.map
    }

    /// Number of BWT block components.
    pub fn num_blocks(&self) -> usize {
        self.cum.len() - 1
    }

    /// Fetches and decodes whichever of `wanted` (block indices) the handle
    /// has not decoded yet: one batched `components` call — one round trip —
    /// however many are missing, none when all are present. Decoding straight
    /// into the handle's map (not relying on the shared component cache)
    /// keeps uncacheable `store_id() == 0` stores at one fetch per block.
    fn load_blocks(&self, wanted: impl IntoIterator<Item = usize>) -> Result<()> {
        let mut missing: Vec<usize> = {
            let have = self.blocks.lock().expect("block cache");
            wanted
                .into_iter()
                .filter(|b| !have.contains_key(b))
                .collect()
        };
        if missing.is_empty() {
            return Ok(());
        }
        missing.sort_unstable();
        missing.dedup();
        let ids: Vec<usize> = missing.iter().map(|b| b + 1).collect();
        let decoded = self
            .file
            .components(&ids)?
            .iter()
            .map(|buf| decode_block(buf).map(std::sync::Arc::new))
            .collect::<Result<Vec<_>>>()?;
        self.blocks
            .lock()
            .expect("block cache")
            .extend(missing.into_iter().zip(decoded));
        Ok(())
    }

    fn block(&self, b: usize) -> Result<std::sync::Arc<Block>> {
        self.load_blocks([b])?;
        let have = self.blocks.lock().expect("block cache");
        Ok(have.get(&b).expect("just loaded").clone())
    }

    /// Visits every block in order after one batched fetch of all block
    /// components (used by merge's full materialization).
    pub(crate) fn for_each_block(&self, mut f: impl FnMut(&Block)) -> Result<()> {
        self.load_blocks(0..self.num_blocks())?;
        for b in 0..self.num_blocks() {
            f(self.block(b)?.as_ref());
        }
        Ok(())
    }

    /// Occurrences of `c` in `bwt[0..i)`.
    fn rank(&self, c: u8, i: usize) -> Result<usize> {
        debug_assert!(i <= self.n);
        let b = i / self.block_size;
        if b >= self.num_blocks() {
            return Ok(self.cum[self.num_blocks()][c as usize] as usize);
        }
        let block = self.block(b)?;
        Ok(self.cum[b][c as usize] as usize + block.wm.rank(c, i - b * self.block_size))
    }

    /// Backward search for the SA interval of `pattern`. When both interval
    /// boundaries land in the same BWT block — the common case once the
    /// interval narrows — the step runs as one fused wavelet traversal
    /// ([`WaveletMatrix::rank_range`]) instead of two independent ranks.
    pub fn interval(&self, pattern: &[u8]) -> Result<(usize, usize)> {
        check_pattern(pattern)?;
        let mut l = 0usize;
        let mut r = self.n;
        for &c in pattern.iter().rev() {
            // Fetch both boundary blocks in one round trip (a boundary at
            // the very end of the BWT needs no block, only the totals).
            let (bl, br) = (l / self.block_size, r / self.block_size);
            self.load_blocks([bl, br].into_iter().filter(|&b| b < self.num_blocks()))?;
            let (rl, rr) = if bl == br && bl < self.num_blocks() {
                let block = self.block(bl)?;
                let cum = self.cum[bl][c as usize] as usize;
                let local = bl * self.block_size;
                let (a, b) = block.wm.rank_range(c, l - local, r - local);
                (cum + a, cum + b)
            } else {
                (self.rank(c, l)?, self.rank(c, r)?)
            };
            if rl >= rr {
                return Ok((0, 0));
            }
            let base = self.c_table[c as usize] as usize;
            l = base + rl;
            r = base + rr;
        }
        Ok((l, r))
    }

    /// Total occurrences of `pattern`.
    pub fn count(&self, pattern: &[u8]) -> Result<usize> {
        let (l, r) = self.interval(pattern)?;
        Ok(r - l)
    }

    /// Locates up to `limit` occurrences, returning deduplicated page
    /// postings (with per-page hit counts).
    pub fn locate_pages(&self, pattern: &[u8], limit: usize) -> Result<Vec<(Posting, u32)>> {
        let mut hits: Vec<(Posting, u32)> = Vec::new();
        for pos in self.locate_offsets(pattern, limit)? {
            if let Some(p) = self.map.lookup(pos) {
                match hits.iter_mut().find(|(q, _)| *q == p) {
                    Some((_, n)) => *n += 1,
                    None => hits.push((p, 1)),
                }
            }
        }
        Ok(hits)
    }

    /// Locates up to `limit` raw text offsets, in suffix-array row order.
    ///
    /// Every occurrence walks LF steps back to a sampled row. The walks are
    /// independent, so they advance in lockstep: each round fetches the
    /// blocks all unresolved walkers stand on with one batched round trip,
    /// then steps every walker as far as decoded blocks carry it. A walker
    /// takes at least one step per round and fewer than `sample_rate` in
    /// all, so the request depth is bounded by `sample_rate`, not by the
    /// number of occurrences.
    pub fn locate_offsets(&self, pattern: &[u8], limit: usize) -> Result<Vec<u64>> {
        let (l, r) = self.interval(pattern)?;
        let take = (r - l).min(limit);
        let mut offsets = vec![0u64; take];
        // (output slot, current row, LF steps taken) per unresolved walker.
        let mut walkers: Vec<(usize, usize, u64)> = (0..take).map(|i| (i, l + i, 0)).collect();
        while !walkers.is_empty() {
            self.load_blocks(walkers.iter().map(|&(_, row, _)| row / self.block_size))?;
            let blocks = self.blocks.lock().expect("block cache");
            walkers.retain_mut(|(slot, row, steps)| loop {
                let b = *row / self.block_size;
                let Some(block) = blocks.get(&b) else {
                    return true;
                };
                let local = *row - b * self.block_size;
                if block.marks.get(local) {
                    offsets[*slot] = block.samples[block.marks.rank1(local)] + *steps;
                    return false;
                }
                let (sym, rank) = block.wm.access_and_rank(local);
                debug_assert_ne!(sym, SENTINEL, "string starts must be sampled");
                *row =
                    self.c_table[sym as usize] as usize + self.cum[b][sym as usize] as usize + rank;
                *steps += 1;
            });
        }
        Ok(offsets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rottnest_object_store::MemoryStore;

    fn corpus() -> Vec<(Posting, Vec<String>)> {
        let mut pages = Vec::new();
        for page in 0..12u32 {
            let docs: Vec<String> = (0..40)
                .map(|d| {
                    format!(
                        "page {page} doc {d}: the quick brown fox id{page:02}x{d:02} jumps over"
                    )
                })
                .collect();
            pages.push((Posting::new(page / 6, page % 6), docs));
        }
        pages
    }

    fn build(store: &dyn ObjectStore, key: &str, options: FmOptions) {
        let mut b = FmBuilder::with_options(options);
        for (posting, docs) in corpus() {
            for d in &docs {
                b.add_document(posting, d.as_bytes());
            }
        }
        b.finish_into(store, key).unwrap();
    }

    #[test]
    fn count_matches_naive() {
        let store = MemoryStore::unmetered();
        build(
            store.as_ref(),
            "f.idx",
            FmOptions {
                block_size: 1 << 10,
                ..Default::default()
            },
        );
        let idx = FmIndex::open(store.as_ref(), "f.idx").unwrap();

        // 12 pages × 40 docs contain "quick brown fox".
        assert_eq!(idx.count(b"quick brown fox").unwrap(), 480);
        assert_eq!(idx.count(b"id03x07").unwrap(), 1);
        assert_eq!(idx.count(b"zebra").unwrap(), 0);
        // Trailing colon pins the doc number: only "doc 1:" matches, not
        // "doc 10:".."doc 19:", and "page 11" does not contain "page 1 ".
        assert_eq!(idx.count(b"page 1 doc 1:").unwrap(), 1);
    }

    #[test]
    fn locate_pages_finds_the_right_page() {
        let store = MemoryStore::unmetered();
        build(
            store.as_ref(),
            "f.idx",
            FmOptions {
                block_size: 1 << 10,
                ..Default::default()
            },
        );
        let idx = FmIndex::open(store.as_ref(), "f.idx").unwrap();

        let hits = idx.locate_pages(b"id07x13", 100).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, Posting::new(7 / 6, 7 % 6));
        assert_eq!(hits[0].1, 1);

        // A needle on every page returns every posting.
        let hits = idx.locate_pages(b"jumps over", usize::MAX).unwrap();
        assert_eq!(hits.len(), 12);
        assert_eq!(hits.iter().map(|(_, n)| n).sum::<u32>(), 480);
    }

    #[test]
    fn block_boundaries_are_transparent() {
        // A tiny block size forces patterns and LF walks across many blocks.
        let store = MemoryStore::unmetered();
        build(
            store.as_ref(),
            "f.idx",
            FmOptions {
                block_size: 257,
                sample_rate: 8,
            },
        );
        let idx = FmIndex::open(store.as_ref(), "f.idx").unwrap();
        assert!(idx.num_blocks() > 50);
        assert_eq!(idx.count(b"quick brown fox").unwrap(), 480);
        let hits = idx.locate_pages(b"id11x39", 10).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn matches_in_memory_core() {
        let store = MemoryStore::unmetered();
        build(store.as_ref(), "f.idx", FmOptions::default());
        let idx = FmIndex::open(store.as_ref(), "f.idx").unwrap();

        let mut text = Vec::new();
        for (_, docs) in corpus() {
            for d in &docs {
                text.extend_from_slice(d.as_bytes());
                text.push(SEPARATOR);
            }
        }
        let core = FmCore::build(&text, 32);
        for pattern in [b"fox id".as_slice(), b"doc 3", b"page 11", b" over"] {
            assert_eq!(
                idx.count(pattern).unwrap(),
                core.count(pattern).unwrap(),
                "pattern {:?}",
                std::str::from_utf8(pattern)
            );
        }
    }

    #[test]
    fn page_map_lookup() {
        let map = PageMap {
            starts: vec![0, 100, 250],
            postings: vec![Posting::new(0, 0), Posting::new(0, 1), Posting::new(1, 0)],
        };
        assert_eq!(map.lookup(0), Some(Posting::new(0, 0)));
        assert_eq!(map.lookup(99), Some(Posting::new(0, 0)));
        assert_eq!(map.lookup(100), Some(Posting::new(0, 1)));
        assert_eq!(map.lookup(5000), Some(Posting::new(1, 0)));
    }

    #[test]
    fn empty_pattern_and_reserved_bytes_rejected() {
        let store = MemoryStore::unmetered();
        build(store.as_ref(), "f.idx", FmOptions::default());
        let idx = FmIndex::open(store.as_ref(), "f.idx").unwrap();
        assert!(idx.count(b"").is_err());
        assert!(idx.count(&[0x00, b'a']).is_err());
    }

    #[test]
    fn lf_walks_reuse_cached_blocks() {
        let store = MemoryStore::unmetered();
        build(
            store.as_ref(),
            "f.idx",
            FmOptions {
                block_size: 1 << 12,
                sample_rate: 16,
            },
        );
        let idx = FmIndex::open(store.as_ref(), "f.idx").unwrap();

        // First locate pulls the blocks it needs…
        idx.locate_pages(b"quick brown fox", 64).unwrap();
        let before = store.stats();
        // …a repeat locate of the same pattern needs no further GETs at all
        // (bytes cached by the component layer, decoded blocks by FmIndex).
        idx.locate_pages(b"quick brown fox", 64).unwrap();
        assert_eq!(store.stats().since(&before).gets, 0);
    }

    /// Forwards to a `MemoryStore` but keeps the trait's default
    /// `store_id() == 0`, so no process-wide cache serves it, and logs every
    /// range requested of it.
    struct Uncacheable {
        inner: std::sync::Arc<MemoryStore>,
        ranges: std::sync::Mutex<Vec<(String, std::ops::Range<u64>)>>,
    }

    impl ObjectStore for Uncacheable {
        fn put(&self, key: &str, data: Bytes) -> rottnest_object_store::Result<()> {
            self.inner.put(key, data)
        }
        fn put_if_absent(&self, key: &str, data: Bytes) -> rottnest_object_store::Result<()> {
            self.inner.put_if_absent(key, data)
        }
        fn get(&self, key: &str) -> rottnest_object_store::Result<Bytes> {
            self.inner.get(key)
        }
        fn get_range(
            &self,
            key: &str,
            range: std::ops::Range<u64>,
        ) -> rottnest_object_store::Result<Bytes> {
            self.ranges
                .lock()
                .unwrap()
                .push((key.to_string(), range.clone()));
            self.inner.get_range(key, range)
        }
        fn get_ranges(
            &self,
            requests: &[rottnest_object_store::RangeRequest],
        ) -> rottnest_object_store::Result<Vec<Bytes>> {
            let mut log = self.ranges.lock().unwrap();
            log.extend(requests.iter().map(|r| (r.key.clone(), r.range.clone())));
            drop(log);
            self.inner.get_ranges(requests)
        }
        fn head(
            &self,
            key: &str,
        ) -> rottnest_object_store::Result<rottnest_object_store::ObjectMeta> {
            self.inner.head(key)
        }
        fn list(
            &self,
            prefix: &str,
        ) -> rottnest_object_store::Result<Vec<rottnest_object_store::ObjectMeta>> {
            self.inner.list(prefix)
        }
        fn delete(&self, key: &str) -> rottnest_object_store::Result<()> {
            self.inner.delete(key)
        }
        fn now_ms(&self) -> u64 {
            self.inner.now_ms()
        }
        fn stats(&self) -> rottnest_object_store::StatsSnapshot {
            self.inner.stats()
        }
    }

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// Documents over a four-letter alphabet, so short patterns recur often.
    fn random_docs(seed: u64, n: usize) -> Vec<Vec<u8>> {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..n)
            .map(|_| {
                let len = 4 + (xorshift(&mut x) % 28) as usize;
                (0..len)
                    .map(|_| b"abc "[(xorshift(&mut x) % 4) as usize])
                    .collect()
            })
            .collect()
    }

    fn build_docs(docs: &[Vec<u8>], first_file: u32, options: &FmOptions) -> Bytes {
        let mut b = FmBuilder::with_options(options.clone());
        for (d, doc) in docs.iter().enumerate() {
            b.add_document(
                Posting::new(first_file + d as u32 / 8, d as u32 % 8 / 3),
                doc,
            );
        }
        b.finish()
    }

    /// The lockstep walk against the serial in-memory oracle
    /// (`FmCore::locate` resolves one row at a time): same offsets in the
    /// same order, hence same postings and hit counts, for every limit,
    /// layout and store kind — and on a store no cache serves, no block is
    /// requested twice by one handle.
    #[test]
    fn lockstep_locate_equals_serial_oracle() {
        use crate::core::concat_documents;
        use crate::merge::{load_full, merge_cores, merge_fm, MergePolicy};
        use rottnest_component::ComponentCache;

        for seed in 1..=2u64 {
            for block_size in [64usize, 1 << 16] {
                for sample_rate in [1u32, 4, 32] {
                    let options = FmOptions {
                        block_size,
                        sample_rate,
                    };
                    let (docs_a, docs_b) = (random_docs(seed, 24), random_docs(seed + 100, 16));
                    let cached = MemoryStore::unmetered();
                    let bare = Uncacheable {
                        inner: MemoryStore::unmetered(),
                        ranges: Default::default(),
                    };
                    for store in [cached.as_ref() as &dyn ObjectStore, &bare] {
                        store.put("a.fm", build_docs(&docs_a, 0, &options)).unwrap();
                        store.put("b.fm", build_docs(&docs_b, 3, &options)).unwrap();
                        let a = FmIndex::open(store, "a.fm").unwrap();
                        let b = FmIndex::open(store, "b.fm").unwrap();
                        let policy = MergePolicy {
                            options: options.clone(),
                            ..Default::default()
                        };
                        merge_fm(store, &[(&a, 0), (&b, 0)], "m.fm", &policy).unwrap();
                    }

                    // Oracles: the single index rebuilt in memory from its
                    // text; the merged one (two sentinels) merged in memory.
                    let (text, _) = concat_documents(docs_a.iter().map(Vec::as_slice));
                    let plain = FmCore::build(&text, sample_rate);
                    let merged = {
                        let a = FmIndex::open(cached.as_ref(), "a.fm").unwrap();
                        let b = FmIndex::open(cached.as_ref(), "b.fm").unwrap();
                        let policy = MergePolicy::default();
                        merge_cores(&load_full(&a).unwrap(), &load_full(&b).unwrap(), &policy)
                            .unwrap()
                            .core
                    };

                    let mut x = seed ^ 0xfeed;
                    let mut patterns: Vec<Vec<u8>> = (0..5)
                        .map(|_| {
                            let doc = &docs_a[(xorshift(&mut x) % docs_a.len() as u64) as usize];
                            let len = 1 + (xorshift(&mut x) % 3) as usize;
                            let at = (xorshift(&mut x) % (doc.len() - len) as u64) as usize;
                            doc[at..at + len].to_vec()
                        })
                        .collect();
                    patterns.push(b"zzz".to_vec());

                    for (key, oracle) in [("a.fm", &plain), ("m.fm", &merged)] {
                        for pattern in &patterns {
                            let occ = oracle.count(pattern).unwrap();
                            for limit in [0, 1, occ / 2, occ, usize::MAX] {
                                let expect = oracle.locate(pattern, limit).unwrap();
                                let ctx = format!(
                                    "{key} seed {seed} bs {block_size} sr {sample_rate} \
                                     pattern {pattern:?} limit {limit}"
                                );
                                for variant in ["cacheable", "cache cleared", "store id 0"] {
                                    if variant == "cache cleared" {
                                        ComponentCache::global().clear();
                                    }
                                    bare.ranges.lock().unwrap().clear();
                                    let store: &dyn ObjectStore = match variant {
                                        "store id 0" => &bare,
                                        _ => cached.as_ref(),
                                    };
                                    let idx = FmIndex::open(store, key).unwrap();
                                    let got = idx.locate_offsets(pattern, limit).unwrap();
                                    assert_eq!(got, expect, "offsets, {variant}, {ctx}");

                                    let mut pages: Vec<(Posting, u32)> = Vec::new();
                                    for &pos in &expect {
                                        let p = idx.page_map().lookup(pos).unwrap();
                                        match pages.iter_mut().find(|(q, _)| *q == p) {
                                            Some((_, n)) => *n += 1,
                                            None => pages.push((p, 1)),
                                        }
                                    }
                                    let got = idx.locate_pages(pattern, limit).unwrap();
                                    assert_eq!(got, pages, "pages, {variant}, {ctx}");

                                    let mut asked = bare.ranges.lock().unwrap().clone();
                                    let total = asked.len();
                                    asked.sort_by_key(|(k, r)| (k.clone(), r.start));
                                    asked.dedup();
                                    assert_eq!(asked.len(), total, "a block fetched twice, {ctx}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
