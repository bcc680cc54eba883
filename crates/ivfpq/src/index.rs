//! The componentized IVF-PQ index: build, search (nprobe / refine), merge.

use bytes::Bytes;
use rottnest_component::{ComponentFile, ComponentWriter, Posting};
use rottnest_compress::{bitpack, varint};
use rottnest_object_store::{chunk_ranges, ordered_parallel_map, ObjectStore};

use crate::kmeans::{kmeans, nearest};
use crate::pq::ProductQuantizer;
use crate::{l2_sq, IvfError, Result};

/// A vector posting: page posting plus the row within the page, so exact
/// reranking can pull the full-precision vector from the data page in situ.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VecPosting {
    /// Which file/page the vector lives in.
    pub posting: Posting,
    /// Row index within the page.
    pub row: u32,
}

impl VecPosting {
    /// Convenience constructor.
    pub fn new(file: u32, page: u32, row: u32) -> Self {
        Self {
            posting: Posting::new(file, page),
            row,
        }
    }
}

/// Build-time parameters.
#[derive(Debug, Clone)]
pub struct IvfPqParams {
    /// Number of inverted lists (coarse centroids).
    pub nlist: usize,
    /// PQ subspaces (bytes per code); must divide the dimension.
    pub m: usize,
    /// K-means iterations for both quantizers.
    pub train_iters: usize,
    /// RNG seed (training is deterministic given the seed).
    pub seed: u64,
}

impl Default for IvfPqParams {
    fn default() -> Self {
        Self {
            nlist: 64,
            m: 8,
            train_iters: 8,
            seed: 42,
        }
    }
}

/// Query-time parameters — the two knobs of §V-C3 / §VII-B2.
#[derive(Debug, Clone, Copy)]
pub struct SearchParams {
    /// Results to return.
    pub k: usize,
    /// Inverted lists to probe.
    pub nprobe: usize,
    /// Candidates reranked with exact vectors fetched in situ
    /// (0 = trust ADC scores, no fetch).
    pub refine: usize,
}

/// Callback supplying exact vectors for refine candidates.
pub type FetchExact<'f> = dyn Fn(&[VecPosting]) -> Result<Vec<Vec<f32>>> + 'f;

/// Accumulates vectors and serializes the index file.
pub struct IvfPqBuilder {
    dim: usize,
    params: IvfPqParams,
    parallelism: usize,
    postings: Vec<VecPosting>,
    data: Vec<f32>,
}

impl IvfPqBuilder {
    /// Creates a builder for `dim`-dimensional vectors.
    pub fn new(dim: usize, params: IvfPqParams) -> Result<Self> {
        if dim == 0 || params.m == 0 || !dim.is_multiple_of(params.m) {
            return Err(IvfError::BadInput(format!(
                "dim {dim} not divisible into {} subspaces",
                params.m
            )));
        }
        Ok(Self {
            dim,
            params,
            parallelism: 1,
            postings: Vec::new(),
            data: Vec::new(),
        })
    }

    /// Sets the worker-thread bound for `finish`'s CPU-heavy stages (PQ
    /// codebook training, vector encoding). Training stays deterministic
    /// (per-subspace seeds), so the produced bytes are identical at every
    /// setting; only wall-clock changes.
    pub fn with_parallelism(mut self, parallelism: usize) -> Self {
        self.parallelism = parallelism.max(1);
        self
    }

    /// Adds one vector.
    pub fn add(&mut self, posting: VecPosting, vector: &[f32]) -> Result<()> {
        if vector.len() != self.dim {
            return Err(IvfError::BadInput(format!(
                "vector of dim {} in index of dim {}",
                vector.len(),
                self.dim
            )));
        }
        self.postings.push(posting);
        self.data.extend_from_slice(vector);
        Ok(())
    }

    /// Number of vectors added.
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// Whether no vectors were added.
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }

    /// Trains quantizers, assigns lists and serializes the file image.
    pub fn finish(self) -> Result<Bytes> {
        let n = self.postings.len();
        let nlist = self.params.nlist.min(n.max(1));
        let centroids = kmeans(
            &self.data,
            self.dim,
            nlist,
            self.params.train_iters,
            self.params.seed,
        );

        // Assign vectors and compute residuals for PQ training.
        let mut assignment = vec![0u32; n];
        crate::kmeans::assign(&self.data, self.dim, &centroids, &mut assignment);
        let mut residuals = vec![0.0f32; self.data.len()];
        for i in 0..n {
            let c = assignment[i] as usize;
            for (d, r) in residuals[i * self.dim..(i + 1) * self.dim]
                .iter_mut()
                .enumerate()
            {
                *r = self.data[i * self.dim + d] - centroids[c * self.dim + d];
            }
        }
        let pq = ProductQuantizer::train_with_parallelism(
            &residuals,
            self.dim,
            self.params.m,
            self.params.train_iters,
            self.params.seed ^ 0x5151,
            self.parallelism,
        )?;

        // Encode in parallel (each code depends only on its own residual),
        // then bucket per list in input order so list contents match the
        // serial loop exactly.
        let ranges = chunk_ranges(n, self.parallelism.max(1) * 4, 256);
        let encoded = ordered_parallel_map(self.parallelism, &ranges, |_, range| {
            range
                .clone()
                .map(|i| pq.encode(&residuals[i * self.dim..(i + 1) * self.dim]))
                .collect::<Vec<_>>()
        });
        let mut lists: Vec<Vec<(VecPosting, Vec<u8>)>> = vec![Vec::new(); nlist];
        for (i, code) in encoded.into_iter().flatten().enumerate() {
            lists[assignment[i] as usize].push((self.postings[i], code));
        }

        Ok(write_file(self.dim, n, &centroids, &pq, &lists))
    }

    /// Serializes and uploads; returns the file size.
    pub fn finish_into(self, store: &dyn ObjectStore, key: &str) -> Result<u64> {
        let bytes = self.finish()?;
        let len = bytes.len() as u64;
        store.put(key, bytes)?;
        Ok(len)
    }
}

fn write_file(
    dim: usize,
    n: usize,
    centroids: &[f32],
    pq: &ProductQuantizer,
    lists: &[Vec<(VecPosting, Vec<u8>)>],
) -> Bytes {
    let mut writer = ComponentWriter::new();
    let mut root = Vec::new();
    root.push(1u8);
    varint::write_usize(&mut root, dim);
    varint::write_usize(&mut root, lists.len());
    varint::write_usize(&mut root, n);
    for &c in centroids {
        root.extend_from_slice(&c.to_le_bytes());
    }
    pq.encode_into(&mut root);
    writer.add(root);

    for list in lists {
        let mut buf = Vec::new();
        varint::write_usize(&mut buf, list.len());
        bitpack::pack(
            &mut buf,
            &list
                .iter()
                .map(|(p, _)| u64::from(p.posting.file))
                .collect::<Vec<_>>(),
        );
        bitpack::pack(
            &mut buf,
            &list
                .iter()
                .map(|(p, _)| u64::from(p.posting.page))
                .collect::<Vec<_>>(),
        );
        bitpack::pack(
            &mut buf,
            &list
                .iter()
                .map(|(p, _)| u64::from(p.row))
                .collect::<Vec<_>>(),
        );
        for (_, code) in list {
            buf.extend_from_slice(code);
        }
        writer.add(buf);
    }
    writer.finish()
}

/// Read handle over an IVF-PQ index file.
pub struct IvfPqIndex<'a> {
    file: ComponentFile<'a>,
    dim: usize,
    nlist: usize,
    n_vectors: usize,
    centroids: Vec<f32>,
    pq: ProductQuantizer,
}

impl<'a> IvfPqIndex<'a> {
    /// Opens an index written by [`IvfPqBuilder`] or [`merge_ivf`].
    pub fn open(store: &'a dyn ObjectStore, key: &str) -> Result<Self> {
        let file = ComponentFile::open(store, key)?;
        let root = file.component(0)?;
        if root.first() != Some(&1u8) {
            return Err(IvfError::Corrupt("unsupported ivfpq layout version".into()));
        }
        let mut pos = 1usize;
        let dim = varint::read_usize(&root, &mut pos)?;
        let nlist = varint::read_usize(&root, &mut pos)?;
        let n_vectors = varint::read_usize(&root, &mut pos)?;
        let floats = nlist * dim;
        let end = pos + floats * 4;
        if end > root.len() {
            return Err(IvfError::Corrupt("centroids truncated".into()));
        }
        let centroids: Vec<f32> = root[pos..end]
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        pos = end;
        let pq = ProductQuantizer::decode_from(&root, &mut pos)?;
        Ok(Self {
            file,
            dim,
            nlist,
            n_vectors,
            centroids,
            pq,
        })
    }

    /// Vector dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of inverted lists.
    pub fn nlist(&self) -> usize {
        self.nlist
    }

    /// Number of indexed vectors.
    pub fn len(&self) -> usize {
        self.n_vectors
    }

    /// Whether the index holds no vectors.
    pub fn is_empty(&self) -> bool {
        self.n_vectors == 0
    }

    fn read_list(&self, list: usize) -> Result<Vec<(VecPosting, Vec<u8>)>> {
        let buf = self.file.component(list + 1)?;
        let mut pos = 0usize;
        let n = varint::read_usize(&buf, &mut pos)?;
        let files = bitpack::unpack(&buf, &mut pos)?;
        let pages = bitpack::unpack(&buf, &mut pos)?;
        let rows = bitpack::unpack(&buf, &mut pos)?;
        if files.len() != n || pages.len() != n || rows.len() != n {
            return Err(IvfError::Corrupt("list arrays disagree".into()));
        }
        let m = self.pq.m();
        if pos + n * m > buf.len() {
            return Err(IvfError::Corrupt("list codes truncated".into()));
        }
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let code = buf[pos + i * m..pos + (i + 1) * m].to_vec();
            out.push((
                VecPosting::new(files[i] as u32, pages[i] as u32, rows[i] as u32),
                code,
            ));
        }
        Ok(out)
    }

    /// ANN search. `fetch_exact` receives refine candidates and returns
    /// their full-precision vectors (Rottnest core fetches them from the
    /// data pages in situ; tests return them from memory). Results are
    /// `(posting, squared distance)` ascending, length ≤ `k`.
    pub fn search(
        &self,
        query: &[f32],
        params: SearchParams,
        fetch_exact: &FetchExact<'_>,
    ) -> Result<Vec<(VecPosting, f32)>> {
        if query.len() != self.dim {
            return Err(IvfError::BadInput(format!(
                "query of dim {} in index of dim {}",
                query.len(),
                self.dim
            )));
        }
        if self.n_vectors == 0 || params.k == 0 {
            return Ok(Vec::new());
        }
        // Rank centroids.
        let mut order: Vec<(usize, f32)> = (0..self.nlist)
            .map(|c| {
                (
                    c,
                    l2_sq(query, &self.centroids[c * self.dim..(c + 1) * self.dim]),
                )
            })
            .collect();
        order.sort_by(|a, b| a.1.total_cmp(&b.1));
        let probed: Vec<usize> = order
            .iter()
            .take(params.nprobe.max(1))
            .map(|&(c, _)| c)
            .collect();

        // One parallel round trip for all probed lists.
        let comp_ids: Vec<usize> = probed.iter().map(|&c| c + 1).collect();
        self.file.components(&comp_ids)?;

        // ADC scan with per-list residual tables.
        let mut candidates: Vec<(VecPosting, f32)> = Vec::new();
        for &c in &probed {
            let centroid = &self.centroids[c * self.dim..(c + 1) * self.dim];
            let residual_query: Vec<f32> = query.iter().zip(centroid).map(|(q, c)| q - c).collect();
            let table = self.pq.adc_table(&residual_query);
            for (posting, code) in self.read_list(c)? {
                candidates.push((posting, self.pq.adc_distance(&table, &code)));
            }
        }
        candidates.sort_by(|a, b| a.1.total_cmp(&b.1));

        if params.refine == 0 {
            candidates.truncate(params.k);
            return Ok(candidates);
        }

        // Exact rerank of the top `refine` candidates via in-situ fetch.
        candidates.truncate(params.refine.max(params.k));
        let ids: Vec<VecPosting> = candidates.iter().map(|&(p, _)| p).collect();
        let exact = fetch_exact(&ids)?;
        if exact.len() != ids.len() {
            return Err(IvfError::BadInput(
                "fetch_exact returned wrong count".into(),
            ));
        }
        let mut reranked: Vec<(VecPosting, f32)> = ids
            .into_iter()
            .zip(exact)
            .map(|(p, v)| (p, l2_sq(query, &v)))
            .collect();
        reranked.sort_by(|a, b| a.1.total_cmp(&b.1));
        reranked.truncate(params.k);
        Ok(reranked)
    }

    /// Materializes all entries as (posting, approximate vector) pairs —
    /// feeds merges.
    pub fn reconstruct_all(&self) -> Result<Vec<(VecPosting, Vec<f32>)>> {
        let ids: Vec<usize> = (1..=self.nlist).collect();
        self.file.components(&ids)?;
        let mut out = Vec::with_capacity(self.n_vectors);
        for c in 0..self.nlist {
            let centroid = &self.centroids[c * self.dim..(c + 1) * self.dim];
            for (posting, code) in self.read_list(c)? {
                let mut v = self.pq.decode(&code);
                for (x, c) in v.iter_mut().zip(centroid) {
                    *x += c;
                }
                out.push((posting, v));
            }
        }
        Ok(out)
    }
}

/// Merges IVF-PQ indexes (§IV-C): the largest source's quantizers become
/// the target; other sources' vectors are reconstructed from their codes and
/// re-encoded under the target. `sources` pair each index with a file-id
/// offset applied to its postings.
pub fn merge_ivf(
    store: &dyn ObjectStore,
    sources: &[(&IvfPqIndex<'_>, u32)],
    out_key: &str,
) -> Result<u64> {
    let (&(target, _), _) = sources
        .split_first()
        .ok_or_else(|| IvfError::BadInput("nothing to merge".into()))?;
    let target = sources
        .iter()
        .map(|&(s, _)| s)
        .max_by_key(|s| s.len())
        .unwrap_or(target);
    let dim = target.dim;
    for (s, _) in sources {
        if s.dim != dim {
            return Err(IvfError::BadInput(
                "merging indexes of different dims".into(),
            ));
        }
    }

    let mut lists: Vec<Vec<(VecPosting, Vec<u8>)>> = vec![Vec::new(); target.nlist];
    let mut total = 0usize;
    for &(src, offset) in sources {
        for (posting, vector) in src.reconstruct_all()? {
            let remapped = VecPosting::new(
                posting.posting.file + offset,
                posting.posting.page,
                posting.row,
            );
            let (c, _) = nearest(&vector, &target.centroids, dim);
            let centroid = &target.centroids[c as usize * dim..(c as usize + 1) * dim];
            let residual: Vec<f32> = vector.iter().zip(centroid).map(|(v, c)| v - c).collect();
            lists[c as usize].push((remapped, target.pq.encode(&residual)));
            total += 1;
        }
    }
    let bytes = write_file(dim, total, &target.centroids, &target.pq, &lists);
    let len = bytes.len() as u64;
    store.put(out_key, bytes)?;
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::{flat_search, recall_at_k};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rottnest_object_store::MemoryStore;

    const DIM: usize = 16;

    /// Gaussian-mixture vectors (SIFT stand-in).
    fn dataset(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f32>> = (0..8)
            .map(|_| (0..DIM).map(|_| rng.gen_range(-4.0..4.0)).collect())
            .collect();
        let mut data = Vec::with_capacity(n * DIM);
        for _ in 0..n {
            let c = &centers[rng.gen_range(0..centers.len())];
            for &cd in c.iter() {
                data.push(cd + rng.gen_range(-0.7..0.7f32));
            }
        }
        data
    }

    fn build(store: &dyn ObjectStore, key: &str, data: &[f32], file_id: u32) {
        let mut b = IvfPqBuilder::new(
            DIM,
            IvfPqParams {
                nlist: 32,
                m: 4,
                train_iters: 6,
                seed: 11,
            },
        )
        .unwrap();
        let n = data.len() / DIM;
        for i in 0..n {
            b.add(
                VecPosting::new(file_id, (i / 100) as u32, (i % 100) as u32),
                &data[i * DIM..(i + 1) * DIM],
            )
            .unwrap();
        }
        b.finish_into(store, key).unwrap();
    }

    fn exact_fetcher(data: &[f32]) -> impl Fn(&[VecPosting]) -> Result<Vec<Vec<f32>>> + '_ {
        move |ids| {
            Ok(ids
                .iter()
                .map(|p| {
                    let i = p.posting.page as usize * 100 + p.row as usize;
                    data[i * DIM..(i + 1) * DIM].to_vec()
                })
                .collect())
        }
    }

    fn truth_ids(data: &[f32], query: &[f32], k: usize) -> Vec<VecPosting> {
        flat_search(data, DIM, query, k)
            .into_iter()
            .map(|(i, _)| VecPosting::new(0, (i / 100) as u32, (i % 100) as u32))
            .collect()
    }

    #[test]
    fn recall_improves_with_nprobe_and_refine() {
        let store = MemoryStore::unmetered();
        let data = dataset(4000, 1);
        build(store.as_ref(), "v.idx", &data, 0);
        let idx = IvfPqIndex::open(store.as_ref(), "v.idx").unwrap();
        assert_eq!(idx.len(), 4000);

        let fetch = exact_fetcher(&data);
        let mut rng = StdRng::seed_from_u64(2);
        let mut recall_low = 0.0;
        let mut recall_high = 0.0;
        let queries = 20;
        for _ in 0..queries {
            let qi = rng.gen_range(0..4000usize);
            let query = &data[qi * DIM..(qi + 1) * DIM];
            let truth = truth_ids(&data, query, 10);

            let low = idx
                .search(
                    query,
                    SearchParams {
                        k: 10,
                        nprobe: 1,
                        refine: 0,
                    },
                    &fetch,
                )
                .unwrap();
            let high = idx
                .search(
                    query,
                    SearchParams {
                        k: 10,
                        nprobe: 16,
                        refine: 100,
                    },
                    &fetch,
                )
                .unwrap();
            let low_ids: Vec<VecPosting> = low.iter().map(|&(p, _)| p).collect();
            let high_ids: Vec<VecPosting> = high.iter().map(|&(p, _)| p).collect();
            recall_low += recall_at_k(&low_ids, &truth);
            recall_high += recall_at_k(&high_ids, &truth);
        }
        recall_low /= queries as f64;
        recall_high /= queries as f64;
        assert!(
            recall_high > recall_low,
            "high {recall_high} vs low {recall_low}"
        );
        assert!(recall_high > 0.9, "high-effort recall {recall_high}");
    }

    #[test]
    fn refined_distances_are_exact() {
        let store = MemoryStore::unmetered();
        let data = dataset(1000, 3);
        build(store.as_ref(), "v.idx", &data, 0);
        let idx = IvfPqIndex::open(store.as_ref(), "v.idx").unwrap();
        let fetch = exact_fetcher(&data);

        let query = &data[123 * DIM..124 * DIM];
        let hits = idx
            .search(
                query,
                SearchParams {
                    k: 1,
                    nprobe: 8,
                    refine: 50,
                },
                &fetch,
            )
            .unwrap();
        // The query IS a database vector; exact rerank must find distance 0.
        assert_eq!(hits[0].1, 0.0);
        assert_eq!(hits[0].0, VecPosting::new(0, 1, 23));
    }

    #[test]
    fn probe_cost_is_two_round_trips() {
        let store = MemoryStore::unmetered();
        let data = dataset(3000, 4);
        build(store.as_ref(), "v.idx", &data, 0);

        let before = store.stats();
        let idx = IvfPqIndex::open(store.as_ref(), "v.idx").unwrap();
        let open_gets = store.stats().since(&before).gets;
        assert!(open_gets <= 2, "open took {open_gets} GETs");

        let fetch = exact_fetcher(&data);
        let before = store.stats();
        idx.search(
            &data[0..DIM],
            SearchParams {
                k: 5,
                nprobe: 8,
                refine: 0,
            },
            &fetch,
        )
        .unwrap();
        let delta = store.stats().since(&before);
        assert!(
            delta.gets <= 8,
            "probe took {} GETs for 8 lists",
            delta.gets
        );
    }

    #[test]
    fn merge_preserves_search_quality() {
        let store = MemoryStore::unmetered();
        let data_a = dataset(1500, 5);
        let data_b = dataset(1500, 6);
        build(store.as_ref(), "a.idx", &data_a, 0);
        build(store.as_ref(), "b.idx", &data_b, 0);
        let ia = IvfPqIndex::open(store.as_ref(), "a.idx").unwrap();
        let ib = IvfPqIndex::open(store.as_ref(), "b.idx").unwrap();
        merge_ivf(store.as_ref(), &[(&ia, 0), (&ib, 1)], "m.idx").unwrap();

        let merged = IvfPqIndex::open(store.as_ref(), "m.idx").unwrap();
        assert_eq!(merged.len(), 3000);

        // Search for a vector from B; its remapped posting must surface.
        let all: Vec<f32> = data_a.iter().chain(&data_b).copied().collect();
        let fetch = |ids: &[VecPosting]| -> Result<Vec<Vec<f32>>> {
            Ok(ids
                .iter()
                .map(|p| {
                    let i = p.posting.page as usize * 100
                        + p.row as usize
                        + p.posting.file as usize * 1500;
                    all[i * DIM..(i + 1) * DIM].to_vec()
                })
                .collect())
        };
        let query = &data_b[700 * DIM..701 * DIM];
        let hits = merged
            .search(
                query,
                SearchParams {
                    k: 1,
                    nprobe: 16,
                    refine: 80,
                },
                &fetch,
            )
            .unwrap();
        assert_eq!(hits[0].0, VecPosting::new(1, 7, 0));
        assert_eq!(hits[0].1, 0.0);
    }

    #[test]
    fn dimension_mismatches_rejected() {
        let store = MemoryStore::unmetered();
        let data = dataset(500, 7);
        build(store.as_ref(), "v.idx", &data, 0);
        let idx = IvfPqIndex::open(store.as_ref(), "v.idx").unwrap();
        let fetch = exact_fetcher(&data);
        assert!(idx
            .search(
                &[0.0; 3],
                SearchParams {
                    k: 1,
                    nprobe: 1,
                    refine: 0
                },
                &fetch
            )
            .is_err());
        let mut b = IvfPqBuilder::new(DIM, IvfPqParams::default()).unwrap();
        assert!(b.add(VecPosting::new(0, 0, 0), &[0.0; 3]).is_err());
        assert!(IvfPqBuilder::new(
            10,
            IvfPqParams {
                m: 3,
                ..Default::default()
            }
        )
        .is_err());
    }

    #[test]
    fn nan_query_returns_without_panicking() {
        // Every distance to a NaN query is NaN: the three sorts must still
        // produce an order (any order) rather than unwrap a `None`.
        let store = MemoryStore::unmetered();
        let data = dataset(500, 8);
        build(store.as_ref(), "v.idx", &data, 0);
        let idx = IvfPqIndex::open(store.as_ref(), "v.idx").unwrap();
        let fetch = exact_fetcher(&data);
        let mut query = data[0..DIM].to_vec();
        query[3] = f32::NAN;
        for refine in [0, 20] {
            let params = SearchParams {
                k: 5,
                nprobe: 4,
                refine,
            };
            assert_eq!(idx.search(&query, params, &fetch).unwrap().len(), 5);
        }
        assert_eq!(flat_search(&data, DIM, &query, 5).len(), 5);
    }

    #[test]
    fn empty_index_searches_cleanly() {
        let store = MemoryStore::unmetered();
        let b = IvfPqBuilder::new(
            DIM,
            IvfPqParams {
                nlist: 4,
                m: 4,
                ..Default::default()
            },
        )
        .unwrap();
        b.finish_into(store.as_ref(), "e.idx").unwrap();
        let idx = IvfPqIndex::open(store.as_ref(), "e.idx").unwrap();
        let fetch = |_: &[VecPosting]| -> Result<Vec<Vec<f32>>> { Ok(Vec::new()) };
        let hits = idx
            .search(
                &[0.0; DIM],
                SearchParams {
                    k: 5,
                    nprobe: 2,
                    refine: 10,
                },
                &fetch,
            )
            .unwrap();
        assert!(hits.is_empty());
    }
}
