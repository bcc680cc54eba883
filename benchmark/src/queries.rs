//! Seeded query pools and lists over a dataset, and the dispatch from a
//! pooled query to the program's `Query` and to its oracle check.

use std::collections::HashMap;

use rand::distributions::Distribution;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rottnest::{Query, SearchOutcome};
use rottnest_workloads::text::ZipfSampler;

use crate::config::*;
use crate::dataset::{needle, Generator};
use crate::oracle::{Check, Oracle, PatternSet};

pub const UUID: usize = 0;
pub const SUBSTR: usize = 1;
pub const VECTOR: usize = 2;

/// One pooled query: a key, or an index into the pattern / vector pool.
#[derive(Clone)]
pub enum Q {
    Uuid(Vec<u8>),
    Substr(usize),
    Vector(usize),
}

impl Q {
    pub fn kind(&self) -> usize {
        match self {
            Q::Uuid(_) => UUID,
            Q::Substr(_) => SUBSTR,
            Q::Vector(_) => VECTOR,
        }
    }
}

/// Substring patterns and vector queries with their truth.
#[derive(Clone)]
pub struct Pools {
    pub patterns: PatternSet,
    pub vectors: Vec<Vec<f32>>,
    pub vector_truth: Vec<Vec<u32>>,
}

impl Pools {
    /// The column and `Query` for a pooled query.
    pub fn query<'q>(&'q self, q: &'q Q) -> (&'static str, Query<'q>) {
        match q {
            Q::Uuid(key) => (UUID_COL, Query::UuidEq { key, k: UUID_K }),
            Q::Substr(i) => (
                TEXT_COL,
                Query::Substring {
                    pattern: self.patterns.pattern(*i).as_bytes(),
                    k: SUBSTR_K,
                },
            ),
            Q::Vector(i) => (
                VEC_COL,
                Query::VectorNn {
                    query: &self.vectors[*i],
                    params: VECTOR_PARAMS,
                },
            ),
        }
    }

    pub fn check(&self, oracle: &Oracle, q: &Q, out: &SearchOutcome) -> Check {
        match q {
            Q::Uuid(key) => oracle.check_uuid(key, out),
            Q::Substr(i) => {
                oracle.check_substring(self.patterns.pattern(*i), self.patterns.count(*i), out)
            }
            Q::Vector(i) => oracle.check_vector(&self.vectors[*i], &self.vector_truth[*i], out),
        }
    }
}

/// Deterministic Fisher-Yates.
pub fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// `n` indices into a pool of `pool` items, Zipf(1.0) by pool position.
pub fn zipf_draws(pool: usize, n: usize, rng: &mut StdRng) -> Vec<usize> {
    let zipf = ZipfSampler::new(pool, 1.0);
    (0..n).map(|_| zipf.sample(rng)).collect()
}

/// `present` keys drawn from the oracle's rows with an absent key after
/// every tenth, so the share of Zipf draws that find nothing is the same on
/// every seed (a shuffled pool would put an absent key at rank 1 on some
/// seeds and make a ninth of their queries cheap).
pub fn key_pool(
    oracle: &Oracle,
    gen: &Generator,
    present: usize,
    rng: &mut StdRng,
) -> Vec<Vec<u8>> {
    let files = oracle.files();
    let mut pool: Vec<Vec<u8>> = Vec::with_capacity(present + present / 10);
    for i in 0..present {
        let f = &files[rng.gen_range(0..files.len())];
        pool.push(f.keys[rng.gen_range(0..f.rows())].clone());
        if i % 10 == 9 {
            pool.push(gen.missing_key((i / 10) as u64));
        }
    }
    pool
}

/// A substring of file `file`'s needle that still names the file, so it
/// occurs in exactly one document.
pub fn needle_variant(file: usize, rng: &mut StdRng) -> String {
    let n = needle(file);
    // "NEEDLE-0003-XYZZY": bytes 6..12 are "-0003-".
    let start = rng.gen_range(0..=6usize);
    let end = rng.gen_range(12..=n.len());
    n[start..end].to_string()
}

/// Words of the corpus by document-independent frequency, most frequent
/// first (ties by word, so the order is a function of the text alone).
fn words_by_frequency(oracle: &Oracle) -> Vec<(String, u32)> {
    let mut freq: HashMap<&str, u32> = HashMap::new();
    for file in oracle.files() {
        for doc in &file.docs {
            for word in doc.split(' ') {
                *freq.entry(word).or_default() += 1;
            }
        }
    }
    let mut words: Vec<(String, u32)> = freq
        .into_iter()
        .filter(|(w, _)| w.len() >= 4 && !w.starts_with("NEEDLE"))
        .map(|(w, c)| (w.to_string(), c))
        .collect();
    words.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    words
}

/// Position `j` of a low-discrepancy walk over `0..len`: any prefix of the
/// walk covers the range evenly.
fn spread(j: usize, len: usize, offset: f64) -> usize {
    let golden = 0.618_033_988_749_895_f64;
    (((j as f64 * golden + offset).fract()) * len as f64) as usize
}

/// `n` patterns in classes: a third needle variants (one document each), a
/// third mid-frequency words (frequency ranks 1%..10%), the rest rare words
/// (the last quarter of ranks), with every 20th pattern absent. Classes
/// take turns and words walk their band evenly, so every prefix of the pool
/// costs about the same on every seed. `extra` patterns are appended after
/// them (truth counted the same way).
pub fn pattern_pool(oracle: &Oracle, n: usize, extra: Vec<String>, rng: &mut StdRng) -> PatternSet {
    let words = words_by_frequency(oracle);
    let (lo, hi) = (words.len() / 100, words.len() / 10);
    let tail = words.len() * 3 / 4;
    let (mid_at, rare_at): (f64, f64) = (rng.gen(), rng.gen());
    let mut patterns: Vec<String> = Vec::with_capacity(n + extra.len());
    let mut used: std::collections::HashSet<String> = Default::default();
    for i in 0..n {
        let mut j = i / 3;
        let pattern = loop {
            let candidate = if i % 20 == 19 {
                format!("qzjxv{i:03}kw")
            } else {
                match i % 3 {
                    0 => needle_variant(j % oracle.files().len(), rng),
                    1 => words[lo + spread(j, hi - lo, mid_at)].0.clone(),
                    _ => words[tail + spread(j, words.len() - tail, rare_at)]
                        .0
                        .clone(),
                }
            };
            if used.insert(candidate.clone()) {
                break candidate;
            }
            j += n;
        };
        patterns.push(pattern);
    }
    patterns.extend(extra);
    let mut set = PatternSet::new(patterns);
    for file in oracle.files() {
        set.add_docs(&file.docs);
    }
    set
}

/// `n` generated query vectors with their exact top-k.
pub fn vector_pool(
    oracle: &Oracle,
    gen: &mut Generator,
    n: usize,
) -> (Vec<Vec<f32>>, Vec<Vec<u32>>) {
    let vectors: Vec<Vec<f32>> = (0..n).map(|_| gen.query_vector()).collect();
    let truth = vectors.iter().map(|v| oracle.vector_truth(v)).collect();
    (vectors, truth)
}

/// The sampler's stream: one generator per (seed, purpose).
pub fn sampler(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ purpose)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_draws_repeat_per_seed_and_favour_low_ranks() {
        let a = zipf_draws(1000, 5000, &mut sampler(7, 1));
        let b = zipf_draws(1000, 5000, &mut sampler(7, 1));
        let c = zipf_draws(1000, 5000, &mut sampler(8, 1));
        assert_eq!(a, b, "same seed, same draws");
        assert_ne!(a, c, "another seed, other draws");
        let low = a.iter().filter(|&&i| i < 10).count();
        let high = a.iter().filter(|&&i| i >= 990).count();
        assert!(low > 20 * high.max(1), "low {low} high {high}");
    }

    #[test]
    fn needle_variants_name_their_file() {
        let mut rng = sampler(3, 2);
        for file in 0..50 {
            let v = needle_variant(file, &mut rng);
            assert!(v.contains(&format!("-{file:04}-")), "{v}");
            assert!(needle(file).contains(&v));
            assert!(v.len() >= 6);
        }
    }
}
