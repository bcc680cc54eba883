//! Ground truth kept beside the program: every answer a workload gets back
//! is checked against the generator's retained rows.

use std::collections::HashMap;

use rottnest::{Match, SearchOutcome};
use rottnest_ivfpq::{flat::flat_search, l2_sq};

use crate::config::*;
use crate::dataset::FileData;

/// Verdict on one answer. `recall` is `None` when the oracle expects no
/// rows (an absent key or pattern), so there is nothing to recall.
pub struct Check {
    pub ok: bool,
    pub recall: Option<f64>,
}

impl Check {
    fn bad() -> Self {
        Self {
            ok: false,
            recall: None,
        }
    }
}

/// Counts, per pattern, the documents that contain it, in one pass over
/// the text: a 4-byte-prefix filter in front of `starts_with`.
#[derive(Clone)]
pub struct PatternSet {
    patterns: Vec<String>,
    counts: Vec<u32>,
    /// One bit per 16-bit hash of a pattern's first four bytes.
    filter: Vec<u64>,
    by_prefix: HashMap<[u8; 4], Vec<u32>>,
}

fn prefix_hash(p: [u8; 4]) -> usize {
    (u32::from_le_bytes(p).wrapping_mul(0x9E37_79B1) >> 16) as usize
}

impl PatternSet {
    /// Every pattern must be at least four bytes long.
    pub fn new(patterns: Vec<String>) -> Self {
        let mut filter = vec![0u64; 1 << 10];
        let mut by_prefix: HashMap<[u8; 4], Vec<u32>> = HashMap::new();
        for (i, p) in patterns.iter().enumerate() {
            let prefix: [u8; 4] = p.as_bytes()[..4].try_into().expect("pattern of >= 4 bytes");
            let h = prefix_hash(prefix);
            filter[h / 64] |= 1 << (h % 64);
            by_prefix.entry(prefix).or_default().push(i as u32);
        }
        Self {
            counts: vec![0; patterns.len()],
            patterns,
            filter,
            by_prefix,
        }
    }

    pub fn pattern(&self, i: usize) -> &str {
        &self.patterns[i]
    }

    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Index of `pattern` in the set.
    pub fn position(&self, pattern: &str) -> Option<usize> {
        self.patterns.iter().position(|p| p == pattern)
    }

    /// Documents seen so far that contain pattern `i`.
    pub fn count(&self, i: usize) -> u32 {
        self.counts[i]
    }

    pub fn add_docs(&mut self, docs: &[String]) {
        let mut hit: Vec<u32> = Vec::new();
        for doc in docs {
            let b = doc.as_bytes();
            hit.clear();
            for i in 0..b.len().saturating_sub(3) {
                let prefix: [u8; 4] = b[i..i + 4].try_into().expect("four bytes");
                let h = prefix_hash(prefix);
                if self.filter[h / 64] & (1 << (h % 64)) == 0 {
                    continue;
                }
                let Some(candidates) = self.by_prefix.get(&prefix) else {
                    continue;
                };
                for &p in candidates {
                    if b[i..].starts_with(self.patterns[p as usize].as_bytes()) && !hit.contains(&p)
                    {
                        hit.push(p);
                    }
                }
            }
            for &p in &hit {
                self.counts[p as usize] += 1;
            }
        }
    }
}

/// The rows the lake holds, by file, as the generator made them.
#[derive(Default)]
pub struct Oracle {
    files: Vec<FileData>,
    paths: Vec<String>,
    path_idx: HashMap<String, u32>,
    keys: HashMap<Vec<u8>, (u32, u32)>,
    /// Every vector, file after file, and the global row each file starts at.
    flat: Vec<f32>,
    first_row: Vec<usize>,
}

impl Oracle {
    /// Registers a file under the data path `Table::append` returned.
    pub fn add_file(&mut self, path: String, file: FileData) {
        let idx = self.files.len() as u32;
        for (row, key) in file.keys.iter().enumerate() {
            self.keys.insert(key.clone(), (idx, row as u32));
        }
        self.first_row.push(self.flat.len() / DIM);
        for v in &file.vectors {
            self.flat.extend_from_slice(v);
        }
        self.path_idx.insert(path.clone(), idx);
        self.paths.push(path);
        self.files.push(file);
    }

    pub fn files(&self) -> &[FileData] {
        &self.files
    }

    /// Re-registers the files under the paths of another build of the same
    /// rows (every build names its data files afresh).
    pub fn set_paths(&mut self, paths: Vec<String>) {
        assert_eq!(paths.len(), self.files.len(), "one path per file");
        self.path_idx = paths
            .iter()
            .enumerate()
            .map(|(i, p)| (p.clone(), i as u32))
            .collect();
        self.paths = paths;
    }

    /// Forgets every file after the first `keep`, handing them back.
    pub fn truncate(&mut self, keep: usize) -> Vec<FileData> {
        let dropped: Vec<FileData> = self.files.drain(keep..).collect();
        for file in &dropped {
            for key in &file.keys {
                self.keys.remove(key);
            }
        }
        for path in self.paths.drain(keep..) {
            self.path_idx.remove(&path);
        }
        if let Some(&first) = self.first_row.get(keep) {
            self.flat.truncate(first * DIM);
        }
        self.first_row.truncate(keep);
        dropped
    }

    fn locate(&self, m: &Match) -> Option<(usize, usize)> {
        let file = *self.path_idx.get(&m.path)? as usize;
        let row = m.row as usize;
        (row < self.files[file].rows()).then_some((file, row))
    }

    /// A present key must come back as exactly its (file, row); an absent
    /// key as nothing.
    pub fn check_uuid(&self, key: &[u8], out: &SearchOutcome) -> Check {
        match self.keys.get(key) {
            None => Check {
                ok: out.matches.is_empty(),
                recall: None,
            },
            Some(&(file, row)) => {
                let ok = out.matches.len() == 1
                    && self.locate(&out.matches[0]) == Some((file as usize, row as usize));
                Check {
                    ok,
                    recall: Some(if ok { 1.0 } else { 0.0 }),
                }
            }
        }
    }

    /// Every returned row contains the pattern, no row twice, and
    /// `min(k, truth)` rows come back — so none is missing when truth <= k.
    pub fn check_substring(&self, pattern: &str, truth: u32, out: &SearchOutcome) -> Check {
        let mut seen: Vec<(usize, usize)> = Vec::with_capacity(out.matches.len());
        for m in &out.matches {
            let Some(loc) = self.locate(m) else {
                return Check::bad();
            };
            if !self.files[loc.0].docs[loc.1].contains(pattern) || seen.contains(&loc) {
                return Check::bad();
            }
            seen.push(loc);
        }
        let want = (truth as usize).min(SUBSTR_K);
        Check {
            ok: seen.len() == want,
            recall: (want > 0).then(|| seen.len() as f64 / want as f64),
        }
    }

    /// Global rows of the exact top-k for `query`.
    pub fn vector_truth(&self, query: &[f32]) -> Vec<u32> {
        flat_search(&self.flat, DIM, query, VECTOR_PARAMS.k)
            .into_iter()
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Rows exist, scores are the true squared distances in ascending
    /// order, k rows come back; recall is measured against `truth`.
    pub fn check_vector(&self, query: &[f32], truth: &[u32], out: &SearchOutcome) -> Check {
        let mut found = 0usize;
        let mut last = f32::NEG_INFINITY;
        for m in &out.matches {
            let (Some((file, row)), Some(score)) = (self.locate(m), m.score) else {
                return Check::bad();
            };
            let exact = l2_sq(query, &self.files[file].vectors[row]);
            if (score - exact).abs() > 1e-3 * exact.max(1.0) || score < last {
                return Check::bad();
            }
            last = score;
            let global = (self.first_row[file] + row) as u32;
            found += usize::from(truth.contains(&global));
        }
        Check {
            ok: out.matches.len() == truth.len(),
            recall: Some(found as f64 / truth.len() as f64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncate_forgets_exactly_the_later_files() {
        let file = |tag: u8| FileData {
            keys: vec![vec![tag; KEY_LEN], vec![tag + 100; KEY_LEN]],
            docs: vec!["a".into(), "b".into()],
            vectors: vec![vec![tag as f32; DIM], vec![0.0; DIM]],
        };
        let mut o = Oracle::default();
        o.add_file("p0".into(), file(1));
        o.add_file("p1".into(), file(2));
        o.add_file("p2".into(), file(3));
        let dropped = o.truncate(1);
        assert_eq!(dropped.len(), 2);
        assert_eq!(o.files().len(), 1);
        assert_eq!(o.vector_truth(&[1.0; DIM])[0], 0);
        assert_eq!(o.flat.len(), 2 * DIM);
        assert!(o.keys.contains_key(&vec![1u8; KEY_LEN]));
        assert!(!o.keys.contains_key(&vec![2u8; KEY_LEN]));
        o.add_file("p1b".into(), file(2));
        assert_eq!(o.first_row, vec![0, 2]);
        o.set_paths(vec!["x0".into(), "x1".into()]);
        assert!(o.path_idx.contains_key("x1") && !o.path_idx.contains_key("p1b"));
    }

    #[test]
    fn pattern_set_counts_documents_not_occurrences() {
        let mut set = PatternSet::new(vec!["abcd".into(), "bcde".into(), "zzzz".into()]);
        set.add_docs(&[
            "xx abcde abcd".to_string(),
            "abc".to_string(),
            "bcdef".to_string(),
        ]);
        assert_eq!(
            set.count(0),
            1,
            "two occurrences in one document count once"
        );
        assert_eq!(set.count(1), 2);
        assert_eq!(set.count(2), 0);
    }
}
