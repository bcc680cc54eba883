//! Exact brute-force search and recall metrics.
//!
//! Used three ways: ground truth for recall targets (§VII-B2), the
//! brute-force baseline's per-chunk scan kernel, and exact reranking of
//! refined candidates.

use crate::l2_sq;

/// Exact top-`k` nearest rows of `data` (`n × dim`) to `query`, as
/// `(row, squared distance)` sorted ascending by distance.
pub fn flat_search(data: &[f32], dim: usize, query: &[f32], k: usize) -> Vec<(usize, f32)> {
    assert_eq!(query.len(), dim);
    let n = data.len() / dim;
    let mut heap: Vec<(usize, f32)> = Vec::with_capacity(k + 1);
    for i in 0..n {
        let d = l2_sq(query, &data[i * dim..(i + 1) * dim]);
        if heap.len() < k {
            heap.push((i, d));
            heap.sort_by(|a, b| a.1.total_cmp(&b.1));
        } else if let Some(last) = heap.last() {
            if d < last.1 {
                heap.pop();
                let at = heap.partition_point(|e| e.1 <= d);
                heap.insert(at, (i, d));
            }
        }
    }
    heap
}

/// Fraction of `truth`'s ids found in `found` (recall@k with `k =
/// truth.len()`).
pub fn recall_at_k<T: PartialEq>(found: &[T], truth: &[T]) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    let hits = truth.iter().filter(|t| found.contains(t)).count();
    hits as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_exact_neighbors_sorted() {
        // Points on a line: query at 0 → nearest are 0, 1, 2.
        let data: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let hits = flat_search(&data, 1, &[0.2], 3);
        let ids: Vec<usize> = hits.iter().map(|h| h.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert!(hits[0].1 <= hits[1].1 && hits[1].1 <= hits[2].1);
    }

    #[test]
    fn k_larger_than_n() {
        let data = vec![0.0f32, 1.0, 2.0];
        let hits = flat_search(&data, 1, &[5.0], 10);
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].0, 2);
    }

    #[test]
    fn recall_math() {
        assert_eq!(recall_at_k(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(recall_at_k(&[1, 9, 8], &[1, 2, 3]), 1.0 / 3.0);
        assert_eq!(recall_at_k::<u32>(&[], &[]), 1.0);
        assert_eq!(recall_at_k(&[7], &[1, 2]), 0.0);
    }
}
