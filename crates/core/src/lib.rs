//! Rottnest: bolt-on search indexing for data lakes (§III–§IV of the paper).
//!
//! Rottnest maintains lightweight index files *next to* an existing data
//! lake, on the same object store, with a **consistent-on-demand** protocol:
//! indexing, searching, compaction and garbage collection all run
//! independently of the lake's own operations and of each other, requiring
//! nothing from the store beyond read-after-write consistency and
//! conditional PUT.
//!
//! The four client APIs mirror §IV:
//!
//! * [`Rottnest::index`] — plan (diff snapshot against the metadata table)
//!   → build an index file over the new Parquet files → upload → commit;
//! * [`Rottnest::search`] — plan (map snapshot files to covering index
//!   files) → query indexes in parallel (filtering postings not in the
//!   snapshot) → **in-situ probe** of data pages (applying deletion
//!   vectors) → brute-force scan of uncovered files when needed;
//! * [`Rottnest::compact`] — bin-pack small index files and merge them
//!   (trie merge / BWT interleave merge / IVF-PQ re-encoding);
//! * [`Rottnest::vacuum`] — greedy-cover selection of index files, metadata
//!   commit, then physical deletion of unreferenced index objects **older
//!   than the index timeout** (against the store's clock).
//!
//! Two invariants guarantee correctness (§IV-D), and [`invariants`] provides
//! executable checkers for both:
//!
//! * **Existence** — indexed files referenced in the metadata table are
//!   present in the bucket;
//! * **Consistency** — an index file correctly indexes its associated
//!   Parquet files if they still exist.
//!
//! The protocol is kind-agnostic and laid out one module per step —
//! `rottnest` (client and search entry), `plan` (metadata scan, greedy
//! cover, probe pass), `exact` and `vector` (one pipeline per query class),
//! `hedge`, [`probe`] (in-situ reads), `maintain` (index / compact /
//! vacuum) and [`build`]. What differs per index kind (§V) lives behind one
//! trait in `family`, one file per kind.
//!
//! # Example
//!
//! ```
//! use rottnest::{IndexKind, Query, Rottnest, RottnestConfig};
//! use rottnest_format::{ColumnData, DataType, Field, RecordBatch, Schema};
//! use rottnest_lake::{Table, TableConfig};
//! use rottnest_object_store::MemoryStore;
//!
//! let store = MemoryStore::unmetered();
//! let schema = Schema::new(vec![Field::new("body", DataType::Utf8)]);
//! let table = Table::create(store.as_ref(), "logs", &schema, TableConfig::default())?;
//! let docs = ColumnData::from_strings(["error: connection reset", "ok"]);
//! table.append(&RecordBatch::new(schema, vec![docs])?)?;
//!
//! let rot = Rottnest::new(store.as_ref(), "logs-idx", RottnestConfig::default());
//! rot.index(&table, IndexKind::Substring, "body")?;
//!
//! let snap = table.snapshot()?;
//! let out = rot.search(&table, &snap, "body",
//!     &Query::Substring { pattern: b"connection reset", k: 10 })?;
//! assert_eq!(out.matches.len(), 1);
//! assert_eq!(out.matches[0].row, 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod build;
mod exact;
mod family;
mod hedge;
pub mod invariants;
mod maintain;
pub mod meta;
mod plan;
pub mod probe;
pub mod query;
pub mod rottnest;
mod vector;

pub use meta::{IndexEntry, IndexKind, MetaTable};
pub use query::{Match, Query, SearchOutcome, SearchStats};
pub use rottnest::{Rottnest, RottnestConfig, SearchConfig};

/// Errors raised by the Rottnest protocol layer.
#[derive(Debug)]
pub enum RottnestError {
    /// The index build was aborted (timeout, vanished input file, or too
    /// few rows per §IV-A footnote 2) and should be retried.
    Aborted(String),
    /// Malformed metadata or index bytes.
    Corrupt(String),
    /// The query is invalid for the target index (wrong type, bad pattern).
    BadQuery(String),
    /// Lake-layer failure.
    Lake(rottnest_lake::LakeError),
    /// Format-layer failure.
    Format(rottnest_format::FormatError),
    /// Store-layer failure.
    Store(rottnest_object_store::StoreError),
    /// Trie index failure.
    Trie(rottnest_trie::TrieError),
    /// Bloom index failure.
    Bloom(rottnest_bloom::BloomError),
    /// FM index failure.
    Fm(rottnest_fm::FmError),
    /// Vector index failure.
    Ivf(rottnest_ivfpq::IvfError),
    /// The query's deadline passed before the search finished. Raised
    /// cooperatively between index probes / brute-scanned files, so no
    /// partial results leak and no cache is left poisoned.
    DeadlineExceeded {
        /// Absolute deadline on the store clock (ms).
        deadline_ms: u64,
        /// Store-clock time at which the deadline was observed (ms).
        now_ms: u64,
    },
    /// The serving layer refused the query without running it: the queue
    /// was full, the tenant exceeded its budget, or the deadline could not
    /// be met even if admitted. Always raised *before* any store traffic.
    Overloaded {
        /// Which admission check rejected the query.
        reason: String,
        /// Client hint: earliest time a retry could be admitted (ms).
        retry_after_ms: u64,
    },
}

impl std::fmt::Display for RottnestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RottnestError::Aborted(m) => write!(f, "index operation aborted: {m}"),
            RottnestError::Corrupt(m) => write!(f, "corrupt rottnest metadata: {m}"),
            RottnestError::BadQuery(m) => write!(f, "bad query: {m}"),
            RottnestError::Lake(e) => write!(f, "lake: {e}"),
            RottnestError::Format(e) => write!(f, "format: {e}"),
            RottnestError::Store(e) => write!(f, "store: {e}"),
            RottnestError::Trie(e) => write!(f, "trie: {e}"),
            RottnestError::Bloom(e) => write!(f, "bloom: {e}"),
            RottnestError::Fm(e) => write!(f, "fm: {e}"),
            RottnestError::Ivf(e) => write!(f, "ivfpq: {e}"),
            RottnestError::DeadlineExceeded {
                deadline_ms,
                now_ms,
            } => {
                write!(
                    f,
                    "deadline exceeded: now {now_ms}ms is past deadline {deadline_ms}ms"
                )
            }
            RottnestError::Overloaded {
                reason,
                retry_after_ms,
            } => {
                write!(f, "overloaded ({reason}); retry after {retry_after_ms}ms")
            }
        }
    }
}

impl RottnestError {
    /// Digs the underlying [`rottnest_object_store::StoreError`] out of the
    /// wrapper chain, however deep: the protocol layer sees store faults
    /// wrapped by the lake, format, and component layers. Returns `None`
    /// when the error did not originate at the object store.
    pub fn store_fault(&self) -> Option<&rottnest_object_store::StoreError> {
        use rottnest_component::ComponentError as CE;
        use rottnest_format::FormatError as FE;
        use rottnest_lake::LakeError as LE;
        match self {
            RottnestError::Store(e)
            | RottnestError::Lake(LE::Store(e))
            | RottnestError::Lake(LE::Format(FE::Store(e)))
            | RottnestError::Format(FE::Store(e))
            | RottnestError::Trie(rottnest_trie::TrieError::Component(CE::Store(e)))
            | RottnestError::Bloom(rottnest_bloom::BloomError::Component(CE::Store(e)))
            | RottnestError::Fm(rottnest_fm::FmError::Component(CE::Store(e)))
            | RottnestError::Ivf(rottnest_ivfpq::IvfError::Component(CE::Store(e))) => Some(e),
            _ => None,
        }
    }
}

impl std::error::Error for RottnestError {}

macro_rules! from_err {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for RottnestError {
            fn from(e: $ty) -> Self {
                RottnestError::$variant(e)
            }
        }
    };
}

from_err!(Lake, rottnest_lake::LakeError);
from_err!(Format, rottnest_format::FormatError);
from_err!(Store, rottnest_object_store::StoreError);
from_err!(Trie, rottnest_trie::TrieError);
from_err!(Bloom, rottnest_bloom::BloomError);
from_err!(Fm, rottnest_fm::FmError);
from_err!(Ivf, rottnest_ivfpq::IvfError);

impl From<rottnest_compress::CompressError> for RottnestError {
    fn from(e: rottnest_compress::CompressError) -> Self {
        RottnestError::Corrupt(format!("varint: {e}"))
    }
}

/// Result alias.
pub type Result<T> = std::result::Result<T, RottnestError>;

#[cfg(test)]
mod tests {
    use super::*;
    use rottnest_component::ComponentError;
    use rottnest_format::FormatError;
    use rottnest_lake::LakeError;
    use rottnest_object_store::{cancelled_error, is_cancelled, StoreError};

    #[test]
    fn cancellation_is_classified_through_every_wrapping_layer() {
        let cancelled = |e: RottnestError| e.store_fault().is_some_and(is_cancelled);
        assert!(cancelled(RottnestError::Store(cancelled_error())));
        assert!(cancelled(RottnestError::Format(FormatError::Store(
            cancelled_error()
        ))));
        assert!(cancelled(RottnestError::Fm(
            rottnest_fm::FmError::Component(ComponentError::Store(cancelled_error()))
        )));
        // A losing hedge lane that dies inside `load_dvs` surfaces here.
        assert!(cancelled(RottnestError::Lake(LakeError::Store(
            cancelled_error()
        ))));
        assert!(cancelled(RottnestError::Lake(LakeError::Format(
            FormatError::Store(cancelled_error())
        ))));
        assert!(!cancelled(RottnestError::Store(StoreError::Transient(
            "other"
        ))));
        assert!(!cancelled(RottnestError::BadQuery("no store".into())));
    }

    #[test]
    fn nan_vector_query_returns_without_panicking() {
        use rottnest_format::{ColumnData, DataType, Field, RecordBatch, Schema};
        use rottnest_lake::{Table, TableConfig};

        const DIM: u32 = 8;
        let store = rottnest_object_store::MemoryStore::unmetered();
        let schema = Schema::new(vec![Field::new(
            "embedding",
            DataType::VectorF32 { dim: DIM },
        )]);
        let table = Table::create(store.as_ref(), "t", &schema, TableConfig::default()).unwrap();
        let append = |rows: u32| {
            let vectors: Vec<Vec<f32>> = (0..rows)
                .map(|i| (0..DIM).map(|d| ((i * 7 + d) % 13) as f32).collect())
                .collect();
            let column = ColumnData::from_vectors(DIM, vectors).unwrap();
            let batch = RecordBatch::new(schema.clone(), vec![column]).unwrap();
            table.append(&batch).unwrap();
        };
        append(300);
        let config = RottnestConfig {
            min_vector_rows: 100,
            ivf: rottnest_ivfpq::IvfPqParams {
                nlist: 8,
                m: 4,
                train_iters: 2,
                seed: 1,
            },
            ..RottnestConfig::default()
        };
        let rot = Rottnest::new(store.as_ref(), "t-idx", config);
        rot.index(&table, IndexKind::Vector { dim: DIM }, "embedding")
            .unwrap()
            .unwrap();
        // A second, unindexed file: the brute-scan merge sees NaN scores too.
        append(50);

        let mut query = [1.0f32; DIM as usize];
        query[2] = f32::NAN;
        let params = rottnest_ivfpq::SearchParams {
            k: 3,
            nprobe: 4,
            refine: 16,
        };
        let snap = table.snapshot().unwrap();
        let out = rot.search(
            &table,
            &snap,
            "embedding",
            &Query::VectorNn {
                query: &query,
                params,
            },
        );
        // Ok or a typed error are both acceptable; a panic is not.
        if let Ok(out) = out {
            assert!(out.matches.len() <= 3);
        }
    }
}
