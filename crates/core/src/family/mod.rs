//! One home per index kind (§V): everything the protocol needs from a kind
//! is one [`IndexFamily`] implementation in a file of this directory, and
//! [`with`] is the single place a kind becomes code.
//!
//! The protocol of §IV — plan, probe indexes, probe pages in situ, scan
//! what is uncovered; merge; vacuum — is kind-agnostic and lives in the
//! sibling modules, which call a family once per step. Adding a kind is one
//! new file here, one [`IndexKind`] variant with its tag in `meta.rs`, and
//! one line in [`with`].

mod bloom;
mod fm;
mod ivfpq;
mod trie;

use bytes::Bytes;
use rottnest_component::Posting;
use rottnest_format::ValueRef;
use rottnest_ivfpq::VecPosting;
use rottnest_object_store::{ordered_parallel_map_io, ObjectStore};

use crate::build::{BuildJob, DecodedPage};
use crate::meta::{FileCoverage, IndexEntry, IndexKind};
use crate::query::Query;
use crate::rottnest::RottnestConfig;
use crate::{Result, RottnestError};

/// What an index probe returns.
pub(crate) enum Postings {
    /// Pages that may hold a match of an exact query (false positives are
    /// filtered in situ).
    Pages(Vec<Posting>),
    /// Rows with their approximate squared distance to a scoring query,
    /// ascending.
    Scored(Vec<(VecPosting, f32)>),
}

/// What the protocol needs from an index kind.
pub(crate) trait IndexFamily {
    /// File extension of this kind's index objects.
    fn ext(&self) -> &'static str;

    /// The kind of index whose queries this family answers (UUID-equality
    /// queries are served by tries *and* bloom filters over the same key
    /// length).
    fn serves(&self) -> IndexKind;

    /// Builds one index file image over the job's files, pulling their
    /// decoded pages with [`BuildJob::feed`]. `None` when the rows are too
    /// few to be worth indexing and brute-force scanning should serve them
    /// instead (§IV-A footnote 2).
    fn build(&self, job: &BuildJob<'_>) -> Result<Option<(Bytes, Vec<FileCoverage>)>>;

    /// Queries the index file at `path` through `store`.
    fn probe(&self, store: &dyn ObjectStore, path: &str, query: &Query<'_>) -> Result<Postings>;

    /// Merges the job's index files into one, returning its size.
    fn merge(&self, job: &MergeJob<'_>) -> Result<u64>;
}

/// Runs `f` with the family of `kind`.
pub(crate) fn with<R>(kind: IndexKind, f: impl FnOnce(&dyn IndexFamily) -> R) -> R {
    match kind {
        IndexKind::Uuid { key_len } => f(&trie::Trie { key_len }),
        IndexKind::Substring => f(&fm::Fm),
        IndexKind::Vector { dim } => f(&ivfpq::IvfPq { dim }),
        IndexKind::Bloom { key_len } => f(&bloom::Bloom { key_len }),
    }
}

/// The kind of index a query is planned against.
pub(crate) fn kind_of(query: &Query<'_>) -> IndexKind {
    match query {
        Query::UuidEq { key, .. } => IndexKind::Uuid {
            key_len: key.len() as u8,
        },
        Query::Substring { .. } => IndexKind::Substring,
        Query::VectorNn { query, .. } => IndexKind::Vector {
            dim: query.len() as u32,
        },
    }
}

/// The error of an index of kind `what` handed a query it does not answer.
pub(crate) fn unserved(what: &str) -> RottnestError {
    RottnestError::BadQuery(format!("a {what} index does not answer this query"))
}

/// Feeds the byte keys of `pages` to `add`, one posting per page;
/// consecutive duplicates within a page share one posting.
fn feed_keys(
    column: &str,
    pages: &[DecodedPage],
    mut add: impl FnMut(&[u8], Posting) -> Result<()>,
) -> Result<()> {
    for page in pages {
        let mut last: Option<&[u8]> = None;
        for i in 0..page.data.len() {
            let key = match page.data.get(i) {
                Some(ValueRef::Binary(b)) => b,
                Some(ValueRef::Utf8(s)) => s.as_bytes(),
                _ => {
                    return Err(RottnestError::BadQuery(format!(
                        "column {column} is not binary/utf8"
                    )))
                }
            };
            if last != Some(key) {
                add(key, Posting::new(page.file_id, page.page_id))?;
                last = Some(key);
            }
        }
    }
    Ok(())
}

/// One compaction bin: the index files to merge and where the result goes.
pub(crate) struct MergeJob<'j> {
    pub store: &'j dyn ObjectStore,
    pub config: &'j RottnestConfig,
    pub bin: &'j [IndexEntry],
    pub out_key: &'j str,
}

impl MergeJob<'_> {
    /// The driver every kind shares: opens the bin's index files in
    /// parallel (their root/component GETs overlap over `build_parallelism`
    /// lanes), then hands them to `merge` strictly in bin order — so the
    /// merged bytes are identical to sequential opens — each paired with
    /// the offset that shifts its file ids past the sources before it: the
    /// merged coverage is the bin's coverage lists concatenated.
    fn run<I: Send, E: Send>(
        &self,
        open: impl Fn(&str) -> std::result::Result<I, E> + Sync,
        merge: impl FnOnce(&[(&I, u32)]) -> std::result::Result<u64, E>,
    ) -> Result<u64>
    where
        RottnestError: From<E>,
    {
        let lanes = self.config.build_parallelism;
        let opened =
            ordered_parallel_map_io(lanes, self.store.clock(), self.bin, |_, e| open(&e.path));
        let opened: Vec<I> = opened.into_iter().collect::<std::result::Result<_, E>>()?;
        let offsets = self.bin.iter().scan(0u32, |next, e| {
            let here = *next;
            *next += e.files.len() as u32;
            Some(here)
        });
        let sources: Vec<(&I, u32)> = opened.iter().zip(offsets).collect();
        Ok(merge(&sources)?)
    }
}
