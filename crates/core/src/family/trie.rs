//! Binary trie over fixed-length keys (§V-C1).

use bytes::Bytes;
use rottnest_object_store::ObjectStore;
use rottnest_trie::{index::merge_tries, TrieBuilder, TrieIndex};

use super::{feed_keys, unserved, IndexFamily, MergeJob, Postings};
use crate::build::BuildJob;
use crate::meta::{FileCoverage, IndexKind};
use crate::query::Query;
use crate::Result;

pub(super) struct Trie {
    pub key_len: u8,
}

impl IndexFamily for Trie {
    fn ext(&self) -> &'static str {
        "trie"
    }

    fn serves(&self) -> IndexKind {
        let key_len = self.key_len;
        IndexKind::Uuid { key_len }
    }

    fn build(&self, job: &BuildJob<'_>) -> Result<Option<(Bytes, Vec<FileCoverage>)>> {
        let mut trie = TrieBuilder::new(self.key_len as usize)?;
        let coverage = job.feed(&mut |pages| {
            feed_keys(
                job.column,
                pages,
                |key, posting| Ok(trie.add(key, posting)?),
            )
        })?;
        Ok(Some((trie.finish(), coverage)))
    }

    fn probe(&self, store: &dyn ObjectStore, path: &str, query: &Query<'_>) -> Result<Postings> {
        let Query::UuidEq { key, .. } = query else {
            return Err(unserved(self.ext()));
        };
        Ok(Postings::Pages(TrieIndex::open(store, path)?.lookup(key)?))
    }

    fn merge(&self, job: &MergeJob<'_>) -> Result<u64> {
        job.run(
            |path| TrieIndex::open(job.store, path),
            |sources| merge_tries(job.store, sources, job.out_key),
        )
    }
}
