//! Per-page Bloom filters over fixed-length keys: the cheapest index,
//! answering the same UUID-equality queries as the trie (false positives
//! are filtered in situ, §IV-B).

use bytes::Bytes;
use rottnest_bloom::{merge_blooms, BloomBuilder, BloomIndex};
use rottnest_object_store::ObjectStore;

use super::{feed_keys, unserved, IndexFamily, MergeJob, Postings};
use crate::build::BuildJob;
use crate::meta::{FileCoverage, IndexKind};
use crate::query::Query;
use crate::Result;

pub(super) struct Bloom {
    pub key_len: u8,
}

impl IndexFamily for Bloom {
    fn ext(&self) -> &'static str {
        "bloom"
    }

    fn serves(&self) -> IndexKind {
        let key_len = self.key_len;
        IndexKind::Uuid { key_len }
    }

    fn build(&self, job: &BuildJob<'_>) -> Result<Option<(Bytes, Vec<FileCoverage>)>> {
        let mut bloom = BloomBuilder::new(self.key_len as usize)?;
        let coverage = job.feed(&mut |pages| {
            feed_keys(job.column, pages, |key, posting| {
                Ok(bloom.add(key, posting)?)
            })
        })?;
        Ok(Some((bloom.finish(), coverage)))
    }

    fn probe(&self, store: &dyn ObjectStore, path: &str, query: &Query<'_>) -> Result<Postings> {
        let Query::UuidEq { key, .. } = query else {
            return Err(unserved(self.ext()));
        };
        Ok(Postings::Pages(BloomIndex::open(store, path)?.lookup(key)?))
    }

    fn merge(&self, job: &MergeJob<'_>) -> Result<u64> {
        job.run(
            |path| BloomIndex::open(job.store, path),
            |sources| merge_blooms(job.store, sources, job.out_key),
        )
    }
}
