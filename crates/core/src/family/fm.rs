//! FM-index for exact substring search (§V-C2).

use bytes::Bytes;
use rottnest_component::Posting;
use rottnest_fm::{merge_fm, FmBuilder, FmIndex, MergePolicy};
use rottnest_format::ValueRef;
use rottnest_object_store::ObjectStore;

use super::{unserved, IndexFamily, MergeJob, Postings};
use crate::build::BuildJob;
use crate::meta::{FileCoverage, IndexKind};
use crate::query::Query;
use crate::{Result, RottnestError};

pub(super) struct Fm;

impl IndexFamily for Fm {
    fn ext(&self) -> &'static str {
        "fm"
    }

    fn serves(&self) -> IndexKind {
        IndexKind::Substring
    }

    fn build(&self, job: &BuildJob<'_>) -> Result<Option<(Bytes, Vec<FileCoverage>)>> {
        let mut fm = FmBuilder::with_options(job.config.fm.clone())
            .with_parallelism(job.config.build_parallelism);
        let coverage = job.feed(&mut |pages| {
            for page in pages {
                let posting = Posting::new(page.file_id, page.page_id);
                for i in 0..page.data.len() {
                    match page.data.get(i) {
                        Some(ValueRef::Utf8(s)) => fm.add_document(posting, s.as_bytes()),
                        Some(ValueRef::Binary(b)) => fm.add_document(posting, b),
                        _ => {
                            let column = job.column;
                            return Err(RottnestError::BadQuery(format!(
                                "column {column} is not text"
                            )));
                        }
                    }
                }
            }
            Ok(())
        })?;
        Ok(Some((fm.finish(), coverage)))
    }

    fn probe(&self, store: &dyn ObjectStore, path: &str, query: &Query<'_>) -> Result<Postings> {
        let Query::Substring { pattern, k } = query else {
            return Err(unserved(self.ext()));
        };
        let index = FmIndex::open(store, path)?;
        // Stage the locate: a small multiple of k first; if the limit was
        // hit there are unresolved occurrences and the full locate runs.
        // (Resolving fewer than the limit proves completeness — no extra
        // count() pass.)
        let limit = k.saturating_mul(8).max(64);
        let mut hits = index.locate_pages(pattern, limit)?;
        let resolved: usize = hits.iter().map(|&(_, n)| n as usize).sum();
        if resolved >= limit {
            hits = index.locate_pages(pattern, usize::MAX)?;
        }
        Ok(Postings::Pages(hits.into_iter().map(|(p, _)| p).collect()))
    }

    fn merge(&self, job: &MergeJob<'_>) -> Result<u64> {
        // A merged file keeps the layout its sources were built with:
        // `config.fm`, not the merge policy's own (default) options.
        let policy = MergePolicy {
            options: job.config.fm.clone(),
            parallelism: job.config.build_parallelism,
            ..job.config.fm_merge.clone()
        };
        job.run(
            |path| FmIndex::open(job.store, path),
            |sources| merge_fm(job.store, sources, job.out_key, &policy),
        )
    }
}
