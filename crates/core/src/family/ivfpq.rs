//! IVF-PQ vector index (§V-C3).

use bytes::Bytes;
use rottnest_format::ValueRef;
use rottnest_ivfpq::{index::merge_ivf, IvfPqBuilder, IvfPqIndex, SearchParams, VecPosting};
use rottnest_object_store::ObjectStore;

use super::{unserved, IndexFamily, MergeJob, Postings};
use crate::build::BuildJob;
use crate::meta::{FileCoverage, IndexKind};
use crate::query::Query;
use crate::{Result, RottnestError};

pub(super) struct IvfPq {
    pub dim: u32,
}

impl IndexFamily for IvfPq {
    fn ext(&self) -> &'static str {
        "ivf"
    }

    fn serves(&self) -> IndexKind {
        IndexKind::Vector { dim: self.dim }
    }

    fn build(&self, job: &BuildJob<'_>) -> Result<Option<(Bytes, Vec<FileCoverage>)>> {
        // Quantizers need enough vectors to train on.
        if job.total_rows() < job.config.min_vector_rows {
            return Ok(None);
        }
        let mut ivf = IvfPqBuilder::new(self.dim as usize, job.config.ivf.clone())?
            .with_parallelism(job.config.build_parallelism);
        let coverage = job.feed(&mut |pages| {
            for page in pages {
                for i in 0..page.data.len() {
                    let Some(ValueRef::VectorF32(v)) = page.data.get(i) else {
                        let column = job.column;
                        return Err(RottnestError::BadQuery(format!(
                            "column {column} is not a vector column"
                        )));
                    };
                    ivf.add(VecPosting::new(page.file_id, page.page_id, i as u32), v)?;
                }
            }
            Ok(())
        })?;
        Ok(Some((ivf.finish()?, coverage)))
    }

    fn probe(&self, store: &dyn ObjectStore, path: &str, query: &Query<'_>) -> Result<Postings> {
        let Query::VectorNn { query, params } = query else {
            return Err(unserved(self.ext()));
        };
        // ADC pass only: the caller filters stale and deleted rows before
        // it fetches any page for the exact rerank.
        let adc = SearchParams {
            k: params.refine.max(params.k),
            nprobe: params.nprobe,
            refine: 0,
        };
        let index = IvfPqIndex::open(store, path)?;
        Ok(Postings::Scored(
            index.search(query, adc, &|_| Ok(Vec::new()))?,
        ))
    }

    fn merge(&self, job: &MergeJob<'_>) -> Result<u64> {
        job.run(
            |path| IvfPqIndex::open(job.store, path),
            |sources| merge_ivf(job.store, sources, job.out_key),
        )
    }
}
