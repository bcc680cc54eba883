//! Index-file construction from Parquet files (§IV-A step 2).
//!
//! A build downloads each new Parquet file once, walks its data pages, and
//! feeds the decoded pages to the kind's builder (`family`). Postings use
//! index-local `file_id`s equal to the file's ordinal in the coverage list.
//!
//! Download + decode fans out over a bounded scoped pool
//! ([`crate::RottnestConfig::build_parallelism`] workers) while a **single
//! in-order consumer** on the caller's thread feeds the kind-specific
//! builder, so the produced index bytes are identical to the serial path
//! at every parallelism setting (`tests/tests/build_equivalence.rs` proves
//! it fault-free and under chaos). Builder downloads are one-shot reads:
//! they bypass the process-wide page cache entirely (counted via
//! [`ObjectStore::record_page_cache_bypass`]) so ingest traffic cannot
//! evict warm probe pages.

use rottnest_format::{ColumnData, FileMeta, PageTable};
use rottnest_lake::FileEntry;
use rottnest_object_store::{ordered_pipeline, ObjectStore};

use crate::meta::FileCoverage;
use crate::rottnest::RottnestConfig;
use crate::{Result, RottnestError};

/// A fully decoded column page with its provenance.
pub(crate) struct DecodedPage {
    pub file_id: u32,
    pub page_id: u32,
    pub data: ColumnData,
}

/// Downloads `file` (one GET) and decodes every page of `column`.
///
/// This is a one-shot read: the whole file is fetched once, decoded, and
/// never consulted again, so the pages deliberately bypass page-cache
/// admission (recorded as [`StatsSnapshot::page_cache_bypassed`]
/// bookkeeping).
///
/// [`StatsSnapshot::page_cache_bypassed`]: rottnest_object_store::StatsSnapshot::page_cache_bypassed
pub(crate) fn decode_file_pages(
    store: &dyn ObjectStore,
    path: &str,
    column: &str,
    file_id: u32,
) -> Result<(PageTable, Vec<DecodedPage>)> {
    let bytes = store.get(path).map_err(|e| match e {
        rottnest_object_store::StoreError::NotFound(_) => {
            RottnestError::Aborted(format!("{path} vanished during indexing"))
        }
        other => RottnestError::Store(other),
    })?;
    let (meta, _) = FileMeta::from_tail(&bytes, bytes.len() as u64)?;
    let col = meta
        .schema
        .index_of(column)
        .ok_or_else(|| RottnestError::BadQuery(format!("no column {column} in {path}")))?;
    let data_type = meta.schema.fields()[col].data_type;
    let table = PageTable::from_meta(&meta, col)?;
    let mut pages = Vec::with_capacity(table.len());
    for (page_id, loc) in table.pages().iter().enumerate() {
        // A corrupt footer can describe pages beyond the object's actual
        // length; surface that as Corrupt instead of panicking on slice.
        let end = loc
            .offset
            .checked_add(loc.size)
            .filter(|&e| e <= bytes.len() as u64);
        let Some(end) = end else {
            return Err(RottnestError::Corrupt(format!(
                "page {page_id} of {path} spans {}..{} past file length {}",
                loc.offset,
                loc.offset.wrapping_add(loc.size),
                bytes.len()
            )));
        };
        let page_bytes = &bytes[loc.offset as usize..end as usize];
        let data = rottnest_format::page::decode_page(page_bytes, data_type)?;
        pages.push(DecodedPage {
            file_id,
            page_id: page_id as u32,
            data,
        });
    }
    store.record_page_cache_bypass(pages.len() as u64);
    Ok((table, pages))
}

/// One index build: the files to cover and how to read them.
pub(crate) struct BuildJob<'j> {
    pub store: &'j dyn ObjectStore,
    pub config: &'j RottnestConfig,
    pub column: &'j str,
    pub files: &'j [FileEntry],
    /// Polled before each file is consumed, so `index_timeout_ms` aborts
    /// mid-build rather than after the whole pass.
    pub check: &'j dyn Fn() -> Result<()>,
}

impl BuildJob<'_> {
    /// Rows the build would cover.
    pub(crate) fn total_rows(&self) -> u64 {
        self.files.iter().map(|f| f.rows).sum()
    }

    /// Fans `decode_file_pages` over `build_parallelism` workers and hands
    /// each file's pages to `feed` strictly in file order on the caller's
    /// thread, exactly as a serial loop would. Returns the coverage records.
    pub(crate) fn feed(
        &self,
        feed: &mut dyn FnMut(&[DecodedPage]) -> Result<()>,
    ) -> Result<Vec<FileCoverage>> {
        let mut coverage = Vec::with_capacity(self.files.len());
        ordered_pipeline(
            self.config.build_parallelism,
            self.store.clock(),
            self.files,
            |file_id, entry| {
                decode_file_pages(self.store, &entry.path, self.column, file_id as u32)
            },
            |i, (page_table, pages)| {
                (self.check)()?;
                feed(&pages)?;
                coverage.push(FileCoverage {
                    path: self.files[i].path.clone(),
                    rows: self.files[i].rows,
                    page_table,
                });
                Ok(())
            },
        )?;
        Ok(coverage)
    }
}
