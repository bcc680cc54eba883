//! The Rottnest metadata table.
//!
//! "Rottnest keeps track of the list of Parquet files it has already indexed
//! in the Rottnest metadata table, which is implemented as a Delta Lake
//! table itself resident on object storage" (§IV-A). We reuse the lake's
//! transactional log machinery ([`rottnest_lake::TxLog`]) with Rottnest's
//! own record type: each committed entry adds and/or removes index-file
//! records atomically.
//!
//! Each record also embeds, per covered Parquet file, the **page table** of
//! the indexed column (§V-A) — everything a searcher needs to turn page
//! postings into single-page range GETs without ever reading a Parquet
//! footer.

use bytes::Bytes;
use rottnest_compress::varint;
use rottnest_format::PageTable;
use rottnest_lake::{LakeError, LogListing, TxLog};
use rottnest_object_store::ObjectStore;

use crate::{Result, RottnestError};

/// Which index structure a record describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Binary trie over fixed-length keys (§V-C1).
    Uuid {
        /// Key length in bytes.
        key_len: u8,
    },
    /// FM-index for exact substring search (§V-C2).
    Substring,
    /// IVF-PQ vector index (§V-C3).
    Vector {
        /// Vector dimensionality.
        dim: u32,
    },
    /// Per-page Bloom filter over fixed-length keys (cheapest index; false
    /// positives filtered in situ, §IV-B).
    Bloom {
        /// Key length in bytes.
        key_len: u8,
    },
}

impl IndexKind {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            IndexKind::Uuid { key_len } => out.extend([0, *key_len]),
            IndexKind::Substring => out.push(1),
            IndexKind::Vector { dim } => {
                out.push(2);
                varint::write_u64(out, u64::from(*dim));
            }
            IndexKind::Bloom { key_len } => out.extend([3, *key_len]),
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Result<Self> {
        let tag = *buf
            .get(*pos)
            .ok_or_else(|| RottnestError::Corrupt("truncated index kind".into()))?;
        *pos += 1;
        Ok(match tag {
            0 | 3 => {
                let key_len = *buf
                    .get(*pos)
                    .ok_or_else(|| RottnestError::Corrupt("truncated key len".into()))?;
                *pos += 1;
                if tag == 0 {
                    IndexKind::Uuid { key_len }
                } else {
                    IndexKind::Bloom { key_len }
                }
            }
            1 => IndexKind::Substring,
            2 => IndexKind::Vector {
                dim: varint::read_u64(buf, pos)? as u32,
            },
            other => {
                return Err(RottnestError::Corrupt(format!(
                    "unknown index kind {other}"
                )))
            }
        })
    }

    /// Whether two kinds target the same index family and parameters.
    pub fn compatible(&self, other: &IndexKind) -> bool {
        self == other
    }
}

/// Coverage of one Parquet file by an index file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileCoverage {
    /// Store key of the Parquet file.
    pub path: String,
    /// Rows indexed from it.
    pub rows: u64,
    /// Page table of the indexed column at index time.
    pub page_table: PageTable,
}

/// One index-file record in the metadata table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    /// Unique id (derived from the commit version — unique by construction).
    pub id: u64,
    /// Index family and parameters.
    pub kind: IndexKind,
    /// Indexed column name.
    pub column: String,
    /// Store key of the index file.
    pub path: String,
    /// Index file size in bytes.
    pub size: u64,
    /// Total rows indexed.
    pub rows: u64,
    /// Commit timestamp (store clock, ms).
    pub created_ms: u64,
    /// Covered Parquet files, in the index's `file_id` order.
    pub files: Vec<FileCoverage>,
}

impl IndexEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        varint::write_u64(out, self.id);
        self.kind.encode(out);
        varint::write_str(out, &self.column);
        varint::write_str(out, &self.path);
        varint::write_u64(out, self.size);
        varint::write_u64(out, self.rows);
        varint::write_u64(out, self.created_ms);
        varint::write_usize(out, self.files.len());
        for f in &self.files {
            varint::write_str(out, &f.path);
            varint::write_u64(out, f.rows);
            f.page_table.encode(out);
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Result<Self> {
        let id = varint::read_u64(buf, pos)?;
        let kind = IndexKind::decode(buf, pos)?;
        let column = varint::read_str(buf, pos)?;
        let path = varint::read_str(buf, pos)?;
        let size = varint::read_u64(buf, pos)?;
        let rows = varint::read_u64(buf, pos)?;
        let created_ms = varint::read_u64(buf, pos)?;
        let n = varint::read_usize(buf, pos)?;
        let mut files = Vec::with_capacity(n.min(1 << 16));
        for _ in 0..n {
            files.push(FileCoverage {
                path: varint::read_str(buf, pos)?,
                rows: varint::read_u64(buf, pos)?,
                page_table: PageTable::decode(buf, pos)?,
            });
        }
        Ok(Self {
            id,
            kind,
            column,
            path,
            size,
            rows,
            created_ms,
            files,
        })
    }

    /// Paths of the covered Parquet files.
    pub fn covered_paths(&self) -> impl Iterator<Item = &str> {
        self.files.iter().map(|f| f.path.as_str())
    }

    /// Resolves an index-local `(file, page)` posting of this entry's index
    /// file to the covered file and the file-global row the page starts at.
    /// A posting beyond the coverage list or the file's page table means
    /// the index file and its record disagree: `Corrupt`, never a guessed
    /// row.
    pub(crate) fn resolve(&self, file: u32, page: u32) -> Result<(&FileCoverage, u64)> {
        let cov = self.files.get(file as usize).ok_or_else(|| {
            RottnestError::Corrupt(format!(
                "posting references file {file} beyond coverage of {}",
                self.path
            ))
        })?;
        let loc = cov.page_table.page(page as usize).ok_or_else(|| {
            RottnestError::Corrupt(format!(
                "posting references page {page} of {} beyond the page table in {}",
                cov.path, self.path
            ))
        })?;
        Ok((cov, loc.first_row))
    }
}

/// A metadata mutation; one commit may carry several.
#[derive(Debug, Clone, PartialEq)]
pub enum MetaOp {
    /// Insert an index-file record.
    Add(Box<IndexEntry>),
    /// Delete the record with this id.
    Remove(u64),
}

impl MetaOp {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            MetaOp::Add(e) => {
                out.push(0);
                e.encode(out);
            }
            MetaOp::Remove(id) => {
                out.push(1);
                varint::write_u64(out, *id);
            }
        }
    }

    fn decode(buf: &[u8], pos: &mut usize) -> Result<Self> {
        let tag = *buf
            .get(*pos)
            .ok_or_else(|| RottnestError::Corrupt("truncated meta op".into()))?;
        *pos += 1;
        Ok(match tag {
            0 => MetaOp::Add(Box::new(IndexEntry::decode(buf, pos)?)),
            1 => MetaOp::Remove(varint::read_u64(buf, pos)?),
            other => return Err(RottnestError::Corrupt(format!("unknown meta op {other}"))),
        })
    }
}

/// The transactional metadata table at `<index_dir>/meta/`.
pub struct MetaTable<'a> {
    store: &'a dyn ObjectStore,
    root: String,
}

impl<'a> MetaTable<'a> {
    /// Opens (lazily) the table under `index_dir`.
    pub fn new(store: &'a dyn ObjectStore, index_dir: &str) -> Self {
        Self {
            store,
            root: format!("{index_dir}/meta"),
        }
    }

    fn log(&self) -> TxLog<'a> {
        TxLog::new(self.store, self.root.clone())
    }

    /// One LIST of the table's log. A plan-cache miss asks it for the latest
    /// version and replays from the same listing with
    /// [`MetaTable::scan_listed`] — one LIST, not two.
    pub fn listing(&self) -> Result<LogListing> {
        self.log().listing().map_err(RottnestError::Lake)
    }

    /// Whether a commit after `version` exists: one HEAD, no LIST
    /// ([`TxLog::moved_past`]). The log at a given version is immutable, so
    /// `false` proves a scan replayed at `version` is still current.
    pub fn moved_past(&self, version: u64) -> Result<bool> {
        self.log().moved_past(version).map_err(RottnestError::Lake)
    }

    /// Latest committed log version, or `None` for an empty table. Costs
    /// one LIST and no GETs.
    pub fn latest_version(&self) -> Result<Option<u64>> {
        Ok(self.listing()?.latest_version())
    }

    /// Replays the log into the current set of records, keyed by id. One
    /// LIST serves both the version probe and the replay.
    pub fn scan(&self) -> Result<Vec<IndexEntry>> {
        Ok(self.scan_for_commit()?.0)
    }

    /// [`MetaTable::scan`] plus the version the next commit lands at if
    /// nobody else commits first (the replayed version plus one; 0 for an
    /// empty log) — what [`MetaTable::commit_from`] tries before it LISTs.
    pub(crate) fn scan_for_commit(&self) -> Result<(Vec<IndexEntry>, u64)> {
        let listing = self.listing()?;
        match listing.latest_version() {
            None => Ok((Vec::new(), 0)),
            Some(latest) => Ok((self.scan_listed(&listing, latest)?, latest + 1)),
        }
    }

    /// Replays the log up to commit `version` into the record set as of
    /// that commit (one LIST, then [`MetaTable::scan_listed`]).
    pub fn scan_at(&self, version: u64) -> Result<Vec<IndexEntry>> {
        self.scan_listed(&self.listing()?, version)
    }

    /// Replays the log up to commit `version` off an existing `listing`:
    /// no LIST, only the log GETs.
    pub fn scan_listed(&self, listing: &LogListing, version: u64) -> Result<Vec<IndexEntry>> {
        let log = self.log();
        let mut entries: std::collections::BTreeMap<u64, IndexEntry> = Default::default();
        for rec in log
            .read_listed(listing, version)
            .map_err(RottnestError::Lake)?
        {
            let buf = rec.payload.as_ref();
            let mut pos = 0usize;
            while pos < buf.len() {
                match MetaOp::decode(buf, &mut pos)? {
                    MetaOp::Add(e) => {
                        entries.insert(e.id, *e);
                    }
                    MetaOp::Remove(id) => {
                        entries.remove(&id);
                    }
                }
            }
        }
        Ok(entries.into_values().collect())
    }

    /// Commits a batch of ops transactionally. `make_ops` receives the next
    /// commit version (used to derive fresh unique ids: `version * 1024 +
    /// ordinal`) and may be called again on version races.
    pub fn commit_with(
        &self,
        max_retries: u32,
        make_ops: impl FnMut(u64) -> Vec<MetaOp>,
    ) -> Result<u64> {
        self.commit_from(None, max_retries, make_ops)
    }

    /// [`MetaTable::commit_with`] for a caller whose scan already told it
    /// the next version ([`MetaTable::scan_for_commit`]): the first attempt
    /// goes to `planned` without a LIST; a lost race falls back to LIST and
    /// retry. `planned` must come from such a scan or a commit of this
    /// caller's — a made-up version could leave a hole in the dense log.
    pub(crate) fn commit_from(
        &self,
        mut planned: Option<u64>,
        max_retries: u32,
        mut make_ops: impl FnMut(u64) -> Vec<MetaOp>,
    ) -> Result<u64> {
        let log = self.log();
        for _ in 0..=max_retries {
            let version = match planned.take() {
                Some(version) => version,
                None => log
                    .latest_version()
                    .map_err(RottnestError::Lake)?
                    .map_or(0, |v| v + 1),
            };
            let ops = make_ops(version);
            let mut payload = Vec::new();
            for op in &ops {
                op.encode(&mut payload);
            }
            match log.try_commit_at(version, Bytes::from(payload)) {
                Ok(()) => return Ok(version),
                Err(LakeError::Conflict(_)) => continue,
                Err(e) => return Err(RottnestError::Lake(e)),
            }
        }
        Err(RottnestError::Corrupt(
            "metadata commit retries exhausted".into(),
        ))
    }

    /// Derives a unique record id from a commit version and ordinal.
    pub fn id_for(version: u64, ordinal: u64) -> u64 {
        version * 1024 + ordinal
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rottnest_format::PageLocation;
    use rottnest_object_store::MemoryStore;

    fn entry(id: u64, path: &str, covered: &[&str]) -> IndexEntry {
        IndexEntry {
            id,
            kind: IndexKind::Uuid { key_len: 16 },
            column: "trace_id".into(),
            path: path.into(),
            size: 1234,
            rows: 10,
            created_ms: 99,
            files: covered
                .iter()
                .map(|p| FileCoverage {
                    path: p.to_string(),
                    rows: 5,
                    page_table: PageTable::from_locations(
                        vec![PageLocation {
                            offset: 4,
                            size: 100,
                            num_values: 5,
                            first_row: 0,
                        }],
                        5,
                    ),
                })
                .collect(),
        }
    }

    #[test]
    fn records_round_trip_through_commits() {
        let store = MemoryStore::unmetered();
        let meta = MetaTable::new(store.as_ref(), "idx");
        assert!(meta.scan().unwrap().is_empty());

        meta.commit_with(4, |v| {
            vec![MetaOp::Add(Box::new(entry(
                MetaTable::id_for(v, 0),
                "idx/a.index",
                &["t/a"],
            )))]
        })
        .unwrap();
        meta.commit_with(4, |v| {
            vec![MetaOp::Add(Box::new(entry(
                MetaTable::id_for(v, 0),
                "idx/b.index",
                &["t/b", "t/c"],
            )))]
        })
        .unwrap();

        let entries = meta.scan().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].path, "idx/a.index");
        assert_eq!(entries[1].files.len(), 2);
        assert_eq!(entries[1].files[0].page_table.len(), 1);
    }

    #[test]
    fn remove_and_add_in_one_commit_is_atomic() {
        let store = MemoryStore::unmetered();
        let meta = MetaTable::new(store.as_ref(), "idx");
        let id0 = meta
            .commit_with(4, |v| {
                vec![MetaOp::Add(Box::new(entry(
                    MetaTable::id_for(v, 0),
                    "a",
                    &["t/a"],
                )))]
            })
            .map(|v| MetaTable::id_for(v, 0))
            .unwrap();
        // Compaction-style swap.
        meta.commit_with(4, |v| {
            vec![
                MetaOp::Remove(id0),
                MetaOp::Add(Box::new(entry(
                    MetaTable::id_for(v, 0),
                    "merged",
                    &["t/a", "t/b"],
                ))),
            ]
        })
        .unwrap();
        let entries = meta.scan().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].path, "merged");
    }

    #[test]
    fn concurrent_commits_serialize() {
        let store = MemoryStore::unmetered();
        crossbeam::scope(|scope| {
            for t in 0..6 {
                let store = &store;
                scope.spawn(move |_| {
                    let meta = MetaTable::new(store.as_ref(), "idx");
                    meta.commit_with(32, |v| {
                        vec![MetaOp::Add(Box::new(entry(
                            MetaTable::id_for(v, 0),
                            &format!("idx/{t}.index"),
                            &["t/x"],
                        )))]
                    })
                    .unwrap();
                });
            }
        })
        .unwrap();
        let meta = MetaTable::new(store.as_ref(), "idx");
        let entries = meta.scan().unwrap();
        assert_eq!(entries.len(), 6);
        // Ids are unique.
        let ids: std::collections::BTreeSet<u64> = entries.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), 6);
    }

    /// Another writer commits between a maintenance operation's scan and
    /// its commit: the planned version is taken, so the commit falls back
    /// to LIST-and-retry and both records land, at distinct dense versions.
    #[test]
    fn planned_commit_survives_a_racing_committer() {
        let store = MemoryStore::unmetered();
        let meta = MetaTable::new(store.as_ref(), "idx");
        let add = |path: &'static str| {
            move |v| {
                vec![MetaOp::Add(Box::new(entry(
                    MetaTable::id_for(v, 0),
                    path,
                    &["t/a"],
                )))]
            }
        };
        // Uncontended: an empty log commits at version 0 without a LIST.
        let (entries, next) = meta.scan_for_commit().unwrap();
        assert!(entries.is_empty());
        let before = store.stats();
        assert_eq!(meta.commit_from(Some(next), 4, add("first")).unwrap(), 0);
        assert_eq!(store.stats().since(&before).lists, 0);

        let (_, next) = meta.scan_for_commit().unwrap();
        assert_eq!(next, 1);
        assert_eq!(meta.commit_with(4, add("racer")).unwrap(), 1);
        assert_eq!(meta.commit_from(Some(next), 4, add("planned")).unwrap(), 2);

        let (entries, next) = meta.scan_for_commit().unwrap();
        assert_eq!(next, 3);
        let got: Vec<(u64, &str)> = entries.iter().map(|e| (e.id, e.path.as_str())).collect();
        let id = |v| MetaTable::id_for(v, 0);
        assert_eq!(
            got,
            [(id(0), "first"), (id(1), "racer"), (id(2), "planned")]
        );
    }

    #[test]
    fn kind_encoding_round_trip() {
        for kind in [
            IndexKind::Uuid { key_len: 16 },
            IndexKind::Substring,
            IndexKind::Vector { dim: 128 },
            IndexKind::Bloom { key_len: 16 },
        ] {
            let mut buf = Vec::new();
            kind.encode(&mut buf);
            let mut pos = 0;
            assert_eq!(IndexKind::decode(&buf, &mut pos).unwrap(), kind);
        }
    }
}
