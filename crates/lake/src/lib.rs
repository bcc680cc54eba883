//! A transactional data lake over object storage — the substrate Rottnest
//! bolts onto.
//!
//! Modeled on Delta Lake / Apache Iceberg (§II-A): immutable
//! `rottnest-format` data files, a versioned commit log of file-level
//! actions ([`log::TxLog`]) committed with `put_if_absent` (optimistic
//! concurrency — no atomic rename required), point-in-time [`Snapshot`]s
//! (time travel), row-level deletes via [`DeletionVector`] sidecar files,
//! LSM-style [`Table::compact`], and [`Table::vacuum`] garbage collection.
//!
//! Everything Rottnest's protocol interacts with is here: manifest lists
//! (snapshots), deletion vectors applied during in-situ probing, and the
//! file-invalidating operations (compaction, delete, vacuum) the consistency
//! invariants must survive.

pub mod dv;
pub mod log;
pub mod snapshot;
pub mod table;

pub use dv::DeletionVector;
pub use log::{LogEntry, LogListing, TxLog};
pub use snapshot::{FileEntry, Snapshot};
pub use table::{Table, TableConfig};

use rottnest_compress::varint;

/// Errors raised by lake operations.
#[derive(Debug)]
pub enum LakeError {
    /// A commit lost the optimistic-concurrency race too many times or
    /// conflicted logically (e.g. removing a file another writer removed).
    Conflict(String),
    /// Log or sidecar bytes are malformed.
    Corrupt(String),
    /// The referenced snapshot version does not exist.
    NoSuchVersion(u64),
    /// Underlying store failure.
    Store(rottnest_object_store::StoreError),
    /// Underlying format failure.
    Format(rottnest_format::FormatError),
}

impl std::fmt::Display for LakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LakeError::Conflict(m) => write!(f, "commit conflict: {m}"),
            LakeError::Corrupt(m) => write!(f, "corrupt lake metadata: {m}"),
            LakeError::NoSuchVersion(v) => write!(f, "no such table version {v}"),
            LakeError::Store(e) => write!(f, "store error: {e}"),
            LakeError::Format(e) => write!(f, "format error: {e}"),
        }
    }
}

impl std::error::Error for LakeError {}

impl From<rottnest_object_store::StoreError> for LakeError {
    fn from(e: rottnest_object_store::StoreError) -> Self {
        LakeError::Store(e)
    }
}

impl From<rottnest_format::FormatError> for LakeError {
    fn from(e: rottnest_format::FormatError) -> Self {
        LakeError::Format(e)
    }
}

impl From<rottnest_compress::CompressError> for LakeError {
    fn from(e: rottnest_compress::CompressError) -> Self {
        LakeError::Corrupt(format!("varint: {e}"))
    }
}

/// Result alias for lake operations.
pub type Result<T> = std::result::Result<T, LakeError>;

/// File-level actions recorded in the commit log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Records the table schema (first commit only).
    Init {
        /// Serialized [`rottnest_format::Schema`].
        schema_bytes: Vec<u8>,
    },
    /// A new data file joined the table.
    AddFile {
        /// Store key of the data file.
        path: String,
        /// Row count of the file.
        rows: u64,
        /// Size in bytes.
        size: u64,
    },
    /// A data file left the table (delete, compaction rewrite).
    RemoveFile {
        /// Store key of the removed file.
        path: String,
    },
    /// Attach (or replace) the deletion vector of a data file.
    SetDeletionVector {
        /// Data file the vector applies to.
        data_path: String,
        /// Store key of the deletion-vector sidecar.
        dv_path: String,
    },
}

impl Action {
    /// Serializes the action into `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Action::Init { schema_bytes } => {
                out.push(0);
                varint::write_bytes(out, schema_bytes);
            }
            Action::AddFile { path, rows, size } => {
                out.push(1);
                varint::write_str(out, path);
                varint::write_u64(out, *rows);
                varint::write_u64(out, *size);
            }
            Action::RemoveFile { path } => {
                out.push(2);
                varint::write_str(out, path);
            }
            Action::SetDeletionVector { data_path, dv_path } => {
                out.push(3);
                varint::write_str(out, data_path);
                varint::write_str(out, dv_path);
            }
        }
    }

    /// Decodes one action, advancing `pos`.
    pub fn decode(buf: &[u8], pos: &mut usize) -> Result<Self> {
        let tag = *buf
            .get(*pos)
            .ok_or_else(|| LakeError::Corrupt("truncated action".into()))?;
        *pos += 1;
        Ok(match tag {
            0 => Action::Init {
                schema_bytes: varint::read_bytes(buf, pos)?.to_vec(),
            },
            1 => Action::AddFile {
                path: varint::read_str(buf, pos)?,
                rows: varint::read_u64(buf, pos)?,
                size: varint::read_u64(buf, pos)?,
            },
            2 => Action::RemoveFile {
                path: varint::read_str(buf, pos)?,
            },
            3 => Action::SetDeletionVector {
                data_path: varint::read_str(buf, pos)?,
                dv_path: varint::read_str(buf, pos)?,
            },
            other => return Err(LakeError::Corrupt(format!("unknown action tag {other}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_round_trip() {
        let actions = vec![
            Action::Init {
                schema_bytes: vec![1, 2, 3],
            },
            Action::AddFile {
                path: "t/data/a.lkpq".into(),
                rows: 100,
                size: 4096,
            },
            Action::RemoveFile {
                path: "t/data/b.lkpq".into(),
            },
            Action::SetDeletionVector {
                data_path: "t/data/a.lkpq".into(),
                dv_path: "t/dv/a.dv".into(),
            },
        ];
        let mut buf = Vec::new();
        for a in &actions {
            a.encode(&mut buf);
        }
        let mut pos = 0;
        for a in &actions {
            assert_eq!(&Action::decode(&buf, &mut pos).unwrap(), a);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn unknown_tag_rejected() {
        let buf = [200u8];
        let mut pos = 0;
        assert!(Action::decode(&buf, &mut pos).is_err());
    }
}
