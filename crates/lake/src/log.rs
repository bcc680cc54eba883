//! The versioned transactional commit log.
//!
//! Commits are numbered objects `_log/<version padded to 20 digits>.log`
//! written with `put_if_absent`: exactly one writer wins each version, which
//! is all the atomicity the lake (and Rottnest's metadata table) needs —
//! no atomic rename, matching the paper's compatibility goal (§IV, §IV-D).
//!
//! Invariant: commit objects are **dense** (version `v` is written only at
//! `latest + 1`), created with `put_if_absent`, and **never deleted** —
//! checkpoints add `.ckpt` objects beside them and remove nothing. So the
//! log has moved past `v` exactly when `_log/{v+1}.log` exists, which
//! [`TxLog::moved_past`] asks with one HEAD instead of a LIST.
//!
//! [`TxLog`] is payload-agnostic: the lake stores [`crate::Action`] lists
//! and Rottnest's metadata table stores its own record type on the same
//! machinery ("the Rottnest metadata table ... is implemented as a Delta
//! Lake table itself resident on object storage").

use bytes::Bytes;
use rottnest_object_store::{ObjectMeta, ObjectStore, RangeRequest, StoreError};

use crate::{LakeError, Result};

/// One committed entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Commit version, starting at 0.
    pub version: u64,
    /// Opaque committed payload.
    pub payload: Bytes,
    /// Commit timestamp on the store's clock (ms).
    pub timestamp_ms: u64,
}

/// The commit and checkpoint objects one LIST of a log's `_log/` prefix
/// returned, by version. See [`TxLog::listing`].
#[derive(Debug, Clone, Default)]
pub struct LogListing {
    commits: Vec<(u64, ObjectMeta)>,
    checkpoints: Vec<(u64, ObjectMeta)>,
}

impl LogListing {
    /// Latest committed version, or `None` for an empty log.
    pub fn latest_version(&self) -> Option<u64> {
        self.commits.iter().map(|(v, _)| *v).max()
    }
}

/// A transactional, append-only log at `<root>/_log/` on an object store.
pub struct TxLog<'a> {
    store: &'a dyn ObjectStore,
    root: String,
}

const PAD: usize = 20;

impl<'a> TxLog<'a> {
    /// Opens (lazily) the log under `root` (no trailing slash).
    pub fn new(store: &'a dyn ObjectStore, root: impl Into<String>) -> Self {
        Self {
            store,
            root: root.into(),
        }
    }

    fn key_of(&self, version: u64) -> String {
        format!("{}/_log/{:0PAD$}.log", self.root, version)
    }

    /// One LIST of `_log/`, parsed. A reader that needs the latest version
    /// *and* the entries up to it (a snapshot, a plan-cache miss) takes one
    /// listing and hands it to [`TxLog::read_listed`], instead of paying
    /// the LIST once per question.
    pub fn listing(&self) -> Result<LogListing> {
        let prefix = format!("{}/_log/", self.root);
        let mut listing = LogListing::default();
        for meta in self.store.list(&prefix)? {
            let Some(name) = meta.key.strip_prefix(&prefix) else {
                continue;
            };
            let (digits, into) = match name.rsplit_once('.') {
                Some((digits, "log")) => (digits, &mut listing.commits),
                Some((digits, "ckpt")) => (digits, &mut listing.checkpoints),
                _ => continue,
            };
            if let Ok(version) = digits.parse() {
                into.push((version, meta));
            }
        }
        Ok(listing)
    }

    /// Latest committed version, or `None` for an empty log. One LIST.
    pub fn latest_version(&self) -> Result<Option<u64>> {
        Ok(self.listing()?.latest_version())
    }

    /// One HEAD of commit `version`'s object. Only the store's `NotFound`
    /// means "no such commit"; a throttled, rejected, cancelled or expired
    /// HEAD says nothing about the log and surfaces as the store error.
    fn head_commit(&self, version: u64) -> Result<Option<ObjectMeta>> {
        match self.store.head(&self.key_of(version)) {
            Ok(meta) => Ok(Some(meta)),
            Err(StoreError::NotFound(_)) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    /// Whether a commit after `version` exists — one HEAD, no LIST (see the
    /// module docs for the invariant this rests on).
    pub fn moved_past(&self, version: u64) -> Result<bool> {
        Ok(self.head_commit(version + 1)?.is_some())
    }

    /// Reads the entry at `version`.
    pub fn read(&self, version: u64) -> Result<LogEntry> {
        let meta = self
            .head_commit(version)?
            .ok_or(LakeError::NoSuchVersion(version))?;
        let payload = self.store.get(&self.key_of(version))?;
        Ok(LogEntry {
            version,
            payload,
            timestamp_ms: meta.created_ms,
        })
    }

    fn ckpt_key_of(&self, version: u64) -> String {
        format!("{}/_log/{:0PAD$}.ckpt", self.root, version)
    }

    /// Reads all entries `0..=version` in order: one LIST, then
    /// [`TxLog::read_listed`].
    pub fn read_until(&self, version: u64) -> Result<Vec<LogEntry>> {
        self.read_listed(&self.listing()?, version)
    }

    /// Reads all entries `0..=version` in order off an existing `listing` —
    /// no LIST, **one parallel round trip** of GETs (log objects are
    /// independent, so a reader fetches them with full access width, §V-B).
    /// When a checkpoint at version `c ≤ version` exists, only the
    /// checkpoint (one GET first) plus the tail `c+1..=version` are fetched.
    pub fn read_listed(&self, listing: &LogListing, version: u64) -> Result<Vec<LogEntry>> {
        // Latest usable checkpoint.
        let checkpoint = listing
            .checkpoints
            .iter()
            .filter(|(v, _)| *v <= version)
            .max_by_key(|(v, _)| *v);
        let from = checkpoint.map_or(0, |(v, _)| v + 1);

        let mut metas: Vec<&(u64, ObjectMeta)> = listing
            .commits
            .iter()
            .filter(|(v, _)| (from..=version).contains(v))
            .collect();
        metas.sort_by_key(|(v, _)| *v);
        let expected = (version + 1).saturating_sub(from);
        if metas.len() as u64 != expected {
            let missing = (from..=version)
                .find(|v| !metas.iter().any(|(mv, _)| mv == v))
                .unwrap_or(version);
            return Err(LakeError::NoSuchVersion(missing));
        }

        let mut entries = Vec::with_capacity(metas.len() + 64);
        if let Some((_, meta)) = checkpoint {
            let bytes = self.store.get(&meta.key)?;
            entries.extend(decode_checkpoint(&bytes)?);
        }
        if !metas.is_empty() {
            let requests: Vec<RangeRequest> = metas
                .iter()
                .map(|(_, m)| RangeRequest::new(m.key.clone(), 0..m.size))
                .collect();
            let payloads = self.store.get_ranges(&requests)?;
            entries.extend(
                metas
                    .into_iter()
                    .zip(payloads)
                    .map(|((v, m), payload)| LogEntry {
                        version: *v,
                        payload,
                        timestamp_ms: m.created_ms,
                    }),
            );
        }
        Ok(entries)
    }

    /// Writes a checkpoint object covering entries `0..=version` (one GET
    /// replaces `version + 1` on later reads — Delta Lake's checkpoint
    /// mechanism). Idempotent; checkpoints are immutable and never required
    /// for correctness.
    pub fn write_checkpoint(&self, version: u64) -> Result<()> {
        let entries = self.read_until(version)?;
        let mut buf = Vec::new();
        rottnest_compress::varint::write_usize(&mut buf, entries.len());
        for e in &entries {
            rottnest_compress::varint::write_u64(&mut buf, e.version);
            rottnest_compress::varint::write_u64(&mut buf, e.timestamp_ms);
            rottnest_compress::varint::write_bytes(&mut buf, &e.payload);
        }
        match self
            .store
            .put_if_absent(&self.ckpt_key_of(version), Bytes::from(buf))
        {
            Ok(()) => Ok(()),
            Err(StoreError::AlreadyExists(_)) => Ok(()), // someone else won
            Err(e) => Err(e.into()),
        }
    }

    /// Latest checkpoint version, if any.
    pub fn latest_checkpoint(&self) -> Result<Option<u64>> {
        Ok(self.listing()?.checkpoints.iter().map(|(v, _)| *v).max())
    }

    /// Attempts to commit `payload` at exactly `expected_version`.
    ///
    /// Returns `Conflict` if another writer got there first — callers rebase
    /// and retry.
    pub fn try_commit_at(&self, expected_version: u64, payload: Bytes) -> Result<()> {
        match self
            .store
            .put_if_absent(&self.key_of(expected_version), payload)
        {
            Ok(()) => Ok(()),
            Err(StoreError::AlreadyExists(_)) => Err(LakeError::Conflict(format!(
                "version {expected_version} already committed"
            ))),
            Err(e) => Err(e.into()),
        }
    }

    /// Commits `payload` at the next available version, retrying version
    /// races up to `max_retries` times. Returns the committed version.
    ///
    /// Note: this resolves only *version-number* races. Callers with
    /// logical conflict rules (e.g. the table rejecting double-removes)
    /// should use [`TxLog::try_commit_at`] and re-validate between attempts.
    pub fn commit(&self, payload: Bytes, max_retries: u32) -> Result<u64> {
        let mut version = self.latest_version()?.map_or(0, |v| v + 1);
        for _ in 0..=max_retries {
            match self.try_commit_at(version, payload.clone()) {
                Ok(()) => return Ok(version),
                Err(LakeError::Conflict(_)) => version += 1,
                Err(e) => return Err(e),
            }
        }
        Err(LakeError::Conflict(format!(
            "gave up after {max_retries} retries at version {version}"
        )))
    }
}

fn decode_checkpoint(buf: &[u8]) -> Result<Vec<LogEntry>> {
    use rottnest_compress::varint;
    let mut pos = 0usize;
    let n = varint::read_usize(buf, &mut pos)?;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let version = varint::read_u64(buf, &mut pos)?;
        let timestamp_ms = varint::read_u64(buf, &mut pos)?;
        let payload = Bytes::copy_from_slice(varint::read_bytes(buf, &mut pos)?);
        out.push(LogEntry {
            version,
            payload,
            timestamp_ms,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rottnest_object_store::MemoryStore;

    #[test]
    fn commits_are_sequential() {
        let store = MemoryStore::unmetered();
        let log = TxLog::new(store.as_ref(), "tbl");
        assert_eq!(log.latest_version().unwrap(), None);
        assert_eq!(log.commit(Bytes::from_static(b"a"), 3).unwrap(), 0);
        assert_eq!(log.commit(Bytes::from_static(b"b"), 3).unwrap(), 1);
        assert_eq!(log.latest_version().unwrap(), Some(1));
        assert_eq!(log.read(0).unwrap().payload.as_ref(), b"a");
        assert_eq!(log.read(1).unwrap().payload.as_ref(), b"b");
        assert!(matches!(log.read(2), Err(LakeError::NoSuchVersion(2))));
    }

    #[test]
    fn moved_past_is_one_head_of_the_next_version() {
        let store = MemoryStore::unmetered();
        let log = TxLog::new(store.as_ref(), "tbl");
        log.commit(Bytes::from_static(b"a"), 0).unwrap();
        log.commit(Bytes::from_static(b"b"), 0).unwrap();
        let before = store.stats();
        assert!(log.moved_past(0).unwrap());
        assert!(!log.moved_past(1).unwrap());
        let delta = store.stats().since(&before);
        assert_eq!((delta.heads, delta.lists, delta.gets), (2, 0, 0));
    }

    /// A HEAD that failed says nothing about the log: neither "no such
    /// commit" nor "nothing newer".
    #[test]
    fn store_faults_are_not_read_as_a_missing_commit() {
        let store = MemoryStore::unmetered();
        let log = TxLog::new(store.as_ref(), "tbl");
        log.commit(Bytes::from_static(b"a"), 0).unwrap();
        store
            .faults()
            .schedule_outage(rottnest_object_store::OutageWindow::domain(
                "tbl/_log/",
                0,
                u64::MAX,
            ));
        let transient = |e: &LakeError| matches!(e, LakeError::Store(e) if e.is_retryable());
        for version in [0, 1] {
            let err = log.read(version).unwrap_err();
            assert!(transient(&err), "read({version}): {err:?}");
            let err = log.moved_past(version).unwrap_err();
            assert!(transient(&err), "moved_past({version}): {err:?}");
        }
        store.faults().clear_outages();
        assert!(matches!(log.read(1), Err(LakeError::NoSuchVersion(1))));
        assert!(!log.moved_past(0).unwrap());
    }

    /// The invariant `moved_past` rests on: a checkpoint adds one object
    /// and removes none, so commit objects stay dense.
    #[test]
    fn checkpoint_leaves_every_commit_object_in_place() {
        let store = MemoryStore::unmetered();
        let log = TxLog::new(store.as_ref(), "tbl");
        for i in 0u8..6 {
            log.commit(Bytes::from(vec![i]), 0).unwrap();
        }
        let keys = |store: &MemoryStore| -> Vec<String> {
            let metas = store.list("tbl/_log/").unwrap();
            metas.into_iter().map(|m| m.key).collect()
        };
        let before = keys(&store);
        log.write_checkpoint(3).unwrap();
        log.write_checkpoint(5).unwrap();
        let after = keys(&store);
        assert_eq!(after.len(), before.len() + 2);
        assert!(before.iter().all(|key| after.contains(key)));
        for v in 0..5 {
            assert!(log.moved_past(v).unwrap());
        }
        assert!(!log.moved_past(5).unwrap());
    }

    #[test]
    fn read_until_replays_in_order() {
        let store = MemoryStore::unmetered();
        let log = TxLog::new(store.as_ref(), "tbl");
        for i in 0u8..5 {
            log.commit(Bytes::from(vec![i]), 0).unwrap();
        }
        let entries = log.read_until(4).unwrap();
        assert_eq!(entries.len(), 5);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.version, i as u64);
            assert_eq!(e.payload.as_ref(), &[i as u8]);
        }
    }

    #[test]
    fn explicit_version_conflict() {
        let store = MemoryStore::unmetered();
        let log = TxLog::new(store.as_ref(), "tbl");
        log.try_commit_at(0, Bytes::from_static(b"x")).unwrap();
        assert!(matches!(
            log.try_commit_at(0, Bytes::from_static(b"y")),
            Err(LakeError::Conflict(_))
        ));
    }

    #[test]
    fn concurrent_committers_all_succeed_with_distinct_versions() {
        let store = MemoryStore::unmetered();
        let versions = parking_lot::Mutex::new(Vec::new());
        crossbeam::scope(|scope| {
            for i in 0..8u8 {
                let store = &store;
                let versions = &versions;
                scope.spawn(move |_| {
                    let log = TxLog::new(store.as_ref(), "tbl");
                    let v = log.commit(Bytes::from(vec![i]), 32).unwrap();
                    versions.lock().push(v);
                });
            }
        })
        .unwrap();
        let mut got = versions.into_inner();
        got.sort_unstable();
        assert_eq!(got, (0..8).collect::<Vec<u64>>());
    }

    #[test]
    fn logs_under_different_roots_are_isolated() {
        let store = MemoryStore::unmetered();
        let a = TxLog::new(store.as_ref(), "a");
        let b = TxLog::new(store.as_ref(), "b");
        a.commit(Bytes::from_static(b"1"), 0).unwrap();
        assert_eq!(b.latest_version().unwrap(), None);
    }

    #[test]
    fn checkpoint_replaces_prefix_reads() {
        let store = MemoryStore::unmetered();
        let log = TxLog::new(store.as_ref(), "tbl");
        for i in 0u8..10 {
            log.commit(Bytes::from(vec![i]), 0).unwrap();
        }
        log.write_checkpoint(6).unwrap();
        assert_eq!(log.latest_checkpoint().unwrap(), Some(6));

        // Full replay is identical with and without the checkpoint.
        let entries = log.read_until(9).unwrap();
        assert_eq!(entries.len(), 10);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.version, i as u64);
            assert_eq!(e.payload.as_ref(), &[i as u8]);
        }

        // Reading past the checkpoint costs 1 LIST + checkpoint GET + tail
        // batch instead of 10 log GETs.
        let before = store.stats();
        log.read_until(9).unwrap();
        let delta = store.stats().since(&before);
        assert!(delta.gets <= 4 + 1, "gets with checkpoint: {}", delta.gets);
    }

    #[test]
    fn one_listing_serves_the_version_probe_and_the_replay() {
        let store = MemoryStore::unmetered();
        let log = TxLog::new(store.as_ref(), "tbl");
        for i in 0u8..6 {
            log.commit(Bytes::from(vec![i]), 0).unwrap();
        }
        log.write_checkpoint(2).unwrap();
        let before = store.stats();
        let listing = log.listing().unwrap();
        let latest = listing.latest_version().unwrap();
        let entries = log.read_listed(&listing, latest).unwrap();
        assert_eq!(store.stats().since(&before).lists, 1);
        assert_eq!(latest, 5);
        assert_eq!(entries, log.read_until(5).unwrap());
        // The same listing replays any earlier version too.
        assert_eq!(
            log.read_listed(&listing, 1).unwrap(),
            log.read_until(1).unwrap()
        );
    }

    #[test]
    fn checkpoint_is_idempotent_and_optional() {
        let store = MemoryStore::unmetered();
        let log = TxLog::new(store.as_ref(), "tbl");
        for i in 0u8..4 {
            log.commit(Bytes::from(vec![i]), 0).unwrap();
        }
        log.write_checkpoint(3).unwrap();
        log.write_checkpoint(3).unwrap(); // no error on re-run
                                          // Reads below the checkpoint ignore it.
        let entries = log.read_until(2).unwrap();
        assert_eq!(entries.len(), 3);
    }

    #[test]
    fn read_until_missing_version_errors() {
        let store = MemoryStore::unmetered();
        let log = TxLog::new(store.as_ref(), "tbl");
        log.commit(Bytes::from_static(b"a"), 0).unwrap();
        assert!(matches!(
            log.read_until(5),
            Err(LakeError::NoSuchVersion(_))
        ));
    }
}
