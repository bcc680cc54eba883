//! Table operations: append, row deletes, compaction, vacuum, time travel.

use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use rottnest_format::{
    ChunkReader, ColumnData, FileMeta, FileWriter, PageCache, RecordBatch, Schema, WriterOptions,
};
use rottnest_object_store::{ObjectStore, RetryPolicy, RetryStore};

use crate::dv::DeletionVector;
use crate::log::TxLog;
use crate::snapshot::{FileEntry, Snapshot};
use crate::{Action, LakeError, Result};

/// Table tuning knobs.
#[derive(Debug, Clone, Default)]
pub struct TableConfig {
    /// Options for data files written by this handle.
    pub writer: WriterOptions,
    /// Optimistic-concurrency retry budget for commits.
    pub max_commit_retries: u32,
    /// Request-level retry/backoff policy; every store request this handle
    /// issues runs under it (default: jittered exponential backoff).
    pub retry: RetryPolicy,
}

impl TableConfig {
    fn retries(&self) -> u32 {
        if self.max_commit_retries == 0 {
            16
        } else {
            self.max_commit_retries
        }
    }
}

static FILE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A handle to a transactional table rooted at `<root>/` on an object store.
///
/// Multiple handles (including in other processes) may operate on the same
/// table concurrently; every state change goes through the commit log.
pub struct Table<'a> {
    store: &'a dyn ObjectStore,
    retry: RetryStore<&'a dyn ObjectStore>,
    root: String,
    config: TableConfig,
}

impl<'a> Table<'a> {
    fn handle(store: &'a dyn ObjectStore, root: String, config: TableConfig) -> Self {
        let retry = RetryStore::new(store, config.retry.clone());
        Self {
            store,
            retry,
            root,
            config,
        }
    }

    /// Creates a new table by committing version 0 with the schema.
    pub fn create(
        store: &'a dyn ObjectStore,
        root: impl Into<String>,
        schema: &Schema,
        config: TableConfig,
    ) -> Result<Self> {
        let this = Self::handle(store, root.into(), config);
        let mut schema_bytes = Vec::new();
        schema.encode(&mut schema_bytes);
        let mut payload = Vec::new();
        Action::Init { schema_bytes }.encode(&mut payload);
        this.log().try_commit_at(0, Bytes::from(payload))?;
        Ok(this)
    }

    /// Opens an existing table (errors if it has no log).
    pub fn open(
        store: &'a dyn ObjectStore,
        root: impl Into<String>,
        config: TableConfig,
    ) -> Result<Self> {
        let this = Self::handle(store, root.into(), config);
        if this.log().latest_version()?.is_none() {
            return Err(LakeError::Corrupt(format!("no table at {}", this.root)));
        }
        Ok(this)
    }

    /// The table's root prefix.
    pub fn root(&self) -> &str {
        &self.root
    }

    /// The store this handle issues requests through — the backing store
    /// wrapped in the handle's [`RetryStore`], so readers layered on top
    /// (page probes, brute-force scans) inherit transient-fault tolerance.
    pub fn store(&self) -> &dyn ObjectStore {
        &self.retry
    }

    /// The raw backing store, bypassing the retry layer.
    pub fn raw_store(&self) -> &'a dyn ObjectStore {
        self.store
    }

    fn log(&self) -> TxLog<'_> {
        TxLog::new(&self.retry, self.root.clone())
    }

    /// Latest snapshot: one LIST serves both the version probe and the
    /// replay.
    pub fn snapshot(&self) -> Result<Snapshot> {
        let log = self.log();
        let listing = log.listing()?;
        let version = listing
            .latest_version()
            .ok_or_else(|| LakeError::Corrupt("empty log".into()))?;
        Snapshot::replay(&log.read_listed(&listing, version)?)
    }

    /// Snapshot at a historical version (time travel).
    pub fn snapshot_at(&self, version: u64) -> Result<Snapshot> {
        Snapshot::replay(&self.log().read_until(version)?)
    }

    fn fresh_name(&self, dir: &str, ext: &str) -> String {
        let seq = FILE_SEQ.fetch_add(1, Ordering::Relaxed);
        format!(
            "{}/{dir}/{:012}-{seq:06}.{ext}",
            self.root,
            self.retry.now_ms()
        )
    }

    /// Writes `batch` as a new data file and commits it. Returns the file's
    /// path.
    pub fn append(&self, batch: &RecordBatch) -> Result<String> {
        let path = self.fresh_name("data", "lkpq");
        let mut writer =
            FileWriter::with_options(batch.schema().clone(), self.config.writer.clone());
        writer.write_batch(batch)?;
        let (bytes, meta) = writer.finish()?;
        let size = bytes.len() as u64;
        self.retry.put(&path, bytes)?;

        let mut payload = Vec::new();
        Action::AddFile {
            path: path.clone(),
            rows: meta.num_rows,
            size,
        }
        .encode(&mut payload);
        self.log()
            .commit(Bytes::from(payload), self.config.retries())?;
        Ok(path)
    }

    /// Commits with logical validation: re-reads the snapshot between
    /// attempts and calls `validate` against it before each try.
    fn commit_validated(
        &self,
        actions: &[Action],
        validate: impl Fn(&Snapshot) -> Result<()>,
    ) -> Result<u64> {
        let log = self.log();
        let mut payload = Vec::new();
        for a in actions {
            a.encode(&mut payload);
        }
        let payload = Bytes::from(payload);
        for _ in 0..=self.config.retries() {
            let snap = self.snapshot()?;
            validate(&snap)?;
            match log.try_commit_at(snap.version() + 1, payload.clone()) {
                Ok(()) => return Ok(snap.version() + 1),
                Err(LakeError::Conflict(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(LakeError::Conflict(
            "validated commit retries exhausted".into(),
        ))
    }

    /// Marks file-local `rows` of `path` deleted by writing a (unioned)
    /// deletion vector sidecar and committing it.
    pub fn delete_rows(&self, path: &str, rows: &[u64]) -> Result<()> {
        if rows.is_empty() {
            return Ok(());
        }
        let snap = self.snapshot()?;
        let entry = snap
            .file(path)
            .ok_or_else(|| LakeError::Conflict(format!("{path} is not active")))?;
        let existing = self.load_dv(entry)?.unwrap_or_default();
        let merged = existing.union(&DeletionVector::from_rows(rows.to_vec()));
        let dv_path = self.fresh_name("dv", "dv");
        self.retry.put(&dv_path, merged.to_bytes())?;

        let actions = [Action::SetDeletionVector {
            data_path: path.to_string(),
            dv_path: dv_path.clone(),
        }];
        let path_owned = path.to_string();
        self.commit_validated(&actions, move |snap| {
            if snap.contains(&path_owned) {
                Ok(())
            } else {
                Err(LakeError::Conflict(format!(
                    "{path_owned} removed concurrently"
                )))
            }
        })?;
        Ok(())
    }

    /// Deletes every row of column `col` for which `pred` returns true.
    /// Returns the number of rows newly deleted. A full-scan helper used by
    /// tests and examples; real engines push predicates down.
    pub fn delete_where(
        &self,
        col: usize,
        pred: impl Fn(rottnest_format::ValueRef<'_>) -> bool,
    ) -> Result<u64> {
        let snap = self.snapshot()?;
        let mut deleted = 0u64;
        for entry in snap.files().cloned().collect::<Vec<_>>() {
            let reader = ChunkReader::open(&self.retry, &entry.path)?;
            let data = reader.read_column(col)?;
            let existing = self.load_dv(&entry)?.unwrap_or_default();
            let mut hit = Vec::new();
            for i in 0..data.len() {
                if !existing.contains(i as u64) && pred(data.get(i).unwrap()) {
                    hit.push(i as u64);
                }
            }
            if !hit.is_empty() {
                deleted += hit.len() as u64;
                self.delete_rows(&entry.path, &hit)?;
            }
        }
        Ok(deleted)
    }

    /// Loads a file's deletion vector, if it has one.
    pub fn load_dv(&self, entry: &FileEntry) -> Result<Option<DeletionVector>> {
        match &entry.dv_path {
            None => Ok(None),
            Some(path) => {
                let bytes = self.retry.get(path)?;
                Ok(Some(DeletionVector::from_bytes(&bytes)?))
            }
        }
    }

    /// Compacts data files smaller than `small_bytes` into one merged file
    /// (dropping deleted rows), committing `Remove*` + `Add`. Returns the
    /// new file's path, or `None` if fewer than two files qualified.
    ///
    /// This is the *data lake's own* compaction — the operation that
    /// invalidates Rottnest index files pointing at the old paths, which the
    /// protocol must tolerate (Figure 3's `b.parquet + c.parquet →
    /// d.parquet`).
    pub fn compact(&self, small_bytes: u64) -> Result<Option<String>> {
        let snap = self.snapshot()?;
        let victims: Vec<FileEntry> = snap
            .files()
            .filter(|f| f.size < small_bytes)
            .cloned()
            .collect();
        if victims.len() < 2 {
            return Ok(None);
        }
        let schema = snap.schema().clone();

        // Gather surviving rows column by column.
        let mut columns: Vec<ColumnData> = schema
            .fields()
            .iter()
            .map(|f| ColumnData::empty(f.data_type))
            .collect();
        for entry in &victims {
            let reader = ChunkReader::open(&self.retry, &entry.path)?;
            let dv = self.load_dv(entry)?.unwrap_or_default();
            for (c, out) in columns.iter_mut().enumerate() {
                let data = reader.read_column(c)?;
                if dv.is_empty() {
                    out.extend_from(&data)?;
                } else {
                    for i in 0..data.len() {
                        if !dv.contains(i as u64) {
                            out.extend_from(&data.slice(i, 1))?;
                        }
                    }
                }
            }
        }
        let batch = RecordBatch::new(schema.clone(), columns)?;

        let path = self.fresh_name("data", "lkpq");
        let mut writer = FileWriter::with_options(schema, self.config.writer.clone());
        writer.write_batch(&batch)?;
        let (bytes, meta) = writer.finish()?;
        let size = bytes.len() as u64;
        self.retry.put(&path, bytes)?;

        let mut actions: Vec<Action> = victims
            .iter()
            .map(|f| Action::RemoveFile {
                path: f.path.clone(),
            })
            .collect();
        actions.push(Action::AddFile {
            path: path.clone(),
            rows: meta.num_rows,
            size,
        });

        let victim_paths: Vec<String> = victims.iter().map(|f| f.path.clone()).collect();
        self.commit_validated(&actions, move |snap| {
            for p in &victim_paths {
                if !snap.contains(p) {
                    return Err(LakeError::Conflict(format!("{p} already removed")));
                }
            }
            Ok(())
        })?;
        // The merged file replaces the victims: hint the page cache so the
        // dead files' pages stop pinning budget before eviction gets there.
        self.invalidate_cached_pages(victims.iter().map(|f| f.path.as_str()));
        Ok(Some(path))
    }

    /// Emits page-cache and negative-scan-cache invalidation hints for
    /// files this table has replaced (compaction, clustering rewrites) or
    /// physically deleted (vacuum). Correctness never depends on this —
    /// validators already fence stale generations — it only releases dead
    /// bytes (and dead proven-empty records) early.
    fn invalidate_cached_pages<'p>(&self, paths: impl IntoIterator<Item = &'p str>) {
        let ns = self.retry.store_id();
        if ns == 0 {
            return;
        }
        for path in paths {
            PageCache::global().invalidate_file(ns, path);
            rottnest_format::NegScanCache::global().invalidate_file(ns, path);
        }
    }

    /// Physically deletes data/dv files no longer referenced by the latest
    /// snapshot and older than `retention_ms` on the store's clock. Returns
    /// the number of objects removed.
    pub fn vacuum(&self, retention_ms: u64) -> Result<u64> {
        let snap = self.snapshot()?;
        let now = self.retry.now_ms();
        let mut live: std::collections::BTreeSet<String> =
            snap.files().map(|f| f.path.clone()).collect();
        live.extend(snap.files().filter_map(|f| f.dv_path.clone()));

        let mut removed = 0u64;
        for dir in ["data", "dv"] {
            for meta in self.retry.list(&format!("{}/{dir}/", self.root))? {
                if !live.contains(&meta.key) && now.saturating_sub(meta.created_ms) >= retention_ms
                {
                    self.retry.delete(&meta.key)?;
                    self.invalidate_cached_pages([meta.key.as_str()]);
                    removed += 1;
                }
            }
        }
        Ok(removed)
    }

    /// Opens a file's metadata (footer round trips included).
    pub fn file_meta(&self, path: &str) -> Result<FileMeta> {
        Ok(ChunkReader::open(&self.retry, path)?.meta().clone())
    }

    /// Writes a commit-log checkpoint at the current version, so later
    /// snapshot reads fetch one object instead of the whole log.
    pub fn checkpoint(&self) -> Result<u64> {
        let log = self.log();
        let version = log
            .latest_version()?
            .ok_or_else(|| LakeError::Corrupt("empty log".into()))?;
        log.write_checkpoint(version)?;
        Ok(version)
    }

    /// Rewrites the whole table sorted by column `col` (a Z-order /
    /// clustering maintenance pass): reads every live row, sorts, writes one
    /// new file, commits `Remove*` + `Add`. Returns the new file's path.
    ///
    /// Like compaction, this invalidates every physical location an index
    /// may point at — the hardest case for Rottnest's consistency protocol.
    pub fn rewrite_sorted(&self, col: usize) -> Result<String> {
        let snap = self.snapshot()?;
        let schema = snap.schema().clone();
        let victims: Vec<FileEntry> = snap.files().cloned().collect();
        if victims.is_empty() {
            return Err(LakeError::Corrupt("nothing to rewrite".into()));
        }

        // Materialize live rows.
        let mut columns: Vec<ColumnData> = schema
            .fields()
            .iter()
            .map(|f| ColumnData::empty(f.data_type))
            .collect();
        for entry in &victims {
            let reader = ChunkReader::open(&self.retry, &entry.path)?;
            let dv = self.load_dv(entry)?.unwrap_or_default();
            let file_cols: Vec<ColumnData> = (0..schema.len())
                .map(|c| reader.read_column(c))
                .collect::<std::result::Result<_, _>>()?;
            for i in 0..file_cols[0].len() {
                if dv.contains(i as u64) {
                    continue;
                }
                for (out, data) in columns.iter_mut().zip(&file_cols) {
                    out.extend_from(&data.slice(i, 1))?;
                }
            }
        }

        // Sort row indices by the clustering column.
        let key_col = &columns[col];
        let mut order: Vec<usize> = (0..key_col.len()).collect();
        order.sort_by(|&a, &b| {
            use rottnest_format::ValueRef;
            match (key_col.get(a), key_col.get(b)) {
                (Some(ValueRef::Int64(x)), Some(ValueRef::Int64(y))) => x.cmp(&y),
                (Some(ValueRef::Utf8(x)), Some(ValueRef::Utf8(y))) => x.cmp(y),
                (Some(ValueRef::Binary(x)), Some(ValueRef::Binary(y))) => x.cmp(y),
                _ => std::cmp::Ordering::Equal,
            }
        });
        let sorted: Vec<ColumnData> = columns
            .iter()
            .map(|c| {
                let mut out = ColumnData::empty(c.data_type());
                for &i in &order {
                    out.extend_from(&c.slice(i, 1)).expect("same type");
                }
                out
            })
            .collect();
        let batch = RecordBatch::new(schema.clone(), sorted)?;

        let path = self.fresh_name("data", "lkpq");
        let mut writer = FileWriter::with_options(schema, self.config.writer.clone());
        writer.write_batch(&batch)?;
        let (bytes, meta) = writer.finish()?;
        let size = bytes.len() as u64;
        self.retry.put(&path, bytes)?;

        let mut actions: Vec<Action> = victims
            .iter()
            .map(|f| Action::RemoveFile {
                path: f.path.clone(),
            })
            .collect();
        actions.push(Action::AddFile {
            path: path.clone(),
            rows: meta.num_rows,
            size,
        });
        let victim_paths: Vec<String> = victims.iter().map(|f| f.path.clone()).collect();
        self.commit_validated(&actions, move |snap| {
            for p in &victim_paths {
                if !snap.contains(p) {
                    return Err(LakeError::Conflict(format!("{p} already removed")));
                }
            }
            Ok(())
        })?;
        self.invalidate_cached_pages(victims.iter().map(|f| f.path.as_str()));
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rottnest_format::{DataType, Field, ValueRef};
    use rottnest_object_store::{FaultKind, MemoryStore};

    fn schema() -> Schema {
        Schema::new(vec![
            Field::new("id", DataType::Int64),
            Field::new("msg", DataType::Utf8),
        ])
    }

    fn batch(range: std::ops::Range<i64>) -> RecordBatch {
        RecordBatch::new(
            schema(),
            vec![
                ColumnData::Int64(range.clone().collect()),
                ColumnData::from_strings(range.map(|i| format!("message {i}"))),
            ],
        )
        .unwrap()
    }

    fn table(store: &dyn ObjectStore) -> Table<'_> {
        Table::create(store, "tbl", &schema(), TableConfig::default()).unwrap()
    }

    #[test]
    fn create_append_snapshot() {
        let store = MemoryStore::unmetered();
        let t = table(store.as_ref());
        let p1 = t.append(&batch(0..10)).unwrap();
        let p2 = t.append(&batch(10..30)).unwrap();
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.num_files(), 2);
        assert_eq!(snap.total_rows(), 30);
        assert!(snap.contains(&p1) && snap.contains(&p2));
        assert_eq!(snap.schema(), &schema());
    }

    #[test]
    fn open_requires_existing_log() {
        let store = MemoryStore::unmetered();
        assert!(Table::open(store.as_ref(), "ghost", TableConfig::default()).is_err());
        table(store.as_ref());
        assert!(Table::open(store.as_ref(), "tbl", TableConfig::default()).is_ok());
    }

    #[test]
    fn time_travel_sees_old_state() {
        let store = MemoryStore::unmetered();
        let t = table(store.as_ref());
        t.append(&batch(0..5)).unwrap(); // version 1
        t.append(&batch(5..9)).unwrap(); // version 2
        let old = t.snapshot_at(1).unwrap();
        assert_eq!(old.num_files(), 1);
        assert_eq!(old.total_rows(), 5);
    }

    #[test]
    fn delete_rows_accumulates_dvs() {
        let store = MemoryStore::unmetered();
        let t = table(store.as_ref());
        let p = t.append(&batch(0..10)).unwrap();
        t.delete_rows(&p, &[1, 3]).unwrap();
        t.delete_rows(&p, &[3, 7]).unwrap();
        let snap = t.snapshot().unwrap();
        let dv = t.load_dv(snap.file(&p).unwrap()).unwrap().unwrap();
        assert_eq!(dv.rows(), &[1, 3, 7]);
    }

    #[test]
    fn delete_where_scans_all_files() {
        let store = MemoryStore::unmetered();
        let t = table(store.as_ref());
        t.append(&batch(0..10)).unwrap();
        t.append(&batch(10..20)).unwrap();
        let n = t
            .delete_where(0, |v| matches!(v, ValueRef::Int64(i) if i % 2 == 0))
            .unwrap();
        assert_eq!(n, 10);
        // Second call deletes nothing new.
        let n2 = t
            .delete_where(0, |v| matches!(v, ValueRef::Int64(i) if i % 2 == 0))
            .unwrap();
        assert_eq!(n2, 0);
    }

    #[test]
    fn compact_merges_small_files_and_drops_deleted_rows() {
        let store = MemoryStore::unmetered();
        let t = table(store.as_ref());
        let p1 = t.append(&batch(0..10)).unwrap();
        t.append(&batch(10..20)).unwrap();
        t.delete_rows(&p1, &[0, 1]).unwrap();

        let merged = t.compact(u64::MAX).unwrap().expect("should compact");
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.num_files(), 1);
        assert!(snap.contains(&merged));
        assert_eq!(snap.total_rows(), 18, "two deleted rows dropped");

        // Merged data is intact and ordered per input file.
        let reader = ChunkReader::open(store.as_ref(), &merged).unwrap();
        let ids = reader.read_column(0).unwrap();
        let got: Vec<i64> = (0..ids.len())
            .map(|i| match ids.get(i).unwrap() {
                ValueRef::Int64(v) => v,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, (2..20).collect::<Vec<i64>>());
    }

    #[test]
    fn compact_with_one_small_file_is_noop() {
        let store = MemoryStore::unmetered();
        let t = table(store.as_ref());
        t.append(&batch(0..10)).unwrap();
        assert!(t.compact(u64::MAX).unwrap().is_none());
    }

    #[test]
    fn vacuum_removes_only_old_unreferenced_files() {
        let store = MemoryStore::new(); // metered => clock moves
        let t = Table::create(store.as_ref(), "tbl", &schema(), TableConfig::default()).unwrap();
        t.append(&batch(0..10)).unwrap();
        t.append(&batch(10..20)).unwrap();
        t.compact(u64::MAX).unwrap().unwrap();

        // Old files still within retention: kept.
        assert_eq!(t.vacuum(3_600_000).unwrap(), 0);
        let files_before = store.list("tbl/data/").unwrap().len();
        assert_eq!(files_before, 3);

        // Let simulated time pass beyond retention.
        store.clock().unwrap().advance_ms(3_600_001);
        let removed = t.vacuum(3_600_000).unwrap();
        assert_eq!(removed, 2);
        assert_eq!(store.list("tbl/data/").unwrap().len(), 1);

        // Table still reads fine.
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.total_rows(), 20);
    }

    #[test]
    fn concurrent_appends_all_land() {
        let store = MemoryStore::unmetered();
        Table::create(store.as_ref(), "tbl", &schema(), TableConfig::default()).unwrap();
        crossbeam::scope(|scope| {
            for k in 0..6i64 {
                let store = &store;
                scope.spawn(move |_| {
                    let t = Table::open(store.as_ref(), "tbl", TableConfig::default()).unwrap();
                    t.append(&batch(k * 10..k * 10 + 10)).unwrap();
                });
            }
        })
        .unwrap();
        let t = Table::open(store.as_ref(), "tbl", TableConfig::default()).unwrap();
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.num_files(), 6);
        assert_eq!(snap.total_rows(), 60);
    }

    #[test]
    fn delete_on_removed_file_conflicts() {
        let store = MemoryStore::unmetered();
        let t = table(store.as_ref());
        let p1 = t.append(&batch(0..10)).unwrap();
        t.append(&batch(10..20)).unwrap();
        t.compact(u64::MAX).unwrap().unwrap(); // removes p1
        assert!(matches!(
            t.delete_rows(&p1, &[0]),
            Err(LakeError::Conflict(_))
        ));
    }

    #[test]
    fn rewrite_sorted_orders_rows_and_invalidates_old_files() {
        let store = MemoryStore::unmetered();
        let t = table(store.as_ref());
        t.append(&batch(5..10)).unwrap();
        t.append(&batch(0..5)).unwrap();
        let p = t.snapshot().unwrap().files().next().unwrap().path.clone();
        t.delete_rows(&p, &[0]).unwrap(); // delete id 5

        let new_path = t.rewrite_sorted(0).unwrap();
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.num_files(), 1);
        assert!(snap.contains(&new_path));
        assert_eq!(snap.total_rows(), 9);

        let reader = ChunkReader::open(store.as_ref(), &new_path).unwrap();
        let ids = reader.read_column(0).unwrap();
        let got: Vec<i64> = (0..ids.len())
            .map(|i| match ids.get(i).unwrap() {
                ValueRef::Int64(v) => v,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(got, vec![0, 1, 2, 3, 4, 6, 7, 8, 9], "sorted, id 5 deleted");
    }

    #[test]
    fn commit_with_lost_ack_is_not_duplicated() {
        let store = MemoryStore::unmetered();
        let t = table(store.as_ref());
        // The commit's put_if_absent lands but reports a transient failure;
        // the retry layer must recognise its own winning write instead of
        // treating it as a conflict and re-committing at the next version.
        store
            .faults()
            .arm(FaultKind::AckLostPutMatching("_log".into()));
        t.append(&batch(0..10)).unwrap();
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.version(), 1, "exactly one commit after the init");
        assert_eq!(snap.num_files(), 1);
        assert_eq!(snap.total_rows(), 10);
        assert!(store.stats().retries >= 1);
    }

    #[test]
    fn transient_faults_during_table_ops_are_absorbed() {
        let store = MemoryStore::unmetered();
        let t = table(store.as_ref());
        let p = t.append(&batch(0..10)).unwrap();
        store
            .faults()
            .arm(FaultKind::TransientGetMatching(".lkpq".into()));
        store
            .faults()
            .arm(FaultKind::TransientPutMatching("dv".into()));
        t.delete_rows(&p, &[2]).unwrap();
        store
            .faults()
            .arm(FaultKind::TransientDeleteMatching("data".into()));
        t.append(&batch(10..20)).unwrap();
        t.compact(u64::MAX).unwrap().unwrap();
        // Two stale data files plus the orphaned deletion-vector sidecar.
        assert_eq!(t.vacuum(0).unwrap(), 3, "vacuum retried its way through");
        assert_eq!(t.snapshot().unwrap().total_rows(), 19);
    }

    #[test]
    fn checkpoint_accelerates_snapshot_reads() {
        let store = MemoryStore::unmetered();
        let t = table(store.as_ref());
        for i in 0..8i64 {
            t.append(&batch(i * 5..(i + 1) * 5)).unwrap();
        }
        let v = t.checkpoint().unwrap();
        assert_eq!(v, 8);
        t.append(&batch(40..45)).unwrap();

        let before = store.stats();
        let snap = t.snapshot().unwrap();
        let delta = store.stats().since(&before);
        assert_eq!(snap.total_rows(), 45);
        assert!(
            delta.gets <= 3,
            "checkpointed snapshot read took {} GETs",
            delta.gets
        );
    }
}
