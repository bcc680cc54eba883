//! Index maintenance (§IV-A, §IV-C): `index`, `compact`, `vacuum`, each a
//! plan → build → upload → commit sequence under the index timeout.

use std::sync::atomic::{AtomicU64, Ordering};

use rottnest_lake::{FileEntry, Table, TxLog};
use rottnest_object_store::{FxHashMap, FxHashSet};

use crate::build::BuildJob;
use crate::family::{self, MergeJob};
use crate::meta::{IndexEntry, IndexKind, MetaOp, MetaTable};
use crate::plan::greedy_cover;
use crate::rottnest::{Rottnest, VacuumReport};
use crate::{Result, RottnestError};

static INDEX_SEQ: AtomicU64 = AtomicU64::new(0);

impl Rottnest<'_> {
    fn fresh_index_key(&self, ext: &str) -> String {
        let seq = INDEX_SEQ.fetch_add(1, Ordering::Relaxed);
        format!(
            "{}/files/{:012}-{seq:06}.{ext}",
            self.index_dir,
            self.store().now_ms()
        )
    }

    /// Index operations must finish within `index_timeout_ms` of their
    /// start: past it, `vacuum` is entitled to delete what they uploaded,
    /// so committing would break Existence (§IV-A step 4, §IV-C/D).
    fn check_timeout(&self, start_ms: u64) -> Result<()> {
        let elapsed = self.store().now_ms().saturating_sub(start_ms);
        if elapsed > self.config().index_timeout_ms {
            return Err(RottnestError::Aborted(format!(
                "index operation exceeded timeout ({elapsed}ms > {}ms)",
                self.config().index_timeout_ms
            )));
        }
        Ok(())
    }

    /// Commits what `make_ops` builds, trying `*next` — where the caller's
    /// scan or last commit left the log — before any LIST, and leaves
    /// `*next` after the commit. This client then knows the log moved: its
    /// cached plan goes, so its next search LISTs straight away instead of
    /// probing for freshness first.
    fn commit_ops(&self, next: &mut u64, make_ops: impl FnMut(u64) -> Vec<MetaOp>) -> Result<()> {
        let retries = self.config().meta_retries;
        *next = self.meta().commit_from(Some(*next), retries, make_ops)? + 1;
        *self.plan_cache.lock().expect("plan cache lock") = None;
        Ok(())
    }

    /// Commits `entry` (its id is assigned from the commit version) and the
    /// removal of the records it `replaces`, atomically.
    fn commit_entry(
        &self,
        next: &mut u64,
        mut entry: IndexEntry,
        replaces: &[u64],
    ) -> Result<IndexEntry> {
        self.commit_ops(next, |version| {
            entry.id = MetaTable::id_for(version, 0);
            let mut ops: Vec<MetaOp> = replaces.iter().map(|&id| MetaOp::Remove(id)).collect();
            ops.push(MetaOp::Add(Box::new(entry.clone())));
            ops
        })?;
        Ok(entry)
    }

    /// §IV-A: indexes every Parquet file in the latest snapshot not yet
    /// covered by the metadata table. Returns the new entry, or `None` when
    /// nothing needed indexing (or the kind declined to build over so few
    /// rows).
    pub fn index(
        &self,
        table: &Table<'_>,
        kind: IndexKind,
        column: &str,
    ) -> Result<Option<IndexEntry>> {
        let start_ms = self.store().now_ms();
        // 1. Plan.
        let snapshot = table.snapshot()?;
        let (entries, mut next) = self.meta().scan_for_commit()?;
        let indexed: FxHashSet<String> = entries
            .iter()
            .filter(|e| e.kind.compatible(&kind) && e.column == column)
            .flat_map(|e| e.covered_paths().map(str::to_string))
            .collect();
        let new_files: Vec<FileEntry> = snapshot
            .files()
            .filter(|f| !indexed.contains(&f.path))
            .cloned()
            .collect();
        if new_files.is_empty() {
            return Ok(None);
        }

        // 2. Index (aborts if an input file vanished mid-build, or if the
        // timeout budget runs out between files).
        let job = BuildJob {
            store: self.store(),
            config: self.config(),
            column,
            files: &new_files,
            check: &|| self.check_timeout(start_ms),
        };
        let Some((bytes, files)) = family::with(kind, |f| f.build(&job))? else {
            // Abort in favor of brute-force scanning (§IV-A footnote 2).
            return Ok(None);
        };
        self.check_timeout(start_ms)?;

        // Upload.
        let path = self.fresh_index_key(family::with(kind, |f| f.ext()));
        let size = bytes.len() as u64;
        self.store().put(&path, bytes)?;
        self.check_timeout(start_ms)?;

        // 3. Commit.
        let entry = IndexEntry {
            id: 0,
            kind,
            column: column.to_string(),
            path,
            size,
            rows: job.total_rows(),
            created_ms: self.store().now_ms(),
            files,
        };
        self.commit_entry(&mut next, entry, &[]).map(Some)
    }

    /// §IV-C: merges small index files of one kind/column (bin packing),
    /// committing `remove`s and the `add` atomically. Old index files stay
    /// behind for `vacuum`. Returns the merged entries created.
    pub fn compact(&self, kind: IndexKind, column: &str) -> Result<Vec<IndexEntry>> {
        let start_ms = self.store().now_ms();
        // 1. Plan.
        let (entries, mut next) = self.meta().scan_for_commit()?;
        let mut small: Vec<IndexEntry> = entries
            .into_iter()
            .filter(|e| {
                e.kind.compatible(&kind)
                    && e.column == column
                    && e.size < self.config().compact_below_bytes
            })
            .collect();
        small.sort_by_key(|e| e.size);

        let mut created = Vec::new();
        for bin in small.chunks(self.config().compact_fanin.max(2)) {
            if bin.len() < 2 {
                continue;
            }
            self.check_timeout(start_ms)?;
            // 2. Merge (uploads the merged file).
            let path = self.fresh_index_key(family::with(kind, |f| f.ext()));
            let job = MergeJob {
                store: self.store(),
                config: self.config(),
                bin,
                out_key: &path,
            };
            let size = family::with(kind, |f| f.merge(&job))?;
            self.check_timeout(start_ms)?;

            // 3. Commit (removes + add, atomically).
            let entry = IndexEntry {
                id: 0,
                kind,
                column: column.to_string(),
                path,
                size,
                rows: bin.iter().map(|e| e.rows).sum(),
                created_ms: self.store().now_ms(),
                files: bin.iter().flat_map(|e| e.files.iter().cloned()).collect(),
            };
            let replaces: Vec<u64> = bin.iter().map(|e| e.id).collect();
            created.push(self.commit_entry(&mut next, entry, &replaces)?);
        }
        Ok(created)
    }

    /// Writes a checkpoint of the metadata table's log, so search planning
    /// reads one object instead of the whole commit history. Safe to run
    /// any time, from any process.
    pub fn checkpoint_meta(&self) -> Result<()> {
        let log = TxLog::new(self.store(), format!("{}/meta", self.index_dir));
        if let Some(v) = log.latest_version()? {
            log.write_checkpoint(v)?;
        }
        Ok(())
    }

    /// §IV-C `vacuum`: keeps a greedy cover of the latest snapshot's files
    /// per (kind, column) group, removes the rest from the metadata table,
    /// then physically deletes unreferenced index objects **older than the
    /// index timeout** (so concurrent uncommitted uploads survive).
    pub fn vacuum(&self, table: &Table<'_>) -> Result<VacuumReport> {
        let snapshot = table.snapshot()?;
        let active: FxHashSet<&str> = snapshot.files().map(|f| f.path.as_str()).collect();
        let meta = self.meta();
        let (entries, mut next) = meta.scan_for_commit()?;

        // 1. Plan: greedy cover per (kind, column).
        let mut groups: FxHashMap<(&str, &'static str), Vec<&IndexEntry>> = FxHashMap::default();
        for e in &entries {
            let ext = family::with(e.kind, |f| f.ext());
            groups.entry((&e.column, ext)).or_default().push(e);
        }
        let keep: FxHashSet<u64> = groups
            .into_values()
            .flat_map(|group| greedy_cover(group, &active).0)
            .map(|e| e.id)
            .collect();

        // 2. Commit removals.
        let doomed: Vec<u64> = entries
            .iter()
            .filter(|e| !keep.contains(&e.id))
            .map(|e| e.id)
            .collect();
        let mut report = VacuumReport {
            records_removed: doomed.len() as u64,
            ..Default::default()
        };
        if !doomed.is_empty() {
            self.commit_ops(&mut next, |_| {
                doomed.iter().map(|&id| MetaOp::Remove(id)).collect()
            })?;
        }

        // 3. Remove: LIST the index dir, delete unreferenced objects older
        // than the timeout (store clock).
        let referenced: FxHashSet<String> = meta.scan()?.into_iter().map(|e| e.path).collect();
        let now = self.store().now_ms();
        for obj in self.store().list(&format!("{}/files/", self.index_dir))? {
            if referenced.contains(&obj.key) {
                continue;
            }
            if now.saturating_sub(obj.created_ms) < self.config().index_timeout_ms {
                report.objects_spared += 1;
                continue;
            }
            self.store().delete(&obj.key)?;
            // Hint the component cache so the vacuumed index file's open
            // entry and components stop pinning cache budget immediately.
            let ns = self.store().store_id();
            if ns != 0 {
                rottnest_component::ComponentCache::global().invalidate_file(ns, &obj.key);
            }
            report.objects_deleted += 1;
        }
        Ok(report)
    }
}
