//! The `logs` dataset: seeded generation and the write path that puts it on
//! a store (append, index, compact, vacuum), with ingest accounting.

use std::time::Instant;

use rottnest::{IndexKind, Rottnest};
use rottnest_format::{ColumnData, DataType, Field, RecordBatch, Schema};
use rottnest_lake::Table;
use rottnest_object_store::{MemoryStore, ObjectStore};
use rottnest_workloads::{TextWorkload, UuidWorkload, VectorWorkload};

use crate::config::*;

/// The three indexed columns, in the order every per-kind array uses.
pub const KINDS: [(IndexKind, &str); 3] = [
    (
        IndexKind::Uuid {
            key_len: KEY_LEN as u8,
        },
        UUID_COL,
    ),
    (IndexKind::Substring, TEXT_COL),
    (IndexKind::Vector { dim: DIM as u32 }, VEC_COL),
];

/// Rows of one data file, retained for the oracle.
pub struct FileData {
    pub keys: Vec<Vec<u8>>,
    pub docs: Vec<String>,
    pub vectors: Vec<Vec<f32>>,
}

impl FileData {
    pub fn rows(&self) -> usize {
        self.keys.len()
    }

    /// Raw user bytes: what the rows would occupy uncompressed.
    pub fn raw_bytes(&self) -> u64 {
        let text: usize = self.docs.iter().map(String::len).sum();
        (self.rows() * (KEY_LEN + DIM * 4) + text) as u64
    }

    pub fn batch(&self) -> RecordBatch {
        let vectors = ColumnData::from_vectors(DIM as u32, self.vectors.iter().cloned())
            .expect("generator emits DIM-dimensional vectors");
        RecordBatch::new(
            schema(),
            vec![
                ColumnData::from_blobs(self.keys.iter()),
                ColumnData::from_strings(self.docs.iter()),
                vectors,
            ],
        )
        .expect("columns match the schema")
    }
}

pub fn schema() -> Schema {
    Schema::new(vec![
        Field::new(UUID_COL, DataType::Binary),
        Field::new(TEXT_COL, DataType::Utf8),
        Field::new(VEC_COL, DataType::VectorF32 { dim: DIM as u32 }),
    ])
}

/// The planted needle of file `file`.
pub fn needle(file: usize) -> String {
    format!("NEEDLE-{file:04}-XYZZY")
}

/// Seeded source of files and query vectors. The seed feeds only the
/// `rottnest-workloads` generators.
pub struct Generator {
    uuid: UuidWorkload,
    text: TextWorkload,
    vecs: VectorWorkload,
    files_made: usize,
}

impl Generator {
    pub fn new(seed: u64) -> Self {
        Self {
            uuid: UuidWorkload::new(seed.wrapping_mul(4), KEY_LEN),
            text: TextWorkload::new(seed.wrapping_mul(4) + 1, VOCAB, WORDS_PER_DOC),
            vecs: VectorWorkload::new(seed.wrapping_mul(4) + 2, DIM, 24, 0.6),
            files_made: 0,
        }
    }

    /// The next file: `rows` rows with one needle planted mid-file.
    pub fn file(&mut self, rows: usize) -> FileData {
        let docs = self
            .text
            .docs_with_needle(rows, &needle(self.files_made), &[rows / 2]);
        self.files_made += 1;
        FileData {
            keys: self.uuid.keys(rows),
            docs,
            vectors: self.vecs.vectors(rows),
        }
    }

    pub fn files(&mut self, n: usize, rows: usize) -> Vec<FileData> {
        (0..n).map(|_| self.file(rows)).collect()
    }

    pub fn query_vector(&mut self) -> Vec<f32> {
        self.vecs.query()
    }

    pub fn missing_key(&self, salt: u64) -> Vec<u8> {
        self.uuid.missing_key(salt)
    }
}

/// What one write-path run cost. Wall fields are host time, `sim_s` is the
/// store clock; byte fields come from the store's counters.
#[derive(Default, Clone)]
pub struct IngestReport {
    pub rows: u64,
    pub raw_bytes: u64,
    pub wall_s: f64,
    pub sim_s: f64,
    pub put_bytes: u64,
    pub data_bytes: u64,
    pub index_bytes: u64,
    pub append_us: Vec<f64>,
    pub append_sim_ms: Vec<f64>,
    pub append_puts: Vec<f64>,
    /// Per kind, one entry per `index` call that built something.
    pub index_us: [Vec<f64>; 3],
    pub compact_us: Vec<f64>,
    pub vacuum_us: Vec<f64>,
    /// Wall time of every timed step, in call order (the same order on
    /// every run of the same script).
    pub step_us: Vec<f64>,
}

impl IngestReport {
    pub fn rows_per_s(&self) -> f64 {
        self.rows as f64 / self.wall_s
    }

    /// Rows per second with every step at the fastest time it took in any of
    /// `runs` of the same script: the write-side twin of
    /// `LoopResult::qps`, for the same reason.
    pub fn best_rows_per_s(runs: &[&IngestReport]) -> f64 {
        let steps = runs[0].step_us.len();
        assert!(runs.iter().all(|r| r.step_us.len() == steps), "same script");
        let best_s: f64 = (0..steps)
            .map(|i| {
                runs.iter()
                    .map(|r| r.step_us[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .sum::<f64>()
            / 1e6;
        runs[0].rows as f64 / best_s
    }
    pub fn put_bytes_per_data_byte(&self) -> f64 {
        self.put_bytes as f64 / self.raw_bytes as f64
    }
    pub fn index_bytes_per_data_byte(&self) -> f64 {
        self.index_bytes as f64 / self.data_bytes as f64
    }
}

/// Runs write-path steps against one table + index, timing each on both
/// clocks. The clients talk to `store` (the plain store, or the tracing
/// decorator around it); `mem` is the backing store, for byte totals.
pub struct Ingest<'a> {
    pub mem: &'a MemoryStore,
    pub table: Table<'a>,
    pub rot: Rottnest<'a>,
    pub report: IngestReport,
    puts_at_start: u64,
}

impl<'a> Ingest<'a> {
    /// Creates the table on an empty store.
    pub fn create(store: &'a dyn ObjectStore, mem: &'a MemoryStore) -> Self {
        let puts_at_start = mem.stats().bytes_written;
        let table = Table::create(store, TABLE_ROOT, &schema(), table_config())
            .expect("create table on an empty store");
        Self::with_table(store, mem, table, puts_at_start)
    }

    /// Continues on a store that already holds the table.
    pub fn open(store: &'a dyn ObjectStore, mem: &'a MemoryStore) -> Self {
        let puts_at_start = mem.stats().bytes_written;
        let table = Table::open(store, TABLE_ROOT, table_config()).expect("open table");
        Self::with_table(store, mem, table, puts_at_start)
    }

    fn with_table(
        store: &'a dyn ObjectStore,
        mem: &'a MemoryStore,
        table: Table<'a>,
        puts_at_start: u64,
    ) -> Self {
        Self {
            mem,
            table,
            rot: Rottnest::new(store, INDEX_DIR, rottnest_config()),
            report: IngestReport::default(),
            puts_at_start,
        }
    }

    /// Times `f` on both clocks and adds it to the report's totals.
    fn timed<T>(&mut self, f: impl FnOnce(&Self) -> T) -> (T, f64, f64) {
        let mem = self.mem;
        let clock = mem.clock().expect("metered store");
        let sim0 = clock.now_micros();
        let t0 = Instant::now();
        let out = f(self);
        let wall_s = t0.elapsed().as_secs_f64();
        let sim_s = (clock.now_micros() - sim0) as f64 / 1e6;
        self.report.wall_s += wall_s;
        self.report.sim_s += sim_s;
        self.report.step_us.push(wall_s * 1e6);
        (out, wall_s, sim_s)
    }

    /// Appends one file; returns its data path.
    pub fn append(&mut self, file: &FileData) -> String {
        let batch = file.batch();
        let puts0 = self.mem.stats().puts;
        let (path, wall_s, sim_s) = self.timed(|s| s.table.append(&batch).expect("append"));
        self.report.rows += file.rows() as u64;
        self.report.raw_bytes += file.raw_bytes();
        self.report.append_us.push(wall_s * 1e6);
        self.report.append_sim_ms.push(sim_s * 1e3);
        self.report
            .append_puts
            .push((self.mem.stats().puts - puts0) as f64);
        path
    }

    /// Indexes whatever each of the three columns has uncovered.
    pub fn index_all(&mut self) {
        for (i, (kind, column)) in KINDS.iter().enumerate() {
            let (built, wall_s, _) =
                self.timed(|s| s.rot.index(&s.table, *kind, column).expect("index"));
            if built.is_some() {
                self.report.index_us[i].push(wall_s * 1e6);
            }
        }
    }

    /// Compacts each kind, lets the index timeout pass on the store clock
    /// (outside the accounting) so vacuum deletes what compaction replaced,
    /// then vacuums.
    pub fn compact_and_vacuum(&mut self) {
        for (kind, column) in KINDS {
            let (_, wall_s, _) = self.timed(|s| s.rot.compact(kind, column).expect("compact"));
            self.report.compact_us.push(wall_s * 1e6);
        }
        let clock = self.mem.clock().expect("metered store");
        clock.advance_ms(self.rot.config().index_timeout_ms + 1);
        let (_, wall_s, _) = self.timed(|s| s.rot.vacuum(&s.table).expect("vacuum"));
        self.report.vacuum_us.push(wall_s * 1e6);
    }

    pub fn checkpoint_meta(&mut self) {
        self.timed(|s| s.rot.checkpoint_meta().expect("checkpoint"));
    }

    /// Fills in the byte totals and returns the report.
    pub fn finish(mut self) -> IngestReport {
        self.report.put_bytes = self.mem.stats().bytes_written - self.puts_at_start;
        self.report.data_bytes = self.mem.bytes_under(&format!("{TABLE_ROOT}/data/"));
        self.report.index_bytes = self.rot.index_bytes().expect("scan index metadata");
        self.report
    }
}

/// Builds `logs` the `examples/quickstart.rs` way: append every file, then
/// one index per column. Returns the data paths in file order.
pub fn build_logs(
    store: &dyn ObjectStore,
    mem: &MemoryStore,
    files: &[FileData],
) -> (Vec<String>, IngestReport) {
    let mut ingest = Ingest::create(store, mem);
    let paths = files.iter().map(|f| ingest.append(f)).collect();
    ingest.index_all();
    (paths, ingest.finish())
}
