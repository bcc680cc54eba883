//! End-to-end protocol tests: index / search / compact / vacuum against a
//! live lake table, with concurrent lake mutations and injected crashes.

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rottnest::invariants::{verify_all, verify_existence};
use rottnest::meta::{MetaOp, MetaTable};
use rottnest::{IndexEntry, IndexKind, Match, Query, Rottnest, RottnestConfig, SearchStats};
use rottnest_format::{ColumnData, DataType, Field, PageTable, RecordBatch, Schema, WriterOptions};
use rottnest_ivfpq::SearchParams;
use rottnest_lake::{Table, TableConfig};
use rottnest_object_store::{FaultKind, MemoryStore, ObjectStore};

const DIM: usize = 8;

fn schema() -> Schema {
    Schema::new(vec![
        Field::new("trace_id", DataType::Binary),
        Field::new("body", DataType::Utf8),
        Field::new("embedding", DataType::VectorF32 { dim: DIM as u32 }),
    ])
}

/// Deterministic row content so tests can predict matches.
fn trace_id(i: u64) -> Vec<u8> {
    let mut id = vec![0u8; 16];
    id[..8].copy_from_slice(&i.to_be_bytes());
    id[8..].copy_from_slice(&i.wrapping_mul(0x9e3779b97f4a7c15).to_be_bytes());
    id
}

fn body(i: u64) -> String {
    format!(
        "event {i}: service frobnicator-{} emitted code E{:04}",
        i % 7,
        i % 100
    )
}

fn embedding(i: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(i);
    let cluster = (i % 5) as f32 * 10.0;
    (0..DIM)
        .map(|_| cluster + rng.gen_range(-0.5f32..0.5))
        .collect()
}

fn batch(range: std::ops::Range<u64>) -> RecordBatch {
    RecordBatch::new(
        schema(),
        vec![
            ColumnData::from_blobs(range.clone().map(trace_id)),
            ColumnData::from_strings(range.clone().map(body)),
            ColumnData::from_vectors(DIM as u32, range.map(embedding).collect::<Vec<_>>()).unwrap(),
        ],
    )
    .unwrap()
}

fn small_pages() -> TableConfig {
    TableConfig {
        writer: WriterOptions {
            page_raw_bytes: 2048,
            row_group_rows: 512,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn config() -> RottnestConfig {
    RottnestConfig {
        min_vector_rows: 16,
        ivf: rottnest_ivfpq::IvfPqParams {
            nlist: 16,
            m: 4,
            train_iters: 4,
            seed: 9,
        },
        ..Default::default()
    }
}

fn setup(rows: u64) -> (std::sync::Arc<MemoryStore>, String) {
    let store = MemoryStore::unmetered();
    let t = Table::create(store.as_ref(), "tbl", &schema(), small_pages()).unwrap();
    t.append(&batch(0..rows / 2)).unwrap();
    t.append(&batch(rows / 2..rows)).unwrap();
    (store, "tbl".to_string())
}

/// An owned query of the kind matrix.
enum Probe {
    Key(Vec<u8>, usize),
    Needle(&'static str, usize),
    Near(Vec<f32>, usize),
}

impl Probe {
    fn query(&self) -> Query<'_> {
        match self {
            Probe::Key(key, k) => Query::UuidEq { key, k: *k },
            Probe::Needle(needle, k) => Query::Substring {
                pattern: needle.as_bytes(),
                k: *k,
            },
            // Every list probed and every candidate reranked: exact top-k.
            Probe::Near(query, k) => Query::VectorNn {
                query,
                params: SearchParams {
                    k: *k,
                    nprobe: 16,
                    refine: 1000,
                },
            },
        }
    }
}

/// A match as (file ordinal in the snapshot, row, score): data file names
/// carry a process-wide sequence number, so paths differ between universes.
type Hit = (usize, u64, Option<f32>);

/// Brute-force ground truth for `probe` over column `col` of `snap`: every
/// live matching row for exact probes, the exact top-k for `Near`.
fn oracle(
    table: &Table<'_>,
    snap: &rottnest_lake::Snapshot,
    col: usize,
    probe: &Probe,
) -> Vec<Hit> {
    use rottnest_format::ValueRef;
    let mut hits: Vec<Hit> = Vec::new();
    for (ordinal, f) in snap.files().enumerate() {
        let reader = rottnest_format::ChunkReader::open(table.store(), &f.path).unwrap();
        let data = reader.read_column(col).unwrap();
        let dv = table.load_dv(f).unwrap().unwrap_or_default();
        for i in (0..data.len()).filter(|&i| !dv.contains(i as u64)) {
            let score = match (probe, data.get(i).unwrap()) {
                (Probe::Key(key, _), ValueRef::Binary(b)) if b == &key[..] => None,
                (Probe::Needle(needle, _), ValueRef::Utf8(s)) if s.contains(needle) => None,
                (Probe::Near(q, _), ValueRef::VectorF32(v)) => Some(rottnest_ivfpq::l2_sq(q, v)),
                _ => continue,
            };
            hits.push((ordinal, i as u64, score));
        }
    }
    if let Probe::Near(_, k) = probe {
        hits.sort_by(|a, b| {
            let by_score = a.2.unwrap().total_cmp(&b.2.unwrap());
            by_score.then_with(|| (a.0, a.1).cmp(&(b.0, b.1)))
        });
        hits.truncate(*k);
    }
    hits
}

/// `SearchStats` with the counters that depend on process-wide cache state
/// (shared with whatever other tests run in this process) zeroed.
fn comparable(mut stats: SearchStats) -> SearchStats {
    stats.cache_hits = 0;
    stats.cache_misses = 0;
    stats.cache_bytes_saved = 0;
    stats.page_cache_hits = 0;
    stats.page_cache_misses = 0;
    stats.page_cache_bytes_saved = 0;
    stats.dedup_hits = 0;
    stats
}

/// Drives one kind through index → search → append → index → compact →
/// vacuum → search in a fresh universe at `parallelism`, checking every
/// search against the brute-force oracle, and returns the transcript of
/// (hits, stats) so the caller can compare widths.
fn kind_lifecycle(
    kind: IndexKind,
    column: &str,
    probes: &[Probe],
    parallelism: usize,
) -> Vec<(Vec<Hit>, SearchStats)> {
    let store = MemoryStore::new(); // metered: vacuum reads the clock
    let table = Table::create(store.as_ref(), "tbl", &schema(), small_pages()).unwrap();
    let mut cfg = config();
    cfg.index_timeout_ms = 60_000;
    cfg.search.parallelism = parallelism;
    let rot = Rottnest::new(store.as_ref(), "idx", cfg);
    let col = schema().index_of(column).unwrap();
    let exact = !matches!(kind, IndexKind::Vector { .. });
    let mut transcript = Vec::new();
    // Searches every probe at the current snapshot; `covered` says no file
    // is left to the brute-force pass.
    let mut search_all = |phase: &str, covered: Option<u64>| {
        let snap = table.snapshot().unwrap();
        let ordinal = |path: &str| snap.files().position(|f| f.path == path).unwrap();
        for (i, probe) in probes.iter().enumerate() {
            let what = format!("{kind:?} x{parallelism} {phase} probe {i}");
            let query = probe.query();
            let out = rot.search(&table, &snap, column, &query).unwrap();
            let got: Vec<Hit> = out
                .matches
                .iter()
                .map(|m| (ordinal(&m.path), m.row, m.score))
                .collect();
            let want = oracle(&table, &snap, col, probe);
            if exact {
                // Any k of the true matches, each at most once.
                let distinct: std::collections::BTreeSet<(usize, u64)> =
                    got.iter().map(|hit| (hit.0, hit.1)).collect();
                assert_eq!(distinct.len(), got.len(), "{what}");
                assert_eq!(got.len(), want.len().min(query.k()), "{what}");
                assert!(got.iter().all(|hit| want.contains(hit)), "{what}");
                if !got.is_empty() && covered.is_some() {
                    assert!(out.stats.pages_probed >= 1, "{what}");
                }
            } else {
                assert_eq!(got, want, "{what}");
            }
            if let Some(index_files) = covered {
                assert_eq!(out.stats.files_brute_scanned, 0, "{what}");
                assert_eq!(out.stats.index_files_queried, index_files, "{what}");
            } else if !exact {
                assert_eq!(
                    out.stats.files_brute_scanned, 2,
                    "{what}: scoring scans all"
                );
            }
            transcript.push((got, comparable(out.stats)));
        }
    };

    // Two files, one index over both; a second call has nothing to do.
    table.append(&batch(0..100)).unwrap();
    table.append(&batch(100..200)).unwrap();
    let first = rot.index(&table, kind, column).unwrap().expect("new files");
    assert_eq!((first.kind, first.files.len(), first.rows), (kind, 2, 200));
    assert!(rot.index(&table, kind, column).unwrap().is_none());
    let victim = first.files[0].path.clone();
    table.delete_rows(&victim, &[42]).unwrap();
    search_all("covered", Some(1));

    // Only the new file is indexed.
    table.append(&batch(200..300)).unwrap();
    let second = rot.index(&table, kind, column).unwrap().unwrap();
    assert_eq!(second.files.len(), 1);
    assert_eq!(rot.meta().scan().unwrap().len(), 2);

    // Two unindexed files: the brute-force pass, twice so the second pass
    // meets the negative-scan cache the first one fed.
    table.append(&batch(300..350)).unwrap();
    table.append(&batch(350..400)).unwrap();
    search_all("uncovered", None);
    search_all("uncovered again", None);

    // Three records swapped for one.
    rot.index(&table, kind, column).unwrap().unwrap();
    let merged = rot.compact(kind, column).unwrap();
    assert_eq!(merged.len(), 1);
    let entries = rot.meta().scan().unwrap();
    assert_eq!(entries.len(), 1);
    assert_eq!(entries[0].files.len(), 5);
    verify_all(store.as_ref(), "idx").unwrap();

    // The replaced files are too young to delete, then old enough.
    let report = rot.vacuum(&table).unwrap();
    assert_eq!((report.objects_deleted, report.objects_spared), (0, 3));
    assert_eq!(store.list("idx/files/").unwrap().len(), 4);
    store.clock().unwrap().advance_ms(61_000);
    assert_eq!(rot.vacuum(&table).unwrap().objects_deleted, 3);
    assert_eq!(store.list("idx/files/").unwrap().len(), 1);
    search_all("compacted", Some(1));
    verify_all(store.as_ref(), "idx").unwrap();
    transcript
}

/// Every index kind through the whole protocol against the brute-force
/// oracle, with matches and stats identical at fan-out widths 1 and 8.
#[test]
fn kind_matrix_lifecycle_matches_oracle_at_any_width() {
    let keys = || {
        vec![
            Probe::Key(trace_id(42), 10), // deleted after indexing
            Probe::Key(trace_id(123), 10),
            Probe::Key(trace_id(250), 10),
            Probe::Key(trace_id(320), 10),
            Probe::Key(trace_id(11), 1), // the index alone satisfies k
            Probe::Key(trace_id(999_999), 10),
        ]
    };
    let needles = vec![
        Probe::Needle("code E0042", 100),
        Probe::Needle("code E0055", 10),
        Probe::Needle("frobnicator", 5), // k truncates
        Probe::Needle("event 3", 20),    // cutoff inside the brute-force pass
        Probe::Needle("no such needle", 10),
    ];
    let neighbours = vec![
        Probe::Near(embedding(77), 1), // a stored vector: distance 0
        Probe::Near(embedding(333), 3),
        Probe::Near(vec![21.0; DIM], 10),
    ];
    let dim = DIM as u32;
    for (kind, column, probes) in [
        (IndexKind::Uuid { key_len: 16 }, "trace_id", keys()),
        (IndexKind::Bloom { key_len: 16 }, "trace_id", keys()),
        (IndexKind::Substring, "body", needles),
        (IndexKind::Vector { dim }, "embedding", neighbours),
    ] {
        let serial = kind_lifecycle(kind, column, &probes, 1);
        let wide = kind_lifecycle(kind, column, &probes, 8);
        assert_eq!(serial, wide, "{kind:?}: widths 1 and 8 disagree");
        if let IndexKind::Vector { .. } = kind {
            assert_eq!(serial[0].0, vec![(0, 77, Some(0.0))]);
        }
    }
}

#[test]
fn unindexed_files_fall_back_to_brute_force() {
    let (store, root) = setup(200);
    let table = Table::open(store.as_ref(), &root, small_pages()).unwrap();
    let rot = Rottnest::new(store.as_ref(), "idx", config());
    rot.index(&table, IndexKind::Uuid { key_len: 16 }, "trace_id")
        .unwrap()
        .unwrap();

    // New un-indexed file appears (Figure 4's f.parquet).
    table.append(&batch(200..260)).unwrap();
    let snap = table.snapshot().unwrap();
    let key = trace_id(237);
    let out = rot
        .search(
            &table,
            &snap,
            "trace_id",
            &Query::UuidEq { key: &key, k: 5 },
        )
        .unwrap();
    assert_eq!(out.matches.len(), 1);
    assert_eq!(out.matches[0].row, 37); // row within the third file
    assert_eq!(out.stats.files_brute_scanned, 1);

    // A key that the index satisfies never touches the new file.
    let key = trace_id(11);
    let out = rot
        .search(
            &table,
            &snap,
            "trace_id",
            &Query::UuidEq { key: &key, k: 1 },
        )
        .unwrap();
    assert_eq!(out.matches.len(), 1);
    assert_eq!(out.stats.files_brute_scanned, 0);
}

#[test]
fn lake_compaction_invalidates_postings_and_reindex_recovers() {
    let (store, root) = setup(300);
    let table = Table::open(store.as_ref(), &root, small_pages()).unwrap();
    let rot = Rottnest::new(store.as_ref(), "idx", config());
    rot.index(&table, IndexKind::Substring, "body")
        .unwrap()
        .unwrap();

    // The lake compacts its two files into one (b+c → d of Figure 3).
    table.compact(u64::MAX).unwrap().unwrap();
    let snap = table.snapshot().unwrap();

    // Old index postings all point outside the snapshot: search falls back
    // to brute force and still finds everything.
    let out = rot
        .search(
            &table,
            &snap,
            "body",
            &Query::Substring {
                pattern: b"code E0007",
                k: 100,
            },
        )
        .unwrap();
    let mut rows: Vec<u64> = out.matches.iter().map(|m| m.row).collect();
    rows.sort_unstable();
    assert_eq!(rows, vec![7, 107, 207]);
    assert_eq!(out.stats.files_brute_scanned, 1);

    // Re-index covers the compacted file; brute force disappears.
    rot.index(&table, IndexKind::Substring, "body")
        .unwrap()
        .unwrap();
    let out = rot
        .search(
            &table,
            &snap,
            "body",
            &Query::Substring {
                pattern: b"code E0007",
                k: 100,
            },
        )
        .unwrap();
    assert_eq!(out.matches.len(), 3);
    assert_eq!(out.stats.files_brute_scanned, 0);
    verify_all(store.as_ref(), "idx").unwrap();
}

#[test]
fn deletion_vectors_filter_matches() {
    let (store, root) = setup(200);
    let table = Table::open(store.as_ref(), &root, small_pages()).unwrap();
    let rot = Rottnest::new(store.as_ref(), "idx", config());
    rot.index(&table, IndexKind::Substring, "body")
        .unwrap()
        .unwrap();

    // Delete row 42 of the first file (body "code E0042").
    let first = table
        .snapshot()
        .unwrap()
        .files()
        .next()
        .unwrap()
        .path
        .clone();
    table.delete_rows(&first, &[42]).unwrap();

    let snap = table.snapshot().unwrap();
    let out = rot
        .search(
            &table,
            &snap,
            "body",
            &Query::Substring {
                pattern: b"code E0042",
                k: 100,
            },
        )
        .unwrap();
    let rows: Vec<u64> = out.matches.iter().map(|m| m.row).collect();
    assert_eq!(
        rows,
        vec![42],
        "only the second file's row 42 (i=142) remains"
    );
    assert_eq!(out.matches[0].path, snap.files().nth(1).unwrap().path);
    assert!(out.stats.rows_deleted >= 1);
}

#[test]
fn crashed_commit_leaves_invariants_intact_and_vacuum_cleans_up() {
    let store = MemoryStore::new();
    let table = Table::create(store.as_ref(), "tbl", &schema(), small_pages()).unwrap();
    table.append(&batch(0..100)).unwrap();
    let mut cfg = config();
    cfg.index_timeout_ms = 60_000;
    let rot = Rottnest::new(store.as_ref(), "idx", cfg);

    // Crash between upload and commit: the metadata PUT fails.
    store
        .faults()
        .arm(FaultKind::FailPutMatching("idx/meta".into()));
    let err = rot.index(&table, IndexKind::Substring, "body");
    assert!(err.is_err(), "injected commit failure must surface");
    store.faults().disarm_all();

    // Invariants hold: the orphan index file is in B but not M.
    verify_all(store.as_ref(), "idx").unwrap();
    assert_eq!(store.list("idx/files/").unwrap().len(), 1);
    assert!(rot.meta().scan().unwrap().is_empty());

    // Young orphan survives vacuum (could be an in-flight indexer)…
    let report = rot.vacuum(&table).unwrap();
    assert_eq!(report.objects_deleted, 0);
    assert_eq!(report.objects_spared, 1);

    // …and is collected once older than the index timeout.
    store.clock().unwrap().advance_ms(61_000);
    let report = rot.vacuum(&table).unwrap();
    assert_eq!(report.objects_deleted, 1);
    assert!(store.list("idx/files/").unwrap().is_empty());

    // Retry succeeds.
    rot.index(&table, IndexKind::Substring, "body")
        .unwrap()
        .unwrap();
    verify_all(store.as_ref(), "idx").unwrap();
}

#[test]
fn vanished_input_file_aborts_indexing() {
    let (store, root) = setup(100);
    let table = Table::open(store.as_ref(), &root, small_pages()).unwrap();
    let rot = Rottnest::new(store.as_ref(), "idx", config());
    // Simulate the data lake garbage-collecting a file mid-index.
    let victim = table
        .snapshot()
        .unwrap()
        .files()
        .next()
        .unwrap()
        .path
        .clone();
    store.faults().arm(FaultKind::FailGetMatching(victim));
    let err = rot.index(&table, IndexKind::Substring, "body").unwrap_err();
    assert!(matches!(
        err,
        rottnest::RottnestError::Aborted(_) | rottnest::RottnestError::Store(_)
    ));
    store.faults().disarm_all();
    verify_existence(store.as_ref(), "idx").unwrap();
}

#[test]
fn vector_search_merges_index_and_brute_results() {
    let (store, root) = setup(300);
    let table = Table::open(store.as_ref(), &root, small_pages()).unwrap();
    let rot = Rottnest::new(store.as_ref(), "idx", config());
    rot.index(&table, IndexKind::Vector { dim: DIM as u32 }, "embedding")
        .unwrap()
        .unwrap();

    // New un-indexed file holds the best match for its own vectors.
    table.append(&batch(300..350)).unwrap();
    let snap = table.snapshot().unwrap();
    let q = embedding(333);
    let out = rot
        .search(
            &table,
            &snap,
            "embedding",
            &Query::VectorNn {
                query: &q,
                params: SearchParams {
                    k: 1,
                    nprobe: 16,
                    refine: 64,
                },
            },
        )
        .unwrap();
    assert_eq!(out.matches[0].score, Some(0.0));
    assert_eq!(out.matches[0].row, 33);
    assert_eq!(
        out.stats.files_brute_scanned, 1,
        "scoring queries scan uncovered files"
    );
}

#[test]
fn min_vector_rows_aborts_in_favor_of_brute_force() {
    let store = MemoryStore::unmetered();
    let table = Table::create(store.as_ref(), "tbl", &schema(), small_pages()).unwrap();
    table.append(&batch(0..8)).unwrap();
    let rot = Rottnest::new(store.as_ref(), "idx", config());
    assert!(rot
        .index(&table, IndexKind::Vector { dim: DIM as u32 }, "embedding")
        .unwrap()
        .is_none());

    // Search still answers via brute force.
    let snap = table.snapshot().unwrap();
    let q = embedding(3);
    let out = rot
        .search(
            &table,
            &snap,
            "embedding",
            &Query::VectorNn {
                query: &q,
                params: SearchParams {
                    k: 1,
                    nprobe: 4,
                    refine: 8,
                },
            },
        )
        .unwrap();
    assert_eq!(out.matches[0].row, 3);
    assert_eq!(out.stats.files_brute_scanned, 1);
}

#[test]
fn search_snapshot_time_travel() {
    let (store, root) = setup(100);
    let table = Table::open(store.as_ref(), &root, small_pages()).unwrap();
    let rot = Rottnest::new(store.as_ref(), "idx", config());
    rot.index(&table, IndexKind::Uuid { key_len: 16 }, "trace_id")
        .unwrap()
        .unwrap();
    let old_version = table.snapshot().unwrap().version();

    table.append(&batch(100..200)).unwrap();
    rot.index(&table, IndexKind::Uuid { key_len: 16 }, "trace_id")
        .unwrap()
        .unwrap();

    // Searching the old snapshot must not see the new file's rows.
    let old_snap = table.snapshot_at(old_version).unwrap();
    let key = trace_id(150);
    let out = rot
        .search(
            &table,
            &old_snap,
            "trace_id",
            &Query::UuidEq { key: &key, k: 5 },
        )
        .unwrap();
    assert!(
        out.matches.is_empty(),
        "row 150 exists only after the snapshot"
    );

    let new_snap = table.snapshot().unwrap();
    let out = rot
        .search(
            &table,
            &new_snap,
            "trace_id",
            &Query::UuidEq { key: &key, k: 5 },
        )
        .unwrap();
    assert_eq!(out.matches.len(), 1);
}

#[test]
fn search_equals_brute_force_ground_truth() {
    // The canonical correctness check: indexed search == full scan, across
    // lake mutations.
    let (store, root) = setup(240);
    let table = Table::open(store.as_ref(), &root, small_pages()).unwrap();
    let rot = Rottnest::new(store.as_ref(), "idx", config());
    rot.index(&table, IndexKind::Substring, "body")
        .unwrap()
        .unwrap();
    table
        .delete_rows(
            &table
                .snapshot()
                .unwrap()
                .files()
                .next()
                .unwrap()
                .path
                .clone(),
            &[14, 114],
        )
        .unwrap();
    table.append(&batch(240..280)).unwrap();

    let snap = table.snapshot().unwrap();
    for pattern in ["code E0014", "frobnicator-3", "event 27"] {
        let out = rot
            .search(
                &table,
                &snap,
                "body",
                &Query::Substring {
                    pattern: pattern.as_bytes(),
                    k: 10_000,
                },
            )
            .unwrap();
        let mut got: Vec<(String, u64)> = out
            .matches
            .iter()
            .map(|m| (m.path.clone(), m.row))
            .collect();
        got.sort();

        // Ground truth by scanning every file.
        let mut want: Vec<(String, u64)> = Vec::new();
        for f in snap.files() {
            let reader = rottnest_format::ChunkReader::open(store.as_ref(), &f.path).unwrap();
            let col = reader.read_column(1).unwrap();
            let dv = table.load_dv(f).unwrap().unwrap_or_default();
            for i in 0..col.len() {
                if dv.contains(i as u64) {
                    continue;
                }
                if let Some(rottnest_format::ValueRef::Utf8(s)) = col.get(i) {
                    if s.contains(pattern) {
                        want.push((f.path.clone(), i as u64));
                    }
                }
            }
        }
        want.sort();
        assert_eq!(got, want, "pattern {pattern:?}");
    }
}

#[test]
fn concurrent_searches_during_maintenance() {
    let (store, root) = setup(200);
    {
        let table = Table::open(store.as_ref(), &root, small_pages()).unwrap();
        let rot = Rottnest::new(store.as_ref(), "idx", config());
        rot.index(&table, IndexKind::Uuid { key_len: 16 }, "trace_id")
            .unwrap()
            .unwrap();
    }
    crossbeam::scope(|scope| {
        // Searchers.
        for t in 0..4u64 {
            let store = &store;
            let root = &root;
            scope.spawn(move |_| {
                let table = Table::open(store.as_ref(), root, small_pages()).unwrap();
                let rot = Rottnest::new(store.as_ref(), "idx", config());
                for i in 0..20u64 {
                    let snap = table.snapshot().unwrap();
                    let key = trace_id((t * 20 + i) % 200);
                    let out = rot
                        .search(
                            &table,
                            &snap,
                            "trace_id",
                            &Query::UuidEq { key: &key, k: 1 },
                        )
                        .unwrap();
                    assert_eq!(out.matches.len(), 1);
                }
            });
        }
        // Maintenance: appends + indexing + compaction.
        let store = &store;
        let root = &root;
        scope.spawn(move |_| {
            let table = Table::open(store.as_ref(), root, small_pages()).unwrap();
            let rot = Rottnest::new(store.as_ref(), "idx", config());
            for j in 0..3u64 {
                table.append(&batch(200 + j * 50..250 + j * 50)).unwrap();
                rot.index(&table, IndexKind::Uuid { key_len: 16 }, "trace_id")
                    .unwrap();
            }
            rot.compact(IndexKind::Uuid { key_len: 16 }, "trace_id")
                .unwrap();
        });
    })
    .unwrap();
    verify_all(store.as_ref(), "idx").unwrap();
}

#[test]
fn index_timeout_aborts_before_commit() {
    let store = MemoryStore::new(); // latency model advances the clock
    let table = Table::create(store.as_ref(), "tbl", &schema(), small_pages()).unwrap();
    table.append(&batch(0..50)).unwrap();
    let mut cfg = config();
    cfg.index_timeout_ms = 0; // everything times out
    let rot = Rottnest::new(store.as_ref(), "idx", cfg);
    let err = rot.index(&table, IndexKind::Substring, "body").unwrap_err();
    assert!(matches!(err, rottnest::RottnestError::Aborted(_)));
    // Nothing was committed.
    assert!(rot.meta().scan().unwrap().is_empty());
    verify_existence(store.as_ref(), "idx").unwrap();
}

/// `compact` runs under the same budget as `index`: a merge that outlives
/// `index_timeout_ms` must not commit an object vacuum may already delete.
#[test]
fn compact_timeout_aborts_before_commit() {
    let store = MemoryStore::new(); // latency model advances the clock
    let table = Table::create(store.as_ref(), "tbl", &schema(), small_pages()).unwrap();
    let indexer = Rottnest::new(store.as_ref(), "idx", config());
    for i in 0..2u64 {
        table.append(&batch(i * 50..(i + 1) * 50)).unwrap();
        indexer
            .index(&table, IndexKind::Substring, "body")
            .unwrap()
            .unwrap();
    }
    let before = indexer.meta().scan().unwrap();

    // A budget the planning scan just fits in, and the merge cannot.
    let clock = store.clock().unwrap();
    let (_, scan_us) = clock.time(|| indexer.meta().scan().unwrap());
    let mut cfg = config();
    cfg.index_timeout_ms = scan_us.div_ceil(1000) + 1;
    let hasty = Rottnest::new(store.as_ref(), "idx", cfg.clone());
    let err = hasty.compact(IndexKind::Substring, "body").unwrap_err();
    assert!(matches!(err, rottnest::RottnestError::Aborted(_)), "{err}");
    // Nothing was committed; the merged upload is an orphan.
    assert_eq!(indexer.meta().scan().unwrap(), before);
    assert_eq!(store.list("idx/files/").unwrap().len(), 3);
    verify_all(store.as_ref(), "idx").unwrap();

    // Vacuum reclaims the orphan once it is older than the budget.
    clock.advance_ms(cfg.index_timeout_ms);
    let report = hasty.vacuum(&table).unwrap();
    assert_eq!((report.records_removed, report.objects_deleted), (0, 1));
    assert_eq!(store.list("idx/files/").unwrap().len(), 2);
    verify_all(store.as_ref(), "idx").unwrap();
}

#[test]
fn matches_report_correct_paths() {
    let (store, root) = setup(100);
    let table = Table::open(store.as_ref(), &root, small_pages()).unwrap();
    let rot = Rottnest::new(store.as_ref(), "idx", config());
    rot.index(&table, IndexKind::Uuid { key_len: 16 }, "trace_id")
        .unwrap()
        .unwrap();
    let snap = table.snapshot().unwrap();
    let paths: Vec<String> = snap.files().map(|f| f.path.clone()).collect();

    let key = trace_id(10); // first file
    let out = rot
        .search(
            &table,
            &snap,
            "trace_id",
            &Query::UuidEq { key: &key, k: 1 },
        )
        .unwrap();
    assert_eq!(
        out.matches,
        vec![Match {
            path: paths[0].clone(),
            row: 10,
            score: None
        }]
    );

    let key = trace_id(60); // second file (rows 50..100), row 10 within it
    let out = rot
        .search(
            &table,
            &snap,
            "trace_id",
            &Query::UuidEq { key: &key, k: 1 },
        )
        .unwrap();
    assert_eq!(
        out.matches,
        vec![Match {
            path: paths[1].clone(),
            row: 10,
            score: None
        }]
    );
}

#[test]
fn metadata_survives_store_payload_inspection() {
    // Guards the metadata byte format: write entries, re-open from a fresh
    // handle backed by the same bytes.
    let (store, root) = setup(100);
    let table = Table::open(store.as_ref(), &root, small_pages()).unwrap();
    let rot = Rottnest::new(store.as_ref(), "idx", config());
    rot.index(&table, IndexKind::Uuid { key_len: 16 }, "trace_id")
        .unwrap()
        .unwrap();
    rot.index(&table, IndexKind::Substring, "body")
        .unwrap()
        .unwrap();

    let rot2 = Rottnest::new(store.as_ref(), "idx", config());
    let entries = rot2.meta().scan().unwrap();
    assert_eq!(entries.len(), 2);
    let kinds: Vec<&str> = entries
        .iter()
        .map(|e| match e.kind {
            IndexKind::Uuid { .. } => "uuid",
            IndexKind::Substring => "substring",
            IndexKind::Vector { .. } => "vector",
            IndexKind::Bloom { .. } => "bloom",
        })
        .collect();
    assert!(kinds.contains(&"uuid") && kinds.contains(&"substring"));

    // Raw log payloads are non-empty objects under idx/meta/_log/.
    let log_objects = store.list("idx/meta/_log/").unwrap();
    assert_eq!(log_objects.len(), 2);
    for o in log_objects {
        assert!(store.get(&o.key).unwrap() != Bytes::new());
    }
}

#[test]
fn zorder_rewrite_is_survived_like_compaction() {
    let (store, root) = setup(200);
    let table = Table::open(store.as_ref(), &root, small_pages()).unwrap();
    let rot = Rottnest::new(store.as_ref(), "idx", config());
    rot.index(&table, IndexKind::Uuid { key_len: 16 }, "trace_id")
        .unwrap()
        .unwrap();

    // A clustering rewrite replaces every file the index points at.
    table.rewrite_sorted(0).unwrap();
    let snap = table.snapshot().unwrap();
    let key = trace_id(77);
    let out = rot
        .search(
            &table,
            &snap,
            "trace_id",
            &Query::UuidEq { key: &key, k: 1 },
        )
        .unwrap();
    assert_eq!(out.matches.len(), 1, "found via brute-force fallback");
    assert_eq!(out.stats.files_brute_scanned, 1);

    // Re-index covers the rewritten file.
    rot.index(&table, IndexKind::Uuid { key_len: 16 }, "trace_id")
        .unwrap()
        .unwrap();
    let out = rot
        .search(
            &table,
            &snap,
            "trace_id",
            &Query::UuidEq { key: &key, k: 1 },
        )
        .unwrap();
    assert_eq!(out.matches.len(), 1);
    assert_eq!(out.stats.files_brute_scanned, 0);
    verify_all(store.as_ref(), "idx").unwrap();
}

#[test]
fn metadata_checkpoint_reduces_plan_requests() {
    let store = MemoryStore::unmetered();
    let table = Table::create(store.as_ref(), "tbl", &schema(), small_pages()).unwrap();
    let rot = Rottnest::new(store.as_ref(), "idx", config());
    for i in 0..8u64 {
        table.append(&batch(i * 20..(i + 1) * 20)).unwrap();
        rot.index(&table, IndexKind::Uuid { key_len: 16 }, "trace_id")
            .unwrap()
            .unwrap();
    }
    let snap = table.snapshot().unwrap();
    let key = trace_id(35);

    let measure = || {
        let before = store.stats();
        let out = rot
            .search(
                &table,
                &snap,
                "trace_id",
                &Query::UuidEq { key: &key, k: 1 },
            )
            .unwrap();
        assert_eq!(out.matches.len(), 1);
        store.stats().since(&before).gets
    };
    let gets_before = measure();
    rot.checkpoint_meta().unwrap();
    let gets_after = measure();
    // The 8 per-version metadata log GETs collapse into 1 checkpoint GET.
    assert!(
        gets_after + 6 <= gets_before,
        "checkpoint should cut plan requests: {gets_before} -> {gets_after}"
    );
    verify_all(store.as_ref(), "idx").unwrap();
}

#[test]
fn bloom_index_is_smaller_than_trie() {
    let (store, root) = setup(2000);
    let table = Table::open(store.as_ref(), &root, small_pages()).unwrap();
    let rot_trie = Rottnest::new(store.as_ref(), "idx-trie", config());
    let rot_bloom = Rottnest::new(store.as_ref(), "idx-bloom", config());
    let te = rot_trie
        .index(&table, IndexKind::Uuid { key_len: 16 }, "trace_id")
        .unwrap()
        .unwrap();
    let be = rot_bloom
        .index(&table, IndexKind::Bloom { key_len: 16 }, "trace_id")
        .unwrap()
        .unwrap();
    assert!(
        be.size < te.size,
        "bloom ({}) should undercut trie ({})",
        be.size,
        te.size
    );
}

/// Replaces the only committed record with `edit` applied to it.
fn recommit(rot: &Rottnest<'_>, entry: &IndexEntry, edit: impl Fn(&mut IndexEntry)) {
    rot.meta()
        .commit_with(4, |version| {
            let mut edited = entry.clone();
            edited.id = MetaTable::id_for(version, 0);
            edit(&mut edited);
            vec![MetaOp::Remove(entry.id), MetaOp::Add(Box::new(edited))]
        })
        .unwrap();
}

/// A posting the committed record cannot resolve — its file beyond the
/// coverage list, or its page beyond the file's page table — is `Corrupt`
/// on every path: never a silently dropped candidate, never a guessed row.
#[test]
fn postings_beyond_the_committed_coverage_are_corrupt() {
    let dim = DIM as u32;
    for (kind, column) in [
        (IndexKind::Vector { dim }, "embedding"),
        (IndexKind::Uuid { key_len: 16 }, "trace_id"),
    ] {
        // The last row of the last file, and every vector as a candidate.
        let key = trace_id(399);
        let near = embedding(399);
        let queries = |refine| match kind {
            IndexKind::Vector { .. } => Query::VectorNn {
                query: &near,
                params: SearchParams {
                    k: 400,
                    nprobe: 16,
                    refine,
                },
            },
            _ => Query::UuidEq { key: &key, k: 5 },
        };
        type Edit = fn(&mut IndexEntry);
        let edits: [(&str, Edit); 2] = [
            ("coverage one file short", |e| {
                e.files.pop();
            }),
            ("page table one page short", |e| {
                let cov = e.files.last_mut().unwrap();
                let mut pages = cov.page_table.pages().to_vec();
                pages.pop();
                cov.page_table = PageTable::from_locations(pages, cov.rows);
            }),
        ];
        for (what, edit) in edits {
            let (store, root) = setup(400);
            let table = Table::open(store.as_ref(), &root, small_pages()).unwrap();
            let rot = Rottnest::new(store.as_ref(), "idx", config());
            let entry = rot.index(&table, kind, column).unwrap().unwrap();
            assert!(entry.files[1].page_table.len() >= 2);
            recommit(&rot, &entry, edit);
            let snap = table.snapshot().unwrap();
            for refine in [0, 64] {
                let err = rot
                    .search(&table, &snap, column, &queries(refine))
                    .unwrap_err();
                assert!(
                    matches!(err, rottnest::RottnestError::Corrupt(_)),
                    "{kind:?}, {what}, refine {refine}: {err}"
                );
            }
        }
    }
}

/// The merged FM file keeps the layout `config.fm` built its sources with.
#[test]
fn compaction_keeps_the_configured_fm_layout() {
    let store = MemoryStore::unmetered();
    let table = Table::create(store.as_ref(), "tbl", &schema(), small_pages()).unwrap();
    let mut cfg = config();
    cfg.fm = rottnest_fm::FmOptions {
        block_size: 512,
        sample_rate: 4,
    };
    let rot = Rottnest::new(store.as_ref(), "idx", cfg);
    for i in 0..2u64 {
        table.append(&batch(i * 100..(i + 1) * 100)).unwrap();
        let built = rot
            .index(&table, IndexKind::Substring, "body")
            .unwrap()
            .unwrap();
        let index = rottnest_fm::FmIndex::open(store.as_ref(), &built.path).unwrap();
        assert_eq!(index.sample_rate(), 4);
    }
    let merged = rot.compact(IndexKind::Substring, "body").unwrap();
    let index = rottnest_fm::FmIndex::open(store.as_ref(), &merged[0].path).unwrap();
    assert_eq!(index.sample_rate(), 4);
    assert_eq!(index.num_blocks(), index.len().div_ceil(512));
    assert!(index.num_blocks() > 1);
}
