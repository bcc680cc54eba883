//! Deadline propagation through the search path:
//!
//! * an already-expired deadline fails typed *before* any store traffic;
//! * a deadline expiring mid-brute-scan aborts between files with a typed
//!   error and leaves every process-wide cache unpoisoned — the rerun
//!   matches a fault-free client that never saw an abort;
//! * the plain `search` entry point honors `SearchConfig::timeout_ms`;
//! * a budget that runs out inside the page-cache revalidation wave — whose
//!   HEADs may run on pool workers — still fails typed, with nothing
//!   partial returned and nothing poisoned;
//! * likewise a budget that runs out inside the speculative wave of a warm
//!   search — the plan-freshness HEAD beside the index probes it overlaps.
//!
//! The metered `MemoryStore` drives a deterministic virtual clock (a GET
//! costs ~30 virtual ms), so "the deadline passes during the scan" is a
//! scheduling-independent fact, not a racy sleep.

use rottnest::{IndexKind, Query, Rottnest, RottnestError};
use rottnest_format::NegScanCache;
use rottnest_integration::*;
use rottnest_lake::Table;
use rottnest_object_store::{MemoryStore, ObjectStore, OutageWindow, RetryPolicy};

/// The standing query: present in every file, so a full scan is needed.
const PATTERN: &[u8] = b"status S001";

fn query() -> Query<'static> {
    Query::Substring {
        pattern: PATTERN,
        k: 64,
    }
}

/// `(file ordinal, row)` pairs, sorted. Paths embed a process-global
/// sequence number, so cross-store comparison goes by the file's position
/// in manifest order (== creation order), as in the chaos soak.
fn norm(snap: &rottnest_lake::Snapshot, out: &rottnest::SearchOutcome) -> Vec<(usize, u64)> {
    let ordinal: std::collections::HashMap<&str, usize> = snap
        .files()
        .enumerate()
        .map(|(i, f)| (f.path.as_str(), i))
        .collect();
    let mut v: Vec<_> = out
        .matches
        .iter()
        .map(|m| (ordinal[m.path.as_str()], m.row))
        .collect();
    v.sort_unstable();
    v
}

/// Sequential brute scans so the per-file deadline checks interleave with
/// the virtual clock deterministically. No index is built: every file is
/// uncovered and must be brute-scanned.
fn brute_config() -> rottnest::RottnestConfig {
    let mut cfg = rot_config();
    cfg.search.parallelism = 1;
    cfg
}

#[test]
fn expired_deadline_fails_typed_before_any_store_traffic() {
    let store = MemoryStore::new();
    let table = make_table(store.as_ref(), 200, 2);
    let rot = Rottnest::new(store.as_ref(), "idx", brute_config());
    let snap = table.snapshot().unwrap();

    let now = store.now_ms();
    let before = store.stats();
    let err = rot
        .search_with_deadline(&table, &snap, "body", &query(), Some(now - 1))
        .unwrap_err();
    assert!(
        matches!(err, RottnestError::DeadlineExceeded { deadline_ms, .. } if deadline_ms == now - 1),
        "expected DeadlineExceeded, got {err:?}"
    );
    let delta = store.stats().since(&before);
    assert_eq!(delta.gets, 0, "an expired query must cost no GETs");
    assert_eq!(delta.lists, 0, "an expired query must cost no LISTs");
}

#[test]
fn mid_scan_abort_is_typed_and_leaves_caches_unpoisoned() {
    // Two identical universes; only A suffers the aborted search.
    let store_a = MemoryStore::new();
    let store_b = MemoryStore::new();
    let table_a = make_table(store_a.as_ref(), 200, 2);
    let table_b = make_table(store_b.as_ref(), 200, 2);
    let rot_a = Rottnest::new(store_a.as_ref(), "idx", brute_config());
    let rot_b = Rottnest::new(store_b.as_ref(), "idx", brute_config());
    let snap_a = table_a.snapshot().unwrap();
    let snap_b = table_b.snapshot().unwrap();

    // A budget of 1 virtual ms: the entry check passes, the first file's
    // reads push the clock ~30ms past the deadline, and the check before
    // the second file aborts.
    let deadline = store_a.now_ms() + 1;
    let err = rot_a
        .search_with_deadline(&table_a, &snap_a, "body", &query(), Some(deadline))
        .unwrap_err();
    assert!(
        matches!(err, RottnestError::DeadlineExceeded { .. }),
        "expected DeadlineExceeded, got {err:?}"
    );

    // The aborted scan must not have recorded anything poisonous: the
    // unscanned second file has no proven-empty entry for this probe.
    let ns = store_a.store_id();
    let probe = NegScanCache::probe_fingerprint(1, "body", PATTERN);
    for f in snap_a.files() {
        assert!(
            !NegScanCache::global().known_empty(ns, &f.path, f.size, probe),
            "abort must not mark {} proven-empty",
            f.path
        );
    }

    // Rerun without a deadline: bit-identical to the never-aborted client.
    let after = rot_a.search(&table_a, &snap_a, "body", &query()).unwrap();
    let clean = rot_b.search(&table_b, &snap_b, "body", &query()).unwrap();
    assert_eq!(
        norm(&snap_a, &after),
        norm(&snap_b, &clean),
        "abort poisoned a cache"
    );
    assert_eq!(
        after.matches.len(),
        6,
        "status S001 in rows {{1,38,75,112,149,186}}"
    );
}

#[test]
fn plain_search_honors_configured_timeout() {
    let store = MemoryStore::new();
    let table = make_table(store.as_ref(), 200, 2);
    let mut cfg = brute_config();
    cfg.search.timeout_ms = Some(1);
    let rot = Rottnest::new(store.as_ref(), "idx", cfg);
    let snap = table.snapshot().unwrap();

    let err = rot.search(&table, &snap, "body", &query()).unwrap_err();
    assert!(
        matches!(err, RottnestError::DeadlineExceeded { .. }),
        "expected DeadlineExceeded, got {err:?}"
    );

    // The same client with the timeout lifted finishes and is correct.
    let mut cfg = brute_config();
    cfg.search.timeout_ms = None;
    let rot = Rottnest::new(store.as_ref(), "idx", cfg);
    let out = rot.search(&table, &snap, "body", &query()).unwrap();
    assert_eq!(out.matches.len(), 6);
}

/// A backoff no budget in these tests can fit: a failed request must give
/// up typed rather than wait.
fn impatient_retry() -> RetryPolicy {
    RetryPolicy {
        base_backoff_ms: 10_000_000,
        max_backoff_ms: 10_000_000,
        ..RetryPolicy::default()
    }
}

fn impatient_table_config() -> rottnest_lake::TableConfig {
    let mut cfg = small_pages();
    cfg.retry = impatient_retry();
    cfg
}

fn open_impatient(store: &MemoryStore) -> Table<'_> {
    Table::open(store, "tbl", impatient_table_config()).unwrap()
}

#[test]
fn budget_expiring_during_revalidation_is_typed_at_any_parallelism() {
    for parallelism in [1, 8] {
        // Two identical universes, FM-indexed over four files; only A's
        // data files suffer an outage while a deadline is running.
        let mut cfg = rot_config();
        cfg.search.parallelism = parallelism;
        let store_a = MemoryStore::new();
        let store_b = MemoryStore::new();
        for store in [&store_a, &store_b] {
            let table = make_table(store.as_ref(), 400, 4);
            Rottnest::new(store.as_ref(), "idx", cfg.clone())
                .index(&table, IndexKind::Substring, "body")
                .unwrap()
                .unwrap();
        }
        let (table_a, table_b) = (open_impatient(&store_a), open_impatient(&store_b));
        let rot_a = Rottnest::new(store_a.as_ref(), "idx", cfg.clone());
        let rot_b = Rottnest::new(store_b.as_ref(), "idx", cfg.clone());
        let snap_a = table_a.snapshot().unwrap();
        let snap_b = table_b.snapshot().unwrap();

        // The index answers (its domain is healthy); the first requests to
        // the data files are the revalidation HEADs, which all fail. A ten
        // second budget covers the index phase many times over but not one
        // backoff.
        let now = store_a.now_ms();
        let deadline = now + 10_000;
        store_a
            .faults()
            .schedule_outage(OutageWindow::domain("tbl/data/", now, u64::MAX));
        let before = store_a.stats();
        let err = rot_a
            .search_with_deadline(&table_a, &snap_a, "body", &query(), Some(deadline))
            .unwrap_err();
        assert!(
            matches!(err, RottnestError::DeadlineExceeded { deadline_ms, .. } if deadline_ms == deadline),
            "parallelism {parallelism}: expected DeadlineExceeded, got {err:?}"
        );
        let delta = store_a.stats().since(&before);
        assert_eq!(delta.heads, 4, "one HEAD per data file, no retry");
        assert!(
            store_a.now_ms() < deadline,
            "the wave must not sleep through the budget"
        );

        // Outage over: fresh handles (the old ones' breakers saw the
        // failures) see exactly what the never-aborted universe sees.
        store_a.faults().clear_outages();
        let table_a = open_impatient(&store_a);
        let rot_a = Rottnest::new(store_a.as_ref(), "idx", cfg);
        let after = rot_a.search(&table_a, &snap_a, "body", &query()).unwrap();
        let clean = rot_b.search(&table_b, &snap_b, "body", &query()).unwrap();
        assert_eq!(
            norm(&snap_a, &after),
            norm(&snap_b, &clean),
            "abort poisoned a cache"
        );
        assert_eq!(after.matches.len(), 11, "status S001 in rows 1 + 37i < 400");
        assert_eq!(after.stats.files_brute_scanned, 0, "served by the index");
    }
}

/// The warm path's first wave is speculative: the freshness HEAD of the
/// metadata log rides beside the index probes. With five units it runs on
/// pool workers at parallelism 8, which must each see the caller's
/// deadline: a failed unit gives up typed instead of sleeping a backoff the
/// budget cannot fit, and the unconfirmed wave answers nothing.
#[test]
fn budget_expiring_during_the_speculative_wave_is_typed_at_any_parallelism() {
    for parallelism in [1, 8] {
        let mut cfg = rot_config();
        cfg.search.parallelism = parallelism;
        cfg.retry = impatient_retry();
        let store = MemoryStore::new();
        let table = make_table(store.as_ref(), 100, 1);
        let rot = Rottnest::new(store.as_ref(), "idx", cfg);
        for i in 1..=4 {
            if i > 1 {
                table.append(&batch((i - 1) * 100..i * 100)).unwrap();
            }
            rot.index(&table, IndexKind::Substring, "body")
                .unwrap()
                .unwrap();
        }
        let snap = table.snapshot().unwrap();
        let cold = rot.search(&table, &snap, "body", &query()).unwrap();
        let warm = rot.search(&table, &snap, "body", &query()).unwrap();
        assert_eq!(warm.stats.index_files_queried, 4);
        assert_eq!(norm(&snap, &cold), norm(&snap, &warm));

        let now = store.now_ms();
        let deadline = now + 10_000;
        store
            .faults()
            .schedule_outage(OutageWindow::domain("idx/", now, u64::MAX));
        let before = store.stats();
        let err = rot
            .search_with_deadline(&table, &snap, "body", &query(), Some(deadline))
            .unwrap_err();
        assert!(
            matches!(err, RottnestError::DeadlineExceeded { deadline_ms, .. } if deadline_ms == deadline),
            "parallelism {parallelism}: expected DeadlineExceeded, got {err:?}"
        );
        let delta = store.stats().since(&before);
        assert_eq!(
            delta.lists, 0,
            "the wave is the first thing a warm search does"
        );
        assert!(
            store.now_ms() < deadline,
            "no unit of the wave may sleep through the budget"
        );

        // Outage over: a fresh client (the old one's breaker saw the
        // failures) answers exactly what the warm search did.
        store.faults().clear_outages();
        let mut cfg = rot_config();
        cfg.search.parallelism = parallelism;
        let rot = Rottnest::new(store.as_ref(), "idx", cfg);
        let after = rot.search(&table, &snap, "body", &query()).unwrap();
        assert_eq!(norm(&snap, &after), norm(&snap, &warm));
        assert_eq!(after.stats.files_brute_scanned, 0, "served by the index");
    }
}
