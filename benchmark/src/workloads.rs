//! The seven workloads. Each returns a [`Report`] holding every
//! end-to-end metric (plain store, no decorator) or, traced, every
//! per-layer metric.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use rand::Rng;
use rottnest::Rottnest;
use rottnest_component::ComponentCache;
use rottnest_format::PageCache;
use rottnest_lake::Table;
use rottnest_object_store::{MemoryStore, ObjectStore, StatsSnapshot};
use rottnest_serve::QueryService;

use crate::config::*;
use crate::dataset::{FileData, Generator, Ingest, IngestReport};
use crate::engine::*;
use crate::layers;
use crate::oracle::Oracle;
use crate::queries::*;
use crate::report::Report;
use crate::stats::{mean, median, peak_rss_mb, percentile, Timing};
use crate::trace::{Tracer, TracingStore};

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Set-up builds per run: set-up time is the median of these.
const SETUP_BUILDS: usize = 3;
const PATTERNS: usize = 256;
const VECTORS: usize = 512;
const UUID_DRAWS: usize = 8192;
const COLD_PER_KIND: usize = 80;

const INGEST_FILES: usize = 16;
const INGEST_ROWS: usize = 500;
const INGEST_INDEX_EVERY: usize = 4;
const INGEST_QUERIES_PER_KIND: usize = 72;

const SIDE_FILES: usize = 8;
const SIDE_ROWS: usize = 250;
const SIDE_RUNS: usize = 6;

const CHURN_ROUNDS: usize = 12;
const CHURN_ROWS: usize = 500;
const CHURN_SEARCHES: usize = 40;
const CHURN_INDEX_EVERY: usize = 2;
const CHURN_COMPACT_EVERY: usize = 6;

pub fn run(args: &Args) -> Report {
    match args.workload.as_str() {
        "uuid_warm" | "substr_warm" | "vector_warm" | "cold_mix" => read(args),
        "ingest" => ingest(args),
        "churn" => churn(args),
        "serve_hot" => serve_hot(args),
        other => panic!("unknown workload {other}"),
    }
}

fn builds(args: &Args) -> usize {
    if args.trace {
        1
    } else {
        SETUP_BUILDS
    }
}

fn pct(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

/// The query-side end-to-end metrics.
fn set_query_metrics(r: &mut Report, res: &LoopResult) {
    let wall = res.wall();
    r.set("wall_qps", res.qps());
    r.set("wall_p50_us", res.p50_us());
    r.set("sim_mean_ms", mean(&res.sim_ms));
    r.set("sim_p95_ms", pct(&res.sim_ms, 95.0));
    r.set("store_requests_per_query", res.requests_per_query());
    r.set("recall_at_10", res.recall());
    r.note(format!(
        "wall: {} queries in {} passes, over all of them p50 {:.1} us{}; sim: {} queries per pass",
        wall.n,
        res.pass_qps.len(),
        wall.p50,
        wall.tail
            .map_or(String::new(), |(p, v)| format!(", p{p} {v:.1} us")),
        res.sim_ms.len()
    ));
    r.note(format!(
        "pass q/s: min {:.0}, quartiles {:.0} / {:.0} / {:.0}, max {:.0}",
        pct(&res.pass_qps, 0.0),
        pct(&res.pass_qps, 25.0),
        pct(&res.pass_qps, 50.0),
        pct(&res.pass_qps, 75.0),
        pct(&res.pass_qps, 100.0)
    ));
}

/// The write-side end-to-end metrics.
fn set_ingest_metrics(r: &mut Report, rows_per_s: f64, report: &IngestReport) {
    r.set("ingest_rows_per_s", rows_per_s);
    r.set("ingest_sim_s", report.sim_s);
    r.set("put_bytes_per_data_byte", report.put_bytes_per_data_byte());
    r.set(
        "index_bytes_per_data_byte",
        report.index_bytes_per_data_byte(),
    );
    r.note(format!(
        "ingest: {} rows, {} raw bytes, {} lake data bytes, {} index bytes, {} bytes PUT",
        report.rows, report.raw_bytes, report.data_bytes, report.index_bytes, report.put_bytes
    ));
    let total_ms = |v: &[f64]| v.iter().sum::<f64>().abs() / 1e3;
    r.note(format!(
        "ingest wall: {:.0} ms in all; {} appends {:.0} ms; index uuid {:.0} / substring {:.0} / vector {:.0} ms; {} compactions {:.0} ms; vacuum {:.0} ms",
        report.wall_s * 1e3,
        report.append_us.len(),
        total_ms(&report.append_us),
        total_ms(&report.index_us[0]),
        total_ms(&report.index_us[1]),
        total_ms(&report.index_us[2]),
        report.compact_us.len(),
        total_ms(&report.compact_us),
        total_ms(&report.vacuum_us)
    ));
}

/// End-to-end metrics of a workload made of whole passes (`ingest`,
/// `churn`): wall samples from every pass, exact costs from the first.
fn set_pass_metrics(r: &mut Report, passes: &[(&IngestReport, &LoopResult)], setup_s: f64) {
    let mut all = LoopResult::default();
    for (_, queries) in passes {
        all.absorb_wall(queries);
    }
    all.take_accounting(passes[0].1);
    set_query_metrics(r, &all);
    let reports: Vec<&IngestReport> = passes.iter().map(|(report, _)| *report).collect();
    set_ingest_metrics(r, IngestReport::best_rows_per_s(&reports), reports[0]);
    r.note(format!("{} passes", passes.len()));
    finish_end_to_end(r, setup_s, &all.tally);
}

fn finish_end_to_end(r: &mut Report, setup_s: f64, tally: &Tally) {
    r.set("setup_s", setup_s);
    r.set("peak_rss_mb", peak_rss_mb());
    r.attempted = tally.attempted;
    r.failed = tally.failed;
}

fn per_op(r: &mut Report, prefix_stats: &StatsSnapshot, ops: f64) {
    let s = prefix_stats;
    let n = ops.max(1.0);
    r.set("object-store.gets_per_op", s.gets as f64 / n);
    r.set("object-store.heads_per_op", s.heads as f64 / n);
    r.set("object-store.lists_per_op", s.lists as f64 / n);
    r.set("object-store.puts_per_op", s.puts as f64 / n);
    r.set("object-store.deletes_per_op", s.deletes as f64 / n);
    r.set("object-store.bytes_read_per_op", s.bytes_read as f64 / n);
    r.set(
        "object-store.bytes_written_per_op",
        s.bytes_written as f64 / n,
    );
    r.set(
        "object-store.coalesced_gets_per_op",
        s.coalesced_gets as f64 / n,
    );
    r.set("object-store.retries", s.retries as f64);
    r.set("object-store.dedup_hits", s.dedup_hits as f64);
    let rate = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    r.set(
        "component.cache_hit_rate",
        rate(s.cache_hits, s.cache_misses),
    );
    r.set(
        "format.page_cache_hit_rate",
        rate(s.page_cache_hits, s.page_cache_misses),
    );
    r.set(
        "component.cache_bytes",
        ComponentCache::global().bytes() as f64,
    );
    r.set(
        "format.page_cache_bytes",
        PageCache::global().bytes() as f64,
    );
}

/// Layer metrics that come from a traced query loop.
fn set_query_layers(r: &mut Report, res: &LoopResult, costs: &StoreCosts) {
    let n = res.accounted.max(1) as f64;
    per_op(r, &res.store, n);
    r.set("object-store.sim_ms_per_op", mean(&res.sim_ms));
    r.set("object-store.round_trips_per_op", costs.round_trips_per_op);
    r.set("object-store.host_us_per_op", costs.host_us_per_op);
    r.set("core.search_self_us", costs.self_us);
    let s = &res.search;
    r.set("core.index_files_per_op", s.index_files_queried as f64 / n);
    r.set("core.postings_per_op", s.postings_returned as f64 / n);
    r.set("core.pages_probed_per_op", s.pages_probed as f64 / n);
    r.set("format.pages_probed_per_op", s.pages_probed as f64 / n);
    r.set(
        "core.useful_page_ratio",
        res.useful_pages as f64 / s.pages_probed.max(1) as f64,
    );
    r.set(
        "core.files_brute_scanned_per_op",
        s.files_brute_scanned as f64 / n,
    );
    r.set("core.neg_cache_skips_per_op", s.neg_cache_skips as f64 / n);
    for (kind, name) in [
        "core.sim_ms.uuid",
        "core.sim_ms.substring",
        "core.sim_ms.vector",
    ]
    .into_iter()
    .enumerate()
    {
        let sims = res.sim_of_kind(kind);
        if !sims.is_empty() {
            r.set(name, pct(&sims, 50.0));
        }
    }
    r.set("core.wall_p99_us", Timing::p99_or_supported(&res.wall_us));
    r.note(format!(
        "trace: {} operations folded, {} store spans without a parent",
        costs.ops, costs.orphans
    ));
}

/// Write-path layer metrics from the build (or pass) the workload made
/// itself; what it did not do is left to the layer section.
fn set_build_layers(r: &mut Report, report: &IngestReport) {
    for (name, samples) in [
        ("lake.append_us", &report.append_us),
        ("lake.append_sim_ms", &report.append_sim_ms),
        ("lake.append_puts", &report.append_puts),
        ("core.index_us.uuid", &report.index_us[0]),
        ("core.index_us.substring", &report.index_us[1]),
        ("core.index_us.vector", &report.index_us[2]),
        ("core.compact_us", &report.compact_us),
        ("core.vacuum_us", &report.vacuum_us),
    ] {
        if !samples.is_empty() {
            r.set(name, median(samples));
        }
    }
}

/// The layer section fills in whatever the workload did not measure on
/// its own traffic.
fn set_layer_section(r: &mut Report, layers: layers::Layers) {
    for (name, value) in layers {
        r.values.entry(name).or_insert(value);
    }
}

fn overhead_pct(plain_qps: f64, traced_qps: f64) -> f64 {
    100.0 * (plain_qps - traced_qps) / plain_qps
}

// ---------------------------------------------------------------- read ----

/// `uuid_warm`, `substr_warm`, `vector_warm`, `cold_mix`: one closed-loop
/// client over `Rottnest::search` on `logs`.
fn read(args: &Args) -> Report {
    let mut env = setup_logs(
        args.seed,
        builds(args),
        LOGS_FILES,
        LOGS_ROWS_PER_FILE,
        PATTERNS,
        VECTORS,
        Vec::new(),
    );
    let cold = args.workload == "cold_mix";
    let list: Vec<Q> = match args.workload.as_str() {
        "uuid_warm" => uuid_list(&env, args.seed, UUID_DRAWS),
        "substr_warm" => pool_list(SUBSTR, PATTERNS, args.seed),
        "vector_warm" => pool_list(VECTOR, VECTORS, args.seed),
        _ => {
            // Kinds round-robin; a prefix of the pattern pool is balanced
            // over its classes.
            let uuids = uuid_list(&env, args.seed, COLD_PER_KIND);
            (0..COLD_PER_KIND)
                .flat_map(|i| [uuids[i].clone(), Q::Substr(i), Q::Vector(i)])
                .collect()
        }
    };
    let (path, warm) = if cold {
        (Path::Cold, 0)
    } else {
        (Path::Warm, 1)
    };
    let mut r = Report::default();

    if !args.trace {
        side_ingest(&mut r, &mut env.gen);
        let mem = &env.mem;
        let res = closed_loop(
            mem.as_ref(),
            mem,
            path,
            &list,
            &env.pools,
            &env.oracle,
            warm,
            args.seconds,
            None,
        );
        set_query_metrics(&mut r, &res);
        finish_end_to_end(&mut r, env.setup_s + res.warm_s, &res.tally);
        return r;
    }
    let mem = &env.mem;

    let tracer = Tracer::new(true);
    let traced = TracingStore::new(mem.clone(), tracer.clone());
    let half = args.seconds / 2.0;
    let plain = closed_loop(
        mem.as_ref(),
        mem,
        path,
        &list,
        &env.pools,
        &env.oracle,
        warm,
        half,
        None,
    );
    let res = closed_loop(
        &traced,
        mem,
        path,
        &list,
        &env.pools,
        &env.oracle,
        0,
        half,
        Some((&tracer, 0)),
    );
    r.spans = tracer.take();
    let costs = store_costs(&r.spans, "core", "search");
    set_query_layers(&mut r, &res, &costs);
    r.set(
        "core.trace_overhead_pct",
        overhead_pct(plain.qps(), res.qps()),
    );
    set_build_layers(&mut r, &env.ingest);
    set_layer_section(
        &mut r,
        layers::measure(&traced, mem, &tracer, &env.oracle, &env.pools),
    );
    let mut tally = plain.tally;
    tally.absorb(&res.tally);
    r.attempted = tally.attempted;
    r.failed = tally.failed;
    r
}

// -------------------------------------------------------------- ingest ----

struct IngestPass {
    report: IngestReport,
    queries: LoopResult,
    /// Store counters over the write part.
    written: StatsSnapshot,
    mem: Arc<MemoryStore>,
}

/// The write script of `ingest` on an empty store: append every file,
/// indexing all three kinds after every `INGEST_INDEX_EVERY`th, compact each
/// kind, vacuum, checkpoint the metadata. Returns the data paths.
fn write_script(
    store: &dyn ObjectStore,
    mem: &MemoryStore,
    files: &[FileData],
) -> (Vec<String>, IngestReport) {
    let mut ing = Ingest::create(store, mem);
    let mut paths = Vec::new();
    for (i, file) in files.iter().enumerate() {
        paths.push(ing.append(file));
        if (i + 1) % INGEST_INDEX_EVERY == 0 {
            ing.index_all();
        }
    }
    ing.compact_and_vacuum();
    ing.checkpoint_meta();
    (paths, ing.finish())
}

/// The write path beside a read workload: the `ingest` script in small
/// (`SIDE_FILES` files of `SIDE_ROWS` rows) run `SIDE_RUNS` times on fresh
/// stores, so that a read-side change that costs build time, index size or
/// PUT volume shows on the workload it was made for. The set-up builds of
/// `logs` cannot serve: two of their fifteen steps are most of their time,
/// and three samples of a half-second multi-threaded step do not repeat on
/// a shared box, where many samples of short steps do.
fn side_ingest(r: &mut Report, gen: &mut Generator) {
    let files = gen.files(SIDE_FILES, SIDE_ROWS);
    let reports: Vec<IngestReport> = (0..SIDE_RUNS)
        .map(|_| {
            let mem = MemoryStore::new();
            write_script(mem.as_ref(), &mem, &files).1
        })
        .collect();
    let rows_per_s = IngestReport::best_rows_per_s(&reports.iter().collect::<Vec<_>>());
    set_ingest_metrics(r, rows_per_s, &reports[0]);
}

/// One pass on a fresh store: append `INGEST_FILES` files indexing all
/// three kinds after every `INGEST_INDEX_EVERY`th, compact each kind, vacuum,
/// checkpoint the metadata, then the oracle queries on a fresh client.
fn ingest_pass(
    files: &[FileData],
    oracle: &mut Oracle,
    pools: &Pools,
    list: &[Q],
    tracer: Option<(&Arc<Tracer>, u32)>,
) -> IngestPass {
    clear_global_caches();
    let mem = MemoryStore::new();
    let traced = tracer.map(|(t, _)| TracingStore::new(mem.clone(), t.clone()));
    let store: &dyn ObjectStore = match &traced {
        Some(t) => t,
        None => mem.as_ref(),
    };
    let write = || write_script(store, &mem, files);
    let (paths, report) = match tracer {
        Some((t, pass)) => t.call(pass, "core", "ingest", mem.clock(), write),
        None => write(),
    };
    let written = mem.stats();
    oracle.set_paths(paths);
    let queries = closed_loop(
        store,
        &mem,
        Path::Warm,
        list,
        pools,
        oracle,
        0,
        0.0,
        tracer.map(|(t, pass)| (t.as_ref(), pass * 1_000_000)),
    );
    IngestPass {
        report,
        queries,
        written,
        mem,
    }
}

fn ingest(args: &Args) -> Report {
    // Set-up is input generation: the measured passes do the building.
    let mut gen_s = Vec::new();
    let mut made = None;
    for _ in 0..builds(args) {
        let t = Instant::now();
        let mut gen = Generator::new(args.seed);
        let files = gen.files(INGEST_FILES, INGEST_ROWS);
        gen_s.push(t.elapsed().as_secs_f64());
        made = Some((gen, files));
    }
    let (mut gen, files) = made.expect("at least one generation");
    let t = Instant::now();
    let mut oracle = Oracle::default();
    for (i, file) in files.iter().enumerate() {
        oracle.add_file(format!("unbuilt-{i}"), clone_file(file));
    }
    let mut rng = sampler(args.seed, 1);
    let patterns = pattern_pool(&oracle, INGEST_QUERIES_PER_KIND, Vec::new(), &mut rng);
    let (vectors, vector_truth) = vector_pool(&oracle, &mut gen, INGEST_QUERIES_PER_KIND);
    let pools = Pools {
        patterns,
        vectors,
        vector_truth,
    };
    let keys = key_pool(&oracle, &gen, INGEST_QUERIES_PER_KIND, &mut rng);
    let list: Vec<Q> = (0..INGEST_QUERIES_PER_KIND)
        .flat_map(|i| [Q::Uuid(keys[i].clone()), Q::Substr(i), Q::Vector(i)])
        .collect();
    let setup_s = median(&gen_s) + t.elapsed().as_secs_f64();

    let mut r = Report::default();
    if !args.trace {
        let mut passes = Vec::new();
        let mut measured = 0.0;
        while measured < args.seconds {
            let pass = ingest_pass(&files, &mut oracle, &pools, &list, None);
            measured += pass.report.wall_s + pass.queries.wall_us.iter().sum::<f64>() / 1e6;
            passes.push(pass);
        }
        let passes: Vec<_> = passes.iter().map(|p| (&p.report, &p.queries)).collect();
        set_pass_metrics(&mut r, &passes, setup_s);
        return r;
    }

    let tracer = Tracer::new(true);
    let plain = ingest_pass(&files, &mut oracle, &pools, &list, None);
    let pass = ingest_pass(&files, &mut oracle, &pools, &list, Some((&tracer, 1)));
    r.spans = tracer.take();
    // The oracle queries give the per-query search counters; the store
    // layer is then restated per pass, over the write part.
    let q = &pass.queries;
    let costs = store_costs(&r.spans, "core", "search");
    set_query_layers(&mut r, q, &costs);
    per_op(&mut r, &pass.written, 1.0);
    let write_costs = store_costs(&r.spans, "core", "ingest");
    r.set(
        "object-store.round_trips_per_op",
        write_costs.round_trips_per_op,
    );
    r.set("object-store.host_us_per_op", write_costs.host_us_per_op);
    r.set("object-store.sim_ms_per_op", pass.report.sim_s * 1e3);
    r.set(
        "core.trace_overhead_pct",
        overhead_pct(plain.report.rows_per_s(), pass.report.rows_per_s()),
    );
    set_build_layers(&mut r, &pass.report);
    let traced = TracingStore::new(pass.mem.clone(), tracer.clone());
    set_layer_section(
        &mut r,
        layers::measure(&traced, &pass.mem, &tracer, &oracle, &pools),
    );
    r.attempted = plain.queries.tally.attempted + q.tally.attempted;
    r.failed = plain.queries.tally.failed + q.tally.failed;
    r
}

fn clone_file(f: &FileData) -> FileData {
    FileData {
        keys: f.keys.clone(),
        docs: f.docs.clone(),
        vectors: f.vectors.clone(),
    }
}

// --------------------------------------------------------------- churn ----

/// Copies every object of `from` into a fresh store. Payloads are shared,
/// not copied; the new store has its own clock, counters and cache
/// namespace.
fn fork(from: &MemoryStore) -> Arc<MemoryStore> {
    let to = MemoryStore::new();
    for meta in from.list("").expect("list") {
        to.put(&meta.key, from.get(&meta.key).expect("get"))
            .expect("put");
    }
    to
}

struct ChurnPass {
    report: IngestReport,
    queries: LoopResult,
    service: rottnest_serve::ServiceStats,
    total: StatsSnapshot,
    mem: Arc<MemoryStore>,
}

/// One pass on a fork of `logs`: `CHURN_ROUNDS` rounds of append /
/// `CHURN_SEARCHES` mixed searches on a fresh snapshot (half aimed at the
/// newest, not-yet-indexed file) / index every `CHURN_INDEX_EVERY`th round /
/// compact + vacuum every `CHURN_COMPACT_EVERY`th, all on one thread through
/// `QueryService::query`.
fn churn_pass(
    env: &mut Env,
    files: &[FileData],
    base_list: &[Q],
    first_new_vector: usize,
    seed: u64,
    tracer: Option<(&Arc<Tracer>, u32)>,
) -> ChurnPass {
    clear_global_caches();
    let mem = fork(&env.mem);
    let base_stats = mem.stats();
    let traced = tracer.map(|(t, _)| TracingStore::new(mem.clone(), t.clone()));
    let store: &dyn ObjectStore = match &traced {
        Some(t) => t,
        None => mem.as_ref(),
    };
    let clock = mem.clock().expect("metered store");
    let base_files = env.oracle.files().len();
    let mut pools = env.pools.clone();
    let mut ing = Ingest::open(store, &mem);
    // The searcher is its own client, as a separate process would be.
    let rot = Rottnest::new(store, INDEX_DIR, rottnest_config());
    let service = QueryService::new(&rot, service_config(1));
    let table = Table::open(store, TABLE_ROOT, table_config()).expect("open table");
    let mut rng = sampler(seed, 7);
    let mut res = LoopResult::default();
    let mut next_query = tracer.map_or(0, |(_, pass)| pass * 1_000_000);
    let mut pass_s = 0.0;
    let span = |name: &'static str, f: &mut dyn FnMut()| match tracer {
        Some((t, _)) => t.call(0, "core", name, Some(clock), f),
        None => f(),
    };

    for (round, file) in files.iter().enumerate() {
        let mut path = String::new();
        span("append", &mut || path = ing.append(file));
        pools.patterns.add_docs(&file.docs);
        env.oracle.add_file(path, clone_file(file));
        let snapshot = table.snapshot().expect("snapshot");

        // Half the searches aim at the file just appended: its keys, its
        // needle, its vectors. The rest come from the base mix.
        let needle_at = pools
            .patterns
            .position(&needle_pattern(round))
            .expect("needle registered in set-up");
        let mut searches: Vec<Q> = Vec::with_capacity(CHURN_SEARCHES);
        for i in 0..CHURN_SEARCHES / 2 {
            searches.push(match i % 3 {
                0 => Q::Uuid(file.keys[rng.gen_range(0..file.rows())].clone()),
                1 => Q::Substr(needle_at),
                _ => Q::Vector(first_new_vector + round * 4 + i % 4),
            });
        }
        let at = round * (CHURN_SEARCHES / 2) % base_list.len();
        searches.extend(
            base_list
                .iter()
                .cycle()
                .skip(at)
                .take(CHURN_SEARCHES / 2)
                .cloned(),
        );
        for q in &searches {
            if let Q::Vector(i) = q {
                pools.vector_truth[*i] = env.oracle.vector_truth(&pools.vectors[*i]);
            }
            let (column, query) = pools.query(q);
            let run = || service.query(&table, &snapshot, column, &query, "bench");
            let before = (mem.stats(), clock.now_micros());
            let t0 = Instant::now();
            let out = match tracer {
                Some((t, _)) => {
                    next_query += 1;
                    t.call(next_query, "serve", "query", Some(clock), run)
                }
                None => run(),
            };
            let dt = t0.elapsed().as_secs_f64();
            res.sim_ms
                .push((clock.now_micros() - before.1) as f64 / 1e3);
            res.sim_kinds.push(q.kind() as u8);
            res.store = add_stats(&res.store, &mem.stats().since(&before.0));
            res.accounted += 1;
            if let Ok(out) = &out {
                res.search.absorb(&out.stats);
            }
            pass_s += dt;
            res.record_wall(
                res.wall_us.len(),
                CHURN_ROUNDS * CHURN_SEARCHES,
                dt * 1e6,
                q.kind(),
            );
            let recall = res.tally.record(&pools, &env.oracle, q, &out);
            res.recalls.extend(recall);
        }

        if (round + 1) % CHURN_INDEX_EVERY == 0 {
            span("index", &mut || ing.index_all());
        }
        if (round + 1) % CHURN_COMPACT_EVERY == 0 {
            span("compact", &mut || ing.compact_and_vacuum());
        }
    }
    res.end_pass(res.wall_us.len(), pass_s);
    env.oracle.truncate(base_files);
    let stats = service.stats();
    ChurnPass {
        report: ing.finish(),
        queries: res,
        service: stats,
        total: mem.stats().since(&base_stats),
        mem,
    }
}

/// The pattern that names churn round `round`'s file.
fn needle_pattern(round: usize) -> String {
    crate::dataset::needle(LOGS_FILES + round)
}

fn churn(args: &Args) -> Report {
    let extra: Vec<String> = (0..CHURN_ROUNDS).map(needle_pattern).collect();
    let mut env = setup_logs(
        args.seed,
        builds(args),
        LOGS_FILES,
        LOGS_ROWS_PER_FILE,
        PATTERNS,
        VECTORS,
        extra,
    );
    let t = Instant::now();
    let files = env.gen.files(CHURN_ROUNDS, CHURN_ROWS);
    // Four query vectors per round, taken from the round's own rows.
    let first_new_vector = env.pools.vectors.len();
    for file in &files {
        for i in 0..4 {
            env.pools.vectors.push(file.vectors[i * 7].clone());
            env.pools.vector_truth.push(Vec::new());
        }
    }
    let base_list = mixed_list(&env, args.seed, 0, 240, [1, 1, 1]);
    let setup_s = env.setup_s + t.elapsed().as_secs_f64();

    let mut r = Report::default();
    if !args.trace {
        let mut passes = Vec::new();
        let mut measured = 0.0;
        while measured < args.seconds {
            let pass = churn_pass(
                &mut env,
                &files,
                &base_list,
                first_new_vector,
                args.seed,
                None,
            );
            measured += pass.report.wall_s + pass.queries.wall_us.iter().sum::<f64>() / 1e6;
            passes.push(pass);
        }
        let passes: Vec<_> = passes.iter().map(|p| (&p.report, &p.queries)).collect();
        set_pass_metrics(&mut r, &passes, setup_s);
        return r;
    }

    let tracer = Tracer::new(true);
    let plain = churn_pass(
        &mut env,
        &files,
        &base_list,
        first_new_vector,
        args.seed,
        None,
    );
    let pass = churn_pass(
        &mut env,
        &files,
        &base_list,
        first_new_vector,
        args.seed,
        Some((&tracer, 1)),
    );
    r.spans = tracer.take();
    let costs = store_costs(&r.spans, "serve", "query");
    let q = &pass.queries;
    set_query_layers(&mut r, q, &costs);
    // Store traffic per op covers the whole pass (writes included), per search.
    per_op(&mut r, &pass.total, q.accounted as f64);
    r.set(
        "core.trace_overhead_pct",
        overhead_pct(plain.queries.qps(), q.qps()),
    );
    set_build_layers(&mut r, &pass.report);
    set_serve_layers(&mut r, &pass.service, q, 0.0);
    let traced = TracingStore::new(pass.mem.clone(), tracer.clone());
    set_layer_section(
        &mut r,
        layers::measure(&traced, &pass.mem, &tracer, &env.oracle, &env.pools),
    );
    r.attempted = plain.queries.tally.attempted + q.tally.attempted;
    r.failed = plain.queries.tally.failed + q.tally.failed;
    r
}

// ----------------------------------------------------------- serve_hot ----

fn set_serve_layers(
    r: &mut Report,
    stats: &rottnest_serve::ServiceStats,
    res: &LoopResult,
    scaling_efficiency: f64,
) {
    let seen = (stats.admitted + stats.queries_shed).max(1) as f64;
    r.set("serve.scaling_efficiency", scaling_efficiency);
    r.set(
        "serve.dedup_hit_rate",
        stats.dedup_hits as f64 / stats.admitted.max(1) as f64,
    );
    r.set("serve.shed_rate", stats.queries_shed as f64 / seen);
    r.set("serve.wall_p99_us", Timing::p99_or_supported(&res.wall_us));
    for (kind, name) in [
        "serve.wall_p50_us.uuid",
        "serve.wall_p50_us.substring",
        "serve.wall_p50_us.vector",
    ]
    .into_iter()
    .enumerate()
    {
        let w = res.wall_of_kind(kind);
        if !w.is_empty() {
            r.set(name, pct(&w, 50.0));
        }
    }
}

/// uuid / substring / vector shares of the `serve_hot` mix, out of 20. The
/// issue's 50/30/20 puts the median query exactly on the border between the
/// 20 us uuid lookups and the 500 us vector searches, where it flips from
/// run to run; with 45/30/25 it sits inside the vector share.
const SERVE_MIX: [usize; 3] = [9, 6, 5];

/// Client threads: `min(nproc, 4)`.
pub fn clients() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

/// Width of the slices of the window; the best slice gives `wall_qps`.
const SLICE_S: f64 = 1.0;

/// One query of a client thread: when it finished, in seconds since the
/// common start; its wall time in us; its kind.
type Finished = (f64, f64, u8);

struct HotWindow {
    res: LoopResult,
    service: rottnest_serve::ServiceStats,
}

/// `clients()` closed-loop threads through one shared `QueryService` for
/// `seconds`; each thread cycles over its own list.
fn hot_window(
    store: &dyn ObjectStore,
    env: &Env,
    lists: &[Vec<Q>],
    seconds: f64,
    tracer: Option<&Tracer>,
) -> HotWindow {
    let rot = Rottnest::new(store, INDEX_DIR, rottnest_config());
    let service = QueryService::new(&rot, service_config(lists.len()));
    let snapshot = Table::open(store, TABLE_ROOT, table_config())
        .expect("open table")
        .snapshot()
        .expect("snapshot");
    let clock = env.mem.clock().expect("metered store");
    let barrier = Barrier::new(lists.len());
    let window = Duration::from_secs_f64(seconds);
    let per_thread: Vec<(Vec<Finished>, Tally)> = std::thread::scope(|s| {
        let handles: Vec<_> = lists
            .iter()
            .enumerate()
            .map(|(c, list)| {
                let (service, snapshot, barrier) = (&service, &snapshot, &barrier);
                s.spawn(move || {
                    let table = Table::open(store, TABLE_ROOT, table_config()).expect("open table");
                    let mut samples = Vec::new();
                    let mut tally = Tally::default();
                    let mut query_id = (c as u32 + 1) * 10_000_000;
                    barrier.wait();
                    let start = Instant::now();
                    'window: loop {
                        for q in list {
                            if start.elapsed() >= window {
                                break 'window;
                            }
                            let (column, query) = env.pools.query(q);
                            let run = || service.query(&table, snapshot, column, &query, "bench");
                            let t0 = Instant::now();
                            let out = match tracer {
                                Some(t) => {
                                    query_id += 1;
                                    t.call(query_id, "serve", "query", Some(clock), run)
                                }
                                None => run(),
                            };
                            let dt = t0.elapsed().as_secs_f64();
                            samples.push((start.elapsed().as_secs_f64(), dt * 1e6, q.kind() as u8));
                            tally.record(&env.pools, &env.oracle, q, &out);
                        }
                    }
                    (samples, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    // Queries by the slice they finished in; a trailing partial slice is
    // dropped.
    let slices = (seconds / SLICE_S).floor().max(1.0) as usize;
    let mut by_slice: Vec<Vec<(f64, u8)>> = vec![Vec::new(); slices];
    let mut res = LoopResult::default();
    for (samples, tally) in &per_thread {
        res.tally.absorb(tally);
        for &(finished_s, wall_us, kind) in samples {
            if let Some(slice) = by_slice.get_mut((finished_s / SLICE_S) as usize) {
                slice.push((wall_us, kind));
            }
        }
    }
    for slice in by_slice.iter().filter(|s| !s.is_empty()) {
        for &(wall_us, kind) in slice {
            res.wall_us.push(wall_us);
            res.kinds.push(kind);
        }
        res.end_pass(slice.len(), SLICE_S.min(seconds));
    }
    HotWindow {
        res,
        service: service.stats(),
    }
}

fn serve_hot(args: &Args) -> Report {
    let mut env = setup_logs(
        args.seed,
        builds(args),
        LOGS_FILES,
        LOGS_ROWS_PER_FILE,
        PATTERNS,
        VECTORS,
        Vec::new(),
    );
    let mut r = Report::default();
    if !args.trace {
        side_ingest(&mut r, &mut env.gen);
    }
    let n = clients();
    let lists: Vec<Vec<Q>> = (0..n)
        .map(|c| mixed_list(&env, args.seed, c as u64, 500, SERVE_MIX))
        .collect();
    let mem = &env.mem;
    // One client on the same mix: the exact store-clock metrics (the clock
    // is shared and additive across threads, so they cannot be read off the
    // threaded window) and the base of the scaling efficiency.
    let reference = closed_loop(
        mem.as_ref(),
        mem,
        Path::Service,
        &lists[0],
        &env.pools,
        &env.oracle,
        1,
        args.seconds / 4.0,
        None,
    );
    let efficiency = |hot_qps: f64| hot_qps / (n as f64 * reference.qps());

    if !args.trace {
        let hot = hot_window(mem.as_ref(), &env, &lists, args.seconds, None);
        let mut res = hot.res;
        res.take_accounting(&reference);
        res.tally.absorb(&reference.tally);
        set_query_metrics(&mut r, &res);
        r.note(format!(
            "serve_hot: {n} clients, scaling efficiency {:.3} against 1 client at {:.0} q/s",
            efficiency(res.qps()),
            reference.qps()
        ));
        finish_end_to_end(&mut r, env.setup_s + reference.warm_s, &res.tally);
        return r;
    }

    let tracer = Tracer::new(false);
    let traced = TracingStore::new(mem.clone(), tracer.clone());
    let half = args.seconds / 2.0;
    let plain = hot_window(mem.as_ref(), &env, &lists, half, None);
    let before = mem.stats();
    let hot = hot_window(&traced, &env, &lists, half, Some(&tracer));
    let during = mem.stats().since(&before);
    r.spans = tracer.take();
    let costs = store_costs(&r.spans, "serve", "query");
    let mut res = hot.res;
    res.take_accounting(&reference);
    set_query_layers(&mut r, &res, &costs);
    // Store traffic of the threaded window itself, per completed query.
    per_op(&mut r, &during, res.wall_us.len() as f64);
    r.set(
        "core.trace_overhead_pct",
        overhead_pct(plain.res.qps(), res.qps()),
    );
    set_build_layers(&mut r, &env.ingest);
    set_serve_layers(&mut r, &hot.service, &res, efficiency(plain.res.qps()));
    let single = Tracer::new(true);
    let traced = TracingStore::new(mem.clone(), single.clone());
    set_layer_section(
        &mut r,
        layers::measure(&traced, mem, &single, &env.oracle, &env.pools),
    );
    r.attempted = plain.res.tally.attempted + res.tally.attempted + reference.tally.attempted;
    r.failed = plain.res.tally.failed + res.tally.failed + reference.tally.failed;
    r
}
