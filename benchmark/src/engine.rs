//! What the workloads share: set-up of the `logs` dataset, the closed
//! single-client query loop, and the fold from a traced window's spans to
//! per-query store costs.

use std::sync::Arc;
use std::time::Instant;

use rottnest::{Rottnest, SearchOutcome, SearchStats};
use rottnest_component::ComponentCache;
use rottnest_format::PageCache;
use rottnest_lake::Table;
use rottnest_object_store::{MemoryStore, ObjectStore, StatsSnapshot};
use rottnest_serve::{AdmissionConfig, QueryService, ServiceConfig};

use crate::config::*;
use crate::dataset::{build_logs, FileData, Generator, IngestReport};
use crate::oracle::Oracle;
use crate::queries::*;
use crate::stats::{median, Timing};
use crate::trace::{covered_ns, sequential_groups, Span, SpanTree, Tracer};

/// Errors plus oracle mismatches against attempts.
#[derive(Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Checks one answer; returns its recall when the oracle expected rows.
    pub fn record(
        &mut self,
        pools: &Pools,
        oracle: &Oracle,
        q: &Q,
        out: &rottnest::Result<SearchOutcome>,
    ) -> Option<f64> {
        self.attempted += 1;
        let Ok(out) = out else {
            self.failed += 1;
            return None;
        };
        let check = pools.check(oracle, q, out);
        self.failed += u64::from(!check.ok);
        check.recall
    }

    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A built `logs` dataset with its oracle and query pools.
pub struct Env {
    pub mem: Arc<MemoryStore>,
    pub gen: Generator,
    pub oracle: Oracle,
    pub pools: Pools,
    /// Generation + median build + oracle and pools, in seconds.
    pub setup_s: f64,
    /// Accounting of the build that was kept.
    pub ingest: IngestReport,
}

/// Drops every entry of the process-wide caches (entries of stores that
/// no longer exist would otherwise sit there until evicted).
pub fn clear_global_caches() {
    ComponentCache::global().clear();
    PageCache::global().clear();
}

/// Generates `logs` from `seed` and builds it `builds` times on fresh
/// stores (the last is kept), so set-up time is a median. `extra_patterns`
/// join the substring pool; `pattern_n` / `vector_n` size the pools.
pub fn setup_logs(
    seed: u64,
    builds: usize,
    files: usize,
    rows_per_file: usize,
    pattern_n: usize,
    vector_n: usize,
    extra_patterns: Vec<String>,
) -> Env {
    let t0 = Instant::now();
    let mut gen = Generator::new(seed);
    let data: Vec<FileData> = gen.files(files, rows_per_file);
    let gen_s = t0.elapsed().as_secs_f64();

    let mut build_s = Vec::new();
    let mut kept = None;
    for _ in 0..builds {
        clear_global_caches();
        let mem = MemoryStore::new();
        let t = Instant::now();
        let (paths, report) = build_logs(mem.as_ref(), &mem, &data);
        build_s.push(t.elapsed().as_secs_f64());
        kept = Some((mem, paths, report));
    }
    let (mem, paths, ingest) = kept.expect("at least one build");

    let t = Instant::now();
    let mut oracle = Oracle::default();
    for (path, file) in paths.into_iter().zip(data) {
        oracle.add_file(path, file);
    }
    let mut rng = sampler(seed, 1);
    let patterns = pattern_pool(&oracle, pattern_n, extra_patterns, &mut rng);
    let (vectors, vector_truth) = vector_pool(&oracle, &mut gen, vector_n);
    let oracle_s = t.elapsed().as_secs_f64();

    Env {
        mem,
        gen,
        oracle,
        pools: Pools {
            patterns,
            vectors,
            vector_truth,
        },
        setup_s: gen_s + median(&build_s) + oracle_s,
        ingest,
    }
}

/// The `uuid_warm` list: Zipf(1.0) draws over 4,096 present + 10% absent keys.
pub fn uuid_list(env: &Env, seed: u64, draws: usize) -> Vec<Q> {
    let mut rng = sampler(seed, 2);
    let pool = key_pool(&env.oracle, &env.gen, 4096, &mut rng);
    zipf_draws(pool.len(), draws, &mut rng)
        .into_iter()
        .map(|i| Q::Uuid(pool[i].clone()))
        .collect()
}

/// Every pool entry of `kind` once, in seeded order.
pub fn pool_list(kind: usize, n: usize, seed: u64) -> Vec<Q> {
    let mut list: Vec<Q> = (0..n)
        .map(|i| {
            if kind == SUBSTR {
                Q::Substr(i)
            } else {
                Q::Vector(i)
            }
        })
        .collect();
    shuffle(&mut list, &mut sampler(seed, 3 + kind as u64));
    list
}

/// A count-weighted mix: `shares` are per-kind weights out of their sum.
/// Keys are Zipf(1.0) over their pool; patterns and vectors walk their
/// pools from a per-stream offset, so every stream of every seed has the
/// same make-up.
pub fn mixed_list(env: &Env, seed: u64, stream: u64, n: usize, shares: [usize; 3]) -> Vec<Q> {
    let mut rng = sampler(seed, 100 + stream);
    let keys = key_pool(&env.oracle, &env.gen, 4096, &mut rng);
    let total: usize = shares.iter().sum();
    let key_draws = zipf_draws(keys.len(), n, &mut rng);
    let at = stream as usize * 97;
    let mut list: Vec<Q> = (0..n)
        .map(|i| {
            let slot = i % total;
            if slot < shares[0] {
                Q::Uuid(keys[key_draws[i]].clone())
            } else if slot < shares[0] + shares[1] {
                Q::Substr((at + i) % env.pools.patterns.len())
            } else {
                Q::Vector((at + i) % env.pools.vectors.len())
            }
        })
        .collect();
    shuffle(&mut list, &mut rng);
    list
}

/// How a closed loop talks to the program.
#[derive(Clone, Copy, PartialEq)]
pub enum Path {
    /// `Rottnest::search`, caches kept.
    Warm,
    /// `Rottnest::search` on a fresh client after clearing the process-wide
    /// component and page caches (untimed) before every query.
    Cold,
    /// `QueryService::query` over one client, caches kept.
    Service,
}

/// A service that never sheds: room for every client, no tenant budget,
/// no implicit deadline.
pub fn service_config(clients: usize) -> ServiceConfig {
    ServiceConfig {
        admission: AdmissionConfig {
            max_concurrent: clients.max(1) * 2,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Per-query exact costs of one pass, plus the wall samples of every pass.
#[derive(Default)]
pub struct LoopResult {
    pub tally: Tally,
    /// Queries per second of each timed pass (sum of query times only).
    pub pass_qps: Vec<f64>,
    /// Median query wall time of each timed pass.
    pub pass_p50_us: Vec<f64>,
    /// The fastest time seen for each position of the list, over all timed
    /// passes.
    pub best_us: Vec<f64>,
    /// Wall time of every timed query, with its kind.
    pub wall_us: Vec<f64>,
    pub kinds: Vec<u8>,
    /// Store-clock time of each query of the accounting pass, with its kind.
    pub sim_ms: Vec<f64>,
    pub sim_kinds: Vec<u8>,
    /// Store counters over the accounting pass.
    pub store: StatsSnapshot,
    /// `SearchStats` summed over the accounting pass.
    pub search: SearchStats,
    /// Queries in the accounting pass.
    pub accounted: u64,
    /// Recall of each accounting-pass answer that had rows to recall.
    pub recalls: Vec<f64>,
    /// Distinct data pages holding a returned match, over the accounting pass.
    pub useful_pages: u64,
    /// Wall time of the untimed warm passes.
    pub warm_s: f64,
}

impl LoopResult {
    /// Throughput with every query of the list at the fastest time it was
    /// seen to take. The box is a shared two-core VM: interference only ever
    /// slows a query down, in bursts and for seconds on end (a pure-CPU loop
    /// varies by a quarter, CPU time equal to wall time), so per-query minima
    /// over the passes repeat from run to run where a pass's total does not.
    ///
    /// A window with several clients has no per-position times (queries
    /// overlap); its best slice stands in.
    pub fn qps(&self) -> f64 {
        if self.best_us.is_empty() {
            return self.pass_qps.iter().copied().fold(0.0, f64::max);
        }
        self.best_us.len() as f64 / (self.best_us.iter().sum::<f64>() / 1e6)
    }

    /// The median over the list of each query's fastest time, for the same
    /// reason (with several clients: the lowest per-slice median).
    pub fn p50_us(&self) -> f64 {
        if self.best_us.is_empty() {
            return self
                .pass_p50_us
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min);
        }
        median(&self.best_us)
    }

    /// Records one timed query at position `at` of a list of `len`.
    pub fn record_wall(&mut self, at: usize, len: usize, wall_us: f64, kind: usize) {
        if self.best_us.len() < len {
            self.best_us.resize(len, f64::INFINITY);
        }
        self.best_us[at] = self.best_us[at].min(wall_us);
        self.wall_us.push(wall_us);
        self.kinds.push(kind as u8);
    }

    /// Closes a timed pass: the last `n` wall samples belong to it.
    pub fn end_pass(&mut self, n: usize, pass_s: f64) {
        self.pass_qps.push(n as f64 / pass_s);
        self.pass_p50_us
            .push(median(&self.wall_us[self.wall_us.len() - n..]));
    }

    /// Takes over the wall samples and tallies of another pass over the
    /// same list.
    pub fn absorb_wall(&mut self, other: &LoopResult) {
        self.pass_qps.extend(&other.pass_qps);
        self.pass_p50_us.extend(&other.pass_p50_us);
        if self.best_us.is_empty() {
            self.best_us = other.best_us.clone();
        } else {
            for (mine, theirs) in self.best_us.iter_mut().zip(&other.best_us) {
                *mine = mine.min(*theirs);
            }
        }
        self.wall_us.extend(&other.wall_us);
        self.kinds.extend(&other.kinds);
        self.tally.absorb(&other.tally);
    }

    pub fn wall(&self) -> Timing {
        Timing::of(&self.wall_us)
    }

    pub fn wall_of_kind(&self, kind: usize) -> Vec<f64> {
        self.wall_us
            .iter()
            .zip(&self.kinds)
            .filter(|(_, &k)| k as usize == kind)
            .map(|(w, _)| *w)
            .collect()
    }

    pub fn sim_of_kind(&self, kind: usize) -> Vec<f64> {
        self.sim_ms
            .iter()
            .zip(&self.sim_kinds)
            .filter(|(_, &k)| k as usize == kind)
            .map(|(s, _)| *s)
            .collect()
    }

    /// Takes over the exact per-query costs another loop accounted: the
    /// passes of one list are identical, so one accounting stands for all.
    pub fn take_accounting(&mut self, from: &LoopResult) {
        self.sim_ms = from.sim_ms.clone();
        self.sim_kinds = from.sim_kinds.clone();
        self.recalls = from.recalls.clone();
        self.store = from.store;
        self.search = from.search;
        self.accounted = from.accounted;
        self.useful_pages = from.useful_pages;
    }

    /// Mean recall over the accounting pass (every pass gives the same
    /// answers; taking one keeps the figure exact).
    pub fn recall(&self) -> f64 {
        self.recalls.iter().sum::<f64>() / self.recalls.len().max(1) as f64
    }

    pub fn requests_per_query(&self) -> f64 {
        let s = &self.store;
        (s.gets + s.heads + s.lists + s.puts + s.deletes) as f64 / self.accounted.max(1) as f64
    }
}

/// One client, one query at a time: `warm_passes` untimed passes over
/// `list`, one accounting pass (timed too), then whole timed passes until
/// `seconds` of query time have been measured. With a tracer, every query
/// is a span `core/search` (or `serve/query`) numbered from `first_query`.
#[allow(clippy::too_many_arguments)]
pub fn closed_loop(
    store: &dyn ObjectStore,
    mem: &MemoryStore,
    path: Path,
    list: &[Q],
    pools: &Pools,
    oracle: &Oracle,
    warm_passes: usize,
    seconds: f64,
    tracer: Option<(&Tracer, u32)>,
) -> LoopResult {
    let table = Table::open(store, TABLE_ROOT, table_config()).expect("open table");
    let snapshot = table.snapshot().expect("snapshot");
    let client = || Rottnest::new(store, INDEX_DIR, rottnest_config());
    let rot = client();
    let service = QueryService::new(&rot, service_config(1));
    let clock = mem.clock().expect("metered store");
    let page_of = page_lookup(&rot);

    let mut res = LoopResult::default();
    let mut next_query = tracer.map_or(0, |(_, first)| first);
    let mut measured_s = 0.0;
    let mut pass = 0usize;
    while pass <= warm_passes || measured_s < seconds {
        let timed = pass >= warm_passes;
        let accounting = pass == warm_passes;
        let mut pass_s = 0.0;
        for (at, q) in list.iter().enumerate() {
            let (column, query) = pools.query(q);
            let fresh;
            let rot = if path == Path::Cold {
                clear_global_caches();
                fresh = client();
                &fresh
            } else {
                &rot
            };
            let run = || match path {
                Path::Service => service.query(&table, &snapshot, column, &query, "bench"),
                _ => rot.search(&table, &snapshot, column, &query),
            };
            let before = accounting.then(|| (mem.stats(), clock.now_micros()));
            let t0 = Instant::now();
            let out = match tracer {
                Some((tracer, _)) if timed => {
                    next_query += 1;
                    let (layer, name) = if path == Path::Service {
                        ("serve", "query")
                    } else {
                        ("core", "search")
                    };
                    tracer.call(next_query, layer, name, Some(clock), run)
                }
                _ => run(),
            };
            let dt = t0.elapsed().as_secs_f64();
            if let Some((stats0, sim0)) = before {
                res.sim_ms.push((clock.now_micros() - sim0) as f64 / 1e3);
                res.sim_kinds.push(q.kind() as u8);
                res.store = add_stats(&res.store, &mem.stats().since(&stats0));
                res.accounted += 1;
                if let Ok(out) = &out {
                    res.search.absorb(&out.stats);
                    res.useful_pages += page_of.distinct_pages(out);
                }
            }
            pass_s += dt;
            if timed {
                res.record_wall(at, list.len(), dt * 1e6, q.kind());
            }
            let recall = res.tally.record(pools, oracle, q, &out);
            if accounting {
                res.recalls.extend(recall);
            }
        }
        if timed {
            res.end_pass(list.len(), pass_s);
            measured_s += pass_s;
        } else {
            res.warm_s += pass_s;
        }
        pass += 1;
    }
    res
}

pub fn add_stats(a: &StatsSnapshot, b: &StatsSnapshot) -> StatsSnapshot {
    StatsSnapshot {
        gets: a.gets + b.gets,
        puts: a.puts + b.puts,
        lists: a.lists + b.lists,
        deletes: a.deletes + b.deletes,
        heads: a.heads + b.heads,
        bytes_read: a.bytes_read + b.bytes_read,
        bytes_written: a.bytes_written + b.bytes_written,
        retries: a.retries + b.retries,
        coalesced_gets: a.coalesced_gets + b.coalesced_gets,
        cache_hits: a.cache_hits + b.cache_hits,
        cache_misses: a.cache_misses + b.cache_misses,
        page_cache_hits: a.page_cache_hits + b.page_cache_hits,
        page_cache_misses: a.page_cache_misses + b.page_cache_misses,
        dedup_hits: a.dedup_hits + b.dedup_hits,
        ..*a
    }
}

/// Maps a returned match to its data page through the index metadata's
/// page tables (the public `IndexEntry::files`).
pub struct PageLookup {
    /// column -> data path -> page table.
    tables: Vec<(
        String,
        std::collections::HashMap<String, rottnest_format::PageTable>,
    )>,
}

pub fn page_lookup(rot: &Rottnest<'_>) -> PageLookup {
    let mut tables: Vec<(
        String,
        std::collections::HashMap<String, rottnest_format::PageTable>,
    )> = Vec::new();
    for entry in rot.meta().scan().expect("scan index metadata") {
        let slot = match tables.iter().position(|(c, _)| *c == entry.column) {
            Some(i) => i,
            None => {
                tables.push((entry.column.clone(), Default::default()));
                tables.len() - 1
            }
        };
        for f in entry.files {
            tables[slot].1.insert(f.path, f.page_table);
        }
    }
    PageLookup { tables }
}

impl PageLookup {
    /// Distinct (file, page) pairs among the matches of `out`; matches in
    /// files no index covers (brute-scanned) have no page and count nothing.
    pub fn distinct_pages(&self, out: &SearchOutcome) -> u64 {
        let mut pages: Vec<(&str, usize)> = Vec::new();
        for m in &out.matches {
            for (_, by_path) in &self.tables {
                if let Some(page) = by_path.get(&m.path).and_then(|t| t.page_of_row(m.row)) {
                    if !pages.contains(&(m.path.as_str(), page)) {
                        pages.push((&m.path, page));
                    }
                    break;
                }
            }
        }
        pages.len() as u64
    }
}

/// Store costs per operation, folded from a traced window's spans.
#[derive(Default)]
pub struct StoreCosts {
    pub ops: u64,
    /// Groups of overlapping store calls: what ran one after another.
    pub round_trips_per_op: f64,
    /// Host time inside store calls (overlaps counted once).
    pub host_us_per_op: f64,
    /// Median root-span self time: the span minus what its store calls cover.
    pub self_us: f64,
    /// Store spans no root could be attributed to (several clients, worker
    /// threads).
    pub orphans: u64,
}

/// Folds the spans under every `(layer, name)` root.
pub fn store_costs(spans: &[Span], layer: &str, name: &str) -> StoreCosts {
    let tree = SpanTree::new(spans);
    let mut self_us = Vec::new();
    let (mut trips, mut host_ns) = (0u64, 0u64);
    for root in tree.named(layer, name) {
        let mut intervals: Vec<(u64, u64)> = tree
            .store_spans_under(root)
            .iter()
            .map(|s| (s.start_ns.max(root.start_ns), s.end_ns.min(root.end_ns)))
            .collect();
        trips += sequential_groups(&mut intervals);
        let covered = covered_ns(&mut intervals);
        host_ns += covered;
        self_us.push((root.dur_ns() - covered) as f64 / 1e3);
    }
    let n = self_us.len().max(1) as f64;
    StoreCosts {
        ops: self_us.len() as u64,
        round_trips_per_op: trips as f64 / n,
        host_us_per_op: host_ns as f64 / 1e3 / n,
        self_us: if self_us.is_empty() {
            0.0
        } else {
            median(&self_us)
        },
        orphans: spans
            .iter()
            .filter(|s| s.layer == crate::trace::STORE_LAYER && s.parent == 0)
            .count() as u64,
    }
}
