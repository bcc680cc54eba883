//! The metric names of `BENCHMARK.json`, in its order, and what one run
//! of one workload reports.

use std::collections::HashMap;

use crate::stats::{metric, Metric};

pub const WORKLOADS: [&str; 7] = [
    "uuid_warm",
    "substr_warm",
    "vector_warm",
    "cold_mix",
    "ingest",
    "churn",
    "serve_hot",
];

/// Why each workload is there, in `WORKLOADS` order.
const WHY: [&str; 7] = [
    "1 closed-loop client, warm uuid lookups over Zipf keys: trie, planning and page decode do all the work, fm and ivfpq none; the overhead canary",
    "1 closed-loop client, warm substring search over 256 patterns: fm locate, component cache and page decode dominate; bypasses ivfpq and the GET path",
    "1 closed-loop client, warm vector search over 512 queries with recall checked: ivfpq ADC scan plus refine page fetch; bypasses fm and trie",
    "1 closed-loop client, caches cleared and a fresh client before every query, kinds round-robin: request depth times first-byte latency, the working set that does not fit",
    "write path on fresh stores: append, index, compact, vacuum, checkpoint, then oracle queries; a read-side gain that costs build time, index size or PUT volume shows here",
    "reads beside writes through QueryService on one thread: fragmented index set, uncovered files, brute scans, plan and cache invalidation",
    "min(nproc,4) closed-loop client threads through one shared QueryService on a warm mix: contention on global caches, stats and the worker pool",
];

/// An end-to-end metric as `BENCHMARK.json` declares it.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
    /// Repeats exactly for one seed on one build (counts and store-clock
    /// time with one client); host timings and memory do not.
    pub exact: bool,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
    exact: bool,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
        exact,
    }
}

/// Every workload reports every one, and none is ever 0. Store-clock time
/// has units of its own (`sim_ms`, `sim_s`): it is a count of modelled
/// latency, repeats exactly, and is not host time.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", false, 0.25, false),
    e2e("wall_qps", "1/s", true, 0.25, false),
    e2e("wall_p50_us", "us", false, 0.25, false),
    e2e("sim_mean_ms", "sim_ms", false, 0.08, true),
    e2e("sim_p95_ms", "sim_ms", false, 0.05, true),
    e2e("store_requests_per_query", "count", false, 0.10, true),
    e2e("recall_at_10", "ratio", true, 0.01, true),
    e2e("ingest_rows_per_s", "rows/s", true, 0.25, false),
    e2e("ingest_sim_s", "sim_s", false, 0.01, true),
    e2e("put_bytes_per_data_byte", "ratio", false, 0.03, true),
    e2e("index_bytes_per_data_byte", "ratio", false, 0.03, true),
    e2e("peak_rss_mb", "MB", false, 0.25, false),
];

/// (name, unit, higher is better). A traced run reports every one; a metric
/// a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    ("object-store.gets_per_op", "count", false),
    ("object-store.heads_per_op", "count", false),
    ("object-store.lists_per_op", "count", false),
    ("object-store.puts_per_op", "count", false),
    ("object-store.deletes_per_op", "count", false),
    ("object-store.bytes_read_per_op", "bytes", false),
    ("object-store.bytes_written_per_op", "bytes", false),
    ("object-store.round_trips_per_op", "count", false),
    ("object-store.sim_ms_per_op", "sim_ms", false),
    ("object-store.host_us_per_op", "us", false),
    ("object-store.coalesced_gets_per_op", "count", true),
    ("object-store.retries", "count", false),
    ("object-store.dedup_hits", "count", true),
    ("component.open_us", "us", false),
    ("component.fetch_us", "us", false),
    ("component.cache_hit_rate", "ratio", true),
    ("component.cache_bytes", "bytes", false),
    ("compress.decompress_mb_s", "MB/s", true),
    ("compress.compress_mb_s", "MB/s", true),
    ("compress.ratio", "ratio", true),
    ("format.read_pages_us", "us", false),
    ("format.page_decode_us", "us", false),
    ("format.page_cache_hit_rate", "ratio", true),
    ("format.page_cache_bytes", "bytes", false),
    ("format.pages_probed_per_op", "count", false),
    ("format.write_mb_s", "MB/s", true),
    ("lake.append_us", "us", false),
    ("lake.append_sim_ms", "sim_ms", false),
    ("lake.append_puts", "count", false),
    ("lake.snapshot_us", "us", false),
    ("trie.open_us", "us", false),
    ("trie.lookup_us", "us", false),
    ("trie.build_keys_per_s", "keys/s", true),
    ("trie.merge_keys_per_s", "keys/s", true),
    ("fm.open_us", "us", false),
    ("fm.locate_us", "us", false),
    ("fm.build_mb_s", "MB/s", true),
    ("fm.merge_mb_s", "MB/s", true),
    ("fm.index_bytes_per_text_byte", "ratio", false),
    ("ivfpq.open_us", "us", false),
    ("ivfpq.search_us", "us", false),
    ("ivfpq.candidates_per_op", "count", false),
    ("ivfpq.build_vecs_per_s", "vecs/s", true),
    ("core.plan_us", "us", false),
    ("core.search_self_us", "us", false),
    ("core.unattributed_pct", "%", false),
    ("core.index_files_per_op", "count", false),
    ("core.postings_per_op", "count", false),
    ("core.pages_probed_per_op", "count", false),
    ("core.useful_page_ratio", "ratio", true),
    ("core.files_brute_scanned_per_op", "count", false),
    ("core.neg_cache_skips_per_op", "count", true),
    ("core.index_us.uuid", "us", false),
    ("core.index_us.substring", "us", false),
    ("core.index_us.vector", "us", false),
    ("core.compact_us", "us", false),
    ("core.vacuum_us", "us", false),
    ("core.sim_ms.uuid", "sim_ms", false),
    ("core.sim_ms.substring", "sim_ms", false),
    ("core.sim_ms.vector", "sim_ms", false),
    ("core.wall_p99_us", "us", false),
    ("core.trace_overhead_pct", "%", false),
    ("serve.overhead_us", "us", false),
    ("serve.scaling_efficiency", "ratio", true),
    ("serve.dedup_hit_rate", "ratio", true),
    ("serve.shed_rate", "ratio", false),
    ("serve.wall_p99_us", "us", false),
    ("serve.wall_p50_us.uuid", "us", false),
    ("serve.wall_p50_us.substring", "us", false),
    ("serve.wall_p50_us.vector", "us", false),
];

/// Window of one measured run, in seconds (`run_seconds`).
pub const RUN_SECONDS: u32 = 8;

/// `BENCHMARK.json` as these tables declare it; the file at the repository
/// root is this text (a test holds the two together).
pub fn manifest() -> String {
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .zip(WHY)
        .map(|(name, why)| format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                better(m.higher_is_better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|&(name, unit, higher)| {
            format!(
                "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                better(higher)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// What one run of one workload measured.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub values: HashMap<&'static str, f64>,
    /// Human-readable lines: sample counts, tails, sizes.
    pub notes: Vec<String>,
    pub spans: Vec<crate::trace::Span>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Every end-to-end metric, in the table's order; each must have been
    /// measured and be non-zero.
    pub fn end_to_end(&self) -> Vec<Metric> {
        END_TO_END
            .iter()
            .map(|m| {
                let v = *self
                    .values
                    .get(m.name)
                    .unwrap_or_else(|| panic!("end-to-end metric {} not measured", m.name));
                assert!(
                    v != 0.0 && v.is_finite(),
                    "end-to-end metric {} reads {v}",
                    m.name
                );
                metric(m.name, v, m.unit)
            })
            .collect()
    }

    /// Every per-layer metric, in the table's order; one the workload does
    /// not exercise reads 0.
    pub fn per_layer(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                metric(name, self.values.get(name).copied().unwrap_or(0.0), unit)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_manifest() {
        assert_eq!(
            include_str!("../../BENCHMARK.json"),
            manifest(),
            "regenerate with: benchmark/run.sh --manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn names_fit_the_contract() {
        let ok = |s: &str, extra: &str, max: usize| {
            s.len() <= max
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        let end_to_end = END_TO_END.iter().map(|m| (m.name, m.unit));
        for (name, unit) in end_to_end.chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u))) {
            assert!(ok(name, "_.-", 64), "{name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
            assert!(seen.insert(name), "{name} used twice");
        }
        for w in WORKLOADS {
            assert!(ok(w, "_.-", 64) && seen.insert(w));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(WHY.iter().all(|w| w.len() <= 200 && !w.contains('\n')));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher_is_better);
    }
}
