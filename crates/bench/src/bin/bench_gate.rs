//! Kernel-regression gate: compares a freshly generated
//! `BENCH_kernels.json` against the committed baseline and fails (exit 1)
//! when a gated speedup fell beyond tolerance.
//!
//! Usage: `bench_gate <baseline.json> <candidate.json>`.
//!
//! Two metrics are compared: each workload's `kernel_speedup` (a succinct
//! kernel vs its in-process reference, saturated at a per-kernel cap so
//! host noise above the cap never shows) and the aggregate
//! `min_kernel_speedup`. Neither may drop below `baseline × 0.85`. The raw
//! `measured_speedup` and ns/op fields are never gated. Everything else
//! the repo measures is in `BENCHMARK.json` (see `benchmark/README.md`).
//!
//! The JSON is the fixed shape `bench_kernels` writes, so parsing is a
//! keyword scan — no JSON dependency (the workspace has none).

use std::process::ExitCode;

/// Relative slack on every compared speedup.
const TOLERANCE: f64 = 0.15;

/// The number following `"key":` in `text`, if present.
fn num_after(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// `(name, kernel_speedup)` of every workload block, in file order.
/// `bench_kernels` writes one `"workload": "<name>"` per block with the
/// block's metrics before the next block starts.
fn kernel_speedups(text: &str) -> Vec<(String, f64)> {
    text.split("\"workload\":")
        .skip(1)
        .filter_map(|block| {
            let name = block.split('"').nth(1)?.to_string();
            Some((name, num_after(block, "kernel_speedup")?))
        })
        .collect()
}

/// Prints the verdict for one speedup; true when `cand` holds the floor.
fn holds(what: &str, base: f64, cand: f64) -> bool {
    let min = base * (1.0 - TOLERANCE);
    let ok = cand >= min;
    println!(
        "  {} {what}: {cand:.3} vs baseline {base:.3} (floor {min:.3})",
        if ok { "ok  " } else { "FAIL" }
    );
    ok
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (Some(base_path), Some(cand_path)) = (args.next(), args.next()) else {
        eprintln!("usage: bench_gate <baseline.json> <candidate.json>");
        return ExitCode::FAILURE;
    };
    let base = std::fs::read_to_string(&base_path).expect("read baseline json");
    let cand = std::fs::read_to_string(&cand_path).expect("read candidate json");

    let base_wl = kernel_speedups(&base);
    let cand_wl = kernel_speedups(&cand);
    assert!(
        !base_wl.is_empty(),
        "baseline has no workloads: {base_path}"
    );

    let mut failures = 0u32;
    for (name, b) in &base_wl {
        match cand_wl.iter().find(|(n, _)| n == name) {
            Some((_, c)) => failures += u32::from(!holds(name, *b, *c)),
            None => {
                println!("  FAIL {name}: missing from candidate run");
                failures += 1;
            }
        }
    }
    let key = "min_kernel_speedup";
    match (num_after(&base, key), num_after(&cand, key)) {
        (Some(b), Some(c)) => failures += u32::from(!holds(key, b, c)),
        _ => {
            println!("  FAIL {key}: missing from a report");
            failures += 1;
        }
    }

    if failures > 0 {
        println!("bench gate: {failures} check(s) FAILED");
        ExitCode::FAILURE
    } else {
        println!("bench gate: OK ({} kernels compared)", base_wl.len());
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "queries_per_batch": 4096,
  "workloads": [
    { "workload": "kernel_rank1", "baseline_ns_per_op": 120.0, "optimized_ns_per_op": 30.0, "measured_speedup": 4.00, "kernel_speedup": 2.00 },
    { "workload": "kernel_rank_range", "baseline_ns_per_op": 400.0, "optimized_ns_per_op": 280.0, "measured_speedup": 1.43, "kernel_speedup": 1.30 }
  ],
  "min_kernel_speedup": 1.30
}"#;

    #[test]
    fn parses_only_the_capped_speedup_of_each_block() {
        // `measured_speedup` and the ns/op fields must not leak in.
        assert_eq!(
            kernel_speedups(SAMPLE),
            [
                ("kernel_rank1".to_string(), 2.00),
                ("kernel_rank_range".to_string(), 1.30)
            ]
        );
    }

    #[test]
    fn aggregate_key_does_not_collide_with_the_workload_key() {
        assert_eq!(num_after(SAMPLE, "min_kernel_speedup"), Some(1.30));
        let tail = &SAMPLE[SAMPLE.rfind(']').unwrap()..];
        assert_eq!(num_after(tail, "kernel_speedup"), None);
    }

    #[test]
    fn floor_is_baseline_less_fifteen_percent() {
        assert!(holds("within", 2.0, 1.75));
        assert!(!holds("below", 2.0, 1.65));
    }
}
