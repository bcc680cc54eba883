//! The repo's benchmark: seven workloads over the real
//! `QueryService -> Rottnest -> MemoryStore` stack, driven through public
//! API only, every answer checked against an oracle. See `../README.md`.
//!
//! One workload per process:
//! `benchmark --workload W --seed N --seconds S --trace 0|1 [--out DIR]`
//! prints the metrics by name and, as the last line, the result object.
//! Without `--seconds`/`--trace` it runs the suite (see `suite.rs`);
//! `--manifest` prints `BENCHMARK.json`.

mod config;
mod dataset;
mod engine;
mod layers;
mod oracle;
mod queries;
mod report;
mod stats;
mod suite;
mod trace;
mod workloads;

use std::path::PathBuf;

use report::{Report, WORKLOADS};
use stats::result_line;

/// Spans kept per workload in `trace-<workload>.jsonl`.
const MAX_SPANS_WRITTEN: usize = 50_000;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    let at = args.iter().position(|a| a == flag)?;
    Some(
        args.get(at + 1)
            .unwrap_or_else(|| die(&format!("{flag} needs a value")))
            .clone(),
    )
}

fn die(msg: &str) -> ! {
    eprintln!("benchmark: {msg}");
    std::process::exit(2);
}

fn main() {
    if cfg!(debug_assertions) {
        die("debug build: measure optimized builds only (cargo build --release)");
    }
    if std::env::var_os("ROTTNEST_POOL_WORKERS").is_some() {
        die("ROTTNEST_POOL_WORKERS is set; the worker pool must size itself");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--manifest") {
        print!("{}", report::manifest());
        return;
    }
    let single = arg_value(&args, "--seconds").is_some() && arg_value(&args, "--trace").is_some();
    if !single {
        std::process::exit(suite::run(&args));
    }

    let parse =
        |flag: &str| arg_value(&args, flag).unwrap_or_else(|| die(&format!("missing {flag}")));
    let run = workloads::Args {
        workload: parse("--workload"),
        seed: parse("--seed")
            .parse()
            .unwrap_or_else(|_| die("--seed takes a whole number")),
        seconds: parse("--seconds")
            .parse()
            .unwrap_or_else(|_| die("--seconds takes a number")),
        trace: match parse("--trace").as_str() {
            "0" => false,
            "1" => true,
            _ => die("--trace takes 0 or 1"),
        },
    };
    if !WORKLOADS.contains(&run.workload.as_str()) {
        die(&format!(
            "unknown workload {}; one of {WORKLOADS:?}",
            run.workload
        ));
    }
    if !(run.seconds > 0.0 && run.seconds <= 60.0) {
        die("--seconds must be in (0, 60]");
    }
    let out_dir = arg_value(&args, "--out").map(PathBuf::from);

    let report: Report = workloads::run(&run);
    let metrics = if run.trace {
        report.per_layer()
    } else {
        report.end_to_end()
    };
    println!(
        "# {} seed {} window {} s {}",
        run.workload,
        run.seed,
        run.seconds,
        if run.trace { "traced" } else { "untraced" }
    );
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &metrics {
        println!("{:<40} {:>18.6} {}", m.name, m.value, m.unit);
    }
    if let (true, Some(dir)) = (run.trace, &out_dir) {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| die(&format!("create {}: {e}", dir.display())));
        let path = dir.join(format!("trace-{}.jsonl", run.workload));
        let kept = &report.spans[..report.spans.len().min(MAX_SPANS_WRITTEN)];
        trace::write_jsonl(&path, kept)
            .unwrap_or_else(|e| die(&format!("write {}: {e}", path.display())));
        println!(
            "# wrote {} of {} spans to {}",
            kept.len(),
            report.spans.len(),
            path.display()
        );
    }
    println!(
        "{}",
        result_line(
            report.failed == 0,
            report.attempted.max(1),
            report.failed,
            &metrics
        )
    );
}
