//! Suite mode: one child process per workload (fresh process-wide caches,
//! its own `peak_rss_mb`), results gathered into `<out>/result.json`.
//!
//! `benchmark [--seed N] [--workload W] [--traced] [--quick]
//! [--check-repeat] [--out DIR]`

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::report::{END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::stats::{parse_result_line, Parsed};
use crate::{arg_value, die};

pub const DEFAULT_SEED: u64 = 1;
/// Window of `--quick`, in seconds; a full run uses `RUN_SECONDS`.
const QUICK_SECONDS: f64 = 1.0;

struct Child {
    line: String,
    result: Parsed,
}

/// Runs one workload in a child process, echoing what it prints.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool, out: &Path) -> Child {
    let exe = std::env::current_exe().unwrap_or_else(|e| die(&format!("own path: {e}")));
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out)
        .output()
        .unwrap_or_else(|e| die(&format!("spawn {workload}: {e}")));
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        die(&format!("{workload} exited with {}", output.status));
    }
    let line = stdout.lines().last().unwrap_or_default().to_string();
    for l in stdout.lines().filter(|l| *l != line) {
        println!("{l}");
    }
    let result = parse_result_line(&line)
        .unwrap_or_else(|| die(&format!("{workload}: no result line in its output")));
    println!(
        "# {workload}: attempted {}, failed {} (failed share {:.6})\n",
        result.attempted,
        result.failed,
        result.failed as f64 / result.attempted as f64
    );
    Child { line, result }
}

pub fn run(args: &[String]) -> i32 {
    let flag = |name: &str| args.iter().any(|a| a == name);
    let seed: u64 = arg_value(args, "--seed").map_or(DEFAULT_SEED, |s| {
        s.parse()
            .unwrap_or_else(|_| die("--seed takes a whole number"))
    });
    let seconds = if flag("--quick") {
        QUICK_SECONDS
    } else {
        f64::from(RUN_SECONDS)
    };
    let out =
        arg_value(args, "--out").map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from);
    let selected: Vec<&str> = match arg_value(args, "--workload") {
        Some(w) if WORKLOADS.contains(&w.as_str()) => {
            vec![WORKLOADS[WORKLOADS.iter().position(|x| *x == w).expect("contained")]]
        }
        Some(w) => die(&format!("unknown workload {w}; one of {WORKLOADS:?}")),
        None => WORKLOADS.to_vec(),
    };
    std::fs::create_dir_all(&out)
        .unwrap_or_else(|e| die(&format!("create {}: {e}", out.display())));

    let mut failed_total = 0u64;
    let mut unresolved = 0usize;
    let mut entries: Vec<String> = Vec::new();
    let mut traces: Vec<PathBuf> = Vec::new();
    for &w in &selected {
        let first = child(w, seed, seconds, false, &out);
        failed_total += first.result.failed + u64::from(!first.result.correct);
        let mut entry = format!("\"{w}\": {{\"end_to_end\": {}", first.line);
        if flag("--check-repeat") {
            let second = child(w, seed, seconds, false, &out);
            failed_total += second.result.failed;
            println!("# repeat check: {w}, same code, same seed");
            println!(
                "{:<28} {:>6} {:>16} {:>16} {:>9} {:>7}  verdict",
                "metric", "better", "first", "second", "apart", "bound"
            );
            for ((name, a), (_, b)) in first.result.metrics.iter().zip(&second.result.metrics) {
                let m = END_TO_END
                    .iter()
                    .find(|m| m.name == name)
                    .expect("child reports the table's metrics");
                let (bound, exact) = (m.bound, m.exact);
                let rel = (b - a).abs() / a.abs();
                let ok = if exact { a == b } else { rel <= bound };
                unresolved += usize::from(!ok);
                println!(
                    "{:<28} {:>6} {:>16.6} {:>16.6} {:>8.3}% {:>6.1}%  {}",
                    name,
                    if m.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    },
                    a,
                    b,
                    rel * 100.0,
                    bound * 100.0,
                    match (ok, exact) {
                        (true, true) => "equal",
                        (true, false) => "within bound",
                        (false, true) => "UNRESOLVED (exact metric differs)",
                        (false, false) => "UNRESOLVED (spread exceeds bound)",
                    }
                );
            }
            println!();
            entry.push_str(&format!(", \"repeat\": {}", second.line));
        }
        if flag("--traced") {
            let traced = child(w, seed, (seconds / 2.0).max(1.0), true, &out);
            failed_total += traced.result.failed;
            entry.push_str(&format!(", \"per_layer\": {}", traced.line));
            traces.push(out.join(format!("trace-{w}.jsonl")));
        }
        entry.push('}');
        entries.push(entry);
    }

    if !traces.is_empty() {
        let mut all = Vec::new();
        for part in &traces {
            all.extend(
                std::fs::read(part)
                    .unwrap_or_else(|e| die(&format!("read {}: {e}", part.display()))),
            );
            std::fs::remove_file(part).ok();
        }
        let path = out.join("trace.jsonl");
        std::fs::write(&path, all)
            .unwrap_or_else(|e| die(&format!("write {}: {e}", path.display())));
        println!("# wrote {}", path.display());
    }
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let result = format!(
        "{{\"seed\": {seed}, \"window_seconds\": {seconds}, \"nproc\": {}, \"clients\": {}, \"rustc\": \"{}\", \"commit\": \"{}\", \"workloads\": {{\n{}\n}}}}\n",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        crate::workloads::clients(),
        env("BENCH_RUSTC"),
        env("BENCH_COMMIT"),
        entries.join(",\n")
    );
    let path = out.join("result.json");
    std::fs::write(&path, result)
        .unwrap_or_else(|e| die(&format!("write {}: {e}", path.display())));
    println!("# wrote {}", path.display());

    if failed_total > 0 {
        eprintln!("benchmark: {failed_total} operations failed or mismatched the oracle");
        return 1;
    }
    if unresolved > 0 {
        eprintln!("benchmark: {unresolved} metrics unresolved in the repeat check");
        return 1;
    }
    0
}
