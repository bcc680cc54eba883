//! Summaries of samples, the process's peak memory, and the result line.

/// Median of `values` (mean of the two middle ones for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Nearest-rank percentile of `sorted` (ascending), `p` in 0..=100.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of p99.9 / p99 / p95 / p90 that still has at least ten of
/// `n` samples beyond it, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    // (percentile, samples beyond it per thousand)
    [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100)]
        .into_iter()
        .find(|&(_, beyond)| n * beyond >= 10_000)
        .map(|(p, _)| p)
}

/// Median, the tail percentile the sample supports, and the sample count.
pub struct Timing {
    pub p50: f64,
    /// (percentile, value); `None` below 100 samples.
    pub tail: Option<(f64, f64)>,
    pub n: usize,
}

impl Timing {
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Self {
            p50: percentile(&v, 50.0),
            tail: tail_percentile(v.len()).map(|p| (p, percentile(&v, p))),
            n: v.len(),
        }
    }

    /// p99 when the sample supports it, else the highest supported tail,
    /// else the maximum is not reported and the median stands in.
    pub fn p99_or_supported(values: &[f64]) -> f64 {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        match tail_percentile(v.len()) {
            Some(p) => percentile(&v, p.min(99.0)),
            None => percentile(&v, 50.0),
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One named value of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The driver's result object, on one line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A [`result_line`] read back.
#[derive(Debug, PartialEq)]
pub struct Parsed {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// (name, value) in the line's order.
    pub metrics: Vec<(String, f64)>,
}

/// Reads a [`result_line`] back (the suite compares runs of its own
/// children, so only this program's format is parsed).
pub fn parse_result_line(line: &str) -> Option<Parsed> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let correct = field("correct")? == "true";
    let attempted = field("attempted")?.parse().ok()?;
    let failed = field("failed")?.parse().ok()?;
    let mut metrics = Vec::new();
    let mut rest = &line[line.find("\"metrics\": {")? + 12..];
    while let Some(open) = rest.find('"') {
        let after = &rest[open + 1..];
        let close = after.find('"')?;
        let name = &after[..close];
        let from = after.find("\"value\": ")? + 9;
        let to = from + after[from..].find(',')?;
        metrics.push((name.to_string(), after[from..to].parse().ok()?));
        rest = &after[after[to..].find('}')? + to + 1..];
    }
    Some(Parsed {
        correct,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&[5.0], 99.0), 5.0);
        let t = Timing::of(&v);
        assert_eq!((t.p50, t.tail, t.n), (500.0, Some((99.0, 990.0)), 1000));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn result_line_round_trips() {
        let metrics = vec![
            metric("wall_qps", 1234.5678, "1/s"),
            metric("setup_s", 0.25, "s"),
        ];
        let line = result_line(true, 10, 0, &metrics);
        let parsed = parse_result_line(&line).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (10, 0));
        let expected: Vec<(String, f64)> =
            metrics.iter().map(|m| (m.name.clone(), m.value)).collect();
        assert_eq!(parsed.metrics, expected);
    }
}
