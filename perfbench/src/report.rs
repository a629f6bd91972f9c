//! Collects a run's report lines, metrics, checks and request counts,
//! and prints them: readable lines first, the JSON result last.

use std::time::Instant;

use crate::stats::Summary;
use crate::Args;

/// Latency reported for a percentile that a failed request fills: the
/// JSON result cannot hold infinity.
pub const FAILED_MS: f64 = 1e9;

/// The result line's metrics of an untraced run, as `BENCHMARK.json`
/// lists them under `end_to_end`. Every workload reports each of them.
pub const END_TO_END: [&str; 3] = ["setup_s", "peak_rss_mb", "pairs_per_s"];

/// The result line's metrics of a traced run, as `BENCHMARK.json` lists
/// them under `per_layer`: the layers every workload goes through.
/// Figures of layers only one workload reaches are printed as `figure`
/// lines above the result.
pub const PER_LAYER: [&str; 11] = [
    "netlist.parse_ms",
    "graph.build_ms",
    "checkpoint.load_ms",
    "sample.extract_us_p50",
    "sample.extract_us_p99",
    "sample.nodes_p50",
    "sample.nodes_p99",
    "pe.compute_us",
    "prepare.us",
    "forward.us_per_sample",
    "trace.overhead_pct",
];

#[derive(Debug)]
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

/// One run's results.
#[derive(Debug)]
pub struct Report {
    /// Names the result line holds, in its order.
    result: &'static [&'static str],
    metrics: Vec<Metric>,
    failed_checks: usize,
    /// Operations attempted (pairs, requests or training rounds).
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
}

impl Report {
    /// Starts the report of one run and prints its header line.
    pub fn new(args: &Args) -> Report {
        println!(
            "workload {} seed {} seconds {} trace {}",
            args.workload,
            args.seed,
            args.seconds.as_secs_f64(),
            u8::from(args.trace)
        );
        Report {
            result: if args.trace { &PER_LAYER } else { &END_TO_END },
            metrics: Vec::new(),
            failed_checks: 0,
            attempted: 0,
            failed: 0,
        }
    }

    /// Prints one informational line (design sizes, workload properties).
    pub fn info(&mut self, line: impl AsRef<str>) {
        println!("info {}", line.as_ref());
    }

    /// Records a metric with the sample count it rests on. One the result
    /// line does not hold is printed as a `figure` line only.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, n: usize, how: &str) {
        let value = if value.is_finite() { value } else { FAILED_MS };
        let kind = if self.result.contains(&name) {
            "metric"
        } else {
            "figure"
        };
        println!("{kind} {name} = {value} {unit} (n={n}, {how})");
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records the median and tail of a timing under the names given,
    /// scaled by `scale` (e.g. 1e3 for seconds to milliseconds).
    pub fn timing(&mut self, p50: &str, tail: &str, s: &Summary, scale: f64, unit: &'static str) {
        self.metric(p50, s.p50 * scale, unit, s.n, "median");
        let how = format!("{} of {} samples", s.tail_label(), s.n);
        self.metric(tail, s.tail * scale, unit, s.n, &how);
    }

    /// Records an output check; a failed one makes the run exit non-zero.
    pub fn check(&mut self, what: &str, ok: bool, detail: impl AsRef<str>) {
        let verdict = if ok { "ok" } else { "FAILED" };
        println!("check {what}: {verdict} ({})", detail.as_ref());
        if !ok {
            self.failed_checks += 1;
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed_checks == 0
    }

    /// Prints the result line: every metric of the run's mode, in the
    /// manifest's order. Fails, printing nothing, if one was not recorded.
    pub fn print(&self) -> Result<(), String> {
        let mut metrics = Vec::with_capacity(self.result.len());
        for &name in self.result {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == name)
                .ok_or_else(|| format!("the run recorded no {name}"))?;
            // `{:?}` prints every digit of the value, in a form JSON accepts.
            metrics.push(format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        Ok(())
    }
}

/// Times one run of a set-up closure, adding its seconds to `times`.
/// The workloads repeat their set-up between measured units of work
/// through the run, so that `setup_s`, the median, samples the host over
/// the whole run and not only its first second.
pub fn timed_setup<T>(
    times: &mut Vec<f64>,
    f: impl FnOnce() -> Result<T, String>,
) -> Result<T, String> {
    let t = Instant::now();
    let out = f()?;
    times.push(t.elapsed().as_secs_f64());
    Ok(out)
}

/// Peak resident set size of this process in MB, from `VmHWM`.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Metric names listed under `key` in the manifest text.
    fn manifest_names(manifest: &str, key: &str) -> Vec<String> {
        let start = manifest.find(&format!("\"{key}\"")).expect("key present");
        let section = &manifest[start..];
        let end = section.find(']').expect("list closes");
        section[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    }

    #[test]
    fn result_metrics_match_the_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        assert_eq!(manifest_names(manifest, "end_to_end"), END_TO_END);
        assert_eq!(manifest_names(manifest, "per_layer"), PER_LAYER);
    }
}
