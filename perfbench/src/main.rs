//! Seeded benchmark of the CirGPS workspace: one offline link sweep, an
//! open-loop serving ladder and few-shot training, each run through the
//! library's public entry points with every output checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep_array --seed 1 --seconds 15 --trace 0
//! ```
//!
//! The last stdout line is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics and tracing overhead with `--trace 1`, the same
//! names for every workload. A failed
//! output check exits with code 1; bad arguments exit with code 2. See
//! `perfbench/README.md` for the metric glossary.

mod common;
mod fewshot;
mod loadgen;
mod report;
mod rng;
mod serve;
mod stats;
mod sweep;
mod trace;

use std::process::ExitCode;
use std::time::Duration;

use report::Report;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// `sweep_array`, `serve_predict` or `fewshot_train`.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

const USAGE: &str = "usage: cirgps-perfbench --workload sweep_array|serve_predict|fewshot_train \
                     --seed N --seconds S --trace 0|1";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !matches!(
        workload.as_str(),
        "sweep_array" | "serve_predict" | "fewshot_train"
    ) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new(&args);
    let outcome = match args.workload.as_str() {
        "sweep_array" => sweep::run(&args, &mut report),
        "serve_predict" => serve::run(&args, &mut report),
        _ => fewshot::run(&args, &mut report),
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        return ExitCode::from(1);
    }
    match report::peak_rss_mb() {
        Ok(mb) if !args.trace => report.metric("peak_rss_mb", mb, "MB", 1, "VmHWM"),
        Ok(_) => {}
        Err(e) => {
            eprintln!("error: reading peak RSS: {e}");
            return ExitCode::from(1);
        }
    }
    if let Err(e) = report.print() {
        eprintln!("error: {e}");
        return ExitCode::from(1);
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&[
            "--workload",
            "serve_predict",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, "serve_predict");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Duration::from_secs(15));
        assert!(a.trace);
    }

    #[test]
    fn rejects_unknown_workloads_and_flags() {
        assert!(parse(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(parse(&["--workload", "sweep_array", "--seed", "1"]).is_err());
        assert!(parse(&["--bogus", "1"]).is_err());
        assert!(parse(&[
            "--workload",
            "sweep_array",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }
}
