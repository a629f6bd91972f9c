//! Input generation and set-up steps shared by the workloads.

use std::time::Instant;

use ams_netlist::{Netlist, SpiceFile};
use circuit_graph::{netlist_to_graph, CircuitGraph, NodeMap};
use circuitgps::{CircuitGps, ModelConfig};
use subgraph_sample::XcNormalizer;

use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;

/// Checkpoint bytes of a model built with `ModelConfig::default()`. The
/// weights are not seeded per run: some initializations run the forward
/// pass measurably slower than others, which would add seed-to-seed
/// spread unrelated to the workloads' inputs.
pub fn checkpoint_bytes() -> Result<Vec<u8>, String> {
    let model = CircuitGps::new(ModelConfig::default());
    let mut bytes = Vec::new();
    model
        .save_checkpoint(&mut bytes)
        .map_err(|e| format!("writing checkpoint: {e}"))?;
    Ok(bytes)
}

/// Seconds spent in each set-up step of one repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupSteps {
    /// Netlist (and SPF) text parse and flatten.
    pub parse_s: f64,
    /// Graph build and normalizer fit.
    pub build_s: f64,
    /// Checkpoint load from bytes.
    pub load_s: f64,
    /// Dataset preparation or server start.
    pub other_s: f64,
}

impl SetupSteps {
    /// Adds this repetition's steps to `tr` as spans ending now.
    pub fn record(&self, tr: &mut Tracer, rep: u32) {
        let mut end = Instant::now();
        for (name, s) in [
            ("setup.other", self.other_s),
            ("checkpoint.load", self.load_s),
            ("graph.build", self.build_s),
            ("netlist.parse", self.parse_s),
        ] {
            let start = end - std::time::Duration::from_secs_f64(s);
            tr.record(name, start, end, rep);
            end = start;
        }
    }
}

/// Reports the median of each set-up step the traced run recorded.
pub fn report_setup_steps(report: &mut Report, tr: &Tracer) {
    for (metric, span) in [
        ("netlist.parse_ms", "netlist.parse"),
        ("graph.build_ms", "graph.build"),
        ("checkpoint.load_ms", "checkpoint.load"),
    ] {
        let secs = tr.secs(span);
        report.metric(
            metric,
            median(&secs) * 1e3,
            "ms",
            secs.len(),
            "median of set-ups",
        );
    }
}

/// Times `f`, adding its duration to `slot`.
pub fn timed<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let out = f();
    *slot += t.elapsed().as_secs_f64();
    out
}

/// Parses SPICE text and flattens its top cell.
pub fn parse_netlist(spice: &str, top: &str) -> Result<Netlist, String> {
    SpiceFile::parse(spice)
        .and_then(|f| f.flatten(top))
        .map_err(|e| format!("parsing {top}: {e}"))
}

/// Builds the heterogeneous graph and fits the feature normalizer on it.
pub fn build_graph(netlist: &Netlist) -> (CircuitGraph, NodeMap, XcNormalizer) {
    let (graph, map) = netlist_to_graph(netlist);
    let xcn = XcNormalizer::fit(&[&graph]);
    (graph, map, xcn)
}

/// Loads a model from checkpoint bytes.
pub fn load_model(bytes: &[u8]) -> Result<CircuitGps, String> {
    CircuitGps::load_checkpoint(bytes)
        .map(|(m, _)| m)
        .map_err(|e| format!("loading checkpoint: {e}"))
}

/// Node counts of subgraphs, as `(p50, p99)` over `sizes`.
pub fn size_quantiles(sizes: &[usize]) -> (f64, f64) {
    let mut v: Vec<f64> = sizes.iter().map(|&s| s as f64).collect();
    v.sort_by(f64::total_cmp);
    (
        crate::stats::percentile(&v, 0.5),
        crate::stats::percentile(&v, 0.99),
    )
}
