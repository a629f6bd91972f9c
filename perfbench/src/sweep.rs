//! `sweep_array`: repeated offline link sweeps over every candidate pair
//! of a regular 6T SRAM array, where neighbourhoods repeat and the
//! memo, extraction and keying do most of the work.

use std::collections::HashMap;
use std::time::Instant;

use ams_datagen::enumerate::build_term;
use ams_datagen::Term;
use circuit_graph::CircuitGraph;
use circuitgps::{
    sweep_pairs, CandidatePairs, CircuitGps, InferenceSession, PreparedSample, SweepConfig,
};
use graph_pe::compute_pe;
use subgraph_sample::{Subgraph, SweepSampler, XcNormalizer};

use crate::common::{
    build_graph, checkpoint_bytes, load_model, parse_netlist, report_setup_steps, size_quantiles,
    timed, SetupSteps,
};
use crate::report::{timed_setup, Report};
use crate::rng::Rng;
use crate::stats::{first_bit_mismatch, median, Summary};
use crate::trace::{Tracer, ROOT};
use crate::Args;

/// The swept design: a bare 48 x 32 6T array (43 k graph nodes, 512 k
/// candidate pairs, about four seconds per sweep on one core).
const TERM: Term = Term::Array {
    eight_t: false,
    rows: 48,
    cols: 32,
    periphery: false,
};

/// Partners per anchor (`CandidatePairs::new`'s `per_node_cap`). Without
/// it each supply net anchors hundreds of pairs whose large subgraphs
/// never repeat, and the forward pass becomes most of the sweep.
const PER_NODE_CAP: usize = 32;

/// Set-up repetitions after each sweep (one more comes before the
/// first); `setup_s` is their median.
const SETUPS_PER_SWEEP: usize = 3;

/// Swept pairs compared against the single-query path.
const CHECK_PAIRS: usize = 512;

/// Pairs whose subgraph sizes the untraced run reports.
const PROPERTY_PAIRS: usize = 4096;

struct Loaded {
    graph: CircuitGraph,
    xcn: XcNormalizer,
    model: CircuitGps,
}

fn setup(
    spice: &str,
    top: &str,
    ckpt: &[u8],
    steps: &mut Vec<SetupSteps>,
) -> Result<Loaded, String> {
    let mut s = SetupSteps::default();
    let netlist = timed(&mut s.parse_s, || parse_netlist(spice, top))?;
    let (graph, _map, xcn) = timed(&mut s.build_s, || build_graph(&netlist));
    let model = timed(&mut s.load_s, || load_model(ckpt))?;
    steps.push(s);
    Ok(Loaded { graph, xcn, model })
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    // Inputs, untimed: the array's SPICE text and the checkpoint bytes.
    let design = build_term(&TERM, args.seed).map_err(|e| format!("building {TERM}: {e}"))?;
    let top = TERM.name();
    let ckpt = checkpoint_bytes()?;

    let mut tracer = args.trace.then(Tracer::default);
    let mut steps = Vec::new();
    let mut setup_times = Vec::new();
    let ld = timed_setup(&mut setup_times, || {
        setup(&design.spice, &top, &ckpt, &mut steps)
    })?;
    let cfg = SweepConfig::default();
    let requested = CandidatePairs::new(&ld.graph, PER_NODE_CAP, 0).count();
    report.info(format!(
        "design {top}: {} nodes, {} edges, {requested} candidate pairs",
        ld.graph.num_nodes(),
        ld.graph.num_edges()
    ));

    // The seeded sample of pair positions checked against predict_links.
    let mut rng = Rng::new(args.seed, "sweep.check");
    let mut check_idx: Vec<usize> = (0..CHECK_PAIRS).map(|_| rng.below(requested)).collect();
    check_idx.sort_unstable();
    check_idx.dedup();

    // The timed sweeps.
    let deadline = Instant::now() + args.seconds;
    let mut rates = Vec::new();
    let mut first: Option<Vec<f32>> = None;
    let mut reference_pairs = Vec::new();
    let (stats, sweep_secs) = loop {
        let mut pos = 0usize;
        let mut cursor = 0usize;
        let mut picked = Vec::with_capacity(check_idx.len());
        let mut picked_pairs = Vec::with_capacity(check_idx.len());
        let mut window_ends = Vec::new();
        let t = Instant::now();
        let stats = sweep_pairs(
            &ld.model,
            &ld.xcn,
            &ld.graph,
            CandidatePairs::new(&ld.graph, PER_NODE_CAP, 0),
            &cfg,
            &mut |pairs, values| {
                while cursor < check_idx.len() && check_idx[cursor] < pos + pairs.len() {
                    let i = check_idx[cursor] - pos;
                    picked.push(values[i]);
                    picked_pairs.push(pairs[i]);
                    cursor += 1;
                }
                pos += pairs.len();
                if tracer.is_some() {
                    window_ends.push(Instant::now());
                }
                true
            },
        );
        let end = Instant::now();
        let secs = (end - t).as_secs_f64();
        rates.push(stats.pairs as f64 / secs);
        for _ in 0..SETUPS_PER_SWEEP {
            timed_setup(&mut setup_times, || {
                setup(&design.spice, &top, &ckpt, &mut steps)
            })?;
        }
        report.attempted += requested as u64;
        report.failed += requested.saturating_sub(pos) as u64;
        if stats.aborted {
            report.check("sweep not aborted", false, "the sweep stopped early");
        }
        match &first {
            None => {
                first = Some(picked);
                reference_pairs = picked_pairs;
            }
            Some(f) => {
                if let Some(i) = first_bit_mismatch(f, &picked) {
                    report.check(
                        "sweeps repeat bitwise",
                        false,
                        format!("sampled pair {i} changed"),
                    );
                }
            }
        }
        if let Some(tr) = tracer.as_mut() {
            for (rep, s) in steps.iter().enumerate() {
                s.record(tr, rep as u32);
            }
            tr.record("sweep", t, end, 0);
            let mut prev = t;
            for (w, &e) in window_ends.iter().enumerate() {
                tr.record("sweep.window", prev, e, w as u32);
                prev = e;
            }
            break (stats, secs);
        }
        if Instant::now() >= deadline {
            break (stats, secs);
        }
    };
    let emitted_ok = stats.pairs == requested;
    report.check(
        "every requested pair emitted",
        emitted_ok && report.failed == 0,
        format!(
            "{} of {requested} pairs per sweep, aborted={}",
            stats.pairs, stats.aborted
        ),
    );

    // Output check: sampled sweep values equal the single-query path.
    let swept = first.unwrap_or_default();
    let mut session = InferenceSession::shared(&ld.model, ld.xcn.clone(), &ld.graph, cfg.sampler);
    let direct = session.predict_links(&reference_pairs);
    let mismatch = first_bit_mismatch(&swept, &direct);
    report.check(
        "sweep == predict_links (bitwise)",
        mismatch.is_none() && swept.len() == check_idx.len(),
        format!("{} seeded pairs, first mismatch {mismatch:?}", swept.len()),
    );

    let dedup = stats.dedup_hits as f64 / stats.pairs.max(1) as f64;
    report.info(format!(
        "property dedup share {dedup:.4} ({} hits over {} pairs, {} unique forwards; chosen for >= 0.98)",
        stats.dedup_hits, stats.pairs, stats.unique_forwards
    ));

    match tracer {
        None => {
            let sizes = sampled_sizes(&ld.graph, &cfg, args.seed, requested);
            let (p50, p99) = size_quantiles(&sizes);
            report.info(format!(
                "property subgraph nodes p50 {p50} p99 {p99} over {} seeded pairs",
                sizes.len()
            ));
            report.metric(
                "setup_s",
                median(&setup_times),
                "s",
                setup_times.len(),
                "median of set-ups",
            );
            let list: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
            report.info(format!("sweep rates {} pairs/s", list.join(" ")));
            let s = Summary::of(&rates);
            report.metric("pairs_per_s", s.p50, "1/s", s.n, "median over sweeps");
        }
        Some(mut tr) => traced(&mut tr, &ld, &cfg, stats, sweep_secs, report)?,
    }
    Ok(())
}

/// Subgraph sizes of a seeded sample of candidate pairs.
fn sampled_sizes(
    graph: &CircuitGraph,
    cfg: &SweepConfig,
    seed: u64,
    requested: usize,
) -> Vec<usize> {
    let mut rng = Rng::new(seed, "sweep.sizes");
    let mut idx: Vec<usize> = (0..PROPERTY_PAIRS).map(|_| rng.below(requested)).collect();
    idx.sort_unstable();
    let mut sampler = SweepSampler::new(graph, cfg.sampler);
    let mut cursor = 0;
    let mut sizes = Vec::with_capacity(idx.len());
    for (i, (a, b)) in CandidatePairs::new(graph, PER_NODE_CAP, 0).enumerate() {
        while cursor < idx.len() && idx[cursor] == i {
            sizes.push(sampler.enclosing_subgraph(a, b).num_nodes());
            cursor += 1;
        }
        if cursor == idx.len() {
            break;
        }
    }
    sizes
}

fn empty_subgraph() -> Subgraph {
    Subgraph {
        nodes: Vec::new(),
        node_types: Vec::new(),
        xc: Vec::new(),
        src: Vec::new(),
        dst: Vec::new(),
        edge_types: Vec::new(),
        num_anchors: 2,
        dist_a: Vec::new(),
        dist_b: Vec::new(),
    }
}

/// Everything a forward pass reads from a subgraph: two subgraphs with
/// equal keys get bitwise-equal predictions. The benchmark's own copy of
/// the planner's memo key, so the replay forms the same classes.
fn content_key(sub: &Subgraph) -> Vec<u8> {
    let mut key = Vec::with_capacity(16 + sub.xc.len() * 4 + sub.src.len() * 9);
    key.extend_from_slice(&(sub.num_nodes() as u32).to_le_bytes());
    key.extend_from_slice(&(sub.src.len() as u32).to_le_bytes());
    key.push(sub.num_anchors as u8);
    key.extend(sub.node_types.iter().map(|&t| t as u8));
    key.extend(sub.xc.iter().flat_map(|x| x.to_bits().to_le_bytes()));
    key.extend(sub.src.iter().flat_map(|&s| (s as u32).to_le_bytes()));
    key.extend(sub.dst.iter().flat_map(|&d| (d as u32).to_le_bytes()));
    key.extend(sub.edge_types.iter().map(|&t| t as u8));
    key.extend(sub.dist_a.iter().map(|&d| d as u8));
    key.extend(sub.dist_b.iter().map(|&d| d as u8));
    key
}

/// Replays one window of the sweep through each crate's public call,
/// like the planner: extraction for every pair, preparation for each new
/// neighbourhood, one batched forward over the window's uniques. With a
/// tracer every call is a span. Returns the window's unique count.
fn replay_window(
    ld: &Loaded,
    sampler: &mut SweepSampler<'_>,
    pairs: &[(u32, u32)],
    window: u32,
    mut tr: Option<&mut Tracer>,
) -> usize {
    let mut scratch = empty_subgraph();
    let mut memo: HashMap<Vec<u8>, ()> = HashMap::new();
    let mut uniques: Vec<PreparedSample> = Vec::new();
    let parent = tr
        .as_deref_mut()
        .map_or(ROOT, |t| t.begin("replay.window", ROOT, window));
    for &(a, b) in pairs {
        match tr.as_deref_mut() {
            Some(t) => t.time("sample.extract", parent, window, || {
                sampler.extract_into(a, b, &mut scratch)
            }),
            None => sampler.extract_into(a, b, &mut scratch),
        }
        if memo.insert(content_key(&scratch), ()).is_some() {
            continue;
        }
        let prep = || PreparedSample::new(scratch.clone(), ld.model.cfg.pe, &ld.xcn, 1.0, 0.0);
        uniques.push(match tr.as_deref_mut() {
            Some(t) => t.time("prepare", parent, window, prep),
            None => prep(),
        });
    }
    let mut refs: Vec<&PreparedSample> = uniques.iter().collect();
    refs.sort_by_key(|p| p.sub.num_nodes());
    match tr {
        Some(t) => {
            t.time("forward", parent, window, || {
                ld.model.predict_link_batch(&refs)
            });
            t.end(parent);
        }
        None => {
            std::hint::black_box(ld.model.predict_link_batch(&refs));
        }
    }
    uniques.len()
}

fn traced(
    tr: &mut Tracer,
    ld: &Loaded,
    cfg: &SweepConfig,
    stats: circuitgps::SweepStats,
    sweep_secs: f64,
    report: &mut Report,
) -> Result<(), String> {
    // Replay window by window, each once with spans and once without.
    let pairs: Vec<(u32, u32)> = CandidatePairs::new(&ld.graph, PER_NODE_CAP, 0).collect();
    let windows: Vec<&[(u32, u32)]> = pairs.chunks(cfg.chunk).collect();
    let mut sampler = SweepSampler::new(&ld.graph, cfg.sampler);
    let mut uniques = 0;
    let (plain, traced) = tr.interleaved(windows.len(), |w, t| {
        let traced = t.is_some();
        let n = replay_window(ld, &mut sampler, windows[w], w as u32, t);
        if traced {
            uniques += n;
        }
    });
    report.info(format!(
        "replay formed {uniques} neighbourhood classes (sweep ran {} forwards)",
        stats.unique_forwards
    ));

    // Every pair's subgraph size, and the standalone PE cost per unique.
    let mut scratch = empty_subgraph();
    let mut sizes = Vec::with_capacity(pairs.len());
    let mut seen = std::collections::HashSet::new();
    for &(a, b) in &pairs {
        sampler.extract_into(a, b, &mut scratch);
        sizes.push(scratch.num_nodes());
        if seen.insert(content_key(&scratch)) {
            let sub = &scratch;
            tr.time("pe.compute", ROOT, 0, || compute_pe(sub, ld.model.cfg.pe));
        }
    }

    let ms = |v: f64| v * 1e3;
    report_setup_steps(report, tr);
    let extract = Summary::capped(&tr.secs("sample.extract"), 0.99);
    report.timing(
        "sample.extract_us_p50",
        "sample.extract_us_p99",
        &extract,
        1e6,
        "us",
    );
    let (n50, n99) = size_quantiles(&sizes);
    report.metric(
        "sample.nodes_p50",
        n50,
        "count",
        sizes.len(),
        "median over every pair",
    );
    report.metric(
        "sample.nodes_p99",
        n99,
        "count",
        sizes.len(),
        "p99 over every pair",
    );
    report.metric(
        "sweep.dedup_ratio",
        stats.dedup_hits as f64 / stats.pairs.max(1) as f64,
        "ratio",
        stats.pairs,
        "SweepStats dedup_hits / pairs",
    );
    report.metric(
        "sweep.unique_forwards",
        stats.unique_forwards as f64,
        "count",
        1,
        "SweepStats",
    );
    let windows = Summary::of(&tr.secs("sweep.window"));
    report.timing(
        "sweep.window_ms_p50",
        "sweep.window_ms_tail",
        &windows,
        1e3,
        "ms",
    );
    let extract_s = tr.total("sample.extract");
    let prepare_s = tr.total("prepare");
    let forward_s = tr.total("forward");
    let self_s = sweep_secs - extract_s - prepare_s - forward_s;
    report.metric(
        "sweep.self_ms",
        ms(self_s),
        "ms",
        1,
        "sweep wall minus replayed extract, prepare, forward",
    );
    report.metric(
        "pe.compute_us",
        median(&tr.secs("pe.compute")) * 1e6,
        "us",
        tr.secs("pe.compute").len(),
        "median per unique",
    );
    report.metric(
        "prepare.us",
        median(&tr.secs("prepare")) * 1e6,
        "us",
        tr.secs("prepare").len(),
        "median per unique",
    );
    report.metric(
        "forward.us_per_sample",
        forward_s * 1e6 / uniques.max(1) as f64,
        "us",
        uniques,
        "batched forward per unique sample",
    );
    report.metric(
        "trace.overhead_pct",
        (traced - plain) / plain * 100.0,
        "%",
        2,
        "traced replay vs the same replay untraced",
    );
    let share = forward_s / sweep_secs;
    report.info(format!(
        "property forward share of sweep time {share:.3} ({}; chosen for < 0.5)",
        if share < 0.5 {
            "holds"
        } else {
            "DOES NOT HOLD"
        }
    ));
    report.info(format!(
        "sweep {sweep_secs:.3}s = extract {extract_s:.3}s + prepare {prepare_s:.3}s + forward {forward_s:.3}s + self {self_s:.3}s"
    ));
    let path = std::path::Path::new("perfbench/out/spans-sweep_array.tsv");
    tr.write_tsv(path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    report.info(format!("{} spans written to {}", tr.len(), path.display()));
    Ok(())
}
