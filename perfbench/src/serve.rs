//! `serve_predict`: an open-loop Poisson ladder of `POST /v1/predict`
//! link requests against an in-process server on loopback. Every pair is
//! drawn once, so no prepared-sample cache ever hits and each query pays
//! extraction, PE and a forward pass.

use std::collections::HashSet;
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use ams_datagen::{generate, DesignKind, SizePreset};
use circuit_graph::{netlist_to_graph, CircuitGraph};
use circuitgps::{CandidatePairs, InferenceSession, PreparedSample};
use cirgps_serve::{http, Metrics, ServeConfig, Server};
use graph_pe::compute_pe;
use subgraph_sample::{SubgraphSampler, XcNormalizer};

use crate::common::{
    checkpoint_bytes, load_model, parse_netlist, report_setup_steps, size_quantiles, timed,
    SetupSteps,
};
use crate::loadgen::{self, Conn, Outcome};
use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{
    backlog_grows, due_latency_s, first_bit_mismatch, median, parse_predictions, Summary,
};
use crate::trace::{Tracer, ROOT};
use crate::Args;

/// The served design: the irregular standard-cell timing controller.
const DESIGN: (DesignKind, SizePreset) = (DesignKind::TimingControl, SizePreset::Paper);

/// Pairs per request.
const PAIRS_PER_REQUEST: usize = 32;

/// Offered request rates of the ladder, requests per second. Seed
/// capacity is 650 to 950 req/s on two cores; the rungs stay clear of it
/// on both sides so a slower or faster host does not move a rung across.
pub const LADDER_RPS: [f64; 4] = [150.0, 300.0, 450.0, 4000.0];

/// Ladder rung whose latency is `serve.lo_*`.
const LO: usize = 0;

/// Ladder rung whose latency is `serve.hi_*`, which the traced run
/// reports and the engine-side per-layer metrics describe.
const HI: usize = 1;

/// Share of the run's seconds each rung's arrivals span. At 20 seconds
/// the rungs hold 700, 1050, 900 and 4400 requests; the overload rung's
/// fall due within 1.1 seconds and take five or more to answer. Each
/// request draws 32 distinct pairs from the design's 242 k, so
/// `--seconds` above 21 runs out of pairs.
const RUNG_SHARE: [f64; 4] = [0.2334, 0.175, 0.1, 0.055];

/// The overload rung, whose throughput is the server's capacity: its
/// requests fall due several times faster than any host answers them,
/// so both connections stay busy until a segment's last reply.
const OVERLOAD: usize = LADDER_RPS.len() - 1;

/// Segments each rung is split into. The segments of all rungs take
/// turns through the run, each spread evenly over it. A rung's median
/// and tail (and the overload rung's throughput) are the medians of its
/// segments', so a passing disturbance of the host moves one segment,
/// not the result. At 20 seconds a segment below capacity holds 210 to
/// 233 requests, so its tail is its p95; an overload segment holds 275.
const SEGMENTS: [usize; 4] = [3, 5, 4, 16];

/// The order segments run in, as `(rung, segment)`: segment `s` of rung
/// `r` runs in round `s * rounds / SEGMENTS[r]`, rungs in ladder order
/// within a round.
fn segment_order() -> Vec<(usize, usize)> {
    let rounds = SEGMENTS.iter().copied().max().unwrap_or(1);
    let mut order: Vec<(usize, usize, usize)> = SEGMENTS
        .iter()
        .enumerate()
        .flat_map(|(r, &n)| (0..n).map(move |seg| (seg * rounds / n, r, seg)))
        .collect();
    order.sort_unstable();
    order.into_iter().map(|(_, r, seg)| (r, seg)).collect()
}

/// `serve.max_rps` counts a rung only if its tail latency stays within
/// this limit.
const LIMIT_MS: f64 = 50.0;

/// How long after a segment's last due time a request may still be
/// sent; one still unsent then has failed. Long enough for the overload
/// rung to drain at a third of seed capacity.
const GRACE: Duration = Duration::from_secs(5);

/// Load generator connections (and threads).
const CONNECTIONS: usize = 2;

/// Hi-rung requests the traced run replays layer by layer.
const REPLAY_REQUESTS: usize = 400;

/// Largest reply body accepted.
const MAX_REPLY: usize = 1 << 20;

/// One `POST /v1/predict` per connection, like the project's client:
/// connect, send with `connection: close`, read the reply, close.
struct HttpConn {
    addr: SocketAddr,
}

impl Conn for HttpConn {
    fn call(&mut self, body: &[u8]) -> io::Result<(u16, Vec<u8>)> {
        let mut stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        http::write_request(
            &mut stream,
            "POST",
            "/v1/predict",
            &[
                ("content-type", "application/json"),
                ("connection", "close"),
            ],
            body,
        )?;
        let reply = http::read_response(&mut BufReader::new(stream), MAX_REPLY)?;
        Ok((reply.status, reply.body))
    }
}

/// One rung's schedule: due times and the pairs of each request.
struct Rung {
    rate: f64,
    due_s: Vec<f64>,
    pairs: Vec<Vec<(u32, u32)>>,
    bodies: Vec<Vec<u8>>,
}

/// What one rung measured, over all its segments.
struct RungResult {
    outcomes: Vec<Outcome>,
    /// Latency over every request of the rung (tail capped at p99).
    latency: Summary,
    /// Median of the segments' median latencies, seconds.
    p50: f64,
    /// Median of the segments' tail latencies, seconds.
    tail: f64,
    /// Percentile of the segments' tails (the lowest any segment had).
    tail_q: f64,
    /// Whether most segments built a growing backlog.
    growing: bool,
    /// Requests answered per second, over all segments.
    throughput: f64,
    /// Each segment's answered requests per second, first due time to
    /// last reply.
    segment_throughput: Vec<f64>,
    failed: usize,
    lag: Vec<f64>,
    /// Engine counters over the rung: (latency sum µs, latency count,
    /// occupancy sum, batches).
    engine: [u64; 4],
}

/// One segment's outcomes and engine-counter deltas.
struct Segment {
    outcomes: Vec<Outcome>,
    engine: [u64; 4],
}

fn body_of(pairs: &[(u32, u32)]) -> Vec<u8> {
    let list: Vec<String> = pairs.iter().map(|(a, b)| format!("[{a},{b}]")).collect();
    format!("{{\"task\":\"link\",\"pairs\":[{}]}}", list.join(",")).into_bytes()
}

/// Upper node counts of the subgraph-size classes the pair pool is
/// stratified by; larger subgraphs form one more class.
const SIZE_CLASSES: [usize; 3] = [8, 64, 512];

/// The candidate pairs in a seeded order that spreads each
/// subgraph-size class evenly: any stretch of requests holds the same
/// share of large subgraphs (which cost up to ten times a typical pair),
/// so a segment's tail does not depend on how many the draw gave it.
/// Returns each pair with its subgraph node count.
fn stratified_pool(graph: &CircuitGraph, seed: u64) -> Vec<((u32, u32), usize)> {
    let mut sampler = SubgraphSampler::new(graph, ServeConfig::default().sampler);
    let mut classes = vec![Vec::new(); SIZE_CLASSES.len() + 1];
    for (a, b) in CandidatePairs::new(graph, 0, 0) {
        let n = sampler.enclosing_subgraph(a, b).num_nodes();
        let class = SIZE_CLASSES
            .iter()
            .position(|&c| n <= c)
            .unwrap_or(SIZE_CLASSES.len());
        classes[class].push(((a, b), n));
    }
    let mut rng = Rng::new(seed, "serve.pairs");
    let mut keyed = Vec::new();
    for class in &mut classes {
        rng.shuffle(class);
        let count = class.len() as f64;
        for (j, &item) in class.iter().enumerate() {
            keyed.push(((j as f64 + rng.next_f64()) / count, item));
        }
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
    keyed.into_iter().map(|(_, item)| item).collect()
}

/// Seeded schedule: Poisson arrivals per rung, each request with its
/// own pairs drawn without replacement from `pool`.
fn schedule(seed: u64, seconds: f64, pool: &[(u32, u32)]) -> Result<Vec<Rung>, String> {
    let mut arrivals = Rng::new(seed, "serve.arrivals");
    let mut next_pair = 0usize;
    let mut rungs = Vec::new();
    for (r, &rate) in LADDER_RPS.iter().enumerate() {
        let n = (rate * seconds * RUNG_SHARE[r]).round().max(1.0) as usize;
        let mut t = 0.0;
        let mut rung = Rung {
            rate,
            due_s: Vec::with_capacity(n),
            pairs: Vec::with_capacity(n),
            bodies: Vec::with_capacity(n),
        };
        for _ in 0..n {
            t += arrivals.exponential(rate);
            let end = next_pair + PAIRS_PER_REQUEST;
            let pairs = pool
                .get(next_pair..end)
                .ok_or_else(|| format!("the design has only {} distinct pairs", pool.len()))?
                .to_vec();
            next_pair = end;
            rung.due_s.push(t);
            rung.bodies.push(body_of(&pairs));
            rung.pairs.push(pairs);
        }
        rungs.push(rung);
    }
    Ok(rungs)
}

fn healthz(addr: SocketAddr) -> Result<(), String> {
    let err = |e: io::Error| format!("server start: {e}");
    let mut stream = TcpStream::connect(addr).map_err(err)?;
    http::write_request(
        &mut stream,
        "GET",
        "/healthz",
        &[("connection", "close")],
        b"",
    )
    .map_err(err)?;
    let reply = http::read_response(&mut BufReader::new(&stream), MAX_REPLY).map_err(err)?;
    if reply.status != 200 {
        return Err(format!("server start: /healthz answered {}", reply.status));
    }
    Ok(())
}

fn engine_counters(m: &Metrics) -> [u64; 4] {
    [
        m.latency_us_sum.load(Ordering::Relaxed),
        m.latency_us_count.load(Ordering::Relaxed),
        m.batch_occupancy_sum.load(Ordering::Relaxed),
        m.batches_total.load(Ordering::Relaxed),
    ]
}

fn rejected(m: &Metrics) -> u64 {
    [
        &m.rejected_queue_full,
        &m.rejected_admission,
        &m.rejected_max_conns,
        &m.requests_timeout,
    ]
    .iter()
    .map(|c| c.load(Ordering::Relaxed))
    .sum()
}

/// Index range of segment `seg` of a rung of `n` requests.
fn segment_range(n: usize, segments: usize, seg: usize) -> std::ops::Range<usize> {
    (n * seg / segments)..(n * (seg + 1) / segments)
}

fn run_segment(
    server: &Server,
    addr: SocketAddr,
    rung: &Rung,
    range: std::ops::Range<usize>,
) -> Segment {
    let t0 = rung.due_s[range.start];
    let due: Vec<f64> = rung.due_s[range.clone()].iter().map(|d| d - t0).collect();
    let before = engine_counters(server.engine().metrics());
    let outcomes = loadgen::run(&due, &rung.bodies[range], CONNECTIONS, GRACE, &|| {
        Ok(HttpConn { addr })
    });
    let after = engine_counters(server.engine().metrics());
    std::thread::sleep(Duration::from_millis(50));
    Segment {
        outcomes,
        engine: [0, 1, 2, 3].map(|i| after[i] - before[i]),
    }
}

fn summarize(segments: Vec<Segment>) -> RungResult {
    let mut res = RungResult {
        outcomes: Vec::new(),
        latency: Summary::of(&[0.0]),
        p50: 0.0,
        tail: 0.0,
        tail_q: 1.0,
        growing: false,
        throughput: 0.0,
        segment_throughput: Vec::new(),
        failed: 0,
        lag: Vec::new(),
        engine: [0; 4],
    };
    let (mut ok, mut span, mut p50s, mut tails, mut growing) =
        (0usize, 0.0f64, Vec::new(), Vec::new(), 0);
    let count = segments.len();
    for seg in segments {
        let latencies: Vec<f64> = seg
            .outcomes
            .iter()
            .map(|o| due_latency_s(o.due_s, o.done_ok()))
            .collect();
        let summary = Summary::capped(&latencies, 0.99);
        p50s.push(summary.p50);
        tails.push(summary.tail);
        res.tail_q = res.tail_q.min(summary.tail_q);
        let due: Vec<f64> = seg.outcomes.iter().map(|o| o.due_s).collect();
        let done: Vec<Option<f64>> = seg.outcomes.iter().map(Outcome::done_ok).collect();
        growing += usize::from(backlog_grows(&due, &done));
        let seg_ok = done.iter().flatten().count();
        let seg_span = done.iter().flatten().fold(0.0f64, |m, &d| m.max(d));
        res.segment_throughput
            .push(seg_ok as f64 / seg_span.max(1e-9));
        ok += seg_ok;
        span += seg_span;
        res.lag.extend(seg.outcomes.iter().filter_map(|o| o.lag_s));
        for i in 0..4 {
            res.engine[i] += seg.engine[i];
        }
        res.outcomes.extend(seg.outcomes);
    }
    let latencies: Vec<f64> = res
        .outcomes
        .iter()
        .map(|o| due_latency_s(o.due_s, o.done_ok()))
        .collect();
    res.latency = Summary::capped(&latencies, 0.99);
    res.p50 = median(&p50s);
    res.tail = median(&tails);
    res.growing = 2 * growing > count;
    res.throughput = ok as f64 / span.max(1e-9);
    res.failed = res.outcomes.len() - ok;
    res
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut tracer = args.trace.then(Tracer::default);
    // Inputs, untimed: SPICE text, checkpoint bytes, the shuffled pair
    // pool and the arrival schedule with pre-built request bodies.
    let design = generate(DESIGN.0, DESIGN.1).map_err(|e| format!("generating design: {e}"))?;
    let top = design.name.clone();
    let ckpt = checkpoint_bytes()?;
    let (input_graph, _) = netlist_to_graph(&design.netlist);
    let stratified = stratified_pool(&input_graph, args.seed);
    let candidates = stratified.len();
    let pool: Vec<(u32, u32)> = stratified.iter().map(|&(p, _)| p).collect();
    let rungs = schedule(args.seed, args.seconds.as_secs_f64(), &pool)?;
    report.info(format!(
        "design {top}: {} nodes, {} edges, {candidates} candidate pairs",
        input_graph.num_nodes(),
        input_graph.num_edges()
    ));
    let sent_pairs: Vec<(u32, u32)> = rungs
        .iter()
        .flat_map(|r| r.pairs.iter().flatten().copied())
        .collect();
    let distinct = sent_pairs.iter().collect::<HashSet<_>>().len();
    let repeated = 1.0 - distinct as f64 / sent_pairs.len() as f64;
    report.info(format!(
        "property repeated-pair share {repeated} over {} pairs in {} requests (must be 0)",
        sent_pairs.len(),
        rungs.iter().map(|r| r.due_s.len()).sum::<usize>()
    ));
    report.check(
        "no pair repeats",
        repeated == 0.0,
        format!("{distinct} distinct pairs"),
    );
    report.info(format!(
        "ladder {:?} req/s x {PAIRS_PER_REQUEST} pairs, rung shares {RUNG_SHARE:?}, {CONNECTIONS} connections, limit {LIMIT_MS} ms",
        LADDER_RPS
    ));
    let sizes: Vec<usize> = stratified[..sent_pairs.len()]
        .iter()
        .map(|&(_, n)| n)
        .collect();
    let (n50, n99) = size_quantiles(&sizes);
    report.info(format!(
        "property subgraph nodes p50 {n50} p99 {n99} over {} sent pairs",
        sizes.len()
    ));
    drop(input_graph);

    // One server serves the ladder. After each segment a second one is
    // set up and shut down again, so that `setup_s` samples the whole run.
    let mut steps = Vec::new();
    let (measured, reference, rejected_total) = with_server(
        &design.spice,
        &top,
        &ckpt,
        &mut steps,
        |server, addr, steps| {
            let mut parts: Vec<Vec<Segment>> = rungs.iter().map(|_| Vec::new()).collect();
            for (r, seg) in segment_order() {
                let range = segment_range(rungs[r].due_s.len(), SEGMENTS[r], seg);
                parts[r].push(run_segment(server, addr, &rungs[r], range));
                with_server(&design.spice, &top, &ckpt, steps, |_, _, _| Ok(()))?;
            }
            let measured: Vec<RungResult> = parts.into_iter().map(summarize).collect();
            let reference = reference_predictions(server, &rungs);
            Ok((measured, reference, rejected(server.engine().metrics())))
        },
    )?;
    let setup_times: Vec<f64> = steps
        .iter()
        .map(|s| s.parse_s + s.build_s + s.load_s + s.other_s)
        .collect();

    // Failure accounting and output checks.
    let mut mismatches = 0usize;
    let mut unparsable = 0usize;
    let mut reference_iter = reference.iter();
    for (r, (rung, res)) in rungs.iter().zip(&measured).enumerate() {
        for o in &res.outcomes {
            let want = reference_iter.next().expect("one reference per request");
            if !o.ok() {
                continue;
            }
            match parse_predictions(&o.body, "probs") {
                Some(got) => mismatches += usize::from(first_bit_mismatch(&got, want).is_some()),
                None => unparsable += 1,
            }
        }
        let lag = if res.lag.is_empty() {
            0.0
        } else {
            Summary::of(&res.lag).tail
        };
        report.info(format!(
            "rung {r} {} req/s: sent {} succeeded {} failed {}; segment medians p50 {:.3} ms p{} {:.3} ms; pooled {} {:.3} ms (n={}); throughput {:.1} req/s; backlog {}; generator lag tail {:.3} ms",
            rung.rate,
            res.outcomes.iter().filter(|o| o.sent_s.is_some()).count(),
            res.outcomes.len() - res.failed,
            res.failed,
            res.p50 * 1e3,
            res.tail_q * 100.0,
            res.tail * 1e3,
            res.latency.tail_label(),
            res.latency.tail * 1e3,
            res.latency.n,
            res.throughput,
            if res.growing { "GROWING" } else { "steady" },
            lag * 1e3
        ));
        report.attempted += res.outcomes.len() as u64;
        report.failed += res.failed as u64;
    }
    report.check(
        "every 200 reply == session predictions (bitwise)",
        mismatches == 0 && unparsable == 0,
        format!("{mismatches} mismatched, {unparsable} unparsable replies"),
    );

    match tracer.as_mut() {
        None => {
            report.metric(
                "setup_s",
                median(&setup_times),
                "s",
                setup_times.len(),
                "median of set-ups",
            );
            let best = measured
                .iter()
                .rposition(|r| r.tail * 1e3 <= LIMIT_MS && !r.growing);
            let (value, how) = match best {
                Some(i) => (
                    measured[i].throughput,
                    format!("achieved throughput of the {} req/s rung", LADDER_RPS[i]),
                ),
                None => (0.0, "no rung met the limit".to_string()),
            };
            report.metric(
                "serve.max_rps",
                value,
                "1/s",
                measured.iter().map(|r| r.outcomes.len()).sum(),
                &how,
            );
            let capacity = &measured[OVERLOAD].segment_throughput;
            let list: Vec<String> = capacity.iter().map(|r| format!("{r:.1}")).collect();
            report.info(format!(
                "overload segments answered {} req/s",
                list.join(" ")
            ));
            report.metric(
                "pairs_per_s",
                median(capacity) * PAIRS_PER_REQUEST as f64,
                "1/s",
                capacity.len(),
                &format!(
                    "pairs answered per second at the {} req/s overload rung, median of its segments",
                    LADDER_RPS[OVERLOAD]
                ),
            );
        }
        Some(tr) => {
            for (i, s) in steps.iter().enumerate() {
                s.record(tr, i as u32);
            }
            traced(
                tr,
                &design.spice,
                &top,
                &ckpt,
                &rungs,
                &measured,
                rejected_total,
                report,
            )?;
        }
    }
    Ok(())
}

/// Sets a server up from the inputs, adding the steps' seconds to
/// `steps`, runs `body` once `/healthz` answers, and shuts it down.
fn with_server<R>(
    spice: &str,
    top: &str,
    ckpt: &[u8],
    steps: &mut Vec<SetupSteps>,
    body: impl FnOnce(&Server, SocketAddr, &mut Vec<SetupSteps>) -> Result<R, String>,
) -> Result<R, String> {
    let mut s = SetupSteps::default();
    let t = Instant::now();
    let netlist = timed(&mut s.parse_s, || parse_netlist(spice, top))?;
    let (graph, _) = timed(&mut s.build_s, || netlist_to_graph(&netlist));
    let model = timed(&mut s.load_s, || load_model(ckpt))?;
    let server = Server::new(model, graph, top.to_string(), ServeConfig::default());
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("bind: {e}"))?;
    std::thread::scope(|sc| {
        let handle = sc.spawn(|| server.serve(listener));
        let started = healthz(addr);
        // Server start: normalizer fit, engine, listener, workers, and
        // the first answered request.
        s.other_s = t.elapsed().as_secs_f64() - s.parse_s - s.build_s - s.load_s;
        steps.push(s);
        let outcome = started.and_then(|()| body(&server, addr, steps));
        server.shutdown(addr);
        let joined = handle.join();
        outcome.and_then(|out| {
            joined
                .map(|()| out)
                .map_err(|_| "the server thread panicked".to_string())
        })
    })
}

/// The direct predictions for every request, from fresh sessions of
/// the server's own model (two threads, half the requests each).
fn reference_predictions(server: &Server, rungs: &[Rung]) -> Vec<Vec<f32>> {
    let requests: Vec<&Vec<(u32, u32)>> = rungs.iter().flat_map(|r| r.pairs.iter()).collect();
    let half = requests.len().div_ceil(2);
    std::thread::scope(|s| {
        let handles: Vec<_> = requests
            .chunks(half.max(1))
            .map(|chunk| {
                s.spawn(move || {
                    let mut session = server.session();
                    chunk
                        .iter()
                        .map(|p| session.predict_links(p))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread panicked"))
            .collect()
    })
}

/// Replays one request through a session and through each crate's
/// public call: extraction and preparation per pair, one batched forward,
/// and the standalone PE per pair.
fn replay_request(
    server: &Server,
    session: &mut InferenceSession<'_>,
    sampler: &mut SubgraphSampler<'_>,
    xcn: &XcNormalizer,
    pairs: &[(u32, u32)],
    req: u32,
    mut tr: Option<&mut Tracer>,
) {
    let pe = server.model().cfg.pe;
    match tr.as_deref_mut() {
        Some(t) => {
            t.time("serve.service", ROOT, req, || session.predict_links(pairs));
        }
        None => {
            std::hint::black_box(session.predict_links(pairs));
        }
    }
    let mut samples = Vec::with_capacity(pairs.len());
    for &(a, b) in pairs {
        let sub = match tr.as_deref_mut() {
            Some(t) => t.time("sample.extract", ROOT, req, || {
                sampler.enclosing_subgraph(a, b)
            }),
            None => sampler.enclosing_subgraph(a, b),
        };
        let prep = || PreparedSample::new(sub, pe, xcn, 1.0, 0.0);
        samples.push(match tr.as_deref_mut() {
            Some(t) => t.time("prepare", ROOT, req, prep),
            None => prep(),
        });
    }
    let refs: Vec<&PreparedSample> = samples.iter().collect();
    match tr {
        Some(t) => {
            t.time("forward", ROOT, req, || {
                server.model().predict_link_batch(&refs)
            });
            for s in &samples {
                t.time("pe.compute", ROOT, req, || compute_pe(&s.sub, pe));
            }
        }
        None => {
            std::hint::black_box(server.model().predict_link_batch(&refs));
            for s in &samples {
                std::hint::black_box(compute_pe(&s.sub, pe));
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn traced(
    tr: &mut Tracer,
    spice: &str,
    top: &str,
    ckpt: &[u8],
    rungs: &[Rung],
    measured: &[RungResult],
    rejected_total: u64,
    report: &mut Report,
) -> Result<(), String> {
    let netlist = parse_netlist(spice, top)?;
    let (graph, _) = netlist_to_graph(&netlist);
    let xcn = XcNormalizer::fit(&[&graph]);
    let server = Server::new(
        load_model(ckpt)?,
        graph,
        top.to_string(),
        ServeConfig::default(),
    );
    // Replay the hi rung's first requests, each once with spans and once
    // without; each pass has its own session so neither hits the cache.
    let hi = &rungs[HI];
    let replayed = &hi.pairs[..REPLAY_REQUESTS.min(hi.pairs.len())];
    let (mut plain_session, mut traced_session) = (server.session(), server.session());
    let mut sampler = SubgraphSampler::new(server.graph(), ServeConfig::default().sampler);
    let (plain, traced) = tr.interleaved(replayed.len(), |i, t| {
        let session = if t.is_some() {
            &mut traced_session
        } else {
            &mut plain_session
        };
        replay_request(
            &server,
            session,
            &mut sampler,
            &xcn,
            &replayed[i],
            i as u32,
            t,
        );
    });

    let res = &measured[HI];
    let client: Vec<f64> = res
        .outcomes
        .iter()
        .filter_map(|o| Some(o.done_ok()? - o.sent_s?))
        .collect();
    let client_us = client.iter().sum::<f64>() / client.len().max(1) as f64 * 1e6;
    let [lat_sum, lat_n, occ_sum, batches] = res.engine;
    let engine_us = lat_sum as f64 / lat_n.max(1) as f64;
    let service = tr.secs("serve.service");
    let service_us = service.iter().sum::<f64>() / service.len().max(1) as f64 * 1e6;
    let forward = tr.secs("forward");
    let forward_total: f64 = forward.iter().sum();
    let pairs = replayed.iter().map(Vec::len).sum::<usize>();

    report_setup_steps(report, tr);
    let extract = Summary::capped(&tr.secs("sample.extract"), 0.99);
    report.timing(
        "sample.extract_us_p50",
        "sample.extract_us_p99",
        &extract,
        1e6,
        "us",
    );
    let sizes: Vec<usize> = {
        let mut sampler = SubgraphSampler::new(server.graph(), ServeConfig::default().sampler);
        hi.pairs
            .iter()
            .flatten()
            .map(|&(a, b)| sampler.enclosing_subgraph(a, b).num_nodes())
            .collect()
    };
    let (n50, n99) = size_quantiles(&sizes);
    report.metric(
        "sample.nodes_p50",
        n50,
        "count",
        sizes.len(),
        "median over the hi rung's pairs",
    );
    report.metric(
        "sample.nodes_p99",
        n99,
        "count",
        sizes.len(),
        "p99 over the hi rung's pairs",
    );
    report.metric(
        "pe.compute_us",
        median(&tr.secs("pe.compute")) * 1e6,
        "us",
        pairs,
        "median per pair",
    );
    report.metric(
        "prepare.us",
        median(&tr.secs("prepare")) * 1e6,
        "us",
        pairs,
        "median per pair",
    );
    report.metric(
        "forward.us_per_sample",
        forward_total * 1e6 / pairs as f64,
        "us",
        forward.len(),
        "batched forward per request, per pair",
    );
    report.metric(
        "serve.ingress_us",
        client_us - engine_us,
        "us",
        client.len(),
        "hi rung: client exchange minus engine latency, means",
    );
    report.metric(
        "serve.engine_us",
        engine_us,
        "us",
        lat_n as usize,
        "hi rung: Metrics latency sum / count",
    );
    report.metric(
        "serve.service_us",
        service_us,
        "us",
        service.len(),
        "hi rung requests replayed through Server::session, mean",
    );
    report.metric(
        "serve.queue_wait_us",
        engine_us - service_us,
        "us",
        service.len(),
        "engine minus service",
    );
    report.metric(
        "serve.batch_occupancy",
        occ_sum as f64 / batches.max(1) as f64,
        "count",
        batches as usize,
        "hi rung: occupancy sum / batches",
    );
    report.metric(
        "serve.rejected",
        rejected_total as f64,
        "count",
        1,
        "queue-full, admission, connection-cap and timeout rejections",
    );
    let lag: Vec<f64> = measured
        .iter()
        .flat_map(|r| r.lag.iter().copied())
        .collect();
    let lag_s = if lag.is_empty() {
        0.0
    } else {
        Summary::capped(&lag, 0.99).tail
    };
    // Latency figures that do not repeat within a bound between runs on
    // a shared host: reported here, ungated.
    for (name, r) in [("lo", LO), ("hi", HI)] {
        let rung = &measured[r];
        let how = format!("median of {} segment medians", SEGMENTS[r]);
        report.metric(
            &format!("serve.{name}_p50_ms"),
            rung.p50 * 1e3,
            "ms",
            rung.latency.n,
            &how,
        );
        let how = format!(
            "median of {} segment p{}s",
            SEGMENTS[r],
            rung.tail_q * 100.0
        );
        report.metric(
            &format!("serve.{name}_p95_ms"),
            rung.tail * 1e3,
            "ms",
            rung.latency.n,
            &how,
        );
        let pooled = &rung.latency;
        let how = format!(
            "{} of all {} requests of the rung, pooled",
            pooled.tail_label(),
            pooled.n
        );
        report.metric(
            &format!("serve.{name}_p99_ms"),
            pooled.tail * 1e3,
            "ms",
            pooled.n,
            &how,
        );
    }
    report.metric(
        "loadgen.lag_p99_ms",
        lag_s * 1e3,
        "ms",
        lag.len(),
        "tail of generator lateness, all rungs",
    );
    report.metric(
        "trace.overhead_pct",
        (traced - plain) / plain * 100.0,
        "%",
        2,
        "traced replay vs the same replay untraced",
    );
    let share = forward_total * 1e6 / replayed.len() as f64 / service_us;
    report.info(format!(
        "property forward share of service time {share:.3} ({}; chosen for > 0.5)",
        if share > 0.5 {
            "holds"
        } else {
            "DOES NOT HOLD"
        }
    ));
    let path = std::path::Path::new("perfbench/out/spans-serve_predict.tsv");
    tr.write_tsv(path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    report.info(format!("{} spans written to {}", tr.len(), path.display()));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_segment_runs_once_spread_over_the_run() {
        let order = segment_order();
        assert_eq!(order.len(), SEGMENTS.iter().sum::<usize>());
        for (r, &n) in SEGMENTS.iter().enumerate() {
            let at: Vec<usize> = (0..order.len()).filter(|&i| order[i].0 == r).collect();
            let segs: Vec<usize> = at.iter().map(|&i| order[i].1).collect();
            assert_eq!(segs, (0..n).collect::<Vec<_>>(), "rung {r} in order");
            // Neither half of the run holds all of a rung's segments.
            assert!(at[0] < order.len() / 2 && at[n - 1] >= order.len() / 2);
        }
    }
}
