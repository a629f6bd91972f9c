//! `fewshot_train`: link pretraining on grammar designs of three
//! families, an 8-shot head-only regression fine-tune on a held-out
//! family, and held-out evaluation. The only workload that runs the
//! taped forward, `Tape::backward` and `Adam::step`.

use std::time::Instant;

use ams_datagen::enumerate::build_term;
use ams_datagen::{extract_parasitics, ExtractConfig, Term};
use ams_netlist::{Netlist, SpfFile};
use circuit_graph::{netlist_to_graph, CircuitGraph, NodeMap};
use circuitgps::{
    evaluate_link, evaluate_regression, finetune_regression, predict_regression,
    prepare_link_dataset, train_with_progress, CircuitGps, FinetuneMode, PreparedSample, Task,
    TrainConfig,
};
use cirgps_nn::{Adam, GradStore, Tape};
use graph_pe::compute_pe;
use subgraph_sample::{
    CapNormalizer, DatasetConfig, LinkDataset, SamplerConfig, SubgraphSampler, XcNormalizer,
};

use crate::common::{
    checkpoint_bytes, load_model, parse_netlist, report_setup_steps, size_quantiles, timed,
    SetupSteps,
};
use crate::report::{timed_setup, Report};
use crate::rng::{derive, Rng};
use crate::stats::{first_bit_mismatch, median, Summary};
use crate::trace::{Tracer, ROOT};
use crate::Args;

/// Pretraining designs, one per family: bus, chain and array.
const PRETRAIN: [Term; 3] = [
    Term::Bus {
        cell: "NAND2",
        lanes: 8,
        stages: 12,
    },
    Term::Chain {
        cell: "DFF",
        len: 64,
    },
    Term::Array {
        eight_t: false,
        rows: 12,
        cols: 8,
        periphery: true,
    },
];

/// The held-out family's design (fabric: a 4-bit, 4-lane mux).
const HELD_OUT: Term = Term::Mux { bits: 4, lanes: 4 };

/// Positive links sampled per coupling type and pretraining design.
const PRETRAIN_PER_TYPE: usize = 35;

/// Positive links sampled per coupling type on the held-out design.
const HELD_OUT_PER_TYPE: usize = 100;

/// Pretraining epochs; every other `TrainConfig` field is the default.
const PRETRAIN_EPOCHS: usize = 2;

/// Fine-tuning epochs over the shots.
const FINETUNE_EPOCHS: usize = 30;

/// Labelled held-out couplings the fine-tune sees.
const SHOTS: usize = 8;

/// Few-shot episodes per round, each with its own seeded draw of shots.
/// `fewshot.mae` is their mean over all rounds: one draw of eight shots
/// decides the MAE far more than the code does.
const EPISODES: usize = 8;

/// Set-up repetitions after each round (one more comes before the
/// first); `setup_s` is their median.
const SETUPS_PER_ROUND: usize = 4;

/// Seconds one round (pretraining plus the episodes) takes on the
/// two-core host; the run does `--seconds / ROUND_SECONDS` rounds.
const ROUND_SECONDS: f64 = 10.0;

/// Lowest held-out link AUC after pretraining that passes the output
/// check. Runs reach 0.98 to 0.996; a model that learned nothing
/// scores 0.5.
const MIN_AUC: f64 = 0.9;

/// Batch size of the tape-free forward replay (the evaluators' chunk).
const EVAL_CHUNK: usize = 32;

/// One design's generated text inputs.
struct DesignText {
    name: String,
    spice: String,
    spf: String,
}

fn design_text(term: &Term, seed: u64) -> Result<DesignText, String> {
    let design = build_term(term, seed).map_err(|e| format!("building {term}: {e}"))?;
    let spf = extract_parasitics(
        &design,
        &ExtractConfig {
            seed: derive(seed, &format!("extract.{term}")),
            ..ExtractConfig::default()
        },
    );
    Ok(DesignText {
        name: term.name(),
        spice: design.spice,
        spf: spf.to_text(),
    })
}

/// Prepared training inputs.
struct Prepared {
    train: Vec<PreparedSample>,
    held: Vec<PreparedSample>,
    /// The set-up's loaded model, consumed by the first round.
    model: Option<CircuitGps>,
    xcn_train: XcNormalizer,
    /// Per design: (name, nodes, edges).
    sizes: Vec<(String, usize, usize)>,
    /// Per pretraining design: its graph and its samples' link endpoints,
    /// which the traced run extracts again.
    links: Vec<(CircuitGraph, Vec<(u32, u32)>)>,
}

struct Parsed {
    netlist: Netlist,
    spf: SpfFile,
    graph: CircuitGraph,
    map: NodeMap,
}

fn setup(
    texts: &[DesignText],
    ckpt: &[u8],
    seed: u64,
    s: &mut SetupSteps,
) -> Result<Prepared, String> {
    let mut parsed = Vec::with_capacity(texts.len());
    for t in texts {
        let (netlist, spf) = timed(&mut s.parse_s, || {
            let spf = SpfFile::parse(&t.spf).map_err(|e| format!("parsing {} SPF: {e}", t.name));
            parse_netlist(&t.spice, &t.name).and_then(|n| Ok((n, spf?)))
        })?;
        let (graph, map) = timed(&mut s.build_s, || netlist_to_graph(&netlist));
        parsed.push(Parsed {
            netlist,
            spf,
            graph,
            map,
        });
    }
    let (pre, held) = parsed.split_at(PRETRAIN.len());
    let (xcn_train, xcn_held) = timed(&mut s.build_s, || {
        let graphs: Vec<&CircuitGraph> = pre.iter().map(|p| &p.graph).collect();
        (
            XcNormalizer::fit(&graphs),
            XcNormalizer::fit(&[&held[0].graph]),
        )
    });
    let cap = CapNormalizer::paper_range();
    let dataset = |p: &Parsed, name: &str, per_type: usize, xcn: &XcNormalizer| {
        let ds = LinkDataset::build(
            name,
            &p.graph,
            &p.netlist,
            &p.map,
            &p.spf,
            &DatasetConfig {
                max_per_type: per_type,
                seed: derive(seed, &format!("dataset.{name}")),
                ..DatasetConfig::default()
            },
        );
        let pairs = ds.samples.iter().map(|s| (s.link.a, s.link.b)).collect();
        (
            prepare_link_dataset(&ds, ckpt_pe(), xcn, |c| cap.encode(c)),
            pairs,
        )
    };
    let (train, held_samples, pairs) = timed(&mut s.other_s, || {
        let mut train = Vec::new();
        let mut pairs: Vec<Vec<(u32, u32)>> = Vec::new();
        for (p, t) in pre.iter().zip(texts) {
            let (samples, links) = dataset(p, &t.name, PRETRAIN_PER_TYPE, &xcn_train);
            train.extend(samples);
            pairs.push(links);
        }
        let (held, _) = dataset(
            &held[0],
            &texts[PRETRAIN.len()].name,
            HELD_OUT_PER_TYPE,
            &xcn_held,
        );
        (train, held, pairs)
    });
    let model = timed(&mut s.load_s, || load_model(ckpt))?;
    let sizes = parsed
        .iter()
        .zip(texts)
        .map(|(p, t)| (t.name.clone(), p.graph.num_nodes(), p.graph.num_edges()))
        .collect();
    let links = parsed.into_iter().map(|p| p.graph).zip(pairs).collect();
    Ok(Prepared {
        train,
        held: held_samples,
        model: Some(model),
        xcn_train,
        sizes,
        links,
    })
}

/// The positional encoding every model of this benchmark uses.
fn ckpt_pe() -> graph_pe::PeKind {
    circuitgps::ModelConfig::default().pe
}

/// What one pretrain / fine-tune / evaluate round measured.
struct Round {
    epoch_rates: Vec<f64>,
    epoch_secs: Vec<f64>,
    /// Samples the round's pretraining and fine-tunes stepped through.
    trained: usize,
    /// Seconds its pretraining and fine-tunes took.
    train_secs: f64,
    /// Fine-tuning samples per second, one per episode.
    finetune_rates: Vec<f64>,
    auc: f64,
    /// Held-out MAE, one per episode.
    maes: Vec<f64>,
    pretrained: Vec<u8>,
    /// The first episode's fine-tuned weights.
    finetuned: Vec<u8>,
}

/// One few-shot episode: the shots and the couplings it is scored on.
struct Episode {
    shots: Vec<PreparedSample>,
    rest: Vec<PreparedSample>,
}

/// Round `round`'s episodes.
fn episodes(held: &[PreparedSample], seed: u64, round: usize) -> Vec<Episode> {
    let positives: Vec<&PreparedSample> = held.iter().filter(|s| s.label > 0.5).collect();
    (0..EPISODES)
        .map(|e| {
            let mut order = positives.clone();
            Rng::new(seed, &format!("fewshot.shots.{round}.{e}")).shuffle(&mut order);
            let (shots, rest) = order.split_at(SHOTS.min(order.len()));
            Episode {
                shots: shots.iter().map(|&s| s.clone()).collect(),
                rest: rest.iter().map(|&s| s.clone()).collect(),
            }
        })
        .collect()
}

fn snapshot(model: &CircuitGps) -> Result<Vec<u8>, String> {
    let mut bytes = Vec::new();
    model
        .save_checkpoint(&mut bytes)
        .map_err(|e| format!("snapshot: {e}"))?;
    Ok(bytes)
}

fn round(
    p: &Prepared,
    model: Option<CircuitGps>,
    ckpt: &[u8],
    eps: &[Episode],
) -> Result<Round, String> {
    let mut model = match model {
        Some(m) => m,
        None => load_model(ckpt)?,
    };
    let pre_cfg = TrainConfig {
        epochs: PRETRAIN_EPOCHS,
        ..TrainConfig::default()
    };
    let mut last = Instant::now();
    let mut epoch_secs = Vec::new();
    train_with_progress(
        &mut model,
        &p.train,
        Task::LinkPrediction,
        &pre_cfg,
        &mut |_, _| {
            let now = Instant::now();
            epoch_secs.push((now - last).as_secs_f64());
            last = now;
        },
    )
    .map_err(|e| format!("pretraining: {e}"))?;
    let pretrained = snapshot(&model)?;
    let auc = evaluate_link(&model, &p.held).auc;

    let ft_cfg = TrainConfig {
        epochs: FINETUNE_EPOCHS,
        ..TrainConfig::default()
    };
    let (mut finetune_rates, mut maes, mut finetuned) = (Vec::new(), Vec::new(), Vec::new());
    let mut trained = p.train.len() * epoch_secs.len();
    let mut train_secs: f64 = epoch_secs.iter().sum();
    for ep in eps {
        let mut model = load_model(&pretrained)?;
        let t = Instant::now();
        finetune_regression(&mut model, &ep.shots, FinetuneMode::HeadOnly, &ft_cfg)
            .map_err(|e| format!("fine-tuning: {e}"))?;
        let secs = t.elapsed().as_secs_f64();
        let samples = ep.shots.len() * FINETUNE_EPOCHS;
        finetune_rates.push(samples as f64 / secs);
        trained += samples;
        train_secs += secs;
        maes.push(evaluate_regression(&model, &ep.rest).mae as f64);
        if finetuned.is_empty() {
            finetuned = snapshot(&model)?;
        }
    }
    Ok(Round {
        epoch_rates: epoch_secs
            .iter()
            .map(|s| p.train.len() as f64 / s)
            .collect(),
        epoch_secs,
        trained,
        train_secs,
        finetune_rates,
        auc: auc as f64,
        maes,
        pretrained,
        finetuned,
    })
}

/// Runs the workload.
pub fn run(args: &Args, report: &mut Report) -> Result<(), String> {
    // Inputs, untimed: SPICE and SPF text of every design, checkpoint bytes.
    let texts = PRETRAIN
        .iter()
        .chain(std::iter::once(&HELD_OUT))
        .map(|t| design_text(t, args.seed))
        .collect::<Result<Vec<_>, _>>()?;
    let ckpt = checkpoint_bytes()?;

    let mut tracer = args.trace.then(Tracer::default);
    let mut steps = Vec::new();
    let mut setup_times = Vec::new();
    let mut set_up = |times: &mut Vec<f64>| {
        timed_setup(times, || {
            let mut s = SetupSteps::default();
            let out = setup(&texts, &ckpt, args.seed, &mut s);
            steps.push(s);
            out
        })
    };
    let mut p = set_up(&mut setup_times)?;
    for (name, nodes, edges) in &p.sizes {
        report.info(format!("design {name}: {nodes} nodes, {edges} edges"));
    }
    let sizes: Vec<usize> = p.train.iter().map(|s| s.sub.num_nodes()).collect();
    let (n50, n99) = size_quantiles(&sizes);
    report.info(format!(
        "property {} pretraining samples, {} held-out samples; subgraph nodes p50 {n50} p99 {n99}",
        p.train.len(),
        p.held.len()
    ));

    // A fixed number of rounds for the run's seconds, not as many as fit:
    // the peak RSS grows with every round, so a count that followed the
    // host's speed would move `peak_rss_mb` with it.
    let planned = if tracer.is_some() {
        1
    } else {
        ((args.seconds.as_secs_f64() / ROUND_SECONDS).round() as usize).max(1)
    };
    let mut rounds: Vec<Round> = Vec::new();
    for r in 0..planned {
        report.attempted += 1;
        let model = p.model.take();
        // The seeded shots: labelled held-out couplings; the rest evaluate.
        let eps = episodes(&p.held, args.seed, r);
        match round(&p, model, &ckpt, &eps) {
            Ok(r) => {
                rounds.push(r);
                for _ in 0..SETUPS_PER_ROUND {
                    set_up(&mut setup_times)?;
                }
            }
            Err(e) => {
                report.failed += 1;
                report.check("training raises no TrainError", false, e);
                break;
            }
        }
    }
    let Some(first) = rounds.first() else {
        return Ok(());
    };
    report.check(
        "training raises no TrainError",
        true,
        format!("{} rounds", rounds.len()),
    );
    let repeat = rounds.iter().all(|r| r.pretrained == first.pretrained);
    // Reported, not checked: with more than one thread the training loop's
    // parallel sub-batches update the batch-norm running statistics in
    // whatever order they finish, so repeated pretraining can differ in
    // those buffers (and in the metrics' last digits).
    report.info(format!(
        "finding pretraining repeats bitwise: {} ({} rounds, {} threads)",
        if repeat { "yes" } else { "NO" },
        rounds.len(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    let first_rest = &episodes(&p.held, args.seed, 0)[0].rest;
    check_tape_free(report, first, &p.held, first_rest)?;
    let maes: Vec<f64> = rounds.iter().flat_map(|r| r.maes.iter().copied()).collect();
    let mae = maes.iter().sum::<f64>() / maes.len() as f64;
    report.info(format!(
        "quality zero-shot link AUC {:.4} on {}, {SHOTS}-shot head-only MAE {mae:.4} (mean of {} episodes, each on {} held-out couplings)",
        first.auc,
        HELD_OUT.name(),
        maes.len(),
        first_rest.len()
    ));
    let worst = rounds.iter().map(|r| r.auc).fold(f64::INFINITY, f64::min);
    report.check(
        &format!("zero-shot link AUC >= {MIN_AUC}"),
        worst >= MIN_AUC,
        format!("lowest over {} rounds {worst:.4}", rounds.len()),
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
            let epochs: Vec<f64> = rounds
                .iter()
                .flat_map(|r| r.epoch_rates.iter().copied())
                .collect();
            report.metric(
                "pretrain.samples_per_s",
                median(&epochs),
                "1/s",
                epochs.len(),
                "median over epochs",
            );
            let ft: Vec<f64> = rounds
                .iter()
                .flat_map(|r| r.finetune_rates.iter().copied())
                .collect();
            report.metric(
                "finetune.samples_per_s",
                median(&ft),
                "1/s",
                ft.len(),
                "median over episodes",
            );
            report.metric(
                "zeroshot.auc",
                first.auc,
                "ratio",
                p.held.len(),
                "held-out link AUC after pretraining",
            );
            report.metric(
                "fewshot.mae",
                mae,
                "ratio",
                maes.len(),
                "normalized-capacitance MAE after the fine-tune, mean over episodes",
            );
            let trained: usize = rounds.iter().map(|r| r.trained).sum();
            let secs: f64 = rounds.iter().map(|r| r.train_secs).sum();
            report.metric(
                "pairs_per_s",
                trained as f64 / secs,
                "1/s",
                trained,
                "samples stepped through by pretraining and fine-tunes / their seconds",
            );
        }
        Some(tr) => {
            for (i, s) in steps.iter().enumerate() {
                s.record(tr, i as u32);
            }
            for (e, s) in first.epoch_secs.iter().enumerate() {
                let end = Instant::now();
                tr.record(
                    "train.epoch",
                    end - std::time::Duration::from_secs_f64(*s),
                    end,
                    e as u32,
                );
            }
            traced(tr, &p, &ckpt, report)?;
        }
    }
    Ok(())
}

/// Tape-free held-out predictions equal the taped per-sample ones.
fn check_tape_free(
    report: &mut Report,
    r: &Round,
    held: &[PreparedSample],
    rest: &[PreparedSample],
) -> Result<(), String> {
    let pretrained = load_model(&r.pretrained)?;
    let taped: Vec<f32> = held.iter().map(|s| pretrained.predict_link(s)).collect();
    let free: Vec<f32> = held
        .chunks(EVAL_CHUNK)
        .flat_map(|c| pretrained.predict_link_batch(&c.iter().collect::<Vec<_>>()))
        .collect();
    let link = first_bit_mismatch(&taped, &free);
    report.check(
        "tape-free link == taped predict_link (bitwise)",
        link.is_none(),
        format!("{} held-out samples, first mismatch {link:?}", held.len()),
    );
    let finetuned = load_model(&r.finetuned)?;
    let taped: Vec<f32> = rest.iter().map(|s| finetuned.predict_reg(s)).collect();
    let free = predict_regression(&finetuned, rest);
    let reg = first_bit_mismatch(&taped, &free);
    report.check(
        "tape-free regression == taped predict_reg (bitwise)",
        reg.is_none(),
        format!("{} held-out couplings, first mismatch {reg:?}", rest.len()),
    );
    Ok(())
}

/// A model and its optimizer, stepped by the replay.
struct Stepper {
    model: CircuitGps,
    opt: Adam,
}

/// One pretraining step replayed on one thread: the batch is split into
/// the training loop's sub-batches, each taped forward and backward, and
/// the merged gradients applied by Adam.
fn replay_step(st: &mut Stepper, batch: &[PreparedSample], step: u32, mut tr: Option<&mut Tracer>) {
    let cfg = TrainConfig::default();
    let n_sub = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .clamp(1, batch.len().div_ceil(2).max(1));
    let model = &st.model;
    let mut merged = GradStore::new(model.store());
    for (ci, chunk) in batch.chunks(batch.len().div_ceil(n_sub)).enumerate() {
        let subs: Vec<&PreparedSample> = chunk.iter().collect();
        let mut grads = GradStore::new(model.store());
        let mut tape = Tape::new(model.store(), true, cfg.seed ^ ci as u64);
        let loss = match tr.as_deref_mut() {
            Some(t) => t.time("tape.forward", ROOT, step, || {
                model.loss_link_batch(&mut tape, &subs)
            }),
            None => model.loss_link_batch(&mut tape, &subs),
        };
        match tr.as_deref_mut() {
            Some(t) => t.time("tape.backward", ROOT, step, || {
                tape.backward(loss, &mut grads)
            }),
            None => tape.backward(loss, &mut grads),
        }
        drop(tape);
        grads.scale(subs.len() as f32);
        merged.merge(grads);
    }
    merged.scale(1.0 / batch.len() as f32);
    merged.clip_global_norm(cfg.clip);
    let Stepper { model, opt } = st;
    match tr {
        Some(t) => t.time("optim.step", ROOT, step, || {
            opt.step(model.store_mut(), &merged)
        }),
        None => opt.step(model.store_mut(), &merged),
    }
}

fn traced(tr: &mut Tracer, p: &Prepared, ckpt: &[u8], report: &mut Report) -> Result<(), String> {
    // One epoch of steps, each replayed once with spans and once without
    // on two copies of the model.
    let cfg = TrainConfig::default();
    let stepper = || -> Result<Stepper, String> {
        Ok(Stepper {
            model: load_model(ckpt)?,
            opt: Adam::new(cfg.lr).with_weight_decay(cfg.weight_decay),
        })
    };
    let (mut plain_st, mut traced_st) = (stepper()?, stepper()?);
    let batches: Vec<&[PreparedSample]> = p.train.chunks(cfg.batch_size).collect();
    let (plain, traced) = tr.interleaved(batches.len(), |i, t| {
        let st = if t.is_some() {
            &mut traced_st
        } else {
            &mut plain_st
        };
        replay_step(st, batches[i], i as u32, t);
    });

    let model = load_model(ckpt)?;
    let n_held = p.held.len();
    for chunk in p.held.chunks(EVAL_CHUNK) {
        let refs: Vec<&PreparedSample> = chunk.iter().collect();
        tr.time("forward", ROOT, 0, || model.predict_link_batch(&refs));
    }
    tr.time("eval", ROOT, 0, || evaluate_link(&model, &p.held));
    let ds = DatasetConfig::default();
    let sampler_cfg = SamplerConfig {
        hops: ds.hops,
        max_nodes: ds.max_nodes,
    };
    let mut sizes = Vec::new();
    for (graph, pairs) in &p.links {
        let mut sampler = SubgraphSampler::new(graph, sampler_cfg);
        for &(a, b) in pairs {
            let sub = tr.time("sample.extract", ROOT, 0, || {
                sampler.enclosing_subgraph(a, b)
            });
            sizes.push(sub.num_nodes());
        }
    }
    for s in &p.train {
        let sub = s.sub.clone();
        tr.time("prepare", ROOT, 0, || {
            PreparedSample::new(sub, ckpt_pe(), &p.xcn_train, 1.0, 0.0)
        });
        tr.time("pe.compute", ROOT, 0, || compute_pe(&s.sub, ckpt_pe()));
    }

    let n_train = p.train.len();
    report_setup_steps(report, tr);
    let prepare = tr.secs("setup.other");
    report.metric(
        "dataset.prepare_s",
        median(&prepare),
        "s",
        prepare.len(),
        "LinkDataset::build + prepare_link_dataset, median of set-ups",
    );
    let extract = Summary::capped(&tr.secs("sample.extract"), 0.99);
    report.timing(
        "sample.extract_us_p50",
        "sample.extract_us_p99",
        &extract,
        1e6,
        "us",
    );
    let (x50, x99) = size_quantiles(&sizes);
    report.info(format!(
        "re-extracted without the injected links: subgraph nodes p50 {x50} p99 {x99}"
    ));
    let sizes: Vec<usize> = p.train.iter().map(|s| s.sub.num_nodes()).collect();
    let (n50, n99) = size_quantiles(&sizes);
    report.metric(
        "sample.nodes_p50",
        n50,
        "count",
        n_train,
        "median over pretraining samples",
    );
    report.metric(
        "sample.nodes_p99",
        n99,
        "count",
        n_train,
        "p99 over pretraining samples",
    );
    report.metric(
        "pe.compute_us",
        median(&tr.secs("pe.compute")) * 1e6,
        "us",
        n_train,
        "median per sample",
    );
    report.metric(
        "prepare.us",
        median(&tr.secs("prepare")) * 1e6,
        "us",
        n_train,
        "median per sample",
    );
    report.metric(
        "forward.us_per_sample",
        tr.total("forward") * 1e6 / n_held as f64,
        "us",
        n_held,
        "tape-free batches of 32, held-out mix",
    );
    let epoch = Summary::of(&tr.secs("train.epoch"));
    report.metric(
        "train.epoch_s",
        epoch.p50,
        "s",
        epoch.n,
        "median interval between progress callbacks",
    );
    report.metric(
        "tape.forward_us_per_sample",
        tr.total("tape.forward") * 1e6 / n_train as f64,
        "us",
        n_train,
        "loss_link_batch on a training tape",
    );
    report.metric(
        "tape.backward_us_per_sample",
        tr.total("tape.backward") * 1e6 / n_train as f64,
        "us",
        n_train,
        "Tape::backward",
    );
    let steps = tr.secs("optim.step");
    report.metric(
        "optim.step_ms",
        median(&steps) * 1e3,
        "ms",
        steps.len(),
        "median Adam::step",
    );
    report.metric(
        "eval.us_per_sample",
        tr.total("eval") * 1e6 / n_held as f64,
        "us",
        n_held,
        "evaluate_link per held-out sample",
    );
    report.metric(
        "trace.overhead_pct",
        (traced - plain) / plain * 100.0,
        "%",
        2,
        "traced epoch replay vs the same replay untraced",
    );
    let path = std::path::Path::new("perfbench/out/spans-fewshot_train.tsv");
    tr.write_tsv(path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    report.info(format!("{} spans written to {}", tr.len(), path.display()));
    Ok(())
}
