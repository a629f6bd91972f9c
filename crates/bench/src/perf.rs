//! Criterion benchmark suites shared between `cargo bench` harnesses and
//! the `bench_json` snapshot binary.
//!
//! Each suite is a plain function over `&mut Criterion`, so the
//! `benches/*.rs` harnesses stay one-liners and `bench_json` can run the
//! same measurements in-process and serialize them to a
//! `BENCH_<date>.json` trajectory file.

use ams_datagen::{DesignKind, SizePreset};
use circuitgps::{prepare_link_dataset, CircuitGps, ModelConfig, PreparedSample};
use cirgps_nn::{GradStore, Tape};
use criterion::{BenchmarkId, Criterion};
use graph_pe::{compute_pe, PeKind};
use subgraph_sample::{CapNormalizer, DatasetConfig, SamplerConfig, SubgraphSampler, XcNormalizer};

use crate::{default_model, layer_ablation_configs, DesignData};

/// Tables III/VII "Time" column driver: forward+backward cost of one
/// training step for each GPS-layer configuration, at sub-batch sizes
/// 1/4/8 (one packed tape per sub-batch — the training loop's unit of
/// work). The size-8 rows keep their historical names so committed
/// `BENCH_*.json` baselines stay comparable.
pub fn layer_forward_suite(c: &mut Criterion) {
    let d = DesignData::load(DesignKind::DigitalClkGen, SizePreset::Tiny, 7);
    let ds = d.link_dataset(&DatasetConfig {
        max_per_type: 30,
        ..Default::default()
    });
    let xcn = XcNormalizer::fit(&[&d.graph]);
    let cap = CapNormalizer::paper_range();
    let samples = prepare_link_dataset(&ds, PeKind::Dspd, &xcn, |v| cap.encode(v));

    let mut group = c.benchmark_group("table3_layer_step");
    group.sample_size(10);
    for (mpnn_name, attn_name, mpnn, attn) in layer_ablation_configs() {
        let cfg = ModelConfig {
            mpnn,
            attn,
            ..default_model(PeKind::Dspd, 7)
        };
        let model = CircuitGps::new(cfg);
        for bs in [1usize, 4, 8] {
            let batch: Vec<&PreparedSample> = samples.iter().take(bs).collect();
            let label = if bs == 8 {
                format!("{mpnn_name}+{attn_name}")
            } else {
                format!("{mpnn_name}+{attn_name}/bs{bs}")
            };
            group.bench_with_input(BenchmarkId::from_parameter(label), &model, |b, model| {
                b.iter(|| {
                    let mut grads = GradStore::new(model.store());
                    let mut tape = Tape::new(model.store(), true, 0);
                    let loss = model.loss_link_batch(&mut tape, &batch);
                    tape.backward(loss, &mut grads);
                    std::hint::black_box(&grads);
                })
            });
        }
    }
    group.finish();
}

/// Attention-only microbench: forward+backward of the fused
/// block-diagonal attention ops over one packed sub-batch (8 blocks of
/// 96 nodes), isolated from the rest of the GPS layer. This is the op
/// the block-diagonal rewrite targets, so regressions here are visible
/// without the MPNN/MLP costs averaged in.
pub fn attention_suite(c: &mut Criterion) {
    use cirgps_nn::{MultiHeadAttention, ParamStore, PerformerAttention, Tensor};
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    const BLOCK_N: usize = 96;
    const BLOCKS: usize = 8;
    const DIM: usize = 32;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut store = ParamStore::new();
    let mha = MultiHeadAttention::new(&mut store, "mha", DIM, 4, &mut rng);
    let perf = PerformerAttention::new(&mut store, "perf", DIM, 4, 32, &mut rng);
    let n = BLOCK_N * BLOCKS;
    let x = Tensor::from_vec(
        n,
        DIM,
        (0..n * DIM).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    );
    let blocks: Arc<Vec<(usize, usize)>> =
        Arc::new((0..BLOCKS).map(|b| (b * BLOCK_N, BLOCK_N)).collect());
    let targets = vec![0.1f32; n * DIM];

    let mut group = c.benchmark_group("attention_micro");
    group.sample_size(10);
    group.bench_function("mha_block_diag_fwd_bwd/pack8x96", |b| {
        b.iter(|| {
            let mut grads = GradStore::new(&store);
            let mut tape = Tape::new(&store, true, 0);
            let xv = tape.input(x.clone());
            let y = mha.forward_blocks(&mut tape, xv, blocks.clone());
            let loss = tape.mse_loss(y, &targets);
            tape.backward(loss, &mut grads);
            std::hint::black_box(&grads);
        })
    });
    group.bench_function("performer_block_diag_fwd_bwd/pack8x96", |b| {
        b.iter(|| {
            let mut grads = GradStore::new(&store);
            let mut tape = Tape::new(&store, true, 0);
            let xv = tape.input(x.clone());
            let y = perf.forward_blocks(&mut tape, xv, blocks.clone());
            let loss = tape.mse_loss(y, &targets);
            tape.backward(loss, &mut grads);
            std::hint::black_box(&grads);
        })
    });
    group.bench_function("mha_infer_blocks/pack8x96", |b| {
        b.iter(|| std::hint::black_box(mha.infer_blocks(&store, &x, &blocks)).recycle())
    });
    group.finish();
}

/// Serving-daemon throughput driver: the dynamic micro-batcher of
/// `cirgps-serve` exercised in-process (no TCP), with real scheduler
/// worker threads draining the queue into the tape-free engine.
///
/// Two shapes bracket the serving workload:
/// * `singleton_requests/64` — 64 concurrent one-query submissions, the
///   interactive design-loop pattern the batcher exists for; per-query
///   cost approaches the batched engine's because the queue coalesces
///   them (`ns_per_iter / 64` is the per-query number).
/// * `one_request/64` — a single 64-query submission (bulk screening),
///   the lower bound where batching needs no luck.
pub fn serve_throughput_suite(c: &mut Criterion) {
    use cirgps_serve::{ServeConfig, Server, TaskKind};
    use std::time::Duration;

    let d = DesignData::load(DesignKind::TimingControl, SizePreset::Tiny, 7);
    let ds = d.link_dataset(&DatasetConfig {
        max_per_type: 30,
        ..Default::default()
    });
    let pairs: Vec<(u32, u32)> = ds
        .samples
        .iter()
        .map(|s| (s.link.a, s.link.b))
        .take(64)
        .collect();
    let model = CircuitGps::new(default_model(PeKind::Dspd, 7));
    let workers = 2;
    let server = Server::new(
        model,
        d.graph.clone(),
        d.design.name.clone(),
        ServeConfig {
            max_batch: 32,
            max_wait: Duration::from_micros(200),
            workers,
            queue_capacity: 4096,
            ..ServeConfig::default()
        },
    );

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let mut session = server.session();
                server.engine().run_worker(&mut session);
            });
        }
        let mut group = c.benchmark_group("serve_throughput");
        group.sample_size(10);
        group.bench_function("singleton_requests/64", |b| {
            b.iter(|| {
                let slots: Vec<_> = pairs
                    .iter()
                    .map(|&p| {
                        server
                            .engine()
                            .submit(TaskKind::Link, &[p])
                            .expect("queue sized for the fleet")
                    })
                    .collect();
                for slot in slots {
                    std::hint::black_box(slot.wait());
                }
            })
        });
        group.bench_function("one_request/64", |b| {
            b.iter(|| {
                let slot = server
                    .engine()
                    .submit(TaskKind::Link, &pairs)
                    .expect("queue sized for the batch");
                std::hint::black_box(slot.wait());
            })
        });
        group.finish();
        server.engine().shutdown();
    });
}

/// Full-chip sweep planner driver: amortized per-pair cost of
/// [`circuitgps::sweep_pairs`] over planner-enumerated candidate pairs
/// at three fleet sizes. One iteration sweeps all `n` pairs end to end
/// (extract → dedup → batch forward → fan out), so the amortized
/// per-pair number is `ns_per_iter / n`. Same design, model and sampler
/// as `sample_pe_predict_end_to_end`, whose per-pair time is the
/// un-amortized baseline the planner must beat by ≥3× at the 10k size
/// (see docs/sweep.md).
pub fn sweep_throughput_suite(c: &mut Criterion) {
    use circuitgps::{sweep_pairs, CandidatePairs, SweepConfig, SweepTask};

    let d = DesignData::load(DesignKind::TimingControl, SizePreset::Tiny, 7);
    let xcn = XcNormalizer::fit(&[&d.graph]);
    let model = CircuitGps::new(default_model(PeKind::Dspd, 7));
    let all: Vec<(u32, u32)> = CandidatePairs::new(&d.graph, 0, 10_000).collect();
    assert!(
        all.len() == 10_000,
        "TIMING tiny should enumerate >=10k candidates, got {}",
        all.len()
    );
    let cfg = SweepConfig {
        task: SweepTask::Link,
        sampler: SamplerConfig {
            hops: 1,
            max_nodes: 2048,
        },
        chunk: 4096,
        threads: 1,
    };

    let mut group = c.benchmark_group("sweep_throughput");
    group.sample_size(10);
    for n in [100usize, 1000, 10_000] {
        let pairs = &all[..n];
        group.bench_function(format!("amortized_pairs/{n}"), |b| {
            b.iter(|| {
                let mut acc = 0f32;
                let mut emit = |_: &[(u32, u32)], vs: &[f32]| {
                    acc += vs.iter().sum::<f32>();
                    true
                };
                let stats = sweep_pairs(
                    &model,
                    &xcn,
                    &d.graph,
                    pairs.iter().copied(),
                    &cfg,
                    &mut emit,
                );
                std::hint::black_box((acc, stats.pairs))
            })
        });
    }
    group.finish();
}

/// Grammar-enumerator throughput driver: how fast the composition
/// grammar turns into training data. `enumerate_terms` measures pure
/// enumeration (designs/sec over the default CLI window); the
/// `build_extract` tiers measure one design's full build + parasitic
/// extraction at three device-count scales, so nodes/sec is
/// `devices / ns_per_iter` and regressions in either the builder or the
/// extractor's spatial scans show up at the tier where they bite.
pub fn datagen_enumerate_suite(c: &mut Criterion) {
    use ams_datagen::enumerate::{build_term, enumerate_terms, term_extract_seed};
    use ams_datagen::{extract_parasitics, ExtractConfig};

    let mut group = c.benchmark_group("datagen_enumerate");
    group.sample_size(10);

    group.bench_function("enumerate_terms/4000", |b| {
        b.iter(|| std::hint::black_box(enumerate_terms(None, 0, 4000).len()))
    });

    for (label, lo, hi) in [
        ("1k", 900u64, 1_100),
        ("10k", 9_000, 11_000),
        ("100k", 90_000, 120_000),
    ] {
        let terms = enumerate_terms(None, lo, hi);
        let term = terms
            .first()
            .unwrap_or_else(|| panic!("no terms in window [{lo}, {hi}]"))
            .clone();
        let cfg = ExtractConfig {
            seed: term_extract_seed(7, &term),
            ..ExtractConfig::default()
        };
        group.bench_function(format!("build_extract/{label}"), |b| {
            b.iter(|| {
                let d = build_term(&term, 7).expect("enumerated term must build");
                let spf = extract_parasitics(&d, &cfg);
                std::hint::black_box((d.netlist.num_devices(), spf.len()))
            })
        });
    }
    group.finish();
}

/// Table IV driver: enclosing-subgraph sampling throughput (the paper's
/// sampling step is the dataset-construction bottleneck at scale).
pub fn sampling_suite(c: &mut Criterion) {
    let mut group = c.benchmark_group("table4_subgraph_sampling");
    for kind in [DesignKind::TimingControl, DesignKind::Array128x32] {
        let d = DesignData::load(kind, SizePreset::Tiny, 7);
        // Pick pin/net pairs spread over the graph.
        let n = d.graph.num_nodes() as u32;
        let pairs: Vec<(u32, u32)> = (0..64)
            .map(|i| ((i * 37) % n, (i * 61 + 13) % n))
            .filter(|(a, b)| a != b)
            .collect();
        group.bench_with_input(
            BenchmarkId::new("one_hop_pairs", kind.paper_name()),
            &d,
            |b, d| {
                let mut sampler = SubgraphSampler::new(
                    &d.graph,
                    SamplerConfig {
                        hops: 1,
                        max_nodes: 2048,
                    },
                );
                b.iter(|| {
                    for &(x, y) in &pairs {
                        std::hint::black_box(sampler.enclosing_subgraph(x, y));
                    }
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("two_hop_nodes", kind.paper_name()),
            &d,
            |b, d| {
                let mut sampler = SubgraphSampler::new(
                    &d.graph,
                    SamplerConfig {
                        hops: 2,
                        max_nodes: 2048,
                    },
                );
                b.iter(|| {
                    for &(x, _) in &pairs {
                        std::hint::black_box(sampler.node_subgraph(x));
                    }
                })
            },
        );
    }
    group.finish();
}

/// Tables V/VI/VIII driver: end-to-end per-link inference latency
/// (sample → PE → model forward), the number that governs how fast a
/// trained CircuitGPS screens coupling candidates on a new design.
pub fn full_pipeline_suite(c: &mut Criterion) {
    let d = DesignData::load(DesignKind::TimingControl, SizePreset::Tiny, 7);
    let ds = d.link_dataset(&DatasetConfig {
        max_per_type: 30,
        ..Default::default()
    });
    let xcn = XcNormalizer::fit(&[&d.graph]);
    let cap = CapNormalizer::paper_range();
    let samples = prepare_link_dataset(&ds, PeKind::Dspd, &xcn, |v| cap.encode(v));
    let model = CircuitGps::new(default_model(PeKind::Dspd, 7));

    let mut group = c.benchmark_group("table5_inference");
    group.bench_function("predict_link_per_sample", |b| {
        let mut i = 0;
        b.iter(|| {
            let s = &samples[i % samples.len()];
            i += 1;
            std::hint::black_box(model.predict_link(s))
        })
    });
    // Tape-free batched engine (block-diagonal attention). One iteration
    // predicts `bs` samples, so per-sample time is `ns_per_iter / bs`.
    // Batches are rotating windows over the dataset so the sample mix
    // matches the per-sample benchmarks above.
    let windows = |bs: usize| -> Vec<Vec<&PreparedSample>> {
        (0..samples.len())
            .map(|start| {
                (0..bs)
                    .map(|j| &samples[(start + j) % samples.len()])
                    .collect()
            })
            .collect()
    };
    for bs in [1usize, 8, 32] {
        let batches = windows(bs);
        group.bench_function(format!("predict_link_batched/{bs}"), |b| {
            let mut i = 0;
            b.iter(|| {
                let batch = &batches[i % batches.len()];
                i += 1;
                std::hint::black_box(model.predict_link_batch(batch))
            })
        });
    }
    {
        let batches = windows(32);
        group.bench_function("predict_reg_batched/32", |b| {
            let mut i = 0;
            b.iter(|| {
                let batch = &batches[i % batches.len()];
                i += 1;
                std::hint::black_box(model.predict_reg_batch(batch))
            })
        });
    }
    group.bench_function("predict_reg_per_sample", |b| {
        let mut i = 0;
        b.iter(|| {
            let s = &samples[i % samples.len()];
            i += 1;
            std::hint::black_box(model.predict_reg(s))
        })
    });
    group.bench_function("sample_pe_predict_end_to_end", |b| {
        let pairs: Vec<(u32, u32)> = ds
            .samples
            .iter()
            .map(|s| (s.link.a, s.link.b))
            .take(16)
            .collect();
        let mut sampler = SubgraphSampler::new(
            &d.graph,
            SamplerConfig {
                hops: 1,
                max_nodes: 2048,
            },
        );
        let mut i = 0;
        b.iter(|| {
            let (a, bb) = pairs[i % pairs.len()];
            i += 1;
            let sub = sampler.enclosing_subgraph(a, bb);
            let _pe = compute_pe(&sub, PeKind::Dspd);
            let prepared = PreparedSample::new(sub, PeKind::Dspd, &xcn, 1.0, 0.0);
            std::hint::black_box(model.predict_link(&prepared))
        })
    });
    group.finish();
}

/// Per-backend microkernel sweep: the hot GEMM widths and the
/// elementwise sweeps, each timed on every backend
/// this CPU can execute (scalar always, AVX2/AVX-512 where the feature
/// probes pass). Bench ids carry the backend (`gemm_n32/avx2`), so a
/// trajectory file shows the dispatch win directly and a regression in
/// either path is attributable.
pub fn simd_kernels_suite(c: &mut Criterion) {
    use cirgps_nn::{Backend, Tensor};

    const M: usize = 64;
    const K: usize = 128;
    let fill = |len: usize, seed: u64| -> Vec<f32> {
        (0..len)
            .map(|i| ((i as u64).wrapping_mul(seed * 2 + 1) % 97) as f32 * 0.04 - 1.9)
            .collect()
    };
    let backends: Vec<Backend> = Backend::ALL
        .iter()
        .copied()
        .filter(|b| b.available())
        .collect();

    let mut group = c.benchmark_group("simd_kernels");
    group.sample_size(10);
    for &backend in &backends {
        let kn = backend.kernels();
        for n in [8usize, 32, 64] {
            let a = fill(M * K, 7);
            let b_mat = fill(K * n, 11);
            group.bench_function(format!("gemm_n{n}/{backend}"), |b| {
                let mut out = vec![0.0f32; M * n];
                b.iter(|| {
                    out.iter_mut().for_each(|v| *v = 0.0);
                    kn.gemm(&a, &b_mat, &mut out, M, K, n);
                    std::hint::black_box(&out);
                })
            });
        }
        let xs = fill(4096, 13);
        group.bench_function(format!("sigmoid_sweep_4k/{backend}"), |b| {
            let mut buf = xs.clone();
            b.iter(|| {
                buf.copy_from_slice(&xs);
                kn.sigmoid_sweep(&mut buf);
                std::hint::black_box(&buf);
            })
        });
        let x = Tensor::from_vec(256, 64, fill(256 * 64, 17));
        group.bench_function(format!("softmax_rows_256x64/{backend}"), |b| {
            b.iter(|| std::hint::black_box(kn.softmax_rows(&x, 0.125)))
        });
    }
    group.finish();
}

/// Inference over int8-rounded weights (`--quantize`) vs the unrounded
/// f32 model, through the full batched tape-free engine. Both run the
/// same f32 kernels, so the two rows should match. Same rotating batch
/// windows as
/// `table5_inference`, so `/f32` here is comparable to
/// `predict_link_batched/32` there.
pub fn quantized_infer_suite(c: &mut Criterion) {
    let d = DesignData::load(DesignKind::TimingControl, SizePreset::Tiny, 7);
    let ds = d.link_dataset(&DatasetConfig {
        max_per_type: 30,
        ..Default::default()
    });
    let xcn = XcNormalizer::fit(&[&d.graph]);
    let cap = CapNormalizer::paper_range();
    let samples = prepare_link_dataset(&ds, PeKind::Dspd, &xcn, |v| cap.encode(v));
    let windows: Vec<Vec<&PreparedSample>> = (0..samples.len())
        .map(|start| {
            (0..32)
                .map(|j| &samples[(start + j) % samples.len()])
                .collect()
        })
        .collect();

    let mut group = c.benchmark_group("quantized_infer");
    group.sample_size(10);
    for int8 in [false, true] {
        let mut model = CircuitGps::new(default_model(PeKind::Dspd, 7));
        if int8 {
            assert!(model.store_mut().quantize_int8() > 0);
        }
        let label = if int8 { "int8" } else { "f32" };
        group.bench_function(format!("predict_link_batched32/{label}"), |b| {
            let mut i = 0;
            b.iter(|| {
                let batch = &windows[i % windows.len()];
                i += 1;
                std::hint::black_box(model.predict_link_batch(batch))
            })
        });
    }
    group.finish();
}
