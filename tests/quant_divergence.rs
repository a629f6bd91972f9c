//! End-to-end divergence bound for int8 weight-only quantization.
//!
//! `--quantize` rounds each weight matrix to its int8 grid; the
//! per-GEMM bound lives in `crates/nn/tests/simd_parity.rs`. This suite
//! checks the *model-level* contract over real enumerated grammar
//! designs: a model with rounded weights must stay close to full
//! precision on every candidate pair — close enough that link
//! classifications agree and regression outputs shift by less than the
//! label noise floor — while remaining bitwise-deterministic itself.

use std::sync::OnceLock;

use cirgps::datagen::enumerate::{build_term, enumerate_terms, term_extract_seed};
use cirgps::datagen::{extract_parasitics, ExtractConfig};
use cirgps::graph::{netlist_to_graph, CircuitGraph};
use cirgps::model::{CandidatePairs, CircuitGps, InferenceSession, ModelConfig};
use cirgps::sample::{SamplerConfig, XcNormalizer};

/// One corpus design: name, graph, and the candidate pairs a sweep
/// would score on it.
type Design = (String, CircuitGraph, Vec<(u32, u32)>);

/// A few grammar designs spread across the enumeration order. Built
/// once, shared by all tests.
fn corpus() -> &'static [Design] {
    static CORPUS: OnceLock<Vec<Design>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let terms = enumerate_terms(None, 100, 1800);
        assert!(terms.len() >= 4, "size window too narrow: {}", terms.len());
        let stride = (terms.len() / 4).max(1);
        terms
            .iter()
            .step_by(stride)
            .take(4)
            .map(|t| {
                let design = build_term(t, 7).expect("grammar term must build");
                // Parasitic extraction exercises the same path `gen` uses;
                // the graph alone drives inference here.
                let _ = extract_parasitics(
                    &design,
                    &ExtractConfig {
                        seed: term_extract_seed(7, t),
                        ..ExtractConfig::default()
                    },
                );
                let (graph, _map) = netlist_to_graph(&design.netlist);
                let pairs: Vec<(u32, u32)> = CandidatePairs::new(&graph, 2, 24).take(24).collect();
                (design.name.clone(), graph, pairs)
            })
            .collect()
    })
}

fn session(graph: &CircuitGraph, int8: bool) -> InferenceSession<'_> {
    // Deterministic init: both sessions start from identical weights, so
    // any divergence is attributable to weight rounding alone.
    let mut model = CircuitGps::new(ModelConfig::default());
    if int8 {
        assert!(
            model.store_mut().quantize_int8() > 0,
            "quantization must cover at least one weight tensor"
        );
    }
    let xcn = XcNormalizer::fit(&[graph]);
    InferenceSession::new(
        model,
        xcn,
        graph,
        SamplerConfig {
            hops: 1,
            max_nodes: 2048,
        },
    )
}

#[test]
fn quantized_link_predictions_diverge_boundedly_on_grammar_designs() {
    for (name, graph, pairs) in corpus() {
        if pairs.is_empty() {
            continue;
        }
        let f32_preds = session(graph, false).predict_links(pairs);
        let int8_preds = session(graph, true).predict_links(pairs);
        assert_eq!(f32_preds.len(), int8_preds.len());
        for (i, (p, q)) in f32_preds.iter().zip(&int8_preds).enumerate() {
            assert!(
                p.is_finite() && (0.0..=1.0).contains(p),
                "{name}[{i}]: f32 {p}"
            );
            assert!(
                q.is_finite() && (0.0..=1.0).contains(q),
                "{name}[{i}]: int8 {q}"
            );
            // Weight rounding is ≤ scale/2 per tensor (≈0.4% relative);
            // through the 3-layer GPS stack and the sigmoid head that
            // stays well under the probability noise floor.
            let d = (p - q).abs();
            assert!(
                d <= 0.05,
                "{name} pair {i}: link probability diverged {d} (f32 {p}, int8 {q})"
            );
            // Confident calls must not flip class.
            if (p - 0.5).abs() > 0.1 {
                assert_eq!(
                    *p > 0.5,
                    *q > 0.5,
                    "{name} pair {i}: confident classification flipped (f32 {p}, int8 {q})"
                );
            }
        }
    }
}

#[test]
fn quantized_regression_predictions_diverge_boundedly_on_grammar_designs() {
    for (name, graph, pairs) in corpus() {
        if pairs.is_empty() {
            continue;
        }
        let f32_preds = session(graph, false).predict_couplings(pairs);
        let int8_preds = session(graph, true).predict_couplings(pairs);
        for (i, (p, q)) in f32_preds.iter().zip(&int8_preds).enumerate() {
            assert!(p.is_finite(), "{name}[{i}]: f32 {p}");
            assert!(q.is_finite(), "{name}[{i}]: int8 {q}");
            // Normalized-scale regression outputs; 0.05 is far below the
            // model's own eval MAE on any design.
            let d = (p - q).abs();
            assert!(
                d <= 0.05,
                "{name} pair {i}: regression diverged {d} (f32 {p}, int8 {q})"
            );
        }
    }
}

#[test]
fn quantized_inference_is_bitwise_deterministic() {
    // Repeated runs (fresh sessions, fresh rounding of identical
    // weights) must agree bitwise, the same reproducibility bar every
    // f32 model holds.
    let (_, graph, pairs) = &corpus()[0];
    let a = session(graph, true).predict_links(pairs);
    let b = session(graph, true).predict_links(pairs);
    let a_bits: Vec<u32> = a.iter().map(|v| v.to_bits()).collect();
    let b_bits: Vec<u32> = b.iter().map(|v| v.to_bits()).collect();
    assert_eq!(a_bits, b_bits);
}
