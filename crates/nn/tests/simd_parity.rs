//! Cross-backend parity matrix for the SIMD dispatch layer.
//!
//! The repo-wide bitwise-parity contract (`predict == sweep == serve`,
//! taped == tape-free) only holds if every dispatched kernel returns
//! *identical bits* on every backend the dispatcher can pick. These
//! proptests pin that contract at the kernel level: for each microkernel
//! width (N ∈ {8, 16, 32, 64}), each generic/ragged shape (including
//! single-row and empty), and each fused inference op, the scalar
//! reference and every SIMD backend available on this CPU must agree
//! exactly. Int8 weight rounding (`--quantize`) gets an analytic
//! divergence bound against full-precision f32.
//!
//! On hardware without AVX2/AVX-512 the `backends()` list degenerates to
//! `[Scalar]` and the tests check self-consistency only; CI runs the
//! matrix on AVX2 hosts (see `.github/workflows/ci.yml`).

use cirgps_nn::{Backend, QuantMatrix, Tensor};
use proptest::prelude::*;

/// Every backend this CPU can execute, scalar always included.
fn backends() -> Vec<Backend> {
    Backend::ALL
        .iter()
        .copied()
        .filter(|b| b.available())
        .collect()
}

/// Deterministic pseudo-random fill in roughly [-1.9, 1.9].
fn fill(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| ((i as u64).wrapping_mul(seed.wrapping_mul(2) + 1) % 97) as f32 * 0.04 - 1.9)
        .collect()
}

fn tensor(rows: usize, cols: usize, seed: u64) -> Tensor {
    Tensor::from_vec(rows, cols, fill(rows * cols, seed))
}

/// Asserts two f32 slices are bitwise identical (stricter than `==`:
/// distinguishes -0.0 from 0.0 and would catch NaN-vs-NaN).
fn assert_bitwise(label: &str, backend: Backend, scalar: &[f32], simd: &[f32]) {
    assert_eq!(scalar.len(), simd.len(), "{label}: length vs {backend}");
    for (i, (a, b)) in scalar.iter().zip(simd).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{label}[{i}]: scalar {a} != {backend} {b}"
        );
    }
}

/// Shapes covering the microkernel widths, ragged tails, single-row
/// activations (the serve singleton path) and empty batches.
fn gemm_shapes() -> impl Strategy<Value = (usize, usize, usize)> {
    prop_oneof![
        // The fixed-width microkernels the dispatcher specializes.
        (1usize..6, 1usize..48, Just(8usize)),
        (1usize..6, 1usize..48, Just(16usize)),
        (1usize..6, 1usize..48, Just(32usize)),
        (1usize..6, 1usize..48, Just(64usize)),
        // Ragged widths around the 8/16-lane boundaries.
        (1usize..6, 1usize..32, 1usize..20),
        // Single row and empty batch.
        Just((1usize, 9usize, 24usize)),
        Just((0usize, 5usize, 8usize)),
        Just((3usize, 1usize, 1usize)),
    ]
}

proptest! {
    #[test]
    fn gemm_family_is_bitwise_equal_across_backends(
        (m, k, n) in gemm_shapes(),
        seed in 0u64..500,
    ) {
        let a = fill(m * k, seed);
        let b = fill(k * n, seed ^ 0x9e37);
        for backend in backends() {
            let mut scalar = vec![0.0f32; m * n];
            let mut simd = vec![0.0f32; m * n];
            Backend::Scalar.kernels().gemm(&a, &b, &mut scalar, m, k, n);
            backend.kernels().gemm(&a, &b, &mut simd, m, k, n);
            assert_bitwise("gemm", backend, &scalar, &simd);

            // aᵀ·b: a stored k×m.
            let at = fill(k * m, seed ^ 0x1111);
            let mut scalar = vec![0.0f32; m * n];
            let mut simd = vec![0.0f32; m * n];
            Backend::Scalar.kernels().gemm_atb(&at, &b, &mut scalar, m, k, n);
            backend.kernels().gemm_atb(&at, &b, &mut simd, m, k, n);
            assert_bitwise("gemm_atb", backend, &scalar, &simd);

            // a·bᵀ: b stored n×k.
            let bt = fill(n * k, seed ^ 0x2222);
            let mut scalar = vec![0.0f32; m * n];
            let mut simd = vec![0.0f32; m * n];
            Backend::Scalar.kernels().gemm_abt(&a, &bt, &mut scalar, m, k, n);
            backend.kernels().gemm_abt(&a, &bt, &mut simd, m, k, n);
            assert_bitwise("gemm_abt", backend, &scalar, &simd);
        }
    }

    #[test]
    fn rounded_weight_gemm_divergence_from_f32_is_analytically_bounded(
        (m, k, n) in (1usize..5, 1usize..24, 1usize..40),
        seed in 0u64..500,
    ) {
        // Per-weight rounding error is at most scale/2, so element (i, j)
        // of the output diverges from full precision by at most
        // Σ_p |a[i,p]| · scale/2 (plus f32 accumulation noise).
        let w = tensor(k, n, seed ^ 0x55cc);
        let q = QuantMatrix::quantize(&w);
        let a = fill(m * k, seed);

        let mut exact = vec![0.0f32; m * n];
        Backend::Scalar.kernels().gemm(&a, w.as_slice(), &mut exact, m, k, n);
        let mut rounded = vec![0.0f32; m * n];
        Backend::Scalar.kernels().gemm(&a, q.dequantize().as_slice(), &mut rounded, m, k, n);

        for i in 0..m {
            let row_l1: f32 = a[i * k..(i + 1) * k].iter().map(|v| v.abs()).sum();
            let bound = row_l1 * q.max_weight_error() + 1e-5 * (1.0 + k as f32);
            for j in 0..n {
                let d = (exact[i * n + j] - rounded[i * n + j]).abs();
                prop_assert!(
                    d <= bound,
                    "({i},{j}): diverged {d} > bound {bound} (scale {})",
                    q.scale()
                );
            }
        }
    }

    #[test]
    fn reductions_and_sweeps_are_bitwise_equal_across_backends(
        len in 0usize..200,
        seed in 0u64..500,
    ) {
        let x = fill(len, seed);
        let y = fill(len, seed ^ 0x3c3c);
        for backend in backends() {
            assert_eq!(
                Backend::Scalar.kernels().dot(&x, &y).to_bits(),
                backend.kernels().dot(&x, &y).to_bits(),
                "dot vs {backend}"
            );
            assert_eq!(
                Backend::Scalar.kernels().laned_sum(&x).to_bits(),
                backend.kernels().laned_sum(&x).to_bits(),
                "laned_sum vs {backend}"
            );

            let mut s = x.clone();
            let mut v = x.clone();
            Backend::Scalar.kernels().relu_sweep(&mut s);
            backend.kernels().relu_sweep(&mut v);
            assert_bitwise("relu_sweep", backend, &s, &v);

            let mut s = x.clone();
            let mut v = x.clone();
            Backend::Scalar.kernels().exp_sweep(&mut s);
            backend.kernels().exp_sweep(&mut v);
            assert_bitwise("exp_sweep", backend, &s, &v);

            let mut s = x.clone();
            let mut v = x.clone();
            Backend::Scalar.kernels().sigmoid_sweep(&mut s);
            backend.kernels().sigmoid_sweep(&mut v);
            assert_bitwise("sigmoid_sweep", backend, &s, &v);

            let mut s = x.clone();
            let mut v = x.clone();
            Backend::Scalar.kernels().scale_sweep(&mut s, 0.37);
            backend.kernels().scale_sweep(&mut v, 0.37);
            assert_bitwise("scale_sweep", backend, &s, &v);
        }
    }

    #[test]
    fn softmax_and_batch_norm_fusions_are_bitwise_equal_across_backends(
        (rows, cols) in (1usize..8, 1usize..40),
        seed in 0u64..500,
    ) {
        let x = tensor(rows, cols, seed);
        let residual = tensor(rows, cols, seed ^ 0x1357);
        let b2 = tensor(rows, cols, seed ^ 0x2468);
        let gamma = tensor(1, cols, seed ^ 0xaaaa);
        let beta = tensor(1, cols, seed ^ 0xbbbb);
        let mean = tensor(1, cols, seed ^ 0xcccc);
        // Variances must be non-negative.
        let var = Tensor::from_vec(
            1,
            cols,
            fill(cols, seed ^ 0xdddd).iter().map(|v| v.abs()).collect(),
        );
        let eps = 1e-5;

        for backend in backends() {
            let s = Backend::Scalar.kernels().softmax_rows(&x, 0.5);
            let v = backend.kernels().softmax_rows(&x, 0.5);
            assert_bitwise("softmax_rows", backend, s.as_slice(), v.as_slice());

            let s = Backend::Scalar.kernels().batch_norm(&x, &gamma, &beta, eps, &mean, &var);
            let v = backend.kernels().batch_norm(&x, &gamma, &beta, eps, &mean, &var);
            assert_bitwise("batch_norm", backend, s.as_slice(), v.as_slice());

            let s = Backend::Scalar.kernels().batch_norm_relu_add(&x, &gamma, &beta, eps, &mean, &var, &residual,
            );
            let v = backend.kernels().batch_norm_relu_add(&x, &gamma, &beta, eps, &mean, &var, &residual,
            );
            assert_bitwise("batch_norm_relu_add", backend, s.as_slice(), v.as_slice());

            let s = Backend::Scalar.kernels().batch_norm_of_sum(&x, &b2, &gamma, &beta, eps, &mean, &var);
            let v = backend.kernels().batch_norm_of_sum(&x, &b2, &gamma, &beta, eps, &mean, &var);
            assert_bitwise("batch_norm_of_sum", backend, s.as_slice(), v.as_slice());
        }
    }

    #[test]
    fn gated_scatter_and_add_div_are_bitwise_equal_across_backends(
        (nodes, cols, edges) in (1usize..10, 1usize..24, 0usize..30),
        seed in 0u64..500,
    ) {
        let bx = tensor(nodes, cols, seed);
        let e_hat = tensor(edges, cols, seed ^ 0x4141);
        let src: Vec<usize> = (0..edges)
            .map(|i| (i.wrapping_mul(7) ^ seed as usize) % nodes)
            .collect();
        let dst: Vec<usize> = (0..edges)
            .map(|i| (i.wrapping_mul(13) ^ (seed as usize >> 3)) % nodes)
            .collect();

        let (num_s, den_s) = Backend::Scalar.kernels().gated_scatter(&e_hat, &bx, &src, &dst, nodes);
        for backend in backends() {
            let (num_v, den_v) = backend.kernels().gated_scatter(&e_hat, &bx, &src, &dst, nodes);
            assert_bitwise("gated_scatter num", backend, num_s.as_slice(), num_v.as_slice());
            assert_bitwise("gated_scatter den", backend, den_s.as_slice(), den_v.as_slice());

            let ax = tensor(nodes, cols, seed ^ 0x8888);
            let s = Backend::Scalar.kernels().add_div(ax.clone(), &num_s, &den_s, 1e-6);
            let v = backend.kernels().add_div(ax, &num_s, &den_s, 1e-6);
            assert_bitwise("add_div", backend, s.as_slice(), v.as_slice());
        }
    }

    #[test]
    fn performer_feature_map_is_bitwise_equal_across_backends(
        (rows, dim, features) in (1usize..8, 1usize..16, 1usize..24),
        seed in 0u64..500,
    ) {
        let xs = tensor(rows, dim, seed);
        let omega_t = tensor(dim, features, seed ^ 0x6e6e);
        let s = Backend::Scalar.kernels().performer_feature_map(&xs, &omega_t, features);
        for backend in backends() {
            let v = backend.kernels().performer_feature_map(&xs, &omega_t, features);
            assert_bitwise("performer_feature_map", backend, s.as_slice(), v.as_slice());
        }
    }
}

/// FNV-1a over bytes; the quant-blob golden below is a hex digest of
/// this (same convention as `tests/datagen_golden.rs`).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The serialized quant blob is the payload of the checkpoint `quant`
/// section that older `--quantize` exports carry and the loader still
/// reads: its bytes must never drift. Golden digest committed here.
#[test]
fn quant_blob_bytes_are_golden_stable() {
    let w = tensor(5, 9, 42);
    let q = QuantMatrix::quantize(&w);
    let mut blob = Vec::new();
    cirgps_nn::quant::write_quant_blob(&mut blob, &[("enc.l0.w", &q), ("head.w", &q)])
        .expect("write blob");
    // Two snapshots of the same logical content must be byte-identical.
    let mut again = Vec::new();
    cirgps_nn::quant::write_quant_blob(&mut again, &[("enc.l0.w", &q), ("head.w", &q)])
        .expect("write blob");
    assert_eq!(
        blob, again,
        "quant blob serialization must be deterministic"
    );
    assert_eq!(
        format!("{:016x}", fnv1a(&blob)),
        "341814160a59d95d",
        "quant blob wire format drifted — if intentional, bump the \
         checkpoint version and update this digest"
    );
}

/// Env-forced backends and in-process comparisons must agree: whatever
/// `Backend::active()` latched, re-running a kernel through that
/// backend's explicit table reproduces the implicit path.
#[test]
fn active_backend_matches_explicit_dispatch() {
    let active = Backend::active();
    assert!(active.available(), "active backend must be executable");
    let a = tensor(3, 17, 7);
    let b = tensor(17, 24, 8);
    let implicit = a.matmul(&b);
    let mut explicit = vec![0.0f32; 3 * 24];
    active
        .kernels()
        .gemm(a.as_slice(), b.as_slice(), &mut explicit, 3, 17, 24);
    assert_bitwise(
        "matmul vs kernels().gemm",
        active,
        implicit.as_slice(),
        &explicit,
    );
}

// The table's public drivers check caller-supplied shapes and indices
// before any kernel runs.

#[test]
#[should_panic(expected = "a length")]
fn gemm_rejects_an_operand_whose_length_is_not_m_times_k() {
    let mut out = vec![0.0f32; 2 * 3];
    Backend::active()
        .kernels()
        .gemm(&fill(2 * 4 - 1, 1), &fill(4 * 3, 2), &mut out, 2, 4, 3);
}

#[test]
#[should_panic(expected = "dst index out of range")]
fn gated_scatter_rejects_a_dst_index_past_n_out() {
    let e_hat = tensor(2, 8, 3);
    let bx = tensor(3, 8, 4);
    let _ = Backend::active()
        .kernels()
        .gated_scatter(&e_hat, &bx, &[0, 1], &[1, 3], 3);
}

#[test]
#[should_panic(expected = "softmax scale must be positive")]
fn softmax_rows_rejects_a_non_positive_scale() {
    let _ = Backend::active()
        .kernels()
        .softmax_rows(&tensor(2, 5, 5), 0.0);
}
