//! Runtime-dispatched SIMD backends, as one kernel table per backend.
//!
//! The release binary is not compiled with `-C target-cpu=native`.
//! Instead every hot kernel exists here once per backend: a portable
//! scalar version (`scalar`) and explicit `std::arch` versions for
//! AVX2+FMA (`avx2`) and AVX-512F (`avx512`). Each backend's kernels
//! form one static [`Kernels`] table of safe function pointers:
//!
//! * the row GEMM (fixed-width microkernels plus the generic blocked
//!   loop) and the `aᵀ · b` band kernel;
//! * the 8-lane `dot` / `laned_sum` reductions;
//! * the relu / exp / sigmoid / scale sweeps;
//! * the softmax-exp, Performer feature-map, batch-norm, BN-of-sum,
//!   `add_div` and gated-edge row kernels.
//!
//! [`Backend::kernels`] is the only way to obtain a table, and it checks
//! the CPU probe first, so the `unsafe` calls into `#[target_feature]`
//! code stay inside this module. The process-wide table is chosen
//! **once** ([`Kernels::active`]). The drivers in `tensor` and `infer`
//! (GEMM banding, softmax, batch norm, gated aggregation, …) are
//! methods on [`Kernels`]: each exists once and calls its table's
//! entries, whatever the backend.
//!
//! # Bitwise parity contract
//!
//! Every SIMD kernel is **bitwise-equal** to its scalar counterpart, not
//! merely close. This works because the scalar kernels were already
//! written with vectorization in mind:
//!
//! * GEMM accumulation chains are per-output-element (column `j` of a
//!   row never mixes with column `j+1`), so vectorizing **across
//!   columns** with per-lane FMA preserves the exact sequential k-order
//!   of every element's chain. Scalar `f32::mul_add` and `vfmaddps` are
//!   both correctly-rounded fused multiply-adds, hence identical.
//! * `fast_exp` and the fused row kernels are pure elementwise dataflow
//!   (no cross-lane reduction), transcribed op for op: where the scalar
//!   source uses separate `*`/`+`, the SIMD kernel uses `mul_ps`/`add_ps`
//!   — never a contracting FMA.
//! * Order-sensitive reductions (softmax row sums, row-max folds) stay
//!   scalar in the drivers on every backend; only the elementwise passes
//!   are table entries.
//! * The `dot`/`laned_sum` kernels keep their fixed 8-lane reduction
//!   tree on every backend (AVX-512 reuses the 8-lane kernel), so the
//!   summation order never depends on the vector width.
//!
//! The cross-backend parity test matrix (`crates/nn/tests/simd_parity.rs`
//! plus this module's unit tests) enforces the contract for every
//! microkernel width and fused op, including ragged shapes.
//!
//! # Selecting a backend
//!
//! * Default: best available, probed once (`Avx512` → `Avx2` → `Scalar`).
//! * `CIRGPS_FORCE_BACKEND=scalar|avx2|avx512` forces one for the whole
//!   process (the only override); an unavailable forced backend
//!   **panics** at first kernel use rather than silently falling back
//!   (CI relies on this to keep its matrix legs honest).
//!
//! See `docs/simd-quant.md` for the dispatch table and measurements.

use std::sync::OnceLock;

/// Which kernel table a process uses. Selected once, used by every
/// subsequent tensor/infer kernel call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar kernels (the reference semantics). `f32::mul_add`
    /// lowers to a correctly-rounded libm call on CPUs without FMA, so
    /// results are identical everywhere — only speed differs.
    Scalar,
    /// 8-lane AVX2 + FMA kernels.
    Avx2,
    /// 16-lane AVX-512F kernels for the wide GEMM microkernels; narrower
    /// and reduction-order-sensitive kernels reuse the AVX2 set (an
    /// AVX-512 machine always has AVX2+FMA).
    Avx512,
}

static ACTIVE: OnceLock<&'static Kernels> = OnceLock::new();

impl Backend {
    /// All backends, best-first (used by tests and probes).
    pub const ALL: [Backend; 3] = [Backend::Avx512, Backend::Avx2, Backend::Scalar];

    /// The backend's lowercase name (`scalar` / `avx2` / `avx512`), as
    /// accepted by [`Backend::parse`] and `CIRGPS_FORCE_BACKEND`.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Avx2 => "avx2",
            Backend::Avx512 => "avx512",
        }
    }

    /// Parses a backend name (the `CIRGPS_FORCE_BACKEND` vocabulary).
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted values on unknown input.
    pub fn parse(s: &str) -> Result<Backend, String> {
        match s.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(Backend::Scalar),
            "avx2" => Ok(Backend::Avx2),
            "avx512" => Ok(Backend::Avx512),
            other => Err(format!(
                "unknown backend {other:?} (expected scalar, avx2 or avx512)"
            )),
        }
    }

    /// Whether this CPU can run the backend's kernels.
    pub fn available(self) -> bool {
        match self {
            Backend::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma"),
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => {
                is_x86_feature_detected!("avx512f")
                    && is_x86_feature_detected!("avx2")
                    && is_x86_feature_detected!("fma")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// Best backend this CPU supports (ignores the env override).
    pub fn detect() -> Backend {
        *Backend::ALL
            .iter()
            .find(|b| b.available())
            .unwrap_or(&Backend::Scalar)
    }

    /// The process-wide backend: the one [`Kernels::active`] latched.
    ///
    /// # Panics
    ///
    /// As [`Kernels::active`].
    pub fn active() -> Backend {
        Kernels::active().backend
    }

    /// This backend's kernel table — the only way to obtain one. Tests
    /// and benches use it to run two backends side by side without
    /// touching the process-wide selection.
    ///
    /// # Panics
    ///
    /// Panics if this CPU cannot run the backend (a parity run must
    /// never silently compare a backend against itself).
    pub fn kernels(self) -> &'static Kernels {
        assert!(
            self.available(),
            "backend {self} is not available on this CPU"
        );
        match self {
            Backend::Scalar => &SCALAR,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx2 => &AVX2,
            #[cfg(target_arch = "x86_64")]
            Backend::Avx512 => &AVX512,
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("only the scalar backend is available off x86-64"),
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// Signatures of the table's wider entries (see the field docs below).
type GemmRows = fn(&[f32], &[f32], &mut [f32], usize, usize, usize);
type AtbBand = fn(&[f32], &[f32], &mut [f32], usize, usize, usize, usize);
type BnRow = fn(&mut Vec<f32>, &[f32], Option<&[f32]>, &[f32], &[f32], &[f32], &[f32]);
type BnOfSumRow = fn(&mut Vec<f32>, &[f32], &[f32], &[f32], &[f32], &[f32], &[f32]);
type GatedEdge = fn(&[f32], &[f32], &mut [f32], &mut [f32]);

/// One backend's kernels, chosen together.
///
/// The entries are crate-private; the public surface is the driver
/// methods (`gemm`, `softmax_rows`, `batch_norm`, `gated_scatter`, …),
/// which check their operands' shapes and then run the same code on
/// every backend, calling the entries for the per-row work. Obtain a
/// table with [`Backend::kernels`] or [`Kernels::active`].
pub struct Kernels {
    backend: Backend,
    /// `out += a · b` for `a (m×k)`, `b (k×n)`, `out (m×n)`, `n ≠ 1`.
    pub(crate) gemm_rows: GemmRows,
    /// `out += aᵀ · b` for the band of output rows starting at `i0`
    /// (`a (k×m)`, `b (k×n)`; the band's length gives its row count).
    pub(crate) atb_band: AtbBand,
    /// Eight-lane dot product (one reduction tree on every backend).
    pub(crate) dot: fn(&[f32], &[f32]) -> f32,
    /// Eight-lane sum with the dot kernel's reduction tree.
    pub(crate) laned_sum: fn(&[f32]) -> f32,
    /// In-place `v = max(v, 0)` (`-0.0 → +0.0`, `NaN → 0.0`).
    pub(crate) relu_sweep: fn(&mut [f32]),
    /// In-place `v = fast_exp(v)`.
    pub(crate) exp_sweep: fn(&mut [f32]),
    /// In-place `v = stable_sigmoid(v)`.
    pub(crate) sigmoid_sweep: fn(&mut [f32]),
    /// In-place `v *= s`.
    pub(crate) scale_sweep: fn(&mut [f32], f32),
    /// Appends `fast_exp(v·scale − max)` for every `v` of the row.
    pub(crate) softmax_exp_row: fn(&mut Vec<f32>, &[f32], f32, f32),
    /// In-place Performer feature map `v = (fast_exp(v − half) + 1e-6)·inv`.
    pub(crate) feature_map_row: fn(&mut [f32], f32, f32),
    /// Appends the batch-norm row `((x−μ)·invstd)·γ + β` of `(out, x,
    /// res, μ, invstd, γ, β)`; with a residual row it appends
    /// `max(…, 0) + res` instead.
    pub(crate) bn_row: BnRow,
    /// Appends the row `(((a+b)−μ)·invstd)·γ + β` of `(out, a, b, μ,
    /// invstd, γ, β)`.
    pub(crate) bn_of_sum_row: BnOfSumRow,
    /// In-place `ax += num / (den + eps)`.
    pub(crate) add_div_sweep: fn(&mut [f32], &[f32], &[f32], f32),
    /// One gated edge `(ê, bx, num, den)`: `η = σ(ê)`, `num += η ⊙ bx`,
    /// `den += η`.
    pub(crate) gated_edge: GatedEdge,
}

impl std::fmt::Debug for Kernels {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Kernels({})", self.backend)
    }
}

impl Kernels {
    /// The process-wide table every model kernel runs on.
    ///
    /// First call wins: probes the CPU, honoring `CIRGPS_FORCE_BACKEND`
    /// if set, and latches that backend's table; later calls return it.
    ///
    /// # Panics
    ///
    /// Panics if `CIRGPS_FORCE_BACKEND` names an unknown backend or one
    /// this CPU cannot run — a forced backend must never silently
    /// degrade to another implementation.
    pub fn active() -> &'static Kernels {
        ACTIVE.get_or_init(|| {
            let backend = match std::env::var("CIRGPS_FORCE_BACKEND") {
                Ok(name) if !name.is_empty() => {
                    let b = Backend::parse(&name)
                        .unwrap_or_else(|e| panic!("CIRGPS_FORCE_BACKEND: {e}"));
                    assert!(
                        b.available(),
                        "CIRGPS_FORCE_BACKEND={b} but this CPU does not support it \
                         (refusing to silently fall back)"
                    );
                    b
                }
                _ => Backend::detect(),
            };
            backend.kernels()
        })
    }

    /// Eight-lane dot product (same reduction tree on every backend).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, x: &[f32], y: &[f32]) -> f32 {
        assert_eq!(x.len(), y.len(), "dot length mismatch");
        (self.dot)(x, y)
    }

    /// Eight-lane sum with the dot kernel's reduction tree: equals
    /// `dot(x, ones)` bitwise (multiplying by 1.0 is exact).
    pub fn laned_sum(&self, x: &[f32]) -> f32 {
        (self.laned_sum)(x)
    }

    /// In-place `v = max(v, 0)`.
    pub fn relu_sweep(&self, xs: &mut [f32]) {
        (self.relu_sweep)(xs)
    }

    /// In-place `v = fast_exp(v)`.
    pub fn exp_sweep(&self, xs: &mut [f32]) {
        (self.exp_sweep)(xs)
    }

    /// In-place stable sigmoid.
    pub fn sigmoid_sweep(&self, xs: &mut [f32]) {
        (self.sigmoid_sweep)(xs)
    }

    /// In-place `v *= s`.
    pub fn scale_sweep(&self, xs: &mut [f32], s: f32) {
        (self.scale_sweep)(xs, s)
    }
}

static SCALAR: Kernels = Kernels {
    backend: Backend::Scalar,
    gemm_rows: scalar::gemm_rows,
    atb_band: scalar::atb_band,
    dot: scalar::dot,
    laned_sum: scalar::laned_sum,
    relu_sweep: scalar::relu_sweep,
    exp_sweep: scalar::exp_sweep,
    sigmoid_sweep: scalar::sigmoid_sweep,
    scale_sweep: scalar::scale_sweep,
    softmax_exp_row: scalar::softmax_exp_row,
    feature_map_row: scalar::feature_map_row,
    bn_row: scalar::bn_row,
    bn_of_sum_row: scalar::bn_of_sum_row,
    add_div_sweep: scalar::add_div_sweep,
    gated_edge: scalar::gated_edge,
};

// SAFETY (every `unsafe` block in the two SIMD tables): a table is
// reachable only through `Backend::kernels`, which asserts the backend's
// CPU probe (AVX2 + FMA, plus AVX-512F for `AVX512`) before handing it
// out, and every `avx2`/`avx512` kernel bounds its memory accesses by
// its slice arguments — so the target features are the only contract.
#[cfg(target_arch = "x86_64")]
static AVX2: Kernels = Kernels {
    backend: Backend::Avx2,
    gemm_rows: |a, b, out, m, k, n| unsafe { avx2::gemm_rows(a, b, out, m, k, n) },
    atb_band: |a, b, oband, i0, m, k, n| unsafe { avx2::atb_band(a, b, oband, i0, m, k, n) },
    dot: |x, y| unsafe { avx2::dot(x, y) },
    laned_sum: |x| unsafe { avx2::laned_sum(x) },
    relu_sweep: |xs| unsafe { avx2::relu_sweep(xs) },
    exp_sweep: |xs| unsafe { avx2::exp_sweep(xs) },
    sigmoid_sweep: |xs| unsafe { avx2::sigmoid_sweep(xs) },
    scale_sweep: |xs, s| unsafe { avx2::scale_sweep(xs, s) },
    softmax_exp_row: |out, row, scale, max| unsafe { avx2::softmax_exp_row(out, row, scale, max) },
    feature_map_row: |xs, half, inv| unsafe { avx2::feature_map_row(xs, half, inv) },
    bn_row: |out, x, res, mean, invstd, gamma, beta| unsafe {
        avx2::bn_row(out, x, res, mean, invstd, gamma, beta)
    },
    bn_of_sum_row: |out, a, b, mean, invstd, gamma, beta| unsafe {
        avx2::bn_of_sum_row(out, a, b, mean, invstd, gamma, beta)
    },
    add_div_sweep: |ax, num, den, eps| unsafe { avx2::add_div_sweep(ax, num, den, eps) },
    gated_edge: |er, bxr, nr, dr| unsafe { avx2::gated_edge(er, bxr, nr, dr) },
};

/// The AVX2 table with the 16-lane GEMM microkernels.
#[cfg(target_arch = "x86_64")]
static AVX512: Kernels = Kernels {
    backend: Backend::Avx512,
    // SAFETY: as for `AVX2`; `Backend::kernels` also asserts AVX-512F.
    gemm_rows: |a, b, out, m, k, n| unsafe { avx512::gemm_rows(a, b, out, m, k, n) },
    ..AVX2
};

/// k-panel height for the blocked GEMM kernels. A `KC × n` panel of the
/// right-hand matrix stays cache-hot while every output row is updated,
/// without changing the per-element accumulation order (k stays
/// ascending), so blocked results are bitwise-equal to the naive i-k-j
/// loop.
const KC: usize = 128;

// ---------------------------------------------------------------------------
// Scalar kernels: the reference semantics every SIMD twin reproduces.
// ---------------------------------------------------------------------------

mod scalar {
    use super::KC;
    use crate::infer::stable_sigmoid;
    use crate::tensor::fast_exp;

    /// `out += a · b`, k-panelled so a `KC × n` slab of `b` stays
    /// cache-resident across all output rows, with the inner
    /// accumulation unrolled over four k-steps: the output row is
    /// streamed once per four B rows instead of once per row, which is
    /// what makes the small `d×d` model matmuls fast. Versus a naive
    /// i-k-j loop the 4-way grouping is tolerance-equal (different f32
    /// summation tree), not bitwise.
    pub(super) fn gemm_rows(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        // Register-blocked microkernels for the model's power-of-two
        // widths: the output row lives in a `[f32; N]` accumulator for
        // the whole k loop (one load, one store) instead of being
        // re-streamed every four k-steps. The k order, 4-way grouping and
        // panel boundaries are identical to the generic loop below, so
        // results stay bitwise-equal; the k ≤ 2·KC bound keeps the whole
        // `b` matrix L1/L2-resident.
        if k <= 2 * KC {
            match n {
                8 => return gemm_fixed::<8>(a, b, out, m, k),
                16 => return gemm_fixed::<16>(a, b, out, m, k),
                32 => return gemm_fixed::<32>(a, b, out, m, k),
                64 => return gemm_fixed::<64>(a, b, out, m, k),
                _ => {}
            }
        }
        for p0 in (0..k).step_by(KC) {
            let p1 = (p0 + KC).min(k);
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                let orow = &mut out[i * n..i * n + n];
                let mut p = p0;
                while p + 4 <= p1 {
                    let (a0, a1, a2, a3) = (arow[p], arow[p + 1], arow[p + 2], arow[p + 3]);
                    let b0 = &b[p * n..p * n + n];
                    let b1 = &b[(p + 1) * n..(p + 1) * n + n];
                    let b2 = &b[(p + 2) * n..(p + 2) * n + n];
                    let b3 = &b[(p + 3) * n..(p + 3) * n + n];
                    for ((((o, &v0), &v1), &v2), &v3) in
                        orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                    {
                        let t = a1.mul_add(v1, a0.mul_add(v0, *o));
                        *o = a3.mul_add(v3, a2.mul_add(v2, t));
                    }
                    p += 4;
                }
                while p < p1 {
                    let av = arow[p];
                    let brow = &b[p * n..p * n + n];
                    for (o, &bv) in orow.iter_mut().zip(brow) {
                        *o = av.mul_add(bv, *o);
                    }
                    p += 1;
                }
            }
        }
    }

    /// `out += a · b` for a compile-time column count `N`: each output
    /// row accumulates in registers across the whole (panelled,
    /// 4-unrolled) k loop. Same per-element accumulation order as the
    /// generic loop in [`gemm_rows`], hence bitwise-equal — just ~2×
    /// fewer loads/stores.
    fn gemm_fixed<const N: usize>(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize) {
        // Two output rows per pass: the four B rows of each k-group are
        // loaded once and feed both accumulators, roughly halving the load
        // traffic per FMA. Rows are independent, so per-row arithmetic (and
        // the single-row tail) is unchanged.
        let mut i = 0;
        while i + 2 <= m {
            let arow0 = &a[i * k..(i + 1) * k];
            let arow1 = &a[(i + 1) * k..(i + 2) * k];
            let mut acc0 = [0.0f32; N];
            let mut acc1 = [0.0f32; N];
            acc0.copy_from_slice(&out[i * N..(i + 1) * N]);
            acc1.copy_from_slice(&out[(i + 1) * N..(i + 2) * N]);
            for p0 in (0..k).step_by(KC) {
                let p1 = (p0 + KC).min(k);
                let mut p = p0;
                while p + 4 <= p1 {
                    let (x0, x1, x2, x3) = (arow0[p], arow0[p + 1], arow0[p + 2], arow0[p + 3]);
                    let (y0, y1, y2, y3) = (arow1[p], arow1[p + 1], arow1[p + 2], arow1[p + 3]);
                    let b0 = &b[p * N..p * N + N];
                    let b1 = &b[(p + 1) * N..(p + 1) * N + N];
                    let b2 = &b[(p + 2) * N..(p + 2) * N + N];
                    let b3 = &b[(p + 3) * N..(p + 3) * N + N];
                    for j in 0..N {
                        let t0 = x1.mul_add(b1[j], x0.mul_add(b0[j], acc0[j]));
                        acc0[j] = x3.mul_add(b3[j], x2.mul_add(b2[j], t0));
                        let t1 = y1.mul_add(b1[j], y0.mul_add(b0[j], acc1[j]));
                        acc1[j] = y3.mul_add(b3[j], y2.mul_add(b2[j], t1));
                    }
                    p += 4;
                }
                while p < p1 {
                    let xv = arow0[p];
                    let yv = arow1[p];
                    let brow = &b[p * N..p * N + N];
                    for j in 0..N {
                        acc0[j] = xv.mul_add(brow[j], acc0[j]);
                        acc1[j] = yv.mul_add(brow[j], acc1[j]);
                    }
                    p += 1;
                }
            }
            out[i * N..(i + 1) * N].copy_from_slice(&acc0);
            out[(i + 1) * N..(i + 2) * N].copy_from_slice(&acc1);
            i += 2;
        }
        if i < m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * N..(i + 1) * N];
            let mut acc = [0.0f32; N];
            acc.copy_from_slice(orow);
            for p0 in (0..k).step_by(KC) {
                let p1 = (p0 + KC).min(k);
                let mut p = p0;
                while p + 4 <= p1 {
                    let (a0, a1, a2, a3) = (arow[p], arow[p + 1], arow[p + 2], arow[p + 3]);
                    let b0 = &b[p * N..p * N + N];
                    let b1 = &b[(p + 1) * N..(p + 1) * N + N];
                    let b2 = &b[(p + 2) * N..(p + 2) * N + N];
                    let b3 = &b[(p + 3) * N..(p + 3) * N + N];
                    for j in 0..N {
                        let t = a1.mul_add(b1[j], a0.mul_add(b0[j], acc[j]));
                        acc[j] = a3.mul_add(b3[j], a2.mul_add(b2[j], t));
                    }
                    p += 4;
                }
                while p < p1 {
                    let av = arow[p];
                    let brow = &b[p * N..p * N + N];
                    for j in 0..N {
                        acc[j] = av.mul_add(brow[j], acc[j]);
                    }
                    p += 1;
                }
            }
            orow.copy_from_slice(&acc);
        }
    }

    /// `aᵀ · b` band: updates output rows `[i0, i0 + rows)` with the
    /// accumulation unrolled over four k-steps. The serial and parallel
    /// drivers share this kernel, so they stay bitwise-identical.
    pub(super) fn atb_band(
        a: &[f32],
        b: &[f32],
        oband: &mut [f32],
        i0: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        let rows = oband.len().checked_div(n).unwrap_or(0);
        let mut p = 0;
        while p + 4 <= k {
            let b0 = &b[p * n..p * n + n];
            let b1 = &b[(p + 1) * n..(p + 1) * n + n];
            let b2 = &b[(p + 2) * n..(p + 2) * n + n];
            let b3 = &b[(p + 3) * n..(p + 3) * n + n];
            for i in 0..rows {
                let a0 = a[p * m + i0 + i];
                let a1 = a[(p + 1) * m + i0 + i];
                let a2 = a[(p + 2) * m + i0 + i];
                let a3 = a[(p + 3) * m + i0 + i];
                let orow = &mut oband[i * n..i * n + n];
                for ((((o, &v0), &v1), &v2), &v3) in orow.iter_mut().zip(b0).zip(b1).zip(b2).zip(b3)
                {
                    let t = a1.mul_add(v1, a0.mul_add(v0, *o));
                    *o = a3.mul_add(v3, a2.mul_add(v2, t));
                }
            }
            p += 4;
        }
        while p < k {
            let brow = &b[p * n..p * n + n];
            for i in 0..rows {
                let av = a[p * m + i0 + i];
                let orow = &mut oband[i * n..i * n + n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o = av.mul_add(bv, *o);
                }
            }
            p += 1;
        }
    }

    /// Eight-lane unrolled dot product. The lane split breaks the serial
    /// floating-point dependency chain so this loop vectorizes; every
    /// backend keeps the same split and reduction tree.
    pub(super) fn dot(x: &[f32], y: &[f32]) -> f32 {
        let mut lanes = [0.0f32; 8];
        let mut xc = x.chunks_exact(8);
        let mut yc = y.chunks_exact(8);
        for (cx, cy) in (&mut xc).zip(&mut yc) {
            for l in 0..8 {
                lanes[l] = cx[l].mul_add(cy[l], lanes[l]);
            }
        }
        let mut tail = 0.0f32;
        for (&a, &b) in xc.remainder().iter().zip(yc.remainder()) {
            tail = a.mul_add(b, tail);
        }
        let s0 = (lanes[0] + lanes[4]) + (lanes[1] + lanes[5]);
        let s1 = (lanes[2] + lanes[6]) + (lanes[3] + lanes[7]);
        (s0 + s1) + tail
    }

    /// Eight-lane unrolled sum with exactly [`dot`]'s summation tree.
    pub(super) fn laned_sum(x: &[f32]) -> f32 {
        let mut lanes = [0.0f32; 8];
        let mut xc = x.chunks_exact(8);
        for cx in &mut xc {
            for l in 0..8 {
                lanes[l] += cx[l];
            }
        }
        let mut tail = 0.0f32;
        for &a in xc.remainder() {
            tail += a;
        }
        let s0 = (lanes[0] + lanes[4]) + (lanes[1] + lanes[5]);
        let s1 = (lanes[2] + lanes[6]) + (lanes[3] + lanes[7]);
        (s0 + s1) + tail
    }

    pub(super) fn relu_sweep(xs: &mut [f32]) {
        for v in xs {
            *v = v.max(0.0);
        }
    }

    pub(super) fn exp_sweep(xs: &mut [f32]) {
        for v in xs {
            *v = fast_exp(*v);
        }
    }

    pub(super) fn sigmoid_sweep(xs: &mut [f32]) {
        for v in xs {
            *v = stable_sigmoid(*v);
        }
    }

    pub(super) fn scale_sweep(xs: &mut [f32], s: f32) {
        for v in xs {
            *v *= s;
        }
    }

    pub(super) fn softmax_exp_row(out: &mut Vec<f32>, row: &[f32], scale: f32, max: f32) {
        out.extend(row.iter().map(|&v| fast_exp(v * scale - max)));
    }

    pub(super) fn feature_map_row(xs: &mut [f32], half: f32, inv: f32) {
        for v in xs {
            *v = (fast_exp(*v - half) + 1e-6) * inv;
        }
    }

    pub(super) fn bn_row(
        out: &mut Vec<f32>,
        x: &[f32],
        res: Option<&[f32]>,
        mean: &[f32],
        invstd: &[f32],
        gamma: &[f32],
        beta: &[f32],
    ) {
        let bn = x
            .iter()
            .zip(mean)
            .zip(invstd)
            .zip(gamma)
            .zip(beta)
            .map(|((((&xv, &mu), &is), &g), &b)| ((xv - mu) * is) * g + b);
        match res {
            Some(res) => out.extend(bn.zip(res).map(|(t, &rv)| t.max(0.0) + rv)),
            None => out.extend(bn),
        }
    }

    pub(super) fn bn_of_sum_row(
        out: &mut Vec<f32>,
        a: &[f32],
        b: &[f32],
        mean: &[f32],
        invstd: &[f32],
        gamma: &[f32],
        beta: &[f32],
    ) {
        out.extend(
            a.iter()
                .zip(b)
                .zip(mean)
                .zip(invstd)
                .zip(gamma)
                .zip(beta)
                .map(|(((((&av, &bv), &mu), &is), &g), &bb)| (((av + bv) - mu) * is) * g + bb),
        );
    }

    pub(super) fn add_div_sweep(ax: &mut [f32], num: &[f32], den: &[f32], eps: f32) {
        for ((a, &n), &d) in ax.iter_mut().zip(num).zip(den) {
            *a += n / (d + eps);
        }
    }

    pub(super) fn gated_edge(er: &[f32], bxr: &[f32], nr: &mut [f32], dr: &mut [f32]) {
        for (((&e, &bv), n), d) in er.iter().zip(bxr).zip(nr).zip(dr) {
            let g = stable_sigmoid(e);
            *n += g * bv;
            *d += g;
        }
    }
}

// ---------------------------------------------------------------------------
// AVX2 + FMA kernels (8 lanes).
//
// Safety convention: every function in this module is `unsafe` only
// because of its `#[target_feature(enable = "avx2,fma")]`. Raw-pointer
// accesses are bounded by the slice lengths each kernel checks, so a
// call is sound whenever the CPU has AVX2 + FMA — which the `AVX2` and
// `AVX512` tables guarantee by being reachable only through
// `Backend::kernels`.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
// Register-accumulator arrays are indexed by vector lane on purpose: the
// `acc[v]` form mirrors the pointer arithmetic around it.
#[allow(clippy::needless_range_loop)]
mod avx2 {
    use std::arch::x86_64::*;

    /// `out += a · b`: the fixed-width microkernels cover the model's
    /// power-of-two widths at any k (a straight 4-unrolled k loop equals
    /// the KC-panelled scalar one because KC % 4 == 0); every other
    /// width runs the vectorized generic AXPY loop.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gemm_rows(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        match n {
            8 => gemm_fixed::<8>(a, b, out, m, k),
            16 => gemm_fixed::<16>(a, b, out, m, k),
            32 => gemm_fixed::<32>(a, b, out, m, k),
            64 => gemm_fixed::<64>(a, b, out, m, k),
            _ => gemm_generic(a, b, out, m, k, n),
        }
    }

    /// `out += a · b` for compile-time width `N` (multiple of 8): the
    /// SIMD twin of `scalar::gemm_fixed`. Per-element k-order matches
    /// the scalar kernel: groups of four sequential FMAs, then single
    /// FMAs for the k tail.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemm_fixed<const N: usize>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
    ) {
        debug_assert_eq!(N % 8, 0);
        assert!(a.len() >= m * k && b.len() >= k * N && out.len() >= m * N);
        let nv = N / 8;
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        let mut i = 0;
        // Two output rows per pass while the accumulators fit the
        // register file (nv ≤ 4 ⇒ ≤ 8 live accumulators); rows are
        // independent so per-row arithmetic is unchanged.
        while nv <= 4 && i + 2 <= m {
            let ar0 = ap.add(i * k);
            let ar1 = ap.add((i + 1) * k);
            let o0 = op.add(i * N);
            let o1 = op.add((i + 1) * N);
            let mut acc0 = [_mm256_setzero_ps(); 4];
            let mut acc1 = [_mm256_setzero_ps(); 4];
            for v in 0..nv {
                acc0[v] = _mm256_loadu_ps(o0.add(v * 8));
                acc1[v] = _mm256_loadu_ps(o1.add(v * 8));
            }
            let mut p = 0;
            while p + 4 <= k {
                let x0 = _mm256_set1_ps(*ar0.add(p));
                let x1 = _mm256_set1_ps(*ar0.add(p + 1));
                let x2 = _mm256_set1_ps(*ar0.add(p + 2));
                let x3 = _mm256_set1_ps(*ar0.add(p + 3));
                let y0 = _mm256_set1_ps(*ar1.add(p));
                let y1 = _mm256_set1_ps(*ar1.add(p + 1));
                let y2 = _mm256_set1_ps(*ar1.add(p + 2));
                let y3 = _mm256_set1_ps(*ar1.add(p + 3));
                for v in 0..nv {
                    let b0 = _mm256_loadu_ps(bp.add(p * N + v * 8));
                    let b1 = _mm256_loadu_ps(bp.add((p + 1) * N + v * 8));
                    let b2 = _mm256_loadu_ps(bp.add((p + 2) * N + v * 8));
                    let b3 = _mm256_loadu_ps(bp.add((p + 3) * N + v * 8));
                    let t0 = _mm256_fmadd_ps(x1, b1, _mm256_fmadd_ps(x0, b0, acc0[v]));
                    acc0[v] = _mm256_fmadd_ps(x3, b3, _mm256_fmadd_ps(x2, b2, t0));
                    let t1 = _mm256_fmadd_ps(y1, b1, _mm256_fmadd_ps(y0, b0, acc1[v]));
                    acc1[v] = _mm256_fmadd_ps(y3, b3, _mm256_fmadd_ps(y2, b2, t1));
                }
                p += 4;
            }
            while p < k {
                let x = _mm256_set1_ps(*ar0.add(p));
                let y = _mm256_set1_ps(*ar1.add(p));
                for v in 0..nv {
                    let bv = _mm256_loadu_ps(bp.add(p * N + v * 8));
                    acc0[v] = _mm256_fmadd_ps(x, bv, acc0[v]);
                    acc1[v] = _mm256_fmadd_ps(y, bv, acc1[v]);
                }
                p += 1;
            }
            for v in 0..nv {
                _mm256_storeu_ps(o0.add(v * 8), acc0[v]);
                _mm256_storeu_ps(o1.add(v * 8), acc1[v]);
            }
            i += 2;
        }
        while i < m {
            let ar = ap.add(i * k);
            let o = op.add(i * N);
            let mut acc = [_mm256_setzero_ps(); 8];
            for v in 0..nv {
                acc[v] = _mm256_loadu_ps(o.add(v * 8));
            }
            let mut p = 0;
            while p + 4 <= k {
                let x0 = _mm256_set1_ps(*ar.add(p));
                let x1 = _mm256_set1_ps(*ar.add(p + 1));
                let x2 = _mm256_set1_ps(*ar.add(p + 2));
                let x3 = _mm256_set1_ps(*ar.add(p + 3));
                for v in 0..nv {
                    let b0 = _mm256_loadu_ps(bp.add(p * N + v * 8));
                    let b1 = _mm256_loadu_ps(bp.add((p + 1) * N + v * 8));
                    let b2 = _mm256_loadu_ps(bp.add((p + 2) * N + v * 8));
                    let b3 = _mm256_loadu_ps(bp.add((p + 3) * N + v * 8));
                    let t = _mm256_fmadd_ps(x1, b1, _mm256_fmadd_ps(x0, b0, acc[v]));
                    acc[v] = _mm256_fmadd_ps(x3, b3, _mm256_fmadd_ps(x2, b2, t));
                }
                p += 4;
            }
            while p < k {
                let x = _mm256_set1_ps(*ar.add(p));
                for v in 0..nv {
                    let bv = _mm256_loadu_ps(bp.add(p * N + v * 8));
                    acc[v] = _mm256_fmadd_ps(x, bv, acc[v]);
                }
                p += 1;
            }
            for v in 0..nv {
                _mm256_storeu_ps(o.add(v * 8), acc[v]);
            }
            i += 1;
        }
    }

    /// Generic `out += a · b` (any `n`): SIMD twin of the k-panelled
    /// AXPY loop in `scalar::gemm_rows`. The vector body and the scalar
    /// `mul_add` column tail use the same per-element chain.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn gemm_generic(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        assert!(b.len() >= k * n);
        let bp = b.as_ptr();
        let mut p0 = 0;
        while p0 < k {
            let p1 = (p0 + super::KC).min(k);
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                let orow = &mut out[i * n..i * n + n];
                let op = orow.as_mut_ptr();
                let mut p = p0;
                while p + 4 <= p1 {
                    let (a0, a1, a2, a3) = (arow[p], arow[p + 1], arow[p + 2], arow[p + 3]);
                    let va0 = _mm256_set1_ps(a0);
                    let va1 = _mm256_set1_ps(a1);
                    let va2 = _mm256_set1_ps(a2);
                    let va3 = _mm256_set1_ps(a3);
                    let b0 = bp.add(p * n);
                    let b1 = bp.add((p + 1) * n);
                    let b2 = bp.add((p + 2) * n);
                    let b3 = bp.add((p + 3) * n);
                    let mut j = 0;
                    while j + 8 <= n {
                        let o = _mm256_loadu_ps(op.add(j));
                        let t = _mm256_fmadd_ps(
                            va1,
                            _mm256_loadu_ps(b1.add(j)),
                            _mm256_fmadd_ps(va0, _mm256_loadu_ps(b0.add(j)), o),
                        );
                        let r = _mm256_fmadd_ps(
                            va3,
                            _mm256_loadu_ps(b3.add(j)),
                            _mm256_fmadd_ps(va2, _mm256_loadu_ps(b2.add(j)), t),
                        );
                        _mm256_storeu_ps(op.add(j), r);
                        j += 8;
                    }
                    while j < n {
                        let o = orow[j];
                        let t = a1.mul_add(*b1.add(j), a0.mul_add(*b0.add(j), o));
                        orow[j] = a3.mul_add(*b3.add(j), a2.mul_add(*b2.add(j), t));
                        j += 1;
                    }
                    p += 4;
                }
                while p < p1 {
                    let av = arow[p];
                    let va = _mm256_set1_ps(av);
                    let br = bp.add(p * n);
                    let mut j = 0;
                    while j + 8 <= n {
                        let o = _mm256_loadu_ps(op.add(j));
                        _mm256_storeu_ps(
                            op.add(j),
                            _mm256_fmadd_ps(va, _mm256_loadu_ps(br.add(j)), o),
                        );
                        j += 8;
                    }
                    while j < n {
                        orow[j] = av.mul_add(*br.add(j), orow[j]);
                        j += 1;
                    }
                    p += 1;
                }
            }
            p0 = p1;
        }
    }

    /// Band kernel for `out += aᵀ · b`: SIMD twin of `scalar::atb_band`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn atb_band(
        a: &[f32],
        b: &[f32],
        oband: &mut [f32],
        i0: usize,
        m: usize,
        k: usize,
        n: usize,
    ) {
        let rows = oband.len().checked_div(n).unwrap_or(0);
        assert!(b.len() >= k * n);
        let bp = b.as_ptr();
        let mut p = 0;
        while p + 4 <= k {
            let b0 = bp.add(p * n);
            let b1 = bp.add((p + 1) * n);
            let b2 = bp.add((p + 2) * n);
            let b3 = bp.add((p + 3) * n);
            for i in 0..rows {
                let a0 = a[p * m + i0 + i];
                let a1 = a[(p + 1) * m + i0 + i];
                let a2 = a[(p + 2) * m + i0 + i];
                let a3 = a[(p + 3) * m + i0 + i];
                let va0 = _mm256_set1_ps(a0);
                let va1 = _mm256_set1_ps(a1);
                let va2 = _mm256_set1_ps(a2);
                let va3 = _mm256_set1_ps(a3);
                let orow = &mut oband[i * n..i * n + n];
                let op = orow.as_mut_ptr();
                let mut j = 0;
                while j + 8 <= n {
                    let o = _mm256_loadu_ps(op.add(j));
                    let t = _mm256_fmadd_ps(
                        va1,
                        _mm256_loadu_ps(b1.add(j)),
                        _mm256_fmadd_ps(va0, _mm256_loadu_ps(b0.add(j)), o),
                    );
                    let r = _mm256_fmadd_ps(
                        va3,
                        _mm256_loadu_ps(b3.add(j)),
                        _mm256_fmadd_ps(va2, _mm256_loadu_ps(b2.add(j)), t),
                    );
                    _mm256_storeu_ps(op.add(j), r);
                    j += 8;
                }
                while j < n {
                    let o = orow[j];
                    let t = a1.mul_add(*b1.add(j), a0.mul_add(*b0.add(j), o));
                    orow[j] = a3.mul_add(*b3.add(j), a2.mul_add(*b2.add(j), t));
                    j += 1;
                }
            }
            p += 4;
        }
        while p < k {
            let br = bp.add(p * n);
            for i in 0..rows {
                let av = a[p * m + i0 + i];
                let va = _mm256_set1_ps(av);
                let orow = &mut oband[i * n..i * n + n];
                let op = orow.as_mut_ptr();
                let mut j = 0;
                while j + 8 <= n {
                    let o = _mm256_loadu_ps(op.add(j));
                    _mm256_storeu_ps(
                        op.add(j),
                        _mm256_fmadd_ps(va, _mm256_loadu_ps(br.add(j)), o),
                    );
                    j += 8;
                }
                while j < n {
                    orow[j] = av.mul_add(*br.add(j), orow[j]);
                    j += 1;
                }
            }
            p += 1;
        }
    }

    /// Eight-lane dot product with exactly `scalar::dot`'s reduction
    /// tree: one vector FMA chain is the eight scalar lanes, the
    /// 128-bit half-add produces `[l0+l4, l1+l5, l2+l6, l3+l7]`, and the
    /// final scalar adds replay `(s0 + s1) + tail`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn dot(x: &[f32], y: &[f32]) -> f32 {
        let len = x.len().min(y.len());
        let chunks = len / 8;
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            acc = _mm256_fmadd_ps(
                _mm256_loadu_ps(xp.add(c * 8)),
                _mm256_loadu_ps(yp.add(c * 8)),
                acc,
            );
        }
        let mut tail = 0.0f32;
        for idx in chunks * 8..len {
            tail = (*xp.add(idx)).mul_add(*yp.add(idx), tail);
        }
        let q = _mm_add_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps(acc, 1));
        let mut lanes = [0.0f32; 4];
        _mm_storeu_ps(lanes.as_mut_ptr(), q);
        let s0 = lanes[0] + lanes[1];
        let s1 = lanes[2] + lanes[3];
        (s0 + s1) + tail
    }

    /// Eight-lane sum with `scalar::laned_sum`'s exact tree.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn laned_sum(x: &[f32]) -> f32 {
        let len = x.len();
        let chunks = len / 8;
        let xp = x.as_ptr();
        let mut acc = _mm256_setzero_ps();
        for c in 0..chunks {
            acc = _mm256_add_ps(_mm256_loadu_ps(xp.add(c * 8)), acc);
        }
        let mut tail = 0.0f32;
        for idx in chunks * 8..len {
            tail += *xp.add(idx);
        }
        let q = _mm_add_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps(acc, 1));
        let mut lanes = [0.0f32; 4];
        _mm_storeu_ps(lanes.as_mut_ptr(), q);
        let s0 = lanes[0] + lanes[1];
        let s1 = lanes[2] + lanes[3];
        (s0 + s1) + tail
    }

    /// Vector transcription of `tensor::fast_exp`, op for op:
    /// the clamp's operand order preserves NaN propagation, and every
    /// multiply/add stays separate (the scalar source has no `mul_add`).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    #[allow(clippy::excessive_precision)] // coefficients transcribed from the scalar source
    unsafe fn fast_exp_v(x: __m256) -> __m256 {
        let x = _mm256_min_ps(
            _mm256_set1_ps(88.0),
            _mm256_max_ps(_mm256_set1_ps(-87.0), x),
        );
        let magic = _mm256_set1_ps(12_582_912.0);
        let zf = _mm256_add_ps(
            _mm256_mul_ps(x, _mm256_set1_ps(std::f32::consts::LOG2_E)),
            magic,
        );
        let n = _mm256_sub_ps(zf, magic);
        #[allow(clippy::excessive_precision)]
        const C1: f32 = 0.693_359_375;
        #[allow(clippy::excessive_precision)]
        const C2: f32 = -2.121_944_4e-4;
        let r = _mm256_sub_ps(
            _mm256_sub_ps(x, _mm256_mul_ps(n, _mm256_set1_ps(C1))),
            _mm256_mul_ps(n, _mm256_set1_ps(C2)),
        );
        let z = _mm256_mul_ps(r, r);
        let mut p = _mm256_set1_ps(1.987_569_2e-4);
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.398_200_0e-3));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(8.333_452_0e-3));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(4.166_579_6e-2));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.666_666_5e-1));
        p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(5.000_000_1e-1));
        let y = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(p, z), r), _mm256_set1_ps(1.0));
        let n_i = _mm256_sub_epi32(_mm256_castps_si256(zf), _mm256_set1_epi32(0x4B40_0000));
        let scale = _mm256_castsi256_ps(_mm256_slli_epi32(
            _mm256_add_epi32(n_i, _mm256_set1_epi32(127)),
            23,
        ));
        _mm256_mul_ps(y, scale)
    }

    /// Vector `stable_sigmoid`: `e = fast_exp(-|x|)`, `s = e/(1+e)`,
    /// blended by `x ≥ 0` exactly like the scalar select.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn sigmoid_v(x: __m256) -> __m256 {
        let sign = _mm256_set1_ps(-0.0);
        let nabs = _mm256_or_ps(_mm256_andnot_ps(sign, x), sign);
        let e = fast_exp_v(nabs);
        let one = _mm256_set1_ps(1.0);
        let s = _mm256_div_ps(e, _mm256_add_ps(one, e));
        let ge = _mm256_cmp_ps(x, _mm256_setzero_ps(), _CMP_GE_OQ);
        _mm256_blendv_ps(s, _mm256_sub_ps(one, s), ge)
    }

    /// In-place `v = fast_exp(v)` sweep; ragged tail runs the scalar fn.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn exp_sweep(xs: &mut [f32]) {
        let n = xs.len();
        let p = xs.as_mut_ptr();
        let mut j = 0;
        while j + 8 <= n {
            _mm256_storeu_ps(p.add(j), fast_exp_v(_mm256_loadu_ps(p.add(j))));
            j += 8;
        }
        while j < n {
            xs[j] = crate::tensor::fast_exp(xs[j]);
            j += 1;
        }
    }

    /// In-place `v = stable_sigmoid(v)` sweep.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn sigmoid_sweep(xs: &mut [f32]) {
        let n = xs.len();
        let p = xs.as_mut_ptr();
        let mut j = 0;
        while j + 8 <= n {
            _mm256_storeu_ps(p.add(j), sigmoid_v(_mm256_loadu_ps(p.add(j))));
            j += 8;
        }
        while j < n {
            xs[j] = crate::infer::stable_sigmoid(xs[j]);
            j += 1;
        }
    }

    /// In-place `v = v.max(0.0)` sweep. `max_ps(v, 0)` matches the
    /// scalar `f32::max` bit for bit here: `-0.0 → +0.0`, `NaN → 0.0`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn relu_sweep(xs: &mut [f32]) {
        let n = xs.len();
        let p = xs.as_mut_ptr();
        let zero = _mm256_setzero_ps();
        let mut j = 0;
        while j + 8 <= n {
            _mm256_storeu_ps(p.add(j), _mm256_max_ps(_mm256_loadu_ps(p.add(j)), zero));
            j += 8;
        }
        while j < n {
            xs[j] = xs[j].max(0.0);
            j += 1;
        }
    }

    /// In-place `v *= s` sweep (softmax's normalize pass).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn scale_sweep(xs: &mut [f32], s: f32) {
        let n = xs.len();
        let p = xs.as_mut_ptr();
        let vs = _mm256_set1_ps(s);
        let mut j = 0;
        while j + 8 <= n {
            _mm256_storeu_ps(p.add(j), _mm256_mul_ps(_mm256_loadu_ps(p.add(j)), vs));
            j += 8;
        }
        while j < n {
            xs[j] *= s;
            j += 1;
        }
    }

    /// Softmax exp pass: appends `fast_exp(row[j]·scale − max)` to
    /// `out` without zero-filling first. `scale = 1.0` reproduces the
    /// unscaled pass (`v·1.0` is exact).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn softmax_exp_row(out: &mut Vec<f32>, row: &[f32], scale: f32, max: f32) {
        let n = row.len();
        out.reserve(n);
        let start = out.len();
        let dst = out.as_mut_ptr().add(start);
        let rp = row.as_ptr();
        let vs = _mm256_set1_ps(scale);
        let vm = _mm256_set1_ps(max);
        let mut j = 0;
        while j + 8 <= n {
            let v = _mm256_sub_ps(_mm256_mul_ps(_mm256_loadu_ps(rp.add(j)), vs), vm);
            _mm256_storeu_ps(dst.add(j), fast_exp_v(v));
            j += 8;
        }
        while j < n {
            dst.add(j)
                .write(crate::tensor::fast_exp(row[j] * scale - max));
            j += 1;
        }
        out.set_len(start + n);
    }

    /// Performer feature-map sweep: `v = (fast_exp(v − half) + 1e-6)·inv`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn feature_map_row(xs: &mut [f32], half: f32, inv: f32) {
        let n = xs.len();
        let p = xs.as_mut_ptr();
        let vh = _mm256_set1_ps(half);
        let veps = _mm256_set1_ps(1e-6);
        let vi = _mm256_set1_ps(inv);
        let mut j = 0;
        while j + 8 <= n {
            let e = fast_exp_v(_mm256_sub_ps(_mm256_loadu_ps(p.add(j)), vh));
            _mm256_storeu_ps(p.add(j), _mm256_mul_ps(_mm256_add_ps(e, veps), vi));
            j += 8;
        }
        while j < n {
            xs[j] = (crate::tensor::fast_exp(xs[j] - half) + 1e-6) * inv;
            j += 1;
        }
    }

    /// Fused batch-norm row: appends `((x−μ)·is)·γ + β` to `out`, or
    /// `max(…, 0) + res` given a residual row, matching `scalar::bn_row`
    /// op for op.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn bn_row(
        out: &mut Vec<f32>,
        x: &[f32],
        res: Option<&[f32]>,
        mean: &[f32],
        invstd: &[f32],
        gamma: &[f32],
        beta: &[f32],
    ) {
        let d = x.len();
        let (mean, invstd, gamma, beta) = (&mean[..d], &invstd[..d], &gamma[..d], &beta[..d]);
        let res = res.map(|r| &r[..d]);
        out.reserve(d);
        let start = out.len();
        let dst = out.as_mut_ptr().add(start);
        let xp = x.as_ptr();
        let mp = mean.as_ptr();
        let ip = invstd.as_ptr();
        let gp = gamma.as_ptr();
        let bp = beta.as_ptr();
        let zero = _mm256_setzero_ps();
        let mut j = 0;
        while j + 8 <= d {
            let xv = _mm256_loadu_ps(xp.add(j));
            let t = _mm256_mul_ps(
                _mm256_mul_ps(
                    _mm256_sub_ps(xv, _mm256_loadu_ps(mp.add(j))),
                    _mm256_loadu_ps(ip.add(j)),
                ),
                _mm256_loadu_ps(gp.add(j)),
            );
            let mut t = _mm256_add_ps(t, _mm256_loadu_ps(bp.add(j)));
            if let Some(r) = res {
                t = _mm256_add_ps(_mm256_max_ps(t, zero), _mm256_loadu_ps(r.as_ptr().add(j)));
            }
            _mm256_storeu_ps(dst.add(j), t);
            j += 8;
        }
        while j < d {
            let mut t = ((x[j] - mean[j]) * invstd[j]) * gamma[j] + beta[j];
            if let Some(r) = res {
                t = t.max(0.0) + r[j];
            }
            dst.add(j).write(t);
            j += 1;
        }
        out.set_len(start + d);
    }

    /// Fused BN-of-sum row: appends `(((a+b)−μ)·is)·γ + β` to `out`.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn bn_of_sum_row(
        out: &mut Vec<f32>,
        a: &[f32],
        b: &[f32],
        mean: &[f32],
        invstd: &[f32],
        gamma: &[f32],
        beta: &[f32],
    ) {
        let d = a.len();
        let (b, mean, invstd) = (&b[..d], &mean[..d], &invstd[..d]);
        let (gamma, beta) = (&gamma[..d], &beta[..d]);
        out.reserve(d);
        let start = out.len();
        let dst = out.as_mut_ptr().add(start);
        let ap = a.as_ptr();
        let b2p = b.as_ptr();
        let mp = mean.as_ptr();
        let ip = invstd.as_ptr();
        let gp = gamma.as_ptr();
        let bp = beta.as_ptr();
        let mut j = 0;
        while j + 8 <= d {
            let s = _mm256_add_ps(_mm256_loadu_ps(ap.add(j)), _mm256_loadu_ps(b2p.add(j)));
            let t = _mm256_mul_ps(
                _mm256_mul_ps(
                    _mm256_sub_ps(s, _mm256_loadu_ps(mp.add(j))),
                    _mm256_loadu_ps(ip.add(j)),
                ),
                _mm256_loadu_ps(gp.add(j)),
            );
            _mm256_storeu_ps(dst.add(j), _mm256_add_ps(t, _mm256_loadu_ps(bp.add(j))));
            j += 8;
        }
        while j < d {
            dst.add(j)
                .write((((a[j] + b[j]) - mean[j]) * invstd[j]) * gamma[j] + beta[j]);
            j += 1;
        }
        out.set_len(start + d);
    }

    /// Fused `ax += num / (den + eps)` sweep.
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn add_div_sweep(ax: &mut [f32], num: &[f32], den: &[f32], eps: f32) {
        let n = ax.len();
        let (num, den) = (&num[..n], &den[..n]);
        let ap = ax.as_mut_ptr();
        let np = num.as_ptr();
        let dp = den.as_ptr();
        let ve = _mm256_set1_ps(eps);
        let mut j = 0;
        while j + 8 <= n {
            let q = _mm256_div_ps(
                _mm256_loadu_ps(np.add(j)),
                _mm256_add_ps(_mm256_loadu_ps(dp.add(j)), ve),
            );
            _mm256_storeu_ps(ap.add(j), _mm256_add_ps(_mm256_loadu_ps(ap.add(j)), q));
            j += 8;
        }
        while j < n {
            ax[j] += num[j] / (den[j] + eps);
            j += 1;
        }
    }

    /// One gated-scatter edge: `η = σ(e)`, `num += η ⊙ bx`, `den += η`,
    /// with the scalar kernel's separate multiply-then-add (no FMA).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gated_edge(er: &[f32], bxr: &[f32], nr: &mut [f32], dr: &mut [f32]) {
        let d = er.len();
        let (bxr, nr, dr) = (&bxr[..d], &mut nr[..d], &mut dr[..d]);
        let ep = er.as_ptr();
        let bp = bxr.as_ptr();
        let np = nr.as_mut_ptr();
        let dp = dr.as_mut_ptr();
        let mut j = 0;
        while j + 8 <= d {
            let g = sigmoid_v(_mm256_loadu_ps(ep.add(j)));
            let prod = _mm256_mul_ps(g, _mm256_loadu_ps(bp.add(j)));
            _mm256_storeu_ps(np.add(j), _mm256_add_ps(_mm256_loadu_ps(np.add(j)), prod));
            _mm256_storeu_ps(dp.add(j), _mm256_add_ps(_mm256_loadu_ps(dp.add(j)), g));
            j += 8;
        }
        while j < d {
            let g = crate::infer::stable_sigmoid(er[j]);
            nr[j] += g * bxr[j];
            dr[j] += g;
            j += 1;
        }
    }
}

// ---------------------------------------------------------------------------
// AVX-512F kernels (16 lanes) for the wide GEMM microkernels. Every other
// entry of the `AVX512` table is the AVX2 kernel (same safety convention).
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
#[allow(clippy::needless_range_loop)] // same `acc[v]` idiom as `avx2`
mod avx512 {
    use std::arch::x86_64::*;

    /// `out += a · b`: 16-lane microkernels for N ∈ {16, 32, 64}; N = 8
    /// stays on the AVX2 kernel (one 256-bit vector per row is already
    /// optimal), as does every other width.
    #[target_feature(enable = "avx512f,avx2,fma")]
    pub(super) unsafe fn gemm_rows(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        match n {
            16 => gemm_fixed::<16>(a, b, out, m, k),
            32 => gemm_fixed::<32>(a, b, out, m, k),
            64 => gemm_fixed::<64>(a, b, out, m, k),
            _ => super::avx2::gemm_rows(a, b, out, m, k, n),
        }
    }

    /// `out += a · b` for compile-time width `N` (multiple of 16):
    /// 16-lane twin of `avx2::gemm_fixed`; per-element k-order is
    /// identical (lanes are independent columns).
    #[target_feature(enable = "avx512f")]
    unsafe fn gemm_fixed<const N: usize>(
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
    ) {
        debug_assert_eq!(N % 16, 0);
        assert!(a.len() >= m * k && b.len() >= k * N && out.len() >= m * N);
        let nv = N / 16;
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let op = out.as_mut_ptr();
        let mut i = 0;
        while nv <= 2 && i + 2 <= m {
            let ar0 = ap.add(i * k);
            let ar1 = ap.add((i + 1) * k);
            let o0 = op.add(i * N);
            let o1 = op.add((i + 1) * N);
            let mut acc0 = [_mm512_setzero_ps(); 2];
            let mut acc1 = [_mm512_setzero_ps(); 2];
            for v in 0..nv {
                acc0[v] = _mm512_loadu_ps(o0.add(v * 16));
                acc1[v] = _mm512_loadu_ps(o1.add(v * 16));
            }
            let mut p = 0;
            while p + 4 <= k {
                let x0 = _mm512_set1_ps(*ar0.add(p));
                let x1 = _mm512_set1_ps(*ar0.add(p + 1));
                let x2 = _mm512_set1_ps(*ar0.add(p + 2));
                let x3 = _mm512_set1_ps(*ar0.add(p + 3));
                let y0 = _mm512_set1_ps(*ar1.add(p));
                let y1 = _mm512_set1_ps(*ar1.add(p + 1));
                let y2 = _mm512_set1_ps(*ar1.add(p + 2));
                let y3 = _mm512_set1_ps(*ar1.add(p + 3));
                for v in 0..nv {
                    let b0 = _mm512_loadu_ps(bp.add(p * N + v * 16));
                    let b1 = _mm512_loadu_ps(bp.add((p + 1) * N + v * 16));
                    let b2 = _mm512_loadu_ps(bp.add((p + 2) * N + v * 16));
                    let b3 = _mm512_loadu_ps(bp.add((p + 3) * N + v * 16));
                    let t0 = _mm512_fmadd_ps(x1, b1, _mm512_fmadd_ps(x0, b0, acc0[v]));
                    acc0[v] = _mm512_fmadd_ps(x3, b3, _mm512_fmadd_ps(x2, b2, t0));
                    let t1 = _mm512_fmadd_ps(y1, b1, _mm512_fmadd_ps(y0, b0, acc1[v]));
                    acc1[v] = _mm512_fmadd_ps(y3, b3, _mm512_fmadd_ps(y2, b2, t1));
                }
                p += 4;
            }
            while p < k {
                let x = _mm512_set1_ps(*ar0.add(p));
                let y = _mm512_set1_ps(*ar1.add(p));
                for v in 0..nv {
                    let bv = _mm512_loadu_ps(bp.add(p * N + v * 16));
                    acc0[v] = _mm512_fmadd_ps(x, bv, acc0[v]);
                    acc1[v] = _mm512_fmadd_ps(y, bv, acc1[v]);
                }
                p += 1;
            }
            for v in 0..nv {
                _mm512_storeu_ps(o0.add(v * 16), acc0[v]);
                _mm512_storeu_ps(o1.add(v * 16), acc1[v]);
            }
            i += 2;
        }
        while i < m {
            let ar = ap.add(i * k);
            let o = op.add(i * N);
            let mut acc = [_mm512_setzero_ps(); 4];
            for v in 0..nv {
                acc[v] = _mm512_loadu_ps(o.add(v * 16));
            }
            let mut p = 0;
            while p + 4 <= k {
                let x0 = _mm512_set1_ps(*ar.add(p));
                let x1 = _mm512_set1_ps(*ar.add(p + 1));
                let x2 = _mm512_set1_ps(*ar.add(p + 2));
                let x3 = _mm512_set1_ps(*ar.add(p + 3));
                for v in 0..nv {
                    let b0 = _mm512_loadu_ps(bp.add(p * N + v * 16));
                    let b1 = _mm512_loadu_ps(bp.add((p + 1) * N + v * 16));
                    let b2 = _mm512_loadu_ps(bp.add((p + 2) * N + v * 16));
                    let b3 = _mm512_loadu_ps(bp.add((p + 3) * N + v * 16));
                    let t = _mm512_fmadd_ps(x1, b1, _mm512_fmadd_ps(x0, b0, acc[v]));
                    acc[v] = _mm512_fmadd_ps(x3, b3, _mm512_fmadd_ps(x2, b2, t));
                }
                p += 4;
            }
            while p < k {
                let x = _mm512_set1_ps(*ar.add(p));
                for v in 0..nv {
                    let bv = _mm512_loadu_ps(bp.add(p * N + v * 16));
                    acc[v] = _mm512_fmadd_ps(x, bv, acc[v]);
                }
                p += 1;
            }
            for v in 0..nv {
                _mm512_storeu_ps(o.add(v * 16), acc[v]);
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_names() {
        for b in Backend::ALL {
            assert_eq!(Backend::parse(b.name()).unwrap(), b);
        }
        assert!(Backend::parse("neon").is_err());
    }

    #[test]
    fn detect_is_available_and_scalar_always_is() {
        assert!(Backend::detect().available());
        assert!(Backend::Scalar.available());
    }

    #[test]
    fn active_is_stable_and_honors_env() {
        let a = Backend::active();
        assert_eq!(a, Backend::active());
        if let Ok(name) = std::env::var("CIRGPS_FORCE_BACKEND") {
            if !name.is_empty() {
                assert_eq!(a, Backend::parse(&name).unwrap());
            }
        }
        assert!(a.available());
    }
}
