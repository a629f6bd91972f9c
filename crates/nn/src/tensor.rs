//! Dense 2-D tensors of `f32` with pooled allocation and blocked kernels.
//!
//! Everything in the CirGPS model is expressible with rank-2 tensors
//! (node-feature matrices `N × d`, weight matrices, row vectors `1 × d`,
//! column vectors `n × 1`, and scalars `1 × 1`), so the tensor type is
//! deliberately restricted to two dimensions. This keeps shape handling
//! easy to audit and removes an entire class of broadcasting bugs.
//!
//! Performance notes:
//!
//! * All constructors draw their backing `Vec<f32>` from the thread-local
//!   buffer pool ([`crate::pool`]); the autograd [`crate::Tape`] returns
//!   buffers to the pool when it is dropped or reset, so steady-state
//!   training does no per-op heap allocation.
//! * The three matmul variants use cache-blocked kernels (k-panelled
//!   i-k-j loops whose inner loop is a contiguous AXPY/dot) and switch to
//!   a row-partitioned multi-threaded path above a size threshold — see
//!   [`Tensor::matmul_parallel`] and `docs/perf.md`.

use std::fmt;
use std::sync::OnceLock;

use crate::pool;
use crate::simd::Kernels;

/// Default multiply-accumulate count above which matmuls go parallel.
const DEFAULT_PAR_MACS: usize = 4 << 20;

/// MAC-count threshold for the parallel matmul path; override with the
/// `CIRGPS_PAR_MACS` environment variable (`0` disables threading).
fn par_macs_threshold() -> usize {
    static CELL: OnceLock<usize> = OnceLock::new();
    *CELL.get_or_init(|| {
        std::env::var("CIRGPS_PAR_MACS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(DEFAULT_PAR_MACS)
    })
}

pub(crate) fn hardware_threads() -> usize {
    static CELL: OnceLock<usize> = OnceLock::new();
    *CELL.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

pub(crate) fn use_parallel(m: usize, k: usize, n: usize) -> bool {
    let threshold = par_macs_threshold();
    threshold > 0
        && hardware_threads() > 1
        && m > 1
        && m.saturating_mul(k).saturating_mul(n) >= threshold
}

/// Runs `band(i0, rows, out_band)` over the `m × n` output: once over
/// all rows, or — when `parallel` and threading can help — on one
/// scoped thread per disjoint, contiguous band of rows. Each output
/// element is computed by exactly one band with the same kernel, so
/// both ways are bitwise-identical.
fn row_bands(
    parallel: bool,
    out: &mut [f32],
    m: usize,
    n: usize,
    band: impl Fn(usize, usize, &mut [f32]) + Sync,
) {
    let threads = if parallel {
        hardware_threads().min(m)
    } else {
        1
    };
    // Empty output: nothing to split (and `chunks_mut(0)` would panic).
    if out.is_empty() || threads < 2 {
        return band(0, m, out);
    }
    let rows_per = m.div_ceil(threads);
    let band = &band;
    std::thread::scope(|s| {
        for (ti, ochunk) in out.chunks_mut(rows_per * n).enumerate() {
            s.spawn(move || band(ti * rows_per, ochunk.len() / n, ochunk));
        }
    });
}

/// The GEMM drivers: one implementation for every backend, calling the
/// table's row kernels. Above the `CIRGPS_PAR_MACS` threshold the output
/// rows are split across threads; the result is bitwise-equal either way.
impl Kernels {
    /// `out += a · b` for row-major `a (m×k)`, `b (k×n)`, `out (m×n)`.
    ///
    /// # Panics
    ///
    /// Panics if an operand's length does not match its shape.
    pub fn gemm(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        assert_eq!(a.len(), m * k, "a length");
        assert_eq!(b.len(), k * n, "b length");
        assert_eq!(out.len(), m * n, "out length");
        self.gemm_banded(n != 1 && use_parallel(m, k, n), a, b, out, m, k, n);
    }

    /// [`Kernels::gemm`] with the threading choice made by the caller.
    /// A column-vector RHS (`n == 1`, e.g. the d→1 output heads) takes
    /// one 8-lane `dot` per output element on every backend and path;
    /// the AXPY kernels would make k width-1 passes.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn gemm_banded(
        &self,
        parallel: bool,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        row_bands(parallel, out, m, n, |i0, rows, o| {
            let a = &a[i0 * k..(i0 + rows) * k];
            if n == 1 {
                for (i, o) in o.iter_mut().enumerate() {
                    *o += (self.dot)(&a[i * k..(i + 1) * k], b);
                }
            } else {
                (self.gemm_rows)(a, b, o, rows, k, n);
            }
        });
    }

    /// `out += aᵀ · b` for row-major `a (k×m)`, `b (k×n)`, `out (m×n)`,
    /// without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if an operand's length does not match its shape.
    pub fn gemm_atb(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        assert_eq!(a.len(), k * m, "a length");
        assert_eq!(b.len(), k * n, "b length");
        assert_eq!(out.len(), m * n, "out length");
        self.gemm_atb_banded(use_parallel(m, k, n), a, b, out, m, k, n);
    }

    /// [`Kernels::gemm_atb`] with the threading choice made by the
    /// caller: bands of output rows (columns of `a`) run the same band
    /// kernel.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn gemm_atb_banded(
        &self,
        parallel: bool,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        row_bands(parallel, out, m, n, |i0, _, o| {
            (self.atb_band)(a, b, o, i0, m, k, n)
        });
    }

    /// `out += a · bᵀ` for row-major `a (m×k)`, `b (n×k)`, `out (m×n)`:
    /// every output element is one 8-lane `dot`, so the reduction order
    /// is backend-invariant.
    ///
    /// # Panics
    ///
    /// Panics if an operand's length does not match its shape.
    pub fn gemm_abt(&self, a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
        assert_eq!(a.len(), m * k, "a length");
        assert_eq!(b.len(), n * k, "b length");
        assert_eq!(out.len(), m * n, "out length");
        self.gemm_abt_banded(use_parallel(m, k, n), a, b, out, m, k, n);
    }

    /// [`Kernels::gemm_abt`] with the threading choice made by the caller.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn gemm_abt_banded(
        &self,
        parallel: bool,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        row_bands(parallel, out, m, n, |i0, rows, o| {
            for i in 0..rows {
                let arow = &a[(i0 + i) * k..(i0 + i + 1) * k];
                for (j, x) in o[i * n..(i + 1) * n].iter_mut().enumerate() {
                    *x += (self.dot)(arow, &b[j * k..(j + 1) * k]);
                }
            }
        });
    }
}

/// Branch-free `exp(x)`: Cephes-style range reduction (`exp(x) = 2^n ·
/// exp(r)` with a Cody–Waite split of ln 2) plus a degree-6 polynomial
/// for `exp(r)` on `[-ln2/2, ln2/2]`.
///
/// Relative error stays below `1e-6` over the full range — an order of
/// magnitude inside the crate's 1e-5 numeric tolerance — and the
/// function inlines into `map` loops where the compiler auto-vectorizes
/// it, unlike a libm `expf` call. Inputs above ~88 saturate to `exp(88)`
/// (≈ 1.7e38) instead of `inf`; NaN propagates.
#[inline]
#[allow(clippy::excessive_precision)] // Cody–Waite/minimax constants are exact by design.
pub fn fast_exp(x: f32) -> f32 {
    // Bounds where the 2^n exponent construction stays in range.
    let x = x.clamp(-87.0, 88.0);
    // Round to nearest via the 1.5·2^23 magic constant: adding it pushes
    // the fraction bits out (ties to even), subtracting recovers the
    // integer. Unlike `f32::round` (a libm call LLVM cannot vectorize)
    // this is two adds; and because the biased integer `n` also sits in
    // the low mantissa bits of `x·log₂e + MAGIC`, the `2^n` scale is
    // built with pure integer ops — no saturating float→int cast, which
    // was the op that kept every exp/sigmoid/softmax sweep scalar
    // (vectorizing it cut `map(fast_exp)` from ~1.12 ms to ~0.36 ms per
    // 580k elements). Valid because |x·log₂e| ≤ 128 « 2^22.
    const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23
    let zf = x * std::f32::consts::LOG2_E + MAGIC;
    let n = zf - MAGIC;
    // Cody–Waite: subtract n·ln2 in two parts so r keeps full precision.
    const C1: f32 = 0.693_359_375;
    const C2: f32 = -2.121_944_4e-4;
    let r = x - n * C1 - n * C2;
    let z = r * r;
    let p = ((((1.987_569_2e-4 * r + 1.398_200_0e-3) * r + 8.333_452_0e-3) * r + 4.166_579_6e-2)
        * r
        + 1.666_666_5e-1)
        * r
        + 5.000_000_1e-1;
    let y = p * z + r + 1.0;
    // bits(MAGIC + n) − bits(MAGIC) = n for |n| < 2^22, so the biased
    // exponent (n + 127) << 23 comes straight from the float's bits.
    let n_i = (zf.to_bits() as i32).wrapping_sub(0x4B40_0000);
    y * f32::from_bits(((n_i + 127) << 23) as u32)
}

/// A dense, row-major 2-D tensor of `f32`.
///
/// # Examples
///
/// ```
/// use cirgps_nn::Tensor;
///
/// let t = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// assert_eq!(t.shape(), (2, 2));
/// assert_eq!(t.get(1, 0), 3.0);
/// ```
#[derive(PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let mut data = pool::take_capacity(self.data.len());
        data.extend_from_slice(&self.data);
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor({}x{})", self.rows, self.cols)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Tensor {
    /// Creates a tensor filled with zeros (pool-backed).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: pool::take_zeroed(rows * cols),
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(rows: usize, cols: usize) -> Self {
        Tensor::full(rows, cols, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        let mut data = pool::take_capacity(rows * cols);
        data.resize(rows * cols, value);
        Tensor { rows, cols, data }
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "tensor data length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Tensor { rows, cols, data }
    }

    /// Creates a tensor from a slice of row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = pool::take_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "inconsistent row length");
            data.extend_from_slice(row);
        }
        Tensor {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates a `1 × 1` scalar tensor.
    pub fn scalar(v: f32) -> Self {
        Tensor::row(&[v])
    }

    /// Creates a `1 × n` row vector.
    pub fn row(v: &[f32]) -> Self {
        let mut data = pool::take_capacity(v.len());
        data.extend_from_slice(v);
        Tensor {
            rows: 1,
            cols: v.len(),
            data,
        }
    }

    /// Creates an `n × 1` column vector.
    pub fn col(v: &[f32]) -> Self {
        let mut data = pool::take_capacity(v.len());
        data.extend_from_slice(v);
        Tensor {
            rows: v.len(),
            cols: 1,
            data,
        }
    }

    /// The `(rows, cols)` shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutably borrows the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor, returning its buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c]
    }

    /// Sets element at `(r, c)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        self.data[r * self.cols + c] = v;
    }

    /// Borrows row `r` as a slice.
    pub fn row_slice(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The single value of a `1 × 1` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not `1 × 1`.
    pub fn item(&self) -> f32 {
        assert_eq!(self.data.len(), 1, "item() requires a 1x1 tensor");
        self.data[0]
    }

    fn check_matmul(&self, rhs: &Tensor) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
    }

    /// Matrix product `self × rhs`.
    ///
    /// Uses the blocked kernel and switches to the row-partitioned
    /// parallel path above the `CIRGPS_PAR_MACS` threshold; all paths
    /// (including the `rhs.cols() == 1` dot-product shape) produce
    /// bitwise-identical results to [`Tensor::matmul_serial`].
    ///
    /// # Panics
    ///
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        self.check_matmul(rhs);
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let mut out = pool::take_zeroed(m * n);
        Kernels::active().gemm(&self.data, &rhs.data, &mut out, m, k, n);
        Tensor {
            rows: m,
            cols: n,
            data: out,
        }
    }

    /// Matrix product via the serial blocked kernel, regardless of size.
    ///
    /// Exists so tests and benches can compare against
    /// [`Tensor::matmul_parallel`]; `matmul` picks between the two.
    pub fn matmul_serial(&self, rhs: &Tensor) -> Tensor {
        self.check_matmul(rhs);
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let mut out = pool::take_zeroed(m * n);
        Kernels::active().gemm_banded(false, &self.data, &rhs.data, &mut out, m, k, n);
        Tensor {
            rows: m,
            cols: n,
            data: out,
        }
    }

    /// Matrix product via the row-partitioned threaded kernel, regardless
    /// of size. Bitwise-equal to [`Tensor::matmul_serial`].
    pub fn matmul_parallel(&self, rhs: &Tensor) -> Tensor {
        self.check_matmul(rhs);
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        let mut out = pool::take_zeroed(m * n);
        Kernels::active().gemm_banded(true, &self.data, &rhs.data, &mut out, m, k, n);
        Tensor {
            rows: m,
            cols: n,
            data: out,
        }
    }

    /// Matrix product `selfᵀ × rhs` without materializing the transpose.
    pub fn t_matmul(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.rows, rhs.rows, "t_matmul shape mismatch");
        let (m, k, n) = (self.cols, self.rows, rhs.cols);
        let mut out = pool::take_zeroed(m * n);
        Kernels::active().gemm_atb(&self.data, &rhs.data, &mut out, m, k, n);
        Tensor {
            rows: m,
            cols: n,
            data: out,
        }
    }

    /// Matrix product `self × rhsᵀ` without materializing the transpose.
    pub fn matmul_t(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(self.cols, rhs.cols, "matmul_t shape mismatch");
        let (m, k, n) = (self.rows, self.cols, rhs.rows);
        let mut out = pool::take_zeroed(m * n);
        Kernels::active().gemm_abt(&self.data, &rhs.data, &mut out, m, k, n);
        Tensor {
            rows: m,
            cols: n,
            data: out,
        }
    }

    /// Returns the transpose (cache-blocked copy).
    pub fn transpose(&self) -> Tensor {
        const TB: usize = 32;
        let (r, c) = (self.rows, self.cols);
        let mut out = pool::take_zeroed(self.data.len());
        for r0 in (0..r).step_by(TB) {
            let r1 = (r0 + TB).min(r);
            for c0 in (0..c).step_by(TB) {
                let c1 = (c0 + TB).min(c);
                for i in r0..r1 {
                    for j in c0..c1 {
                        out[j * r + i] = self.data[i * c + j];
                    }
                }
            }
        }
        Tensor {
            rows: c,
            cols: r,
            data: out,
        }
    }

    /// Elementwise sum `self + rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add(&self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a + b)
    }

    /// Elementwise difference `self - rhs`.
    pub fn sub(&self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    pub fn mul(&self, rhs: &Tensor) -> Tensor {
        self.zip_with(rhs, |a, b| a * b)
    }

    /// Elementwise scaling by `s`.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    /// Applies `f` to each element (pool-backed output).
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut data = pool::take_capacity(self.data.len());
        data.extend(self.data.iter().map(|&v| f(v)));
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// In-place `self += rhs`.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, rhs: &Tensor) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += b;
        }
    }

    /// In-place `self += s * rhs` (AXPY).
    pub fn axpy(&mut self, s: f32, rhs: &Tensor) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&rhs.data) {
            *a += s * b;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Frobenius (L2) norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// Column-wise sum, returned as a `1 × cols` row vector.
    pub fn col_sum(&self) -> Tensor {
        let mut out = pool::take_zeroed(self.cols);
        for r in 0..self.rows {
            for (o, &v) in out.iter_mut().zip(self.row_slice(r)) {
                *o += v;
            }
        }
        Tensor {
            rows: 1,
            cols: self.cols,
            data: out,
        }
    }

    /// Column-wise mean, returned as a `1 × cols` row vector.
    pub fn col_mean(&self) -> Tensor {
        let mut out = self.col_sum();
        let inv = if self.rows == 0 {
            0.0
        } else {
            1.0 / self.rows as f32
        };
        for o in out.data.iter_mut() {
            *o *= inv;
        }
        out
    }

    fn zip_with(&self, rhs: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(
            self.shape(),
            rhs.shape(),
            "elementwise op shape mismatch: {:?} vs {:?}",
            self.shape(),
            rhs.shape()
        );
        let mut data = pool::take_capacity(self.data.len());
        data.extend(self.data.iter().zip(&rhs.data).map(|(&a, &b)| f(a, b)));
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Returns the buffer to the thread-local pool. The tape calls this
    /// when it retires intermediates; tape-free inference callers (see
    /// [`crate::infer`]) do so explicitly after each op so steady-state
    /// batched inference allocates nothing.
    pub fn recycle(self) {
        pool::put(self.data);
    }
}

impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn t_matmul_equals_transpose_then_matmul() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Tensor::from_rows(&[&[1.0, 0.0], &[0.0, 1.0]]);
        assert_eq!(a.t_matmul(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_t_close_to_matmul_with_transpose() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0], &[9.0, 1.0]]);
        let fused = a.matmul_t(&b);
        let reference = a.matmul(&b.transpose());
        assert_eq!(fused.shape(), reference.shape());
        for (x, y) in fused.as_slice().iter().zip(reference.as_slice()) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }

    #[test]
    fn parallel_kernels_match_serial_exactly() {
        // Larger-than-one-tile shapes so blocking and partitioning both
        // engage; the parallel path must be bitwise-identical.
        let k = 300;
        let a = Tensor::from_vec(
            37,
            k,
            (0..37 * k).map(|i| (i as f32 * 0.137).sin()).collect(),
        );
        let b = Tensor::from_vec(
            k,
            19,
            (0..k * 19).map(|i| (i as f32 * 0.071).cos()).collect(),
        );
        assert_eq!(
            a.matmul_serial(&b).as_slice(),
            a.matmul_parallel(&b).as_slice()
        );

        let mut o1 = vec![0.0f32; a.cols() * b.cols()];
        let mut o2 = vec![0.0f32; a.cols() * b.cols()];
        let at = Tensor::from_vec(
            k,
            37,
            (0..k * 37).map(|i| (i as f32 * 0.093).sin()).collect(),
        );
        let kn = crate::Backend::active().kernels();
        kn.gemm_atb_banded(
            false,
            at.as_slice(),
            b.as_slice(),
            &mut o1[..37 * 19],
            37,
            k,
            19,
        );
        kn.gemm_atb_banded(
            true,
            at.as_slice(),
            b.as_slice(),
            &mut o2[..37 * 19],
            37,
            k,
            19,
        );
        assert_eq!(&o1[..37 * 19], &o2[..37 * 19]);

        let bt = Tensor::from_vec(
            19,
            k,
            (0..19 * k).map(|i| (i as f32 * 0.059).cos()).collect(),
        );
        let mut o3 = vec![0.0f32; 37 * 19];
        let mut o4 = vec![0.0f32; 37 * 19];
        kn.gemm_abt_banded(false, a.as_slice(), bt.as_slice(), &mut o3, 37, k, 19);
        kn.gemm_abt_banded(true, a.as_slice(), bt.as_slice(), &mut o4, 37, k, 19);
        assert_eq!(o3, o4);
    }

    #[test]
    fn blocked_gemm_matches_naive_triple_loop() {
        let (m, k, n) = (5, 200, 7);
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 31 % 17) as f32 - 8.0) * 0.25)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 13 % 23) as f32 - 11.0) * 0.125)
            .collect();
        let mut naive = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                naive[i * n + j] = acc;
            }
        }
        let t = Tensor::from_vec(m, k, a).matmul(&Tensor::from_vec(k, n, b));
        for (x, y) in t.as_slice().iter().zip(&naive) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::row(&[1.0, 2.0]);
        let b = Tensor::row(&[3.0, 5.0]);
        assert_eq!(a.add(&b).as_slice(), &[4.0, 7.0]);
        assert_eq!(b.sub(&a).as_slice(), &[2.0, 3.0]);
        assert_eq!(a.mul(&b).as_slice(), &[3.0, 10.0]);
        assert_eq!(a.scale(2.0).as_slice(), &[2.0, 4.0]);
    }

    #[test]
    fn col_mean_averages_rows() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 6.0]]);
        assert_eq!(a.col_mean().as_slice(), &[2.0, 4.0]);
        assert_eq!(a.col_sum().as_slice(), &[4.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_round_trips() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        // Multi-tile transpose.
        let big = Tensor::from_vec(70, 41, (0..70 * 41).map(|i| i as f32).collect());
        assert_eq!(big.transpose().transpose(), big);
        assert_eq!(big.transpose().get(3, 50), big.get(50, 3));
    }

    #[test]
    fn scalar_item() {
        assert_eq!(Tensor::scalar(3.5).item(), 3.5);
    }

    #[test]
    fn fast_exp_matches_std_exp() {
        for i in -8700..=8800 {
            let x = i as f32 * 0.01;
            let got = fast_exp(x);
            let want = x.exp();
            let rel = (got - want).abs() / want.max(f32::MIN_POSITIVE);
            assert!(rel < 1e-6, "x={x}: fast {got} vs std {want} (rel {rel})");
        }
        assert!(fast_exp(f32::NAN).is_nan());
        assert!(fast_exp(-1000.0) >= 0.0);
        assert!(fast_exp(1000.0).is_finite(), "saturates instead of inf");
    }

    #[test]
    fn degenerate_shapes() {
        let rowvec = Tensor::row(&[1.0, 2.0, 3.0]); // 1×3
        let colvec = Tensor::col(&[4.0, 5.0, 6.0]); // 3×1
        assert_eq!(rowvec.matmul(&colvec).item(), 32.0);
        let outer = colvec.matmul(&rowvec);
        assert_eq!(outer.shape(), (3, 3));
        assert_eq!(outer.get(2, 0), 6.0);
        let empty = Tensor::zeros(0, 4).matmul(&Tensor::zeros(4, 2));
        assert_eq!(empty.shape(), (0, 2));
        // Zero-column / zero-row outputs must not panic on any path.
        let wide = Tensor::zeros(8, 4);
        assert_eq!(wide.matmul_parallel(&Tensor::zeros(4, 0)).shape(), (8, 0));
        assert_eq!(
            Tensor::zeros(0, 4)
                .matmul_parallel(&Tensor::zeros(4, 2))
                .shape(),
            (0, 2)
        );
        // n == 1 uses the dot kernel on every path; serial and parallel
        // must still agree bitwise.
        let a = Tensor::from_vec(9, 7, (0..63).map(|i| (i as f32 * 0.3).sin()).collect());
        let b = Tensor::from_vec(7, 1, (0..7).map(|i| (i as f32 * 0.7).cos()).collect());
        assert_eq!(a.matmul(&b).as_slice(), a.matmul_serial(&b).as_slice());
        assert_eq!(
            a.matmul_serial(&b).as_slice(),
            a.matmul_parallel(&b).as_slice()
        );
    }
}
