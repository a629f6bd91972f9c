//! Residual Gated Graph ConvNet (GatedGCN, Bresson & Laurent 2017) with edge
//! features, as used inside GraphGPS and this paper's MPNN branch.
//!
//! Update rule (for an edge `j → i` with feature `e_ij`):
//!
//! ```text
//! ê_ij = C·e_ij + D·x_i + E·x_j
//! η_ij = σ(ê_ij)
//! x̂_i  = A·x_i + Σ_j η_ij ⊙ (B·x_j)  /  (Σ_j η_ij + ε)
//! x'   = x + ReLU(BN(x̂))     e' = e + ReLU(BN(ê))
//! ```
//!
//! Edges must be provided in *directed* form; undirected graphs list each
//! edge twice (both directions), which is what
//! [`circuit-graph`](https://crates.io/crates/circuit-graph)'s CSR export does.

use std::sync::Arc;

use rand::rngs::StdRng;

use crate::infer::{add_div_inplace, assemble_edge_hat_typed, gated_scatter};
use crate::layers::{BatchNorm1d, Linear};
use crate::params::ParamStore;
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;

/// Directed edge index shared by all GatedGCN layers of a model.
///
/// `src[k] → dst[k]` is the k-th message; both arrays index node rows.
#[derive(Debug, Clone)]
pub struct EdgeIndex {
    /// Source node of each directed edge.
    pub src: Arc<Vec<usize>>,
    /// Destination node of each directed edge.
    pub dst: Arc<Vec<usize>>,
}

impl EdgeIndex {
    /// Creates an edge index from parallel source/destination arrays.
    ///
    /// # Panics
    ///
    /// Panics if the arrays differ in length.
    pub fn new(src: Vec<usize>, dst: Vec<usize>) -> Self {
        assert_eq!(src.len(), dst.len(), "edge index arrays must be parallel");
        EdgeIndex {
            src: Arc::new(src),
            dst: Arc::new(dst),
        }
    }

    /// Number of directed edges.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// Whether there are no edges.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// Largest node index referenced by any edge, or `None` for an empty
    /// index. Lets callers validate the index against their node count
    /// before gather/scatter panics deep inside a kernel.
    pub fn max_node(&self) -> Option<usize> {
        self.src.iter().chain(self.dst.iter()).copied().max()
    }
}

/// One GatedGCN layer with residual connections and batch norm on both the
/// node and the edge stream.
#[derive(Debug, Clone)]
pub struct GatedGcn {
    a: Linear,
    b: Linear,
    c: Linear,
    d: Linear,
    e: Linear,
    bn_x: BatchNorm1d,
    bn_e: BatchNorm1d,
    dropout: f32,
    eps: f32,
}

impl GatedGcn {
    /// Registers a GatedGCN layer over node/edge width `dim`.
    pub fn new(
        store: &mut ParamStore,
        name: &str,
        dim: usize,
        dropout: f32,
        rng: &mut StdRng,
    ) -> Self {
        GatedGcn {
            a: Linear::new(store, &format!("{name}.A"), dim, dim, true, rng),
            b: Linear::new(store, &format!("{name}.B"), dim, dim, true, rng),
            c: Linear::new(store, &format!("{name}.C"), dim, dim, true, rng),
            d: Linear::new(store, &format!("{name}.D"), dim, dim, true, rng),
            e: Linear::new(store, &format!("{name}.E"), dim, dim, true, rng),
            bn_x: BatchNorm1d::new(store, &format!("{name}.bn_x"), dim),
            bn_e: BatchNorm1d::new(store, &format!("{name}.bn_e"), dim),
            dropout,
            eps: 1e-6,
        }
    }

    /// Applies the layer.
    ///
    /// * `x` — `N × d` node features
    /// * `e` — `E × d` directed-edge features (one row per directed edge)
    /// * `index` — directed edge index with `E` entries
    ///
    /// Returns `(x', e')`.
    pub fn forward(&self, tape: &mut Tape, x: Var, e: Var, index: &EdgeIndex) -> (Var, Var) {
        let n = tape.shape(x).0;
        let ne = tape.shape(e).0;
        assert_eq!(ne, index.len(), "edge feature count must match edge index");
        if let Some(max) = index.max_node() {
            assert!(
                max < n,
                "edge index references node {max} but only {n} nodes exist"
            );
        }

        // Edge update: ê = C e + D x_dst + E x_src. The adds consume their
        // left operand in place — ce/tmp are not referenced again.
        let ce = self.c.forward(tape, e);
        let dx = self.d.forward(tape, x);
        let ex = self.e.forward(tape, x);
        let dx_dst = tape.gather(dx, index.dst.clone());
        let ex_src = tape.gather(ex, index.src.clone());
        let tmp = tape.add_inplace(ce, dx_dst);
        let e_hat = tape.add_inplace(tmp, ex_src);

        // Gates.
        let eta = tape.sigmoid(e_hat); // E × d

        // Node update: x̂_i = A x_i + Σ η ⊙ (B x_src) / (Σ η + ε)
        let bx = self.b.forward(tape, x);
        let bx_src = tape.gather(bx, index.src.clone());
        let weighted = tape.mul(eta, bx_src);
        let num = tape.scatter_add(weighted, index.dst.clone(), n);
        let den = tape.scatter_add(eta, index.dst.clone(), n);
        let den = tape.add_scalar_inplace(den, self.eps);
        let agg = tape.div(num, den);
        let ax = self.a.forward(tape, x);
        let x_hat = tape.add_inplace(ax, agg);

        // Residual + BN + ReLU on both streams. The BN output is
        // single-use, so the ReLU runs in place; the residual add may only
        // consume the dropout output when it is a distinct var (ReLU's
        // backward reads its own output, so the ReLU result itself must
        // stay readable). `x`/`e` stay intact for the Linear backward.
        let xb = self.bn_x.forward(tape, x_hat);
        let xr = tape.relu_inplace(xb);
        let xd = tape.dropout(xr, self.dropout);
        let x_out = if xd == xr {
            tape.add(xd, x)
        } else {
            tape.add_inplace(xd, x)
        };

        let eb = self.bn_e.forward(tape, e_hat);
        let er = tape.relu_inplace(eb);
        let ed = tape.dropout(er, self.dropout);
        let e_out = if ed == er {
            tape.add(ed, e)
        } else {
            tape.add_inplace(ed, e)
        };

        (x_out, e_out)
    }

    /// Tape-free forward (eval mode: dropout is the identity, batch norm
    /// uses running statistics). Mirrors [`GatedGcn::forward`] op for op,
    /// so outputs are bitwise-equal to the taped eval-mode pass.
    ///
    /// # Panics
    ///
    /// Same contracts as [`GatedGcn::forward`].
    pub fn infer(
        &self,
        params: &ParamStore,
        x: &Tensor,
        e: &Tensor,
        index: &EdgeIndex,
    ) -> (Tensor, Tensor) {
        self.infer_opts(params, x, e, index, None, true)
    }

    /// [`GatedGcn::infer`] with the inference-engine fast paths:
    ///
    /// * `typed_edges` — when `e` is a row gather of an embedding table
    ///   (the first GPS layer's edge features), pass `(codes, table)` and
    ///   the `C·e` GEMM collapses to one GEMM over the table's few rows
    ///   plus a gather. Per-row results are unchanged (GEMM rows are
    ///   independent), so this is bitwise-equal.
    /// * `need_edge_out = false` — skips the edge stream's BN/ReLU/
    ///   residual output sweep and returns an empty edge tensor; use on
    ///   the last layer, whose edge output nobody reads.
    ///
    /// # Panics
    ///
    /// Same contracts as [`GatedGcn::forward`].
    pub fn infer_opts(
        &self,
        params: &ParamStore,
        x: &Tensor,
        e: &Tensor,
        index: &EdgeIndex,
        typed_edges: Option<(&[usize], &Tensor)>,
        need_edge_out: bool,
    ) -> (Tensor, Tensor) {
        let n = x.rows();
        assert_eq!(
            e.rows(),
            index.len(),
            "edge feature count must match edge index"
        );
        if let Some(max) = index.max_node() {
            assert!(
                max < n,
                "edge index references node {max} but only {n} nodes exist"
            );
        }

        // Edge update ê = C e + D x_dst + E x_src, assembled in one fused
        // sweep over the edge stream.
        let dx = self.d.infer(params, x);
        let ex = self.e.infer(params, x);
        let e_hat = match typed_edges {
            Some((codes, table)) => {
                debug_assert_eq!(codes.len(), e.rows());
                // C·e collapses to the table's few rows; the per-edge rows
                // are read straight out of the projected table during the
                // single assembly pass.
                let ce_table = self.c.infer(params, table);
                let e_hat =
                    assemble_edge_hat_typed(&ce_table, codes, &dx, &index.dst, &ex, &index.src);
                ce_table.recycle();
                e_hat
            }
            None => self
                .c
                .infer_add_gathered2(params, e, &dx, &index.dst, &ex, &index.src),
        };
        dx.recycle();
        ex.recycle();

        // Gates + node aggregation, fused: η = σ(ê) is computed per edge
        // and scattered into the numerator/denominator in edge order.
        let bx = self.b.infer(params, x);
        let (num, den) = gated_scatter(&e_hat, &bx, &index.src, &index.dst, n);
        bx.recycle();
        let x_hat = add_div_inplace(self.a.infer(params, x), &num, &den, self.eps);
        num.recycle();
        den.recycle();

        // Residual + BN + ReLU on both streams (eval: no dropout), one
        // fused output sweep per stream.
        let x_out = self.bn_x.infer_relu_add(params, &x_hat, x);
        let e_out = if need_edge_out {
            self.bn_e.infer_relu_add(params, &e_hat, e)
        } else {
            Tensor::zeros(0, e.cols())
        };
        x_hat.recycle();
        e_hat.recycle();
        (x_out, e_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GradStore;
    use crate::tensor::Tensor;
    use rand::{Rng, SeedableRng};

    fn path_graph(n: usize) -> EdgeIndex {
        // Undirected path 0-1-2-...-n stored as both directions. Iterating
        // from 1 avoids the `0..n - 1` underflow when `n == 0`.
        let mut src = Vec::new();
        let mut dst = Vec::new();
        for i in 1..n {
            src.push(i - 1);
            dst.push(i);
            src.push(i);
            dst.push(i - 1);
        }
        EdgeIndex::new(src, dst)
    }

    #[test]
    fn forward_shapes() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut store = ParamStore::new();
        let layer = GatedGcn::new(&mut store, "g", 8, 0.0, &mut rng);
        let idx = path_graph(5);
        let mut tape = Tape::new(&store, false, 0);
        let x = tape.input(Tensor::ones(5, 8));
        let e = tape.input(Tensor::ones(idx.len(), 8));
        let (x2, e2) = layer.forward(&mut tape, x, e, &idx);
        assert_eq!(tape.shape(x2), (5, 8));
        assert_eq!(tape.shape(e2), (idx.len(), 8));
    }

    #[test]
    fn gradients_reach_all_five_linears() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut store = ParamStore::new();
        let layer = GatedGcn::new(&mut store, "g", 4, 0.0, &mut rng);
        let idx = path_graph(4);
        let mut tape = Tape::new(&store, true, 0);
        let xv: Vec<f32> = (0..16).map(|i| (i as f32 * 0.37).sin()).collect();
        let ev: Vec<f32> = (0..idx.len() * 4)
            .map(|i| (i as f32 * 0.11).cos())
            .collect();
        let x = tape.input(Tensor::from_vec(4, 4, xv));
        let e = tape.input(Tensor::from_vec(idx.len(), 4, ev));
        let (x2, _e2) = layer.forward(&mut tape, x, e, &idx);
        let loss = tape.mse_loss(x2, &[0.0; 16]);
        let mut grads = GradStore::new(&store);
        tape.backward(loss, &mut grads);
        for tag in ["g.A", "g.B", "g.C", "g.D", "g.E"] {
            let found = store
                .iter()
                .any(|(id, name, _)| name.starts_with(tag) && grads.get(id).is_some());
            assert!(found, "no gradient reached {tag}");
        }
    }

    #[test]
    fn empty_edge_index_is_guarded() {
        // path_graph(1) has a single node and no edges — the former
        // `0..n - 1` underflow case.
        let idx = path_graph(1);
        assert!(idx.is_empty());
        assert_eq!(idx.max_node(), None);

        let mut rng = StdRng::seed_from_u64(9);
        let mut store = ParamStore::new();
        let layer = GatedGcn::new(&mut store, "g", 4, 0.0, &mut rng);
        let mut tape = Tape::new(&store, false, 0);
        let x = tape.input(Tensor::ones(3, 4));
        let e = tape.input(Tensor::zeros(0, 4));
        let (x2, e2) = layer.forward(&mut tape, x, e, &idx);
        assert_eq!(tape.shape(x2), (3, 4));
        assert_eq!(tape.shape(e2), (0, 4));
        assert!(tape.value(x2).as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "edge index references node")]
    fn out_of_range_edge_index_panics_clearly() {
        let mut rng = StdRng::seed_from_u64(10);
        let mut store = ParamStore::new();
        let layer = GatedGcn::new(&mut store, "g", 4, 0.0, &mut rng);
        let idx = EdgeIndex::new(vec![0], vec![5]);
        let mut tape = Tape::new(&store, false, 0);
        let x = tape.input(Tensor::ones(3, 4));
        let e = tape.input(Tensor::ones(1, 4));
        let _ = layer.forward(&mut tape, x, e, &idx);
    }

    #[test]
    fn isolated_node_keeps_residual_value() {
        // A node with no incoming edges must still produce finite output
        // (the ε in the denominator guards the 0/0 case).
        let mut rng = StdRng::seed_from_u64(2);
        let mut store = ParamStore::new();
        let layer = GatedGcn::new(&mut store, "g", 4, 0.0, &mut rng);
        // Single directed edge 0 → 1 leaves node 2 isolated.
        let idx = EdgeIndex::new(vec![0], vec![1]);
        let mut tape = Tape::new(&store, false, 0);
        let x = tape.input(Tensor::ones(3, 4));
        let e = tape.input(Tensor::ones(1, 4));
        let (x2, _) = layer.forward(&mut tape, x, e, &idx);
        assert!(tape.value(x2).as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn deeper_stack_stays_finite() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut store = ParamStore::new();
        let layers: Vec<GatedGcn> = (0..4)
            .map(|i| GatedGcn::new(&mut store, &format!("l{i}"), 8, 0.0, &mut rng))
            .collect();
        let idx = path_graph(6);
        let mut tape = Tape::new(&store, true, 0);
        let mut rng2 = StdRng::seed_from_u64(4);
        let xv: Vec<f32> = (0..48).map(|_| rng2.gen_range(-1.0..1.0)).collect();
        let mut x = tape.input(Tensor::from_vec(6, 8, xv));
        let mut e = tape.input(Tensor::ones(idx.len(), 8));
        for layer in &layers {
            let (nx, ne) = layer.forward(&mut tape, x, e, &idx);
            x = nx;
            e = ne;
        }
        assert!(tape.value(x).as_slice().iter().all(|v| v.is_finite()));
    }
}
