//! Sweep-oriented enclosing-subgraph extraction.
//!
//! A full-chip sweep extracts the enclosing subgraph of *millions* of
//! anchor pairs from one fixed graph. [`SubgraphSampler`] is built for
//! scattered queries: each call allocates a `HashMap` for the local
//! relabeling, a `Vec<Vec<usize>>` adjacency for the two local BFS
//! passes, and a fresh visited vector. [`SweepSampler`] produces
//! **bitwise-identical** [`Subgraph`]s while keeping every piece of
//! scratch alive across pairs:
//!
//! - the visited set and the parent→local index map are versioned stamp
//!   arrays (`O(1)` reset, no hashing),
//! - the local BFS runs over a reusable CSR built from the induced arcs
//!   (no per-call nested `Vec`s),
//! - for the 1-hop link configuration (the paper's default) the
//!   multi-source frontier is expanded inline, skipping the generic
//!   queue entirely,
//! - [`SweepSampler::extract_into`] reuses the output buffers of a
//!   caller-owned [`Subgraph`], so a sweep that deduplicates repeated
//!   neighborhoods allocates nothing at all for the duplicate pairs,
//! - a *hub* — a kept node with more arcs than all other kept nodes
//!   together, typically the supply net a pin hangs off — does not have
//!   its adjacency scanned: its induced arcs are found in the other kept
//!   nodes' lists, mapped through [`CircuitGraph::reverse_slot`] to
//!   their slots in the hub's list, and sorted back into that order. A
//!   pair then costs the subgraph's size, not its nets' degrees.
//!
//! Equality with [`SubgraphSampler`] is exact, not approximate: node
//! order, arc order, and clamped BFS distances follow the same
//! deterministic construction (checked field-for-field by the tests
//! below and by the randomized parity properties in
//! `tests/proptests.rs`). [`SubgraphSampler`] keeps the plain scan, as
//! the reference those properties compare against.

use circuit_graph::{BfsScratch, CircuitGraph, XC_DIM};

use crate::subgraph::{SamplerConfig, Subgraph, UNREACHABLE};

/// Versioned parent-id → local-index map with `O(1)` reset.
#[derive(Debug)]
struct StampMap {
    stamp: Vec<u32>,
    idx: Vec<u32>,
    epoch: u32,
}

impl StampMap {
    fn new(n: usize) -> Self {
        StampMap {
            stamp: vec![0; n],
            idx: vec![0; n],
            epoch: 0,
        }
    }

    /// Starts a fresh membership generation.
    fn begin(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: clear everything once every 2^32 runs.
            self.stamp.iter_mut().for_each(|s| *s = u32::MAX);
            self.epoch = 1;
        }
    }

    /// Inserts `v ↦ idx`; returns false if `v` was already present.
    fn insert(&mut self, v: u32, idx: u32) -> bool {
        let s = &mut self.stamp[v as usize];
        if *s == self.epoch {
            false
        } else {
            *s = self.epoch;
            self.idx[v as usize] = idx;
            true
        }
    }

    fn get(&self, v: u32) -> Option<u32> {
        (self.stamp[v as usize] == self.epoch).then(|| self.idx[v as usize])
    }
}

/// Allocation-free enclosing-subgraph extractor for link sweeps.
///
/// Produces output bitwise-identical to
/// [`SubgraphSampler::enclosing_subgraph`] with the same
/// [`SamplerConfig`]; see the module docs for what is shared across
/// pairs.
///
/// [`SubgraphSampler::enclosing_subgraph`]:
/// crate::SubgraphSampler::enclosing_subgraph
#[derive(Debug)]
pub struct SweepSampler<'g> {
    graph: &'g CircuitGraph,
    cfg: SamplerConfig,
    seen: StampMap,
    /// Generic multi-hop fallback (hops ≠ 1).
    scratch: BfsScratch,
    // Reusable CSR over the induced directed arcs + BFS queue.
    csr_off: Vec<u32>,
    csr_cur: Vec<u32>,
    csr_adj: Vec<u32>,
    queue: Vec<u32>,
    /// A hub's induced arcs as `(slot in the hub's list, local source)`.
    hub_arcs: Vec<(u32, u32)>,
}

impl<'g> SweepSampler<'g> {
    /// Creates a sweep extractor over `graph`.
    pub fn new(graph: &'g CircuitGraph, cfg: SamplerConfig) -> Self {
        SweepSampler {
            graph,
            cfg,
            seen: StampMap::new(graph.num_nodes()),
            scratch: BfsScratch::new(graph.num_nodes()),
            csr_off: Vec::new(),
            csr_cur: Vec::new(),
            csr_adj: Vec::new(),
            queue: Vec::new(),
            hub_arcs: Vec::new(),
        }
    }

    /// The graph being swept.
    pub fn graph(&self) -> &CircuitGraph {
        self.graph
    }

    /// The extraction parameters.
    pub fn config(&self) -> SamplerConfig {
        self.cfg
    }

    /// Extracts the enclosing subgraph of link `(m, n)` into a fresh
    /// [`Subgraph`] (convenience wrapper over
    /// [`SweepSampler::extract_into`]).
    ///
    /// # Panics
    ///
    /// Panics if `m == n` or either id is out of range.
    pub fn enclosing_subgraph(&mut self, m: u32, n: u32) -> Subgraph {
        let mut out = Subgraph {
            nodes: Vec::new(),
            node_types: Vec::new(),
            xc: Vec::new(),
            src: Vec::new(),
            dst: Vec::new(),
            edge_types: Vec::new(),
            num_anchors: 2,
            dist_a: Vec::new(),
            dist_b: Vec::new(),
        };
        self.extract_into(m, n, &mut out);
        out
    }

    /// Extracts the enclosing subgraph of link `(m, n)`, reusing the
    /// buffers of `out` (its previous contents are discarded).
    ///
    /// # Panics
    ///
    /// Panics if `m == n` or either id is out of range.
    pub fn extract_into(&mut self, m: u32, n: u32, out: &mut Subgraph) {
        assert_ne!(m, n, "link anchors must differ");
        let total = self.graph.num_nodes();
        assert!(
            (m as usize) < total && (n as usize) < total,
            "link anchor out of range for graph with {total} nodes"
        );

        // Phase 1: visited set in multi-source BFS order (anchors first,
        // then increasing hop distance, neighbors in adjacency order).
        out.nodes.clear();
        if self.cfg.hops == 1 {
            // Inline 1-hop expansion: pop m, pop n, and every depth-1
            // node is beyond `max_hops` — exactly `BfsScratch::run_multi`
            // for sources `[m, n]` without touching a queue.
            self.seen.begin();
            self.seen.insert(m, 0);
            self.seen.insert(n, 1);
            out.nodes.push(m);
            out.nodes.push(n);
            for k in 0..2 {
                let v = out.nodes[k];
                for &w in self.graph.adjacency(v).0 {
                    if self.seen.insert(w, 0) {
                        out.nodes.push(w);
                    }
                }
            }
        } else {
            let visited = self.scratch.run_multi(self.graph, &[m, n], self.cfg.hops);
            out.nodes.extend_from_slice(&visited);
        }
        if out.nodes.len() > self.cfg.max_nodes {
            out.nodes.truncate(self.cfg.max_nodes);
        }

        // Phase 2: parent → local relabeling over the *kept* nodes (a
        // fresh stamp generation, so truncated nodes drop out), then the
        // gathered node features and induced arcs — the output of
        // `SubgraphSampler::build`, with the `HashMap` lookups replaced
        // by stamp-array probes and a hub's arcs gathered from the other
        // side.
        let n_local = out.nodes.len();
        self.seen.begin();
        for (i, &v) in out.nodes.iter().enumerate() {
            self.seen.insert(v, i as u32);
        }

        out.node_types.clear();
        out.xc.clear();
        out.xc.reserve(n_local * XC_DIM);
        for &v in &out.nodes {
            out.node_types.push(self.graph.node_type(v).code());
            out.xc.extend_from_slice(self.graph.xc_row(v));
        }

        // Induced arcs, per kept node in adjacency order. SEAL protocol:
        // mask the target link out of its own subgraph (coupling arcs
        // between local 0 and 1), as in `SubgraphSampler`.
        let Subgraph {
            nodes,
            src,
            dst,
            edge_types,
            ..
        } = out;
        src.clear();
        dst.clear();
        edge_types.clear();
        let mut push_arc = |i: usize, j: usize, t: u8| {
            if t >= 2 && i + j == 1 {
                return;
            }
            src.push(j);
            dst.push(i);
            edge_types.push(t as usize);
        };
        let graph = self.graph;
        let degree_sum: usize = nodes.iter().map(|&v| graph.degree(v)).sum();
        for (i, &v) in nodes.iter().enumerate() {
            let (nbrs, tys) = graph.adjacency(v);
            if 2 * nbrs.len() <= degree_sum {
                for (&w, &t) in nbrs.iter().zip(tys) {
                    if let Some(j) = self.seen.get(w) {
                        push_arc(i, j as usize, t);
                    }
                }
                continue;
            }
            // A hub (a supply net, say) has more arcs than every other
            // kept node together, and almost none of them stay inside
            // the subgraph: find them from the other side instead. Each
            // arc `u → v` names its twin's slot in `v`'s list; sorting by
            // that slot restores `v`'s adjacency order.
            self.hub_arcs.clear();
            let first = graph.first_slot(v);
            for (j, &u) in nodes.iter().enumerate() {
                if j == i {
                    continue;
                }
                let base = graph.first_slot(u);
                for (k, &w) in graph.adjacency(u).0.iter().enumerate() {
                    if w == v {
                        let slot = graph.reverse_slot(base + k) - first;
                        self.hub_arcs.push((slot as u32, j as u32));
                    }
                }
            }
            self.hub_arcs.sort_unstable();
            for &(slot, j) in &self.hub_arcs {
                push_arc(i, j as usize, tys[slot as usize]);
            }
        }
        out.num_anchors = 2;

        // Phase 3: clamped local BFS distances to each anchor over a
        // reusable CSR (distances are traversal-order independent, so
        // this matches `Subgraph::bfs_local` exactly).
        self.build_local_csr(n_local, &out.src, &out.dst);
        Self::local_bfs(
            &mut out.dist_a,
            &mut self.queue,
            &self.csr_off,
            &self.csr_adj,
            n_local,
            0,
        );
        Self::local_bfs(
            &mut out.dist_b,
            &mut self.queue,
            &self.csr_off,
            &self.csr_adj,
            n_local,
            1,
        );
    }

    /// Builds the reusable CSR over the induced directed arcs; the
    /// per-node arc order equals `bfs_local`'s push order (arc-list
    /// order), which the BFS result does not depend on anyway.
    fn build_local_csr(&mut self, n: usize, src: &[usize], dst: &[usize]) {
        self.csr_off.clear();
        self.csr_off.resize(n + 1, 0);
        for &s in src {
            self.csr_off[s + 1] += 1;
        }
        for i in 0..n {
            self.csr_off[i + 1] += self.csr_off[i];
        }
        self.csr_cur.clear();
        self.csr_cur.extend_from_slice(&self.csr_off[..n]);
        self.csr_adj.clear();
        self.csr_adj.resize(src.len(), 0);
        for (&s, &d) in src.iter().zip(dst) {
            let c = &mut self.csr_cur[s];
            self.csr_adj[*c as usize] = d as u32;
            *c += 1;
        }
    }

    /// BFS from a local source, clamped to [`UNREACHABLE`] — the same
    /// frontier cutoff as `Subgraph::bfs_local`.
    fn local_bfs(
        dist: &mut Vec<u32>,
        queue: &mut Vec<u32>,
        csr_off: &[u32],
        csr_adj: &[u32],
        n: usize,
        source: u32,
    ) {
        dist.clear();
        dist.resize(n, UNREACHABLE);
        queue.clear();
        dist[source as usize] = 0;
        queue.push(source);
        let mut head = 0;
        while head < queue.len() {
            let v = queue[head] as usize;
            head += 1;
            let dv = dist[v];
            if dv >= UNREACHABLE - 1 {
                continue;
            }
            for &w in &csr_adj[csr_off[v] as usize..csr_off[v + 1] as usize] {
                if dist[w as usize] == UNREACHABLE {
                    dist[w as usize] = dv + 1;
                    queue.push(w);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SubgraphSampler;
    use circuit_graph::{EdgeType, GraphBuilder, NodeType};

    fn assert_bitwise_eq(a: &Subgraph, b: &Subgraph, ctx: &str) {
        assert_eq!(a.nodes, b.nodes, "{ctx}: nodes");
        assert_eq!(a.node_types, b.node_types, "{ctx}: node_types");
        let xa: Vec<u32> = a.xc.iter().map(|x| x.to_bits()).collect();
        let xb: Vec<u32> = b.xc.iter().map(|x| x.to_bits()).collect();
        assert_eq!(xa, xb, "{ctx}: xc bits");
        assert_eq!(a.src, b.src, "{ctx}: src");
        assert_eq!(a.dst, b.dst, "{ctx}: dst");
        assert_eq!(a.edge_types, b.edge_types, "{ctx}: edge_types");
        assert_eq!(a.num_anchors, b.num_anchors, "{ctx}: num_anchors");
        assert_eq!(a.dist_a, b.dist_a, "{ctx}: dist_a");
        assert_eq!(a.dist_b, b.dist_b, "{ctx}: dist_b");
    }

    /// Path graph with alternating types and distinguishable XC rows.
    fn path(n: usize) -> CircuitGraph {
        let mut b = GraphBuilder::new();
        let ids: Vec<u32> = (0..n)
            .map(|i| {
                let v = b.add_node(
                    if i % 2 == 0 {
                        NodeType::Net
                    } else {
                        NodeType::Pin
                    },
                    &format!("v{i}"),
                );
                b.set_xc(v, 0, i as f32 + 0.5);
                v
            })
            .collect();
        for w in ids.windows(2) {
            b.add_edge(w[0], w[1], EdgeType::NetPin);
        }
        b.build()
    }

    /// Star with a coupling edge between two leaves (exercises the
    /// SEAL target-masking branch).
    fn star_with_coupling(leaves: usize) -> CircuitGraph {
        let mut b = GraphBuilder::new();
        let c = b.add_node(NodeType::Net, "c");
        let ids: Vec<u32> = (0..leaves)
            .map(|i| {
                let v = b.add_node(NodeType::Pin, &format!("l{i}"));
                b.add_edge(c, v, EdgeType::NetPin);
                v
            })
            .collect();
        b.add_edge(ids[0], ids[1], EdgeType::CouplingPinPin);
        b.build()
    }

    #[test]
    fn matches_subgraph_sampler_on_paths() {
        for hops in [1u32, 2, 3] {
            let g = path(11);
            let cfg = SamplerConfig {
                hops,
                max_nodes: 100,
            };
            let mut reference = SubgraphSampler::new(&g, cfg);
            let mut sweep = SweepSampler::new(&g, cfg);
            for (m, n) in [(0u32, 1u32), (2, 3), (5, 6), (0, 10), (9, 3)] {
                let want = reference.enclosing_subgraph(m, n);
                let got = sweep.enclosing_subgraph(m, n);
                assert_bitwise_eq(&got, &want, &format!("hops {hops} pair ({m},{n})"));
            }
        }
    }

    #[test]
    fn matches_with_target_masking_and_truncation() {
        let g = star_with_coupling(30);
        for max_nodes in [4usize, 10, 100] {
            let cfg = SamplerConfig { hops: 1, max_nodes };
            let mut reference = SubgraphSampler::new(&g, cfg);
            let mut sweep = SweepSampler::new(&g, cfg);
            // (1,2) is the coupled leaf pair — its target edge must be
            // masked identically; (0,1) spans center and leaf.
            for (m, n) in [(1u32, 2u32), (2, 1), (0, 1), (0, 5)] {
                let want = reference.enclosing_subgraph(m, n);
                let got = sweep.enclosing_subgraph(m, n);
                assert_bitwise_eq(&got, &want, &format!("max {max_nodes} pair ({m},{n})"));
            }
        }
    }

    #[test]
    fn extract_into_reuses_buffers_across_pairs() {
        let g = path(9);
        let cfg = SamplerConfig::default();
        let mut reference = SubgraphSampler::new(&g, cfg);
        let mut sweep = SweepSampler::new(&g, cfg);
        let mut out = sweep.enclosing_subgraph(0, 1);
        // Re-extract into the same buffers repeatedly, including going
        // from a larger to a smaller neighborhood and back.
        for (m, n) in [(3u32, 4u32), (0, 8), (7, 8), (2, 6), (3, 4)] {
            sweep.extract_into(m, n, &mut out);
            let want = reference.enclosing_subgraph(m, n);
            assert_bitwise_eq(&out, &want, &format!("pair ({m},{n})"));
        }
    }

    #[test]
    fn disconnected_anchors_match() {
        let mut b = GraphBuilder::new();
        let n0 = b.add_node(NodeType::Net, "n0");
        let p1 = b.add_node(NodeType::Pin, "p1");
        let n2 = b.add_node(NodeType::Net, "n2");
        let p3 = b.add_node(NodeType::Pin, "p3");
        b.add_edge(n0, p1, EdgeType::NetPin);
        b.add_edge(n2, p3, EdgeType::NetPin);
        let g = b.build();
        let cfg = SamplerConfig::default();
        let want = SubgraphSampler::new(&g, cfg).enclosing_subgraph(n0, n2);
        let got = SweepSampler::new(&g, cfg).enclosing_subgraph(n0, n2);
        assert_bitwise_eq(&got, &want, "disconnected");
        assert_eq!(
            got.dist_a[got.nodes.iter().position(|&v| v == n2).unwrap()],
            { UNREACHABLE }
        );
    }

    #[test]
    #[should_panic(expected = "link anchors must differ")]
    fn equal_anchors_panic() {
        let g = path(3);
        let _ = SweepSampler::new(&g, SamplerConfig::default()).enclosing_subgraph(1, 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_anchor_panics() {
        let g = path(3);
        let _ = SweepSampler::new(&g, SamplerConfig::default()).enclosing_subgraph(0, 9);
    }
}
