//! Mutable edge accumulator that produces an immutable CSR [`Graph`].

use crate::error::GraphError;
use crate::{quantize_prob, Graph, Node};

/// Accumulates edges and assembles the dual-CSR [`Graph`].
///
/// * self-loops are rejected at insertion time (the IC model never uses them);
/// * duplicate directed edges are merged at [`build`](GraphBuilder::build)
///   time by *noisy-or*: `p = 1 − Π(1 − p_i)`, which is the IC-correct way to
///   collapse parallel activation attempts;
/// * insertion order is irrelevant — the builder sorts edges into canonical
///   `(src, dst)` order, so two builders fed the same multiset of edges
///   produce byte-identical graphs.
pub struct GraphBuilder {
    n: usize,
    edges: Vec<(Node, Node, f32)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph over nodes `0..n`.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
        }
    }

    /// Creates a builder and pre-reserves space for `m` edges.
    pub fn with_capacity(n: usize, m: usize) -> Self {
        GraphBuilder {
            n,
            edges: Vec::with_capacity(m),
        }
    }

    /// Number of nodes this builder was created with.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of edges added so far (before dedup).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds the directed edge `src -> dst` with activation probability `prob`.
    ///
    /// Self-loops are silently dropped (they can never change a cascade).
    /// Returns an error if either endpoint is out of range or `prob ∉ (0, 1]`.
    pub fn add_edge(&mut self, src: Node, dst: Node, prob: f32) -> Result<(), GraphError> {
        if src as usize >= self.n {
            return Err(GraphError::NodeOutOfRange {
                node: src as u64,
                num_nodes: self.n as u64,
            });
        }
        if dst as usize >= self.n {
            return Err(GraphError::NodeOutOfRange {
                node: dst as u64,
                num_nodes: self.n as u64,
            });
        }
        if !(prob > 0.0 && prob <= 1.0) {
            return Err(GraphError::InvalidProbability {
                src: src as u64,
                dst: dst as u64,
                prob: prob as f64,
            });
        }
        if src == dst {
            return Ok(());
        }
        self.edges.push((src, dst, prob));
        Ok(())
    }

    /// Adds both directions of an undirected edge with the same probability.
    /// Used for collaboration networks (NetHEPT, DBLP) which the paper treats
    /// as bidirectional influence.
    pub fn add_undirected(&mut self, a: Node, b: Node, prob: f32) -> Result<(), GraphError> {
        self.add_edge(a, b, prob)?;
        self.add_edge(b, a, prob)
    }

    /// Sorts, merges duplicates, and assembles the immutable CSR graph.
    pub fn build(self) -> Graph {
        self.try_build()
            .expect("edge count validated on insertion; u32 overflow is the only failure")
    }

    /// Like [`build`](Self::build) but surfaces the (pathological) failure of
    /// exceeding the `u32` edge-id space instead of panicking.
    pub fn try_build(mut self) -> Result<Graph, GraphError> {
        let n = self.n;
        // Canonical order + noisy-or merge of duplicates. Probabilities are
        // part of the sort key (positive f32s order like their bit patterns)
        // so duplicate merging is float-exact regardless of insertion order.
        self.edges
            .sort_unstable_by_key(|e| (e.0, e.1, e.2.to_bits()));
        let mut merged: Vec<(Node, Node, f32)> = Vec::with_capacity(self.edges.len());
        for (src, dst, p) in self.edges {
            match merged.last_mut() {
                Some(last) if last.0 == src && last.1 == dst => {
                    // 1 - (1-p1)(1-p2): probability that at least one of the
                    // parallel activation attempts succeeds.
                    last.2 = 1.0 - (1.0 - last.2) * (1.0 - p);
                }
                _ => merged.push((src, dst, p)),
            }
        }
        let m = merged.len();
        if m > u32::MAX as usize {
            return Err(GraphError::TooManyEdges { edges: m as u64 });
        }

        // Forward CSR (edges are already sorted by src); the reverse side
        // is laid out from it.
        let mut out_lo = vec![0u32; n + 1];
        for &(src, _, _) in &merged {
            out_lo[src as usize + 1] += 1;
        }
        for i in 0..n {
            out_lo[i + 1] += out_lo[i];
        }
        let targets = merged.iter().map(|&(_, dst, _)| dst).collect();
        let thresholds = merged.iter().map(|&(_, _, p)| quantize_prob(p)).collect();
        Ok(Graph::from_forward(&out_lo, targets, thresholds))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_out_of_range_nodes() {
        let mut b = GraphBuilder::new(3);
        assert!(matches!(
            b.add_edge(0, 3, 0.5),
            Err(GraphError::NodeOutOfRange { node: 3, .. })
        ));
        assert!(matches!(
            b.add_edge(7, 0, 0.5),
            Err(GraphError::NodeOutOfRange { node: 7, .. })
        ));
    }

    #[test]
    fn rejects_bad_probabilities() {
        let mut b = GraphBuilder::new(3);
        for p in [0.0f32, -0.1, 1.5, f32::NAN, f32::INFINITY] {
            assert!(
                matches!(
                    b.add_edge(0, 1, p),
                    Err(GraphError::InvalidProbability { .. })
                ),
                "p = {p} should be rejected"
            );
        }
        assert!(b.add_edge(0, 1, 1.0).is_ok());
        assert!(b.add_edge(0, 1, f32::MIN_POSITIVE).is_ok());
    }

    #[test]
    fn drops_self_loops() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0, 0.9).unwrap();
        b.add_edge(0, 1, 0.9).unwrap();
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn merges_duplicates_with_noisy_or() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(0, 1, 0.5).unwrap();
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        let (_, thresholds) = g.out_slice(0);
        assert_eq!(
            thresholds,
            &[quantize_prob(0.75)],
            "noisy-or of two 0.5s is 0.75"
        );
    }

    #[test]
    fn insertion_order_does_not_matter() {
        let edges = [(0u32, 1u32, 0.3f32), (2, 0, 0.7), (1, 2, 0.9), (0, 2, 0.4)];
        let mut b1 = GraphBuilder::new(3);
        for &(u, v, p) in &edges {
            b1.add_edge(u, v, p).unwrap();
        }
        let mut b2 = GraphBuilder::new(3);
        for &(u, v, p) in edges.iter().rev() {
            b2.add_edge(u, v, p).unwrap();
        }
        let g1 = b1.build();
        let g2 = b2.build();
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
    }

    #[test]
    fn undirected_adds_both_arcs() {
        let mut b = GraphBuilder::new(2);
        b.add_undirected(0, 1, 0.5).unwrap();
        let g = b.build();
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.out_degree(1), 1);
    }
}
