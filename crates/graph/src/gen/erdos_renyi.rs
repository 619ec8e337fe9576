//! Erdős–Rényi G(n, m) graphs: every edge slot equally likely.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Graph, GraphBuilder, Node};

/// Generates a directed G(n, m) graph: `m` distinct directed edges drawn
/// uniformly without self-loops. Edge probabilities are set to 1.0
/// placeholders; apply a [`crate::WeightingScheme`] afterwards.
///
/// Panics if `m` exceeds the number of possible edges `n(n-1)`.
pub fn gnm_directed(n: usize, m: usize, seed: u64) -> Graph {
    assert!(n >= 2 || m == 0, "need at least two nodes for any edge");
    let possible = n.saturating_mul(n.saturating_sub(1));
    assert!(
        m <= possible,
        "requested {m} edges but only {possible} possible"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::with_capacity(m * 2);
    let mut b = GraphBuilder::with_capacity(n, m);
    while seen.len() < m {
        let u = rng.gen_range(0..n as Node);
        let v = rng.gen_range(0..n as Node);
        if u == v {
            continue;
        }
        let key = (u as u64) << 32 | v as u64;
        if seen.insert(key) {
            b.add_edge(u, v, 1.0).expect("validated endpoints");
        }
    }
    b.build()
}

/// Generates an undirected G(n, m) graph (`m` undirected edges, stored as
/// `2m` arcs).
pub fn gnm_undirected(n: usize, m: usize, seed: u64) -> Graph {
    assert!(n >= 2 || m == 0, "need at least two nodes for any edge");
    let possible = n.saturating_mul(n.saturating_sub(1)) / 2;
    assert!(
        m <= possible,
        "requested {m} edges but only {possible} possible"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::with_capacity(m * 2);
    let mut b = GraphBuilder::with_capacity(n, 2 * m);
    while seen.len() < m {
        let u = rng.gen_range(0..n as Node);
        let v = rng.gen_range(0..n as Node);
        if u == v {
            continue;
        }
        let (lo, hi) = (u.min(v), u.max(v));
        let key = (lo as u64) << 32 | hi as u64;
        if seen.insert(key) {
            b.add_undirected(lo, hi, 1.0).expect("validated endpoints");
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directed_has_exact_edge_count() {
        let g = gnm_directed(50, 200, 1);
        assert_eq!(g.num_nodes(), 50);
        assert_eq!(g.num_edges(), 200);
    }

    #[test]
    fn undirected_stores_two_arcs_per_edge() {
        let g = gnm_undirected(50, 100, 2);
        assert_eq!(g.num_edges(), 200);
        // symmetric adjacency
        for (u, v, _) in g.edges() {
            let (targets, _) = g.out_slice(v);
            assert!(targets.contains(&u), "missing reverse arc {v}->{u}");
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let g1 = gnm_directed(30, 60, 42);
        let g2 = gnm_directed(30, 60, 42);
        let e1: Vec<_> = g1.edges().collect();
        let e2: Vec<_> = g2.edges().collect();
        assert_eq!(e1, e2);
        let g3 = gnm_directed(30, 60, 43);
        let e3: Vec<_> = g3.edges().collect();
        assert_ne!(e1, e3, "different seeds should differ");
    }

    #[test]
    #[should_panic(expected = "possible")]
    fn rejects_impossible_density() {
        let _ = gnm_directed(3, 100, 0);
    }
}
