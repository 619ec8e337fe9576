//! Property-based tests for the graph substrate.

use std::collections::{HashMap, HashSet};

use atpm_graph::{Graph, GraphBuilder, GraphView, ResidualGraph};
use proptest::prelude::*;

/// Arbitrary edge lists over a small node universe.
fn edge_list_strategy(max_n: u32) -> impl Strategy<Value = (u32, Vec<(u32, u32, f32)>)> {
    (2..max_n).prop_flat_map(move |n| {
        let edges = proptest::collection::vec((0..n, 0..n, 0.01f32..=1.0f32), 0..60);
        (Just(n), edges)
    })
}

/// Every edge's baked threshold, forward slot order.
fn thresholds(g: &Graph) -> Vec<u32> {
    (0..g.num_nodes() as u32)
        .flat_map(|u| g.out_slice(u).1.to_vec())
        .collect()
}

proptest! {
    /// CSR invariants hold for every input: degrees sum to m, forward and
    /// reverse adjacency describe the same edge multiset, and every in-edge
    /// carries the threshold of the forward edge with the same endpoints.
    #[test]
    fn csr_invariants((n, edges) in edge_list_strategy(24)) {
        let mut b = GraphBuilder::new(n as usize);
        for &(u, v, p) in &edges {
            b.add_edge(u, v, p).unwrap();
        }
        let g = b.build();

        let out_sum: usize = (0..n).map(|u| g.out_degree(u)).sum();
        let in_sum: usize = (0..n).map(|u| g.in_degree(u)).sum();
        prop_assert_eq!(out_sum, g.num_edges());
        prop_assert_eq!(in_sum, g.num_edges());

        // Forward edge set == reverse edge set.
        let fwd: HashMap<(u32, u32), u32> = (0..n)
            .flat_map(|u| {
                let (targets, thr) = g.out_slice(u);
                targets.iter().zip(thr).map(move |(&v, &t)| ((u, v), t))
            })
            .collect();
        let mut rev = HashMap::new();
        for v in 0..n {
            let (sources, thr) = g.in_slice(v);
            for (&u, &t) in sources.iter().zip(thr) {
                rev.insert((u, v), t);
            }
        }
        prop_assert_eq!(fwd, rev);

        // No self loops survive, no duplicate (u, v) pairs survive.
        prop_assert!(g.edges().all(|(u, v, _)| u != v));
        let pairs: Vec<(u32, u32)> = g.edges().map(|(u, v, _)| (u, v)).collect();
        let dedup: HashSet<_> = pairs.iter().copied().collect();
        prop_assert_eq!(pairs.len(), dedup.len());
    }

    /// Building from any permutation of the edge list yields the same graph.
    #[test]
    fn build_is_order_independent((n, mut edges) in edge_list_strategy(16), seed in 0u64..1000) {
        let mut b1 = GraphBuilder::new(n as usize);
        for &(u, v, p) in &edges {
            b1.add_edge(u, v, p).unwrap();
        }
        let g1 = b1.build();

        // Deterministic shuffle driven by `seed`.
        let len = edges.len();
        if len > 1 {
            let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            for i in (1..len).rev() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                edges.swap(i, (state % (i as u64 + 1)) as usize);
            }
        }
        let mut b2 = GraphBuilder::new(n as usize);
        for &(u, v, p) in &edges {
            b2.add_edge(u, v, p).unwrap();
        }
        let g2 = b2.build();
        prop_assert_eq!(g1.edges().collect::<Vec<_>>(), g2.edges().collect::<Vec<_>>());
    }

    /// Text and binary IO round-trip arbitrary graphs exactly: every baked
    /// threshold survives bit for bit. Each probability is scaled by a
    /// log-uniform factor down to 2^-20, so many fall below 2^-9, where the
    /// threshold lattice does not represent the `f32` the edge was built
    /// from.
    #[test]
    fn io_round_trips(
        (n, edges) in edge_list_strategy(16),
        scale in proptest::collection::vec(-20.0f32..=0.0, 60),
    ) {
        let mut b = GraphBuilder::new(n as usize);
        for (&(u, v, p), &s) in edges.iter().zip(&scale) {
            b.add_edge(u, v, p * s.exp2()).unwrap();
        }
        let g = b.build();

        let mut bin = Vec::new();
        atpm_graph::io::write_binary(&g, &mut bin).unwrap();
        let g2 = atpm_graph::io::read_binary(&bin[..]).unwrap();
        prop_assert_eq!(g.edges().collect::<Vec<_>>(), g2.edges().collect::<Vec<_>>());
        prop_assert_eq!(thresholds(&g), thresholds(&g2));

        let mut txt = Vec::new();
        atpm_graph::io::write_edge_list(&g, &mut txt).unwrap();
        let g3 = atpm_graph::io::read_edge_list(&txt[..], Some(n as usize), 0.5, false).unwrap();
        prop_assert_eq!(g.edges().collect::<Vec<_>>(), g3.edges().collect::<Vec<_>>());
        prop_assert_eq!(thresholds(&g), thresholds(&g3));
    }

    /// Residual views: alive count equals n minus distinct removals, and the
    /// alive iterator agrees with `is_alive` point queries.
    #[test]
    fn residual_view_consistency(
        (n, edges) in edge_list_strategy(32),
        removals in proptest::collection::vec(0u32..32, 0..40),
    ) {
        let mut b = GraphBuilder::new(n as usize);
        for &(u, v, p) in &edges {
            b.add_edge(u, v, p).unwrap();
        }
        let g = b.build();
        let mut r = ResidualGraph::new(&g);
        let mut removed: HashSet<u32> = HashSet::new();
        for &u in removals.iter().filter(|&&u| u < n) {
            r.remove(u);
            removed.insert(u);
        }
        prop_assert_eq!(r.num_alive(), n as usize - removed.len());
        let alive: HashSet<u32> = r.alive_nodes().collect();
        prop_assert_eq!(alive.len(), r.num_alive());
        for u in 0..n {
            prop_assert_eq!(alive.contains(&u), r.is_alive(u));
            prop_assert_eq!(removed.contains(&u), !r.is_alive(u));
        }
    }
}
