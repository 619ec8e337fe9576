//! Property-based tests for realizations and cascades.

use std::collections::HashSet;

use atpm_diffusion::{exact_spread, mc_spread_batched, CascadeEngine, HashedRealization};
use atpm_graph::{GraphBuilder, ResidualGraph};
use proptest::prelude::*;

/// Small random graphs whose exact spread is enumerable (m <= 10).
fn tiny_graph_strategy() -> impl Strategy<Value = atpm_graph::Graph> {
    (2usize..7)
        .prop_flat_map(|n| {
            let edges =
                proptest::collection::vec((0..n as u32, 0..n as u32, 0.1f32..=0.9f32), 0..10);
            (Just(n), edges)
        })
        .prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new(n);
            for (u, v, p) in edges {
                b.add_edge(u, v, p).unwrap();
            }
            b.build()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Adding seeds never shrinks the activated set within one world.
    #[test]
    fn cascade_monotone_in_seeds(g in tiny_graph_strategy(), world in 0u64..500) {
        let real = HashedRealization::new(world);
        let mut eng = CascadeEngine::new();
        let n = g.num_nodes() as u32;
        let seeds_small: Vec<u32> = vec![0];
        let seeds_big: Vec<u32> = (0..n.min(3)).collect();
        let a: HashSet<u32> = eng.observe(&&g, &real, &seeds_small).into_iter().collect();
        let b: HashSet<u32> = eng.observe(&&g, &real, &seeds_big).into_iter().collect();
        prop_assert!(a.is_subset(&b));
    }

    /// Joint observation equals sequential observation with removal in any
    /// world — the adaptive feedback loop's soundness invariant.
    #[test]
    fn sequential_equals_joint(g in tiny_graph_strategy(), world in 0u64..500) {
        let n = g.num_nodes() as u32;
        prop_assume!(n >= 2);
        let real = HashedRealization::new(world);
        let mut eng = CascadeEngine::new();
        let joint: HashSet<u32> = eng.observe(&&g, &real, &[0, n - 1]).into_iter().collect();

        let mut r = ResidualGraph::new(&g);
        let a0 = eng.observe(&r, &real, &[0]);
        r.remove_all(a0.iter().copied());
        let a1 = eng.observe(&r, &real, &[n - 1]);
        let seq: HashSet<u32> = a0.into_iter().chain(a1).collect();
        prop_assert_eq!(joint, seq);
    }

    /// Monte-Carlo spread stays within a generous confidence band of the
    /// exact enumeration (5 sigma with sigma <= n/(2 sqrt(samples))).
    #[test]
    fn mc_tracks_exact(g in tiny_graph_strategy(), seed in 0u64..100) {
        let exact = exact_spread(&&g, &[0]);
        let samples = 4000;
        let mc = mc_spread_batched(&&g, &[0], samples, seed, 1);
        let sigma = g.num_nodes() as f64 / (2.0 * (samples as f64).sqrt());
        prop_assert!(
            (mc - exact).abs() <= 5.0 * sigma + 1e-9,
            "mc {} vs exact {} (sigma {})", mc, exact, sigma
        );
    }

    /// Spread of a set lies between the max single-seed spread and the sum.
    #[test]
    fn exact_spread_subadditive(g in tiny_graph_strategy()) {
        let n = g.num_nodes() as u32;
        prop_assume!(n >= 2);
        let s0 = exact_spread(&&g, &[0]);
        let s1 = exact_spread(&&g, &[1]);
        let joint = exact_spread(&&g, &[0, 1]);
        prop_assert!(joint <= s0 + s1 + 1e-9, "subadditive: {} > {} + {}", joint, s0, s1);
        prop_assert!(joint >= s0.max(s1) - 1e-9, "monotone: {} < max({}, {})", joint, s0, s1);
    }
}
