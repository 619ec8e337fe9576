//! Property-based tests for the influence-maximization substrate.

use atpm_graph::{GraphBuilder, WeightingScheme};
use atpm_im::greedy::max_coverage_greedy_rescan;
use atpm_im::{
    imm_select, max_coverage_greedy, max_coverage_greedy_with, spread_lower_bound, GreedyResult,
    GreedyScratch, ImmConfig,
};
use atpm_ris::sampler::generate_batch;
use atpm_ris::RrCollection;
use proptest::prelude::*;

fn arb_graph() -> impl Strategy<Value = atpm_graph::Graph> {
    (4usize..12)
        .prop_flat_map(|n| {
            let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 3..25);
            (Just(n), edges)
        })
        .prop_map(|(n, edges)| {
            let mut b = GraphBuilder::new(n);
            for (u, v) in edges {
                if u != v {
                    b.add_edge(u, v, 1.0).unwrap();
                }
            }
            WeightingScheme::WeightedCascade.apply(&b.build())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Greedy coverage is monotone in k and never exceeds the collection size.
    #[test]
    fn greedy_coverage_monotone_in_k(g in arb_graph(), seed in 0u64..50) {
        let c = generate_batch(&&g, 500, seed, 1);
        let mut prev = 0usize;
        for k in 1..=4usize {
            let r = max_coverage_greedy(&c, k, None);
            prop_assert!(r.coverage >= prev, "k={}: {} < {}", k, r.coverage, prev);
            prop_assert!(r.coverage <= c.len());
            prev = r.coverage;
        }
    }

    /// Each recorded gain is non-increasing (submodularity of the greedy
    /// trajectory) and sums to the total coverage.
    #[test]
    fn greedy_gains_decrease_and_sum(g in arb_graph(), seed in 0u64..50) {
        let c = generate_batch(&&g, 400, seed, 1);
        let r = max_coverage_greedy(&c, 5, None);
        prop_assert!(r.gains.windows(2).all(|w| w[0] >= w[1]), "{:?}", r.gains);
        prop_assert_eq!(r.gains.iter().sum::<usize>(), r.coverage);
    }

    /// The greedy result covers at least (1 − 1/e) of the best single batch
    /// cover of the same size... which we can only lower-bound by the best
    /// singleton: greedy(k=1) IS the best singleton.
    #[test]
    fn greedy_first_pick_is_argmax(g in arb_graph(), seed in 0u64..50) {
        let c = generate_batch(&&g, 300, seed, 1);
        let r = max_coverage_greedy(&c, 1, None);
        let best = (0..g.num_nodes() as u32).map(|u| c.cov_node(u)).max().unwrap_or(0);
        prop_assert_eq!(r.coverage, best);
    }

    /// Engine equivalence: the decremental CELF returns byte-identical
    /// results to the pre-refactor re-scanning implementation on randomized
    /// collections — unrestricted, candidate-restricted, and with duplicate
    /// candidates — including across scratch reuse.
    #[test]
    fn decremental_celf_equals_rescan_oracle(g in arb_graph(), seed in 0u64..100) {
        let c = generate_batch(&&g, 600, seed, 2);
        let n = g.num_nodes() as u32;
        let mut scratch = GreedyScratch::new();
        let mut result = GreedyResult::default();
        for k in [1usize, 2, 5, 9] {
            let oracle = max_coverage_greedy_rescan(&c, k, None);
            max_coverage_greedy_with(&c, k, None, &mut scratch, &mut result);
            prop_assert_eq!(&result, &oracle, "k = {}", k);

            let candidates: Vec<u32> = (0..n).filter(|u| u % 2 == seed as u32 % 2).collect();
            let oracle = max_coverage_greedy_rescan(&c, k, Some(&candidates));
            max_coverage_greedy_with(&c, k, Some(&candidates), &mut scratch, &mut result);
            prop_assert_eq!(&result, &oracle, "restricted, k = {}", k);

            let dups: Vec<u32> = candidates.iter().chain(candidates.iter()).copied().collect();
            max_coverage_greedy_with(&c, k, Some(&dups), &mut scratch, &mut result);
            prop_assert_eq!(&result, &oracle, "duplicated candidates, k = {}", k);
        }
    }

    /// The spread lower bound is monotone in the seed set.
    #[test]
    fn spread_lower_bound_monotone(g in arb_graph(), seed in 0u64..20) {
        let small = spread_lower_bound(&&g, &[0], 4000, 0.01, seed, 1);
        let all: Vec<u32> = (0..g.num_nodes() as u32).collect();
        let big = spread_lower_bound(&&g, &all, 4000, 0.01, seed, 1);
        prop_assert!(big >= small - 1e-9, "{} < {}", big, small);
        // Full-set coverage is every RR set: LB approaches n but never exceeds.
        prop_assert!(big <= g.num_nodes() as f64 + 1e-9);
    }
}

#[test]
fn imm_estimate_is_unbiased_enough_on_fixed_graph() {
    // Star with hub + chain; IMM's estimate must track exact greedy spread.
    let mut b = GraphBuilder::new(12);
    for v in 1..=6 {
        b.add_edge(0, v, 0.8).unwrap();
    }
    b.add_edge(7, 8, 0.8).unwrap();
    b.add_edge(8, 9, 0.8).unwrap();
    let g = b.build();
    let r = imm_select(
        &&g,
        ImmConfig {
            k: 2,
            eps: 0.2,
            seed: 5,
            ..Default::default()
        },
    );
    assert!(r.seeds.contains(&0), "hub must be selected: {:?}", r.seeds);
    assert!(r.seeds.contains(&7), "chain head is the best second pick");
    let exact = atpm_diffusion::exact_spread(&&g, &r.seeds);
    assert!(
        (r.est_spread - exact).abs() < 0.15 * exact,
        "estimate {} vs exact {exact}",
        r.est_spread
    );
}

#[test]
fn greedy_ties_break_deterministically_by_node_id() {
    let c = RrCollection::from_sets(4, 4, [[1], [2], [3]]);
    let r = max_coverage_greedy(&c, 2, None);
    assert_eq!(r.seeds, vec![1, 2], "equal gains resolve to smaller ids");
}
