//! Property-based tests for the adaptive TPM core: session invariants,
//! cost-model conservation, and double-greedy structural properties.

use atpm_core::cost::{predefined_costs, split_total_cost, CostSplit};
use atpm_core::oracle::ExactOracle;
use atpm_core::policies::{Adg, Ars, Hatp, Ndg};
use atpm_core::runner::{evaluate_adaptive, evaluate_nonadaptive};
use atpm_core::{AdaptiveSession, NonadaptivePolicy, TpmInstance};
use atpm_graph::GraphBuilder;
use proptest::prelude::*;

/// Arbitrary tiny instance (m <= 10 edges so the exact oracle stays cheap),
/// with ρ(T) >= 0 enforced as the paper assumes.
fn arb_instance() -> impl Strategy<Value = TpmInstance> {
    (3usize..7)
        .prop_flat_map(|n| {
            let edges =
                proptest::collection::vec((0..n as u32, 0..n as u32, 0.1f32..0.9f32), 1..10);
            let k = 2usize..4;
            let costs = proptest::collection::vec(0.2f64..2.0, 3);
            (Just(n), edges, k, costs)
        })
        .prop_map(|(n, edges, k, costs)| {
            let mut b = GraphBuilder::new(n);
            for (u, v, p) in edges {
                if u != v {
                    b.add_edge(u, v, p).unwrap();
                }
            }
            let g = b.build();
            let k = k.min(n);
            let target: Vec<u32> = (0..k as u32).collect();
            let mut costs: Vec<f64> = costs[..k].to_vec();
            let spread = atpm_diffusion::exact_spread(&&g, &target);
            let total: f64 = costs.iter().sum();
            if total > spread {
                let shrink = spread / total;
                costs.iter_mut().for_each(|c| *c *= shrink);
            }
            TpmInstance::new(g, target, &costs)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Session ledger invariants, checked against the cascades `select`
    /// returned rather than against the session's own bookkeeping: the
    /// cascades are pairwise disjoint, their sizes sum to
    /// `total_activated`, every member reads as activated, profit equals
    /// activated − cost, and selections are unique.
    #[test]
    fn session_ledger_invariants(inst in arb_instance(), world in 0u64..300) {
        let mut s = AdaptiveSession::new(&inst, world);
        let target = inst.target().to_vec();
        let mut seen = std::collections::HashSet::new();
        for &u in &target {
            if !s.is_activated(u) {
                let cascade = s.select(u);
                prop_assert!(cascade.contains(&u));
                for &v in &cascade {
                    prop_assert!(seen.insert(v), "node {} in two cascades", v);
                }
            }
        }
        prop_assert_eq!(seen.len(), s.total_activated());
        for &v in &seen {
            prop_assert!(s.is_activated(v));
        }
        let expected = s.total_activated() as f64 - inst.cost_of(s.selected());
        prop_assert!((s.profit() - expected).abs() < 1e-9);
        // Uniqueness of selections.
        let mut sel = s.selected().to_vec();
        sel.sort_unstable();
        sel.dedup();
        prop_assert_eq!(sel.len(), s.selected().len());
    }

    /// ADG's double greedy never selects a node whose exact front and rear
    /// profits are both negative, and per-world profits are bounded by
    /// [−c(T), n].
    #[test]
    fn adg_profit_bounds(inst in arb_instance()) {
        let worlds: Vec<u64> = (0..6).collect();
        let s = evaluate_adaptive(&inst, &mut Adg::new(ExactOracle), &worlds);
        for p in &s.profits {
            prop_assert!(*p >= -inst.total_cost() - 1e-9);
            prop_assert!(*p <= inst.graph().num_nodes() as f64 + 1e-9);
        }
    }

    /// The cost splits conserve total mass and produce nonnegative costs on
    /// arbitrary graphs and budgets.
    #[test]
    fn cost_splits_conserve_mass(
        inst in arb_instance(),
        total in 0.0f64..50.0,
        seed in 0u64..100,
    ) {
        let g = inst.graph();
        let target = inst.target();
        for split in [
            CostSplit::DegreeProportional,
            CostSplit::Uniform,
            CostSplit::Random { seed },
        ] {
            let costs = split_total_cost(g, target, split, total);
            prop_assert_eq!(costs.len(), target.len());
            prop_assert!(costs.iter().all(|c| *c >= 0.0));
            let sum: f64 = costs.iter().sum();
            prop_assert!((sum - total).abs() < 1e-6 * total.max(1.0));
        }
        // Predefined-λ: mean cost equals λ.
        let lam = 1.5;
        let costs = predefined_costs(g, lam, CostSplit::Uniform);
        let mean = costs.iter().sum::<f64>() / costs.len() as f64;
        prop_assert!((mean - lam).abs() < 1e-9);
    }

    /// ARS with probability 1 equals "select every examinable target":
    /// its profit matches the session where we select everything.
    #[test]
    fn ars_prob_one_is_take_all(inst in arb_instance(), world in 0u64..100) {
        let mut ars = Ars { prob: 1.0, seed: 0 };
        let s1 = evaluate_adaptive(&inst, &mut ars, &[world]);
        // Manual take-all.
        let mut session = AdaptiveSession::new(&inst, world);
        for &u in inst.target() {
            if !session.is_activated(u) {
                session.select(u);
            }
        }
        prop_assert!((s1.profits[0] - session.profit()).abs() < 1e-9);
    }

    /// NDG examined with an exact-scale batch still returns a subset of T in
    /// examination order.
    #[test]
    fn ndg_output_is_ordered_subset(inst in arb_instance()) {
        let mut ndg = Ndg::new(4000, 3, 2);
        let sel = ndg.select(&inst).0;
        let target = inst.target();
        // Subset.
        prop_assert!(sel.iter().all(|u| target.contains(u)));
        // Order preserved.
        let positions: Vec<usize> = sel
            .iter()
            .map(|u| target.iter().position(|t| t == u).unwrap())
            .collect();
        prop_assert!(positions.windows(2).all(|w| w[0] < w[1]));
    }

    /// HATP terminates and respects the same structural bounds under
    /// arbitrary (valid) parameterizations.
    #[test]
    fn hatp_parameter_robustness(
        inst in arb_instance(),
        eps0 in 0.2f64..0.9,
        nzeta in 2.0f64..128.0,
        thr_frac in 0.05f64..1.0,
    ) {
        let mut hatp = Hatp {
            eps0,
            initial_nzeta: nzeta,
            eps_threshold: (eps0 * thr_frac).max(0.02),
            seed: 9,
            threads: 1,
            ..Default::default()
        };
        let s = evaluate_adaptive(&inst, &mut hatp, &[1, 2]);
        for p in &s.profits {
            prop_assert!(p.is_finite());
            prop_assert!(*p >= -inst.total_cost() - 1e-9);
        }
    }
}

/// Non-proptest guard: evaluate_nonadaptive scores the same set every world.
#[test]
fn nonadaptive_seed_count_is_constant_across_worlds() {
    let mut b = GraphBuilder::new(4);
    b.add_edge(0, 1, 0.5).unwrap();
    let inst = TpmInstance::new(b.build(), vec![0, 2], &[0.3, 0.3]);
    let mut ndg = Ndg::new(2000, 1, 1);
    let s = evaluate_nonadaptive(&inst, &mut ndg, &[1, 2, 3, 4]);
    assert!(s.seeds_per_run.windows(2).all(|w| w[0] == w[1]));
}
