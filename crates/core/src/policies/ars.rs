//! ARS / RS — (adaptive) random set baselines \[10\] (§VI-A).
//!
//! RS selects each candidate independently with probability 1/2 — Feige et
//! al.'s ¼-approximation for nonnegative unconstrained submodular
//! maximization. ARS is the paper's adaptive extension: examine targets in
//! order, skip the ones already activated, flip a fair coin for the rest and
//! observe/remove the cascade after every selection.

use atpm_graph::Node;
use atpm_ris::NodeSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::instance::TpmInstance;
use crate::session::AdaptiveSession;
use crate::stepper::{KeepRule, TargetWalk};
use crate::{AdaptivePolicy, NonadaptivePolicy};

/// Adaptive random set.
#[derive(Debug, Clone)]
pub struct Ars {
    /// Selection probability (the paper and \[10\] use 0.5).
    pub prob: f64,
    /// Base RNG seed; coins also mix in the session's world seed so each
    /// realization draws fresh coins.
    pub seed: u64,
}

impl Default for Ars {
    fn default() -> Self {
        Ars { prob: 0.5, seed: 0 }
    }
}

impl AdaptivePolicy for Ars {
    type Stepper<'a> = TargetWalk<ArsRule>;

    fn stepper(&mut self) -> TargetWalk<ArsRule> {
        assert!((0.0..=1.0).contains(&self.prob), "prob must be in [0,1]");
        let rule = ArsRule {
            cfg: self.clone(),
            rng: None,
        };
        TargetWalk::new("ARS", rule)
    }
}

/// ARS's keep rule: one coin per examined candidate. Coins mix in the
/// session's world seed, so the RNG is created lazily on the first
/// candidate.
pub struct ArsRule {
    cfg: Ars,
    rng: Option<StdRng>,
}

impl KeepRule for ArsRule {
    type Segment = ();

    fn segment(&self, _: &AdaptiveSession<'_>, _: &NodeSet) {}

    fn keep(
        &mut self,
        _: &mut (),
        session: &mut AdaptiveSession<'_>,
        _: usize,
        _: &NodeSet,
    ) -> bool {
        let world = session.world_seed();
        let seed = self.cfg.seed;
        self.rng
            .get_or_insert_with(|| {
                StdRng::seed_from_u64(seed ^ world.wrapping_mul(0x9E3779B97F4A7C15))
            })
            .gen_bool(self.cfg.prob)
    }
}

/// Nonadaptive random set.
#[derive(Debug, Clone)]
pub struct Rs {
    /// Selection probability (0.5 in \[10\]).
    pub prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Rs {
    fn default() -> Self {
        Rs { prob: 0.5, seed: 0 }
    }
}

impl NonadaptivePolicy for Rs {
    fn name(&self) -> &'static str {
        "RS"
    }

    fn select(&mut self, instance: &TpmInstance) -> (Vec<Node>, u64) {
        assert!((0.0..=1.0).contains(&self.prob), "prob must be in [0,1]");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let seeds = instance
            .target()
            .iter()
            .copied()
            .filter(|_| rng.gen_bool(self.prob))
            .collect();
        (seeds, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{evaluate_adaptive, evaluate_nonadaptive, standard_worlds};
    use atpm_graph::GraphBuilder;

    fn instance() -> TpmInstance {
        let mut b = GraphBuilder::new(6);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(2, 3, 1.0).unwrap();
        TpmInstance::new(b.build(), vec![0, 1, 2, 4], &[0.5; 4])
    }

    #[test]
    fn ars_skips_activated_nodes() {
        // Selecting 0 always activates 1; ARS must never select 1 afterwards.
        let inst = instance();
        let mut p = Ars::default();
        let s = evaluate_adaptive(&inst, &mut p, &standard_worlds(3));
        // Over 20 worlds with p=0.5, node 0 is selected ~10 times; whenever
        // it is, node 1 must have been skipped. We can't observe selections
        // directly here, but no run may pay for both 0 and 1:
        // profit would still be fine; instead check seed counts <= 3 when 0
        // selected... simplest sound check: selected set sizes <= 4 and
        // profits >= -c(T).
        for (profit, seeds) in s.profits.iter().zip(&s.seeds_per_run) {
            assert!(*seeds <= 4);
            assert!(*profit >= -2.0 - 1e-9);
        }
    }

    #[test]
    fn ars_coins_vary_across_worlds() {
        let inst = instance();
        let mut p = Ars::default();
        let s = evaluate_adaptive(&inst, &mut p, &standard_worlds(4));
        let distinct: std::collections::HashSet<usize> = s.seeds_per_run.iter().copied().collect();
        assert!(
            distinct.len() > 1,
            "different worlds should flip different coins"
        );
    }

    #[test]
    fn ars_prob_one_selects_every_unactivated_target() {
        let inst = instance();
        let mut p = Ars { prob: 1.0, seed: 0 };
        let s = evaluate_adaptive(&inst, &mut p, &[1]);
        // 0 selected -> 1 activated & skipped; 2 selected -> 3 activated
        // (not a target); 4 selected. So exactly 3 seeds.
        assert_eq!(s.seeds_per_run, vec![3]);
    }

    #[test]
    fn rs_is_deterministic_and_respects_prob() {
        let inst = instance();
        let mut p1 = Rs { prob: 0.5, seed: 7 };
        let mut p2 = Rs { prob: 0.5, seed: 7 };
        assert_eq!(p1.select(&inst), p2.select(&inst));
        let mut all = Rs { prob: 1.0, seed: 7 };
        assert_eq!(all.select(&inst).0, inst.target());
        let mut none = Rs { prob: 0.0, seed: 7 };
        assert!(none.select(&inst).0.is_empty());
    }

    #[test]
    fn rs_evaluation_runs() {
        let inst = instance();
        let mut p = Rs::default();
        let s = evaluate_nonadaptive(&inst, &mut p, &standard_worlds(5));
        assert_eq!(s.profits.len(), 20);
    }
}
