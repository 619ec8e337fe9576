//! Evaluation harness: score policies over batches of possible worlds.
//!
//! This mirrors the paper's protocol (§VI-A): "we randomly generate 20
//! possible realizations for each dataset, and report the average performance
//! of each tested algorithm on the 20 possible realizations."
//!
//! * Adaptive policies re-run per realization (their decisions depend on the
//!   observed feedback).
//! * Nonadaptive policies select one seed set up front; each realization
//!   then scores that same set.

use std::borrow::Cow;
use std::time::{Duration, Instant};

use atpm_diffusion::{CascadeEngine, HashedRealization};
use atpm_graph::Node;

use crate::instance::TpmInstance;
use crate::session::AdaptiveSession;
use crate::stepper::PolicyStepper;
use crate::{AdaptivePolicy, NonadaptivePolicy};

/// Aggregated evaluation of one policy on one instance.
#[derive(Debug, Clone)]
pub struct EvalSummary {
    /// Policy display name. `Cow` so dynamically-configured policies (e.g.
    /// the serve layer's session manager, which composes names at runtime)
    /// can report owned strings while the built-in policies stay
    /// allocation-free.
    pub algorithm: Cow<'static, str>,
    /// Realized profit per world.
    pub profits: Vec<f64>,
    /// Seeds selected per world (constant for nonadaptive policies).
    pub seeds_per_run: Vec<usize>,
    /// Wall-clock spent inside the policy (selection decisions), excluding
    /// scoring.
    pub decision_time: Duration,
    /// RR sets generated by sampling policies (0 for oracle/random ones).
    pub sampling_work: u64,
}

impl EvalSummary {
    /// Mean profit across worlds.
    pub fn mean_profit(&self) -> f64 {
        if self.profits.is_empty() {
            0.0
        } else {
            self.profits.iter().sum::<f64>() / self.profits.len() as f64
        }
    }

    /// Sample standard deviation of the profit.
    pub fn std_profit(&self) -> f64 {
        let n = self.profits.len();
        if n < 2 {
            return 0.0;
        }
        let mean = self.mean_profit();
        let var = self.profits.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        var.sqrt()
    }

    /// Mean number of selected seeds.
    pub fn mean_seeds(&self) -> f64 {
        if self.seeds_per_run.is_empty() {
            0.0
        } else {
            self.seeds_per_run.iter().sum::<usize>() as f64 / self.seeds_per_run.len() as f64
        }
    }
}

/// Runs an adaptive policy once per world and aggregates profits.
pub fn evaluate_adaptive<P: AdaptivePolicy + ?Sized>(
    instance: &TpmInstance,
    policy: &mut P,
    world_seeds: &[u64],
) -> EvalSummary {
    let mut profits = Vec::with_capacity(world_seeds.len());
    let mut seeds_per_run = Vec::with_capacity(world_seeds.len());
    let mut decision_time = Duration::ZERO;
    let mut sampling_work = 0u64;
    let algorithm = policy.stepper().name();
    for &w in world_seeds {
        let mut session = AdaptiveSession::new(instance, w);
        let t0 = Instant::now();
        let selected = policy.run(&mut session);
        decision_time += t0.elapsed();
        debug_assert_eq!(selected.len(), session.selected().len());
        profits.push(session.profit());
        seeds_per_run.push(session.selected().len());
        sampling_work += session.sampling_work();
    }
    EvalSummary {
        algorithm,
        profits,
        seeds_per_run,
        decision_time,
        sampling_work,
    }
}

/// Scores a fixed seed set against one world: `I_φ(S) − c(S)`. The caller
/// owns the activation buffer, so the world-scoring loop reuses one warm
/// buffer per evaluation run (`CascadeEngine::observe_into` underneath).
pub fn score_fixed_set_into(
    instance: &TpmInstance,
    seeds: &[Node],
    world_seed: u64,
    engine: &mut CascadeEngine,
    activated: &mut Vec<Node>,
) -> f64 {
    let real = HashedRealization::new(world_seed);
    engine.observe_into(&instance.graph(), &real, seeds, activated);
    activated.len() as f64 - instance.cost_of(seeds)
}

/// Selects once with a nonadaptive policy, then scores the same set on every
/// world.
pub fn evaluate_nonadaptive<P: NonadaptivePolicy + ?Sized>(
    instance: &TpmInstance,
    policy: &mut P,
    world_seeds: &[u64],
) -> EvalSummary {
    let t0 = Instant::now();
    let (seeds, sampling_work) = policy.select(instance);
    let decision_time = t0.elapsed();
    let mut engine = CascadeEngine::new();
    let mut activated = Vec::new();
    let profits: Vec<f64> = world_seeds
        .iter()
        .map(|&w| score_fixed_set_into(instance, &seeds, w, &mut engine, &mut activated))
        .collect();
    EvalSummary {
        algorithm: policy.name().into(),
        seeds_per_run: vec![seeds.len(); world_seeds.len()],
        profits,
        decision_time,
        sampling_work,
    }
}

/// The standard world-seed batch of the paper's protocol: 20 deterministic
/// worlds derived from `base`.
pub fn standard_worlds(base: u64) -> Vec<u64> {
    (0..20)
        .map(|i| base.wrapping_mul(1_000_003).wrapping_add(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{Baseline, DeployAll, Hatp, Hntp, Ndg, Nsg};
    use atpm_graph::GraphBuilder;

    fn instance() -> TpmInstance {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        TpmInstance::new(b.build(), vec![0], &[1.0])
    }

    #[test]
    fn adaptive_and_nonadaptive_agree_on_single_seed_instance() {
        // With |T| = 1 adaptivity cannot help: per-world profits coincide.
        let inst = instance();
        let worlds = standard_worlds(1);
        let a = evaluate_adaptive(&inst, &mut DeployAll, &worlds);
        let b = evaluate_nonadaptive(&inst, &mut Baseline, &worlds);
        assert_eq!(a.profits, b.profits);
    }

    #[test]
    fn nonadaptive_summary_carries_sampling_work() {
        // 2000 isolated nodes: HNTP's first θ (706) exceeds the cap of 500,
        // so each of its two decisions is one forced round of 500 sets. NSG
        // and NDG each sample one batch of θ sets.
        let inst = TpmInstance::new(GraphBuilder::new(2000).build(), vec![0, 1], &[1.0, 1.0]);
        let worlds = [1, 2];
        let mut hntp = Hntp::new(Hatp {
            max_theta: 500,
            ..Default::default()
        });
        let hntp = evaluate_nonadaptive(&inst, &mut hntp, &worlds);
        assert_eq!(hntp.sampling_work, 2 * 500);
        let nsg = evaluate_nonadaptive(&inst, &mut Nsg::new(3_000, 1, 2), &worlds);
        assert_eq!(nsg.sampling_work, 3_000);
        let ndg = evaluate_nonadaptive(&inst, &mut Ndg::new(4_000, 1, 2), &worlds);
        assert_eq!(ndg.sampling_work, 4_000);
    }

    #[test]
    fn summary_statistics() {
        let s = EvalSummary {
            algorithm: "x".into(),
            profits: vec![1.0, 3.0],
            seeds_per_run: vec![1, 3],
            decision_time: Duration::ZERO,
            sampling_work: 0,
        };
        assert_eq!(s.mean_profit(), 2.0);
        assert!((s.std_profit() - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(s.mean_seeds(), 2.0);
    }

    #[test]
    fn profits_are_world_dependent_but_deterministic() {
        let inst = instance();
        let worlds = standard_worlds(2);
        let a = evaluate_adaptive(&inst, &mut DeployAll, &worlds);
        let b = evaluate_adaptive(&inst, &mut DeployAll, &worlds);
        assert_eq!(a.profits, b.profits);
        // Edge 1->2 has p = 0.5: some worlds profit 2-1, others 3-1.
        assert!(a.profits.iter().any(|&p| (p - 1.0).abs() < 1e-12));
        assert!(a.profits.iter().any(|&p| (p - 2.0).abs() < 1e-12));
    }

    #[test]
    fn standard_worlds_are_distinct() {
        let w = standard_worlds(5);
        assert_eq!(w.len(), 20);
        let set: std::collections::HashSet<_> = w.iter().collect();
        assert_eq!(set.len(), 20);
    }
}
