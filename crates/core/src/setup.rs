//! Workload constructors: the paper's two procedures for building a TPM
//! instance from a raw graph (§VI-A, §VI-D).

use atpm_graph::{Graph, Node};
use atpm_im::{imm_select, spread_lower_bound, ImmConfig};

use crate::cost::{predefined_costs, split_total_cost, CostSplit};
use crate::instance::TpmInstance;
use crate::policies::{Ndg, Nsg};
use crate::NonadaptivePolicy;

/// Parameters of the spread-calibrated workload (first procedure of §VI-A).
#[derive(Debug, Clone, Copy)]
pub struct CalibrationConfig {
    /// IMM approximation slack for selecting the top-k target set.
    pub imm_eps: f64,
    /// RR sets used to lower-bound `E[I(T)]`.
    pub lb_theta: usize,
    /// Failure probability of the lower bound.
    pub lb_delta: f64,
    /// RNG seed.
    pub seed: u64,
    /// Sampler worker threads.
    pub threads: usize,
}

impl Default for CalibrationConfig {
    fn default() -> Self {
        CalibrationConfig {
            imm_eps: 0.5,
            lb_theta: 50_000,
            lb_delta: 0.01,
            seed: 0,
            threads: 1,
        }
    }
}

/// Builds the spread-calibrated instance: `T` = IMM top-k, costs split from
/// `c(T) = E_l[I(T)]` per the chosen scheme.
///
/// Calibrating the total cost to a *lower bound* of the target set's spread
/// keeps `ρ(T) ⪆ 0`, the nonnegativity assumption of Definition 2.
pub fn calibrated_instance(
    graph: Graph,
    k: usize,
    split: CostSplit,
    cfg: CalibrationConfig,
) -> TpmInstance {
    let imm = imm_select(
        &&graph,
        ImmConfig {
            k,
            eps: cfg.imm_eps,
            ell: 1.0,
            seed: cfg.seed,
            threads: cfg.threads,
        },
    );
    let target = imm.seeds;
    let el = spread_lower_bound(
        &&graph,
        &target,
        cfg.lb_theta,
        cfg.lb_delta,
        cfg.seed.wrapping_add(0x5151),
        cfg.threads,
    );
    let costs = split_total_cost(&graph, &target, split, el);
    TpmInstance::new(graph, target, &costs)
}

/// Which nonadaptive algorithm derives the target set in the predefined-cost
/// procedure (§VI-D uses both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TargetSelector {
    /// Nonadaptive double greedy.
    Ndg,
    /// Nonadaptive simple greedy.
    Nsg,
}

/// Builds the predefined-cost instance (§VI-D): every node gets a cost from
/// `λ = c(V)/n` *first*, then `T` is whatever the chosen nonadaptive
/// algorithm selects from those candidates under those costs.
///
/// Zero-cost nodes (out-degree-0 sinks under the degree-proportional split)
/// are excluded from the candidate universe: a free seed with spread ≥ 1 is
/// trivially "profitable" and would swamp `T` with degenerate picks that
/// teach nothing about seed *selection*.
///
/// `theta` is the RR batch size handed to the selector; `max_k` optionally
/// truncates the derived target set (in selection order) to keep downstream
/// adaptive runs affordable.
#[allow(clippy::too_many_arguments)] // mirrors the paper's parameterization
pub fn predefined_instance(
    graph: Graph,
    lambda: f64,
    split: CostSplit,
    selector: TargetSelector,
    theta: usize,
    seed: u64,
    threads: usize,
    max_k: Option<usize>,
) -> TpmInstance {
    let costs_all = predefined_costs(&graph, lambda, split);
    let candidates: Vec<Node> = (0..graph.num_nodes() as Node)
        .filter(|&u| costs_all[u as usize] > 0.0)
        .collect();
    let candidate_costs: Vec<f64> = candidates.iter().map(|&u| costs_all[u as usize]).collect();
    let scratch = TpmInstance::new(graph, candidates, &candidate_costs);
    let mut target = match selector {
        TargetSelector::Ndg => Ndg::new(theta, seed, threads).select(&scratch).0,
        TargetSelector::Nsg => Nsg::new(theta, seed, threads).select(&scratch).0,
    };
    if let Some(cap) = max_k {
        target.truncate(cap);
    }
    let target_costs: Vec<f64> = target.iter().map(|&u| scratch.cost(u)).collect();
    TpmInstance::new(scratch.into_graph(), target, &target_costs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpm_graph::gen::Dataset;
    use atpm_graph::GraphBuilder;

    fn tiny_social_graph() -> Graph {
        Dataset::NetHept.generate(0.02, 1) // ~300 nodes
    }

    #[test]
    fn calibrated_instance_has_k_targets_and_calibrated_cost() {
        let g = tiny_social_graph();
        let inst = calibrated_instance(
            g,
            5,
            CostSplit::Uniform,
            CalibrationConfig {
                lb_theta: 20_000,
                ..Default::default()
            },
        );
        assert_eq!(inst.k(), 5);
        // c(T) = E_l[I(T)] <= E[I(T)] <= n; and it must be positive.
        let total = inst.total_cost();
        assert!(total > 0.0);
        assert!(total <= inst.graph().num_nodes() as f64);
        // Uniform split: every target costs the same.
        let c0 = inst.cost(inst.target()[0]);
        for &u in inst.target() {
            assert!((inst.cost(u) - c0).abs() < 1e-9);
        }
    }

    #[test]
    fn calibrated_degree_split_scales_with_degree() {
        let g = tiny_social_graph();
        let inst = calibrated_instance(
            g,
            8,
            CostSplit::DegreeProportional,
            CalibrationConfig {
                lb_theta: 10_000,
                ..Default::default()
            },
        );
        // Costs ordered like degrees.
        let t = inst.target().to_vec();
        for w in t.windows(2) {
            let (a, b) = (w[0], w[1]);
            let da = inst.graph().out_degree(a) as f64;
            let db = inst.graph().out_degree(b) as f64;
            if da > db {
                assert!(inst.cost(a) >= inst.cost(b));
            }
        }
    }

    #[test]
    fn predefined_instance_selects_profitable_targets() {
        // Star hub: 0 -> 1..=9 (p=1). λ = 2 uniform: only the hub's spread
        // (10) beats its cost (2); everyone else spreads 1 < 2.
        let mut b = GraphBuilder::new(10);
        for v in 1..10 {
            b.add_edge(0, v, 1.0).unwrap();
        }
        let g = b.build();
        let inst = predefined_instance(
            g,
            2.0,
            CostSplit::Uniform,
            TargetSelector::Nsg,
            20_000,
            1,
            1,
            None,
        );
        assert_eq!(inst.target(), &[0]);
        assert!((inst.cost(0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn predefined_ndg_and_nsg_may_differ_but_both_work() {
        let g = tiny_social_graph();
        let a = predefined_instance(
            g.clone(),
            3.0,
            CostSplit::DegreeProportional,
            TargetSelector::Ndg,
            5_000,
            2,
            1,
            None,
        );
        let b = predefined_instance(
            g,
            3.0,
            CostSplit::DegreeProportional,
            TargetSelector::Nsg,
            5_000,
            2,
            1,
            None,
        );
        // Both must produce valid nonempty-or-empty instances without panicking.
        assert!(a.k() <= a.graph().num_nodes());
        assert!(b.k() <= b.graph().num_nodes());
    }
}
