//! Baseline — deploy the entire target set (the dark-blue `×` line of
//! Figs. 2–3).
//!
//! The paper's "Baseline" is the estimated profit of `T` itself:
//! `ρ(T) = E[I(T)] − c(T)`. Every algorithm is supposed to beat it — TPM
//! degenerates to "just seed everyone you can reach" if it can't.
//!
//! [`DeployAll`] is its adaptive twin: examine targets in order and seed
//! every one the earlier cascades have not already activated. It pays for
//! strictly fewer seeds than [`Baseline`] on the same worlds, costs no
//! sampling at all, and serves as the cheap reference policy of the
//! `atpm-serve` protocol tests.

use atpm_graph::Node;
use atpm_ris::NodeSet;

use crate::instance::TpmInstance;
use crate::session::AdaptiveSession;
use crate::stepper::{KeepRule, TargetWalk};
use crate::{AdaptivePolicy, NonadaptivePolicy};

/// Selects the whole target set.
#[derive(Debug, Clone, Copy, Default)]
pub struct Baseline;

impl NonadaptivePolicy for Baseline {
    fn name(&self) -> &'static str {
        "Baseline"
    }

    fn select(&mut self, instance: &TpmInstance) -> (Vec<Node>, u64) {
        (instance.target().to_vec(), 0)
    }
}

/// Adaptive deploy-everything: seed every target that is still inactive when
/// its turn comes.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeployAll;

impl AdaptivePolicy for DeployAll {
    type Stepper<'a> = TargetWalk<DeployAll>;

    fn stepper(&mut self) -> TargetWalk<DeployAll> {
        TargetWalk::new("DeployAll", DeployAll)
    }
}

/// DeployAll's keep rule keeps every candidate the walk reaches.
impl KeepRule for DeployAll {
    type Segment = ();

    fn segment(&self, _: &AdaptiveSession<'_>, _: &NodeSet) {}

    fn keep(&mut self, _: &mut (), _: &mut AdaptiveSession<'_>, _: usize, _: &NodeSet) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{evaluate_adaptive, evaluate_nonadaptive, standard_worlds};
    use atpm_graph::GraphBuilder;

    #[test]
    fn deploy_all_skips_activated_targets() {
        // 0 -> 1 deterministic: adaptively deploying pays for 0 and 2 only,
        // while the nonadaptive baseline pays for all three.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        let inst = TpmInstance::new(b.build(), vec![0, 1, 2], &[1.0, 1.0, 1.0]);
        let a = evaluate_adaptive(&inst, &mut DeployAll, &standard_worlds(1));
        for (profit, seeds) in a.profits.iter().zip(&a.seeds_per_run) {
            assert_eq!(*seeds, 2);
            assert!((profit - 1.0).abs() < 1e-9, "3 activated - 2 paid");
        }
        let b = evaluate_nonadaptive(&inst, &mut Baseline, &standard_worlds(1));
        for profit in &b.profits {
            assert!((profit - 0.0).abs() < 1e-9);
        }
    }

    #[test]
    fn baseline_profit_is_spread_minus_total_cost() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        let inst = TpmInstance::new(b.build(), vec![0, 2], &[1.0, 1.0]);
        let mut p = Baseline;
        let s = evaluate_nonadaptive(&inst, &mut p, &standard_worlds(1));
        // Deterministic: spread of {0,2} is 3, cost 2.
        for profit in &s.profits {
            assert!((profit - 1.0).abs() < 1e-9);
        }
    }
}
