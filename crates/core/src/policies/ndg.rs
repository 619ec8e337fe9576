//! NDG — nonadaptive double greedy \[26\] (§VI-A baseline).
//!
//! The classical Buchbinder et al. double greedy (Algorithm 1) run over one
//! fixed RR batch: for each target node in order, compare the estimated gain
//! of *keeping* it (`z⁺ = n·Cov(u|S)/θ − c(u)`) with the estimated gain of
//! *abandoning* it (`z⁻ = c(u) − n·Cov(u | Q∖{u})/θ`) and keep iff
//! `z⁺ ≥ z⁻`. No sampling-error control (the paper's point: \[26\] ignores
//! estimation noise, making the guarantee heuristic).

use atpm_graph::Node;
use atpm_ris::sampler::generate_batch;
use atpm_ris::DoubleGreedyCoverage;

use crate::instance::TpmInstance;
use crate::NonadaptivePolicy;

/// Nonadaptive double greedy over one fixed RR batch.
#[derive(Debug, Clone)]
pub struct Ndg {
    /// RR sets in the single batch.
    pub theta: usize,
    /// Batch RNG seed.
    pub seed: u64,
    /// Sampler worker threads.
    pub threads: usize,
}

impl Ndg {
    /// NDG with a batch of `theta` RR sets.
    pub fn new(theta: usize, seed: u64, threads: usize) -> Self {
        assert!(theta > 0, "need a positive sample size");
        Ndg {
            theta,
            seed,
            threads,
        }
    }
}

impl NonadaptivePolicy for Ndg {
    fn name(&self) -> &'static str {
        "NDG"
    }

    fn select(&mut self, instance: &TpmInstance) -> (Vec<Node>, u64) {
        let target: Vec<Node> = instance.target().to_vec();
        if target.is_empty() {
            return (Vec::new(), 0);
        }
        let c = generate_batch(instance.graph(), self.theta, self.seed, self.threads);
        let mut dg = DoubleGreedyCoverage::new(&c, &target);
        let mut selected = Vec::new();
        for &u in &target {
            let cost = instance.cost(u);
            let z_plus = c.scale(dg.front_cov(u)) - cost;
            let z_minus = cost - c.scale(dg.rear_cov(u));
            if z_plus >= z_minus {
                dg.select(u);
                selected.push(u);
            } else {
                dg.reject(u);
            }
        }
        (selected, c.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::Hntp;
    use atpm_graph::GraphBuilder;

    fn star_instance() -> TpmInstance {
        let mut b = GraphBuilder::new(5);
        for v in 1..=3 {
            b.add_edge(0, v, 1.0).unwrap();
        }
        TpmInstance::new(b.build(), vec![0, 4], &[2.0, 3.0])
    }

    #[test]
    fn double_greedy_keeps_hub_drops_isolate() {
        let inst = star_instance();
        let mut p = Ndg::new(20_000, 1, 2);
        assert_eq!(p.select(&inst).0, vec![0]);
    }

    #[test]
    fn rear_side_protects_valuable_candidates() {
        // A single target whose spread is below cost must be rejected by the
        // front test AND kept out by the rear test consistently.
        let b = GraphBuilder::new(10);
        let inst = TpmInstance::new(b.build(), vec![0], &[5.0]);
        let mut p = Ndg::new(10_000, 2, 1);
        assert!(p.select(&inst).0.is_empty());
    }

    #[test]
    fn overlapping_influencers_not_double_paid() {
        let mut b = GraphBuilder::new(5);
        for v in 2..5 {
            b.add_edge(0, v, 1.0).unwrap();
            b.add_edge(1, v, 1.0).unwrap();
        }
        let inst = TpmInstance::new(b.build(), vec![0, 1], &[1.5, 1.5]);
        let mut p = Ndg::new(30_000, 3, 2);
        let seeds = p.select(&inst).0;
        assert_eq!(seeds, vec![0], "second copy of the audience is worthless");
    }

    #[test]
    fn agrees_with_hntp_on_clear_cut_instances() {
        // HNTP is NDG plus error control; with big margins they coincide.
        let inst = star_instance();
        let mut ndg = Ndg::new(20_000, 4, 2);
        let mut hntp = Hntp::default();
        use crate::NonadaptivePolicy as _;
        assert_eq!(ndg.select(&inst).0, hntp.select(&inst).0);
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = star_instance();
        let mut p1 = Ndg::new(5000, 9, 3);
        let mut p2 = Ndg::new(5000, 9, 3);
        assert_eq!(p1.select(&inst), p2.select(&inst));
    }
}
