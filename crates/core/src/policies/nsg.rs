//! NSG — nonadaptive simple greedy \[26\] (§VI-A baseline).
//!
//! One RR batch is generated up front; then a lazy (CELF) greedy repeatedly
//! adds the target node with the largest estimated marginal *profit*
//! `n·Cov(u | S)/θ − c(u)`, stopping when no node's marginal profit is
//! positive. Unlike the double-greedy family this never reasons about the
//! rear side, and unlike HATP it has no per-decision error control — the
//! paper sets its sample size to the largest per-iteration batch of HATP.
//!
//! Like `atpm_im::greedy`, the CELF loop is decremental: a dense coverage
//! count per candidate is kept exact by walking each newly covered set once,
//! so stale heap entries are reconciled with an O(1) compare instead of an
//! inverted-index rescan.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use atpm_graph::Node;
use atpm_ris::sampler::generate_batch;
use atpm_ris::workspace::EpochMarks;

use crate::instance::TpmInstance;
use crate::NonadaptivePolicy;

/// Total order for profit gains (ties by node id make runs reproducible).
#[derive(PartialEq)]
struct Gain(f64);

impl Eq for Gain {}

impl PartialOrd for Gain {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Gain {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Nonadaptive simple greedy over one fixed RR batch.
#[derive(Debug, Clone)]
pub struct Nsg {
    /// RR sets in the single batch.
    pub theta: usize,
    /// Batch RNG seed.
    pub seed: u64,
    /// Sampler worker threads.
    pub threads: usize,
}

impl Nsg {
    /// NSG with a batch of `theta` RR sets.
    pub fn new(theta: usize, seed: u64, threads: usize) -> Self {
        assert!(theta > 0, "need a positive sample size");
        Nsg {
            theta,
            seed,
            threads,
        }
    }
}

impl NonadaptivePolicy for Nsg {
    fn name(&self) -> &'static str {
        "NSG"
    }

    fn select(&mut self, instance: &TpmInstance) -> (Vec<Node>, u64) {
        let c = generate_batch(instance.graph(), self.theta, self.seed, self.threads);
        let n = c.len_universe();
        let mut covered = EpochMarks::new();
        covered.begin(c.len());
        let mut active = EpochMarks::new();
        active.begin(n);
        let mut cov_count = vec![0u32; n];
        let mut selected: Vec<Node> = Vec::new();

        // Decremental CELF over marginal profit; valid because coverage is
        // submodular and the cost is constant per node. `cov_count[u]` is
        // the exact number of uncovered sets containing `u` at all times.
        let mut heap: BinaryHeap<(Gain, Reverse<Node>)> = BinaryHeap::new();
        for &u in instance.target() {
            if active.mark(u as usize) {
                let count = c.cov_node(u) as u32;
                cov_count[u as usize] = count;
                heap.push((Gain(c.scale(count as usize) - instance.cost(u)), Reverse(u)));
            }
        }

        while let Some((Gain(gain), Reverse(u))) = heap.pop() {
            if gain <= 0.0 {
                break; // simple greedy stops at nonpositive marginal profit
            }
            let fresh = c.scale(cov_count[u as usize] as usize) - instance.cost(u);
            if fresh < gain {
                // Stale entry: the count cache is already exact — O(1).
                heap.push((Gain(fresh), Reverse(u)));
                continue;
            }
            for &i in c.sets_containing(u) {
                if covered.mark(i as usize) {
                    for &w in c.set(i as usize) {
                        if active.is_marked(w as usize) {
                            cov_count[w as usize] -= 1;
                        }
                    }
                }
            }
            selected.push(u);
        }
        (selected, c.len() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpm_graph::GraphBuilder;

    fn star_instance() -> TpmInstance {
        let mut b = GraphBuilder::new(5);
        for v in 1..=3 {
            b.add_edge(0, v, 1.0).unwrap();
        }
        TpmInstance::new(b.build(), vec![0, 4], &[2.0, 3.0])
    }

    #[test]
    fn greedy_keeps_only_profitable_nodes() {
        let inst = star_instance();
        let mut p = Nsg::new(20_000, 1, 2);
        let (seeds, work) = p.select(&inst);
        assert_eq!(seeds, vec![0], "hub profit ≈ 2 > 0; isolate ≈ -2 < 0");
        assert_eq!(work, 20_000);
    }

    #[test]
    fn respects_target_restriction() {
        // Node 1 has huge spread but is not a target.
        let mut b = GraphBuilder::new(6);
        for v in 2..6 {
            b.add_edge(1, v, 1.0).unwrap();
        }
        b.add_edge(0, 2, 1.0).unwrap();
        let inst = TpmInstance::new(b.build(), vec![0], &[0.5]);
        let mut p = Nsg::new(20_000, 2, 1);
        assert_eq!(p.select(&inst).0, vec![0]);
    }

    #[test]
    fn overlap_is_handled_submodularly() {
        // 0 and 1 both point at the same big audience; picking both cannot
        // pay twice. c = 1.5 each; audience of 3.
        let mut b = GraphBuilder::new(5);
        for v in 2..5 {
            b.add_edge(0, v, 1.0).unwrap();
            b.add_edge(1, v, 1.0).unwrap();
        }
        let inst = TpmInstance::new(b.build(), vec![0, 1], &[1.5, 1.5]);
        let mut p = Nsg::new(30_000, 3, 2);
        let seeds = p.select(&inst).0;
        // First pick gains 4 - 1.5 > 0; second marginal is 1 - 1.5 < 0.
        assert_eq!(seeds.len(), 1);
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = star_instance();
        let mut p1 = Nsg::new(5000, 9, 3);
        let mut p2 = Nsg::new(5000, 9, 3);
        assert_eq!(p1.select(&inst), p2.select(&inst));
    }

    #[test]
    fn empty_target_selects_nothing() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.5).unwrap();
        let inst = TpmInstance::new(b.build(), vec![], &[]);
        let mut p = Nsg::new(100, 1, 1);
        assert!(p.select(&inst).0.is_empty());
    }
}
