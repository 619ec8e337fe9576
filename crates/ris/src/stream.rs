//! Streaming front/rear coverage counters for the (non)adaptive
//! sampling-based double greedy algorithms.
//!
//! ADDATP and HATP regenerate their RR batches `R1`, `R2` from scratch in
//! every sampling round (Algorithm 3 line 9, Algorithm 4 line 9) and only
//! ever query them for a *single* node `u_i`:
//!
//! * front: `Cov_{R1}(u_i | S_{i−1})` — sets containing `u_i` that avoid
//!   `S_{i−1}`. On a residual graph every selected seed is already dead, so
//!   the adaptive callers pass an empty condition set; the nonadaptive HNTP
//!   passes its accumulated `S_{i−1}`.
//! * rear: `Cov_{R2}(u_i | T_{i−1} ∖ {u_i})` — sets containing `u_i` that
//!   avoid every other remaining candidate.
//!
//! Materializing those batches would waste memory and time, so this module
//! streams them: generate a set, bump two counters, drop it. Worker seeding
//! and the fan-out/fan-in scaffolding are shared with the batch sampler via
//! [`crate::workspace`] (the two used to carry diverged private copies).

use atpm_graph::{GraphView, Node};

use crate::nodeset::NodeSet;
use crate::rng::CounterRng;
use crate::rr::RrSampler;
use crate::workspace::run_sharded;

/// Result of one streamed sampling round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontRearCounts {
    /// Number of `R1` sets containing `u` and disjoint from the front
    /// condition set.
    pub cov_front: u64,
    /// Number of `R2` sets containing `u` and disjoint from the rear
    /// condition set.
    pub cov_rear: u64,
    /// RR sets actually generated per batch (can fall short of the request
    /// only when the view has no alive nodes).
    pub theta: usize,
    /// Total nodes traversed across both batches (EPT/work accounting).
    pub work: u64,
}

fn shared_worker<V: GraphView>(
    view: &V,
    u: Node,
    front_cond: &NodeSet,
    rear_cond: &NodeSet,
    quota: usize,
    seed: u64,
) -> FrontRearCounts {
    let mut sampler = RrSampler::new();
    let mut rng = CounterRng::new(seed);
    let mut buf = Vec::new();
    let mut counts = FrontRearCounts {
        cov_front: 0,
        cov_rear: 0,
        theta: 0,
        work: 0,
    };
    for _ in 0..quota {
        if !sampler.sample_into(view, &mut rng, &mut buf) {
            break;
        }
        counts.work += buf.len() as u64;
        // O(1) epoch-mark membership probe instead of scanning the buffer.
        if sampler.contains_last(u) {
            if !front_cond.intersects(&buf) {
                counts.cov_front += 1;
            }
            if !rear_cond.intersects(&buf) {
                counts.cov_rear += 1;
            }
        }
        counts.theta += 1;
    }
    counts
}

/// Streams `theta` RR sets on `view` and returns the conditional front/rear
/// coverage counts for node `u`, both evaluated on **one shared batch**.
///
/// `front_cond` is `S_{i−1}` (empty for the adaptive algorithms, whose
/// selected seeds are dead in the view); `rear_cond` is `T_{i−1} ∖ {u}`.
/// Deterministic in `(view, u, conditions, theta, seed, threads)`.
///
/// The shared batch is the reading the analysis requires: the proof of
/// Lemma 5 uses `ρ̃_f + ρ̃_r ≥ 0` *pointwise*, which holds exactly when both
/// coverages are counted on the same sets and the front condition set is
/// contained in the rear condition set (then `cov_front ≥ cov_rear`
/// deterministically). It also halves the sampling cost relative to two
/// independent batches.
pub fn front_rear_counts_shared<V: GraphView + Sync>(
    view: &V,
    u: Node,
    front_cond: &NodeSet,
    rear_cond: &NodeSet,
    theta: usize,
    seed: u64,
    threads: usize,
) -> FrontRearCounts {
    if theta == 0 || view.num_alive() == 0 {
        return FrontRearCounts {
            cov_front: 0,
            cov_rear: 0,
            theta: 0,
            work: 0,
        };
    }
    let parts = run_sharded(theta, threads, seed, |_tid, quota, wseed| {
        shared_worker(view, u, front_cond, rear_cond, quota, wseed)
    });
    merge_counts(parts)
}

/// Sums per-worker counters (fan-in half of the sharded runs).
fn merge_counts(parts: Vec<FrontRearCounts>) -> FrontRearCounts {
    let mut total = FrontRearCounts {
        cov_front: 0,
        cov_rear: 0,
        theta: 0,
        work: 0,
    };
    for p in parts {
        total.cov_front += p.cov_front;
        total.cov_rear += p.cov_rear;
        total.theta += p.theta;
        total.work += p.work;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpm_graph::{GraphBuilder, ResidualGraph};

    fn stream_worker<V: GraphView>(
        view: &V,
        u: Node,
        front_cond: &NodeSet,
        rear_cond: &NodeSet,
        quota: usize,
        seed: u64,
    ) -> FrontRearCounts {
        let mut sampler = RrSampler::new();
        let mut rng = CounterRng::new(seed);
        let mut buf = Vec::new();
        let mut cov_front = 0u64;
        let mut cov_rear = 0u64;
        let mut work = 0u64;
        let mut done = 0usize;
        for _ in 0..quota {
            // R1 sample: u present, front condition set absent.
            if !sampler.sample_into(view, &mut rng, &mut buf) {
                break;
            }
            work += buf.len() as u64;
            if sampler.contains_last(u) && !front_cond.intersects(&buf) {
                cov_front += 1;
            }
            // R2 sample: u present, rear condition set absent.
            if !sampler.sample_into(view, &mut rng, &mut buf) {
                break;
            }
            work += buf.len() as u64;
            if sampler.contains_last(u) && !rear_cond.intersects(&buf) {
                cov_rear += 1;
            }
            done += 1;
        }
        FrontRearCounts {
            cov_front,
            cov_rear,
            theta: done,
            work,
        }
    }

    /// The two-independent-batches reading of the front/rear counts: an `R1`
    /// and an `R2` set per draw. The reference the shared batch is checked
    /// against.
    fn front_rear_counts<V: GraphView + Sync>(
        view: &V,
        u: Node,
        front_cond: &NodeSet,
        rear_cond: &NodeSet,
        theta: usize,
        seed: u64,
        threads: usize,
    ) -> FrontRearCounts {
        if theta == 0 || view.num_alive() == 0 {
            return FrontRearCounts {
                cov_front: 0,
                cov_rear: 0,
                theta: 0,
                work: 0,
            };
        }
        let parts = run_sharded(theta, threads, seed, |_tid, quota, wseed| {
            stream_worker(view, u, front_cond, rear_cond, quota, wseed)
        });
        merge_counts(parts)
    }

    /// 0 -> 1 -> 2 chain, p = 0.5.
    fn chain() -> atpm_graph::Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        b.build()
    }

    #[test]
    fn front_estimates_singleton_spread() {
        let g = chain();
        let empty = NodeSet::new(3);
        let theta = 120_000;
        let c = front_rear_counts_shared(&&g, 0, &empty, &empty, theta, 1, 2);
        assert_eq!(c.theta, theta);
        let est = 3.0 * c.cov_front as f64 / c.theta as f64;
        assert!((est - 1.75).abs() < 0.03, "front spread {est}, want 1.75");
    }

    #[test]
    fn rear_excludes_sets_hit_by_condition() {
        let g = chain();
        // rear condition {2}: a set counts if it contains 0 and avoids 2.
        // Root 0 (never reaches 2 in reverse): contributes Pr = 1/3.
        // Root 1: contains 0 with p(0->1) = 0.5, never contains 2: 1/6.
        // Root 2: always contains 2: 0.  Total = 0.5.
        let empty = NodeSet::new(3);
        let cond2 = NodeSet::from_iter(3, [2]);
        let theta = 120_000;
        let c = front_rear_counts_shared(&&g, 0, &empty, &cond2, theta, 3, 2);
        let frac = c.cov_rear as f64 / c.theta as f64;
        assert!((frac - 0.5).abs() < 0.01, "rear fraction {frac}, want 0.5");
        assert!(c.cov_front > c.cov_rear);
    }

    #[test]
    fn front_condition_matches_marginal_semantics() {
        // Conditioning the front on {1} must equal the rear conditioned on
        // {1}: same formula, same batch -> equal counts.
        let g = chain();
        let cond = NodeSet::from_iter(3, [1]);
        let theta = 120_000;
        let c = front_rear_counts_shared(&&g, 0, &cond, &cond, theta, 7, 2);
        assert_eq!(c.cov_front, c.cov_rear);
        // And strictly below the unconditional coverage.
        let empty = NodeSet::new(3);
        let unc = front_rear_counts_shared(&&g, 0, &empty, &empty, theta, 7, 2);
        assert!(unc.cov_front > c.cov_front);
    }

    /// Golden values: the streamed counters draw their worlds through the
    /// shared `workspace::worker_seed` + the engine's `CounterRng`; these
    /// exact counts pin that stream so a silent reseeding (like the
    /// pre-dedup drift between sampler.rs and stream.rs) fails loudly
    /// instead of quietly redrawing every stored experiment trajectory.
    /// (Re-pinned when the coin-free `SampleView` sampler replaced the
    /// per-coin `StdRng` loop — a deliberate world redraw.)
    #[test]
    fn stream_values_are_pinned() {
        let g = chain();
        let empty = NodeSet::new(3);
        let rear = NodeSet::from_iter(3, [2]);
        let indep1 = front_rear_counts(&&g, 0, &empty, &rear, 1000, 42, 1);
        assert_eq!(
            indep1,
            FrontRearCounts {
                cov_front: 614,
                cov_rear: 515,
                theta: 1000,
                work: 2866
            }
        );
        let shared1 = front_rear_counts_shared(&&g, 0, &empty, &rear, 1000, 42, 1);
        assert_eq!(
            shared1,
            FrontRearCounts {
                cov_front: 590,
                cov_rear: 501,
                theta: 1000,
                work: 1420
            }
        );
        let indep2 = front_rear_counts(&&g, 0, &empty, &rear, 1000, 42, 2);
        assert_eq!(
            indep2,
            FrontRearCounts {
                cov_front: 577,
                cov_rear: 462,
                theta: 1000,
                work: 2843
            }
        );
        let shared2 = front_rear_counts_shared(&&g, 0, &empty, &rear, 1000, 42, 2);
        assert_eq!(
            shared2,
            FrontRearCounts {
                cov_front: 571,
                cov_rear: 480,
                theta: 1000,
                work: 1418
            }
        );
    }

    #[test]
    fn dead_view_short_circuits() {
        let g = chain();
        let mut r = ResidualGraph::new(&g);
        r.remove_all(0..3);
        let empty = NodeSet::new(3);
        let c = front_rear_counts_shared(&r, 0, &empty, &empty, 100, 1, 2);
        assert_eq!(c.theta, 0);
        assert_eq!(c.cov_front, 0);
    }

    #[test]
    fn work_accounting_is_positive() {
        let g = chain();
        let empty = NodeSet::new(3);
        let c = front_rear_counts_shared(&&g, 0, &empty, &empty, 100, 1, 1);
        assert!(c.work >= c.theta as u64, "each set has >= 1 node");
    }

    #[test]
    fn shared_batch_front_dominates_rear_pointwise() {
        // With front condition ⊆ rear condition, the shared batch guarantees
        // cov_front >= cov_rear on every draw (the Lemma 5 requirement).
        let g = chain();
        let empty = NodeSet::new(3);
        let rear = NodeSet::from_iter(3, [1, 2]);
        for seed in 0..50u64 {
            let c = front_rear_counts_shared(&&g, 0, &empty, &rear, 64, seed, 2);
            assert!(c.cov_front >= c.cov_rear, "seed {seed}: {c:?}");
        }
    }

    #[test]
    fn shared_batch_matches_independent_statistically() {
        let g = chain();
        let empty = NodeSet::new(3);
        let rear = NodeSet::from_iter(3, [2]);
        let theta = 120_000;
        let shared = front_rear_counts_shared(&&g, 0, &empty, &rear, theta, 9, 2);
        let indep = front_rear_counts(&&g, 0, &empty, &rear, theta, 9, 2);
        let f1 = shared.cov_front as f64 / shared.theta as f64;
        let f2 = indep.cov_front as f64 / indep.theta as f64;
        let r1 = shared.cov_rear as f64 / shared.theta as f64;
        let r2 = indep.cov_rear as f64 / indep.theta as f64;
        assert!((f1 - f2).abs() < 0.01, "front {f1} vs {f2}");
        assert!((r1 - r2).abs() < 0.01, "rear {r1} vs {r2}");
    }

    #[test]
    fn shared_batch_is_deterministic() {
        let g = chain();
        let empty = NodeSet::new(3);
        let rear = NodeSet::from_iter(3, [1]);
        let a = front_rear_counts_shared(&&g, 0, &empty, &rear, 3000, 5, 3);
        let b = front_rear_counts_shared(&&g, 0, &empty, &rear, 3000, 5, 3);
        assert_eq!(a, b);
    }
}
