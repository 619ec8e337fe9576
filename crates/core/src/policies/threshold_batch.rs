//! ThresholdBatch — genuinely low-adaptivity batched seeding via
//! threshold sampling (beyond the paper; arXiv:1910.13073-style rounds).
//!
//! The paper's adaptive greedy family commits one seed per observation.
//! Its guarantee, however, only needs fresh observations between *rounds*:
//! within a round, marginal estimates against one frozen residual state are
//! enough to select a whole batch whose members are each within a
//! `(1 − ε)`-factor threshold of the current best marginal profit. That is
//! the ICML'19 threshold-sampling / reduced-mean recipe: sweep a
//! geometrically decaying threshold `τ` over the candidate targets, admit
//! every candidate whose estimated marginal profit clears `τ`, and account
//! rounds and oracle queries explicitly so the adaptivity/quality trade is
//! measurable.
//!
//! Per [`next_batch`](crate::PolicyStepper::next_batch) round:
//!
//! 1. draw `θ` fresh RR sets over the *current* residual graph into an
//!    [`RrPool`] that records the un-activated targets, the round's
//!    candidates (deterministic in `(residual, seed, round, threads)` —
//!    the salt chain advances once per round, exactly like HATP's). The
//!    pool keeps only the sets holding a candidate, as lists of target
//!    slots, and gives every candidate's coverage in one pass over them
//!    ([`RrPool::slot_counts`]);
//! 2. initialize `τ` to the best singleton marginal profit
//!    `n_i·Cov(u)/θ − c(u)` over the candidates (if none is profitable the
//!    policy is done);
//! 3. sweep candidates in target order, admitting `u` into the batch when
//!    its *conditional* marginal profit `n_i·Cov(u | batch)/θ − c(u) ≥ τ`;
//!    decay `τ ← (1−ε)·τ` between sweeps until the batch holds `k` seeds
//!    or `τ` falls below `ε·τ₀/k` (every surviving candidate is then worth
//!    less than an `ε/k` fraction of the best, i.e. noise). The counts
//!    `Cov(· | batch)` are recounted in one pass only after an admission
//!    changed the batch.
//!
//! Every marginal evaluation is one **oracle query**
//! ([`AdaptiveSession::add_oracle_queries`]); every generated RR set is
//! **sampling work**; every committed batch is one **round** (counted by
//! the session when the batch is applied). A full run therefore spends
//! `O(log₁₋ε(k/ε))` query sweeps per round and `⌈|S|/k⌉`-ish rounds,
//! against the single-seed policies' `|S|` rounds.

use std::borrow::Cow;

use atpm_graph::{GraphView, Node};
use atpm_ris::stream::RrPool;
use atpm_ris::NodeSet;

use crate::session::AdaptiveSession;
use crate::stepper::{run_stepper_batched, PolicyStepper};
use crate::AdaptivePolicy;

/// Configuration of the threshold-sampling batch policy.
#[derive(Debug, Clone)]
pub struct ThresholdBatch {
    /// Fresh RR sets generated per round.
    pub theta: usize,
    /// Threshold decay per sweep (`τ ← (1−ε)·τ`), in (0, 1).
    pub eps: f64,
    /// Batch size used by the in-process [`AdaptivePolicy::run`] drive; the
    /// serve protocol passes `k` per `next_batch` request instead.
    pub batch: usize,
    /// RNG seed for the per-round sampling chain.
    pub seed: u64,
    /// Sampler worker threads.
    pub threads: usize,
}

impl Default for ThresholdBatch {
    fn default() -> Self {
        ThresholdBatch {
            theta: 4_000,
            eps: 0.1,
            batch: 4,
            seed: 0,
            threads: 1,
        }
    }
}

impl AdaptivePolicy for ThresholdBatch {
    type Stepper<'a> = ThresholdBatchStepper;

    fn stepper(&mut self) -> ThresholdBatchStepper {
        assert!(self.theta > 0, "theta must be positive");
        assert!(
            self.eps > 0.0 && self.eps < 1.0,
            "eps must be in (0, 1), got {}",
            self.eps
        );
        ThresholdBatchStepper {
            cfg: self.clone(),
            round_salt: self.seed,
            done: false,
        }
    }

    /// Drives the stepper in rounds of [`ThresholdBatch::batch`] seeds.
    fn run(&mut self, session: &mut AdaptiveSession<'_>) -> Vec<Node> {
        let batch = self.batch;
        run_stepper_batched(&mut self.stepper(), session, batch)
    }
}

/// [`ThresholdBatch`] in resumable form. Per-run state is just the round
/// salt chain (advanced once per sampling round, so protocol replays
/// re-derive identical RR batches) and the terminal flag.
pub struct ThresholdBatchStepper {
    cfg: ThresholdBatch,
    round_salt: u64,
    done: bool,
}

impl PolicyStepper for ThresholdBatchStepper {
    fn name(&self) -> Cow<'static, str> {
        "ThresholdBatch".into()
    }

    fn next_seed(&mut self, session: &mut AdaptiveSession<'_>) -> Option<Node> {
        // The single-seed drive is a batch round of size 1: same sampling,
        // same threshold sweep, one admitted seed.
        self.next_batch(session, 1).pop()
    }

    fn next_batch(&mut self, session: &mut AdaptiveSession<'_>, k: usize) -> Vec<Node> {
        if self.done || k == 0 {
            return Vec::new();
        }
        let view = session.residual();
        let target = session.instance().target();
        // The candidates are the slots of the un-activated targets.
        let live = NodeSet::from_iter(
            target.len(),
            (0..target.len() as u32).filter(|&s| !session.is_activated(target[s as usize])),
        );
        if view.num_alive() == 0 || live.is_empty() {
            self.done = true;
            return Vec::new();
        }

        // One fresh sample per round, salted like HATP's round chain.
        self.round_salt = self
            .round_salt
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut pool = RrPool::new(target, &live, self.cfg.threads);
        let theta = pool.grow(view, 0, self.cfg.theta, self.round_salt);
        let n_alive = view.num_alive() as f64;
        let scale = |cov: u64| n_alive * cov as f64 / theta as f64;
        let mut queries = 0u64;

        // τ₀ = best singleton marginal profit; none profitable → finished.
        let cost = |s: u32| session.instance().cost(target[s as usize]);
        let mut in_batch = NodeSet::new(target.len());
        let mut counts = pool.slot_counts(0, theta, &in_batch);
        let mut tau0 = f64::NEG_INFINITY;
        for s in live.iter() {
            queries += 1;
            tau0 = tau0.max(scale(counts[s as usize]) - cost(s));
        }
        if tau0 <= 0.0 {
            session.add_sampling_work(theta as u64);
            session.add_oracle_queries(queries);
            self.done = true;
            return Vec::new();
        }

        // Decaying-threshold sweeps over conditional marginals; the counts
        // are recounted only after an admission changed the batch.
        let mut batch: Vec<Node> = Vec::new();
        let mut stale = false;
        let floor = self.cfg.eps * tau0 / k as f64;
        let mut tau = tau0;
        while batch.len() < k && tau >= floor {
            for s in live.iter() {
                if batch.len() >= k || in_batch.contains(s) {
                    continue;
                }
                if stale {
                    counts = pool.slot_counts(0, theta, &in_batch);
                    stale = false;
                }
                queries += 1;
                let gain = scale(counts[s as usize]) - cost(s);
                if gain >= tau && gain > 0.0 {
                    in_batch.insert(s);
                    batch.push(target[s as usize]);
                    stale = true;
                }
            }
            tau *= 1.0 - self.cfg.eps;
        }
        session.add_sampling_work(theta as u64);
        session.add_oracle_queries(queries);
        debug_assert!(!batch.is_empty(), "tau0 > 0 admits at least the argmax");
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TpmInstance;
    use crate::runner::evaluate_adaptive;
    use atpm_graph::GraphBuilder;

    fn star_instance() -> TpmInstance {
        let mut b = GraphBuilder::new(5);
        for v in 1..=3 {
            b.add_edge(0, v, 1.0).unwrap();
        }
        TpmInstance::new(b.build(), vec![0, 4], &[2.0, 3.0])
    }

    #[test]
    fn keeps_profitable_and_rejects_unprofitable() {
        let inst = star_instance();
        let mut p = ThresholdBatch {
            seed: 3,
            ..Default::default()
        };
        let summary = evaluate_adaptive(&inst, &mut p, &[1, 2, 3]);
        // Hub: spread 4 at cost 2 → profit 2. Isolate: spread 1 at cost 3.
        for profit in &summary.profits {
            assert!((profit - 2.0).abs() < 1e-9, "profit {profit}");
        }
        assert!(summary.seeds_per_run.iter().all(|&s| s == 1));
    }

    #[test]
    fn one_round_selects_a_whole_batch() {
        // Four independent profitable hubs: one sampling round must admit
        // all of them (that's the point of batching).
        let mut b = GraphBuilder::new(12);
        for hub in 0..4u32 {
            b.add_edge(hub, 4 + 2 * hub, 1.0).unwrap();
            b.add_edge(hub, 5 + 2 * hub, 1.0).unwrap();
        }
        let inst = TpmInstance::new(b.build(), vec![0, 1, 2, 3], &[1.0, 1.0, 1.0, 1.0]);
        let mut session = AdaptiveSession::new(&inst, 9);
        let mut stepper = ThresholdBatch {
            seed: 5,
            ..Default::default()
        }
        .stepper();
        let batch = stepper.next_batch(&mut session, 4);
        assert_eq!(batch.len(), 4, "{batch:?}");
        session.select_batch(&batch);
        assert_eq!(session.rounds(), 1);
        assert!(session.oracle_queries() > 0, "query accounting recorded");
        assert!(session.sampling_work() > 0, "sampling accounting recorded");
        let rest = stepper.next_batch(&mut session, 4);
        assert!(rest.is_empty(), "everything activated after one round");
    }

    #[test]
    fn batch_respects_submodular_overlap() {
        // Two targets covering the same audience of 3 at cost 1.5: the
        // second conditional marginal (1 − 1.5 < 0) must not be admitted.
        let mut b = GraphBuilder::new(5);
        for v in 2..5 {
            b.add_edge(0, v, 1.0).unwrap();
            b.add_edge(1, v, 1.0).unwrap();
        }
        let inst = TpmInstance::new(b.build(), vec![0, 1], &[1.5, 1.5]);
        let mut session = AdaptiveSession::new(&inst, 2);
        let mut stepper = ThresholdBatch {
            theta: 8_000,
            seed: 4,
            ..Default::default()
        }
        .stepper();
        let batch = stepper.next_batch(&mut session, 2);
        assert_eq!(batch.len(), 1, "{batch:?}");
    }

    #[test]
    fn deterministic_given_seed_and_threads() {
        let inst = star_instance();
        for threads in [1usize, 3] {
            let mut p1 = ThresholdBatch {
                seed: 11,
                threads,
                ..Default::default()
            };
            let mut p2 = ThresholdBatch {
                seed: 11,
                threads,
                ..Default::default()
            };
            let a = evaluate_adaptive(&inst, &mut p1, &[4, 5]);
            let b = evaluate_adaptive(&inst, &mut p2, &[4, 5]);
            assert_eq!(a.profits, b.profits);
            assert_eq!(a.sampling_work, b.sampling_work);
        }
    }

    #[test]
    fn empty_target_set_selects_nothing() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.5).unwrap();
        let inst = TpmInstance::new(b.build(), vec![], &[]);
        let mut p = ThresholdBatch::default();
        let summary = evaluate_adaptive(&inst, &mut p, &[1, 2]);
        assert!(summary.profits.iter().all(|&p| p == 0.0));
    }

    #[test]
    #[should_panic(expected = "eps must be in")]
    fn rejects_bad_eps() {
        let _ = ThresholdBatch {
            eps: 1.0,
            ..Default::default()
        }
        .stepper();
    }
}
