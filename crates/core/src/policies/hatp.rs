//! HATP — adaptive double greedy with *hybrid* sampling error
//! (Algorithm 4, §IV).
//!
//! ADDATP's purely additive error needs `O(n_i²·ln n)` RR sets to resolve
//! nodes whose profit sits near the judgement bar. HATP bounds estimates with
//! a **hybrid** of relative error `ε_i` and additive error `ζ_i`
//! (Lemma 7): nodes with large marginal spread are certified by the relative
//! part, nodes with small marginal spread by the additive part, and an
//! adaptive schedule (lines 19–23) steers whichever part pays off.
//!
//! With `f̂`, `r̂` the spread estimates (`fest`, `rest` in the paper), the
//! hybrid confidence interval for the true front spread `μ_f` is
//! `[(f̂ − n_iζ_i)/(1+ε_i), (f̂ + n_iζ_i)/(1−ε_i)]` (and likewise for `μ_r`),
//! giving the stopping conditions
//!
//! ```text
//! C1': (f̂+r̂−2n_iζ_i)/(1+ε_i) ≥ 2c(u)   -- certified select
//!    ∨ (r̂−n_iζ_i)/(1+ε_i)   ≥ c(u)     -- rear profit certifiably ≤ 0
//!    ∨ (f̂+r̂+2n_iζ_i)/(1−ε_i) ≤ 2c(u)   -- certified reject
//!    ∨ (f̂+n_iζ_i)/(1−ε_i)   ≤ c(u)     -- front profit certifiably ≤ 0
//! C2': ε_i ≤ ε ∧ n_iζ_i ≤ 1            -- too close to matter
//! ```
//!
//! (the paper prints the final threshold `ε` inside `C1'`; we use the
//! current round's `ε_i`, which is what Lemma 7 actually certifies). The
//! decision on stop is `f̂ + r̂ ≥ 2c(u)`; with both counts read off the same
//! sets `f̂ ≥ r̂` pointwise, so this agrees with every certificate above.
//! Each decision reports its [`Stop`] reason: `C1`, `C2` without `C1`, or
//! `Forced` when the round hit [`Hatp::max_theta`] with neither.
//!
//! ## One RR pool per walk segment
//!
//! Algorithm 4 draws fresh RR sets in every round of every candidate (line
//! 9). This implementation draws them once per *walk segment*, the
//! candidates examined from one keep to the next (one `next_seed` call of
//! the [`TargetWalk`]; HNTP cuts its walk the same way). Round `j` of
//! every candidate in the segment reads chunk `j` of one
//! [`RrPool`], which grows on demand to the largest θ any round `j` has
//! asked for. Theorem 4 still holds, for three reasons:
//!
//! 1. *The conditions are fixed by the segment's start.* Nothing is
//!    observed inside a segment, so the residual graph `G_i`, `n_i` and
//!    `S_{i−1}` do not change. Every candidate examined since the last keep
//!    was rejected, so the `r`-th candidate of the segment has
//!    `T_rest = T_0 ∖ {u_1, …, u_r}`, where `T_0` is `T_rest` at the
//!    segment's start. That is a function of the start alone, not of any
//!    sampled set.
//! 2. *Each candidate's rounds read independent chunks.* For the `r`-th
//!    candidate, consider the run of Algorithm 4's rounds with those fixed
//!    conditions, where round `j` counts the first `θ_j` sets of chunk `j`.
//!    Its `θ_j`, `ε_j` and `ζ_j` depend only on its own rounds before `j`,
//!    that is on chunks `0..j`. Chunk `j` is independent of those chunks
//!    and is a sequence of i.i.d. RR sets on `G_i`, and which prefix is
//!    counted does not depend on its content. So the round-`j` estimate
//!    obeys Lemma 7's bound at `δ_j` exactly as a fresh batch would.
//!    Growing a chunk appends sets and never changes its first `θ` sets.
//! 3. *The union bound is the same.* A candidate the walk examines makes
//!    exactly the decision of its run in point 2. So the walk fails only if
//!    some (position, round) bound fails, and the proof already takes a
//!    union bound over candidates and rounds. No independence *between*
//!    candidates is used. Sharing a chunk makes their estimates correlated,
//!    not wrong.
//!
//! A pool lives for one segment, so no set is reused after an observation
//! changed the graph, and nothing of it joins a suspended session.
//! `sampling_work` counts the sets drawn into pools: once per segment and
//! round, not once per candidate.
//!
//! Guarantee (Theorem 4): expected profit
//! `≥ (Λ(π_opt) − 2(k + ε·c(T))/(1−ε) − 2)/3`. Expected time
//! `O(k·m·E[I(v°)]/ε · ln(n/ε))` (Theorem 5) — a factor `≈ ε·n` cheaper than
//! ADDATP.

use atpm_graph::GraphView;
use atpm_ris::bounds::hatp_theta;
use atpm_ris::stream::RrPool;
use atpm_ris::NodeSet;

use crate::session::{AdaptiveSession, Stop};
use crate::stepper::{KeepRule, TargetWalk};
use crate::AdaptivePolicy;

const SQRT_2: f64 = std::f64::consts::SQRT_2;

/// Configuration of HATP.
#[derive(Debug, Clone)]
pub struct Hatp {
    /// Initial relative error `ε_0` (paper: 0.5).
    pub eps0: f64,
    /// Initial additive error scaled by alive nodes, `n_i·ζ_0` (paper: 64).
    pub initial_nzeta: f64,
    /// Relative-error threshold `ε` (paper: 0.05); also the `ε` of the
    /// Theorem 4 guarantee.
    pub eps_threshold: f64,
    /// RNG seed for the sampling rounds.
    pub seed: u64,
    /// Sampler worker threads.
    pub threads: usize,
    /// Per-round RR-set cap (see [`Addatp`](crate::policies::Addatp)). The
    /// default `usize::MAX` is the faithful algorithm, and it can be costly:
    /// on the Epinions stand-in (n ≈ 132k, 10 IMM targets, paper ε) one
    /// uncapped session sampled 2.6M–160M RR sets before the walk shared
    /// one pool per segment, depending on the graph seed. A finite cap
    /// binds there from the first round on: at 65536 every decision stops
    /// in round 1, about two thirds of them [`Stop::Forced`], and Theorem 4
    /// does not cover a forced decision. The cap bounds the sets one round
    /// counts; a segment draws each chunk once for all its candidates and
    /// keeps it until `next_seed` returns, so the cap also bounds the
    /// call's memory (the server caps served HATP at 2²² for that reason).
    pub max_theta: usize,
    /// Ablation switch: `false` replaces the adaptive ε/ζ schedule
    /// (lines 19–23) with a naive fixed `/√2` decay of both errors,
    /// isolating how much the paper's scheduling contributes.
    pub adaptive_schedule: bool,
}

impl Default for Hatp {
    fn default() -> Self {
        Hatp {
            eps0: 0.5,
            initial_nzeta: 64.0,
            eps_threshold: 0.05,
            seed: 0,
            threads: 1,
            max_theta: usize::MAX,
            adaptive_schedule: true,
        }
    }
}

impl Hatp {
    /// Examines the target in `slot`: runs sampling rounds on `pool`
    /// (round `j` reads chunk `j`) until a stopping condition fires, and
    /// returns the keep/reject decision with its stop reason. `front` and
    /// `rear` are `S_{i−1}` and `T_{i−1} ∖ {u}` as sets over target slots.
    /// Factored out so HNTP (the nonadaptive variant) can reuse it
    /// verbatim.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn decide_node<V: GraphView + Sync>(
        &self,
        pool: &mut RrPool,
        view: &V,
        slot: usize,
        cost: f64,
        front: &NodeSet,
        rear: &NodeSet,
        round_salt: &mut u64,
        work: &mut u64,
    ) -> (bool, Stop) {
        assert!(self.eps0 > 0.0 && self.eps0 < 1.0, "eps0 must be in (0,1)");
        assert!(
            self.eps_threshold > 0.0 && self.eps_threshold <= self.eps0,
            "threshold must be in (0, eps0]"
        );
        let ni = view.num_alive();
        if ni == 0 {
            // Every spread is 0: rejecting is certain.
            return (false, Stop::C1);
        }
        let nif = ni as f64;
        let n = view.num_nodes() as f64;
        let eps_t = self.eps_threshold;
        let mut eps = self.eps0;
        let mut zeta = (self.initial_nzeta / nif).min(0.5);
        // The paper initializes δ_0 = 1/(kn); using 1/n² is never looser for
        // k ≤ n and spares threading `k` through HNTP's reuse.
        let mut delta = 1.0 / (n * n.max(2.0));
        let mut round = 0;
        loop {
            let theta = hatp_theta(eps, zeta, delta).min(self.max_theta);
            if pool.drawn(round) < theta {
                *round_salt = round_salt
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                *work += pool.grow(view, round, theta, *round_salt) as u64;
            }
            let counts = pool.counts(round, theta, slot as u32, front, rear);
            if counts.theta == 0 {
                return (false, Stop::Forced);
            }
            let tf = counts.theta as f64;
            let fest = nif * counts.cov_front as f64 / tf;
            let rest = nif * counts.cov_rear as f64 / tf;
            let nz = nif * zeta;
            let c1 = (fest + rest - 2.0 * nz) / (1.0 + eps) >= 2.0 * cost
                || (rest - nz) / (1.0 + eps) >= cost
                || (fest + rest + 2.0 * nz) / (1.0 - eps) <= 2.0 * cost
                || (fest + nz) / (1.0 - eps) <= cost;
            let c2 = eps <= eps_t && nz <= 1.0;
            if c1 || c2 || theta >= self.max_theta {
                let stop = if c1 {
                    Stop::C1
                } else if c2 {
                    Stop::C2
                } else {
                    Stop::Forced
                };
                return (fest + rest >= 2.0 * cost, stop);
            }
            round += 1;
            // Adaptive error schedule (Algorithm 4, lines 19–23).
            if !self.adaptive_schedule {
                // Ablation: naive fixed decay, still respecting the floors.
                if eps > eps_t {
                    eps /= SQRT_2;
                }
                if nz > 1.0 {
                    zeta /= SQRT_2;
                }
                delta /= 2.0;
                continue;
            }
            if eps <= eps_t && nz > 1.0 {
                zeta /= 2.0;
            } else if eps > eps_t && nz <= 1.0 {
                eps /= 2.0;
            } else if fest >= 10.0 * nz {
                // Marginal spread dwarfs the additive error: the relative
                // part is doing the work — sharpen it.
                eps /= 2.0;
            } else if fest <= nz {
                // Marginal spread below the additive error: sharpen ζ.
                zeta /= 2.0;
            } else {
                eps /= SQRT_2;
                zeta /= SQRT_2;
            }
            delta /= 2.0;
        }
    }

    /// The keep rule of one realization, starting the salt chain at `seed`.
    pub(crate) fn rule(&self) -> HatpRule {
        HatpRule {
            cfg: self.clone(),
            round_salt: self.seed,
        }
    }
}

impl AdaptivePolicy for Hatp {
    type Stepper<'a> = TargetWalk<HatpRule>;

    fn stepper(&mut self) -> Self::Stepper<'_> {
        TargetWalk::new("HATP", self.rule())
    }
}

/// HATP's decision rule: `Hatp::decide_node` (shared with HNTP) on one RR
/// pool per walk segment, with the run's salt chain.
pub struct HatpRule {
    cfg: Hatp,
    round_salt: u64,
}

impl KeepRule for HatpRule {
    type Segment = RrPool;

    fn segment(&self, session: &AdaptiveSession<'_>, t_rest: &NodeSet) -> RrPool {
        RrPool::new(session.instance().target(), t_rest, self.cfg.threads)
    }

    fn keep(
        &mut self,
        pool: &mut RrPool,
        session: &mut AdaptiveSession<'_>,
        slot: usize,
        rear: &NodeSet,
    ) -> bool {
        // S_{i−1} is dead on the residual graph: the front condition is
        // empty, and a zero-width set reads every slot as absent.
        let empty = NodeSet::new(0);
        let u = session.instance().target()[slot];
        let mut work = 0u64;
        let (keep, stop) = self.cfg.decide_node(
            pool,
            session.residual(),
            slot,
            session.instance().cost(u),
            &empty,
            rear,
            &mut self.round_salt,
            &mut work,
        );
        session.add_sampling_work(work);
        session.add_stop(stop);
        keep
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::instance::TpmInstance;
    use crate::oracle::ExactOracle;
    use crate::policies::{Addatp, Adg};
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
    fn clear_cut_decisions_match_adg() {
        let inst = star_instance();
        let worlds = [1u64, 2, 3];
        let mut hatp = Hatp {
            seed: 5,
            ..Default::default()
        };
        let noisy = evaluate_adaptive(&inst, &mut hatp, &worlds);
        let mut adg = Adg::new(ExactOracle);
        let exact = evaluate_adaptive(&inst, &mut adg, &worlds);
        assert_eq!(noisy.profits, exact.profits);
    }

    #[test]
    fn hatp_is_far_cheaper_than_addatp_on_borderline_nodes() {
        // A borderline node (isolated, spread 1) with cost exactly 1 on a
        // larger empty graph: ADDATP must push n_iζ_i down to 1 with
        // additive-only rounds; HATP's relative part certifies much earlier.
        let n = 2000;
        let b = GraphBuilder::new(n);
        let inst = TpmInstance::new(b.build(), vec![0], &[1.0]);
        let mut hatp = Hatp {
            seed: 2,
            ..Default::default()
        };
        let h = evaluate_adaptive(&inst, &mut hatp, &[1]);
        let mut addatp = Addatp {
            seed: 2,
            ..Default::default()
        };
        let a = evaluate_adaptive(&inst, &mut addatp, &[1]);
        assert!(
            h.sampling_work * 10 < a.sampling_work,
            "HATP {} vs ADDATP {}",
            h.sampling_work,
            a.sampling_work
        );
        // Both end with ~zero profit regardless of decision.
        assert!(h.profits[0].abs() < 1e-9);
        assert!(a.profits[0].abs() < 1e-9);
    }

    #[test]
    fn schedule_terminates_on_all_branches() {
        // Mixed instance: a strong hub (relative branch), a weak node
        // (additive branch) and a borderline node (C2).
        let mut b = GraphBuilder::new(50);
        for v in 1..=20 {
            b.add_edge(0, v, 1.0).unwrap();
        }
        b.add_edge(21, 22, 0.5).unwrap();
        let inst = TpmInstance::new(b.build(), vec![0, 21, 30], &[5.0, 1.2, 1.0]);
        let mut hatp = Hatp {
            seed: 3,
            ..Default::default()
        };
        let s = evaluate_adaptive(&inst, &mut hatp, &[1, 2, 3, 4]);
        // Hub always selected: profit >= 21 - 5 - (other costs bounded by 2.2).
        for p in &s.profits {
            assert!(*p >= 21.0 - 5.0 - 2.2 - 1e-9, "profit {p}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = star_instance();
        let mut p1 = Hatp {
            seed: 7,
            ..Default::default()
        };
        let mut p2 = Hatp {
            seed: 7,
            ..Default::default()
        };
        let a = evaluate_adaptive(&inst, &mut p1, &[4, 5]);
        let b = evaluate_adaptive(&inst, &mut p2, &[4, 5]);
        assert_eq!(a.profits, b.profits);
        assert_eq!(a.sampling_work, b.sampling_work);
    }

    /// Targets: a hub of 150 certain leaves and an isolate, both at cost
    /// 1, among 100 more isolates that keep the residual graph large.
    pub(crate) fn hub_and_isolate() -> TpmInstance {
        let mut b = GraphBuilder::new(252);
        for v in 1..=150 {
            b.add_edge(0, v, 1.0).unwrap();
        }
        TpmInstance::new(b.build(), vec![0, 151], &[1.0, 1.0])
    }

    #[test]
    fn a_certified_decision_at_the_cap_is_not_forced() {
        // Round 1 is capped at 32 sets. The hub's bounds separate at once
        // (C1); the isolate's spread is within the round's error of its
        // cost, so it is decided only because the cap binds (Forced).
        let inst = hub_and_isolate();
        let mut hatp = Hatp {
            seed: 4,
            max_theta: 32,
            ..Default::default()
        };
        let mut session = AdaptiveSession::new(&inst, 1);
        hatp.run(&mut session);
        assert_eq!(session.selected()[0], 0, "the hub is kept");
        assert_eq!(
            session.stops(),
            [1, 0, 1],
            "C1 for the hub, Forced for the isolate"
        );
        assert_eq!(session.sampling_work(), 64, "one 32-set chunk per segment");
    }

    #[test]
    #[should_panic(expected = "eps0")]
    fn rejects_bad_eps0() {
        let b = GraphBuilder::new(2);
        let inst = TpmInstance::new(b.build(), vec![0], &[1.0]);
        let mut p = Hatp {
            eps0: 1.5,
            ..Default::default()
        };
        let _ = evaluate_adaptive(&inst, &mut p, &[1]);
    }
}
