//! ADDATP — adaptive double greedy with additive sampling error
//! (Algorithm 3, §III-C).
//!
//! ADDATP mirrors ADG but estimates the front/rear profits by reverse
//! influence sampling. Per examined node it runs rounds of increasing
//! precision: round `j` draws `θ = ln(8/δ_j)/(2ζ_j²)` RR sets (Hoeffding,
//! Lemma 4) and stops once either
//!
//! * `C1`: the estimates are separated enough to certify the comparison
//!   (`|ρ̃_f − ρ̃_r| ≥ 2n_iζ_i`, or one of them is certifiably negative), or
//! * `C2`: `n_iζ_i ≤ η` — the profits are too close to distinguish and the
//!   loss from guessing is at most ~2η (`η = 1` in the base algorithm).
//!
//! Otherwise `ζ ← ζ/√2`, `δ ← δ/2` and the round repeats with fresh samples.
//!
//! The **dynamic-threshold variant** (§III-C "Discussion") re-budgets `η`
//! from the profit accumulated so far, yielding an expected
//! `(1−ε)/3`-approximation: before examining `u_{i+1}` it sets
//! `η_{i+1} = (ε·ρ_i − 2Ση̃_j − 2)/2` whenever that budget is nonnegative
//! (and disables `C2` otherwise).
//!
//! Round `j` of every candidate examined from one keep to the next reads
//! chunk `j` of one RR pool, exactly as HATP does; the argument that this
//! keeps the guarantee is in [`Hatp`](crate::policies::Hatp)'s module
//! docs. ADDATP's `θ_j` depends on `j` and `n_i` only, so a segment draws
//! each chunk once. Point 1 of that argument does not carry over to the
//! dynamic variant as stated: its `C2` threshold `η` grows within a
//! segment whenever a rejected candidate stops by `C2`, and that candidate
//! read the same chunks, so a later candidate's stopping rule depends on
//! sampled sets. The guarantee holds all the same because `θ_j` does not
//! depend on the data: the estimate of each (candidate, round) is a count
//! over a fixed-size prefix of chunk `j`, Lemma 4 bounds it at `δ_j`
//! whichever round the rule stops in, and the union bound over candidates
//! and rounds covers every estimate. `sampling_work` counts the sets drawn
//! into pools. Each decision reports its [`Stop`] reason.
//!
//! Guarantee (Theorem 2): expected profit `≥ (Λ(π_opt) − (2k+2))/3`.
//! Expected time `O(k·m·n·E[I(v°)]·ln n)` (Theorem 3) — the `n²` per-node
//! sample blowup near `C2` is exactly the inefficiency HATP removes.

use atpm_graph::GraphView;
use atpm_ris::bounds::addatp_theta;
use atpm_ris::stream::RrPool;
use atpm_ris::NodeSet;

use crate::session::{AdaptiveSession, Stop};
use crate::stepper::{KeepRule, TargetWalk};
use crate::AdaptivePolicy;

const SQRT_2: f64 = std::f64::consts::SQRT_2;

/// Configuration and state of ADDATP.
#[derive(Debug, Clone)]
pub struct Addatp {
    /// Initial additive error scaled by alive nodes: `n_i·ζ_0` (the paper's
    /// experiments use 64).
    pub initial_nzeta: f64,
    /// RNG seed for the sampling rounds.
    pub seed: u64,
    /// Sampler worker threads.
    pub threads: usize,
    /// Per-round RR-set cap. `usize::MAX` is the faithful algorithm; finite
    /// caps force a best-effort decision once a round would exceed the cap
    /// (the benches use this to keep ADDATP's `O(n²ζ⁻²)` tail affordable,
    /// mirroring how the paper could only run it on the smallest dataset).
    pub max_theta: usize,
    /// `Some(ε)` enables the dynamic-threshold variant with target
    /// approximation `(1−ε)/3`.
    pub dynamic_eps: Option<f64>,
}

impl Default for Addatp {
    fn default() -> Self {
        Addatp {
            initial_nzeta: 64.0,
            seed: 0,
            threads: 1,
            max_theta: usize::MAX,
            dynamic_eps: None,
        }
    }
}

impl Addatp {
    /// The keep rule of one realization, starting the salt chain at `seed`.
    pub(crate) fn rule(&self) -> AddatpRule {
        AddatpRule {
            cfg: self.clone(),
            round_salt: self.seed,
            eta_tilde_sum: 0.0,
        }
    }
}

impl AdaptivePolicy for Addatp {
    type Stepper<'a> = TargetWalk<AddatpRule>;

    fn stepper(&mut self) -> Self::Stepper<'_> {
        let name = match self.dynamic_eps {
            None => "ADDATP",
            Some(_) => "ADDATP-dyn",
        };
        TargetWalk::new(name, self.rule())
    }
}

/// ADDATP's decision rule: additive-error rounds on one RR pool per walk
/// segment, with the run's salt chain and the dynamic variant's `Ση̃_j`.
pub struct AddatpRule {
    cfg: Addatp,
    round_salt: u64,
    eta_tilde_sum: f64,
}

impl KeepRule for AddatpRule {
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
        let k = session.instance().target().len();
        let n = session.instance().graph().num_nodes();
        // S_{i−1} is dead on the residual graph: the front condition is
        // empty, and a zero-width set reads every slot as absent.
        let empty = NodeSet::new(0);
        let ni = session.residual().num_alive();
        debug_assert!(ni >= 1, "u alive implies n_i >= 1");
        let nif = ni as f64;
        let c = session.instance().cost(session.instance().target()[slot]);
        // ζ_0 ∈ [1/n_i, 1): start from n_i·ζ_0 = initial_nzeta.
        let mut zeta = (self.cfg.initial_nzeta / nif).min(0.5);
        let mut delta = 1.0 / (k as f64 * n as f64);
        // C2 threshold: fixed 1 in the base algorithm, re-budgeted from
        // accumulated profit in the dynamic variant.
        let eta = match self.cfg.dynamic_eps {
            None => 1.0,
            Some(eps) => ((eps * session.profit() - 2.0 * self.eta_tilde_sum - 2.0) / 2.0).max(0.0),
        };

        let mut round = 0;
        loop {
            let theta = addatp_theta(zeta, delta).min(self.cfg.max_theta);
            if pool.drawn(round) < theta {
                self.round_salt = self
                    .round_salt
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1);
                let drawn = pool.grow(session.residual(), round, theta, self.round_salt);
                session.add_sampling_work(drawn as u64);
            }
            let counts = pool.counts(round, theta, slot as u32, &empty, rear);
            if counts.theta == 0 {
                session.add_stop(Stop::Forced);
                return false;
            }
            let tf = counts.theta as f64;
            let rho_f = nif * counts.cov_front as f64 / tf - c;
            let rho_r = c - nif * counts.cov_rear as f64 / tf;
            let nz = nif * zeta;
            let c1 = (rho_f - rho_r).abs() >= 2.0 * nz || rho_f <= -nz || rho_r <= -nz;
            let c2 = nz <= eta;
            if c1 || c2 || theta >= self.cfg.max_theta {
                let stop = if c1 {
                    Stop::C1
                } else if c2 {
                    self.eta_tilde_sum += eta;
                    Stop::C2
                } else {
                    Stop::Forced
                };
                session.add_stop(stop);
                return rho_f >= rho_r;
            }
            zeta /= SQRT_2;
            delta /= 2.0;
            round += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TpmInstance;
    use crate::oracle::ExactOracle;
    use crate::policies::Adg;
    use crate::runner::evaluate_adaptive;
    use crate::stepper::PolicyStepper;
    use atpm_graph::GraphBuilder;

    /// Star hub 0 -> {1,2,3} (p=1) plus isolated 4; T = {0, 4}.
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
        let mut addatp = Addatp {
            seed: 5,
            ..Default::default()
        };
        let noisy = evaluate_adaptive(&inst, &mut addatp, &worlds);
        let mut adg = Adg::new(ExactOracle);
        let exact = evaluate_adaptive(&inst, &mut adg, &worlds);
        assert_eq!(noisy.profits, exact.profits, "margins are huge; must agree");
        assert!(noisy.sampling_work > 0);
    }

    #[test]
    fn skips_activated_nodes_and_keeps_ledger() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1.0).unwrap();
        let inst = TpmInstance::new(b.build(), vec![0, 1], &[0.1, 0.1]);
        let mut p = Addatp {
            seed: 1,
            ..Default::default()
        };
        let s = evaluate_adaptive(&inst, &mut p, &[3]);
        assert_eq!(s.seeds_per_run, vec![1]);
        assert!((s.profits[0] - 1.9).abs() < 1e-9);
    }

    #[test]
    fn c2_stops_borderline_nodes_without_explosion() {
        // A node whose profit is exactly on the judgement bar: spread 1,
        // cost 1 (isolated node). C2 (n_i ζ_i <= 1) must terminate sampling.
        let b = GraphBuilder::new(3);
        let inst = TpmInstance::new(b.build(), vec![0], &[1.0]);
        let mut p = Addatp {
            seed: 2,
            ..Default::default()
        };
        let s = evaluate_adaptive(&inst, &mut p, &[1]);
        // Whatever the decision, profit is 0 (spread 1 - cost 1 or nothing).
        assert!(s.profits[0].abs() < 1e-9);
        // Bounded sampling: zeta only needs to fall from 0.5 to 1/3, so the
        // round budget stays tiny.
        assert!(s.sampling_work < 2_000_000, "work {}", s.sampling_work);
    }

    #[test]
    fn max_theta_forces_decisions() {
        let inst = star_instance();
        let mut p = Addatp {
            seed: 3,
            max_theta: 64,
            ..Default::default()
        };
        let s = evaluate_adaptive(&inst, &mut p, &[1]);
        // 2 nodes examined, <= 64 sets each round, one round each.
        assert!(s.sampling_work <= 128, "work {}", s.sampling_work);
    }

    #[test]
    fn stop_reasons_separate_certified_from_forced() {
        // Every round is capped at 32 sets: the hub's profits separate
        // (C1), the isolate's do not, and only the cap decides it (Forced).
        let inst = crate::policies::hatp::tests::hub_and_isolate();
        let mut p = Addatp {
            seed: 4,
            max_theta: 32,
            ..Default::default()
        };
        let mut session = crate::AdaptiveSession::new(&inst, 1);
        p.run(&mut session);
        assert_eq!(session.selected()[0], 0);
        assert_eq!(session.stops(), [1, 0, 1]);
    }

    #[test]
    fn dynamic_variant_terminates_and_is_sane() {
        let inst = star_instance();
        let mut p = Addatp {
            seed: 4,
            dynamic_eps: Some(0.2),
            max_theta: 1 << 18,
            ..Default::default()
        };
        let s = evaluate_adaptive(&inst, &mut p, &[1, 2]);
        assert_eq!(p.stepper().name(), "ADDATP-dyn");
        // Hub is hugely profitable; it must still be selected.
        for (profit, seeds) in s.profits.iter().zip(&s.seeds_per_run) {
            assert!(*profit >= 2.0 - 1e-9, "profit {profit}");
            assert!(*seeds >= 1);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let inst = star_instance();
        let worlds = [9u64, 10];
        let mut p1 = Addatp {
            seed: 42,
            ..Default::default()
        };
        let mut p2 = Addatp {
            seed: 42,
            ..Default::default()
        };
        let a = evaluate_adaptive(&inst, &mut p1, &worlds);
        let b = evaluate_adaptive(&inst, &mut p2, &worlds);
        assert_eq!(a.profits, b.profits);
        assert_eq!(a.sampling_work, b.sampling_work);
    }
}
