//! Resumable adaptive policies: one committed seed — or one committed
//! *batch* — at a time.
//!
//! A network service cannot run a whole realization in one call — it must
//! *pause* after deciding a seed, hand the seed to the outside world, and
//! only continue once the realized activations come back. [`PolicyStepper`]
//! is that inversion of control: `next_seed` examines candidates until the
//! policy commits one (or finishes), without applying it; the driver decides
//! how the observation happens — [`AdaptiveSession::select`] in-process, or
//! [`AdaptiveSession::apply_observation`] with externally reported
//! activations.
//!
//! [`next_batch`](PolicyStepper::next_batch) is the low-adaptivity form of
//! the same contract: up to `k` seeds decided in one round against **one**
//! residual state, observed together afterwards (adaptive greedy only needs
//! fresh observations between rounds, not between individual seeds). The
//! default implementation loops `next_seed` without intervening
//! observations, so every cursor-style stepper is batch-capable for free;
//! policies with native batch selection (`ThresholdBatch`) override it. At
//! `k = 1` a batched drive is byte-identical to the single-seed drive by
//! construction — `next_batch(session, 1)` is exactly one `next_seed` call.
//!
//! Every adaptive policy's in-process `run` drives its own stepper, so a
//! stepped run interleaved with external observations is byte-identical to
//! the in-process run by construction — there is only one decision path,
//! pinned across the HTTP boundary by `atpm-serve`'s end-to-end test. ADG,
//! ADDATP, HATP, ARS and DeployAll share one stepper, [`TargetWalk`], and
//! differ only in their [`KeepRule`]; ThresholdBatch, which decides whole
//! rounds at once, is the only policy with its own.

use std::borrow::Cow;

use atpm_graph::Node;
use atpm_ris::NodeSet;

use crate::session::AdaptiveSession;

/// An adaptive policy in resumable form. Implementations hold all iteration
/// state (candidate cursor, RNG, sampling salts) internally; the session
/// passed to [`next_seed`](PolicyStepper::next_seed) supplies everything a
/// policy may legally observe (residual graph, activation flags, costs).
pub trait PolicyStepper: Send {
    /// Display name of the policy (reported in ledgers and tables).
    fn name(&self) -> Cow<'static, str>;

    /// Decides the next seed to commit, **without** committing it. The
    /// driver must apply the seed (via [`AdaptiveSession::select`] or
    /// [`AdaptiveSession::apply_observation`]) before calling `next_seed`
    /// again. Returns `None` once every candidate has been examined.
    ///
    /// May record sampling effort on the session
    /// ([`AdaptiveSession::add_sampling_work`]) but must not mutate the
    /// residual state.
    fn next_seed(&mut self, session: &mut AdaptiveSession<'_>) -> Option<Node>;

    /// Decides the next *batch* of up to `k` distinct seeds against the
    /// current residual state, **without** committing any of them — the
    /// low-adaptivity round primitive. The driver must apply the whole
    /// batch (via [`AdaptiveSession::select_batch`] or
    /// [`AdaptiveSession::apply_observations`]) before calling again. An
    /// empty return means the policy is finished.
    ///
    /// The default loops [`next_seed`](Self::next_seed) with no
    /// observations in between: later seeds of the batch are decided
    /// against the same (stale) residual state as the first — exactly the
    /// bounded adaptivity gap batched seeding trades for round-trips.
    /// Cursor-style steppers (every in-tree policy) never re-propose a
    /// node, so the loop terminates; as a backstop against a stepper that
    /// would, a repeated proposal ends the batch early instead of looping.
    /// `next_batch(session, 1)` is exactly one `next_seed` call, so a
    /// `k = 1` batched drive is byte-identical to the single-seed drive.
    fn next_batch(&mut self, session: &mut AdaptiveSession<'_>, k: usize) -> Vec<Node> {
        let mut batch: Vec<Node> = Vec::new();
        while batch.len() < k {
            match self.next_seed(session) {
                Some(u) if !batch.contains(&u) => batch.push(u),
                _ => break,
            }
        }
        batch
    }
}

/// The keep/reject decision of a [`TargetWalk`]: the double greedies of
/// Algorithms 2–4 compare a candidate's front profit with its rear profit,
/// ARS flips a coin and DeployAll keeps everything.
///
/// The walk examines candidates in *segments*: the run of candidates from
/// one keep to the next, which is one [`PolicyStepper::next_seed`] call.
/// Within a segment the residual graph is fixed and every candidate's
/// conditions are fixed by the segment's start, since each earlier
/// candidate of the segment was rejected. A rule may share scratch across
/// the segment's candidates (the sampling rules share one RR pool); the
/// walk drops it when the call returns.
pub trait KeepRule: Send {
    /// Scratch shared by the candidates of one segment.
    type Segment;

    /// Opens a segment: `t_rest` is `T_rest` at its start, a set over
    /// target slots (indices into the instance's target list).
    fn segment(&self, session: &AdaptiveSession<'_>, t_rest: &NodeSet) -> Self::Segment;

    /// Decides whether to keep the candidate `u` in target slot `slot`,
    /// which is alive on the current residual graph; `rear` is
    /// `T_{i−1} ∖ {u}` as a set over slots. The front condition `S_{i−1}`
    /// is empty: every observed seed was activated and removed (seeds of a
    /// batch still being decided are the batching gap). May record
    /// sampling effort on the session but must not mutate the residual
    /// state.
    fn keep(
        &mut self,
        segment: &mut Self::Segment,
        session: &mut AdaptiveSession<'_>,
        slot: usize,
        rear: &NodeSet,
    ) -> bool;
}

/// The adaptive target walk as one [`PolicyStepper`]: walks the target set
/// in order, skips candidates an earlier cascade activated, and commits
/// each remaining one its [`KeepRule`] keeps. It owns the cursor and
/// `T_rest`; the rule owns everything else (oracle, salts, coins).
pub struct TargetWalk<R> {
    name: &'static str,
    rule: R,
    idx: usize,
    /// The kept candidates and every candidate not yet examined, as a
    /// `k`-bit set over target slots; sized on the first call (the stepper
    /// does not know `k` until it sees a session).
    t_rest: Option<NodeSet>,
}

impl<R> TargetWalk<R> {
    /// Policy `name`, examining the whole target set with `rule`.
    pub(crate) fn new(name: &'static str, rule: R) -> Self {
        TargetWalk {
            name,
            rule,
            idx: 0,
            t_rest: None,
        }
    }
}

impl<R: KeepRule> PolicyStepper for TargetWalk<R> {
    fn name(&self) -> Cow<'static, str> {
        self.name.into()
    }

    fn next_seed(&mut self, session: &mut AdaptiveSession<'_>) -> Option<Node> {
        let target = session.instance().target();
        let k = target.len();
        let t_rest = self
            .t_rest
            .get_or_insert_with(|| NodeSet::from_iter(k, 0..k as Node));
        let mut segment = self.rule.segment(session, t_rest);
        while let Some(&u) = target.get(self.idx) {
            let slot = self.idx;
            self.idx += 1;
            t_rest.remove(slot as Node);
            if session.is_activated(u) {
                continue;
            }
            if self.rule.keep(&mut segment, session, slot, t_rest) {
                t_rest.insert(slot as Node);
                return Some(u);
            }
        }
        None
    }
}

/// Drives a stepper to completion in-process: every committed seed is
/// observed against the session's own realization before the next one is
/// decided. This is the default
/// [`AdaptivePolicy::run`](crate::AdaptivePolicy::run), and exactly
/// [`run_stepper_batched`] at `k = 1`.
pub fn run_stepper<S: PolicyStepper + ?Sized>(
    stepper: &mut S,
    session: &mut AdaptiveSession<'_>,
) -> Vec<Node> {
    run_stepper_batched(stepper, session, 1)
}

/// Drives a stepper to completion in batched rounds of up to `k` seeds:
/// each round's batch is decided against one residual state, then observed
/// jointly via [`AdaptiveSession::select_batch`].
pub fn run_stepper_batched<S: PolicyStepper + ?Sized>(
    stepper: &mut S,
    session: &mut AdaptiveSession<'_>,
    k: usize,
) -> Vec<Node> {
    assert!(k > 0, "batch size must be positive");
    loop {
        let batch = stepper.next_batch(session, k);
        if batch.is_empty() {
            break;
        }
        session.select_batch(&batch);
    }
    session.selected().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TpmInstance;
    use crate::oracle::ExactOracle;
    use crate::policies::{Addatp, Adg};
    use crate::AdaptivePolicy;
    use atpm_graph::GraphBuilder;

    /// Stepper that proposes every not-yet-activated target in order.
    struct TakeAll {
        idx: usize,
    }

    impl PolicyStepper for TakeAll {
        fn name(&self) -> Cow<'static, str> {
            "TakeAll".into()
        }
        fn next_seed(&mut self, session: &mut AdaptiveSession<'_>) -> Option<Node> {
            let targets = session.instance().target();
            while self.idx < targets.len() {
                let u = targets[self.idx];
                self.idx += 1;
                if !session.is_activated(u) {
                    return Some(u);
                }
            }
            None
        }
    }

    #[test]
    fn run_stepper_commits_every_proposed_seed() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0).unwrap();
        let inst = TpmInstance::new(b.build(), vec![0, 1, 3], &[1.0, 1.0, 1.0]);
        let mut session = AdaptiveSession::new(&inst, 5);
        let selected = run_stepper(&mut TakeAll { idx: 0 }, &mut session);
        // 0 cascades to 1, so 1 is skipped; 3 is isolated and selected.
        assert_eq!(selected, vec![0, 3]);
        assert_eq!(session.total_activated(), 3);
    }

    fn drive_in_process<'i>(
        stepper: &mut dyn PolicyStepper,
        inst: &'i TpmInstance,
        world: u64,
    ) -> AdaptiveSession<'i> {
        let mut session = AdaptiveSession::new(inst, world);
        run_stepper(stepper, &mut session);
        session
    }

    /// Drives `stepper` the way the serve protocol does: every seed's
    /// observation is computed by a twin session on `world` and reported
    /// back through [`AdaptiveSession::apply_observation`].
    fn drive_externally<'i>(
        stepper: &mut dyn PolicyStepper,
        inst: &'i TpmInstance,
        world: u64,
    ) -> AdaptiveSession<'i> {
        let mut oracle = AdaptiveSession::new(inst, world);
        let mut session = AdaptiveSession::new(inst, 12345); // world unused
        while let Some(u) = stepper.next_seed(&mut session) {
            let observed = oracle.select(u);
            session.apply_observation(u, &observed);
        }
        session
    }

    #[test]
    fn stepped_and_external_drives_agree() {
        // Drive each stepper twice: once in-process, once simulating the
        // serve protocol. Seeds, profit bits and sampling work must match.
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        let inst = TpmInstance::new(b.build(), vec![0, 2, 4], &[0.5, 1.2, 0.9]);
        let addatp = Addatp {
            seed: 3,
            ..Default::default()
        };
        for world in 0..8u64 {
            let drives = [
                (
                    "TakeAll",
                    drive_in_process(&mut TakeAll { idx: 0 }, &inst, world),
                    drive_externally(&mut TakeAll { idx: 0 }, &inst, world),
                ),
                (
                    "ADG",
                    drive_in_process(&mut Adg::new(ExactOracle).stepper(), &inst, world),
                    drive_externally(&mut Adg::new(ExactOracle).stepper(), &inst, world),
                ),
                (
                    "ADDATP",
                    drive_in_process(&mut addatp.clone().stepper(), &inst, world),
                    drive_externally(&mut addatp.clone().stepper(), &inst, world),
                ),
            ];
            for (name, in_process, external) in drives {
                let at = format!("{name} world {world}");
                assert_eq!(external.selected(), in_process.selected(), "{at}");
                assert_eq!(
                    external.profit().to_bits(),
                    in_process.profit().to_bits(),
                    "{at}"
                );
                assert_eq!(external.sampling_work(), in_process.sampling_work(), "{at}");
            }
        }
    }

    #[test]
    fn batch_of_one_is_byte_identical_to_single_seed_drive() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        let inst = TpmInstance::new(b.build(), vec![0, 2, 4], &[0.5, 0.5, 0.5]);
        for world in 0..8u64 {
            let mut s1 = AdaptiveSession::new(&inst, world);
            let single = run_stepper(&mut TakeAll { idx: 0 }, &mut s1);
            let mut s2 = AdaptiveSession::new(&inst, world);
            let batched = run_stepper_batched(&mut TakeAll { idx: 0 }, &mut s2, 1);
            assert_eq!(batched, single, "world {world}");
            assert_eq!(s2.profit().to_bits(), s1.profit().to_bits());
            assert_eq!(s2.rounds(), s1.rounds(), "world {world}");
        }
    }

    #[test]
    fn default_next_batch_loops_next_seed_without_observing() {
        // TakeAll on a deterministic chain: a batch of 3 is decided before
        // any cascade is observed, so node 1 (which node 0 activates) is
        // still proposed — the low-adaptivity gap, visible and intended.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 1.0).unwrap();
        let inst = TpmInstance::new(b.build(), vec![0, 1, 3], &[1.0, 1.0, 1.0]);
        let mut session = AdaptiveSession::new(&inst, 5);
        let mut stepper = TakeAll { idx: 0 };
        let batch = stepper.next_batch(&mut session, 3);
        assert_eq!(batch, vec![0, 1, 3], "no observation between decisions");
        // Applied jointly, the cascade still counts every node once.
        let cascade = session.select_batch(&batch);
        assert_eq!(cascade.len(), 3, "seeds {{0, 1, 3}}; node 1 not doubled");
        assert_eq!(session.total_activated(), 3);
        assert_eq!(session.rounds(), 1, "one batch = one adaptivity round");
    }

    #[test]
    fn batched_run_finishes_in_fewer_rounds() {
        let mut b = GraphBuilder::new(8);
        b.add_edge(0, 4, 0.5).unwrap();
        let inst = TpmInstance::new(b.build(), vec![0, 1, 2, 3], &[1.0, 1.0, 1.0, 1.0]);
        let mut s1 = AdaptiveSession::new(&inst, 3);
        run_stepper(&mut TakeAll { idx: 0 }, &mut s1);
        let mut s2 = AdaptiveSession::new(&inst, 3);
        run_stepper_batched(&mut TakeAll { idx: 0 }, &mut s2, 4);
        assert_eq!(s1.selected(), s2.selected(), "independent targets");
        assert_eq!(s1.rounds(), 4);
        assert_eq!(s2.rounds(), 1);
    }
}
