//! Resumable adaptive policies: one committed seed — or one committed
//! *batch* — at a time.
//!
//! [`AdaptivePolicy::run`](crate::AdaptivePolicy::run) drives a whole
//! realization in one call, observing each cascade internally. A network
//! service cannot do that — it must *pause* after deciding a seed, hand the
//! seed to the outside world, and only continue once the realized activations
//! come back. [`PolicyStepper`] is that inversion of control: `next_seed`
//! examines candidates until the policy commits one (or finishes), without
//! applying it; the driver decides how the observation happens —
//! [`AdaptiveSession::select`] in-process, or
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
//! The adaptive policies (`Hatp`, `Ars`, `DeployAll`) implement their
//! `run` **on top of** their stepper via [`run_stepper`], so a stepped run
//! interleaved with external observations is byte-identical to the in-process
//! run by construction — there is only one decision path. The end-to-end
//! protocol test in `atpm-serve` pins this across the HTTP boundary.

use std::borrow::Cow;

use atpm_graph::Node;

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

/// Drives a stepper to completion in-process: every committed seed is
/// observed against the session's own realization. This is the whole body of
/// the steppable policies' `AdaptivePolicy::run`.
pub fn run_stepper<S: PolicyStepper + ?Sized>(
    stepper: &mut S,
    session: &mut AdaptiveSession<'_>,
) -> Vec<Node> {
    while let Some(u) = stepper.next_seed(session) {
        session.select(u);
    }
    session.selected().to_vec()
}

/// Drives a stepper to completion in batched rounds of up to `k` seeds:
/// each round's batch is decided against one residual state, then observed
/// jointly via [`AdaptiveSession::select_batch`]. At `k = 1` this is
/// byte-identical to [`run_stepper`] (one `next_seed` per round, one
/// observation per seed).
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

    #[test]
    fn stepped_and_external_drives_agree() {
        // Drive the same stepper twice: once in-process, once simulating the
        // serve protocol (observation computed by a twin session). The seed
        // sequences and ledgers must match exactly.
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        let inst = TpmInstance::new(b.build(), vec![0, 2, 4], &[0.5, 0.5, 0.5]);
        for world in 0..8u64 {
            let mut s1 = AdaptiveSession::new(&inst, world);
            let in_process = run_stepper(&mut TakeAll { idx: 0 }, &mut s1);

            let mut oracle = AdaptiveSession::new(&inst, world);
            let mut s2 = AdaptiveSession::new(&inst, 12345); // world unused
            let mut stepper = TakeAll { idx: 0 };
            while let Some(u) = stepper.next_seed(&mut s2) {
                let observed = oracle.select(u);
                s2.apply_observation(u, &observed);
            }
            assert_eq!(s2.selected(), &in_process[..], "world {world}");
            assert_eq!(s2.profit().to_bits(), s1.profit().to_bits());
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
