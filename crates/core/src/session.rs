//! The adaptive feedback loop: one policy run against one possible world.
//!
//! A session is its state after `i` seeds (paper §II-B): the residual
//! graph `G_i` as an alive bitset, the seeds selected so far, and ledger
//! counters. The policy calls [`AdaptiveSession::select`] for each seed it
//! commits; the session observes the seed's cascade `A(u)` *in that
//! realization*, removes the activated nodes from the residual graph and
//! keeps the profit ledger. A node is activated exactly when it is dead
//! in the residual graph, so the bitset is the activation record too.
//! Everything a policy may legally observe is exposed here — and nothing
//! more (no peeking at un-cascaded coins).
//!
//! The cascade workspace is not session state: [`select`] observes with
//! one warm `CascadeEngine` per thread, shared by every session that
//! thread runs (a serve worker's scratch, or the runner's across worlds).
//!
//! Two service-friendly extensions support driving this loop over a network
//! protocol (the `atpm-serve` crate) instead of in-process:
//!
//! * [`AdaptiveSession::apply_observation`] decouples *deciding* a seed from
//!   *simulating* its cascade: the realized activation set can come from an
//!   external source (a real deployment, or a client-side simulator) and is
//!   applied to the residual state exactly the way [`select`] applies an
//!   internally simulated cascade — `select` is itself implemented on top of
//!   it, so the two paths cannot drift.
//! * [`AdaptiveSession::suspend`] / [`AdaptiveSession::resume`] move a
//!   session's state into an owned, `'static` [`SessionState`] and back.
//!   A server keeps the suspended state in its session table between
//!   requests and re-attaches it to the shared [`TpmInstance`] for the
//!   duration of one request — no self-referential structs, no per-request
//!   allocation (the buffers are moved, not copied).
//!
//! [`select`]: AdaptiveSession::select

use std::cell::RefCell;

use atpm_diffusion::{CascadeEngine, HashedRealization, MaterializedRealization, Realization};
use atpm_graph::{Edge, GraphView, Node, ResidualGraph};

use crate::instance::TpmInstance;

thread_local! {
    /// The thread's cascade workspace: it grows to the largest graph the
    /// thread has observed on and stays warm across sessions.
    static ENGINE: RefCell<CascadeEngine> = RefCell::new(CascadeEngine::new());
}

/// The possible world a session runs against: hashed (O(1) memory, the
/// default) or materialized (explicit bits, used by exact enumeration in
/// `theory`).
pub enum SessionWorld {
    /// Lazy hash-derived world identified by a seed.
    Hashed(HashedRealization),
    /// Explicit per-edge liveness bits.
    Materialized(MaterializedRealization),
}

impl Realization for SessionWorld {
    #[inline]
    fn is_live(&self, e: Edge, threshold: u32) -> bool {
        match self {
            SessionWorld::Hashed(r) => r.is_live(e, threshold),
            SessionWorld::Materialized(r) => r.is_live(e, threshold),
        }
    }
}

/// One adaptive run: realization + residual state + profit ledger.
pub struct AdaptiveSession<'a> {
    instance: &'a TpmInstance,
    realization: SessionWorld,
    residual: ResidualGraph<'a>,
    selected: Vec<Node>,
    /// Cumulative sampling effort reported by noise-model policies
    /// (RR sets generated); used by the runtime experiments.
    sampling_work: u64,
    /// Observation rounds applied so far — one per committed seed on the
    /// single-seed path, one per committed *batch* on the batched path.
    /// The adaptivity budget the low-adaptivity policies are spending.
    rounds: u64,
    /// Marginal-oracle evaluations reported by batch policies
    /// ([`add_oracle_queries`](Self::add_oracle_queries)), the query
    /// accounting of threshold-sampling selection.
    oracle_queries: u64,
    /// Sampling decisions by [`Stop`] reason, indexed by `Stop as usize`.
    stops: [u64; 3],
}

impl<'a> AdaptiveSession<'a> {
    /// Opens a session on `instance` for the possible world `world_seed`.
    pub fn new(instance: &'a TpmInstance, world_seed: u64) -> Self {
        Self::with_world(
            instance,
            SessionWorld::Hashed(HashedRealization::new(world_seed)),
        )
    }

    /// Opens a session against an explicit world (exact enumeration, tests).
    pub fn with_world(instance: &'a TpmInstance, world: SessionWorld) -> Self {
        AdaptiveSession {
            instance,
            realization: world,
            residual: ResidualGraph::new(instance.graph()),
            selected: Vec::new(),
            sampling_work: 0,
            rounds: 0,
            oracle_queries: 0,
            stops: [0; 3],
        }
    }

    /// The instance under evaluation.
    pub fn instance(&self) -> &'a TpmInstance {
        self.instance
    }

    /// The current residual graph `G_i`.
    pub fn residual(&self) -> &ResidualGraph<'a> {
        &self.residual
    }

    /// Whether `u` has been activated by an earlier selection (the
    /// `if u_i is activated` guard of Algorithms 2–4).
    pub fn is_activated(&self, u: Node) -> bool {
        !self.residual.is_alive(u)
    }

    /// Commits `u` as a seed: observes `A(u)` in this session's realization,
    /// removes the activated nodes from the residual graph, and returns
    /// `A(u)` (including `u` itself, if it was still alive).
    ///
    /// Panics if `u` is not a target node or was already activated —
    /// policies must check [`is_activated`](Self::is_activated) first, as
    /// the paper's pseudocode does.
    pub fn select(&mut self, u: Node) -> Vec<Node> {
        self.select_batch(std::slice::from_ref(&u))
    }

    /// Commits a whole *batch* of seeds in one observation round: observes
    /// the joint cascade `A(S)` of all batch seeds in this session's
    /// realization, removes the activated nodes from the residual graph,
    /// and returns `A(S)` in discovery order. One call counts as **one**
    /// adaptivity round ([`rounds`](Self::rounds)) however many seeds the
    /// batch holds; `select_batch(&[u])` is exactly [`select`](Self::select)
    /// — there is only one commit path.
    ///
    /// Panics like [`select`](Self::select) on an empty batch, a duplicate
    /// batch member, a non-target seed, or an already-activated seed (batch
    /// members must be distinct and un-activated *at batch decision time* —
    /// a later member activated mid-cascade by an earlier one is fine, and
    /// is the low-adaptivity gap batching accepts).
    pub fn select_batch(&mut self, seeds: &[Node]) -> Vec<Node> {
        self.validate_batch(seeds);
        let cascade = ENGINE
            .with_borrow_mut(|engine| engine.observe(&self.residual, &self.realization, seeds));
        self.apply_observations(seeds, &cascade);
        cascade
    }

    /// Commits `u` as a seed with an *externally observed* activation set
    /// instead of simulating the cascade against this session's realization.
    /// Returns the number of newly activated nodes.
    ///
    /// This is the network-protocol entry point: a service decides seeds with
    /// [`select`](Self::select)'s policy machinery but learns the realized
    /// cascade from the outside world. Already-activated nodes in `activated`
    /// are ignored (external reports may overlap), so the profit ledger stays
    /// consistent; when `activated` *is* a true cascade of the residual graph
    /// (as in [`select`](Self::select)) every node is new and the two paths
    /// update the state identically.
    ///
    /// Panics like [`select`](Self::select) on non-target or
    /// already-activated `u`, and on out-of-range activation ids — services
    /// must validate untrusted input first.
    pub fn apply_observation(&mut self, u: Node, activated: &[Node]) -> usize {
        self.apply_observations(std::slice::from_ref(&u), activated)
    }

    /// Commits a batch of seeds with an *externally observed* joint
    /// activation set — the batched form of
    /// [`apply_observation`](Self::apply_observation), and the network
    /// entry point of the `observe_batch` protocol route. Returns the
    /// number of newly activated nodes; one call counts as one adaptivity
    /// round.
    ///
    /// Panics like [`select_batch`](Self::select_batch) on invalid seeds
    /// and on out-of-range activation ids — services must validate
    /// untrusted input first.
    pub fn apply_observations(&mut self, seeds: &[Node], activated: &[Node]) -> usize {
        self.validate_batch(seeds);
        let n = self.instance.graph().num_nodes();
        let mut newly = 0usize;
        for &v in activated {
            assert!((v as usize) < n, "activated node {v} out of range");
            if self.residual.is_alive(v) {
                self.residual.remove(v);
                newly += 1;
            }
        }
        self.selected.extend_from_slice(seeds);
        self.rounds += 1;
        newly
    }

    /// The batch-commit preconditions, checked *before* any state changes:
    /// non-empty, every seed a distinct target, none activated yet.
    fn validate_batch(&self, seeds: &[Node]) {
        assert!(!seeds.is_empty(), "policy committed an empty batch");
        for (i, &u) in seeds.iter().enumerate() {
            assert!(
                self.instance.is_target(u),
                "policy selected non-target node {u}"
            );
            assert!(
                !self.is_activated(u),
                "policy selected already-activated node {u}"
            );
            assert!(
                !seeds[..i].contains(&u),
                "policy selected duplicate node {u} in one batch"
            );
        }
    }

    /// Seeds committed so far, in selection order.
    pub fn selected(&self) -> &[Node] {
        &self.selected
    }

    /// Number of nodes activated so far (`I_φ(S)` for the current `S`).
    pub fn total_activated(&self) -> usize {
        self.instance.graph().num_nodes() - self.residual.num_alive()
    }

    /// Realized profit so far: `I_φ(S) − c(S)`.
    pub fn profit(&self) -> f64 {
        self.total_activated() as f64 - self.instance.cost_of(&self.selected)
    }

    /// Records RR-set generation effort (noise-model policies call this so
    /// experiments can report sampling volume alongside wall-clock time).
    pub fn add_sampling_work(&mut self, rr_sets: u64) {
        self.sampling_work += rr_sets;
    }

    /// Total RR sets reported via [`add_sampling_work`](Self::add_sampling_work).
    pub fn sampling_work(&self) -> u64 {
        self.sampling_work
    }

    /// Records why a sampling rule stopped examining a candidate.
    pub fn add_stop(&mut self, stop: Stop) {
        self.stops[stop as usize] += 1;
    }

    /// Sampling decisions so far by reason, indexed by `Stop as usize`.
    pub fn stops(&self) -> [u64; 3] {
        self.stops
    }

    /// Observation rounds applied so far (one per committed seed or batch).
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Records marginal-oracle evaluations (batch policies call this so the
    /// threshold-sampling query accounting lands in ledgers).
    pub fn add_oracle_queries(&mut self, queries: u64) {
        self.oracle_queries += queries;
    }

    /// Total oracle queries reported via
    /// [`add_oracle_queries`](Self::add_oracle_queries).
    pub fn oracle_queries(&self) -> u64 {
        self.oracle_queries
    }

    /// The world seed this session runs against (0 for explicit worlds).
    pub fn world_seed(&self) -> u64 {
        match &self.realization {
            SessionWorld::Hashed(r) => r.seed(),
            SessionWorld::Materialized(_) => 0,
        }
    }

    /// Detaches the session from its instance, returning its state as an
    /// owned [`SessionState`]. Buffers are moved, not copied.
    pub fn suspend(self) -> SessionState {
        let (alive_words, n_alive) = self.residual.into_parts();
        SessionState {
            realization: self.realization,
            alive_words,
            n_alive,
            selected: self.selected,
            sampling_work: self.sampling_work,
            rounds: self.rounds,
            oracle_queries: self.oracle_queries,
            stops: self.stops,
        }
    }

    /// Re-attaches a suspended state to `instance`, restoring the session
    /// exactly as [`suspend`](Self::suspend) left it. Panics if the state
    /// was suspended from a different-sized instance.
    pub fn resume(instance: &'a TpmInstance, state: SessionState) -> Self {
        let residual =
            ResidualGraph::from_parts(instance.graph(), state.alive_words, state.n_alive);
        AdaptiveSession {
            instance,
            realization: state.realization,
            residual,
            selected: state.selected,
            sampling_work: state.sampling_work,
            rounds: state.rounds,
            oracle_queries: state.oracle_queries,
            stops: state.stops,
        }
    }
}

/// Why a sampling double greedy (ADDATP, HATP, HNTP) stopped examining a
/// candidate: a certificate `C1` held, or `C2` ("too close to matter") held
/// without `C1`, or the round hit the `max_theta` cap with neither holding.
/// Theorem 4 does not cover a forced decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stop {
    /// The bounds certified the keep/reject comparison.
    C1,
    /// The errors fell below the `C2` threshold and `C1` did not hold.
    C2,
    /// The round reached the RR-set cap with neither `C1` nor `C2`.
    Forced,
}

impl Stop {
    /// Every reason, in `Stop as usize` order.
    pub const ALL: [Stop; 3] = [Stop::C1, Stop::C2, Stop::Forced];

    /// The reason as a metric label.
    pub fn label(self) -> &'static str {
        match self {
            Stop::C1 => "c1",
            Stop::C2 => "c2",
            Stop::Forced => "forced",
        }
    }
}

/// A suspended [`AdaptiveSession`]: the alive bitset, the selected seeds,
/// the ledger counters and the world, owned and with no borrow of the
/// instance. Produced by [`AdaptiveSession::suspend`], consumed by
/// [`AdaptiveSession::resume`].
///
/// Opaque by design: the ledger is read from the resumed session, so every
/// ledger field is computed in one place.
pub struct SessionState {
    realization: SessionWorld,
    alive_words: Vec<u64>,
    n_alive: usize,
    selected: Vec<Node>,
    sampling_work: u64,
    rounds: u64,
    oracle_queries: u64,
    stops: [u64; 3],
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpm_graph::{GraphBuilder, GraphView};

    /// Deterministic graph: 0 -> 1 (p=1), 2 isolated. Targets {0, 2}.
    fn instance() -> TpmInstance {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        TpmInstance::new(b.build(), vec![0, 2], &[1.5, 0.25])
    }

    #[test]
    fn select_observes_and_removes() {
        let inst = instance();
        let mut s = AdaptiveSession::new(&inst, 7);
        let a = s.select(0);
        assert_eq!(a, vec![0, 1], "p=1 edge always fires");
        assert!(s.is_activated(0));
        assert!(s.is_activated(1));
        assert!(!s.is_activated(2));
        assert_eq!(s.residual().num_alive(), 1);
        assert_eq!(s.total_activated(), 2);
        assert!((s.profit() - (2.0 - 1.5)).abs() < 1e-12);
    }

    #[test]
    fn profit_accumulates_across_selections() {
        let inst = instance();
        let mut s = AdaptiveSession::new(&inst, 7);
        s.select(0);
        s.select(2);
        assert_eq!(s.selected(), &[0, 2]);
        assert_eq!(s.total_activated(), 3);
        assert!((s.profit() - (3.0 - 1.75)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-target")]
    fn select_rejects_non_targets() {
        let inst = instance();
        let mut s = AdaptiveSession::new(&inst, 7);
        s.select(1);
    }

    #[test]
    #[should_panic(expected = "already-activated")]
    fn select_rejects_activated_nodes() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 1.0).unwrap();
        let inst = TpmInstance::new(b.build(), vec![0, 1], &[1.0, 1.0]);
        let mut s = AdaptiveSession::new(&inst, 1);
        s.select(0); // activates 1
        s.select(1);
    }

    #[test]
    fn same_world_seed_replays_identically() {
        // Probabilistic edge: same seed, same observation.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.5).unwrap();
        let inst = TpmInstance::new(b.build(), vec![0], &[0.5]);
        for seed in 0..20u64 {
            let mut s1 = AdaptiveSession::new(&inst, seed);
            let mut s2 = AdaptiveSession::new(&inst, seed);
            assert_eq!(s1.select(0), s2.select(0), "world {seed}");
        }
    }

    #[test]
    fn apply_observation_matches_select_on_true_cascades() {
        let inst = instance();
        let mut simulated = AdaptiveSession::new(&inst, 7);
        let cascade = simulated.select(0);
        // An "external" session fed the same observation lands in the same
        // state: residual, ledger, profit.
        let mut external = AdaptiveSession::new(&inst, 999); // world unused
        let newly = external.apply_observation(0, &cascade);
        assert_eq!(newly, cascade.len());
        assert_eq!(external.selected(), simulated.selected());
        assert_eq!(external.total_activated(), simulated.total_activated());
        assert_eq!(
            external.residual().num_alive(),
            simulated.residual().num_alive()
        );
        assert_eq!(external.profit().to_bits(), simulated.profit().to_bits());
    }

    #[test]
    fn apply_observation_ignores_already_activated_reports() {
        let inst = instance();
        let mut s = AdaptiveSession::new(&inst, 7);
        s.select(0); // activates {0, 1}
        let newly = s.apply_observation(2, &[2, 1, 0]);
        assert_eq!(newly, 1, "only node 2 is new");
        assert_eq!(s.total_activated(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn apply_observation_rejects_out_of_range_nodes() {
        let inst = instance();
        let mut s = AdaptiveSession::new(&inst, 7);
        s.apply_observation(0, &[99]);
    }

    #[test]
    fn suspend_resume_round_trips_mid_run() {
        let inst = instance();
        let mut s = AdaptiveSession::new(&inst, 7);
        s.select(0);
        s.add_sampling_work(42);
        let mut s = AdaptiveSession::resume(&inst, s.suspend());
        assert_eq!(s.selected(), &[0]);
        assert_eq!(s.total_activated(), 2);
        assert_eq!(s.residual().num_alive(), 1);
        assert_eq!(s.sampling_work(), 42);
        assert!(s.is_activated(1));
        assert!((s.profit() - (2.0 - 1.5)).abs() < 1e-12);
        s.select(2);
        assert_eq!(s.selected(), &[0, 2]);
        assert_eq!(s.total_activated(), 3);
        assert!((s.profit() - (3.0 - 1.75)).abs() < 1e-12);
    }

    #[test]
    fn suspended_world_replays_identically_after_resume() {
        // The realization travels with the state: a resumed session observes
        // the same coins a never-suspended one does.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        let inst = TpmInstance::new(b.build(), vec![0], &[0.5]);
        for seed in 0..10u64 {
            let mut direct = AdaptiveSession::new(&inst, seed);
            let a = direct.select(0);
            let fresh = AdaptiveSession::new(&inst, seed);
            let mut resumed = AdaptiveSession::resume(&inst, fresh.suspend());
            let b = resumed.select(0);
            assert_eq!(a, b, "world {seed}");
        }
    }

    #[test]
    fn sampling_work_ledger() {
        let inst = instance();
        let mut s = AdaptiveSession::new(&inst, 1);
        s.add_sampling_work(100);
        s.add_sampling_work(50);
        assert_eq!(s.sampling_work(), 150);
    }

    #[test]
    fn select_batch_of_one_is_bit_identical_to_select() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        let inst = TpmInstance::new(b.build(), vec![0, 2], &[0.5, 0.25]);
        for seed in 0..20u64 {
            let mut single = AdaptiveSession::new(&inst, seed);
            let a = single.select(0);
            let mut batched = AdaptiveSession::new(&inst, seed);
            let b = batched.select_batch(&[0]);
            assert_eq!(a, b, "world {seed}");
            assert_eq!(single.selected(), batched.selected());
            assert_eq!(single.rounds(), batched.rounds());
            assert_eq!(single.profit().to_bits(), batched.profit().to_bits());
        }
    }

    #[test]
    fn select_batch_observes_the_joint_cascade_in_one_round() {
        let inst = instance(); // 0 -> 1 (p=1), 2 isolated; targets {0, 2}
        let mut s = AdaptiveSession::new(&inst, 7);
        let cascade = s.select_batch(&[0, 2]);
        assert_eq!(cascade.len(), 3, "joint cascade covers both seeds");
        assert_eq!(s.selected(), &[0, 2]);
        assert_eq!(s.total_activated(), 3);
        assert_eq!(s.rounds(), 1, "a batch is one adaptivity round");
        assert!((s.profit() - (3.0 - 1.75)).abs() < 1e-12);
    }

    #[test]
    fn rounds_count_batches_not_seeds() {
        let inst = instance();
        let mut s = AdaptiveSession::new(&inst, 7);
        s.select(0);
        s.select(2);
        assert_eq!(s.rounds(), 2, "single-seed path: one round per seed");
    }

    #[test]
    fn apply_observations_matches_select_batch_on_true_cascades() {
        let inst = instance();
        let mut simulated = AdaptiveSession::new(&inst, 7);
        let cascade = simulated.select_batch(&[0, 2]);
        let mut external = AdaptiveSession::new(&inst, 999); // world unused
        let newly = external.apply_observations(&[0, 2], &cascade);
        assert_eq!(newly, cascade.len());
        assert_eq!(external.selected(), simulated.selected());
        assert_eq!(external.rounds(), simulated.rounds());
        assert_eq!(external.profit().to_bits(), simulated.profit().to_bits());
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn select_batch_rejects_duplicate_members() {
        let inst = instance();
        let mut s = AdaptiveSession::new(&inst, 7);
        s.select_batch(&[0, 0]);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn select_batch_rejects_empty_batches() {
        let inst = instance();
        let mut s = AdaptiveSession::new(&inst, 7);
        s.select_batch(&[]);
    }

    #[test]
    #[should_panic(expected = "already-activated")]
    fn select_batch_rejects_previously_activated_members() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        let inst = TpmInstance::new(b.build(), vec![0, 1, 2], &[1.0, 1.0, 1.0]);
        let mut s = AdaptiveSession::new(&inst, 1);
        s.select(0); // activates 1
        s.select_batch(&[1, 2]);
    }

    #[test]
    fn round_and_query_accounting_survives_suspend_resume() {
        let inst = instance();
        let mut s = AdaptiveSession::new(&inst, 7);
        s.select_batch(&[0, 2]);
        s.add_oracle_queries(17);
        s.add_stop(Stop::Forced);
        s.add_stop(Stop::C1);
        s.add_stop(Stop::Forced);
        let s = AdaptiveSession::resume(&inst, s.suspend());
        assert_eq!(s.rounds(), 1);
        assert_eq!(s.oracle_queries(), 17);
        assert_eq!(s.stops(), [1, 0, 2]);
    }
}
