//! # atpm-core
//!
//! The paper's contribution: **adaptive target profit maximization** (TPM).
//!
//! Given a probabilistic social graph `G`, a target set `T ⊆ V` and seeding
//! costs `c(u)`, the profit of a seed set `S ⊆ T` is
//! `ρ(S) = E[I(S)] − c(S)` — submodular but non-monotone, so TPM is an
//! unconstrained submodular maximization. The *adaptive* variant selects
//! seeds one at a time, observing each seed's realized cascade and removing
//! activated nodes before the next decision (paper §II-B).
//!
//! ## Layout
//!
//! * [`instance`] — the problem instance (`graph + target + costs`);
//! * [`cost`] — the paper's cost models: spread-calibrated splits
//!   (degree-proportional / uniform / random, §VI-A) and predefined-λ
//!   assignments (§VI-D);
//! * [`setup`] — end-to-end workload constructors (IMM target selection,
//!   `E_l[I(T)]` calibration);
//! * [`oracle`] — spread oracles for the oracle model (exact enumeration,
//!   Monte-Carlo, RIS);
//! * [`session`] — the adaptive feedback loop: select a seed, observe its
//!   cascade in the current realization, shrink the residual graph. A
//!   session is its state (the residual alive bitset, the selected seeds
//!   and ledger counters); the cascade workspace is per-thread scratch.
//!   Sessions suspend into opaque owned [`SessionState`]s and accept
//!   external observations, so a network service can host them across
//!   requests;
//! * [`stepper`] — adaptive policies in resumable one-seed-at-a-time form
//!   ([`PolicyStepper`]), the inversion of control the serve layer drives,
//!   and the one target walk ([`stepper::TargetWalk`]) that ADG, ADDATP,
//!   HATP, ARS and DeployAll share, each with its own keep rule;
//! * [`runner`] — evaluation over batches of realizations (the paper's
//!   20-world protocol) with profit and wall-clock accounting;
//! * [`policies`] — every algorithm of the paper:
//!   [`Adg`](policies::Adg) (§III-B, 1/3-approx oracle model),
//!   [`Addatp`](policies::Addatp) (§III-C, additive error; plus the
//!   dynamic-threshold variant of the §III-C discussion),
//!   [`Hatp`](policies::Hatp) (§IV, hybrid error),
//!   [`Hntp`](policies::Hntp) (nonadaptive HATP),
//!   [`Nsg`](policies::Nsg) / [`Ndg`](policies::Ndg) (nonadaptive
//!   simple/double greedy of \[26\]),
//!   [`Ars`](policies::Ars) / [`Rs`](policies::Rs) (random baselines of
//!   \[10\]), [`Baseline`](policies::Baseline) (deploy all of `T`) and
//!   its adaptive twin [`DeployAll`](policies::DeployAll);
//! * [`theory`] — exact policy evaluation and a brute-force optimal adaptive
//!   policy on tiny instances, used to machine-check Theorem 1.

pub mod cost;
pub mod instance;
pub mod oracle;
pub mod policies;
pub mod runner;
pub mod session;
pub mod setup;
pub mod stepper;
pub mod theory;

pub use cost::CostSplit;
pub use instance::TpmInstance;
pub use oracle::{ExactOracle, McOracle, RisOracle, SpreadOracle};
pub use runner::{evaluate_adaptive, evaluate_nonadaptive, EvalSummary};
pub use session::{AdaptiveSession, SessionState, Stop};
pub use stepper::{run_stepper, run_stepper_batched, PolicyStepper};

/// Node id re-exported from the graph substrate.
pub type Node = atpm_graph::Node;

/// An adaptive policy is a factory of [`PolicyStepper`]s, one per
/// realization.
pub trait AdaptivePolicy {
    /// The policy's resumable form. ADG's borrows the policy, so its oracle's
    /// call counters carry across realizations.
    type Stepper<'a>: PolicyStepper
    where
        Self: 'a;

    /// A fresh stepper for one realization.
    fn stepper(&mut self) -> Self::Stepper<'_>;

    /// Runs the policy to completion against one realization.
    fn run(&mut self, session: &mut AdaptiveSession<'_>) -> Vec<Node> {
        run_stepper(&mut self.stepper(), session)
    }
}

/// Nonadaptive policies commit to a seed set up front (one batch, no
/// feedback); the runner then scores that set against each realization.
pub trait NonadaptivePolicy {
    /// Display name (used in experiment tables).
    fn name(&self) -> &'static str;

    /// Selects the seed set on the original graph. Returns it with the
    /// number of RR sets sampled to choose it (0 for policies that do not
    /// sample).
    fn select(&mut self, instance: &TpmInstance) -> (Vec<Node>, u64);
}
