//! # atpm-diffusion
//!
//! Independent cascade (IC) diffusion engine for the adaptive TPM stack.
//!
//! Three concerns live here:
//!
//! * **Realizations** ([`realization`]) — a *realization* (possible world,
//!   paper §II-A) fixes the outcome of every edge's activation coin. The
//!   adaptive algorithms interleave seed selection with observations *of the
//!   same possible world*, so realizations must be repeatable: the default
//!   [`HashedRealization`] derives each coin from `(realization seed, edge id)`
//!   with a splitmix-style hash — O(1) memory no matter how large the graph.
//! * **Cascades** ([`cascade`]) — forward BFS over live edges, both against a
//!   fixed realization (for observations `A(u)`) and with fresh coins (for
//!   Monte-Carlo spread estimation). A reusable [`CascadeEngine`] keeps
//!   epoch-marked visit buffers so repeated cascades never reallocate, and
//!   the randomized path runs coin-free on the forward face of the baked
//!   `SampleView` (integer thresholds, geometric skip over uniform
//!   out-neighborhoods, buffered counter RNG) — the out-side mirror of the
//!   reverse-BFS machinery in `atpm-ris`. The pre-refactor per-coin walk is
//!   retained as `CascadeEngine::random_cascade_percoin`, the statistical
//!   oracle of `tests/cascade_equivalence.rs`.
//! * **Spread** ([`spread`]) — `E[I(S)]` estimators: Monte-Carlo (the
//!   batched, sharded [`mc_spread_batched`] driver and its single-stream
//!   engine-reusing form) and, for tiny graphs, exact enumeration over
//!   all `2^m` realizations (the paper's oracle model made concrete;
//!   spread is #P-hard in general \[9\]).

pub mod cascade;
pub mod realization;
pub mod spread;

pub use cascade::CascadeEngine;
pub use realization::{HashedRealization, MaterializedRealization, Realization};
pub use spread::{exact_spread, mc_spread_batched, mc_spread_batched_with_engine};
