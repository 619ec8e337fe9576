//! # atpm-ris
//!
//! Reverse-influence sampling (RIS) for the adaptive TPM stack.
//!
//! A *reverse-reachable (RR) set* rooted at a uniformly random node `r` is the
//! set of nodes that reach `r` in a random possible world [Borgs et al.,
//! SODA'14]. The fundamental identity the whole noise-model machinery rests
//! on is
//!
//! ```text
//! E[I(S)] = n_alive · Pr[RR set intersects S]
//! ```
//!
//! so coverage counts over a batch of RR sets estimate expected spreads, and
//! concentration bounds on the coverage translate directly into spread
//! guarantees.
//!
//! ## Engine architecture
//!
//! The sampling → coverage → greedy pipeline is the hot path of every policy
//! (ADDATP/HATP draw fresh RR sets for every round of every walk segment),
//! so the engine is built around three rules:
//!
//! 1. **Coin-free sampling on the baked `SampleView`.** Reverse BFS never
//!    touches an `f32`: each in-edge's probability is quantized to a `u32`
//!    threshold at graph *build* time (`atpm_graph::quantize_prob` — exact
//!    at `p ∈ {0, 1}`, within `2^-32` elsewhere, so a batch that traverses
//!    `E` edges carries at most `2^-32·|E|` estimator bias, far below
//!    sampling noise), and a coin is one unsigned compare against a raw
//!    32-bit draw. Uniform in-neighborhoods — the weighted cascade's
//!    `1/indeg` case, i.e. *every* node of the paper's preset graphs — take
//!    a geometric-skip fast path that jumps straight to the next accepted
//!    in-edge instead of flipping per edge. Draws come from the buffered
//!    counter RNG ([`rng::CounterRng`]): 64-word lane refills with no
//!    serial dependency, half a lane per coin. The pre-refactor per-coin
//!    loop survives as [`RrSampler::sample_into_percoin`], the distribution
//!    oracle of `tests/sampling_equivalence.rs`.
//! 2. **Zero per-query heap allocation.** All transient state lives in
//!    reusable, epoch-stamped buffers ([`workspace::EpochMarks`]): clearing
//!    is an O(1) epoch bump, the backing arrays are allocated once per size
//!    and reused forever. [`RrSampler`] uses them for visit marks,
//!    [`RrCollection::cov_set`] for the sets a query touches (one set of
//!    marks per thread, so callers hold no scratch), and the decremental
//!    lazy greedy in `atpm-im` for its gain cache. The discipline —
//!    including the RNG lane buffer and the skip path — is enforced by a
//!    counting-allocator test (`tests/alloc_discipline.rs`).
//! 3. **One draw loop, one target-coverage counter.** Every RR set is
//!    drawn by one worker loop, with root lookahead and prefetch, fanned
//!    out through [`workspace::run_sharded`] with pinned worker seeds
//!    ([`workspace::worker_seed`]), so "deterministic in `(input, seed,
//!    threads)`" is defined in one place. Its two consumers keep what they
//!    need: [`sampler::generate_batch`] workers sample straight into flat
//!    parts in the collection's own layout, merged by two
//!    `extend_from_slice`-style copies per part, and the collection indexes
//!    them node→set as it is made — an [`RrCollection`] is never unindexed;
//!    a [`stream::RrPool`] keeps only the sets holding a target, as lists of
//!    target slots. Policies that count the coverage of a target list — the
//!    sampling double greedies and ThresholdBatch — count on a pool; a full
//!    collection serves the queries over every node (IMM, NSG/NDG, snapshot
//!    estimates).
//!
//! Perf baselines for every stage live in `crates/bench/benches/micro.rs`
//! (group `ris_engine`), which emits the committed `BENCH_ris.json`
//! trajectory — run it before and after touching any of these paths. The
//! `ris_engine/sample_*` stages price the threshold compare, the geometric
//! skip, and the RNG refill in isolation.
//!
//! Modules:
//!
//! * [`rr`] — single RR-set generation on any [`GraphView`](atpm_graph::GraphView)
//!   (coin-free reverse BFS over the baked thresholds, geometric skip on
//!   uniform in-neighborhoods, dead nodes skipped, O(1) last-sample
//!   membership probes);
//! * [`rng`] — the buffered counter RNG feeding the samplers;
//! * [`collection`] — stored batches, indexed node→set when they are made,
//!   and the set coverage used by the greedy algorithms, the RIS oracle and
//!   snapshot estimates;
//! * [`coverage`] — incremental double-greedy coverage state (front / rear
//!   marginals in O(sets-containing-u));
//! * [`stream`] — the RR pool that counts target coverage: per-round
//!   chunks that keep only the sets holding a target, as lists of target
//!   slots; the front/rear counts of one walk segment of the sampling
//!   double greedies, and every slot's count in one pass for ThresholdBatch;
//! * [`bounds`] — Hoeffding (paper Lemma 4), the Relative+Additive martingale
//!   bound (paper Lemma 7), and the one-sided coverage bounds used for
//!   `E_l[I(T)]` cost calibration;
//! * [`sampler`] — the one RR draw loop and deterministic multi-threaded
//!   batch generation on it;
//! * [`workspace`] — worker seeding, sharded fan-out/fan-in, epoch marks;
//! * [`nodeset`] — a plain bitset over node ids shared by the above.

pub mod bounds;
pub mod collection;
pub mod coverage;
pub mod nodeset;
pub mod rng;
pub mod rr;
pub mod sampler;
pub mod stream;
pub mod workspace;

pub use collection::RrCollection;
pub use coverage::DoubleGreedyCoverage;
pub use nodeset::NodeSet;
pub use rng::CounterRng;
pub use rr::RrSampler;
pub use sampler::generate_batch;
