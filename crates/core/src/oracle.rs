//! Spread oracles: the paper's "oracle model" made concrete.
//!
//! Under the oracle model (§III-B) the expected spread of any node set on the
//! current residual graph is available in O(1). Three oracles are provided:
//!
//! * [`ExactOracle`] — exact enumeration of all `2^m` worlds; the genuine
//!   oracle, limited to tiny graphs (theory tests);
//! * [`McOracle`] — Monte-Carlo with a fixed per-query sample budget;
//!   converges to the exact oracle, usable at moderate scale;
//! * [`RisOracle`] — RR-set sampling with a fixed batch size.

use atpm_diffusion::{exact_spread, mc_spread_batched_with_engine, CascadeEngine};
use atpm_graph::{Node, ResidualGraph};
use atpm_ris::sampler::generate_batch;

/// Answers expected-spread queries on residual graphs.
pub trait SpreadOracle {
    /// `E[I_view(set)]`: expected spread of `set` on `view`. Dead members
    /// contribute nothing.
    fn spread(&mut self, view: &ResidualGraph<'_>, set: &[Node]) -> f64;

    /// Conditional marginal spread `E[I_view(u | S)] = E[I(S ∪ {u})] − E[I(S)]`.
    fn marginal(&mut self, view: &ResidualGraph<'_>, u: Node, s: &[Node]) -> f64 {
        if s.contains(&u) {
            return 0.0;
        }
        let mut with_u = Vec::with_capacity(s.len() + 1);
        with_u.extend_from_slice(s);
        with_u.push(u);
        self.spread(view, &with_u) - self.spread(view, s)
    }
}

/// Exact enumeration over every realization (`m ≤ 20`).
#[derive(Debug, Default, Clone, Copy)]
pub struct ExactOracle;

impl SpreadOracle for ExactOracle {
    fn spread(&mut self, view: &ResidualGraph<'_>, set: &[Node]) -> f64 {
        exact_spread(view, set)
    }
}

/// Monte-Carlo oracle: `samples` fresh cascades per query, drawn through
/// the batched coin-free driver (`atpm_diffusion::mc_spread_batched`):
/// integer-threshold coins on the forward `SampleView`, geometric skip on
/// uniform out-neighborhoods, buffered counter RNG — no per-query RNG
/// heap allocation, the cascade engine's warm buffers reused throughout.
///
/// Queries are deterministic: the counter stream is re-keyed per call from
/// the query seed counter, so repeated evaluation of the same session
/// replays identically.
pub struct McOracle {
    samples: usize,
    seed: u64,
    calls: u64,
    engine: CascadeEngine,
}

impl McOracle {
    /// Oracle answering with the mean of `samples` cascades.
    pub fn new(samples: usize, seed: u64) -> Self {
        assert!(samples > 0, "need at least one sample");
        McOracle {
            samples,
            seed,
            calls: 0,
            engine: CascadeEngine::new(),
        }
    }
}

impl SpreadOracle for McOracle {
    fn spread(&mut self, view: &ResidualGraph<'_>, set: &[Node]) -> f64 {
        self.calls += 1;
        let query_seed = self.seed ^ self.calls.wrapping_mul(0x9E3779B97F4A7C15);
        mc_spread_batched_with_engine(view, set, self.samples, query_seed, &mut self.engine)
    }
}

/// RIS oracle: one RR batch of `theta` sets per query.
///
/// Batches come from the coin-free `SampleView` pipeline
/// (`atpm_ris::generate_batch`): integer-threshold coins, geometric skip
/// on uniform in-neighborhoods, buffered counter RNG. The thresholds
/// quantize probabilities to the `2^-32` lattice (exact at 0 and 1), so a
/// query's estimate carries at most `2^-32` bias per traversed edge on top
/// of the `O(1/√θ)` sampling noise — unobservable at any practical `theta`.
/// The coverage count marks sets in the calling thread's reusable marks
/// ([`RrCollection::cov_set`](atpm_ris::RrCollection::cov_set)), so the
/// oracle holds no scratch of its own.
pub struct RisOracle {
    theta: usize,
    seed: u64,
    threads: usize,
    calls: u64,
}

impl RisOracle {
    /// Oracle answering from `theta` RR sets per query.
    pub fn new(theta: usize, seed: u64, threads: usize) -> Self {
        assert!(theta > 0, "need at least one RR set");
        RisOracle {
            theta,
            seed,
            threads,
            calls: 0,
        }
    }
}

impl SpreadOracle for RisOracle {
    fn spread(&mut self, view: &ResidualGraph<'_>, set: &[Node]) -> f64 {
        self.calls += 1;
        let batch_seed = self.seed ^ self.calls.wrapping_mul(0xD6E8FEB86659FD93);
        let c = generate_batch(view, self.theta, batch_seed, self.threads);
        c.spread_set(set)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpm_graph::GraphBuilder;

    fn chain() -> atpm_graph::Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        b.build()
    }

    #[test]
    fn exact_oracle_matches_closed_form() {
        let g = chain();
        let view = ResidualGraph::new(&g);
        let mut o = ExactOracle;
        assert!((o.spread(&view, &[0]) - 1.75).abs() < 1e-12);
        assert!((o.spread(&view, &[0, 2]) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn exact_oracle_marginal() {
        let g = chain();
        let view = ResidualGraph::new(&g);
        let mut o = ExactOracle;
        // E[I(2 | {0})] = E[I({0,2})] - E[I({0})] = 2.5 - 1.75 = 0.75.
        assert!((o.marginal(&view, 2, &[0]) - 0.75).abs() < 1e-12);
        // Marginal of a member is zero.
        assert_eq!(o.marginal(&view, 0, &[0]), 0.0);
    }

    #[test]
    fn mc_oracle_converges_and_replays() {
        let g = chain();
        let view = ResidualGraph::new(&g);
        let mut o1 = McOracle::new(40_000, 3);
        let v1 = o1.spread(&view, &[0]);
        assert!((v1 - 1.75).abs() < 0.03, "{v1}");
        let mut o2 = McOracle::new(40_000, 3);
        assert_eq!(o2.spread(&view, &[0]), v1, "same seed, same call index");
    }

    #[test]
    fn ris_oracle_converges() {
        let g = chain();
        let view = ResidualGraph::new(&g);
        let mut o = RisOracle::new(60_000, 4, 2);
        let v = o.spread(&view, &[0]);
        assert!((v - 1.75).abs() < 0.04, "{v}");
    }

    #[test]
    fn oracles_respect_residual_views() {
        let g = chain();
        let mut view = ResidualGraph::new(&g);
        view.remove(1);
        let mut e = ExactOracle;
        let mut m = McOracle::new(5000, 5);
        assert_eq!(e.spread(&view, &[0]), 1.0);
        assert!((m.spread(&view, &[0]) - 1.0).abs() < 1e-9);
        // Dead seed.
        assert_eq!(e.spread(&view, &[1]), 0.0);
    }
}
