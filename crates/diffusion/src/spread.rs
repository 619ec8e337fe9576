//! Expected spread `E[I(S)]` estimators.
//!
//! Computing the exact expected spread under the IC model is #P-hard
//! (paper §III-C, citing \[9\]); the practical estimator is Monte-Carlo (or
//! RR-set sampling, in `atpm-ris`). For *tiny* graphs the expectation can be
//! computed exactly by enumerating all `2^m` realizations, which is how the
//! test-suite pins down every sampling-based estimator and how the paper's
//! "oracle model" is realized for the theory tests.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use atpm_graph::{threshold_prob, GraphView, Node};
use atpm_obs::{tracer, Counter, Histogram};
use atpm_ris::workspace::run_sharded;
use atpm_ris::CounterRng;

use crate::cascade::CascadeEngine;
use crate::realization::MaterializedRealization;

/// Lane timers for [`mc_spread_batched`]: one histogram value per worker
/// lane per call (recorded outside the per-cascade loop), registered in
/// the process-global registry.
struct McMetrics {
    lane: Arc<Histogram>,
    cascades: Arc<Counter>,
}

fn mc_metrics() -> &'static McMetrics {
    static METRICS: OnceLock<McMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = atpm_obs::global();
        McMetrics {
            lane: reg.histogram(
                "atpm_mc_lane_seconds",
                "mc_spread_batched per-worker-lane wall time",
            ),
            cascades: reg.counter("atpm_mc_cascades_total", "Monte-Carlo cascades simulated"),
        }
    })
}

/// Largest edge count accepted by [`exact_spread`]; `2^20` worlds ≈ 1M BFS
/// runs is where "instant in a test" ends.
pub const EXACT_SPREAD_MAX_EDGES: usize = 20;

/// The batched Monte-Carlo driver: `samples` coin-free cascades split
/// across `threads` deterministic [`CounterRng`] streams (the same
/// `worker_seed`/`run_sharded` fan-out the RR-set samplers use), merged in
/// worker order. The result is a pure function of
/// `(view, seeds, samples, seed, threads)`, so bandit-style workloads that
/// hammer forward simulation replay exactly under parallelism.
pub fn mc_spread_batched<V: GraphView + Sync>(
    view: &V,
    seeds: &[Node],
    samples: usize,
    seed: u64,
    threads: usize,
) -> f64 {
    assert!(samples > 0, "need at least one sample");
    let t_all = Instant::now();
    let lanes: Vec<(u64, u64)> = run_sharded(samples, threads, seed, |_tid, quota, wseed| {
        let t_lane = Instant::now();
        let mut engine = CascadeEngine::new();
        let mut rng = CounterRng::new(wseed);
        let mut total = 0u64;
        for _ in 0..quota {
            total += engine.random_cascade(view, seeds, &mut rng) as u64;
        }
        (total, t_lane.elapsed().as_nanos() as u64)
    });
    let metrics = mc_metrics();
    for &(_, lane_ns) in &lanes {
        metrics.lane.record(lane_ns);
    }
    metrics.cascades.add(samples as u64);
    let tr = tracer();
    if tr.enabled() {
        tr.record("mc", "spread_batched", t_all, t_all.elapsed());
    }
    lanes.iter().map(|&(total, _)| total).sum::<u64>() as f64 / samples as f64
}

/// Single-stream [`mc_spread_batched`] over a caller-provided engine: the
/// per-query form (no allocation beyond the engine's warm buffers) the MC
/// spread oracle runs on. Equals `mc_spread_batched(.., threads = 1)` for
/// the same seed, minus the engine construction.
pub fn mc_spread_batched_with_engine<V: GraphView>(
    view: &V,
    seeds: &[Node],
    samples: usize,
    seed: u64,
    engine: &mut CascadeEngine,
) -> f64 {
    assert!(samples > 0, "need at least one sample");
    let mut rng = CounterRng::new(atpm_ris::workspace::worker_seed(seed, 0));
    let mut total = 0u64;
    for _ in 0..samples {
        total += engine.random_cascade(view, seeds, &mut rng) as u64;
    }
    total as f64 / samples as f64
}

/// Exact `E[I(S)]` by enumerating every realization of the base graph.
/// Each edge is live with the probability its baked threshold encodes
/// ([`threshold_prob`]), the coin the samplers and cascades flip.
///
/// Works on residual views too: dead nodes neither count nor transmit.
/// Panics if the base graph has more than [`EXACT_SPREAD_MAX_EDGES`] edges.
pub fn exact_spread<V: GraphView>(view: &V, seeds: &[Node]) -> f64 {
    let g = view.base();
    let m = g.num_edges();
    assert!(
        m <= EXACT_SPREAD_MAX_EDGES,
        "exact_spread enumerates 2^m worlds; m = {m} is too large"
    );
    let probs: Vec<f64> = (0..m as u32)
        .map(|e| threshold_prob(g.edge_threshold(e)))
        .collect();
    let mut engine = CascadeEngine::new();
    let mut expectation = 0.0;
    for mask in 0u64..(1u64 << m) {
        let mut p_world = 1.0;
        for (e, &p) in probs.iter().enumerate() {
            if mask >> e & 1 == 1 {
                p_world *= p;
            } else {
                p_world *= 1.0 - p;
            }
        }
        if p_world == 0.0 {
            continue;
        }
        let world = MaterializedRealization::from_bits(m, &[mask]);
        let activated = engine.observe(view, &world, seeds).len();
        expectation += p_world * activated as f64;
    }
    expectation
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpm_graph::{GraphBuilder, ResidualGraph};

    fn chain(p: f32) -> atpm_graph::Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, p).unwrap();
        b.add_edge(1, 2, p).unwrap();
        b.build()
    }

    #[test]
    fn exact_spread_on_chain_matches_closed_form() {
        // E[I({0})] = 1 + p + p^2 on the 2-edge chain.
        for &p in &[0.25f32, 0.5, 0.75] {
            let g = chain(p);
            let got = exact_spread(&&g, &[0]);
            let want = 1.0 + p as f64 + (p as f64).powi(2);
            assert!((got - want).abs() < 1e-12, "p = {p}: {got} vs {want}");
        }
    }

    #[test]
    fn exact_spread_of_empty_seed_set_is_zero() {
        let g = chain(0.5);
        assert_eq!(exact_spread(&&g, &[]), 0.0);
    }

    #[test]
    fn exact_spread_of_all_nodes_is_n() {
        let g = chain(0.5);
        assert!((exact_spread(&&g, &[0, 1, 2]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn exact_spread_respects_residual_views() {
        let g = chain(0.5);
        let mut r = ResidualGraph::new(&g);
        r.remove(1);
        // With 1 dead the cascade from 0 cannot move: E = 1.
        assert!((exact_spread(&r, &[0]) - 1.0).abs() < 1e-12);
        // Dead seed: E = 0.
        assert!((exact_spread(&r, &[1]) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn exact_spread_on_diamond() {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3 with p = 0.5 everywhere.
        // E[I({0})] = 1 + 0.5 + 0.5 + P(3 reached)
        // P(3) = P(via 1 or via 2) = 1 - (1 - 0.25)^2 = 0.4375.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(0, 2, 0.5).unwrap();
        b.add_edge(1, 3, 0.5).unwrap();
        b.add_edge(2, 3, 0.5).unwrap();
        let g = b.build();
        let got = exact_spread(&&g, &[0]);
        assert!((got - 2.4375).abs() < 1e-12, "{got}");
    }

    #[test]
    fn mc_spread_batched_converges_and_replays() {
        let g = chain(0.5);
        let exact = exact_spread(&&g, &[0]);
        for threads in [1usize, 2, 4] {
            let est = mc_spread_batched(&&g, &[0], 60_000, 9, threads);
            assert!(
                (est - exact).abs() < 0.02,
                "threads {threads}: batched MC {est} vs exact {exact}"
            );
            // Pure function of (view, seeds, samples, seed, threads).
            assert_eq!(est, mc_spread_batched(&&g, &[0], 60_000, 9, threads));
        }
        // The engine-reusing form is the threads = 1 stream exactly.
        let mut engine = CascadeEngine::new();
        assert_eq!(
            mc_spread_batched_with_engine(&&g, &[0], 60_000, 9, &mut engine),
            mc_spread_batched(&&g, &[0], 60_000, 9, 1)
        );
    }

    #[test]
    fn mc_spread_monotone_in_seeds_statistically() {
        let g = chain(0.3);
        let one = mc_spread_batched(&&g, &[2], 20_000, 3, 1);
        let two = mc_spread_batched(&&g, &[0, 2], 20_000, 4, 1);
        assert!(two > one, "supersets spread more: {two} vs {one}");
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn exact_spread_guards_edge_count() {
        let mut b = GraphBuilder::new(30);
        for i in 0..25u32 {
            b.add_edge(i, i + 1, 0.5).unwrap();
        }
        let g = b.build();
        let _ = exact_spread(&&g, &[0]);
    }
}
