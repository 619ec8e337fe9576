//! Chung–Lu style directed graphs with power-law expected degrees.
//!
//! Social/trust networks (Epinions, LiveJournal) are directed with
//! heavy-tailed in- *and* out-degree distributions. This generator draws a
//! Pareto weight per node for each direction and samples edges with
//! probability proportional to `w_out(u) · w_in(v)` — the fixed
//! expected-degree (Chung–Lu) model, which reproduces the target average
//! degree exactly and a power-law tail with exponent `≈ 1 + 1/α`.

use rand::distributions::{Distribution, WeightedIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Graph, GraphBuilder, Node};

/// Parameters for the directed power-law generator.
#[derive(Debug, Clone, Copy)]
pub struct PowerLawConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Target number of directed edges (achieved within a few percent; exact
    /// when deduplication is feasible).
    pub edges: usize,
    /// Pareto shape for out-degree weights; smaller = heavier tail.
    /// Degree tail exponent is roughly `1 + 1/alpha_out`.
    pub alpha_out: f64,
    /// Pareto shape for in-degree weights.
    pub alpha_in: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PowerLawConfig {
    fn default() -> Self {
        PowerLawConfig {
            nodes: 1000,
            edges: 5000,
            alpha_out: 1.3,
            alpha_in: 1.1,
            seed: 0,
        }
    }
}

/// Above this edge count the generator stops deduplicating (the builder's
/// noisy-or merge absorbs the few-percent duplicate rate instead), keeping
/// memory linear in the output.
const DEDUP_LIMIT: usize = 10_000_000;

/// Draws Pareto(1, alpha) weights, capped so no single node can own more than
/// `sqrt(n)` times the average weight (prevents degenerate hubs on small n).
fn pareto_weights(n: usize, alpha: f64, rng: &mut StdRng) -> Vec<f64> {
    let cap = (n as f64).sqrt().max(8.0);
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0f64..1.0);
            ((1.0 - u).powf(-1.0 / alpha)).min(cap)
        })
        .collect()
}

/// Generates the directed power-law graph described by `cfg`. Probabilities
/// are 1.0 placeholders; apply a [`crate::WeightingScheme`] afterwards.
pub fn directed_power_law(cfg: PowerLawConfig) -> Graph {
    let PowerLawConfig {
        nodes: n,
        edges: m,
        alpha_out,
        alpha_in,
        seed,
    } = cfg;
    assert!(n >= 2, "need at least 2 nodes");
    assert!(alpha_out > 0.0 && alpha_in > 0.0, "alpha must be positive");
    let mut rng = StdRng::seed_from_u64(seed);

    let w_out = pareto_weights(n, alpha_out, &mut rng);
    let w_in = pareto_weights(n, alpha_in, &mut rng);
    let src_dist = WeightedIndex::new(&w_out).expect("positive weights");
    let dst_dist = WeightedIndex::new(&w_in).expect("positive weights");

    let mut b = GraphBuilder::with_capacity(n, m);
    if m <= DEDUP_LIMIT {
        let mut seen = std::collections::HashSet::with_capacity(m * 2);
        let mut attempts = 0usize;
        let max_attempts = m.saturating_mul(50).max(1000);
        while seen.len() < m && attempts < max_attempts {
            attempts += 1;
            let u = src_dist.sample(&mut rng) as Node;
            let v = dst_dist.sample(&mut rng) as Node;
            if u == v {
                continue;
            }
            if seen.insert((u as u64) << 32 | v as u64) {
                b.add_edge(u, v, 1.0).expect("validated endpoints");
            }
        }
    } else {
        // Large graphs: accept a small duplicate rate, merged by the builder.
        for _ in 0..m {
            let u = src_dist.sample(&mut rng) as Node;
            let v = dst_dist.sample(&mut rng) as Node;
            if u != v {
                b.add_edge(u, v, 1.0).expect("validated endpoints");
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::top1pct_edge_share;

    #[test]
    fn hits_target_counts() {
        let g = directed_power_law(PowerLawConfig {
            nodes: 2000,
            edges: 12000,
            seed: 5,
            ..Default::default()
        });
        assert_eq!(g.num_nodes(), 2000);
        assert_eq!(g.num_edges(), 12000);
    }

    #[test]
    fn tail_is_heavier_than_uniform() {
        let g = directed_power_law(PowerLawConfig {
            nodes: 3000,
            edges: 15000,
            seed: 1,
            ..Default::default()
        });
        let er = super::super::erdos_renyi::gnm_directed(3000, 15000, 1);
        let pl_share = top1pct_edge_share(&g);
        let er_share = top1pct_edge_share(&er);
        assert!(
            pl_share > er_share * 2.0,
            "power-law top-1% share {pl_share:.3} vs ER {er_share:.3}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = PowerLawConfig {
            nodes: 500,
            edges: 2000,
            seed: 9,
            ..Default::default()
        };
        let g1 = directed_power_law(cfg);
        let g2 = directed_power_law(cfg);
        assert_eq!(
            g1.edges().collect::<Vec<_>>(),
            g2.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn no_self_loops() {
        let g = directed_power_law(PowerLawConfig {
            nodes: 300,
            edges: 2500,
            seed: 2,
            ..Default::default()
        });
        assert!(g.edges().all(|(u, v, _)| u != v));
    }
}
