//! Realizations (possible worlds) of a probabilistic graph.
//!
//! A realization `φ` keeps each edge `e` *live* with probability `p(e)`,
//! independently (paper §II-A). Sampling `Φ ~ Ω` and then asking reachability
//! questions is how both the adaptive feedback loop and the evaluation
//! protocol work.
//!
//! There is one coin rule: an edge is asked about with its baked `u32`
//! threshold (`atpm_graph::quantize_prob`), the same integer coin the
//! reverse-BFS samplers compare, so forward observations and RR-set
//! estimates realize one consistent quantized world.

use atpm_graph::{threshold_accept, Edge, Graph};

/// A fixed assignment of live/blocked to every edge.
///
/// `is_live(e, threshold)` takes the edge's baked threshold because
/// implementations like [`HashedRealization`] evaluate the coin lazily; the
/// caller always has it at hand from the adjacency slice it is scanning.
pub trait Realization {
    /// Whether edge `e` (with baked threshold `threshold`) is live in this
    /// possible world. Must be deterministic: repeated queries agree.
    fn is_live(&self, e: Edge, threshold: u32) -> bool;
}

impl<T: Realization + ?Sized> Realization for &T {
    #[inline]
    fn is_live(&self, e: Edge, threshold: u32) -> bool {
        (**self).is_live(e, threshold)
    }
}

/// Lazy realization: the coin of edge `e` is a pure hash of
/// `(realization_seed, e)`, whose top 32 bits are compared against the
/// edge's baked threshold.
///
/// * O(1) memory — no per-edge state, so a 69M-edge possible world costs
///   eight bytes;
/// * deterministic — policy, runner and scorer all observe the same world;
/// * independent across edges — distinct counter inputs through a
///   splitmix64-style finalizer are effectively independent uniforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashedRealization {
    seed: u64,
}

impl HashedRealization {
    /// Creates the possible world identified by `seed`.
    pub fn new(seed: u64) -> Self {
        HashedRealization { seed }
    }

    /// The identifying seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// splitmix64 finalizer: bijective mixing with good avalanche.
    #[inline]
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// The raw 32-bit coin of edge `e`: the top bits of a hash of
    /// `(seed, e)`, compared against baked thresholds by
    /// [`Realization::is_live`].
    #[inline]
    pub fn draw32(&self, e: Edge) -> u32 {
        let h = Self::mix(
            self.seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(0x632BE59BD9B4E019)
                ^ (e as u64).wrapping_mul(0xD6E8FEB86659FD93),
        );
        (h >> 32) as u32
    }
}

impl Realization for HashedRealization {
    #[inline]
    fn is_live(&self, e: Edge, threshold: u32) -> bool {
        threshold_accept(self.draw32(e), threshold)
    }
}

/// Eager realization: one bit per edge.
///
/// Used by exact enumeration (tiny graphs iterate all `2^m` bitmasks) and by
/// tests that need to force specific worlds.
#[derive(Debug, Clone)]
pub struct MaterializedRealization {
    live: Vec<u64>,
}

impl MaterializedRealization {
    /// Builds a world from an explicit edge-liveness bitmask, where bit `e`
    /// of `mask` (little-endian across words) is edge `e`'s state.
    pub fn from_bits(num_edges: usize, mask: &[u64]) -> Self {
        let words = num_edges.div_ceil(64);
        assert!(mask.len() >= words, "mask too short for {num_edges} edges");
        MaterializedRealization {
            live: mask[..words].to_vec(),
        }
    }

    /// Builds a world where exactly the listed edges are live.
    pub fn from_live_edges(num_edges: usize, edges: &[Edge]) -> Self {
        let mut live = vec![0u64; num_edges.div_ceil(64)];
        for &e in edges {
            assert!((e as usize) < num_edges, "edge {e} out of range");
            live[e as usize / 64] |= 1 << (e as usize % 64);
        }
        MaterializedRealization { live }
    }

    /// Materializes a [`HashedRealization`] against a concrete graph: useful
    /// when a world will be queried many times per edge. The bits agree with
    /// what forward cascades and RR sampling would observe of the same world.
    pub fn materialize(g: &Graph, hashed: &HashedRealization) -> Self {
        let m = g.num_edges();
        let mut live = vec![0u64; m.div_ceil(64)];
        for e in 0..m as Edge {
            if hashed.is_live(e, g.edge_threshold(e)) {
                live[e as usize / 64] |= 1 << (e as usize % 64);
            }
        }
        MaterializedRealization { live }
    }
}

impl Realization for MaterializedRealization {
    #[inline]
    fn is_live(&self, e: Edge, _threshold: u32) -> bool {
        self.live[e as usize / 64] & (1 << (e as usize % 64)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpm_graph::quantize_prob;

    #[test]
    fn hashed_is_deterministic() {
        let r = HashedRealization::new(42);
        let t = quantize_prob(0.5);
        for e in 0..100u32 {
            assert_eq!(r.is_live(e, t), r.is_live(e, t));
            assert_eq!(r.draw32(e), r.draw32(e));
        }
    }

    #[test]
    fn hashed_units_are_uniformish() {
        let r = HashedRealization::new(7);
        let n = 20_000u32;
        let unit = |e| r.draw32(e) as f64 / 4_294_967_296.0;
        let mean: f64 = (0..n).map(unit).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
        // Monotone in the threshold: live at p1 implies live at p2 >= p1.
        let (low, high) = (quantize_prob(0.3), quantize_prob(0.8));
        for e in 0..500u32 {
            if r.is_live(e, low) {
                assert!(r.is_live(e, high));
            }
        }
    }

    #[test]
    fn hashed_seeds_decorrelate() {
        let a = HashedRealization::new(1);
        let b = HashedRealization::new(2);
        let t = quantize_prob(0.5);
        let agree = (0..10_000u32)
            .filter(|&e| a.is_live(e, t) == b.is_live(e, t))
            .count();
        // Independent fair coins agree about half the time.
        assert!((4_500..=5_500).contains(&agree), "agreement {agree}");
    }

    #[test]
    fn materialized_from_live_edges() {
        let r = MaterializedRealization::from_live_edges(100, &[0, 64, 99]);
        assert!(r.is_live(0, 0));
        assert!(r.is_live(64, 0));
        assert!(r.is_live(99, 0));
        assert!(!r.is_live(1, u32::MAX));
    }

    #[test]
    fn materialize_agrees_with_hashed() {
        use atpm_graph::GraphBuilder;
        let mut b = GraphBuilder::new(10);
        for i in 0..9u32 {
            b.add_edge(i, i + 1, 0.3 + 0.05 * i as f32).unwrap();
        }
        let g = b.build();
        let h = HashedRealization::new(5);
        let m = MaterializedRealization::materialize(&g, &h);
        for e in 0..g.num_edges() as u32 {
            assert_eq!(m.is_live(e, 0), h.is_live(e, g.edge_threshold(e)));
        }
    }

    #[test]
    fn quantized_coin_is_exact_at_the_endpoints() {
        for seed in 0..20u64 {
            let r = HashedRealization::new(seed);
            for e in 0..2_000u32 {
                assert!(r.is_live(e, quantize_prob(1.0)), "certain edge blocked");
                assert!(!r.is_live(e, quantize_prob(0.0)), "impossible edge fired");
            }
        }
    }

    #[test]
    fn quantized_coin_tracks_probability() {
        let r = HashedRealization::new(99);
        for &p in &[0.1f32, 0.5, 0.9] {
            let t = quantize_prob(p);
            let live = (0..50_000u32).filter(|&e| r.is_live(e, t)).count();
            let rate = live as f64 / 50_000.0;
            assert!((rate - p as f64).abs() < 0.01, "p = {p}: live rate {rate}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn materialized_rejects_out_of_range() {
        let _ = MaterializedRealization::from_live_edges(4, &[4]);
    }
}
