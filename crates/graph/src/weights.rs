//! Edge-weighting schemes for probabilistic social graphs.
//!
//! The paper (§VI-A) follows the common convention in the influence
//! maximization literature and sets `p(⟨u, v⟩) = 1 / indeg(v)` — the
//! *weighted cascade* (WIC) model. The constant and trivalency schemes are
//! also provided because they are standard alternatives and are exercised in
//! tests and ablations.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::Graph;

/// How to assign the IC activation probability of each edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightingScheme {
    /// Weighted cascade: `p(u, v) = 1 / indeg(v)` (the paper's setting).
    WeightedCascade,
    /// Every edge gets the same probability.
    Constant(f32),
    /// Trivalency: each edge draws uniformly from `{0.1, 0.01, 0.001}`,
    /// seeded for reproducibility.
    Trivalency {
        /// RNG seed so the assignment is deterministic.
        seed: u64,
    },
}

impl WeightingScheme {
    /// Returns a copy of `g` reweighted under this scheme. Degrees (and hence
    /// WIC probabilities) are taken from `g` itself.
    pub fn apply(self, g: &Graph) -> Graph {
        match self {
            WeightingScheme::WeightedCascade => g.map_probs(|_, v, _| {
                let d = g.in_degree(v).max(1);
                1.0 / d as f32
            }),
            WeightingScheme::Constant(p) => {
                assert!(p > 0.0 && p <= 1.0, "constant probability must be in (0,1]");
                g.map_probs(|_, _, _| p)
            }
            WeightingScheme::Trivalency { seed } => {
                const LEVELS: [f32; 3] = [0.1, 0.01, 0.001];
                let mut rng = StdRng::seed_from_u64(seed);
                g.map_probs(|_, _, _| LEVELS[rng.gen_range(0..3usize)])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{quantize_prob, GraphBuilder};

    fn star_into_center() -> Graph {
        // 4 spokes all pointing at node 0.
        let mut b = GraphBuilder::new(5);
        for u in 1..5 {
            b.add_edge(u, 0, 0.9).unwrap();
        }
        b.build()
    }

    #[test]
    fn weighted_cascade_uses_in_degree() {
        let g = WeightingScheme::WeightedCascade.apply(&star_into_center());
        let (_, thresholds) = g.in_slice(0);
        assert_eq!(
            thresholds,
            &[quantize_prob(1.0 / 4.0); 4],
            "indeg 4 gives p = 1/4"
        );
    }

    #[test]
    fn weighted_cascade_caps_at_one() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.5).unwrap();
        let g = WeightingScheme::WeightedCascade.apply(&b.build());
        let (_, thresholds) = g.in_slice(1);
        assert_eq!(thresholds, &[quantize_prob(1.0)]);
    }

    #[test]
    fn constant_sets_every_edge() {
        let g = WeightingScheme::Constant(0.05).apply(&star_into_center());
        for (_, _, p) in g.edges() {
            assert_eq!(p, 0.05);
        }
    }

    #[test]
    #[should_panic(expected = "constant probability")]
    fn constant_rejects_zero() {
        let _ = WeightingScheme::Constant(0.0).apply(&star_into_center());
    }

    #[test]
    fn trivalency_is_deterministic_and_valid() {
        let base = star_into_center();
        let g1 = WeightingScheme::Trivalency { seed: 7 }.apply(&base);
        let g2 = WeightingScheme::Trivalency { seed: 7 }.apply(&base);
        let t1: Vec<u32> = (0..5).flat_map(|u| g1.out_slice(u).1.to_vec()).collect();
        let t2: Vec<u32> = (0..5).flat_map(|u| g2.out_slice(u).1.to_vec()).collect();
        assert_eq!(t1, t2);
        let levels = [0.1, 0.01, 0.001].map(quantize_prob);
        for t in t1 {
            assert!(levels.contains(&t));
        }
    }
}
