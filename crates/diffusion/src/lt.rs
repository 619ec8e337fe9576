//! Linear threshold (LT) diffusion — an extension beyond the paper's IC
//! experiments.
//!
//! The paper's theory (§II, §V) holds for any model whose spread function is
//! monotone submodular; Kempe et al. \[16\] prove that for both IC and LT. We
//! ship LT so downstream users can run the same TPM machinery on the other
//! standard model.
//!
//! Under LT, every node `v` draws a threshold `θ_v ~ U[0,1]` and activates
//! once the summed weights of its active in-neighbours exceed `θ_v`
//! (with `Σ_u w(u,v) ≤ 1`). Kempe et al.'s live-edge characterization makes
//! realizations tractable: each node independently selects **at most one**
//! incoming edge (edge `e` with probability `w(e)`, none with probability
//! `1 − Σw`), and LT diffusion equals reachability over selected edges. An
//! [`LtRealization`] is therefore one hashed uniform draw *per node*.
//!
//! Edge selection has two legs. The hot leg
//! ([`LtRealization::selected_in_edge_fast`], used by [`lt_observe`] and
//! [`lt_rr_set`]) runs on the graph's baked `u32` coin lattice — the same
//! [`quantize_prob`](atpm_graph::quantize_prob) thresholds and packed
//! [`SampleMeta`] records the IC samplers compare raw draws against — so
//! the inner loop is integer adds and compares, and a uniform-weight
//! in-neighbourhood (the weighted-cascade case) resolves with a single
//! division instead of a scan. The f64 slow leg
//! ([`LtRealization::selected_in_edge`]) is retained as the readable
//! reference; the two agree statistically to the lattice's `2^-32`
//! per-edge quantization (the tests pin it).

use atpm_graph::{Graph, GraphView, Node, SampleMeta};

/// A possible world of the LT model: each node's selected in-edge, derived
/// lazily from a hash of `(seed, node)` — O(1) memory like
/// [`HashedRealization`](crate::HashedRealization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LtRealization {
    seed: u64,
}

impl LtRealization {
    /// Creates the LT possible world identified by `seed`.
    pub fn new(seed: u64) -> Self {
        LtRealization { seed }
    }

    /// The identifying seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    #[inline]
    fn mix(mut z: u64) -> u64 {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// The uniform draw assigned to node `v`.
    #[inline]
    pub fn unit(&self, v: Node) -> f64 {
        let h = Self::mix(
            self.seed
                .wrapping_mul(0xA24BAED4963EE407)
                .wrapping_add(0x9FB21C651E98DF25)
                ^ (v as u64).wrapping_mul(0xD6E8FEB86659FD93),
        );
        (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// The draw of node `v` on the quantized `[0, 2^32)` coin lattice: the
    /// top 32 bits of the same hash behind [`unit`](Self::unit), so
    /// `unit_u32(v) == floor(unit(v) · 2^32)` and the two legs see the
    /// *same* uniform variate at their respective precisions.
    #[inline]
    pub fn unit_u32(&self, v: Node) -> u32 {
        let h = Self::mix(
            self.seed
                .wrapping_mul(0xA24BAED4963EE407)
                .wrapping_add(0x9FB21C651E98DF25)
                ^ (v as u64).wrapping_mul(0xD6E8FEB86659FD93),
        );
        (h >> 32) as u32
    }

    /// The in-edge of `v` selected in this world, as an index into `v`'s
    /// in-slice, or `None` (thresholds too high / no in-edges).
    ///
    /// Edge `i` is selected iff the draw falls inside its probability band
    /// `[Σ_{j<i} w_j, Σ_{j≤i} w_j)`; weights must satisfy `Σ w ≤ 1`
    /// (use [`normalize_lt_weights`] to enforce it).
    ///
    /// This is the retained f64 slow leg — the readable reference the fast
    /// leg is tested against. Hot paths use
    /// [`selected_in_edge_fast`](Self::selected_in_edge_fast).
    pub fn selected_in_edge(&self, g: &Graph, v: Node) -> Option<usize> {
        let (_, probs, _) = g.in_slice(v);
        let draw = self.unit(v);
        let mut acc = 0.0f64;
        for (i, &p) in probs.iter().enumerate() {
            acc += p as f64;
            if draw < acc {
                return Some(i);
            }
        }
        None
    }

    /// [`selected_in_edge`](Self::selected_in_edge) on the graph's baked
    /// `u32` coin lattice — the hot leg. Integer adds and compares only
    /// (no int→float conversion), and a uniform in-neighbourhood resolves
    /// with a single division via its packed [`SampleMeta`] record.
    ///
    /// Statistically equivalent to the slow leg, not bit-equal: both legs
    /// read the same per-node hash, but band boundaries live on the
    /// quantized lattice, so selections can differ when a draw lands
    /// within `~2^-32` of a boundary.
    pub fn selected_in_edge_fast(&self, g: &Graph, v: Node) -> Option<usize> {
        select_in_band(g.in_thresholds(v), g.in_meta(v), self.unit_u32(v))
    }
}

/// Width of one edge's probability band on the `[0, 2^32)` lattice. The
/// baked thresholds reserve `u32::MAX` for "certain" (see
/// [`quantize_prob`](atpm_graph::quantize_prob)); under LT a certain edge
/// owns the entire lattice — a band of exactly `2^32`, which is why bands
/// accumulate in `u64`.
#[inline]
fn band(t: u32) -> u64 {
    if t == u32::MAX {
        1u64 << 32
    } else {
        t as u64
    }
}

/// Quantized in-edge selection: the index of the band containing `draw`.
/// `thresholds` is the node's in-span of baked coins (`Σ bands ≤ 2^32`
/// when the LT validity condition `Σ w ≤ 1` holds); `meta` its packed
/// sampling record, which advertises uniform spans so they resolve with
/// one division instead of the scan.
#[inline]
fn select_in_band(thresholds: &[u32], meta: &SampleMeta, draw: u32) -> Option<usize> {
    let draw = draw as u64;
    // Uniform spans: skip-eligible records (finite `inv`) are uniform by
    // construction with the shared coin in slot 0; otherwise a nonzero
    // `meta.thr` *is* the shared coin. (`thr == 0` means mixed — or
    // all-zero, which the scan below correctly never selects from.)
    let shared = if meta.inv.is_finite() {
        Some(thresholds[0])
    } else if meta.thr != 0 {
        Some(meta.thr)
    } else {
        None
    };
    if let Some(t) = shared {
        let w = band(t);
        return (draw < w * thresholds.len() as u64).then(|| (draw / w) as usize);
    }
    let mut acc = 0u64;
    for (i, &t) in thresholds.iter().enumerate() {
        acc += band(t);
        if draw < acc {
            return Some(i);
        }
    }
    None
}

/// Rescales edge probabilities so every node's incoming weights sum to at
/// most 1 (the LT validity requirement). Weighted-cascade graphs
/// (`p = 1/indeg`) already satisfy it with equality; other weightings are
/// divided by the in-weight sum where it exceeds 1.
pub fn normalize_lt_weights(g: &Graph) -> Graph {
    // Precompute per-node in-weight sums.
    let n = g.num_nodes();
    let mut sums = vec![0.0f64; n];
    for v in 0..n as Node {
        let (_, probs, _) = g.in_slice(v);
        sums[v as usize] = probs.iter().map(|&p| p as f64).sum();
    }
    g.map_probs(|_, v, p| {
        let s = sums[v as usize];
        if s > 1.0 {
            (p as f64 / s) as f32
        } else {
            p
        }
    })
}

/// Forward LT cascade of `seeds` in world `real`, restricted to alive nodes
/// of `view`. Returns the activated nodes in discovery order.
///
/// Uses the live-edge formulation: node `v` activates iff its selected
/// in-edge comes from an activated (and alive) node.
pub fn lt_observe<V: GraphView>(view: &V, real: &LtRealization, seeds: &[Node]) -> Vec<Node> {
    let g = view.base();
    let mut active = vec![false; g.num_nodes()];
    let mut out: Vec<Node> = Vec::new();
    let mut queue: Vec<Node> = Vec::new();
    for &s in seeds {
        if view.is_alive(s) && !active[s as usize] {
            active[s as usize] = true;
            queue.push(s);
            out.push(s);
        }
    }
    let mut head = 0;
    while head < queue.len() {
        let u = queue[head];
        head += 1;
        let (targets, _, _) = g.out_slice(u);
        for &v in targets {
            if active[v as usize] || !view.is_alive(v) {
                continue;
            }
            // v activates via u iff v's selected in-edge points at u.
            if let Some(i) = real.selected_in_edge_fast(g, v) {
                let (sources, _, _) = g.in_slice(v);
                if sources[i] == u {
                    active[v as usize] = true;
                    queue.push(v);
                    out.push(v);
                }
            }
        }
    }
    out
}

/// Monte-Carlo LT spread: the mean cascade size over `samples` worlds
/// derived from `seed_base`.
pub fn lt_mc_spread<V: GraphView>(view: &V, seeds: &[Node], samples: usize, seed_base: u64) -> f64 {
    assert!(samples > 0, "need at least one sample");
    let total: usize = (0..samples as u64)
        .map(|i| lt_observe(view, &LtRealization::new(seed_base.wrapping_add(i)), seeds).len())
        .sum();
    total as f64 / samples as f64
}

/// Samples one LT RR set rooted at a uniform alive node: the reverse walk
/// along selected in-edges. Under LT an RR set is a *path*: each node has at
/// most one selected in-edge, so the reverse-reachable structure is the
/// chain root ← sel(root) ← sel(sel(root)) ⋯ (stopping at a dead end, a dead
/// node, or a cycle).
pub fn lt_rr_set<V: GraphView, R: rand::Rng + ?Sized>(
    view: &V,
    rng: &mut R,
    out: &mut Vec<Node>,
) -> bool {
    out.clear();
    let Some(root) = view.sample_alive(rng) else {
        return false;
    };
    let g = view.base();
    out.push(root);
    let mut v = root;
    loop {
        // Fresh selection per step (independent worlds across RR sets),
        // through the same quantized leg the forward cascade runs on.
        let (sources, _, _) = g.in_slice(v);
        let draw: u32 = rng.gen();
        let chosen = select_in_band(g.in_thresholds(v), g.in_meta(v), draw).map(|i| sources[i]);
        match chosen {
            Some(u) if view.is_alive(u) && !out.contains(&u) => {
                out.push(u);
                v = u;
            }
            _ => break,
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpm_graph::{GraphBuilder, ResidualGraph, WeightingScheme};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Chain 0 -> 1 -> 2 with weight 1.0 per edge (valid LT: indeg 1 each).
    fn certain_chain() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        b.build()
    }

    #[test]
    fn deterministic_chain_fully_activates() {
        let g = certain_chain();
        for seed in 0..20u64 {
            let r = LtRealization::new(seed);
            let act = lt_observe(&&g, &r, &[0]);
            assert_eq!(act, vec![0, 1, 2], "weight-1 edges always selected");
        }
    }

    #[test]
    fn realization_is_deterministic_and_varies_with_seed() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        let g = b.build();
        let r = LtRealization::new(3);
        assert_eq!(r.selected_in_edge(&g, 2), r.selected_in_edge(&g, 2));
        // Over many seeds both in-edges (and never "none") get selected.
        let mut counts = [0usize; 2];
        for seed in 0..2000u64 {
            let sel = LtRealization::new(seed).selected_in_edge(&g, 2).unwrap();
            counts[sel] += 1;
        }
        assert!(counts[0] > 800 && counts[1] > 800, "{counts:?}");
    }

    #[test]
    fn selection_respects_partial_weight() {
        // Single in-edge of weight 0.3: selected ~30% of the time.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.3).unwrap();
        let g = b.build();
        let selected = (0..20_000u64)
            .filter(|&s| LtRealization::new(s).selected_in_edge(&g, 1).is_some())
            .count();
        let rate = selected as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn fast_leg_matches_slow_leg_statistically_on_mixed_spans() {
        // A mixed-weight star: bands 0.15 / 0.35 / 0.25 (Σ = 0.75, so
        // "none" keeps the remaining 0.25) — a span the scan path must
        // handle. Both legs read the same per-node hash and disagree only
        // when a draw lands within ~2^-32 of a band boundary, i.e.
        // essentially never; the realized frequencies must match the
        // weights.
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 3, 0.15).unwrap();
        b.add_edge(1, 3, 0.35).unwrap();
        b.add_edge(2, 3, 0.25).unwrap();
        let g = b.build();
        let trials = 40_000u64;
        let mut counts = [0usize; 4]; // three edges + "none"
        let mut disagreements = 0usize;
        for seed in 0..trials {
            let r = LtRealization::new(seed);
            let fast = r.selected_in_edge_fast(&g, 3);
            disagreements += usize::from(fast != r.selected_in_edge(&g, 3));
            counts[fast.unwrap_or(3)] += 1;
        }
        assert!(
            disagreements <= 1,
            "legs disagree on {disagreements} of {trials} draws"
        );
        for (i, want) in [0.15, 0.35, 0.25, 0.25].into_iter().enumerate() {
            let rate = counts[i] as f64 / trials as f64;
            assert!((rate - want).abs() < 0.01, "band {i}: rate {rate}");
        }
    }

    #[test]
    fn fast_leg_division_shortcut_agrees_on_uniform_spans() {
        // Uniform spans take the one-division shortcut, through both meta
        // encodings: a weighted-cascade star of 10 edges at 1/10 is
        // skip-eligible (finite `inv`, shared coin in slot 0); a 2-edge
        // star at 0.45 is uniform but below the skip degree (`meta.thr`
        // carries the coin). Each must agree with the slow leg and
        // realize the per-edge weight.
        let mut b = GraphBuilder::new(11);
        for u in 0..10u32 {
            b.add_edge(u, 10, 0.1).unwrap();
        }
        let g = b.build();
        let trials = 50_000u64;
        let mut counts = [0usize; 10];
        let mut disagreements = 0usize;
        for seed in 0..trials {
            let r = LtRealization::new(seed ^ 0xABCD);
            let fast = r.selected_in_edge_fast(&g, 10);
            disagreements += usize::from(fast != r.selected_in_edge(&g, 10));
            counts[fast.expect("10 bands of 1/10 cover the lattice")] += 1;
        }
        assert!(disagreements <= 2, "{disagreements} of {trials}");
        for (i, &c) in counts.iter().enumerate() {
            let rate = c as f64 / trials as f64;
            assert!((rate - 0.1).abs() < 0.01, "edge {i}: rate {rate}");
        }

        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2, 0.45).unwrap();
        b.add_edge(1, 2, 0.45).unwrap();
        let g = b.build();
        let mut counts = [0usize; 3];
        for seed in 0..trials {
            let r = LtRealization::new(seed);
            let fast = r.selected_in_edge_fast(&g, 2);
            assert_eq!(fast, r.selected_in_edge(&g, 2), "seed {seed}");
            counts[fast.unwrap_or(2)] += 1;
        }
        for (i, want) in [0.45, 0.45, 0.1].into_iter().enumerate() {
            let rate = counts[i] as f64 / trials as f64;
            assert!((rate - want).abs() < 0.01, "band {i}: rate {rate}");
        }
    }

    #[test]
    fn lt_mc_spread_matches_closed_form_on_chain() {
        // Weights p: E[I({0})] = 1 + p + p² exactly (path independence).
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        let g = b.build();
        let est = lt_mc_spread(&&g, &[0], 60_000, 7);
        assert!((est - 1.75).abs() < 0.02, "{est}");
    }

    #[test]
    fn lt_observe_respects_residual_views() {
        let g = certain_chain();
        let mut view = ResidualGraph::new(&g);
        view.remove(1);
        let act = lt_observe(&view, &LtRealization::new(1), &[0]);
        assert_eq!(act, vec![0], "dead node blocks the chain");
    }

    #[test]
    fn normalize_caps_in_weight_sums() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 2, 0.9).unwrap();
        b.add_edge(1, 2, 0.9).unwrap(); // sum 1.8 > 1
        let g = normalize_lt_weights(&b.build());
        let (_, probs, _) = g.in_slice(2);
        let sum: f64 = probs.iter().map(|&p| p as f64).sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum {sum}");
        // Weighted cascade is already valid and must be untouched.
        let wc = WeightingScheme::WeightedCascade.apply(&certain_chain());
        let wc2 = normalize_lt_weights(&wc);
        assert_eq!(
            wc.edges().collect::<Vec<_>>(),
            wc2.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn lt_rr_sets_estimate_spread() {
        // RIS identity under LT: E[I({u})] = n·Pr[u ∈ RR].
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        let g = b.build();
        let mut rng = StdRng::seed_from_u64(5);
        let mut buf = Vec::new();
        let theta = 150_000;
        let mut cov = 0usize;
        for _ in 0..theta {
            assert!(lt_rr_set(&&g, &mut rng, &mut buf));
            if buf.contains(&0) {
                cov += 1;
            }
        }
        let est = 3.0 * cov as f64 / theta as f64;
        assert!((est - 1.75).abs() < 0.02, "{est}");
    }

    #[test]
    fn lt_rr_sets_are_paths() {
        let mut b = GraphBuilder::new(6);
        for v in 1..6u32 {
            b.add_edge(v - 1, v, 0.8).unwrap();
            b.add_edge((v + 1) % 6, v, 0.2).unwrap();
        }
        let g = b.build();
        let mut rng = StdRng::seed_from_u64(9);
        let mut buf = Vec::new();
        for _ in 0..500 {
            lt_rr_set(&&g, &mut rng, &mut buf);
            let unique: std::collections::HashSet<_> = buf.iter().collect();
            assert_eq!(unique.len(), buf.len(), "RR path must not repeat nodes");
        }
    }
}
