//! Immutable CSR graph storage with forward and reverse adjacency.

use crate::{Edge, Node};

/// Fixed-point scale of the integer coin: a `u32` draw is compared against a
/// threshold on the `[0, 2^32)` lattice.
const PROB_SCALE: f64 = 4_294_967_296.0; // 2^32

/// Quantizes an activation probability to the `u32` threshold the samplers
/// compare raw 32-bit draws against (accept iff [`threshold_accept`]).
///
/// The encoding reserves `u32::MAX` for "certain": `p = 1.0` edges must fire
/// on *every* draw, and no pure `r < t` compare over `u32` can express that
/// (the all-ones threshold would still lose to `r = u32::MAX` once every
/// 2^32 draws). Probabilities within `2^-32` of 1 saturate to the same
/// encoding. `p = 0.0` maps to threshold 0, which never accepts. Everything
/// else rounds to the nearest lattice point, so the acceptance probability
/// [`threshold_prob`] differs from `p` by at most `2^-33` per edge — over a
/// reverse-BFS that touches `E` edges the total estimator bias is bounded by
/// `2^-32·|E|`, far below the sampling noise of any realistic `θ`.
#[inline]
pub fn quantize_prob(p: f32) -> u32 {
    quantize_prob_f64(p as f64)
}

/// [`quantize_prob`] over a full-precision probability — used for derived
/// quantities like the whole-span rejection probability `(1-q)^indeg`,
/// where a round-trip through `f32` would cost ~2^-25 of precision (and
/// could saturate a near-1 value to the reserved "certain" encoding).
#[inline]
pub fn quantize_prob_f64(p: f64) -> u32 {
    if p >= 1.0 {
        return u32::MAX;
    }
    if p <= 0.0 {
        return 0;
    }
    let t = (p * PROB_SCALE).round();
    if t >= u32::MAX as f64 {
        u32::MAX
    } else {
        t as u32
    }
}

/// The exact acceptance probability a baked threshold encodes.
#[inline]
pub fn threshold_prob(t: u32) -> f64 {
    if t == u32::MAX {
        1.0
    } else {
        t as f64 / PROB_SCALE
    }
}

/// The integer coin flip: whether a raw 32-bit draw accepts an edge with
/// baked threshold `t`. One unsigned compare (plus the certain-edge test
/// the optimizer folds into it) — no int→float conversion in the hot loop.
#[inline]
pub fn threshold_accept(draw: u32, t: u32) -> bool {
    draw < t || t == u32::MAX
}

/// Geometric-skip eligibility: a neighborhood (in- or out-) earns the skip
/// fast path when every edge shares one threshold (the weighted-cascade
/// `1/indeg` case on the in-side, any constant-weight model on the
/// out-side), acceptance is rare enough that skipping beats flipping
/// (`q ≤ 1/4`), and the neighborhood is long enough to amortize the `ln`
/// per accepted edge (`degree ≥ 8`).
const SKIP_MIN_DEGREE: usize = 8;
const SKIP_MAX_PROB: f64 = 0.25;

/// One record of the packed per-node sampling metadata array: everything
/// a BFS inner loop needs about a node's neighborhood (in-edges for the
/// reverse samplers, out-edges for forward cascades) in a single 16-byte
/// read (the span start, the shared threshold of a uniform neighborhood,
/// and the geometric-skip constant). The span *end* is the next record's
/// `lo` — the array holds `n + 1` records with a sentinel at the end — so
/// adjacent records land on the same or neighboring cache line and one
/// prefetch covers both.
#[derive(Clone, Copy, Debug)]
#[repr(C)]
pub struct SampleMeta {
    /// Start of the node's edge span (edge slots fit `u32`: the builder
    /// rejects graphs beyond `u32::MAX` edges).
    pub lo: u32,
    /// Dual-purpose integer field, disambiguated by `inv`:
    ///
    /// * skip-eligible (`inv` finite): the quantized probability
    ///   `(1 − q)^degree` that the *whole span rejects* — one integer
    ///   compare retires the common no-accept case without touching `ln`;
    /// * otherwise: the shared threshold when every edge of the span
    ///   carries the same one, else 0. (A uniform all-zero neighborhood
    ///   also reads 0 and correctly never accepts through the per-edge
    ///   path.)
    pub thr: u32,
    /// `1 / ln(1 - q)` — finite and strictly negative — when the
    /// neighborhood qualifies for the geometric skip, NaN otherwise.
    /// Stored in full `f64` so the skip distribution inherits only the
    /// `ln` rounding error (≈1 ulp), keeping the documented `2^-32` bias
    /// bound intact.
    pub inv: f64,
}

/// Per-node skip constant: `1 / ln(1 - q)` (finite and negative) for
/// skip-eligible uniform in-neighborhoods, NaN otherwise.
fn skip_inv(thresholds: &[u32]) -> f64 {
    if thresholds.len() < SKIP_MIN_DEGREE {
        return f64::NAN;
    }
    let t = thresholds[0];
    if t == 0 || thresholds.iter().any(|&x| x != t) {
        return f64::NAN;
    }
    let q = threshold_prob(t);
    if q > SKIP_MAX_PROB {
        return f64::NAN;
    }
    1.0 / (1.0 - q).ln()
}

/// The shared threshold of a uniform neighborhood, or 0 for mixed ones.
fn uniform_thr(thresholds: &[u32]) -> u32 {
    match thresholds.first() {
        Some(&t) if thresholds.iter().all(|&x| x == t) => t,
        _ => 0,
    }
}

/// Bakes the packed per-node [`SampleMeta`] array for one CSR direction
/// (`n + 1` records, sentinel last). `lo` holds the direction's `n + 1`
/// span starts, `thresholds` its per-edge quantized coins — the in-side
/// feeds the reverse samplers, the out-side forward cascades; the two share
/// every constant and derived quantity (`skip_inv`, `uniform_thr`, the
/// whole-span rejection probability) by construction.
fn bake_meta(lo: &[u32], thresholds: &[u32]) -> Box<[SampleMeta]> {
    let n = lo.len() - 1;
    (0..=n)
        .map(|v| {
            if v == n {
                // Sentinel: its `lo` closes node n-1's span.
                return SampleMeta {
                    lo: lo[n],
                    thr: 0,
                    inv: f64::NAN,
                };
            }
            let span = &thresholds[lo[v] as usize..lo[v + 1] as usize];
            let inv = skip_inv(span);
            let thr = if inv < 0.0 {
                let q = threshold_prob(span[0]);
                quantize_prob_f64((1.0 - q).powi(span.len() as i32))
            } else {
                uniform_thr(span)
            };
            SampleMeta {
                lo: lo[v],
                thr,
                inv,
            }
        })
        .collect()
}

/// An immutable probabilistic directed graph in compressed-sparse-row form.
///
/// Both the forward (out-edge) and reverse (in-edge) adjacency are stored so
/// that forward cascades (out-edges) and reverse-reachability sampling
/// (in-edges) are both cache-friendly linear scans. Each direction is three
/// arrays — neighbours, baked `u32` coin thresholds ([`quantize_prob`]) and
/// the packed [`SampleMeta`] records whose `lo` fields delimit the spans —
/// six in all, and each fact is stored once: a float probability is derived
/// on demand with [`threshold_prob`].
///
/// Every directed edge has a stable id: its position in the forward CSR. A
/// *realization* flips one deterministic coin per edge id; cascades only
/// traverse out-edges, so the reverse side carries no ids.
#[derive(Clone)]
pub struct Graph {
    n: usize,
    out_targets: Box<[Node]>,
    out_thresholds: Box<[u32]>,
    out_meta: Box<[SampleMeta]>,
    in_sources: Box<[Node]>,
    in_thresholds: Box<[u32]>,
    in_meta: Box<[SampleMeta]>,
}

impl Graph {
    /// Assembles a graph from its forward CSR: `out_lo` holds the `n + 1`
    /// span starts, `out_targets`/`out_thresholds` the edges in edge-id
    /// order. Lays out the reverse CSR (a stable counting sort on target,
    /// so each in-span lists its sources in ascending order) and bakes both
    /// sampling views. Internal; use [`crate::GraphBuilder`] instead.
    pub(crate) fn from_forward(
        out_lo: &[u32],
        out_targets: Box<[Node]>,
        out_thresholds: Box<[u32]>,
    ) -> Self {
        let n = out_lo.len() - 1;
        let m = out_targets.len();
        debug_assert_eq!(out_thresholds.len(), m);
        debug_assert_eq!(out_lo[n] as usize, m);
        let mut in_lo = vec![0u32; n + 1];
        for &v in out_targets.iter() {
            in_lo[v as usize + 1] += 1;
        }
        for i in 0..n {
            in_lo[i + 1] += in_lo[i];
        }
        let mut cursor = in_lo[..n].to_vec();
        let mut in_sources = vec![0 as Node; m].into_boxed_slice();
        let mut in_thresholds = vec![0u32; m].into_boxed_slice();
        for u in 0..n {
            for e in out_lo[u] as usize..out_lo[u + 1] as usize {
                let v = out_targets[e] as usize;
                let slot = cursor[v] as usize;
                cursor[v] += 1;
                in_sources[slot] = u as Node;
                in_thresholds[slot] = out_thresholds[e];
            }
        }
        Graph {
            n,
            out_meta: bake_meta(out_lo, &out_thresholds),
            out_targets,
            out_thresholds,
            in_meta: bake_meta(&in_lo, &in_thresholds),
            in_sources,
            in_thresholds,
        }
    }

    /// Number of nodes `n = |V|`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of directed edges `m = |E|`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Out-degree of `u`.
    #[inline]
    pub fn out_degree(&self, u: Node) -> usize {
        span(&self.out_meta, u).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: Node) -> usize {
        span(&self.in_meta, v).len()
    }

    /// Out-neighbours of `u` with their baked thresholds. The out-edges of
    /// `u` carry the contiguous edge ids starting at
    /// [`out_meta(u).lo`](Self::out_meta).
    #[inline]
    pub fn out_slice(&self, u: Node) -> (&[Node], &[u32]) {
        let r = span(&self.out_meta, u);
        (&self.out_targets[r.clone()], &self.out_thresholds[r])
    }

    /// In-neighbours of `v` with their baked thresholds.
    #[inline]
    pub fn in_slice(&self, v: Node) -> (&[Node], &[u32]) {
        let r = span(&self.in_meta, v);
        (&self.in_sources[r.clone()], &self.in_thresholds[r])
    }

    /// Geometric-skip constant of `v`'s in-neighborhood: `1 / ln(1 − q)`
    /// (finite, strictly negative) when the neighborhood is uniform and
    /// skip-eligible, NaN otherwise. See [`quantize_prob`] for the lattice.
    #[inline]
    pub fn in_skip_inv(&self, v: Node) -> f64 {
        self.in_meta[v as usize].inv
    }

    /// The packed sampling record of `v` (see [`SampleMeta`]); index `n` is
    /// the sentinel closing the last span.
    #[inline]
    pub fn in_meta(&self, v: Node) -> &SampleMeta {
        &self.in_meta[v as usize]
    }

    /// Geometric-skip constant of `u`'s *out*-neighborhood — the forward
    /// mirror of [`in_skip_inv`](Self::in_skip_inv): finite and strictly
    /// negative when every out-edge of `u` shares one sub-`1/4` threshold
    /// over at least 8 edges (every node under a constant-weight model),
    /// NaN otherwise.
    #[inline]
    pub fn out_skip_inv(&self, u: Node) -> f64 {
        self.out_meta[u as usize].inv
    }

    /// The packed *out*-side sampling record of `u` (see [`SampleMeta`]);
    /// index `n` is the sentinel closing the last span. Forward cascades
    /// run on these the way reverse sampling runs on
    /// [`in_meta`](Self::in_meta).
    #[inline]
    pub fn out_meta(&self, u: Node) -> &SampleMeta {
        &self.out_meta[u as usize]
    }

    /// Raw slices backing the reverse-sampling hot loop: `(meta, sources,
    /// thresholds)`. The meta array has `n + 1` records.
    #[inline]
    pub(crate) fn sampling_arrays(&self) -> (&[SampleMeta], &[Node], &[u32]) {
        (&self.in_meta, &self.in_sources, &self.in_thresholds)
    }

    /// Raw slices backing the forward-cascade hot loop: `(meta, targets,
    /// thresholds)`. The meta array has `n + 1` records; the edge id of
    /// slot `i` is `i` itself (forward edge ids are CSR positions).
    #[inline]
    pub(crate) fn sampling_arrays_out(&self) -> (&[SampleMeta], &[Node], &[u32]) {
        (&self.out_meta, &self.out_targets, &self.out_thresholds)
    }

    /// Baked integer threshold of edge `e` (by forward edge id) — the exact
    /// coin forward cascades and reverse sampling share.
    #[inline]
    pub fn edge_threshold(&self, e: Edge) -> u32 {
        self.out_thresholds[e as usize]
    }

    /// Iterates all edges as `(src, dst, prob)` in edge-id order. `prob` is
    /// the baked threshold's probability narrowed to `f32`, which
    /// [`quantize_prob`] maps back to the same threshold, so feeding these
    /// triples to a [`crate::GraphBuilder`] rebuilds the same graph. A
    /// threshold of 0 (a probability below `2^-33`) reads as the smallest
    /// positive `f32`, which the builder accepts and quantizes back to 0.
    pub fn edges(&self) -> impl Iterator<Item = (Node, Node, f32)> + '_ {
        (0..self.n as Node).flat_map(move |u| {
            let (targets, thresholds) = self.out_slice(u);
            targets.iter().zip(thresholds).map(move |(&v, &t)| {
                let p = if t == 0 {
                    f32::MIN_POSITIVE
                } else {
                    threshold_prob(t) as f32
                };
                (u, v, p)
            })
        })
    }

    /// Sum of all out-degrees divided by n; equals `m / n`.
    pub fn avg_out_degree(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.n as f64
        }
    }

    /// Returns a copy of this graph with every edge probability replaced by
    /// the output of `f(src, dst, old_prob)` (`old_prob` as
    /// [`edges`](Self::edges) reports it). Used by the weighting schemes.
    pub fn map_probs(&self, mut f: impl FnMut(Node, Node, f32) -> f32) -> Graph {
        let out_lo: Vec<u32> = self.out_meta.iter().map(|m| m.lo).collect();
        let thresholds = self
            .edges()
            .map(|(u, v, p)| quantize_prob(f(u, v, p)))
            .collect();
        Graph::from_forward(&out_lo, self.out_targets.clone(), thresholds)
    }

    /// Heap footprint in bytes: every CSR array at its exact length,
    /// `16m + 32(n + 1)` in all. The serve layer's snapshot budget charges
    /// it.
    pub fn heap_bytes(&self) -> usize {
        let m = self.num_edges();
        2 * m * (std::mem::size_of::<Node>() + std::mem::size_of::<u32>()) // neighbours + thresholds, both directions
            + 2 * (self.n + 1) * std::mem::size_of::<SampleMeta>() // packed sampling records, both directions
    }
}

/// The edge slots of node `v`'s span in one direction: `meta[v].lo` up to
/// the next record's `lo` (the sentinel closes the last span).
#[inline]
fn span(meta: &[SampleMeta], v: Node) -> std::ops::Range<usize> {
    meta[v as usize].lo as usize..meta[v as usize + 1].lo as usize
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.num_nodes())
            .field("m", &self.num_edges())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::GraphBuilder;

    fn diamond() -> crate::Graph {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(0, 2, 0.25).unwrap();
        b.add_edge(1, 3, 1.0).unwrap();
        b.add_edge(2, 3, 0.75).unwrap();
        b.build()
    }

    #[test]
    fn degrees_and_counts() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.in_degree(0), 0);
        assert!((g.avg_out_degree() - 1.0).abs() < 1e-12);
    }

    /// Every in-edge `u -> v` carries the threshold of the forward edge
    /// with the same endpoints, looked up by its edge id.
    fn assert_reverse_mirrors_forward(g: &crate::Graph) {
        for v in 0..g.num_nodes() as u32 {
            let (sources, thr) = g.in_slice(v);
            for (&u, &t) in sources.iter().zip(thr) {
                let (targets, _) = g.out_slice(u);
                let i = targets.iter().position(|&w| w == v).unwrap();
                let e = g.out_meta(u).lo + i as u32;
                assert_eq!(t, g.edge_threshold(e), "edge {u} -> {v}");
            }
        }
    }

    #[test]
    fn forward_and_reverse_agree_via_edge_ids() {
        let g = diamond();
        assert_reverse_mirrors_forward(&g);
        let (sources, thr) = g.in_slice(3);
        assert_eq!(sources, &[1, 2]);
        assert_eq!(
            thr,
            &[super::quantize_prob(1.0), super::quantize_prob(0.75)]
        );
    }

    #[test]
    fn thresholds_mirror_probs_in_both_directions() {
        let g = diamond();
        let mut in_edges = Vec::new();
        for v in 0..4u32 {
            let (sources, thr) = g.in_slice(v);
            in_edges.extend(sources.iter().zip(thr).map(|(&u, &t)| (u, v, t)));
        }
        in_edges.sort_unstable();
        let from_probs: Vec<_> = g
            .edges()
            .map(|(u, v, p)| (u, v, super::quantize_prob(p)))
            .collect();
        assert_eq!(from_probs, in_edges);
        for (e, (_, _, t)) in from_probs.iter().enumerate() {
            assert_eq!(*t, g.edge_threshold(e as u32));
        }
    }

    #[test]
    fn edges_rebuild_the_same_graph() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1e-6).unwrap();
        b.add_edge(1, 2, 1e-12).unwrap(); // below 2^-33: threshold 0
        b.add_edge(2, 0, 0.3).unwrap();
        let g = b.build();
        let mut b2 = GraphBuilder::new(3);
        for (u, v, p) in g.edges() {
            b2.add_edge(u, v, p).unwrap();
        }
        let g2 = b2.build();
        for u in 0..3 {
            assert_eq!(g.out_slice(u), g2.out_slice(u));
            assert_eq!(g.in_slice(u), g2.in_slice(u));
        }
        assert_eq!(g.out_slice(1).1, &[0]);
    }

    #[test]
    fn map_probs_updates_both_directions() {
        let g = diamond().map_probs(|_, _, p| p / 2.0);
        assert_reverse_mirrors_forward(&g);
    }

    #[test]
    fn map_probs_rebakes_thresholds() {
        use super::{quantize_prob, threshold_prob};
        let g = diamond();
        let g2 = g.map_probs(|_, _, p| p / 2.0);
        for u in 0..4u32 {
            let (targets, thr) = g.out_slice(u);
            let (targets2, thr2) = g2.out_slice(u);
            assert_eq!(targets, targets2);
            for (&t, &t2) in thr.iter().zip(thr2) {
                assert_eq!(t2, quantize_prob(threshold_prob(t) as f32 / 2.0));
            }
        }
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = GraphBuilder::new(0).build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.avg_out_degree(), 0.0);
    }

    #[test]
    fn quantization_is_exact_at_the_endpoints() {
        use super::{quantize_prob, threshold_accept, threshold_prob};
        // p = 1.0 accepts every possible draw, including the all-ones one.
        let certain = quantize_prob(1.0);
        assert!(threshold_accept(0, certain));
        assert!(threshold_accept(u32::MAX, certain));
        assert_eq!(threshold_prob(certain), 1.0);
        // p = 0.0 accepts nothing, including the all-zeros draw.
        let never = quantize_prob(0.0);
        assert!(!threshold_accept(0, never));
        assert!(!threshold_accept(u32::MAX, never));
        assert_eq!(threshold_prob(never), 0.0);
    }

    #[test]
    fn quantization_error_is_below_two_to_minus_32() {
        use super::{quantize_prob, threshold_prob};
        for i in 1..1000u32 {
            let p = i as f32 / 1000.0;
            let q = threshold_prob(quantize_prob(p));
            assert!(
                (q - p as f64).abs() <= 1.0 / 4_294_967_296.0,
                "p {p}: quantized to {q}"
            );
        }
    }

    #[test]
    fn skip_constant_only_for_uniform_low_prob_neighborhoods() {
        // 10 spokes into a hub at p = 0.1 each: uniform, eligible.
        let mut b = GraphBuilder::new(11);
        for u in 1..11 {
            b.add_edge(u, 0, 0.1).unwrap();
        }
        let g = b.build();
        let inv = g.in_skip_inv(0);
        assert!(
            inv < 0.0 && inv.is_finite(),
            "uniform indeg-10 hub must be skip-eligible, got {inv}"
        );
        let q = super::threshold_prob(super::quantize_prob(0.1));
        assert!((inv - 1.0 / (1.0 - q).ln()).abs() < 1e-12);
        // Spokes have empty in-neighborhoods: ineligible.
        assert!(g.in_skip_inv(1).is_nan());

        // Same shape at p = 0.9: too likely to be worth skipping.
        let mut b = GraphBuilder::new(11);
        for u in 1..11 {
            b.add_edge(u, 0, 0.9).unwrap();
        }
        assert!(b.build().in_skip_inv(0).is_nan());

        // Non-uniform neighborhood: ineligible.
        let mut b = GraphBuilder::new(11);
        for u in 1..11 {
            b.add_edge(u, 0, if u == 5 { 0.2 } else { 0.1 }).unwrap();
        }
        assert!(b.build().in_skip_inv(0).is_nan());

        // Too short, even if uniform.
        let mut b = GraphBuilder::new(5);
        for u in 1..5 {
            b.add_edge(u, 0, 0.1).unwrap();
        }
        assert!(b.build().in_skip_inv(0).is_nan());
    }

    #[test]
    fn out_meta_mirrors_the_forward_direction() {
        // A broadcaster with 10 uniform out-edges at p = 0.1: the *out*
        // side is skip-eligible, the in side of every sink is a single
        // edge (register-threshold path).
        let mut b = GraphBuilder::new(11);
        for v in 1..11 {
            b.add_edge(0, v, 0.1).unwrap();
        }
        let g = b.build();
        let inv = g.out_skip_inv(0);
        assert!(
            inv < 0.0 && inv.is_finite(),
            "uniform outdeg-10 broadcaster must be skip-eligible, got {inv}"
        );
        let q = super::threshold_prob(super::quantize_prob(0.1));
        assert!((inv - 1.0 / (1.0 - q).ln()).abs() < 1e-12);
        // The whole-span rejection probability rides in `thr`.
        let m = g.out_meta(0);
        assert_eq!(m.lo, 0);
        assert_eq!(m.thr, super::quantize_prob_f64((1.0 - q).powi(10)));
        // Sinks have no out-edges: ineligible, and the sentinel closes the
        // last span at m = |E|.
        assert!(g.out_skip_inv(5).is_nan());
        assert_eq!(g.out_meta(10).lo as usize, g.out_meta(0).lo as usize + 10);
        // In- and out-side records of the same graph are baked by the same
        // rule: a mirrored-edge graph agrees exactly.
        let mut b = GraphBuilder::new(11);
        for v in 1..11 {
            b.add_edge(v, 0, 0.1).unwrap();
        }
        let mirrored = b.build();
        assert_eq!(mirrored.in_meta(0).thr, g.out_meta(0).thr);
        assert_eq!(mirrored.in_skip_inv(0), g.out_skip_inv(0));
    }

    #[test]
    fn map_probs_rebakes_out_meta() {
        let mut b = GraphBuilder::new(11);
        for v in 1..11 {
            b.add_edge(0, v, 0.1).unwrap();
        }
        let g = b.build().map_probs(|_, _, _| 0.5);
        // p = 0.5 > 1/4: no longer skip-eligible, uniform threshold
        // instead.
        assert!(g.out_skip_inv(0).is_nan());
        assert_eq!(g.out_meta(0).thr, super::quantize_prob(0.5));
    }
}
