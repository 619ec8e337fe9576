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
/// (`n + 1` records, sentinel last). `offsets` is the direction's offset
/// array, `thresholds` its per-edge quantized coins — the in-side feeds
/// the reverse samplers, the out-side forward cascades; the two share
/// every constant and derived quantity (`skip_inv`, `uniform_thr`, the
/// whole-span rejection probability) by construction.
fn bake_meta(offsets: &[u64], thresholds: &[u32]) -> Box<[SampleMeta]> {
    let n = offsets.len() - 1;
    (0..=n)
        .map(|v| {
            if v == n {
                // Sentinel: its `lo` closes node n-1's span.
                return SampleMeta {
                    lo: offsets[n] as u32,
                    thr: 0,
                    inv: f64::NAN,
                };
            }
            let (lo, hi) = (offsets[v] as usize, offsets[v + 1] as usize);
            let span = &thresholds[lo..hi];
            let inv = skip_inv(span);
            let thr = if inv < 0.0 {
                let q = threshold_prob(span[0]);
                quantize_prob_f64((1.0 - q).powi(span.len() as i32))
            } else {
                uniform_thr(span)
            };
            SampleMeta {
                lo: lo as u32,
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
/// (in-edges) are both cache-friendly linear scans.
///
/// Every directed edge has a stable id: its position in the forward CSR. The
/// reverse CSR carries the same ids (`in_edge_ids`) so a *realization* — a
/// deterministic coin per edge id — is observed consistently no matter which
/// direction the edge is traversed from.
#[derive(Clone)]
pub struct Graph {
    n: usize,
    // Forward CSR.
    out_offsets: Box<[u64]>,
    out_targets: Box<[Node]>,
    out_probs: Box<[f32]>,
    // Reverse CSR.
    in_offsets: Box<[u64]>,
    in_sources: Box<[Node]>,
    in_probs: Box<[f32]>,
    in_edge_ids: Box<[Edge]>,
    // Baked sampling view: integer coin thresholds parallel to each CSR
    // direction, plus the packed per-node metadata records (span start,
    // uniform threshold, geometric-skip constant; `n + 1` entries each,
    // see [`SampleMeta`]) — the in-side for reverse-reachability sampling,
    // the out-side for forward cascades. Derived from the probabilities at
    // build time, rebuilt by `map_probs`.
    out_thresholds: Box<[u32]>,
    in_thresholds: Box<[u32]>,
    in_meta: Box<[SampleMeta]>,
    out_meta: Box<[SampleMeta]>,
}

impl Graph {
    /// Assembles a graph from pre-validated CSR parts. Internal; use
    /// [`crate::GraphBuilder`] instead.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        n: usize,
        out_offsets: Box<[u64]>,
        out_targets: Box<[Node]>,
        out_probs: Box<[f32]>,
        in_offsets: Box<[u64]>,
        in_sources: Box<[Node]>,
        in_probs: Box<[f32]>,
        in_edge_ids: Box<[Edge]>,
    ) -> Self {
        debug_assert_eq!(out_offsets.len(), n + 1);
        debug_assert_eq!(in_offsets.len(), n + 1);
        debug_assert_eq!(out_targets.len(), out_probs.len());
        debug_assert_eq!(in_sources.len(), in_probs.len());
        debug_assert_eq!(in_sources.len(), in_edge_ids.len());
        debug_assert_eq!(out_targets.len(), in_sources.len());
        let out_thresholds: Box<[u32]> = out_probs.iter().map(|&p| quantize_prob(p)).collect();
        let in_thresholds: Box<[u32]> = in_probs.iter().map(|&p| quantize_prob(p)).collect();
        let in_meta = bake_meta(&in_offsets, &in_thresholds);
        let out_meta = bake_meta(&out_offsets, &out_thresholds);
        Graph {
            n,
            out_offsets,
            out_targets,
            out_probs,
            in_offsets,
            in_sources,
            in_probs,
            in_edge_ids,
            out_thresholds,
            in_thresholds,
            in_meta,
            out_meta,
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
        let u = u as usize;
        (self.out_offsets[u + 1] - self.out_offsets[u]) as usize
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: Node) -> usize {
        let v = v as usize;
        (self.in_offsets[v + 1] - self.in_offsets[v]) as usize
    }

    /// Out-neighbours of `u` with probabilities and edge ids.
    ///
    /// Edge ids for out-edges of `u` are contiguous: `out_range(u)`.
    #[inline]
    pub fn out_slice(&self, u: Node) -> (&[Node], &[f32], std::ops::Range<u32>) {
        let u = u as usize;
        let lo = self.out_offsets[u] as usize;
        let hi = self.out_offsets[u + 1] as usize;
        (
            &self.out_targets[lo..hi],
            &self.out_probs[lo..hi],
            lo as u32..hi as u32,
        )
    }

    /// In-neighbours of `v` with probabilities and (forward) edge ids.
    #[inline]
    pub fn in_slice(&self, v: Node) -> (&[Node], &[f32], &[Edge]) {
        let v = v as usize;
        let lo = self.in_offsets[v] as usize;
        let hi = self.in_offsets[v + 1] as usize;
        (
            &self.in_sources[lo..hi],
            &self.in_probs[lo..hi],
            &self.in_edge_ids[lo..hi],
        )
    }

    /// Baked integer thresholds of `v`'s in-edges, parallel to the sources
    /// slice of [`in_slice`](Self::in_slice).
    #[inline]
    pub fn in_thresholds(&self, v: Node) -> &[u32] {
        let v = v as usize;
        &self.in_thresholds[self.in_offsets[v] as usize..self.in_offsets[v + 1] as usize]
    }

    /// Baked integer thresholds of `u`'s out-edges, parallel to the targets
    /// slice of [`out_slice`](Self::out_slice).
    #[inline]
    pub fn out_thresholds(&self, u: Node) -> &[u32] {
        let u = u as usize;
        &self.out_thresholds[self.out_offsets[u] as usize..self.out_offsets[u + 1] as usize]
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

    /// Probability of edge `e` (by forward edge id).
    #[inline]
    pub fn edge_prob(&self, e: Edge) -> f32 {
        self.out_probs[e as usize]
    }

    /// Baked integer threshold of edge `e` (by forward edge id) — the exact
    /// coin forward cascades and reverse sampling share.
    #[inline]
    pub fn edge_threshold(&self, e: Edge) -> u32 {
        self.out_thresholds[e as usize]
    }

    /// Target node of edge `e` (by forward edge id).
    #[inline]
    pub fn edge_target(&self, e: Edge) -> Node {
        self.out_targets[e as usize]
    }

    /// Source node of edge `e`, recovered by binary search on the offset
    /// array. O(log n); intended for tests and diagnostics, not hot loops.
    pub fn edge_source(&self, e: Edge) -> Node {
        let e = e as u64;
        debug_assert!((e as usize) < self.num_edges());
        // partition_point returns the first u with out_offsets[u] > e; the
        // source is that index minus one.
        let idx = self.out_offsets.partition_point(|&off| off <= e);
        (idx - 1) as Node
    }

    /// Iterates all edges as `(src, dst, prob)` in edge-id order.
    pub fn edges(&self) -> impl Iterator<Item = (Node, Node, f32)> + '_ {
        (0..self.n as Node).flat_map(move |u| {
            let (targets, probs, _) = self.out_slice(u);
            targets
                .iter()
                .zip(probs.iter())
                .map(move |(&v, &p)| (u, v, p))
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
    /// the output of `f(src, dst, old_prob)`. Both CSR directions are kept
    /// consistent. Used by the weighting schemes.
    pub fn map_probs(&self, mut f: impl FnMut(Node, Node, f32) -> f32) -> Graph {
        // Rebuild forward probs in edge-id order.
        let mut out_probs = self.out_probs.to_vec();
        for u in 0..self.n as Node {
            let (targets, _, range) = self.out_slice(u);
            for (i, &v) in targets.iter().enumerate() {
                let e = range.start as usize + i;
                out_probs[e] = f(u, v, out_probs[e]);
            }
        }
        // Mirror into the reverse CSR via edge ids.
        let mut in_probs = vec![0f32; self.in_probs.len()];
        for (slot, &e) in self.in_edge_ids.iter().enumerate() {
            in_probs[slot] = out_probs[e as usize];
        }
        // Reassemble through `from_parts` so the baked thresholds and skip
        // constants are rebuilt for the new probabilities; only the
        // structural arrays it consumes are cloned (the derived threshold
        // and metadata arrays would be recomputed and thrown away).
        Graph::from_parts(
            self.n,
            self.out_offsets.clone(),
            self.out_targets.clone(),
            out_probs.into_boxed_slice(),
            self.in_offsets.clone(),
            self.in_sources.clone(),
            in_probs.into_boxed_slice(),
            self.in_edge_ids.clone(),
        )
    }

    /// Heap footprint in bytes: every CSR array at its exact length,
    /// `28m + 48(n + 1)` in all. The serve layer's snapshot budget charges
    /// it.
    pub fn heap_bytes(&self) -> usize {
        let m = self.num_edges();
        (self.n + 1) * 8 * 2 // two offset arrays
            + m * (4 + 4 + 4) // out targets + probs + thresholds
            + m * (4 + 4 + 4 + 4) // in sources + probs + edge ids + thresholds
            + (self.n + 1) * 2 * std::mem::size_of::<SampleMeta>() // packed sampling records, both directions
    }
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

    #[test]
    fn forward_and_reverse_agree_via_edge_ids() {
        let g = diamond();
        for v in 0..4u32 {
            let (sources, probs, ids) = g.in_slice(v);
            for i in 0..sources.len() {
                let e = ids[i];
                assert_eq!(g.edge_target(e), v);
                assert_eq!(g.edge_source(e), sources[i]);
                assert_eq!(g.edge_prob(e), probs[i]);
            }
        }
    }

    #[test]
    fn edge_source_binary_search_covers_all_edges() {
        let g = diamond();
        let mut listed: Vec<(u32, u32)> = g.edges().map(|(u, v, _)| (u, v)).collect();
        listed.sort_unstable();
        let mut via_ids: Vec<(u32, u32)> = (0..g.num_edges() as u32)
            .map(|e| (g.edge_source(e), g.edge_target(e)))
            .collect();
        via_ids.sort_unstable();
        assert_eq!(listed, via_ids);
    }

    #[test]
    fn map_probs_updates_both_directions() {
        let g = diamond();
        let g2 = g.map_probs(|_, _, p| p / 2.0);
        for v in 0..4u32 {
            let (_, probs, ids) = g2.in_slice(v);
            for i in 0..probs.len() {
                assert_eq!(probs[i], g2.edge_prob(ids[i]));
                assert_eq!(probs[i], g.edge_prob(ids[i]) / 2.0);
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
    fn thresholds_mirror_probs_in_both_directions() {
        let g = diamond();
        for v in 0..4u32 {
            let (_, probs, ids) = g.in_slice(v);
            let thr = g.in_thresholds(v);
            assert_eq!(thr.len(), probs.len());
            for i in 0..probs.len() {
                assert_eq!(thr[i], super::quantize_prob(probs[i]));
                assert_eq!(thr[i], g.edge_threshold(ids[i]), "forward CSR agrees");
            }
        }
    }

    #[test]
    fn map_probs_rebakes_thresholds() {
        let g = diamond().map_probs(|_, _, p| p / 2.0);
        for v in 0..4u32 {
            let (_, probs, _) = g.in_slice(v);
            let thr = g.in_thresholds(v);
            for i in 0..probs.len() {
                assert_eq!(thr[i], super::quantize_prob(probs[i]));
            }
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
