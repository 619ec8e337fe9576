//! Single RR-set generation: coin-free reverse BFS on the baked
//! [`SampleView`].
//!
//! The hot path never touches an `f32`: edge coins are raw 32-bit draws
//! compared against the `u32` thresholds baked into the graph at build time
//! (`atpm_graph::quantize_prob`), uniform in-neighborhoods (the weighted
//! cascade's `1/indeg` case) jump straight to the next accepted in-edge via
//! a geometric skip instead of flipping a coin per edge, and draws come from
//! whatever RNG the caller supplies — in the batch samplers that is the
//! buffered [`CounterRng`](crate::rng::CounterRng), so a coin is a buffered
//! 32-bit read.
//!
//! The pre-refactor per-coin loop survives as
//! [`sample_into_percoin`](RrSampler::sample_into_percoin): it draws one
//! `f32` per in-edge and compares against the float probability, and the
//! statistical-equivalence suite (`tests/sampling_equivalence.rs`) pins the
//! fast paths against it as the distribution oracle.

use atpm_graph::{threshold_accept, GraphView, Node, SampleView};
use rand::Rng;

use crate::rng::unit_open;
use crate::workspace::EpochMarks;

/// Reusable RR-set sampler with epoch-marked visit buffers (no per-sample
/// allocation or clearing). One sampler per thread.
///
/// The visit marks outlive the sample: [`contains_last`](Self::contains_last)
/// answers "is `u` in the most recent RR set" in O(1), which is what the
/// streaming front/rear counters use instead of scanning the output buffer.
pub struct RrSampler {
    marks: EpochMarks,
    /// Total nodes traversed across all samples — the paper's EPT accounting
    /// (expected time per RR set) for the complexity experiments.
    nodes_traversed: u64,
    /// Total RR sets generated.
    sets_generated: u64,
}

impl Default for RrSampler {
    fn default() -> Self {
        Self::new()
    }
}

impl RrSampler {
    /// Creates an empty sampler; buffers grow on first use.
    pub fn new() -> Self {
        RrSampler {
            marks: EpochMarks::new(),
            nodes_traversed: 0,
            sets_generated: 0,
        }
    }

    #[inline]
    fn visit(&mut self, u: Node) -> bool {
        self.marks.mark(u as usize)
    }

    /// Whether `u` is a member of the most recently sampled RR set (O(1),
    /// no buffer scan). Meaningless before the first successful
    /// [`sample_into`](Self::sample_into).
    #[inline]
    pub fn contains_last(&self, u: Node) -> bool {
        self.marks.is_marked(u as usize)
    }

    /// Prefetches the visit-mark slot of `u`. Batch drivers that pre-draw
    /// roots call this so the first stamp write of the next set — a random
    /// access into the marks array — is already resolving.
    #[inline]
    pub fn prefetch_visit(&self, u: Node) {
        self.marks.prefetch(u as usize);
    }

    /// Samples one RR set on `view` into `out` (cleared first). The root is
    /// uniform over alive nodes; each in-edge `⟨w, v⟩` is traversed with
    /// the probability its baked `u32` threshold encodes (within `2^-32` of
    /// `p(w, v)`, exact at 0 and 1); dead nodes are skipped entirely.
    /// Returns `false` (and leaves `out` empty) when no alive node remains.
    ///
    /// `out` doubles as the BFS frontier (the RR set *is* the visit order),
    /// so there is no separate queue buffer to maintain.
    #[inline]
    pub fn sample_into<V: GraphView, R: Rng + ?Sized>(
        &mut self,
        view: &V,
        rng: &mut R,
        out: &mut Vec<Node>,
    ) -> bool {
        self.sample_core::<V, R, true>(view, rng, out)
    }

    /// [`sample_into`](Self::sample_into) with the geometric-skip fast path
    /// disabled: every in-edge pays one threshold compare. Same
    /// distribution; exists so the benchmarks can price the two fast paths
    /// separately (`ris_engine/sample_*`).
    #[inline]
    pub fn sample_into_threshold<V: GraphView, R: Rng + ?Sized>(
        &mut self,
        view: &V,
        rng: &mut R,
        out: &mut Vec<Node>,
    ) -> bool {
        self.sample_core::<V, R, false>(view, rng, out)
    }

    /// Like [`sample_into`](Self::sample_into) but with the root already
    /// drawn (and known alive). The batch samplers use this to pre-draw
    /// roots a few sets ahead and prefetch their metadata, hiding the
    /// first random CSR access of every set.
    #[inline]
    pub fn sample_into_rooted<V: GraphView, R: Rng + ?Sized>(
        &mut self,
        view: &V,
        root: Node,
        rng: &mut R,
        out: &mut Vec<Node>,
    ) {
        out.clear();
        self.rooted_core::<V, R, true>(view, root, rng, out);
    }

    /// [`sample_into_rooted`](Self::sample_into_rooted) that *appends*: the
    /// new set occupies `out[len..]` where `len` is `out`'s length on
    /// entry. Lets batch workers sample straight into a shard's flat member
    /// storage — the set is born in its final resting place, no per-set
    /// copy. Returns nothing; the caller records the boundary.
    #[inline]
    pub fn sample_append<V: GraphView, R: Rng + ?Sized>(
        &mut self,
        view: &V,
        root: Node,
        rng: &mut R,
        out: &mut Vec<Node>,
    ) {
        self.rooted_core::<V, R, true>(view, root, rng, out);
    }

    fn sample_core<V: GraphView, R: Rng + ?Sized, const SKIP: bool>(
        &mut self,
        view: &V,
        rng: &mut R,
        out: &mut Vec<Node>,
    ) -> bool {
        out.clear();
        let Some(root) = view.sample_alive(rng) else {
            return false;
        };
        self.rooted_core::<V, R, SKIP>(view, root, rng, out);
        true
    }

    /// The BFS kernel. Appends the sampled set at `out[base..]` where
    /// `base = out.len()` on entry (callers wanting a fresh buffer clear
    /// first).
    fn rooted_core<V: GraphView, R: Rng + ?Sized, const SKIP: bool>(
        &mut self,
        view: &V,
        root: Node,
        rng: &mut R,
        out: &mut Vec<Node>,
    ) {
        let base = out.len();
        let sv: SampleView<'_> = view.sample_view();
        self.marks.begin(view.num_nodes());
        self.visit(root);
        out.push(root);
        // One-member software pipeline: while member `v` is processed, the
        // in-edge span of the *next* frontier member is already in flight
        // (its meta record was prefetched when it was pushed).
        let (rlo, rhi, _, _) = sv.in_meta(root);
        sv.prefetch_span(rlo, rhi);
        let mut head = base;
        while head < out.len() {
            let v = out[head];
            head += 1;
            let (lo, hi, thr, inv) = sv.in_meta(v);
            // One-member span lookahead: while `v` is processed, the next
            // frontier member's in-edge span is pulled in (its meta record
            // was prefetched when it was pushed).
            if let Some(&nv) = out.get(head) {
                let (nlo, nhi, _, _) = sv.in_meta(nv);
                sv.prefetch_span(nlo, nhi);
            }
            let sources = sv.sources(lo, hi);
            if SKIP && inv < 0.0 {
                // Uniform neighborhood: geometric skip to the next accepted
                // in-edge. The first draw is special — `thr` holds the
                // quantized probability that the whole span rejects, so the
                // common no-accept case retires on one integer compare; when
                // an accept exists, the *same* draw continues through the
                // inverse transform (the compare is just its early-out).
                // `inv = 1/ln(1-q)` is finite negative, `ln(u)` is finite
                // negative, so `s >= 0` and `i` stays in bounds.
                let len = sources.len();
                let r0 = rng.next_u32();
                if r0 >= thr {
                    let mut s = ((r0 as f64 + 0.5) * (1.0 / 4_294_967_296.0)).ln() * inv;
                    let mut i = 0usize;
                    loop {
                        if s >= (len - i) as f64 {
                            break;
                        }
                        i += s as usize;
                        let w = sources[i];
                        if sv.is_alive(w) && self.visit(w) {
                            sv.prefetch_meta(w);
                            out.push(w);
                        }
                        i += 1;
                        if i == len {
                            break;
                        }
                        s = unit_open(rng.next_u64()).ln() * inv;
                    }
                }
            } else if inv.is_nan() && thr != 0 {
                // Uniform neighborhood below the skip cutoff: the shared
                // threshold rides in a register, the per-edge array is
                // never touched. (On skip-eligible nodes `thr` holds the
                // whole-span rejection probability instead — when the skip
                // path is disabled they fall through to the per-edge array,
                // which is uniform there anyway.)
                //
                // Short neighborhoods stage accepts branchlessly: the
                // accept decision is data-dependent noise the predictor
                // can't learn, so it becomes an increment instead of a
                // branch; only the (rare) accepted edges take one. (The
                // staged form draws a coin even for dead sources, where the
                // long-form loop short-circuits — same acceptance law, the
                // coins are independent either way.)
                const STAGE: usize = 16;
                if sources.len() <= STAGE {
                    let mut cand = [0 as Node; STAGE];
                    let mut k = 0usize;
                    for &w in sources {
                        cand[k] = w;
                        k += usize::from(threshold_accept(rng.next_u32(), thr) && sv.is_alive(w));
                    }
                    for &w in &cand[..k] {
                        if self.visit(w) {
                            sv.prefetch_meta(w);
                            out.push(w);
                        }
                    }
                } else {
                    for &w in sources {
                        if sv.is_alive(w) && threshold_accept(rng.next_u32(), thr) && self.visit(w)
                        {
                            sv.prefetch_meta(w);
                            out.push(w);
                        }
                    }
                }
            } else {
                let thresholds = sv.thresholds(lo, hi);
                for (&w, &t) in sources.iter().zip(thresholds) {
                    if sv.is_alive(w) && threshold_accept(rng.next_u32(), t) && self.visit(w) {
                        sv.prefetch_meta(w);
                        out.push(w);
                    }
                }
            }
        }
        self.nodes_traversed += (out.len() - base) as u64;
        self.sets_generated += 1;
    }

    /// The pre-refactor sampler: one fresh `f32` coin per in-edge, compared
    /// against the float probability. Kept as the statistical oracle the
    /// equivalence suite pins [`sample_into`](Self::sample_into) against;
    /// not a hot path.
    pub fn sample_into_percoin<V: GraphView, R: Rng + ?Sized>(
        &mut self,
        view: &V,
        rng: &mut R,
        out: &mut Vec<Node>,
    ) -> bool {
        out.clear();
        let Some(root) = view.sample_alive(rng) else {
            return false;
        };
        self.marks.begin(view.num_nodes());
        self.visit(root);
        out.push(root);
        let mut head = 0;
        while head < out.len() {
            let v = out[head];
            head += 1;
            let (sources, probs, _) = view.in_slice(v);
            for i in 0..sources.len() {
                let w = sources[i];
                if view.is_alive(w) && rng.gen::<f32>() < probs[i] && self.visit(w) {
                    out.push(w);
                }
            }
        }
        self.nodes_traversed += out.len() as u64;
        self.sets_generated += 1;
        true
    }

    /// Average RR-set size so far — an empirical EPT estimate.
    pub fn avg_set_size(&self) -> f64 {
        if self.sets_generated == 0 {
            0.0
        } else {
            self.nodes_traversed as f64 / self.sets_generated as f64
        }
    }

    /// Total RR sets generated by this sampler.
    pub fn sets_generated(&self) -> u64 {
        self.sets_generated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atpm_graph::{GraphBuilder, ResidualGraph};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// 0 -> 1 -> 2 chain with probability 1: RR(2) = {2,1,0}, RR(0) = {0}.
    fn certain_chain() -> atpm_graph::Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 1.0).unwrap();
        b.build()
    }

    #[test]
    fn rr_set_contains_reverse_reachable_nodes() {
        let g = certain_chain();
        let mut s = RrSampler::new();
        let mut rng = StdRng::seed_from_u64(1);
        let mut buf = Vec::new();
        for _ in 0..50 {
            assert!(s.sample_into(&&g, &mut rng, &mut buf));
            let root = buf[0];
            let mut sorted = buf.clone();
            sorted.sort_unstable();
            match root {
                0 => assert_eq!(sorted, vec![0]),
                1 => assert_eq!(sorted, vec![0, 1]),
                2 => assert_eq!(sorted, vec![0, 1, 2]),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn certain_edges_always_fire_under_the_integer_coin() {
        // p = 1.0 quantizes to the reserved "certain" threshold; a flipped
        // certain edge would show up here within a few thousand samples.
        let g = certain_chain();
        let mut s = RrSampler::new();
        let mut rng = crate::rng::CounterRng::new(9);
        let mut buf = Vec::new();
        for _ in 0..5_000 {
            assert!(s.sample_into(&&g, &mut rng, &mut buf));
            let expect = buf[0] as usize + 1;
            assert_eq!(buf.len(), expect, "certain chain RR must be maximal");
        }
    }

    #[test]
    fn rr_sets_skip_dead_nodes() {
        let g = certain_chain();
        let mut r = ResidualGraph::new(&g);
        r.remove(1);
        let mut s = RrSampler::new();
        let mut rng = StdRng::seed_from_u64(2);
        let mut buf = Vec::new();
        for _ in 0..50 {
            assert!(s.sample_into(&r, &mut rng, &mut buf));
            assert!(!buf.contains(&1), "dead node in RR set");
            // With 1 dead, nothing reaches 2 and nothing reaches 0.
            assert_eq!(buf.len(), 1);
        }
    }

    #[test]
    fn empty_view_yields_no_set() {
        let g = certain_chain();
        let mut r = ResidualGraph::new(&g);
        r.remove_all(0..3);
        let mut s = RrSampler::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mut buf = vec![9, 9];
        assert!(!s.sample_into(&r, &mut rng, &mut buf));
        assert!(buf.is_empty());
        assert!(!s.sample_into_percoin(&r, &mut rng, &mut buf));
        assert!(buf.is_empty());
    }

    #[test]
    fn coverage_estimates_singleton_spread() {
        // E[I({0})] on the certain chain is 3 (it activates everyone), so
        // Pr[0 in RR] = 3/3 = 1... check a probabilistic chain instead:
        // p = 0.5: E[I({0})] = 1 + 0.5 + 0.25 = 1.75; Pr[0 ∈ RR] = 1.75/3.
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        let g = b.build();
        let mut s = RrSampler::new();
        let mut rng = StdRng::seed_from_u64(4);
        let mut buf = Vec::new();
        let theta = 200_000;
        let mut cov = 0usize;
        for _ in 0..theta {
            s.sample_into(&&g, &mut rng, &mut buf);
            if buf.contains(&0) {
                cov += 1;
            }
        }
        let est = 3.0 * cov as f64 / theta as f64;
        assert!(
            (est - 1.75).abs() < 0.02,
            "RIS estimate {est} should match exact 1.75"
        );
    }

    #[test]
    fn contains_last_mirrors_output_buffer() {
        let mut b = GraphBuilder::new(6);
        for i in 0..5u32 {
            b.add_edge(i, i + 1, 0.5).unwrap();
        }
        let g = b.build();
        let mut s = RrSampler::new();
        let mut rng = StdRng::seed_from_u64(7);
        let mut buf = Vec::new();
        for _ in 0..200 {
            assert!(s.sample_into(&&g, &mut rng, &mut buf));
            for u in 0..6u32 {
                assert_eq!(s.contains_last(u), buf.contains(&u), "node {u} of {buf:?}");
            }
        }
    }

    #[test]
    fn skip_path_respects_dead_nodes_and_marks() {
        // A hub with 16 uniform in-edges at p = 0.1 takes the skip path;
        // kill half the spokes and check they never appear.
        let mut b = GraphBuilder::new(17);
        for u in 1..17u32 {
            b.add_edge(u, 0, 0.1).unwrap();
        }
        let g = b.build();
        assert!(g.in_skip_inv(0) < 0.0, "hub must be skip-eligible");
        let mut r = ResidualGraph::new(&g);
        r.remove_all((1..17).filter(|u| u % 2 == 0));
        let mut s = RrSampler::new();
        let mut rng = crate::rng::CounterRng::new(21);
        let mut buf = Vec::new();
        let mut accepted = 0usize;
        for _ in 0..20_000 {
            assert!(s.sample_into(&r, &mut rng, &mut buf));
            if buf[0] == 0 {
                for &w in &buf[1..] {
                    assert!(w % 2 == 1, "dead spoke {w} in RR set");
                    assert!(s.contains_last(w));
                }
                accepted += buf.len() - 1;
            }
        }
        assert!(accepted > 0, "skip path never accepted an edge");
    }

    #[test]
    fn ept_accounting_tracks_sizes() {
        let g = certain_chain();
        let mut s = RrSampler::new();
        let mut rng = StdRng::seed_from_u64(5);
        let mut buf = Vec::new();
        for _ in 0..300 {
            s.sample_into(&&g, &mut rng, &mut buf);
        }
        assert_eq!(s.sets_generated(), 300);
        // Sizes are 1, 2 or 3 each with prob 1/3: mean 2.
        let avg = s.avg_set_size();
        assert!((1.7..=2.3).contains(&avg), "avg size {avg}");
    }

    #[test]
    fn unit_open_never_hits_the_endpoints() {
        assert!(unit_open(0) > 0.0);
        assert!(unit_open(u64::MAX) < 1.0);
        assert!((unit_open(u64::MAX / 2) - 0.5).abs() < 1e-9);
    }
}
