//! Forward IC cascades: observation of `A(u)` against a realization and
//! randomized cascades for Monte-Carlo estimation.
//!
//! Both paths run on the forward face of the baked
//! [`SampleView`] — the same machinery the
//! reverse-BFS samplers in `atpm-ris` use, mirrored to the out CSR:
//!
//! * edge coins are raw 32-bit draws compared against `u32` thresholds
//!   baked at graph build time (`atpm_graph::quantize_prob`), one unsigned
//!   compare per coin, never an `f32` in the hot loop;
//! * uniform out-neighborhoods (every node under a constant-weight model)
//!   take a geometric-skip fast path that jumps straight to the next
//!   accepted out-edge, with the first draw doubling as a one-compare
//!   whole-span reject;
//! * per-node metadata and the out-edge span of the next frontier member
//!   are software-prefetched one member ahead;
//! * visit marks are the shared epoch-stamped
//!   [`EpochMarks`], so a cascade costs
//!   zero heap allocation after warm-up (enforced by
//!   `tests/alloc_discipline.rs`).
//!
//! Because realizations and RR-set sampling draw against the same
//! quantized thresholds, a world realized forward is the world the RR-set
//! estimator reasons about, down to the last quantization bit.
//!
//! The pre-refactor per-coin walk survives as
//! [`random_cascade_percoin`](CascadeEngine::random_cascade_percoin): one
//! RNG draw per out-edge against the bare threshold slice, no skip, no
//! prefetch. It is pinned as the statistical oracle by
//! `tests/cascade_equivalence.rs`, exactly like
//! `RrSampler::sample_into_percoin` is for the reverse direction.

use atpm_graph::{threshold_accept, GraphView, Node, SampleView};
use atpm_ris::rng::unit_open;
use atpm_ris::workspace::EpochMarks;
use rand::Rng;

use crate::realization::Realization;

/// Reusable cascade workspace.
///
/// Visited marks are epoch-stamped (an O(1) bump starts a new cascade
/// instead of an O(n) clear) and the frontier queue is retained across
/// cascades, so a warm engine never touches the heap. One engine per
/// thread; it grows to the largest graph it has seen.
pub struct CascadeEngine {
    marks: EpochMarks,
    queue: Vec<Node>,
}

impl Default for CascadeEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl CascadeEngine {
    /// Creates an empty engine; buffers grow on first use.
    pub fn new() -> Self {
        CascadeEngine {
            marks: EpochMarks::new(),
            queue: Vec::new(),
        }
    }

    /// Runs the cascade seeded by `seeds` in the possible world `real`,
    /// restricted to alive nodes of `view`. Returns every activated node
    /// (seeds included), in BFS discovery order.
    ///
    /// Dead (previously removed) seeds are skipped; dead targets block.
    /// This is the observation primitive of the adaptive loop: the paper's
    /// `A(u_i)` is `observe(view, real, &[u_i])`.
    pub fn observe<V: GraphView, R: Realization>(
        &mut self,
        view: &V,
        real: &R,
        seeds: &[Node],
    ) -> Vec<Node> {
        let mut out = Vec::new();
        self.observe_into(view, real, seeds, &mut out);
        out
    }

    /// [`observe`](Self::observe) into a caller-owned buffer (cleared
    /// first) — the no-allocation form for callers that score many worlds
    /// in a loop, like the evaluation harness.
    ///
    /// The realization's coin for slot `i` of a node's out-span `lo..hi`
    /// is queried by forward edge id `lo + i` (out-edge ids are CSR
    /// positions), so observations stay consistent with reverse-side
    /// traversals of the same world.
    pub fn observe_into<V: GraphView, R: Realization>(
        &mut self,
        view: &V,
        real: &R,
        seeds: &[Node],
        out: &mut Vec<Node>,
    ) {
        out.clear();
        self.marks.begin(view.num_nodes());
        let sv: SampleView<'_> = view.sample_view();
        for &s in seeds {
            if view.is_alive(s) && self.marks.mark(s as usize) {
                sv.prefetch_out_meta(s);
                out.push(s);
            }
        }
        // `out` doubles as the BFS frontier (the activation set *is* the
        // visit order), with the next member's out-span prefetched while
        // the current one is scanned.
        if let Some(&r) = out.first() {
            let (lo, hi, _, _) = sv.out_meta(r);
            sv.prefetch_out_span(lo, hi);
        }
        let mut head = 0;
        while head < out.len() {
            let u = out[head];
            head += 1;
            let (lo, hi, _, _) = sv.out_meta(u);
            if let Some(&nu) = out.get(head) {
                let (nlo, nhi, _, _) = sv.out_meta(nu);
                sv.prefetch_out_span(nlo, nhi);
            }
            let targets = sv.targets(lo, hi);
            let thresholds = sv.out_thresholds(lo, hi);
            for i in 0..targets.len() {
                let v = targets[i];
                if sv.is_alive(v)
                    && real.is_live_q(lo as u32 + i as u32, thresholds[i])
                    && self.marks.mark(v as usize)
                {
                    sv.prefetch_out_meta(v);
                    out.push(v);
                }
            }
        }
    }

    /// Runs one cascade with *fresh* coins from `rng` and returns the number
    /// of activated nodes. Used by Monte-Carlo spread estimation, where each
    /// sample is an independent possible world.
    ///
    /// This is the coin-free fast path: integer-threshold coins, geometric
    /// skip over uniform out-neighborhoods, branchless staged accepts for
    /// short uniform spans, meta/span prefetch one frontier member ahead.
    /// Feed it a buffered counter RNG (`atpm_ris::CounterRng`) — that is
    /// what the batched drivers do — and a coin is a buffered 32-bit read.
    pub fn random_cascade<V: GraphView, G: Rng + ?Sized>(
        &mut self,
        view: &V,
        seeds: &[Node],
        rng: &mut G,
    ) -> usize {
        self.cascade_core::<V, G, true>(view, seeds, rng)
    }

    /// [`random_cascade`](Self::random_cascade) with the geometric-skip
    /// fast path disabled: every out-edge pays one threshold compare. Same
    /// distribution; exists so the benchmarks can price the two fast paths
    /// separately (`ris_engine/cascade_*`).
    pub fn random_cascade_threshold<V: GraphView, G: Rng + ?Sized>(
        &mut self,
        view: &V,
        seeds: &[Node],
        rng: &mut G,
    ) -> usize {
        self.cascade_core::<V, G, false>(view, seeds, rng)
    }

    /// The forward-BFS kernel behind the randomized cascades. Mirrors the
    /// reverse sampler's `rooted_core` structure edge for edge, over the
    /// out CSR.
    fn cascade_core<V: GraphView, G: Rng + ?Sized, const SKIP: bool>(
        &mut self,
        view: &V,
        seeds: &[Node],
        rng: &mut G,
    ) -> usize {
        self.marks.begin(view.num_nodes());
        self.queue.clear();
        let sv: SampleView<'_> = view.sample_view();
        for &s in seeds {
            if view.is_alive(s) && self.marks.mark(s as usize) {
                sv.prefetch_out_meta(s);
                self.queue.push(s);
            }
        }
        if let Some(&r) = self.queue.first() {
            let (lo, hi, _, _) = sv.out_meta(r);
            sv.prefetch_out_span(lo, hi);
        }
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let (lo, hi, thr, inv) = sv.out_meta(u);
            // One-member span lookahead: while `u` is processed, the next
            // frontier member's out-edge span is pulled in (its meta record
            // was prefetched when it was pushed).
            if let Some(&nu) = self.queue.get(head) {
                let (nlo, nhi, _, _) = sv.out_meta(nu);
                sv.prefetch_out_span(nlo, nhi);
            }
            let targets = sv.targets(lo, hi);
            if SKIP && inv < 0.0 {
                // Uniform out-neighborhood: geometric skip to the next
                // accepted out-edge. The first draw is special — `thr`
                // holds the quantized probability that the whole span
                // rejects, so the common no-accept case retires on one
                // integer compare; when an accept exists, the *same* draw
                // continues through the inverse transform. `inv = 1/ln(1-q)`
                // is finite negative, `ln(u)` is finite negative, so
                // `s >= 0` and `i` stays in bounds.
                let len = targets.len();
                let r0 = rng.next_u32();
                if r0 >= thr {
                    let mut s = ((r0 as f64 + 0.5) * (1.0 / 4_294_967_296.0)).ln() * inv;
                    let mut i = 0usize;
                    loop {
                        if s >= (len - i) as f64 {
                            break;
                        }
                        i += s as usize;
                        let w = targets[i];
                        if sv.is_alive(w) && self.marks.mark(w as usize) {
                            sv.prefetch_out_meta(w);
                            self.queue.push(w);
                        }
                        i += 1;
                        if i == len {
                            break;
                        }
                        s = unit_open(rng.next_u64()).ln() * inv;
                    }
                }
            } else if inv.is_nan() && thr != 0 {
                // Uniform out-neighborhood below the skip cutoff: the
                // shared threshold rides in a register, the per-edge array
                // is never touched. Short neighborhoods stage accepts
                // branchlessly — the accept decision is data-dependent
                // noise the predictor can't learn. (The staged form draws
                // a coin even for dead targets, where the long-form loop
                // short-circuits — same acceptance law, the coins are
                // independent either way.)
                const STAGE: usize = 16;
                if targets.len() <= STAGE {
                    let mut cand = [0 as Node; STAGE];
                    let mut k = 0usize;
                    for &w in targets {
                        cand[k] = w;
                        k += usize::from(threshold_accept(rng.next_u32(), thr) && sv.is_alive(w));
                    }
                    for &w in &cand[..k] {
                        if self.marks.mark(w as usize) {
                            sv.prefetch_out_meta(w);
                            self.queue.push(w);
                        }
                    }
                } else {
                    for &w in targets {
                        if sv.is_alive(w)
                            && threshold_accept(rng.next_u32(), thr)
                            && self.marks.mark(w as usize)
                        {
                            sv.prefetch_out_meta(w);
                            self.queue.push(w);
                        }
                    }
                }
            } else {
                let thresholds = sv.out_thresholds(lo, hi);
                for (&w, &t) in targets.iter().zip(thresholds) {
                    if sv.is_alive(w)
                        && threshold_accept(rng.next_u32(), t)
                        && self.marks.mark(w as usize)
                    {
                        sv.prefetch_out_meta(w);
                        self.queue.push(w);
                    }
                }
            }
        }
        self.queue.len()
    }

    /// The pre-refactor randomized cascade: one fresh 32-bit draw per
    /// out-edge against the bare per-edge threshold slice, no skip path,
    /// no prefetch. Kept as the statistical oracle the forward
    /// equivalence suite pins [`random_cascade`](Self::random_cascade)
    /// against; not a hot path.
    pub fn random_cascade_percoin<V: GraphView, G: Rng + ?Sized>(
        &mut self,
        view: &V,
        seeds: &[Node],
        rng: &mut G,
    ) -> usize {
        self.marks.begin(view.num_nodes());
        self.queue.clear();
        for &s in seeds {
            if view.is_alive(s) && self.marks.mark(s as usize) {
                self.queue.push(s);
            }
        }
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            let (targets, _, _) = view.out_slice(u);
            let thresholds = view.base().out_thresholds(u);
            for i in 0..targets.len() {
                let v = targets[i];
                if view.is_alive(v)
                    && threshold_accept(rng.next_u32(), thresholds[i])
                    && self.marks.mark(v as usize)
                {
                    self.queue.push(v);
                }
            }
        }
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::realization::{HashedRealization, MaterializedRealization};
    use atpm_graph::{GraphBuilder, ResidualGraph};
    use atpm_ris::CounterRng;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// 0 -> 1 -> 2 -> 3 chain; edge ids are 0, 1, 2 in order.
    fn chain() -> atpm_graph::Graph {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        b.add_edge(2, 3, 0.5).unwrap();
        b.build()
    }

    #[test]
    fn observe_follows_live_edges_only() {
        let g = chain();
        let mut eng = CascadeEngine::new();
        // Only edges 0 and 1 live: cascade from 0 reaches {0, 1, 2}.
        let real = MaterializedRealization::from_live_edges(3, &[0, 1]);
        let act = eng.observe(&&g, &real, &[0]);
        assert_eq!(act, vec![0, 1, 2]);
        // Edge 2 blocked: from 2, only itself.
        let act = eng.observe(&&g, &real, &[2]);
        assert_eq!(act, vec![2]);
    }

    #[test]
    fn observe_skips_dead_nodes() {
        let g = chain();
        let mut r = ResidualGraph::new(&g);
        r.remove(1);
        let real = MaterializedRealization::from_live_edges(3, &[0, 1, 2]);
        let mut eng = CascadeEngine::new();
        // 1 is dead, so the world's live edge 0->1 leads nowhere.
        let act = eng.observe(&r, &real, &[0]);
        assert_eq!(act, vec![0]);
        // A dead seed activates nothing.
        let act = eng.observe(&r, &real, &[1]);
        assert!(act.is_empty());
    }

    #[test]
    fn observe_handles_multiple_and_duplicate_seeds() {
        let g = chain();
        let real = MaterializedRealization::from_live_edges(3, &[2]);
        let mut eng = CascadeEngine::new();
        let act = eng.observe(&&g, &real, &[0, 0, 2]);
        assert_eq!(act, vec![0, 2, 3]);
    }

    #[test]
    fn observe_same_world_is_repeatable() {
        let g = chain();
        let real = HashedRealization::new(123);
        let mut eng = CascadeEngine::new();
        let a1 = eng.observe(&&g, &real, &[0]);
        let a2 = eng.observe(&&g, &real, &[0]);
        assert_eq!(a1, a2);
    }

    #[test]
    fn observe_into_reuses_the_buffer() {
        let g = chain();
        let real = HashedRealization::new(7);
        let mut eng = CascadeEngine::new();
        let mut buf = vec![99, 99, 99];
        eng.observe_into(&&g, &real, &[0], &mut buf);
        assert_eq!(buf, eng.observe(&&g, &real, &[0]));
        // Cleared between calls, not appended.
        eng.observe_into(&&g, &real, &[3], &mut buf);
        assert_eq!(buf, vec![3]);
    }

    #[test]
    fn observation_is_consistent_with_incremental_removal() {
        // Observing {u, v} at once must equal observing u, removing A(u),
        // then observing v — the core soundness property of the adaptive loop.
        let g = chain();
        for seed in 0..50u64 {
            let real = HashedRealization::new(seed);
            let mut eng = CascadeEngine::new();
            let joint: std::collections::HashSet<_> =
                eng.observe(&&g, &real, &[0, 2]).into_iter().collect();

            let mut r = ResidualGraph::new(&g);
            let a0 = eng.observe(&r, &real, &[0]);
            r.remove_all(a0.iter().copied());
            let a2 = eng.observe(&r, &real, &[2]);
            let split: std::collections::HashSet<_> = a0.into_iter().chain(a2).collect();
            assert_eq!(joint, split, "world {seed}");
        }
    }

    #[test]
    fn random_cascade_bounds() {
        let g = chain();
        let mut eng = CascadeEngine::new();
        let mut rng = CounterRng::new(1);
        for _ in 0..100 {
            let k = eng.random_cascade(&&g, &[0], &mut rng);
            assert!((1..=4).contains(&k));
            let k = eng.random_cascade_threshold(&&g, &[0], &mut rng);
            assert!((1..=4).contains(&k));
        }
        let mut std_rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let k = eng.random_cascade_percoin(&&g, &[0], &mut std_rng);
            assert!((1..=4).contains(&k));
        }
    }

    #[test]
    fn skip_path_respects_dead_nodes_and_marks() {
        // A broadcaster with 16 uniform out-edges at p = 0.2 takes the
        // skip path; kill half the sinks and check the cascade never
        // counts them.
        let mut b = GraphBuilder::new(17);
        for v in 1..17u32 {
            b.add_edge(0, v, 0.2).unwrap();
        }
        let g = b.build();
        assert!(g.out_skip_inv(0) < 0.0, "broadcaster must be skip-eligible");
        let mut r = ResidualGraph::new(&g);
        r.remove_all((1..17).filter(|v| v % 2 == 0));
        let mut eng = CascadeEngine::new();
        let mut rng = CounterRng::new(21);
        let mut total = 0usize;
        for _ in 0..20_000 {
            total += eng.random_cascade(&r, &[0], &mut rng);
        }
        // 8 alive sinks at p = 0.2 each: E[size] = 1 + 8·0.2 = 2.6.
        let mean = total as f64 / 20_000.0;
        assert!(
            (mean - 2.6).abs() < 0.05,
            "skip path over dead sinks drifted: {mean}"
        );
    }

    #[test]
    fn certain_edges_always_fire_forward() {
        // p = 1.0 out-edges must fire on every draw through every path.
        let mut b = GraphBuilder::new(5);
        for v in 1..5u32 {
            b.add_edge(0, v, 1.0).unwrap();
        }
        let g = b.build();
        let mut eng = CascadeEngine::new();
        let mut rng = CounterRng::new(3);
        for _ in 0..2_000 {
            assert_eq!(eng.random_cascade(&&g, &[0], &mut rng), 5);
            assert_eq!(eng.random_cascade_threshold(&&g, &[0], &mut rng), 5);
        }
    }

    #[test]
    fn epoch_reuse_does_not_leak_marks() {
        let g = chain();
        let real = MaterializedRealization::from_live_edges(3, &[]);
        let mut eng = CascadeEngine::new();
        for _ in 0..10_000 {
            let act = eng.observe(&&g, &real, &[0]);
            assert_eq!(act, vec![0]);
        }
    }
}
