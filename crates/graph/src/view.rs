//! Graph views: the [`GraphView`] trait and the alive-masked [`ResidualGraph`].
//!
//! The adaptive algorithms of the paper repeatedly shrink the graph: after a
//! seed `u_i` is selected and its cascade `A(u_i)` observed, all activated
//! nodes are removed, producing the residual graph `G_{i+1}` (paper §II-B).
//! Copying a multi-million-edge CSR per iteration would dominate the runtime,
//! so removal is represented as a bitmask *view* over the immutable base graph
//! instead: `remove` is O(1) per node and all traversals simply skip dead
//! endpoints.

use rand::Rng;

use crate::{Graph, Node};

/// Read access to a (possibly residual) probabilistic graph.
///
/// Implemented by [`Graph`] itself (everything alive) and [`ResidualGraph`]
/// (alive bitmask). Diffusion, RR-set sampling and all policies are generic
/// over this trait, so the same code path serves the original and every
/// residual graph.
pub trait GraphView {
    /// The immutable base graph that node/edge ids refer to.
    fn base(&self) -> &Graph;

    /// Total node count of the *base* graph (`n`). Alive or not, node ids
    /// always range over `0..num_nodes()`.
    fn num_nodes(&self) -> usize {
        self.base().num_nodes()
    }

    /// Number of alive nodes (`n_i` in the paper).
    fn num_alive(&self) -> usize;

    /// Whether `u` is still present in this view.
    fn is_alive(&self, u: Node) -> bool;

    /// Out-neighbours of `u` in the base graph: `(targets, thresholds)`.
    /// Callers must filter targets through [`is_alive`](Self::is_alive).
    #[inline]
    fn out_slice(&self, u: Node) -> (&[Node], &[u32]) {
        self.base().out_slice(u)
    }

    /// In-neighbours of `v` in the base graph: `(sources, thresholds)`.
    /// Callers must filter sources through [`is_alive`](Self::is_alive).
    #[inline]
    fn in_slice(&self, v: Node) -> (&[Node], &[u32]) {
        self.base().in_slice(v)
    }

    /// Samples a node uniformly from the alive set, or `None` if empty.
    fn sample_alive<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Node>;

    /// The raw alive-bitmask words backing [`is_alive`](Self::is_alive), or
    /// `None` when every node is alive. Lets [`SampleView`] test liveness
    /// with one shift-and-mask instead of a per-edge virtual call.
    fn alive_words(&self) -> Option<&[u64]> {
        None
    }

    /// Freezes this view into the flat [`SampleView`] the RIS hot loops run
    /// on: base-graph CSR slices, baked thresholds, and the alive bitmask,
    /// with no generics left between the sampler and the arrays. O(1).
    fn sample_view(&self) -> SampleView<'_> {
        SampleView {
            base: self.base(),
            alive: self.alive_words(),
        }
    }
}

/// A frozen, `Copy` sampling view over a [`GraphView`]: the base graph's
/// CSR arrays (neighbours, baked `u32` thresholds and packed records) plus
/// the optional alive bitmask of a residual view.
///
/// This is what the reverse-BFS inner loop actually traverses — building it
/// per sample is free (two pointers), and it keeps the hot loop monomorphic
/// over a single concrete type whatever view the caller holds.
#[derive(Clone, Copy)]
pub struct SampleView<'g> {
    base: &'g Graph,
    alive: Option<&'g [u64]>,
}

/// Hints the CPU to pull the cache line of `p` toward L1. Free on
/// architectures without a stable hint. Safe: a prefetch has no
/// architectural effect, any address is permitted.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8)
    }
    #[cfg(target_arch = "aarch64")]
    unsafe {
        core::arch::asm!("prfm pldl1keep, [{0}]", in(reg) p, options(nostack, preserves_flags))
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

impl<'g> SampleView<'g> {
    /// The base graph whose CSR arrays (and baked thresholds) back this view.
    #[inline]
    pub fn base(&self) -> &'g Graph {
        self.base
    }

    /// Whether `u` survives the alive mask (always true for a full view).
    #[inline]
    pub fn is_alive(&self, u: Node) -> bool {
        match self.alive {
            None => true,
            Some(words) => words[u as usize / WORD_BITS] >> (u as usize % WORD_BITS) & 1 != 0,
        }
    }

    /// The packed sampling record of `v` unpacked as `(lo, hi, thr, inv)` —
    /// one 16-byte read (plus the adjacent sentinel/neighbor record for the
    /// span end).
    #[inline]
    pub fn in_meta(&self, v: Node) -> (usize, usize, u32, f64) {
        let (meta, _, _) = self.base.sampling_arrays();
        let m = &meta[v as usize];
        (
            m.lo as usize,
            meta[v as usize + 1].lo as usize,
            m.thr,
            m.inv,
        )
    }

    /// In-edge sources of the span `lo..hi` (from [`in_meta`](Self::in_meta)).
    #[inline]
    pub fn sources(&self, lo: usize, hi: usize) -> &'g [Node] {
        let (_, sources, _) = self.base.sampling_arrays();
        &sources[lo..hi]
    }

    /// Per-edge thresholds of the span `lo..hi` (mixed neighborhoods only).
    #[inline]
    pub fn thresholds(&self, lo: usize, hi: usize) -> &'g [u32] {
        let (_, _, thresholds) = self.base.sampling_arrays();
        &thresholds[lo..hi]
    }

    /// Prefetches `v`'s sampling record — call when `v` joins the BFS
    /// frontier so the record is resident by the time `v` is dequeued.
    #[inline]
    pub fn prefetch_meta(&self, v: Node) {
        let (meta, _, _) = self.base.sampling_arrays();
        prefetch_read(&meta[v as usize]);
    }

    /// Prefetches the head of a node's in-edge span (the hardware streamer
    /// follows for long neighborhoods). Call one frontier member ahead.
    #[inline]
    pub fn prefetch_span(&self, lo: usize, hi: usize) {
        let (_, sources, _) = self.base.sampling_arrays();
        // First two lines (32 sources) cover the common short neighborhood.
        if lo < hi {
            prefetch_read(&sources[lo]);
            if hi - lo > 16 {
                prefetch_read(&sources[lo + 16]);
            }
        }
    }

    // ---- forward face -----------------------------------------------------
    // The out-side mirror of the accessors above: forward cascades (the MC
    // spread oracle, world scoring, server-simulated observations) run on
    // the same packed-record machinery the reverse samplers do, just over
    // the out CSR. Slot `i` of the out arrays is forward edge id `i`, so a
    // span `lo..hi` also hands the caller its edge ids for free.

    /// The packed *out*-side sampling record of `u` unpacked as
    /// `(lo, hi, thr, inv)` — one 16-byte read plus the adjacent record
    /// for the span end.
    #[inline]
    pub fn out_meta(&self, u: Node) -> (usize, usize, u32, f64) {
        let (meta, _, _) = self.base.sampling_arrays_out();
        let m = &meta[u as usize];
        (
            m.lo as usize,
            meta[u as usize + 1].lo as usize,
            m.thr,
            m.inv,
        )
    }

    /// Out-edge targets of the span `lo..hi` (from [`out_meta`](Self::out_meta)).
    #[inline]
    pub fn targets(&self, lo: usize, hi: usize) -> &'g [Node] {
        let (_, targets, _) = self.base.sampling_arrays_out();
        &targets[lo..hi]
    }

    /// Per-edge out thresholds of the span `lo..hi`; slot `i` is the coin
    /// of forward edge id `lo + i`.
    #[inline]
    pub fn out_thresholds(&self, lo: usize, hi: usize) -> &'g [u32] {
        let (_, _, thresholds) = self.base.sampling_arrays_out();
        &thresholds[lo..hi]
    }

    /// Prefetches `u`'s out-side sampling record — call when `u` joins the
    /// cascade frontier so the record is resident by dequeue time.
    #[inline]
    pub fn prefetch_out_meta(&self, u: Node) {
        let (meta, _, _) = self.base.sampling_arrays_out();
        prefetch_read(&meta[u as usize]);
    }

    /// Prefetches the head of a node's out-edge span. Call one frontier
    /// member ahead.
    #[inline]
    pub fn prefetch_out_span(&self, lo: usize, hi: usize) {
        let (_, targets, _) = self.base.sampling_arrays_out();
        if lo < hi {
            prefetch_read(&targets[lo]);
            if hi - lo > 16 {
                prefetch_read(&targets[lo + 16]);
            }
        }
    }
}

impl GraphView for Graph {
    #[inline]
    fn base(&self) -> &Graph {
        self
    }

    #[inline]
    fn num_alive(&self) -> usize {
        self.num_nodes()
    }

    #[inline]
    fn is_alive(&self, _u: Node) -> bool {
        true
    }

    fn sample_alive<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Node> {
        let n = self.num_nodes();
        if n == 0 {
            None
        } else {
            Some(uniform_index(rng, n))
        }
    }
}

impl<T: GraphView> GraphView for &T {
    #[inline]
    fn base(&self) -> &Graph {
        (**self).base()
    }
    #[inline]
    fn num_alive(&self) -> usize {
        (**self).num_alive()
    }
    #[inline]
    fn is_alive(&self, u: Node) -> bool {
        (**self).is_alive(u)
    }
    #[inline]
    fn sample_alive<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Node> {
        (**self).sample_alive(rng)
    }
    #[inline]
    fn alive_words(&self) -> Option<&[u64]> {
        (**self).alive_words()
    }
}

/// Word size of the alive bitmask.
const WORD_BITS: usize = 64;

/// Near-uniform index draw by multiply-shift: maps one 64-bit draw onto
/// `0..n` without the per-call modulo of exact rejection sampling. The bias
/// is at most `n / 2^64` per index (< 2^-40 for any graph this crate can
/// hold) — orders of magnitude below the `2^-32` coin-quantization floor
/// the samplers already document.
#[inline]
fn uniform_index<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Node {
    (((rng.gen::<u64>() as u128) * (n as u128)) >> 64) as Node
}

/// When fewer than this fraction of nodes remain alive, uniform sampling
/// switches from rejection to an explicit alive list (rebuilt lazily).
const REJECTION_MIN_FRACTION: f64 = 1.0 / 64.0;

/// A view of a base [`Graph`] from which some nodes have been removed.
///
/// This is the `G_i` of the paper: the residual graph after activated nodes
/// have been deleted. Removal is monotone — nodes never come back (call
/// [`reset`](ResidualGraph::reset) to start a new realization).
pub struct ResidualGraph<'g> {
    base: &'g Graph,
    alive: Vec<u64>,
    n_alive: usize,
    /// Lazily materialized list of alive nodes, used for uniform sampling once
    /// the alive fraction is too small for rejection sampling. Invalidated
    /// (cleared) by every removal. A mutex (not `RefCell`) so residual views
    /// can be shared across sampler threads.
    alive_list: std::sync::Mutex<Vec<Node>>,
}

impl<'g> ResidualGraph<'g> {
    /// A view with every node alive.
    pub fn new(base: &'g Graph) -> Self {
        let n = base.num_nodes();
        let words = n.div_ceil(WORD_BITS);
        let mut alive = vec![!0u64; words];
        // Clear the tail bits beyond n so popcounts stay exact.
        if !n.is_multiple_of(WORD_BITS) && words > 0 {
            alive[words - 1] = (1u64 << (n % WORD_BITS)) - 1;
        }
        ResidualGraph {
            base,
            alive,
            n_alive: n,
            alive_list: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Removes `u` from the view. Idempotent.
    pub fn remove(&mut self, u: Node) {
        let (w, b) = (u as usize / WORD_BITS, u as usize % WORD_BITS);
        let mask = 1u64 << b;
        if self.alive[w] & mask != 0 {
            self.alive[w] &= !mask;
            self.n_alive -= 1;
            self.alive_list.lock().expect("alive list poisoned").clear();
        }
    }

    /// Removes every node yielded by `nodes`.
    pub fn remove_all<I: IntoIterator<Item = Node>>(&mut self, nodes: I) {
        for u in nodes {
            self.remove(u);
        }
    }

    /// Restores every node (start of a fresh realization).
    pub fn reset(&mut self) {
        let n = self.base.num_nodes();
        for w in self.alive.iter_mut() {
            *w = !0;
        }
        let words = self.alive.len();
        if !n.is_multiple_of(WORD_BITS) && words > 0 {
            self.alive[words - 1] = (1u64 << (n % WORD_BITS)) - 1;
        }
        self.n_alive = n;
        self.alive_list.lock().expect("alive list poisoned").clear();
    }

    /// Decomposes the view into its owned parts `(alive bitmask words,
    /// alive count)`, detaching it from the base graph. Together with
    /// [`from_parts`](ResidualGraph::from_parts) this lets long-lived
    /// services suspend a residual view into owned storage between requests
    /// and re-attach it to the (separately owned) base graph later, without
    /// self-referential structs or re-allocation.
    pub fn into_parts(self) -> (Vec<u64>, usize) {
        (self.alive, self.n_alive)
    }

    /// Reconstructs a view from parts produced by
    /// [`into_parts`](ResidualGraph::into_parts) against the same base graph
    /// (or any graph with the same node count).
    ///
    /// Panics if the word count does not match `base` or if `n_alive`
    /// disagrees with the bitmask's popcount.
    pub fn from_parts(base: &'g Graph, alive: Vec<u64>, n_alive: usize) -> Self {
        let n = base.num_nodes();
        assert_eq!(
            alive.len(),
            n.div_ceil(WORD_BITS),
            "alive bitmask sized for a different graph"
        );
        let pop: usize = alive.iter().map(|w| w.count_ones() as usize).sum();
        assert_eq!(pop, n_alive, "n_alive disagrees with bitmask popcount");
        ResidualGraph {
            base,
            alive,
            n_alive,
            alive_list: std::sync::Mutex::new(Vec::new()),
        }
    }

    /// Iterates alive nodes in increasing id order.
    pub fn alive_nodes(&self) -> impl Iterator<Item = Node> + '_ {
        self.alive.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let b = bits.trailing_zeros();
                    bits &= bits - 1;
                    Some((w * WORD_BITS) as Node + b)
                }
            })
        })
    }
}

impl GraphView for ResidualGraph<'_> {
    #[inline]
    fn base(&self) -> &Graph {
        self.base
    }

    #[inline]
    fn num_alive(&self) -> usize {
        self.n_alive
    }

    #[inline]
    fn is_alive(&self, u: Node) -> bool {
        let (w, b) = (u as usize / WORD_BITS, u as usize % WORD_BITS);
        self.alive[w] & (1u64 << b) != 0
    }

    #[inline]
    fn alive_words(&self) -> Option<&[u64]> {
        Some(&self.alive)
    }

    fn sample_alive<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Node> {
        let n = self.base.num_nodes();
        if self.n_alive == 0 {
            return None;
        }
        let frac = self.n_alive as f64 / n as f64;
        if frac >= REJECTION_MIN_FRACTION {
            // Rejection sampling: uniform over alive nodes (up to the
            // multiply-shift base draw's < 2^-40 bias), expected
            // 1/frac < 64 draws.
            loop {
                let u = uniform_index(rng, n);
                if self.is_alive(u) {
                    return Some(u);
                }
            }
        }
        // Sparse regime: materialize (and cache) the alive list.
        let mut list = self.alive_list.lock().expect("alive list poisoned");
        if list.is_empty() {
            list.extend(self.alive_nodes());
        }
        debug_assert_eq!(list.len(), self.n_alive);
        let i = uniform_index(rng, list.len()) as usize;
        Some(list[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line_graph(n: usize) -> Graph {
        let mut b = GraphBuilder::new(n);
        for i in 0..n - 1 {
            b.add_edge(i as Node, (i + 1) as Node, 0.5).unwrap();
        }
        b.build()
    }

    #[test]
    fn fresh_view_has_everything_alive() {
        let g = line_graph(130); // crosses two bitmask words
        let r = ResidualGraph::new(&g);
        assert_eq!(r.num_alive(), 130);
        assert!((0..130).all(|u| r.is_alive(u)));
        assert_eq!(r.alive_nodes().count(), 130);
    }

    #[test]
    fn remove_is_idempotent_and_counts() {
        let g = line_graph(10);
        let mut r = ResidualGraph::new(&g);
        r.remove(3);
        r.remove(3);
        r.remove(7);
        assert_eq!(r.num_alive(), 8);
        assert!(!r.is_alive(3));
        assert!(!r.is_alive(7));
        assert!(r.is_alive(0));
        let alive: Vec<Node> = r.alive_nodes().collect();
        assert_eq!(alive, vec![0, 1, 2, 4, 5, 6, 8, 9]);
    }

    #[test]
    fn reset_restores_all() {
        let g = line_graph(70);
        let mut r = ResidualGraph::new(&g);
        r.remove_all(0..35);
        assert_eq!(r.num_alive(), 35);
        r.reset();
        assert_eq!(r.num_alive(), 70);
        assert_eq!(r.alive_nodes().count(), 70);
    }

    #[test]
    fn parts_round_trip_preserves_the_view() {
        let g = line_graph(130);
        let mut r = ResidualGraph::new(&g);
        r.remove_all([0, 64, 129]);
        let (words, n_alive) = r.into_parts();
        let r2 = ResidualGraph::from_parts(&g, words, n_alive);
        assert_eq!(r2.num_alive(), 127);
        assert!(!r2.is_alive(0) && !r2.is_alive(64) && !r2.is_alive(129));
        assert!(r2.is_alive(1));
    }

    #[test]
    #[should_panic(expected = "popcount")]
    fn from_parts_rejects_inconsistent_count() {
        let g = line_graph(10);
        let r = ResidualGraph::new(&g);
        let (words, _) = r.into_parts();
        let _ = ResidualGraph::from_parts(&g, words, 3);
    }

    #[test]
    fn sample_alive_only_returns_alive_nodes() {
        let g = line_graph(64);
        let mut r = ResidualGraph::new(&g);
        r.remove_all((0..64).filter(|u| u % 2 == 0));
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let u = r.sample_alive(&mut rng).unwrap();
            assert!(u % 2 == 1, "sampled dead node {u}");
        }
    }

    #[test]
    fn sample_alive_sparse_regime_uses_list() {
        let g = line_graph(1000);
        let mut r = ResidualGraph::new(&g);
        // Keep only 5 alive: fraction 0.005 < 1/64 forces the list path.
        r.remove_all((0..1000).filter(|u| !matches!(u, 11 | 222 | 333 | 444 | 999)));
        assert_eq!(r.num_alive(), 5);
        let mut rng = StdRng::seed_from_u64(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..300 {
            seen.insert(r.sample_alive(&mut rng).unwrap());
        }
        let mut seen: Vec<_> = seen.into_iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![11, 222, 333, 444, 999]);
    }

    #[test]
    fn sample_alive_empty_returns_none() {
        let g = line_graph(4);
        let mut r = ResidualGraph::new(&g);
        r.remove_all(0..4);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(r.sample_alive(&mut rng).is_none());
    }

    #[test]
    fn sample_view_forward_face_mirrors_out_slices() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(0, 2, 0.25).unwrap();
        b.add_edge(1, 3, 1.0).unwrap();
        b.add_edge(3, 4, 0.75).unwrap();
        let g = b.build();
        let sv = g.sample_view();
        for u in 0..5u32 {
            let (targets, thresholds) = g.out_slice(u);
            let (lo, hi, _, _) = sv.out_meta(u);
            assert_eq!(lo, g.out_meta(u).lo as usize, "node {u}");
            assert_eq!(hi - lo, g.out_degree(u), "node {u}");
            assert_eq!(sv.targets(lo, hi), targets, "node {u}");
            assert_eq!(sv.out_thresholds(lo, hi), thresholds);
            // Slot i of the span is forward edge id lo + i.
            for (i, &t) in sv.out_thresholds(lo, hi).iter().enumerate() {
                assert_eq!(t, g.edge_threshold((lo + i) as u32));
            }
        }
    }

    #[test]
    fn sample_view_mirrors_the_alive_mask() {
        let g = line_graph(130);
        let full = g.sample_view();
        assert!((0..130).all(|u| full.is_alive(u)));
        assert!(std::ptr::eq(full.base(), &g));

        let mut r = ResidualGraph::new(&g);
        r.remove_all([0, 64, 129]);
        let sv = r.sample_view();
        for u in 0..130u32 {
            assert_eq!(sv.is_alive(u), r.is_alive(u), "node {u}");
        }
    }

    #[test]
    fn sample_alive_is_roughly_uniform() {
        let g = line_graph(8);
        let mut r = ResidualGraph::new(&g);
        r.remove(0);
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts = [0usize; 8];
        let draws = 70_000;
        for _ in 0..draws {
            counts[r.sample_alive(&mut rng).unwrap() as usize] += 1;
        }
        assert_eq!(counts[0], 0);
        let expected = draws as f64 / 7.0;
        for &c in &counts[1..] {
            assert!(
                (c as f64 - expected).abs() < expected * 0.1,
                "count {c} too far from uniform expectation {expected}"
            );
        }
    }
}
