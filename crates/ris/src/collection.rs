//! Stored RR-set batches with an inverted index and coverage queries.
//!
//! Allocation discipline: the collection itself is three flat arrays plus a
//! flat inverted index, built exactly once by [`RrCollection::freeze`].
//! Parallel generation produces [`RrShard`]s whose storage is merged with
//! two `extend_from_slice` calls per shard ([`RrCollection::absorb_shard`])
//! instead of re-pushing set by set. Hot queries go through a reusable
//! [`CoverageScratch`] (epoch-stamped, O(1) bulk clear) so steady-state
//! coverage evaluation performs **zero heap allocation per query** — see
//! `tests/alloc_discipline.rs`.

use atpm_graph::Node;

use crate::workspace::EpochMarks;

/// A worker-local batch of RR sets in the same flat layout as
/// [`RrCollection`], ready to be merged by bulk copy.
///
/// `offsets` always starts with `0` and holds one entry per stored set plus
/// the sentinel, exactly like the collection's own offsets but relative to
/// the shard.
#[derive(Debug)]
pub struct RrShard {
    pub(crate) members: Vec<Node>,
    pub(crate) offsets: Vec<u64>,
}

// Not derived: a derived Default would skip the leading-0 sentinel in
// `offsets` and break the flat-layout invariant.
impl Default for RrShard {
    fn default() -> Self {
        Self::new()
    }
}

impl RrShard {
    /// An empty shard.
    pub fn new() -> Self {
        RrShard {
            members: Vec::new(),
            offsets: vec![0],
        }
    }

    /// An empty shard pre-sized for `sets` RR sets of `avg_size` expected
    /// members, so worker-side pushes settle into at most a few grows.
    pub fn with_capacity(sets: usize, avg_size: usize) -> Self {
        let mut offsets = Vec::with_capacity(sets + 1);
        offsets.push(0);
        RrShard {
            members: Vec::with_capacity(sets.saturating_mul(avg_size)),
            offsets,
        }
    }

    /// Appends one RR set.
    pub fn push(&mut self, set: &[Node]) {
        self.members.extend_from_slice(set);
        self.offsets.push(self.members.len() as u64);
    }

    /// Number of stored sets.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether no sets are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total stored members.
    pub fn total_members(&self) -> usize {
        self.members.len()
    }
}

/// A batch of RR sets in flat storage plus an inverted node → set-id index.
///
/// `CovR(S)` (paper Table I) is the number of stored sets that intersect `S`.
/// The inverted index is built once with a counting sort, so the per-node
/// memory overhead is two flat arrays rather than `n` separate `Vec`s.
#[derive(Debug)]
pub struct RrCollection {
    /// Universe size (total nodes of the view the sets were sampled on).
    n: usize,
    /// Alive-node count at generation time (`n_i`); spread estimates scale by
    /// this, not by `n`.
    n_alive: usize,
    /// Flat member storage.
    members: Vec<Node>,
    /// `offsets[i]..offsets[i+1]` is set `i` in `members`.
    offsets: Vec<u64>,
    /// Inverted index: `idx_sets[idx_offsets[u]..idx_offsets[u+1]]` are the
    /// ids of the sets containing `u`. Built on demand by `freeze`.
    idx_offsets: Vec<u64>,
    idx_sets: Vec<u32>,
    frozen: bool,
}

impl RrCollection {
    /// An empty collection over a view with `n` total and `n_alive` alive
    /// nodes.
    pub fn new(n: usize, n_alive: usize) -> Self {
        RrCollection {
            n,
            n_alive,
            members: Vec::new(),
            offsets: vec![0],
            idx_offsets: Vec::new(),
            idx_sets: Vec::new(),
            frozen: false,
        }
    }

    /// Number of stored RR sets (`θ`).
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether no sets are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Alive-node count `n_i` the sets were generated against.
    pub fn n_alive(&self) -> usize {
        self.n_alive
    }

    /// Universe size: total node count of the base graph.
    pub fn len_universe(&self) -> usize {
        self.n
    }

    /// Total stored members (Σ |R|).
    pub fn total_members(&self) -> usize {
        self.members.len()
    }

    /// Resident bytes of the set storage plus the inverted index (element
    /// counts × element sizes; allocator slack not included). The serve
    /// layer's snapshot-eviction budget charges each snapshot with this.
    pub fn mem_bytes(&self) -> usize {
        self.members.len() * std::mem::size_of::<Node>()
            + self.offsets.len() * std::mem::size_of::<u64>()
            + self.idx_sets.len() * std::mem::size_of::<u32>()
            + self.idx_offsets.len() * std::mem::size_of::<u64>()
    }

    /// An empty collection pre-sized for `sets` RR sets totalling `members`
    /// stored nodes (capacity hints only — exceeding them is fine).
    pub fn with_capacity(n: usize, n_alive: usize, sets: usize, members: usize) -> Self {
        let mut offsets = Vec::with_capacity(sets + 1);
        offsets.push(0);
        RrCollection {
            n,
            n_alive,
            members: Vec::with_capacity(members),
            offsets,
            idx_offsets: Vec::new(),
            idx_sets: Vec::new(),
            frozen: false,
        }
    }

    /// Appends one RR set. Panics after [`freeze`](Self::freeze).
    pub fn push(&mut self, set: &[Node]) {
        assert!(!self.frozen, "cannot push into a frozen collection");
        self.members.extend_from_slice(set);
        self.offsets.push(self.members.len() as u64);
    }

    /// Merges a worker shard by bulk copy: one `extend_from_slice` for the
    /// members, one offset-rebased extend for the set boundaries. This is
    /// the fan-in half of sharded generation — no per-set re-push, no
    /// per-set bounds checks. Panics after [`freeze`](Self::freeze).
    pub fn absorb_shard(&mut self, shard: &RrShard) {
        assert!(!self.frozen, "cannot absorb into a frozen collection");
        let base = self.members.len() as u64;
        self.members.extend_from_slice(&shard.members);
        self.offsets
            .extend(shard.offsets[1..].iter().map(|&o| o + base));
    }

    /// Members of set `i`.
    pub fn set(&self, i: usize) -> &[Node] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.members[lo..hi]
    }

    /// Builds the inverted index (idempotent). Required before any
    /// index-based query.
    pub fn freeze(&mut self) {
        if self.frozen {
            return;
        }
        // Cursors are u32, halving the zero-fill and keeping the scatter's
        // working set dense; the stored u64 offsets are widened in one
        // cheap pass. (The parallel build below already indexes postings
        // with u32.)
        assert!(
            self.members.len() <= u32::MAX as usize,
            "posting count exceeds the u32 index space"
        );
        // Both passes stream the member array sequentially but scatter into
        // the counts array at random; prefetching the cursor a few members
        // ahead hides most of that latency.
        const LOOKAHEAD: usize = 16;
        let mut counts = vec![0u32; self.n + 1];
        for (i, &u) in self.members.iter().enumerate() {
            if let Some(&next) = self.members.get(i + LOOKAHEAD) {
                atpm_graph::view::prefetch_read(&counts[next as usize]);
            }
            counts[u as usize + 1] += 1;
        }
        for i in 0..self.n {
            counts[i + 1] += counts[i];
        }
        // counts[u] is the start of u's posting list; placement advances it
        // to the end (= start of u+1), so shifting right by one afterwards
        // rebuilds the offsets without a cursor clone.
        let mut idx_sets = vec![0u32; self.members.len()];
        let mut set = 0usize;
        let mut set_end = self.offsets.get(1).copied().unwrap_or(0);
        for (i, &u) in self.members.iter().enumerate() {
            if let Some(&next) = self.members.get(i + LOOKAHEAD) {
                atpm_graph::view::prefetch_read(&counts[next as usize]);
            }
            while i as u64 == set_end {
                set += 1;
                set_end = self.offsets[set + 1];
            }
            let slot = counts[u as usize] as usize;
            counts[u as usize] += 1;
            idx_sets[slot] = set as u32;
        }
        let mut idx_offsets = Vec::with_capacity(self.n + 1);
        idx_offsets.push(0u64);
        idx_offsets.extend(counts[..self.n].iter().map(|&c| c as u64));
        self.idx_offsets = idx_offsets;
        self.idx_sets = idx_sets;
        self.frozen = true;
    }

    /// [`freeze`](Self::freeze) with the counting sort parallelized across
    /// `threads` workers (idempotent; produces an identical index).
    ///
    /// The index is partitioned by **node range**, each range sized to hold
    /// ~`Σ|R| / threads` postings: every worker scans the full member array
    /// but counts and places only the nodes it owns, so the output slices
    /// are disjoint (`split_at_mut` — no atomics) and each node's posting
    /// list is still filled in ascending set order, exactly like the
    /// sequential build. Redundant reads are cheap (sequential scans);
    /// scattered writes — the expensive half — are what gets split.
    pub fn freeze_parallel(&mut self, threads: usize) {
        // Workers do redundant reads, so more workers than cores is strictly
        // counterproductive — clamp to the machine.
        let threads = threads.max(1).min(crate::workspace::available_threads());
        // Below ~64k postings the spawn overhead beats the savings.
        if self.frozen || threads == 1 || self.members.len() < (1 << 16) {
            return self.freeze();
        }
        self.freeze_parallel_impl(threads);
    }

    /// The parallel build without the core-count clamp or size fallback
    /// (separated so tests exercise it on any machine).
    fn freeze_parallel_impl(&mut self, threads: usize) {
        let m = self.members.len();
        let members = &self.members;

        // Node-range boundaries balanced by posting count.
        let mut counts = vec![0u32; self.n + 1];
        for &u in members {
            counts[u as usize + 1] += 1;
        }
        let mut boundaries = Vec::with_capacity(threads + 1);
        boundaries.push(0usize);
        let per = m.div_ceil(threads);
        let mut acc = 0usize;
        for u in 0..self.n {
            acc += counts[u + 1] as usize;
            if acc >= per * boundaries.len() && boundaries.len() < threads {
                boundaries.push(u + 1);
            }
        }
        boundaries.push(self.n);

        // Global offsets from the histogram.
        let mut offsets = vec![0u64; self.n + 1];
        for u in 0..self.n {
            offsets[u + 1] = offsets[u] + u64::from(counts[u + 1]);
        }

        // Disjoint output slices per node range; each worker re-scans the
        // sets and places only its own nodes, in ascending set order.
        let mut idx_sets = vec![0u32; m];
        let set_offsets = &self.offsets;
        std::thread::scope(|scope| {
            let mut rest: &mut [u32] = &mut idx_sets;
            let mut consumed = 0u64;
            // Skewed histograms can yield fewer ranges than workers.
            for w in 0..boundaries.len() - 1 {
                let (lo, hi) = (boundaries[w], boundaries[w + 1]);
                let range_postings = (offsets[hi] - offsets[lo]) as usize;
                let (mine, tail) = rest.split_at_mut(range_postings);
                rest = tail;
                let base = consumed;
                consumed += range_postings as u64;
                let offsets = &offsets;
                scope.spawn(move || {
                    // Local cursors relative to this range's slice.
                    let mut cursor: Vec<usize> =
                        (lo..hi).map(|u| (offsets[u] - base) as usize).collect();
                    for i in 0..set_offsets.len() - 1 {
                        let set = &members[set_offsets[i] as usize..set_offsets[i + 1] as usize];
                        for &u in set {
                            let u = u as usize;
                            if (lo..hi).contains(&u) {
                                let slot = &mut cursor[u - lo];
                                mine[*slot] = i as u32;
                                *slot += 1;
                            }
                        }
                    }
                });
            }
        });
        self.idx_offsets = offsets;
        self.idx_sets = idx_sets;
        self.frozen = true;
    }

    /// Ids of the sets containing `u`. Requires [`freeze`](Self::freeze).
    pub fn sets_containing(&self, u: Node) -> &[u32] {
        assert!(self.frozen, "freeze() before querying the inverted index");
        let lo = self.idx_offsets[u as usize] as usize;
        let hi = self.idx_offsets[u as usize + 1] as usize;
        &self.idx_sets[lo..hi]
    }

    /// `CovR({u})`: number of sets containing `u`.
    pub fn cov_node(&self, u: Node) -> usize {
        self.sets_containing(u).len()
    }

    /// Iterates `(u, CovR({u}))` over every node with nonzero coverage, in
    /// increasing node order.
    ///
    /// One sequential pass over the inverted index's offset array — the fast
    /// path for bulk gain initialization (the greedy build), without the
    /// per-call slicing of [`cov_node`](Self::cov_node).
    pub fn nonzero_cov_nodes(&self) -> impl Iterator<Item = (Node, usize)> + '_ {
        assert!(self.frozen, "freeze() before querying the inverted index");
        self.idx_offsets
            .windows(2)
            .enumerate()
            .filter_map(|(u, w)| {
                let c = (w[1] - w[0]) as usize;
                (c > 0).then_some((u as Node, c))
            })
    }

    /// `CovR(S)`: number of sets intersecting `S`.
    ///
    /// Convenience wrapper allocating a fresh scratch; hot paths should hold
    /// a [`CoverageScratch`] and call [`cov_set_with`](Self::cov_set_with).
    pub fn cov_set(&self, s: &[Node]) -> usize {
        self.cov_set_with(s, &mut CoverageScratch::new())
    }

    /// `CovR(S)` using a reusable scratch: zero heap allocation once the
    /// scratch has warmed up to this collection's size.
    pub fn cov_set_with(&self, s: &[Node], scratch: &mut CoverageScratch) -> usize {
        assert!(self.frozen, "freeze() before querying the inverted index");
        scratch.marks.begin(self.len());
        let mut total = 0usize;
        for &u in s {
            for &i in self.sets_containing(u) {
                if scratch.marks.mark(i as usize) {
                    total += 1;
                }
            }
        }
        total
    }

    /// Estimated spread of `{u}` on the generation-time view:
    /// `n_alive · CovR({u}) / θ`.
    pub fn spread_node(&self, u: Node) -> f64 {
        self.scale(self.cov_node(u))
    }

    /// Estimated spread of `S`: `n_alive · CovR(S) / θ`.
    pub fn spread_set(&self, s: &[Node]) -> f64 {
        self.scale(self.cov_set(s))
    }

    /// Converts a coverage count to a spread estimate.
    pub fn scale(&self, cov: usize) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.n_alive as f64 * cov as f64 / self.len() as f64
        }
    }
}

/// Reusable per-set scratch for coverage queries.
///
/// Holds an [`EpochMarks`] over set ids: which sets the current query has
/// touched. Clearing between queries is an O(1) epoch bump; the backing
/// array is allocated once per collection size and then reused, so
/// `cov_set_with` is allocation-free in steady state.
///
/// One scratch per thread: queries borrow it mutably.
#[derive(Debug, Default)]
pub struct CoverageScratch {
    marks: EpochMarks,
}

impl CoverageScratch {
    /// An empty scratch; its marks grow on first use.
    pub fn new() -> Self {
        CoverageScratch {
            marks: EpochMarks::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_collection() -> RrCollection {
        let mut c = RrCollection::new(5, 5);
        c.push(&[0, 1]);
        c.push(&[1, 2]);
        c.push(&[3]);
        c.push(&[0, 2, 4]);
        c.freeze();
        c
    }

    #[test]
    fn counts_and_sets() {
        let c = sample_collection();
        assert_eq!(c.len(), 4);
        assert_eq!(c.total_members(), 8);
        assert_eq!(c.set(0), &[0, 1]);
        assert_eq!(c.set(3), &[0, 2, 4]);
    }

    #[test]
    fn inverted_index_is_exact() {
        let c = sample_collection();
        assert_eq!(c.sets_containing(0), &[0, 3]);
        assert_eq!(c.sets_containing(1), &[0, 1]);
        assert_eq!(c.sets_containing(2), &[1, 3]);
        assert_eq!(c.sets_containing(3), &[2]);
        assert_eq!(c.sets_containing(4), &[3]);
    }

    #[test]
    fn coverage_queries() {
        let c = sample_collection();
        assert_eq!(c.cov_node(0), 2);
        assert_eq!(c.cov_set(&[0, 1]), 3); // sets 0, 1, 3
        assert_eq!(c.cov_set(&[0, 1, 3]), 4); // everything
        assert_eq!(c.cov_set(&[]), 0);
    }

    #[test]
    fn spread_scaling() {
        let c = sample_collection();
        // n_alive = 5, theta = 4: node 0 covered twice -> 5 * 2/4 = 2.5.
        assert!((c.spread_node(0) - 2.5).abs() < 1e-12);
        assert!((c.spread_set(&[0, 1, 3]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn submodularity_of_coverage() {
        // Cov(A ∪ {u}) - Cov(A) >= Cov(B ∪ {u}) - Cov(B) for A ⊆ B.
        let c = sample_collection();
        let a: Vec<Node> = vec![1];
        let b: Vec<Node> = vec![1, 3];
        for u in [0u32, 2, 4] {
            let ga = c.cov_set(&[&a[..], &[u]].concat()) - c.cov_set(&a);
            let gb = c.cov_set(&[&b[..], &[u]].concat()) - c.cov_set(&b);
            assert!(ga >= gb, "submodularity violated for {u}");
        }
    }

    #[test]
    #[should_panic(expected = "frozen")]
    fn push_after_freeze_panics() {
        let mut c = sample_collection();
        c.push(&[1]);
    }

    #[test]
    #[should_panic(expected = "freeze")]
    fn query_before_freeze_panics() {
        let mut c = RrCollection::new(3, 3);
        c.push(&[0]);
        let _ = c.cov_node(0);
    }

    #[test]
    fn empty_collection_scales_to_zero() {
        let mut c = RrCollection::new(3, 3);
        c.freeze();
        assert_eq!(c.spread_set(&[0, 1]), 0.0);
    }

    #[test]
    fn absorb_shard_matches_per_set_push() {
        let mut a = RrShard::with_capacity(2, 2);
        a.push(&[0, 1]);
        a.push(&[1, 2]);
        let mut b = RrShard::new();
        b.push(&[3]);
        b.push(&[0, 2, 4]);
        assert_eq!(a.len(), 2);
        assert_eq!(b.total_members(), 4);

        let mut merged = RrCollection::with_capacity(5, 5, 4, 8);
        merged.absorb_shard(&a);
        merged.absorb_shard(&b);
        merged.freeze();

        let reference = sample_collection(); // same four sets pushed one by one
        assert_eq!(merged.len(), reference.len());
        assert_eq!(merged.total_members(), reference.total_members());
        for i in 0..reference.len() {
            assert_eq!(merged.set(i), reference.set(i), "set {i}");
        }
        for u in 0..5u32 {
            assert_eq!(
                merged.sets_containing(u),
                reference.sets_containing(u),
                "node {u}"
            );
        }
    }

    #[test]
    fn freeze_parallel_matches_sequential_index() {
        // Big enough to clear the sequential-fallback threshold (2^16
        // postings), with a skewed node distribution.
        let n = 700usize;
        let build = || {
            let mut c = RrCollection::new(n, n);
            let mut x = 9u64;
            for i in 0..30_000usize {
                let mut set = Vec::new();
                for j in 0..3 + (i % 4) {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    // Square to skew toward low ids (power-law-ish).
                    let r = (x >> 33) as usize % (n * n);
                    let u = ((r as f64).sqrt() as usize).min(n - 1) as Node;
                    if !set.contains(&u) {
                        set.push(u);
                    }
                    let _ = j;
                }
                c.push(&set);
            }
            c
        };
        let mut seq = build();
        assert!(
            seq.total_members() >= (1 << 16),
            "need to exercise the parallel path"
        );
        seq.freeze();
        for threads in [2usize, 3, 8] {
            let mut par = build();
            // Call the unclamped impl so the parallel path is exercised even
            // on single-core CI machines.
            par.freeze_parallel_impl(threads);
            assert_eq!(par.len(), seq.len());
            for u in 0..n as Node {
                assert_eq!(
                    par.sets_containing(u),
                    seq.sets_containing(u),
                    "threads {threads}, node {u}"
                );
            }
        }
    }

    #[test]
    fn default_shard_upholds_the_offset_invariant() {
        let mut shard = RrShard::default();
        assert!(shard.is_empty());
        assert_eq!(shard.len(), 0);
        shard.push(&[1, 2]);
        let mut c = RrCollection::new(3, 3);
        c.absorb_shard(&shard);
        c.freeze();
        assert_eq!(c.len(), 1);
        assert_eq!(c.set(0), &[1, 2]);
    }

    #[test]
    fn absorbing_empty_shards_is_a_noop() {
        let mut c = RrCollection::new(3, 3);
        c.absorb_shard(&RrShard::new());
        let mut s = RrShard::new();
        s.push(&[1]);
        c.absorb_shard(&s);
        c.absorb_shard(&RrShard::new());
        c.freeze();
        assert_eq!(c.len(), 1);
        assert_eq!(c.set(0), &[1]);
    }

    #[test]
    #[should_panic(expected = "frozen")]
    fn absorb_after_freeze_panics() {
        let mut c = sample_collection();
        c.absorb_shard(&RrShard::new());
    }

    #[test]
    fn scratch_cov_set_matches_allocating_path() {
        let c = sample_collection();
        let mut scratch = CoverageScratch::new();
        for query in [
            &[][..],
            &[0],
            &[0, 1],
            &[0, 1, 3],
            &[4, 4, 4],
            &[0, 1, 2, 3, 4],
        ] {
            assert_eq!(
                c.cov_set_with(query, &mut scratch),
                c.cov_set(query),
                "{query:?}"
            );
        }
        // Back-to-back reuse must not leak marks between queries.
        assert_eq!(c.cov_set_with(&[0, 1, 3], &mut scratch), 4);
        assert_eq!(c.cov_set_with(&[3], &mut scratch), 1);
    }
}
