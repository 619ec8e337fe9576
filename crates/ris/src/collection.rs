//! Stored RR-set batches with an inverted index and coverage queries.
//!
//! Allocation discipline: a collection is two flat arrays of sets plus a
//! flat inverted index, and it is indexed when it is made — there is no
//! unindexed state. [`generate_batch`](crate::sampler::generate_batch)
//! hands its merged worker storage to the constructor, which builds the
//! index on one thread or by node range in parallel;
//! [`RrCollection::from_sets`] copies loose sets in and indexes on one
//! thread. Set queries mark the sets they touch in the calling thread's
//! [`EpochMarks`] (O(1) bulk clear), so steady-state coverage evaluation
//! performs **zero heap allocation per query** and callers hold no scratch
//! — see `tests/alloc_discipline.rs`.

use std::cell::RefCell;

use atpm_graph::Node;

use crate::workspace::EpochMarks;

thread_local! {
    /// The thread's marks over set ids for [`RrCollection::cov_set`]: they
    /// grow to the largest collection the thread has queried and stay warm
    /// across queries and collections.
    static SET_MARKS: RefCell<EpochMarks> = const { RefCell::new(EpochMarks::new()) };
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
    /// ids of the sets containing `u`, in ascending order.
    idx_offsets: Vec<u64>,
    idx_sets: Vec<u32>,
}

impl RrCollection {
    /// Indexes flat set storage over a view with `n` total and `n_alive`
    /// alive nodes: `offsets` starts with `0` and holds one end per set.
    /// The index is built on up to `threads` workers (clamped to the
    /// machine), by node range once the batch has enough postings to repay
    /// the spawn; either way the index is the same.
    pub(crate) fn from_flat(
        n: usize,
        n_alive: usize,
        members: Vec<Node>,
        offsets: Vec<u64>,
        threads: usize,
    ) -> Self {
        debug_assert_eq!(offsets.first(), Some(&0));
        debug_assert_eq!(offsets.last(), Some(&(members.len() as u64)));
        // Workers do redundant reads, so more workers than cores is strictly
        // counterproductive — clamp to the machine.
        let threads = threads.max(1).min(crate::workspace::available_threads());
        // Below ~64k postings the spawn overhead beats the savings.
        let (idx_offsets, idx_sets) = if threads == 1 || members.len() < (1 << 16) {
            index_sequential(n, &members, &offsets)
        } else {
            index_parallel(n, &members, &offsets, threads)
        };
        RrCollection {
            n,
            n_alive,
            members,
            offsets,
            idx_offsets,
            idx_sets,
        }
    }

    /// A collection of `sets`, copied one by one and indexed on one thread,
    /// over a view with `n` total and `n_alive` alive nodes.
    pub fn from_sets<S: AsRef<[Node]>>(
        n: usize,
        n_alive: usize,
        sets: impl IntoIterator<Item = S>,
    ) -> Self {
        let mut members = Vec::new();
        let mut offsets = vec![0];
        for set in sets {
            members.extend_from_slice(set.as_ref());
            offsets.push(members.len() as u64);
        }
        Self::from_flat(n, n_alive, members, offsets, 1)
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

    /// Members of set `i`.
    pub fn set(&self, i: usize) -> &[Node] {
        let lo = self.offsets[i] as usize;
        let hi = self.offsets[i + 1] as usize;
        &self.members[lo..hi]
    }

    /// Ids of the sets containing `u`, in ascending order.
    pub fn sets_containing(&self, u: Node) -> &[u32] {
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
        self.idx_offsets
            .windows(2)
            .enumerate()
            .filter_map(|(u, w)| {
                let c = (w[1] - w[0]) as usize;
                (c > 0).then_some((u as Node, c))
            })
    }

    /// `CovR(S)`: number of sets intersecting `S`. The touched sets are
    /// marked in the calling thread's marks, so a query allocates nothing
    /// once the thread has queried a collection this large.
    pub fn cov_set(&self, s: &[Node]) -> usize {
        SET_MARKS.with_borrow_mut(|marks| {
            marks.begin(self.len());
            let mut total = 0usize;
            for &u in s {
                for &i in self.sets_containing(u) {
                    if marks.mark(i as usize) {
                        total += 1;
                    }
                }
            }
            total
        })
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

/// The inverted index `(idx_offsets, idx_sets)` of flat set storage over
/// nodes `0..n`, by one counting sort.
fn index_sequential(n: usize, members: &[Node], offsets: &[u64]) -> (Vec<u64>, Vec<u32>) {
    // Cursors are u32, halving the zero-fill and keeping the scatter's
    // working set dense; the stored u64 offsets are widened in one cheap
    // pass. (The parallel build below already indexes postings with u32.)
    assert!(
        members.len() <= u32::MAX as usize,
        "posting count exceeds the u32 index space"
    );
    // Both passes stream the member array sequentially but scatter into the
    // counts array at random; prefetching the cursor a few members ahead
    // hides most of that latency.
    const LOOKAHEAD: usize = 16;
    let mut counts = vec![0u32; n + 1];
    for (i, &u) in members.iter().enumerate() {
        if let Some(&next) = members.get(i + LOOKAHEAD) {
            atpm_graph::view::prefetch_read(&counts[next as usize]);
        }
        counts[u as usize + 1] += 1;
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    // counts[u] is the start of u's posting list; placement advances it to
    // the end (= start of u+1), so shifting right by one afterwards
    // rebuilds the offsets without a cursor clone.
    let mut idx_sets = vec![0u32; members.len()];
    let mut set = 0usize;
    let mut set_end = offsets.get(1).copied().unwrap_or(0);
    for (i, &u) in members.iter().enumerate() {
        if let Some(&next) = members.get(i + LOOKAHEAD) {
            atpm_graph::view::prefetch_read(&counts[next as usize]);
        }
        while i as u64 == set_end {
            set += 1;
            set_end = offsets[set + 1];
        }
        let slot = counts[u as usize] as usize;
        counts[u as usize] += 1;
        idx_sets[slot] = set as u32;
    }
    let mut idx_offsets = Vec::with_capacity(n + 1);
    idx_offsets.push(0u64);
    idx_offsets.extend(counts[..n].iter().map(|&c| c as u64));
    (idx_offsets, idx_sets)
}

/// [`index_sequential`]'s index, with the counting sort split across
/// `threads` workers (no core-count clamp or size fallback, so tests
/// exercise it on any machine).
///
/// The index is partitioned by **node range**, each range sized to hold
/// ~`Σ|R| / threads` postings: every worker scans the full member array but
/// counts and places only the nodes it owns, so the output slices are
/// disjoint (`split_at_mut` — no atomics) and each node's posting list is
/// still filled in ascending set order, exactly like the sequential build.
/// Redundant reads are cheap (sequential scans); scattered writes — the
/// expensive half — are what gets split.
fn index_parallel(
    n: usize,
    members: &[Node],
    set_offsets: &[u64],
    threads: usize,
) -> (Vec<u64>, Vec<u32>) {
    let m = members.len();

    // Node-range boundaries balanced by posting count.
    let mut counts = vec![0u32; n + 1];
    for &u in members {
        counts[u as usize + 1] += 1;
    }
    let mut boundaries = Vec::with_capacity(threads + 1);
    boundaries.push(0usize);
    let per = m.div_ceil(threads);
    let mut acc = 0usize;
    for u in 0..n {
        acc += counts[u + 1] as usize;
        if acc >= per * boundaries.len() && boundaries.len() < threads {
            boundaries.push(u + 1);
        }
    }
    boundaries.push(n);

    // Global offsets from the histogram.
    let mut offsets = vec![0u64; n + 1];
    for u in 0..n {
        offsets[u + 1] = offsets[u] + u64::from(counts[u + 1]);
    }

    // Disjoint output slices per node range; each worker re-scans the sets
    // and places only its own nodes, in ascending set order.
    let mut idx_sets = vec![0u32; m];
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
    (offsets, idx_sets)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_collection() -> RrCollection {
        RrCollection::from_sets(5, 5, [&[0, 1][..], &[1, 2], &[3], &[0, 2, 4]])
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
    fn empty_collection_scales_to_zero() {
        let c = RrCollection::from_sets(3, 3, Vec::<Vec<Node>>::new());
        assert!(c.is_empty());
        assert_eq!(c.cov_node(2), 0);
        assert_eq!(c.spread_set(&[0, 1]), 0.0);
    }

    #[test]
    fn freeze_parallel_matches_sequential_index() {
        // Big enough to clear the sequential-fallback threshold (2^16
        // postings), with a skewed node distribution.
        let n = 700usize;
        let mut sets = Vec::new();
        let mut x = 9u64;
        for i in 0..30_000usize {
            let mut set = Vec::new();
            for _ in 0..3 + (i % 4) {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Square to skew toward low ids (power-law-ish).
                let r = (x >> 33) as usize % (n * n);
                let u = ((r as f64).sqrt() as usize).min(n - 1) as Node;
                if !set.contains(&u) {
                    set.push(u);
                }
            }
            sets.push(set);
        }
        let seq = RrCollection::from_sets(n, n, &sets);
        assert!(
            seq.total_members() >= (1 << 16),
            "need to exercise the parallel path"
        );
        for threads in [2usize, 3, 8] {
            // The unclamped build, so the parallel path is exercised even on
            // single-core CI machines.
            let (idx_offsets, idx_sets) = index_parallel(n, &seq.members, &seq.offsets, threads);
            assert_eq!(idx_offsets, seq.idx_offsets, "threads {threads}");
            assert_eq!(idx_sets, seq.idx_sets, "threads {threads}");
        }
    }

    #[test]
    fn back_to_back_cov_set_on_two_collections_shares_no_marks() {
        // Both queries run on this thread's one set of marks: a query on
        // one collection must not see the sets another query marked, on
        // either collection, whichever is larger.
        let small = sample_collection();
        let large = RrCollection::from_sets(5, 5, (0..9).map(|i| vec![i % 5]));
        for _ in 0..2 {
            assert_eq!(small.cov_set(&[0, 1, 3]), 4);
            assert_eq!(large.cov_set(&[0, 1, 3]), 6);
            assert_eq!(small.cov_set(&[3]), 1);
            assert_eq!(large.cov_set(&[4, 4]), 1);
            assert_eq!(small.cov_set(&[4, 4, 4]), 1);
            assert_eq!(large.cov_set(&[]), 0);
        }
    }
}
