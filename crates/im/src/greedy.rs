//! Lazy (CELF) greedy maximum coverage over an RR-set collection —
//! decremental bucket-queue edition.
//!
//! Coverage is monotone submodular, so marginal gains only shrink as the
//! seed set grows; CELF exploits this by keeping stale gains in a priority
//! structure and re-evaluating only the top entry [Leskovec et al.,
//! KDD'07]. The pre-refactor implementation used a binary heap over *every*
//! node of the universe — on a 100k-node graph the O(n) tuple collect +
//! heapify dominated the entire selection (the k picks themselves touch only
//! a few hundred entries).
//!
//! This implementation replaces the heap with a **decremental bucket
//! queue**: gains are small integers, so node ids are binned by gain with a
//! comparison-free O(n) build (zero-gain nodes never enter), a cursor walks
//! buckets top-down, and a stale entry is *demoted* to its fresh bucket in
//! O(1) (gains only decrease, so the cursor never has to look up again).
//! Each node exists in exactly one bucket; only the buckets the cursor
//! actually reaches are ever sorted (for deterministic smallest-id
//! tie-breaking), and with power-law coverage those top buckets hold a
//! handful of entries — the huge low-gain tail is never touched.
//!
//! A full gain-cache variant (decrement every member of every newly covered
//! set through the inverted index, making stale checks O(1)) was measured
//! and rejected: its Σ|R|-bounded cache maintenance costs more than the few
//! rescans it saves on RIS workloads, where the average node sits in only
//! `Σ|R|/n` sets (see `BENCH_ris.json`; `ris_engine/greedy/*`).
//!
//! All working state lives in a reusable [`GreedyScratch`]; with a
//! caller-provided scratch and result the selection loop performs zero heap
//! allocation after warm-up (see `tests/alloc_discipline.rs`).
//!
//! The pre-refactor re-scanning binary-heap implementation is kept as
//! [`max_coverage_greedy_rescan`] — a test-only oracle proving the bucket
//! path returns byte-identical results (see `tests/properties.rs`) and the
//! baseline leg of the `ris_engine` micro-benchmarks.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use atpm_graph::Node;
use atpm_ris::workspace::EpochMarks;
use atpm_ris::RrCollection;

/// Result of a greedy max-coverage run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GreedyResult {
    /// Selected nodes in pick order.
    pub seeds: Vec<Node>,
    /// Number of RR sets covered by `seeds`.
    pub coverage: usize,
    /// Marginal coverage of each pick (same order as `seeds`).
    pub gains: Vec<usize>,
}

impl GreedyResult {
    /// Spread estimate of the selection: `n_alive · coverage / θ`.
    pub fn spread(&self, c: &RrCollection) -> f64 {
        c.scale(self.coverage)
    }

    fn clear(&mut self) {
        self.seeds.clear();
        self.gains.clear();
        self.coverage = 0;
    }
}

/// Reusable working state for [`max_coverage_greedy_with`]: covered flags
/// per set, candidate-dedup marks, and the gain buckets' backing storage.
/// Allocation settles after the first run at a given `(universe, θ, max
/// gain)` size.
#[derive(Debug, Default)]
pub struct GreedyScratch {
    covered: EpochMarks,
    active: EpochMarks,
    /// `buckets[g]` holds the ids whose last-known gain is `g`. Vectors keep
    /// their capacity across runs; `buckets_used` caps the reset loop.
    buckets: Vec<Vec<Node>>,
    buckets_used: usize,
}

impl GreedyScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        GreedyScratch::default()
    }

    fn reset_buckets(&mut self) {
        for b in &mut self.buckets[..self.buckets_used] {
            b.clear();
        }
        self.buckets_used = 0;
    }

    #[inline]
    fn bucket_push(&mut self, gain: usize, u: Node) {
        if self.buckets.len() <= gain {
            self.buckets.resize_with(gain + 1, Vec::new);
        }
        self.buckets[gain].push(u);
        self.buckets_used = self.buckets_used.max(gain + 1);
    }
}

/// Selects up to `k` nodes greedily maximizing RR-set coverage.
///
/// `candidates` restricts the selection universe (defaults to every node).
/// Nodes with zero marginal gain are never selected, so fewer than `k` seeds
/// can be returned when the collection is exhausted.
///
/// Convenience wrapper allocating fresh scratch and result; hot loops (IMM's
/// phase-1 rounds, repeated policy decisions) should hold a
/// [`GreedyScratch`] and call [`max_coverage_greedy_with`].
pub fn max_coverage_greedy(
    c: &RrCollection,
    k: usize,
    candidates: Option<&[Node]>,
) -> GreedyResult {
    let mut result = GreedyResult::default();
    max_coverage_greedy_with(c, k, candidates, &mut GreedyScratch::new(), &mut result);
    result
}

/// Decremental bucket-queue CELF into caller-provided buffers (`result` is
/// cleared first). Zero heap allocation once `scratch` and `result`
/// capacities have warmed up.
///
/// Output-identical to [`max_coverage_greedy_rescan`]: the commit at bucket
/// level `g` is always the smallest-id node whose fresh gain equals `g`,
/// which is exactly the binary heap's `(gain, Reverse(node))` maximum.
pub fn max_coverage_greedy_with(
    c: &RrCollection,
    k: usize,
    candidates: Option<&[Node]>,
    scratch: &mut GreedyScratch,
    result: &mut GreedyResult,
) {
    result.clear();
    if k == 0 || c.is_empty() {
        return;
    }
    scratch.covered.begin(c.len());
    scratch.reset_buckets();

    // Comparison-free build: bin every candidate by its initial gain (plain
    // coverage count). Zero-gain nodes can never be selected and never
    // enter; `active` dedups repeated candidates.
    let mut max_gain = 0usize;
    match candidates {
        Some(cs) => {
            scratch.active.begin(c.len_universe());
            for &u in cs {
                if scratch.active.mark(u as usize) {
                    let g = c.cov_node(u);
                    if g > 0 {
                        scratch.bucket_push(g, u);
                        max_gain = max_gain.max(g);
                    }
                }
            }
        }
        None => {
            for (u, g) in c.nonzero_cov_nodes() {
                scratch.bucket_push(g, u);
                max_gain = max_gain.max(g);
            }
        }
    }

    // Cursor walk, top bucket first. Gains only shrink, so a popped entry's
    // fresh gain is ≤ the cursor level: fresh hits commit, stale entries are
    // demoted to their fresh bucket in O(1) and the cursor never revisits
    // them at this level. Only buckets the cursor actually reaches are
    // sorted (deterministic smallest-id tie-breaking); with power-law
    // coverage the low-gain tail stays untouched.
    let mut cur = max_gain;
    'outer: while cur > 0 && result.seeds.len() < k {
        // Detach the bucket so demotions (always to lower levels) can push
        // freely; swapping back preserves its capacity for the next run.
        let mut bucket = std::mem::take(&mut scratch.buckets[cur]);
        bucket.sort_unstable();
        for &u in bucket.iter() {
            let fresh = c
                .sets_containing(u)
                .iter()
                .filter(|&&i| !scratch.covered.is_marked(i as usize))
                .count();
            if fresh == cur {
                // Fresh maximum: commit.
                for &i in c.sets_containing(u) {
                    scratch.covered.mark(i as usize);
                }
                result.coverage += fresh;
                result.seeds.push(u);
                result.gains.push(fresh);
                if result.seeds.len() == k {
                    // Undrained entries are cleared by the next run's reset.
                    scratch.buckets[cur] = bucket;
                    break 'outer;
                }
            } else if fresh > 0 {
                debug_assert!(fresh < cur, "gains only shrink");
                scratch.bucket_push(fresh, u);
            }
        }
        bucket.clear();
        scratch.buckets[cur] = bucket;
        cur -= 1;
    }
}

/// The pre-refactor lazy greedy: stale heap entries trigger an
/// O(|sets containing u|) coverage rescan.
///
/// Kept as the equivalence oracle for the decremental path (and as the
/// baseline leg of the `ris_engine` micro-benchmarks) — not for production
/// use.
#[doc(hidden)]
pub fn max_coverage_greedy_rescan(
    c: &RrCollection,
    k: usize,
    candidates: Option<&[Node]>,
) -> GreedyResult {
    let mut covered = vec![false; c.len()];
    let mut result = GreedyResult::default();
    if k == 0 || c.is_empty() {
        return result;
    }

    let mut heap: BinaryHeap<(usize, Reverse<Node>, usize)> = match candidates {
        Some(cs) => {
            let mut uniq: Vec<Node> = cs.to_vec();
            uniq.sort_unstable();
            uniq.dedup();
            uniq.into_iter()
                .map(|u| (c.cov_node(u), Reverse(u), 0))
                .collect()
        }
        None => (0..c.len_universe() as Node)
            .map(|u| (c.cov_node(u), Reverse(u), 0))
            .collect(),
    };

    let mut round = 0usize;
    while result.seeds.len() < k {
        let Some((gain, Reverse(u), evaluated_at)) = heap.pop() else {
            break;
        };
        if gain == 0 {
            break;
        }
        if evaluated_at == round {
            for &i in c.sets_containing(u) {
                covered[i as usize] = true;
            }
            result.coverage += gain;
            result.seeds.push(u);
            result.gains.push(gain);
            round += 1;
        } else {
            let fresh = c
                .sets_containing(u)
                .iter()
                .filter(|&&i| !covered[i as usize])
                .count();
            heap.push((fresh, Reverse(u), round));
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collection() -> RrCollection {
        RrCollection::from_sets(6, 6, [&[0, 1][..], &[0, 2], &[0, 3], &[4], &[4, 5], &[5]])
    }

    #[test]
    fn picks_best_cover_first() {
        let c = collection();
        let r = max_coverage_greedy(&c, 1, None);
        assert_eq!(r.seeds, vec![0]); // covers 3 sets
        assert_eq!(r.coverage, 3);
        assert_eq!(r.gains, vec![3]);
    }

    #[test]
    fn greedy_sequence_is_correct() {
        let c = collection();
        let r = max_coverage_greedy(&c, 3, None);
        // 0 covers {0,1,2}; 4 covers {3,4}; then 5 covers {5}.
        assert_eq!(r.seeds, vec![0, 4, 5]);
        assert_eq!(r.coverage, 6);
        assert_eq!(r.gains, vec![3, 2, 1]);
    }

    #[test]
    fn stops_at_zero_gain() {
        let c = collection();
        let r = max_coverage_greedy(&c, 6, None);
        assert_eq!(r.coverage, 6);
        assert!(r.seeds.len() <= 4, "no zero-gain picks: {:?}", r.seeds);
    }

    #[test]
    fn candidate_restriction_is_respected() {
        let c = collection();
        let r = max_coverage_greedy(&c, 2, Some(&[1, 2, 5]));
        assert!(r.seeds.iter().all(|u| [1, 2, 5].contains(u)));
        // Best restricted: any of 1/2 covers 1 set, 5 covers 2 sets.
        assert_eq!(r.seeds[0], 5);
    }

    #[test]
    fn duplicate_candidates_do_not_double_pick() {
        let c = collection();
        let r = max_coverage_greedy(&c, 3, Some(&[0, 0, 0]));
        assert_eq!(r.seeds, vec![0]);
    }

    #[test]
    fn scratch_reuse_across_runs_is_clean() {
        let c = collection();
        let mut scratch = GreedyScratch::new();
        let mut result = GreedyResult::default();
        max_coverage_greedy_with(&c, 3, None, &mut scratch, &mut result);
        let first = result.clone();
        // A different collection with the same scratch: no state leak.
        let c2 = RrCollection::from_sets(4, 4, [&[1][..], &[1, 2]]);
        max_coverage_greedy_with(&c2, 2, None, &mut scratch, &mut result);
        assert_eq!(result.seeds, vec![1]);
        assert_eq!(result.coverage, 2);
        // And back: identical to the first run.
        max_coverage_greedy_with(&c, 3, None, &mut scratch, &mut result);
        assert_eq!(result, first);
    }

    #[test]
    fn decremental_matches_rescan_oracle_on_random_inputs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        let mut scratch = GreedyScratch::new();
        let mut result = GreedyResult::default();
        for trial in 0..40 {
            let n = 12usize;
            let sets = (0..40).map(|_| {
                let size = rng.gen_range(1..5);
                let mut s: Vec<Node> = (0..size).map(|_| rng.gen_range(0..n as Node)).collect();
                s.sort_unstable();
                s.dedup();
                s
            });
            let c = RrCollection::from_sets(n, n, sets);

            for k in [1usize, 2, 4, 8] {
                let oracle = max_coverage_greedy_rescan(&c, k, None);
                max_coverage_greedy_with(&c, k, None, &mut scratch, &mut result);
                assert_eq!(result.seeds, oracle.seeds, "trial {trial} k {k}");
                assert_eq!(result.gains, oracle.gains, "trial {trial} k {k}");
                assert_eq!(result.coverage, oracle.coverage, "trial {trial} k {k}");
            }
        }
    }

    #[test]
    fn matches_naive_greedy_on_random_inputs() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..20 {
            let n = 12usize;
            let sets = (0..40).map(|_| {
                let size = rng.gen_range(1..5);
                let mut s: Vec<Node> = (0..size).map(|_| rng.gen_range(0..n as Node)).collect();
                s.sort_unstable();
                s.dedup();
                s
            });
            let c = RrCollection::from_sets(n, n, sets);

            let lazy = max_coverage_greedy(&c, 4, None);

            // Naive reference.
            let mut covered = vec![false; c.len()];
            let mut naive_cov = 0usize;
            for _pick in 0..4 {
                let mut best = (0usize, Node::MAX);
                for u in 0..n as Node {
                    let g = c
                        .sets_containing(u)
                        .iter()
                        .filter(|&&i| !covered[i as usize])
                        .count();
                    if g > best.0 || (g == best.0 && u < best.1) {
                        best = (g, u);
                    }
                }
                if best.0 == 0 {
                    break;
                }
                for &i in c.sets_containing(best.1) {
                    covered[i as usize] = true;
                }
                naive_cov += best.0;
            }
            assert_eq!(lazy.coverage, naive_cov, "trial {trial}");
        }
    }

    #[test]
    fn empty_inputs() {
        let c = RrCollection::from_sets(3, 3, Vec::<Vec<Node>>::new());
        let r = max_coverage_greedy(&c, 2, None);
        assert!(r.seeds.is_empty());
        let c2 = collection();
        let r2 = max_coverage_greedy(&c2, 0, None);
        assert!(r2.seeds.is_empty());
    }
}
