//! Incremental coverage state for the nonadaptive double greedy (NDG).
//!
//! NDG examines each target node once, needing two marginals per node
//! (paper §III-A, Algorithm 1):
//!
//! * **front** `CovR(u | S)` — sets containing `u` not yet covered by the
//!   kept set `S`;
//! * **rear** `CovR(u | Q ∖ {u})` — sets containing `u` that no *other*
//!   member of the candidate set `Q` hits.
//!
//! Maintaining a per-set "covered by S" flag and a per-set count of `Q`
//! members makes both queries and both updates O(#sets containing `u`).

use atpm_graph::Node;

use crate::collection::RrCollection;
use crate::nodeset::NodeSet;

/// Incremental front/rear coverage over an [`RrCollection`].
pub struct DoubleGreedyCoverage<'a> {
    c: &'a RrCollection,
    covered_by_s: Vec<bool>,
    q_count: Vec<u32>,
    in_q: NodeSet,
}

impl<'a> DoubleGreedyCoverage<'a> {
    /// Initializes with `S = ∅` and `Q = candidates`.
    pub fn new(c: &'a RrCollection, candidates: &[Node]) -> Self {
        let mut q_count = vec![0u32; c.len()];
        let mut in_q = NodeSet::new(
            candidates
                .iter()
                .map(|&u| u as usize + 1)
                .max()
                .unwrap_or(0),
        );
        for &u in candidates {
            if in_q.insert(u) {
                for &i in c.sets_containing(u) {
                    q_count[i as usize] += 1;
                }
            }
        }
        DoubleGreedyCoverage {
            c,
            covered_by_s: vec![false; c.len()],
            q_count,
            in_q,
        }
    }

    /// `CovR(u | S)`.
    pub fn front_cov(&self, u: Node) -> usize {
        self.c
            .sets_containing(u)
            .iter()
            .filter(|&&i| !self.covered_by_s[i as usize])
            .count()
    }

    /// `CovR(u | Q ∖ {u})`. Requires `u ∈ Q`.
    pub fn rear_cov(&self, u: Node) -> usize {
        debug_assert!(self.in_q.contains(u), "rear_cov caller must keep u in Q");
        self.c
            .sets_containing(u)
            .iter()
            .filter(|&&i| self.q_count[i as usize] == 1)
            .count()
    }

    /// Commits `u` to `S` (it also stays in `Q`, mirroring Algorithm 1 where
    /// `T` keeps selected nodes).
    pub fn select(&mut self, u: Node) {
        for &i in self.c.sets_containing(u) {
            self.covered_by_s[i as usize] = true;
        }
    }

    /// Removes `u` from `Q`.
    pub fn reject(&mut self, u: Node) {
        if self.in_q.remove(u) {
            for &i in self.c.sets_containing(u) {
                debug_assert!(self.q_count[i as usize] > 0);
                self.q_count[i as usize] -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Four sets over five nodes; candidates {0, 1, 2}.
    fn setup() -> RrCollection {
        RrCollection::from_sets(5, 5, [&[0, 1][..], &[1, 2], &[2], &[0, 3]])
    }

    #[test]
    fn initial_front_equals_plain_coverage() {
        let c = setup();
        let dg = DoubleGreedyCoverage::new(&c, &[0, 1, 2]);
        assert_eq!(dg.front_cov(0), 2);
        assert_eq!(dg.front_cov(1), 2);
        assert_eq!(dg.front_cov(2), 2);
    }

    #[test]
    fn initial_rear_counts_exclusive_sets() {
        let c = setup();
        let dg = DoubleGreedyCoverage::new(&c, &[0, 1, 2]);
        // Node 0: sets {0,1} (1 ∈ Q too -> count 2), {0,3} (only 0 -> count 1).
        assert_eq!(dg.rear_cov(0), 1);
        // Node 1: both its sets contain another Q member.
        assert_eq!(dg.rear_cov(1), 0);
        // Node 2: set {1,2} shared, set {2} exclusive.
        assert_eq!(dg.rear_cov(2), 1);
    }

    #[test]
    fn select_updates_front() {
        let c = setup();
        let mut dg = DoubleGreedyCoverage::new(&c, &[0, 1, 2]);
        dg.select(0); // covers sets 0 and 3
        assert_eq!(dg.front_cov(1), 1); // only set 1 remains uncovered
        assert_eq!(dg.front_cov(2), 2);
    }

    #[test]
    fn reject_updates_rear() {
        let c = setup();
        let mut dg = DoubleGreedyCoverage::new(&c, &[0, 1, 2]);
        dg.reject(1);
        // With 1 gone, node 0's set {0,1} becomes exclusive to 0.
        assert_eq!(dg.rear_cov(0), 2);
        // Node 2's set {1,2} becomes exclusive to 2.
        assert_eq!(dg.rear_cov(2), 2);
    }

    #[test]
    fn rear_matches_collection_marginal() {
        // rear_cov(u) counts the sets containing u that no other candidate
        // hits: CovR(u | Q \ {u}), here counted over every stored set.
        let c = setup();
        let dg = DoubleGreedyCoverage::new(&c, &[0, 1, 2]);
        for u in [0u32, 1, 2] {
            let others: Vec<Node> = [0u32, 1, 2].into_iter().filter(|&v| v != u).collect();
            let s = NodeSet::from_iter(5, others);
            let marginal = (0..c.len())
                .map(|i| c.set(i))
                .filter(|set| set.contains(&u) && !s.intersects(set))
                .count();
            assert_eq!(dg.rear_cov(u), marginal, "node {u}");
        }
    }

    #[test]
    fn duplicate_candidates_are_counted_once() {
        let c = setup();
        let dg1 = DoubleGreedyCoverage::new(&c, &[0, 1, 2]);
        let dg2 = DoubleGreedyCoverage::new(&c, &[0, 1, 2, 2, 1]);
        for u in [0u32, 1, 2] {
            assert_eq!(dg1.rear_cov(u), dg2.rear_cov(u));
        }
    }
}
