//! The RR pool that counts target coverage: the front/rear counts of one
//! walk segment of the sampling double greedies (ADDATP, HATP, HNTP), and
//! ThresholdBatch's per-round candidate counts.
//!
//! Each examined candidate `u_i` needs, per sampling round, two counts
//! over fresh RR sets on the residual graph:
//!
//! * front: `Cov(u_i | S_{i−1})` — sets containing `u_i` that avoid
//!   `S_{i−1}`. On a residual graph every selected seed is already dead, so
//!   the adaptive callers pass an empty condition; the nonadaptive HNTP
//!   passes its accumulated `S_{i−1}`.
//! * rear: `Cov(u_i | T_{i−1} ∖ {u_i})` — sets containing `u_i` that avoid
//!   every other remaining candidate.
//!
//! Both conditions are sets of *targets*, so an RR set matters to every
//! count only through the targets it holds. A **walk segment** is the run
//! of candidates examined from one keep to the next: within it the graph
//! is fixed and every candidate's conditions are fixed by the segment's
//! start (each earlier candidate of the segment was rejected). So one
//! [`RrPool`] serves the whole segment:
//!
//! * chunk `j` serves round `j` of every candidate; it grows on demand to
//!   the largest θ a round `j` has asked for, each growth a fresh batch
//!   with its own seed through [`run_sharded`] and the crate's one draw
//!   loop, so a chunk grown from empty with seed `s` holds the sets
//!   [`generate_batch`](crate::generate_batch) draws from `s`;
//! * a chunk keeps only the sets that hold a recorded target, each as its
//!   short list of target slots (indices into the target list). About
//!   5.5% of sets hit one of 10 IMM targets on the Epinions stand-in;
//! * [`RrPool::counts`] counts over the first θ sets of a chunk. Those
//!   are i.i.d. RR sets on the segment's graph whatever θ is, and growing
//!   the chunk never changes them.
//!
//! Both counts of a round are read off the same sets. That is the reading
//! the analysis requires: the proof of Lemma 5 uses `ρ̃_f + ρ̃_r ≥ 0`
//! *pointwise*, which holds exactly when both coverages are counted on the
//! same sets and the front condition is contained in the rear condition
//! (then `cov_front ≥ cov_rear` on every draw). Why sharing a chunk across
//! the candidates of a segment keeps Theorem 4 is argued in `atpm-core`'s
//! `policies::hatp`. The pool is scratch of one decision call: callers
//! drop it when the segment ends.
//!
//! ThresholdBatch opens one pool per round that records its candidates,
//! grows chunk 0 to the round's θ, and reads every candidate's count,
//! conditioned on the batch admitted so far, in one pass over the chunk
//! ([`RrPool::slot_counts`]).
//!
//! A pool's memory follows the rounds' θ: a chunk keeps 8 bytes per kept
//! set plus 4 per slot the set holds, for every set it has drawn, and a
//! segment keeps every chunk it grew. Callers that take θ from untrusted
//! input must cap it; the server caps served HATP's `max_theta`.

use atpm_graph::{GraphView, Node};

use crate::nodeset::NodeSet;
use crate::rr::RrSampler;
use crate::sampler::draw_sets;
use crate::workspace::run_sharded;

/// Coverage counts of one candidate over the first `theta` sets of a
/// chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontRearCounts {
    /// Sets containing the candidate and no slot of the front condition.
    pub cov_front: u64,
    /// Sets containing the candidate and no slot of the rear condition.
    pub cov_rear: u64,
    /// Sets counted: the requested θ, or fewer when the chunk holds fewer
    /// (only on a view with no alive node).
    pub theta: usize,
}

/// The sets of one chunk that hold a recorded target: 8 bytes per kept set
/// plus 4 per slot it holds. Positions and ends are `u32`, so a chunk holds
/// fewer than 2³² sets and slots.
#[derive(Debug, Default)]
struct Chunk {
    /// Sets drawn into the chunk, kept or not.
    drawn: usize,
    /// Position in the chunk of each kept set, ascending.
    at: Vec<u32>,
    /// Kept set `i` holds the slots `slots[ends[i − 1]..ends[i]]`.
    ends: Vec<u32>,
    slots: Vec<u32>,
}

impl Chunk {
    /// Appends a worker's part, rebasing its positions and slot ends. An
    /// empty chunk takes the part as it is.
    fn absorb(&mut self, part: Chunk) {
        if self.drawn == 0 {
            *self = part;
            return;
        }
        let (at0, end0) = (self.drawn, self.slots.len());
        self.drawn += part.drawn;
        let rebase = |base: usize| move |&i: &u32| index32(i as usize + base);
        self.at.extend(part.at.iter().map(rebase(at0)));
        self.ends.extend(part.ends.iter().map(rebase(end0)));
        self.slots.extend_from_slice(&part.slots);
    }

    /// Counts the set just drawn, `set`, and keeps its slots of `index` if
    /// it holds any. `sampler` drew `set`.
    fn keep(&mut self, index: &[(Node, u32)], set: &[Node], sampler: &RrSampler) {
        let held = self.slots.len();
        // Probe whichever is shorter: each target's visit mark, or each
        // member against the sorted target index.
        if index.len() <= set.len() {
            let hit = index.iter().filter(|&&(v, _)| sampler.contains_last(v));
            self.slots.extend(hit.map(|&(_, s)| s));
        } else {
            for &v in set {
                if let Ok(j) = index.binary_search_by_key(&v, |&(t, _)| t) {
                    self.slots.push(index[j].1);
                }
            }
        }
        if self.slots.len() > held {
            self.at.push(index32(self.drawn));
            self.ends.push(index32(self.slots.len()));
        }
        self.drawn += 1;
    }

    /// The slot lists of the kept sets among the first `theta`.
    fn sets(&self, theta: usize) -> impl Iterator<Item = &[u32]> {
        let kept = self.at.partition_point(|&i| (i as usize) < theta);
        (0..kept).map(move |i| {
            let lo = if i == 0 { 0 } else { self.ends[i - 1] as usize };
            &self.slots[lo..self.ends[i] as usize]
        })
    }
}

/// A chunk position or slot end as stored.
fn index32(i: usize) -> u32 {
    u32::try_from(i).expect("a chunk holds fewer than 2^32 sets and slots")
}

/// One walk segment's RR sets, chunk `j` serving round `j` (see the module
/// docs).
#[derive(Debug)]
pub struct RrPool {
    /// The recorded targets as `(node, slot)`, sorted by node.
    index: Vec<(Node, u32)>,
    /// Slots in the target list, recorded or not.
    slots: usize,
    threads: usize,
    chunks: Vec<Chunk>,
}

impl RrPool {
    /// An empty pool that records, in every set it draws, the slots of
    /// `targets` that are members of `record` (a set over slots). Sets
    /// draw on `threads` workers.
    pub fn new(targets: &[Node], record: &NodeSet, threads: usize) -> Self {
        let mut index: Vec<(Node, u32)> = (0..targets.len() as u32)
            .filter(|&s| record.contains(s))
            .map(|s| (targets[s as usize], s))
            .collect();
        index.sort_unstable();
        RrPool {
            index,
            slots: targets.len(),
            threads,
            chunks: Vec::new(),
        }
    }

    /// Chunks grown so far.
    pub fn chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Sets drawn into chunk `round` so far.
    pub fn drawn(&self, round: usize) -> usize {
        self.chunks.get(round).map_or(0, |c| c.drawn)
    }

    /// Grows chunk `round` to `theta` sets, drawing the missing ones on
    /// `view` from `seed`, and returns how many it drew: 0 when the chunk
    /// already holds `theta` or `view` has no alive node. Every call must
    /// pass the segment's one view. Deterministic in `(view, theta, seed,
    /// threads)` and the chunk's size on entry.
    pub fn grow<V: GraphView + Sync>(
        &mut self,
        view: &V,
        round: usize,
        theta: usize,
        seed: u64,
    ) -> usize {
        if self.chunks.len() <= round {
            self.chunks.resize_with(round + 1, Chunk::default);
        }
        let need = theta.saturating_sub(self.chunks[round].drawn);
        if need == 0 || view.num_alive() == 0 {
            return 0;
        }
        let index = &self.index;
        let parts = run_sharded(need, self.threads, seed, |_tid, quota, wseed| {
            let mut part = Chunk::default();
            draw_sets(view, quota, wseed, &mut Vec::new(), |buf, sampler| {
                part.keep(index, buf, sampler);
                buf.clear();
            });
            part
        });
        let chunk = &mut self.chunks[round];
        let before = chunk.drawn;
        for part in parts {
            chunk.absorb(part);
        }
        chunk.drawn - before
    }

    /// Counts over the first `theta` sets of chunk `round` for the target
    /// in `slot`: front counts the sets holding `slot` and no slot of
    /// `front`, rear those holding `slot` and no slot of `rear`. Both
    /// conditions are sets over slots and must not contain `slot`.
    pub fn counts(
        &self,
        round: usize,
        theta: usize,
        slot: u32,
        front: &NodeSet,
        rear: &NodeSet,
    ) -> FrontRearCounts {
        let mut counts = FrontRearCounts {
            cov_front: 0,
            cov_rear: 0,
            theta: theta.min(self.drawn(round)),
        };
        let Some(chunk) = self.chunks.get(round) else {
            return counts;
        };
        for set in chunk.sets(theta).filter(|set| set.contains(&slot)) {
            counts.cov_front += u64::from(avoids(set, front));
            counts.cov_rear += u64::from(avoids(set, rear));
        }
        counts
    }

    /// Every slot's count over the first `theta` sets of chunk `round`, in
    /// one pass: entry `s` counts the sets holding slot `s` and no slot of
    /// `cond` (a set over slots). For a slot outside `cond` this is the
    /// `cov_front` of [`counts`](Self::counts) with `cond` as the front
    /// condition; slots not recorded read 0.
    pub fn slot_counts(&self, round: usize, theta: usize, cond: &NodeSet) -> Vec<u64> {
        let mut counts = vec![0; self.slots];
        if let Some(chunk) = self.chunks.get(round) {
            for set in chunk.sets(theta).filter(|set| avoids(set, cond)) {
                for &s in set {
                    counts[s as usize] += 1;
                }
            }
        }
        counts
    }
}

/// Whether the slot list `set` holds no slot of `cond`.
fn avoids(set: &[u32], cond: &NodeSet) -> bool {
    !set.iter().any(|&s| cond.contains(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::CounterRng;
    use atpm_graph::{GraphBuilder, ResidualGraph};

    /// 0 -> 1 -> 2 chain, p = 0.5; every node a target, slot = node id.
    fn chain() -> atpm_graph::Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        b.build()
    }

    const TARGETS: [Node; 3] = [0, 1, 2];

    fn slots(members: &[u32]) -> NodeSet {
        NodeSet::from_iter(3, members.iter().copied())
    }

    /// One chunk of `theta` sets on `view`, counted for slot `u`.
    fn pool_counts<V: GraphView + Sync>(
        view: &V,
        u: u32,
        front: &NodeSet,
        rear: &NodeSet,
        theta: usize,
        seed: u64,
        threads: usize,
    ) -> FrontRearCounts {
        let mut pool = RrPool::new(&TARGETS, &slots(&[0, 1, 2]), threads);
        pool.grow(view, 0, theta, seed);
        pool.counts(0, theta, u, front, rear)
    }

    fn independent_worker<V: GraphView>(
        view: &V,
        u: Node,
        front_cond: &NodeSet,
        rear_cond: &NodeSet,
        quota: usize,
        seed: u64,
    ) -> FrontRearCounts {
        let mut sampler = RrSampler::new();
        let mut rng = CounterRng::new(seed);
        let mut buf = Vec::new();
        let mut cov_front = 0u64;
        let mut cov_rear = 0u64;
        let mut done = 0usize;
        for _ in 0..quota {
            // R1 sample: u present, front condition set absent.
            if !sampler.sample_into(view, &mut rng, &mut buf) {
                break;
            }
            if sampler.contains_last(u) && !front_cond.intersects(&buf) {
                cov_front += 1;
            }
            // R2 sample: u present, rear condition set absent.
            if !sampler.sample_into(view, &mut rng, &mut buf) {
                break;
            }
            if sampler.contains_last(u) && !rear_cond.intersects(&buf) {
                cov_rear += 1;
            }
            done += 1;
        }
        FrontRearCounts {
            cov_front,
            cov_rear,
            theta: done,
        }
    }

    /// The two-independent-batches reading of the front/rear counts: an `R1`
    /// and an `R2` set per draw. The statistical reference the pool is
    /// checked against.
    fn front_rear_counts<V: GraphView + Sync>(
        view: &V,
        u: Node,
        front_cond: &NodeSet,
        rear_cond: &NodeSet,
        theta: usize,
        seed: u64,
        threads: usize,
    ) -> FrontRearCounts {
        let parts = run_sharded(theta, threads, seed, |_tid, quota, wseed| {
            independent_worker(view, u, front_cond, rear_cond, quota, wseed)
        });
        let mut total = FrontRearCounts {
            cov_front: 0,
            cov_rear: 0,
            theta: 0,
        };
        for p in parts {
            total.cov_front += p.cov_front;
            total.cov_rear += p.cov_rear;
            total.theta += p.theta;
        }
        total
    }

    #[test]
    fn front_estimates_singleton_spread() {
        let g = chain();
        let empty = slots(&[]);
        let theta = 120_000;
        let c = pool_counts(&&g, 0, &empty, &empty, theta, 1, 2);
        assert_eq!(c.theta, theta);
        let est = 3.0 * c.cov_front as f64 / c.theta as f64;
        assert!((est - 1.75).abs() < 0.03, "front spread {est}, want 1.75");
    }

    #[test]
    fn rear_excludes_sets_hit_by_condition() {
        let g = chain();
        // rear condition {2}: a set counts if it contains 0 and avoids 2.
        // Root 0 (never reaches 2 in reverse): contributes Pr = 1/3.
        // Root 1: contains 0 with p(0->1) = 0.5, never contains 2: 1/6.
        // Root 2: always contains 2: 0.  Total = 0.5.
        let theta = 120_000;
        let c = pool_counts(&&g, 0, &slots(&[]), &slots(&[2]), theta, 3, 2);
        let frac = c.cov_rear as f64 / c.theta as f64;
        assert!((frac - 0.5).abs() < 0.01, "rear fraction {frac}, want 0.5");
        assert!(c.cov_front > c.cov_rear);
    }

    #[test]
    fn front_condition_matches_marginal_semantics() {
        // Conditioning the front on {1} must equal the rear conditioned on
        // {1}: same formula, same sets -> equal counts.
        let g = chain();
        let cond = slots(&[1]);
        let theta = 120_000;
        let c = pool_counts(&&g, 0, &cond, &cond, theta, 7, 2);
        assert_eq!(c.cov_front, c.cov_rear);
        // And strictly below the unconditional coverage.
        let empty = slots(&[]);
        let unc = pool_counts(&&g, 0, &empty, &empty, theta, 7, 2);
        assert!(unc.cov_front > c.cov_front);
    }

    /// Golden values: the pool draws its worlds through the shared
    /// `workspace::worker_seed` and the engine's `CounterRng`; these exact
    /// counts pin that stream, so a silent reseeding fails loudly instead
    /// of quietly redrawing every stored experiment trajectory. The
    /// independent reference is pinned alongside.
    #[test]
    fn stream_values_are_pinned() {
        let g = chain();
        let empty = slots(&[]);
        let rear = slots(&[2]);
        let pinned = |cov_front, cov_rear| FrontRearCounts {
            cov_front,
            cov_rear,
            theta: 1000,
        };
        let indep1 = front_rear_counts(&&g, 0, &NodeSet::new(3), &rear, 1000, 42, 1);
        assert_eq!(indep1, pinned(614, 515));
        assert_eq!(
            pool_counts(&&g, 0, &empty, &rear, 1000, 42, 1),
            pinned(594, 494)
        );
        let indep2 = front_rear_counts(&&g, 0, &NodeSet::new(3), &rear, 1000, 42, 2);
        assert_eq!(indep2, pinned(577, 462));
        assert_eq!(
            pool_counts(&&g, 0, &empty, &rear, 1000, 42, 2),
            pinned(584, 487)
        );
    }

    #[test]
    fn dead_view_short_circuits() {
        let g = chain();
        let mut r = ResidualGraph::new(&g);
        r.remove_all(0..3);
        let mut pool = RrPool::new(&TARGETS, &slots(&[0, 1, 2]), 2);
        assert_eq!(pool.grow(&r, 0, 100, 1), 0, "nothing to draw");
        let empty = slots(&[]);
        let c = pool.counts(0, 100, 0, &empty, &empty);
        assert_eq!(c.theta, 0);
        assert_eq!(c.cov_front, 0);
    }

    #[test]
    fn work_accounting_is_positive() {
        // `grow` reports the sets it drew, kept or not, and draws nothing
        // for a chunk that already holds enough.
        let g = chain();
        let mut pool = RrPool::new(&TARGETS, &slots(&[0]), 1);
        assert_eq!(pool.grow(&&g, 0, 100, 1), 100);
        assert_eq!(pool.grow(&&g, 0, 60, 2), 0);
        assert_eq!(pool.grow(&&g, 0, 150, 3), 50);
        assert_eq!(pool.grow(&&g, 2, 10, 4), 10, "chunks grow independently");
        assert_eq!((pool.drawn(0), pool.drawn(1), pool.drawn(2)), (150, 0, 10));
        assert_eq!(pool.chunks(), 3);
    }

    #[test]
    fn shared_batch_front_dominates_rear_pointwise() {
        // With front condition ⊆ rear condition, counting both on the same
        // sets guarantees cov_front >= cov_rear on every draw (the Lemma 5
        // requirement).
        let g = chain();
        let empty = slots(&[]);
        let rear = slots(&[1, 2]);
        for seed in 0..50u64 {
            let c = pool_counts(&&g, 0, &empty, &rear, 64, seed, 2);
            assert!(c.cov_front >= c.cov_rear, "seed {seed}: {c:?}");
        }
    }

    #[test]
    fn shared_batch_matches_independent_statistically() {
        let g = chain();
        let rear = slots(&[2]);
        let theta = 120_000;
        let pooled = pool_counts(&&g, 0, &slots(&[]), &rear, theta, 9, 2);
        let indep = front_rear_counts(&&g, 0, &NodeSet::new(3), &rear, theta, 9, 2);
        let f1 = pooled.cov_front as f64 / pooled.theta as f64;
        let f2 = indep.cov_front as f64 / indep.theta as f64;
        let r1 = pooled.cov_rear as f64 / pooled.theta as f64;
        let r2 = indep.cov_rear as f64 / indep.theta as f64;
        assert!((f1 - f2).abs() < 0.01, "front {f1} vs {f2}");
        assert!((r1 - r2).abs() < 0.01, "rear {r1} vs {r2}");
    }

    #[test]
    fn shared_batch_is_deterministic() {
        // A pure function of (view, seed, threads).
        let g = chain();
        let empty = slots(&[]);
        let rear = slots(&[1]);
        let a = pool_counts(&&g, 0, &empty, &rear, 3000, 5, 3);
        let b = pool_counts(&&g, 0, &empty, &rear, 3000, 5, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn growing_a_chunk_keeps_the_counts_of_its_prefix() {
        let g = chain();
        let empty = slots(&[]);
        let rear = slots(&[2]);
        let mut pool = RrPool::new(&TARGETS, &slots(&[0, 1, 2]), 2);
        pool.grow(&&g, 0, 5_000, 11);
        let before: Vec<_> = (0..3)
            .map(|u| pool.counts(0, 5_000, u, &empty, &rear))
            .collect();
        pool.grow(&&g, 0, 20_000, 12);
        for u in 0..3 {
            assert_eq!(pool.counts(0, 5_000, u, &empty, &rear), before[u as usize]);
        }
        let grown = pool.counts(0, 20_000, 0, &empty, &rear);
        assert_eq!(grown.theta, 20_000);
        assert!(grown.cov_front > before[0].cov_front);
    }

    #[test]
    fn only_sets_holding_a_recorded_target_are_kept() {
        // Recording slot 2 only: every kept set holds node 2, and the
        // counts of slot 2 match a pool that records every slot.
        let g = chain();
        let empty = slots(&[]);
        let mut narrow = RrPool::new(&TARGETS, &slots(&[2]), 1);
        narrow.grow(&&g, 0, 4_000, 5);
        let chunk = &narrow.chunks[0];
        assert!(chunk.sets(4_000).all(|set| set == [2]));
        assert!(chunk.at.len() < chunk.drawn);
        assert_eq!(
            narrow.counts(0, 4_000, 2, &empty, &empty),
            pool_counts(&&g, 2, &empty, &empty, 4_000, 5, 1)
        );
    }

    #[test]
    fn one_pass_slot_counts_match_per_slot_front_counts() {
        // Twelve targets on the NetHEPT stand-in, every one recorded; for
        // random slot conditions and prefixes, each slot's one-pass count
        // equals its `cov_front` with the condition as the front, and a
        // slot inside the condition counts 0.
        let g = atpm_graph::gen::Dataset::NetHept.generate(0.02, 4);
        let targets: Vec<Node> = (0..12).map(|i| i * 7).collect();
        let all = NodeSet::from_iter(12, 0..12);
        let mut pool = RrPool::new(&targets, &all, 2);
        pool.grow(&&g, 0, 6_000, 3);
        let mut x = 0x9E3779B97F4A7C15u64;
        for trial in 0..20 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let cond = NodeSet::from_iter(12, (0..12).filter(|s| (x >> (20 + s)) & 3 == 0));
            let theta = [6_000, 2_500, 1][trial % 3];
            let counts = pool.slot_counts(0, theta, &cond);
            assert_eq!(counts.len(), 12);
            for s in 0..12u32 {
                let want = if cond.contains(s) {
                    0
                } else {
                    pool.counts(0, theta, s, &cond, &cond).cov_front
                };
                assert_eq!(counts[s as usize], want, "trial {trial}, slot {s}");
            }
        }
        assert!(
            pool.slot_counts(0, 6_000, &NodeSet::new(12))
                .iter()
                .sum::<u64>()
                > 0
        );
        assert_eq!(pool.slot_counts(1, 6_000, &all), vec![0; 12], "no chunk 1");
    }
}
