//! Exact policy evaluation and brute-force optima on tiny instances.
//!
//! The paper's analysis (§III-B) reasons about the expected profit of a
//! policy over *all* realizations, `Λ(π) = Σ_φ ρ_φ(S_φ(π))·p(φ)`
//! (Definition 1), and compares against the optimal adaptive policy `π_opt`.
//! On graphs with few edges both quantities are exactly computable:
//!
//! * [`exact_policy_value`] enumerates every world and replays the policy
//!   against each one;
//! * [`optimal_adaptive_value`] brute-forces `Λ(π_opt)` by recursing over
//!   information states (a general policy may examine remaining targets in
//!   any order or stop early);
//! * [`optimal_nonadaptive_value`] maximizes `ρ(S)` over all `S ⊆ T`.
//!
//! These power the machine-check of Theorem 1 (`Λ(ADG) ≥ Λ(π_opt)/3`) and of
//! the adaptivity gap (`Λ(π_opt) ≥ max_S ρ(S)`) in the integration tests.
//!
//! The paper's policy-combinator notation (truncation `π_[i]`, concatenation
//! `π ⊕ π'`, intersection `π ⊗ π'`, Definitions 4–6) acts on *seed sets
//! under a fixed realization*: `S_φ(π ⊕ π') = S_φ(π) ∪ S_φ(π')` and
//! `S_φ(π ⊗ π') = S_φ(π) ∩ S_φ(π')`. [`concat_seed_sets`] /
//! [`intersect_seed_sets`] implement exactly that set algebra so tests can
//! replay the Lemma 2/3 bookkeeping.

use atpm_diffusion::spread::EXACT_SPREAD_MAX_EDGES;
use atpm_diffusion::{exact_spread, CascadeEngine, MaterializedRealization};
use atpm_graph::{threshold_prob, Node, ResidualGraph};

use crate::instance::TpmInstance;
use crate::session::{AdaptiveSession, SessionWorld};
use crate::AdaptivePolicy;

/// Enumerates every realization `(edge mask, probability)` of the instance's
/// graph. Panics if `m >` [`EXACT_SPREAD_MAX_EDGES`].
pub fn enumerate_worlds(instance: &TpmInstance) -> Vec<(u64, f64)> {
    let g = instance.graph();
    let m = g.num_edges();
    assert!(
        m <= EXACT_SPREAD_MAX_EDGES,
        "world enumeration needs m <= {EXACT_SPREAD_MAX_EDGES}, got {m}"
    );
    let probs: Vec<f64> = (0..m as u32)
        .map(|e| threshold_prob(g.edge_threshold(e)))
        .collect();
    let mut worlds = Vec::with_capacity(1 << m);
    for mask in 0u64..(1u64 << m) {
        let mut p = 1.0;
        for (e, &pe) in probs.iter().enumerate() {
            p *= if mask >> e & 1 == 1 { pe } else { 1.0 - pe };
        }
        if p > 0.0 {
            worlds.push((mask, p));
        }
    }
    worlds
}

/// Exactly computes `Λ(π)` (Definition 1) by replaying `policy` against
/// every possible world.
pub fn exact_policy_value<P: AdaptivePolicy>(instance: &TpmInstance, policy: &mut P) -> f64 {
    let m = instance.graph().num_edges();
    enumerate_worlds(instance)
        .into_iter()
        .map(|(mask, p)| {
            let world = SessionWorld::Materialized(MaterializedRealization::from_bits(m, &[mask]));
            let mut session = AdaptiveSession::with_world(instance, world);
            policy.run(&mut session);
            p * session.profit()
        })
        .sum()
}

/// `S_φ(π ⊕ π')` (Definition 5): the union of the two seed sets under the
/// same realization.
pub fn concat_seed_sets(a: &[Node], b: &[Node]) -> Vec<Node> {
    let mut out = a.to_vec();
    for &u in b {
        if !out.contains(&u) {
            out.push(u);
        }
    }
    out
}

/// `S_φ(π ⊗ π')` (Definition 6): the intersection of the two seed sets under
/// the same realization.
pub fn intersect_seed_sets(a: &[Node], b: &[Node]) -> Vec<Node> {
    a.iter().copied().filter(|u| b.contains(u)).collect()
}

/// Profit of a *fixed* seed set under a fixed world, on the full graph.
fn world_profit(instance: &TpmInstance, mask: u64, seeds: &[Node]) -> f64 {
    let m = instance.graph().num_edges();
    let world = MaterializedRealization::from_bits(m, &[mask]);
    let mut engine = CascadeEngine::new();
    let activated = engine.observe(&instance.graph(), &world, seeds);
    activated.len() as f64 - instance.cost_of(seeds)
}

/// Brute-force `Λ(π_opt)` over *all* adaptive policies (any examination
/// order, early stopping allowed).
///
/// The recursion explores information states: a state is the set of worlds
/// consistent with every observation so far (all sharing the same activated
/// set, so the residual graph is common). At each state the policy may stop,
/// or pick any remaining target node; picking partitions the worlds by the
/// observed cascade. Exponential — intended for `|T| ≤ 4`, `m ≤ 12`.
pub fn optimal_adaptive_value(instance: &TpmInstance) -> f64 {
    let worlds = enumerate_worlds(instance);
    let target: Vec<Node> = instance.target().to_vec();
    assert!(target.len() <= 4, "brute force limited to |T| <= 4");
    let m = instance.graph().num_edges();
    let g = instance.graph();
    let mut engine = CascadeEngine::new();

    // Total probability is 1; recursion carries absolute weights.
    fn recurse(
        instance: &TpmInstance,
        engine: &mut CascadeEngine,
        m: usize,
        worlds: &[(u64, f64)],
        dead: &[Node],
        remaining: &[Node],
    ) -> f64 {
        let mut best = 0.0f64; // stopping yields zero additional profit
        for (idx, &u) in remaining.iter().enumerate() {
            if dead.contains(&u) {
                continue;
            }
            // Partition worlds by the observed cascade A(u).
            let mut groups: std::collections::HashMap<Vec<Node>, Vec<(u64, f64)>> =
                std::collections::HashMap::new();
            for &(mask, p) in worlds {
                let world = MaterializedRealization::from_bits(m, &[mask]);
                let mut residual = ResidualGraph::new(instance.graph());
                residual.remove_all(dead.iter().copied());
                let mut cascade = engine.observe(&residual, &world, &[u]);
                cascade.sort_unstable();
                groups.entry(cascade).or_default().push((mask, p));
            }
            let weight: f64 = worlds.iter().map(|&(_, p)| p).sum();
            let mut value = -instance.cost(u) * weight;
            let mut rest = remaining.to_vec();
            rest.remove(idx);
            for (cascade, group) in groups {
                let gw: f64 = group.iter().map(|&(_, p)| p).sum();
                value += cascade.len() as f64 * gw;
                let mut new_dead = dead.to_vec();
                new_dead.extend_from_slice(&cascade);
                value += recurse(instance, engine, m, &group, &new_dead, &rest);
            }
            best = best.max(value);
        }
        best
    }

    let _ = (g, &mut engine); // engine reused through recursion below
    let mut engine = CascadeEngine::new();
    recurse(instance, &mut engine, m, &worlds, &[], &target)
}

/// Brute-force best nonadaptive profit `max_{S ⊆ T} ρ(S)` by exact spreads.
pub fn optimal_nonadaptive_value(instance: &TpmInstance) -> f64 {
    let target = instance.target();
    assert!(target.len() <= 16, "2^k subsets; keep k small");
    let mut best = 0.0f64; // empty set
    for mask in 1u32..(1 << target.len()) {
        let s: Vec<Node> = target
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> i & 1 == 1)
            .map(|(_, &u)| u)
            .collect();
        let spread = exact_spread(&instance.graph(), &s);
        best = best.max(spread - instance.cost_of(&s));
    }
    best
}

/// Sanity helper for tests: `Λ(π)` computed per-world must equal the
/// weighted sum of fixed-set profits of the *same* policy's per-world
/// selections (consistency of Definition 1 with our session accounting).
pub fn exact_policy_value_via_reruns<P: AdaptivePolicy>(
    instance: &TpmInstance,
    policy: &mut P,
) -> f64 {
    let m = instance.graph().num_edges();
    enumerate_worlds(instance)
        .into_iter()
        .map(|(mask, p)| {
            let world = SessionWorld::Materialized(MaterializedRealization::from_bits(m, &[mask]));
            let mut session = AdaptiveSession::with_world(instance, world);
            let seeds = policy.run(&mut session);
            p * world_profit(instance, mask, &seeds)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::ExactOracle;
    use crate::policies::Adg;
    use atpm_graph::GraphBuilder;

    /// 0 -> 1 (p = 0.5); T = {0}, c = 1.2.
    fn coin_instance() -> TpmInstance {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.5).unwrap();
        TpmInstance::new(b.build(), vec![0], &[1.2])
    }

    #[test]
    fn enumerate_worlds_probabilities_sum_to_one() {
        let inst = coin_instance();
        let worlds = enumerate_worlds(&inst);
        let total: f64 = worlds.iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(worlds.len(), 2);
    }

    #[test]
    fn optimal_values_on_the_coin_instance() {
        let inst = coin_instance();
        // Selecting 0: E[I] = 1.5, cost 1.2 -> 0.3. Not selecting: 0.
        let nonadaptive = optimal_nonadaptive_value(&inst);
        assert!((nonadaptive - 0.3).abs() < 1e-12);
        // One target: adaptivity can't help.
        let adaptive = optimal_adaptive_value(&inst);
        assert!((adaptive - 0.3).abs() < 1e-12);
    }

    #[test]
    fn adaptive_opt_strictly_beats_nonadaptive_when_feedback_matters() {
        // 0 -> 1 (p = 0.5); T = {0, 1}, costs 0.4 and 0.9.
        // Nonadaptive best: {0, 1}: E[I] = 2, c = 1.3 -> 0.7
        //   ({0}: 1.5 - 0.4 = 1.1!). So best nonadaptive = 1.1.
        // Adaptive: select 0; if 1 not activated (p=.5) selecting 1 adds
        // 1 - 0.9 = 0.1 > 0. Λ = 1.5 - 0.4 + 0.5·0.1 = 1.15 > 1.1.
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 0.5).unwrap();
        let inst = TpmInstance::new(b.build(), vec![0, 1], &[0.4, 0.9]);
        let non = optimal_nonadaptive_value(&inst);
        let ada = optimal_adaptive_value(&inst);
        assert!((non - 1.1).abs() < 1e-12, "nonadaptive {non}");
        assert!((ada - 1.15).abs() < 1e-12, "adaptive {ada}");
    }

    #[test]
    fn exact_policy_value_agrees_with_rerun_accounting() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(1, 2, 0.7).unwrap();
        let inst = TpmInstance::new(b.build(), vec![0, 2], &[0.8, 0.9]);
        let v1 = exact_policy_value(&inst, &mut Adg::new(ExactOracle));
        let v2 = exact_policy_value_via_reruns(&inst, &mut Adg::new(ExactOracle));
        assert!((v1 - v2).abs() < 1e-9, "{v1} vs {v2}");
    }

    #[test]
    fn theorem_1_holds_on_a_handcrafted_instance() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.6).unwrap();
        b.add_edge(0, 2, 0.4).unwrap();
        b.add_edge(3, 2, 0.5).unwrap();
        let inst = TpmInstance::new(b.build(), vec![0, 3], &[1.1, 0.7]);
        let adg = exact_policy_value(&inst, &mut Adg::new(ExactOracle));
        let opt = optimal_adaptive_value(&inst);
        assert!(
            adg >= opt / 3.0 - 1e-9,
            "ADG {adg} below OPT/3 = {}",
            opt / 3.0
        );
        assert!(adg <= opt + 1e-9, "ADG cannot beat OPT");
    }

    #[test]
    fn seed_set_combinators() {
        assert_eq!(concat_seed_sets(&[1, 2], &[2, 3]), vec![1, 2, 3]);
        assert_eq!(intersect_seed_sets(&[1, 2], &[2, 3]), vec![2]);
        assert!(intersect_seed_sets(&[], &[1]).is_empty());
    }
}
