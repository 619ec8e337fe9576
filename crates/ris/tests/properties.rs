//! Property-based tests for RR-set machinery: coverage laws, bound
//! monotonicity, and estimator consistency.

use atpm_graph::{GraphBuilder, GraphView};
use atpm_ris::bounds::{addatp_theta, coverage_lower_bound, coverage_upper_bound, hatp_theta};
use atpm_ris::sampler::generate_batch;
use atpm_ris::{DoubleGreedyCoverage, NodeSet, RrCollection};
use proptest::prelude::*;

/// `CovR(u | cond)` by brute force over every stored set.
fn marginal_by_scan(c: &RrCollection, u: u32, cond: &NodeSet) -> usize {
    (0..c.len())
        .map(|i| c.set(i))
        .filter(|set| set.contains(&u) && !cond.intersects(set))
        .count()
}

fn arb_collection() -> impl Strategy<Value = (usize, RrCollection)> {
    (3usize..10).prop_flat_map(|n| {
        proptest::collection::vec(proptest::collection::btree_set(0..n as u32, 1..4), 1..40)
            .prop_map(move |sets| {
                let c = RrCollection::from_sets(
                    n,
                    n,
                    sets.iter().map(|s| s.iter().copied().collect::<Vec<u32>>()),
                );
                (n, c)
            })
    })
}

proptest! {
    /// Coverage is monotone and submodular in the seed set.
    #[test]
    fn coverage_is_monotone_submodular((n, c) in arb_collection()) {
        let a: Vec<u32> = vec![0];
        let b: Vec<u32> = (0..n as u32 / 2).collect();
        prop_assert!(c.cov_set(&a) <= c.cov_set(&b.iter().copied().chain([0]).collect::<Vec<_>>()));
        // Submodularity: marginal of u wrt A >= wrt B for A ⊆ B.
        for u in 0..n as u32 {
            let a_with: Vec<u32> = a.iter().copied().chain([u]).collect();
            let mut b_sup = b.clone();
            if !b_sup.contains(&0) { b_sup.push(0); }
            let b_with: Vec<u32> = b_sup.iter().copied().chain([u]).collect();
            let ga = c.cov_set(&a_with) - c.cov_set(&a);
            let gb = c.cov_set(&b_with) - c.cov_set(&b_sup);
            prop_assert!(ga >= gb, "node {}: {} < {}", u, ga, gb);
        }
    }

    /// cov(u | S) == |sets containing u| - |sets containing u hit by S|,
    /// and the double-greedy incremental state agrees with recomputation.
    #[test]
    fn marginals_agree_with_incremental_state((n, c) in arb_collection()) {
        let candidates: Vec<u32> = (0..n as u32).collect();
        let mut dg = DoubleGreedyCoverage::new(&c, &candidates);
        // Walk candidates: select evens, reject odds; check rear/front before
        // each operation against a from-scratch computation.
        let mut q: Vec<u32> = candidates.clone();
        let mut s: Vec<u32> = Vec::new();
        for &u in &candidates {
            let s_set = NodeSet::from_iter(n, s.iter().copied());
            let expected_front = c
                .sets_containing(u)
                .iter()
                .filter(|&&i| !s_set.intersects(c.set(i as usize)))
                .count();
            prop_assert_eq!(dg.front_cov(u), expected_front);

            let rest = NodeSet::from_iter(n, q.iter().copied().filter(|&v| v != u));
            prop_assert_eq!(dg.rear_cov(u), marginal_by_scan(&c, u, &rest));

            if u % 2 == 0 {
                dg.select(u);
                s.push(u);
            } else {
                dg.reject(u);
                q.retain(|&v| v != u);
            }
        }
    }

    /// Sample-size formulas are monotone in their error arguments.
    #[test]
    fn theta_monotonicity(
        z1 in 0.01f64..0.3, z2 in 0.01f64..0.3,
        e1 in 0.05f64..0.9, d in 0.0001f64..0.1,
    ) {
        let (zl, zh) = if z1 < z2 { (z1, z2) } else { (z2, z1) };
        prop_assert!(addatp_theta(zl, d) >= addatp_theta(zh, d));
        prop_assert!(hatp_theta(e1, zl, d) >= hatp_theta(e1, zh, d));
        // Hybrid always needs no more samples than additive for the same zeta
        // whenever eps is moderate (the whole point of §IV-A).
        prop_assert!(hatp_theta(0.5, zl, d) <= addatp_theta(zl, d) * 2);
    }

    /// Coverage bounds bracket the point estimate and are ordered.
    #[test]
    fn coverage_bounds_bracket(cov in 0u64..1000, extra in 1u64..1000, d in 0.001f64..0.2) {
        let theta = cov + extra;
        let lb = coverage_lower_bound(cov, theta, d);
        let ub = coverage_upper_bound(cov, theta, d);
        let point = cov as f64 / theta as f64;
        prop_assert!(lb <= point + 1e-12);
        prop_assert!(ub >= point - 1e-12);
        prop_assert!((0.0..=1.0).contains(&lb));
        prop_assert!((0.0..=1.0).contains(&ub));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `generate_batch` is a pure function of `(view, count, seed, threads)`
    /// after the sharded merge: re-running any configuration reproduces the
    /// collection byte for byte, and single-worker runs are unaffected by
    /// requesting more workers than items.
    #[test]
    fn generate_batch_is_pure_across_thread_counts(
        count in 1usize..400,
        seed in 0u64..1000,
        p in 0.1f32..0.9,
    ) {
        let mut b = GraphBuilder::new(12);
        for i in 0..11u32 {
            b.add_edge(i, i + 1, p).unwrap();
            b.add_edge((i * 5 + 1) % 12, i, p * 0.5).unwrap();
        }
        let g = b.build();
        for threads in [1usize, 2, 4, 8] {
            let a = generate_batch(&&g, count, seed, threads);
            let b2 = generate_batch(&&g, count, seed, threads);
            prop_assert_eq!(a.len(), count);
            prop_assert_eq!(a.len(), b2.len());
            for i in 0..a.len() {
                prop_assert_eq!(a.set(i), b2.set(i), "threads {}, set {}", threads, i);
            }
            prop_assert_eq!(a.total_members(), b2.total_members());
        }
        // Requesting more workers than RR sets must degrade to the same
        // result as exactly `count` workers (quota-0 workers contribute
        // nothing and draw nothing).
        let exact = generate_batch(&&g, count, seed, count);
        let oversub = generate_batch(&&g, count, seed, count + 7);
        prop_assert_eq!(exact.len(), oversub.len());
        for i in 0..exact.len() {
            prop_assert_eq!(exact.set(i), oversub.set(i));
        }
    }

    /// The coverage oracle, on its per-thread marks, agrees with a
    /// from-scratch recomputation on arbitrary collections and query sets,
    /// across reuses.
    #[test]
    fn scratch_coverage_matches_reference((n, c) in arb_collection(), seed in 0u64..500) {
        let nodes: Vec<u32> = (0..n as u32).collect();
        // Back-to-back queries on one thread's marks must not leak marks.
        for shift in 0..3u32 {
            let query: Vec<u32> = nodes.iter().copied().filter(|u| (u + shift + seed as u32).is_multiple_of(2)).collect();
            let mut reference = 0usize;
            let mut hit = vec![false; c.len()];
            for &u in &query {
                for &i in c.sets_containing(u) {
                    if !hit[i as usize] {
                        hit[i as usize] = true;
                        reference += 1;
                    }
                }
            }
            prop_assert_eq!(c.cov_set(&query), reference);
        }
    }
}

#[test]
fn batch_spread_estimates_are_consistent_across_thread_counts() {
    // Not a proptest (costly): spread estimates from different worker counts
    // must agree statistically because they draw from the same distribution.
    let mut b = GraphBuilder::new(30);
    for i in 0..29u32 {
        b.add_edge(i, i + 1, 0.4).unwrap();
    }
    let g = b.build();
    let c1 = generate_batch(&&g, 40_000, 3, 1);
    let c4 = generate_batch(&&g, 40_000, 3, 4);
    assert_eq!(c1.n_alive(), g.num_alive());
    for u in [0u32, 10, 29] {
        let s1 = c1.spread_node(u);
        let s4 = c4.spread_node(u);
        assert!((s1 - s4).abs() < 0.25, "node {u}: {s1} vs {s4}");
    }
}
