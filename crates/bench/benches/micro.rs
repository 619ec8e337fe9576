//! Criterion micro-benchmarks for the performance-critical components:
//! RR-set generation (serial and parallel), coverage queries, realization
//! hashing, forward cascades, and one end-to-end policy decision per
//! algorithm family.
//!
//! The `ris_engine` group is the performance contract of the RIS refactor:
//! each stage of the sampling → coverage → greedy pipeline is benchmarked
//! against its pre-refactor implementation (re-push merge, allocating
//! coverage, re-scanning CELF) on a 100k-node preset graph. Run with
//!
//! ```text
//! ATPM_BENCH_JSON=$PWD/BENCH_ris.json cargo bench -p atpm-bench --bench micro -- ris_engine
//! ```
//!
//! (from the repo root) to refresh the committed `BENCH_ris.json`
//! trajectory — the path must be absolute because cargo runs bench
//! binaries with the package directory as CWD.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use atpm_core::oracle::McOracle;
use atpm_core::policies::{Adg, Hatp, Ndg, Nsg};
use atpm_core::runner::{evaluate_adaptive, evaluate_nonadaptive};
use atpm_core::setup::{calibrated_instance, CalibrationConfig};
use atpm_core::CostSplit;
use atpm_diffusion::{
    mc_spread_batched, CascadeEngine, HashedRealization, MaterializedRealization, Realization,
};
use atpm_graph::gen::Dataset;
use atpm_graph::{quantize_prob, GraphView};
use atpm_im::greedy::max_coverage_greedy_rescan;
use atpm_im::{max_coverage_greedy_with, GreedyResult, GreedyScratch};
use atpm_ris::sampler::generate_batch;
use atpm_ris::workspace::run_sharded;
use atpm_ris::{CounterRng, RrCollection, RrSampler};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// The pre-refactor `generate_batch`: per-coin `f32` sampling from a serial
/// `StdRng`, worker parts stored flat, merged by copying every set one by
/// one ([`RrCollection::from_sets`]) and indexed on one thread. Baseline
/// leg of `ris_engine/generate_batch`.
fn generate_batch_repush<V: GraphView + Sync>(
    view: &V,
    count: usize,
    seed: u64,
    threads: usize,
) -> RrCollection {
    let parts = run_sharded(count, threads, seed, |_tid, quota, wseed| {
        let mut members = Vec::new();
        let mut offsets = vec![0];
        let mut sampler = RrSampler::new();
        let mut rng = StdRng::seed_from_u64(wseed);
        let mut buf = Vec::new();
        for _ in 0..quota {
            if !sampler.sample_into_percoin(view, &mut rng, &mut buf) {
                break;
            }
            members.extend_from_slice(&buf);
            offsets.push(members.len());
        }
        (members, offsets)
    });
    let sets = parts
        .iter()
        .flat_map(|(members, offsets)| offsets.windows(2).map(|w| &members[w[0]..w[1]]));
    RrCollection::from_sets(view.num_nodes(), view.num_alive(), sets)
}

/// The pre-refactor allocating coverage query: fresh `vec![false; θ]` per
/// call. Baseline leg of `ris_engine/cov_set`.
fn cov_set_alloc_baseline(c: &RrCollection, s: &[u32]) -> usize {
    let mut hit = vec![false; c.len()];
    let mut total = 0usize;
    for &u in s {
        for &i in c.sets_containing(u) {
            if !hit[i as usize] {
                hit[i as usize] = true;
                total += 1;
            }
        }
    }
    total
}

fn bench_ris_engine(c: &mut Criterion) {
    // The acceptance-criteria graph: a 100k-node preset (Epinions scaled).
    let g = Dataset::Epinions.generate(0.76, 42);
    assert!(
        g.num_nodes() >= 100_000,
        "preset too small: {}",
        g.num_nodes()
    );
    let mut group = c.benchmark_group("ris_engine");
    group.sample_size(10);

    // ---- stage 1: batch generation, 4 workers ------------------------------
    let count = 20_000usize;
    group.throughput(Throughput::Elements(count as u64));
    group.bench_function("generate_batch/sharded_4t", |b| {
        b.iter(|| generate_batch(&&g, count, 7, 4));
    });
    group.bench_function("generate_batch/repush_4t", |b| {
        b.iter(|| generate_batch_repush(&&g, count, 7, 4));
    });

    // ---- stage 1a: the reverse-BFS inner loop in isolation ------------------
    // Single-threaded sampling of `sample_count` sets, one leg per coin
    // mechanism: the retained per-coin f32 oracle, the integer-threshold
    // compare (skip disabled), and the full geometric-skip fast path. The
    // preset is pure weighted cascade, so every eligible in-neighborhood
    // skips in the third leg.
    let sample_count = 5_000usize;
    group.throughput(Throughput::Elements(sample_count as u64));
    group.bench_function("sample/percoin", |b| {
        let mut sampler = RrSampler::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mut buf = Vec::new();
        b.iter(|| {
            let mut total = 0usize;
            for _ in 0..sample_count {
                sampler.sample_into_percoin(&&g, &mut rng, &mut buf);
                total += buf.len();
            }
            total
        });
    });
    group.bench_function("sample/threshold", |b| {
        let mut sampler = RrSampler::new();
        let mut rng = CounterRng::new(3);
        let mut buf = Vec::new();
        b.iter(|| {
            let mut total = 0usize;
            for _ in 0..sample_count {
                sampler.sample_into_threshold(&&g, &mut rng, &mut buf);
                total += buf.len();
            }
            total
        });
    });
    group.bench_function("sample/skip", |b| {
        let mut sampler = RrSampler::new();
        let mut rng = CounterRng::new(3);
        let mut buf = Vec::new();
        b.iter(|| {
            let mut total = 0usize;
            for _ in 0..sample_count {
                sampler.sample_into(&&g, &mut rng, &mut buf);
                total += buf.len();
            }
            total
        });
    });

    // ---- stage 1a': raw RNG refill throughput -------------------------------
    // 64k u32 coins per iteration: the batched counter refill against the
    // serial xoshiro stream it replaced.
    let draws = 65_536usize;
    group.throughput(Throughput::Elements(draws as u64));
    group.bench_function("sample_rng/counter_refill", |b| {
        let mut rng = CounterRng::new(7);
        b.iter(|| {
            let mut acc = 0u32;
            for _ in 0..draws {
                acc = acc.wrapping_add(rng.next_u32());
            }
            acc
        });
    });
    group.bench_function("sample_rng/stdrng", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| {
            let mut acc = 0u32;
            for _ in 0..draws {
                acc = acc.wrapping_add(rng.next_u32());
            }
            acc
        });
    });

    // ---- stage 1c: forward cascades (the MC spread oracle's inner loop) ----
    // Constant-weight rebake of the same 100k-node preset: every
    // out-neighborhood is uniform, so hubs run the forward geometric skip
    // the way WC in-neighborhoods run the reverse one. Seeds are the top
    // out-degree hubs — the IM-shaped seed sets forward simulation scores
    // in practice. One leg per coin mechanism, mirroring the sample/*
    // stages: the retained per-coin walk (fresh draw per out-edge, StdRng),
    // the integer-threshold compare (skip disabled), and the full
    // geometric-skip fast path (both on the buffered counter RNG).
    let gc = g.map_probs(|_, _, _| 0.05);
    let mut hubs: Vec<u32> = (0..gc.num_nodes() as u32).collect();
    hubs.sort_unstable_by_key(|&v| std::cmp::Reverse(gc.out_degree(v)));
    hubs.truncate(50);
    // Sized so one batch lands well under the group's measurement budget
    // (hub-seeded cascades on the 100k preset run ~150µs each).
    let cascades = 250usize;
    group.throughput(Throughput::Elements(cascades as u64));
    group.bench_function("cascade_percoin", |b| {
        let mut engine = CascadeEngine::new();
        let mut rng = StdRng::seed_from_u64(3);
        b.iter(|| {
            let mut total = 0usize;
            for _ in 0..cascades {
                total += engine.random_cascade_percoin(&&gc, &hubs, &mut rng);
            }
            total
        });
    });
    group.bench_function("cascade_threshold", |b| {
        let mut engine = CascadeEngine::new();
        let mut rng = CounterRng::new(3);
        b.iter(|| {
            let mut total = 0usize;
            for _ in 0..cascades {
                total += engine.random_cascade_threshold(&&gc, &hubs, &mut rng);
            }
            total
        });
    });
    group.bench_function("cascade_skip", |b| {
        let mut engine = CascadeEngine::new();
        let mut rng = CounterRng::new(3);
        b.iter(|| {
            let mut total = 0usize;
            for _ in 0..cascades {
                total += engine.random_cascade(&&gc, &hubs, &mut rng);
            }
            total
        });
    });
    // The end-to-end batched driver (4 deterministic counter streams, same
    // fan-out as generate_batch/sharded_4t); gated by
    // tools/bench_regression.py alongside generate_batch.
    group.bench_function("cascade_mc_spread", |b| {
        b.iter(|| mc_spread_batched(&&gc, &hubs, cascades, 7, 4));
    });
    group.throughput(Throughput::Elements(count as u64));

    // ---- stage 2: coverage queries -----------------------------------------
    let batch = generate_batch(&&g, 100_000, 5, 4);
    let seeds: Vec<u32> = (0..50).collect();
    // The id predates the per-thread marks: this prices `cov_set`.
    group.bench_function("cov_set/scratch", |b| {
        b.iter(|| batch.cov_set(&seeds));
    });
    group.bench_function("cov_set/alloc_baseline", |b| {
        b.iter(|| cov_set_alloc_baseline(&batch, &seeds));
    });

    // ---- stage 3: greedy selection -----------------------------------------
    let k = 100usize;
    let mut gscratch = GreedyScratch::new();
    let mut gresult = GreedyResult::default();
    group.bench_function("greedy/decremental", |b| {
        b.iter(|| {
            max_coverage_greedy_with(&batch, k, None, &mut gscratch, &mut gresult);
            gresult.coverage
        });
    });
    group.bench_function("greedy/rescan_baseline", |b| {
        b.iter(|| max_coverage_greedy_rescan(&batch, k, None).coverage);
    });
    group.finish();
}

fn bench_rr_generation(c: &mut Criterion) {
    let g = Dataset::Epinions.generate(0.05, 1); // ~6.6K nodes
    let mut group = c.benchmark_group("rr_generation");
    group.sample_size(20);
    let count = 20_000usize;
    group.throughput(Throughput::Elements(count as u64));
    for threads in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("batch", threads),
            &threads,
            |b, &threads| {
                b.iter(|| generate_batch(&&g, count, 7, threads));
            },
        );
    }
    group.finish();
}

fn bench_rr_single(c: &mut Criterion) {
    let g = Dataset::NetHept.generate(0.2, 2);
    c.bench_function("rr_single_set", |b| {
        let mut sampler = RrSampler::new();
        let mut rng = StdRng::seed_from_u64(3);
        let mut buf = Vec::new();
        b.iter(|| {
            sampler.sample_into(&&g, &mut rng, &mut buf);
            buf.len()
        });
    });
}

fn bench_coverage_queries(c: &mut Criterion) {
    let g = Dataset::NetHept.generate(0.2, 3);
    let batch = generate_batch(&&g, 100_000, 5, 4);
    let seeds: Vec<u32> = (0..50).collect();
    c.bench_function("coverage_cov_set_50", |b| {
        b.iter(|| batch.cov_set(&seeds));
    });
}

fn bench_realizations(c: &mut Criterion) {
    let g = Dataset::NetHept.generate(0.2, 4);
    let hashed = HashedRealization::new(9);
    let t = quantize_prob(0.3);
    c.bench_function("realization_hash_coin", |b| {
        let mut e = 0u32;
        b.iter(|| {
            e = e.wrapping_add(1) % g.num_edges() as u32;
            hashed.is_live(e, t)
        });
    });
    c.bench_function("realization_materialize", |b| {
        b.iter(|| MaterializedRealization::materialize(&g, &hashed));
    });
}

fn bench_cascade(c: &mut Criterion) {
    let g = Dataset::NetHept.generate(0.2, 5);
    let real = HashedRealization::new(11);
    let mut engine = CascadeEngine::new();
    let seeds: Vec<u32> = (0..10).collect();
    c.bench_function("cascade_observe_10_seeds", |b| {
        b.iter(|| engine.observe(&&g, &real, &seeds).len());
    });
}

fn bench_policies(c: &mut Criterion) {
    // One small calibrated instance shared across policy benches.
    let graph = Dataset::NetHept.generate(0.05, 6); // ~760 nodes
    let inst = calibrated_instance(
        graph,
        8,
        CostSplit::Uniform,
        CalibrationConfig {
            lb_theta: 30_000,
            seed: 6,
            threads: 4,
            ..Default::default()
        },
    );
    let worlds = [1u64, 2];
    let mut group = c.benchmark_group("policies");
    group.sample_size(10);
    group.bench_function("hatp_2_worlds", |b| {
        b.iter(|| {
            let mut p = Hatp {
                seed: 1,
                threads: 4,
                ..Default::default()
            };
            evaluate_adaptive(&inst, &mut p, &worlds).mean_profit()
        });
    });
    group.bench_function("adg_mc_oracle_2_worlds", |b| {
        b.iter(|| {
            let mut p = Adg::new(McOracle::new(2_000, 1));
            evaluate_adaptive(&inst, &mut p, &worlds).mean_profit()
        });
    });
    group.bench_function("nsg_select", |b| {
        b.iter(|| {
            let mut p = Nsg::new(50_000, 1, 4);
            evaluate_nonadaptive(&inst, &mut p, &worlds).mean_profit()
        });
    });
    group.bench_function("ndg_select", |b| {
        b.iter(|| {
            let mut p = Ndg::new(50_000, 1, 4);
            evaluate_nonadaptive(&inst, &mut p, &worlds).mean_profit()
        });
    });
    group.finish();
}

fn bench_graph_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("generators");
    group.sample_size(10);
    group.bench_function("nethept_preset_s0.2", |b| {
        b.iter(|| Dataset::NetHept.generate(0.2, 1).num_edges());
    });
    group.bench_function("epinions_preset_s0.05", |b| {
        b.iter(|| Dataset::Epinions.generate(0.05, 1).num_edges());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ris_engine,
    bench_rr_generation,
    bench_rr_single,
    bench_coverage_queries,
    bench_realizations,
    bench_cascade,
    bench_policies,
    bench_graph_generation,
);
criterion_main!(benches);
