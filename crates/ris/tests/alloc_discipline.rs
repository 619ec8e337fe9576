//! Enforces the engine's allocation discipline: after warm-up, the hot
//! query paths (`cov_set` and repeated `sample_into` on a reused
//! sampler) perform **zero heap allocation per query**.
//!
//! A counting global allocator wraps `System`; everything runs inside one
//! `#[test]` so no concurrent test pollutes the counters. Batch
//! *generation* (`generate_batch`) is excluded by design — it returns a
//! freshly allocated collection.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocation count attributable to `f`.
fn allocations_during<F: FnOnce()>(f: F) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn hot_query_paths_do_not_allocate_after_warmup() {
    use atpm_graph::GraphBuilder;
    use atpm_ris::sampler::generate_batch;
    use atpm_ris::RrSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    // A graph big enough that RR sets and coverage structures are nontrivial.
    let mut b = GraphBuilder::new(200);
    for i in 0..199u32 {
        b.add_edge(i, i + 1, 0.6).unwrap();
        b.add_edge(i + 1, i, 0.3).unwrap();
    }
    let g = b.build();
    let collection = generate_batch(&&g, 20_000, 7, 1);
    assert!(collection.len() == 20_000);

    let queries: Vec<Vec<u32>> = (0..8)
        .map(|q| (0..50u32).map(|i| (i * 3 + q) % 200).collect())
        .collect();

    // ---- cov_set -----------------------------------------------------------
    let mut blackhole = 0usize;
    // Warm-up sizes this thread's set marks to this collection.
    blackhole += collection.cov_set(&queries[0]);
    let allocs = allocations_during(|| {
        for q in &queries {
            blackhole += collection.cov_set(q);
        }
    });
    assert_eq!(allocs, 0, "cov_set allocated after warm-up");

    // ---- repeated sampling on a reused sampler -----------------------------
    let mut sampler = RrSampler::new();
    let mut rng = StdRng::seed_from_u64(3);
    let mut buf = Vec::new();
    for _ in 0..500 {
        sampler.sample_into(&&g, &mut rng, &mut buf); // warm-up: buffers reach max size
    }
    let allocs = allocations_during(|| {
        for _ in 0..500 {
            sampler.sample_into(&&g, &mut rng, &mut buf);
            blackhole += usize::from(sampler.contains_last(0));
        }
    });
    assert_eq!(allocs, 0, "sample_into allocated after warm-up");

    // ---- the per-coin oracle shares the discipline -------------------------
    let allocs = allocations_during(|| {
        for _ in 0..500 {
            sampler.sample_into_percoin(&&g, &mut rng, &mut buf);
            blackhole += usize::from(sampler.contains_last(0));
        }
    });
    assert_eq!(allocs, 0, "sample_into_percoin allocated after warm-up");

    // ---- counter-RNG refills + geometric skip path -------------------------
    // A hub with 32 uniform p = 0.1 in-edges forces the skip fast path;
    // CounterRng's 64-word lane buffer refills many times in 2000 samples.
    // Neither may touch the heap once buffers are warm.
    use atpm_ris::CounterRng;
    let mut hb = GraphBuilder::new(33);
    for u in 1..33u32 {
        hb.add_edge(u, 0, 0.1).unwrap();
    }
    let hub = hb.build();
    assert!(hub.in_skip_inv(0) < 0.0, "hub must take the skip path");
    let mut crng = CounterRng::new(9);
    let mut hsampler = RrSampler::new();
    for _ in 0..500 {
        hsampler.sample_into(&hub, &mut crng, &mut buf); // warm-up
    }
    let allocs = allocations_during(|| {
        for _ in 0..2_000 {
            hsampler.sample_into(&hub, &mut crng, &mut buf);
            blackhole += buf.len();
        }
    });
    assert_eq!(allocs, 0, "skip path / CounterRng allocated after warm-up");

    assert!(blackhole > 0, "keep the optimizer honest");
}
