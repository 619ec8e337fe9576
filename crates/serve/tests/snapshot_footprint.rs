//! The snapshot store's LRU budget charges each snapshot
//! [`Snapshot::mem_bytes`]; that figure must be what a built snapshot
//! actually keeps on the heap, or `--snapshot-budget` admits more (or
//! less) than it says. The graph with its baked sampling view dominates a
//! snapshot with a small RR index, so this pins the graph's share too: a
//! graph built on its own must retain what `Graph::heap_bytes` says, and
//! that is `16m + 32(n + 1)` — neighbours and thresholds plus one 16-byte
//! sampling record per node, in each direction, and nothing else.
//!
//! A counting global allocator tracks live heap bytes; everything runs
//! inside one `#[test]` so no concurrent test pollutes the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: LiveBytes = LiveBytes;

#[test]
fn mem_bytes_is_within_ten_percent_of_what_a_snapshot_retains() {
    use atpm_graph::gen::Dataset;
    use atpm_serve::protocol::{SnapshotReq, SnapshotSource};
    use atpm_serve::snapshot::Snapshot;

    // libtest's main thread allocates while reporting the test start,
    // concurrently with the first moments of the body; let it go quiet
    // before the counting window opens.
    std::thread::sleep(std::time::Duration::from_millis(100));

    let before = LIVE.load(Ordering::Relaxed);
    let graph = Dataset::Epinions.generate(0.05, 3);
    let held = (LIVE.load(Ordering::Relaxed) - before) as f64;
    let (n, m) = (graph.num_nodes(), graph.num_edges());
    assert_eq!(
        graph.heap_bytes(),
        16 * m + 32 * (n + 1),
        "n = {n}, m = {m}"
    );
    let charged = graph.heap_bytes() as f64;
    assert!(
        (charged - held).abs() <= 0.01 * held,
        "heap_bytes charges {charged} B, but the graph retains {held} B (n = {n}, m = {m})"
    );
    drop(graph);

    let req = SnapshotReq {
        name: "g".into(),
        source: SnapshotSource::Preset {
            dataset: "epinions".into(),
            scale: 0.05,
        },
        k: 8,
        rr_theta: 2_000,
        seed: 3,
        threads: 1,
    };
    // Warm the process-global metric registries and per-thread sampler
    // scratch, which a build registers once and keeps.
    drop(Snapshot::build(&req).unwrap());

    let before = LIVE.load(Ordering::Relaxed);
    let snap = Snapshot::build(&req).unwrap();
    let held = (LIVE.load(Ordering::Relaxed) - before) as f64;
    let charged = snap.mem_bytes() as f64;

    let graph = snap.instance.graph();
    assert!(
        (charged - held).abs() <= 0.1 * held,
        "mem_bytes charges {charged} B, but the snapshot retains {held} B \
         (n = {}, m = {}, RR index {} B)",
        graph.num_nodes(),
        graph.num_edges(),
        snap.rr.mem_bytes()
    );
}
