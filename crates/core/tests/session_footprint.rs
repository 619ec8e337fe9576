//! A suspended session holds only what a session is: the residual alive
//! bitset (`n/8` bytes), the selected seeds and a few counters. The
//! cascade workspace is per-thread scratch, not session state, so once the
//! thread's engine is warm a session costs no `O(n)` buffer beyond the
//! bitset.
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
fn a_suspended_session_holds_its_alive_bitset_and_seeds_only() {
    use atpm_core::{AdaptiveSession, TpmInstance};
    use atpm_graph::GraphBuilder;

    // libtest's main thread allocates while reporting the test start,
    // concurrently with the first moments of the body; let it go quiet
    // before the counting window opens.
    std::thread::sleep(std::time::Duration::from_millis(100));

    // 100k nodes: a ring of p = 0.5 edges, so each seed's cascade runs a
    // few hops before the world cuts it.
    let n = 100_000usize;
    let mut b = GraphBuilder::new(n);
    for u in 0..n as u32 {
        b.add_edge(u, (u + 1) % n as u32, 0.5).unwrap();
    }
    let target: Vec<u32> = (0..8).map(|i| i * 12_345).collect();
    let inst = TpmInstance::new(b.build(), target.clone(), &[1.0; 8]);

    // Warm this thread's cascade engine on the graph.
    let mut warm = AdaptiveSession::new(&inst, 1);
    let _ = warm.select(target[0]);
    drop(warm);

    let before = LIVE.load(Ordering::Relaxed);
    let mut session = AdaptiveSession::new(&inst, 7);
    let first = session.select(target[1]);
    let second = session.select(target[2]);
    let activated = first.len() + second.len();
    drop((first, second));
    let state = session.suspend();
    let held = LIVE.load(Ordering::Relaxed) - before;

    let bound = (n / 8 + 1024) as i64;
    assert!(
        held <= bound,
        "a suspended session holds {held} B, over the {bound} B of its \
         alive bitset plus seeds and counters"
    );

    // The state is whole: resumed, it reads the ledger the selects wrote.
    let session = AdaptiveSession::resume(&inst, state);
    assert_eq!(session.selected(), &target[1..3]);
    assert_eq!(session.total_activated(), activated);
}
