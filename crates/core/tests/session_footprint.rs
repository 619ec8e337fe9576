//! A suspended session holds only what a session is: the residual alive
//! bitset (`n/8` bytes), the selected seeds and a few counters. The
//! cascade workspace is per-thread scratch, not session state, so once the
//! thread's engine is warm a session costs no `O(n)` buffer beyond the
//! bitset. A HATP stepper between calls holds `O(k)` bytes: its RR pool is
//! scratch of one `next_seed` call.
//!
//! A counting global allocator tracks live heap bytes; the tests take one
//! lock, so no concurrent test pollutes the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Mutex;

use atpm_core::{AdaptiveSession, TpmInstance};
use atpm_graph::GraphBuilder;

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

/// Held for the whole of each test: one counting window at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes the counting lock, then waits for libtest's main thread, which
/// allocates while reporting test starts and ends, to go quiet.
fn counting_window() -> std::sync::MutexGuard<'static, ()> {
    let guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    std::thread::sleep(std::time::Duration::from_millis(100));
    guard
}

const N: usize = 100_000;

/// 100k nodes: a ring of p = 0.5 edges, so each seed's cascade runs a few
/// hops before the world cuts it; eight targets at `costs`, each with
/// certain edges to the `fanout` nodes after it.
fn ring(costs: &[f64; 8], fanout: u32) -> TpmInstance {
    let mut b = GraphBuilder::new(N);
    for u in 0..N as u32 {
        b.add_edge(u, (u + 1) % N as u32, 0.5).unwrap();
    }
    let target: Vec<u32> = (0..8).map(|i| i * 12_345).collect();
    for &t in &target {
        for j in 2..fanout + 2 {
            b.add_edge(t, t + j, 1.0).unwrap();
        }
    }
    TpmInstance::new(b.build(), target, costs)
}

#[test]
fn a_suspended_session_holds_its_alive_bitset_and_seeds_only() {
    let _window = counting_window();
    let n = N;
    let inst = ring(&[1.0; 8], 0);
    let target = inst.target().to_vec();

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

#[test]
fn a_hatp_stepper_holds_o_k_bytes_between_calls() {
    use atpm_core::policies::Hatp;
    use atpm_core::{AdaptivePolicy, PolicyStepper};

    let _window = counting_window();
    // Each target reaches 1,000 nodes, so about 8% of the RR sets hold a
    // target and a pool left behind would show. The first target is free
    // (kept whatever the estimates), the rest dear (rejected), so the first
    // call ends in a keep and the second at the end of the walk.
    let dear = 5_000.0;
    let inst = ring(&[0.0, dear, dear, dear, dear, dear, dear, dear], 1_000);
    let mut hatp = Hatp {
        seed: 3,
        max_theta: 1 << 12,
        ..Default::default()
    };
    let mut stepper = hatp.stepper();
    let mut session = AdaptiveSession::new(&inst, 7);
    // Warm this thread's cascade engine on the graph, and register the
    // process-wide RIS metrics that count every RR draw.
    let _ = AdaptiveSession::new(&inst, 1).select(inst.target()[0]);
    let _ = atpm_ris::generate_batch(&inst.graph(), 1, 0, 1);

    let bound = 1024i64;
    let before = LIVE.load(Ordering::Relaxed);
    let kept = stepper.next_seed(&mut session);
    let held = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!(kept, Some(inst.target()[0]), "the free target is kept");
    assert!(
        held <= bound,
        "after a keep the stepper holds {held} B, over {bound} B"
    );

    session.select(inst.target()[0]);
    let before = LIVE.load(Ordering::Relaxed);
    let end = stepper.next_seed(&mut session);
    let held = LIVE.load(Ordering::Relaxed) - before;
    assert_eq!(end, None, "every dear target is rejected");
    assert!(
        held <= bound,
        "at the end of the walk the stepper holds {held} B, over {bound} B"
    );
    assert!(session.sampling_work() > 0, "both calls sampled");
}
