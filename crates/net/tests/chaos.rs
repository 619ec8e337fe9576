//! Chaos suite: drives full reactor shards under seeded syscall fault
//! plans and asserts the two invariants that define "robust" here:
//!
//! 1. **Transparency** — recoverable faults (`EINTR`, spurious `EAGAIN`,
//!    short reads/writes) must be invisible to the application: the bytes
//!    every client receives are identical to a fault-free run.
//! 2. **No leaks** — whatever the fault schedule (including connection
//!    resets, `EMFILE` storms, and failing `epoll_ctl`), the reactor exits
//!    with every connection slot back on the free list.
//!
//! The fault policy is thread-local, installed by the reactor thread
//! itself, so client sockets in this file always behave honestly.

#![cfg(test)]

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use atpm_net::fault::{self, FaultPlan, Site, ECONNRESET, EMFILE, ENOSPC};
use atpm_net::{ConnId, Driver, Reactor, ReactorConfig, ReactorStats, Reply, ReplyQueue, Sliced};

const CLIENTS: usize = 4;
const LINES: usize = 6;

/// Newline-framed echo-uppercase: the simplest protocol that still
/// exercises frame cutting, dispatch, reply queuing, and pipelining.
struct EchoDriver;

impl Driver for EchoDriver {
    fn slice(&mut self, buf: &[u8]) -> Sliced {
        match buf.iter().position(|&b| b == b'\n') {
            Some(pos) => Sliced::Frame(pos + 1),
            None => Sliced::Partial {
                head_complete: false,
            },
        }
    }

    fn dispatch(&mut self, conn: ConnId, frame: Vec<u8>, replies: &Arc<ReplyQueue>) {
        replies.push(Reply {
            conn,
            bytes: frame.to_ascii_uppercase(),
            keep_alive: true,
            id: None,
        });
    }
}

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn payload(client: usize, seed: u64) -> Vec<u8> {
    let mut out = Vec::new();
    for line in 0..LINES {
        out.extend_from_slice(
            format!("conn{client} line{line} seed{seed} the quick brown fox\n").as_bytes(),
        );
    }
    out
}

/// One client conversation: write the payload in rng-sized dribbles,
/// half-close, then read everything the server sends until it closes.
/// `None` means the connection died midway (tolerated only in destructive
/// scenarios).
fn client(addr: std::net::SocketAddr, id: usize, seed: u64) -> Option<Vec<u8>> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let bytes = payload(id, seed);
    let mut rng = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(id as u64 + 1);
    let mut off = 0;
    while off < bytes.len() {
        let n = (1 + (xorshift(&mut rng) % 9) as usize).min(bytes.len() - off);
        stream.write_all(&bytes[off..off + n]).ok()?;
        off += n;
    }
    // Half-close: the server answers the remaining frames, then closes —
    // so a clean EOF below proves the slot was released server-side.
    stream.shutdown(Shutdown::Write).ok()?;
    let mut got = Vec::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => return Some(got),
            Ok(n) => got.extend_from_slice(&buf[..n]),
            Err(_) => return None,
        }
    }
}

/// Boots a single-shard reactor (fault plan installed on the reactor
/// thread only), runs all clients to completion, stops the shard, and
/// returns per-client received bytes plus the shard's leak accounting.
fn run_scenario(seed: u64, plan: Option<FaultPlan>) -> (Vec<Option<Vec<u8>>>, ReactorStats) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let reactor = Reactor::new(
        listener,
        ReactorConfig {
            idle_timeout_ms: Some(10_000),
            ..ReactorConfig::default()
        },
    )
    .unwrap();
    let replies = reactor.replies();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let shard = std::thread::spawn(move || {
        if let Some(plan) = plan {
            fault::install(Box::new(plan));
        }
        let stats = reactor.run(EchoDriver, &stop2);
        fault::clear();
        stats
    });
    let clients: Vec<_> = (0..CLIENTS)
        .map(|id| std::thread::spawn(move || client(addr, id, seed)))
        .collect();
    let outputs: Vec<Option<Vec<u8>>> = clients.into_iter().map(|h| h.join().unwrap()).collect();
    stop.store(true, Ordering::SeqCst);
    replies.waker().wake();
    let stats = shard.join().unwrap();
    (outputs, stats)
}

fn assert_leak_free(stats: &ReactorStats, context: &str) {
    assert_eq!(stats.live_conns, 0, "{context}: connections still live");
    assert_eq!(
        stats.free_slots, stats.slots,
        "{context}: leaked connection slots"
    );
}

#[test]
fn recoverable_faults_are_invisible_across_many_seeds() {
    if !atpm_net::supported() {
        return;
    }
    for seed in 0..10u64 {
        let (clean, clean_stats) = run_scenario(seed, None);
        assert_leak_free(&clean_stats, &format!("clean seed {seed}"));
        for (id, out) in clean.iter().enumerate() {
            assert_eq!(
                out.as_deref(),
                Some(payload(id, seed).to_ascii_uppercase().as_slice()),
                "clean seed {seed} client {id}"
            );
        }
        let (faulty, fault_stats) = run_scenario(seed, Some(FaultPlan::recoverable(seed)));
        assert_leak_free(&fault_stats, &format!("faulty seed {seed}"));
        assert_eq!(
            clean, faulty,
            "seed {seed}: wire output diverged under recoverable faults"
        );
    }
}

#[test]
fn destructive_faults_never_leak_slots_or_timers() {
    if !atpm_net::supported() {
        return;
    }
    for seed in 0..4u64 {
        // The first epoll_ctl on the reactor thread is the first accepted
        // connection's ADD — failing it exercises slot reclamation on the
        // registration error path. EMFILE hits a later accept pass, resets
        // kill stream IO mid-conversation.
        let plan = FaultPlan::recoverable(seed)
            .script(Site::EpollCtl, 0, ENOSPC)
            .script(Site::Accept, 1, EMFILE)
            .script(Site::StreamRead, 3, ECONNRESET)
            .script(Site::StreamWrite, 7, ECONNRESET);
        let (outputs, stats) = run_scenario(seed, Some(plan));
        assert_leak_free(&stats, &format!("destructive seed {seed}"));
        // The shard must survive and keep serving: at least one client
        // finishes its full conversation correctly.
        let intact = outputs
            .iter()
            .enumerate()
            .filter(|(id, out)| {
                out.as_deref() == Some(payload(*id, seed).to_ascii_uppercase().as_slice())
            })
            .count();
        assert!(
            intact >= 1,
            "destructive seed {seed}: no client completed ({outputs:?})"
        );
    }
}

#[test]
fn fault_tally_and_global_counters_account_for_injections() {
    if !atpm_net::supported() {
        return;
    }
    let before = fault::injected_total(Site::EpollCtl);
    let plan = FaultPlan::recoverable(3)
        .script(Site::EpollCtl, 0, ENOSPC)
        .script(Site::StreamRead, 3, ECONNRESET);
    // Clone the tally before the plan moves onto the reactor thread; it
    // keeps counting as the scenario runs.
    let tally = plan.tally();
    let (_outputs, stats) = run_scenario(3, Some(plan));
    assert_leak_free(&stats, "tally scenario");
    // EpollCtl never takes probabilistic faults, so its tally is exactly
    // the script: one ENOSPC.
    assert_eq!(tally.at(Site::EpollCtl), 1, "scripted epoll_ctl fault");
    // StreamRead takes the scripted reset plus whatever the probabilistic
    // layer rolled — at least the scripted one must have landed.
    assert!(
        tally.at(Site::StreamRead) >= 1,
        "scripted stream-read fault"
    );
    assert!(tally.total() >= 2);
    // The process-global counters (what `atpm_net_fault_injected_total`
    // exports on /metrics) are a superset of this plan's tally: other
    // tests in this binary run in parallel and also inject, so we can
    // only assert the delta covers our scripted fault.
    assert!(
        fault::injected_total(Site::EpollCtl) - before >= 1,
        "global injected_total must include this plan's epoll_ctl fault"
    );
}

#[test]
fn graceful_drain_answers_in_flight_work_before_exit() {
    if !atpm_net::supported() {
        return;
    }
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let reactor = Reactor::new(
        listener,
        ReactorConfig {
            drain_ms: 2_000,
            ..ReactorConfig::default()
        },
    )
    .unwrap();
    let replies = reactor.replies();
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();

    /// Echo whose replies arrive *after* stop is raised: dispatch parks the
    /// frame on a side thread that completes once it sees the stop flag.
    struct SlowEcho {
        stop: Arc<AtomicBool>,
    }
    impl Driver for SlowEcho {
        fn slice(&mut self, buf: &[u8]) -> Sliced {
            match buf.iter().position(|&b| b == b'\n') {
                Some(pos) => Sliced::Frame(pos + 1),
                None => Sliced::Partial {
                    head_complete: false,
                },
            }
        }
        fn dispatch(&mut self, conn: ConnId, frame: Vec<u8>, replies: &Arc<ReplyQueue>) {
            let replies = replies.clone();
            let stop = self.stop.clone();
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    std::thread::sleep(Duration::from_millis(1));
                }
                // Past the stop flag: only a draining reactor delivers this.
                std::thread::sleep(Duration::from_millis(20));
                replies.push(Reply {
                    conn,
                    bytes: frame.to_ascii_uppercase(),
                    keep_alive: true,
                    id: None,
                });
            });
        }
    }

    let stop_run = stop.clone();
    let shard = std::thread::spawn(move || reactor.run(SlowEcho { stop: stop2 }, &stop_run));
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"finish me\n").unwrap();
    // Let the reactor read + dispatch the frame, then stop mid-flight.
    std::thread::sleep(Duration::from_millis(50));
    stop.store(true, Ordering::SeqCst);
    replies.waker().wake();
    // The reply is only produced after stop — a non-draining reactor would
    // have exited and dropped it.
    let mut got = [0u8; 10];
    stream.read_exact(&mut got).unwrap();
    assert_eq!(&got, b"FINISH ME\n");
    let stats = shard.join().unwrap();
    // The client was still connected at exit (that is what stopped us, not
    // a leak).
    assert_eq!(stats.live_conns, 1);
}
