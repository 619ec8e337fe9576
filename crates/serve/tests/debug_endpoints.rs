//! `/debug/*` endpoint integration suite: the on-demand CPU profile
//! window and the structured request event log, end-to-end over HTTP.
//!
//! The profiler (SIGPROF + per-process itimer) and its sample buffer are
//! process-wide singletons, so the tests serialize on one mutex.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use atpm_serve::server::{AppState, ServeConfig, Server};

fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: OnceLock<Mutex<()>> = OnceLock::new();
    SERIAL
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

fn boot() -> Server {
    let cfg = ServeConfig {
        workers: 2,
        shards: 1,
        ..ServeConfig::default()
    };
    Server::start(AppState::new(), &cfg).unwrap()
}

/// One request on a fresh connection; returns (status, headers, body).
fn get(addr: std::net::SocketAddr, path: &str, extra: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nhost: atpm\r\n{extra}connection: close\r\ncontent-length: 0\r\n\r\n"
    )
    .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw).into_owned();
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
    let status: u16 = head
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head.to_string(), body.to_string())
}

#[test]
fn debug_profile_returns_parseable_folded_stacks() {
    let _guard = serial();
    let server = {
        let s = boot();
        // Sample RR sets for the whole profile window so the
        // process-CPU-time itimer actually fires (SIGPROF only ticks while
        // the process runs, and an idle server accumulates no samples) and
        // the sampled stacks pass through a library crate's frames.
        let stop = Arc::new(AtomicBool::new(false));
        let burner = {
            let stop = stop.clone();
            let graph = atpm_graph::gen::Dataset::NetHept.generate(0.01, 1);
            std::thread::spawn(move || {
                let mut seed = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    std::hint::black_box(atpm_ris::generate_batch(&graph, 2_000, seed, 1));
                    seed += 1;
                }
            })
        };
        let (status, _, body) = get(s.addr(), "/debug/profile?seconds=1", "");
        stop.store(true, Ordering::Relaxed);
        burner.join().unwrap();
        assert_eq!(status, 200, "profile window failed: {body}");
        // The window disarms what it armed before it answers.
        assert_eq!(atpm_net::sys::profiler_hz(), 0, "profiler left armed");
        assert!(!body.trim().is_empty(), "folded output must be non-empty");
        // Every line must parse as `frame(;frame)* count`.
        for line in body.lines() {
            let (stack, count) = line.rsplit_once(' ').expect("folded line shape");
            assert!(!stack.is_empty(), "empty stack in {line:?}");
            count
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("bad count in {line:?}"));
        }
        // The unwinder and the symbolizer reach past the leaf frame into
        // the sampler's crate.
        assert!(
            body.lines().any(|line| line.contains("atpm_ris")),
            "no sampled stack has an atpm_ris frame:\n{body}"
        );
        s
    };
    let mut server = server;
    server.shutdown();
}

#[test]
fn a_second_profile_window_is_refused_at_once_and_other_requests_still_serve() {
    let _guard = serial();
    let mut server = boot();
    let addr = server.addr();
    let first = std::thread::spawn(move || get(addr, "/debug/profile?seconds=2", ""));
    // An unprofiled server arms the profiler for the window and disarms
    // it after: once it reads armed, the first window is open.
    let t0 = Instant::now();
    while atpm_net::sys::profiler_hz() == 0 {
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "the first window never opened"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let t1 = Instant::now();
    let (status, _, body) = get(addr, "/debug/profile?seconds=1", "");
    assert_eq!(status, 409, "{body}");
    assert!(
        t1.elapsed() < Duration::from_millis(500),
        "the refusal took {:?}",
        t1.elapsed()
    );
    // The refusal parked no worker: requests are served while the first
    // window is still open.
    let (status, _, _) = get(addr, "/healthz", "");
    assert_eq!(status, 200);
    assert!(
        atpm_net::sys::profiler_hz() > 0,
        "the first window closed early"
    );
    let (status, _, body) = first.join().unwrap();
    assert_eq!(status, 200, "{body}");
    server.shutdown();
}

#[test]
fn debug_events_tails_request_records_with_matching_ids() {
    let _guard = serial();
    let mut server = boot();
    let (status, head, _) = get(server.addr(), "/healthz", "x-request-id: evt-test-1\r\n");
    assert_eq!(status, 200);
    assert!(head.contains("x-request-id: evt-test-1"), "{head}");
    get(server.addr(), "/nope", "x-request-id: evt-test-2\r\n");

    let (status, _, body) = get(server.addr(), "/debug/events?n=10", "");
    assert_eq!(status, 200);
    // The tail lists the requests above — but never itself: events record
    // strictly after respond renders.
    assert!(
        body.contains("id=evt-test-1") && body.contains("status=200"),
        "missing healthz record:\n{body}"
    );
    assert!(
        body.contains("id=evt-test-2") && body.contains("status=404"),
        "missing 404 record:\n{body}"
    );
    assert!(body.contains("GET /healthz"), "detail missing:\n{body}");
    assert!(
        !body.contains("GET /debug/events"),
        "events tail observed itself:\n{body}"
    );
    server.shutdown();
}
