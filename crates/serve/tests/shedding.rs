//! Overload control: a burst far beyond worker
//! capacity must keep the reactor→worker queue bounded — excess requests
//! are answered `503 Service Unavailable` with `Retry-After` immediately
//! instead of queueing without limit, the shed count shows up in
//! `/healthz`, and the server keeps serving normally afterwards.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use atpm_serve::client::{HttpClient, ProtocolClient};
use atpm_serve::json::Json;
use atpm_serve::protocol::{SnapshotReq, SnapshotSource};
use atpm_serve::server::{AppState, ServeConfig, Server};
use atpm_serve::snapshot::Snapshot;

const BURST: usize = 12;

fn state_with_snapshot() -> Arc<AppState> {
    let state = AppState::new();
    state.store.insert(
        Snapshot::build(&SnapshotReq {
            name: "g".into(),
            source: SnapshotSource::Preset {
                dataset: "nethept".into(),
                scale: 0.02,
            },
            k: 4,
            rr_theta: 4_000,
            seed: 1,
            threads: 1,
        })
        .unwrap(),
    );
    state
}

/// One request on its own connection; returns (status, raw headers+body).
fn one_shot(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status = text
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, text)
}

#[test]
fn burst_past_capacity_sheds_503_with_retry_after_and_recovers() {
    // One worker, queue bounded at 2: capacity is 3 in-flight requests
    // (1 executing + 2 waiting); a 12-request burst is 4x that.
    let state = state_with_snapshot();
    let cfg = ServeConfig {
        workers: 1,
        shards: 1,
        max_queue: 2,
        ..ServeConfig::default()
    };
    let mut server = Server::start(state, &cfg).unwrap();
    let addr = server.addr();

    // Plug the single worker with a genuinely slow request (an RR-index
    // build) so the burst below deterministically finds it busy.
    let plug = std::thread::spawn(move || {
        let build = SnapshotReq {
            name: "big".into(),
            source: SnapshotSource::Preset {
                dataset: "nethept".into(),
                scale: 0.10,
            },
            k: 8,
            rr_theta: 400_000,
            seed: 3,
            threads: 1,
        };
        one_shot(addr, "POST", "/snapshots", &build.to_json().encode())
    });
    std::thread::sleep(Duration::from_millis(100)); // worker is now mid-build

    let barrier = Arc::new(Barrier::new(BURST));
    let estimate = Json::obj([("nodes", Json::nums((0u32..100).collect::<Vec<_>>()))]).encode();
    let clients: Vec<_> = (0..BURST)
        .map(|_| {
            let barrier = barrier.clone();
            let body = estimate.clone();
            std::thread::spawn(move || {
                barrier.wait();
                one_shot(addr, "POST", "/snapshots/g/estimate", &body)
            })
        })
        .collect();
    let results: Vec<(u16, String)> = clients.into_iter().map(|h| h.join().unwrap()).collect();
    let (status, _) = plug.join().unwrap();
    assert_eq!(status, 201, "the plugging build itself must succeed");

    let shed = results.iter().filter(|(s, _)| *s == 503).count();
    let served = results.iter().filter(|(s, _)| *s == 200).count();
    assert_eq!(shed + served, BURST, "unexpected statuses: {results:?}");
    // Queue bound 2 → at most 1 executing + 2 queued survive the burst.
    assert!(
        shed >= BURST - 4,
        "expected most of the burst shed, got {shed} of {BURST}"
    );
    assert!(
        served >= 1,
        "bounded queue must still serve what it accepted"
    );
    for (status, raw) in &results {
        if *status == 503 {
            let head = raw.split("\r\n\r\n").next().unwrap();
            assert!(
                head.contains("retry-after: 1"),
                "503 must carry Retry-After: {head}"
            );
            assert!(raw.contains("overloaded"));
        }
    }

    // The overload was transient: healthz reports the sheds, an empty
    // queue, and new requests succeed.
    let mut health_client = HttpClient::connect(addr).unwrap();
    let health = health_client
        .call("GET", "/healthz", &Json::obj([]))
        .unwrap();
    assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        health.get("queue_depth").and_then(Json::as_u64),
        Some(0),
        "queue must drain back to empty"
    );
    assert_eq!(health.get("max_queue").and_then(Json::as_u64), Some(2));
    assert!(
        health.get("shed_503").and_then(Json::as_u64).unwrap() >= shed as u64,
        "healthz must account for the sheds"
    );
    let (status, _) = one_shot(addr, "POST", "/snapshots/g/estimate", &estimate);
    assert_eq!(status, 200, "service must be healthy after the burst");
    server.shutdown();
}
