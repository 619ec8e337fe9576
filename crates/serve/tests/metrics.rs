//! `/metrics` endpoint integration suite.
//!
//! Pins the three properties the observability layer promises the serving
//! stack:
//!
//! 1. **A scrape never observes itself** — an at-rest scrape (the
//!    first-ever request on a fresh server) shows exactly its own
//!    connection and dispatch, and empty latency histograms: request
//!    metrics record strictly *after* `respond` renders the exposition.
//! 2. **Exposition hygiene** — every scrape passes the Prometheus 0.0.4
//!    lint, carries the text-exposition content type, and counters only
//!    ever go up.
//! 3. **End-to-end visibility** — the per-instance serve registry and the
//!    process-global registry (RIS/diffusion stage metrics) merge into one
//!    exposition, the sessions-active gauge tracks `/healthz`, HATP's
//!    decisions are counted by stop reason and its RR sets as generated,
//!    and `trace_path` dumps
//!    Perfetto-loadable Chrome trace JSON at shutdown.
//!
//! The registry under `atpm_obs::global()` and the tracer are process-wide
//! singletons, so every test here serializes on one mutex — parallel tests
//! would otherwise mutate the exposition between paired scrapes.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, OnceLock};

use atpm_obs::{lint, Scrape, CONTENT_TYPE};
use atpm_serve::client::{HttpClient, ProtocolClient};
use atpm_serve::protocol::{CreateSessionReq, PolicySpec, SnapshotReq, SnapshotSource};
use atpm_serve::server::{AppState, ServeConfig, Server};

fn serial() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: OnceLock<Mutex<()>> = OnceLock::new();
    SERIAL
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|p| p.into_inner())
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        shards: 1,
        ..ServeConfig::default()
    }
}

/// Raw GET keeping headers, for the content-type assertion `HttpClient`
/// (body-only) cannot make.
fn raw_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nhost: atpm\r\nconnection: close\r\ncontent-length: 0\r\n\r\n"
    )
    .unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let text = String::from_utf8(response).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").expect("header/body split");
    (head.to_string(), body.to_string())
}

#[test]
fn at_rest_scrape_counts_only_its_own_connection() {
    let _guard = serial();
    let mut server = Server::start(AppState::new(), &config()).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    // The scrape is the first request this server ever sees: at render
    // time the server has accepted and dispatched exactly once (this
    // connection) and recorded nothing else.
    let (status, body) = client.get_text("/metrics").unwrap();
    server.shutdown();
    assert_eq!(status, 200);
    lint(&body).unwrap_or_else(|e| panic!("lint: {e}"));
    for family in [
        "process_resident_memory_bytes",
        "process_cpu_seconds_total",
        "process_open_fds",
    ] {
        assert!(body.contains(family), "missing {family}");
    }
    let scrape = Scrape::parse(&body).unwrap();
    assert_eq!(scrape.value("atpm_net_accepted_total", &[]), Some(1.0));
    assert_eq!(scrape.value("atpm_net_dispatched_total", &[]), Some(1.0));
    assert_eq!(scrape.value("atpm_net_conns_closed_total", &[]), Some(0.0));
    // The scrape never counts itself: request latency records after
    // respond, so the at-rest histogram is empty.
    assert_eq!(
        scrape.value("atpm_http_request_seconds_count", &[]),
        Some(0.0)
    );
    assert_eq!(
        scrape.value("atpm_http_queue_wait_seconds_count", &[]),
        Some(0.0)
    );
}

#[test]
fn scrapes_lint_carry_content_type_and_counters_are_monotone() {
    let _guard = serial();
    let mut server = Server::start(AppState::new(), &config()).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    let (_, body) = client.get_text("/healthz").unwrap();
    assert!(body.contains("\"ok\""));
    let (status, first) = client.get_text("/metrics").unwrap();
    assert_eq!(status, 200);
    lint(&first).unwrap();

    // More traffic between scrapes, including a 404 (errors count too).
    for _ in 0..3 {
        client.get_text("/healthz").unwrap();
    }
    let (not_found, _) = client.get_text("/nope").unwrap();
    assert_eq!(not_found, 404);

    let (head, second) = raw_get(server.addr(), "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"));
    let ct_line = format!("content-type: {CONTENT_TYPE}");
    assert!(
        head.to_ascii_lowercase().contains(&ct_line),
        "missing exposition content type in {head:?}"
    );
    lint(&second).unwrap();

    let before = Scrape::parse(&first).unwrap();
    let after = Scrape::parse(&second).unwrap();
    for series in [
        "atpm_net_accepted_total",
        "atpm_net_dispatched_total",
        "atpm_net_conns_closed_total",
        "atpm_http_request_seconds_count",
        "atpm_http_request_seconds_sum",
        "atpm_serve_shed_503_total",
    ] {
        let (a, b) = (
            before
                .value(series, &[])
                .unwrap_or_else(|| panic!("{series} missing")),
            after
                .value(series, &[])
                .unwrap_or_else(|| panic!("{series} missing")),
        );
        assert!(b >= a, "{series} went backwards: {a} -> {b}");
    }
    // The 5 requests between the scrapes (4 healthz + the 404) plus the
    // first scrape itself are all visible to the second one.
    let healthz = |s: &Scrape| s.value("atpm_http_route_seconds_count", &[("route", "healthz")]);
    assert_eq!(healthz(&after).unwrap() - healthz(&before).unwrap(), 3.0);
    let other = |s: &Scrape| s.value("atpm_http_route_seconds_count", &[("route", "other")]);
    assert_eq!(other(&after).unwrap() - other(&before).unwrap(), 1.0);
    let total = |s: &Scrape| s.value("atpm_http_request_seconds_count", &[]);
    assert_eq!(total(&after).unwrap() - total(&before).unwrap(), 5.0);
    let q = |p| after.histogram_quantile("atpm_http_request_seconds", &[], p);
    let (p50, p95, p99) = (q(0.5).unwrap(), q(0.95).unwrap(), q(0.99).unwrap());
    assert!(
        0.0 < p50 && p50 <= p95 && p95 <= p99,
        "request quantiles {p50} {p95} {p99}"
    );

    // The exposition answers on every path the router reads as /metrics,
    // the same paths the route histogram times under route="metrics".
    for path in ["/metrics/", "//metrics"] {
        let (status, text) = client.get_text(path).unwrap();
        assert_eq!(status, 200, "GET {path}: {text}");
        lint(&text).unwrap_or_else(|e| panic!("GET {path}: {e}"));
    }
    server.shutdown();
}

#[test]
fn stage_metrics_session_gauge_and_trace_dump_cover_a_full_run() {
    let _guard = serial();
    let trace_path = std::env::temp_dir().join(format!("atpm-trace-{}.json", std::process::id()));
    let cfg = ServeConfig {
        trace_path: Some(trace_path.to_string_lossy().into_owned()),
        ..config()
    };
    let mut server = Server::start(AppState::new(), &cfg).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    // Build a snapshot through the wire: the RIS sampler runs inside the
    // server with tracing enabled, so stage counters land on the global
    // registry and spans land in the tracer.
    client
        .create_snapshot(&SnapshotReq {
            name: "obs".into(),
            source: SnapshotSource::Preset {
                dataset: "nethept".into(),
                scale: 0.02,
            },
            k: 4,
            rr_theta: 4_000,
            seed: 1,
            threads: 1,
        })
        .unwrap();
    let token = client
        .create_session(&CreateSessionReq {
            snapshot: "obs".into(),
            policy: PolicySpec::DeployAll,
            world_seed: 7,
        })
        .unwrap();

    let (_, body) = client.get_text("/metrics").unwrap();
    lint(&body).unwrap();
    let scrape = Scrape::parse(&body).unwrap();
    // Global-registry families merged into the serve exposition.
    assert!(scrape.value("atpm_ris_batches_total", &[]).unwrap() >= 1.0);
    assert!(scrape.value("atpm_ris_sets_total", &[]).unwrap() >= 4_000.0);
    // Session lifecycle: one live session, visible both as the gauge and
    // in /healthz (which reads the same manager).
    assert_eq!(scrape.value("atpm_serve_sessions_active", &[]), Some(1.0));
    assert_eq!(
        scrape.value("atpm_serve_sessions_created_total", &[]),
        Some(1.0)
    );
    let (_, health) = client.get_text("/healthz").unwrap();
    assert!(health.contains("\"sessions\":1"), "healthz: {health}");
    let route = |r: &str| scrape.value("atpm_http_route_seconds_count", &[("route", r)]);
    assert_eq!(route("snapshots_create"), Some(1.0));
    assert_eq!(route("session_create"), Some(1.0));

    client.delete_session(&token).unwrap();
    let (_, body) = client.get_text("/metrics").unwrap();
    let scrape = Scrape::parse(&body).unwrap();
    assert_eq!(scrape.value("atpm_serve_sessions_active", &[]), Some(0.0));
    assert_eq!(
        scrape.value("atpm_serve_sessions_deleted_total", &[]),
        Some(1.0)
    );

    // A capped HATP run: every candidate it examined is one decision,
    // counted under its stop reason; a kept seed is one of them.
    let decisions = |s: &Scrape| -> f64 {
        ["c1", "c2", "forced"]
            .iter()
            .map(|stop| {
                s.value(
                    "atpm_policy_decisions_total",
                    &[("policy", "hatp"), ("stop", stop)],
                )
                .unwrap_or_else(|| panic!("missing stop={stop}"))
            })
            .sum()
    };
    assert_eq!(decisions(&scrape), 0.0, "no HATP session yet");
    let sets_before = scrape.value("atpm_ris_sets_total", &[]).unwrap();
    let ledger = client
        .run_session(&CreateSessionReq {
            snapshot: "obs".into(),
            policy: PolicySpec::Hatp {
                eps_threshold: None,
                max_theta: Some(1 << 10),
                seed: 3,
                threads: 1,
            },
            world_seed: 7,
        })
        .unwrap();
    let (_, body) = client.get_text("/metrics").unwrap();
    lint(&body).unwrap();
    let scrape = Scrape::parse(&body).unwrap();
    let counted = decisions(&scrape);
    assert!(
        counted >= ledger.selected.len().max(1) as f64,
        "{counted} decisions for {} seeds",
        ledger.selected.len()
    );
    // Every RR set the session's pools drew is counted as generated.
    let sets = scrape.value("atpm_ris_sets_total", &[]).unwrap() - sets_before;
    assert!(ledger.sampling_work > 0, "the HATP session sampled");
    assert!(
        sets >= ledger.sampling_work as f64,
        "{sets} RR sets counted for a session that drew {}",
        ledger.sampling_work
    );

    // Shutdown dumps the Chrome trace; the RIS stage spans from the
    // snapshot build must be in it.
    server.shutdown();
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    std::fs::remove_file(&trace_path).ok();
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(
        trace.contains("\"ph\":\"X\""),
        "no duration events in trace"
    );
    assert!(
        trace.contains("\"cat\":\"ris\""),
        "no RIS stage spans in trace"
    );
    atpm_obs::tracer().set_enabled(false);
}
