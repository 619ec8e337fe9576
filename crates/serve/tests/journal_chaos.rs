//! Disk-fault chaos, end to end over real sockets: injected journal I/O
//! failures (failing fsync, ENOSPC writes) must flip the server into
//! degraded mode — mutating session routes answer `503 + Retry-After`,
//! read routes and the observability surface keep serving, and nothing
//! ever crashes or silently acks. Plus the happy-path durability drills:
//! checkpoint + tail recovery is bit-equal, a failed shutdown fsync is
//! surfaced to the exit path, and a torn tail is counted and logged.
//!
//! Named in the CI chaos job: these tests pin the acceptance criteria of
//! the durability overhaul (degraded-mode 503s, kill−9 recovery).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use atpm_serve::client::{HttpClient, LocalClient, ProtocolClient};
use atpm_serve::journal::{FaultIo, FsyncPolicy, IoSite, Journal, RealIo};
use atpm_serve::json::Json;
use atpm_serve::protocol::{CreateSessionReq, ObserveReq, PolicySpec, SnapshotReq, SnapshotSource};
use atpm_serve::server::{AppState, ServeConfig, Server};
use atpm_serve::snapshot::Snapshot;

fn snapshot_req() -> SnapshotReq {
    SnapshotReq {
        name: "g".into(),
        source: SnapshotSource::Preset {
            dataset: "nethept".into(),
            scale: 0.02,
        },
        k: 5,
        rr_theta: 5_000,
        seed: 1,
        threads: 1,
    }
}

fn state_with_snapshot() -> Arc<AppState> {
    let state = AppState::new();
    state
        .store
        .insert(Snapshot::build(&snapshot_req()).unwrap());
    state
}

fn session_req() -> CreateSessionReq {
    CreateSessionReq {
        snapshot: "g".into(),
        policy: PolicySpec::DeployAll,
        world_seed: 17,
    }
}

fn tmppath(tag: &str) -> std::path::PathBuf {
    let mut d = std::env::temp_dir();
    d.push(format!("atpm-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d.join("journal")
}

/// One raw HTTP exchange, returning the full response text (status line,
/// headers, body) — the JSON clients hide headers, and degraded-mode
/// `Retry-After` is a header-level contract.
fn raw_call(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    let mut text = String::new();
    stream.read_to_string(&mut text).unwrap();
    text
}

/// Boots a journal-less server, then hands the manager a journal over the
/// scripted [`FaultIo`] — the route surface sees a real journaling server,
/// but every file op can be made to fail on cue.
fn server_with_fault_journal(
    policy: FsyncPolicy,
    io: FaultIo,
    tag: &str,
) -> (Server, Arc<AppState>) {
    let path = tmppath(tag);
    let state = state_with_snapshot();
    let (journal, existing) = Journal::open_with(&path, policy, Arc::new(io)).unwrap();
    assert!(existing.is_empty());
    state.manager.recover(journal, &existing);
    let server = Server::start(state.clone(), &ServeConfig::default()).unwrap();
    (server, state)
}

#[test]
fn failed_fsync_degrades_mutations_to_503_with_retry_after_but_reads_keep_serving() {
    // fsync 1 = session create, 2 = next; the 3rd (observe) fails.
    let io = FaultIo::new().fail(IoSite::Fsync, 3, atpm_net::fault::ENOSPC);
    let (mut server, state) = server_with_fault_journal(FsyncPolicy::Always, io, "fsyncfail");
    let addr = server.addr();
    let mut client = HttpClient::connect(addr).unwrap();

    let token = client.create_session(&session_req()).unwrap();
    let seed = client.next(&token).unwrap().unwrap()[0];

    // The observe's durability barrier fails: the transition may not be on
    // disk, so it must NOT be acked — fsyncgate semantics, no
    // retry-and-pretend.
    let resp = raw_call(
        addr,
        "POST",
        &format!("/sessions/{token}/observe"),
        &ObserveReq::Simulate { seed }.to_json().encode(),
    );
    assert!(
        resp.starts_with("HTTP/1.1 503"),
        "failed fsync must refuse the ack, got:\n{resp}"
    );
    assert!(
        resp.to_ascii_lowercase().contains("retry-after: 1"),
        "degraded 503 must carry Retry-After, got:\n{resp}"
    );
    assert!(resp.contains("journal degraded"), "got:\n{resp}");
    assert!(state.manager.journal_degraded());

    // Every later mutation is refused fast by the degraded gate...
    for (method, path, body) in [
        (
            "POST",
            "/sessions".to_string(),
            session_req().to_json().encode(),
        ),
        ("POST", format!("/sessions/{token}/next"), String::new()),
        (
            "POST",
            format!("/sessions/{token}/next_batch"),
            r#"{"k":4}"#.to_string(),
        ),
        (
            "POST",
            format!("/sessions/{token}/observe_batch"),
            format!(r#"{{"seeds":[{seed}],"simulate":true}}"#),
        ),
        ("DELETE", format!("/sessions/{token}"), String::new()),
    ] {
        let resp = raw_call(addr, method, &path, &body);
        assert!(
            resp.starts_with("HTTP/1.1 503") && resp.to_ascii_lowercase().contains("retry-after"),
            "{method} {path} must answer 503 + Retry-After while degraded, got:\n{resp}"
        );
    }

    // ...while reads and the observability surface keep serving.
    let ledger = client
        .call("GET", &format!("/sessions/{token}/ledger"), &Json::obj([]))
        .unwrap();
    assert!(ledger.get("profit").is_some());
    let health = client.call("GET", "/healthz", &Json::obj([])).unwrap();
    assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        health.get("journal_degraded").and_then(Json::as_bool),
        Some(true),
        "healthz must report the degraded journal"
    );
    assert_eq!(
        health.get("fsync_policy").and_then(Json::as_str),
        Some("always")
    );
    let metrics = raw_call(addr, "GET", "/metrics", "");
    assert!(metrics.contains("atpm_serve_journal_fault_injected_total{site=\"fsync\"}"));

    // Graceful shutdown's final barrier hits the poisoned journal: the
    // durability failure reaches the exit path instead of vanishing.
    server.shutdown();
    assert!(
        server.durability_error().is_some(),
        "shutdown must surface the lost durability"
    );
}

#[test]
fn enospc_on_append_refuses_the_mutation_and_degrades() {
    // Write 1 is the fresh magic, 2 the create; the 3rd (next) fails.
    let io = FaultIo::new().fail(IoSite::Write, 3, atpm_net::fault::ENOSPC);
    let (mut server, state) = server_with_fault_journal(FsyncPolicy::Shutdown, io, "enospc");
    let addr = server.addr();
    let mut client = HttpClient::connect(addr).unwrap();

    let token = client.create_session(&session_req()).unwrap();
    let mut refused = 0;
    for path in [
        format!("/sessions/{token}/next"),
        format!("/sessions/{token}/next"),
    ] {
        let resp = raw_call(addr, "POST", &path, "");
        if resp.starts_with("HTTP/1.1 503") {
            refused += 1;
            assert!(
                resp.to_ascii_lowercase().contains("retry-after: 1"),
                "ENOSPC 503 must carry Retry-After, got:\n{resp}"
            );
        }
    }
    assert!(refused >= 1, "the ENOSPC append must surface as a 503");
    assert!(state.manager.journal_degraded());
    server.shutdown();
    assert!(server.durability_error().is_some());
}

#[test]
fn an_overlong_report_is_a_400_before_the_session_changes() {
    use atpm_serve::protocol::ObserveBatchReq;
    let path = tmppath("long-report");
    let state = state_with_snapshot();
    let (journal, records) = Journal::open(&path).unwrap();
    state.manager.recover(journal, &records);
    let mut client = LocalClient::new(state.clone());
    let token = client.create_session(&session_req()).unwrap();
    let seed = client.next(&token).unwrap().unwrap()[0];
    let n = state.store.get("g").unwrap().instance.graph().num_nodes();

    // One id repeated past the node count — unbounded by the body limit
    // alone, and a journal record recovery would read as a torn tail.
    let long = vec![seed; n + 1];
    let err = client
        .observe(
            &token,
            &ObserveReq::Report {
                seed,
                activated: long.clone(),
            },
        )
        .unwrap_err();
    assert_eq!(err.status, 400, "{}", err.message);
    let err = client
        .observe_batch(
            &token,
            &ObserveBatchReq::Report {
                seeds: vec![seed],
                activated: long,
            },
        )
        .unwrap_err();
    assert_eq!(err.status, 400, "{}", err.message);
    let ledger = client.ledger(&token).unwrap();
    assert!(
        ledger.selected.is_empty() && ledger.rounds == 0,
        "{ledger:?}"
    );
    assert_eq!(client.next(&token).unwrap(), Some(vec![seed]));

    // A report of exactly n ids is accepted, and the journal still
    // replays the session to the same ledger.
    client
        .observe(
            &token,
            &ObserveReq::Report {
                seed,
                activated: vec![seed; n],
            },
        )
        .unwrap();
    let live = client.ledger(&token).unwrap();
    let restarted = state_with_snapshot();
    let (journal, records) = Journal::open(&path).unwrap();
    assert_eq!(records.len(), 3, "create + next + observe");
    assert_eq!(restarted.manager.recover(journal, &records), 1);
    assert_eq!(restarted.manager.ledger(&token).unwrap(), live);
}

#[test]
fn an_oversized_record_is_refused_without_writing_or_poisoning() {
    use atpm_serve::journal::Record;
    let path = tmppath("oversize");
    let (journal, _) = Journal::open(&path).unwrap();
    let delete = |token: String| Record::Delete { token };
    journal.append(&delete("a".into())).unwrap();
    let bytes = journal.bytes();
    // Over the 16 MiB frame limit: recovery would read this frame as the
    // torn tail and truncate it away together with every later record.
    let err = journal.append(&delete("x".repeat(16 << 20))).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(!journal.poisoned(), "a refused record must not poison");
    assert_eq!(journal.bytes(), bytes);
    assert_eq!(std::fs::metadata(&path).unwrap().len(), bytes);
    journal.append(&delete("b".into())).unwrap();
    drop(journal);
    let (journal, records) = Journal::open(&path).unwrap();
    assert_eq!(records, [delete("a".into()), delete("b".into())]);
    assert!(journal.open_info().torn.is_empty());
}

/// A store holding one hand-built snapshot: `n` isolated nodes, node 0
/// the only target. No sampling, so a graph wide enough for a report to
/// outgrow the journal's record limit stays cheap to build.
fn wide_state(n: usize) -> Arc<AppState> {
    use atpm_core::TpmInstance;
    use atpm_graph::GraphBuilder;
    use atpm_ris::RrCollection;
    let state = AppState::new();
    state.store.insert(Snapshot {
        name: "wide".into(),
        instance: TpmInstance::new(GraphBuilder::new(n).build(), vec![0], &[0.5]),
        rr: RrCollection::from_sets(n, n, Vec::<Vec<u32>>::new()),
    });
    state
}

#[test]
fn an_oversized_report_is_a_413_before_the_session_changes() {
    use atpm_serve::protocol::ObserveBatchReq;
    // Every id of a 2.5M-node graph encodes to ~19 MB of JSON, over the
    // journal's 16 MiB record limit, yet passes every report check.
    let n = 2_500_000;
    let path = tmppath("oversized-report");
    let state = wide_state(n);
    let (journal, records) = Journal::open(&path).unwrap();
    state.manager.recover(journal, &records);
    let manager = &state.manager;
    let req = CreateSessionReq {
        snapshot: "wide".into(),
        ..session_req()
    };
    let (token, _, _) = manager.create(&req).unwrap();
    let seeds = manager.next_batch(&token, 1).unwrap().seeds;
    assert_eq!(seeds, [0]);
    let fresh = manager.ledger(&token).unwrap();

    let everything = ObserveBatchReq::Report {
        seeds: seeds.clone(),
        activated: (0..n as u32).collect(),
    };
    let err = manager.observe_batch(&token, &everything).unwrap_err();
    assert_eq!(err.status, 413, "{}", err.message);
    assert_eq!(manager.ledger(&token).unwrap(), fresh, "ledger unchanged");
    let retry = manager.next_batch(&token, 1).unwrap();
    assert_eq!(retry.seeds, seeds, "the batch is still pending");

    // A report the journal accepts goes through, and the journal replays
    // the session to the same ledger.
    let valid = ObserveBatchReq::Report {
        seeds: seeds.clone(),
        activated: seeds,
    };
    manager.observe_batch(&token, &valid).unwrap();
    let live = manager.ledger(&token).unwrap();
    assert_eq!((live.rounds, live.total_activated), (1, 1));
    let restarted = wide_state(n);
    let (journal, records) = Journal::open(&path).unwrap();
    assert_eq!(records.len(), 3, "create + next + observe");
    assert_eq!(restarted.manager.recover(journal, &records), 1);
    assert_eq!(restarted.manager.ledger(&token).unwrap(), live);
}

#[test]
fn checkpoint_plus_tail_recovery_is_bit_equal_after_a_kill() {
    let path = tmppath("ckp-kill");
    let cfg = ServeConfig {
        journal_path: Some(path.to_string_lossy().into_owned()),
        fsync: FsyncPolicy::Group(1),
        checkpoint_every_ms: 0, // driven by hand below
        ..ServeConfig::default()
    };

    // Reference: the same session, uninterrupted and journal-free.
    let mut reference_seeds = Vec::new();
    let reference_profit = {
        let mut client = LocalClient::new(state_with_snapshot());
        let token = client.create_session(&session_req()).unwrap();
        loop {
            match client.next(&token).unwrap() {
                None => {
                    let ledger = client
                        .call("GET", &format!("/sessions/{token}/ledger"), &Json::obj([]))
                        .unwrap();
                    break ledger.get("profit").and_then(Json::as_f64).unwrap();
                }
                Some(batch) => {
                    reference_seeds.push(batch[0]);
                    client
                        .observe(&token, &ObserveReq::Simulate { seed: batch[0] })
                        .unwrap();
                }
            }
        }
    };

    // Server A: two rounds, checkpoint, one more round — then die without
    // drain or shutdown barrier (group fsync already made the acks
    // durable).
    let token = {
        let state = state_with_snapshot();
        let server = Server::start(state.clone(), &cfg).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let token = client.create_session(&session_req()).unwrap();
        for _ in 0..2 {
            let seed = client.next(&token).unwrap().unwrap()[0];
            client
                .observe(&token, &ObserveReq::Simulate { seed })
                .unwrap();
        }
        assert_eq!(state.manager.checkpoint().unwrap(), 1);
        let seed = client.next(&token).unwrap().unwrap()[0];
        client
            .observe(&token, &ObserveReq::Simulate { seed })
            .unwrap();
        std::mem::forget(server); // kill -9, as close as one process gets
        token
    };

    // Server B recovers from checkpoint + journal tail.
    let mut server = Server::start(state_with_snapshot(), &cfg).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let health = client.call("GET", "/healthz", &Json::obj([])).unwrap();
    assert_eq!(
        health.get("recovered_sessions").and_then(Json::as_u64),
        Some(1)
    );
    assert!(
        health
            .get("last_checkpoint_seq")
            .and_then(Json::as_u64)
            .unwrap()
            > 0,
        "healthz must report the checkpoint watermark"
    );
    let mut seeds = Vec::new();
    let ledger = loop {
        match client.next(&token).unwrap() {
            None => {
                break client
                    .call("GET", &format!("/sessions/{token}/ledger"), &Json::obj([]))
                    .unwrap()
            }
            Some(batch) => {
                seeds.push(batch[0]);
                client
                    .observe(&token, &ObserveReq::Simulate { seed: batch[0] })
                    .unwrap();
            }
        }
    };
    assert_eq!(
        seeds,
        reference_seeds[3..],
        "recovery must resume the exact seed sequence"
    );
    let profit = ledger.get("profit").and_then(Json::as_f64).unwrap();
    assert_eq!(
        profit.to_bits(),
        reference_profit.to_bits(),
        "recovered profit ledger must be bit-equal to the uninterrupted run"
    );
    server.shutdown();
    assert!(server.durability_error().is_none());
}

#[test]
fn torn_tail_is_counted_and_logged_at_boot() {
    let path = tmppath("torn");
    // A committed record followed by a partial frame — the classic
    // kill−9-mid-append shape.
    {
        let (journal, _) =
            Journal::open_with(&path, FsyncPolicy::Shutdown, Arc::new(RealIo)).unwrap();
        journal
            .append(&atpm_serve::journal::Record::Create {
                id: 1,
                token: "s-1".into(),
                req: session_req(),
            })
            .unwrap();
        journal.sync().unwrap();
    }
    use std::fs::OpenOptions;
    let mut f = OpenOptions::new().append(true).open(&path).unwrap();
    f.write_all(&[0x55, 0x21, 0x00, 0x00, 0x00, 0x99]).unwrap();
    drop(f);

    let cfg = ServeConfig {
        journal_path: Some(path.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    };
    let mut server = Server::start(state_with_snapshot(), &cfg).unwrap();
    let addr = server.addr();
    let metrics = raw_call(addr, "GET", "/metrics", "");
    assert!(
        metrics.contains("atpm_serve_journal_torn_tail_total 1"),
        "torn tail must be counted, got:\n{}",
        metrics
            .lines()
            .filter(|l| l.contains("torn"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    let events = raw_call(addr, "GET", "/debug/events", "");
    assert!(
        events.contains("torn tail truncated"),
        "torn tail must land in the event ring, got:\n{events}"
    );
    server.shutdown();
}
