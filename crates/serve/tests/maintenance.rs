//! The server's maintenance thread, end to end: with a TTL and a
//! checkpoint period set, idle sessions expire and the journal is
//! checkpointed with nothing driving either by hand, what the thread
//! journals survives a restart, and shutdown does not wait out a parked
//! period.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use atpm_serve::client::{HttpClient, ProtocolClient};
use atpm_serve::json::Json;
use atpm_serve::protocol::{CreateSessionReq, ObserveReq, PolicySpec, SnapshotReq, SnapshotSource};
use atpm_serve::server::{AppState, ServeConfig, Server};
use atpm_serve::snapshot::Snapshot;

fn state_with_snapshot() -> Arc<AppState> {
    let state = AppState::new();
    state.store.insert(
        Snapshot::build(&SnapshotReq {
            name: "g".into(),
            source: SnapshotSource::Preset {
                dataset: "nethept".into(),
                scale: 0.02,
            },
            k: 5,
            rr_theta: 5_000,
            seed: 1,
            threads: 1,
        })
        .unwrap(),
    );
    state
}

/// A fresh journal path in its own temp directory.
fn journal_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("atpm-maintenance-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("journal")
}

fn field(health: &Json, name: &str) -> u64 {
    health.get(name).and_then(Json::as_u64).unwrap()
}

/// Polls `/healthz` until `done` holds; panics after 10 s.
fn wait_health(client: &mut HttpClient, what: &str, done: impl Fn(&Json) -> bool) {
    let t0 = Instant::now();
    loop {
        let health = client.call("GET", "/healthz", &Json::obj([])).unwrap();
        if done(&health) {
            return;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "{what} never happened: {}",
            health.encode()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn idle_sessions_expire_and_checkpoint_on_their_own_and_stay_gone_after_a_restart() {
    let path = journal_path("expiry");
    let cfg = ServeConfig {
        session_ttl_ms: Some(200),
        journal_path: Some(path.to_string_lossy().into_owned()),
        checkpoint_every_ms: 200,
        ..ServeConfig::default()
    };
    let req = CreateSessionReq {
        snapshot: "g".into(),
        policy: PolicySpec::DeployAll,
        world_seed: 17,
    };

    let token = {
        let mut server = Server::start(state_with_snapshot(), &cfg).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let token = client.create_session(&req).unwrap();
        let seed = client.next(&token).unwrap().unwrap()[0];
        client
            .observe(&token, &ObserveReq::Simulate { seed })
            .unwrap();
        // From here on nothing touches the session: the sweep must evict
        // it, and the checkpoint must run, without another request.
        wait_health(&mut client, "expiry and a checkpoint", |h| {
            field(h, "sessions") == 0 && field(h, "last_checkpoint_seq") > 0
        });
        let err = client.next(&token).unwrap_err();
        assert_eq!(err.status, 410, "{}", err.message);
        server.shutdown();
        token
    };

    // The eviction was journaled: a restart on the same journal recovers
    // nothing, and the token is unknown rather than expired.
    let mut server = Server::start(state_with_snapshot(), &cfg).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let health = client.call("GET", "/healthz", &Json::obj([])).unwrap();
    assert_eq!(field(&health, "recovered_sessions"), 0);
    assert_eq!(field(&health, "sessions"), 0);
    let err = client.next(&token).unwrap_err();
    assert_eq!(err.status, 404, "{}", err.message);
    server.shutdown();
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}

#[test]
fn shutdown_does_not_wait_out_a_parked_checkpoint_period() {
    let path = journal_path("park");
    let cfg = ServeConfig {
        journal_path: Some(path.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    };
    assert_eq!(cfg.checkpoint_every_ms, 300_000);
    let mut server = Server::start(AppState::new(), &cfg).unwrap();
    // Give the maintenance thread time to park on its 300 s period.
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    server.shutdown();
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "shutdown took {:?}",
        t0.elapsed()
    );
    let _ = std::fs::remove_dir_all(path.parent().unwrap());
}
