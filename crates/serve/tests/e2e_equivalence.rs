//! End-to-end protocol equivalence: a full adaptive run driven through the
//! HTTP protocol must produce the **byte-identical** seed sequence and
//! profit ledger as the same policy run in-process via `AdaptiveSession`,
//! for the same possible world.
//!
//! This is the serve layer's core correctness property — the network hop,
//! the suspend/resume cycle per request, the JSON codec, and the stepper
//! inversion must all be transparent. It holds for every steppable policy
//! and world seed; the test sweeps HATP (the paper's flagship), ARS, and
//! the DeployAll baseline over several worlds, property-test style.

use std::sync::Arc;

use atpm_core::{AdaptivePolicy, AdaptiveSession};
use atpm_graph::GraphView;
use atpm_serve::client::{HttpClient, LocalClient, ProtocolClient};
use atpm_serve::protocol::{
    CreateSessionReq, Ledger, ObserveReq, PolicySpec, SnapshotReq, SnapshotSource,
};
use atpm_serve::server::{AppState, ServeConfig, Server};
use atpm_serve::snapshot::Snapshot;

const WORLDS: [u64; 4] = [1, 7, 20200420, u64::MAX / 3];

fn snapshot_req() -> SnapshotReq {
    SnapshotReq {
        name: "e2e".into(),
        source: SnapshotSource::Preset {
            dataset: "nethept".into(),
            scale: 0.02, // ~300 nodes: big enough for real cascades, fast
        },
        k: 6,
        rr_theta: 5_000,
        seed: 9,
        threads: 2,
    }
}

/// An in-process runner equivalent to a wire spec.
type PolicyRunner = Box<dyn FnMut(&mut AdaptiveSession<'_>) -> Vec<u32>>;

/// The policies under test, as (wire spec, equivalent in-process runner).
fn policies() -> Vec<(PolicySpec, PolicyRunner)> {
    use atpm_core::policies::{Ars, DeployAll, Hatp, ThresholdBatch};
    let hatp_spec = PolicySpec::Hatp {
        eps_threshold: Some(0.1),
        max_theta: Some(1 << 16),
        seed: 5,
        threads: 2,
    };
    let mut hatp = Hatp {
        eps_threshold: 0.1,
        max_theta: 1 << 16,
        seed: 5,
        threads: 2,
        ..Default::default()
    };
    let ars_spec = PolicySpec::Ars { prob: 0.5, seed: 3 };
    let mut ars = Ars { prob: 0.5, seed: 3 };
    let deploy_spec = PolicySpec::DeployAll;
    let mut deploy = DeployAll;
    // The in-process reference runs batches of 1: these sweeps drive the
    // single-seed protocol verbs, and ThresholdBatch's threshold floor
    // depends on the round's k.
    let tb_spec = PolicySpec::ThresholdBatch {
        theta: 4_000,
        eps: 0.1,
        seed: 13,
        threads: 2,
    };
    let mut tb = ThresholdBatch {
        theta: 4_000,
        eps: 0.1,
        batch: 1,
        seed: 13,
        threads: 2,
    };
    vec![
        (
            hatp_spec,
            Box::new(move |s: &mut AdaptiveSession<'_>| hatp.run(s)),
        ),
        (
            ars_spec,
            Box::new(move |s: &mut AdaptiveSession<'_>| ars.run(s)),
        ),
        (
            deploy_spec,
            Box::new(move |s: &mut AdaptiveSession<'_>| deploy.run(s)),
        ),
        (
            tb_spec,
            Box::new(move |s: &mut AdaptiveSession<'_>| tb.run(s)),
        ),
    ]
}

/// Runs the policy in-process on `snapshot`'s instance and returns its
/// ledger in wire form for exact comparison.
fn in_process_ledger(
    snapshot: &Snapshot,
    run: &mut dyn FnMut(&mut AdaptiveSession<'_>) -> Vec<u32>,
    algorithm: &str,
    world: u64,
) -> Ledger {
    let mut session = AdaptiveSession::new(&snapshot.instance, world);
    let selected = run(&mut session);
    Ledger {
        algorithm: algorithm.to_string(),
        selected,
        profit: session.profit(),
        total_activated: session.total_activated(),
        num_alive: session.residual().num_alive(),
        sampling_work: session.sampling_work(),
        rounds: session.rounds(),
        oracle_queries: session.oracle_queries(),
        done: true,
    }
}

fn assert_ledgers_identical(via_protocol: &Ledger, in_process: &Ledger, label: &str) {
    assert_eq!(
        via_protocol.selected, in_process.selected,
        "{label}: seed sequences diverged"
    );
    assert_eq!(
        via_protocol.profit.to_bits(),
        in_process.profit.to_bits(),
        "{label}: profit not byte-identical ({} vs {})",
        via_protocol.profit,
        in_process.profit
    );
    assert_eq!(
        via_protocol.total_activated, in_process.total_activated,
        "{label}"
    );
    assert_eq!(via_protocol.num_alive, in_process.num_alive, "{label}");
    assert_eq!(
        via_protocol.sampling_work, in_process.sampling_work,
        "{label}"
    );
    assert_eq!(via_protocol.rounds, in_process.rounds, "{label}");
    assert_eq!(
        via_protocol.oracle_queries, in_process.oracle_queries,
        "{label}"
    );
    assert!(via_protocol.done, "{label}: protocol run must finish");
}

#[test]
fn http_protocol_run_is_byte_identical_to_in_process_run() {
    let state = AppState::new();
    let snapshot = state
        .store
        .insert(Snapshot::build(&snapshot_req()).unwrap());
    let mut server = Server::start(state, &ServeConfig::default()).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    for (spec, mut run) in policies() {
        let name = match &spec {
            PolicySpec::Hatp { .. } => "HATP",
            PolicySpec::Ars { .. } => "ARS",
            PolicySpec::DeployAll => "DeployAll",
            PolicySpec::ThresholdBatch { .. } => "ThresholdBatch",
        };
        for world in WORLDS {
            let label = format!("{name} world={world}");
            let via_http = client
                .run_session(&CreateSessionReq {
                    snapshot: "e2e".into(),
                    policy: spec.clone(),
                    world_seed: world,
                })
                .unwrap_or_else(|e| panic!("{label}: {e}"));
            let reference = in_process_ledger(&snapshot, run.as_mut(), name, world);
            assert_ledgers_identical(&via_http, &reference, &label);
        }
    }
    server.shutdown();
}

#[test]
fn local_client_run_is_byte_identical_to_in_process_run() {
    // Same property, no sockets: pins that LocalClient and the HTTP path
    // share one dispatcher.
    let state = AppState::new();
    let snapshot = state
        .store
        .insert(Snapshot::build(&snapshot_req()).unwrap());
    let mut client = LocalClient::new(state);

    for (spec, mut run) in policies() {
        let name = match &spec {
            PolicySpec::Hatp { .. } => "HATP",
            PolicySpec::Ars { .. } => "ARS",
            PolicySpec::DeployAll => "DeployAll",
            PolicySpec::ThresholdBatch { .. } => "ThresholdBatch",
        };
        for world in WORLDS.into_iter().take(2) {
            let via_local = client
                .run_session(&CreateSessionReq {
                    snapshot: "e2e".into(),
                    policy: spec.clone(),
                    world_seed: world,
                })
                .unwrap();
            let reference = in_process_ledger(&snapshot, run.as_mut(), name, world);
            assert_ledgers_identical(&via_local, &reference, &format!("local {name} {world}"));
        }
    }
}

#[test]
fn interleaved_concurrent_sessions_do_not_contaminate_each_other() {
    // Two HATP sessions on different worlds advanced in lockstep over one
    // shared server must each match their isolated in-process runs — the
    // per-session state carries everything; nothing leaks through the
    // shared snapshot.
    let state = AppState::new();
    let snapshot = state
        .store
        .insert(Snapshot::build(&snapshot_req()).unwrap());
    let mut server = Server::start(state, &ServeConfig::default()).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();

    let spec = PolicySpec::Hatp {
        eps_threshold: Some(0.1),
        max_theta: Some(1 << 16),
        seed: 5,
        threads: 2,
    };
    let worlds = [11u64, 42u64];
    let tokens: Vec<String> = worlds
        .iter()
        .map(|&w| {
            client
                .create_session(&CreateSessionReq {
                    snapshot: "e2e".into(),
                    policy: spec.clone(),
                    world_seed: w,
                })
                .unwrap()
        })
        .collect();

    // Round-robin drive until both finish.
    let mut open: Vec<bool> = vec![true; tokens.len()];
    while open.iter().any(|&o| o) {
        for (i, token) in tokens.iter().enumerate() {
            if !open[i] {
                continue;
            }
            match client.next(token).unwrap() {
                None => open[i] = false,
                Some(seeds) => {
                    for seed in seeds {
                        client
                            .observe(token, &ObserveReq::Simulate { seed })
                            .unwrap();
                    }
                }
            }
        }
    }

    for (i, &w) in worlds.iter().enumerate() {
        let via_http = client.ledger(&tokens[i]).unwrap();
        let mut hatp = atpm_core::policies::Hatp {
            eps_threshold: 0.1,
            max_theta: 1 << 16,
            seed: 5,
            threads: 2,
            ..Default::default()
        };
        let reference = in_process_ledger(&snapshot, &mut |s| hatp.run(s), "HATP", w);
        assert_ledgers_identical(&via_http, &reference, &format!("interleaved world {w}"));
    }
    server.shutdown();
}

#[test]
fn report_mode_with_client_side_simulation_matches_too() {
    // The fully inverted protocol: the *client* owns the world and reports
    // activations (what a real deployment does). A client-side twin session
    // simulates cascades; the server never touches its realization.
    let state = AppState::new();
    let snapshot = state
        .store
        .insert(Snapshot::build(&snapshot_req()).unwrap());
    let mut client = LocalClient::new(state);

    for world in [3u64, 8u64] {
        let token = client
            .create_session(&CreateSessionReq {
                snapshot: "e2e".into(),
                policy: PolicySpec::DeployAll,
                world_seed: 0, // server world deliberately unused
            })
            .unwrap();
        // Client-side world: the session a real deployment would *be*.
        let mut world_session = AdaptiveSession::new(&snapshot.instance, world);
        while let Some(seeds) = client.next(&token).unwrap() {
            for seed in seeds {
                let activated = world_session.select(seed);
                client
                    .observe(&token, &ObserveReq::Report { seed, activated })
                    .unwrap();
            }
        }
        let via_protocol = client.ledger(&token).unwrap();
        let mut deploy = atpm_core::policies::DeployAll;
        let reference = in_process_ledger(&snapshot, &mut |s| deploy.run(s), "DeployAll", world);
        assert_ledgers_identical(&via_protocol, &reference, &format!("report world {world}"));
        client.delete_session(&token).unwrap();
    }
}

#[test]
fn batch_routes_at_k1_are_byte_identical_to_single_seed_protocol_on_both_backends() {
    // The tentpole invariant: a batched drive with k = 1 through the new
    // next_batch/observe_batch routes must produce the byte-identical seed
    // sequence and profit ledger as the single-seed next/observe protocol
    // over HTTP.
    let state = AppState::new();
    state
        .store
        .insert(Snapshot::build(&snapshot_req()).unwrap());
    let mut server = Server::start(state, &ServeConfig::default()).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    for (spec, _) in policies() {
        for world in WORLDS.into_iter().take(2) {
            let req = CreateSessionReq {
                snapshot: "e2e".into(),
                policy: spec.clone(),
                world_seed: world,
            };
            let single = client.run_session(&req).unwrap();
            let batched = client.run_session_batched(&req, 1).unwrap();
            let label = format!("{} world={world}", single.algorithm);
            assert_eq!(batched, single, "{label}: ledgers diverged");
            assert_eq!(
                batched.profit.to_bits(),
                single.profit.to_bits(),
                "{label}: profit not byte-identical"
            );
            assert_eq!(batched.rounds, single.rounds, "{label}");
            assert_eq!(batched.oracle_queries, single.oracle_queries, "{label}");
        }
    }
    server.shutdown();
}

#[test]
fn batched_rounds_converge_in_fewer_round_trips_with_the_same_outcome() {
    // ThresholdBatch at k = 4 must finish in strictly fewer adaptivity
    // rounds than at k = 1 while staying a valid run (the quality trade is
    // bounded, not byte-pinned — decisions legitimately differ across k).
    let state = AppState::new();
    state
        .store
        .insert(Snapshot::build(&snapshot_req()).unwrap());
    let mut client = LocalClient::new(state);
    let spec = PolicySpec::ThresholdBatch {
        theta: 4_000,
        eps: 0.1,
        seed: 13,
        threads: 2,
    };
    for world in WORLDS.into_iter().take(2) {
        let req = CreateSessionReq {
            snapshot: "e2e".into(),
            policy: spec.clone(),
            world_seed: world,
        };
        let k1 = client.run_session_batched(&req, 1).unwrap();
        let k4 = client.run_session_batched(&req, 4).unwrap();
        assert!(k4.done && k1.done, "world {world}");
        assert!(
            k1.selected.len() <= 1 || k4.rounds < k1.rounds,
            "world {world}: k=4 took {} rounds vs {} at k=1",
            k4.rounds,
            k1.rounds
        );
        assert!(!k4.selected.is_empty(), "world {world}");
    }

    // Over HTTP, every policy at K=4 finishes and, summed over the specs
    // and worlds, spends strictly fewer rounds (round trips) than at K=1.
    let state = AppState::new();
    state
        .store
        .insert(Snapshot::build(&snapshot_req()).unwrap());
    let mut server = Server::start(state, &ServeConfig::default()).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let mut rounds = [0u64; 2];
    for (spec, _) in policies() {
        for world in WORLDS.into_iter().take(2) {
            let req = CreateSessionReq {
                snapshot: "e2e".into(),
                policy: spec.clone(),
                world_seed: world,
            };
            for (total, k) in rounds.iter_mut().zip([1, 4]) {
                let ledger = client.run_session_batched(&req, k).unwrap();
                assert!(ledger.done, "{} world={world} k={k}", ledger.algorithm);
                *total += ledger.rounds;
            }
        }
    }
    server.shutdown();
    let [k1, k4] = rounds;
    assert!(k4 < k1, "K=4 took {k4} rounds, K=1 took {k1}");
}

#[test]
fn snapshot_arc_is_shared_not_copied() {
    let state = AppState::new();
    let arc = state
        .store
        .insert(Snapshot::build(&snapshot_req()).unwrap());
    assert_eq!(Arc::strong_count(&arc), 2, "store + test");
    let mut client = LocalClient::new(state.clone());
    let token = client
        .create_session(&CreateSessionReq {
            snapshot: "e2e".into(),
            policy: PolicySpec::DeployAll,
            world_seed: 1,
        })
        .unwrap();
    assert_eq!(Arc::strong_count(&arc), 3, "session holds a reference");
    client.delete_session(&token).unwrap();
    assert_eq!(Arc::strong_count(&arc), 2);
}

/// `n_alive · hits / θ`, with `hits` counted by brute force over every
/// stored set: the value `/estimate` must answer bit for bit.
fn brute_force_spread(snapshot: &Snapshot, nodes: &[u32]) -> f64 {
    let rr = &snapshot.rr;
    let hits = (0..rr.len())
        .filter(|&i| rr.set(i).iter().any(|u| nodes.contains(u)))
        .count();
    rr.n_alive() as f64 * hits as f64 / rr.len() as f64
}

/// Node lists covering the query shapes: empty, duplicates, every target,
/// and targets mixed with non-targets.
fn estimate_queries(snapshot: &Snapshot) -> Vec<Vec<u32>> {
    let targets = snapshot.instance.target().to_vec();
    let others: Vec<u32> = (0..snapshot.instance.graph().num_nodes() as u32)
        .filter(|u| !targets.contains(u))
        .take(5)
        .collect();
    let mut mixed = others.clone();
    mixed.insert(1, targets[0]);
    mixed.push(targets[targets.len() - 1]);
    vec![
        vec![],
        vec![targets[0], targets[0], others[0], targets[0], others[0]],
        targets.clone(),
        mixed,
    ]
}

fn estimate_via(client: &mut dyn ProtocolClient, snapshot: &str, nodes: &[u32]) -> f64 {
    client
        .call(
            "POST",
            &format!("/snapshots/{snapshot}/estimate"),
            &atpm_serve::Json::obj([("nodes", atpm_serve::Json::nums(nodes.iter().copied()))]),
        )
        .unwrap_or_else(|e| panic!("estimate on {snapshot}: {e}"))
        .get("spread")
        .and_then(atpm_serve::Json::as_f64)
        .expect("spread field")
}

#[test]
fn estimate_answers_the_brute_force_count_bit_for_bit_on_both_backends() {
    // Two snapshots with different θ, queried alternately from one client:
    // each must keep its own answer, whatever the other was last asked.
    let state = AppState::new();
    let a = state
        .store
        .insert(Snapshot::build(&snapshot_req()).unwrap());
    let b = state.store.insert(
        Snapshot::build(&SnapshotReq {
            name: "e2e_b".into(),
            rr_theta: 3_001,
            seed: 4,
            ..snapshot_req()
        })
        .unwrap(),
    );
    assert_ne!(a.rr.len(), b.rr.len());
    let mut server = Server::start(state.clone(), &ServeConfig::default()).unwrap();
    let mut http = HttpClient::connect(server.addr()).unwrap();
    let mut local = LocalClient::new(state);
    let cases: Vec<(&Snapshot, Vec<u32>, f64)> = [&a, &b]
        .into_iter()
        .flat_map(|snap| {
            estimate_queries(snap).into_iter().map(move |nodes| {
                let want = brute_force_spread(snap, &nodes);
                (&**snap, nodes, want)
            })
        })
        .collect();
    assert!(cases.iter().any(|(_, _, want)| *want > 0.0));
    for round in 0..2 {
        // Alternate a, b, a, b, ... by interleaving the two halves.
        let half = cases.len() / 2;
        for i in 0..half {
            for (snap, nodes, want) in [&cases[i], &cases[half + i]] {
                for (backend, client) in [
                    ("http", &mut http as &mut dyn ProtocolClient),
                    ("local", &mut local as &mut dyn ProtocolClient),
                ] {
                    let got = estimate_via(client, &snap.name, nodes);
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "round {round}, {backend}, snapshot {}, nodes {nodes:?}: {got} vs {want}",
                        snap.name
                    );
                }
            }
        }
    }
    server.shutdown();
}
