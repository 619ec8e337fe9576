//! A seeding campaign driven through the serve protocol — in-process, no
//! sockets.
//!
//! `LocalClient` speaks the exact protocol the HTTP server exposes (same
//! router, same typed messages), so this example is both a usage guide for
//! embedding the service and a living spec of the wire format. The flow is
//! a miniature marketing campaign:
//!
//! 1. load a snapshot (graph + targets + costs + prebuilt RR index),
//! 2. ask the snapshot for a warm-start spread estimate of its target set,
//! 3. open an adaptive HATP session, drive the serve-observe-update loop,
//! 4. compare the realized ledger with a cheap DeployAll baseline session.
//!
//! Run with: `cargo run --release --example serve_campaign`

use adaptive_tpm::serve::client::{LocalClient, ProtocolClient};
use adaptive_tpm::serve::json::Json;
use adaptive_tpm::serve::protocol::{
    CreateSessionReq, ObserveReq, PolicySpec, SnapshotReq, SnapshotSource,
};
use adaptive_tpm::serve::server::AppState;

fn main() {
    let mut client = LocalClient::new(AppState::new());

    // 1. Load a snapshot: NetHEPT stand-in, 8 IMM-selected targets with
    //    degree-proportional calibrated costs, 10k indexed RR sets.
    let info = client
        .create_snapshot(&SnapshotReq {
            name: "campaign".into(),
            source: SnapshotSource::Preset {
                dataset: "nethept".into(),
                scale: 0.05,
            },
            k: 8,
            rr_theta: 10_000,
            seed: 7,
            threads: 1,
        })
        .expect("snapshot build");
    println!(
        "snapshot: {} nodes, {} edges, {} targets, total cost {:.1}",
        info.get("nodes").unwrap().as_u64().unwrap(),
        info.get("edges").unwrap().as_u64().unwrap(),
        info.get("targets").unwrap().as_u64().unwrap(),
        info.get("total_cost").unwrap().as_f64().unwrap(),
    );

    // 2. Warm-start estimate from the prebuilt index (no resampling).
    let targets: Vec<u32> = {
        // The protocol has no "list targets" call; estimate the first few
        // node ids just to demonstrate the endpoint.
        (0..5).collect()
    };
    let est = client
        .call(
            "POST",
            "/snapshots/campaign/estimate",
            &Json::obj([("nodes", Json::nums(targets.iter().copied()))]),
        )
        .expect("estimate");
    println!(
        "estimated spread of nodes 0..5: {:.1} (from {} stored RR sets)",
        est.get("spread").unwrap().as_f64().unwrap(),
        est.get("rr_sets").unwrap().as_u64().unwrap(),
    );

    // 3. An adaptive HATP session, stepped seed by seed. `simulate: true`
    //    asks the server to realize each cascade in the session's own
    //    possible world — a real deployment would instead POST the observed
    //    activations (`ObserveReq::Report`).
    let token = client
        .create_session(&CreateSessionReq {
            snapshot: "campaign".into(),
            policy: PolicySpec::Hatp {
                eps_threshold: Some(0.1),
                max_theta: Some(1 << 16),
                seed: 1,
                threads: 1,
            },
            world_seed: 42,
        })
        .expect("create session");
    while let Some(seeds) = client.next(&token).expect("next") {
        for seed in seeds {
            let obs = client
                .observe(&token, &ObserveReq::Simulate { seed })
                .expect("observe");
            println!(
                "  committed seed {seed}: cascade activated {} nodes",
                obs.get("newly_activated").unwrap().as_u64().unwrap(),
            );
        }
    }
    let hatp_ledger = client.ledger(&token).expect("ledger");
    println!(
        "HATP: {} seeds, {} activated, profit {:.2}, {} RR sets sampled",
        hatp_ledger.selected.len(),
        hatp_ledger.total_activated,
        hatp_ledger.profit,
        hatp_ledger.sampling_work,
    );
    client.delete_session(&token).expect("delete");

    // 4. Baseline for comparison: deploy every target, same world.
    let baseline = client
        .run_session(&CreateSessionReq {
            snapshot: "campaign".into(),
            policy: PolicySpec::DeployAll,
            world_seed: 42,
        })
        .expect("baseline run");
    println!(
        "DeployAll: {} seeds, {} activated, profit {:.2}",
        baseline.selected.len(),
        baseline.total_activated,
        baseline.profit,
    );
    println!(
        "HATP profit − DeployAll profit: {:+.2} (either sign is possible: \
         cost calibration keeps the whole target set ~profitable)",
        hatp_ledger.profit - baseline.profit,
    );
}
