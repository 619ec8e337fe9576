//! Crash-safe durability, end to end over real sockets: a server journaling
//! to `--journal`-style config is killed mid-session (process-level kill is
//! simulated by leaking the server — no drain, no shutdown, no fsync), a
//! fresh server replays the same journal, and the recovered session must
//! continue **bit-for-bit** where the lost one stopped: same pending seed
//! for the client's retried `next`, same seed sequence overall, same profit
//! ledger as an uninterrupted reference run.

use std::sync::Arc;

use atpm_serve::client::{HttpClient, LocalClient, ProtocolClient};
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

/// Drives `token` to completion via server-simulated observations,
/// appending each committed seed to `seeds`; returns the final ledger JSON.
fn drive<C: ProtocolClient>(client: &mut C, token: &str, seeds: &mut Vec<u32>) -> Json {
    loop {
        match client.next(token).unwrap() {
            None => {
                return client
                    .call("GET", &format!("/sessions/{token}/ledger"), &Json::obj([]))
                    .unwrap()
            }
            Some(batch) => {
                let seed = batch[0];
                seeds.push(seed);
                client
                    .observe(token, &ObserveReq::Simulate { seed })
                    .unwrap();
            }
        }
    }
}

#[test]
fn killed_mid_session_server_recovers_bit_for_bit_from_the_journal() {
    let mut path = std::env::temp_dir();
    path.push(format!("atpm-e2e-journal-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let journal_cfg = ServeConfig {
        journal_path: Some(path.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    };

    // Reference: the identical session driven uninterrupted and journal-free
    // through the in-process client (the protocol-equivalence oracle).
    let mut reference_seeds = Vec::new();
    let reference_ledger = {
        let mut client = LocalClient::new(state_with_snapshot());
        let token = client.create_session(&session_req()).unwrap();
        drive(&mut client, &token, &mut reference_seeds)
    };

    // Server A: two observed rounds, then a `next` whose seed is committed
    // (and journaled) but never observed — and the process "dies": the
    // server is leaked, so no graceful drain, shutdown, or fsync runs.
    let (token, pending, mut seeds_so_far) = {
        let server = Server::start(state_with_snapshot(), &journal_cfg).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let token = client.create_session(&session_req()).unwrap();
        let mut seeds = Vec::new();
        for _ in 0..2 {
            let seed = client.next(&token).unwrap().unwrap()[0];
            seeds.push(seed);
            client
                .observe(&token, &ObserveReq::Simulate { seed })
                .unwrap();
        }
        let pending = client.next(&token).unwrap().unwrap()[0];
        std::mem::forget(server); // kill -9, as close as one process gets
        (token, pending, seeds)
    };
    assert_eq!(seeds_so_far, reference_seeds[..2]);
    assert_eq!(pending, reference_seeds[2], "pending seed diverged");

    // Server B: fresh state, same snapshot build, same journal.
    let mut server = Server::start(state_with_snapshot(), &journal_cfg).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let health = client.call("GET", "/healthz", &Json::obj([])).unwrap();
    assert_eq!(
        health.get("recovered_sessions").and_then(Json::as_u64),
        Some(1),
        "healthz must report the recovered session"
    );
    // The client retries the `next` whose reply the crash may have eaten:
    // idempotent — the same committed seed comes back, not a 409.
    let retried = client.next(&token).unwrap().unwrap();
    assert_eq!(
        retried,
        vec![pending],
        "retried next must re-serve the pending seed"
    );
    seeds_so_far.push(pending);
    client
        .observe(&token, &ObserveReq::Simulate { seed: pending })
        .unwrap();
    let ledger = drive(&mut client, &token, &mut seeds_so_far);

    assert_eq!(
        seeds_so_far, reference_seeds,
        "recovered session must replay the exact seed sequence"
    );
    let profit = |l: &Json| l.get("profit").and_then(Json::as_f64).unwrap();
    assert_eq!(
        profit(&ledger).to_bits(),
        profit(&reference_ledger).to_bits(),
        "recovered profit ledger must be bit-equal"
    );
    assert_eq!(
        ledger.get("total_activated").and_then(Json::as_u64),
        reference_ledger
            .get("total_activated")
            .and_then(Json::as_u64)
    );
    assert_eq!(ledger.get("selected"), reference_ledger.get("selected"));

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn killed_mid_batch_server_reserves_the_exact_pending_batch() {
    use atpm_serve::protocol::ObserveBatchReq;
    let mut path = std::env::temp_dir();
    path.push(format!("atpm-e2e-journal-batch-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let journal_cfg = ServeConfig {
        journal_path: Some(path.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    };
    let batch_req = || CreateSessionReq {
        snapshot: "g".into(),
        policy: PolicySpec::ThresholdBatch {
            theta: 2_000,
            eps: 0.1,
            batch: 3,
            seed: 11,
            threads: 1,
        },
        world_seed: 17,
    };

    // Reference: the identical batched session driven uninterrupted,
    // journal-free, in process.
    let reference_ledger = {
        let mut client = LocalClient::new(state_with_snapshot());
        client.run_session_batched(&batch_req(), 3).unwrap()
    };

    // Server A: one observed batch round, then a batch whose seeds were
    // committed (and journaled) but never observed — then kill -9.
    let (token, pending) = {
        let server = Server::start(state_with_snapshot(), &journal_cfg).unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        let token = client.create_session(&batch_req()).unwrap();
        let seeds = client.next_batch(&token, 3).unwrap().unwrap();
        client
            .observe_batch(&token, &ObserveBatchReq::Simulate { seeds })
            .unwrap();
        let pending = client.next_batch(&token, 3).unwrap();
        std::mem::forget(server); // no drain, no shutdown, no fsync
        (token, pending)
    };

    // Server B: fresh state, same snapshot build, same journal. The
    // client's retried next_batch must re-serve the exact pending batch —
    // same seeds, same order — not a 409 and not a fresh decision.
    let mut server = Server::start(state_with_snapshot(), &journal_cfg).unwrap();
    let mut client = HttpClient::connect(server.addr()).unwrap();
    let retried = client.next_batch(&token, 3).unwrap();
    assert_eq!(
        retried, pending,
        "retried next_batch must re-serve the pending batch verbatim"
    );
    if let Some(seeds) = retried {
        client
            .observe_batch(&token, &ObserveBatchReq::Simulate { seeds })
            .unwrap();
    }
    while let Some(seeds) = client.next_batch(&token, 3).unwrap() {
        client
            .observe_batch(&token, &ObserveBatchReq::Simulate { seeds })
            .unwrap();
    }
    let ledger = client.ledger(&token).unwrap();
    assert_eq!(
        ledger.selected, reference_ledger.selected,
        "recovered batch session must select the exact seed sequence"
    );
    assert_eq!(
        ledger.profit.to_bits(),
        reference_ledger.profit.to_bits(),
        "recovered profit ledger must be bit-equal"
    );
    assert_eq!(ledger.rounds, reference_ledger.rounds);
    assert_eq!(ledger.total_activated, reference_ledger.total_activated);

    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// A journal written by a build that journaled the single-seed verbs as
/// their own `next`/`observe` records: one `session_req()` session with
/// two observed rounds and a third seed handed out but never observed.
/// Those ops are a retired format now.
const LEGACY_JOURNAL: &[u8] = include_bytes!("golden/legacy_single_seed.journal");

/// Re-frames an `ATPMJNL2` segment as `ATPMJNL1`: the same payloads with
/// 8-byte `len ++ crc(payload)` headers and no sequence numbers.
fn reframe_as_v1(v2: &[u8]) -> Vec<u8> {
    assert_eq!(&v2[..8], b"ATPMJNL2");
    let mut v1 = b"ATPMJNL1".to_vec();
    let mut offset = 8;
    while offset < v2.len() {
        let len = u32::from_le_bytes(v2[offset..offset + 4].try_into().unwrap()) as usize;
        let payload = &v2[offset + 16..offset + 16 + len];
        v1.extend_from_slice(&(len as u32).to_le_bytes());
        v1.extend_from_slice(&atpm_serve::journal::crc32(payload).to_le_bytes());
        v1.extend_from_slice(payload);
        offset += 16 + len;
    }
    v1
}

/// Writes `bytes` as `file` next to a journal in a fresh directory and
/// opens the journal: the open must fail naming `expected`, and the
/// directory must hold exactly that file, byte-identical.
fn assert_refused(tag: &str, file: &str, bytes: &[u8], expected: &str) {
    let mut dir = std::env::temp_dir();
    dir.push(format!("atpm-retired-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join(file), bytes).unwrap();
    let err = atpm_serve::journal::Journal::open(dir.join("journal")).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{tag}: {err}");
    assert!(err.to_string().contains(expected), "{tag}: {err}");
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1, "{tag}");
    assert_eq!(
        std::fs::read(dir.join(file)).unwrap(),
        bytes,
        "{tag}: a refused file is never rewritten"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retired_journal_and_checkpoint_formats_are_refused_untouched() {
    assert_refused(
        "ops",
        "journal",
        LEGACY_JOURNAL,
        "unknown journal op 'next'",
    );
    assert_refused("v1", "journal", &reframe_as_v1(LEGACY_JOURNAL), "ATPMJNL1");
    // A hand-written ATPMCKP1 checkpoint: its magic and head frame.
    let head = br#"{"op":"ckp-head","max_seq":0,"next_id":1,"sessions":0}"#;
    let mut ckp = b"ATPMCKP1".to_vec();
    ckp.extend_from_slice(&(head.len() as u32).to_le_bytes());
    ckp.extend_from_slice(&atpm_serve::journal::crc32(head).to_le_bytes());
    ckp.extend_from_slice(head);
    assert_refused("ckp1", "journal.ckp", &ckp, "ATPMCKP1");
}

/// Recovery fuzz: journal and checkpoint files mutilated at every byte.
/// The invariants under test — recovery must *never* panic, must never
/// invent records, and whatever it does return must be an exact committed
/// prefix (globally for a single segment; per session once a checkpoint is
/// involved).
mod fuzz {
    use super::*;
    use atpm_serve::journal::{FsyncPolicy, Journal, RealIo, Record};
    use atpm_serve::manager::SessionManager;
    use atpm_serve::protocol::ObserveBatchReq;
    use std::collections::HashMap;
    use std::path::{Path, PathBuf};

    fn tmpdir(tag: &str) -> PathBuf {
        let mut d = std::env::temp_dir();
        d.push(format!("atpm-fuzz-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_records() -> Vec<Record> {
        let mut records = vec![Record::Create {
            id: 1,
            token: "s-1".into(),
            req: session_req(),
        }];
        for round in 0..3u32 {
            records.push(Record::NextBatch {
                token: "s-1".into(),
                seeds: vec![round * 7 + 1],
                k: 1,
                done: false,
            });
            records.push(Record::ObserveBatch {
                token: "s-1".into(),
                req: ObserveBatchReq::Simulate {
                    seeds: vec![round * 7 + 1],
                },
            });
        }
        records.push(Record::Delete {
            token: "s-1".into(),
        });
        records
    }

    /// Appends `records` to a fresh journal at `path`, returning the file
    /// offset at which each record's frame ends.
    fn record_journal(path: &Path, records: &[Record]) -> Vec<u64> {
        let (journal, existing) =
            Journal::open_with(path, FsyncPolicy::Shutdown, Arc::new(RealIo)).unwrap();
        assert!(existing.is_empty());
        let ends = records
            .iter()
            .map(|r| {
                journal.append(r).unwrap();
                journal.bytes()
            })
            .collect();
        journal.sync().unwrap();
        ends
    }

    fn open_must_not_panic(path: &Path, context: &str) -> std::io::Result<(Journal, Vec<Record>)> {
        let path = path.to_path_buf();
        std::panic::catch_unwind(move || {
            Journal::open_with(&path, FsyncPolicy::Shutdown, Arc::new(RealIo))
        })
        .unwrap_or_else(|_| panic!("recovery panicked: {context}"))
    }

    #[test]
    fn truncating_the_journal_at_every_offset_recovers_the_exact_committed_prefix() {
        let dir = tmpdir("trunc");
        let master = dir.join("journal");
        let records = sample_records();
        let ends = record_journal(&master, &records);
        let bytes = std::fs::read(&master).unwrap();
        assert_eq!(*ends.last().unwrap(), bytes.len() as u64);

        for len in 0..=bytes.len() {
            let victim = dir.join(format!("t{len}"));
            std::fs::write(&victim, &bytes[..len]).unwrap();
            let result = open_must_not_panic(&victim, &format!("truncation at byte {len}"));
            if len == 0 {
                // An empty file is a fresh journal, not a corrupt one.
                assert!(result.unwrap().1.is_empty());
                continue;
            }
            if len < 8 {
                // A torn-mid-magic file is indistinguishable from a foreign
                // file: refusing to serve beats guessing.
                assert!(result.is_err(), "partial magic (len {len}) must refuse");
                continue;
            }
            let (journal, recovered) = result.unwrap();
            let committed = ends.iter().filter(|&&end| end <= len as u64).count();
            assert_eq!(
                recovered,
                records[..committed],
                "truncation at byte {len} must recover exactly the committed prefix"
            );
            let torn = !journal.open_info().torn.is_empty();
            let at_boundary = len == 8 || ends.contains(&(len as u64));
            assert_eq!(
                torn, !at_boundary,
                "torn tail at byte {len} must be reported iff mid-frame"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_bit_flips_never_panic_and_never_invent_records() {
        let dir = tmpdir("flip");
        let master = dir.join("journal");
        let records = sample_records();
        record_journal(&master, &records);
        let bytes = std::fs::read(&master).unwrap();

        for offset in 0..bytes.len() {
            for bit in [0u8, 7] {
                let mut mutated = bytes.clone();
                mutated[offset] ^= 1 << bit;
                let victim = dir.join("flip");
                std::fs::write(&victim, &mutated).unwrap();
                let context = format!("bit {bit} of byte {offset} flipped");
                let result = open_must_not_panic(&victim, &context);
                if offset < 8 {
                    assert!(result.is_err(), "{context}: bad magic must refuse");
                    continue;
                }
                // CRC32 detects every single-bit error, so the flipped
                // frame (and everything after it) is truncated away — the
                // survivors are an exact committed prefix, never a
                // reordering, never invented data.
                let (_, recovered) = result.unwrap_or_else(|e| panic!("{context}: {e}"));
                assert!(
                    recovered.len() < records.len(),
                    "{context}: the flipped frame must not survive"
                );
                assert_eq!(
                    recovered,
                    records[..recovered.len()],
                    "{context}: survivors must be an exact committed prefix"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Builds a journaled state with two live sessions, checkpoints it, and
    /// appends a post-checkpoint tail — the on-disk shape recovery merges
    /// (checkpoint + active segment).
    fn checkpointed_state(dir: &Path) -> (Arc<AppState>, PathBuf, PathBuf) {
        let journal_path = dir.join("journal");
        let state = state_with_snapshot();
        let (journal, existing) =
            Journal::open_with(&journal_path, FsyncPolicy::Shutdown, Arc::new(RealIo)).unwrap();
        assert!(existing.is_empty());
        state.manager.attach_journal(Arc::new(journal));
        let mut client = LocalClient::new(state.clone());

        // Session A: two observed rounds. Session B: one observed round
        // plus a handed-out-but-unobserved seed (pending survives the
        // checkpoint).
        let a = client.create_session(&session_req()).unwrap();
        let b = client
            .create_session(&CreateSessionReq {
                world_seed: 23,
                ..session_req()
            })
            .unwrap();
        for _ in 0..2 {
            let seed = client.next(&a).unwrap().unwrap()[0];
            client.observe(&a, &ObserveReq::Simulate { seed }).unwrap();
        }
        let seed = client.next(&b).unwrap().unwrap()[0];
        client.observe(&b, &ObserveReq::Simulate { seed }).unwrap();
        let _pending = client.next(&b).unwrap().unwrap()[0];

        assert_eq!(state.manager.checkpoint().unwrap(), 2);

        // Post-checkpoint tail: one more observed round for A.
        let seed = client.next(&a).unwrap().unwrap()[0];
        client.observe(&a, &ObserveReq::Simulate { seed }).unwrap();

        let ckp_path = dir.join("journal.ckp");
        assert!(ckp_path.exists(), "checkpoint file must exist");
        (state, journal_path, ckp_path)
    }

    /// Per-token record sequences, for prefix comparison.
    fn by_token(records: &[Record]) -> HashMap<String, Vec<Record>> {
        let mut map: HashMap<String, Vec<Record>> = HashMap::new();
        for r in records {
            map.entry(r.token().to_string())
                .or_default()
                .push(r.clone());
        }
        map
    }

    #[test]
    fn mutilating_the_checkpoint_never_panics_and_never_corrupts_a_session() {
        let dir = tmpdir("ckp");
        let (state, journal_path, ckp_path) = checkpointed_state(&dir);
        let journal_bytes = std::fs::read(&journal_path).unwrap();
        let ckp_bytes = std::fs::read(&ckp_path).unwrap();

        // Intact baseline: what a clean reopen recovers.
        let work = dir.join("work");
        std::fs::create_dir_all(&work).unwrap();
        let victim = work.join("journal");
        let victim_ckp = work.join("journal.ckp");
        std::fs::write(&victim, &journal_bytes).unwrap();
        std::fs::write(&victim_ckp, &ckp_bytes).unwrap();
        let (_, intact) = open_must_not_panic(&victim, "intact baseline").unwrap();
        let intact_by_token = by_token(&intact);
        assert_eq!(intact_by_token.len(), 2, "both sessions must recover");

        // Every truncation length, and a bit flip in every byte. The
        // journal (active segment) stays intact; only the checkpoint file
        // is mutilated.
        let mut cases: Vec<(String, Vec<u8>)> = (0..=ckp_bytes.len())
            .map(|len| (format!("ckp truncated at {len}"), ckp_bytes[..len].to_vec()))
            .collect();
        for offset in 0..ckp_bytes.len() {
            let mut mutated = ckp_bytes.clone();
            mutated[offset] ^= 0x01;
            cases.push((format!("ckp bit flip at {offset}"), mutated));
        }

        for (context, mutated) in cases {
            std::fs::write(&victim, &journal_bytes).unwrap();
            std::fs::write(&victim_ckp, &mutated).unwrap();
            // A corrupt checkpoint must degrade recovery, never fail the
            // boot: whatever sessions survive its committed prefix recover
            // exactly; the rest are lost, not mangled.
            let (_, recovered) = open_must_not_panic(&victim, &context)
                .unwrap_or_else(|e| panic!("{context}: boot must not fail: {e}"));
            for (token, sequence) in by_token(&recovered) {
                let intact_seq = &intact_by_token[&token];
                if sequence.iter().any(|r| matches!(r, Record::Create { .. })) {
                    assert_eq!(
                        &sequence, intact_seq,
                        "{context}: session {token} must recover exactly or not at all"
                    );
                } else {
                    // Tail records whose checkpoint frame was lost: they
                    // must still be *committed* records, in order.
                    let tail_len = sequence.len();
                    assert_eq!(
                        sequence,
                        intact_seq[intact_seq.len() - tail_len..],
                        "{context}: orphan tail for {token} must match the committed tail"
                    );
                }
            }
            // And the session manager must shrug off whatever shape came
            // back — orphan tails, half-lost sessions — without panicking.
            let manager = SessionManager::new(state.store.clone());
            manager.recover(&recovered);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
