//! The traced run: per-layer numbers for one workload.
//!
//! The workload runs twice for half of `--seconds` each: against a plain
//! server, then against one booted with `--trace`, whose `net/inflight`
//! spans (keyed by the `X-Request-Id` the client sends) split every client
//! call into transport and server time. The traced sessions are then
//! replayed in process, layer by layer, on the same file, specs and seeds,
//! and the captured request and response bytes are re-parsed and
//! re-encoded. The layers' self times are reconciled against the client's
//! session wall time, and the spans are written as Chrome-trace JSON to
//! `.perfbench-out/`.

use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use atpm_core::setup::{calibrated_instance, CalibrationConfig};
use atpm_core::{AdaptiveSession, CostSplit};
use atpm_ris::generate_batch;
use atpm_serve::http::{encode_response, frame_request, parse_frame, FrameStatus};
use atpm_serve::journal::{FsyncPolicy, Journal, RealIo, Record};
use atpm_serve::{Json, LocalClient};

use crate::client::{run_session, Call, LocalApi, SessionRun, Verb};
use crate::stats::{best_of_us, describe, mean, median, percentile};
use crate::{
    boot, check, drive, prepare, profit_mean, reference_ledgers, verb_ms, warm_up, windowed_rate,
    Args, Report, RR_THETA, TARGETS,
};

/// Wall-clock budget for replaying traced sessions in process.
const REPLAY_BUDGET: Duration = Duration::from_secs(4);
/// Journal records appended / committed by the in-process journal probe.
const JOURNAL_PROBES: usize = 40;

/// In-process cost of one replayed session, per client call.
struct Replay {
    /// Per call (aligned with the HTTP session's calls): policy decision,
    /// server-side cascade, the whole in-process dispatch (journal
    /// detached), and the dispatch minus the first two, µs.
    decide: Vec<f64>,
    select: Vec<f64>,
    dispatch: Vec<f64>,
    manager: Vec<f64>,
    /// `[frame+parse, json parse, json encode, encode response]` µs per
    /// call, on the captured bytes.
    codec: Vec<[f64; 4]>,
}

/// Replays one traced session's policy and cascade directly on an
/// `AdaptiveSession`, then through the in-process dispatcher, and re-codes
/// its captured wire bytes.
fn replay(
    args: &Args,
    inputs: &crate::Inputs,
    run: &SessionRun,
    epoch: Instant,
) -> Result<Replay, String> {
    let req = args.workload.session_req(args.seed, run.index);
    let n = run.calls.len();
    let (mut decide, mut select) = (vec![0.0; n], vec![0.0; n]);

    let mut stepper = req.policy.build().map_err(|e| e.message)?;
    let mut session = AdaptiveSession::new(&inputs.snapshot.instance, req.world_seed);
    let mut slots = run
        .calls
        .iter()
        .enumerate()
        .filter(|(_, c)| c.verb == Verb::Next || c.verb == Verb::Observe);
    let mut slot = |verb: Verb| match slots.next() {
        Some((i, c)) if c.verb == verb => Ok(i),
        _ => Err(format!(
            "session {}: in-process replay diverged from the served session",
            run.index
        )),
    };
    loop {
        let t = Instant::now();
        let seed = stepper.next_seed(&mut session);
        decide[slot(Verb::Next)?] = t.elapsed().as_secs_f64() * 1e6;
        let Some(seed) = seed else { break };
        let t = Instant::now();
        session.select(seed);
        select[slot(Verb::Observe)?] = t.elapsed().as_secs_f64() * 1e6;
    }
    if session.selected() != run.ledger.selected.as_slice() {
        return Err(format!(
            "session {}: in-process replay chose different seeds",
            run.index
        ));
    }

    let mut api = LocalApi::new(LocalClient::new(inputs.state.clone()), epoch);
    let local = run_session(&mut api, run.index, &req, epoch)?;
    if local.calls.len() != n {
        return Err(format!(
            "session {}: dispatcher replay made a different call sequence",
            run.index
        ));
    }
    let dispatch: Vec<f64> = local
        .calls
        .iter()
        .map(|c| c.dur.as_secs_f64() * 1e6)
        .collect();
    // Not clamped at zero: the two replays of a decision differ by noise
    // either way, and clamping would bias the sum upwards.
    let manager = (0..n)
        .map(|i| dispatch[i] - decide[i] - select[i])
        .collect();
    Ok(Replay {
        decide,
        select,
        dispatch,
        manager,
        codec: run.calls.iter().map(codec_us).collect::<Result<_, _>>()?,
    })
}

/// `[frame+parse, json parse, json encode, encode response]` µs for one
/// captured call, as the server's worker does them.
fn codec_us(call: &Call) -> Result<[f64; 4], String> {
    let (frame, resp_body) = call.wire.as_ref().ok_or("call bytes were not captured")?;
    let len = match frame_request(frame) {
        FrameStatus::Complete { len } => len,
        _ => return Err("captured request does not frame".into()),
    };
    let request = parse_frame(&frame[..len]).map_err(|(_, e)| e)?;
    let body = String::from_utf8(request.body.clone()).map_err(|e| e.to_string())?;
    let resp = Json::parse(resp_body).map_err(|e| e.to_string())?;
    const REPS: usize = 5;
    Ok([
        best_of_us(REPS, || {
            std::hint::black_box(frame_request(std::hint::black_box(frame)));
            std::hint::black_box(parse_frame(&frame[..len]).is_ok());
        }),
        best_of_us(REPS, || {
            if !body.is_empty() {
                std::hint::black_box(Json::parse(std::hint::black_box(&body)).is_ok());
            }
        }),
        best_of_us(REPS, || {
            std::hint::black_box(std::hint::black_box(&resp).encode());
        }),
        best_of_us(REPS, || {
            std::hint::black_box(encode_response(
                200,
                std::hint::black_box(resp_body.as_bytes()),
                true,
            ));
        }),
    ])
}

/// `net/inflight` span durations (µs) by request id from the server's
/// Chrome-trace dump.
fn inflight_by_id(path: &Path) -> Result<HashMap<String, f64>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("server trace {}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("server trace: {e}"))?;
    let events = json
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("server trace has no traceEvents")?;
    let mut out = HashMap::new();
    for e in events {
        if e.get("name").and_then(Json::as_str) != Some("inflight") {
            continue;
        }
        let id = e
            .get("args")
            .and_then(|a| a.get("id"))
            .and_then(Json::as_str);
        let dur = e.get("dur").and_then(Json::as_f64);
        if let (Some(id), Some(dur)) = (id, dur) {
            out.insert(id.to_string(), dur);
        }
    }
    Ok(out)
}

/// Journal append and group-commit barrier on a scratch file under the
/// server's default `group:5`: append µs p50, commit ms p50 with one
/// committer and with two concurrent committers.
fn journal_probe(dir: &Path) -> Result<(f64, f64, f64), String> {
    let path = dir.join("probe-journal.log");
    let (journal, _) = Journal::open_with(&path, FsyncPolicy::Group(5), Arc::new(RealIo))
        .map_err(|e| format!("probe journal: {e}"))?;
    let record = |id: u64| Record::Create {
        id,
        token: format!("probe-{id}"),
        req: crate::Workload::HatpPaper.session_req(id, id as usize),
    };
    let mut append_us = Vec::new();
    for id in 0..JOURNAL_PROBES as u64 * 4 {
        let rec = record(id);
        let t = Instant::now();
        journal
            .append(&rec)
            .map_err(|e| format!("probe append: {e}"))?;
        append_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let commit_ms = |journal: &Journal, base: u64| -> Result<Vec<f64>, String> {
        (0..JOURNAL_PROBES as u64)
            .map(|i| {
                let seq = journal
                    .append(&record(base + i))
                    .map_err(|e| format!("probe append: {e}"))?;
                let t = Instant::now();
                journal
                    .commit(seq)
                    .map_err(|e| format!("probe commit: {e}"))?;
                Ok(t.elapsed().as_secs_f64() * 1e3)
            })
            .collect()
    };
    let one = commit_ms(&journal, 1 << 20)?;
    let gate = Barrier::new(2);
    let two: Vec<f64> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..2u64)
            .map(|t| {
                let (journal, gate, commit_ms) = (&journal, &gate, &commit_ms);
                s.spawn(move || {
                    gate.wait();
                    commit_ms(journal, (2 + t) << 20)
                })
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("journal probe thread panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?
    .concat();
    Ok((median(&append_us), median(&one), median(&two)))
}

/// Median seconds of `reps` runs of `f`.
fn median_s<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&v)
}

/// Chrome-trace events for one replayed session: client calls, the server's
/// inflight span centred in each, and the replayed layers laid end to end.
fn trace_events(
    run: &SessionRun,
    rep: &Replay,
    inflight: &HashMap<String, f64>,
    out: &mut Vec<String>,
) {
    let tid = run.index;
    let mut ev = |name: &str, cat: &str, ts: f64, dur: f64| {
        out.push(format!(
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{ts:.3},\"dur\":{dur:.3}}}"
        ));
    };
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    ev("session", "client", us(run.start), us(run.wall));
    for (i, call) in run.calls.iter().enumerate() {
        let (ts, dur) = (us(call.start), us(call.dur));
        ev(call.verb.name(), "client", ts, dur);
        if let Some(&srv) = inflight.get(&call.id) {
            let srv_ts = ts + (dur - srv).max(0.0) / 2.0;
            ev("server.inflight", "net", srv_ts, srv);
            let mut t = srv_ts;
            for (name, d) in [
                ("core.decide", rep.decide[i]),
                ("diffusion.select", rep.select[i]),
                ("serve.manager", rep.manager[i]),
                ("serve.codec", rep.codec[i].iter().sum()),
            ] {
                if d > 0.0 {
                    ev(name, "replay", t, d);
                    t += d;
                }
            }
        }
    }
}

/// The traced run for `args.workload`.
pub fn traced(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let inputs = prepare(args)?;
    let reference = reference_ledgers(args, &inputs)?;
    let half = Duration::from_secs_f64(args.seconds as f64 / 2.0);
    let epoch = Instant::now();

    let (plain, _) = boot(args, &inputs, "plain", None)?;
    warm_up(args, &plain.addr, epoch)?;
    let untraced = drive(args, &plain.addr, half, 0, epoch, false);
    plain.kill();

    let trace_path = inputs.dir.join("server-trace.json");
    let (server, _) = boot(args, &inputs, "traced", Some(trace_path.clone()))?;
    warm_up(args, &server.addr, epoch)?;
    let traced = drive(args, &server.addr, half, 0, epoch, true);
    let scrape = crate::served::scrape(&server.addr)?;
    server.terminate()?;
    let inflight = inflight_by_id(&trace_path)?;

    let mut problems = check(&untraced, &reference, &inputs);
    problems.extend(check(&traced, &reference, &inputs));
    for p in untraced
        .failures
        .iter()
        .chain(&traced.failures)
        .chain(&problems)
    {
        println!("# FAILED: {p}");
    }

    // Set-up layers, on the same file and seed the server boots from.
    let graph = atpm_graph::io::load_auto(&inputs.graph_file, 0.1).map_err(|e| e.to_string())?;
    let graph_load_s = median_s(3, || atpm_graph::io::load_auto(&inputs.graph_file, 0.1));
    let calibrate_s = median_s(3, || {
        calibrated_instance(
            graph.clone(),
            TARGETS,
            CostSplit::DegreeProportional,
            CalibrationConfig {
                lb_theta: RR_THETA,
                seed: args.seed,
                threads: 1,
                ..Default::default()
            },
        )
    });
    let g = inputs.snapshot.instance.graph();
    let rr_index_s = median_s(3, || {
        generate_batch(&g, RR_THETA, args.seed.wrapping_add(0x5EED), 1)
    });
    let (append_us, commit_1t, commit_2t) = journal_probe(&inputs.dir)?;

    // Replay traced sessions in index order until the budget is spent.
    let t_replay = Instant::now();
    let mut replays: Vec<(&SessionRun, Replay)> = Vec::new();
    for run in &traced.sessions {
        if t_replay.elapsed() > REPLAY_BUDGET && !replays.is_empty() {
            break;
        }
        replays.push((run, replay(args, &inputs, run, epoch)?));
    }

    // Reconcile: split each replayed session's client wall time into layer
    // self times; what no layer explains is the remainder.
    let queue_mean_us = scrape
        .value("atpm_http_queue_wait_seconds_sum", &[])
        .unwrap_or(0.0)
        / scrape
            .value("atpm_http_queue_wait_seconds_count", &[])
            .unwrap_or(1.0)
            .max(1.0)
        * 1e6;
    let journal_us = append_us
        + 1e3
            * if w.clients() > 1 {
                commit_2t
            } else {
                commit_1t
            };
    const LAYERS: [&str; 8] = [
        "client.transport",
        "client.other",
        "net.queue_wait",
        "core.decide",
        "diffusion.select",
        "serve.manager",
        "serve.journal",
        "serve.codec",
    ];
    let mut totals = [0.0f64; LAYERS.len()];
    let (mut wall_us, mut transport_us, mut events) = (0.0, Vec::new(), Vec::new());
    for (run, rep) in &replays {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let in_calls: f64 = run.calls.iter().map(|c| us(c.dur)).sum();
        wall_us += us(run.wall);
        totals[1] += us(run.wall) - in_calls;
        for (i, call) in run.calls.iter().enumerate() {
            let Some(&srv) = inflight.get(&call.id) else {
                continue;
            };
            transport_us.push(us(call.dur) - srv);
            totals[0] += us(call.dur) - srv;
            totals[2] += queue_mean_us;
            totals[3] += rep.decide[i];
            totals[4] += rep.select[i];
            totals[5] += rep.manager[i];
            totals[6] += if call.verb.journals() {
                journal_us
            } else {
                0.0
            };
            totals[7] += rep.codec[i].iter().sum::<f64>();
        }
        trace_events(run, rep, &inflight, &mut events);
    }
    let remainder = wall_us - totals.iter().sum::<f64>();
    let accounted = 1.0 - remainder.abs() / wall_us;
    let per_session = |x: f64| x / 1e3 / replays.len() as f64;
    println!(
        "# {} seed {}: layer self time over {} replayed sessions (client wall {:.3} ms/session)",
        w.name(),
        args.seed,
        replays.len(),
        per_session(wall_us)
    );
    println!("# {:<18} {:>12} {:>8}", "layer", "ms/session", "share");
    for (name, total) in LAYERS.iter().zip(totals) {
        println!(
            "# {name:<18} {:>12.4} {:>7.2}%",
            per_session(total),
            100.0 * total / wall_us
        );
    }
    println!(
        "# {:<18} {:>12.4} {:>7.2}%",
        "(unaccounted)",
        per_session(remainder),
        100.0 * remainder / wall_us
    );
    let overhead = 1.0 - windowed_rate(&traced) / windowed_rate(&untraced);
    println!(
        "# tracing overhead: {:.2}% ({:.3} sessions/s untraced, {:.3} traced); layers account for {:.2}% of session wall time",
        100.0 * overhead,
        windowed_rate(&untraced),
        windowed_rate(&traced),
        100.0 * accounted
    );

    let out_dir = Path::new(".perfbench-out");
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let trace_file = out_dir.join(format!("trace-{}-{}.json", w.name(), args.seed));
    std::fs::write(
        &trace_file,
        format!("{{\"traceEvents\":[{}]}}", events.join(",")),
    )
    .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    println!("# chrome trace: {}", trace_file.display());

    let pick = |f: fn(&Replay) -> &Vec<f64>, verb: Verb| -> Vec<f64> {
        replays
            .iter()
            .flat_map(|(run, rep)| {
                run.calls
                    .iter()
                    .zip(f(rep))
                    .filter(move |(c, _)| c.verb == verb)
                    .map(|(_, &x)| x)
            })
            .collect()
    };
    let decide = pick(|r| &r.decide, Verb::Next);
    let select = pick(|r| &r.select, Verb::Observe);
    let manager_next = pick(|r| &r.dispatch, Verb::Next);
    let manager_observe = pick(|r| &r.dispatch, Verb::Observe);
    let codec = |i: usize| {
        let v: Vec<f64> = replays
            .iter()
            .flat_map(|(_, rep)| rep.codec.iter().map(move |c| c[i]))
            .collect();
        median(&v)
    };
    let ledgers: Vec<_> = traced.sessions.iter().map(|s| &s.ledger).collect();
    let seeds: usize = ledgers.iter().map(|l| l.selected.len()).sum();
    let appends = scrape
        .value("atpm_journal_append_seconds_count", &[])
        .unwrap_or(0.0);
    let fsyncs = scrape
        .value("atpm_journal_fsync_seconds_count", &[])
        .unwrap_or(0.0);
    let q = |name: &str, p: f64| scrape.histogram_quantile(name, &[], p).unwrap_or(0.0) * 1e6;
    let client_next = verb_ms(&untraced.sessions, Verb::Next);
    let client_observe = verb_ms(&untraced.sessions, Verb::Observe);
    println!(
        "# {}",
        describe("client.next_ms (untraced)", "ms", &client_next)
    );
    println!(
        "# {}",
        describe("client.observe_ms (untraced)", "ms", &client_observe)
    );
    println!("# {}", describe("core.decide", "us", &decide));
    println!("# {}", describe("transport", "us", &transport_us));

    Ok(Report {
        correct: problems.is_empty(),
        attempted: untraced.attempted + traced.attempted,
        failed: (untraced.failures.len() + traced.failures.len() + problems.len()) as u64,
        metrics: vec![
            ("graph.load_s", graph_load_s, "s"),
            ("setup.calibrate_s", calibrate_s, "s"),
            ("setup.rr_index_s", rr_index_s, "s"),
            (
                "ris.rr_sets_per_ms",
                RR_THETA as f64 / (rr_index_s * 1e3),
                "1/ms",
            ),
            (
                "ris.rr_sets_per_session",
                mean(
                    &ledgers
                        .iter()
                        .map(|l| l.sampling_work as f64)
                        .collect::<Vec<_>>(),
                ),
                "count",
            ),
            ("core.decide_us_p50", median(&decide), "us"),
            ("core.decide_us_p95", percentile(&decide, 0.95), "us"),
            (
                "core.rounds_per_session",
                mean(&ledgers.iter().map(|l| l.rounds as f64).collect::<Vec<_>>()),
                "count",
            ),
            ("diffusion.select_us_p50", median(&select), "us"),
            (
                "diffusion.activated_per_seed",
                ledgers.iter().map(|l| l.total_activated).sum::<usize>() as f64
                    / seeds.max(1) as f64,
                "count",
            ),
            ("manager.next_us_p50", median(&manager_next), "us"),
            ("manager.observe_us_p50", median(&manager_observe), "us"),
            ("journal.append_us_p50", append_us, "us"),
            ("journal.commit_ms_p50_1t", commit_1t, "ms"),
            ("journal.commit_ms_p50_2t", commit_2t, "ms"),
            (
                "journal.records_per_fsync",
                if fsyncs > 0.0 { appends / fsyncs } else { 0.0 },
                "count",
            ),
            ("http.frame_parse_us", codec(0), "us"),
            ("json.parse_us", codec(1), "us"),
            ("json.encode_us", codec(2), "us"),
            ("http.encode_response_us", codec(3), "us"),
            (
                "net.queue_wait_us_p50",
                q("atpm_http_queue_wait_seconds", 0.5),
                "us",
            ),
            (
                "net.queue_wait_us_p99",
                q("atpm_http_queue_wait_seconds", 0.99),
                "us",
            ),
            (
                "server.request_us_p50",
                q("atpm_http_request_seconds", 0.5),
                "us",
            ),
            ("transport.us_p50", median(&transport_us), "us"),
            ("client.next_ms_p50", median(&client_next), "ms"),
            ("client.next_ms_p95", percentile(&client_next, 0.95), "ms"),
            (
                "client.observe_ms_p95",
                percentile(&client_observe, 0.95),
                "ms",
            ),
            ("quality.profit_mean", profit_mean(&untraced)?, "profit"),
            ("trace.sessions_per_s", windowed_rate(&traced), "1/s"),
            ("trace.overhead_frac", overhead, "fraction"),
            ("reconcile.accounted_frac", accounted, "fraction"),
            ("reconcile.unaccounted_ms", per_session(remainder), "ms"),
        ],
    })
}
