//! Served-session benchmark for `atpm-served`.
//!
//! ```text
//! atpm-perfbench --served PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates an Epinions-size graph from `--seed`, boots the real
//! `atpm-served` on it as a child process, and drives one of two
//! closed-loop workloads over HTTP (see `perfbench/README.md`). With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1` it runs
//! the workload once untraced and once against a `--trace` server, replays
//! the traced sessions layer by layer in process, and prints the per-layer
//! metrics. The last stdout line is one JSON object; a wrong ledger makes
//! it `"correct": false` and the exit code 1.

mod client;
mod layers;
mod served;
mod stats;

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use atpm_graph::gen::Dataset;
use atpm_serve::protocol::{Ledger, SnapshotSource};
use atpm_serve::{AppState, CreateSessionReq, LocalClient, PolicySpec, Snapshot, SnapshotReq};

use client::{closed_loop, run_session, LocalApi, LoopOut, SessionRun, Verb};
use served::{BootSpec, Served};
use stats::{describe, median};

/// Targets the snapshot selects (IMM top-k).
const TARGETS: usize = 10;
/// RR sets frozen into the snapshot index.
const RR_THETA: usize = 20_000;
/// Timed cold boots per run; `setup_s` is their median. One untimed boot
/// before them warms the page cache.
const TIMED_BOOTS: usize = 5;
/// Closed-loop warm-up before any timing.
const WARMUP: Duration = Duration::from_millis(1500);
/// Sessions averaged by `profit_mean`: a fixed prefix of the session
/// sequence, so the value depends on the seed and not on how many sessions
/// the run happened to finish.
const PROFIT_SESSIONS: usize = 8;
/// Windows `sessions_per_s` takes its median over.
const RATE_WINDOWS: usize = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// HATP at K=1, server-simulated observations, journal at `group:5`,
    /// one client: what a deployment of the paper's algorithm pays.
    HatpPaper,
    /// ARS and DeployAll at K=1, journal at `group:5`, two clients: the
    /// policies sample nothing, so the durability barrier dominates.
    CheapGroupCommit,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "hatp_paper" => Some(Workload::HatpPaper),
            "cheap_group_commit" => Some(Workload::CheapGroupCommit),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::HatpPaper => "hatp_paper",
            Workload::CheapGroupCommit => "cheap_group_commit",
        }
    }

    pub fn clients(self) -> usize {
        match self {
            Workload::HatpPaper => 1,
            Workload::CheapGroupCommit => 2,
        }
    }

    /// Leading sessions compared bit for bit against the in-process
    /// reference.
    fn reference_sessions(self) -> usize {
        match self {
            Workload::HatpPaper => 3,
            Workload::CheapGroupCommit => 16,
        }
    }

    fn policy(self, seed: u64, index: usize) -> PolicySpec {
        let policy_seed = mix(seed ^ 0x0090_11C7, index as u64);
        match (self, index % 2) {
            (Workload::HatpPaper, _) => PolicySpec::Hatp {
                eps_threshold: None,
                max_theta: Some(1 << 16),
                seed: policy_seed,
                threads: 1,
            },
            (Workload::CheapGroupCommit, 0) => PolicySpec::Ars {
                prob: 0.5,
                seed: policy_seed,
            },
            _ => PolicySpec::DeployAll,
        }
    }

    /// The request of the workload's `index`-th session.
    pub fn session_req(self, seed: u64, index: usize) -> CreateSessionReq {
        CreateSessionReq {
            snapshot: "bench".into(),
            policy: self.policy(seed, index),
            world_seed: mix(seed ^ 0x0030_771D, index as u64),
        }
    }
}

/// splitmix64 of `a + b`: decorrelated per-session seeds from the run seed.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a.wrapping_add(b.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub served: PathBuf,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut served) =
        (None, None, None, None, None);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload '{value}'"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("bad --seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("bad --seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace '{value}' (want 0 or 1)")),
                })
            }
            "--served" => served = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
        served: served.ok_or("missing --served")?,
    })
}

/// Everything generated from the seed, plus the in-process twin of the
/// server's snapshot (same file, same construction seed).
pub struct Inputs {
    pub dir: PathBuf,
    pub graph_file: PathBuf,
    pub state: Arc<AppState>,
    pub snapshot: Arc<Snapshot>,
}

impl Drop for Inputs {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn snapshot_req(graph_file: &Path, seed: u64) -> SnapshotReq {
    SnapshotReq {
        name: "bench".into(),
        source: SnapshotSource::File {
            path: graph_file.display().to_string(),
            // Unused: the written edge list carries every probability.
            default_prob: 0.1,
        },
        k: TARGETS,
        rr_theta: RR_THETA,
        seed,
        threads: 1,
    }
}

fn prepare(args: &Args) -> Result<Inputs, String> {
    let dir = PathBuf::from(".perfbench-work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let graph_file = dir.join("epinions.txt");
    let graph = Dataset::Epinions.generate(1.0, args.seed);
    let file = std::fs::File::create(&graph_file).map_err(|e| format!("graph file: {e}"))?;
    atpm_graph::io::write_edge_list(&graph, file).map_err(|e| format!("graph file: {e}"))?;
    drop(graph);
    let snap = Snapshot::build(&snapshot_req(&graph_file, args.seed))
        .map_err(|e| format!("reference snapshot: {}", e.message))?;
    let state = AppState::new();
    let snapshot = state.store.insert(snap);
    Ok(Inputs {
        dir,
        graph_file,
        state,
        snapshot,
    })
}

/// The leading sessions' ledgers, computed in process before any timing.
fn reference_ledgers(args: &Args, inputs: &Inputs) -> Result<Vec<Ledger>, String> {
    let w = args.workload;
    let mut api = LocalApi::new(LocalClient::new(inputs.state.clone()), Instant::now());
    (0..w.reference_sessions())
        .map(|i| {
            run_session(&mut api, i, &w.session_req(args.seed, i), Instant::now())
                .map(|run| run.ledger)
                .map_err(|e| format!("reference session {i}: {e}"))
        })
        .collect()
}

pub fn boot(
    args: &Args,
    inputs: &Inputs,
    tag: &str,
    trace: Option<PathBuf>,
) -> Result<(Served, Duration), String> {
    let journal = inputs.dir.join(format!("journal-{tag}.log"));
    let _ = std::fs::remove_file(&journal);
    Served::boot(&BootSpec {
        bin: &args.served,
        graph: &inputs.graph_file,
        seed: args.seed,
        journal,
        trace,
    })
}

/// Drives the workload's closed loop against `addr` for `duration`,
/// numbering sessions from `first_index`.
pub fn drive(
    args: &Args,
    addr: &str,
    duration: Duration,
    first_index: usize,
    epoch: Instant,
    capture: bool,
) -> LoopOut {
    let w = args.workload;
    let seed = args.seed;
    closed_loop(
        addr,
        w.clients(),
        duration,
        first_index,
        &move |i| w.session_req(seed, i),
        epoch,
        capture,
    )
}

/// Runs the warm-up loop; its sessions use indices far past any measured
/// one. A failure here aborts the run.
pub fn warm_up(args: &Args, addr: &str, epoch: Instant) -> Result<(), String> {
    let warm = drive(args, addr, WARMUP, 1 << 40, epoch, false);
    match warm.failures.first() {
        Some(f) => Err(format!("warm-up failed: {f}")),
        None => Ok(()),
    }
}

/// Checks every finished session: ledger done, seeds drawn from the
/// snapshot's targets, and the leading sessions bit-equal to the reference.
/// Returns one line per problem.
pub fn check(out: &LoopOut, reference: &[Ledger], inputs: &Inputs) -> Vec<String> {
    let targets = inputs.snapshot.instance.target();
    let mut problems = Vec::new();
    for run in &out.sessions {
        let l = &run.ledger;
        if !l.done {
            problems.push(format!("session {}: ledger not done", run.index));
        }
        if let Some(bad) = l.selected.iter().find(|u| !targets.contains(u)) {
            problems.push(format!("session {}: seed {bad} is not a target", run.index));
        }
        if let Some(r) = reference.get(run.index) {
            if r.selected != l.selected || r.profit.to_bits() != l.profit.to_bits() {
                problems.push(format!(
                    "session {}: ledger differs from the in-process reference \
                     (seeds {:?} profit {} vs {:?} {})",
                    run.index, l.selected, l.profit, r.selected, r.profit
                ));
            }
        }
    }
    let compared = out
        .sessions
        .iter()
        .filter(|s| s.index < reference.len())
        .count();
    if compared == 0 {
        problems.push("no session of the reference prefix finished".into());
    }
    problems
}

/// Client round trips of one verb, in ms.
pub fn verb_ms(sessions: &[SessionRun], verb: Verb) -> Vec<f64> {
    sessions
        .iter()
        .flat_map(|s| &s.calls)
        .filter(|c| c.verb == verb)
        .map(|c| c.dur.as_secs_f64() * 1e3)
        .collect()
}

/// Closed-loop throughput, robust to bursts of neighbour load: the loop is
/// cut into `RATE_WINDOWS` equal windows, each session's completion is
/// spread evenly over its wall time, and the median window rate is
/// reported.
pub fn windowed_rate(out: &LoopOut) -> f64 {
    let (lo, hi) = (
        out.start.as_secs_f64(),
        (out.start + out.wall).as_secs_f64(),
    );
    let width = (hi - lo) / RATE_WINDOWS as f64;
    let mut done = [0.0f64; RATE_WINDOWS];
    for s in &out.sessions {
        let (a, b) = (s.start.as_secs_f64(), (s.start + s.wall).as_secs_f64());
        for (k, slot) in done.iter_mut().enumerate() {
            let (w0, w1) = (lo + width * k as f64, lo + width * (k + 1) as f64);
            let overlap = (b.min(w1) - a.max(w0)).max(0.0);
            *slot += overlap / (b - a).max(f64::MIN_POSITIVE);
        }
    }
    median(&done.map(|d| d / width))
}

/// Mean realized profit of the fixed session prefix.
pub fn profit_mean(out: &LoopOut) -> Result<f64, String> {
    let profits: Vec<f64> = out
        .sessions
        .iter()
        .filter(|s| s.index < PROFIT_SESSIONS)
        .map(|s| s.ledger.profit)
        .collect();
    if profits.len() < PROFIT_SESSIONS {
        return Err(format!(
            "only {} of the first {PROFIT_SESSIONS} sessions finished; lengthen --seconds",
            profits.len()
        ));
    }
    Ok(stats::mean(&profits))
}

/// The benchmark's result line.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The untraced run: end-to-end metrics.
fn end_to_end(args: &Args) -> Result<Report, String> {
    let inputs = prepare(args)?;
    let reference = reference_ledgers(args, &inputs)?;

    // setup_s: one untimed boot warms the page cache, then the median of
    // TIMED_BOOTS cold boots; the last boot serves the run.
    let (warm, _) = boot(args, &inputs, "warm", None)?;
    warm.kill();
    let mut boots = Vec::new();
    let mut server = None;
    for b in 0..TIMED_BOOTS {
        let (s, t) = boot(args, &inputs, &format!("boot{b}"), None)?;
        boots.push(t.as_secs_f64());
        if let Some(prev) = server.replace(s) {
            Served::kill(prev);
        }
    }
    let server = server.expect("TIMED_BOOTS > 0");
    let epoch = Instant::now();
    warm_up(args, &server.addr, epoch)?;

    let cpu0 = served::cpu_ns(server.pid())?;
    let out = drive(
        args,
        &server.addr,
        Duration::from_secs(args.seconds),
        0,
        epoch,
        false,
    );
    let cpu1 = served::cpu_ns(server.pid())?;
    let rss_mb = served::peak_rss_mb(server.pid())?;
    served::scrape(&server.addr)?;
    server.kill();

    let problems = check(&out, &reference, &inputs);
    for p in out.failures.iter().chain(&problems) {
        println!("# FAILED: {p}");
    }
    let sessions = out.sessions.len() as f64;
    if sessions == 0.0 {
        return Err("no session finished".into());
    }
    let session_ms: Vec<f64> = out
        .sessions
        .iter()
        .map(|s| s.wall.as_secs_f64() * 1e3)
        .collect();
    let next_ms = verb_ms(&out.sessions, Verb::Next);
    let observe_ms = verb_ms(&out.sessions, Verb::Observe);
    let decide_wait: Vec<f64> = out
        .sessions
        .iter()
        .map(|s| verb_ms(std::slice::from_ref(s), Verb::Next).iter().sum())
        .collect();
    println!(
        "# {} seed {}: {} sessions in {:.3} s, {} clients",
        args.workload.name(),
        args.seed,
        out.sessions.len(),
        out.wall.as_secs_f64(),
        args.workload.clients()
    );
    println!("# {}", describe("session_ms", "ms", &session_ms));
    println!("# {}", describe("next_ms", "ms", &next_ms));
    println!("# {}", describe("decide_wait_ms", "ms", &decide_wait));
    println!("# {}", describe("observe_ms", "ms", &observe_ms));
    println!("# {}", describe("setup_s", "s", &boots));
    Ok(Report {
        correct: problems.is_empty(),
        attempted: out.attempted,
        failed: (out.failures.len() + problems.len()) as u64,
        metrics: vec![
            ("sessions_per_s", windowed_rate(&out), "1/s"),
            ("session_ms_p50", median(&session_ms), "ms"),
            ("decide_wait_ms_p50", median(&decide_wait), "ms"),
            ("observe_ms_p50", median(&observe_ms), "ms"),
            ("setup_s", median(&boots), "s"),
            ("server_rss_mb", rss_mb, "MiB"),
            (
                "server_cpu_ms_per_session",
                (cpu1.saturating_sub(cpu0)) as f64 / 1e6 / sessions,
                "ms",
            ),
        ],
    })
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: atpm-perfbench --served PATH --workload hatp_paper|cheap_group_commit \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let result = if args.trace {
        layers::traced(&args)
    } else {
        end_to_end(&args)
    };
    match result {
        Ok(report) => {
            println!("{}", report.json());
            if !report.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
