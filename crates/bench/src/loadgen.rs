//! The serve tier's end-to-end drill: one fixed run against real sockets
//! and real processes that fails loudly when the service misbehaves.
//!
//! A run does four things, in order, and stops at the first failure:
//!
//! 1. **Batch-route check.** An in-process server on an ephemeral loopback
//!    port takes two closed-loop passes over the same sessions on two
//!    connections: one on the single-seed verbs
//!    (`next`/`observe`, K=1) and one on the batched verbs
//!    (`next_batch`/`observe_batch`, K=4).
//! 2. **`/metrics` scrape.** After each pass the generator scrapes
//!    `GET /metrics`, lints the exposition, checks that the request counter
//!    only grows, and folds the server-side `atpm_http_request_seconds`
//!    quantiles into the pass's record.
//! 3. **Crash drill.** A journaling `atpm-served` child is kill -9'd every
//!    two completed sessions and restarted on the same journal;
//!    every acked session must finish bit-equal to an uninterrupted
//!    in-process reference run.
//! 4. **Profile window under load.** One on-demand CPU-profile window must
//!    show hot frames inside the sampling core.
//!
//! The records are written as a JSON array (`BENCH_serve.json` by default;
//! git-ignored, uploaded as a CI artifact) and then judged by [`check`].
//! The served session's committed price is perfbench's, not this report's.
//!
//! Every request runs through `RetryClient`, which backs off and retries
//! on `503 Service Unavailable` (the server shedding load) and on
//! transport failures (a server restart mid-session), and counts both.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use atpm_obs::Scrape;
use atpm_serve::client::{HttpClient, ProtocolClient};
use atpm_serve::json::Json;
use atpm_serve::protocol::{
    ApiError, CreateSessionReq, Ledger, ObserveReq, PolicySpec, SnapshotReq, SnapshotSource,
};
use atpm_serve::server::{AppState, ServeConfig, Server};
use atpm_serve::snapshot::Snapshot;

/// Where the report goes unless `--json PATH` names another file.
pub const DEFAULT_JSON: &str = "BENCH_serve.json";

/// Connections each closed-loop pass drives its sessions over.
const CONNECTIONS: usize = 2;

/// The crash drill kills its server after every this many completed
/// sessions; with the fixed run's six sessions that is two kills.
const CRASH_EVERY: usize = 2;

/// Base RNG seed: snapshot build, per-session worlds and policy seeds.
const SEED: u64 = 20200420;

/// Parses the command line, `[--json PATH]`, into the report path.
pub fn parse_args(args: &[String]) -> Result<PathBuf, String> {
    match args {
        [] => Ok(DEFAULT_JSON.into()),
        [flag, path] if flag == "--json" => Ok(path.into()),
        _ => Err(format!(
            "expected no arguments or --json PATH, got {args:?}"
        )),
    }
}

/// What a run drives: the snapshot every stage measures against and the
/// sessions each pass and the drill run over it.
struct Workload {
    /// NetHEPT stand-in scale.
    scale: f64,
    /// Snapshot target-set size.
    k: usize,
    /// Snapshot pre-frozen RR index size.
    rr_theta: usize,
    /// Session `i` runs `policies[i % policies.len()]`.
    policies: &'static [&'static str],
    /// Sessions per closed-loop pass and in the crash drill.
    sessions: usize,
}

/// The fixed run: sizes that keep the whole run to seconds on one vCPU,
/// and every policy the wire protocol serves.
const FIXED: Workload = Workload {
    scale: 0.01,
    k: 4,
    rr_theta: 4_000,
    policies: &["hatp", "ars", "deploy_all", "threshold_batch"],
    sessions: 6,
};

impl Workload {
    fn snapshot_req(&self) -> SnapshotReq {
        SnapshotReq {
            name: "bench".into(),
            source: SnapshotSource::Preset {
                dataset: "nethept".into(),
                scale: self.scale,
            },
            k: self.k,
            rr_theta: self.rr_theta,
            seed: SEED,
            threads: 1,
        }
    }

    fn session(&self, i: usize) -> CreateSessionReq {
        CreateSessionReq {
            snapshot: "bench".into(),
            policy: policy_spec(
                self.policies[i % self.policies.len()],
                SEED ^ (i as u64) << 17,
            ),
            world_seed: SEED.wrapping_add(i as u64),
        }
    }
}

/// Builds the policy spec a workload names. Sampling knobs are deliberately
/// modest: the drill exercises the *service*, not HATP's asymptotics.
fn policy_spec(name: &str, session_seed: u64) -> PolicySpec {
    match name {
        "hatp" => PolicySpec::Hatp {
            eps_threshold: Some(0.2),
            max_theta: Some(1 << 14),
            seed: session_seed,
            threads: 1,
        },
        "ars" => PolicySpec::Ars {
            prob: 0.5,
            seed: session_seed,
        },
        "deploy_all" => PolicySpec::DeployAll,
        "threshold_batch" => PolicySpec::ThresholdBatch {
            theta: 2_000,
            eps: 0.1,
            seed: session_seed,
            threads: 1,
        },
        other => panic!("no policy named {other}"),
    }
}

/// One stage's outcome: a closed-loop pass or the crash drill.
#[derive(Debug, Clone)]
pub struct Record {
    /// `"closed"` (a batch-route pass) or `"crash"` (the drill).
    pub mode: &'static str,
    /// Seeds requested per protocol round trip (1 = single-seed verbs,
    /// 4 = `next_batch`/`observe_batch`).
    pub batch_size: usize,
    /// Completed sessions.
    pub sessions: usize,
    /// HTTP requests issued, retries included.
    pub requests: usize,
    /// Seeds committed across sessions.
    pub seeds: usize,
    /// Requests re-issued after a 503 or a transport failure.
    pub retries: usize,
    /// `503 Service Unavailable` responses absorbed (server shedding).
    pub shed_503: usize,
    /// Sessions the restarted drill server reported recovering from its
    /// journal, summed over kills; 0 for the passes, whose server has no
    /// journal.
    pub recovered_sessions: u64,
    /// The server's side of the same requests, from `/metrics`.
    pub srv: ServerSide,
}

impl Record {
    /// JSON form (one element of the report array).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("mode", Json::Str(self.mode.to_string())),
            ("batch_size", Json::Num(self.batch_size as f64)),
            ("sessions", Json::Num(self.sessions as f64)),
            ("requests", Json::Num(self.requests as f64)),
            ("seeds", Json::Num(self.seeds as f64)),
            ("retries", Json::Num(self.retries as f64)),
            ("shed_503", Json::Num(self.shed_503 as f64)),
            (
                "recovered_sessions",
                Json::Num(self.recovered_sessions as f64),
            ),
            ("srv_requests", Json::Num(self.srv.requests as f64)),
            ("srv_p50_us", Json::Num(self.srv.p50_us)),
            ("srv_p95_us", Json::Num(self.srv.p95_us)),
            ("srv_p99_us", Json::Num(self.srv.p99_us)),
        ])
    }
}

/// The run's verdict over its records. `Err` names the first violated
/// condition and the record that violates it:
///
/// * there is exactly one crash record, and it has recovered sessions,
///   sessions and seeds;
/// * every record but the crash record has `srv_requests >= requests`
///   (the drill server's counters reset at each kill -9, so the bound only
///   holds for a server that stayed up);
/// * every record has `0 < srv_p50_us <= srv_p95_us <= srv_p99_us`;
/// * the closed passes are one at K=1 then one at K=4, with the same
///   sessions, and the K=4 pass spends strictly fewer requests.
pub fn check(records: &[Record]) -> Result<(), String> {
    let bad = |what: &str, r: &Record| Err(format!("{what}: {}", r.to_json().encode()));
    let crash: Vec<&Record> = records.iter().filter(|r| r.mode == "crash").collect();
    let [drill] = crash[..] else {
        return Err(format!(
            "expected exactly one crash record, got {}",
            crash.len()
        ));
    };
    if drill.recovered_sessions == 0 || drill.sessions == 0 || drill.seeds == 0 {
        return bad(
            "crash record lacks recovered sessions, sessions or seeds",
            drill,
        );
    }
    for r in records {
        if r.mode != "crash" && r.srv.requests < r.requests as u64 {
            return bad("server counted fewer requests than the client sent", r);
        }
        if !(0.0 < r.srv.p50_us && r.srv.p50_us <= r.srv.p95_us && r.srv.p95_us <= r.srv.p99_us) {
            return bad("server quantiles are zero or out of order", r);
        }
    }
    let closed: Vec<&Record> = records.iter().filter(|r| r.mode == "closed").collect();
    let [k1, k4] = closed[..] else {
        return Err(format!(
            "expected two closed passes (K=1, K=4), got {}",
            closed.len()
        ));
    };
    if (k1.batch_size, k4.batch_size) != (1, 4) {
        return Err(format!(
            "closed passes must be K=1 then K=4, got K={} then K={}",
            k1.batch_size, k4.batch_size
        ));
    }
    let pair = |what: &str| {
        Err(format!(
            "{what}: K=1 {} vs K=4 {}",
            k1.to_json().encode(),
            k4.to_json().encode()
        ))
    };
    if k4.sessions != k1.sessions {
        return pair("K=4 pass ran other sessions than the K=1 pass");
    }
    if k4.requests >= k1.requests {
        return pair("K=4 pass did not spend fewer requests than K=1");
    }
    Ok(())
}

/// Attempts per request before the error is surfaced: five backoffs of
/// `5ms << attempt` (plus jitter) span roughly 300 ms — enough to ride out
/// a shedding burst or a server restart without stalling a dead run.
const MAX_ATTEMPTS: u32 = 6;

/// An `HttpClient` wrapper that counts requests and implements the client
/// half of the overload/durability contract:
///
/// * `503 Service Unavailable` — the server shed the request before any
///   work happened; safe to retry unconditionally. Shed replies close the
///   connection, so the client reconnects.
/// * transport failures (connect refused, reset, short read) — the server
///   restarted or the connection died, so the request may or may not have
///   landed. It is retried on a fresh connection, which is safe for
///   `ledger` (a read), for `next` and `next_batch` (a replay while a batch
///   is pending re-serves that batch), and for `observe` and
///   `observe_batch` (a replay answering 409 after at least one retry
///   means the original was applied before its reply was lost, and counts
///   as success). It is **not** safe for `create`: every create mints a
///   fresh token, so a retried create whose reply was lost opens a second
///   session, which lives until deleted (session TTL is off by default).
///   Nor for `delete`: a replay of one that landed answers 404. The crash
///   drill creates every session before its first kill, so it never
///   retries a create or delete that landed.
///
/// Backoff is exponential with deterministic jitter (xorshift64*, seeded
/// per client) so concurrent clients don't re-dogpile in lockstep.
struct RetryClient {
    addr: String,
    inner: Option<HttpClient>,
    requests: usize,
    retries: usize,
    shed_503: usize,
    rng: u64,
    /// Attempts per request before surfacing the error. [`MAX_ATTEMPTS`]
    /// by default; the crash drill raises it, because a kill -9'd server
    /// takes a snapshot rebuild (seconds) to come back, not a backoff.
    max_attempts: u32,
}

impl RetryClient {
    fn connect(addr: &str, jitter_seed: u64) -> Self {
        RetryClient {
            addr: addr.to_string(),
            inner: None,
            requests: 0,
            retries: 0,
            shed_503: 0,
            rng: jitter_seed | 1,
            max_attempts: MAX_ATTEMPTS,
        }
    }

    fn with_max_attempts(mut self, n: u32) -> Self {
        self.max_attempts = n.max(1);
        self
    }

    /// xorshift64* in [0, 1): cheap, deterministic, per-client.
    fn jitter(&mut self) -> f64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        (self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn backoff(&mut self, attempt: u32) {
        let base_ms = 5u64 << attempt.min(6);
        let jittered = base_ms as f64 * (0.5 + self.jitter());
        std::thread::sleep(Duration::from_micros((jittered * 1_000.0) as u64));
    }
}

impl ProtocolClient for RetryClient {
    fn call(&mut self, method: &str, path: &str, body: &Json) -> Result<Json, ApiError> {
        let mut attempt = 0u32;
        loop {
            let result = match &mut self.inner {
                Some(client) => {
                    self.requests += 1;
                    client.call(method, path, body)
                }
                None => match HttpClient::connect(&self.addr) {
                    Ok(client) => {
                        self.inner = Some(client);
                        continue; // no request issued yet — not a retry
                    }
                    Err(e) => Err(ApiError::new(500, format!("transport: connect: {e}"))),
                },
            };
            let err = match result {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            let shed = err.status == 503;
            let transport = err.status == 500 && err.message.starts_with("transport:");
            if shed {
                self.shed_503 += 1;
            }
            if shed || transport {
                // Shed replies carry `Connection: close`; after a transport
                // error the stream state is unknowable. Reconnect either way.
                self.inner = None;
            }
            // A replayed observe answering "nothing pending" means the lost
            // original landed: the observation is durably applied.
            if err.status == 409
                && attempt > 0
                && method == "POST"
                && (path.ends_with("/observe") || path.ends_with("/observe_batch"))
            {
                return Ok(Json::obj([]));
            }
            if !(shed || transport) || attempt + 1 >= self.max_attempts {
                return Err(err);
            }
            self.retries += 1;
            self.backoff(attempt);
            attempt += 1;
        }
    }
}

/// Server-side numbers folded into a [`Record`] from a `/metrics` scrape.
#[derive(Debug, Clone)]
pub struct ServerSide {
    /// `atpm_http_request_seconds_count`: requests handled since boot.
    pub requests: u64,
    /// Handling-time p50 from the `atpm_http_request_seconds` histogram,
    /// microseconds; excludes network and client time.
    pub p50_us: f64,
    /// Handling-time p95, microseconds.
    pub p95_us: f64,
    /// Handling-time p99, microseconds.
    pub p99_us: f64,
}

/// Scrapes `GET /metrics` and extracts the request-histogram family.
///
/// Hard-fails (propagating `Err` out of the run) when the endpoint is
/// unreachable or non-200, the body is empty or fails the exposition lint,
/// the family is missing, or the request counter regressed since the
/// previous scrape — any of those means the server-side half of the
/// report would be fiction, which is worse than no run.
fn scrape_server_side(addr: &str, prev_requests: &mut u64) -> Result<ServerSide, String> {
    let mut client =
        HttpClient::connect(addr).map_err(|e| format!("metrics scrape: connect {addr}: {e}"))?;
    let (status, text) = client
        .get_text("/metrics")
        .map_err(|e| format!("metrics scrape: {e}"))?;
    if status != 200 {
        return Err(format!("metrics scrape: /metrics answered {status}"));
    }
    if text.trim().is_empty() {
        return Err("metrics scrape: empty exposition body".into());
    }
    atpm_obs::lint(&text).map_err(|e| format!("metrics scrape: exposition lint: {e}"))?;
    let scrape = Scrape::parse(&text).map_err(|e| format!("metrics scrape: parse: {e}"))?;
    let requests = scrape
        .value("atpm_http_request_seconds_count", &[])
        .ok_or("metrics scrape: atpm_http_request_seconds missing from exposition")?
        as u64;
    if requests < *prev_requests {
        return Err(format!(
            "metrics scrape: request counter went backwards ({} -> {requests})",
            *prev_requests
        ));
    }
    *prev_requests = requests;
    let q = |p: f64| {
        scrape
            .histogram_quantile("atpm_http_request_seconds", &[], p)
            .unwrap_or(0.0)
            * 1e6
    };
    Ok(ServerSide {
        requests,
        p50_us: q(0.50),
        p95_us: q(0.95),
        p99_us: q(0.99),
    })
}

/// One closed-loop pass: [`CONNECTIONS`] clients drive the workload's
/// sessions back to back, on the single-seed verbs when `batch == 1` and
/// on the batched verbs otherwise, then the server is scraped.
fn closed_pass(
    addr: &str,
    w: &Workload,
    batch: usize,
    srv_requests_seen: &mut u64,
) -> Result<Record, String> {
    let next = AtomicUsize::new(0);
    let done: Vec<(usize, usize, RetryClient)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS as u64)
            .map(|t| {
                let next = &next;
                scope.spawn(move || -> Result<_, String> {
                    let mut client =
                        RetryClient::connect(addr, SEED ^ t.wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    let (mut sessions, mut seeds) = (0, 0);
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= w.sessions {
                            break;
                        }
                        let req = w.session(i);
                        let ledger = if batch == 1 {
                            client.run_session(&req)
                        } else {
                            client.run_session_batched(&req, batch)
                        }
                        .map_err(|e| format!("K={batch} session {i}: {e}"))?;
                        sessions += 1;
                        seeds += ledger.selected.len();
                    }
                    Ok((sessions, seeds, client))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("loadgen thread panicked"))
            .collect::<Result<_, String>>()
    })?;
    let clients = || done.iter().map(|(_, _, c)| c);
    Ok(Record {
        mode: "closed",
        batch_size: batch,
        sessions: done.iter().map(|d| d.0).sum(),
        requests: clients().map(|c| c.requests).sum(),
        seeds: done.iter().map(|d| d.1).sum(),
        retries: clients().map(|c| c.retries).sum(),
        shed_503: clients().map(|c| c.shed_503).sum(),
        recovered_sessions: 0,
        srv: scrape_server_side(addr, srv_requests_seen)?,
    })
}

/// One on-demand CPU-profile window taken *under load*: a background
/// thread hammers the CPU-heavy HATP session path while the main thread
/// asks the server for `GET /debug/profile?seconds=1`. Hard-fails when the
/// window answers non-200, comes back empty, any folded line fails to
/// parse, or no hot stack reaches the sampling core (`atpm_ris` /
/// `atpm_diffusion` frames) — an empty or rootless profile means the
/// SIGPROF profiler, the frame-pointer unwinder, or the symbolizer
/// regressed.
fn drive_profile(addr: &str) -> Result<(), String> {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let driver = scope.spawn(|| {
            let mut client = RetryClient::connect(addr, SEED | 1);
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let req = CreateSessionReq {
                    snapshot: "bench".into(),
                    policy: policy_spec("hatp", SEED ^ i),
                    world_seed: SEED.wrapping_add(i),
                };
                // Errors here are tolerable (the server may be busy inside
                // the profile window); the window assertion below is the
                // actual check.
                let _ = client.run_session(&req);
                i += 1;
            }
        });
        let result = profile_window(addr);
        stop.store(true, Ordering::Relaxed);
        driver
            .join()
            .map_err(|_| "profile: session driver panicked".to_string())?;
        result
    })
}

/// Takes one `GET /debug/profile?seconds=1` window and checks it.
fn profile_window(addr: &str) -> Result<(), String> {
    let mut client =
        HttpClient::connect(addr).map_err(|e| format!("profile: connect {addr}: {e}"))?;
    let (status, folded) = client
        .get_text("/debug/profile?seconds=1")
        .map_err(|e| format!("profile: {e}"))?;
    if status != 200 {
        return Err(format!(
            "profile: /debug/profile answered {status}: {folded}"
        ));
    }
    if folded.trim().is_empty() {
        return Err("profile: empty folded output".into());
    }
    let mut hot = false;
    for line in folded.lines() {
        let (stack, count) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("profile: bad folded line {line:?}"))?;
        count
            .parse::<u64>()
            .map_err(|_| format!("profile: bad count in folded line {line:?}"))?;
        if stack.contains("atpm_ris") || stack.contains("atpm_diffusion") {
            hot = true;
        }
    }
    if !hot {
        return Err("profile: no atpm_ris/atpm_diffusion frames in any sampled stack".into());
    }
    Ok(())
}

/// Runs the four stages over `w` and returns their records (the two
/// passes, then the drill), unjudged.
fn drive(w: &Workload) -> Result<Vec<Record>, String> {
    let mut server = Server::start(
        AppState::new(),
        &ServeConfig {
            addr: "127.0.0.1:0".into(),
            ..ServeConfig::default()
        },
    )
    .map_err(|e| format!("cannot start server: {e}"))?;
    let addr = server.addr().to_string();

    // Load the snapshot once (not part of any pass).
    HttpClient::connect(&addr)
        .map_err(|e| format!("connect {addr}: {e}"))?
        .create_snapshot(&w.snapshot_req())
        .map_err(|e| format!("snapshot build failed: {e}"))?;

    // The server-side request counter is cumulative since boot, so it must
    // only grow from one pass's scrape to the next.
    let mut srv_requests_seen = 0u64;
    let mut records = vec![
        closed_pass(&addr, w, 1, &mut srv_requests_seen)?,
        closed_pass(&addr, w, 4, &mut srv_requests_seen)?,
    ];
    records.push(run_crash_drill(w, CRASH_EVERY)?);
    drive_profile(&addr)?;
    server.shutdown();
    Ok(records)
}

/// The fixed run: drives every stage, writes the records to `json_path`
/// (also when they fail, so the failure can be read), then fails unless
/// they pass [`check`].
pub fn run(json_path: &Path) -> Result<(), String> {
    let records = drive(&FIXED)?;
    let json = Json::Arr(records.iter().map(Record::to_json).collect()).encode();
    std::fs::write(json_path, json + "\n")
        .map_err(|e| format!("write {}: {e}", json_path.display()))?;
    check(&records)
}

/// Handle to the `atpm-served` child under the crash drill. Kills and
/// reaps the process on drop so a failed drill doesn't leak a server.
struct ServedChild(std::process::Child);

impl Drop for ServedChild {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A crash drill's temp directory, removed with its journal on drop, so
/// every exit from the drill takes it along, early errors included.
struct DrillDir(PathBuf);

impl Drop for DrillDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Locates the `atpm-served` binary next to the running executable:
/// `target/<profile>/atpm-served`, one directory up when this binary runs
/// from `target/<profile>/deps/` (as test binaries do).
fn served_binary() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("crash drill: current_exe: {e}"))?;
    let mut dir = exe.parent();
    for _ in 0..2 {
        let Some(d) = dir else { break };
        let cand = d.join("atpm-served");
        if cand.is_file() {
            return Ok(cand);
        }
        dir = d.parent();
    }
    Err(
        "crash drill: atpm-served not found next to this binary; build it first \
         (cargo build -p atpm-serve --bin atpm-served)"
            .into(),
    )
}

/// Spawns `atpm-served` journaling under `--fsync group:5` with the same
/// preset snapshot the passes measure (see [`Workload::snapshot_req`]).
fn spawn_served(w: &Workload, addr: &str, journal: &Path) -> Result<ServedChild, String> {
    let bin = served_binary()?;
    let child = std::process::Command::new(&bin)
        .arg("--addr")
        .arg(addr)
        .arg("--journal")
        .arg(journal)
        .args(["--fsync", "group:5", "--checkpoint-every", "1"])
        .args(["--preset", "nethept", "--name", "bench"])
        .arg("--scale")
        .arg(w.scale.to_string())
        .arg("--k")
        .arg(w.k.to_string())
        .arg("--rr-theta")
        .arg(w.rr_theta.to_string())
        .arg("--seed")
        .arg(SEED.to_string())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .map_err(|e| format!("crash drill: spawn {}: {e}", bin.display()))?;
    Ok(ServedChild(child))
}

/// Polls `/healthz` until the server answers. `atpm-served` builds its boot
/// snapshot (and replays the journal) before it starts listening, so a
/// healthz answer means the store is loaded and recovery is complete.
fn wait_healthz(addr: &str, deadline: Duration) -> Result<(), String> {
    let t0 = Instant::now();
    loop {
        if let Ok(mut c) = HttpClient::connect(addr) {
            if c.call("GET", "/healthz", &Json::obj([])).is_ok() {
                return Ok(());
            }
        }
        if t0.elapsed() > deadline {
            return Err(format!(
                "crash drill: server at {addr} not healthy after {deadline:?}"
            ));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Drills started by this process; numbers each drill's journal directory
/// so concurrent drills never share (or delete) one another's journal.
static DRILLS: AtomicUsize = AtomicUsize::new(0);

/// The crash-restart drill: the durability contract, measured end to end
/// through real processes.
///
/// Boots `atpm-served` as a child process journaling under `--fsync
/// group:5`, interleaves the workload's sessions through it (so sessions
/// are always mid-flight), and SIGKILLs the process every `every`
/// completed sessions — no drain, no shutdown fsync, exactly the failure
/// the group-commit barrier exists for. After each kill the supervisor
/// restarts the server on the same journal and the client rides the
/// transport retries through the outage (a replayed `next` re-serves the
/// pending seed; a replayed `observe` answering 409 means the original
/// landed).
///
/// Hard-fails (propagating `Err` out of the run) unless:
///
/// * every session completes and its ledger is **bit-equal**
///   (`f64::to_bits` on profit, exact on every other field) to an
///   uninterrupted in-process reference run over the same snapshot — acked
///   state must never be lost or altered by a kill;
/// * at least one kill actually happened and the restarted server reported
///   recovering journaled sessions (`recovered_sessions` on healthz).
fn run_crash_drill(w: &Workload, every: usize) -> Result<Record, String> {
    let total = w.sessions;

    // Reference ledgers: the same sessions, uninterrupted, in process.
    let reference: Vec<Ledger> = {
        let state = AppState::new();
        state.store.insert(
            Snapshot::build(&w.snapshot_req())
                .map_err(|e| format!("crash drill: reference snapshot: {e}"))?,
        );
        let mut client = atpm_serve::client::LocalClient::new(state);
        (0..total)
            .map(|i| client.run_session(&w.session(i)))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("crash drill: reference run: {e}"))?
    };

    // An ephemeral port the child can bind: bind :0, read, release. (The
    // server's listener sets SO_REUSEADDR, so respawns rebind immediately.)
    let addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0")
            .map_err(|e| format!("crash drill: probe bind: {e}"))?;
        probe
            .local_addr()
            .map_err(|e| format!("crash drill: probe addr: {e}"))?
            .to_string()
    };
    // Declared before the child: locals drop in reverse order, so the
    // server dies before its journal directory is removed.
    let dir = DrillDir(std::env::temp_dir().join(format!(
        "atpm-crash-drill-{}-{}",
        std::process::id(),
        DRILLS.fetch_add(1, Ordering::Relaxed)
    )));
    let _ = std::fs::remove_dir_all(&dir.0);
    std::fs::create_dir_all(&dir.0).map_err(|e| format!("crash drill: mkdir {:?}: {e}", dir.0))?;
    let journal = dir.0.join("journal");
    let boot_deadline = Duration::from_secs(120);
    let mut child = spawn_served(w, &addr, &journal)?;
    wait_healthz(&addr, boot_deadline)?;

    let mut client =
        RetryClient::connect(&addr, SEED ^ 0xC4A5_C4A5).with_max_attempts(MAX_ATTEMPTS * 8);

    // Create everything up front, then drive the sessions round-robin one
    // seed batch at a time — kills always land with sessions mid-flight,
    // and no create is ever in flight across a kill.
    let mut tokens = Vec::with_capacity(total);
    for i in 0..total {
        tokens.push(
            client
                .create_session(&w.session(i))
                .map_err(|e| format!("crash drill: create session {i}: {e}"))?,
        );
    }
    let mut ledgers: Vec<Option<Ledger>> = vec![None; total];
    let mut completed = 0usize;
    let mut kills = 0usize;
    let mut recovered_total = 0u64;
    while completed < total {
        for i in 0..total {
            if ledgers[i].is_some() {
                continue;
            }
            let step = (|client: &mut RetryClient| -> Result<Option<Ledger>, ApiError> {
                match client.next(&tokens[i])? {
                    Some(seeds) => {
                        for seed in seeds {
                            client.observe(&tokens[i], &ObserveReq::Simulate { seed })?;
                        }
                        Ok(None)
                    }
                    None => {
                        let ledger = client.ledger(&tokens[i])?;
                        client.delete_session(&tokens[i])?;
                        Ok(Some(ledger))
                    }
                }
            })(&mut client)
            .map_err(|e| format!("crash drill: session {i}: {e}"))?;
            if let Some(ledger) = step {
                ledgers[i] = Some(ledger);
                completed += 1;
                if completed.is_multiple_of(every) && completed < total {
                    // SIGKILL mid-run: the remaining sessions are live on
                    // the server with acked, journaled state.
                    drop(child);
                    kills += 1;
                    child = spawn_served(w, &addr, &journal)?;
                    wait_healthz(&addr, boot_deadline)?;
                    recovered_total += fetch_recovered(&addr);
                }
            }
        }
    }

    // The whole point: acked state survived every kill bit-for-bit.
    for (i, (got, want)) in ledgers.iter().zip(&reference).enumerate() {
        let got = got.as_ref().expect("completed == total");
        if got.profit.to_bits() != want.profit.to_bits()
            || got.to_json().encode() != want.to_json().encode()
        {
            return Err(format!(
                "crash drill: session {i} ledger diverged after {kills} kills: \
                 profit {} (bits {:#018x}) vs reference {} (bits {:#018x})",
                got.profit,
                got.profit.to_bits(),
                want.profit,
                want.profit.to_bits(),
            ));
        }
    }
    if kills == 0 {
        return Err("crash drill: no kill happened (too few sessions for the interval)".into());
    }
    if recovered_total == 0 {
        return Err(format!(
            "crash drill: {kills} kills but the restarted server never reported \
             recovered sessions — the journal replay is not happening"
        ));
    }

    // Server-side half from the (last incarnation of the) drill server.
    // Its counters reset at each kill, so the watermark is drill-local.
    let srv = scrape_server_side(&addr, &mut 0)?;
    let record = Record {
        mode: "crash",
        batch_size: 1,
        sessions: total,
        requests: client.requests,
        seeds: ledgers
            .iter()
            .map(|l| l.as_ref().map_or(0, |l| l.selected.len()))
            .sum(),
        retries: client.retries,
        shed_503: client.shed_503,
        recovered_sessions: recovered_total,
        srv,
    };
    Ok(record)
}

/// Samples the server's `recovered_sessions` healthz counter; 0 if the
/// endpoint is unreachable or predates the field.
fn fetch_recovered(addr: &str) -> u64 {
    HttpClient::connect(addr)
        .ok()
        .and_then(|mut c| c.call("GET", "/healthz", &Json::obj([])).ok())
        .and_then(|h| h.get("recovered_sessions").and_then(Json::as_u64))
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    /// The fixed run's mix at a snapshot small enough for debug builds.
    const TINY: Workload = Workload {
        scale: 0.005,
        k: 2,
        rr_theta: 500,
        ..FIXED
    };

    #[test]
    fn a_drill_dir_removes_itself_and_its_journal_on_drop() {
        let path = std::env::temp_dir().join(format!("atpm-drill-dir-{}", std::process::id()));
        std::fs::create_dir_all(&path).unwrap();
        std::fs::write(path.join("journal"), b"ATPMJNL2").unwrap();
        drop(DrillDir(path.clone()));
        assert!(!path.exists(), "{path:?} outlived its guard");
    }

    #[test]
    fn parse_defaults_and_flags() {
        assert_eq!(parse_args(&[]).unwrap(), PathBuf::from(DEFAULT_JSON));
        assert_eq!(
            parse_args(&s(&["--json", "out.json"])).unwrap(),
            PathBuf::from("out.json")
        );
    }

    #[test]
    fn parse_rejects_bad_input() {
        for bad in [
            &["--json"][..],
            &["--json", "a", "--json", "b"],
            &["--whatever"],
            // Every flag but --json is gone.
            &["--quick"],
            &["--no-json"],
            &["--addr", "127.0.0.1:1"],
            &["--crash-every", "3"],
            &["--batch-size", "1,4"],
            &["--rate", "20"],
        ] {
            assert!(parse_args(&s(bad)).is_err(), "{bad:?}");
        }
    }

    fn srv(requests: u64) -> ServerSide {
        ServerSide {
            requests,
            p50_us: 3.0,
            p95_us: 40.0,
            p99_us: 900.0,
        }
    }

    /// Records shaped like a healthy run's.
    fn healthy() -> Vec<Record> {
        let closed = |batch_size, requests, srv_requests| Record {
            mode: "closed",
            batch_size,
            sessions: 6,
            requests,
            seeds: 20,
            retries: 0,
            shed_503: 0,
            recovered_sessions: 0,
            srv: srv(srv_requests),
        };
        vec![
            closed(1, 62, 63),
            closed(4, 36, 101),
            Record {
                mode: "crash",
                recovered_sessions: 3,
                retries: 1,
                // The drill server restarted, so its counters are smaller
                // than the client's: allowed for the crash record only.
                srv: srv(17),
                ..closed(1, 63, 0)
            },
        ]
    }

    fn rejects(edit: impl FnOnce(&mut Vec<Record>)) -> String {
        let mut records = healthy();
        edit(&mut records);
        check(&records).expect_err("check must reject")
    }

    #[test]
    fn check_accepts_a_healthy_run() {
        assert_eq!(check(&healthy()), Ok(()));
    }

    #[test]
    fn check_rejects_k4_without_fewer_requests() {
        let err = rejects(|r| r[1].requests = r[0].requests);
        assert!(err.contains("fewer requests"), "{err}");
        rejects(|r| r[1].requests = r[0].requests + 1);
    }

    #[test]
    fn check_rejects_passes_over_different_session_counts() {
        let err = rejects(|r| r[1].sessions = 5);
        assert!(err.contains("other sessions"), "{err}");
    }

    #[test]
    fn check_rejects_missing_or_misordered_passes() {
        rejects(|r| {
            r.remove(1);
        });
        rejects(|r| r.swap(0, 1));
    }

    #[test]
    fn check_rejects_server_counting_fewer_requests_than_the_client() {
        for i in 0..2 {
            let err = rejects(|r| r[i].srv.requests = r[i].requests as u64 - 1);
            assert!(err.contains("fewer requests than the client"), "{err}");
        }
        // The crash record is exempt: `healthy()`'s counts fewer
        // server-side than client requests, and it is accepted.
    }

    #[test]
    fn check_rejects_zero_or_misordered_server_quantiles() {
        for i in 0..3 {
            rejects(|r| r[i].srv.p50_us = 0.0);
            rejects(|r| r[i].srv.p50_us = r[i].srv.p95_us + 1.0);
            rejects(|r| r[i].srv.p95_us = r[i].srv.p99_us + 1.0);
        }
    }

    #[test]
    fn check_rejects_zero_or_two_crash_records() {
        let err = rejects(|r| {
            r.pop();
        });
        assert!(err.contains("exactly one crash record, got 0"), "{err}");
        let err = rejects(|r| r.push(r[2].clone()));
        assert!(err.contains("exactly one crash record, got 2"), "{err}");
    }

    #[test]
    fn check_rejects_a_crash_record_without_recovery_or_work() {
        rejects(|r| r[2].recovered_sessions = 0);
        rejects(|r| r[2].sessions = 0);
        rejects(|r| r[2].seeds = 0);
    }

    #[test]
    fn smoke_batched_sweep_amortizes_round_trips_with_identical_outcomes() {
        // The same sessions over the same worlds must commit identical seed
        // totals at K=1 and K=4, while the K=4 pass spends strictly fewer
        // HTTP requests. (deploy_all only: its selections are
        // observation-independent, so the seed totals are K-invariant;
        // ThresholdBatch's and HATP's legitimately are not.)
        let w = Workload {
            policies: &["deploy_all"],
            sessions: 3,
            ..TINY
        };
        let mut server = Server::start(
            AppState::new(),
            &ServeConfig {
                addr: "127.0.0.1:0".into(),
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = server.addr().to_string();
        HttpClient::connect(&addr)
            .unwrap()
            .create_snapshot(&w.snapshot_req())
            .unwrap();
        let mut seen = 0;
        let k1 = closed_pass(&addr, &w, 1, &mut seen).unwrap();
        let k4 = closed_pass(&addr, &w, 4, &mut seen).unwrap();
        server.shutdown();
        assert_eq!((k1.batch_size, k4.batch_size), (1, 4));
        assert_eq!((k1.sessions, k4.sessions), (3, 3));
        assert_eq!(
            k1.seeds, k4.seeds,
            "batching changes round trips, never the committed seeds"
        );
        assert!(
            k4.requests < k1.requests,
            "K=4 must amortize round trips ({} vs {})",
            k4.requests,
            k1.requests
        );
        // An unloaded pass never sheds or retries, and the scrape folded
        // in a server that handled at least the pass's requests.
        assert_eq!(
            (k1.retries, k1.shed_503, k4.retries, k4.shed_503),
            (0, 0, 0, 0)
        );
        assert!(k1.srv.requests >= k1.requests as u64);
        assert!(k4.srv.requests >= k1.srv.requests + k4.requests as u64);
    }

    #[test]
    fn smoke_run_passes_its_own_checks() {
        // Every stage over real sockets and a real atpm-served child, with
        // the fixed mix (HATP, ARS, DeployAll and ThresholdBatch on the
        // wire at K=1 and K=4) on a tiny snapshot.
        let records = drive(&TINY).unwrap();
        assert_eq!(check(&records), Ok(()));
        let modes: Vec<_> = records.iter().map(|r| (r.mode, r.batch_size)).collect();
        assert_eq!(modes, [("closed", 1), ("closed", 4), ("crash", 1)]);
        let json = records[2].to_json();
        assert_eq!(json.get("mode").and_then(Json::as_str), Some("crash"));
        assert!(json.get("srv_p50_us").is_some(), "schema carries srv side");
    }

    #[test]
    fn crash_drill_recovers_every_acked_session_bit_equal() {
        // The real thing, miniaturized: a journaling atpm-served child is
        // SIGKILLed twice mid-run and every session must still finish with
        // a ledger bit-equal to an uninterrupted reference run. Needs the
        // atpm-served binary, which `cargo test` builds because atpm-serve
        // has integration tests.
        let w = Workload {
            policies: &["deploy_all", "deploy_all", "ars"],
            sessions: 5,
            ..TINY
        };
        let record = run_crash_drill(&w, 2).unwrap();
        assert_eq!(record.mode, "crash");
        assert_eq!(record.sessions, 5);
        assert!(record.seeds > 0);
        assert!(
            record.recovered_sessions > 0,
            "kills must force journal replays"
        );
        assert!(
            record.retries > 0,
            "the kill severs connections; the client must have ridden retries"
        );
        let json = record.to_json();
        assert!(json.get("recovered_sessions").and_then(Json::as_u64) > Some(0));
    }

    #[test]
    fn concurrent_crash_drills_keep_separate_journals() {
        // Two drills in one process, as parallel tests run them: each must
        // journal into its own directory, or one drill's cleanup deletes
        // the other's journal under a live server, or a restarted server
        // replays the other drill's sessions. Both servers mint the same
        // tokens, so the drills run different sessions to make a swapped
        // journal show as a diverged ledger.
        let drills = [
            Workload {
                policies: &["deploy_all", "ars"],
                sessions: 5,
                ..TINY
            },
            Workload {
                policies: &["ars", "deploy_all"],
                sessions: 5,
                ..TINY
            },
        ];
        std::thread::scope(|scope| {
            let drills: Vec<_> = drills
                .iter()
                .map(|w| scope.spawn(move || run_crash_drill(w, 2)))
                .collect();
            for drill in drills {
                let record = drill.join().unwrap().unwrap();
                assert!(record.recovered_sessions > 0);
            }
        });
    }

    #[test]
    fn retry_client_surfaces_transport_errors_after_bounded_attempts() {
        // A port with nothing listening: every attempt is refused, so the
        // client must back off MAX_ATTEMPTS times and then report the
        // transport error instead of spinning forever.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let mut client = RetryClient::connect(&addr, 42);
        let err = client
            .call("POST", "/sessions", &Json::obj([]))
            .unwrap_err();
        assert_eq!(err.status, 500);
        assert!(err.message.starts_with("transport:"), "{}", err.message);
        assert_eq!(client.retries as u32, MAX_ATTEMPTS - 1);
    }
}
