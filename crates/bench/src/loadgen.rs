//! Load generator for the `atpm-serve` HTTP service.
//!
//! Two modes, both reported in a JSON array (`BENCH_serve.json` by
//! default; git-ignored, uploaded as a CI artifact — the served session's
//! committed price is perfbench's):
//!
//! * **Closed-loop** (default): `level` concurrent connections each drive
//!   full adaptive sessions (create → next/observe loop → ledger → delete)
//!   back to back; reports throughput plus p50/p95/p99 per-request latency
//!   per level. Measures the service at its own pace.
//! * **Open-loop** (`--rate R`): sessions *arrive* at a fixed R per
//!   second whether or not the server keeps up, the textbook way to see
//!   behavior under overload — per-session sojourn (scheduled arrival →
//!   completion, queueing included) and goodput (completed sessions/s) are
//!   reported alongside request latency.
//!
//! By default the generator boots its own server on an ephemeral loopback
//! port (one process, zero setup — what the CI `serve-smoke` job runs)
//! with the server's default worker count, however high the level: the
//! reactor multiplexes connections, so workers need not track them.
//! `--addr` points at an externally started server instead.
//!
//! The client half of the overload/durability contract lives here too:
//! every request runs through `RetryClient`, which backs off and retries
//! on `503 Service Unavailable` (the server shedding load) and on
//! transport failures (a server restart mid-session). Retries and sheds
//! are counted per level, and the server's `recovered_sessions` healthz
//! counter is sampled after each level, so the report records how rough
//! the run was, not just how fast.
//!
//! After each level the generator also scrapes `GET /metrics` and folds
//! the server-side `atpm_http_request_seconds` histogram into the report
//! (`srv_requests`, `srv_p50/95/99_us`) — so the report carries
//! both halves of every latency: what the client saw (network included)
//! and what the server spent handling. The scrape is load-bearing: an
//! unreachable endpoint, an exposition that fails the format lint, or a
//! request counter that goes backwards fails the run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use atpm_core::AdaptiveSession;
use atpm_obs::{Histogram, Scrape};
use atpm_serve::client::{HttpClient, ProtocolClient};
use atpm_serve::json::Json;
use atpm_serve::protocol::{
    ApiError, CreateSessionReq, Ledger, ObserveBatchReq, ObserveReq, PolicySpec, SnapshotReq,
    SnapshotSource,
};
use atpm_serve::server::{AppState, ServeConfig, Server};
use atpm_serve::snapshot::Snapshot;

/// Loadgen knobs.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Address of a running server; `None` boots one in-process.
    pub addr: Option<String>,
    /// Concurrent-session levels to sweep (one measurement each).
    pub levels: Vec<usize>,
    /// Full sessions to run per level (split across the connections).
    pub sessions_per_level: usize,
    /// Open-loop arrival rate, sessions/second (`None` = closed-loop only).
    pub rate: Option<f64>,
    /// Open-loop total arrivals.
    pub open_sessions: usize,
    /// Open-loop client threads (the service capacity being tested is the
    /// server's; this just has to be enough to express the arrival rate).
    pub open_workers: usize,
    /// Snapshot preset scale (NetHEPT stand-in).
    pub scale: f64,
    /// Snapshot target-set size.
    pub k: usize,
    /// Snapshot pre-frozen RR index size.
    pub rr_theta: usize,
    /// Base RNG seed (snapshot build, per-session worlds).
    pub seed: u64,
    /// Session mix as `(policy, weight)`; sessions cycle through the
    /// weighted expansion deterministically.
    pub mix: Vec<(String, usize)>,
    /// Fraction of sessions driven in *report mode*: the client owns the
    /// possible world (a local `AdaptiveSession` twin over the same
    /// snapshot) and posts `observe {activated: [...]}` instead of asking
    /// the server to simulate — the protocol shape of a real deployment
    /// feeding field observations back. 0.0 (default) keeps every session
    /// on the server-simulated path.
    pub report_frac: f64,
    /// Seeds requested per protocol round trip (`--batch-size a,b,...`).
    /// Each entry is measured separately per closed-loop level, so a
    /// sweep like `1,4` records the round-trip amortization directly.
    /// Sizes above 1 drive the batched verbs (`next_batch`/
    /// `observe_batch`); size 1 keeps the classic single-seed protocol.
    pub batch_sizes: Vec<usize>,
    /// Crash-restart drill: kill -9 a journaling `atpm-served` child
    /// process every N completed sessions and hard-fail unless every
    /// session (including the ones in flight across each kill) finishes
    /// with a ledger bit-equal to an uninterrupted in-process reference
    /// run. `None` (default) skips the drill.
    pub crash_every: Option<usize>,
    /// Where to write the JSON report (`None` = don't write).
    pub json_path: Option<String>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: None,
            levels: vec![1, 2, 4],
            sessions_per_level: 16,
            rate: None,
            open_sessions: 48,
            open_workers: 16,
            scale: 0.02,
            k: 6,
            rr_theta: 10_000,
            seed: 20200420,
            mix: vec![
                ("hatp".into(), 1),
                ("ars".into(), 2),
                ("deploy_all".into(), 3),
            ],
            report_frac: 0.0,
            batch_sizes: vec![1],
            crash_every: None,
            json_path: Some("BENCH_serve.json".into()),
        }
    }
}

impl LoadgenConfig {
    /// `--quick`: the CI smoke configuration (seconds, not minutes, on one
    /// vCPU).
    pub fn quick() -> Self {
        LoadgenConfig {
            levels: vec![1, 2],
            sessions_per_level: 6,
            scale: 0.01,
            k: 4,
            rr_theta: 4_000,
            ..Default::default()
        }
    }

    /// Parses CLI flags.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut cfg = LoadgenConfig::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let mut value_of = |name: &str| -> Result<String, String> {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("flag {name} needs a value"))
            };
            match arg.as_str() {
                "--quick" => {
                    let keep = (
                        cfg.json_path.clone(),
                        cfg.addr.clone(),
                        cfg.rate,
                        cfg.batch_sizes.clone(),
                        cfg.crash_every,
                    );
                    cfg = LoadgenConfig::quick();
                    (
                        cfg.json_path,
                        cfg.addr,
                        cfg.rate,
                        cfg.batch_sizes,
                        cfg.crash_every,
                    ) = keep;
                }
                "--addr" => cfg.addr = Some(value_of("--addr")?),
                "--rate" => {
                    let r: f64 = value_of("--rate")?
                        .parse()
                        .map_err(|e| format!("bad --rate: {e}"))?;
                    if r <= 0.0 || !r.is_finite() {
                        return Err("--rate must be positive".into());
                    }
                    cfg.rate = Some(r);
                }
                "--open-sessions" => {
                    cfg.open_sessions = value_of("--open-sessions")?
                        .parse()
                        .map_err(|e| format!("bad --open-sessions: {e}"))?;
                }
                "--open-workers" => {
                    cfg.open_workers = value_of("--open-workers")?
                        .parse()
                        .map_err(|e| format!("bad --open-workers: {e}"))?;
                }
                "--levels" => {
                    cfg.levels = value_of("--levels")?
                        .split(',')
                        .map(|t| t.parse().map_err(|e| format!("bad --levels: {e}")))
                        .collect::<Result<_, _>>()?;
                }
                "--sessions" => {
                    cfg.sessions_per_level = value_of("--sessions")?
                        .parse()
                        .map_err(|e| format!("bad --sessions: {e}"))?;
                }
                "--scale" => {
                    cfg.scale = value_of("--scale")?
                        .parse()
                        .map_err(|e| format!("bad --scale: {e}"))?;
                }
                "--k" => {
                    cfg.k = value_of("--k")?
                        .parse()
                        .map_err(|e| format!("bad --k: {e}"))?;
                }
                "--rr-theta" => {
                    cfg.rr_theta = value_of("--rr-theta")?
                        .parse()
                        .map_err(|e| format!("bad --rr-theta: {e}"))?;
                }
                "--seed" => {
                    cfg.seed = value_of("--seed")?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?;
                }
                "--mix" => {
                    cfg.mix = value_of("--mix")?
                        .split(',')
                        .map(|part| {
                            let (name, w) = part
                                .split_once('=')
                                .ok_or_else(|| format!("bad --mix part '{part}'"))?;
                            let w: usize =
                                w.parse().map_err(|e| format!("bad --mix weight: {e}"))?;
                            Ok((name.to_string(), w))
                        })
                        .collect::<Result<_, String>>()?;
                }
                "--report-frac" => {
                    let f: f64 = value_of("--report-frac")?
                        .parse()
                        .map_err(|e| format!("bad --report-frac: {e}"))?;
                    if !(0.0..=1.0).contains(&f) {
                        return Err("--report-frac must be in [0, 1]".into());
                    }
                    cfg.report_frac = f;
                }
                "--batch-size" => {
                    cfg.batch_sizes = value_of("--batch-size")?
                        .split(',')
                        .map(|t| t.parse().map_err(|e| format!("bad --batch-size: {e}")))
                        .collect::<Result<_, _>>()?;
                }
                "--crash-every" => {
                    let n: usize = value_of("--crash-every")?
                        .parse()
                        .map_err(|e| format!("bad --crash-every: {e}"))?;
                    if n == 0 {
                        return Err("--crash-every must be positive".into());
                    }
                    cfg.crash_every = Some(n);
                }
                "--json" => cfg.json_path = Some(value_of("--json")?),
                "--no-json" => cfg.json_path = None,
                other => return Err(format!("unknown flag: {other}")),
            }
        }
        if cfg.levels.is_empty() || cfg.levels.contains(&0) {
            return Err("need at least one nonzero concurrency level".into());
        }
        if cfg.sessions_per_level == 0 {
            return Err("need at least one session per level".into());
        }
        if cfg.rate.is_some() && (cfg.open_sessions == 0 || cfg.open_workers == 0) {
            return Err("open-loop mode needs nonzero --open-sessions and --open-workers".into());
        }
        if cfg.batch_sizes.is_empty() || cfg.batch_sizes.contains(&0) {
            return Err("need at least one nonzero --batch-size".into());
        }
        if cfg.mix.is_empty() || cfg.mix.iter().all(|(_, w)| *w == 0) {
            return Err("mix needs at least one positive weight".into());
        }
        for (name, _) in &cfg.mix {
            policy_spec(name, 0).ok_or_else(|| {
                format!(
                    "unknown policy '{name}' in mix \
                     (expected hatp | ars | deploy_all | threshold_batch)"
                )
            })?;
        }
        Ok(cfg)
    }

    /// The deterministic session → policy assignment: the weighted mix
    /// expanded and cycled.
    pub fn mix_schedule(&self) -> Vec<String> {
        self.mix
            .iter()
            .flat_map(|(name, w)| std::iter::repeat_n(name.clone(), *w))
            .collect()
    }

    /// Whether session `i` runs in report mode — the floor-increment
    /// assignment realizes exactly `report_frac` of any prefix (±1) and is
    /// deterministic, so runs are reproducible.
    pub fn is_report_session(&self, i: usize) -> bool {
        ((i as f64 + 1.0) * self.report_frac) as u64 > (i as f64 * self.report_frac) as u64
    }
}

/// Drives one session with a *client-owned* world: a local
/// [`AdaptiveSession`] twin over the same snapshot simulates each cascade
/// and reports the activations, exactly the inverted protocol a live
/// deployment uses (`tests/e2e_equivalence.rs` pins its byte-identity).
fn run_report_session<C: ProtocolClient>(
    client: &mut C,
    req: &CreateSessionReq,
    snapshot: &Snapshot,
) -> Result<Ledger, ApiError> {
    let token = client.create_session(req)?;
    let mut world = AdaptiveSession::new(&snapshot.instance, req.world_seed);
    while let Some(seeds) = client.next(&token)? {
        for seed in seeds {
            let activated = world.select(seed);
            client.observe(&token, &ObserveReq::Report { seed, activated })?;
        }
    }
    let ledger = client.ledger(&token)?;
    client.delete_session(&token)?;
    Ok(ledger)
}

/// [`run_report_session`] over the batched verbs: the client asks for up
/// to `k` seeds per round, simulates the joint cascade in its own world,
/// and posts one `observe_batch {activated}` back — one round trip per
/// batch round instead of one per seed.
fn run_report_session_batched<C: ProtocolClient>(
    client: &mut C,
    req: &CreateSessionReq,
    snapshot: &Snapshot,
    k: usize,
) -> Result<Ledger, ApiError> {
    let token = client.create_session(req)?;
    let mut world = AdaptiveSession::new(&snapshot.instance, req.world_seed);
    while let Some(seeds) = client.next_batch(&token, k)? {
        let activated = world.select_batch(&seeds);
        client.observe_batch(&token, &ObserveBatchReq::Report { seeds, activated })?;
    }
    let ledger = client.ledger(&token)?;
    client.delete_session(&token)?;
    Ok(ledger)
}

/// Drives one full session: report-mode vs server-simulated per
/// `report_snapshot`, batched verbs when `batch > 1`, the classic
/// single-seed protocol when `batch == 1`. Returns the ledger plus
/// whether the report path was taken (for the per-thread counters).
fn drive_session<C: ProtocolClient>(
    client: &mut C,
    req: &CreateSessionReq,
    batch: usize,
    report_snapshot: Option<&Snapshot>,
) -> Result<(Ledger, bool), ApiError> {
    match report_snapshot {
        Some(snap) if batch > 1 => {
            run_report_session_batched(client, req, snap, batch).map(|l| (l, true))
        }
        Some(snap) => run_report_session(client, req, snap).map(|l| (l, true)),
        None if batch > 1 => client.run_session_batched(req, batch).map(|l| (l, false)),
        None => client.run_session(req).map(|l| (l, false)),
    }
}

/// Builds the policy spec a mix entry names. Sampling knobs are deliberately
/// modest: loadgen measures the *service*, not HATP's asymptotics.
fn policy_spec(name: &str, session_seed: u64) -> Option<PolicySpec> {
    match name {
        "hatp" => Some(PolicySpec::Hatp {
            eps_threshold: Some(0.2),
            max_theta: Some(1 << 14),
            seed: session_seed,
            threads: 1,
        }),
        "ars" => Some(PolicySpec::Ars {
            prob: 0.5,
            seed: session_seed,
        }),
        "deploy_all" => Some(PolicySpec::DeployAll),
        "threshold_batch" => Some(PolicySpec::ThresholdBatch {
            theta: 2_000,
            eps: 0.1,
            batch: 4,
            seed: session_seed,
            threads: 1,
        }),
        _ => None,
    }
}

/// One measurement: a closed-loop concurrency level or an open-loop rate
/// run.
#[derive(Debug, Clone)]
pub struct LevelReport {
    /// `"closed"` or `"open"`.
    pub mode: &'static str,
    /// Closed: concurrent connections driving sessions back-to-back.
    /// Open: client threads available to absorb arrivals.
    pub level: usize,
    /// Open-loop target arrival rate, sessions/second (0 for closed).
    pub rate: f64,
    /// Seeds requested per protocol round trip for this measurement
    /// (1 = classic single-seed verbs, >1 = `next_batch`/`observe_batch`).
    pub batch_size: usize,
    /// Completed sessions.
    pub sessions: usize,
    /// Total HTTP requests issued.
    pub requests: usize,
    /// Total seeds committed across sessions.
    pub seeds: usize,
    /// Sessions driven through the report (client-reported observation)
    /// path, per `--report-frac`.
    pub report_sessions: usize,
    /// Wall-clock for the whole level, seconds.
    pub wall_s: f64,
    /// Requests per second.
    pub rps: f64,
    /// Completed sessions per second — under open-loop overload this is
    /// the service's goodput, decoupled from the offered rate.
    pub goodput_sps: f64,
    /// Latency percentiles over all requests, microseconds.
    pub p50_us: f64,
    /// 95th percentile, microseconds.
    pub p95_us: f64,
    /// 99th percentile, microseconds.
    pub p99_us: f64,
    /// Open-loop: 95th-percentile session sojourn (scheduled arrival →
    /// completion, queueing included), milliseconds. 0 for closed-loop.
    pub sojourn_p95_ms: f64,
    /// Requests re-issued after a 503 or a transport failure.
    pub retries: usize,
    /// `503 Service Unavailable` responses absorbed (server shedding).
    pub shed_503: usize,
    /// Server-reported `recovered_sessions` (journal replays) at the end
    /// of the level — nonzero means the server restarted mid-run.
    pub recovered_sessions: u64,
    /// Server-side request count (`atpm_http_request_seconds_count` from
    /// the end-of-level `/metrics` scrape) — cumulative since server boot,
    /// so it only grows across levels.
    pub srv_requests: u64,
    /// Server-side handling-time p50, microseconds, from the scraped
    /// `atpm_http_request_seconds` histogram. Excludes network and client
    /// time, so `srv_p50_us <= p50_us` structurally.
    pub srv_p50_us: f64,
    /// Server-side p95, microseconds.
    pub srv_p95_us: f64,
    /// Server-side p99, microseconds.
    pub srv_p99_us: f64,
}

impl LevelReport {
    /// JSON form (one element of `BENCH_serve.json`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("mode", Json::Str(self.mode.to_string())),
            ("level", Json::Num(self.level as f64)),
            ("rate", Json::Num(self.rate)),
            ("batch_size", Json::Num(self.batch_size as f64)),
            ("sessions", Json::Num(self.sessions as f64)),
            ("requests", Json::Num(self.requests as f64)),
            ("seeds", Json::Num(self.seeds as f64)),
            ("report_sessions", Json::Num(self.report_sessions as f64)),
            ("wall_s", Json::Num(self.wall_s)),
            ("rps", Json::Num(self.rps)),
            ("goodput_sps", Json::Num(self.goodput_sps)),
            ("p50_us", Json::Num(self.p50_us)),
            ("p95_us", Json::Num(self.p95_us)),
            ("p99_us", Json::Num(self.p99_us)),
            ("sojourn_p95_ms", Json::Num(self.sojourn_p95_ms)),
            ("retries", Json::Num(self.retries as f64)),
            ("shed_503", Json::Num(self.shed_503 as f64)),
            (
                "recovered_sessions",
                Json::Num(self.recovered_sessions as f64),
            ),
            ("srv_requests", Json::Num(self.srv_requests as f64)),
            ("srv_p50_us", Json::Num(self.srv_p50_us)),
            ("srv_p95_us", Json::Num(self.srv_p95_us)),
            ("srv_p99_us", Json::Num(self.srv_p99_us)),
        ])
    }
}

/// Per-thread measurement accumulator.
#[derive(Default)]
struct ThreadStats {
    /// Per-request latency, the same `atpm_obs::Histogram` the server
    /// exports — thread histograms merge element-wise, so aggregation is
    /// O(buckets) instead of collect-and-sort over every request.
    latencies: Histogram,
    sessions: usize,
    seeds: usize,
    /// Of which: sessions driven through the report (client-world) path.
    report_sessions: usize,
    /// Requests re-issued after a 503 or transport failure.
    retries: usize,
    /// 503 responses absorbed.
    shed_503: usize,
}

/// Attempts per request before the error is surfaced: five backoffs of
/// `5ms << attempt` (plus jitter) span roughly 300 ms — enough to ride out
/// a shedding burst or a server restart without stalling a dead run.
const MAX_ATTEMPTS: u32 = 6;

/// An `HttpClient` wrapper that records per-request latency and implements
/// the client half of the overload/durability contract:
///
/// * `503 Service Unavailable` — the server shed the request before any
///   work happened; safe to retry unconditionally. Shed replies close the
///   connection, so the client reconnects.
/// * transport failures (connect refused, reset, short read) — the server
///   restarted or the connection died. `create` and `next` are idempotent
///   server-side (a replayed `next` re-serves the pending seed), so they
///   retry on a fresh connection. A replayed `observe` (or
///   `observe_batch`) that answers 409 means the original *was* applied
///   before the reply was lost; after at least one retry that counts as
///   success.
///
/// Backoff is exponential with deterministic jitter (xorshift64*, seeded
/// per thread) so concurrent clients don't re-dogpile in lockstep.
///
/// Latency is recorded into the shared `atpm_obs::Histogram` (the same
/// log-bucketed layout the server's `/metrics` histograms use): constant
/// memory however long the run, and quantiles read from bucket midpoints
/// — 8 sub-buckets per octave bounds the relative quantile error at
/// 1/16 = 6.25% of the true value (values below 8 ns are exact, but no
/// HTTP round trip is that fast). The old sort-a-`Vec<u64>` percentiles
/// were exact; ±6.25% is far inside run-to-run noise, and client-side and
/// server-side quantiles now share one estimator, so they are directly
/// comparable.
struct RetryClient {
    addr: String,
    inner: Option<HttpClient>,
    latencies: Histogram,
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
            latencies: Histogram::new(),
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

    /// xorshift64* in [0, 1): cheap, deterministic, per-thread.
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
    fn call(
        &mut self,
        method: &str,
        path: &str,
        body: &Json,
    ) -> Result<Json, atpm_serve::protocol::ApiError> {
        let mut attempt = 0u32;
        loop {
            let result = match &mut self.inner {
                Some(client) => {
                    let t0 = Instant::now();
                    let out = client.call(method, path, body);
                    self.latencies.record_duration(t0.elapsed());
                    out
                }
                None => match HttpClient::connect(&self.addr) {
                    Ok(client) => {
                        self.inner = Some(client);
                        continue; // no request issued yet — not a retry
                    }
                    Err(e) => Err(atpm_serve::protocol::ApiError::new(
                        500,
                        format!("transport: connect: {e}"),
                    )),
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

/// Exact sort-based percentile in µs — still used for open-loop *sojourns*
/// (few values, and the tail is the measurement); request latencies go
/// through [`Histogram`] quantiles instead (see [`RetryClient`]).
fn percentile(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() as f64 - 1.0) * q).round() as usize;
    sorted_ns[idx] as f64 / 1_000.0
}

/// Server-side numbers folded into a [`LevelReport`] from an end-of-level
/// `/metrics` scrape.
struct ServerSide {
    requests: u64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
}

/// Scrapes `GET /metrics` and extracts the request-histogram family.
///
/// Hard-fails (propagating `Err` out of the run) when the endpoint is
/// unreachable or non-200, the body is empty or fails the exposition lint,
/// the family is missing, or the request counter regressed since the
/// previous scrape — any of those means the server-side half of
/// `BENCH_serve.json` would be fiction, which is worse than no run.
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

/// One on-demand CPU-profile window taken *under load*: a background
/// thread hammers the CPU-heavy HATP session path while the main thread
/// asks the server for `GET /debug/profile?seconds=1`. Hard-fails when the
/// window answers non-200, comes back empty, any folded line fails to
/// parse, or no hot stack reaches the sampling core (`atpm_ris` /
/// `atpm_diffusion` frames) — an empty or rootless profile means the
/// SIGPROF profiler, the frame-pointer unwinder, or the symbolizer
/// regressed, and the bench report would be measuring a broken tool.
fn drive_profile(addr: &str, cfg: &LoadgenConfig) -> Result<(), String> {
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let driver = {
        let stop = stop.clone();
        let addr = addr.to_string();
        let seed = cfg.seed;
        std::thread::spawn(move || {
            let mut client = RetryClient::connect(&addr, seed | 1);
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let req = CreateSessionReq {
                    snapshot: "bench".into(),
                    policy: policy_spec("hatp", seed ^ i).expect("hatp is a known policy"),
                    world_seed: seed.wrapping_add(i),
                };
                // Errors here are tolerable (the server may be busy inside
                // the profile window); the window assertion below is the
                // actual check.
                let _ = client.run_session(&req);
                i += 1;
            }
        })
    };
    let result = (|| {
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
    })();
    stop.store(true, Ordering::Relaxed);
    driver
        .join()
        .map_err(|_| "profile: session driver panicked".to_string())?;
    result
}

/// The snapshot every loadgen run measures against.
pub fn snapshot_req(cfg: &LoadgenConfig) -> SnapshotReq {
    SnapshotReq {
        name: "bench".into(),
        source: SnapshotSource::Preset {
            dataset: "nethept".into(),
            scale: cfg.scale,
        },
        k: cfg.k,
        rr_theta: cfg.rr_theta,
        seed: cfg.seed,
        threads: 1,
    }
}

/// Runs the sweep (and the open-loop phase if `--rate` is set). Boots an
/// in-process server unless `cfg.addr` is set. Returns one report per
/// measurement; writes `cfg.json_path` if set.
pub fn run(cfg: &LoadgenConfig) -> Result<Vec<LevelReport>, String> {
    // Boot or attach.
    let mut own_server: Option<Server> = None;
    let addr = match &cfg.addr {
        Some(a) => a.clone(),
        None => {
            let server = Server::start(
                AppState::new(),
                &ServeConfig {
                    addr: "127.0.0.1:0".into(),
                    ..ServeConfig::default()
                },
            )
            .map_err(|e| format!("cannot start server: {e}"))?;
            let addr = server.addr().to_string();
            own_server = Some(server);
            addr
        }
    };

    // Load the snapshot once (not part of the measurement).
    let mut setup = HttpClient::connect(&addr).map_err(|e| format!("connect {addr}: {e}"))?;
    setup
        .create_snapshot(&snapshot_req(cfg))
        .map_err(|e| format!("snapshot build failed: {e}"))?;
    drop(setup);

    // Report-mode sessions need a client-side twin of the snapshot (same
    // deterministic build the server performed); built once, shared by all
    // client threads, and not part of any measurement.
    let report_snapshot: Option<Arc<Snapshot>> = if cfg.report_frac > 0.0 {
        Some(Arc::new(
            Snapshot::build(&snapshot_req(cfg)).map_err(|e| format!("local snapshot: {e}"))?,
        ))
    } else {
        None
    };

    let schedule = cfg.mix_schedule();
    let mut reports = Vec::new();
    // Monotonicity watermark for the server-side request counter across
    // the whole sweep (cumulative since boot, so it must only grow).
    let mut srv_requests_seen = 0u64;
    for &level in &cfg.levels {
        for &batch in &cfg.batch_sizes {
            let counter = Arc::new(AtomicUsize::new(0));
            let t0 = Instant::now();
            let stats: Vec<ThreadStats> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..level)
                    .map(|t| {
                        let addr = addr.clone();
                        let counter = counter.clone();
                        let schedule = &schedule;
                        let total = cfg.sessions_per_level;
                        let seed = cfg.seed;
                        let report_snapshot = report_snapshot.clone();
                        scope.spawn(move || -> Result<ThreadStats, String> {
                            let mut client = RetryClient::connect(
                                &addr,
                                seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                            );
                            let mut stats = ThreadStats::default();
                            loop {
                                let i = counter.fetch_add(1, Ordering::Relaxed);
                                if i >= total {
                                    break;
                                }
                                let name = &schedule[i % schedule.len()];
                                let spec = policy_spec(name, seed ^ (i as u64) << 17)
                                    .expect("mix validated");
                                let req = CreateSessionReq {
                                    snapshot: "bench".into(),
                                    policy: spec,
                                    world_seed: seed.wrapping_add(i as u64),
                                };
                                let report_snap = report_snapshot
                                    .as_deref()
                                    .filter(|_| cfg.is_report_session(i));
                                let (ledger, reported) =
                                    drive_session(&mut client, &req, batch, report_snap)
                                        .map_err(|e| format!("session {i} ({name}): {e}"))?;
                                stats.report_sessions += usize::from(reported);
                                stats.sessions += 1;
                                stats.seeds += ledger.selected.len();
                            }
                            stats.latencies = client.latencies;
                            stats.retries = client.retries;
                            stats.shed_503 = client.shed_503;
                            Ok(stats)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("loadgen thread panicked"))
                    .collect::<Result<Vec<_>, String>>()
            })?;
            let wall_s = t0.elapsed().as_secs_f64();

            // O(buckets) fold of the per-thread histograms (merge is
            // element-wise and associative, pinned by the obs property tests).
            let latencies = Histogram::new();
            for s in &stats {
                latencies.merge_from(&s.latencies);
            }
            let requests = latencies.count() as usize;
            let sessions: usize = stats.iter().map(|s| s.sessions).sum();
            let srv = scrape_server_side(&addr, &mut srv_requests_seen)?;
            reports.push(LevelReport {
                mode: "closed",
                level,
                rate: 0.0,
                batch_size: batch,
                sessions,
                requests,
                seeds: stats.iter().map(|s| s.seeds).sum(),
                report_sessions: stats.iter().map(|s| s.report_sessions).sum(),
                wall_s,
                rps: requests as f64 / wall_s.max(1e-9),
                goodput_sps: sessions as f64 / wall_s.max(1e-9),
                p50_us: latencies.quantile(0.50) / 1_000.0,
                p95_us: latencies.quantile(0.95) / 1_000.0,
                p99_us: latencies.quantile(0.99) / 1_000.0,
                sojourn_p95_ms: 0.0,
                retries: stats.iter().map(|s| s.retries).sum(),
                shed_503: stats.iter().map(|s| s.shed_503).sum(),
                recovered_sessions: fetch_recovered(&addr),
                srv_requests: srv.requests,
                srv_p50_us: srv.p50_us,
                srv_p95_us: srv.p95_us,
                srv_p99_us: srv.p99_us,
            });
        }
    }

    if let Some(rate) = cfg.rate {
        reports.push(run_open_loop(
            cfg,
            &addr,
            rate,
            report_snapshot.as_deref(),
            &mut srv_requests_seen,
        )?);
    }

    // Crash-restart drill: a separate journaling `atpm-served` child
    // process, kill -9'd under load; the record it emits is the durability
    // half of the bench report.
    if let Some(every) = cfg.crash_every {
        reports.push(run_crash_drill(cfg, every)?);
    }

    // One profile window under load closes every run: the hot frames must
    // land in the sampling core, or the run fails (the CI profile-smoke
    // contract; see `drive_profile`).
    drive_profile(&addr, cfg)?;

    if let Some(server) = own_server.as_mut() {
        server.shutdown();
    }

    if let Some(path) = &cfg.json_path {
        let json = Json::Arr(reports.iter().map(LevelReport::to_json).collect()).encode();
        std::fs::write(path, json + "\n").map_err(|e| format!("write {path}: {e}"))?;
    }
    Ok(reports)
}

/// Open-loop phase: `cfg.open_sessions` arrivals scheduled at exactly
/// `rate` per second from a common origin; `cfg.open_workers` client
/// threads absorb them. When the server (or the worker pool) falls behind,
/// arrivals queue and the sojourn percentiles show it — that is the
/// measurement.
fn run_open_loop(
    cfg: &LoadgenConfig,
    addr: &str,
    rate: f64,
    report_snapshot: Option<&Snapshot>,
    srv_requests_seen: &mut u64,
) -> Result<LevelReport, String> {
    struct OpenStats {
        inner: ThreadStats,
        sojourns_ns: Vec<u64>,
    }

    let schedule = cfg.mix_schedule();
    let total = cfg.open_sessions;
    // The open-loop phase is a single measurement; it drives at the first
    // configured batch size (1 unless `--batch-size` says otherwise).
    let batch = cfg.batch_sizes[0];
    let counter = Arc::new(AtomicUsize::new(0));
    let t0 = Instant::now();
    let stats: Vec<OpenStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.open_workers)
            .map(|t| {
                let counter = counter.clone();
                let schedule = &schedule;
                let seed = cfg.seed;
                scope.spawn(move || -> Result<OpenStats, String> {
                    let mut client = RetryClient::connect(
                        addr,
                        seed ^ 0xA5A5 ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let mut stats = OpenStats {
                        inner: ThreadStats::default(),
                        sojourns_ns: Vec::new(),
                    };
                    loop {
                        let i = counter.fetch_add(1, Ordering::Relaxed);
                        if i >= total {
                            break;
                        }
                        // Fixed-rate arrival process: session i is *due* at
                        // t0 + i/rate, regardless of how the others fared.
                        let due = t0 + Duration::from_secs_f64(i as f64 / rate);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let name = &schedule[i % schedule.len()];
                        let spec =
                            policy_spec(name, seed ^ (i as u64) << 17).expect("mix validated");
                        let req = CreateSessionReq {
                            snapshot: "bench".into(),
                            policy: spec,
                            world_seed: seed.wrapping_add(i as u64),
                        };
                        let report_snap = report_snapshot.filter(|_| cfg.is_report_session(i));
                        let (ledger, reported) =
                            drive_session(&mut client, &req, batch, report_snap)
                                .map_err(|e| format!("open session {i} ({name}): {e}"))?;
                        stats.inner.report_sessions += usize::from(reported);
                        stats.inner.sessions += 1;
                        stats.inner.seeds += ledger.selected.len();
                        // Sojourn from the *scheduled* arrival: overload
                        // shows up as queueing delay here.
                        stats.sojourns_ns.push(due.elapsed().as_nanos() as u64);
                    }
                    stats.inner.latencies = client.latencies;
                    stats.inner.retries = client.retries;
                    stats.inner.shed_503 = client.shed_503;
                    Ok(stats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let wall_s = t0.elapsed().as_secs_f64();

    let latencies = Histogram::new();
    for s in &stats {
        latencies.merge_from(&s.inner.latencies);
    }
    let mut sojourns: Vec<u64> = stats
        .iter()
        .flat_map(|s| s.sojourns_ns.iter().copied())
        .collect();
    sojourns.sort_unstable();
    let requests = latencies.count() as usize;
    let sessions: usize = stats.iter().map(|s| s.inner.sessions).sum();
    let srv = scrape_server_side(addr, srv_requests_seen)?;
    Ok(LevelReport {
        mode: "open",
        level: cfg.open_workers,
        rate,
        batch_size: batch,
        sessions,
        requests,
        seeds: stats.iter().map(|s| s.inner.seeds).sum(),
        report_sessions: stats.iter().map(|s| s.inner.report_sessions).sum(),
        wall_s,
        rps: requests as f64 / wall_s.max(1e-9),
        goodput_sps: sessions as f64 / wall_s.max(1e-9),
        p50_us: latencies.quantile(0.50) / 1_000.0,
        p95_us: latencies.quantile(0.95) / 1_000.0,
        p99_us: latencies.quantile(0.99) / 1_000.0,
        sojourn_p95_ms: percentile(&sojourns, 0.95) / 1_000.0,
        retries: stats.iter().map(|s| s.inner.retries).sum(),
        shed_503: stats.iter().map(|s| s.inner.shed_503).sum(),
        recovered_sessions: fetch_recovered(addr),
        srv_requests: srv.requests,
        srv_p50_us: srv.p50_us,
        srv_p95_us: srv.p95_us,
        srv_p99_us: srv.p99_us,
    })
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

/// Locates the `atpm-served` binary next to the running executable:
/// `target/<profile>/atpm-served`, one directory up when this binary runs
/// from `target/<profile>/deps/` (as test binaries do).
fn served_binary() -> Result<std::path::PathBuf, String> {
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
/// preset snapshot every loadgen run measures (see [`snapshot_req`]).
fn spawn_served(
    cfg: &LoadgenConfig,
    addr: &str,
    journal: &std::path::Path,
) -> Result<ServedChild, String> {
    let bin = served_binary()?;
    let child = std::process::Command::new(&bin)
        .arg("--addr")
        .arg(addr)
        .arg("--journal")
        .arg(journal)
        .args(["--fsync", "group:5", "--checkpoint-every", "1"])
        .args(["--preset", "nethept", "--name", "bench"])
        .arg("--scale")
        .arg(cfg.scale.to_string())
        .arg("--k")
        .arg(cfg.k.to_string())
        .arg("--rr-theta")
        .arg(cfg.rr_theta.to_string())
        .arg("--seed")
        .arg(cfg.seed.to_string())
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

/// The crash-restart drill (`--crash-every N`): the durability contract,
/// measured end to end through real processes.
///
/// Boots `atpm-served` as a child process journaling under `--fsync
/// group:5`, interleaves N+ sessions through it (so sessions are always
/// mid-flight), and SIGKILLs the process every `every` completed sessions —
/// no drain, no shutdown fsync, exactly the failure the group-commit
/// barrier exists for. After each kill the supervisor restarts the server
/// on the same journal and the client rides the transport retries through
/// the outage (a replayed `next` re-serves the pending seed; a replayed
/// `observe` answering 409 means the original landed).
///
/// Hard-fails (propagating `Err` out of the run) unless:
///
/// * every session completes and its ledger is **bit-equal**
///   (`f64::to_bits` on profit, exact on every other field) to an
///   uninterrupted in-process reference run over the same snapshot — acked
///   state must never be lost or altered by a kill;
/// * at least one kill actually happened and the restarted server reported
///   recovering journaled sessions (`recovered_sessions` on healthz).
fn run_crash_drill(cfg: &LoadgenConfig, every: usize) -> Result<LevelReport, String> {
    // Enough sessions that at least one kill lands with work in flight.
    let total = cfg.sessions_per_level.max(every + 1);
    let schedule = cfg.mix_schedule();
    let session_req = |i: usize| CreateSessionReq {
        snapshot: "bench".into(),
        policy: policy_spec(&schedule[i % schedule.len()], cfg.seed ^ (i as u64) << 17)
            .expect("mix validated"),
        world_seed: cfg.seed.wrapping_add(i as u64),
    };

    // Reference ledgers: the same sessions, uninterrupted, in process.
    let reference: Vec<Ledger> = {
        let state = AppState::new();
        state.store.insert(
            Snapshot::build(&snapshot_req(cfg))
                .map_err(|e| format!("crash drill: reference snapshot: {e}"))?,
        );
        let mut client = atpm_serve::client::LocalClient::new(state);
        (0..total)
            .map(|i| client.run_session(&session_req(i)))
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
    let dir = std::env::temp_dir().join(format!("atpm-crash-drill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("crash drill: mkdir {dir:?}: {e}"))?;
    let journal = dir.join("journal");
    let boot_deadline = Duration::from_secs(120);
    let mut child = spawn_served(cfg, &addr, &journal)?;
    wait_healthz(&addr, boot_deadline)?;

    let mut client =
        RetryClient::connect(&addr, cfg.seed ^ 0xC4A5_C4A5).with_max_attempts(MAX_ATTEMPTS * 8);
    let t0 = Instant::now();

    // Create everything up front, then drive the sessions round-robin one
    // seed batch at a time — kills always land with sessions mid-flight.
    let mut tokens = Vec::with_capacity(total);
    for i in 0..total {
        tokens.push(
            client
                .create_session(&session_req(i))
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
                    child = spawn_served(cfg, &addr, &journal)?;
                    wait_healthz(&addr, boot_deadline)?;
                    recovered_total += fetch_recovered(&addr);
                }
            }
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();

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
        return Err("crash drill: no kill happened (too few sessions for --crash-every)".into());
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
    let report = LevelReport {
        mode: "crash",
        level: 1,
        rate: 0.0,
        batch_size: 1,
        sessions: total,
        requests: client.latencies.count() as usize,
        seeds: ledgers
            .iter()
            .map(|l| l.as_ref().map_or(0, |l| l.selected.len()))
            .sum(),
        report_sessions: 0,
        wall_s,
        rps: client.latencies.count() as f64 / wall_s.max(1e-9),
        goodput_sps: total as f64 / wall_s.max(1e-9),
        p50_us: client.latencies.quantile(0.50) / 1_000.0,
        p95_us: client.latencies.quantile(0.95) / 1_000.0,
        p99_us: client.latencies.quantile(0.99) / 1_000.0,
        sojourn_p95_ms: 0.0,
        retries: client.retries,
        shed_503: client.shed_503,
        recovered_sessions: recovered_total,
        srv_requests: srv.requests,
        srv_p50_us: srv.p50_us,
        srv_p95_us: srv.p95_us,
        srv_p99_us: srv.p99_us,
    };
    drop(child);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(report)
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

/// Renders the report table.
pub fn render(reports: &[LevelReport]) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>6} {:>6} {:>6} {:>5} {:>9} {:>9} {:>6} {:>8} {:>9} {:>8} {:>9} {:>9} {:>9} {:>10} {:>10} {:>11} {:>7} {:>6} {:>5}",
        "mode",
        "level",
        "rate",
        "batch",
        "sessions",
        "requests",
        "seeds",
        "wall_s",
        "rps",
        "good_sps",
        "p50_us",
        "p95_us",
        "p99_us",
        "srv_p50_us",
        "srv_p95_us",
        "soj_p95_ms",
        "retries",
        "shed",
        "recov"
    );
    for r in reports {
        let _ = writeln!(
            out,
            "{:>6} {:>6} {:>6.1} {:>5} {:>9} {:>9} {:>6} {:>8.2} {:>9.0} {:>8.1} {:>9.0} {:>9.0} {:>9.0} {:>10.0} {:>10.0} {:>11.1} {:>7} {:>6} {:>5}",
            r.mode,
            r.level,
            r.rate,
            r.batch_size,
            r.sessions,
            r.requests,
            r.seeds,
            r.wall_s,
            r.rps,
            r.goodput_sps,
            r.p50_us,
            r.p95_us,
            r.p99_us,
            r.srv_p50_us,
            r.srv_p95_us,
            r.sojourn_p95_ms,
            r.retries,
            r.shed_503,
            r.recovered_sessions
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn parse_defaults_and_flags() {
        let cfg = LoadgenConfig::parse(&[]).unwrap();
        assert!(cfg.levels.len() >= 2, "default sweeps >= 2 levels");
        let cfg = LoadgenConfig::parse(&s(&[
            "--levels",
            "1,8",
            "--sessions",
            "10",
            "--mix",
            "ars=1",
            "--no-json",
        ]))
        .unwrap();
        assert_eq!(cfg.levels, vec![1, 8]);
        assert_eq!(cfg.sessions_per_level, 10);
        assert!(cfg.json_path.is_none());
        assert_eq!(cfg.mix_schedule(), vec!["ars"]);
    }

    #[test]
    fn quick_keeps_json_and_addr_overrides() {
        let cfg = LoadgenConfig::parse(&s(&["--json", "out.json", "--quick"])).unwrap();
        assert_eq!(cfg.json_path.as_deref(), Some("out.json"));
        assert_eq!(cfg.levels, vec![1, 2]);
    }

    #[test]
    fn parse_rejects_bad_input() {
        assert!(LoadgenConfig::parse(&s(&["--levels", "0"])).is_err());
        assert!(LoadgenConfig::parse(&s(&["--sessions", "0"])).is_err());
        assert!(LoadgenConfig::parse(&s(&["--mix", "nope=1"])).is_err());
        assert!(LoadgenConfig::parse(&s(&["--mix", "hatp"])).is_err());
        assert!(LoadgenConfig::parse(&s(&["--whatever"])).is_err());
    }

    #[test]
    fn mix_schedule_expands_weights() {
        let cfg = LoadgenConfig::parse(&s(&["--mix", "hatp=1,deploy_all=2"])).unwrap();
        assert_eq!(cfg.mix_schedule(), vec!["hatp", "deploy_all", "deploy_all"]);
    }

    #[test]
    fn percentiles_are_sane() {
        let ns: Vec<u64> = (1..=100).map(|i| i * 1_000).collect();
        assert!((percentile(&ns, 0.5) - 50.0).abs() <= 1.0);
        assert!((percentile(&ns, 0.99) - 99.0).abs() <= 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn parse_rate_and_open_flags() {
        let cfg = LoadgenConfig::parse(&s(&[
            "--rate",
            "2.5",
            "--open-sessions",
            "9",
            "--open-workers",
            "3",
        ]))
        .unwrap();
        assert_eq!(cfg.rate, Some(2.5));
        assert_eq!(cfg.open_sessions, 9);
        assert_eq!(cfg.open_workers, 3);
        assert!(LoadgenConfig::parse(&s(&["--rate", "0"])).is_err());
        assert!(LoadgenConfig::parse(&s(&["--rate", "1", "--open-workers", "0"])).is_err());
        // --quick keeps an explicitly chosen rate.
        let cfg = LoadgenConfig::parse(&s(&["--rate", "4", "--quick"])).unwrap();
        assert_eq!(cfg.rate, Some(4.0));
    }

    #[test]
    fn smoke_run_measures_two_levels() {
        // A miniature end-to-end sweep: real server, real sockets, tiny
        // snapshot. Keeps CI honest about the whole loadgen path.
        let cfg = LoadgenConfig {
            levels: vec![1, 2],
            sessions_per_level: 2,
            scale: 0.005,
            k: 2,
            rr_theta: 500,
            mix: vec![("deploy_all".into(), 1)],
            json_path: None,
            ..Default::default()
        };
        let reports = run(&cfg).unwrap();
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert_eq!(r.mode, "closed");
            assert_eq!(r.sessions, 2);
            assert!(r.requests > 0);
            assert!(r.rps > 0.0);
            assert!(r.p50_us <= r.p95_us && r.p95_us <= r.p99_us);
            // An unloaded smoke run never sheds, retries, or recovers —
            // and the schema still carries the counters.
            assert_eq!((r.retries, r.shed_503, r.recovered_sessions), (0, 0, 0));
            // The /metrics scrape folded in: the server handled at least
            // this level's requests, and its handling-time quantiles are
            // positive and ordered.
            assert!(r.srv_requests >= r.requests as u64);
            assert!(r.srv_p50_us > 0.0);
            assert!(r.srv_p50_us <= r.srv_p95_us && r.srv_p95_us <= r.srv_p99_us);
            let json = r.to_json();
            assert_eq!(json.get("shed_503").and_then(Json::as_u64), Some(0));
            assert_eq!(json.get("retries").and_then(Json::as_u64), Some(0));
            assert!(json.get("srv_p50_us").is_some(), "schema carries srv side");
        }
        // Cumulative server counter: later levels see at least as many.
        assert!(reports[1].srv_requests >= reports[0].srv_requests);
        assert!(render(&reports).contains("rps"));
        assert!(render(&reports).contains("shed"));
    }

    #[test]
    fn smoke_open_loop_reports_goodput_and_sojourn() {
        let cfg = LoadgenConfig {
            levels: vec![1],
            sessions_per_level: 1,
            rate: Some(50.0),
            open_sessions: 8,
            open_workers: 4,
            scale: 0.005,
            k: 2,
            rr_theta: 500,
            mix: vec![("deploy_all".into(), 1)],
            json_path: None,
            ..Default::default()
        };
        let reports = run(&cfg).unwrap();
        assert_eq!(reports.len(), 2, "closed level + open record");
        let open = &reports[1];
        assert_eq!(open.mode, "open");
        assert_eq!(open.rate, 50.0);
        assert_eq!(open.sessions, 8);
        assert!(open.goodput_sps > 0.0);
        assert!(open.sojourn_p95_ms > 0.0);
        let json = open.to_json();
        assert_eq!(
            json.get("mode").and_then(Json::as_str),
            Some("open"),
            "wire schema carries the mode tag"
        );
    }

    #[test]
    fn report_frac_parses_and_schedules_deterministically() {
        let cfg = LoadgenConfig::parse(&s(&["--report-frac", "0.5"])).unwrap();
        assert_eq!(cfg.report_frac, 0.5);
        let picked: Vec<bool> = (0..8).map(|i| cfg.is_report_session(i)).collect();
        assert_eq!(picked.iter().filter(|&&b| b).count(), 4, "{picked:?}");
        // Deterministic: same config, same assignment.
        assert_eq!(
            picked,
            (0..8).map(|i| cfg.is_report_session(i)).collect::<Vec<_>>()
        );
        // Endpoints.
        let none = LoadgenConfig::parse(&[]).unwrap();
        assert!((0..16).all(|i| !none.is_report_session(i)));
        let all = LoadgenConfig::parse(&s(&["--report-frac", "1"])).unwrap();
        assert!((0..16).all(|i| all.is_report_session(i)));
        // Out of range rejected.
        assert!(LoadgenConfig::parse(&s(&["--report-frac", "1.5"])).is_err());
        assert!(LoadgenConfig::parse(&s(&["--report-frac", "-0.1"])).is_err());
    }

    #[test]
    fn smoke_run_with_report_mix_exercises_the_report_path() {
        // Half the sessions drive the client-world report protocol; the
        // ledger totals must come back exactly like simulate-mode (the e2e
        // suite pins the byte-identity; here we pin the loadgen plumbing).
        let cfg = LoadgenConfig {
            levels: vec![2],
            sessions_per_level: 4,
            scale: 0.005,
            k: 2,
            rr_theta: 500,
            mix: vec![("deploy_all".into(), 1)],
            report_frac: 0.5,
            json_path: None,
            ..Default::default()
        };
        let reports = run(&cfg).unwrap();
        assert_eq!(reports[0].sessions, 4);
        assert_eq!(reports[0].report_sessions, 2, "half the mix reports");
        assert!(reports[0].seeds > 0);
        let json = reports[0].to_json();
        assert_eq!(
            json.get("report_sessions").and_then(Json::as_u64),
            Some(2),
            "schema carries the report count"
        );
    }

    #[test]
    fn parse_batch_size_flag() {
        assert_eq!(LoadgenConfig::parse(&[]).unwrap().batch_sizes, vec![1]);
        let cfg = LoadgenConfig::parse(&s(&["--batch-size", "1,4,8"])).unwrap();
        assert_eq!(cfg.batch_sizes, vec![1, 4, 8]);
        assert!(LoadgenConfig::parse(&s(&["--batch-size", "0"])).is_err());
        assert!(LoadgenConfig::parse(&s(&["--batch-size", "4,0"])).is_err());
        assert!(LoadgenConfig::parse(&s(&["--batch-size", "nope"])).is_err());
        // --quick keeps an explicitly chosen sweep.
        let cfg = LoadgenConfig::parse(&s(&["--batch-size", "1,4", "--quick"])).unwrap();
        assert_eq!(cfg.batch_sizes, vec![1, 4]);
        // threshold_batch is a valid mix policy.
        let cfg = LoadgenConfig::parse(&s(&["--mix", "threshold_batch=1"])).unwrap();
        assert_eq!(cfg.mix_schedule(), vec!["threshold_batch"]);
    }

    #[test]
    fn smoke_batched_sweep_amortizes_round_trips_with_identical_outcomes() {
        // One level, two batch sizes: the same sessions over the same
        // worlds must commit identical seed totals, while the K=4 leg
        // spends strictly fewer HTTP requests — the round-trip
        // amortization BENCH_serve.json exists to record. (deploy_all
        // only: its selections are observation-independent, so the seed
        // totals are k-invariant; ThresholdBatch's are legitimately not.)
        let cfg = LoadgenConfig {
            levels: vec![1],
            sessions_per_level: 3,
            scale: 0.005,
            k: 2,
            rr_theta: 500,
            mix: vec![("deploy_all".into(), 1)],
            batch_sizes: vec![1, 4],
            json_path: None,
            ..Default::default()
        };
        let reports = run(&cfg).unwrap();
        assert_eq!(reports.len(), 2, "one record per batch size");
        let (k1, k4) = (&reports[0], &reports[1]);
        assert_eq!((k1.batch_size, k4.batch_size), (1, 4));
        assert_eq!(k1.sessions, 3);
        assert_eq!(k4.sessions, 3);
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
        assert_eq!(
            k4.to_json().get("batch_size").and_then(Json::as_u64),
            Some(4),
            "schema carries the batch size"
        );
    }

    #[test]
    fn parse_crash_every_flag() {
        let cfg = LoadgenConfig::parse(&s(&["--crash-every", "3"])).unwrap();
        assert_eq!(cfg.crash_every, Some(3));
        assert!(LoadgenConfig::parse(&s(&["--crash-every", "0"])).is_err());
        assert_eq!(LoadgenConfig::parse(&[]).unwrap().crash_every, None);
        // --quick keeps an explicitly chosen drill.
        let cfg = LoadgenConfig::parse(&s(&["--crash-every", "2", "--quick"])).unwrap();
        assert_eq!(cfg.crash_every, Some(2));
    }

    #[test]
    fn crash_drill_recovers_every_acked_session_bit_equal() {
        // The real thing, miniaturized: a journaling atpm-served child is
        // SIGKILLed twice mid-run and every session must still finish with
        // a ledger bit-equal to an uninterrupted reference run. Needs the
        // atpm-served binary, which `cargo test` builds because atpm-serve
        // has integration tests.
        let cfg = LoadgenConfig {
            sessions_per_level: 5,
            scale: 0.005,
            k: 2,
            rr_theta: 500,
            mix: vec![("deploy_all".into(), 2), ("ars".into(), 1)],
            json_path: None,
            ..Default::default()
        };
        let report = run_crash_drill(&cfg, 2).unwrap();
        assert_eq!(report.mode, "crash");
        assert_eq!(report.sessions, 5);
        assert!(report.seeds > 0);
        assert!(
            report.recovered_sessions > 0,
            "kills must force journal replays"
        );
        assert!(
            report.retries > 0,
            "the kill severs connections; the client must have ridden retries"
        );
        let json = report.to_json();
        assert_eq!(json.get("mode").and_then(Json::as_str), Some("crash"));
        assert!(json.get("recovered_sessions").and_then(Json::as_u64) > Some(0));
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

    #[test]
    fn smoke_run_threshold_batch_wire_policy() {
        // ThresholdBatch sessions driven over the wire next to DeployAll.
        let cfg = LoadgenConfig {
            levels: vec![2],
            sessions_per_level: 2,
            scale: 0.005,
            k: 2,
            rr_theta: 500,
            mix: vec![("deploy_all".into(), 1), ("threshold_batch".into(), 1)],
            json_path: None,
            ..Default::default()
        };
        let reports = run(&cfg).unwrap();
        assert_eq!(reports[0].sessions, 2);
    }
}
