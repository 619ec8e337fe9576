//! The TCP front end: the path router, the shared application state, and
//! the [`Server`] that runs them over the epoll transport.
//!
//! Reactor shards from `atpm-net` multiplex any number of keep-alive
//! connections over a small worker pool (see the `epoll` module). Connection
//! count and worker count are decoupled: thousands of mostly-idle campaign
//! clients cost fds, not threads. The transport needs the `atpm-net` epoll
//! shims (Linux x86_64/aarch64); elsewhere [`Server::start`] fails with
//! `Unsupported`.
//!
//! Each worker thread owns a [`CoverageScratch`] for the lifetime of the
//! process: estimate queries against a snapshot's pre-frozen RR index
//! reuse it across requests, so the steady-state read path performs zero
//! heap allocation in the coverage oracle (the same discipline the RIS
//! engine enforces in-process). Concurrency across *sessions* comes from
//! the per-session locks in [`SessionManager`].

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use atpm_obs::tracer;
use atpm_ris::CoverageScratch;

use crate::epoll::EpollBackend;
use crate::http::Request;
use crate::journal::{FsyncPolicy, Journal, RealIo};
use crate::json::Json;
use crate::manager::SessionManager;
use crate::metrics::ServeMetrics;
use crate::protocol::{
    nodes_field, ApiError, CreateSessionReq, NextBatchReq, ObserveBatchReq, ObserveReq, SnapshotReq,
};
use crate::snapshot::{Snapshot, SnapshotStore};

/// Everything the routes need: snapshot store + session manager + the
/// metrics registry both `/healthz` and `/metrics` read from.
pub struct AppState {
    /// Named snapshots.
    pub store: Arc<SnapshotStore>,
    /// Live sessions.
    pub manager: SessionManager,
    /// Overload / durability / latency metrics (see [`ServeMetrics`]).
    /// `/healthz` reads the same atomics `/metrics` exports, so the two
    /// endpoints cannot disagree.
    pub metrics: Arc<ServeMetrics>,
    /// Structured request event ring behind `GET /debug/events`.
    pub events: Arc<atpm_obs::EventLog>,
    /// Generated `X-Request-Id` sequence. Consumed only for *parsed*
    /// requests that arrive without a usable client id — never for
    /// malformed input or shed jobs — so a fresh server numbers its
    /// answered requests `0, 1, 2, ...` with no gaps from rejects.
    request_seq: AtomicU64,
}

impl AppState {
    /// Fresh state with an empty store.
    pub fn new() -> Arc<AppState> {
        let store = Arc::new(SnapshotStore::new());
        let metrics = Arc::new(ServeMetrics::new());
        let manager = SessionManager::new(store.clone());
        manager.bind_metrics(metrics.clone());
        let state = Arc::new(AppState {
            manager,
            store,
            metrics,
            events: Arc::new(atpm_obs::EventLog::with_cap(4_096)),
            request_seq: AtomicU64::new(0),
        });
        state.metrics.bind_state(&state);
        state.metrics.bind_events(&state.events);
        state
    }
}

/// The request's diagnostic id: the client's `X-Request-Id` when it is
/// usable (non-empty, ≤ 64 bytes, RFC 7230 token characters only — it is
/// echoed into a response header, so anything that could smuggle header
/// syntax is refused), else the next generated `req-{seq:016x}`. Workers
/// call this once per parsed request, before `respond`.
pub(crate) fn request_id(state: &AppState, req: &Request) -> String {
    if let Some(id) = req.header("x-request-id") {
        if valid_request_id(id) {
            return id.to_string();
        }
    }
    format!(
        "req-{:016x}",
        state.request_seq.fetch_add(1, Ordering::Relaxed)
    )
}

/// Whether a client-supplied `X-Request-Id` is safe to echo back.
pub(crate) fn valid_request_id(id: &str) -> bool {
    !id.is_empty() && id.len() <= 64 && id.bytes().all(is_tchar)
}

/// RFC 7230 `tchar`: the characters legal in a token (and therefore safe
/// to echo verbatim inside a header value).
fn is_tchar(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b"!#$%&'*+-.^_`|~".contains(&b)
}

/// Dispatches one protocol call. Both the HTTP workers and the in-process
/// [`LocalClient`](crate::client::LocalClient) land here, so the two drive
/// paths cannot diverge.
pub fn route(
    state: &AppState,
    method: &str,
    path: &str,
    body: &Json,
    scratch: &mut CoverageScratch,
) -> Result<(u16, Json), ApiError> {
    let segments: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    // Degraded mode (fsyncgate semantics): once a durability failure
    // poisoned the journal, mutating session routes stop acking — the disk
    // may not hold what an ack would promise. Read routes, snapshot
    // management, and the observability surface keep serving.
    if matches!(
        (method, segments.as_slice()),
        ("POST", ["sessions"])
            | ("POST", ["sessions", _, "next"])
            | ("POST", ["sessions", _, "next_batch"])
            | ("POST", ["sessions", _, "observe"])
            | ("POST", ["sessions", _, "observe_batch"])
            | ("DELETE", ["sessions", _])
    ) && state.manager.journal_degraded()
    {
        return Err(ApiError::new(
            503,
            "journal degraded; durability lost; mutations disabled",
        ));
    }
    match (method, segments.as_slice()) {
        ("GET", ["healthz"]) => {
            // Reads the same registry atomics /metrics exports. Field
            // order and JSON shapes are pinned by the golden transcripts
            // in tests/http_edge_cases.rs.
            let m = &state.metrics;
            // Journal fields are always present — a journal-less manager
            // reports inert defaults — so the body has one shape for
            // every configuration.
            let js = state.manager.journal_stats();
            Ok((
                200,
                Json::obj([
                    ("ok", Json::Bool(true)),
                    ("sessions", Json::UInt(state.manager.len() as u64)),
                    ("queue_depth", Json::UInt(m.queue_depth.get().max(0) as u64)),
                    ("max_queue", Json::UInt(m.max_queue.get().max(0) as u64)),
                    ("shed_503", Json::UInt(m.shed_503.get())),
                    ("recovered_sessions", Json::UInt(m.recovered_sessions.get())),
                    ("draining", Json::Bool(m.draining.get() != 0)),
                    ("journal_bytes", Json::UInt(js.bytes)),
                    ("segments", Json::UInt(js.segments)),
                    ("last_checkpoint_seq", Json::UInt(js.last_checkpoint_seq)),
                    ("fsync_policy", Json::Str(js.policy)),
                    ("journal_degraded", Json::Bool(js.degraded)),
                ]),
            ))
        }

        ("GET", ["snapshots"]) => Ok((200, state.store.list_json())),
        ("POST", ["snapshots"]) => {
            let req = SnapshotReq::from_json(body)?;
            let snap = Snapshot::build(&req)?;
            let info = snap.info_json();
            state.store.insert(snap);
            Ok((201, info))
        }
        ("GET", ["snapshots", name]) => {
            let snap = state
                .store
                .get(name)
                .ok_or_else(|| ApiError::not_found("snapshot", name))?;
            Ok((200, snap.info_json()))
        }
        ("DELETE", ["snapshots", name]) => {
            if state.store.remove(name) {
                Ok((200, Json::obj([])))
            } else {
                Err(ApiError::not_found("snapshot", name))
            }
        }
        ("POST", ["snapshots", name, "estimate"]) => {
            let snap = state
                .store
                .get(name)
                .ok_or_else(|| ApiError::not_found("snapshot", name))?;
            let nodes = nodes_field(body, "nodes")?;
            let spread = snap.estimate_spread(&nodes, scratch)?;
            Ok((
                200,
                Json::obj([
                    ("spread", Json::Num(spread)),
                    ("rr_sets", Json::Num(snap.rr.len() as f64)),
                ]),
            ))
        }

        ("POST", ["sessions"]) => {
            let req = CreateSessionReq::from_json(body)?;
            let (token, algorithm, k) = state.manager.create(&req)?;
            Ok((
                201,
                Json::obj([
                    ("session", Json::Str(token)),
                    ("algorithm", Json::Str(algorithm)),
                    ("k", Json::Num(k as f64)),
                ]),
            ))
        }
        ("POST", ["sessions", token, verb @ ("next" | "next_batch")]) => {
            let batch = match *verb {
                "next" => state.manager.next(token)?,
                _ => state
                    .manager
                    .next_batch(token, NextBatchReq::from_json(body)?.k)?,
            };
            Ok((
                200,
                Json::obj([
                    ("seeds", Json::nums(batch.seeds.iter().copied())),
                    ("done", Json::Bool(batch.done)),
                ]),
            ))
        }
        ("POST", ["sessions", token, verb @ ("observe" | "observe_batch")]) => {
            let obs = match *verb {
                "observe" => state
                    .manager
                    .observe(token, &ObserveReq::from_json(body)?)?,
                _ => state
                    .manager
                    .observe_batch(token, &ObserveBatchReq::from_json(body)?)?,
            };
            Ok((
                200,
                Json::obj([
                    ("activated", Json::nums(obs.activated.iter().copied())),
                    ("newly_activated", Json::Num(obs.newly_activated as f64)),
                    ("ledger", obs.ledger.to_json()),
                ]),
            ))
        }
        ("GET", ["sessions", token, "ledger"]) => Ok((200, state.manager.ledger(token)?.to_json())),
        ("DELETE", ["sessions", token]) => {
            if state.manager.delete(token) {
                Ok((200, Json::obj([])))
            } else if state.manager.was_expired(token) {
                Err(ApiError::new(
                    410,
                    format!("session '{token}' expired and was evicted"),
                ))
            } else {
                Err(ApiError::not_found("session", token))
            }
        }

        _ => Err(ApiError::new(404, format!("no route for {method} {path}"))),
    }
}

/// A response payload: the protocol surface is JSON throughout, except
/// `GET /metrics`, which serves the Prometheus text exposition.
pub(crate) enum RespBody {
    /// `application/json` (everything but /metrics).
    Json(Json),
    /// Pre-rendered text with an explicit content type (/metrics).
    Text(&'static str, String),
}

/// Runs `route` on a raw request, folding parse failures and `ApiError`s
/// into JSON error responses. Called by the epoll workers in
/// [`crate::epoll`].
///
/// `GET /metrics` is intercepted here, before the JSON router: the
/// exposition is plain text, and rendering it inside `respond` (while
/// request recording happens strictly after `respond` returns) is what
/// keeps a scrape from observing itself.
pub(crate) fn respond(
    state: &AppState,
    req: &Request,
    scratch: &mut CoverageScratch,
) -> (u16, RespBody) {
    if req.method == "GET" && req.path == "/metrics" {
        return (
            200,
            RespBody::Text(atpm_obs::CONTENT_TYPE, state.metrics.render()),
        );
    }
    if req.method == "GET" && req.path == "/debug/profile" {
        return debug_profile(req);
    }
    if req.method == "GET" && req.path == "/debug/events" {
        let n = req
            .query_param("n")
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(100)
            .clamp(1, 4_096);
        return (
            200,
            RespBody::Text("text/plain; charset=utf-8", state.events.render_tail(n)),
        );
    }
    let body = if req.body.is_empty() {
        Ok(Json::obj([]))
    } else {
        std::str::from_utf8(&req.body)
            .map_err(|_| "body is not UTF-8".to_string())
            .and_then(|text| Json::parse(text).map_err(|e| e.to_string()))
    };
    let result = match body {
        Ok(body) => {
            // A panicking handler (policy assertion, arithmetic bug) must
            // cost one request, not the worker thread — an unwound worker
            // silently shrinks the worker pool until the server is deaf.
            // The panicked session quarantines itself: its state was taken
            // and not restored, so later calls on it get a clean 500.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                route(state, &req.method, &req.path, &body, scratch)
            }))
            .unwrap_or_else(|_| Err(ApiError::new(500, "internal error (handler panicked)")))
        }
        Err(msg) => Err(ApiError::bad_request(msg)),
    };
    match result {
        Ok((status, json)) => (status, RespBody::Json(json)),
        Err(e) => (
            e.status,
            RespBody::Json(Json::obj([("error", Json::Str(e.message))])),
        ),
    }
}

/// `GET /debug/profile?seconds=N`: a windowed CPU profile of the running
/// server, as folded stacks (flamegraph.pl / Speedscope input). When the
/// profiler is not armed (`--profile-hz 0`, the default) it is armed at
/// 99 Hz for the window and disarmed after, so the endpoint works — and
/// costs nothing — on an otherwise unprofiled server.
///
/// The handler *blocks its worker* for the window (clamped to 1..=30 s);
/// a process-wide mutex serializes overlapping windows so a second
/// concurrent call waits rather than disarming under the first.
fn debug_profile(req: &Request) -> (u16, RespBody) {
    static WINDOW: Mutex<()> = Mutex::new(());
    let seconds = req
        .query_param("seconds")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(1)
        .clamp(1, 30);
    let _window = WINDOW.lock().unwrap_or_else(|p| p.into_inner());
    let temporary = atpm_net::sys::profiler_hz() == 0;
    if temporary {
        if let Err(e) = atpm_net::sys::profiler_arm(99) {
            return (
                501,
                RespBody::Text("text/plain", format!("profiler unavailable: {e}\n")),
            );
        }
    }
    let pos = atpm_obs::profile::cursor();
    std::thread::sleep(std::time::Duration::from_secs(seconds));
    let folded = atpm_obs::profile::render_folded_since(pos);
    if temporary {
        let _ = atpm_net::sys::profiler_disarm();
    }
    match folded {
        Ok(text) => (200, RespBody::Text("text/plain; charset=utf-8", text)),
        Err(e) => (
            500,
            RespBody::Text("text/plain", format!("symbolization failed: {e}\n")),
        ),
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Request-executing threads. Connection count is independent of it.
    pub workers: usize,
    /// Reactor shards: event-loop threads sharing the listener via
    /// `EPOLLEXCLUSIVE`.
    pub shards: usize,
    /// Evict sessions idle this long, answering later requests with
    /// `410 Gone`. `None` keeps sessions forever.
    pub session_ttl_ms: Option<u64>,
    /// Expiry sweep period (only meaningful with a TTL set).
    pub sweep_every_ms: u64,
    /// Snapshot-store LRU budget in bytes; `None` is unbounded.
    pub snapshot_budget_bytes: Option<usize>,
    /// Close *connections* (not sessions) idle this long — slowloris
    /// hygiene. Defaults to 60 s.
    pub idle_timeout_ms: u64,
    /// Shed dispatches with `503 Retry-After` once this many jobs are
    /// queued ahead of the workers. 0 disables shedding.
    pub max_queue: usize,
    /// Append committed session transitions to this journal and replay it
    /// (checkpoint + segment tail) on start. `None` keeps sessions
    /// memory-only.
    pub journal_path: Option<String>,
    /// When to fsync journal appends (see [`FsyncPolicy`]): `shutdown`
    /// defers durability to the final barrier, `group:MS` batches appends
    /// behind a shared barrier with a bounded-latency window, `always`
    /// fsyncs every record. Replies to mutating session routes are held
    /// until their record's barrier completes.
    pub fsync: FsyncPolicy,
    /// Checkpoint period: rotate the journal, compact the live sessions'
    /// sealed records into the checkpoint, and retire sealed segments this
    /// often. 0 disables checkpointing
    /// (the journal grows without bound, as before).
    pub checkpoint_every_ms: u64,
    /// On shutdown, give in-flight requests this long to finish writing
    /// before connections are torn down.
    pub drain_ms: u64,
    /// Enable the process tracer at boot and dump Chrome trace-event JSON
    /// (Perfetto / `chrome://tracing` loadable) to this path on shutdown.
    /// `None` leaves tracing disabled (one relaxed load per would-be span).
    pub trace_path: Option<String>,
    /// Arm the sampling CPU profiler at this rate for the server's whole
    /// lifetime; folded stacks dump to [`ServeConfig::profile_path`] on
    /// shutdown. 0 (the default) leaves the profiler off — zero overhead —
    /// and `GET /debug/profile` arms temporarily per window instead.
    pub profile_hz: u32,
    /// Where shutdown writes the cumulative folded-stack profile when
    /// [`ServeConfig::profile_hz`] > 0. `None` defaults to
    /// `atpm-profile.folded`.
    pub profile_path: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            shards: 2,
            session_ttl_ms: None,
            sweep_every_ms: 1_000,
            snapshot_budget_bytes: None,
            idle_timeout_ms: 60_000,
            max_queue: 1_024,
            journal_path: None,
            fsync: FsyncPolicy::default(),
            checkpoint_every_ms: 300_000,
            drain_ms: 500,
            trace_path: None,
            profile_hz: 0,
            profile_path: None,
        }
    }
}

/// A running server; dropping it (or calling [`shutdown`](Server::shutdown))
/// stops the workers.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    backend: EpollBackend,
    /// Kept so shutdown can raise `draining` and fsync the journal after
    /// the last worker exits.
    state: Arc<AppState>,
    /// Where shutdown dumps the Chrome trace, when tracing was enabled.
    trace_path: Option<String>,
    /// Where shutdown dumps the folded CPU profile, when the lifetime
    /// profiler (`profile_hz > 0`) armed successfully.
    profile_path: Option<String>,
    /// The periodic checkpoint thread, when journaling with
    /// `checkpoint_every_ms > 0`.
    checkpointer: Option<JoinHandle<()>>,
    /// The shutdown durability barrier's failure, if any. Surfaced via
    /// [`durability_error`](Server::durability_error) so the binary can
    /// exit nonzero — a supervisor must notice lost durability.
    durability_error: Option<io::Error>,
}

impl Server {
    /// Binds and starts the reactor shards and workers. Fails with
    /// `Unsupported` on platforms without the `atpm-net` epoll shims.
    ///
    /// With [`ServeConfig::journal_path`] set, the journal is opened (and
    /// replayed into the session manager) before the first connection is
    /// accepted; a journal that cannot be opened fails the boot rather
    /// than silently serving undurably.
    pub fn start(state: Arc<AppState>, cfg: &ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        if let Some(budget) = cfg.snapshot_budget_bytes {
            state.store.set_budget(budget);
        }
        state.metrics.max_queue.set(cfg.max_queue as i64);
        if cfg.trace_path.is_some() {
            tracer().set_enabled(true);
        }
        // Lifetime profiler: warn-and-continue when the platform lacks the
        // shims — profiling is diagnostics, not a reason to refuse boot.
        let mut profile_path = None;
        if cfg.profile_hz > 0 {
            match atpm_net::sys::profiler_arm(cfg.profile_hz) {
                Ok(()) => {
                    profile_path = Some(
                        cfg.profile_path
                            .clone()
                            .unwrap_or_else(|| "atpm-profile.folded".to_string()),
                    );
                }
                Err(e) => eprintln!("# profiler unavailable ({e}); continuing without"),
            }
        }
        if let Some(path) = &cfg.journal_path {
            let (journal, records) = Journal::open_with(path, cfg.fsync, Arc::new(RealIo))?;
            journal.bind_fsync_histogram(state.metrics.journal_fsync_seconds.clone());
            // A torn tail (partial append at the moment of a crash) is
            // normal for a kill -9, but it must never be *silent*: count
            // it, log the byte offset, and leave an event-ring record so
            // `/debug/events` shows it after the fact.
            for (file, offset) in &journal.open_info().torn {
                state.metrics.journal_torn_tail.inc();
                state.events.record(
                    "journal",
                    "boot",
                    &format!("torn tail truncated in {file} at byte {offset}"),
                    0,
                    Duration::ZERO,
                );
                eprintln!("# journal: torn tail truncated in {file} at byte {offset}");
            }
            // Checkpoint head watermark: recovered-then-deleted sessions
            // must never recycle a token.
            state
                .manager
                .bump_next_id(journal.open_info().next_id_floor);
            let t_replay = Instant::now();
            let recovered = state.manager.recover(&records);
            state
                .metrics
                .journal_replay_seconds
                .record_duration(t_replay.elapsed());
            state.manager.attach_journal(Arc::new(journal));
            state.metrics.recovered_sessions.add(recovered as u64);
        }
        let backend = EpollBackend::start(state.clone(), cfg, &listener, stop.clone())?;
        let checkpointer = (cfg.journal_path.is_some() && cfg.checkpoint_every_ms > 0).then(|| {
            let state = state.clone();
            let stop = stop.clone();
            let period = Duration::from_millis(cfg.checkpoint_every_ms);
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    // Sleep in short slices so shutdown isn't gated on the
                    // checkpoint period.
                    let mut slept = Duration::ZERO;
                    while slept < period && !stop.load(Ordering::SeqCst) {
                        let slice = Duration::from_millis(50).min(period - slept);
                        std::thread::sleep(slice);
                        slept += slice;
                    }
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    match state.manager.checkpoint() {
                        Ok(sessions) => state.events.record(
                            "journal",
                            "checkpoint",
                            &format!("checkpointed {sessions} sessions"),
                            0,
                            Duration::ZERO,
                        ),
                        // A failed checkpoint is not a durability loss —
                        // it removes nothing, so the checkpoint and sealed
                        // segments stay and replay next boot — but it must
                        // be visible.
                        Err(e) => {
                            state.events.record(
                                "journal",
                                "checkpoint",
                                &format!("checkpoint failed: {e}"),
                                0,
                                Duration::ZERO,
                            );
                            eprintln!("# journal checkpoint failed: {e}");
                        }
                    }
                }
            })
        });
        Ok(Server {
            addr,
            stop,
            backend,
            state,
            trace_path: cfg.trace_path.clone(),
            profile_path,
            checkpointer,
            durability_error: None,
        })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shutdown durability barrier's failure, if the final journal
    /// fsync failed (meaningful only after [`shutdown`](Server::shutdown)).
    /// A poisoned journal reports its original failure here too — `sync`
    /// on a poisoned journal fails fast.
    pub fn durability_error(&self) -> Option<&io::Error> {
        self.durability_error.as_ref()
    }

    /// Stops accepting, drains in-flight work (up to
    /// [`ServeConfig::drain_ms`]), joins every thread, and fsyncs the
    /// journal. Idempotent.
    pub fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.state.metrics.draining.set(1);
        self.backend.shutdown();
        if let Some(handle) = self.checkpointer.take() {
            let _ = handle.join();
        }
        // Every worker has exited: nothing appends anymore, so this is the
        // durability barrier for everything the journal holds. A failure
        // here means the tail of the run may not be on disk — record it so
        // the binary can exit nonzero and a supervisor notices.
        if let Err(e) = self.state.manager.sync_journal() {
            eprintln!("# journal fsync at shutdown failed: {e}; recent transitions may be lost");
            self.durability_error = Some(e);
        }
        if let Some(path) = self.trace_path.take() {
            match std::fs::write(&path, tracer().drain_json()) {
                Ok(()) => eprintln!("# trace written to {path}"),
                Err(e) => eprintln!("# trace write to {path} failed: {e}"),
            }
        }
        if let Some(path) = self.profile_path.take() {
            let _ = atpm_net::sys::profiler_disarm();
            // Cumulative dump: everything sampled since boot.
            match atpm_obs::profile::render_folded_since(0)
                .and_then(|folded| std::fs::write(&path, folded))
            {
                Ok(()) => eprintln!("# profile written to {path}"),
                Err(e) => eprintln!("# profile write to {path} failed: {e}"),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{PolicySpec, SnapshotSource};

    fn state_with_snapshot() -> Arc<AppState> {
        let state = AppState::new();
        state.store.insert(
            Snapshot::build(&SnapshotReq {
                name: "g".into(),
                source: SnapshotSource::Preset {
                    dataset: "nethept".into(),
                    scale: 0.02,
                },
                k: 4,
                rr_theta: 4_000,
                seed: 1,
                threads: 1,
            })
            .unwrap(),
        );
        state
    }

    fn call(state: &AppState, method: &str, path: &str, body: Json) -> (u16, Json) {
        let mut scratch = CoverageScratch::new();
        match route(state, method, path, &body, &mut scratch) {
            Ok(ok) => ok,
            Err(e) => (e.status, Json::obj([("error", Json::Str(e.message))])),
        }
    }

    #[test]
    fn routes_cover_the_protocol_surface() {
        let state = state_with_snapshot();
        let (status, health) = call(&state, "GET", "/healthz", Json::obj([]));
        assert_eq!(
            (status, health.get("ok").and_then(Json::as_bool)),
            (200, Some(true))
        );

        let (status, list) = call(&state, "GET", "/snapshots", Json::obj([]));
        assert_eq!(status, 200);
        assert_eq!(list.as_arr().unwrap().len(), 1);

        let (status, info) = call(&state, "GET", "/snapshots/g", Json::obj([]));
        assert_eq!(status, 200);
        assert_eq!(info.get("targets").unwrap().as_u64(), Some(4));

        let (status, est) = call(
            &state,
            "POST",
            "/snapshots/g/estimate",
            Json::obj([("nodes", Json::nums([0u32, 1]))]),
        );
        assert_eq!(status, 200);
        assert!(est.get("spread").unwrap().as_f64().unwrap() >= 0.0);

        let create = CreateSessionReq {
            snapshot: "g".into(),
            policy: PolicySpec::DeployAll,
            world_seed: 3,
        };
        let (status, resp) = call(&state, "POST", "/sessions", create.to_json());
        assert_eq!(status, 201);
        let token = resp.get("session").unwrap().as_str().unwrap().to_string();

        let (status, batch) = call(
            &state,
            "POST",
            &format!("/sessions/{token}/next"),
            Json::obj([]),
        );
        assert_eq!(status, 200);
        let seed = batch.get("seeds").unwrap().as_arr().unwrap()[0]
            .as_u64()
            .unwrap() as u32;

        let (status, obs) = call(
            &state,
            "POST",
            &format!("/sessions/{token}/observe"),
            ObserveReq::Simulate { seed }.to_json(),
        );
        assert_eq!(status, 200);
        assert!(obs.get("newly_activated").unwrap().as_u64().unwrap() >= 1);

        let (status, ledger) = call(
            &state,
            "GET",
            &format!("/sessions/{token}/ledger"),
            Json::obj([]),
        );
        assert_eq!(status, 200);
        assert_eq!(ledger.get("selected").unwrap().as_arr().unwrap().len(), 1);

        let (status, _) = call(
            &state,
            "DELETE",
            &format!("/sessions/{token}"),
            Json::obj([]),
        );
        assert_eq!(status, 200);
        let (status, _) = call(&state, "DELETE", "/snapshots/g", Json::obj([]));
        assert_eq!(status, 200);
    }

    #[test]
    fn unknown_routes_are_404_and_errors_carry_messages() {
        let state = state_with_snapshot();
        let (status, body) = call(&state, "GET", "/nope", Json::obj([]));
        assert_eq!(status, 404);
        assert!(body
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("/nope"));
        let (status, _) = call(&state, "PATCH", "/healthz", Json::obj([]));
        assert_eq!(status, 404);
        let (status, body) = call(&state, "POST", "/sessions", Json::obj([]));
        assert_eq!(status, 400);
        assert!(body.get("error").is_some());
    }

    #[test]
    fn server_boots_and_shuts_down() {
        let mut server = Server::start(state_with_snapshot(), &ServeConfig::default()).unwrap();
        assert_ne!(server.addr().port(), 0);
        server.shutdown();
        server.shutdown(); // idempotent
    }

    #[test]
    fn epoll_backend_multiplexes_more_connections_than_workers() {
        use crate::client::{HttpClient, ProtocolClient};
        // One worker, one shard — and 16 concurrently open keep-alive
        // clients must all be served, interleaved, without any of them
        // closing first.
        let state = state_with_snapshot();
        let cfg = ServeConfig {
            workers: 1,
            shards: 1,
            ..ServeConfig::default()
        };
        let mut server = Server::start(state, &cfg).unwrap();
        let mut clients: Vec<HttpClient> = (0..16)
            .map(|_| HttpClient::connect(server.addr()).unwrap())
            .collect();
        // Interleave requests across all open connections, twice over.
        for _round in 0..2 {
            for client in clients.iter_mut() {
                let resp = client.call("GET", "/healthz", &Json::obj([])).unwrap();
                assert_eq!(resp.get("ok").and_then(Json::as_bool), Some(true));
            }
        }
        server.shutdown();
    }
}
