//! Per-server metrics behind `GET /metrics`.
//!
//! Each [`AppState`] owns one [`ServeMetrics`]: an `atpm_obs::Registry`
//! holding every operational counter the server exposes — the overload /
//! durability counters `/healthz` reports (queue depth, sheds, recovered
//! sessions, draining), session lifecycle counters, per-route and
//! whole-request latency histograms, journal timings, and the
//! connection-plane [`NetMetrics`] shared with the `atpm-net` reactor.
//! `/healthz` reads *through* these same atomics, so the two endpoints can
//! never disagree about a value.
//!
//! The exposition merges this per-server registry with the process-global
//! one ([`atpm_obs::global`]), which is where library crates with no
//! registry to hand (RIS stage timers, Monte-Carlo lane timers) register.
//!
//! ## Recording discipline
//!
//! Workers record request metrics strictly *after*
//! `server::respond` returns — and the exposition is
//! rendered *inside* respond — so the scrape request is never counted in
//! its own output: a fresh server's first `/metrics` response shows one
//! accepted connection, one dispatch, and empty latency histograms.

use std::sync::{Arc, Weak};
use std::time::Instant;

use atpm_core::Stop;
use atpm_net::fault;
use atpm_net::NetMetrics;
use atpm_obs::{Counter, Gauge, Histogram, Registry};

use crate::server::AppState;

/// Route labels for `atpm_http_route_seconds`, in registration (and
/// therefore stable exposition) order. The last entry absorbs anything the
/// router 404s.
pub const ROUTE_KEYS: [&str; 17] = [
    "healthz",
    "metrics",
    "snapshots_list",
    "snapshots_create",
    "snapshot_info",
    "snapshot_delete",
    "estimate",
    "session_create",
    "session_next",
    "session_next_batch",
    "session_observe",
    "session_observe_batch",
    "session_ledger",
    "session_delete",
    "debug_profile",
    "debug_events",
    "other",
];

/// Maps a request to its [`ROUTE_KEYS`] slot. Mirrors the router's match
/// arms; unknown shapes land in `"other"` so the histogram family is a
/// fixed, bounded set no client can grow.
pub fn route_index(method: &str, path: &str) -> usize {
    match (method, crate::server::segments(path).as_slice()) {
        ("GET", ["healthz"]) => 0,
        ("GET", ["metrics"]) => 1,
        ("GET", ["snapshots"]) => 2,
        ("POST", ["snapshots"]) => 3,
        ("GET", ["snapshots", _]) => 4,
        ("DELETE", ["snapshots", _]) => 5,
        ("POST", ["snapshots", _, "estimate"]) => 6,
        ("POST", ["sessions"]) => 7,
        ("POST", ["sessions", _, "next"]) => 8,
        ("POST", ["sessions", _, "next_batch"]) => 9,
        ("POST", ["sessions", _, "observe"]) => 10,
        ("POST", ["sessions", _, "observe_batch"]) => 11,
        ("GET", ["sessions", _, "ledger"]) => 12,
        ("DELETE", ["sessions", _]) => 13,
        ("GET", ["debug", "profile"]) => 14,
        ("GET", ["debug", "events"]) => 15,
        _ => 16,
    }
}

/// Every metric one running server owns. Handles are plain `Arc`s over
/// atomics — recording never locks; the registry mutex is touched only at
/// construction and render.
pub struct ServeMetrics {
    /// The per-server registry rendered (merged with the global one) by
    /// `GET /metrics`.
    pub registry: Registry,
    /// Connection-plane counters shared with the reactor shards.
    pub net: Arc<NetMetrics>,
    /// Jobs dispatched by a reactor but not yet picked up by a worker.
    pub queue_depth: Arc<Gauge>,
    /// Shed threshold: dispatches at `queue_depth >= max_queue` answer
    /// `503 Retry-After`. 0 disables.
    pub max_queue: Arc<Gauge>,
    /// 1 while graceful drain is in progress.
    pub draining: Arc<Gauge>,
    /// Requests shed with 503 since boot.
    pub shed_503: Arc<Counter>,
    /// Sessions rebuilt from the journal at the last boot.
    pub recovered_sessions: Arc<Counter>,
    /// Sessions opened over the API since boot (journal replays excluded).
    pub sessions_created: Arc<Counter>,
    /// Sessions closed by `DELETE` since boot (replays excluded).
    pub sessions_deleted: Arc<Counter>,
    /// Sessions evicted by the expiry sweep since boot.
    pub sessions_expired: Arc<Counter>,
    /// Wall time of `respond` per request, all routes.
    pub request_seconds: Arc<Histogram>,
    /// Wall time of `respond` per request, split by [`ROUTE_KEYS`].
    pub route_seconds: [Arc<Histogram>; ROUTE_KEYS.len()],
    /// Dispatch → worker-pickup wait.
    pub queue_wait_seconds: Arc<Histogram>,
    /// One journal record append (write + flush).
    pub journal_append_seconds: Arc<Histogram>,
    /// One journal fsync: every commit barrier, segment seal and the
    /// shutdown barrier.
    pub journal_fsync_seconds: Arc<Histogram>,
    /// Time a request spends in the journal commit barrier, parked behind
    /// another committer's fsync or running its own.
    pub journal_commit_seconds: Arc<Histogram>,
    /// Journal replay at boot (one value per boot that replayed).
    pub journal_replay_seconds: Arc<Histogram>,
    /// One checkpoint cycle (rotate + serialize + fsync + retire).
    pub journal_checkpoint_seconds: Arc<Histogram>,
    /// Torn (partially written / corrupt) journal tails truncated at open.
    pub journal_torn_tail: Arc<Counter>,
    /// HATP's sampling decisions by stop reason, indexed by
    /// `Stop as usize`: HATP is the one served policy whose rule reports
    /// stop reasons.
    pub hatp_decisions: [Arc<Counter>; 3],
}

impl ServeMetrics {
    /// Builds the registry and registers every owned metric plus the
    /// render-time fault-injection counters (process-wide tallies from
    /// `atpm_net::fault` — one source of truth, no shadow copy).
    pub fn new() -> ServeMetrics {
        // Process-wide runtime metrics (RSS / CPU / fds, trace- and
        // profile-drop counters) live on the global registry; registering
        // here is idempotent (last registration wins) and keeps them out of
        // library-crate init paths.
        atpm_obs::register_runtime_metrics();
        let registry = Registry::new();
        let net = NetMetrics::register(&registry);
        const ROUTE_HELP: &str = "Request handling wall time by route, seconds";
        let route_seconds = std::array::from_fn(|i| {
            registry.histogram_with(
                "atpm_http_route_seconds",
                &[("route", ROUTE_KEYS[i])],
                ROUTE_HELP,
            )
        });
        let hatp_decisions = Stop::ALL.map(|stop| {
            registry.counter_with(
                "atpm_policy_decisions_total",
                &[("policy", "hatp"), ("stop", stop.label())],
                "Sampling decisions by stop reason: c1, c2, or forced at the RR-set cap",
            )
        });
        let metrics = ServeMetrics {
            net,
            hatp_decisions,
            queue_depth: registry.gauge(
                "atpm_serve_queue_depth",
                "Jobs dispatched but not yet picked up by a worker",
            ),
            max_queue: registry.gauge(
                "atpm_serve_max_queue",
                "Shed threshold for the dispatch queue (0 = shedding disabled)",
            ),
            draining: registry.gauge(
                "atpm_serve_draining",
                "1 while graceful shutdown is draining in-flight work",
            ),
            shed_503: registry.counter(
                "atpm_serve_shed_503_total",
                "Requests shed with 503 Retry-After under overload",
            ),
            recovered_sessions: registry.counter(
                "atpm_serve_recovered_sessions_total",
                "Sessions rebuilt from the journal at boot",
            ),
            sessions_created: registry.counter(
                "atpm_serve_sessions_created_total",
                "Sessions opened over the API",
            ),
            sessions_deleted: registry.counter(
                "atpm_serve_sessions_deleted_total",
                "Sessions closed by DELETE",
            ),
            sessions_expired: registry.counter(
                "atpm_serve_sessions_expired_total",
                "Sessions evicted by the idle-expiry sweep",
            ),
            request_seconds: registry.histogram(
                "atpm_http_request_seconds",
                "Request handling wall time, all routes, seconds",
            ),
            route_seconds,
            queue_wait_seconds: registry.histogram(
                "atpm_http_queue_wait_seconds",
                "Dispatch-to-worker-pickup wait, seconds",
            ),
            journal_append_seconds: registry.histogram(
                "atpm_journal_append_seconds",
                "Session journal record append (write + flush), seconds",
            ),
            journal_fsync_seconds: registry.histogram(
                "atpm_journal_fsync_seconds",
                "Session journal fsync durability barrier, seconds",
            ),
            journal_commit_seconds: registry.histogram(
                "atpm_journal_commit_seconds",
                "Session journal commit wait (parked + fsync) per record, seconds",
            ),
            journal_replay_seconds: registry.histogram(
                "atpm_journal_replay_seconds",
                "Session journal replay at boot, seconds",
            ),
            journal_checkpoint_seconds: registry.histogram(
                "atpm_journal_checkpoint_seconds",
                "Session checkpoint cycle (rotate + serialize + fsync), seconds",
            ),
            journal_torn_tail: registry.counter(
                "atpm_serve_journal_torn_tail_total",
                "Torn journal/checkpoint tails truncated during recovery",
            ),
            registry,
        };
        for (site, label) in fault::SITES {
            metrics.registry.counter_fn(
                "atpm_net_fault_injected_total",
                &[("site", label)],
                "Syscall faults injected at this site (process-wide)",
                move || fault::injected_total(site),
            );
        }
        for (site, label) in crate::journal::IO_SITES {
            metrics.registry.counter_fn(
                "atpm_serve_journal_fault_injected_total",
                &[("site", label)],
                "Journal file-I/O faults injected at this site (process-wide)",
                move || crate::journal::injected_total(site),
            );
        }
        metrics
    }

    /// Registers the live-session gauge over `state` (weakly, so the
    /// registry inside `AppState` doesn't keep the state alive). Called
    /// once by [`AppState::new`].
    pub(crate) fn bind_state(&self, state: &Arc<AppState>) {
        let weak: Weak<AppState> = Arc::downgrade(state);
        self.registry.gauge_fn(
            "atpm_serve_sessions_active",
            &[],
            "Live sessions (same source of truth as /healthz 'sessions')",
            move || weak.upgrade().map_or(0, |s| s.manager.len() as i64),
        );
    }

    /// Registers the event-log drop counter over this server's bounded
    /// `/debug/events` ring. Called once by [`AppState::new`].
    pub(crate) fn bind_events(&self, events: &Arc<atpm_obs::EventLog>) {
        let weak = Arc::downgrade(events);
        self.registry.counter_fn(
            "atpm_serve_events_dropped_total",
            &[],
            "Structured event records evicted from the /debug/events ring",
            move || weak.upgrade().map_or(0, |e| e.dropped()),
        );
    }

    /// Renders the Prometheus text exposition: this server's registry
    /// merged with the process-global one (RIS/MC stage timers).
    pub fn render(&self) -> String {
        atpm_obs::render(&[&self.registry, atpm_obs::global()])
    }

    /// Counts the sampling decisions of one `next` call: `stops` holds how
    /// many stopped for each reason, indexed by `Stop as usize`. HATP is
    /// the one served policy whose rule reports stop reasons, so every
    /// count is HATP's.
    pub fn record_hatp_decisions(&self, stops: [u64; 3]) {
        for (counter, n) in self.hatp_decisions.iter().zip(stops) {
            counter.add(n);
        }
    }

    /// Records one completed request (started at `t0`, just returned from
    /// `respond`) into the whole-server and per-route histograms. Workers
    /// call this strictly after `respond`, which is what keeps a scrape
    /// from counting itself.
    pub fn record_request(&self, method: &str, path: &str, t0: Instant) {
        let dur = t0.elapsed();
        self.request_seconds.record_duration(dur);
        self.route_seconds[route_index(method, path)].record_duration(dur);
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_index_covers_the_protocol_surface() {
        let cases = [
            ("GET", "/healthz", "healthz"),
            ("GET", "/metrics", "metrics"),
            ("GET", "/snapshots", "snapshots_list"),
            ("POST", "/snapshots", "snapshots_create"),
            ("GET", "/snapshots/g", "snapshot_info"),
            ("DELETE", "/snapshots/g", "snapshot_delete"),
            ("POST", "/snapshots/g/estimate", "estimate"),
            ("POST", "/sessions", "session_create"),
            ("POST", "/sessions/s1/next", "session_next"),
            ("POST", "/sessions/s1/next_batch", "session_next_batch"),
            ("POST", "/sessions/s1/observe", "session_observe"),
            (
                "POST",
                "/sessions/s1/observe_batch",
                "session_observe_batch",
            ),
            ("GET", "/sessions/s1/ledger", "session_ledger"),
            ("DELETE", "/sessions/s1", "session_delete"),
            ("GET", "/debug/profile", "debug_profile"),
            ("GET", "/debug/events", "debug_events"),
            ("POST", "/debug/profile", "other"),
            ("PATCH", "/healthz", "other"),
            ("GET", "/nope", "other"),
        ];
        for (method, path, want) in cases {
            assert_eq!(
                ROUTE_KEYS[route_index(method, path)],
                want,
                "{method} {path}"
            );
        }
    }

    #[test]
    fn render_includes_every_family_and_passes_lint() {
        let m = ServeMetrics::new();
        m.shed_503.inc();
        m.request_seconds.record(1_000_000);
        let text = m.render();
        atpm_obs::lint(&text).expect("exposition must lint clean");
        for family in [
            "atpm_net_accepted_total",
            "atpm_serve_queue_depth",
            "atpm_serve_shed_503_total",
            "atpm_http_request_seconds",
            "atpm_http_route_seconds",
            "atpm_net_fault_injected_total",
            "atpm_journal_append_seconds",
            "atpm_journal_fsync_seconds",
            "atpm_journal_commit_seconds",
            "atpm_journal_checkpoint_seconds",
            "atpm_serve_journal_torn_tail_total",
            "atpm_serve_journal_fault_injected_total",
            "atpm_policy_decisions_total",
        ] {
            assert!(text.contains(family), "missing {family} in:\n{text}");
        }
    }
}
