//! # atpm-serve
//!
//! The adaptive-seeding **service**: the paper's serve-observe-update loop
//! (§II-B) exposed as a concurrent HTTP/1.1 API, std-only — no crates.io
//! dependencies, matching the repo's offline-shim discipline.
//!
//! The paper's adaptive policies are an online protocol: commit a seed,
//! watch the realized cascade, recurse on the residual graph. In-process
//! that loop is [`atpm_core::AdaptiveSession`] + a policy's `run`; here the
//! same loop is driven one request at a time by remote clients, with the
//! observation step inverted (the world reports activations to the server
//! instead of the server simulating them — though it can do that too, for
//! closed-loop benchmarking). Three layers:
//!
//! * [`snapshot`] — named, `Arc`-refcounted graph snapshots loaded from
//!   presets or `ATPMGRF1`/edge-list files, each carrying a pre-frozen RR
//!   index so spread queries warm-start instead of resampling;
//! * [`manager`] — concurrent adaptive sessions keyed by token, each a
//!   [`atpm_core::PolicyStepper`] + suspended [`atpm_core::SessionState`]
//!   over a shared snapshot. The stepped drive is byte-identical to the
//!   in-process run (pinned end-to-end by `tests/e2e_equivalence.rs`).
//!   With a [`journal`] attached, every committed transition is appended
//!   to an `ATPMJNL2` checksummed log and replayed on restart, so a crash
//!   loses at most the record being written;
//! * [`server`] — the router and the [`server::Server`] transport:
//!   reactor shards from `atpm-net` multiplexing any number of keep-alive
//!   connections over a small worker pool, each worker with its own
//!   reusable [`atpm_ris::CoverageScratch`], over the [`http`] framer and
//!   [`json`] codec. Its routes include `GET /metrics`, the Prometheus
//!   text exposition of the server's [`metrics`] registry (latency
//!   histograms, overload/lifecycle counters, journal timings) merged with
//!   the process-global registry (RIS/MC stage timers from `atpm-obs`).
//!
//! [`client`] provides the in-process [`client::LocalClient`] (no sockets)
//! and the socket [`client::HttpClient`] behind one [`client::ProtocolClient`]
//! trait; the `atpm-loadgen` binary in `atpm-bench` uses the latter for
//! its end-to-end drill (batch-route passes, a kill -9 crash drill and a
//! profile window, judged in the binary; the served session's committed
//! price is perfbench's).
//!
//! ## Quick start
//!
//! ```
//! use atpm_serve::client::{LocalClient, ProtocolClient};
//! use atpm_serve::protocol::{CreateSessionReq, PolicySpec, SnapshotReq, SnapshotSource};
//! use atpm_serve::server::AppState;
//!
//! let mut client = LocalClient::new(AppState::new());
//! client
//!     .create_snapshot(&SnapshotReq {
//!         name: "demo".into(),
//!         source: SnapshotSource::Preset { dataset: "nethept".into(), scale: 0.01 },
//!         k: 3,
//!         rr_theta: 2_000,
//!         seed: 1,
//!         threads: 1,
//!     })
//!     .unwrap();
//! let ledger = client
//!     .run_session(&CreateSessionReq {
//!         snapshot: "demo".into(),
//!         policy: PolicySpec::DeployAll,
//!         world_seed: 7,
//!     })
//!     .unwrap();
//! assert!(ledger.done);
//! ```

pub mod client;
mod epoll;
pub mod http;
pub mod journal;
pub mod json;
pub mod manager;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod snapshot;

pub use client::{HttpClient, LocalClient, ProtocolClient};
pub use json::Json;
pub use manager::SessionManager;
pub use metrics::ServeMetrics;
pub use protocol::{ApiError, CreateSessionReq, Ledger, ObserveReq, PolicySpec, SnapshotReq};
pub use server::{AppState, ServeConfig, Server};
pub use snapshot::{Snapshot, SnapshotStore};
