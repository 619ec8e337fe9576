//! atpm-obs: in-process observability for the adaptive-TPM stack.
//!
//! Std-only, zero crates.io dependencies, like the rest of the workspace.
//! Three pieces:
//!
//! * [`metrics`] — lock-free [`Counter`] / [`Gauge`] and a fixed-size
//!   log-bucketed latency [`Histogram`] (wait-free, allocation-free record
//!   path; ≤ 6.25% relative quantile error, documented on the type);
//! * [`registry`] — named/labeled registration with `Arc` handles, a
//!   process-global registry for library crates, and render-time callback
//!   metrics for state owned elsewhere;
//! * [`expo`] — deterministic Prometheus text exposition plus a parser and
//!   lint for scraping it back;
//! * [`trace`] — a runtime-gated span facade drained as Chrome trace-event
//!   JSON (Perfetto-loadable), one relaxed load per hook when disabled;
//! * [`profile`] — the sampling CPU profiler's storage/symbolization half:
//!   an async-signal-safe sample buffer, offline ELF symbolizer, and
//!   folded-stack (flamegraph) renderer. The SIGPROF/timer plumbing lives
//!   in `atpm-net::sys`, which owns the raw syscall layer;
//! * [`events`] — a bounded drop-oldest [`EventLog`] of per-request
//!   records behind `GET /debug/events`;
//! * [`process`] — `process_*` self-metrics from `/proc/self`.
//!
//! The serving tier renders its per-instance [`Registry`] merged with
//! [`global()`] at `GET /metrics`; perfbench scrapes that endpoint for its
//! server-side layers, and atpm-serve's `/metrics` tests lint it.

pub mod events;
pub mod expo;
pub mod metrics;
pub mod process;
pub mod profile;
pub mod registry;
pub mod trace;

pub use events::{EventLog, EventRecord};
pub use expo::{lint, render, Sample, Scrape, CONTENT_TYPE};
pub use metrics::{
    bucket_bounds, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, HistogramTimer,
    BUCKETS,
};
pub use registry::{global, Entry, Metric, Registry};
pub use trace::{tracer, Span, Tracer};

/// Register this crate's own runtime families on [`global()`]: the
/// `process_*` self-metrics plus the tracer's and profiler's cumulative
/// drop counters. Idempotent (callback registration is last-wins); the
/// serve tier calls it once per `ServeMetrics`.
pub fn register_runtime_metrics() {
    let g = global();
    process::register(g);
    g.counter_fn(
        "atpm_obs_trace_dropped_total",
        &[],
        "Span events evicted from the capped trace ring.",
        || tracer().dropped_total(),
    );
    g.counter_fn(
        "atpm_obs_profile_dropped_total",
        &[],
        "CPU profile samples lost to sample-buffer exhaustion.",
        profile::dropped,
    );
}
