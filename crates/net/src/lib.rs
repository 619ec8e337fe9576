//! # atpm-net
//!
//! A std-only readiness reactor on raw Linux `epoll` — no crates.io
//! dependencies, no `libc` crate: the four syscalls the loop needs are
//! issued straight through the architecture's syscall instruction
//! ([`sys`]), and everything above them is safe Rust over
//! `std::os::fd`/`std::net` types.
//!
//! The crate exists to scale `atpm-serve` past one-connection-per-worker:
//! a blocking accept pool pins a thread per kept-alive client, so a
//! handful of idle campaign sessions starves everyone else, while one
//! reactor shard multiplexes thousands of mostly-idle connections and
//! hands complete frames to a small worker pool. Layers, bottom up:
//!
//! * [`sys`] — raw syscall shims (`epoll_create1`/`epoll_ctl`/
//!   `epoll_pwait`/`eventfd2`) with a stub fallback on unsupported targets;
//! * [`poll`] — [`poll::Poller`], a safe level-triggered epoll wrapper with
//!   token-tagged registrations;
//! * [`wake`] — [`wake::Waker`], an eventfd that lets any thread pull a
//!   parked reactor out of `epoll_wait`;
//! * [`buf`] — [`buf::WriteBuf`] with partial-write resumption, plus the
//!   nonblocking read helper;
//! * [`fault`] — deterministic syscall fault injection: a per-thread
//!   [`fault::SysPolicy`] gate on every IO edge (passthrough by default,
//!   a seeded [`fault::FaultPlan`] under test), with per-site injection
//!   tallies the `/metrics` exposition reads;
//! * [`metrics`] — [`metrics::NetMetrics`], connection-plane counters a
//!   server registers in its own `atpm_obs::Registry` and attaches via
//!   [`reactor::Reactor::with_metrics`];
//! * [`reactor`] — [`reactor::Reactor`]: accept loop, per-connection state
//!   machines (read → slice → dispatch → write, with backpressure), reply
//!   completion, and an idle scan that closes quiet connections. The
//!   reactor keeps no timers and runs no periodic work: protocols plug in
//!   via [`reactor::Driver`], and an application's own periodic jobs run on
//!   its own threads.

pub mod buf;
pub mod fault;
pub mod metrics;
pub mod poll;
pub mod reactor;
pub mod sys;
pub mod wake;

pub use buf::{read_nonblocking, ReadStatus, WriteBuf};
pub use fault::{FaultPlan, FaultTally, SysPolicy};
pub use metrics::NetMetrics;
pub use poll::{Event, Interest, Poller};
pub use reactor::{
    ConnId, Driver, Reactor, ReactorConfig, ReactorStats, Reply, ReplyQueue, Sliced,
};
pub use wake::Waker;

/// Whether the epoll shims work on this target (linux x86_64/aarch64).
/// When `false`, [`Reactor::new`] fails with `Unsupported` (and so does
/// every server built on it).
pub const fn supported() -> bool {
    sys::supported()
}
