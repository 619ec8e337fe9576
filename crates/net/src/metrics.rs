//! Reactor-plane metrics: counters a server registers into *its own*
//! [`Registry`] and hands to each reactor shard.
//!
//! The handles are per-server rather than process-global so several servers
//! in one process (the serve crate's integration tests boot many) keep
//! independent numbers. Fault-injection tallies are the exception: they live in
//! [`crate::fault`] next to the injection gate (see
//! [`crate::fault::injected_total`]) and reach the exposition as
//! render-time callbacks.

use std::sync::Arc;

use atpm_obs::{Counter, Registry};

/// Connection-plane counters shared by a server's reactor shards.
pub struct NetMetrics {
    /// Connections accepted and registered.
    pub accepts: Arc<Counter>,
    /// Complete frames handed to `Driver::dispatch`.
    pub dispatches: Arc<Counter>,
    /// Connections closed (any reason: peer EOF, error, idle timeout).
    pub conns_closed: Arc<Counter>,
}

impl NetMetrics {
    /// Registers the connection-plane families in `registry` and returns
    /// the shared handles. Idempotent per registry.
    pub fn register(registry: &Registry) -> Arc<NetMetrics> {
        Arc::new(NetMetrics {
            accepts: registry.counter(
                "atpm_net_accepted_total",
                "Connections accepted and registered",
            ),
            dispatches: registry.counter(
                "atpm_net_dispatched_total",
                "Complete request frames handed to the execution layer",
            ),
            conns_closed: registry.counter(
                "atpm_net_conns_closed_total",
                "Connections closed for any reason",
            ),
        })
    }
}
