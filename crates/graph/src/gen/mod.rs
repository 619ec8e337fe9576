//! Synthetic graph generators.
//!
//! The paper evaluates on four SNAP datasets (Table II) that cannot be
//! shipped with this repository; [`presets`] provides deterministic synthetic
//! stand-ins matched on directedness, node/edge counts, average degree and
//! heavy-tailed degree skew — the properties that drive RR-set sizes and
//! cascade spreads, and so the relative profit and running-time of the
//! policies the paper compares.
//! The individual generator families are public so tests and ablations can
//! build graphs with controlled structure:
//!
//! * [`erdos_renyi`] — uniform G(n, m), the "no skew" control;
//! * [`pref_attach`] — Barabási–Albert (undirected) for collaboration
//!   networks (NetHEPT, DBLP);
//! * [`power_law`] — Chung–Lu style fixed-expected-degree directed model for
//!   social/trust networks (Epinions, LiveJournal).

pub mod erdos_renyi;
pub mod power_law;
pub mod pref_attach;
pub mod presets;

pub use presets::Dataset;
