//! # atpm-graph
//!
//! Probabilistic social-graph substrate for the adaptive target profit
//! maximization (TPM) stack.
//!
//! A *probabilistic social graph* is a directed graph `G = (V, E)` where each
//! edge `⟨u, v⟩` carries an activation probability `p(u, v) ∈ (0, 1]` under the
//! independent cascade (IC) model. This crate provides:
//!
//! * [`Graph`] — an immutable compressed-sparse-row (CSR) representation with
//!   both forward (out-edge) and reverse (in-edge) adjacency, built once via
//!   [`GraphBuilder`]. It holds six arrays, three per direction: the
//!   neighbours, the per-edge `u32` coin thresholds ([`quantize_prob`]) and
//!   the packed per-node [`SampleMeta`] records (span start, uniform
//!   threshold, geometric-skip constant). The threshold is the only stored
//!   form of an edge probability ([`threshold_prob`] derives the float) and
//!   the reverse side carries no edge ids. The in-side drives the RIS
//!   samplers, the out-side forward cascades, all through [`SampleView`];
//! * [`ResidualGraph`] — a cheap *view* over a base graph with an alive-node
//!   bitmask, used by the adaptive algorithms to remove activated nodes after
//!   each observation without copying the graph;
//! * [`GraphView`] — the trait both of the above implement, so diffusion and
//!   sampling code is written once;
//! * [`gen`] — synthetic graph generators (Erdős–Rényi, preferential
//!   attachment, directed power-law configuration model) and the four
//!   dataset presets from Table II of the paper;
//! * [`weights`] — edge-weighting schemes (weighted cascade `p = 1/indeg(v)`,
//!   constant, trivalency);
//! * [`io`] — plain-text edge-list and versioned binary formats;
//! * [`stats`] — degree statistics used to report Table II.
//!
//! ## Quick example
//!
//! ```
//! use atpm_graph::{GraphBuilder, GraphView};
//!
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(0, 1, 0.5).unwrap();
//! b.add_edge(1, 2, 0.5).unwrap();
//! b.add_edge(2, 3, 1.0).unwrap();
//! let g = b.build();
//! assert_eq!(g.num_nodes(), 4);
//! assert_eq!(g.num_edges(), 3);
//! assert_eq!(g.out_degree(1), 1);
//! assert_eq!(g.in_degree(2), 1);
//! ```

pub mod builder;
pub mod csr;
pub mod error;
pub mod gen;
pub mod io;
pub mod stats;
pub mod view;
pub mod weights;

pub use builder::GraphBuilder;
pub use csr::{
    quantize_prob, quantize_prob_f64, threshold_accept, threshold_prob, Graph, SampleMeta,
};
pub use error::GraphError;
pub use stats::GraphStats;
pub use view::{GraphView, ResidualGraph, SampleView};
pub use weights::WeightingScheme;

/// Node identifier. Nodes are dense indices `0..n`.
///
/// A plain `u32` keeps the hot diffusion/sampling loops free of wrapper
/// overhead; graphs are limited to `2^32 - 1` nodes, far above the largest
/// dataset in the paper (LiveJournal, 4.85M nodes).
pub type Node = u32;

/// Edge identifier: the position of a directed edge in the forward CSR
/// (`0..m`). Realizations flip one deterministic coin per [`Edge`], so every
/// observation of one possible world agrees.
pub type Edge = u32;
