//! Dataset presets mirroring Table II of the paper.
//!
//! The SNAP datasets themselves cannot be redistributed or fetched offline;
//! each preset deterministically generates a synthetic stand-in matched on
//! directedness, node count, edge count and average degree, with
//! heavy-tailed degree skew (BA for the collaboration networks, Chung–Lu
//! power-law for the social/trust networks). Those are the properties that
//! drive RR-set sizes and cascade spreads, so the substitution preserves
//! the paper's policy comparisons, though not its absolute numbers.
//!
//! | Dataset     | n     | m     | Type       | Avg. deg |
//! |-------------|-------|-------|------------|----------|
//! | NetHEPT     | 15.2K | 31.4K | undirected | 4.18     |
//! | Epinions    | 132K  | 841K  | directed   | 13.4     |
//! | DBLP        | 655K  | 1.99M | undirected | 6.08     |
//! | LiveJournal | 4.85M | 69.0M | directed   | 28.5     |
//!
//! (`m` counts *directed arcs* for directed datasets and, following the
//! paper's table, arcs after symmetrization for the undirected ones; "Avg.
//! deg" is total degree `2m/n` for directed and `m/n` arcs for undirected.)

use super::power_law::{directed_power_law, PowerLawConfig};
use super::pref_attach::barabasi_albert;
use crate::{Graph, WeightingScheme};

/// The four evaluation datasets of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// "High Energy Physics-Theory" collaboration network (undirected).
    NetHept,
    /// Epinions who-trusts-whom network (directed).
    Epinions,
    /// DBLP co-authorship network (undirected).
    Dblp,
    /// LiveJournal friendship network (directed).
    LiveJournal,
}

impl Dataset {
    /// All four datasets in the paper's order.
    pub const ALL: [Dataset; 4] = [
        Dataset::NetHept,
        Dataset::Epinions,
        Dataset::Dblp,
        Dataset::LiveJournal,
    ];

    /// The paper's display name.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::NetHept => "NetHEPT",
            Dataset::Epinions => "Epinions",
            Dataset::Dblp => "DBLP",
            Dataset::LiveJournal => "LiveJournal",
        }
    }

    /// Parses the (case-insensitive) dataset name.
    pub fn parse(s: &str) -> Option<Dataset> {
        match s.to_ascii_lowercase().as_str() {
            "nethept" => Some(Dataset::NetHept),
            "epinions" => Some(Dataset::Epinions),
            "dblp" => Some(Dataset::Dblp),
            "livejournal" | "lj" => Some(Dataset::LiveJournal),
            _ => None,
        }
    }

    /// Node count at scale 1.0 (Table II).
    pub fn paper_nodes(self) -> usize {
        match self {
            Dataset::NetHept => 15_200,
            Dataset::Epinions => 132_000,
            Dataset::Dblp => 655_000,
            Dataset::LiveJournal => 4_850_000,
        }
    }

    /// The `m` reported in Table II: undirected *edge* count for the
    /// collaboration networks, directed arc count for the social networks.
    pub fn paper_edges(self) -> usize {
        match self {
            Dataset::NetHept => 31_400,
            Dataset::Epinions => 841_000,
            Dataset::Dblp => 1_990_000,
            Dataset::LiveJournal => 69_000_000,
        }
    }

    /// Directed arcs at scale 1.0 — what the CSR actually stores (undirected
    /// datasets are symmetrized, doubling Table II's `m`). Consistent with
    /// Table II's average degrees: `4.18 ≈ 2·31.4K/15.2K`,
    /// `6.08 ≈ 2·1.99M/655K`.
    pub fn paper_arcs(self) -> usize {
        if self.directed() {
            self.paper_edges()
        } else {
            2 * self.paper_edges()
        }
    }

    /// Whether the original dataset is directed.
    pub fn directed(self) -> bool {
        matches!(self, Dataset::Epinions | Dataset::LiveJournal)
    }

    /// Average degree as reported in Table II.
    pub fn paper_avg_degree(self) -> f64 {
        match self {
            Dataset::NetHept => 4.18,
            Dataset::Epinions => 13.4,
            Dataset::Dblp => 6.08,
            Dataset::LiveJournal => 28.5,
        }
    }

    /// Default scale factor for laptop-runnable benches: NetHEPT is built at
    /// full size, the larger networks proportionally smaller. `--scale 1.0`
    /// reproduces Table II counts.
    pub fn default_scale(self) -> f64 {
        match self {
            Dataset::NetHept => 1.0,
            Dataset::Epinions => 0.2,
            Dataset::Dblp => 0.05,
            Dataset::LiveJournal => 0.01,
        }
    }

    /// Generates the synthetic stand-in at `scale ∈ (0, 1]` of the paper's
    /// node count (average degree preserved) and applies the paper's
    /// weighted-cascade probabilities `p(u,v) = 1/indeg(v)`.
    pub fn generate(self, scale: f64, seed: u64) -> Graph {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let n = ((self.paper_nodes() as f64 * scale) as usize).max(64);
        let arcs = ((self.paper_arcs() as f64 * scale) as usize).max(4 * n);
        let raw = match self {
            Dataset::NetHept | Dataset::Dblp => {
                // Undirected collaboration network: BA with mean attachment
                // chosen so 2 * n * mean == arcs.
                let mean_attach = arcs as f64 / (2.0 * n as f64);
                barabasi_albert(n, mean_attach, seed)
            }
            Dataset::Epinions => directed_power_law(PowerLawConfig {
                nodes: n,
                edges: arcs,
                alpha_out: 1.3,
                alpha_in: 1.0, // trust networks: very heavy in-degree tail
                seed,
            }),
            Dataset::LiveJournal => directed_power_law(PowerLawConfig {
                nodes: n,
                edges: arcs,
                alpha_out: 1.5,
                alpha_in: 1.4, // friendships: milder skew, higher density
                seed,
            }),
        };
        WeightingScheme::WeightedCascade.apply(&raw)
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::top1pct_edge_share;
    use crate::GraphStats;

    #[test]
    fn parse_round_trips() {
        for d in Dataset::ALL {
            assert_eq!(Dataset::parse(d.name()), Some(d));
        }
        assert_eq!(Dataset::parse("lj"), Some(Dataset::LiveJournal));
        assert_eq!(Dataset::parse("unknown"), None);
    }

    #[test]
    fn nethept_small_scale_matches_shape() {
        let g = Dataset::NetHept.generate(0.2, 1);
        let s = GraphStats::compute(&g);
        // n ≈ 3040; avg total degree ≈ 4.18 (arcs/node since symmetrized).
        assert!((2900..=3200).contains(&s.nodes), "n = {}", s.nodes);
        assert!(
            (3.2..=5.2).contains(&s.avg_out_degree),
            "avg arc degree {} should be near 4.18",
            s.avg_out_degree
        );
    }

    #[test]
    fn epinions_preset_is_directed_and_skewed() {
        let g = Dataset::Epinions.generate(0.02, 2);
        let s = GraphStats::compute(&g);
        // Directed: adjacency not symmetric in general.
        let mut asymmetric = false;
        'outer: for (u, v, _) in g.edges() {
            let (back, _) = g.out_slice(v);
            if !back.contains(&u) {
                asymmetric = true;
                break 'outer;
            }
        }
        assert!(asymmetric, "directed preset should not be symmetric");
        assert!(top1pct_edge_share(&g) > 0.05, "expected heavy tail");
        // avg out-degree ≈ 841K/132K ≈ 6.4
        assert!(
            (4.5..=8.5).contains(&s.avg_out_degree),
            "{}",
            s.avg_out_degree
        );
    }

    #[test]
    fn weights_are_weighted_cascade() {
        let g = Dataset::NetHept.generate(0.05, 3);
        for v in 0..g.num_nodes() as u32 {
            let (_, thresholds) = g.in_slice(v);
            let d = thresholds.len();
            for &t in thresholds {
                assert_eq!(
                    t,
                    crate::quantize_prob(1.0 / d as f32),
                    "node {v} indeg {d}"
                );
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let g1 = Dataset::Epinions.generate(0.01, 7);
        let g2 = Dataset::Epinions.generate(0.01, 7);
        assert_eq!(g1.num_edges(), g2.num_edges());
        assert_eq!(
            g1.edges().collect::<Vec<_>>(),
            g2.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn rejects_zero_scale() {
        let _ = Dataset::Dblp.generate(0.0, 0);
    }
}
