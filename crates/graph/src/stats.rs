//! Degree statistics — used to report dataset details (Table II).

use crate::Graph;

/// Summary statistics of a graph, formatted like Table II of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Node count `n`.
    pub nodes: usize,
    /// Directed edge count `m` (an undirected dataset stores two arcs per edge).
    pub edges: usize,
    /// Average out-degree `m / n`.
    pub avg_out_degree: f64,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Number of nodes with no outgoing edges.
    pub sinks: usize,
    /// Number of nodes with no incoming edges.
    pub sources: usize,
}

impl GraphStats {
    /// Computes statistics with a single pass over the degree arrays.
    pub fn compute(g: &Graph) -> Self {
        let n = g.num_nodes();
        let mut max_out = 0usize;
        let mut max_in = 0usize;
        let mut sinks = 0usize;
        let mut sources = 0usize;
        for u in 0..n {
            let od = g.out_degree(u as u32);
            let id = g.in_degree(u as u32);
            max_out = max_out.max(od);
            max_in = max_in.max(id);
            if od == 0 {
                sinks += 1;
            }
            if id == 0 {
                sources += 1;
            }
        }
        GraphStats {
            nodes: n,
            edges: g.num_edges(),
            avg_out_degree: g.avg_out_degree(),
            max_out_degree: max_out,
            max_in_degree: max_in,
            sinks,
            sources,
        }
    }

    /// Renders counts in the paper's `15.2K` / `1.99M` style.
    pub fn human(count: usize) -> String {
        fn trimmed(s: String) -> String {
            s.trim_end_matches('0').trim_end_matches('.').to_string()
        }
        let c = count as f64;
        if c >= 1e6 {
            format!("{}M", trimmed(format!("{:.3}", c / 1e6)))
        } else if c >= 1e3 {
            format!("{}K", trimmed(format!("{:.1}", c / 1e3)))
        } else {
            format!("{count}")
        }
    }
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} m={} avg_deg={:.2} max_out={} max_in={}",
            GraphStats::human(self.nodes),
            GraphStats::human(self.edges),
            self.avg_out_degree,
            self.max_out_degree,
            self.max_in_degree,
        )
    }
}

/// A crude heavy-tail indicator: fraction of all edges owned by the top
/// 1% highest-out-degree nodes. Power-law graphs score far higher than
/// Erdős–Rényi graphs of the same density. The generator tests check
/// their degree skew with it.
#[cfg(test)]
pub(crate) fn top1pct_edge_share(g: &Graph) -> f64 {
    let n = g.num_nodes();
    if n == 0 || g.num_edges() == 0 {
        return 0.0;
    }
    let mut degs: Vec<usize> = (0..n).map(|u| g.out_degree(u as u32)).collect();
    degs.sort_unstable_by(|a, b| b.cmp(a));
    let top = (n / 100).max(1);
    let owned: usize = degs[..top].iter().sum();
    owned as f64 / g.num_edges() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    #[test]
    fn stats_on_small_graph() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(0, 1, 0.5).unwrap();
        b.add_edge(0, 2, 0.5).unwrap();
        b.add_edge(1, 2, 0.5).unwrap();
        let s = GraphStats::compute(&b.build());
        assert_eq!(s.nodes, 4);
        assert_eq!(s.edges, 3);
        assert_eq!(s.max_out_degree, 2);
        assert_eq!(s.max_in_degree, 2);
        assert_eq!(s.sinks, 2); // nodes 2 and 3
        assert_eq!(s.sources, 2); // nodes 0 and 3
        assert!((s.avg_out_degree - 0.75).abs() < 1e-12);
    }

    #[test]
    fn human_formatting_matches_paper_style() {
        assert_eq!(GraphStats::human(15_200), "15.2K");
        assert_eq!(GraphStats::human(132_000), "132K");
        assert_eq!(GraphStats::human(1_990_000), "1.99M");
        assert_eq!(GraphStats::human(69_000_000), "69M");
        assert_eq!(GraphStats::human(999), "999");
    }
}
