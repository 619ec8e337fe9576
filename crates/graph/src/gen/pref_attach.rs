//! Barabási–Albert preferential attachment (undirected).
//!
//! Collaboration networks such as NetHEPT and DBLP grow by new papers linking
//! authors to established ones, which BA models directly: each arriving node
//! attaches to existing nodes with probability proportional to their degree,
//! yielding the heavy-tailed degree distribution the paper's datasets exhibit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{Graph, GraphBuilder, Node};

/// Generates an undirected Barabási–Albert graph.
///
/// * `n` — number of nodes;
/// * `mean_attach` — average number of edges each arriving node creates; may
///   be fractional (each arrival flips a coin between `floor` and `ceil`), so
///   the expected undirected edge count is `≈ n · mean_attach`;
/// * `seed` — RNG seed.
///
/// Probabilities are 1.0 placeholders; apply a
/// [`crate::WeightingScheme`] afterwards.
pub fn barabasi_albert(n: usize, mean_attach: f64, seed: u64) -> Graph {
    assert!(n >= 2, "BA needs at least 2 nodes");
    assert!(mean_attach > 0.0, "mean_attach must be positive");
    let mut rng = StdRng::seed_from_u64(seed);

    // `endpoints` holds one entry per edge endpoint, so uniform sampling from
    // it is exactly degree-proportional sampling.
    let expected_edges = (n as f64 * mean_attach) as usize + 2;
    let mut endpoints: Vec<Node> = Vec::with_capacity(expected_edges * 2);
    let mut edges: Vec<(Node, Node)> = Vec::with_capacity(expected_edges);

    // Seed with a single edge between nodes 0 and 1.
    edges.push((0, 1));
    endpoints.push(0);
    endpoints.push(1);

    let floor = mean_attach.floor() as usize;
    let frac = mean_attach - mean_attach.floor();

    for u in 2..n as Node {
        let k = floor + usize::from(rng.gen_bool(frac));
        let k = k.max(1).min(u as usize); // can't attach to more nodes than exist
        let mut picked = Vec::with_capacity(k);
        let mut guard = 0;
        while picked.len() < k && guard < 50 * k {
            guard += 1;
            let t = endpoints[rng.gen_range(0..endpoints.len())];
            if t != u && !picked.contains(&t) {
                picked.push(t);
            }
        }
        for &t in &picked {
            edges.push((u, t));
        }
        // Update endpoint multiset after all of u's picks (standard BA step).
        for &t in &picked {
            endpoints.push(u);
            endpoints.push(t);
        }
    }

    let mut b = GraphBuilder::with_capacity(n, edges.len() * 2);
    for (u, v) in edges {
        b.add_undirected(u, v, 1.0)
            .expect("endpoints < n by construction");
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::top1pct_edge_share;

    #[test]
    fn node_and_edge_counts_track_parameters() {
        let g = barabasi_albert(2000, 2.0, 7);
        assert_eq!(g.num_nodes(), 2000);
        // ~2 undirected edges per arrival -> ~4 arcs per node.
        let avg = g.avg_out_degree();
        assert!((3.2..=4.8).contains(&avg), "avg degree {avg} not near 4");
    }

    #[test]
    fn fractional_attachment_interpolates() {
        let g = barabasi_albert(4000, 1.5, 9);
        let avg = g.avg_out_degree();
        assert!((2.4..=3.6).contains(&avg), "avg degree {avg} not near 3");
    }

    #[test]
    fn degree_distribution_is_heavy_tailed() {
        let n = 5000;
        let ba = barabasi_albert(n, 2.0, 11);
        let er = super::super::erdos_renyi::gnm_undirected(n, ba.num_edges() / 2, 11);
        let ba_share = top1pct_edge_share(&ba);
        let er_share = top1pct_edge_share(&er);
        assert!(
            ba_share > er_share * 2.0,
            "BA top-1% share {ba_share:.3} should dwarf ER's {er_share:.3}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let g1 = barabasi_albert(500, 2.0, 3);
        let g2 = barabasi_albert(500, 2.0, 3);
        assert_eq!(
            g1.edges().collect::<Vec<_>>(),
            g2.edges().collect::<Vec<_>>()
        );
    }
}
