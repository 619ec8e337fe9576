//! Golden output of `generate_batch`: a hash over every set boundary and
//! member of a batch, on a three-node chain and on the NetHEPT stand-in, at
//! 1, 2 and 4 workers.
//!
//! IMM, `calibrated_instance` and every instance built on them sample
//! through `generate_batch`, so a change to its draw order, worker seeding
//! or merge silently moves every target set. There is no regenerate
//! switch: a changed hash is a changed batch and must be re-recorded
//! deliberately.

use atpm_graph::gen::Dataset;
use atpm_graph::GraphBuilder;
use atpm_ris::{generate_batch, RrCollection};

/// FNV-1a over each set's length followed by its members, in set order.
fn batch_hash(c: &RrCollection) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
    };
    for i in 0..c.len() {
        let set = c.set(i);
        eat(set.len() as u64);
        for &u in set {
            eat(u64::from(u));
        }
    }
    h
}

#[test]
fn generate_batch_output_is_pinned() {
    let mut b = GraphBuilder::new(3);
    b.add_edge(0, 1, 0.5).unwrap();
    b.add_edge(1, 2, 0.5).unwrap();
    let chain = b.build();
    let nethept = Dataset::NetHept.generate(0.05, 3);
    // (threads, chain hash, chain members, NetHEPT hash, NetHEPT members)
    let pinned = [
        (1, 0x84b6c5d2f014e346, 14188, 0x24fb6bf33cd8b4c9, 97196),
        (2, 0x48772af57b9afaa4, 14147, 0x18df41535df20167, 97756),
        (4, 0x3661cec8ac710e85, 14135, 0x80ed82bbd994acc7, 96815),
    ];
    for (threads, chain_hash, chain_members, hept_hash, hept_members) in pinned {
        let c = generate_batch(&&chain, 10_000, 17, threads);
        assert_eq!(c.len(), 10_000);
        assert_eq!(
            (batch_hash(&c), c.total_members()),
            (chain_hash, chain_members),
            "chain, {threads} threads"
        );
        let h = generate_batch(&&nethept, 20_000, 19, threads);
        assert_eq!(h.len(), 20_000);
        assert_eq!(
            (batch_hash(&h), h.total_members()),
            (hept_hash, hept_members),
            "NetHEPT stand-in, {threads} threads"
        );
    }
}
