//! Decision goldens for every policy of the target walk: ADG (over the
//! exact, Monte-Carlo and RIS oracles), ADDATP (base and dynamic-threshold),
//! HATP, ARS (at `prob` 0.5 and 1.0) and DeployAll; for HNTP, the other
//! caller of HATP's decision rule; and for ThresholdBatch, at batch sizes
//! 1 and 4 and on 1 and 2 sampler threads. For every world the test pins
//! the selected seeds, the profit's `to_bits()` and the RR sets sampled,
//! and for ThresholdBatch the oracle queries it spent.
//!
//! One policy value runs all worlds in order, so oracle call counters and
//! nothing else carry across worlds, exactly as in `evaluate_adaptive`. A
//! change to the candidate walk, the `T_rest` conditioning, an oracle's
//! query sequence or a sampling salt chain moves a seed, a profit bit or a
//! work count here. There is no regenerate switch: a changed value is a
//! changed decision and must be re-recorded deliberately.

use atpm_core::oracle::{ExactOracle, McOracle, RisOracle};
use atpm_core::policies::{Addatp, Adg, Ars, DeployAll, Hatp, Hntp, ThresholdBatch};
use atpm_core::runner::score_fixed_set_into;
use atpm_core::setup::{calibrated_instance, CalibrationConfig};
use atpm_core::{AdaptivePolicy, AdaptiveSession, CostSplit, NonadaptivePolicy, TpmInstance};
use atpm_diffusion::CascadeEngine;
use atpm_graph::gen::Dataset;
use atpm_graph::GraphBuilder;

const WORLDS: [u64; 4] = [1, 7, 20200420, u64::MAX / 3];

/// One world's outcome: selected seeds, profit bits, RR sets sampled.
type Outcome = (Vec<u32>, u64, u64);

/// NetHEPT stand-in at ~300 nodes with six IMM targets and uniform costs.
fn preset_instance() -> TpmInstance {
    calibrated_instance(
        Dataset::NetHept.generate(0.02, 5),
        6,
        CostSplit::Uniform,
        CalibrationConfig {
            lb_theta: 8_000,
            seed: 5,
            threads: 2,
            ..Default::default()
        },
    )
}

/// The exact oracle enumerates every world, so its case needs a graph of at
/// most 20 edges: two overlapping hubs, a chain and an isolate.
fn tiny_instance() -> TpmInstance {
    let mut b = GraphBuilder::new(8);
    for (u, v, p) in [
        (0, 4, 0.8),
        (0, 5, 0.6),
        (1, 5, 0.7),
        (1, 6, 0.5),
        (2, 3, 0.4),
        (3, 7, 0.9),
        (4, 7, 0.3),
        (6, 2, 0.5),
    ] {
        b.add_edge(u, v, p).unwrap();
    }
    TpmInstance::new(b.build(), vec![0, 1, 2, 3], &[1.1, 0.9, 1.3, 1.0])
}

fn run_worlds<P: AdaptivePolicy>(inst: &TpmInstance, policy: &mut P) -> Vec<Outcome> {
    WORLDS
        .iter()
        .map(|&w| {
            let mut session = AdaptiveSession::new(inst, w);
            let seeds = policy.run(&mut session);
            (seeds, session.profit().to_bits(), session.sampling_work())
        })
        .collect()
}

fn check(case: &str, got: Vec<Outcome>, want: &[(&[u32], u64, u64)]) {
    let want: Vec<Outcome> = want.iter().map(|&(s, b, w)| (s.to_vec(), b, w)).collect();
    assert_eq!(got, want, "{case}: decisions changed");
}

#[test]
fn adg_exact_oracle() {
    let got = run_worlds(&tiny_instance(), &mut Adg::new(ExactOracle));
    check(
        "ADG/exact",
        got,
        &[
            (&[0, 1], 4617315517961601024, 0),
            (&[0, 1, 2, 3], 4613262278296967578, 0),
            (&[0, 1, 2, 3], 4615514078110652826, 0),
            (&[0, 1], 4618441417868443648, 0),
        ],
    );
}

#[test]
fn adg_mc_oracle() {
    let got = run_worlds(&preset_instance(), &mut Adg::new(McOracle::new(200, 3)));
    check(
        "ADG/MC",
        got,
        &[
            (&[1, 0, 3, 12], 4629624022022956598, 0),
            (&[1, 0, 3, 12], 4628498122116113974, 0),
            (&[1, 0, 3], 4609643379553585792, 0),
            (&[1, 0, 3], 4628728327077125288, 0),
        ],
    );
}

#[test]
fn adg_ris_oracle() {
    let got = run_worlds(
        &preset_instance(),
        &mut Adg::new(RisOracle::new(2_000, 4, 2)),
    );
    check(
        "ADG/RIS",
        got,
        &[
            (&[1, 0, 3], 4627883902146993320, 0),
            (&[1, 0, 3, 12], 4628498122116113974, 0),
            (&[1, 0, 3, 12], 13842119034378872616, 0),
            (&[1, 0, 3], 4628728327077125288, 0),
        ],
    );
}

#[test]
fn addatp_base() {
    let mut policy = Addatp {
        seed: 5,
        threads: 2,
        max_theta: 1 << 12,
        ..Default::default()
    };
    check(
        "ADDATP",
        run_worlds(&preset_instance(), &mut policy),
        &[
            (&[1, 0, 3, 12], 4629624022022956598, 44848),
            (&[1, 0, 3, 12], 4628498122116113974, 46704),
            (&[1, 0, 3], 4609643379553585792, 38384),
            (&[1, 0, 3], 4628728327077125288, 38506),
        ],
    );
}

#[test]
fn addatp_dynamic() {
    let mut policy = Addatp {
        seed: 6,
        threads: 2,
        max_theta: 1 << 12,
        dynamic_eps: Some(0.2),
        ..Default::default()
    };
    check(
        "ADDATP-dyn",
        run_worlds(&preset_instance(), &mut policy),
        &[
            (&[1, 0, 3, 12], 4629624022022956598, 44848),
            (&[1, 0, 3, 12], 4628498122116113974, 46704),
            (&[1, 0, 3], 4609643379553585792, 38384),
            (&[1, 0, 3], 4628728327077125288, 38506),
        ],
    );
}

#[test]
fn hatp_capped() {
    let mut policy = Hatp {
        seed: 7,
        threads: 2,
        max_theta: 1 << 13,
        ..Default::default()
    };
    check(
        "HATP",
        run_worlds(&preset_instance(), &mut policy),
        &[
            (&[1, 0, 3, 12], 4629624022022956598, 89512),
            (&[1, 0, 3, 12], 4628498122116113974, 74626),
            (&[1, 0, 3, 12], 13842119034378872616, 75769),
            (&[1, 0, 3], 4628728327077125288, 71623),
        ],
    );
}

/// HNTP selects once on the original graph; each world scores that set,
/// and every world reports the one selection's RR sets.
#[test]
fn hntp_capped() {
    let inst = preset_instance();
    let mut policy = Hntp::new(Hatp {
        seed: 8,
        threads: 2,
        max_theta: 1 << 13,
        ..Default::default()
    });
    let (seeds, work) = policy.select(&inst);
    let mut engine = CascadeEngine::new();
    let mut activated = Vec::new();
    let got = WORLDS
        .iter()
        .map(|&w| {
            let profit = score_fixed_set_into(&inst, &seeds, w, &mut engine, &mut activated);
            (seeds.clone(), profit.to_bits(), work)
        })
        .collect();
    check(
        "HNTP",
        got,
        &[
            (&[1, 0, 3], 4627883902146993320, 77646),
            (&[1, 0, 3], 13836079374719064768, 77646),
            (&[1, 0, 3], 4609643379553585792, 77646),
            (&[1, 0, 3], 4628728327077125288, 77646),
        ],
    );
}

#[test]
fn ars_fair_coin() {
    let mut policy = Ars { prob: 0.5, seed: 9 };
    check(
        "ARS/0.5",
        run_worlds(&preset_instance(), &mut policy),
        &[
            (&[1, 0, 12, 11], 4621666327761144940, 0),
            (&[1, 12, 5], 4627602427170282664, 0),
            (&[5], 13836899694970254228, 0),
            (&[1, 0, 12], 4625350627356597416, 0),
        ],
    );
}

#[test]
fn ars_prob_one() {
    let mut policy = Ars { prob: 1.0, seed: 9 };
    check(
        "ARS/1.0",
        run_worlds(&preset_instance(), &mut policy),
        // Every coin lands heads: ARS at prob 1 is DeployAll.
        &[
            (&[1, 0, 3, 12, 11], 4628830867108523972, 0),
            (&[1, 0, 3, 12, 5], 4626860542271549380, 0),
            (&[1, 0, 3, 12, 5, 11], 13850231558907053744, 0),
            (&[1, 0, 3, 12, 5], 4627986442178392004, 0),
        ],
    );
}

#[test]
fn deploy_all() {
    check(
        "DeployAll",
        run_worlds(&preset_instance(), &mut DeployAll),
        &[
            (&[1, 0, 3, 12, 11], 4628830867108523972, 0),
            (&[1, 0, 3, 12, 5], 4626860542271549380, 0),
            (&[1, 0, 3, 12, 5, 11], 13850231558907053744, 0),
            (&[1, 0, 3, 12, 5], 4627986442178392004, 0),
        ],
    );
}

/// ThresholdBatch at batch size `batch` on `threads` sampler threads: per
/// world the seeds, profit bits, RR sets and oracle queries.
fn threshold_batch_worlds(batch: usize, threads: usize) -> Vec<(Vec<u32>, u64, u64, u64)> {
    let inst = preset_instance();
    let mut policy = ThresholdBatch {
        seed: 10,
        batch,
        threads,
        ..Default::default()
    };
    WORLDS
        .iter()
        .map(|&w| {
            let mut session = AdaptiveSession::new(&inst, w);
            let seeds = policy.run(&mut session);
            let profit = session.profit().to_bits();
            (
                seeds,
                profit,
                session.sampling_work(),
                session.oracle_queries(),
            )
        })
        .collect()
}

#[test]
fn threshold_batch_k1() {
    for threads in [1, 2] {
        let got = threshold_batch_worlds(1, threads);
        let want: &[(&[u32], u64, u64, u64)] = if threads == 1 {
            &[
                (&[3, 0, 12, 1], 4629624022022956598, 20000, 24),
                (&[3, 0, 12, 1], 4628498122116113974, 20000, 26),
                (&[3, 0, 1, 12], 13842119034378872616, 20000, 27),
                (&[3, 0, 1], 4628728327077125288, 16000, 22),
            ]
        } else {
            &[
                (&[3, 0, 1, 12], 4629624022022956598, 20000, 23),
                (&[3, 0, 12, 1], 4628498122116113974, 20000, 26),
                (&[3, 0, 1, 12], 13842119034378872616, 20000, 27),
                (&[3, 0, 1], 4628728327077125288, 16000, 22),
            ]
        };
        check_batched(&format!("ThresholdBatch/K1/{threads}t"), got, want);
    }
}

#[test]
fn threshold_batch_k4() {
    for threads in [1, 2] {
        let got = threshold_batch_worlds(4, threads);
        let want: &[(&[u32], u64, u64, u64)] = if threads == 1 {
            &[
                (&[3, 0, 12, 1], 4629624022022956598, 12000, 191),
                (&[3, 0, 12, 1], 4628498122116113974, 12000, 191),
                (&[3, 0, 12, 1], 13842119034378872616, 12000, 229),
                (&[3, 0, 12, 1], 4626246322302428726, 12000, 191),
            ]
        } else {
            &[
                (&[3, 0, 12, 1], 4629624022022956598, 12000, 192),
                (&[3, 0, 12], 4629572752007257256, 8000, 154),
                (&[3, 0, 12, 1], 13842119034378872616, 12000, 230),
                (&[3, 0, 12, 1], 4626246322302428726, 12000, 192),
            ]
        };
        check_batched(&format!("ThresholdBatch/K4/{threads}t"), got, want);
    }
}

fn check_batched(
    case: &str,
    got: Vec<(Vec<u32>, u64, u64, u64)>,
    want: &[(&[u32], u64, u64, u64)],
) {
    let want: Vec<_> = want
        .iter()
        .map(|&(s, b, w, q)| (s.to_vec(), b, w, q))
        .collect();
    assert_eq!(got, want, "{case}: decisions changed");
}
