//! Every algorithm evaluated in the paper.
//!
//! Every adaptive policy except ThresholdBatch steps through the one
//! target walk, [`TargetWalk`](crate::stepper::TargetWalk), and differs
//! only in its keep rule: ADG, ADDATP and HATP compare front and rear
//! profit, ARS flips a coin, DeployAll keeps every candidate.
//! ThresholdBatch decides whole rounds at once and has its own stepper.
//!
//! | Policy | Setting | Stepper | Paper section |
//! |--------|---------|---------|---------------|
//! | [`Adg`] | adaptive, oracle model | `TargetWalk<&mut Adg>` | §III-B (Algorithm 2) |
//! | [`Addatp`] | adaptive, noise model, additive error | `TargetWalk<`[`AddatpRule`]`>` | §III-C (Algorithm 3) |
//! | [`Hatp`] | adaptive, noise model, hybrid error | `TargetWalk<`[`HatpRule`]`>` | §IV (Algorithm 4) |
//! | [`Hntp`] | nonadaptive HATP | — | §VI-A |
//! | [`Nsg`] | nonadaptive simple greedy \[26\] | — | §VI-A |
//! | [`Ndg`] | nonadaptive double greedy \[26\] | — | §VI-A |
//! | [`Ars`] / [`Rs`] | (adaptive) random set \[10\] | `TargetWalk<`[`ArsRule`]`>` | §VI-A |
//! | [`Baseline`] / [`DeployAll`] | deploy the whole target set | `TargetWalk<DeployAll>` | §VI-B |
//! | [`ThresholdBatch`] | adaptive, low-adaptivity batch rounds | [`ThresholdBatchStepper`] | beyond the paper (arXiv:1910.13073-style) |

mod addatp;
mod adg;
mod ars;
mod baseline;
mod hatp;
mod hntp;
mod ndg;
mod nsg;
mod threshold_batch;

pub use addatp::{Addatp, AddatpRule};
pub use adg::Adg;
pub use ars::{Ars, ArsRule, Rs};
pub use baseline::{Baseline, DeployAll};
pub use hatp::{Hatp, HatpRule};
pub use hntp::Hntp;
pub use ndg::Ndg;
pub use nsg::Nsg;
pub use threshold_batch::{ThresholdBatch, ThresholdBatchStepper};

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use atpm_graph::gen::Dataset;
    use atpm_ris::stream::RrPool;
    use atpm_ris::NodeSet;

    use super::*;
    use crate::session::{AdaptiveSession, Stop};
    use crate::setup::{calibrated_instance, CalibrationConfig};
    use crate::stepper::{run_stepper, KeepRule, TargetWalk};
    use crate::{CostSplit, TpmInstance};

    /// A sampling rule that records the most chunks any of its segment
    /// pools grew to.
    struct DeepestChunk<R> {
        rule: R,
        chunks: Arc<AtomicUsize>,
    }

    impl<R: KeepRule<Segment = RrPool>> KeepRule for DeepestChunk<R> {
        type Segment = RrPool;

        fn segment(&self, session: &AdaptiveSession<'_>, t_rest: &NodeSet) -> RrPool {
            self.rule.segment(session, t_rest)
        }

        fn keep(
            &mut self,
            pool: &mut RrPool,
            session: &mut AdaptiveSession<'_>,
            slot: usize,
            rear: &NodeSet,
        ) -> bool {
            let keep = self.rule.keep(pool, session, slot, rear);
            self.chunks.fetch_max(pool.chunks(), Ordering::Relaxed);
            keep
        }
    }

    /// Runs `rule()` on two worlds; returns the deepest chunk read and the
    /// stop reasons summed over the sessions.
    fn walk<R: KeepRule<Segment = RrPool>>(
        inst: &TpmInstance,
        rule: impl Fn() -> R,
    ) -> (usize, [u64; 3]) {
        let chunks = Arc::new(AtomicUsize::new(0));
        let mut stops = [0; 3];
        for world in [1, 2] {
            let spy = DeepestChunk {
                rule: rule(),
                chunks: chunks.clone(),
            };
            let mut session = AdaptiveSession::new(inst, world);
            run_stepper(&mut TargetWalk::new("spy", spy), &mut session);
            for (sum, n) in stops.iter_mut().zip(session.stops()) {
                *sum += n;
            }
        }
        (chunks.load(Ordering::Relaxed), stops)
    }

    #[test]
    fn uncapped_rules_read_past_the_first_chunk() {
        // The faithful (uncapped) rules on a ~150-node NetHEPT stand-in:
        // some decision needs a second round, which reads chunk 1, and no
        // decision is forced.
        let inst = calibrated_instance(
            Dataset::NetHept.generate(0.01, 5),
            4,
            CostSplit::Uniform,
            CalibrationConfig {
                lb_theta: 4_000,
                seed: 5,
                ..Default::default()
            },
        );
        let hatp = Hatp {
            seed: 3,
            ..Default::default()
        };
        let addatp = Addatp {
            seed: 3,
            ..Default::default()
        };
        for (name, (chunks, stops)) in [
            ("HATP", walk(&inst, || hatp.rule())),
            ("ADDATP", walk(&inst, || addatp.rule())),
        ] {
            assert!(chunks >= 2, "{name}: every decision stopped in round 1");
            assert_eq!(stops[Stop::Forced as usize], 0, "{name}: {stops:?}");
            assert!(stops.iter().sum::<u64>() > 0, "{name}: no decision");
        }
    }
}
