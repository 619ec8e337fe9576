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
