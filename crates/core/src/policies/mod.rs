//! Every algorithm evaluated in the paper.
//!
//! | Policy | Setting | Stepper | Paper section |
//! |--------|---------|---------|---------------|
//! | [`Adg`] | adaptive, oracle model | `DoubleGreedy<&mut Adg>` | §III-B (Algorithm 2) |
//! | [`Addatp`] | adaptive, noise model, additive error | `DoubleGreedy<`[`AddatpRule`]`>` | §III-C (Algorithm 3) |
//! | [`Hatp`] | adaptive, noise model, hybrid error | `DoubleGreedy<`[`HatpRule`]`>` | §IV (Algorithm 4) |
//! | [`Hntp`] | nonadaptive HATP | — | §VI-A |
//! | [`Nsg`] | nonadaptive simple greedy \[26\] | — | §VI-A |
//! | [`Ndg`] | nonadaptive double greedy \[26\] | — | §VI-A |
//! | [`Ars`] / [`Rs`] | (adaptive) random set \[10\] | [`ArsStepper`] | §VI-A |
//! | [`Baseline`] / [`DeployAll`] | deploy the whole target set | [`DeployAllStepper`] | §VI-B |
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
pub use ars::{Ars, ArsStepper, Rs};
pub use baseline::{Baseline, DeployAll, DeployAllStepper};
pub use hatp::{Hatp, HatpRule};
pub use hntp::Hntp;
pub use ndg::Ndg;
pub use nsg::Nsg;
pub use threshold_batch::{ThresholdBatch, ThresholdBatchStepper};
