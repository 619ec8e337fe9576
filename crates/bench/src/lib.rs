//! # atpm-bench
//!
//! Benchmark harness reproducing every table and figure of the paper's
//! evaluation (§VI). The `experiments` binary exposes one subcommand per
//! artifact:
//!
//! | subcommand | paper artifact |
//! |------------|----------------|
//! | `table2`   | Table II — dataset details |
//! | `fig2`     | Fig. 2 — profit, degree-proportional cost (also emits Fig. 5 timings) |
//! | `fig3`     | Fig. 3 — profit, uniform cost (also emits Fig. 6 timings) |
//! | `fig4a`    | Fig. 4(a) — profit under random cost (Epinions) |
//! | `fig4b`    | Fig. 4(b) — ε-sensitivity of HATP (Epinions) |
//! | `fig5` / `fig6` | running-time views of the fig2/fig3 runs |
//! | `fig7`     | Fig. 7 — HATP vs NDG, predefined cost (LiveJournal) |
//! | `fig8`     | Fig. 8 — HATP vs NSG, predefined cost (LiveJournal) |
//! | `fig9`     | Fig. 9 — NSG/NDG sample-size sweep (Epinions) |
//! | `ablation` | design-choice ablations: hybrid vs additive error, HATP's error schedule, RR batch generation |
//! | `all`      | everything above |
//!
//! The default configuration is laptop-sized (reduced scales, 5 worlds,
//! trimmed k-grid); `--paper` lifts every knob to the paper's settings.
//!
//! Everything here runs in process. The served path is checked by
//! `atpm-serve`'s integration tests and priced by perfbench.

pub mod config;
pub mod report;
pub mod runs;

pub use config::ExpConfig;
