//! # csfma-bench — the experiment harness
//!
//! One module per table/figure of the paper's evaluation (Sec. IV). Each
//! experiment is a plain function returning structured rows, consumed by
//! the `src/bin/*` report binaries, the workspace integration tests, and
//! EXPERIMENTS.md; [`fault`] is the fault-injection campaign behind
//! `results/BENCH_faults.json`. Criterion micro-benchmarks of the
//! behavioral units and the HLS passes live in `benches/`. Engine
//! timing is not measured here: perfbench (`perfbench/`) is the one
//! harness that times the batch engine and the server.

pub mod experiments;
pub mod fault;
pub mod table;

pub use experiments::{fig13, fig14, fig15, table1, table2, Fig14Row, Fig15Row};
pub use fault::{run_campaign, FaultCampaign, SiteReport};
