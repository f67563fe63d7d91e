//! # amp-experiments — regenerating the paper's evaluation
//!
//! One binary per table/figure (see DESIGN.md §4 for the index):
//!
//! | binary   | reproduces |
//! |----------|------------|
//! | `table1` | Table I — simulation statistics (slowdowns, core usage)   |
//! | `fig1`   | Fig. 1 — CDFs of slowdown ratios                          |
//! | `fig2`   | Fig. 2 — FERTAC vs HeRAD core-usage heatmaps              |
//! | `fig3`   | Fig. 3 — strategy times vs number of tasks                |
//! | `fig4`   | Fig. 4 — strategy times vs number of resources            |
//! | `table2` | Table II (+ Fig. 5) — DVB-S2 schedules and throughput     |
//! | `table3` | Table III — the receiver's latency profile                |
//! | `fig6`   | Fig. 6 — qualitative summary of the strategies            |
//!
//! The library half holds the shared campaign machinery so the binaries
//! stay thin and the logic is unit-testable.

pub mod campaign;
pub mod stats;
pub mod timing;

pub use campaign::{
    run_campaign, run_campaign_with_workers, table1_json, CampaignConfig, CoreUsage, StrategyStats,
    SweepOutcome,
};
pub use stats::{cdf_points, mean, median, slowdown_ratio, Summary};
pub use timing::{time_strategies, StrategyTiming, TimingConfig};
