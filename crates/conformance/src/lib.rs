//! Conformance harness for the amp-sched workspace.
//!
//! This crate is the workspace's shared testing backbone, with four
//! layers that the other crates (and the `conformance` binary) compose:
//!
//! * [`instance`] + [`gen`] — a serializable instance type plus seeded
//!   and proptest-based generators covering the degenerate shapes that
//!   break interval-mapping schedulers (equal weights, unit weights,
//!   single-task chains, all-sequential / all-replicable chains, starved
//!   pools);
//! * [`checks`] — differential checks of every scheduler against the
//!   exhaustive brute-force oracle (period *and* the big/little-core
//!   tie-break), metamorphic properties of the optimal period, and
//!   bit-identical equivalence between `amp-service` responses and
//!   direct library calls;
//! * [`energy`] — a brute-force *energy* oracle (every interval, core
//!   type and replication count scored in exact milliwatts) pinning the
//!   energy-aware strategies and the Pareto front's structural
//!   invariants;
//! * [`reconfig`] — the live-reconfiguration battery: incremental
//!   re-solves over a scripted pool sequence must be bit-identical to
//!   fresh solves, and the epoch-barrier migration mirror must account
//!   for every frame exactly once, in order;
//! * [`chaos`] — fault injection against the amp-service engine: a
//!   deterministic `Scheduler` wrapper injecting panics, delays and
//!   invalid solutions, with per-instance invariant checks (one response
//!   per request, no invalid or incomplete outcome cached) and end-of-run
//!   metric reconciliation;
//! * [`shrink`] — greedy minimization of failing instances (the vendored
//!   proptest engine has no shrinking);
//! * [`corpus`] + [`json`] — a checked-in regression corpus of JSON
//!   instances, replayed on every run, with a self-contained canonical
//!   JSON codec (the build has no `serde_json`);
//! * [`alloc_track`] — a counting global allocator for the
//!   allocation-regression tests here and in `amp-net`.
//!
//! The [`runner`] module ties the layers into the `conformance` binary:
//! corpus replay first, then seeded fuzzing, shrinking and optionally
//! persisting every failure.

pub mod alloc_track;
pub mod chaos;
pub mod checks;
pub mod corpus;
pub mod energy;
pub mod gen;
pub mod instance;
pub mod json;
pub mod reconfig;
pub mod runner;
pub mod shrink;

pub use chaos::{chaos_wrap, ChaosConfig, ChaosCounters, ChaosHarness, ChaosScheduler};
pub use checks::{
    check_chain_tier, check_core, check_library, check_metamorphic, check_parallel, check_scratch,
    check_service, check_sweep, Mismatch,
};
pub use energy::{check_energy, energy_oracle};
pub use gen::{instance_for_seed, instance_strategy, task_strategy, GenConfig};
pub use instance::{Instance, TaskDef};
pub use reconfig::{check_reconfig, pool_script};
pub use runner::{run, Report, RunnerConfig};
pub use shrink::shrink;
