//! # amp-sim — deterministic pipeline simulator
//!
//! Simulates the execution of a pipelined/replicated schedule
//! ([`amp_core::Solution`]) with the execution semantics of a StreamPU-style
//! streaming runtime:
//!
//! * each stage runs on `r` replica workers (one virtual core each, of the
//!   stage's core type);
//! * frames are distributed to replicas round-robin and frame order is
//!   preserved end to end (the scatter/gather *adaptors* of StreamPU,
//!   including direct replicated→replicated links);
//! * inter-stage buffers are bounded: a worker that finishes a frame blocks
//!   until the downstream buffer has space (back-pressure);
//! * the source keeps at most `W = Solution::in_flight_window()` frames in
//!   flight (a credit window): frame `f` enters once frame `f - W` has
//!   left the sink, the rule `amp-runtime`'s source follows. Rings of 1 or
//!   2 frames never let the window bind, and deeper rings do not push the
//!   latency past about `W` bottleneck periods.
//!
//! Because service times are deterministic and the adaptors are
//! order-preserving, the whole execution is captured by an exact recurrence
//! over (frame, stage) pairs — no event queue is needed and the simulation
//! is reproducible bit for bit. An optional multiplicative noise models
//! real-machine latency variation, seeded for reproducibility.
//!
//! The simulator is the source of the "Sim." columns of the paper's
//! Table II and validates `P(S)` (Eq. 2): measured steady-state periods
//! match the analytic bottleneck weight (see the `sim_matches_theory`
//! tests).

mod pipeline;
mod reconfig;
mod report;

pub use pipeline::{simulate, SimConfig};
pub use reconfig::{simulate_reconfig, ReconfigSimReport, SimBoundary};
pub use report::{SimReport, StageReport};
