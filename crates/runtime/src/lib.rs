//! # amp-runtime — a StreamPU-style streaming runtime on virtual
//! heterogeneous cores
//!
//! The paper executes its schedules with [StreamPU], a C++ DSEL/runtime for
//! software-defined radio, on real big.LITTLE-class processors (Apple M1
//! Ultra, Intel Ultra 9 185H). Neither exists here, so this crate provides
//! the substrate the schedulers need, with the same execution semantics:
//!
//! * a task chain is decomposed into **pipeline stages** (one
//!   [`amp_core::Solution`] stage = one set of replica worker threads);
//! * **replicated stages** process frames round-robin while *adaptors*
//!   preserve frame order — including direct replicated→replicated links,
//!   the StreamPU v1.6.0 extension the paper's schedules `S16..S18` need;
//! * inter-stage buffers are **bounded** (back-pressure);
//! * each worker thread is bound to a **virtual core** of type big or
//!   little; a task's execution cost on a virtual core is its profiled
//!   weight on that core type, realized by calibrated spin-work (optionally
//!   wrapped around real payload computation, as in [`amp_dvbs2`'s blocks]).
//!
//! Virtualizing the heterogeneity is the documented substitution from
//! DESIGN.md: pipeline throughput depends on per-task latency per core
//! type — exactly the quantity injected — so schedule quality comparisons
//! (who wins, by how much) carry over even though the host's cores are
//! physically identical.
//!
//! [StreamPU]: https://github.com/aff3ct/streampu
//!
//! ## Example
//!
//! ```
//! use amp_core::{Task, TaskChain, Resources, sched::{Herad, Scheduler}};
//! use amp_runtime::{PipelineSpec, RunConfig, RuntimeTask, VirtualMachine, WeightedWork};
//! use std::sync::Arc;
//!
//! // Two-task chain: weights in microseconds on (big, little) cores.
//! let chain = TaskChain::new(vec![
//!     Task::new(50, 100, false),
//!     Task::new(200, 400, true),
//! ]);
//! let solution = Herad::new().schedule(&chain, Resources::new(1, 2)).unwrap();
//!
//! // Frames carry a u64 checksum; each task spins for its weight and mixes
//! // the sequence number into the payload.
//! let spec = PipelineSpec::new(
//!     Arc::new(|seq| seq),
//!     chain
//!         .tasks()
//!         .iter()
//!         .map(|t| RuntimeTask::new(&t.name, t.replicable, WeightedWork::from_task(t)))
//!         .collect(),
//! );
//! let machine = VirtualMachine::new(Resources::new(1, 2));
//! let report = spec
//!     .run(&chain, &solution, &machine, &RunConfig::with_frames(64))
//!     .unwrap();
//! assert_eq!(report.frames, 64);
//! assert!(report.fps > 0.0);
//! ```

mod adaptor;
mod pipeline;
mod profiler;
mod report;
mod sink;
mod spin;
mod vcore;
mod work;

pub use adaptor::OrderedRing;
pub use pipeline::{
    PipelineSpec, ReconfigPlan, RunConfig, RunningPipeline, RuntimeError, RuntimeTask,
};
pub use profiler::{profile_chain, ProfileConfig};
pub use report::{ReconfigEvent, RunReport, StageRuntimeReport};
pub use spin::{calibrated_spin, spin_for_micros, SpinCalibration};
pub use vcore::{VirtualCore, VirtualMachine};
pub use work::{FnWork, TaskWork, WeightedWork};
