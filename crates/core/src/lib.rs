//! # amp-core — scheduling partially-replicable task chains on two types of resources
//!
//! Rust implementation of the scheduling strategies from *"Scheduling
//! Strategies for Partially-Replicable Task Chains on Two Types of
//! Resources"* (Orhan et al., IPPS 2025): given a linear chain of tasks —
//! some stateless (replicable), some stateful (sequential) — and a
//! heterogeneous multicore processor with `b` big and `l` little cores,
//! find an interval mapping into pipeline stages, each assigned one or more
//! cores of a single type, that minimizes the pipeline period (maximizes
//! throughput) while using as many little cores as necessary (the power
//! proxy of the paper's secondary objective).
//!
//! ## Strategies
//!
//! * [`sched::Fertac`] — greedy, little-cores-first (Algorithm 4).
//! * [`sched::Twocatac`] — greedy, tries both core types per stage
//!   (Algorithms 5–6), memoized over `(start, big left, little left)`;
//!   near-optimal in practice.
//! * [`sched::Herad`] — optimal dynamic programming (Algorithms 7–11),
//!   optimal in period *and* in the big→little exchange tie-break.
//! * [`sched::Otac`] — the homogeneous-optimal baseline restricted to one
//!   core type (`OTAC (B)` / `OTAC (L)` in the paper's evaluation).
//!
//! ## Quickstart
//!
//! ```
//! use amp_core::{Task, TaskChain, Resources, sched::{Herad, Scheduler}};
//!
//! // A chain of four tasks: weights on (big, little) cores, replicable?
//! let chain = TaskChain::new(vec![
//!     Task::new(10, 25, false), // stateful source
//!     Task::new(40, 90, true),  // heavy stateless filter
//!     Task::new(40, 95, true),  // heavy stateless decoder
//!     Task::new(5, 12, false),  // stateful sink
//! ]);
//! let solution = Herad::new()
//!     .schedule(&chain, Resources::new(2, 2))
//!     .expect("at least one core");
//! println!("decomposition: {solution}");
//! println!("period: {}", solution.period(&chain));
//! assert!(solution.validate(&chain).is_ok());
//! ```

pub mod chain;
pub mod json;
pub mod power;
pub mod ratio;
pub mod resources;
pub mod sched;
pub mod solution;

pub use chain::{Task, TaskChain};
pub use power::{milliwatts_to_watts, watts_to_milliwatts, MilliPower, PowerModel};
pub use ratio::Ratio;
pub use resources::{CoreType, Resources};
pub use solution::{period_of, stages_are_valid, used_cores_of, Solution, Stage, ValidationError};
