//! # amp-service — a concurrent scheduling service for task-chain instances
//!
//! A long-running, multi-threaded engine around the paper's scheduling
//! strategies ([`amp_core::sched`]): clients submit
//! [`ScheduleRequest`]s — a partially-replicable task chain, a big/little
//! resource pool, a strategy [`Policy`] and an optional deadline — over
//! bounded channels and receive exactly one [`ScheduleResponse`] each.
//!
//! The service layers five mechanisms on top of the core algorithms:
//!
//! * **[`cache`]** — a sharded LRU keyed by the instance's canonical
//!   fingerprint (weights, replicability mask, resource pool, policy), so
//!   repeated instances are answered bit-identically without recomputing;
//! * **[`chain_tier`]** — the solve-once tier behind the LRU: one HeRAD
//!   DP table per distinct chain answers *every* pool shape by pure
//!   extraction (growing in place when a larger pool arrives), with
//!   snapshot persistence for warm restarts;
//! * **[`portfolio`]** — a deadline-bounded strategy portfolio: FERTAC
//!   inline for an instant feasible answer, HeRAD on the persistent
//!   racer pool, best period (ties: fewest big cores, then fewest
//!   cores — the paper's secondary objective) wins; only runs where
//!   HeRAD reported are marked `complete` and thus cacheable;
//! * **[`racer`]** — a persistent, bounded pool of racer threads with
//!   cooperative per-request cancellation, panic containment and
//!   racer-side solution validation (no per-request `thread::spawn`);
//! * **[`engine`]** — a crossbeam worker pool with a bounded job queue,
//!   explicit [`ServiceError::Overloaded`] backpressure, per-request
//!   panic isolation (a panicking strategy becomes a typed
//!   [`ServiceError::Internal`] response, never a dropped reply),
//!   revive-in-place worker supervision, validate-before-cache and
//!   drain-then-join graceful shutdown;
//! * **[`metrics`]** — lock-free counters (including panic, invalid
//!   solution and thread-accounting gauges) and a latency histogram
//!   exported as a JSON snapshot;
//! * **[`shards`]** — horizontal scaling: N independent engines behind
//!   a fingerprint router, so identical instances always share a cache
//!   while throughput and cache capacity scale with the shard count
//!   (this is what the `amp-net` socket front end mounts).
//!
//! ## Quickstart
//!
//! ```
//! use amp_core::{Resources, Task, TaskChain};
//! use amp_service::{Engine, EngineConfig, Policy, ScheduleRequest};
//!
//! let engine = Engine::start(EngineConfig::default());
//! let chain = TaskChain::new(vec![
//!     Task::new(10, 25, false),
//!     Task::new(40, 90, true),
//!     Task::new(5, 12, false),
//! ]);
//! let request = ScheduleRequest::from_chain(
//!     1, &chain, Resources::new(2, 2), Policy::Portfolio,
//! );
//! let response = engine.schedule_blocking(request);
//! let outcome = response.result.expect("feasible instance");
//! println!("{} found period {}", outcome.strategy, outcome.period);
//! engine.shutdown();
//! ```

pub mod cache;
pub mod chain_tier;
pub mod engine;
pub mod error;
pub mod metrics;
pub mod portfolio;
pub mod racer;
pub mod request;
pub mod shards;

pub use cache::{CacheKey, CacheStats, KeyMaterial, SolutionCache};
pub use chain_tier::{ChainTier, ChainTierStats, SnapshotError, TierFaultHook, TierServe};
pub use engine::{Engine, EngineConfig, RejectedBatch};
pub use error::ServiceError;
pub use metrics::{MetricsSnapshot, ServiceMetrics};
pub use portfolio::PortfolioOutcome;
pub use racer::{solution_is_sound, RacerPool, RacerPoolStats, StrategyWrap};
pub use request::{
    format_period, parse_period, Objective, Policy, ScheduleOutcome, ScheduleRequest,
    ScheduleResponse, TaskSpec,
};
pub use shards::{BatchSubmission, EngineShards};
