//! The persistent racer pool behind the strategy portfolio.
//!
//! The portfolio used to spawn two fresh OS threads per request — fine in
//! a demo, fatal at "millions of users" scale: `thread::spawn` panics
//! under resource exhaustion (unwinding the *worker* that called it), and
//! every request pays thread setup/teardown. The [`RacerPool`] replaces
//! that with a small, fixed set of long-lived racer threads behind a
//! bounded job queue:
//!
//! * **No steady-state thread creation.** Threads are spawned once, at
//!   pool construction, with [`std::thread::Builder`] — a spawn failure
//!   is counted and tolerated (a smaller, possibly empty pool), never a
//!   panic. Every job is served by a pooled thread that reuses its own
//!   [`SchedScratch`] arena.
//! * **Panic isolation.** Each job runs under
//!   [`catch_unwind`](std::panic::catch_unwind); a panicking strategy is
//!   reported to the submitter as [`RacerResult::Failed`] and counted in
//!   [`RacerPoolStats::panics`]. The racer thread survives, so the pool
//!   never silently shrinks. The thread's scratch arena is discarded
//!   after a panic (a half-written DP table is not trustworthy).
//! * **Cooperative cancellation.** Every submission carries a generation
//!   number (from a pool-wide counter) and a shared cancellation flag.
//!   A collector that stops waiting — deadline hit, or the calling
//!   worker itself unwinding — flips the flag; queued jobs for that
//!   request are then skipped at dequeue instead of running to
//!   completion for nobody. A job already mid-solve merely finishes and
//!   fails its send; it occupies one pool slot, never a fresh thread.
//! * **Validated results.** A racer vets its own solution (structure and
//!   resource usage) before reporting it; an invalid solution — only
//!   possible through a fault-injection wrapper or a genuine scheduler
//!   bug — becomes [`RacerResult::Failed`] and is counted, so garbage
//!   can never win the portfolio or reach the cache.
//!
//! The pool also carries the service's test-only fault-injection seam: a
//! [`StrategyWrap`] applied to every scheduler the portfolio or engine is
//! about to run. Production configs leave it `None`; the chaos harness
//! uses it to inject panics, delays and invalid solutions.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use amp_core::sched::{SchedScratch, Scheduler};
use amp_core::{Resources, Solution, TaskChain};
use crossbeam::channel::{self, Receiver, Sender};

/// Test-only fault-injection seam: wraps every scheduler the service is
/// about to run (portfolio members, inline FERTAC, single-strategy
/// requests). `None` in every production configuration.
pub type StrategyWrap = Arc<dyn Fn(Box<dyn Scheduler>) -> Box<dyn Scheduler> + Send + Sync>;

/// What one racer reported back for one job.
#[derive(Debug)]
pub enum RacerResult {
    /// A validated solution within the request's pool.
    Solved(Solution),
    /// The strategy ran to completion and found no valid mapping.
    Infeasible,
    /// The strategy panicked or produced an invalid solution; nothing
    /// usable was obtained and the member cannot count toward a
    /// `complete` outcome.
    Failed,
}

/// One racer's report: which strategy, and what happened.
#[derive(Debug)]
pub struct RacerReport {
    /// Display name of the strategy that ran.
    pub name: &'static str,
    /// Its result.
    pub result: RacerResult,
}

/// One queued racer job.
pub struct RacerJob {
    /// The scheduler to run (already fault-wrapped when a wrap is set).
    pub strategy: Box<dyn Scheduler>,
    /// The request chain (owned: the submitting worker moves on).
    pub chain: TaskChain,
    /// The request pool.
    pub resources: Resources,
    /// Request generation, from [`RacerPool::next_generation`].
    pub generation: u64,
    /// Cooperative-cancellation flag shared with the collector.
    pub cancel: Arc<AtomicBool>,
    /// Where the report goes; a send after the collector gave up fails
    /// silently.
    pub reply: Sender<RacerReport>,
}

/// Counters shared by the pool's threads and its owner.
#[derive(Default)]
struct RacerShared {
    panics: AtomicU64,
    invalid: AtomicU64,
    cancelled: AtomicU64,
    jobs_run: AtomicU64,
    alive: AtomicU64,
}

/// Point-in-time counters of a [`RacerPool`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RacerPoolStats {
    /// Panics caught inside racer jobs (the thread survived each one).
    pub panics: u64,
    /// Racer solutions rejected by validation before reporting.
    pub invalid: u64,
    /// Jobs skipped at dequeue because their request was abandoned.
    pub cancelled: u64,
    /// Jobs actually executed.
    pub jobs_run: u64,
    /// Racer threads currently alive.
    pub alive: u64,
    /// Racer threads successfully spawned over the pool's lifetime.
    pub threads_spawned: u64,
    /// `thread::Builder::spawn` failures at construction (the pool runs
    /// degraded, down to FERTAC-only service at zero threads).
    pub spawn_failures: u64,
}

/// A fixed-size pool of long-lived racer threads consuming a bounded job
/// queue. See the module docs for the design.
pub struct RacerPool {
    job_tx: Option<Sender<RacerJob>>,
    threads: Vec<JoinHandle<()>>,
    shared: Arc<RacerShared>,
    generation: AtomicU64,
    threads_spawned: u64,
    spawn_failures: u64,
    wrap: Option<StrategyWrap>,
}

impl RacerPool {
    /// Spawns `threads` racer threads. Spawn failures are counted, not
    /// propagated: the pool comes up with however many threads the OS
    /// granted (possibly zero — the portfolio then degrades to its
    /// inline FERTAC member). `wrap` is the fault-injection seam.
    #[must_use]
    pub fn new(threads: usize, wrap: Option<StrategyWrap>) -> Self {
        // Enough queue for every engine worker to have the racer of its
        // current request in flight, plus slack for abandoned jobs
        // awaiting their cancellation skip.
        let (job_tx, job_rx) = channel::bounded::<RacerJob>(threads.max(1) * 4 + 4);
        let shared = Arc::new(RacerShared::default());
        let mut spawned = Vec::with_capacity(threads);
        let mut spawn_failures = 0u64;
        for i in 0..threads {
            let rx = job_rx.clone();
            let thread_shared = Arc::clone(&shared);
            match thread::Builder::new()
                .name(format!("amp-service-racer-{i}"))
                .spawn(move || racer_loop(&rx, &thread_shared))
            {
                Ok(handle) => {
                    // Counted here, not inside the thread, so a submit
                    // racing pool construction never sees a stale zero.
                    shared.alive.fetch_add(1, Ordering::AcqRel);
                    spawned.push(handle);
                }
                Err(_) => spawn_failures += 1,
            }
        }
        RacerPool {
            job_tx: Some(job_tx),
            threads_spawned: spawned.len() as u64,
            threads: spawned,
            shared,
            generation: AtomicU64::new(0),
            spawn_failures,
            wrap,
        }
    }

    /// Applies the fault-injection wrap (identity when none is set).
    #[must_use]
    pub fn wrapped(&self, strategy: Box<dyn Scheduler>) -> Box<dyn Scheduler> {
        match &self.wrap {
            Some(wrap) => wrap(strategy),
            None => strategy,
        }
    }

    /// A fresh generation number for one portfolio run.
    #[must_use]
    pub fn next_generation(&self) -> u64 {
        self.generation.fetch_add(1, Ordering::Relaxed)
    }

    /// Racer threads currently alive.
    #[must_use]
    pub fn alive(&self) -> u64 {
        self.shared.alive.load(Ordering::Acquire)
    }

    /// Non-blocking submission. `false` when the pool is dead, has no
    /// live threads, or its queue is full — the caller must then count
    /// that racer as unreported (the outcome cannot be `complete`).
    #[must_use]
    pub fn try_submit(&self, job: RacerJob) -> bool {
        if self.alive() == 0 {
            return false;
        }
        match &self.job_tx {
            Some(tx) => tx.try_send(job).is_ok(),
            None => false,
        }
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> RacerPoolStats {
        RacerPoolStats {
            panics: self.shared.panics.load(Ordering::Relaxed),
            invalid: self.shared.invalid.load(Ordering::Relaxed),
            cancelled: self.shared.cancelled.load(Ordering::Relaxed),
            jobs_run: self.shared.jobs_run.load(Ordering::Relaxed),
            alive: self.alive(),
            threads_spawned: self.threads_spawned,
            spawn_failures: self.spawn_failures,
        }
    }

    /// Counts an invalid solution detected *outside* the racer threads
    /// (the portfolio's inline member) into the pool's `invalid` total,
    /// so one counter accounts for every rejected portfolio solution.
    pub fn record_inline_invalid(&self) {
        self.shared.invalid.fetch_add(1, Ordering::Relaxed);
    }
}

impl Drop for RacerPool {
    fn drop(&mut self) {
        drop(self.job_tx.take());
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// `true` when `solution` is structurally valid for `chain` and fits in
/// `resources` — the vetting every racer (and the engine, as
/// defense-in-depth before a cache insert) applies.
#[must_use]
pub fn solution_is_sound(solution: &Solution, chain: &TaskChain, resources: Resources) -> bool {
    if solution.validate(chain).is_err() {
        return false;
    }
    let used = solution.used_cores();
    used.big <= resources.big && used.little <= resources.little
}

fn racer_loop(rx: &Receiver<RacerJob>, shared: &RacerShared) {
    // `alive` was incremented by the spawner; this loop only gives the
    // slot back on exit.
    // One scratch arena per racer thread, shared across every strategy it
    // ever runs (the scratch is staleness-proof across shapes and
    // strategies; the conformance `check_scratch` layer pins that). For
    // the portfolio's HeRAD racer this also carries HeRAD's keyed table,
    // so repeated requests for the same chain at different pools reuse
    // the parked DP table (pool-delta warm starts) without any
    // service-side wiring.
    let mut scratch = SchedScratch::new();
    while let Ok(job) = rx.recv() {
        if job.cancel.load(Ordering::Acquire) {
            shared.cancelled.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        shared.jobs_run.fetch_add(1, Ordering::Relaxed);
        let name = job.strategy.name();
        let solved = catch_unwind(AssertUnwindSafe(|| {
            let mut out = Solution::empty();
            job.strategy
                .schedule_into(&job.chain, job.resources, &mut scratch, &mut out)
                .then_some(out)
        }));
        let result = match solved {
            Ok(Some(solution)) => {
                if solution_is_sound(&solution, &job.chain, job.resources) {
                    RacerResult::Solved(solution)
                } else {
                    shared.invalid.fetch_add(1, Ordering::Relaxed);
                    RacerResult::Failed
                }
            }
            Ok(None) => RacerResult::Infeasible,
            Err(_) => {
                shared.panics.fetch_add(1, Ordering::Relaxed);
                // The unwound solve may have left the arena half-written;
                // a fresh one is cheap and provably clean.
                scratch = SchedScratch::new();
                RacerResult::Failed
            }
        };
        let _ = job.reply.send(RacerReport { name, result });
    }
    shared.alive.fetch_sub(1, Ordering::AcqRel);
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_core::sched::{Fertac, Herad};
    use amp_core::Task;

    fn chain() -> TaskChain {
        TaskChain::new(vec![
            Task::new(10, 25, false),
            Task::new(40, 90, true),
            Task::new(5, 12, false),
        ])
    }

    fn submit(pool: &RacerPool, strategy: Box<dyn Scheduler>) -> Receiver<RacerReport> {
        let (tx, rx) = channel::bounded(1);
        let ok = pool.try_submit(RacerJob {
            strategy: pool.wrapped(strategy),
            chain: chain(),
            resources: Resources::new(2, 2),
            generation: pool.next_generation(),
            cancel: Arc::new(AtomicBool::new(false)),
            reply: tx,
        });
        assert!(ok, "pool accepts jobs");
        rx
    }

    #[test]
    fn pooled_racer_solves_and_survives() {
        let pool = RacerPool::new(1, None);
        for _ in 0..3 {
            let rx = submit(&pool, Box::new(Herad::new()));
            let report = rx.recv().expect("racer reports");
            assert_eq!(report.name, "HeRAD");
            assert!(matches!(report.result, RacerResult::Solved(_)));
        }
        let stats = pool.stats();
        assert_eq!(stats.jobs_run, 3);
        assert_eq!(stats.threads_spawned, 1);
        assert_eq!(stats.alive, 1);
        assert_eq!(stats.panics, 0);
    }

    #[test]
    fn panicking_strategy_is_contained_and_counted() {
        struct Bomb;
        impl Scheduler for Bomb {
            fn name(&self) -> &'static str {
                "Bomb"
            }
            fn schedule_into(
                &self,
                _: &TaskChain,
                _: Resources,
                _: &mut SchedScratch,
                _: &mut Solution,
            ) -> bool {
                panic!("injected");
            }
        }
        let pool = RacerPool::new(1, None);
        let rx = submit(&pool, Box::new(Bomb));
        let report = rx.recv().expect("failure still reported");
        assert!(matches!(report.result, RacerResult::Failed));
        // The same thread keeps serving after the panic.
        let rx = submit(&pool, Box::new(Fertac));
        assert!(matches!(
            rx.recv().expect("racer alive").result,
            RacerResult::Solved(_)
        ));
        let stats = pool.stats();
        assert_eq!(stats.panics, 1);
        assert_eq!(stats.alive, 1);
    }

    #[test]
    fn invalid_solutions_are_rejected_before_reporting() {
        struct Liar;
        impl Scheduler for Liar {
            fn name(&self) -> &'static str {
                "Liar"
            }
            fn schedule_into(
                &self,
                chain: &TaskChain,
                _: Resources,
                _: &mut SchedScratch,
                out: &mut Solution,
            ) -> bool {
                // Stage end == chain.len() is out of range: InvalidEnd.
                *out = Solution::new(vec![amp_core::Stage::new(
                    0,
                    chain.len(),
                    1,
                    amp_core::CoreType::Big,
                )]);
                true
            }
        }
        let pool = RacerPool::new(1, None);
        let rx = submit(&pool, Box::new(Liar));
        assert!(matches!(
            rx.recv().expect("reported").result,
            RacerResult::Failed
        ));
        assert_eq!(pool.stats().invalid, 1);
    }

    #[test]
    fn cancelled_jobs_are_skipped_without_running() {
        let pool = RacerPool::new(1, None);
        let (tx, rx) = channel::bounded(1);
        let cancel = Arc::new(AtomicBool::new(true));
        assert!(pool.try_submit(RacerJob {
            strategy: Box::new(Herad::new()),
            chain: chain(),
            resources: Resources::new(2, 2),
            generation: pool.next_generation(),
            cancel,
            reply: tx,
        }));
        // The skipped job never reports; the channel just disconnects.
        assert!(rx.recv().is_err());
        // A live job afterwards proves the skip did not wedge the thread.
        let rx = submit(&pool, Box::new(Fertac));
        assert!(matches!(
            rx.recv().expect("alive").result,
            RacerResult::Solved(_)
        ));
        let stats = pool.stats();
        assert_eq!(stats.cancelled, 1);
        assert_eq!(stats.jobs_run, 1);
    }

    #[test]
    fn zero_thread_pool_refuses_jobs() {
        let pool = RacerPool::new(0, None);
        let (tx, _rx) = channel::bounded(1);
        assert!(!pool.try_submit(RacerJob {
            strategy: Box::new(Fertac),
            chain: chain(),
            resources: Resources::new(1, 1),
            generation: 0,
            cancel: Arc::new(AtomicBool::new(false)),
            reply: tx,
        }));
        assert_eq!(pool.stats().alive, 0);
    }

    #[test]
    fn generations_are_distinct_per_request() {
        let pool = RacerPool::new(0, None);
        let a = pool.next_generation();
        let b = pool.next_generation();
        assert_ne!(a, b);
    }
}
