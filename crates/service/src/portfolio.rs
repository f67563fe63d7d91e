//! Deadline-bounded strategy portfolio.
//!
//! One request, two strategies, bounded wall-clock: FERTAC runs
//! immediately on the calling thread (microseconds, always finishes),
//! while HeRAD (optimal but `O(n²·b·l)` DP) runs on the engine's
//! persistent [`RacerPool`]. The portfolio then waits for the racer's
//! report until the deadline and returns the best solution seen:
//!
//! * primary objective — smallest period (the paper's throughput goal);
//! * secondary objective — fewest big cores, then fewest cores overall
//!   (the paper's power proxy, read off [`Solution::used_cores`]).
//!
//! With no deadline the portfolio waits for HeRAD, so its period equals
//! HeRAD's optimum, and a complete answer is a function of the request:
//! HeRAD's solution when it beats FERTAC's, FERTAC's otherwise. With a
//! deadline that already passed it still returns the inline FERTAC
//! solution — a valid schedule, never an error, merely possibly
//! improvable.
//!
//! 2CATAC is not raced: in 19 585 seeded instances it never beat HeRAD
//! under this order, so at best it ties, and a tie keeps whichever
//! answer reported first, which would let thread timing pick the served
//! and cached stages. On large pools it can also outlast HeRAD.
//!
//! ## The `complete` flag, precisely
//!
//! `complete` is a *cacheability certificate*: it is `true` only when
//! the HeRAD racer was submitted, ran, and reported a usable verdict
//! (solution or infeasible) before the deadline. Anything less — a
//! deadline hit, a racer that panicked, an invalid racer solution, a
//! full racer queue, a degraded (even empty) pool — clears it, because
//! the result can no longer be proven HeRAD-optimal and caching it would
//! replay a possibly-improvable answer bit-identical to every later
//! identical request. In particular a racer that *dies without
//! reporting* (channel disconnect with the report still missing) clears
//! the flag: an earlier version left `complete == true` on that path and
//! poisoned the cache.
//!
//! Racer execution is pooled, isolated and cancellable — see
//! [`racer`](crate::racer) for the thread-lifecycle design.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use amp_core::sched::{Fertac, Herad, SchedScratch, Scheduler};
use amp_core::{Ratio, Resources, Solution, TaskChain};
use crossbeam::channel;

use crate::racer::{self, RacerJob, RacerPool, RacerResult};

/// Number of racing strategies a portfolio run submits to the pool:
/// HeRAD alone.
pub const N_RACERS: usize = 1;

/// The winning result of one portfolio run.
#[derive(Clone, Debug)]
pub struct PortfolioOutcome {
    /// Display name of the strategy that produced the winner.
    pub strategy: &'static str,
    /// The winning solution.
    pub solution: Solution,
    /// Its period on the request chain.
    pub period: Ratio,
    /// `true` when the racer reported a usable verdict in time; the
    /// cacheability certificate (see the module docs).
    pub complete: bool,
}

/// `true` when `(candidate)` beats `(incumbent)` under the paper's
/// objectives: smaller period, then fewer big cores, then fewer cores.
fn beats(cand_period: Ratio, cand: &Solution, inc_period: Ratio, inc: &Solution) -> bool {
    if cand_period != inc_period {
        return cand_period < inc_period;
    }
    let (c, i) = (cand.used_cores(), inc.used_cores());
    if c.big != i.big {
        return c.big < i.big;
    }
    c.total() < i.total()
}

/// Flips the request's cancellation flag when dropped, so queued racer
/// jobs are skipped whether the collector returns normally, times out,
/// or unwinds out of this function entirely (e.g. an injected panic in
/// the inline member).
struct CancelOnDrop(Arc<AtomicBool>);

impl Drop for CancelOnDrop {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Runs the portfolio for one instance. `deadline` bounds how long the
/// caller waits for the HeRAD racer; `None` waits until it reports.
/// `scratch` backs the inline FERTAC solve, so a worker that keeps its
/// scratch across requests pays no allocation for the guaranteed member;
/// the racers reuse the pool threads' own arenas. Steady state spawns no
/// OS threads. Returns `None` only when *no* member (FERTAC included)
/// found a valid mapping — e.g. an empty chain or a zero-core pool.
#[must_use]
pub fn run(
    chain: &TaskChain,
    resources: Resources,
    deadline: Option<Instant>,
    scratch: &mut SchedScratch,
    pool: &RacerPool,
) -> Option<PortfolioOutcome> {
    let (tx, rx) = channel::bounded(N_RACERS);
    let cancel = Arc::new(AtomicBool::new(false));
    let _cancel_guard = CancelOnDrop(Arc::clone(&cancel));
    let generation = pool.next_generation();
    let racers: [Box<dyn Scheduler>; N_RACERS] = [Box::new(Herad::new())];
    let mut submitted = 0usize;
    for strategy in racers {
        let accepted = pool.try_submit(RacerJob {
            strategy: pool.wrapped(strategy),
            chain: chain.clone(),
            resources,
            generation,
            cancel: Arc::clone(&cancel),
            reply: tx.clone(),
        });
        if accepted {
            submitted += 1;
        }
    }
    drop(tx);

    // A racer the pool could not take (no live threads, full queue) is a
    // member that will never report: the outcome cannot be complete.
    let mut complete = submitted == N_RACERS;

    // Vet the inline member before *anything* derives from its stages —
    // an invalid FERTAC solution (possible only through fault injection
    // or a real scheduler bug) must neither win nor certify
    // completeness, and computing a period from out-of-range stages
    // would panic.
    let fertac = pool.wrapped(Box::new(Fertac));
    let mut fertac_out = Solution::empty();
    let mut best: Option<(&'static str, Solution, Ratio)> =
        if fertac.schedule_into(chain, resources, scratch, &mut fertac_out) {
            if racer::solution_is_sound(&fertac_out, chain, resources) {
                let period = fertac_out.period(chain);
                Some((fertac.name(), fertac_out, period))
            } else {
                pool.record_inline_invalid();
                complete = false;
                None
            }
        } else {
            None
        };

    let mut received = 0;
    while received < submitted {
        let msg = match deadline {
            Some(d) => rx.recv_deadline(d),
            None => rx
                .recv()
                .map_err(|_| channel::RecvTimeoutError::Disconnected),
        };
        match msg {
            Ok(report) => {
                received += 1;
                match report.result {
                    RacerResult::Solved(solution) => {
                        let period = solution.period(chain);
                        let better = match &best {
                            Some((_, inc, inc_period)) => {
                                beats(period, &solution, *inc_period, inc)
                            }
                            None => true,
                        };
                        if better {
                            best = Some((report.name, solution, period));
                        }
                    }
                    RacerResult::Infeasible => {}
                    // A panicked or invalid racer reported, but nothing
                    // usable: the result cannot be proven optimal.
                    RacerResult::Failed => complete = false,
                }
            }
            Err(channel::RecvTimeoutError::Timeout) => {
                complete = false;
                break;
            }
            Err(channel::RecvTimeoutError::Disconnected) => {
                // Every sender is gone. If reports are still missing, a
                // racer died (or was skipped) without reporting — the
                // outcome is NOT complete. Leaving `complete` untouched
                // here was the cache-poisoning bug this module fixes.
                if received < submitted {
                    complete = false;
                }
                break;
            }
        }
    }

    best.map(|(strategy, solution, period)| PortfolioOutcome {
        strategy,
        solution,
        period,
        complete,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::racer::StrategyWrap;
    use amp_core::{CoreType, Stage, Task};

    fn chain() -> TaskChain {
        TaskChain::new(vec![
            Task::new(10, 25, false),
            Task::new(40, 90, true),
            Task::new(40, 95, true),
            Task::new(5, 12, false),
        ])
    }

    /// A wrap that panics inside the named strategy and passes every
    /// other one through untouched.
    fn panic_in(name: &'static str) -> StrategyWrap {
        struct Bomb {
            inner: Box<dyn Scheduler>,
        }
        impl Scheduler for Bomb {
            fn name(&self) -> &'static str {
                self.inner.name()
            }
            fn schedule_into(
                &self,
                _: &TaskChain,
                _: Resources,
                _: &mut SchedScratch,
                _: &mut Solution,
            ) -> bool {
                panic!("injected panic in {}", self.inner.name());
            }
        }
        Arc::new(move |inner: Box<dyn Scheduler>| -> Box<dyn Scheduler> {
            if inner.name() == name {
                Box::new(Bomb { inner })
            } else {
                inner
            }
        })
    }

    #[test]
    fn unlimited_deadline_matches_herad_optimum() {
        let c = chain();
        let res = Resources::new(2, 2);
        let pool = RacerPool::new(2, None);
        let out = run(&c, res, None, &mut SchedScratch::new(), &pool).expect("feasible");
        let opt = Herad::new().optimal_period(&c, res).expect("feasible");
        assert_eq!(out.period, opt);
        assert!(out.complete);
        assert!(out.solution.validate(&c).is_ok());
        assert!(out.solution.is_valid(&c, res, out.period));
    }

    #[test]
    fn expired_deadline_still_returns_a_valid_solution() {
        let c = chain();
        let res = Resources::new(2, 2);
        let pool = RacerPool::new(2, None);
        let deadline = Instant::now(); // already passed once we wait
        let out = run(&c, res, Some(deadline), &mut SchedScratch::new(), &pool)
            .expect("FERTAC always reports");
        assert!(out.solution.validate(&c).is_ok());
        assert!(out.solution.is_valid(&c, res, out.period));
        // FERTAC's period bounds the result from above even if a racer
        // happened to slip in before the deadline check.
        let fertac = Fertac.schedule(&c, res).unwrap();
        assert!(out.period <= fertac.period(&c));
    }

    #[test]
    fn infeasible_instance_returns_none() {
        let pool = RacerPool::new(2, None);
        assert!(run(
            &chain(),
            Resources::new(0, 0),
            None,
            &mut SchedScratch::new(),
            &pool,
        )
        .is_none());
    }

    /// The headline regression: a racer that panics (dies without a
    /// usable report) must clear `complete`, with or without a deadline.
    /// Before the fix, the disconnect path returned `complete == true`
    /// and the engine cached the FERTAC answer as HeRAD-optimal.
    #[test]
    fn dead_racer_clears_the_complete_flag() {
        let c = chain();
        let res = Resources::new(2, 2);
        let pool = RacerPool::new(2, Some(panic_in("HeRAD")));
        let out =
            run(&c, res, None, &mut SchedScratch::new(), &pool).expect("FERTAC still answers");
        assert!(
            !out.complete,
            "a panicked racer must not certify completeness"
        );
        assert!(out.solution.validate(&c).is_ok());
        assert_eq!(pool.stats().panics, 1);
    }

    /// Satellite regression: the doc promise "an expired deadline still
    /// returns the inline FERTAC solution — never an error" holds even
    /// when a racer panics before FERTAC's result is collected.
    #[test]
    fn expired_deadline_with_panicking_racer_still_answers() {
        let c = chain();
        let res = Resources::new(2, 2);
        let pool = RacerPool::new(2, Some(panic_in("HeRAD")));
        let out = run(
            &c,
            res,
            Some(Instant::now()),
            &mut SchedScratch::new(),
            &pool,
        )
        .expect("never an error on an expired deadline");
        assert!(!out.complete);
        assert!(out.solution.validate(&c).is_ok());
        assert!(out.solution.is_valid(&c, res, out.period));
    }

    /// A degraded (zero-thread) pool serves FERTAC-only and reports the
    /// outcome incomplete, so it is never cached as optimal.
    #[test]
    fn zero_thread_pool_degrades_to_fertac_only() {
        let c = chain();
        let res = Resources::new(2, 2);
        let pool = RacerPool::new(0, None);
        let out = run(&c, res, None, &mut SchedScratch::new(), &pool)
            .expect("inline FERTAC still answers");
        assert_eq!(out.strategy, "FERTAC");
        assert!(!out.complete);
        let fertac = Fertac.schedule(&c, res).unwrap();
        assert_eq!(out.period, fertac.period(&c));
    }

    /// An invalid racer solution is discarded (never wins) and clears
    /// completeness.
    #[test]
    fn invalid_racer_solution_is_discarded() {
        struct Liar {
            inner: Box<dyn Scheduler>,
        }
        impl Scheduler for Liar {
            fn name(&self) -> &'static str {
                self.inner.name()
            }
            fn schedule_into(
                &self,
                chain: &TaskChain,
                _: Resources,
                _: &mut SchedScratch,
                out: &mut Solution,
            ) -> bool {
                *out = Solution::new(vec![Stage::new(0, chain.len(), 1, CoreType::Big)]);
                true
            }
        }
        let wrap: StrategyWrap = Arc::new(|inner: Box<dyn Scheduler>| -> Box<dyn Scheduler> {
            if inner.name() == "HeRAD" {
                Box::new(Liar { inner })
            } else {
                inner
            }
        });
        let c = chain();
        let res = Resources::new(2, 2);
        let pool = RacerPool::new(2, Some(wrap));
        let out =
            run(&c, res, None, &mut SchedScratch::new(), &pool).expect("FERTAC still answers");
        assert!(!out.complete);
        assert!(out.solution.validate(&c).is_ok());
        assert_eq!(pool.stats().invalid, 1);
    }

    /// Where HeRAD and 2CATAC tie under `beats`, both beat FERTAC and
    /// their stages differ, racing both served whichever reported first.
    /// HeRAD is slowed by 1 ms here, so a racing 2CATAC would report
    /// first; racing alone, HeRAD is served on every repeat.
    #[test]
    fn tie_instances_serve_the_same_answer_every_time() {
        use amp_core::sched::Twocatac;
        use rand::{rngs::StdRng, Rng, SeedableRng};

        struct Slow {
            inner: Box<dyn Scheduler>,
        }
        impl Scheduler for Slow {
            fn name(&self) -> &'static str {
                self.inner.name()
            }
            fn schedule_into(
                &self,
                chain: &TaskChain,
                resources: Resources,
                scratch: &mut SchedScratch,
                out: &mut Solution,
            ) -> bool {
                std::thread::sleep(std::time::Duration::from_millis(1));
                self.inner.schedule_into(chain, resources, scratch, out)
            }
        }
        let slow_herad: StrategyWrap =
            Arc::new(|inner: Box<dyn Scheduler>| -> Box<dyn Scheduler> {
                if inner.name() == "HeRAD" {
                    Box::new(Slow { inner })
                } else {
                    inner
                }
            });
        let mut rng = StdRng::seed_from_u64(0x71E5);
        let pool = RacerPool::new(2, Some(slow_herad));
        let mut ties = 0;
        for _ in 0..2000 {
            let n = rng.gen_range(2..=10usize);
            let tasks = (0..n)
                .map(|_| {
                    let weight_big = rng.gen_range(1..=50u64);
                    let slowdown = rng.gen_range(1..=5u64);
                    Task::new(weight_big, weight_big * slowdown, rng.gen_bool(0.5))
                })
                .collect();
            let c = TaskChain::new(tasks);
            let res = Resources::new(rng.gen_range(1..=6), rng.gen_range(1..=6));
            let herad = Herad::new().schedule(&c, res).expect("a pool with cores");
            let twocatac = Twocatac::new()
                .schedule(&c, res)
                .expect("a pool with cores");
            let fertac = Fertac.schedule(&c, res).expect("a pool with cores");
            let (hp, tp, fp) = (herad.period(&c), twocatac.period(&c), fertac.period(&c));
            let tied = !beats(hp, &herad, tp, &twocatac) && !beats(tp, &twocatac, hp, &herad);
            if !tied || herad == twocatac || !beats(hp, &herad, fp, &fertac) {
                continue;
            }
            ties += 1;
            for _ in 0..16 {
                let out = run(&c, res, None, &mut SchedScratch::new(), &pool).expect("feasible");
                assert!(out.complete);
                assert_eq!((out.strategy, &out.solution), ("HeRAD", &herad));
            }
            if ties == 8 {
                return;
            }
        }
        panic!("only {ties} tie instances in 2000 draws");
    }

    #[test]
    fn beats_orders_by_period_then_big_cores_then_total() {
        let fast = Solution::new(vec![Stage::new(0, 3, 1, CoreType::Big)]);
        let lean = Solution::new(vec![Stage::new(0, 3, 1, CoreType::Little)]);
        let wide = Solution::new(vec![
            Stage::new(0, 1, 1, CoreType::Little),
            Stage::new(2, 3, 2, CoreType::Little),
        ]);
        let p1 = Ratio::from_int(10);
        let p2 = Ratio::from_int(20);
        // Smaller period always wins.
        assert!(beats(p1, &fast, p2, &lean));
        assert!(!beats(p2, &lean, p1, &fast));
        // Equal period: fewer big cores wins.
        assert!(beats(p1, &lean, p1, &fast));
        assert!(!beats(p1, &fast, p1, &lean));
        // Equal period and big cores: fewer total cores wins.
        assert!(beats(p1, &lean, p1, &wide));
        assert!(!beats(p1, &wide, p1, &lean));
        // Exact ties do not displace the incumbent.
        assert!(!beats(p1, &lean, p1, &lean));
    }
}
