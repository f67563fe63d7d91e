//! Property-based tests for the scheduling service: cache soundness and
//! portfolio deadline semantics.
//!
//! Cache soundness means a hit is indistinguishable from a fresh compute:
//! same exact period string, same decomposition, same stages, same core
//! usage — only the `cache_hit` flag differs. Portfolio semantics mean an
//! unlimited deadline yields HeRAD's optimal period, while an
//! already-expired deadline still yields a valid FERTAC-or-better
//! solution and never an error.

use std::time::Instant;

use amp_core::sched::{Herad, SchedScratch, Scheduler};
use amp_core::{Resources, Task, TaskChain};
use amp_service::{
    portfolio, CacheKey, Engine, EngineConfig, Policy, RacerPool, ScheduleRequest, SolutionCache,
};
use proptest::prelude::*;

/// A random instance shaped like the paper's synthetic generator: big
/// weights uniform, little = big × slowdown, mixed replicability.
fn instance() -> impl Strategy<Value = (TaskChain, Resources)> {
    let task = (1u64..=100, 1u64..=5, any::<bool>())
        .prop_map(|(wb, slow, rep)| Task::new(wb, wb * slow, rep));
    (prop::collection::vec(task, 1..=12), 0u64..=6, 0u64..=6)
        .prop_filter("need at least one core", |(_, b, l)| b + l > 0)
        .prop_map(|(tasks, b, l)| (TaskChain::new(tasks), Resources::new(b, l)))
}

fn small_engine() -> Engine {
    Engine::start(EngineConfig {
        workers: 2,
        racer_threads: 4,
        queue_depth: 32,
        cache_capacity: 256,
        cache_shards: 4,
        fault_wrap: None,
        ..EngineConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Cache soundness through the full engine: the second identical
    /// request is served from the cache and is bit-identical to the
    /// fresh compute, `cache_hit` flag aside.
    #[test]
    fn cache_hit_is_bit_identical_to_fresh_compute((chain, res) in instance()) {
        let engine = small_engine();
        let req = ScheduleRequest::from_chain(1, &chain, res, Policy::Portfolio);
        let fresh = engine.schedule_blocking(req.clone());
        let replay = engine.schedule_blocking(ScheduleRequest { id: 2, ..req });
        match (fresh.result, replay.result) {
            (Ok(a), Ok(b)) => {
                prop_assert!(!a.cache_hit);
                prop_assert!(b.cache_hit, "second identical request must hit");
                prop_assert_eq!(&a.period, &b.period);
                prop_assert_eq!(a.period_f64.to_bits(), b.period_f64.to_bits());
                prop_assert_eq!(&a.decomposition, &b.decomposition);
                prop_assert_eq!(&a.stages, &b.stages);
                prop_assert_eq!(a.used_big, b.used_big);
                prop_assert_eq!(a.used_little, b.used_little);
                // The replayed stages must still be a valid schedule.
                prop_assert!(b.solution().validate(&chain).is_ok());
            }
            (a, b) => prop_assert_eq!(a, b, "errors must replay identically"),
        }
    }

    /// Equal fingerprint material ⇒ equal keys ⇒ the cache returns the
    /// stored outcome for either request, regardless of id or deadline.
    #[test]
    fn equal_fingerprints_are_schedule_equivalent((chain, res) in instance()) {
        let a = ScheduleRequest::from_chain(7, &chain, res, Policy::Portfolio);
        let b = ScheduleRequest::from_chain(99, &chain, res, Policy::Portfolio)
            .with_deadline_us(1_000_000);
        let (ka, kb) = (CacheKey::for_request(&a), CacheKey::for_request(&b));
        prop_assert_eq!(&ka, &kb);
        prop_assert_eq!(ka.fingerprint(), kb.fingerprint());

        let pool = RacerPool::new(2, None);
        let out = portfolio::run(&chain, res, None, &mut SchedScratch::new(), &pool);
        prop_assume!(out.is_some());
        let out = out.unwrap();
        let outcome = amp_service::ScheduleOutcome::from_solution(
            out.strategy, &out.solution, &chain, out.complete,
        );
        let cache = SolutionCache::new(16, 2);
        cache.insert(ka, outcome.clone());
        let via_b = cache.get(&kb).expect("same instance must hit");
        prop_assert_eq!(&via_b.period, &outcome.period);
        prop_assert_eq!(&via_b.stages, &outcome.stages);
    }

    /// Unlimited deadline: the portfolio waits for HeRAD, so its period
    /// is the instance's optimum.
    #[test]
    fn unlimited_deadline_is_herad_optimal((chain, res) in instance()) {
        let pool = RacerPool::new(2, None);
        let out = portfolio::run(&chain, res, None, &mut SchedScratch::new(), &pool)
            .expect("at least one core is available");
        prop_assert!(out.complete);
        let opt = Herad::new().optimal_period(&chain, res).unwrap();
        prop_assert_eq!(out.period, opt);
        prop_assert!(out.solution.validate(&chain).is_ok());
        prop_assert!(out.solution.is_valid(&chain, res, out.period));
    }

    /// Already-expired deadline: still a valid solution (FERTAC ran
    /// inline), never an error, and never worse than FERTAC alone.
    #[test]
    fn tight_deadline_is_valid_and_fertac_or_better((chain, res) in instance()) {
        let deadline = Some(Instant::now());
        let pool = RacerPool::new(2, None);
        let out = portfolio::run(&chain, res, deadline, &mut SchedScratch::new(), &pool)
            .expect("FERTAC always answers feasible instances");
        prop_assert!(out.solution.validate(&chain).is_ok());
        prop_assert!(out.solution.is_valid(&chain, res, out.period));
        let fertac = amp_core::sched::Fertac
            .schedule(&chain, res)
            .expect("feasible");
        prop_assert!(out.period <= fertac.period(&chain));
    }
}
