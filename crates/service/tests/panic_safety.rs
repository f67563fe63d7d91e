//! Panic-safety suite: the engine's robustness contract under injected
//! faults, at scale.
//!
//! The contract (see the `engine` module docs): no accepted request is
//! ever dropped without a response, no response id is ever duplicated,
//! a panicking strategy yields a typed `INTERNAL` error (not a dead
//! worker), the worker pool stays at its configured size, incomplete or
//! invalid outcomes never enter the cache, and the metrics account for
//! every injected fault.
//!
//! Faults are injected through `EngineConfig::fault_wrap` — the same
//! seam the conformance chaos layer uses — with a deterministic
//! schedule: the wrapper decides per compute-call from a shared atomic
//! call counter, so a given (engine, request stream) pair always
//! injects the same faults.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use amp_core::sched::{Fertac, SchedScratch, Scheduler};
use amp_core::{Resources, Solution, Task, TaskChain};
use amp_service::{
    Engine, EngineConfig, Policy, ScheduleOutcome, ScheduleRequest, ServiceError, StrategyWrap,
    TierFaultHook,
};
use crossbeam::channel;

/// Panics on every `period`-th compute call (1 = always), otherwise
/// delegates to the wrapped strategy.
struct PeriodicBomb {
    inner: Box<dyn Scheduler>,
    calls: Arc<AtomicU64>,
    period: u64,
}

impl Scheduler for PeriodicBomb {
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
        let n = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(self.period) {
            panic!("chaos: injected panic on compute call {n}");
        }
        self.inner.schedule_into(chain, resources, scratch, out)
    }
}

/// Wraps every scheduler the engine runs in a [`PeriodicBomb`] sharing
/// one call counter. Returns the wrap and the counter (for accounting).
fn bomb_every(period: u64) -> (StrategyWrap, Arc<AtomicU64>) {
    let calls = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&calls);
    let wrap: StrategyWrap = Arc::new(move |inner: Box<dyn Scheduler>| -> Box<dyn Scheduler> {
        Box::new(PeriodicBomb {
            inner,
            calls: Arc::clone(&calls),
            period,
        })
    });
    (wrap, counter)
}

/// A deterministic stream of distinct instances (splitmix-style PRNG),
/// so the chaos run exercises cache misses, not one cached answer.
fn chain_for(seed: u64) -> TaskChain {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let len = 1 + (next() % 10) as usize;
    let tasks = (0..len)
        .map(|_| {
            let wb = 1 + next() % 100;
            let slow = 1 + next() % 5;
            Task::new(wb, wb * slow, next() % 2 == 0)
        })
        .collect();
    TaskChain::new(tasks)
}

fn chaos_engine(workers: usize, wrap: StrategyWrap) -> Engine {
    Engine::start(EngineConfig {
        workers,
        racer_threads: workers,
        queue_depth: 256,
        cache_capacity: 512,
        cache_shards: 4,
        fault_wrap: Some(wrap),
        ..EngineConfig::default()
    })
}

/// The headline chaos run: ≥10k requests with a panic injected roughly
/// every 97th compute call, mixed policies. Every accepted request gets
/// exactly one response, every Ok outcome validates, the worker pool is
/// still at full strength afterwards, and `status_json` reports the
/// panics.
#[test]
fn chaos_run_loses_no_requests_and_restores_the_pool() {
    const REQUESTS: u64 = 10_000;
    let (wrap, calls) = bomb_every(97);
    let engine = chaos_engine(4, wrap);
    let (tx, rx) = channel::unbounded();

    let mut accepted = 0u64;
    for id in 0..REQUESTS {
        let chain = chain_for(id % 500);
        let policy = if id % 3 == 0 {
            Policy::Strategy("HeRAD".to_string())
        } else {
            Policy::Portfolio
        };
        let req = ScheduleRequest::from_chain(id, &chain, Resources::new(2, 2), policy);
        // Blocking submit: with live workers every request is accepted.
        engine.submit(req, tx.clone()).expect("accepted");
        accepted += 1;
    }
    drop(tx);

    let mut seen = HashSet::new();
    let mut internal_errors = 0u64;
    for response in rx.iter() {
        assert!(
            seen.insert(response.id),
            "duplicate response for id {}",
            response.id
        );
        match response.result {
            Ok(outcome) => {
                let chain = chain_for(response.id % 500);
                assert!(
                    outcome.solution().validate(&chain).is_ok(),
                    "served solution must validate (id {})",
                    response.id
                );
            }
            Err(ServiceError::Internal(msg)) => {
                assert!(msg.contains("panic"), "unexpected internal error: {msg}");
                internal_errors += 1;
            }
            Err(other) => panic!("unexpected error under chaos: {other:?}"),
        }
    }
    assert_eq!(seen.len() as u64, accepted, "no response may be lost");

    let m = engine.metrics();
    assert_eq!(m.responses, accepted);
    assert_eq!(m.workers_alive, 4, "pool must be restored to full size");
    // Two requests in three are portfolio requests, and a portfolio miss
    // runs FERTAC and HeRAD through the wrap.
    assert!(
        calls.load(Ordering::Relaxed) >= REQUESTS * 2 / 3,
        "chaos actually ran"
    );
    assert!(
        m.worker_panics + m.racer_panics > 0,
        "at least one fault must have fired"
    );
    assert_eq!(
        m.worker_panics, internal_errors,
        "every worker panic is a typed Internal response, and vice versa"
    );
    // The JSON snapshot carries the panic counts for dashboards.
    let json = engine.status_json();
    assert!(json.contains(&format!("\"worker_panics\":{}", m.worker_panics)));
    assert!(json.contains(&format!("\"racer_panics\":{}", m.racer_panics)));
    engine.shutdown();
}

/// Panic on *every* compute call: every single-strategy request comes
/// back as a typed `INTERNAL` error (never a hang, never a crash), and
/// the pool still answers cleanly once the chaos wrap stops firing.
#[test]
fn always_panicking_strategy_yields_all_internal_errors() {
    const REQUESTS: u64 = 200;
    // period 1 => every call panics; flip off via this shared switch.
    let armed = Arc::new(AtomicU64::new(1));
    let armed_in_wrap = Arc::clone(&armed);
    struct SwitchBomb {
        inner: Box<dyn Scheduler>,
        armed: Arc<AtomicU64>,
    }
    impl Scheduler for SwitchBomb {
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
            if self.armed.load(Ordering::Relaxed) == 1 {
                panic!("chaos: always panic");
            }
            self.inner.schedule_into(chain, resources, scratch, out)
        }
    }
    let wrap: StrategyWrap = Arc::new(move |inner: Box<dyn Scheduler>| -> Box<dyn Scheduler> {
        Box::new(SwitchBomb {
            inner,
            armed: Arc::clone(&armed_in_wrap),
        })
    });
    let engine = chaos_engine(2, wrap);
    for id in 0..REQUESTS {
        let req = ScheduleRequest::from_chain(
            id,
            &chain_for(id),
            Resources::new(2, 2),
            Policy::Strategy("FERTAC".to_string()),
        );
        match engine.schedule_blocking(req).result {
            Err(ServiceError::Internal(_)) => {}
            other => panic!("expected Internal under total chaos, got {other:?}"),
        }
    }
    let m = engine.metrics();
    assert_eq!(m.worker_panics, REQUESTS);
    assert_eq!(m.workers_alive, 2, "pool recovered after every panic");
    // Disarm: the same engine, same workers, now serves normally.
    armed.store(0, Ordering::Relaxed);
    let ok = engine.schedule_blocking(ScheduleRequest::from_chain(
        REQUESTS,
        &chain_for(0),
        Resources::new(2, 2),
        Policy::Strategy("FERTAC".to_string()),
    ));
    assert!(
        ok.result.is_ok(),
        "engine must serve again once chaos stops"
    );
    engine.shutdown();
}

/// A batch member is isolated like a single request: a strategy that
/// panics on one pool only fails that member, the other members of the
/// same batch match a direct solve, and exactly one panic is counted.
#[test]
fn batch_panic_fails_only_its_own_member() {
    const BOMBED: (u64, u64) = (3, 1);
    struct PoolBomb {
        inner: Box<dyn Scheduler>,
    }
    impl Scheduler for PoolBomb {
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
            if (resources.big, resources.little) == BOMBED {
                panic!("chaos: injected panic on pool {BOMBED:?}");
            }
            self.inner.schedule_into(chain, resources, scratch, out)
        }
    }
    let wrap: StrategyWrap = Arc::new(|inner: Box<dyn Scheduler>| -> Box<dyn Scheduler> {
        Box::new(PoolBomb { inner })
    });
    let engine = chaos_engine(1, wrap);
    let chain = chain_for(3);
    let pools = [(1, 1), (2, 2), BOMBED, (2, 3)];
    let requests = pools
        .iter()
        .enumerate()
        .map(|(id, &(big, little))| {
            ScheduleRequest::from_chain(
                id as u64,
                &chain,
                Resources::new(big, little),
                Policy::Strategy("FERTAC".to_string()),
            )
        })
        .collect();
    let (tx, rx) = channel::unbounded();
    assert_eq!(engine.try_submit_batch(requests, tx).expect("accepted"), 4);
    for _ in 0..pools.len() {
        let response = rx.recv().expect("one response per member");
        let (big, little) = pools[response.id as usize];
        match response.result {
            Err(ServiceError::Internal(msg)) if (big, little) == BOMBED => {
                assert!(msg.contains("panic"), "unexpected internal error: {msg}");
            }
            Ok(outcome) if (big, little) != BOMBED => {
                let direct = Fertac
                    .schedule(&chain, Resources::new(big, little))
                    .expect("feasible");
                let expect = ScheduleOutcome::from_solution("FERTAC", &direct, &chain, true);
                assert_eq!(outcome, expect, "pool {big}B+{little}L");
            }
            other => panic!("pool {big}B+{little}L answered {other:?}"),
        }
    }
    let m = engine.metrics();
    assert_eq!(m.worker_panics, 1, "one panicking member, one panic");
    assert_eq!(m.workers_alive, 1);
    engine.shutdown();
}

/// A batch member is looked up in the exact-instance cache once, like
/// a single request: five fresh members of every policy count five
/// misses.
#[test]
fn batch_members_pay_one_cache_lookup_per_miss() {
    let engine = Engine::start(EngineConfig {
        workers: 1,
        racer_threads: 2,
        queue_depth: 8,
        cache_capacity: 64,
        cache_shards: 1,
        ..EngineConfig::default()
    });
    let policies = [
        Policy::Strategy("HeRAD".to_string()),
        Policy::Strategy("FERTAC".to_string()),
        Policy::Strategy("2CATAC".to_string()),
        Policy::Strategy("2CATAC".to_string()),
        Policy::Portfolio,
    ];
    let requests: Vec<ScheduleRequest> = policies
        .into_iter()
        .enumerate()
        .map(|(id, policy)| {
            let id = id as u64;
            ScheduleRequest::from_chain(id, &chain_for(100 + id), Resources::new(2, 2), policy)
        })
        .collect();
    let n = requests.len();
    let (tx, rx) = channel::unbounded();
    assert_eq!(engine.try_submit_batch(requests, tx).expect("accepted"), n);
    for _ in 0..n {
        let response = rx.recv().expect("one response per member");
        assert!(response.result.is_ok(), "{response:?}");
    }
    let stats = engine.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, n as u64));
    engine.shutdown();
}

/// Racer-side chaos only: portfolio answers stay valid (inline FERTAC
/// carries them), are reported incomplete, and are never cached — a
/// replay of the same instance recomputes.
#[test]
fn racer_chaos_never_poisons_the_cache() {
    struct RacerBomb {
        inner: Box<dyn Scheduler>,
    }
    impl Scheduler for RacerBomb {
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
            panic!("chaos: racer down");
        }
    }
    // Kill HeRAD (the racer that certifies completeness); FERTAC inline
    // and the 2CATAC racer still answer.
    let wrap: StrategyWrap = Arc::new(|inner: Box<dyn Scheduler>| -> Box<dyn Scheduler> {
        if inner.name() == "HeRAD" {
            Box::new(RacerBomb { inner })
        } else {
            inner
        }
    });
    let engine = chaos_engine(2, wrap);
    for round in 0..3 {
        for id in 0..50u64 {
            let chain = chain_for(id);
            let req = ScheduleRequest::from_chain(
                round * 100 + id,
                &chain,
                Resources::new(2, 2),
                Policy::Portfolio,
            );
            let outcome = engine.schedule_blocking(req).result.expect("feasible");
            assert!(!outcome.complete, "a dead racer must clear `complete`");
            assert!(
                !outcome.cache_hit,
                "incomplete outcomes must never be cached"
            );
            assert!(outcome.solution().validate(&chain).is_ok());
        }
    }
    assert_eq!(engine.cache_stats().insertions, 0);
    let m = engine.metrics();
    assert_eq!(m.portfolio_complete, 0);
    assert_eq!(m.portfolio_truncated, 150);
    assert_eq!(m.racer_panics, 150, "one HeRAD death per request");
    engine.shutdown();
}

/// Chain-tier chaos at scale: 10k HeRAD requests with panics injected
/// through the tier's own fault seam — during extraction, in-place
/// growth and cold solves, with extra pressure on the mutation sites.
/// The contract: every accepted request is answered exactly once, a
/// tier panic is a typed `INTERNAL` response (never a dead worker or a
/// wrong answer), an interrupted mutation poisons only its own entry
/// (the next request on that chain repairs it with a cold solve), and
/// the end-of-run counters reconcile: every request either hit, grew,
/// cold-solved, or died to an injected panic.
#[test]
fn tier_chaos_poisons_nothing_permanently_and_counters_reconcile() {
    const REQUESTS: u64 = 10_000;
    const CHAINS: u64 = 50;
    let armed = Arc::new(AtomicU64::new(1));
    let rolls = Arc::new(AtomicU64::new(0));
    let mutation_rolls = Arc::new(AtomicU64::new(0));
    let (armed_in_hook, rolls_in_hook, mutations_in_hook) = (
        Arc::clone(&armed),
        Arc::clone(&rolls),
        Arc::clone(&mutation_rolls),
    );
    let tier_fault: TierFaultHook = Arc::new(move |site: &'static str| {
        if armed_in_hook.load(Ordering::Relaxed) == 0 {
            return;
        }
        let n = rolls_in_hook.fetch_add(1, Ordering::Relaxed) + 1;
        // Mutation sites (grow / cold / snapshot) are rare next to
        // extractions, so they get their own denser schedule — the
        // valid-flag protocol is what this test exists to break.
        if site != "extract" {
            let m = mutations_in_hook.fetch_add(1, Ordering::Relaxed) + 1;
            if m.is_multiple_of(5) {
                panic!("chaos: tier fault at {site} (mutation roll {m})");
            }
        }
        if n.is_multiple_of(89) {
            panic!("chaos: tier fault at {site} (roll {n})");
        }
    });
    let engine = Engine::start(EngineConfig {
        workers: 4,
        racer_threads: 0,
        queue_depth: 256,
        // No exact-instance LRU: every request must face the tier.
        cache_capacity: 0,
        chain_capacity: 64,
        tier_fault: Some(tier_fault),
        ..EngineConfig::default()
    });
    let (tx, rx) = channel::unbounded();
    for id in 0..REQUESTS {
        let req = ScheduleRequest::from_chain(
            id,
            &chain_for(id % CHAINS),
            Resources::new(1 + id % 3, id % 4),
            Policy::Strategy("HeRAD".to_string()),
        );
        engine.submit(req, tx.clone()).expect("accepted");
    }
    drop(tx);

    let mut seen = HashSet::new();
    let mut internal_errors = 0u64;
    for response in rx.iter() {
        assert!(
            seen.insert(response.id),
            "duplicate response for id {}",
            response.id
        );
        match response.result {
            Ok(outcome) => {
                let chain = chain_for(response.id % CHAINS);
                assert!(
                    outcome.solution().validate(&chain).is_ok(),
                    "tier-served solution must validate (id {})",
                    response.id
                );
            }
            Err(ServiceError::Internal(msg)) => {
                assert!(msg.contains("panic"), "unexpected internal error: {msg}");
                internal_errors += 1;
            }
            Err(other) => panic!("unexpected error under tier chaos: {other:?}"),
        }
    }
    assert_eq!(seen.len() as u64, REQUESTS, "no response may be lost");

    let m = engine.metrics();
    assert_eq!(m.responses, REQUESTS);
    assert_eq!(m.workers_alive, 4, "pool must be restored to full size");
    assert!(internal_errors > 0, "chaos actually fired");
    assert_eq!(
        m.worker_panics, internal_errors,
        "every tier panic is a typed Internal response, and vice versa"
    );
    // Counter reconciliation: each serve bumps exactly one of
    // hits/grows/cold_solves on success and none when the injected
    // panic aborts it.
    let t = engine.tier_stats();
    assert_eq!(
        t.hits + t.grows + t.cold_solves + internal_errors,
        REQUESTS,
        "tier counters must account for every request: {t:?}"
    );
    assert!(
        t.repairs > 0,
        "interrupted mutations must have been repaired: {t:?}"
    );

    // Disarm the chaos: the tier must now serve every chain at the full
    // pool bit-identically to a fresh HeRAD solve — no entry is left
    // wedged, poisoned entries repair transparently.
    armed.store(0, Ordering::Relaxed);
    let herad = amp_core::sched::Herad::new();
    for id in 0..CHAINS {
        let chain = chain_for(id);
        let pool = Resources::new(3, 3);
        let req = ScheduleRequest::from_chain(
            REQUESTS + id,
            &chain,
            pool,
            Policy::Strategy("HeRAD".to_string()),
        );
        let outcome = engine.schedule_blocking(req).result.expect("feasible");
        let fresh = herad.schedule(&chain, pool).expect("feasible");
        assert_eq!(
            outcome.solution(),
            fresh,
            "post-chaos tier answer must be bit-identical (chain {id})"
        );
    }
    engine.shutdown();
}

/// Snapshot-write chaos: a panic injected between the temp-file write
/// and the rename must leave the previous snapshot byte-identical on
/// disk and the tier fully serviceable — saving again after the fault
/// clears succeeds.
#[test]
fn snapshot_write_panic_never_corrupts_the_previous_snapshot() {
    let armed = Arc::new(AtomicU64::new(0));
    let armed_in_hook = Arc::clone(&armed);
    let tier_fault: TierFaultHook = Arc::new(move |site: &'static str| {
        if site == "snapshot" && armed_in_hook.load(Ordering::Relaxed) == 1 {
            panic!("chaos: die between snapshot write and rename");
        }
    });
    let engine = Engine::start(EngineConfig {
        workers: 1,
        racer_threads: 0,
        queue_depth: 8,
        tier_fault: Some(tier_fault),
        ..EngineConfig::default()
    });
    let chain = chain_for(7);
    for (id, pool) in [(1, 1), (2, 2), (3, 3)].iter().enumerate() {
        let req = ScheduleRequest::from_chain(
            id as u64,
            &chain,
            Resources::new(pool.0, pool.1),
            Policy::Strategy("HeRAD".to_string()),
        );
        assert!(engine.schedule_blocking(req).result.is_ok());
    }
    let path = std::env::temp_dir().join(format!("amp-snapshot-chaos-{}.json", std::process::id()));
    assert_eq!(engine.save_tier_snapshot(&path).expect("clean save"), 1);
    let before = std::fs::read(&path).expect("snapshot exists");

    armed.store(1, Ordering::Relaxed);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.save_tier_snapshot(&path)
    }));
    assert!(result.is_err(), "the injected snapshot panic must fire");
    assert_eq!(
        std::fs::read(&path).expect("snapshot still exists"),
        before,
        "an interrupted save must leave the previous snapshot untouched"
    );

    armed.store(0, Ordering::Relaxed);
    assert_eq!(engine.save_tier_snapshot(&path).expect("save again"), 1);
    // The tier itself was never touched by the failed save: pure hits.
    let req = ScheduleRequest::from_chain(
        99,
        &chain,
        Resources::new(2, 2),
        Policy::Strategy("HeRAD".to_string()),
    );
    assert!(engine.schedule_blocking(req).result.is_ok());
    assert_eq!(engine.tier_stats().repairs, 0);
    std::fs::remove_file(&path).ok();
    std::fs::remove_file(path.with_extension("json.tmp")).ok();
    engine.shutdown();
}
