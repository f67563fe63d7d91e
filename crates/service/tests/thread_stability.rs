//! Steady-state portfolio requests must spawn no OS threads: the racer
//! pool is persistent, so after `Engine::start` the thread population
//! is fixed.
//!
//! This file deliberately holds a single test so the integration-test
//! binary runs it alone in its own process — that makes the
//! `/proc/self/status` thread census deterministic (no sibling tests
//! spawning engines concurrently).

use amp_core::{Resources, Task, TaskChain};
use amp_service::{Engine, EngineConfig, Policy, ScheduleRequest};

fn chain_for(seed: u64) -> TaskChain {
    let len = 1 + (seed % 9) as usize;
    let tasks = (0..len as u64)
        .map(|i| {
            let wb = 1 + (seed * 31 + i * 7) % 100;
            Task::new(wb, wb * (1 + (seed + i) % 4), (seed + i).is_multiple_of(2))
        })
        .collect();
    TaskChain::new(tasks)
}

/// Current thread count of this process, from the kernel's census.
#[cfg(target_os = "linux")]
fn os_thread_count() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

#[cfg(not(target_os = "linux"))]
fn os_thread_count() -> Option<u64> {
    None
}

#[test]
fn warm_portfolio_requests_spawn_no_new_threads() {
    let engine = Engine::start(EngineConfig {
        workers: 2,
        racer_threads: 4,
        queue_depth: 64,
        cache_capacity: 64,
        cache_shards: 2,
        fault_wrap: None,
        ..EngineConfig::default()
    });
    // Warm-up: first contact with every chain shape, filling the cache
    // and growing each worker/racer scratch arena to its final size.
    for id in 0..100u64 {
        let req = ScheduleRequest::from_chain(
            id,
            &chain_for(id % 20),
            Resources::new(2, 2),
            Policy::Portfolio,
        );
        engine.schedule_blocking(req).result.expect("feasible");
    }

    let spawned_before = engine.metrics().threads_spawned;
    assert_eq!(
        spawned_before, 6,
        "2 workers + 4 racers, created once at startup"
    );
    let os_before = os_thread_count();

    // The measured steady-state run: a mix of cache hits (repeat shapes)
    // and fresh computes (new shapes), all through the portfolio.
    for id in 100..2100u64 {
        let req = ScheduleRequest::from_chain(
            id,
            &chain_for(id % 40),
            Resources::new(2, 2),
            Policy::Portfolio,
        );
        engine.schedule_blocking(req).result.expect("feasible");
    }

    let m = engine.metrics();
    assert_eq!(
        m.threads_spawned, spawned_before,
        "steady-state requests must not create OS threads"
    );
    assert_eq!(m.spawn_failures, 0);
    assert_eq!(m.workers_alive, 2);
    if let (Some(before), Some(after)) = (os_before, os_thread_count()) {
        assert_eq!(
            after, before,
            "kernel thread census must agree: no threads appeared or died"
        );
    }
    engine.shutdown();
}
