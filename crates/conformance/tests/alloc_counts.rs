//! Allocation-regression tests for the scheduler hot paths.
//!
//! This test binary installs [`amp_conformance::alloc_track::TrackingAllocator`]
//! as the global allocator and counts *per-thread* heap allocations, so
//! the assertions hold even when `cargo test` runs tests on several
//! threads at once. The contract under test: once a [`SchedScratch`] and
//! output [`Solution`] have warmed up on an instance shape, repeated
//! solves of that shape perform **zero** heap allocations.

use amp_conformance::alloc_track::{self, TrackingAllocator};
use amp_conformance::gen::{perf_chains, PERF_POOL};
use amp_core::sched::{
    paper_strategies, EnergyScheduler, EnergyTwocatac, Herad, PeriodBounds, SchedScratch, Scheduler,
};
use amp_core::{MilliPower, Ratio, Resources, Solution, Task, TaskChain};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

fn chain() -> TaskChain {
    TaskChain::new(vec![
        Task::new(3, 6, false),
        Task::new(2, 4, true),
        Task::new(4, 8, true),
        Task::new(6, 12, true),
        Task::new(5, 9, false),
        Task::new(7, 15, true),
        Task::new(1, 2, true),
        Task::new(2, 5, false),
    ])
}

/// The counting allocator actually counts on this thread.
#[test]
fn tracking_allocator_observes_allocations() {
    let (_v, allocs) = alloc_track::count_thread_allocs(|| vec![1u8, 2, 3]);
    assert!(allocs >= 1, "a fresh Vec must register at least one alloc");
    assert!(alloc_track::global_count() >= alloc_track::thread_count());
}

/// `PeriodBounds::compute` — one call per binary-search solve — performs
/// no heap allocation (the core-type candidate list is a fixed array).
#[test]
fn period_bounds_probe_is_allocation_free() {
    let c = chain();
    for resources in [
        Resources::new(4, 4),
        Resources::new(1, 0),
        Resources::new(0, 3),
    ] {
        let (bounds, allocs) =
            alloc_track::count_thread_allocs(|| PeriodBounds::compute(&c, resources));
        assert!(bounds.is_some());
        assert_eq!(allocs, 0, "PeriodBounds::compute allocated at {resources}");
    }
}

/// Every paper strategy's `schedule_into` is allocation-free once its
/// scratch and output have warmed up on the instance shape.
#[test]
fn warm_schedule_into_is_allocation_free() {
    let c = chain();
    let resources = Resources::new(4, 4);
    for strategy in paper_strategies() {
        let mut scratch = SchedScratch::new();
        let mut out = Solution::empty();
        // Warm-up: the first solves size the DP table and the stage pool.
        for _ in 0..3 {
            assert!(strategy.schedule_into(&c, resources, &mut scratch, &mut out));
        }
        let reference = out.clone();
        let ((), allocs) = alloc_track::count_thread_allocs(|| {
            for _ in 0..10 {
                assert!(strategy.schedule_into(&c, resources, &mut scratch, &mut out));
            }
        });
        assert_eq!(
            allocs,
            0,
            "{}: warm schedule_into allocated on the steady state",
            strategy.name()
        );
        assert_eq!(out, reference, "{}: warm result drifted", strategy.name());
    }
    // The perf workload, chains alternating: HeRAD rebuilds its table in
    // the scratch's own buffers.
    assert_eq!(
        herad_perf_workload_allocs(false),
        0,
        "HeRAD: a rebuild on a warm scratch allocated"
    );
}

/// The zero-allocation gate above trips when every solve pays for a
/// fresh scratch.
#[test]
fn fresh_scratch_per_solve_trips_the_allocation_gate() {
    assert!(herad_perf_workload_allocs(true) > 0);
}

/// Heap allocations of one HeRAD pass over the perf workload: each chain
/// at [`PERF_POOL`] twice in a row, an extraction after a rebuild, since
/// the chain changes between pairs. Two passes of the same sequence
/// quiesce the scratch first. `fresh_scratch` gives every solve a new
/// scratch instead.
fn herad_perf_workload_allocs(fresh_scratch: bool) -> u64 {
    let chains = perf_chains();
    let herad = Herad::new();
    let pass = |scratch: &mut SchedScratch, out: &mut Solution| {
        for chain in &chains {
            for _ in 0..2 {
                if fresh_scratch {
                    *scratch = SchedScratch::new();
                }
                assert!(herad.schedule_into(chain, PERF_POOL, scratch, out));
            }
        }
    };
    let mut scratch = SchedScratch::new();
    let mut out = Solution::empty();
    pass(&mut scratch, &mut out);
    pass(&mut scratch, &mut out);
    alloc_track::count_thread_allocs(|| pass(&mut scratch, &mut out)).1
}

/// A shape change re-sizes the scratch once, then the new steady state is
/// allocation-free again.
#[test]
fn shape_change_costs_one_warmup_then_none() {
    let small = TaskChain::new(vec![Task::new(2, 3, true), Task::new(4, 7, false)]);
    let large = chain();
    let resources = Resources::new(4, 4);
    for strategy in paper_strategies() {
        let mut scratch = SchedScratch::new();
        let mut out = Solution::empty();
        for _ in 0..3 {
            assert!(strategy.schedule_into(&small, resources, &mut scratch, &mut out));
        }
        // Growing to the large shape may allocate (table resize)...
        for _ in 0..3 {
            assert!(strategy.schedule_into(&large, resources, &mut scratch, &mut out));
        }
        // ...but afterwards both shapes are warm.
        let ((), allocs) = alloc_track::count_thread_allocs(|| {
            for _ in 0..5 {
                assert!(strategy.schedule_into(&large, resources, &mut scratch, &mut out));
                assert!(strategy.schedule_into(&small, resources, &mut scratch, &mut out));
            }
        });
        assert_eq!(
            allocs,
            0,
            "{}: alternating warm shapes still allocated",
            strategy.name()
        );
    }
}

/// Energy2CATAC's warm solves allocate nothing either: its memo lives in
/// the scratch and keeps its capacity, and the answer is rebuilt into the
/// output's own buffer. Both targets are feasible for this chain and pool.
#[test]
fn warm_energy_twocatac_is_allocation_free() {
    let c = chain();
    let resources = Resources::new(4, 4);
    let power = MilliPower::typical();
    let optimal = Herad::new().schedule(&c, resources).unwrap().period(&c);
    let relaxed = Ratio::new(optimal.numer() * 3, optimal.denom() * 2);
    let mut scratch = SchedScratch::new();
    let mut out = Solution::empty();
    let solve = |target: Ratio, scratch: &mut SchedScratch, out: &mut Solution| {
        EnergyTwocatac::new()
            .schedule_energy_into(&c, resources, &power, target, scratch, out)
            .expect("feasible target")
    };
    for _ in 0..3 {
        for target in [optimal, relaxed] {
            solve(target, &mut scratch, &mut out);
        }
    }
    let reference = out.clone();
    let ((), allocs) = alloc_track::count_thread_allocs(|| {
        for _ in 0..10 {
            for target in [optimal, relaxed] {
                solve(target, &mut scratch, &mut out);
            }
        }
    });
    assert_eq!(allocs, 0, "Energy2CATAC: warm solves allocated");
    assert_eq!(out, reference, "Energy2CATAC: warm result drifted");
}
