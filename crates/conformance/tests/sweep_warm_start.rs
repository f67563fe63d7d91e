//! Differential suite for HeRAD's pool-delta warm starts.
//!
//! A `SchedScratch` carried across solves keeps the DP sub-table and
//! grows it monotonically (the sub-table-growth invariant: every cell is
//! a pure function of the chain prefix and its indices, never of the
//! total pool). These tests sweep one scratch over resource grids in
//! ascending, descending and shuffled orders and require every warm
//! solve to be bit-identical to a fresh allocating solve.
//!
//! The same invariant is a count gate on the perf workload
//! (`amp_conformance::gen::perf_chains`): a chain tier pays one cold
//! solve per chain over the whole grid. The wall-clock gates on that
//! workload are `#[ignore]`d here, because host load moves them; run
//! them in release with
//! `cargo test --release -p amp-conformance --test sweep_warm_start -- --ignored`.

use std::hint::black_box;
use std::time::Instant;

use amp_conformance::gen::{perf_chains, perf_grid, PERF_POOL};
use amp_conformance::{check_sweep, instance_for_seed, GenConfig, Instance, TaskDef};
use amp_core::sched::{schedule_many_with, Herad, Pruning, SchedScratch, Scheduler};
use amp_core::{Resources, Solution, TaskChain};
use amp_service::{ChainTier, ChainTierStats, TaskSpec};

#[test]
fn seeded_instances_pass_the_sweep_check() {
    let cfg = GenConfig::default();
    for seed in 0..150 {
        let mismatches = check_sweep(&instance_for_seed(seed, &cfg));
        assert!(
            mismatches.is_empty(),
            "seed {seed}: {}",
            mismatches
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("; ")
        );
    }
}

/// Sweeps one scratch over a shuffled pool grid — every transition is an
/// arbitrary mix of grows, rebuilds and pure sub-table extractions — and
/// checks solutions and periods against fresh solves.
#[test]
fn shuffled_grid_sweep_matches_fresh_solves() {
    let inst = Instance::new(
        "shuffled-sweep",
        vec![
            TaskDef::new(6, 13, true),
            TaskDef::new(3, 4, false),
            TaskDef::new(9, 15, true),
            TaskDef::new(2, 2, false),
            TaskDef::new(5, 10, true),
            TaskDef::new(7, 7, true),
        ],
        6,
        6,
    );
    let chain = inst.chain();
    let mut grid: Vec<(u64, u64)> = (0..=6u64)
        .flat_map(|b| (0..=6u64).map(move |l| (b, l)))
        .collect();
    // Deterministic LCG shuffle: no RNG dependency, reproducible order.
    let mut state = 0x2545_f491_4f6c_dd1du64;
    for i in (1..grid.len()).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        grid.swap(i, (state >> 33) as usize % (i + 1));
    }

    for pruning in [Pruning::Aggressive, Pruning::Lossless] {
        let herad = Herad::with_pruning(pruning);
        let mut scratch = SchedScratch::new();
        let mut warm = Solution::empty();
        for &(b, l) in &grid {
            let r = Resources::new(b, l);
            let fresh = herad.schedule(&chain, r);
            let got = herad
                .schedule_into(&chain, r, &mut scratch, &mut warm)
                .then(|| warm.clone());
            assert_eq!(got, fresh, "{pruning:?} shuffled sweep diverged at {r}");
            assert_eq!(
                herad.optimal_period_with(&chain, r, &mut scratch),
                herad.optimal_period(&chain, r),
                "{pruning:?} warm period diverged at {r}"
            );
        }
    }
}

/// The scratch must survive *chain changes* between sweeps: rekeying on a
/// different chain invalidates the memo, and the new sweep is again
/// bit-identical to fresh solves.
#[test]
fn scratch_reuse_across_different_chains_stays_exact() {
    let herad = Herad::new();
    let mut scratch = SchedScratch::new();
    let mut warm = Solution::empty();
    let cfg = GenConfig::default();
    for seed in 0..60 {
        let inst = instance_for_seed(seed, &cfg);
        let chain = inst.chain();
        for b in 0..=inst.big {
            for l in 0..=inst.little {
                let r = Resources::new(b, l);
                let fresh = herad.schedule(&chain, r);
                let got = herad
                    .schedule_into(&chain, r, &mut scratch, &mut warm)
                    .then(|| warm.clone());
                assert_eq!(got, fresh, "seed {seed} at {r} after chain switch");
            }
        }
    }
}

/// Serves `jobs` in order through a fresh tier holding up to `capacity`
/// chains, checking every answer feasible, and returns its counters.
fn tier_stats(capacity: usize, jobs: &[(&TaskChain, Resources)]) -> ChainTierStats {
    let tier = ChainTier::new(capacity, None);
    let mut out = Solution::empty();
    for &(chain, r) in jobs {
        let key: Vec<TaskSpec> = chain.tasks().iter().map(TaskSpec::from).collect();
        assert!(tier.serve(&key, chain, r, &mut out).1, "infeasible at {r}");
    }
    tier.stats()
}

/// A fresh tier sized to the perf chains pays exactly one cold solve per
/// chain over the chain-major grid; every other pool grows the chain's
/// table or extracts from it.
#[test]
fn perf_grid_tier_pays_one_cold_solve_per_chain() {
    let chains = perf_chains();
    let grid = perf_grid(&chains);
    let stats = tier_stats(chains.len(), &grid);
    assert_eq!(stats.cold_solves, chains.len() as u64);
    assert_eq!(stats.hits + stats.grows, (grid.len() - chains.len()) as u64);
}

/// The gate above trips when the tier cannot keep the chains it sweeps:
/// a capacity-1 tier over two interleaved chains evicts on every switch.
#[test]
fn capacity_one_tier_over_interleaved_chains_trips_the_cold_solve_gate() {
    let chains = perf_chains();
    let grid = perf_grid(&chains[..2]);
    let (first, second) = grid.split_at(grid.len() / 2);
    let interleaved: Vec<_> = first
        .iter()
        .zip(second)
        .flat_map(|(&a, &b)| [a, b])
        .collect();
    assert!(tier_stats(1, &interleaved).cold_solves > 2);
}

/// Timed rounds per measurement; the batched path times twice as many.
const REPS: usize = 4;

/// Times `solve` once per job, pushing the nanoseconds to `samples`.
fn time_each<T>(jobs: &[T], samples: &mut Vec<u128>, mut solve: impl FnMut(&T)) {
    for job in jobs {
        let t = Instant::now();
        solve(black_box(job));
        samples.push(t.elapsed().as_nanos());
    }
}

fn median(mut samples: Vec<u128>) -> u128 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Median ns of a cold `Herad::schedule` per job, over `REPS` rounds.
fn cold_median_ns(jobs: &[(&TaskChain, Resources)]) -> u128 {
    let mut samples = Vec::new();
    for _ in 0..REPS {
        time_each(jobs, &mut samples, |&(chain, r)| {
            assert!(black_box(Herad::new().schedule(chain, r)).is_some());
        });
    }
    median(samples)
}

/// Pool-delta warm starts: the grid on one persistent scratch must beat
/// the same grid solved cold by at least 1.5x in the median.
#[test]
#[ignore = "wall-clock gate: run in release with --ignored"]
fn herad_sweep_speedup_holds_in_release() {
    let chains = perf_chains();
    let grid = perf_grid(&chains);
    let herad = Herad::new();
    let mut scratch = SchedScratch::new();
    let mut out = Solution::empty();
    let mut warm = Vec::new();
    for _ in 0..REPS {
        time_each(&grid, &mut warm, |&(chain, r)| {
            assert!(herad.schedule_into(chain, r, &mut scratch, &mut out));
        });
    }
    let (cold, warm) = (cold_median_ns(&grid), median(warm));
    let speedup = cold as f64 / warm.max(1) as f64;
    println!("HeRAD sweep: cold {cold} ns, warm {warm} ns, sweep_speedup {speedup:.2}");
    assert!(speedup >= 1.5, "sweep_speedup {speedup:.2} < 1.5");
}

/// `schedule_many_with` over the grid on persistent per-worker scratches,
/// after one untimed warm-up round, must cost no more per solve than a
/// cold solve at the perf pool or a cold solve of the grid.
#[test]
#[ignore = "wall-clock gate: run in release with --ignored"]
fn batched_herad_is_no_slower_than_cold_in_release() {
    let chains = perf_chains();
    let grid = perf_grid(&chains);
    let workers = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(4);
    let mut scratches: Vec<SchedScratch> = (0..workers).map(|_| SchedScratch::new()).collect();
    let herad = Herad::new();
    black_box(schedule_many_with(&herad, &grid, &mut scratches));
    let batched = median(
        (0..2 * REPS)
            .map(|_| {
                let t = Instant::now();
                let results = schedule_many_with(&herad, &grid, &mut scratches);
                assert_eq!(black_box(results).len(), grid.len());
                t.elapsed().as_nanos() / grid.len() as u128
            })
            .collect(),
    );
    let pool_jobs: Vec<_> = chains.iter().map(|c| (c, PERF_POOL)).collect();
    let (cold, cold_sweep) = (cold_median_ns(&pool_jobs), cold_median_ns(&grid));
    println!(
        "HeRAD batched {batched} ns/solve on {workers} workers: {:.2}x cold ({cold} ns), \
         {:.2}x cold sweep ({cold_sweep} ns)",
        batched as f64 / cold.max(1) as f64,
        batched as f64 / cold_sweep.max(1) as f64
    );
    assert!(batched <= cold, "batched {batched} ns > cold {cold} ns");
    assert!(
        batched <= cold_sweep,
        "batched {batched} ns > cold sweep {cold_sweep} ns"
    );
}

/// The chain tier, fresh each round, must serve the grid at least 1.5x
/// faster per request than solving every pool cold.
#[test]
#[ignore = "wall-clock gate: run in release with --ignored"]
fn chain_tier_beats_the_cold_sweep_in_release() {
    let chains = perf_chains();
    let grid = perf_grid(&chains);
    let jobs: Vec<(&TaskChain, Vec<TaskSpec>, Resources)> = grid
        .iter()
        .map(|&(chain, r)| (chain, chain.tasks().iter().map(TaskSpec::from).collect(), r))
        .collect();
    let mut out = Solution::empty();
    let mut served = Vec::new();
    for _ in 0..REPS {
        let tier = ChainTier::new(chains.len(), None);
        time_each(&jobs, &mut served, |(chain, key, r)| {
            assert!(tier.serve(key, chain, *r, &mut out).1);
        });
    }
    let (cold_sweep, served) = (cold_median_ns(&grid), median(served));
    let speedup = cold_sweep as f64 / served.max(1) as f64;
    println!("chain tier {served} ns/serve vs cold sweep {cold_sweep} ns: {speedup:.2}x");
    assert!(speedup >= 1.5, "chain-tier speedup {speedup:.2} < 1.5");
}
