//! `schedule_many` / `schedule_many_with`: batched scheduling over a
//! crossbeam scoped worker pool with per-thread [`SchedScratch`].
//!
//! Sweeps (the paper's Table I campaign, the `synthetic_sweep` example,
//! service warm-up) call the same strategy on thousands of independent
//! instances. Fanning the batch across scoped threads keeps the wall
//! clock low while each worker's private scratch keeps the per-solve
//! allocation count at zero after warm-up. Workers claim *chunks* of
//! consecutive jobs from a shared atomic cursor — chunking matters twice:
//! it amortizes the cursor contention over many jobs, and it hands each
//! worker a consecutive run of jobs, which is exactly the access pattern
//! HeRAD's keyed table turns into pool-delta warm starts (consecutive jobs
//! in a sweep share a chain or grow a pool). Every job is solved exactly
//! once and the result vector is bit-identical to sequential
//! [`Scheduler::schedule`] calls regardless of worker count or chunk
//! boundaries.
//!
//! [`schedule_many_with`] is the primitive: the caller owns the worker
//! scratches, so repeated batches (benchmark rounds, campaign strategies
//! over the same instance set, service warm-up waves) keep every
//! worker's DP table and buffer pool hot across calls.

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::chain::TaskChain;
use crate::resources::Resources;
use crate::sched::{SchedScratch, Scheduler};
use crate::solution::Solution;

/// How many chunks each worker should get on average: >1 so a worker that
/// lands expensive jobs does not serialize the tail (work stealing via
/// the shared cursor), small enough that a chunk still amortizes claiming
/// and keeps consecutive sweep jobs on one scratch.
const CHUNKS_PER_WORKER: usize = 4;

/// A raw view of the result vector: workers write disjoint, pre-claimed
/// index ranges.
struct SharedResults {
    ptr: *mut Option<Solution>,
}

// SAFETY: each result index belongs to exactly one chunk, each chunk is
// claimed by exactly one worker (atomic fetch_add), and the scope join
// orders every write before the owner reads the vector again. Slots are
// pre-filled with `None`, and the raw `write` only ever replaces `None`
// (the overwritten value owns no heap), so skipping the drop is sound.
unsafe impl Send for SharedResults {}
unsafe impl Sync for SharedResults {}

/// Schedules every `(chain, resources)` job with `strategy`, one scoped
/// worker per scratch in `scratches` (capped at the job count). Returns
/// one entry per job, in job order; `None` marks an infeasible instance,
/// just like [`Scheduler::schedule`]. With one scratch (or one job)
/// everything runs on the calling thread.
///
/// The scratches are the warm state: pass the same slice to every batch
/// and each worker keeps its HeRAD table, stage buffer and two-choice
/// memos across batches. An empty slice is allowed and behaves like a
/// single fresh scratch.
#[must_use]
pub fn schedule_many_with(
    strategy: &dyn Scheduler,
    jobs: &[(&TaskChain, Resources)],
    scratches: &mut [SchedScratch],
) -> Vec<Option<Solution>> {
    let workers = scratches.len().min(jobs.len()).max(1);
    if workers == 1 {
        let mut fallback;
        let scratch = match scratches.first_mut() {
            Some(s) => s,
            None => {
                fallback = SchedScratch::new();
                &mut fallback
            }
        };
        return jobs
            .iter()
            .map(|&(chain, resources)| {
                let mut out = Solution::empty();
                strategy
                    .schedule_into(chain, resources, scratch, &mut out)
                    .then_some(out)
            })
            .collect();
    }

    let chunk = jobs.len().div_ceil(workers * CHUNKS_PER_WORKER).max(1);
    let cursor = AtomicUsize::new(0);
    let mut results: Vec<Option<Solution>> = Vec::new();
    results.resize_with(jobs.len(), || None);
    let shared = SharedResults {
        ptr: results.as_mut_ptr(),
    };
    crossbeam::thread::scope(|scope| {
        let cursor = &cursor;
        let shared = &shared;
        for scratch in scratches.iter_mut().take(workers) {
            scope.spawn(move || loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= jobs.len() {
                    break;
                }
                let end = (start + chunk).min(jobs.len());
                for (i, &(chain, resources)) in jobs[start..end].iter().enumerate() {
                    let mut out = Solution::empty();
                    let ok = strategy.schedule_into(chain, resources, scratch, &mut out);
                    // SAFETY: index `start + i` lies in this worker's
                    // claimed chunk; see `SharedResults`.
                    unsafe { shared.ptr.add(start + i).write(ok.then_some(out)) };
                }
            });
        }
    })
    .expect("schedule_many scope");
    results
}

/// [`schedule_many_with`] with `workers` freshly allocated scratches
/// (clamped to `1..=jobs.len()`): the right call for one-shot batches
/// where no warm state outlives the batch.
#[must_use]
pub fn schedule_many(
    strategy: &dyn Scheduler,
    jobs: &[(&TaskChain, Resources)],
    workers: usize,
) -> Vec<Option<Solution>> {
    let workers = workers.max(1).min(jobs.len().max(1));
    let mut scratches: Vec<SchedScratch> = (0..workers).map(|_| SchedScratch::new()).collect();
    schedule_many_with(strategy, jobs, &mut scratches)
}

/// Convenience for the common sweep shape: many chains, one pool.
#[must_use]
pub fn schedule_chains(
    strategy: &dyn Scheduler,
    chains: &[TaskChain],
    resources: Resources,
    workers: usize,
) -> Vec<Option<Solution>> {
    let jobs: Vec<(&TaskChain, Resources)> = chains.iter().map(|c| (c, resources)).collect();
    schedule_many(strategy, &jobs, workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Task;
    use crate::sched::{Fertac, Herad};

    fn chains() -> Vec<TaskChain> {
        (1..=9u64)
            .map(|k| {
                TaskChain::new(
                    (0..k)
                        .map(|i| Task::new(1 + (i * k) % 7, 2 + (i + k) % 9, i % 2 == 0))
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn batched_results_match_sequential_schedule() {
        let chains = chains();
        let resources = Resources::new(2, 3);
        for workers in [1, 2, 8] {
            let got = schedule_chains(&Herad::new(), &chains, resources, workers);
            assert_eq!(got.len(), chains.len());
            for (chain, result) in chains.iter().zip(&got) {
                assert_eq!(result, &Herad::new().schedule(chain, resources));
            }
        }
    }

    #[test]
    fn infeasible_jobs_stay_none() {
        let chains = chains();
        let got = schedule_chains(&Fertac, &chains, Resources::new(0, 0), 4);
        assert!(got.iter().all(Option::is_none));
    }

    #[test]
    fn mixed_pools_keep_job_order() {
        let chains = chains();
        let jobs: Vec<(&TaskChain, Resources)> = chains
            .iter()
            .enumerate()
            .map(|(i, c)| (c, Resources::new(i as u64 % 3, (i as u64 + 1) % 3)))
            .collect();
        let sequential: Vec<Option<Solution>> =
            jobs.iter().map(|&(c, r)| Fertac.schedule(c, r)).collect();
        assert_eq!(schedule_many(&Fertac, &jobs, 8), sequential);
    }

    #[test]
    fn persistent_scratches_stay_warm_and_correct_across_batches() {
        let chains = chains();
        let jobs: Vec<(&TaskChain, Resources)> =
            chains.iter().map(|c| (c, Resources::new(3, 2))).collect();
        let sequential: Vec<Option<Solution>> = jobs
            .iter()
            .map(|&(c, r)| Herad::new().schedule(c, r))
            .collect();
        let mut scratches: Vec<SchedScratch> = (0..3).map(|_| SchedScratch::new()).collect();
        // Repeated batches over the same scratches: warm memos and sweep
        // tables from earlier rounds (and earlier chains on the same
        // worker) must never change a result.
        for _ in 0..3 {
            assert_eq!(
                schedule_many_with(&Herad::new(), &jobs, &mut scratches),
                sequential
            );
        }
        // A different job set over the now-dirty scratches is still exact.
        let grown: Vec<(&TaskChain, Resources)> =
            chains.iter().map(|c| (c, Resources::new(4, 4))).collect();
        let grown_sequential: Vec<Option<Solution>> = grown
            .iter()
            .map(|&(c, r)| Herad::new().schedule(c, r))
            .collect();
        assert_eq!(
            schedule_many_with(&Herad::new(), &grown, &mut scratches),
            grown_sequential
        );
    }

    #[test]
    fn empty_scratch_slice_and_chunk_edges_are_exact() {
        let chains = chains();
        let jobs: Vec<(&TaskChain, Resources)> =
            chains.iter().map(|c| (c, Resources::new(1, 2))).collect();
        let sequential: Vec<Option<Solution>> =
            jobs.iter().map(|&(c, r)| Fertac.schedule(c, r)).collect();
        // No scratches at all → single fresh scratch on the caller thread.
        assert_eq!(schedule_many_with(&Fertac, &jobs, &mut []), sequential);
        // More workers than jobs, and worker counts that make the chunk
        // size 1 (maximal claiming traffic) or larger than the job count.
        for workers in [2, 5, 9, 32] {
            let mut scratches: Vec<SchedScratch> =
                (0..workers).map(|_| SchedScratch::new()).collect();
            assert_eq!(
                schedule_many_with(&Fertac, &jobs, &mut scratches),
                sequential,
                "diverged with {workers} scratches"
            );
        }
        // Empty job list stays empty.
        assert!(schedule_many_with(&Fertac, &[], &mut []).is_empty());
    }
}
