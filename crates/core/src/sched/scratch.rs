//! Reusable scheduling scratch: the arena that makes repeated solves
//! allocation-free.
//!
//! Every strategy's hot path ([`Scheduler::schedule_into`]) threads a
//! [`SchedScratch`] through its internals instead of allocating. The
//! scratch holds two things:
//!
//! * HeRAD's [`ChainTable`]: the `n·(B+1)·(L+1)` DP table, keyed to the
//!   chain and pruning that produced it. [`Herad::fill`] brings it to
//!   each request: a solve of the same chain on a covered pool is pure
//!   extraction, a larger pool grows the table by only the new
//!   rows/columns (cell values are pool-independent — see `herad`'s
//!   module docs for the sub-table-growth invariant), and only a
//!   different chain pays for a rebuild. A rebuild reuses the table's
//!   cell and key buffers, which only grow, and never refills cells that
//!   the recurrence overwrites anyway;
//! * a free-list of stage buffers: the `Schedule` binary search rents its
//!   candidate buffer from it instead of building a fresh `Solution` per
//!   probe, and 2CATAC's two-choice recursion rents one buffer per
//!   candidate per node and returns them on unwind, so the pool
//!   high-water mark is `O(n)` and steady-state recursion allocates
//!   nothing.
//!
//! Scratches may be shared freely across strategies and across instances
//! of *different* shapes (smaller or larger `n`, `B`, `L`), and always
//! yield bit-identical solutions to the allocating paths — the
//! conformance suite pins exactly that.
//!
//! [`Scheduler::schedule_into`]: crate::sched::Scheduler::schedule_into
//! [`Herad::fill`]: crate::sched::Herad::fill

use crate::sched::ChainTable;
use crate::solution::Stage;

/// Reusable buffers for the scheduling hot paths. See the module docs.
#[derive(Debug, Default)]
pub struct SchedScratch {
    /// HeRAD's keyed DP table, filled by [`crate::sched::Herad::fill`].
    pub(crate) herad_table: ChainTable,
    /// Free-list of stage buffers for the binary search and the greedy
    /// recursions.
    stage_pool: Vec<Vec<Stage>>,
}

impl SchedScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    #[must_use]
    pub fn new() -> Self {
        SchedScratch::default()
    }

    /// Rents a cleared stage buffer from the pool (allocation-free once
    /// the pool has warmed up).
    pub(crate) fn rent_stages(&mut self) -> Vec<Stage> {
        let mut buf = self.stage_pool.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Returns a rented buffer to the pool for reuse.
    pub(crate) fn return_stages(&mut self, buf: Vec<Stage>) {
        self.stage_pool.push(buf);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::CoreType;

    #[test]
    fn rented_buffers_come_back_cleared_with_capacity() {
        let mut scratch = SchedScratch::new();
        let mut buf = scratch.rent_stages();
        buf.extend((0..32).map(|i| Stage::new(i, i, 1, CoreType::Big)));
        let cap = buf.capacity();
        scratch.return_stages(buf);
        let again = scratch.rent_stages();
        assert!(again.is_empty());
        assert_eq!(again.capacity(), cap, "capacity must be preserved");
    }

    #[test]
    fn pool_hands_out_distinct_buffers() {
        let mut scratch = SchedScratch::new();
        let a = scratch.rent_stages();
        let b = scratch.rent_stages();
        scratch.return_stages(a);
        scratch.return_stages(b);
        assert_eq!(scratch.stage_pool.len(), 2);
    }

    #[test]
    fn fresh_sweep_memo_matches_nothing() {
        use crate::chain::{Task, TaskChain};
        let table = ChainTable::default();
        let c = TaskChain::new(vec![Task::new(1, 1, false)]);
        assert!(!table.matches(&c));
    }
}
