//! Reusable scheduling scratch: the arena that makes repeated solves
//! allocation-free.
//!
//! Every strategy's hot path ([`Scheduler::schedule_into`]) threads a
//! [`SchedScratch`] through its internals instead of allocating. The
//! scratch holds:
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
//! * the `Schedule` binary search's candidate stage buffer, so a probe
//!   fills it instead of building a fresh `Solution`;
//! * the two-choice memos of 2CATAC and Energy2CATAC, keyed by
//!   `(start, big left, little left)` and cleared for each target: their
//!   memory follows the states one target visits, not the pool, and a
//!   warm memo inserts without allocating.
//!
//! Scratches may be shared freely across strategies and across instances
//! of *different* shapes (smaller or larger `n`, `B`, `L`), and always
//! yield bit-identical solutions to the allocating paths — the
//! conformance suite pins exactly that.
//!
//! [`Scheduler::schedule_into`]: crate::sched::Scheduler::schedule_into
//! [`Herad::fill`]: crate::sched::Herad::fill

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::ratio::Ratio;
use crate::resources::Resources;
use crate::sched::ChainTable;
use crate::solution::Stage;

/// Multiply-rotate hasher for a two-choice state's three small integers:
/// std's SipHash costs more per lookup than memoizing saves on the small
/// pools most requests bring. The keys are states the solver derives, not
/// values a request carries, and a probe visits at most `n·(B+1)·(L+1)`
/// of them.
#[derive(Default)]
pub(crate) struct StateHasher(u64);

impl Hasher for StateHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
}

/// A two-choice memo from a state, the suffix's first task and the cores
/// left for it, to the winning first stage and what the whole suffix
/// costs, or `None` when no valid suffix exists.
pub(crate) type ChoiceMemo<C> =
    HashMap<(usize, Resources), Option<(Stage, C)>, BuildHasherDefault<StateHasher>>;

/// Appends a solved memo's answer to `out`: the winning first stage of
/// the state `(0, resources)`, then of the state it leaves, and so on to
/// the last task of a chain of `n` tasks.
pub(crate) fn walk_winners<C: Copy>(
    memo: &ChoiceMemo<C>,
    n: usize,
    resources: Resources,
    out: &mut Vec<Stage>,
) {
    let (mut start, mut left) = (0, resources);
    while start < n {
        let (stage, _) = memo[&(start, left)].expect("a winner's suffix was solved");
        out.push(stage);
        left = left.minus(stage.core_type, stage.cores);
        start = stage.end + 1;
    }
}

/// Reusable buffers for the scheduling hot paths. See the module docs.
#[derive(Debug, Default)]
pub struct SchedScratch {
    /// HeRAD's keyed DP table, filled by [`crate::sched::Herad::fill`].
    pub(crate) herad_table: ChainTable,
    /// The binary search's candidate stage buffer.
    stages: Vec<Stage>,
    /// 2CATAC's memo; a suffix costs the cores it uses.
    pub(crate) twocatac_memo: ChoiceMemo<Resources>,
    /// Energy2CATAC's memo; a suffix costs its exact energy.
    pub(crate) energy_memo: ChoiceMemo<Ratio>,
}

impl SchedScratch {
    /// An empty scratch; buffers grow on first use and are reused after.
    #[must_use]
    pub fn new() -> Self {
        SchedScratch::default()
    }

    /// Rents the cleared stage buffer (allocation-free once it has warmed
    /// up).
    pub(crate) fn rent_stages(&mut self) -> Vec<Stage> {
        let mut buf = std::mem::take(&mut self.stages);
        buf.clear();
        buf
    }

    /// Returns the rented buffer for reuse.
    pub(crate) fn return_stages(&mut self, buf: Vec<Stage>) {
        self.stages = buf;
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
    fn fresh_sweep_memo_matches_nothing() {
        use crate::chain::{Task, TaskChain};
        let table = ChainTable::default();
        let c = TaskChain::new(vec![Task::new(1, 1, false)]);
        assert!(!table.matches(&c));
    }
}
