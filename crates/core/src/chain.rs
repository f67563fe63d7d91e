//! Task chains: the workload model of Section III of the paper.
//!
//! A [`TaskChain`] is a linear sequence of tasks, each with one latency per
//! core type and a replicability flag. The chain precomputes prefix sums of
//! the weights and a "next sequential task" index so that interval weights
//! and replicability queries (`IsRep`, `FinalRepTask` in Algorithm 3) are
//! O(1).

use crate::ratio::Ratio;
use crate::resources::CoreType;

/// One task of a chain: its latency on each core type and whether it may be
/// replicated (stateless) or not (stateful).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Task {
    /// Human-readable name (task ids in synthetic chains, block names in the
    /// DVB-S2 chain).
    pub name: String,
    /// Computation weight (latency) on a big core, in abstract time units.
    pub weight_big: u64,
    /// Computation weight (latency) on a little core.
    pub weight_little: u64,
    /// `true` for stateless (replicable) tasks, `false` for stateful
    /// (sequential) ones.
    pub replicable: bool,
}

impl Task {
    /// Convenience constructor with an auto-generated name.
    #[must_use]
    pub fn new(weight_big: u64, weight_little: u64, replicable: bool) -> Self {
        Task {
            name: String::new(),
            weight_big,
            weight_little,
            replicable,
        }
    }

    /// Weight of the task on the given core type.
    #[must_use]
    pub fn weight(&self, v: CoreType) -> u64 {
        match v {
            CoreType::Big => self.weight_big,
            CoreType::Little => self.weight_little,
        }
    }
}

/// A partially-replicable task chain with O(1) interval queries.
///
/// All interval arguments are 0-based and inclusive: `[start, end]` denotes
/// tasks `τ_{start+1} .. τ_{end+1}` in the paper's 1-based notation.
#[derive(Clone, Debug)]
pub struct TaskChain {
    tasks: Vec<Task>,
    /// `prefix_big[i]` = sum of big-core weights of tasks `0..i`.
    prefix_big: Vec<u64>,
    /// `prefix_little[i]` = sum of little-core weights of tasks `0..i`.
    prefix_little: Vec<u64>,
    /// `next_seq[i]` = smallest index `>= i` of a sequential task, or `n`.
    next_seq: Vec<usize>,
}

impl TaskChain {
    /// Builds a chain from its tasks.
    ///
    /// # Panics
    /// Panics if `tasks` is empty or any task has a zero weight (Eq. (1)
    /// assumes positive latencies; zero-weight tasks would make tie-breaking
    /// on replication counts ill-defined), and if either core type's weight
    /// total exceeds `u64::MAX` (the prefix sums must be exact), in release
    /// builds as in debug ones.
    #[must_use]
    pub fn new(tasks: Vec<Task>) -> Self {
        assert!(!tasks.is_empty(), "a task chain needs at least one task");
        let n = tasks.len();
        let mut prefix_big = Vec::with_capacity(n + 1);
        let mut prefix_little = Vec::with_capacity(n + 1);
        prefix_big.push(0);
        prefix_little.push(0);
        for t in &tasks {
            assert!(
                t.weight_big > 0 && t.weight_little > 0,
                "task weights must be positive"
            );
            let sum = |prefix: &[u64], w: u64| {
                prefix[prefix.len() - 1]
                    .checked_add(w)
                    .expect("task weight total overflows u64")
            };
            prefix_big.push(sum(&prefix_big, t.weight_big));
            prefix_little.push(sum(&prefix_little, t.weight_little));
        }
        let mut next_seq = vec![n; n + 1];
        for i in (0..n).rev() {
            next_seq[i] = if tasks[i].replicable {
                next_seq[i + 1]
            } else {
                i
            };
        }
        TaskChain {
            tasks,
            prefix_big,
            prefix_little,
            next_seq,
        }
    }

    /// Number of tasks `n`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Always `false`: chains are non-empty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The tasks, in chain order.
    #[must_use]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The `i`-th task (0-based).
    #[must_use]
    pub fn task(&self, i: usize) -> &Task {
        &self.tasks[i]
    }

    /// Sum of weights of tasks `[start, end]` (inclusive) on core type `v`.
    #[must_use]
    pub fn interval_sum(&self, start: usize, end: usize, v: CoreType) -> u64 {
        debug_assert!(start <= end && end < self.len());
        match v {
            CoreType::Big => self.prefix_big[end + 1] - self.prefix_big[start],
            CoreType::Little => self.prefix_little[end + 1] - self.prefix_little[start],
        }
    }

    /// Sum of weights of the whole chain on core type `v`.
    #[must_use]
    pub fn total(&self, v: CoreType) -> u64 {
        self.interval_sum(0, self.len() - 1, v)
    }

    /// `IsRep` (Algorithm 3): whether the interval `[start, end]` contains
    /// only replicable tasks.
    #[must_use]
    pub fn is_replicable(&self, start: usize, end: usize) -> bool {
        debug_assert!(start <= end && end < self.len());
        self.next_seq[start] > end
    }

    /// `FinalRepTask` (Algorithm 3): the largest `e >= end` such that
    /// `[start, e]` is replicable. Requires `[start, end]` replicable.
    #[must_use]
    pub fn final_replicable_task(&self, start: usize, end: usize) -> usize {
        debug_assert!(self.is_replicable(start, end));
        self.next_seq[start].min(self.len()) - 1
    }

    /// Stage weight `w(s, r, v)` from Eq. (1): infinite with zero cores, the
    /// plain weight sum if the interval contains a sequential task (extra
    /// cores are useless), `sum / r` otherwise.
    #[must_use]
    pub fn stage_weight(&self, start: usize, end: usize, r: u64, v: CoreType) -> Ratio {
        if r == 0 {
            return Ratio::INFINITY;
        }
        let sum = self.interval_sum(start, end, v);
        if self.is_replicable(start, end) {
            Ratio::new(u128::from(sum), u128::from(r))
        } else {
            Ratio::from_int(sum)
        }
    }

    /// `stage_weight(start, end, r, v) <= target`, decided from the prefix
    /// sums by one cross-multiplication, with no gcd and no weight built:
    /// the greedy strategies ask it on every probe of their binary search.
    /// For a target `p/q`, `sum/cores ≤ p/q ⟺ sum·q ≤ p·cores`, and
    /// infinity (`1/0`) admits every weight with no branch of its own.
    #[inline]
    pub(crate) fn stage_weight_le(
        &self,
        start: usize,
        end: usize,
        r: u64,
        v: CoreType,
        target: Ratio,
    ) -> bool {
        if r == 0 {
            return target.is_infinite();
        }
        let cores = if self.is_replicable(start, end) { r } else { 1 };
        u128::from(self.interval_sum(start, end, v)) * target.denom()
            <= target.numer() * u128::from(cores)
    }

    /// Largest weight of any single task on core type `v`.
    #[must_use]
    pub fn max_task_weight(&self, v: CoreType) -> u64 {
        self.tasks.iter().map(|t| t.weight(v)).max().unwrap()
    }

    /// Largest weight of any *sequential* task on `v`, or 0 when every task
    /// is replicable.
    #[must_use]
    pub fn max_sequential_weight(&self, v: CoreType) -> u64 {
        self.tasks
            .iter()
            .filter(|t| !t.replicable)
            .map(|t| t.weight(v))
            .max()
            .unwrap_or(0)
    }

    /// Number of replicable tasks.
    #[must_use]
    pub fn replicable_count(&self) -> usize {
        self.tasks.iter().filter(|t| t.replicable).count()
    }

    /// Fraction of replicable tasks (the paper's *stateless ratio*, SR).
    #[must_use]
    pub fn stateless_ratio(&self) -> f64 {
        self.replicable_count() as f64 / self.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> TaskChain {
        // weights (big, little), R = replicable, S = sequential
        // idx:   0        1        2        3        4
        //        S(4,8)   R(2,6)   R(3,9)   S(5,10)  R(1,2)
        TaskChain::new(vec![
            Task::new(4, 8, false),
            Task::new(2, 6, true),
            Task::new(3, 9, true),
            Task::new(5, 10, false),
            Task::new(1, 2, true),
        ])
    }

    #[test]
    fn interval_sums_match_naive() {
        let c = chain();
        for s in 0..c.len() {
            for e in s..c.len() {
                let naive_b: u64 = (s..=e).map(|i| c.task(i).weight_big).sum();
                let naive_l: u64 = (s..=e).map(|i| c.task(i).weight_little).sum();
                assert_eq!(c.interval_sum(s, e, CoreType::Big), naive_b);
                assert_eq!(c.interval_sum(s, e, CoreType::Little), naive_l);
            }
        }
    }

    #[test]
    fn replicability_queries() {
        let c = chain();
        assert!(!c.is_replicable(0, 0));
        assert!(c.is_replicable(1, 2));
        assert!(!c.is_replicable(1, 3));
        assert!(c.is_replicable(4, 4));
        assert_eq!(c.final_replicable_task(1, 1), 2);
        assert_eq!(c.final_replicable_task(4, 4), 4);
    }

    #[test]
    fn stage_weight_follows_eq1() {
        let c = chain();
        // replicable interval [1,2]: (2+3)/r on big
        assert_eq!(c.stage_weight(1, 2, 1, CoreType::Big), Ratio::from_int(5));
        assert_eq!(c.stage_weight(1, 2, 2, CoreType::Big), Ratio::new(5, 2));
        // sequential interval [0,2]: sum regardless of r
        assert_eq!(c.stage_weight(0, 2, 3, CoreType::Big), Ratio::from_int(9));
        // zero cores
        assert!(c.stage_weight(0, 0, 0, CoreType::Big).is_infinite());
        // little-core weights
        assert_eq!(c.stage_weight(1, 2, 3, CoreType::Little), Ratio::new(15, 3));
    }

    #[test]
    fn extrema() {
        let c = chain();
        assert_eq!(c.max_task_weight(CoreType::Big), 5);
        assert_eq!(c.max_task_weight(CoreType::Little), 10);
        assert_eq!(c.max_sequential_weight(CoreType::Big), 5);
        assert_eq!(c.replicable_count(), 3);
        assert!((c.stateless_ratio() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn all_replicable_has_no_sequential_max() {
        let c = TaskChain::new(vec![Task::new(1, 2, true), Task::new(3, 4, true)]);
        assert_eq!(c.max_sequential_weight(CoreType::Big), 0);
        assert!(c.is_replicable(0, 1));
        assert_eq!(c.final_replicable_task(0, 0), 1);
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn empty_chain_panics() {
        let _ = TaskChain::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_weight_panics() {
        let _ = TaskChain::new(vec![Task::new(0, 1, true)]);
    }

    #[test]
    #[should_panic(expected = "overflows u64")]
    fn overflowing_weight_total_panics_in_every_build() {
        let _ = TaskChain::new(vec![Task::new(1, u64::MAX, true), Task::new(1, 1, true)]);
    }
}
