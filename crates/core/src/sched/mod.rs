//! The scheduling strategies of the paper: the greedy heuristics FERTAC and
//! 2CATAC (Section IV), the optimal dynamic program HeRAD (Section V), the
//! homogeneous baseline OTAC, and an exhaustive oracle for tests.

pub mod batch;
pub mod binary_search;
pub mod brute;
pub mod diff;
pub mod energy;
pub mod fertac;
pub mod herad;
pub mod otac;
pub mod scratch;
pub mod support;
pub mod twocatac;

use crate::chain::TaskChain;
use crate::resources::Resources;
use crate::solution::Solution;

pub use batch::{schedule_chains, schedule_many, schedule_many_with};
pub use binary_search::{schedule_binary_search, schedule_binary_search_into, PeriodBounds};
pub use brute::{all_optimal_solutions, optimal_period, optimal_usage_front, BruteForce};
pub use diff::{schedule_diff, DeltaKind, ScheduleDiff, StageDelta};
pub use energy::{
    candidate_periods, energy_strategies, energy_strategy_by_name, min_period_under_energy_cap,
    pareto_front, EnergyDp, EnergyFertac, EnergyScheduler, EnergyTwocatac, ParetoPoint,
};
pub use fertac::Fertac;
pub use herad::{
    table_cells, ChainTable, ChainTableError, Herad, Pruning, TableFill, MAX_TABLE_CELLS,
};
pub use otac::Otac;
pub use scratch::SchedScratch;
pub use twocatac::Twocatac;

/// A scheduling strategy: maps a task chain and a resource pool to a
/// pipelined/replicated solution (or `None` when no valid mapping exists,
/// e.g. without cores).
///
/// [`Scheduler::schedule_into`] is the hot path: it reuses the caller's
/// [`SchedScratch`] and output [`Solution`], so repeated solves allocate
/// nothing once those have warmed up on the largest shape seen.
/// [`Scheduler::schedule`] is the allocating convenience wrapper. Both
/// return bit-identical solutions — the conformance suite pins that.
///
/// `Send + Sync` is a supertrait so strategies (all stateless values) can
/// be shared across the [`schedule_many`] worker pool as trait objects.
pub trait Scheduler: Send + Sync {
    /// Display name, matching the paper's tables (`HeRAD`, `2CATAC`, ...).
    fn name(&self) -> &'static str;

    /// Computes a schedule for `chain` on `resources` into `out`,
    /// reusing `scratch`'s buffers. Returns `false` — leaving `out`
    /// empty — when no valid mapping exists.
    fn schedule_into(
        &self,
        chain: &TaskChain,
        resources: Resources,
        scratch: &mut SchedScratch,
        out: &mut Solution,
    ) -> bool;

    /// Computes a schedule for `chain` on `resources`, allocating fresh
    /// scratch and output (the legacy signature).
    fn schedule(&self, chain: &TaskChain, resources: Resources) -> Option<Solution> {
        let mut scratch = SchedScratch::new();
        let mut out = Solution::empty();
        self.schedule_into(chain, resources, &mut scratch, &mut out)
            .then_some(out)
    }
}

/// The paper's five evaluated strategies, in Table I order, as trait
/// objects for sweeps.
#[must_use]
pub fn paper_strategies() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(Herad::new()),
        Box::new(Twocatac::new()),
        Box::new(Fertac),
        Box::new(Otac::big()),
        Box::new(Otac::little()),
    ]
}

/// Looks up a strategy by its Table I display name (the exact string the
/// strategy's [`Scheduler::name`] returns): `"HeRAD"`, `"2CATAC"`,
/// `"FERTAC"`, `"OTAC (B)"` or `"OTAC (L)"`. Returns `None` for anything
/// else so callers (CLIs, services) can surface a typed "unknown strategy"
/// error instead of panicking.
#[must_use]
pub fn strategy_by_name(name: &str) -> Option<Box<dyn Scheduler>> {
    match name {
        "HeRAD" => Some(Box::new(Herad::new())),
        "2CATAC" => Some(Box::new(Twocatac::new())),
        "FERTAC" => Some(Box::new(Fertac)),
        "OTAC (B)" => Some(Box::new(Otac::big())),
        "OTAC (L)" => Some(Box::new(Otac::little())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Task;

    #[test]
    fn paper_strategies_have_table_names() {
        let names: Vec<&str> = paper_strategies().iter().map(|s| s.name()).collect();
        assert_eq!(names, ["HeRAD", "2CATAC", "FERTAC", "OTAC (B)", "OTAC (L)"]);
    }

    #[test]
    fn strategy_by_name_round_trips_paper_strategies() {
        for s in paper_strategies() {
            let looked_up = strategy_by_name(s.name())
                .unwrap_or_else(|| panic!("{} must be resolvable by name", s.name()));
            assert_eq!(looked_up.name(), s.name());
        }
    }

    #[test]
    fn strategy_by_name_resolves_equivalent_schedulers() {
        // The looked-up instance must behave like the canonical one, not
        // just share its label.
        let chain = TaskChain::new(vec![
            Task::new(10, 25, false),
            Task::new(40, 90, true),
            Task::new(5, 12, false),
        ]);
        let res = Resources::new(2, 2);
        for s in paper_strategies() {
            let by_name = strategy_by_name(s.name()).unwrap();
            let a = s.schedule(&chain, res);
            let b = by_name.schedule(&chain, res);
            match (a, b) {
                (Some(a), Some(b)) => assert_eq!(a.period(&chain), b.period(&chain)),
                (a, b) => assert_eq!(a.is_none(), b.is_none()),
            }
        }
    }

    #[test]
    fn strategy_by_name_rejects_unknown_and_near_misses() {
        for bad in ["herad", "OTAC", "OTAC(B)", "2catac", "", "BruteForce"] {
            assert!(strategy_by_name(bad).is_none(), "{bad:?} must not resolve");
        }
    }
}
