//! Wire types of the scheduling service: requests, responses and the
//! scheduling outcome payload.
//!
//! The types are plain data, so the engine can sit behind any transport
//! (an HTTP front-end, a message queue, a test harness); `amp-net` speaks
//! them as canonical JSON. The exact rational period is carried as a canonical `"num/den"` string
//! because [`Ratio`] is an exact `u128` rational with no float round-trip.

use amp_core::{Ratio, Resources, Solution, Stage, Task, TaskChain};

use crate::error::ServiceError;

/// One task of a request chain: weights on each core type plus the
/// stateless (replicable) flag. A compact mirror of [`amp_core::Task`]
/// without the display name, so equal workloads serialize identically.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TaskSpec {
    /// Computation weight on a big core.
    pub weight_big: u64,
    /// Computation weight on a little core.
    pub weight_little: u64,
    /// `true` when the task is stateless and may be replicated.
    pub replicable: bool,
}

impl From<&Task> for TaskSpec {
    fn from(t: &Task) -> Self {
        TaskSpec {
            weight_big: t.weight_big,
            weight_little: t.weight_little,
            replicable: t.replicable,
        }
    }
}

impl From<TaskSpec> for Task {
    fn from(s: TaskSpec) -> Self {
        Task::new(s.weight_big, s.weight_little, s.replicable)
    }
}

/// How the engine should map a request onto the paper's strategies.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Run exactly one named strategy (a Table I display name accepted by
    /// [`amp_core::sched::strategy_by_name`]).
    Strategy(String),
    /// Run the deadline-bounded portfolio: FERTAC immediately, HeRAD on
    /// a racer thread, best result wins.
    Portfolio,
}

/// What a request optimizes. Defaults to [`Objective::Period`] — the
/// base paper's objective — so pre-energy clients (which never send the
/// field) keep their exact semantics and bit-identical responses.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum Objective {
    /// Minimize the pipeline period (the base paper).
    #[default]
    Period,
    /// Minimize steady-state energy subject to the pipeline meeting
    /// `target_period` (the sequel paper). The target is carried as the
    /// canonical exact `"num/den"` string — the same encoding as the
    /// period on the wire — so the objective hashes/compares exactly and
    /// no float ever enters a cache key.
    MinEnergy {
        /// Target operating period as a canonical `"num/den"` string.
        target_period: String,
    },
}

impl Objective {
    /// Builds the energy objective from an exact target period.
    #[must_use]
    pub fn min_energy(target: Ratio) -> Self {
        Objective::MinEnergy {
            target_period: format_period(target),
        }
    }

    /// `true` for the default period objective.
    #[must_use]
    pub fn is_period(&self) -> bool {
        matches!(self, Objective::Period)
    }

    /// The parsed energy target, if this is the energy objective and the
    /// carried string is a well-formed finite nonzero period.
    #[must_use]
    pub fn energy_target(&self) -> Option<Ratio> {
        match self {
            Objective::Period => None,
            Objective::MinEnergy { target_period } => {
                parse_period(target_period).filter(|t| t.is_finite() && !t.is_zero())
            }
        }
    }
}

/// A scheduling request: a task chain, a resource pool, a policy and an
/// optional compute deadline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduleRequest {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: u64,
    /// The task chain, in pipeline order.
    pub tasks: Vec<TaskSpec>,
    /// Number of big cores available.
    pub big_cores: u64,
    /// Number of little cores available.
    pub little_cores: u64,
    /// Strategy selection policy.
    pub policy: Policy,
    /// What to optimize; [`Objective::Period`] unless the client opts in.
    pub objective: Objective,
    /// Optional deadline, in microseconds, for the *compute* phase.
    /// `None` means wait for every portfolio member. Only the portfolio
    /// is deadline-bounded; single strategies always run to completion.
    pub deadline_us: Option<u64>,
}

impl ScheduleRequest {
    /// Builds a request from core-domain values.
    #[must_use]
    pub fn from_chain(id: u64, chain: &TaskChain, resources: Resources, policy: Policy) -> Self {
        ScheduleRequest {
            id,
            tasks: chain.tasks().iter().map(TaskSpec::from).collect(),
            big_cores: resources.big,
            little_cores: resources.little,
            policy,
            objective: Objective::Period,
            deadline_us: None,
        }
    }

    /// Sets the compute deadline (builder style).
    #[must_use]
    pub fn with_deadline_us(mut self, deadline_us: u64) -> Self {
        self.deadline_us = Some(deadline_us);
        self
    }

    /// Sets the objective (builder style).
    #[must_use]
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Reconstructs the core-domain chain.
    #[must_use]
    pub fn chain(&self) -> TaskChain {
        TaskChain::new(self.tasks.iter().map(|&s| Task::from(s)).collect())
    }

    /// The core-domain resource pool.
    #[must_use]
    pub fn resources(&self) -> Resources {
        Resources::new(self.big_cores, self.little_cores)
    }
}

/// Formats a period as the canonical exact string used on the wire:
/// `"num/den"` for finite ratios (already in lowest terms, since [`Ratio`]
/// normalizes on construction) and `"inf"` for the infinite period.
#[must_use]
pub fn format_period(period: Ratio) -> String {
    if period.is_infinite() {
        "inf".to_string()
    } else {
        format!("{}/{}", period.numer(), period.denom())
    }
}

/// Parses the canonical exact period string back into a [`Ratio`]:
/// `"num/den"` (decimal, no signs or spaces) or `"inf"`. Returns `None`
/// for anything else — wire handlers turn that into a typed error rather
/// than guessing.
#[must_use]
pub fn parse_period(s: &str) -> Option<Ratio> {
    if s == "inf" {
        return Some(Ratio::INFINITY);
    }
    let (num, den) = s.split_once('/')?;
    if num.is_empty() || den.is_empty() {
        return None;
    }
    if !num.bytes().all(|b| b.is_ascii_digit()) || !den.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let num: u128 = num.parse().ok()?;
    let den: u128 = den.parse().ok()?;
    if den == 0 {
        return None; // "n/0" is not the canonical infinity spelling
    }
    Some(Ratio::new(num, den))
}

/// A successful scheduling result.
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleOutcome {
    /// Display name of the strategy whose solution won.
    pub strategy: String,
    /// Exact pipeline period as a canonical `"num/den"` string.
    pub period: String,
    /// Period as a float, for quick human consumption (lossy).
    pub period_f64: f64,
    /// Paper-style decomposition string, e.g. `[0-1]B1 [2-4]L3`.
    pub decomposition: String,
    /// The winning stages, verbatim.
    pub stages: Vec<Stage>,
    /// Big cores used by the solution.
    pub used_big: u64,
    /// Little cores used by the solution.
    pub used_little: u64,
    /// `true` when the solution was served from the cache.
    pub cache_hit: bool,
    /// `true` when every portfolio member finished before the deadline
    /// (always `true` for single-strategy requests). Incomplete outcomes
    /// are valid but possibly improvable, and are never cached.
    pub complete: bool,
    /// Steady-state power of the solution at the requested target period,
    /// rounded to whole milliwatts — present exactly when the request's
    /// objective was [`Objective::MinEnergy`]. Integer so the wire stays
    /// float-free.
    pub energy_milliwatts: Option<u64>,
}

impl ScheduleOutcome {
    /// Builds an outcome from a winning solution.
    #[must_use]
    pub fn from_solution(
        strategy: &str,
        solution: &Solution,
        chain: &TaskChain,
        complete: bool,
    ) -> Self {
        let period = solution.period(chain);
        let used = solution.used_cores();
        ScheduleOutcome {
            strategy: strategy.to_string(),
            period: format_period(period),
            period_f64: period.to_f64(),
            decomposition: solution.decomposition(),
            stages: solution.stages().to_vec(),
            used_big: used.big,
            used_little: used.little,
            cache_hit: false,
            complete,
            energy_milliwatts: None,
        }
    }

    /// Attaches the served energy figure (builder style).
    #[must_use]
    pub fn with_energy_milliwatts(mut self, energy_mw: u64) -> Self {
        self.energy_milliwatts = Some(energy_mw);
        self
    }

    /// The stages as a core-domain [`Solution`] (for validation).
    #[must_use]
    pub fn solution(&self) -> Solution {
        Solution::new(self.stages.clone())
    }
}

/// The engine's reply to one [`ScheduleRequest`].
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleResponse {
    /// The request's correlation id, echoed back.
    pub id: u64,
    /// The outcome, or a typed error.
    pub result: Result<ScheduleOutcome, ServiceError>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_core::sched::Scheduler;

    fn chain() -> TaskChain {
        TaskChain::new(vec![
            Task::new(10, 25, false),
            Task::new(40, 90, true),
            Task::new(5, 12, false),
        ])
    }

    #[test]
    fn request_round_trips_chain_and_resources() {
        let c = chain();
        let req = ScheduleRequest::from_chain(7, &c, Resources::new(3, 5), Policy::Portfolio);
        assert_eq!(req.id, 7);
        assert_eq!(req.chain().tasks().len(), 3);
        assert_eq!(req.resources(), Resources::new(3, 5));
        for (spec, task) in req.tasks.iter().zip(c.tasks()) {
            assert_eq!(spec.weight_big, task.weight_big);
            assert_eq!(spec.weight_little, task.weight_little);
            assert_eq!(spec.replicable, task.replicable);
        }
    }

    #[test]
    fn format_period_is_canonical() {
        assert_eq!(format_period(Ratio::new(10, 4)), "5/2");
        assert_eq!(format_period(Ratio::from_int(7)), "7/1");
        assert_eq!(format_period(Ratio::new_raw(1, 0)), "inf");
    }

    #[test]
    fn parse_period_round_trips_canonical_strings() {
        for r in [Ratio::new(5, 2), Ratio::from_int(7), Ratio::new(1, 1000)] {
            assert_eq!(parse_period(&format_period(r)), Some(r));
        }
        assert_eq!(parse_period("inf"), Some(Ratio::INFINITY));
        // Non-canonical but well-formed fractions normalize on parse.
        assert_eq!(parse_period("10/4"), Some(Ratio::new(5, 2)));
    }

    #[test]
    fn parse_period_rejects_malformed_strings() {
        for bad in [
            "", "7", "/", "7/", "/2", "7/0", "0x7/2", "-7/2", "7/-2", "7.5/2", " 7/2", "7/2 ",
            "inf/1", "Inf", "nan",
        ] {
            assert_eq!(parse_period(bad), None, "accepted {bad:?}");
        }
    }

    #[test]
    fn energy_objective_accessors() {
        let per = Objective::Period;
        assert!(per.is_period());
        assert_eq!(per.energy_target(), None);
        let e = Objective::min_energy(Ratio::new(5, 2));
        assert!(!e.is_period());
        assert_eq!(e.energy_target(), Some(Ratio::new(5, 2)));
        // Degenerate targets never surface as usable constraints.
        for bad in ["inf", "0/1", "junk"] {
            let obj = Objective::MinEnergy {
                target_period: bad.to_string(),
            };
            assert_eq!(obj.energy_target(), None, "target {bad:?}");
        }
    }

    #[test]
    fn outcome_reports_resource_usage() {
        let c = chain();
        let sol = amp_core::sched::Fertac
            .schedule(&c, Resources::new(2, 2))
            .expect("feasible");
        let out = ScheduleOutcome::from_solution("FERTAC", &sol, &c, true);
        let used = sol.used_cores();
        assert_eq!(out.used_big, used.big);
        assert_eq!(out.used_little, used.little);
        assert_eq!(out.period, format_period(sol.period(&c)));
        assert!(out.complete);
        assert!(!out.cache_hit);
        assert_eq!(out.solution().stages(), sol.stages());
    }
}
