//! Energy-aware scheduling — the sequel paper's objective
//! ("Energy-Aware Scheduling Strategies for Partially-Replicable Task
//! Chains on Heterogeneous Processors", arxiv 2502.10000).
//!
//! The base paper minimizes the period and uses little-core counts as a
//! power proxy; here energy is first-class. Every routine in this module
//! answers the **min-energy-under-a-throughput-constraint** question:
//! given a target operating period `T`, find the feasible interval
//! decomposition + core assignment minimizing the steady-state power
//! drawn when the pipeline is operated at `T` (frames admitted every `T`
//! units). Power is scored with the integer-milliwatt model
//! [`MilliPower`], so all comparisons are exact rationals — no float
//! ties.
//!
//! ## Why the DP reuses HeRAD's cell lattice
//!
//! At a fixed operating period `T`, the energy of a stage over tasks
//! `[i, j]` on `r` cores of type `v` is
//!
//! ```text
//! r·m_v·idle + m_v·(1 − idle)·w(i,j,r,v)/T
//! ```
//!
//! The busy term depends only on the stage's total work (for a replicable
//! stage `r·w = Σ w_τ` exactly), and the idle term grows with `r` — so
//! the **minimal** feasible core count (`RequiredCores`, the same
//! primitive HeRAD's cells use) is always energy-optimal for a fixed
//! interval, and total energy is a *sum of independent per-stage terms*.
//! That makes the objective separable over exactly the `(tasks-covered,
//! big-used, little-used)` lattice HeRAD's DP already sweeps: only the
//! cell *value* changes from a period to an energy. [`EnergyDp`] is that
//! DP and is provably optimal; the brute-force oracle in
//! `amp-conformance` pins it.
//!
//! ## The Pareto front
//!
//! [`pareto_front`] emits the nondominated period×energy set. The
//! operating periods worth quoting are the *achievable* ones — between
//! two consecutive achievable stage weights the optimal structure cannot
//! change — so the front driver enumerates [`candidate_periods`] (every
//! `w(i,j,r,v)` in range), solves the energy DP at each, and keeps the
//! strict improvements. Minimal energy is monotone non-increasing in the
//! period bound (any solution feasible at `T` is feasible and cheaper at
//! `T' > T`), which yields a front sorted by period with strictly
//! decreasing energy — and powers [`min_period_under_energy_cap`], a
//! binary search over the candidate periods for the fastest operating
//! point within an energy budget.

use crate::chain::TaskChain;
use crate::power::{ratio_add, MilliPower, PowerModel};
use crate::ratio::Ratio;
use crate::resources::{CoreType, Resources};
use crate::sched::binary_search::PeriodBounds;
use crate::sched::scratch::{walk_winners, ChoiceMemo, SchedScratch};
use crate::sched::support::{compute_stage, required_cores, stage_fits};
use crate::sched::{Herad, Scheduler};
use crate::solution::{Solution, Stage};

/// An energy-aware strategy: maps a chain, a pool, a power model and a
/// target operating period to the schedule it deems cheapest that still
/// meets the period. Returns the exact energy (milliwatts, as a
/// [`Ratio`]) on success, `None` when the strategy finds no feasible
/// schedule at `target`.
///
/// Mirrors [`crate::sched::Scheduler`] but carries the two extra inputs
/// (model + target) that make energy a different objective, not a
/// different tie-break.
pub trait EnergyScheduler: Send + Sync {
    /// Display name (`EnergyDP`, `EnergyFERTAC`, `Energy2CATAC`).
    fn name(&self) -> &'static str;

    /// Schedules `chain` on `resources` minimizing steady-state power at
    /// operating period `target`, writing the schedule into `out`.
    /// Returns the exact energy in milliwatts, or `None` (leaving `out`
    /// empty) when the strategy cannot meet `target`.
    fn schedule_energy_into(
        &self,
        chain: &TaskChain,
        resources: Resources,
        power: &MilliPower,
        target: Ratio,
        scratch: &mut SchedScratch,
        out: &mut Solution,
    ) -> Option<Ratio>;

    /// Allocating convenience wrapper around
    /// [`Self::schedule_energy_into`].
    fn schedule_energy(
        &self,
        chain: &TaskChain,
        resources: Resources,
        power: &MilliPower,
        target: Ratio,
    ) -> Option<(Solution, Ratio)> {
        let mut scratch = SchedScratch::new();
        let mut out = Solution::empty();
        let energy =
            self.schedule_energy_into(chain, resources, power, target, &mut scratch, &mut out)?;
        Some((out, energy))
    }
}

/// Exact energy (milliwatts) of the stage `[start, end]` on `r` cores of
/// type `v` at operating period `target`.
fn stage_energy(
    chain: &TaskChain,
    power: &MilliPower,
    start: usize,
    end: usize,
    r: u64,
    v: CoreType,
    target: Ratio,
) -> Ratio {
    power.stage_power_mw(chain, &Stage::new(start, end, r, v), target)
}

/// Minimal feasible core count for the stage `[start, end]` on type `v`
/// at `target`, or `None` when no count works (a sequential interval
/// heavier than the target, or more cores needed than `avail`). Minimal
/// is energy-optimal: the idle term is the only `r`-dependent part and it
/// only grows.
fn minimal_cores(
    chain: &TaskChain,
    start: usize,
    end: usize,
    v: CoreType,
    target: Ratio,
    avail: u64,
) -> Option<u64> {
    if avail == 0 {
        return None;
    }
    let r = if chain.stage_weight_le(start, end, 1, v, target) {
        1
    } else if chain.is_replicable(start, end) {
        required_cores(chain, start, end, v, target)
    } else {
        return None; // sequential interval above target: replication can't help
    };
    (r <= avail && chain.stage_weight_le(start, end, r, v, target)).then_some(r)
}

/// One DP cell: minimal energy to cover a task prefix within a core
/// budget, plus the back-pointer of the last stage achieving it.
#[derive(Clone, Copy)]
struct Cell {
    energy: Ratio,
    prev_start: u32,
    cores: u64,
    core_type: CoreType,
}

const UNSOLVED: Cell = Cell {
    energy: Ratio::INFINITY,
    prev_start: 0,
    cores: 0,
    core_type: CoreType::Big,
};

/// The optimal min-energy-under-throughput DP over HeRAD's
/// `(tasks-covered, big-budget, little-budget)` cell lattice (see the
/// module docs for why the lattice transfers). `E[j][b][l]` is the
/// minimal energy covering the first `j` tasks with at most `b` big and
/// `l` little cores; transitions enumerate the last stage's start and
/// core type with the minimal feasible core count. Ties break toward
/// little cores (the sequel's exchange preference), then toward the
/// longer last stage — deterministically.
#[derive(Debug, Default, Clone, Copy)]
pub struct EnergyDp;

impl EnergyDp {
    /// Creates the solver.
    #[must_use]
    pub fn new() -> Self {
        EnergyDp
    }
}

impl EnergyScheduler for EnergyDp {
    fn name(&self) -> &'static str {
        "EnergyDP"
    }

    fn schedule_energy_into(
        &self,
        chain: &TaskChain,
        resources: Resources,
        power: &MilliPower,
        target: Ratio,
        _scratch: &mut SchedScratch,
        out: &mut Solution,
    ) -> Option<Ratio> {
        out.stages_mut().clear();
        if !target.is_finite() || target.is_zero() || chain.is_empty() {
            return None;
        }
        let n = chain.len();
        let nb = usize::try_from(resources.of(CoreType::Big)).ok()? + 1;
        let nl = usize::try_from(resources.of(CoreType::Little)).ok()? + 1;
        let idx = |j: usize, b: usize, l: usize| (j * nb + b) * nl + l;
        let mut cells = vec![UNSOLVED; (n + 1) * nb * nl];
        for b in 0..nb {
            for l in 0..nl {
                cells[idx(0, b, l)].energy = Ratio::ZERO;
            }
        }
        for j in 1..=n {
            for b in 0..nb {
                for l in 0..nl {
                    let mut best = UNSOLVED;
                    // Little first, then longer stages first: equal-energy
                    // candidates resolve toward little cores, then toward
                    // fewer stages.
                    for v in [CoreType::Little, CoreType::Big] {
                        let budget = if v == CoreType::Big { b } else { l } as u64;
                        for i in 0..j {
                            let Some(r) = minimal_cores(chain, i, j - 1, v, target, budget) else {
                                continue;
                            };
                            let (pb, pl) = match v {
                                CoreType::Big => (b - r as usize, l),
                                CoreType::Little => (b, l - r as usize),
                            };
                            let prev = cells[idx(i, pb, pl)].energy;
                            if prev.is_infinite() {
                                continue;
                            }
                            let e =
                                ratio_add(prev, stage_energy(chain, power, i, j - 1, r, v, target));
                            if e < best.energy {
                                best = Cell {
                                    energy: e,
                                    prev_start: i as u32,
                                    cores: r,
                                    core_type: v,
                                };
                            }
                        }
                    }
                    cells[idx(j, b, l)] = best;
                }
            }
        }
        let total = cells[idx(n, nb - 1, nl - 1)].energy;
        if total.is_infinite() {
            return None;
        }
        // Extraction: walk the back-pointers from the full budget.
        let (mut j, mut b, mut l) = (n, nb - 1, nl - 1);
        while j > 0 {
            let cell = cells[idx(j, b, l)];
            out.prepend(Stage::new(
                cell.prev_start as usize,
                j - 1,
                cell.cores,
                cell.core_type,
            ));
            match cell.core_type {
                CoreType::Big => b -= cell.cores as usize,
                CoreType::Little => l -= cell.cores as usize,
            }
            j = cell.prev_start as usize;
        }
        Some(total)
    }
}

/// Energy-greedy FERTAC: one left-to-right pass, choosing at each stage
/// start the core type whose `ComputeStage` stage has the lower energy
/// *density* (energy per task covered; little wins ties), followed by a
/// big→little exchange pass that re-types any big stage whose interval
/// also fits on the remaining little cores for less energy. Fast and
/// feasibility-safe, not optimal.
#[derive(Debug, Default, Clone, Copy)]
pub struct EnergyFertac;

impl EnergyScheduler for EnergyFertac {
    fn name(&self) -> &'static str {
        "EnergyFERTAC"
    }

    fn schedule_energy_into(
        &self,
        chain: &TaskChain,
        resources: Resources,
        power: &MilliPower,
        target: Ratio,
        _scratch: &mut SchedScratch,
        out: &mut Solution,
    ) -> Option<Ratio> {
        out.stages_mut().clear();
        if !target.is_finite() || target.is_zero() || chain.is_empty() {
            return None;
        }
        let n = chain.len();
        let mut left = resources;
        let mut start = 0;
        while start < n {
            let mut picked: Option<(usize, u64, CoreType, Ratio)> = None;
            for v in [CoreType::Little, CoreType::Big] {
                let c = left.of(v);
                if c == 0 {
                    continue;
                }
                let (end, used) = compute_stage(chain, start, c, v, target);
                if !stage_fits(chain, start, end, used, c, v, target) {
                    continue;
                }
                let e = stage_energy(chain, power, start, end, used, v, target);
                // Energy per task covered; strictly-less keeps little on ties.
                let density = Ratio::new(e.numer(), e.denom() * ((end - start + 1) as u128));
                if picked.as_ref().is_none_or(|&(_, _, _, pd)| density < pd) {
                    picked = Some((end, used, v, density));
                }
            }
            let (end, used, v, _) = picked?;
            out.stages_mut().push(Stage::new(start, end, used, v));
            left = left.minus(v, used);
            start = end + 1;
        }
        // Exchange pass: re-type big stages onto spare little cores when
        // that strictly lowers energy (the sequel's little-preference).
        for k in 0..out.stages().len() {
            let s = out.stages()[k];
            if s.core_type != CoreType::Big {
                continue;
            }
            let Some(r) = minimal_cores(
                chain,
                s.start,
                s.end,
                CoreType::Little,
                target,
                left.of(CoreType::Little),
            ) else {
                continue;
            };
            let old = stage_energy(chain, power, s.start, s.end, s.cores, CoreType::Big, target);
            let new = stage_energy(chain, power, s.start, s.end, r, CoreType::Little, target);
            if new < old {
                left = left.minus(CoreType::Little, r);
                left = Resources::new(left.of(CoreType::Big) + s.cores, left.of(CoreType::Little));
                out.stages_mut()[k] = Stage::new(s.start, s.end, r, CoreType::Little);
            }
        }
        Some(power.solution_power_mw(chain, out, target))
    }
}

/// Energy-greedy 2CATAC: 2CATAC's two choices (both core types tried at
/// every stage start) with the winner chosen by total energy instead of
/// core count, little winning ties. Like [`crate::sched::Twocatac`], it
/// memoizes each suffix by `(start, big left, little left)`, so it
/// visits at most `n·(B+1)·(L+1)` states for one target.
#[derive(Debug, Default, Clone, Copy)]
pub struct EnergyTwocatac;

impl EnergyTwocatac {
    /// Creates the solver.
    #[must_use]
    pub fn new() -> Self {
        EnergyTwocatac
    }
}

impl EnergyScheduler for EnergyTwocatac {
    fn name(&self) -> &'static str {
        "Energy2CATAC"
    }

    fn schedule_energy_into(
        &self,
        chain: &TaskChain,
        resources: Resources,
        power: &MilliPower,
        target: Ratio,
        scratch: &mut SchedScratch,
        out: &mut Solution,
    ) -> Option<Ratio> {
        out.stages_mut().clear();
        if !target.is_finite() || target.is_zero() || chain.is_empty() {
            return None;
        }
        let memo = &mut scratch.energy_memo;
        memo.clear();
        let (_, energy) = cheapest_suffix(chain, power, target, 0, resources, memo)?;
        walk_winners(memo, chain.len(), resources, out.stages_mut());
        Some(energy)
    }
}

/// The cheapest two-choice suffix from `start` on `left` cores at
/// `target`: its first stage and exact energy, or `None` when neither
/// core type leads to a feasible suffix. Little is tried first and kept
/// unless big's total is strictly lower — the order in which a
/// depth-first search over both choices meets its first minimum.
fn cheapest_suffix(
    chain: &TaskChain,
    power: &MilliPower,
    target: Ratio,
    start: usize,
    left: Resources,
    memo: &mut ChoiceMemo<Ratio>,
) -> Option<(Stage, Ratio)> {
    if let Some(&known) = memo.get(&(start, left)) {
        return known;
    }
    let mut best: Option<(Stage, Ratio)> = None;
    for v in [CoreType::Little, CoreType::Big] {
        let c = left.of(v);
        let (end, used) = compute_stage(chain, start, c, v, target);
        if !stage_fits(chain, start, end, used, c, v, target) {
            continue;
        }
        let own = stage_energy(chain, power, start, end, used, v, target);
        let total = if end + 1 == chain.len() {
            own
        } else {
            match cheapest_suffix(chain, power, target, end + 1, left.minus(v, used), memo) {
                Some((_, rest)) => ratio_add(own, rest),
                None => continue,
            }
        };
        if best.is_none_or(|(_, incumbent)| total < incumbent) {
            best = Some((Stage::new(start, end, used, v), total));
        }
    }
    memo.insert((start, left), best);
    best
}

/// The three energy-aware strategies, optimal first.
#[must_use]
pub fn energy_strategies() -> Vec<Box<dyn EnergyScheduler>> {
    vec![
        Box::new(EnergyDp::new()),
        Box::new(EnergyTwocatac::new()),
        Box::new(EnergyFertac),
    ]
}

/// Looks up an energy strategy by display name (`"EnergyDP"`,
/// `"Energy2CATAC"`, `"EnergyFERTAC"`); `None` for anything else so
/// services surface a typed error.
#[must_use]
pub fn energy_strategy_by_name(name: &str) -> Option<Box<dyn EnergyScheduler>> {
    match name {
        "EnergyDP" => Some(Box::new(EnergyDp::new())),
        "Energy2CATAC" => Some(Box::new(EnergyTwocatac::new())),
        "EnergyFERTAC" => Some(Box::new(EnergyFertac)),
        _ => None,
    }
}

/// One nondominated operating point: run `solution` with one frame
/// admitted every `period` units, drawing exactly `energy_mw` milliwatts
/// (the minimum achievable at that period).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParetoPoint {
    /// Operating period (the throughput constraint this point satisfies).
    pub period: Ratio,
    /// Exact minimal steady-state power at `period`, in milliwatts.
    pub energy_mw: Ratio,
    /// A schedule achieving it (its own period is `<= period`).
    pub solution: Solution,
}

/// Every period at which the optimal structure can change: the achievable
/// stage weights `w(i, j, r, v)` within `[lo, hi]`, sorted ascending and
/// deduplicated. Any solution's period is the max of its stage weights,
/// so between consecutive values the constrained optimum is constant.
#[must_use]
pub fn candidate_periods(chain: &TaskChain, pool: Resources, lo: Ratio, hi: Ratio) -> Vec<Ratio> {
    let n = chain.len();
    let mut out = Vec::new();
    for i in 0..n {
        for j in i..n {
            for v in CoreType::BOTH {
                let avail = pool.of(v);
                if avail == 0 {
                    continue;
                }
                let max_r = if chain.is_replicable(i, j) { avail } else { 1 };
                for r in 1..=max_r {
                    let w = chain.stage_weight(i, j, r, v);
                    if w >= lo && w <= hi {
                        out.push(w);
                    }
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// The nondominated period×energy set for `chain` on `pool` under
/// `model`, sorted by ascending period with strictly decreasing energy.
///
/// The first point operates at HeRAD's optimal period (min-period
/// endpoint); the last is the global min-energy operating point within
/// the greedy-reachable period range ([`PeriodBounds::compute`]'s upper
/// bound — beyond it, slowing down further only adds idle draw for the
/// same structure). Candidates with no strict energy improvement over a
/// faster point are dominated and dropped.
#[must_use]
pub fn pareto_front(chain: &TaskChain, pool: Resources, model: &PowerModel) -> Vec<ParetoPoint> {
    let power = model.to_milli();
    let Some(bounds) = PeriodBounds::compute(chain, pool) else {
        return Vec::new();
    };
    let Some(opt) = Herad::new().schedule(chain, pool) else {
        return Vec::new();
    };
    let t_opt = opt.period(chain);
    let dp = EnergyDp::new();
    let mut scratch = SchedScratch::new();
    let mut front = Vec::new();
    for t in candidate_periods(chain, pool, t_opt, bounds.upper.max(t_opt)) {
        let mut sol = Solution::empty();
        let Some(e) = dp.schedule_energy_into(chain, pool, &power, t, &mut scratch, &mut sol)
        else {
            continue;
        };
        let dominated = front.last().is_some_and(|p: &ParetoPoint| p.energy_mw <= e);
        if !dominated {
            front.push(ParetoPoint {
                period: t,
                energy_mw: e,
                solution: sol,
            });
        }
    }
    front
}

/// The fastest operating point whose minimal energy fits `cap_mw`
/// milliwatts: a binary search over [`candidate_periods`] — valid
/// because minimal energy is monotone non-increasing in the period —
/// returning `(period, energy, solution)` or `None` when even the
/// slowest candidate exceeds the cap.
#[must_use]
pub fn min_period_under_energy_cap(
    chain: &TaskChain,
    pool: Resources,
    model: &PowerModel,
    cap_mw: Ratio,
) -> Option<(Ratio, Ratio, Solution)> {
    let power = model.to_milli();
    let bounds = PeriodBounds::compute(chain, pool)?;
    let t_opt = Herad::new().schedule(chain, pool)?.period(chain);
    let cands = candidate_periods(chain, pool, t_opt, bounds.upper.max(t_opt));
    let dp = EnergyDp::new();
    let mut scratch = SchedScratch::new();
    let mut solve = |t: Ratio| {
        let mut sol = Solution::empty();
        dp.schedule_energy_into(chain, pool, &power, t, &mut scratch, &mut sol)
            .map(|e| (e, sol))
    };
    // Invariant: all candidates below `lo` are over the cap; the answer,
    // if any, is at or above `lo` and at or below `hi`.
    let (mut lo, mut hi) = (0usize, cands.len().checked_sub(1)?);
    let (e_hi, _) = solve(cands[hi])?;
    if e_hi > cap_mw {
        return None;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match solve(cands[mid]) {
            Some((e, _)) if e <= cap_mw => hi = mid,
            _ => lo = mid + 1,
        }
    }
    let t = cands[lo];
    let (e, sol) = solve(t)?;
    Some((t, e, sol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Task;
    use crate::sched::twocatac::tests::paper_chain;
    use crate::solution::period_of;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::sync::mpsc;
    use std::time::Duration;

    fn chain() -> TaskChain {
        TaskChain::new(vec![
            Task::new(10, 25, false),
            Task::new(40, 90, true),
            Task::new(5, 12, false),
        ])
    }

    fn check_feasible(c: &TaskChain, pool: Resources, sol: &Solution, target: Ratio) {
        assert!(sol.validate(c).is_ok(), "invalid: {}", sol.decomposition());
        assert!(sol.is_valid(c, pool, target), "violates budget/target");
        assert!(period_of(c, sol.stages()) <= target);
    }

    #[test]
    fn dp_meets_target_and_is_cheapest_of_the_three() {
        let c = chain();
        let pool = Resources::new(2, 2);
        let power = MilliPower::typical();
        let t_opt = Herad::new().schedule(&c, pool).unwrap().period(&c);
        for t in [t_opt, Ratio::new(t_opt.numer() * 2, t_opt.denom())] {
            let (dp_sol, dp_e) = EnergyDp::new()
                .schedule_energy(&c, pool, &power, t)
                .unwrap();
            check_feasible(&c, pool, &dp_sol, t);
            assert_eq!(power.solution_power_mw(&c, &dp_sol, t), dp_e);
            for s in energy_strategies() {
                if let Some((sol, e)) = s.schedule_energy(&c, pool, &power, t) {
                    check_feasible(&c, pool, &sol, t);
                    assert!(dp_e <= e, "{} beat the DP", s.name());
                }
            }
        }
    }

    #[test]
    fn infeasible_target_returns_none() {
        let c = chain();
        let pool = Resources::new(1, 0);
        let power = MilliPower::typical();
        // Even the single sequential task 0 weighs 10 on big — target 1
        // is unreachable.
        for s in energy_strategies() {
            assert!(
                s.schedule_energy(&c, pool, &power, Ratio::from_int(1))
                    .is_none(),
                "{} invented a schedule",
                s.name()
            );
        }
    }

    #[test]
    fn degenerate_targets_return_none() {
        let c = chain();
        let pool = Resources::new(2, 2);
        let power = MilliPower::typical();
        for s in energy_strategies() {
            assert!(s.schedule_energy(&c, pool, &power, Ratio::ZERO).is_none());
            assert!(s
                .schedule_energy(&c, pool, &power, Ratio::INFINITY)
                .is_none());
        }
    }

    #[test]
    fn relaxing_the_target_never_costs_energy() {
        let c = chain();
        let pool = Resources::new(2, 2);
        let power = MilliPower::typical();
        let t_opt = Herad::new().schedule(&c, pool).unwrap().period(&c);
        let mut last = Ratio::INFINITY;
        for k in 1..=6u128 {
            let t = Ratio::new(t_opt.numer() * k, t_opt.denom());
            let (_, e) = EnergyDp::new()
                .schedule_energy(&c, pool, &power, t)
                .unwrap();
            assert!(e <= last, "energy rose when the constraint relaxed");
            last = e;
        }
    }

    #[test]
    fn front_is_sorted_strictly_trading_off() {
        let c = chain();
        let pool = Resources::new(2, 2);
        let model = PowerModel::typical();
        let front = pareto_front(&c, pool, &model);
        assert!(!front.is_empty());
        let t_opt = Herad::new().schedule(&c, pool).unwrap().period(&c);
        assert_eq!(front[0].period, t_opt, "min-period endpoint");
        for w in front.windows(2) {
            assert!(w[0].period < w[1].period, "periods must ascend");
            assert!(w[0].energy_mw > w[1].energy_mw, "energy must strictly drop");
        }
        let power = model.to_milli();
        for p in &front {
            check_feasible(&c, pool, &p.solution, p.period);
            assert_eq!(
                power.solution_power_mw(&c, &p.solution, p.period),
                p.energy_mw
            );
        }
    }

    #[test]
    fn energy_cap_search_matches_linear_scan() {
        let c = chain();
        let pool = Resources::new(2, 2);
        let model = PowerModel::typical();
        let front = pareto_front(&c, pool, &model);
        // Cap exactly at each front energy: the search must return an
        // operating point no slower than that front point.
        for p in &front {
            let (t, e, sol) = min_period_under_energy_cap(&c, pool, &model, p.energy_mw)
                .expect("cap taken from the front is reachable");
            assert!(e <= p.energy_mw);
            assert!(t <= p.period);
            check_feasible(&c, pool, &sol, t);
        }
        // A cap below the cheapest point is unreachable.
        let min_e = front.last().unwrap().energy_mw;
        let below = Ratio::new(min_e.numer(), min_e.denom() * 2);
        assert!(min_period_under_energy_cap(&c, pool, &model, below).is_none());
    }

    #[test]
    fn by_name_round_trips() {
        for s in energy_strategies() {
            assert_eq!(
                energy_strategy_by_name(s.name())
                    .expect("resolvable")
                    .name(),
                s.name()
            );
        }
        assert!(energy_strategy_by_name("HeRAD").is_none());
        assert!(energy_strategy_by_name("energydp").is_none());
    }

    #[test]
    fn little_preference_on_equal_draw() {
        // One replicable task, one core of each type, equal weights and a
        // model where both types draw the same: the tie must go little.
        let c = TaskChain::new(vec![Task::new(10, 10, true)]);
        let pool = Resources::new(1, 1);
        let power = MilliPower::new(2000, 2000, 200);
        for s in energy_strategies() {
            let (sol, _) = s
                .schedule_energy(&c, pool, &power, Ratio::from_int(10))
                .unwrap();
            assert_eq!(
                sol.stages()[0].core_type,
                CoreType::Little,
                "{} must prefer little on ties",
                s.name()
            );
        }
    }

    /// Energy2CATAC as a depth-first search over both choices at every
    /// stage start (little first), pruned once a branch costs no less
    /// than the best complete schedule: exponential in the stage count.
    /// The memo must give its energy and stages.
    #[allow(clippy::too_many_arguments)]
    fn explore(
        chain: &TaskChain,
        power: &MilliPower,
        target: Ratio,
        left: Resources,
        start: usize,
        acc: Ratio,
        current: &mut Vec<Stage>,
        best: &mut Option<(Ratio, Vec<Stage>)>,
    ) {
        if start == chain.len() {
            let better = best.as_ref().is_none_or(|(be, _)| acc < *be);
            if better {
                *best = Some((acc, current.clone()));
            }
            return;
        }
        // Prune: energy only grows along a branch.
        if best.as_ref().is_some_and(|(be, _)| acc >= *be) {
            return;
        }
        for v in [CoreType::Little, CoreType::Big] {
            let c = left.of(v);
            if c == 0 {
                continue;
            }
            let (end, used) = compute_stage(chain, start, c, v, target);
            if !stage_fits(chain, start, end, used, c, v, target) {
                continue;
            }
            let e = ratio_add(acc, stage_energy(chain, power, start, end, used, v, target));
            current.push(Stage::new(start, end, used, v));
            explore(
                chain,
                power,
                target,
                left.minus(v, used),
                end + 1,
                e,
                current,
                best,
            );
            current.pop();
        }
    }

    #[test]
    fn memo_matches_the_depth_first_search() {
        let mut rng = StdRng::seed_from_u64(0xe2ca);
        let models = [
            MilliPower::typical(),
            MilliPower::new(2000, 2000, 200),
            MilliPower::new(3000, 1000, 0),
        ];
        // One scratch throughout: a memo left by another chain, pool,
        // model or target must not leak into the next solve.
        let mut scratch = SchedScratch::new();
        let mut out = Solution::empty();
        let mut solved = 0;
        for case in 0..240 {
            let n = rng.gen_range(1..=20);
            let chain = if case % 2 == 0 {
                paper_chain(&mut rng, n, [0.2, 0.5, 0.8][case % 3])
            } else {
                TaskChain::new(
                    (0..n)
                        .map(|_| {
                            Task::new(
                                rng.gen_range(1..=4),
                                rng.gen_range(1..=8),
                                rng.gen_bool(0.5),
                            )
                        })
                        .collect(),
                )
            };
            let big = rng.gen_range(0..=8);
            let pool = Resources::new(big, rng.gen_range(u64::from(big == 0)..=8));
            let power = models[case % models.len()];
            let t_opt = Herad::new().schedule(&chain, pool).unwrap().period(&chain);
            for (num, den) in [(1, 1), (6, 5), (3, 2), (2, 1), (3, 1)] {
                let target = Ratio::new(t_opt.numer() * num, t_opt.denom() * den);
                let mut best = None;
                explore(
                    &chain,
                    &power,
                    target,
                    pool,
                    0,
                    Ratio::ZERO,
                    &mut Vec::new(),
                    &mut best,
                );
                let got = EnergyTwocatac::new().schedule_energy_into(
                    &chain,
                    pool,
                    &power,
                    target,
                    &mut scratch,
                    &mut out,
                );
                let got = got.map(|e| ((e.numer(), e.denom()), out.stages().to_vec()));
                let want = best.map(|(e, stages)| ((e.numer(), e.denom()), stages));
                assert_eq!(got, want, "{n} tasks on {pool} at {target}");
                solved += usize::from(got.is_some());
            }
        }
        assert!(
            solved > 600,
            "too few feasible solves ({solved}) to compare"
        );
    }

    /// The depth-first search was still running after 60 s on 100
    /// paper-style tasks on 40+40 cores; the memo answers in
    /// milliseconds even in a debug build.
    #[test]
    fn hundred_tasks_on_forty_plus_forty_answer_within_a_deadline() {
        let chain = paper_chain(&mut StdRng::seed_from_u64(100), 100, 0.5);
        let pool = Resources::new(40, 40);
        let target = Herad::new().schedule(&chain, pool).unwrap().period(&chain);
        let (tx, rx) = mpsc::channel();
        let solver_chain = chain.clone();
        std::thread::spawn(move || {
            let power = MilliPower::typical();
            let _ =
                tx.send(EnergyTwocatac::new().schedule_energy(&solver_chain, pool, &power, target));
        });
        let answer = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("Energy2CATAC on 100 tasks and 40+40 cores must answer within 10 s");
        // A greedy may miss the optimal period; whatever it returns must fit.
        if let Some((solution, _)) = answer {
            check_feasible(&chain, pool, &solution, target);
        }
    }
}
