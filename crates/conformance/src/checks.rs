//! The conformance checks: differential comparisons against the
//! exhaustive oracle, metamorphic properties, and service-vs-library
//! equivalence.
//!
//! Every check returns a list of [`Mismatch`]es instead of panicking, so
//! the runner can keep fuzzing, count failures, and shrink each offending
//! instance independently.

use crate::instance::Instance;
use amp_core::sched::{
    optimal_period, optimal_usage_front, paper_strategies, schedule_many, ChainTable, Fertac,
    Herad, Otac, Pruning, SchedScratch, Scheduler, Twocatac,
};
use amp_core::{Ratio, Resources, Solution, Task, TaskChain};
use amp_service::{Engine, Policy, ScheduleRequest};

/// One conformance violation: a stable code, the offending instance's
/// summary and a human-readable detail line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mismatch {
    /// Stable machine-readable code, e.g. `"HERAD_PERIOD"`.
    pub code: &'static str,
    /// [`Instance::summary`] of the offending instance.
    pub instance: String,
    /// What differed.
    pub detail: String,
}

impl Mismatch {
    pub(crate) fn new(code: &'static str, instance: &Instance, detail: String) -> Self {
        Mismatch {
            code,
            instance: instance.summary(),
            detail,
        }
    }
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {} — {}", self.code, self.instance, self.detail)
    }
}

fn fmt_period(p: Option<Ratio>) -> String {
    match p {
        Some(p) => format!("{p}"),
        None => "infeasible".to_string(),
    }
}

/// Validates a heuristic's solution against the chain, the pool, and the
/// oracle's lower bound. `period_must_equal` is set for optimal schedulers.
fn check_solution(
    out: &mut Vec<Mismatch>,
    inst: &Instance,
    chain: &TaskChain,
    label: &str,
    solution: &Solution,
    oracle: Ratio,
    period_must_equal: bool,
) {
    if let Err(e) = solution.validate(chain) {
        out.push(Mismatch::new(
            "INVALID_SOLUTION",
            inst,
            format!("{label}: {e} ({})", solution.decomposition()),
        ));
        return;
    }
    let used = solution.used_cores();
    if used.big > inst.big || used.little > inst.little {
        out.push(Mismatch::new(
            "RESOURCE_OVERUSE",
            inst,
            format!(
                "{label}: uses ({}B, {}L) of ({}B, {}L)",
                used.big, used.little, inst.big, inst.little
            ),
        ));
    }
    let period = solution.period(chain);
    if period < oracle {
        out.push(Mismatch::new(
            "BELOW_OPTIMUM",
            inst,
            format!("{label}: period {period} < oracle optimum {oracle}"),
        ));
    }
    if period_must_equal && period != oracle {
        out.push(Mismatch::new(
            "HERAD_PERIOD",
            inst,
            format!("{label}: period {period} != oracle optimum {oracle}"),
        ));
    }
}

/// Differential checks of every library scheduler against the exhaustive
/// oracle.
///
/// * HeRAD under all three pruning policies must agree with the oracle on
///   feasibility and on the optimal period.
/// * Under `Pruning::None` and `Pruning::Lossless`, HeRAD's core usage
///   must also win the paper's secondary objective: among all optimal
///   usages, the fewest big cores, ties broken by fewest little cores.
///   (`Pruning::Aggressive` stays period-optimal but may keep a different
///   equal-period core mix, so only usage *membership* is asserted.)
/// * FERTAC and 2CATAC must return valid solutions
///   within the pool whose period is never below the optimum, and must
///   agree with the oracle on feasibility.
/// * OTAC (B) / OTAC (L) must match HeRAD's optimum on the corresponding
///   homogeneous sub-pool.
#[must_use]
pub fn check_core(inst: &Instance) -> Vec<Mismatch> {
    let mut out = Vec::new();
    let chain = inst.chain();
    let resources = inst.resources();
    let oracle = optimal_period(&chain, resources);
    let front = optimal_usage_front(&chain, resources);
    if oracle != front.as_ref().map(|(p, _)| *p) {
        out.push(Mismatch::new(
            "ORACLE_SELF",
            inst,
            format!(
                "optimal_period {} != optimal_usage_front {}",
                fmt_period(oracle),
                fmt_period(front.as_ref().map(|(p, _)| *p)),
            ),
        ));
    }

    for pruning in [Pruning::None, Pruning::Lossless, Pruning::Aggressive] {
        let label = format!("HeRAD({pruning:?})");
        let herad = Herad::with_pruning(pruning);
        let solution = herad.schedule(&chain, resources);
        let claimed = herad.optimal_period(&chain, resources);
        match (&solution, oracle) {
            (None, None) => {}
            (None, Some(p)) => out.push(Mismatch::new(
                "FEASIBILITY",
                inst,
                format!("{label}: no solution but oracle finds period {p}"),
            )),
            (Some(s), None) => out.push(Mismatch::new(
                "FEASIBILITY",
                inst,
                format!(
                    "{label}: returns {} but oracle finds the pool infeasible",
                    s.decomposition()
                ),
            )),
            (Some(s), Some(opt)) => {
                check_solution(&mut out, inst, &chain, &label, s, opt, true);
                if claimed != Some(s.period(&chain)) {
                    out.push(Mismatch::new(
                        "HERAD_CLAIM",
                        inst,
                        format!(
                            "{label}: optimal_period reports {} but schedule yields {}",
                            fmt_period(claimed),
                            s.period(&chain)
                        ),
                    ));
                }
                if let Some((_, usages)) = &front {
                    let used = s.used_cores();
                    if !usages.contains(&used) {
                        out.push(Mismatch::new(
                            "HERAD_USAGE",
                            inst,
                            format!(
                                "{label}: usage ({}B, {}L) is not an optimal usage",
                                used.big, used.little
                            ),
                        ));
                    } else if pruning != Pruning::Aggressive {
                        let best = usages
                            .iter()
                            .copied()
                            .min_by_key(|u| (u.big, u.little))
                            .expect("front is non-empty when feasible");
                        if (used.big, used.little) != (best.big, best.little) {
                            out.push(Mismatch::new(
                                "HERAD_TIEBREAK",
                                inst,
                                format!(
                                    "{label}: usage ({}B, {}L) but ({}B, {}L) is optimal \
                                     with fewer cores",
                                    used.big, used.little, best.big, best.little
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }

    let heuristics: Vec<(String, Box<dyn Scheduler>)> = vec![
        ("FERTAC".to_string(), Box::new(Fertac)),
        ("2CATAC".to_string(), Box::new(Twocatac::new())),
    ];
    for (label, strategy) in &heuristics {
        match (strategy.schedule(&chain, resources), oracle) {
            (None, None) => {}
            (None, Some(p)) => out.push(Mismatch::new(
                "FEASIBILITY",
                inst,
                format!("{label}: no solution but oracle finds period {p}"),
            )),
            (Some(s), None) => out.push(Mismatch::new(
                "FEASIBILITY",
                inst,
                format!(
                    "{label}: returns {} but oracle finds the pool infeasible",
                    s.decomposition()
                ),
            )),
            (Some(s), Some(opt)) => check_solution(&mut out, inst, &chain, label, &s, opt, false),
        }
    }

    // OTAC is homogeneous-optimal: on the big-only (resp. little-only)
    // sub-pool its period must equal HeRAD's optimum for that sub-pool.
    for (otac, sub) in [
        (Otac::big(), Resources::new(inst.big, 0)),
        (Otac::little(), Resources::new(0, inst.little)),
    ] {
        let label = otac.name();
        let sub_opt = optimal_period(&chain, sub);
        match (otac.schedule(&chain, resources), sub_opt) {
            (None, None) => {}
            (None, Some(p)) => out.push(Mismatch::new(
                "OTAC_FEASIBILITY",
                inst,
                format!("{label}: no solution but sub-pool optimum is {p}"),
            )),
            (Some(s), None) => out.push(Mismatch::new(
                "OTAC_FEASIBILITY",
                inst,
                format!(
                    "{label}: returns {} on an infeasible sub-pool",
                    s.decomposition()
                ),
            )),
            (Some(s), Some(opt)) => {
                check_solution(&mut out, inst, &chain, label, &s, opt, false);
                let period = s.period(&chain);
                if period != opt {
                    out.push(Mismatch::new(
                        "OTAC_PERIOD",
                        inst,
                        format!("{label}: period {period} != sub-pool optimum {opt}"),
                    ));
                }
            }
        }
    }
    out
}

/// Metamorphic properties of the optimal period (computed by HeRAD):
///
/// * scaling every weight by `k` scales the optimal period by `k`;
/// * adding a core of either type never increases the optimal period;
/// * flipping a sequential task to replicable never increases it.
#[must_use]
pub fn check_metamorphic(inst: &Instance) -> Vec<Mismatch> {
    let mut out = Vec::new();
    let herad = Herad::new();
    let chain = inst.chain();
    let resources = inst.resources();
    let base = herad.optimal_period(&chain, resources);

    let k = 3u64;
    let mut scaled = inst.clone();
    for t in &mut scaled.tasks {
        t.weight_big *= k;
        t.weight_little *= k;
    }
    let scaled_period = herad.optimal_period(&scaled.chain(), resources);
    let expected = base.map(|p| Ratio::new(p.numer() * u128::from(k), p.denom()));
    if scaled_period != expected {
        out.push(Mismatch::new(
            "META_SCALE",
            inst,
            format!(
                "scaling weights by {k}: period {} but {} expected",
                fmt_period(scaled_period),
                fmt_period(expected)
            ),
        ));
    }

    for (label, extra) in [
        ("big", Resources::new(1, 0)),
        ("little", Resources::new(0, 1)),
    ] {
        let grown = Resources::new(resources.big + extra.big, resources.little + extra.little);
        let grown_period = herad.optimal_period(&chain, grown);
        let regressed = match (base, grown_period) {
            (Some(b), Some(g)) => g > b,
            // Feasible before, infeasible after adding a core: impossible.
            (Some(_), None) => true,
            (None, _) => false,
        };
        if regressed {
            out.push(Mismatch::new(
                "META_MORE_CORES",
                inst,
                format!(
                    "adding one {label} core: period {} worse than {}",
                    fmt_period(grown_period),
                    fmt_period(base)
                ),
            ));
        }
    }

    if let Some(pos) = inst.tasks.iter().position(|t| !t.replicable) {
        let mut relaxed = inst.clone();
        relaxed.tasks[pos].replicable = true;
        let relaxed_period = herad.optimal_period(&relaxed.chain(), resources);
        let regressed = match (base, relaxed_period) {
            (Some(b), Some(r)) => r > b,
            (Some(_), None) => true,
            (None, _) => false,
        };
        if regressed {
            out.push(Mismatch::new(
                "META_RELAX",
                inst,
                format!(
                    "making task {pos} replicable: period {} worse than {}",
                    fmt_period(relaxed_period),
                    fmt_period(base)
                ),
            ));
        }
    }
    out
}

/// Service-vs-library equivalence through a running [`Engine`]:
///
/// * every named strategy served by the engine returns stages bit-identical
///   to a direct library call (or the matching typed error);
/// * an immediate resubmission is answered from the cache with identical
///   stages;
/// * the undeadlined portfolio matches HeRAD's optimal period and reports
///   `complete`;
/// * zero-core pools map to [`amp_service::ServiceError::NoCores`].
#[must_use]
pub fn check_service(engine: &Engine, inst: &Instance) -> Vec<Mismatch> {
    let mut out = Vec::new();
    let chain = inst.chain();
    let resources = inst.resources();
    let empty_pool = inst.big + inst.little == 0;

    for strategy in paper_strategies() {
        let name = strategy.name();
        let request =
            ScheduleRequest::from_chain(0, &chain, resources, Policy::Strategy(name.to_string()));
        let response = engine.schedule_blocking(request.clone());
        let direct = strategy.schedule(&chain, resources);
        match (response.result, direct) {
            (Ok(outcome), Some(solution)) => {
                if outcome.stages != solution.stages() {
                    out.push(Mismatch::new(
                        "SERVICE_STAGES",
                        inst,
                        format!(
                            "{name}: service returned {} but library computes {}",
                            outcome.decomposition,
                            solution.decomposition()
                        ),
                    ));
                }
                if !outcome.complete {
                    out.push(Mismatch::new(
                        "SERVICE_COMPLETE",
                        inst,
                        format!("{name}: single-strategy outcome not marked complete"),
                    ));
                }
                let again = engine.schedule_blocking(request);
                match again.result {
                    Ok(cached) => {
                        if !cached.cache_hit {
                            out.push(Mismatch::new(
                                "SERVICE_CACHE",
                                inst,
                                format!("{name}: resubmission missed the cache"),
                            ));
                        }
                        if cached.stages != outcome.stages {
                            out.push(Mismatch::new(
                                "SERVICE_CACHE",
                                inst,
                                format!("{name}: cached stages differ from the first answer"),
                            ));
                        }
                    }
                    Err(e) => out.push(Mismatch::new(
                        "SERVICE_CACHE",
                        inst,
                        format!("{name}: resubmission failed with {e}"),
                    )),
                }
            }
            (Err(e), None) => {
                let expected = if empty_pool { "NO_CORES" } else { "INFEASIBLE" };
                if e.code() != expected {
                    out.push(Mismatch::new(
                        "SERVICE_ERROR",
                        inst,
                        format!("{name}: error code {} but {expected} expected", e.code()),
                    ));
                }
            }
            (Ok(outcome), None) => out.push(Mismatch::new(
                "SERVICE_DIVERGE",
                inst,
                format!(
                    "{name}: service returned {} but the library finds no solution",
                    outcome.decomposition
                ),
            )),
            (Err(e), Some(solution)) => out.push(Mismatch::new(
                "SERVICE_DIVERGE",
                inst,
                format!(
                    "{name}: service failed with {e} but the library computes {}",
                    solution.decomposition()
                ),
            )),
        }
    }

    let request = ScheduleRequest::from_chain(0, &chain, resources, Policy::Portfolio);
    let response = engine.schedule_blocking(request);
    let optimum = Herad::new().optimal_period(&chain, resources);
    match (response.result, optimum) {
        (Ok(outcome), Some(opt)) => {
            if !outcome.complete {
                out.push(Mismatch::new(
                    "PORTFOLIO_COMPLETE",
                    inst,
                    "undeadlined portfolio outcome not marked complete".to_string(),
                ));
            }
            let solution = outcome.solution();
            if let Err(e) = solution.validate(&chain) {
                out.push(Mismatch::new(
                    "PORTFOLIO_INVALID",
                    inst,
                    format!("portfolio solution invalid: {e}"),
                ));
            } else if solution.period(&chain) != opt {
                out.push(Mismatch::new(
                    "PORTFOLIO_PERIOD",
                    inst,
                    format!(
                        "portfolio period {} != HeRAD optimum {opt}",
                        solution.period(&chain)
                    ),
                ));
            }
        }
        (Err(e), None) => {
            let expected = if empty_pool { "NO_CORES" } else { "INFEASIBLE" };
            if e.code() != expected {
                out.push(Mismatch::new(
                    "SERVICE_ERROR",
                    inst,
                    format!("portfolio: error code {} but {expected} expected", e.code()),
                ));
            }
        }
        (Ok(outcome), None) => out.push(Mismatch::new(
            "SERVICE_DIVERGE",
            inst,
            format!(
                "portfolio returned {} on an infeasible pool",
                outcome.decomposition
            ),
        )),
        (Err(e), Some(opt)) => out.push(Mismatch::new(
            "SERVICE_DIVERGE",
            inst,
            format!("portfolio failed with {e} but the optimum is {opt}"),
        )),
    }
    out
}

/// Differential checks of the allocation-free hot paths against the
/// legacy allocating paths, for every paper strategy:
///
/// * `schedule_into` on a *deliberately dirtied* shared scratch — first
///   warmed on a larger shape, then on a smaller one — must return
///   bit-identical stages to a fresh `schedule` call (stale DP cells or
///   pooled stage buffers must never leak into the result);
/// * `schedule_many` over duplicated jobs must return the same solution
///   for every copy at every worker count, with no lost or reordered
///   entries.
///
/// Together with [`check_core`] (which pins `schedule` to the exhaustive
/// oracle) this transitively pins the hot paths to the oracle too.
#[must_use]
pub fn check_scratch(inst: &Instance) -> Vec<Mismatch> {
    let mut out = Vec::new();
    let chain = inst.chain();
    let resources = inst.resources();

    // One shared scratch, dirtied on a shape strictly larger than the
    // instance and then on a tiny one, so both the grow and the shrink
    // transitions happen before the instance itself is solved.
    let warm_large = TaskChain::new(
        (0..chain.len() + 3)
            .map(|i| Task::new(1 + i as u64 % 5, 2 + i as u64 % 7, i % 2 == 0))
            .collect(),
    );
    let warm_tiny = TaskChain::new(vec![Task::new(1, 1, true)]);
    let mut scratch = SchedScratch::new();
    let mut sink = Solution::empty();
    for strategy in paper_strategies() {
        let _ = strategy.schedule_into(
            &warm_large,
            Resources::new(inst.big + 2, inst.little + 2),
            &mut scratch,
            &mut sink,
        );
        let _ = strategy.schedule_into(&warm_tiny, Resources::new(1, 1), &mut scratch, &mut sink);
    }

    for strategy in paper_strategies() {
        let name = strategy.name();
        let legacy = strategy.schedule(&chain, resources);

        let mut warm = Solution::empty();
        let warm = strategy
            .schedule_into(&chain, resources, &mut scratch, &mut warm)
            .then_some(warm);
        if warm != legacy {
            out.push(Mismatch::new(
                "SCRATCH_DIVERGE",
                inst,
                format!(
                    "{name}: warm schedule_into returned {} but schedule computes {}",
                    fmt_solution(&warm),
                    fmt_solution(&legacy)
                ),
            ));
        }

        let jobs = vec![(&chain, resources); 3];
        for workers in [1, 2, 3] {
            let batch = schedule_many(&*strategy, &jobs, workers);
            if batch.len() != jobs.len() {
                out.push(Mismatch::new(
                    "BATCH_DIVERGE",
                    inst,
                    format!(
                        "{name}: schedule_many returned {} results for {} jobs",
                        batch.len(),
                        jobs.len()
                    ),
                ));
                continue;
            }
            for (i, got) in batch.iter().enumerate() {
                if got != &legacy {
                    out.push(Mismatch::new(
                        "BATCH_DIVERGE",
                        inst,
                        format!(
                            "{name}: job {i} at {workers} workers returned {} but schedule \
                             computes {}",
                            fmt_solution(got),
                            fmt_solution(&legacy)
                        ),
                    ));
                }
            }
        }
    }
    out
}

fn fmt_solution(s: &Option<Solution>) -> String {
    match s {
        Some(s) => s.decomposition(),
        None => "infeasible".to_string(),
    }
}

/// Differential checks of HeRAD's pool-delta warm starts: one scratch is
/// swept over the full `(b, ℓ)` grid up to one step *past* the instance
/// pool (so both axes exercise the grow path), in ascending, descending
/// and interleaved order. Every incremental solve — sub-table extraction
/// or pool-delta grow — must be bit-identical to a fresh allocating
/// solve, and the warm `optimal_period_with` must match the allocating
/// `optimal_period`. The descending order solves the largest pool first,
/// so every later pool is a pure extraction; the interleaved order grows
/// the table once, on its second pool, and extracts after that.
/// `Pruning::None` is checked on the ascending order to pin the unpruned
/// recurrence too.
#[must_use]
pub fn check_sweep(inst: &Instance) -> Vec<Mismatch> {
    let mut out = Vec::new();
    let chain = inst.chain();
    let ascending: Vec<(u64, u64)> = (0..=inst.big + 1)
        .flat_map(|b| (0..=inst.little + 1).map(move |l| (b, l)))
        .collect();
    let descending: Vec<(u64, u64)> = ascending.iter().rev().copied().collect();
    // Interleave the two ends so small and large pools alternate.
    let mut interleaved = Vec::with_capacity(ascending.len());
    let (mut lo, mut hi) = (0usize, ascending.len());
    while lo < hi {
        interleaved.push(ascending[lo]);
        lo += 1;
        if lo < hi {
            hi -= 1;
            interleaved.push(ascending[hi]);
        }
    }
    let orders: [(&str, &[(u64, u64)]); 3] = [
        ("ascending", &ascending),
        ("descending", &descending),
        ("interleaved", &interleaved),
    ];
    for pruning in [Pruning::Aggressive, Pruning::None] {
        for (label, order) in orders {
            if pruning == Pruning::None && label != "ascending" {
                continue;
            }
            let herad = Herad::with_pruning(pruning);
            let mut scratch = SchedScratch::new();
            let mut warm = Solution::empty();
            for &(b, l) in order {
                let r = Resources::new(b, l);
                let fresh = herad.schedule(&chain, r);
                let got = herad
                    .schedule_into(&chain, r, &mut scratch, &mut warm)
                    .then(|| warm.clone());
                if got != fresh {
                    out.push(Mismatch::new(
                        "SWEEP_DIVERGE",
                        inst,
                        format!(
                            "{pruning:?} {label} sweep at {r}: warm {} but fresh solve computes {}",
                            fmt_solution(&got),
                            fmt_solution(&fresh)
                        ),
                    ));
                }
                let warm_period = herad.optimal_period_with(&chain, r, &mut scratch);
                let fresh_period = herad.optimal_period(&chain, r);
                if warm_period != fresh_period {
                    out.push(Mismatch::new(
                        "SWEEP_PERIOD",
                        inst,
                        format!(
                            "{pruning:?} {label} sweep at {r}: warm period {} but fresh is {}",
                            fmt_period(warm_period),
                            fmt_period(fresh_period)
                        ),
                    ));
                }
            }
        }
    }
    out
}

/// Differential checks of the solve-once chain tier's building block,
/// [`ChainTable`]: [`Herad::fill`] cold-solves one table at the smallest
/// pool and grows it in place across the ascending `(b, ℓ)` grid up to
/// one step past the instance pool, and every covered sub-pool answer
/// must be bit-identical to a fresh `Herad::new()` solve
/// (`TIER_DIVERGE`) with the exact optimal period (`TIER_PERIOD`). The
/// fully-grown table is then serialized, parsed back, checked
/// byte-stable (`TIER_SNAPSHOT`), and re-extracted over the grid in
/// *descending* order — restored tables must answer sub-pools just like
/// live ones.
#[must_use]
pub fn check_chain_tier(inst: &Instance) -> Vec<Mismatch> {
    let mut out = Vec::new();
    if inst.tasks.is_empty() {
        return out;
    }
    let chain = inst.chain();
    let herad = Herad::new();
    let ascending: Vec<(u64, u64)> = (0..=inst.big + 1)
        .flat_map(|b| (0..=inst.little + 1).map(move |l| (b, l)))
        .collect();
    let mut table = ChainTable::default();
    let mut warm = Solution::empty();
    for &(b, l) in &ascending {
        let r = Resources::new(b, l);
        herad.fill(&mut table, &chain, r);
        let got = table.extract(&chain, r, &mut warm).then(|| warm.clone());
        let fresh = herad.schedule(&chain, r);
        if got != fresh {
            out.push(Mismatch::new(
                "TIER_DIVERGE",
                inst,
                format!(
                    "grown table at {r}: extracted {} but fresh solve computes {}",
                    fmt_solution(&got),
                    fmt_solution(&fresh)
                ),
            ));
        }
        let period = table.period_at(r);
        let optimum = herad.optimal_period(&chain, r);
        if period != optimum {
            out.push(Mismatch::new(
                "TIER_PERIOD",
                inst,
                format!(
                    "grown table at {r}: period {} but the optimum is {}",
                    fmt_period(period),
                    fmt_period(optimum)
                ),
            ));
        }
    }

    // Snapshot round trip at the final (maximal) dimensions, then answer
    // the same grid from the restored table in descending order.
    let text = table.render();
    let restored = match ChainTable::parse(&text) {
        Ok(restored) => restored,
        Err(e) => {
            out.push(Mismatch::new(
                "TIER_SNAPSHOT",
                inst,
                format!("serialized table does not parse back: {e}"),
            ));
            return out;
        }
    };
    if restored.render() != text {
        out.push(Mismatch::new(
            "TIER_SNAPSHOT",
            inst,
            "re-rendering a parsed table changes its bytes".to_string(),
        ));
    }
    for &(b, l) in ascending.iter().rev() {
        let r = Resources::new(b, l);
        let got = restored.extract(&chain, r, &mut warm).then(|| warm.clone());
        let fresh = herad.schedule(&chain, r);
        if got != fresh {
            out.push(Mismatch::new(
                "TIER_DIVERGE",
                inst,
                format!(
                    "restored table at {r}: extracted {} but fresh solve computes {}",
                    fmt_solution(&got),
                    fmt_solution(&fresh)
                ),
            ));
        }
        if restored.period_at(r) != herad.optimal_period(&chain, r) {
            out.push(Mismatch::new(
                "TIER_PERIOD",
                inst,
                format!(
                    "restored table at {r}: period {} but the optimum is {}",
                    fmt_period(restored.period_at(r)),
                    fmt_period(herad.optimal_period(&chain, r))
                ),
            ));
        }
    }
    out
}

/// Differential check of HeRAD's layer-parallel DP kernel against the
/// sequential driver: forced-parallel solves at several worker counts
/// (including more workers than table rows) must return bit-identical
/// `Solution`s — period, stage decomposition and tie-break core usage —
/// under every pruning policy.
#[must_use]
pub fn check_parallel(inst: &Instance) -> Vec<Mismatch> {
    let mut out = Vec::new();
    let chain = inst.chain();
    let resources = inst.resources();
    for pruning in [Pruning::Aggressive, Pruning::Lossless, Pruning::None] {
        let seq = Herad::with_pruning(pruning).schedule(&chain, resources);
        for workers in [2, 3, 8] {
            let par =
                Herad::with_pruning_and_parallelism(pruning, workers).schedule(&chain, resources);
            if par != seq {
                out.push(Mismatch::new(
                    "PAR_DIVERGE",
                    inst,
                    format!(
                        "{pruning:?} at {workers} workers: parallel {} but sequential computes {}",
                        fmt_solution(&par),
                        fmt_solution(&seq)
                    ),
                ));
            }
        }
    }
    out
}

/// Runs the library-level checks (differential + metamorphic + hot-path +
/// sweep warm-start + chain-tier + parallel-kernel + energy + reconfig)
/// on one instance.
#[must_use]
pub fn check_library(inst: &Instance) -> Vec<Mismatch> {
    let mut out = check_core(inst);
    out.extend(check_metamorphic(inst));
    out.extend(check_scratch(inst));
    out.extend(check_sweep(inst));
    out.extend(check_chain_tier(inst));
    out.extend(check_parallel(inst));
    out.extend(crate::energy::check_energy(inst));
    out.extend(crate::reconfig::check_reconfig(inst));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TaskDef;

    fn paper_instance() -> Instance {
        Instance::new(
            "paper",
            vec![
                TaskDef::new(10, 25, false),
                TaskDef::new(40, 90, true),
                TaskDef::new(5, 12, false),
            ],
            2,
            2,
        )
    }

    #[test]
    fn clean_instances_produce_no_mismatches() {
        assert_eq!(check_library(&paper_instance()), vec![]);
    }

    #[test]
    fn empty_pool_agreement_holds() {
        let inst = Instance::new("starved", vec![TaskDef::new(3, 6, true)], 0, 0);
        assert_eq!(check_library(&inst), vec![]);
    }

    #[test]
    fn mismatch_display_is_compact() {
        let inst = paper_instance();
        let m = Mismatch::new("HERAD_PERIOD", &inst, "boom".to_string());
        let text = m.to_string();
        assert!(text.starts_with("[HERAD_PERIOD] paper:"), "{text}");
        assert!(text.ends_with("boom"), "{text}");
    }
}
