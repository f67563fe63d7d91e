//! Conformance battery for live reconfiguration: the incremental
//! re-solve path and the migration's zero-frame-loss contract.
//!
//! A reconfiguration re-solves the chain on a changed pool through the
//! grown [`ChainTable`] and migrates the pipeline at a frame boundary.
//! For every instance this battery derives a pool *script* — the original
//! pool, a shrunken pool, a grown pool, and back — and pins:
//!
//! * **`RECONF_DIVERGE`** — each scripted re-solve (cold solve, in-place
//!   grow, or pure extraction) must be bit-identical to a fresh
//!   `Herad::new()` solve on that pool, with the exact optimal period;
//! * **`RECONF_LOST`** — simulating the migrations with the deterministic
//!   epoch-barrier mirror ([`simulate_reconfig`]) must account for every
//!   frame exactly once, in order: no lost, duplicated or reordered
//!   departures across any boundary.

use crate::checks::Mismatch;
use crate::instance::Instance;
use amp_core::sched::{ChainTable, Herad, Scheduler};
use amp_core::{Ratio, Resources, Solution};
use amp_sim::{simulate_reconfig, ReconfigSimReport, SimConfig};

/// Frames pushed through the simulated migration script.
const SIM_FRAMES: u64 = 400;

fn fmt_period(p: Option<Ratio>) -> String {
    match p {
        Some(p) => format!("{p}"),
        None => "infeasible".to_string(),
    }
}

fn fmt_solution(s: &Option<Solution>) -> String {
    match s {
        Some(s) => s.decomposition(),
        None => "infeasible".to_string(),
    }
}

/// The scripted pool sequence for an instance: original → shrink → grow →
/// original. Shrinking halves each axis (rounding the big side up so a
/// non-empty pool stays non-empty); growing adds one core of each type.
#[must_use]
pub fn pool_script(inst: &Instance) -> Vec<Resources> {
    let p0 = Resources::new(inst.big, inst.little);
    let p1 = Resources::new(inst.big.div_ceil(2), inst.little / 2);
    let p2 = Resources::new(inst.big + 1, inst.little + 1);
    vec![p0, p1, p2, p0]
}

/// Runs the reconfiguration battery on one instance.
#[must_use]
pub fn check_reconfig(inst: &Instance) -> Vec<Mismatch> {
    let mut out = Vec::new();
    if inst.tasks.is_empty() {
        return out;
    }
    let chain = inst.chain();
    let herad = Herad::new();
    let script = pool_script(inst);

    // 1. The incremental re-solve path, exactly as the runtime drives it:
    // `Herad::fill` solves cold at the first pool, then grows or extracts
    // per script step.
    let mut table = ChainTable::default();
    let mut warm = Solution::empty();
    let mut feasible: Vec<Solution> = Vec::new();
    for &r in &script {
        herad.fill(&mut table, &chain, r);
        let got = table.extract(&chain, r, &mut warm).then(|| warm.clone());
        let fresh = herad.schedule(&chain, r);
        if got != fresh {
            out.push(Mismatch::new(
                "RECONF_DIVERGE",
                inst,
                format!(
                    "script pool {r}: incremental re-solve returned {} but a fresh solve \
                     computes {}",
                    fmt_solution(&got),
                    fmt_solution(&fresh)
                ),
            ));
        }
        let period = table.period_at(r);
        let optimum = herad.optimal_period(&chain, r);
        if period != optimum {
            out.push(Mismatch::new(
                "RECONF_DIVERGE",
                inst,
                format!(
                    "script pool {r}: table period {} but the optimum is {}",
                    fmt_period(period),
                    fmt_period(optimum)
                ),
            ));
        }
        if let Some(s) = got {
            feasible.push(s);
        }
    }

    // 2. The migration contract on the epoch-barrier mirror: boundaries
    // at even fractions of the run, one per feasible script transition.
    if feasible.is_empty() {
        return out;
    }
    let initial = feasible[0].clone();
    let steps: Vec<(u64, Solution)> = feasible[1..]
        .iter()
        .enumerate()
        .map(|(j, s)| {
            let boundary = SIM_FRAMES * (j as u64 + 1) / feasible.len() as u64;
            (boundary, s.clone())
        })
        .collect();
    let report = simulate_reconfig(
        &chain,
        &initial,
        &steps,
        &SimConfig::with_frames(SIM_FRAMES),
    );
    out.extend(check_departures(inst, &report, steps.len()));
    out
}

/// The `RECONF_LOST` checks on a simulated migration script of
/// `migrations` steps over [`SIM_FRAMES`] frames: one departure per
/// frame, in non-decreasing time order, and one boundary per migration.
fn check_departures(
    inst: &Instance,
    report: &ReconfigSimReport,
    migrations: usize,
) -> Vec<Mismatch> {
    let mut out = Vec::new();
    if report.departures.len() as u64 != SIM_FRAMES {
        out.push(Mismatch::new(
            "RECONF_LOST",
            inst,
            format!(
                "{} departures for {SIM_FRAMES} frames across {migrations} migration(s)",
                report.departures.len(),
            ),
        ));
    }
    if let Some(w) = report.departures.windows(2).position(|w| w[0] > w[1]) {
        out.push(Mismatch::new(
            "RECONF_LOST",
            inst,
            format!(
                "departures reordered at frame {}: {} then {}",
                w,
                report.departures[w],
                report.departures[w + 1]
            ),
        ));
    }
    if report.boundaries.len() != migrations {
        out.push(Mismatch::new(
            "RECONF_LOST",
            inst,
            format!(
                "{} boundaries reported for {migrations} migration step(s)",
                report.boundaries.len(),
            ),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::TaskDef;

    #[test]
    fn paper_instance_is_clean() {
        let inst = Instance::new(
            "paper",
            vec![
                TaskDef::new(10, 25, false),
                TaskDef::new(40, 90, true),
                TaskDef::new(5, 12, false),
            ],
            2,
            2,
        );
        assert_eq!(check_reconfig(&inst), vec![]);
    }

    #[test]
    fn starved_pools_are_skipped_cleanly() {
        let inst = Instance::new("starved", vec![TaskDef::new(3, 6, true)], 0, 0);
        // The original pool is infeasible; only the grown step schedules.
        assert_eq!(check_reconfig(&inst), vec![]);
    }

    /// Each departure fault the battery guards must trip `RECONF_LOST`.
    #[test]
    fn dropped_swapped_and_unmarked_departures_trip_reconf_lost() {
        let inst = Instance::new(
            "faults",
            vec![TaskDef::new(10, 25, false), TaskDef::new(40, 90, true)],
            2,
            2,
        );
        let chain = inst.chain();
        let herad = Herad::new();
        let (wide, narrow) = (Resources::new(2, 2), Resources::new(1, 1));
        let steps = vec![(SIM_FRAMES / 2, herad.schedule(&chain, narrow).unwrap())];
        let clean = simulate_reconfig(
            &chain,
            &herad.schedule(&chain, wide).unwrap(),
            &steps,
            &SimConfig::with_frames(SIM_FRAMES),
        );
        assert_eq!(check_departures(&inst, &clean, steps.len()), vec![]);

        let codes = |report: &ReconfigSimReport| -> Vec<&'static str> {
            check_departures(&inst, report, steps.len())
                .iter()
                .map(|m| m.code)
                .collect()
        };
        let mut dropped = clean.clone();
        dropped.departures.remove(SIM_FRAMES as usize / 3);
        assert_eq!(codes(&dropped), vec!["RECONF_LOST"]);

        let mut swapped = clean.clone();
        let at = swapped
            .departures
            .windows(2)
            .position(|w| w[0] < w[1])
            .expect("departures advance");
        swapped.departures.swap(at, at + 1);
        assert_eq!(codes(&swapped), vec!["RECONF_LOST"]);

        let mut unmarked = clean;
        unmarked.boundaries.pop();
        assert_eq!(codes(&unmarked), vec!["RECONF_LOST"]);
    }

    #[test]
    fn pool_script_shrinks_and_grows() {
        let inst = Instance::new("s", vec![TaskDef::new(1, 1, true)], 3, 2);
        let script = pool_script(&inst);
        assert_eq!(script.len(), 4);
        assert_eq!((script[0].big, script[0].little), (3, 2));
        assert_eq!((script[1].big, script[1].little), (2, 1));
        assert_eq!((script[2].big, script[2].little), (4, 3));
        assert_eq!(script[3], script[0]);
    }
}
