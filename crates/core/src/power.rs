//! Power estimation for schedules — quantifying the paper's secondary
//! objective.
//!
//! The paper uses "as many little cores as necessary" as a proxy for power
//! because per-task power measurements were unavailable; it lists direct
//! power models as future work. This module provides the simplest such
//! model — a fixed power draw per active core of each type — so that the
//! big→little exchange preference can be evaluated in watts and schedules
//! compared on a period/power Pareto front.
//!
//! Two representations coexist:
//!
//! * [`PowerModel`] — the float-valued model used for reporting and for
//!   the experiments drivers (watts are natural units there);
//! * [`MilliPower`] — the integer-milliwatt quantization used everywhere
//!   energy is *optimized* or put *on the wire*: per-core draw in whole
//!   milliwatts and the idle fraction in per-mille. With integer inputs
//!   every stage power is an exact [`Ratio`] in milliwatt units, so the
//!   energy-aware schedulers (see [`crate::sched::energy`]) compare
//!   candidates exactly — no float ties, no NaN — and the service wire
//!   carries integers only (floats stay banned on the wire).

use crate::chain::TaskChain;
use crate::ratio::Ratio;
use crate::resources::CoreType;
use crate::solution::{Solution, Stage};

/// Fixed power draw per active core, by type.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerModel {
    /// Watts drawn by one busy big core.
    pub big_watts: f64,
    /// Watts drawn by one busy little core.
    pub little_watts: f64,
    /// Watts drawn by an idle-but-reserved core, as a fraction of busy
    /// draw (cores assigned to a stage idle whenever the stage is not the
    /// bottleneck).
    pub idle_fraction: f64,
}

impl PowerModel {
    /// A ratio typical of published big.LITTLE measurements: big cores
    /// draw ~4x a little core at full tilt, idling at 20%.
    #[must_use]
    pub fn typical() -> Self {
        PowerModel {
            big_watts: 4.0,
            little_watts: 1.0,
            idle_fraction: 0.2,
        }
    }

    /// Power if every assigned core were busy full-time (the upper bound,
    /// and the model implied by the paper's core-counting proxy).
    #[must_use]
    pub fn peak_power(&self, solution: &Solution) -> f64 {
        let used = solution.used_cores();
        used.big as f64 * self.big_watts + used.little as f64 * self.little_watts
    }

    /// Expected steady-state power: each stage's cores are busy for its
    /// weight out of every period, idle (at `idle_fraction`) otherwise.
    #[must_use]
    pub fn steady_power(&self, chain: &TaskChain, solution: &Solution) -> f64 {
        self.steady_power_at(chain, solution, solution.period(chain))
    }

    /// Steady-state power when the pipeline is *operated* at `period`
    /// (one frame admitted every `period` units). The solution must be
    /// able to keep up (`solution.period(chain) <= period`) for the
    /// utilizations to stay in `[0, 1]`; a slower operating point means
    /// every stage idles more and draws less.
    ///
    /// Degenerate operating points — infinite (pipeline stopped) or zero
    /// period — draw nothing by convention and never produce NaN.
    #[must_use]
    pub fn steady_power_at(&self, chain: &TaskChain, solution: &Solution, period: Ratio) -> f64 {
        if period.is_infinite() || period.is_zero() {
            return 0.0;
        }
        let p = period.to_f64();
        solution
            .stages()
            .iter()
            .map(|s| {
                let busy = s.weight(chain).to_f64() / p; // utilization in [0, 1]
                let per_core = match s.core_type {
                    CoreType::Big => self.big_watts,
                    CoreType::Little => self.little_watts,
                };
                s.cores as f64 * per_core * (busy + (1.0 - busy) * self.idle_fraction)
            })
            .sum()
    }

    /// Energy per frame in joules (steady power × period, with the period
    /// in seconds given `unit_seconds` per weight unit).
    ///
    /// An infinite or zero period yields zero energy — the pipeline is
    /// not producing frames. (Without the early return this would be
    /// `0.0 × ∞ = NaN`.)
    #[must_use]
    pub fn energy_per_frame(
        &self,
        chain: &TaskChain,
        solution: &Solution,
        unit_seconds: f64,
    ) -> f64 {
        let period = solution.period(chain);
        if period.is_infinite() || period.is_zero() {
            return 0.0;
        }
        self.steady_power(chain, solution) * period.to_f64() * unit_seconds
    }

    /// Quantizes this model to integer milliwatts (idle fraction in
    /// per-mille). Negative or non-finite draws clamp to zero and the
    /// idle fraction clamps into `[0, 1]`, so the result is always a
    /// well-formed integer model.
    #[must_use]
    pub fn to_milli(&self) -> MilliPower {
        MilliPower::new(
            watts_to_milliwatts(self.big_watts),
            watts_to_milliwatts(self.little_watts),
            watts_to_milliwatts(self.idle_fraction.clamp(0.0, 1.0)) as u32,
        )
    }
}

/// Converts watts to whole milliwatts, rounding to nearest. Negative and
/// non-finite inputs map to 0 — the wire never carries a nonsense draw.
#[must_use]
pub fn watts_to_milliwatts(watts: f64) -> u64 {
    if !watts.is_finite() || watts <= 0.0 {
        return 0;
    }
    let mw = (watts * 1000.0).round();
    if mw >= u64::MAX as f64 {
        u64::MAX
    } else {
        mw as u64
    }
}

/// Converts whole milliwatts back to watts. Exact for every count below
/// 2^53 (f64 integer range), so `watts_to_milliwatts` round-trips.
#[must_use]
pub fn milliwatts_to_watts(milliwatts: u64) -> f64 {
    milliwatts as f64 / 1000.0
}

/// Integer-milliwatt power model: the exact-arithmetic twin of
/// [`PowerModel`]. Per-core draws are whole milliwatts and the idle
/// fraction is per-mille, so every power figure derived from it is an
/// exact rational in milliwatt units.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MilliPower {
    /// Milliwatts drawn by one busy big core.
    pub big_mw: u64,
    /// Milliwatts drawn by one busy little core.
    pub little_mw: u64,
    /// Idle draw as per-mille of busy draw, in `[0, 1000]`.
    pub idle_millis: u32,
}

impl MilliPower {
    /// Builds a model, clamping the idle per-mille into `[0, 1000]`.
    #[must_use]
    pub fn new(big_mw: u64, little_mw: u64, idle_millis: u32) -> Self {
        MilliPower {
            big_mw,
            little_mw,
            idle_millis: idle_millis.min(1000),
        }
    }

    /// The integer twin of [`PowerModel::typical`]: 4000 mW big,
    /// 1000 mW little, 20% idle draw.
    #[must_use]
    pub fn typical() -> Self {
        MilliPower::new(4000, 1000, 200)
    }

    /// Converts back to the float model (exact: see
    /// [`milliwatts_to_watts`]).
    #[must_use]
    pub fn to_watts(&self) -> PowerModel {
        PowerModel {
            big_watts: milliwatts_to_watts(self.big_mw),
            little_watts: milliwatts_to_watts(self.little_mw),
            idle_fraction: self.idle_millis as f64 / 1000.0,
        }
    }

    /// Busy draw of one core of `v`, in milliwatts.
    #[must_use]
    pub fn per_core_mw(&self, v: CoreType) -> u64 {
        match v {
            CoreType::Big => self.big_mw,
            CoreType::Little => self.little_mw,
        }
    }

    /// Exact steady-state power of one stage in milliwatts when the
    /// pipeline is operated at `period`: `r·m·(f + (1−f)·i)` with busy
    /// fraction `f = w/period` and idle fraction `i` in per-mille —
    /// the integer-exact form of the float model's per-stage term.
    ///
    /// Degenerate operating points (infinite/zero period) draw nothing,
    /// matching [`PowerModel::steady_power_at`]; a stage whose weight is
    /// infinite (zero cores) draws infinite power so it can never win an
    /// energy comparison.
    #[must_use]
    pub fn stage_power_mw(&self, chain: &TaskChain, stage: &Stage, period: Ratio) -> Ratio {
        if period.is_infinite() || period.is_zero() {
            return Ratio::ZERO;
        }
        let w = stage.weight(chain);
        if w.is_infinite() {
            return Ratio::INFINITY;
        }
        let m = self.per_core_mw(stage.core_type) as u128;
        let r = stage.cores as u128;
        let i = self.idle_millis as u128;
        let (wn, wd) = (w.numer(), w.denom());
        let (tn, td) = (period.numer(), period.denom());
        // m·r·(i/1000 + (1000−i)/1000 · wn·td/(wd·tn))
        //   = m·r·(i·wd·tn + (1000−i)·wn·td) / (1000·wd·tn)
        Ratio::new(m * r * (i * wd * tn + (1000 - i) * wn * td), 1000 * wd * tn)
    }

    /// Exact steady-state power of a whole solution in milliwatts at
    /// operating `period` — the integer-exact twin of
    /// [`PowerModel::steady_power_at`].
    #[must_use]
    pub fn solution_power_mw(
        &self,
        chain: &TaskChain,
        solution: &Solution,
        period: Ratio,
    ) -> Ratio {
        solution.stages().iter().fold(Ratio::ZERO, |acc, s| {
            ratio_add(acc, self.stage_power_mw(chain, s, period))
        })
    }

    /// [`Self::solution_power_mw`] rounded to the nearest whole milliwatt
    /// — the integer the wire and status endpoints carry. Infinite power
    /// saturates to `u64::MAX`.
    #[must_use]
    pub fn solution_power_milliwatts(
        &self,
        chain: &TaskChain,
        solution: &Solution,
        period: Ratio,
    ) -> u64 {
        round_mw(self.solution_power_mw(chain, solution, period))
    }
}

/// Exact sum of two ratios, propagating infinity. `Ratio` itself only
/// carries the comparisons schedulers need; energy accumulation is the
/// one place the library adds fractions, so the helper lives here.
#[must_use]
pub(crate) fn ratio_add(a: Ratio, b: Ratio) -> Ratio {
    if a.is_infinite() || b.is_infinite() {
        return Ratio::INFINITY;
    }
    Ratio::new(
        a.numer() * b.denom() + b.numer() * a.denom(),
        a.denom() * b.denom(),
    )
}

/// Rounds an exact milliwatt figure to the nearest integer milliwatt
/// (half away from zero). Infinity saturates to `u64::MAX`.
#[must_use]
pub(crate) fn round_mw(power: Ratio) -> u64 {
    if power.is_infinite() {
        return u64::MAX;
    }
    let rounded = (2 * power.numer() + power.denom()) / (2 * power.denom());
    u64::try_from(rounded).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Task;
    use crate::resources::Resources;
    use crate::sched::{Herad, Otac, Scheduler};
    use crate::solution::Stage;

    fn chain() -> TaskChain {
        TaskChain::new(vec![
            Task::new(4, 8, false),
            Task::new(6, 12, true),
            Task::new(2, 4, false),
        ])
    }

    #[test]
    fn peak_power_counts_cores_by_type() {
        let m = PowerModel::typical();
        let s = Solution::new(vec![
            Stage::new(0, 0, 1, CoreType::Big),
            Stage::new(1, 1, 2, CoreType::Little),
            Stage::new(2, 2, 1, CoreType::Big),
        ]);
        assert!((m.peak_power(&s) - (2.0 * 4.0 + 2.0 * 1.0)).abs() < 1e-12);
    }

    #[test]
    fn steady_power_is_below_peak_and_above_idle() {
        let c = chain();
        let m = PowerModel::typical();
        let s = Herad::new().schedule(&c, Resources::new(2, 2)).unwrap();
        let peak = m.peak_power(&s);
        let steady = m.steady_power(&c, &s);
        let idle = peak * m.idle_fraction;
        assert!(steady <= peak + 1e-12, "steady {steady} peak {peak}");
        assert!(steady >= idle - 1e-12, "steady {steady} idle floor {idle}");
    }

    #[test]
    fn bottleneck_stage_contributes_full_power() {
        // Single-stage solution: utilization 1 -> steady == peak.
        let c = chain();
        let m = PowerModel::typical();
        let s = Solution::new(vec![Stage::new(0, 2, 1, CoreType::Big)]);
        assert!((m.steady_power(&c, &s) - m.peak_power(&s)).abs() < 1e-9);
    }

    #[test]
    fn little_heavy_schedules_draw_less_peak_power() {
        // The paper's secondary objective in watts: when big and little
        // cores give the same period, HeRAD's tie-break toward little cores
        // draws less peak power than the big-only baseline.
        let c = TaskChain::new(vec![Task::new(10, 10, false)]);
        let r = Resources::new(1, 1);
        let m = PowerModel::typical();
        let herad = Herad::new().schedule(&c, r).unwrap();
        let otac_b = Otac::big().schedule(&c, r).unwrap();
        assert_eq!(herad.period(&c), otac_b.period(&c));
        assert!(m.peak_power(&herad) < m.peak_power(&otac_b));
    }

    #[test]
    fn energy_per_frame_scales_with_period() {
        let c = chain();
        let m = PowerModel::typical();
        let fast = Herad::new().schedule(&c, Resources::new(3, 3)).unwrap();
        let slow = Solution::new(vec![Stage::new(0, 2, 1, CoreType::Little)]);
        // Energy/frame of the single-little-core schedule equals its full
        // busy draw times its (long) period.
        let e_slow = m.energy_per_frame(&c, &slow, 1e-6);
        assert!((e_slow - 1.0 * 24.0 * 1e-6).abs() < 1e-12);
        assert!(m.energy_per_frame(&c, &fast, 1e-6) > 0.0);
    }

    #[test]
    fn empty_solution_draws_nothing() {
        let c = chain();
        let m = PowerModel::typical();
        assert_eq!(m.steady_power(&c, &Solution::empty()), 0.0);
        assert_eq!(
            MilliPower::typical().solution_power_mw(&c, &Solution::empty(), Ratio::from_int(10)),
            Ratio::ZERO
        );
    }

    #[test]
    fn infinite_period_draws_nothing_and_never_nans() {
        // A zero-core stage has infinite weight, hence an infinite period:
        // the pipeline is stopped. Power and energy are zero by
        // convention — in particular energy_per_frame must not compute
        // 0.0 × ∞ = NaN (the regression this test pins).
        let c = chain();
        let m = PowerModel::typical();
        let stopped = Solution::new(vec![Stage::new(0, 2, 0, CoreType::Big)]);
        assert!(stopped.period(&c).is_infinite());
        assert_eq!(m.steady_power(&c, &stopped), 0.0);
        let e = m.energy_per_frame(&c, &stopped, 1e-6);
        assert!(!e.is_nan(), "energy_per_frame produced NaN");
        assert_eq!(e, 0.0);
    }

    #[test]
    fn zero_period_operating_point_draws_nothing() {
        let c = chain();
        let m = PowerModel::typical();
        let s = Solution::new(vec![Stage::new(0, 2, 1, CoreType::Big)]);
        assert_eq!(m.steady_power_at(&c, &s, Ratio::ZERO), 0.0);
        assert_eq!(
            MilliPower::typical().solution_power_mw(&c, &s, Ratio::ZERO),
            Ratio::ZERO
        );
    }

    #[test]
    fn idle_fraction_zero_counts_only_busy_time() {
        let c = chain();
        let mut m = PowerModel::typical();
        m.idle_fraction = 0.0;
        // Two stages on one big core each; the slower bounds the period.
        let s = Solution::new(vec![
            Stage::new(0, 1, 1, CoreType::Big),
            Stage::new(2, 2, 1, CoreType::Big),
        ]);
        let p = s.period(&c).to_f64();
        let expect = 4.0 * (10.0 / p) + 4.0 * (2.0 / p);
        assert!((m.steady_power(&c, &s) - expect).abs() < 1e-12);
    }

    #[test]
    fn idle_fraction_one_equals_peak() {
        let c = chain();
        let mut m = PowerModel::typical();
        m.idle_fraction = 1.0;
        let s = Herad::new().schedule(&c, Resources::new(2, 2)).unwrap();
        assert!((m.steady_power(&c, &s) - m.peak_power(&s)).abs() < 1e-9);
    }

    #[test]
    fn milliwatt_round_trips() {
        for mw in [0u64, 1, 7, 999, 1000, 4000, 123_456, 9_999_999] {
            assert_eq!(watts_to_milliwatts(milliwatts_to_watts(mw)), mw);
        }
        for w in [0.0f64, 0.001, 0.2, 1.0, 4.0, 17.3] {
            let back = milliwatts_to_watts(watts_to_milliwatts(w));
            assert!((back - w).abs() <= 5e-4, "watts {w} -> {back}");
        }
        // Nonsense draws clamp instead of poisoning the wire.
        assert_eq!(watts_to_milliwatts(-3.0), 0);
        assert_eq!(watts_to_milliwatts(f64::NAN), 0);
        assert_eq!(watts_to_milliwatts(f64::INFINITY), 0);
    }

    #[test]
    fn typical_models_agree() {
        let m = PowerModel::typical().to_milli();
        assert_eq!(m, MilliPower::typical());
        let back = m.to_watts();
        assert_eq!(back, PowerModel::typical());
    }

    #[test]
    fn exact_power_matches_float_model() {
        let c = chain();
        let float = PowerModel::typical();
        let milli = float.to_milli();
        for (big, little) in [(1u64, 1u64), (2, 2), (3, 1), (0, 4)] {
            let Some(s) = Herad::new().schedule(&c, Resources::new(big, little)) else {
                continue;
            };
            let p = s.period(&c);
            let exact = milli.solution_power_mw(&c, &s, p).to_f64() / 1000.0;
            let approx = float.steady_power(&c, &s);
            assert!(
                (exact - approx).abs() < 1e-9,
                "exact {exact} vs float {approx}"
            );
        }
    }

    #[test]
    fn rounding_is_nearest() {
        assert_eq!(round_mw(Ratio::new(5, 2)), 3); // 2.5 -> 3
        assert_eq!(round_mw(Ratio::new(9, 4)), 2); // 2.25 -> 2
        assert_eq!(round_mw(Ratio::from_int(7)), 7);
        assert_eq!(round_mw(Ratio::INFINITY), u64::MAX);
    }

    #[test]
    fn zero_core_stage_power_is_infinite() {
        let c = chain();
        let s = Stage::new(0, 2, 0, CoreType::Big);
        let p = MilliPower::typical().stage_power_mw(&c, &s, Ratio::from_int(100));
        assert!(p.is_infinite());
    }
}
