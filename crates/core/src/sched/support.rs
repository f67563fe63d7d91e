//! Common support methods shared by OTAC, FERTAC and 2CATAC
//! (Algorithms 2 and 3 of the paper).

use crate::chain::TaskChain;
use crate::ratio::Ratio;
use crate::resources::CoreType;

/// `MaxPacking` (Algorithm 3): the largest `e >= start` such that the stage
/// `[start, e]` with `c` cores of type `v` fits in period `target`; returns
/// `start` even when not even one task fits (the stage always holds at least
/// one task — validity is checked by the caller).
///
/// Stage weights are monotone non-decreasing in `e` (sums grow and
/// replicability can only be lost), so a linear walk is exact.
#[must_use]
pub fn max_packing(chain: &TaskChain, start: usize, c: u64, v: CoreType, target: Ratio) -> usize {
    let n = chain.len();
    // The first task is kept even when it does not fit on its own
    // (`max(s, ...)` in Algorithm 3); extensions are only taken while the
    // stage weight stays within the target.
    let mut e = start;
    while e + 1 < n && chain.stage_weight_le(start, e + 1, c, v, target) {
        e += 1;
    }
    e
}

/// `RequiredCores` (Algorithm 3): `ceil(w([start, end], 1, v) / target)`,
/// the number of cores a replicable stage needs to meet `target`. On one
/// core the stage weight is the plain interval sum `w`, so for a target
/// `p/q` this is one integer `ceil(w·q / p)`.
#[must_use]
pub fn required_cores(
    chain: &TaskChain,
    start: usize,
    end: usize,
    v: CoreType,
    target: Ratio,
) -> u64 {
    debug_assert!(target.is_finite() && !target.is_zero());
    let sum = u128::from(chain.interval_sum(start, end, v));
    let cores = (sum * target.denom()).div_ceil(target.numer());
    u64::try_from(cores)
        .expect("core count overflows u64")
        .max(1)
}

/// `ComputeStage` (Algorithm 2): where to end the stage starting at `start`
/// and how many cores (of type `v`, at most `c` available) it takes to
/// respect `target`. Returns `(end, used)`. The result may be invalid
/// (weight above `target` or `used > c`); callers check with `IsValid`.
#[must_use]
pub fn compute_stage(
    chain: &TaskChain,
    start: usize,
    c: u64,
    v: CoreType,
    target: Ratio,
) -> (usize, u64) {
    let n = chain.len();
    // Pack as many tasks as possible on a single core.
    let mut e = max_packing(chain, start, 1, v, target);
    // Cores needed when the first task alone exceeds the target period.
    let mut u = required_cores(chain, start, e, v, target);
    if e != n - 1 && chain.is_replicable(start, e) {
        // Extend a replicable stage over the whole replicable run.
        e = chain.final_replicable_task(start, e);
        u = required_cores(chain, start, e, v, target);
        if u > c {
            // Not enough cores for the full run: shrink to what `c` cores fit.
            e = max_packing(chain, start, c, v, target);
            u = c;
        } else if e != n - 1 && u >= 2 {
            // A sequential task follows. Check whether dropping this stage's
            // final tasks to the next stage saves one core here while the
            // moved tasks plus the next task still fit on a single core.
            let f = max_packing(chain, start, u - 1, v, target);
            // `max_packing` keeps the first task even when it does not fit
            // (`max(s, ...)`): only reduce when the shrunk stage actually
            // meets the target with one core fewer.
            if chain.stage_weight_le(start, f, u - 1, v, target)
                && required_cores(chain, f + 1, e + 1, v, target) == 1
            {
                e = f;
                u -= 1;
            }
        }
    }
    (e, u)
}

/// Validity of a single (partial) stage: at least one core, within the `c`
/// available, and weight within `target` — the single-stage specialization
/// of `IsValid` used inside `ComputeSolution`.
#[must_use]
pub fn stage_fits(
    chain: &TaskChain,
    start: usize,
    end: usize,
    used: u64,
    c: u64,
    v: CoreType,
    target: Ratio,
) -> bool {
    used >= 1 && used <= c && chain.stage_weight_le(start, end, used, v, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Task;

    fn chain() -> TaskChain {
        // big weights:    3  2  4  6  1   (idx 0..4)
        // little weights: 6  4  8 12  2
        // replicable:     N  Y  Y  Y  N
        TaskChain::new(vec![
            Task::new(3, 6, false),
            Task::new(2, 4, true),
            Task::new(4, 8, true),
            Task::new(6, 12, true),
            Task::new(1, 2, false),
        ])
    }

    #[test]
    fn max_packing_respects_target() {
        let c = chain();
        // from task 0 (seq) on 1 big core, target 5: tasks 0+1 = 5 fits, +2 = 9 no
        assert_eq!(max_packing(&c, 0, 1, CoreType::Big, Ratio::from_int(5)), 1);
        // target 4: only task 0 (3) fits alone; adding task 1 gives 5 > 4
        assert_eq!(max_packing(&c, 0, 1, CoreType::Big, Ratio::from_int(4)), 0);
        // target smaller than the first task still returns the first task
        assert_eq!(max_packing(&c, 0, 1, CoreType::Big, Ratio::from_int(1)), 0);
        // replicable run with 2 cores: [1..3] sums 12, /2 = 6 <= 6
        assert_eq!(max_packing(&c, 1, 2, CoreType::Big, Ratio::from_int(6)), 3);
        // zero cores: infinite weight, packs only the mandatory first task
        assert_eq!(
            max_packing(&c, 1, 0, CoreType::Big, Ratio::from_int(100)),
            1
        );
    }

    #[test]
    fn max_packing_accounts_for_replicability_loss() {
        let c = chain();
        // starting at 1 with 3 cores, target 4: [1..3] = 12/3 = 4 fits;
        // adding task 4 (seq) jumps the weight to the plain sum 13 > 4.
        assert_eq!(max_packing(&c, 1, 3, CoreType::Big, Ratio::from_int(4)), 3);
    }

    #[test]
    fn required_cores_is_ceiling() {
        let c = chain();
        // [1..3] big sum = 12; target 5 -> ceil(12/5) = 3
        assert_eq!(
            required_cores(&c, 1, 3, CoreType::Big, Ratio::from_int(5)),
            3
        );
        assert_eq!(
            required_cores(&c, 1, 3, CoreType::Big, Ratio::from_int(12)),
            1
        );
        // never returns 0
        assert_eq!(
            required_cores(&c, 4, 4, CoreType::Big, Ratio::from_int(100)),
            1
        );
    }

    #[test]
    fn compute_stage_extends_replicable_runs() {
        let c = chain();
        // start at 1, plenty of cores, target 4 on big: single-core packing
        // stops at task 1 (2) + task 2 (4) = 6 > 4 -> e=1; replicable, so
        // extend to the full run [1..3] (sum 12), u = ceil(12/4) = 3.
        let (e, u) = compute_stage(&c, 1, 8, CoreType::Big, Ratio::from_int(4));
        assert_eq!((e, u), (3, 3));
    }

    #[test]
    fn compute_stage_shrinks_when_cores_are_short() {
        let c = chain();
        // same as above but only 2 cores available: 12/2 = 6 > 4 -> shrink to
        // what 2 cores fit: [1..3] with 2 cores is 6 > 4; [1..2] is 6/2 = 3.
        let (e, u) = compute_stage(&c, 1, 2, CoreType::Big, Ratio::from_int(4));
        assert_eq!((e, u), (2, 2));
    }

    #[test]
    fn compute_stage_may_leave_a_core_for_the_next_stage() {
        // Replicable run [0..1] with weights 4,4 then a sequential task 4.
        // Target 4: full run needs ceil(8/4) = 2 cores. With u-1 = 1 core the
        // packing keeps [0..0]; moved task 1 plus next task 2 weigh 8 -> 2
        // cores, not 1: no reduction. With target 8 everything fits one core.
        let c = TaskChain::new(vec![
            Task::new(4, 8, true),
            Task::new(4, 8, true),
            Task::new(4, 8, false),
        ]);
        let (e, u) = compute_stage(&c, 0, 4, CoreType::Big, Ratio::from_int(4));
        assert_eq!((e, u), (1, 2));

        // Now make the tail light so moving it pays: run [0..1] weights 4,1,
        // sequential task 1. Target 4: packing one core gives [0..0]? 4+1=5>4
        // -> e=0, extend run to [0..1], u = ceil(5/4) = 2 > 1 core saved
        // check: f = max_packing(0, 1, ..) = 0 wait 4 <= 4 -> f covers [0..0];
        // moved [1..1] + next task [2..2] weigh 2 -> 1 core -> shrink.
        let c = TaskChain::new(vec![
            Task::new(4, 8, true),
            Task::new(1, 2, true),
            Task::new(1, 2, false),
        ]);
        let (e, u) = compute_stage(&c, 0, 4, CoreType::Big, Ratio::from_int(4));
        assert_eq!((e, u), (0, 1));
    }

    #[test]
    fn compute_stage_final_stage_is_not_extended() {
        let c = chain();
        // start at 4 (last task): nothing to extend
        let (e, u) = compute_stage(&c, 4, 4, CoreType::Big, Ratio::from_int(10));
        assert_eq!((e, u), (4, 1));
    }

    #[test]
    fn stage_fits_checks_cores_and_weight() {
        let c = chain();
        assert!(stage_fits(
            &c,
            1,
            3,
            3,
            4,
            CoreType::Big,
            Ratio::from_int(4)
        ));
        assert!(!stage_fits(
            &c,
            1,
            3,
            5,
            4,
            CoreType::Big,
            Ratio::from_int(4)
        ));
        assert!(!stage_fits(
            &c,
            1,
            3,
            2,
            4,
            CoreType::Big,
            Ratio::from_int(4)
        ));
        assert!(!stage_fits(
            &c,
            1,
            3,
            0,
            4,
            CoreType::Big,
            Ratio::from_int(99)
        ));
    }

    #[test]
    fn integer_weight_checks_match_the_built_weights() {
        use crate::resources::Resources;
        use crate::sched::binary_search::PeriodBounds;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x7a12);
        for case in 0..64u64 {
            let n = rng.gen_range(1..=12usize);
            let top = if case % 4 == 3 { 1u64 << 40 } else { 20 };
            let c = TaskChain::new(
                (0..n)
                    .map(|_| {
                        Task::new(
                            rng.gen_range(1..=top),
                            rng.gen_range(1..=top),
                            rng.gen_bool(0.6),
                        )
                    })
                    .collect(),
            );
            let pool = Resources::new(rng.gen_range(0..=9), rng.gen_range(1..=9));
            // Targets: the binary search's own midpoints (a random walk
            // down the bisection), plain integers and fractions, and
            // infinity.
            let bounds = PeriodBounds::compute(&c, pool).unwrap();
            let (mut lo, mut hi) = (bounds.lower, bounds.upper);
            let mut targets = vec![
                Ratio::INFINITY,
                lo,
                hi,
                Ratio::from_int(1),
                Ratio::new(7, 3),
            ];
            for _ in 0..24 {
                let mid = lo.midpoint(hi);
                targets.push(mid);
                if rng.gen_bool(0.5) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            for &target in &targets {
                for start in 0..n {
                    for end in start..n {
                        for v in CoreType::BOTH {
                            for r in 0..=9 {
                                assert_eq!(
                                    c.stage_weight_le(start, end, r, v, target),
                                    c.stage_weight(start, end, r, v) <= target,
                                    "[{start}, {end}] x{r} {v:?} vs {target}"
                                );
                            }
                            if target.is_finite() {
                                let built = c
                                    .stage_weight(start, end, 1, v)
                                    .div_ceil(target)
                                    .unwrap()
                                    .max(1);
                                assert_eq!(
                                    required_cores(&c, start, end, v, target),
                                    built,
                                    "[{start}, {end}] {v:?} at {target}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
