//! `Schedule` (Algorithm 1): the binary search over target periods shared by
//! OTAC, FERTAC and 2CATAC.

use crate::chain::TaskChain;
use crate::ratio::Ratio;
use crate::resources::{CoreType, Resources};
use crate::sched::SchedScratch;
use crate::solution::{period_of, stages_are_valid, Solution, Stage};

/// The closed search interval and tolerance used by [`schedule_binary_search`].
#[derive(Clone, Copy, Debug)]
pub struct PeriodBounds {
    /// Lower bound: work replicated over every core, or the heaviest
    /// sequential task, whichever is larger (Algorithm 1, line 1).
    pub lower: Ratio,
    /// Upper bound: a period at which the greedy provably finds a solution.
    pub upper: Ratio,
    /// Search tolerance `ε`.
    pub epsilon: Ratio,
}

impl PeriodBounds {
    /// Computes bounds for a chain on the given resources.
    ///
    /// Two deliberate deviations from Algorithm 1, both documented in
    /// DESIGN.md:
    ///
    /// * The paper assumes every task is fastest on a big core and uses
    ///   big-core weights for the lower bound. We take, per task, the
    ///   fastest *available* core type, which keeps the bound valid for
    ///   arbitrary profiles and for single-type resource pools (OTAC).
    /// * The upper bound is the whole chain on one core of the slowest
    ///   available type — a period at which every greedy in this crate
    ///   provably succeeds (one single-core stage) — instead of
    ///   `lower + max_τ w_τ^L`, which is not always reachable by a greedy
    ///   on heterogeneous pools. `ε` is `1/(b+l)²` instead of `1/(b+l)`:
    ///   distinct achievable periods are separated by at least that much,
    ///   which makes the search resolve the homogeneous-optimal period
    ///   exactly. Both changes add only O(log) iterations.
    #[must_use]
    pub fn compute(chain: &TaskChain, resources: Resources) -> Option<PeriodBounds> {
        let total = resources.total();
        if total == 0 {
            return None;
        }
        // Fixed-size buffer instead of a `Vec<CoreType>`: bounds are
        // recomputed on every solve, and the hot path must not allocate.
        let mut type_buf = [CoreType::Big; 2];
        let mut n_types = 0;
        for v in CoreType::BOTH {
            if resources.of(v) > 0 {
                type_buf[n_types] = v;
                n_types += 1;
            }
        }
        let types = &type_buf[..n_types];
        let best_weight = |i: usize| {
            types
                .iter()
                .map(|&v| chain.task(i).weight(v))
                .min()
                .unwrap()
        };
        let mut sum_best: u128 = 0;
        let mut max_seq_best: u64 = 0;
        for i in 0..chain.len() {
            let w = best_weight(i);
            sum_best += u128::from(w);
            if !chain.task(i).replicable {
                max_seq_best = max_seq_best.max(w);
            }
        }
        let lower = Ratio::new(sum_best, u128::from(total)).max(Ratio::from_int(max_seq_best));
        let upper = types
            .iter()
            .map(|&v| Ratio::from_int(chain.total(v)))
            .max()
            .unwrap();
        let epsilon = Ratio::new(1, u128::from(total) * u128::from(total));
        Some(PeriodBounds {
            lower,
            upper,
            epsilon,
        })
    }
}

/// `Schedule` (Algorithm 1), allocation-free: binary search for the
/// smallest target period at which `compute_solution` fills a valid stage
/// list. `compute_solution` receives the chain, the resources, the target
/// period, the shared scratch, and the stage buffer to fill; it returns
/// `false` (buffer contents then ignored) when the greedy fails at that
/// period.
///
/// The best stage list so far lives in `out`; probes fill a candidate
/// buffer rented from `scratch` and the two are swapped on improvement, so
/// the search itself performs no heap allocation once that buffer has
/// warmed up. Returns `false` — leaving `out` empty — only when no valid
/// schedule exists at any period.
pub fn schedule_binary_search_into<F>(
    chain: &TaskChain,
    resources: Resources,
    scratch: &mut SchedScratch,
    out: &mut Solution,
    mut compute_solution: F,
) -> bool
where
    F: FnMut(&TaskChain, Resources, Ratio, &mut SchedScratch, &mut Vec<Stage>) -> bool,
{
    out.stages_mut().clear();
    let Some(bounds) = PeriodBounds::compute(chain, resources) else {
        return false;
    };
    let mut p_min = bounds.lower;
    let mut p_max = bounds.upper;

    // Seed with the guaranteed-feasible upper bound so `p_max` always tracks
    // the period of a concrete solution.
    if !compute_solution(chain, resources, p_max, scratch, out.stages_mut())
        || !stages_are_valid(chain, resources, p_max, out.stages())
    {
        out.stages_mut().clear();
        return false;
    }
    p_max = period_of(chain, out.stages());

    let mut candidate = scratch.rent_stages();
    while p_max.saturating_sub(p_min) >= bounds.epsilon {
        let p_mid = p_min.midpoint(p_max);
        let ok = compute_solution(chain, resources, p_mid, scratch, &mut candidate);
        if ok && stages_are_valid(chain, resources, p_mid, &candidate) {
            // The target can only decrease from here.
            p_max = period_of(chain, &candidate);
            std::mem::swap(out.stages_mut(), &mut candidate);
        } else {
            // The target can only increase.
            p_min = p_mid;
        }
    }
    scratch.return_stages(candidate);
    true
}

/// `Schedule` (Algorithm 1): the allocating convenience wrapper around
/// [`schedule_binary_search_into`]. `compute_solution` receives the chain,
/// the resources, and the target period, and returns a (possibly empty =
/// failed) solution.
///
/// Returns `None` only when no valid schedule exists at any period (no
/// cores, or the greedy fails even at the single-stage upper bound — which
/// cannot happen for the ComputeSolution implementations in this crate).
pub fn schedule_binary_search<F>(
    chain: &TaskChain,
    resources: Resources,
    mut compute_solution: F,
) -> Option<Solution>
where
    F: FnMut(&TaskChain, Resources, Ratio) -> Solution,
{
    let mut scratch = SchedScratch::new();
    let mut out = Solution::empty();
    schedule_binary_search_into(
        chain,
        resources,
        &mut scratch,
        &mut out,
        |c, r, p, _scratch, buf| {
            let s = compute_solution(c, r, p);
            buf.clear();
            buf.extend_from_slice(s.stages());
            !buf.is_empty()
        },
    )
    .then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Task;
    use crate::sched::support::{compute_stage, stage_fits};
    use crate::solution::Stage;

    fn chain() -> TaskChain {
        TaskChain::new(vec![
            Task::new(3, 6, false),
            Task::new(2, 4, true),
            Task::new(4, 8, true),
            Task::new(6, 12, true),
            Task::new(1, 2, false),
        ])
    }

    #[test]
    fn bounds_require_cores() {
        assert!(PeriodBounds::compute(&chain(), Resources::new(0, 0)).is_none());
    }

    #[test]
    fn bounds_bracket_achievable_periods() {
        let c = chain();
        let b = PeriodBounds::compute(&c, Resources::new(2, 2)).unwrap();
        // lower = max(16/4, 3) = 4 (big weights are the per-task minima)
        assert_eq!(b.lower, Ratio::from_int(4));
        // upper = whole chain on one little core = 32
        assert_eq!(b.upper, Ratio::from_int(32));
        assert_eq!(b.epsilon, Ratio::new(1, 16));
        assert!(b.lower <= b.upper);
    }

    #[test]
    fn bounds_use_available_type_only() {
        let c = chain();
        let b = PeriodBounds::compute(&c, Resources::new(0, 4)).unwrap();
        // only little cores: lower = max(32/4, 6) = 8
        assert_eq!(b.lower, Ratio::from_int(8));
        assert_eq!(b.upper, Ratio::from_int(32));
    }

    /// A minimal greedy (single core type, big) to exercise the search.
    fn greedy_big(chain: &TaskChain, resources: Resources, target: Ratio) -> Solution {
        let mut stages = Vec::new();
        let mut start = 0;
        let mut left = resources.big;
        while start < chain.len() {
            let (e, u) = compute_stage(chain, start, left, CoreType::Big, target);
            if !stage_fits(chain, start, e, u, left, CoreType::Big, target) {
                return Solution::empty();
            }
            stages.push(Stage::new(start, e, u, CoreType::Big));
            left -= u;
            start = e + 1;
        }
        Solution::new(stages)
    }

    #[test]
    fn binary_search_converges_to_a_valid_solution() {
        let c = chain();
        let r = Resources::new(3, 0);
        let s = schedule_binary_search(&c, r, greedy_big).unwrap();
        assert!(s.validate(&c).is_ok());
        let used = s.used_cores();
        assert!(used.big <= 3 && used.little == 0);
        // With 3 big cores the exhaustive optimum is 7 (e.g. the 3-stage
        // split [0,1] | [2] | [3,4] with weights 5, 4, 7; replication cannot
        // help because isolating the replicable run [1..3] already takes
        // three single-core stages).
        assert_eq!(s.period(&c), Ratio::from_int(7));
    }

    #[test]
    fn binary_search_handles_single_core() {
        let c = chain();
        let s = schedule_binary_search(&c, Resources::new(1, 0), greedy_big).unwrap();
        assert_eq!(s.num_stages(), 1);
        assert_eq!(s.period(&c), Ratio::from_int(16));
    }

    #[test]
    fn binary_search_none_without_cores() {
        let c = chain();
        assert!(schedule_binary_search(&c, Resources::new(0, 0), greedy_big).is_none());
    }
}
