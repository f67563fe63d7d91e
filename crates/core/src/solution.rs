//! Pipelined and replicated solutions `S = (s, r, v)`.

use crate::chain::TaskChain;
use crate::ratio::Ratio;
use crate::resources::{CoreType, Resources};
use std::fmt;

/// One pipeline stage: a contiguous interval of tasks mapped to `cores`
/// cores of one type.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Stage {
    /// 0-based index of the first task of the stage.
    pub start: usize,
    /// 0-based index of the last task of the stage (inclusive).
    pub end: usize,
    /// Number of cores assigned (`r_i`); > 1 only for replicable stages.
    pub cores: u64,
    /// Core type (`v_i`).
    pub core_type: CoreType,
}

impl Stage {
    /// Builds a stage covering tasks `[start, end]`.
    #[must_use]
    pub fn new(start: usize, end: usize, cores: u64, core_type: CoreType) -> Self {
        debug_assert!(start <= end);
        Stage {
            start,
            end,
            cores,
            core_type,
        }
    }

    /// Number of tasks in the stage.
    #[must_use]
    pub fn num_tasks(&self) -> usize {
        self.end - self.start + 1
    }

    /// Weight of the stage on its assigned resources (Eq. (1)).
    #[must_use]
    pub fn weight(&self, chain: &TaskChain) -> Ratio {
        chain.stage_weight(self.start, self.end, self.cores, self.core_type)
    }
}

/// A structural violation reported by [`Solution::validate`].
///
/// The `Display` output keeps the exact phrasing of the former
/// `Result<(), String>` API; [`ValidationError::code`] gives a stable
/// machine-readable identifier for service error mapping.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValidationError {
    /// The solution has no stages at all.
    Empty,
    /// Stage `stage` does not start right after its predecessor ends.
    NonContiguous {
        /// Index of the offending stage.
        stage: usize,
        /// First task of the offending stage.
        found: usize,
        /// Expected first task (end of the previous stage + 1).
        expected: usize,
    },
    /// Stage `stage` ends before it starts or beyond the chain.
    InvalidEnd {
        /// Index of the offending stage.
        stage: usize,
        /// The out-of-range end index.
        end: usize,
    },
    /// Stage `stage` was assigned zero cores.
    ZeroCores {
        /// Index of the offending stage.
        stage: usize,
    },
    /// Stage `stage` replicates an interval containing a sequential task.
    ReplicatedSequential {
        /// Index of the offending stage.
        stage: usize,
        /// First task of the offending stage.
        start: usize,
        /// Last task of the offending stage.
        end: usize,
    },
    /// The stages stop before the end of the chain.
    IncompleteCover {
        /// Number of tasks covered by the stages.
        covered: usize,
        /// Chain length.
        total: usize,
    },
}

impl ValidationError {
    /// Stable machine-readable code (used by `amp-service` error mapping).
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            ValidationError::Empty => "EMPTY_SOLUTION",
            ValidationError::NonContiguous { .. } => "NON_CONTIGUOUS_STAGES",
            ValidationError::InvalidEnd { .. } => "INVALID_STAGE_END",
            ValidationError::ZeroCores { .. } => "ZERO_CORE_STAGE",
            ValidationError::ReplicatedSequential { .. } => "REPLICATED_SEQUENTIAL_STAGE",
            ValidationError::IncompleteCover { .. } => "INCOMPLETE_COVER",
        }
    }
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ValidationError::Empty => write!(f, "solution has no stages"),
            ValidationError::NonContiguous {
                stage,
                found,
                expected,
            } => write!(
                f,
                "stage {stage} starts at task {found} but task {expected} expected"
            ),
            ValidationError::InvalidEnd { stage, end } => {
                write!(f, "stage {stage} has invalid end {end}")
            }
            ValidationError::ZeroCores { stage } => write!(f, "stage {stage} has zero cores"),
            ValidationError::ReplicatedSequential { stage, start, end } => write!(
                f,
                "stage {stage} replicates a sequential interval [{start}..{end}]"
            ),
            ValidationError::IncompleteCover { covered, total } => {
                write!(f, "stages cover only {covered} of {total} tasks")
            }
        }
    }
}

impl std::error::Error for ValidationError {}

/// The period of a stage slice (Eq. (2)): the largest stage weight, or
/// infinity for an empty slice. Slice-level twin of [`Solution::period`]
/// for hot paths that work on rented buffers instead of [`Solution`]s.
#[must_use]
pub fn period_of(chain: &TaskChain, stages: &[Stage]) -> Ratio {
    stages
        .iter()
        .map(|s| s.weight(chain))
        .max()
        .unwrap_or(Ratio::INFINITY)
}

/// Cores used per type by a stage slice. Slice-level twin of
/// [`Solution::used_cores`].
#[must_use]
pub fn used_cores_of(stages: &[Stage]) -> Resources {
    let mut used = Resources::new(0, 0);
    for s in stages {
        match s.core_type {
            CoreType::Big => used.big += s.cores,
            CoreType::Little => used.little += s.cores,
        }
    }
    used
}

/// `IsValid` (Algorithm 3) over a stage slice: non-empty, period within
/// `target`, resource constraints of Eq. (3). Slice-level twin of
/// [`Solution::is_valid`]. The period bound is checked stage by stage
/// (the largest weight is within `target` exactly when every weight is),
/// each by cross-multiplication, so no weight is built.
#[must_use]
pub fn stages_are_valid(
    chain: &TaskChain,
    resources: Resources,
    target: Ratio,
    stages: &[Stage],
) -> bool {
    if stages.is_empty() {
        return false;
    }
    let used = used_cores_of(stages);
    used.big <= resources.big
        && used.little <= resources.little
        && stages
            .iter()
            .all(|s| chain.stage_weight_le(s.start, s.end, s.cores, s.core_type, target))
}

/// A complete pipelined/replicated mapping of a task chain.
///
/// Invariants (checked by [`Solution::validate`]): stages are contiguous,
/// cover `0..n`, every stage has at least one core, and stages with more
/// than one core are replicable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Solution {
    stages: Vec<Stage>,
}

impl Solution {
    /// Builds a solution from stages; no checking (see [`Solution::validate`]).
    #[must_use]
    pub fn new(stages: Vec<Stage>) -> Self {
        Solution { stages }
    }

    /// The empty (invalid) solution `(∅, ∅, ∅)`.
    #[must_use]
    pub fn empty() -> Self {
        Solution { stages: Vec::new() }
    }

    /// The stages, in chain order.
    #[must_use]
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Mutable access to the stage vector for hot paths that fill a
    /// reused `Solution` in place. Like [`Solution::new`], no invariant
    /// is checked (see [`Solution::validate`]).
    pub fn stages_mut(&mut self) -> &mut Vec<Stage> {
        &mut self.stages
    }

    /// Number of stages `|s|`.
    #[must_use]
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Whether the solution has no stages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Prepends a stage (the `·` concatenation of Algorithms 4 and 5).
    pub fn prepend(&mut self, stage: Stage) {
        self.stages.insert(0, stage);
    }

    /// The period `P(s, r, v)` (Eq. (2)): the largest stage weight. The empty
    /// solution has an infinite period.
    #[must_use]
    pub fn period(&self, chain: &TaskChain) -> Ratio {
        period_of(chain, &self.stages)
    }

    /// Steady-state throughput in frames per time unit (`1 / P`).
    #[must_use]
    pub fn throughput(&self, chain: &TaskChain) -> f64 {
        let p = self.period(chain);
        if p.is_infinite() || p.is_zero() {
            0.0
        } else {
            p.denom() as f64 / p.numer() as f64
        }
    }

    /// Cores used per type `(Σ_{v_i=B} r_i, Σ_{v_i=L} r_i)`.
    #[must_use]
    pub fn used_cores(&self) -> Resources {
        used_cores_of(&self.stages)
    }

    /// The most frames a pipeline executing this solution keeps in
    /// flight, from the source stage's claim to the sink's departure:
    /// `W = 2 Σ r_i + (|s| − 1)`. Twice the replicas keeps the period
    /// under service-time jitter, and with rings of at most 2 frames a
    /// pipeline never holds more than `Σ r_i + 2(|s| − 1) ≤ W` frames, so
    /// there the window never binds. `amp-sim` and `amp-runtime` both
    /// take their window from here.
    #[must_use]
    pub fn in_flight_window(&self) -> u64 {
        let replicas: u64 = self.stages.iter().map(|s| s.cores).sum();
        2 * replicas + self.stages.len().saturating_sub(1) as u64
    }

    /// `IsValid` (Algorithm 3): non-empty, period within `target`, and the
    /// resource constraints of Eq. (3).
    #[must_use]
    pub fn is_valid(&self, chain: &TaskChain, resources: Resources, target: Ratio) -> bool {
        stages_are_valid(chain, resources, target, &self.stages)
    }

    /// Full structural check: contiguous coverage of the whole chain,
    /// positive core counts, and no replication of sequential stages.
    /// Returns the first violation as a typed [`ValidationError`], if any.
    ///
    /// # Errors
    /// Returns the first structural violation encountered, in stage order.
    pub fn validate(&self, chain: &TaskChain) -> Result<(), ValidationError> {
        if self.stages.is_empty() {
            return Err(ValidationError::Empty);
        }
        let mut expected_start = 0usize;
        for (i, s) in self.stages.iter().enumerate() {
            if s.start != expected_start {
                return Err(ValidationError::NonContiguous {
                    stage: i,
                    found: s.start,
                    expected: expected_start,
                });
            }
            if s.end < s.start || s.end >= chain.len() {
                return Err(ValidationError::InvalidEnd {
                    stage: i,
                    end: s.end,
                });
            }
            if s.cores == 0 {
                return Err(ValidationError::ZeroCores { stage: i });
            }
            if s.cores > 1 && !chain.is_replicable(s.start, s.end) {
                return Err(ValidationError::ReplicatedSequential {
                    stage: i,
                    start: s.start,
                    end: s.end,
                });
            }
            expected_start = s.end + 1;
        }
        if expected_start != chain.len() {
            return Err(ValidationError::IncompleteCover {
                covered: expected_start,
                total: chain.len(),
            });
        }
        Ok(())
    }

    /// Merges consecutive replicable stages that use the same core type
    /// (HeRAD's post-processing step). Never increases the period: the
    /// merged weight is the mediant of the originals, which lies between
    /// them.
    #[must_use]
    pub fn merged_replicable_stages(&self, chain: &TaskChain) -> Solution {
        let mut merged = self.clone();
        merged.merge_replicable_stages_in_place(chain);
        merged
    }

    /// In-place, allocation-free form of
    /// [`Solution::merged_replicable_stages`]: compacts the stage vector
    /// with a read/write cursor pair instead of building a new one.
    pub fn merge_replicable_stages_in_place(&mut self, chain: &TaskChain) {
        let stages = &mut self.stages;
        if stages.is_empty() {
            return;
        }
        let mut w = 0;
        for r in 1..stages.len() {
            let s = stages[r];
            let prev = &mut stages[w];
            if prev.core_type == s.core_type
                && chain.is_replicable(prev.start, prev.end)
                && chain.is_replicable(s.start, s.end)
            {
                prev.end = s.end;
                prev.cores += s.cores;
            } else {
                w += 1;
                stages[w] = s;
            }
        }
        stages.truncate(w + 1);
    }

    /// The paper's compact decomposition notation, e.g. `(5,1B),(4,5B),(4,1L)`
    /// (task count and replication per stage, as in Table II).
    #[must_use]
    pub fn decomposition(&self) -> String {
        self.stages
            .iter()
            .map(|s| format!("({},{}{})", s.num_tasks(), s.cores, s.core_type.letter()))
            .collect::<Vec<_>>()
            .join(",")
    }
}

impl fmt::Display for Solution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.stages.is_empty() {
            write!(f, "(empty)")
        } else {
            write!(f, "{}", self.decomposition())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Task;

    fn chain() -> TaskChain {
        TaskChain::new(vec![
            Task::new(4, 8, false),
            Task::new(2, 6, true),
            Task::new(3, 9, true),
            Task::new(5, 10, false),
            Task::new(1, 2, true),
        ])
    }

    fn solution() -> Solution {
        Solution::new(vec![
            Stage::new(0, 0, 1, CoreType::Big),
            Stage::new(1, 2, 2, CoreType::Little),
            Stage::new(3, 4, 1, CoreType::Big),
        ])
    }

    #[test]
    fn period_is_max_stage_weight() {
        let c = chain();
        let s = solution();
        // stage weights: 4, 15/2, 6 -> period 15/2
        assert_eq!(s.period(&c), Ratio::new(15, 2));
        assert!((s.throughput(&c) - 2.0 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn in_flight_window_is_twice_the_replicas_plus_the_links() {
        // 4 replicas over 3 stages: 2 * 4 + 2.
        assert_eq!(solution().in_flight_window(), 10);
        let one = Solution::new(vec![Stage::new(0, 4, 3, CoreType::Big)]);
        assert_eq!(one.in_flight_window(), 6);
        let stream = Solution::new(vec![
            Stage::new(0, 17, 1, CoreType::Big),
            Stage::new(18, 22, 1, CoreType::Little),
        ]);
        assert_eq!(stream.in_flight_window(), 5);
    }

    #[test]
    fn used_cores_by_type() {
        assert_eq!(solution().used_cores(), Resources::new(2, 2));
    }

    #[test]
    fn validity_checks_resources_and_period() {
        let c = chain();
        let s = solution();
        assert!(s.is_valid(&c, Resources::new(2, 2), Ratio::new(15, 2)));
        assert!(!s.is_valid(&c, Resources::new(1, 2), Ratio::new(15, 2)));
        assert!(!s.is_valid(&c, Resources::new(2, 2), Ratio::from_int(7)));
        assert!(!Solution::empty().is_valid(&c, Resources::new(9, 9), Ratio::INFINITY));
    }

    #[test]
    fn validate_rejects_gaps_overlaps_and_bad_replication() {
        let c = chain();
        assert!(solution().validate(&c).is_ok());
        // gap: second stage starts at 2
        let bad = Solution::new(vec![
            Stage::new(0, 0, 1, CoreType::Big),
            Stage::new(2, 4, 1, CoreType::Big),
        ]);
        assert_eq!(
            bad.validate(&c),
            Err(ValidationError::NonContiguous {
                stage: 1,
                found: 2,
                expected: 1
            })
        );
        // missing tail
        let bad = Solution::new(vec![Stage::new(0, 2, 1, CoreType::Big)]);
        assert_eq!(
            bad.validate(&c),
            Err(ValidationError::IncompleteCover {
                covered: 3,
                total: 5
            })
        );
        // replicated sequential stage
        let bad = Solution::new(vec![
            Stage::new(0, 2, 2, CoreType::Big),
            Stage::new(3, 4, 1, CoreType::Big),
        ]);
        assert_eq!(
            bad.validate(&c),
            Err(ValidationError::ReplicatedSequential {
                stage: 0,
                start: 0,
                end: 2
            })
        );
        // zero cores
        let bad = Solution::new(vec![Stage::new(0, 4, 0, CoreType::Big)]);
        assert_eq!(
            bad.validate(&c),
            Err(ValidationError::ZeroCores { stage: 0 })
        );
        assert_eq!(Solution::empty().validate(&c), Err(ValidationError::Empty));
    }

    #[test]
    fn validate_rejects_out_of_range_and_inverted_stage_ends() {
        let c = chain();
        // end beyond the chain (e.g. a stale solution applied to a
        // shorter chain, or a malformed deserialized stage).
        let bad = Solution::new(vec![Stage::new(0, 5, 1, CoreType::Big)]);
        assert_eq!(
            bad.validate(&c),
            Err(ValidationError::InvalidEnd { stage: 0, end: 5 })
        );
        // end before start: build the struct literally — `Stage::new`
        // debug-asserts the ordering, but deserialized stages bypass it
        // and `validate` must still reject them.
        let inverted = Stage {
            start: 1,
            end: 0,
            cores: 1,
            core_type: CoreType::Little,
        };
        let bad = Solution::new(vec![Stage::new(0, 0, 1, CoreType::Big), inverted]);
        assert_eq!(
            bad.validate(&c),
            Err(ValidationError::InvalidEnd { stage: 1, end: 0 })
        );
        // The error carries the stable code and phrasing of the variant.
        let err = bad.validate(&c).unwrap_err();
        assert_eq!(err.code(), "INVALID_STAGE_END");
        assert_eq!(err.to_string(), "stage 1 has invalid end 0");
    }

    #[test]
    fn validation_errors_keep_legacy_phrasing_and_stable_codes() {
        // Display output stays compatible with the old `Result<(), String>`
        // API so log scrapes and error-message assertions keep working.
        let cases = [
            (
                ValidationError::Empty,
                "solution has no stages",
                "EMPTY_SOLUTION",
            ),
            (
                ValidationError::NonContiguous {
                    stage: 1,
                    found: 2,
                    expected: 1,
                },
                "stage 1 starts at task 2 but task 1 expected",
                "NON_CONTIGUOUS_STAGES",
            ),
            (
                ValidationError::InvalidEnd { stage: 0, end: 9 },
                "stage 0 has invalid end 9",
                "INVALID_STAGE_END",
            ),
            (
                ValidationError::ZeroCores { stage: 2 },
                "stage 2 has zero cores",
                "ZERO_CORE_STAGE",
            ),
            (
                ValidationError::ReplicatedSequential {
                    stage: 0,
                    start: 0,
                    end: 2,
                },
                "stage 0 replicates a sequential interval [0..2]",
                "REPLICATED_SEQUENTIAL_STAGE",
            ),
            (
                ValidationError::IncompleteCover {
                    covered: 3,
                    total: 5,
                },
                "stages cover only 3 of 5 tasks",
                "INCOMPLETE_COVER",
            ),
        ];
        for (err, text, code) in cases {
            assert_eq!(err.to_string(), text);
            assert_eq!(err.code(), code);
        }
    }

    #[test]
    fn merge_joins_consecutive_replicable_same_type() {
        let c = TaskChain::new(vec![
            Task::new(4, 8, true),
            Task::new(2, 6, true),
            Task::new(3, 9, true),
        ]);
        let s = Solution::new(vec![
            Stage::new(0, 0, 1, CoreType::Big),
            Stage::new(1, 1, 2, CoreType::Big),
            Stage::new(2, 2, 1, CoreType::Little),
        ]);
        let m = s.merged_replicable_stages(&c);
        assert_eq!(m.num_stages(), 2);
        assert_eq!(m.stages()[0], Stage::new(0, 1, 3, CoreType::Big));
        // merging never increases the period
        assert!(m.period(&c) <= s.period(&c));
        assert!(m.validate(&c).is_ok());
    }

    #[test]
    fn merge_keeps_sequential_and_cross_type_boundaries() {
        let c = chain();
        let s = Solution::new(vec![
            Stage::new(0, 0, 1, CoreType::Big),
            Stage::new(1, 1, 1, CoreType::Big),
            Stage::new(2, 2, 1, CoreType::Little),
            Stage::new(3, 4, 1, CoreType::Little),
        ]);
        let m = s.merged_replicable_stages(&c);
        // [1,1] is replicable but [0,0] is sequential; [2,2] and [3,4] use
        // the same type but [3,4] is sequential -> nothing merges.
        assert_eq!(m.num_stages(), 4);
    }

    #[test]
    fn decomposition_matches_paper_format() {
        assert_eq!(solution().decomposition(), "(1,1B),(2,2L),(2,1B)");
        assert_eq!(Solution::empty().to_string(), "(empty)");
    }

    #[test]
    fn slice_helpers_match_solution_methods() {
        let c = chain();
        let s = solution();
        assert_eq!(period_of(&c, s.stages()), s.period(&c));
        assert_eq!(used_cores_of(s.stages()), s.used_cores());
        assert!(stages_are_valid(
            &c,
            Resources::new(2, 2),
            Ratio::new(15, 2),
            s.stages()
        ));
        assert!(!stages_are_valid(
            &c,
            Resources::new(1, 2),
            Ratio::new(15, 2),
            s.stages()
        ));
        assert_eq!(period_of(&c, &[]), Ratio::INFINITY);
        assert!(!stages_are_valid(
            &c,
            Resources::new(9, 9),
            Ratio::INFINITY,
            &[]
        ));
    }

    #[test]
    fn in_place_merge_matches_out_of_place() {
        let c = TaskChain::new(vec![
            Task::new(4, 8, true),
            Task::new(2, 6, true),
            Task::new(3, 9, false),
            Task::new(1, 2, true),
            Task::new(1, 2, true),
        ]);
        let cases = [
            Solution::new(vec![
                Stage::new(0, 0, 1, CoreType::Big),
                Stage::new(1, 1, 2, CoreType::Big),
                Stage::new(2, 2, 1, CoreType::Little),
                Stage::new(3, 3, 1, CoreType::Little),
                Stage::new(4, 4, 3, CoreType::Little),
            ]),
            Solution::new(vec![Stage::new(0, 4, 1, CoreType::Big)]),
            Solution::empty(),
        ];
        for s in cases {
            let mut in_place = s.clone();
            in_place.merge_replicable_stages_in_place(&c);
            assert_eq!(in_place, s.merged_replicable_stages(&c));
        }
    }

    #[test]
    fn prepend_builds_in_chain_order() {
        let mut s = Solution::empty();
        s.prepend(Stage::new(3, 4, 1, CoreType::Big));
        s.prepend(Stage::new(0, 2, 1, CoreType::Little));
        assert_eq!(s.stages()[0].start, 0);
        assert_eq!(s.stages()[1].start, 3);
    }
}
