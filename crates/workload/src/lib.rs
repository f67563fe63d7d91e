//! # amp-workload — synthetic task chains for the amp-sched evaluation
//!
//! Reproduces the workload generator of the paper's simulation campaign
//! (Section VI-A-1): chains of `n` tasks whose big-core weights are drawn
//! uniformly from an integer interval, whose little-core weights apply a
//! uniform real slowdown rounded up, and where a configurable *stateless
//! ratio* (SR) of the tasks is replicable.

use amp_core::{Resources, Task, TaskChain};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// How replicable tasks are chosen.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ReplicableSelection {
    /// Exactly `round(SR · n)` tasks, at uniformly random positions — the
    /// paper's "stateless ratio set equal to" phrasing.
    ExactCount,
    /// Each task is replicable independently with probability SR.
    Bernoulli,
}

/// Parameters of the synthetic generator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SyntheticConfig {
    /// Number of tasks per chain.
    pub num_tasks: usize,
    /// Inclusive range of big-core weights (paper: `[1, 100]`).
    pub weight_range: (u64, u64),
    /// Range of the little-core slowdown factor (paper: `[1, 5]`); the
    /// little weight is `ceil(big · slowdown)`.
    pub slowdown_range: (f64, f64),
    /// Fraction of replicable tasks (paper: 0.2 / 0.5 / 0.8).
    pub stateless_ratio: f64,
    /// Replicable-task selection policy.
    pub selection: ReplicableSelection,
}

impl SyntheticConfig {
    /// The paper's simulation configuration: 20 tasks, weights `[1, 100]`,
    /// slowdown `[1, 5]`, with the given stateless ratio.
    #[must_use]
    pub fn paper(stateless_ratio: f64) -> Self {
        SyntheticConfig {
            num_tasks: 20,
            weight_range: (1, 100),
            slowdown_range: (1.0, 5.0),
            stateless_ratio,
            selection: ReplicableSelection::ExactCount,
        }
    }

    /// Same generator with a different chain length (used by the Fig. 3/4
    /// execution-time sweeps: 20, 40, ..., 160 tasks).
    #[must_use]
    pub fn with_num_tasks(mut self, num_tasks: usize) -> Self {
        self.num_tasks = num_tasks;
        self
    }

    /// Generates one chain from the given RNG.
    ///
    /// # Panics
    /// Panics if the configuration is degenerate (no tasks, empty weight
    /// range, slowdown below 1, or SR outside `[0, 1]`).
    #[must_use]
    pub fn generate(&self, rng: &mut impl Rng) -> TaskChain {
        assert!(self.num_tasks > 0, "chains need at least one task");
        assert!(
            self.weight_range.0 >= 1 && self.weight_range.0 <= self.weight_range.1,
            "weight range must be non-empty and positive"
        );
        assert!(
            self.slowdown_range.0 >= 1.0 && self.slowdown_range.0 <= self.slowdown_range.1,
            "slowdown must be at least 1 and the range non-empty"
        );
        assert!(
            (0.0..=1.0).contains(&self.stateless_ratio),
            "stateless ratio must be within [0, 1]"
        );
        let n = self.num_tasks;
        let replicable = self.pick_replicable(rng, n);
        let tasks = (0..n)
            .map(|i| {
                let big = rng.gen_range(self.weight_range.0..=self.weight_range.1);
                let slowdown = rng.gen_range(self.slowdown_range.0..=self.slowdown_range.1);
                let little = (big as f64 * slowdown).ceil() as u64;
                Task {
                    name: format!("t{i}"),
                    weight_big: big,
                    weight_little: little,
                    replicable: replicable[i],
                }
            })
            .collect();
        TaskChain::new(tasks)
    }

    /// Generates `count` chains from a deterministic seed (one RNG stream,
    /// so `(seed, count)` fully identifies the batch).
    #[must_use]
    pub fn generate_batch(&self, seed: u64, count: usize) -> Vec<TaskChain> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count).map(|_| self.generate(&mut rng)).collect()
    }

    fn pick_replicable(&self, rng: &mut impl Rng, n: usize) -> Vec<bool> {
        match self.selection {
            ReplicableSelection::ExactCount => {
                let count = (self.stateless_ratio * n as f64).round() as usize;
                let mut flags = vec![false; n];
                let mut idx: Vec<usize> = (0..n).collect();
                idx.shuffle(rng);
                for &i in idx.iter().take(count.min(n)) {
                    flags[i] = true;
                }
                flags
            }
            ReplicableSelection::Bernoulli => {
                (0..n).map(|_| rng.gen_bool(self.stateless_ratio)).collect()
            }
        }
    }
}

/// The resource pairs of the paper's Table I: `(16B,4L)`, `(10B,10L)`,
/// `(4B,16L)`.
#[must_use]
pub fn table1_resources() -> [Resources; 3] {
    [
        Resources::new(16, 4),
        Resources::new(10, 10),
        Resources::new(4, 16),
    ]
}

/// The stateless ratios of the paper's simulation campaign.
pub const PAPER_STATELESS_RATIOS: [f64; 3] = [0.2, 0.5, 0.8];

/// Chain lengths of the Fig. 3 execution-time sweep: `20·i, i ∈ [1, 8]`.
#[must_use]
pub fn fig3_task_counts() -> Vec<usize> {
    (1..=8).map(|i| 20 * i).collect()
}

/// Resource pairs of the Fig. 4 execution-time sweep: `(20i, 20i), i ∈ [1, 8]`.
#[must_use]
pub fn fig4_resources() -> Vec<Resources> {
    (1..=8).map(|i| Resources::new(20 * i, 20 * i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let cfg = SyntheticConfig::paper(0.5);
        let mut rng = StdRng::seed_from_u64(42);
        let c = cfg.generate(&mut rng);
        assert_eq!(c.len(), 20);
        assert_eq!(c.replicable_count(), 10);
        for t in c.tasks() {
            assert!((1..=100).contains(&t.weight_big));
            assert!(t.weight_little >= t.weight_big);
            assert!(t.weight_little <= t.weight_big * 5);
        }
    }

    #[test]
    fn stateless_ratio_is_exact_for_exact_count() {
        for sr in [0.2, 0.5, 0.8] {
            let cfg = SyntheticConfig::paper(sr);
            for c in cfg.generate_batch(7, 20) {
                assert_eq!(c.replicable_count(), (20.0 * sr).round() as usize);
            }
        }
    }

    #[test]
    fn bernoulli_selection_hits_the_ratio_on_average() {
        let cfg = SyntheticConfig {
            selection: ReplicableSelection::Bernoulli,
            ..SyntheticConfig::paper(0.5)
        };
        let total: usize = cfg
            .generate_batch(3, 200)
            .iter()
            .map(TaskChain::replicable_count)
            .sum();
        let avg = total as f64 / 200.0;
        assert!((avg - 10.0).abs() < 1.0, "average replicables {avg}");
    }

    #[test]
    fn batches_are_deterministic_per_seed() {
        let cfg = SyntheticConfig::paper(0.2);
        let a = cfg.generate_batch(99, 5);
        let b = cfg.generate_batch(99, 5);
        let c = cfg.generate_batch(100, 5);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.tasks(), y.tasks());
        }
        assert!(a.iter().zip(&c).any(|(x, y)| x.tasks() != y.tasks()));
    }

    #[test]
    fn slowdown_of_one_keeps_weights_equal() {
        let cfg = SyntheticConfig {
            slowdown_range: (1.0, 1.0),
            ..SyntheticConfig::paper(0.5)
        };
        let mut rng = StdRng::seed_from_u64(1);
        let c = cfg.generate(&mut rng);
        for t in c.tasks() {
            assert_eq!(t.weight_big, t.weight_little);
        }
    }

    #[test]
    fn paper_sweep_parameters() {
        assert_eq!(fig3_task_counts(), vec![20, 40, 60, 80, 100, 120, 140, 160]);
        assert_eq!(fig4_resources().len(), 8);
        assert_eq!(fig4_resources()[7], Resources::new(160, 160));
        assert_eq!(table1_resources()[0], Resources::new(16, 4));
    }

    #[test]
    #[should_panic(expected = "stateless ratio")]
    fn rejects_bad_ratio() {
        let cfg = SyntheticConfig {
            stateless_ratio: 1.5,
            ..SyntheticConfig::paper(0.5)
        };
        let mut rng = StdRng::seed_from_u64(1);
        let _ = cfg.generate(&mut rng);
    }

    #[test]
    #[should_panic(expected = "slowdown")]
    fn rejects_sub_unit_slowdown() {
        let cfg = SyntheticConfig {
            slowdown_range: (0.5, 2.0),
            ..SyntheticConfig::paper(0.5)
        };
        let mut rng = StdRng::seed_from_u64(1);
        let _ = cfg.generate(&mut rng);
    }
}
