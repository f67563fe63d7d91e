//! Shared instance generators: seeded `rand`-style generation for the
//! fuzz runner plus `proptest` strategies for every crate's property
//! tests.
//!
//! Both front-ends draw from the same distribution design. Plain uniform
//! sampling almost never produces the instances that break interval-mapping
//! schedulers — ties, degenerate weights, all-sequential chains,
//! single-task chains, starved pools — so the generator mixes *profiles*:
//!
//! * weights: uniform, all-equal, all-unit (the fully degenerate chain),
//!   little-faster-than-big (stresses the core-type tie-breaks);
//! * replicability: Bernoulli mixes, all-sequential, all-replicable;
//! * shape: single-task chains and zero-core-of-one-type pools appear
//!   with fixed probability; fully empty pools (the infeasible case) are
//!   generated occasionally so `None` agreement is also checked.
//!
//! [`perf_chains`] draws the scheduler perf workload from the same
//! generator: the allocation and cold-solve count gates and the release
//! timing gates all run on it.

use crate::instance::{Instance, TaskDef};
use amp_core::{Resources, TaskChain};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bounds for generated instances. The defaults keep the exhaustive
/// oracle fast (n ≤ 8, pools ≤ (4, 4)) — the regime the brute-force
/// search handles in well under a millisecond per instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GenConfig {
    /// Maximum chain length (inclusive). Minimum is always 1.
    pub max_tasks: usize,
    /// Maximum task weight (inclusive). Minimum is always 1.
    pub max_weight: u64,
    /// Maximum big-core count (inclusive).
    pub max_big: u64,
    /// Maximum little-core count (inclusive).
    pub max_little: u64,
    /// Whether zero-core pools (infeasible instances) may be generated.
    pub allow_empty_pool: bool,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig {
            max_tasks: 8,
            max_weight: 12,
            max_big: 4,
            max_little: 4,
            allow_empty_pool: true,
        }
    }
}

impl GenConfig {
    /// A smaller configuration for per-crate property tests, where the
    /// oracle runs inside `proptest` cases (n ≤ 6, pools ≤ (3, 3)).
    #[must_use]
    pub fn small() -> Self {
        GenConfig {
            max_tasks: 6,
            max_weight: 10,
            max_big: 3,
            max_little: 3,
            allow_empty_pool: true,
        }
    }
}

/// Weight profile of one generated chain.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WeightProfile {
    /// Independent uniform weights; little ≥ big (the paper's shape).
    Uniform,
    /// Every task has the same (big, little) weights — maximal ties.
    Equal,
    /// Every weight is 1 — the fully degenerate chain.
    Unit,
    /// Little cores are *faster* than big ones (inverted heterogeneity).
    LittleFast,
}

const WEIGHT_PROFILES: [WeightProfile; 4] = [
    WeightProfile::Uniform,
    WeightProfile::Equal,
    WeightProfile::Unit,
    WeightProfile::LittleFast,
];

/// Deterministically generates the instance for one fuzz seed.
///
/// The full instance — length, profile, weights, replicability, pool —
/// is a pure function of `(seed, cfg)`, so a failing seed printed by the
/// runner is always reproducible.
#[must_use]
pub fn instance_for_seed(seed: u64, cfg: &GenConfig) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = if rng.gen_bool(0.15) {
        1 // single-task chains punch above their weight in bug-finding
    } else {
        rng.gen_range(1..=cfg.max_tasks.max(1))
    };

    let profile = WEIGHT_PROFILES[rng.gen_range(0..WEIGHT_PROFILES.len())];
    let (eq_big, eq_little) = (
        rng.gen_range(1..=cfg.max_weight),
        rng.gen_range(1..=cfg.max_weight),
    );
    // Replicability: 0.0 = all sequential, 1.0 = all replicable.
    let rep_p = [0.0, 0.5, 1.0][rng.gen_range(0..3usize)];

    let tasks = (0..n)
        .map(|_| {
            let (wb, wl) = match profile {
                WeightProfile::Uniform => {
                    let wb = rng.gen_range(1..=cfg.max_weight);
                    let factor = rng.gen_range(1..=4u64);
                    (wb, (wb * factor).min(cfg.max_weight.max(wb * factor)))
                }
                WeightProfile::Equal => (eq_big, eq_little),
                WeightProfile::Unit => (1, 1),
                WeightProfile::LittleFast => {
                    let wl = rng.gen_range(1..=cfg.max_weight);
                    let factor = rng.gen_range(1..=4u64);
                    (wl * factor, wl)
                }
            };
            TaskDef::new(wb, wl, rng.gen_bool(rep_p))
        })
        .collect();

    let (big, little) = loop {
        let big = rng.gen_range(0..=cfg.max_big);
        let little = rng.gen_range(0..=cfg.max_little);
        if big + little > 0 || cfg.allow_empty_pool {
            break (big, little);
        }
    };
    Instance::new(format!("seed-{seed}"), tasks, big, little)
}

/// The pool every [`perf_chains`] chain is solved on: each cold solve
/// fills the whole `n·13·13` HeRAD table.
pub const PERF_POOL: Resources = Resources {
    big: 12,
    little: 12,
};

/// Per-axis core counts of [`perf_grid`].
pub const PERF_STEPS: [u64; 4] = [3, 6, 9, 12];

/// The scheduler perf workload: the first 8 seeded chains with at least
/// 8 tasks (`max_tasks` 24, `max_weight` 16), so every solve exercises
/// the DP table. A pure function of the generator.
#[must_use]
pub fn perf_chains() -> Vec<TaskChain> {
    let cfg = GenConfig {
        max_tasks: 24,
        max_weight: 16,
        // The pools are fixed; these bounds only steer the generator's
        // rejection loop, and so pin which chains are drawn.
        max_big: 4,
        max_little: 4,
        allow_empty_pool: false,
    };
    (0u64..)
        .map(|seed| instance_for_seed(seed, &cfg))
        .filter(|inst| inst.len() >= 8)
        .take(8)
        .map(|inst| inst.chain())
        .collect()
}

/// Every chain at every `(b, ℓ) ∈ PERF_STEPS²`, chain-major with pools
/// ascending: the Table II / campaign sweep order that one keyed HeRAD
/// table answers with one cold solve per chain.
#[must_use]
pub fn perf_grid(chains: &[TaskChain]) -> Vec<(&TaskChain, Resources)> {
    chains
        .iter()
        .flat_map(|chain| {
            PERF_STEPS.iter().flat_map(move |&b| {
                PERF_STEPS
                    .iter()
                    .map(move |&l| (chain, Resources::new(b, l)))
            })
        })
        .collect()
}

/// A proptest strategy for a single task definition.
#[must_use]
pub fn task_strategy(max_weight: u64) -> impl Strategy<Value = TaskDef> {
    (1..=max_weight, 1..=max_weight, any::<bool>())
        .prop_map(|(wb, wl, rep)| TaskDef::new(wb, wl, rep))
}

/// A proptest strategy over whole instances, mixing uniform chains with
/// the degenerate profiles (equal weights, unit weights, all-sequential,
/// all-replicable, single task). Pools always contain at least one core —
/// property tests usually want feasible instances; the runner covers the
/// empty-pool agreement case separately.
#[must_use]
pub fn instance_strategy(cfg: GenConfig) -> impl Strategy<Value = Instance> {
    let max_weight = cfg.max_weight;
    (
        0..6u8, // profile selector
        prop::collection::vec(task_strategy(max_weight), 1..=cfg.max_tasks),
        (1..=max_weight, 1..=max_weight),
        0..=cfg.max_big,
        0..=cfg.max_little,
    )
        .prop_map(
            move |(profile, mut tasks, (eq_big, eq_little), big, little)| {
                match profile {
                    0 => {} // uniform: keep the drawn tasks as they are
                    1 => {
                        for t in &mut tasks {
                            t.weight_big = eq_big;
                            t.weight_little = eq_little;
                        }
                    }
                    2 => {
                        for t in &mut tasks {
                            t.weight_big = 1;
                            t.weight_little = 1;
                        }
                    }
                    3 => {
                        for t in &mut tasks {
                            t.replicable = false;
                        }
                    }
                    4 => {
                        for t in &mut tasks {
                            t.replicable = true;
                        }
                    }
                    _ => tasks.truncate(1),
                }
                Instance::new("prop", tasks, big, little)
            },
        )
        .prop_filter("pools must hold at least one core", |inst| {
            inst.big + inst.little > 0
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        let chains = perf_chains();
        let again = perf_chains();
        assert_eq!(chains.len(), 8);
        for (c, d) in chains.iter().zip(&again) {
            assert_eq!(c.tasks(), d.tasks());
            assert!((8..=24).contains(&c.len()));
        }
        let grid = perf_grid(&chains);
        assert_eq!(grid.len(), 8 * 16);
        for (i, &(chain, r)) in grid.iter().enumerate() {
            assert!(std::ptr::eq(chain, &chains[i / 16]), "chain-major at {i}");
            assert_eq!(r, Resources::new(PERF_STEPS[i / 4 % 4], PERF_STEPS[i % 4]));
        }
    }

    #[test]
    fn seeded_generation_is_deterministic() {
        let cfg = GenConfig::default();
        for seed in 0..50 {
            assert_eq!(instance_for_seed(seed, &cfg), instance_for_seed(seed, &cfg));
        }
    }

    #[test]
    fn generated_instances_respect_bounds() {
        let cfg = GenConfig::default();
        for seed in 0..500 {
            let inst = instance_for_seed(seed, &cfg);
            assert!(!inst.tasks.is_empty() && inst.tasks.len() <= cfg.max_tasks);
            assert!(inst.big <= cfg.max_big && inst.little <= cfg.max_little);
            for t in &inst.tasks {
                assert!(t.weight_big >= 1 && t.weight_little >= 1);
            }
            // The chain constructor must accept every generated instance.
            let _ = inst.chain();
        }
    }

    #[test]
    fn profiles_actually_appear() {
        let cfg = GenConfig::default();
        let mut single = 0;
        let mut empty_pool = 0;
        let mut all_seq = 0;
        let mut all_rep = 0;
        let mut unit = 0;
        for seed in 0..2000 {
            let inst = instance_for_seed(seed, &cfg);
            single += usize::from(inst.len() == 1);
            empty_pool += usize::from(inst.big + inst.little == 0);
            all_seq += usize::from(inst.tasks.iter().all(|t| !t.replicable));
            all_rep += usize::from(inst.tasks.iter().all(|t| t.replicable));
            unit += usize::from(
                inst.tasks
                    .iter()
                    .all(|t| t.weight_big == 1 && t.weight_little == 1),
            );
        }
        assert!(single > 100, "single-task chains too rare: {single}");
        assert!(empty_pool > 10, "empty pools too rare: {empty_pool}");
        assert!(all_seq > 100, "all-sequential chains too rare: {all_seq}");
        assert!(all_rep > 100, "all-replicable chains too rare: {all_rep}");
        assert!(unit > 100, "unit-weight chains too rare: {unit}");
    }
}
