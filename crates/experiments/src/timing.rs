//! Strategy execution-time measurement (Figs. 3 and 4).

use amp_core::sched::{Fertac, Herad, Otac, Scheduler, Twocatac};
use amp_core::Resources;
use amp_workload::SyntheticConfig;
use std::time::Instant;

/// Timing sweep parameters (paper: 50 chains per point).
#[derive(Clone, Copy, Debug)]
pub struct TimingConfig {
    /// Chains averaged per point.
    pub chains: usize,
    /// Number of tasks per chain.
    pub num_tasks: usize,
    /// Stateless ratio.
    pub stateless_ratio: f64,
    /// Resource pool.
    pub resources: Resources,
    /// RNG seed.
    pub seed: u64,
    /// Skip 2CATAC beyond this many tasks (the paper stops at 60, where
    /// its recursion's time had grown exponentially; the memoized search
    /// keeps the cut so the figures span the paper's axes).
    pub twocatac_task_limit: usize,
    /// Skip HeRAD beyond this many tasks x cores (driver-imposed budget;
    /// `usize::MAX` = never skip).
    pub herad_cell_limit: usize,
}

impl TimingConfig {
    /// The paper's measurement shape for a given point.
    #[must_use]
    pub fn paper(num_tasks: usize, resources: Resources, stateless_ratio: f64) -> Self {
        TimingConfig {
            chains: 50,
            num_tasks,
            stateless_ratio,
            resources,
            seed: 0xF16,
            twocatac_task_limit: 60,
            herad_cell_limit: usize::MAX,
        }
    }
}

/// Mean execution time per strategy for one sweep point.
#[derive(Clone, Debug)]
pub struct StrategyTiming {
    /// Strategy name.
    pub name: String,
    /// Mean scheduling time in microseconds (`None` = skipped at this
    /// point).
    pub mean_us: Option<f64>,
}

/// Measures mean scheduling time per strategy at one sweep point.
#[must_use]
pub fn time_strategies(config: &TimingConfig) -> Vec<StrategyTiming> {
    let workload = SyntheticConfig::paper(config.stateless_ratio).with_num_tasks(config.num_tasks);
    let chains = workload.generate_batch(config.seed, config.chains);
    let cells = config.num_tasks * (config.resources.total() as usize);

    let mut out = Vec::new();
    let strategies: Vec<(Box<dyn Scheduler>, bool)> = vec![
        (Box::new(Herad::new()), cells <= config.herad_cell_limit),
        (
            Box::new(Twocatac::new()),
            config.num_tasks <= config.twocatac_task_limit,
        ),
        (Box::new(Fertac), true),
        (Box::new(Otac::big()), true),
        (Box::new(Otac::little()), true),
    ];
    for (strategy, enabled) in &strategies {
        if !enabled {
            out.push(StrategyTiming {
                name: strategy.name().to_string(),
                mean_us: None,
            });
            continue;
        }
        let start = Instant::now();
        for chain in &chains {
            let solution = strategy.schedule(chain, config.resources);
            std::hint::black_box(&solution);
        }
        let mean_us = start.elapsed().as_secs_f64() * 1e6 / chains.len() as f64;
        out.push(StrategyTiming {
            name: strategy.name().to_string(),
            mean_us: Some(mean_us),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_covers_all_strategies() {
        let cfg = TimingConfig {
            chains: 3,
            num_tasks: 10,
            stateless_ratio: 0.5,
            resources: Resources::new(4, 4),
            seed: 1,
            twocatac_task_limit: 60,
            herad_cell_limit: usize::MAX,
        };
        let t = time_strategies(&cfg);
        assert_eq!(t.len(), 5);
        for s in &t {
            assert!(s.mean_us.expect("all enabled") > 0.0, "{}", s.name);
        }
    }

    #[test]
    fn limits_disable_expensive_strategies() {
        let cfg = TimingConfig {
            chains: 2,
            num_tasks: 10,
            stateless_ratio: 0.5,
            resources: Resources::new(2, 2),
            seed: 1,
            twocatac_task_limit: 5,
            herad_cell_limit: 1,
        };
        let t = time_strategies(&cfg);
        assert!(t[0].mean_us.is_none(), "HeRAD should be skipped");
        assert!(t[1].mean_us.is_none(), "2CATAC should be skipped");
        assert!(t[2].mean_us.is_some());
    }
}
