//! The Table I / Fig. 1 / Fig. 2 simulation campaign: schedule batches of
//! synthetic chains with every strategy and collect slowdowns (vs HeRAD)
//! and core usage.

use crate::stats::{slowdown_ratio, Summary};
use amp_core::json::Json;
use amp_core::sched::{paper_strategies, schedule_many_with, SchedScratch};
use amp_core::Resources;
use amp_workload::SyntheticConfig;
use std::collections::BTreeMap;

/// Campaign parameters (defaults mirror the paper: 1000 chains of 20
/// tasks).
#[derive(Clone, Copy, Debug)]
pub struct CampaignConfig {
    /// Chains per (resources, SR) combination.
    pub chains: usize,
    /// RNG seed for the workload batch.
    pub seed: u64,
    /// Stateless ratio of the batch.
    pub stateless_ratio: f64,
    /// Resource pool.
    pub resources: Resources,
}

impl CampaignConfig {
    /// The paper's configuration for one (R, SR) cell.
    #[must_use]
    pub fn paper(resources: Resources, stateless_ratio: f64) -> Self {
        CampaignConfig {
            chains: 1000,
            seed: 0x7ab1e1,
            stateless_ratio,
            resources,
        }
    }
}

/// Average core usage of a strategy across a batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct CoreUsage {
    /// Mean big cores used.
    pub big: f64,
    /// Mean little cores used.
    pub little: f64,
}

/// Per-strategy campaign outcome.
#[derive(Clone, Debug)]
pub struct StrategyStats {
    /// Strategy display name.
    pub name: String,
    /// Slowdown ratio vs HeRAD per chain (1.0 = optimal).
    pub slowdowns: Vec<f64>,
    /// Core usage per chain `(big, little)`.
    pub cores: Vec<(u64, u64)>,
}

impl StrategyStats {
    /// The paper's 4-tuple for this strategy.
    #[must_use]
    pub fn summary(&self) -> Summary {
        Summary::from_slowdowns(&self.slowdowns)
    }

    /// Mean core usage.
    #[must_use]
    pub fn core_usage(&self) -> CoreUsage {
        if self.cores.is_empty() {
            return CoreUsage::default();
        }
        let n = self.cores.len() as f64;
        CoreUsage {
            big: self.cores.iter().map(|c| c.0 as f64).sum::<f64>() / n,
            little: self.cores.iter().map(|c| c.1 as f64).sum::<f64>() / n,
        }
    }
}

/// Outcome of one (R, SR) sweep: stats per strategy, in
/// [`paper_strategies`] order (HeRAD first).
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// The configuration that produced this outcome.
    pub config: CampaignConfig,
    /// Stats per strategy.
    pub strategies: Vec<StrategyStats>,
}

impl SweepOutcome {
    /// Paired (HeRAD, FERTAC) core usage differences per chain — the
    /// Fig. 2 heatmap input. Returns `(Δbig, Δlittle, fertac_optimal)`.
    #[must_use]
    pub fn fertac_vs_herad_core_deltas(&self) -> Vec<(i64, i64, bool)> {
        let herad = &self.strategies[0];
        let fertac = self
            .strategies
            .iter()
            .find(|s| s.name == "FERTAC")
            .expect("FERTAC is part of the campaign");
        herad
            .cores
            .iter()
            .zip(&fertac.cores)
            .zip(&fertac.slowdowns)
            .map(|(((hb, hl), (fb, fl)), &s)| {
                (
                    *fb as i64 - *hb as i64,
                    *fl as i64 - *hl as i64,
                    s <= 1.0 + 1e-12,
                )
            })
            .collect()
    }
}

/// Table I as a JSON document: the chain count per cell and one row per
/// (pool, stateless ratio, strategy), in campaign order. The codec has no
/// floats, so every fractional figure is a decimal string with four
/// places (`"1.0417"`; `"inf"` where a strategy found no schedule).
#[must_use]
pub fn table1_json(outcomes: &[SweepOutcome]) -> Json {
    let fixed = |x: f64| Json::Str(format!("{x:.4}"));
    let rows = outcomes
        .iter()
        .flat_map(|outcome| {
            outcome.strategies.iter().map(move |s| {
                let summary = s.summary();
                let usage = s.core_usage();
                let resources = outcome.config.resources;
                Json::Obj(BTreeMap::from([
                    ("big".to_string(), Json::Int(resources.big)),
                    ("little".to_string(), Json::Int(resources.little)),
                    (
                        "stateless_ratio".to_string(),
                        fixed(outcome.config.stateless_ratio),
                    ),
                    ("strategy".to_string(), Json::Str(s.name.clone())),
                    (
                        "optimal_pct".to_string(),
                        fixed(summary.optimal_fraction * 100.0),
                    ),
                    ("avg_slowdown".to_string(), fixed(summary.avg)),
                    ("median_slowdown".to_string(), fixed(summary.med)),
                    ("max_slowdown".to_string(), fixed(summary.max)),
                    ("big_used".to_string(), fixed(usage.big)),
                    ("little_used".to_string(), fixed(usage.little)),
                ]))
            })
        })
        .collect();
    let chains = outcomes.first().map_or(0, |o| o.config.chains as u64);
    Json::Obj(BTreeMap::from([
        ("chains".to_string(), Json::Int(chains)),
        ("rows".to_string(), Json::Arr(rows)),
    ]))
}

/// Runs the campaign for one (R, SR) cell on the current thread — see
/// [`run_campaign_with_workers`].
#[must_use]
pub fn run_campaign(config: &CampaignConfig) -> SweepOutcome {
    run_campaign_with_workers(config, 1)
}

/// Runs the campaign for one (R, SR) cell: schedules every chain with the
/// five paper strategies and records slowdowns vs HeRAD plus core usage.
///
/// Each strategy's batch goes through [`schedule_many_with`], which fans
/// the chains across `workers` threads; the worker scratches persist
/// across all five strategy batches, so HeRAD's sweep tables (and every
/// strategy's buffers) stay warm from batch to batch. The recorded
/// numbers are bit-identical for every worker count. HeRAD runs first so
/// its periods serve as the slowdown reference for the rest.
///
/// # Panics
/// Panics if HeRAD fails to schedule (impossible with non-empty
/// resources).
#[must_use]
pub fn run_campaign_with_workers(config: &CampaignConfig, workers: usize) -> SweepOutcome {
    let workload = SyntheticConfig::paper(config.stateless_ratio);
    let chains = workload.generate_batch(config.seed, config.chains);
    let strategies = paper_strategies();

    let jobs: Vec<_> = chains.iter().map(|c| (c, config.resources)).collect();
    let mut scratches: Vec<SchedScratch> = (0..workers.max(1).min(jobs.len().max(1)))
        .map(|_| SchedScratch::new())
        .collect();
    let solutions: Vec<_> = strategies
        .iter()
        .map(|s| schedule_many_with(&**s, &jobs, &mut scratches))
        .collect();
    let optimal: Vec<_> = solutions[0]
        .iter()
        .zip(&chains)
        .map(|(s, chain)| {
            s.as_ref()
                .expect("HeRAD always finds a schedule")
                .period(chain)
        })
        .collect();

    let stats = strategies
        .iter()
        .zip(&solutions)
        .map(|(strategy, batch)| {
            let mut st = StrategyStats {
                name: strategy.name().to_string(),
                slowdowns: Vec::with_capacity(chains.len()),
                cores: Vec::with_capacity(chains.len()),
            };
            for ((solution, chain), &opt) in batch.iter().zip(&chains).zip(&optimal) {
                match solution {
                    Some(solution) => {
                        st.slowdowns
                            .push(slowdown_ratio(solution.period(chain), opt));
                        let used = solution.used_cores();
                        st.cores.push((used.big, used.little));
                    }
                    None => {
                        st.slowdowns.push(f64::INFINITY);
                        st.cores.push((0, 0));
                    }
                }
            }
            st
        })
        .collect();
    SweepOutcome {
        config: *config,
        strategies: stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CampaignConfig {
        CampaignConfig {
            chains: 25,
            seed: 42,
            stateless_ratio: 0.5,
            resources: Resources::new(4, 4),
        }
    }

    #[test]
    fn campaign_produces_consistent_stats() {
        let out = run_campaign(&tiny());
        assert_eq!(out.strategies.len(), 5);
        // HeRAD is its own reference: all slowdowns exactly 1.
        let herad = &out.strategies[0];
        assert_eq!(herad.name, "HeRAD");
        assert!(herad.slowdowns.iter().all(|&s| (s - 1.0).abs() < 1e-12));
        assert!((herad.summary().optimal_fraction - 1.0).abs() < 1e-12);
        // Heuristics are never better than optimal.
        for s in &out.strategies[1..] {
            assert_eq!(s.slowdowns.len(), 25);
            assert!(
                s.slowdowns.iter().all(|&x| x >= 1.0 - 1e-12),
                "{} has sub-optimal slowdown",
                s.name
            );
        }
        // OTAC (B) uses no little cores and vice versa.
        let otac_b = out
            .strategies
            .iter()
            .find(|s| s.name == "OTAC (B)")
            .unwrap();
        assert!(otac_b.cores.iter().all(|&(_, l)| l == 0));
        let otac_l = out
            .strategies
            .iter()
            .find(|s| s.name == "OTAC (L)")
            .unwrap();
        assert!(otac_l.cores.iter().all(|&(b, _)| b == 0));
    }

    #[test]
    fn fertac_deltas_align_with_slowdowns() {
        let out = run_campaign(&tiny());
        let deltas = out.fertac_vs_herad_core_deltas();
        assert_eq!(deltas.len(), 25);
        let fertac = out.strategies.iter().find(|s| s.name == "FERTAC").unwrap();
        for ((_, _, opt), &s) in deltas.iter().zip(&fertac.slowdowns) {
            assert_eq!(*opt, s <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn campaigns_are_reproducible() {
        let a = run_campaign(&tiny());
        let b = run_campaign(&tiny());
        for (x, y) in a.strategies.iter().zip(&b.strategies) {
            assert_eq!(x.slowdowns, y.slowdowns);
            assert_eq!(x.cores, y.cores);
        }
    }

    #[test]
    fn worker_count_does_not_change_the_outcome() {
        let reference = run_campaign(&tiny());
        for workers in [2, 8] {
            let parallel = run_campaign_with_workers(&tiny(), workers);
            for (x, y) in reference.strategies.iter().zip(&parallel.strategies) {
                assert_eq!(x.name, y.name);
                assert_eq!(x.slowdowns, y.slowdowns, "{} at {workers} workers", x.name);
                assert_eq!(x.cores, y.cores, "{} at {workers} workers", x.name);
            }
        }
    }
}
