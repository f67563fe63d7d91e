//! Reproduces **Fig. 6**: the qualitative summary of the strategies —
//! schedule quality (average slowdown vs HeRAD across the Table I
//! campaign), execution-time class (the measured mean solve time on
//! paper-style chains of 20 tasks on 10B+10L and of 100 tasks on
//! 40B+40L, SR 0.5), and the average distance between achieved and
//! best-possible throughput in the DVB-S2 experiment.
//!
//! Usage: `fig6 [--chains N]` (default 200 chains per cell for a quick
//! but representative aggregate; use 1000 for the paper's exact shape).

use amp_core::sched::paper_strategies;
use amp_core::Resources;
use amp_dvbs2::{profiled_chain, table2_configs};
use amp_experiments::{mean, run_campaign, time_strategies, CampaignConfig, TimingConfig};
use amp_sim::{simulate, SimConfig};
use amp_workload::{table1_resources, PAPER_STATELESS_RATIOS};
use std::collections::BTreeMap;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let chains = args
        .iter()
        .position(|a| a == "--chains")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--chains takes a number"))
        .unwrap_or(200);

    // Schedule quality: mean slowdown across the whole simulation campaign.
    let mut slowdowns: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for resources in table1_resources() {
        for sr in PAPER_STATELESS_RATIOS {
            let mut config = CampaignConfig::paper(resources, sr);
            config.chains = chains;
            let outcome = run_campaign(&config);
            for s in &outcome.strategies {
                slowdowns
                    .entry(s.name.clone())
                    .or_default()
                    .extend(s.slowdowns.iter().filter(|x| x.is_finite()));
            }
        }
    }

    // Real-world distance to the best theoretical throughput: per Table II
    // config, "measured" (noisy simulation) vs HeRAD's expected period.
    let mut distance: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for cfg in table2_configs() {
        let chain = profiled_chain(cfg.platform);
        let best_expected = paper_strategies()[0]
            .schedule(&chain, cfg.resources)
            .expect("HeRAD schedules the receiver")
            .period(&chain)
            .to_f64();
        for strategy in paper_strategies() {
            if let Some(solution) = strategy.schedule(&chain, cfg.resources) {
                let report = simulate(
                    &chain,
                    &solution,
                    &SimConfig {
                        frames: 2000,
                        noise: Some(0.08),
                        seed: 0xF166,
                        ..SimConfig::default()
                    },
                );
                // distance = 1 - achieved/best (throughput ratio)
                let d = 1.0 - best_expected / report.steady_period;
                distance
                    .entry(strategy.name().to_string())
                    .or_default()
                    .push(d * 100.0);
            }
        }
    }

    // Execution-time class: mean solve time from a Table I point to a
    // larger chain on a larger pool, every strategy measured on the same
    // chains.
    let time_at = |tasks: usize, cores: u64| {
        let mut config = TimingConfig::paper(tasks, Resources::new(cores, cores), 0.5);
        config.chains = 10;
        config.twocatac_task_limit = usize::MAX;
        time_strategies(&config)
    };
    let (small, large) = (time_at(20, 10), time_at(100, 40));

    println!("Fig 6: advantages and limitations of the strategies");
    println!(
        "{:<10} {:>18} {:>20} {:>26}",
        "Strategy", "Avg slowdown", "Exec time class", "Avg diff to best thpt (%)"
    );
    // `time_strategies` measures the paper's strategies in their order.
    for (lo, hi) in small.iter().zip(&large) {
        let name = lo.name.as_str();
        let q = slowdowns.get(name).map(|v| mean(v)).unwrap_or(f64::NAN);
        let d = distance.get(name).map(|v| mean(v)).unwrap_or(f64::NAN);
        let class = match (lo.mean_us, hi.mean_us) {
            (Some(lo), Some(hi)) => format!("{} -> {}", human_time(lo), human_time(hi)),
            _ => "-".to_string(),
        };
        println!("{name:<10} {q:>18.3} {class:>20} {d:>25.1}%");
    }
}

/// A duration in microseconds, in the largest unit that keeps it >= 1.
fn human_time(us: f64) -> String {
    if us < 1e3 {
        format!("{us:.0} us")
    } else if us < 1e6 {
        format!("{:.1} ms", us / 1e3)
    } else {
        format!("{:.1} s", us / 1e6)
    }
}
