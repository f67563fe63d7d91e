//! Reproduces **Table I**: simulation statistics for all scheduling
//! strategies — per (R, SR) cell, the percentage of optimal periods, the
//! average/median/maximum slowdown ratios vs HeRAD, and the average core
//! usage per type.
//!
//! Usage: `table1 [--chains N] [--json PATH]` (default 1000 chains, as in
//! the paper). `--json` also writes the table as canonical JSON, one row
//! per (pool, stateless ratio, strategy).

use amp_experiments::{run_campaign, table1_json, CampaignConfig};
use amp_workload::{table1_resources, PAPER_STATELESS_RATIOS};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let chains = flag_value(&args, "--chains")
        .map(|v| v.parse().expect("--chains takes a number"))
        .unwrap_or(1000);
    let json_path = flag_value(&args, "--json");

    println!("Table I: simulation statistics ({chains} chains of 20 tasks per cell)");
    println!(
        "{:<10} {:<10} {:<6} {:>32} {:>16}",
        "R=(b,l)", "Strategy", "SR", "(%opt, avg, med, max)", "(b_used, l_used)"
    );

    let mut all = Vec::new();
    for resources in table1_resources() {
        for sr in PAPER_STATELESS_RATIOS {
            let mut config = CampaignConfig::paper(resources, sr);
            config.chains = chains;
            let outcome = run_campaign(&config);
            for s in &outcome.strategies {
                let summary = s.summary();
                let usage = s.core_usage();
                println!(
                    "{:<10} {:<10} {:<6.1} {:>32} ({:6.2}, {:6.2})",
                    resources.to_string(),
                    s.name,
                    sr,
                    summary.table_cell(),
                    usage.big,
                    usage.little
                );
            }
            all.push(outcome);
        }
        println!();
    }

    if let Some(path) = json_path {
        std::fs::write(path, table1_json(&all).render()).expect("writing the JSON report");
        eprintln!("wrote {path}");
    }
}

fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}
