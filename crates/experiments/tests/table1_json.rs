//! `table1 --json` writes the table it prints: a canonical JSON document
//! with one row per (pool, stateless ratio, strategy).

use std::collections::BTreeSet;
use std::process::Command;

use amp_core::json::Json;
use amp_core::sched::paper_strategies;
use amp_workload::{table1_resources, PAPER_STATELESS_RATIOS};

#[test]
fn json_report_holds_one_row_per_table_cell_and_strategy() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("table1.json");
    let _ = std::fs::remove_file(&path);
    let status = Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(["--chains", "2", "--json"])
        .arg(&path)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("table1 runs");
    assert!(status.success());

    let text = std::fs::read_to_string(&path).expect("table1 wrote the report");
    let doc = Json::parse(&text).expect("the report is canonical JSON");
    assert_eq!(doc.render(), text, "the report is in canonical form");
    let doc = doc.as_obj().expect("an object");
    assert_eq!(doc["chains"].as_int(), Some(2));
    let rows = doc["rows"].as_arr().expect("a rows array");

    let mut want = BTreeSet::new();
    for r in table1_resources() {
        for sr in PAPER_STATELESS_RATIOS {
            for s in paper_strategies() {
                want.insert((r.big, r.little, format!("{sr:.4}"), s.name().to_string()));
            }
        }
    }
    let got: BTreeSet<_> = rows
        .iter()
        .map(|row| {
            let row = row.as_obj().expect("rows are objects");
            for figure in [
                "optimal_pct",
                "avg_slowdown",
                "median_slowdown",
                "max_slowdown",
            ] {
                let text = row[figure].as_str().expect("figures are strings");
                assert!(text.parse::<f64>().is_ok(), "{figure} = {text:?}");
            }
            (
                row["big"].as_int().expect("big"),
                row["little"].as_int().expect("little"),
                row["stateless_ratio"].as_str().expect("ratio").to_string(),
                row["strategy"].as_str().expect("strategy").to_string(),
            )
        })
        .collect();
    assert_eq!(rows.len(), want.len(), "one row per cell and strategy");
    assert_eq!(got, want);
}
