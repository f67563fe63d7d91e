//! Ablation: inter-stage buffer capacity vs achieved throughput under
//! latency jitter. The analytic period P(S) assumes a perfectly smooth
//! pipeline; with noisy task latencies, small adaptor buffers stall
//! *balanced* pipelines (back-pressure), while a single dominant
//! bottleneck hides the jitter of the other stages — two regimes the
//! paper's expected-vs-real throughput gap mixes together.
//!
//! The source keeps at most `W = 2 × replicas + stages − 1` frames in
//! flight (`Solution::in_flight_window`), so buffering past what `W`
//! frames can fill buys nothing: on the balanced pipeline capacity 16
//! does no better than capacity 4, while rings of 1 or 2 frames never
//! reach the window.
//!
//! ```sh
//! cargo run --release -p amp-examples --example backpressure
//! ```

use amp_core::sched::{Herad, Scheduler};
use amp_core::{Resources, Task, TaskChain};
use amp_dvbs2::{profiled_chain, Platform};
use amp_sim::{simulate, SimConfig};

fn main() {
    // Regime 1: a perfectly balanced pipeline (every stage weight 100).
    let balanced = TaskChain::new(
        (0..6)
            .map(|i| Task {
                name: format!("t{i}"),
                weight_big: 100,
                weight_little: 250,
                replicable: false,
            })
            .collect(),
    );
    let solution = Herad::new()
        .schedule(&balanced, Resources::new(6, 0))
        .unwrap();
    println!("balanced pipeline: {solution}");
    sweep(&balanced, &solution, 0.3);

    // Regime 2: the DVB-S2 schedule, dominated by one bottleneck stage.
    let chain = profiled_chain(Platform::X7Ti);
    let solution = Herad::new()
        .schedule(&chain, Platform::X7Ti.full_resources())
        .unwrap();
    println!("\nDVB-S2 (X7 Ti, full cores): {solution}");
    sweep(&chain, &solution, 0.3);

    println!(
        "\nBalanced stages lose throughput under jitter until the adaptors\n\
         get enough room, and the in-flight window caps that room; a\n\
         dominant bottleneck absorbs its neighbours' jitter and needs\n\
         almost no buffering."
    );
}

fn sweep(chain: &TaskChain, solution: &amp_core::Solution, noise: f64) {
    let expected = solution.period(chain).to_f64();
    println!(
        "  analytic period {:.1}, window {} frames; measured period (and loss) by capacity:",
        expected,
        solution.in_flight_window()
    );
    for cap in [1u64, 2, 4, 16] {
        let noisy = simulate(
            chain,
            solution,
            &SimConfig {
                frames: 4000,
                queue_capacity: cap,
                noise: Some(noise),
                seed: 99,
                ..SimConfig::default()
            },
        );
        println!(
            "    capacity {:>3}: {:>10.1}  ({:>+5.1}%)",
            cap,
            noisy.steady_period,
            (noisy.steady_period / expected - 1.0) * 100.0
        );
    }
}
