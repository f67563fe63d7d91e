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
//! push[-1][f] = push[k-1][f - W]                         // source credit window
//! ```
//!
//! The source always has a frame, but it holds at most
//! `W = Solution::in_flight_window()` frames in flight: frame `f` enters
//! stage 0 once frame `f - W` has left the sink (`push[-1][f]` is the
//! run's start for `f < W`). Departures leave in frame order whenever the last stage runs
//! one replica, and then this is the runtime's rule that `f - W + 1`
//! frames have departed. With a replicated last stage the model's fixed
//! round-robin can let one replica's frames drift behind another's under
//! noise, which the runtime's source, claiming frames as replicas free up,
//! does not; the per-frame form keeps such drift from throttling the
//! model. The sink buffer is unbounded. Computing frames in increasing
//! order and stages in increasing index only ever references
//! already-computed entries (`f - r_i`, `f - C` and `f - W` are strictly
//! smaller), so one pass yields the exact blocking-pipeline execution.

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

    let run = run_epoch(chain, solution, config, 0);
    let stages = solution.stages();
    let departures = &run.departures;
    let frames = departures.len();
    let makespan = departures[frames - 1];
    let steady_period = run.steady_period(0);
    let throughput = if steady_period > 0.0 {
        1.0 / steady_period
    } else {
        0.0
    };

    // Utilization: processing time per replica over the steady-state
    // window, measured against a common clock (the sink's departure span)
    // so that a free-running source does not outrank the true bottleneck.
    let window_span = (departures[frames - 1] - departures[run.warm]).max(1);
    let stage_reports: Vec<StageReport> = stages
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let utilization = (run.busy[i] as f64) / (s.cores as f64 * window_span as f64);
            StageReport {
                stage: i,
                latency: chain.interval_sum(s.start, s.end, s.core_type),
                replicas: s.cores,
                core_type: s.core_type,
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
        mean_latency: run.mean_latency,
        stages: stage_reports,
        bottleneck,
    }
}

/// One run of the recurrence: what [`simulate`] reports on and what
/// [`crate::simulate_reconfig`] strings together, one run per epoch.
pub(crate) struct EpochRun {
    /// Sink departure of every frame.
    pub(crate) departures: Vec<u64>,
    /// Leading frames left out of the steady-state figures.
    pub(crate) warm: usize,
    /// Mean sink departure minus stage-0 start over frames `warm..`.
    pub(crate) mean_latency: f64,
    /// Per-stage service time summed over frames `warm..`.
    pub(crate) busy: Vec<u64>,
}

impl EpochRun {
    /// Mean inter-departure time over frames `warm..`; when that window
    /// is empty, the span from `t0` to the last departure.
    pub(crate) fn steady_period(&self, t0: u64) -> f64 {
        let last = self.departures.len() - 1;
        let window = last - self.warm;
        if window > 0 {
            (self.departures[last] - self.departures[self.warm]) as f64 / window as f64
        } else {
            self.departures[last].saturating_sub(t0) as f64
        }
    }
}

/// The recurrence of the module docs over frames `0..config.frames`,
/// with the source open from `t0` on (an epoch's drain barrier; 0 for a
/// plain run). The caller has validated `solution` and `config`.
pub(crate) fn run_epoch(
    chain: &TaskChain,
    solution: &Solution,
    config: &SimConfig,
    t0: u64,
) -> EpochRun {
    let stages = solution.stages();
    let k = stages.len();
    let frames = config.frames as usize;
    let cap = config.queue_capacity as usize;
    let warm = (((frames as f64) * config.warmup_fraction).floor() as usize).min(frames - 1);

    // Per-stage service latency (per frame) on the stage's core type.
    let latency: Vec<u64> = stages
        .iter()
        .map(|s| chain.interval_sum(s.start, s.end, s.core_type))
        .collect();
    let replicas: Vec<usize> = stages.iter().map(|s| s.cores as usize).collect();
    let window = solution.in_flight_window() as usize;

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

    // pull/push matrices, frame-major: entry `f * k + i`.
    let mut pull = vec![0u64; frames * k];
    let mut push = vec![0u64; frames * k];
    let mut busy = vec![0u64; k];
    for f in 0..frames {
        for i in 0..k {
            let input_ready = if i > 0 {
                push[f * k + i - 1]
            } else if f >= window {
                push[(f - window) * k + k - 1]
            } else {
                t0
            };
            let worker_free = if f >= replicas[i] {
                push[(f - replicas[i]) * k + i]
            } else {
                t0
            };
            let start = input_ready.max(worker_free);
            let dt = service(i);
            if f >= warm {
                busy[i] += dt;
            }
            // Back-pressure: the frame enters the downstream buffer only
            // once the consumer has drained frame `f - cap`.
            let space_ready = if i + 1 < k && f >= cap {
                pull[(f - cap) * k + i + 1]
            } else {
                0
            };
            pull[f * k + i] = start;
            push[f * k + i] = (start + dt).max(space_ready);
        }
    }

    let departures: Vec<u64> = (0..frames).map(|f| push[f * k + k - 1]).collect();
    let mean_latency = (warm..frames)
        .map(|f| (departures[f] - pull[f * k]) as f64)
        .sum::<f64>()
        / (frames - warm) as f64;
    EpochRun {
        departures,
        warm,
        mean_latency,
        busy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_core::sched::{Herad, Scheduler};
    use amp_core::{CoreType, Resources, Stage, Task};
    use amp_dvbs2::{profiled_chain, Platform};

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

    /// The recurrence without the credit window, as it stood before the
    /// window: a frame enters stage 0 as soon as its replica is free. The
    /// oracle of the window tests; returns each frame's stage-0 start and
    /// sink departure.
    fn windowless(chain: &TaskChain, solution: &Solution, config: &SimConfig) -> Vec<(u64, u64)> {
        let stages = solution.stages();
        let k = stages.len();
        let frames = config.frames as usize;
        let cap = config.queue_capacity as usize;
        let latency: Vec<u64> = stages
            .iter()
            .map(|s| chain.interval_sum(s.start, s.end, s.core_type))
            .collect();
        let replicas: Vec<usize> = stages.iter().map(|s| s.cores as usize).collect();
        let mut noise_rng = config
            .noise
            .map(|x| (StdRng::seed_from_u64(config.seed), x));
        let mut service = |stage: usize| -> u64 {
            match &mut noise_rng {
                None => latency[stage],
                Some((rng, x)) => {
                    let factor = rng.gen_range(1.0 - *x..=1.0 + *x);
                    ((latency[stage] as f64) * factor).round().max(1.0) as u64
                }
            }
        };
        let mut pull = vec![vec![0u64; k]; frames];
        let mut push = vec![vec![0u64; k]; frames];
        for f in 0..frames {
            for i in 0..k {
                let input_ready = if i == 0 { 0 } else { push[f][i - 1] };
                let worker_free = if f >= replicas[i] {
                    push[f - replicas[i]][i]
                } else {
                    0
                };
                let start = input_ready.max(worker_free);
                let done = start + service(i);
                let space_ready = if i + 1 < k && f >= cap {
                    pull[f - cap][i + 1]
                } else {
                    0
                };
                pull[f][i] = start;
                push[f][i] = done.max(space_ready);
            }
        }
        (0..frames).map(|f| (pull[f][0], push[f][k - 1])).collect()
    }

    /// The steady period of `frames` as [`simulate`] measures it.
    fn steady(frames: &[(u64, u64)], config: &SimConfig) -> f64 {
        let last = frames.len() - 1;
        let warm = (((frames.len() as f64) * config.warmup_fraction).floor() as usize).min(last);
        (frames[last].1 - frames[warm].1) as f64 / (last - warm) as f64
    }

    /// SplitMix64.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A seeded chain of 1–12 tasks (big weights 1–100, little ones up
    /// to 5 times slower, one task in eight inverted), a pool of up to
    /// 6+6 cores, and HeRAD's schedule for them.
    fn herad_instance(seed: u64) -> (TaskChain, Solution) {
        let mut state = seed;
        let n = 1 + (next(&mut state) % 12) as usize;
        let tasks = (0..n)
            .map(|_| {
                let w = 1 + next(&mut state) % 100;
                let slow = 1 + next(&mut state) % 5;
                let (big, little) = if next(&mut state).is_multiple_of(8) {
                    (w * slow, w)
                } else {
                    (w, w * slow)
                };
                Task::new(big, little, next(&mut state).is_multiple_of(2))
            })
            .collect();
        let chain = TaskChain::new(tasks);
        let (big, little) = loop {
            let (b, l) = (next(&mut state) % 7, next(&mut state) % 7);
            if b + l > 0 {
                break (b, l);
            }
        };
        let solution = Herad::new()
            .schedule(&chain, Resources::new(big, little))
            .expect("a non-empty pool schedules any chain");
        (chain, solution)
    }

    #[test]
    fn rings_of_one_or_two_frames_never_meet_the_window() {
        // With rings of C frames a pipeline holds at most one frame per
        // replica plus C per ring, which for C <= 2 is at most W. The
        // model keeps that bound whenever its replicas' frames stay in
        // step: always with 1-frame rings, and with 2-frame rings when
        // there is no noise or some stage runs one replica.
        let mut checked = 0;
        for seed in 0..300 {
            let (c, s) = herad_instance(seed);
            let sequential = s.stages().iter().any(|st| st.cores == 1);
            for (cap, noise) in [(1, None), (1, Some(0.3)), (2, None), (2, Some(0.3))] {
                if cap == 2 && noise.is_some() && !sequential {
                    continue;
                }
                let cfg = SimConfig {
                    frames: 600,
                    queue_capacity: cap,
                    noise,
                    seed,
                    ..SimConfig::default()
                };
                let want: Vec<u64> = windowless(&c, &s, &cfg).iter().map(|f| f.1).collect();
                let got = run_epoch(&c, &s, &cfg, 0).departures;
                assert_eq!(
                    got, want,
                    "seed {seed}, {s}, capacity {cap}, noise {noise:?}"
                );
                checked += 1;
            }
        }
        assert!(checked > 1000, "{checked} runs");

        // The exception: two replicas on every stage split even and odd
        // frames into two lanes that 2-frame rings never couple, so under
        // noise one lane drifts ahead until the window holds it back.
        let c = TaskChain::new(vec![Task::new(10, 20, true), Task::new(10, 20, true)]);
        let s = Solution::new(vec![
            Stage::new(0, 0, 2, CoreType::Big),
            Stage::new(1, 1, 2, CoreType::Little),
        ]);
        let cfg = SimConfig {
            frames: 600,
            queue_capacity: 2,
            noise: Some(0.3),
            ..SimConfig::default()
        };
        let lanes: Vec<u64> = windowless(&c, &s, &cfg).iter().map(|f| f.1).collect();
        assert_ne!(run_epoch(&c, &s, &cfg, 0).departures, lanes);
    }

    #[test]
    fn stream_schedule_holds_the_window_at_the_same_period() {
        // perfbench's `stream`: the DVB-S2 chain (X7 Ti profile) on 1B+1L
        // by HeRAD, (18,1B),(5,1L), with 16-frame rings.
        let c = profiled_chain(Platform::X7Ti);
        let s = Herad::new().schedule(&c, Resources::new(1, 1)).unwrap();
        assert_eq!(s.decomposition(), "(18,1B),(5,1L)");
        assert_eq!(s.in_flight_window(), 5);
        let p = s.period(&c).to_f64();
        let cfg = SimConfig::with_frames(2000);
        let r = simulate(&c, &s, &cfg);
        assert_eq!(r.steady_period, p);
        assert_eq!(r.mean_latency, 5.0 * p);
        // Without the window the 16-frame ring fills: 16 + 2 periods.
        let before = windowless(&c, &s, &cfg);
        let latency = before[400..]
            .iter()
            .map(|&(entry, departure)| (departure - entry) as f64)
            .sum::<f64>()
            / 1600.0;
        assert_eq!(latency, 18.0 * p);
        for noise in [0.1, 0.3, 0.5] {
            let cfg = SimConfig {
                noise: Some(noise),
                seed: 0xD0B5,
                ..cfg
            };
            let r = simulate(&c, &s, &cfg);
            let plain = steady(&windowless(&c, &s, &cfg), &cfg);
            assert!(
                (r.steady_period / plain - 1.0).abs() < 1e-3,
                "noise {noise}: {} against {plain}",
                r.steady_period
            );
            assert!(
                r.mean_latency < 5.5 * p,
                "noise {noise}: {}",
                r.mean_latency
            );
        }
    }

    #[test]
    fn ten_percent_jitter_keeps_the_period_within_one_and_a_half_percent() {
        let mut instances = 0;
        let mut worst = 0.0f64;
        let mut seed = 0;
        while instances < 2000 {
            seed += 1;
            let (c, s) = herad_instance(seed);
            if s.num_stages() < 2 {
                continue;
            }
            instances += 1;
            let cfg = SimConfig {
                noise: Some(0.1),
                seed,
                ..SimConfig::default()
            };
            let windowed = simulate(&c, &s, &cfg).steady_period;
            let plain = steady(&windowless(&c, &s, &cfg), &cfg);
            let excess = windowed / plain - 1.0;
            assert!(
                excess <= 0.015,
                "seed {seed}, {s}: period {windowed} against {plain} without the window"
            );
            worst = worst.max(excess);
        }
        println!(
            "{instances} schedules, worst period excess {:.3}%",
            worst * 100.0
        );
    }
}
