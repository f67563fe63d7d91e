//! Task profiling: measures each task's per-frame latency on each virtual
//! core type, producing the weight table the schedulers consume (the
//! paper's Table III workflow: profile first, schedule second).
//!
//! Weights are accumulated in nanoseconds and quantized to a configurable
//! unit ([`ProfileConfig::unit_nanos`]). The schedulers only consume weight
//! *ratios*, so the unit is free — but it must be fine enough for the
//! chain at hand: quantizing a 300 ns task and a 900 ns task to whole
//! microseconds collapses both to weight 1 and erases the very asymmetry
//! the schedulers balance. The default unit is 1 ns, which preserves
//! sub-microsecond asymmetry exactly.

use crate::pipeline::RuntimeTask;
use amp_core::{CoreType, Task, TaskChain};
use std::time::Instant;

/// Profiling parameters.
#[derive(Clone, Copy, Debug)]
pub struct ProfileConfig {
    /// Measured frames per task and core type.
    pub frames: u64,
    /// Leading frames discarded (cache warm-up).
    pub warmup: u64,
    /// Weight scale: one weight unit equals this many nanoseconds. Mean
    /// latencies are divided by it, rounded up, floored at 1. Use 1 (the
    /// default) for nanosecond weights, 1000 for the paper's microsecond
    /// tables when every task is far above 1 µs.
    pub unit_nanos: u64,
}

impl Default for ProfileConfig {
    fn default() -> Self {
        ProfileConfig {
            frames: 32,
            warmup: 4,
            unit_nanos: 1,
        }
    }
}

/// Runs every task of `spec` `config.frames` times on each core type and
/// returns a [`TaskChain`] whose weights are the measured mean latencies
/// in units of [`ProfileConfig::unit_nanos`] (rounded up, minimum 1).
///
/// # Panics
/// Panics when `config` leaves no measured frames after warm-up or has a
/// zero `unit_nanos`.
#[must_use]
pub fn profile_chain<D>(
    tasks: &[RuntimeTask<D>],
    source: impl Fn(u64) -> D,
    config: &ProfileConfig,
) -> TaskChain {
    assert!(config.frames > config.warmup, "need frames after warm-up");
    assert!(config.unit_nanos > 0, "weight unit must be at least 1 ns");
    let measured: Vec<Task> = tasks
        .iter()
        .map(|task| {
            let mut weights = [0u64; 2];
            for (slot, core) in CoreType::BOTH.into_iter().enumerate() {
                let mut total_nanos = 0u64;
                for f in 0..config.frames {
                    let mut data = source(f);
                    let t0 = Instant::now();
                    task.work.process(f, &mut data, core);
                    let dt = t0.elapsed().as_nanos() as u64;
                    if f >= config.warmup {
                        total_nanos += dt;
                    }
                }
                let mean_nanos = total_nanos as f64 / (config.frames - config.warmup) as f64;
                let units = (mean_nanos / config.unit_nanos as f64).ceil() as u64;
                weights[slot] = units.max(1);
            }
            Task {
                name: task.name.clone(),
                weight_big: weights[0],
                weight_little: weights[1],
                replicable: task.replicable,
            }
        })
        .collect();
    TaskChain::new(measured)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::work::WeightedWork;

    /// A fast replicable task and a slow sequential one, profiled in
    /// microseconds.
    fn profiled_fast_slow() -> TaskChain {
        let tasks = vec![
            RuntimeTask::<u64>::new("fast", true, WeightedWork::new(200.0, 800.0)),
            RuntimeTask::<u64>::new("slow", false, WeightedWork::new(1000.0, 2000.0)),
        ];
        let us = ProfileConfig {
            unit_nanos: 1000,
            ..ProfileConfig::default()
        };
        profile_chain(&tasks, |s| s, &us)
    }

    /// The deterministic half: one task per runtime task, replicability
    /// copied. The measured weights move with host load, so
    /// `profiled_weight_timings_track_the_work_model` asserts them.
    #[test]
    fn profiled_weights_track_the_work_model() {
        let chain = profiled_fast_slow();
        assert_eq!(chain.len(), 2);
        let (t0, t1) = (chain.task(0), chain.task(1));
        assert!(!t1.replicable && t0.replicable);
    }

    #[test]
    #[ignore = "wall-clock assertion; scripts/ci.sh runs it in release mode"]
    fn profiled_weight_timings_track_the_work_model() {
        let chain = profiled_fast_slow();
        // Within 50% of the configured cost (spin calibration tolerance on
        // noisy CI machines).
        let t0 = chain.task(0);
        assert!((100..=400).contains(&t0.weight_big), "{}", t0.weight_big);
        assert!(
            (400..=1600).contains(&t0.weight_little),
            "{}",
            t0.weight_little
        );
        let t1 = chain.task(1);
        assert!(t1.weight_big > t0.weight_big);
        // The little/big ratio should roughly match the 4x / 2x setup.
        let r0 = t0.weight_little as f64 / t0.weight_big as f64;
        assert!((2.0..=8.0).contains(&r0), "ratio {r0}");
    }

    /// A 0.3 µs and a 0.9 µs task, both replicable, profiled in the
    /// default nanosecond unit.
    fn profiled_sub_microsecond() -> TaskChain {
        let tasks = vec![
            RuntimeTask::<u64>::new("tiny", true, WeightedWork::new(0.3, 0.9)),
            RuntimeTask::<u64>::new("small", true, WeightedWork::new(0.9, 2.7)),
        ];
        profile_chain(&tasks, |s| s, &ProfileConfig::default())
    }

    /// The deterministic half: one task per runtime task, replicability
    /// copied. The weights move with host load, so
    /// `sub_microsecond_asymmetry_timings_survive_quantization` asserts
    /// them.
    #[test]
    fn sub_microsecond_asymmetry_survives_quantization() {
        let chain = profiled_sub_microsecond();
        assert_eq!(chain.len(), 2);
        assert!(chain.task(0).replicable && chain.task(1).replicable);
    }

    #[test]
    #[ignore = "wall-clock assertion; scripts/ci.sh runs it in release mode"]
    fn sub_microsecond_asymmetry_timings_survive_quantization() {
        // Regression: microsecond quantization (ceil, floor 1) used to
        // collapse a 0.3 µs and a 0.9 µs task both to weight 1 on both
        // core types, hiding a 3x asymmetry from the schedulers. The
        // default nanosecond unit must keep them distinct.
        let chain = profiled_sub_microsecond();
        let (t0, t1) = (chain.task(0), chain.task(1));
        assert!(
            t0.weight_little > t0.weight_big,
            "big {} vs little {} must stay asymmetric",
            t0.weight_big,
            t0.weight_little
        );
        assert!(
            t1.weight_big > t0.weight_big,
            "0.9us ({}) must outweigh 0.3us ({})",
            t1.weight_big,
            t0.weight_big
        );
        // The 3x spread should be roughly preserved (loose bounds: spin
        // granularity and timer overhead dominate at this scale).
        let ratio = t1.weight_big as f64 / t0.weight_big as f64;
        assert!((1.5..=10.0).contains(&ratio), "ratio {ratio}");
    }
}
