//! Calibrated spin-work: deterministic busy CPU time.
//!
//! Virtual big/little cores are realized by making a task's execution cost
//! depend on the core type it was scheduled to — a task with weight `w` µs
//! on that type spins for `w` µs of real CPU time. The spin loop does real
//! arithmetic (a xorshift mix) so the optimizer cannot elide it and the
//! cost scales with cycles rather than with timer reads.

use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Iterations-per-microsecond calibration of the spin kernel.
#[derive(Clone, Copy, Debug)]
pub struct SpinCalibration {
    iters_per_micro: f64,
}

impl SpinCalibration {
    /// Measures the host: grows a batch of kernel iterations until it
    /// takes at least 2 ms, times that batch ten more times and derives
    /// iterations per microsecond from the fastest run. A stall (a
    /// preempted virtual CPU) only ever lengthens a batch, so the fastest
    /// one is the undisturbed rate; a rate taken from a stalled batch
    /// would shorten every later spin.
    #[must_use]
    pub fn calibrate() -> SpinCalibration {
        let time = |iters: u64| {
            let start = Instant::now();
            let _ = spin_kernel(iters, 0x9e37_79b9);
            start.elapsed()
        };
        let mut iters: u64 = 10_000;
        while time(iters) < Duration::from_millis(2) {
            iters = iters.saturating_mul(2);
        }
        let fastest = (0..10).map(|_| time(iters)).min().expect("ten runs");
        let micros = fastest.as_secs_f64() * 1e6;
        SpinCalibration {
            iters_per_micro: (iters as f64 / micros).max(1.0),
        }
    }

    /// The process-wide calibration, measured once on first use.
    pub fn global() -> &'static SpinCalibration {
        static CAL: OnceLock<SpinCalibration> = OnceLock::new();
        CAL.get_or_init(SpinCalibration::calibrate)
    }

    /// Spin-kernel iterations corresponding to `micros` microseconds.
    #[must_use]
    pub fn iters_for_micros(&self, micros: f64) -> u64 {
        (micros * self.iters_per_micro).round().max(0.0) as u64
    }

    /// Burns approximately `micros` microseconds of CPU time; returns the
    /// kernel's accumulator so callers can fold it into a checksum (keeping
    /// the work observable).
    #[must_use]
    pub fn spin(&self, micros: f64, seed: u64) -> u64 {
        spin_kernel(self.iters_for_micros(micros), seed)
    }
}

/// Burns `micros` µs with the process-wide calibration.
#[must_use]
pub fn spin_for_micros(micros: f64, seed: u64) -> u64 {
    SpinCalibration::global().spin(micros, seed)
}

/// Burns CPU time proportional to `weight` µs and mixes the result into the
/// seed (convenience for task bodies).
#[must_use]
pub fn calibrated_spin(weight: u64, seed: u64) -> u64 {
    spin_for_micros(weight as f64, seed)
}

#[inline(never)]
fn spin_kernel(iters: u64, seed: u64) -> u64 {
    let mut x = seed | 1;
    for _ in 0..iters {
        // xorshift64* step: cheap, dependency-chained, not elidable.
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    std::hint::black_box(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_is_positive() {
        let cal = SpinCalibration::calibrate();
        assert!(cal.iters_per_micro >= 1.0);
        assert!(cal.iters_for_micros(100.0) > cal.iters_for_micros(10.0));
        assert_eq!(cal.iters_for_micros(0.0), 0);
    }

    #[test]
    fn spin_duration_tracks_request() {
        let cal = SpinCalibration::global();
        let start = std::time::Instant::now();
        let _ = cal.spin(2_000.0, 42);
        let short = start.elapsed();
        let start = std::time::Instant::now();
        let _ = cal.spin(20_000.0, 42);
        let long = start.elapsed();
        // 10x the work should take markedly longer; generous bounds because
        // CI machines are noisy.
        assert!(
            long > short * 3,
            "short {short:?} vs long {long:?} not proportional"
        );
    }

    #[test]
    fn kernel_result_depends_on_seed() {
        assert_ne!(spin_kernel(1000, 1), spin_kernel(1000, 2));
    }
}
