//! Deterministic mirror of the runtime's live reconfiguration.
//!
//! The threaded runtime (amp-runtime) migrates a pipeline between stage
//! decompositions at an **epoch frame boundary**: the source is quiesced,
//! every in-flight frame drains to the sink, the adaptors are re-wired,
//! and the new decomposition resumes at the boundary frame. This module
//! reproduces those semantics in the exact recurrence of [`simulate`]:
//! each epoch runs the standard recurrence over its own frame range with
//! fresh (empty) buffers, and the epoch's clock starts at the previous
//! epoch's last sink departure (the drain barrier).
//!
//! The simulated migration itself costs zero time — the model isolates
//! the *pipeline* cost of a migration (drain + re-fill, visible as a sink
//! departure gap at the boundary) from the implementation cost (thread
//! re-wiring), which only the threaded runtime can measure.
//!
//! [`simulate`]: crate::simulate

use crate::pipeline::{run_epoch, SimConfig};
use amp_core::{Solution, TaskChain};

/// One epoch boundary of a simulated reconfiguration.
#[derive(Clone, Copy, Debug)]
pub struct SimBoundary {
    /// First frame of the new epoch.
    pub frame: u64,
    /// Sink departure gap across the boundary, in weight units: departure
    /// of `frame` minus departure of `frame - 1` (drain + re-fill cost).
    pub sink_gap: u64,
}

/// Outcome of [`simulate_reconfig`].
#[derive(Clone, Debug)]
pub struct ReconfigSimReport {
    /// Total frames across all epochs.
    pub frames: u64,
    /// Completion time of the last frame, in weight units.
    pub makespan: u64,
    /// Sink departure time of every frame, in frame order. Exactly
    /// `frames` entries, non-decreasing — the zero-lost/zero-reordered
    /// invariant the conformance suite pins.
    pub departures: Vec<u64>,
    /// One entry per migration, in order.
    pub boundaries: Vec<SimBoundary>,
    /// Steady-state period of each epoch, measured over the trailing
    /// `1 - warmup_fraction` of the epoch's own departures (falls back to
    /// the epoch's span when it is too short for a window).
    pub epoch_periods: Vec<f64>,
}

/// Simulates a pipeline that starts on `initial` and migrates to
/// `steps[j].1` at frame boundary `steps[j].0`, running `config.frames`
/// frames in total.
///
/// Epoch `j` processes frames `[b_j, b_{j+1})` with fresh buffers; its
/// clock starts at epoch `j-1`'s last sink departure (the quiesce-and-
/// drain barrier of the threaded runtime). Noise, buffer capacity and the
/// warm-up fraction follow `config`, noise re-seeded per epoch from
/// `config.seed + epoch`.
///
/// # Panics
/// Panics if any solution is invalid for the chain, `config.frames == 0`,
/// `queue_capacity == 0`, or the boundaries are not strictly increasing
/// inside `(0, frames)`.
#[must_use]
pub fn simulate_reconfig(
    chain: &TaskChain,
    initial: &Solution,
    steps: &[(u64, Solution)],
    config: &SimConfig,
) -> ReconfigSimReport {
    assert!(config.frames > 0, "need at least one frame");
    assert!(config.queue_capacity > 0, "buffers need capacity >= 1");
    let mut epochs: Vec<(u64, &Solution)> = vec![(0, initial)];
    for (boundary, solution) in steps {
        let prev = epochs.last().expect("initial epoch present").0;
        assert!(
            *boundary > prev && *boundary < config.frames,
            "boundary {boundary} must lie strictly inside ({prev}, {})",
            config.frames
        );
        epochs.push((*boundary, solution));
    }
    for (_, s) in &epochs {
        s.validate(chain)
            .expect("simulate_reconfig requires structurally valid solutions");
    }

    let mut departures: Vec<u64> = Vec::with_capacity(config.frames as usize);
    let mut boundaries = Vec::with_capacity(steps.len());
    let mut epoch_periods = Vec::with_capacity(epochs.len());
    let mut t0 = 0u64; // epoch clock: last departure of the previous epoch

    for (e, &(base, solution)) in epochs.iter().enumerate() {
        let end = epochs.get(e + 1).map_or(config.frames, |&(b, _)| b);
        let epoch_cfg = SimConfig {
            frames: end - base,
            seed: config.seed.wrapping_add(e as u64),
            ..*config
        };
        let run = run_epoch(chain, solution, &epoch_cfg, t0);
        if base > 0 {
            let before = *departures.last().expect("previous epoch departed");
            boundaries.push(SimBoundary {
                frame: base,
                sink_gap: run.departures[0].saturating_sub(before),
            });
        }
        // Steady period over the epoch's own trailing window.
        epoch_periods.push(run.steady_period(t0));
        t0 = *run.departures.last().expect("an epoch has frames");
        departures.extend_from_slice(&run.departures);
    }

    ReconfigSimReport {
        frames: config.frames,
        makespan: *departures.last().expect("at least one frame"),
        departures,
        boundaries,
        epoch_periods,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use amp_core::{CoreType, Stage, Task};

    fn chain() -> TaskChain {
        TaskChain::new(vec![
            Task::new(4, 8, false),
            Task::new(6, 12, true),
            Task::new(2, 4, false),
        ])
    }

    #[test]
    fn no_steps_matches_plain_simulate() {
        let c = chain();
        let s = Solution::new(vec![
            Stage::new(0, 0, 1, CoreType::Big),
            Stage::new(1, 1, 2, CoreType::Big),
            Stage::new(2, 2, 1, CoreType::Big),
        ]);
        let cfg = SimConfig::with_frames(800);
        let plain = simulate(&c, &s, &cfg);
        let r = simulate_reconfig(&c, &s, &[], &cfg);
        assert_eq!(r.makespan, plain.makespan);
        assert_eq!(r.frames, 800);
        assert!(r.boundaries.is_empty());
        assert_eq!(r.epoch_periods.len(), 1);
        assert!((r.epoch_periods[0] - plain.steady_period).abs() < 1e-9);
    }

    #[test]
    fn departures_are_complete_ordered_and_gapped_at_the_boundary() {
        let c = chain();
        let wide = Solution::new(vec![
            Stage::new(0, 0, 1, CoreType::Big),
            Stage::new(1, 1, 2, CoreType::Big),
            Stage::new(2, 2, 1, CoreType::Big),
        ]);
        let narrow = Solution::new(vec![Stage::new(0, 2, 1, CoreType::Big)]);
        let cfg = SimConfig::with_frames(600);
        let r = simulate_reconfig(&c, &wide, &[(300, narrow)], &cfg);
        // Zero lost / duplicated / reordered.
        assert_eq!(r.departures.len(), 600);
        assert!(r.departures.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(r.boundaries.len(), 1);
        assert_eq!(r.boundaries[0].frame, 300);
        // The narrow epoch runs at the chain's serial period (12), the
        // wide one at its bottleneck (4).
        assert!((r.epoch_periods[0] - 4.0).abs() < 0.1, "{r:?}");
        assert!((r.epoch_periods[1] - 12.0).abs() < 0.1, "{r:?}");
    }

    #[test]
    fn migrating_to_a_wider_pool_speeds_the_tail_up() {
        let c = chain();
        let narrow = Solution::new(vec![Stage::new(0, 2, 1, CoreType::Big)]);
        let wide = Solution::new(vec![
            Stage::new(0, 0, 1, CoreType::Big),
            Stage::new(1, 1, 2, CoreType::Big),
            Stage::new(2, 2, 1, CoreType::Big),
        ]);
        let cfg = SimConfig::with_frames(1000);
        let stay = simulate_reconfig(&c, &narrow, &[], &cfg);
        let grow = simulate_reconfig(&c, &narrow, &[(200, wide)], &cfg);
        assert!(
            grow.makespan < stay.makespan,
            "grow {} vs stay {}",
            grow.makespan,
            stay.makespan
        );
    }

    #[test]
    fn multiple_boundaries_chain_their_clocks() {
        let c = chain();
        let a = Solution::new(vec![Stage::new(0, 2, 1, CoreType::Big)]);
        let b = Solution::new(vec![
            Stage::new(0, 1, 1, CoreType::Big),
            Stage::new(2, 2, 1, CoreType::Big),
        ]);
        let cfg = SimConfig::with_frames(300);
        let r = simulate_reconfig(&c, &a, &[(100, b), (200, a.clone())], &cfg);
        assert_eq!(r.boundaries.len(), 2);
        assert_eq!(r.departures.len(), 300);
        assert_eq!(r.epoch_periods.len(), 3);
        // Epoch clocks only move forward.
        assert!(r.departures.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    #[should_panic(expected = "strictly inside")]
    fn rejects_out_of_range_boundaries() {
        let c = chain();
        let s = Solution::new(vec![Stage::new(0, 2, 1, CoreType::Big)]);
        let _ = simulate_reconfig(&c, &s, &[(500, s.clone())], &SimConfig::with_frames(500));
    }

    #[test]
    #[should_panic(expected = "strictly inside")]
    fn rejects_non_increasing_boundaries() {
        let c = chain();
        let s = Solution::new(vec![Stage::new(0, 2, 1, CoreType::Big)]);
        let steps = [(200, s.clone()), (200, s.clone())];
        let _ = simulate_reconfig(&c, &s, &steps, &SimConfig::with_frames(500));
    }
}
