//! Measured results of a runtime execution.

use amp_core::CoreType;
use std::time::Duration;

/// Per-stage runtime statistics.
#[derive(Clone, Debug)]
pub struct StageRuntimeReport {
    /// Stage index in the solution.
    pub stage: usize,
    /// Replica count.
    pub replicas: u64,
    /// Core type of the replicas.
    pub core_type: CoreType,
    /// Total processing time across replicas, in seconds.
    pub busy_seconds: f64,
    /// Fraction of `replicas × wall-clock` spent processing.
    pub utilization: f64,
}

/// One live reconfiguration of a running pipeline: the migration from one
/// stage decomposition to the next at an epoch frame boundary.
#[derive(Clone, Debug)]
pub struct ReconfigEvent {
    /// The epoch the migration started (epochs count from 1 at launch, so
    /// the first migration begins epoch 2).
    pub epoch: u64,
    /// First frame of the new epoch: every frame below it departed through
    /// the old decomposition, every frame at or above it through the new.
    pub boundary_frame: u64,
    /// Controller-side downtime in microseconds: quiesce request →
    /// workers resumed on the new decomposition (includes the incremental
    /// re-solve, the drain and the re-wiring).
    pub downtime_us: f64,
    /// Sink-observed downtime in microseconds: the departure gap between
    /// frame `boundary_frame - 1` and frame `boundary_frame` (0 when
    /// either frame does not exist). Includes the pipeline re-fill.
    pub sink_gap_us: f64,
    /// Stages of the new decomposition that required migration (resized
    /// or freshly cut spans, per [`amp_core::sched::ScheduleDiff`]).
    pub migrated_stages: usize,
    /// Stages identical across the boundary.
    pub unchanged_stages: usize,
    /// Worker threads spawned for the new epoch (pool growth).
    pub workers_added: usize,
    /// Worker threads left parked by the new epoch (pool shrink).
    pub workers_parked: usize,
}

/// Outcome of a pipeline run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Frames that reached the sink.
    pub frames: u64,
    /// Wall-clock duration of the run, in seconds.
    pub elapsed_seconds: f64,
    /// Steady-state throughput: frames per second measured over sink
    /// departures after the warm-up window. Falls back to [`fps_total`]
    /// when the run terminated before a steady-state window existed —
    /// check [`steady_state_valid`] before trusting it as a steady-state
    /// figure.
    ///
    /// The pipeline keeps at most 4096 sampled departure times. Up to
    /// 4096 departures the warm-up cut is exact. Above that it falls on
    /// the sample grid: at most `frames / 2048` departures before the
    /// exact cut, so the window is slightly longer.
    ///
    /// [`fps_total`]: RunReport::fps_total
    /// [`steady_state_valid`]: RunReport::steady_state_valid
    pub fps: f64,
    /// Whole-run throughput `frames / elapsed` (includes pipeline fill).
    pub fps_total: f64,
    /// Measured period, in microseconds — always consistent with `fps`
    /// (`period_us == 1e6 / fps` whenever `fps > 0`, and `0.0` only when
    /// no frame departed at all). Measured over the same window as `fps`,
    /// so above 4096 departures its warm-up cut falls on the same sample
    /// grid.
    pub period_us: f64,
    /// `true` when `fps`/`period_us` were measured over a real
    /// steady-state window (at least two departures after warm-up with a
    /// positive time span). `false` means the run terminated inside the
    /// warm-up window and both fields fell back to the whole-run
    /// throughput.
    pub steady_state_valid: bool,
    /// Number of epochs executed (1 + completed live reconfigurations).
    pub epochs: u64,
    /// Every completed live reconfiguration, in order.
    pub reconfigs: Vec<ReconfigEvent>,
    /// Per-stage statistics of the *final* epoch's decomposition,
    /// measured over that epoch only.
    pub stages: Vec<StageRuntimeReport>,
}

impl RunReport {
    /// Information throughput in Mb/s given the number of information bits
    /// carried per frame (e.g. `K × R` for a DVB-S2 frame).
    #[must_use]
    pub fn mbps(&self, info_bits_per_frame: f64) -> f64 {
        self.fps * info_bits_per_frame / 1e6
    }

    /// The run's wall-clock duration.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        Duration::from_secs_f64(self.elapsed_seconds)
    }
}
