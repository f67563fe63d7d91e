//! Simulation results.

use amp_core::CoreType;

/// Per-stage outcome of a simulation run.
#[derive(Clone, Debug)]
pub struct StageReport {
    /// Index of the stage in the solution.
    pub stage: usize,
    /// Stage service latency per frame (sum of its tasks' weights on the
    /// stage's core type), before noise.
    pub latency: u64,
    /// Number of replica workers.
    pub replicas: u64,
    /// Core type of the replicas.
    pub core_type: CoreType,
    /// Fraction of the measured span the stage's workers spent processing
    /// (1.0 = the stage is the bottleneck and never waits).
    pub utilization: f64,
}

/// Outcome of a simulation run.
#[derive(Clone, Debug)]
pub struct SimReport {
    /// Frames processed (including warm-up).
    pub frames: u64,
    /// Completion time of the last frame, in weight units.
    pub makespan: u64,
    /// Average inter-departure time of the sink over the steady-state
    /// window, in weight units.
    pub steady_period: f64,
    /// `1 / steady_period`, in frames per weight unit.
    pub throughput: f64,
    /// Mean end-to-end frame latency (first pull to sink departure) over
    /// the steady-state window.
    pub mean_latency: f64,
    /// Per-stage statistics.
    pub stages: Vec<StageReport>,
    /// Index of the stage with the highest utilization.
    pub bottleneck: usize,
}

impl SimReport {
    /// Throughput in frames per second, given the duration of one weight
    /// unit in seconds (e.g. `1e-6` when weights are microseconds).
    #[must_use]
    pub fn frames_per_second(&self, unit_seconds: f64) -> f64 {
        self.throughput / unit_seconds
    }
}
