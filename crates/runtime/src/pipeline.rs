//! Pipeline construction, execution and live elastic reconfiguration.
//!
//! A pipeline runs as a sequence of **epochs**. Each epoch executes one
//! stage decomposition over a contiguous frame range `[base, boundary)`;
//! a live reconfiguration ends the current epoch at a frame boundary
//! (quiesce the source, drain every in-flight frame to the sink), re-wires
//! the adaptors and worker roles to the new decomposition, and resumes at
//! the boundary. Worker threads are spawned once and *re-assigned* across
//! epochs — a migration never tears the thread pool down, which is what
//! makes it cheaper than a stop-the-world restart.

use crate::adaptor::OrderedRing;
use crate::report::{ReconfigEvent, RunReport, StageRuntimeReport};
use crate::sink::{Sink, SinkRecord};
use crate::vcore::VirtualMachine;
use crate::work::TaskWork;
use amp_core::sched::{schedule_diff, ChainTable, Herad, ScheduleDiff};
use amp_core::{CoreType, Solution, Stage, TaskChain};
use parking_lot::{Condvar, Mutex};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// One task of a runtime pipeline: the scheduling metadata (name,
/// replicability) plus the work executed per frame.
pub struct RuntimeTask<D> {
    /// Task name (diagnostics only).
    pub name: String,
    /// Must match the corresponding [`amp_core::Task::replicable`] flag.
    pub replicable: bool,
    /// Per-frame work body.
    pub work: Arc<dyn TaskWork<D>>,
}

impl<D> RuntimeTask<D> {
    /// Builds a task from any work implementation.
    pub fn new(name: &str, replicable: bool, work: impl TaskWork<D> + 'static) -> Self {
        RuntimeTask {
            name: name.to_string(),
            replicable,
            work: Arc::new(work),
        }
    }
}

/// Errors reported by [`PipelineSpec::run`], [`PipelineSpec::launch`] and
/// [`RunningPipeline::reconfigure`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The spec has a different number of tasks than the scheduled chain.
    ChainMismatch {
        /// Tasks in the spec.
        spec: usize,
        /// Tasks in the chain.
        chain: usize,
    },
    /// A task's replicability flag disagrees with the chain's.
    ReplicabilityMismatch(usize),
    /// The solution fails [`Solution::validate`] for the chain.
    InvalidSolution(amp_core::ValidationError),
    /// The machine has fewer cores of some type than the solution uses.
    Placement,
    /// Neither a frame count nor a duration was requested.
    NoTerminationCondition,
    /// The chain cannot be scheduled on the offered pool (no cores).
    Infeasible,
    /// The pipeline already ran to completion; there is nothing left to
    /// reconfigure.
    Terminated,
    /// [`RunConfig::queue_capacity`] is 0: no frame could ever enter an
    /// adaptor. Refused at launch even for a single-stage solution, since
    /// a later reconfiguration may need adaptors.
    ZeroQueueCapacity,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::ChainMismatch { spec, chain } => {
                write!(f, "spec has {spec} tasks but the chain has {chain}")
            }
            RuntimeError::ReplicabilityMismatch(i) => {
                write!(f, "task {i} replicability differs between spec and chain")
            }
            RuntimeError::InvalidSolution(e) => write!(f, "invalid solution: {e}"),
            RuntimeError::Placement => write!(f, "solution does not fit the machine"),
            RuntimeError::NoTerminationCondition => {
                write!(f, "run needs a frame count or a duration")
            }
            RuntimeError::Infeasible => {
                write!(f, "the chain cannot be scheduled on the offered pool")
            }
            RuntimeError::Terminated => write!(f, "the pipeline already ran to completion"),
            RuntimeError::ZeroQueueCapacity => write!(f, "queue capacity must be at least 1"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Termination and buffering parameters of a run.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Stop after this many frames (`None` = unbounded).
    pub frames: Option<u64>,
    /// Stop the source after this wall-clock duration (`None` = none).
    pub max_duration: Option<Duration>,
    /// Capacity of each inter-stage adaptor, in frames. Must be at least
    /// 1: a launch refuses 0 with [`RuntimeError::ZeroQueueCapacity`].
    /// Whatever the capacity, the source keeps at most
    /// [`Solution::in_flight_window`] frames in flight across all rings
    /// and replicas, so no ring fills past that window; with rings of 1
    /// or 2 frames the window never binds.
    pub queue_capacity: u64,
    /// Leading fraction of sink departures excluded from the steady-state
    /// throughput measurement.
    pub warmup_fraction: f64,
}

impl RunConfig {
    /// Runs exactly `frames` frames.
    #[must_use]
    pub fn with_frames(frames: u64) -> Self {
        RunConfig {
            frames: Some(frames),
            max_duration: None,
            queue_capacity: 16,
            warmup_fraction: 0.2,
        }
    }

    /// Runs until `duration` elapses (like the paper's 1-minute DVB-S2
    /// measurements).
    #[must_use]
    pub fn with_duration(duration: Duration) -> Self {
        RunConfig {
            frames: None,
            max_duration: Some(duration),
            queue_capacity: 16,
            warmup_fraction: 0.2,
        }
    }
}

/// A runnable pipeline: a frame factory (what the first task receives) and
/// the per-task work bodies, in chain order.
pub struct PipelineSpec<D> {
    source: Arc<dyn Fn(u64) -> D + Send + Sync>,
    tasks: Vec<RuntimeTask<D>>,
}

/// A worker's assignment for one epoch: which stage replica it executes.
#[derive(Clone, Copy, Debug)]
struct Role {
    stage: usize,
    replica: u64,
    core_kind: CoreType,
}

/// Everything one epoch needs: the decomposition, the per-slot roles, the
/// freshly-based adaptors and the per-epoch counters.
struct EpochPlan<D> {
    stages: Vec<Stage>,
    /// Per worker slot; `None` parks the slot for this epoch.
    roles: Vec<Option<Role>>,
    rings: Vec<Arc<OrderedRing<D>>>,
    /// First frame of this epoch.
    base: u64,
    /// Global frame limit (static across epochs; `u64::MAX` = unbounded).
    limit: u64,
    /// Most frames in flight ([`Solution::in_flight_window`] of this
    /// epoch's decomposition).
    window: u64,
    /// Epoch start, in nanoseconds since the run started.
    start_nanos: u64,
    /// Quiesce request: source replicas stop claiming frames.
    pause: AtomicBool,
    /// Per-stage live replica count (last replica out closes downstream).
    active: Vec<AtomicUsize>,
    /// Per-stage processing time this epoch.
    busy_nanos: Vec<AtomicU64>,
    /// High-water frame count the source stage committed this epoch: every
    /// frame in `[base, produced)` was claimed *and* fully processed by
    /// the source stage. This — not the claim counter, which may overshoot
    /// on a quiesce or a frame limit — is the drain accounting both stop
    /// paths share: ring close totals and the next epoch's base come from
    /// it, so in-flight frames are always fully drained and counted.
    produced: AtomicU64,
}

struct ControlState<D> {
    /// Monotonic epoch counter; 0 = not started, 1 = first epoch.
    epoch: u64,
    plan: Option<Arc<EpochPlan<D>>>,
    /// Workers that have not yet parked for the current epoch.
    running: usize,
    /// A migration is between quiesce and re-publish.
    migrating: bool,
    /// Workers should exit instead of waiting for another epoch.
    shutdown: bool,
}

struct Control<D> {
    state: Mutex<ControlState<D>>,
    /// Workers wait here for a new epoch (or shutdown).
    epoch_cv: Condvar,
    /// The controller waits here for `running == 0`.
    done_cv: Condvar,
    /// Hard stop (duration watchdog or [`RunningPipeline::stop`]).
    stop: AtomicBool,
    /// Next frame for the source stage to claim.
    claim: AtomicU64,
    /// Sink departures across all epochs, timed in nanoseconds since the
    /// run started, and the source's credit window over them.
    sink: Sink,
}

/// Executes one worker's role for one epoch, then returns so the worker
/// can park and wait for the next epoch.
#[allow(clippy::too_many_arguments)]
fn run_role<D: Send + 'static>(
    plan: &EpochPlan<D>,
    role: Role,
    works: &[Arc<dyn TaskWork<D>>],
    source: &(dyn Fn(u64) -> D + Send + Sync),
    control: &Control<D>,
    start: Instant,
) {
    let i = role.stage;
    let k = plan.stages.len();
    let stage = plan.stages[i];
    let (task_lo, task_hi) = (stage.start, stage.end);
    let replicas = stage.cores;
    let core_kind = role.core_kind;
    let ring_in = (i > 0).then(|| plan.rings[i - 1].clone());
    let ring_out = (i + 1 < k).then(|| plan.rings[i].clone());
    let process = |seq: u64, data: &mut D| {
        let t0 = Instant::now();
        for work in &works[task_lo..=task_hi] {
            work.process(seq, data, core_kind);
        }
        plan.busy_nanos[i].fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    };
    let deliver = |seq: u64, data: D| match &ring_out {
        Some(out) => out.push(seq, data),
        None => control
            .sink
            .depart(seq, || start.elapsed().as_nanos() as u64),
    };
    match &ring_in {
        None => loop {
            // Source stage: dynamically claim the next frame. The stop and
            // pause checks come *before* the claim, so every claimed frame
            // below the limit is committed — processed and delivered. A
            // claimed frame enters once the window has credit for it; the
            // frames ahead of it drain whatever stopped the source.
            if control.stop.load(Ordering::Relaxed) || plan.pause.load(Ordering::Relaxed) {
                break;
            }
            let seq = control.claim.fetch_add(1, Ordering::Relaxed);
            if seq >= plan.limit {
                break;
            }
            control.sink.admit(seq, plan.window);
            let mut data = source(seq);
            process(seq, &mut data);
            deliver(seq, data);
            plan.produced.fetch_max(seq + 1, Ordering::AcqRel);
        },
        Some(input) => {
            let mut seq = plan.base + role.replica;
            while let Some(mut data) = input.pop(seq) {
                process(seq, &mut data);
                deliver(seq, data);
                seq += replicas;
            }
        }
    }
    // Last replica out closes the downstream adaptor with the shared
    // drain total.
    if plan.active[i].fetch_sub(1, Ordering::AcqRel) == 1 {
        if let Some(out) = &ring_out {
            let total = match &ring_in {
                None => plan.produced.load(Ordering::Acquire),
                Some(input) => input
                    .closed_total()
                    .expect("input closed before this stage finished"),
            };
            out.close(total);
        }
    }
}

/// The worker thread body: wait for an epoch, execute the assigned role
/// (if any), park, repeat — until shutdown.
fn worker_loop<D: Send + 'static>(
    slot: usize,
    mut seen_epoch: u64,
    control: Arc<Control<D>>,
    works: Arc<Vec<Arc<dyn TaskWork<D>>>>,
    source: Arc<dyn Fn(u64) -> D + Send + Sync>,
    start: Instant,
) {
    loop {
        let plan = {
            let mut st = control.state.lock();
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch > seen_epoch {
                    seen_epoch = st.epoch;
                    break st.plan.clone().expect("published epoch carries a plan");
                }
                control.epoch_cv.wait(&mut st);
            }
        };
        if let Some(role) = plan.roles.get(slot).copied().flatten() {
            run_role(&plan, role, &works, &*source, &control, start);
        }
        let mut st = control.state.lock();
        st.running -= 1;
        if st.running == 0 {
            control.done_cv.notify_all();
        }
    }
}

/// The dry-run preview of a reconfiguration: the current and the proposed
/// decomposition plus their [`ScheduleDiff`], computed without touching
/// the running pipeline.
#[derive(Clone, Debug)]
pub struct ReconfigPlan {
    /// The decomposition the pipeline currently executes.
    pub from: Solution,
    /// The decomposition an applied reconfiguration would migrate to.
    pub to: Solution,
    /// Span-keyed diff between the two.
    pub diff: ScheduleDiff,
}

/// The solver/diff state a running pipeline keeps between migrations:
/// the chain it schedules for, the incremental HeRAD table, and the
/// decomposition currently executing.
struct MigrateState {
    chain: TaskChain,
    solution: Solution,
    table: ChainTable,
}

impl MigrateState {
    /// Re-solves for `resources`, incrementally ([`Herad::fill`]): a
    /// covered pool is a pure extraction, a larger pool grows the table in
    /// place, and only a chain change pays a cold rebuild.
    fn solve(&mut self, resources: amp_core::Resources) -> Result<Solution, RuntimeError> {
        Herad::new().fill(&mut self.table, &self.chain, resources);
        let mut out = Solution::empty();
        if self.table.extract(&self.chain, resources, &mut out) {
            Ok(out)
        } else {
            Err(RuntimeError::Infeasible)
        }
    }
}

/// A live pipeline launched by [`PipelineSpec::launch`]: the handle for
/// online reconfiguration, early stop and final result collection.
pub struct RunningPipeline<D: Send + 'static> {
    control: Arc<Control<D>>,
    works: Arc<Vec<Arc<dyn TaskWork<D>>>>,
    source: Arc<dyn Fn(u64) -> D + Send + Sync>,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    watchdog: Mutex<Option<thread::JoinHandle<()>>>,
    start: Instant,
    config: RunConfig,
    frame_limit: u64,
    replicable: Vec<bool>,
    migrate: Mutex<MigrateState>,
    events: Mutex<Vec<ReconfigEvent>>,
}

impl<D: Send + 'static> RunningPipeline<D> {
    /// Previews a migration to `machine` without applying it: re-solves
    /// incrementally and returns the decomposition diff.
    ///
    /// # Errors
    /// [`RuntimeError::Infeasible`] when the pool has no cores.
    pub fn plan(&self, machine: &VirtualMachine) -> Result<ReconfigPlan, RuntimeError> {
        let mut mig = self.migrate.lock();
        let to = mig.solve(machine.resources())?;
        machine.place(&to).ok_or(RuntimeError::Placement)?;
        let diff = schedule_diff(mig.solution.stages(), to.stages());
        Ok(ReconfigPlan {
            from: mig.solution.clone(),
            to,
            diff,
        })
    }

    /// Migrates the live pipeline to `machine` (a changed core pool).
    ///
    /// Re-solves incrementally via the chain's grown HeRAD table, diffs
    /// the decompositions, and — unless the diff is a no-op — quiesces
    /// the source at a frame boundary, drains every in-flight frame to
    /// the sink, re-wires adaptors and worker roles, and resumes. No
    /// frame is ever lost, duplicated or reordered across the boundary.
    ///
    /// # Errors
    /// [`RuntimeError::Infeasible`] when the pool has no cores,
    /// [`RuntimeError::Placement`] when the machine cannot place the new
    /// solution, [`RuntimeError::Terminated`] when the run already ended.
    pub fn reconfigure(&self, machine: &VirtualMachine) -> Result<ReconfigEvent, RuntimeError> {
        self.apply(None, machine)
    }

    /// Migrates to re-profiled task weights *and* a (possibly unchanged)
    /// machine: the chain's weights drifted, so the table is re-solved
    /// for the new chain before extraction. The new chain must describe
    /// the same tasks (length and replicability) as the running spec.
    ///
    /// # Errors
    /// As [`RunningPipeline::reconfigure`], plus
    /// [`RuntimeError::ChainMismatch`] /
    /// [`RuntimeError::ReplicabilityMismatch`] when the chain does not
    /// match the running spec.
    pub fn reconfigure_with_chain(
        &self,
        chain: &TaskChain,
        machine: &VirtualMachine,
    ) -> Result<ReconfigEvent, RuntimeError> {
        self.apply(Some(chain), machine)
    }

    /// Requests a stop: the source stops claiming frames and the pipeline
    /// drains. Useful for unbounded runs; [`RunningPipeline::join`]
    /// returns once the drain completes.
    pub fn stop(&self) {
        self.control.stop.store(true, Ordering::Relaxed);
    }

    /// Completed reconfigurations so far.
    #[must_use]
    pub fn reconfig_events(&self) -> Vec<ReconfigEvent> {
        self.events.lock().clone()
    }

    /// Frames that have reached the sink so far.
    #[must_use]
    pub fn frames_done(&self) -> u64 {
        self.control.sink.departures()
    }

    fn apply(
        &self,
        chain: Option<&TaskChain>,
        machine: &VirtualMachine,
    ) -> Result<ReconfigEvent, RuntimeError> {
        let mut mig = self.migrate.lock();
        if let Some(new_chain) = chain {
            if new_chain.len() != self.replicable.len() {
                return Err(RuntimeError::ChainMismatch {
                    spec: self.replicable.len(),
                    chain: new_chain.len(),
                });
            }
            for (i, (t, &rep)) in new_chain.tasks().iter().zip(&self.replicable).enumerate() {
                if t.replicable != rep {
                    return Err(RuntimeError::ReplicabilityMismatch(i));
                }
            }
            mig.chain = new_chain.clone();
        }
        let new_solution = mig.solve(machine.resources())?;
        let placement = machine
            .place(&new_solution)
            .ok_or(RuntimeError::Placement)?;
        let diff = schedule_diff(mig.solution.stages(), new_solution.stages());

        let (old_plan, cur_epoch) = {
            let mut st = self.control.state.lock();
            if st.shutdown {
                return Err(RuntimeError::Terminated);
            }
            if diff.is_noop() {
                // Identical decomposition: the running epoch already
                // executes it. Record a zero-cost event without a barrier.
                let plan = st.plan.clone().expect("running pipeline has a plan");
                return Ok(ReconfigEvent {
                    epoch: st.epoch,
                    boundary_frame: plan.base,
                    downtime_us: 0.0,
                    sink_gap_us: 0.0,
                    migrated_stages: 0,
                    unchanged_stages: diff.unchanged,
                    workers_added: 0,
                    workers_parked: 0,
                });
            }
            st.migrating = true;
            (
                st.plan.clone().expect("running pipeline has a plan"),
                st.epoch,
            )
        };

        // Quiesce: stop the source at a frame boundary, drain everything.
        let t0 = Instant::now();
        old_plan.pause.store(true, Ordering::SeqCst);
        {
            let mut st = self.control.state.lock();
            while st.running > 0 {
                self.control.done_cv.wait(&mut st);
            }
        }
        let base = old_plan.produced.load(Ordering::Acquire);
        if base >= self.frame_limit || self.control.stop.load(Ordering::Relaxed) {
            // The run completed while quiescing; hand the drained state
            // to `join` instead of publishing a new epoch.
            self.control.state.lock().migrating = false;
            self.control.done_cv.notify_all();
            return Err(RuntimeError::Terminated);
        }
        self.control.sink.lock().record.mark_boundary(base);

        // Re-wire: fresh adaptors based at the boundary, new roles.
        let stages = new_solution.stages().to_vec();
        let k = stages.len();
        let rings: Vec<Arc<OrderedRing<D>>> = (0..k.saturating_sub(1))
            .map(|_| Arc::new(OrderedRing::with_base(self.config.queue_capacity, base)))
            .collect();
        let mut flat_roles = Vec::new();
        for (i, cores) in placement.iter().enumerate() {
            for (j, core) in cores.iter().enumerate() {
                flat_roles.push(Role {
                    stage: i,
                    replica: j as u64,
                    core_kind: core.kind,
                });
            }
        }
        let needed = flat_roles.len();
        let mut handles = self.workers.lock();
        let spawned = handles.len();
        let workers_added = needed.saturating_sub(spawned);
        let workers_parked = spawned.saturating_sub(needed);
        let slot_count = spawned.max(needed);
        let plan = Arc::new(EpochPlan {
            active: stages
                .iter()
                .map(|s| AtomicUsize::new(s.cores as usize))
                .collect(),
            busy_nanos: (0..k).map(|_| AtomicU64::new(0)).collect(),
            roles: (0..slot_count)
                .map(|s| flat_roles.get(s).copied())
                .collect(),
            stages,
            rings,
            base,
            limit: self.frame_limit,
            window: new_solution.in_flight_window(),
            start_nanos: self.start.elapsed().as_nanos() as u64,
            pause: AtomicBool::new(false),
            produced: AtomicU64::new(base),
        });
        // Pool growth: spawn the extra slots before publishing, waiting on
        // the epoch about to be announced.
        for slot in spawned..needed {
            let control = self.control.clone();
            let works = self.works.clone();
            let source = self.source.clone();
            let start = self.start;
            handles.push(
                thread::Builder::new()
                    .name(format!("amp-w{slot}"))
                    .spawn(move || worker_loop(slot, cur_epoch, control, works, source, start))
                    .expect("spawning pipeline worker"),
            );
        }
        drop(handles);
        self.control.claim.store(base, Ordering::SeqCst);
        {
            let mut st = self.control.state.lock();
            st.plan = Some(plan);
            st.epoch = cur_epoch + 1;
            st.running = slot_count;
            st.migrating = false;
        }
        self.control.epoch_cv.notify_all();

        let event = ReconfigEvent {
            epoch: cur_epoch + 1,
            boundary_frame: base,
            downtime_us: t0.elapsed().as_secs_f64() * 1e6,
            sink_gap_us: 0.0, // filled from sink departures by `join`
            migrated_stages: diff.migrated_stages(),
            unchanged_stages: diff.unchanged,
            workers_added,
            workers_parked,
        };
        self.events.lock().push(event.clone());
        mig.solution = new_solution;
        Ok(event)
    }

    /// Waits for the run to finish (frame limit reached, duration elapsed
    /// or [`RunningPipeline::stop`]), drains the workers and reports.
    ///
    /// # Panics
    /// Panics if a worker thread panicked.
    #[must_use]
    pub fn join(self) -> RunReport {
        let (epochs, final_plan) = {
            let mut st = self.control.state.lock();
            while st.running > 0 || st.migrating {
                self.control.done_cv.wait(&mut st);
            }
            st.shutdown = true;
            (
                st.epoch,
                st.plan.take().expect("launched pipeline has a plan"),
            )
        };
        self.control.epoch_cv.notify_all();
        for handle in self.workers.into_inner() {
            handle.join().expect("pipeline worker panicked");
        }
        self.control.stop.store(true, Ordering::Relaxed);
        if let Some(watchdog) = self.watchdog.into_inner() {
            watchdog.join().expect("watchdog panicked");
        }
        let elapsed = self.start.elapsed();
        let sink = self.control.sink.lock();
        let mut events = self.events.into_inner();
        fill_sink_gaps(&mut events, &sink.record);
        build_report(
            &sink.record,
            elapsed,
            &final_plan,
            self.config.warmup_fraction,
            epochs,
            events,
        )
    }
}

impl<D: Send + 'static> PipelineSpec<D> {
    /// Builds a spec from a frame factory and the task bodies.
    pub fn new(source: Arc<dyn Fn(u64) -> D + Send + Sync>, tasks: Vec<RuntimeTask<D>>) -> Self {
        PipelineSpec { source, tasks }
    }

    /// The task bodies.
    #[must_use]
    pub fn tasks(&self) -> &[RuntimeTask<D>] {
        &self.tasks
    }

    /// Executes `solution` over this pipeline on `machine` to completion.
    ///
    /// Equivalent to [`PipelineSpec::launch`] followed immediately by
    /// [`RunningPipeline::join`], with the additional requirement that
    /// `config` carries a termination condition.
    ///
    /// # Errors
    /// See [`RuntimeError`].
    pub fn run(
        &self,
        chain: &TaskChain,
        solution: &Solution,
        machine: &VirtualMachine,
        config: &RunConfig,
    ) -> Result<RunReport, RuntimeError> {
        if config.frames.is_none() && config.max_duration.is_none() {
            return Err(RuntimeError::NoTerminationCondition);
        }
        Ok(self.launch(chain, solution, machine, config)?.join())
    }

    /// Starts `solution` over this pipeline on `machine` and returns the
    /// live handle without waiting for termination.
    ///
    /// Worker threads (one per stage replica) are spawned once and
    /// re-assigned across reconfigurations. Unlike [`PipelineSpec::run`],
    /// a config without any termination condition is accepted: the caller
    /// owns a [`RunningPipeline::stop`] handle.
    ///
    /// # Errors
    /// See [`RuntimeError`].
    pub fn launch(
        &self,
        chain: &TaskChain,
        solution: &Solution,
        machine: &VirtualMachine,
        config: &RunConfig,
    ) -> Result<RunningPipeline<D>, RuntimeError> {
        if config.queue_capacity == 0 {
            return Err(RuntimeError::ZeroQueueCapacity);
        }
        if self.tasks.len() != chain.len() {
            return Err(RuntimeError::ChainMismatch {
                spec: self.tasks.len(),
                chain: chain.len(),
            });
        }
        for (i, t) in self.tasks.iter().enumerate() {
            if t.replicable != chain.task(i).replicable {
                return Err(RuntimeError::ReplicabilityMismatch(i));
            }
        }
        solution
            .validate(chain)
            .map_err(RuntimeError::InvalidSolution)?;
        let placement = machine.place(solution).ok_or(RuntimeError::Placement)?;
        let frame_limit = config.frames.unwrap_or(u64::MAX);
        let stages = solution.stages().to_vec();
        let k = stages.len();

        let rings: Vec<Arc<OrderedRing<D>>> = (0..k.saturating_sub(1))
            .map(|_| Arc::new(OrderedRing::new(config.queue_capacity)))
            .collect();
        let mut flat_roles = Vec::new();
        for (i, cores) in placement.iter().enumerate() {
            for (j, core) in cores.iter().enumerate() {
                flat_roles.push(Role {
                    stage: i,
                    replica: j as u64,
                    core_kind: core.kind,
                });
            }
        }
        let plan = Arc::new(EpochPlan {
            active: stages
                .iter()
                .map(|s| AtomicUsize::new(s.cores as usize))
                .collect(),
            busy_nanos: (0..k).map(|_| AtomicU64::new(0)).collect(),
            roles: flat_roles.iter().map(|r| Some(*r)).collect(),
            stages,
            rings,
            base: 0,
            limit: frame_limit,
            window: solution.in_flight_window(),
            start_nanos: 0,
            pause: AtomicBool::new(false),
            produced: AtomicU64::new(0),
        });
        let workers = flat_roles.len();
        let control = Arc::new(Control {
            state: Mutex::new(ControlState {
                epoch: 1,
                plan: Some(plan),
                running: workers,
                migrating: false,
                shutdown: false,
            }),
            epoch_cv: Condvar::new(),
            done_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            claim: AtomicU64::new(0),
            sink: Sink::new(),
        });
        let works: Arc<Vec<Arc<dyn TaskWork<D>>>> =
            Arc::new(self.tasks.iter().map(|t| t.work.clone()).collect());
        let start = Instant::now();
        let mut handles = Vec::new();
        for slot in 0..workers {
            let control = control.clone();
            let works = works.clone();
            let source = self.source.clone();
            handles.push(
                thread::Builder::new()
                    .name(format!("amp-w{slot}"))
                    .spawn(move || worker_loop(slot, 0, control, works, source, start))
                    .expect("spawning pipeline worker"),
            );
        }

        // Deadline watchdog (duration-based termination).
        let watchdog = config.max_duration.map(|d| {
            let control = control.clone();
            let deadline = start + d;
            thread::spawn(move || {
                while Instant::now() < deadline {
                    if control.stop.load(Ordering::Relaxed) {
                        return;
                    }
                    thread::sleep(Duration::from_millis(2));
                }
                control.stop.store(true, Ordering::Relaxed);
            })
        });

        Ok(RunningPipeline {
            control,
            works,
            source: self.source.clone(),
            workers: Mutex::new(handles),
            watchdog: Mutex::new(watchdog),
            start,
            config: *config,
            frame_limit,
            replicable: self.tasks.iter().map(|t| t.replicable).collect(),
            migrate: Mutex::new(MigrateState {
                chain: chain.clone(),
                solution: solution.clone(),
                table: ChainTable::default(),
            }),
            events: Mutex::new(Vec::new()),
        })
    }
}

/// Fills each event's sink-observed downtime: the departure gap between
/// the last frame of the old epoch and the first frame of the new one.
fn fill_sink_gaps(events: &mut [ReconfigEvent], sink: &SinkRecord) {
    for event in events {
        if let Some(gap) = sink.gap_nanos(event.boundary_frame) {
            event.sink_gap_us = gap as f64 / 1e3;
        }
    }
}

fn build_report<D>(
    sink: &SinkRecord,
    elapsed: Duration,
    final_plan: &EpochPlan<D>,
    warmup_fraction: f64,
    epochs: u64,
    reconfigs: Vec<ReconfigEvent>,
) -> RunReport {
    let frames = sink.departures();
    let elapsed_seconds = elapsed.as_secs_f64();
    let fps_total = if elapsed_seconds > 0.0 {
        frames as f64 / elapsed_seconds
    } else {
        0.0
    };
    // Whole-run fallback for runs that end inside the warm-up window:
    // `fps` and `period_us` stay mutually consistent (no 0-period with a
    // positive fps, which used to blow up downstream `1e6 / period_us`).
    let fallback = || {
        let period = if fps_total > 0.0 {
            1e6 / fps_total
        } else {
            0.0
        };
        (fps_total, period, false)
    };
    let (fps, period_us, steady_state_valid) = if frames >= 2 {
        // Replicated sink stages may complete frames slightly out of
        // sequence order; measure inter-departure gaps over time order,
        // from the warm-up cut rounded down to the record's sample grid.
        let warm = ((frames as f64) * warmup_fraction).floor() as u64;
        let (cut, cut_nanos) = sink.sample_at_or_before(warm.min(frames - 2));
        let dt_nanos = sink.last_nanos() - cut_nanos;
        let n = (frames - 1 - cut) as f64;
        if dt_nanos > 0 {
            let period = dt_nanos as f64 / n; // ns per frame
            (1e9 / period, period / 1e3, true)
        } else {
            fallback()
        }
    } else {
        fallback()
    };
    // Stage statistics cover the final epoch only (decompositions differ
    // across epochs), measured against the final epoch's wall-clock.
    let epoch_seconds =
        (elapsed.as_nanos() as u64).saturating_sub(final_plan.start_nanos) as f64 / 1e9;
    let stage_reports = final_plan
        .stages
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let busy = final_plan.busy_nanos[i].load(Ordering::Relaxed) as f64 / 1e9;
            let denom = s.cores as f64 * epoch_seconds;
            StageRuntimeReport {
                stage: i,
                replicas: s.cores,
                core_type: s.core_type,
                busy_seconds: busy,
                utilization: if denom > 0.0 {
                    (busy / denom).min(1.0)
                } else {
                    0.0
                },
            }
        })
        .collect();
    RunReport {
        frames,
        elapsed_seconds,
        fps,
        fps_total,
        period_us,
        steady_state_valid,
        epochs,
        reconfigs,
        stages: stage_reports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptor::tests::maybe_stall;
    use crate::sink::MAX_SAMPLES;
    use crate::vcore::VirtualMachine;
    use crate::work::{FnWork, WeightedWork};
    use amp_core::sched::{Herad, Scheduler};
    use amp_core::{CoreType, Resources, Stage, Task};

    fn spec_counting(n: usize) -> PipelineSpec<Vec<u64>> {
        // Each task appends its index; the sink payload records the full
        // traversal so ordering and completeness are checkable.
        let tasks = (0..n)
            .map(|i| {
                RuntimeTask::new(
                    &format!("t{i}"),
                    true,
                    FnWork(move |_seq: u64, data: &mut Vec<u64>, _core: CoreType| {
                        data.push(i as u64);
                    }),
                )
            })
            .collect();
        PipelineSpec::new(Arc::new(|_seq| Vec::new()), tasks)
    }

    fn chain_replicable(n: usize) -> TaskChain {
        TaskChain::new((0..n).map(|_| Task::new(10, 20, true)).collect())
    }

    #[test]
    fn runs_a_single_stage_pipeline() {
        let chain = chain_replicable(3);
        let spec = spec_counting(3);
        let solution = Solution::new(vec![Stage::new(0, 2, 1, CoreType::Big)]);
        let machine = VirtualMachine::new(Resources::new(1, 0));
        let r = spec
            .run(&chain, &solution, &machine, &RunConfig::with_frames(50))
            .unwrap();
        assert_eq!(r.frames, 50);
        assert!(r.fps > 0.0);
        assert_eq!(r.epochs, 1);
        assert!(r.reconfigs.is_empty());
    }

    #[test]
    fn multi_stage_with_replication_processes_every_frame_once() {
        let chain = chain_replicable(4);
        let spec = spec_counting(4);
        let solution = Solution::new(vec![
            Stage::new(0, 0, 1, CoreType::Big),
            Stage::new(1, 2, 3, CoreType::Little),
            Stage::new(3, 3, 1, CoreType::Big),
        ]);
        let machine = VirtualMachine::new(Resources::new(2, 3));
        let r = spec
            .run(&chain, &solution, &machine, &RunConfig::with_frames(200))
            .unwrap();
        assert_eq!(r.frames, 200);
        assert_eq!(r.stages.len(), 3);
    }

    #[test]
    fn replicated_to_replicated_link_works() {
        // The StreamPU v1.6.0 extension: consecutive replicated stages with
        // different replica counts (n -> m adaptor).
        let chain = chain_replicable(2);
        let spec = spec_counting(2);
        let solution = Solution::new(vec![
            Stage::new(0, 0, 3, CoreType::Big),
            Stage::new(1, 1, 2, CoreType::Little),
        ]);
        let machine = VirtualMachine::new(Resources::new(3, 2));
        let r = spec
            .run(&chain, &solution, &machine, &RunConfig::with_frames(120))
            .unwrap();
        assert_eq!(r.frames, 120);
    }

    #[test]
    fn frame_payloads_traverse_all_tasks_in_order() {
        let chain = chain_replicable(3);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        let mut tasks: Vec<RuntimeTask<Vec<u64>>> = (0..2)
            .map(|i| {
                RuntimeTask::new(
                    &format!("t{i}"),
                    true,
                    FnWork(move |_s: u64, d: &mut Vec<u64>, _c: CoreType| d.push(i as u64)),
                )
            })
            .collect();
        tasks.push(RuntimeTask::new(
            "sink",
            true,
            FnWork(move |seq: u64, d: &mut Vec<u64>, _c: CoreType| {
                seen2.lock().push((seq, d.clone()));
            }),
        ));
        let spec = PipelineSpec::new(Arc::new(|_| Vec::new()), tasks);
        let solution = Solution::new(vec![
            Stage::new(0, 1, 2, CoreType::Big),
            Stage::new(2, 2, 1, CoreType::Big),
        ]);
        let machine = VirtualMachine::new(Resources::new(3, 0));
        let r = spec
            .run(&chain, &solution, &machine, &RunConfig::with_frames(64))
            .unwrap();
        assert_eq!(r.frames, 64);
        let mut seen = seen.lock().clone();
        seen.sort_unstable();
        assert_eq!(seen.len(), 64);
        for (i, (seq, path)) in seen.iter().enumerate() {
            assert_eq!(*seq, i as u64);
            assert_eq!(path, &vec![0, 1], "frame {seq} traversal {path:?}");
        }
    }

    #[test]
    fn duration_mode_terminates() {
        let chain = chain_replicable(2);
        let tasks = chain
            .tasks()
            .iter()
            .enumerate()
            .map(|(i, t)| RuntimeTask::new(&format!("t{i}"), true, WeightedWork::from_task(t)))
            .collect();
        let spec: PipelineSpec<u64> = PipelineSpec::new(Arc::new(|s| s), tasks);
        let solution = Solution::new(vec![Stage::new(0, 1, 2, CoreType::Big)]);
        let machine = VirtualMachine::new(Resources::new(2, 0));
        let r = spec
            .run(
                &chain,
                &solution,
                &machine,
                &RunConfig::with_duration(Duration::from_millis(50)),
            )
            .unwrap();
        assert!(r.frames > 0);
        assert!(r.elapsed_seconds < 5.0);
    }

    #[test]
    fn unbounded_launch_stops_on_request() {
        let chain = chain_replicable(2);
        let spec = spec_counting(2);
        let solution = Solution::new(vec![Stage::new(0, 1, 1, CoreType::Big)]);
        let machine = VirtualMachine::new(Resources::new(1, 0));
        let cfg = RunConfig {
            frames: None,
            max_duration: None,
            queue_capacity: 8,
            warmup_fraction: 0.2,
        };
        // `run` refuses an unbounded config; `launch` accepts it because
        // the caller holds the stop handle.
        assert!(matches!(
            spec.run(&chain, &solution, &machine, &cfg),
            Err(RuntimeError::NoTerminationCondition)
        ));
        let live = spec.launch(&chain, &solution, &machine, &cfg).unwrap();
        while live.frames_done() < 10 {
            thread::yield_now();
        }
        live.stop();
        let r = live.join();
        assert!(r.frames >= 10);
    }

    #[test]
    fn steady_state_flag_clears_on_single_frame_runs() {
        // Frame-limit termination inside the warm-up window.
        let chain = chain_replicable(2);
        let spec = spec_counting(2);
        let solution = Solution::new(vec![Stage::new(0, 1, 1, CoreType::Big)]);
        let machine = VirtualMachine::new(Resources::new(1, 0));
        let r = spec
            .run(&chain, &solution, &machine, &RunConfig::with_frames(1))
            .unwrap();
        assert_eq!(r.frames, 1);
        assert!(!r.steady_state_valid);
        assert!(r.fps.is_finite() && r.period_us.is_finite());
        // The fallback stays internally consistent: fps == 1e6/period.
        if r.fps > 0.0 {
            assert!((r.fps - 1e6 / r.period_us).abs() / r.fps < 1e-9);
        }
    }

    #[test]
    fn steady_state_flag_clears_on_early_duration_stop() {
        // Duration termination before a steady window exists: one heavy
        // frame outlives the deadline, so at most one departure lands.
        let chain = TaskChain::new(vec![Task::new(50_000, 50_000, false)]);
        let tasks = vec![RuntimeTask::new(
            "heavy",
            false,
            WeightedWork::new(50_000.0, 50_000.0),
        )];
        let spec: PipelineSpec<u64> = PipelineSpec::new(Arc::new(|s| s), tasks);
        let solution = Solution::new(vec![Stage::new(0, 0, 1, CoreType::Big)]);
        let machine = VirtualMachine::new(Resources::new(1, 0));
        let r = spec
            .run(
                &chain,
                &solution,
                &machine,
                &RunConfig::with_duration(Duration::from_millis(1)),
            )
            .unwrap();
        assert!(r.frames <= 1, "{} frames", r.frames);
        assert!(!r.steady_state_valid);
        assert!(r.fps.is_finite() && r.period_us.is_finite());
    }

    #[test]
    fn validates_inputs() {
        let chain = chain_replicable(2);
        let machine = VirtualMachine::new(Resources::new(1, 0));
        let solution = Solution::new(vec![Stage::new(0, 1, 1, CoreType::Big)]);

        let spec = spec_counting(3);
        assert!(matches!(
            spec.run(&chain, &solution, &machine, &RunConfig::with_frames(1)),
            Err(RuntimeError::ChainMismatch { spec: 3, chain: 2 })
        ));

        let spec = spec_counting(2);
        let bad = Solution::new(vec![Stage::new(0, 0, 1, CoreType::Big)]);
        assert!(matches!(
            spec.run(&chain, &bad, &machine, &RunConfig::with_frames(1)),
            Err(RuntimeError::InvalidSolution(_))
        ));

        let too_big = Solution::new(vec![Stage::new(0, 1, 2, CoreType::Big)]);
        assert!(matches!(
            spec.run(&chain, &too_big, &machine, &RunConfig::with_frames(1)),
            Err(RuntimeError::Placement)
        ));

        let cfg = RunConfig {
            frames: None,
            max_duration: None,
            queue_capacity: 4,
            warmup_fraction: 0.2,
        };
        assert!(matches!(
            spec.run(&chain, &solution, &machine, &cfg),
            Err(RuntimeError::NoTerminationCondition)
        ));

        // Replicability mismatch.
        let seq_chain = TaskChain::new(vec![Task::new(1, 2, false), Task::new(1, 2, true)]);
        assert!(matches!(
            spec.run(&seq_chain, &solution, &machine, &RunConfig::with_frames(1)),
            Err(RuntimeError::ReplicabilityMismatch(0))
        ));
    }

    #[test]
    fn reconfigure_after_completion_is_terminated() {
        let chain = chain_replicable(2);
        let spec = spec_counting(2);
        let solution = Solution::new(vec![Stage::new(0, 1, 1, CoreType::Big)]);
        let machine = VirtualMachine::new(Resources::new(2, 2));
        let live = spec
            .launch(&chain, &solution, &machine, &RunConfig::with_frames(5))
            .unwrap();
        // Wait for natural completion, then try to migrate.
        while live.frames_done() < 5 {
            thread::yield_now();
        }
        let shrunk = VirtualMachine::new(Resources::new(0, 1));
        assert!(matches!(
            live.reconfigure(&shrunk),
            Err(RuntimeError::Terminated)
        ));
        let r = live.join();
        assert_eq!(r.frames, 5);
    }

    #[test]
    fn noop_reconfigure_skips_the_barrier() {
        let chain = chain_replicable(3);
        let spec = spec_counting(3);
        let machine = VirtualMachine::new(Resources::new(2, 1));
        let solution = Herad::new().schedule(&chain, machine.resources()).unwrap();
        let live = spec
            .launch(&chain, &solution, &machine, &RunConfig::with_frames(400))
            .unwrap();
        // Re-offering the same machine re-solves to the same decomposition.
        let event = live.reconfigure(&machine).unwrap();
        assert_eq!(event.migrated_stages, 0);
        assert_eq!(event.downtime_us, 0.0);
        let r = live.join();
        assert_eq!(r.frames, 400);
        assert_eq!(r.epochs, 1);
        assert!(r.reconfigs.is_empty());
    }

    /// Runs `f` on a thread of its own and fails if it panics or is still
    /// running after `deadline`, so a hang fails instead of blocking.
    fn within<T: Send + 'static>(deadline: Duration, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let _ = tx.send(f());
        });
        rx.recv_timeout(deadline)
            .expect("panicked or still running at the deadline")
    }

    #[test]
    fn zero_queue_capacity_is_refused_at_launch() {
        let zero = RunConfig {
            queue_capacity: 0,
            ..RunConfig::with_frames(50)
        };
        let outcome = within(Duration::from_secs(20), move || {
            // Two stages need an adaptor.
            let chain = chain_replicable(2);
            let spec = spec_counting(2);
            let two = Solution::new(vec![
                Stage::new(0, 0, 1, CoreType::Big),
                Stage::new(1, 1, 1, CoreType::Big),
            ]);
            let machine = VirtualMachine::new(Resources::new(2, 0));
            let launched = spec.launch(&chain, &two, &machine, &zero).err();
            let ran = spec.run(&chain, &two, &machine, &zero).err();

            // One stage needs none, but a migration to two stages does.
            let seq_chain = TaskChain::new(vec![Task::new(10, 20, false); 2]);
            let noop = |_: u64, _: &mut Vec<u64>, _: CoreType| {};
            let seq_spec = PipelineSpec::new(
                Arc::new(|_| Vec::new()),
                vec![
                    RuntimeTask::new("a", false, FnWork(noop)),
                    RuntimeTask::new("b", false, FnWork(noop)),
                ],
            );
            let one = Solution::new(vec![Stage::new(0, 1, 1, CoreType::Big)]);
            let one_big = VirtualMachine::new(Resources::new(1, 0));
            let single = match seq_spec.launch(&seq_chain, &one, &one_big, &zero) {
                Err(e) => Some(e),
                Ok(live) => {
                    // Accepting the launch let this migration panic with
                    // the source paused, and `join` then never returned.
                    let two_big = VirtualMachine::new(Resources::new(2, 0));
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        live.reconfigure(&two_big)
                    }));
                    let _ = live.join();
                    None
                }
            };
            (launched, ran, single)
        });
        let refused = Some(RuntimeError::ZeroQueueCapacity);
        assert_eq!(outcome, (refused.clone(), refused.clone(), refused));
    }

    type Log = Arc<Mutex<Vec<(u64, Vec<u64>)>>>;

    /// A pipeline of `tasks` replicable tasks, each appending its index to
    /// the frame and stalling at random (one call in eight, drawn from
    /// `(seed, seq, task)`); the last task waits for `gate`
    /// and logs `(seq, traversal)`.
    fn logging_spec(tasks: u64, seed: u64, gate: Arc<AtomicBool>) -> (PipelineSpec<Vec<u64>>, Log) {
        let log: Log = Arc::new(Mutex::new(Vec::new()));
        let bodies = (0..tasks)
            .map(|i| {
                let (log, gate) = (log.clone(), gate.clone());
                RuntimeTask::new(
                    &format!("t{i}"),
                    true,
                    FnWork(move |seq: u64, d: &mut Vec<u64>, _: CoreType| {
                        maybe_stall(&mut ((seed << 40) ^ (seq << 8) ^ i));
                        d.push(i);
                        if i + 1 == tasks {
                            while !gate.load(Ordering::Acquire) {
                                thread::sleep(Duration::from_micros(100));
                            }
                            log.lock().push((seq, d.clone()));
                        }
                    }),
                )
            })
            .collect();
        (PipelineSpec::new(Arc::new(|_| Vec::new()), bodies), log)
    }

    /// Fails unless `log` holds frames `0..total` once each, every one
    /// through tasks `0..tasks` in order.
    fn assert_each_once(log: &Log, total: u64, tasks: u64) {
        let mut seen = log.lock().clone();
        seen.sort_unstable();
        assert_eq!(seen.len() as u64, total, "lost or duplicated frames");
        let path: Vec<u64> = (0..tasks).collect();
        for (i, (seq, traversal)) in seen.iter().enumerate() {
            assert_eq!(*seq, i as u64, "hole or duplicate at frame {i}");
            assert_eq!(traversal, &path, "frame {seq}");
        }
    }

    /// One stage per entry of `replicas`, all on big cores.
    fn replicated(replicas: &[u64]) -> (Solution, VirtualMachine) {
        let stages = replicas
            .iter()
            .enumerate()
            .map(|(i, &r)| Stage::new(i, i, r, CoreType::Big))
            .collect();
        let machine = VirtualMachine::new(Resources::new(replicas.iter().sum(), 0));
        (Solution::new(stages), machine)
    }

    #[test]
    fn replicated_sources_and_sinks_stay_live_under_the_window() {
        // Replicated sources claim frames out of turn and replicated sinks
        // depart them out of order; neither may lose a credit wake-up.
        let shapes: [&[u64]; 8] = [
            &[1],
            &[3],
            &[1, 1],
            &[3, 1],
            &[1, 3],
            &[2, 2],
            &[3, 2],
            &[2, 1, 3],
        ];
        let mut seed = 0;
        for shape in shapes {
            for capacity in [1, 3, 16] {
                seed += 1;
                // Shown with the failure of this run.
                println!("seed {seed}: {shape:?}, capacity {capacity}");
                within(Duration::from_secs(30), move || {
                    let tasks = shape.len() as u64;
                    let (spec, log) = logging_spec(tasks, seed, Arc::new(AtomicBool::new(true)));
                    let (solution, machine) = replicated(shape);
                    let chain = chain_replicable(shape.len());
                    let config = RunConfig {
                        queue_capacity: capacity,
                        ..RunConfig::with_frames(300)
                    };
                    let r = spec.run(&chain, &solution, &machine, &config).unwrap();
                    assert_eq!(r.frames, 300);
                    assert_each_once(&log, 300, tasks);
                });
            }
        }
    }

    /// Launches two 2-replica stages whose last task holds every frame
    /// until the returned gate opens, and waits until the source is
    /// parked on the window (9 frames; the 16-frame ring has room).
    fn parked_on_the_window(
        frames: Option<u64>,
    ) -> (RunningPipeline<Vec<u64>>, Arc<AtomicBool>, Log) {
        let gate = Arc::new(AtomicBool::new(false));
        let (spec, log) = logging_spec(2, 7, gate.clone());
        let (solution, machine) = replicated(&[2, 2]);
        assert_eq!(solution.in_flight_window(), 9);
        let config = RunConfig {
            frames,
            max_duration: None,
            queue_capacity: 16,
            warmup_fraction: 0.2,
        };
        let live = spec
            .launch(&chain_replicable(2), &solution, &machine, &config)
            .unwrap();
        while live.control.sink.parked_sources() == 0 {
            thread::sleep(Duration::from_micros(200));
        }
        (live, gate, log)
    }

    #[test]
    fn stop_while_the_source_waits_for_credit_drains_every_claimed_frame() {
        within(Duration::from_secs(30), || {
            let (live, gate, log) = parked_on_the_window(None);
            live.stop();
            gate.store(true, Ordering::Release);
            let r = live.join();
            // The parked claims commit: past the window's 9 frames.
            assert!(r.frames > 9, "{} frames", r.frames);
            assert_each_once(&log, r.frames, 2);
        });
    }

    #[test]
    fn migration_while_the_source_waits_for_credit_is_lossless() {
        within(Duration::from_secs(30), || {
            let (live, gate, log) = parked_on_the_window(Some(200));
            let narrow = VirtualMachine::new(Resources::new(1, 0));
            let event = thread::scope(|s| {
                let migration = s.spawn(|| live.reconfigure(&narrow));
                // The migration pauses the source and then waits for the
                // drain, which waits for the gate.
                while !live.control.state.lock().migrating {
                    thread::sleep(Duration::from_micros(200));
                }
                gate.store(true, Ordering::Release);
                migration.join().unwrap().expect("migration")
            });
            assert!(event.boundary_frame > 9, "{event:?}");
            let r = live.join();
            assert_eq!((r.frames, r.epochs), (200, 2));
            assert_each_once(&log, 200, 2);
        });
    }

    /// The `Vec`-based `fill_sink_gaps` the sink record replaced: the
    /// oracle of the record's sink gaps. `departures` is sorted by frame.
    fn oracle_fill_sink_gaps(events: &mut [ReconfigEvent], departures: &[(u64, u64)]) {
        for event in events {
            let b = event.boundary_frame;
            if b == 0 || b as usize >= departures.len() {
                continue;
            }
            let (before, after) = (departures[b as usize - 1].1, departures[b as usize].1);
            event.sink_gap_us = after.saturating_sub(before) as f64 / 1e3;
        }
    }

    /// The `Vec`-based steady-state arithmetic of `build_report`:
    /// `(frames, fps, period_us, steady_state_valid)`.
    fn oracle_steady_state(
        departures: &[(u64, u64)],
        elapsed: Duration,
        warmup_fraction: f64,
    ) -> (u64, f64, f64, bool) {
        let frames = departures.len() as u64;
        let elapsed_seconds = elapsed.as_secs_f64();
        let fps_total = if elapsed_seconds > 0.0 {
            frames as f64 / elapsed_seconds
        } else {
            0.0
        };
        let fallback = || {
            let period = if fps_total > 0.0 {
                1e6 / fps_total
            } else {
                0.0
            };
            (fps_total, period, false)
        };
        let (fps, period_us, steady_state_valid) = if frames >= 2 {
            let mut times: Vec<u64> = departures.iter().map(|&(_, t)| t).collect();
            times.sort_unstable();
            let warm = ((frames as f64) * warmup_fraction).floor() as usize;
            let warm = warm.min(times.len() - 2);
            let dt_nanos = times[times.len() - 1] - times[warm];
            let n = (times.len() - 1 - warm) as f64;
            if dt_nanos > 0 {
                let period = dt_nanos as f64 / n;
                (1e9 / period, period / 1e3, true)
            } else {
                fallback()
            }
        } else {
            fallback()
        };
        (frames, fps, period_us, steady_state_valid)
    }

    /// Sink departures `(frame, nanos)` in time order: frames `0..n`,
    /// epochs split at `boundaries` with a drain barrier between them,
    /// neighbours inside an epoch swapped at random (a replicated sink),
    /// and times non-decreasing with ties.
    fn synthetic_departures(n: u64, boundaries: &[u64], seed: u64) -> Vec<(u64, u64)> {
        let mut rng = seed;
        let mut draw = move || {
            rng = rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (rng ^ (rng >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut frames: Vec<u64> = (0..n).collect();
        for i in 1..frames.len() {
            let crosses = boundaries.contains(&(i as u64));
            if !crosses && draw() % 4 == 0 {
                frames.swap(i - 1, i);
            }
        }
        let mut t = 1_000 + draw() % 1_000;
        frames
            .into_iter()
            .map(|f| {
                t += if boundaries.contains(&f) {
                    50_000 + draw() % 50_000
                } else {
                    draw() % 2_000
                };
                (f, t)
            })
            .collect()
    }

    fn report_plan() -> EpochPlan<()> {
        EpochPlan {
            stages: vec![Stage::new(0, 0, 1, CoreType::Big)],
            roles: Vec::new(),
            rings: Vec::new(),
            base: 0,
            limit: u64::MAX,
            window: 2,
            start_nanos: 0,
            pause: AtomicBool::new(false),
            active: vec![AtomicUsize::new(0)],
            busy_nanos: vec![AtomicU64::new(0)],
            produced: AtomicU64::new(0),
        }
    }

    #[test]
    fn sink_record_matches_the_departure_vector() {
        let plan = report_plan();
        let elapsed = Duration::from_millis(1234);
        for n in [
            1u64, 2, 3, 5, 17, 100, 1000, 4095, 4096, 4097, 5000, 8192, 8193, 12_289, 100_000,
            1_000_000,
        ] {
            let boundary_sets = [
                vec![],
                vec![n / 2],
                vec![0, n / 3, n / 3, 2 * n / 3, n],
                vec![1, n.saturating_sub(1)],
            ]
            .map(|mut b| {
                b.sort_unstable();
                b
            });
            for (j, boundaries) in boundary_sets.iter().enumerate() {
                let stream = synthetic_departures(n, boundaries, n ^ (j as u64) << 40);
                let mut record = SinkRecord::new();
                let mut marked = 0;
                for &(frame, nanos) in &stream {
                    // The drain barrier: frame b departs after every frame
                    // below it, and the boundary is marked in between.
                    while marked < boundaries.len() && boundaries[marked] <= frame {
                        record.mark_boundary(boundaries[marked]);
                        marked += 1;
                    }
                    record.depart(frame, nanos);
                    assert!(record.samples_held() <= MAX_SAMPLES);
                }
                for &b in &boundaries[marked..] {
                    record.mark_boundary(b);
                }
                let mut by_frame = stream.clone();
                for &(frame, nanos) in &stream {
                    by_frame[frame as usize] = (frame, nanos);
                }

                let event = |b: u64| ReconfigEvent {
                    epoch: 2,
                    boundary_frame: b,
                    downtime_us: 0.0,
                    sink_gap_us: 0.0,
                    migrated_stages: 1,
                    unchanged_stages: 0,
                    workers_added: 0,
                    workers_parked: 0,
                };
                let mut want: Vec<ReconfigEvent> = boundaries.iter().map(|&b| event(b)).collect();
                let mut got = want.clone();
                oracle_fill_sink_gaps(&mut want, &by_frame);
                fill_sink_gaps(&mut got, &record);
                for (w, g) in want.iter().zip(&got) {
                    assert_eq!(
                        w.sink_gap_us.to_bits(),
                        g.sink_gap_us.to_bits(),
                        "n {n}, boundary {}",
                        w.boundary_frame
                    );
                }

                for warmup in [0.0, 0.1, 0.2, 0.37, 0.5] {
                    let r = build_report(&record, elapsed, &plan, warmup, 1, Vec::new());
                    // The oracle sorts the times itself; handing it the
                    // stream in time order keeps that sort linear.
                    let (frames, fps, period_us, valid) =
                        oracle_steady_state(&stream, elapsed, warmup);
                    assert_eq!(r.frames, frames);
                    assert_eq!(r.steady_state_valid, valid, "n {n}, warm-up {warmup}");
                    let (want_fps, want_period) = if n <= MAX_SAMPLES as u64 {
                        (fps, period_us)
                    } else {
                        // The cut falls on the sample grid: the smallest
                        // power-of-two stride with n <= 4096 * stride.
                        let stride = n.div_ceil(MAX_SAMPLES as u64).next_power_of_two();
                        let warm = (((n as f64) * warmup).floor() as u64).min(n - 2);
                        let cut = warm - warm % stride;
                        assert!(((warm - cut) as f64) < n as f64 / 2048.0);
                        let (last, at_cut) = (stream[n as usize - 1].1, stream[cut as usize].1);
                        let period = (last - at_cut) as f64 / (n - 1 - cut) as f64;
                        (1e9 / period, period / 1e3)
                    };
                    assert_eq!(
                        r.fps.to_bits(),
                        want_fps.to_bits(),
                        "n {n}, warm-up {warmup}"
                    );
                    assert_eq!(
                        r.period_us.to_bits(),
                        want_period.to_bits(),
                        "n {n}, warm-up {warmup}"
                    );
                }
            }
        }
    }

    /// Launches a no-op single-stage pipeline without a frame limit, runs
    /// it to `departures` sink departures and checks that the sink record
    /// kept the size it had at launch.
    fn sink_record_stays_flat(departures: u64) {
        let chain = chain_replicable(1);
        let spec = PipelineSpec::new(
            Arc::new(|_| ()),
            vec![RuntimeTask::new(
                "noop",
                true,
                FnWork(|_: u64, _: &mut (), _: CoreType| {}),
            )],
        );
        let solution = Solution::new(vec![Stage::new(0, 0, 1, CoreType::Big)]);
        let machine = VirtualMachine::new(Resources::new(1, 0));
        let cfg = RunConfig {
            frames: None,
            max_duration: None,
            queue_capacity: 16,
            warmup_fraction: 0.2,
        };
        let live = spec.launch(&chain, &solution, &machine, &cfg).unwrap();
        let launched = live.control.sink.lock().record.footprint();
        let deadline = Instant::now() + Duration::from_secs(600);
        while live.frames_done() < departures {
            assert!(Instant::now() < deadline, "pipeline stalled");
            thread::sleep(Duration::from_millis(5));
        }
        let (size, held) = {
            let sink = live.control.sink.lock();
            (sink.record.footprint(), sink.record.samples_held())
        };
        live.stop();
        let r = live.join();
        assert!(r.frames >= departures);
        assert!(r.steady_state_valid);
        assert_eq!(
            size, launched,
            "sink record grew over {} departures",
            r.frames
        );
        assert!(held <= MAX_SAMPLES);
    }

    #[test]
    fn unbounded_launch_keeps_a_flat_sink_record() {
        sink_record_stays_flat(1_000_000);
    }

    #[test]
    #[ignore = "a hundred million departures; scripts/ci.sh runs it in release mode"]
    fn unbounded_launch_keeps_a_flat_sink_record_for_1e8_departures() {
        sink_record_stays_flat(100_000_000);
    }
}
