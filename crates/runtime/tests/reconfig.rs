//! Live reconfiguration of a running pipeline: pool shrink and pool grow
//! migrations must lose, duplicate and reorder zero frames, and drain
//! accounting must be identical across both stop paths.

use amp_core::sched::{Herad, Scheduler};
use amp_core::{CoreType, Resources, Solution, Stage, Task, TaskChain};
use amp_runtime::{spin_for_micros, FnWork, PipelineSpec, RunConfig, RuntimeTask, VirtualMachine};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::Duration;

/// Wall-clock tests contend for CPU when run in parallel; serialize them.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

type Trace = Arc<Mutex<Vec<(u64, Vec<u64>)>>>;

/// Two paced tasks (a sequential feeder and a replicable heavy stage) that
/// append their index to the frame payload; the heavy task also records
/// `(seq, payload)` at the end so completeness, uniqueness and traversal
/// order are all checkable after the run.
fn traced_spec(feeder_us: f64, heavy_us: f64) -> (PipelineSpec<Vec<u64>>, Trace) {
    let trace: Trace = Arc::new(Mutex::new(Vec::new()));
    let sink = trace.clone();
    let tasks = vec![
        RuntimeTask::new(
            "feed",
            false,
            FnWork(move |seq: u64, d: &mut Vec<u64>, _c: CoreType| {
                let _ = spin_for_micros(feeder_us, seq | 1);
                d.push(0);
            }),
        ),
        RuntimeTask::new(
            "heavy",
            true,
            FnWork(move |seq: u64, d: &mut Vec<u64>, _c: CoreType| {
                let _ = spin_for_micros(heavy_us, seq | 1);
                d.push(1);
                sink.lock().unwrap().push((seq, d.clone()));
            }),
        ),
    ];
    (PipelineSpec::new(Arc::new(|_| Vec::new()), tasks), trace)
}

fn traced_chain() -> TaskChain {
    TaskChain::new(vec![Task::new(100, 200, false), Task::new(400, 800, true)])
}

/// Asserts the trace holds exactly frames `0..total`, each having
/// traversed both tasks in order.
fn assert_lossless(trace: &Trace, total: u64) {
    let mut seen = trace.lock().unwrap().clone();
    seen.sort_unstable();
    assert_eq!(seen.len() as u64, total, "lost or duplicated frames");
    for (i, (seq, path)) in seen.iter().enumerate() {
        assert_eq!(*seq, i as u64, "hole or duplicate at frame {i}");
        assert_eq!(path, &vec![0, 1], "frame {seq} traversal {path:?}");
    }
}

/// Waits (bounded) for the live pipeline to pass `target` sink frames.
fn wait_frames(live: &amp_runtime::RunningPipeline<Vec<u64>>, target: u64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(20);
    while live.frames_done() < target {
        assert!(
            std::time::Instant::now() < deadline,
            "pipeline stalled before frame {target}"
        );
        thread::yield_now();
    }
}

/// The headline contract: a live pool-shrink migration followed by a
/// pool-grow back, with zero lost, duplicated or reordered frames, on
/// worker threads that are re-assigned rather than respawned.
#[test]
fn shrink_then_grow_migration_is_lossless() {
    let _guard = serial();
    let chain = traced_chain();
    let wide = VirtualMachine::new(Resources::new(3, 0));
    let narrow = VirtualMachine::new(Resources::new(1, 0));
    let herad = Herad::new();
    let wide_solution = herad.schedule(&chain, wide.resources()).unwrap();
    assert!(
        wide_solution.stages().len() > 1,
        "wide pool must pipeline: {wide_solution}"
    );

    let total = 300u64;
    let (spec, trace) = traced_spec(100.0, 400.0);
    let live = spec
        .launch(
            &chain,
            &wide_solution,
            &wide,
            &RunConfig::with_frames(total),
        )
        .unwrap();

    wait_frames(&live, 60);
    let shrink = live.reconfigure(&narrow).expect("shrink migration");
    assert!(shrink.migrated_stages > 0, "{shrink:?}");
    assert_eq!(
        shrink.workers_parked, 2,
        "3 wide workers shrink to 1: {shrink:?}"
    );
    assert_eq!(shrink.workers_added, 0);
    assert!(shrink.boundary_frame >= 60 && shrink.boundary_frame < total);

    wait_frames(&live, shrink.boundary_frame + 40);
    let grow = live.reconfigure(&wide).expect("grow migration");
    assert!(grow.migrated_stages > 0, "{grow:?}");
    // The wide epoch re-assigns the parked threads — nothing is respawned.
    assert_eq!(grow.workers_added, 0, "{grow:?}");
    assert_eq!(grow.workers_parked, 0, "{grow:?}");
    assert!(grow.boundary_frame > shrink.boundary_frame);

    let report = live.join();
    assert_eq!(report.frames, total);
    assert_eq!(report.epochs, 3);
    assert_eq!(report.reconfigs.len(), 2);
    assert_eq!(report.reconfigs[0].boundary_frame, shrink.boundary_frame);
    assert_eq!(report.reconfigs[1].boundary_frame, grow.boundary_frame);
    for event in &report.reconfigs {
        assert!(event.downtime_us > 0.0, "{event:?}");
        // By the drain barrier frame b departs after frame b - 1, so a
        // record that missed either departure reads 0 here.
        assert!(event.sink_gap_us > 0.0, "{event:?}");
    }
    assert_lossless(&trace, total);
}

/// The credit window through a live wide → narrow → wide migration. The
/// source closure counts claims and the last task counts departures, so
/// `claims - departures` at each claim is the frames in flight, a frame
/// about to leave counted as gone. It must never exceed the epoch's
/// `Solution::in_flight_window`. The wide schedule's source stage
/// (100 µs) outruns its bottleneck (400 µs on two replicas), so in flight
/// must reach the window there: the window binds, not the 16-frame rings.
#[test]
fn frames_in_flight_never_exceed_the_window() {
    let _guard = serial();
    let chain = traced_chain();
    let wide = VirtualMachine::new(Resources::new(3, 0));
    let narrow = VirtualMachine::new(Resources::new(1, 0));
    let herad = Herad::new();
    let wide_window = herad
        .schedule(&chain, wide.resources())
        .unwrap()
        .in_flight_window();
    let narrow_window = herad
        .schedule(&chain, narrow.resources())
        .unwrap()
        .in_flight_window();
    assert_eq!((wide_window, narrow_window), (7, 2));

    let claims = Arc::new(AtomicU64::new(0));
    let departures = Arc::new(AtomicU64::new(0));
    let in_flight: Arc<Mutex<Vec<(u64, u64)>>> = Arc::new(Mutex::new(Vec::new()));
    let source = {
        let (claims, departures, in_flight) =
            (claims.clone(), departures.clone(), in_flight.clone());
        Arc::new(move |seq: u64| {
            let claimed = claims.fetch_add(1, Ordering::SeqCst) + 1;
            let held = claimed - departures.load(Ordering::SeqCst);
            in_flight.lock().unwrap().push((seq, held));
            Vec::new()
        })
    };
    let tasks = vec![
        RuntimeTask::new(
            "feed",
            false,
            FnWork(|seq: u64, _: &mut Vec<u64>, _c: CoreType| {
                let _ = spin_for_micros(100.0, seq | 1);
            }),
        ),
        RuntimeTask::new(
            "heavy",
            true,
            FnWork(move |seq: u64, _: &mut Vec<u64>, _c: CoreType| {
                let _ = spin_for_micros(400.0, seq | 1);
                departures.fetch_add(1, Ordering::SeqCst);
            }),
        ),
    ];
    let spec = PipelineSpec::new(source, tasks);
    let wide_solution = herad.schedule(&chain, wide.resources()).unwrap();
    let total = 300u64;
    let live = spec
        .launch(
            &chain,
            &wide_solution,
            &wide,
            &RunConfig::with_frames(total),
        )
        .unwrap();
    wait_frames(&live, 60);
    let shrink = live.reconfigure(&narrow).expect("shrink migration");
    wait_frames(&live, shrink.boundary_frame + 40);
    let grow = live.reconfigure(&wide).expect("grow migration");
    let report = live.join();
    assert_eq!(report.frames, total);
    assert_eq!(claims.load(Ordering::SeqCst), total);

    let in_flight = in_flight.lock().unwrap();
    let mut most_wide = 0;
    for &(seq, held) in in_flight.iter() {
        let narrow_epoch = (shrink.boundary_frame..grow.boundary_frame).contains(&seq);
        let window = if narrow_epoch {
            narrow_window
        } else {
            most_wide = most_wide.max(held);
            wide_window
        };
        assert!(
            held <= window,
            "frame {seq}: {held} frames in flight, window {window}"
        );
    }
    assert_eq!(most_wide, wide_window, "the window never bound");
}

/// Growing from a single-worker launch spawns exactly the missing worker
/// threads, and the migrated pipeline still accounts for every frame.
#[test]
fn pool_grow_spawns_only_the_missing_workers() {
    let _guard = serial();
    let chain = traced_chain();
    let narrow = VirtualMachine::new(Resources::new(1, 0));
    let wide = VirtualMachine::new(Resources::new(3, 0));
    let herad = Herad::new();
    let narrow_solution = herad.schedule(&chain, narrow.resources()).unwrap();
    assert_eq!(narrow_solution.stages().len(), 1);

    let total = 240u64;
    let (spec, trace) = traced_spec(100.0, 400.0);
    let live = spec
        .launch(
            &chain,
            &narrow_solution,
            &narrow,
            &RunConfig::with_frames(total),
        )
        .unwrap();

    wait_frames(&live, 40);
    let grow = live.reconfigure(&wide).expect("grow migration");
    assert_eq!(grow.workers_added, 2, "1 worker grows to 3: {grow:?}");
    assert_eq!(grow.workers_parked, 0);

    let report = live.join();
    assert_eq!(report.frames, total);
    assert_eq!(report.epochs, 2);
    assert_lossless(&trace, total);
    // Final-epoch stage stats describe the wide decomposition.
    assert!(report.stages.len() > 1);
}

/// Re-profiled weights: a chain migration through
/// `reconfigure_with_chain` re-solves for the new weights and validates
/// the chain shape against the running spec.
#[test]
fn chain_migration_revalidates_and_resolves() {
    let _guard = serial();
    let chain = traced_chain();
    let machine = VirtualMachine::new(Resources::new(3, 0));
    let solution = Herad::new().schedule(&chain, machine.resources()).unwrap();
    let total = 200u64;
    let (spec, trace) = traced_spec(100.0, 400.0);
    let live = spec
        .launch(&chain, &solution, &machine, &RunConfig::with_frames(total))
        .unwrap();
    wait_frames(&live, 30);

    // Wrong shape: typed errors, no migration.
    let short = TaskChain::new(vec![Task::new(1, 2, true)]);
    assert!(matches!(
        live.reconfigure_with_chain(&short, &machine),
        Err(amp_runtime::RuntimeError::ChainMismatch { .. })
    ));
    let flipped = TaskChain::new(vec![Task::new(100, 200, true), Task::new(400, 800, true)]);
    assert!(matches!(
        live.reconfigure_with_chain(&flipped, &machine),
        Err(amp_runtime::RuntimeError::ReplicabilityMismatch(0))
    ));

    // Re-profiled weights that invert the bottleneck: the feeder now
    // dominates, so the optimal decomposition changes.
    let reprofiled = TaskChain::new(vec![Task::new(900, 1800, false), Task::new(200, 400, true)]);
    let event = live
        .reconfigure_with_chain(&reprofiled, &machine)
        .expect("chain migration");
    assert!(event.migrated_stages > 0, "{event:?}");

    let report = live.join();
    assert_eq!(report.frames, total);
    assert_eq!(report.epochs, 2);
    assert_lossless(&trace, total);
}

/// Dry-run planning never touches the running pipeline.
#[test]
fn plan_is_a_pure_preview() {
    let _guard = serial();
    let chain = traced_chain();
    let wide = VirtualMachine::new(Resources::new(3, 0));
    let narrow = VirtualMachine::new(Resources::new(1, 0));
    let solution = Herad::new().schedule(&chain, wide.resources()).unwrap();
    let total = 120u64;
    let (spec, trace) = traced_spec(100.0, 400.0);
    let live = spec
        .launch(&chain, &solution, &wide, &RunConfig::with_frames(total))
        .unwrap();
    let plan = live.plan(&narrow).expect("preview");
    assert_eq!(plan.from.stages(), solution.stages());
    assert!(!plan.diff.is_noop());
    assert!(plan.diff.migrated_stages() > 0);
    let report = live.join();
    assert_eq!(report.frames, total);
    assert_eq!(report.epochs, 1, "a preview must not migrate");
    assert!(report.reconfigs.is_empty());
    assert_lossless(&trace, total);
}

/// Satellite pin for the drain-accounting fix: a duration stop must drain
/// exactly the claimed-and-processed frames — the sink trace is a
/// contiguous prefix `0..frames` with no holes (a frame claimed by the
/// source but dropped mid-pipeline would leave one).
#[test]
fn duration_stop_drains_exactly_the_produced_frames() {
    let _guard = serial();
    let chain = traced_chain();
    let machine = VirtualMachine::new(Resources::new(3, 0));
    let solution = Herad::new().schedule(&chain, machine.resources()).unwrap();
    let (spec, trace) = traced_spec(100.0, 400.0);
    let report = spec
        .run(
            &chain,
            &solution,
            &machine,
            &RunConfig::with_duration(Duration::from_millis(40)),
        )
        .unwrap();
    assert!(report.frames > 0);
    assert_lossless(&trace, report.frames);
}

/// A stop() during a replicated run drains contiguously too (the other
/// half of the unified drain semantics).
#[test]
fn manual_stop_drains_contiguously() {
    let _guard = serial();
    let chain = traced_chain();
    let machine = VirtualMachine::new(Resources::new(3, 0));
    let solution = Herad::new().schedule(&chain, machine.resources()).unwrap();
    let (spec, trace) = traced_spec(100.0, 400.0);
    let cfg = RunConfig {
        frames: None,
        max_duration: None,
        queue_capacity: 8,
        warmup_fraction: 0.2,
    };
    let live = spec.launch(&chain, &solution, &machine, &cfg).unwrap();
    wait_frames(&live, 25);
    live.stop();
    let report = live.join();
    assert!(report.frames >= 25);
    assert_lossless(&trace, report.frames);
}

/// Migration at a boundary right next to the frame limit: reconfigure
/// close to the end and make sure nothing is lost even when the new epoch
/// is tiny.
#[test]
fn late_migration_with_a_tiny_final_epoch_is_lossless() {
    let _guard = serial();
    let chain = TaskChain::new(vec![Task::new(300, 600, true)]);
    let trace: Trace = Arc::new(Mutex::new(Vec::new()));
    let sink = trace.clone();
    let spec = PipelineSpec::new(
        Arc::new(|_| Vec::new()),
        vec![RuntimeTask::new(
            "only",
            true,
            FnWork(move |seq: u64, d: &mut Vec<u64>, _c: CoreType| {
                let _ = spin_for_micros(300.0, seq | 1);
                d.push(0);
                d.push(1);
                sink.lock().unwrap().push((seq, d.clone()));
            }),
        )],
    );
    let wide = VirtualMachine::new(Resources::new(3, 0));
    let narrow = VirtualMachine::new(Resources::new(1, 0));
    let wide_solution = Solution::new(vec![Stage::new(0, 0, 3, CoreType::Big)]);
    let total = 120u64;
    let live = spec
        .launch(
            &chain,
            &wide_solution,
            &wide,
            &RunConfig::with_frames(total),
        )
        .unwrap();
    wait_frames(&live, total - 20);
    match live.reconfigure(&narrow) {
        Ok(event) => assert!(event.boundary_frame < total, "{event:?}"),
        // The run may legitimately finish while quiescing.
        Err(amp_runtime::RuntimeError::Terminated) => {}
        Err(e) => panic!("unexpected error {e}"),
    }
    let report = live.join();
    assert_eq!(report.frames, total);
    assert_lossless(&trace, total);
}
