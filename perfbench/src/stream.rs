//! The `stream` workload: the DVB-S2 receiver chain (X7 Ti profile)
//! executed by the `amp-runtime` pipeline on a 1B+1L virtual machine, as
//! scheduled by HeRAD. On that profile HeRAD's two stages differ by half
//! (57640 vs 89075 weight units), so the little-core stage is the
//! bottleneck in every run and the ring in front of it stays full; with
//! the Mac Studio profile the stages are within 5% and host noise decides
//! which one limits, which makes latency bimodal.
//!
//! Every task body spins a fixed number of iterations per weight unit of
//! its profiled cost on the core type it runs on (no time calibration, so
//! the work per frame is the same in every process), then folds its index
//! into the frame's checksum. The last task checks each frame against the
//! checksum a single-threaded pass of the same task transforms gives, and
//! that frames arrive exactly once and in order.

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use amp_core::sched::{Herad, Scheduler};
use amp_core::{CoreType, Resources, Solution, TaskChain};
use amp_dvbs2::{profiled_chain, Platform};
use amp_runtime::{
    FnWork, OrderedRing, PipelineSpec, RunConfig, RunReport, RunningPipeline, RuntimeTask,
    VirtualMachine,
};

use crate::gen::mix;
use crate::hist::median;
use crate::wire::{more_set_ups, timed_set_up, E2e, Tally, Windows, SUB_WINDOWS};

/// Pinned machine: one big and one little virtual core, so the pipeline
/// runs two busy worker threads.
pub const POOL: (u64, u64) = (1, 1);
/// Spin iterations per weight unit (tenths of a profiled microsecond):
/// about 33 µs of work on the bottleneck stage per frame. The ring
/// wake-up a frame costs moves between 4 and 10 µs on a small virtual
/// machine; at 10 µs of work that moved run-to-run throughput by 30%.
const ITERS_PER_UNIT_NUM: u64 = 1;
const ITERS_PER_UNIT_DEN: u64 = 4;
/// Frames through the pipeline before set-up counts as done: sixteen
/// times the ring capacity, so the ring in front of the bottleneck stage
/// has filled and the workers run at their steady period.
const WARMUP_FRAMES: u64 = 256;
/// Ring capacity between stages.
const QUEUE_CAPACITY: u64 = 16;
/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 101;
/// Traced runs record the task spans of every `TRACE_EVERY`-th frame.
const TRACE_EVERY: u64 = 16;
const TRACE_FRAMES: usize = 16_384;

fn iterations(weight: u64) -> u64 {
    (weight * ITERS_PER_UNIT_NUM / ITERS_PER_UNIT_DEN).max(1)
}

fn spin(iters: u64, mut x: u64) -> u64 {
    for _ in 0..iters {
        x = black_box(
            x.wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407),
        );
    }
    x
}

/// The checksum transform of task `task` on frame `seq`.
fn step(acc: u64, task: usize, seq: u64) -> u64 {
    mix(acc ^ ((task as u64 + 1) << 40) ^ seq)
}

fn initial(seed: u64, seq: u64) -> u64 {
    mix(seed ^ mix(seq))
}

/// The single-threaded reference: every task transform applied in order.
fn reference(seed: u64, seq: u64, tasks: usize) -> u64 {
    (0..tasks).fold(initial(seed, seq), |acc, t| step(acc, t, seq))
}

pub struct Frame {
    born: Instant,
    acc: u64,
}

/// What the last task observed.
#[derive(Default)]
struct Sink {
    next: u64,
    seen: u64,
    failed: u64,
    windows: Option<Windows>,
}

impl Sink {
    fn on_frame(&mut self, seed: u64, tasks: usize, seq: u64, frame: &Frame, end: Instant) {
        self.seen += 1;
        // A gap counts every frame it skipped; a repeat or a step back
        // counts this frame.
        if seq > self.next {
            self.failed += seq - self.next;
        } else if seq < self.next {
            self.failed += 1;
        }
        if frame.acc != reference(seed, seq, tasks) {
            self.failed += 1;
        }
        self.next = self.next.max(seq + 1);
        if let Some(w) = &mut self.windows {
            w.record(frame.born, end);
        }
    }
}

/// Task spans of sampled frames: start and end (ns since `clock`) per
/// task, written by whichever worker runs that task of that frame.
pub struct SpanGrid {
    clock: Instant,
    tasks: usize,
    /// First traced frame; `u64::MAX` until tracing starts.
    from: AtomicU64,
    cells: Vec<[AtomicU64; 2]>,
    born: Vec<AtomicU64>,
}

impl SpanGrid {
    fn new(tasks: usize) -> SpanGrid {
        SpanGrid {
            clock: Instant::now(),
            tasks,
            from: AtomicU64::new(u64::MAX),
            cells: (0..TRACE_FRAMES * tasks)
                .map(|_| [AtomicU64::new(0), AtomicU64::new(0)])
                .collect(),
            born: (0..TRACE_FRAMES).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The sample row of frame `seq`, if it is traced.
    fn row(&self, seq: u64) -> Option<usize> {
        let from = self.from.load(Ordering::Relaxed);
        if seq < from || !(seq - from).is_multiple_of(TRACE_EVERY) {
            return None;
        }
        let row = ((seq - from) / TRACE_EVERY) as usize;
        (row < TRACE_FRAMES).then_some(row)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.clock).as_nanos() as u64
    }

    /// Complete rows as (born, [(start, end)] per task).
    fn rows(&self) -> Vec<(u64, Vec<(u64, u64)>)> {
        (0..TRACE_FRAMES)
            .map(|r| {
                let spans: Vec<(u64, u64)> = (0..self.tasks)
                    .map(|t| {
                        let c = &self.cells[r * self.tasks + t];
                        (c[0].load(Ordering::Relaxed), c[1].load(Ordering::Relaxed))
                    })
                    .collect();
                (self.born[r].load(Ordering::Relaxed), spans)
            })
            .filter(|(born, spans)| *born > 0 && spans.iter().all(|&(s, e)| s > 0 && e >= s))
            .collect()
    }
}

/// A launched pipeline and what its sink saw.
pub struct Live {
    running: RunningPipeline<Frame>,
    sink: Arc<Mutex<Sink>>,
    chain: TaskChain,
    solution: Solution,
    grid: Option<Arc<SpanGrid>>,
}

/// Schedules the chain with HeRAD, launches the pipeline and runs it to
/// the end of its warm-up.
pub fn set_up(seed: u64, traced: bool) -> Result<Live, String> {
    let chain = profiled_chain(Platform::X7Ti);
    let resources = Resources::new(POOL.0, POOL.1);
    let solution = Herad::new()
        .schedule(&chain, resources)
        .ok_or("HeRAD found no schedule for the stream chain")?;
    // Frames leave the last stage in order only when it runs one replica.
    if solution.stages().last().map(|s| s.cores) != Some(1) {
        return Err("the last stage must run a single replica".to_string());
    }
    let n = chain.len();
    let sink = Arc::new(Mutex::new(Sink::default()));
    let grid = traced.then(|| Arc::new(SpanGrid::new(n)));
    let source_grid = grid.clone();
    let source = Arc::new(move |seq: u64| {
        let born = Instant::now();
        if let Some(g) = &source_grid {
            if let Some(row) = g.row(seq) {
                g.born[row].store(g.ns(born), Ordering::Relaxed);
            }
        }
        Frame {
            born,
            acc: initial(seed, seq),
        }
    });
    let tasks = chain
        .tasks()
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let (big, little) = (iterations(t.weight_big), iterations(t.weight_little));
            let sink = (i + 1 == n).then(|| Arc::clone(&sink));
            let grid = grid.clone();
            let body = move |seq: u64, f: &mut Frame, core: CoreType| {
                let row = grid.as_ref().and_then(|g| g.row(seq));
                let start = row.map(|_| Instant::now());
                let iters = if core == CoreType::Big { big } else { little };
                black_box(spin(iters, f.acc));
                f.acc = step(f.acc, i, seq);
                if row.is_none() && sink.is_none() {
                    return;
                }
                let end = Instant::now();
                if let (Some(g), Some(row), Some(start)) = (&grid, row, start) {
                    let cell = &g.cells[row * g.tasks + i];
                    cell[0].store(g.ns(start), Ordering::Relaxed);
                    cell[1].store(g.ns(end), Ordering::Relaxed);
                }
                if let Some(sink) = &sink {
                    sink.lock()
                        .expect("sink lock holder panicked")
                        .on_frame(seed, n, seq, f, end);
                }
            };
            RuntimeTask::new(&t.name, t.replicable, FnWork(body))
        })
        .collect();
    let spec = PipelineSpec::new(source, tasks);
    let config = RunConfig {
        frames: None,
        max_duration: None,
        queue_capacity: QUEUE_CAPACITY,
        warmup_fraction: 0.2,
    };
    let running = spec
        .launch(&chain, &solution, &VirtualMachine::new(resources), &config)
        .map_err(|e| e.to_string())?;
    let live = Live {
        running,
        sink,
        chain,
        solution,
        grid,
    };
    while live.seen() < WARMUP_FRAMES {
        std::thread::sleep(Duration::from_micros(200));
    }
    Ok(live)
}

impl Live {
    fn seen(&self) -> u64 {
        self.sink.lock().expect("sink lock holder panicked").seen
    }

    /// Runs `n` consecutive sub-windows of `windows` on this pipeline.
    fn measure(&self, mut windows: Windows, n: usize) -> Windows {
        for _ in 0..n {
            let end = windows.open();
            self.sink.lock().expect("sink lock holder panicked").windows = Some(windows);
            std::thread::sleep(end.saturating_duration_since(Instant::now()));
            windows = self
                .sink
                .lock()
                .expect("sink lock holder panicked")
                .windows
                .take()
                .expect("set above");
        }
        windows
    }

    /// Stops the pipeline; returns its report and `(frames, failed)`.
    fn finish(self) -> (RunReport, u64, u64) {
        self.running.stop();
        let report = self.running.join();
        let sink = self.sink.lock().expect("sink lock holder panicked");
        let (frames, failed) = (
            report.frames,
            sink.failed + report.frames.abs_diff(sink.seen),
        );
        (report, frames, failed)
    }
}

/// Sets the pipeline up (schedule, launch, warm-up), measures `secs`,
/// then times `SETUP_REPS - 1` more set-ups.
pub fn run_e2e(seed: u64, secs: f64) -> Result<E2e, String> {
    let mut tally = Tally::default();
    let mut retire = |live: Live| {
        let (_, frames, failed) = live.finish();
        tally.add(Tally {
            attempted: frames,
            failed,
            herad: 0,
        });
    };
    let (mut live, first) = timed_set_up(|| set_up(seed, false))?;
    // One sub-window per launch: like thread placement on the wire, the
    // cost of a pipeline's per-frame hand-offs settles per launch and
    // persists for seconds, so each sub-window samples a launch of its own.
    let mut windows = Windows::new(secs);
    for k in 0..SUB_WINDOWS {
        if k > 0 {
            retire(live);
            live = set_up(seed, false)?;
        }
        windows = live.measure(windows, 1);
    }
    let peak_rss_mb = crate::peak_rss_mb()?;
    retire(live);
    let mut setup_s = vec![first];
    setup_s.extend(more_set_ups(
        SETUP_REPS - 1,
        || set_up(seed, false),
        &mut retire,
    )?);
    Ok(E2e {
        windows,
        setup_s,
        peak_rss_mb,
        tally,
        sample: (0, 0),
    })
}

/// One sampled frame: its op id, its birth and each task's (start, end),
/// all in ns.
pub type FrameSpans = (u64, u64, Vec<(u64, u64)>);

/// Runtime-layer figures of a traced stream run.
pub struct Traced {
    pub untraced: Windows,
    pub traced: Windows,
    pub task_self_ns: f64,
    pub handoff_wait_us: f64,
    pub stage_utilization: f64,
    pub period_over_model: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Sampled frames for the span dump.
    pub rows: Vec<FrameSpans>,
}

pub fn run_traced(seed: u64, secs: f64) -> Result<Traced, String> {
    let live = set_up(seed, true)?;
    let half = SUB_WINDOWS / 2;
    let untraced = live.measure(Windows::new(secs), half);
    let grid = Arc::clone(live.grid.as_ref().expect("traced set-up has a grid"));
    let from = live.running.frames_done() + 64;
    grid.from.store(from, Ordering::Relaxed);
    let traced = live.measure(Windows::new(secs), half);
    let model_units = live.solution.period(&live.chain);
    let (report, frames, failed) = live.finish();
    let rows = grid.rows();
    let self_ns: Vec<f64> = rows
        .iter()
        .map(|(_, spans)| spans.iter().map(|&(s, e)| (e - s) as f64).sum())
        .collect();
    let wait_us: Vec<f64> = rows
        .iter()
        .map(|(born, spans)| {
            let mut prev = *born;
            let mut wait = 0u64;
            for &(s, e) in spans {
                wait += s.saturating_sub(prev);
                prev = e;
            }
            wait as f64 / 1e3
        })
        .collect();
    let stage_utilization = report
        .stages
        .iter()
        .map(|s| s.utilization)
        .fold(0.0, f64::max);
    let model_ns = model_units.to_f64() * ns_per_unit();
    let period_over_model = report.period_us * 1e3 / model_ns;
    Ok(Traced {
        untraced,
        traced,
        task_self_ns: median(&self_ns),
        handoff_wait_us: median(&wait_us),
        stage_utilization,
        period_over_model,
        attempted: frames,
        failed,
        rows: rows
            .into_iter()
            .enumerate()
            .map(|(r, (born, spans))| (from + r as u64 * TRACE_EVERY, born, spans))
            .collect(),
    })
}

/// Measured cost of one weight unit of task work on this host, ns.
fn ns_per_unit() -> f64 {
    let units = 8_000_000u64;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            black_box(spin(iterations(units), 7));
            t0.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    median(&samples)
}

/// `OrderedRing` push + pop of one frame on one thread, ns per pair.
pub fn ring_ns() -> f64 {
    let pairs = 200_000u64;
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let ring = OrderedRing::new(16);
            let t0 = Instant::now();
            for seq in 0..pairs {
                ring.push(seq, seq);
                black_box(ring.pop(seq));
            }
            t0.elapsed().as_nanos() as f64 / pairs as f64
        })
        .collect();
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A dropped frame is counted as failed: the sink sees a gap in the
    /// sequence. A frame whose checksum skipped a task fails too.
    #[test]
    fn dropped_and_corrupted_frames_fail() {
        let (seed, tasks) = (5, 23);
        let frame = |seq: u64, acc: u64| Frame {
            born: Instant::now(),
            acc: if acc == 0 {
                reference(seed, seq, tasks)
            } else {
                acc
            },
        };
        let mut sink = Sink::default();
        for seq in 0..4 {
            sink.on_frame(seed, tasks, seq, &frame(seq, 0), Instant::now());
        }
        assert_eq!(sink.failed, 0);
        // Frame 4 is dropped.
        sink.on_frame(seed, tasks, 5, &frame(5, 0), Instant::now());
        assert_eq!(sink.failed, 1);
        // Frame 6 skipped its last task.
        let skipped = (0..tasks - 1).fold(initial(seed, 6), |acc, t| step(acc, t, 6));
        sink.on_frame(seed, tasks, 6, &frame(6, skipped), Instant::now());
        assert_eq!(sink.failed, 2);
        assert_eq!(sink.seen, 6);
    }

    #[test]
    fn pipeline_delivers_every_frame_in_order() {
        let live = set_up(3, false).expect("stream set-up");
        let (report, frames, failed) = live.finish();
        assert!(frames >= WARMUP_FRAMES);
        assert_eq!(failed, 0);
        assert_eq!(report.stages.len(), 2, "1B+1L runs two stages");
    }
}
