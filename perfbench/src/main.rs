//! End-to-end and per-layer benchmark of the scheduling service's wire
//! path and of the streaming runtime.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <wire_hot|sweep|cold_mix|stream> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run sets the workload up, measures it for
//! `--seconds`, times more set-ups (the median of all is `setup_s`) and
//! prints the end-to-end metrics; with `--trace 1` it prints the per-layer metrics
//! of a traced run. Every answer is checked; the last stdout line is one
//! JSON object `{"correct","attempted","failed","metrics"}`. Scratch
//! files (the sweep snapshot, span dumps) go to `.perfbench/` under the
//! working directory.

mod capacity;
mod check;
mod gen;
mod hist;
mod layers;
mod stream;
mod trace;
mod wire;

use std::path::{Path, PathBuf};
use std::time::Duration;

use hist::median;
use layers::Metrics;
use trace::Spans;
use wire::{Tally, WireWorkload};

/// Capacity of the traced run's span buffer.
const SPAN_CAPACITY: usize = 1 << 16;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(bad("a duration in (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn wire_workload(name: &str, seed: u64, dir: &Path) -> Option<WireWorkload> {
    match name {
        "wire_hot" => Some(wire::wire_hot(seed)),
        "sweep" => Some(wire::sweep(
            seed,
            dir.join(format!("sweep-snapshot-{}.json", std::process::id())),
        )),
        "cold_mix" => Some(wire::cold_mix(seed)),
        _ => None,
    }
}

/// Peak resident set (VmHWM), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or("no VmHWM in /proc/self/status".to_string())
}

fn describe(w: &WireWorkload) -> String {
    let c = w.cfg;
    format!(
        "config {}: shards {} workers {} window {} batch_max {} lru {} entries / {} shards, \
         chain tier {} chains, instances {}, largest pool {}B+{}L",
        w.name,
        c.shards,
        c.workers,
        c.window,
        c.batch_max,
        c.cache_capacity,
        c.cache_shards,
        c.chain_capacity,
        if w.gen.table.is_empty() {
            "fresh per request".to_string()
        } else {
            w.gen.table.len().to_string()
        },
        w.max_pool.big,
        w.max_pool.little,
    )
}

fn render(correct: bool, tally: Tally, metrics: &Metrics) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        tally.attempted, tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            return Err(format!("metric {name} was not measured"));
        }
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    out.push_str("}}");
    Ok(out)
}

fn end_to_end(a: &Args, dir: &Path) -> Result<(Tally, Metrics), String> {
    let secs = a.seconds;
    let e = if let Some(w) = wire_workload(&a.workload, a.seed, dir) {
        println!("{}", describe(&w));
        w.write_snapshot().map_err(|e| e.to_string())?;
        let run = wire::run_e2e(&w, secs);
        wire::remove_snapshot(w.snapshot.as_deref());
        let e = run.map_err(|e| e.to_string())?;
        println!(
            "checked every reply; {} sampled replies compared byte for byte with a direct solve, {} differed",
            e.sample.0, e.sample.1
        );
        e
    } else if a.workload == "stream" {
        println!(
            "config stream: DVB-S2 receiver chain (X7 Ti profile), HeRAD on {}B+{}L, 2 stages, queue 16",
            stream::POOL.0,
            stream::POOL.1
        );
        stream::run_e2e(a.seed, secs)?
    } else {
        return Err(format!("unknown workload {:?}", a.workload));
    };
    let metrics: Metrics = vec![
        ("throughput_per_s", e.windows.throughput(), "1/s"),
        ("p50_us", e.windows.quantile_us(0.5), "us"),
        ("p99_us", e.windows.quantile_us(0.99), "us"),
        ("setup_s", median(&e.setup_s), "s"),
        ("peak_rss_mb", e.peak_rss_mb, "MiB"),
    ];
    let fastest = e.setup_s.iter().copied().fold(f64::INFINITY, f64::min);
    let slowest = e.setup_s.iter().copied().fold(0.0, f64::max);
    println!(
        "timed {secs} s in {} sub-windows, {} latency samples; figures are sub-window medians; \
         {} set-ups from {fastest:.4} to {slowest:.4} s",
        wire::SUB_WINDOWS,
        e.windows.samples(),
        e.setup_s.len(),
    );
    println!(
        "sub-window throughput {:?} 1/s",
        e.windows
            .per_window()
            .iter()
            .map(|t| t.round())
            .collect::<Vec<_>>()
    );
    for (name, value, unit) in &metrics {
        println!("{name} {value:.3} {unit}");
    }
    Ok((e.tally, metrics))
}

/// Counter metrics of a traced wire run.
fn counter_metrics(t: &wire::TracedWire, out: &mut Metrics) {
    let (b, a) = (&t.before, &t.after);
    let batches = a.net.batches - b.net.batches;
    let rejected = |n: &amp_net::NetSnapshot| {
        n.rejected_overload + n.rejected_quota + n.rejected_shutdown + n.parse_errors
    };
    let ratio = |n: u64, d: u64| if d == 0 { 0.0 } else { n as f64 / d as f64 };
    let hits = a.cache.hits - b.cache.hits;
    let lookups = hits + a.cache.misses - b.cache.misses;
    let tier_hits = a.tier.hits - b.tier.hits;
    let tier_cold = a.tier.cold_solves - b.tier.cold_solves;
    let tier_lookups = tier_hits + a.tier.grows - b.tier.grows + tier_cold;
    let mut engine = a.engine;
    for (x, y) in engine.latency.iter_mut().zip(&b.engine.latency) {
        *x -= y;
    }
    out.extend([
        (
            "net.frames_per_batch",
            ratio(a.net.batched_requests - b.net.batched_requests, batches),
            "count",
        ),
        ("net.batches", batches as f64, "count"),
        (
            "net.rejected",
            (rejected(&a.net) - rejected(&b.net)) as f64,
            "count",
        ),
        (
            "engine.service_p50_us",
            engine.latency_quantile_ns(0.5) as f64 / 1e3,
            "us",
        ),
        ("cache.hit_ratio", ratio(hits, lookups), "ratio"),
        ("cache.lookups", lookups as f64, "count"),
        (
            "cache.evictions_per_op",
            ratio(a.cache.evictions - b.cache.evictions, t.ops),
            "ratio",
        ),
        (
            "chain_tier.useful_ratio",
            ratio(tier_lookups - tier_cold, tier_lookups),
            "ratio",
        ),
        ("chain_tier.lookups", tier_lookups as f64, "count"),
        ("chain_tier.extractions", tier_hits as f64, "count"),
        ("chain_tier.cold_solves", tier_cold as f64, "count"),
        (
            "chain_tier.evictions_per_op",
            ratio(a.tier.evictions - b.tier.evictions, t.ops),
            "ratio",
        ),
        ("wire.ops", t.ops as f64, "count"),
        ("wire.herad_requests", t.herad as f64, "count"),
    ]);
}

/// The wire side of a traced run: the traced closed loop, the serving
/// replay and the probes. Returns the untraced p50 and throughput, the
/// traced throughput and the replay's layer time per op.
fn traced_wire(
    w: &WireWorkload,
    secs: f64,
    spans: &mut Spans,
    tally: &mut Tally,
    out: &mut Metrics,
) -> Result<(f64, f64, f64, f64), String> {
    println!("{}", describe(w));
    w.write_snapshot().map_err(|e| e.to_string())?;
    let result = (|| -> std::io::Result<_> {
        let t = wire::run_traced(w, secs, spans)?;
        tally.add(t.tally);
        let (ops, replay_tally) = layers::replay(w, spans, Duration::from_secs_f64(secs / 3.0))?;
        tally.add(replay_tally);
        let layer_us = layers::layer_us_per_op(spans, ops, w.cfg.window);
        layers::probe(w, spans, tally)?;
        Ok((t, ops, layer_us))
    })();
    wire::remove_snapshot(w.snapshot.as_deref());
    let (t, ops, layer_us) = result.map_err(|e| e.to_string())?;
    counter_metrics(&t, out);
    println!(
        "traced {}: {} wire ops in the traced phase, {} ops replayed through the layers",
        w.name, t.ops, ops
    );
    Ok((
        t.untraced.quantile_us(0.5),
        t.untraced.throughput(),
        t.traced.throughput(),
        layer_us,
    ))
}

fn traced(a: &Args, dir: &Path) -> Result<(Tally, Metrics), String> {
    let mut spans = Spans::new(SPAN_CAPACITY);
    let mut tally = Tally::default();
    let mut out: Metrics = Vec::new();
    let (unaccounted_us, overhead, stream_run);
    if let Some(w) = wire_workload(&a.workload, a.seed, dir) {
        let (p50, untraced, traced, layer_us) =
            traced_wire(&w, a.seconds, &mut spans, &mut tally, &mut out)?;
        unaccounted_us = p50 - layer_us;
        overhead = untraced / traced - 1.0;
        stream_run = stream::run_traced(a.seed, 1.0)?;
        push_frames(&mut spans, &stream_run.rows);
        if w.name == "wire_hot" {
            for r in capacity::ladder(&w).map_err(|e| e.to_string())? {
                println!(
                    "capacity wire_hot: offered {}/s achieved {:.0}/s p50 {:.1} us p99 {:.1} us \
                     generator late p99 {:.1} us failed {} {}",
                    r.rate,
                    r.achieved,
                    r.p50_us,
                    r.p99_us,
                    r.late_p99_us,
                    r.failed,
                    if r.meets_bound() { "ok" } else { "over bound" }
                );
                tally.attempted += r.sent;
                tally.failed += r.failed;
            }
        }
    } else if a.workload == "stream" {
        let s = stream::run_traced(a.seed, a.seconds)?;
        unaccounted_us = s.untraced.quantile_us(0.5) - (s.task_self_ns / 1e3 + s.handoff_wait_us);
        overhead = s.untraced.throughput() / s.traced.throughput() - 1.0;
        push_frames(&mut spans, &s.rows);
        stream_run = s;
        // The stream bypasses the wire layers; they are measured on
        // wire_hot's mix from the same seed.
        let hot = wire::wire_hot(a.seed);
        traced_wire(&hot, 3.0, &mut spans, &mut tally, &mut out)?;
    } else {
        return Err(format!("unknown workload {:?}", a.workload));
    }
    tally.attempted += stream_run.attempted;
    tally.failed += stream_run.failed;
    layers::span_metrics(&spans, &mut out);
    out.extend([
        ("runtime.ring_ns", stream::ring_ns(), "ns"),
        ("runtime.task_self_ns", stream_run.task_self_ns, "ns"),
        ("runtime.handoff_wait_us", stream_run.handoff_wait_us, "us"),
        (
            "runtime.stage_utilization",
            stream_run.stage_utilization,
            "ratio",
        ),
        (
            "runtime.period_over_model",
            stream_run.period_over_model,
            "ratio",
        ),
        ("trace.unaccounted_us", unaccounted_us, "us"),
        ("trace.overhead", overhead, "ratio"),
    ]);
    let path = dir.join(format!("trace-{}.tsv", a.workload));
    spans.write_tsv(&path).map_err(|e| e.to_string())?;
    println!("spans written to {}", path.display());
    for (name, value, unit) in &out {
        println!("{name} {value:.3} {unit}");
    }
    Ok((tally, out))
}

/// Adds sampled stream frames to the span dump: a root span per frame
/// and one child per task, in chain order.
fn push_frames(spans: &mut Spans, rows: &[stream::FrameSpans]) {
    for (op, born, row) in rows {
        let end = row.last().map_or(*born, |s| s.1);
        let root = spans.push("stream.frame", *born, end, None, *op);
        for &(s, e) in row {
            spans.push("stream.task", s, e, root, *op);
        }
    }
}

fn run(a: &Args) -> Result<String, String> {
    let dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    println!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        a.workload,
        a.seed,
        a.seconds,
        u8::from(a.trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let (tally, metrics) = if a.trace {
        traced(a, &dir)?
    } else {
        end_to_end(a, &dir)?
    };
    render(tally.failed == 0, tally, &metrics)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
