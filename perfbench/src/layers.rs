//! The traced run's per-layer numbers.
//!
//! The serving replay walks a wire workload's op sequence on one thread
//! through the public functions the server calls, in serving order
//! (parse → route → cache get → on a miss: tier or solver → validate →
//! cache insert → render → write), with a cache and chain tier filled as
//! in the run.
//! Each call is a child span of its op. Layers the workload never reaches
//! on its serving path are measured by direct probes on the same
//! workload's instances, so every traced run reports every layer.

use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use amp_core::sched::batch::schedule_many_with;
use amp_core::sched::{strategy_by_name, ChainTable, SchedScratch};
use amp_core::{Resources, Solution, TaskChain};
use amp_net::proto::{self, WireRequest};
use amp_service::{
    solution_is_sound, CacheKey, ChainTier, EngineConfig, EngineShards, ScheduleOutcome,
    ScheduleResponse, SolutionCache, TierServe,
};

use crate::check::{self, Reply};
use crate::gen::Instance;
use crate::trace::Spans;
use crate::wire::{self, Tally, WireWorkload};

/// Collected metrics: (name, value, unit).
pub type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The serving path's state, filled as in the run.
struct Serving<'w> {
    w: &'w WireWorkload,
    cache: SolutionCache,
    tier: ChainTier,
    router: EngineShards,
    line: Vec<u8>,
    fresh: Instance,
    sol: Solution,
}

impl<'w> Serving<'w> {
    fn new(w: &'w WireWorkload) -> Serving<'w> {
        Serving {
            w,
            cache: SolutionCache::new(w.cfg.cache_capacity, w.cfg.cache_shards),
            tier: ChainTier::new(w.cfg.chain_capacity, None),
            // Routing only needs the shard count; no engine threads run.
            router: EngineShards::start(
                w.cfg.shards,
                &EngineConfig {
                    workers: 0,
                    racer_threads: 0,
                    cache_capacity: 0,
                    chain_capacity: 0,
                    ..EngineConfig::default()
                },
            ),
            line: Vec::with_capacity(4096),
            fresh: Instance::default(),
            sol: Solution::empty(),
        }
    }

    /// Serves op `seq` as the engine would, rendering the reply into
    /// `out`. Returns whether the reply passed the checker.
    fn serve(&mut self, spans: &mut Spans, seq: u64, out: &mut String) -> bool {
        let which = self.w.gen.op(seq, &mut self.fresh);
        self.line.clear();
        self.w
            .gen
            .write_frame(which, &self.fresh, seq, &mut self.line);
        let text = std::str::from_utf8(&self.line[..self.line.len() - 1]).expect("ASCII frame");
        let mut scope = spans.open("replay.op", seq);
        let parsed = spans.layer(&mut scope, "net.parse", || proto::parse_request(text, 512));
        let Ok(WireRequest::Schedule { request, .. }) = parsed else {
            spans.close(scope, "replay.op_self");
            return false;
        };
        let key = spans.layer(&mut scope, "engine.route", || {
            let key = CacheKey::for_request(&request);
            std::hint::black_box(self.router.shard_of(&request));
            key
        });
        let t0 = Instant::now();
        let hit = self.cache.get(&key);
        let t1 = Instant::now();
        // A hit is answered as stored, as the engine does; only a fresh
        // solution is validated before it is served and cached.
        let outcome = if let Some(outcome) = hit {
            spans.child(&mut scope, "cache.hit", t0, t1);
            outcome
        } else {
            spans.child(&mut scope, "cache.miss", t0, t1);
            let chain = request.chain();
            let resources = request.resources();
            let policy = self.w.gen.instance(which, &self.fresh).policy;
            let feasible = if policy == "HeRAD" {
                let t0 = Instant::now();
                let (how, ok) = self
                    .tier
                    .serve(&request.tasks, &chain, resources, &mut self.sol);
                let name = match how {
                    TierServe::Extracted => "chain_tier.extract",
                    TierServe::Grown => "chain_tier.grow",
                    TierServe::Cold => "chain_tier.cold",
                };
                spans.child(&mut scope, name, t0, Instant::now());
                ok
            } else {
                let strategy = strategy_by_name(policy).expect("known strategy");
                let mut scratch = SchedScratch::new();
                let name = if policy == "2CATAC" {
                    "sched.twocatac"
                } else {
                    "sched.fertac"
                };
                spans.layer(&mut scope, name, || {
                    strategy.schedule_into(&chain, resources, &mut scratch, &mut self.sol)
                })
            };
            let sound = feasible
                && spans.layer(&mut scope, "sched.validate", || {
                    solution_is_sound(&self.sol, &chain, resources)
                });
            if !sound {
                spans.close(scope, "replay.op_self");
                return false;
            }
            let outcome = ScheduleOutcome::from_solution(policy, &self.sol, &chain, true);
            let stored = outcome.clone();
            spans.layer(&mut scope, "cache.insert", || {
                self.cache.insert(key, stored)
            });
            outcome
        };
        let response = ScheduleResponse {
            id: seq,
            result: Ok(outcome),
        };
        out.clear();
        spans.layer(&mut scope, "net.render", || {
            proto::render_response_line(&response, out)
        });
        spans.close(scope, "replay.op_self");
        match check::scan(out.trim_end()) {
            Reply::Ok(r) => check::reply_is_valid(&r, self.w.gen.instance(which, &self.fresh)),
            _ => false,
        }
    }

    /// Brings the replay's cache and tier to the run's steady state;
    /// returns the next op index.
    fn warm(&mut self, tally: &mut Tally) -> io::Result<u64> {
        let mut throwaway = Spans::new(0);
        let mut out = String::new();
        let w = self.w;
        wire::warm_up(w, |first, n| {
            for seq in first..first + n {
                tally.attempted += 1;
                tally.failed += u64::from(!self.serve(&mut throwaway, seq, &mut out));
            }
            Ok(wire::full(self.cache.stats(), self.tier.stats()))
        })
    }
}

/// Replays the workload's serving path for `budget`; returns the ops
/// replayed and the tally.
pub fn replay(w: &WireWorkload, spans: &mut Spans, budget: Duration) -> io::Result<(u64, Tally)> {
    let mut s = Serving::new(w);
    if let Some(path) = &w.snapshot {
        let t0 = Instant::now();
        s.tier
            .load_from(path)
            .map_err(|e| io::Error::other(e.to_string()))?;
        spans.record_self("chain_tier.snapshot_load", t0.elapsed().as_nanos() as u64);
    }
    let mut tally = Tally::default();
    let first = s.warm(&mut tally)?;
    // Replies are written, corked by the window size, into a loopback
    // socket that a helper thread drains.
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut sink = TcpStream::connect(listener.local_addr()?)?;
    sink.set_nodelay(true)?;
    let (mut drain, _) = listener.accept()?;
    let ops = std::thread::scope(|scope| -> io::Result<u64> {
        let drainer = scope.spawn(move || {
            let mut buf = vec![0u8; 256 * 1024];
            while matches!(drain.read(&mut buf), Ok(n) if n > 0) {}
        });
        let mut cork: Vec<String> = (0..w.cfg.window).map(|_| String::new()).collect();
        let mut in_cork = 0;
        let deadline = Instant::now() + budget;
        let mut seq = first;
        while Instant::now() < deadline {
            tally.attempted += 1;
            if !s.serve(spans, seq, &mut cork[in_cork]) {
                tally.failed += 1;
            }
            in_cork += 1;
            if in_cork == cork.len() {
                let t0 = Instant::now();
                amp_net::write_frames(&mut sink, &cork)?;
                let t1 = Instant::now();
                spans.push_instants("net.write", t0, t1, None, seq);
                spans.record_self("net.write", (t1 - t0).as_nanos() as u64 / in_cork as u64);
                in_cork = 0;
            }
            seq += 1;
        }
        drop(sink);
        drainer.join().expect("drain thread panicked");
        Ok(seq - first)
    })?;
    Ok((ops, tally))
}

/// Up to `n` instances from the workload's op sequence (ops `0..`).
fn sample(w: &WireWorkload, n: usize) -> Vec<Instance> {
    let mut fresh = Instance::default();
    (0..n as u64)
        .map(|i| {
            let which = w.gen.op(i, &mut fresh);
            w.gen.instance(which, &fresh).clone()
        })
        .collect()
}

/// Distinct chains among `insts`, at most `n`.
fn chains(insts: &[Instance], n: usize) -> Vec<(Instance, TaskChain)> {
    let mut out: Vec<(Instance, TaskChain)> = Vec::new();
    for inst in insts {
        if out.len() < n && !out.iter().any(|(i, _)| i.tasks == inst.tasks) {
            out.push((inst.clone(), inst.chain()));
        }
    }
    out
}

fn time_ns(f: impl FnOnce()) -> u64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as u64
}

/// Direct probes for every layer the replay left without samples, on the
/// workload's own instances. `engine.roundtrip` always runs: it is the
/// in-process baseline the wire latency is compared with.
pub fn probe(w: &WireWorkload, spans: &mut Spans, tally: &mut Tally) -> io::Result<()> {
    let insts = sample(w, 48);
    let has = |spans: &Spans, name: &str| spans.median_ns(name).is_some();
    let mut sol = Solution::empty();

    for (policy, name) in [
        ("HeRAD", "sched.herad_cold"),
        ("2CATAC", "sched.twocatac"),
        ("FERTAC", "sched.fertac"),
    ] {
        if has(spans, name) {
            continue;
        }
        let strategy = strategy_by_name(policy).expect("known strategy");
        for inst in &insts {
            let chain = inst.chain();
            let mut scratch = SchedScratch::new();
            let ns = time_ns(|| {
                strategy.schedule_into(&chain, inst.resources(), &mut scratch, &mut sol);
            });
            spans.record_self(name, ns);
        }
    }

    // Only fresh solutions are validated: a workload whose every request
    // hits the LRU has its own instances' solutions validated here.
    if !has(spans, "sched.validate") {
        for inst in &insts {
            let (chain, pool) = (inst.chain(), inst.resources());
            let strategy = strategy_by_name(inst.policy).expect("known strategy");
            if strategy.schedule_into(&chain, pool, &mut SchedScratch::new(), &mut sol) {
                let ns = time_ns(|| {
                    std::hint::black_box(solution_is_sound(&sol, &chain, pool));
                });
                spans.record_self("sched.validate", ns);
            }
        }
    }

    // The engine's batch path: same-strategy groups over persistent
    // scratches, fanned out as the engine does (at most 4 solver threads).
    let mut scratches: Vec<SchedScratch> = (0..4).map(|_| SchedScratch::new()).collect();
    let owned: Vec<(TaskChain, Resources, &'static str)> = insts
        .iter()
        .map(|i| (i.chain(), i.resources(), i.policy))
        .collect();
    for policy in ["2CATAC", "FERTAC"] {
        let mut jobs: Vec<(&TaskChain, Resources)> = owned
            .iter()
            .filter(|(_, _, p)| *p == policy)
            .map(|(c, r, _)| (c, *r))
            .collect();
        if jobs.len() < 2 {
            // A workload without such requests (sweep is HeRAD only):
            // batch every sampled instance under this strategy.
            jobs = owned.iter().map(|(c, r, _)| (c, *r)).collect();
        }
        let strategy = strategy_by_name(policy).expect("known strategy");
        let fanout = jobs.len().min(scratches.len());
        for _ in 0..3 {
            let ns = time_ns(|| {
                std::hint::black_box(schedule_many_with(
                    &*strategy,
                    &jobs,
                    &mut scratches[..fanout],
                ));
            });
            spans.record_self("sched.batch_per_job", ns / jobs.len() as u64);
        }
    }

    // Library pool sweeps and direct table work over a few chains.
    let few = chains(&insts, 4);
    let grid: Vec<Resources> = (1..=w.max_pool.big)
        .flat_map(|b| (1..=w.max_pool.little.max(1)).map(move |l| Resources::new(b, l)))
        .collect();
    let herad = strategy_by_name("HeRAD").expect("known strategy");
    let sweep_jobs: Vec<(&TaskChain, Resources)> = few
        .iter()
        .flat_map(|(_, c)| grid.iter().map(move |&r| (c, r)))
        .collect();
    let mut sweep_scratch = [SchedScratch::new()];
    for _ in 0..3 {
        let ns = time_ns(|| {
            std::hint::black_box(schedule_many_with(&*herad, &sweep_jobs, &mut sweep_scratch));
        });
        spans.record_self("sched.sweep_batch_per_job", ns / sweep_jobs.len() as u64);
    }
    for (_, chain) in &few {
        let mut table = ChainTable::solve(chain, Resources::new(1, 1));
        for &pool in &grid {
            if !table.covers(pool) {
                let ns = time_ns(|| table.grow_to(chain, pool));
                spans.record_self("sched.table_grow", ns);
            }
        }
        for &pool in &grid {
            let ns = time_ns(|| {
                table.extract(chain, pool, &mut sol);
            });
            spans.record_self("sched.table_extract", ns);
        }
    }

    // The tier: a cold solve, a grow and an extraction per chain.
    let tier = ChainTier::new(w.cfg.chain_capacity.max(8), None);
    let tier_probed: Vec<&str> = ["chain_tier.extract", "chain_tier.grow", "chain_tier.cold"]
        .into_iter()
        .filter(|n| !has(spans, n))
        .collect();
    for (inst, chain) in &chains(&insts, 8) {
        for pool in [Resources::new(1, 1), w.max_pool, Resources::new(1, 1)] {
            let t0 = Instant::now();
            let (how, _) = tier.serve(&inst.tasks, chain, pool, &mut sol);
            let ns = t0.elapsed().as_nanos() as u64;
            let name = match how {
                TierServe::Extracted => "chain_tier.extract",
                TierServe::Grown => "chain_tier.grow",
                TierServe::Cold => "chain_tier.cold",
            };
            if tier_probed.contains(&name) {
                spans.record_self(name, ns);
            }
        }
    }
    if !has(spans, "chain_tier.snapshot_load") {
        // A small snapshot (four chains at 2B+2L): load time grows with
        // the square of the snapshot size.
        let small = ChainTier::new(4, None);
        for (inst, chain) in chains(&insts, 4) {
            small.serve(&inst.tasks, &chain, Resources::new(2, 2), &mut sol);
        }
        let path = std::env::current_dir()?.join(format!(
            ".perfbench/probe-snapshot-{}.json",
            std::process::id()
        ));
        small
            .save_to(&path)
            .map_err(|e| io::Error::other(e.to_string()))?;
        let fresh = ChainTier::new(w.cfg.chain_capacity.max(8), None);
        let t0 = Instant::now();
        let loaded = fresh.load_from(&path);
        spans.record_self("chain_tier.snapshot_load", t0.elapsed().as_nanos() as u64);
        let _ = std::fs::remove_file(&path);
        loaded.map_err(|e| io::Error::other(e.to_string()))?;
    }

    // The exact LRU: inserts into a cache of the run's size, then hits
    // and misses on it.
    if !(has(spans, "cache.hit") && has(spans, "cache.miss") && has(spans, "cache.insert")) {
        let cache = SolutionCache::new(w.cfg.cache_capacity, w.cfg.cache_shards);
        let keys: Vec<(CacheKey, ScheduleOutcome)> = insts
            .iter()
            .filter_map(|inst| {
                let chain = inst.chain();
                let strategy = strategy_by_name(inst.policy)?;
                let sol = strategy.schedule(&chain, inst.resources())?;
                let outcome = ScheduleOutcome::from_solution(inst.policy, &sol, &chain, true);
                Some((CacheKey::for_request(&inst.request(0)), outcome))
            })
            .collect();
        let (hit_ok, miss_ok, insert_ok) = (
            has(spans, "cache.hit"),
            has(spans, "cache.miss"),
            has(spans, "cache.insert"),
        );
        for (key, outcome) in &keys {
            let (k, o) = (key.clone(), outcome.clone());
            let ns = time_ns(|| cache.insert(k, o));
            if !insert_ok {
                spans.record_self("cache.insert", ns);
            }
        }
        for (key, _) in &keys {
            let ns = time_ns(|| {
                std::hint::black_box(cache.get(key));
            });
            if !hit_ok {
                spans.record_self("cache.hit", ns);
            }
            let mut absent = key.clone();
            absent.big_cores += 1_000;
            let ns = time_ns(|| {
                std::hint::black_box(cache.get(&absent));
            });
            if !miss_ok {
                spans.record_self("cache.miss", ns);
            }
        }
    }

    roundtrip(w, spans, tally)
}

/// In-process `EngineShards::schedule_blocking` on the workload's ops,
/// after the same warm-up as the run: the engine round trip without
/// sockets or connection threads.
fn roundtrip(w: &WireWorkload, spans: &mut Spans, tally: &mut Tally) -> io::Result<()> {
    let fleet = EngineShards::start(w.cfg.shards, &w.engine_config());
    let mut fresh = Instance::default();
    let mut line = String::new();
    let mut ask = |seq: u64, fresh: &mut Instance| {
        let which = w.gen.op(seq, fresh);
        let inst = w.gen.instance(which, fresh);
        let request = inst.request(seq);
        let t0 = Instant::now();
        let reply = fleet.schedule_blocking(request);
        let ns = t0.elapsed().as_nanos() as u64;
        line.clear();
        proto::render_response_line(&reply, &mut line);
        let ok = match check::scan(line.trim_end()) {
            Reply::Ok(r) => check::reply_is_valid(&r, inst),
            _ => false,
        };
        (ns, ok)
    };
    let mut seq = wire::warm_up(w, |first, n| {
        for seq in first..first + n {
            let (_, ok) = ask(seq, &mut fresh);
            tally.attempted += 1;
            tally.failed += u64::from(!ok);
        }
        Ok(wire::full(fleet.cache_stats(), fleet.tier_stats()))
    })?;
    let deadline = Instant::now() + Duration::from_millis(500);
    let mut n = 0;
    while Instant::now() < deadline && n < 20_000 {
        let (ns, ok) = ask(seq, &mut fresh);
        spans.record_self("engine.roundtrip", ns);
        tally.attempted += 1;
        tally.failed += u64::from(!ok);
        seq += 1;
        n += 1;
    }
    fleet.shutdown();
    Ok(())
}

/// Per-layer metric name, span name and unit divisor (ns per unit).
pub const SPAN_METRICS: [(&str, &str, f64, &str); 20] = [
    ("net.parse_ns", "net.parse", 1.0, "ns"),
    ("net.render_ns", "net.render", 1.0, "ns"),
    ("net.write_ns", "net.write", 1.0, "ns"),
    ("engine.route_ns", "engine.route", 1.0, "ns"),
    ("engine.roundtrip_us", "engine.roundtrip", 1e3, "us"),
    ("cache.hit_ns", "cache.hit", 1.0, "ns"),
    ("cache.miss_ns", "cache.miss", 1.0, "ns"),
    ("cache.insert_ns", "cache.insert", 1.0, "ns"),
    ("chain_tier.extract_ns", "chain_tier.extract", 1.0, "ns"),
    ("chain_tier.grow_ns", "chain_tier.grow", 1.0, "ns"),
    ("chain_tier.cold_ns", "chain_tier.cold", 1.0, "ns"),
    (
        "chain_tier.snapshot_load_ms",
        "chain_tier.snapshot_load",
        1e6,
        "ms",
    ),
    ("sched.table_extract_ns", "sched.table_extract", 1.0, "ns"),
    ("sched.table_grow_ns", "sched.table_grow", 1.0, "ns"),
    ("sched.herad_cold_ns", "sched.herad_cold", 1.0, "ns"),
    ("sched.twocatac_ns", "sched.twocatac", 1.0, "ns"),
    ("sched.fertac_ns", "sched.fertac", 1.0, "ns"),
    ("sched.batch_ns_per_job", "sched.batch_per_job", 1.0, "ns"),
    (
        "sched.sweep_batch_ns_per_job",
        "sched.sweep_batch_per_job",
        1.0,
        "ns",
    ),
    ("sched.validate_ns", "sched.validate", 1.0, "ns"),
];

/// The span-derived metrics, medians of self time.
pub fn span_metrics(spans: &Spans, out: &mut Metrics) {
    for (metric, span, div, unit) in SPAN_METRICS {
        let v = spans.median_ns(span).map_or(f64::NAN, |ns| ns / div);
        out.push((metric, v, unit));
    }
}

/// Mean self time per op summed over the replay's layers (the op's own
/// glue included), µs. Call before `probe`, which adds samples that are
/// not part of any op.
pub fn layer_us_per_op(spans: &Spans, ops: u64, window: usize) -> f64 {
    let per_op: u64 = [
        "net.parse",
        "net.render",
        "engine.route",
        "cache.hit",
        "cache.miss",
        "cache.insert",
        "chain_tier.extract",
        "chain_tier.grow",
        "chain_tier.cold",
        "sched.twocatac",
        "sched.fertac",
        "sched.validate",
        "replay.op_self",
    ]
    .iter()
    .map(|n| spans.total_ns(n))
    .sum();
    // `net.write` holds one per-frame average per cork of `window` frames.
    let write = spans.total_ns("net.write") * window as u64;
    (per_op + write) as f64 / ops.max(1) as f64 / 1e3
}
