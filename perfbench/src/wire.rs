//! The three wire workloads: an in-process `amp-net` server and one
//! client connection running a closed loop with a fixed window.
//!
//! The client keeps `window` requests outstanding: each reply frees its
//! slot and the freed slots are refilled in one write. Request ids are
//! `op * 64 + slot`, so a reply maps back to its slot without a lookup,
//! and an unknown, stale or repeated id is a failed op. Latency runs from
//! just before the write that carried a request to the return of the read
//! that carried its reply.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use amp_core::{Resources, Solution};
use amp_net::{NetSnapshot, Server, ServerConfig};
use amp_service::{CacheStats, ChainTier, ChainTierStats, EngineConfig, MetricsSnapshot};

use crate::check::{self, Reply, Sample};
use crate::gen::{Instance, OpGen, Shape};
use crate::hist::{median, Histogram};

/// Pinned server configuration of a wire workload.
#[derive(Clone, Copy, Debug)]
pub struct WireCfg {
    pub shards: usize,
    pub workers: usize,
    /// Requests the client keeps outstanding (at most 64).
    pub window: usize,
    pub batch_max: usize,
    pub cache_capacity: usize,
    pub cache_shards: usize,
    pub chain_capacity: usize,
}

/// How a workload reaches its steady state before timing starts: no
/// further than the timed ops need, so `setup_s` times what a user pays.
#[derive(Clone, Copy, Debug)]
pub enum Warmup {
    /// One pass over the table: every distinct request answered once.
    Pass,
    /// Ops until the exact LRU and the chain tier are both full.
    Fill,
}

/// Ops per step of a `Fill` warm-up; fullness is checked between steps.
const FILL_STEP: u64 = 32;
/// A `Fill` warm-up that has not filled the caches after this many ops
/// fails.
const FILL_LIMIT: u64 = 100_000;

/// Whether the exact LRU and the chain tier are both full.
pub fn full(cache: CacheStats, tier: ChainTierStats) -> bool {
    cache.entries >= cache.capacity && tier.entries >= tier.capacity
}

/// Runs `w`'s warm-up through `serve(first, n)`, which serves ops
/// `first..first + n` and reports whether the LRU and the chain tier are
/// both full. Returns the next op index. The wire client, the serving
/// replay and the engine round-trip probe all warm up through here, so
/// each starts its measured ops at the same op index after the same
/// warm-up.
pub fn warm_up(
    w: &WireWorkload,
    mut serve: impl FnMut(u64, u64) -> io::Result<bool>,
) -> io::Result<u64> {
    match w.warmup {
        Warmup::Pass => {
            let n = w.gen.table.len() as u64;
            serve(0, n)?;
            Ok(n)
        }
        Warmup::Fill => {
            let mut seq = 0;
            loop {
                let full = serve(seq, FILL_STEP)?;
                seq += FILL_STEP;
                if full {
                    return Ok(seq);
                }
                if seq >= FILL_LIMIT {
                    return Err(io::Error::other("warm-up did not fill the caches"));
                }
            }
        }
    }
}

pub struct WireWorkload {
    pub name: &'static str,
    pub cfg: WireCfg,
    pub gen: OpGen,
    pub warmup: Warmup,
    /// Set-ups per end-to-end run: enough for a steady median, and at
    /// most a few seconds of them.
    pub setup_reps: usize,
    /// Chain-tier snapshot the server boots from (written before set-up
    /// starts, untimed).
    pub snapshot: Option<PathBuf>,
    /// Largest pool of the workload (the snapshot's tables cover it).
    pub max_pool: Resources,
}

const BASE_CFG: WireCfg = WireCfg {
    shards: 1,
    workers: 1,
    window: 32,
    batch_max: 32,
    cache_capacity: 1024,
    cache_shards: 8,
    chain_capacity: 64,
};

/// `wire_hot`: 64 small distinct instances, every timed request an exact
/// LRU hit.
pub fn wire_hot(seed: u64) -> WireWorkload {
    let shape = Shape {
        tasks: (2, 8),
        big: (1, 4),
        little: (1, 4),
    };
    WireWorkload {
        name: "wire_hot",
        cfg: BASE_CFG,
        gen: OpGen::hot(seed, 64, shape),
        warmup: Warmup::Pass,
        setup_reps: 201,
        snapshot: None,
        max_pool: Resources::new(4, 4),
    }
}

/// `sweep`: HeRAD chains walked over their pool grids; the server boots
/// from a snapshot of every chain's table, and the 64 (chain, pool) pairs
/// outnumber the LRU four to one, so every request misses it. Chains of
/// 12–24 tasks keep the snapshot near 30 KB: loading it takes time
/// quadratic in its size (the JSON string scanner re-validates the rest
/// of the document per character), and with chains of 24–48 tasks the
/// load took 0.25–0.4 s and the per-request parse and LRU work made this
/// the noisiest workload, with a p50 spread up to 0.29 over ten runs.
pub fn sweep(seed: u64, snapshot: PathBuf) -> WireWorkload {
    let shape = Shape {
        tasks: (12, 24),
        big: (1, 2),
        little: (1, 2),
    };
    WireWorkload {
        name: "sweep",
        // One LRU shard: with eight, a shard that drew one or two of the
        // 64 pairs would keep them and hit.
        cfg: WireCfg {
            cache_capacity: 16,
            cache_shards: 1,
            chain_capacity: 32,
            ..BASE_CFG
        },
        gen: OpGen::sweep(seed, 16, shape),
        warmup: Warmup::Pass,
        setup_reps: 41,
        snapshot: Some(snapshot),
        max_pool: Resources::new(2, 2),
    }
}

/// `cold_mix`: a fresh chain per request, in LRU and tier eviction steady
/// state.
pub fn cold_mix(seed: u64) -> WireWorkload {
    let shape = Shape {
        tasks: (8, 32),
        big: (1, 8),
        little: (0, 8),
    };
    WireWorkload {
        name: "cold_mix",
        // One LRU shard: every request inserts, so the warm-up fills it in
        // exactly its capacity in requests, whatever the seed (eight
        // shards fill at the pace of the one that draws the fewest keys).
        cfg: WireCfg {
            window: 16,
            cache_capacity: 256,
            cache_shards: 1,
            chain_capacity: 32,
            ..BASE_CFG
        },
        gen: OpGen::fresh(seed, shape),
        warmup: Warmup::Fill,
        setup_reps: 51,
        snapshot: None,
        max_pool: Resources::new(8, 8),
    }
}

impl WireWorkload {
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            workers: self.cfg.workers,
            racer_threads: 0,
            queue_depth: 64,
            cache_capacity: self.cfg.cache_capacity,
            cache_shards: self.cfg.cache_shards,
            chain_capacity: self.cfg.chain_capacity,
            snapshot_path: self.snapshot.clone(),
            ..EngineConfig::default()
        }
    }

    pub fn server_config(&self) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            shards: self.cfg.shards,
            per_shard: self.engine_config(),
            // Room for the connections a reconnect leaves draining.
            max_connections: 64,
            max_line_bytes: 64 * 1024,
            max_tasks: 512,
            window: self.cfg.window,
            quota: None,
            batch_max: self.cfg.batch_max,
        }
    }

    /// Writes the snapshot the server boots from: every distinct chain
    /// solved at the workload's largest pool. Untimed preparation.
    pub fn write_snapshot(&self) -> io::Result<()> {
        let Some(path) = &self.snapshot else {
            return Ok(());
        };
        let tier = ChainTier::new(self.gen.table.len(), None);
        let mut out = Solution::empty();
        for inst in &self.gen.table {
            tier.serve(&inst.tasks, &inst.chain(), self.max_pool, &mut out);
        }
        tier.save_to(path)
            .map_err(|e| io::Error::other(e.to_string()))?;
        Ok(())
    }
}

/// Ops attempted and failed, plus HeRAD requests sent.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub herad: u64,
}

impl Tally {
    pub fn add(&mut self, o: Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.herad += o.herad;
    }
}

struct Slot {
    busy: bool,
    seq: u64,
    sent: Instant,
    which: Option<usize>,
    fresh: Instance,
}

pub struct Client<'g> {
    gen: &'g OpGen,
    stream: TcpStream,
    window: usize,
    slots: Vec<Slot>,
    free: Vec<usize>,
    just_sent: Vec<usize>,
    rbuf: Vec<u8>,
    filled: usize,
    out: Vec<u8>,
    pub next_op: u64,
    pub tally: Tally,
    pub sample: Sample,
}

fn dial(server: &Server) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(server.local_addr())?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    Ok(stream)
}

/// Request ids are `op * ID_SLOTS + slot`.
const ID_SLOTS: u64 = 64;

impl<'g> Client<'g> {
    pub fn connect(server: &Server, gen: &'g OpGen, window: usize) -> io::Result<Client<'g>> {
        assert!((1..=ID_SLOTS as usize).contains(&window));
        let now = Instant::now();
        Ok(Client {
            gen,
            stream: dial(server)?,
            window,
            slots: (0..window)
                .map(|_| Slot {
                    busy: false,
                    seq: 0,
                    sent: now,
                    which: None,
                    fresh: Instance::default(),
                })
                .collect(),
            free: (0..window).rev().collect(),
            just_sent: Vec::with_capacity(window),
            rbuf: vec![0; 256 * 1024],
            filled: 0,
            out: Vec::with_capacity(64 * 1024),
            next_op: 0,
            tally: Tally::default(),
            sample: Sample::default(),
        })
    }

    /// Runs the closed loop: refills free slots while `more(issued so far)`
    /// holds, then drains every outstanding request. `done(sent, received,
    /// seq)` sees every op answered with a valid reply.
    pub fn run(
        &mut self,
        mut more: impl FnMut(u64) -> bool,
        done: &mut dyn FnMut(Instant, Instant, u64),
    ) -> io::Result<()> {
        let mut issued = 0u64;
        loop {
            self.out.clear();
            self.just_sent.clear();
            while !self.free.is_empty() && more(issued) {
                let slot = self.free.pop().expect("checked non-empty");
                let seq = self.next_op;
                self.next_op += 1;
                issued += 1;
                let s = &mut self.slots[slot];
                s.which = self.gen.op(seq, &mut s.fresh);
                s.busy = true;
                s.seq = seq;
                self.gen.write_frame(
                    s.which,
                    &s.fresh,
                    seq * ID_SLOTS + slot as u64,
                    &mut self.out,
                );
                self.tally.attempted += 1;
                if self.gen.instance(s.which, &s.fresh).policy == "HeRAD" {
                    self.tally.herad += 1;
                }
                self.just_sent.push(slot);
            }
            if !self.out.is_empty() {
                let sent = Instant::now();
                for &slot in &self.just_sent {
                    self.slots[slot].sent = sent;
                }
                self.stream.write_all(&self.out)?;
            }
            if self.free.len() == self.window {
                return Ok(());
            }
            if self.filled == self.rbuf.len() {
                self.rbuf.resize(self.rbuf.len() * 2, 0);
            }
            let n = match self.stream.read(&mut self.rbuf[self.filled..]) {
                Ok(0) => return Err(self.lose_outstanding("server closed the connection")),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(self.lose_outstanding(&e.to_string())),
            };
            let received = Instant::now();
            self.filled += n;
            let mut start = 0;
            while let Some(pos) = self.rbuf[start..self.filled]
                .iter()
                .position(|&b| b == b'\n')
            {
                let end = start + pos;
                self.on_reply(start, end, received, done);
                start = end + 1;
            }
            self.rbuf.copy_within(start..self.filled, 0);
            self.filled -= start;
        }
    }

    fn lose_outstanding(&mut self, why: &str) -> io::Error {
        let lost = self.slots.iter().filter(|s| s.busy).count();
        self.tally.failed += lost as u64;
        io::Error::other(format!("{lost} requests unanswered: {why}"))
    }

    fn on_reply(
        &mut self,
        start: usize,
        end: usize,
        received: Instant,
        done: &mut dyn FnMut(Instant, Instant, u64),
    ) {
        let Ok(line) = std::str::from_utf8(&self.rbuf[start..end]) else {
            self.tally.failed += 1;
            return;
        };
        let reply = check::scan(line);
        let id = match &reply {
            Reply::Ok(r) => Some(r.id),
            Reply::Err(id) => *id,
            Reply::Malformed => None,
        };
        let slot = id.map(|id| ((id % ID_SLOTS) as usize, id / ID_SLOTS));
        let Some((slot, seq)) = slot.filter(|&(slot, seq)| {
            slot < self.window && self.slots[slot].busy && self.slots[slot].seq == seq
        }) else {
            // Unknown, stale or duplicated id, or no id at all.
            self.tally.failed += 1;
            return;
        };
        let s = &mut self.slots[slot];
        s.busy = false;
        self.free.push(slot);
        let Reply::Ok(r) = reply else {
            self.tally.failed += 1;
            return;
        };
        let inst = self.gen.instance(s.which, &s.fresh);
        if !check::reply_is_valid(&r, inst) {
            self.tally.failed += 1;
            return;
        }
        if Sample::wants(self.gen.seed, seq) {
            self.sample.keep(inst, line);
        }
        done(s.sent, received, seq);
    }

    /// Replaces the connection (no request may be outstanding): the
    /// server starts a fresh reader and pump thread for it.
    pub fn reconnect(&mut self, server: &Server) -> io::Result<()> {
        debug_assert_eq!(self.free.len(), self.window);
        self.stream = dial(server)?;
        self.filled = 0;
        Ok(())
    }

    /// Runs `n` ops without recording them.
    pub fn run_ops(&mut self, n: u64) -> io::Result<()> {
        self.run(|issued| issued < n, &mut |_, _, _| {})
    }
}

/// Brings a freshly started server to the workload's steady state over
/// `client`'s connection.
pub fn warm_client(w: &WireWorkload, server: &Server, client: &mut Client<'_>) -> io::Result<()> {
    warm_up(w, |first, n| {
        debug_assert_eq!(client.next_op, first);
        client.run_ops(n)?;
        let shards = server.shards();
        Ok(full(shards.cache_stats(), shards.tier_stats()))
    })?;
    Ok(())
}

/// Sub-window throughput and latency quantiles of a timed phase. Each
/// sub-window is opened explicitly, so sub-windows may be separated by
/// untimed work (a reconnect, a relaunch).
pub struct Windows {
    sub: Duration,
    start: Option<Instant>,
    completed: Vec<u64>,
    hists: Vec<Histogram>,
}

/// The timed phase is split into this many equal sub-windows; reported
/// figures are medians over them, which keeps a burst of host noise in
/// one sub-window from moving the result.
pub const SUB_WINDOWS: usize = 10;

impl Windows {
    /// Sub-windows of `secs / SUB_WINDOWS` each.
    pub fn new(secs: f64) -> Windows {
        Windows {
            sub: Duration::from_secs_f64(secs / SUB_WINDOWS as f64),
            start: None,
            completed: Vec::new(),
            hists: Vec::new(),
        }
    }

    /// Opens the next sub-window now; returns when it ends.
    pub fn open(&mut self) -> Instant {
        let now = Instant::now();
        self.start = Some(now);
        self.completed.push(0);
        self.hists.push(Histogram::default());
        now + self.sub
    }

    /// Counts an op answered at `received` if that falls in the open
    /// sub-window, and its latency if it was also sent in it.
    pub fn record(&mut self, sent: Instant, received: Instant) {
        let Some(start) = self.start else {
            return;
        };
        if received < start || received >= start + self.sub {
            return;
        }
        let k = self.completed.len() - 1;
        self.completed[k] += 1;
        if sent >= start {
            self.hists[k].record((received - sent).as_nanos() as u64);
        }
    }

    pub fn throughput(&self) -> f64 {
        median(&self.per_window())
    }

    /// Median over sub-windows of the `q`-quantile, in microseconds.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let per: Vec<f64> = self
            .hists
            .iter()
            .filter_map(|h| h.quantile(q))
            .map(|ns| ns / 1e3)
            .collect();
        median(&per)
    }

    /// Throughput of each sub-window, 1/s.
    pub fn per_window(&self) -> Vec<f64> {
        let secs = self.sub.as_secs_f64();
        self.completed.iter().map(|&c| c as f64 / secs).collect()
    }

    pub fn samples(&self) -> u64 {
        self.hists.iter().map(Histogram::count).sum()
    }
}

/// Runs the closed loop for `secs`, one sub-window per connection: the
/// thread placement a connection lands on persists for seconds and moves
/// throughput by tens of percent on a two-core host, so each sub-window
/// samples a placement of its own and the median is taken over them.
/// `done` sees every op answered in the timed phase.
pub fn timed(
    client: &mut Client<'_>,
    server: &Server,
    secs: f64,
    done: &mut dyn FnMut(Instant, Instant, u64),
) -> io::Result<Windows> {
    let mut windows = Windows::new(secs);
    for k in 0..SUB_WINDOWS {
        if k > 0 {
            client.reconnect(server)?;
        }
        let end = windows.open();
        client.run(|_| Instant::now() < end, &mut |s, r, seq| {
            windows.record(s, r);
            done(s, r, seq);
        })?;
    }
    Ok(windows)
}

/// End-to-end result of one run.
pub struct E2e {
    pub windows: Windows,
    /// Every set-up's time, in seconds; `setup_s` is their median.
    pub setup_s: Vec<f64>,
    /// Peak resident memory (VmHWM) at the end of the timed phase, MiB.
    pub peak_rss_mb: f64,
    pub tally: Tally,
    /// Sampled replies compared with a direct solve, and how many
    /// differed (wire workloads).
    pub sample: (u64, u64),
}

/// Runs `set_up`, from nothing to warm, and times it in seconds.
pub fn timed_set_up<T, E>(set_up: impl FnOnce() -> Result<T, E>) -> Result<(T, f64), E> {
    let t0 = Instant::now();
    let live = set_up()?;
    Ok((live, t0.elapsed().as_secs_f64()))
}

/// Times `n` more set-ups, each torn down (untimed) before the next. A run
/// makes them after its timed phase, so the timed ops and the memory
/// high-water mark see a single set-up, as a user's process would; the
/// repeats only make `setup_s`, the median, steady.
pub fn more_set_ups<T, E>(
    n: usize,
    mut set_up: impl FnMut() -> Result<T, E>,
    mut tear_down: impl FnMut(T),
) -> Result<Vec<f64>, E> {
    (0..n)
        .map(|_| {
            let (live, secs) = timed_set_up(&mut set_up)?;
            tear_down(live);
            Ok(secs)
        })
        .collect()
}

/// Sets the workload up (server start, connection, warm-up), runs the
/// closed loop for `secs`, then times `w.setup_reps - 1` more set-ups.
pub fn run_e2e(w: &WireWorkload, secs: f64) -> io::Result<E2e> {
    let set_up = || -> io::Result<(Server, Client<'_>)> {
        let server = Server::start(w.server_config())?;
        let mut client = Client::connect(&server, &w.gen, w.cfg.window)?;
        warm_client(w, &server, &mut client)?;
        Ok((server, client))
    };
    let mut tally = Tally::default();
    let mut tear_down = |(server, client): (Server, Client<'_>)| {
        tally.add(client.tally);
        drop(client);
        server.shutdown();
    };
    let ((server, mut client), first) = timed_set_up(set_up)?;
    let windows = timed(&mut client, &server, secs, &mut |_, _, _| {})?;
    let sample = client.sample.verify();
    client.tally.failed += sample.1;
    let peak_rss_mb = crate::peak_rss_mb().map_err(io::Error::other)?;
    tear_down((server, client));
    let mut setup_s = vec![first];
    setup_s.extend(more_set_ups(w.setup_reps - 1, set_up, &mut tear_down)?);
    Ok(E2e {
        windows,
        setup_s,
        peak_rss_mb,
        tally,
        sample,
    })
}

pub fn remove_snapshot(path: Option<&Path>) {
    if let Some(p) = path {
        let _ = std::fs::remove_file(p);
    }
}

/// Server-side counters at one instant.
#[derive(Clone, Copy)]
pub struct Counters {
    pub net: NetSnapshot,
    pub cache: CacheStats,
    pub tier: ChainTierStats,
    pub engine: MetricsSnapshot,
}

impl Counters {
    pub fn read(server: &Server) -> Counters {
        Counters {
            net: server.net_snapshot(),
            cache: server.shards().cache_stats(),
            tier: server.shards().tier_stats(),
            engine: server.shards().metrics(),
        }
    }
}

/// A traced wire run: an untraced and a traced closed-loop phase on one
/// set-up, with the server counters read around the traced phase.
pub struct TracedWire {
    pub untraced: Windows,
    pub traced: Windows,
    pub before: Counters,
    pub after: Counters,
    /// Ops issued and HeRAD requests sent in the traced phase.
    pub ops: u64,
    pub herad: u64,
    pub tally: Tally,
}

pub fn run_traced(
    w: &WireWorkload,
    secs: f64,
    spans: &mut crate::trace::Spans,
) -> io::Result<TracedWire> {
    let server = Server::start(w.server_config())?;
    let mut client = Client::connect(&server, &w.gen, w.cfg.window)?;
    warm_client(w, &server, &mut client)?;
    let untraced = timed(&mut client, &server, secs / 2.0, &mut |_, _, _| {})?;
    client.reconnect(&server)?;
    let before = Counters::read(&server);
    let (ops0, herad0) = (client.tally.attempted, client.tally.herad);
    let traced = timed(&mut client, &server, secs / 2.0, &mut |s, r, seq| {
        spans.push_instants("wire.op", s, r, None, seq);
    })?;
    let after = Counters::read(&server);
    let ops = client.tally.attempted - ops0;
    let herad = client.tally.herad - herad0;
    let (_, mismatched) = client.sample.verify();
    let mut tally = client.tally;
    tally.failed += mismatched;
    drop(client);
    server.shutdown();
    Ok(TracedWire {
        untraced,
        traced,
        before,
        after,
        ops,
        herad,
        tally,
    })
}
