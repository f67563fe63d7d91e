//! The wire's latency-bounded capacity, timed. Host load moves these
//! numbers, so the tests are `#[ignore]`d in tier-1; run them in release:
//!
//! ```sh
//! cargo test --release -p amp-net --test wire_capacity -- --ignored --nocapture
//! ```
//!
//! Each rung applies perfbench's capacity rule (`perfbench/src/capacity.rs`):
//! it offers a fixed rate open loop for one second, a frame's latency is
//! timed from the instant the schedule says it was due (so a stalled
//! sender or server cannot hide the wait it imposes), and the rung passes
//! when every frame is answered ok, p99 meets its bound, and the ok
//! replies received inside the rung carry at least 0.98 of the offered
//! rate. The server has perfbench's `wire_hot` shape, one shard of one
//! worker, and every timed frame is an LRU hit. A hit on a connection
//! with nothing outstanding is answered by that connection's reader; one
//! behind an unanswered frame takes the engine hand-off. So the rungs
//! time the wire, the edge answer and, under bursts, the hand-off.
//!
//! * 1 connection at 20 000 frames/s: p99 ≤ 1 ms.
//! * 64 connections sharing 4 000 frames/s: p99 ≤ 5 ms.
//! * Negative: a shard that sleeps 1 ms per solve, with the LRU and the
//!   chain tier off, must fail on achieved/offered.
//!
//! A gate passes when one of [`ATTEMPTS`] rungs, a second apart, meets
//! the rule: on a shared VM, stalls of a millisecond or more come in
//! phases of a second or two (the sender's own lateness shows them) and
//! can land in a rung's p99, while a server too slow for the bound misses
//! every attempt. Every attempt is printed.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use amp_core::sched::{SchedScratch, Scheduler};
use amp_core::{Resources, Solution, TaskChain};
use amp_net::proto::{parse_response, render_request};
use amp_net::{Server, ServerConfig};
use amp_service::{EngineConfig, Objective, Policy, ScheduleRequest, StrategyWrap, TaskSpec};

const RUNG: Duration = Duration::from_secs(1);
/// Rungs a gate may run before it fails.
const ATTEMPTS: usize = 3;
/// Distinct instances; the warm-up answers each once.
const INSTANCES: u64 = 64;

/// The rungs share the host's cores, so they run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

/// Small instance `i`: 2–8 tasks on 1–4 big and 1–4 little cores,
/// solved by FERTAC, HeRAD or 2CATAC.
fn instance(i: u64) -> ScheduleRequest {
    let tasks = (0..2 + i % 7)
        .map(|t| TaskSpec {
            weight_big: 1 + (i * 7 + t * 13) % 48,
            weight_little: 1 + (i * 11 + t * 29) % 96,
            replicable: (i + t).is_multiple_of(2),
        })
        .collect();
    ScheduleRequest {
        id: 0,
        tasks,
        big_cores: 1 + i % 4,
        little_cores: 1 + (i / 4) % 4,
        policy: Policy::Strategy(["FERTAC", "HeRAD", "2CATAC"][(i % 3) as usize].to_string()),
        objective: Objective::Period,
        deadline_us: None,
    }
}

/// Frame `id`, newline-terminated.
fn frame(id: u64) -> String {
    let request = ScheduleRequest {
        id,
        ..instance(id % INSTANCES)
    };
    render_request(&request, "public") + "\n"
}

fn server(per_shard: EngineConfig) -> Server {
    Server::start(ServerConfig {
        shards: 1,
        per_shard: EngineConfig {
            workers: 1,
            racer_threads: 0,
            ..per_shard
        },
        max_connections: 128,
        quota: None,
        ..ServerConfig::default()
    })
    .expect("server")
}

/// Answers every instance once, closed loop, so the LRU holds them all.
fn warm(server: &Server) -> io::Result<()> {
    let mut stream = TcpStream::connect(server.local_addr())?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut line = String::new();
    for id in 0..INSTANCES {
        stream.write_all(frame(id).as_bytes())?;
        line.clear();
        reader.read_line(&mut line)?;
    }
    Ok(())
}

/// One rung's measurements.
#[derive(Debug)]
struct Rung {
    offered: u64,
    /// Ok replies received inside the rung, per second.
    achieved: f64,
    p50_us: f64,
    p99_us: f64,
    /// How late the sender wrote frames, 99th percentile.
    late_p99_us: f64,
    sent: u64,
    /// Frames not answered ok on their own connection.
    failed: u64,
}

impl Rung {
    /// The capacity rule; returns the checks that failed.
    fn failures(&self, p99_limit_us: f64) -> Vec<&'static str> {
        let mut failures = Vec::new();
        if self.failed > 0 {
            failures.push("every frame answered ok");
        }
        if self.p99_us.is_nan() || self.p99_us > p99_limit_us {
            failures.push("p99 within its bound");
        }
        if self.achieved < 0.98 * self.offered as f64 {
            failures.push("achieved/offered >= 0.98");
        }
        failures
    }

    fn print(&self, what: &str) {
        println!(
            "{what}: offered {}/s, achieved {:.0}/s ({:.4}), p50 {:.0} us, p99 {:.0} us, \
             sender late p99 {:.0} us, {} sent, {} failed",
            self.offered,
            self.achieved,
            self.achieved / self.offered as f64,
            self.p50_us,
            self.p99_us,
            self.late_p99_us,
            self.sent,
            self.failed
        );
    }
}

/// Microseconds at quantile `q` of nanosecond samples.
fn quantile_us(samples: &mut [u64], q: f64) -> f64 {
    samples.sort_unstable();
    if samples.is_empty() {
        return f64::NAN;
    }
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] as f64 / 1e3
}

/// Offers `rate` frames/s for `length`, spread round-robin over
/// `connections` connections: frame `i` is due at `i / rate` seconds and
/// goes to connection `i % connections`. One sender writes every frame
/// the clock says is due; each connection has its own reader.
fn run_rung(server: &Server, connections: u64, rate: u64, length: Duration) -> io::Result<Rung> {
    let total = rate * length.as_millis() as u64 / 1000;
    let frames: Vec<String> = (0..total).map(frame).collect();
    let streams = (0..connections)
        .map(|_| {
            let stream = TcpStream::connect(server.local_addr())?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(10)))?;
            Ok(stream)
        })
        .collect::<io::Result<Vec<_>>>()?;
    let mut writers = streams
        .iter()
        .map(TcpStream::try_clone)
        .collect::<io::Result<Vec<_>>>()?;
    let t0 = Instant::now() + Duration::from_millis(5);
    let due = move |i: u64| t0 + Duration::from_nanos(i * 1_000_000_000 / rate);
    let end = t0 + length;
    std::thread::scope(|scope| -> io::Result<Rung> {
        let frames = &frames;
        let sender = scope.spawn(move || -> io::Result<Vec<u64>> {
            let mut late = Vec::with_capacity(total as usize);
            let mut out: Vec<Vec<u8>> = vec![Vec::new(); connections as usize];
            let mut i = 0;
            while i < total {
                let now = Instant::now();
                while i < total && due(i) <= now {
                    out[(i % connections) as usize]
                        .extend_from_slice(frames[i as usize].as_bytes());
                    late.push((now - due(i)).as_nanos() as u64);
                    i += 1;
                }
                for (writer, buf) in writers.iter_mut().zip(&mut out) {
                    if !buf.is_empty() {
                        writer.write_all(buf)?;
                        buf.clear();
                    }
                }
                if i < total {
                    let now = Instant::now();
                    if due(i) > now {
                        std::thread::sleep(due(i) - now);
                    }
                }
            }
            for writer in &writers {
                writer.shutdown(Shutdown::Write)?;
            }
            Ok(late)
        });
        // Each reader returns (latencies of ok replies, ok replies
        // received inside the rung, failed frames).
        let readers: Vec<_> = streams
            .into_iter()
            .enumerate()
            .map(|(conn, stream)| {
                scope.spawn(move || {
                    let conn = conn as u64;
                    let expected = (conn..total).step_by(connections as usize).count() as u64;
                    let mut seen = vec![false; total as usize];
                    let (mut latencies, mut in_time, mut ok) = (Vec::new(), 0u64, 0u64);
                    // Parsed after the rung, so parsing one reply does
                    // not delay the timestamp of the next.
                    let mut lines = Vec::with_capacity(expected as usize);
                    let mut reader = BufReader::new(stream);
                    for _ in 0..expected {
                        let mut line = String::new();
                        if !matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                            break;
                        }
                        lines.push((Instant::now(), line));
                    }
                    for (received, line) in lines {
                        let Ok(reply) = parse_response(line.trim_end()) else {
                            continue;
                        };
                        let Some(id) = reply
                            .id
                            .filter(|&id| id < total && id % connections == conn)
                        else {
                            continue;
                        };
                        if reply.result.is_err() || std::mem::replace(&mut seen[id as usize], true)
                        {
                            continue;
                        }
                        ok += 1;
                        latencies
                            .push(received.saturating_duration_since(due(id)).as_nanos() as u64);
                        in_time += u64::from(received <= end);
                    }
                    (latencies, in_time, expected - ok)
                })
            })
            .collect();
        let mut latencies = Vec::with_capacity(total as usize);
        let (mut in_time, mut failed) = (0, 0);
        for reader in readers {
            let (lat, t, f) = reader.join().expect("reader thread");
            latencies.extend(lat);
            in_time += t;
            failed += f;
        }
        let mut late = sender.join().expect("sender thread")?;
        Ok(Rung {
            offered: rate,
            achieved: in_time as f64 / length.as_secs_f64(),
            p50_us: quantile_us(&mut latencies, 0.5),
            p99_us: quantile_us(&mut latencies, 0.99),
            late_p99_us: quantile_us(&mut late, 0.99),
            sent: total,
            failed,
        })
    })
}

/// Runs up to [`ATTEMPTS`] one-second rungs, a second apart, against a
/// fresh, warmed server and returns the failures of the last one, or
/// none once a rung meets the rule.
fn capacity_gate(what: &str, connections: u64, rate: u64, p99_limit_us: f64) -> Vec<&'static str> {
    let server = server(ServerConfig::default().per_shard);
    warm(&server).expect("warm-up");
    let mut failures = Vec::new();
    for attempt in 1..=ATTEMPTS {
        let rung = run_rung(&server, connections, rate, RUNG).expect("rung");
        rung.print(&format!("{what}, attempt {attempt}"));
        failures = rung.failures(p99_limit_us);
        if failures.is_empty() {
            break;
        }
        if attempt < ATTEMPTS {
            std::thread::sleep(Duration::from_secs(1));
        }
    }
    server.shutdown();
    failures
}

#[test]
#[ignore = "wall-clock gate; run in release with --ignored"]
fn one_connection_carries_20k_frames_per_second_within_1ms_p99() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let failures = capacity_gate("1 connection", 1, 20_000, 1_000.0);
    assert!(failures.is_empty(), "{failures:?}");
}

#[test]
#[ignore = "wall-clock gate; run in release with --ignored"]
fn sixty_four_connections_carry_4k_frames_per_second_within_5ms_p99() {
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let failures = capacity_gate("64 connections", 64, 4_000, 5_000.0);
    assert!(failures.is_empty(), "{failures:?}");
}

/// Negative: each solve sleeps 1 ms and nothing is cached, so the one
/// worker carries at most about 1 000 frames/s of the 20 000 offered. A
/// quarter-second rung keeps the drain of its backlog to seconds.
#[test]
#[ignore = "wall-clock gate; run in release with --ignored"]
fn a_sleeping_shard_fails_achieved_over_offered() {
    struct Sleepy {
        inner: Box<dyn Scheduler>,
    }
    impl Scheduler for Sleepy {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn schedule_into(
            &self,
            chain: &TaskChain,
            resources: Resources,
            scratch: &mut SchedScratch,
            out: &mut Solution,
        ) -> bool {
            std::thread::sleep(Duration::from_millis(1));
            self.inner.schedule_into(chain, resources, scratch, out)
        }
    }
    let sleepy: StrategyWrap =
        Arc::new(|inner: Box<dyn Scheduler>| -> Box<dyn Scheduler> { Box::new(Sleepy { inner }) });
    let _serial = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let server = server(EngineConfig {
        cache_capacity: 0,
        chain_capacity: 0,
        fault_wrap: Some(sleepy),
        ..ServerConfig::default().per_shard
    });
    let rung = run_rung(&server, 1, 20_000, RUNG / 4).expect("rung");
    server.shutdown();
    rung.print("sleeping shard");
    assert!(
        rung.failures(1_000.0).contains(&"achieved/offered >= 0.98"),
        "{rung:?}"
    );
}
