//! Latency-bounded capacity of `wire_hot`'s mix: an open-loop rate
//! ladder. Each rung offers a fixed rate on one connection; a request's
//! latency is timed from the instant the schedule says it was due, not
//! from when the generator got to it, so a stalled generator or server
//! cannot hide the wait it imposes. The report names the highest rate
//! with p99 ≤ 1 ms and achieved/offered ≥ 0.98, and how late the
//! generator ran. Low-rate wakeup latency is not steady on a small host,
//! so this is printed, not a benchmark metric.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

use amp_net::Server;

use crate::check::{self, Reply};
use crate::gen::Instance;
use crate::hist::Histogram;
use crate::wire::{warm_client, Client, WireWorkload};

const RATES: [u64; 8] = [
    10_000, 20_000, 40_000, 60_000, 80_000, 100_000, 120_000, 140_000,
];
const RUNG: Duration = Duration::from_millis(800);
const P99_LIMIT_US: f64 = 1_000.0;

pub struct Rung {
    pub rate: u64,
    pub achieved: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub late_p99_us: f64,
    pub sent: u64,
    pub failed: u64,
}

impl Rung {
    pub fn meets_bound(&self) -> bool {
        self.failed == 0 && self.p99_us <= P99_LIMIT_US && self.achieved >= 0.98 * self.rate as f64
    }
}

/// Runs the ladder against a fresh `wire_hot` server; stops after two
/// rungs in a row miss the bound.
pub fn ladder(w: &WireWorkload) -> io::Result<Vec<Rung>> {
    let server = Server::start(w.server_config())?;
    let mut warm = Client::connect(&server, &w.gen, w.cfg.window)?;
    warm_client(w, &server, &mut warm)?;
    let mut next_op = warm.next_op;
    drop(warm);
    let mut rungs: Vec<Rung> = Vec::new();
    for rate in RATES {
        let rung = run_rung(w, &server, rate, next_op)?;
        next_op += rate * RUNG.as_millis() as u64 / 1000 + 1;
        let missed = !rung.meets_bound();
        rungs.push(rung);
        if missed && rungs.len() >= 2 && !rungs[rungs.len() - 2].meets_bound() {
            break;
        }
    }
    server.shutdown();
    Ok(rungs)
}

fn run_rung(w: &WireWorkload, server: &Server, rate: u64, base: u64) -> io::Result<Rung> {
    let stream = TcpStream::connect(server.local_addr())?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    let mut writer = stream.try_clone()?;
    let total = rate * RUNG.as_millis() as u64 / 1000;
    let due = |t0: Instant, i: u64| t0 + Duration::from_nanos(i * 1_000_000_000 / rate);
    let t0 = Instant::now() + Duration::from_millis(2);
    std::thread::scope(|scope| -> io::Result<Rung> {
        let sender = scope.spawn(move || -> io::Result<Histogram> {
            let mut late = Histogram::default();
            let mut out = Vec::with_capacity(64 * 1024);
            let mut fresh = Instance::default();
            let mut i = 0;
            while i < total {
                let now = Instant::now();
                out.clear();
                while i < total && due(t0, i) <= now {
                    let which = w.gen.op(base + i, &mut fresh);
                    w.gen.write_frame(which, &fresh, i, &mut out);
                    late.record((now - due(t0, i)).as_nanos() as u64);
                    i += 1;
                }
                if !out.is_empty() {
                    writer.write_all(&out)?;
                }
                if i < total {
                    let next = due(t0, i);
                    let now = Instant::now();
                    if next > now {
                        std::thread::sleep(next - now);
                    }
                }
            }
            writer.shutdown(Shutdown::Write)?;
            Ok(late)
        });
        let mut lat = Histogram::default();
        let (mut answered_in_time, mut failed, mut seen) = (0u64, 0u64, 0u64);
        let end = t0 + RUNG;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        let mut fresh = Instance::default();
        while seen < total {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                break;
            }
            let received = Instant::now();
            seen += 1;
            let ok = match check::scan(line.trim_end()) {
                Reply::Ok(r) if r.id < total => {
                    let which = w.gen.op(base + r.id, &mut fresh);
                    lat.record((received - due(t0, r.id)).as_nanos() as u64);
                    check::reply_is_valid(&r, w.gen.instance(which, &fresh))
                }
                _ => false,
            };
            failed += u64::from(!ok);
            answered_in_time += u64::from(ok && received <= end);
        }
        failed += total - seen;
        let late = sender.join().expect("sender thread panicked")?;
        let us = |h: &Histogram, q: f64| h.quantile(q).unwrap_or(f64::NAN) / 1e3;
        Ok(Rung {
            rate,
            achieved: answered_in_time as f64 / RUNG.as_secs_f64(),
            p50_us: us(&lat, 0.5),
            p99_us: us(&lat, 0.99),
            late_p99_us: us(&late, 0.99),
            sent: total,
            failed,
        })
    })
}
