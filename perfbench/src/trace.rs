//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is (name, start, end, parent, op id). Spans live in a buffer
//! allocated once at its full capacity and are written out when the run
//! ends; spans past the capacity are counted, not kept. Per-name self
//! times (a span's duration minus its children's) are folded into
//! histograms as spans close, so the metrics cover every op even when the
//! buffer is full.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use crate::hist::Histogram;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

struct Stat {
    name: &'static str,
    hist: Histogram,
    total_ns: u64,
}

pub struct Spans {
    epoch: Instant,
    buf: Vec<Span>,
    dropped: u64,
    stats: Vec<Stat>,
}

/// An open root span: the op it belongs to and its children's time.
pub struct Scope {
    root: Option<u32>,
    start: Instant,
    children_ns: u64,
    op: u64,
}

impl Spans {
    pub fn new(capacity: usize) -> Spans {
        Spans {
            epoch: Instant::now(),
            buf: Vec::with_capacity(capacity),
            dropped: 0,
            stats: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn push_instants(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        op: u64,
    ) -> Option<u32> {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(name, start_ns, end_ns, parent, op)
    }

    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        op: u64,
    ) -> Option<u32> {
        if self.buf.len() == self.buf.capacity() {
            self.dropped += 1;
            return None;
        }
        self.buf.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        Some((self.buf.len() - 1) as u32)
    }

    /// Adds one self-time sample under `name`.
    pub fn record_self(&mut self, name: &'static str, ns: u64) {
        let stat = match self.stats.iter().position(|s| s.name == name) {
            Some(i) => &mut self.stats[i],
            None => {
                self.stats.push(Stat {
                    name,
                    hist: Histogram::default(),
                    total_ns: 0,
                });
                self.stats.last_mut().expect("just pushed")
            }
        };
        stat.hist.record(ns);
        stat.total_ns += ns;
    }

    /// Opens the root span of op `op`.
    pub fn open(&mut self, name: &'static str, op: u64) -> Scope {
        let start = Instant::now();
        let at = self.ns(start);
        Scope {
            root: self.push(name, at, at, None, op),
            start,
            children_ns: 0,
            op,
        }
    }

    /// Runs `f` as a child span of `scope`.
    pub fn layer<T>(&mut self, scope: &mut Scope, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.child(scope, name, t0, t1);
        out
    }

    /// Records an already timed child span of `scope`.
    pub fn child(&mut self, scope: &mut Scope, name: &'static str, t0: Instant, t1: Instant) {
        let ns = (t1 - t0).as_nanos() as u64;
        scope.children_ns += ns;
        self.record_self(name, ns);
        if scope.root.is_some() {
            self.push_instants(name, t0, t1, scope.root, scope.op);
        }
    }

    /// Closes the root span; its self time goes under `name`.
    pub fn close(&mut self, scope: Scope, name: &'static str) {
        let end = Instant::now();
        let total = (end - scope.start).as_nanos() as u64;
        self.record_self(name, total.saturating_sub(scope.children_ns));
        if let Some(i) = scope.root {
            let end_ns = self.ns(end);
            self.buf[i as usize].end_ns = end_ns;
        }
    }

    /// Median self time under `name`, ns.
    pub fn median_ns(&self, name: &str) -> Option<f64> {
        self.stats
            .iter()
            .find(|s| s.name == name)
            .and_then(|s| s.hist.quantile(0.5))
    }

    /// Summed self time under `name`, ns.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.stats
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.total_ns)
    }

    /// Writes every kept span as tab-separated
    /// `index name start_ns end_ns parent op` lines.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# spans kept {} dropped {}",
            self.buf.len(),
            self.dropped
        )?;
        for (i, s) in self.buf.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_buffer_is_bounded() {
        let mut spans = Spans::new(2);
        let mut scope = spans.open("op", 1);
        spans.layer(&mut scope, "child", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.layer(&mut scope, "child", || ());
        spans.close(scope, "op.self");
        assert!(spans.median_ns("child").is_some());
        let child = spans.total_ns("child");
        assert!(child >= 2_000_000);
        assert!(spans.total_ns("op.self") < child);
        assert_eq!(spans.buf.len(), 2);
        assert_eq!(spans.dropped, 1);
        assert_eq!(spans.buf[1].parent, Some(0));
    }
}
