//! Lock-free counters for the socket front end, following the service
//! metrics pattern: relaxed atomics, snapshot-on-read, JSON export.
//! Engine-side counters (latency histogram, worker panics, per-shard
//! cache hits) live in the engine's own metrics; these cover what only
//! the wire layer can see — connections, frames and admission outcomes.
//!
//! ## False sharing
//!
//! The hot counters (`frames_in`, `accepted`, `frames_out`, the batch
//! pair, `edge_answers`) are bumped on every frame by every connection's reader and
//! pump. Packed as plain `AtomicU64`s they share cache lines, so under
//! many connections each increment ping-pongs the line between cores.
//! Two fixes, both cheap:
//!
//! * every hot counter lives in its own [`Pad`] — a 64-byte-aligned
//!   cell, one cache line each, so distinct counters never collide;
//! * the per-frame counters are additionally [`Striped`] across
//!   [`STRIPES`] lines keyed by connection id, so two *connections*
//!   bumping the *same* logical counter usually hit different lines
//!   too. Snapshots sum the stripes.
//!
//! The in-flight gauge and its high-water mark stay single (padded)
//! atomics: the peak must be exact (`fetch_max` over the true global
//! gauge), which striping cannot provide.

use std::sync::atomic::{AtomicU64, Ordering};

/// One counter, alone on its cache line.
#[derive(Default)]
#[repr(align(64))]
struct Pad(AtomicU64);

impl Pad {
    fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Stripe count for per-frame counters. Power of two: the stripe key is
/// `conn_id & (STRIPES - 1)`.
const STRIPES: usize = 8;

/// A logical counter spread over [`STRIPES`] cache lines.
#[derive(Default)]
struct Striped([Pad; STRIPES]);

impl Striped {
    fn add(&self, stripe: usize, n: u64) {
        self.0[stripe & (STRIPES - 1)].add(n);
    }

    fn sum(&self) -> u64 {
        self.0.iter().map(Pad::get).sum()
    }
}

/// Wire-layer counters. All methods are callable from any thread; the
/// hot ones take the caller's connection id as the stripe key.
#[derive(Default)]
pub struct NetMetrics {
    connections_opened: Pad,
    connections_closed: Pad,
    connections_refused: Pad,
    frames_in: Striped,
    frames_out: Striped,
    parse_errors: Pad,
    oversized_frames: Pad,
    accepted: Striped,
    rejected_overload: Pad,
    rejected_quota: Pad,
    rejected_shutdown: Pad,
    batches: Striped,
    batched_requests: Striped,
    edge_answers: Striped,
    inflight: Pad,
    peak_inflight: Pad,
}

/// Point-in-time copy of [`NetMetrics`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NetSnapshot {
    /// Connections accepted and served.
    pub connections_opened: u64,
    /// Connections fully torn down.
    pub connections_closed: u64,
    /// Connections turned away at the limit (answered with a typed
    /// error, then closed).
    pub connections_refused: u64,
    /// Request frames parsed off sockets (including rejected ones).
    pub frames_in: u64,
    /// Response frames written to sockets.
    pub frames_out: u64,
    /// Frames refused as unparseable (`PARSE_ERROR`/`BAD_REQUEST`).
    pub parse_errors: u64,
    /// Frames refused for exceeding the line-length bound.
    pub oversized_frames: u64,
    /// Requests admitted: handed to the engine or answered at the edge.
    pub accepted: u64,
    /// Requests bounced by engine backpressure (`OVERLOADED`).
    pub rejected_overload: u64,
    /// Requests bounced by tenant quotas (`QUOTA_EXCEEDED`).
    pub rejected_quota: u64,
    /// Requests bounced because the server is draining.
    pub rejected_shutdown: u64,
    /// Engine hand-offs (a batch of any size counts once).
    pub batches: u64,
    /// Requests carried by those hand-offs (avg batch size =
    /// `batched_requests / batches`).
    pub batched_requests: u64,
    /// Requests the connection's reader answered from the exact LRU
    /// itself, with no engine hand-off (see [`crate::server`]).
    pub edge_answers: u64,
    /// Requests currently in flight across all connections.
    pub inflight: u64,
    /// High-water mark of `inflight`.
    pub peak_inflight: u64,
}

impl NetMetrics {
    /// Fresh, all-zero counters.
    #[must_use]
    pub fn new() -> Self {
        NetMetrics::default()
    }

    pub(crate) fn connection_opened(&self) {
        self.connections_opened.add(1);
    }
    pub(crate) fn connection_closed(&self) {
        self.connections_closed.add(1);
    }
    pub(crate) fn connection_refused(&self) {
        self.connections_refused.add(1);
    }
    pub(crate) fn frame_in(&self, stripe: usize) {
        self.frames_in.add(stripe, 1);
    }
    pub(crate) fn frame_out(&self, stripe: usize) {
        self.frames_out.add(stripe, 1);
    }
    pub(crate) fn parse_error(&self) {
        self.parse_errors.add(1);
    }
    pub(crate) fn oversized_frame(&self) {
        self.oversized_frames.add(1);
    }
    pub(crate) fn rejected_overload(&self) {
        self.rejected_overload.add(1);
    }
    pub(crate) fn rejected_quota(&self) {
        self.rejected_quota.add(1);
    }
    pub(crate) fn rejected_shutdown(&self) {
        self.rejected_shutdown.add(1);
    }
    pub(crate) fn batch_submitted(&self, stripe: usize, members: u64) {
        self.batches.add(stripe, 1);
        self.batched_requests.add(stripe, members);
    }
    /// Counts `n` requests as admitted. MUST be called *before* the
    /// batch reaches the engine: a reply can arrive (and decrement the
    /// in-flight gauge) the instant the hand-off happens, so counting
    /// afterwards would race the gauge below zero.
    pub(crate) fn requests_admitted(&self, stripe: usize, n: u64) {
        self.accepted.add(stripe, n);
        let now = self.inflight.0.fetch_add(n, Ordering::Relaxed) + n;
        self.peak_inflight.0.fetch_max(now, Ordering::Relaxed);
    }

    /// Undoes [`requests_admitted`](Self::requests_admitted) for batch
    /// members the engine bounced (they were provisionally admitted,
    /// then answered with a typed error by the caller instead).
    pub(crate) fn requests_bounced(&self, stripe: usize, n: u64) {
        self.accepted.0[stripe & (STRIPES - 1)]
            .0
            .fetch_sub(n, Ordering::Relaxed);
        self.inflight.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Counts a request answered at the edge: admitted, never in
    /// flight, its frame counted when [`edge_out`](Self::edge_out)
    /// writes it.
    pub(crate) fn edge_answered(&self, stripe: usize) {
        self.accepted.add(stripe, 1);
        self.edge_answers.add(stripe, 1);
    }

    /// Counts `n` edge answers written by one cork.
    pub(crate) fn edge_out(&self, stripe: usize, n: u64) {
        self.frames_out.add(stripe, n);
    }

    /// Counts `n` engine responses written by one cork: `n` frames out
    /// plus `n` off the in-flight gauge.
    pub(crate) fn responses_out(&self, stripe: usize, n: u64) {
        self.frames_out.add(stripe, n);
        self.inflight.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time copy (each counter atomic; the
    /// set is not a global snapshot).
    #[must_use]
    pub fn snapshot(&self) -> NetSnapshot {
        NetSnapshot {
            connections_opened: self.connections_opened.get(),
            connections_closed: self.connections_closed.get(),
            connections_refused: self.connections_refused.get(),
            frames_in: self.frames_in.sum(),
            frames_out: self.frames_out.sum(),
            parse_errors: self.parse_errors.get(),
            oversized_frames: self.oversized_frames.get(),
            accepted: self.accepted.sum(),
            rejected_overload: self.rejected_overload.get(),
            rejected_quota: self.rejected_quota.get(),
            rejected_shutdown: self.rejected_shutdown.get(),
            batches: self.batches.sum(),
            batched_requests: self.batched_requests.sum(),
            edge_answers: self.edge_answers.sum(),
            inflight: self.inflight.get(),
            peak_inflight: self.peak_inflight.get(),
        }
    }
}

impl NetSnapshot {
    /// Renders the snapshot as one JSON object (stable key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push('{');
        let mut field = |key: &str, value: u64| {
            if s.len() > 1 {
                s.push(',');
            }
            s.push('"');
            s.push_str(key);
            s.push_str("\":");
            s.push_str(&value.to_string());
        };
        field("connections_opened", self.connections_opened);
        field("connections_closed", self.connections_closed);
        field("connections_refused", self.connections_refused);
        field("frames_in", self.frames_in);
        field("frames_out", self.frames_out);
        field("parse_errors", self.parse_errors);
        field("oversized_frames", self.oversized_frames);
        field("accepted", self.accepted);
        field("rejected_overload", self.rejected_overload);
        field("rejected_quota", self.rejected_quota);
        field("rejected_shutdown", self.rejected_shutdown);
        field("batches", self.batches);
        field("batched_requests", self.batched_requests);
        field("edge_answers", self.edge_answers);
        field("inflight", self.inflight);
        field("peak_inflight", self.peak_inflight);
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_core::json::Json;

    #[test]
    fn snapshot_counts_and_json_parses() {
        let m = NetMetrics::new();
        m.connection_opened();
        m.frame_in(1);
        m.requests_admitted(1, 3);
        m.batch_submitted(1, 3);
        m.responses_out(1, 1);
        m.rejected_quota();
        m.frame_in(2);
        m.edge_answered(2);
        m.edge_out(2, 1);
        let s = m.snapshot();
        assert_eq!(s.accepted, 4);
        assert_eq!(s.edge_answers, 1);
        assert_eq!(s.inflight, 2, "an edge answer is never in flight");
        assert_eq!(s.peak_inflight, 3);
        assert_eq!(s.frames_out, 2);
        assert_eq!(s.rejected_quota, 1);
        let json = s.to_json();
        let parsed = Json::parse(&json).expect("snapshot JSON parses");
        let Json::Obj(fields) = parsed else {
            panic!("must be an object")
        };
        assert_eq!(fields.get("accepted"), Some(&Json::Int(4)));
        assert_eq!(fields.get("edge_answers"), Some(&Json::Int(1)));
        assert_eq!(fields.get("peak_inflight"), Some(&Json::Int(3)));
    }

    /// Stripes are an implementation detail: sums must agree no matter
    /// which stripe each event lands on, and the padded cells must
    /// actually occupy distinct cache lines.
    #[test]
    fn stripes_sum_and_pads_are_line_sized() {
        let m = NetMetrics::new();
        for conn in 0..37u64 {
            m.frame_in(conn as usize);
            m.requests_admitted(conn as usize, 2);
            m.responses_out(conn as usize, 2);
        }
        let s = m.snapshot();
        assert_eq!(s.frames_in, 37);
        assert_eq!(s.accepted, 74);
        assert_eq!(s.frames_out, 74);
        assert_eq!(s.inflight, 0);
        assert_eq!(std::mem::size_of::<Pad>(), 64);
        assert_eq!(std::mem::align_of::<Pad>(), 64);
        assert_eq!(std::mem::size_of::<Striped>(), 64 * STRIPES);
    }
}
