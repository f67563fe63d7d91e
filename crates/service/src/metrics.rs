//! Lock-free service metrics: atomic counters plus a power-of-two latency
//! histogram, exported as a JSON snapshot.
//!
//! Workers record on the hot path with relaxed atomics only — no locks, no
//! allocation. The histogram has one bucket per power of two of
//! nanoseconds (bucket `i` holds latencies in `[2^(i-1), 2^i)`), which
//! gives quantile estimates within a factor of two across the full
//! `1 ns … 584 yr` range; plenty for p50/p99 dashboards.
//!
//! JSON is rendered by hand: the snapshot is a flat struct of integers,
//! and hand-rolling keeps the wire format byte-stable and the hot path
//! free of any serializer machinery.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const BUCKETS: usize = 64;

/// Shared counters of one [`Engine`](crate::engine::Engine).
pub struct ServiceMetrics {
    /// Requests accepted into the queue or answered at the edge.
    requests: AtomicU64,
    /// Responses delivered (success or typed error), edge answers
    /// included.
    responses: AtomicU64,
    /// Responses that carried an error.
    errors: AtomicU64,
    /// Requests rejected with `Overloaded` before enqueueing.
    rejected: AtomicU64,
    /// Portfolio runs where every member finished in time.
    portfolio_complete: AtomicU64,
    /// Portfolio runs truncated by their deadline.
    portfolio_truncated: AtomicU64,
    /// Panics caught by a worker's per-request guard (or its
    /// supervision shell) — each became a typed `Internal` response.
    worker_panics: AtomicU64,
    /// Solutions rejected by the engine's validate-before-cache vet.
    invalid_solutions: AtomicU64,
    /// Energy-objective requests served with a solution.
    energy_requests: AtomicU64,
    /// Sum of the steady-state power figures served on those responses,
    /// in milliwatts (integer, like the wire; a cumulative total that
    /// dashboards divide by `energy_requests` for a mean draw).
    energy_milliwatts_served: AtomicU64,
    /// Worker threads currently in their serve loop.
    workers_alive: AtomicU64,
    /// Worker/racer threads the engine failed to spawn (pool degraded).
    spawn_failures: AtomicU64,
    /// OS threads created over the engine's lifetime (workers + racers).
    /// Constant after startup: steady-state requests spawn nothing.
    threads_spawned: AtomicU64,
    /// Latency histogram of queued requests (enqueue → response), ns
    /// buckets. Edge answers never queue and are not in it.
    latency: [AtomicU64; BUCKETS],
}

impl ServiceMetrics {
    /// A fresh all-zero metrics block.
    #[must_use]
    pub fn new() -> Self {
        ServiceMetrics {
            requests: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            portfolio_complete: AtomicU64::new(0),
            portfolio_truncated: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            invalid_solutions: AtomicU64::new(0),
            energy_requests: AtomicU64::new(0),
            energy_milliwatts_served: AtomicU64::new(0),
            workers_alive: AtomicU64::new(0),
            spawn_failures: AtomicU64::new(0),
            threads_spawned: AtomicU64::new(0),
            latency: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Counts a request accepted into the queue.
    pub fn record_accepted(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` requests accepted at once (a batch occupies one queue
    /// slot but is `n` requests for accounting).
    pub fn record_accepted_n(&self, n: u64) {
        self.requests.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts a request answered from the cache at the edge, without
    /// the queue: one request and one response, no latency sample.
    pub fn record_edge_answer(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.responses.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a request rejected by backpressure.
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `n` requests rejected at once (a rejected batch rejects
    /// every member).
    pub fn record_rejected_n(&self, n: u64) {
        self.rejected.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts a delivered response and its end-to-end latency.
    pub fn record_response(&self, latency: Duration, is_error: bool) {
        self.responses.fetch_add(1, Ordering::Relaxed);
        if is_error {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        let ns = u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX);
        let bucket = (64 - ns.leading_zeros() as usize).min(BUCKETS - 1);
        self.latency[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a portfolio run by whether it beat its deadline.
    pub fn record_portfolio(&self, complete: bool) {
        if complete {
            self.portfolio_complete.fetch_add(1, Ordering::Relaxed);
        } else {
            self.portfolio_truncated.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Counts a panic caught on the worker compute path.
    pub fn record_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a solution refused by the validate-before-cache vet.
    pub fn record_invalid_solution(&self) {
        self.invalid_solutions.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an energy-objective request served with a solution drawing
    /// `milliwatts` of steady-state power.
    pub fn record_energy(&self, milliwatts: u64) {
        self.energy_requests.fetch_add(1, Ordering::Relaxed);
        self.energy_milliwatts_served
            .fetch_add(milliwatts, Ordering::Relaxed);
    }

    /// Marks one worker as entering its serve loop.
    pub fn record_worker_started(&self) {
        self.workers_alive.fetch_add(1, Ordering::Relaxed);
    }

    /// Marks one worker as having exited its serve loop for good.
    pub fn record_worker_stopped(&self) {
        self.workers_alive.fetch_sub(1, Ordering::Relaxed);
    }

    /// Counts a failed thread spawn (the pool runs degraded).
    pub fn record_spawn_failure(&self) {
        self.spawn_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds to the lifetime thread-creation count.
    pub fn record_threads_spawned(&self, n: u64) {
        self.threads_spawned.fetch_add(n, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time copy of all counters (each
    /// counter is read atomically; the set is not a global snapshot).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut latency = [0u64; BUCKETS];
        for (out, bucket) in latency.iter_mut().zip(&self.latency) {
            *out = bucket.load(Ordering::Relaxed);
        }
        MetricsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            responses: self.responses.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            portfolio_complete: self.portfolio_complete.load(Ordering::Relaxed),
            portfolio_truncated: self.portfolio_truncated.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            invalid_solutions: self.invalid_solutions.load(Ordering::Relaxed),
            energy_requests: self.energy_requests.load(Ordering::Relaxed),
            energy_milliwatts_served: self.energy_milliwatts_served.load(Ordering::Relaxed),
            workers_alive: self.workers_alive.load(Ordering::Relaxed),
            spawn_failures: self.spawn_failures.load(Ordering::Relaxed),
            threads_spawned: self.threads_spawned.load(Ordering::Relaxed),
            racer_panics: 0,
            racer_invalid: 0,
            racer_cancelled: 0,
            latency,
        }
    }
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        ServiceMetrics::new()
    }
}

/// Point-in-time metrics, with quantile helpers over the histogram.
#[derive(Clone, Copy, Debug)]
pub struct MetricsSnapshot {
    /// Requests accepted into the queue or answered at the edge.
    pub requests: u64,
    /// Responses delivered, edge answers included.
    pub responses: u64,
    /// Error responses among them.
    pub errors: u64,
    /// Backpressure rejections.
    pub rejected: u64,
    /// Portfolio runs that finished all members.
    pub portfolio_complete: u64,
    /// Portfolio runs truncated by a deadline.
    pub portfolio_truncated: u64,
    /// Panics caught on worker compute paths (each answered with a
    /// typed `Internal` response).
    pub worker_panics: u64,
    /// Solutions refused by the validate-before-cache vet.
    pub invalid_solutions: u64,
    /// Energy-objective requests served with a solution.
    pub energy_requests: u64,
    /// Cumulative steady-state power served on those responses, in
    /// integer milliwatts.
    pub energy_milliwatts_served: u64,
    /// Worker threads currently serving.
    pub workers_alive: u64,
    /// Failed thread spawns (worker or racer pool degraded).
    pub spawn_failures: u64,
    /// OS threads created over the engine's lifetime.
    pub threads_spawned: u64,
    /// Panics caught inside portfolio racer threads.
    /// ([`Engine::metrics`](crate::Engine::metrics) fills this from the
    /// racer pool; a bare [`ServiceMetrics::snapshot`] leaves it 0.)
    pub racer_panics: u64,
    /// Racer solutions rejected as invalid before reporting (same
    /// sourcing as `racer_panics`).
    pub racer_invalid: u64,
    /// Racer jobs skipped because their request was already answered
    /// (same sourcing as `racer_panics`).
    pub racer_cancelled: u64,
    /// Latency histogram of queued requests (edge answers are not in
    /// it); bucket `i` counts latencies in the disjoint range
    /// `[2^(i-1), 2^i)` ns (bucket 0: below 1 ns; bucket 63 also absorbs
    /// everything at or above `2^63` ns).
    pub latency: [u64; BUCKETS],
}

impl MetricsSnapshot {
    /// Adds `other`'s counters into `self`: counts sum, the
    /// `workers_alive` gauge sums (total threads serving across pools),
    /// and histograms add bucket-wise. This is how per-shard snapshots
    /// aggregate into a fleet view (see
    /// [`EngineShards`](crate::shards::EngineShards)).
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        self.requests += other.requests;
        self.responses += other.responses;
        self.errors += other.errors;
        self.rejected += other.rejected;
        self.portfolio_complete += other.portfolio_complete;
        self.portfolio_truncated += other.portfolio_truncated;
        self.worker_panics += other.worker_panics;
        self.invalid_solutions += other.invalid_solutions;
        self.energy_requests += other.energy_requests;
        self.energy_milliwatts_served += other.energy_milliwatts_served;
        self.workers_alive += other.workers_alive;
        self.spawn_failures += other.spawn_failures;
        self.threads_spawned += other.threads_spawned;
        self.racer_panics += other.racer_panics;
        self.racer_invalid += other.racer_invalid;
        self.racer_cancelled += other.racer_cancelled;
        for (mine, theirs) in self.latency.iter_mut().zip(&other.latency) {
            *mine += theirs;
        }
    }

    /// Upper-bound estimate (ns) of the `q`-quantile of response latency,
    /// `q` in `[0, 1]`. Returns 0 with no recorded responses. The
    /// estimate is the upper edge of the histogram bucket containing the
    /// quantile, so it is within 2× of the true value.
    #[must_use]
    pub fn latency_quantile_ns(&self, q: f64) -> u64 {
        let total: u64 = self.latency.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &count) in self.latency.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return if i >= 63 { u64::MAX } else { (1u64 << i) - 1 };
            }
        }
        u64::MAX
    }

    /// Renders the snapshot as a single JSON object (stable key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push('{');
        let field = |s: &mut String, key: &str, value: u64| {
            if s.len() > 1 {
                s.push(',');
            }
            s.push('"');
            s.push_str(key);
            s.push_str("\":");
            s.push_str(&value.to_string());
        };
        field(&mut s, "requests", self.requests);
        field(&mut s, "responses", self.responses);
        field(&mut s, "errors", self.errors);
        field(&mut s, "rejected", self.rejected);
        field(&mut s, "portfolio_complete", self.portfolio_complete);
        field(&mut s, "portfolio_truncated", self.portfolio_truncated);
        field(&mut s, "worker_panics", self.worker_panics);
        field(&mut s, "invalid_solutions", self.invalid_solutions);
        field(&mut s, "workers_alive", self.workers_alive);
        field(&mut s, "spawn_failures", self.spawn_failures);
        field(&mut s, "threads_spawned", self.threads_spawned);
        field(&mut s, "racer_panics", self.racer_panics);
        field(&mut s, "racer_invalid", self.racer_invalid);
        field(&mut s, "racer_cancelled", self.racer_cancelled);
        field(&mut s, "energy_requests", self.energy_requests);
        field(
            &mut s,
            "energy_milliwatts_served",
            self.energy_milliwatts_served,
        );
        field(&mut s, "latency_p50_ns", self.latency_quantile_ns(0.50));
        field(&mut s, "latency_p90_ns", self.latency_quantile_ns(0.90));
        field(&mut s, "latency_p99_ns", self.latency_quantile_ns(0.99));
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = ServiceMetrics::new();
        m.record_accepted();
        m.record_accepted();
        m.record_rejected();
        m.record_response(Duration::from_micros(3), false);
        m.record_response(Duration::from_micros(5), true);
        m.record_portfolio(true);
        m.record_portfolio(false);
        let s = m.snapshot();
        assert_eq!(s.requests, 2);
        assert_eq!(s.rejected, 1);
        assert_eq!(s.responses, 2);
        assert_eq!(s.errors, 1);
        assert_eq!(s.portfolio_complete, 1);
        assert_eq!(s.portfolio_truncated, 1);
    }

    #[test]
    fn quantiles_bound_recorded_latencies_within_2x() {
        let m = ServiceMetrics::new();
        for us in [1u64, 2, 4, 100, 1000] {
            m.record_response(Duration::from_micros(us), false);
        }
        let s = m.snapshot();
        let p50 = s.latency_quantile_ns(0.50);
        let p99 = s.latency_quantile_ns(0.99);
        assert!((4_000..8_192).contains(&p50), "p50={p50}");
        assert!((1_000_000..2_097_152).contains(&p99), "p99={p99}");
        assert!(s.latency_quantile_ns(0.0) > 0);
        assert_eq!(ServiceMetrics::new().snapshot().latency_quantile_ns(0.5), 0);
    }

    #[test]
    fn json_is_flat_and_ordered() {
        let m = ServiceMetrics::new();
        m.record_accepted();
        m.record_response(Duration::from_nanos(100), false);
        let json = m.snapshot().to_json();
        assert!(json.starts_with("{\"requests\":1,\"responses\":1,"));
        assert!(json.contains("\"worker_panics\":0"));
        assert!(json.contains("\"racer_panics\":0"));
        assert!(json.contains("\"latency_p99_ns\":"));
        assert!(json.ends_with('}'));
        assert_eq!(json.matches('{').count(), 1);
    }

    /// Pins the histogram's edge semantics: a zero-duration response
    /// lands in bucket 0 (the `[0, 1)` ns range) and anything at or
    /// beyond `2^63` ns saturates into bucket 63 instead of indexing
    /// out of bounds.
    #[test]
    fn latency_buckets_pin_zero_and_saturation_edges() {
        let m = ServiceMetrics::new();
        m.record_response(Duration::ZERO, false);
        let s = m.snapshot();
        assert_eq!(s.latency[0], 1, "Duration::ZERO belongs in bucket 0");
        assert_eq!(s.latency[1..].iter().sum::<u64>(), 0);

        let m = ServiceMetrics::new();
        // u64::MAX ns (and anything >= 2^63 ns, including the u128 →
        // u64 clamp of absurd durations) must saturate into bucket 63.
        m.record_response(Duration::from_nanos(u64::MAX), false);
        m.record_response(Duration::from_secs(u64::MAX), false);
        let s = m.snapshot();
        assert_eq!(s.latency[63], 2);
        assert_eq!(s.latency[..63].iter().sum::<u64>(), 0);
        assert_eq!(s.latency_quantile_ns(0.5), u64::MAX);
    }

    #[test]
    fn robustness_counters_accumulate() {
        let m = ServiceMetrics::new();
        m.record_worker_started();
        m.record_worker_started();
        m.record_worker_panic();
        m.record_invalid_solution();
        m.record_spawn_failure();
        m.record_threads_spawned(6);
        m.record_worker_stopped();
        let s = m.snapshot();
        assert_eq!(s.worker_panics, 1);
        assert_eq!(s.invalid_solutions, 1);
        assert_eq!(s.workers_alive, 1);
        assert_eq!(s.spawn_failures, 1);
        assert_eq!(s.threads_spawned, 6);
        // Racer counters are merged in by `Engine::metrics`, not here.
        assert_eq!(
            (s.racer_panics, s.racer_invalid, s.racer_cancelled),
            (0, 0, 0)
        );
    }
}
