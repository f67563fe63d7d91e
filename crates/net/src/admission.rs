//! Admission control for the socket front end: per-tenant token-bucket
//! quotas and per-connection in-flight windows.
//!
//! The two mechanisms answer different questions and fail differently:
//!
//! * **Quotas** bound each tenant's *rate*. Every tenant owns an
//!   independent token bucket, so one hog exhausts its own bucket and
//!   sees typed `QUOTA_EXCEEDED` rejections while every other tenant is
//!   untouched — that is the fairness property. A quota rejection is a
//!   *response*, never a dropped frame or a disconnect.
//! * **Windows** bound each connection's *in-flight concurrency*. A
//!   full window is not an error at all: the reader simply stops
//!   reading until a response frees a slot, which propagates as TCP
//!   backpressure to the client's socket. No frame is rejected, no
//!   connection is closed — the client just can't get further ahead
//!   than the server is willing to buffer.

use std::collections::HashMap;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};

/// Token-bucket sizing for one tenant.
#[derive(Clone, Copy, Debug)]
pub struct QuotaConfig {
    /// Maximum burst: the bucket's capacity in requests.
    pub burst: u64,
    /// Sustained rate: tokens added per second.
    pub per_second: u64,
}

/// Milli-token resolution so sub-second refills accumulate exactly.
const MILLI: u64 = 1000;

/// One tenant's bucket.
struct Bucket {
    milli_tokens: u64,
    last_refill: Instant,
}

impl Bucket {
    fn try_take(&mut self, cfg: &QuotaConfig, now: Instant) -> bool {
        let cap = cfg.burst.saturating_mul(MILLI);
        let elapsed = now.saturating_duration_since(self.last_refill);
        // Milli-tokens refilled = rate (tokens/s) × elapsed ms: exact
        // integer arithmetic, no float drift. Sub-millisecond remainders
        // stay on the clock (`last_refill` only advances when something
        // was credited).
        let refill =
            u64::try_from(u128::from(cfg.per_second) * elapsed.as_millis()).unwrap_or(u64::MAX);
        if refill > 0 {
            self.milli_tokens = (self.milli_tokens + refill).min(cap);
            self.last_refill = now;
        }
        if self.milli_tokens >= MILLI {
            self.milli_tokens -= MILLI;
            true
        } else {
            false
        }
    }
}

/// Per-tenant token buckets. `None` config disables quotas entirely
/// (every request admitted).
pub struct TenantQuotas {
    cfg: Option<QuotaConfig>,
    buckets: Mutex<HashMap<String, Bucket>>,
}

impl TenantQuotas {
    /// Builds the quota table; `None` disables quota enforcement.
    #[must_use]
    pub fn new(cfg: Option<QuotaConfig>) -> Self {
        TenantQuotas {
            cfg,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Takes one token from `tenant`'s bucket. `true` admits; `false`
    /// means the tenant is over quota *right now* (the caller answers
    /// with `QUOTA_EXCEEDED`; other tenants' buckets are unaffected).
    pub fn admit(&self, tenant: &str, now: Instant) -> bool {
        let Some(cfg) = &self.cfg else {
            return true;
        };
        let mut buckets = self.buckets.lock();
        let bucket = buckets.entry(tenant.to_string()).or_insert_with(|| Bucket {
            // A new tenant starts with a full burst allowance.
            milli_tokens: cfg.burst.saturating_mul(MILLI),
            last_refill: now,
        });
        bucket.try_take(cfg, now)
    }
}

/// A bounded in-flight window: `acquire` blocks while full (TCP
/// backpressure via the paused reader), `release` frees a slot when a
/// response is written out.
///
/// A release wakes acquirers only when one is parked: the count of
/// parked acquirers lives under the same lock as the slots, so a
/// release that sees none has nobody to miss. The pump releases once
/// per cork, and a notify that wakes nobody still costs a syscall.
pub struct InflightWindow {
    max: usize,
    state: Mutex<WindowState>,
    freed: Condvar,
}

struct WindowState {
    inflight: usize,
    /// Acquirers waiting on `freed`.
    parked: usize,
}

impl InflightWindow {
    /// A window admitting at most `max` (≥ 1) un-answered requests.
    #[must_use]
    pub fn new(max: usize) -> Self {
        InflightWindow {
            max: max.max(1),
            state: Mutex::new(WindowState {
                inflight: 0,
                parked: 0,
            }),
            freed: Condvar::new(),
        }
    }

    /// Takes a slot immediately if one is free.
    pub fn try_acquire(&self) -> bool {
        let mut state = self.state.lock();
        if state.inflight < self.max {
            state.inflight += 1;
            true
        } else {
            false
        }
    }

    /// Takes a slot, blocking until one frees up. This is the
    /// backpressure point: the connection reader parks here instead of
    /// reading further frames.
    pub fn acquire(&self) {
        let mut state = self.state.lock();
        while state.inflight >= self.max {
            state.parked += 1;
            self.freed.wait(&mut state);
            state.parked -= 1;
        }
        state.inflight += 1;
    }

    /// Returns a slot (one response left the server).
    pub fn release(&self) {
        self.release_n(1);
    }

    /// Returns `n` slots at once — one corked vectored write can retire
    /// a whole burst of responses, and taking the lock once for the
    /// batch keeps the release path off the pump's per-frame cost.
    pub fn release_n(&self, n: usize) {
        if n == 0 {
            return;
        }
        let mut state = self.state.lock();
        state.inflight = state.inflight.saturating_sub(n);
        let parked = state.parked > 0;
        drop(state);
        // A parked acquirer counted itself under the lock before it
        // waited, so it is already waiting and this wakes it.
        if parked {
            self.freed.notify_all();
        }
    }

    /// Current in-flight count: 0 means every acquired slot was
    /// released, so every reply that held one is written.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.state.lock().inflight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn bursts_are_bounded_and_tenants_are_isolated() {
        let quotas = TenantQuotas::new(Some(QuotaConfig {
            burst: 3,
            per_second: 1,
        }));
        let t0 = Instant::now();
        // The hog drains its burst...
        assert!(quotas.admit("hog", t0));
        assert!(quotas.admit("hog", t0));
        assert!(quotas.admit("hog", t0));
        assert!(!quotas.admit("hog", t0), "burst exhausted");
        // ...while another tenant is untouched.
        assert!(quotas.admit("quiet", t0));
        // Refill restores exactly rate * elapsed, capped at the burst.
        let later = t0 + Duration::from_secs(2);
        assert!(quotas.admit("hog", later));
        assert!(quotas.admit("hog", later));
        assert!(!quotas.admit("hog", later), "only 2 tokens refilled");
        let much_later = t0 + Duration::from_secs(3600);
        for _ in 0..3 {
            assert!(quotas.admit("hog", much_later));
        }
        assert!(
            !quotas.admit("hog", much_later),
            "refill must cap at the burst"
        );
    }

    #[test]
    fn disabled_quotas_admit_everything() {
        let quotas = TenantQuotas::new(None);
        let now = Instant::now();
        for _ in 0..10_000 {
            assert!(quotas.admit("anyone", now));
        }
    }

    #[test]
    fn window_blocks_at_capacity_and_wakes_on_release() {
        let w = Arc::new(InflightWindow::new(2));
        w.acquire();
        w.acquire();
        assert!(!w.try_acquire(), "window full");
        assert_eq!(w.in_flight(), 2);
        // A blocked acquirer wakes when a slot frees.
        let w2 = Arc::clone(&w);
        let blocked = std::thread::spawn(move || {
            w2.acquire();
            w2.in_flight()
        });
        std::thread::sleep(Duration::from_millis(10));
        w.release();
        assert_eq!(blocked.join().expect("no panic"), 2);
    }

    /// Acquirers and releasers on a one-slot window, every one of them
    /// parking at times: a release that skipped a needed wake-up would
    /// leave an acquirer parked for good, so the run must end within
    /// its deadline. std's channel carries the verdict.
    #[test]
    fn parked_acquirers_always_wake_under_contention() {
        let w = Arc::new(InflightWindow::new(1));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        for _ in 0..3 {
            let w = Arc::clone(&w);
            let done_tx = done_tx.clone();
            std::thread::spawn(move || {
                for i in 0..20_000u32 {
                    w.acquire();
                    if i % 64 == 0 {
                        std::thread::yield_now();
                    }
                    w.release();
                }
                let _ = done_tx.send(());
            });
        }
        for _ in 0..3 {
            done_rx
                .recv_timeout(Duration::from_secs(60))
                .expect("an acquirer stayed parked: a wake-up was lost");
        }
        assert_eq!(w.in_flight(), 0);
    }
}
