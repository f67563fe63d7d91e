//! The scheduling engine: a crossbeam worker pool with bounded queues,
//! explicit backpressure, panic isolation and graceful shutdown.
//!
//! Clients hand the engine a [`ScheduleRequest`] plus a reply channel.
//! Requests enter a *bounded* job queue: [`Engine::try_submit`] rejects
//! with [`ServiceError::Overloaded`] when the queue is full (the caller
//! sees backpressure immediately instead of unbounded memory growth),
//! while [`Engine::submit`] blocks until a slot frees up. Worker threads
//! pop jobs, consult the [`SolutionCache`], run the requested policy —
//! one strategy via [`strategy_by_name`], or the deadline-bounded
//! [`portfolio`](crate::portfolio) — and send exactly one
//! [`ScheduleResponse`] per request on the caller's reply channel.
//!
//! Pipelined front ends (the `amp-net` socket server) hand over whole
//! bursts at once: [`Engine::try_submit_batch`] enqueues many requests
//! as *one* queue slot, so one hand-off amortizes the queue round-trip.
//! There is one request path: the worker that dequeues a job answers its
//! members one after another, in submission order, exactly as it answers
//! a single request — same checks, one cache lookup, the same panic
//! guard and solution check, on the worker's own scratch.
//!
//! A front end that holds a request it could answer from the cache
//! alone may ask [`Engine::answer_from_cache`] first: a hit comes back
//! as the shared stored outcome, with no queue, worker or reply channel
//! in between, and a miss counts nothing, so the request then takes the
//! queue as usual. The socket server does this for a connection with
//! nothing outstanding (see `amp_net::server`).
//!
//! ## Robustness contract
//!
//! *No accepted request is ever dropped without a response* — even when
//! the strategy panics. Every request's compute runs under
//! [`catch_unwind`]: a panic becomes a typed
//! [`ServiceError::Internal`] response, is counted in the
//! `worker_panics` metric, and the worker's scratch arena is replaced
//! (a half-written DP table is not trustworthy). Should anything
//! *outside* the per-request guard unwind, a supervision loop catches
//! it and revives the worker loop in place, so the pool never silently
//! shrinks below its configured size (`workers_alive` in the metrics
//! tracks this).
//!
//! Before any cache insert the winning solution is re-validated
//! (structure and resource usage) as defense in depth: an invalid
//! solution — reachable only through fault injection or a genuine
//! scheduler bug — produces an `Internal` error response and is never
//! cached or served.
//!
//! A zero-worker engine (test configurations probing backpressure) can
//! never drain its queue, so the blocking paths refuse instead of
//! deadlocking: [`Engine::submit`] degrades to the non-blocking reject
//! once the queue fills, and [`Engine::schedule_blocking`] returns
//! [`ServiceError::NoWorkers`] immediately.
//!
//! Shutdown is graceful *and shared-owner safe*: [`Engine::close`]
//! stops admissions through a plain `&self` (so an `Arc<Engine>` held
//! by many connection threads can initiate shutdown), [`Engine::drain`]
//! additionally waits until every accepted request has been answered
//! and the workers have exited, and [`Engine::shutdown`] / `Drop` are
//! thin wrappers over `drain`. A submission racing with `close` either
//! returns [`ServiceError::ShuttingDown`] or wins the race — and a
//! winning submission is still served, because the submitter holds its
//! own clone of the queue sender until the enqueue completes, so the
//! workers cannot observe "closed and empty" while the job is in
//! flight. There is no window in which a request is accepted (`Ok`
//! returned to the caller) but never answered.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use amp_core::sched::{
    energy_strategy_by_name, strategy_by_name, table_cells, EnergyDp, EnergyFertac,
    EnergyScheduler, EnergyTwocatac, SchedScratch, MAX_TABLE_CELLS,
};
use amp_core::{MilliPower, Ratio, Resources, Solution, TaskChain};
use crossbeam::channel::{self, Receiver, Sender, TrySendError};
use parking_lot::Mutex;

use crate::cache::{CacheKey, CacheStats, SolutionCache};
use crate::chain_tier::{ChainTier, ChainTierStats, SnapshotError, TierFaultHook};
use crate::error::ServiceError;
use crate::metrics::{MetricsSnapshot, ServiceMetrics};
use crate::portfolio;
use crate::racer::{solution_is_sound, RacerPool, StrategyWrap};
use crate::request::{Policy, ScheduleOutcome, ScheduleRequest, ScheduleResponse, TaskSpec};

/// Sizing and tuning of an [`Engine`].
#[derive(Clone)]
pub struct EngineConfig {
    /// Worker threads. `0` is allowed (jobs queue but never execute) and
    /// only useful in tests probing backpressure; the blocking
    /// submission paths then reject instead of deadlocking.
    pub workers: usize,
    /// Racer-pool threads backing the portfolio (see
    /// [`RacerPool`](crate::racer::RacerPool)). `0` degrades every
    /// portfolio request to its inline FERTAC member (reported
    /// incomplete, never cached).
    pub racer_threads: usize,
    /// Bound of the job queue; beyond it, `try_submit` rejects.
    pub queue_depth: usize,
    /// Total solution-cache entries (0 disables caching).
    pub cache_capacity: usize,
    /// Cache shards (lock-contention granularity).
    pub cache_shards: usize,
    /// Chain-tier capacity: how many distinct chains keep their solved
    /// HeRAD DP table resident for solve-once serving across pool shapes
    /// (see [`ChainTier`]). `0` disables the tier.
    pub chain_capacity: usize,
    /// Chain-tier snapshot file for warm restarts: loaded on start (a
    /// bad file is counted and ignored — the tier starts empty), saved
    /// via [`Engine::save_tier_snapshot`]. `None` disables persistence.
    pub snapshot_path: Option<PathBuf>,
    /// Test-only fault-injection seam: wraps every scheduler the engine
    /// is about to run. Leave `None` in production.
    pub fault_wrap: Option<StrategyWrap>,
    /// Test-only fault-injection seam for the chain tier (panics at
    /// extraction/growth/cold-solve/snapshot sites). Leave `None` in
    /// production.
    pub tier_fault: Option<TierFaultHook>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        let workers = thread::available_parallelism().map_or(4, usize::from);
        EngineConfig {
            workers,
            // One racer (HeRAD) per in-flight portfolio request; sized so
            // every worker can have its racer running at once.
            racer_threads: workers,
            queue_depth: 1024,
            cache_capacity: 4096,
            cache_shards: 16,
            chain_capacity: 64,
            snapshot_path: None,
            fault_wrap: None,
            tier_fault: None,
        }
    }
}

impl std::fmt::Debug for EngineConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineConfig")
            .field("workers", &self.workers)
            .field("racer_threads", &self.racer_threads)
            .field("queue_depth", &self.queue_depth)
            .field("cache_capacity", &self.cache_capacity)
            .field("cache_shards", &self.cache_shards)
            .field("chain_capacity", &self.chain_capacity)
            .field("snapshot_path", &self.snapshot_path)
            .field("fault_wrap", &self.fault_wrap.is_some())
            .field("tier_fault", &self.tier_fault.is_some())
            .finish()
    }
}

/// One queued unit of work: a single request, or a pipelined burst that
/// travels as one queue slot. Its members are answered in order.
struct Job {
    requests: Vec<ScheduleRequest>,
    reply: Sender<ScheduleResponse>,
    accepted_at: Instant,
}

impl Job {
    fn new(requests: Vec<ScheduleRequest>, reply: Sender<ScheduleResponse>) -> Self {
        Job {
            requests,
            reply,
            accepted_at: Instant::now(),
        }
    }
}

/// A batch bounced at the door: no member was enqueued, no response
/// will arrive for any of them, and all of them come back to the caller
/// paired with the typed error each is owed.
#[derive(Debug)]
pub struct RejectedBatch {
    /// The members, in submission order.
    pub requests: Vec<ScheduleRequest>,
    /// Why the batch was refused ([`ServiceError::Overloaded`] or
    /// [`ServiceError::ShuttingDown`]).
    pub error: ServiceError,
}

/// What the workers share: the counters, both caches and the
/// portfolio's racer pool.
struct Shared {
    metrics: ServiceMetrics,
    cache: SolutionCache,
    tier: ChainTier,
    racers: RacerPool,
}

/// A running scheduling service.
pub struct Engine {
    /// `None` once closed. Behind a mutex so [`Engine::close`] works
    /// through `&self` (shared `Arc<Engine>` owners can shut down);
    /// submitters clone the sender out and enqueue outside the lock, so
    /// a racing close never blocks on a full queue and a winning
    /// submission keeps the channel alive until its enqueue lands.
    job_tx: Mutex<Option<Sender<Job>>>,
    /// Kept so the queue stays connected even with zero workers; workers
    /// hold their own clones.
    _job_rx: Receiver<Job>,
    /// Behind a mutex so [`Engine::drain`] can join through `&self`;
    /// the guard is held across the joins so concurrent drains both
    /// return only after the pool has fully exited.
    workers: Mutex<Vec<JoinHandle<()>>>,
    configured_workers: usize,
    shared: Arc<Shared>,
}

impl Engine {
    /// Starts the worker pool and the portfolio racer pool. When the
    /// config names a snapshot path, the chain tier warm-restarts from it
    /// first; a missing or invalid snapshot is counted
    /// (`snapshot_rejected`) and the tier starts empty — start never
    /// fails on snapshot problems.
    #[must_use]
    pub fn start(cfg: EngineConfig) -> Self {
        let (job_tx, job_rx) = channel::bounded::<Job>(cfg.queue_depth.max(1));
        let tier = ChainTier::new(cfg.chain_capacity, cfg.tier_fault.clone());
        if let Some(path) = &cfg.snapshot_path {
            // Typed rejection only: the error is visible in the tier's
            // snapshot_rejected counter, and an empty tier is always safe.
            let _ = tier.load_from(path);
        }
        let shared = Arc::new(Shared {
            metrics: ServiceMetrics::new(),
            cache: SolutionCache::new(cfg.cache_capacity, cfg.cache_shards),
            tier,
            racers: RacerPool::new(cfg.racer_threads, cfg.fault_wrap.clone()),
        });
        let workers: Vec<JoinHandle<()>> = (0..cfg.workers)
            .filter_map(|i| {
                let rx = job_rx.clone();
                let worker_shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("amp-service-worker-{i}"))
                    .spawn(move || supervised_worker(&rx, &worker_shared))
                    // Same degradation policy as the racer pool: a spawn
                    // failure shrinks the pool instead of unwinding the
                    // constructor.
                    .inspect_err(|_| shared.metrics.record_spawn_failure())
                    .ok()
            })
            .collect();
        let racer_threads = shared.racers.stats().threads_spawned;
        shared
            .metrics
            .record_threads_spawned(workers.len() as u64 + racer_threads);
        Engine {
            job_tx: Mutex::new(Some(job_tx)),
            _job_rx: job_rx,
            configured_workers: workers.len(),
            workers: Mutex::new(workers),
            shared,
        }
    }

    /// A private clone of the queue sender, or `None` once closed. The
    /// clone is taken under the lock but used outside it: it keeps the
    /// channel connected for the duration of the enqueue even if
    /// [`Engine::close`] drops the primary sender concurrently, which is
    /// what guarantees an accepted job is always drained.
    fn sender(&self) -> Option<Sender<Job>> {
        self.job_tx.lock().clone()
    }

    /// Non-blocking submission. Rejects with
    /// [`ServiceError::Overloaded`] when the job queue is full; the
    /// request is then *not* enqueued and no response will arrive for it.
    /// After [`Engine::close`] it rejects with
    /// [`ServiceError::ShuttingDown`].
    pub fn try_submit(
        &self,
        request: ScheduleRequest,
        reply: Sender<ScheduleResponse>,
    ) -> Result<(), ServiceError> {
        self.try_submit_batch(vec![request], reply)
            .map(drop)
            .map_err(|bounced| bounced.error)
    }

    /// Non-blocking submission of a pipelined burst as one queue slot.
    ///
    /// All-or-nothing: on `Ok(n)` every request will receive exactly one
    /// response on `reply`, sent in submission order; on rejection *none*
    /// was enqueued and every member travels back in the
    /// [`RejectedBatch`], so the caller can answer each one with the
    /// typed error. Each member is served exactly as a single request
    /// would be. An empty batch is a no-op.
    pub fn try_submit_batch(
        &self,
        requests: Vec<ScheduleRequest>,
        reply: Sender<ScheduleResponse>,
    ) -> Result<usize, RejectedBatch> {
        let n = requests.len();
        if n == 0 {
            return Ok(0);
        }
        let Some(tx) = self.sender() else {
            return Err(RejectedBatch {
                requests,
                error: ServiceError::ShuttingDown,
            });
        };
        match tx.try_send(Job::new(requests, reply)) {
            Ok(()) => {
                self.shared.metrics.record_accepted_n(n as u64);
                Ok(n)
            }
            Err(TrySendError::Full(job)) => {
                self.shared.metrics.record_rejected_n(n as u64);
                Err(RejectedBatch {
                    requests: job.requests,
                    error: ServiceError::Overloaded,
                })
            }
            Err(TrySendError::Disconnected(job)) => Err(RejectedBatch {
                requests: job.requests,
                error: ServiceError::ShuttingDown,
            }),
        }
    }

    /// Blocking submission: waits for a queue slot instead of rejecting.
    ///
    /// On a zero-worker engine no slot can ever free up, so once the
    /// queue is full this degrades to the non-blocking path and returns
    /// [`ServiceError::Overloaded`] instead of deadlocking.
    pub fn submit(
        &self,
        request: ScheduleRequest,
        reply: Sender<ScheduleResponse>,
    ) -> Result<(), ServiceError> {
        if self.configured_workers == 0 {
            return self.try_submit(request, reply);
        }
        let Some(tx) = self.sender() else {
            return Err(ServiceError::ShuttingDown);
        };
        match tx.send(Job::new(vec![request], reply)) {
            Ok(()) => {
                self.shared.metrics.record_accepted();
                Ok(())
            }
            Err(_) => Err(ServiceError::ShuttingDown),
        }
    }

    /// Convenience for tests and synchronous callers: submits and waits
    /// for the single response. On a zero-worker engine the wait could
    /// never end, so it returns [`ServiceError::NoWorkers`] immediately.
    #[must_use]
    pub fn schedule_blocking(&self, request: ScheduleRequest) -> ScheduleResponse {
        let id = request.id;
        if self.configured_workers == 0 {
            return ScheduleResponse {
                id,
                result: Err(ServiceError::NoWorkers),
            };
        }
        let (tx, rx) = channel::bounded(1);
        if let Err(e) = self.submit(request, tx) {
            return ScheduleResponse { id, result: Err(e) };
        }
        rx.recv().unwrap_or_else(|_| ScheduleResponse {
            id,
            result: Err(ServiceError::Internal(
                "worker dropped the reply channel".to_string(),
            )),
        })
    }

    /// Answers `request` from the exact LRU without the queue, or
    /// returns `None` (a miss, or a closed engine) and counts nothing:
    /// the request then takes the queue, whose lookup counts the miss.
    /// A hit counts as a request, a response and a cache hit, and
    /// shares the stored outcome, whose `cache_hit` flag is `false`.
    ///
    /// Only the key material is read. A cached key passed every check
    /// the worker makes before its own lookup, since those checks read
    /// nothing else, so a hit needs none of them.
    #[must_use]
    pub fn answer_from_cache(&self, request: &ScheduleRequest) -> Option<Arc<ScheduleOutcome>> {
        if self.is_closed() {
            return None;
        }
        let hit = self.shared.cache.probe(request)?;
        self.shared.metrics.record_edge_answer();
        Some(hit)
    }

    /// Point-in-time service metrics, including the racer-pool counters.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.shared.metrics.snapshot();
        let racers = self.shared.racers.stats();
        snap.racer_panics = racers.panics;
        snap.racer_invalid = racers.invalid;
        snap.racer_cancelled = racers.cancelled;
        snap.spawn_failures += racers.spawn_failures;
        snap
    }

    /// Point-in-time cache counters (the exact-fingerprint LRU tier).
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Point-in-time chain-tier counters (the solve-once tier).
    #[must_use]
    pub fn tier_stats(&self) -> ChainTierStats {
        self.shared.tier.stats()
    }

    /// The chain tier itself — the shard router merges tier snapshots
    /// across engines through this.
    pub(crate) fn tier(&self) -> &ChainTier {
        &self.shared.tier
    }

    /// Saves the chain tier's tables to `path` (atomic write). Returns
    /// how many tables were written.
    pub fn save_tier_snapshot(&self, path: &Path) -> Result<usize, SnapshotError> {
        self.shared.tier.save_to(path)
    }

    /// Restores chain-tier tables from a snapshot file; a bad file is a
    /// typed error and changes nothing. Returns how many tables loaded.
    pub fn load_tier_snapshot(&self, path: &Path) -> Result<usize, SnapshotError> {
        self.shared.tier.load_from(path)
    }

    /// Service metrics and cache counters as one JSON object, with the
    /// exact-fingerprint LRU (`"cache"`) and the chain tier
    /// (`"chain_cache"`) reported *separately* — each with its own
    /// integer per-mille hit rate, so dashboards and smoke gates can tell
    /// replay hits from solve-once extraction hits. Per-mille keeps the
    /// status document inside the canonical JSON format, which has no
    /// floats.
    #[must_use]
    pub fn status_json(&self) -> String {
        let cache = self.cache_stats();
        let metrics = self.metrics().to_json();
        format!(
            "{{\"service\":{metrics},\"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\
             \"insertions\":{},\"entries\":{},\"capacity\":{},\"hit_rate_milli\":{}}},\
             \"chain_cache\":{}}}",
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.insertions,
            cache.entries,
            cache.capacity,
            (cache.hit_rate() * 1000.0).round() as u64,
            chain_cache_json(&self.tier_stats()),
        )
    }

    /// Closes the job queue through a shared reference: later
    /// submissions fail with [`ServiceError::ShuttingDown`], while every
    /// already-accepted request still drains to a response. Idempotent.
    ///
    /// This is the admission-stop half of shutdown, callable from any
    /// thread holding an `Arc<Engine>` (the socket front end closes
    /// admissions first, then drains connections, then calls
    /// [`Engine::drain`]).
    pub fn close(&self) {
        drop(self.job_tx.lock().take());
    }

    /// True once [`Engine::close`] (or shutdown/drop) has run.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.job_tx.lock().is_none()
    }

    /// Closes the queue, waits for the workers to drain every accepted
    /// request, and joins them — all through `&self`, so shared owners
    /// can run a full graceful shutdown. Concurrent callers all block
    /// until the pool has fully exited. Idempotent.
    pub fn drain(&self) {
        self.close();
        let mut workers = self.workers.lock();
        for worker in workers.drain(..) {
            let _ = worker.join();
        }
        // The racer pool (shared via Arc) tears itself down when the
        // last reference drops — after the workers, by construction.
    }

    /// Closes the queue, drains every accepted request and joins the
    /// workers. Dropping the engine does the same.
    pub fn shutdown(self) {
        self.drain();
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.drain();
    }
}

/// Renders one tier's counters as the `"chain_cache"` JSON fragment
/// (shared by [`Engine::status_json`] and the shard aggregate).
pub(crate) fn chain_cache_json(stats: &ChainTierStats) -> String {
    format!(
        "{{\"hits\":{},\"grows\":{},\"cold_solves\":{},\"repairs\":{},\"evictions\":{},\
         \"entries\":{},\"capacity\":{},\"snapshot_loaded\":{},\"snapshot_rejected\":{},\
         \"hit_rate_milli\":{}}}",
        stats.hits,
        stats.grows,
        stats.cold_solves,
        stats.repairs,
        stats.evictions,
        stats.entries,
        stats.capacity,
        stats.snapshot_loaded,
        stats.snapshot_rejected,
        stats.hit_rate_milli(),
    )
}

/// Extracts a human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "non-string panic payload"
    }
}

/// The supervision shell around [`worker_loop`]: any unwind that escapes
/// the per-request guard is caught here and the loop revived in place,
/// so the pool's thread count never decays. A clean return (queue closed
/// and drained) exits for real.
fn supervised_worker(rx: &Receiver<Job>, shared: &Shared) {
    shared.metrics.record_worker_started();
    loop {
        match catch_unwind(AssertUnwindSafe(|| worker_loop(rx, shared))) {
            Ok(()) => break,
            Err(_) => shared.metrics.record_worker_panic(),
        }
    }
    shared.metrics.record_worker_stopped();
}

/// Answers every member of every job, in submission order, each through
/// one [`Shared::compute_guarded`] call.
fn worker_loop(rx: &Receiver<Job>, shared: &Shared) {
    // One scratch arena per worker, reused across every request the
    // worker ever handles: steady-state scheduling allocates nothing.
    let mut scratch = SchedScratch::new();
    // `recv` keeps returning queued jobs after the engine closes the
    // queue and only errors once it is both closed *and* empty — that is
    // exactly the drain-then-exit shutdown contract.
    while let Ok(job) = rx.recv() {
        for request in &job.requests {
            let result = shared.compute_guarded(request, &mut scratch);
            shared
                .metrics
                .record_response(job.accepted_at.elapsed(), result.is_err());
            // A client that dropped its reply receiver forfeits the
            // answer; that is its choice, not an engine failure.
            let _ = job.reply.send(ScheduleResponse {
                id: request.id,
                result,
            });
        }
    }
}

/// `true` when every weight is positive and each core type's total fits
/// in a `u64`: what [`TaskChain::new`] requires of a chain.
fn weights_are_valid(tasks: &[TaskSpec]) -> bool {
    let fits = |weight: fn(&TaskSpec) -> u64| {
        tasks
            .iter()
            .try_fold(0u64, |total, t| total.checked_add(weight(t)))
            .is_some()
    };
    tasks
        .iter()
        .all(|t| t.weight_big > 0 && t.weight_little > 0)
        && fits(|t| t.weight_big)
        && fits(|t| t.weight_little)
}

/// `true` when the request would run a DP or a two-choice memo on more
/// than [`MAX_TABLE_CELLS`] states: HeRAD or 2CATAC (`n` rows) for the
/// period objective, EnergyDP or Energy2CATAC (`n + 1` rows) for the
/// energy objective, by name or through the portfolio. Such a table fails
/// to allocate, and a failed allocation aborts the process, which no
/// `catch_unwind` can stop; a memo that large holds its worker for a
/// second or more.
fn table_too_large(request: &ScheduleRequest) -> bool {
    let (dp, two_choice, rows) = if request.objective.is_period() {
        ("HeRAD", "2CATAC", request.tasks.len())
    } else {
        ("EnergyDP", "Energy2CATAC", request.tasks.len() + 1)
    };
    let bounded = match &request.policy {
        Policy::Portfolio => true,
        Policy::Strategy(name) => name == dp || name == two_choice,
    };
    bounded && table_cells(rows, request.resources()).is_none_or(|c| c > MAX_TABLE_CELLS)
}

impl Shared {
    /// Runs one request's compute under panic isolation: an unwinding
    /// strategy (or any compute-path bug) still yields exactly one typed
    /// result, and the possibly half-written scratch is recycled.
    fn compute_guarded(
        &self,
        request: &ScheduleRequest,
        scratch: &mut SchedScratch,
    ) -> Result<ScheduleOutcome, ServiceError> {
        catch_unwind(AssertUnwindSafe(|| self.handle(request, scratch))).unwrap_or_else(|panic| {
            self.metrics.record_worker_panic();
            // The interrupted solve may have left the arena mid-write;
            // recycle it rather than trust it.
            *scratch = SchedScratch::new();
            Err(ServiceError::Internal(format!(
                "worker panicked while scheduling: {}",
                panic_message(panic.as_ref())
            )))
        })
    }

    fn handle(
        &self,
        request: &ScheduleRequest,
        scratch: &mut SchedScratch,
    ) -> Result<ScheduleOutcome, ServiceError> {
        if request.tasks.is_empty() {
            return Err(ServiceError::EmptyChain);
        }
        if request.big_cores == 0 && request.little_cores == 0 {
            return Err(ServiceError::NoCores);
        }
        if !weights_are_valid(&request.tasks) {
            return Err(ServiceError::InvalidWeights);
        }
        if table_too_large(request) {
            return Err(ServiceError::PoolTooLarge);
        }
        if let Some(hit) = self.cache.lookup(request) {
            return Ok(ScheduleOutcome {
                cache_hit: true,
                ..(*hit).clone()
            });
        }
        let chain = request.chain();
        let resources = request.resources();
        // Defense in depth before anything is served or cached: re-validate
        // the winning stages against the chain and the pool. An invalid
        // solution here means a scheduler bug (or an injected fault) — fail
        // loudly instead of persisting garbage. The vet runs on the raw
        // solution, before any outcome derivation touches the chain with
        // possibly out-of-range stage indices.
        let vet = |strategy: &str, solution: &Solution| -> Result<(), ServiceError> {
            if solution_is_sound(solution, &chain, resources) {
                Ok(())
            } else {
                self.metrics.record_invalid_solution();
                Err(ServiceError::Internal(format!(
                    "strategy {strategy} produced an invalid solution; refusing to serve or cache it"
                )))
            }
        };
        if !request.objective.is_period() {
            let outcome = self.solve_energy(request, &chain, resources, scratch, &vet)?;
            if outcome.complete {
                self.cache
                    .insert(CacheKey::for_request(request), outcome.clone());
            }
            return Ok(outcome);
        }
        let outcome = match &request.policy {
            Policy::Strategy(name) => {
                let strategy = strategy_by_name(name)
                    .ok_or_else(|| ServiceError::UnknownStrategy { name: name.clone() })?;
                let strategy = self.racers.wrapped(strategy);
                let mut solution = Solution::empty();
                // HeRAD requests go through the chain tier: one solved DP
                // table per chain answers every pool shape by extraction
                // (bit-identical to the direct solve, pinned by the
                // conformance battery). Other strategies — and a disabled
                // tier — take the direct solver path.
                let feasible = if self.tier.enabled() && strategy.name() == "HeRAD" {
                    self.tier
                        .serve(&request.tasks, &chain, resources, &mut solution)
                        .1
                } else {
                    strategy.schedule_into(&chain, resources, scratch, &mut solution)
                };
                if !feasible {
                    return Err(ServiceError::Infeasible);
                }
                vet(strategy.name(), &solution)?;
                ScheduleOutcome::from_solution(strategy.name(), &solution, &chain, true)
            }
            Policy::Portfolio => {
                // The deadline bounds the compute phase: it starts ticking
                // when a worker dequeues the request, not when the client
                // submitted it (queueing delay is the queue's business and
                // is visible in the latency histogram instead).
                let deadline = request
                    .deadline_us
                    .map(|us| Instant::now() + Duration::from_micros(us));
                let out = portfolio::run(&chain, resources, deadline, scratch, &self.racers)
                    .ok_or(ServiceError::Infeasible)?;
                self.metrics.record_portfolio(out.complete);
                vet(out.strategy, &out.solution)?;
                ScheduleOutcome::from_solution(out.strategy, &out.solution, &chain, out.complete)
            }
        };
        // Only complete outcomes are sound to replay: a deadline-truncated
        // (or racer-failure-truncated) portfolio answer may be improvable,
        // and caching it would pin the worse solution for every later
        // identical request.
        if outcome.complete {
            self.cache
                .insert(CacheKey::for_request(request), outcome.clone());
        }
        Ok(outcome)
    }

    /// Serves one energy-objective request: minimize steady-state power
    /// subject to the pipeline meeting the request's target period.
    ///
    /// The power model is the service-wide [`MilliPower::typical`] figures
    /// (integer milliwatts, so the exact arithmetic and the wire stay
    /// float-free). `Policy::Strategy` resolves against the energy registry
    /// ([`energy_strategy_by_name`]); `Policy::Portfolio` runs an anytime
    /// ladder inline on the worker — greedy `EnergyFERTAC` first (always
    /// finishes), then the memoized two-choice `Energy2CATAC`, then the exact
    /// `EnergyDP` — checking the deadline between members. The outcome is
    /// `complete` (and therefore cacheable) only when the exact DP ran, so
    /// a deadline-truncated answer is never replayed as minimal.
    fn solve_energy(
        &self,
        request: &ScheduleRequest,
        chain: &TaskChain,
        resources: Resources,
        scratch: &mut SchedScratch,
        vet: &dyn Fn(&str, &Solution) -> Result<(), ServiceError>,
    ) -> Result<ScheduleOutcome, ServiceError> {
        let target = request
            .objective
            .energy_target()
            .ok_or(ServiceError::InvalidObjective)?;
        let power = MilliPower::typical();
        let (name, solution, complete) = match &request.policy {
            Policy::Strategy(name) => {
                let strategy = energy_strategy_by_name(name)
                    .ok_or_else(|| ServiceError::UnknownStrategy { name: name.clone() })?;
                let mut solution = Solution::empty();
                strategy
                    .schedule_energy_into(chain, resources, &power, target, scratch, &mut solution)
                    .ok_or(ServiceError::Infeasible)?;
                (strategy.name(), solution, true)
            }
            Policy::Portfolio => {
                let deadline = request
                    .deadline_us
                    .map(|us| Instant::now() + Duration::from_micros(us));
                let members: [Box<dyn EnergyScheduler>; 3] = [
                    Box::new(EnergyFertac),
                    Box::new(EnergyTwocatac::new()),
                    Box::new(EnergyDp::new()),
                ];
                let last = members.len() - 1;
                let mut best: Option<(&'static str, Solution, Ratio)> = None;
                let mut complete = false;
                for (i, member) in members.iter().enumerate() {
                    // The greedy first member always runs, so an expired
                    // deadline still yields a valid schedule; later members
                    // only start while time remains.
                    if i > 0 && deadline.is_some_and(|d| Instant::now() >= d) {
                        break;
                    }
                    let mut solution = Solution::empty();
                    if let Some(energy) = member.schedule_energy_into(
                        chain,
                        resources,
                        &power,
                        target,
                        scratch,
                        &mut solution,
                    ) {
                        if best
                            .as_ref()
                            .is_none_or(|&(_, _, incumbent)| energy < incumbent)
                        {
                            best = Some((member.name(), solution, energy));
                        }
                    }
                    if i == last {
                        complete = true;
                    }
                }
                self.metrics.record_portfolio(complete);
                let (name, solution, _) = best.ok_or(ServiceError::Infeasible)?;
                (name, solution, complete)
            }
        };
        vet(name, &solution)?;
        // Defense in depth beyond structural soundness: an energy answer
        // must actually honor the throughput constraint it was solved under.
        if solution.period(chain) > target {
            self.metrics.record_invalid_solution();
            return Err(ServiceError::Internal(format!(
                "energy strategy {name} missed the target period; refusing to serve or cache it"
            )));
        }
        let energy_mw = power.solution_power_milliwatts(chain, &solution, target);
        self.metrics.record_energy(energy_mw);
        Ok(
            ScheduleOutcome::from_solution(name, &solution, chain, complete)
                .with_energy_milliwatts(energy_mw),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_core::sched::Scheduler;
    use amp_core::{Resources, Task, TaskChain};

    fn chain() -> TaskChain {
        TaskChain::new(vec![
            Task::new(10, 25, false),
            Task::new(40, 90, true),
            Task::new(40, 95, true),
            Task::new(5, 12, false),
        ])
    }

    fn engine(workers: usize) -> Engine {
        Engine::start(EngineConfig {
            workers,
            racer_threads: 2,
            queue_depth: 64,
            cache_capacity: 128,
            cache_shards: 4,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn single_strategy_request_round_trips() {
        let e = engine(2);
        let req = ScheduleRequest::from_chain(
            42,
            &chain(),
            Resources::new(2, 2),
            Policy::Strategy("FERTAC".to_string()),
        );
        let resp = e.schedule_blocking(req);
        assert_eq!(resp.id, 42);
        let out = resp.result.expect("feasible");
        assert_eq!(out.strategy, "FERTAC");
        assert!(out.complete);
        assert!(out.solution().validate(&chain()).is_ok());
        e.shutdown();
    }

    #[test]
    fn portfolio_beats_or_matches_fertac_and_caches() {
        let e = engine(2);
        let req = ScheduleRequest::from_chain(1, &chain(), Resources::new(2, 2), Policy::Portfolio);
        let first = e.schedule_blocking(req.clone()).result.expect("feasible");
        assert!(!first.cache_hit);
        assert!(first.complete);
        let second = e
            .schedule_blocking(ScheduleRequest { id: 2, ..req })
            .result
            .expect("feasible");
        assert!(second.cache_hit);
        assert_eq!(second.period, first.period);
        assert_eq!(second.decomposition, first.decomposition);
        assert_eq!(second.stages, first.stages);
        let stats = e.cache_stats();
        assert_eq!(stats.hits, 1);
        assert!(stats.entries >= 1);
    }

    #[test]
    fn typed_errors_for_bad_requests() {
        let e = engine(1);
        let mut req = ScheduleRequest::from_chain(
            1,
            &chain(),
            Resources::new(2, 2),
            Policy::Strategy("NoSuchStrategy".to_string()),
        );
        assert_eq!(
            e.schedule_blocking(req.clone()).result.unwrap_err(),
            ServiceError::UnknownStrategy {
                name: "NoSuchStrategy".to_string()
            }
        );
        req.policy = Policy::Portfolio;
        req.tasks.clear();
        assert_eq!(
            e.schedule_blocking(req.clone()).result.unwrap_err(),
            ServiceError::EmptyChain
        );
        let req = ScheduleRequest::from_chain(2, &chain(), Resources::new(0, 0), Policy::Portfolio);
        assert_eq!(
            e.schedule_blocking(req).result.unwrap_err(),
            ServiceError::NoCores
        );
        let m = e.metrics();
        assert_eq!(m.errors, 3);
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        // No workers: accepted jobs stay queued, so the bound is exact.
        let e = Engine::start(EngineConfig {
            workers: 0,
            racer_threads: 0,
            queue_depth: 2,
            cache_capacity: 0,
            cache_shards: 1,
            ..EngineConfig::default()
        });
        let (tx, _rx) = channel::unbounded();
        let req = ScheduleRequest::from_chain(0, &chain(), Resources::new(1, 1), Policy::Portfolio);
        assert!(e.try_submit(req.clone(), tx.clone()).is_ok());
        assert!(e.try_submit(req.clone(), tx.clone()).is_ok());
        assert_eq!(e.try_submit(req, tx).unwrap_err(), ServiceError::Overloaded);
        let m = e.metrics();
        assert_eq!((m.requests, m.rejected), (2, 1));
    }

    /// Regression: `submit` on a zero-worker engine used to block forever
    /// once the queue filled; it now rejects with `Overloaded`, and
    /// `schedule_blocking` refuses up front with `NoWorkers`.
    #[test]
    fn zero_worker_engine_rejects_instead_of_deadlocking() {
        let e = Engine::start(EngineConfig {
            workers: 0,
            racer_threads: 0,
            queue_depth: 2,
            cache_capacity: 0,
            cache_shards: 1,
            ..EngineConfig::default()
        });
        let (tx, _rx) = channel::unbounded();
        let req = ScheduleRequest::from_chain(0, &chain(), Resources::new(1, 1), Policy::Portfolio);
        assert!(e.submit(req.clone(), tx.clone()).is_ok());
        assert!(e.submit(req.clone(), tx.clone()).is_ok());
        // Queue full: a blocking submit would previously never return.
        assert_eq!(
            e.submit(req.clone(), tx).unwrap_err(),
            ServiceError::Overloaded
        );
        assert_eq!(
            e.schedule_blocking(req).result.unwrap_err(),
            ServiceError::NoWorkers
        );
    }

    #[test]
    fn shutdown_drains_accepted_requests() {
        let e = engine(2);
        let (tx, rx) = channel::unbounded();
        for id in 0..32 {
            let req =
                ScheduleRequest::from_chain(id, &chain(), Resources::new(2, 2), Policy::Portfolio);
            e.submit(req, tx.clone()).expect("accepted");
        }
        drop(tx);
        e.shutdown();
        let mut ids: Vec<u64> = rx.iter().map(|r: ScheduleResponse| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..32).collect::<Vec<_>>());
    }

    /// One batch slot carries all of its members: validation errors,
    /// unknown strategies, portfolio members and grouped same-strategy
    /// solves all answer exactly once, and grouped results are
    /// bit-identical to what the core scheduler computes directly.
    #[test]
    fn batch_submission_matches_sequential_and_caches() {
        let e = engine(2);
        let pools = [(2u64, 2u64), (1, 3), (3, 1), (2, 0)];
        let mut requests = Vec::new();
        let mut id = 0u64;
        for strat in ["FERTAC", "HeRAD", "2CATAC"] {
            for &(b, l) in &pools {
                requests.push(ScheduleRequest::from_chain(
                    id,
                    &chain(),
                    Resources::new(b, l),
                    Policy::Strategy(strat.to_string()),
                ));
                id += 1;
            }
        }
        let strategy_only = requests.clone();
        requests.push(ScheduleRequest::from_chain(
            100,
            &chain(),
            Resources::new(0, 0),
            Policy::Portfolio,
        ));
        let mut empty =
            ScheduleRequest::from_chain(101, &chain(), Resources::new(2, 2), Policy::Portfolio);
        empty.tasks.clear();
        requests.push(empty);
        requests.push(ScheduleRequest::from_chain(
            102,
            &chain(),
            Resources::new(2, 2),
            Policy::Strategy("NoSuchStrategy".to_string()),
        ));
        requests.push(ScheduleRequest::from_chain(
            103,
            &chain(),
            Resources::new(2, 2),
            Policy::Portfolio,
        ));
        let total = requests.len();
        let (tx, rx) = channel::unbounded();
        assert_eq!(
            e.try_submit_batch(requests.clone(), tx).expect("accepted"),
            total
        );
        let mut results = std::collections::BTreeMap::new();
        for _ in 0..total {
            let r: ScheduleResponse = rx.recv().expect("one response per member");
            assert!(results.insert(r.id, r.result).is_none(), "duplicate id");
        }
        assert!(rx.try_recv().is_err(), "no extra responses");
        // Grouped members match the core scheduler exactly.
        for req in &strategy_only {
            let Policy::Strategy(name) = &req.policy else {
                unreachable!()
            };
            let strategy = strategy_by_name(name).expect("known");
            let direct = strategy
                .schedule(&req.chain(), req.resources())
                .expect("feasible");
            let expect =
                ScheduleOutcome::from_solution(strategy.name(), &direct, &req.chain(), true);
            assert_eq!(results[&req.id].as_ref().expect("feasible"), &expect);
        }
        assert_eq!(results[&100], Err(ServiceError::NoCores));
        assert_eq!(results[&101], Err(ServiceError::EmptyChain));
        assert_eq!(
            results[&102],
            Err(ServiceError::UnknownStrategy {
                name: "NoSuchStrategy".to_string()
            })
        );
        assert!(results[&103].is_ok(), "portfolio member answers");
        // A repeat batch of the strategy members is served from cache.
        let (tx, rx) = channel::unbounded();
        let n = strategy_only.len();
        assert_eq!(e.try_submit_batch(strategy_only, tx).expect("accepted"), n);
        for _ in 0..n {
            let r: ScheduleResponse = rx.recv().expect("response");
            assert!(r.result.expect("feasible").cache_hit, "second pass hits");
        }
    }

    /// A batch is one queue slot: a depth-1 queue accepts a 16-request
    /// burst, and a rejected batch rejects (and counts) every member.
    #[test]
    fn batch_occupies_one_queue_slot_and_rejects_wholesale() {
        let e = Engine::start(EngineConfig {
            workers: 0,
            racer_threads: 0,
            queue_depth: 1,
            cache_capacity: 0,
            cache_shards: 1,
            ..EngineConfig::default()
        });
        let (tx, _rx) = channel::unbounded();
        let requests: Vec<ScheduleRequest> = (0..16)
            .map(|id| {
                ScheduleRequest::from_chain(id, &chain(), Resources::new(1, 1), Policy::Portfolio)
            })
            .collect();
        assert_eq!(
            e.try_submit_batch(requests.clone(), tx.clone()).unwrap(),
            16
        );
        let bounced = e.try_submit_batch(requests.clone(), tx).unwrap_err();
        assert_eq!(bounced.error, ServiceError::Overloaded);
        let ids = |reqs: &[ScheduleRequest]| reqs.iter().map(|r| r.id).collect::<Vec<_>>();
        assert_eq!(
            ids(&bounced.requests),
            ids(&requests),
            "every member travels back on rejection"
        );
        let m = e.metrics();
        assert_eq!((m.requests, m.rejected), (16, 16));
    }

    /// The satellite audit regression: closing the engine through a
    /// shared `Arc` while submitters race must never lose (or duplicate)
    /// a response for an accepted request — the exact window a socket
    /// front end would hit on drain. Before `close`/`drain` existed,
    /// shutdown required owning the engine by value, and a shared-owner
    /// front end had no safe way to stop admissions at all.
    #[test]
    fn close_behind_arc_never_loses_an_accepted_response() {
        let e = Arc::new(engine(2));
        let (reply_tx, reply_rx) = channel::unbounded();
        let (accepted_tx, accepted_rx) = channel::unbounded();
        let mut threads = Vec::new();
        for t in 0..4u64 {
            let e = Arc::clone(&e);
            let reply_tx = reply_tx.clone();
            let accepted_tx = accepted_tx.clone();
            threads.push(thread::spawn(move || {
                for i in 0..200u64 {
                    let id = t * 1000 + i;
                    let req = ScheduleRequest::from_chain(
                        id,
                        &chain(),
                        Resources::new(1 + id % 3, id % 4),
                        Policy::Strategy("FERTAC".to_string()),
                    );
                    match e.try_submit(req, reply_tx.clone()) {
                        // Accepted: a response is now owed, even across
                        // a racing close.
                        Ok(()) => accepted_tx.send(id).unwrap(),
                        // Backpressure: not enqueued, no response owed.
                        Err(ServiceError::Overloaded) => {}
                        Err(ServiceError::ShuttingDown) => break,
                        Err(other) => panic!("unexpected submit error: {other:?}"),
                    }
                }
            }));
        }
        // Let the submitters race, then slam the door mid-stream.
        thread::sleep(Duration::from_millis(2));
        e.close();
        e.drain();
        assert!(e.is_closed());
        for th in threads {
            th.join().unwrap();
        }
        drop(reply_tx);
        drop(accepted_tx);
        let mut accepted: Vec<u64> = accepted_rx.iter().collect();
        let mut answered: Vec<u64> = reply_rx.iter().map(|r: ScheduleResponse| r.id).collect();
        accepted.sort_unstable();
        answered.sort_unstable();
        assert_eq!(
            answered, accepted,
            "every accepted request answered exactly once"
        );
        // Post-close submissions get the typed error, not a panic.
        let (tx, _rx) = channel::unbounded();
        let late =
            ScheduleRequest::from_chain(9999, &chain(), Resources::new(1, 1), Policy::Portfolio);
        assert_eq!(
            e.try_submit(late.clone(), tx.clone()).unwrap_err(),
            ServiceError::ShuttingDown
        );
        assert_eq!(
            e.try_submit_batch(vec![late], tx).unwrap_err().error,
            ServiceError::ShuttingDown
        );
    }

    /// A panic injected into the compute path still yields exactly one
    /// typed `Internal` response, the panic is counted, and the worker
    /// keeps serving afterwards.
    #[test]
    fn injected_panic_yields_one_internal_response_and_worker_survives() {
        struct Bomb {
            inner: Box<dyn Scheduler>,
        }
        impl Scheduler for Bomb {
            fn name(&self) -> &'static str {
                self.inner.name()
            }
            fn schedule_into(
                &self,
                _: &TaskChain,
                _: Resources,
                _: &mut SchedScratch,
                _: &mut Solution,
            ) -> bool {
                panic!("injected fault");
            }
        }
        let wrap: StrategyWrap = Arc::new(|inner: Box<dyn Scheduler>| -> Box<dyn Scheduler> {
            if inner.name() == "FERTAC" {
                Box::new(Bomb { inner })
            } else {
                inner
            }
        });
        let e = Engine::start(EngineConfig {
            workers: 1,
            racer_threads: 2,
            queue_depth: 8,
            cache_capacity: 16,
            cache_shards: 1,
            fault_wrap: Some(wrap),
            ..EngineConfig::default()
        });
        let req = ScheduleRequest::from_chain(
            9,
            &chain(),
            Resources::new(2, 2),
            Policy::Strategy("FERTAC".to_string()),
        );
        let resp = e.schedule_blocking(req);
        assert_eq!(resp.id, 9);
        match resp.result {
            Err(ServiceError::Internal(msg)) => assert!(msg.contains("panicked"), "{msg}"),
            other => panic!("expected Internal error, got {other:?}"),
        }
        // The same (sole) worker answers the next request: not dead.
        let ok = e.schedule_blocking(ScheduleRequest::from_chain(
            10,
            &chain(),
            Resources::new(2, 2),
            Policy::Strategy("HeRAD".to_string()),
        ));
        assert!(ok.result.is_ok());
        let m = e.metrics();
        assert_eq!(m.worker_panics, 1);
        assert_eq!(m.workers_alive, 1);
        assert_eq!(m.responses, 2);
    }

    /// The acceptance-criteria regression: a portfolio whose racer dies
    /// reports `complete == false` and the outcome is NOT cached — a
    /// resubmission recomputes instead of replaying.
    #[test]
    fn dead_racer_outcome_is_incomplete_and_uncached() {
        struct Bomb {
            inner: Box<dyn Scheduler>,
        }
        impl Scheduler for Bomb {
            fn name(&self) -> &'static str {
                self.inner.name()
            }
            fn schedule_into(
                &self,
                _: &TaskChain,
                _: Resources,
                _: &mut SchedScratch,
                _: &mut Solution,
            ) -> bool {
                panic!("racer killed");
            }
        }
        let wrap: StrategyWrap = Arc::new(|inner: Box<dyn Scheduler>| -> Box<dyn Scheduler> {
            if inner.name() == "HeRAD" {
                Box::new(Bomb { inner })
            } else {
                inner
            }
        });
        let e = Engine::start(EngineConfig {
            workers: 1,
            racer_threads: 2,
            queue_depth: 8,
            cache_capacity: 16,
            cache_shards: 1,
            fault_wrap: Some(wrap),
            ..EngineConfig::default()
        });
        let req = ScheduleRequest::from_chain(1, &chain(), Resources::new(2, 2), Policy::Portfolio);
        let first = e.schedule_blocking(req.clone()).result.expect("feasible");
        assert!(!first.complete, "dead racer must clear complete");
        let second = e
            .schedule_blocking(ScheduleRequest { id: 2, ..req })
            .result
            .expect("feasible");
        assert!(!second.cache_hit, "incomplete outcomes must not be cached");
        let m = e.metrics();
        assert_eq!(m.racer_panics, 2, "one per (uncached) submission");
        assert_eq!(m.portfolio_truncated, 2);
        assert_eq!(m.portfolio_complete, 0);
        assert_eq!(e.cache_stats().insertions, 0);
    }

    /// Defense in depth: an injected invalid solution on the
    /// single-strategy path becomes a typed `Internal` error and never
    /// reaches the cache.
    #[test]
    fn invalid_solution_is_refused_and_never_cached() {
        struct Liar {
            inner: Box<dyn Scheduler>,
        }
        impl Scheduler for Liar {
            fn name(&self) -> &'static str {
                self.inner.name()
            }
            fn schedule_into(
                &self,
                chain: &TaskChain,
                _: Resources,
                _: &mut SchedScratch,
                out: &mut Solution,
            ) -> bool {
                *out = Solution::new(vec![amp_core::Stage::new(
                    0,
                    chain.len(),
                    1,
                    amp_core::CoreType::Big,
                )]);
                true
            }
        }
        let wrap: StrategyWrap = Arc::new(|inner: Box<dyn Scheduler>| -> Box<dyn Scheduler> {
            if inner.name() == "FERTAC" {
                Box::new(Liar { inner })
            } else {
                inner
            }
        });
        let e = Engine::start(EngineConfig {
            workers: 1,
            racer_threads: 0,
            queue_depth: 8,
            cache_capacity: 16,
            cache_shards: 1,
            fault_wrap: Some(wrap),
            ..EngineConfig::default()
        });
        let req = ScheduleRequest::from_chain(
            1,
            &chain(),
            Resources::new(2, 2),
            Policy::Strategy("FERTAC".to_string()),
        );
        match e.schedule_blocking(req.clone()).result {
            Err(ServiceError::Internal(msg)) => assert!(msg.contains("invalid"), "{msg}"),
            other => panic!("expected Internal error, got {other:?}"),
        }
        assert_eq!(e.cache_stats().insertions, 0);
        assert_eq!(e.metrics().invalid_solutions, 1);
        // Batch members pass the same check.
        let batch = vec![
            ScheduleRequest {
                id: 2,
                ..req.clone()
            },
            ScheduleRequest {
                id: 3,
                little_cores: 3,
                ..req
            },
        ];
        let (tx, rx) = channel::unbounded();
        assert_eq!(e.try_submit_batch(batch, tx).expect("accepted"), 2);
        for _ in 0..2 {
            match rx.recv().expect("one response per member").result {
                Err(ServiceError::Internal(msg)) => assert!(msg.contains("invalid"), "{msg}"),
                other => panic!("expected Internal error, got {other:?}"),
            }
        }
        assert_eq!(e.cache_stats().insertions, 0);
        assert_eq!(e.metrics().invalid_solutions, 3);
    }

    /// A zero weight or a per-type weight total past `u64::MAX` is a
    /// typed `InvalidWeights` before any chain is built: no worker panic,
    /// and no prefix sum wraps into a wrong period. A valid member of the
    /// same batch is still answered.
    #[test]
    fn invalid_weights_get_a_typed_error_without_a_panic() {
        let e = engine(1);
        let spec = |weight_big, weight_little, replicable| TaskSpec {
            weight_big,
            weight_little,
            replicable,
        };
        let valid = ScheduleRequest::from_chain(
            1,
            &chain(),
            Resources::new(2, 2),
            Policy::Strategy("FERTAC".to_string()),
        );
        let zero = ScheduleRequest {
            id: 2,
            tasks: vec![spec(10, 25, false), spec(0, 90, true)],
            ..valid.clone()
        };
        let overflow = ScheduleRequest {
            id: 3,
            tasks: vec![
                spec(u64::MAX, u64::MAX, false),
                spec(u64::MAX, u64::MAX, true),
                spec(5, 12, false),
            ],
            policy: Policy::Strategy("HeRAD".to_string()),
            ..valid.clone()
        };
        for req in [zero.clone(), overflow] {
            assert_eq!(
                e.schedule_blocking(req).result,
                Err(ServiceError::InvalidWeights)
            );
        }
        let (tx, rx) = channel::unbounded();
        assert_eq!(e.try_submit_batch(vec![zero, valid], tx).unwrap(), 2);
        let first: ScheduleResponse = rx.recv().expect("zero-weight member answers");
        assert_eq!(
            (first.id, first.result),
            (2, Err(ServiceError::InvalidWeights))
        );
        let second = rx.recv().expect("valid member answers");
        assert_eq!(second.id, 1);
        assert!(second.result.is_ok());
        let m = e.metrics();
        assert_eq!((m.worker_panics, m.responses, m.errors), (0, 4, 3));
    }

    /// Two shapes of request that abort the process unless table sizes
    /// are bounded: HeRAD on 2²⁰ + 2²⁰ cores needs an 88 TB table, and two
    /// skewed pools that each fit would grow the chain's tier table to
    /// their union, 2·100 001² cells. A pool past the cell bound is a
    /// typed `PoolTooLarge` for HeRAD, `EnergyDP`, the two-choice
    /// strategies and both portfolios, the one-pass greedy strategies
    /// still answer it, the skewed pair costs two cold solves, and the
    /// worker keeps serving.
    #[test]
    fn huge_pools_are_answered_and_the_worker_keeps_serving() {
        let e = engine(1);
        let skewed = TaskChain::new(vec![Task::new(3, 5, true), Task::new(2, 4, false)]);
        let request = |id, big, little, policy: Policy, objective: &Objective| {
            ScheduleRequest::from_chain(id, &skewed, Resources::new(big, little), policy)
                .with_objective(objective.clone())
        };
        let strategy = |name: &str| Policy::Strategy(name.to_string());
        let period = Objective::Period;
        let energy = Objective::min_energy(Ratio::from_int(4));
        let huge = 1 << 20;
        for (policy, objective, too_large) in [
            (strategy("HeRAD"), &period, true),
            (Policy::Portfolio, &period, true),
            (strategy("2CATAC"), &period, true),
            (strategy("EnergyDP"), &energy, true),
            (strategy("Energy2CATAC"), &energy, true),
            (Policy::Portfolio, &energy, true),
            (strategy("FERTAC"), &period, false),
            (strategy("EnergyFERTAC"), &energy, false),
        ] {
            let what = format!("{policy:?} {objective:?}");
            let result = e
                .schedule_blocking(request(1, huge, huge, policy, objective))
                .result;
            if too_large {
                assert_eq!(result, Err(ServiceError::PoolTooLarge), "{what}");
            } else {
                assert!(result.is_ok(), "{what}: {result:?}");
            }
        }
        for (id, big, little) in [(2, 100_000, 0), (3, 0, 100_000)] {
            let result = e
                .schedule_blocking(request(id, big, little, strategy("HeRAD"), &period))
                .result;
            assert!(result.is_ok(), "({big}, {little}): {result:?}");
        }
        assert_eq!(e.tier_stats().cold_solves, 2);
        let normal = ScheduleRequest::from_chain(
            4,
            &chain(),
            Resources::new(2, 2),
            Policy::Strategy("HeRAD".to_string()),
        );
        assert!(e.schedule_blocking(normal).result.is_ok());
        assert_eq!(e.metrics().worker_panics, 0);
    }

    /// The tentpole acceptance shape at engine scope: a pool sweep over
    /// one chain pays exactly one cold HeRAD solve, every other pool is
    /// answered from the chain table — and the answers are bit-identical
    /// to a tier-less engine's.
    #[test]
    fn pool_sweep_pays_one_cold_solve_and_matches_a_tierless_engine() {
        let tiered = engine(1);
        let tierless = Engine::start(EngineConfig {
            workers: 1,
            racer_threads: 0,
            queue_depth: 64,
            cache_capacity: 0,
            chain_capacity: 0,
            ..EngineConfig::default()
        });
        let sweep: Vec<Resources> = (1..=3)
            .flat_map(|big| (0..=3).map(move |little| Resources::new(big, little)))
            .collect();
        for (id, &pool) in sweep.iter().enumerate() {
            let req = ScheduleRequest::from_chain(
                id as u64,
                &chain(),
                pool,
                Policy::Strategy("HeRAD".to_string()),
            );
            let a = tiered
                .schedule_blocking(req.clone())
                .result
                .expect("tiered");
            let b = tierless.schedule_blocking(req).result.expect("tierless");
            assert_eq!(a, b, "tier answer must be bit-identical at pool {pool:?}");
        }
        let stats = tiered.tier_stats();
        assert_eq!(stats.cold_solves, 1, "one chain = one cold solve");
        assert_eq!(stats.hits + stats.grows, sweep.len() as u64 - 1);
        assert!(stats.grows >= 1, "ascending sweep must grow in place");
        assert_eq!(stats.entries, 1);
        assert_eq!(tierless.tier_stats(), ChainTierStats::default());
        let status = tiered.status_json();
        assert!(status.contains("\"chain_cache\":{\"hits\":"));
        assert!(status.contains("\"cold_solves\":1"));
    }

    /// A batched pool sweep routes its tier-eligible members through the
    /// sequential solo path, so even one burst pays a single cold solve.
    #[test]
    fn batched_pool_sweep_still_pays_one_cold_solve() {
        let e = engine(2);
        let requests: Vec<ScheduleRequest> = (0..=3)
            .flat_map(|big| (0..=3).map(move |little| (big, little)))
            .filter(|&(big, little)| big + little > 0)
            .enumerate()
            .map(|(id, (big, little))| {
                ScheduleRequest::from_chain(
                    id as u64,
                    &chain(),
                    Resources::new(big, little),
                    Policy::Strategy("HeRAD".to_string()),
                )
            })
            .collect();
        let n = requests.len();
        let (tx, rx) = channel::unbounded();
        assert_eq!(e.try_submit_batch(requests, tx).unwrap(), n);
        let mut feasible = 0;
        for _ in 0..n {
            if rx.recv().expect("response").result.is_ok() {
                feasible += 1;
            }
        }
        assert!(feasible >= n - 4, "only tiny pools may be infeasible");
        let stats = e.tier_stats();
        assert_eq!(stats.cold_solves, 1, "one chain = one cold solve per batch");
        assert_eq!(stats.hits + stats.grows + stats.cold_solves, n as u64);
    }

    /// Warm restart through the engine config: an engine pointed at a
    /// snapshot written by a previous engine answers the whole sweep
    /// without a single cold solve; a corrupt snapshot is rejected with
    /// a counter and the engine starts with clean misses.
    #[test]
    fn snapshot_path_warm_restarts_and_rejects_corruption() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "amp-engine-snapshot-{}-{:?}.json",
            std::process::id(),
            thread::current().id()
        ));
        let sweep: Vec<Resources> = (1..=3)
            .flat_map(|big| (0..=2).map(move |little| Resources::new(big, little)))
            .collect();
        let first = engine(1);
        for (id, &pool) in sweep.iter().enumerate() {
            let req = ScheduleRequest::from_chain(
                id as u64,
                &chain(),
                pool,
                Policy::Strategy("HeRAD".to_string()),
            );
            assert!(first.schedule_blocking(req).result.is_ok());
        }
        assert_eq!(first.save_tier_snapshot(&path).expect("save"), 1);
        first.shutdown();

        let warm = Engine::start(EngineConfig {
            workers: 1,
            racer_threads: 0,
            queue_depth: 64,
            cache_capacity: 0,
            snapshot_path: Some(path.clone()),
            ..EngineConfig::default()
        });
        for (id, &pool) in sweep.iter().enumerate() {
            let req = ScheduleRequest::from_chain(
                100 + id as u64,
                &chain(),
                pool,
                Policy::Strategy("HeRAD".to_string()),
            );
            assert!(warm.schedule_blocking(req).result.is_ok());
        }
        let stats = warm.tier_stats();
        assert_eq!(stats.cold_solves, 0, "warm restart must not solve cold");
        assert_eq!(stats.hits, sweep.len() as u64);
        assert_eq!(stats.snapshot_loaded, 1);
        warm.shutdown();

        std::fs::write(&path, b"{\"kind\":\"amp-chain-tier-snapshot\",").unwrap();
        let sour = Engine::start(EngineConfig {
            workers: 1,
            racer_threads: 0,
            queue_depth: 8,
            snapshot_path: Some(path.clone()),
            ..EngineConfig::default()
        });
        let stats = sour.tier_stats();
        assert_eq!(stats.snapshot_loaded, 0);
        assert_eq!(stats.snapshot_rejected, 1);
        // Clean miss, not a crash: the request still gets answered.
        let req = ScheduleRequest::from_chain(
            1,
            &chain(),
            Resources::new(2, 2),
            Policy::Strategy("HeRAD".to_string()),
        );
        assert!(sour.schedule_blocking(req).result.is_ok());
        assert_eq!(sour.tier_stats().cold_solves, 1);
        std::fs::remove_file(&path).ok();
    }

    use crate::request::Objective;
    use amp_core::sched::{EnergyDp, EnergyScheduler};
    use amp_core::{MilliPower, Ratio};

    /// A generous target every strategy can meet on `chain()` × (2,2).
    fn energy_objective() -> Objective {
        Objective::min_energy(Ratio::from_int(200))
    }

    #[test]
    fn energy_request_reports_milliwatts_and_matches_the_dp() {
        let e = engine(2);
        let c = chain();
        let req = ScheduleRequest::from_chain(
            1,
            &c,
            Resources::new(2, 2),
            Policy::Strategy("EnergyDP".to_string()),
        )
        .with_objective(energy_objective());
        let out = e.schedule_blocking(req).result.expect("feasible");
        assert_eq!(out.strategy, "EnergyDP");
        assert!(out.complete);
        let target = Ratio::from_int(200);
        let solution = out.solution();
        assert!(solution.period(&c) <= target);
        // The served figure is the engine's own model evaluated on the
        // served stages — and the DP run inside the engine matches a
        // direct solve.
        let power = MilliPower::typical();
        let served = out.energy_milliwatts.expect("energy figure present");
        assert_eq!(
            served,
            power.solution_power_milliwatts(&c, &solution, target)
        );
        let (direct, _) = EnergyDp::new()
            .schedule_energy(&c, Resources::new(2, 2), &power, target)
            .expect("feasible");
        assert_eq!(power.solution_power_milliwatts(&c, &direct, target), served);
        let m = e.metrics();
        assert_eq!(m.energy_requests, 1);
        assert_eq!(m.energy_milliwatts_served, served);
        e.shutdown();
    }

    #[test]
    fn energy_portfolio_is_complete_and_minimal() {
        let e = engine(2);
        let c = chain();
        let req = ScheduleRequest::from_chain(1, &c, Resources::new(2, 2), Policy::Portfolio)
            .with_objective(energy_objective());
        let out = e.schedule_blocking(req).result.expect("feasible");
        assert!(out.complete, "the exact DP member must certify the run");
        let power = MilliPower::typical();
        let target = Ratio::from_int(200);
        let (_, optimal) = EnergyDp::new()
            .schedule_energy(&c, Resources::new(2, 2), &power, target)
            .expect("feasible");
        let served = power.solution_power_mw(&c, &out.solution(), target);
        assert_eq!(
            served, optimal,
            "portfolio winner must match the DP optimum"
        );
        e.shutdown();
    }

    /// The cache-correctness satellite: objective is key material, so a
    /// period entry never answers an energy request (or vice versa), and
    /// distinct energy targets get distinct entries — while repeats of
    /// the same energy request do hit.
    #[test]
    fn cache_separates_objectives_and_targets() {
        let e = engine(2);
        let c = chain();
        let res = Resources::new(2, 2);
        // Warm a period entry through the chain tier (HeRAD) and a
        // plain one (FERTAC).
        for (id, strat) in [(1, "HeRAD"), (2, "FERTAC")] {
            let req = ScheduleRequest::from_chain(id, &c, res, Policy::Strategy(strat.to_string()));
            assert!(!e.schedule_blocking(req).result.expect("ok").cache_hit);
        }
        // Same chain and pool under the energy objective: a fresh solve,
        // never the period entry.
        let energy_req =
            ScheduleRequest::from_chain(3, &c, res, Policy::Strategy("EnergyDP".to_string()))
                .with_objective(energy_objective());
        let first = e.schedule_blocking(energy_req.clone()).result.expect("ok");
        assert!(!first.cache_hit, "period entries must not answer energy");
        assert!(first.energy_milliwatts.is_some());
        // The repeat hits, and the hit still carries the energy figure.
        let second = e
            .schedule_blocking(ScheduleRequest {
                id: 4,
                ..energy_req.clone()
            })
            .result
            .expect("ok");
        assert!(second.cache_hit);
        assert_eq!(second.energy_milliwatts, first.energy_milliwatts);
        // A different target is a different instance.
        let relaxed = e
            .schedule_blocking(
                ScheduleRequest {
                    id: 5,
                    ..energy_req
                }
                .with_objective(Objective::min_energy(Ratio::from_int(400))),
            )
            .result
            .expect("ok");
        assert!(!relaxed.cache_hit, "targets must not share cache entries");
        // And the period path still hits its own entry, without energy.
        let period_again = e
            .schedule_blocking(ScheduleRequest::from_chain(
                6,
                &c,
                res,
                Policy::Strategy("FERTAC".to_string()),
            ))
            .result
            .expect("ok");
        assert!(period_again.cache_hit);
        assert_eq!(period_again.energy_milliwatts, None);
        e.shutdown();
    }

    #[test]
    fn energy_requests_reject_bad_targets_and_unknown_strategies() {
        let e = engine(2);
        let c = chain();
        // A malformed target is a typed InvalidObjective.
        for bad in ["nonsense", "inf", "0/1", "3/0"] {
            let req = ScheduleRequest::from_chain(
                1,
                &c,
                Resources::new(2, 2),
                Policy::Strategy("EnergyDP".to_string()),
            )
            .with_objective(Objective::MinEnergy {
                target_period: bad.to_string(),
            });
            assert_eq!(
                e.schedule_blocking(req).result.unwrap_err(),
                ServiceError::InvalidObjective,
                "target {bad:?}"
            );
        }
        // Period strategy names do not resolve under the energy
        // objective (and vice versa the registries stay separate).
        let req = ScheduleRequest::from_chain(
            2,
            &c,
            Resources::new(2, 2),
            Policy::Strategy("HeRAD".to_string()),
        )
        .with_objective(energy_objective());
        assert_eq!(
            e.schedule_blocking(req).result.unwrap_err(),
            ServiceError::UnknownStrategy {
                name: "HeRAD".to_string()
            }
        );
        // An unmeetable target is Infeasible, not an internal error.
        let req = ScheduleRequest::from_chain(
            3,
            &c,
            Resources::new(2, 2),
            Policy::Strategy("EnergyDP".to_string()),
        )
        .with_objective(Objective::min_energy(Ratio::new(1, 1000)));
        assert_eq!(
            e.schedule_blocking(req).result.unwrap_err(),
            ServiceError::Infeasible
        );
        e.shutdown();
    }

    /// Batched energy members route through the sequential path and
    /// answer exactly once each, alongside period members.
    #[test]
    fn batches_mix_energy_and_period_members() {
        let e = engine(2);
        let c = chain();
        let res = Resources::new(2, 2);
        let requests = vec![
            ScheduleRequest::from_chain(0, &c, res, Policy::Strategy("FERTAC".to_string())),
            ScheduleRequest::from_chain(1, &c, res, Policy::Strategy("EnergyDP".to_string()))
                .with_objective(energy_objective()),
            ScheduleRequest::from_chain(2, &c, res, Policy::Portfolio)
                .with_objective(energy_objective()),
            ScheduleRequest::from_chain(3, &c, res, Policy::Strategy("HeRAD".to_string())),
        ];
        let (tx, rx) = channel::unbounded();
        assert_eq!(e.try_submit_batch(requests, tx).expect("accepted"), 4);
        let mut outcomes: Vec<(u64, ScheduleOutcome)> = (0..4)
            .map(|_| {
                let resp = rx.recv_timeout(std::time::Duration::from_secs(30)).unwrap();
                (resp.id, resp.result.expect("feasible"))
            })
            .collect();
        outcomes.sort_by_key(|(id, _)| *id);
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes[1].1.energy_milliwatts.is_some());
        assert!(outcomes[2].1.energy_milliwatts.is_some());
        assert_eq!(outcomes[0].1.energy_milliwatts, None);
        assert_eq!(outcomes[3].1.energy_milliwatts, None);
        e.shutdown();
    }
}
