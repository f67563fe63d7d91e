//! Fault-injection (chaos) checks for the amp-service engine.
//!
//! A [`ChaosScheduler`] wraps every strategy the engine runs — through
//! the same [`EngineConfig::fault_wrap`] seam the service's own
//! panic-safety tests use — and injects panics, delays and invalid
//! solutions on a **deterministic schedule**: the fault decision is a
//! pure FNV-1a hash of the chaos seed, the strategy name and the full
//! instance content (weights, replicability, pool). The same seed and
//! instance stream therefore always injects the same faults, so a CI
//! failure reproduces locally by rerunning the same seeds.
//!
//! [`ChaosHarness::check`] drives one instance through the chaotic
//! engine and asserts the robustness invariants the engine documents:
//!
//! * exactly one response per accepted request, errors limited to the
//!   typed `INTERNAL` (caught panic) and `INFEASIBLE` codes;
//! * every served solution validates against the chain and the pool —
//!   injected invalid solutions never escape;
//! * the cache never stores incomplete or invalid outcomes: a replay is
//!   a cache hit exactly when the first run was complete, and a cached
//!   replay is bit-identical;
//! * a batch — the only way the wire submits — of FERTAC, 2CATAC and
//!   both OTACs at the instance's pool and at one smaller pool gets
//!   exactly one reply per member, each a sound solution for its pool or
//!   an allowed error (`CHAOS_BATCH_*`);
//! * [`ChaosHarness::final_accounting`] — the metrics account for every
//!   injected fault (panics and invalid solutions each reconcile
//!   exactly), and the worker pool is back at its configured size.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::checks::Mismatch;
use crate::instance::Instance;
use amp_core::sched::{SchedScratch, Scheduler};
use amp_core::{CoreType, Resources, Solution, Stage, TaskChain};
use amp_service::{
    solution_is_sound, Engine, EngineConfig, Policy, ScheduleRequest, ServiceError, StrategyWrap,
};
use crossbeam::channel;

/// The strategies [`ChaosHarness::check`] sends as one batch.
const BATCH_STRATEGIES: [&str; 4] = ["FERTAC", "2CATAC", "OTAC (B)", "OTAC (L)"];

/// How long a batch member's reply may take before it counts as lost.
const BATCH_REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Injection rates and determinism seed for one chaos run.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Salt for the fault hash: same seed ⇒ same injection schedule.
    pub seed: u64,
    /// Per-mille of compute calls that panic.
    pub panic_per_mille: u64,
    /// Per-mille of compute calls delayed by [`ChaosConfig::delay`].
    pub delay_per_mille: u64,
    /// Per-mille of compute calls returning an invalid solution.
    pub invalid_per_mille: u64,
    /// Length of an injected delay.
    pub delay: Duration,
    /// Engine worker threads for the chaotic engine.
    pub workers: usize,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xC4A05,
            panic_per_mille: 60,
            delay_per_mille: 20,
            invalid_per_mille: 60,
            delay: Duration::from_micros(500),
            workers: 2,
        }
    }
}

/// How many faults of each kind actually fired, counted at the
/// injection site (inside the wrapped scheduler, before the fault takes
/// effect) so the tally is exact even when a panic unwinds the caller.
#[derive(Debug, Default)]
pub struct ChaosCounters {
    /// Panics injected (and immediately raised).
    pub panics: AtomicU64,
    /// Delays injected.
    pub delays: AtomicU64,
    /// Invalid solutions injected.
    pub invalids: AtomicU64,
}

/// A [`Scheduler`] wrapper that injects faults per the deterministic
/// schedule described in the module docs.
pub struct ChaosScheduler {
    inner: Box<dyn Scheduler>,
    cfg: ChaosConfig,
    counters: Arc<ChaosCounters>,
}

/// FNV-1a over the chaos seed, the strategy name and the instance
/// content. Pure: the same inputs always roll the same fault.
fn fault_roll(cfg: &ChaosConfig, name: &str, chain: &TaskChain, resources: Resources) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(PRIME);
    };
    for byte in cfg.seed.to_le_bytes() {
        eat(byte);
    }
    for byte in name.bytes() {
        eat(byte);
    }
    for task in chain.tasks() {
        for byte in task.weight_big.to_le_bytes() {
            eat(byte);
        }
        for byte in task.weight_little.to_le_bytes() {
            eat(byte);
        }
        eat(u8::from(task.replicable));
    }
    for byte in resources.big.to_le_bytes() {
        eat(byte);
    }
    for byte in resources.little.to_le_bytes() {
        eat(byte);
    }
    h % 1000
}

impl Scheduler for ChaosScheduler {
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
        let roll = fault_roll(&self.cfg, self.inner.name(), chain, resources);
        let panic_edge = self.cfg.panic_per_mille;
        let delay_edge = panic_edge + self.cfg.delay_per_mille;
        let invalid_edge = delay_edge + self.cfg.invalid_per_mille;
        if roll < panic_edge {
            self.counters.panics.fetch_add(1, Ordering::Relaxed);
            panic!(
                "chaos: injected panic in {} (roll {roll} < {panic_edge})",
                self.inner.name()
            );
        }
        if roll < delay_edge {
            self.counters.delays.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.cfg.delay);
        } else if roll < invalid_edge {
            self.counters.invalids.fetch_add(1, Ordering::Relaxed);
            // `end == chain.len()` is structurally invalid (InvalidEnd);
            // `Solution::validate` rejects it before anything derives
            // period or core usage from the out-of-range stage.
            *out = Solution::new(vec![Stage::new(0, chain.len(), 1, CoreType::Big)]);
            return true;
        }
        self.inner.schedule_into(chain, resources, scratch, out)
    }
}

/// Builds the [`EngineConfig::fault_wrap`] closure installing a
/// [`ChaosScheduler`] around every strategy the engine runs.
#[must_use]
pub fn chaos_wrap(cfg: ChaosConfig, counters: Arc<ChaosCounters>) -> StrategyWrap {
    Arc::new(move |inner: Box<dyn Scheduler>| -> Box<dyn Scheduler> {
        Box::new(ChaosScheduler {
            inner,
            cfg,
            counters: Arc::clone(&counters),
        })
    })
}

/// A chaotic engine plus the ledger of faults injected into it.
pub struct ChaosHarness {
    engine: Engine,
    counters: Arc<ChaosCounters>,
    cfg: ChaosConfig,
    next_id: AtomicU64,
}

/// Silences the default panic hook for *injected* panics only (their
/// message is `chaos:`-prefixed), so a 500-seed CI run doesn't print
/// hundreds of expected backtraces. Real panics keep the full report.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !message.starts_with("chaos:") {
                previous(info);
            }
        }));
    });
}

impl ChaosHarness {
    /// Starts an engine with chaos injection installed.
    #[must_use]
    pub fn new(cfg: ChaosConfig) -> Self {
        quiet_injected_panics();
        let counters = Arc::new(ChaosCounters::default());
        let engine = Engine::start(EngineConfig {
            workers: cfg.workers,
            racer_threads: cfg.workers,
            queue_depth: 256,
            cache_capacity: 1024,
            cache_shards: 4,
            fault_wrap: Some(chaos_wrap(cfg, Arc::clone(&counters))),
            ..EngineConfig::default()
        });
        ChaosHarness {
            engine,
            counters,
            cfg,
            next_id: AtomicU64::new(1),
        }
    }

    fn fresh_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Is `err` one of the codes the engine is allowed to emit under
    /// fault injection? `Internal` is a caught fault; the others are
    /// legitimate answers for degenerate generated instances (empty
    /// chains, zero-core pools, genuinely unschedulable shapes).
    fn error_allowed(err: &ServiceError) -> bool {
        matches!(
            err,
            ServiceError::Internal(_)
                | ServiceError::Infeasible
                | ServiceError::NoCores
                | ServiceError::EmptyChain
        )
    }

    /// Drives one instance through the chaotic engine and checks the
    /// per-request invariants. Mismatch codes are `CHAOS_*`.
    #[must_use]
    pub fn check(&self, inst: &Instance) -> Vec<Mismatch> {
        let mut out = Vec::new();
        let chain = inst.chain();
        let res = inst.resources();
        let mismatch = |code, detail| Mismatch {
            code,
            instance: inst.summary(),
            detail,
        };

        // First portfolio run: establishes what — if anything — the
        // cache may now hold for this fingerprint.
        let first_id = self.fresh_id();
        let first = self.engine.schedule_blocking(ScheduleRequest::from_chain(
            first_id,
            &chain,
            res,
            Policy::Portfolio,
        ));
        if first.id != first_id {
            out.push(mismatch(
                "CHAOS_WRONG_ID",
                format!("response id {} for request {first_id}", first.id),
            ));
            return out;
        }
        let first_complete = match &first.result {
            Ok(outcome) => {
                // Distinct seeds can generate identical instances, so
                // even a "first" request may legitimately hit the cache
                // — but anything served from the cache must have been
                // stored as complete.
                if outcome.cache_hit && !outcome.complete {
                    out.push(mismatch(
                        "CHAOS_INCOMPLETE_CACHED",
                        "cache served an outcome not marked complete".to_string(),
                    ));
                }
                if let Err(e) = outcome.solution().validate(&chain) {
                    out.push(mismatch(
                        "CHAOS_INVALID_SERVED",
                        format!("served solution failed validation: {e:?}"),
                    ));
                }
                Some(outcome.complete)
            }
            Err(e) if Self::error_allowed(e) => None,
            Err(e) => {
                out.push(mismatch(
                    "CHAOS_BAD_ERROR",
                    format!("unexpected error code {} under injection", e.code()),
                ));
                None
            }
        };

        // Replay of the identical instance: a hit iff the first run was
        // complete, and a hit must be bit-identical.
        let replay = self.engine.schedule_blocking(ScheduleRequest::from_chain(
            self.fresh_id(),
            &chain,
            res,
            Policy::Portfolio,
        ));
        match (&first.result, &replay.result) {
            (Ok(a), Ok(b)) => {
                if b.cache_hit != a.complete {
                    out.push(mismatch(
                        "CHAOS_CACHE_POLICY",
                        format!(
                            "first run complete={}, but replay cache_hit={} — only complete \
                             outcomes may be cached",
                            a.complete, b.cache_hit
                        ),
                    ));
                }
                if b.cache_hit
                    && (a.period != b.period || a.stages != b.stages || a.strategy != b.strategy)
                {
                    out.push(mismatch(
                        "CHAOS_REPLAY_DIVERGED",
                        format!(
                            "cached replay differs: {} @ {} vs {} @ {}",
                            a.strategy, a.period, b.strategy, b.period
                        ),
                    ));
                }
                if let Err(e) = b.solution().validate(&chain) {
                    out.push(mismatch(
                        "CHAOS_INVALID_SERVED",
                        format!("replayed solution failed validation: {e:?}"),
                    ));
                }
            }
            (Err(_), Ok(b)) => {
                // An error is never cached, so the replay recomputed;
                // it may genuinely succeed only if its own (identical)
                // injection schedule allows — which it cannot, because
                // the schedule is a pure function of the instance.
                out.push(mismatch(
                    "CHAOS_NONDETERMINISTIC",
                    format!(
                        "first run errored but replay succeeded ({} @ {}) — injection must be \
                         deterministic per instance",
                        b.strategy, b.period
                    ),
                ));
            }
            (_, Err(e)) if !Self::error_allowed(e) => {
                out.push(mismatch(
                    "CHAOS_BAD_ERROR",
                    format!("unexpected replay error code {}", e.code()),
                ));
            }
            _ => {}
        }
        // Silence the "unused" pattern when the first outcome was an
        // allowed error: nothing further to compare.
        let _ = first_complete;

        // A single-strategy request through the same chaotic engine:
        // either a validated solution or an allowed error.
        let single = self.engine.schedule_blocking(ScheduleRequest::from_chain(
            self.fresh_id(),
            &chain,
            res,
            Policy::Strategy("HeRAD".to_string()),
        ));
        match &single.result {
            Ok(outcome) => {
                if let Err(e) = outcome.solution().validate(&chain) {
                    out.push(mismatch(
                        "CHAOS_INVALID_SERVED",
                        format!("single-strategy solution failed validation: {e:?}"),
                    ));
                }
            }
            Err(e) if Self::error_allowed(e) => {}
            Err(e) => {
                out.push(mismatch(
                    "CHAOS_BAD_ERROR",
                    format!("unexpected single-strategy error code {}", e.code()),
                ));
            }
        }
        out.extend(self.check_batch(inst, &chain));
        out
    }

    /// Sends [`BATCH_STRATEGIES`] at the instance's pool and at one
    /// smaller pool as one batch and checks that each member id gets
    /// exactly one reply: a solution sound for its pool, or an allowed
    /// error.
    fn check_batch(&self, inst: &Instance, chain: &TaskChain) -> Vec<Mismatch> {
        let res = inst.resources();
        let smaller = if res.big > 0 {
            Resources::new(res.big - 1, res.little)
        } else {
            Resources::new(0, res.little.saturating_sub(1))
        };
        let members: Vec<ScheduleRequest> = [res, smaller]
            .into_iter()
            .flat_map(|pool| BATCH_STRATEGIES.map(|name| (pool, name)))
            .map(|(pool, name)| {
                let policy = Policy::Strategy(name.to_string());
                ScheduleRequest::from_chain(self.fresh_id(), chain, pool, policy)
            })
            .collect();
        let mut pending: BTreeMap<u64, Resources> =
            members.iter().map(|m| (m.id, m.resources())).collect();
        let (tx, rx) = channel::unbounded();
        if let Err(bounced) = self.engine.try_submit_batch(members, tx) {
            let detail = format!("batch refused with {}", bounced.error.code());
            return vec![Mismatch::new("CHAOS_BATCH_REFUSED", inst, detail)];
        }
        let mut out = Vec::new();
        // The worker drops the batch's reply sender once it is done with
        // the batch, so the loop ends on disconnection, not on a count.
        while let Ok(reply) = rx.recv_timeout(BATCH_REPLY_TIMEOUT) {
            let Some(pool) = pending.remove(&reply.id) else {
                let detail = format!("a second or unknown reply for id {}", reply.id);
                out.push(Mismatch::new("CHAOS_BATCH_DUPLICATE", inst, detail));
                continue;
            };
            match reply.result {
                Ok(outcome) if !solution_is_sound(&outcome.solution(), chain, pool) => {
                    let detail =
                        format!("{} served an unsound solution at {pool}", outcome.strategy);
                    out.push(Mismatch::new("CHAOS_BATCH_INVALID_SERVED", inst, detail));
                }
                Err(e) if !Self::error_allowed(&e) => {
                    let detail = format!("unexpected error code {} at {pool}", e.code());
                    out.push(Mismatch::new("CHAOS_BATCH_BAD_ERROR", inst, detail));
                }
                _ => {}
            }
        }
        for (id, pool) in pending {
            let detail = format!("member {id} at {pool} got no reply");
            out.push(Mismatch::new("CHAOS_BATCH_LOST", inst, detail));
        }
        out
    }

    /// End-of-run reconciliation: every injected fault must be visible
    /// in the engine's metrics, and the worker pool must be whole.
    #[must_use]
    pub fn final_accounting(&self) -> Vec<Mismatch> {
        let mut out = Vec::new();
        let m = self.engine.metrics();
        let injected_panics = self.counters.panics.load(Ordering::Relaxed);
        let injected_invalids = self.counters.invalids.load(Ordering::Relaxed);
        let mismatch = |code, detail| Mismatch {
            code,
            instance: "chaos final accounting".to_string(),
            detail,
        };
        if injected_panics != m.worker_panics + m.racer_panics {
            out.push(mismatch(
                "CHAOS_PANIC_ACCOUNTING",
                format!(
                    "{injected_panics} panics injected but metrics saw {} (worker) + {} (racer)",
                    m.worker_panics, m.racer_panics
                ),
            ));
        }
        if injected_invalids != m.racer_invalid + m.invalid_solutions {
            out.push(mismatch(
                "CHAOS_INVALID_ACCOUNTING",
                format!(
                    "{injected_invalids} invalid solutions injected but metrics saw {} (racer) \
                     + {} (engine vet)",
                    m.racer_invalid, m.invalid_solutions
                ),
            ));
        }
        if m.workers_alive != self.cfg.workers as u64 {
            out.push(mismatch(
                "CHAOS_POOL_SHRUNK",
                format!(
                    "{} workers alive after the run, configured {}",
                    m.workers_alive, self.cfg.workers
                ),
            ));
        }
        out
    }

    /// Total faults injected so far (panics, delays, invalids).
    #[must_use]
    pub fn injected(&self) -> (u64, u64, u64) {
        (
            self.counters.panics.load(Ordering::Relaxed),
            self.counters.delays.load(Ordering::Relaxed),
            self.counters.invalids.load(Ordering::Relaxed),
        )
    }

    /// Shuts the chaotic engine down (drains accepted requests).
    pub fn shutdown(self) {
        self.engine.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{instance_for_seed, GenConfig};

    #[test]
    fn fault_roll_is_deterministic_and_strategy_sensitive() {
        let cfg = ChaosConfig::default();
        let inst = instance_for_seed(7, &GenConfig::small());
        let chain = inst.chain();
        let res = inst.resources();
        assert_eq!(
            fault_roll(&cfg, "HeRAD", &chain, res),
            fault_roll(&cfg, "HeRAD", &chain, res)
        );
        // Different strategies on the same instance roll independently.
        let rolls: Vec<u64> = ["HeRAD", "FERTAC", "2CATAC"]
            .iter()
            .map(|name| fault_roll(&cfg, name, &chain, res))
            .collect();
        assert!(rolls.iter().all(|&r| r < 1000));
        let mut salted = cfg;
        salted.seed ^= 1;
        assert_ne!(
            fault_roll(&cfg, "HeRAD", &chain, res),
            fault_roll(&salted, "HeRAD", &chain, res),
            "seed must perturb the schedule"
        );
    }

    #[test]
    fn chaos_run_over_seeded_instances_upholds_all_invariants() {
        let harness = ChaosHarness::new(ChaosConfig::default());
        let gen = GenConfig::small();
        let mut mismatches = Vec::new();
        for seed in 0..120 {
            mismatches.extend(harness.check(&instance_for_seed(seed, &gen)));
        }
        mismatches.extend(harness.final_accounting());
        assert!(mismatches.is_empty(), "chaos mismatches: {mismatches:#?}");
        let (panics, _delays, invalids) = harness.injected();
        assert!(
            panics + invalids > 0,
            "the default rates must actually inject faults over 120 instances"
        );
        harness.shutdown();
    }

    #[test]
    fn zero_rates_mean_no_faults() {
        let cfg = ChaosConfig {
            panic_per_mille: 0,
            delay_per_mille: 0,
            invalid_per_mille: 0,
            ..ChaosConfig::default()
        };
        let harness = ChaosHarness::new(cfg);
        let gen = GenConfig::small();
        for seed in 0..20 {
            let mismatches = harness.check(&instance_for_seed(seed, &gen));
            assert!(mismatches.is_empty(), "{mismatches:#?}");
        }
        assert_eq!(harness.injected(), (0, 0, 0));
        assert!(harness.final_accounting().is_empty());
        harness.shutdown();
    }
}
