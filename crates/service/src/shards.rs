//! Horizontal sharding of the scheduling engine: N independent
//! [`Engine`]s — each with its own bounded queue, worker pool, racer
//! pool, solution cache and chain tier — behind one router keyed by the
//! request's *pool-free* chain fingerprint.
//!
//! ## Why shard by chain fingerprint (and not round-robin)
//!
//! The same chain always lands on the same engine, so each engine's
//! caches hold a *disjoint* slice of the chain space: no entry is
//! duplicated across shards, the fleet-wide cache capacity is the sum of
//! the parts, and a repeated instance hits the cache no matter which
//! connection (or which batch) carries it. Round-robin would smear
//! identical instances across every shard and divide the effective cache
//! capacity by the shard count. The cost is that a skewed workload can
//! load shards unevenly; the bounded per-shard queues turn that skew
//! into typed [`ServiceError::Overloaded`] backpressure instead of
//! unbounded latency, which is what a wire front end wants to relay.
//!
//! The routing key is the pool-free chain fingerprint
//! ([`CacheKey::chain_fingerprint`](crate::CacheKey::chain_fingerprint),
//! hashed in place from the request) — weights, replicability and
//! policy, but *not* the resource pool — so every pool shape of one
//! chain shares a shard. That is what makes the solve-once chain tier
//! work fleet-wide: a pool sweep over one chain grows a single HeRAD
//! table on a single engine instead of paying one cold solve per shard. The exact-fingerprint LRU still keys on the full
//! instance (pool included) inside each engine, so distinct pools of one
//! chain occupy distinct LRU entries on the same shard.
//!
//! The router remixes the fingerprint with the 64-bit Fibonacci
//! multiplier and routes on the *high* bits. Each engine's internal
//! cache picks its lock shard with `fingerprint % cache_shards` (low
//! bits); if the router used the low bits too, every engine would see
//! only fingerprints congruent to its own index and populate a
//! correlated subset of its cache shards. The remix makes the two
//! reductions statistically independent.
//!
//! Shutdown mirrors the single engine, shared-owner safe: `close` stops
//! admissions on every shard through `&self`, `drain` additionally
//! waits until every accepted request is answered.

use std::path::Path;
use std::sync::Arc;

use crossbeam::channel::Sender;

use crate::cache::{self, CacheStats};
use crate::chain_tier::{self, ChainTierStats, SnapshotError};
use crate::engine::{chain_cache_json, Engine, EngineConfig};
use crate::error::ServiceError;
use crate::metrics::MetricsSnapshot;
use crate::request::{ScheduleOutcome, ScheduleRequest, ScheduleResponse};

/// N independent engines behind a fingerprint router.
pub struct EngineShards {
    shards: Vec<Engine>,
}

/// Result of a sharded batch submission: the batch is split per shard
/// and each sub-batch is all-or-nothing, so part of a burst can be
/// accepted while an overloaded shard rejects its share. Rejected
/// members come back to the caller, which owes each one a typed error
/// (the engine will send no response for them).
pub struct BatchSubmission {
    /// Members accepted; each will receive exactly one response.
    pub accepted: usize,
    /// Members not enqueued, with the error their shard returned.
    pub rejected: Vec<(ScheduleRequest, ServiceError)>,
}

impl EngineShards {
    /// Starts `shards` engines (at least 1), each built from its own
    /// clone of `per_shard`. The config is *per shard*: total workers,
    /// queue depth and cache capacity scale with the shard count, which
    /// is the point — shards exist to multiply otherwise-serialized
    /// resources, not to split a fixed budget.
    #[must_use]
    pub fn start(shards: usize, per_shard: &EngineConfig) -> Self {
        let n = shards.max(1);
        EngineShards {
            shards: (0..n).map(|_| Engine::start(per_shard.clone())).collect(),
        }
    }

    /// Number of shards (≥ 1).
    #[must_use]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard a request routes to: stable across the fleet's
    /// lifetime and *pool-free*, so every resource pool of one chain
    /// shares an engine (and its solve-once chain table — see module
    /// docs).
    #[must_use]
    pub fn shard_of(&self, request: &ScheduleRequest) -> usize {
        let fp = cache::chain_fingerprint(request);
        // Fibonacci remix, routed on the high bits — decorrelated from
        // the cache's low-bit `% cache_shards` reduction (see module
        // docs).
        let mixed = fp.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((mixed >> 32) % self.shards.len() as u64) as usize
    }

    /// Direct access to one shard's engine (status endpoints, tests).
    #[must_use]
    pub fn shard(&self, idx: usize) -> &Engine {
        &self.shards[idx]
    }

    /// Answers `request` from its shard's exact LRU, routed like a
    /// submission. Same contract as [`Engine::answer_from_cache`]: `None`
    /// counts nothing, and the request then takes the queue.
    #[must_use]
    pub fn answer_from_cache(&self, request: &ScheduleRequest) -> Option<Arc<ScheduleOutcome>> {
        self.shards[self.shard_of(request)].answer_from_cache(request)
    }

    /// Non-blocking submission, routed by fingerprint. Same contract as
    /// [`Engine::try_submit`].
    pub fn try_submit(
        &self,
        request: ScheduleRequest,
        reply: Sender<ScheduleResponse>,
    ) -> Result<(), ServiceError> {
        let shard = self.shard_of(&request);
        self.shards[shard].try_submit(request, reply)
    }

    /// Convenience for synchronous callers: routes and waits for the
    /// single response. Same contract as [`Engine::schedule_blocking`].
    #[must_use]
    pub fn schedule_blocking(&self, request: ScheduleRequest) -> ScheduleResponse {
        let shard = self.shard_of(&request);
        self.shards[shard].schedule_blocking(request)
    }

    /// Splits a pipelined burst by shard and hands each shard its
    /// sub-batch as one queue slot. Accepted members get exactly one
    /// response each on `reply` (any order, match by id); rejected
    /// members are returned so the caller can answer them with typed
    /// errors.
    pub fn try_submit_batch(
        &self,
        requests: Vec<ScheduleRequest>,
        reply: &Sender<ScheduleResponse>,
    ) -> BatchSubmission {
        let mut buckets: Vec<Vec<ScheduleRequest>> = Vec::new();
        buckets.resize_with(self.shards.len(), Vec::new);
        for request in requests {
            let shard = self.shard_of(&request);
            buckets[shard].push(request);
        }
        let mut out = BatchSubmission {
            accepted: 0,
            rejected: Vec::new(),
        };
        for (engine, bucket) in self.shards.iter().zip(buckets) {
            if bucket.is_empty() {
                continue;
            }
            // All-or-nothing per shard: on rejection the engine has
            // enqueued nothing and every member travels back, so each
            // one is owed a caller-side typed error.
            match engine.try_submit_batch(bucket, reply.clone()) {
                Ok(accepted) => out.accepted += accepted,
                Err(bounced) => {
                    let error = bounced.error;
                    out.rejected.extend(
                        bounced
                            .requests
                            .into_iter()
                            .map(|request| (request, error.clone())),
                    );
                }
            }
        }
        out
    }

    /// Aggregated point-in-time metrics across all shards.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut iter = self.shards.iter();
        let mut total = iter.next().expect("at least one shard").metrics();
        for engine in iter {
            total.absorb(&engine.metrics());
        }
        total
    }

    /// Per-shard metrics, in shard order.
    #[must_use]
    pub fn per_shard_metrics(&self) -> Vec<MetricsSnapshot> {
        self.shards.iter().map(Engine::metrics).collect()
    }

    /// Aggregated cache counters across all shards.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats {
            hits: 0,
            misses: 0,
            evictions: 0,
            insertions: 0,
            entries: 0,
            capacity: 0,
        };
        for engine in &self.shards {
            let s = engine.cache_stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.insertions += s.insertions;
            total.entries += s.entries;
            total.capacity += s.capacity;
        }
        total
    }

    /// Per-shard cache counters, in shard order.
    #[must_use]
    pub fn per_shard_cache_stats(&self) -> Vec<CacheStats> {
        self.shards.iter().map(Engine::cache_stats).collect()
    }

    /// Aggregated chain-tier counters across all shards.
    #[must_use]
    pub fn tier_stats(&self) -> ChainTierStats {
        let mut total = ChainTierStats::default();
        for engine in &self.shards {
            let s = engine.tier_stats();
            total.hits += s.hits;
            total.grows += s.grows;
            total.cold_solves += s.cold_solves;
            total.repairs += s.repairs;
            total.evictions += s.evictions;
            total.entries += s.entries;
            total.capacity += s.capacity;
            total.snapshot_loaded += s.snapshot_loaded;
            total.snapshot_rejected += s.snapshot_rejected;
        }
        total
    }

    /// Per-shard chain-tier counters, in shard order.
    #[must_use]
    pub fn per_shard_tier_stats(&self) -> Vec<ChainTierStats> {
        self.shards.iter().map(Engine::tier_stats).collect()
    }

    /// Writes one merged snapshot of every shard's chain tier to `path`
    /// (atomic temp-file-then-rename, same format as
    /// [`Engine::save_tier_snapshot`]). Chains are disjoint across
    /// shards — the router keys on the chain — so the merge is a plain
    /// concatenation, re-sorted for byte-stable output. Returns how many
    /// tables were written.
    pub fn save_tier_snapshot(&self, path: &Path) -> Result<usize, SnapshotError> {
        let mut tables: Vec<(String, amp_core::json::Json)> = self
            .shards
            .iter()
            .flat_map(|engine| engine.tier().snapshot_tables())
            .map(|doc| (doc.render_compact(), doc))
            .collect();
        tables.sort_by(|a, b| a.0.cmp(&b.0));
        tables.dedup_by(|a, b| a.0 == b.0);
        chain_tier::write_snapshot_file(path, tables.into_iter().map(|(_, d)| d).collect(), |_| {})
    }

    /// Restores every shard's chain tier from one merged snapshot file.
    /// Each engine loads the full document and installs every table —
    /// simpler than re-deriving the router's assignment, and the extra
    /// copies are bounded by `chain_capacity` per shard (the shard that
    /// owns a chain refreshes its copy on first touch; the others age
    /// out via LRU eviction). All-or-nothing per shard; the first error
    /// is returned. Returns the total number of installs.
    pub fn load_tier_snapshot(&self, path: &Path) -> Result<usize, SnapshotError> {
        let mut loaded = 0;
        for engine in &self.shards {
            loaded += engine.load_tier_snapshot(path)?;
        }
        Ok(loaded)
    }

    /// Fleet status as one JSON object: shard count, aggregate service
    /// metrics, exact-cache and chain-tier counters, plus each shard's
    /// own status. Like [`Engine::status_json`], hit rates are integer
    /// per-mille (`hit_rate_milli`) because the canonical JSON format
    /// has no floats.
    #[must_use]
    pub fn status_json(&self) -> String {
        let agg = self.metrics().to_json();
        let cache = self.cache_stats();
        let per_shard: Vec<String> = self.shards.iter().map(Engine::status_json).collect();
        format!(
            "{{\"shards\":{},\"service\":{agg},\"cache\":{{\"hits\":{},\"misses\":{},\
             \"evictions\":{},\"insertions\":{},\"entries\":{},\"capacity\":{},\
             \"hit_rate_milli\":{}}},\"chain_cache\":{},\"per_shard\":[{}]}}",
            self.shards.len(),
            cache.hits,
            cache.misses,
            cache.evictions,
            cache.insertions,
            cache.entries,
            cache.capacity,
            (cache.hit_rate() * 1000.0).round() as u64,
            chain_cache_json(&self.tier_stats()),
            per_shard.join(","),
        )
    }

    /// Stops admissions on every shard through `&self`; accepted
    /// requests still drain. Idempotent.
    pub fn close(&self) {
        for engine in &self.shards {
            engine.close();
        }
    }

    /// True once every shard is closed.
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.shards.iter().all(Engine::is_closed)
    }

    /// Closes every shard, then waits until each has answered all of
    /// its accepted requests and joined its workers. Idempotent,
    /// shared-owner safe.
    pub fn drain(&self) {
        // Close everything first so no shard keeps admitting while an
        // earlier one drains.
        self.close();
        for engine in &self.shards {
            engine.drain();
        }
    }

    /// Full graceful shutdown by value; dropping does the same.
    pub fn shutdown(self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Policy;
    use amp_core::{Resources, Task, TaskChain};
    use crossbeam::channel;

    /// Distinct chains: the task count and weights vary per id, so the
    /// fingerprints spread over the shards.
    fn request(id: u64, policy: Policy) -> ScheduleRequest {
        let chain = TaskChain::new(
            (0..3 + id % 4)
                .map(|i| Task::new(1 + (id + i) % 7, 2 + (id * 3 + i) % 9, i % 2 == 0))
                .collect(),
        );
        ScheduleRequest::from_chain(id, &chain, Resources::new(1 + id % 3, 2), policy)
    }

    fn fleet(shards: usize, workers: usize, queue_depth: usize) -> EngineShards {
        EngineShards::start(
            shards,
            &EngineConfig {
                workers,
                racer_threads: 0,
                queue_depth,
                cache_capacity: 64,
                cache_shards: 4,
                ..EngineConfig::default()
            },
        )
    }

    #[test]
    fn routing_is_stable_and_uses_every_shard() {
        let fleet = fleet(4, 1, 64);
        let mut seen = [false; 4];
        for id in 0..64 {
            let req = request(id, Policy::Strategy("FERTAC".to_string()));
            let shard = fleet.shard_of(&req);
            assert_eq!(shard, fleet.shard_of(&req), "routing must be stable");
            seen[shard] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 distinct instances: {seen:?}");
        // The id is not key material: the same instance under a
        // different id routes identically.
        let a = request(7, Policy::Portfolio);
        let b = ScheduleRequest {
            id: 9999,
            ..a.clone()
        };
        assert_eq!(fleet.shard_of(&a), fleet.shard_of(&b));
    }

    #[test]
    fn routing_ignores_the_pool_so_every_pool_shape_shares_a_shard() {
        let fleet = fleet(4, 1, 64);
        for id in 0..32 {
            let base = request(id, Policy::Strategy("HeRAD".to_string()));
            let home = fleet.shard_of(&base);
            for big in 0..5 {
                for little in 0..5 {
                    let req = ScheduleRequest {
                        big_cores: big,
                        little_cores: little,
                        ..base.clone()
                    };
                    assert_eq!(
                        fleet.shard_of(&req),
                        home,
                        "pool ({big},{little}) must not move chain {id} off its shard"
                    );
                }
            }
        }
    }

    #[test]
    fn fleet_pool_sweep_pays_one_cold_solve_and_snapshots_round_trip() {
        // One chain under many pool shapes: the pool-free router keeps
        // every request on one shard, whose chain tier answers all but
        // the first by extraction or in-place growth.
        let fleet = fleet(4, 1, 64);
        let chain = TaskChain::new(vec![
            Task::new(10, 25, false),
            Task::new(40, 90, true),
            Task::new(5, 12, false),
        ]);
        let sweep: Vec<Resources> = (1..=3)
            .flat_map(|big| (0..=3).map(move |little| Resources::new(big, little)))
            .collect();
        for (id, &pool) in sweep.iter().enumerate() {
            let req = ScheduleRequest::from_chain(
                id as u64,
                &chain,
                pool,
                Policy::Strategy("HeRAD".to_string()),
            );
            let response = fleet.schedule_blocking(req);
            assert!(response.result.is_ok(), "pool {pool:?} must be feasible");
        }
        let stats = fleet.tier_stats();
        assert_eq!(
            stats.cold_solves, 1,
            "one chain = one cold solve fleet-wide"
        );
        assert_eq!(stats.hits + stats.grows, sweep.len() as u64 - 1);
        let status = fleet.status_json();
        assert!(status.contains("\"chain_cache\":{\"hits\":"));

        // Snapshot the fleet, restore a fresh one from it, replay the
        // sweep: a warm restart pays zero cold solves.
        let path = std::env::temp_dir().join(format!(
            "amp-fleet-snapshot-{}-{:?}.json",
            std::process::id(),
            std::thread::current().id()
        ));
        let written = fleet.save_tier_snapshot(&path).expect("save snapshot");
        assert_eq!(written, 1, "one chain = one table in the merged snapshot");
        fleet.shutdown();

        let warm = self::fleet(4, 1, 64);
        let loaded = warm.load_tier_snapshot(&path).expect("load snapshot");
        assert_eq!(loaded, 4, "each shard installs the full document");
        for (id, &pool) in sweep.iter().enumerate() {
            let req = ScheduleRequest::from_chain(
                1000 + id as u64,
                &chain,
                pool,
                Policy::Strategy("HeRAD".to_string()),
            );
            assert!(warm.schedule_blocking(req).result.is_ok());
        }
        let stats = warm.tier_stats();
        assert_eq!(stats.cold_solves, 0, "warm restart must never solve cold");
        assert_eq!(stats.hits, sweep.len() as u64);
        assert_eq!(stats.snapshot_loaded, 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sharded_batch_answers_every_member_and_caches_per_shard() {
        let fleet = fleet(4, 1, 64);
        let requests: Vec<ScheduleRequest> = (0..48)
            .map(|id| request(id, Policy::Strategy("HeRAD".to_string())))
            .collect();
        let (tx, rx) = channel::unbounded();
        let sub = fleet.try_submit_batch(requests.clone(), &tx);
        assert_eq!(sub.accepted, 48);
        assert!(sub.rejected.is_empty());
        let mut ids: Vec<u64> = (0..48).map(|_| rx.recv().expect("response").id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..48).collect::<Vec<_>>());
        assert!(rx.try_recv().is_err(), "no extra responses");
        // Same burst again: all answered from the per-shard caches.
        let (tx, rx) = channel::unbounded();
        let sub = fleet.try_submit_batch(requests, &tx);
        assert_eq!(sub.accepted, 48);
        for _ in 0..48 {
            assert!(rx.recv().expect("response").result.expect("ok").cache_hit);
        }
        let stats = fleet.cache_stats();
        assert_eq!(stats.hits, 48);
        assert_eq!(stats.insertions, 48);
        // Every shard holds its own disjoint slice.
        let per_shard = fleet.per_shard_cache_stats();
        assert_eq!(per_shard.iter().map(|s| s.entries).sum::<usize>(), 48);
        assert!(per_shard.iter().all(|s| s.entries > 0));
        let m = fleet.metrics();
        assert_eq!((m.requests, m.responses), (96, 96));
        let status = fleet.status_json();
        assert!(status.starts_with("{\"shards\":4,"));
        assert!(status.contains("\"per_shard\":["));
    }

    #[test]
    fn overloaded_shards_bounce_their_members_back() {
        // Zero workers, depth 1: each shard accepts exactly one batch
        // slot, then rejects wholesale.
        let fleet = fleet(2, 0, 1);
        let requests: Vec<ScheduleRequest> =
            (0..16).map(|id| request(id, Policy::Portfolio)).collect();
        let (tx, _rx) = channel::unbounded();
        let first = fleet.try_submit_batch(requests.clone(), &tx);
        assert_eq!(first.accepted, 16);
        let second = fleet.try_submit_batch(requests, &tx);
        assert_eq!(second.accepted, 0);
        assert_eq!(second.rejected.len(), 16);
        assert!(second
            .rejected
            .iter()
            .all(|(_, e)| *e == ServiceError::Overloaded));
        // After close, the bounce is typed as shutting down instead.
        fleet.close();
        assert!(fleet.is_closed());
        let third = fleet.try_submit_batch(vec![request(99, Policy::Portfolio)], &tx);
        assert_eq!(third.rejected.len(), 1);
        assert_eq!(third.rejected[0].1, ServiceError::ShuttingDown);
    }

    #[test]
    fn drain_answers_everything_accepted() {
        let fleet = fleet(4, 1, 64);
        let (tx, rx) = channel::unbounded();
        let requests: Vec<ScheduleRequest> = (0..32)
            .map(|id| request(id, Policy::Strategy("2CATAC".to_string())))
            .collect();
        let sub = fleet.try_submit_batch(requests, &tx);
        assert_eq!(sub.accepted, 32);
        fleet.drain();
        drop(tx);
        let mut ids: Vec<u64> = rx.iter().map(|r| r.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..32).collect::<Vec<_>>());
    }
}
