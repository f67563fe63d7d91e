//! Sharded LRU cache of scheduling solutions.
//!
//! Requests are keyed by their *canonical fingerprint*: the task weights
//! and replicability mask in chain order, the resource pool, and the
//! strategy policy. Two requests with the same fingerprint material are
//! the same scheduling instance, so the winning solution can be replayed
//! verbatim — the cache stores the full [`ScheduleOutcome`] and returns it
//! bit-identical (period string, decomposition, stages, core usage).
//!
//! The cache is sharded to keep lock contention off the worker-pool hot
//! path: a 64-bit FNV-1a fingerprint picks the shard, and within a shard a
//! `HashMap` keyed by the *full* key material (not the fingerprint) makes
//! lookups collision-safe. Eviction is least-recently-used per shard,
//! tracked with monotonic access stamps.
//!
//! Lookups take the key material *borrowed*: a [`ScheduleRequest`] or a
//! [`CacheKey`] viewed as `&dyn KeyMaterial`, hashed and compared exactly
//! as the owned key is, so a probe clones nothing. Outcomes are stored
//! behind an [`Arc`]: a hit hands out a reference-count bump, and the
//! caller renders or copies it after the shard lock is released.
//!
//! Only *complete* outcomes are cached: a portfolio result truncated by a
//! deadline may be improvable, and caching it would let one slow request
//! poison every later identical request (see
//! [`Engine`](crate::engine::Engine)).

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::request::{Objective, Policy, ScheduleOutcome, ScheduleRequest, TaskSpec};

/// Canonical key material of a scheduling instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheKey {
    /// Task weights and replicability mask, in chain order.
    pub tasks: Vec<TaskSpec>,
    /// Big cores in the pool.
    pub big_cores: u64,
    /// Little cores in the pool.
    pub little_cores: u64,
    /// Strategy policy (distinct policies may produce distinct winners).
    pub policy: Policy,
    /// Optimization objective. A period-optimal entry must never answer
    /// an energy request (or vice versa), so the objective — including
    /// the exact energy target — is full key material.
    pub objective: Objective,
}

impl CacheKey {
    /// Extracts the key material from a request. The request `id` and
    /// deadline are deliberately *not* part of the key: they do not change
    /// what the best complete answer is.
    #[must_use]
    pub fn for_request(req: &ScheduleRequest) -> Self {
        CacheKey {
            tasks: req.tasks.clone(),
            big_cores: req.big_cores,
            little_cores: req.little_cores,
            policy: req.policy.clone(),
            objective: req.objective.clone(),
        }
    }

    /// 64-bit FNV-1a fingerprint over the canonical byte encoding of the
    /// full key (chain, pool and policy). Equality always re-checks the
    /// full key, so fingerprint collisions cost a probe, never a wrong
    /// answer.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        fingerprint(self)
    }

    /// Pool-free sibling of [`CacheKey::fingerprint`]: hashes the chain
    /// and the policy but *not* the resource pool. The shard router keys
    /// on this one, so every pool shape of one chain lands on the same
    /// shard — which is what lets that shard's chain tier solve the chain
    /// once and answer the whole fleet's pool sweep by extraction.
    #[must_use]
    pub fn chain_fingerprint(&self) -> u64 {
        chain_fingerprint(self)
    }
}

/// The key material of a scheduling instance, read in place: what a
/// [`CacheKey`] owns, borrowed from whatever holds it. A lookup through
/// `&dyn KeyMaterial` hashes and compares exactly as the owned key does
/// (the owned key's `Hash` *is* this view's), so a [`ScheduleRequest`]
/// probes the cache without cloning its chain, policy or objective.
pub trait KeyMaterial {
    /// Task weights and replicability mask, in chain order.
    fn tasks(&self) -> &[TaskSpec];
    /// Big and little cores in the pool.
    fn pool(&self) -> (u64, u64);
    /// Strategy policy.
    fn policy(&self) -> &Policy;
    /// Optimization objective.
    fn objective(&self) -> &Objective;
}

impl KeyMaterial for CacheKey {
    fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }
    fn pool(&self) -> (u64, u64) {
        (self.big_cores, self.little_cores)
    }
    fn policy(&self) -> &Policy {
        &self.policy
    }
    fn objective(&self) -> &Objective {
        &self.objective
    }
}

impl KeyMaterial for ScheduleRequest {
    fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }
    fn pool(&self) -> (u64, u64) {
        (self.big_cores, self.little_cores)
    }
    fn policy(&self) -> &Policy {
        &self.policy
    }
    fn objective(&self) -> &Objective {
        &self.objective
    }
}

impl Hash for dyn KeyMaterial + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.tasks().hash(state);
        self.pool().hash(state);
        self.policy().hash(state);
        self.objective().hash(state);
    }
}

impl PartialEq for dyn KeyMaterial + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.tasks() == other.tasks()
            && self.pool() == other.pool()
            && self.policy() == other.policy()
            && self.objective() == other.objective()
    }
}

impl Eq for dyn KeyMaterial + '_ {}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn KeyMaterial).hash(state);
    }
}

impl<'a> Borrow<dyn KeyMaterial + 'a> for CacheKey {
    fn borrow(&self) -> &(dyn KeyMaterial + 'a) {
        self
    }
}

/// [`CacheKey::fingerprint`] of borrowed key material.
#[must_use]
pub(crate) fn fingerprint(key: &(impl KeyMaterial + ?Sized)) -> u64 {
    fnv(key, true)
}

/// [`CacheKey::chain_fingerprint`] of borrowed key material.
#[must_use]
pub(crate) fn chain_fingerprint(key: &(impl KeyMaterial + ?Sized)) -> u64 {
    fnv(key, false)
}

fn fnv(key: &(impl KeyMaterial + ?Sized), include_pool: bool) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    let tasks = key.tasks();
    eat(&(tasks.len() as u64).to_le_bytes());
    for t in tasks {
        eat(&t.weight_big.to_le_bytes());
        eat(&t.weight_little.to_le_bytes());
        eat(&[u8::from(t.replicable)]);
    }
    if include_pool {
        let (big, little) = key.pool();
        eat(&big.to_le_bytes());
        eat(&little.to_le_bytes());
    }
    match key.policy() {
        Policy::Portfolio => eat(&[0]),
        Policy::Strategy(name) => {
            eat(&[1]);
            eat(name.as_bytes());
        }
    }
    // The default period objective eats no bytes, keeping every
    // pre-energy fingerprint (and thus shard routing and snapshots)
    // exactly as it was; the energy objective appends a tag plus its
    // canonical target string. Full-key equality still separates the
    // objectives even if the fingerprints were ever to collide.
    if let Objective::MinEnergy { target_period } = key.objective() {
        eat(&[2]);
        eat(target_period.as_bytes());
    }
    h
}

struct Shard {
    /// Full-key map; the value carries the LRU stamp of its last access
    /// and the shared outcome.
    entries: HashMap<CacheKey, (u64, Arc<ScheduleOutcome>)>,
    /// Monotonic per-shard access counter feeding the LRU stamps.
    clock: u64,
}

/// Point-in-time counters of a [`SolutionCache`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned a cached outcome.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries displaced to make room.
    pub evictions: u64,
    /// Successful inserts (including overwrites of an existing key).
    pub insertions: u64,
    /// Entries currently resident, across all shards.
    pub entries: usize,
    /// Maximum resident entries (shards × per-shard capacity).
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of lookups that hit, in `[0, 1]`; 0 when no lookups.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A sharded LRU mapping scheduling instances to their winning outcomes.
pub struct SolutionCache {
    shards: Vec<Mutex<Shard>>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
}

impl SolutionCache {
    /// Builds a cache of `capacity` total entries spread over `shards`
    /// shards (both clamped to at least 1 shard; a zero capacity makes
    /// every insert a no-op, which is valid and disables caching).
    #[must_use]
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard_capacity = capacity.div_ceil(shards);
        SolutionCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        entries: HashMap::new(),
                        clock: 0,
                    })
                })
                .collect(),
            per_shard_capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &(impl KeyMaterial + ?Sized)) -> &Mutex<Shard> {
        // High bits: FNV-1a mixes the low bits of long inputs best, but the
        // whole hash is well distributed; any stable reduction works.
        let idx = (fingerprint(key) % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    /// Looks up an instance. On a hit, the outcome is returned with
    /// `cache_hit` set and the entry is marked most-recently-used.
    #[must_use]
    pub fn get(&self, key: &CacheKey) -> Option<ScheduleOutcome> {
        self.lookup(key).map(|outcome| ScheduleOutcome {
            cache_hit: true,
            ..(*outcome).clone()
        })
    }

    /// Looks up an instance by borrowed key material and counts the hit
    /// or the miss. A hit marks the entry most-recently-used and shares
    /// the stored outcome (whose `cache_hit` is `false`) instead of
    /// copying it.
    #[must_use]
    pub fn lookup(&self, key: &dyn KeyMaterial) -> Option<Arc<ScheduleOutcome>> {
        self.find(key, true)
    }

    /// [`SolutionCache::lookup`] that counts a hit but not a miss: for a
    /// probe whose miss is looked up again, and counted, on the engine's
    /// path. Hits plus misses then still count every request once.
    #[must_use]
    pub fn probe(&self, key: &dyn KeyMaterial) -> Option<Arc<ScheduleOutcome>> {
        self.find(key, false)
    }

    fn find(&self, key: &dyn KeyMaterial, count_miss: bool) -> Option<Arc<ScheduleOutcome>> {
        let mut shard = self.shard(key).lock();
        shard.clock += 1;
        let stamp = shard.clock;
        match shard.entries.get_mut(key) {
            Some((last_used, outcome)) => {
                *last_used = stamp;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(outcome))
            }
            None => {
                if count_miss {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                }
                None
            }
        }
    }

    /// Inserts (or refreshes) an outcome. The stored copy always has
    /// `cache_hit == false`; [`SolutionCache::get`] flips the flag on
    /// the copy it returns. Evicts the least-recently-used entry of the
    /// target shard when the shard is full.
    pub fn insert(&self, key: CacheKey, mut outcome: ScheduleOutcome) {
        if self.per_shard_capacity == 0 {
            return;
        }
        outcome.cache_hit = false;
        let mut shard = self.shard(&key).lock();
        shard.clock += 1;
        let stamp = shard.clock;
        let fresh = !shard.entries.contains_key(&key);
        if fresh && shard.entries.len() >= self.per_shard_capacity {
            if let Some(lru) = shard
                .entries
                .iter()
                .min_by_key(|(_, (last_used, _))| *last_used)
                .map(|(k, _)| k.clone())
            {
                shard.entries.remove(&lru);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.entries.insert(key, (stamp, Arc::new(outcome)));
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            entries: self.shards.iter().map(|s| s.lock().entries.len()).sum(),
            capacity: self.per_shard_capacity * self.shards.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_core::CoreType;
    use amp_core::Stage;

    fn key(seed: u64) -> CacheKey {
        CacheKey {
            tasks: vec![
                TaskSpec {
                    weight_big: seed,
                    weight_little: 2 * seed + 1,
                    replicable: seed.is_multiple_of(2),
                },
                TaskSpec {
                    weight_big: seed + 3,
                    weight_little: seed + 7,
                    replicable: true,
                },
            ],
            big_cores: 2,
            little_cores: 2,
            policy: Policy::Portfolio,
            objective: Objective::Period,
        }
    }

    fn outcome(tag: &str) -> ScheduleOutcome {
        ScheduleOutcome {
            strategy: tag.to_string(),
            period: "5/2".to_string(),
            period_f64: 2.5,
            decomposition: "[0-1]B1".to_string(),
            stages: vec![Stage::new(0, 1, 1, CoreType::Big)],
            used_big: 1,
            used_little: 0,
            cache_hit: false,
            complete: true,
            energy_milliwatts: None,
        }
    }

    #[test]
    fn hit_returns_identical_payload_with_flag_set() {
        let cache = SolutionCache::new(8, 2);
        let k = key(1);
        assert!(cache.get(&k).is_none());
        cache.insert(k.clone(), outcome("HeRAD"));
        let hit = cache.get(&k).expect("hit");
        assert!(hit.cache_hit);
        let mut expect = outcome("HeRAD");
        expect.cache_hit = true;
        assert_eq!(hit, expect);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn distinct_instances_do_not_alias() {
        let cache = SolutionCache::new(64, 4);
        for seed in 0..20 {
            cache.insert(key(seed), outcome(&format!("s{seed}")));
        }
        for seed in 0..20 {
            let hit = cache.get(&key(seed)).expect("hit");
            assert_eq!(hit.strategy, format!("s{seed}"));
        }
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = SolutionCache::new(2, 1);
        cache.insert(key(1), outcome("a"));
        cache.insert(key(2), outcome("b"));
        // Touch key 1 so key 2 becomes the LRU victim.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), outcome("c"));
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_none());
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn deadline_and_id_do_not_change_the_key() {
        let chain = amp_core::TaskChain::new(vec![amp_core::Task::new(4, 9, true)]);
        let a = ScheduleRequest::from_chain(
            1,
            &chain,
            amp_core::Resources::new(1, 1),
            Policy::Portfolio,
        );
        let b = ScheduleRequest::from_chain(
            2,
            &chain,
            amp_core::Resources::new(1, 1),
            Policy::Portfolio,
        )
        .with_deadline_us(5);
        assert_eq!(CacheKey::for_request(&a), CacheKey::for_request(&b));
        assert_eq!(
            CacheKey::for_request(&a).fingerprint(),
            CacheKey::for_request(&b).fingerprint()
        );
    }

    #[test]
    fn chain_fingerprint_ignores_the_pool_only() {
        let mut a = key(5);
        let mut b = key(5);
        a.big_cores = 1;
        a.little_cores = 7;
        b.big_cores = 6;
        b.little_cores = 0;
        // Same chain, different pools: full fingerprints differ, the
        // pool-free one does not.
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.chain_fingerprint(), b.chain_fingerprint());
        // Different chains or policies still separate.
        let c = key(6);
        assert_ne!(a.chain_fingerprint(), c.chain_fingerprint());
        let mut d = key(5);
        d.policy = Policy::Strategy("HeRAD".to_string());
        assert_ne!(a.chain_fingerprint(), d.chain_fingerprint());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = SolutionCache::new(0, 4);
        cache.insert(key(1), outcome("a"));
        assert!(cache.get(&key(1)).is_none());
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn objective_is_part_of_the_key() {
        let cache = SolutionCache::new(8, 1);
        let k_period = key(4);
        let mut k_energy = key(4);
        k_energy.objective = Objective::MinEnergy {
            target_period: "5/2".to_string(),
        };
        let mut k_energy_other = k_energy.clone();
        k_energy_other.objective = Objective::MinEnergy {
            target_period: "3/1".to_string(),
        };
        // Distinct objectives — and distinct energy targets — never alias.
        assert_ne!(k_period.fingerprint(), k_energy.fingerprint());
        assert_ne!(k_energy.fingerprint(), k_energy_other.fingerprint());
        cache.insert(k_period.clone(), outcome("HeRAD"));
        assert!(
            cache.get(&k_energy).is_none(),
            "a period-optimal entry answered an energy request"
        );
        assert!(cache.get(&k_energy_other).is_none());
        assert!(cache.get(&k_period).is_some());
        // The period objective's fingerprint bytes are unchanged from the
        // pre-energy encoding (snapshot/routing stability): hashing the
        // same material without the field would give the same value.
        assert_eq!(k_period.fingerprint(), {
            let k = key(4);
            k.fingerprint()
        });
    }

    #[test]
    fn a_request_looks_up_what_its_owned_key_inserted() {
        let chain = amp_core::TaskChain::new(vec![
            amp_core::Task::new(4, 9, true),
            amp_core::Task::new(7, 3, false),
        ]);
        let request = ScheduleRequest::from_chain(
            5,
            &chain,
            amp_core::Resources::new(2, 1),
            Policy::Strategy("HeRAD".to_string()),
        );
        let key = CacheKey::for_request(&request);
        // The borrowed view hashes exactly as the owned key does.
        let hash = |k: &dyn KeyMaterial| {
            let mut h = std::collections::hash_map::DefaultHasher::new();
            k.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&request), hash(&key));
        assert_eq!(fingerprint(&request), key.fingerprint());
        assert_eq!(chain_fingerprint(&request), key.chain_fingerprint());

        let cache = SolutionCache::new(8, 4);
        cache.insert(key.clone(), outcome("HeRAD"));
        let shared = cache.lookup(&request).expect("hit by request");
        assert!(!shared.cache_hit, "the stored copy keeps its flag off");
        assert_eq!(*shared, outcome("HeRAD"));
        // Another pool of the same chain is another instance.
        let other = ScheduleRequest {
            big_cores: 3,
            ..request.clone()
        };
        assert!(cache.lookup(&other).is_none());
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
    }

    #[test]
    fn a_probe_counts_its_hit_but_not_its_miss() {
        let cache = SolutionCache::new(8, 2);
        cache.insert(key(1), outcome("a"));
        assert!(cache.probe(&key(1)).is_some());
        assert!(cache.probe(&key(2)).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 0));
        // A probe refreshes recency like a lookup does.
        let cache = SolutionCache::new(2, 1);
        cache.insert(key(1), outcome("a"));
        cache.insert(key(2), outcome("b"));
        assert!(cache.probe(&key(1)).is_some());
        cache.insert(key(3), outcome("c"));
        assert!(cache.probe(&key(1)).is_some());
        assert!(cache.probe(&key(2)).is_none(), "key 2 was the LRU victim");
    }

    #[test]
    fn policy_is_part_of_the_key() {
        let cache = SolutionCache::new(8, 1);
        let mut k_portfolio = key(4);
        let mut k_fertac = key(4);
        k_portfolio.policy = Policy::Portfolio;
        k_fertac.policy = Policy::Strategy("FERTAC".to_string());
        assert_ne!(k_portfolio.fingerprint(), k_fertac.fingerprint());
        cache.insert(k_portfolio.clone(), outcome("HeRAD"));
        assert!(cache.get(&k_fertac).is_none());
        assert!(cache.get(&k_portfolio).is_some());
    }
}
