//! The chain-keyed solve-once cache tier.
//!
//! The exact-fingerprint LRU ([`crate::cache`]) keys on the full instance
//! — chain *and* pool — so a fleet serving one chain across heterogeneous
//! machine shapes recomputes per pool. HeRAD's DP table is
//! pool-independent (see [`amp_core::sched::herad`]): one solved table
//! answers every covered sub-pool by pure extraction and grows in place
//! via the pool-delta driver when a larger pool arrives. This tier stores
//! exactly that: one [`ChainTable`] per distinct
//! `(weights, replicability)` vector, shared by every pool shape.
//!
//! The tier sits *between* the exact LRU and the solver on the HeRAD
//! single-strategy path: an exact hit replays the outcome without
//! touching the tier, an exact miss consults the tier (extract / grow /
//! cold-solve), and the extracted solution is vetted and inserted into
//! the exact LRU like any computed one. Per-tier counters stay separate
//! so dashboards can tell replay hits from extraction hits.
//!
//! ## Panic safety
//!
//! Every serve brings the chain's table to the pool through
//! [`Herad::fill`], the same fill path `SchedScratch` and the runtime use.
//! A fill grows or rebuilds with the table's key cleared, so a panic
//! mid-mutation (injected through [`TierFaultHook`] in tests) leaves a
//! poisoned entry, a table that matches no chain, and the next request
//! for that chain repairs it with a cold rebuild. Extraction never
//! mutates the table, so a panic mid-extraction needs no repair at all.
//! The `parking_lot` mutexes do not poison, so a panicking worker
//! releases its locks cleanly.
//!
//! ## Snapshot persistence
//!
//! [`ChainTier::save_to`] serializes every valid table into one
//! versioned, checksummed, float-free canonical-JSON document (written
//! atomically: temp file + rename), and [`ChainTier::load_from`] restores
//! it on engine start for warm restarts. A corrupt, truncated or
//! version-skewed snapshot is rejected *wholesale* with a typed
//! [`SnapshotError`] — the tier then simply starts empty (clean misses),
//! never half-loaded.

use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use amp_core::json::Json;
use amp_core::sched::{ChainTable, ChainTableError, Herad};
use amp_core::{Resources, Solution, TaskChain};
use parking_lot::Mutex;

use crate::request::TaskSpec;

/// Test-only fault-injection hook for the tier: called with a site label
/// (`"extract"`, `"grow"`, `"cold"`, `"snapshot"`) right before the
/// corresponding operation runs, inside the mutation window for `"grow"`
/// and `"cold"`. A panicking hook exercises the poison-and-repair
/// protocol; production configs leave it `None`.
pub type TierFaultHook = Arc<dyn Fn(&'static str) + Send + Sync>;

/// Header constants of the snapshot document. Bump the version on any
/// incompatible change; old snapshots then load as clean misses.
const SNAPSHOT_KIND: &str = "amp-chain-tier-snapshot";
const SNAPSHOT_VERSION: u64 = 1;

/// Loading or saving a tier snapshot failed. Every variant is a clean
/// rejection: the tier keeps serving (empty or with its current
/// contents), it never panics and never serves a half-loaded table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Reading or writing the file failed.
    Io {
        /// The failing path.
        path: String,
        /// The OS error.
        message: String,
    },
    /// The file is not canonical JSON (includes truncation).
    Parse {
        /// Byte offset of the parse failure.
        offset: usize,
        /// Parser diagnostic.
        message: String,
    },
    /// The file parses but was written by a different format version.
    Version {
        /// The offending header value.
        found: String,
    },
    /// The file parses and the header matches, but a payload is
    /// inconsistent (bad cell, checksum mismatch, wrong shape).
    Malformed {
        /// What was inconsistent.
        message: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io { path, message } => {
                write!(f, "snapshot io error on {path}: {message}")
            }
            SnapshotError::Parse { offset, message } => {
                write!(f, "snapshot parse error at byte {offset}: {message}")
            }
            SnapshotError::Version { found } => {
                write!(f, "snapshot version mismatch: {found}")
            }
            SnapshotError::Malformed { message } => {
                write!(f, "snapshot malformed: {message}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<ChainTableError> for SnapshotError {
    fn from(e: ChainTableError) -> Self {
        match e {
            ChainTableError::Parse { offset, message } => SnapshotError::Parse { offset, message },
            ChainTableError::Version { found } => SnapshotError::Version { found },
            ChainTableError::Malformed { message } => SnapshotError::Malformed { message },
        }
    }
}

/// How the tier answered one request: the [`Herad::fill`] that brought
/// the chain's table to the pool.
pub use amp_core::sched::TableFill as TierServe;

/// One chain's slot: the LRU stamp lives outside the entry mutex so
/// eviction scans never contend with an in-flight solve. The entry is
/// fresh (`None`), solved (a table keyed to the chain), or poisoned (a
/// table that matches no chain: a fill was interrupted, and the next
/// request repairs it with a cold rebuild).
struct EntrySlot {
    stamp: AtomicU64,
    entry: Mutex<Option<ChainTable>>,
}

/// The slot's table if it holds a finished fill: a poisoned table has an
/// empty key.
fn solved(entry: &Option<ChainTable>) -> Option<&ChainTable> {
    entry.as_ref().filter(|t| !t.tasks().is_empty())
}

/// Point-in-time counters of a [`ChainTier`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChainTierStats {
    /// Requests answered by pure extraction from a covering table.
    pub hits: u64,
    /// Requests answered after an in-place pool-delta growth.
    pub grows: u64,
    /// Requests that paid a full cold HeRAD solve.
    pub cold_solves: u64,
    /// Cold solves that replaced a poisoned (interrupted) entry.
    pub repairs: u64,
    /// Chains displaced to make room.
    pub evictions: u64,
    /// Chains currently resident.
    pub entries: usize,
    /// Maximum resident chains (0 = tier disabled).
    pub capacity: usize,
    /// Tables restored from a snapshot at load time.
    pub snapshot_loaded: u64,
    /// Snapshot files rejected (corrupt/truncated/version-skewed).
    pub snapshot_rejected: u64,
}

impl ChainTierStats {
    /// Fraction of tier consultations that avoided a cold solve, in
    /// integer per-mille (0–1000); 0 when the tier was never consulted.
    #[must_use]
    pub fn hit_rate_milli(&self) -> u64 {
        let warm = self.hits + self.grows;
        (warm * 1000)
            .checked_div(warm + self.cold_solves)
            .unwrap_or(0)
    }
}

/// The chain-keyed solve-once cache tier (see module docs).
pub struct ChainTier {
    entries: Mutex<HashMap<Vec<TaskSpec>, Arc<EntrySlot>>>,
    capacity: usize,
    clock: AtomicU64,
    hits: AtomicU64,
    grows: AtomicU64,
    cold_solves: AtomicU64,
    repairs: AtomicU64,
    evictions: AtomicU64,
    snapshot_loaded: AtomicU64,
    snapshot_rejected: AtomicU64,
    fault: Option<TierFaultHook>,
}

impl ChainTier {
    /// Builds a tier holding up to `capacity` chains (`0` disables it:
    /// [`ChainTier::enabled`] is false and the engine falls back to the
    /// plain solver path).
    #[must_use]
    pub fn new(capacity: usize, fault: Option<TierFaultHook>) -> Self {
        ChainTier {
            entries: Mutex::new(HashMap::new()),
            capacity,
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            grows: AtomicU64::new(0),
            cold_solves: AtomicU64::new(0),
            repairs: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            snapshot_loaded: AtomicU64::new(0),
            snapshot_rejected: AtomicU64::new(0),
            fault,
        }
    }

    /// Whether the tier participates in serving at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    fn roll(&self, site: &'static str) {
        if let Some(hook) = &self.fault {
            hook(site);
        }
    }

    /// Get-or-create the chain's slot, refreshing its LRU stamp and
    /// evicting the coldest chain when a fresh key would overflow the
    /// capacity. The map lock is held only for this bookkeeping — solves
    /// run under the per-entry lock, so two chains never serialize on
    /// each other and one chain cold-solves exactly once under
    /// concurrency.
    fn slot(&self, key: &[TaskSpec]) -> Arc<EntrySlot> {
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut map = self.entries.lock();
        if let Some(slot) = map.get(key) {
            slot.stamp.store(stamp, Ordering::Relaxed);
            return Arc::clone(slot);
        }
        if map.len() >= self.capacity {
            if let Some(victim) = map
                .iter()
                .min_by_key(|(_, slot)| slot.stamp.load(Ordering::Relaxed))
                .map(|(k, _)| k.clone())
            {
                map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        let slot = Arc::new(EntrySlot {
            stamp: AtomicU64::new(stamp),
            entry: Mutex::new(None),
        });
        map.insert(key.to_vec(), Arc::clone(&slot));
        slot
    }

    /// Serves one HeRAD request from the tier: [`Herad::fill`] brings the
    /// chain's table to the pool (extraction when it covers the pool,
    /// in-place growth when it is too small, a cold solve when there is
    /// none or it is poisoned), then the schedule is extracted. Returns how
    /// it was served plus the feasibility flag; on `true`, `out` holds the
    /// schedule, bit-identical to a fresh `Herad::new()` solve at the same
    /// pool.
    ///
    /// Must only be called on an enabled tier with a non-empty chain.
    pub fn serve(
        &self,
        key: &[TaskSpec],
        chain: &TaskChain,
        resources: Resources,
        out: &mut Solution,
    ) -> (TierServe, bool) {
        debug_assert!(self.enabled(), "serve on a disabled tier");
        let slot = self.slot(key);
        let mut entry = slot.entry.lock();
        let repair = entry.is_some() && solved(&entry).is_none();
        let table = entry.get_or_insert_with(ChainTable::default);
        let how = Herad::new().fill_with(table, chain, resources, |how| {
            self.roll(match how {
                TierServe::Extracted => "extract",
                TierServe::Grown => "grow",
                TierServe::Cold => "cold",
            });
        });
        let feasible = table.extract(chain, resources, out);
        let counter = match how {
            TierServe::Extracted => &self.hits,
            TierServe::Grown => &self.grows,
            TierServe::Cold => &self.cold_solves,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        if repair {
            self.repairs.fetch_add(1, Ordering::Relaxed);
        }
        (how, feasible)
    }

    /// Current counters.
    #[must_use]
    pub fn stats(&self) -> ChainTierStats {
        ChainTierStats {
            hits: self.hits.load(Ordering::Relaxed),
            grows: self.grows.load(Ordering::Relaxed),
            cold_solves: self.cold_solves.load(Ordering::Relaxed),
            repairs: self.repairs.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.entries.lock().len(),
            capacity: self.capacity,
            snapshot_loaded: self.snapshot_loaded.load(Ordering::Relaxed),
            snapshot_rejected: self.snapshot_rejected.load(Ordering::Relaxed),
        }
    }

    /// Every valid table as its serialized JSON document, sorted by the
    /// serialized form so snapshots of equal tiers are byte-identical
    /// regardless of map iteration order.
    #[must_use]
    pub fn snapshot_tables(&self) -> Vec<Json> {
        let slots: Vec<Arc<EntrySlot>> = self.entries.lock().values().cloned().collect();
        let mut tables: Vec<(String, Json)> = slots
            .iter()
            .filter_map(|slot| {
                solved(&slot.entry.lock()).map(|t| {
                    let doc = t.to_json();
                    (doc.render_compact(), doc)
                })
            })
            .collect();
        tables.sort_by(|a, b| a.0.cmp(&b.0));
        tables.into_iter().map(|(_, doc)| doc).collect()
    }

    /// Installs a table restored from a snapshot. Existing live tables
    /// win over snapshot data (restores run at startup, before traffic,
    /// so this only matters for merged fleet snapshots loaded twice).
    fn install(&self, table: ChainTable) {
        let key: Vec<TaskSpec> = table
            .tasks()
            .iter()
            .map(|&(wb, wl, rep)| TaskSpec {
                weight_big: wb,
                weight_little: wl,
                replicable: rep,
            })
            .collect();
        let slot = self.slot(&key);
        let mut entry = slot.entry.lock();
        if solved(&entry).is_some() {
            return;
        }
        *entry = Some(table);
        self.snapshot_loaded.fetch_add(1, Ordering::Relaxed);
    }

    /// Parses and installs a snapshot document. All-or-nothing: every
    /// table is decoded and validated *before* any is installed, so a bad
    /// document changes nothing. Returns how many tables were installed.
    pub fn load_snapshot_text(&self, text: &str) -> Result<usize, SnapshotError> {
        let result = self.try_load_snapshot_text(text);
        if result.is_err() {
            self.snapshot_rejected.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    fn try_load_snapshot_text(&self, text: &str) -> Result<usize, SnapshotError> {
        if !self.enabled() {
            // A disabled tier validates nothing and installs nothing.
            return Ok(0);
        }
        let malformed = |message: &str| SnapshotError::Malformed {
            message: message.to_string(),
        };
        let doc = Json::parse(text).map_err(|e| SnapshotError::Parse {
            offset: e.offset,
            message: e.message,
        })?;
        let obj = doc
            .as_obj()
            .ok_or_else(|| malformed("document is not an object"))?;
        let kind = obj
            .get("kind")
            .and_then(|k| k.as_str())
            .ok_or_else(|| malformed("missing kind"))?;
        if kind != SNAPSHOT_KIND {
            return Err(SnapshotError::Version {
                found: format!("kind {kind:?}"),
            });
        }
        let version = obj
            .get("version")
            .and_then(Json::as_int)
            .ok_or_else(|| malformed("missing version"))?;
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::Version {
                found: format!("version {version}"),
            });
        }
        let tables = obj
            .get("tables")
            .and_then(Json::as_arr)
            .ok_or_else(|| malformed("missing tables"))?;
        let decoded: Vec<ChainTable> = tables
            .iter()
            .map(ChainTable::from_json)
            .collect::<Result<_, ChainTableError>>()?;
        let n = decoded.len();
        for table in decoded {
            self.install(table);
        }
        Ok(n)
    }

    /// Restores the tier from a snapshot file. A missing, unreadable or
    /// invalid file is a typed error and leaves the tier untouched (the
    /// engine then starts with an empty tier — clean misses, never a
    /// crash and never a wrong answer).
    pub fn load_from(&self, path: &Path) -> Result<usize, SnapshotError> {
        let text = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                self.snapshot_rejected.fetch_add(1, Ordering::Relaxed);
                return Err(SnapshotError::Io {
                    path: path.display().to_string(),
                    message: e.to_string(),
                });
            }
        };
        self.load_snapshot_text(&text)
    }

    /// Writes the tier's valid tables to `path` atomically (temp file in
    /// the same directory, then rename), so a crash mid-write can never
    /// leave a truncated snapshot where a good one was. Returns how many
    /// tables were written.
    pub fn save_to(&self, path: &Path) -> Result<usize, SnapshotError> {
        write_snapshot_file(path, self.snapshot_tables(), |site| self.roll(site))
    }
}

/// Renders `tables` into the versioned snapshot document.
#[must_use]
pub fn snapshot_doc(tables: Vec<Json>) -> Json {
    let mut obj = std::collections::BTreeMap::new();
    obj.insert("kind".to_string(), Json::Str(SNAPSHOT_KIND.to_string()));
    obj.insert("version".to_string(), Json::Int(SNAPSHOT_VERSION));
    obj.insert("tables".to_string(), Json::Arr(tables));
    Json::Obj(obj)
}

/// Atomically writes a snapshot document for `tables` to `path`:
/// everything lands in a temp file first, and only a complete write is
/// renamed into place. `roll` is the fault-injection seam (`"snapshot"`
/// fires between write and rename — a panic there orphans the temp file
/// but never corrupts an existing snapshot).
pub fn write_snapshot_file<F: Fn(&'static str)>(
    path: &Path,
    tables: Vec<Json>,
    roll: F,
) -> Result<usize, SnapshotError> {
    let n = tables.len();
    let text = snapshot_doc(tables).render_compact();
    let io_err = |p: &Path, e: std::io::Error| SnapshotError::Io {
        path: p.display().to_string(),
        message: e.to_string(),
    };
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, text.as_bytes()).map_err(|e| io_err(&tmp, e))?;
    roll("snapshot");
    std::fs::rename(&tmp, path).map_err(|e| io_err(path, e))?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use amp_core::sched::{Herad, Scheduler};
    use amp_core::{Task, TaskChain};

    fn chain() -> TaskChain {
        TaskChain::new(vec![
            Task::new(10, 25, false),
            Task::new(40, 90, true),
            Task::new(5, 12, false),
        ])
    }

    fn key(chain: &TaskChain) -> Vec<TaskSpec> {
        chain.tasks().iter().map(TaskSpec::from).collect()
    }

    #[test]
    fn pool_sweep_pays_exactly_one_cold_solve() {
        let tier = ChainTier::new(8, None);
        let c = chain();
        let k = key(&c);
        let mut out = Solution::empty();
        let mut kinds = Vec::new();
        for (b, l) in [
            (1, 1),
            (2, 2),
            (1, 3),
            (3, 1),
            (0, 2),
            (2, 0),
            (3, 3),
            (2, 3),
            (1, 0),
        ] {
            let r = Resources::new(b, l);
            let (kind, feasible) = tier.serve(&k, &c, r, &mut out);
            kinds.push(kind);
            let fresh = Herad::new().schedule(&c, r);
            assert_eq!(feasible.then(|| out.clone()), fresh, "diverges at {r}");
        }
        assert_eq!(kinds[0], TierServe::Cold, "first request solves cold");
        let stats = tier.stats();
        assert_eq!(stats.cold_solves, 1, "one cold solve for the whole sweep");
        assert_eq!(stats.hits + stats.grows, 8);
        assert!(stats.hit_rate_milli() > 800);
    }

    #[test]
    fn distinct_chains_get_distinct_tables_and_lru_evicts() {
        let tier = ChainTier::new(2, None);
        let chains: Vec<TaskChain> = (1..=3u64)
            .map(|s| {
                TaskChain::new(vec![
                    Task::new(s, 2 * s, true),
                    Task::new(s + 1, s + 2, false),
                ])
            })
            .collect();
        let mut out = Solution::empty();
        for c in &chains {
            let (kind, _) = tier.serve(&key(c), c, Resources::new(2, 2), &mut out);
            assert_eq!(kind, TierServe::Cold);
        }
        let stats = tier.stats();
        assert_eq!(stats.cold_solves, 3);
        assert_eq!(stats.entries, 2, "capacity bounds resident chains");
        assert_eq!(stats.evictions, 1);
        // The evicted (oldest) chain re-solves cold; the newest extracts.
        let (kind, _) = tier.serve(&key(&chains[2]), &chains[2], Resources::new(2, 2), &mut out);
        assert_eq!(kind, TierServe::Extracted);
        let (kind, _) = tier.serve(&key(&chains[0]), &chains[0], Resources::new(2, 2), &mut out);
        assert_eq!(kind, TierServe::Cold);
    }

    #[test]
    fn snapshot_round_trip_restores_warm_serving() {
        let dir = std::env::temp_dir().join("amp-chain-tier-test-rt");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let tier = ChainTier::new(8, None);
        let c = chain();
        let mut out = Solution::empty();
        let _ = tier.serve(&key(&c), &c, Resources::new(3, 3), &mut out);
        assert_eq!(tier.save_to(&path).unwrap(), 1);
        // A fresh tier loads the snapshot and serves without a cold solve.
        let restored = ChainTier::new(8, None);
        assert_eq!(restored.load_from(&path).unwrap(), 1);
        for (b, l) in [(1, 1), (3, 3), (0, 2)] {
            let r = Resources::new(b, l);
            let (kind, feasible) = restored.serve(&key(&c), &c, r, &mut out);
            assert_eq!(kind, TierServe::Extracted, "warm restart extracts at {r}");
            assert_eq!(
                feasible.then(|| out.clone()),
                Herad::new().schedule(&c, r),
                "restored answer diverges at {r}"
            );
        }
        let stats = restored.stats();
        assert_eq!(stats.cold_solves, 0);
        assert_eq!(stats.snapshot_loaded, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_snapshots_reject_wholesale_and_count() {
        let tier = ChainTier::new(8, None);
        assert!(matches!(
            tier.load_snapshot_text("{"),
            Err(SnapshotError::Parse { .. })
        ));
        assert!(matches!(
            tier.load_snapshot_text("{\"kind\":\"other\",\"version\":1,\"tables\":[]}"),
            Err(SnapshotError::Version { .. })
        ));
        assert!(matches!(
            tier.load_snapshot_text(
                "{\"kind\":\"amp-chain-tier-snapshot\",\"version\":9,\"tables\":[]}"
            ),
            Err(SnapshotError::Version { .. })
        ));
        assert!(matches!(
            tier.load_snapshot_text(
                "{\"kind\":\"amp-chain-tier-snapshot\",\"version\":1,\"tables\":[{}]}"
            ),
            Err(SnapshotError::Malformed { .. })
        ));
        let stats = tier.stats();
        assert_eq!(stats.snapshot_rejected, 4);
        assert_eq!(stats.entries, 0, "a rejected snapshot installs nothing");
        // A missing file is a typed Io error, not a panic.
        assert!(matches!(
            tier.load_from(Path::new("/nonexistent/amp-snap.json")),
            Err(SnapshotError::Io { .. })
        ));
    }

    /// A snapshot of `chain()`'s `(2, 2)` table whose final cell starts
    /// its last stage at its own layer, under a checksum recomputed the
    /// way anyone can: FNV-1a over the canonical task and cell strings.
    fn forged_snapshot() -> String {
        let doc = ChainTable::solve(&chain(), Resources::new(2, 2)).to_json();
        let mut obj = doc.as_obj().unwrap().clone();
        let strings = |key: &str| -> Vec<String> {
            let items = obj[key].as_arr().unwrap().iter();
            items.map(|x| x.as_str().unwrap().to_string()).collect()
        };
        let tasks = strings("tasks");
        let mut cells = strings("cells");
        let last = cells.last_mut().unwrap();
        let (fields, _start) = last.rsplit_once(',').unwrap();
        *last = format!("{fields},3");
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &byte in bytes {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        for n in [tasks.len(), 2, 2] {
            eat(&(n as u64).to_le_bytes());
        }
        for item in tasks.iter().chain(&cells) {
            eat(item.as_bytes());
            eat(b";");
        }
        obj.insert("checksum".to_string(), Json::Int(h));
        obj.insert(
            "cells".to_string(),
            Json::Arr(cells.into_iter().map(Json::Str).collect()),
        );
        let other = TaskChain::new(vec![Task::new(7, 9, true)]);
        let good = ChainTable::solve(&other, Resources::new(1, 1)).to_json();
        snapshot_doc(vec![good, Json::Obj(obj)]).render_compact()
    }

    #[test]
    fn forged_snapshot_rejects_wholesale_and_counts() {
        let tier = ChainTier::new(8, None);
        match tier.load_snapshot_text(&forged_snapshot()) {
            // The checksum holds; the back-pointer check refuses the cell.
            Err(SnapshotError::Malformed { message }) => {
                assert!(message.contains("cell (3, 2, 2)"), "{message}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        let stats = tier.stats();
        assert_eq!(stats.snapshot_rejected, 1);
        assert_eq!(stats.snapshot_loaded, 0);
        assert_eq!(stats.entries, 0, "a rejected snapshot installs nothing");
    }

    #[test]
    fn panic_mid_mutation_poisons_then_repairs() {
        use std::sync::atomic::AtomicBool;
        let armed = Arc::new(AtomicBool::new(false));
        let armed_hook = Arc::clone(&armed);
        let hook: TierFaultHook = Arc::new(move |site| {
            if armed_hook.load(Ordering::Relaxed) && site != "extract" {
                panic!("tier chaos at {site}");
            }
        });
        let tier = ChainTier::new(8, Some(hook));
        let c = chain();
        let k = key(&c);
        let mut out = Solution::empty();
        // Arm, then panic during the cold solve: the entry is poisoned,
        // nothing is served.
        armed.store(true, Ordering::Relaxed);
        let r = Resources::new(2, 2);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = Solution::empty();
            tier.serve(&k, &c, r, &mut out)
        }))
        .is_err());
        // Disarm: the next request repairs with a cold solve and the
        // answer is still bit-identical to a fresh one.
        armed.store(false, Ordering::Relaxed);
        let (kind, feasible) = tier.serve(&k, &c, r, &mut out);
        assert_eq!(kind, TierServe::Cold);
        assert_eq!(feasible.then(|| out.clone()), Herad::new().schedule(&c, r));
        assert_eq!(tier.stats().repairs, 1);
        // Arm again and panic mid-grow: poisoned again, then repaired.
        armed.store(true, Ordering::Relaxed);
        let bigger = Resources::new(4, 4);
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = Solution::empty();
            tier.serve(&k, &c, bigger, &mut out)
        }))
        .is_err());
        armed.store(false, Ordering::Relaxed);
        let (kind, feasible) = tier.serve(&k, &c, bigger, &mut out);
        assert_eq!(kind, TierServe::Cold, "poisoned entry repairs cold");
        assert_eq!(
            feasible.then(|| out.clone()),
            Herad::new().schedule(&c, bigger)
        );
        assert_eq!(tier.stats().repairs, 2);
    }

    #[test]
    fn interrupted_snapshot_write_never_corrupts_the_old_file() {
        let dir = std::env::temp_dir().join("amp-chain-tier-test-aw");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.json");
        let tier = ChainTier::new(8, None);
        let c = chain();
        let mut out = Solution::empty();
        let _ = tier.serve(&key(&c), &c, Resources::new(2, 2), &mut out);
        tier.save_to(&path).unwrap();
        let good = std::fs::read_to_string(&path).unwrap();
        // A save that panics between write and rename leaves the old
        // snapshot byte-identical.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            write_snapshot_file(&path, tier.snapshot_tables(), |_| {
                panic!("chaos mid-snapshot-write")
            })
        }));
        assert!(result.is_err());
        assert_eq!(std::fs::read_to_string(&path).unwrap(), good);
        // And the tier itself is still valid and serving.
        let (kind, _) = tier.serve(&key(&c), &c, Resources::new(2, 2), &mut out);
        assert_eq!(kind, TierServe::Extracted);
        std::fs::remove_file(&path).ok();
    }
}
