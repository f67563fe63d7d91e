//! Property suite for chain-tier snapshot persistence.
//!
//! Two contracts, pinned over randomized instances:
//!
//! * **Round trip** — a tier saved to disk and loaded into a fresh tier
//!   answers every instance bit-identically to the original (and to a
//!   fresh HeRAD solve) without a single cold solve: persistence must
//!   be lossless, not merely "close enough".
//! * **Corruption** — any truncation or single-byte mutation of a
//!   snapshot is rejected with a typed [`SnapshotError`], installs
//!   nothing (all-or-nothing), and leaves the tier serving clean
//!   misses. A bad file on disk must never panic, never half-load, and
//!   never produce a wrong answer.

use std::sync::atomic::{AtomicU64, Ordering};

use amp_core::sched::{Herad, Scheduler};
use amp_core::{Resources, Solution, Task, TaskChain};
use amp_service::{ChainTier, SnapshotError, TaskSpec};
use proptest::prelude::*;

fn key(chain: &TaskChain) -> Vec<TaskSpec> {
    chain.tasks().iter().map(TaskSpec::from).collect()
}

/// Random instances shaped like the paper's synthetic generator, kept
/// small so the property runs stay fast: a few chains, each served
/// under a few pool shapes.
fn workload() -> impl Strategy<Value = Vec<(TaskChain, Vec<Resources>)>> {
    let task = (1u64..=60, 1u64..=5, any::<bool>())
        .prop_map(|(wb, slow, rep)| Task::new(wb, wb * slow, rep));
    let pools = prop::collection::vec((0u64..=3, 0u64..=3), 1..=4).prop_map(|ps| {
        ps.into_iter()
            .map(|(b, l)| Resources::new(b, l))
            .collect::<Vec<_>>()
    });
    let chain = prop::collection::vec(task, 1..=8).prop_map(TaskChain::new);
    prop::collection::vec((chain, pools), 1..=3)
}

/// A per-process-unique snapshot path; proptest cases reuse the test
/// thread, so a counter keeps concurrent test binaries and cases apart.
fn scratch_path() -> std::path::PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "amp-snapshot-prop-{}-{}.json",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Drives `workload` through `tier`, returning each serve's answer
/// (`None` = infeasible) in a stable order.
fn serve_all(tier: &ChainTier, workload: &[(TaskChain, Vec<Resources>)]) -> Vec<Option<Solution>> {
    let mut answers = Vec::new();
    let mut out = Solution::empty();
    for (chain, pools) in workload {
        let k = key(chain);
        for &pool in pools {
            let (_, feasible) = tier.serve(&k, chain, pool, &mut out);
            answers.push(feasible.then(|| out.clone()));
        }
    }
    answers
}

/// The snapshot checked in at the repository root, written by an earlier
/// build, loads and saves back byte for byte: the format (version 1) is
/// independent of how the DP cells hold their periods in memory.
#[test]
fn checked_in_snapshot_loads_and_saves_back_byte_identical() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../SNAP_chain_tier.json");
    let original = std::fs::read(&path).expect("checked-in snapshot");
    let tier = ChainTier::new(64, None);
    let loaded = tier
        .load_from(&path)
        .expect("the checked-in snapshot loads");
    assert!(loaded >= 1);
    let echo = scratch_path();
    assert_eq!(tier.save_to(&echo).expect("save"), loaded);
    let saved = std::fs::read(&echo).expect("echo exists");
    std::fs::remove_file(&echo).ok();
    assert_eq!(saved, original);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Save → load → identical answers, with zero cold solves after the
    /// restore, and a byte-stable snapshot (saving the restored tier
    /// reproduces the file).
    #[test]
    fn snapshot_round_trip_is_lossless(workload in workload()) {
        let path = scratch_path();
        let tier = ChainTier::new(16, None);
        let original = serve_all(&tier, &workload);
        let written = tier.save_to(&path).expect("save must succeed");
        prop_assert!(written >= 1);

        let restored = ChainTier::new(16, None);
        let loaded = restored.load_from(&path).expect("load must succeed");
        prop_assert_eq!(loaded, written, "every table must come back");
        let replay = serve_all(&restored, &workload);
        prop_assert_eq!(&replay, &original, "restored answers must be bit-identical");
        let stats = restored.stats();
        prop_assert_eq!(stats.cold_solves, 0, "a warm tier never solves cold: {:?}", stats);
        prop_assert_eq!(stats.snapshot_loaded as usize, written);

        // And the answers are still exactly HeRAD's.
        let mut i = 0;
        for (chain, pools) in &workload {
            for &pool in pools {
                prop_assert_eq!(&replay[i], &Herad::new().schedule(chain, pool));
                i += 1;
            }
        }

        // Byte stability: an equal tier writes an equal snapshot.
        let before = std::fs::read(&path).expect("snapshot exists");
        let echo = scratch_path();
        restored.save_to(&echo).expect("re-save must succeed");
        prop_assert_eq!(std::fs::read(&echo).expect("echo exists"), before);
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&echo).ok();
    }

    /// Truncating a snapshot anywhere yields a typed error, installs no
    /// tables, and leaves the tier fully serviceable (clean misses).
    #[test]
    fn truncated_snapshots_are_clean_misses(
        workload in workload(),
        cut_milli in 0u64..1000,
    ) {
        let tier = ChainTier::new(16, None);
        serve_all(&tier, &workload);
        let doc = amp_service::chain_tier::snapshot_doc(tier.snapshot_tables());
        let text = doc.render_compact();
        let cut = (text.len() as u64 * cut_milli / 1000) as usize;
        let truncated: String = text.chars().take(cut).collect();

        let victim = ChainTier::new(16, None);
        let err = victim
            .load_snapshot_text(&truncated)
            .expect_err("a truncated snapshot must be rejected");
        prop_assert!(
            matches!(
                err,
                SnapshotError::Parse { .. }
                    | SnapshotError::Malformed { .. }
                    | SnapshotError::Version { .. }
            ),
            "unexpected error shape: {err:?}"
        );
        let stats = victim.stats();
        prop_assert_eq!(stats.snapshot_loaded, 0, "all-or-nothing: nothing installs");
        prop_assert_eq!(stats.snapshot_rejected, 1);
        prop_assert_eq!(stats.entries, 0);
        // Clean miss: the tier still answers, bit-identically to HeRAD.
        let (chain, pools) = &workload[0];
        let pool = pools[0];
        let mut out = Solution::empty();
        let (_, feasible) = victim.serve(&key(chain), chain, pool, &mut out);
        prop_assert_eq!(feasible.then_some(out), Herad::new().schedule(chain, pool));
    }

    /// Flipping any single byte of a snapshot is detected — by the
    /// parser, the header checks or the per-table checksum — and never
    /// panics or installs a damaged table.
    #[test]
    fn single_byte_corruption_is_always_detected(
        workload in workload(),
        pos_milli in 0u64..1000,
        flip in 1u8..=255,
    ) {
        let tier = ChainTier::new(16, None);
        serve_all(&tier, &workload);
        let doc = amp_service::chain_tier::snapshot_doc(tier.snapshot_tables());
        let mut bytes = doc.render_compact().into_bytes();
        let pos = (bytes.len() as u64 * pos_milli / 1000) as usize % bytes.len();
        bytes[pos] ^= flip;

        let victim = ChainTier::new(16, None);
        // A flip that breaks UTF-8 would never survive a file read as a
        // string, so only valid-UTF-8 mutations reach the loader.
        if let Ok(text) = String::from_utf8(bytes) {
            let err = victim
                .load_snapshot_text(&text)
                .expect_err("a corrupted snapshot must be rejected");
            prop_assert!(
                matches!(
                    err,
                    SnapshotError::Parse { .. }
                        | SnapshotError::Malformed { .. }
                        | SnapshotError::Version { .. }
                ),
                "unexpected error shape: {err:?}"
            );
        }
        prop_assert_eq!(victim.stats().entries, 0);
    }

    /// A version or kind skew — the bytes a *future* amp-service would
    /// write — is rejected with the typed `Version` error specifically,
    /// so operators can tell "stale binary" from "disk corruption".
    #[test]
    fn version_skew_is_a_typed_version_error(workload in workload()) {
        let tier = ChainTier::new(16, None);
        serve_all(&tier, &workload);
        let doc = amp_service::chain_tier::snapshot_doc(tier.snapshot_tables());
        let text = doc.render_compact();

        let skewed = text.replacen("\"version\":1", "\"version\":2", 1);
        prop_assert_ne!(&skewed, &text, "snapshot must carry its version");
        let victim = ChainTier::new(16, None);
        match victim.load_snapshot_text(&skewed) {
            Err(SnapshotError::Version { found }) => {
                prop_assert!(found.contains('2'), "found: {found}")
            }
            other => prop_assert!(false, "expected Version error, got {other:?}"),
        }

        let rekinded = text.replacen("amp-chain-tier-snapshot", "amp-something-else", 1);
        match victim.load_snapshot_text(&rekinded) {
            Err(SnapshotError::Version { .. }) => {}
            other => prop_assert!(false, "expected Version error, got {other:?}"),
        }
        prop_assert_eq!(victim.stats().entries, 0);
    }
}
