#!/usr/bin/env bash
# Repo CI gate: formatting, lints, then the tier-1 build-and-test pass.
# This is the one list of CI steps: .github/workflows/ci.yml runs this
# script and only uploads the reports it writes under target/ci/. The
# smoke runs write there, not over the full-run BENCH_*.json files at the
# repo root.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p target/ci

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release
cargo test -q

# Benchmark self-tests: perfbench builds against the library crates by
# path, so a library change that breaks its build or its reply checks
# (a corrupted reply and a dropped frame must count as failed) fails here
# rather than in a benchmark run.
cargo test --manifest-path perfbench/Cargo.toml

# Conformance gate: replay the regression corpus, then fuzz a bounded
# batch of seeded instances (small n so the exhaustive oracle stays fast)
# against the oracle, the metamorphic properties, the service engine and
# the fault-injection (chaos) harness — deterministic injection keyed on
# instance content, so any failure replays locally with the same seeds.
cargo run --release -p amp-conformance -- --seeds 500 --max-tasks 8 --max-big 4 --max-little 4

# Chaos gate: a second bounded seed window through the same runner with
# only the service + chaos layers (skipping the oracle keeps it fast),
# plus the service crate's panic-safety and thread-stability suites in
# release mode (10k-request chaos run, pool-recovery and no-new-threads
# assertions).
cargo run --release -p amp-conformance -- --seeds 250 --seed-start 1000 --no-corpus --max-tasks 8 --max-big 4 --max-little 4
cargo test --release -q -p amp-service --test panic_safety --test thread_stability

# Chain-tier gate: the solve-once cache (grow-in-place HeRAD tables,
# keyed on the chain alone) differentially checked against fresh solves
# over a wide seed window — extraction at every covered pool, period
# agreement, and a render/parse round trip per table. Skipping the
# service/chaos layers keeps 1000 seeds cheap.
cargo run --release -p amp-conformance -- --chain-tier-only --seeds 1000 --max-tasks 8 --max-big 4 --max-little 4
cargo test --release -q -p amp-service --test snapshot_roundtrip

# Energy gate: the brute-force energy oracle (every interval, core type
# and replication count scored in exact milliwatts) differentially pins
# the energy DP, the greedy energy strategies and the Pareto front's
# structural invariants over a wide seed window. Narrowing to the energy
# battery keeps 1000 seeds cheap.
cargo run --release -p amp-conformance -- --energy-only --seeds 1000 --max-tasks 8 --max-big 4 --max-little 4

# Energy-sweep smoke gate: paper-shaped chains (20 tasks, Table I pools)
# through the Pareto-front driver at a scale the conformance oracle
# cannot reach. Exits non-zero if any front is empty, unsorted, starts
# off the HeRAD optimum, relaxing the period ever costs energy, or the
# median front build blows the wall-clock tripwire. The report lands in
# target/ci/BENCH_energy.json.
cargo run --release -p amp-experiments --bin energy_sweep -- --smoke --out target/ci/BENCH_energy.json

# Wire hot-path gates, release mode: the zero-steady-state-allocation
# gates (a warm pump cycle — rent pooled buffer, stream-render, corked
# vectored write, recycle — and a warm cork of edge hits — LRU probe by
# borrowed key, render of the shared outcome — must perform zero heap
# allocations under the counting allocator; one stray allocation per
# cycle, or one outcome copy per hit, must trip them), the ordering gates
# (pipelined valid/malformed mix over one socket: no torn frames, engine
# order preserved; a cache hit behind a held miss answered after it), the
# count gates (the wire audit with its cache counters, LRU hits answered
# by an idle connection's reader while the only worker is held, edge
# replies byte-identical to the engine path's, typed OVERLOADED, the pool
# sweep and warm restart) and the JoinHandle-reap gate (1000 connection
# churns must not accumulate reader handles).
cargo test --release -q -p amp-net --test wire_alloc --test wire_order --test count_gates --test handle_reap

# Reconfiguration gate: the live-migration battery over a wide seed
# window — incremental re-solves over a scripted pool sequence
# (shrink/grow/original) must be bit-identical to fresh solves
# (RECONF_DIVERGE), and the epoch-barrier simulator mirror must account
# for every frame exactly once, in order (RECONF_LOST). Narrowing to the
# reconfig battery keeps 1000 seeds cheap.
cargo run --release -p amp-conformance -- --reconfig-only --seeds 1000 --max-tasks 8 --max-big 4 --max-little 4

# Reconfig-sweep smoke gate: a fixed 8-task chain migrated live
# (wide -> narrow -> wide) on the threaded runtime versus the same pool
# script paid as stop-the-world restarts. Exits non-zero if any live run
# loses a frame, a migration goes unobserved, or the median live
# sink-departure gap is not strictly below the median restart gap. The
# report lands in target/ci/BENCH_reconfig.json.
cargo run --release -p amp-experiments --bin reconfig_sweep -- --smoke --out target/ci/BENCH_reconfig.json

# Wall-clock gate, release mode: measured runtime fps against the
# analytic period of the schedule, profiled weights against the work
# model they measure, and the scheduler timings on the seeded perf
# workload — HeRAD's sweep_speedup >= 1.5, batched no slower than cold
# and cold-sweep solves, and the chain tier >= 1.5x faster than the cold
# sweep — and the wire's latency-bounded capacity: open-loop rungs timed
# from each frame's due instant must carry achieved/offered >= 0.98 with
# p99 <= 1 ms at 20k frames/s on one connection and p99 <= 5 ms at 4k
# frames/s over 64 connections, while a shard sleeping 1 ms per solve
# must fail achieved/offered. Tier-1 keeps only the counts of the same
# runs (frame counts and lengths, zero steady-state allocations, one cold
# solve per chain, the wire audit, typed OVERLOADED under a parked
# worker, the pool sweep and warm restart); host load moves the timings,
# so they are asserted here. The two long runtime runs ride along: the
# ordered ring's n->m liveness check over a million frames, and a sink
# record that stays flat over a hundred million departures of an
# unbounded launch. The wide differential check of memoized 2CATAC
# against the two-branch recursion (every probe of 4000 seeded chains of
# up to 40 tasks on pools up to 20+20) rides along too: it is long rather
# than timed.
cargo test --release -q -p amp-runtime --test throughput -- --ignored
cargo test --release -q -p amp-runtime --lib profiler -- --ignored
cargo test --release -q -p amp-runtime --lib -- --ignored --exact adaptor::tests::n_to_m_stays_live_for_a_million_frames pipeline::tests::unbounded_launch_keeps_a_flat_sink_record_for_1e8_departures
cargo test --release -q -p amp-integration-tests --test end_to_end -- --ignored
cargo test --release -q -p amp-conformance --test sweep_warm_start -- --ignored
cargo test --release -q -p amp-net --test wire_capacity -- --ignored --nocapture
cargo test --release -q -p amp-core --lib -- --ignored --exact sched::twocatac::tests::memo_matches_the_recursion_up_to_40_tasks_on_20_plus_20
