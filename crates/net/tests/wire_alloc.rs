//! The zero-steady-state-allocation gate for the wire hot path.
//!
//! The response pump's per-response work is: rent a pooled buffer,
//! stream-render the frame into it, cork it into one vectored write,
//! return the buffer. After warmup (buffers grown to frame size, pool
//! populated, cork vector at capacity) that cycle must not touch the
//! heap at all — the same discipline PR 3 pinned for the scheduler's
//! solve path, now extended to the wire in front of it.
//!
//! The request side has a budget rather than a zero: decoding a frame
//! must allocate only what the decoded request owns. A cache hit the
//! connection's reader answers itself (probe the shard's LRU, render the
//! shared outcome into a pooled buffer, cork, write, recycle) then adds
//! nothing to it.
//!
//! The counting allocator tracks per-thread allocation counts, so
//! `cargo test`'s parallel test threads cannot pollute the delta.

use std::io::{self, IoSlice, Write};

use amp_conformance::alloc_track::{count_thread_allocs, TrackingAllocator};
use amp_core::json::Json;
use amp_core::sched::Scheduler;
use amp_core::{Resources, Task, TaskChain};
use amp_net::proto::{
    parse_request, render_error_line, render_outcome_line, render_request, render_response_line,
};
use amp_net::{write_frames, BufPool, CORK_MAX};
use amp_service::{
    EngineConfig, EngineShards, Policy, ScheduleOutcome, ScheduleRequest, ScheduleResponse,
    TaskSpec,
};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator;

/// Accepts every byte without storing (or allocating) anything — the
/// gate measures the framing path, not the kernel.
struct NullSink;

impl Write for NullSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Ok(buf.len())
    }

    fn write_vectored(&mut self, bufs: &[IoSlice]) -> io::Result<usize> {
        Ok(bufs.iter().map(|b| b.len()).sum())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn sample_response() -> ScheduleResponse {
    let chain = TaskChain::new(vec![
        Task::new(10, 25, false),
        Task::new(40, 90, true),
        Task::new(5, 12, false),
    ]);
    let request = ScheduleRequest::from_chain(
        7,
        &chain,
        Resources::new(2, 2),
        Policy::Strategy("FERTAC".to_string()),
    );
    let solution = amp_core::sched::Fertac
        .schedule(&chain, request.resources())
        .expect("feasible");
    ScheduleResponse {
        id: 0,
        result: Ok(ScheduleOutcome::from_solution(
            "FERTAC", &solution, &chain, true,
        )),
    }
}

/// One pump cycle: render a full cork of responses into pooled buffers,
/// vector-write them, recycle the buffers. The first `oracle_frames`
/// frames are re-rendered through a `Json` tree, which allocates: the
/// negative test's stray allocation.
fn pump_cycle(
    response: &mut ScheduleResponse,
    pool: &mut BufPool,
    cork: &mut Vec<String>,
    sink: &mut NullSink,
    oracle_frames: usize,
) {
    for i in 0..CORK_MAX {
        response.id = response.id.wrapping_add(1);
        let mut buf = pool.rent();
        render_response_line(response, &mut buf);
        if i < oracle_frames {
            let tree = Json::parse(buf.trim_end()).expect("a rendered frame parses");
            buf.clear();
            buf.push_str(&tree.render_compact());
            buf.push('\n');
        }
        cork.push(buf);
    }
    write_frames(sink, cork).expect("sink never fails");
    for buf in cork.drain(..) {
        pool.give(buf);
    }
}

/// The gate's measurement: heap allocations over 256 warm pump cycles.
fn warm_pump_allocs(oracle_frames: usize) -> u64 {
    let mut response = sample_response();
    let mut pool = BufPool::new(CORK_MAX);
    let mut cork: Vec<String> = Vec::with_capacity(CORK_MAX);
    let mut sink = NullSink;
    // Warmup: grow every buffer to frame size and fill the pool.
    for _ in 0..4 {
        pump_cycle(
            &mut response,
            &mut pool,
            &mut cork,
            &mut sink,
            oracle_frames,
        );
    }
    let (_, allocs) = count_thread_allocs(|| {
        for _ in 0..256 {
            pump_cycle(
                &mut response,
                &mut pool,
                &mut cork,
                &mut sink,
                oracle_frames,
            );
        }
    });
    allocs
}

#[test]
fn steady_state_response_path_allocates_nothing() {
    let allocs = warm_pump_allocs(0);
    assert_eq!(
        allocs, 0,
        "warm framing+write path must not allocate (got {allocs} allocations \
         over 256 corks of {CORK_MAX} responses)"
    );
}

/// The counter sees the window it measures: one frame per cork rendered
/// through the tree oracle fails the gate.
#[test]
fn one_stray_allocation_per_cycle_fails_the_gate() {
    let allocs = warm_pump_allocs(1);
    assert!(
        allocs >= 256,
        "one tree-rendered frame per cork must count at least one allocation \
         per cycle (got {allocs} over 256 cycles)"
    );
}

#[test]
fn steady_state_error_framing_allocates_nothing() {
    let mut pool = BufPool::new(4);
    let mut sink = NullSink;
    let cycle = |pool: &mut BufPool, sink: &mut NullSink| {
        let mut buf = pool.rent();
        render_error_line(
            Some(41),
            "OVERLOADED",
            "service queue is full; retry with backoff",
            &mut buf,
        );
        write_frames(sink, &[buf.as_bytes()]).expect("sink never fails");
        pool.give(buf);
    };
    for _ in 0..4 {
        cycle(&mut pool, &mut sink);
    }
    let (_, allocs) = count_thread_allocs(|| {
        for _ in 0..1024 {
            cycle(&mut pool, &mut sink);
        }
    });
    assert_eq!(allocs, 0, "warm error framing must not allocate");
}

/// Decoding a canonical 64-task schedule frame allocates only what the
/// request owns: the task vector as it grows (4, 8, 16, 32, 64 slots),
/// the policy name and the tenant. Keys, integers and every string
/// without escapes are read in place.
#[test]
fn request_decode_allocates_only_what_the_request_owns() {
    let tasks = (0..64)
        .map(|i| TaskSpec {
            weight_big: 10 + i,
            weight_little: 25 + 3 * i,
            replicable: i % 3 == 0,
        })
        .collect();
    let request = ScheduleRequest {
        id: 7,
        tasks,
        big_cores: 4,
        little_cores: 4,
        policy: Policy::Strategy("HeRAD".to_string()),
        objective: amp_service::Objective::Period,
        deadline_us: Some(5000),
    };
    let frame = render_request(&request, "acme");
    let (decoded, allocs) = count_thread_allocs(|| parse_request(&frame, 64));
    assert!(decoded.is_ok(), "{decoded:?}");
    assert!(
        allocs <= 8,
        "decoding a 64-task frame made {allocs} heap allocations (budget 8)"
    );
}

/// One cork of edge hits as the reader serves them: each probes the
/// shard's LRU for the decoded `request`, renders the shared outcome
/// into a pooled buffer, and the cork goes out in one vectored write
/// before its buffers are recycled. With `copy_outcome` each hit also
/// copies the outcome, the allocation an owned reply would cost.
fn edge_cycle(
    shards: &EngineShards,
    request: &ScheduleRequest,
    pool: &mut BufPool,
    cork: &mut Vec<String>,
    sink: &mut NullSink,
    copy_outcome: bool,
) {
    for _ in 0..CORK_MAX {
        let outcome = shards.answer_from_cache(request).expect("an LRU hit");
        let mut buf = pool.rent();
        if copy_outcome {
            let owned: ScheduleOutcome = (*outcome).clone();
            render_outcome_line(request.id, &owned, true, &mut buf);
        } else {
            render_outcome_line(request.id, &outcome, true, &mut buf);
        }
        cork.push(buf);
    }
    write_frames(sink, cork).expect("sink never fails");
    for buf in cork.drain(..) {
        pool.give(buf);
    }
}

/// The gate's measurement: heap allocations over 256 warm corks of edge
/// hits on a decoded 64-task request whose outcome the LRU holds.
fn warm_edge_allocs(copy_outcome: bool) -> u64 {
    let shards = EngineShards::start(
        2,
        &EngineConfig {
            workers: 1,
            racer_threads: 0,
            queue_depth: 4,
            cache_capacity: 16,
            cache_shards: 2,
            ..EngineConfig::default()
        },
    );
    let chain = TaskChain::new(
        (0..64)
            .map(|i| Task::new(10 + i, 25 + 3 * i, i % 3 == 0))
            .collect(),
    );
    let frame = render_request(
        &ScheduleRequest::from_chain(
            7,
            &chain,
            Resources::new(4, 4),
            Policy::Strategy("FERTAC".to_string()),
        ),
        "public",
    );
    let Ok(amp_net::WireRequest::Schedule { request, .. }) = parse_request(&frame, 64) else {
        panic!("the frame decodes");
    };
    assert!(shards.schedule_blocking(request.clone()).result.is_ok());
    let mut pool = BufPool::new(CORK_MAX);
    let mut cork: Vec<String> = Vec::with_capacity(CORK_MAX);
    let mut sink = NullSink;
    for _ in 0..4 {
        edge_cycle(
            &shards,
            &request,
            &mut pool,
            &mut cork,
            &mut sink,
            copy_outcome,
        );
    }
    let (_, allocs) = count_thread_allocs(|| {
        for _ in 0..256 {
            edge_cycle(
                &shards,
                &request,
                &mut pool,
                &mut cork,
                &mut sink,
                copy_outcome,
            );
        }
    });
    shards.shutdown();
    allocs
}

#[test]
fn a_warm_edge_hit_allocates_nothing_beyond_the_decoded_request() {
    let allocs = warm_edge_allocs(false);
    assert_eq!(
        allocs, 0,
        "warm edge hits must not allocate (got {allocs} allocations over 256 corks of \
         {CORK_MAX} hits)"
    );
}

/// The counter sees the edge path: copying the outcome once per hit
/// fails the gate.
#[test]
fn one_outcome_copy_per_hit_fails_the_edge_gate() {
    let allocs = warm_edge_allocs(true);
    assert!(
        allocs >= 256 * CORK_MAX as u64,
        "an outcome copy per hit must count at least one allocation per hit (got {allocs})"
    );
}
