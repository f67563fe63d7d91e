//! Ordering and integrity of the corked vectored write path, observed
//! end to end over a real socket.
//!
//! Two writers share one connection: the pump (engine responses, corked
//! into vectored writes) and the reader (direct typed rejections).
//! Whatever the interleaving, two properties must hold:
//!
//! * **No tearing**: every line the client reads is a complete,
//!   parseable frame — a vectored write that resumed after a short
//!   write must never interleave with a competing whole-frame write.
//! * **Per-connection response order**: with a single engine shard and
//!   a single worker, engine responses are produced in submission
//!   order, and the pump's cork must preserve that order on the wire.
//!   A cache hit the reader could answer itself keeps its place too: it
//!   is answered at the edge only when nothing is outstanding on its
//!   connection, and otherwise queues behind what is.
//!
//! The request mix (valid schedule frames vs malformed rejects) is
//! seeded, so failures reproduce.

mod common;

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::Duration;

use amp_net::proto;
use amp_net::{Server, ServerConfig};
use amp_service::{EngineConfig, Objective, Policy, ScheduleRequest, TaskSpec};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Ids below this are valid schedule requests; at/above are malformed
/// frames answered by the reader directly.
const REJECT_BASE: u64 = 1 << 20;

fn single_lane_config() -> ServerConfig {
    ServerConfig {
        // One shard, one worker: the engine is a FIFO, so response
        // order == submission order and any reordering is the wire's.
        shards: 1,
        per_shard: EngineConfig {
            workers: 1,
            racer_threads: 1,
            queue_depth: 512,
            cache_capacity: 256,
            cache_shards: 1,
            ..EngineConfig::default()
        },
        max_connections: 4,
        window: 128,
        batch_max: 16,
        ..ServerConfig::default()
    }
}

fn interleaved_run(seed: u64) {
    let server = Server::start(single_lane_config()).expect("server starts");
    let addr = server.local_addr();
    let mut rng = StdRng::seed_from_u64(seed);

    const TOTAL: usize = 600;
    let mut frames = String::new();
    let mut valid_ids: Vec<u64> = Vec::new();
    let mut reject_ids: Vec<u64> = Vec::new();
    for i in 0..TOTAL {
        if rng.gen_bool(0.25) {
            // Malformed: parses as JSON, fails validation — the reader
            // answers this directly, racing the pump for the socket.
            let id = REJECT_BASE + i as u64;
            frames.push_str(&format!("{{\"id\":{id},\"policy\":\"HeRAD\"}}\n"));
            reject_ids.push(id);
        } else {
            let id = i as u64;
            let tasks = (0..rng.gen_range(2..=5))
                .map(|_| {
                    format!(
                        "[{},{},{}]",
                        rng.gen_range(1..=40u64),
                        rng.gen_range(1..=80u64),
                        u8::from(rng.gen_bool(0.5))
                    )
                })
                .collect::<Vec<_>>()
                .join(",");
            frames.push_str(&format!(
                "{{\"id\":{id},\"policy\":\"FERTAC\",\"big\":2,\"little\":2,\
                 \"tasks\":[{tasks}]}}\n"
            ));
            valid_ids.push(id);
        }
    }

    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut write_half = stream.try_clone().expect("clone");
    // Pipelining everything at once maximizes batching, corking and the
    // reader/pump write race.
    let sender = std::thread::spawn(move || {
        write_half
            .write_all(frames.as_bytes())
            .expect("frames sent");
    });

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut answered: BTreeSet<u64> = BTreeSet::new();
    let mut valid_order: Vec<u64> = Vec::new();
    for _ in 0..TOTAL {
        line.clear();
        let n = reader.read_line(&mut line).expect("line readable");
        assert!(n > 0, "server closed early: {answered:?}");
        // No tearing: every line is a complete canonical frame.
        let response = proto::parse_response(line.trim_end())
            .unwrap_or_else(|e| panic!("torn/corrupt frame {line:?}: {e:?}"));
        let id = response.id.expect("every answer here carries an id");
        assert!(answered.insert(id), "id {id} answered twice");
        match response.result {
            Ok(_) => {
                assert!(id < REJECT_BASE, "malformed frame got an ok answer");
                valid_order.push(id);
            }
            Err((code, _)) => {
                assert!(id >= REJECT_BASE, "valid frame {id} rejected: {code}");
                assert_eq!(code, "BAD_REQUEST");
            }
        }
    }
    sender.join().expect("sender finishes");

    // Completeness: exactly the sent ids, each once.
    let expected: BTreeSet<u64> = valid_ids.iter().chain(&reject_ids).copied().collect();
    assert_eq!(answered, expected, "answered set mismatch");
    // Per-connection response order: the engine produced responses in
    // submission order (single lane); the corked pump must not reorder.
    assert_eq!(
        valid_order, valid_ids,
        "engine responses were reordered on the wire (seed {seed})"
    );
    server.shutdown();
}

#[test]
fn corked_pump_preserves_engine_order_amid_direct_rejections() {
    for seed in [0xC0FFEE, 1, 42] {
        interleaved_run(seed);
    }
}

/// A FERTAC frame of chain `seed` (a direct solve, so the gate sees it).
fn fertac_frame(id: u64, seed: u64) -> String {
    let request = ScheduleRequest {
        id,
        tasks: (0..3)
            .map(|i| TaskSpec {
                weight_big: 5 + seed + i,
                weight_little: 11 + 2 * seed + i,
                replicable: i == 1,
            })
            .collect(),
        big_cores: 2,
        little_cores: 2,
        policy: Policy::Strategy("FERTAC".to_string()),
        objective: Objective::Period,
        deadline_us: None,
    };
    proto::render_request(&request, "public") + "\n"
}

/// A hit sent behind an outstanding miss on the same connection is
/// answered after the miss. The miss is held on the shard's only worker
/// while the hit and a ping arrive: the pong, which the reader answers
/// at once, must come back alone, and the two replies must follow in
/// the order sent once the worker is released.
#[test]
fn a_hit_behind_an_outstanding_miss_is_answered_after_it() {
    let gate = common::gate(false);
    let server = Server::start(ServerConfig {
        shards: 1,
        per_shard: EngineConfig {
            workers: 1,
            racer_threads: 0,
            fault_wrap: Some(gate.wrap.clone()),
            ..single_lane_config().per_shard
        },
        ..single_lane_config()
    })
    .expect("server starts");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut read = || {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("line readable");
        assert!(n > 0, "server closed early");
        proto::parse_response(line.trim_end()).expect("a frame")
    };

    // Chain 1 enters the LRU.
    stream
        .write_all(fertac_frame(1, 1).as_bytes())
        .expect("write");
    assert_eq!(read().id, Some(1));

    // The miss (chain 2) holds the worker...
    gate.armed.store(true, Ordering::SeqCst);
    stream
        .write_all(fertac_frame(2, 2).as_bytes())
        .expect("write");
    gate.parked
        .recv_timeout(Duration::from_secs(30))
        .expect("the miss holds the worker");
    // ...while a hit on chain 1 and a ping arrive behind it.
    let behind = fertac_frame(3, 1) + "{\"op\":\"ping\"}\n";
    stream.write_all(behind.as_bytes()).expect("write");
    let first = read();
    assert_eq!(
        first.id, None,
        "the pong must come first: a reply ahead of it jumped the held miss ({first:?})"
    );
    gate.release.send(()).expect("the worker listens");
    assert_eq!(read().id, Some(2), "the held miss is answered first");
    let hit = read();
    assert_eq!(hit.id, Some(3));
    let payload = hit.result.expect("the hit is answered ok");
    assert_eq!(
        payload.as_obj().and_then(|o| o.get("cache_hit")),
        Some(&amp_core::json::Json::Bool(true))
    );
    assert_eq!(server.net_snapshot().edge_answers, 0);
    drop(stream);
    server.shutdown();
}
