//! The wire's count gates: real sockets against a real server, each
//! decided by counts, never by the clock, and each with a negative test
//! that shows it trips.
//!
//! * **Audit** — pipelined frames whose ids are partitioned by
//!   connection (`conn << 32 | seq`) come back exactly once each, on
//!   their own connection, all ok. With one worker per shard the LRU
//!   answers every repeat of a cache key, so cache hits are frames
//!   minus distinct keys, and the cache's hits plus misses count every
//!   frame once, whether the reader or a worker answered it.
//! * **Edge** — with the shard's only worker held, LRU hits on an idle
//!   connection are still answered, by its reader, and the status frame
//!   counts them; a reply answered there is byte for byte the reply the
//!   engine's own hit path renders.
//! * **Overload** — with the shard's only worker parked and its depth-1
//!   queue full, every further frame is answered with a typed
//!   `OVERLOADED`, never silence.
//! * **Pool sweep** — 12 pool shapes of one chain cost one cold HeRAD
//!   solve and 11 chain-tier serves, and the saved tier snapshot is the
//!   checked-in `SNAP_chain_tier.json`, byte for byte.
//! * **Warm restart** — a server booted from that snapshot serves the
//!   sweep with no cold solve.

mod common;

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::Duration;

use amp_core::json::Json;
use amp_net::proto::{parse_response, render_request, render_response_line, ClientResponse};
use amp_net::{Server, ServerConfig};
use amp_service::{ChainTierStats, EngineConfig, Objective, Policy, ScheduleRequest, TaskSpec};
use rand::{rngs::StdRng, Rng, SeedableRng};

const READ_TIMEOUT: Duration = Duration::from_secs(10);

fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .expect("read timeout");
    stream
}

/// Reads up to `n` frames; fewer when the server closes or goes quiet
/// for [`READ_TIMEOUT`].
fn read_frames(reader: &mut impl BufRead, n: usize) -> Vec<String> {
    let mut frames = Vec::with_capacity(n);
    while frames.len() < n {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(len) if len > 0 => frames.push(line.trim_end().to_string()),
            _ => break,
        }
    }
    frames
}

// ---------------------------------------------------------------- audit

/// The instances the audit draws from: a pool far smaller than the
/// frame count, so most frames repeat a cache key.
const DISTINCT: u64 = 8;

/// Small instance `seed`: 2–8 tasks on 1–4 big and 1–4 little cores,
/// solved by FERTAC, HeRAD or 2CATAC (each always complete, so cached).
fn instance(seed: u64) -> ScheduleRequest {
    let mut rng = StdRng::seed_from_u64(seed);
    let tasks = (0..rng.gen_range(2..=8))
        .map(|_| TaskSpec {
            weight_big: rng.gen_range(1..=48),
            weight_little: rng.gen_range(1..=96),
            replicable: rng.gen_bool(0.5),
        })
        .collect();
    let policy = ["FERTAC", "HeRAD", "2CATAC"][rng.gen_range(0..3usize)];
    ScheduleRequest {
        id: 0,
        tasks,
        big_cores: rng.gen_range(1..=4),
        little_cores: rng.gen_range(1..=4),
        policy: Policy::Strategy(policy.to_string()),
        objective: Objective::Period,
        deadline_us: None,
    }
}

/// Frame `seq` of connection `conn`.
fn audit_frame(conn: u64, seq: u64) -> ScheduleRequest {
    ScheduleRequest {
        id: (conn << 32) | seq,
        ..instance((conn + seq) % DISTINCT)
    }
}

/// What the connections' replies show.
#[derive(Debug, Default, PartialEq, Eq)]
struct Audit {
    /// Frames that no reply answered.
    lost: u64,
    /// Replies to a frame already answered.
    duplicated: u64,
    /// Replies naming no frame of the connection they arrived on.
    misrouted: u64,
    /// Success replies.
    ok: u64,
    /// Success replies served from the LRU.
    cache_hits: u64,
}

/// Audits the replies each connection read: `replies[conn]` answers
/// connection `conn`, which sent frames `0..sent`.
fn audit(sent: u64, replies: &[Vec<String>]) -> Audit {
    let mut audit = Audit::default();
    for (conn, replies) in replies.iter().enumerate() {
        let mut seen = vec![false; sent as usize];
        for reply in replies {
            let Ok(ClientResponse {
                id: Some(id),
                result,
            }) = parse_response(reply)
            else {
                audit.misrouted += 1;
                continue;
            };
            let seq = id & 0xFFFF_FFFF;
            if id >> 32 != conn as u64 || seq >= sent {
                audit.misrouted += 1;
                continue;
            }
            if std::mem::replace(&mut seen[seq as usize], true) {
                audit.duplicated += 1;
                continue;
            }
            if let Ok(payload) = result {
                audit.ok += 1;
                let hit = payload.as_obj().and_then(|o| o.get("cache_hit"));
                audit.cache_hits += u64::from(hit == Some(&Json::Bool(true)));
            }
        }
        audit.lost += seen.iter().filter(|&&answered| !answered).count() as u64;
    }
    audit
}

/// Pipelines `frames` frames on connection `conn` (a writer thread
/// sends while this thread reads) and returns the replies.
fn drive_connection(addr: SocketAddr, conn: u64, frames: u64) -> Vec<String> {
    let stream = connect(addr);
    let mut writer = stream.try_clone().expect("clone");
    let burst: String = (0..frames)
        .map(|seq| render_request(&audit_frame(conn, seq), "public") + "\n")
        .collect();
    std::thread::scope(|scope| {
        scope.spawn(move || writer.write_all(burst.as_bytes()).expect("write"));
        read_frames(&mut BufReader::new(stream), frames as usize)
    })
}

/// Runs `conns` connections of `frames` pipelined frames each against a
/// four-shard server with one worker per shard. Returns the summed
/// audit, the number of distinct cache keys sent, and the status JSON.
fn run_audit(conns: u64, frames: u64) -> (Audit, u64, String) {
    let server = Server::start(ServerConfig {
        shards: 4,
        per_shard: EngineConfig {
            workers: 1,
            racer_threads: 0,
            // Room for every frame: no frame may be refused.
            queue_depth: (conns * frames) as usize,
            cache_capacity: 1024,
            cache_shards: 8,
            ..EngineConfig::default()
        },
        max_connections: conns as usize,
        quota: None,
        ..ServerConfig::default()
    })
    .expect("server");
    let addr = server.local_addr();
    let replies: Vec<Vec<String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..conns)
            .map(|conn| scope.spawn(move || drive_connection(addr, conn, frames)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    let keys: HashSet<String> = (0..conns)
        .flat_map(|conn| (0..frames).map(move |seq| (conn, seq)))
        .map(|(conn, seq)| {
            let frame = ScheduleRequest {
                id: 0,
                ..audit_frame(conn, seq)
            };
            render_request(&frame, "public")
        })
        .collect();
    let status = server.status_json();
    server.shutdown();
    (audit(frames, &replies), keys.len() as u64, status)
}

/// The counters the audit reads off a status document.
#[derive(Debug, PartialEq, Eq)]
struct Served {
    /// Requests the fleet served (`fleet.service.requests`).
    requests: u64,
    /// The fleet's exact-LRU hits and misses.
    hits: u64,
    misses: u64,
    /// Requests a connection's reader answered itself.
    edge_answers: u64,
}

/// Reads [`Served`] off a status document (the `ok` payload of a status
/// frame, or [`Server::status_json`]).
fn served(status: &str) -> Served {
    let doc = Json::parse(status).expect("status parses");
    let int = |path: &[&str]| -> u64 {
        let mut at = &doc;
        for key in path {
            at = at
                .as_obj()
                .and_then(|o| o.get(*key))
                .unwrap_or_else(|| panic!("status lacks {path:?}: {status}"));
        }
        match at {
            Json::Int(n) => *n,
            other => panic!("{path:?} is not an integer: {other:?}"),
        }
    };
    Served {
        requests: int(&["fleet", "service", "requests"]),
        hits: int(&["fleet", "cache", "hits"]),
        misses: int(&["fleet", "cache", "misses"]),
        edge_answers: int(&["net", "edge_answers"]),
    }
}

fn assert_audit_clean(conns: u64, frames: u64) {
    let (audit, distinct, status) = run_audit(conns, frames);
    let sent = conns * frames;
    assert_eq!(
        audit,
        Audit {
            lost: 0,
            duplicated: 0,
            misrouted: 0,
            ok: sent,
            cache_hits: sent - distinct,
        },
        "{conns} connections x {frames} frames ({distinct} distinct keys)"
    );
    assert!(
        status.contains("\"per_shard\""),
        "the status frame exposes per-shard counters: {status}"
    );
    // Each frame is served once, by its reader or by a worker, and
    // counted once: a hit either way, a miss only by the worker.
    let counts = served(&status);
    assert_eq!(counts.requests, sent, "{counts:?}");
    assert_eq!(counts.hits + counts.misses, sent, "{counts:?}");
    assert_eq!(counts.hits, sent - distinct, "{counts:?}");
    assert!(counts.edge_answers <= counts.hits, "{counts:?}");
}

#[test]
fn four_connections_of_256_pipelined_frames_audit_clean() {
    assert_audit_clean(4, 256);
}

#[test]
fn sixty_four_connections_of_16_pipelined_frames_audit_clean() {
    assert_audit_clean(64, 16);
}

/// Real replies of one connection, then the same replies with one
/// dropped, one repeated and one carrying another connection's id.
#[test]
fn the_audit_flags_a_dropped_a_duplicated_and_a_misrouted_reply() {
    let server = Server::start(ServerConfig::default()).expect("server");
    let replies = drive_connection(server.local_addr(), 0, 16);
    server.shutdown();
    assert_eq!(audit(16, std::slice::from_ref(&replies)).ok, 16);

    let mut dropped = replies.clone();
    dropped.remove(5);
    assert_eq!(audit(16, &[dropped]).lost, 1);

    let mut duplicated = replies.clone();
    duplicated.push(replies[5].clone());
    assert_eq!(audit(16, &[duplicated]).duplicated, 1);

    let mut misrouted = replies;
    let index = misrouted
        .iter()
        .position(|r| r.starts_with("{\"id\":5,"))
        .expect("frame 5 answered");
    misrouted[index] =
        misrouted[index].replacen("{\"id\":5,", &format!("{{\"id\":{},", 1u64 << 32), 1);
    let flagged = audit(16, &[misrouted]);
    assert_eq!((flagged.misrouted, flagged.lost), (1, 1));
}

// ------------------------------------------------------------- overload

/// Frames the overload run sends, ids `0..OVERLOAD_FRAMES`.
const OVERLOAD_FRAMES: u64 = 64;

/// One shard, one worker, a queue of `queue_depth`, one frame per
/// hand-off. Frame 0 parks the worker; frames 1.. then arrive in one
/// write, followed by a ping whose pong marks the end of the answers
/// given while the worker is parked. Returns every reply.
fn run_overload(queue_depth: usize) -> Vec<ClientResponse> {
    let gate = common::gate(true);
    let server = Server::start(ServerConfig {
        shards: 1,
        per_shard: EngineConfig {
            workers: 1,
            racer_threads: 0,
            queue_depth,
            cache_capacity: 0,
            // Off, so HeRAD frames run the wrapped solver too.
            chain_capacity: 0,
            fault_wrap: Some(gate.wrap.clone()),
            ..EngineConfig::default()
        },
        window: 512,
        batch_max: 1,
        quota: None,
        ..ServerConfig::default()
    })
    .expect("server");
    let mut stream = connect(server.local_addr());
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let frame = |id: u64| render_request(&ScheduleRequest { id, ..instance(id) }, "public") + "\n";
    stream.write_all(frame(0).as_bytes()).expect("write");
    gate.parked
        .recv_timeout(READ_TIMEOUT)
        .expect("frame 0 parks the worker");
    let mut burst: String = (1..OVERLOAD_FRAMES).map(frame).collect();
    burst.push_str("{\"op\":\"ping\"}\n");
    stream.write_all(burst.as_bytes()).expect("write");

    let mut replies = Vec::new();
    while let Some(line) = read_frames(&mut reader, 1).pop() {
        if line.contains("pong") {
            break;
        }
        replies.push(parse_response(&line).expect("a well-formed frame"));
    }
    gate.release.send(()).expect("the worker listens");
    let rest = OVERLOAD_FRAMES as usize - replies.len();
    for line in read_frames(&mut reader, rest) {
        replies.push(parse_response(&line).expect("a well-formed frame"));
    }
    drop(stream);
    server.shutdown();
    replies
}

/// The overload gate: every frame answered exactly once; the `held`
/// frames the parked worker and its queue hold answered ok, every other
/// one `OVERLOADED`. Returns the checks that failed.
fn overload_failures(replies: &[ClientResponse], held: u64) -> Vec<&'static str> {
    let mut failures = Vec::new();
    let mut ids: Vec<Option<u64>> = replies.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    if ids != (0..OVERLOAD_FRAMES).map(Some).collect::<Vec<_>>() {
        failures.push("every frame answered exactly once");
    }
    let code = |code: &str| {
        replies
            .iter()
            .filter(|r| r.result.as_ref().is_err_and(|(c, _)| c == code))
            .count() as u64
    };
    if code("OVERLOADED") != OVERLOAD_FRAMES - held {
        failures.push("every frame beyond the held ones answered OVERLOADED");
    }
    if replies.iter().filter(|r| r.result.is_ok()).count() as u64 != held {
        failures.push("the held frames answered ok");
    }
    failures
}

#[test]
fn a_parked_worker_behind_a_full_queue_answers_every_further_frame_overloaded() {
    // Held: the frame on the parked worker and the one in its queue.
    let failures = overload_failures(&run_overload(1), 2);
    assert!(failures.is_empty(), "{failures:?}");
}

/// Negative: a queue deep enough for every frame holds them all, so no
/// `OVERLOADED` surfaces and the gate fails.
#[test]
fn a_queue_deep_enough_for_every_frame_fails_the_overload_gate() {
    let failures = overload_failures(&run_overload(OVERLOAD_FRAMES as usize), 2);
    assert!(
        failures.contains(&"every frame beyond the held ones answered OVERLOADED"),
        "{failures:?}"
    );
}

// ----------------------------------------------------------------- edge

/// Instance `seed` of the audit, solved by FERTAC: a direct solve, so
/// the gate's wrap sees it.
fn fertac(id: u64, seed: u64) -> ScheduleRequest {
    ScheduleRequest {
        id,
        policy: Policy::Strategy("FERTAC".to_string()),
        ..instance(seed)
    }
}

/// One shard, one worker behind `gate`, the LRU on and the chain tier
/// off.
fn gated_server(gate: &common::Gate) -> Server {
    Server::start(ServerConfig {
        shards: 1,
        per_shard: EngineConfig {
            workers: 1,
            racer_threads: 0,
            queue_depth: 64,
            cache_capacity: 64,
            cache_shards: 2,
            chain_capacity: 0,
            fault_wrap: Some(gate.wrap.clone()),
            ..EngineConfig::default()
        },
        quota: None,
        ..ServerConfig::default()
    })
    .expect("server")
}

/// Sends `frames` on `stream` in one write and reads up to `n` replies,
/// each within `timeout`.
fn exchange(stream: &TcpStream, frames: &str, n: usize, timeout: Duration) -> Vec<String> {
    stream.set_read_timeout(Some(timeout)).expect("timeout");
    (&*stream).write_all(frames.as_bytes()).expect("write");
    read_frames(&mut BufReader::new(stream), n)
}

/// Hits on a connection with nothing outstanding need no worker: the
/// reader answers them from the shard's LRU while the shard's only
/// worker is held on another connection's miss. The status frame counts
/// them, and the cache counts every request once.
#[test]
fn lru_hits_on_an_idle_connection_are_answered_while_the_only_worker_is_held() {
    const HITS: u64 = 16;
    let gate = common::gate(false);
    let server = gated_server(&gate);
    let addr = server.local_addr();
    let frame = |request: &ScheduleRequest| render_request(request, "public") + "\n";

    // One solve puts instance 1 in the LRU.
    let warm = connect(addr);
    let replies = exchange(&warm, &frame(&fertac(0, 1)), 1, READ_TIMEOUT);
    assert_eq!(replies.len(), 1, "the warm-up is answered");

    // A miss on a second connection holds the worker.
    gate.armed.store(true, Ordering::SeqCst);
    let held = connect(addr);
    (&held)
        .write_all(frame(&fertac(1, 2)).as_bytes())
        .expect("write");
    gate.parked
        .recv_timeout(READ_TIMEOUT)
        .expect("the miss holds the worker");

    // Repeats of instance 1 on an idle third connection.
    let idle = connect(addr);
    let burst: String = (0..HITS).map(|i| frame(&fertac(100 + i, 1))).collect();
    let replies = exchange(&idle, &burst, HITS as usize, Duration::from_secs(2));
    let hits = replies
        .iter()
        .filter_map(|r| parse_response(r).ok())
        .filter(|r| {
            r.result.as_ref().is_ok_and(|ok| {
                ok.as_obj().and_then(|o| o.get("cache_hit")) == Some(&Json::Bool(true))
            })
        })
        .count() as u64;
    assert_eq!(hits, HITS, "hits answered while the worker is held");

    let status = exchange(&idle, "{\"op\":\"status\"}\n", 1, READ_TIMEOUT);
    gate.release.send(()).expect("the worker listens");
    assert_eq!(
        read_frames(&mut BufReader::new(&held), 1).len(),
        1,
        "the held miss is answered once released"
    );
    let status = status.first().expect("status frame");
    let payload = status
        .strip_prefix("{\"ok\":")
        .and_then(|s| s.strip_suffix(",\"op\":\"status\"}"))
        .expect("a status frame");
    // Two misses through the worker, the hits at the edge: each request
    // counted once, as a hit or as a miss.
    assert_eq!(
        served(payload),
        Served {
            requests: HITS + 2,
            hits: HITS,
            misses: 2,
            edge_answers: HITS,
        }
    );
    server.shutdown();
}

/// A reply the reader answered at the edge is the reply the engine's hit
/// path renders for the same request, byte for byte.
#[test]
fn an_edge_reply_is_byte_for_byte_the_engine_path_reply() {
    let server = Server::start(ServerConfig {
        shards: 2,
        quota: None,
        ..ServerConfig::default()
    })
    .expect("server");
    let addr = server.local_addr();
    for seed in 0..DISTINCT {
        let frame = |id: u64| {
            render_request(
                &ScheduleRequest {
                    id,
                    ..instance(seed)
                },
                "public",
            ) + "\n"
        };
        // A fresh connection per frame: the first solves, the second
        // (idle, its instance cached) is answered at the edge.
        let solved = exchange(&connect(addr), &frame(seed), 1, READ_TIMEOUT);
        assert_eq!(solved.len(), 1);
        let edge = exchange(&connect(addr), &frame(1000 + seed), 1, READ_TIMEOUT);
        let edge = edge.first().expect("edge reply");
        let mut engine = String::new();
        render_response_line(
            &server.shards().schedule_blocking(ScheduleRequest {
                id: 1000 + seed,
                ..instance(seed)
            }),
            &mut engine,
        );
        assert!(edge.contains("\"cache_hit\":true"), "{edge}");
        assert_eq!(format!("{edge}\n"), engine, "instance {seed}");
    }
    assert_eq!(server.net_snapshot().edge_answers, DISTINCT);
    server.shutdown();
}

// -------------------------------------------------- sweep, warm restart

/// The one chain the sweep serves under every pool shape: sequential and
/// replicable stages, so the HeRAD table is not trivial.
fn sweep_chain() -> Vec<TaskSpec> {
    [
        (10, 25, false),
        (40, 90, true),
        (8, 8, true),
        (5, 12, false),
    ]
    .into_iter()
    .map(|(weight_big, weight_little, replicable)| TaskSpec {
        weight_big,
        weight_little,
        replicable,
    })
    .collect()
}

/// 12 pool shapes, growing, so the tier grows its table as well as
/// extracting from it.
fn sweep_pools() -> Vec<(u64, u64)> {
    (1..=3)
        .flat_map(|big| (0..=3).map(move |little| (big, little)))
        .collect()
}

fn checked_in_snapshot() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../SNAP_chain_tier.json")
}

fn sweep_server(chain_capacity: usize, snapshot_path: Option<PathBuf>) -> Server {
    Server::start(ServerConfig {
        shards: 4,
        per_shard: EngineConfig {
            workers: 1,
            racer_threads: 0,
            chain_capacity,
            snapshot_path,
            ..EngineConfig::default()
        },
        quota: None,
        ..ServerConfig::default()
    })
    .expect("server")
}

/// Pipelines one HeRAD frame per pool shape on one connection; returns
/// how many were answered ok and the fleet's chain-tier counters.
fn drive_sweep(server: &Server) -> (u64, ChainTierStats) {
    let mut stream = connect(server.local_addr());
    let burst: String = sweep_pools()
        .into_iter()
        .enumerate()
        .map(|(seq, (big_cores, little_cores))| {
            let request = ScheduleRequest {
                id: seq as u64,
                tasks: sweep_chain(),
                big_cores,
                little_cores,
                policy: Policy::Strategy("HeRAD".to_string()),
                objective: Objective::Period,
                deadline_us: None,
            };
            render_request(&request, "public") + "\n"
        })
        .collect();
    stream.write_all(burst.as_bytes()).expect("write");
    let replies = read_frames(&mut BufReader::new(stream), sweep_pools().len());
    let ok = replies
        .iter()
        .filter(|r| parse_response(r).is_ok_and(|r| r.result.is_ok()))
        .count() as u64;
    (ok, server.shards().tier_stats())
}

/// The sweep gate: one cold solve, every other pool served by the tier,
/// and a saved snapshot of one table equal to the checked-in file.
/// Returns the checks that failed.
fn sweep_failures(chain_capacity: usize) -> Vec<&'static str> {
    let server = sweep_server(chain_capacity, None);
    let (ok, tier) = drive_sweep(&server);
    let path = std::env::temp_dir().join(format!(
        "amp-net-sweep-{}-{chain_capacity}.json",
        std::process::id()
    ));
    let tables = server.shards().save_tier_snapshot(&path).expect("save");
    let saved = std::fs::read(&path).expect("saved snapshot");
    std::fs::remove_file(&path).ok();
    server.shutdown();
    let pools = sweep_pools().len() as u64;
    let mut failures = Vec::new();
    if ok != pools {
        failures.push("every pool answered ok");
    }
    if tier.cold_solves != 1 {
        failures.push("one cold HeRAD solve across every pool shape");
    }
    if tier.hits + tier.grows != pools - 1 {
        failures.push("every other pool served by the chain tier");
    }
    if tables != 1 {
        failures.push("the snapshot holds one table");
    }
    if saved != std::fs::read(checked_in_snapshot()).expect("checked-in snapshot") {
        failures.push("the snapshot equals SNAP_chain_tier.json byte for byte");
    }
    failures
}

#[test]
fn twelve_pool_shapes_of_one_chain_cost_one_cold_solve_and_save_the_checked_in_snapshot() {
    let failures = sweep_failures(64);
    assert!(failures.is_empty(), "{failures:?}");
}

/// Negative: with the chain tier off, every pool is a direct solve and
/// nothing is saved.
#[test]
fn a_disabled_chain_tier_fails_the_sweep_gate() {
    let failures = sweep_failures(0);
    assert!(
        failures.contains(&"one cold HeRAD solve across every pool shape"),
        "{failures:?}"
    );
}

/// The warm-restart gate: every pool extracted from the table the
/// snapshot restored, with no cold solve. Returns the checks that
/// failed.
fn warm_restart_failures(snapshot_path: Option<PathBuf>) -> Vec<&'static str> {
    let server = sweep_server(64, snapshot_path);
    let (ok, tier) = drive_sweep(&server);
    server.shutdown();
    let pools = sweep_pools().len() as u64;
    let mut failures = Vec::new();
    if ok != pools {
        failures.push("every pool answered ok");
    }
    if tier.cold_solves != 0 {
        failures.push("no cold solve after the snapshot loaded");
    }
    if tier.snapshot_loaded == 0 {
        failures.push("snapshot tables loaded at boot");
    }
    if tier.hits != pools {
        failures.push("every pool extracted from the restored table");
    }
    failures
}

#[test]
fn a_server_booted_from_the_snapshot_serves_the_sweep_without_a_cold_solve() {
    let failures = warm_restart_failures(Some(checked_in_snapshot()));
    assert!(failures.is_empty(), "{failures:?}");
}

/// Negative: booted without the snapshot, the sweep pays its cold solve.
#[test]
fn a_server_booted_without_the_snapshot_fails_the_warm_restart_gate() {
    let failures = warm_restart_failures(None);
    assert!(
        failures.contains(&"no cold solve after the snapshot loaded"),
        "{failures:?}"
    );
}
