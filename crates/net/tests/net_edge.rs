//! Edge-of-the-wire integration tests: real sockets against a real
//! server, probing the admission contracts and the malformed-input
//! surface.
//!
//! The contracts under test:
//!
//! * quota exhaustion answers `QUOTA_EXCEEDED` (not `OVERLOADED`), and
//!   only for the offending tenant;
//! * a full in-flight window slows the reader down (backpressure) —
//!   it never rejects and never disconnects;
//! * malformed frames (truncated JSON, oversized lines, interleaved
//!   garbage) get a typed answer or a clean close, never a panic, and
//!   never poison the frames around them.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use amp_core::json::Json;
use amp_net::{QuotaConfig, Server, ServerConfig};
use amp_service::{EngineConfig, Objective, Policy, ScheduleRequest, TaskSpec};
use rand::seq::SliceRandom;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn small_server_config() -> ServerConfig {
    ServerConfig {
        shards: 2,
        per_shard: EngineConfig {
            workers: 2,
            racer_threads: 2,
            queue_depth: 64,
            cache_capacity: 64,
            cache_shards: 2,
            ..EngineConfig::default()
        },
        ..ServerConfig::default()
    }
}

fn request(id: u64, spread: u64) -> ScheduleRequest {
    ScheduleRequest {
        id,
        tasks: vec![
            TaskSpec {
                weight_big: 10 + spread,
                weight_little: 25 + spread,
                replicable: false,
            },
            TaskSpec {
                weight_big: 40,
                weight_little: 90,
                replicable: true,
            },
        ],
        big_cores: 2,
        little_cores: 2,
        policy: Policy::Strategy("FERTAC".to_string()),
        objective: Objective::Period,
        deadline_us: None,
    }
}

fn connect(server: &Server) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone"));
    (stream, reader)
}

fn send_line(stream: &mut TcpStream, line: &str) {
    stream.write_all(line.as_bytes()).expect("write");
    stream.write_all(b"\n").expect("write newline");
}

/// Reads one response frame and returns `(id, Ok(outcome) | Err(code))`.
fn read_response(reader: &mut BufReader<TcpStream>) -> (Option<u64>, Result<Json, String>) {
    let mut line = String::new();
    let n = reader.read_line(&mut line).expect("read frame");
    assert!(n > 0, "server closed the connection unexpectedly");
    let response = amp_net::proto::parse_response(line.trim_end()).expect("parseable frame");
    (response.id, response.result.map_err(|(code, _)| code))
}

#[test]
fn quota_exhaustion_is_typed_and_tenant_scoped() {
    // per_second: 0 — no refill, so admissions are exactly the burst.
    let server = Server::start(ServerConfig {
        quota: Some(QuotaConfig {
            burst: 3,
            per_second: 0,
        }),
        ..small_server_config()
    })
    .expect("server");
    let (mut stream, mut reader) = connect(&server);

    // The hog: 6 requests against a burst of 3.
    for id in 0..6 {
        send_line(
            &mut stream,
            &amp_net::proto::render_request(&request(id, id), "hog"),
        );
    }
    let mut ok = 0;
    let mut quota = 0;
    for _ in 0..6 {
        match read_response(&mut reader) {
            (Some(_), Ok(_)) => ok += 1,
            (Some(_), Err(code)) => {
                // The typed-rejection contract: quota pressure is
                // QUOTA_EXCEEDED, never conflated with OVERLOADED.
                assert_eq!(code, "QUOTA_EXCEEDED");
                quota += 1;
            }
            other => panic!("unexpected response: {other:?}"),
        }
    }
    assert_eq!((ok, quota), (3, 3));

    // Fairness: a quiet tenant on the same connection is untouched.
    send_line(
        &mut stream,
        &amp_net::proto::render_request(&request(100, 1), "quiet"),
    );
    let (id, result) = read_response(&mut reader);
    assert_eq!(id, Some(100));
    assert!(result.is_ok(), "quiet tenant must still be admitted");

    // And the hog stays rejected (no refill at per_second 0).
    send_line(
        &mut stream,
        &amp_net::proto::render_request(&request(101, 1), "hog"),
    );
    let (id, result) = read_response(&mut reader);
    assert_eq!(id, Some(101));
    assert_eq!(result.expect_err("hog is out of quota"), "QUOTA_EXCEEDED");

    drop(stream);
    server.shutdown();
}

#[test]
fn full_window_backpressures_instead_of_disconnecting() {
    let window = 4;
    let server = Server::start(ServerConfig {
        window,
        ..small_server_config()
    })
    .expect("server");
    let (mut stream, mut reader) = connect(&server);

    // Pipeline far more requests than the window admits at once. All
    // must be answered: a full window pauses the reader, it never
    // rejects or closes.
    let total = 100u64;
    for id in 0..total {
        send_line(
            &mut stream,
            &amp_net::proto::render_request(&request(id, id % 7), "public"),
        );
    }
    let mut seen = vec![false; total as usize];
    for _ in 0..total {
        let (id, result) = read_response(&mut reader);
        let id = id.expect("every response correlates") as usize;
        assert!(!seen[id], "duplicate response for id {id}");
        seen[id] = true;
        assert!(result.is_ok(), "no request may be rejected by the window");
    }
    assert!(seen.iter().all(|&answered| answered));

    // The wire metrics prove the bound held: at no instant were more
    // than `window` requests of this connection in flight.
    let snapshot = server.net_snapshot();
    assert_eq!(snapshot.accepted, total);
    assert!(
        snapshot.peak_inflight <= window as u64,
        "peak inflight {} exceeded the window {}",
        snapshot.peak_inflight,
        window
    );
    assert_eq!(snapshot.connections_refused, 0);

    drop(stream);
    server.shutdown();
}

#[test]
fn malformed_frames_get_typed_answers_and_spare_their_neighbors() {
    let server = Server::start(ServerConfig {
        max_line_bytes: 1024,
        ..small_server_config()
    })
    .expect("server");
    let (mut stream, mut reader) = connect(&server);

    // 1. Interleaved garbage: answered PARSE_ERROR, connection lives.
    send_line(&mut stream, "!!! this is not json !!!");
    let (id, result) = read_response(&mut reader);
    assert_eq!(id, None, "garbage has no recoverable id");
    assert_eq!(result.expect_err("garbage is rejected"), "PARSE_ERROR");

    // 2. Truncated JSON — a strict prefix of a request object. The
    //    codec must refuse it (a prefix of a container never parses).
    let valid = amp_net::proto::render_request(&request(7, 1), "public");
    send_line(&mut stream, &valid[..valid.len() / 2]);
    let (_, result) = read_response(&mut reader);
    let code = result.expect_err("truncated frame is rejected");
    assert!(
        code == "PARSE_ERROR" || code == "BAD_REQUEST",
        "unexpected code {code}"
    );

    // 3. Oversized line: typed FRAME_TOO_LARGE, then the connection
    //    keeps working.
    let huge = format!("{{\"id\":9,\"pad\":\"{}\"}}", "x".repeat(4096));
    send_line(&mut stream, &huge);
    let (_, result) = read_response(&mut reader);
    assert_eq!(
        result.expect_err("oversized is rejected"),
        "FRAME_TOO_LARGE"
    );

    // 4. A well-formed request right after all that abuse still works.
    send_line(
        &mut stream,
        &amp_net::proto::render_request(&request(42, 3), "public"),
    );
    let (id, result) = read_response(&mut reader);
    assert_eq!(id, Some(42));
    assert!(
        result.is_ok(),
        "the connection must survive malformed frames"
    );

    // 5. Structured-but-wrong: valid JSON missing required fields keeps
    //    its id for correlation.
    send_line(&mut stream, "{\"id\":77,\"policy\":\"FERTAC\"}");
    let (id, result) = read_response(&mut reader);
    assert_eq!(id, Some(77));
    assert_eq!(result.expect_err("missing fields"), "BAD_REQUEST");

    let snapshot = server.net_snapshot();
    assert!(snapshot.parse_errors >= 3);
    assert_eq!(snapshot.oversized_frames, 1);
    assert_eq!(snapshot.connections_refused, 0);

    drop(stream);
    server.shutdown();
}

#[test]
fn deeply_nested_frame_is_answered_and_the_server_keeps_serving() {
    // 20 KB nested 10 000 deep: recursing once per level would overflow
    // the reader's stack and abort the whole process.
    let server = Server::start(small_server_config()).expect("server");
    let (mut stream, mut reader) = connect(&server);
    let depth = 10_000;
    let frame = format!("{{\"x\":{}{}}}", "[".repeat(depth), "]".repeat(depth));
    send_line(&mut stream, &frame);
    let (id, result) = read_response(&mut reader);
    assert_eq!(id, None, "a syntax error carries no id");
    assert_eq!(result.expect_err("too deep"), "PARSE_ERROR");

    // The same connection goes on serving.
    send_line(
        &mut stream,
        &amp_net::proto::render_request(&request(11, 2), "public"),
    );
    let (id, result) = read_response(&mut reader);
    assert_eq!(id, Some(11));
    assert!(result.is_ok(), "the server must survive the deep frame");
    send_line(&mut stream, "{\"op\":\"ping\"}");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read pong");
    assert!(line.contains("pong"));
    assert_eq!(server.net_snapshot().parse_errors, 1);

    drop(stream);
    server.shutdown();
}

#[test]
fn fuzzed_garbage_never_panics_the_server() {
    use rand::{rngs::StdRng, Rng, SeedableRng};
    let server = Server::start(ServerConfig {
        max_line_bytes: 512,
        ..small_server_config()
    })
    .expect("server");
    let mut rng = StdRng::seed_from_u64(0xF0_22);
    let (mut stream, mut reader) = connect(&server);
    let mut expected_answers = 0u64;
    for round in 0..200u64 {
        let roll = rng.gen_range(0..5u32);
        match roll {
            // Random bytes (newline-free so they stay one frame).
            0 => {
                let len = rng.gen_range(1..64usize);
                let mut bytes: Vec<u8> = (0..len).map(|_| rng.gen_range(1..=255u8)).collect();
                for b in &mut bytes {
                    if *b == b'\n' {
                        *b = b'?';
                    }
                }
                stream.write_all(&bytes).expect("write");
                stream.write_all(b"\n").expect("newline");
                expected_answers += 1;
            }
            // Truncated valid request.
            1 => {
                let full = amp_net::proto::render_request(&request(round, round % 5), "public");
                let cut = rng.gen_range(1..full.len());
                send_line(&mut stream, &full[..cut]);
                expected_answers += 1;
            }
            // Oversized frame.
            2 => {
                send_line(&mut stream, &"y".repeat(2048));
                expected_answers += 1;
            }
            // Blank line: tolerated silently.
            3 => send_line(&mut stream, "   "),
            // A valid request, which must still succeed amid the abuse.
            _ => {
                send_line(
                    &mut stream,
                    &amp_net::proto::render_request(&request(round, round % 5), "public"),
                );
                expected_answers += 1;
            }
        }
    }
    // Every answerable frame got an answer; the connection never died.
    for _ in 0..expected_answers {
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read");
        assert!(n > 0, "server must not close mid-fuzz");
        assert!(
            amp_net::proto::parse_response(line.trim_end()).is_ok(),
            "every answer is a well-formed frame: {line:?}"
        );
    }
    // Liveness proof: a ping round-trips after the storm.
    send_line(&mut stream, "{\"op\":\"ping\"}");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read pong");
    assert!(line.contains("pong"));

    drop(stream);
    server.shutdown();
}

#[test]
fn status_frame_exposes_fleet_and_per_shard_cache_counters() {
    let server = Server::start(small_server_config()).expect("server");
    let (mut stream, mut reader) = connect(&server);

    // Warm the cache: same instance twice; the second must be a hit.
    for id in [1u64, 2] {
        send_line(
            &mut stream,
            &amp_net::proto::render_request(&request(id, 0), "public"),
        );
        let (_, result) = read_response(&mut reader);
        assert!(result.is_ok());
    }

    send_line(&mut stream, "{\"op\":\"status\"}");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read status");
    let parsed = Json::parse(line.trim_end()).expect("status frame parses");
    let Json::Obj(top) = parsed else {
        panic!("status must be an object")
    };
    let Some(Json::Obj(ok)) = top.get("ok") else {
        panic!("status carries ok")
    };
    let Some(Json::Obj(net)) = ok.get("net") else {
        panic!("status carries net counters")
    };
    assert!(net.contains_key("frames_in"));
    let Some(Json::Obj(fleet)) = ok.get("fleet") else {
        panic!("status carries fleet")
    };
    let Some(Json::Obj(cache)) = fleet.get("cache") else {
        panic!("fleet carries aggregate cache stats")
    };
    assert_eq!(cache.get("hits"), Some(&Json::Int(1)), "one warm hit");
    let Some(Json::Arr(shards)) = fleet.get("per_shard") else {
        panic!("fleet carries per-shard stats")
    };
    assert_eq!(shards.len(), 2);
    for shard in shards {
        let Json::Obj(shard) = shard else {
            panic!("per-shard entry is an object")
        };
        assert!(
            shard.contains_key("cache"),
            "each shard exposes its own cache hit/miss counters"
        );
    }

    drop(stream);
    server.shutdown();
}

/// The energy objective over the socket, against the real sharded fleet:
/// a period entry warmed for a chain must not answer the energy request
/// for the same chain and pool (the cache keys on the objective), the
/// energy response carries the integer `energy_mw`, its repeat is a
/// cache hit that still carries it, and period responses never grow the
/// field.
#[test]
fn energy_objective_is_cache_separated_over_the_socket() {
    let server = Server::start(small_server_config()).expect("server");
    let (mut stream, mut reader) = connect(&server);

    let energy_mw_of = |payload: &Json| -> Option<u64> {
        payload.as_obj().and_then(|o| o.get("energy_mw")?.as_int())
    };
    let cache_hit_of = |payload: &Json| -> bool {
        payload
            .as_obj()
            .and_then(|o| o.get("cache_hit"))
            .map(|v| matches!(v, Json::Bool(true)))
            .unwrap_or(false)
    };

    // Warm a period entry for the chain.
    send_line(
        &mut stream,
        &amp_net::proto::render_request(&request(1, 0), "public"),
    );
    let (_, result) = read_response(&mut reader);
    let payload = result.expect("period request is feasible");
    assert_eq!(energy_mw_of(&payload), None, "period frames have no energy");

    // The same chain and pool under min_energy: a fresh solve with the
    // energy figure, not the period cache entry.
    let energy_request = |id: u64| {
        let mut req = request(id, 0).with_objective(Objective::MinEnergy {
            target_period: "100/1".to_string(),
        });
        req.policy = Policy::Strategy("EnergyDP".to_string());
        req
    };
    send_line(
        &mut stream,
        &amp_net::proto::render_request(&energy_request(2), "public"),
    );
    let (id, result) = read_response(&mut reader);
    assert_eq!(id, Some(2));
    let payload = result.expect("energy request is feasible");
    assert!(!cache_hit_of(&payload), "the period entry must not answer");
    let served = energy_mw_of(&payload).expect("energy_mw present");
    assert!(served > 0);

    // The identical energy request hits its own entry — figure intact.
    send_line(
        &mut stream,
        &amp_net::proto::render_request(&energy_request(3), "public"),
    );
    let (_, result) = read_response(&mut reader);
    let payload = result.expect("feasible");
    assert!(cache_hit_of(&payload), "the energy repeat must hit");
    assert_eq!(energy_mw_of(&payload), Some(served));

    // And the period repeat still hits its own entry, energy-free.
    send_line(
        &mut stream,
        &amp_net::proto::render_request(&request(4, 0), "public"),
    );
    let (_, result) = read_response(&mut reader);
    let payload = result.expect("feasible");
    assert!(cache_hit_of(&payload));
    assert_eq!(energy_mw_of(&payload), None);

    drop(stream);
    server.shutdown();
}

/// One bad frame must not silence the frames pipelined with it: a
/// zero-weight FERTAC frame and a valid FERTAC frame, sent in one write
/// to a one-shard server, get two replies — the typed `INVALID_WEIGHTS`
/// error and the schedule.
#[test]
fn zero_weight_frame_is_typed_and_spares_its_pipelined_neighbor() {
    let server = Server::start(ServerConfig {
        shards: 1,
        ..small_server_config()
    })
    .expect("server");
    let (mut stream, mut reader) = connect(&server);
    stream
        .set_read_timeout(Some(Duration::from_secs(3)))
        .expect("read timeout");

    let mut zero = request(1, 0);
    zero.tasks[1].weight_little = 0;
    let burst = format!(
        "{}\n{}\n",
        amp_net::proto::render_request(&zero, "public"),
        amp_net::proto::render_request(&request(2, 0), "public")
    );
    stream.write_all(burst.as_bytes()).expect("write");
    let mut replies = [read_response(&mut reader), read_response(&mut reader)];
    replies.sort_by_key(|(id, _)| *id);
    let [(zero_id, zero_result), (valid_id, valid_result)] = replies;
    assert_eq!(zero_id, Some(1));
    assert_eq!(
        zero_result.expect_err("zero weight is refused"),
        "INVALID_WEIGHTS"
    );
    assert_eq!(valid_id, Some(2));
    assert!(valid_result.is_ok(), "the valid neighbor must be answered");

    drop(stream);
    server.shutdown();
}

/// A HeRAD frame on 2²⁰ + 2²⁰ cores would make the server allocate an
/// 88 TB DP table, and a failed allocation aborts the process. It gets
/// the typed `POOL_TOO_LARGE`, and the next frame on the same connection
/// is answered.
#[test]
fn oversized_pool_frame_is_typed_and_the_server_keeps_serving() {
    let server = Server::start(small_server_config()).expect("server");
    let (mut stream, mut reader) = connect(&server);
    let huge = ScheduleRequest {
        big_cores: 1 << 20,
        little_cores: 1 << 20,
        policy: Policy::Strategy("HeRAD".to_string()),
        ..request(1, 0)
    };
    send_line(
        &mut stream,
        &amp_net::proto::render_request(&huge, "public"),
    );
    let (id, result) = read_response(&mut reader);
    assert_eq!(id, Some(1));
    assert_eq!(result.expect_err("pool too large"), "POOL_TOO_LARGE");

    send_line(
        &mut stream,
        &amp_net::proto::render_request(&request(2, 0), "public"),
    );
    let (id, result) = read_response(&mut reader);
    assert_eq!(id, Some(2));
    assert!(
        result.is_ok(),
        "the server must survive the oversized frame"
    );

    drop(stream);
    server.shutdown();
}

/// A 2CATAC frame of 60 tasks drawn like the paper's simulations (seed
/// 60, half of them replicable) on 40+40 cores. While 2CATAC was a
/// two-branch recursion, such frames held a worker for 25–35 s; the
/// memoized search answers well inside the 10 s read timeout.
#[test]
fn sixty_task_twocatac_frame_is_answered_within_the_read_timeout() {
    let mut rng = StdRng::seed_from_u64(60);
    let n = 60;
    let mut replicable: Vec<bool> = (0..n).map(|i| i < n / 2).collect();
    replicable.shuffle(&mut rng);
    let tasks = replicable
        .into_iter()
        .map(|replicable| {
            let weight_big = rng.gen_range(1..=100u64);
            let slowdown: f64 = rng.gen_range(1.0..=5.0);
            TaskSpec {
                weight_big,
                weight_little: (weight_big as f64 * slowdown).ceil() as u64,
                replicable,
            }
        })
        .collect();
    let frame = ScheduleRequest {
        tasks,
        big_cores: 40,
        little_cores: 40,
        policy: Policy::Strategy("2CATAC".to_string()),
        ..request(1, 0)
    };
    let server = Server::start(small_server_config()).expect("server");
    let (mut stream, mut reader) = connect(&server);
    send_line(
        &mut stream,
        &amp_net::proto::render_request(&frame, "public"),
    );
    let (id, result) = read_response(&mut reader);
    assert_eq!(id, Some(1));
    let outcome = result.expect("2CATAC answers a pool with cores");
    let strategy = outcome.as_obj().and_then(|o| o.get("strategy"));
    assert_eq!(strategy.and_then(Json::as_str), Some("2CATAC"));

    drop(stream);
    server.shutdown();
}
