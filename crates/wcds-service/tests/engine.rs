//! Event-loop engine acceptance tests: byte-identical replay against
//! the worker-pool oracle, pipelined in-order responses, slow-loris
//! isolation, and a dominator kill storm served entirely over TCP.
//!
//! The worker-pool engine is the semantic oracle: both engines funnel
//! every request through the same `handle` dispatcher, so a serial
//! replay of one request log must produce byte-identical response
//! frames — the only permitted divergence is the engine-diagnostic
//! counters (`syscalls`, `pipeline_depth_max`) inside `StatsOk`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use wcds_geom::deploy;
use wcds_graph::{io, UnitDiskGraph};
use wcds_rng::{ChaCha12Rng, Rng};
use wcds_service::protocol::{read_frame, write_frame, FrameRead, Request, Response};
use wcds_service::store::UDG_RADIUS;
use wcds_service::{
    BroadcastOutcome, Client, Engine, Mutation, RouteOutcome, Server, ServerConfig, Store,
};

fn payload(n: usize, side: f64, seed: u64) -> String {
    let udg = UnitDiskGraph::build(deploy::uniform(n, side, side, seed), UDG_RADIUS);
    io::to_text(udg.graph(), Some(udg.points()))
}

/// A deterministic request log walking the whole API, including typed
/// failures: exactly what a client session might replay for audit.
fn replay_log() -> Vec<Request> {
    let name = "net".to_string();
    let mut log = vec![
        Request::Ping,
        Request::Create { name: name.clone(), payload: payload(70, 4.0, 21) },
        Request::Create { name: name.clone(), payload: payload(70, 4.0, 21) }, // AlreadyExists
        Request::Construct { name: name.clone() },
        Request::Route { name: name.clone(), from: 0, to: 69 },
        Request::Broadcast { name: name.clone(), source: 0 },
        Request::Stats { name: name.clone() },
        Request::Mutate { name: name.clone(), mutation: Mutation::Join { x: 2.0, y: 2.0 } },
        Request::Stats { name: name.clone() },
        Request::Route { name: name.clone(), from: 0, to: 70 },
        Request::Harden { name: name.clone(), k: 2, m: 2 },
        Request::Stats { name: name.clone() },
        Request::MutateBatch {
            name: name.clone(),
            mutations: vec![
                Mutation::Move { node: 3, x: 2.0, y: 2.0 },
                Mutation::Move { node: 7, x: 2.1, y: 2.1 },
                Mutation::Join { x: 0.5, y: 3.5 },
            ],
        },
        Request::Stats { name: name.clone() },
        Request::Export { name: name.clone() },
        Request::List,
        Request::Route { name: "ghost".to_string(), from: 0, to: 1 }, // NotFound
        Request::Route { name: name.clone(), from: 0, to: 9_999 },    // OutOfRange
    ];
    // a read burst at the end: cache hits resolve through the snapshot
    // cell on both engines, so `snapshot_reads` must advance in lockstep
    for k in 1..8 {
        log.push(Request::Route { name: name.clone(), from: 0, to: k });
    }
    log.push(Request::Stats { name });
    log
}

/// Serially replays `log` over one raw TCP connection against a server
/// running `engine`, returning every response frame's bytes.
fn replay(engine: Engine, log: &[Request]) -> Vec<Vec<u8>> {
    let config = ServerConfig { engine, ..ServerConfig::default() };
    let handle = Server::bind("127.0.0.1:0", Store::new(), config).unwrap();
    let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut frames = Vec::with_capacity(log.len());
    for req in log {
        write_frame(&mut stream, &req.encode()).unwrap();
        match read_frame(&mut stream).unwrap() {
            FrameRead::Frame(body) => frames.push(body),
            other => panic!("replay expected a response frame, got {other:?}"),
        }
    }
    drop(stream);
    handle.shutdown();
    frames
}

/// Zeroes the engine-diagnostic counters inside a `StatsOk` frame;
/// every other frame (and every other `StatsOk` field, including
/// `snapshot_reads`) passes through byte-for-byte.
fn normalize(raw: &[u8]) -> Vec<u8> {
    match Response::decode(raw) {
        Ok(Response::StatsOk(mut stats)) => {
            stats.syscalls = 0;
            stats.pipeline_depth_max = 0;
            Response::StatsOk(stats).encode()
        }
        _ => raw.to_vec(),
    }
}

/// Acceptance: the two engines answer a serial replay of the same
/// request log byte-identically (modulo the two engine-diagnostic
/// counters in `StatsOk`, which are zeroed on both sides before the
/// comparison — `snapshot_reads` is compared raw).
#[test]
fn engines_answer_a_serial_replay_byte_identically() {
    let log = replay_log();
    let pool = replay(Engine::WorkerPool, &log);
    let evented = replay(Engine::EventLoop, &log);
    assert_eq!(pool.len(), evented.len());
    for (i, (a, b)) in pool.iter().zip(&evented).enumerate() {
        assert_eq!(
            normalize(a),
            normalize(b),
            "response {i} to {:?} diverged between engines:\n  pool:  {:?}\n  event: {:?}",
            log.get(i),
            Response::decode(a),
            Response::decode(b),
        );
    }
}

/// Pipelining property: send a burst of requests with pairwise-distinct
/// answers in one write, drain the responses, and check each answer
/// sits at its request's position — in-order, none dropped, none
/// duplicated.
#[test]
fn pipelined_responses_arrive_in_request_order() {
    let handle = Server::bind("127.0.0.1:0", Store::new(), ServerConfig::default()).unwrap();
    let addr = handle.local_addr();
    let mut c = Client::connect_with_timeout(addr, Duration::from_secs(30)).unwrap();

    c.create("pipe", &payload(40, 3.0, 5)).unwrap();
    let BroadcastOutcome::Done { informed, .. } = c.broadcast("pipe", 0).unwrap() else {
        panic!("deployment must be connected for the order check");
    };
    assert_eq!(informed, 40, "pick a connected seed: every route below must succeed");

    // depth 36: routes to 32 distinct destinations, punctuated by pings
    let mut reqs = Vec::new();
    for k in 1..=32u64 {
        if k % 8 == 0 {
            reqs.push(Request::Ping);
        }
        reqs.push(Request::Route { name: "pipe".to_string(), from: 0, to: k as usize });
    }
    let responses = c.pipeline(&reqs).unwrap();
    assert_eq!(responses.len(), reqs.len());
    for (req, resp) in reqs.iter().zip(&responses) {
        match (req, resp) {
            (Request::Ping, Response::Pong) => {}
            (Request::Route { to, .. }, Response::Routed { path }) => {
                assert_eq!(path.first(), Some(&0));
                assert_eq!(path.last(), Some(to), "response out of order or misrouted");
            }
            other => panic!("mismatched (request, response) pair: {other:?}"),
        }
    }

    // the burst was decoded from few readiness wakes: the engine must
    // have observed a multi-frame pipeline on this connection
    let stats = c.stats("pipe").unwrap();
    assert!(
        stats.pipeline_depth_max >= 2,
        "pipelined burst never exceeded depth 1 (got {})",
        stats.pipeline_depth_max
    );
    c.shutdown_server().unwrap();
    handle.join();
}

/// Slow-loris isolation: a peer that sends half a frame and stalls must
/// not degrade anyone else's latency — and the stall sweep must drop it
/// instead of letting it hold its slot forever. Under the old
/// thread-per-connection engine a stalled peer pinned a worker thread
/// for the whole idle window; under the event loop it costs one slab
/// slot and two sweep ticks.
#[test]
fn a_stalled_mid_frame_peer_is_dropped_and_does_not_slow_others() {
    use std::io::{Read as _, Write as _};
    let handle = Server::bind("127.0.0.1:0", Store::new(), ServerConfig::default()).unwrap();
    let addr = handle.local_addr();
    let mut c = Client::connect_with_timeout(addr, Duration::from_secs(30)).unwrap();
    c.create("net", &payload(40, 3.0, 5)).unwrap();
    c.construct("net").unwrap();

    // the loris: a valid length prefix promising 64 bytes, then silence
    let mut loris = TcpStream::connect(addr).unwrap();
    loris.write_all(&64u32.to_le_bytes()).unwrap();
    loris.write_all(&[0xAB, 0xCD]).unwrap();
    loris.flush().unwrap();

    // while the loris stalls, a well-behaved client's requests must keep
    // completing promptly: the stalled fd costs readiness wakes nothing
    let mut worst = Duration::ZERO;
    for k in 0..50usize {
        let t0 = Instant::now();
        if k % 2 == 0 {
            c.ping().unwrap();
        } else {
            let _ = c.route("net", 0, k % 40).unwrap();
        }
        worst = worst.max(t0.elapsed());
    }
    assert!(
        worst < Duration::from_secs(1),
        "a stalled peer degraded a healthy client's worst-case latency to {worst:?}"
    );

    // the sweep drops a mid-frame staller after ~2 io_timeout ticks;
    // observing EOF on the loris socket proves the reap
    loris.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = [0u8; 16];
    match loris.read(&mut buf) {
        Ok(0) => {} // clean EOF: the server reaped the connection
        Ok(n) => panic!("server answered a half-frame with {n} bytes"),
        Err(e) => panic!("expected EOF from the stall sweep, got {e}"),
    }

    c.shutdown_server().unwrap();
    handle.join();
}

/// A single request frame larger than the loop's run-ahead cap must
/// still be read to completion: an n = 5,000 `Create` with its edge
/// list is about 0.5 MB, twice the 256 KiB decoder backlog.
#[test]
fn a_frame_larger_than_the_run_ahead_cap_is_served() {
    let handle = Server::bind("127.0.0.1:0", Store::new(), ServerConfig::default()).unwrap();
    let mut c = Client::connect_with_timeout(handle.local_addr(), Duration::from_secs(30)).unwrap();
    let big = payload(5_000, (5_000.0 * std::f64::consts::PI / 10.0f64).sqrt(), 3);
    assert!(big.len() > 2 * 256 * 1024, "payload of {} bytes is too small", big.len());
    let (nodes, edges, _) = c.create("big", &big).unwrap();
    assert_eq!(nodes, 5_000);
    assert!(edges > 0);
    // the connection is still healthy afterwards
    c.ping().unwrap();
    c.shutdown_server().unwrap();
    handle.join();
}

/// Dominator kill storm served entirely over event-loop TCP: a killer
/// client parks backbone nodes out of radio range through the ordinary
/// mutation API (victims harvested from route interiors — clusterhead
/// paths travel the backbone) while reader clients keep routing. The
/// hardened (2, 2) backbone must keep serving typed outcomes — never an
/// error — and the availability counters must account for every query.
#[test]
fn kill_storm_over_tcp_keeps_routes_servable() {
    const N: usize = 120;
    const READERS: usize = 4;
    const OPS: usize = 40;
    const KILLS: usize = 4;

    let handle = Server::bind("127.0.0.1:0", Store::new(), ServerConfig::default()).unwrap();
    let addr = handle.local_addr();
    let mut admin = Client::connect_with_timeout(addr, Duration::from_secs(30)).unwrap();
    admin.create("net", &payload(N, 4.5, 77)).unwrap();
    let out = admin.harden("net", 2, 2).unwrap();
    assert!(out.achieved_k >= 1);

    let attempted = AtomicU64::new(0);
    let failed = AtomicBool::new(false);
    let kills: Mutex<Vec<usize>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        let attempted = &attempted;
        let failed = &failed;
        let kills = &kills;
        scope.spawn(move || {
            let mut rng = ChaCha12Rng::seed_from_u64(13);
            let mut c = Client::connect_with_timeout(addr, Duration::from_secs(30))
                .expect("killer connect");
            for round in 0..KILLS {
                // probe routes until one crosses the backbone, then
                // park an interior hop (a dominator) out of range
                let victim = loop {
                    let s = rng.gen_range(0..N);
                    let d = rng.gen_range(0..N);
                    attempted.fetch_add(1, Ordering::SeqCst);
                    match c.route("net", s, d) {
                        Ok(RouteOutcome::Path(p)) if p.len() >= 3 => {
                            let mid = p[p.len() / 2];
                            if !kills.lock().unwrap().contains(&mid) {
                                break mid;
                            }
                        }
                        Ok(_) => {}
                        Err(e) => {
                            eprintln!("killer probe failed: {e}");
                            failed.store(true, Ordering::SeqCst);
                            return;
                        }
                    }
                };
                let x = 1_000.0 + 10.0 * round as f64;
                if let Err(e) = c.mutate("net", Mutation::Move { node: victim, x, y: 1_000.0 }) {
                    eprintln!("kill failed: {e}");
                    failed.store(true, Ordering::SeqCst);
                    return;
                }
                kills.lock().unwrap().push(victim);
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        for t in 0..READERS {
            scope.spawn(move || {
                let mut rng = ChaCha12Rng::seed_from_u64(500 + t as u64);
                let mut c = Client::connect_with_timeout(addr, Duration::from_secs(30))
                    .expect("reader connect");
                for _ in 0..OPS {
                    let s = rng.gen_range(0..N);
                    let d = rng.gen_range(0..N);
                    attempted.fetch_add(1, Ordering::SeqCst);
                    match c.route("net", s, d) {
                        Ok(RouteOutcome::Path(path)) => {
                            assert_eq!(path.first(), Some(&s));
                            assert_eq!(path.last(), Some(&d));
                        }
                        Ok(RouteOutcome::Degraded { .. }) => {} // typed, not an error
                        Err(e) => {
                            eprintln!("route({s}, {d}) failed mid-storm: {e}");
                            failed.store(true, Ordering::SeqCst);
                            return;
                        }
                    }
                }
            });
        }
    });
    assert!(!failed.load(Ordering::SeqCst), "a client hit an unexpected error mid-storm");
    let killed = kills.into_inner().unwrap();
    assert_eq!(killed.len(), KILLS, "the storm must land every kill");

    // the server is still healthy and the counters reconcile exactly
    admin.ping().unwrap();
    let stats = admin.stats("net").unwrap();
    assert_eq!(stats.epoch, KILLS as u64, "every kill is one applied mutation");
    assert_eq!(
        stats.routes_ok + stats.routes_degraded + stats.routes_unreachable,
        attempted.load(Ordering::SeqCst),
        "every route query lands in exactly one availability counter"
    );
    assert_eq!(stats.nodes, N as u64, "moves never change the node count");

    admin.shutdown_server().unwrap();
    handle.join();
}
