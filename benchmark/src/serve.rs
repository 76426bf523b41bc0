//! `serve_read` and `serve_churn`: the TCP service under closed-loop
//! load from two client connections, plus the in-process traced replay
//! of the same request streams.

use crate::repair::RepairStats;
use crate::report::{
    best_low, best_rate, derive_seed, mean, median, merge, typical, typical_p99, us, Report,
    Window, Windows,
};
use crate::trace::Tracer;
use crate::Layer;
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use wcds_core::maintenance::MaintainedWcds;
use wcds_geom::{deploy, Point};
use wcds_graph::{io, traversal, DynamicUdg, NodeId, UnitDiskGraph};
use wcds_rng::{ChaCha12Rng, Rng};
use wcds_routing::{BackboneRouter, BroadcastPlan};
use wcds_service::protocol::{read_frame, write_frame, FrameRead};
use wcds_service::store::Bundle;
use wcds_service::{
    Client, ClientError, Mutation, Request, Response, Server, ServerConfig, Store, TopologyStats,
};

/// Which request mix the two clients send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// n = 5,000; 8 requests in flight per connection; reads only.
    Read,
    /// n = 2,000; one request in flight; a 16-move drift batch then 7
    /// reads, per client.
    Churn,
}

impl Mix {
    fn n(self) -> usize {
        match self {
            Mix::Read => 5_000,
            Mix::Churn => 2_000,
        }
    }

    fn window(self) -> usize {
        match self {
            Mix::Read => 8,
            Mix::Churn => 1,
        }
    }

    /// Requests replayed in-process by the traced run (a prefix of the
    /// interleaved client streams).
    fn replay_cap(self) -> usize {
        match self {
            Mix::Read => 40_000,
            Mix::Churn => 2_400,
        }
    }
}

const AVG_DEGREE: f64 = 10.0;
const CONNS: usize = 2;
const SETUP_REPS: usize = 7;
const NAME: &str = "bench";
/// Moves per `MutateBatch` frame.
const BATCH: usize = 16;
/// Longest single drift step (the unit-disk radius is 1).
const STEP: f64 = 0.25;
/// A churn client's cycle: one batch, then seven reads.
const CYCLE: u64 = 8;
/// One request in this many is a `Broadcast` on `serve_read`.
const BROADCAST_EVERY: u64 = 256;
/// One `Route` answer in this many is kept for the oracle.
const ROUTE_SAMPLE_EVERY: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Route,
    Stats,
    Ping,
    Broadcast,
    Batch,
}

fn kind(req: &Request) -> Kind {
    match req {
        Request::Route { .. } => Kind::Route,
        Request::Stats { .. } => Kind::Stats,
        Request::Broadcast { .. } => Kind::Broadcast,
        Request::MutateBatch { .. } => Kind::Batch,
        _ => Kind::Ping,
    }
}

/// A connected uniform deployment with the target average degree: the
/// first of a seeded sequence of draws whose unit-disk graph is
/// connected.
pub fn connected_deployment(n: usize, avg_degree: f64, seed: u64) -> (Vec<Point>, f64, u64) {
    let side = (n as f64 * std::f64::consts::PI / avg_degree).sqrt();
    for attempt in 0..1_000 {
        let s = derive_seed(seed, 1_000 + attempt);
        let points = deploy::uniform(n, side, side, s);
        let udg = UnitDiskGraph::build(points.clone(), 1.0);
        if traversal::is_connected(udg.graph()) {
            return (points, side, s);
        }
    }
    panic!("no connected deployment for n = {n} at average degree {avg_degree}");
}

/// One client's request stream, a pure function of (seed, client).
/// Client `c` moves only nodes with id ≡ c (mod 2) and tracks their
/// positions, so the final deployment does not depend on commit order.
#[derive(Clone)]
struct ClientGen {
    rng: ChaCha12Rng,
    mix: Mix,
    c: usize,
    side: f64,
    pos: Vec<Point>,
    issued: u64,
}

impl ClientGen {
    fn new(mix: Mix, seed: u64, c: usize, points: &[Point], side: f64) -> Self {
        Self {
            rng: ChaCha12Rng::seed_from_u64(derive_seed(seed, 10 + c as u64)),
            mix,
            c,
            side,
            pos: points.to_vec(),
            issued: 0,
        }
    }

    fn node(&mut self) -> NodeId {
        self.rng.gen_range(0..self.pos.len())
    }

    fn route(&mut self) -> Request {
        let (from, to) = (self.node(), self.node());
        Request::Route {
            name: NAME.into(),
            from,
            to,
        }
    }

    fn next(&mut self) -> Request {
        let k = self.issued;
        self.issued += 1;
        let stats = || Request::Stats { name: NAME.into() };
        match self.mix {
            Mix::Read => {
                if k % BROADCAST_EVERY == BROADCAST_EVERY - 1 {
                    let source = self.node();
                    return Request::Broadcast {
                        name: NAME.into(),
                        source,
                    };
                }
                match self.rng.gen_range(0..100u32) {
                    0..=90 => self.route(),
                    91..=95 => stats(),
                    _ => Request::Ping,
                }
            }
            Mix::Churn => match k % CYCLE {
                0 => Request::MutateBatch {
                    name: NAME.into(),
                    mutations: self.drift_batch(),
                },
                4 => stats(),
                _ => self.route(),
            },
        }
    }

    fn drift_batch(&mut self) -> Vec<Mutation> {
        let owned = (self.pos.len() - self.c).div_ceil(CONNS);
        (0..BATCH)
            .map(|_| {
                let node = self.c + CONNS * self.rng.gen_range(0..owned);
                let p = self.pos[node];
                let theta = self.rng.gen::<f64>() * std::f64::consts::TAU;
                let r = self.rng.gen::<f64>() * STEP;
                let q = Point::new(p.x + r * theta.cos(), p.y + r * theta.sin())
                    .clamped(self.side, self.side);
                self.pos[node] = q;
                Mutation::Move {
                    node,
                    x: q.x,
                    y: q.y,
                }
            })
            .collect()
    }
}

/// Structural check of one answer (the oracle proper runs after the
/// window on the sampled answers and the final state).
fn check_answer(req: &Request, resp: &Response) -> Result<u64, String> {
    match (req, resp) {
        (Request::Route { from, to, .. }, Response::Routed { path }) => {
            if path.first() == Some(from) && path.last() == Some(to) {
                Ok(0)
            } else {
                Err(format!("route {from}->{to} answered with path {path:?}"))
            }
        }
        (Request::Route { .. } | Request::Broadcast { .. }, Response::Degraded { .. })
        | (Request::Stats { .. }, Response::StatsOk(_))
        | (Request::Ping, Response::Pong)
        | (Request::Broadcast { .. }, Response::Broadcasted { .. }) => Ok(0),
        (Request::MutateBatch { mutations, .. }, Response::BatchMutated { applied, .. })
            if *applied == mutations.len() as u64 =>
        {
            Ok(*applied)
        }
        _ => Err(format!("{:?} answered with {resp:?}", kind(req))),
    }
}

/// Oracle samples kept per connection.
const SAMPLE_CAP: usize = 4_096;

/// What one client connection observed.
struct ConnOut {
    gen: ClientGen,
    /// Client-observed latency of the first answered requests, in send
    /// order (as many as the traced replay pairs with).
    lat_us: Vec<f32>,
    /// Per-window completions (any kind), `Route` latencies, and
    /// `Broadcast` (read mix) or `MutateBatch` (churn mix) latencies.
    all: Vec<Window>,
    route: Vec<Window>,
    side: Vec<Window>,
    routes: u64,
    sides: u64,
    completed: u64,
    failed: u64,
    errors: Vec<String>,
    bytes: u64,
    moves: u64,
    /// Sampled (request, response frame) pairs for the oracle.
    samples: Vec<(Request, Vec<u8>)>,
    start: Instant,
    end: Instant,
}

/// Closed-loop client: keeps `window` requests in flight on one
/// connection and times each request from its own send to its own
/// response, so queueing, pipelining and rebuild waits all count.
fn drive(addr: SocketAddr, gen: ClientGen, mix: Mix, go: &Barrier, secs: f64) -> ConnOut {
    let now = Instant::now();
    let mut out = ConnOut {
        gen,
        lat_us: Vec::new(),
        all: Vec::new(),
        route: Vec::new(),
        side: Vec::new(),
        routes: 0,
        sides: 0,
        completed: 0,
        failed: 0,
        errors: Vec::new(),
        bytes: 0,
        moves: 0,
        samples: Vec::new(),
        start: now,
        end: now,
    };
    let stream = TcpStream::connect(addr).and_then(|s| s.set_nodelay(true).map(|()| s));
    go.wait();
    let conn = stream.and_then(|s| s.try_clone().map(|r| (s, BufReader::new(r))));
    let (mut stream, mut reader) = match conn {
        Ok(c) => c,
        Err(e) => {
            out.failed += 1;
            out.errors.push(format!("connect: {e}"));
            return out;
        }
    };
    out.start = Instant::now();
    let deadline = out.start + Duration::from_secs_f64(secs);
    let (mut all, mut route, mut side) = (
        Windows::new(out.start),
        Windows::new(out.start),
        Windows::new(out.start),
    );
    let mut inflight: VecDeque<(Instant, Request)> = VecDeque::with_capacity(mix.window());
    let send = |stream: &mut TcpStream, out: &mut ConnOut, q: &mut VecDeque<(Instant, Request)>| {
        let req = out.gen.next();
        let sent = Instant::now();
        let body = req.encode();
        out.bytes += body.len() as u64 + 4;
        let r = write_frame(stream, &body);
        q.push_back((sent, req));
        r
    };
    for _ in 0..mix.window() {
        if let Err(e) = send(&mut stream, &mut out, &mut inflight) {
            out.errors.push(format!("send: {e}"));
            break;
        }
    }
    while let Some((sent, req)) = inflight.pop_front() {
        let frame = match read_frame(&mut reader) {
            Ok(FrameRead::Frame(f)) => f,
            other => {
                out.failed += 1 + inflight.len() as u64;
                out.errors.push(format!("read: {other:?}"));
                break;
            }
        };
        let done = Instant::now();
        let lat = us(done - sent);
        out.bytes += frame.len() as u64 + 4;
        if out.lat_us.len() < mix.replay_cap() {
            out.lat_us.push(lat as f32);
        }
        match Response::decode(&frame)
            .map_err(|e| e.to_string())
            .and_then(|r| check_answer(&req, &r))
        {
            Ok(moved) => {
                out.completed += 1;
                out.moves += moved;
                all.push(done, lat);
                match kind(&req) {
                    Kind::Route => {
                        route.push(done, lat);
                        if out.routes.is_multiple_of(ROUTE_SAMPLE_EVERY)
                            && out.samples.len() < SAMPLE_CAP
                        {
                            out.samples.push((req, frame));
                        }
                        out.routes += 1;
                    }
                    Kind::Broadcast | Kind::Batch => {
                        side.push(done, lat);
                        out.sides += 1;
                        if kind(&req) == Kind::Broadcast && out.samples.len() < SAMPLE_CAP {
                            out.samples.push((req, frame));
                        }
                    }
                    Kind::Stats | Kind::Ping => {}
                }
            }
            Err(e) => {
                out.failed += 1;
                if out.errors.len() < 8 {
                    out.errors.push(e);
                }
            }
        }
        if Instant::now() < deadline {
            if let Err(e) = send(&mut stream, &mut out, &mut inflight) {
                out.failed += 1;
                out.errors.push(format!("send: {e}"));
                break;
            }
        }
    }
    out.end = Instant::now();
    // the windows cover the sending phase; answers drained after the
    // deadline land in the partial last window, which is dropped
    out.all = all.finish(deadline);
    out.route = route.finish(deadline);
    out.side = side.finish(deadline);
    out
}

/// A `Create` payload carrying positions only: a mobile topology's
/// edges are recomputed from its positions by the store, and leaving
/// them out keeps an n = 5,000 frame under the event loop's 256 KiB
/// decoder backlog, which a larger single frame never completes.
fn points_payload(points: &[Point]) -> String {
    let mut out = format!("nodes {}\n", points.len());
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!("point {i} {} {}\n", p.x, p.y));
    }
    out
}

fn client(addr: SocketAddr) -> Client {
    Client::connect(addr).expect("control connection to the in-process server")
}

/// The oracle's answer to a sampled read, from artifacts built in
/// process on the served export.
struct ReadOracle {
    router: BackboneRouter,
    spanner: wcds_graph::Graph,
    plan: Option<BroadcastPlan>,
    graph: wcds_graph::Graph,
}

impl ReadOracle {
    fn new(m: &MaintainedWcds) -> Self {
        let g = m.graph();
        let wcds = m.wcds();
        let spanner = wcds.weakly_induced_subgraph(g);
        let plan = (traversal::is_connected(g) && wcds.is_valid(g))
            .then(|| BroadcastPlan::for_backbone(&spanner, &wcds));
        Self {
            router: BackboneRouter::build(g, &wcds),
            spanner,
            plan,
            graph: g.clone(),
        }
    }

    fn answer(&self, req: &Request) -> Option<Response> {
        let n = self.graph.node_count();
        let unreachable = |g: &wcds_graph::Graph, s: NodeId| {
            let reached = traversal::bfs_distances(g, s)
                .iter()
                .filter(|d| d.is_some())
                .count();
            u32::try_from(n - reached).unwrap_or(u32::MAX)
        };
        Some(match req {
            Request::Route { from, to, .. } => match self.router.route(*from, *to) {
                Some(path) => Response::Routed { path },
                None => Response::Degraded {
                    unreachable: unreachable(&self.spanner, *from),
                },
            },
            Request::Broadcast { source, .. } => match &self.plan {
                Some(plan) => {
                    let o = plan.simulate(&self.graph, *source);
                    Response::Broadcasted {
                        forwarders: plan.forwarder_count() as u64,
                        informed: (n - o.uncovered.len()) as u64,
                    }
                }
                None => Response::Degraded {
                    unreachable: unreachable(&self.graph, *source),
                },
            },
            _ => return None,
        })
    }
}

pub fn run(mix: Mix, seed: u64, secs: f64, traced: bool, rep: &mut Report) -> Option<Tracer> {
    let n = mix.n();
    let (points, side, deploy_seed) = connected_deployment(n, AVG_DEGREE, seed);
    let udg = UnitDiskGraph::build(points.clone(), 1.0);
    let payload = points_payload(&points);
    rep.note("nodes", n);
    rep.note("create_payload_bytes", payload.len());
    rep.note("edges", udg.graph().edge_count());
    rep.note("deploy_seed", deploy_seed);

    let handle = Server::bind("127.0.0.1:0", Store::new(), ServerConfig::default())
        .expect("bind the in-process server on loopback");
    let addr = handle.local_addr();

    // set-up as a client sees it: connect, Create, first Construct
    let mut setup = Vec::with_capacity(SETUP_REPS);
    for i in 0..SETUP_REPS {
        let last = i + 1 == SETUP_REPS;
        let name = if last {
            NAME.to_string()
        } else {
            format!("setup{i}")
        };
        let t0 = Instant::now();
        let mut c = client(addr);
        c.create(&name, &payload).expect("create the topology");
        c.construct(&name).expect("construct the first bundle");
        setup.push(t0.elapsed().as_secs_f64());
        if !last {
            c.drop_topology(&name).expect("drop a set-up copy");
        }
    }
    rep.put("setup_s", median(&setup));

    // warm-up: lazy state a steady reader would find built
    let before = {
        let mut c = client(addr);
        c.ping().expect("warm-up ping");
        c.route(NAME, 0, n - 1).expect("warm-up route");
        if mix == Mix::Read {
            c.broadcast(NAME, 0).expect("warm-up broadcast");
        }
        c.stats(NAME).expect("stats before the window")
    };

    let go = Barrier::new(CONNS);
    let outs: Vec<ConnOut> = std::thread::scope(|s| {
        let hs: Vec<_> = (0..CONNS)
            .map(|c| {
                let gen = ClientGen::new(mix, seed, c, &points, side);
                let go = &go;
                s.spawn(move || drive(addr, gen, mix, go, secs))
            })
            .collect();
        hs.into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut control = client(addr);
    let after = control.stats(NAME);

    let completed: u64 = outs.iter().map(|o| o.completed).sum();
    let failed: u64 = outs.iter().map(|o| o.failed).sum();
    let all = merge(outs.iter().map(|o| o.all.clone()).collect());
    let route = merge(outs.iter().map(|o| o.route.clone()).collect());
    let sided = merge(outs.iter().map(|o| o.side.clone()).collect());
    for o in &outs {
        for e in &o.errors {
            rep.check(false, || format!("client error: {e}"));
        }
    }
    rep.attempted += completed + failed;
    rep.failed += failed;
    rep.put("ops_per_s", best_rate(&all));
    rep.put("main_p50_us", best_low(&route));
    rep.put("side_p50_us", best_low(&sided));
    rep.put("client.main_p99_us", typical_p99(&route));
    rep.put("client.side_p99_us", typical_p99(&sided));
    let (routes, sides): (u64, u64) = (
        outs.iter().map(|o| o.routes).sum(),
        outs.iter().map(|o| o.sides).sum(),
    );
    rep.put("client.main_samples", routes as f64);
    rep.put("client.side_samples", sides as f64);
    rep.put(
        "client.failed_frac",
        failed as f64 / (completed + failed).max(1) as f64,
    );
    rep.note("requests", completed);
    rep.note("windows", all.len());
    rep.note(
        "typical_req_per_s",
        median(&all.iter().map(|w| w.count as f64).collect::<Vec<_>>()),
    );
    rep.note("typical_route_p50_us", typical(&route));
    rep.note("typical_side_p50_us", typical(&sided));
    rep.note_windows("main_windows_us", &route);
    rep.note_windows("side_windows_us", &sided);
    let counts: Vec<String> = all.iter().map(|w| w.count.to_string()).collect();
    rep.note("window_requests", counts.join(" "));
    rep.note("route_samples", routes);
    rep.note("side_samples", sides);

    let reqs = completed.max(1) as f64;
    let bytes: u64 = outs.iter().map(|o| o.bytes).sum();
    rep.put("service.protocol.bytes_per_req", bytes as f64 / reqs);
    if let Ok(after) = &after {
        let d = |f: fn(&TopologyStats) -> u64| (f(after) - f(&before)) as f64;
        rep.put(
            "service.eventloop.syscalls_per_req",
            d(|s| s.syscalls) / reqs,
        );
        rep.put(
            "service.eventloop.pipeline_depth_max",
            after.pipeline_depth_max as f64,
        );
        let (hits, misses) = (d(|s| s.cache_hits), d(|s| s.cache_misses));
        rep.put("service.store.hit_rate", hits / (hits + misses).max(1.0));
        rep.put(
            "service.store.rebuilds_per_1k_req",
            d(|s| s.rebuilds) * 1000.0 / reqs,
        );
    }

    let epoch = after.map(|s| s.epoch);
    if let Err(e) = check_served(mix, &mut control, epoch, &outs, &points, &udg, rep) {
        rep.check(false, || format!("oracle query failed: {e}"));
    }
    rep.put("peak_rss_mb", crate::report::peak_rss_mb());

    drop(control);
    handle.shutdown();
    if !traced {
        return None;
    }
    let log = interleave(mix, seed, &points, side, &outs);
    drop(outs);
    let untraced = || {
        replay(
            mix,
            deploy_seed,
            side,
            &payload,
            &log,
            &mut Tracer::new(false),
        )
        .wall
    };
    let before = untraced();
    let mut tr = Tracer::new(true);
    let traced_out = replay(mix, deploy_seed, side, &payload, &log, &mut tr);
    let untraced = before.min(untraced());
    rep.check(traced_out.errors == 0, || {
        format!("{} replayed requests answered wrongly", traced_out.errors)
    });
    layer_metrics(rep, &tr, &traced_out, &log);
    crate::trace_summary(rep, &tr, traced_out.wall, untraced);
    Some(tr)
}

/// The oracle checks that need the live server: the served export, the
/// sampled answers (read mix) or the final state and epoch (churn mix).
fn check_served(
    mix: Mix,
    control: &mut Client,
    epoch: Result<u64, ClientError>,
    outs: &[ConnOut],
    points: &[Point],
    udg: &UnitDiskGraph,
    rep: &mut Report,
) -> Result<(), ClientError> {
    let n = points.len();
    let export = control.export(NAME)?;
    let moves: u64 = outs.iter().map(|o| o.moves).sum();
    match mix {
        Mix::Read => {
            let doc = io::from_text(&export).expect("served export parses");
            let served = MaintainedWcds::new(doc.points.expect("mobile export has points"), 1.0);
            rep.check(export == io::to_text(udg.graph(), Some(points)), || {
                "served topology differs from the unit-disk graph of the deployment".into()
            });
            let oracle = ReadOracle::new(&served);
            let mut checked = 0u64;
            for o in outs {
                for (req, frame) in &o.samples {
                    let want = oracle.answer(req).map(|r| r.encode());
                    checked += 1;
                    if want.as_deref() != Some(frame.as_slice()) {
                        rep.failed += 1;
                        rep.check(false, || {
                            format!("{req:?}: served answer differs from the oracle")
                        });
                    }
                }
            }
            rep.note("oracle_answers_checked", checked);
        }
        Mix::Churn => {
            let mut fin = points.to_vec();
            for o in outs {
                for id in (o.gen.c..n).step_by(CONNS) {
                    fin[id] = o.gen.pos[id];
                }
            }
            let oracle = MaintainedWcds::new(fin.clone(), 1.0);
            rep.check(export == io::to_text(oracle.graph(), Some(&fin)), || {
                "final export differs from MaintainedWcds::new on the final positions".into()
            });
            let epoch = epoch?;
            rep.check(epoch == moves, || {
                format!("epoch {epoch} after {moves} applied moves")
            });
            let w = oracle.wcds();
            let (mis, bridges, spanner_edges, _) = control.construct(NAME)?;
            let want = (
                w.mis_dominators().len() as u64,
                w.additional_dominators().len() as u64,
                w.weakly_induced_subgraph(oracle.graph()).edge_count() as u64,
            );
            rep.check((mis, bridges, spanner_edges) == want, || {
                format!(
                    "served backbone {:?} != oracle {want:?}",
                    (mis, bridges, spanner_edges)
                )
            });
            rep.note("moves_applied", moves);
        }
    }
    Ok(())
}

/// One replayed request and the client-observed latency it had.
struct Logged {
    req: Request,
    client_us: f32,
}

/// The clients' streams, regenerated from the seed and interleaved
/// round-robin (whole cycles on the churn mix), capped at the replay
/// length.
fn interleave(mix: Mix, seed: u64, points: &[Point], side: f64, outs: &[ConnOut]) -> Vec<Logged> {
    let chunk = if mix == Mix::Churn { CYCLE as usize } else { 1 };
    let mut gens: Vec<ClientGen> = (0..CONNS)
        .map(|c| ClientGen::new(mix, seed, c, points, side))
        .collect();
    let mut taken = [0usize; CONNS];
    let mut log = Vec::new();
    while log.len() < mix.replay_cap() {
        let mut progressed = false;
        for c in 0..CONNS {
            for _ in 0..chunk {
                if taken[c] < outs[c].lat_us.len() {
                    log.push(Logged {
                        req: gens[c].next(),
                        client_us: outs[c].lat_us[taken[c]],
                    });
                    taken[c] += 1;
                    progressed = true;
                }
            }
        }
        if !progressed {
            break;
        }
    }
    log.truncate(mix.replay_cap());
    log
}

/// Replay results the per-layer metrics need.
struct ReplayOut {
    wall: Duration,
    rebuilds: u64,
    /// Durations of the `Store::bundle` calls that rebuilt (traced only).
    rebuild_ms: Vec<f64>,
    patched: u64,
    heads: usize,
    hops: Vec<f64>,
    repairs: RepairStats,
    edges: usize,
    /// Replayed requests answered with an error or a wrong shape.
    errors: u64,
}

const PROTO: Layer = "service.protocol";
const STORE: Layer = "service.store";
const ROUTER: Layer = "routing.router";
const BCAST: Layer = "routing.broadcast";
const MAINT: Layer = "core.maintenance";
const DYN: Layer = "graph.dynamic";
/// Spans on the server's request path (what the event loop wraps).
const SERVER_PATH: [&str; 8] = [
    "Request::encode",
    "Request::decode",
    "Store::route",
    "Store::stats",
    "Store::broadcast",
    "Store::mutate_batch",
    "Store::bundle",
    "Response::encode",
];

/// Answers `req` through the store's public calls, mapping outcomes to
/// wire responses the way the server does. A successful `MutateBatch`
/// maps to `None`: its reply carries lease accounting that the
/// benchmark deliberately does not read, and encodes in tens of
/// nanoseconds.
fn dispatch(tr: &mut Tracer, store: &Store, req: &Request) -> Option<Response> {
    use wcds_service::{BroadcastOutcome, RouteOutcome};
    let fail = |e: wcds_service::StoreError| Response::Error {
        code: e.code,
        message: e.message,
    };
    Some(match req {
        Request::Route { name, from, to } => {
            match tr.span(STORE, "Store::route", |_| store.route(name, *from, *to)) {
                Ok(RouteOutcome::Path(path)) => Response::Routed { path },
                Ok(RouteOutcome::Degraded { unreachable }) => Response::Degraded { unreachable },
                Err(e) => fail(e),
            }
        }
        Request::Stats { name } => match tr.span(STORE, "Store::stats", |_| store.stats(name)) {
            Ok(s) => Response::StatsOk(s),
            Err(e) => fail(e),
        },
        Request::Broadcast { name, source } => {
            match tr.span(STORE, "Store::broadcast", |_| {
                store.broadcast(name, *source)
            }) {
                Ok(BroadcastOutcome::Done {
                    forwarders,
                    informed,
                }) => Response::Broadcasted {
                    forwarders,
                    informed,
                },
                Ok(BroadcastOutcome::Degraded { unreachable }) => {
                    Response::Degraded { unreachable }
                }
                Err(e) => fail(e),
            }
        }
        Request::MutateBatch { name, mutations } => {
            match tr.span(STORE, "Store::mutate_batch", |_| {
                store.mutate_batch(name, mutations)
            }) {
                Ok(o) if o.applied == mutations.len() as u64 => return None,
                Ok(o) => Response::Error {
                    code: wcds_service::ErrorCode::Internal,
                    message: format!("batch of {} applied {}", mutations.len(), o.applied),
                },
                Err(e) => fail(e),
            }
        }
        _ => Response::Pong,
    })
}

/// The store's current bundle; on a rebuild, the bundle's artifacts are
/// rebuilt once more from the same snapshot under their own spans.
fn refresh(tr: &mut Tracer, store: &Store, out: &mut ReplayOut) -> Arc<Bundle> {
    let (b, hit) = tr
        .span(STORE, "Store::bundle", |_| store.bundle(NAME))
        .expect("bundle");
    if !hit {
        out.rebuilds += 1;
        if let Some(s) = tr.spans().last() {
            out.rebuild_ms.push(s.dur_ns() / 1e6);
        }
        out.heads = b.wcds.mis_dominators().len();
        tr.span(ROUTER, "BackboneRouter::build", |_| {
            BackboneRouter::build(&b.graph, &b.wcds)
        });
        tr.span("core.spanner", "Wcds::weakly_induced_subgraph", |_| {
            b.wcds.weakly_induced_subgraph(&b.graph)
        });
        tr.span("graph.traversal", "traversal::is_connected", |_| {
            traversal::is_connected(&b.graph)
        });
    }
    b
}

/// Replays `log` in process against a fresh store, with mirrored calls
/// into the layers the store wraps. Identical work with the tracer on
/// or off.
fn replay(
    mix: Mix,
    deploy_seed: u64,
    side: f64,
    payload: &str,
    log: &[Logged],
    tr: &mut Tracer,
) -> ReplayOut {
    let t0 = Instant::now();
    // set-up spans belong to no request
    tr.req = u64::MAX;
    let points = tr.span("geom.deploy", "deploy::uniform", |_| {
        deploy::uniform(mix.n(), side, side, deploy_seed)
    });
    let udg = tr.span("graph.udg", "UnitDiskGraph::build", |_| {
        UnitDiskGraph::build(points.clone(), 1.0)
    });
    let store = Store::new();
    tr.span(STORE, "Store::create", |_| store.create(NAME, payload))
        .expect("create");
    let mut mirror = tr.span(MAINT, "MaintainedWcds::new", |_| {
        MaintainedWcds::new(points.clone(), 1.0)
    });
    let mut dynamic = tr.span(DYN, "DynamicUdg::new", |_| DynamicUdg::new(points, 1.0));
    let mut out = ReplayOut {
        wall: Duration::ZERO,
        rebuilds: 0,
        rebuild_ms: Vec::new(),
        patched: 0,
        heads: 0,
        hops: Vec::new(),
        repairs: RepairStats::new(&mirror.wcds()),
        edges: udg.graph().edge_count(),
        errors: 0,
    };
    let mut cur = refresh(tr, &store, &mut out);
    let mut plan: Option<(u64, BroadcastPlan)> = None;

    for (i, item) in log.iter().enumerate() {
        tr.req = i as u64;
        let req = &item.req;
        let k = kind(req);
        if matches!(k, Kind::Route | Kind::Stats | Kind::Broadcast) && !store.is_fresh(NAME) {
            cur = refresh(tr, &store, &mut out);
        }
        let body = tr.span(PROTO, "Request::encode", |_| req.encode());
        let decoded = tr
            .span(PROTO, "Request::decode", |_| Request::decode(&body))
            .expect("decode");
        if let Some(resp) = dispatch(tr, &store, &decoded) {
            let frame = tr.span(PROTO, "Response::encode", |_| resp.encode());
            let back = tr.span(PROTO, "Response::decode", |_| Response::decode(&frame));
            out.errors +=
                u64::from(!matches!(back, Ok(ref r) if check_answer(&decoded, r).is_ok()));
        }
        match &decoded {
            Request::Route { from, to, .. } => {
                if let Some(p) = tr.span(ROUTER, "BackboneRouter::route", |_| {
                    cur.router.route(*from, *to)
                }) {
                    out.hops.push((p.len() - 1) as f64);
                }
            }
            Request::Broadcast { source, .. } => {
                if plan.as_ref().is_none_or(|(e, _)| *e != cur.epoch) && cur.plan().is_some() {
                    let p = tr.span(BCAST, "BroadcastPlan::for_backbone", |_| {
                        BroadcastPlan::for_backbone(&cur.spanner, &cur.wcds)
                    });
                    plan = Some((cur.epoch, p));
                }
                if let Some((_, p)) = &plan {
                    tr.span(BCAST, "BroadcastPlan::simulate", |_| {
                        p.simulate(&cur.graph, *source)
                    });
                }
            }
            Request::MutateBatch { mutations, .. } => {
                let moves: Vec<(NodeId, Point)> = mutations
                    .iter()
                    .filter_map(|m| match *m {
                        Mutation::Move { node, x, y } => Some((node, Point::new(x, y))),
                        _ => None,
                    })
                    .collect();
                let report = tr.span(MAINT, "MaintainedWcds::apply_motion", |_| {
                    mirror.apply_motion(&moves)
                });
                let delta = tr.span(DYN, "DynamicUdg::move_nodes", |_| {
                    dynamic.move_nodes(&moves)
                });
                tr.span("bench", "accounting", |_| {
                    out.repairs
                        .record(moves.len(), &report, &delta, &mirror.wcds());
                });
                if store.is_fresh(NAME) {
                    out.patched += 1;
                    cur = refresh(tr, &store, &mut out);
                }
            }
            _ => {}
        }
    }
    out.wall = t0.elapsed();
    out
}

/// Per-layer medians read straight off one span name: (metric, span,
/// scale from nanoseconds).
const SPAN_P50S: [(&str, &str, f64); 14] = [
    ("service.protocol.decode_ns_p50", "Request::decode", 1.0),
    ("service.protocol.encode_ns_p50", "Response::encode", 1.0),
    ("service.store.read_us_p50", "Store::route", 1e-3),
    (
        "service.store.mutate_batch_ms_p50",
        "Store::mutate_batch",
        1e-6,
    ),
    ("routing.router.build_ms_p50", "BackboneRouter::build", 1e-6),
    ("routing.router.route_us_p50", "BackboneRouter::route", 1e-3),
    (
        "routing.broadcast.plan_ms",
        "BroadcastPlan::for_backbone",
        1e-6,
    ),
    (
        "routing.broadcast.simulate_us_p50",
        "BroadcastPlan::simulate",
        1e-3,
    ),
    (
        "core.spanner.weakly_induced_ms",
        "Wcds::weakly_induced_subgraph",
        1e-6,
    ),
    (
        "graph.traversal.is_connected_ms",
        "traversal::is_connected",
        1e-6,
    ),
    (
        "core.maintenance.apply_motion_ms_p50",
        "MaintainedWcds::apply_motion",
        1e-6,
    ),
    ("core.maintenance.new_ms", "MaintainedWcds::new", 1e-6),
    (
        "graph.dynamic.move_nodes_ms_p50",
        "DynamicUdg::move_nodes",
        1e-6,
    ),
    ("graph.udg.build_ms", "UnitDiskGraph::build", 1e-6),
];

fn layer_metrics(rep: &mut Report, tr: &Tracer, out: &ReplayOut, log: &[Logged]) {
    for (metric, span, scale) in SPAN_P50S {
        rep.put(metric, tr.median_ns(span) * scale);
    }
    rep.put(
        "geom.deploy.uniform_ms",
        tr.median_ns("deploy::uniform") / 1e6,
    );
    let batches = out.repairs.batches().max(1) as f64;
    rep.put("service.store.patched_frac", out.patched as f64 / batches);
    rep.put("service.store.rebuild_ms_p50", median(&out.rebuild_ms));
    // the store's own share of a batch: mutate_batch minus the mirrored
    // apply_motion of the same moves
    let own: Vec<f64> = (tr.durations("Store::mutate_batch").iter())
        .zip(&tr.durations("MaintainedWcds::apply_motion"))
        .map(|(b, m)| (b - m) / 1e6)
        .collect();
    rep.put("service.store.mutate_self_ms_p50", median(&own));
    rep.put("routing.router.heads", out.heads as f64);
    rep.put(
        "routing.router.table_bytes",
        (out.heads * out.heads * 4) as f64,
    );
    rep.put("routing.router.path_hops_mean", mean(&out.hops));
    rep.put("graph.udg.edges", out.edges as f64);
    out.repairs.put(rep);

    // event-loop overhead: client-observed latency minus the in-process
    // time of the same Route request on the server path
    let mut inproc = vec![0.0f64; log.len()];
    for s in tr.spans() {
        if s.parent.is_none() && SERVER_PATH.contains(&s.name) {
            if let Some(slot) = inproc.get_mut(s.req as usize) {
                *slot += s.dur_ns() / 1e3;
            }
        }
    }
    let overhead: Vec<f64> = log
        .iter()
        .zip(&inproc)
        .filter(|(l, _)| kind(&l.req) == Kind::Route)
        .map(|(l, t)| f64::from(l.client_us) - t)
        .collect();
    rep.put("service.eventloop.overhead_us_p50", median(&overhead));
    rep.note("replayed_requests", log.len());
    rep.note("replay_rebuilds", out.rebuilds);
}
