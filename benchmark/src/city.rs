//! `city_build`: city-scale construction and maintenance in process.
//!
//! The steady phase alternates, one window at a time, between repeated
//! deployment → unit-disk graph → partitioned Algorithm II →
//! weakly-induced spanner, and drift ticks on a `MaintainedWcds` over
//! the same-size field.

use crate::repair::RepairStats;
use crate::report::{
    best_runs_low, derive_seed, median, typical, typical_p99, us, Report, Window, Windows, WINDOW,
};
use crate::trace::Tracer;
use crate::Layer;
use std::time::{Duration, Instant};
use wcds_core::algo2::AlgorithmTwo;
use wcds_core::maintenance::MaintainedWcds;
use wcds_core::partition::PartitionedTwo;
use wcds_core::Wcds;
use wcds_geom::{deploy, Point};
use wcds_graph::{DynamicUdg, NodeId, UnitDiskGraph};
use wcds_rng::{ChaCha12Rng, Rng};

const N: usize = 100_000;
const AVG_DEGREE: f64 = 11.0;
/// Moves per drift tick.
const TICK: usize = 64;
/// Longest single drift step (the unit-disk radius is 1).
const STEP: f64 = 0.25;
const SETUP_REPS: usize = 3;
const MIN_BUILDS: usize = 3;
const MIN_TICKS: usize = 20;
/// Traced replay length: builds, then drift ticks.
const REPLAY_BUILDS: usize = 3;
const REPLAY_TICKS: usize = 100;

const MAINT: Layer = "core.maintenance";

enum Budget {
    /// Alternate builds (even windows) and drift ticks (odd windows)
    /// until this instant, so both see the host's fast and slow phases
    /// alike.
    Until(Instant),
    /// Exactly this many builds, then this many ticks.
    Count(usize, usize),
}

#[derive(Default)]
struct Steady {
    build_us: Vec<f64>,
    tick_us: Vec<f64>,
    build_w: Vec<Window>,
    tick_w: Vec<Window>,
    moves: u64,
    drift: Duration,
    mis: usize,
    bridges: usize,
    edges: usize,
    /// First build's graph and partitioned output, for the oracle.
    first: Option<(UnitDiskGraph, Vec<NodeId>, Vec<NodeId>)>,
    /// Repair accounting (replays only).
    repairs: Option<RepairStats>,
}

fn side() -> f64 {
    (N as f64 * std::f64::consts::PI / AVG_DEGREE).sqrt()
}

/// One tick of bounded-step moves of random nodes, from current
/// positions, clamped to the field.
fn drift_tick(rng: &mut ChaCha12Rng, pos: &[Point], side: f64) -> Vec<(NodeId, Point)> {
    (0..TICK)
        .map(|_| {
            let u = rng.gen_range(0..pos.len());
            let theta = rng.gen::<f64>() * std::f64::consts::TAU;
            let r = rng.gen::<f64>() * STEP;
            let p = pos[u];
            (
                u,
                Point::new(p.x + r * theta.cos(), p.y + r * theta.sin()).clamped(side, side),
            )
        })
        .collect()
}

/// The steady phase. With `mirror`, every tick is also applied to a
/// bare `DynamicUdg` and its repair is accounted (replays only).
fn steady(
    tr: &mut Tracer,
    seed: u64,
    state: &mut MaintainedWcds,
    mut mirror: Option<&mut DynamicUdg>,
    budget: &Budget,
) -> Steady {
    let side = side();
    let mut out = Steady::default();
    let mut rng = ChaCha12Rng::seed_from_u64(derive_seed(seed, 7));
    out.repairs = mirror.is_some().then(|| RepairStats::new(&state.wcds()));
    let start = Instant::now();
    let (mut build_w, mut tick_w) = (Windows::new(start), Windows::new(start));
    let (mut i, mut k) = (0, 0);
    loop {
        // a sample lands in the window it was started in, so a build
        // that runs past its window does not spill into a tick window
        let at = Instant::now();
        let build = match *budget {
            Budget::Until(end) => {
                if at >= end && i >= MIN_BUILDS && k >= MIN_TICKS {
                    break;
                }
                if at >= end {
                    i < MIN_BUILDS
                } else {
                    ((at - start).as_nanos() / WINDOW.as_nanos()).is_multiple_of(2)
                }
            }
            Budget::Count(b, n) => {
                if i >= b && k >= n {
                    break;
                }
                i < b
            }
        };
        if build {
            let points = tr.span("geom.deploy", "deploy::uniform", |_| {
                deploy::uniform(N, side, side, derive_seed(seed, 100 + i as u64))
            });
            let t = Instant::now();
            let udg = tr.span("graph.udg", "UnitDiskGraph::build", |_| {
                UnitDiskGraph::build(points, 1.0)
            });
            let (wcds, parts) =
                tr.span("core.partition", "PartitionedTwo::construct_parts", |_| {
                    let (mis, bridges) = PartitionedTwo::new().construct_parts(&udg);
                    let parts = (i == 0).then(|| (mis.clone(), bridges.clone()));
                    (Wcds::new(mis, bridges), parts)
                });
            let spanner = tr.span("core.spanner", "Wcds::weakly_induced_subgraph", |_| {
                wcds.weakly_induced_subgraph(udg.graph())
            });
            out.build_us.push(us(t.elapsed()));
            build_w.push(at, us(t.elapsed()));
            std::hint::black_box(&spanner);
            out.mis = wcds.mis_dominators().len();
            out.bridges = wcds.additional_dominators().len();
            out.edges = udg.graph().edge_count();
            if let Some((mis, bridges)) = parts {
                out.first = Some((udg, mis, bridges));
            }
            i += 1;
        } else {
            let moves = drift_tick(&mut rng, state.points(), side);
            let t = Instant::now();
            let report = tr.span(MAINT, "MaintainedWcds::apply_motion", |_| {
                state.apply_motion(&moves)
            });
            out.tick_us.push(us(t.elapsed()));
            tick_w.push(at, us(t.elapsed()));
            out.moves += moves.len() as u64;
            if let (Some(d), Some(repairs)) = (mirror.as_deref_mut(), out.repairs.as_mut()) {
                let delta = tr.span("graph.dynamic", "DynamicUdg::move_nodes", |_| {
                    d.move_nodes(&moves)
                });
                tr.span("bench", "accounting", |_| {
                    repairs.record(moves.len(), &report, &delta, &state.wcds());
                });
            }
            out.drift += t.elapsed();
            k += 1;
        }
    }
    let end = Instant::now();
    (out.build_w, out.tick_w) = (build_w.finish(end), tick_w.finish(end));
    out
}

/// Replay prelude plus steady phase: fresh maintained state and mirror.
fn replay(tr: &mut Tracer, seed: u64, budget: &Budget) -> (Steady, Duration) {
    let side = side();
    let t0 = Instant::now();
    let points = tr.span("geom.deploy", "deploy::uniform", |_| {
        deploy::uniform(N, side, side, derive_seed(seed, 1))
    });
    let mut state = tr.span(MAINT, "MaintainedWcds::new", |_| {
        MaintainedWcds::new(points.clone(), 1.0)
    });
    let mut mirror = tr.span("graph.dynamic", "DynamicUdg::new", |_| {
        DynamicUdg::new(points, 1.0)
    });
    let out = steady(tr, seed, &mut state, Some(&mut mirror), budget);
    (out, t0.elapsed())
}

pub fn run(seed: u64, secs: f64, traced: bool, rep: &mut Report) -> Option<Tracer> {
    let side = side();
    rep.note("nodes", N);

    // set-up: input generation plus the maintained state's construction
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut state = None;
    for _ in 0..SETUP_REPS {
        drop(state.take());
        let t0 = Instant::now();
        let points = deploy::uniform(N, side, side, derive_seed(seed, 1));
        state = Some(MaintainedWcds::new(points, 1.0));
        setup.push(t0.elapsed().as_secs_f64());
    }
    let mut state = state.expect("at least one set-up");
    rep.put("setup_s", median(&setup));

    let budget = Budget::Until(Instant::now() + Duration::from_secs_f64(secs));
    let out = steady(&mut Tracer::new(false), seed, &mut state, None, &budget);
    rep.attempted += (out.build_us.len() + out.tick_us.len()) as u64;
    let best_tick_us = best_runs_low(&out.tick_us);
    rep.put("ops_per_s", TICK as f64 * 1e6 / best_tick_us);
    rep.put("main_p50_us", best_tick_us);
    rep.put("side_p50_us", best_runs_low(&out.build_us));
    rep.put("client.main_p99_us", typical_p99(&out.tick_w));
    rep.put("client.side_p99_us", typical_p99(&out.build_w));
    rep.put("client.main_samples", out.tick_us.len() as f64);
    rep.put("client.side_samples", out.build_us.len() as f64);
    rep.note(
        "mean_moves_per_s",
        out.moves as f64 / out.drift.as_secs_f64(),
    );
    rep.note("typical_tick_us", typical(&out.tick_w));
    rep.note("typical_build_us", typical(&out.build_w));
    rep.note_windows("main_windows_us", &out.tick_w);
    rep.note_windows("side_windows_us", &out.build_w);
    rep.note("builds", out.build_us.len());
    rep.note("ticks", out.tick_us.len());
    rep.note("moves", out.moves);

    // oracles: partitioned == sequential Algorithm II on the first build;
    // maintained state == from-scratch construction on the final points
    if let Some((udg, mis, bridges)) = &out.first {
        let seq = AlgorithmTwo::new().construct_parts(udg.graph());
        let ok = seq == (mis.clone(), bridges.clone());
        rep.failed += u64::from(!ok);
        rep.check(ok, || {
            "partitioned Algorithm II differs from sequential AlgorithmTwo".into()
        });
    }
    let fresh = MaintainedWcds::new(state.points().to_vec(), 1.0);
    let ok = fresh.graph() == state.graph() && fresh.wcds() == state.wcds();
    rep.failed += u64::from(!ok);
    rep.check(ok, || {
        "maintained state differs from MaintainedWcds::new on the final points".into()
    });
    drop(fresh);
    rep.put(
        "client.failed_frac",
        rep.failed as f64 / rep.attempted.max(1) as f64,
    );
    rep.put("peak_rss_mb", crate::report::peak_rss_mb());
    drop(state);
    if !traced {
        return None;
    }

    let budget = Budget::Count(
        out.build_us.len().min(REPLAY_BUILDS),
        out.tick_us.len().min(REPLAY_TICKS),
    );
    drop(out);
    let untraced = || replay(&mut Tracer::new(false), seed, &budget).1;
    let before = untraced();
    let mut tr = Tracer::new(true);
    let (r, wall) = replay(&mut tr, seed, &budget);
    let untraced = before.min(untraced());
    let p50 = |name: &str| tr.median_ns(name) / 1e6;
    rep.put("geom.deploy.uniform_ms", p50("deploy::uniform"));
    rep.put("graph.udg.build_ms", p50("UnitDiskGraph::build"));
    rep.put("graph.udg.edges", r.edges as f64);
    let construct = p50("PartitionedTwo::construct_parts");
    rep.put("core.partition.construct_ms", construct);
    rep.put("core.partition.mis", r.mis as f64);
    rep.put("core.partition.bridges", r.bridges as f64);
    let spanner = p50("Wcds::weakly_induced_subgraph");
    rep.put("core.spanner.weakly_induced_ms", spanner);
    rep.put("core.maintenance.new_ms", p50("MaintainedWcds::new"));
    let motion = p50("MaintainedWcds::apply_motion");
    rep.put("core.maintenance.apply_motion_ms_p50", motion);
    rep.put(
        "graph.dynamic.move_nodes_ms_p50",
        p50("DynamicUdg::move_nodes"),
    );
    if let Some(repairs) = &r.repairs {
        repairs.put(rep);
    }
    crate::trace_summary(rep, &tr, wall, untraced);
    Some(tr)
}
