//! `distributed_sim`: seeded asynchronous distributed Algorithm II on
//! the `wcds-sim` scheduler, run to quiescence and repeated.

use crate::report::{
    best_runs_high, best_runs_low, derive_seed, mean, median, typical, typical_p99, us, Report,
    Window, Windows,
};
use crate::serve::connected_deployment;
use crate::trace::Tracer;
use std::time::{Duration, Instant};
use wcds_core::algo2::{distributed, AlgorithmTwo};
use wcds_geom::deploy;
use wcds_graph::{Graph, UnitDiskGraph};

const N: usize = 4_000;
const AVG_DEGREE: f64 = 14.0;
const SETUP_REPS: usize = 21;
const MIN_RUNS: usize = 3;
/// Distributed runs in each replay (untraced and traced).
const REPLAY_RUNS: usize = 2;

#[derive(Default)]
struct Runs {
    run_us: Vec<f64>,
    run_w: Vec<Window>,
    central_w: Vec<Window>,
    central_us: Vec<f64>,
    events: Vec<f64>,
    messages: Vec<f64>,
    virtual_time: Vec<f64>,
    mismatches: Vec<String>,
    /// Runs with at least one mismatch.
    failed: u64,
}

/// Runs distributed Algorithm II with seeds derived from the workload
/// seed until `more` says stop; each run is checked against the
/// centralized construction on the same graph.
fn runs(tr: &mut Tracer, g: &Graph, seed: u64, more: impl Fn(usize) -> bool) -> Runs {
    let mut out = Runs::default();
    let start = Instant::now();
    let (mut run_w, mut central_w) = (Windows::new(start), Windows::new(start));
    let mut i = 0;
    while more(i) {
        let s = derive_seed(seed, 200 + i as u64);
        let t = Instant::now();
        let run = tr.span("sim", "run_asynchronous", |_| {
            distributed::run_asynchronous(g, s)
        });
        let run_us = us(t.elapsed());
        out.run_us.push(run_us);
        run_w.push(Instant::now(), run_us);
        let t = Instant::now();
        let (mut mis, _) = tr.span("core.algo2", "AlgorithmTwo::construct_parts", |_| {
            AlgorithmTwo::new().construct_parts(g)
        });
        out.central_us.push(us(t.elapsed()));
        central_w.push(Instant::now(), us(t.elapsed()));
        tr.span("bench", "oracle", |_| {
            let before = out.mismatches.len();
            mis.sort_unstable();
            if run.result.wcds.mis_dominators() != mis.as_slice() {
                out.mismatches.push(format!(
                    "seed {s}: distributed MIS differs from the centralized one"
                ));
            }
            if !run.result.wcds.is_valid(g) {
                out.mismatches
                    .push(format!("seed {s}: distributed WCDS is not valid"));
            }
            out.failed += u64::from(out.mismatches.len() > before);
        });
        out.events.push(run.report.events as f64);
        out.messages.push(run.report.messages.total() as f64);
        out.virtual_time.push(run.report.time as f64);
        i += 1;
    }
    let end = Instant::now();
    (out.run_w, out.central_w) = (run_w.finish(end), central_w.finish(end));
    out
}

fn replay(
    tr: &mut Tracer,
    side: f64,
    deploy_seed: u64,
    seed: u64,
    count: usize,
) -> (Runs, Duration) {
    let t0 = Instant::now();
    let points = tr.span("geom.deploy", "deploy::uniform", |_| {
        deploy::uniform(N, side, side, deploy_seed)
    });
    let udg = tr.span("graph.udg", "UnitDiskGraph::build", |_| {
        UnitDiskGraph::build(points, 1.0)
    });
    let out = runs(tr, udg.graph(), seed, |i| i < count);
    (out, t0.elapsed())
}

pub fn run(seed: u64, secs: f64, traced: bool, rep: &mut Report) -> Option<Tracer> {
    rep.note("nodes", N);
    // the seed picks a connected deployment; set-up is generating that
    // deployment and building its graph (the draws it took to find a
    // connected one are input selection, not set-up)
    let (_, side, deploy_seed) = connected_deployment(N, AVG_DEGREE, seed);
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut input = None;
    for _ in 0..SETUP_REPS {
        drop(input.take());
        let t0 = Instant::now();
        let udg = UnitDiskGraph::build(deploy::uniform(N, side, side, deploy_seed), 1.0);
        setup.push(t0.elapsed().as_secs_f64());
        input = Some(udg);
    }
    let udg = input.expect("at least one set-up");
    rep.put("setup_s", median(&setup));
    let edges = udg.graph().edge_count();
    rep.note("edges", edges);
    rep.note("deploy_seed", deploy_seed);

    let deadline = Instant::now() + Duration::from_secs_f64(secs);
    let out = runs(&mut Tracer::new(false), udg.graph(), seed, |i| {
        i < MIN_RUNS || Instant::now() < deadline
    });
    let n_runs = out.run_us.len() as u64;
    rep.attempted += n_runs;
    rep.failed += out.failed;
    for m in &out.mismatches {
        rep.check(false, || m.clone());
    }
    let rates: Vec<f64> = (out.messages.iter().zip(&out.run_us))
        .map(|(m, t)| m / t * 1e6)
        .collect();
    rep.put("ops_per_s", best_runs_high(&rates));
    rep.put("main_p50_us", best_runs_low(&out.run_us));
    rep.put("side_p50_us", best_runs_low(&out.central_us));
    rep.put("client.main_p99_us", typical_p99(&out.run_w));
    rep.put("client.side_p99_us", typical_p99(&out.central_w));
    rep.note("typical_run_us", typical(&out.run_w));
    rep.note("typical_central_us", typical(&out.central_w));
    rep.note_windows("main_windows_us", &out.run_w);
    rep.note_windows("side_windows_us", &out.central_w);
    rep.put("client.main_samples", n_runs as f64);
    rep.put("client.side_samples", out.central_us.len() as f64);
    rep.put(
        "client.failed_frac",
        rep.failed as f64 / rep.attempted.max(1) as f64,
    );
    rep.put("peak_rss_mb", crate::report::peak_rss_mb());
    rep.note("runs", n_runs);
    rep.note("messages_per_run", mean(&out.messages));
    drop(udg);
    if !traced {
        return None;
    }

    let count = out.run_us.len().min(REPLAY_RUNS);
    let untraced = || replay(&mut Tracer::new(false), side, deploy_seed, seed, count).1;
    let before = untraced();
    let mut tr = Tracer::new(true);
    let (r, wall) = replay(&mut tr, side, deploy_seed, seed, count);
    let untraced = before.min(untraced());
    rep.put("graph.udg.edges", edges as f64);
    let run_s: f64 = r.run_us.iter().sum::<f64>() / 1e6;
    rep.put("sim.events", mean(&r.events));
    rep.put("sim.messages", mean(&r.messages));
    rep.put("sim.messages_per_node", mean(&r.messages) / N as f64);
    rep.put("sim.virtual_time", mean(&r.virtual_time));
    rep.put("sim.events_per_s", r.events.iter().sum::<f64>() / run_s);
    rep.put(
        "core.algo2.construct_ms",
        tr.median_ns("AlgorithmTwo::construct_parts") / 1e6,
    );
    rep.put(
        "graph.udg.build_ms",
        tr.median_ns("UnitDiskGraph::build") / 1e6,
    );
    rep.put(
        "geom.deploy.uniform_ms",
        tr.median_ns("deploy::uniform") / 1e6,
    );
    crate::trace_summary(rep, &tr, wall, untraced);
    Some(tr)
}
