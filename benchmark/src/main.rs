//! The repository benchmark: four seeded workloads over the wcds
//! crates' public APIs, each checked against an oracle.
//!
//! ```text
//! wcds-repobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a `host` line (build and machine facts), a `notes` line
//! (sizes and sample counts), and as the last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The traced run writes its spans under the build directory. Exits 1
//! when an oracle check fails and 2 on bad arguments. See README.md.

mod city;
mod repair;
mod report;
mod serve;
mod sim;
mod trace;

use report::{jstr, num, Report};
use std::path::PathBuf;
use std::time::Duration;
use trace::Tracer;

/// A layer name, after the module it times (`service.store`, ...).
pub type Layer = &'static str;

const WORKLOADS: [&str; 4] = ["serve_read", "serve_churn", "city_build", "distributed_sim"];

/// End-to-end metrics (`--trace 0`), measured with tracing off.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("main_p50_us", "us"),
    ("side_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`). A layer that does no work on a
/// workload reports 0.
const PER_LAYER: [(&str, &str); 65] = [
    ("client.main_p99_us", "us"),
    ("client.side_p99_us", "us"),
    ("client.main_samples", "count"),
    ("client.side_samples", "count"),
    ("client.failed_frac", "ratio"),
    ("service.eventloop.syscalls_per_req", "count"),
    ("service.eventloop.pipeline_depth_max", "count"),
    ("service.eventloop.overhead_us_p50", "us"),
    ("service.protocol.decode_ns_p50", "ns"),
    ("service.protocol.encode_ns_p50", "ns"),
    ("service.protocol.bytes_per_req", "B"),
    ("service.protocol.self_ms", "ms"),
    ("service.store.hit_rate", "ratio"),
    ("service.store.patched_frac", "ratio"),
    ("service.store.rebuilds_per_1k_req", "count"),
    ("service.store.rebuild_ms_p50", "ms"),
    ("service.store.read_us_p50", "us"),
    ("service.store.mutate_batch_ms_p50", "ms"),
    ("service.store.mutate_self_ms_p50", "ms"),
    ("service.store.self_ms", "ms"),
    ("routing.router.build_ms_p50", "ms"),
    ("routing.router.heads", "count"),
    ("routing.router.table_bytes", "B"),
    ("routing.router.route_us_p50", "us"),
    ("routing.router.path_hops_mean", "count"),
    ("routing.router.self_ms", "ms"),
    ("routing.broadcast.plan_ms", "ms"),
    ("routing.broadcast.simulate_us_p50", "us"),
    ("routing.broadcast.self_ms", "ms"),
    ("core.spanner.weakly_induced_ms", "ms"),
    ("core.spanner.self_ms", "ms"),
    ("graph.traversal.is_connected_ms", "ms"),
    ("graph.traversal.self_ms", "ms"),
    ("core.maintenance.apply_motion_ms_p50", "ms"),
    ("core.maintenance.touched_nodes_per_move", "count"),
    ("core.maintenance.changed_frac", "ratio"),
    ("core.maintenance.mis_flips_per_batch", "count"),
    ("core.maintenance.locality_radius_max", "count"),
    ("core.maintenance.new_ms", "ms"),
    ("core.maintenance.self_ms", "ms"),
    ("graph.dynamic.move_nodes_ms_p50", "ms"),
    ("graph.dynamic.delta_edges_per_move", "count"),
    ("graph.dynamic.self_ms", "ms"),
    ("graph.udg.build_ms", "ms"),
    ("graph.udg.edges", "count"),
    ("graph.udg.self_ms", "ms"),
    ("core.partition.construct_ms", "ms"),
    ("core.partition.mis", "count"),
    ("core.partition.bridges", "count"),
    ("core.partition.self_ms", "ms"),
    ("core.algo2.construct_ms", "ms"),
    ("core.algo2.self_ms", "ms"),
    ("geom.deploy.uniform_ms", "ms"),
    ("geom.deploy.self_ms", "ms"),
    ("sim.events", "count"),
    ("sim.messages", "count"),
    ("sim.messages_per_node", "count"),
    ("sim.virtual_time", "ticks"),
    ("sim.events_per_s", "1/s"),
    ("sim.self_ms", "ms"),
    ("bench.self_ms", "ms"),
    ("trace.wall_ms", "ms"),
    ("trace.attributed_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// Layer self times may miss the traced wall time by at most this share.
const RECONCILE_TOLERANCE: f64 = 0.10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    if !(seconds > 0.0 && seconds <= 3600.0) {
        return Err(format!("--seconds must be in (0, 3600], not {seconds}"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Where a traced run leaves its spans: the build directory.
fn trace_path(args: &Args) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    dir.join("repobench-traces")
        .join(format!("{}-seed{}.tsv", args.workload, args.seed))
}

fn host_line(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |p| p.get());
    let env_threads =
        std::env::var("WCDS_THREADS").map_or_else(|_| "null".to_string(), |v| jstr(&v));
    format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"features\": \"default\", \"library_threads\": {}, \
         \"wcds_threads_env\": {env_threads}, \"rustc\": {}, \"git_rev\": {}, \"profile\": {}}}, \
         \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        wcds_graph::parallel::threads(),
        jstr(env!("REPOBENCH_RUSTC")),
        jstr(env!("REPOBENCH_GIT_REV")),
        jstr(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
        jstr(&args.workload),
        args.seed,
        num(args.seconds),
        args.trace,
    )
}

/// Per-layer self times, the reconciliation of their sum against the
/// traced wall time, and the tracing overhead against the same replay
/// with the tracer off (the faster of one run before and one after the
/// traced replay).
pub fn trace_summary(rep: &mut Report, tr: &Tracer, traced: Duration, untraced: Duration) {
    let per = tr.layer_self_ns();
    for (layer, ns) in &per {
        rep.put(&format!("{layer}.self_ms"), ns / 1e6);
    }
    let attributed: f64 = per.values().sum();
    let wall = traced.as_secs_f64() * 1e9;
    let share = attributed / wall;
    rep.put("trace.wall_ms", wall / 1e6);
    rep.put("trace.attributed_frac", share);
    let over = traced.as_secs_f64() - untraced.as_secs_f64();
    rep.put("trace.overhead_ms", over * 1e3);
    rep.put("trace.overhead_frac", over / untraced.as_secs_f64());
    rep.note("spans", tr.spans().len());
    rep.check((share - 1.0).abs() <= RECONCILE_TOLERANCE, || {
        format!("layer self times cover {share:.3} of the traced wall time")
    });
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: wcds-repobench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    println!("{}", host_line(&args));
    let mut rep = Report::default();
    let (seed, secs, traced) = (args.seed, args.seconds, args.trace);
    let tracer = match args.workload.as_str() {
        "serve_read" => serve::run(serve::Mix::Read, seed, secs, traced, &mut rep),
        "serve_churn" => serve::run(serve::Mix::Churn, seed, secs, traced, &mut rep),
        "city_build" => city::run(seed, secs, traced, &mut rep),
        _ => sim::run(seed, secs, traced, &mut rep),
    };
    if let Some(tr) = &tracer {
        let path = trace_path(&args);
        match tr.write_tsv(&path) {
            Ok(()) => rep.note("trace_file", path.display()),
            Err(e) => rep.check(false, || format!("writing {}: {e}", path.display())),
        }
    }
    for name in rep.metrics.iter().map(|m| m.name.as_str()) {
        let known = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .any(|(n, _)| *n == name);
        assert!(known, "metric {name} is in neither metric table");
    }
    for (name, _) in END_TO_END {
        assert!(
            rep.get(name).is_some(),
            "end-to-end metric {name} was not measured"
        );
    }
    let notes: Vec<String> = rep
        .notes
        .iter()
        .map(|(k, v)| format!("{}: {}", jstr(k), jstr(v)))
        .collect();
    println!("{{\"notes\": {{{}}}}}", notes.join(", "));
    for m in &rep.mismatches {
        eprintln!("oracle mismatch: {m}");
    }
    let keep: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    println!("{}", rep.result_line(keep));
    std::process::exit(if rep.correct() { 0 } else { 1 });
}
