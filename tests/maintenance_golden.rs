//! Golden digests of incremental WCDS maintenance.
//!
//! Every case drives a `MaintainedWcds` through a seeded mutation trace
//! and reduces what the engine exposes to two FNV-1a digests: one over
//! the `Debug` rendering of every `RepairReport` in order (affected,
//! promoted, demoted and role-changed nodes, locality radius, net edge
//! delta, touched-region size), one over the final topology (every
//! adjacency row) and the final `wcds()`. The table was produced by the
//! engine this file was introduced against; any rewrite of the repair
//! path must reproduce it bit for bit.
//!
//! Sizes stay small because debug builds re-run the from-scratch
//! Algorithm II oracle after every repair.
//!
//! On a mismatch the test prints the whole recomputed table in source
//! form, so a deliberate semantic change can be re-pinned by pasting it.

use wcds::core::maintenance::{MaintainedWcds, RepairReport};
use wcds::geom::{deploy, Point};
use wcds::graph::NodeId;
use wcds_rng::{ChaCha12Rng, Rng};

/// Expected `[reports, final state]` digests per case.
const GOLDEN: &[(&str, [u64; 2])] = &[
    ("drift ticks n2000", [0x2435cb1277f31059, 0x964cf38be86ca4e8]),
    ("single moves", [0x9aaaddfdda86a0cd, 0x44435b913d1a513a]),
    ("joins", [0x2516a323fc8d44b3, 0x72a43a8c0c1f73b5]),
    ("leaves", [0x77e8b2891521c1af, 0x3ae87b16095467a6]),
    ("fling and return", [0x6727006b115d90f4, 0x4e15f30a05fe1e27]),
    ("dense repairs", [0xd68e1d7495c68710, 0xe1a708173e0faf49]),
];

fn fnv1a(h: &mut u64, s: &str) {
    for b in s.bytes() {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Side of a square field giving average degree `deg` at radius 1.
fn side_for(n: usize, deg: f64) -> f64 {
    (n as f64 * std::f64::consts::PI / deg).sqrt()
}

/// Collects the reports of one trace and digests them with the final
/// state.
struct Recorder {
    reports: u64,
    count: usize,
}

impl Recorder {
    fn new() -> Self {
        Self { reports: FNV_OFFSET, count: 0 }
    }

    fn push(&mut self, report: &RepairReport) {
        fnv1a(&mut self.reports, &format!("{report:?}"));
        self.count += 1;
    }

    fn finish(self, net: &MaintainedWcds) -> [u64; 2] {
        assert!(self.count > 0, "a case must record at least one repair");
        let g = net.graph();
        let mut state = FNV_OFFSET;
        for u in g.nodes() {
            fnv1a(&mut state, &format!("{u}:{:?};", g.neighbors(u)));
        }
        fnv1a(&mut state, &format!("{:?}", net.wcds()));
        [self.reports, state]
    }
}

/// `k` bounded-step drifts of distinct random nodes, clamped to the field.
fn drift_tick(
    rng: &mut ChaCha12Rng,
    points: &[Point],
    side: f64,
    k: usize,
    step: f64,
) -> Vec<(NodeId, Point)> {
    let n = points.len();
    let mut picked: Vec<NodeId> = Vec::with_capacity(k);
    while picked.len() < k.min(n) {
        let u = rng.gen_range(0..n);
        if !picked.contains(&u) {
            picked.push(u);
        }
    }
    picked
        .into_iter()
        .map(|u| {
            let p = points[u];
            let dx = (rng.gen::<f64>() - 0.5) * 2.0 * step;
            let dy = (rng.gen::<f64>() - 0.5) * 2.0 * step;
            (u, Point::new((p.x + dx).clamp(0.0, side), (p.y + dy).clamp(0.0, side)))
        })
        .collect()
}

fn random_point(rng: &mut ChaCha12Rng, side: f64) -> Point {
    Point::new(rng.gen::<f64>() * side, rng.gen::<f64>() * side)
}

/// 64-move drift ticks on a sparse n = 2,000 field.
fn drift_ticks() -> [u64; 2] {
    let n = 2_000;
    let side = side_for(n, 11.0);
    let mut net = MaintainedWcds::new(deploy::uniform(n, side, side, 4), 1.0);
    let mut rng = ChaCha12Rng::seed_from_u64(11);
    let mut rec = Recorder::new();
    for _ in 0..10 {
        let moves = drift_tick(&mut rng, net.points(), side, 64, 0.25);
        rec.push(&net.apply_motion(&moves));
    }
    rec.finish(&net)
}

/// Single-node moves of up to 0.4 per axis, some of them no-ops.
fn single_moves() -> [u64; 2] {
    let n = 400;
    let side = side_for(n, 11.0);
    let mut net = MaintainedWcds::new(deploy::uniform(n, side, side, 7), 1.0);
    let mut rng = ChaCha12Rng::seed_from_u64(23);
    let mut rec = Recorder::new();
    for step in 0..40 {
        let moves = if step % 10 == 9 {
            let u = rng.gen_range(0..n);
            vec![(u, net.points()[u])]
        } else {
            drift_tick(&mut rng, net.points(), side, 1, 0.4)
        };
        rec.push(&net.apply_motion(&moves));
    }
    rec.finish(&net)
}

/// Joins at random positions, then one far from everything.
fn joins() -> [u64; 2] {
    let n = 300;
    let side = side_for(n, 11.0);
    let mut net = MaintainedWcds::new(deploy::uniform(n, side, side, 5), 1.0);
    let mut rng = ChaCha12Rng::seed_from_u64(31);
    let mut rec = Recorder::new();
    for _ in 0..12 {
        let p = random_point(&mut rng, side);
        rec.push(&net.apply_join(p));
    }
    rec.push(&net.apply_join(Point::new(side * 10.0, side * 10.0)));
    let p = random_point(&mut rng, side);
    rec.push(&net.apply_join(p));
    rec.finish(&net)
}

/// Leaves of random nodes and of MIS heads: the id remap plus the
/// release of the leaver's own bridge contributions.
fn leaves() -> [u64; 2] {
    let n = 300;
    let side = side_for(n, 11.0);
    let mut net = MaintainedWcds::new(deploy::uniform(n, side, side, 9), 1.0);
    let mut rng = ChaCha12Rng::seed_from_u64(47);
    let mut rec = Recorder::new();
    for step in 0..14 {
        let u = if step % 2 == 0 {
            rng.gen_range(0..net.graph().node_count())
        } else {
            let mis = net.wcds().mis_dominators().to_vec();
            mis[rng.gen_range(0..mis.len())]
        };
        rec.push(&net.apply_leave(u));
    }
    rec.finish(&net)
}

/// Nodes flung far away (disconnecting them and splitting the field),
/// then returned home one by one, then all flung and returned in one
/// batch each.
fn fling_and_return() -> [u64; 2] {
    let n = 300;
    let side = side_for(n, 11.0);
    let mut net = MaintainedWcds::new(deploy::uniform(n, side, side, 13), 1.0);
    let mut rec = Recorder::new();
    let victims: Vec<NodeId> =
        net.wcds().mis_dominators().iter().copied().step_by(17).take(3).collect();
    let homes: Vec<Point> = victims.iter().map(|&u| net.points()[u]).collect();
    for (i, &u) in victims.iter().enumerate() {
        let far = Point::new(side * 5.0 + i as f64 * 3.0, side * 5.0);
        rec.push(&net.apply_motion(&[(u, far)]));
    }
    for (&u, &home) in victims.iter().zip(&homes) {
        rec.push(&net.apply_motion(&[(u, home)]));
    }
    let batch: Vec<(NodeId, Point)> =
        victims.iter().map(|&u| (u, Point::new(side * 8.0, side * 8.0))).collect();
    rec.push(&net.apply_motion(&batch));
    let back: Vec<(NodeId, Point)> = victims.iter().copied().zip(homes.iter().copied()).collect();
    rec.push(&net.apply_motion(&back));
    rec.finish(&net)
}

/// Repairs whose 3-hop ball covers at least half the graph: the
/// wholesale contribution rebuild.
fn dense_repairs() -> [u64; 2] {
    let n = 80;
    let side = side_for(n, 14.0);
    let mut net = MaintainedWcds::new(deploy::uniform(n, side, side, 17), 1.0);
    let mut rng = ChaCha12Rng::seed_from_u64(59);
    let mut rec = Recorder::new();
    let mut dense = 0;
    for step in 0..10 {
        let k = if step % 2 == 0 { 40 } else { 2 };
        let moves = drift_tick(&mut rng, net.points(), side, k, 0.5);
        let report = net.apply_motion(&moves);
        if report.touched_nodes * 2 >= n {
            dense += 1;
        }
        rec.push(&report);
    }
    let p = random_point(&mut rng, side);
    rec.push(&net.apply_join(p));
    rec.push(&net.apply_leave(3));
    assert!(dense >= 5, "only {dense} repairs took the dense branch");
    rec.finish(&net)
}

fn cases() -> Vec<(&'static str, [u64; 2])> {
    vec![
        ("drift ticks n2000", drift_ticks()),
        ("single moves", single_moves()),
        ("joins", joins()),
        ("leaves", leaves()),
        ("fling and return", fling_and_return()),
        ("dense repairs", dense_repairs()),
    ]
}

#[test]
fn repair_reports_match_pinned_digests() {
    let got = cases();
    let matches = got.len() == GOLDEN.len()
        && got.iter().zip(GOLDEN).all(|((name, d), (gname, gd))| name == gname && d == gd);
    if !matches {
        let mut table = String::new();
        for (name, [a, b]) in &got {
            table.push_str(&format!("    (\"{name}\", [0x{a:016x}, 0x{b:016x}]),\n"));
        }
        panic!("maintenance output diverged from the pinned digests; recomputed table:\n{table}");
    }
}
