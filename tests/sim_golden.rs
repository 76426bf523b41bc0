//! Golden digests of the simulator's observable output.
//!
//! Every case runs a protocol under one schedule with full tracing and
//! reduces what the run exposes to four FNV-1a digests of its `Debug`
//! rendering: the trace events (plus overflow count), the
//! `MessageStats`, the `events`/`time`/`rounds` counters together with
//! the inspector's call times, and the protocol's final per-node
//! outcome. The table was produced by the scheduler this file was
//! introduced against; any scheduler rewrite must reproduce it bit for
//! bit — same event order, same RNG draws, same fault fates.
//!
//! On a mismatch the test prints the whole recomputed table in source
//! form, so a deliberate semantic change can be re-pinned by pasting it.

use wcds::core::algo2::distributed::{Algo2Node, NodeInfo};
use wcds::core::election::ElectionNode;
use wcds::geom::deploy;
use wcds::graph::{generators, traversal, Graph, UnitDiskGraph};
use wcds::sim::{Context, FaultPlan, Protocol, Schedule, SimReport, Simulator, Time};

/// Room for every event of every case: digests cover the full trace.
const TRACE_CAPACITY: usize = 1 << 20;

/// Expected `[trace, stats, counters, outcome]` digests per case.
const GOLDEN: &[(&str, [u64; 4])] = &[
    ("algo2 async seed 0", [0x60cb14613a3b4d63, 0xc814bd1e6386b3ef, 0x0bd26cd4784828ee, 0x6293fde3c62b16aa]),
    ("algo2 async seed 1", [0xdea771a5fc0f77d9, 0x283a7d86f0190d2b, 0xaf89e7b42657263e, 0x94bd1a0bd28ec273]),
    ("algo2 async seed 2", [0x46d71addbdf3069c, 0x507b9e52613b4216, 0xe0f95c17f9efa49f, 0x1da0cacda0f91c99]),
    ("algo2 async seed 3", [0xff0067ddbed617f4, 0x57b6ddfb226ad07c, 0x6ec10cce72b4c5b6, 0x7e9ebecdcd1df063]),
    ("algo2 async seed 0 max_delay 3", [0x29e71f80727f5cfb, 0x05aa382251489c06, 0x29ad61c7f4d4004b, 0x4c82f62d9b6c9973]),
    ("algo2 async seed 1 max_delay 3", [0x2cd389770f9f72d1, 0x7448aed49d3473ab, 0x2d6aefc368240d92, 0xea1d3584689ce57b]),
    ("algo2 sync", [0x4602369d1a08beff, 0x59fbdd878158418e, 0x759752bf4c9743b2, 0x99c2083f2159b0a2]),
    ("algo2 sync descending", [0x51ab21eef61720e4, 0x89df5c9df764cdc6, 0x7162aacb57fce0de, 0xbcc27284020c49c3]),
    ("algo2 async crash", [0xf5f7ccbcd622624e, 0x8c87a03ae10c3c8d, 0x00d63a437033111e, 0x0d6b70a222ee6e88]),
    ("algo2 sync crash", [0xb0413c010b61c9aa, 0x5b6967df06eb7c32, 0xdda43ac5bfcd0e3d, 0xa4ff8ae1a0a0a635]),
    ("algo2 async drop", [0x37a07837635c273d, 0x1a5ce0b9535acc21, 0xa38a87d7de003083, 0x2c05177ab9fbe20e]),
    ("algo2 sync drop", [0x6e505acfeb4c8167, 0xa5bb13d4bb94ce5a, 0xf3209aa97877245f, 0x0f4efbfa4a0cd33c]),
    ("algo2 async duplicate", [0x7edb71a2098458ed, 0x57cab1abd5d9f1c1, 0x39ccf59a5b717bfe, 0x0b72c472035dec01]),
    ("algo2 sync duplicate", [0x199b64205a8c7fcd, 0x8ea595fe0e99bdcc, 0x2a3b5940f41e205b, 0x99c2083f2159b0a2]),
    ("election async", [0xe08426135056dc10, 0x619577e337d363b6, 0xc89cb8377078c8ef, 0x9b8e7f6a5ba6ffd2]),
    ("election sync descending", [0x0bb841d277974a2e, 0x68ecf031edf411e5, 0x3aedb7f08cdbb59a, 0xb5b28d8a84e16476]),
    ("timers async", [0xaa6456fea86560fd, 0xcb1977af29af27f2, 0xac37a83d61fc2c3d, 0xcd29761fc83d2e75]),
    ("timers sync", [0xaa6456fea86560fd, 0xcb1977af29af27f2, 0xda8c5ff7f4d3c839, 0xcd29761fc83d2e75]),
    ("timed gossip async", [0x00aee88a95d545d2, 0x4ec4d91e2b0efe3e, 0xc968d3c289b0b8e4, 0x61f501471523dcc9]),
    ("timed gossip sync", [0xdcb273b26f38ae27, 0x377f09294cf449f1, 0x888e84d6a66f89c0, 0x61f501471523dcc9]),
    ("timed gossip sync descending", [0x7779ae0adaa434e1, 0x377f09294cf449f1, 0xff416894f8e99410, 0x61f501471523dcc9]),
];

fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A connected uniform unit-disk graph: the first deployment seed from
/// `seed` upward whose graph is connected.
fn connected_udg(n: usize, side: f64, seed: u64) -> Graph {
    (seed..)
        .map(|s| UnitDiskGraph::build(deploy::uniform(n, side, side, s), 1.0))
        .find(|udg| traversal::is_connected(udg.graph()))
        .map(|udg| udg.graph().clone())
        .expect("some seed yields a connected deployment")
}

/// Counts timer firings; re-arms twice.
#[derive(Debug, Default)]
struct TimerProto {
    fired: u32,
}

impl Protocol for TimerProto {
    type Message = ();

    fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
        ctx.set_timer(3);
    }

    fn on_message(&mut self, _from: usize, _msg: (), _ctx: &mut Context<'_, ()>) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, ()>) {
        self.fired += 1;
        if self.fired < 3 {
            ctx.set_timer(2);
        }
    }
}

/// Min-id gossip that forwards on a timer instead of immediately, so
/// deliveries and timer firings share rounds and nodes hold several
/// pending timers at once.
#[derive(Debug)]
struct TimedGossip {
    min_seen: usize,
    last_sent: usize,
}

impl Protocol for TimedGossip {
    type Message = usize;

    fn on_start(&mut self, ctx: &mut Context<'_, usize>) {
        self.min_seen = ctx.id();
        self.last_sent = ctx.id();
        ctx.broadcast(ctx.id());
        ctx.set_timer(1 + ctx.id() as Time % 3);
    }

    fn on_message(&mut self, _from: usize, msg: usize, ctx: &mut Context<'_, usize>) {
        if msg < self.min_seen {
            self.min_seen = msg;
            ctx.set_timer(1);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, usize>) {
        if self.min_seen < self.last_sent {
            self.last_sent = self.min_seen;
            ctx.broadcast(self.min_seen);
        }
    }
}

/// Runs `P` on `g` under `schedule` (tracing enabled), recording every
/// inspector call, and digests the result; `outcome` renders the final
/// node states.
fn digest<P: Protocol>(
    g: &Graph,
    factory: impl FnMut(usize) -> P,
    schedule: Schedule,
    outcome: impl Fn(&[P]) -> String,
) -> [u64; 4] {
    let mut sim = Simulator::new(g, factory);
    let mut inspected: Vec<Time> = Vec::new();
    let report = sim
        .run_inspected(schedule.with_trace(TRACE_CAPACITY), |t, _| {
            inspected.push(t);
            Ok(())
        })
        .expect("case quiesces");
    digest_report(&report, &inspected, &outcome(sim.nodes()))
}

fn digest_report(report: &SimReport, inspected: &[Time], outcome: &str) -> [u64; 4] {
    let trace = &report.trace;
    [
        fnv1a(&format!("{:?} {}", trace.events(), trace.overflow())),
        fnv1a(&format!("{:?}", report.messages)),
        fnv1a(&format!("{} {} {} {inspected:?}", report.events, report.time, report.rounds)),
        fnv1a(outcome),
    ]
}

/// Algorithm II's outcome: colors and the routing lists of every node.
fn algo2_outcome(nodes: &[Algo2Node]) -> String {
    let infos: Vec<(_, NodeInfo)> = nodes
        .iter()
        .map(|node| {
            let info = NodeInfo {
                one_hop_doms: node.one_hop_doms().collect(),
                two_hop_doms: node.two_hop_doms().collect(),
                three_hop_doms: node.three_hop_doms().map(|(d, (v, x))| (d, v, x)).collect(),
            };
            (node.color(), info)
        })
        .collect();
    format!("{infos:?}")
}

fn election_outcome(nodes: &[ElectionNode]) -> String {
    let v: Vec<_> = nodes
        .iter()
        .map(|n| (n.leader(), n.parent(), n.children().collect::<Vec<_>>()))
        .collect();
    format!("{v:?}")
}

fn cases() -> Vec<(String, [u64; 4])> {
    let g = connected_udg(150, 4.5, 11);
    let algo2 = |schedule: Schedule| digest(&g, |_| Algo2Node::new(), schedule, algo2_outcome);
    let mut out = Vec::new();
    for seed in 0..4 {
        out.push((format!("algo2 async seed {seed}"), algo2(Schedule::asynchronous(seed))));
    }
    for seed in 0..2 {
        out.push((
            format!("algo2 async seed {seed} max_delay 3"),
            algo2(Schedule::asynchronous(seed).with_max_delay(3)),
        ));
    }
    out.push(("algo2 sync".into(), algo2(Schedule::synchronous())));
    out.push((
        "algo2 sync descending".into(),
        algo2(Schedule::synchronous().with_descending_order()),
    ));
    let crash = || FaultPlan::new(3).crash(7).crash(40);
    out.push((
        "algo2 async crash".into(),
        algo2(Schedule::asynchronous(2).with_fault_plan(crash())),
    ));
    out.push(("algo2 sync crash".into(), algo2(Schedule::synchronous().with_fault_plan(crash()))));
    let drop = || FaultPlan::new(4).drop_probability(0.05);
    out.push((
        "algo2 async drop".into(),
        algo2(Schedule::asynchronous(3).with_fault_plan(drop())),
    ));
    out.push(("algo2 sync drop".into(), algo2(Schedule::synchronous().with_fault_plan(drop()))));
    let dup = || FaultPlan::new(5).duplicate_probability(0.3);
    out.push((
        "algo2 async duplicate".into(),
        algo2(Schedule::asynchronous(4).with_fault_plan(dup())),
    ));
    out.push((
        "algo2 sync duplicate".into(),
        algo2(Schedule::synchronous().with_fault_plan(dup())),
    ));

    let eg = generators::connected_gnp(40, 0.1, 6);
    out.push((
        "election async".into(),
        digest(&eg, ElectionNode::new, Schedule::asynchronous(5), election_outcome),
    ));
    out.push((
        "election sync descending".into(),
        digest(
            &eg,
            ElectionNode::new,
            Schedule::synchronous().with_descending_order(),
            election_outcome,
        ),
    ));

    let tg = generators::path(5);
    let timers = |nodes: &[TimerProto]| format!("{nodes:?}");
    out.push((
        "timers async".into(),
        digest(&tg, |_| TimerProto::default(), Schedule::asynchronous(1), timers),
    ));
    out.push((
        "timers sync".into(),
        digest(&tg, |_| TimerProto::default(), Schedule::synchronous(), timers),
    ));
    let gossip = |schedule: Schedule| {
        digest(
            &eg,
            |_| TimedGossip { min_seen: 0, last_sent: 0 },
            schedule,
            |nodes: &[TimedGossip]| format!("{nodes:?}"),
        )
    };
    out.push(("timed gossip async".into(), gossip(Schedule::asynchronous(6))));
    out.push(("timed gossip sync".into(), gossip(Schedule::synchronous())));
    out.push((
        "timed gossip sync descending".into(),
        gossip(Schedule::synchronous().with_descending_order()),
    ));
    out
}

#[test]
fn scheduler_output_matches_pinned_digests() {
    let got = cases();
    let matches = got.len() == GOLDEN.len()
        && got.iter().zip(GOLDEN).all(|((name, d), (gname, gd))| name == gname && d == gd);
    if !matches {
        let mut table = String::new();
        for (name, [a, b, c, d]) in &got {
            table.push_str(&format!(
                "    (\"{name}\", [0x{a:016x}, 0x{b:016x}, 0x{c:016x}, 0x{d:016x}]),\n"
            ));
        }
        panic!("simulator output diverged from the pinned digests; recomputed table:\n{table}");
    }
}
