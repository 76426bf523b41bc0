//! End-to-end simulator tests with small reference protocols.

use wcds_graph::{generators, Graph};
use wcds_sim::{Context, FaultPlan, Protocol, Schedule, SimError, Simulator, Time};

/// Flooding: node 0 injects a token; everyone forwards it once.
#[derive(Debug, Default)]
struct Flood {
    informed: bool,
}

impl Protocol for Flood {
    type Message = ();

    fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
        if ctx.id() == 0 {
            self.informed = true;
            ctx.broadcast(());
        }
    }

    fn on_message(&mut self, _from: usize, _msg: (), ctx: &mut Context<'_, ()>) {
        if !self.informed {
            self.informed = true;
            ctx.broadcast(());
        }
    }

    fn message_kind(_msg: &()) -> &'static str {
        "TOKEN"
    }
}

/// Each node learns the minimum id in the network by gossiping.
#[derive(Debug)]
struct MinGossip {
    min_seen: usize,
}

impl Protocol for MinGossip {
    type Message = usize;

    fn on_start(&mut self, ctx: &mut Context<'_, usize>) {
        ctx.broadcast(self.min_seen);
    }

    fn on_message(&mut self, _from: usize, msg: usize, ctx: &mut Context<'_, usize>) {
        if msg < self.min_seen {
            self.min_seen = msg;
            ctx.broadcast(msg);
        }
    }
}

/// A protocol that never quiesces: two nodes ping-pong forever.
#[derive(Debug, Default)]
struct PingPong;

impl Protocol for PingPong {
    type Message = u8;

    fn on_start(&mut self, ctx: &mut Context<'_, u8>) {
        if ctx.id() == 0 {
            ctx.broadcast(0);
        }
    }

    fn on_message(&mut self, _from: usize, msg: u8, ctx: &mut Context<'_, u8>) {
        ctx.broadcast(msg.wrapping_add(1));
    }
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

#[test]
fn flood_reaches_every_node_synchronously() {
    let g = generators::connected_gnp(60, 0.06, 5);
    let mut sim = Simulator::new(&g, |_| Flood::default());
    let report = sim.run(Schedule::synchronous()).unwrap();
    assert!(sim.nodes().iter().all(|n| n.informed));
    // exactly one broadcast per node
    assert_eq!(report.messages.total(), 60);
    assert_eq!(report.messages.of_kind("TOKEN"), 60);
    assert_eq!(report.messages.max_per_node(), 1);
}

#[test]
fn flood_reaches_every_node_asynchronously() {
    let g = generators::connected_gnp(60, 0.06, 5);
    for seed in 0..5 {
        let mut sim = Simulator::new(&g, |_| Flood::default());
        let report = sim.run(Schedule::asynchronous(seed)).unwrap();
        assert!(sim.nodes().iter().all(|n| n.informed), "seed {seed}");
        assert_eq!(report.messages.total(), 60);
        assert_eq!(report.rounds, 0);
        assert!(report.time > 0);
    }
}

#[test]
fn flood_round_count_tracks_eccentricity_plus_one() {
    // path: node 0's token needs n-1 relay rounds; one more round drains
    // the final (redundant) deliveries.
    let g = generators::path(12);
    let mut sim = Simulator::new(&g, |_| Flood::default());
    let report = sim.run(Schedule::synchronous()).unwrap();
    assert_eq!(report.rounds, 12);
}

#[test]
fn min_gossip_converges_to_global_min() {
    let g = generators::connected_gnp(40, 0.08, 11);
    // protocol-level ids are a reversed permutation of node indices
    let mut sim = Simulator::new(&g, |i| MinGossip { min_seen: 1000 - i });
    sim.run(Schedule::synchronous()).unwrap();
    assert!(sim.nodes().iter().all(|n| n.min_seen == 1000 - 39));
}

#[test]
fn min_gossip_converges_async_any_seed() {
    let g = generators::connected_gnp(30, 0.1, 3);
    for seed in 0..8 {
        let mut sim = Simulator::new(&g, |i| MinGossip { min_seen: i });
        sim.run(Schedule::asynchronous(seed).with_max_delay(5)).unwrap();
        assert!(sim.nodes().iter().all(|n| n.min_seen == 0), "seed {seed}");
    }
}

#[test]
fn async_runs_are_deterministic_per_seed() {
    let g = generators::connected_gnp(25, 0.12, 7);
    let run = |seed| {
        let mut sim = Simulator::new(&g, |i| MinGossip { min_seen: i });
        let r = sim.run(Schedule::asynchronous(seed)).unwrap();
        (r.time, r.messages.total(), r.events)
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9), run(10));
}

#[test]
fn event_budget_catches_livelock() {
    let g = generators::path(2);
    let mut sim = Simulator::new(&g, |_| PingPong);
    let err = sim.run(Schedule::synchronous().with_max_events(1_000)).unwrap_err();
    assert_eq!(err, SimError::EventBudgetExhausted { budget: 1_000 });
    let mut sim = Simulator::new(&g, |_| PingPong);
    let err = sim.run(Schedule::asynchronous(1).with_max_events(1_000)).unwrap_err();
    assert!(matches!(err, SimError::EventBudgetExhausted { .. }));
}

#[test]
fn crashed_node_partitions_flood() {
    // path 0-1-2-3-4 with node 2 crashed: 3 and 4 never hear the token
    let g = generators::path(5);
    let mut sim = Simulator::new(&g, |_| Flood::default());
    sim.run(Schedule::synchronous().with_fault_plan(FaultPlan::new(0).crash(2))).unwrap();
    assert!(sim.node(0).informed && sim.node(1).informed);
    assert!(!sim.node(2).informed && !sim.node(3).informed && !sim.node(4).informed);
}

#[test]
fn dropping_all_messages_stops_flood_at_source() {
    let g = generators::path(4);
    let mut sim = Simulator::new(&g, |_| Flood::default());
    let plan = FaultPlan::new(1).drop_probability(1.0);
    let report = sim.run(Schedule::synchronous().with_fault_plan(plan)).unwrap();
    assert!(sim.node(0).informed);
    assert!(!sim.node(1).informed);
    assert_eq!(report.messages.total(), 1);
}

#[test]
fn duplicates_do_not_break_idempotent_flood() {
    let g = generators::connected_gnp(30, 0.1, 2);
    let plan = FaultPlan::new(3).duplicate_probability(0.5);
    let mut sim = Simulator::new(&g, |_| Flood::default());
    let report = sim.run(Schedule::synchronous().with_fault_plan(plan)).unwrap();
    assert!(sim.nodes().iter().all(|n| n.informed));
    assert_eq!(report.messages.total(), 30);
    assert!(report.messages.deliveries() > 0);
}

#[test]
fn timers_fire_in_both_schedules() {
    let g = Graph::empty(3);
    let mut sim = Simulator::new(&g, |_| TimerProto::default());
    let report = sim.run(Schedule::synchronous()).unwrap();
    assert!(sim.nodes().iter().all(|n| n.fired == 3));
    assert_eq!(report.time, 7); // 3 + 2 + 2

    let mut sim = Simulator::new(&g, |_| TimerProto::default());
    let report = sim.run(Schedule::asynchronous(4)).unwrap();
    assert!(sim.nodes().iter().all(|n| n.fired == 3));
    assert_eq!(report.time, 7); // timers are delay-exact in async mode too
}

#[test]
fn trace_records_protocol_activity() {
    let g = generators::path(3);
    let mut sim = Simulator::new(&g, |_| Flood::default());
    let report = sim.run(Schedule::synchronous().with_trace(100)).unwrap();
    let rendered = format!("{}", report.trace);
    assert!(rendered.contains("start"));
    assert!(rendered.contains("send 0 TOKEN"));
    assert!(rendered.contains("deliver 0->1"));
}

#[test]
fn empty_graph_simulation_is_trivial() {
    let g = Graph::empty(0);
    let mut sim = Simulator::new(&g, |_| Flood::default());
    let report = sim.run(Schedule::synchronous()).unwrap();
    assert_eq!(report.messages.total(), 0);
    assert_eq!(report.rounds, 0);
}

#[test]
fn isolated_nodes_start_but_cannot_send() {
    let g = Graph::empty(4);
    let mut sim = Simulator::new(&g, |_| Flood::default());
    let report = sim.run(Schedule::synchronous()).unwrap();
    // node 0 "broadcasts" into the void: charged once, delivered nowhere
    assert_eq!(report.messages.total(), 1);
    assert_eq!(report.messages.deliveries(), 0);
    assert!(!sim.node(1).informed);
}

// ---------------------------------------------------------------------
// failure storms (ISSUE 7): targeted and region kills driving a
// flood-under-storm scenario

/// The paper's lex-first greedy MIS, inlined so the simulator crate
/// stays independent of `wcds-core`: these are the clusterheads a
/// dominator-targeted storm goes after.
fn lex_first_mis(g: &Graph) -> Vec<usize> {
    let mut covered = vec![false; g.node_count()];
    let mut mis = Vec::new();
    for u in 0..g.node_count() {
        if !covered[u] {
            mis.push(u);
            covered[u] = true;
            for v in g.adj(u) {
                covered[v] = true;
            }
        }
    }
    mis
}

#[test]
fn dominator_targeted_storm_replays_deterministically() {
    let g = generators::connected_gnp(60, 0.08, 4);
    let dominators = lex_first_mis(&g);
    let run = |salt: u64| {
        let plan = FaultPlan::new(11).crash_fraction_of(&dominators, 0.5, salt);
        let killed: Vec<usize> = plan.crashed_nodes().collect();
        let mut sim = Simulator::new(&g, |_| Flood::default());
        let report = sim.run(Schedule::synchronous().with_fault_plan(plan)).unwrap();
        let informed: Vec<bool> = sim.nodes().iter().map(|n| n.informed).collect();
        (killed, informed, report.messages.total())
    };
    let (k1, i1, m1) = run(3);
    let (k2, i2, m2) = run(3);
    assert_eq!((&k1, &i1, m1), (&k2, &i2, m2), "storm replay diverged");
    assert!(!k1.is_empty() && k1.iter().all(|k| dominators.contains(k)));
    // crashed dominators never wake up; the flood is confined to the
    // survivor component of the source
    for &k in &k1 {
        assert!(!i1[k], "crashed node {k} got informed");
    }
    // a different salt is a different storm
    let (k3, _, _) = run(4);
    assert_ne!(k1, k3);
}

#[test]
fn region_kill_storm_partitions_a_grid_flood() {
    // 6×6 grid, positions (col, row); killing the x ∈ [2.5, 3.5] strip
    // removes column 3 and cuts the flood off from columns 4..6
    let (rows, cols) = (6, 6);
    let g = generators::grid(rows, cols);
    let positions: Vec<(f64, f64)> =
        (0..rows * cols).map(|i| ((i % cols) as f64, (i / cols) as f64)).collect();
    let plan = FaultPlan::new(5).crash_region(&positions, (2.5, -1.0), (3.5, 7.0));
    assert_eq!(plan.crashed_nodes().count(), rows, "one column dies");
    let mut sim = Simulator::new(&g, |_| Flood::default());
    sim.run(Schedule::synchronous().with_fault_plan(plan)).unwrap();
    for i in 0..rows * cols {
        let col = i % cols;
        assert_eq!(
            sim.node(i).informed,
            col < 3,
            "node {i} (column {col}) on the wrong side of the storm"
        );
    }
}

/// Arms a short timer, then from its firing one that cannot fire
/// before the end of time; records firings.
#[derive(Debug, Default)]
struct FarTimer {
    fired_at: Vec<Time>,
}

impl Protocol for FarTimer {
    type Message = ();

    fn on_start(&mut self, ctx: &mut Context<'_, ()>) {
        ctx.set_timer(2);
    }

    fn on_message(&mut self, _from: usize, _msg: (), _ctx: &mut Context<'_, ()>) {}

    fn on_timer(&mut self, ctx: &mut Context<'_, ()>) {
        self.fired_at.push(ctx.now());
        if self.fired_at.len() == 1 {
            ctx.set_timer(Time::MAX); // now + Time::MAX would overflow
        }
    }
}

#[test]
fn timer_at_the_end_of_time_neither_panics_nor_fires_early() {
    let g = generators::path(3);
    let mut sim = Simulator::new(&g, |_| FarTimer::default());
    let report = sim.run(Schedule::asynchronous(1)).unwrap();
    for node in sim.nodes() {
        assert_eq!(node.fired_at, vec![2, Time::MAX]);
    }
    assert_eq!(report.time, Time::MAX);
    assert_eq!(report.events, 3 + 6);
}
