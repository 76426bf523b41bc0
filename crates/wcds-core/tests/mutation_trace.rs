//! Trace replay: the incremental maintenance engine must be
//! indistinguishable from from-scratch Algorithm II at every step.
//!
//! A long random mutation trace — joins, leaves, small moves, plus
//! flings that disconnect the graph and moves that knit it back — is
//! replayed through [`MaintainedWcds`], and after **every** step:
//!
//! * the incremental MIS + bridge set equals a from-scratch
//!   `AlgorithmTwo` construction on the current graph;
//! * the spliced CSR equals a from-scratch `UnitDiskGraph` build
//!   (release-mode assertion — not only the debug_assert inside
//!   `DynamicUdg`);
//! * the WCDS is valid whenever the graph is connected;
//! * the repair's locality radius — the per-stage propagation distance
//!   (disturbed edges → MIS flips, then disturbance ∪ flips →
//!   dominator-status changes) — is ≤ 3 (the paper's §4.2 claim) on
//!   every motion whose seeds lie in one component the move left
//!   unchanged ([`RepairReport::within_stable_component`]), and on
//!   every join or leave between two connected graphs.
//!
//! The suite must pass at any `WCDS_THREADS` width (CI runs it unset
//! and at 4); nothing here depends on the width, which is the point —
//! results are engine-independent.

use wcds_core::algo2::AlgorithmTwo;
use wcds_core::maintenance::{MaintainedWcds, RepairReport};
use wcds_geom::{deploy, Point};
use wcds_graph::traversal::{self, component_of};
use wcds_graph::{NodeId, UnitDiskGraph};
use wcds_rng::{ChaCha12Rng, Rng};

const SIDE: f64 = 6.0;
const RADIUS: f64 = 1.0;
const STEPS: usize = 220;

/// Applies one motion and reports whether the §4.2 bound applies to it
/// (see [`RepairReport::within_stable_component`]).
fn checked_motion(net: &mut MaintainedWcds, u: NodeId, q: Point) -> (RepairReport, Option<bool>) {
    let before = component_of(net.graph(), u);
    let report = net.apply_motion(&[(u, q)]);
    let stable = report.within_stable_component(&before, &component_of(net.graph(), u));
    (report, Some(stable))
}

/// One full-equality checkpoint: incremental state vs from-scratch
/// constructions of everything.
fn assert_matches_from_scratch(net: &MaintainedWcds, step: usize) {
    let rebuilt = UnitDiskGraph::build(net.points().to_vec(), RADIUS);
    assert_eq!(
        net.graph(),
        rebuilt.graph(),
        "step {step}: spliced CSR diverged from a from-scratch build"
    );
    let (mis, additional) = AlgorithmTwo::new().construct_parts(net.graph());
    let w = net.wcds();
    assert_eq!(w.mis_dominators(), &mis[..], "step {step}: MIS diverged");
    assert_eq!(w.additional_dominators(), &additional[..], "step {step}: bridges diverged");
    if traversal::is_connected(net.graph()) {
        assert!(w.is_valid(net.graph()), "step {step}: invalid WCDS {w}");
    }
}

#[test]
fn long_mixed_trace_replays_algorithm_two_exactly() {
    let mut net = MaintainedWcds::new(deploy::uniform(200, SIDE, SIDE, 42), RADIUS);
    let mut rng = ChaCha12Rng::seed_from_u64(4242);
    assert_matches_from_scratch(&net, 0);

    let mut max_checked_radius = 0;
    let mut checked_repairs = 0;
    let mut exiled: Vec<NodeId> = Vec::new();

    for step in 1..=STEPS {
        let n = net.graph().node_count();
        let pre_connected = traversal::is_connected(net.graph());
        // `Some(stable)` for a motion; `None` for a join or leave, which
        // is checked when both whole graphs are connected
        let (report, stable) = match step % 11 {
            // joins: in-field, so the backbone absorbs them
            0 | 4 => {
                let p = Point::new(rng.gen::<f64>() * SIDE, rng.gen::<f64>() * SIDE);
                (net.apply_join(p), None)
            }
            // leaves: compaction renames every id above the victim
            2 | 7 => {
                let victim = rng.gen_range(0..n);
                exiled.retain(|&x| x != victim);
                for x in exiled.iter_mut() {
                    if *x > victim {
                        *x -= 1;
                    }
                }
                (net.apply_leave(victim), None)
            }
            // fling: disconnects the walker from the component
            3 => {
                let u = rng.gen_range(0..n);
                if !exiled.contains(&u) {
                    exiled.push(u);
                }
                let q = Point::new(100.0 + rng.gen::<f64>(), 100.0 + rng.gen::<f64>());
                checked_motion(&mut net, u, q)
            }
            // return: an exiled node rejoins the field (reconnects)
            8 => {
                let (u, q) = match exiled.pop() {
                    Some(u) => (u, Point::new(rng.gen::<f64>() * SIDE, rng.gen::<f64>() * SIDE)),
                    None => {
                        let u = rng.gen_range(0..n);
                        (u, net.points()[u]) // noop move
                    }
                };
                checked_motion(&mut net, u, q)
            }
            // drift: one node takes a bounded step
            _ => {
                let u = rng.gen_range(0..n);
                let p = net.points()[u];
                let q = Point::new(
                    (p.x + (rng.gen::<f64>() - 0.5) * 0.6).clamp(0.0, SIDE),
                    (p.y + (rng.gen::<f64>() - 0.5) * 0.6).clamp(0.0, SIDE),
                );
                checked_motion(&mut net, u, q)
            }
        };
        assert_matches_from_scratch(&net, step);

        let checked =
            stable.unwrap_or_else(|| pre_connected && traversal::is_connected(net.graph()));
        if checked {
            if let Some(r) = report.locality_radius {
                checked_repairs += 1;
                max_checked_radius = max_checked_radius.max(r);
                assert!(
                    r <= 3,
                    "step {step}: locality radius {r} exceeds the 3-hop claim \
                     inside an unchanged component (report {report:?})"
                );
            }
        }
        // the counters must reflect a bounded region, never the graph
        if report.affected.is_empty() {
            assert_eq!(report.touched_nodes, 0, "step {step}");
        }
    }

    // the trace must actually have exercised the claim
    assert!(checked_repairs >= 20, "only {checked_repairs} checked repairs");
    assert!(max_checked_radius >= 1, "trace never moved a dominator");
}

#[test]
fn dense_churn_trace_stays_exact() {
    // a second, denser field with a different mutation mix: multi-node
    // motion batches interleaved with join/leave churn
    let mut net = MaintainedWcds::new(deploy::uniform(120, 4.0, 4.0, 7), RADIUS);
    let mut rng = ChaCha12Rng::seed_from_u64(99);
    for step in 1..=60 {
        let n = net.graph().node_count();
        match step % 4 {
            0 => {
                // batch motion: three walkers at once, deltas cancel or
                // compound — repair sees only the net disturbance
                let mut moves: Vec<(NodeId, Point)> = Vec::new();
                for _ in 0..3 {
                    let u = rng.gen_range(0..n);
                    let p = net.points()[u];
                    moves.push((
                        u,
                        Point::new(
                            (p.x + (rng.gen::<f64>() - 0.5) * 0.8).clamp(0.0, 4.0),
                            (p.y + (rng.gen::<f64>() - 0.5) * 0.8).clamp(0.0, 4.0),
                        ),
                    ));
                }
                net.apply_motion(&moves);
            }
            1 => {
                net.apply_join(Point::new(rng.gen::<f64>() * 4.0, rng.gen::<f64>() * 4.0));
            }
            _ => {
                let victim = rng.gen_range(0..n);
                net.apply_leave(victim);
            }
        }
        assert_matches_from_scratch(&net, step);
    }
}
