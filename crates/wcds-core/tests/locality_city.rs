//! The paper's §4.2 locality claim at city scale: after a move, the
//! nodes whose status changes lie within three hops of the change.
//!
//! A sparse n = 100,000 uniform field is never globally connected, so
//! a "both graphs connected" filter would leave nothing to check. The
//! claim is instead checked inside the disturbance's component: a step
//! counts when every seed of its repair (every endpoint of a changed
//! edge) lies in one component whose node set is the same before and
//! after the move. On every such step the repair's two-stage
//! `locality_radius` must be at most 3.
//!
//! Run it with `cargo test --release -p wcds-core --test locality_city`;
//! a debug build skips it.

use wcds_core::maintenance::MaintainedWcds;
use wcds_geom::{deploy, Point};
use wcds_graph::traversal::component_of;
use wcds_rng::{ChaCha12Rng, Rng};

const N: usize = 100_000;
const AVG_DEGREE: f64 = 11.0;
const STEPS: usize = 240;
/// Bounded drift per axis, as in `bench_maintenance`.
const STEP: f64 = 0.8;

#[test]
#[cfg_attr(debug_assertions, ignore = "n = 100k: run in release")]
fn single_node_drifts_stay_within_three_hops_at_n_100k() {
    let side = (N as f64 * std::f64::consts::PI / AVG_DEGREE).sqrt();
    let mut net = MaintainedWcds::new(deploy::uniform(N, side, side, 42), 1.0);
    let mut rng = ChaCha12Rng::seed_from_u64(0x10ca1);
    let mut counted = 0;
    let mut beyond = Vec::new();
    for step in 0..STEPS {
        let u = rng.gen_range(0..N);
        let p = net.points()[u];
        let q = Point::new(
            (p.x + (rng.gen::<f64>() - 0.5) * STEP).clamp(0.0, side),
            (p.y + (rng.gen::<f64>() - 0.5) * STEP).clamp(0.0, side),
        );
        let before = component_of(net.graph(), u);
        let report = net.apply_motion(&[(u, q)]);
        let Some(radius) = report.locality_radius else { continue };
        // a moved node with changed edges is always one of its seeds
        if !report.within_stable_component(&before, &component_of(net.graph(), u)) {
            continue;
        }
        counted += 1;
        if radius > 3 {
            beyond.push((step, u, radius));
        }
    }
    assert!(counted >= 100, "only {counted} of {STEPS} steps had a stable component");
    assert!(
        beyond.is_empty(),
        "{} of {counted} checked steps changed status beyond 3 hops; (step, node, radius): {beyond:?}",
        beyond.len()
    );
}
