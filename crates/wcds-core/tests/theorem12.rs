//! Theorem 12 at city scale: distributed Algorithm II sends `O(n)`
//! messages.
//!
//! On a connected uniform unit-disk graph with n = 100,000 nodes and
//! average degree 14, three asynchronous schedules must each produce the
//! centralized construction's MIS, a valid WCDS, and at most 4 messages
//! per node (one local broadcast or unicast = one message).
//!
//! Run it with `cargo test --release -p wcds-core --test theorem12`; a
//! debug build skips it.

use std::time::Instant;
use wcds_core::algo2::{distributed, AlgorithmTwo};
use wcds_geom::deploy;
use wcds_graph::{traversal, UnitDiskGraph};

const N: usize = 100_000;
const AVG_DEGREE: f64 = 14.0;
const MAX_MESSAGES_PER_NODE: f64 = 4.0;

#[test]
#[cfg_attr(debug_assertions, ignore = "n = 100k: run in release")]
fn distributed_algo2_messages_are_linear_at_n_100k() {
    let side = (N as f64 * std::f64::consts::PI / AVG_DEGREE).sqrt();
    let udg = (0..)
        .map(|seed| UnitDiskGraph::build(deploy::uniform(N, side, side, seed), 1.0))
        .find(|udg| traversal::is_connected(udg.graph()))
        .expect("some seed yields a connected deployment");
    let g = udg.graph();
    let (mut mis, _) = AlgorithmTwo::new().construct_parts(g);
    mis.sort_unstable();
    for seed in 0..3 {
        let t = Instant::now();
        let run = distributed::run_asynchronous(g, seed);
        let wall = t.elapsed();
        let per_node = run.report.messages.total() as f64 / N as f64;
        println!(
            "seed {seed}: {} events, {per_node:.3} msgs/node, {:.2} s",
            run.report.events,
            wall.as_secs_f64()
        );
        assert_eq!(run.result.wcds.mis_dominators(), mis.as_slice(), "seed {seed}: MIS differs");
        assert!(run.result.wcds.is_valid(g), "seed {seed}: invalid WCDS");
        assert!(
            per_node <= MAX_MESSAGES_PER_NODE,
            "seed {seed}: {per_node:.3} msgs/node exceeds {MAX_MESSAGES_PER_NODE}"
        );
    }
}
