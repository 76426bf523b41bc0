//! Grid-partitioned Algorithm II ⟷ sequential equivalence.
//!
//! [`PartitionedTwo`] promises *byte-identical* output to
//! [`AlgorithmTwo`] for every thread count — the property the whole
//! city-scale pipeline rests on. This suite checks it directly (the
//! construction also self-checks at n ≤ 5000; here the comparison is
//! explicit so the property is exercised at several widths and on
//! adversarial inputs, whatever `WCDS_THREADS` says).

use wcds_core::algo2::AlgorithmTwo;
use wcds_core::partition::PartitionedTwo;
use wcds_geom::{deploy, Point};
use wcds_graph::UnitDiskGraph;

/// Thread widths exercised per instance: serial, an odd width that
/// splits cells unevenly, and more workers than cells for small inputs.
const WIDTHS: [usize; 3] = [1, 3, 8];

fn assert_equivalent(udg: &UnitDiskGraph, tag: &str) {
    let seq = AlgorithmTwo::new().construct_parts(udg.graph());
    for nthreads in WIDTHS {
        let got = PartitionedTwo::with_threads(nthreads).construct_parts(udg);
        assert_eq!(got, seq, "{tag}: diverged at {nthreads} threads");
    }
}

fn side_for_avg_degree(n: usize, avg_degree: f64) -> f64 {
    (n as f64 * std::f64::consts::PI / avg_degree).sqrt()
}

#[test]
fn uniform_deployments_match_sequential_small() {
    for n in [200usize, 1000] {
        let side = side_for_avg_degree(n, 11.0);
        for seed in 0..20u64 {
            let udg = UnitDiskGraph::build(deploy::uniform(n, side, side, seed), 1.0);
            assert_equivalent(&udg, &format!("uniform n={n} seed={seed}"));
        }
    }
}

#[test]
fn uniform_deployments_match_sequential_n5000() {
    // large enough that the layout spans several super-cells per axis
    let side = side_for_avg_degree(5000, 11.0);
    for seed in 0..20u64 {
        let udg = UnitDiskGraph::build(deploy::uniform(5000, side, side, seed), 1.0);
        assert_equivalent(&udg, &format!("uniform n=5000 seed={seed}"));
    }
}

#[test]
fn clustered_and_skewed_deployments_match_sequential() {
    for seed in 0..20u64 {
        let pts = deploy::clustered(800, 12.0, 12.0, 10, 0.8, seed);
        assert_equivalent(
            &UnitDiskGraph::build(pts, 1.0),
            &format!("clustered seed={seed}"),
        );
        // extreme aspect ratio: the cell grid collapses to one row
        let pts = deploy::uniform(600, 80.0, 0.5, seed);
        assert_equivalent(
            &UnitDiskGraph::build(pts, 1.0),
            &format!("ribbon seed={seed}"),
        );
    }
}

#[test]
fn lattice_points_on_cell_boundaries_match_sequential() {
    // Exact lattices whose coordinates land on (or tie with) super-cell
    // boundaries, plus coincident duplicates: ownership must come from
    // the layout rule alone, never from floating-point tie luck.
    for (nx, ny, pitch) in [(40usize, 40usize, 0.75), (70, 15, 0.5), (34, 34, 0.9999999)] {
        let mut pts = Vec::new();
        for i in 0..nx {
            for j in 0..ny {
                pts.push(Point::new(i as f64 * pitch, j as f64 * pitch));
            }
        }
        for k in 0..60 {
            // duplicates of lattice sites, including the extreme corner
            let i = (7 * k) % nx;
            let j = (11 * k) % ny;
            pts.push(Point::new(i as f64 * pitch, j as f64 * pitch));
        }
        let udg = UnitDiskGraph::build(pts, 1.0);
        assert_equivalent(&udg, &format!("lattice {nx}x{ny} pitch={pitch}"));
    }
}

#[test]
fn degenerate_extents_match_sequential() {
    // collinear and coincident point sets collapse the cell grid
    let line: Vec<Point> = (0..500).map(|i| Point::new(i as f64 * 0.6, 2.5)).collect();
    assert_equivalent(&UnitDiskGraph::build(line, 1.0), "collinear");
    let heap: Vec<Point> = (0..300).map(|_| Point::new(1.0, 1.0)).collect();
    assert_equivalent(&UnitDiskGraph::build(heap, 1.0), "coincident");
}
