//! Accounting of drift repairs, shared by `serve_churn` (mirrored
//! batches) and `city_build` (drift ticks).

use crate::report::{mean, Report};
use wcds_core::maintenance::RepairReport;
use wcds_core::Wcds;
use wcds_graph::{NodeId, TopoDelta};

/// Per-batch repair figures behind the `core.maintenance` and
/// `graph.dynamic` count metrics.
pub struct RepairStats {
    batches: u64,
    changed: u64,
    locality_max: u32,
    touched_per_move: Vec<f64>,
    delta_per_move: Vec<f64>,
    mis_flips: Vec<f64>,
    last_mis: Vec<NodeId>,
}

/// Size of the symmetric difference of two ascending id lists.
fn sorted_diff(a: &[NodeId], b: &[NodeId]) -> usize {
    let (mut i, mut j, mut d) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => (d, i) = (d + 1, i + 1),
            std::cmp::Ordering::Greater => (d, j) = (d + 1, j + 1),
            std::cmp::Ordering::Equal => (i, j) = (i + 1, j + 1),
        }
    }
    d + (a.len() - i) + (b.len() - j)
}

impl RepairStats {
    /// Starts from the WCDS before the first batch.
    pub fn new(initial: &Wcds) -> Self {
        Self {
            batches: 0,
            changed: 0,
            locality_max: 0,
            touched_per_move: Vec::new(),
            delta_per_move: Vec::new(),
            mis_flips: Vec::new(),
            last_mis: initial.mis_dominators().to_vec(),
        }
    }

    /// Records one batch of `moves` moves: the repair's report, the bare
    /// topology delta of the same moves, and the WCDS after the repair.
    pub fn record(&mut self, moves: usize, report: &RepairReport, delta: &TopoDelta, after: &Wcds) {
        let m = moves.max(1) as f64;
        self.batches += 1;
        self.changed += u64::from(report.changed());
        self.locality_max = self.locality_max.max(report.locality_radius.unwrap_or(0));
        self.touched_per_move.push(report.touched_nodes as f64 / m);
        self.delta_per_move
            .push((delta.added.len() + delta.removed.len()) as f64 / m);
        self.mis_flips
            .push(sorted_diff(&self.last_mis, after.mis_dominators()) as f64);
        self.last_mis = after.mis_dominators().to_vec();
    }

    pub fn batches(&self) -> u64 {
        self.batches
    }

    pub fn put(&self, rep: &mut Report) {
        let per_batch = |x: u64| x as f64 / self.batches.max(1) as f64;
        rep.put(
            "core.maintenance.touched_nodes_per_move",
            mean(&self.touched_per_move),
        );
        rep.put("core.maintenance.changed_frac", per_batch(self.changed));
        rep.put(
            "core.maintenance.mis_flips_per_batch",
            mean(&self.mis_flips),
        );
        rep.put(
            "core.maintenance.locality_radius_max",
            f64::from(self.locality_max),
        );
        rep.put(
            "graph.dynamic.delta_edges_per_move",
            mean(&self.delta_per_move),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_diff_counts_both_sides() {
        assert_eq!(sorted_diff(&[1, 3, 5], &[1, 4, 5, 9]), 3);
        assert_eq!(sorted_diff(&[], &[2]), 1);
        assert_eq!(sorted_diff(&[7], &[7]), 0);
    }
}
