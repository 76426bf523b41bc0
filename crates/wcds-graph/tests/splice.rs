//! Property tests for the in-place CSR splice.
//!
//! `Graph::splice` shifts untouched row spans inside the existing
//! arrays, so its correctness hangs on the span-move order and the
//! offset fix-up. Every case here compares the spliced graph with a
//! `GraphBuilder` build of the expected edge set using `assert_eq!`,
//! which holds in release builds too (the splice's own row check is a
//! `debug_assert`). Each case also checks that `spliced` (the copying
//! form) equals `clone` + `splice`.

use std::collections::BTreeSet;
use wcds_graph::{Graph, GraphBuilder, NodeId};
use wcds_rng::{ChaCha12Rng, Rng};

type EdgeSet = BTreeSet<(NodeId, NodeId)>;

fn build(n: usize, edges: &EdgeSet) -> Graph {
    let mut b = GraphBuilder::new(n);
    for &(u, v) in edges {
        b.add_edge(u, v);
    }
    b.build()
}

fn random_edges(rng: &mut ChaCha12Rng, n: usize, count: usize) -> EdgeSet {
    let mut edges = EdgeSet::new();
    while edges.len() < count {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        if u != v {
            edges.insert((u.min(v), u.max(v)));
        }
    }
    edges
}

/// Splices `added`/`removed` into `build(n_old, edges)` both ways and
/// checks each result against a from-scratch build.
fn check(n_old: usize, n_new: usize, edges: &EdgeSet, added: &EdgeSet, removed: &EdgeSet) {
    let g = build(n_old, edges);
    let added_v: Vec<_> = added.iter().copied().collect();
    let removed_v: Vec<_> = removed.iter().copied().collect();
    let mut want = edges.clone();
    for e in removed {
        assert!(want.remove(e), "removed edge {e:?} must exist");
    }
    for &e in added {
        assert!(want.insert(e), "added edge {e:?} must be new");
    }
    let want = build(n_new, &want);

    let mut in_place = g.clone();
    in_place.splice(n_new, &added_v, &removed_v);
    assert_eq!(in_place, want, "splice differs from a builder build");
    assert_eq!(in_place.csr32(), want.csr32());
    assert_eq!(in_place.edge_count(), want.edge_count());
    assert_eq!(g.spliced(n_new, &added_v, &removed_v), in_place, "spliced != clone + splice");
}

/// Random delta over `edges`: a share of existing edges removed and new
/// ones added, so span shifts take both signs across the row range.
fn random_delta(
    rng: &mut ChaCha12Rng,
    n: usize,
    edges: &EdgeSet,
    removals: usize,
    additions: usize,
) -> (EdgeSet, EdgeSet) {
    let all: Vec<_> = edges.iter().copied().collect();
    let mut removed = EdgeSet::new();
    while removed.len() < removals.min(all.len()) {
        removed.insert(all[rng.gen_range(0..all.len())]);
    }
    let mut added = EdgeSet::new();
    while added.len() < additions {
        let u = rng.gen_range(0..n);
        let v = rng.gen_range(0..n);
        let e = (u.min(v), u.max(v));
        if u != v && !edges.contains(&e) {
            added.insert(e);
        }
    }
    (added, removed)
}

#[test]
fn random_mixed_sign_deltas_match_a_builder_build() {
    let mut rng = ChaCha12Rng::seed_from_u64(0x5b1c);
    for case in 0..300 {
        let n = rng.gen_range(2..60usize);
        let max_edges = n * (n - 1) / 2;
        let m = rng.gen_range(0..=max_edges.min(4 * n));
        let edges = random_edges(&mut rng, n, m);
        let removals = rng.gen_range(0..=edges.len().min(12));
        let additions = rng.gen_range(0..=(max_edges - edges.len()).min(12));
        let (added, removed) = random_delta(&mut rng, n, &edges, removals, additions);
        check(n, n, &edges, &added, &removed);
        // the same delta with one appended node, touched when it can be
        let mut added_join = added.clone();
        if case % 2 == 0 {
            added_join.insert((rng.gen_range(0..n), n));
        }
        check(n, n + 1, &edges, &added_join, &removed);
    }
}

#[test]
fn rows_that_grow_and_shrink_in_alternation() {
    // row 3 grows, row 8 shrinks by more, row 12 grows: the span after
    // row 3 shifts right, the span after row 8 shifts left, the one
    // after row 12 right again
    let n = 16;
    let edges: EdgeSet = [(0, 1), (1, 2), (8, 9), (8, 10), (8, 11), (8, 13), (8, 14), (14, 15)]
        .into_iter()
        .collect();
    let added: EdgeSet = [(3, 5), (3, 6), (12, 15)].into_iter().collect();
    let removed: EdgeSet = [(8, 9), (8, 10), (8, 11), (8, 13)].into_iter().collect();
    check(n, n, &edges, &added, &removed);
    // and the mirror image: shrink, grow, shrink
    let back_added = removed.clone();
    let back_removed = added.clone();
    let after: EdgeSet = edges.difference(&removed).chain(added.iter()).copied().collect();
    check(n, n, &after, &back_added, &back_removed);
}

#[test]
fn first_and_last_rows_touched() {
    let n = 10;
    let edges: EdgeSet = [(0, 4), (2, 3), (4, 5), (6, 9)].into_iter().collect();
    check(n, n, &edges, &[(0, 9)].into_iter().collect(), &EdgeSet::new());
    check(n, n, &edges, &EdgeSet::new(), &[(0, 4), (6, 9)].into_iter().collect());
    check(n, n, &edges, &[(0, 1), (8, 9)].into_iter().collect(), &[(0, 4)].into_iter().collect());
}

#[test]
fn appended_node_touched_and_isolated() {
    let n = 6;
    let edges: EdgeSet = [(0, 1), (1, 2), (3, 4)].into_iter().collect();
    check(n, n + 1, &edges, &[(0, 6), (5, 6)].into_iter().collect(), &EdgeSet::new());
    check(n, n + 1, &edges, &EdgeSet::new(), &EdgeSet::new());
    check(n, n + 1, &edges, &[(2, 5)].into_iter().collect(), &[(0, 1)].into_iter().collect());
    // onto an empty graph, and onto a graph with no nodes at all
    check(0, 1, &EdgeSet::new(), &EdgeSet::new(), &EdgeSet::new());
    check(1, 2, &EdgeSet::new(), &[(0, 1)].into_iter().collect(), &EdgeSet::new());
}

#[test]
fn empty_delta_is_identity() {
    let mut rng = ChaCha12Rng::seed_from_u64(9);
    let edges = random_edges(&mut rng, 30, 70);
    check(30, 30, &edges, &EdgeSet::new(), &EdgeSet::new());
    check(0, 0, &EdgeSet::new(), &EdgeSet::new(), &EdgeSet::new());
}

#[test]
fn repeated_splices_stay_in_sync_with_the_builder() {
    // one graph spliced many times in place, as a dynamic topology is
    let n = 80;
    let mut rng = ChaCha12Rng::seed_from_u64(77);
    let mut edges = random_edges(&mut rng, n, 200);
    let mut g = build(n, &edges);
    for _ in 0..200 {
        let removals = rng.gen_range(0..6usize);
        let additions = rng.gen_range(0..6usize);
        let (added, removed) = random_delta(&mut rng, n, &edges, removals, additions);
        let added_v: Vec<_> = added.iter().copied().collect();
        let removed_v: Vec<_> = removed.iter().copied().collect();
        g.splice(n, &added_v, &removed_v);
        for e in &removed {
            edges.remove(e);
        }
        edges.extend(added.iter().copied());
        assert_eq!(g, build(n, &edges));
    }
}
