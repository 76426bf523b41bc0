//! Region-scoped repair primitives: the 3-hop-bounded machinery behind
//! [`super::MaintainedWcds`].
//!
//! The searches run on a dense [`BallScratch`] — a distance array sized
//! to the graph, kept across repairs and reset through its visited list
//! — so a search costs `O(|ball|)` with no hashing and no allocation in
//! steady state. Three building blocks:
//!
//! * [`BallScratch`] — radius-bounded (multi-source) BFS: the repaired
//!   region, the per-anchor balls, and the locality scans, which stop
//!   as soon as every target is reached;
//! * [`cascade_mis`] — restores the *lexicographic-first* MIS (the set
//!   greedy `StaticId` construction produces) after an edge delta, via
//!   an ascending-id worklist fixpoint seeded at the disturbed nodes;
//! * [`contributions_for_pred`] / [`select_additional_dominators_in`] —
//!   the per-MIS-node share of Algorithm II's bridge rule, computed from
//!   radius-bounded searches only.
//!
//! Why the worklist restores exactly the greedy MIS: under a static-id
//! ranking, `u` is black iff no neighbor `v < u` is black — a unique
//! fixpoint. The heap pops ascending ids and every push made while
//! processing `u` targets an id above `u`, so pops are non-decreasing:
//! when `u` is decided, every smaller id's membership is already final.
//! A node's decision can only change if its own edge set changed (it is
//! a seed) or a smaller neighbor flipped (the flip pushes it), so the
//! fixpoint reached equals a from-scratch greedy run.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};
use wcds_graph::{Graph, NodeId};

/// Repairs `in_mis` (membership per node) to the lexicographic-first
/// MIS of `g` after a topology delta, and returns the nodes whose
/// membership flipped (ascending).
///
/// Caller contract: before the call, `in_mis` is the lex-first MIS of
/// the pre-delta graph, sized to `g`, and `seeds` contains every node
/// whose incident edge set changed (both in the post-delta id space —
/// when the delta renamed nodes, the caller has already applied the
/// order-preserving remap to `in_mis`, which commutes with greedy
/// construction).
pub(crate) fn cascade_mis(g: &Graph, in_mis: &mut [bool], seeds: &[NodeId]) -> Vec<NodeId> {
    let mut heap: BinaryHeap<Reverse<NodeId>> = seeds.iter().copied().map(Reverse).collect();
    // pops are non-decreasing, so repeated pushes of a node pop back to
    // back: comparing with the previous pop decides each node once
    let mut last = None;
    let mut flipped = Vec::new();
    while let Some(Reverse(u)) = heap.pop() {
        if u >= g.node_count() || last == Some(u) {
            continue;
        }
        last = Some(u);
        let desired = !g.adj(u).any(|v| v < u && in_mis.get(v).copied().unwrap_or(false));
        let Some(member) = in_mis.get_mut(u) else { continue };
        if desired == *member {
            continue;
        }
        *member = desired;
        flipped.push(u);
        for v in g.adj(u) {
            // pops are non-decreasing, so v > u has not been decided yet
            if v > u {
                heap.push(Reverse(v));
            }
        }
    }
    // pops were already ascending; flipped inherits the order
    debug_assert!(flipped.windows(2).all(|w| w.first() < w.last()));
    flipped
}

/// Algorithm II's bridge rule restricted to the pairs anchored at MIS
/// node `u`: for every MIS node `w > u` at hop distance exactly 3, the
/// smallest neighbor `v` of `u` with `hop(v, w) == 2`. Matches
/// `crate::algo2::select_additional_dominators` pair for pair, but runs
/// on radius-bounded searches (`O(|ball(u, 3)|)`, not `O(n + |E|)`).
/// MIS membership is supplied as a predicate (callers pass a dense
/// bitmap lookup); the caller-provided [`BallScratch`] lets a sweep over
/// many anchors amortize its allocation.
pub(crate) fn contributions_for_pred(
    scratch: &mut BallScratch,
    g: &Graph,
    in_mis: impl Fn(NodeId) -> bool,
    u: NodeId,
) -> BTreeSet<NodeId> {
    scratch.fill(g, u, 3);
    let mut out = BTreeSet::new();
    for &w in &scratch.visited {
        if scratch.dist.get(w).copied() != Some(3) || w <= u || !in_mis(w) {
            continue;
        }
        // the smallest v ∈ N(u) with hop(v, w) == 2; since hop(u, w) = 3
        // forces w ∉ N(u) (so v ≠ w), that is exactly: v not adjacent to
        // w but sharing a neighbor with it. The sorted-adjacency sweep
        // replaces a radius-2 ball per pair, which on dense graphs
        // re-walked most of the neighborhood for every pair.
        let nw = g.neighbors(w);
        let bridge = g
            .adj(u)
            .find(|&v| !g.has_edge(v, w) && sorted_intersects(g.neighbors(v), nw));
        debug_assert!(bridge.is_some(), "a 3-hop pair has an intermediate at distance (1, 2)");
        if let Some(v) = bridge {
            out.insert(v);
        }
    }
    out
}

/// Reusable dense scratch for radius-bounded BFS: a distance array
/// reset through the visited list, so each search costs `O(|ball|)`
/// after a single `O(n)` allocation. The maintenance engine keeps one
/// for its region searches and one per repair worker for the
/// per-anchor balls, resizing them when a join or leave changes `n`.
#[derive(Clone, Default)]
pub(crate) struct BallScratch {
    /// Hop distance per node; `u32::MAX` = not reached by the current
    /// search.
    dist: Vec<u32>,
    /// Nodes reached by the current search, in BFS order (it doubles as
    /// the BFS queue).
    visited: Vec<NodeId>,
}

impl std::fmt::Debug for BallScratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BallScratch")
            .field("nodes", &self.dist.len())
            .field("visited", &self.visited.len())
            .finish()
    }
}

impl BallScratch {
    pub(crate) fn new(n: usize) -> Self {
        Self { dist: vec![u32::MAX; n], visited: Vec::new() }
    }

    /// Sizes the scratch for an `n`-node graph, forgetting the last
    /// search. `O(|last search|)` when `n` is unchanged.
    pub(crate) fn resize(&mut self, n: usize) {
        self.clear();
        self.dist.resize(n, u32::MAX);
    }

    fn clear(&mut self) {
        for &v in &self.visited {
            if let Some(d) = self.dist.get_mut(v) {
                *d = u32::MAX;
            }
        }
        self.visited.clear();
    }

    /// Multi-source BFS from `sources` truncated at `radius` hops.
    /// `stop` sees every node as it is reached (sources included) and
    /// ends the search early by returning `true`; distances assigned
    /// until then are exact. Results stay readable until the next
    /// search. Out-of-range sources are ignored.
    fn search(
        &mut self,
        g: &Graph,
        sources: impl IntoIterator<Item = NodeId>,
        radius: u32,
        mut stop: impl FnMut(NodeId) -> bool,
    ) {
        debug_assert_eq!(self.dist.len(), g.node_count(), "scratch sized for this graph");
        self.clear();
        for s in sources {
            if let Some(d) = self.dist.get_mut(s) {
                if *d == u32::MAX {
                    *d = 0;
                    self.visited.push(s);
                    if stop(s) {
                        return;
                    }
                }
            }
        }
        let mut head = 0;
        while let Some(&u) = self.visited.get(head) {
            head += 1;
            let du = self.dist.get(u).copied().unwrap_or(u32::MAX);
            if du >= radius {
                // BFS order: every node still queued is at least as far
                break;
            }
            for v in g.adj(u) {
                if let Some(dv) = self.dist.get_mut(v) {
                    if *dv == u32::MAX {
                        *dv = du + 1;
                        self.visited.push(v);
                        if stop(v) {
                            return;
                        }
                    }
                }
            }
        }
    }

    /// The ball of radius `radius` around `source`; read it back
    /// through `visited` / `dist`.
    fn fill(&mut self, g: &Graph, source: NodeId, radius: u32) {
        self.search(g, [source], radius, |_| false);
    }

    /// Every node within `radius` hops of `sources`, in BFS order.
    pub(crate) fn ball(
        &mut self,
        g: &Graph,
        sources: impl IntoIterator<Item = NodeId>,
        radius: u32,
    ) -> &[NodeId] {
        self.search(g, sources, radius, |_| false);
        &self.visited
    }

    /// The largest hop distance from `sources` to a node of `targets`
    /// (ascending, distinct), `u32::MAX` for a target farther than
    /// `radius` or unreachable; `None` when `targets` is empty. The
    /// search stops the moment the last target is reached, so on dense
    /// graphs it touches a few hop layers instead of the whole ball.
    pub(crate) fn max_distance_to(
        &mut self,
        g: &Graph,
        sources: impl IntoIterator<Item = NodeId>,
        targets: &[NodeId],
        radius: u32,
    ) -> Option<u32> {
        debug_assert!(targets.windows(2).all(|w| w.first() < w.last()));
        let mut remaining = targets.len();
        self.search(g, sources, radius, |v| {
            if targets.binary_search(&v).is_ok() {
                remaining = remaining.saturating_sub(1);
            }
            remaining == 0
        });
        targets.iter().map(|&t| self.dist.get(t).copied().unwrap_or(u32::MAX)).max()
    }
}

/// Whether two ascending slices share an element (two-pointer sweep).
fn sorted_intersects(mut a: &[u32], mut b: &[u32]) -> bool {
    debug_assert!(a.windows(2).all(|w| w.first() < w.last()));
    debug_assert!(b.windows(2).all(|w| w.first() < w.last()));
    while let (Some((&x, rest_a)), Some((&y, rest_b))) = (a.split_first(), b.split_first()) {
        match x.cmp(&y) {
            std::cmp::Ordering::Less => a = rest_a,
            std::cmp::Ordering::Greater => b = rest_b,
            std::cmp::Ordering::Equal => return true,
        }
    }
    false
}

/// The per-node decomposition of Algorithm II's additional-dominator
/// selection, restricted to the MIS nodes inside `region`: each MIS node
/// `u` in `region` maps to the bridges its 3-hop pairs select (possibly
/// empty). Non-MIS region nodes are skipped.
///
/// With `region` = all nodes, the union of the returned sets equals
/// `crate::algo2::select_additional_dominators` exactly — Algorithm II's
/// rule is per-pair-deterministic, so it decomposes over anchors.
pub fn select_additional_dominators_in<I>(
    g: &Graph,
    mis: &BTreeSet<NodeId>,
    region: I,
) -> BTreeMap<NodeId, BTreeSet<NodeId>>
where
    I: IntoIterator<Item = NodeId>,
{
    let mut out = BTreeMap::new();
    let mut scratch = BallScratch::new(g.node_count());
    for u in region {
        if mis.contains(&u) {
            out.insert(u, contributions_for_pred(&mut scratch, g, |w| mis.contains(&w), u));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo2::{select_additional_dominators, select_additional_dominators_reference};
    use crate::mis::{greedy_mis, RankingMode};
    use wcds_geom::deploy;
    use wcds_graph::{generators, traversal, UnitDiskGraph};
    use wcds_rng::{ChaCha12Rng, Rng};

    fn lex_mis(g: &Graph) -> BTreeSet<NodeId> {
        greedy_mis(g, RankingMode::StaticId).into_iter().collect()
    }

    /// The lex-first MIS as a membership bitmap.
    fn lex_bits(g: &Graph) -> Vec<bool> {
        g.membership(&greedy_mis(g, RankingMode::StaticId))
    }

    #[test]
    fn ball_matches_full_bfs_within_radius() {
        let udg = UnitDiskGraph::build(deploy::uniform(200, 6.0, 6.0, 9), 1.0);
        let g = udg.graph();
        let full = traversal::multi_source_bfs(g, [0, 17, 91]);
        let mut scratch = BallScratch::new(g.node_count());
        for r in 0..4u32 {
            let mut ball = scratch.ball(g, [0, 17, 91], r).to_vec();
            ball.sort_unstable();
            let want: Vec<NodeId> =
                g.nodes().filter(|&u| full[u].is_some_and(|d| d <= r)).collect();
            assert_eq!(ball, want, "radius {r}");
            for &u in &want {
                assert_eq!(scratch.dist.get(u).copied(), full[u], "distance of {u}");
            }
        }
    }

    #[test]
    fn max_distance_stops_early_but_stays_exact() {
        let udg = UnitDiskGraph::build(deploy::uniform(300, 7.0, 7.0, 4), 1.0);
        let g = udg.graph();
        let full = traversal::multi_source_bfs(g, [5, 140]);
        let mut scratch = BallScratch::new(g.node_count());
        for radius in [2u32, 4, 8] {
            let targets: Vec<NodeId> = (0..g.node_count()).step_by(37).collect();
            let want =
                targets.iter().map(|&t| full[t].filter(|&d| d <= radius).unwrap_or(u32::MAX)).max();
            assert_eq!(scratch.max_distance_to(g, [5, 140], &targets, radius), want);
        }
        assert_eq!(scratch.max_distance_to(g, [5], &[], 8), None);
        // a target among the sources is at distance 0
        assert_eq!(scratch.max_distance_to(g, [5, 140], &[140], 8), Some(0));
    }

    #[test]
    fn scratch_resizes_for_joins_and_leaves() {
        let g = generators::path(6);
        let mut scratch = BallScratch::new(6);
        assert_eq!(scratch.ball(&g, [5], 2), &[5, 4, 3]);
        scratch.resize(4);
        let g4 = generators::path(4);
        assert_eq!(scratch.ball(&g4, [0], 8), &[0, 1, 2, 3]);
        scratch.resize(7);
        let g7 = generators::path(7);
        assert_eq!(scratch.ball(&g7, [6], 1), &[6, 5]);
        assert!(scratch.dist.iter().filter(|&&d| d != u32::MAX).count() == 2);
    }

    #[test]
    fn cascade_reaches_the_greedy_fixpoint_from_scratch() {
        // seeding every node must reproduce greedy construction exactly,
        // even starting from an empty (wrong) membership
        let g = generators::gnp(120, 0.06, 5);
        let mut mis = vec![false; g.node_count()];
        let seeds: Vec<NodeId> = g.nodes().collect();
        cascade_mis(&g, &mut mis, &seeds);
        assert_eq!(mis, lex_bits(&g));
    }

    #[test]
    fn cascade_tracks_greedy_across_random_moves() {
        let mut udg = wcds_graph::DynamicUdg::new(deploy::uniform(180, 5.0, 5.0, 21), 1.0);
        let mut mis = lex_bits(udg.graph());
        let mut rng = ChaCha12Rng::seed_from_u64(77);
        for _ in 0..80 {
            let u = rng.gen_range(0..udg.node_count());
            let p = wcds_geom::Point::new(rng.gen::<f64>() * 5.0, rng.gen::<f64>() * 5.0);
            let delta = udg.move_node(u, p);
            let flipped = cascade_mis(udg.graph(), &mut mis, &delta.seeds);
            assert_eq!(mis, lex_bits(udg.graph()), "cascade diverged (flipped {flipped:?})");
            for &f in &flipped {
                // a flip is either a seed or reachable from one through
                // the ascending chain — never an untouched far node
                assert!(f >= delta.seeds.first().copied().unwrap_or(0));
            }
        }
    }

    #[test]
    fn edge_removal_promotes_the_freed_node() {
        // path 0-1-2: lex MIS {0, 2}; drop edge (0, 1) and node 1 must
        // join, which in turn evicts 2 — exactly what a fresh greedy run
        // decides ({0, 1}), reached through the ascending chain
        let g3 = generators::path(3);
        let mut mis = lex_bits(&g3);
        let g2 = {
            let mut b = wcds_graph::GraphBuilder::new(3);
            b.add_edge(1, 2);
            b.build()
        };
        let flipped = cascade_mis(&g2, &mut mis, &[0, 1]);
        assert_eq!(flipped, vec![1, 2]);
        assert_eq!(mis, lex_bits(&g2));
        assert_eq!(mis, vec![true, true, false]);
    }

    #[test]
    fn contributions_union_equals_the_global_selection() {
        for seed in [3, 14, 60] {
            let udg = UnitDiskGraph::build(deploy::uniform(160, 7.0, 7.0, seed), 1.0);
            let g = udg.graph();
            let mis_vec = greedy_mis(g, RankingMode::StaticId);
            let mis: BTreeSet<NodeId> = mis_vec.iter().copied().collect();
            let per_node = select_additional_dominators_in(g, &mis, g.nodes());
            assert_eq!(per_node.len(), mis.len());
            let union: Vec<NodeId> = per_node
                .values()
                .flatten()
                .copied()
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            // against the full-BFS oracle (independent derivation) and
            // the production bounded-local path (shared machinery)
            assert_eq!(union, select_additional_dominators_reference(g, &mis_vec));
            assert_eq!(union, select_additional_dominators(g, &mis_vec));
        }
    }

    #[test]
    fn contributions_skip_non_mis_region_nodes() {
        let g = generators::path(7);
        let mis = lex_mis(&g);
        let per_node = select_additional_dominators_in(&g, &mis, [1, 3, 5]);
        assert!(per_node.is_empty(), "path MIS is the even nodes only");
    }
}
