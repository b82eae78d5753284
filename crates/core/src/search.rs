//! Augmenting-path search with branch-and-bound (paper Algorithm 1).
//!
//! A best-first search over the 3D grid graph rooted at an overflowed
//! source bin. Each tree node carries the flow that must enter its bin and
//! the accumulated displacement cost; expanding a node selects the cheapest
//! cell set that would push the surplus to a neighbour (see
//! [`selection`](crate::selection)). Bins are visited at most once per
//! search. Branches costlier than `(1 + α)·cost(p_best)` are pruned; for a
//! negative best cost the bound degrades gracefully to
//! `cost(p_best) + α·|cost(p_best)|` (see `DESIGN.md`).
//!
//! The kernel is engineered for the thousands of searches one
//! legalization performs:
//!
//! * the node arena and the priority queue live in [`SearchScratch`] and
//!   are cleared — not reallocated — per search;
//! * the bound is also checked at **pop time**: an entry queued before
//!   `best` tightened is counted as stale instead of expanded, and is
//!   still expanded, because its subtree can chain negative-cost moves
//!   into a better candidate;
//! * each edge's selection walks a ranking the scratch keeps per grid
//!   edge and state version (`selection::RankCache`): of the searches a
//!   flow round runs against one frozen state, only the first to expand
//!   an edge ranks its candidates, and no expansion builds a move list
//!   or allocates.
//!
//! This is the one search discipline, whatever the sign of the costs:
//! under clamped (non-negative) selection costs a stale entry's children
//! all fall to the generation-time bound. BonnPlaceLegal's
//! label-correcting Dijkstra is the baseline's own (`flow3d-baselines`).

use crate::grid::{BinId, EdgeKind};
use crate::selection::{RankCache, SelectionBuf, SelectionParams};
use crate::state::FlowState;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Search parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchParams {
    /// Branch-and-bound slack `α`; `f64::INFINITY` disables pruning.
    pub alpha: f64,
    /// Absolute pruning slack used when the best cost is ~0 (typically
    /// the row height).
    pub slack: f64,
    /// Cost model shared with realization.
    pub selection: SelectionParams,
}

impl Default for SearchParams {
    fn default() -> Self {
        Self {
            alpha: 0.1,
            slack: 1.0,
            selection: SelectionParams::default(),
        }
    }
}

/// The ping-pong tabu of one flow round (in post-optimization's
/// sequential drain, of one applied path): the directed grid edges a
/// search must not traverse. The pass keeps, per CSR edge id, the first
/// round in which the edge is free again, and tabus
/// both directions of an edge for a bounded window after detecting A↔B
/// ping-ponging (a path moving cells right back where the previous round
/// moved them from). The stamps change only between rounds and derive
/// only from the deterministic serial apply order, so their effect —
/// like everything else in the search — is invariant under the worker
/// count.
#[derive(Debug, Clone, Copy)]
pub struct EdgeTabu<'a> {
    /// Per edge id, the first round the edge may be traversed in.
    free_from: &'a [u32],
    /// The current round.
    round: u32,
}

impl<'a> EdgeTabu<'a> {
    /// The tabu of `round`, given per edge id the first round the edge
    /// may be traversed in (0 for an edge never tabooed).
    pub fn new(free_from: &'a [u32], round: u32) -> Self {
        Self { free_from, round }
    }

    /// Whether the edge with CSR id `edge` is tabooed this round.
    #[inline]
    pub fn blocks(&self, edge: usize) -> bool {
        self.free_from[edge] > self.round
    }
}

/// One step of the returned path (root source first).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathStep {
    /// The bin.
    pub bin: BinId,
    /// Flow entering this bin, in the bin's die units (for the root this
    /// is its supply).
    pub inflow: i64,
    /// Edge kind used to *enter* this bin (meaningless for the root).
    pub edge: EdgeKind,
}

/// A found augmenting path.
#[derive(Debug, Clone, PartialEq)]
pub struct AugmentingPath {
    /// Bins from the source to the absorbing sink.
    pub steps: Vec<PathStep>,
    /// Total displacement cost of the path.
    pub cost: f64,
}

impl AugmentingPath {
    /// Path depth: edges traversed from the source to the sink (one less
    /// than the number of bins on the path). This is the sample recorded
    /// into the `search_path_depth` telemetry histogram.
    pub fn depth(&self) -> usize {
        self.steps.len().saturating_sub(1)
    }
}

/// Counters for one search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SearchCounters {
    /// Nodes popped from the priority queue and expanded (pop-time-pruned
    /// entries are *not* counted here).
    pub expanded: usize,
    /// Nodes created (edges traversed with a feasible selection).
    pub created: usize,
    /// Branches cut by the `(1 + α)·cost(p_best)` bound at child
    /// generation (Algorithm 1 line 13).
    pub pruned: usize,
    /// Queued entries caught by the same bound at pop time because
    /// `best` tightened after they were pushed. They are still expanded
    /// (their subtrees can chain negative-cost moves into a better
    /// candidate) but kept out of `expanded`. Each such entry was a
    /// created node, so `pruned_stale ≤ created` always holds.
    pub pruned_stale: usize,
}

/// Reusable scratch buffers: allocate once per legalization, reuse across
/// the thousands of searches. Holds the visited-epoch set, the node
/// arena, the priority queue, the selection candidate buffer and the
/// edge rankings of the current state version. The first four are
/// cleared (or epoch-invalidated), never reallocated, between searches;
/// the rankings are kept while the state version and the selection
/// parameters stay the same, and each lookup checks both, so nothing a
/// search leaves behind can change a later search's result.
#[derive(Debug, Default)]
pub struct SearchScratch {
    visited_epoch: Vec<u32>,
    epoch: u32,
    nodes: Vec<Node>,
    heap: BinaryHeap<Reverse<(OrdF64, u32)>>,
    selection: SelectionBuf,
    ranks: RankCache,
}

impl SearchScratch {
    /// Creates scratch buffers for a grid with `num_bins` bins.
    pub fn new(num_bins: usize) -> Self {
        Self {
            visited_epoch: vec![0; num_bins],
            epoch: 0,
            nodes: Vec::new(),
            heap: BinaryHeap::new(),
            selection: SelectionBuf::default(),
            ranks: RankCache::default(),
        }
    }

    fn begin(&mut self, num_bins: usize) {
        if self.visited_epoch.len() < num_bins {
            self.visited_epoch.resize(num_bins, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.visited_epoch.fill(0);
            self.epoch = 1;
        }
    }

    #[inline]
    fn visited(&self, bin: BinId) -> bool {
        self.visited_epoch[bin.index()] == self.epoch
    }

    #[inline]
    fn mark(&mut self, bin: BinId) {
        self.visited_epoch[bin.index()] = self.epoch;
    }
}

/// Reusable search state for a whole flow pass (or a resident engine's
/// lifetime): the per-worker [`SearchScratch`]es, grown to the worker
/// count on demand by [`flow_pass`](crate::driver::flow_pass). Keeping a pool
/// resident (see `crate::EcoEngine`) amortizes the scratch allocations
/// over many requests; the scratches carry rankings only within one
/// state version, never results.
#[derive(Debug, Default)]
pub struct SearchPool {
    pub(crate) scratches: Vec<SearchScratch>,
}

impl SearchPool {
    /// Creates an empty pool; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Total order on f64 path costs for the heap.
#[derive(Debug, Clone, Copy, PartialEq)]
struct OrdF64(f64);
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    bin: BinId,
    parent: u32,
    inflow: i64,
    cost: f64,
    edge: EdgeKind,
}

/// The pruning bound of Algorithm 1 line 13, extended to negative costs.
fn bound(best: f64, alpha: f64, slack: f64) -> f64 {
    if best.is_infinite() || alpha.is_infinite() {
        f64::INFINITY
    } else {
        best + alpha * best.abs().max(slack)
    }
}

/// Finds the cheapest augmenting path pushing `limit` DBU of `source`'s
/// supply (all of it when the supply is smaller), or `None` when no
/// reachable bin set can absorb that much. Edges `tabu` blocks (the
/// flow-pass ping-pong detector's round-frozen stamps) are not
/// traversed.
///
/// A single augmenting path can only drain what the bins along it can
/// absorb or forward; when a source's supply exceeds every reachable
/// chain's capacity, the caller retries with smaller limits and drains
/// the source over several augmentations (see `flow_pass`).
#[allow(clippy::too_many_arguments)]
pub fn find_path_limited(
    state: &FlowState<'_>,
    source: BinId,
    limit: i64,
    params: &SearchParams,
    tabu: Option<&EdgeTabu<'_>>,
    scratch: &mut SearchScratch,
    counters: &mut SearchCounters,
) -> Option<AugmentingPath> {
    let supply = state.sup(source).min(limit);
    if supply <= 0 {
        return None;
    }
    scratch.begin(state.grid.num_bins());

    scratch.nodes.clear();
    scratch.heap.clear();
    scratch.nodes.push(Node {
        bin: source,
        parent: u32::MAX,
        inflow: supply,
        cost: 0.0,
        edge: EdgeKind::Horizontal,
    });
    scratch.heap.push(Reverse((OrdF64(0.0), 0)));
    scratch.mark(source);

    let mut best: Option<(u32, f64)> = None;

    while let Some(Reverse((OrdF64(cost), idx))) = scratch.heap.pop() {
        let node = scratch.nodes[idx as usize];
        // The visited-epoch set admits each bin at most once per search,
        // so every node gets exactly one heap entry and the popped cost
        // is the node's cost by construction.
        debug_assert_eq!(
            cost.to_bits(),
            node.cost.to_bits(),
            "each node is pushed exactly once"
        );
        let best_cost = best.map(|(_, c)| c).unwrap_or(f64::INFINITY);
        if cost >= bound(best_cost, params.alpha, params.slack) {
            // Stale entry: `best` tightened after it was queued, so the
            // entry itself can no longer beat the bound. Its subtree can
            // still chain negative-cost moves into a better candidate —
            // exactly the exploration a loose `α` pays for — so it is
            // expanded anyway and only kept out of `expanded`, which
            // counts in-bound work.
            counters.pruned_stale += 1;
        } else {
            counters.expanded += 1;
        }

        let needed = node.inflow - state.dem(node.bin);
        if needed <= 0 {
            continue; // absorbing node (candidate already recorded)
        }
        let first_edge = state.grid.first_edge(node.bin);
        for (j, &(nbr, kind)) in state.grid.neighbors(node.bin).iter().enumerate() {
            if scratch.visited(nbr) {
                continue;
            }
            let edge = first_edge + j;
            if tabu.is_some_and(|t| t.blocks(edge)) {
                // Ping-pong suppression: the reverse of this edge was
                // applied recently; the bin stays reachable via other
                // routes, this edge just sits the window out.
                continue;
            }
            // The search consumes only the (cost, added_to_v) summary of
            // a selection; `augment::realize` recomputes the full move
            // list against the same frozen state when a path is applied.
            let Some((sel_cost, added_to_v)) = scratch.ranks.summary(
                state,
                node.bin,
                j,
                nbr,
                kind,
                needed,
                &params.selection,
                &mut scratch.selection,
            ) else {
                continue;
            };
            scratch.mark(nbr);
            let child_cost = node.cost + sel_cost;
            let best_cost = best.map(|(_, c)| c).unwrap_or(f64::INFINITY);
            if child_cost >= bound(best_cost, params.alpha, params.slack) {
                counters.pruned += 1;
                continue; // pruned branch (bin stays visited, as in the paper)
            }
            let child = Node {
                bin: nbr,
                parent: idx,
                inflow: added_to_v,
                cost: child_cost,
                edge: kind,
            };
            let child_idx = scratch.nodes.len() as u32;
            scratch.nodes.push(child);
            counters.created += 1;
            if child.inflow <= state.dem(nbr) {
                // Candidate path found.
                if child_cost < best_cost {
                    best = Some((child_idx, child_cost));
                }
            } else {
                scratch.heap.push(Reverse((OrdF64(child_cost), child_idx)));
            }
        }
    }
    best.map(|(idx, _)| extract(&scratch.nodes, idx))
}

fn extract(nodes: &[Node], leaf: u32) -> AugmentingPath {
    let mut steps = Vec::new();
    let mut idx = leaf;
    let cost = nodes[leaf as usize].cost;
    loop {
        let n = &nodes[idx as usize];
        steps.push(PathStep {
            bin: n.bin,
            inflow: n.inflow,
            edge: n.edge,
        });
        if n.parent == u32::MAX {
            break;
        }
        idx = n.parent;
    }
    steps.reverse();
    AugmentingPath { steps, cost }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::BinGrid;
    use flow3d_db::{
        CellId, Design, DesignBuilder, DieId, DieSpec, LibCellSpec, RowLayout, TechnologySpec,
    };
    use flow3d_geom::Point;

    fn fixture() -> Design {
        let mut b = DesignBuilder::new("t")
            .technology(TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("W40", 40, 12)))
            .die(DieSpec::new("bottom", "T", (0, 0, 400, 24), 12, 1, 1.0))
            .die(DieSpec::new("top", "T", (0, 0, 400, 24), 12, 1, 1.0));
        for i in 0..8 {
            b = b.cell(format!("u{i}"), "W40");
        }
        b.build().unwrap()
    }

    fn setup(d: &Design, d2d: bool) -> (RowLayout, BinGrid) {
        let layout = RowLayout::build(d);
        let grid = BinGrid::build(d, &layout, &[100, 100], d2d);
        (layout, grid)
    }

    fn seg(layout: &RowLayout, die: DieId, row: usize) -> flow3d_db::SegmentId {
        layout
            .segments()
            .iter()
            .find(|s| s.die == die && s.row.index() == row)
            .unwrap()
            .id
    }

    #[test]
    fn no_supply_no_path() {
        let d = fixture();
        let (layout, grid) = setup(&d, true);
        let st = FlowState::new(&d, &layout, &grid, vec![Point::ORIGIN; 8]);
        let b0 = grid.bins_in_segment(seg(&layout, DieId::BOTTOM, 0))[0];
        let mut scratch = SearchScratch::new(grid.num_bins());
        let mut counters = SearchCounters::default();
        assert!(find_path_limited(
            &st,
            b0,
            i64::MAX,
            &SearchParams::default(),
            None,
            &mut scratch,
            &mut counters
        )
        .is_none());
    }

    #[test]
    fn one_hop_path_to_adjacent_bin() {
        // Single-row bottom die without D2D edges: the only escape is the
        // horizontal neighbour.
        let d = {
            let mut b = DesignBuilder::new("t")
                .technology(TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("W40", 40, 12)))
                .die(DieSpec::new("bottom", "T", (0, 0, 400, 12), 12, 1, 1.0))
                .die(DieSpec::new("top", "T", (0, 0, 400, 12), 12, 1, 1.0));
            for i in 0..3 {
                b = b.cell(format!("u{i}"), "W40");
            }
            b.build().unwrap()
        };
        let (layout, grid) = setup(&d, false);
        let bins = grid.bins_in_segment(seg(&layout, DieId::BOTTOM, 0));
        let mut st = FlowState::new(&d, &layout, &grid, vec![Point::ORIGIN; 3]);
        // 3 cells of 40 in bin 0 (cap 100) -> sup 20.
        for i in 0..3 {
            st.insert_cell(CellId::new(i), bins[0], 0);
        }
        let mut scratch = SearchScratch::new(grid.num_bins());
        let mut counters = SearchCounters::default();
        let path = find_path_limited(
            &st,
            bins[0],
            i64::MAX,
            &SearchParams::default(),
            None,
            &mut scratch,
            &mut counters,
        )
        .expect("path");
        assert_eq!(path.steps.len(), 2);
        assert_eq!(path.steps[0].bin, bins[0]);
        assert_eq!(path.steps[0].inflow, 20);
        assert_eq!(path.steps[1].bin, bins[1]);
        assert_eq!(path.steps[1].inflow, 20);
        assert!(path.cost > 0.0);
        assert_eq!(path.depth(), 1);
        assert!(counters.expanded >= 1);
    }

    #[test]
    fn search_prefers_cheapest_escape_across_edge_kinds() {
        // With D2D enabled and everything anchored at the origin, the
        // top-die bin directly above (distance 0 in plan view) beats the
        // horizontal neighbour 100 DBU away.
        let d = fixture();
        let (layout, grid) = setup(&d, true);
        let bins = grid.bins_in_segment(seg(&layout, DieId::BOTTOM, 0));
        let mut st = FlowState::new(&d, &layout, &grid, vec![Point::ORIGIN; 8]);
        for i in 0..3 {
            st.insert_cell(CellId::new(i), bins[0], 0);
        }
        let mut scratch = SearchScratch::new(grid.num_bins());
        let mut counters = SearchCounters::default();
        let path = find_path_limited(
            &st,
            bins[0],
            i64::MAX,
            &SearchParams::default(),
            None,
            &mut scratch,
            &mut counters,
        )
        .expect("path");
        let last = path.steps.last().unwrap();
        assert!(st.dem(last.bin) >= last.inflow);
        assert_ne!(grid.bin(last.bin).die, DieId::BOTTOM);
    }

    #[test]
    fn multi_hop_when_neighbours_are_full() {
        let d = fixture();
        let (layout, grid) = setup(&d, false);
        let bins = grid.bins_in_segment(seg(&layout, DieId::BOTTOM, 0));
        assert_eq!(bins.len(), 4);
        let mut st = FlowState::new(&d, &layout, &grid, vec![Point::ORIGIN; 8]);
        // Fill bin0 with 3 cells (120/100) and bins 1,2 exactly full (100
        // each = 2.5 cells... use 40-wide cells: 2 cells = 80 leaves dem 20.
        // Instead use row 1 as escape: fill ALL of row 0 to capacity.
        for (i, b) in [
            (0, 0),
            (1, 0),
            (2, 0),
            (3, 1),
            (4, 1),
            (5, 2),
            (6, 2),
            (7, 3),
        ] {
            st.insert_cell(CellId::new(i), bins[b], (b * 100) as i64);
        }
        // bin0: 120/100 sup 20; bin1: 80/100 dem 20 -> absorbed next door.
        let mut scratch = SearchScratch::new(grid.num_bins());
        let mut counters = SearchCounters::default();
        let path = find_path_limited(
            &st,
            bins[0],
            i64::MAX,
            &SearchParams::default(),
            None,
            &mut scratch,
            &mut counters,
        )
        .expect("path");
        assert!(path.steps.len() >= 2);
        let last = path.steps.last().unwrap();
        assert!(st.dem(last.bin) >= last.inflow);
    }

    #[test]
    fn d2d_escape_when_die_is_full() {
        let d = fixture();
        // Small bottom die fully packed; top die empty.
        let d = {
            let _ = d;
            let mut b = DesignBuilder::new("t")
                .technology(TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("W40", 40, 12)))
                .die(DieSpec::new("bottom", "T", (0, 0, 120, 12), 12, 1, 1.0))
                .die(DieSpec::new("top", "T", (0, 0, 120, 12), 12, 1, 1.0));
            for i in 0..4 {
                b = b.cell(format!("u{i}"), "W40");
            }
            b.build().unwrap()
        };
        let (layout, grid) = setup(&d, true);
        let bins = grid.bins_in_segment(seg(&layout, DieId::BOTTOM, 0));
        let mut st = FlowState::new(&d, &layout, &grid, vec![Point::ORIGIN; 4]);
        for i in 0..4 {
            st.insert_cell(CellId::new(i), bins[0], 0);
        }
        // 160 used / 120 cap: the only escape is the top die.
        let mut scratch = SearchScratch::new(grid.num_bins());
        let mut counters = SearchCounters::default();
        let path = find_path_limited(
            &st,
            bins[0],
            i64::MAX,
            &SearchParams::default(),
            None,
            &mut scratch,
            &mut counters,
        )
        .expect("path via top die");
        assert!(path.steps.iter().any(|s| grid.bin(s.bin).die == DieId::TOP));

        // Without D2D edges the search must fail.
        let (layout2, grid2) = setup(&d, false);
        let bins2 = grid2.bins_in_segment(seg(&layout2, DieId::BOTTOM, 0));
        let mut st2 = FlowState::new(&d, &layout2, &grid2, vec![Point::ORIGIN; 4]);
        for i in 0..4 {
            st2.insert_cell(CellId::new(i), bins2[0], 0);
        }
        let mut scratch2 = SearchScratch::new(grid2.num_bins());
        assert!(find_path_limited(
            &st2,
            bins2[0],
            i64::MAX,
            &SearchParams::default(),
            None,
            &mut scratch2,
            &mut counters
        )
        .is_none());
    }

    #[test]
    fn tighter_alpha_expands_fewer_nodes() {
        let d = fixture();
        let (layout, grid) = setup(&d, true);
        let bins = grid.bins_in_segment(seg(&layout, DieId::BOTTOM, 0));
        let mut st = FlowState::new(&d, &layout, &grid, vec![Point::ORIGIN; 8]);
        for i in 0..3 {
            st.insert_cell(CellId::new(i), bins[0], 0);
        }
        let run = |alpha: f64| {
            let mut scratch = SearchScratch::new(grid.num_bins());
            let mut counters = SearchCounters::default();
            let p = find_path_limited(
                &st,
                bins[0],
                i64::MAX,
                &SearchParams {
                    alpha,
                    ..Default::default()
                },
                None,
                &mut scratch,
                &mut counters,
            )
            .unwrap();
            (p.cost, counters.created)
        };
        let (cost_greedy, created_greedy) = run(0.0);
        let (cost_full, created_full) = run(f64::INFINITY);
        assert!(created_greedy <= created_full);
        // Exhaustive search can only be at least as good.
        assert!(cost_full <= cost_greedy + 1e-9);
    }

    /// Clamped (non-negative) costs, the cost model of Bonn's Dijkstra,
    /// run through the kernel's one best-first discipline.
    #[test]
    fn dijkstra_mode_finds_nonnegative_path() {
        let d = fixture();
        let (layout, grid) = setup(&d, false);
        let bins = grid.bins_in_segment(seg(&layout, DieId::BOTTOM, 0));
        let mut st = FlowState::new(&d, &layout, &grid, vec![Point::ORIGIN; 8]);
        for i in 0..3 {
            st.insert_cell(CellId::new(i), bins[0], 0);
        }
        let mut scratch = SearchScratch::new(grid.num_bins());
        let mut counters = SearchCounters::default();
        let params = SearchParams {
            selection: SelectionParams {
                clamp_negative: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let path = find_path_limited(
            &st,
            bins[0],
            i64::MAX,
            &params,
            None,
            &mut scratch,
            &mut counters,
        )
        .expect("path");
        assert!(path.cost >= 0.0);
        let last = path.steps.last().unwrap();
        assert!(st.dem(last.bin) >= last.inflow);
    }

    #[test]
    fn bound_handles_negative_and_infinite_costs() {
        assert_eq!(bound(f64::INFINITY, 0.1, 1.0), f64::INFINITY);
        assert_eq!(bound(10.0, f64::INFINITY, 1.0), f64::INFINITY);
        assert!((bound(10.0, 0.1, 1.0) - 11.0).abs() < 1e-12);
        // Negative best: bound must be *looser* (greater) than best.
        let b = bound(-10.0, 0.1, 1.0);
        assert!(b > -10.0);
        assert!((b - -9.0).abs() < 1e-12);
        // Zero best cost: absolute slack applies.
        assert!((bound(0.0, 0.1, 12.0) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn edge_tabu_blocks_an_edge_and_changes_the_escape() {
        // Whatever edge the free search takes out of the overflowed
        // source, tabu it for round 0: the re-search must route around
        // it (the reverse direction stays open, and round 1 frees it).
        let d = fixture();
        let (layout, grid) = setup(&d, false);
        let bins = grid.bins_in_segment(seg(&layout, DieId::BOTTOM, 0));
        let mut st = FlowState::new(&d, &layout, &grid, vec![Point::ORIGIN; 8]);
        for i in 0..3 {
            st.insert_cell(CellId::new(i), bins[0], 0);
        }
        let params = SearchParams::default();
        let mut scratch = SearchScratch::new(grid.num_bins());
        let mut counters = SearchCounters::default();

        let free = find_path_limited(
            &st,
            bins[0],
            i64::MAX,
            &params,
            None,
            &mut scratch,
            &mut counters,
        )
        .expect("path");
        let first_hop = free.steps[1].bin;

        let out = grid.edge_between(bins[0], first_hop).unwrap();
        let back = grid.edge_between(first_hop, bins[0]).unwrap();
        let mut free_from = vec![0; grid.num_edges()];
        free_from[out] = 1;
        let tabu = EdgeTabu::new(&free_from, 0);
        assert!(tabu.blocks(out));
        assert!(!tabu.blocks(back));
        assert!(!EdgeTabu::new(&free_from, 1).blocks(out));
        let detour = find_path_limited(
            &st,
            bins[0],
            i64::MAX,
            &params,
            Some(&tabu),
            &mut scratch,
            &mut counters,
        )
        .expect("path");
        assert_ne!(
            detour.steps[1].bin, first_hop,
            "the tabu edge out of the source must not be taken"
        );
        assert!(detour.cost >= free.cost, "the detour cannot be cheaper");
    }

    #[test]
    fn scratch_epoch_survives_many_searches() {
        let mut s = SearchScratch::new(4);
        for _ in 0..10 {
            s.begin(4);
            assert!(!s.visited(BinId::new(2)));
            s.mark(BinId::new(2));
            assert!(s.visited(BinId::new(2)));
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::grid::BinGrid;
    use crate::state::prop_tests::random_op;
    use flow3d_db::{DesignBuilder, DieSpec, LibCellSpec, RowLayout, TechnologySpec};
    use proptest::prelude::*;

    /// SplitMix64's finalizer: the shuffle key of a work item.
    fn mix(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// The rankings a scratch keeps must never change a search. One
    /// scratch serves every source's full retry ladder (bounded, then
    /// unbounded, with signed costs, and bounded with clamped costs) in
    /// shuffled order, so the kept rankings flip between parameter sets,
    /// while random mutations through every state mutator — checkpoint
    /// and rollback included — run between the search rounds. Each
    /// search must equal the same search on a fresh scratch: steps, cost
    /// bits and all four counters.
    #[test]
    fn kept_rankings_never_change_a_search() {
        let mut b = DesignBuilder::new("t")
            .technology(
                TechnologySpec::new("TA")
                    .lib_cell(LibCellSpec::std_cell("C", 30, 10))
                    .lib_cell(LibCellSpec::std_cell("D", 50, 10)),
            )
            .technology(
                TechnologySpec::new("TB")
                    .lib_cell(LibCellSpec::std_cell("C", 24, 8))
                    .lib_cell(LibCellSpec::std_cell("D", 40, 8)),
            )
            .die(DieSpec::new("bottom", "TA", (0, 0, 180, 30), 10, 1, 1.0))
            .die(DieSpec::new("top", "TB", (0, 0, 180, 24), 8, 1, 0.9));
        for i in 0..16 {
            b = b.cell(format!("u{i}"), if i % 3 == 0 { "D" } else { "C" });
        }
        let design = b.build().unwrap();
        let layout = RowLayout::build(&design);
        let grid = BinGrid::build(&design, &layout, &[60, 60], true);
        let best_first = SearchParams {
            alpha: 0.1,
            slack: 8.0,
            selection: SelectionParams {
                d2d_penalty: 10.0,
                ..SelectionParams::default()
            },
        };
        let modes = [
            best_first,
            SearchParams {
                alpha: f64::INFINITY,
                ..best_first
            },
            SearchParams {
                selection: SelectionParams {
                    clamp_negative: true,
                    ..best_first.selection
                },
                ..best_first
            },
        ];
        let op = || (0usize..16, 0u8..6, -20i64..200, 0usize..64);

        let (mut searches, mut found) = (0usize, 0usize);
        proptest!(ProptestConfig::with_cases(256), |(
            anchors in proptest::collection::vec((-20i64..200, 0i64..30), 16),
            setup in proptest::collection::vec(op(), 16..48),
            rounds in proptest::collection::vec((op(), 0u8..4, 0u64..u64::MAX), 4..24),
        )| {
            let anchors = anchors
                .into_iter()
                .map(|(x, y)| flow3d_geom::Point::new(x, y))
                .collect();
            let mut st = FlowState::new(&design, &layout, &grid, anchors);
            for o in setup {
                random_op(&mut st, o);
            }
            let mut scratch = SearchScratch::default();
            let mut journal = false;
            // One mutation per round, so a mutator that failed to move
            // the version would leave the round's searches reading the
            // rankings of the state before it.
            for (o, journal_op, shuffle) in rounds {
                match journal_op {
                    1 => {
                        st.checkpoint();
                        journal = true;
                        random_op(&mut st, o);
                    }
                    2 if journal => {
                        st.rollback();
                        journal = false;
                    }
                    _ => random_op(&mut st, o),
                }
                let mut work: Vec<(u64, SearchParams, BinId)> = st
                    .overflowed_bins()
                    .into_iter()
                    .flat_map(|bin| modes.iter().map(move |&mode| (mode, bin)))
                    .enumerate()
                    .map(|(i, (mode, bin))| (mix(shuffle ^ i as u64), mode, bin))
                    .collect();
                work.sort_by_key(|w| w.0);
                for (_, mode, bin) in work {
                    let mut limit = st.sup(bin);
                    while limit > 0 {
                        let mut kept = SearchCounters::default();
                        let got =
                            find_path_limited(&st, bin, limit, &mode, None, &mut scratch, &mut kept);
                        let mut fresh = SearchCounters::default();
                        let want = find_path_limited(
                            &st,
                            bin,
                            limit,
                            &mode,
                            None,
                            &mut SearchScratch::default(),
                            &mut fresh,
                        );
                        let key = |p: &Option<AugmentingPath>| {
                            p.as_ref().map(|p| (p.steps.clone(), p.cost.to_bits()))
                        };
                        prop_assert_eq!(key(&got), key(&want), "bin {:?} limit {}", bin, limit);
                        prop_assert_eq!(kept, fresh, "bin {:?} limit {}", bin, limit);
                        searches += 1;
                        found += usize::from(got.is_some());
                        limit /= 2;
                    }
                }
            }
        });
        assert!(
            searches >= 20_000 && found >= 10_000,
            "fixture too sparse: {searches} searches, {found} paths"
        );
    }
}
