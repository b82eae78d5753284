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
//! * the bound is also applied at **pop time**, so entries queued before
//!   `best` tightened are dropped for the cost of one comparison instead
//!   of a full expansion (and no longer inflate the `expanded` counter);
//! * each edge's selection runs through [`select_summary`], which ranks
//!   candidates into the scratch's [`SelectionBuf`] and builds no move
//!   list, so an expansion allocates nothing.
//!
//! The same routine runs in **Dijkstra mode** (for the BonnPlaceLegal
//! baseline): costs are clamped non-negative by the selection layer, every
//! node is pushed, nothing is pruned (at generation or pop), and the first
//! *candidate* popped is provably the cheapest — the classic early exit.

use crate::grid::{BinId, EdgeKind};
use crate::selection::{select_summary, SelectionBuf, SelectionParams};
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
    /// Dijkstra mode: no pruning, first candidate popped wins. Requires
    /// non-negative costs ([`SelectionParams::clamp_negative`]).
    pub dijkstra: bool,
    /// Cost model shared with realization.
    pub selection: SelectionParams,
}

impl Default for SearchParams {
    fn default() -> Self {
        Self {
            alpha: 0.1,
            slack: 1.0,
            dijkstra: false,
            selection: SelectionParams::default(),
        }
    }
}

/// A sorted set of tabooed directed edges: the flow-pass coordinator
/// lists `(from, to)` bin pairs a search must not traverse for a
/// bounded window after detecting A↔B ping-ponging (a path moving cells
/// right back where the previous round moved them from). Frozen per
/// round and derived only from the deterministic serial apply order, so
/// its effect — like everything else in the search — is invariant under
/// the worker count.
#[derive(Debug, Clone, Default)]
// flow3d-tidy: allow(dead-pub) — facade API (flow3d::core) for embedders that drive the legalizer below the Legalizer trait
pub struct TabuList {
    edges: Vec<(u32, u32)>,
}

impl TabuList {
    /// Builds the list from directed edges (deduplicated, sorted).
    pub fn from_edges(edges: Vec<(BinId, BinId)>) -> Self {
        let mut edges: Vec<(u32, u32)> = edges.into_iter().map(|(u, v)| (u.0, v.0)).collect();
        edges.sort_unstable();
        edges.dedup();
        Self { edges }
    }

    /// Whether no edge is tabooed.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Whether traversing `u -> v` is currently tabooed.
    #[inline]
    pub fn contains(&self, u: BinId, v: BinId) -> bool {
        self.edges.binary_search(&(u.0, v.0)).is_ok()
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
    /// generation (Algorithm 1 line 13). Always 0 in Dijkstra mode, which
    /// never prunes.
    pub pruned: usize,
    /// Queued entries caught by the same bound at pop time because
    /// `best` tightened after they were pushed. Under clamped
    /// (non-negative) selection costs they are dropped outright; under
    /// the default signed costs they are still expanded (their subtrees
    /// can chain negative-cost moves into a better candidate) but kept
    /// out of `expanded`. Each such entry was a created node, so
    /// `pruned_stale ≤ created` always holds. Always 0 in Dijkstra
    /// mode.
    pub pruned_stale: usize,
}

/// Reusable scratch buffers: allocate once per legalization, reuse across
/// the thousands of searches. Holds the visited-epoch set, the node
/// arena, the priority queue, and the selection candidate buffer; all
/// are cleared (or epoch-invalidated), never reallocated, between
/// searches, so their contents can never leak into a later search's
/// result.
#[derive(Debug, Default)]
pub struct SearchScratch {
    visited_epoch: Vec<u32>,
    epoch: u32,
    nodes: Vec<Node>,
    heap: BinaryHeap<Reverse<(OrdF64, u32)>>,
    selection: SelectionBuf,
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
/// over many requests; the scratches never carry results between
/// searches.
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

/// Finds the cheapest augmenting path draining `source`'s supply, or
/// `None` when no reachable bin set can absorb it. Edges in `tabu` (the
/// flow-pass ping-pong detector's round-frozen list) are not traversed.
// flow3d-tidy: allow(dead-pub) — facade API (flow3d::core) for embedders that drive the legalizer below the Legalizer trait
pub fn find_path(
    state: &FlowState<'_>,
    source: BinId,
    params: &SearchParams,
    tabu: Option<&TabuList>,
    scratch: &mut SearchScratch,
    counters: &mut SearchCounters,
) -> Option<AugmentingPath> {
    find_path_limited(state, source, i64::MAX, params, tabu, scratch, counters)
}

/// [`find_path`] pushing at most `limit` DBU of the source's supply.
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
    tabu: Option<&TabuList>,
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
        if !params.dijkstra && cost >= bound(best_cost, params.alpha, params.slack) {
            // Pop-time pruning: `best` tightened after this entry was
            // queued, so the entry itself can no longer beat the bound.
            // With clamped (non-negative) selection costs no descendant
            // can either, and the entry is dropped for the price of one
            // comparison. With the default signed costs its subtree can
            // still chain negative-cost moves into a better candidate —
            // exactly the exploration a loose `α` pays for — so the
            // entry is expanded anyway and only excluded from
            // `expanded`, which counts in-bound work.
            counters.pruned_stale += 1;
            if params.selection.clamp_negative {
                continue;
            }
        } else {
            counters.expanded += 1;
        }

        if params.dijkstra {
            // Non-negative costs: the first candidate popped is optimal.
            if idx != 0 && node.inflow <= state.dem(node.bin) {
                return Some(extract(&scratch.nodes, idx));
            }
        }

        let needed = node.inflow - state.dem(node.bin);
        if needed <= 0 {
            continue; // absorbing node (candidate already recorded)
        }
        for &(nbr, kind) in state.grid.neighbors(node.bin) {
            if scratch.visited(nbr) {
                continue;
            }
            if tabu.is_some_and(|t| t.contains(node.bin, nbr)) {
                // Ping-pong suppression: the reverse of this edge was
                // applied recently; the bin stays reachable via other
                // routes, this edge just sits the window out.
                continue;
            }
            // The search consumes only the (cost, added_to_v) summary of
            // a selection; `augment::realize` recomputes the full move
            // list against the same frozen state when a path is applied.
            let Some((sel_cost, added_to_v)) = select_summary(
                state,
                node.bin,
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
            if !params.dijkstra && child_cost >= bound(best_cost, params.alpha, params.slack) {
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
            if !params.dijkstra && child.inflow <= state.dem(nbr) {
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
        assert!(find_path(
            &st,
            b0,
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
        let path = find_path(
            &st,
            bins[0],
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
        let path = find_path(
            &st,
            bins[0],
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
        let path = find_path(
            &st,
            bins[0],
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
        let path = find_path(
            &st,
            bins[0],
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
        assert!(find_path(
            &st2,
            bins2[0],
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
            let p = find_path(
                &st,
                bins[0],
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
            dijkstra: true,
            selection: SelectionParams {
                clamp_negative: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let path =
            find_path(&st, bins[0], &params, None, &mut scratch, &mut counters).expect("path");
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
    fn tabu_list_blocks_an_edge_and_changes_the_escape() {
        // Whatever edge the free search takes out of the overflowed
        // source, tabu it: the re-search must route around it (the
        // reverse direction stays open in the list).
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

        let free =
            find_path(&st, bins[0], &params, None, &mut scratch, &mut counters).expect("path");
        let first_hop = free.steps[1].bin;

        let tabu = TabuList::from_edges(vec![(bins[0], first_hop)]);
        assert!(tabu.contains(bins[0], first_hop));
        assert!(!tabu.contains(first_hop, bins[0]));
        let detour = find_path(
            &st,
            bins[0],
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
