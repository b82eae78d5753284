//! BonnPlaceLegal-style flow legalization (Brenner, TCAD 2013).
//!
//! The same bin/flow formulation as 3D-Flow, restricted the way the paper
//! characterizes BonnPlaceLegal (§III-B): per-die 2D grids (no die-to-die
//! edges), edge costs clamped non-negative, and true Dijkstra searches —
//! label-correcting relaxation over the whole grid, the first absorbing
//! bin popped ending the path. Like the vanilla successive-shortest-path
//! algorithm the paper benchmarks, each search still completes its
//! shortest-path tree; these repeated full-grid searches are what makes
//! this approach scale poorly on large designs (Tables III/IV).

use flow3d_core::assign;
use flow3d_core::augment::realize;
use flow3d_core::driver::{bin_widths, placerow_all, teleport_fallback};
use flow3d_core::grid::{BinGrid, BinId, EdgeKind};
use flow3d_core::placerow::RowAlgo;
use flow3d_core::search::{AugmentingPath, PathStep};
use flow3d_core::selection::{select_moves, SelectionParams};
use flow3d_core::state::FlowState;
use flow3d_core::{LegalizeError, LegalizeOutcome, LegalizeStats, Legalizer};
use flow3d_db::{Design, Placement3d, RowLayout};
use flow3d_obs::{keys, Obs, ObsExt};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Bin width as a multiple of the mean cell width: 3D-Flow's default,
/// for comparability.
const BIN_WIDTH_FACTOR: f64 = 10.0;

/// The BonnPlaceLegal-style legalizer.
#[derive(Debug, Clone, Default)]
pub struct BonnLegalizer {
    _private: (),
}

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

/// Dijkstra over the bin grid with non-negative move costs. Unlike the
/// branch-and-bound search, labels may be corrected (a bin can be relaxed
/// several times), and the first absorbing bin popped ends the path — the
/// classical shortest augmenting path — though the search goes on to
/// complete the shortest-path tree, as vanilla successive shortest paths
/// does.
fn dijkstra(
    state: &FlowState<'_>,
    source: BinId,
    limit: i64,
    params: &SelectionParams,
    expanded: &mut usize,
) -> Option<AugmentingPath> {
    let supply = state.sup(source).min(limit);
    if supply <= 0 {
        return None;
    }
    let n = state.grid.num_bins();
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<(BinId, EdgeKind)>> = vec![None; n];
    let mut inflow = vec![0i64; n];
    let mut done = vec![false; n];

    dist[source.index()] = 0.0;
    inflow[source.index()] = supply;
    let mut heap: BinaryHeap<Reverse<(OrdF64, BinId)>> = BinaryHeap::new();
    heap.push(Reverse((OrdF64(0.0), source)));
    let mut best: Option<(BinId, f64)> = None;

    while let Some(Reverse((OrdF64(d), u))) = heap.pop() {
        if done[u.index()] || d > dist[u.index()] {
            continue;
        }
        done[u.index()] = true;
        *expanded += 1;

        if u != source && inflow[u.index()] <= state.dem(u) {
            // Pops come in nondecreasing cost order, so the first
            // absorbing bin is the shortest augmenting path.
            if best.is_none() {
                best = Some((u, dist[u.index()]));
            }
            continue;
        }

        let needed = inflow[u.index()] - state.dem(u);
        if needed <= 0 {
            continue;
        }
        for &(v, kind) in state.grid.neighbors(u) {
            if done[v.index()] {
                continue;
            }
            let Some(sel) = select_moves(state, u, v, kind, needed, params) else {
                continue;
            };
            debug_assert!(sel.cost >= 0.0, "Bonn requires non-negative costs");
            let nd = d + sel.cost;
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                parent[v.index()] = Some((u, kind));
                inflow[v.index()] = sel.added_to_v;
                heap.push(Reverse((OrdF64(nd), v)));
            }
        }
    }
    let (sink, cost) = best?;
    let mut steps = Vec::new();
    let mut cur = sink;
    loop {
        let edge = parent[cur.index()]
            .map(|(_, k)| k)
            .unwrap_or(EdgeKind::Horizontal);
        steps.push(PathStep {
            bin: cur,
            inflow: inflow[cur.index()],
            edge,
        });
        match parent[cur.index()] {
            Some((prev, _)) => cur = prev,
            None => break,
        }
    }
    steps.reverse();
    Some(AugmentingPath { steps, cost })
}

/// Drains every overflowed bin by successive shortest (Dijkstra)
/// augmenting paths. Search counters accumulate into `obs` when it is
/// `Some`.
fn drain(
    state: &mut FlowState<'_>,
    params: &SelectionParams,
    stats: &mut LegalizeStats,
    mut obs: Obs<'_>,
) -> Result<(), LegalizeError> {
    let expanded_before = stats.nodes_expanded;
    let fallback_before = stats.fallback_moves;
    let mut retries: usize = 0;

    let mut heap: BinaryHeap<(i64, BinId)> = state
        .overflowed_bins()
        .into_iter()
        .map(|b| (state.sup(b), b))
        .collect();
    let mut guard = 64 * heap.len() + 4 * state.grid.num_bins();
    while let Some((recorded, bin)) = heap.pop() {
        let sup = state.sup(bin);
        if sup == 0 {
            continue;
        }
        if sup != recorded {
            heap.push((sup, bin));
            continue;
        }
        if guard == 0 {
            return Err(LegalizeError::NoAugmentingPath {
                die: state.grid.bin(bin).die,
                supply: sup,
            });
        }
        guard -= 1;

        let mut limit = sup;
        let mut path = None;
        let mut searches_this_source: usize = 0;
        while limit > 0 {
            searches_this_source += 1;
            if let Some(p) = dijkstra(state, bin, limit, params, &mut stats.nodes_expanded) {
                path = Some(p);
                break;
            }
            limit /= 2;
        }
        retries += searches_this_source.saturating_sub(1);
        let Some(path) = path else {
            // Macro-enclosed pocket with no 2D augmenting path: fall
            // back to direct relocation (same-die only — Bonn never
            // crosses dies).
            let moved = teleport_fallback(state, bin, false, stats)?;
            if moved && state.sup(bin) > 0 {
                heap.push((state.sup(bin), bin));
            }
            continue;
        };
        stats.cells_moved += realize(state, &path, params);
        stats.augmentations += 1;
        // Re-queue any path bin left overfull (realization drift can
        // overshoot an intermediate bin; see flow3d-core's flow_pass).
        for step in &path.steps {
            if state.sup(step.bin) > 0 {
                heap.push((state.sup(step.bin), step.bin));
            }
        }
    }

    obs.bump(
        keys::NODES_EXPANDED,
        (stats.nodes_expanded - expanded_before) as u64,
    );
    obs.bump(keys::AUGMENTING_PATHS, stats.augmentations as u64);
    obs.bump(keys::SEARCH_RETRIES, retries as u64);
    obs.bump(keys::CELLS_MOVED, stats.cells_moved as u64);
    obs.bump(
        keys::FALLBACK_MOVES,
        (stats.fallback_moves - fallback_before) as u64,
    );
    Ok(())
}

fn run(
    design: &Design,
    global: &Placement3d,
    mut obs: Obs<'_>,
) -> Result<LegalizeOutcome, LegalizeError> {
    obs.begin("partition");
    let layout = RowLayout::build(design);
    let dies = assign::partition_dies(design, global);
    obs.end("partition");
    let mut dies = dies?;

    obs.begin("grid_build");
    let widths = bin_widths(design, BIN_WIDTH_FACTOR);
    // No D2D edges: each die is legalized on its own 2D grid.
    let grid = BinGrid::build(design, &layout, &widths, false);
    obs.end("grid_build");

    obs.begin("assign");
    let state = assign::build_state(design, &layout, &grid, global, &mut dies);
    obs.end("assign");
    let mut state = state?;

    let params = SelectionParams {
        clamp_negative: true,
        d2d_congestion_cost: false,
        d2d_penalty: 0.0,
    };
    let mut stats = LegalizeStats::default();

    obs.begin("flow_pass");
    let drained = drain(&mut state, &params, &mut stats, obs.reborrow());
    obs.end("flow_pass");
    drained?;

    obs.begin("placerow");
    let placed = placerow_all(&state, RowAlgo::AbacusQuadratic, 1, obs.reborrow());
    obs.end("placerow");
    let placement = placed?;
    stats.cross_die_moves = placement.cross_die_moves(global, design.num_dies());
    Ok(LegalizeOutcome { placement, stats })
}

impl Legalizer for BonnLegalizer {
    fn name(&self) -> &str {
        "bonn"
    }

    fn legalize_observed(
        &self,
        design: &Design,
        global: &Placement3d,
        mut obs: Obs<'_>,
    ) -> Result<LegalizeOutcome, LegalizeError> {
        obs.begin("legalize");
        let result = run(design, global, obs.reborrow());
        obs.end("legalize");
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow3d_db::{CellId, DesignBuilder, DieId, DieSpec, LibCellSpec, TechnologySpec};
    use flow3d_geom::FPoint;
    use flow3d_metrics::{check_legal, displacement_stats};

    fn design(n: usize) -> Design {
        let mut b = DesignBuilder::new("t")
            .technology(TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("C", 30, 10)))
            .die(DieSpec::new("bottom", "T", (0, 0, 400, 40), 10, 1, 1.0))
            .die(DieSpec::new("top", "T", (0, 0, 400, 40), 10, 1, 1.0));
        for i in 0..n {
            b = b.cell(format!("u{i}"), "C");
        }
        b.build().unwrap()
    }

    #[test]
    fn clump_is_legalized() {
        let d = design(16);
        let mut gp = Placement3d::new(16);
        for i in 0..16 {
            gp.set_pos(CellId::new(i), FPoint::new(150.0, 10.0));
        }
        let outcome = BonnLegalizer::default().legalize(&d, &gp).unwrap();
        let report = check_legal(&d, &outcome.placement);
        assert!(report.is_legal(), "{report}");
        assert!(outcome.stats.augmentations > 0);
    }

    #[test]
    fn never_moves_cells_across_dies() {
        let d = design(16);
        let mut gp = Placement3d::new(16);
        for i in 0..16 {
            gp.set_pos(CellId::new(i), FPoint::new(150.0, 10.0));
            gp.set_die_affinity(CellId::new(i), if i < 8 { 0.0 } else { 1.0 });
        }
        let outcome = BonnLegalizer::default().legalize(&d, &gp).unwrap();
        assert_eq!(outcome.stats.cross_die_moves, 0);
        for i in 0..16 {
            let expect = if i < 8 { DieId::BOTTOM } else { DieId::TOP };
            assert_eq!(outcome.placement.die(CellId::new(i)), expect);
        }
    }

    #[test]
    fn sparse_placement_is_untouched() {
        let d = design(4);
        let mut gp = Placement3d::new(4);
        for i in 0..4 {
            gp.set_pos(CellId::new(i), FPoint::new(i as f64 * 80.0, 10.0));
        }
        let outcome = BonnLegalizer::default().legalize(&d, &gp).unwrap();
        assert_eq!(displacement_stats(&d, &gp, &outcome.placement).max_dbu, 0.0);
        assert_eq!(outcome.stats.augmentations, 0);
    }
}
