//! Path realization: moving cells along the augmenting path (paper §III-C).
//!
//! The path is realized from the leaf (sink) back to the root (source): at
//! each edge `(u, v)` the same deterministic selection as the search picks
//! the cell set, so the flow values recorded during the search are exactly
//! reproduced. Processing leaf-first means each source bin of an edge is
//! still untouched when its outgoing move executes.

use crate::search::AugmentingPath;
use crate::selection::{select_into, SelectionBuf, SelectionParams};
use crate::state::FlowState;

/// Realizes `path`, mutating `state`. Returns the number of whole-cell
/// relocations performed (fractional shifts are not counted).
///
/// Whole-cell moves on downstream edges may remove fragments from bins
/// earlier in the path (a relocated cell's fragments can sit anywhere in
/// its segment), so the recomputed per-edge out-flow can shrink relative
/// to the search. Such edges are fulfilled partially or skipped — both
/// only ever *under*-fill downstream bins, never create new overflow; any
/// supply left at the source is re-queued by the flow pass.
///
/// One candidate buffer and one move list serve every selection of the
/// path.
pub fn realize(
    state: &mut FlowState<'_>,
    path: &AugmentingPath,
    params: &SelectionParams,
) -> usize {
    let mut whole_moves = 0;
    let mut buf = SelectionBuf::default();
    let mut moves = Vec::new();
    for i in (1..path.steps.len()).rev() {
        let from = path.steps[i - 1];
        let to = path.steps[i];
        let mut needed = from.inflow - state.dem(from.bin);
        if needed <= 0 {
            continue; // drift absorbed the surplus: nothing to forward
        }
        let found = loop {
            match select_into(
                state, from.bin, to.bin, to.edge, needed, params, &mut buf, &mut moves,
            ) {
                Some(_) => break true,
                None if needed > 1 => needed /= 2, // partial fulfilment
                None => break false,
            }
        };
        if !found {
            continue;
        }
        for mv in &moves {
            if mv.whole {
                state.remove_cell(mv.cell);
                state.insert_cell_whole(mv.cell, to.bin);
                whole_moves += 1;
            } else {
                state.move_fraction(mv.cell, from.bin, to.bin, mv.width_from_u);
            }
        }
    }
    whole_moves
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::BinGrid;
    use crate::search::{find_path, SearchCounters, SearchParams, SearchScratch};
    use flow3d_db::{
        CellId, Design, DesignBuilder, DieId, DieSpec, LibCellSpec, RowLayout, TechnologySpec,
    };
    use flow3d_geom::Point;

    fn fixture() -> Design {
        let mut b = DesignBuilder::new("t")
            .technology(TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("W40", 40, 12)))
            .die(DieSpec::new("bottom", "T", (0, 0, 400, 24), 12, 1, 1.0))
            .die(DieSpec::new("top", "T", (0, 0, 400, 24), 12, 1, 1.0));
        for i in 0..10 {
            b = b.cell(format!("u{i}"), "W40");
        }
        b.build().unwrap()
    }

    fn run_one_augmentation(d2d: bool) -> (i64, usize) {
        let d = fixture();
        let layout = RowLayout::build(&d);
        let grid = BinGrid::build(&d, &layout, &[100, 100], d2d);
        let seg = layout
            .segments()
            .iter()
            .find(|s| s.die == DieId::BOTTOM && s.row.index() == 0)
            .unwrap()
            .id;
        let bins = grid.bins_in_segment(seg);
        let mut st = FlowState::new(&d, &layout, &grid, vec![Point::ORIGIN; 10]);
        for i in 0..3 {
            st.insert_cell(CellId::new(i), bins[0], 0);
        }
        let before = st.total_overflow();
        assert_eq!(before, 20);
        let mut scratch = SearchScratch::new(grid.num_bins());
        let mut counters = SearchCounters::default();
        let params = SearchParams::default();
        let path = find_path(&st, bins[0], &params, None, &mut scratch, &mut counters).unwrap();
        let whole = realize(&mut st, &path, &params.selection);
        st.check_invariants().unwrap();
        (st.total_overflow(), whole)
    }

    #[test]
    fn realization_drains_the_source() {
        let (overflow, _) = run_one_augmentation(true);
        assert_eq!(overflow, 0);
    }

    #[test]
    fn planar_only_realization_also_drains() {
        let (overflow, _) = run_one_augmentation(false);
        assert_eq!(overflow, 0);
    }

    #[test]
    fn whole_cell_moves_counted() {
        // Force a cross-row move: single-bin rows on the bottom die.
        let d = DesignBuilder::new("t")
            .technology(TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("W40", 40, 12)))
            .die(DieSpec::new("bottom", "T", (0, 0, 80, 24), 12, 1, 1.0))
            .die(DieSpec::new("top", "T", (0, 0, 80, 24), 12, 1, 1.0))
            .cell("u0", "W40")
            .cell("u1", "W40")
            .cell("u2", "W40")
            .build()
            .unwrap();
        let layout = RowLayout::build(&d);
        let grid = BinGrid::build(&d, &layout, &[80, 80], false);
        let seg = layout
            .segments()
            .iter()
            .find(|s| s.die == DieId::BOTTOM && s.row.index() == 0)
            .unwrap()
            .id;
        let b0 = grid.bins_in_segment(seg)[0];
        let mut st = FlowState::new(&d, &layout, &grid, vec![Point::ORIGIN; 3]);
        for i in 0..3 {
            st.insert_cell(CellId::new(i), b0, 0);
        }
        // 120 used / 80 cap; the single segment bin forces a row jump.
        let mut scratch = SearchScratch::new(grid.num_bins());
        let mut counters = SearchCounters::default();
        let params = SearchParams::default();
        let path = find_path(&st, b0, &params, None, &mut scratch, &mut counters).unwrap();
        let whole = realize(&mut st, &path, &params.selection);
        assert!(whole >= 1);
        assert_eq!(st.total_overflow(), 0);
        st.check_invariants().unwrap();
        // The mover now lives on row 1 of the bottom die.
        let moved = (0..3)
            .map(CellId::new)
            .filter(|&c| st.grid.bin(st.cell_frags(c)[0].0).row.index() == 1)
            .count();
        assert_eq!(moved, 1);
    }

    #[test]
    fn multi_edge_path_preserves_invariants() {
        // Chain: all of row 0 nearly full; overflow must hop 2+ bins.
        let d = fixture();
        let layout = RowLayout::build(&d);
        let grid = BinGrid::build(&d, &layout, &[100, 100], false);
        let seg = layout
            .segments()
            .iter()
            .find(|s| s.die == DieId::BOTTOM && s.row.index() == 0)
            .unwrap()
            .id;
        let bins = grid.bins_in_segment(seg);
        let mut st = FlowState::new(&d, &layout, &grid, vec![Point::ORIGIN; 10]);
        // bin0: 3 cells (120); bin1: 2 cells and 80+20 = full via overlap:
        // place 2 cells at 100 and 140 (fits 100..180), bin1 usage 80.
        st.insert_cell(CellId::new(0), bins[0], 0);
        st.insert_cell(CellId::new(1), bins[0], 0);
        st.insert_cell(CellId::new(2), bins[0], 0);
        st.insert_cell(CellId::new(3), bins[1], 100);
        st.insert_cell(CellId::new(4), bins[1], 140);
        st.insert_cell(CellId::new(5), bins[1], 120);
        // bin1 now has 120/100: two sources exist. Drain bin0 first.
        let mut scratch = SearchScratch::new(grid.num_bins());
        let mut counters = SearchCounters::default();
        let params = SearchParams::default();
        let path = find_path(&st, bins[0], &params, None, &mut scratch, &mut counters).unwrap();
        realize(&mut st, &path, &params.selection);
        st.check_invariants().unwrap();
        assert_eq!(st.sup(bins[0]), 0);
    }
}
