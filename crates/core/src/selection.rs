//! Selection of the cell set C(u, v) moved across one grid edge
//! (paper Algorithm 1 line 10 and §III-C).
//!
//! * Across a **horizontal** edge (adjacent bins of one segment) cells may
//!   move *fractionally*: the cheapest fragments per unit width are chosen
//!   so the moved width exactly matches the required out-flow. A cell's
//!   fragments must remain contiguous bins, which bounds how much of a
//!   fragment may leave when the cell also extends to the opposite side.
//! * Across **vertical** and **die-to-die** edges cells move *whole*: all
//!   fragments leave their bins and the full cell (with the target die's
//!   width under heterogeneous technologies) lands in the target bin. The
//!   cheapest cells per unit width are chosen until the required out-flow
//!   is covered. D2D moves respect the target die's utilization cap and
//!   optionally pay the Eq. (7) congestion term.

use crate::grid::{BinId, EdgeKind};
use crate::state::FlowState;
use flow3d_db::CellId;

/// Parameters shared by search and realization so both compute identical
/// selections.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionParams {
    /// Clamp per-cell move costs to `≥ 0` (BonnPlaceLegal's restriction;
    /// 3D-Flow keeps negative costs).
    pub clamp_negative: bool,
    /// Add the Eq. (7) congestion term to each D2D move. Deviation from
    /// the literal formula (documented in `DESIGN.md`): the term is
    /// clamped at zero — `max(0, sup(v) − dem(v))` — because the raw
    /// value rewards *every* move into an under-full bin by its whole
    /// free width, flooding the dies with crossings.
    pub d2d_congestion_cost: bool,
    /// Fixed cost of crossing dies, making a vertical hop comparable to a
    /// row hop (typically the larger row height).
    pub d2d_penalty: f64,
}

impl Default for SelectionParams {
    fn default() -> Self {
        Self {
            clamp_negative: false,
            d2d_congestion_cost: true,
            d2d_penalty: 0.0,
        }
    }
}

/// One selected move.
#[derive(Debug, Clone, Copy, PartialEq)]
// flow3d-tidy: allow(dead-pub) — facade API (flow3d::core) for embedders that drive the legalizer below the Legalizer trait
pub struct Move {
    /// The cell to move.
    pub cell: CellId,
    /// Width leaving `u` (a fragment slice for fractional moves, the
    /// cell's fragment width in `u` for whole moves).
    pub width_from_u: i64,
    /// `true` if the whole cell relocates into `v` (vertical/D2D edges).
    pub whole: bool,
}

/// The selected set C(u, v) with its flow accounting.
#[derive(Debug, Clone, PartialEq)]
// flow3d-tidy: allow(dead-pub) — facade API (flow3d::core) for embedders that drive the legalizer below the Legalizer trait
pub struct Selection {
    /// Moves in application order.
    pub moves: Vec<Move>,
    /// Total width leaving `u`, in `u`'s units (`≥ needed`).
    pub removed_from_u: i64,
    /// Total width arriving in `v`, in `v`'s units (the search's
    /// `flow(v)`).
    pub added_to_v: i64,
    /// Displacement cost of the selection (Eq. 5, fraction-scaled).
    pub cost: f64,
}

/// Caller-owned candidate buffer for [`select_summary`]. Ranking
/// reuses its allocation, so a caller that keeps one buffer (the search
/// kernel keeps one per worker scratch) selects without allocating.
#[derive(Debug, Clone, Default)]
pub struct SelectionBuf {
    ranked: Vec<Candidate>,
}

/// One fragment of `u` that could cross the edge, with its ranking key.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    /// Cost per unit of moved width; candidates are walked cheapest
    /// first (cell id breaking ties).
    unit: f64,
    /// Cost of moving the whole cell (whole-cell edges only; a
    /// fractional move costs `unit · take`).
    cost: f64,
    cell: CellId,
    /// Width that may leave `u`: the contiguity-bounded slice for a
    /// fractional move, the whole fragment for a whole move.
    from_u: i64,
    /// Width the cell occupies in `v` after a whole move (its width on
    /// `v`'s die).
    into_v: i64,
}

/// Flow accounting of one selection walk.
struct Walk {
    removed: i64,
    added: i64,
    cost: f64,
}

/// Selects the cheapest cell set moving at least `needed` DBU out of `u`
/// across the `(u, v)` edge of the given kind. Returns `None` when the
/// bin cannot supply `needed` width (the edge is unusable for this flow).
pub fn select_moves(
    state: &FlowState<'_>,
    u: BinId,
    v: BinId,
    kind: EdgeKind,
    needed: i64,
    params: &SelectionParams,
) -> Option<Selection> {
    let mut moves = Vec::new();
    let mut buf = SelectionBuf::default();
    let walk = select_with(state, u, v, kind, needed, params, &mut buf, |m| {
        moves.push(m)
    })?;
    Some(Selection {
        moves,
        removed_from_u: walk.removed,
        added_to_v: walk.added,
        cost: walk.cost,
    })
}

/// The `(cost, added_to_v)` of [`select_moves`] on the same arguments,
/// bit for bit, without building the move list: the search kernel reads
/// only these two fields, and `augment::realize` recomputes the moves
/// when a path is applied. Ranks into the caller's `buf`.
pub fn select_summary(
    state: &FlowState<'_>,
    u: BinId,
    v: BinId,
    kind: EdgeKind,
    needed: i64,
    params: &SelectionParams,
    buf: &mut SelectionBuf,
) -> Option<(f64, i64)> {
    select_with(state, u, v, kind, needed, params, buf, |_| {}).map(|w| (w.cost, w.added))
}

/// The one selection: rank every candidate fragment of `u` into `buf`,
/// then walk them cheapest first until `needed` is covered, handing each
/// chosen move to `emit`.
///
/// * Across a horizontal edge each candidate contributes at most its
///   contiguity-bounded slice, and the last one only what is still
///   needed.
/// * Across vertical and D2D edges whole cells move. A D2D move that
///   would break the target die's utilization cap is skipped.
#[allow(clippy::too_many_arguments)]
fn select_with(
    state: &FlowState<'_>,
    u: BinId,
    v: BinId,
    kind: EdgeKind,
    needed: i64,
    params: &SelectionParams,
    buf: &mut SelectionBuf,
    mut emit: impl FnMut(Move),
) -> Option<Walk> {
    debug_assert!(needed > 0, "selection needs positive outflow");
    rank(state, u, v, kind, params, &mut buf.ranked);
    let whole = kind != EdgeKind::Horizontal;
    let cross_die = kind == EdgeKind::DieToDie;
    let die_v = state.grid.bin(v).die;
    let (mut headroom, h_v) = if cross_die {
        (state.area_headroom(die_v), state.design.cell_height(die_v))
    } else {
        (i64::MAX, 0)
    };
    let mut walk = Walk {
        removed: 0,
        added: 0,
        cost: 0.0,
    };
    for c in &buf.ranked {
        if walk.removed >= needed {
            break;
        }
        if !whole {
            let take = c.from_u.min(needed - walk.removed);
            emit(Move {
                cell: c.cell,
                width_from_u: take,
                whole: false,
            });
            walk.removed += take;
            walk.added += take;
            walk.cost += c.unit * take as f64;
            continue;
        }
        if cross_die {
            let need_area = c.into_v * h_v;
            if need_area > headroom {
                continue; // utilization cap on the target die (§III-F)
            }
            headroom -= need_area;
        }
        emit(Move {
            cell: c.cell,
            width_from_u: c.from_u,
            whole: true,
        });
        walk.removed += c.from_u;
        walk.added += c.into_v;
        walk.cost += c.cost;
    }
    (walk.removed >= needed).then_some(walk)
}

/// Fills `ranked` with the fragments of `u` that can cross to `v`,
/// cheapest per unit of width first.
fn rank(
    state: &FlowState<'_>,
    u: BinId,
    v: BinId,
    kind: EdgeKind,
    params: &SelectionParams,
    ranked: &mut Vec<Candidate>,
) {
    ranked.clear();
    let bin_u = state.grid.bin(u);
    let bin_v = state.grid.bin(v);
    if kind == EdgeKind::Horizontal {
        for f in state.frags_in(u) {
            let movable = max_fractional(state, f.cell, u, v);
            if movable <= 0 {
                continue;
            }
            let w_c = state.design.cell_width(f.cell, bin_u.die) as f64;
            let delta = (state.disp_to(f.cell, bin_v) - state.disp_to(f.cell, bin_u)) as f64;
            let mut unit = delta / w_c;
            if params.clamp_negative {
                unit = unit.max(0.0);
            }
            ranked.push(Candidate {
                unit,
                cost: 0.0,
                cell: f.cell,
                from_u: movable,
                into_v: movable,
            });
        }
    } else {
        let seg_width = state.layout.segment(bin_v.segment).width();
        let congestion = if kind == EdgeKind::DieToDie {
            let eq7 = if params.d2d_congestion_cost {
                ((state.sup(v) - state.dem(v)) as f64).max(0.0)
            } else {
                0.0
            };
            eq7 + params.d2d_penalty
        } else {
            0.0
        };
        for f in state.frags_in(u) {
            let w_v = state.design.cell_width(f.cell, bin_v.die);
            if w_v > seg_width {
                continue; // does not fit in the target segment at all
            }
            let mut cost =
                state.disp_to(f.cell, bin_v) as f64 - state.disp_current(f.cell) + congestion;
            if params.clamp_negative {
                cost = cost.max(0.0);
            }
            ranked.push(Candidate {
                unit: cost / w_v as f64,
                cost,
                cell: f.cell,
                from_u: f.width,
                into_v: w_v,
            });
        }
    }
    // A cell has at most one fragment per bin, so the keys are distinct
    // and the unstable sort orders exactly like a stable one, without
    // the stable sort's scratch allocation.
    ranked.sort_unstable_by(|a, b| a.unit.total_cmp(&b.unit).then(a.cell.cmp(&b.cell)));
}

/// Maximum width of `cell`'s fragment in `u` movable toward `v` without
/// breaking fragment contiguity.
fn max_fractional(state: &FlowState<'_>, cell: CellId, u: BinId, v: BinId) -> i64 {
    let frags = state.cell_frags(cell);
    let fw = frags
        .iter()
        .find(|&&(b, _)| b == u)
        .map(|&(_, w)| w)
        .unwrap_or(0);
    if fw == 0 {
        return 0;
    }
    // Fully draining `u` keeps the fragments contiguous only when `u` is
    // the cell's sole bin or the cell already extends into `v`; in every
    // other case removing `u` leaves a hole between the remaining
    // fragments and `v`, so one DBU stays behind to keep the range
    // connected.
    let full_ok = frags.len() == 1 || frags.iter().any(|&(b, _)| b == v);
    if full_ok {
        fw
    } else {
        fw - 1
    }
}

/// Test-only access to internals for property tests.
#[doc(hidden)]
pub mod test_support {
    use super::*;

    /// Exposes `max_fractional` for the state-invariant property tests.
    pub fn max_fractional_for_tests(
        state: &FlowState<'_>,
        cell: CellId,
        u: BinId,
        v: BinId,
    ) -> i64 {
        max_fractional(state, cell, u, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::BinGrid;
    use flow3d_db::{
        Design, DesignBuilder, DieId, DieSpec, LibCellSpec, RowLayout, TechnologySpec,
    };
    use flow3d_geom::Point;

    fn fixture() -> Design {
        DesignBuilder::new("t")
            .technology(
                TechnologySpec::new("TA")
                    .lib_cell(LibCellSpec::std_cell("W40", 40, 12))
                    .lib_cell(LibCellSpec::std_cell("W60", 60, 12)),
            )
            .technology(
                TechnologySpec::new("TB")
                    .lib_cell(LibCellSpec::std_cell("W40", 30, 16))
                    .lib_cell(LibCellSpec::std_cell("W60", 45, 16)),
            )
            .die(DieSpec::new("bottom", "TA", (0, 0, 400, 48), 12, 1, 1.0))
            .die(DieSpec::new("top", "TB", (0, 0, 400, 48), 16, 1, 1.0))
            .cell("u0", "W40")
            .cell("u1", "W60")
            .cell("u2", "W40")
            .build()
            .unwrap()
    }

    fn setup(design: &Design) -> (RowLayout, BinGrid) {
        let layout = RowLayout::build(design);
        let grid = BinGrid::build(design, &layout, &[100, 100], true);
        (layout, grid)
    }

    fn first_seg(layout: &RowLayout, die: DieId) -> flow3d_db::SegmentId {
        layout
            .segments()
            .iter()
            .find(|s| s.die == die && s.row.index() == 0)
            .unwrap()
            .id
    }

    #[test]
    fn fractional_selection_moves_exactly_needed() {
        let d = fixture();
        let (layout, grid) = setup(&d);
        let bins = grid.bins_in_segment(first_seg(&layout, DieId::BOTTOM));
        let mut st = FlowState::new(&d, &layout, &grid, vec![Point::ORIGIN; 3]);
        st.insert_cell(CellId::new(0), bins[0], 0);
        st.insert_cell(CellId::new(1), bins[0], 0);
        st.insert_cell(CellId::new(2), bins[0], 10);
        // usage 140, cap 100 -> sup 40.
        let sel = select_moves(
            &st,
            bins[0],
            bins[1],
            EdgeKind::Horizontal,
            40,
            &SelectionParams::default(),
        )
        .unwrap();
        assert_eq!(sel.removed_from_u, 40);
        assert_eq!(sel.added_to_v, 40);
        assert!(sel.cost > 0.0);
        assert!(sel.moves.iter().all(|m| !m.whole));
    }

    #[test]
    fn fractional_selection_fails_when_bin_cannot_supply() {
        let d = fixture();
        let (layout, grid) = setup(&d);
        let bins = grid.bins_in_segment(first_seg(&layout, DieId::BOTTOM));
        let mut st = FlowState::new(&d, &layout, &grid, vec![Point::ORIGIN; 3]);
        st.insert_cell(CellId::new(0), bins[0], 0); // width 40
        assert!(select_moves(
            &st,
            bins[0],
            bins[1],
            EdgeKind::Horizontal,
            100,
            &SelectionParams::default(),
        )
        .is_none());
    }

    #[test]
    fn fractional_prefers_cells_with_negative_cost() {
        let d = fixture();
        let (layout, grid) = setup(&d);
        let bins = grid.bins_in_segment(first_seg(&layout, DieId::BOTTOM));
        // u0 anchored far right (moving right is negative cost), u2 at 0.
        let anchors = vec![Point::new(300, 0), Point::ORIGIN, Point::new(0, 0)];
        let mut st = FlowState::new(&d, &layout, &grid, anchors);
        st.insert_cell(CellId::new(0), bins[0], 0);
        st.insert_cell(CellId::new(2), bins[0], 0);
        let sel = select_moves(
            &st,
            bins[0],
            bins[1],
            EdgeKind::Horizontal,
            20,
            &SelectionParams::default(),
        )
        .unwrap();
        assert_eq!(sel.moves[0].cell, CellId::new(0));
        assert!(sel.cost < 0.0, "cost {}", sel.cost);

        // With clamping (Bonn mode) the same move costs zero, not negative.
        let sel = select_moves(
            &st,
            bins[0],
            bins[1],
            EdgeKind::Horizontal,
            20,
            &SelectionParams {
                clamp_negative: true,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(sel.cost >= 0.0);
    }

    #[test]
    fn contiguity_limits_moves_away_from_straddle() {
        let d = fixture();
        let (layout, grid) = setup(&d);
        let bins = grid.bins_in_segment(first_seg(&layout, DieId::BOTTOM));
        assert!(bins.len() >= 3);
        let mut st = FlowState::new(&d, &layout, &grid, vec![Point::ORIGIN; 3]);
        // u1 (width 60) straddles bins[0]/bins[1]: [70, 130).
        st.insert_cell(CellId::new(1), bins[0], 70);
        assert_eq!(st.cell_frags(CellId::new(1)).len(), 2);
        // Moving from the middle bin toward bins[2] may not fully drain
        // the bins[1] fragment (the bins[0] fragment would detach) — one
        // DBU stays behind.
        let frag_in_b1 = st
            .cell_frags(CellId::new(1))
            .iter()
            .find(|&&(b, _)| b == bins[1])
            .unwrap()
            .1;
        assert_eq!(
            max_fractional(&st, CellId::new(1), bins[1], bins[2]),
            frag_in_b1 - 1
        );
        // Toward bins[0] (the cell already ends there) the whole fragment
        // may move.
        assert_eq!(
            max_fractional(&st, CellId::new(1), bins[1], bins[0]),
            frag_in_b1
        );
    }

    #[test]
    fn whole_selection_converts_width_across_dies() {
        let d = fixture();
        let (layout, grid) = setup(&d);
        let u = grid.bins_in_segment(first_seg(&layout, DieId::BOTTOM))[0];
        let v = grid.bins_in_segment(first_seg(&layout, DieId::TOP))[0];
        let mut st = FlowState::new(&d, &layout, &grid, vec![Point::ORIGIN; 3]);
        st.insert_cell(CellId::new(0), u, 0); // 40 on bottom, 30 on top
        st.insert_cell(CellId::new(1), u, 0); // 60 on bottom, 45 on top
        let sel = select_moves(
            &st,
            u,
            v,
            EdgeKind::DieToDie,
            90,
            &SelectionParams {
                d2d_congestion_cost: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(sel.removed_from_u, 100); // both cells, bottom widths
        assert_eq!(sel.added_to_v, 75); // top widths 30 + 45
        assert!(sel.moves.iter().all(|m| m.whole));
    }

    #[test]
    fn d2d_congestion_term_penalizes_congested_target_only() {
        let d = fixture();
        let (layout, grid) = setup(&d);
        let u = grid.bins_in_segment(first_seg(&layout, DieId::BOTTOM))[0];
        let v = grid.bins_in_segment(first_seg(&layout, DieId::TOP))[0];
        let mut st = FlowState::new(&d, &layout, &grid, vec![Point::ORIGIN; 3]);
        st.insert_cell(CellId::new(0), u, 0);
        // Empty target: the clamped Eq. 7 term adds nothing.
        let base = select_moves(
            &st,
            u,
            v,
            EdgeKind::DieToDie,
            10,
            &SelectionParams {
                d2d_congestion_cost: false,
                ..Default::default()
            },
        )
        .unwrap();
        let with_term = select_moves(
            &st,
            u,
            v,
            EdgeKind::DieToDie,
            10,
            &SelectionParams::default(),
        )
        .unwrap();
        assert!((with_term.cost - base.cost).abs() < 1e-9);
        // Congested target: the term penalizes.
        st.insert_cell(CellId::new(1), v, 0);
        st.insert_cell(CellId::new(2), v, 0);
        let on_full = select_moves(
            &st,
            u,
            v,
            EdgeKind::DieToDie,
            10,
            &SelectionParams::default(),
        );
        if let Some(on_full) = on_full {
            assert!(on_full.cost >= with_term.cost);
        }
        // The fixed crossing penalty raises the cost.
        let with_penalty = select_moves(
            &st,
            u,
            v,
            EdgeKind::DieToDie,
            10,
            &SelectionParams {
                d2d_penalty: 16.0,
                d2d_congestion_cost: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(with_penalty.cost > base.cost);
    }

    #[test]
    fn whole_selection_respects_area_headroom() {
        // Tiny top-die utilization: nothing may move there.
        let d = DesignBuilder::new("t")
            .technology(TechnologySpec::new("TA").lib_cell(LibCellSpec::std_cell("W40", 40, 12)))
            .technology(TechnologySpec::new("TB").lib_cell(LibCellSpec::std_cell("W40", 40, 12)))
            .die(DieSpec::new("bottom", "TA", (0, 0, 400, 12), 12, 1, 1.0))
            .die(DieSpec::new("top", "TB", (0, 0, 400, 12), 12, 1, 0.01))
            .cell("u0", "W40")
            .build()
            .unwrap();
        let (layout, grid) = setup(&d);
        let u = grid.bins_in_segment(first_seg(&layout, DieId::BOTTOM))[0];
        let v = grid.bins_in_segment(first_seg(&layout, DieId::TOP))[0];
        let mut st = FlowState::new(&d, &layout, &grid, vec![Point::ORIGIN; 1]);
        st.insert_cell(CellId::new(0), u, 0);
        assert!(select_moves(
            &st,
            u,
            v,
            EdgeKind::DieToDie,
            10,
            &SelectionParams::default(),
        )
        .is_none());
    }

    #[test]
    fn selection_is_deterministic() {
        let d = fixture();
        let (layout, grid) = setup(&d);
        let bins = grid.bins_in_segment(first_seg(&layout, DieId::BOTTOM));
        let mut st = FlowState::new(&d, &layout, &grid, vec![Point::ORIGIN; 3]);
        st.insert_cell(CellId::new(0), bins[0], 0);
        st.insert_cell(CellId::new(1), bins[0], 0);
        st.insert_cell(CellId::new(2), bins[0], 0);
        let p = SelectionParams::default();
        let a = select_moves(&st, bins[0], bins[1], EdgeKind::Horizontal, 40, &p);
        let b = select_moves(&st, bins[0], bins[1], EdgeKind::Horizontal, 40, &p);
        assert_eq!(a, b);
    }
}
