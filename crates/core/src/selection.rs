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

/// Caller-owned candidate buffer for a selection. Ranking reuses its
/// allocation, so a caller that keeps one buffer (each search scratch
/// keeps one, `augment::realize` one per path) selects without
/// allocating.
#[derive(Debug, Clone, Default)]
pub(crate) struct SelectionBuf {
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
pub(crate) struct Walk {
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
    let walk = select_into(state, u, v, kind, needed, params, &mut buf, &mut moves)?;
    Some(Selection {
        moves,
        removed_from_u: walk.removed,
        added_to_v: walk.added,
        cost: walk.cost,
    })
}

/// [`select_moves`] into caller-owned buffers: ranks into `buf` and
/// replaces the contents of `moves` with the chosen moves, so a caller
/// that keeps both (`augment::realize` does for a whole path) selects
/// without allocating. On `None`, `moves` holds the partial walk.
#[allow(clippy::too_many_arguments)]
pub(crate) fn select_into(
    state: &FlowState<'_>,
    u: BinId,
    v: BinId,
    kind: EdgeKind,
    needed: i64,
    params: &SelectionParams,
    buf: &mut SelectionBuf,
    moves: &mut Vec<Move>,
) -> Option<Walk> {
    moves.clear();
    rank(state, u, v, kind, params, &mut buf.ranked);
    walk(state, v, kind, needed, &buf.ranked, |m| moves.push(m))
}

/// Candidates a [`RankCache`] keeps at most (1.25 MiB of them), and
/// edges it keeps a span for at most (256 KiB of spans). A ranking that
/// no longer fits is made and walked without being kept.
const RANK_CACHE_CAPACITY: usize = 1 << 15;

/// A span no ranking has filled yet.
const UNRANKED: (u32, u32) = (u32::MAX, 0);

/// The edge rankings one search worker has made in one state version.
///
/// A ranking (the ordered candidate list of an edge `(u, v)`) depends
/// on the state and the [`SelectionParams`] only, not on the flow
/// `needed` across the edge. Every source search of a flow round reads
/// the same frozen state and expands many of the same edges, so the
/// first expansion of an edge ranks it here and every later expansion,
/// by any search, only walks its own `needed` over the kept ranking.
///
/// Validity is checked on every lookup, not left to the caller: the
/// rankings belong to one `(FlowState::version, parameters)` key, and a
/// lookup under another key drops them all (a generation bump, so it
/// costs O(1)). Every state mutator moves the version to a value no
/// state has had, so a stale ranking cannot be read. A lookup returns
/// the cost and added width of [`select_moves`] on the same edge and
/// flow, bit for bit (`prop_tests` below checks it).
#[derive(Debug, Default)]
pub(crate) struct RankCache {
    /// State version and parameter bits the kept rankings belong to.
    key: Option<(u64, [u64; 3])>,
    /// Generation of `key`; a bin entry of another generation is unset.
    generation: u32,
    /// Per bin: the generation in which its out-edges got spans, and the
    /// index of the first of those spans.
    bins: Vec<(u32, u32)>,
    /// Per out-edge of each bin with spans, in neighbour order: where
    /// the edge's ranking sits in `arena`, or [`UNRANKED`].
    spans: Vec<(u32, u32)>,
    /// Rankings back to back.
    arena: Vec<Candidate>,
}

impl RankCache {
    /// The `(cost, added_to_v)` of [`select_moves`] on the edge from `u`
    /// to its `j`-th neighbour `v`, bit for bit, without building the
    /// move list: the search kernel reads only these two fields, and
    /// `augment::realize` recomputes the moves when a path is applied.
    /// Ranks the edge only if no earlier lookup under the same key did;
    /// `buf` takes a ranking the cache has no room for.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn summary(
        &mut self,
        state: &FlowState<'_>,
        u: BinId,
        j: usize,
        v: BinId,
        kind: EdgeKind,
        needed: i64,
        params: &SelectionParams,
        buf: &mut SelectionBuf,
    ) -> Option<(f64, i64)> {
        self.sync(state, params);
        let span = self.span(state, u, j);
        let ranked = match span.map(|i| self.spans[i]) {
            Some((start, len)) if start != UNRANKED.0 => {
                &self.arena[start as usize..][..len as usize]
            }
            _ => {
                rank(state, u, v, kind, params, &mut buf.ranked);
                let start = self.arena.len();
                let len = buf.ranked.len();
                if let Some(i) = span.filter(|_| start + len <= RANK_CACHE_CAPACITY) {
                    self.arena.extend_from_slice(&buf.ranked);
                    self.spans[i] = (start as u32, len as u32);
                }
                &buf.ranked
            }
        };
        walk(state, v, kind, needed, ranked, |_| {}).map(|w| (w.cost, w.added))
    }

    /// The index in `spans` of the edge from `u` to its `j`-th
    /// neighbour, giving `u`'s out-edges spans if they have none in this
    /// generation; `None` when the spans are at capacity.
    fn span(&mut self, state: &FlowState<'_>, u: BinId, j: usize) -> Option<usize> {
        let (generation, first) = self.bins[u.index()];
        if generation == self.generation {
            return Some(first as usize + j);
        }
        let first = self.spans.len();
        let degree = state.grid.neighbors(u).len();
        if first + degree > RANK_CACHE_CAPACITY {
            return None;
        }
        self.spans.resize(first + degree, UNRANKED);
        self.bins[u.index()] = (self.generation, first as u32);
        Some(first + j)
    }

    /// Drops every ranking unless they belong to `state`'s version and
    /// `params`, and sizes the bin entries to `state`'s grid.
    fn sync(&mut self, state: &FlowState<'_>, params: &SelectionParams) {
        let key = (
            state.version(),
            [
                u64::from(params.clamp_negative),
                u64::from(params.d2d_congestion_cost),
                params.d2d_penalty.to_bits(),
            ],
        );
        if self.key != Some(key) {
            self.key = Some(key);
            self.arena.clear();
            self.spans.clear();
            self.generation = self.generation.wrapping_add(1);
            if self.generation == 0 {
                self.bins.fill((0, 0));
                self.generation = 1;
            }
        }
        let bins = state.grid.num_bins();
        if self.bins.len() < bins {
            // All three buffers are allocated zeroed or empty at their
            // final size, so only the pages a pass writes become
            // resident.
            self.bins = vec![(0, 0); bins];
            self.spans.reserve_exact(RANK_CACHE_CAPACITY);
            self.arena.reserve_exact(RANK_CACHE_CAPACITY);
        }
    }
}

/// Walks `ranked` (the ranking of `(u, v)`) cheapest first until
/// `needed` is covered, handing each chosen move to `emit`.
///
/// * Across a horizontal edge each candidate contributes at most its
///   contiguity-bounded slice, and the last one only what is still
///   needed.
/// * Across vertical and D2D edges whole cells move. A D2D move that
///   would break the target die's utilization cap is skipped.
fn walk(
    state: &FlowState<'_>,
    v: BinId,
    kind: EdgeKind,
    needed: i64,
    ranked: &[Candidate],
    mut emit: impl FnMut(Move),
) -> Option<Walk> {
    debug_assert!(needed > 0, "selection needs positive outflow");
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
    for c in ranked {
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

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::assign;
    use crate::config::Flow3dConfig;
    use crate::driver::{bin_widths, search_params};
    use crate::grid::BinGrid;
    use flow3d_db::{DesignBuilder, DieSpec, LibCellSpec, Placement3d, RowLayout, TechnologySpec};
    use flow3d_geom::FPoint;
    use proptest::prelude::*;

    /// The search reads a selection only through [`RankCache::summary`];
    /// on every edge kind, with signed and clamped costs, it must agree
    /// bit for bit with the move-building [`select_moves`] that
    /// `augment::realize` applies. One cache and one buffer serve every
    /// call, so a kept ranking is walked for several flows, the key flips
    /// between the two cost models, and a longer earlier ranking can never
    /// leak into a shorter later one.
    #[test]
    fn selection_summary_matches_the_move_building_call() {
        // Comparisons per edge kind: horizontal, vertical, die-to-die.
        let mut compared = [0usize; 3];
        let mut cache = RankCache::default();
        let mut buf = SelectionBuf::default();
        // Up to 30 cells of widths 20–50 on two 400x40 dies, anchored in
        // a narrow y-band so the assignment crowds one or two rows past
        // their bins' capacity while the design stays feasible.
        let cell = (2i64..=5, -50.0f64..450.0, -5.0f64..15.0, 0.0f64..1.0);
        proptest!(ProptestConfig::with_cases(24), |(
            cells in proptest::collection::vec(cell, 14..30),
            bin_factor in 1.0f64..4.0,
        )| {
            let tech = |name: &str, width: i64, height: i64| {
                (1..=5).fold(TechnologySpec::new(name), |t, w| {
                    t.lib_cell(LibCellSpec::std_cell(format!("C{w}"), w * width, height))
                })
            };
            let mut b = DesignBuilder::new("selection-prop")
                .technology(tech("TA", 10, 10))
                .technology(tech("TB", 12, 8))
                .die(DieSpec::new("bottom", "TA", (0, 0, 400, 40), 10, 2, 0.95))
                .die(DieSpec::new("top", "TB", (0, 0, 400, 40), 8, 2, 0.95));
            let mut gp = Placement3d::new(cells.len());
            for (i, &(w, x, y, z)) in cells.iter().enumerate() {
                b = b.cell(format!("u{i}"), format!("C{w}"));
                gp.set_pos(CellId::new(i), FPoint::new(x, y));
                gp.set_die_affinity(CellId::new(i), z);
            }
            let design = b.build().unwrap();
            let layout = RowLayout::build(&design);
            let Ok(mut dies) = assign::partition_dies(&design, &gp) else { return; };
            // Bins a few cell widths wide: several per row, so horizontal
            // edges exist and cells straddle bin boundaries.
            let grid = BinGrid::build(&design, &layout, &bin_widths(&design, bin_factor), true);
            let Ok(state) = assign::build_state(&design, &layout, &grid, &gp, &mut dies)
            else { return; };
            let signed = search_params(&design, &Flow3dConfig::default()).selection;
            for clamp_negative in [false, true] {
                let params = SelectionParams { clamp_negative, ..signed };
                for u in (0..grid.num_bins()).map(BinId::new) {
                    let usage = state.usage(u);
                    if usage == 0 {
                        continue;
                    }
                    for (j, &(v, kind)) in grid.neighbors(u).iter().enumerate() {
                        for needed in [1, state.sup(u).max(1), usage / 2 + 1, usage, usage + 1] {
                            let full = select_moves(&state, u, v, kind, needed, &params);
                            if let Some(sel) = &full {
                                let moved: i64 = sel.moves.iter().map(|m| m.width_from_u).sum();
                                prop_assert_eq!(moved, sel.removed_from_u);
                            }
                            let full = full.map(|s| (s.cost.to_bits(), s.added_to_v));
                            let summary = cache
                                .summary(&state, u, j, v, kind, needed, &params, &mut buf)
                                .map(|(cost, added)| (cost.to_bits(), added));
                            prop_assert_eq!(
                                summary, full,
                                "{:?} edge {:?}->{:?}, needed {}, clamp {}",
                                kind, u, v, needed, clamp_negative
                            );
                            compared[match kind {
                                EdgeKind::Horizontal => 0,
                                EdgeKind::Vertical => 1,
                                EdgeKind::DieToDie => 2,
                            }] += 1;
                        }
                    }
                }
            }
        });
        assert!(
            compared.iter().all(|&n| n >= 100),
            "edge kinds too sparsely covered (horizontal, vertical, d2d): {compared:?}"
        );
    }
}
