//! Tetris legalization (Hill, US patent 6,370,673).
//!
//! The classical greedy legalizer: cells are processed in ascending x
//! order and each is committed to the nearest free location on its die —
//! never to be moved again. Free space is tracked as per-segment gap
//! lists; the candidate rows are scanned outward from the cell's anchor
//! row with a distance-based early exit. Greedy commitment is what makes
//! Tetris fast, and what makes cells processed late travel far.

use flow3d_core::assign;
use flow3d_core::{LegalizeError, LegalizeOutcome, LegalizeStats, Legalizer};
use flow3d_db::{CellId, Design, DieId, LegalPlacement, Placement3d, RowId, RowLayout};
use flow3d_geom::Point;
use flow3d_obs::{Obs, ObsExt};

/// The Tetris greedy legalizer.
#[derive(Debug, Clone, Default)]
pub struct TetrisLegalizer {
    _private: (),
}

/// Free gaps of one segment, sorted by x. All bounds stay site-aligned
/// because placed widths are site multiples on site-aligned positions.
#[derive(Debug, Clone)]
struct GapList {
    gaps: Vec<(i64, i64)>,
}

impl GapList {
    fn new(lo: i64, hi: i64) -> Self {
        Self {
            gaps: vec![(lo, hi)],
        }
    }

    /// Best placement of a `width`-wide cell near `x`: returns
    /// `(position, |position - x|)` over all gaps, scanning outward from
    /// `x` and stopping as soon as a fitting gap is found on each side.
    fn best_fit(&self, x: i64, width: i64, snap: impl Fn(i64) -> i64) -> Option<(i64, i64)> {
        let idx = self.gaps.partition_point(|&(_, hi)| hi <= x);
        let mut best: Option<(i64, i64)> = None;
        let mut consider = |gap: (i64, i64)| -> bool {
            let (lo, hi) = gap;
            if hi - lo < width {
                return false;
            }
            let pos = snap(x).clamp(lo, hi - width);
            let dist = (pos - x).abs();
            if best.is_none_or(|(_, d)| dist < d) {
                best = Some((pos, dist));
            }
            true
        };
        // Rightward (including the gap containing x).
        for &gap in &self.gaps[idx..] {
            if consider(gap) {
                break;
            }
        }
        // Leftward.
        for &gap in self.gaps[..idx].iter().rev() {
            if consider(gap) {
                break;
            }
        }
        best
    }

    /// Carves `[pos, pos + width)` out of its gap.
    fn occupy(&mut self, pos: i64, width: i64) {
        let idx = self
            .gaps
            .partition_point(|&(_, hi)| hi <= pos)
            .min(self.gaps.len().saturating_sub(1));
        let (lo, hi) = self.gaps[idx];
        debug_assert!(
            lo <= pos && pos + width <= hi,
            "occupy outside gap: [{pos}, {}) not in [{lo}, {hi})",
            pos + width
        );
        let left = (lo, pos);
        let right = (pos + width, hi);
        match (left.1 > left.0, right.1 > right.0) {
            (true, true) => {
                self.gaps[idx] = left;
                self.gaps.insert(idx + 1, right);
            }
            (true, false) => self.gaps[idx] = left,
            (false, true) => self.gaps[idx] = right,
            (false, false) => {
                self.gaps.remove(idx);
            }
        }
    }
}

/// The greedy packing loop: each cell, in ascending anchor-x order, is
/// committed to the nearest free location on its assigned die.
fn pack(
    design: &Design,
    layout: &RowLayout,
    dies: &[DieId],
    anchors: &[Point],
) -> Result<LegalPlacement, LegalizeError> {
    let mut gaps: Vec<GapList> = layout
        .segments()
        .iter()
        .map(|s| GapList::new(s.span.lo, s.span.hi))
        .collect();

    // Ascending anchor x (the classical Tetris order).
    let mut order: Vec<usize> = (0..design.num_cells()).collect();
    order.sort_by_key(|&i| (anchors[i].x, i));

    let mut placement = LegalPlacement::new(design.num_cells());
    for i in order {
        let cell = CellId::new(i);
        let die_id = dies[i];
        let die = design.die(die_id);
        let w = design.cell_width(cell, die_id);
        let a = anchors[i];
        let num_rows = die.num_rows();
        if num_rows == 0 {
            return Err(LegalizeError::NoPosition { cell });
        }
        let center = die
            .nearest_row(a.y)
            .map(|r| r.id.index() as i64)
            .unwrap_or(0);

        let mut best: Option<(i64, usize, i64)> = None; // (cost, seg idx, x)
        for step in 0..2 * num_rows as i64 {
            let offset = if step % 2 == 0 {
                step / 2
            } else {
                -(step / 2 + 1)
            };
            let row_idx = center + offset;
            if row_idx < 0 || row_idx >= num_rows as i64 {
                continue;
            }
            let row_y = die.rows[row_idx as usize].y;
            let dy = (row_y - a.y).abs();
            if let Some((best_cost, _, _)) = best {
                if dy >= best_cost {
                    if offset > 0 {
                        continue;
                    }
                    break;
                }
            }
            for &sid in layout.segments_in_row(die_id, RowId::new(row_idx as usize)) {
                if let Some((x, dx)) = gaps[sid.index()].best_fit(a.x, w, |x| die.snap_to_site(x)) {
                    let cost = dx + dy;
                    if best.is_none_or(|(c, _, _)| cost < c) {
                        best = Some((cost, sid.index(), x));
                    }
                }
            }
        }
        let Some((_, seg_idx, x)) = best else {
            return Err(LegalizeError::NoPosition { cell });
        };
        let seg = &layout.segments()[seg_idx];
        placement.place(cell, Point::new(x, seg.y), die_id);
        gaps[seg_idx].occupy(x, w);
    }
    Ok(placement)
}

/// The pipeline body, wrapped in the `"legalize"` phase by
/// [`TetrisLegalizer::legalize_observed`].
fn run(
    design: &Design,
    global: &Placement3d,
    mut obs: Obs<'_>,
) -> Result<LegalizeOutcome, LegalizeError> {
    obs.begin("partition");
    let layout = RowLayout::build(design);
    let dies = assign::partition_dies(design, global);
    obs.end("partition");
    let dies = dies?;
    let anchors = assign::anchors(design, global);

    obs.begin("pack");
    let packed = pack(design, &layout, &dies, &anchors);
    obs.end("pack");
    let placement = packed?;

    let stats = LegalizeStats {
        cross_die_moves: placement.cross_die_moves(global, design.num_dies()),
        ..Default::default()
    };
    Ok(LegalizeOutcome { placement, stats })
}

impl Legalizer for TetrisLegalizer {
    fn name(&self) -> &str {
        "tetris"
    }

    fn legalize_observed(
        &self,
        design: &Design,
        global: &Placement3d,
        mut obs: Obs<'_>,
    ) -> Result<LegalizeOutcome, LegalizeError> {
        if global.num_cells() != design.num_cells() {
            return Err(LegalizeError::PlacementMismatch {
                design_cells: design.num_cells(),
                placement_cells: global.num_cells(),
            });
        }
        obs.begin("legalize");
        let result = run(design, global, obs.reborrow());
        obs.end("legalize");
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow3d_db::{DesignBuilder, DieId, DieSpec, LibCellSpec, TechnologySpec};
    use flow3d_geom::FPoint;
    use flow3d_metrics::{check_legal, displacement_stats};

    fn design(n: usize, width: i64) -> Design {
        let mut b = DesignBuilder::new("t")
            .technology(TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("C", width, 10)))
            .die(DieSpec::new("bottom", "T", (0, 0, 400, 40), 10, 1, 1.0))
            .die(DieSpec::new("top", "T", (0, 0, 400, 40), 10, 1, 1.0));
        for i in 0..n {
            b = b.cell(format!("u{i}"), "C");
        }
        b.build().unwrap()
    }

    #[test]
    fn gap_list_occupy_splits_and_shrinks() {
        let mut g = GapList::new(0, 100);
        g.occupy(40, 20);
        assert_eq!(g.gaps, vec![(0, 40), (60, 100)]);
        g.occupy(0, 40);
        assert_eq!(g.gaps, vec![(60, 100)]);
        g.occupy(90, 10);
        assert_eq!(g.gaps, vec![(60, 90)]);
        g.occupy(60, 30);
        assert!(g.gaps.is_empty());
    }

    #[test]
    fn gap_list_best_fit_prefers_containing_gap() {
        let mut g = GapList::new(0, 200);
        g.occupy(50, 100); // gaps [0,50) and [150,200)
        let (pos, dist) = g.best_fit(100, 20, |x| x).unwrap();
        // 100 is occupied; nearest fits are 30 (left, dist 70) or 150
        // (right, dist 50).
        assert_eq!((pos, dist), (150, 50));
        assert!(g.best_fit(100, 60, |x| x).is_none());
    }

    #[test]
    fn non_overlapping_cells_stay_near_anchors() {
        let d = design(4, 20);
        let mut gp = Placement3d::new(4);
        for i in 0..4 {
            gp.set_pos(CellId::new(i), FPoint::new(i as f64 * 50.0, 10.0));
        }
        let outcome = TetrisLegalizer::default().legalize(&d, &gp).unwrap();
        assert!(check_legal(&d, &outcome.placement).is_legal());
        let s = displacement_stats(&d, &gp, &outcome.placement);
        assert_eq!(s.max_dbu, 0.0);
    }

    #[test]
    fn clumped_cells_spread_legally() {
        let d = design(10, 30);
        let mut gp = Placement3d::new(10);
        for i in 0..10 {
            gp.set_pos(CellId::new(i), FPoint::new(100.0, 10.0));
        }
        let outcome = TetrisLegalizer::default().legalize(&d, &gp).unwrap();
        let report = check_legal(&d, &outcome.placement);
        assert!(report.is_legal(), "{report}");
    }

    #[test]
    fn overfull_die_is_an_error_not_a_panic() {
        let mut b = DesignBuilder::new("t")
            .technology(TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("C", 100, 10)))
            .die(DieSpec::new("bottom", "T", (0, 0, 400, 40), 10, 1, 1.0))
            .die(DieSpec::new("top", "T", (0, 0, 400, 40), 10, 1, 1.0));
        for i in 0..40 {
            b = b.cell(format!("u{i}"), "C");
        }
        let d = b.build().unwrap();
        let gp = Placement3d::new(40); // all at origin, all bottom
        let err = TetrisLegalizer::default().legalize(&d, &gp).unwrap_err();
        assert!(matches!(
            err,
            LegalizeError::DieOverflow { .. } | LegalizeError::NoPosition { .. }
        ));
    }

    #[test]
    fn respects_fixed_die_assignment() {
        let d = design(6, 20);
        let mut gp = Placement3d::new(6);
        for i in 0..6 {
            gp.set_pos(CellId::new(i), FPoint::new(i as f64 * 30.0, 0.0));
            gp.set_die_affinity(CellId::new(i), if i % 2 == 0 { 0.0 } else { 1.0 });
        }
        let outcome = TetrisLegalizer::default().legalize(&d, &gp).unwrap();
        for i in 0..6 {
            let expect = if i % 2 == 0 {
                DieId::BOTTOM
            } else {
                DieId::TOP
            };
            assert_eq!(outcome.placement.die(CellId::new(i)), expect);
        }
        assert_eq!(outcome.stats.cross_die_moves, 0);
    }

    #[test]
    fn fills_fragmented_space_from_gaps() {
        // Single-row die: a cell arriving last must find the interior gap
        // left behind earlier instead of failing at the frontier.
        let d = {
            let mut b = DesignBuilder::new("t")
                .technology(TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("C", 80, 10)))
                .die(DieSpec::new("bottom", "T", (0, 0, 400, 10), 10, 1, 1.0))
                .die(DieSpec::new("top", "T", (0, 0, 400, 10), 10, 1, 1.0));
            for i in 0..5 {
                b = b.cell(format!("u{i}"), "C");
            }
            b.build().unwrap()
        };
        let mut gp = Placement3d::new(5);
        // Cells placed in x order at 0, 80, 240, 320 leave gap [160, 240).
        for (i, x) in [(0, 0.0), (1, 80.0), (2, 240.0), (3, 320.0)] {
            gp.set_pos(CellId::new(i), FPoint::new(x, 0.0));
        }
        // The fifth arrives last (largest x) and only fits in the gap.
        gp.set_pos(CellId::new(4), FPoint::new(330.0, 0.0));
        let outcome = TetrisLegalizer::default().legalize(&d, &gp).unwrap();
        assert!(check_legal(&d, &outcome.placement).is_legal());
        assert_eq!(outcome.placement.pos(CellId::new(4)), Point::new(160, 0));
    }
}
