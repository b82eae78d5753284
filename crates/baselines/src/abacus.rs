//! Abacus legalization (Spindler, Schlichtmann, Johannes — ISPD 2008).
//!
//! Like Tetris, cells are processed in ascending x order, but instead of a
//! frozen frontier each candidate row re-arranges its already-placed cells
//! with the quadratic-optimal `PlaceRow` clustering; the row where the new
//! cell lands cheapest wins. Already-placed cells may slide within their
//! row, but never change rows or dies — the weakness 3D-Flow exploits.

use flow3d_core::assign;
use flow3d_core::placerow::{place_row, RowItem};
use flow3d_core::{LegalizeError, LegalizeOutcome, LegalizeStats, Legalizer};
use flow3d_db::{CellId, Design, LegalPlacement, Placement3d, RowId, RowLayout, SegmentId};
use flow3d_geom::Point;
use flow3d_obs::{keys, Obs, ObsExt};

/// The Abacus legalizer.
#[derive(Debug, Clone, Default)]
pub struct AbacusLegalizer {
    _private: (),
}

/// An Abacus cluster over a contiguous run of items.
#[derive(Debug, Clone, Copy)]
struct Cluster {
    x: f64,
    e: f64,
    q: f64,
    w: i64,
    first: usize,
}

/// Per-segment incremental state: committed items plus their cluster
/// stack, kept in ascending desired order.
#[derive(Debug, Clone, Default)]
struct SegState {
    items: Vec<(usize, i64, i64)>, // (cell, desired, width)
    clusters: Vec<Cluster>,
    used: i64,
}

impl SegState {
    /// Simulates adding `(desired, width)`; returns the x the new cell
    /// would land at without mutating the stack.
    fn trial(&self, lo: i64, hi: i64, desired: i64, width: i64) -> f64 {
        let weight = width as f64;
        let clamp = |x: f64, w: i64| x.clamp(lo as f64, (hi - w) as f64);
        let mut c = Cluster {
            x: clamp(desired as f64, width),
            e: weight,
            q: weight * desired as f64,
            w: width,
            first: 0,
        };
        let mut idx = self.clusters.len();
        while idx > 0 {
            let prev = self.clusters[idx - 1];
            if prev.x + prev.w as f64 <= c.x {
                break;
            }
            let e = prev.e + c.e;
            let q = prev.q + c.q - c.e * prev.w as f64;
            let w = prev.w + c.w;
            c = Cluster {
                x: clamp(q / e, w),
                e,
                q,
                w,
                first: prev.first,
            };
            idx -= 1;
        }
        // The new cell is the last `width` of the merged cluster.
        c.x + (c.w - width) as f64
    }

    /// Commits the cell to this segment.
    fn commit(&mut self, lo: i64, hi: i64, cell: usize, desired: i64, width: i64) {
        // Keep desired monotone so the cluster stack stays valid.
        let desired = self
            .items
            .last()
            .map(|&(_, d, _)| desired.max(d))
            .unwrap_or(desired);
        let weight = width as f64;
        let clamp = |x: f64, w: i64| x.clamp(lo as f64, (hi - w) as f64);
        let first = self.items.len();
        self.items.push((cell, desired, width));
        self.used += width;
        let mut c = Cluster {
            x: clamp(desired as f64, width),
            e: weight,
            q: weight * desired as f64,
            w: width,
            first,
        };
        while let Some(&prev) = self.clusters.last() {
            if prev.x + prev.w as f64 <= c.x {
                break;
            }
            self.clusters.pop();
            let e = prev.e + c.e;
            let q = prev.q + c.q - c.e * prev.w as f64;
            let w = prev.w + c.w;
            c = Cluster {
                x: clamp(q / e, w),
                e,
                q,
                w,
                first: prev.first,
            };
        }
        self.clusters.push(c);
    }
}

/// The incremental insertion loop: each cell, in ascending anchor-x
/// order, is trial-placed in candidate rows and committed where the
/// clustered position is cheapest.
fn insert_all(
    design: &Design,
    layout: &RowLayout,
    dies: &[flow3d_db::DieId],
    anchors: &[Point],
) -> Result<Vec<SegState>, LegalizeError> {
    let mut segs: Vec<SegState> = vec![SegState::default(); layout.num_segments()];

    let mut order: Vec<usize> = (0..design.num_cells()).collect();
    order.sort_by_key(|&i| (anchors[i].x, i));

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

        let mut best: Option<(f64, SegmentId, i64)> = None; // (cost, seg, desired)
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
            let dy = (row_y - a.y).abs() as f64;
            if let Some((best_cost, _, _)) = best {
                if dy >= best_cost {
                    if offset > 0 {
                        continue;
                    }
                    break;
                }
            }
            for &sid in layout.segments_in_row(die_id, RowId::new(row_idx as usize)) {
                let seg = layout.segment(sid);
                let st = &segs[sid.index()];
                if st.used + w > seg.width() {
                    continue;
                }
                let desired = a.x.clamp(seg.span.lo, seg.span.hi - w);
                let x_trial = st.trial(seg.span.lo, seg.span.hi, desired, w);
                let cost = (x_trial - a.x as f64).abs() + dy;
                if best.is_none_or(|(c, _, _)| cost < c) {
                    best = Some((cost, sid, desired));
                }
            }
        }
        let Some((_, sid, desired)) = best else {
            return Err(LegalizeError::NoPosition { cell });
        };
        let seg = layout.segment(sid);
        segs[sid.index()].commit(seg.span.lo, seg.span.hi, i, desired, w);
    }
    Ok(segs)
}

/// Final site-aligned emission per segment. Bumps
/// [`keys::PLACEROW_CALLS`] once per non-empty segment when `obs` is
/// `Some`.
fn emit(
    design: &Design,
    layout: &RowLayout,
    segs: &[SegState],
    mut obs: Obs<'_>,
) -> Result<LegalPlacement, LegalizeError> {
    let mut placement = LegalPlacement::new(design.num_cells());
    for seg in layout.segments() {
        let st = &segs[seg.id.index()];
        if st.items.is_empty() {
            continue;
        }
        obs.bump(keys::PLACEROW_CALLS, 1);
        let items: Vec<RowItem> = st
            .items
            .iter()
            .map(|&(cell, desired, width)| RowItem {
                key: cell,
                desired,
                width,
                weight: width as f64,
            })
            .collect();
        let die = design.die(seg.die);
        let placed = place_row(&items, seg.span, die.outline.xlo, die.site_width).map_err(|e| {
            LegalizeError::SegmentOverflow {
                die: seg.die,
                excess: e.total_width - e.segment_width,
            }
        })?;
        for (key, x) in placed {
            placement.place(CellId::new(key), Point::new(x, seg.y), seg.die);
        }
    }
    Ok(placement)
}

/// The pipeline body, wrapped in the `"legalize"` phase by
/// [`AbacusLegalizer::legalize_observed`].
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

    obs.begin("insert");
    let inserted = insert_all(design, &layout, &dies, &anchors);
    obs.end("insert");
    let segs = inserted?;

    obs.begin("placerow");
    let emitted = emit(design, &layout, &segs, obs.reborrow());
    obs.end("placerow");
    let placement = emitted?;

    let stats = LegalizeStats {
        cross_die_moves: placement.cross_die_moves(global, design.num_dies()),
        ..Default::default()
    };
    Ok(LegalizeOutcome { placement, stats })
}

impl Legalizer for AbacusLegalizer {
    fn name(&self) -> &str {
        "abacus"
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
    use flow3d_baselines_test_util::*;
    use flow3d_metrics::{check_legal, displacement_stats};

    /// Shared fixtures for the baseline tests.
    mod flow3d_baselines_test_util {
        use flow3d_db::{Design, DesignBuilder, DieSpec, LibCellSpec, Placement3d, TechnologySpec};
        use flow3d_geom::FPoint;

        pub fn design(n: usize, width: i64) -> Design {
            let mut b = DesignBuilder::new("t")
                .technology(
                    TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("C", width, 10)),
                )
                .die(DieSpec::new("bottom", "T", (0, 0, 400, 40), 10, 1, 1.0))
                .die(DieSpec::new("top", "T", (0, 0, 400, 40), 10, 1, 1.0));
            for i in 0..n {
                b = b.cell(format!("u{i}"), "C");
            }
            b.build().unwrap()
        }

        pub fn clump(n: usize, x: f64, y: f64) -> Placement3d {
            let mut gp = Placement3d::new(n);
            for i in 0..n {
                gp.set_pos(flow3d_db::CellId::new(i), FPoint::new(x, y));
            }
            gp
        }
    }

    #[test]
    fn spread_cells_stay_put() {
        let d = design(4, 20);
        let mut gp = Placement3d::new(4);
        for i in 0..4 {
            gp.set_pos(
                CellId::new(i),
                flow3d_geom::FPoint::new(i as f64 * 60.0, 10.0),
            );
        }
        let outcome = AbacusLegalizer::default().legalize(&d, &gp).unwrap();
        assert!(check_legal(&d, &outcome.placement).is_legal());
        assert_eq!(displacement_stats(&d, &gp, &outcome.placement).max_dbu, 0.0);
    }

    #[test]
    fn clump_is_legalized_with_less_displacement_than_tetris() {
        let d = design(14, 30);
        let gp = clump(14, 150.0, 10.0);
        let abacus = AbacusLegalizer::default().legalize(&d, &gp).unwrap();
        let tetris = crate::TetrisLegalizer::default().legalize(&d, &gp).unwrap();
        assert!(check_legal(&d, &abacus.placement).is_legal());
        let sa = displacement_stats(&d, &gp, &abacus.placement);
        let st = displacement_stats(&d, &gp, &tetris.placement);
        // On a perfectly symmetric clump the two greedies are close;
        // Abacus must stay in the same ballpark (its quality advantage
        // shows on asymmetric inputs, measured in the experiments).
        assert!(
            sa.avg_dbu <= st.avg_dbu * 1.15,
            "abacus {} vs tetris {}",
            sa.avg_dbu,
            st.avg_dbu
        );
    }

    #[test]
    fn trial_matches_commit_position() {
        let mut st = SegState::default();
        st.commit(0, 400, 0, 100, 30);
        st.commit(0, 400, 1, 110, 30);
        // The two committed cells clustered around 105; a third at 115
        // lands where the trial predicted.
        let predicted = st.trial(0, 400, 115, 30);
        st.commit(0, 400, 2, 115, 30);
        let c = st.clusters.last().unwrap();
        let actual = c.x + (c.w - 30) as f64;
        assert!((predicted - actual).abs() < 1e-9);
    }

    #[test]
    fn segment_capacity_respected() {
        let mut st = SegState::default();
        st.commit(0, 100, 0, 0, 60);
        assert_eq!(st.used, 60);
        // Caller checks capacity before commit; used tracks it.
        assert!(st.used + 60 > 100);
    }
}
