//! Macro-aware row layout: rows split into placeable segments.
//!
//! Macros are treated as blockages (paper §II-B): each placement row is
//! segregated into the maximal macro-free [`Segment`]s. All legalizers in
//! the workspace operate on this derived structure, and the 3D-Flow bin
//! grid divides each segment into uniform bins.

use crate::design::Design;
use crate::ids::{DieId, RowId, SegmentId};
use flow3d_geom::{Interval, Rect};

/// A maximal macro-free stretch of one placement row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Globally unique segment id within a [`RowLayout`].
    pub id: SegmentId,
    /// Die the segment lies on.
    pub die: DieId,
    /// Row within the die.
    pub row: RowId,
    /// y-coordinate of the row's bottom edge.
    pub y: i64,
    /// Horizontal extent, aligned inward to the die's site grid.
    pub span: Interval,
}

impl Segment {
    /// Segment width in DBU.
    #[inline]
    pub fn width(&self) -> i64 {
        self.span.len()
    }
}

/// The placeable structure of a design: every die's rows split into
/// macro-free segments, with nearest-row / nearest-segment queries.
///
/// # Examples
///
/// ```
/// use flow3d_db::{DesignBuilder, DieSpec, LibCellSpec, RowLayout, TechnologySpec, DieId};
///
/// # fn main() -> Result<(), flow3d_db::DbError> {
/// let design = DesignBuilder::new("demo")
///     .technology(TechnologySpec::new("T")
///         .lib_cell(LibCellSpec::std_cell("INV", 10, 12))
///         .lib_cell(LibCellSpec::macro_cell("RAM", 200, 24)))
///     .die(DieSpec::new("bottom", "T", (0, 0, 1000, 48), 12, 1, 1.0))
///     .macro_inst("ram0", "RAM", "bottom", 400, 0)
///     .build()?;
/// let layout = RowLayout::build(&design);
/// // Rows 0 and 1 are split by the macro into two segments each.
/// assert_eq!(layout.segments_in_row(DieId::BOTTOM, 0.into()).len(), 2);
/// // Rows 2 and 3 are unobstructed.
/// assert_eq!(layout.segments_in_row(DieId::BOTTOM, 2.into()).len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowLayout {
    segments: Vec<Segment>,
    /// `per_die_row[die][row]` — ids of the row's segments sorted by x.
    per_die_row: Vec<Vec<Vec<SegmentId>>>,
}

impl RowLayout {
    /// Computes the layout of `design`: subtracts every macro footprint
    /// from the rows of its die and aligns the resulting segment bounds
    /// inward to the site grid. Zero-width segments are dropped.
    pub fn build(design: &Design) -> Self {
        let mut segments = Vec::new();
        let mut per_die_row = Vec::with_capacity(design.num_dies());

        for (die_idx, die) in design.dies().iter().enumerate() {
            let die_id = DieId::new(die_idx);
            // Blocked x-intervals as (row index, interval). The rows are
            // sorted by y and share one height, so each macro visits only
            // the rows its y-span reaches.
            let mut blocked: Vec<(usize, Interval)> = Vec::new();
            for b in design.macro_rects_on(die_id) {
                let first = die
                    .rows
                    .partition_point(|row| row.y + die.row_height <= b.ylo);
                for (k, row) in die.rows.iter().enumerate().skip(first) {
                    if row.y >= b.yhi {
                        break;
                    }
                    let row_rect =
                        Rect::new(row.span.lo, row.y, row.span.hi, row.y + die.row_height);
                    if b.overlaps(&row_rect) {
                        let lo = b.xlo.max(row.span.lo);
                        blocked.push((k, Interval::new(lo, b.xhi.min(row.span.hi))));
                    }
                }
            }
            blocked.sort_unstable();
            let mut rows_vec = Vec::with_capacity(die.num_rows());
            let mut rest = &blocked[..];

            for (k, row) in die.rows.iter().enumerate() {
                let here = rest.partition_point(|&(r, _)| r == k);
                let (in_row, tail) = rest.split_at(here);
                rest = tail;

                let mut free = Vec::new();
                let mut cursor = row.span.lo;
                for (_, b) in in_row {
                    if b.lo > cursor {
                        free.push(Interval::new(cursor, b.lo));
                    }
                    cursor = cursor.max(b.hi);
                }
                if cursor < row.span.hi {
                    free.push(Interval::new(cursor, row.span.hi));
                }

                let mut ids = Vec::with_capacity(free.len());
                for f in free {
                    // Align inward to the site grid so every position in the
                    // segment is a legal site start.
                    let lo = flow3d_geom::snap_up(f.lo, die.outline.xlo, die.site_width);
                    let hi = flow3d_geom::snap_down(f.hi, die.outline.xlo, die.site_width);
                    if lo >= hi {
                        continue;
                    }
                    let id = SegmentId::new(segments.len());
                    segments.push(Segment {
                        id,
                        die: die_id,
                        row: row.id,
                        y: row.y,
                        span: Interval::new(lo, hi),
                    });
                    ids.push(id);
                }
                rows_vec.push(ids);
            }
            per_die_row.push(rows_vec);
        }

        Self {
            segments,
            per_die_row,
        }
    }

    /// All segments, indexed by [`SegmentId`].
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The segment with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn segment(&self, id: SegmentId) -> &Segment {
        &self.segments[id.index()]
    }

    /// Number of segments across all dies.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Ids of the segments of `row` on `die`, sorted by x.
    ///
    /// Returns an empty slice for out-of-range rows.
    pub fn segments_in_row(&self, die: DieId, row: RowId) -> &[SegmentId] {
        self.per_die_row
            .get(die.index())
            .and_then(|rows| rows.get(row.index()))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The segment of `row` on `die` containing `x`, if any.
    pub fn segment_containing(&self, die: DieId, row: RowId, x: i64) -> Option<&Segment> {
        self.segments_in_row(die, row)
            .iter()
            .map(|&id| self.segment(id))
            .find(|s| s.span.contains_point(x))
    }

    /// The segment of `row` on `die` nearest to `x` that is at least
    /// `min_width` wide, if any.
    pub fn nearest_segment_in_row(
        &self,
        die: DieId,
        row: RowId,
        x: i64,
        min_width: i64,
    ) -> Option<&Segment> {
        self.segments_in_row(die, row)
            .iter()
            .map(|&id| self.segment(id))
            .filter(|s| s.width() >= min_width)
            .min_by_key(|s| s.span.distance_to_point(x))
    }

    /// The legal position on `die` nearest to `(x, y)` that fits an object
    /// of width `width`: searches rows outward from the nearest row,
    /// stopping when the vertical distance alone exceeds the best found
    /// total Manhattan distance.
    ///
    /// Returns `(segment, snapped_x)` or `None` if no segment on the die is
    /// wide enough.
    pub fn nearest_position(
        &self,
        design: &Design,
        die: DieId,
        x: i64,
        y: i64,
        width: i64,
    ) -> Option<(&Segment, i64)> {
        let d = design.die(die);
        let num_rows = d.num_rows();
        if num_rows == 0 {
            return None;
        }
        let center = d.nearest_row(y)?.id.index() as i64;

        let mut best: Option<(&Segment, i64, i64)> = None; // (seg, x, dist)
                                                           // Candidate offsets 0, +1, -1, +2, -2, ... from the nearest row.
        for step in 0..(2 * num_rows as i64) {
            let offset = if step % 2 == 0 {
                step / 2
            } else {
                -(step / 2 + 1)
            };
            let row_idx = center + offset;
            if row_idx < 0 || row_idx >= num_rows as i64 {
                continue;
            }
            let row_y = d.rows[row_idx as usize].y;
            let dy = (row_y - y).abs();
            if let Some((_, _, best_dist)) = best {
                if dy > best_dist {
                    // Rows are visited in non-decreasing |offset|; once even
                    // the vertical distance of this ring exceeds the best
                    // total, only check the other side of the ring.
                    if offset > 0 {
                        continue;
                    } else {
                        break;
                    }
                }
            }
            if let Some(seg) =
                self.nearest_segment_in_row(die, RowId::new(row_idx as usize), x, width)
            {
                // flow3d-tidy: allow(panic-unwrap) — invariant: nearest_segment_in_row only returns segments that fit `width`
                let sx = seg.span.nearest_fit(x, width).expect("filtered by width");
                let sx = d.snap_to_site(sx).clamp(seg.span.lo, seg.span.hi - width);
                let dist = (sx - x).abs() + dy;
                if best.is_none_or(|(_, _, bd)| dist < bd) {
                    best = Some((seg, sx, dist));
                }
            }
        }
        best.map(|(seg, sx, _)| (seg, sx))
    }

    /// Total placeable width (sum of segment widths) on `die`.
    pub fn free_width(&self, die: DieId) -> i64 {
        self.segments
            .iter()
            .filter(|s| s.die == die)
            .map(Segment::width)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{DesignBuilder, DieSpec};
    use crate::tech::{LibCellSpec, TechnologySpec};

    fn design_with_macro() -> Design {
        DesignBuilder::new("t")
            .technology(
                TechnologySpec::new("T")
                    .lib_cell(LibCellSpec::std_cell("INV", 10, 12))
                    .lib_cell(LibCellSpec::macro_cell("RAM", 200, 24)),
            )
            .die(DieSpec::new("bottom", "T", (0, 0, 1000, 48), 12, 1, 1.0))
            .die(DieSpec::new("top", "T", (0, 0, 1000, 48), 12, 1, 1.0))
            .macro_inst("ram0", "RAM", "bottom", 400, 0)
            .build()
            .unwrap()
    }

    #[test]
    fn macro_splits_covered_rows_only() {
        let d = design_with_macro();
        let layout = RowLayout::build(&d);
        // Macro spans y 0..24, covering rows 0 and 1 of 4.
        assert_eq!(layout.segments_in_row(DieId::BOTTOM, 0.into()).len(), 2);
        assert_eq!(layout.segments_in_row(DieId::BOTTOM, 1.into()).len(), 2);
        assert_eq!(layout.segments_in_row(DieId::BOTTOM, 2.into()).len(), 1);
        assert_eq!(layout.segments_in_row(DieId::BOTTOM, 3.into()).len(), 1);
        // Top die is unobstructed.
        for r in 0..4 {
            assert_eq!(layout.segments_in_row(DieId::TOP, r.into()).len(), 1);
        }
        let seg = layout
            .segment_containing(DieId::BOTTOM, 0.into(), 0)
            .unwrap();
        assert_eq!(seg.span, Interval::new(0, 400));
        let seg = layout
            .segment_containing(DieId::BOTTOM, 0.into(), 700)
            .unwrap();
        assert_eq!(seg.span, Interval::new(600, 1000));
    }

    #[test]
    fn free_width_accounts_for_blockage() {
        let d = design_with_macro();
        let layout = RowLayout::build(&d);
        assert_eq!(layout.free_width(DieId::BOTTOM), 4 * 1000 - 2 * 200);
        assert_eq!(layout.free_width(DieId::TOP), 4 * 1000);
    }

    #[test]
    fn segment_containing_is_exclusive_of_blockage() {
        let d = design_with_macro();
        let layout = RowLayout::build(&d);
        assert!(layout
            .segment_containing(DieId::BOTTOM, 0.into(), 450)
            .is_none());
        assert!(layout
            .segment_containing(DieId::BOTTOM, 0.into(), 399)
            .is_some());
    }

    #[test]
    fn nearest_segment_in_row_respects_min_width() {
        let d = design_with_macro();
        let layout = RowLayout::build(&d);
        // Left segment is 400 wide, right one 400 wide; ask for something
        // wider than both.
        assert!(layout
            .nearest_segment_in_row(DieId::BOTTOM, 0.into(), 450, 500)
            .is_none());
        let seg = layout
            .nearest_segment_in_row(DieId::BOTTOM, 0.into(), 450, 100)
            .unwrap();
        assert_eq!(seg.span.lo, 0); // distance 50 to [0,400) vs 150 to [600,1000)
    }

    #[test]
    fn nearest_position_snaps_into_segment() {
        let d = design_with_macro();
        let layout = RowLayout::build(&d);
        // Desired position is inside the macro; nearest fit is at its edge.
        let (seg, x) = layout
            .nearest_position(&d, DieId::BOTTOM, 410, 0, 10)
            .unwrap();
        assert_eq!(seg.row.index(), 0);
        assert_eq!(x, 390); // right-aligned against the macro's left edge

        // Deeper inside the macro the unobstructed row 2 (vertical distance
        // 24) is closer in Manhattan terms than sliding 60 horizontally.
        let (seg, x) = layout
            .nearest_position(&d, DieId::BOTTOM, 450, 0, 10)
            .unwrap();
        assert_eq!(seg.row.index(), 2);
        assert_eq!(x, 450);
    }

    #[test]
    fn nearest_position_jumps_rows_for_wide_objects() {
        let d = design_with_macro();
        let layout = RowLayout::build(&d);
        // Width 500 fits only in the unobstructed rows 2 and 3.
        let (seg, _) = layout
            .nearest_position(&d, DieId::BOTTOM, 450, 0, 500)
            .unwrap();
        assert_eq!(seg.row.index(), 2);
    }

    #[test]
    fn nearest_position_none_when_nothing_fits() {
        let d = design_with_macro();
        let layout = RowLayout::build(&d);
        assert!(layout
            .nearest_position(&d, DieId::BOTTOM, 0, 0, 5000)
            .is_none());
    }

    #[test]
    fn segments_have_consistent_ids() {
        let d = design_with_macro();
        let layout = RowLayout::build(&d);
        for (i, s) in layout.segments().iter().enumerate() {
            assert_eq!(s.id.index(), i);
            assert_eq!(layout.segment(s.id), s);
        }
    }

    #[test]
    fn site_alignment_shrinks_segments_inward() {
        // Site width 7; macro edges at 400 and 600 are not multiples of 7.
        let d = DesignBuilder::new("t")
            .technology(
                TechnologySpec::new("T")
                    .lib_cell(LibCellSpec::std_cell("INV", 7, 12))
                    .lib_cell(LibCellSpec::macro_cell("RAM", 200, 12)),
            )
            .die(DieSpec::new("bottom", "T", (0, 0, 994, 12), 12, 7, 1.0))
            .macro_inst("ram0", "RAM", "bottom", 400, 0)
            .build()
            .unwrap();
        let layout = RowLayout::build(&d);
        let segs = layout.segments_in_row(DieId::BOTTOM, 0.into());
        assert_eq!(segs.len(), 2);
        let left = layout.segment(segs[0]);
        let right = layout.segment(segs[1]);
        assert_eq!(left.span.hi, 399); // snap_down(400, 0, 7)
        assert_eq!(right.span.lo, 602); // snap_up(600, 0, 7)
        assert_eq!(right.span.hi, 994);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::design::{DesignBuilder, DieSpec};
    use crate::tech::{LibCellSpec, TechnologySpec};
    use proptest::prelude::*;

    /// The rows × macros construction `RowLayout::build` replaced, kept
    /// as its reference.
    fn naive_build(design: &Design) -> RowLayout {
        let mut segments = Vec::new();
        let mut per_die_row = Vec::new();
        for (die_idx, die) in design.dies().iter().enumerate() {
            let die_id = DieId::new(die_idx);
            let blockages = design.macro_rects_on(die_id);
            let mut rows_vec = Vec::new();
            for row in &die.rows {
                let row_rect = Rect::new(row.span.lo, row.y, row.span.hi, row.y + die.row_height);
                let mut blocked: Vec<Interval> = blockages
                    .iter()
                    .filter(|b| b.overlaps(&row_rect))
                    .map(|b| Interval::new(b.xlo.max(row.span.lo), b.xhi.min(row.span.hi)))
                    .collect();
                blocked.sort();
                let mut free = Vec::new();
                let mut cursor = row.span.lo;
                for b in &blocked {
                    if b.lo > cursor {
                        free.push(Interval::new(cursor, b.lo));
                    }
                    cursor = cursor.max(b.hi);
                }
                if cursor < row.span.hi {
                    free.push(Interval::new(cursor, row.span.hi));
                }
                let mut ids = Vec::new();
                for f in free {
                    let lo = flow3d_geom::snap_up(f.lo, die.outline.xlo, die.site_width);
                    let hi = flow3d_geom::snap_down(f.hi, die.outline.xlo, die.site_width);
                    if lo >= hi {
                        continue;
                    }
                    let id = SegmentId::new(segments.len());
                    segments.push(Segment {
                        id,
                        die: die_id,
                        row: row.id,
                        y: row.y,
                        span: Interval::new(lo, hi),
                    });
                    ids.push(id);
                }
                rows_vec.push(ids);
            }
            per_die_row.push(rows_vec);
        }
        RowLayout {
            segments,
            per_die_row,
        }
    }

    proptest! {
        /// Pushing each macro into only the rows it covers gives the same
        /// segments as filtering every macro for every row, for random
        /// macro sets on dies with offset outlines, partial top rows and
        /// coarse sites.
        #[test]
        fn banded_blockages_match_the_row_filter(
            sizes in proptest::collection::vec((0i64..40, 0i64..30), 1..4),
            placed in proptest::collection::vec((0usize..4, -5i64..100, -5i64..80, 0usize..2), 0..12),
            rows in (1i64..13, 1i64..13),
            site in 1i64..5,
        ) {
            let mut t = TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("C", 2, 2));
            for (k, &(w, h)) in sizes.iter().enumerate() {
                t = t.lib_cell(LibCellSpec::macro_cell(format!("M{k}"), w, h));
            }
            let mut b = DesignBuilder::new("t")
                .technology(t)
                .die(DieSpec::new("bottom", "T", (0, 0, 100, 75), rows.0, site, 1.0))
                .die(DieSpec::new("top", "T", (-3, 4, 97, 81), rows.1, site, 1.0));
            for (i, &(lib, x, y, die)) in placed.iter().enumerate() {
                let die = if die == 0 { "bottom" } else { "top" };
                b = b.macro_inst(format!("m{i}"), format!("M{}", lib % sizes.len()), die, x, y);
            }
            if let Ok(d) = b.build() {
                prop_assert_eq!(RowLayout::build(&d), naive_build(&d));
            }
        }

        /// For arbitrary non-overlapping macro sets, the computed segments
        /// (a) never intersect a macro, (b) never overlap each other, and
        /// (c) together with the macros account for every row's width up
        /// to site-alignment loss at macro borders.
        #[test]
        fn segments_partition_rows_around_macros(
            placements in proptest::collection::vec((0i64..20, 0i64..4), 0..4),
            site in 1i64..4,
        ) {
            let mut b = DesignBuilder::new("t")
                .technology(
                    TechnologySpec::new("T")
                        .lib_cell(LibCellSpec::std_cell("C", 10, 10))
                        .lib_cell(LibCellSpec::macro_cell("M", 60, 20)),
                )
                .die(DieSpec::new("bottom", "T", (0, 0, 400, 40), 10, site, 1.0))
                .die(DieSpec::new("top", "T", (0, 0, 400, 40), 10, site, 1.0));
            // Place macros on a coarse grid; skip overlapping candidates.
            let mut placed: Vec<Rect> = Vec::new();
            for (k, &(gx, gy)) in placements.iter().enumerate() {
                let x = gx * 17; // arbitrary, may be off the site grid
                let y = gy * 10;
                if x + 60 > 400 || y + 20 > 40 {
                    continue;
                }
                let rect = Rect::new(x, y, x + 60, y + 20);
                if placed.iter().any(|r| r.overlaps(&rect)) {
                    continue;
                }
                placed.push(rect);
                b = b.macro_inst(format!("m{k}"), "M", "bottom", x, y);
            }
            let design = b.build().unwrap();
            let layout = RowLayout::build(&design);

            let macros = design.macro_rects_on(DieId::BOTTOM);
            for seg in layout.segments().iter().filter(|s| s.die == DieId::BOTTOM) {
                let seg_rect = Rect::new(seg.span.lo, seg.y, seg.span.hi, seg.y + 10);
                for m in &macros {
                    prop_assert!(!seg_rect.overlaps(m), "segment {seg:?} overlaps macro {m}");
                }
                // Site alignment of both edges.
                prop_assert_eq!((seg.span.lo) % site, 0);
            }
            // Per row: segments disjoint, and free width + blocked width +
            // alignment loss == row width.
            let die = design.die(DieId::BOTTOM);
            for row in &die.rows {
                let segs: Vec<&Segment> = layout
                    .segments_in_row(DieId::BOTTOM, row.id)
                    .iter()
                    .map(|&id| layout.segment(id))
                    .collect();
                for w in segs.windows(2) {
                    prop_assert!(w[0].span.hi <= w[1].span.lo);
                }
                let free: i64 = segs.iter().map(|s| s.width()).sum();
                let row_rect = Rect::new(row.span.lo, row.y, row.span.hi, row.y + 10);
                let blocked: i64 = macros
                    .iter()
                    .map(|m| row_rect.intersection(m).map(|i| i.width()).unwrap_or(0))
                    .sum();
                // Alignment can shave at most (site − 1) per macro side + 1.
                let max_loss = (placed.len() as i64 * 2 + 2) * (site - 1);
                prop_assert!(free + blocked >= row.span.len() - max_loss,
                    "row {}: free {free} + blocked {blocked} vs {}", row.id, row.span.len());
                prop_assert!(free + blocked <= row.span.len());
            }
        }
    }
}
