//! Mutable flow state: fractional cell-to-bin assignment Γ(v), bin usage,
//! supply/demand (Eqs. 1–2), displacement costs (Eqs. 4–5), and per-die
//! area accounting for the utilization constraint (§III-F).

use crate::grid::{Bin, BinGrid, BinId};
use flow3d_db::{CellId, Design, DieId, RowLayout, SoaView};
use flow3d_geom::Point;

/// A fragment: part (or all) of a cell's width assigned to one bin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// flow3d-tidy: allow(dead-pub) — facade API (flow3d::core) for embedders that drive the legalizer below the Legalizer trait
pub struct Frag {
    /// The cell.
    pub cell: CellId,
    /// Width of this fragment in DBU (the paper's `ρ_γ · w_c`).
    pub width: i64,
}

/// Where the legalization hot path reads cell geometry (widths and row
/// heights) from.
///
/// The values are identical across variants by construction —
/// [`SoaView`] copies them out of the [`Design`] — so switching the
/// source never changes results, only the memory-access pattern. The
/// id-map variant is kept as the differential-testing comparand (see
/// `Flow3dConfig::soa_view`).
#[derive(Debug, Clone)]
// flow3d-tidy: allow(dead-pub) — facade API (flow3d::core) for embedders that drive the legalizer below the Legalizer trait
pub enum GeomSource<'a> {
    /// Borrow a prebuilt view (the driver and the resident ECO engine
    /// build one per design and share it across passes).
    Soa(&'a SoaView),
    /// Own a geometry-only view built at state construction.
    Owned(SoaView),
    /// Reference path: chase the `Design` id maps on every lookup.
    IdMap,
}

impl GeomSource<'_> {
    /// Width of `cell` on `die`.
    #[inline]
    pub fn cell_width(&self, design: &Design, cell: CellId, die: DieId) -> i64 {
        match self {
            GeomSource::Soa(v) => v.cell_width(cell, die),
            GeomSource::Owned(v) => v.cell_width(cell, die),
            GeomSource::IdMap => design.cell_width(cell, die),
        }
    }

    /// Row height of `die`.
    #[inline]
    pub fn cell_height(&self, design: &Design, die: DieId) -> i64 {
        match self {
            GeomSource::Soa(v) => v.cell_height(die),
            GeomSource::Owned(v) => v.cell_height(die),
            GeomSource::IdMap => design.cell_height(die),
        }
    }
}

/// The mutable state of a flow-based legalization pass.
#[derive(Debug, Clone)]
pub struct FlowState<'a> {
    /// The immutable design.
    pub design: &'a Design,
    /// Macro-aware row structure.
    pub layout: &'a RowLayout,
    /// The 3D grid graph.
    pub grid: &'a BinGrid,
    /// Γ(v): fragments per bin.
    frags: Vec<Vec<Frag>>,
    /// Fragments per cell, ordered left-to-right (all in one segment).
    cell_frags: Vec<Vec<(BinId, i64)>>,
    /// Total fragment width per bin.
    usage: Vec<i64>,
    /// Rounded global-placement position per cell (the displacement
    /// anchor `(x'_c, y'_c)` of Eq. 4).
    anchor: Vec<Point>,
    /// Standard-cell area currently on each die.
    used_area: Vec<i64>,
    /// Utilization cap per die (`max_util · free_area`).
    allowed_area: Vec<i64>,
    /// Geometry source for the hot path (SoA columns or id maps).
    geom: GeomSource<'a>,
}

impl<'a> FlowState<'a> {
    /// Creates an empty state (no cells assigned) reading geometry from
    /// an owned SoA view built here.
    pub fn new(
        design: &'a Design,
        layout: &'a RowLayout,
        grid: &'a BinGrid,
        anchor: Vec<Point>,
    ) -> Self {
        Self::with_geom(
            design,
            layout,
            grid,
            anchor,
            GeomSource::Owned(SoaView::geometry(design)),
        )
    }

    /// Creates an empty state reading geometry from `geom`.
    pub fn with_geom(
        design: &'a Design,
        layout: &'a RowLayout,
        grid: &'a BinGrid,
        anchor: Vec<Point>,
        geom: GeomSource<'a>,
    ) -> Self {
        assert_eq!(anchor.len(), design.num_cells());
        let allowed_area = (0..design.num_dies())
            .map(|d| {
                let die = DieId::new(d);
                (design.die(die).max_util * design.free_area(die) as f64).floor() as i64
            })
            .collect();
        Self {
            design,
            layout,
            grid,
            frags: vec![Vec::new(); grid.num_bins()],
            cell_frags: vec![Vec::new(); design.num_cells()],
            usage: vec![0; grid.num_bins()],
            anchor,
            used_area: vec![0; design.num_dies()],
            allowed_area,
            geom,
        }
    }

    /// Width of `cell` on `die`, read through the configured geometry
    /// source. Hot-path replacement for `Design::cell_width`.
    #[inline]
    pub fn cell_width(&self, cell: CellId, die: DieId) -> i64 {
        self.geom.cell_width(self.design, cell, die)
    }

    /// Row height of `die`, read through the configured geometry source.
    #[inline]
    pub fn cell_height(&self, die: DieId) -> i64 {
        self.geom.cell_height(self.design, die)
    }

    /// The displacement anchor of `cell`.
    #[inline]
    pub fn anchor(&self, cell: CellId) -> Point {
        self.anchor[cell.index()]
    }

    /// Supply of `bin` (Eq. 1): overflow beyond capacity.
    #[inline]
    pub fn sup(&self, bin: BinId) -> i64 {
        (self.usage[bin.index()] - self.grid.bin(bin).cap()).max(0)
    }

    /// Demand of `bin` (Eq. 2): remaining free capacity.
    #[inline]
    pub fn dem(&self, bin: BinId) -> i64 {
        (self.grid.bin(bin).cap() - self.usage[bin.index()]).max(0)
    }

    /// Total fragment width currently in `bin`.
    #[inline]
    pub fn usage(&self, bin: BinId) -> i64 {
        self.usage[bin.index()]
    }

    /// Fragments currently assigned to `bin`.
    #[inline]
    pub fn frags_in(&self, bin: BinId) -> &[Frag] {
        &self.frags[bin.index()]
    }

    /// Fragments of `cell`, ordered left-to-right.
    #[inline]
    pub fn cell_frags(&self, cell: CellId) -> &[(BinId, i64)] {
        &self.cell_frags[cell.index()]
    }

    /// Die the cell currently sits on.
    ///
    /// # Panics
    ///
    /// Panics if the cell has no fragments.
    pub fn cell_die(&self, cell: CellId) -> DieId {
        let (bin, _) = self.cell_frags[cell.index()]
            .first()
            // flow3d-tidy: allow(panic-unwrap) — documented # Panics: every placed cell keeps at least one fragment
            .expect("cell has no fragments");
        self.grid.bin(*bin).die
    }

    /// Area headroom of `die` in DBU² under its utilization cap.
    #[inline]
    pub fn area_headroom(&self, die: DieId) -> i64 {
        self.allowed_area[die.index()] - self.used_area[die.index()]
    }

    /// Standard-cell area currently on `die`.
    #[inline]
    pub fn used_area(&self, die: DieId) -> i64 {
        self.used_area[die.index()]
    }

    /// Estimated displacement of `cell` if assigned to `bin` (Eq. 4 with
    /// the bin-local snap of §III-A): the anchor's x clamped into the bin,
    /// y at the bin's row.
    pub fn disp_to(&self, cell: CellId, bin: &Bin) -> i64 {
        let a = self.anchor[cell.index()];
        (bin.span.clamp_point(a.x) - a.x).abs() + (bin.y - a.y).abs()
    }

    /// Current estimated displacement of `cell`: fragment-width-weighted
    /// average of [`disp_to`](Self::disp_to) over its bins.
    pub fn disp_current(&self, cell: CellId) -> f64 {
        let frags = &self.cell_frags[cell.index()];
        let total: i64 = frags.iter().map(|&(_, w)| w).sum();
        if total == 0 {
            return 0.0;
        }
        frags
            .iter()
            .map(|&(bin, w)| self.disp_to(cell, self.grid.bin(bin)) as f64 * w as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Inserts `cell` into the segment containing `bin_hint`'s bins, with
    /// its interval `[x, x + w)` clamped into the segment and split across
    /// the bins it straddles. Returns the fragments created.
    ///
    /// # Panics
    ///
    /// Panics if the cell already has fragments or is wider than the
    /// segment.
    pub fn insert_cell(&mut self, cell: CellId, bin_hint: BinId, desired_x: i64) {
        assert!(
            self.cell_frags[cell.index()].is_empty(),
            "cell {cell} already assigned"
        );
        let seg_id = self.grid.bin(bin_hint).segment;
        let seg = self.layout.segment(seg_id);
        let die = seg.die;
        let w = self.cell_width(cell, die);
        let x = seg
            .span
            .nearest_fit(desired_x, w)
            // flow3d-tidy: allow(panic-unwrap) — invariant: callers only target segments at least as wide as the cell
            .unwrap_or_else(|| panic!("cell {cell} wider than segment {seg_id}"));
        let span = flow3d_geom::Interval::with_len(x, w);
        for &bid in self.grid.bins_in_segment(seg_id) {
            let overlap = self.grid.bin(bid).span.overlap_len(&span);
            if overlap > 0 {
                self.add_frag(cell, bid, overlap);
            }
        }
        self.used_area[die.index()] += w * self.cell_height(die);
    }

    /// Inserts the whole cell into one bin (whole-cell moves across rows
    /// or dies). The cell's width on the bin's die is used.
    ///
    /// # Panics
    ///
    /// Panics if the cell already has fragments.
    pub fn insert_cell_whole(&mut self, cell: CellId, bin: BinId) {
        assert!(
            self.cell_frags[cell.index()].is_empty(),
            "cell {cell} already assigned"
        );
        let die = self.grid.bin(bin).die;
        let w = self.cell_width(cell, die);
        self.add_frag(cell, bin, w);
        self.used_area[die.index()] += w * self.cell_height(die);
    }

    /// Removes every fragment of `cell`, returning its former die.
    ///
    /// # Panics
    ///
    /// Panics if the cell has no fragments.
    pub fn remove_cell(&mut self, cell: CellId) -> DieId {
        let die = self.cell_die(cell);
        let frags = std::mem::take(&mut self.cell_frags[cell.index()]);
        for (bin, width) in frags {
            self.usage[bin.index()] -= width;
            let list = &mut self.frags[bin.index()];
            let pos = list
                .iter()
                .position(|f| f.cell == cell)
                // flow3d-tidy: allow(panic-unwrap) — invariant: per-bin lists mirror cell_frags; desync is a state bug
                .expect("fragment list out of sync");
            list.swap_remove(pos);
        }
        let w = self.cell_width(cell, die);
        self.used_area[die.index()] -= w * self.cell_height(die);
        die
    }

    /// Moves `width` DBU of `cell` from `from` to the horizontally
    /// adjacent bin `to` (same segment). Creates/extends the fragment in
    /// `to` and shrinks/removes the one in `from`.
    ///
    /// # Panics
    ///
    /// Panics if the cell has no fragment of at least `width` in `from`.
    pub fn move_fraction(&mut self, cell: CellId, from: BinId, to: BinId, width: i64) {
        debug_assert!(width > 0);
        debug_assert_eq!(
            self.grid.bin(from).segment,
            self.grid.bin(to).segment,
            "fractional moves stay within a segment"
        );
        // Shrink in `from`.
        let cf = &mut self.cell_frags[cell.index()];
        let idx = cf
            .iter()
            .position(|&(b, _)| b == from)
            // flow3d-tidy: allow(panic-unwrap) — documented # Panics: caller moves only fragments it just looked up
            .expect("no fragment in source bin");
        assert!(cf[idx].1 >= width, "fragment smaller than move width");
        cf[idx].1 -= width;
        let emptied = cf[idx].1 == 0;
        if emptied {
            cf.remove(idx);
        }
        let list = &mut self.frags[from.index()];
        let pos = list
            .iter()
            .position(|f| f.cell == cell)
            // flow3d-tidy: allow(panic-unwrap) — invariant: per-bin lists mirror cell_frags; presence checked above
            .expect("fragment list out of sync");
        if emptied {
            list.swap_remove(pos);
        } else {
            list[pos].width -= width;
        }
        self.usage[from.index()] -= width;
        // Grow in `to`.
        self.add_frag(cell, to, width);
        self.keep_frags_sorted(cell);
    }

    fn add_frag(&mut self, cell: CellId, bin: BinId, width: i64) {
        debug_assert!(width > 0);
        let list = &mut self.frags[bin.index()];
        if let Some(f) = list.iter_mut().find(|f| f.cell == cell) {
            f.width += width;
        } else {
            list.push(Frag { cell, width });
        }
        let cf = &mut self.cell_frags[cell.index()];
        if let Some(e) = cf.iter_mut().find(|(b, _)| *b == bin) {
            e.1 += width;
        } else {
            cf.push((bin, width));
        }
        self.usage[bin.index()] += width;
        self.keep_frags_sorted(cell);
    }

    fn keep_frags_sorted(&mut self, cell: CellId) {
        let grid = self.grid;
        self.cell_frags[cell.index()].sort_by_key(|&(b, _)| grid.bin(b).span.lo);
    }

    /// Total overflow across all bins (0 when the flow phase is done).
    pub fn total_overflow(&self) -> i64 {
        (0..self.grid.num_bins())
            .map(|i| self.sup(BinId::new(i)))
            .sum()
    }

    /// Ids of all overflowed bins.
    pub fn overflowed_bins(&self) -> Vec<BinId> {
        (0..self.grid.num_bins())
            .map(BinId::new)
            .filter(|&b| self.sup(b) > 0)
            .collect()
    }

    /// Debug invariant: per-bin usage equals the fragment sums, and every
    /// cell's fragments are contiguous bins of one segment summing to the
    /// cell's width on its die.
    pub fn check_invariants(&self) -> Result<(), String> {
        for i in 0..self.grid.num_bins() {
            let sum: i64 = self.frags[i].iter().map(|f| f.width).sum();
            if sum != self.usage[i] {
                return Err(format!(
                    "bin {i}: usage {} != fragment sum {sum}",
                    self.usage[i]
                ));
            }
        }
        for c in 0..self.design.num_cells() {
            let cell = CellId::new(c);
            let frags = &self.cell_frags[c];
            if frags.is_empty() {
                continue;
            }
            let seg = self.grid.bin(frags[0].0).segment;
            let die = self.grid.bin(frags[0].0).die;
            let total: i64 = frags.iter().map(|&(_, w)| w).sum();
            if total != self.design.cell_width(cell, die) {
                return Err(format!(
                    "cell {cell}: fragment widths {total} != cell width {}",
                    self.design.cell_width(cell, die)
                ));
            }
            let seg_bins = self.grid.bins_in_segment(seg);
            let mut indices: Vec<usize> = frags
                .iter()
                .map(|&(b, _)| {
                    seg_bins
                        .iter()
                        .position(|&sb| sb == b)
                        .ok_or_else(|| format!("cell {cell}: fragments span segments"))
                })
                .collect::<Result<_, _>>()?;
            indices.sort_unstable();
            if indices.windows(2).any(|w| w[1] != w[0] + 1) {
                return Err(format!("cell {cell}: fragments not contiguous"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::BinGrid;
    use flow3d_db::{DesignBuilder, DieSpec, LibCellSpec, TechnologySpec};

    fn fixture() -> (Design,) {
        (DesignBuilder::new("t")
            .technology(
                TechnologySpec::new("TA")
                    .lib_cell(LibCellSpec::std_cell("W40", 40, 12))
                    .lib_cell(LibCellSpec::std_cell("W100", 100, 12)),
            )
            .technology(
                TechnologySpec::new("TB")
                    .lib_cell(LibCellSpec::std_cell("W40", 30, 16))
                    .lib_cell(LibCellSpec::std_cell("W100", 80, 16)),
            )
            .die(DieSpec::new("bottom", "TA", (0, 0, 1000, 48), 12, 1, 1.0))
            .die(DieSpec::new("top", "TB", (0, 0, 1000, 48), 16, 1, 1.0))
            .cell("u0", "W40")
            .cell("u1", "W100")
            .cell("u2", "W40")
            .build()
            .unwrap(),)
    }

    fn state_of(design: &Design) -> (RowLayout, BinGrid) {
        let layout = RowLayout::build(design);
        let grid = BinGrid::build(design, &layout, &[100, 100], true);
        (layout, grid)
    }

    #[test]
    fn insert_splits_across_straddled_bins() {
        let (design,) = fixture();
        let (layout, grid) = state_of(&design);
        let anchors = vec![Point::new(80, 0); 3];
        let mut st = FlowState::new(&design, &layout, &grid, anchors);
        let u1 = CellId::new(1); // width 100 on bottom
        let hint = grid.bin_at(layout.segments()[0].id, 80);
        st.insert_cell(u1, hint, 80); // interval [80, 180) straddles 100
        let frags = st.cell_frags(u1);
        assert_eq!(frags.len(), 2);
        assert_eq!(frags.iter().map(|&(_, w)| w).sum::<i64>(), 100);
        assert_eq!(frags[0].1, 20); // [80, 100)
        assert_eq!(frags[1].1, 80); // [100, 180)
        st.check_invariants().unwrap();
        assert_eq!(st.used_area(DieId::BOTTOM), 100 * 12);
    }

    #[test]
    fn insert_clamps_to_segment_edges() {
        let (design,) = fixture();
        let (layout, grid) = state_of(&design);
        let anchors = vec![Point::new(-50, 0); 3];
        let mut st = FlowState::new(&design, &layout, &grid, anchors);
        let u0 = CellId::new(0);
        let hint = grid.bin_at(layout.segments()[0].id, -50);
        st.insert_cell(u0, hint, -50);
        let frags = st.cell_frags(u0);
        assert_eq!(frags.len(), 1);
        assert_eq!(grid.bin(frags[0].0).span.lo, 0);
        st.check_invariants().unwrap();
    }

    #[test]
    fn supply_and_demand_respond_to_usage() {
        let (design,) = fixture();
        let (layout, grid) = state_of(&design);
        let mut st = FlowState::new(&design, &layout, &grid, vec![Point::ORIGIN; 3]);
        let seg = layout.segments()[0].id;
        let b0 = grid.bins_in_segment(seg)[0];
        assert_eq!(st.dem(b0), grid.bin(b0).cap());
        assert_eq!(st.sup(b0), 0);
        // Fill the first bin beyond capacity with two cells at x=0.
        st.insert_cell(CellId::new(1), b0, 0); // width 100 = cap
        st.insert_cell(CellId::new(0), b0, 0); // width 40 overflow
        assert_eq!(st.sup(b0), 40);
        assert_eq!(st.dem(b0), 0);
        assert_eq!(st.total_overflow(), 40);
        assert_eq!(st.overflowed_bins(), vec![b0]);
    }

    #[test]
    fn whole_move_changes_width_across_dies() {
        let (design,) = fixture();
        let (layout, grid) = state_of(&design);
        let mut st = FlowState::new(&design, &layout, &grid, vec![Point::ORIGIN; 3]);
        let u1 = CellId::new(1);
        let bottom_seg = layout
            .segments()
            .iter()
            .find(|s| s.die == DieId::BOTTOM)
            .unwrap()
            .id;
        let top_seg = layout
            .segments()
            .iter()
            .find(|s| s.die == DieId::TOP)
            .unwrap()
            .id;
        st.insert_cell(u1, grid.bins_in_segment(bottom_seg)[0], 0);
        assert_eq!(st.used_area(DieId::BOTTOM), 100 * 12);
        let die = st.remove_cell(u1);
        assert_eq!(die, DieId::BOTTOM);
        assert_eq!(st.used_area(DieId::BOTTOM), 0);
        st.insert_cell_whole(u1, grid.bins_in_segment(top_seg)[0]);
        assert_eq!(st.cell_die(u1), DieId::TOP);
        // Hetero width: 80 on top.
        assert_eq!(st.cell_frags(u1)[0].1, 80);
        assert_eq!(st.used_area(DieId::TOP), 80 * 16);
        st.check_invariants().unwrap();
    }

    #[test]
    fn move_fraction_shifts_width_between_adjacent_bins() {
        let (design,) = fixture();
        let (layout, grid) = state_of(&design);
        let mut st = FlowState::new(&design, &layout, &grid, vec![Point::ORIGIN; 3]);
        let seg = layout.segments()[0].id;
        let bins = grid.bins_in_segment(seg);
        let u1 = CellId::new(1);
        st.insert_cell(u1, bins[0], 80); // 20 in bins[0]... wait anchors 0
                                         // interval [80,180): 20 in b0, 80 in b1.
        st.move_fraction(u1, bins[0], bins[1], 20);
        let frags = st.cell_frags(u1);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0], (bins[1], 100));
        st.check_invariants().unwrap();
        // Move part back.
        st.move_fraction(u1, bins[1], bins[0], 30);
        assert_eq!(st.cell_frags(u1).len(), 2);
        assert_eq!(st.cell_frags(u1)[0], (bins[0], 30));
        st.check_invariants().unwrap();
    }

    #[test]
    fn disp_to_uses_bin_local_snap() {
        let (design,) = fixture();
        let (layout, grid) = state_of(&design);
        let st = FlowState::new(&design, &layout, &grid, vec![Point::new(150, 5); 3]);
        let seg = layout.segments()[0].id;
        let b0 = grid.bins_in_segment(seg)[0]; // [0, 100) on row y=0
        let b1 = grid.bins_in_segment(seg)[1]; // [100, 200)
        let u0 = CellId::new(0);
        // Anchor x=150 is inside b1: zero x-cost, y-cost 5.
        assert_eq!(st.disp_to(u0, grid.bin(b1)), 5);
        // b0: clamp to 100 -> x-cost 50, y-cost 5.
        assert_eq!(st.disp_to(u0, grid.bin(b0)), 55);
    }

    #[test]
    fn area_headroom_tracks_utilization_cap() {
        let (design,) = fixture();
        let (layout, grid) = state_of(&design);
        let mut st = FlowState::new(&design, &layout, &grid, vec![Point::ORIGIN; 3]);
        let free = design.free_area(DieId::BOTTOM);
        assert_eq!(st.area_headroom(DieId::BOTTOM), free);
        st.insert_cell(CellId::new(0), grid.bin_at(layout.segments()[0].id, 0), 0);
        assert_eq!(st.area_headroom(DieId::BOTTOM), free - 40 * 12);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::grid::BinGrid;
    use flow3d_db::{DesignBuilder, DieId, DieSpec, LibCellSpec, RowLayout, TechnologySpec};
    use proptest::prelude::*;

    /// Random sequences of state operations preserve every invariant:
    /// usage equals fragment sums, cell fragments are contiguous within
    /// one segment, and widths always total the cell's die width.
    #[test]
    fn random_operation_sequences_preserve_invariants() {
        let mut b = DesignBuilder::new("t")
            .technology(TechnologySpec::new("TA").lib_cell(LibCellSpec::std_cell("C", 30, 10)))
            .technology(TechnologySpec::new("TB").lib_cell(LibCellSpec::std_cell("C", 24, 8)))
            .die(DieSpec::new("bottom", "TA", (0, 0, 300, 30), 10, 1, 1.0))
            .die(DieSpec::new("top", "TB", (0, 0, 300, 24), 8, 1, 1.0));
        for i in 0..8 {
            b = b.cell(format!("u{i}"), "C");
        }
        let design = b.build().unwrap();
        let layout = RowLayout::build(&design);
        let grid = BinGrid::build(&design, &layout, &[60, 60], true);

        proptest!(ProptestConfig::with_cases(64), |(
            ops in proptest::collection::vec((0usize..8, 0u8..4, 0i64..300, 0usize..64), 1..40)
        )| {
            let mut st = FlowState::new(
                &design,
                &layout,
                &grid,
                vec![flow3d_geom::Point::ORIGIN; 8],
            );
            for (cell_idx, op, x, bin_sel) in ops {
                let cell = CellId::new(cell_idx);
                let placed = !st.cell_frags(cell).is_empty();
                match op {
                    // Insert by interval into a pseudo-random segment.
                    0 if !placed => {
                        let seg = &layout.segments()[bin_sel % layout.num_segments()];
                        if seg.width() >= design.cell_width(cell, seg.die) {
                            let hint = grid.bins_in_segment(seg.id)[0];
                            st.insert_cell(cell, hint, x);
                        }
                    }
                    // Whole insert into a pseudo-random bin.
                    1 if !placed => {
                        let bin = crate::grid::BinId::new(bin_sel % grid.num_bins());
                        let b = grid.bin(bin);
                        if layout.segment(b.segment).width()
                            >= design.cell_width(cell, b.die)
                        {
                            st.insert_cell_whole(cell, bin);
                        }
                    }
                    // Remove.
                    2 if placed => {
                        st.remove_cell(cell);
                    }
                    // Fractional shift toward a horizontal neighbour.
                    3 if placed => {
                        let frags: Vec<(crate::grid::BinId, i64)> =
                            st.cell_frags(cell).to_vec();
                        let (from, fw) = frags[bin_sel % frags.len()];
                        let nbr = grid
                            .neighbors(from)
                            .iter()
                            .find(|&&(_, k)| k == crate::grid::EdgeKind::Horizontal)
                            .map(|&(b, _)| b);
                        if let Some(to) = nbr {
                            let movable =
                                crate::selection::test_support::max_fractional_for_tests(
                                    &st, cell, from, to,
                                );
                            if movable > 0 {
                                st.move_fraction(cell, from, to, movable.min(fw).max(1).min(movable));
                            }
                        }
                    }
                    _ => {}
                }
                st.check_invariants().unwrap();
            }
            // Die areas consistent with fragments.
            for die_idx in 0..2 {
                let die = DieId::new(die_idx);
                let expected: i64 = (0..8)
                    .map(CellId::new)
                    .filter(|&c| {
                        !st.cell_frags(c).is_empty() && st.cell_die(c) == die
                    })
                    .map(|c| design.cell_width(c, die) * design.cell_height(die))
                    .sum();
                prop_assert_eq!(st.used_area(die), expected);
            }
        });
    }
}
