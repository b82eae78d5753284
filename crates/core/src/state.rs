//! Mutable flow state: fractional cell-to-bin assignment Γ(v), bin usage,
//! supply/demand (Eqs. 1–2), displacement costs (Eqs. 4–5), and per-die
//! area accounting for the utilization constraint (§III-F).
//!
//! The state owns its columns and borrows the design, layout and grid,
//! so a resident engine can keep a seeded state across requests. An undo
//! journal makes a pass reversible at the cost of the cells it touched:
//! post-optimization and the ECO engine re-seed only what changed, run
//! the flow under a checkpoint, and roll back.

use crate::grid::{Bin, BinGrid, BinId};
use flow3d_db::{CellId, Design, DieId, RowLayout, SegmentId};
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

/// The owned columns of a [`FlowState`]: every per-bin and per-cell value
/// a flow pass mutates, plus the undo journal.
///
/// Split from the borrowed design, layout and grid so that the owner of
/// those (the resident [`crate::EcoEngine`]) can keep a seeded state
/// alive between requests: it moves the columns into a [`FlowState`] for
/// each request and takes them back afterwards.
#[derive(Debug, Clone, Default)]
pub(crate) struct FlowColumns {
    /// Γ(v): fragments per bin.
    frags: Vec<Vec<Frag>>,
    /// Fragments per cell, ordered left-to-right (all in one segment).
    cell_frags: Vec<Vec<(BinId, i64)>>,
    /// Total fragment width per bin.
    usage: Vec<i64>,
    /// Displacement anchor `(x'_c, y'_c)` of Eq. 4 per cell: the rounded
    /// global-placement position, or the base position in an ECO.
    anchor: Vec<Point>,
    /// Standard-cell area currently on each die.
    used_area: Vec<i64>,
    /// Utilization cap per die (`max_util · free_area`).
    allowed_area: Vec<i64>,
    /// Undo log since the last [`FlowState::checkpoint`].
    journal: Journal,
}

impl FlowColumns {
    /// Empty columns (no cell assigned) for `design` on `grid`.
    pub(crate) fn new(design: &Design, grid: &BinGrid, anchor: Vec<Point>) -> Self {
        assert_eq!(anchor.len(), design.num_cells());
        let allowed_area = (0..design.num_dies())
            .map(|d| {
                let die = DieId::new(d);
                (design.die(die).max_util * design.free_area(die) as f64).floor() as i64
            })
            .collect();
        Self {
            frags: vec![Vec::new(); grid.num_bins()],
            cell_frags: vec![Vec::new(); design.num_cells()],
            usage: vec![0; grid.num_bins()],
            anchor,
            used_area: vec![0; design.num_dies()],
            allowed_area,
            journal: Journal::default(),
        }
    }
}

/// A [`FlowColumns`] as order-free values, for comparing two states:
/// per-bin fragments sorted by cell, plus every other column verbatim.
#[cfg(test)]
#[derive(Debug, PartialEq)]
pub(crate) struct Canonical {
    frags: Vec<Vec<(CellId, i64)>>,
    cell_frags: Vec<Vec<(BinId, i64)>>,
    usage: Vec<i64>,
    anchor: Vec<Point>,
    used_area: Vec<i64>,
}

#[cfg(test)]
impl FlowColumns {
    /// See [`Canonical`].
    pub(crate) fn canonical(&self) -> Canonical {
        Canonical {
            frags: self
                .frags
                .iter()
                .map(|list| {
                    let mut v: Vec<(CellId, i64)> =
                        list.iter().map(|f| (f.cell, f.width)).collect();
                    v.sort_unstable();
                    v
                })
                .collect(),
            cell_frags: self.cell_frags.clone(),
            usage: self.usage.clone(),
            anchor: self.anchor.clone(),
            used_area: self.used_area.clone(),
        }
    }
}

/// Undo log of a [`FlowState`]: the fragments and anchor each cell had at
/// the checkpoint, saved just before its first mutation after it. All
/// buffers keep their allocations across checkpoints, and only the marks
/// of saved cells are ever set, so a checkpoint and a rollback both cost
/// O(touched cells), not O(n).
#[derive(Debug, Clone, Default)]
struct Journal {
    /// Whether mutations are being recorded.
    active: bool,
    /// Per cell: already saved since the checkpoint.
    marked: Vec<bool>,
    /// Saved cells in first-touch order.
    saved: Vec<Saved>,
    /// The saved fragments of every saved cell, back to back.
    frags: Vec<(BinId, i64)>,
}

/// One cell as it was at the checkpoint.
#[derive(Debug, Clone)]
struct Saved {
    cell: CellId,
    anchor: Point,
    /// Its fragments: a range of [`Journal::frags`].
    frags: std::ops::Range<usize>,
}

/// Where to seed one cell (see [`FlowState::seed`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Seed {
    /// The cell.
    pub cell: CellId,
    /// The die to look on first.
    pub die: DieId,
    /// The point whose nearest legal position the cell takes.
    pub at: Point,
    /// Whether the other dies (in index order) may host the cell when
    /// `die` cannot.
    pub any_die: bool,
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
    /// Everything the state owns and mutates.
    cols: FlowColumns,
}

impl<'a> FlowState<'a> {
    /// Creates an empty state (no cells assigned).
    pub fn new(
        design: &'a Design,
        layout: &'a RowLayout,
        grid: &'a BinGrid,
        anchor: Vec<Point>,
    ) -> Self {
        let cols = FlowColumns::new(design, grid, anchor);
        Self::from_columns(design, layout, grid, cols)
    }

    /// Wraps columns built for the same design and grid (see
    /// [`into_columns`](Self::into_columns)).
    pub(crate) fn from_columns(
        design: &'a Design,
        layout: &'a RowLayout,
        grid: &'a BinGrid,
        cols: FlowColumns,
    ) -> Self {
        assert_eq!(cols.cell_frags.len(), design.num_cells());
        assert_eq!(cols.frags.len(), grid.num_bins());
        Self {
            design,
            layout,
            grid,
            cols,
        }
    }

    /// The owned columns.
    #[cfg(test)]
    pub(crate) fn columns(&self) -> &FlowColumns {
        &self.cols
    }

    /// Releases the borrowed structures and returns the owned columns.
    pub(crate) fn into_columns(self) -> FlowColumns {
        self.cols
    }

    /// The displacement anchor of `cell`.
    #[inline]
    pub fn anchor(&self, cell: CellId) -> Point {
        self.cols.anchor[cell.index()]
    }

    /// Supply of `bin` (Eq. 1): overflow beyond capacity.
    #[inline]
    pub fn sup(&self, bin: BinId) -> i64 {
        (self.cols.usage[bin.index()] - self.grid.bin(bin).cap()).max(0)
    }

    /// Demand of `bin` (Eq. 2): remaining free capacity.
    #[inline]
    pub fn dem(&self, bin: BinId) -> i64 {
        (self.grid.bin(bin).cap() - self.cols.usage[bin.index()]).max(0)
    }

    /// Total fragment width currently in `bin`.
    #[inline]
    pub fn usage(&self, bin: BinId) -> i64 {
        self.cols.usage[bin.index()]
    }

    /// Fragments currently assigned to `bin`.
    #[inline]
    pub fn frags_in(&self, bin: BinId) -> &[Frag] {
        &self.cols.frags[bin.index()]
    }

    /// Fragments of `cell`, ordered left-to-right.
    #[inline]
    pub fn cell_frags(&self, cell: CellId) -> &[(BinId, i64)] {
        &self.cols.cell_frags[cell.index()]
    }

    /// Die the cell currently sits on.
    ///
    /// # Panics
    ///
    /// Panics if the cell has no fragments.
    pub fn cell_die(&self, cell: CellId) -> DieId {
        let (bin, _) = self.cols.cell_frags[cell.index()]
            .first()
            // flow3d-tidy: allow(panic-unwrap) — documented # Panics: every placed cell keeps at least one fragment
            .expect("cell has no fragments");
        self.grid.bin(*bin).die
    }

    /// Area headroom of `die` in DBU² under its utilization cap.
    #[inline]
    pub fn area_headroom(&self, die: DieId) -> i64 {
        self.cols.allowed_area[die.index()] - self.cols.used_area[die.index()]
    }

    /// Standard-cell area currently on `die`.
    #[inline]
    pub fn used_area(&self, die: DieId) -> i64 {
        self.cols.used_area[die.index()]
    }

    /// Estimated displacement of `cell` if assigned to `bin` (Eq. 4 with
    /// the bin-local snap of §III-A): the anchor's x clamped into the bin,
    /// y at the bin's row.
    pub fn disp_to(&self, cell: CellId, bin: &Bin) -> i64 {
        let a = self.cols.anchor[cell.index()];
        (bin.span.clamp_point(a.x) - a.x).abs() + (bin.y - a.y).abs()
    }

    /// Current estimated displacement of `cell`: fragment-width-weighted
    /// average of [`disp_to`](Self::disp_to) over its bins.
    pub fn disp_current(&self, cell: CellId) -> f64 {
        let frags = &self.cols.cell_frags[cell.index()];
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

    /// Segment the cell currently sits in, or `None` if it has no
    /// fragments.
    pub(crate) fn cell_segment(&self, cell: CellId) -> Option<SegmentId> {
        self.cols.cell_frags[cell.index()]
            .first()
            .map(|&(bin, _)| self.grid.bin(bin).segment)
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
            self.cols.cell_frags[cell.index()].is_empty(),
            "cell {cell} already assigned"
        );
        self.save(cell);
        let grid = self.grid;
        let seg_id = grid.bin(bin_hint).segment;
        let seg = self.layout.segment(seg_id);
        let die = seg.die;
        let w = self.design.cell_width(cell, die);
        let x = seg
            .span
            .nearest_fit(desired_x, w)
            // flow3d-tidy: allow(panic-unwrap) — invariant: callers only target segments at least as wide as the cell
            .unwrap_or_else(|| panic!("cell {cell} wider than segment {seg_id}"));
        let span = flow3d_geom::Interval::with_len(x, w);
        // Bins are sorted by x: binary-search the first one the interval
        // reaches, like `BinGrid::bin_at`.
        let bins = grid.bins_in_segment(seg_id);
        let first = bins.partition_point(|&b| grid.bin(b).span.hi <= span.lo);
        for &bid in &bins[first..] {
            let bin_span = grid.bin(bid).span;
            if bin_span.lo >= span.hi {
                break;
            }
            let overlap = bin_span.overlap_len(&span);
            if overlap > 0 {
                self.add_frag(cell, bid, overlap);
            }
        }
        self.cols.used_area[die.index()] += w * self.design.cell_height(die);
    }

    /// Inserts the whole cell into one bin (whole-cell moves across rows
    /// or dies). The cell's width on the bin's die is used.
    ///
    /// # Panics
    ///
    /// Panics if the cell already has fragments.
    pub fn insert_cell_whole(&mut self, cell: CellId, bin: BinId) {
        assert!(
            self.cols.cell_frags[cell.index()].is_empty(),
            "cell {cell} already assigned"
        );
        self.save(cell);
        let die = self.grid.bin(bin).die;
        let w = self.design.cell_width(cell, die);
        self.add_frag(cell, bin, w);
        self.cols.used_area[die.index()] += w * self.design.cell_height(die);
    }

    /// Removes every fragment of `cell`, returning its former die.
    ///
    /// # Panics
    ///
    /// Panics if the cell has no fragments.
    pub fn remove_cell(&mut self, cell: CellId) -> DieId {
        let die = self.cell_die(cell);
        self.save(cell);
        let frags = std::mem::take(&mut self.cols.cell_frags[cell.index()]);
        for (bin, width) in frags {
            self.cols.usage[bin.index()] -= width;
            let list = &mut self.cols.frags[bin.index()];
            let pos = list
                .iter()
                .position(|f| f.cell == cell)
                // flow3d-tidy: allow(panic-unwrap) — invariant: per-bin lists mirror cell_frags; desync is a state bug
                .expect("fragment list out of sync");
            list.swap_remove(pos);
        }
        let w = self.design.cell_width(cell, die);
        self.cols.used_area[die.index()] -= w * self.design.cell_height(die);
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
        self.save(cell);
        // Shrink in `from`.
        let cf = &mut self.cols.cell_frags[cell.index()];
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
        let list = &mut self.cols.frags[from.index()];
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
        self.cols.usage[from.index()] -= width;
        // Grow in `to`.
        self.add_frag(cell, to, width);
        self.keep_frags_sorted(cell);
    }

    /// Moves the displacement anchor of `cell` (an ECO target).
    pub(crate) fn set_anchor(&mut self, cell: CellId, anchor: Point) {
        self.save(cell);
        self.cols.anchor[cell.index()] = anchor;
    }

    fn add_frag(&mut self, cell: CellId, bin: BinId, width: i64) {
        debug_assert!(width > 0);
        let list = &mut self.cols.frags[bin.index()];
        if let Some(f) = list.iter_mut().find(|f| f.cell == cell) {
            f.width += width;
        } else {
            list.push(Frag { cell, width });
        }
        let cf = &mut self.cols.cell_frags[cell.index()];
        if let Some(e) = cf.iter_mut().find(|(b, _)| *b == bin) {
            e.1 += width;
        } else {
            cf.push((bin, width));
        }
        self.cols.usage[bin.index()] += width;
        self.keep_frags_sorted(cell);
    }

    fn keep_frags_sorted(&mut self, cell: CellId) {
        let grid = self.grid;
        self.cols.cell_frags[cell.index()].sort_by_key(|&(b, _)| grid.bin(b).span.lo);
    }

    /// Seeds every cell of `seeds` at the legal position nearest its
    /// point, on its die or, when the seed allows it and that die has no
    /// room, on the first other die in index order that has. A cell that
    /// already has fragments is removed first.
    ///
    /// Every slot is resolved before anything is inserted, and the cells
    /// are then inserted in bin order, which is `(die, y, x)` order. Cell
    /// ids are scattered over the dies, so inserting in id order would
    /// miss cache on nearly every insert; nothing downstream depends on
    /// the order of the fragments inside a bin.
    ///
    /// Returns the cells no allowed die can host, in ascending id order;
    /// they are left without fragments.
    pub(crate) fn seed(&mut self, seeds: &[Seed]) -> Vec<CellId> {
        let mut slots: Vec<(BinId, i64, CellId)> = Vec::with_capacity(seeds.len());
        let mut failed = Vec::new();
        for s in seeds {
            match self.resolve(s) {
                Some((bin, x)) => slots.push((bin, x, s.cell)),
                None => failed.push(s.cell),
            }
        }
        slots.sort_unstable();
        for &(bin, x, cell) in &slots {
            if !self.cols.cell_frags[cell.index()].is_empty() {
                self.remove_cell(cell);
            }
            self.insert_cell(cell, bin, x);
        }
        failed.sort_unstable();
        for &cell in &failed {
            if !self.cols.cell_frags[cell.index()].is_empty() {
                self.remove_cell(cell);
            }
        }
        failed
    }

    /// The slot `(bin, x)` of one seed: see [`seed`](Self::seed).
    fn resolve(&self, seed: &Seed) -> Option<(BinId, i64)> {
        let on = |die: DieId| {
            let w = self.design.cell_width(seed.cell, die);
            self.layout
                .nearest_position(self.design, die, seed.at.x, seed.at.y, w)
                .map(|(seg, x)| (self.grid.bin_at(seg.id, x), x))
        };
        on(seed.die).or_else(|| {
            (0..self.design.num_dies())
                .map(DieId::new)
                .filter(|&d| seed.any_die && d != seed.die)
                .find_map(on)
        })
    }

    /// Starts recording an undo journal: every cell's fragments and
    /// anchor are saved before its first mutation from here on, so that
    /// [`rollback`](Self::rollback) can restore them. A checkpoint taken
    /// while one is open keeps the changes made since the older one.
    pub(crate) fn checkpoint(&mut self) {
        let n = self.cols.cell_frags.len();
        let j = &mut self.cols.journal;
        for s in &j.saved {
            j.marked[s.cell.index()] = false;
        }
        j.saved.clear();
        j.frags.clear();
        j.marked.resize(n, false);
        j.active = true;
    }

    /// Restores every cell mutated since the [`checkpoint`](Self::checkpoint)
    /// to its fragments and anchor there, and stops journaling. Costs
    /// O(touched cells): the per-bin lists, usage and die areas follow
    /// from the restored cells. Only the order of the fragments inside a
    /// bin may differ from the checkpoint.
    pub(crate) fn rollback(&mut self) {
        let mut j = std::mem::take(&mut self.cols.journal);
        for s in &j.saved {
            let cell = s.cell;
            if !self.cols.cell_frags[cell.index()].is_empty() {
                self.remove_cell(cell);
            }
            let frags = &j.frags[s.frags.clone()];
            for &(bin, width) in frags {
                self.add_frag(cell, bin, width);
            }
            if let Some(&(bin, _)) = frags.first() {
                let die = self.grid.bin(bin).die;
                self.cols.used_area[die.index()] +=
                    self.design.cell_width(cell, die) * self.design.cell_height(die);
            }
            self.cols.anchor[cell.index()] = s.anchor;
            j.marked[cell.index()] = false;
        }
        j.saved.clear();
        j.frags.clear();
        j.active = false;
        self.cols.journal = j;
    }

    /// Cells mutated since the checkpoint, in first-touch order.
    pub(crate) fn journal_cells(&self) -> impl Iterator<Item = CellId> + '_ {
        self.cols.journal.saved.iter().map(|s| s.cell)
    }

    /// Segments the cells mutated since the checkpoint sat in at the
    /// checkpoint or sit in now, ascending and deduplicated: the only
    /// segments whose membership can have changed.
    pub(crate) fn journal_segments(&self) -> Vec<SegmentId> {
        let j = &self.cols.journal;
        let mut segs = Vec::with_capacity(2 * j.saved.len());
        for s in &j.saved {
            if let Some(&(bin, _)) = j.frags[s.frags.clone()].first() {
                segs.push(self.grid.bin(bin).segment);
            }
            segs.extend(self.cell_segment(s.cell));
        }
        segs.sort_unstable();
        segs.dedup();
        segs
    }

    /// Saves `cell` into the open journal before its first mutation.
    #[inline]
    fn save(&mut self, cell: CellId) {
        let j = &mut self.cols.journal;
        if !j.active || j.marked[cell.index()] {
            return;
        }
        j.marked[cell.index()] = true;
        let start = j.frags.len();
        j.frags
            .extend_from_slice(&self.cols.cell_frags[cell.index()]);
        j.saved.push(Saved {
            cell,
            anchor: self.cols.anchor[cell.index()],
            frags: start..j.frags.len(),
        });
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
    /// cell's width on its die. The width comes from the library
    /// ([`Design::lib_cell_on`]), not from the width column the state
    /// itself reads, so the check is independent of that column.
    pub fn check_invariants(&self) -> Result<(), String> {
        for i in 0..self.grid.num_bins() {
            let sum: i64 = self.cols.frags[i].iter().map(|f| f.width).sum();
            if sum != self.cols.usage[i] {
                return Err(format!(
                    "bin {i}: usage {} != fragment sum {sum}",
                    self.cols.usage[i]
                ));
            }
        }
        for c in 0..self.design.num_cells() {
            let cell = CellId::new(c);
            let frags = &self.cols.cell_frags[c];
            if frags.is_empty() {
                continue;
            }
            let seg = self.grid.bin(frags[0].0).segment;
            let die = self.grid.bin(frags[0].0).die;
            let total: i64 = frags.iter().map(|&(_, w)| w).sum();
            let width = self
                .design
                .lib_cell_on(self.design.cell(cell).lib_cell, die)
                .width;
            if total != width {
                return Err(format!(
                    "cell {cell}: fragment widths {total} != cell width {width}"
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

    /// Applies one random operation (the mutators a flow pass, a seed
    /// and an ECO use) when it is valid in the current state.
    fn random_op(st: &mut FlowState<'_>, (cell_idx, op, x, bin_sel): (usize, u8, i64, usize)) {
        let (design, layout, grid) = (st.design, st.layout, st.grid);
        let cell = CellId::new(cell_idx);
        let placed = !st.cell_frags(cell).is_empty();
        match op {
            0 if !placed => {
                let seg = &layout.segments()[bin_sel % layout.num_segments()];
                if seg.width() >= design.cell_width(cell, seg.die) {
                    st.insert_cell(cell, grid.bins_in_segment(seg.id)[0], x);
                }
            }
            1 if !placed => {
                let bin = crate::grid::BinId::new(bin_sel % grid.num_bins());
                let b = grid.bin(bin);
                if layout.segment(b.segment).width() >= design.cell_width(cell, b.die) {
                    st.insert_cell_whole(cell, bin);
                }
            }
            2 if placed => {
                st.remove_cell(cell);
            }
            3 if placed => {
                let frags = st.cell_frags(cell).to_vec();
                let (from, _) = frags[bin_sel % frags.len()];
                let to = grid
                    .neighbors(from)
                    .iter()
                    .find(|&&(_, k)| k == crate::grid::EdgeKind::Horizontal)
                    .map(|&(b, _)| b);
                if let Some(to) = to {
                    let movable = crate::selection::test_support::max_fractional_for_tests(
                        st, cell, from, to,
                    );
                    if movable > 0 {
                        st.move_fraction(cell, from, to, movable);
                    }
                }
            }
            4 => st.set_anchor(cell, flow3d_geom::Point::new(x, bin_sel as i64)),
            5 => {
                let die = DieId::new(bin_sel % 2);
                let at = flow3d_geom::Point::new(x, (bin_sel % 40) as i64);
                st.seed(&[Seed {
                    cell,
                    die,
                    at,
                    any_die: bin_sel % 3 == 0,
                }]);
            }
            _ => {}
        }
    }

    /// Any mutation sequence after a checkpoint, rolled back, restores
    /// the checkpointed state exactly: per-bin fragment multisets,
    /// usage, die areas, anchors and per-cell fragment lists. Several
    /// checkpoint/rollback rounds run on one state, so a round's marks
    /// must not leak into the next.
    #[test]
    fn rollback_restores_the_checkpoint_exactly() {
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
        let op = || (0usize..8, 0u8..6, -20i64..320, 0usize..64);

        proptest!(ProptestConfig::with_cases(64), |(
            setup in proptest::collection::vec(op(), 0..24),
            rounds in proptest::collection::vec(proptest::collection::vec(op(), 0..32), 1..4),
            keep in 0usize..4,
        )| {
            let mut st = FlowState::new(
                &design,
                &layout,
                &grid,
                vec![flow3d_geom::Point::ORIGIN; 8],
            );
            for o in setup {
                random_op(&mut st, o);
            }
            for (r, ops) in rounds.into_iter().enumerate() {
                st.checkpoint();
                let before = st.columns().canonical();
                for o in ops {
                    random_op(&mut st, o);
                }
                if r == keep {
                    // A checkpoint over an open journal keeps the changes.
                    continue;
                }
                st.rollback();
                prop_assert_eq!(st.columns().canonical(), before, "round {}", r);
            }
        });
    }
}
