//! Placement states: continuous global placements and legal placements.

use crate::ids::{CellId, DieId};
use flow3d_geom::{FPoint, Point};

/// A continuous 3D global placement, the input to legalization.
///
/// Each cell has a continuous lower-left position and a *die affinity* in
/// `[0, num_dies - 1]`: true-3D analytical placers relax the discrete die
/// assignment into this continuous variable, and the legalizer starts by
/// snapping each cell to its nearest die (paper §II-B).
#[derive(Debug, Clone, PartialEq)]
pub struct Placement3d {
    pos: Vec<FPoint>,
    die_affinity: Vec<f64>,
}

impl Placement3d {
    /// Creates a placement with all cells at the origin of die 0.
    pub fn new(num_cells: usize) -> Self {
        Self {
            pos: vec![FPoint::default(); num_cells],
            die_affinity: vec![0.0; num_cells],
        }
    }

    /// Creates a placement from parallel position / affinity vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn from_parts(pos: Vec<FPoint>, die_affinity: Vec<f64>) -> Self {
        assert_eq!(
            pos.len(),
            die_affinity.len(),
            "position and affinity vectors must be parallel"
        );
        Self { pos, die_affinity }
    }

    /// Number of placed cells.
    pub fn num_cells(&self) -> usize {
        self.pos.len()
    }

    /// Continuous lower-left position of `cell`.
    #[inline]
    pub fn pos(&self, cell: CellId) -> FPoint {
        self.pos[cell.index()]
    }

    /// Sets the continuous position of `cell`.
    #[inline]
    pub fn set_pos(&mut self, cell: CellId, pos: FPoint) {
        self.pos[cell.index()] = pos;
    }

    /// Continuous die affinity of `cell` in `[0, num_dies - 1]`.
    #[inline]
    pub fn die_affinity(&self, cell: CellId) -> f64 {
        self.die_affinity[cell.index()]
    }

    /// Sets the die affinity of `cell`.
    #[inline]
    pub fn set_die_affinity(&mut self, cell: CellId, affinity: f64) {
        self.die_affinity[cell.index()] = affinity;
    }

    /// The discrete die nearest to the cell's affinity, clamped to the
    /// design's stack height.
    pub fn nearest_die(&self, cell: CellId, num_dies: usize) -> DieId {
        let a = self.die_affinity[cell.index()];
        let idx = a.round().clamp(0.0, (num_dies - 1) as f64) as usize;
        DieId::new(idx)
    }
}

/// A discrete placement: every cell on a die at integer coordinates.
///
/// Produced by legalizers; legality (row/site alignment, no overlap) is
/// *not* an invariant of the type — use the checker in `flow3d-metrics` to
/// verify it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LegalPlacement {
    pos: Vec<Point>,
    die: Vec<DieId>,
}

impl LegalPlacement {
    /// Creates a placement with all cells at the origin of die 0.
    pub fn new(num_cells: usize) -> Self {
        Self {
            pos: vec![Point::default(); num_cells],
            die: vec![DieId::BOTTOM; num_cells],
        }
    }

    /// Creates a placement from parallel position / die vectors.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths.
    pub fn from_parts(pos: Vec<Point>, die: Vec<DieId>) -> Self {
        assert_eq!(
            pos.len(),
            die.len(),
            "position and die vectors must be parallel"
        );
        Self { pos, die }
    }

    /// Number of placed cells.
    pub fn num_cells(&self) -> usize {
        self.pos.len()
    }

    /// Lower-left corner of `cell`.
    #[inline]
    pub fn pos(&self, cell: CellId) -> Point {
        self.pos[cell.index()]
    }

    /// Die of `cell`.
    #[inline]
    pub fn die(&self, cell: CellId) -> DieId {
        self.die[cell.index()]
    }

    /// Places `cell` at `pos` on `die`.
    #[inline]
    pub fn place(&mut self, cell: CellId, pos: Point, die: DieId) {
        self.pos[cell.index()] = pos;
        self.die[cell.index()] = die;
    }

    /// Iterates `(cell, position, die)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (CellId, Point, DieId)> + '_ {
        self.pos
            .iter()
            .zip(&self.die)
            .enumerate()
            .map(|(i, (&p, &d))| (CellId::new(i), p, d))
    }

    /// Number of cells whose die differs from the nearest-die snap of
    /// `global` — the paper's `#Move` column in Table V.
    pub fn cross_die_moves(&self, global: &Placement3d, num_dies: usize) -> usize {
        (0..self.pos.len())
            .filter(|&i| {
                let c = CellId::new(i);
                global.nearest_die(c, num_dies) != self.die(c)
            })
            .count()
    }
}

/// One requested cell change in an ECO (engineering change order): the
/// move-list files of `flow3d-io` and the incremental legalization entry
/// points of `flow3d-core` share this type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMove {
    /// The cell the optimization step touched.
    pub cell: CellId,
    /// Requested lower-left position (need not be legal; it becomes the
    /// cell's new displacement anchor).
    pub target: Point,
    /// Requested die, or `None` to keep the cell's current die.
    pub die: Option<DieId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_die_rounds_affinity() {
        let mut p = Placement3d::new(3);
        p.set_die_affinity(CellId::new(0), 0.2);
        p.set_die_affinity(CellId::new(1), 0.6);
        p.set_die_affinity(CellId::new(2), 1.7);
        assert_eq!(p.nearest_die(CellId::new(0), 2), DieId::BOTTOM);
        assert_eq!(p.nearest_die(CellId::new(1), 2), DieId::TOP);
        // Clamped to the stack height.
        assert_eq!(p.nearest_die(CellId::new(2), 2), DieId::TOP);
        assert_eq!(p.nearest_die(CellId::new(2), 3), DieId::new(2));
    }

    #[test]
    fn legal_placement_roundtrip() {
        let mut lp = LegalPlacement::new(2);
        lp.place(CellId::new(1), Point::new(10, 20), DieId::TOP);
        assert_eq!(lp.pos(CellId::new(1)), Point::new(10, 20));
        assert_eq!(lp.die(CellId::new(1)), DieId::TOP);
        assert_eq!(lp.pos(CellId::new(0)), Point::ORIGIN);
        let triples: Vec<_> = lp.iter().collect();
        assert_eq!(triples.len(), 2);
        assert_eq!(triples[1], (CellId::new(1), Point::new(10, 20), DieId::TOP));
    }

    #[test]
    fn cross_die_moves_counts_changes() {
        let mut gp = Placement3d::new(3);
        gp.set_die_affinity(CellId::new(0), 0.0);
        gp.set_die_affinity(CellId::new(1), 1.0);
        gp.set_die_affinity(CellId::new(2), 0.9);
        let mut lp = LegalPlacement::new(3);
        lp.place(CellId::new(0), Point::ORIGIN, DieId::BOTTOM); // unchanged
        lp.place(CellId::new(1), Point::ORIGIN, DieId::BOTTOM); // moved
        lp.place(CellId::new(2), Point::ORIGIN, DieId::TOP); // unchanged
        assert_eq!(lp.cross_die_moves(&gp, 2), 1);
    }

    #[test]
    #[should_panic(expected = "parallel")]
    fn from_parts_rejects_mismatched_lengths() {
        let _ = LegalPlacement::from_parts(vec![Point::ORIGIN], vec![]);
    }
}
