//! Legality checker.
//!
//! Verifies every constraint of the ICCAD 2022/2023 F2F placement setting:
//! each standard cell on a valid die, lower-left corner on a placement row
//! and site, footprint inside a macro-free row segment, no overlap between
//! cells, and per-die utilization within the die's `max_util`.

use flow3d_db::{CellId, Design, DieId, LegalPlacement, RowLayout};
use flow3d_geom::Interval;
use std::fmt;

/// One legality violation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Violation {
    /// Cell's die index is outside the stack.
    BadDie {
        /// Offending cell.
        cell: CellId,
        /// The out-of-range die.
        die: DieId,
    },
    /// Cell's y is not the bottom edge of any row on its die.
    OffRow {
        /// Offending cell.
        cell: CellId,
        /// The misaligned y-coordinate.
        y: i64,
    },
    /// Cell's x is not on the site grid.
    OffSite {
        /// Offending cell.
        cell: CellId,
        /// The misaligned x-coordinate.
        x: i64,
    },
    /// Cell's footprint is not contained in any macro-free segment of its
    /// row (outside the die, or overlapping a macro).
    OutsideSegment {
        /// Offending cell.
        cell: CellId,
    },
    /// Two cells on the same die and row overlap.
    Overlap {
        /// First cell (lower x).
        a: CellId,
        /// Second cell.
        b: CellId,
    },
    /// A die's standard-cell area exceeds `max_util` of its free area.
    Overutilized {
        /// The overutilized die.
        die: DieId,
        /// Standard-cell area placed on the die.
        used: i64,
        /// Maximum allowed area (`max_util · free_area`).
        allowed: i64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::BadDie { cell, die } => write!(f, "cell {cell} on invalid die {die}"),
            Violation::OffRow { cell, y } => write!(f, "cell {cell} off-row at y={y}"),
            Violation::OffSite { cell, x } => write!(f, "cell {cell} off-site at x={x}"),
            Violation::OutsideSegment { cell } => {
                write!(f, "cell {cell} outside every macro-free segment")
            }
            Violation::Overlap { a, b } => write!(f, "cells {a} and {b} overlap"),
            Violation::Overutilized { die, used, allowed } => {
                write!(f, "die {die} overutilized: {used} > {allowed}")
            }
        }
    }
}

/// Outcome of [`check_legal`].
#[derive(Debug, Clone, PartialEq, Default)]
// flow3d-tidy: allow(dead-pub) — metrics API (flow3d::metrics) for external QoR tooling
pub struct LegalityReport {
    violations: Vec<Violation>,
    truncated: bool,
}

impl LegalityReport {
    /// Maximum number of violations recorded before truncating.
    pub const MAX_RECORDED: usize = 100;

    /// `true` if no violations were found.
    pub fn is_legal(&self) -> bool {
        self.violations.is_empty()
    }

    /// The recorded violations (at most [`Self::MAX_RECORDED`]).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// `true` if more violations existed than were recorded.
    pub fn is_truncated(&self) -> bool {
        self.truncated
    }

    fn push(&mut self, v: Violation) {
        if self.violations.len() < Self::MAX_RECORDED {
            self.violations.push(v);
        } else {
            self.truncated = true;
        }
    }
}

impl fmt::Display for LegalityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_legal() {
            return write!(f, "legal");
        }
        writeln!(
            f,
            "{} violation(s){}:",
            self.violations.len(),
            if self.truncated { "+" } else { "" }
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// Checks `legal` against every placement constraint of `design`.
///
/// Builds the [`RowLayout`] internally; use [`check_legal_with_layout`] to
/// reuse a prebuilt layout.
pub fn check_legal(design: &Design, legal: &LegalPlacement) -> LegalityReport {
    let layout = RowLayout::build(design);
    check_legal_with_layout(design, &layout, legal)
}

/// [`check_legal`] with a caller-provided [`RowLayout`].
// flow3d-tidy: allow(dead-pub) — metrics API (flow3d::metrics) for external QoR tooling
pub fn check_legal_with_layout(
    design: &Design,
    layout: &RowLayout,
    legal: &LegalPlacement,
) -> LegalityReport {
    let mut report = LegalityReport::default();
    let num_dies = design.num_dies();

    // Per-die, per-row occupancy for overlap checking.
    // (die, row_index) -> Vec<(x_interval, cell)>
    let mut rows: Vec<Vec<Vec<(Interval, CellId)>>> = design
        .dies()
        .iter()
        .map(|d| vec![Vec::new(); d.num_rows()])
        .collect();
    let mut used_area = vec![0i64; num_dies];

    for i in 0..design.num_cells() {
        let cell = CellId::new(i);
        let die_id = legal.die(cell);
        if die_id.index() >= num_dies {
            report.push(Violation::BadDie { cell, die: die_id });
            continue;
        }
        let die = design.die(die_id);
        let pos = legal.pos(cell);
        // From the library, not the design's width column the legalizers
        // read, so a wrong column cannot vouch for itself.
        let w = design.lib_cell_on(design.cell(cell).lib_cell, die_id).width;
        used_area[die_id.index()] += w * die.row_height;

        // Row alignment.
        let row = match die.row_containing(pos.y) {
            Some(r) if r.y == pos.y => r,
            _ => {
                report.push(Violation::OffRow { cell, y: pos.y });
                continue;
            }
        };
        // Site alignment.
        if (pos.x - die.outline.xlo).rem_euclid(die.site_width) != 0 {
            report.push(Violation::OffSite { cell, x: pos.x });
        }
        // Containment in a macro-free segment.
        let span = Interval::with_len(pos.x, w);
        let in_segment = layout
            .segments_in_row(die_id, row.id)
            .iter()
            .any(|&sid| layout.segment(sid).span.contains(&span));
        if !in_segment {
            report.push(Violation::OutsideSegment { cell });
            continue;
        }
        rows[die_id.index()][row.id.index()].push((span, cell));
    }

    // Overlaps: sort each row by x and compare neighbours.
    for die_rows in &mut rows {
        for row in die_rows {
            row.sort_by_key(|(span, _)| span.lo);
            for pair in row.windows(2) {
                let (a_span, a) = pair[0];
                let (b_span, b) = pair[1];
                if a_span.overlaps(&b_span) {
                    report.push(Violation::Overlap { a, b });
                }
            }
        }
    }

    // Utilization.
    for (die_idx, &used) in used_area.iter().enumerate() {
        let die_id = DieId::new(die_idx);
        let die = design.die(die_id);
        let free = design.free_area(die_id);
        let allowed = (die.max_util * free as f64).floor() as i64;
        if used > allowed {
            report.push(Violation::Overutilized {
                die: die_id,
                used,
                allowed,
            });
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow3d_db::{DesignBuilder, DieSpec, LibCellSpec, TechnologySpec};
    use flow3d_geom::Point;

    fn design() -> Design {
        DesignBuilder::new("t")
            .technology(
                TechnologySpec::new("T")
                    .lib_cell(LibCellSpec::std_cell("INV", 10, 12))
                    .lib_cell(LibCellSpec::macro_cell("RAM", 200, 24)),
            )
            .die(DieSpec::new("bottom", "T", (0, 0, 1000, 48), 12, 2, 0.9))
            .die(DieSpec::new("top", "T", (0, 0, 1000, 48), 12, 2, 0.9))
            .macro_inst("ram0", "RAM", "bottom", 400, 0)
            .cell("u0", "INV")
            .cell("u1", "INV")
            .cell("u2", "INV")
            .build()
            .unwrap()
    }

    fn legal_base() -> LegalPlacement {
        let mut lp = LegalPlacement::new(3);
        lp.place(CellId::new(0), Point::new(0, 0), DieId::BOTTOM);
        lp.place(CellId::new(1), Point::new(20, 0), DieId::BOTTOM);
        lp.place(CellId::new(2), Point::new(0, 12), DieId::TOP);
        lp
    }

    #[test]
    fn valid_placement_passes() {
        let r = check_legal(&design(), &legal_base());
        assert!(r.is_legal(), "{r}");
        assert_eq!(r.to_string(), "legal");
    }

    #[test]
    fn abutting_cells_are_legal() {
        let mut lp = legal_base();
        lp.place(CellId::new(1), Point::new(10, 0), DieId::BOTTOM);
        assert!(check_legal(&design(), &lp).is_legal());
    }

    #[test]
    fn overlap_detected() {
        let mut lp = legal_base();
        lp.place(CellId::new(1), Point::new(8, 0), DieId::BOTTOM);
        let r = check_legal(&design(), &lp);
        assert!(matches!(r.violations()[0], Violation::Overlap { .. }));
    }

    #[test]
    fn same_xy_different_die_is_legal() {
        let mut lp = legal_base();
        lp.place(CellId::new(2), Point::new(0, 0), DieId::TOP);
        assert!(check_legal(&design(), &lp).is_legal());
    }

    #[test]
    fn off_row_detected() {
        let mut lp = legal_base();
        lp.place(CellId::new(0), Point::new(0, 5), DieId::BOTTOM);
        let r = check_legal(&design(), &lp);
        assert!(matches!(r.violations()[0], Violation::OffRow { y: 5, .. }));
    }

    #[test]
    fn off_site_detected() {
        let mut lp = legal_base();
        lp.place(CellId::new(0), Point::new(3, 0), DieId::BOTTOM);
        let r = check_legal(&design(), &lp);
        assert!(matches!(r.violations()[0], Violation::OffSite { x: 3, .. }));
    }

    #[test]
    fn macro_overlap_detected_as_outside_segment() {
        let mut lp = legal_base();
        lp.place(CellId::new(0), Point::new(396, 0), DieId::BOTTOM);
        let r = check_legal(&design(), &lp);
        assert!(matches!(
            r.violations()[0],
            Violation::OutsideSegment { .. }
        ));
    }

    #[test]
    fn outside_die_detected() {
        let mut lp = legal_base();
        lp.place(CellId::new(0), Point::new(996, 0), DieId::BOTTOM);
        let r = check_legal(&design(), &lp);
        assert!(matches!(
            r.violations()[0],
            Violation::OutsideSegment { .. }
        ));
    }

    #[test]
    fn bad_die_detected() {
        let mut lp = legal_base();
        lp.place(CellId::new(0), Point::new(0, 0), DieId::new(5));
        let r = check_legal(&design(), &lp);
        assert!(matches!(r.violations()[0], Violation::BadDie { .. }));
    }

    #[test]
    fn overutilization_detected() {
        // Tiny die: free area 40*12, util 0.5 allows 240; two 10-wide cells
        // use 240 -> legal; three exceed.
        let d = DesignBuilder::new("t")
            .technology(TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("INV", 10, 12)))
            .die(DieSpec::new("bottom", "T", (0, 0, 40, 12), 12, 1, 0.5))
            .cell("u0", "INV")
            .cell("u1", "INV")
            .cell("u2", "INV")
            .build()
            .unwrap();
        let mut lp = LegalPlacement::new(3);
        lp.place(CellId::new(0), Point::new(0, 0), DieId::BOTTOM);
        lp.place(CellId::new(1), Point::new(10, 0), DieId::BOTTOM);
        lp.place(CellId::new(2), Point::new(20, 0), DieId::BOTTOM);
        let r = check_legal(&d, &lp);
        assert!(r.violations().iter().any(|v| matches!(
            v,
            Violation::Overutilized {
                used: 360,
                allowed: 240,
                ..
            }
        )));
    }

    #[test]
    fn report_display_lists_violations() {
        let mut lp = legal_base();
        lp.place(CellId::new(0), Point::new(3, 5), DieId::BOTTOM);
        let r = check_legal(&design(), &lp);
        let text = r.to_string();
        assert!(text.contains("violation"));
        assert!(!r.is_truncated());
    }
}
