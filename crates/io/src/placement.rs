//! Global-placement and legal-placement file formats.

use crate::error::IoError;
use crate::stream::Lines;
use flow3d_db::{CellId, Design, DieId, LegalPlacement, Placement3d};
use flow3d_geom::{FPoint, Point};
use std::fmt::Write;

/// Parses a global-placement file against `design`.
///
/// Format, one cell per line after the header:
///
/// ```text
/// NumCells <n>
/// CellPos <name> <x> <y> <z>
/// ```
///
/// `x`/`y` are continuous DBU coordinates of the cell's lower-left corner;
/// `z` is the die affinity in `[0, num_dies - 1]`.
///
/// # Errors
///
/// Returns [`IoError::Parse`] on syntax errors, unknown cell names, cell
/// count mismatches, cells placed twice, a non-finite `x`, `y` or `z`,
/// or an `x`/`y` beyond [`MAX_COORD`](flow3d_db::MAX_COORD) in magnitude.
pub fn parse_placement3d(design: &Design, text: &str) -> Result<Placement3d, IoError> {
    let mut r = Lines::new(text.as_bytes());
    r.expect_next("NumCells")?;
    let toks = r.tokens();
    r.keyword(&toks, "NumCells")?;
    let n: usize = r.field(&toks, 1, "cell count")?;
    if n != design.num_cells() {
        return Err(r.err(format!(
            "placement has {n} cells, design has {}",
            design.num_cells()
        )));
    }
    let mut placement = Placement3d::new(n);
    let mut seen = vec![false; n];
    for (i, in_order) in design.cells().iter().enumerate() {
        r.expect_next("CellPos")?;
        let toks = r.tokens();
        r.keyword(&toks, "CellPos")?;
        r.expect_len(&toks, 5)?;
        let name = toks[1];
        // `write_placement3d` lists cells in id order, so line `i` names
        // cell `i` unless the file was reordered; only then is the name
        // looked up.
        let cell = if in_order.name == name {
            CellId::new(i)
        } else {
            design
                .cell_by_name(name)
                .ok_or_else(|| r.err(format!("unknown cell `{name}`")))?
        };
        if std::mem::replace(&mut seen[cell.index()], true) {
            return Err(r.err(format!("cell `{name}` placed twice")));
        }
        let x = r.coord(&toks, 2, "x")?;
        let y = r.coord(&toks, 3, "y")?;
        let z = r.finite(&toks, 4, "die affinity")?;
        placement.set_pos(cell, FPoint::new(x, y));
        placement.set_die_affinity(cell, z);
    }
    Ok(placement)
}

/// Writes a global placement in the format of [`parse_placement3d`].
///
/// # Errors
///
/// Only fails if the underlying [`Write`] sink fails.
pub fn write_placement3d(
    design: &Design,
    placement: &Placement3d,
    out: &mut impl Write,
) -> Result<(), IoError> {
    writeln!(out, "NumCells {}", design.num_cells())?;
    for (i, cell) in design.cells().iter().enumerate() {
        let c = CellId::new(i);
        let p = placement.pos(c);
        writeln!(
            out,
            "CellPos {} {:.4} {:.4} {:.4}",
            cell.name,
            p.x,
            p.y,
            placement.die_affinity(c)
        )?;
    }
    Ok(())
}

/// Parses a legal-placement file against `design`.
///
/// Format, mirroring the contest output:
///
/// ```text
/// TopDiePlacement <k>
/// Inst <name> <x> <y>
/// BottomDiePlacement <m>
/// Inst <name> <x> <y>
/// ```
///
/// # Errors
///
/// Returns [`IoError::Parse`] on syntax errors, unknown cells, duplicate
/// placements, coordinates beyond [`MAX_COORD`](flow3d_db::MAX_COORD) in
/// magnitude, or when `k + m != num_cells`.
pub fn parse_legal(design: &Design, text: &str) -> Result<LegalPlacement, IoError> {
    let mut r = Lines::new(text.as_bytes());
    let mut placement = LegalPlacement::new(design.num_cells());
    let mut seen = vec![false; design.num_cells()];
    let mut total = 0usize;

    for (keyword, die) in [
        ("TopDiePlacement", DieId::TOP),
        ("BottomDiePlacement", DieId::BOTTOM),
    ] {
        r.expect_next(keyword)?;
        let toks = r.tokens();
        r.keyword(&toks, keyword)?;
        let n: usize = r.field(&toks, 1, "placement count")?;
        for _ in 0..n {
            r.expect_next("Inst")?;
            let toks = r.tokens();
            r.keyword(&toks, "Inst")?;
            r.expect_len(&toks, 4)?;
            let name = toks[1];
            let cell = design
                .cell_by_name(name)
                .ok_or_else(|| r.err(format!("unknown cell `{name}`")))?;
            if std::mem::replace(&mut seen[cell.index()], true) {
                return Err(r.err(format!("cell `{name}` placed twice")));
            }
            let x = r.int_coord(&toks, 2, "x")?;
            let y = r.int_coord(&toks, 3, "y")?;
            placement.place(cell, Point::new(x, y), die);
            total += 1;
        }
    }
    if total != design.num_cells() {
        return Err(r.err(format!(
            "{total} cells placed, design has {}",
            design.num_cells()
        )));
    }
    Ok(placement)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow3d_db::{DesignBuilder, DieSpec, LibCellSpec, TechnologySpec};

    fn design() -> Design {
        DesignBuilder::new("t")
            .technology(TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("INV", 10, 12)))
            .die(DieSpec::new("bottom", "T", (0, 0, 100, 24), 12, 1, 1.0))
            .die(DieSpec::new("top", "T", (0, 0, 100, 24), 12, 1, 1.0))
            .cell("u0", "INV")
            .cell("u1", "INV")
            .build()
            .unwrap()
    }

    #[test]
    fn placement3d_roundtrip() {
        let d = design();
        let mut gp = Placement3d::new(2);
        gp.set_pos(CellId::new(0), FPoint::new(1.25, 3.5));
        gp.set_die_affinity(CellId::new(0), 0.75);
        gp.set_pos(CellId::new(1), FPoint::new(40.0, 12.0));
        let mut text = String::new();
        write_placement3d(&d, &gp, &mut text).unwrap();
        let gp2 = parse_placement3d(&d, &text).unwrap();
        assert!((gp2.pos(CellId::new(0)).x - 1.25).abs() < 1e-9);
        assert!((gp2.die_affinity(CellId::new(0)) - 0.75).abs() < 1e-9);
        assert!((gp2.pos(CellId::new(1)).x - 40.0).abs() < 1e-9);
    }

    #[test]
    fn legal_roundtrip() {
        let d = design();
        let mut lp = LegalPlacement::new(2);
        lp.place(CellId::new(0), Point::new(10, 0), DieId::TOP);
        lp.place(CellId::new(1), Point::new(20, 12), DieId::BOTTOM);
        let mut text = String::new();
        crate::write_legal(&d, &lp, &mut text).unwrap();
        let lp2 = parse_legal(&d, &text).unwrap();
        assert_eq!(lp, lp2);
    }

    #[test]
    fn placement3d_count_mismatch_rejected() {
        let d = design();
        let err = parse_placement3d(&d, "NumCells 1\nCellPos u0 0 0 0\n").unwrap_err();
        assert!(err.to_string().contains("design has 2"));
    }

    #[test]
    fn duplicate_cell_rejected() {
        let d = design();
        let text = "NumCells 2\nCellPos u0 0 0 0\nCellPos u0 1 1 0\n";
        let err = parse_placement3d(&d, text).unwrap_err();
        assert!(err.to_string().contains("placed twice"));
    }

    #[test]
    fn legal_missing_cells_rejected() {
        let d = design();
        let text = "TopDiePlacement 1\nInst u0 0 0\nBottomDiePlacement 0\n";
        let err = parse_legal(&d, text).unwrap_err();
        assert!(err.to_string().contains("design has 2"));
    }

    #[test]
    fn legal_unknown_cell_rejected() {
        let d = design();
        let text = "TopDiePlacement 1\nInst nope 0 0\nBottomDiePlacement 1\nInst u1 0 0\n";
        let err = parse_legal(&d, text).unwrap_err();
        assert!(err.to_string().contains("unknown cell"));
    }
}
