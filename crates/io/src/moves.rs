//! ECO move-list files.
//!
//! A move list names the cells an optimization step displaced, their
//! requested positions, and (optionally) a requested die. It is the
//! on-disk form of the incremental API's move slice
//! (`flow3d_core::CellMove`) and the scriptable input of `flow3d eco`
//! and the serve-mode `eco` request.
//!
//! # Grammar
//!
//! ```text
//! NumMoves <n>
//! Move <instName> <x> <y>          # keep the cell's current die
//! Move <instName> <x> <y> <die>    # request die 0 (bottom) or 1 (top)
//! ```
//!
//! Blank lines and `#` comments are skipped, like every other format in
//! this crate.

use crate::error::IoError;
use crate::stream::Lines;
use flow3d_db::{CellId, Design, DieId};
use flow3d_geom::Point;
use std::fmt::Write;

/// One parsed ECO move: the io-level mirror of `flow3d_core::CellMove`
/// (kept separate so this crate does not depend on the legalizer).
#[derive(Debug, Clone, Copy, PartialEq)]
// flow3d-tidy: allow(dead-pub) — file-format API (flow3d::io) for external readers/writers of contest artifacts
pub struct EcoMoveRecord {
    /// The cell the optimization step touched.
    pub cell: CellId,
    /// Requested lower-left position (need not be legal).
    pub target: Point,
    /// Requested die, or `None` to keep the cell's current die.
    pub die: Option<DieId>,
}

/// Parses a move list against `design`.
///
/// # Errors
///
/// Returns [`IoError::Parse`] on syntax errors, unknown cell names,
/// out-of-range die indices, duplicate cells, a count mismatch, or a
/// target beyond [`MAX_COORD`](flow3d_db::MAX_COORD) in magnitude.
pub fn parse_moves(design: &Design, text: &str) -> Result<Vec<EcoMoveRecord>, IoError> {
    let mut r = Lines::new(text.as_bytes());
    r.expect_next("NumMoves")?;
    let toks = r.tokens();
    r.keyword(&toks, "NumMoves")?;
    let n: usize = r.field(&toks, 1, "move count")?;
    let mut moves = Vec::with_capacity(n);
    let mut seen = vec![false; design.num_cells()];
    for _ in 0..n {
        r.expect_next("Move")?;
        let toks = r.tokens();
        r.keyword(&toks, "Move")?;
        if toks.len() != 4 && toks.len() != 5 {
            return Err(r.err(format!("expected 4 or 5 fields, found {}", toks.len())));
        }
        let name = toks[1];
        let cell = design
            .cell_by_name(name)
            .ok_or_else(|| r.err(format!("unknown cell `{name}`")))?;
        if std::mem::replace(&mut seen[cell.index()], true) {
            return Err(r.err(format!("cell `{name}` moved twice")));
        }
        let x = r.int_coord(&toks, 2, "x")?;
        let y = r.int_coord(&toks, 3, "y")?;
        let die = if toks.len() == 5 {
            let d: usize = r.field(&toks, 4, "die")?;
            if d >= design.num_dies() {
                return Err(r.err(format!(
                    "die {d} out of range (design has {})",
                    design.num_dies()
                )));
            }
            Some(DieId::new(d))
        } else {
            None
        };
        moves.push(EcoMoveRecord {
            cell,
            target: Point::new(x, y),
            die,
        });
    }
    if r.advance()? {
        let extra: Vec<&str> = r.line().split_whitespace().collect();
        return Err(r.err(format!("unexpected trailing line `{}`", extra.join(" "))));
    }
    Ok(moves)
}

/// Writes a move list in the format of [`parse_moves`].
///
/// # Errors
///
/// Only fails if the underlying [`Write`] sink fails.
// flow3d-tidy: allow(dead-pub) — file-format API (flow3d::io) for external readers/writers of contest artifacts
pub fn write_moves(
    design: &Design,
    moves: &[EcoMoveRecord],
    out: &mut impl Write,
) -> Result<(), IoError> {
    writeln!(out, "NumMoves {}", moves.len())?;
    for mv in moves {
        let name = &design.cell(mv.cell).name;
        match mv.die {
            Some(d) => writeln!(
                out,
                "Move {name} {} {} {}",
                mv.target.x,
                mv.target.y,
                d.index()
            )?,
            None => writeln!(out, "Move {name} {} {}", mv.target.x, mv.target.y)?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow3d_db::{DesignBuilder, DieSpec, LibCellSpec, TechnologySpec};

    fn design() -> Design {
        let mut b = DesignBuilder::new("t")
            .technology(TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("C", 30, 10)))
            .die(DieSpec::new("bottom", "T", (0, 0, 400, 40), 10, 1, 1.0))
            .die(DieSpec::new("top", "T", (0, 0, 400, 40), 10, 1, 1.0));
        for i in 0..4 {
            b = b.cell(format!("u{i}"), "C");
        }
        b.build().unwrap()
    }

    #[test]
    fn roundtrip() {
        let d = design();
        let moves = vec![
            EcoMoveRecord {
                cell: CellId::new(0),
                target: Point::new(35, 10),
                die: None,
            },
            EcoMoveRecord {
                cell: CellId::new(2),
                target: Point::new(-5, 0),
                die: Some(DieId::new(1)),
            },
        ];
        let mut text = String::new();
        write_moves(&d, &moves, &mut text).unwrap();
        assert_eq!(parse_moves(&d, &text).unwrap(), moves);
    }

    #[test]
    fn rejects_bad_input() {
        let d = design();
        assert!(parse_moves(&d, "NumMoves 1\nMove nosuch 1 2\n").is_err());
        assert!(parse_moves(&d, "NumMoves 1\nMove u0 1 2 9\n").is_err());
        assert!(parse_moves(&d, "NumMoves 2\nMove u0 1 2\nMove u0 3 4\n").is_err());
        assert!(parse_moves(&d, "NumMoves 1\nMove u0 1 2\nMove u1 3 4\n").is_err());
        assert!(parse_moves(&d, "NumMoves 2\nMove u0 1 2\n").is_err());
        // Comments and blank lines are fine.
        let ok = parse_moves(&d, "# eco\nNumMoves 1\n\nMove u1 7 0 0\n").unwrap();
        assert_eq!(ok[0].die, Some(DieId::new(0)));
    }
}
