//! ECO move-list files.
//!
//! A move list names the cells an optimization step displaced, their
//! requested positions, and (optionally) a requested die. It is the
//! on-disk form of the incremental API's move slice
//! ([`CellMove`](flow3d_db::CellMove)) and the scriptable input of
//! `flow3d eco` and the serve-mode `eco` request.
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
//!
//! [`parse_move_names`] reads the grammar without a design (`flow3d
//! request` sends a file's moves by name); [`parse_moves`] resolves the
//! names against a design on top of it.

use crate::error::IoError;
use crate::stream::Lines;
use flow3d_db::{CellMove, Design, DieId};
use flow3d_geom::Point;
use std::fmt::Write;

/// One `Move` record as the file names it, before its cell is resolved
/// against a design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NamedMove<'a> {
    /// The instance name.
    pub cell: &'a str,
    /// Requested lower-left position, at most
    /// [`MAX_COORD`](flow3d_db::MAX_COORD) in magnitude.
    pub target: Point,
    /// Requested die index, or `None` to keep the cell's current die.
    pub die: Option<usize>,
}

/// Parses a move list without a design, handing each record to `visit`
/// in file order. An error message `visit` returns is reported at the
/// record's line.
///
/// # Errors
///
/// Returns [`IoError::Parse`] on syntax errors, a count mismatch, a
/// target beyond [`MAX_COORD`](flow3d_db::MAX_COORD) in magnitude, or the
/// first error of `visit`.
pub fn parse_move_names(
    text: &str,
    mut visit: impl FnMut(NamedMove<'_>) -> Result<(), String>,
) -> Result<(), IoError> {
    let mut r = Lines::new(text.as_bytes());
    r.expect_next("NumMoves")?;
    let toks = r.tokens();
    r.keyword(&toks, "NumMoves")?;
    let n: usize = r.field(&toks, 1, "move count")?;
    for _ in 0..n {
        r.expect_next("Move")?;
        let toks = r.tokens();
        r.keyword(&toks, "Move")?;
        if toks.len() != 4 && toks.len() != 5 {
            return Err(r.err(format!("expected 4 or 5 fields, found {}", toks.len())));
        }
        let x = r.int_coord(&toks, 2, "x")?;
        let y = r.int_coord(&toks, 3, "y")?;
        let die = if toks.len() == 5 {
            Some(r.field(&toks, 4, "die")?)
        } else {
            None
        };
        visit(NamedMove {
            cell: toks[1],
            target: Point::new(x, y),
            die,
        })
        .map_err(|message| r.err(message))?;
    }
    if r.advance()? {
        let extra: Vec<&str> = r.line().split_whitespace().collect();
        return Err(r.err(format!("unexpected trailing line `{}`", extra.join(" "))));
    }
    Ok(())
}

/// Parses a move list against `design`.
///
/// # Errors
///
/// Returns [`IoError::Parse`] on every error of [`parse_move_names`],
/// unknown cell names, out-of-range die indices and duplicate cells.
pub fn parse_moves(design: &Design, text: &str) -> Result<Vec<CellMove>, IoError> {
    let mut moves = Vec::new();
    let mut seen = vec![false; design.num_cells()];
    parse_move_names(text, |m| {
        let cell = design
            .cell_by_name(m.cell)
            .ok_or_else(|| format!("unknown cell `{}`", m.cell))?;
        if std::mem::replace(&mut seen[cell.index()], true) {
            return Err(format!("cell `{}` moved twice", m.cell));
        }
        let die = match m.die {
            Some(d) if d >= design.num_dies() => {
                return Err(format!(
                    "die {d} out of range (design has {})",
                    design.num_dies()
                ))
            }
            d => d.map(DieId::new),
        };
        moves.push(CellMove {
            cell,
            target: m.target,
            die,
        });
        Ok(())
    })?;
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
    moves: &[CellMove],
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
    use flow3d_db::{CellId, DesignBuilder, DieSpec, LibCellSpec, TechnologySpec};

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
            CellMove {
                cell: CellId::new(0),
                target: Point::new(35, 10),
                die: None,
            },
            CellMove {
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

    #[test]
    fn names_parse_without_a_design() {
        let mut named = Vec::new();
        parse_move_names("NumMoves 2\nMove nosuch 1 2\nMove u0 -3 4 7\n", |m| {
            named.push((m.cell.to_string(), m.target, m.die));
            Ok(())
        })
        .unwrap();
        assert_eq!(
            named,
            [
                ("nosuch".to_string(), Point::new(1, 2), None),
                ("u0".to_string(), Point::new(-3, 4), Some(7)),
            ]
        );
        // An error of the visitor is reported at the record's line.
        let err = parse_move_names("# eco\nNumMoves 1\n\nMove u0 1 2\n", |_| {
            Err("rejected".to_string())
        })
        .unwrap_err();
        assert_eq!(err.to_string(), "line 4: rejected");
    }
}
