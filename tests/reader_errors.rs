//! Pinned reader diagnostics: every malformed case, global-placement,
//! legal and move-list input below must fail with exactly this message,
//! line number included. The table is the reader's contract, so a
//! rewrite of the tokenizer or of name resolution cannot shift a line
//! number or reword an error unnoticed.

use flow3d::db::{CellId, Design};
use flow3d::io::{parse_case, parse_case_reader, parse_legal, parse_moves, parse_placement3d};
use flow3d::prelude::*;

/// A small valid case: two cells, one macro, two nets. Line numbers in
/// the table refer to this text (line 1 is `NumTechnologies`).
const CASE: &str = "\
NumTechnologies 1
Tech T 2
LibCell N INV 10 12 2
Pin A 0 6
Pin Y 9 6
LibCell Y RAM 200 24 1
Pin D 100 12
DieSize 0 0 1000 120
TopDieMaxUtil 80
BottomDieMaxUtil 90
TopDieRows 0 0 1000 12 10
BottomDieRows 0 0 1000 12 10
TopDieTech T
BottomDieTech T
TerminalSize 4 4
TerminalSpacing 2
NumInstances 3
Inst u0 INV
Inst u1 INV
Inst mc0 RAM
NumNets 2
Net n1 2
Pin u0/Y
Pin u1/A
Net n2 2
Pin u1/Y
Pin mc0/D
NumMacroPositions 1
MacroPos mc0 400 0 bottom
";

/// `CASE` with 1-based line `line` replaced by `with` (which may hold
/// several lines, or none).
fn edit(line: usize, with: &str) -> String {
    let mut out = String::new();
    for (i, l) in CASE.lines().enumerate() {
        if i + 1 == line {
            if !with.is_empty() {
                out.push_str(with);
                out.push('\n');
            }
        } else {
            out.push_str(l);
            out.push('\n');
        }
    }
    out
}

/// The first `n` lines of `CASE`.
fn head(n: usize) -> String {
    CASE.lines().take(n).map(|l| format!("{l}\n")).collect()
}

fn design() -> Design {
    parse_case(CASE).unwrap()
}

#[test]
fn malformed_case_files_report_the_pinned_error() {
    let table: Vec<(&str, String, &str)> = vec![
        (
            "truncated in the instances",
            head(19),
            "line 20: expected Inst, found end of file",
        ),
        (
            "truncated in a net",
            head(23),
            "line 24: expected Pin, found end of file",
        ),
        (
            "wrong keyword",
            edit(18, "Instance u0 INV"),
            "line 18: expected `Inst`, found `Instance`",
        ),
        (
            "wrong keyword in the die description",
            edit(13, "MiddleDieTech T"),
            "line 13: unexpected keyword `MiddleDieTech` in die description",
        ),
        (
            "too few fields",
            edit(18, "Inst u0"),
            "line 18: expected 3 fields, found 2",
        ),
        (
            "too many fields",
            edit(18, "Inst u0 INV extra"),
            "line 18: expected 3 fields, found 4",
        ),
        (
            "more fields than any line of the grammar holds",
            edit(18, "Inst u0 INV a b c d e f g h i j k l"),
            "line 18: expected 3 fields, found 15",
        ),
        (
            "too many fields on a lib cell",
            edit(3, "LibCell N INV 10 12 2 1 2 3 4 5 6"),
            "line 3: expected 6 fields, found 12",
        ),
        (
            "missing numeric field",
            edit(8, "DieSize 0 0 1000"),
            "line 8: missing die yhi (field 4)",
        ),
        (
            "unparsable numeric field",
            edit(11, "TopDieRows 0 0 1000 twelve 10"),
            "line 11: cannot parse row height from `twelve`",
        ),
        (
            "unknown lib cell",
            edit(19, "Inst u1 NAND2"),
            "line 19: unknown lib cell `NAND2`",
        ),
        (
            "duplicate instance: cell then cell",
            edit(19, "Inst u0 INV"),
            "line 19: duplicate instance `u0`",
        ),
        (
            "duplicate instance: cell then macro",
            edit(20, "Inst u0 RAM"),
            "line 20: duplicate instance `u0`",
        ),
        (
            "duplicate instance: macro then cell",
            edit(18, "Inst mc0 RAM\nInst u0 INV\nInst mc0 INV").replace("Inst u1 INV\n", ""),
            "line 20: duplicate instance `mc0`",
        ),
        (
            "pin on an unknown instance",
            edit(23, "Pin zz/Y"),
            "line 23: pin references unknown instance `zz`",
        ),
        (
            "unknown pin name",
            edit(23, "Pin u0/Q"),
            "line 23: lib cell `INV` has no pin `Q`",
        ),
        (
            "unknown pin name on a macro",
            edit(27, "Pin mc0/Y"),
            "line 27: lib cell `RAM` has no pin `Y`",
        ),
        (
            "pin without a separator",
            edit(23, "Pin u0Y"),
            "line 23: pin `u0Y` missing `/` separator",
        ),
        (
            "MacroPos for an unknown macro",
            edit(29, "MacroPos mcX 400 0 bottom"),
            "line 29: MacroPos for unknown macro `mcX`",
        ),
        (
            "MacroPos naming a standard cell",
            edit(29, "MacroPos u0 400 0 bottom"),
            "line 29: MacroPos for unknown macro `u0`",
        ),
        (
            "macro without a MacroPos",
            head(27),
            "line 27: macro instance `mc0` has no MacroPos entry",
        ),
        (
            "MacroPos on an unknown die",
            edit(29, "MacroPos mc0 400 0 middle"),
            "line 29: macro die must be `top` or `bottom`, found `middle`",
        ),
        (
            "duplicate net name",
            edit(25, "Net n1 2"),
            "invalid design: duplicate net name `n1`",
        ),
        (
            "macro outside its die",
            edit(29, "MacroPos mc0 900 0 bottom"),
            "invalid design: invalid macro `mc0`: footprint (900,0)-(1100,24) outside die outline (0,0)-(1000,120)",
        ),
        (
            "trailing section after the macro positions",
            format!("{CASE}Junk 1\n"),
            "",
        ),
    ];
    for (what, text, want) in &table {
        let got = match parse_case(text) {
            Ok(_) => String::new(),
            Err(e) => e.to_string(),
        };
        assert_eq!(&got, want, "{what}");
        // The streaming entry point reports the same thing, also when
        // the source hands it a few bytes at a time.
        let streamed = parse_case_reader(std::io::BufReader::with_capacity(5, text.as_bytes()))
            .err()
            .map(|e| e.to_string())
            .unwrap_or_default();
        assert_eq!(&streamed, want, "{what} (streamed)");
    }
}

#[test]
fn non_utf8_case_line_reports_its_line() {
    let mut bytes = head(18).into_bytes();
    bytes.extend_from_slice(b"Inst u\xff1 INV\n");
    bytes.extend_from_slice(
        CASE.lines()
            .skip(19)
            .collect::<Vec<_>>()
            .join("\n")
            .as_bytes(),
    );
    let err = parse_case_reader(&bytes[..]).unwrap_err();
    assert_eq!(err.to_string(), "line 19: line is not valid UTF-8");
}

#[test]
fn malformed_placement_files_report_the_pinned_error() {
    let d = design();
    let gp = "NumCells 2\nCellPos u0 1 2 0.5\nCellPos u1 3 4 0\n";
    assert!(parse_placement3d(&d, gp).is_ok());
    let table: &[(&str, &str, &str)] = &[
        (
            "count mismatch",
            "NumCells 3\nCellPos u0 1 2 0.5\nCellPos u1 3 4 0\n",
            "line 1: placement has 3 cells, design has 2",
        ),
        (
            "truncated",
            "NumCells 2\nCellPos u0 1 2 0.5\n",
            "line 3: expected CellPos, found end of file",
        ),
        ("empty", "", "line 1: expected NumCells, found end of file"),
        (
            "wrong header",
            "# gp\nCells 2\n",
            "line 2: expected `NumCells`, found `Cells`",
        ),
        (
            "unknown cell",
            "NumCells 2\nCellPos u0 1 2 0.5\nCellPos zz 3 4 0\n",
            "line 3: unknown cell `zz`",
        ),
        (
            "a macro is not a cell",
            "NumCells 2\nCellPos mc0 1 2 0.5\nCellPos u1 3 4 0\n",
            "line 2: unknown cell `mc0`",
        ),
        (
            "cell placed twice",
            "NumCells 2\nCellPos u1 1 2 0.5\n\nCellPos u1 3 4 0\n",
            "line 4: cell `u1` placed twice",
        ),
        (
            "too many fields",
            "NumCells 2\nCellPos u0 1 2 0.5 a b c d e f g h\nCellPos u1 3 4 0\n",
            "line 2: expected 5 fields, found 13",
        ),
        (
            "unparsable coordinate",
            "NumCells 2\nCellPos u0 1 y 0.5\nCellPos u1 3 4 0\n",
            "line 2: cannot parse y from `y`",
        ),
        (
            "infinite x",
            "NumCells 2\nCellPos u0 inf 2 0.5\nCellPos u1 3 4 0\n",
            "line 2: x `inf` is not finite",
        ),
        (
            "NaN y",
            "NumCells 2\nCellPos u0 1 NaN 0.5\nCellPos u1 3 4 0\n",
            "line 2: y `NaN` is not finite",
        ),
        (
            "infinite die affinity",
            "NumCells 2\nCellPos u0 1 2 -inf\nCellPos u1 3 4 0\n",
            "line 2: die affinity `-inf` is not finite",
        ),
        (
            "x beyond the coordinate bound",
            "NumCells 2\nCellPos u0 1e300 2 0.5\nCellPos u1 3 4 0\n",
            "line 2: x `1e300` is beyond the coordinate bound 2^53",
        ),
        (
            "y just beyond the coordinate bound",
            "NumCells 2\nCellPos u0 1 2 0.5\nCellPos u1 3 -9007199254740994 0\n",
            "line 3: y `-9007199254740994` is beyond the coordinate bound 2^53",
        ),
    ];
    let at_bound =
        "NumCells 2\nCellPos u0 9007199254740992 -9007199254740992 1\nCellPos u1 3 4 0\n";
    assert!(parse_placement3d(&d, at_bound).is_ok());
    for (what, text, want) in table {
        let err = parse_placement3d(&d, text).unwrap_err();
        assert_eq!(&err.to_string(), want, "{what}");
    }
}

#[test]
fn malformed_legal_files_report_the_pinned_error() {
    let d = design();
    let legal = "TopDiePlacement 1\nInst u0 0 0\nBottomDiePlacement 1\nInst u1 0 12\n";
    assert!(parse_legal(&d, legal).is_ok());
    let table: &[(&str, &str, &str)] = &[
        (
            "unknown cell",
            "TopDiePlacement 1\nInst zz 0 0\nBottomDiePlacement 1\nInst u1 0 12\n",
            "line 2: unknown cell `zz`",
        ),
        (
            "cell placed twice",
            "TopDiePlacement 1\nInst u1 0 0\nBottomDiePlacement 1\nInst u1 0 12\n",
            "line 4: cell `u1` placed twice",
        ),
        (
            "count mismatch",
            "TopDiePlacement 0\nBottomDiePlacement 1\nInst u1 0 12\n",
            "line 3: 1 cells placed, design has 2",
        ),
        (
            "wrong section keyword",
            "TopDiePlacement 1\nInst u0 0 0\nMiddleDiePlacement 1\n",
            "line 3: expected `BottomDiePlacement`, found `MiddleDiePlacement`",
        ),
        (
            "too few fields",
            "TopDiePlacement 1\nInst u0 0\n",
            "line 2: expected 4 fields, found 3",
        ),
        (
            "too many fields",
            "TopDiePlacement 1\nInst u0 0 0 1 2 3 4 5 6 7 8\n",
            "line 2: expected 4 fields, found 12",
        ),
        (
            "truncated",
            "TopDiePlacement 1\nInst u0 0 0\n# end\n",
            "line 4: expected BottomDiePlacement, found end of file",
        ),
        (
            "x beyond the coordinate bound",
            "TopDiePlacement 1\nInst u0 9007199254740993 0\n",
            "line 2: x `9007199254740993` is beyond the coordinate bound 2^53",
        ),
    ];
    for (what, text, want) in table {
        let err = parse_legal(&d, text).unwrap_err();
        assert_eq!(&err.to_string(), want, "{what}");
    }
}

#[test]
fn malformed_move_lists_report_the_pinned_error() {
    let d = design();
    assert_eq!(
        parse_moves(&d, "NumMoves 1\nMove u0 10 0\n").unwrap().len(),
        1
    );
    let table: &[(&str, &str, &str)] = &[
        (
            "trailing line",
            "NumMoves 1\nMove u0 10 0\nMove u1 3 4\n",
            "line 3: unexpected trailing line `Move u1 3 4`",
        ),
        (
            "trailing line with irregular spacing and many tokens",
            "NumMoves 1\nMove u0 10 0\n\n  Move\tu1   3 4 5 6 7 8 9 10 11 12  \n",
            "line 4: unexpected trailing line `Move u1 3 4 5 6 7 8 9 10 11 12`",
        ),
        (
            "too many fields",
            "NumMoves 1\nMove u0 10 0 1 2 3 4 5 6 7 8\n",
            "line 2: expected 4 or 5 fields, found 12",
        ),
        (
            "too few fields",
            "NumMoves 1\nMove u0 10\n",
            "line 2: expected 4 or 5 fields, found 3",
        ),
        (
            "unknown cell",
            "NumMoves 1\nMove mc0 10 0\n",
            "line 2: unknown cell `mc0`",
        ),
        (
            "cell moved twice",
            "NumMoves 2\nMove u0 10 0\nMove u0 20 0\n",
            "line 3: cell `u0` moved twice",
        ),
        (
            "die out of range",
            "NumMoves 1\nMove u0 10 0 2\n",
            "line 2: die 2 out of range (design has 2)",
        ),
        (
            "count larger than the list",
            "NumMoves 2\nMove u0 10 0\n",
            "line 3: expected Move, found end of file",
        ),
        (
            "count no memory could hold",
            "NumMoves 100000000000\nMove u0 10 0\n",
            "line 3: expected Move, found end of file",
        ),
        (
            "x beyond the coordinate bound",
            "NumMoves 1\nMove u0 9223372036854775000 0\n",
            "line 2: x `9223372036854775000` is beyond the coordinate bound 2^53",
        ),
        (
            "y just beyond the coordinate bound",
            "NumMoves 1\nMove u0 10 -9007199254740993 1\n",
            "line 2: y `-9007199254740993` is beyond the coordinate bound 2^53",
        ),
    ];
    assert!(parse_moves(
        &d,
        "NumMoves 1\nMove u0 9007199254740992 -9007199254740992\n"
    )
    .is_ok());
    for (what, text, want) in table {
        let err = parse_moves(&d, text).unwrap_err();
        assert_eq!(&err.to_string(), want, "{what}");
    }
}

/// A global-placement file in any line order names the same cells.
#[test]
fn gp_line_order_does_not_change_the_placement() {
    let case = GeneratorConfig::small_demo(7).generate().unwrap();
    let d = &case.design;
    let global = GlobalPlacer::new(GpConfig::default()).place_from(d, &case.natural);
    let mut text = String::new();
    flow3d::io::write_placement3d(d, &global, &mut text).unwrap();
    let in_order = parse_placement3d(d, &text).unwrap();

    let mut lines: Vec<&str> = text.lines().collect();
    let (header, body) = lines.split_at_mut(1);
    assert!(body.len() > 3 && header[0].starts_with("NumCells"));

    // Two lines swapped.
    let mut swapped = body.to_vec();
    swapped.swap(0, body.len() - 2);
    let swapped_text = format!("{}\n{}\n", header[0], swapped.join("\n"));
    assert_eq!(parse_placement3d(d, &swapped_text).unwrap(), in_order);

    // A full shuffle (a fixed-seed Fisher-Yates over the body lines).
    let mut shuffled = body.to_vec();
    let mut state = 0x9e37_79b9_7f4a_7c15_u64;
    for i in (1..shuffled.len()).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = (state >> 33) as usize % (i + 1);
        shuffled.swap(i, j);
    }
    assert_ne!(shuffled, body.to_vec());
    let shuffled_text = format!("{}\n{}\n", header[0], shuffled.join("\n"));
    assert_eq!(parse_placement3d(d, &shuffled_text).unwrap(), in_order);

    // A cell listed twice is still caught when the repeat sits at the
    // position of another cell.
    let mut dup = body.to_vec();
    dup[1] = body[0];
    let dup_text = format!("{}\n{}\n", header[0], dup.join("\n"));
    let err = parse_placement3d(d, &dup_text).unwrap_err();
    let name = &d.cell(CellId::new(0)).name;
    assert_eq!(
        err.to_string(),
        format!("line 3: cell `{name}` placed twice")
    );
}
