//! Streaming case reader for million-cell files, and the one tokenizer
//! every format in this crate reads through.
//!
//! [`parse_case_reader`] parses the case grammar from any [`BufRead`]
//! source **line by line with one reusable buffer**, resolving names to
//! ids as they stream past and handing the finished, id-indexed parts to
//! [`Design::from_resolved`]. The only instance-scale map it builds is
//! the design's own hashed name index ([`InstIndex`]): each instance
//! costs one probe to insert (which is also its duplicate check) and
//! each net pin one probe to resolve. Library-scale metadata (dozens of
//! entries) stays in ordered maps. There is no whole-file buffer and no
//! intermediate map.
//!
//! `Lines` splits each line into a fixed array of tokens instead of a
//! `Vec`, so reading allocates nothing per line beyond the names it
//! keeps. The global-placement, legal and move-list readers run the
//! same `Lines` over `text.as_bytes()`, so every format skips comments,
//! counts lines and words its errors the same way.
//!
//! Robustness: malformed input of any shape — truncation, oversized
//! counts, duplicate instances, bytes that are not UTF-8 — returns a
//! typed [`IoError`]; the reader never panics and never preallocates
//! more than a clamped capacity from a file-supplied count.

use crate::error::IoError;
use flow3d_db::{
    CellId, Design, DieId, DieSpec, InstIndex, InstRef, LibCellId, LibCellSpec, MacroId, MacroInst,
    Net, PinRef, ResolvedCase, TechnologySpec, MAX_COORD,
};
use flow3d_geom::Point;
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::io::BufRead;
use std::str::FromStr;

/// Upper bound on any `Vec::with_capacity` derived from a count read
/// out of the file, so an oversized or hostile count cannot force a
/// huge allocation up front; the vectors still grow to the real size.
const CAPACITY_CLAMP: usize = 1 << 20;

/// How the coordinate readers word a value above [`MAX_COORD`] in
/// magnitude.
const BEYOND_MAX_COORD: &str = "is beyond the coordinate bound 2^53";

/// Most tokens a line of any of the four formats carries (`LibCell` and
/// the `*DieRows` lines have six). Tokens past this are counted, not
/// stored.
const MAX_TOKENS: usize = 8;

/// The whitespace tokens of one line: the first [`MAX_TOKENS`] in a
/// fixed array, plus the full count, so a line with too many fields
/// still reports how many it had.
pub(crate) struct Tokens<'a> {
    toks: [&'a str; MAX_TOKENS],
    count: usize,
}

impl<'a> Tokens<'a> {
    fn stored(&self) -> &[&'a str] {
        &self.toks[..self.count.min(MAX_TOKENS)]
    }

    /// Number of tokens on the line, stored or not.
    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// Token `idx`, if the line has it and it is stored.
    pub(crate) fn get(&self, idx: usize) -> Option<&'a str> {
        self.stored().get(idx).copied()
    }

    /// The line's keyword (first token).
    pub(crate) fn first(&self) -> Option<&'a str> {
        self.get(0)
    }
}

impl<'a> std::ops::Index<usize> for Tokens<'a> {
    type Output = &'a str;

    fn index(&self, idx: usize) -> &&'a str {
        &self.stored()[idx]
    }
}

/// Line-oriented token source over any [`BufRead`], tracking 1-based
/// line numbers and skipping blank and `#`-comment lines. One `String`
/// buffer is reused for every line, and [`Lines::tokens`] splits it
/// without allocating. All four formats read through it: case files
/// from any source, the others over `text.as_bytes()`.
pub(crate) struct Lines<R> {
    src: R,
    buf: String,
    /// 1-based number of the line currently in `buf`.
    line_no: usize,
}

impl<R: BufRead> Lines<R> {
    pub(crate) fn new(src: R) -> Self {
        Self {
            src,
            buf: String::new(),
            line_no: 0,
        }
    }

    /// Advances to the next significant line. `Ok(false)` at end of
    /// input; a typed error for unreadable or non-UTF-8 bytes.
    pub(crate) fn advance(&mut self) -> Result<bool, IoError> {
        loop {
            self.buf.clear();
            let n = self.src.read_line(&mut self.buf).map_err(|e| {
                if e.kind() == std::io::ErrorKind::InvalidData {
                    IoError::parse(self.line_no + 1, "line is not valid UTF-8")
                } else {
                    IoError::Read(e)
                }
            })?;
            if n == 0 {
                return Ok(false);
            }
            self.line_no += 1;
            let t = self.buf.trim();
            if !t.is_empty() && !t.starts_with('#') {
                return Ok(true);
            }
        }
    }

    /// Advances, turning end-of-input into a parse error naming what was
    /// expected.
    pub(crate) fn expect_next(&mut self, expected: &str) -> Result<(), IoError> {
        if self.advance()? {
            Ok(())
        } else {
            Err(IoError::parse(
                self.line_no + 1,
                format!("expected {expected}, found end of file"),
            ))
        }
    }

    /// Whitespace tokens of the current line.
    pub(crate) fn tokens(&self) -> Tokens<'_> {
        let mut t = Tokens {
            toks: [""; MAX_TOKENS],
            count: 0,
        };
        for tok in self.buf.split_whitespace() {
            if let Some(slot) = t.toks.get_mut(t.count) {
                *slot = tok;
            }
            t.count += 1;
        }
        t
    }

    /// The current line without surrounding whitespace.
    pub(crate) fn line(&self) -> &str {
        self.buf.trim()
    }

    pub(crate) fn err(&self, message: impl Into<String>) -> IoError {
        IoError::parse(self.line_no, message)
    }

    /// Asserts the first token equals `keyword`.
    pub(crate) fn keyword(&self, tokens: &Tokens<'_>, keyword: &str) -> Result<(), IoError> {
        if tokens.first() != Some(keyword) {
            return Err(self.err(format!(
                "expected `{keyword}`, found `{}`",
                tokens.first().unwrap_or("")
            )));
        }
        Ok(())
    }

    /// Parses token `idx` as `T`.
    pub(crate) fn field<T: FromStr>(
        &self,
        tokens: &Tokens<'_>,
        idx: usize,
        what: &str,
    ) -> Result<T, IoError> {
        let tok = tokens
            .get(idx)
            .ok_or_else(|| self.err(format!("missing {what} (field {idx})")))?;
        tok.parse()
            .map_err(|_| self.err(format!("cannot parse {what} from `{tok}`")))
    }

    /// Parses token `idx` as a finite `f64`.
    pub(crate) fn finite(&self, toks: &Tokens<'_>, idx: usize, what: &str) -> Result<f64, IoError> {
        let v: f64 = self.field(toks, idx, what)?;
        if !v.is_finite() {
            return Err(self.err(format!("{what} `{}` is not finite", toks[idx])));
        }
        Ok(v)
    }

    /// Parses token `idx` as a finite `f64` of at most [`MAX_COORD`] in
    /// magnitude.
    pub(crate) fn coord(&self, toks: &Tokens<'_>, idx: usize, what: &str) -> Result<f64, IoError> {
        let v = self.finite(toks, idx, what)?;
        if v.abs() > MAX_COORD as f64 {
            return Err(self.err(format!("{what} `{}` {BEYOND_MAX_COORD}", toks[idx])));
        }
        Ok(v)
    }

    /// Parses token `idx` as an `i64` of at most [`MAX_COORD`] in
    /// magnitude.
    pub(crate) fn int_coord(
        &self,
        toks: &Tokens<'_>,
        idx: usize,
        what: &str,
    ) -> Result<i64, IoError> {
        let v: i64 = self.field(toks, idx, what)?;
        if v.unsigned_abs() > MAX_COORD.unsigned_abs() {
            return Err(self.err(format!("{what} `{}` {BEYOND_MAX_COORD}", toks[idx])));
        }
        Ok(v)
    }

    /// Checks the line has exactly `n` tokens.
    pub(crate) fn expect_len(&self, tokens: &Tokens<'_>, n: usize) -> Result<(), IoError> {
        if tokens.len() != n {
            return Err(self.err(format!("expected {n} fields, found {}", tokens.len())));
        }
        Ok(())
    }
}

/// Library-scale metadata captured from the canonical (first)
/// technology while it streams past, for resolving instances and net
/// pins later without re-reading anything.
struct LibMeta {
    name: String,
    is_macro: bool,
    /// Pin name → pin index.
    pins: BTreeMap<String, usize>,
}

/// Parses a case file from any buffered byte source into a validated
/// [`Design`], streaming: one reusable line buffer, names resolved to
/// ids on the fly, no whole-file buffer and no instance-scale
/// intermediate maps (see the module docs at the top of `stream.rs`).
///
/// Accepts exactly the grammar of [`parse_case`](crate::parse_case)
/// (which is implemented on top of this reader) and produces an
/// identical [`Design`] for identical input.
///
/// # Errors
///
/// [`IoError::Parse`] with a line number for syntax errors, malformed
/// counts, duplicate or unknown names, and non-UTF-8 bytes;
/// [`IoError::Read`] if the underlying reader fails; [`IoError::Db`] if
/// the file describes an inconsistent design.
pub fn parse_case_reader<R: BufRead>(src: R) -> Result<Design, IoError> {
    let mut r = Lines::new(src);

    // --- Optional design name, then technologies --------------------------
    r.expect_next("DesignName or NumTechnologies")?;
    let mut toks = r.tokens();
    let mut design_name = String::from("case");
    if toks.first() == Some("DesignName") {
        design_name = r.field(&toks, 1, "design name")?;
        r.expect_next("NumTechnologies")?;
        toks = r.tokens();
    }
    r.keyword(&toks, "NumTechnologies")?;
    let num_techs: usize = r.field(&toks, 1, "technology count")?;

    let mut tech_specs: Vec<TechnologySpec> = Vec::with_capacity(num_techs.min(64));
    // Canonical lib-cell metadata from the first technology; the
    // database validates that later technologies stay aligned.
    let mut libs: Vec<LibMeta> = Vec::new();
    let mut lib_ids: BTreeMap<String, LibCellId> = BTreeMap::new();

    for t in 0..num_techs {
        r.expect_next("Tech")?;
        let toks = r.tokens();
        r.keyword(&toks, "Tech")?;
        let tech_name: String = r.field(&toks, 1, "technology name")?;
        let num_cells: usize = r.field(&toks, 2, "lib cell count")?;
        let mut spec = TechnologySpec::new(&tech_name);
        for _ in 0..num_cells {
            r.expect_next("LibCell")?;
            let toks = r.tokens();
            r.keyword(&toks, "LibCell")?;
            r.expect_len(&toks, 6)?;
            let macro_flag = match toks[1] {
                "Y" => true,
                "N" => false,
                other => {
                    return Err(r.err(format!("macro flag must be Y or N, found `{other}`")));
                }
            };
            let name: String = r.field(&toks, 2, "lib cell name")?;
            let sx: i64 = r.field(&toks, 3, "sizeX")?;
            let sy: i64 = r.field(&toks, 4, "sizeY")?;
            let num_pins: usize = r.field(&toks, 5, "pin count")?;
            let mut cell = if macro_flag {
                LibCellSpec::macro_cell(&name, sx, sy)
            } else {
                LibCellSpec::std_cell(&name, sx, sy)
            };
            let mut pin_index: BTreeMap<String, usize> = BTreeMap::new();
            for p in 0..num_pins {
                r.expect_next("Pin")?;
                let toks = r.tokens();
                r.keyword(&toks, "Pin")?;
                r.expect_len(&toks, 4)?;
                let pname: String = r.field(&toks, 1, "pin name")?;
                let dx: i64 = r.field(&toks, 2, "pin offsetX")?;
                let dy: i64 = r.field(&toks, 3, "pin offsetY")?;
                cell = cell.pin(&pname, dx, dy);
                if t == 0 {
                    pin_index.insert(pname, p);
                }
            }
            if t == 0 {
                lib_ids.insert(name.clone(), LibCellId::new(libs.len()));
                libs.push(LibMeta {
                    name,
                    is_macro: macro_flag,
                    pins: pin_index,
                });
            }
            spec = spec.lib_cell(cell);
        }
        tech_specs.push(spec);
    }

    // --- Die description ---------------------------------------------------
    r.expect_next("DieSize")?;
    let toks = r.tokens();
    r.keyword(&toks, "DieSize")?;
    let die_rect: (i64, i64, i64, i64) = (
        r.field(&toks, 1, "die xlo")?,
        r.field(&toks, 2, "die ylo")?,
        r.field(&toks, 3, "die xhi")?,
        r.field(&toks, 4, "die yhi")?,
    );

    let mut top_util = 100.0f64;
    let mut bottom_util = 100.0f64;
    let mut top_rows: Option<(i64, i64, i64, i64, i64)> = None;
    let mut bottom_rows: Option<(i64, i64, i64, i64, i64)> = None;
    let mut top_tech: Option<String> = None;
    let mut bottom_tech: Option<String> = None;
    let mut top_site = 1i64;
    let mut bottom_site = 1i64;

    let num_instances = loop {
        r.expect_next("die description or NumInstances")?;
        let toks = r.tokens();
        match toks[0] {
            "TopDieMaxUtil" => top_util = r.field(&toks, 1, "top utilization")?,
            "BottomDieMaxUtil" => bottom_util = r.field(&toks, 1, "bottom utilization")?,
            "TopDieRows" | "BottomDieRows" => {
                let rows = (
                    r.field(&toks, 1, "row startX")?,
                    r.field(&toks, 2, "row startY")?,
                    r.field(&toks, 3, "row length")?,
                    r.field(&toks, 4, "row height")?,
                    r.field(&toks, 5, "row repeat")?,
                );
                if toks[0] == "TopDieRows" {
                    top_rows = Some(rows);
                } else {
                    bottom_rows = Some(rows);
                }
            }
            "TopDieTech" => top_tech = Some(r.field(&toks, 1, "top technology")?),
            "BottomDieTech" => bottom_tech = Some(r.field(&toks, 1, "bottom technology")?),
            "TopDieSiteWidth" => top_site = r.field(&toks, 1, "top site width")?,
            "BottomDieSiteWidth" => bottom_site = r.field(&toks, 1, "bottom site width")?,
            "TerminalSize" | "TerminalSpacing" | "TerminalCost" => {
                // Hybrid-bonding terminal parameters: accepted, not used by
                // the legalizer (terminal assignment is a separate problem).
            }
            "NumInstances" => break r.field::<usize>(&toks, 1, "instance count")?,
            other => {
                return Err(r.err(format!("unexpected keyword `{other}` in die description")));
            }
        }
    };

    let line_no = r.line_no;
    let missing =
        |what: &str| IoError::parse(line_no, format!("missing {what} before NumInstances"));
    let top_rows = top_rows.ok_or_else(|| missing("TopDieRows"))?;
    let bottom_rows = bottom_rows.ok_or_else(|| missing("BottomDieRows"))?;
    let top_tech = top_tech.ok_or_else(|| missing("TopDieTech"))?;
    let bottom_tech = bottom_tech.ok_or_else(|| missing("BottomDieTech"))?;

    // The contest format defines each die's outline as the DieSize rect;
    // the rows line contributes the row height (rows fill the outline,
    // flooring). Deriving the outline from `startY + height * repeat`
    // instead would clip it whenever the outline height is not an exact
    // multiple of the row height — which heterogeneous row-height pairs
    // (92 vs 115) hit on one of the two dies.
    let die_spec =
        |name: &str, tech: &str, rows: (i64, i64, i64, i64, i64), site: i64, util: f64| {
            let (_sx, _sy, _len, h, _rep) = rows;
            DieSpec::new(name, tech, die_rect, h, site, util / 100.0)
        };
    // Die 0 = bottom, die 1 = top.
    let dies = vec![
        die_spec(
            "bottom",
            &bottom_tech,
            bottom_rows,
            bottom_site,
            bottom_util,
        ),
        die_spec("top", &top_tech, top_rows, top_site, top_util),
    ];

    // --- Instances ----------------------------------------------------------
    // Resolved on the fly into the design's own name index, one probe per
    // instance: standard cells take ids in file order, macros are staged
    // by id until their positions arrive.
    let mut index = InstIndex::with_capacity(num_instances.min(CAPACITY_CLAMP));
    let mut cell_libs: Vec<LibCellId> = Vec::with_capacity(num_instances.min(CAPACITY_CLAMP));
    let mut macro_libs: Vec<(String, LibCellId)> = Vec::new();
    for _ in 0..num_instances {
        r.expect_next("Inst")?;
        let toks = r.tokens();
        r.keyword(&toks, "Inst")?;
        r.expect_len(&toks, 3)?;
        let name = toks[1];
        let lib_name = toks[2];
        let &lib = lib_ids
            .get(lib_name)
            .ok_or_else(|| r.err(format!("unknown lib cell `{lib_name}`")))?;
        let is_macro = libs[lib.index()].is_macro;
        let id = if is_macro {
            InstRef::Macro(MacroId::new(macro_libs.len()))
        } else {
            InstRef::Cell(CellId::new(cell_libs.len()))
        };
        let Entry::Vacant(slot) = index.entry(name.to_owned()) else {
            return Err(r.err(format!("duplicate instance `{name}`")));
        };
        slot.insert(id);
        if is_macro {
            macro_libs.push((name.to_owned(), lib));
        } else {
            cell_libs.push(lib);
        }
    }

    // --- Nets ----------------------------------------------------------------
    r.expect_next("NumNets")?;
    let toks = r.tokens();
    r.keyword(&toks, "NumNets")?;
    let num_nets: usize = r.field(&toks, 1, "net count")?;
    let mut nets: Vec<Net> = Vec::with_capacity(num_nets.min(CAPACITY_CLAMP));
    for _ in 0..num_nets {
        r.expect_next("Net")?;
        let toks = r.tokens();
        r.keyword(&toks, "Net")?;
        let net_name: String = r.field(&toks, 1, "net name")?;
        let num_pins: usize = r.field(&toks, 2, "net pin count")?;
        let mut pins: Vec<PinRef> = Vec::with_capacity(num_pins.min(CAPACITY_CLAMP));
        for _ in 0..num_pins {
            r.expect_next("Pin")?;
            let toks = r.tokens();
            r.keyword(&toks, "Pin")?;
            r.expect_len(&toks, 2)?;
            let spec = toks[1];
            let (inst, pin_name) = spec
                .split_once('/')
                .ok_or_else(|| r.err(format!("pin `{spec}` missing `/` separator")))?;
            let (inst, lib) = match index.get(inst) {
                Some(&InstRef::Cell(c)) => (InstRef::Cell(c), cell_libs[c.index()]),
                Some(&InstRef::Macro(m)) => (InstRef::Macro(m), macro_libs[m.index()].1),
                None => return Err(r.err(format!("pin references unknown instance `{inst}`"))),
            };
            let meta = &libs[lib.index()];
            let pin = *meta.pins.get(pin_name).ok_or_else(|| {
                r.err(format!("lib cell `{}` has no pin `{pin_name}`", meta.name))
            })?;
            pins.push(PinRef { inst, pin });
        }
        nets.push(Net {
            name: net_name,
            pins,
        });
    }

    // --- Fixed macro positions (extension section) ----------------------------
    let mut macro_pos: Vec<Option<(Point, DieId)>> = vec![None; macro_libs.len()];
    if r.advance()? {
        let toks = r.tokens();
        r.keyword(&toks, "NumMacroPositions")?;
        let n: usize = r.field(&toks, 1, "macro position count")?;
        for _ in 0..n {
            r.expect_next("MacroPos")?;
            let toks = r.tokens();
            r.keyword(&toks, "MacroPos")?;
            r.expect_len(&toks, 5)?;
            let name = toks[1];
            let x: i64 = r.field(&toks, 2, "macro x")?;
            let y: i64 = r.field(&toks, 3, "macro y")?;
            let die = match toks[4] {
                "top" => DieId::TOP,
                "bottom" => DieId::BOTTOM,
                other => {
                    return Err(r.err(format!(
                        "macro die must be `top` or `bottom`, found `{other}`"
                    )));
                }
            };
            let Some(&InstRef::Macro(m)) = index.get(name) else {
                return Err(r.err(format!("MacroPos for unknown macro `{name}`")));
            };
            // A repeated MacroPos keeps the last entry, like the
            // historical parser's staging map.
            macro_pos[m.index()] = Some((Point::new(x, y), die));
        }
    }
    let mut macros: Vec<MacroInst> = Vec::with_capacity(macro_libs.len());
    for ((name, lib_cell), pos) in macro_libs.into_iter().zip(macro_pos) {
        let Some((pos, die)) = pos else {
            return Err(IoError::parse(
                r.line_no,
                format!("macro instance `{name}` has no MacroPos entry"),
            ));
        };
        macros.push(MacroInst {
            name,
            lib_cell,
            die,
            pos,
        });
    }

    Ok(Design::from_resolved(ResolvedCase {
        name: design_name,
        techs: tech_specs,
        dies,
        cell_libs,
        index,
        macros,
        nets,
    })?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skips_blank_and_comment_lines() {
        let mut r = Lines::new("\n# comment\n  a b \n\nc\n".as_bytes());
        assert!(r.advance().unwrap());
        let toks = r.tokens();
        assert_eq!((toks.len(), toks[0], toks[1]), (2, "a", "b"));
        assert_eq!(r.line_no, 3);
        assert!(r.advance().unwrap());
        assert_eq!(r.tokens()[0], "c");
        assert!(!r.advance().unwrap());
    }

    #[test]
    fn field_errors_carry_line_numbers() {
        let mut r = Lines::new("Inst u0\n".as_bytes());
        r.expect_next("Inst").unwrap();
        let toks = r.tokens();
        let err = r.field::<i64>(&toks, 1, "x").unwrap_err();
        assert_eq!(err.to_string(), "line 1: cannot parse x from `u0`");
        let err = r.field::<i64>(&toks, 5, "x").unwrap_err();
        assert_eq!(err.to_string(), "line 1: missing x (field 5)");
    }

    #[test]
    fn keyword_mismatch() {
        let mut r = Lines::new("Foo 1\n".as_bytes());
        r.expect_next("Foo").unwrap();
        let toks = r.tokens();
        assert!(r.keyword(&toks, "Bar").is_err());
        assert!(r.keyword(&toks, "Foo").is_ok());
    }

    #[test]
    fn tokens_past_the_array_are_counted_not_stored() {
        let mut r = Lines::new("a b c d e f g h i j\n".as_bytes());
        r.expect_next("a").unwrap();
        let toks = r.tokens();
        assert_eq!(toks.len(), 10);
        assert_eq!(toks.get(MAX_TOKENS - 1), Some("h"));
        assert_eq!(toks.get(MAX_TOKENS), None);
        let err = r.expect_len(&toks, 3).unwrap_err();
        assert_eq!(err.to_string(), "line 1: expected 3 fields, found 10");
    }
}
