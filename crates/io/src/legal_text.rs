//! Rendering legal-placement text: one line formatter behind
//! [`write_legal`], and [`LegalText`], which renders a placement that
//! differs from a kept base in few cells by copying the base text
//! between the changed cells.

use crate::error::IoError;
use flow3d_db::{CellId, Design, DieId, LegalPlacement};
use flow3d_geom::Point;
use std::fmt::Write;

/// The two sections of a legal file, in file order.
const SECTIONS: [(&str, DieId); 2] = [
    ("TopDiePlacement", DieId::TOP),
    ("BottomDiePlacement", DieId::BOTTOM),
];

/// `"00" "01" … "99"`: two decimal digits per lookup.
const DIGIT_PAIRS: &[u8; 200] = b"\
0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Appends `n` in decimal, two digits at a time.
fn push_u64(out: &mut Vec<u8>, mut n: u64) {
    // u64::MAX has 20 digits.
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    while n >= 100 {
        let d = (n % 100) as usize * 2;
        n /= 100;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    }
    if n >= 10 {
        let d = n as usize * 2;
        i -= 2;
        buf[i..i + 2].copy_from_slice(&DIGIT_PAIRS[d..d + 2]);
    } else {
        i -= 1;
        buf[i] = b'0' + n as u8;
    }
    out.extend_from_slice(&buf[i..]);
}

/// Appends `v` in decimal, byte for byte as `{}` prints an `i64`.
fn push_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
    }
    push_u64(out, v.unsigned_abs());
}

/// Appends one `Inst <name> <x> <y>` line.
fn push_line(out: &mut Vec<u8>, name: &str, p: Point) {
    out.extend_from_slice(b"Inst ");
    out.extend_from_slice(name.as_bytes());
    out.push(b' ');
    push_i64(out, p.x);
    out.push(b' ');
    push_i64(out, p.y);
    out.push(b'\n');
}

/// Appends a section header, `<keyword> <count>`.
fn push_header(out: &mut Vec<u8>, keyword: &str, count: usize) {
    out.extend_from_slice(keyword.as_bytes());
    out.push(b' ');
    push_u64(out, count as u64);
    out.push(b'\n');
}

/// The legal text of `placement`, every line formatted. With `at`, each
/// section records, for every cell id `c` and past the last one, the
/// byte offset at which the section's first cell of id `c` or above
/// starts (the layout [`LegalText`] keeps).
fn render_all(
    design: &Design,
    placement: &LegalPlacement,
    mut at: Option<&mut [Vec<usize>; 2]>,
) -> String {
    let n = design.num_cells();
    let mut out = Vec::with_capacity(32 * n + 64);
    for (s, (keyword, die)) in SECTIONS.into_iter().enumerate() {
        let on_die = |i: usize| placement.die(CellId::new(i)) == die;
        push_header(&mut out, keyword, (0..n).filter(|&i| on_die(i)).count());
        for (i, cell) in design.cells().iter().enumerate() {
            if let Some(at) = at.as_deref_mut() {
                at[s].push(out.len());
            }
            if on_die(i) {
                push_line(&mut out, &cell.name, placement.pos(CellId::new(i)));
            }
        }
        if let Some(at) = at.as_deref_mut() {
            at[s].push(out.len());
        }
    }
    // flow3d-tidy: allow(panic-unwrap) — invariant: the text joins ASCII and design names (`&str`)
    String::from_utf8(out).expect("legal text is UTF-8")
}

/// Writes a legal placement in the format of
/// [`parse_legal`](crate::parse_legal).
///
/// # Errors
///
/// Only fails if the underlying [`Write`] sink fails.
pub fn write_legal(
    design: &Design,
    placement: &LegalPlacement,
    out: &mut impl Write,
) -> Result<(), IoError> {
    out.write_str(&render_all(design, placement, None))?;
    Ok(())
}

/// The legal text of one base placement, kept to render placements
/// that differ from the base in few cells.
///
/// [`render`](Self::render) returns exactly what [`write_legal`] writes
/// for any placement of the design: it copies the base text between the
/// cells whose position or die changed, and formats only those cells'
/// lines. It compares against its own copy of the base, so a
/// `LegalText` whose base has gone stale costs speed, never bytes.
#[derive(Debug)]
pub struct LegalText {
    /// `write_legal` of the base.
    text: String,
    base: LegalPlacement,
    /// Per section and cell id `c` (plus one past the last), the offset
    /// in `text` of the section's first line of a cell with id `c` or
    /// above: a base cell's line spans `at[s][c]..at[s][c + 1]`, and a
    /// cell not in the section would be inserted at `at[s][c]`.
    at: [Vec<usize>; 2],
    /// Base cells per section.
    counts: [usize; 2],
}

impl LegalText {
    /// Renders `base` and keeps it with its line offsets.
    pub fn new(design: &Design, base: &LegalPlacement) -> LegalText {
        let n = design.num_cells();
        let mut at = [Vec::with_capacity(n + 1), Vec::with_capacity(n + 1)];
        let text = render_all(design, base, Some(&mut at));
        let counts = SECTIONS.map(|(_, die)| base.iter().filter(|&(_, _, d)| d == die).count());
        LegalText {
            text,
            base: base.clone(),
            at,
            counts,
        }
    }

    /// Keeps `text`, which must be [`write_legal`] of `base`, without
    /// formatting a line again: the line offsets are re-derived from the
    /// line starts of `text`. A caller that has just rendered `base` (a
    /// committed reply, say) adopts that text instead of rendering it
    /// twice.
    pub fn adopt(design: &Design, base: &LegalPlacement, text: String) -> LegalText {
        let n = design.num_cells();
        let bytes = text.as_bytes();
        // The start of the line after the one starting at `from`.
        let next_line = |from: usize| {
            bytes[from..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(bytes.len(), |i| from + i + 1)
        };
        let mut at = [Vec::with_capacity(n + 1), Vec::with_capacity(n + 1)];
        let mut counts = [0; 2];
        let mut cursor = 0;
        for (s, (_, die)) in SECTIONS.into_iter().enumerate() {
            cursor = next_line(cursor); // the section header
            for i in 0..n {
                at[s].push(cursor);
                if base.die(CellId::new(i)) == die {
                    cursor = next_line(cursor);
                    counts[s] += 1;
                }
            }
            at[s].push(cursor);
        }
        debug_assert_eq!(text, render_all(design, base, None), "adopted text");
        LegalText {
            text,
            base: base.clone(),
            at,
            counts,
        }
    }

    /// The legal text of `placement`, byte-identical to [`write_legal`].
    /// `design` must be the design this base was built for.
    pub fn render(&self, design: &Design, placement: &LegalPlacement) -> String {
        let n = design.num_cells();
        if placement.num_cells() != n || self.base.num_cells() != n {
            return render_all(design, placement, None);
        }
        let changed: Vec<CellId> = placement
            .iter()
            .zip(self.base.iter())
            .filter(|((_, p, d), (_, bp, bd))| p != bp || d != bd)
            .map(|((c, _, _), _)| c)
            .collect();
        let text = self.text.as_bytes();
        let mut out = Vec::with_capacity(text.len() + 64 * changed.len() + 64);
        for (s, (keyword, die)) in SECTIONS.into_iter().enumerate() {
            let at = &self.at[s];
            let entering = changed.iter().filter(|&&c| placement.die(c) == die).count();
            let leaving = changed.iter().filter(|&&c| self.base.die(c) == die).count();
            push_header(&mut out, keyword, self.counts[s] + entering - leaving);
            // Base bytes from `cursor` on are still to copy; each
            // changed cell copies up to its slot, skips its base line if
            // the section had one, and formats its new line if it has
            // one.
            let mut cursor = at[0];
            for &c in &changed {
                let i = c.index();
                out.extend_from_slice(&text[cursor..at[i]]);
                cursor = if self.base.die(c) == die {
                    at[i + 1]
                } else {
                    at[i]
                };
                if placement.die(c) == die {
                    push_line(&mut out, &design.cells()[i].name, placement.pos(c));
                }
            }
            out.extend_from_slice(&text[cursor..at[n]]);
        }
        // flow3d-tidy: allow(panic-unwrap) — invariant: whole lines of a `String`, ASCII and design names (`&str`)
        String::from_utf8(out).expect("legal text is UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow3d_db::{DesignBuilder, DieSpec, LibCellSpec, TechnologySpec, MAX_COORD};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    /// The `writeln!` renderer `write_legal` used before the line
    /// formatter: the byte reference for both renderers.
    fn reference(design: &Design, placement: &LegalPlacement) -> String {
        let mut out = String::new();
        for (keyword, die) in SECTIONS {
            let on_die: Vec<usize> = (0..design.num_cells())
                .filter(|&i| placement.die(CellId::new(i)) == die)
                .collect();
            writeln!(out, "{keyword} {}", on_die.len()).unwrap();
            for i in on_die {
                let p = placement.pos(CellId::new(i));
                writeln!(out, "Inst {} {} {}", design.cells()[i].name, p.x, p.y).unwrap();
            }
        }
        out
    }

    #[test]
    fn integers_print_as_display_does() {
        let mut values = vec![i64::MIN, i64::MIN + 1, i64::MAX, MAX_COORD, -MAX_COORD];
        let mut p = 1i64;
        loop {
            values.extend([p - 1, p, p + 1, -p, 1 - p]);
            match p.checked_mul(10) {
                Some(q) => p = q,
                None => break,
            }
        }
        for v in values {
            let mut out = Vec::new();
            push_i64(&mut out, v);
            assert_eq!(String::from_utf8(out).unwrap(), v.to_string());
        }
    }

    /// A coordinate: 0, small of either sign, ±2^53, or anything in
    /// between.
    fn coord(rng: &mut TestRng) -> i64 {
        match rng.below(5) {
            0 => 0,
            1 => rng.below(200) as i64 - 100,
            2 => [MAX_COORD, -MAX_COORD][rng.below(2) as usize],
            _ => rng.below(2 * MAX_COORD as u64 + 1) as i64 - MAX_COORD,
        }
    }

    /// A die: both at random, or all cells on one (an empty section).
    fn die(rng: &mut TestRng, only: Option<DieId>) -> DieId {
        only.unwrap_or_else(|| DieId::new(rng.below(2) as usize))
    }

    fn one_die(rng: &mut TestRng) -> Option<DieId> {
        match rng.below(4) {
            0 => Some(DieId::TOP),
            1 => Some(DieId::BOTTOM),
            _ => None,
        }
    }

    /// A design of up to 24 cells, a base placement, and a placement
    /// that differs from the base in no cell, some cells, or every cell,
    /// by position, by die (both ways) or both.
    struct ArbCase;

    impl Strategy for ArbCase {
        type Value = (Design, LegalPlacement, LegalPlacement);

        fn new_value(&self, rng: &mut TestRng) -> Self::Value {
            let n = rng.below(25) as usize;
            let mut b = DesignBuilder::new("t")
                .technology(TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("INV", 10, 12)))
                .die(DieSpec::new("bottom", "T", (0, 0, 100, 24), 12, 1, 1.0))
                .die(DieSpec::new("top", "T", (0, 0, 100, 24), 12, 1, 1.0));
            for i in 0..n {
                let name = match rng.below(3) {
                    0 => format!("u{i}"),
                    1 => format!("é_中_{i}"),
                    _ => format!("blk/sub_{}/cell{i}", rng.below(1000)),
                };
                b = b.cell(name, "INV");
            }
            let design = b.build().unwrap();
            let mut base = LegalPlacement::new(n);
            let only = one_die(rng);
            for i in 0..n {
                let p = Point::new(coord(rng), coord(rng));
                base.place(CellId::new(i), p, die(rng, only));
            }
            let mut placement = base.clone();
            let (share, only) = (rng.below(3), one_die(rng));
            for i in 0..n {
                let c = CellId::new(i);
                if share == 0 || (share == 1 && rng.below(4) != 0) {
                    continue;
                }
                let (mut p, mut d) = (base.pos(c), base.die(c));
                match rng.below(3) {
                    0 => p = Point::new(coord(rng), coord(rng)),
                    1 => d = DieId::new(1 - d.index()),
                    _ => {
                        p = Point::new(coord(rng), coord(rng));
                        d = die(rng, only);
                    }
                }
                placement.place(c, p, d);
            }
            (design, base, placement)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn rendering_from_a_base_matches_the_reference(case in ArbCase) {
            let (design, base, placement) = case;
            let want = reference(&design, &placement);
            let mut written = String::new();
            write_legal(&design, &placement, &mut written).unwrap();
            prop_assert_eq!(&written, &want);
            let kept = LegalText::new(&design, &base);
            prop_assert_eq!(&kept.text, &reference(&design, &base));
            prop_assert_eq!(&kept.render(&design, &placement), &want);
            // A base adopted from a render keeps the offsets `new`
            // derives, so it renders every later placement (here the
            // base, and the render's placement itself) as `write_legal`.
            let adopted = LegalText::adopt(&design, &placement, want.clone());
            prop_assert_eq!(&adopted.at, &LegalText::new(&design, &placement).at);
            prop_assert_eq!(&adopted.counts, &LegalText::new(&design, &placement).counts);
            prop_assert_eq!(&adopted.render(&design, &base), &reference(&design, &base));
            prop_assert_eq!(&adopted.render(&design, &placement), &want);
            // A stale base (here: the placement's own base for another
            // placement) still renders exact bytes.
            let swapped = LegalText::new(&design, &placement);
            prop_assert_eq!(&swapped.render(&design, &base), &reference(&design, &base));
        }
    }
}
