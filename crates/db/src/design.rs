//! The top-level design: instances, nets, dies and technologies.

use crate::die::{Die, MAX_ROWS_PER_DIE};
use crate::error::DbError;
use crate::ids::{CellId, DieId, LibCellId, MacroId, TechId};
use crate::tech::{LibCell, Technology, TechnologySpec};
use flow3d_geom::{Point, Rect};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BinaryHeap};

/// A movable standard-cell instance.
#[derive(Debug, Clone, PartialEq, Eq)]
// flow3d-tidy: allow(dead-pub) — design-database model type, part of the flow3d::db facade surface
pub struct CellInst {
    /// Instance name, unique among all instances.
    pub name: String,
    /// Library cell; the physical width depends on the die the cell is
    /// placed on (heterogeneous integration).
    pub lib_cell: LibCellId,
}

/// A fixed macro instance, pre-placed on a specific die.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacroInst {
    /// Instance name, unique among all instances.
    pub name: String,
    /// Library cell (must have [`LibCellKind::Macro`](crate::LibCellKind)).
    pub lib_cell: LibCellId,
    /// Die the macro is fixed on.
    pub die: DieId,
    /// Lower-left corner.
    pub pos: Point,
}

/// Reference to either a movable cell or a fixed macro.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstRef {
    /// A movable standard cell.
    Cell(CellId),
    /// A fixed macro.
    Macro(MacroId),
}

/// One pin connection of a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PinRef {
    /// The instance the pin belongs to.
    pub inst: InstRef,
    /// Pin index into the instance's library cell pin table.
    pub pin: usize,
}

/// Instance name → id, one entry per cell and per macro: the name index
/// a [`Design`] answers [`Design::cell_by_name`] and
/// [`Design::macro_by_name`] from, and that a streaming parser builds as
/// it reads (see [`ResolvedCase`]).
///
/// It is hashed with std's keyed SipHash (`RandomState`): instance names
/// are long runs of shared prefixes that defeat unkeyed multiplicative
/// hashes, and a fixed key would let a hostile case file force
/// collisions. It serves lookups; the one walk over it, in
/// [`Design::from_resolved`], only fills per-id slots, so its order
/// never reaches a result.
// flow3d-tidy: allow(unordered-map) — lookup-only name index; iteration order never reaches a result (see above)
pub type InstIndex = std::collections::HashMap<String, InstRef>;

/// Net names seen so far, for rejecting the first repeated net name
/// without cloning any.
// flow3d-tidy: allow(unordered-map) — duplicate-name membership test; never iterated
type NetNameSet<'a> = std::collections::HashSet<&'a str>;

/// A net connecting two or more pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Net {
    /// Net name, unique among nets.
    pub name: String,
    /// Connected pins.
    pub pins: Vec<PinRef>,
}

/// A complete design: the immutable netlist and floorplan a legalizer works
/// against. Build with [`DesignBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    name: String,
    techs: Vec<Technology>,
    dies: Vec<Die>,
    cells: Vec<CellInst>,
    macros: Vec<MacroInst>,
    nets: Vec<Net>,
    index: InstIndex,
    /// Width of every cell on every die, die-major
    /// (`die * num_cells + cell`): the hot path reads a heterogeneous
    /// stack's `w_c^+` / `w_c^-` with one load instead of chasing
    /// `cell -> lib cell -> die tech -> lib cell table`. Built by
    /// [`width_column`] from the fields above; never set otherwise.
    widths: Vec<i64>,
}

impl Design {
    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of movable standard cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of fixed macros.
    pub fn num_macros(&self) -> usize {
        self.macros.len()
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of dies in the stack.
    pub fn num_dies(&self) -> usize {
        self.dies.len()
    }

    /// All technologies, indexed by [`TechId`].
    pub fn techs(&self) -> &[Technology] {
        &self.techs
    }

    /// All dies, indexed by [`DieId`].
    pub fn dies(&self) -> &[Die] {
        &self.dies
    }

    /// All standard cells, indexed by [`CellId`].
    pub fn cells(&self) -> &[CellInst] {
        &self.cells
    }

    /// All macros, indexed by [`MacroId`].
    pub fn macros(&self) -> &[MacroInst] {
        &self.macros
    }

    /// All nets, indexed by [`NetId`](crate::NetId).
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// The die with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `die` is out of range.
    pub fn die(&self, die: DieId) -> &Die {
        &self.dies[die.index()]
    }

    /// The cell with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range.
    pub fn cell(&self, cell: CellId) -> &CellInst {
        &self.cells[cell.index()]
    }

    /// Looks up a cell id by instance name.
    pub fn cell_by_name(&self, name: &str) -> Option<CellId> {
        match self.index.get(name) {
            Some(&InstRef::Cell(c)) => Some(c),
            _ => None,
        }
    }

    /// Looks up a macro id by instance name.
    pub fn macro_by_name(&self, name: &str) -> Option<MacroId> {
        match self.index.get(name) {
            Some(&InstRef::Macro(m)) => Some(m),
            _ => None,
        }
    }

    /// The library-cell incarnation of `cell` on `die` (width differs per
    /// technology for heterogeneous stacks).
    pub fn lib_cell_on(&self, lib_cell: LibCellId, die: DieId) -> &LibCell {
        let tech = self.dies[die.index()].tech;
        &self.techs[tech.index()].lib_cells[lib_cell.index()]
    }

    /// Width of `cell` when placed on `die` — the paper's `w_c^+` / `w_c^-`.
    ///
    /// Reads the design's flat width column. Legality checkers read
    /// [`lib_cell_on`](Self::lib_cell_on) instead, so the column is
    /// never checked against itself.
    #[inline]
    pub fn cell_width(&self, cell: CellId, die: DieId) -> i64 {
        self.widths[die.index() * self.cells.len() + cell.index()]
    }

    /// Height of any standard cell on `die` (equals the die's row height).
    #[inline]
    pub fn cell_height(&self, die: DieId) -> i64 {
        self.dies[die.index()].row_height
    }

    /// Mean standard-cell width on `die`, the paper's `w̄_c`, used to choose
    /// bin widths (`w_v = 10·w̄_c` flow phase, `5·w̄_c` post-optimization).
    ///
    /// Returns the die's site width for a design without cells.
    pub fn avg_cell_width(&self, die: DieId) -> f64 {
        if self.cells.is_empty() {
            return self.dies[die.index()].site_width as f64;
        }
        let total: i64 = self
            .cells
            .iter()
            .map(|c| self.lib_cell_on(c.lib_cell, die).width)
            .sum();
        total as f64 / self.cells.len() as f64
    }

    /// Footprint of macro `m` as a rectangle on its die.
    pub fn macro_rect(&self, m: MacroId) -> Rect {
        let mi = &self.macros[m.index()];
        let lc = self.lib_cell_on(mi.lib_cell, mi.die);
        Rect::with_size(mi.pos, lc.width, lc.height)
    }

    /// Footprints of all macros fixed on `die`.
    pub fn macro_rects_on(&self, die: DieId) -> Vec<Rect> {
        self.macros
            .iter()
            .enumerate()
            .filter(|(_, m)| m.die == die)
            .map(|(i, _)| self.macro_rect(MacroId::new(i)))
            .collect()
    }

    /// Placeable area of `die` in DBU²: row area minus macro blockage.
    pub fn free_area(&self, die: DieId) -> i64 {
        let d = &self.dies[die.index()];
        // The rows tile one band of the outline without gaps (full width,
        // stacked from the bottom edge), so the area a macro takes from
        // the rows is its overlap with that band.
        let top = d.outline.ylo + d.num_rows() as i64 * d.row_height;
        let band = Rect::new(d.outline.xlo, d.outline.ylo, d.outline.xhi, top);
        let blocked: i64 = self
            .macro_rects_on(die)
            .iter()
            .map(|r| band.overlap_area(r))
            .sum();
        d.rows_area() - blocked
    }

    /// Pin offset of `pin` of instance `inst` when the instance sits on
    /// `die`.
    ///
    /// # Panics
    ///
    /// Panics if the pin index is out of range (the builder validates all
    /// net pins, so this only fires for hand-made [`PinRef`]s).
    pub fn pin_offset(&self, inst: InstRef, pin: usize, die: DieId) -> Point {
        let lib_cell = match inst {
            InstRef::Cell(c) => self.cells[c.index()].lib_cell,
            InstRef::Macro(m) => self.macros[m.index()].lib_cell,
        };
        self.lib_cell_on(lib_cell, die).pins[pin].offset
    }
}

/// Die specification consumed by [`DesignBuilder::die`].
#[derive(Debug, Clone, PartialEq)]
pub struct DieSpec {
    name: String,
    tech: String,
    outline: Rect,
    row_height: i64,
    site_width: i64,
    max_util: f64,
}

impl DieSpec {
    /// Creates a die spec. `outline` is `(xlo, ylo, xhi, yhi)`; `max_util`
    /// is a fraction in `(0, 1]`. Nothing is checked here: building the
    /// design rejects an inverted or overflowing outline, and one with
    /// more than [`MAX_ROWS_PER_DIE`] rows, as [`DbError::InvalidDie`].
    pub fn new(
        name: impl Into<String>,
        tech: impl Into<String>,
        outline: (i64, i64, i64, i64),
        row_height: i64,
        site_width: i64,
        max_util: f64,
    ) -> Self {
        Self {
            name: name.into(),
            tech: tech.into(),
            outline: Rect {
                xlo: outline.0,
                ylo: outline.1,
                xhi: outline.2,
                yhi: outline.3,
            },
            row_height,
            site_width,
            max_util,
        }
    }
}

/// Incrementally assembles and validates a [`Design`].
///
/// # Examples
///
/// See the [crate-level documentation](crate).
#[derive(Debug, Default)]
pub struct DesignBuilder {
    name: String,
    techs: Vec<TechnologySpec>,
    dies: Vec<DieSpec>,
    cells: Vec<(String, String)>,
    macros: Vec<(String, String, String, Point)>,
    nets: Vec<(String, Vec<(String, usize)>)>,
}

impl DesignBuilder {
    /// Starts a new design with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Adds a technology. The first technology defines the canonical lib
    /// cell ordering; later technologies must define the same cells in the
    /// same order.
    #[must_use]
    pub fn technology(mut self, spec: TechnologySpec) -> Self {
        self.techs.push(spec);
        self
    }

    /// Adds a die bound to a named technology. Dies are stacked in
    /// insertion order: the first die is [`DieId::BOTTOM`].
    #[must_use]
    pub fn die(mut self, spec: DieSpec) -> Self {
        self.dies.push(spec);
        self
    }

    /// Adds a movable standard-cell instance of the named library cell.
    #[must_use]
    pub fn cell(mut self, name: impl Into<String>, lib_cell: impl Into<String>) -> Self {
        self.cells.push((name.into(), lib_cell.into()));
        self
    }

    /// Adds a fixed macro instance on the named die at `(x, y)`.
    #[must_use]
    pub fn macro_inst(
        mut self,
        name: impl Into<String>,
        lib_cell: impl Into<String>,
        die: impl Into<String>,
        x: i64,
        y: i64,
    ) -> Self {
        self.macros
            .push((name.into(), lib_cell.into(), die.into(), Point::new(x, y)));
        self
    }

    /// Adds a net connecting `(instance, pin_index)` pairs.
    #[must_use]
    pub fn net(mut self, name: impl Into<String>, pins: &[(&str, usize)]) -> Self {
        self.nets.push((
            name.into(),
            pins.iter().map(|(i, p)| (i.to_string(), *p)).collect(),
        ));
        self
    }

    /// Validates all cross-references and produces the immutable [`Design`].
    ///
    /// # Errors
    ///
    /// Returns [`DbError`] for duplicate or unknown names, misaligned
    /// technologies, invalid dies, out-of-range pins, or macros placed
    /// outside their die / overlapping each other.
    pub fn build(self) -> Result<Design, DbError> {
        if self.techs.is_empty() || self.dies.is_empty() {
            return Err(DbError::EmptyStack);
        }
        let techs = validate_techs(self.techs)?;
        let dies = validate_dies(self.dies, &techs)?;
        let canon = &techs[0];

        // Instances.
        let lib_cell_index = |name: &str| -> Result<LibCellId, DbError> {
            canon
                .lib_cell_index(name)
                .map(LibCellId::new)
                .ok_or_else(|| DbError::UnknownName {
                    kind: "lib cell",
                    name: name.to_string(),
                })
        };

        let mut index = InstIndex::with_capacity(self.cells.len() + self.macros.len());
        let mut cells = Vec::with_capacity(self.cells.len());
        for (name, lc) in self.cells {
            let lib_cell = lib_cell_index(&lc)?;
            if canon.lib_cells[lib_cell.index()].is_macro() {
                return Err(DbError::InvalidMacro {
                    name,
                    detail: "macro lib cell used for a movable cell instance".into(),
                });
            }
            match index.entry(name) {
                Entry::Occupied(e) => {
                    return Err(DbError::DuplicateName {
                        kind: "cell",
                        name: e.key().clone(),
                    })
                }
                Entry::Vacant(e) => {
                    cells.push(CellInst {
                        name: e.key().clone(),
                        lib_cell,
                    });
                    e.insert(InstRef::Cell(CellId::new(cells.len() - 1)));
                }
            }
        }

        let mut macros: Vec<MacroInst> = Vec::with_capacity(self.macros.len());
        for (name, lc, die_name, pos) in self.macros {
            let lib_cell = lib_cell_index(&lc)?;
            if !canon.lib_cells[lib_cell.index()].is_macro() {
                return Err(DbError::InvalidMacro {
                    name,
                    detail: "standard lib cell used for a fixed macro instance".into(),
                });
            }
            let die_idx = dies
                .iter()
                .position(|d| d.name == die_name)
                .ok_or_else(|| DbError::UnknownName {
                    kind: "die",
                    name: die_name.clone(),
                })?;
            match index.entry(name) {
                Entry::Occupied(e) => {
                    return Err(DbError::DuplicateName {
                        kind: "instance",
                        name: e.key().clone(),
                    })
                }
                Entry::Vacant(e) => {
                    macros.push(MacroInst {
                        name: e.key().clone(),
                        lib_cell,
                        die: DieId::new(die_idx),
                        pos,
                    });
                    e.insert(InstRef::Macro(MacroId::new(macros.len() - 1)));
                }
            }
        }

        validate_macro_placements(&macros, &dies, &techs)?;

        // Nets. The first repeated net name is found up front, borrowing
        // the names, so the loop below can move them; it still reports
        // the repeat only after that net's pins, as the error order has
        // always been.
        let first_repeat = {
            let mut seen = NetNameSet::with_capacity(self.nets.len());
            self.nets
                .iter()
                .position(|(name, _)| !seen.insert(name.as_str()))
        };
        let mut nets = Vec::with_capacity(self.nets.len());
        for (i, (name, pins)) in self.nets.into_iter().enumerate() {
            let mut refs = Vec::with_capacity(pins.len());
            for (inst_name, pin) in pins {
                let (inst, lib_cell) = match index.get(&inst_name) {
                    Some(&InstRef::Cell(c)) => (InstRef::Cell(c), cells[c.index()].lib_cell),
                    Some(&InstRef::Macro(m)) => (InstRef::Macro(m), macros[m.index()].lib_cell),
                    None => {
                        return Err(DbError::UnknownName {
                            kind: "instance",
                            name: inst_name,
                        })
                    }
                };
                if pin >= canon.lib_cells[lib_cell.index()].pins.len() {
                    return Err(DbError::InvalidPin {
                        inst: inst_name,
                        pin,
                    });
                }
                refs.push(PinRef { inst, pin });
            }
            if first_repeat == Some(i) {
                return Err(DbError::DuplicateName { kind: "net", name });
            }
            nets.push(Net { name, pins: refs });
        }

        let widths = width_column(&techs, &dies, &cells);
        Ok(Design {
            name: self.name,
            techs,
            dies,
            cells,
            macros,
            nets,
            index,
            widths,
        })
    }
}

/// The die-major width column of [`Design::cell_width`]: one pass per
/// die resolves the die's technology once, then streams the cells'
/// lib-cell widths.
fn width_column(techs: &[Technology], dies: &[Die], cells: &[CellInst]) -> Vec<i64> {
    let mut widths = Vec::with_capacity(dies.len() * cells.len());
    for die in dies {
        let lib_cells = &techs[die.tech.index()].lib_cells;
        widths.extend(cells.iter().map(|c| lib_cells[c.lib_cell.index()].width));
    }
    widths
}

/// Technologies: unique names, aligned lib cell tables.
fn validate_techs(specs: Vec<TechnologySpec>) -> Result<Vec<Technology>, DbError> {
    let mut techs = Vec::with_capacity(specs.len());
    for spec in specs {
        if techs.iter().any(|t: &Technology| t.name == spec.name) {
            return Err(DbError::DuplicateName {
                kind: "technology",
                name: spec.name,
            });
        }
        techs.push(Technology {
            name: spec.name,
            lib_cells: spec.lib_cells,
        });
    }
    let canon = &techs[0];
    for t in &techs[1..] {
        if t.lib_cells.len() != canon.lib_cells.len() {
            return Err(DbError::MisalignedTechnologies {
                tech: t.name.clone(),
                detail: format!(
                    "{} lib cells vs {} in `{}`",
                    t.lib_cells.len(),
                    canon.lib_cells.len(),
                    canon.name
                ),
            });
        }
        for (a, b) in t.lib_cells.iter().zip(&canon.lib_cells) {
            if a.name != b.name || a.kind != b.kind || a.pins.len() != b.pins.len() {
                return Err(DbError::MisalignedTechnologies {
                    tech: t.name.clone(),
                    detail: format!("lib cell `{}` does not match `{}`", a.name, b.name),
                });
            }
        }
    }
    Ok(techs)
}

/// Dies: unique names, known technologies, sane geometry and utilization.
fn validate_dies(specs: Vec<DieSpec>, techs: &[Technology]) -> Result<Vec<Die>, DbError> {
    let mut dies = Vec::with_capacity(specs.len());
    for spec in specs {
        if dies.iter().any(|d: &Die| d.name == spec.name) {
            return Err(DbError::DuplicateName {
                kind: "die",
                name: spec.name,
            });
        }
        let tech_idx = techs
            .iter()
            .position(|t| t.name == spec.tech)
            .ok_or_else(|| DbError::UnknownName {
                kind: "technology",
                name: spec.tech.clone(),
            })?;
        if spec.row_height <= 0 || spec.site_width <= 0 {
            return Err(DbError::InvalidDie {
                die: spec.name,
                detail: "non-positive row height or site width".into(),
            });
        }
        if !(spec.max_util > 0.0 && spec.max_util <= 1.0) {
            return Err(DbError::InvalidDie {
                die: spec.name,
                detail: format!("max_util {} outside (0, 1]", spec.max_util),
            });
        }
        let o = spec.outline;
        let (Some(width), Some(height)) = (o.xhi.checked_sub(o.xlo), o.yhi.checked_sub(o.ylo))
        else {
            return Err(DbError::InvalidDie {
                die: spec.name,
                detail: format!("outline {o} overflows the coordinate range"),
            });
        };
        if width < 0 || height < 0 {
            return Err(DbError::InvalidDie {
                die: spec.name,
                detail: format!("outline {o} is inverted"),
            });
        }
        // Every row is materialized, so the count is capped before any
        // row is built; a zero-row die stays valid.
        let rows = height / spec.row_height;
        if rows > MAX_ROWS_PER_DIE as i64 {
            return Err(DbError::InvalidDie {
                die: spec.name,
                detail: format!("{rows} rows exceed the limit of {MAX_ROWS_PER_DIE}"),
            });
        }
        dies.push(Die::with_uniform_rows(
            spec.name,
            TechId::new(tech_idx),
            spec.outline,
            spec.row_height,
            spec.site_width,
            spec.max_util,
        ));
    }
    Ok(dies)
}

/// Macro placement validity: inside die, pairwise disjoint per die.
///
/// Reports what checking each macro in id order would: the first macro
/// that lies outside its die or overlaps an earlier one on the same die
/// (containment checked first), paired with the earliest macro it
/// overlaps. A sweep per die decides whether any overlap exists in
/// O(m log m); only when one does, a binary search over id prefixes
/// finds that first pair.
fn validate_macro_placements(
    macros: &[MacroInst],
    dies: &[Die],
    techs: &[Technology],
) -> Result<(), DbError> {
    let rects: Vec<Rect> = macros
        .iter()
        .map(|m| {
            let tech = dies[m.die.index()].tech;
            let lc = &techs[tech.index()].lib_cells[m.lib_cell.index()];
            Rect::with_size(m.pos, lc.width, lc.height)
        })
        .collect();
    let outside =
        (0..macros.len()).find(|&i| !dies[macros[i].die.index()].outline.contains_rect(&rects[i]));
    let checked = outside.unwrap_or(macros.len());
    let prefix_overlaps = |len: usize| -> bool {
        (0..dies.len()).any(|die| {
            let on_die = (0..len)
                .filter(|&i| macros[i].die.index() == die)
                .map(|i| rects[i]);
            any_overlap(on_die.collect())
        })
    };
    if prefix_overlaps(checked) {
        // `lo` ids overlap-free, `hi` ids not: the macro at `hi - 1` is
        // the first to overlap an earlier one.
        let (mut lo, mut hi) = (0, checked);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if prefix_overlaps(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        let i = hi - 1;
        if let Some(j) =
            (0..i).find(|&j| macros[j].die == macros[i].die && rects[j].overlaps(&rects[i]))
        {
            return Err(DbError::InvalidMacro {
                name: macros[i].name.clone(),
                detail: format!("overlaps macro `{}`", macros[j].name),
            });
        }
    }
    if let Some(i) = outside {
        let die = &dies[macros[i].die.index()];
        return Err(DbError::InvalidMacro {
            name: macros[i].name.clone(),
            detail: format!("footprint {} outside die outline {}", rects[i], die.outline),
        });
    }
    Ok(())
}

/// `true` when the interiors of two of `rects` intersect.
///
/// Sweeps the rectangles left to right, keeping those whose x-span
/// contains the sweep position. Until an overlap turns up they are
/// pairwise disjoint, so their y-spans are disjoint too and, keyed by
/// `ylo`, only the one reaching highest below a new rectangle's top can
/// overlap it.
fn any_overlap(mut rects: Vec<Rect>) -> bool {
    // Empty rectangles overlap nothing.
    rects.retain(|r| !r.is_empty());
    rects.sort_unstable_by_key(|r| r.xlo);
    let mut active: BTreeMap<i64, i64> = BTreeMap::new();
    let mut expiry: BinaryHeap<Reverse<(i64, i64)>> = BinaryHeap::new();
    for r in rects {
        while let Some(&Reverse((xhi, ylo))) = expiry.peek() {
            if xhi > r.xlo {
                break;
            }
            expiry.pop();
            active.remove(&ylo);
        }
        if let Some((_, &yhi)) = active.range(..r.yhi).next_back() {
            if yhi > r.ylo {
                return true;
            }
        }
        active.insert(r.ylo, r.yhi);
        expiry.push(Reverse((r.xhi, r.ylo)));
    }
    false
}

/// Resolved, id-indexed construction input for [`Design::from_resolved`].
///
/// This is the handoff from a streaming parser that resolves names to
/// ids *while reading*: cell `i` (`CellId::new(i)`) has lib cell
/// `cell_libs[i]`, and `index` is the finished instance-name index that
/// becomes the design's own lookup map verbatim — no instance-scale map
/// is rebuilt. Macros and nets arrive fully resolved ([`MacroInst`] /
/// [`Net`] carry ids, not names).
#[derive(Debug, Clone, Default)]
pub struct ResolvedCase {
    /// Design name.
    pub name: String,
    /// Technology specs, first one canonical.
    pub techs: Vec<TechnologySpec>,
    /// Die specs in stack order (first is [`DieId::BOTTOM`]).
    pub dies: Vec<DieSpec>,
    /// Lib cell of cell `i`.
    pub cell_libs: Vec<LibCellId>,
    /// Instance name → id for every cell and every macro: each cell id
    /// in `0..cell_libs.len()` and each macro under its own name, once.
    pub index: InstIndex,
    /// Fixed macros in id order.
    pub macros: Vec<MacroInst>,
    /// Nets in id order, pins already resolved.
    pub nets: Vec<Net>,
}

impl Design {
    /// Builds a design from already-resolved parts, performing the same
    /// validation as [`DesignBuilder::build`] minus the name→id
    /// resolution the caller has done.
    ///
    /// # Errors
    ///
    /// Every [`DbError`] the builder raises, plus
    /// [`DbError::InvalidResolved`] when an id is out of range or the
    /// index does not name every cell and macro exactly once.
    pub fn from_resolved(parts: ResolvedCase) -> Result<Design, DbError> {
        if parts.techs.is_empty() || parts.dies.is_empty() {
            return Err(DbError::EmptyStack);
        }
        let techs = validate_techs(parts.techs)?;
        let dies = validate_dies(parts.dies, &techs)?;
        let canon = &techs[0];

        let check_lib = |id: LibCellId, owner: &str| -> Result<(), DbError> {
            if id.index() >= canon.lib_cells.len() {
                return Err(DbError::InvalidResolved {
                    detail: format!("lib cell id {id} out of range for `{owner}`"),
                });
            }
            Ok(())
        };

        // Cells: the index must name each of 0..n exactly once. This is
        // the one walk over the index, and it only fills slots by id; an
        // inconsistency is reported from the slots in id order, so no
        // result depends on the index's iteration order.
        let n = parts.cell_libs.len();
        let mut names: Vec<Option<&String>> = vec![None; n];
        let mut cell_entries = 0usize;
        for (name, inst) in &parts.index {
            if let InstRef::Cell(c) = *inst {
                cell_entries += 1;
                if let Some(slot) = names.get_mut(c.index()) {
                    *slot = Some(name);
                }
            }
        }
        if cell_entries != n {
            return Err(DbError::InvalidResolved {
                detail: format!("{cell_entries} cell names for {n} cells"),
            });
        }
        // n entries filling all n slots means none repeated a slot or
        // fell out of range.
        let mut cells = Vec::with_capacity(n);
        for (i, (&lib_cell, slot)) in parts.cell_libs.iter().zip(&names).enumerate() {
            let Some(name) = *slot else {
                return Err(DbError::InvalidResolved {
                    detail: format!("cell id {i} is not named exactly once"),
                });
            };
            check_lib(lib_cell, name)?;
            if canon.lib_cells[lib_cell.index()].is_macro() {
                return Err(DbError::InvalidMacro {
                    name: name.clone(),
                    detail: "macro lib cell used for a movable cell instance".into(),
                });
            }
            cells.push(CellInst {
                name: name.clone(),
                lib_cell,
            });
        }

        // Macros: macro-kind libs, known dies, and each indexed under its
        // own name; a name already taken is a duplicate instance.
        for (i, m) in parts.macros.iter().enumerate() {
            check_lib(m.lib_cell, &m.name)?;
            if !canon.lib_cells[m.lib_cell.index()].is_macro() {
                return Err(DbError::InvalidMacro {
                    name: m.name.clone(),
                    detail: "standard lib cell used for a fixed macro instance".into(),
                });
            }
            if m.die.index() >= dies.len() {
                return Err(DbError::InvalidResolved {
                    detail: format!("die id {} out of range for `{}`", m.die, m.name),
                });
            }
            match parts.index.get(&m.name) {
                Some(&InstRef::Macro(id)) if id.index() == i => {}
                Some(_) => {
                    return Err(DbError::DuplicateName {
                        kind: "instance",
                        name: m.name.clone(),
                    })
                }
                None => {
                    return Err(DbError::InvalidResolved {
                        detail: format!("macro `{}` is missing from the index", m.name),
                    })
                }
            }
        }
        // Every cell and macro is named once; anything more is stray.
        if parts.index.len() != n + parts.macros.len() {
            return Err(DbError::InvalidResolved {
                detail: format!(
                    "{} index entries for {n} cells and {} macros",
                    parts.index.len(),
                    parts.macros.len()
                ),
            });
        }
        let macros = parts.macros;
        validate_macro_placements(&macros, &dies, &techs)?;

        // Nets: unique names, in-range instance ids and pin indices.
        let mut seen = NetNameSet::with_capacity(parts.nets.len());
        for net in &parts.nets {
            for pin in &net.pins {
                let (lib_cell, inst_name) = match pin.inst {
                    InstRef::Cell(c) => match cells.get(c.index()) {
                        Some(ci) => (ci.lib_cell, &ci.name),
                        None => {
                            return Err(DbError::InvalidResolved {
                                detail: format!("cell id {c} out of range in net `{}`", net.name),
                            })
                        }
                    },
                    InstRef::Macro(m) => match macros.get(m.index()) {
                        Some(mi) => (mi.lib_cell, &mi.name),
                        None => {
                            return Err(DbError::InvalidResolved {
                                detail: format!("macro id {m} out of range in net `{}`", net.name),
                            })
                        }
                    },
                };
                if pin.pin >= canon.lib_cells[lib_cell.index()].pins.len() {
                    return Err(DbError::InvalidPin {
                        inst: inst_name.clone(),
                        pin: pin.pin,
                    });
                }
            }
            if !seen.insert(&net.name) {
                return Err(DbError::DuplicateName {
                    kind: "net",
                    name: net.name.clone(),
                });
            }
        }

        let widths = width_column(&techs, &dies, &cells);
        Ok(Design {
            name: parts.name,
            techs,
            dies,
            cells,
            macros,
            nets: parts.nets,
            index: parts.index,
            widths,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::LibCellSpec;

    fn base_builder() -> DesignBuilder {
        DesignBuilder::new("t")
            .technology(
                TechnologySpec::new("TA")
                    .lib_cell(
                        LibCellSpec::std_cell("INV", 10, 12)
                            .pin("A", 0, 6)
                            .pin("Y", 9, 6),
                    )
                    .lib_cell(LibCellSpec::macro_cell("RAM", 200, 48).pin("D", 0, 0)),
            )
            .technology(
                TechnologySpec::new("TB")
                    .lib_cell(
                        LibCellSpec::std_cell("INV", 8, 10)
                            .pin("A", 0, 5)
                            .pin("Y", 7, 5),
                    )
                    .lib_cell(LibCellSpec::macro_cell("RAM", 160, 40).pin("D", 0, 0)),
            )
            .die(DieSpec::new("bottom", "TA", (0, 0, 1000, 120), 12, 1, 0.9))
            .die(DieSpec::new("top", "TB", (0, 0, 1000, 120), 10, 1, 0.8))
    }

    #[test]
    fn build_valid_design() {
        let d = base_builder()
            .cell("u1", "INV")
            .cell("u2", "INV")
            .macro_inst("ram0", "RAM", "bottom", 100, 0)
            .net("n1", &[("u1", 1), ("u2", 0), ("ram0", 0)])
            .build()
            .unwrap();
        assert_eq!(d.num_cells(), 2);
        assert_eq!(d.num_macros(), 1);
        assert_eq!(d.num_nets(), 1);
        let u1 = d.cell_by_name("u1").unwrap();
        assert_eq!(d.cell_width(u1, DieId::BOTTOM), 10);
        assert_eq!(d.cell_width(u1, DieId::TOP), 8);
        assert_eq!(d.cell_height(DieId::TOP), 10);
    }

    #[test]
    fn hetero_widths_differ_per_die() {
        let d = base_builder().cell("u1", "INV").build().unwrap();
        let u1 = d.cell_by_name("u1").unwrap();
        assert_ne!(
            d.cell_width(u1, DieId::BOTTOM),
            d.cell_width(u1, DieId::TOP)
        );
        assert!((d.avg_cell_width(DieId::BOTTOM) - 10.0).abs() < 1e-9);
        assert!((d.avg_cell_width(DieId::TOP) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn free_area_subtracts_macro_blockage() {
        let d = base_builder()
            .macro_inst("ram0", "RAM", "bottom", 100, 0)
            .build()
            .unwrap();
        // RAM on bottom is 200 x 48 covering rows 0..4 (height 48 = 4 rows).
        let rows_area = 1000 * 120;
        assert_eq!(d.free_area(DieId::BOTTOM), rows_area - 200 * 48);
        assert_eq!(d.free_area(DieId::TOP), 1000 * 120);
    }

    #[test]
    fn duplicate_cell_name_rejected() {
        let err = base_builder()
            .cell("u1", "INV")
            .cell("u1", "INV")
            .build()
            .unwrap_err();
        assert!(matches!(err, DbError::DuplicateName { kind: "cell", .. }));
    }

    #[test]
    fn unknown_lib_cell_rejected() {
        let err = base_builder().cell("u1", "NAND9").build().unwrap_err();
        assert!(matches!(
            err,
            DbError::UnknownName {
                kind: "lib cell",
                ..
            }
        ));
    }

    #[test]
    fn misaligned_technologies_rejected() {
        let err = DesignBuilder::new("t")
            .technology(TechnologySpec::new("TA").lib_cell(LibCellSpec::std_cell("INV", 1, 1)))
            .technology(TechnologySpec::new("TB").lib_cell(LibCellSpec::std_cell("BUF", 1, 1)))
            .die(DieSpec::new("d", "TA", (0, 0, 10, 10), 1, 1, 1.0))
            .build()
            .unwrap_err();
        assert!(matches!(err, DbError::MisalignedTechnologies { .. }));
    }

    #[test]
    fn macro_outside_die_rejected() {
        let err = base_builder()
            .macro_inst("ram0", "RAM", "bottom", 900, 0)
            .build()
            .unwrap_err();
        assert!(matches!(err, DbError::InvalidMacro { .. }));
    }

    #[test]
    fn overlapping_macros_rejected() {
        let err = base_builder()
            .macro_inst("ram0", "RAM", "bottom", 0, 0)
            .macro_inst("ram1", "RAM", "bottom", 100, 24)
            .build()
            .unwrap_err();
        assert!(matches!(err, DbError::InvalidMacro { .. }));
    }

    #[test]
    fn macro_as_cell_rejected() {
        let err = base_builder().cell("u1", "RAM").build().unwrap_err();
        assert!(matches!(err, DbError::InvalidMacro { .. }));
    }

    #[test]
    fn net_with_bad_pin_rejected() {
        let err = base_builder()
            .cell("u1", "INV")
            .net("n1", &[("u1", 5)])
            .build()
            .unwrap_err();
        assert!(matches!(err, DbError::InvalidPin { .. }));
    }

    #[test]
    fn net_with_unknown_instance_rejected() {
        let err = base_builder()
            .net("n1", &[("nope", 0)])
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            DbError::UnknownName {
                kind: "instance",
                ..
            }
        ));
    }

    #[test]
    fn empty_stack_rejected() {
        assert_eq!(
            DesignBuilder::new("x").build().unwrap_err(),
            DbError::EmptyStack
        );
    }

    #[test]
    fn invalid_util_rejected() {
        let err = DesignBuilder::new("t")
            .technology(TechnologySpec::new("TA").lib_cell(LibCellSpec::std_cell("INV", 1, 1)))
            .die(DieSpec::new("d", "TA", (0, 0, 10, 10), 1, 1, 1.5))
            .build()
            .unwrap_err();
        assert!(matches!(err, DbError::InvalidDie { .. }));
    }

    #[test]
    fn pin_offset_depends_on_die() {
        let d = base_builder().cell("u1", "INV").build().unwrap();
        let u1 = d.cell_by_name("u1").unwrap();
        assert_eq!(
            d.pin_offset(InstRef::Cell(u1), 1, DieId::BOTTOM),
            Point::new(9, 6)
        );
        assert_eq!(
            d.pin_offset(InstRef::Cell(u1), 1, DieId::TOP),
            Point::new(7, 5)
        );
    }

    #[test]
    fn hostile_die_outlines_are_rejected() {
        let die = |outline, row_height| {
            DesignBuilder::new("t")
                .technology(TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("INV", 1, 1)))
                .die(DieSpec::new("d", "T", outline, row_height, 1, 1.0))
                .build()
        };
        let invalid = |outline, row_height| match die(outline, row_height) {
            Err(DbError::InvalidDie { detail, .. }) => detail,
            other => panic!("{outline:?}: expected InvalidDie, got {other:?}"),
        };
        assert_eq!(
            invalid((0, 0, 100, 100_000_000_000), 1),
            "100000000000 rows exceed the limit of 1048576"
        );
        let huge = (0, -i64::MAX, 100, i64::MAX);
        assert!(invalid(huge, 1).contains("overflows"));
        assert!(invalid((0, 0, -5, 10), 1).contains("inverted"));
        assert!(invalid((0, 10, 5, 0), 1).contains("inverted"));
        // One row over the cap is rejected, a zero-row die is not.
        let over = MAX_ROWS_PER_DIE as i64 + 1;
        assert!(invalid((0, 0, 10, 2 * over), 2).contains("exceed"));
        assert_eq!(
            die((0, 0, 100, 8), 10)
                .unwrap()
                .die(DieId::new(0))
                .num_rows(),
            0
        );
        assert_eq!(
            die((0, 0, 100, 0), 10)
                .unwrap()
                .die(DieId::new(0))
                .num_rows(),
            0
        );
    }

    #[test]
    fn sweep_treats_abutting_macros_as_disjoint() {
        let r = Rect::new;
        assert!(!any_overlap(vec![r(0, 0, 10, 10), r(10, 0, 20, 10)]));
        assert!(!any_overlap(vec![r(0, 0, 10, 10), r(0, 10, 10, 20)]));
        assert!(!any_overlap(vec![r(0, 0, 10, 10), r(5, 5, 5, 9)]));
        assert!(any_overlap(vec![r(0, 0, 10, 10), r(9, 9, 20, 20)]));
        assert!(any_overlap(vec![
            r(0, 0, 30, 2),
            r(0, 5, 30, 7),
            r(10, 1, 11, 6)
        ]));
    }

    #[test]
    fn index_serves_cells_and_macros_apart() {
        let d = base_builder()
            .cell("u1", "INV")
            .macro_inst("ram0", "RAM", "bottom", 100, 0)
            .build()
            .unwrap();
        assert_eq!(d.cell_by_name("u1"), Some(CellId::new(0)));
        assert_eq!(d.macro_by_name("ram0"), Some(MacroId::new(0)));
        assert_eq!(d.cell_by_name("ram0"), None);
        assert_eq!(d.macro_by_name("u1"), None);
        assert_eq!(d.cell_by_name("nope"), None);
    }

    #[test]
    fn duplicate_instances_across_kinds_are_rejected() {
        let err = base_builder()
            .cell("x", "INV")
            .macro_inst("x", "RAM", "bottom", 100, 0)
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            DbError::DuplicateName {
                kind: "instance",
                name: "x".into()
            }
        );
        let err = base_builder()
            .macro_inst("x", "RAM", "bottom", 0, 0)
            .macro_inst("x", "RAM", "bottom", 400, 0)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            DbError::DuplicateName {
                kind: "instance",
                ..
            }
        ));
    }

    #[test]
    fn first_repeated_net_is_reported_after_its_pins() {
        let b = || base_builder().cell("u1", "INV").cell("u2", "INV");
        let err = b()
            .net("a", &[("u1", 0)])
            .net("b", &[("u2", 0)])
            .net("a", &[("u2", 1)])
            .net("b", &[("u1", 1)])
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            DbError::DuplicateName {
                kind: "net",
                name: "a".into()
            }
        );
        // A bad pin on the repeated net itself is reported first.
        let err = b()
            .net("a", &[("u1", 0)])
            .net("a", &[("u2", 7)])
            .build()
            .unwrap_err();
        assert!(matches!(err, DbError::InvalidPin { pin: 7, .. }));
    }

    /// `base_builder()` with two cells, one macro and one net.
    fn small_builder() -> DesignBuilder {
        base_builder()
            .cell("u1", "INV")
            .cell("u2", "INV")
            .macro_inst("ram0", "RAM", "bottom", 100, 0)
            .net("n1", &[("u1", 1), ("u2", 0), ("ram0", 0)])
    }

    /// `small_builder()`'s design as a streaming parser hands it over.
    fn resolved() -> ResolvedCase {
        let b = small_builder();
        let (techs, dies) = (b.techs.clone(), b.dies.clone());
        let d = b.build().unwrap();
        ResolvedCase {
            name: d.name,
            techs,
            dies,
            cell_libs: d.cells.iter().map(|c| c.lib_cell).collect(),
            index: d.index,
            macros: d.macros,
            nets: d.nets,
        }
    }

    #[test]
    fn from_resolved_matches_the_builder() {
        let built = small_builder().build().unwrap();
        assert_eq!(Design::from_resolved(resolved()).unwrap(), built);
    }

    #[test]
    fn from_resolved_rejects_an_inconsistent_index() {
        let detail = |parts: ResolvedCase| match Design::from_resolved(parts) {
            Err(DbError::InvalidResolved { detail }) => detail,
            other => panic!("expected InvalidResolved, got {other:?}"),
        };
        // Two names for cell 0, none for cell 1.
        let mut parts = resolved();
        parts
            .index
            .insert("u2".into(), InstRef::Cell(CellId::new(0)));
        assert_eq!(detail(parts), "cell id 1 is not named exactly once");
        // A cell id out of range.
        let mut parts = resolved();
        parts
            .index
            .insert("u2".into(), InstRef::Cell(CellId::new(9)));
        assert_eq!(detail(parts), "cell id 1 is not named exactly once");
        // A missing cell.
        let mut parts = resolved();
        parts.index.remove("u1");
        assert_eq!(detail(parts), "1 cell names for 2 cells");
        // A missing macro, and a stray macro entry.
        let mut parts = resolved();
        parts.index.remove("ram0");
        assert_eq!(detail(parts), "macro `ram0` is missing from the index");
        let mut parts = resolved();
        parts
            .index
            .insert("ghost".into(), InstRef::Macro(MacroId::new(3)));
        assert_eq!(detail(parts), "4 index entries for 2 cells and 1 macros");
        // A macro named like a cell is a duplicate instance.
        let mut parts = resolved();
        parts.macros[0].name = "u1".into();
        assert!(matches!(
            Design::from_resolved(parts),
            Err(DbError::DuplicateName {
                kind: "instance",
                ..
            })
        ));
        // A repeated net name.
        let mut parts = resolved();
        parts.nets.push(parts.nets[0].clone());
        assert!(matches!(
            Design::from_resolved(parts),
            Err(DbError::DuplicateName { kind: "net", .. })
        ));
    }
}

/// The sweep macro check and the banded free area against the all-pairs
/// and rows × macros loops they replace, kept here as references.
#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::tech::LibCellSpec;
    use proptest::prelude::*;

    fn naive_validate_macro_placements(
        macros: &[MacroInst],
        dies: &[Die],
        techs: &[Technology],
    ) -> Result<(), DbError> {
        let rect_of = |m: &MacroInst| {
            let tech = dies[m.die.index()].tech;
            let lc = &techs[tech.index()].lib_cells[m.lib_cell.index()];
            Rect::with_size(m.pos, lc.width, lc.height)
        };
        for (i, m) in macros.iter().enumerate() {
            let r = rect_of(m);
            let die = &dies[m.die.index()];
            if !die.outline.contains_rect(&r) {
                return Err(DbError::InvalidMacro {
                    name: m.name.clone(),
                    detail: format!("footprint {r} outside die outline {}", die.outline),
                });
            }
            for other in &macros[..i] {
                if other.die == m.die && rect_of(other).overlaps(&r) {
                    return Err(DbError::InvalidMacro {
                        name: m.name.clone(),
                        detail: format!("overlaps macro `{}`", other.name),
                    });
                }
            }
        }
        Ok(())
    }

    fn naive_free_area(d: &Design, die: DieId) -> i64 {
        let dd = &d.dies[die.index()];
        let blocked: i64 = d
            .macro_rects_on(die)
            .iter()
            .map(|r| {
                dd.rows
                    .iter()
                    .map(|row| {
                        Rect::new(row.span.lo, row.y, row.span.hi, row.y + dd.row_height)
                            .overlap_area(r)
                    })
                    .sum::<i64>()
            })
            .sum();
        dd.rows_area() - blocked
    }

    /// Two technologies whose macro sizes differ (zero sizes included),
    /// two dies with different outlines and row heights, and macros
    /// `(lib, x, y, die)`.
    fn builder(
        sizes: &[(i64, i64)],
        rows: (i64, i64),
        placed: &[(usize, i64, i64, usize)],
    ) -> DesignBuilder {
        let tech = |name: &str, scale: i64| {
            let mut t = TechnologySpec::new(name);
            for (k, &(w, h)) in sizes.iter().enumerate() {
                t = t.lib_cell(LibCellSpec::macro_cell(format!("M{k}"), w * scale / 2, h));
            }
            t
        };
        let mut b = DesignBuilder::new("t")
            .technology(tech("TA", 2))
            .technology(tech("TB", 3))
            .die(DieSpec::new("bottom", "TA", (0, 0, 90, 60), rows.0, 1, 1.0))
            .die(DieSpec::new("top", "TB", (-10, 5, 80, 70), rows.1, 1, 1.0));
        for (i, &(lib, x, y, die)) in placed.iter().enumerate() {
            let die = if die == 0 { "bottom" } else { "top" };
            b = b.macro_inst(
                format!("m{i}"),
                format!("M{}", lib % sizes.len()),
                die,
                x,
                y,
            );
        }
        b
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn sweep_reports_what_the_all_pairs_check_reports(
            sizes in proptest::collection::vec((0i64..30, 0i64..25), 1..4),
            placed in proptest::collection::vec((0usize..4, -15i64..95, -10i64..75, 0usize..2), 0..14),
        ) {
            let b = builder(&sizes, (7, 9), &placed);
            let techs = validate_techs(b.techs).unwrap();
            let dies = validate_dies(b.dies, &techs).unwrap();
            let macros: Vec<MacroInst> = placed
                .iter()
                .enumerate()
                .map(|(i, &(lib, x, y, die))| MacroInst {
                    name: format!("m{i}"),
                    lib_cell: LibCellId::new(lib % sizes.len()),
                    die: DieId::new(die),
                    pos: Point::new(x, y),
                })
                .collect();
            prop_assert_eq!(
                validate_macro_placements(&macros, &dies, &techs),
                naive_validate_macro_placements(&macros, &dies, &techs)
            );
        }

        #[test]
        fn banded_free_area_matches_the_row_loop(
            sizes in proptest::collection::vec((0i64..30, 0i64..25), 1..4),
            placed in proptest::collection::vec((0usize..4, 0i64..90, 0i64..70, 0usize..2), 0..10),
            rows in (1i64..20, 1i64..20),
        ) {
            // Overlapping or escaping draws fail to build; the rest count.
            if let Ok(d) = builder(&sizes, rows, &placed).build() {
                for die in [DieId::BOTTOM, DieId::TOP] {
                    prop_assert_eq!(d.free_area(die), naive_free_area(&d, die));
                }
            }
        }
    }
}
