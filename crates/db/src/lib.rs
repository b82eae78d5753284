#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Design database for the 3D-Flow legalizer reproduction.
//!
//! This crate models everything a 3D-IC legalizer needs to know about a
//! design, following the F2F-bonded two-die setting of the ICCAD 2022/2023
//! contests (but generalized to any number of stacked dies):
//!
//! * [`Technology`] / [`LibCell`] — library cells with per-technology sizes,
//!   enabling heterogeneous integration where a cell has different widths on
//!   the top and bottom die (the paper's `w_c^+` / `w_c^-`).
//! * [`Die`] — outline, placement rows, site grid, technology binding and a
//!   maximum-utilization constraint.
//! * [`Design`] — instances (standard cells and fixed macros), nets and
//!   pins, plus one hashed instance-name index ([`InstIndex`], lookups
//!   only) behind [`Design::cell_by_name`] and [`Design::macro_by_name`],
//!   and one flat die-major width column behind [`Design::cell_width`].
//!   Built through [`DesignBuilder`] which validates cross-references,
//!   including die outlines: inverted or overflowing ones, and dies of
//!   more than [`MAX_ROWS_PER_DIE`] rows, are rejected.
//! * [`RowLayout`] — the derived structure legalizers work on: placement
//!   rows split into macro-free [`Segment`]s, with nearest-row /
//!   nearest-segment queries.
//! * [`Placement3d`] — a continuous global placement (positions plus soft
//!   die affinity) as produced by a true-3D analytical placer, and
//!   [`LegalPlacement`] — the discrete output of a legalizer. Readers
//!   reject coordinates above [`MAX_COORD`] in magnitude.
//! * [`ResolvedCase`] — id-resolved parts a streaming parser hands to
//!   [`Design::from_resolved`].
//!
//! # Examples
//!
//! ```
//! use flow3d_db::{Design, DesignBuilder, DieSpec, LibCellSpec, TechnologySpec};
//!
//! # fn main() -> Result<(), flow3d_db::DbError> {
//! let design = DesignBuilder::new("demo")
//!     .technology(TechnologySpec::new("TA")
//!         .lib_cell(LibCellSpec::std_cell("INV", 10, 12).pin("A", 0, 6)))
//!     .technology(TechnologySpec::new("TB")
//!         .lib_cell(LibCellSpec::std_cell("INV", 8, 10).pin("A", 0, 5)))
//!     .die(DieSpec::new("bottom", "TA", (0, 0, 1000, 120), 12, 1, 0.9))
//!     .die(DieSpec::new("top", "TB", (0, 0, 1000, 120), 10, 1, 0.9))
//!     .cell("u1", "INV")
//!     .cell("u2", "INV")
//!     .net("n1", &[("u1", 0), ("u2", 0)])
//!     .build()?;
//! assert_eq!(design.num_cells(), 2);
//! assert_eq!(design.num_dies(), 2);
//! # Ok(())
//! # }
//! ```

pub mod design;
pub mod die;
pub mod error;
pub mod ids;
pub mod layout;
pub mod placement;
pub mod tech;

pub use design::{
    CellInst, Design, DesignBuilder, DieSpec, InstIndex, InstRef, MacroInst, Net, PinRef,
    ResolvedCase,
};
pub use die::{Die, Row, MAX_COORD, MAX_ROWS_PER_DIE};
pub use error::DbError;
pub use ids::{CellId, DieId, LibCellId, MacroId, NetId, RowId, SegmentId, TechId};
pub use layout::{RowLayout, Segment};
pub use placement::{CellMove, LegalPlacement, Placement3d};
pub use tech::{LibCell, LibCellKind, LibCellSpec, PinDef, Technology, TechnologySpec};
