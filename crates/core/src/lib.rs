#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # 3D-Flow: flow-based standard cell legalization for 3D ICs
//!
//! Reproduction of the DAC 2025 paper's core contribution. Given a design
//! and a continuous 3D global placement, the [`Flow3dLegalizer`] produces a
//! legal placement — every cell on a row and site of one die, overlap-free,
//! utilization-respecting — while minimizing average and maximum cell
//! displacement. The pipeline (paper Algorithm 2):
//!
//! 1. **Bin grid** ([`grid`]): every macro-free row segment of every die is
//!    divided into uniform bins; horizontally/vertically adjacent bins on a
//!    die are connected by planar edges, bins with plan-view overlap on
//!    different dies by die-to-die (D2D) edges — a 3D grid graph.
//! 2. **Initial assignment** ([`assign`]): cells snap to their nearest die
//!    and bin, fractionally across two adjacent bins where they straddle a
//!    boundary. Overfull bins become *sources*, under-full bins *sinks*.
//! 3. **Augmentation** ([`search`], paper Algorithm 1): a best-first
//!    branch-and-bound search finds the cheapest augmenting path that
//!    drains each source, allowing negative-cost moves (cells returning
//!    toward their origin) which Dijkstra-based legalizers must forbid.
//! 4. **Realization** ([`augment`], §III-C): cells move along the path,
//!    fractionally between horizontal neighbours, whole across rows/dies
//!    (with width change under heterogeneous technologies).
//! 5. **Row legalization** ([`placerow`], §III-D): Abacus `PlaceRow` orders
//!    each segment with minimal quadratic movement and snaps to sites.
//! 6. **Post-optimization** ([`cycle`], §III-E): cells with displacement
//!    above `max(5·h_r, D_max/2)` are re-seeded at the midpoint toward
//!    their origin and incrementally re-legalized on a finer grid, one
//!    source at a time in Algorithm 2's order, cutting the maximum
//!    displacement.
//!
//! # Examples
//!
//! ```
//! use flow3d_core::{Flow3dConfig, Flow3dLegalizer, Legalizer};
//! use flow3d_gen::GeneratorConfig;
//! use flow3d_metrics::{check_legal, displacement_stats};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let case = GeneratorConfig::small_demo(1).generate()?;
//! let legalizer = Flow3dLegalizer::new(Flow3dConfig::default());
//! let outcome = legalizer.legalize(&case.design, &case.natural)?;
//! assert!(check_legal(&case.design, &outcome.placement).is_legal());
//! let stats = displacement_stats(&case.design, &case.natural, &outcome.placement);
//! assert!(stats.max < 100.0);
//! # Ok(())
//! # }
//! ```

pub mod assign;
pub mod augment;
pub mod config;
pub mod cycle;
pub mod driver;
pub mod error;
pub mod grid;
pub mod incremental;
pub mod placerow;
pub mod resident;
pub mod search;
pub mod selection;
pub mod state;
pub mod traits;

pub use config::Flow3dConfig;
pub use driver::Flow3dLegalizer;
pub use error::LegalizeError;
pub use flow3d_db::CellMove;
pub use placerow::RowAlgo;
pub use resident::{CommitStats, EcoEngine};
pub use state::FlowState;
pub use traits::{LegalizeOutcome, LegalizeStats, Legalizer};
