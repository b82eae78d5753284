//! Legalization errors.

use flow3d_db::{CellId, DieId};
use std::error::Error;
use std::fmt;

/// An error raised by a legalizer.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum LegalizeError {
    /// A cell does not fit in any segment of any die (wider than every
    /// macro-free stretch).
    NoPosition {
        /// The unplaceable cell.
        cell: CellId,
    },
    /// The design's cells cannot fit under the per-die utilization caps.
    DieOverflow {
        /// The die whose capacity is exhausted.
        die: DieId,
        /// Standard-cell area that needed to fit.
        required: i64,
        /// Maximum area allowed by the utilization cap.
        allowed: i64,
    },
    /// An overflowed bin could not be drained: its searches found no
    /// augmenting path, and neither did the fallback (3D-Flow's direct
    /// relocation finds no bin with room for its cells; Bonn's search
    /// budget runs out), as in a disconnected or overfull region.
    NoAugmentingPath {
        /// Die of the stuck source bin.
        die: DieId,
        /// Remaining supply that could not be drained.
        supply: i64,
    },
    /// A row segment ended up holding more cell width than it fits —
    /// internal invariant violation after a flow pass.
    SegmentOverflow {
        /// Die of the overfull segment.
        die: DieId,
        /// Width excess in DBU.
        excess: i64,
    },
    /// Cell count mismatch between the design and the placement.
    PlacementMismatch {
        /// Cells in the design.
        design_cells: usize,
        /// Cells in the placement.
        placement_cells: usize,
    },
}

impl fmt::Display for LegalizeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LegalizeError::NoPosition { cell } => {
                write!(f, "cell {cell} fits in no segment of any die")
            }
            LegalizeError::DieOverflow {
                die,
                required,
                allowed,
            } => write!(
                f,
                "die {die} overflows: {required} DBU² required, {allowed} allowed"
            ),
            LegalizeError::NoAugmentingPath { die, supply } => write!(
                f,
                "no augmenting path drains {supply} DBU of supply on die {die}"
            ),
            LegalizeError::SegmentOverflow { die, excess } => {
                write!(f, "segment on die {die} overfull by {excess} DBU")
            }
            LegalizeError::PlacementMismatch {
                design_cells,
                placement_cells,
            } => write!(
                f,
                "placement has {placement_cells} cells, design has {design_cells}"
            ),
        }
    }
}

impl Error for LegalizeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_send_sync_and_display() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LegalizeError>();
        let e = LegalizeError::NoPosition {
            cell: CellId::new(3),
        };
        assert!(e.to_string().contains("c3"));
    }
}
