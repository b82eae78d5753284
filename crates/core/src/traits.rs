//! The common legalizer interface shared by 3D-Flow and the baselines.

use crate::error::LegalizeError;
use flow3d_db::{Design, LegalPlacement, Placement3d};
use flow3d_obs::Obs;

/// Counters reported by a legalization run.
///
/// These are the always-on summary numbers every
/// [`LegalizeOutcome`] carries. For per-phase timings and the full
/// counter registry, run through
/// [`Legalizer::legalize_observed`] with a
/// [`Profile`](flow3d_obs::Profile) hook instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LegalizeStats {
    /// Number of augmenting paths realized (flow-based legalizers).
    pub augmentations: usize,
    /// Search-tree nodes expanded across all path searches.
    pub nodes_expanded: usize,
    /// Cells whose final die differs from their nearest-die snap.
    pub cross_die_moves: usize,
    /// Post-optimization passes actually executed.
    pub post_passes: usize,
    /// Cells relocated by the direct fallback when no augmenting path
    /// existed (macro-enclosed pockets); 0 in the common case.
    pub fallback_moves: usize,
    /// Whole cells moved between bins while realizing augmenting paths
    /// (flow-based legalizers; fallback relocations count separately in
    /// [`fallback_moves`](Self::fallback_moves)).
    pub cells_moved: usize,
}

impl LegalizeStats {
    /// Adds every counter of `other` into `self`.
    ///
    /// Used by multi-stage drivers that accumulate a stage's counters
    /// into a scratch `LegalizeStats` first and merge only when the
    /// stage's result is *accepted* — a rejected post-optimization pass
    /// must not pollute the reported run totals (its work is still
    /// visible through the observability counters).
    pub fn absorb(&mut self, other: &Self) {
        self.augmentations += other.augmentations;
        self.nodes_expanded += other.nodes_expanded;
        self.cross_die_moves += other.cross_die_moves;
        self.post_passes += other.post_passes;
        self.fallback_moves += other.fallback_moves;
        self.cells_moved += other.cells_moved;
    }
}

/// Result of a legalization run: the placement plus run counters.
#[derive(Debug, Clone, PartialEq)]
pub struct LegalizeOutcome {
    /// The legal placement.
    pub placement: LegalPlacement,
    /// Run counters.
    pub stats: LegalizeStats,
}

/// A standard-cell legalizer: maps a continuous 3D global placement to a
/// legal placement.
///
/// Implemented by [`Flow3dLegalizer`](crate::Flow3dLegalizer) and by the
/// Tetris / Abacus / BonnPlaceLegal baselines in `flow3d-baselines`. An
/// implementation provides [`legalize_observed`](Self::legalize_observed);
/// [`legalize`](Self::legalize) is that call without a hook.
pub trait Legalizer {
    /// Short identifier for tables and logs (e.g. `"3d-flow"`).
    fn name(&self) -> &str;

    /// Legalizes `global` against `design`, recording phase timings and
    /// event counters into `obs` when it is `Some` (see [`flow3d_obs`]).
    ///
    /// # Errors
    ///
    /// Returns [`LegalizeError`] when the placement cannot be legalized
    /// (cells that fit nowhere, utilization overflow, or — for flow-based
    /// methods — sources no path or relocation can drain).
    fn legalize_observed(
        &self,
        design: &Design,
        global: &Placement3d,
        obs: Obs<'_>,
    ) -> Result<LegalizeOutcome, LegalizeError>;

    /// [`legalize_observed`](Self::legalize_observed) without an
    /// observability hook.
    ///
    /// # Errors
    ///
    /// Same as [`legalize_observed`](Self::legalize_observed).
    fn legalize(
        &self,
        design: &Design,
        global: &Placement3d,
    ) -> Result<LegalizeOutcome, LegalizeError> {
        self.legalize_observed(design, global, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_sums_every_field() {
        let mut a = LegalizeStats {
            augmentations: 1,
            nodes_expanded: 2,
            cross_die_moves: 3,
            post_passes: 4,
            fallback_moves: 5,
            cells_moved: 6,
        };
        let b = LegalizeStats {
            augmentations: 10,
            nodes_expanded: 20,
            cross_die_moves: 30,
            post_passes: 40,
            fallback_moves: 50,
            cells_moved: 60,
        };
        a.absorb(&b);
        assert_eq!(
            a,
            LegalizeStats {
                augmentations: 11,
                nodes_expanded: 22,
                cross_die_moves: 33,
                post_passes: 44,
                fallback_moves: 55,
                cells_moved: 66,
            }
        );
    }

    /// The trait must stay object-safe: harnesses hold `Box<dyn Legalizer>`.
    #[test]
    fn legalizer_is_object_safe() {
        struct Noop;
        impl Legalizer for Noop {
            fn name(&self) -> &str {
                "noop"
            }
            fn legalize_observed(
                &self,
                design: &Design,
                _global: &Placement3d,
                _obs: Obs<'_>,
            ) -> Result<LegalizeOutcome, LegalizeError> {
                Ok(LegalizeOutcome {
                    placement: LegalPlacement::new(design.num_cells()),
                    stats: LegalizeStats::default(),
                })
            }
        }
        let boxed: Box<dyn Legalizer> = Box::new(Noop);
        assert_eq!(boxed.name(), "noop");
    }
}
