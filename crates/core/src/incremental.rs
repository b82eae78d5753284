//! Incremental (ECO) legalization.
//!
//! The paper notes that "our flow-based legalizer enables incremental
//! legalization inherently" (§III-E) — the post-optimization exploits it
//! internally. This module exposes the capability as a public API for the
//! classical use case: after legalization, a timing-optimization step
//! (gate sizing, buffer insertion, small moves) perturbs a few cells, and
//! the placement must be made legal again *with minimal disturbance to
//! everything else*.
//!
//! Unperturbed cells are seeded at — and anchored to — their current
//! legal positions, so the flow only moves them when the perturbation's
//! overflow forces it; perturbed cells are anchored to their requested
//! positions. A fine bin grid (the post-optimization width `5·w̄_c`) keeps
//! the cost model precise for the localized overflow.

use crate::driver::Flow3dLegalizer;
use crate::error::LegalizeError;
use crate::resident::EcoEngine;
use crate::traits::LegalizeOutcome;
use flow3d_db::{CellMove, Design, LegalPlacement};
use flow3d_obs::Obs;

impl Flow3dLegalizer {
    /// Re-legalizes `base` after the engineering changes in `moves`.
    ///
    /// Every cell not listed in `moves` is anchored to its position in
    /// `base`, so the result minimizes *perturbation* rather than
    /// displacement from the original global placement. The reported
    /// displacement stats of the outcome are therefore relative to
    /// `base`.
    ///
    /// # Errors
    ///
    /// [`LegalizeError::PlacementMismatch`] if `base` has the wrong cell
    /// count, [`LegalizeError::NoPosition`] if a requested target fits
    /// nowhere, and the usual flow errors for infeasible overflow.
    pub fn legalize_incremental(
        &self,
        design: &Design,
        base: &LegalPlacement,
        moves: &[CellMove],
    ) -> Result<LegalizeOutcome, LegalizeError> {
        self.legalize_incremental_observed(design, base, moves, None)
    }

    /// [`legalize_incremental`](Self::legalize_incremental) with an
    /// observability hook: records `"eco_seed"`, `"flow_pass"` and
    /// `"placerow"` phases plus the usual search counters into `obs` when
    /// it is `Some` (see [`flow3d_obs`]).
    ///
    /// This is a resident [`EcoEngine`] built for one request.
    ///
    /// # Errors
    ///
    /// Same as [`legalize_incremental`](Self::legalize_incremental).
    pub fn legalize_incremental_observed(
        &self,
        design: &Design,
        base: &LegalPlacement,
        moves: &[CellMove],
        obs: Obs<'_>,
    ) -> Result<LegalizeOutcome, LegalizeError> {
        EcoEngine::new(self.config().clone(), design.clone(), base.clone())?
            .eco_observed(moves, obs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Legalizer;
    use flow3d_db::{
        CellId, DesignBuilder, DieId, DieSpec, LibCellSpec, Placement3d, TechnologySpec,
    };
    use flow3d_geom::{FPoint, Point};
    use flow3d_metrics::check_legal;

    fn design(n: usize) -> Design {
        let mut b = DesignBuilder::new("t")
            .technology(TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("C", 30, 10)))
            .die(DieSpec::new("bottom", "T", (0, 0, 400, 40), 10, 1, 1.0))
            .die(DieSpec::new("top", "T", (0, 0, 400, 40), 10, 1, 1.0));
        for i in 0..n {
            b = b.cell(format!("u{i}"), "C");
        }
        b.build().unwrap()
    }

    fn base_placement(d: &Design) -> LegalPlacement {
        let n = d.num_cells();
        let mut gp = Placement3d::new(n);
        for i in 0..n {
            gp.set_pos(
                CellId::new(i),
                FPoint::new((i as f64 * 35.0) % 350.0, 10.0 * ((i / 10) as f64)),
            );
        }
        Flow3dLegalizer::default()
            .legalize(d, &gp)
            .unwrap()
            .placement
    }

    #[test]
    fn noop_eco_changes_nothing() {
        let d = design(12);
        let base = base_placement(&d);
        let outcome = Flow3dLegalizer::default()
            .legalize_incremental(&d, &base, &[])
            .unwrap();
        assert_eq!(outcome.placement, base);
        assert_eq!(outcome.stats.augmentations, 0);
    }

    #[test]
    fn single_move_into_occupied_spot_perturbs_locally() {
        let d = design(12);
        let base = base_placement(&d);
        // Ask cell 0 to sit exactly where cell 1 is.
        let clash = base.pos(CellId::new(1));
        let mv = CellMove {
            cell: CellId::new(0),
            target: clash,
            die: Some(base.die(CellId::new(1))),
        };
        let outcome = Flow3dLegalizer::default()
            .legalize_incremental(&d, &base, &[mv])
            .unwrap();
        assert!(check_legal(&d, &outcome.placement).is_legal());
        // Cell 0 landed near its request.
        let p0 = outcome.placement.pos(CellId::new(0));
        assert!(p0.manhattan(clash) <= 60, "{p0} vs {clash}");
        // Most cells did not move at all.
        let unmoved = (0..12)
            .filter(|&i| {
                outcome.placement.pos(CellId::new(i)) == base.pos(CellId::new(i))
                    && outcome.placement.die(CellId::new(i)) == base.die(CellId::new(i))
            })
            .count();
        assert!(unmoved >= 8, "only {unmoved}/12 cells untouched");
    }

    #[test]
    fn cross_die_eco_request_is_honored() {
        let d = design(6);
        let base = base_placement(&d);
        let from = base.die(CellId::new(2));
        let to = DieId::new(1 - from.index());
        let mv = CellMove {
            cell: CellId::new(2),
            target: base.pos(CellId::new(2)),
            die: Some(to),
        };
        let outcome = Flow3dLegalizer::default()
            .legalize_incremental(&d, &base, &[mv])
            .unwrap();
        assert!(check_legal(&d, &outcome.placement).is_legal());
        assert_eq!(outcome.placement.die(CellId::new(2)), to);
        assert!(outcome.stats.cross_die_moves >= 1);
    }

    /// Two-die design whose top die is too narrow to host a single
    /// width-30 cell: any cell "on top" is there illegally.
    fn narrow_top_design(n: usize) -> Design {
        let mut b = DesignBuilder::new("t")
            .technology(TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("C", 30, 10)))
            .die(DieSpec::new("bottom", "T", (0, 0, 400, 40), 10, 1, 1.0))
            .die(DieSpec::new("top", "T", (0, 0, 20, 40), 10, 1, 1.0));
        for i in 0..n {
            b = b.cell(format!("u{i}"), "C");
        }
        b.build().unwrap()
    }

    #[test]
    fn corrupt_base_surfaces_no_position_instead_of_silent_relocation() {
        // Cell 0 sits on a die that cannot host it, and the ECO does not
        // touch it: the die fallback is documented as "moved cells only",
        // so the corruption must surface as NoPosition, not be papered
        // over by quietly relocating the cell to another die.
        let d = narrow_top_design(2);
        let mut base = flow3d_db::LegalPlacement::new(2);
        base.place(CellId::new(0), Point::new(0, 0), DieId::new(1));
        base.place(CellId::new(1), Point::new(0, 0), DieId::new(0));
        let err = Flow3dLegalizer::default()
            .legalize_incremental(&d, &base, &[])
            .unwrap_err();
        assert!(
            matches!(err, LegalizeError::NoPosition { cell } if cell == CellId::new(0)),
            "expected NoPosition for the corrupt cell, got {err:?}"
        );
    }

    #[test]
    fn moved_cell_keeps_the_any_die_fallback() {
        // The same impossible die, but *requested by the ECO*: here the
        // fallback applies — the cell seeds on a die that fits and the
        // run succeeds.
        let d = narrow_top_design(3);
        let mut base = flow3d_db::LegalPlacement::new(3);
        for i in 0..3 {
            base.place(CellId::new(i), Point::new(30 * i as i64, 0), DieId::new(0));
        }
        let mv = CellMove {
            cell: CellId::new(1),
            target: Point::new(0, 0),
            die: Some(DieId::new(1)),
        };
        let outcome = Flow3dLegalizer::default()
            .legalize_incremental(&d, &base, &[mv])
            .unwrap();
        assert!(check_legal(&d, &outcome.placement).is_legal());
        assert_eq!(
            outcome.placement.die(CellId::new(1)),
            DieId::new(0),
            "the unhostable die request falls back to one that fits"
        );
    }

    #[test]
    fn mismatched_base_is_rejected() {
        let d = design(4);
        let wrong = LegalPlacement::new(2);
        let err = Flow3dLegalizer::default()
            .legalize_incremental(&d, &wrong, &[])
            .unwrap_err();
        assert!(matches!(err, LegalizeError::PlacementMismatch { .. }));
    }
}
