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

use crate::config::Flow3dConfig;
use crate::driver::{
    bin_widths, flow_pass_threaded_pooled, placerow_all_threaded, Flow3dLegalizer,
};
use crate::error::LegalizeError;
use crate::grid::{BinGrid, BinId};
use crate::search::{SearchParams, SearchPool};
use crate::selection::SelectionParams;
use crate::state::{FlowState, GeomSource};
use crate::traits::{LegalizeOutcome, LegalizeStats};
use flow3d_db::{CellId, Design, DieId, LegalPlacement, RowLayout};
use flow3d_geom::Point;
use flow3d_obs::{Obs, ObsExt};

/// One requested cell change in an ECO.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellMove {
    /// The cell the optimization step touched.
    pub cell: CellId,
    /// Requested lower-left position (need not be legal; it becomes the
    /// cell's new displacement anchor).
    pub target: Point,
    /// Requested die, or `None` to keep the cell's current die.
    pub die: Option<DieId>,
}

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
        let n = design.num_cells();
        if base.num_cells() != n {
            return Err(LegalizeError::PlacementMismatch {
                design_cells: n,
                placement_cells: base.num_cells(),
            });
        }
        let cfg = self.config();
        let layout = RowLayout::build(design);
        let widths = bin_widths(design, cfg.post_bin_width_factor);
        let grid = BinGrid::build(design, &layout, &widths, cfg.allow_d2d);
        let threads = flow3d_par::resolve_threads(cfg.threads);
        let mut pool = SearchPool::new();
        let geom = if cfg.soa_view {
            GeomSource::Owned(flow3d_db::SoaView::geometry(design))
        } else {
            GeomSource::IdMap
        };
        let ctx = EcoContext {
            design,
            layout: &layout,
            grid: &grid,
            cfg,
            base,
            seed_cache: None,
            threads,
            geom,
        };
        run_eco(&ctx, moves, &mut pool, obs)
    }
}

/// Everything one ECO run reads but does not own: the design-derived
/// structures (resident in [`crate::EcoEngine`], rebuilt per call by
/// [`Flow3dLegalizer::legalize_incremental`]) plus the run knobs.
pub(crate) struct EcoContext<'a> {
    /// The design being legalized.
    pub design: &'a Design,
    /// Row layout of `design`.
    pub layout: &'a RowLayout,
    /// Bin grid built at the post-optimization width.
    pub grid: &'a BinGrid,
    /// Legalizer configuration (alpha, row algorithm, …).
    pub cfg: &'a Flow3dConfig,
    /// The legal placement the ECO perturbs; anchors and the cross-die
    /// counter are relative to it.
    pub base: &'a LegalPlacement,
    /// Pre-resolved seed slot per cell at its *base* anchor and die
    /// (`None` entry = the base cell fits nowhere on its die). A resident
    /// engine computes this once so unmoved cells skip
    /// `nearest_position`; `None` resolves every cell fresh.
    pub seed_cache: Option<&'a [Option<(BinId, i64)>]>,
    /// Worker count for the flow and PlaceRow phases.
    pub threads: usize,
    /// Geometry source for the seeded state (a resident engine borrows
    /// its long-lived view; one-shot ECOs own a fresh one).
    pub geom: GeomSource<'a>,
}

/// Resolves the seed slot for `cell` anchored at `a` on `die`: the
/// nearest legal position and the bin that contains it.
pub(crate) fn resolve_seed(
    design: &Design,
    layout: &RowLayout,
    grid: &BinGrid,
    geom: &GeomSource<'_>,
    die: DieId,
    a: Point,
    cell: CellId,
) -> Option<(BinId, i64)> {
    let w = geom.cell_width(design, cell, die);
    layout
        .nearest_position(design, die, a.x, a.y, w)
        .map(|(seg, x)| (grid.bin_at(seg.id, x), x))
}

/// The shared ECO pipeline: seed a fresh [`FlowState`] from `ctx.base`
/// with `moves` applied, drain the overflow, and run PlaceRow.
///
/// Both the one-shot [`Flow3dLegalizer::legalize_incremental`] and the
/// resident [`crate::EcoEngine`] funnel through this function, which is
/// what makes their placements bit-identical by construction: the state
/// is always built by the same insert loop in cell order (cached seeds
/// replay exactly what `resolve_seed` would recompute), and everything
/// downstream is deterministic in the seeded state.
pub(crate) fn run_eco(
    ctx: &EcoContext<'_>,
    moves: &[CellMove],
    pool: &mut SearchPool,
    mut obs: Obs<'_>,
) -> Result<LegalizeOutcome, LegalizeError> {
    let (design, layout, grid, cfg) = (ctx.design, ctx.layout, ctx.grid, ctx.cfg);
    let n = design.num_cells();

    // Anchors: base positions, overridden by the requested targets.
    obs.begin("eco_seed");
    let mut anchors: Vec<Point> = (0..n).map(|i| ctx.base.pos(CellId::new(i))).collect();
    let mut target_die: Vec<DieId> = (0..n).map(|i| ctx.base.die(CellId::new(i))).collect();
    let mut is_moved = vec![false; n];
    for mv in moves {
        anchors[mv.cell.index()] = mv.target;
        is_moved[mv.cell.index()] = true;
        if let Some(die) = mv.die {
            target_die[mv.cell.index()] = die;
        }
    }

    let mut state = FlowState::with_geom(design, layout, grid, anchors.clone(), ctx.geom.clone());
    for i in 0..n {
        let cell = CellId::new(i);
        let seeded = if !is_moved[i] {
            // Unmoved cell: its anchor and die are exactly the base's, so
            // a resident seed cache replays the same resolution. No die
            // fallback — an unmoved cell that fails to seed means the
            // base placement is not legal on its own die; silently
            // relocating it would hide the corruption, so let it surface
            // as `NoPosition` below.
            match ctx.seed_cache {
                Some(cache) => cache[i],
                None => resolve_seed(
                    design,
                    layout,
                    grid,
                    &ctx.geom,
                    target_die[i],
                    anchors[i],
                    cell,
                ),
            }
        } else {
            // Moved cell: resolve the requested target fresh; if the
            // requested die cannot host the cell at all, fall back to any
            // die that can.
            resolve_seed(
                design,
                layout,
                grid,
                &ctx.geom,
                target_die[i],
                anchors[i],
                cell,
            )
            .or_else(|| {
                (0..design.num_dies()).map(DieId::new).find_map(|d| {
                    resolve_seed(design, layout, grid, &ctx.geom, d, anchors[i], cell)
                })
            })
        };
        match seeded {
            Some((hint, x)) => state.insert_cell(cell, hint, x),
            None => {
                obs.end("eco_seed");
                return Err(LegalizeError::NoPosition { cell });
            }
        }
    }
    obs.end("eco_seed");

    let slack = design
        .dies()
        .iter()
        .map(|d| d.row_height)
        .min()
        .unwrap_or(1) as f64;
    let d2d_penalty = design
        .dies()
        .iter()
        .map(|d| d.row_height)
        .max()
        .unwrap_or(1) as f64;
    let params = SearchParams {
        alpha: cfg.alpha,
        slack,
        dijkstra: false,
        selection: SelectionParams {
            clamp_negative: false,
            d2d_congestion_cost: cfg.d2d_congestion_cost,
            d2d_penalty,
        },
    };
    let mut stats = LegalizeStats::default();
    obs.begin("flow_pass");
    let flowed = flow_pass_threaded_pooled(
        &mut state,
        &params,
        ctx.threads,
        &mut stats,
        obs.reborrow(),
        pool,
    );
    obs.end("flow_pass");
    flowed?;
    obs.begin("placerow");
    let placed = placerow_all_threaded(&state, cfg.row_algo, ctx.threads, obs.reborrow());
    obs.end("placerow");
    let placement = placed?;

    // Cross-die counter relative to the *base* placement here.
    stats.cross_die_moves = (0..n)
        .filter(|&i| placement.die(CellId::new(i)) != ctx.base.die(CellId::new(i)))
        .count();
    Ok(LegalizeOutcome { placement, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::Legalizer;
    use flow3d_db::{DesignBuilder, DieSpec, LibCellSpec, Placement3d, TechnologySpec};
    use flow3d_geom::FPoint;
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
