//! Resident ECO engine: warm-cache lifecycle for repeated incremental
//! legalization.
//!
//! [`Flow3dLegalizer::legalize_incremental`](crate::Flow3dLegalizer::legalize_incremental) re-derives everything on
//! every call: it re-parses nothing, but it does rebuild the
//! [`RowLayout`], the [`BinGrid`], re-resolves a seed position for every
//! cell, and allocates fresh search scratch — the wrong shape for a
//! service that replays small ECO batches against one design. This
//! module hoists all of that into an [`EcoEngine`] that owns the design
//! and keeps resident, across requests:
//!
//! * the **row layout** and **bin grid** (CSR adjacency) of the design,
//! * a **seed cache**: the resolved `(bin, x)` slot of every cell at its
//!   base position, so unmoved cells skip `nearest_position` entirely,
//! * the **search pool**: per-worker [`SearchScratch`](crate::search::SearchScratch)
//!   arenas (node arena, heap, selection buffer), which keep their
//!   allocations across requests.
//!
//! # Bit-identity with the one-shot path
//!
//! [`EcoEngine::eco`] and [`Flow3dLegalizer::legalize_incremental`](crate::Flow3dLegalizer::legalize_incremental) run
//! the *same* pipeline (`crate::incremental::run_eco`): the per-request
//! [`FlowState`](crate::state::FlowState) is rebuilt by the same insert loop in cell
//! order, with cached seeds replaying exactly what fresh resolution
//! would compute. Every downstream phase is deterministic in the seeded
//! state, so the engine's placements are bit-identical to the one-shot
//! API for every request — the caches carry capacity, never decisions.
//! Nothing a request computes survives into the next one except through
//! [`EcoEngine::commit`], which changes the base on purpose.

use crate::config::Flow3dConfig;
use crate::driver::bin_widths;
use crate::error::LegalizeError;
use crate::grid::{BinGrid, BinId};
use crate::incremental::{resolve_seed, run_eco, CellMove, EcoContext};
use crate::search::SearchPool;
use crate::state::GeomSource;
use crate::traits::LegalizeOutcome;
use flow3d_db::{CellId, Design, LegalPlacement, RowLayout, SoaView};
use flow3d_obs::Obs;

/// A resident incremental-legalization engine: one design, one base
/// placement, warm caches across ECO requests.
///
/// See the [module docs](self) for the cache lifecycle and the
/// bit-identity argument. Typical use:
///
/// ```
/// use flow3d_core::{EcoEngine, Flow3dConfig, Flow3dLegalizer, Legalizer};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let case = flow3d_gen::GeneratorConfig::small_demo(7).generate()?;
/// let legalizer = Flow3dLegalizer::new(Flow3dConfig::default());
/// let base = legalizer.legalize(&case.design, &case.natural)?.placement;
/// let mut engine = EcoEngine::new(Flow3dConfig::default(), case.design, base)?;
/// let outcome = engine.eco(&[])?; // no-op ECO returns the base placement
/// assert_eq!(&outcome.placement, engine.base());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct EcoEngine {
    cfg: Flow3dConfig,
    design: Design,
    layout: RowLayout,
    grid: BinGrid,
    base: LegalPlacement,
    /// Resolved `(bin, x)` seed of every cell at its base anchor/die;
    /// `None` = the base cell fits nowhere on its own die (surfaces as
    /// [`LegalizeError::NoPosition`] on the next request, exactly like
    /// the one-shot path).
    seed_cache: Vec<Option<(BinId, i64)>>,
    /// Resident geometry columns (`None` when `cfg.soa_view` is off):
    /// built once with the layout/grid and borrowed by every request.
    soa: Option<SoaView>,
    pool: SearchPool,
    threads: usize,
    requests: u64,
}

impl EcoEngine {
    /// Builds a resident engine for `design` with `base` as the current
    /// legal placement.
    ///
    /// Builds the row layout and bin grid (at the post-optimization bin
    /// width, like [`Flow3dLegalizer::legalize_incremental`](crate::Flow3dLegalizer::legalize_incremental)) and
    /// resolves the seed cache. Cheap relative to a legalization but not
    /// free — the point is to pay it once.
    ///
    /// # Errors
    ///
    /// [`LegalizeError::PlacementMismatch`] if `base` has the wrong cell
    /// count. A base cell that fits nowhere on its die is *not* an error
    /// here; it surfaces as [`LegalizeError::NoPosition`] on the next
    /// [`eco`](Self::eco), matching the one-shot API's error order.
    pub fn new(
        cfg: Flow3dConfig,
        design: Design,
        base: LegalPlacement,
    ) -> Result<Self, LegalizeError> {
        let n = design.num_cells();
        if base.num_cells() != n {
            return Err(LegalizeError::PlacementMismatch {
                design_cells: n,
                placement_cells: base.num_cells(),
            });
        }
        let layout = RowLayout::build(&design);
        let widths = bin_widths(&design, cfg.post_bin_width_factor);
        let grid = BinGrid::build(&design, &layout, &widths, cfg.allow_d2d);
        let soa = cfg.soa_view.then(|| SoaView::geometry(&design));
        let seed_cache = Self::resolve_cache(&design, &layout, &grid, &soa, &base);
        let threads = flow3d_par::resolve_threads(cfg.threads);
        Ok(Self {
            cfg,
            design,
            layout,
            grid,
            base,
            seed_cache,
            soa,
            pool: SearchPool::new(),
            threads,
            requests: 0,
        })
    }

    fn resolve_cache(
        design: &Design,
        layout: &RowLayout,
        grid: &BinGrid,
        soa: &Option<SoaView>,
        base: &LegalPlacement,
    ) -> Vec<Option<(BinId, i64)>> {
        let geom = match soa {
            Some(view) => GeomSource::Soa(view),
            None => GeomSource::IdMap,
        };
        (0..design.num_cells())
            .map(|i| {
                let cell = CellId::new(i);
                resolve_seed(
                    design,
                    layout,
                    grid,
                    &geom,
                    base.die(cell),
                    base.pos(cell),
                    cell,
                )
            })
            .collect()
    }

    /// The resident design.
    pub fn design(&self) -> &Design {
        &self.design
    }

    /// The current base placement ECO requests perturb.
    pub fn base(&self) -> &LegalPlacement {
        &self.base
    }

    /// The engine's configuration.
    pub fn config(&self) -> &Flow3dConfig {
        &self.cfg
    }

    /// Number of successfully served ECO requests.
    pub fn requests_served(&self) -> u64 {
        self.requests
    }

    /// Overrides the worker count resolved from the configuration.
    /// Thread count never changes results or telemetry counters.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = flow3d_par::resolve_threads(threads);
    }

    /// Re-legalizes the resident base after the changes in `moves`,
    /// without instrumentation. See [`eco_observed`](Self::eco_observed).
    ///
    /// # Errors
    ///
    /// Same as [`Flow3dLegalizer::legalize_incremental`](crate::Flow3dLegalizer::legalize_incremental).
    pub fn eco(&mut self, moves: &[CellMove]) -> Result<LegalizeOutcome, LegalizeError> {
        self.eco_observed(moves, None)
    }

    /// Re-legalizes the resident base after the changes in `moves`,
    /// recording `"eco_seed"`, `"flow_pass"` and `"placerow"` phases plus
    /// the usual search counters into `obs` when it is `Some`.
    ///
    /// The placement is bit-identical to
    /// [`Flow3dLegalizer::legalize_incremental`](crate::Flow3dLegalizer::legalize_incremental) on `(design, base,
    /// moves)` with the same configuration. A failed request leaves
    /// nothing a later request reads: the search pool keeps only buffer
    /// capacity.
    ///
    /// # Errors
    ///
    /// Same as [`Flow3dLegalizer::legalize_incremental`](crate::Flow3dLegalizer::legalize_incremental).
    pub fn eco_observed(
        &mut self,
        moves: &[CellMove],
        obs: Obs<'_>,
    ) -> Result<LegalizeOutcome, LegalizeError> {
        let ctx = EcoContext {
            design: &self.design,
            layout: &self.layout,
            grid: &self.grid,
            cfg: &self.cfg,
            base: &self.base,
            seed_cache: Some(&self.seed_cache),
            threads: self.threads,
            geom: match &self.soa {
                Some(view) => GeomSource::Soa(view),
                None => GeomSource::IdMap,
            },
        };
        let out = run_eco(&ctx, moves, &mut self.pool, obs);
        if out.is_ok() {
            self.requests += 1;
        }
        out
    }

    /// Adopts `placement` as the new base, re-resolving **only the seeds
    /// that can have changed**: a cell whose `(position, die)` equals the
    /// old base's would resolve to the identical slot (`resolve_seed` is
    /// a pure function of the die, the anchor, and the cell's width on
    /// that die), so its cached entry is kept. Call with an accepted ECO
    /// outcome to make follow-up requests relative to it.
    ///
    /// Returns how many seeds were refreshed out of how many cells, so
    /// callers (the serve layer, benches) can report the delta's
    /// effectiveness.
    ///
    /// # Errors
    ///
    /// [`LegalizeError::PlacementMismatch`] if `placement` has the wrong
    /// cell count.
    pub fn commit(&mut self, placement: LegalPlacement) -> Result<CommitStats, LegalizeError> {
        let n = self.design.num_cells();
        if placement.num_cells() != n {
            return Err(LegalizeError::PlacementMismatch {
                design_cells: n,
                placement_cells: placement.num_cells(),
            });
        }
        let geom = match &self.soa {
            Some(view) => GeomSource::Soa(view),
            None => GeomSource::IdMap,
        };
        let mut reseeded = 0;
        for i in 0..n {
            let cell = CellId::new(i);
            if placement.pos(cell) == self.base.pos(cell)
                && placement.die(cell) == self.base.die(cell)
            {
                continue;
            }
            reseeded += 1;
            self.seed_cache[i] = resolve_seed(
                &self.design,
                &self.layout,
                &self.grid,
                &geom,
                placement.die(cell),
                placement.pos(cell),
                cell,
            );
        }
        self.base = placement;
        Ok(CommitStats { reseeded, total: n })
    }
}

/// What one [`EcoEngine::commit`] actually refreshed: the seed-cache
/// delta's effectiveness, reported so serve stats and benches can verify
/// that commits after small ECOs stay incremental.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
// flow3d-tidy: allow(dead-pub) — cross-crate via return-value field access (flow3d-serve reads reseeded/total off EcoEngine::commit), which the ref scan cannot see
pub struct CommitStats {
    /// Seeds re-resolved because the cell's `(position, die)` changed
    /// against the previous base.
    pub reseeded: usize,
    /// Seed-cache entries examined (= design cells).
    pub total: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Flow3dLegalizer;
    use crate::traits::Legalizer;
    use flow3d_db::{DesignBuilder, DieId, DieSpec, LibCellSpec, Placement3d, TechnologySpec};
    use flow3d_geom::{FPoint, Point};

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

    fn clash_move(base: &LegalPlacement, from: usize, onto: usize) -> CellMove {
        CellMove {
            cell: CellId::new(from),
            target: base.pos(CellId::new(onto)),
            die: Some(base.die(CellId::new(onto))),
        }
    }

    /// Piles `from` onto `onto`'s position: enough clashing cells
    /// overflow the bin, which forces flow-pass searches (a lone clash
    /// is absorbed by PlaceRow without any search running).
    fn pileup(base: &LegalPlacement, from: &[usize], onto: usize) -> Vec<CellMove> {
        from.iter().map(|&i| clash_move(base, i, onto)).collect()
    }

    #[test]
    fn engine_matches_one_shot_bit_identically() {
        let d = design(12);
        let base = base_placement(&d);
        let legalizer = Flow3dLegalizer::default();
        let mut engine = EcoEngine::new(Flow3dConfig::default(), d.clone(), base.clone()).unwrap();
        // A mixed batch: clashes, a cross-die request, replays, a no-op.
        let sets: Vec<Vec<CellMove>> = vec![
            vec![],
            pileup(&base, &[0, 1, 2, 3, 4], 5),
            pileup(&base, &[0, 1, 2, 3, 4], 5), // replay
            vec![clash_move(&base, 5, 6), clash_move(&base, 7, 6)],
            vec![CellMove {
                cell: CellId::new(2),
                target: base.pos(CellId::new(2)),
                die: Some(DieId::new(1 - base.die(CellId::new(2)).index())),
            }],
            pileup(&base, &[0, 1, 2, 3, 4], 5), // back to an earlier set
        ];
        for (k, moves) in sets.iter().enumerate() {
            let warm = engine.eco(moves).unwrap();
            let cold = legalizer.legalize_incremental(&d, &base, moves).unwrap();
            assert_eq!(warm.placement, cold.placement, "request {k} diverged");
            assert_eq!(
                warm.stats.cross_die_moves, cold.stats.cross_die_moves,
                "request {k} stats diverged"
            );
        }
        assert_eq!(engine.requests_served(), 6);
    }

    #[test]
    fn commit_rebases_follow_up_requests() {
        let d = design(12);
        let base = base_placement(&d);
        let mut engine = EcoEngine::new(Flow3dConfig::default(), d, base.clone()).unwrap();
        let moved = engine.eco(&[clash_move(&base, 0, 1)]).unwrap().placement;
        engine.commit(moved.clone()).unwrap();
        assert_eq!(engine.base(), &moved);
        // A no-op ECO against the committed base returns it unchanged.
        let out = engine.eco(&[]).unwrap();
        assert_eq!(out.placement, moved);
        // And a mismatched commit is rejected.
        assert!(matches!(
            engine.commit(LegalPlacement::new(2)),
            Err(LegalizeError::PlacementMismatch { .. })
        ));
    }

    #[test]
    fn commit_delta_matches_a_full_seed_rebuild() {
        let d = design(12);
        let base = base_placement(&d);
        let mut engine = EcoEngine::new(Flow3dConfig::default(), d, base.clone()).unwrap();
        let moved = engine.eco(&[clash_move(&base, 0, 1)]).unwrap().placement;
        let cs = engine.commit(moved.clone()).unwrap();
        assert_eq!(cs.total, 12);
        // The delta refreshes exactly the cells whose (pos, die) changed …
        let changed = (0..12)
            .filter(|&i| {
                let c = CellId::new(i);
                moved.pos(c) != base.pos(c) || moved.die(c) != base.die(c)
            })
            .count();
        assert!(cs.reseeded > 0, "the ECO moved something");
        assert_eq!(cs.reseeded, changed);
        assert!(
            cs.reseeded < cs.total,
            "a small ECO must not rebuild every seed ({}/{})",
            cs.reseeded,
            cs.total
        );
        // … and the resulting cache is bit-identical to resolving every
        // seed from scratch against the new base.
        let full = EcoEngine::resolve_cache(
            &engine.design,
            &engine.layout,
            &engine.grid,
            &engine.soa,
            &moved,
        );
        assert_eq!(engine.seed_cache, full);
    }

    #[test]
    fn corrupt_base_errors_match_the_one_shot_path() {
        // Top die too narrow for any cell; cell 0 sits there illegally.
        let mut b = DesignBuilder::new("t")
            .technology(TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("C", 30, 10)))
            .die(DieSpec::new("bottom", "T", (0, 0, 400, 40), 10, 1, 1.0))
            .die(DieSpec::new("top", "T", (0, 0, 20, 40), 10, 1, 1.0));
        for i in 0..2 {
            b = b.cell(format!("u{i}"), "C");
        }
        let d = b.build().unwrap();
        let mut base = LegalPlacement::new(2);
        base.place(CellId::new(0), Point::new(0, 0), DieId::new(1));
        base.place(CellId::new(1), Point::new(0, 0), DieId::new(0));
        // Construction succeeds; the corruption surfaces on the request,
        // exactly like `legalize_incremental`.
        let mut engine = EcoEngine::new(Flow3dConfig::default(), d, base).unwrap();
        let err = engine.eco(&[]).unwrap_err();
        assert!(
            matches!(err, LegalizeError::NoPosition { cell } if cell == CellId::new(0)),
            "expected NoPosition for the corrupt cell, got {err:?}"
        );
    }

    #[test]
    fn mismatched_base_is_rejected_at_construction() {
        let d = design(4);
        let err = EcoEngine::new(Flow3dConfig::default(), d, LegalPlacement::new(2)).unwrap_err();
        assert!(matches!(err, LegalizeError::PlacementMismatch { .. }));
    }
}
