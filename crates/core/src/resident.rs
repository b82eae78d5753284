//! Resident ECO engine: one seeded flow state kept warm across
//! incremental-legalization requests.
//!
//! An [`EcoEngine`] owns the design and keeps resident, across requests:
//!
//! * the **row layout** and **bin grid** (CSR adjacency) of the design,
//!   at the post-optimization bin width;
//! * the **seeded state**: the flow-state columns with every cell seeded
//!   at, and anchored to, its base position;
//! * the **search pool**: per-worker [`SearchScratch`](crate::search::SearchScratch)
//!   arenas (node arena, heap, selection buffer), which keep their
//!   allocations across requests.
//!
//! A request opens the state's undo journal, re-anchors and re-seeds only
//! the moved cells, runs the flow pass, and re-runs `PlaceRow` only on the
//! segments whose membership changed, patching a copy of the base. Then
//! it rolls the journal back, on every exit path, so the state is the
//! seeded base again. [`EcoEngine::commit`] re-seeds only the cells whose
//! position or die changed.
//!
//! # Bit-identity with a fresh seed
//!
//! Every placement equals what a fresh whole-design seed of the same
//! request followed by `PlaceRow` on every segment would produce:
//!
//! * the rolled-back state holds the same fragments as a fresh seed of
//!   the base; only the order of fragments inside a bin differs, and
//!   nothing downstream depends on it (selection sorts by
//!   `(unit, cell)`, `PlaceRow` by `(desired, key)`, the teleport
//!   fallback by `(width, cell)`);
//! * the `PlaceRow` of a segment depends only on which cells are in it,
//!   and a segment no journaled cell left or entered holds the seeded
//!   base's cells, whose rows `PlaceRow` leaves as they are in a legal
//!   base. Segments where it would not (an illegal base) are found when
//!   the base is seeded and re-placed by every request.
//!
//! `tests/stage_properties.rs` checks this against the fresh-seed
//! pipeline on random designs and request streams with commits.

use crate::config::Flow3dConfig;
use crate::driver::{bin_widths, flow_pass, place_segment, placerow_segments, search_params};
use crate::error::LegalizeError;
use crate::grid::BinGrid;
use crate::search::SearchPool;
use crate::state::{FlowColumns, FlowState, Seed};
use crate::traits::{LegalizeOutcome, LegalizeStats};
use flow3d_db::{CellId, CellMove, Design, LegalPlacement, RowLayout, SegmentId};
use flow3d_geom::Point;
use flow3d_obs::{Obs, ObsExt};

/// A resident incremental-legalization engine: one design, one base
/// placement, one seeded flow state kept warm across ECO requests.
///
/// See the [module docs](self) for the state lifecycle and the
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
    /// The flow state seeded at `base`, anchors at the base positions.
    /// A request borrows it under the undo journal and rolls it back.
    cols: FlowColumns,
    /// Base cells that fit nowhere on their own die, ascending. A request
    /// that does not move them fails with [`LegalizeError::NoPosition`].
    unseedable: Vec<CellId>,
    /// Segments whose base rows differ from `PlaceRow` of the seeded
    /// state (or fail it), ascending. Only an illegal base has them;
    /// every request re-places them.
    irregular: Vec<SegmentId>,
    pool: SearchPool,
    threads: usize,
    requests: u64,
}

impl EcoEngine {
    /// Builds a resident engine for `design` with `base` as the current
    /// legal placement.
    ///
    /// Builds the row layout and bin grid (at the post-optimization bin
    /// width) and seeds every cell at its base position. Costs about one
    /// whole-design ECO; the point is to pay it once.
    ///
    /// # Errors
    ///
    /// [`LegalizeError::PlacementMismatch`] if `base` has the wrong cell
    /// count. A base cell that fits nowhere on its die is *not* an error
    /// here; it surfaces as [`LegalizeError::NoPosition`] on the next
    /// [`eco`](Self::eco) that does not move it.
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
        let anchors: Vec<Point> = (0..n).map(|i| base.pos(CellId::new(i))).collect();
        let cols = FlowColumns::new(&design, &grid, anchors);
        let threads = flow3d_par::resolve_threads(cfg.threads);
        let mut engine = Self {
            cfg,
            design,
            layout,
            grid,
            base,
            cols,
            unseedable: Vec::new(),
            irregular: Vec::new(),
            pool: SearchPool::new(),
            threads,
            requests: 0,
        };
        let all: Vec<CellId> = (0..n).map(CellId::new).collect();
        engine.rebase(&all);
        Ok(engine)
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
    /// Every cell not listed in `moves` stays anchored to its base
    /// position; a listed cell is anchored to its target and seeded on the
    /// requested die (its base die when `die` is `None`), or on the first
    /// die that fits it when that one cannot. A cell listed twice takes
    /// its last target and its last requested die.
    ///
    /// A request leaves nothing a later one reads, failed or not: the
    /// state is rolled back to the seeded base on every exit path, and
    /// the search pool keeps only buffer capacity.
    ///
    /// # Errors
    ///
    /// Same as [`Flow3dLegalizer::legalize_incremental`](crate::Flow3dLegalizer::legalize_incremental).
    /// A seeding failure names the lowest cell id among the moved cells
    /// that fit no die and the unmoved base cells that fit nowhere on
    /// their own die.
    pub fn eco_observed(
        &mut self,
        moves: &[CellMove],
        obs: Obs<'_>,
    ) -> Result<LegalizeOutcome, LegalizeError> {
        let mut pool = std::mem::take(&mut self.pool);
        let cols = std::mem::take(&mut self.cols);
        let mut state = FlowState::from_columns(&self.design, &self.layout, &self.grid, cols);
        state.checkpoint();
        let out = self.serve(&mut state, moves, &mut pool, obs);
        state.rollback();
        self.cols = state.into_columns();
        self.pool = pool;
        if out.is_ok() {
            self.requests += 1;
        }
        out
    }

    /// One request on the journaled state (see the [module docs](self)).
    fn serve(
        &self,
        state: &mut FlowState<'_>,
        moves: &[CellMove],
        pool: &mut SearchPool,
        mut obs: Obs<'_>,
    ) -> Result<LegalizeOutcome, LegalizeError> {
        obs.begin("eco_seed");
        let seeds = self.move_seeds(moves);
        for s in &seeds {
            state.set_anchor(s.cell, s.at);
        }
        let failed = state.seed(&seeds);
        // An unmoved cell that fits nowhere on its die means the base is
        // not legal there; relocating it silently would hide that.
        let stranded = self
            .unseedable
            .iter()
            .find(|&&c| seeds.binary_search_by_key(&c, |s| s.cell).is_err());
        obs.end("eco_seed");
        if let Some(&cell) = failed.first().into_iter().chain(stranded).min() {
            return Err(LegalizeError::NoPosition { cell });
        }

        let params = search_params(&self.design, &self.cfg);
        let mut stats = LegalizeStats::default();
        obs.begin("flow_pass");
        let flowed = flow_pass(
            state,
            &params,
            self.threads,
            &mut stats,
            obs.reborrow(),
            pool,
        );
        obs.end("flow_pass");
        flowed?;

        let mut segments = state.journal_segments();
        segments.extend_from_slice(&self.irregular);
        segments.sort_unstable();
        segments.dedup();
        let mut placement = self.base.clone();
        obs.begin("placerow");
        let placed = placerow_segments(
            state,
            self.cfg.row_algo,
            &segments,
            self.threads,
            obs.reborrow(),
            &mut placement,
        );
        obs.end("placerow");
        placed?;

        // Cross-die counter relative to the *base* placement. A cell the
        // journal never saw is still on its base die.
        stats.cross_die_moves = state
            .journal_cells()
            .filter(|&c| placement.die(c) != self.base.die(c))
            .count();
        Ok(LegalizeOutcome { placement, stats })
    }

    /// One seed per moved cell, ascending by cell: the last target wins,
    /// and so does the last requested die (the base die if none is).
    fn move_seeds(&self, moves: &[CellMove]) -> Vec<Seed> {
        let mut order: Vec<usize> = (0..moves.len()).collect();
        order.sort_by_key(|&k| moves[k].cell); // stable: request order per cell
        let mut seeds: Vec<Seed> = Vec::with_capacity(moves.len());
        for k in order {
            let mv = &moves[k];
            match seeds.last_mut() {
                Some(s) if s.cell == mv.cell => {
                    s.at = mv.target;
                    s.die = mv.die.unwrap_or(s.die);
                }
                _ => seeds.push(Seed {
                    cell: mv.cell,
                    die: mv.die.unwrap_or(self.base.die(mv.cell)),
                    at: mv.target,
                    any_die: true,
                }),
            }
        }
        seeds
    }

    /// Adopts `placement` as the new base, re-anchoring and re-seeding
    /// **only the cells whose position or die changed**: every other cell
    /// already sits in the resident state exactly where a fresh seed of
    /// `placement` would put it. Call with an accepted ECO outcome to make
    /// follow-up requests relative to it.
    ///
    /// Returns how many cells were re-seeded out of how many, so callers
    /// (the serve layer, benches) can report the delta's effectiveness.
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
        let changed: Vec<CellId> = (0..n)
            .map(CellId::new)
            .filter(|&c| {
                placement.pos(c) != self.base.pos(c) || placement.die(c) != self.base.die(c)
            })
            .collect();
        self.base = placement;
        self.rebase(&changed);
        Ok(CommitStats {
            reseeded: changed.len(),
            total: n,
        })
    }

    /// Re-anchors and re-seeds `cells` (ascending) at their base position
    /// and die, then re-checks the segments they left or entered against
    /// the base rows.
    fn rebase(&mut self, cells: &[CellId]) {
        let cols = std::mem::take(&mut self.cols);
        let mut state = FlowState::from_columns(&self.design, &self.layout, &self.grid, cols);
        let mut segments: Vec<SegmentId> = cells
            .iter()
            .filter_map(|&c| state.cell_segment(c))
            .collect();
        let seeds: Vec<Seed> = cells
            .iter()
            .map(|&cell| Seed {
                cell,
                die: self.base.die(cell),
                at: self.base.pos(cell),
                any_die: false,
            })
            .collect();
        for s in &seeds {
            state.set_anchor(s.cell, s.at);
        }
        let failed = state.seed(&seeds);
        segments.extend(cells.iter().filter_map(|&c| state.cell_segment(c)));
        segments.sort_unstable();
        segments.dedup();

        self.unseedable.retain(|c| cells.binary_search(c).is_err());
        self.unseedable.extend(failed);
        self.unseedable.sort_unstable();
        self.irregular
            .retain(|s| segments.binary_search(s).is_err());
        for &id in &segments {
            let seg = self.layout.segment(id);
            let regular = place_segment(&state, self.cfg.row_algo, seg).is_ok_and(|placed| {
                placed.iter().all(|&(key, x)| {
                    let cell = CellId::new(key);
                    self.base.pos(cell) == Point::new(x, seg.y) && self.base.die(cell) == seg.die
                })
            });
            if !regular {
                self.irregular.push(id);
            }
        }
        self.irregular.sort_unstable();
        self.cols = state.into_columns();
    }
}

/// What one [`EcoEngine::commit`] actually refreshed: the re-seed delta's
/// effectiveness, reported so serve stats and benches can verify that
/// commits after small ECOs stay incremental.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommitStats {
    /// Cells re-seeded because their `(position, die)` changed against
    /// the previous base.
    pub reseeded: usize,
    /// Cells examined (= design cells).
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
        // … and the resulting state is the one a fresh seed of the new
        // base builds: same fragments, usage, anchors and die areas.
        let fresh = EcoEngine::new(Flow3dConfig::default(), engine.design.clone(), moved).unwrap();
        assert_eq!(engine.cols.canonical(), fresh.cols.canonical());
        assert_eq!(engine.unseedable, fresh.unseedable);
        assert_eq!(engine.irregular, fresh.irregular);
        assert!(
            engine.irregular.is_empty(),
            "an ECO outcome is a legal base"
        );
    }

    #[test]
    fn failed_request_leaves_the_engine_as_fresh() {
        // Cell 0 sits on a die too narrow to host it. A request that moves
        // other cells seeds them, then fails on cell 0; one that also
        // moves cell 0 succeeds, and must match a fresh engine.
        let d = narrow_top_design(12);
        let legal = base_placement(&design(12));
        let mut base = LegalPlacement::new(12);
        for i in 0..12 {
            let c = CellId::new(i);
            base.place(c, legal.pos(c), legal.die(c));
        }
        base.place(CellId::new(0), Point::new(0, 0), DieId::new(1));
        let mut engine = EcoEngine::new(Flow3dConfig::default(), d.clone(), base.clone()).unwrap();
        let seeded = engine.cols.canonical();
        let pile = pileup(&base, &[1, 2, 3, 4], 5);
        let err = engine.eco(&pile).unwrap_err();
        assert!(matches!(err, LegalizeError::NoPosition { cell } if cell == CellId::new(0)));
        assert_eq!(
            engine.cols.canonical(),
            seeded,
            "a failed request must roll back"
        );

        let mut good = pile.clone();
        good.push(CellMove {
            cell: CellId::new(0),
            target: Point::new(0, 0),
            die: None,
        });
        let warm = engine.eco(&good).unwrap();
        let cold = EcoEngine::new(Flow3dConfig::default(), d, base)
            .unwrap()
            .eco(&good)
            .unwrap();
        assert_eq!(warm.placement, cold.placement);
        assert_eq!(warm.stats, cold.stats);
        assert_eq!(engine.cols.canonical(), seeded);
        assert_eq!(engine.requests_served(), 1);
    }

    /// Two-die design whose top die is too narrow to host a single
    /// width-30 cell.
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
    fn illegal_base_rows_are_re_placed_by_every_request() {
        // Cells 0 and 1 overlap in the base. Their segment is irregular,
        // so even a no-op request re-places it, as a fresh seed would.
        let d = design(12);
        let mut base = base_placement(&d);
        let (p1, d1) = (base.pos(CellId::new(1)), base.die(CellId::new(1)));
        base.place(CellId::new(0), p1, d1);
        let engine = EcoEngine::new(Flow3dConfig::default(), d.clone(), base.clone()).unwrap();
        assert_eq!(engine.irregular.len(), 1);
        let mut engine = engine;
        let out = engine.eco(&[]).unwrap();
        assert!(flow3d_metrics::check_legal(&d, &out.placement).is_legal());
        assert_ne!(out.placement, base);
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
