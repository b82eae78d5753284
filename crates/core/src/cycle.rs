//! Post-optimization with cycle-canceling (paper §III-E).
//!
//! After a legal placement exists, cells whose displacement exceeds
//! `max(5·h_r, D_max / 2)` are re-seeded at the midpoint between their
//! current and initial positions — constructing, in flow terms, a negative
//! cycle that moves them back toward their origin. The resulting local
//! overflow is drained on a finer bin grid (`5·w̄_c`), followed by
//! `PlaceRow`. Passes repeat, up to `post_passes`, while the maximum
//! displacement improves.
//!
//! A pass drains in Algorithm 2's order, one source at a time against
//! the live state ([`drain_sequential`]), not in the main pass's
//! round-batched [`flow_pass`](crate::driver::flow_pass). A pass re-seeds
//! only the far-displaced cells, and rounds that search every source
//! against one frozen state apply paths that earlier ones made stale,
//! which on such local overflows shuffles supply back and forth: on m1h
//! at scale 0.065, three round-batched passes made 64,829 paths, where
//! the main pass over the whole design makes 35,370. Drained one source
//! at a time, the passes make 615. The drain runs on the calling thread.
//!
//! The flow formulation makes this incremental (§III-E): one state,
//! seeded once at the current placement, serves every pass. A pass
//! re-seeds only its selected cells under the state's undo journal, and
//! re-runs `PlaceRow` only on segments a journaled cell left or entered;
//! then it rolls back. An accepted pass re-seeds only the cells it moved.

use crate::assign;
use crate::config::Flow3dConfig;
use crate::driver::{bin_widths, drain_sequential, placerow_segments};
use crate::error::LegalizeError;
use crate::grid::BinGrid;
use crate::search::{SearchParams, SearchScratch};
use crate::state::{FlowState, Seed};
use crate::traits::LegalizeStats;
use flow3d_db::{CellId, Design, LegalPlacement, Placement3d, RowLayout};
use flow3d_geom::Point;
use flow3d_obs::{keys, Obs, ObsExt};

/// Runs up to `config.post_passes` cycle-canceling passes, replacing
/// `placement` whenever a pass reduces the maximum displacement.
///
/// When `obs` is `Some`, each pass's flow and row phases nest under the
/// caller's open scope and [`keys::CYCLE_RELEGALIZATIONS`] counts the
/// passes whose result was accepted.
///
/// # Errors
///
/// Propagates flow-pass and row-legalization failures; `placement` is
/// left at the last accepted state.
#[allow(clippy::too_many_arguments)]
pub fn post_optimize(
    design: &Design,
    layout: &RowLayout,
    global: &Placement3d,
    config: &Flow3dConfig,
    base_params: &SearchParams,
    placement: &mut LegalPlacement,
    stats: &mut LegalizeStats,
    mut obs: Obs<'_>,
) -> Result<(), LegalizeError> {
    let n = design.num_cells();
    if n == 0 {
        return Ok(());
    }
    let threads = flow3d_par::resolve_threads(config.threads);
    let anchors = assign::anchors(design, global);
    let widths = bin_widths(design, config.post_bin_width_factor);
    let grid = BinGrid::build(design, layout, &widths, config.allow_d2d);
    let h_max = design
        .dies()
        .iter()
        .map(|d| d.row_height)
        .max()
        .unwrap_or(1);

    let disp = |pl: &LegalPlacement, c: CellId| {
        let a = anchors[c.index()];
        pl.pos(c).manhattan(a)
    };
    let max_disp =
        |pl: &LegalPlacement| (0..n).map(|i| disp(pl, CellId::new(i))).max().unwrap_or(0);
    let at = |pl: &LegalPlacement, c: CellId| Seed {
        cell: c,
        die: pl.die(c),
        at: pl.pos(c),
        any_die: false,
    };

    // One state for every pass, seeded at the current placement. A pass
    // runs under the undo journal and rolls back, so between passes only
    // the cells an accepted pass moved are re-seeded.
    let mut state = FlowState::new(design, layout, &grid, anchors.clone());
    let all: Vec<Seed> = (0..n).map(|i| at(placement, CellId::new(i))).collect();
    let failed = state.seed(&all);
    drop(all);
    if !failed.is_empty() {
        return Ok(()); // cannot re-seed (pathological layout); keep current
    }
    let mut scratch = SearchScratch::new(grid.num_bins());
    let mut current_max = max_disp(placement);
    for _pass in 0..config.post_passes {
        let threshold = (5 * h_max).max(current_max / 2);
        // Selected cells move to the midpoint toward their origin.
        let selected: Vec<Seed> = (0..n)
            .map(CellId::new)
            .filter(|&c| disp(placement, c) > threshold)
            .map(|c| {
                let (p, a) = (placement.pos(c), anchors[c.index()]);
                Seed {
                    at: Point::new((p.x + a.x) / 2, (p.y + a.y) / 2),
                    ..at(placement, c)
                }
            })
            .collect();
        if selected.is_empty() {
            break;
        }
        state.checkpoint();
        if !state.seed(&selected).is_empty() {
            break; // cannot re-seed (pathological layout); keep current
        }

        // Accumulate the pass's counters into a scratch first: a rejected
        // pass's placement is discarded, so its augmentations/moves must
        // not pollute the reported run totals either. The observability
        // counters (bumped inside the flow pass) still record the work —
        // telemetry measures work done, stats the accepted outcome.
        let mut pass_stats = LegalizeStats::default();
        obs.begin("flow_pass");
        let flowed = drain_sequential(
            &mut state,
            base_params,
            &mut pass_stats,
            obs.reborrow(),
            &mut scratch,
        );
        obs.end("flow_pass");
        flowed?;
        // Only segments a re-seeded or flow-moved cell left or entered
        // can place differently from `placement`.
        let mut candidate = placement.clone();
        obs.begin("placerow");
        let placed = placerow_segments(
            &state,
            config.row_algo,
            &state.journal_segments(),
            threads,
            obs.reborrow(),
            &mut candidate,
        );
        obs.end("placerow");
        placed?;
        state.rollback();
        let new_max = max_disp(&candidate);
        if new_max < current_max {
            let moved: Vec<Seed> = (0..n)
                .map(CellId::new)
                .filter(|&c| {
                    candidate.pos(c) != placement.pos(c) || candidate.die(c) != placement.die(c)
                })
                .map(|c| at(&candidate, c))
                .collect();
            *placement = candidate;
            current_max = new_max;
            stats.absorb(&pass_stats);
            stats.post_passes += 1;
            obs.bump(keys::CYCLE_RELEGALIZATIONS, 1);
            obs.instant("cycle_pass_accepted");
            if !state.seed(&moved).is_empty() {
                break;
            }
        } else {
            obs.instant("cycle_pass_rejected");
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Flow3dLegalizer;
    use crate::traits::Legalizer;
    use flow3d_db::{DesignBuilder, DieSpec, LibCellSpec, TechnologySpec};
    use flow3d_geom::FPoint;
    use flow3d_metrics::{check_legal, displacement_stats};

    /// A narrow, crowded design where the greedy flow can strand one cell
    /// far away; post-optimization should pull the worst cell back.
    fn crowded() -> (Design, Placement3d) {
        let mut b = DesignBuilder::new("t")
            .technology(TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("W50", 50, 10)))
            .die(DieSpec::new("bottom", "T", (0, 0, 300, 100), 10, 1, 1.0))
            .die(DieSpec::new("top", "T", (0, 0, 300, 100), 10, 1, 1.0));
        let n = 22;
        for i in 0..n {
            b = b.cell(format!("u{i}"), "W50");
        }
        let design = b.build().unwrap();
        let mut gp = Placement3d::new(n);
        for i in 0..n {
            let c = flow3d_db::CellId::new(i);
            // All cells want the bottom-left corner of the bottom die.
            gp.set_pos(c, FPoint::new((i % 3) as f64 * 20.0, (i % 2) as f64 * 10.0));
            gp.set_die_affinity(c, 0.1);
        }
        (design, gp)
    }

    #[test]
    fn post_opt_never_worsens_max_displacement() {
        let (d, gp) = crowded();
        let without = Flow3dLegalizer::new(Flow3dConfig {
            post_opt: false,
            ..Default::default()
        })
        .legalize(&d, &gp)
        .unwrap();
        let with = Flow3dLegalizer::default().legalize(&d, &gp).unwrap();
        assert!(check_legal(&d, &with.placement).is_legal());
        let s_without = displacement_stats(&d, &gp, &without.placement);
        let s_with = displacement_stats(&d, &gp, &with.placement);
        assert!(
            s_with.max_dbu <= s_without.max_dbu + 1e-9,
            "post-opt worsened max: {} -> {}",
            s_without.max_dbu,
            s_with.max_dbu
        );
    }

    /// One full row of identically-anchored cells: any permutation has the
    /// same displacement multiset, so a post pass can shuffle cells but
    /// never improve the maximum — every pass is rejected.
    fn full_row_fixture() -> (Design, Placement3d) {
        let mut b = DesignBuilder::new("t")
            .technology(TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("W40", 40, 10)))
            .die(DieSpec::new("bottom", "T", (0, 0, 400, 10), 10, 1, 1.0))
            // Too little area headroom for even one cell: nothing can
            // escape to the top die.
            .die(DieSpec::new("top", "T", (0, 0, 400, 10), 10, 1, 0.01));
        for i in 0..10 {
            b = b.cell(format!("u{i}"), "W40");
        }
        let d = b.build().unwrap();
        let mut gp = Placement3d::new(10);
        for i in 0..10 {
            let c = CellId::new(i);
            gp.set_pos(c, FPoint::new(400.0, 0.0));
            gp.set_die_affinity(c, 0.1);
        }
        (d, gp)
    }

    #[test]
    fn rejected_pass_does_not_pollute_stats() {
        let (d, gp) = full_row_fixture();
        let without = Flow3dLegalizer::new(Flow3dConfig {
            post_opt: false,
            ..Default::default()
        })
        .legalize(&d, &gp)
        .unwrap();
        let mut profile = flow3d_obs::Profile::new();
        let with = Flow3dLegalizer::default()
            .legalize_observed(&d, &gp, Some(&mut profile))
            .unwrap();
        assert!(check_legal(&d, &with.placement).is_legal());
        assert_eq!(with.stats.post_passes, 0, "every pass must be rejected");
        assert_eq!(
            with.stats.augmentations, without.stats.augmentations,
            "a rejected post pass must not leak augmentations into stats"
        );
        assert_eq!(with.stats.cells_moved, without.stats.cells_moved);
        // The rejected pass still ran and did real search work, which
        // stays visible in telemetry: stats report the accepted outcome,
        // the profile reports the work performed.
        let post_flow = profile
            .phases()
            .find(|(p, _)| *p == "legalize/post_opt/flow_pass")
            .map(|(_, s)| s.calls)
            .unwrap_or(0);
        assert!(post_flow >= 1, "fixture never exercised a post pass");
        assert!(profile.counters().get(keys::AUGMENTING_PATHS) >= with.stats.augmentations as u64);
    }

    #[test]
    fn post_opt_is_noop_for_small_displacements() {
        // A sparse design where every cell lands at its anchor: nothing
        // crosses the threshold, zero post passes run.
        let mut b = DesignBuilder::new("t")
            .technology(TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("W10", 10, 10)))
            .die(DieSpec::new("bottom", "T", (0, 0, 400, 40), 10, 1, 1.0))
            .die(DieSpec::new("top", "T", (0, 0, 400, 40), 10, 1, 1.0));
        for i in 0..4 {
            b = b.cell(format!("u{i}"), "W10");
        }
        let d = b.build().unwrap();
        let mut gp = Placement3d::new(4);
        for i in 0..4 {
            gp.set_pos(
                flow3d_db::CellId::new(i),
                FPoint::new(i as f64 * 50.0, 10.0),
            );
        }
        let outcome = Flow3dLegalizer::default().legalize(&d, &gp).unwrap();
        assert_eq!(outcome.stats.post_passes, 0);
        let s = displacement_stats(&d, &gp, &outcome.placement);
        assert_eq!(s.max_dbu, 0.0);
    }
}
