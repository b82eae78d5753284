//! Stage-level property tests: the pipeline is driven one phase at a
//! time — assign, flow pass, placerow, post-opt — and the legality
//! invariants are asserted after *every* stage, not just at the end:
//!
//! * flow state self-consistency (`FlowState::check_invariants`);
//! * zero overflow and per-die utilization under its cap after the flow
//!   pass, with every cell holding fragments on exactly one die;
//! * no overlaps, on-row and on-site positions after placerow, with each
//!   cell's die matching the flow assignment;
//! * post-optimization never increasing the maximum displacement.
//!
//! The flow and row phases run on 2 worker threads here; the
//! differential suite separately proves thread-count invariance.

use flow3d::db::{DesignBuilder, DieSpec, LibCellSpec, Placement3d, TechnologySpec};
use flow3d::prelude::*;
use flow3d_core::driver::{bin_widths, flow_pass_threaded, placerow_all_threaded};
use flow3d_core::grid::BinGrid;
use flow3d_core::search::SearchParams;
use flow3d_core::selection::SelectionParams;
use flow3d_core::{assign, cycle, LegalizeStats};
use flow3d_db::{CellId, DieId, LegalPlacement, RowLayout};
use flow3d_geom::FPoint;
use proptest::prelude::*;

const THREADS: usize = 2;

/// A random instance: up to 30 cells with widths 10–50 on two 400x40
/// dies, anchors anywhere (including outside the outline).
fn arb_instance() -> impl Strategy<Value = (Vec<i64>, Vec<(f64, f64, f64)>)> {
    (1usize..30).prop_flat_map(|n| {
        (
            proptest::collection::vec(1i64..=5, n),
            proptest::collection::vec((-50.0f64..450.0, -20.0f64..60.0, 0.0f64..1.0), n),
        )
    })
}

fn build(widths: &[i64], anchors: &[(f64, f64, f64)]) -> (flow3d::db::Design, Placement3d) {
    let mut b = DesignBuilder::new("stage-prop")
        .technology(
            TechnologySpec::new("TA")
                .lib_cell(LibCellSpec::std_cell("C1", 10, 10))
                .lib_cell(LibCellSpec::std_cell("C2", 20, 10))
                .lib_cell(LibCellSpec::std_cell("C3", 30, 10))
                .lib_cell(LibCellSpec::std_cell("C4", 40, 10))
                .lib_cell(LibCellSpec::std_cell("C5", 50, 10)),
        )
        .technology(
            TechnologySpec::new("TB")
                .lib_cell(LibCellSpec::std_cell("C1", 12, 8))
                .lib_cell(LibCellSpec::std_cell("C2", 24, 8))
                .lib_cell(LibCellSpec::std_cell("C3", 36, 8))
                .lib_cell(LibCellSpec::std_cell("C4", 48, 8))
                .lib_cell(LibCellSpec::std_cell("C5", 60, 8)),
        )
        .die(DieSpec::new("bottom", "TA", (0, 0, 400, 40), 10, 2, 0.95))
        .die(DieSpec::new("top", "TB", (0, 0, 400, 40), 8, 2, 0.95));
    for (i, &w) in widths.iter().enumerate() {
        b = b.cell(format!("u{i}"), format!("C{w}"));
    }
    let design = b.build().unwrap();
    let mut gp = Placement3d::new(widths.len());
    for (i, &(x, y, z)) in anchors.iter().enumerate() {
        let c = CellId::new(i);
        gp.set_pos(c, FPoint::new(x, y));
        gp.set_die_affinity(c, z);
    }
    (design, gp)
}

/// The driver's search parameters for a config (mirrors
/// `Flow3dLegalizer::run`).
fn params_for(design: &flow3d::db::Design, cfg: &Flow3dConfig) -> SearchParams {
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
    SearchParams {
        alpha: cfg.alpha,
        slack,
        dijkstra: false,
        selection: SelectionParams {
            clamp_negative: false,
            d2d_congestion_cost: cfg.d2d_congestion_cost,
            d2d_penalty,
        },
    }
}

// ---------------------------------------------------------------------
// Reference search kernel
//
// A deliberately naive re-implementation of the production kernel's
// semantics: per-call Vec + BinaryHeap (no arena reuse), the
// move-building `select_moves` (a fresh candidate list and move list per
// edge, where the kernel reuses one buffer and builds no moves), and its
// own 4-line bound and total-order wrapper. Identical push/pop sequences
// give identical `BinaryHeap` behaviour, so the optimized kernel must
// reproduce this one node for node — path, cost bits, and every counter.
// ---------------------------------------------------------------------

struct RefCounters {
    expanded: usize,
    created: usize,
    pruned: usize,
    pruned_stale: usize,
}

#[derive(Clone, Copy)]
struct RefNode {
    bin: flow3d_core::grid::BinId,
    parent: u32,
    inflow: i64,
    cost: f64,
    edge: flow3d_core::grid::EdgeKind,
}

#[derive(PartialEq)]
struct RefOrd(f64);
impl Eq for RefOrd {}
impl PartialOrd for RefOrd {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RefOrd {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

fn ref_bound(best: f64, alpha: f64, slack: f64) -> f64 {
    if best.is_infinite() || alpha.is_infinite() {
        f64::INFINITY
    } else {
        best + alpha * best.abs().max(slack)
    }
}

fn reference_search(
    state: &flow3d_core::state::FlowState<'_>,
    source: flow3d_core::grid::BinId,
    limit: i64,
    params: &SearchParams,
) -> (Option<flow3d_core::search::AugmentingPath>, RefCounters) {
    use flow3d_core::search::{AugmentingPath, PathStep};
    use flow3d_core::selection::select_moves;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let mut counters = RefCounters {
        expanded: 0,
        created: 0,
        pruned: 0,
        pruned_stale: 0,
    };
    let supply = state.sup(source).min(limit);
    if supply <= 0 {
        return (None, counters);
    }
    let mut visited = vec![false; state.grid.num_bins()];
    let mut nodes: Vec<RefNode> = vec![RefNode {
        bin: source,
        parent: u32::MAX,
        inflow: supply,
        cost: 0.0,
        edge: flow3d_core::grid::EdgeKind::Horizontal,
    }];
    let mut heap: BinaryHeap<Reverse<(RefOrd, u32)>> = BinaryHeap::new();
    heap.push(Reverse((RefOrd(0.0), 0)));
    visited[source.index()] = true;

    let mut best: Option<(u32, f64)> = None;
    while let Some(Reverse((RefOrd(cost), idx))) = heap.pop() {
        let node = nodes[idx as usize];
        let best_cost = best.map(|(_, c)| c).unwrap_or(f64::INFINITY);
        if !params.dijkstra && cost >= ref_bound(best_cost, params.alpha, params.slack) {
            // Stale entry: dropped under clamped costs, expanded (but not
            // counted as such) under signed costs — see the kernel.
            counters.pruned_stale += 1;
            if params.selection.clamp_negative {
                continue;
            }
        } else {
            counters.expanded += 1;
        }
        if params.dijkstra && idx != 0 && node.inflow <= state.dem(node.bin) {
            best = Some((idx, node.cost));
            break;
        }
        let needed = node.inflow - state.dem(node.bin);
        if needed <= 0 {
            continue;
        }
        for &(nbr, kind) in state.grid.neighbors(node.bin) {
            if visited[nbr.index()] {
                continue;
            }
            let Some(sel) = select_moves(state, node.bin, nbr, kind, needed, &params.selection)
            else {
                continue;
            };
            visited[nbr.index()] = true;
            let child_cost = node.cost + sel.cost;
            let best_cost = best.map(|(_, c)| c).unwrap_or(f64::INFINITY);
            if !params.dijkstra && child_cost >= ref_bound(best_cost, params.alpha, params.slack) {
                counters.pruned += 1;
                continue;
            }
            let child = RefNode {
                bin: nbr,
                parent: idx,
                inflow: sel.added_to_v,
                cost: child_cost,
                edge: kind,
            };
            let child_idx = nodes.len() as u32;
            nodes.push(child);
            counters.created += 1;
            if !params.dijkstra && child.inflow <= state.dem(nbr) {
                if child_cost < best_cost {
                    best = Some((child_idx, child_cost));
                }
            } else {
                heap.push(Reverse((RefOrd(child_cost), child_idx)));
            }
        }
    }
    let path = best.map(|(leaf, _)| {
        let mut steps = Vec::new();
        let cost = nodes[leaf as usize].cost;
        let mut idx = leaf;
        loop {
            let n = &nodes[idx as usize];
            steps.push(PathStep {
                bin: n.bin,
                inflow: n.inflow,
                edge: n.edge,
            });
            if n.parent == u32::MAX {
                break;
            }
            idx = n.parent;
        }
        steps.reverse();
        AugmentingPath { steps, cost }
    });
    (path, counters)
}

/// Like [`arb_instance`], but anchors land in a narrow y-band so the
/// initial assignment piles cells into one or two rows. Each bin here
/// spans a whole 400-DBU row, so crowding a row past 400 DBU of cell
/// width overflows its bin while the design stays globally feasible —
/// exactly the states the search kernel is invoked on.
fn arb_congested_instance() -> impl Strategy<Value = (Vec<i64>, Vec<(f64, f64, f64)>)> {
    (14usize..30).prop_flat_map(|n| {
        (
            proptest::collection::vec(2i64..=5, n),
            proptest::collection::vec((-50.0f64..450.0, -5.0f64..15.0, 0.0f64..1.0), n),
        )
    })
}

/// The production kernel (arena reuse, pop-time pruning, allocation-free
/// selection summaries) must reproduce the naive reference search node
/// for node on random designs, in both best-first and Dijkstra modes,
/// at every limit of the flow pass's retry ladder. One scratch serves
/// every search, so nothing a search leaves in it may change a later
/// one.
#[test]
fn kernel_matches_naive_reference_implementation() {
    use flow3d_core::search::{find_path_limited, SearchCounters, SearchScratch};

    let mut compared = 0usize;
    proptest!(ProptestConfig::with_cases(24), |(
        (widths, anchors) in arb_congested_instance()
    )| {
        let (design, gp) = build(&widths, &anchors);
        let cfg = Flow3dConfig::default();
        let layout = RowLayout::build(&design);
        let Ok(mut dies) = assign::partition_dies(&design, &gp) else { return; };
        let bw = bin_widths(&design, cfg.bin_width_factor);
        let grid = BinGrid::build(&design, &layout, &bw, cfg.allow_d2d);
        let Ok(state) = assign::build_state(&design, &layout, &grid, &gp, &mut dies)
        else { return; };

        let best_first = params_for(&design, &cfg);
        let dijkstra = SearchParams {
            dijkstra: true,
            selection: SelectionParams {
                clamp_negative: true,
                ..best_first.selection
            },
            ..best_first
        };
        let mut scratch = SearchScratch::new(grid.num_bins());
        for mode in [best_first, dijkstra] {
            for bin in state.overflowed_bins() {
                // The flow pass's retry ladder: the full supply, then
                // halved limits.
                let mut limit = state.sup(bin);
                while limit > 0 {
                    let (want, rc) = reference_search(&state, bin, limit, &mode);
                    let mut c = SearchCounters::default();
                    let got =
                        find_path_limited(&state, bin, limit, &mode, None, &mut scratch, &mut c);
                    match (&got, &want) {
                        (Some(g), Some(w)) => {
                            prop_assert_eq!(&g.steps, &w.steps, "steps (limit {})", limit);
                            prop_assert_eq!(g.cost.to_bits(), w.cost.to_bits());
                        }
                        (None, None) => {}
                        _ => prop_assert!(
                            false,
                            "path presence mismatch (limit {}): kernel={} reference={}",
                            limit,
                            got.is_some(),
                            want.is_some()
                        ),
                    }
                    prop_assert_eq!(c.expanded, rc.expanded);
                    prop_assert_eq!(c.created, rc.created);
                    prop_assert_eq!(c.pruned, rc.pruned);
                    prop_assert_eq!(c.pruned_stale, rc.pruned_stale);
                    prop_assert!(c.pruned_stale <= c.created, "pruned_stale ≤ created");
                    prop_assert!(c.expanded + c.pruned_stale <= c.created + 1);
                    compared += 1;
                    limit /= 2;
                }
            }
        }
    });
    assert!(
        compared >= 8,
        "only {compared} kernel-vs-reference comparisons ran — fixture too sparse"
    );
}

/// The search reads a selection only through `select_summary`; on every
/// edge kind, with signed and clamped costs, it must agree bit for bit
/// with the move-building `select_moves` that `augment::realize`
/// applies — while one buffer serves every call, so a longer earlier
/// ranking can never leak into a shorter later one.
#[test]
fn selection_summary_matches_the_move_building_call() {
    use flow3d_core::grid::{BinId, EdgeKind};
    use flow3d_core::selection::{select_moves, select_summary, SelectionBuf};

    // Comparisons per edge kind: horizontal, vertical, die-to-die.
    let mut compared = [0usize; 3];
    proptest!(ProptestConfig::with_cases(24), |(
        (widths, anchors) in arb_congested_instance(),
        bin_factor in 1.0f64..4.0,
    )| {
        let (design, gp) = build(&widths, &anchors);
        let cfg = Flow3dConfig::default();
        let layout = RowLayout::build(&design);
        let Ok(mut dies) = assign::partition_dies(&design, &gp) else { return; };
        // Bins a few cell widths wide: several per row, so horizontal
        // edges exist and cells straddle bin boundaries.
        let bw = bin_widths(&design, bin_factor);
        let grid = BinGrid::build(&design, &layout, &bw, true);
        let Ok(state) = assign::build_state(&design, &layout, &grid, &gp, &mut dies)
        else { return; };
        let signed = params_for(&design, &cfg).selection;
        let mut buf = SelectionBuf::default();
        for u in (0..grid.num_bins()).map(BinId::new) {
            let usage = state.usage(u);
            if usage == 0 {
                continue;
            }
            for &(v, kind) in grid.neighbors(u) {
                for needed in [1, state.sup(u).max(1), usage / 2 + 1, usage, usage + 1] {
                    for clamp_negative in [false, true] {
                        let params = SelectionParams { clamp_negative, ..signed };
                        let full = select_moves(&state, u, v, kind, needed, &params);
                        if let Some(sel) = &full {
                            let moved: i64 = sel.moves.iter().map(|m| m.width_from_u).sum();
                            prop_assert_eq!(moved, sel.removed_from_u);
                        }
                        let full = full.map(|s| (s.cost.to_bits(), s.added_to_v));
                        let summary =
                            select_summary(&state, u, v, kind, needed, &params, &mut buf)
                                .map(|(cost, added)| (cost.to_bits(), added));
                        prop_assert_eq!(
                            summary, full,
                            "{:?} edge {:?}->{:?}, needed {}, clamp {}",
                            kind, u, v, needed, clamp_negative
                        );
                        compared[match kind {
                            EdgeKind::Horizontal => 0,
                            EdgeKind::Vertical => 1,
                            EdgeKind::DieToDie => 2,
                        }] += 1;
                    }
                }
            }
        }
    });
    assert!(
        compared.iter().all(|&n| n >= 100),
        "edge kinds too sparsely covered (horizontal, vertical, d2d): {compared:?}"
    );
}

#[test]
fn every_pipeline_stage_upholds_the_legality_invariants() {
    // Typed rejections of infeasible random instances skip a case; the
    // counter at the bottom proves the property is not vacuously green.
    let mut completed = 0usize;
    proptest!(ProptestConfig::with_cases(32), |(
        (widths, anchors) in arb_instance()
    )| {
        let (design, gp) = build(&widths, &anchors);
        let cfg = Flow3dConfig::default();

        // Stage: partition + grid + assignment. A typed rejection of an
        // infeasible random instance is fine; success must be consistent.
        let layout = RowLayout::build(&design);
        let Ok(mut dies) = assign::partition_dies(&design, &gp) else { return; };
        let bw = bin_widths(&design, cfg.bin_width_factor);
        let grid = BinGrid::build(&design, &layout, &bw, cfg.allow_d2d);
        let Ok(mut state) = assign::build_state(&design, &layout, &grid, &gp, &mut dies)
        else { return; };
        prop_assert_eq!(state.check_invariants(), Ok(()), "after assign");

        // Stage: flow pass.
        let params = params_for(&design, &cfg);
        let mut stats = LegalizeStats::default();
        if flow_pass_threaded(&mut state, &params, THREADS, &mut stats, None).is_err() {
            return;
        }
        prop_assert_eq!(state.check_invariants(), Ok(()), "after flow_pass");
        prop_assert_eq!(state.total_overflow(), 0, "flow pass left overflow");
        for d in 0..design.num_dies() {
            prop_assert!(
                state.area_headroom(DieId::new(d)) >= 0,
                "die {} exceeds its utilization cap by {} DBU²",
                d,
                -state.area_headroom(DieId::new(d))
            );
        }
        for c in 0..design.num_cells() {
            let cell = CellId::new(c);
            let frags = state.cell_frags(cell);
            prop_assert!(!frags.is_empty(), "cell {} lost its fragments", c);
            let die = state.cell_die(cell);
            prop_assert!(
                frags.iter().all(|&(b, _)| state.grid.bin(b).die == die),
                "cell {} has fragments on more than one die",
                c
            );
        }

        // Stage: placerow.
        let Ok(placement) = placerow_all_threaded(&state, cfg.row_algo, THREADS, None)
        else { return; };
        let report = check_legal(&design, &placement);
        prop_assert!(report.is_legal(), "placerow output illegal: {}", report);
        for c in 0..design.num_cells() {
            let cell = CellId::new(c);
            prop_assert_eq!(
                placement.die(cell),
                state.cell_die(cell),
                "placerow changed cell {}'s die",
                c
            );
        }

        // Stage: post-optimization. It must keep the placement legal and
        // never increase the maximum displacement it set out to reduce.
        let anchor = assign::anchors(&design, &gp);
        let max_disp = |pl: &LegalPlacement| {
            (0..design.num_cells())
                .map(|i| pl.pos(CellId::new(i)).manhattan(anchor[i]))
                .max()
                .unwrap_or(0)
        };
        let before = max_disp(&placement);
        let mut post = placement.clone();
        if cycle::post_optimize(
            &design, &layout, &gp, &cfg, &params, &mut post, &mut stats, None,
        )
        .is_err()
        {
            return;
        }
        let report = check_legal(&design, &post);
        prop_assert!(report.is_legal(), "post-opt output illegal: {}", report);
        prop_assert!(
            max_disp(&post) <= before,
            "post-opt worsened max displacement: {} -> {}",
            before,
            max_disp(&post)
        );
        completed += 1;
    });
    assert!(
        completed >= 8,
        "only {completed}/32 random cases reached the post-opt stage"
    );
}
