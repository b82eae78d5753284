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
//!
//! Naive re-implementations referee the search kernel and
//! post-optimization's sequential drain exactly, and fresh-seed
//! pipelines the resident post-optimization and ECO engines.

use flow3d::db::{DesignBuilder, DieSpec, LibCellSpec, Placement3d, TechnologySpec};
use flow3d::prelude::*;
use flow3d_core::driver::{bin_widths, flow_pass, placerow_all};
use flow3d_core::grid::BinGrid;
use flow3d_core::search::{SearchParams, SearchPool};
use flow3d_core::selection::SelectionParams;
use flow3d_core::{assign, cycle, CellMove, EcoEngine, LegalizeStats};
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
    build_walled(widths, anchors, false)
}

/// [`build`], with a macro over the whole second row of the bottom die
/// when `wall` is set: the bottom die's first row then reaches the rest
/// of the stack only through D2D edges.
fn build_walled(
    widths: &[i64],
    anchors: &[(f64, f64, f64)],
    wall: bool,
) -> (flow3d::db::Design, Placement3d) {
    let mut b = DesignBuilder::new("stage-prop")
        .technology(
            TechnologySpec::new("TA")
                .lib_cell(LibCellSpec::std_cell("C1", 10, 10))
                .lib_cell(LibCellSpec::std_cell("C2", 20, 10))
                .lib_cell(LibCellSpec::std_cell("C3", 30, 10))
                .lib_cell(LibCellSpec::std_cell("C4", 40, 10))
                .lib_cell(LibCellSpec::std_cell("C5", 50, 10))
                .lib_cell(LibCellSpec::macro_cell("WALL", 400, 10)),
        )
        .technology(
            TechnologySpec::new("TB")
                .lib_cell(LibCellSpec::std_cell("C1", 12, 8))
                .lib_cell(LibCellSpec::std_cell("C2", 24, 8))
                .lib_cell(LibCellSpec::std_cell("C3", 36, 8))
                .lib_cell(LibCellSpec::std_cell("C4", 48, 8))
                .lib_cell(LibCellSpec::std_cell("C5", 60, 8))
                .lib_cell(LibCellSpec::macro_cell("WALL", 400, 8)),
        )
        .die(DieSpec::new("bottom", "TA", (0, 0, 400, 40), 10, 2, 0.95))
        .die(DieSpec::new("top", "TB", (0, 0, 400, 40), 8, 2, 0.95));
    if wall {
        b = b.macro_inst("wall", "WALL", "bottom", 0, 10);
    }
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
        if cost >= ref_bound(best_cost, params.alpha, params.slack) {
            // Stale entry: expanded, but not counted as such — see the
            // kernel.
            counters.pruned_stale += 1;
        } else {
            counters.expanded += 1;
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
            if child_cost >= ref_bound(best_cost, params.alpha, params.slack) {
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
            if child.inflow <= state.dem(nbr) {
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

/// The production kernel (arena reuse, pop-time stale accounting, kept
/// edge rankings) must reproduce the naive reference search node for
/// node on random designs, with signed and with clamped (non-negative)
/// costs, at every limit of the flow pass's retry ladder. One scratch
/// serves every search, so nothing a search leaves in it may change a
/// later one.
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

        let signed = params_for(&design, &cfg);
        let clamped = SearchParams {
            selection: SelectionParams {
                clamp_negative: true,
                ..signed.selection
            },
            ..signed
        };
        let mut scratch = SearchScratch::new(grid.num_bins());
        for mode in [signed, clamped] {
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

// ---------------------------------------------------------------------
// Reference sequential drain
//
// Algorithm 2's order at its most naive: after every path, rescan every
// bin for the most-loaded overflowed one (the lowest id on ties), run the
// halving ladder through `find_path_limited` on a fresh scratch per
// search, and realize the path at once. The ping-pong tabu lives in maps
// keyed by directed bin pair, one round per applied path; a source whose
// ladder finds nothing is set aside, and what is left is relocated at the
// end. The engine's lazy heap, kept scratch and per-edge stamps must
// reproduce it exactly.
// ---------------------------------------------------------------------

/// What the reference drain did: its applied paths in order, the sources
/// it set aside, and the counters the engine bumps into its profile.
struct RefDrain {
    paths: Vec<flow3d_core::search::AugmentingPath>,
    set_aside: usize,
    counters: std::collections::BTreeMap<&'static str, u64>,
}

fn reference_drain(
    state: &mut flow3d_core::FlowState<'_>,
    params: &SearchParams,
    stats: &mut LegalizeStats,
) -> Result<RefDrain, flow3d_core::LegalizeError> {
    use flow3d_core::grid::BinId;
    use flow3d_core::search::{find_path_limited, EdgeTabu, SearchCounters, SearchScratch};
    use flow3d_obs::keys;
    use std::collections::BTreeMap;

    const WINDOW: u32 = 1;
    const TABU_ROUNDS: u32 = 8;
    let grid = state.grid;
    let bins: Vec<BinId> = (0..grid.num_bins()).map(BinId::new).collect();
    let before = *stats;
    let mut budget = 64 * state.overflowed_bins().len() + 4 * bins.len() + 64;
    let mut round = 0u32;
    let mut last_applied: BTreeMap<(BinId, BinId), u32> = BTreeMap::new();
    let mut free_from: BTreeMap<(BinId, BinId), u32> = BTreeMap::new();
    let mut set_aside = vec![false; bins.len()];
    let (mut c, mut retries, mut tabus) = (SearchCounters::default(), 0u64, 0u64);
    let mut paths = Vec::new();
    // The most-loaded overflowed bin not set aside, the lowest id on ties.
    let most_loaded = |state: &flow3d_core::FlowState<'_>, set_aside: &[bool]| {
        bins.iter()
            .copied()
            .filter(|b| state.sup(*b) > 0 && !set_aside[b.index()])
            .max_by_key(|b| (state.sup(*b), std::cmp::Reverse(*b)))
    };
    while let Some(bin) = most_loaded(state, &set_aside) {
        // The tabu in the kernel's edge numbering: each bin's out-edges
        // in neighbour order, bin after bin.
        let stamps: Vec<u32> = bins
            .iter()
            .flat_map(|&u| grid.neighbors(u).iter().map(move |&(v, _)| (u, v)))
            .map(|e| free_from.get(&e).copied().unwrap_or(0))
            .collect();
        let tabu = EdgeTabu::new(&stamps, round);
        let mut limit = state.sup(bin);
        let mut found = None;
        let mut searches = 0;
        while limit > 0 && found.is_none() {
            searches += 1;
            let mut scratch = SearchScratch::new(bins.len());
            found = find_path_limited(state, bin, limit, params, Some(&tabu), &mut scratch, &mut c);
            limit /= 2;
        }
        retries += searches - 1;
        let Some(path) = found else {
            set_aside[bin.index()] = true;
            continue;
        };
        if budget == 0 {
            break;
        }
        budget -= 1;
        stats.cells_moved += flow3d_core::augment::realize(state, &path, &params.selection);
        stats.augmentations += 1;
        for w in path.steps.windows(2) {
            let (e, rev) = ((w[0].bin, w[1].bin), (w[1].bin, w[0].bin));
            if last_applied.get(&rev).is_some_and(|&r| round - r <= WINDOW) {
                for t in [e, rev] {
                    if free_from.get(&t).is_none_or(|&f| f <= round) {
                        tabus += 1;
                    }
                    free_from.insert(t, round + 1 + TABU_ROUNDS);
                }
            }
            last_applied.insert(e, round);
        }
        round += 1;
        paths.push(path);
    }
    let mut left: Vec<BinId> = bins.iter().copied().filter(|&b| state.sup(b) > 0).collect();
    left.sort_by_key(|&b| (std::cmp::Reverse(state.sup(b)), b));
    let cross_die = grid.edge_counts().2 > 0;
    for bin in left {
        if state.sup(bin) > 0 {
            flow3d_core::driver::teleport_fallback(state, bin, cross_die, stats)?;
        }
    }
    stats.nodes_expanded += c.expanded;
    let counters = BTreeMap::from([
        (
            keys::AUGMENTING_PATHS,
            (stats.augmentations - before.augmentations) as u64,
        ),
        (keys::BRANCHES_PRUNED, c.pruned as u64),
        (keys::BRANCHES_PRUNED_STALE, c.pruned_stale as u64),
        (
            keys::CELLS_MOVED,
            (stats.cells_moved - before.cells_moved) as u64,
        ),
        (
            keys::FALLBACK_MOVES,
            (stats.fallback_moves - before.fallback_moves) as u64,
        ),
        (keys::FLOW_PASSES, 1),
        (keys::NODES_CREATED, c.created as u64),
        (keys::NODES_EXPANDED, c.expanded as u64),
        (keys::PING_PONG_TABUS, tabus),
        (keys::SEARCH_RETRIES, retries),
    ]);
    Ok(RefDrain {
        set_aside: set_aside.iter().filter(|&&s| s).count(),
        paths,
        counters,
    })
}

/// Everything a drain leaves in a state: each bin's fragments, supply
/// and demand, each cell's fragments and die, each die's area headroom.
fn state_digest(state: &flow3d_core::FlowState<'_>, design: &flow3d::db::Design) -> String {
    use flow3d_core::grid::BinId;
    let mut out = String::new();
    for b in (0..state.grid.num_bins()).map(BinId::new) {
        out += &format!(
            "{b:?} {} {} {:?}\n",
            state.sup(b),
            state.dem(b),
            state.frags_in(b)
        );
    }
    for c in (0..design.num_cells()).map(CellId::new) {
        out += &format!("{c:?} {:?} {:?}\n", state.cell_die(c), state.cell_frags(c));
    }
    for d in (0..design.num_dies()).map(DieId::new) {
        out += &format!("{d:?} {}\n", state.area_headroom(d));
    }
    out
}

/// Cells piled into the bottom die's first row: with [`build_walled`]'s
/// wall and no D2D edges, sources there have nowhere to drain.
fn arb_piled_instance() -> impl Strategy<Value = (Vec<i64>, Vec<(f64, f64, f64)>)> {
    (20usize..40).prop_flat_map(|n| {
        (
            proptest::collection::vec(2i64..=5, n),
            proptest::collection::vec((-50.0f64..450.0, -5.0f64..8.0, 0.0f64..0.4), n),
        )
    })
}

/// The engine's sequential drain equals the naive reference on random
/// piled-up instances, with and without D2D edges, with and without a
/// walled-off row, on grids from one to six cells per bin: the final
/// state, each applied path's steps and cost bits, the stats, and every
/// counter it bumps.
#[test]
fn sequential_drain_matches_naive_reference() {
    use flow3d_core::driver::drain_sequential;
    use flow3d_core::search::SearchScratch;

    let (mut paths, mut set_aside, mut drains, mut tabus) = (0usize, 0usize, 0usize, 0u64);
    proptest!(ProptestConfig::with_cases(48), |(
        (widths, anchors) in arb_piled_instance(),
        bin_factor in 1.0f64..6.0,
        d2d in 0u8..2,
        wall in 0u8..2,
    )| {
        let d2d = d2d == 1;
        let (design, gp) = build_walled(&widths, &anchors, wall == 1);
        let cfg = Flow3dConfig {
            bin_width_factor: bin_factor,
            allow_d2d: d2d,
            ..Flow3dConfig::default()
        };
        let layout = RowLayout::build(&design);
        let Ok(mut dies) = assign::partition_dies(&design, &gp) else { return; };
        let grid = BinGrid::build(&design, &layout, &bin_widths(&design, bin_factor), d2d);
        let Ok(mut got) = assign::build_state(&design, &layout, &grid, &gp, &mut dies.clone())
        else { return; };
        let Ok(mut want) = assign::build_state(&design, &layout, &grid, &gp, &mut dies)
        else { return; };
        let params = params_for(&design, &cfg);

        let mut profile = Profile::new();
        let (mut got_stats, mut want_stats) = (LegalizeStats::default(), LegalizeStats::default());
        let got_result = drain_sequential(
            &mut got,
            &params,
            &mut got_stats,
            Some(&mut profile),
            &mut SearchScratch::new(grid.num_bins()),
        );
        let want_result = reference_drain(&mut want, &params, &mut want_stats);
        match (&got_result, &want_result) {
            (Ok(g), Ok(w)) => {
                prop_assert_eq!(g.len(), w.paths.len());
                for (k, (gp, wp)) in g.iter().zip(&w.paths).enumerate() {
                    prop_assert_eq!(&gp.steps, &wp.steps, "path {}", k);
                    prop_assert_eq!(gp.cost.to_bits(), wp.cost.to_bits(), "path {}", k);
                }
                let counters: Vec<(String, u64)> = profile
                    .counters()
                    .iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect();
                let want_counters: Vec<(String, u64)> =
                    w.counters.iter().map(|(k, v)| (k.to_string(), *v)).collect();
                prop_assert_eq!(counters, want_counters);
                prop_assert_eq!(got.total_overflow(), 0);
                paths += w.paths.len();
                set_aside += w.set_aside;
                tabus += w.counters[flow3d_obs::keys::PING_PONG_TABUS];
                drains += 1;
            }
            (Err(g), Err(w)) => prop_assert_eq!(g, w),
            _ => prop_assert!(
                false,
                "engine ok={} reference ok={}",
                got_result.is_ok(),
                want_result.is_ok()
            ),
        }
        prop_assert_eq!(got_stats, want_stats);
        prop_assert_eq!(state_digest(&got, &design), state_digest(&want, &design));
    });
    assert!(
        drains >= 24 && paths >= 100 && set_aside >= 4 && tabus >= 8,
        "drain referee too rarely exercised: {drains} drains, {paths} paths, \
         {set_aside} sources set aside, {tabus} tabus"
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
        let mut pool = SearchPool::new();
        if flow_pass(&mut state, &params, THREADS, &mut stats, None, &mut pool).is_err() {
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
        let Ok(placement) = placerow_all(&state, cfg.row_algo, THREADS, None)
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

// ---------------------------------------------------------------------
// Fresh-seed references for post-optimization and ECO
//
// The pipelines as they ran before the resident state: every post-opt
// pass and every ECO request builds a new whole-design `FlowState`,
// inserts every cell in id order at its nearest legal position, drains
// it (post-opt by the reference drain, ECO by the flow pass) and then
// runs `PlaceRow` on every segment. The resident engines
// keep one seeded state, re-seed only moved cells under an undo journal
// and re-place only segments whose membership changed; they must
// reproduce these references exactly.
// ---------------------------------------------------------------------

/// Fresh state with every cell inserted, in id order, at the legal
/// position nearest its `(die, point)`; `None` names the lowest cell
/// that fits nowhere.
fn reference_seed<'a>(
    design: &'a flow3d::db::Design,
    layout: &'a RowLayout,
    grid: &'a BinGrid,
    anchors: Vec<flow3d_geom::Point>,
    slot: impl Fn(usize) -> Vec<(DieId, flow3d_geom::Point)>,
) -> Result<flow3d_core::FlowState<'a>, CellId> {
    let mut state = flow3d_core::FlowState::new(design, layout, grid, anchors);
    for i in 0..design.num_cells() {
        let cell = CellId::new(i);
        let found = slot(i).into_iter().find_map(|(die, p)| {
            let w = design.cell_width(cell, die);
            layout.nearest_position(design, die, p.x, p.y, w)
        });
        let Some((seg, x)) = found else {
            return Err(cell);
        };
        state.insert_cell(cell, grid.bin_at(seg.id, x), x);
    }
    Ok(state)
}

/// Post-optimization with a fresh seed, the reference drain and
/// all-segment `PlaceRow` per pass. Returns how many passes ran a drain.
fn reference_post_optimize(
    design: &flow3d::db::Design,
    layout: &RowLayout,
    gp: &Placement3d,
    cfg: &Flow3dConfig,
    placement: &mut LegalPlacement,
    stats: &mut LegalizeStats,
) -> Result<usize, flow3d_core::LegalizeError> {
    let n = design.num_cells();
    let threads = flow3d_par::resolve_threads(cfg.threads);
    let params = params_for(design, cfg);
    let anchors = assign::anchors(design, gp);
    let grid = BinGrid::build(
        design,
        layout,
        &bin_widths(design, cfg.post_bin_width_factor),
        cfg.allow_d2d,
    );
    let h_max = design
        .dies()
        .iter()
        .map(|d| d.row_height)
        .max()
        .unwrap_or(1);
    let disp = |pl: &LegalPlacement, i: usize| pl.pos(CellId::new(i)).manhattan(anchors[i]);
    let max_disp = |pl: &LegalPlacement| (0..n).map(|i| disp(pl, i)).max().unwrap_or(0);
    let mut current_max = max_disp(placement);
    let mut ran = 0;
    for _ in 0..cfg.post_passes {
        let threshold = (5 * h_max).max(current_max / 2);
        let selected: Vec<bool> = (0..n).map(|i| disp(placement, i) > threshold).collect();
        if !selected.contains(&true) {
            break;
        }
        let seeded = reference_seed(design, layout, &grid, anchors.clone(), |i| {
            let c = CellId::new(i);
            let (p, a) = (placement.pos(c), anchors[i]);
            let at = if selected[i] {
                flow3d_geom::Point::new((p.x + a.x) / 2, (p.y + a.y) / 2)
            } else {
                p
            };
            vec![(placement.die(c), at)]
        });
        let Ok(mut state) = seeded else { break };
        let mut pass_stats = LegalizeStats::default();
        reference_drain(&mut state, &params, &mut pass_stats)?;
        ran += 1;
        let candidate = placerow_all(&state, cfg.row_algo, threads, None)?;
        let new_max = max_disp(&candidate);
        if new_max >= current_max {
            break;
        }
        *placement = candidate;
        current_max = new_max;
        stats.absorb(&pass_stats);
        stats.post_passes += 1;
    }
    Ok(ran)
}

/// One ECO request with a fresh seed of `base` and all-segment
/// `PlaceRow`.
fn reference_eco(
    design: &flow3d::db::Design,
    base: &LegalPlacement,
    cfg: &Flow3dConfig,
    moves: &[CellMove],
) -> Result<flow3d_core::LegalizeOutcome, flow3d_core::LegalizeError> {
    let n = design.num_cells();
    let threads = flow3d_par::resolve_threads(cfg.threads);
    let layout = RowLayout::build(design);
    let grid = BinGrid::build(
        design,
        &layout,
        &bin_widths(design, cfg.post_bin_width_factor),
        cfg.allow_d2d,
    );
    let mut anchors: Vec<flow3d_geom::Point> = (0..n).map(|i| base.pos(CellId::new(i))).collect();
    let mut dies: Vec<DieId> = (0..n).map(|i| base.die(CellId::new(i))).collect();
    let mut moved = vec![false; n];
    for mv in moves {
        anchors[mv.cell.index()] = mv.target;
        moved[mv.cell.index()] = true;
        if let Some(die) = mv.die {
            dies[mv.cell.index()] = die;
        }
    }
    let seeded = reference_seed(design, &layout, &grid, anchors.clone(), |i| {
        let mut order = vec![(dies[i], anchors[i])];
        if moved[i] {
            order.extend((0..design.num_dies()).map(|d| (DieId::new(d), anchors[i])));
        }
        order
    });
    let mut state = seeded.map_err(|cell| flow3d_core::LegalizeError::NoPosition { cell })?;
    let mut stats = LegalizeStats::default();
    flow_pass(
        &mut state,
        &params_for(design, cfg),
        threads,
        &mut stats,
        None,
        &mut SearchPool::new(),
    )?;
    let placement = placerow_all(&state, cfg.row_algo, threads, None)?;
    stats.cross_die_moves = (0..n)
        .filter(|&i| placement.die(CellId::new(i)) != base.die(CellId::new(i)))
        .count();
    Ok(flow3d_core::LegalizeOutcome { placement, stats })
}

/// Main pass only: the placement post-optimization starts from.
fn main_pass(
    design: &flow3d::db::Design,
    layout: &RowLayout,
    gp: &Placement3d,
    cfg: &Flow3dConfig,
) -> Option<(LegalPlacement, LegalizeStats)> {
    let mut dies = assign::partition_dies(design, gp).ok()?;
    let grid = BinGrid::build(
        design,
        layout,
        &bin_widths(design, cfg.bin_width_factor),
        cfg.allow_d2d,
    );
    let mut state = assign::build_state(design, layout, &grid, gp, &mut dies).ok()?;
    let mut stats = LegalizeStats::default();
    flow_pass(
        &mut state,
        &params_for(design, cfg),
        1,
        &mut stats,
        None,
        &mut SearchPool::new(),
    )
    .ok()?;
    let placement = placerow_all(&state, cfg.row_algo, 1, None).ok()?;
    Some((placement, stats))
}

/// Resident post-optimization (one seeded state, journaled passes,
/// dirty-segment `PlaceRow`) equals the fresh-seed reference exactly —
/// placement, stats and error — at 1 and 8 threads.
#[test]
fn resident_post_opt_matches_the_fresh_seed_reference() {
    let mut passes = 0usize;
    let mut accepted = 0usize;
    proptest!(ProptestConfig::with_cases(32), |(
        (widths, anchors) in arb_congested_instance(),
        bin_factor in 1.0f64..6.0,
    )| {
        let (design, gp) = build(&widths, &anchors);
        let layout = RowLayout::build(&design);
        let base_cfg = Flow3dConfig {
            post_bin_width_factor: bin_factor,
            ..Flow3dConfig::default()
        };
        let Some((start, start_stats)) = main_pass(&design, &layout, &gp, &base_cfg) else {
            return;
        };
        for threads in [1, 8] {
            let cfg = Flow3dConfig { threads, ..base_cfg.clone() };
            let (mut want, mut want_stats) = (start.clone(), start_stats);
            let want_result =
                reference_post_optimize(&design, &layout, &gp, &cfg, &mut want, &mut want_stats);
            let (mut got, mut got_stats) = (start.clone(), start_stats);
            let got_result = cycle::post_optimize(
                &design,
                &layout,
                &gp,
                &cfg,
                &params_for(&design, &cfg),
                &mut got,
                &mut got_stats,
                None,
            );
            prop_assert_eq!(got_result.is_ok(), want_result.is_ok(), "threads {}", threads);
            if let (Err(g), Err(w)) = (&got_result, &want_result) {
                prop_assert_eq!(g, w);
            }
            prop_assert_eq!(&got, &want, "threads {}", threads);
            prop_assert_eq!(got_stats, want_stats, "threads {}", threads);
            if threads == 1 {
                passes += want_result.unwrap_or(0);
                accepted += want_stats.post_passes;
            }
        }
    });
    assert!(
        passes >= 16 && accepted >= 4,
        "post-opt too rarely exercised: {passes} passes, {accepted} accepted"
    );
}

/// The resident ECO engine equals a fresh seed of the same request on
/// the same base, at 1 and 8 threads, over random request streams with
/// die requests, repeated cells and commits — placements, stats and
/// errors alike.
#[test]
fn resident_eco_matches_the_fresh_seed_reference() {
    let mut served = 0usize;
    let mut commits = 0usize;
    proptest!(ProptestConfig::with_cases(24), |(
        (widths, anchors) in arb_instance(),
        stream in proptest::collection::vec(
            (
                proptest::collection::vec(
                    (0usize..64, -50i64..450, -10i64..50, 0usize..4),
                    0..8,
                ),
                0u8..3,
            ),
            1..6,
        ),
    )| {
        let (design, gp) = build(&widths, &anchors);
        let Ok(outcome) = Flow3dLegalizer::default().legalize(&design, &gp) else { return; };
        let n = design.num_cells();
        for threads in [1, 8] {
            let cfg = Flow3dConfig::with_threads(threads);
            let mut engine =
                EcoEngine::new(cfg.clone(), design.clone(), outcome.placement.clone()).unwrap();
            let mut base = outcome.placement.clone();
            for (k, (raw, commit)) in stream.iter().enumerate() {
                let moves: Vec<CellMove> = raw
                    .iter()
                    .map(|&(c, x, y, die)| CellMove {
                        cell: CellId::new(c % n),
                        target: flow3d_geom::Point::new(x, y),
                        die: (die < 2).then(|| DieId::new(die)),
                    })
                    .collect();
                let want = reference_eco(&design, &base, &cfg, &moves);
                let got = engine.eco(&moves);
                match (&got, &want) {
                    (Ok(g), Ok(w)) => {
                        prop_assert_eq!(&g.placement, &w.placement, "request {} threads {}", k, threads);
                        prop_assert_eq!(g.stats, w.stats, "request {} threads {}", k, threads);
                        prop_assert!(check_legal(&design, &g.placement).is_legal());
                        if threads == 1 {
                            served += 1;
                        }
                        if *commit == 0 {
                            let cs = engine.commit(g.placement.clone()).unwrap();
                            prop_assert_eq!(cs.total, n);
                            base = g.placement.clone();
                            if threads == 1 {
                                commits += 1;
                            }
                        }
                    }
                    (Err(g), Err(w)) => prop_assert_eq!(g, w, "request {}", k),
                    _ => prop_assert!(false, "request {}: engine {:?} vs reference {:?}", k, got.is_ok(), want.is_ok()),
                }
            }
        }
    });
    assert!(
        served >= 40 && commits >= 10,
        "ECO stream too thin: {served} requests served, {commits} commits"
    );
}
