//! The 3D-Flow legalizer driver (paper Algorithm 2) and the flow-pass /
//! row-legalization building blocks shared with the flow-based baselines.

use crate::assign;
use crate::config::Flow3dConfig;
use crate::cycle;
use crate::error::LegalizeError;
use crate::grid::{BinGrid, BinId};
use crate::placerow::{place_row_with, RowAlgo, RowItem};
use crate::search::{
    find_path_limited, AugmentingPath, SearchCounters, SearchParams, SearchPool, SearchScratch,
    SearchShared, TabuList,
};
use crate::selection::{MemoWrite, SelectionMemo, SelectionParams};
use crate::state::{FlowState, GeomSource};
use crate::traits::{LegalizeOutcome, LegalizeStats, Legalizer};
use flow3d_db::{CellId, Design, DieId, LegalPlacement, Placement3d, RowLayout, SoaView};
use flow3d_geom::Point;
use flow3d_obs::{hist_keys, keys, Heatmap, Obs, ObsExt, Profile};
use std::collections::{BTreeMap, BTreeSet};

/// Per-die nominal bin widths: `factor · w̄_c(die)`, snapped up to the
/// die's site grid (§III-F).
pub fn bin_widths(design: &Design, factor: f64) -> Vec<i64> {
    (0..design.num_dies())
        .map(|d| {
            let die = DieId::new(d);
            let site = design.die(die).site_width;
            let nominal = (factor * design.avg_cell_width(die)).round() as i64;
            flow3d_geom::snap_up(nominal.max(site), 0, site)
        })
        .collect()
}

/// Drains every overflowed bin by successive augmenting paths (Algorithm 2
/// lines 4–10), running the per-source searches in batched rounds:
/// every round searches all current sources against a frozen snapshot of
/// the state and then applies the candidate paths in a fixed
/// `(cost, source bin)` order. The batch is what
/// [`flow_pass_threaded`] parallelizes; with one thread the exact same
/// rounds run inline.
///
/// # Errors
///
/// [`LegalizeError::NoAugmentingPath`] when a source cannot be drained
/// even by the unbounded search.
// flow3d-tidy: allow(dead-pub) — facade API (flow3d::core) for embedders that drive the legalizer below the Legalizer trait
pub fn flow_pass(
    state: &mut FlowState<'_>,
    params: &SearchParams,
    stats: &mut LegalizeStats,
) -> Result<(), LegalizeError> {
    flow_pass_threaded(state, params, 1, stats, None)
}

/// [`flow_pass`] with an observability hook: per-pass search counters
/// ([`keys::NODES_EXPANDED`], [`keys::BRANCHES_PRUNED`],
/// [`keys::AUGMENTING_PATHS`], [`keys::SEARCH_RETRIES`],
/// [`keys::CELLS_MOVED`], …) are bumped into `obs` when it is `Some`.
///
/// # Errors
///
/// Same as [`flow_pass`].
// flow3d-tidy: allow(dead-pub) — facade API (flow3d::core) for embedders that drive the legalizer below the Legalizer trait
pub fn flow_pass_observed(
    state: &mut FlowState<'_>,
    params: &SearchParams,
    stats: &mut LegalizeStats,
    obs: Obs<'_>,
) -> Result<(), LegalizeError> {
    flow_pass_threaded(state, params, 1, stats, obs)
}

/// The result of one source's bounded-search retry ladder: the candidate
/// path (if any), the search counters it burned, how many searches ran,
/// and the memo writes it buffered (selections missed in both memo
/// layers) for the coordinator to merge in source order.
type SourceSearch = (
    Option<AugmentingPath>,
    SearchCounters,
    usize,
    Vec<MemoWrite>,
);

/// Runs the per-source retry ladder — bounded search with halved flow
/// limits, then one retry with the bound disabled — against an immutable
/// state. Read-only: this is the unit of work a flow-pass batch fans out
/// across the worker pool.
fn search_source(
    state: &FlowState<'_>,
    bin: BinId,
    sup: i64,
    params: &SearchParams,
    shared: &SearchShared<'_>,
    scratch: &mut SearchScratch,
) -> SourceSearch {
    let mut counters = SearchCounters::default();
    let mut searches: usize = 0;
    // One ladder-local memo scope per source: the searches of this
    // ladder run against the same frozen state, so their selections are
    // mutually reusable. Cross-source (and cross-round, cross-request)
    // reuse happens through the shared round-start snapshot in `shared`,
    // which is frozen for the whole round — so hits and misses stay a
    // pure function of (state, shared snapshot, source) and the counters
    // are thread-count invariant.
    scratch.begin_source();
    for relaxed in [false, true] {
        if relaxed && (params.alpha.is_infinite() || params.dijkstra) {
            break;
        }
        let attempt_params = if relaxed {
            SearchParams {
                alpha: f64::INFINITY,
                ..*params
            }
        } else {
            *params
        };
        // A single path can only drain what its bins can absorb or
        // forward; on failure retry with halved flow, then once more with
        // the bound disabled, before declaring the source stuck.
        let mut limit = sup;
        while limit > 0 {
            searches += 1;
            if let Some(p) = find_path_limited(
                state,
                bin,
                limit,
                &attempt_params,
                shared,
                scratch,
                &mut counters,
            ) {
                return (Some(p), counters, searches, scratch.take_memo_writes());
            }
            limit /= 2;
        }
    }
    (None, counters, searches, scratch.take_memo_writes())
}

/// [`flow_pass_observed`] on a worker pool of `threads` threads.
///
/// # Determinism
///
/// The result is **bit-identical for every thread count** by
/// construction, not by luck:
///
/// 1. Each round snapshots nothing and copies nothing — the batch of
///    per-source searches runs against the *immutably borrowed* state,
///    so every candidate path is a pure function of `(state, source)`
///    and independent of which worker computed it.
/// 2. The candidates are applied serially in a fixed
///    `(cost, source bin)` order ([`f64::total_cmp`] — a total order).
///    Later applications may act on a path the earlier ones made stale;
///    [`crate::augment::realize`] re-selects against the live state and
///    only ever under-fills, so the post-round state is a pure function
///    of the candidate list and the order.
/// 3. Sources left overfull re-enter the next round; fallback relocation
///    runs only in a round where *no* source found a path (the state
///    then equals the snapshot, so the failure is genuine), in source
///    order.
///
/// `tests/differential.rs` enforces this contract over a case × seed ×
/// thread-count matrix.
///
/// # Errors
///
/// Same as [`flow_pass`].
pub fn flow_pass_threaded(
    state: &mut FlowState<'_>,
    params: &SearchParams,
    threads: usize,
    stats: &mut LegalizeStats,
    obs: Obs<'_>,
) -> Result<(), LegalizeError> {
    let mut pool = SearchPool::new();
    flow_pass_threaded_pooled(state, params, threads, stats, obs, &mut pool)
}

/// [`flow_pass_threaded`] with a caller-owned [`SearchPool`].
///
/// The pool (node arenas, heaps, and the shared content-addressed
/// selection memo) is grown to the worker count and persists across
/// calls, so a resident engine amortizes its allocations — and its memo
/// warmth — over many requests instead of one pass. Which scratch slot
/// serves which source is scheduling-dependent; pooled scratch never
/// influences results (a memo hit replays exactly what the selection
/// would recompute, and entries are validated by content signature), so
/// the determinism contract of [`flow_pass_threaded`] is unchanged. See
/// [`crate::EcoEngine`] for the resident lifecycle.
///
/// # Errors
///
/// Same as [`flow_pass`].
// flow3d-tidy: allow(dead-pub) — facade API (flow3d::core) for embedders that drive the legalizer below the Legalizer trait
pub fn flow_pass_threaded_pooled(
    state: &mut FlowState<'_>,
    params: &SearchParams,
    threads: usize,
    stats: &mut LegalizeStats,
    mut obs: Obs<'_>,
    pool: &mut SearchPool,
) -> Result<(), LegalizeError> {
    let aug_before = stats.augmentations;
    let moved_before = stats.cells_moved;
    let fallback_before = stats.fallback_moves;
    let threads = threads.max(1);
    let num_bins = state.grid.num_bins();
    let observing = obs.is_some();
    let heatmaps = obs.as_deref().is_some_and(Profile::heatmaps_enabled);
    // Workers share the coordinator's trace epoch so their spans land on
    // the same timeline; `None` when the coordinator is not tracing.
    let trace_epoch = obs.as_deref().and_then(Profile::tracing_epoch);
    let mut moves_per_bin: Vec<u64> = if heatmaps {
        vec![0; num_bins]
    } else {
        Vec::new()
    };
    let pass = if let Some(p) = obs.as_deref_mut() {
        let pass = p.counters().get(keys::FLOW_PASSES);
        p.bump(keys::FLOW_PASSES, 1);
        // Pre-pass congestion snapshot: where the flow problem starts.
        capture_bin_heatmaps(state, p, pass, "supply", &|b| state.sup(b) as f64);
        capture_bin_heatmaps(state, p, pass, "demand", &|b| state.dem(b) as f64);
        capture_bin_heatmaps(state, p, pass, "overflow", &|b| state.sup(b).max(0) as f64);
        pass
    } else {
        0
    };
    let mut retries: usize = 0;
    let mut counters = SearchCounters::default();
    // Apply budget: each applied path normally drains its source for
    // good, so this bound is generous. On pathological geometry (e.g. a
    // macro next to heterogeneous row heights) applications can ping-pong
    // supply between near-full bins without the total converging; the
    // tabu window below breaks most such cycles, and once the budget is
    // spent anyway, the small residue is relocated directly instead of
    // burning more rounds.
    let mut guard = 64 * state.overflowed_bins().len() + 4 * num_bins + 64;
    // Ping-pong bookkeeping, all coordinator-side and derived from the
    // serial apply order (thread-count invariant). `last_applied` maps a
    // directed bin edge to the round that last pushed flow across it;
    // when a round applies the reverse of an edge applied within the
    // detection window, both directions go tabu for `TABU_ROUNDS`.
    const PING_PONG_WINDOW: u64 = 1;
    const TABU_ROUNDS: u64 = 8;
    let mut round: u64 = 0;
    let mut last_applied: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    let mut tabu_until: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    let mut tabu_edges: u64 = 0;
    // Worker search scratch (node arena, heap, ladder-local memo) and the
    // shared selection memo persist across rounds so their allocations —
    // and the memo's warmth — amortize over the whole pass, and across
    // whole passes when the caller owns the pool.
    loop {
        // Round sources: every overflowed bin, most loaded first (bin id
        // breaks ties) — a deterministic function of the state alone.
        let mut sources: Vec<(i64, BinId)> = state
            .overflowed_bins()
            .into_iter()
            .map(|b| (state.sup(b), b))
            .collect();
        if sources.is_empty() {
            break;
        }
        sources.sort_by_key(|&(sup, b)| (std::cmp::Reverse(sup), b));
        if params.use_memo {
            let want = if params.memo_slots > 0 {
                params.memo_slots
            } else {
                SelectionMemo::auto_slots(sources.len())
            };
            pool.memo.ensure_slots(want);
        }
        // Freeze this round's tabu list (expired entries drop out first).
        tabu_until.retain(|_, until| *until > round);
        let tabu = TabuList::from_edges(
            tabu_until
                .keys()
                .map(|&(u, v)| (BinId(u), BinId(v)))
                .collect(),
        );
        let shared = SearchShared {
            memo: params.use_memo.then_some(&pool.memo),
            tabu: (!tabu.is_empty()).then_some(&tabu),
        };

        // Batch: one read-only search per source against the frozen
        // state, fanned out across the pool. Worker-local scratch reuses
        // its epoch-visited marks across the items one worker claims; the
        // shared memo snapshot is identical for every worker, so which
        // slot serves which source cannot change any outcome.
        obs.begin("search_batch");
        let frozen: &FlowState<'_> = state;
        let (candidates, worker_profiles) = flow3d_par::par_map_with_pool(
            threads,
            sources.len(),
            &mut pool.scratches,
            || SearchScratch::new(num_bins),
            || Profile::new_worker(trace_epoch),
            |scratch, wprof, i| {
                let (sup, bin) = sources[i];
                if observing {
                    wprof.begin("source_search");
                }
                let result = search_source(frozen, bin, sup, params, &shared, scratch);
                if observing {
                    wprof.end("source_search");
                }
                result
            },
        );
        if observing {
            if let Some(p) = obs.as_deref_mut() {
                // Merge while "search_batch" is open so worker spans nest
                // under it; the worker's merge-order index becomes its
                // trace track, so the timeline layout is deterministic.
                for (w, wprof) in worker_profiles.iter().enumerate() {
                    p.merge_nested_worker(wprof, w as u32 + 1);
                }
                // Histograms are recorded coordinator-side in source
                // (index) order — never from racing workers — so their
                // contents are thread-count invariant.
                for (_, c, _, _) in &candidates {
                    p.record(hist_keys::SEARCH_NODES, c.expanded as f64);
                    if params.use_memo {
                        p.record(
                            hist_keys::SELECTION_MEMO_HITS_PER_SOURCE,
                            c.memo_hits as f64,
                        );
                    }
                }
            }
        }
        obs.end("search_batch");
        for (_, c, searches, writes) in &candidates {
            counters.expanded += c.expanded;
            counters.created += c.created;
            counters.pruned += c.pruned;
            counters.pruned_stale += c.pruned_stale;
            counters.memo_hits += c.memo_hits;
            counters.memo_misses += c.memo_misses;
            retries += searches.saturating_sub(1);
            // Merge buffered memo writes in source order: a deterministic
            // store sequence gives deterministic eviction, so the next
            // round's snapshot is thread-count invariant too.
            if params.use_memo {
                pool.memo.absorb(writes);
            }
        }

        // Deterministic reduction: cheapest candidate first, the source
        // bin id breaking ties.
        let mut order: Vec<(usize, &AugmentingPath)> = candidates
            .iter()
            .enumerate()
            .filter_map(|(i, (path, _, _, _))| path.as_ref().map(|p| (i, p)))
            .collect();
        order.sort_by(|&(a, pa), &(b, pb)| {
            pa.cost
                .total_cmp(&pb.cost)
                .then(sources[a].1.cmp(&sources[b].1))
        });

        // Apply serially in that fixed order. Paths made stale by an
        // earlier application still realize safely (selections are
        // recomputed against the live state and only under-fill); any
        // supply they leave behind re-enters the next round.
        obs.begin("apply");
        let mut applied = false;
        let mut exhausted = false;
        for &(i, path) in &order {
            let bin = sources[i].1;
            let sup = state.sup(bin);
            if sup <= 0 {
                continue; // an earlier application already drained it
            }
            if guard == 0 {
                exhausted = true;
                break;
            }
            guard -= 1;
            stats.cells_moved += crate::augment::realize(state, path, &params.selection);
            stats.augmentations += 1;
            // Ping-pong detection: applying the reverse of an edge that
            // was applied within the last `PING_PONG_WINDOW` rounds means
            // the flow is shuttling cells back where it just pushed them
            // from (the m1h macro + heterogeneous-row pathology). Tabu
            // both directions for a bounded window so the search must
            // route around the oscillation instead of burning the guard.
            for w in path.steps.windows(2) {
                let e = (w[0].bin.0, w[1].bin.0);
                let rev = (e.1, e.0);
                if last_applied
                    .get(&rev)
                    .is_some_and(|&r| round.saturating_sub(r) <= PING_PONG_WINDOW)
                {
                    for edge in [e, rev] {
                        if tabu_until.insert(edge, round + 1 + TABU_ROUNDS).is_none() {
                            tabu_edges += 1;
                        }
                    }
                }
                last_applied.insert(e, round);
            }
            obs.record(hist_keys::SEARCH_DEPTH, path.depth() as f64);
            if heatmaps {
                for step in &path.steps {
                    moves_per_bin[step.bin.index()] += 1;
                }
            }
            applied = true;
        }
        obs.end("apply");
        if exhausted {
            // The apply budget ran out while paths were still being found:
            // the flow is shuffling supply between near-full bins faster
            // than it drains. Relocate whatever overflow remains directly
            // (most loaded bin first, bin id breaking ties — the same
            // deterministic order the rounds use) and finish the pass.
            let allow_cross_die = grid_has_d2d(state);
            let mut leftovers: Vec<(i64, BinId)> = state
                .overflowed_bins()
                .into_iter()
                .map(|b| (state.sup(b), b))
                .collect();
            leftovers.sort_by_key(|&(sup, b)| (std::cmp::Reverse(sup), b));
            for &(_, bin) in &leftovers {
                if state.sup(bin) > 0 {
                    teleport_fallback(state, bin, allow_cross_die, stats)?;
                }
            }
            break;
        }

        if !applied {
            // No source found a path, and nothing was applied — the state
            // still equals the snapshot the searches ran against, so the
            // failure is genuine: these sources sit in regions the grid
            // cannot drain (e.g. a macro-enclosed pocket). Fall back to
            // relocating cells directly to the nearest bin with room.
            let allow_cross_die = grid_has_d2d(state);
            for &(_, bin) in &sources {
                if state.sup(bin) > 0 {
                    teleport_fallback(state, bin, allow_cross_die, stats)?;
                }
            }
        }
        round += 1;
    }
    stats.nodes_expanded += counters.expanded;
    if let Some(p) = obs.as_deref_mut() {
        // Post-pass movement picture: how many applied path steps
        // touched each bin.
        capture_bin_heatmaps(state, p, pass, "moves", &|b| {
            moves_per_bin[b.index()] as f64
        });
    }
    obs.bump(keys::NODES_EXPANDED, counters.expanded as u64);
    obs.bump(keys::NODES_CREATED, counters.created as u64);
    obs.bump(keys::BRANCHES_PRUNED, counters.pruned as u64);
    obs.bump(keys::BRANCHES_PRUNED_STALE, counters.pruned_stale as u64);
    if params.use_memo {
        // Bumped only when the memo is on: downstream hit-rate reporting
        // reads the *presence* of these counters as "memo enabled", so a
        // cold-but-enabled run (0 hits, some misses) stays distinguishable
        // from a disabled one (no counters at all).
        obs.bump(keys::SELECTION_MEMO_HITS, counters.memo_hits as u64);
        obs.bump(keys::SELECTION_MEMO_MISSES, counters.memo_misses as u64);
    }
    obs.bump(keys::PING_PONG_TABUS, tabu_edges);
    obs.bump(
        keys::AUGMENTING_PATHS,
        (stats.augmentations - aug_before) as u64,
    );
    obs.bump(keys::SEARCH_RETRIES, retries as u64);
    obs.bump(keys::CELLS_MOVED, (stats.cells_moved - moved_before) as u64);
    obs.bump(
        keys::FALLBACK_MOVES,
        (stats.fallback_moves - fallback_before) as u64,
    );
    Ok(())
}

/// Captures one heatmap per die of `value` over the bin grid, named
/// `flow_pass{pass}/die{d}/{kind}`. Returns at once unless the profile
/// has heatmap capture armed ([`Profile::enable_heatmaps`]).
///
/// Grid rows map to heatmap rows bottom-up (ascending row y), bins
/// within a row map to columns left-to-right (ascending span start);
/// rows shorter than the widest row (macro cut-outs) leave `NaN` cells.
/// The capture order and cell values are pure functions of the state, so
/// heatmaps are identical for every thread count.
fn capture_bin_heatmaps(
    state: &FlowState<'_>,
    profile: &mut Profile,
    pass: u64,
    kind: &str,
    value: &dyn Fn(BinId) -> f64,
) {
    if !profile.heatmaps_enabled() {
        return;
    }
    let mut dies: BTreeMap<usize, BTreeMap<i64, Vec<(i64, BinId)>>> = BTreeMap::new();
    for i in 0..state.grid.num_bins() {
        let id = BinId::new(i);
        let b = state.grid.bin(id);
        dies.entry(b.die.index())
            .or_default()
            .entry(b.y)
            .or_default()
            .push((b.span.lo, id));
    }
    for (die, rows) in &mut dies {
        let cols = rows.values().map(Vec::len).max().unwrap_or(0);
        let name = format!("flow_pass{pass}/die{die}/{kind}");
        let mut map = Heatmap::new(&name, rows.len(), cols);
        for (r, bins) in rows.values_mut().enumerate() {
            bins.sort_unstable();
            for (c, &(_, bin)) in bins.iter().enumerate() {
                map.set(r, c, value(bin));
            }
        }
        profile.add_heatmap(map);
    }
}

/// `true` if the grid was built with die-to-die edges (determines whether
/// the fallback may change dies).
fn grid_has_d2d(state: &FlowState<'_>) -> bool {
    (0..state.grid.num_bins()).any(|i| {
        state
            .grid
            .neighbors(BinId::new(i))
            .iter()
            .any(|&(_, k)| k == crate::grid::EdgeKind::DieToDie)
    })
}

/// Last-resort relocation for a source no augmenting path can drain:
/// moves whole cells out of `bin` to the demand bin nearest their anchor
/// (same die unless `allow_cross_die`), until the overflow is gone or no
/// cell can move.
///
/// # Errors
///
/// [`LegalizeError::NoAugmentingPath`] when not even a direct relocation
/// exists (the stack is genuinely out of room for these cells).
pub fn teleport_fallback(
    state: &mut FlowState<'_>,
    bin: BinId,
    allow_cross_die: bool,
    stats: &mut LegalizeStats,
) -> Result<bool, LegalizeError> {
    let mut moved_any = false;
    while state.sup(bin) > 0 {
        // Widest movable fragment first: drains the overflow fastest and
        // keeps small cells (cheap to place later) in the bin.
        let mut cells: Vec<(i64, CellId)> = state
            .frags_in(bin)
            .iter()
            .map(|f| (f.width, f.cell))
            .collect();
        cells.sort_by_key(|&(w, c)| (std::cmp::Reverse(w), c));

        let src_die = state.grid.bin(bin).die;
        let mut done = false;
        'cells: for (_, cell) in cells {
            let mut best: Option<(BinId, i64)> = None;
            for i in 0..state.grid.num_bins() {
                let cand = BinId::new(i);
                let b = state.grid.bin(cand);
                if !allow_cross_die && b.die != src_die {
                    continue;
                }
                let w_v = state.cell_width(cell, b.die);
                if state.dem(cand) < w_v {
                    continue;
                }
                if b.die != src_die {
                    let need = w_v * state.cell_height(b.die);
                    if need > state.area_headroom(b.die) {
                        continue;
                    }
                }
                let d = state.disp_to(cell, b);
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((cand, d));
                }
            }
            if let Some((target, _)) = best {
                state.remove_cell(cell);
                state.insert_cell_whole(cell, target);
                stats.fallback_moves += 1;
                moved_any = true;
                done = true;
                break 'cells;
            }
        }
        if !done {
            return Err(LegalizeError::NoAugmentingPath {
                die: src_die,
                supply: state.sup(bin),
            });
        }
    }
    Ok(moved_any)
}

/// Legalizes every row segment with Abacus `PlaceRow` (§III-D) and emits
/// the final placement. Every cell's desired x is its anchor clamped into
/// the bin range the flow phase assigned it to.
///
/// # Errors
///
/// [`LegalizeError::SegmentOverflow`] if a segment holds more cell width
/// than it can fit — impossible after a successful [`flow_pass`].
// flow3d-tidy: allow(dead-pub) — facade API (flow3d::core) for embedders that drive the legalizer below the Legalizer trait
pub fn placerow_all(state: &FlowState<'_>) -> Result<LegalPlacement, LegalizeError> {
    placerow_all_with(state, RowAlgo::AbacusQuadratic)
}

/// [`placerow_all`] with an explicit row algorithm (§III-D).
///
/// # Errors
///
/// Same as [`placerow_all`].
// flow3d-tidy: allow(dead-pub) — facade API (flow3d::core) for embedders that drive the legalizer below the Legalizer trait
pub fn placerow_all_with(
    state: &FlowState<'_>,
    algo: RowAlgo,
) -> Result<LegalPlacement, LegalizeError> {
    placerow_all_observed(state, algo, None)
}

/// [`placerow_all_with`] with an observability hook:
/// [`keys::PLACEROW_CALLS`] counts one per non-empty row segment
/// legalized when `obs` is `Some`.
///
/// # Errors
///
/// Same as [`placerow_all`].
pub fn placerow_all_observed(
    state: &FlowState<'_>,
    algo: RowAlgo,
    obs: Obs<'_>,
) -> Result<LegalPlacement, LegalizeError> {
    placerow_all_threaded(state, algo, 1, obs)
}

/// [`placerow_all_observed`] on a worker pool of `threads` threads: row
/// segments fan out across the pool, one `PlaceRow` per segment.
///
/// Segments are independent once the flow phase fixed the cell→bin
/// assignment: a cell's fragments always sit inside a single segment
/// (enforced by `FlowState::check_invariants`), so the straddling-cell
/// dedup is segment-local and no two workers ever touch the same cell.
/// Results merge in segment order, making the output — placements *and*
/// the first reported error — identical for every thread count.
///
/// # Errors
///
/// Same as [`placerow_all`].
pub fn placerow_all_threaded(
    state: &FlowState<'_>,
    algo: RowAlgo,
    threads: usize,
    mut obs: Obs<'_>,
) -> Result<LegalPlacement, LegalizeError> {
    let design = state.design;
    let segs = state.layout.segments();
    let observing = obs.is_some();
    let trace_epoch = obs.as_deref().and_then(Profile::tracing_epoch);

    type SegmentPlacement = Result<Vec<(usize, i64)>, LegalizeError>;
    let (per_segment, worker_profiles) = flow3d_par::par_map_with(
        threads.max(1),
        segs.len(),
        || Profile::new_worker(trace_epoch),
        |wprof, i| -> SegmentPlacement {
            let seg = &segs[i];
            let die = design.die(seg.die);
            let mut items: Vec<RowItem> = Vec::new();
            let mut seen: BTreeSet<usize> = BTreeSet::new();
            for &bid in state.grid.bins_in_segment(seg.id) {
                for frag in state.frags_in(bid) {
                    if !seen.insert(frag.cell.index()) {
                        continue; // other fragment of a straddling cell
                    }
                    let w = state.cell_width(frag.cell, seg.die);
                    // The flow phase decides the *segment*; within it,
                    // trust PlaceRow's quadratic optimum from the raw
                    // anchor (the total width fits by construction).
                    let anchor = state.anchor(frag.cell);
                    let desired = anchor.x.clamp(seg.span.lo, seg.span.hi - w);
                    items.push(RowItem {
                        key: frag.cell.index(),
                        desired,
                        width: w,
                        weight: w as f64,
                    });
                }
            }
            if items.is_empty() {
                return Ok(Vec::new());
            }
            if observing {
                wprof.begin("segment");
            }
            let placed = place_row_with(algo, &items, seg.span, die.outline.xlo, die.site_width)
                .map_err(|e| LegalizeError::SegmentOverflow {
                    die: seg.die,
                    excess: e.total_width - e.segment_width,
                });
            if observing {
                wprof.end("segment");
            }
            placed
        },
    );
    if observing {
        if let Some(p) = obs.as_deref_mut() {
            for (w, wprof) in worker_profiles.iter().enumerate() {
                p.merge_nested_worker(wprof, w as u32 + 1);
            }
        }
    }

    let mut placement = LegalPlacement::new(design.num_cells());
    for (i, result) in per_segment.into_iter().enumerate() {
        let seg = &segs[i];
        let placed = result?; // first failing segment in segment order
        if placed.is_empty() {
            continue;
        }
        obs.bump(keys::PLACEROW_CALLS, 1);
        // Recorded here, in segment order, so the histogram is
        // thread-count invariant.
        obs.record(hist_keys::SEGMENT_CELLS, placed.len() as f64);
        for (key, x) in placed {
            placement.place(CellId::new(key), Point::new(x, seg.y), seg.die);
        }
    }
    Ok(placement)
}

/// The 3D-Flow legalizer (paper Algorithm 2).
///
/// See the [crate-level documentation](crate) for the pipeline and
/// [`Flow3dConfig`] for the tunables.
#[derive(Debug, Clone, Default)]
pub struct Flow3dLegalizer {
    config: Flow3dConfig,
}

impl Flow3dLegalizer {
    /// Creates a legalizer with the given configuration.
    pub fn new(config: Flow3dConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &Flow3dConfig {
        &self.config
    }
}

impl Legalizer for Flow3dLegalizer {
    fn name(&self) -> &str {
        if self.config.allow_d2d {
            "3d-flow"
        } else {
            "3d-flow-no-d2d"
        }
    }

    fn legalize(
        &self,
        design: &Design,
        global: &Placement3d,
    ) -> Result<LegalizeOutcome, LegalizeError> {
        self.legalize_observed(design, global, None)
    }

    fn legalize_observed(
        &self,
        design: &Design,
        global: &Placement3d,
        mut obs: Obs<'_>,
    ) -> Result<LegalizeOutcome, LegalizeError> {
        obs.begin("legalize");
        let result = self.run(design, global, obs.reborrow());
        obs.end("legalize");
        result
    }
}

impl Flow3dLegalizer {
    /// The pipeline body, wrapped in the `"legalize"` phase by
    /// [`legalize_observed`](Legalizer::legalize_observed). Fallible steps
    /// are bound *between* `obs.begin`/`obs.end` and only `?`-propagated
    /// after the scope closes, so an error cannot leave a phase open.
    fn run(
        &self,
        design: &Design,
        global: &Placement3d,
        mut obs: Obs<'_>,
    ) -> Result<LegalizeOutcome, LegalizeError> {
        let cfg = &self.config;
        let threads = flow3d_par::resolve_threads(cfg.threads);

        // Build the flat SoA geometry columns once, up front; every later
        // phase borrows them. Skipped (falling back to the id-map path)
        // when disabled or when the placement is malformed — the count
        // mismatch is then reported as an error by `partition_dies_with`.
        obs.begin("soa_build");
        let soa = (cfg.soa_view && global.num_cells() == design.num_cells())
            .then(|| SoaView::build(design, global));
        obs.end("soa_build");
        let geom = match soa.as_ref() {
            Some(view) => GeomSource::Soa(view),
            None => GeomSource::IdMap,
        };

        obs.begin("partition");
        let layout = RowLayout::build(design);
        let dies = assign::partition_dies_with(design, global, &geom);
        obs.end("partition");
        let mut dies = dies?;

        obs.begin("grid_build");
        let widths = bin_widths(design, cfg.bin_width_factor);
        let grid = BinGrid::build(design, &layout, &widths, cfg.allow_d2d);
        obs.end("grid_build");

        obs.begin("assign");
        let state =
            assign::build_state_with_geom(design, &layout, &grid, global, &mut dies, geom.clone());
        obs.end("assign");
        let mut state = state?;

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
            use_memo: cfg.selection_memo,
            memo_slots: cfg.memo_slots,
            selection: SelectionParams {
                clamp_negative: false,
                d2d_congestion_cost: cfg.d2d_congestion_cost,
                d2d_penalty,
            },
        };

        let mut stats = LegalizeStats::default();
        obs.begin("flow_pass");
        let flowed = flow_pass_threaded(&mut state, &params, threads, &mut stats, obs.reborrow());
        obs.end("flow_pass");
        flowed?;

        obs.begin("placerow");
        let placed = placerow_all_threaded(&state, cfg.row_algo, threads, obs.reborrow());
        obs.end("placerow");
        let mut placement = placed?;

        if cfg.post_opt {
            obs.begin("post_opt");
            let post = cycle::post_optimize_with_geom(
                design,
                &layout,
                global,
                cfg,
                &params,
                &mut placement,
                &mut stats,
                &geom,
                obs.reborrow(),
            );
            obs.end("post_opt");
            post?;
        }

        stats.cross_die_moves = placement.cross_die_moves(global, design.num_dies());

        if let Some(p) = obs {
            // Final displacement distribution (paper Table III reports
            // only avg/max; the histogram shows the shape behind them).
            let anchors = assign::anchors(design, global);
            for (i, &anchor) in anchors.iter().enumerate() {
                let d = placement.pos(CellId::new(i)).manhattan(anchor);
                p.record(hist_keys::DISPLACEMENT, d as f64);
            }
        }
        Ok(LegalizeOutcome { placement, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow3d_db::{DesignBuilder, DieSpec, LibCellSpec, TechnologySpec};
    use flow3d_geom::FPoint;
    use flow3d_metrics::{check_legal, displacement_stats};

    fn dense_design(n: usize) -> (Design, Placement3d) {
        let mut b = DesignBuilder::new("t")
            .technology(TechnologySpec::new("TA").lib_cell(LibCellSpec::std_cell("W40", 40, 12)))
            .technology(TechnologySpec::new("TB").lib_cell(LibCellSpec::std_cell("W40", 30, 16)))
            .die(DieSpec::new("bottom", "TA", (0, 0, 800, 48), 12, 1, 1.0))
            .die(DieSpec::new("top", "TB", (0, 0, 800, 48), 16, 1, 1.0));
        for i in 0..n {
            b = b.cell(format!("u{i}"), "W40");
        }
        let design = b.build().unwrap();
        // Clump everything near the center-left of the bottom die.
        let mut gp = Placement3d::new(n);
        for i in 0..n {
            let c = CellId::new(i);
            gp.set_pos(c, FPoint::new(100.0 + (i % 7) as f64 * 13.0, 6.0));
            gp.set_die_affinity(c, if i % 4 == 0 { 0.6 } else { 0.2 });
        }
        (design, gp)
    }

    #[test]
    fn bin_widths_snap_to_sites() {
        let (d, _) = dense_design(3);
        let w = bin_widths(&d, 10.0);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0], 400); // 10 * 40, site 1
        assert_eq!(w[1], 300); // 10 * 30
    }

    #[test]
    fn legalizes_dense_clump_to_legal_placement() {
        let (d, gp) = dense_design(30);
        let outcome = Flow3dLegalizer::default().legalize(&d, &gp).unwrap();
        let report = check_legal(&d, &outcome.placement);
        assert!(report.is_legal(), "{report}");
        assert!(outcome.stats.augmentations > 0);
    }

    #[test]
    fn displacement_stays_reasonable() {
        let (d, gp) = dense_design(30);
        let outcome = Flow3dLegalizer::default().legalize(&d, &gp).unwrap();
        let stats = displacement_stats(&d, &gp, &outcome.placement);
        // The die is 800 wide with 48 of height; nothing should fly to
        // the far corner.
        assert!(stats.max_dbu < 800.0, "max displacement {}", stats.max_dbu);
        assert!(stats.avg_dbu > 0.0);
    }

    #[test]
    fn no_d2d_variant_keeps_die_assignment() {
        let (d, gp) = dense_design(20);
        let outcome = Flow3dLegalizer::new(Flow3dConfig::without_d2d())
            .legalize(&d, &gp)
            .unwrap();
        assert!(check_legal(&d, &outcome.placement).is_legal());
        assert_eq!(outcome.stats.cross_die_moves, 0);
    }

    #[test]
    fn d2d_enables_overflow_escape() {
        // Bottom die too small for all cells; top die has room. Without
        // D2D this fails at partitioning only if affinities force bottom —
        // partition_dies rebalances, so force with util 1.0 and identical
        // affinity: it still rebalances. Instead verify D2D moves occur
        // under pressure.
        let (d, gp) = dense_design(36); // 36*40 = 1440 vs 800*4 rows... fits
        let outcome = Flow3dLegalizer::default().legalize(&d, &gp).unwrap();
        assert!(check_legal(&d, &outcome.placement).is_legal());
    }

    #[test]
    fn deterministic_output() {
        let (d, gp) = dense_design(25);
        let a = Flow3dLegalizer::default().legalize(&d, &gp).unwrap();
        let b = Flow3dLegalizer::default().legalize(&d, &gp).unwrap();
        assert_eq!(a.placement, b.placement);
    }

    #[test]
    fn thread_count_does_not_change_the_result() {
        let (d, gp) = dense_design(30);
        let serial = Flow3dLegalizer::new(Flow3dConfig::with_threads(1))
            .legalize(&d, &gp)
            .unwrap();
        for threads in [2, 3, 8] {
            let parallel = Flow3dLegalizer::new(Flow3dConfig::with_threads(threads))
                .legalize(&d, &gp)
                .unwrap();
            assert_eq!(parallel.placement, serial.placement, "threads={threads}");
            assert_eq!(parallel.stats, serial.stats, "threads={threads}");
        }
    }

    #[test]
    fn threaded_profile_structure_matches_serial() {
        // Per-worker span aggregation: the merged profile has the same
        // phase paths and call counts for every pool size; only the
        // durations differ.
        let (d, gp) = dense_design(30);
        let collect = |threads: usize| {
            let mut profile = flow3d_obs::Profile::new();
            Flow3dLegalizer::new(Flow3dConfig::with_threads(threads))
                .legalize_observed(&d, &gp, Some(&mut profile))
                .unwrap();
            let phases: Vec<(String, u64)> = profile
                .phases()
                .map(|(p, s)| (p.to_string(), s.calls))
                .collect();
            let counters: Vec<(String, u64)> = profile
                .counters()
                .iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            (phases, counters)
        };
        let serial = collect(1);
        let threaded = collect(4);
        assert_eq!(serial, threaded);
        assert!(serial
            .0
            .iter()
            .any(|(p, _)| p == "legalize/flow_pass/search_batch"));
        assert!(serial
            .0
            .iter()
            .any(|(p, _)| p == "legalize/flow_pass/search_batch/source_search"));
        assert!(serial
            .0
            .iter()
            .any(|(p, _)| p == "legalize/flow_pass/apply"));
        assert!(serial
            .0
            .iter()
            .any(|(p, _)| p == "legalize/placerow/segment"));
    }

    #[test]
    fn pocket_without_paths_uses_teleport_fallback() {
        // A macro blankets the middle row of the bottom die, so row 0 and
        // row 2 are disconnected on that die. Row 0 is overfull; without
        // D2D edges the only way out is the direct-relocation fallback.
        let mut b = DesignBuilder::new("t")
            .technology(
                TechnologySpec::new("T")
                    .lib_cell(LibCellSpec::std_cell("W40", 40, 12))
                    .lib_cell(LibCellSpec::macro_cell("WALL", 160, 12)),
            )
            .die(DieSpec::new("bottom", "T", (0, 0, 160, 36), 12, 1, 1.0))
            .die(DieSpec::new("top", "T", (0, 0, 160, 36), 12, 1, 1.0))
            .macro_inst("wall", "WALL", "bottom", 0, 12);
        for i in 0..5 {
            b = b.cell(format!("u{i}"), "W40");
        }
        let d = b.build().unwrap();
        let mut gp = Placement3d::new(5);
        for i in 0..5 {
            gp.set_pos(CellId::new(i), FPoint::new(0.0, 0.0));
        }
        // 5 * 40 = 200 > row 0's 160: one cell must leave row 0, and no
        // grid path reaches row 2.
        let outcome = Flow3dLegalizer::new(Flow3dConfig::without_d2d())
            .legalize(&d, &gp)
            .unwrap();
        assert!(flow3d_metrics::check_legal(&d, &outcome.placement).is_legal());
        assert!(outcome.stats.fallback_moves > 0);
        // The relocated cell landed on row 2 of the same die.
        let on_row2 = (0..5)
            .filter(|&i| outcome.placement.pos(CellId::new(i)).y == 24)
            .count();
        assert_eq!(on_row2, 1);
        assert_eq!(outcome.stats.cross_die_moves, 0);
    }

    /// The minified m1h pathology: a wide macro beside heterogeneous row
    /// heights (12 on the bottom die, 16 on the top) pinches the grid so
    /// that applied paths shuttle supply back across an edge used in the
    /// opposite direction one round earlier (A→B then B→A).
    fn m1h_fixture() -> (Design, Placement3d) {
        let n = 26;
        let mut b = DesignBuilder::new("m1h")
            .technology(
                TechnologySpec::new("TA")
                    .lib_cell(LibCellSpec::std_cell("W40", 40, 12))
                    .lib_cell(LibCellSpec::macro_cell("WALL", 240, 12)),
            )
            .technology(
                TechnologySpec::new("TB")
                    .lib_cell(LibCellSpec::std_cell("W40", 30, 16))
                    .lib_cell(LibCellSpec::macro_cell("WALL", 240, 16)),
            )
            .die(DieSpec::new("bottom", "TA", (0, 0, 320, 36), 12, 1, 1.0))
            .die(DieSpec::new("top", "TB", (0, 0, 320, 32), 16, 1, 1.0))
            .macro_inst("wall", "WALL", "bottom", 0, 12)
            .macro_inst("wallt", "WALL", "top", 40, 0);
        for i in 0..n {
            b = b.cell(format!("u{i}"), "W40");
        }
        let d = b.build().unwrap();
        let mut gp = Placement3d::new(n);
        for i in 0..n {
            let c = CellId::new(i);
            gp.set_pos(c, FPoint::new((i % 7) as f64 * 20.0, 0.0));
            gp.set_die_affinity(c, 0.2);
        }
        (d, gp)
    }

    #[test]
    fn m1h_ping_pong_is_detected_and_legalizes_without_guard_exhaustion() {
        let (d, gp) = m1h_fixture();
        let mut profile = flow3d_obs::Profile::new();
        let outcome = Flow3dLegalizer::default()
            .legalize_observed(&d, &gp, Some(&mut profile))
            .unwrap();
        assert!(check_legal(&d, &outcome.placement).is_legal());
        // The oscillation pattern is present — the detector must fire …
        assert!(
            profile.counters().get(keys::PING_PONG_TABUS) > 0,
            "fixture no longer oscillates; rebuild it so the regression stays live"
        );
        // … and must be broken by rerouting, not by burning the apply
        // guard down to the teleport fallback.
        assert_eq!(outcome.stats.fallback_moves, 0, "guard exhausted");
        // Convergence stays quick: nowhere near the apply budget
        // (64·overflowed + 4·bins + 64 ≥ 100 for this grid).
        assert!(
            outcome.stats.augmentations < 32,
            "augmentations ballooned: {}",
            outcome.stats.augmentations
        );
    }

    #[test]
    fn m1h_tabu_keeps_thread_invariance() {
        // The tabu bookkeeping is coordinator-side, derived from the
        // serial apply order — the fix must not cost the thread-count
        // bit-identity contract.
        let (d, gp) = m1h_fixture();
        let serial = Flow3dLegalizer::new(Flow3dConfig::with_threads(1))
            .legalize(&d, &gp)
            .unwrap();
        for threads in [2, 8] {
            let parallel = Flow3dLegalizer::new(Flow3dConfig::with_threads(threads))
                .legalize(&d, &gp)
                .unwrap();
            assert_eq!(parallel.placement, serial.placement, "threads={threads}");
            assert_eq!(parallel.stats, serial.stats, "threads={threads}");
        }
    }

    #[test]
    fn empty_design_is_trivially_legal() {
        let d = DesignBuilder::new("t")
            .technology(TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("INV", 10, 12)))
            .die(DieSpec::new("bottom", "T", (0, 0, 100, 24), 12, 1, 1.0))
            .die(DieSpec::new("top", "T", (0, 0, 100, 24), 12, 1, 1.0))
            .build()
            .unwrap();
        let outcome = Flow3dLegalizer::default()
            .legalize(&d, &Placement3d::new(0))
            .unwrap();
        assert_eq!(outcome.placement.num_cells(), 0);
        assert_eq!(outcome.stats.augmentations, 0);
    }
}
