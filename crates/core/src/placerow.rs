//! Abacus `PlaceRow` (paper §III-D, after Spindler et al.).
//!
//! Orders the cells of one row segment with minimal weighted quadratic
//! movement in linear time: cells are processed in x order; whenever a
//! cell would overlap its predecessor the two merge into a *cluster* whose
//! optimal position is the weighted mean of its members' desired
//! positions; overlapping clusters merge recursively. Final positions are
//! clamped into the segment and snapped to the site grid.

use flow3d_geom::Interval;
use std::error::Error;
use std::fmt;

/// One cell to place in a row segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowItem {
    /// Caller-chosen identifier returned with the position.
    pub key: usize,
    /// Desired x of the cell's left edge.
    pub desired: i64,
    /// Cell width (must be a multiple of the site width).
    pub width: i64,
    /// Quadratic-movement weight (Abacus uses the cell width).
    pub weight: f64,
}

/// Error: the segment cannot hold the cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// flow3d-tidy: allow(dead-pub) — facade API (flow3d::core) for embedders that drive the legalizer below the Legalizer trait
pub struct PlaceRowError {
    /// Total width of the cells.
    pub total_width: i64,
    /// Width of the segment.
    pub segment_width: i64,
}

impl fmt::Display for PlaceRowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cells of width {} exceed segment of width {}",
            self.total_width, self.segment_width
        )
    }
}

impl Error for PlaceRowError {}

#[derive(Debug, Clone, Copy)]
struct Cluster {
    /// Optimal (continuous) position of the cluster's left edge.
    x: f64,
    /// Σ weights.
    e: f64,
    /// Σ weight·(desired − offset within cluster).
    q: f64,
    /// Total width.
    w: i64,
    /// Index of the first item (into the sorted items).
    first: usize,
}

/// Places `items` in `span` with minimal weighted quadratic displacement.
/// Returns `(key, x)` pairs. Positions are site-aligned (`origin` +
/// multiples of `site`) and abut without overlap.
///
/// # Errors
///
/// [`PlaceRowError`] when the total cell width exceeds the segment width.
///
/// # Panics
///
/// Panics if `site <= 0` or if `span` is not site-aligned relative to
/// `origin`.
pub fn place_row(
    items: &[RowItem],
    span: Interval,
    origin: i64,
    site: i64,
) -> Result<Vec<(usize, i64)>, PlaceRowError> {
    assert!(site > 0, "non-positive site width");
    assert_eq!(
        (span.lo - origin).rem_euclid(site),
        0,
        "segment start off the site grid"
    );
    let total_width: i64 = items.iter().map(|i| i.width).sum();
    if total_width > span.len() {
        return Err(PlaceRowError {
            total_width,
            segment_width: span.len(),
        });
    }
    if items.is_empty() {
        return Ok(Vec::new());
    }

    let mut sorted: Vec<RowItem> = items.to_vec();
    sorted.sort_by_key(|i| (i.desired, i.key));

    // Abacus clustering.
    let mut clusters: Vec<Cluster> = Vec::with_capacity(sorted.len());
    let clamp_x = |x: f64, w: i64| x.clamp(span.lo as f64, (span.hi - w) as f64);
    for (idx, item) in sorted.iter().enumerate() {
        let mut c = Cluster {
            x: clamp_x(item.desired as f64, item.width),
            e: item.weight,
            q: item.weight * item.desired as f64,
            w: item.width,
            first: idx,
        };
        // Collapse with predecessors while overlapping.
        while clusters
            .last()
            .is_some_and(|prev| prev.x + prev.w as f64 > c.x)
        {
            let Some(prev) = clusters.pop() else { break };
            let merged_e = prev.e + c.e;
            // Items of `c` shift right by prev.w inside the merged cluster.
            let merged_q = prev.q + c.q - c.e * prev.w as f64;
            let merged_w = prev.w + c.w;
            c = Cluster {
                x: clamp_x(merged_q / merged_e, merged_w),
                e: merged_e,
                q: merged_q,
                w: merged_w,
                first: prev.first,
            };
        }
        clusters.push(c);
    }

    // Snap clusters to sites; resolve residual overlap left-to-right, then
    // pull back from the right edge.
    let n = clusters.len();
    let mut xs: Vec<i64> = Vec::with_capacity(n);
    let mut prev_end = span.lo;
    for c in &clusters {
        let snapped = flow3d_geom::snap_nearest(c.x.round() as i64, origin, site)
            .clamp(span.lo, span.hi - c.w);
        let x = snapped.max(prev_end);
        xs.push(x);
        prev_end = x + c.w;
    }
    let mut limit = span.hi;
    for (i, c) in clusters.iter().enumerate().rev() {
        if xs[i] + c.w > limit {
            xs[i] = limit - c.w;
        }
        limit = xs[i];
    }

    // Emit per-item positions.
    let mut out = Vec::with_capacity(sorted.len());
    for (ci, c) in clusters.iter().enumerate() {
        let mut x = xs[ci];
        let last = clusters
            .get(ci + 1)
            .map(|nc| nc.first)
            .unwrap_or(sorted.len());
        for item in &sorted[c.first..last] {
            out.push((item.key, x));
            x += item.width;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn item(key: usize, desired: i64, width: i64) -> RowItem {
        RowItem {
            key,
            desired,
            width,
            weight: width as f64,
        }
    }

    fn assert_legal(
        placed: &[(usize, i64)],
        items: &[RowItem],
        span: Interval,
        origin: i64,
        site: i64,
    ) {
        let mut rects: Vec<(i64, i64)> = placed
            .iter()
            .map(|&(k, x)| {
                let w = items.iter().find(|i| i.key == k).unwrap().width;
                assert!(
                    x >= span.lo && x + w <= span.hi,
                    "key {k} at {x} outside {span}"
                );
                assert_eq!((x - origin).rem_euclid(site), 0, "key {k} off-site at {x}");
                (x, x + w)
            })
            .collect();
        rects.sort();
        for w in rects.windows(2) {
            assert!(w[0].1 <= w[1].0, "overlap: {:?}", w);
        }
    }

    #[test]
    fn non_overlapping_cells_stay_put() {
        let items = vec![item(0, 10, 20), item(1, 50, 20)];
        let placed = place_row(&items, Interval::new(0, 100), 0, 1).unwrap();
        assert_eq!(placed, vec![(0, 10), (1, 50)]);
    }

    #[test]
    fn overlapping_cells_cluster_at_weighted_mean() {
        // Two equal cells desiring the same spot split around it.
        let items = vec![item(0, 40, 20), item(1, 40, 20)];
        let placed = place_row(&items, Interval::new(0, 100), 0, 1).unwrap();
        assert_legal(&placed, &items, Interval::new(0, 100), 0, 1);
        // Cluster optimum: minimize w(x-40)^2 + w(x+20-40)^2 -> x = 30.
        assert_eq!(placed, vec![(0, 30), (1, 50)]);
    }

    #[test]
    fn clamping_against_segment_edges() {
        let items = vec![item(0, -50, 20), item(1, 500, 30)];
        let span = Interval::new(0, 100);
        let placed = place_row(&items, span, 0, 1).unwrap();
        assert_legal(&placed, &items, span, 0, 1);
        assert_eq!(placed[0].1, 0);
        assert_eq!(placed[1].1, 70);
    }

    #[test]
    fn full_segment_packs_exactly() {
        let items = vec![item(0, 90, 40), item(1, 90, 40), item(2, 90, 20)];
        let span = Interval::new(0, 100);
        let placed = place_row(&items, span, 0, 1).unwrap();
        assert_legal(&placed, &items, span, 0, 1);
        let min = placed.iter().map(|&(_, x)| x).min().unwrap();
        assert_eq!(min, 0); // forced to pack from the left edge
    }

    #[test]
    fn overflow_is_an_error() {
        let items = vec![item(0, 0, 60), item(1, 0, 60)];
        let err = place_row(&items, Interval::new(0, 100), 0, 1).unwrap_err();
        assert_eq!(err.total_width, 120);
        assert_eq!(err.segment_width, 100);
    }

    #[test]
    fn site_snapping_respects_grid() {
        let items = vec![item(0, 13, 8), item(1, 17, 8)];
        let span = Interval::new(0, 64);
        let placed = place_row(&items, span, 0, 8).unwrap();
        assert_legal(&placed, &items, span, 0, 8);
    }

    #[test]
    fn heavier_cells_move_less() {
        // A heavy and a light cell contending for the same position: the
        // cluster mean sits closer to the heavy cell's desire.
        let heavy = RowItem {
            key: 0,
            desired: 50,
            width: 10,
            weight: 100.0,
        };
        let light = RowItem {
            key: 1,
            desired: 50,
            width: 10,
            weight: 1.0,
        };
        let placed = place_row(&[heavy, light], Interval::new(0, 200), 0, 1).unwrap();
        let x_heavy = placed.iter().find(|&&(k, _)| k == 0).unwrap().1;
        // Weighted optimum ~49.9; the heavy cell barely moves.
        assert!((x_heavy - 50).abs() <= 1, "heavy at {x_heavy}");
    }

    #[test]
    fn empty_input_is_empty_output() {
        assert_eq!(place_row(&[], Interval::new(0, 10), 0, 1).unwrap(), vec![]);
    }

    proptest! {
        /// Any feasible input yields a legal, overlap-free, site-aligned
        /// packing containing every cell.
        #[test]
        fn always_legal(
            widths in proptest::collection::vec(1i64..8, 1..20),
            desires in proptest::collection::vec(-50i64..150, 20),
            site in 1i64..4,
        ) {
            let span = Interval::new(0, 160);
            let items: Vec<RowItem> = widths
                .iter()
                .enumerate()
                .map(|(k, &w)| item(k, desires[k], w * site))
                .collect();
            let total: i64 = items.iter().map(|i| i.width).sum();
            prop_assume!(total <= span.len());
            let placed = place_row(&items, span, 0, site).unwrap();
            prop_assert_eq!(placed.len(), items.len());
            assert_legal(&placed, &items, span, 0, site);
        }

        /// Cells keep their left-to-right order by desired position.
        #[test]
        fn order_preserving(
            desires in proptest::collection::vec(0i64..100, 2..10),
        ) {
            let span = Interval::new(0, 200);
            let items: Vec<RowItem> = desires
                .iter()
                .enumerate()
                .map(|(k, &d)| item(k, d, 5))
                .collect();
            let placed = place_row(&items, span, 0, 1).unwrap();
            let mut by_key: Vec<(i64, i64)> = placed
                .iter()
                .map(|&(k, x)| (items[k].desired, x))
                .collect();
            by_key.sort();
            // Sorted by desired => positions must be non-decreasing.
            for w in by_key.windows(2) {
                prop_assert!(w[0].1 <= w[1].1 || w[0].0 == w[1].0);
            }
        }
    }
}

/// Row-legalization algorithm choice (paper §III-D: "many well-known
/// row-based placement algorithms \[4], \[27], \[28] can be used").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowAlgo {
    /// Abacus clustering: optimal for *weighted quadratic* movement
    /// (Spindler et al. \[4]) — the paper's choice.
    #[default]
    AbacusQuadratic,
    /// Isotonic L1 regression (pool-adjacent-violators with weighted
    /// medians): optimal for *weighted absolute* movement with the cell
    /// order fixed — matching the displacement objective (Eq. 4) exactly,
    /// in the spirit of the optimal linear placements of Kahng, Tucker
    /// and Zelikovsky \[27].
    IsotonicL1,
}

/// [`place_row`] with an explicit algorithm choice.
///
/// # Errors
///
/// Same as [`place_row`].
// flow3d-tidy: allow(dead-pub) — facade API (flow3d::core) for embedders that drive the legalizer below the Legalizer trait
pub fn place_row_with(
    algo: RowAlgo,
    items: &[RowItem],
    span: Interval,
    origin: i64,
    site: i64,
) -> Result<Vec<(usize, i64)>, PlaceRowError> {
    match algo {
        RowAlgo::AbacusQuadratic => place_row(items, span, origin, site),
        RowAlgo::IsotonicL1 => place_row_l1(items, span, origin, site),
    }
}

/// One PAVA block: a run of cells sharing the same shifted position.
#[derive(Debug, Clone)]
struct L1Block {
    /// (shifted target, weight) of each member, kept sorted by target.
    members: Vec<(i64, f64)>,
    /// Current optimum: the weighted median of `members`.
    y: i64,
    /// Index of the first item of the block.
    first: usize,
}

impl L1Block {
    fn weighted_median(&self) -> i64 {
        let total: f64 = self.members.iter().map(|&(_, w)| w).sum();
        let mut acc = 0.0;
        for &(t, w) in &self.members {
            acc += w;
            if acc * 2.0 >= total {
                return t;
            }
        }
        self.members.last().map(|&(t, _)| t).unwrap_or(0)
    }
}

/// Places `items` in `span` with minimal weighted *absolute* displacement
/// for the order fixed by the desired positions: isotonic L1 regression
/// on shifted targets via pool-adjacent-violators, weighted medians per
/// block, then the same site snapping as [`place_row`].
///
/// # Errors
///
/// [`PlaceRowError`] when the cells do not fit.
///
/// # Panics
///
/// Panics if `site <= 0` or the span is off the site grid (as
/// [`place_row`]).
fn place_row_l1(
    items: &[RowItem],
    span: Interval,
    origin: i64,
    site: i64,
) -> Result<Vec<(usize, i64)>, PlaceRowError> {
    assert!(site > 0, "non-positive site width");
    assert_eq!(
        (span.lo - origin).rem_euclid(site),
        0,
        "segment start off the site grid"
    );
    let total_width: i64 = items.iter().map(|i| i.width).sum();
    if total_width > span.len() {
        return Err(PlaceRowError {
            total_width,
            segment_width: span.len(),
        });
    }
    if items.is_empty() {
        return Ok(Vec::new());
    }

    let mut sorted: Vec<RowItem> = items.to_vec();
    sorted.sort_by_key(|i| (i.desired, i.key));

    // Shift out the packing: y_i = x_i − prefix_i must be nondecreasing.
    let mut prefix = 0i64;
    let mut targets = Vec::with_capacity(sorted.len());
    for item in &sorted {
        targets.push(item.desired - prefix);
        prefix += item.width;
    }

    // PAVA with weighted medians.
    let mut blocks: Vec<L1Block> = Vec::with_capacity(sorted.len());
    for (idx, (&t, item)) in targets.iter().zip(&sorted).enumerate() {
        let mut block = L1Block {
            members: vec![(t, item.weight)],
            y: t,
            first: idx,
        };
        while blocks.last().is_some_and(|prev| prev.y > block.y) {
            let Some(prev) = blocks.pop() else { break };
            let mut members = prev.members;
            members.extend(block.members);
            members.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
            block = L1Block {
                y: 0, // recomputed below
                first: prev.first,
                members,
            };
            block.y = block.weighted_median();
        }
        blocks.push(block);
    }

    // Back to positions, clamped into the feasible window; the clip of an
    // isotonic solution stays optimal under box constraints.
    let y_lo = span.lo;
    let y_hi = span.hi - total_width;
    let mut positions: Vec<i64> = Vec::with_capacity(sorted.len());
    {
        let mut prefix = 0i64;
        for (bi, block) in blocks.iter().enumerate() {
            let last = blocks
                .get(bi + 1)
                .map(|nb| nb.first)
                .unwrap_or(sorted.len());
            let y = block.y.clamp(y_lo, y_hi);
            for item in &sorted[block.first..last] {
                positions.push(y + prefix);
                prefix += item.width;
            }
        }
    }

    // Site snapping + overlap fix (forward then backward), as in
    // `place_row`.
    let mut prev_end = span.lo;
    for (i, item) in sorted.iter().enumerate() {
        let snapped = flow3d_geom::snap_nearest(positions[i], origin, site)
            .clamp(span.lo, span.hi - item.width);
        positions[i] = snapped.max(prev_end);
        prev_end = positions[i] + item.width;
    }
    let mut limit = span.hi;
    for (i, item) in sorted.iter().enumerate().rev() {
        if positions[i] + item.width > limit {
            positions[i] = limit - item.width;
        }
        limit = positions[i];
    }

    Ok(sorted
        .iter()
        .zip(&positions)
        .map(|(item, &x)| (item.key, x))
        .collect())
}

#[cfg(test)]
mod l1_tests {
    use super::*;

    fn item(key: usize, desired: i64, width: i64) -> RowItem {
        RowItem {
            key,
            desired,
            width,
            weight: width as f64,
        }
    }

    fn total_l1(placed: &[(usize, i64)], items: &[RowItem]) -> i64 {
        placed
            .iter()
            .map(|&(k, x)| {
                let it = items.iter().find(|i| i.key == k).unwrap();
                (x - it.desired).abs() * it.width
            })
            .sum()
    }

    #[test]
    fn non_overlapping_cells_stay_put() {
        let items = vec![item(0, 10, 20), item(1, 50, 20)];
        let placed = place_row_l1(&items, Interval::new(0, 100), 0, 1).unwrap();
        assert_eq!(placed, vec![(0, 10), (1, 50)]);
    }

    #[test]
    fn l1_median_beats_l2_mean_on_skewed_cluster() {
        // Three cells contending: two want 10, one wants 100. The L1
        // optimum parks the pair at their desire and pays only for the
        // outlier; the quadratic mean drags everyone.
        let items = vec![item(0, 10, 10), item(1, 10, 10), item(2, 21, 10)];
        let span = Interval::new(0, 200);
        let l1 = place_row_l1(&items, span, 0, 1).unwrap();
        let l2 = place_row(&items, span, 0, 1).unwrap();
        assert!(
            total_l1(&l1, &items) <= total_l1(&l2, &items),
            "L1 {} vs L2 {}",
            total_l1(&l1, &items),
            total_l1(&l2, &items)
        );
    }

    #[test]
    fn l1_result_is_legal_and_ordered() {
        let items = vec![
            item(0, 90, 40),
            item(1, 90, 40),
            item(2, 90, 20),
            item(3, -30, 10),
        ];
        let span = Interval::new(0, 120);
        let placed = place_row_l1(&items, span, 0, 1).unwrap();
        let mut spans: Vec<(i64, i64)> = placed
            .iter()
            .map(|&(k, x)| {
                let w = items.iter().find(|i| i.key == k).unwrap().width;
                assert!(x >= span.lo && x + w <= span.hi);
                (x, x + w)
            })
            .collect();
        spans.sort();
        for w in spans.windows(2) {
            assert!(w[0].1 <= w[1].0);
        }
    }

    #[test]
    fn overflow_is_an_error() {
        let items = vec![item(0, 0, 60), item(1, 0, 60)];
        assert!(place_row_l1(&items, Interval::new(0, 100), 0, 1).is_err());
    }

    #[test]
    fn dispatch_selects_algorithms() {
        let items = vec![item(0, 5, 10)];
        let span = Interval::new(0, 100);
        let a = place_row_with(RowAlgo::AbacusQuadratic, &items, span, 0, 1).unwrap();
        let b = place_row_with(RowAlgo::IsotonicL1, &items, span, 0, 1).unwrap();
        assert_eq!(a, b);
    }

    proptest::proptest! {
        /// On random feasible rows the L1 algorithm never pays more total
        /// weighted-L1 movement than Abacus (before site rounding both are
        /// continuous optima of their objectives; with rounding we allow
        /// a one-site slack per cell).
        #[test]
        fn l1_total_is_never_worse_than_quadratic(
            widths in proptest::collection::vec(1i64..8, 1..14),
            desires in proptest::collection::vec(-40i64..200, 14),
        ) {
            let span = Interval::new(0, 160);
            let items: Vec<RowItem> = widths
                .iter()
                .enumerate()
                .map(|(k, &w)| item(k, desires[k], w))
                .collect();
            let total: i64 = items.iter().map(|i| i.width).sum();
            proptest::prop_assume!(total <= span.len());
            let l1 = place_row_l1(&items, span, 0, 1).unwrap();
            let l2 = place_row(&items, span, 0, 1).unwrap();
            let slack: i64 = items.len() as i64 * 8; // one site-ish per cell
            proptest::prop_assert!(
                total_l1(&l1, &items) <= total_l1(&l2, &items) + slack,
                "L1 {} vs quadratic {}",
                total_l1(&l1, &items),
                total_l1(&l2, &items)
            );
        }
    }
}
