//! The 3D grid graph of bins (paper §II-B, Fig. 3).
//!
//! Every macro-free row segment of every die is divided into near-uniform,
//! site-aligned bins. Bins are the flow-network vertices; edges connect
//! horizontally adjacent bins of a segment, vertically adjacent bins of
//! neighbouring rows on the same die (planar edges), and bins with
//! plan-view overlap on adjacent dies (die-to-die edges).

use flow3d_db::{Design, DieId, RowId, RowLayout, SegmentId};
use flow3d_geom::Interval;
use std::fmt;

/// Identifies a bin within a [`BinGrid`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BinId(pub u32);

impl BinId {
    /// Creates an id from a raw index.
    #[inline]
    pub fn new(index: usize) -> Self {
        // flow3d-tidy: allow(panic-unwrap) — id overflow is a capacity bug worth a loud stop, not a recoverable error
        Self(u32::try_from(index).expect("bin id overflow"))
    }

    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BinId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Kind of a grid edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Adjacent bins of the same segment: fractional cell movement allowed.
    Horizontal,
    /// Bins of vertically neighbouring rows on the same die: whole-cell
    /// movement only.
    Vertical,
    /// Bins on different dies with plan-view overlap: whole-cell movement
    /// with width change under heterogeneous technologies.
    DieToDie,
}

/// One bin: a slice of a row segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// flow3d-tidy: allow(dead-pub) — facade API (flow3d::core) for embedders that drive the legalizer below the Legalizer trait
pub struct Bin {
    /// Segment the bin belongs to.
    pub segment: SegmentId,
    /// Die of the bin.
    pub die: DieId,
    /// Row of the bin within the die.
    pub row: RowId,
    /// y of the row's bottom edge.
    pub y: i64,
    /// Horizontal extent; the bin capacity is `span.len()`.
    pub span: Interval,
}

impl Bin {
    /// Free capacity usable by standard cells (the paper's `cap(v) = w_v`).
    #[inline]
    pub fn cap(&self) -> i64 {
        self.span.len()
    }
}

/// The 3D grid graph.
///
/// Adjacency is stored in CSR (compressed sparse row) form: the
/// neighbours of bin `i` are `adj_edges[adj_off[i] .. adj_off[i + 1]]`.
/// One flat edge array plus an offset array replaces the per-bin
/// `Vec<Vec<_>>` of earlier revisions, so the search kernel's inner loop
/// touches two contiguous allocations instead of one heap object per
/// bin. Per-bin neighbour *order* is part of the determinism contract
/// (it drives tie-breaking in the search), so the builder preserves the
/// exact append order of the edge-discovery passes.
#[derive(Debug, Clone)]
pub struct BinGrid {
    bins: Vec<Bin>,
    /// CSR offsets: `bins.len() + 1` entries, monotone non-decreasing.
    adj_off: Vec<u32>,
    /// Packed directed edges, grouped by source bin.
    adj_edges: Vec<(BinId, EdgeKind)>,
    /// Bins of each segment, sorted by x.
    seg_bins: Vec<Vec<BinId>>,
    /// Whether any edge joins two dies.
    has_d2d: bool,
}

impl BinGrid {
    /// Builds the grid over `layout` with per-die nominal bin widths
    /// (`bin_widths[die]`, typically `10·w̄_c` — paper §III-F). Bin
    /// boundaries are site-aligned; each segment gets at least one bin.
    /// `connect_d2d = false` omits the die-to-die edges (Table V
    /// ablation).
    pub fn build(
        design: &Design,
        layout: &RowLayout,
        bin_widths: &[i64],
        connect_d2d: bool,
    ) -> Self {
        assert_eq!(bin_widths.len(), design.num_dies(), "one bin width per die");
        let mut bins = Vec::new();
        let mut seg_bins = vec![Vec::new(); layout.num_segments()];

        for seg in layout.segments() {
            let die = design.die(seg.die);
            let site = die.site_width;
            let len = seg.width();
            let nominal = bin_widths[seg.die.index()].max(site);
            let max_bins = (len / site).max(1);
            let n = ((len as f64 / nominal as f64).round() as i64).clamp(1, max_bins);
            let mut prev = seg.span.lo;
            for i in 1..=n {
                let raw = seg.span.lo + (len * i) / n;
                let hi = if i == n {
                    seg.span.hi
                } else {
                    flow3d_geom::snap_nearest(raw, seg.span.lo, site)
                        .clamp(prev + site, seg.span.hi)
                };
                if hi <= prev {
                    continue;
                }
                let id = BinId::new(bins.len());
                bins.push(Bin {
                    segment: seg.id,
                    die: seg.die,
                    row: seg.row,
                    y: seg.y,
                    span: Interval::new(prev, hi),
                });
                seg_bins[seg.id.index()].push(id);
                prev = hi;
            }
        }

        // Directed edges in discovery order; the stable counting sort
        // below groups them by source bin without reordering any bin's
        // neighbour list.
        let mut edges: Vec<(u32, BinId, EdgeKind)> = Vec::new();
        let push_edge = |a: BinId, b: BinId, kind: EdgeKind, edges: &mut Vec<_>| {
            edges.push((a.0, b, kind));
            edges.push((b.0, a, kind));
        };

        // Horizontal edges: consecutive bins within a segment.
        for ids in &seg_bins {
            for pair in ids.windows(2) {
                push_edge(pair[0], pair[1], EdgeKind::Horizontal, &mut edges);
            }
        }

        // Per (die, row): bins sorted by x (segments are already ordered).
        let mut row_bins: Vec<Vec<Vec<BinId>>> = design
            .dies()
            .iter()
            .map(|d| vec![Vec::new(); d.num_rows()])
            .collect();
        for seg in layout.segments() {
            row_bins[seg.die.index()][seg.row.index()].extend(&seg_bins[seg.id.index()]);
        }

        // Vertical edges: x-overlapping bins of adjacent rows, same die.
        for die_rows in &row_bins {
            for w in die_rows.windows(2) {
                sweep_overlaps(&bins, &w[0], &w[1], EdgeKind::Vertical, &mut edges);
            }
        }

        // Die-to-die edges between adjacent dies of the stack: bins whose
        // plan-view rectangles overlap (x ranges overlap and row y-ranges
        // overlap).
        if connect_d2d {
            for lower in 0..design.num_dies().saturating_sub(1) {
                let upper = lower + 1;
                let h_lo = design.die(DieId::new(lower)).row_height;
                let h_up = design.die(DieId::new(upper)).row_height;
                for (r_lo, bins_lo) in row_bins[lower].iter().enumerate() {
                    if bins_lo.is_empty() {
                        continue;
                    }
                    let y_lo = bins_lo
                        .first()
                        .map(|b| bins[b.index()].y)
                        .unwrap_or_default();
                    let lo_span = Interval::with_len(y_lo, h_lo);
                    for bins_up in row_bins[upper].iter().filter(|r| !r.is_empty()) {
                        let y_up = bins[bins_up[0].index()].y;
                        if !lo_span.overlaps(&Interval::with_len(y_up, h_up)) {
                            continue;
                        }
                        sweep_overlaps(&bins, bins_lo, bins_up, EdgeKind::DieToDie, &mut edges);
                    }
                    let _ = r_lo;
                }
            }
        }

        // Stable counting sort by source bin into the CSR arrays. Edges
        // of one source keep their discovery order, so `neighbors()`
        // returns byte-for-byte the same slices as the old nested-Vec
        // layout did.
        let mut adj_off = vec![0u32; bins.len() + 1];
        for &(src, _, _) in &edges {
            adj_off[src as usize + 1] += 1;
        }
        for i in 0..bins.len() {
            adj_off[i + 1] += adj_off[i];
        }
        let mut cursor: Vec<u32> = adj_off[..bins.len()].to_vec();
        let mut adj_edges = vec![(BinId(0), EdgeKind::Horizontal); edges.len()];
        for &(src, dst, kind) in &edges {
            let pos = cursor[src as usize] as usize;
            adj_edges[pos] = (dst, kind);
            cursor[src as usize] += 1;
        }

        let has_d2d = edges.iter().any(|e| e.2 == EdgeKind::DieToDie);
        Self {
            bins,
            adj_off,
            adj_edges,
            seg_bins,
            has_d2d,
        }
    }

    /// All bins, indexed by [`BinId`].
    pub fn bins(&self) -> &[Bin] {
        &self.bins
    }

    /// Number of bins.
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// The bin with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn bin(&self, id: BinId) -> &Bin {
        &self.bins[id.index()]
    }

    /// Neighbours of `id` with the connecting edge kind (a CSR slice of
    /// the packed edge array).
    #[inline]
    pub fn neighbors(&self, id: BinId) -> &[(BinId, EdgeKind)] {
        let lo = self.adj_off[id.index()] as usize;
        let hi = self.adj_off[id.index() + 1] as usize;
        &self.adj_edges[lo..hi]
    }

    /// Number of directed edges.
    pub(crate) fn num_edges(&self) -> usize {
        self.adj_edges.len()
    }

    /// Id of the first edge out of `id`: the edge to `neighbors(id)[j]`
    /// has id `first_edge(id) + j`, below [`num_edges`](Self::num_edges).
    #[inline]
    pub(crate) fn first_edge(&self, id: BinId) -> usize {
        self.adj_off[id.index()] as usize
    }

    /// Id of the directed edge `from -> to`, if the grid has one. Every
    /// bin pair is joined by at most one edge per direction.
    pub(crate) fn edge_between(&self, from: BinId, to: BinId) -> Option<usize> {
        self.neighbors(from)
            .iter()
            .position(|&(b, _)| b == to)
            .map(|j| self.first_edge(from) + j)
    }

    /// Whether any edge joins two dies: `connect_d2d` was set and some
    /// rows of adjacent dies overlap.
    pub(crate) fn has_d2d(&self) -> bool {
        self.has_d2d
    }

    /// Bins of `segment`, sorted by x.
    pub fn bins_in_segment(&self, segment: SegmentId) -> &[BinId] {
        &self.seg_bins[segment.index()]
    }

    /// The bin of `segment` containing `x` (clamped to the segment's
    /// extent).
    ///
    /// # Panics
    ///
    /// Panics if the segment has no bins (cannot happen for grids built by
    /// [`build`](Self::build)).
    pub fn bin_at(&self, segment: SegmentId, x: i64) -> BinId {
        let ids = &self.seg_bins[segment.index()];
        assert!(!ids.is_empty(), "segment without bins");
        let pos = ids.partition_point(|&b| self.bins[b.index()].span.hi <= x);
        ids[pos.min(ids.len() - 1)]
    }

    /// Number of edges of each kind `(horizontal, vertical, d2d)`; each
    /// undirected edge is counted once.
    pub fn edge_counts(&self) -> (usize, usize, usize) {
        let mut counts = (0usize, 0usize, 0usize);
        for i in 0..self.bins.len() {
            for &(to, kind) in self.neighbors(BinId::new(i)) {
                if to.index() > i {
                    match kind {
                        EdgeKind::Horizontal => counts.0 += 1,
                        EdgeKind::Vertical => counts.1 += 1,
                        EdgeKind::DieToDie => counts.2 += 1,
                    }
                }
            }
        }
        counts
    }
}

/// Adds `kind` edges between every x-overlapping pair from two x-sorted
/// bin lists (two-pointer sweep). Both directions of each edge are
/// appended as the overlap is discovered — the append order is the
/// per-bin neighbour order after the CSR counting sort.
fn sweep_overlaps(
    bins: &[Bin],
    a: &[BinId],
    b: &[BinId],
    kind: EdgeKind,
    edges: &mut Vec<(u32, BinId, EdgeKind)>,
) {
    let mut j = 0;
    for &ba in a {
        let sa = bins[ba.index()].span;
        while j < b.len() && bins[b[j].index()].span.hi <= sa.lo {
            j += 1;
        }
        let mut k = j;
        while k < b.len() && bins[b[k].index()].span.lo < sa.hi {
            let bb = b[k];
            if sa.overlaps(&bins[bb.index()].span) {
                edges.push((ba.0, bb, kind));
                edges.push((bb.0, ba, kind));
            }
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flow3d_db::{DesignBuilder, DieSpec, LibCellSpec, TechnologySpec};

    fn design(with_macro: bool) -> Design {
        let mut b = DesignBuilder::new("t")
            .technology(
                TechnologySpec::new("T")
                    .lib_cell(LibCellSpec::std_cell("INV", 10, 12))
                    .lib_cell(LibCellSpec::macro_cell("RAM", 200, 24)),
            )
            .die(DieSpec::new("bottom", "T", (0, 0, 1000, 48), 12, 2, 1.0))
            .die(DieSpec::new("top", "T", (0, 0, 1000, 48), 16, 2, 1.0));
        if with_macro {
            b = b.macro_inst("ram0", "RAM", "bottom", 400, 0);
        }
        b.build().unwrap()
    }

    fn grid(with_macro: bool, bw: i64, d2d: bool) -> (Design, RowLayout, BinGrid) {
        let d = design(with_macro);
        let layout = RowLayout::build(&d);
        let g = BinGrid::build(&d, &layout, &[bw, bw], d2d);
        (d, layout, g)
    }

    #[test]
    fn bins_tile_each_segment_exactly() {
        let (_, layout, g) = grid(true, 100, true);
        for seg in layout.segments() {
            let ids = g.bins_in_segment(seg.id);
            assert!(!ids.is_empty());
            assert_eq!(g.bin(ids[0]).span.lo, seg.span.lo);
            assert_eq!(g.bin(*ids.last().unwrap()).span.hi, seg.span.hi);
            for pair in ids.windows(2) {
                assert_eq!(g.bin(pair[0]).span.hi, g.bin(pair[1]).span.lo);
            }
            let total: i64 = ids.iter().map(|&b| g.bin(b).cap()).sum();
            assert_eq!(total, seg.width());
        }
    }

    #[test]
    fn bin_boundaries_are_site_aligned() {
        let (d, _, g) = grid(true, 100, true);
        for bin in g.bins() {
            let die = d.die(bin.die);
            assert_eq!((bin.span.lo - die.outline.xlo) % die.site_width, 0);
        }
    }

    #[test]
    fn nominal_width_respected_approximately() {
        let (_, _, g) = grid(false, 100, false);
        for bin in g.bins() {
            assert!(bin.cap() >= 50 && bin.cap() <= 200, "bin cap {}", bin.cap());
        }
    }

    #[test]
    fn tiny_bin_width_clamps_to_site_granularity() {
        let (_, layout, g) = grid(false, 1, false);
        // Site width 2: bins can be as narrow as one site but never zero.
        for bin in g.bins() {
            assert!(bin.cap() >= 2);
        }
        for seg in layout.segments() {
            let total: i64 = g
                .bins_in_segment(seg.id)
                .iter()
                .map(|&b| g.bin(b).cap())
                .sum();
            assert_eq!(total, seg.width());
        }
    }

    #[test]
    fn horizontal_edges_stay_within_segments() {
        let (_, _, g) = grid(true, 100, true);
        for (i, nbrs) in (0..g.num_bins()).map(|i| (i, g.neighbors(BinId::new(i)))) {
            for &(to, kind) in nbrs {
                let a = g.bin(BinId::new(i));
                let b = g.bin(to);
                match kind {
                    EdgeKind::Horizontal => {
                        assert_eq!(a.segment, b.segment);
                        assert!(a.span.hi == b.span.lo || b.span.hi == a.span.lo);
                    }
                    EdgeKind::Vertical => {
                        assert_eq!(a.die, b.die);
                        assert_eq!((a.row.index() as i64 - b.row.index() as i64).abs(), 1);
                        assert!(a.span.overlaps(&b.span));
                    }
                    EdgeKind::DieToDie => {
                        assert_ne!(a.die, b.die);
                        assert!(a.span.overlaps(&b.span));
                    }
                }
            }
        }
    }

    #[test]
    fn macro_blocks_vertical_adjacency_but_not_around() {
        let (_, _, g) = grid(true, 100, true);
        let (h, v, d2d) = g.edge_counts();
        assert!(h > 0);
        assert!(v > 0);
        assert!(d2d > 0);
        assert!(g.has_d2d());
    }

    #[test]
    fn d2d_edges_absent_when_disabled() {
        let (_, _, g) = grid(true, 100, false);
        let (_, _, d2d) = g.edge_counts();
        assert_eq!(d2d, 0);
        assert!(!g.has_d2d());
    }

    #[test]
    fn d2d_edges_respect_row_y_overlap() {
        // Bottom rows (h=12) at y 0,12,24,36; top rows (h=16) at y 0,16,32.
        // Bottom row 0 [0,12) overlaps top row 0 [0,16) only.
        let (_, _, g) = grid(false, 100, true);
        for (i, nbrs) in (0..g.num_bins()).map(|i| (i, g.neighbors(BinId::new(i)))) {
            let a = g.bin(BinId::new(i));
            for &(to, kind) in nbrs {
                if kind == EdgeKind::DieToDie {
                    let b = g.bin(to);
                    let (lo, up) = if a.die.index() == 0 { (a, b) } else { (b, a) };
                    let lo_span = Interval::with_len(lo.y, 12);
                    let up_span = Interval::with_len(up.y, 16);
                    assert!(lo_span.overlaps(&up_span), "{lo:?} vs {up:?}");
                }
            }
        }
    }

    #[test]
    fn bin_at_locates_and_clamps() {
        let (_, layout, g) = grid(false, 100, false);
        let seg = layout.segments()[0].id;
        let first = g.bins_in_segment(seg)[0];
        let last = *g.bins_in_segment(seg).last().unwrap();
        assert_eq!(g.bin_at(seg, -50), first);
        assert_eq!(g.bin_at(seg, 5000), last);
        let mid = g.bin_at(seg, 150);
        assert!(g.bin(mid).span.contains_point(150));
    }

    #[test]
    fn csr_neighbour_order_groups_kinds_by_discovery_pass() {
        // The builder discovers horizontal edges first, then vertical,
        // then die-to-die, and the CSR counting sort is stable — so every
        // bin's neighbour list must be grouped in that kind order. The
        // search kernel's tie-breaking depends on this order staying put.
        let (_, _, g) = grid(true, 100, true);
        let rank = |k: EdgeKind| match k {
            EdgeKind::Horizontal => 0,
            EdgeKind::Vertical => 1,
            EdgeKind::DieToDie => 2,
        };
        let mut total = 0usize;
        for i in 0..g.num_bins() {
            let nbrs = g.neighbors(BinId::new(i));
            total += nbrs.len();
            for pair in nbrs.windows(2) {
                assert!(
                    rank(pair[0].1) <= rank(pair[1].1),
                    "bin {i}: neighbour kinds out of discovery order: {nbrs:?}"
                );
            }
        }
        let (h, v, d2d) = g.edge_counts();
        assert_eq!(
            total,
            2 * (h + v + d2d),
            "CSR slices must cover every directed edge once"
        );
    }

    #[test]
    fn adjacency_is_symmetric() {
        let (_, _, g) = grid(true, 100, true);
        for i in 0..g.num_bins() {
            for &(to, kind) in g.neighbors(BinId::new(i)) {
                assert!(
                    g.neighbors(to)
                        .iter()
                        .any(|&(back, k)| back == BinId::new(i) && k == kind),
                    "edge {i} -> {to} not mirrored"
                );
            }
        }
    }

    #[test]
    fn edge_ids_name_each_directed_bin_pair_once() {
        let (_, _, g) = grid(true, 100, true);
        let mut seen = vec![false; g.num_edges()];
        for i in 0..g.num_bins() {
            let from = BinId::new(i);
            for &(to, _) in g.neighbors(from) {
                let edge = g.edge_between(from, to).unwrap();
                assert_eq!(g.neighbors(from)[edge - g.first_edge(from)].0, to);
                assert!(!seen[edge], "two edges {from} -> {to}");
                seen[edge] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }
}
