//! Fixed-bucket, mergeable histograms: [`Histogram`] accumulates a
//! value distribution into a fixed set of buckets; [`HistogramSet`] is
//! the named registry embedded in a [`Profile`](crate::Profile).
//!
//! Bucket bounds are fixed at construction, so two histograms with the
//! same bounds merge by adding counts — the merge is associative,
//! commutative, and (because every scalar field is an exact sum, min,
//! or max) bit-deterministic regardless of grouping. That is the same
//! contract `Profile::merge_nested` gives phase timings, and it is what
//! lets per-worker histograms fold into the coordinator's profile
//! without any thread-count-dependent drift.

use std::fmt;

/// Well-known histogram names recorded by the legalization pipeline.
///
/// Like [`counters::keys`](crate::counters::keys), these exist to keep
/// producer and consumer spellings in sync; the registry accepts any
/// name.
pub mod keys {
    /// Per-cell Manhattan displacement between the global anchor and the
    /// final legal position, in database units.
    pub const DISPLACEMENT: &str = "cell_displacement";
    /// Search-tree nodes expanded per source search (one sample per
    /// overflowed source bin per round).
    pub const SEARCH_NODES: &str = "search_nodes_per_source";
    /// Steps in each *applied* augmenting path.
    pub const SEARCH_DEPTH: &str = "search_path_depth";
    /// Cells per non-empty PlaceRow segment placed (see
    /// [`PLACEROW_CALLS`](crate::keys::PLACEROW_CALLS)).
    pub const SEGMENT_CELLS: &str = "placerow_segment_cells";
    /// End-to-end serve-mode request latency in microseconds (admission
    /// to response), one sample per request; recorded by `flow3d-serve`
    /// into its server-level profile and surfaced by the `stats`
    /// request.
    pub const SERVE_REQUEST_MICROS: &str = "serve_request_micros";
}

/// Default bucket upper bounds: powers of two from 1 to 2²³.
///
/// One set of bounds serves every pipeline histogram: displacements in
/// DBU, node counts, and path depths all live comfortably inside
/// `[0, 8·10⁶)`, and sharing bounds means any two pipeline histograms
/// are merge-compatible by construction.
// flow3d-tidy: allow(dead-pub) — telemetry schema (flow3d::obs) consumed by downstream report tooling
pub const DEFAULT_POW2_BOUNDS: [f64; 24] = [
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0, 4096.0, 8192.0,
    16384.0, 32768.0, 65536.0, 131072.0, 262144.0, 524288.0, 1048576.0, 2097152.0, 4194304.0,
    8388608.0,
];

/// Summary statistics extracted from a histogram (the `RunReport`
/// surface of the distribution).
#[derive(Debug, Clone, Copy, PartialEq)]
// flow3d-tidy: allow(dead-pub) — telemetry schema (flow3d::obs) consumed by downstream report tooling
pub struct HistSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Exact sum of all samples (recorded values, not bucket midpoints).
    pub sum: f64,
    /// Smallest recorded sample.
    pub min: f64,
    /// Largest recorded sample.
    pub max: f64,
    /// Estimated 50th percentile (exact at the extremes, interpolated
    /// within a bucket otherwise).
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

impl HistSummary {
    /// Mean of the recorded samples (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A fixed-bucket histogram over `f64` samples.
///
/// `bounds` is a strictly increasing sequence of bucket upper bounds;
/// bucket `i` covers `[bounds[i-1], bounds[i])` with an underflow bucket
/// below `bounds[0]` and an overflow bucket at or above the last bound.
/// Exact `count`/`sum`/`min`/`max` are tracked alongside the buckets, so
/// summaries report true extremes even though quantiles interpolate.
///
/// ```
/// use flow3d_obs::Histogram;
///
/// let mut h = Histogram::pow2();
/// for v in [1.0, 3.0, 3.0, 100.0] {
///     h.record(v);
/// }
/// let s = h.summary();
/// assert_eq!(s.count, 4);
/// assert_eq!(s.max, 100.0);
/// assert!(s.p50 >= 1.0 && s.p50 <= 100.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// `bounds.len() + 1` buckets, overflow last.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::pow2()
    }
}

impl Histogram {
    /// A histogram with the shared power-of-two bounds
    /// ([`DEFAULT_POW2_BOUNDS`]).
    pub fn pow2() -> Self {
        Self::with_bounds(DEFAULT_POW2_BOUNDS.to_vec())
    }

    /// A histogram with custom bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn with_bounds(bounds: Vec<f64>) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let buckets = bounds.len() + 1;
        Self {
            bounds,
            counts: vec![0; buckets],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket upper bounds this histogram was built with.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket sample counts (underflow first, overflow last;
    /// `bounds().len() + 1` entries).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Records one sample.
    pub fn record(&mut self, value: f64) {
        // partition_point gives the number of bounds <= value, which is
        // exactly the bucket index for [bounds[i-1], bounds[i]).
        let bucket = self.bounds.partition_point(|b| *b <= value);
        self.counts[bucket] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Adds every sample of `other` into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different bounds — merging
    /// incompatible buckets would silently corrupt the distribution.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bucket bounds"
        );
        for (dst, src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Estimated quantile `q in [0, 1]` via linear interpolation inside
    /// the bucket holding the target rank, clamped to the observed
    /// `[min, max]`. Returns `NaN` for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let target = q * self.count as f64;
        let mut acc = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = acc + c as f64;
            if next >= target {
                let lo = if i == 0 {
                    self.min
                } else {
                    self.bounds[i - 1].max(self.min)
                };
                let hi = if i == self.bounds.len() {
                    self.max
                } else {
                    self.bounds[i].min(self.max)
                };
                let hi = hi.max(lo);
                let frac = if c == 0 {
                    0.0
                } else {
                    ((target - acc) / c as f64).clamp(0.0, 1.0)
                };
                return lo + (hi - lo) * frac;
            }
            acc = next;
        }
        self.max
    }

    /// Snapshot of count/sum/min/max and the p50/p90/p99 quantiles.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

impl fmt::Display for Histogram {
    /// `count=N sum=S min=M max=X p50=.. p90=.. p99=..` on one line.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.summary();
        write!(
            f,
            "count={} sum={} min={} max={} p50={} p90={} p99={}",
            s.count, s.sum, s.min, s.max, s.p50, s.p90, s.p99
        )
    }
}

/// A name-sorted registry of histograms.
///
/// Entries are kept sorted by name at all times, so the iteration order
/// — and therefore every serialized report — is independent of the
/// order in which threads first touched each histogram. (Compare
/// [`CounterSet`](crate::CounterSet), which shares the same sorted-key
/// policy for the same determinism reason.)
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSet {
    entries: Vec<(String, Histogram)>,
}

impl HistogramSet {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `value` into the named histogram, creating it with the
    /// shared power-of-two bounds on first touch.
    pub fn record(&mut self, name: &str, value: f64) {
        self.entry(name).record(value);
    }

    /// The named histogram, created with default bounds if absent.
    pub fn entry(&mut self, name: &str) -> &mut Histogram {
        let idx = match self.entries.binary_search_by(|(k, _)| k.as_str().cmp(name)) {
            Ok(i) => i,
            Err(i) => {
                self.entries
                    .insert(i, (name.to_string(), Histogram::pow2()));
                i
            }
        };
        &mut self.entries[idx].1
    }

    /// Inserts (or replaces) a histogram under `name` — for custom
    /// bounds.
    pub fn insert(&mut self, name: &str, hist: Histogram) {
        match self.entries.binary_search_by(|(k, _)| k.as_str().cmp(name)) {
            Ok(i) => self.entries[i].1 = hist,
            Err(i) => self.entries.insert(i, (name.to_string(), hist)),
        }
    }

    /// The named histogram, if it has been touched.
    pub fn get(&self, name: &str) -> Option<&Histogram> {
        self.entries
            .binary_search_by(|(k, _)| k.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].1)
    }

    /// Merges every histogram of `other` into `self` (see
    /// [`Histogram::merge`] for the bounds requirement).
    pub fn merge(&mut self, other: &HistogramSet) {
        for (name, hist) in &other.entries {
            match self.entries.binary_search_by(|(k, _)| k.as_str().cmp(name)) {
                Ok(i) => self.entries[i].1.merge(hist),
                Err(i) => self.entries.insert(i, (name.clone(), hist.clone())),
            }
        }
    }

    /// Iterates over `(name, histogram)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.entries.iter().map(|(k, h)| (k.as_str(), h))
    }

    /// Number of distinct histograms touched.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no histogram has been touched.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_places_samples_in_half_open_buckets() {
        let mut h = Histogram::with_bounds(vec![1.0, 10.0, 100.0]);
        for v in [0.5, 1.0, 5.0, 9.999, 10.0, 100.0, 1e9] {
            h.record(v);
        }
        // (-inf,1) [1,10) [10,100) [100,inf)
        assert_eq!(h.bucket_counts(), [1, 3, 1, 2]);
        assert_eq!(h.count(), 7);
        assert_eq!(h.summary().min, 0.5);
        assert_eq!(h.summary().max, 1e9);
    }

    #[test]
    fn empty_histogram_summary_is_nan() {
        let s = Histogram::pow2().summary();
        assert_eq!(s.count, 0);
        assert!(s.p50.is_nan());
        assert!(s.mean().is_nan());
    }

    #[test]
    fn single_sample_quantiles_collapse_to_it() {
        let mut h = Histogram::pow2();
        h.record(42.0);
        let s = h.summary();
        assert_eq!(s.p50, 42.0);
        assert_eq!(s.p99, 42.0);
        assert_eq!(s.min, 42.0);
        assert_eq!(s.max, 42.0);
    }

    #[test]
    fn quantiles_are_monotone_and_bounded_by_extremes() {
        let mut h = Histogram::pow2();
        for i in 0..1000 {
            h.record(i as f64);
        }
        let s = h.summary();
        assert!(s.min <= s.p50 && s.p50 <= s.p90 && s.p90 <= s.p99 && s.p99 <= s.max);
        // Roughly the right ballpark for a uniform distribution.
        assert!((s.p50 - 500.0).abs() < 260.0, "p50 = {}", s.p50);
        assert!(s.p99 > 900.0, "p99 = {}", s.p99);
    }

    #[test]
    fn merge_equals_recording_serially() {
        let mut a = Histogram::pow2();
        let mut b = Histogram::pow2();
        let mut serial = Histogram::pow2();
        for i in 0..100 {
            let v = (i * 37 % 91) as f64;
            if i % 2 == 0 { &mut a } else { &mut b }.record(v);
            serial.record(v);
        }
        a.merge(&b);
        assert_eq!(a.bucket_counts(), serial.bucket_counts());
        assert_eq!(a.count(), serial.count());
        assert_eq!(a.summary().min, serial.summary().min);
        assert_eq!(a.summary().max, serial.summary().max);
    }

    #[test]
    #[should_panic(expected = "different bucket bounds")]
    fn merging_different_bounds_panics() {
        let mut a = Histogram::with_bounds(vec![1.0, 2.0]);
        let b = Histogram::with_bounds(vec![1.0, 3.0]);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_increasing_bounds_panic() {
        Histogram::with_bounds(vec![1.0, 1.0]);
    }

    #[test]
    fn set_iterates_in_name_order_regardless_of_touch_order() {
        let mut s = HistogramSet::new();
        s.record("zeta", 1.0);
        s.record("alpha", 2.0);
        s.record("mid", 3.0);
        s.record("zeta", 4.0);
        let names: Vec<&str> = s.iter().map(|(k, _)| k).collect();
        assert_eq!(names, ["alpha", "mid", "zeta"]);
        assert_eq!(s.get("zeta").unwrap().count(), 2);
        assert!(s.get("nope").is_none());
    }

    #[test]
    fn set_merge_unions_and_accumulates() {
        let mut a = HistogramSet::new();
        a.record("x", 1.0);
        let mut b = HistogramSet::new();
        b.record("x", 2.0);
        b.record("y", 3.0);
        a.merge(&b);
        assert_eq!(a.get("x").unwrap().count(), 2);
        assert_eq!(a.get("y").unwrap().count(), 1);
        let names: Vec<&str> = a.iter().map(|(k, _)| k).collect();
        assert_eq!(names, ["x", "y"]);
    }
}
