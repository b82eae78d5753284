//! Configuration of the 3D-Flow legalizer.

use crate::placerow::RowAlgo;

/// Tunable parameters of [`Flow3dLegalizer`](crate::Flow3dLegalizer).
///
/// The defaults are the paper's settings: `α = 0.1`, flow-phase bin width
/// `10·w̄_c`, post-optimization bin width `5·w̄_c`, D2D movement and
/// cycle-canceling post-optimization enabled.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow3dConfig {
    /// Branch-and-bound slack `α ≥ 0` (§III-B): branches costlier than
    /// `(1 + α)·cost(p_best)` are pruned. `0` degenerates to greedy
    /// search; `f64::INFINITY` explores the full tree.
    pub alpha: f64,
    /// Flow-phase bin width as a multiple of the mean cell width (§III-F).
    pub bin_width_factor: f64,
    /// Post-optimization bin width as a multiple of the mean cell width.
    pub post_bin_width_factor: f64,
    /// Allow die-to-die cell movement (disable for the Table V ablation).
    pub allow_d2d: bool,
    /// Apply the Eq. (7) congestion term `sup(v) − dem(v)` on D2D edges.
    pub d2d_congestion_cost: bool,
    /// Run the cycle-canceling post-optimization (§III-E).
    pub post_opt: bool,
    /// Maximum post-optimization passes; each pass stops early when the
    /// maximum displacement no longer improves.
    pub post_passes: usize,
    /// Row-legalization algorithm (§III-D): the paper's Abacus clustering
    /// or the L1-optimal isotonic variant.
    pub row_algo: RowAlgo,
    /// Worker threads for the parallel phases (flow-pass search batches,
    /// per-segment `PlaceRow`). `0` means auto: the `FLOW3D_THREADS`
    /// environment variable if set, otherwise all available cores (see
    /// [`flow3d_par::resolve_threads`]). The legalizer's output is
    /// bit-identical for every thread count — the searches of one batch
    /// run against a frozen state snapshot and their results are applied
    /// in a fixed order (see [`crate::driver::flow_pass_threaded`]) — so
    /// this knob trades wall-clock only, never quality or reproducibility.
    pub threads: usize,
    /// Read cell geometry through the flat [`SoaView`](flow3d_db::SoaView)
    /// columns instead of chasing the `Design` id maps. Pure data-layout
    /// choice: the view copies its values out of the design, so the
    /// output is bit-identical either way (enforced by
    /// `tests/soa_equivalence.rs`); disable only to benchmark the layout
    /// or as the differential-testing reference path.
    pub soa_view: bool,
}

impl Default for Flow3dConfig {
    fn default() -> Self {
        Self {
            alpha: 0.1,
            bin_width_factor: 10.0,
            post_bin_width_factor: 5.0,
            allow_d2d: true,
            d2d_congestion_cost: true,
            post_opt: true,
            post_passes: 3,
            row_algo: RowAlgo::default(),
            threads: 0,
            soa_view: true,
        }
    }
}

impl Flow3dConfig {
    /// The paper's Table V ablation: 3D-Flow restricted to 2D movement
    /// (no die-to-die edges); everything else unchanged.
    pub fn without_d2d() -> Self {
        Self {
            allow_d2d: false,
            ..Self::default()
        }
    }

    /// Greedy variant (`α = 0`): only strictly improving branches are
    /// explored.
    pub fn greedy() -> Self {
        Self {
            alpha: 0.0,
            ..Self::default()
        }
    }

    /// Exhaustive variant (`α = ∞`): the full search tree is explored.
    pub fn exhaustive() -> Self {
        Self {
            alpha: f64::INFINITY,
            ..Self::default()
        }
    }

    /// Default settings with an explicit worker-pool size (`0` = auto).
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_settings() {
        let c = Flow3dConfig::default();
        assert_eq!(c.alpha, 0.1);
        assert_eq!(c.bin_width_factor, 10.0);
        assert_eq!(c.post_bin_width_factor, 5.0);
        assert!(c.allow_d2d);
        assert!(c.post_opt);
        assert_eq!(c.threads, 0, "default is auto-sized");
        assert!(c.soa_view, "SoA layout is pure caching, on by default");
    }

    #[test]
    fn with_threads_changes_only_the_pool_size() {
        let c = Flow3dConfig::with_threads(4);
        assert_eq!(c.threads, 4);
        let d = Flow3dConfig {
            threads: 0,
            ..c.clone()
        };
        assert_eq!(d, Flow3dConfig::default());
    }

    #[test]
    fn ablation_presets() {
        assert!(!Flow3dConfig::without_d2d().allow_d2d);
        assert_eq!(Flow3dConfig::greedy().alpha, 0.0);
        assert!(Flow3dConfig::exhaustive().alpha.is_infinite());
    }
}
