#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Reference legalizers the paper compares 3D-Flow against.
//!
//! All three are 2D legalizers: the die assignment is fixed up front by
//! the shared nearest-die partition
//! ([`flow3d_core::assign::partition_dies`]) and never changes — exactly
//! how the paper describes SOTA true-3D placers using 2D legalization
//! (§I). Each die is then legalized independently:
//!
//! * [`TetrisLegalizer`] — Hill's greedy: cells in ascending x order, each
//!   placed at the nearest free position scanning rows outward.
//! * [`AbacusLegalizer`] — Spindler et al.: like Tetris, but each trial
//!   row rearranges its already-placed cells with the quadratic-optimal
//!   `PlaceRow` clustering, and the cheapest row wins.
//! * [`BonnLegalizer`] — Brenner's iterative augmentation: the same
//!   flow formulation as 3D-Flow, but per-die (no D2D edges), with edge
//!   costs clamped non-negative and true Dijkstra searches (relaxation
//!   allowed, the first absorbing bin popped ending the path).
//!
//! # Examples
//!
//! ```
//! use flow3d_baselines::TetrisLegalizer;
//! use flow3d_core::Legalizer;
//! use flow3d_gen::GeneratorConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let case = GeneratorConfig::small_demo(3).generate()?;
//! let outcome = TetrisLegalizer::default().legalize(&case.design, &case.natural)?;
//! assert!(flow3d_metrics::check_legal(&case.design, &outcome.placement).is_legal());
//! # Ok(())
//! # }
//! ```

mod abacus;
mod bonn;
mod tetris;

pub use abacus::AbacusLegalizer;
pub use bonn::BonnLegalizer;
pub use tetris::TetrisLegalizer;

#[cfg(test)]
mod tests {
    use super::*;
    use flow3d_core::{Flow3dLegalizer, Legalizer};
    use flow3d_gen::GeneratorConfig;
    use flow3d_metrics::{check_legal, displacement_stats};

    /// All four legalizers produce legal placements on the same generated
    /// case, and the flow-based ones do not lose to Tetris on average
    /// displacement.
    #[test]
    fn all_legalizers_agree_on_legality() {
        let case = GeneratorConfig::small_demo(42).generate().unwrap();
        let legalizers: Vec<Box<dyn Legalizer>> = vec![
            Box::new(TetrisLegalizer::default()),
            Box::new(AbacusLegalizer::default()),
            Box::new(BonnLegalizer::default()),
            Box::new(Flow3dLegalizer::default()),
        ];
        let mut avg = Vec::new();
        for lg in &legalizers {
            let outcome = lg.legalize(&case.design, &case.natural).unwrap();
            let report = check_legal(&case.design, &outcome.placement);
            assert!(report.is_legal(), "{}: {report}", lg.name());
            let stats = displacement_stats(&case.design, &case.natural, &outcome.placement);
            avg.push((lg.name().to_string(), stats.avg));
        }
        let tetris = avg[0].1;
        let flow3d = avg[3].1;
        assert!(
            flow3d <= tetris * 1.05,
            "3d-flow ({flow3d:.3}) should not lose to tetris ({tetris:.3})"
        );
    }
}
