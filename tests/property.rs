//! Property-based end-to-end tests: on arbitrary feasible inputs, every
//! legalizer either returns a *legal* placement or a typed error — never
//! an illegal placement, never a panic — and 3D-Flow is deterministic.

use flow3d::core::{CellMove, EcoEngine};
use flow3d::db::{DesignBuilder, DieSpec, LibCellSpec, Placement3d, TechnologySpec};
use flow3d::prelude::*;
use flow3d_geom::FPoint;
use proptest::prelude::*;
use std::sync::OnceLock;

/// A random design plus global placement: up to 40 cells with widths
/// 10–50 on two 400x40 dies, anchored anywhere (including outside the
/// outline — legalizers must clamp).
fn arb_instance() -> impl Strategy<Value = (Vec<i64>, Vec<(f64, f64, f64)>)> {
    (1usize..40).prop_flat_map(|n| {
        (
            proptest::collection::vec(1i64..=5, n),
            proptest::collection::vec((-50.0f64..450.0, -20.0f64..60.0, 0.0f64..1.0), n),
        )
    })
}

fn build(widths: &[i64], anchors: &[(f64, f64, f64)]) -> (flow3d::db::Design, Placement3d) {
    let mut b = DesignBuilder::new("prop")
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
        let c = flow3d::db::CellId::new(i);
        gp.set_pos(c, FPoint::new(x, y));
        gp.set_die_affinity(c, z);
    }
    (design, gp)
}

/// Shared resident-engine case: 12 cells on two dies, base legalized
/// once. Computed lazily so the proptest cases pay for it a single time.
fn eco_case() -> &'static (flow3d::db::Design, LegalPlacement) {
    static CASE: OnceLock<(flow3d::db::Design, LegalPlacement)> = OnceLock::new();
    CASE.get_or_init(|| {
        let mut b = DesignBuilder::new("eco-prop")
            .technology(TechnologySpec::new("T").lib_cell(LibCellSpec::std_cell("C", 30, 10)))
            .die(DieSpec::new("bottom", "T", (0, 0, 400, 40), 10, 1, 1.0))
            .die(DieSpec::new("top", "T", (0, 0, 400, 40), 10, 1, 1.0));
        for i in 0..12 {
            b = b.cell(format!("u{i}"), "C");
        }
        let design = b.build().unwrap();
        let mut gp = Placement3d::new(12);
        for i in 0..12 {
            gp.set_pos(
                CellId::new(i),
                FPoint::new((i as f64 * 35.0) % 350.0, 10.0 * ((i / 10) as f64)),
            );
        }
        let base = Flow3dLegalizer::default()
            .legalize(&design, &gp)
            .unwrap()
            .placement;
        (design, base)
    })
}

/// Builds batch `k`'s moves from its generated `(mask, onto, flip)`.
/// Batch `k` only ever moves cells `4k..4k+4`, so the three batches of
/// one case are disjoint by construction.
fn batch_moves(
    k: usize,
    mask: u8,
    onto: usize,
    flip: bool,
    base: &LegalPlacement,
) -> Vec<CellMove> {
    let onto = CellId::new(onto);
    (0..4)
        .filter(|bit| mask & (1 << bit) != 0)
        .map(|bit| {
            let die = if flip {
                DieId::new(1 - base.die(onto).index())
            } else {
                base.die(onto)
            };
            CellMove {
                cell: CellId::new(4 * k + bit),
                target: base.pos(onto),
                die: Some(die),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn legalizers_never_emit_illegal_placements(
        (widths, anchors) in arb_instance()
    ) {
        let (design, gp) = build(&widths, &anchors);
        let legalizers: Vec<Box<dyn flow3d_core::Legalizer>> = vec![
            Box::new(TetrisLegalizer::default()),
            Box::new(AbacusLegalizer::default()),
            Box::new(BonnLegalizer::default()),
            Box::new(Flow3dLegalizer::default()),
        ];
        for lg in &legalizers {
            // A typed rejection is acceptable; success must be legal.
            if let Ok(outcome) = lg.legalize(&design, &gp) {
                let report = check_legal(&design, &outcome.placement);
                prop_assert!(report.is_legal(), "{}: {report}", lg.name());
            }
        }
    }

    #[test]
    fn flow3d_is_deterministic_on_random_inputs(
        (widths, anchors) in arb_instance()
    ) {
        let (design, gp) = build(&widths, &anchors);
        let lg = Flow3dLegalizer::default();
        let a = lg.legalize(&design, &gp);
        let b = lg.legalize(&design, &gp);
        match (a, b) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x.placement, y.placement),
            (Err(_), Err(_)) => {}
            _ => prop_assert!(false, "nondeterministic success/failure"),
        }
    }

    #[test]
    fn flow3d_beats_or_matches_its_2d_restriction_on_max_disp(
        (widths, anchors) in arb_instance()
    ) {
        let (design, gp) = build(&widths, &anchors);
        let with = Flow3dLegalizer::default().legalize(&design, &gp);
        let without = Flow3dLegalizer::new(Flow3dConfig::without_d2d()).legalize(&design, &gp);
        if let (Ok(a), Ok(b)) = (with, without) {
            let sa = displacement_stats(&design, &gp, &a.placement);
            let sb = displacement_stats(&design, &gp, &b.placement);
            // 3D moves are heuristic per-case; across the board they must
            // not blow up displacement. Allow generous slack — this guards
            // against regressions like the unclamped Eq. 7 flood.
            prop_assert!(
                sa.avg <= sb.avg * 1.5 + 1.0,
                "3D much worse than 2D: {} vs {}",
                sa.avg,
                sb.avg
            );
        }
    }

    /// The warm-cache generality contract: a resident engine serving a
    /// sequence of *disjoint* ECO batches — nothing in common between
    /// requests, so nothing can be answered by exact replay — returns
    /// placements bit-identical to a cold one-shot `legalize_incremental`
    /// for every batch, at 1 worker thread and at 8.
    #[test]
    fn warm_eco_over_disjoint_batches_matches_cold_engine(
        batches in proptest::collection::vec(
            (0u8..16, 0usize..12, any::<bool>()), 3)
    ) {
        let (design, base) = eco_case();
        let cold = Flow3dLegalizer::default();
        for threads in [1usize, 8] {
            let cfg = Flow3dConfig { threads, ..Flow3dConfig::default() };
            let mut engine =
                EcoEngine::new(cfg, design.clone(), base.clone()).unwrap();
            for (k, &(mask, onto, flip)) in batches.iter().enumerate() {
                let moves = batch_moves(k, mask, onto, flip, base);
                let warm = engine.eco(&moves);
                let one_shot = cold.legalize_incremental(design, base, &moves);
                match (warm, one_shot) {
                    (Ok(w), Ok(c)) => prop_assert_eq!(
                        w.placement, c.placement,
                        "batch {} diverged at {} threads", k, threads
                    ),
                    (Err(_), Err(_)) => {}
                    (w, c) => prop_assert!(
                        false,
                        "warm/cold disagree on success: {:?} vs {:?}",
                        w.is_ok(), c.is_ok()
                    ),
                }
            }
        }
    }
}

/// A macro-pocket design: a full-width wall macro covers row `wall` of
/// the bottom die, so rows below it form a pocket no grid path leaves
/// (there are no die-to-die edges). Every cell is anchored in the pocket
/// and together they overfill it, so only the teleport fallback can
/// legalize the design.
fn pocket_design(
    width: i64,
    rows: i64,
    wall: i64,
    widths: &[i64],
    xs: &[i64],
) -> (flow3d::db::Design, Placement3d) {
    const H: i64 = 12;
    let mut tech = TechnologySpec::new("T").lib_cell(LibCellSpec::macro_cell("WALL", width, H));
    for w in [20, 30, 40] {
        tech = tech.lib_cell(LibCellSpec::std_cell(format!("W{w}"), w, H));
    }
    let mut b = DesignBuilder::new("pocket")
        .technology(tech)
        .die(DieSpec::new(
            "bottom",
            "T",
            (0, 0, width, rows * H),
            H,
            1,
            1.0,
        ))
        .die(DieSpec::new("top", "T", (0, 0, width, rows * H), H, 1, 1.0))
        .macro_inst("wall", "WALL", "bottom", 0, wall * H);
    for (i, &w) in widths.iter().enumerate() {
        b = b.cell(format!("u{i}"), format!("W{w}"));
    }
    let design = b.build().unwrap();
    let mut gp = Placement3d::new(widths.len());
    for (i, &x) in xs.iter().enumerate() {
        let c = flow3d::db::CellId::new(i);
        gp.set_pos(c, FPoint::new(x as f64, ((i as i64 % wall) * H) as f64));
        gp.set_die_affinity(c, 0.0);
    }
    (design, gp)
}

/// Random macro pockets with no augmenting path out: the teleport
/// fallback must produce a legal placement, must actually run, and must
/// keep every displacement within the die's half-perimeter.
#[test]
fn teleport_fallback_output_is_legal_and_bounded() {
    let mut ran = 0usize;
    proptest!(ProptestConfig::with_cases(32), |(
        (width, rows, wall) in (8i64..20, 3i64..7, 1i64..3)
            .prop_map(|(w, r, k)| (w * 20, r, k.min(r - 2))),
        picks in proptest::collection::vec((0usize..3, 0i64..1000), 48),
        extra in 1i64..60,
    )| {
        // Fill the pocket (rows below the wall) past its capacity by
        // `extra` DBU; the rows above the wall have room to spare.
        let pocket = wall * width;
        let mut widths = Vec::new();
        let mut xs = Vec::new();
        let mut total = 0;
        for &(w, x) in &picks {
            if total >= pocket + extra {
                break;
            }
            let w = [20, 30, 40][w];
            widths.push(w);
            xs.push(x % (width - w + 1));
            total += w;
        }
        prop_assume!(total > pocket && total <= (rows - wall - 1) * width / 2 + pocket);
        let (design, gp) = pocket_design(width, rows, wall, &widths, &xs);
        let outcome = Flow3dLegalizer::new(Flow3dConfig::without_d2d())
            .legalize(&design, &gp)
            .expect("room above the wall");
        let report = check_legal(&design, &outcome.placement);
        prop_assert!(report.is_legal(), "{report}");
        prop_assert!(outcome.stats.fallback_moves > 0);
        let half_perimeter = width + rows * 12;
        for i in 0..widths.len() {
            let c = flow3d::db::CellId::new(i);
            let d = outcome.placement.pos(c).manhattan(gp.pos(c).round());
            prop_assert!(d <= half_perimeter, "cell {} moved {} > {}", i, d, half_perimeter);
        }
        ran += 1;
    });
    assert!(ran >= 24, "only {ran}/32 random pockets ran");
}
