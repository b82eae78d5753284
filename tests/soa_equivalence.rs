//! Width-column battery. A [`Design`] keeps every cell's width on every
//! die in one flat die-major column, which the legalizer's hot path reads
//! through [`Design::cell_width`]. These tests check that column against
//! the library tables it is built from, on designs from both
//! constructors, and check that the legalizer's output — legal file
//! bytes and stats — is the same at 1 and 8 worker threads, for batch
//! and ECO runs on heterogeneous stacks.
//!
//! The test names are pinned by the repository's test lists; each doc
//! comment says what its test checks.

use flow3d::db::{
    CellId, Design, DesignBuilder, DieId, DieSpec, LibCellSpec, Placement3d, TechnologySpec,
};
use flow3d::prelude::*;
use flow3d_geom::FPoint;
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 2] = [1, 8];

/// A random heterogeneous instance: up to 40 cells with widths 10–50 on
/// two 400x40 dies with different techs, anchored anywhere (including
/// outside the outline).
fn arb_instance() -> impl Strategy<Value = (Vec<i64>, Vec<(f64, f64, f64)>)> {
    (1usize..40).prop_flat_map(|n| {
        (
            proptest::collection::vec(1i64..=5, n),
            proptest::collection::vec((-50.0f64..450.0, -20.0f64..60.0, 0.0f64..1.0), n),
        )
    })
}

fn build(widths: &[i64], anchors: &[(f64, f64, f64)]) -> (Design, Placement3d) {
    let mut b = DesignBuilder::new("soa_prop")
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

/// Every `(cell, die)` entry of the width column against the library
/// width of the cell's lib cell in the die's technology.
fn column_matches_library(design: &Design) -> Result<(), String> {
    for d in 0..design.num_dies() {
        let die = DieId::new(d);
        for c in 0..design.num_cells() {
            let cell = CellId::new(c);
            let want = design.lib_cell_on(design.cell(cell).lib_cell, die).width;
            let got = design.cell_width(cell, die);
            if got != want {
                return Err(format!("cell {c} on die {d}: column {got}, library {want}"));
            }
        }
    }
    Ok(())
}

fn legal_bytes(design: &Design, placement: &flow3d::db::LegalPlacement) -> String {
    let mut text = String::new();
    flow3d::io::write_legal(design, placement, &mut text).expect("serialize legal placement");
    text
}

/// Legalizes at the given thread count, returning the byte-comparison
/// domain (legal file text + stats).
fn run(
    design: &Design,
    gp: &Placement3d,
    threads: usize,
) -> Option<(String, flow3d_core::LegalizeStats)> {
    let cfg = Flow3dConfig {
        threads,
        ..Default::default()
    };
    // A typed rejection is fine — but every thread count must agree on it.
    Flow3dLegalizer::new(cfg)
        .legalize(design, gp)
        .ok()
        .map(|o| (legal_bytes(design, &o.placement), o.stats))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The width column equals the library width of every cell on every
    /// die, for a design from `DesignBuilder::build` and for the same
    /// design written as a case file and streamed back through
    /// `parse_case_reader` (`Design::from_resolved`).
    #[test]
    fn soa_view_round_trips_against_design(
        (widths, anchors) in arb_instance()
    ) {
        let (design, _) = build(&widths, &anchors);
        prop_assert_eq!(column_matches_library(&design), Ok(()));

        let mut text = String::new();
        flow3d::io::write_case(&design, &mut text).unwrap();
        let read = flow3d::io::parse_case_reader(text.as_bytes()).unwrap();
        prop_assert_eq!(column_matches_library(&read), Ok(()));
        prop_assert_eq!(read.num_cells(), design.num_cells());
        for d in 0..design.num_dies() {
            for c in 0..design.num_cells() {
                let (cell, die) = (CellId::new(c), DieId::new(d));
                prop_assert_eq!(read.cell_width(cell, die), design.cell_width(cell, die));
            }
        }
    }

    /// Random heterogeneous instances legalize to the same bytes and
    /// stats (or the same rejection) at 1 and 8 threads.
    #[test]
    fn soa_path_is_bit_identical_to_idmap_path(
        (widths, anchors) in arb_instance()
    ) {
        let (design, gp) = build(&widths, &anchors);
        let outcomes: Vec<_> = THREAD_COUNTS.iter().map(|&t| run(&design, &gp, t)).collect();
        prop_assert_eq!(&outcomes[0], &outcomes[1], "outcome depends on the thread count");
    }
}

/// Generated cases, homogeneous and heterogeneous, legalize to the same
/// bytes and stats at 1 and 8 threads.
#[test]
fn soa_path_matches_idmap_on_generated_cases() {
    let mut cases = vec![("small_demo(5)", GeneratorConfig::small_demo(5))];
    let mut c2022 = GeneratorConfig::iccad2022("case2").unwrap();
    c2022.scale = 0.1;
    cases.push(("iccad2022_case2@0.1", c2022));
    let mut c2023 = GeneratorConfig::iccad2023("case2").unwrap();
    c2023.scale = 0.05;
    cases.push(("iccad2023_case2@0.05", c2023));

    for (label, cfg) in cases {
        let generated = cfg.generate().expect("generation failed");
        let design = &generated.design;
        assert_eq!(column_matches_library(design), Ok(()), "{label}");
        let gp = GlobalPlacer::new(GpConfig::default()).place_from(design, &generated.natural);
        let outcomes: Vec<_> = THREAD_COUNTS.iter().map(|&t| run(design, &gp, t)).collect();
        assert!(outcomes[0].is_some(), "{label}: legalization failed");
        assert_eq!(outcomes[0], outcomes[1], "{label}: thread counts diverge");
    }
}

/// An ECO on a heterogeneous generated case gives the same bytes and
/// stats at 1 and 8 threads.
#[test]
fn eco_path_is_layout_blind() {
    let generated = GeneratorConfig::small_demo(11)
        .generate()
        .expect("generation failed");
    let design = generated.design;
    let gp = GlobalPlacer::new(GpConfig::default()).place_from(&design, &generated.natural);
    let base = Flow3dLegalizer::default()
        .legalize(&design, &gp)
        .expect("base legalization")
        .placement;
    let center = design.die(DieId::BOTTOM).outline.center();
    let moves: Vec<flow3d_core::CellMove> = (0..design.num_cells())
        .step_by(7)
        .map(|i| {
            let cell = CellId::new(i);
            let p = base.pos(cell);
            flow3d_core::CellMove {
                cell,
                target: flow3d_geom::Point::new((p.x + center.x) / 2, (p.y + center.y) / 2),
                die: None,
            }
        })
        .collect();

    let mut outcomes = Vec::new();
    for threads in THREAD_COUNTS {
        let lg = Flow3dLegalizer::new(Flow3dConfig::with_threads(threads));
        let out = lg
            .legalize_incremental(&design, &base, &moves)
            .expect("incremental legalization");
        assert!(check_legal(&design, &out.placement).is_legal());
        outcomes.push((legal_bytes(&design, &out.placement), out.stats));
    }
    assert_eq!(
        outcomes[0], outcomes[1],
        "ECO outcome depends on the thread count"
    );
}
