//! Integration tests for the observability hooks: the instrumented run
//! must agree with the plain run and with its own always-on counters.

use flow3d_core::{CellMove, EcoEngine, Flow3dConfig, Flow3dLegalizer, Legalizer};
use flow3d_db::{CellId, Design, DesignBuilder, DieSpec, LibCellSpec, Placement3d, TechnologySpec};
use flow3d_geom::FPoint;
use flow3d_obs::{keys, Profile, RunReport};

/// A dense clump that forces real flow work (augmenting paths, several
/// bins, post-optimization candidates).
fn dense_case(n: usize) -> (Design, Placement3d) {
    let mut b = DesignBuilder::new("obs-test")
        .technology(TechnologySpec::new("TA").lib_cell(LibCellSpec::std_cell("W40", 40, 12)))
        .technology(TechnologySpec::new("TB").lib_cell(LibCellSpec::std_cell("W40", 30, 16)))
        .die(DieSpec::new("bottom", "TA", (0, 0, 800, 48), 12, 1, 1.0))
        .die(DieSpec::new("top", "TB", (0, 0, 800, 48), 16, 1, 1.0));
    for i in 0..n {
        b = b.cell(format!("u{i}"), "W40");
    }
    let design = b.build().unwrap();
    let mut gp = Placement3d::new(n);
    for i in 0..n {
        let c = CellId::new(i);
        gp.set_pos(c, FPoint::new(100.0 + (i % 7) as f64 * 13.0, 6.0));
        gp.set_die_affinity(c, if i % 4 == 0 { 0.6 } else { 0.2 });
    }
    (design, gp)
}

#[test]
fn observed_run_matches_plain_run() {
    let (design, gp) = dense_case(30);
    let lg = Flow3dLegalizer::default();
    let plain = lg.legalize(&design, &gp).unwrap();
    let mut profile = Profile::new();
    let observed = lg
        .legalize_observed(&design, &gp, Some(&mut profile))
        .unwrap();
    assert_eq!(plain.placement, observed.placement);
    assert_eq!(plain.stats, observed.stats);
}

#[test]
fn phase_durations_nest_and_sum_consistently() {
    let (design, gp) = dense_case(30);
    let mut profile = Profile::new();
    Flow3dLegalizer::default()
        .legalize_observed(&design, &gp, Some(&mut profile))
        .unwrap();

    let top = profile.phase("legalize").expect("top-level phase");
    assert_eq!(top.calls, 1);
    assert!(top.total <= profile.total_elapsed());

    // Direct children of "legalize" can never account for more time than
    // the scope that contains them.
    let child_sum: std::time::Duration = profile
        .phases()
        .filter(|(path, _)| {
            path.starts_with("legalize/") && !path["legalize/".len()..].contains('/')
        })
        .map(|(_, stats)| stats.total)
        .sum();
    assert!(
        child_sum <= top.total,
        "children {child_sum:?} exceed parent {:?}",
        top.total
    );

    // The pipeline phases the paper's Algorithm 2 names must all appear.
    for phase in [
        "legalize/grid_build",
        "legalize/flow_pass",
        "legalize/placerow",
        "legalize/post_opt",
    ] {
        assert!(profile.phase(phase).is_some(), "missing phase {phase}");
    }
    assert!(profile.phases().count() >= 4);
}

#[test]
fn counters_match_always_on_stats() {
    let (design, gp) = dense_case(30);
    let mut profile = Profile::new();
    let outcome = Flow3dLegalizer::default()
        .legalize_observed(&design, &gp, Some(&mut profile))
        .unwrap();

    let counters = profile.counters();
    assert_eq!(
        counters.get(keys::CELLS_MOVED),
        outcome.stats.cells_moved as u64
    );
    assert_eq!(
        counters.get(keys::AUGMENTING_PATHS),
        outcome.stats.augmentations as u64
    );
    assert_eq!(
        counters.get(keys::NODES_EXPANDED),
        outcome.stats.nodes_expanded as u64
    );
    assert_eq!(
        counters.get(keys::FALLBACK_MOVES),
        outcome.stats.fallback_moves as u64
    );
    assert!(counters.get(keys::NODES_EXPANDED) > 0);
    assert!(counters.get(keys::CELLS_MOVED) > 0);
    assert!(counters.get(keys::PLACEROW_CALLS) > 0);
}

#[test]
fn run_report_round_trips_through_json() {
    let (design, gp) = dense_case(30);
    let mut profile = Profile::new();
    Flow3dLegalizer::default()
        .legalize_observed(&design, &gp, Some(&mut profile))
        .unwrap();
    let report = RunReport::from_profile("obs-test", "3d-flow", &profile);
    assert!(report.phases.len() >= 4);
    let parsed = RunReport::from_json(&report.to_json()).unwrap();
    assert_eq!(parsed, report);
}

#[test]
fn no_post_opt_config_omits_post_opt_phase() {
    let (design, gp) = dense_case(30);
    let mut profile = Profile::new();
    Flow3dLegalizer::new(Flow3dConfig {
        post_opt: false,
        ..Default::default()
    })
    .legalize_observed(&design, &gp, Some(&mut profile))
    .unwrap();
    assert!(profile.phase("legalize/post_opt").is_none());
    assert!(profile.phase("legalize/flow_pass").is_some());
}

/// Heatmap count plus an FNV-1a fold of every grid's name, shape and
/// cell bit patterns, in capture order.
fn heatmap_digest(profile: &Profile) -> (usize, u64) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |x: u64| h = (h ^ x).wrapping_mul(0x0100_0000_01b3);
    for m in profile.heatmaps() {
        for b in m.name.bytes() {
            fold(b as u64);
        }
        fold(m.rows as u64);
        fold(m.cols as u64);
        for v in &m.values {
            fold(v.to_bits());
        }
    }
    (profile.heatmaps().len(), h)
}

/// Heatmap capture is opt-in: an observed run without
/// `enable_heatmaps` records none, and an armed run records exactly the
/// grids heatmaps were always captured with (digests pinned from the
/// capture-always implementation). Arming changes nothing else.
#[test]
fn heatmaps_are_captured_only_when_armed() {
    let (design, gp) = dense_case(30);
    let lg = Flow3dLegalizer::default();
    let mut plain = Profile::new();
    let unarmed = lg
        .legalize_observed(&design, &gp, Some(&mut plain))
        .unwrap();
    assert!(plain.heatmaps().is_empty());
    let mut armed = Profile::new();
    armed.enable_heatmaps();
    let outcome = lg
        .legalize_observed(&design, &gp, Some(&mut armed))
        .unwrap();
    assert_eq!(unarmed.placement, outcome.placement);
    assert_eq!(plain.counters(), armed.counters());
    assert_eq!(heatmap_digest(&armed), (16, 15997393158955639427));
    assert_eq!(armed.heatmaps()[0].name, "flow_pass0/die0/supply");
    assert_eq!(armed.heatmaps()[15].name, "flow_pass1/die1/moves");

    let onto = outcome.placement.pos(CellId::new(6));
    let moves: Vec<CellMove> = (0..5)
        .map(|i| CellMove {
            cell: CellId::new(i),
            target: onto,
            die: None,
        })
        .collect();
    let mut engine = EcoEngine::new(Flow3dConfig::default(), design, outcome.placement).unwrap();
    let mut plain = Profile::new();
    let unarmed = engine.eco_observed(&moves, Some(&mut plain)).unwrap();
    assert!(plain.heatmaps().is_empty());
    let mut armed = Profile::new();
    armed.enable_heatmaps();
    let eco = engine.eco_observed(&moves, Some(&mut armed)).unwrap();
    assert_eq!(unarmed.placement, eco.placement);
    assert_eq!(heatmap_digest(&armed), (8, 6153720398901328967));
}
