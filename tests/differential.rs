//! Differential test harness for the multi-threaded engine: over a
//! matrix of generated cases × seeds × thread counts, the parallel
//! legalizer must produce a placement *byte-identical* to the serial one
//! (compared on the emitted `legal` file text) and identical
//! `LegalizeStats`. This is the executable form of the determinism
//! contract documented on `flow3d_core::driver::flow_pass`.
//!
//! It is also the repository's perf gate. The paper measures 3D-Flow's
//! cost as work (expanded nodes, augmenting paths, cell moves) and its
//! result as displacement; both are bit-exact on any machine and at any
//! thread count, so [`PINS`] holds them exactly: one line per matrix
//! case, one for a pin-only case whose output depends on the tabu window
//! and the reduction tie-break, one resident-engine ECO row, and one row
//! per baseline legalizer (Tetris, Abacus, Bonn) on one matrix case.
//! Wall-clock is left to the repository benchmark (`BENCHMARK.json`).
//!
//! Regression note (flow3d-tidy D1): this matrix only catches an
//! iteration-order bug when the hash seed cooperates, so the contract is
//! *also* enforced statically — `cargo run -p flow3d-lint` rejects
//! `HashMap`/`HashSet` in the deterministic crates outright. The
//! straddling-cell dedup in `crates/core/src/driver.rs` and the name
//! interners in `crates/db`/`crates/io` were migrated to B-tree
//! collections under that lint; if either ever regresses to hashing,
//! the tidy gate fails before this harness has a chance to flake.

use flow3d::prelude::*;
use flow3d_core::{CellMove, EcoEngine, LegalizeStats};
use flow3d_obs::hist_keys;
use std::sync::OnceLock;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// One generated instance: the design plus its global placement.
struct Case {
    label: String,
    design: flow3d::db::Design,
    global: flow3d::db::Placement3d,
}

fn gen_case(label: &str, cfg: GeneratorConfig) -> Case {
    let generated = cfg.generate().expect("case generation failed");
    let global =
        GlobalPlacer::new(GpConfig::default()).place_from(&generated.design, &generated.natural);
    Case {
        label: label.to_string(),
        design: generated.design,
        global,
    }
}

/// A contest or million-family preset at `scale`, labeled `<name>@<scale>`.
fn scaled_case(preset: Option<GeneratorConfig>, scale: f64) -> Case {
    let mut cfg = preset.expect("known preset");
    cfg.scale = scale;
    gen_case(&format!("{}@{scale}", cfg.name), cfg)
}

/// The case matrix, generated once per test binary: three seeds of the
/// dense demo, a scaled standard-cell contest case, a scaled
/// macro-bearing contest case, and a 5,000-cell cut of the million
/// family's `m1h` (a small input whose flow pass needs teleport-fallback
/// moves and hundreds of ping-pong tabus).
fn cases() -> &'static [Case] {
    static CASES: OnceLock<Vec<Case>> = OnceLock::new();
    CASES.get_or_init(|| {
        let mut out: Vec<Case> = [1u64, 7, 42]
            .iter()
            .map(|&seed| {
                gen_case(
                    &format!("small_demo({seed})"),
                    GeneratorConfig::small_demo(seed),
                )
            })
            .collect();
        out.push(scaled_case(GeneratorConfig::iccad2022("case2"), 0.2));
        out.push(scaled_case(GeneratorConfig::iccad2023("case2"), 0.1));
        out.push(scaled_case(GeneratorConfig::million("m1h"), 0.005));
        out
    })
}

/// Serializes a legal placement to its on-disk text form — the
/// byte-comparison domain of this harness.
fn legal_bytes(design: &flow3d::db::Design, placement: &flow3d::db::LegalPlacement) -> String {
    let mut text = String::new();
    flow3d::io::write_legal(design, placement, &mut text).expect("serialize legal placement");
    text
}

fn run(case: &Case, mut cfg: Flow3dConfig, threads: usize) -> (String, LegalizeStats) {
    cfg.threads = threads;
    let outcome = Flow3dLegalizer::new(cfg)
        .legalize(&case.design, &case.global)
        .unwrap_or_else(|e| panic!("{}: legalization failed: {e}", case.label));
    let report = check_legal(&case.design, &outcome.placement);
    assert!(report.is_legal(), "{}: {report}", case.label);
    (legal_bytes(&case.design, &outcome.placement), outcome.stats)
}

fn assert_matrix(cfg_label: &str, cfg: Flow3dConfig) {
    for case in cases() {
        let (serial_bytes, serial_stats) = run(case, cfg.clone(), 1);
        for threads in THREAD_COUNTS {
            let (bytes, stats) = run(case, cfg.clone(), threads);
            assert_eq!(
                bytes, serial_bytes,
                "{} [{cfg_label}]: placement differs at threads={threads}",
                case.label
            );
            assert_eq!(
                stats, serial_stats,
                "{} [{cfg_label}]: stats differ at threads={threads}",
                case.label
            );
        }
    }
}

#[test]
fn parallel_output_is_byte_identical_to_serial() {
    assert_matrix("default", Flow3dConfig::default());
}

#[test]
fn parallel_output_is_byte_identical_without_d2d() {
    assert_matrix("no-d2d", Flow3dConfig::without_d2d());
}

/// Everything the telemetry layer reports — phase paths and call
/// counts, counters, histogram contents, heatmap grids — must be
/// identical for every worker count, not just the placement bytes.
/// Histograms are recorded coordinator-side in deterministic order and
/// counter/histogram registries are name-sorted, so even float sums and
/// iteration order are thread-count invariant.
#[test]
fn telemetry_is_invariant_under_thread_count() {
    for case in cases() {
        let collect = |threads: usize| {
            let mut profile = flow3d_obs::Profile::new();
            profile.enable_heatmaps();
            let cfg = Flow3dConfig {
                threads,
                ..Default::default()
            };
            Flow3dLegalizer::new(cfg)
                .legalize_observed(&case.design, &case.global, Some(&mut profile))
                .unwrap_or_else(|e| panic!("{}: legalization failed: {e}", case.label));
            let phases: Vec<(String, u64)> = profile
                .phases()
                .map(|(p, s)| (p.to_string(), s.calls))
                .collect();
            let counters: Vec<(String, u64)> = profile
                .counters()
                .iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            // Bucket counts, extremes, and the (deterministically
            // accumulated) float sum, per name-sorted histogram.
            let hists: Vec<(String, Vec<u64>, u64, [u64; 3])> = profile
                .hists()
                .iter()
                .map(|(name, h)| {
                    let s = h.summary();
                    (
                        name.to_string(),
                        h.bucket_counts().to_vec(),
                        h.count(),
                        [s.sum.to_bits(), s.min.to_bits(), s.max.to_bits()],
                    )
                })
                .collect();
            // NaN cells make `Vec<f64>` inequal to itself; compare grids
            // by bit pattern instead.
            let heatmaps: Vec<(String, usize, usize, Vec<u64>)> = profile
                .heatmaps()
                .iter()
                .map(|h| {
                    (
                        h.name.clone(),
                        h.rows,
                        h.cols,
                        h.values.iter().map(|v| v.to_bits()).collect(),
                    )
                })
                .collect();
            (phases, counters, hists, heatmaps)
        };
        let serial = collect(1);
        assert!(
            !serial.2.is_empty() && !serial.3.is_empty(),
            "{}: expected histograms and heatmaps in the serial profile",
            case.label
        );
        for threads in THREAD_COUNTS {
            assert_eq!(
                collect(threads),
                serial,
                "{}: telemetry differs at threads={threads}",
                case.label
            );
        }
    }
}

#[test]
fn auto_thread_resolution_matches_serial() {
    // threads = 0 resolves to FLOW3D_THREADS / available parallelism —
    // whatever it picks on this machine, the result must equal serial.
    let case = gen_case("small_demo(5)", GeneratorConfig::small_demo(5));
    let (serial_bytes, serial_stats) = run(&case, Flow3dConfig::default(), 1);
    let (auto_bytes, auto_stats) = run(&case, Flow3dConfig::default(), 0);
    assert_eq!(auto_bytes, serial_bytes);
    assert_eq!(auto_stats, serial_stats);
}

/// FNV-1a over a file's bytes: the hash `crates/gen/tests/golden.rs` pins
/// generated cases with.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One pinned row: the legal file's FNV-1a hash, every counter, every
/// phase path's call count, and the displacement histogram's count, sum
/// and max, as space-separated `key=value` tokens in sections split by
/// `|`.
fn pin_line(legal: &str, profile: &Profile) -> String {
    let mut line = format!("legal={:016x} |", fnv1a(legal));
    for (name, value) in profile.counters().iter() {
        line += &format!(" {name}={value}");
    }
    line += " |";
    for (path, stats) in profile.phases() {
        line += &format!(" {path}={}", stats.calls);
    }
    if let Some(disp) = profile.hists().get(hist_keys::DISPLACEMENT) {
        let s = disp.summary();
        line += &format!(
            " | disp.count={} disp.sum={} disp.max={}",
            s.count, s.sum, s.max
        );
    }
    line
}

/// The serial legalization of one case, as a [`pin_line`].
fn legalize_pin(case: &Case) -> String {
    let mut profile = Profile::new();
    let cfg = Flow3dConfig {
        threads: 1,
        ..Default::default()
    };
    let outcome = Flow3dLegalizer::new(cfg)
        .legalize_observed(&case.design, &case.global, Some(&mut profile))
        .unwrap_or_else(|e| panic!("{}: legalization failed: {e}", case.label));
    pin_line(&legal_bytes(&case.design, &outcome.placement), &profile)
}

/// A baseline's serial legalization of one case, as a [`pin_line`]. The
/// baselines record no displacement histogram, so it is filled here from
/// the placement, the way `Flow3dLegalizer` fills its own.
fn baseline_pin(case: &Case, legalizer: &dyn Legalizer) -> String {
    let label = format!("{} {}", case.label, legalizer.name());
    let mut profile = Profile::new();
    let outcome = legalizer
        .legalize_observed(&case.design, &case.global, Some(&mut profile))
        .unwrap_or_else(|e| panic!("{label}: legalization failed: {e}"));
    let report = check_legal(&case.design, &outcome.placement);
    assert!(report.is_legal(), "{label}: {report}");
    let anchors = flow3d_core::assign::anchors(&case.design, &case.global);
    for (i, &anchor) in anchors.iter().enumerate() {
        let d = outcome.placement.pos(CellId::new(i)).manhattan(anchor);
        profile.record(hist_keys::DISPLACEMENT, d as f64);
    }
    pin_line(&legal_bytes(&case.design, &outcome.placement), &profile)
}

/// The resident-engine row: one ECO on `case`'s legalized base that
/// moves every ⌊n/32⌋-th cell to the bottom die's center, then a commit
/// of its result, whose `CommitStats` close the line.
fn eco_pin(case: &Case, threads: usize) -> String {
    let cfg = Flow3dConfig {
        threads,
        ..Default::default()
    };
    let base = Flow3dLegalizer::new(cfg.clone())
        .legalize(&case.design, &case.global)
        .expect("base legalization")
        .placement;
    let mut engine = EcoEngine::new(cfg, case.design.clone(), base).expect("resident engine");
    let center = case.design.die(DieId::BOTTOM).outline.center();
    let n = case.design.num_cells();
    let moves: Vec<CellMove> = (0..n)
        .step_by((n / 32).max(1))
        .map(|i| CellMove {
            cell: CellId::new(i),
            target: center,
            die: None,
        })
        .collect();
    let mut profile = Profile::new();
    let outcome = engine
        .eco_observed(&moves, Some(&mut profile))
        .expect("eco");
    let report = check_legal(&case.design, &outcome.placement);
    assert!(report.is_legal(), "{}: eco: {report}", case.label);
    let legal = legal_bytes(&case.design, &outcome.placement);
    let commit = engine.commit(outcome.placement).expect("commit");
    format!(
        "{} | reseeded={} total={}",
        pin_line(&legal, &profile),
        commit.reseeded,
        commit.total
    )
}

/// Exact work and output, one [`pin_line`] per row, broken at each `|`
/// across source lines. A row changes only on purpose: paste the `actual`
/// line a failing run prints, and give the reason in CHANGES.md.
const PINS: [(&str, &str); 11] = [
    (
        "small_demo(1)",
        "legal=a96eec4bb793c53b \
         | augmenting_paths=39 branches_pruned=489 branches_pruned_stale=103 cells_moved=197 fallback_moves=0 flow_passes=1 nodes_created=601 nodes_expanded=441 ping_pong_tabus=36 placerow_calls=23 search_retries=12 \
         | legalize=1 legalize/partition=1 legalize/grid_build=1 legalize/assign=1 legalize/flow_pass=1 legalize/flow_pass/search_batch=4 legalize/flow_pass/search_batch/source_search=39 legalize/flow_pass/apply=4 legalize/placerow=1 legalize/placerow/segment=23 legalize/post_opt=1 \
         | disp.count=400 disp.sum=4050 disp.max=29",
    ),
    (
        "small_demo(7)",
        "legal=8c73d18e123fdd5c \
         | augmenting_paths=27 branches_pruned=265 branches_pruned_stale=69 cells_moved=50 fallback_moves=0 flow_passes=1 nodes_created=388 nodes_expanded=296 ping_pong_tabus=6 placerow_calls=22 search_retries=9 \
         | legalize=1 legalize/partition=1 legalize/grid_build=1 legalize/assign=1 legalize/flow_pass=1 legalize/flow_pass/search_batch=4 legalize/flow_pass/search_batch/source_search=27 legalize/flow_pass/apply=4 legalize/placerow=1 legalize/placerow/segment=22 legalize/post_opt=1 \
         | disp.count=400 disp.sum=4741 disp.max=46",
    ),
    (
        "small_demo(42)",
        "legal=4deec4d432b146e7 \
         | augmenting_paths=44 branches_pruned=529 branches_pruned_stale=139 cells_moved=205 fallback_moves=0 flow_passes=1 nodes_created=1014 nodes_expanded=851 ping_pong_tabus=32 placerow_calls=14 search_retries=32 \
         | legalize=1 legalize/partition=1 legalize/grid_build=1 legalize/assign=1 legalize/flow_pass=1 legalize/flow_pass/search_batch=7 legalize/flow_pass/search_batch/source_search=44 legalize/flow_pass/apply=7 legalize/placerow=1 legalize/placerow/segment=14 legalize/post_opt=1 \
         | disp.count=400 disp.sum=5033 disp.max=38",
    ),
    (
        "iccad2022_case2@0.2",
        "legal=45cc3a26bc30be36 \
         | augmenting_paths=36 branches_pruned=510 branches_pruned_stale=78 cells_moved=174 fallback_moves=0 flow_passes=1 nodes_created=701 nodes_expanded=606 ping_pong_tabus=2 placerow_calls=23 search_retries=44 \
         | legalize=1 legalize/partition=1 legalize/grid_build=1 legalize/assign=1 legalize/flow_pass=1 legalize/flow_pass/search_batch=8 legalize/flow_pass/search_batch/source_search=36 legalize/flow_pass/apply=8 legalize/placerow=1 legalize/placerow/segment=23 legalize/post_opt=1 \
         | disp.count=547 disp.sum=162721 disp.max=925",
    ),
    (
        "iccad2023_case2@0.1",
        "legal=e4316b1ae8966b1c \
         | augmenting_paths=151 branches_pruned=2186 branches_pruned_stale=518 cells_moved=913 cycle_relegalizations=1 fallback_moves=0 flow_passes=2 nodes_created=3123 nodes_expanded=2395 ping_pong_tabus=146 placerow_calls=48 search_retries=70 \
         | legalize=1 legalize/partition=1 legalize/grid_build=1 legalize/assign=1 legalize/flow_pass=1 legalize/flow_pass/search_batch=9 legalize/flow_pass/search_batch/source_search=152 legalize/flow_pass/apply=9 legalize/placerow=1 legalize/placerow/segment=42 legalize/post_opt=1 legalize/post_opt/flow_pass=1 legalize/post_opt/flow_pass/source_search=1 legalize/post_opt/flow_pass/apply=1 legalize/post_opt/placerow=1 legalize/post_opt/placerow/segment=6 \
         | disp.count=1390 disp.sum=69183 disp.max=162",
    ),
    (
        "million_m1h@0.005",
        "legal=5b2bfb17bfa60370 \
         | augmenting_paths=363 branches_pruned=6314 branches_pruned_stale=1732 cells_moved=1518 cycle_relegalizations=2 fallback_moves=4 flow_passes=3 nodes_created=7073 nodes_expanded=4979 ping_pong_tabus=246 placerow_calls=117 search_retries=137 \
         | legalize=1 legalize/partition=1 legalize/grid_build=1 legalize/assign=1 legalize/flow_pass=1 legalize/flow_pass/search_batch=8 legalize/flow_pass/search_batch/source_search=357 legalize/flow_pass/apply=8 legalize/placerow=1 legalize/placerow/segment=98 legalize/post_opt=1 legalize/post_opt/flow_pass=2 legalize/post_opt/flow_pass/source_search=10 legalize/post_opt/flow_pass/apply=10 legalize/post_opt/placerow=2 legalize/post_opt/placerow/segment=19 \
         | disp.count=5000 disp.sum=574636 disp.max=556",
    ),
    (
        "iccad2023_case3@0.05",
        "legal=afedae1d21209ef0 \
         | augmenting_paths=417 branches_pruned=5572 branches_pruned_stale=1142 cells_moved=1827 cycle_relegalizations=1 fallback_moves=3 flow_passes=2 nodes_created=6595 nodes_expanded=5047 ping_pong_tabus=288 placerow_calls=113 search_retries=231 \
         | legalize=1 legalize/partition=1 legalize/grid_build=1 legalize/assign=1 legalize/flow_pass=1 legalize/flow_pass/search_batch=10 legalize/flow_pass/search_batch/source_search=422 legalize/flow_pass/apply=10 legalize/placerow=1 legalize/placerow/segment=108 legalize/post_opt=1 legalize/post_opt/flow_pass=1 legalize/post_opt/flow_pass/source_search=1 legalize/post_opt/flow_pass/apply=1 legalize/post_opt/placerow=1 legalize/post_opt/placerow/segment=5 \
         | disp.count=6211 disp.sum=260435 disp.max=236",
    ),
    (
        "iccad2022_case2@0.2 eco+commit",
        "legal=dda2740051244c35 \
         | augmenting_paths=8 branches_pruned=89 branches_pruned_stale=9 cells_moved=3 fallback_moves=0 flow_passes=1 nodes_created=95 nodes_expanded=87 ping_pong_tabus=2 placerow_calls=16 search_retries=5 \
         | eco_seed=1 flow_pass=1 flow_pass/search_batch=4 flow_pass/search_batch/source_search=8 flow_pass/apply=4 placerow=1 placerow/segment=16 \
         | reseeded=61 total=547",
    ),
    (
        "iccad2022_case2@0.2 tetris",
        "legal=fd5f40ffe7343577 \
         | \
         | legalize=1 legalize/partition=1 legalize/pack=1 \
         | disp.count=547 disp.sum=174186 disp.max=1039",
    ),
    (
        "iccad2022_case2@0.2 abacus",
        "legal=37c897211dab5e4e \
         | placerow_calls=24 \
         | legalize=1 legalize/partition=1 legalize/insert=1 legalize/placerow=1 \
         | disp.count=547 disp.sum=170477 disp.max=1435",
    ),
    (
        "iccad2022_case2@0.2 bonn",
        "legal=5e6f46ddfdd7f8bd \
         | augmenting_paths=36 cells_moved=177 fallback_moves=0 nodes_expanded=1076 placerow_calls=23 search_retries=46 \
         | legalize=1 legalize/partition=1 legalize/grid_build=1 legalize/assign=1 legalize/flow_pass=1 legalize/placerow=1 legalize/placerow/segment=23 \
         | disp.count=547 disp.sum=165522 disp.max=1068",
    ),

];

/// The `key=value` tokens of a pin line, in line order.
fn pairs(line: &str) -> Vec<(&str, &str)> {
    line.split_whitespace()
        .filter_map(|t| t.split_once('='))
        .collect()
}

/// The value of `key` among `pairs`, or `-` when it is absent.
fn value<'a>(pairs: &[(&str, &'a str)], key: &str) -> &'a str {
    pairs.iter().find(|p| p.0 == key).map_or("-", |p| p.1)
}

/// The keys whose values differ between two pin lines, in line order, as
/// `key old -> new`.
fn changed(pinned: &str, actual: &str) -> String {
    let (old, new) = (pairs(pinned), pairs(actual));
    let mut diffs: Vec<String> = Vec::new();
    let mut seen: Vec<&str> = Vec::new();
    for &(key, _) in old.iter().chain(&new) {
        let (was, is) = (value(&old, key), value(&new, key));
        if !seen.contains(&key) && was != is {
            diffs.push(format!("{key} {was} -> {is}"));
        }
        seen.push(key);
    }
    diffs.join(", ")
}

#[test]
fn serial_work_and_output_match_the_pins() {
    // Pin-only, kept out of the thread matrix for time: ten flow rounds
    // with fallback moves and tabus, enough for the tabu window length
    // and the `(cost, bin)` reduction tie-break to change its output. No
    // matrix case's output depends on either.
    let extra = scaled_case(GeneratorConfig::iccad2023("case3"), 0.05);
    let cases = cases();
    let mut rows: Vec<(String, String)> = cases
        .iter()
        .chain([&extra])
        .map(|case| (case.label.clone(), legalize_pin(case)))
        .collect();
    let eco_case = &cases[3];
    let eco = eco_pin(eco_case, 1);
    for threads in THREAD_COUNTS {
        assert_eq!(
            eco_pin(eco_case, threads),
            eco,
            "eco row differs at threads={threads}"
        );
    }
    rows.push((format!("{} eco+commit", eco_case.label), eco));
    let baselines: [&dyn Legalizer; 3] = [
        &TetrisLegalizer::default(),
        &AbacusLegalizer::default(),
        &BonnLegalizer::default(),
    ];
    for legalizer in baselines {
        rows.push((
            format!("{} {}", eco_case.label, legalizer.name()),
            baseline_pin(eco_case, legalizer),
        ));
    }
    assert_eq!(rows.len(), PINS.len(), "one pin per row");
    let mut mismatches = String::new();
    for ((label, actual), (pin_label, pinned)) in rows.iter().zip(PINS) {
        assert_eq!(label, pin_label, "pin rows are in case order");
        if actual != pinned {
            mismatches += &format!(
                "\n{label}\n  pinned: {pinned}\n  actual: {actual}\n  changed: {}\n",
                changed(pinned, actual)
            );
        }
    }
    assert!(mismatches.is_empty(), "work pins differ:{mismatches}");
}
