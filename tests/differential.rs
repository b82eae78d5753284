//! Differential test harness for the multi-threaded engine: over a
//! matrix of generated cases × seeds × thread counts, the parallel
//! legalizer must produce a placement *byte-identical* to the serial one
//! (compared on the emitted `legal` file text) and identical
//! `LegalizeStats`. This is the executable form of the determinism
//! contract documented on `flow_pass_threaded`.
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
use flow3d_core::LegalizeStats;

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

/// The case matrix: three seeds of the dense demo, a scaled standard-cell
/// contest case, and a scaled macro-bearing contest case.
fn cases() -> Vec<Case> {
    let mut out: Vec<Case> = [1u64, 7, 42]
        .iter()
        .map(|&seed| {
            gen_case(
                &format!("small_demo({seed})"),
                GeneratorConfig::small_demo(seed),
            )
        })
        .collect();
    let mut c2022 = GeneratorConfig::iccad2022("case2").unwrap();
    c2022.scale = 0.2;
    out.push(gen_case("iccad2022_case2@0.2", c2022));
    let mut c2023 = GeneratorConfig::iccad2023("case2").unwrap();
    c2023.scale = 0.1;
    out.push(gen_case("iccad2023_case2@0.1", c2023));
    out
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
        let (serial_bytes, serial_stats) = run(&case, cfg.clone(), 1);
        for threads in THREAD_COUNTS {
            let (bytes, stats) = run(&case, cfg.clone(), threads);
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
