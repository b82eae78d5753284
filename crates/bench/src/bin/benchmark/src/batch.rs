//! Batch workloads: repeated `flow3d legalize`-equivalent jobs.
//!
//! A job streams the case file, reads the global-placement file,
//! legalizes with one engine thread, computes displacement and ΔHPWL,
//! and writes the legal file — the same calls the CLI makes. Set-up
//! (generate, global-place, write the input files) is repeated as
//! [`crate::repeat_setup`] says and never reused across runs. After the timed
//! loop every output is read back, parsed and checked for legality, and
//! every job must have written the same bytes.

use crate::spans::Recorder;
use crate::stats::median;
use crate::{latency_note, peak_rss_mib, repeat_setup, reset_peak_rss, CaseSpec, Report, RunOpts};
use flow3d_core::{Flow3dConfig, Flow3dLegalizer, Legalizer};
use flow3d_db::{Design, LegalPlacement};
use flow3d_metrics::{check_legal, delta_hpwl_pct, displacement_stats};
use flow3d_obs::{keys, Profile, RunReport};
use std::fs::{self, File};
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The input files of a job.
pub struct Inputs {
    pub case: PathBuf,
    pub gp: PathBuf,
}

/// Generates the case, places it globally and writes both files.
fn setup(spec: CaseSpec, dir: &Path) -> Result<Inputs, String> {
    let generated = spec.generate()?;
    let global = flow3d_gp::GlobalPlacer::new(flow3d_gp::GpConfig::default())
        .place_from(&generated.design, &generated.natural);
    let inputs = Inputs {
        case: dir.join("case.txt"),
        gp: dir.join("gp.txt"),
    };
    let mut text = String::new();
    flow3d_io::write_case(&generated.design, &mut text).map_err(|e| e.to_string())?;
    write(&inputs.case, &text)?;
    text.clear();
    flow3d_io::write_placement3d(&generated.design, &global, &mut text)
        .map_err(|e| e.to_string())?;
    write(&inputs.gp, &text)?;
    Ok(inputs)
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read(path: &Path) -> Result<String, String> {
    fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Quality of one job's output, in rows (displacement) and percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quality {
    avg: f64,
    max: f64,
    dhpwl: f64,
}

impl Quality {
    pub fn report(self, report: &mut Report, n: usize) {
        report.set("avg_disp_rows", self.avg, n);
        report.set("max_disp_rows", self.max, n);
        report.set("dhpwl_pct", self.dhpwl, n);
    }
}

/// What one job measured.
pub struct Job {
    pub seconds: f64,
    pub quality: Quality,
    /// Per-layer values of a traced job.
    pub layers: Vec<(&'static str, f64)>,
}

/// One job; with `rec` it also records spans and per-layer values.
/// Returns the design and the legal placement as well, for a caller that
/// goes on from them.
pub fn job(
    inputs: &Inputs,
    out: &Path,
    rec: Option<&mut Recorder>,
    req: u64,
) -> Result<(Job, Design, LegalPlacement), String> {
    let legalizer = Flow3dLegalizer::new(Flow3dConfig {
        threads: 1,
        ..Default::default()
    });
    let mut profile = rec.is_some().then(|| {
        let mut p = Profile::new();
        p.enable_tracing();
        p
    });
    let t0 = Instant::now();
    let file = File::open(&inputs.case).map_err(|e| format!("{}: {e}", inputs.case.display()))?;
    let design = flow3d_io::parse_case_reader(BufReader::new(file)).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let global =
        flow3d_io::parse_placement3d(&design, &read(&inputs.gp)?).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let outcome = legalizer
        .legalize_observed(&design, &global, profile.as_mut())
        .map_err(|e| e.to_string())?;
    let t3 = Instant::now();
    let stats = displacement_stats(&design, &global, &outcome.placement);
    let dhpwl = delta_hpwl_pct(&design, &global, &outcome.placement);
    let t4 = Instant::now();
    let mut text = String::new();
    flow3d_io::write_legal(&design, &outcome.placement, &mut text).map_err(|e| e.to_string())?;
    write(out, &text)?;
    let t5 = Instant::now();

    let mut layers = Vec::new();
    if let (Some(rec), Some(profile)) = (rec, &profile) {
        let job = rec.push("job", req, None, t0, t5);
        rec.push("io.read_case", req, Some(job), t0, t1);
        rec.push("io.read_gp", req, Some(job), t1, t2);
        let legalize = rec.push("core.legalize_observed", req, Some(job), t2, t3);
        rec.import_profile(profile, legalize);
        rec.push("metrics.quality", req, Some(job), t3, t4);
        rec.push("io.write_legal", req, Some(job), t4, t5);
        let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
        layers = vec![
            ("io.read_case_s", secs(t0, t1)),
            ("io.read_gp_s", secs(t1, t2)),
            ("metrics.quality_s", secs(t3, t4)),
            ("io.write_legal_s", secs(t4, t5)),
        ];
        let report = RunReport::from_profile(design.name(), legalizer.name(), profile);
        layers.extend(core_layers(&report, design.num_cells()));
    }
    let job = Job {
        seconds: (t5 - t0).as_secs_f64(),
        quality: Quality {
            avg: stats.avg,
            max: stats.max,
            dhpwl,
        },
        layers,
    };
    Ok((job, design, outcome.placement))
}

/// The `core.*` per-layer values of one legalization, read off the
/// run report that `legalize_observed` fills.
fn core_layers(report: &RunReport, cells: usize) -> Vec<(&'static str, f64)> {
    let secs = |path: &str| {
        report
            .phases
            .iter()
            .find(|p| p.path == path)
            .map_or(0.0, |p| p.seconds)
    };
    let leaf = |name: &str| {
        report
            .phases
            .iter()
            .filter(|p| p.path.ends_with(name))
            .fold((0.0, 0.0), |(s, c), p| (s + p.seconds, c + p.calls as f64))
    };
    let count = |key: &str| report.counter(key).unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let (search_busy, searches) = leaf("/source_search");
    let (_, rounds) = leaf("/search_batch");
    let (hits, misses) = (
        count(keys::SELECTION_MEMO_HITS),
        count(keys::SELECTION_MEMO_MISSES),
    );
    vec![
        ("core.legalize_s", secs("legalize")),
        ("core.soa_build_s", secs("legalize/soa_build")),
        ("core.partition_s", secs("legalize/partition")),
        ("core.grid_build_s", secs("legalize/grid_build")),
        ("core.assign_s", secs("legalize/assign")),
        ("core.flow_pass_s", secs("legalize/flow_pass")),
        (
            "core.flow_pass.search_batch_s",
            secs("legalize/flow_pass/search_batch"),
        ),
        ("core.flow_pass.apply_s", secs("legalize/flow_pass/apply")),
        (
            "core.flow_pass.self_s",
            secs("legalize/flow_pass")
                - secs("legalize/flow_pass/search_batch")
                - secs("legalize/flow_pass/apply"),
        ),
        ("core.source_search_busy_s", search_busy),
        ("core.source_searches", searches),
        ("core.flow_rounds", rounds),
        ("core.nodes_expanded", count(keys::NODES_EXPANDED)),
        (
            "core.branches_pruned_stale",
            count(keys::BRANCHES_PRUNED_STALE),
        ),
        ("core.augmenting_paths", count(keys::AUGMENTING_PATHS)),
        ("core.search_retries", count(keys::SEARCH_RETRIES)),
        ("core.cells_moved", count(keys::CELLS_MOVED)),
        ("core.ping_pong_tabus", count(keys::PING_PONG_TABUS)),
        ("core.fallback_moves", count(keys::FALLBACK_MOVES)),
        ("core.memo_hits", hits),
        ("core.memo_misses", misses),
        (
            "core.search_yield",
            ratio(count(keys::AUGMENTING_PATHS), searches),
        ),
        (
            "core.moves_per_cell",
            ratio(count(keys::CELLS_MOVED), cells as f64),
        ),
        ("core.memo_hit_rate", ratio(hits, hits + misses)),
        ("core.placerow_s", secs("legalize/placerow")),
        ("core.post_opt_s", secs("legalize/post_opt")),
        (
            "core.post_opt.flow_pass_s",
            secs("legalize/post_opt/flow_pass"),
        ),
        (
            "core.post_opt.placerow_s",
            secs("legalize/post_opt/placerow"),
        ),
        (
            "core.post_opt.self_s",
            secs("legalize/post_opt")
                - secs("legalize/post_opt/flow_pass")
                - secs("legalize/post_opt/placerow"),
        ),
    ]
}

/// Sets every per-layer metric to its median over `rows` (one row of
/// `(name, value)` per traced op, all rows listing the same names).
pub fn set_layer_medians(report: &mut Report, rows: &[Vec<(&'static str, f64)>]) {
    let Some(first) = rows.first() else {
        return;
    };
    for (i, &(name, _)) in first.iter().enumerate() {
        let values: Vec<f64> = rows.iter().map(|r| r[i].1).collect();
        report.set(name, median(&values), values.len());
    }
}

pub fn run(spec: CaseSpec, opts: &RunOpts) -> Result<Report, String> {
    let mut report = Report::default();
    let (inputs, setup_s) = repeat_setup(|| setup(spec, &opts.dir), |_| Ok(()))?;
    report.set("setup_s", setup_s.value, setup_s.n);

    // Timed loop. A traced run times its first job untraced, as the
    // reference for the tracing overhead, and traces the rest.
    reset_peak_rss("self");
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch, 0);
    let mut jobs: Vec<(PathBuf, Job)> = Vec::new();
    while jobs.len() < 1 + usize::from(opts.trace) || epoch.elapsed().as_secs_f64() < opts.seconds {
        let i = jobs.len();
        report.attempted += 1;
        let out = opts.dir.join(format!("legal_{i}.txt"));
        let traced = opts.trace && i > 0;
        match job(&inputs, &out, traced.then_some(&mut rec), i as u64) {
            Ok((j, ..)) => jobs.push((out, j)),
            Err(e) => {
                report.fail(format!("job {i}: {e}"));
                break;
            }
        }
    }
    let loop_s = epoch.elapsed().as_secs_f64();
    report.set("peak_rss_mib", peak_rss_mib("self"), 1);

    // Timings: untraced jobs only (a traced run has one, the reference).
    let untraced: Vec<f64> = jobs
        .iter()
        .filter(|(_, j)| j.layers.is_empty())
        .map(|(_, j)| j.seconds * 1e3)
        .collect();
    report
        .notes
        .push(latency_note("untraced job wall time", &untraced));
    report.notes.push(format!(
        "throughput: {:.4} jobs/s over {loop_s:.1} s",
        jobs.len() as f64 / loop_s
    ));
    report.set("op_p50_ms", median(&untraced), untraced.len());
    if let Some((_, first)) = jobs.first() {
        first.quality.report(&mut report, jobs.len());
    }
    if opts.trace {
        let rows: Vec<_> = jobs
            .iter()
            .filter(|(_, j)| !j.layers.is_empty())
            .map(|(_, j)| j.layers.clone())
            .collect();
        set_layer_medians(&mut report, &rows);
        let traced: Vec<f64> = jobs
            .iter()
            .filter(|(_, j)| !j.layers.is_empty())
            .map(|(_, j)| j.seconds * 1e3)
            .collect();
        report.set(
            "trace_overhead_frac",
            median(&traced) / median(&untraced) - 1.0,
            traced.len(),
        );
        report.spans = rec.into_spans();
    }

    // Verification: legal, deterministic, and read back from disk.
    let design = flow3d_io::parse_case_reader(BufReader::new(
        File::open(&inputs.case).map_err(|e| e.to_string())?,
    ))
    .map_err(|e| e.to_string())?;
    let mut reference: Option<(String, Quality)> = None;
    for (i, (path, j)) in jobs.iter().enumerate() {
        let text = read(path)?;
        match &reference {
            None => match flow3d_io::parse_legal(&design, &text) {
                Ok(legal) => {
                    let check = check_legal(&design, &legal);
                    if !check.is_legal() {
                        report.fail(format!("job {i}: illegal output: {check}"));
                    }
                }
                Err(e) => report.fail(format!("job {i}: unreadable output: {e}")),
            },
            Some((first, q)) => {
                if text != *first || j.quality != *q {
                    report.fail(format!("job {i}: output differs from job 0"));
                }
            }
        }
        if reference.is_none() {
            reference = Some((text, j.quality));
        }
    }
    Ok(report)
}
