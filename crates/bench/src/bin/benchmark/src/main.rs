//! The repository benchmark: end-to-end and per-layer metrics of the
//! 3D-Flow legalizer (batch jobs) and its resident service (closed-loop
//! ECO traffic), measured from outside through public entry points.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root (inputs and traces go under
//! `target/benchmark/`). The last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; the lines
//! before it print every metric with its unit and sample count. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones, and the run also writes
//! `target/benchmark/<workload>.trace.json` (Chrome format) and
//! `target/benchmark/<workload>.layers.json`. The exit code is non-zero
//! when any operation failed or produced an output that does not verify.
//! Workloads, metrics and recorded numbers are described in `README.md`.

mod batch;
mod serve;
mod spans;
mod stats;

use flow3d_gen::{GeneratedCase, GeneratorConfig};
use flow3d_obs::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order. Every
/// workload reports every one; an "op" is a batch job or an ECO request.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("avg_disp_rows", "rows"),
    ("max_disp_rows", "rows"),
    ("dhpwl_pct", "%"),
];

/// Per-layer metrics, `(name, unit)`, in `BENCHMARK.json` order. Layers
/// only the serve workload calls are reported as shares, sizes or rates,
/// never as times, so a batch workload reports them as a measured 0
/// (with a sample count of 0).
pub const PER_LAYER: [(&str, &str); 41] = [
    ("io.read_case_s", "s"),
    ("io.read_gp_s", "s"),
    ("io.write_legal_s", "s"),
    ("metrics.quality_s", "s"),
    ("core.soa_build_s", "s"),
    ("core.partition_s", "s"),
    ("core.grid_build_s", "s"),
    ("core.assign_s", "s"),
    ("core.legalize_s", "s"),
    ("core.flow_pass_s", "s"),
    ("core.flow_pass.search_batch_s", "s"),
    ("core.flow_pass.apply_s", "s"),
    ("core.flow_pass.self_s", "s"),
    ("core.source_search_busy_s", "s"),
    ("core.source_searches", "count"),
    ("core.flow_rounds", "count"),
    ("core.nodes_expanded", "count"),
    ("core.branches_pruned_stale", "count"),
    ("core.augmenting_paths", "count"),
    ("core.search_retries", "count"),
    ("core.cells_moved", "count"),
    ("core.ping_pong_tabus", "count"),
    ("core.fallback_moves", "count"),
    ("core.memo_hits", "count"),
    ("core.memo_misses", "count"),
    ("core.search_yield", "ratio"),
    ("core.moves_per_cell", "ratio"),
    ("core.memo_hit_rate", "ratio"),
    ("core.placerow_s", "s"),
    ("core.post_opt_s", "s"),
    ("core.post_opt.flow_pass_s", "s"),
    ("core.post_opt.placerow_s", "s"),
    ("core.post_opt.self_s", "s"),
    ("obs.reply_decode_share", "ratio"),
    ("obs.load_decode_share", "ratio"),
    ("serve.server_share", "ratio"),
    ("serve.reply_kib", "KiB"),
    ("core.eco_share", "ratio"),
    ("core.eco_memo_hit_rate", "ratio"),
    ("core.commit_reseed_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
];

/// A run repeats its set-up at least `SETUP_REPEATS` times, and while
/// less than `SETUP_MIN_SECONDS` have passed up to `SETUP_MAX_REPEATS`
/// times, so a cheap set-up still gets a steady median.
pub const SETUP_REPEATS: usize = 3;
pub const SETUP_MIN_SECONDS: f64 = 2.0;
pub const SETUP_MAX_REPEATS: usize = 9;

/// Repeats `setup` (see [`SETUP_REPEATS`]), handing every result but the
/// last to `teardown` untimed. Returns the last result and the median
/// set-up time.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, Sample), String> {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPEATS
        || (start.elapsed().as_secs_f64() < SETUP_MIN_SECONDS && times.len() < SETUP_MAX_REPEATS)
    {
        if let Some(previous) = last.take() {
            teardown(previous)?;
        }
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    let sample = Sample {
        value: stats::median(&times),
        n: times.len(),
    };
    Ok((last.expect("SETUP_REPEATS > 0"), sample))
}

/// A generated benchmark case: a generator preset at a scale.
#[derive(Debug, Clone, Copy)]
pub struct CaseSpec {
    /// `"2022"` (ICCAD 2022 contest presets) or `"million"`.
    pub suite: &'static str,
    pub case: &'static str,
    pub scale: f64,
}

impl CaseSpec {
    /// Generates the case from the preset's own seed, single-threaded.
    pub fn generate(&self) -> Result<GeneratedCase, String> {
        let mut cfg = match self.suite {
            "2022" => GeneratorConfig::iccad2022(self.case),
            "million" => GeneratorConfig::million(self.case),
            other => return Err(format!("unknown suite `{other}`")),
        }
        .ok_or_else(|| format!("unknown case `{}`", self.case))?;
        cfg.scale = self.scale;
        cfg.generate_with_threads(1).map_err(|e| e.to_string())
    }
}

/// The workloads, in `BENCHMARK.json` order. Batch inputs do not depend
/// on the seed (see `README.md`: legalization time is chaotic in the
/// generator seed); the seed drives the serve workload's move stream.
pub const WORKLOADS: [(&str, Workload); 4] = [
    (
        "batch_search",
        Workload::Batch(CaseSpec {
            suite: "2022",
            case: "case3",
            scale: 1.0,
        }),
    ),
    (
        "batch_large",
        Workload::Batch(CaseSpec {
            suite: "2022",
            case: "case4",
            scale: 1.0,
        }),
    ),
    (
        "batch_m1h",
        Workload::Batch(CaseSpec {
            suite: "million",
            case: "m1h",
            scale: 0.065,
        }),
    ),
    (
        "serve_eco",
        Workload::Serve(CaseSpec {
            suite: "2022",
            case: "case3",
            scale: 0.1,
        }),
    ),
];

#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// Repeated `flow3d legalize`-equivalent jobs on one case.
    Batch(CaseSpec),
    /// Closed-loop ECO traffic against a server process.
    Serve(CaseSpec),
}

/// What one run asks for.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub seed: u64,
    /// Length of the timed loop; it always completes at least one op.
    pub seconds: f64,
    pub trace: bool,
    /// Directory for the generated inputs and the outputs.
    pub dir: PathBuf,
}

/// One measured value and the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub value: f64,
    pub n: usize,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, Sample>,
    pub spans: Vec<spans::SpanRecord>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        self.metrics.insert(name, Sample { value, n });
    }

    /// Counts one failed operation and says why.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {why}"));
    }
}

/// Runs one workload.
pub fn run(workload: Workload, opts: &RunOpts) -> Result<Report, String> {
    std::fs::create_dir_all(&opts.dir).map_err(|e| format!("{}: {e}", opts.dir.display()))?;
    match workload {
        Workload::Batch(spec) => batch::run(spec, opts),
        Workload::Serve(spec) => serve::run(spec, opts),
    }
}

/// Restarts the kernel's peak-RSS (`VmHWM`) count of process `proc`
/// (`"self"` or a child's pid), so the peak read after the timed loop
/// covers only that loop.
pub fn reset_peak_rss(proc: &str) {
    let _ = std::fs::write(format!("/proc/{proc}/clear_refs"), "5");
}

/// Peak RSS of process `proc` in MiB since the last [`reset_peak_rss`];
/// `NaN` where `/proc` does not report it.
pub fn peak_rss_mib(proc: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{proc}/status"))
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// One readable line about a latency sample: its count, quartiles, and
/// the highest percentile that still has ten samples beyond it.
pub fn latency_note(label: &str, ms: &[f64]) -> String {
    let [q1, q2, q3] = stats::quartiles(ms);
    let tail = match stats::highest_supported_percentile(ms.len(), 10) {
        Some(p) => format!("p{p:.1} = {:.3} ms", stats::percentile(ms, p)),
        None => "no percentile has 10 samples beyond it".into(),
    };
    format!(
        "{label}: n={} q1 {q1:.3} / median {q2:.3} / q3 {q3:.3} ms; {tail}",
        ms.len()
    )
}

/// SplitMix64: the benchmark's only randomness, seeded from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Builds the result: every declared metric of the run's kind, in
/// declaration order. A missing per-layer metric is a layer the workload
/// does not call (0); a missing end-to-end one is possible only after a
/// failure (`NaN`) and is a bug in the workload otherwise.
fn result_metrics(report: &Report, trace: bool) -> Vec<(&'static str, &'static str, Sample)> {
    let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    declared
        .iter()
        .map(|&(name, unit)| {
            let sample = match report.metrics.get(name) {
                Some(s) => *s,
                None if trace => Sample { value: 0.0, n: 0 },
                None if report.failed > 0 => Sample {
                    value: f64::NAN,
                    n: 0,
                },
                None => panic!("workload did not measure end-to-end metric `{name}`"),
            };
            (name, unit, sample)
        })
        .collect()
}

fn result_json(report: &Report, metrics: &[(&str, &str, Sample)]) -> Json {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(report.failed == 0)),
        ("attempted".into(), Json::num(report.attempted as f64)),
        ("failed".into(), Json::num(report.failed as f64)),
        (
            "metrics".into(),
            Json::Obj(
                metrics
                    .iter()
                    .map(|(name, unit, s)| {
                        (
                            name.to_string(),
                            Json::Obj(vec![
                                ("value".into(), Json::num(s.value)),
                                ("unit".into(), Json::Str(unit.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Writes the Chrome trace and the per-layer summary of a traced run.
fn write_trace_files(
    root: &Path,
    workload: &str,
    report: &Report,
    metrics: &[(&str, &str, Sample)],
) -> Result<(), String> {
    let write = |name: String, text: String| {
        let path = root.join(name);
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    };
    write(
        format!("{workload}.trace.json"),
        spans::chrome_trace(&format!("benchmark {workload}"), &report.spans),
    )?;
    let values = metrics
        .iter()
        .map(|(name, unit, s)| {
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::num(s.value)),
                    ("unit".into(), Json::Str(unit.to_string())),
                    ("samples".into(), Json::num(s.n as f64)),
                ]),
            )
        })
        .collect();
    let spans = spans::layer_totals(&report.spans)
        .into_iter()
        .map(|(name, (count, total, own))| {
            (
                name,
                Json::Obj(vec![
                    ("count".into(), Json::num(count as f64)),
                    ("total_s".into(), Json::num(total)),
                    ("self_s".into(), Json::num(own)),
                ]),
            )
        })
        .collect();
    let doc = Json::Obj(vec![
        ("workload".into(), Json::Str(workload.into())),
        ("metrics".into(), Json::Obj(values)),
        ("spans".into(), Json::Obj(spans)),
    ]);
    write(format!("{workload}.layers.json"), format!("{doc}\n"))
}

struct Args {
    workload: &'static str,
    kind: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: benchmark --workload <batch_search|batch_large|batch_m1h|serve_eco> \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 15.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|(name, _)| name == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds `{value}`"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let &(name, kind) = workload.ok_or("missing --workload")?;
    Ok(Args {
        workload: name,
        kind,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    if let Some(socket) = std::env::var_os(serve::SERVER_SOCKET_ENV) {
        return match serve::serve_on(Path::new(&socket)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(1)
            }
        };
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = PathBuf::from("target").join("benchmark");
    let opts = RunOpts {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        dir: root.join(args.workload),
    };
    let report = match run(args.kind, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let metrics = result_metrics(&report, args.trace);
    println!(
        "workload {} seed {} seconds {} trace {}: {} ops attempted, {} failed",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report.attempted,
        report.failed
    );
    for note in &report.notes {
        println!("  {note}");
    }
    for (name, unit, s) in &metrics {
        let tag = if s.n == 0 { "  (layer not called)" } else { "" };
        println!("  {name:<32} {:>16.6} {unit:<6} n={}{tag}", s.value, s.n);
    }
    if args.trace {
        if let Err(e) = write_trace_files(&root, args.workload, &report, &metrics) {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    }
    println!("{}", result_json(&report, &metrics));
    if report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    fn benchmark_json() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("read BENCHMARK.json");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn declared(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(name), "bad metric name `{name}`");
            assert!(valid_unit(unit), "bad unit `{unit}` of `{name}`");
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names must be unique");
        for (name, _) in WORKLOADS {
            assert!(valid_name(name));
        }
    }

    #[test]
    fn code_and_benchmark_json_declare_the_same_metrics_and_workloads() {
        let doc = benchmark_json();
        assert_eq!(declared(&doc, "end_to_end"), owned(&END_TO_END));
        assert_eq!(declared(&doc, "per_layer"), owned(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        assert_eq!(workloads, ours);
        let setup = doc
            .get("end_to_end")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some("setup_s"))
            .expect("setup_s is declared");
        assert_eq!(setup.get("better").and_then(Json::as_str), Some("lower"));
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv(
            "--workload serve_eco --seed 7 --seconds 2.5 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            ("serve_eco", 7, 2.5, true)
        );
        let a = parse_args(&argv("--workload batch_m1h")).unwrap();
        assert_eq!((a.seed, a.trace), (0, false));
        for bad in [
            "",
            "--workload nope",
            "--workload serve_eco --trace 2",
            "--workload serve_eco --seconds -1",
            "--workload serve_eco --seed",
            "--workload serve_eco --frob 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted `{bad}`");
        }
    }

    /// The serve smoke test re-executes this test binary as its server
    /// process (see `serve::spawn_server`); this entry hands over to the
    /// server there and does nothing in an ordinary test run.
    #[test]
    fn server_process_entry() {
        if let Some(socket) = std::env::var_os(serve::SERVER_SOCKET_ENV) {
            serve::serve_on(Path::new(&socket)).expect("server process");
        }
    }

    fn smoke_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("flow3d-benchmark-{tag}-{}", std::process::id()))
    }

    /// Runs a workload at a tiny size, untraced and traced, and checks
    /// that each declared metric comes back finite; `layers` lists the
    /// per-layer prefixes the workload must actually measure.
    fn smoke(workload: Workload, tag: &str, layers: &[&str]) {
        for trace in [false, true] {
            let dir = smoke_dir(&format!("{tag}-{trace}"));
            let opts = RunOpts {
                seed: 3,
                seconds: 0.0,
                trace,
                dir: dir.clone(),
            };
            let report = run(workload, &opts).expect("run");
            std::fs::remove_dir_all(&dir).ok();
            assert_eq!(report.failed, 0, "{:?}", report.notes);
            assert!(report.attempted >= 1);
            for (name, unit, s) in result_metrics(&report, trace) {
                assert!(s.value.is_finite(), "{name} = {} {unit}", s.value);
                assert!(!unit.is_empty());
                if !trace || layers.iter().any(|p| name.starts_with(p)) {
                    assert!(s.n > 0, "{name} has no samples");
                }
            }
            if trace {
                let doc = Json::parse(&spans::chrome_trace("t", &report.spans)).unwrap();
                assert!(doc.get("traceEvents").is_some());
                assert!(!report.spans.is_empty());
            } else {
                let s = report.metrics["op_p50_ms"];
                assert!(s.value > 0.0);
            }
        }
    }

    const TINY: CaseSpec = CaseSpec {
        suite: "2022",
        case: "case2",
        scale: 0.05,
    };

    #[test]
    fn batch_pipeline_reports_every_metric() {
        smoke(
            Workload::Batch(TINY),
            "batch",
            &["io.", "metrics.", "core.legalize_s", "core.source_searches"],
        );
    }

    #[test]
    fn serve_pipeline_reports_every_metric() {
        smoke(
            Workload::Serve(TINY),
            "serve",
            &[
                "io.",
                "obs.",
                "serve.",
                "core.eco",
                "core.commit",
                "core.legalize_s",
            ],
        );
    }
}
