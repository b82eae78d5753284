//! `flow3d` — command-line driver for the 3D-Flow legalizer reproduction.
//!
//! ```text
//! flow3d gen --suite 2022 --case case3 [--scale 0.25] --out case.txt [--gp gp.txt]
//! flow3d legalize --algo 3dflow|tetris|abacus|bonn --case case.txt --gp gp.txt \
//!        --out legal.txt [--no-d2d] [--no-congestion] [--no-post] [--no-soa] \
//!        [--alpha 0.1] [--bin-width 10] [--post-bin-width 5] [--post-passes 3] \
//!        [--row-algo abacus|isotonic] [--threads N] \
//!        [--profile out.json] [--trace out.trace.json] [--heatmaps out.heatmaps.json]
//! flow3d check --case case.txt --legal legal.txt [--gp gp.txt]
//! flow3d stats --case case.txt
//! flow3d report show report.json
//! flow3d report diff baseline.json current.json [--phase SUBSTR] [--rt-warn-pct P] ...
//! flow3d viz --case case.txt --gp gp.txt --legal legal.txt --die top --out plot.svg
//! flow3d viz --heatmaps run.heatmaps.json [--name flow_pass0/die0/overflow] --out grid.svg
//! flow3d eco --case case.txt --base legal.txt --moves moves.txt --out out.txt [--threads N]
//! flow3d serve [--listen HOST:PORT | --unix PATH] [--workers N] [--queue-depth N] [--threads N] \
//!        [--log events.jsonl] [--log-level L] [--flight dump.json] [--trace DIR] [--window-secs S]
//! flow3d request [ping|stats|metrics|shutdown] [--script reqs.jsonl] \
//!        [--connect HOST:PORT | --unix PATH] [--out resp.jsonl] [--text]
//! ```
//!
//! The serve-mode commands (`serve`, `request`, `eco`) are documented in
//! `SERVING.md`.

use flow3d_baselines::{AbacusLegalizer, BonnLegalizer, TetrisLegalizer};
use flow3d_core::{Flow3dConfig, Flow3dLegalizer, Legalizer};
use flow3d_db::DieId;
use flow3d_gen::GeneratorConfig;
use flow3d_gp::{GlobalPlacer, GpConfig};
use std::collections::BTreeMap;
use std::process::ExitCode;

mod serve_cmd;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}

/// Minimal `--key value` / `--flag` argument map.
#[derive(Debug)]
struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut values = BTreeMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let arg = &argv[i];
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            if i + 1 < argv.len() && !argv[i + 1].starts_with("--") {
                values.insert(key.to_string(), argv[i + 1].clone());
                i += 2;
            } else {
                flags.push(key.to_string());
                i += 1;
            }
        }
        Ok(Self { values, flags })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}"))
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: not a number: `{v}`")),
        }
    }

    fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: not an integer: `{v}`")),
        }
    }
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        return Err(usage());
    };
    if cmd == "report" {
        return run_report(&argv[1..]);
    }
    if cmd == "request" {
        // `request` accepts a positional quick command (`metrics`,
        // `ping`, …), so it splits positionals from flags itself.
        return serve_cmd::cmd_request(&argv[1..]);
    }
    let args = Args::parse(&argv[1..])?;
    match cmd.as_str() {
        "gen" => cmd_gen(&args),
        "legalize" => cmd_legalize(&args),
        "check" => cmd_check(&args),
        "stats" => cmd_stats(&args),
        "viz" => cmd_viz(&args),
        "tidy" => cmd_tidy(&args),
        "eco" => serve_cmd::cmd_eco(&args),
        "serve" => serve_cmd::cmd_serve(&args),
        "--help" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

/// `report` takes positional file paths (unlike every `--key value`
/// command), so it splits positionals from flags itself.
fn run_report(argv: &[String]) -> Result<(), String> {
    let positional: Vec<&str> = argv
        .iter()
        .take_while(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let args = Args::parse(&argv[positional.len()..])?;
    match positional.as_slice() {
        ["show", path] => cmd_report_show(path),
        ["diff", baseline, current] => cmd_report_diff(baseline, current, &args),
        _ => Err(format!(
            "usage:\n  flow3d report show <report.json>\n  \
             flow3d report diff <baseline.json> <current.json> [tolerance flags]\n\
             got positionals: {positional:?}"
        )),
    }
}

fn usage() -> String {
    "usage:\n  \
     flow3d gen --suite 2022|2023|million|demo --case <name> [--scale S] [--seed N] --out case.txt [--gp gp.txt]\n  \
     flow3d legalize --algo 3dflow|tetris|abacus|bonn --case case.txt --gp gp.txt --out legal.txt [--no-d2d] [--no-congestion] [--no-post] [--no-soa] [--alpha A] [--bin-width F] [--post-bin-width F] [--post-passes N] [--row-algo abacus|isotonic] [--threads N] [--profile out.json] [--trace out.trace.json] [--heatmaps out.heatmaps.json]\n  \
     flow3d check --case case.txt --legal legal.txt [--gp gp.txt]\n  \
     flow3d stats --case case.txt\n  \
     flow3d report show <report.json>\n  \
     flow3d report diff <baseline.json> <current.json> [--phase SUBSTR] [--rt-warn-pct P] [--rt-fail-pct P] [--disp-warn-pct P] [--disp-fail-pct P] [--counter-warn-pct P] [--counter-fail-pct P] [--min-seconds S]\n  \
     flow3d viz --case case.txt --gp gp.txt --legal legal.txt [--die top|bottom] --out plot.svg\n  \
     flow3d viz --heatmaps sidecar.json [--name <heatmap>] --out grid.svg\n  \
     flow3d tidy [--json] [--fix] [--list] [--root DIR]\n  \
     flow3d eco --case case.txt --base legal.txt --moves moves.txt --out out.txt [--threads N] [--profile out.json]\n  \
     flow3d serve [--listen HOST:PORT | --unix PATH] [--workers N] [--queue-depth N] [--threads N] [--log events.jsonl] [--log-level debug|info|warn|error] [--flight dump.json] [--trace DIR] [--window-secs S]\n  \
     flow3d request [ping|stats|metrics|shutdown] [--script reqs.jsonl] [--connect HOST:PORT | --unix PATH] [--out resp.jsonl] [--allow-errors] [--text]"
        .to_string()
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn write(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("{path}: {e}"))
}

fn load_design(args: &Args) -> Result<flow3d_db::Design, String> {
    let path = args.require("case")?;
    // Stream straight off the file: a million-cell case never has to be
    // resident as one giant String alongside the Design being built.
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    flow3d_io::parse_case_reader(std::io::BufReader::new(file)).map_err(|e| format!("{path}: {e}"))
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let suite = args.require("suite")?;
    let case = args.require("case")?;
    let mut cfg: GeneratorConfig = match suite {
        "2022" => GeneratorConfig::iccad2022(case),
        "2023" => GeneratorConfig::iccad2023(case),
        "million" => GeneratorConfig::million(case),
        "demo" => Some(GeneratorConfig::small_demo(1)),
        other => {
            return Err(format!(
                "unknown suite `{other}` (2022, 2023, million, demo)"
            ))
        }
    }
    .ok_or_else(|| format!("unknown case `{case}` in suite {suite}"))?;
    cfg.scale = args.get_f64("scale", 1.0)?;
    if let Some(seed) = args.get("seed") {
        cfg.seed = seed.parse().map_err(|_| "--seed: not an integer")?;
    }
    let generated = cfg.generate().map_err(|e| e.to_string())?;

    let mut text = String::new();
    flow3d_io::write_case(&generated.design, &mut text).map_err(|e| e.to_string())?;
    let out = args.require("out")?;
    write(out, &text)?;
    println!(
        "wrote {out}: {} cells, {} macros, {} nets",
        generated.design.num_cells(),
        generated.design.num_macros(),
        generated.design.num_nets()
    );

    if let Some(gp_path) = args.get("gp") {
        let placed = GlobalPlacer::new(GpConfig::default())
            .place_from(&generated.design, &generated.natural);
        let mut text = String::new();
        flow3d_io::write_placement3d(&generated.design, &placed, &mut text)
            .map_err(|e| e.to_string())?;
        write(gp_path, &text)?;
        println!("wrote {gp_path}: global placement");
    }
    Ok(())
}

fn cmd_legalize(args: &Args) -> Result<(), String> {
    let design = load_design(args)?;
    let gp_path = args.require("gp")?;
    let global =
        flow3d_io::parse_placement3d(&design, &read(gp_path)?).map_err(|e| e.to_string())?;

    let algo = args.get("algo").unwrap_or("3dflow");
    let legalizer: Box<dyn Legalizer> = match algo {
        "tetris" => Box::new(TetrisLegalizer::default()),
        "abacus" => Box::new(AbacusLegalizer::default()),
        "bonn" => Box::new(BonnLegalizer::default()),
        "3dflow" => Box::new(Flow3dLegalizer::new(Flow3dConfig {
            alpha: args.get_f64("alpha", 0.1)?,
            bin_width_factor: args.get_f64("bin-width", 10.0)?,
            post_bin_width_factor: args.get_f64("post-bin-width", 5.0)?,
            allow_d2d: !args.flag("no-d2d"),
            d2d_congestion_cost: !args.flag("no-congestion"),
            post_opt: !args.flag("no-post"),
            post_passes: args.get_usize("post-passes", 3)?,
            row_algo: match args.get("row-algo").unwrap_or("abacus") {
                "abacus" => flow3d_core::RowAlgo::AbacusQuadratic,
                "isotonic" => flow3d_core::RowAlgo::IsotonicL1,
                other => return Err(format!("--row-algo: unknown algorithm `{other}`")),
            },
            // 0 = auto: FLOW3D_THREADS, else available parallelism. The
            // result is bit-identical for every worker count.
            threads: args.get_usize("threads", 0)?,
            // SoA off is the differential-testing reference path; the
            // output is bit-identical either way.
            soa_view: !args.flag("no-soa"),
        })),
        other => return Err(format!("unknown algorithm `{other}`")),
    };

    let profile_path = args.get("profile");
    let trace_path = args.get("trace");
    let heatmaps_path = args.get("heatmaps");
    let mut profile = (profile_path.is_some() || trace_path.is_some() || heatmaps_path.is_some())
        .then(flow3d_obs::Profile::new);
    if let Some(p) = profile.as_mut() {
        if trace_path.is_some() {
            p.enable_tracing();
        }
        // Per-pass grids are captured only when a sidecar will hold them.
        if heatmaps_path.is_some() {
            p.enable_heatmaps();
        }
    }

    let start = std::time::Instant::now();
    let outcome = legalizer
        .legalize_observed(&design, &global, profile.as_mut())
        .map_err(|e| e.to_string())?;
    let elapsed = start.elapsed().as_secs_f64();

    let stats = flow3d_metrics::displacement_stats(&design, &global, &outcome.placement);
    let dhpwl = flow3d_metrics::delta_hpwl_pct(&design, &global, &outcome.placement);
    println!(
        "{}: avg disp {:.3} rows, max disp {:.2} rows, dHPWL {:+.2}%, {} cross-die moves, {:.2}s",
        legalizer.name(),
        stats.avg,
        stats.max,
        dhpwl,
        outcome.stats.cross_die_moves,
        elapsed
    );

    if let (Some(path), Some(profile)) = (profile_path, &profile) {
        let mut report =
            flow3d_obs::RunReport::from_profile(design.name(), legalizer.name(), profile)
                .with_quality(flow3d_obs::Quality {
                    avg_disp: stats.avg_dbu,
                    max_disp: stats.max_dbu,
                    dhpwl_pct: dhpwl,
                });
        if let Some(rss) = flow3d_obs::peak_rss_bytes() {
            report = report.with_peak_rss(rss);
        }
        write(path, &report.to_json())?;
        print!("{}", report.to_pretty());
        println!("wrote {path}");
    }
    if let (Some(path), Some(profile)) = (trace_path, &profile) {
        let trace = profile
            .to_chrome_trace(&format!("flow3d {} {}", legalizer.name(), design.name()))
            .expect("tracing was enabled");
        write(path, &trace)?;
        println!(
            "wrote {path} ({} trace events)",
            profile.trace_events().len()
        );
    }
    if let (Some(path), Some(profile)) = (heatmaps_path, &profile) {
        write(path, &flow3d_obs::heatmaps_to_json(profile.heatmaps()))?;
        println!("wrote {path} ({} heatmaps)", profile.heatmaps().len());
    }

    let mut text = String::new();
    flow3d_io::write_legal(&design, &outcome.placement, &mut text).map_err(|e| e.to_string())?;
    let out = args.require("out")?;
    write(out, &text)?;
    println!("wrote {out}");
    Ok(())
}

fn cmd_check(args: &Args) -> Result<(), String> {
    let design = load_design(args)?;
    let legal_path = args.require("legal")?;
    let legal = flow3d_io::parse_legal(&design, &read(legal_path)?).map_err(|e| e.to_string())?;
    let report = flow3d_metrics::check_legal(&design, &legal);
    println!("{report}");
    if let Some(gp_path) = args.get("gp") {
        let global =
            flow3d_io::parse_placement3d(&design, &read(gp_path)?).map_err(|e| e.to_string())?;
        let stats = flow3d_metrics::displacement_stats(&design, &global, &legal);
        println!(
            "avg disp {:.3} rows, max disp {:.2} rows (cell {})",
            stats.avg,
            stats.max,
            stats
                .max_cell
                .map(|c| design.cells()[c.index()].name.clone())
                .unwrap_or_default()
        );
    }
    if report.is_legal() {
        Ok(())
    } else {
        Err("placement is not legal".into())
    }
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let design = load_design(args)?;
    println!("design  : {}", design.name());
    println!("cells   : {}", design.num_cells());
    println!("macros  : {}", design.num_macros());
    println!("nets    : {}", design.num_nets());
    for (idx, die) in design.dies().iter().enumerate() {
        let die_id = DieId::new(idx);
        println!(
            "die {:<7}: outline {}, rows {} x {} DBU, site {}, max util {:.0}%, free area {}",
            die.name,
            die.outline,
            die.num_rows(),
            die.row_height,
            die.site_width,
            die.max_util * 100.0,
            design.free_area(die_id)
        );
    }
    Ok(())
}

fn load_report(path: &str) -> Result<flow3d_obs::RunReport, String> {
    flow3d_obs::RunReport::from_json(&read(path)?).map_err(|e| format!("{path}: {e}"))
}

fn cmd_report_show(path: &str) -> Result<(), String> {
    print!("{}", load_report(path)?.to_pretty());
    Ok(())
}

/// Compares two run reports and exits non-zero when any metric regressed
/// beyond the failure tolerance — the CI perf gate.
fn cmd_report_diff(baseline_path: &str, current_path: &str, args: &Args) -> Result<(), String> {
    let baseline = load_report(baseline_path)?;
    let current = load_report(current_path)?;
    let defaults = flow3d_obs::DiffTolerances::default();
    let tol = flow3d_obs::DiffTolerances {
        rt_warn_pct: args.get_f64("rt-warn-pct", defaults.rt_warn_pct)?,
        rt_fail_pct: args.get_f64("rt-fail-pct", defaults.rt_fail_pct)?,
        disp_warn_pct: args.get_f64("disp-warn-pct", defaults.disp_warn_pct)?,
        disp_fail_pct: args.get_f64("disp-fail-pct", defaults.disp_fail_pct)?,
        counter_warn_pct: args.get_f64("counter-warn-pct", defaults.counter_warn_pct)?,
        counter_fail_pct: args.get_f64("counter-fail-pct", defaults.counter_fail_pct)?,
        min_seconds: args.get_f64("min-seconds", defaults.min_seconds)?,
    };
    let diff = flow3d_obs::diff_reports_phase(&baseline, &current, &tol, args.get("phase"));
    if let Some(phase) = args.get("phase") {
        println!("phase filter: {phase}");
    }
    print!("{}", diff.to_pretty());
    match diff.worst() {
        flow3d_obs::DiffStatus::Fail => Err(format!(
            "regression beyond tolerance vs {baseline_path} (see FAIL rows above)"
        )),
        _ => Ok(()),
    }
}

/// `viz --heatmaps` mode: render telemetry grids from a sidecar instead
/// of a placement plot.
fn cmd_viz_heatmaps(args: &Args, sidecar: &str) -> Result<(), String> {
    let maps =
        flow3d_obs::heatmaps_from_json(&read(sidecar)?).map_err(|e| format!("{sidecar}: {e}"))?;
    let map = match args.get("name") {
        Some(name) => maps
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("no heatmap `{name}` in {sidecar} ({} present)", maps.len()))?,
        None => maps
            .first()
            .ok_or_else(|| format!("{sidecar}: no heatmaps"))?,
    };
    let out = args.require("out")?;
    write(out, &flow3d_viz::heatmap_svg(map))?;
    println!("wrote {out} ({})", map.name);
    Ok(())
}

fn cmd_viz(args: &Args) -> Result<(), String> {
    if let Some(sidecar) = args.get("heatmaps") {
        return cmd_viz_heatmaps(args, sidecar);
    }
    let design = load_design(args)?;
    let global = flow3d_io::parse_placement3d(&design, &read(args.require("gp")?)?)
        .map_err(|e| e.to_string())?;
    let legal = flow3d_io::parse_legal(&design, &read(args.require("legal")?)?)
        .map_err(|e| e.to_string())?;
    let die = match args.get("die").unwrap_or("top") {
        "top" => DieId::TOP,
        "bottom" => DieId::BOTTOM,
        other => return Err(format!("unknown die `{other}`")),
    };
    let svg = flow3d_viz::DisplacementPlot::new(&design, &global, &legal, die).to_svg();
    let out = args.require("out")?;
    write(out, &svg)?;
    println!("wrote {out}");
    Ok(())
}

/// `flow3d tidy` — run the flow3d-tidy determinism & panic-safety lints
/// over the workspace (same engine as `cargo run -p flow3d-lint`).
fn cmd_tidy(args: &Args) -> Result<(), String> {
    if args.flag("list") {
        println!("{:<4} {:<24} rationale", "id", "name");
        for lint in flow3d_lint::ALL_LINTS {
            println!("{:<4} {:<24} {}", lint.id(), lint.name(), lint.rationale());
        }
        println!(
            "\nsuppression: // flow3d-tidy: allow(<name>) — <reason>   (reason required; \
             covers the same line and the next)"
        );
        return Ok(());
    }
    let root = match args.get("root") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            flow3d_lint::find_workspace_root(&cwd)
                .ok_or_else(|| "no workspace root found above the current directory".to_string())?
        }
    };
    let report = flow3d_lint::run(&root, args.flag("fix")).map_err(|e| format!("tidy: {e}"))?;
    if args.flag("json") {
        print!(
            "{}",
            flow3d_lint::render_json(
                &report.violations,
                report.files_checked,
                &report.fixed,
                (report.cache_hits, report.cache_total),
            )
        );
    } else {
        for fv in &report.violations {
            eprintln!("{}", flow3d_lint::render_human(fv));
        }
        for fixed in &report.fixed {
            eprintln!("fixed: {fixed}");
        }
        eprintln!(
            "flow3d-tidy: {} file(s) checked ({}/{} cache hits), {} violation(s)",
            report.files_checked,
            report.cache_hits,
            report.cache_total,
            report.violations.len()
        );
    }
    if report.clean() {
        Ok(())
    } else {
        Err(format!("{} tidy violation(s)", report.violations.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::Args;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_values_and_flags() {
        let a = Args::parse(&argv(&[
            "--case",
            "c.txt",
            "--no-d2d",
            "--alpha",
            "0.5",
            "--verbose",
        ]))
        .unwrap();
        assert_eq!(a.get("case"), Some("c.txt"));
        assert!(a.flag("no-d2d"));
        assert!(a.flag("verbose"));
        assert_eq!(a.get_f64("alpha", 0.1).unwrap(), 0.5);
        assert_eq!(a.get_f64("scale", 1.0).unwrap(), 1.0);
        assert_eq!(a.get_usize("threads", 0).unwrap(), 0);
    }

    #[test]
    fn rejects_positional_arguments() {
        let err = Args::parse(&argv(&["case.txt"])).unwrap_err();
        assert!(err.contains("unexpected argument"));
    }

    #[test]
    fn require_reports_missing_key() {
        let a = Args::parse(&argv(&["--out", "x"])).unwrap();
        assert!(a.require("out").is_ok());
        assert!(a.require("case").unwrap_err().contains("--case"));
    }

    #[test]
    fn bad_number_is_an_error() {
        let a = Args::parse(&argv(&["--alpha", "abc"])).unwrap();
        assert!(a.get_f64("alpha", 0.1).is_err());
        assert!(a.get_usize("alpha", 1).is_err());
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        // A quirk of `--key value` parsing: negative numbers do not start
        // with `--` so they parse as values.
        let a = Args::parse(&argv(&["--dx", "-5"])).unwrap();
        assert_eq!(a.get("dx"), Some("-5"));
    }
}
