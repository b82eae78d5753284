//! `flow3d` — command-line driver for the 3D-Flow legalizer reproduction.
//!
//! ```text
//! flow3d gen --suite 2022 --case case3 [--scale 0.25] --out case.txt [--gp gp.txt]
//! flow3d legalize --algo 3dflow|tetris|abacus|bonn --case case.txt --gp gp.txt \
//!        --out legal.txt [--no-d2d] [--no-congestion] [--no-post] \
//!        [--alpha 0.1] [--bin-width 10] [--post-bin-width 5] [--post-passes 8] \
//!        [--row-algo abacus|isotonic] [--threads N] \
//!        [--profile out.json] [--trace out.trace.json] [--heatmaps out.heatmaps.json]
//! flow3d check --case case.txt --legal legal.txt [--gp gp.txt]
//! flow3d stats --case case.txt
//! flow3d report show report.json
//! flow3d viz --case case.txt --gp gp.txt --legal legal.txt --die top --out plot.svg
//! flow3d viz --heatmaps run.heatmaps.json [--name flow_pass0/die0/overflow] --out grid.svg
//! flow3d eco --case case.txt --base legal.txt --moves moves.txt --out out.txt [--threads N]
//! flow3d serve [--listen HOST:PORT | --unix PATH] [--workers N] [--queue-depth N] [--threads N] \
//!        [--log events.jsonl] [--log-level L] [--flight dump.json] [--trace DIR] [--window-secs S]
//! flow3d request [ping|stats|metrics|shutdown] [--script reqs.jsonl] \
//!        [--connect HOST:PORT | --unix PATH] [--out resp.jsonl] [--text]
//! ```
//!
//! Each command accepts exactly the options it lists; any other option,
//! a valued option without its value, or a value after a bare flag is an
//! error (exit 1), so a misspelled flag cannot silently void a run. The
//! `legalize` options from `--no-d2d` to `--threads` configure 3D-Flow
//! and are an error with any other `--algo`.
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

/// [`print!`] for console output that may be cut off: writes to stdout
/// and ignores a failure, so a closed stdout (`flow3d … | head`) ends the
/// console output only, and the command still writes its files and exits
/// normally.
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::console(format_args!($($arg)*))
    };
}

/// [`println!`] through [`out!`].
macro_rules! outln {
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

mod serve_cmd;

/// Writes console output to stdout, ignoring write errors (see [`out!`]).
fn console(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let _ = std::io::stdout().lock().write_fmt(args);
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(1)
        }
    }
}

/// The options one command reads, space-separated: first those that take
/// a value (`--key value`), then the bare flags (`--flag`).
/// [`Args::parse`] rejects every other option.
struct Opts(&'static str, &'static str);

/// Minimal `--key value` / `--flag` argument map.
#[derive(Debug)]
struct Args {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses `argv` against the options `opts` names.
    ///
    /// # Errors
    ///
    /// `unknown option --X` for an option `opts` does not name,
    /// `--X needs a value` for a valued option at the end or followed by
    /// another option, and `unexpected argument` for a bare word (a
    /// positional, or a value after a flag).
    fn parse(argv: &[String], opts: &Opts) -> Result<Self, String> {
        let mut values = BTreeMap::new();
        let mut flags = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let arg = &argv[i];
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            if opts.0.split_whitespace().any(|k| k == key) {
                let value = argv
                    .get(i + 1)
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| format!("--{key} needs a value"))?;
                values.insert(key.to_string(), value.clone());
                i += 2;
            } else if opts.1.split_whitespace().any(|k| k == key) {
                flags.push(key.to_string());
                i += 1;
            } else {
                return Err(format!("unknown option --{key}"));
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
    type Command = fn(&Args) -> Result<(), String>;
    let (opts, command): (&Opts, Command) = match cmd.as_str() {
        "gen" => (&GEN, cmd_gen),
        "legalize" => (&LEGALIZE, cmd_legalize),
        "check" => (&CHECK, cmd_check),
        "stats" => (&STATS, cmd_stats),
        "viz" => (&VIZ, cmd_viz),
        "eco" => (&serve_cmd::ECO, serve_cmd::cmd_eco),
        "serve" => (&serve_cmd::SERVE, serve_cmd::cmd_serve),
        "--help" | "help" => {
            outln!("{}", usage());
            return Ok(());
        }
        other => return Err(format!("unknown command `{other}`\n{}", usage())),
    };
    command(&Args::parse(&argv[1..], opts)?)
}

/// `report` takes positional file paths (unlike every `--key value`
/// command), so it splits positionals from flags itself.
fn run_report(argv: &[String]) -> Result<(), String> {
    let positional: Vec<&str> = argv
        .iter()
        .take_while(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let rest = &argv[positional.len()..];
    match positional.as_slice() {
        ["show", path] => {
            Args::parse(rest, &Opts("", ""))?;
            cmd_report_show(path)
        }
        _ => Err(format!(
            "usage:\n  flow3d report show <report.json>\n\
             got positionals: {positional:?}"
        )),
    }
}

fn usage() -> String {
    "usage:\n  \
     flow3d gen --suite 2022|2023|million|demo --case <name> [--scale S] [--seed N] --out case.txt [--gp gp.txt]\n  \
     flow3d legalize --algo 3dflow|tetris|abacus|bonn --case case.txt --gp gp.txt --out legal.txt [--no-d2d] [--no-congestion] [--no-post] [--alpha A] [--bin-width F] [--post-bin-width F] [--post-passes N] [--row-algo abacus|isotonic] [--threads N] [--profile out.json] [--trace out.trace.json] [--heatmaps out.heatmaps.json]\n  \
     flow3d check --case case.txt --legal legal.txt [--gp gp.txt]\n  \
     flow3d stats --case case.txt\n  \
     flow3d report show <report.json>\n  \
     flow3d viz --case case.txt --gp gp.txt --legal legal.txt [--die top|bottom] --out plot.svg\n  \
     flow3d viz --heatmaps sidecar.json [--name <heatmap>] --out grid.svg\n  \
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

const GEN: Opts = Opts("suite case scale seed out gp", "");

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
    outln!(
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
        outln!("wrote {gp_path}: global placement");
    }
    Ok(())
}

const LEGALIZE: Opts = Opts(
    "case gp out algo alpha bin-width post-bin-width post-passes row-algo threads \
     profile trace heatmaps",
    "no-d2d no-congestion no-post",
);

/// The `legalize` options only `--algo 3dflow` reads.
const FLOW3D_ONLY: [&str; 9] = [
    "alpha",
    "bin-width",
    "post-bin-width",
    "post-passes",
    "row-algo",
    "threads",
    "no-d2d",
    "no-congestion",
    "no-post",
];

fn cmd_legalize(args: &Args) -> Result<(), String> {
    let algo = args.get("algo").unwrap_or("3dflow");
    let legalizer: Box<dyn Legalizer> = match algo {
        "tetris" => Box::new(TetrisLegalizer::default()),
        "abacus" => Box::new(AbacusLegalizer::default()),
        "bonn" => Box::new(BonnLegalizer::default()),
        "3dflow" => {
            // An option left unset keeps the library's default.
            let d = Flow3dConfig::default();
            Box::new(Flow3dLegalizer::new(Flow3dConfig {
                alpha: args.get_f64("alpha", d.alpha)?,
                bin_width_factor: args.get_f64("bin-width", d.bin_width_factor)?,
                post_bin_width_factor: args.get_f64("post-bin-width", d.post_bin_width_factor)?,
                allow_d2d: d.allow_d2d && !args.flag("no-d2d"),
                d2d_congestion_cost: d.d2d_congestion_cost && !args.flag("no-congestion"),
                post_opt: d.post_opt && !args.flag("no-post"),
                post_passes: args.get_usize("post-passes", d.post_passes)?,
                row_algo: match args.get("row-algo") {
                    None => d.row_algo,
                    Some("abacus") => flow3d_core::RowAlgo::AbacusQuadratic,
                    Some("isotonic") => flow3d_core::RowAlgo::IsotonicL1,
                    Some(other) => return Err(format!("--row-algo: unknown algorithm `{other}`")),
                },
                // 0 = auto: FLOW3D_THREADS, else available parallelism.
                // The result is bit-identical for every worker count.
                threads: args.get_usize("threads", d.threads)?,
            }))
        }
        other => return Err(format!("unknown algorithm `{other}`")),
    };
    if algo != "3dflow" {
        let given = |opt: &&str| args.get(opt).is_some() || args.flag(opt);
        if let Some(opt) = FLOW3D_ONLY.into_iter().find(given) {
            return Err(format!(
                "--{opt} is read only by --algo 3dflow, not --algo {algo}"
            ));
        }
    }
    let design = load_design(args)?;
    let gp_path = args.require("gp")?;
    let global =
        flow3d_io::parse_placement3d(&design, &read(gp_path)?).map_err(|e| e.to_string())?;

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
    outln!(
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
        out!("{}", report.to_pretty());
        outln!("wrote {path}");
    }
    if let (Some(path), Some(profile)) = (trace_path, &profile) {
        let trace = profile
            .to_chrome_trace(&format!("flow3d {} {}", legalizer.name(), design.name()))
            .expect("tracing was enabled");
        write(path, &trace)?;
        outln!(
            "wrote {path} ({} trace events)",
            profile.trace_events().len()
        );
    }
    if let (Some(path), Some(profile)) = (heatmaps_path, &profile) {
        write(path, &flow3d_obs::heatmaps_to_json(profile.heatmaps()))?;
        outln!("wrote {path} ({} heatmaps)", profile.heatmaps().len());
    }

    let mut text = String::new();
    flow3d_io::write_legal(&design, &outcome.placement, &mut text).map_err(|e| e.to_string())?;
    let out = args.require("out")?;
    write(out, &text)?;
    outln!("wrote {out}");
    Ok(())
}

const CHECK: Opts = Opts("case legal gp", "");

fn cmd_check(args: &Args) -> Result<(), String> {
    let design = load_design(args)?;
    let legal_path = args.require("legal")?;
    let legal = flow3d_io::parse_legal(&design, &read(legal_path)?).map_err(|e| e.to_string())?;
    let report = flow3d_metrics::check_legal(&design, &legal);
    outln!("{report}");
    if let Some(gp_path) = args.get("gp") {
        let global =
            flow3d_io::parse_placement3d(&design, &read(gp_path)?).map_err(|e| e.to_string())?;
        let stats = flow3d_metrics::displacement_stats(&design, &global, &legal);
        outln!(
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

const STATS: Opts = Opts("case", "");

fn cmd_stats(args: &Args) -> Result<(), String> {
    let design = load_design(args)?;
    outln!("design  : {}", design.name());
    outln!("cells   : {}", design.num_cells());
    outln!("macros  : {}", design.num_macros());
    outln!("nets    : {}", design.num_nets());
    for (idx, die) in design.dies().iter().enumerate() {
        let die_id = DieId::new(idx);
        outln!(
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

fn cmd_report_show(path: &str) -> Result<(), String> {
    let report =
        flow3d_obs::RunReport::from_json(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
    out!("{}", report.to_pretty());
    Ok(())
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
    outln!("wrote {out} ({})", map.name);
    Ok(())
}

/// Both `viz` modes: a placement plot, or `--heatmaps` grids.
const VIZ: Opts = Opts("case gp legal die out heatmaps name", "");

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
    outln!("wrote {out}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::{Args, Opts};

    const OPTS: Opts = Opts("case out alpha dx", "no-d2d verbose");

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    fn parse(s: &[&str]) -> Result<Args, String> {
        Args::parse(&argv(s), &OPTS)
    }

    #[test]
    fn parses_values_and_flags() {
        let a = parse(&["--case", "c.txt", "--no-d2d", "--alpha", "0.5", "--verbose"]).unwrap();
        assert_eq!(a.get("case"), Some("c.txt"));
        assert!(a.flag("no-d2d"));
        assert!(a.flag("verbose"));
        assert_eq!(a.get_f64("alpha", 0.1).unwrap(), 0.5);
        assert_eq!(a.get_f64("scale", 1.0).unwrap(), 1.0);
        assert_eq!(a.get_usize("threads", 0).unwrap(), 0);
    }

    #[test]
    fn rejects_positional_arguments() {
        let err = parse(&["case.txt"]).unwrap_err();
        assert!(err.contains("unexpected argument"));
    }

    #[test]
    fn require_reports_missing_key() {
        let a = parse(&["--out", "x"]).unwrap();
        assert!(a.require("out").is_ok());
        assert!(a.require("case").unwrap_err().contains("--case"));
    }

    #[test]
    fn bad_number_is_an_error() {
        let a = parse(&["--alpha", "abc"]).unwrap();
        assert!(a.get_f64("alpha", 0.1).is_err());
        assert!(a.get_usize("alpha", 1).is_err());
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        // A quirk of `--key value` parsing: negative numbers do not start
        // with `--` so they parse as values.
        let a = parse(&["--dx", "-5"]).unwrap();
        assert_eq!(a.get("dx"), Some("-5"));
    }
}
