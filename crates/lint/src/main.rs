#![forbid(unsafe_code)]
//! `flow3d-lint` — the entry point for the flow3d-tidy pass. It exits 0
//! when the tree is clean, 1 on violations, and 2 on an I/O or usage
//! error.
//!
//! ```text
//! cargo run -p flow3d-lint                # human diagnostics, exit 1 on violations
//! cargo run -p flow3d-lint -- --json      # machine-readable report on stdout
//! cargo run -p flow3d-lint -- --fix       # apply mechanical rewrites (D5), then re-check
//! cargo run -p flow3d-lint -- --list      # lint table
//! cargo run -p flow3d-lint -- --root DIR  # lint a different workspace
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match flow3d_lint_run(&args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("flow3d-tidy: {msg}");
            ExitCode::from(2)
        }
    }
}

fn flow3d_lint_run(args: &[String]) -> Result<bool, String> {
    let mut json = false;
    let mut fix = false;
    let mut root_arg: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--fix" => fix = true,
            "--list" => {
                print_lint_table();
                return Ok(true);
            }
            "--root" => {
                i += 1;
                let dir = args
                    .get(i)
                    .ok_or_else(|| "--root needs a directory".to_string())?;
                root_arg = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => {
                println!(
                    "flow3d-tidy: determinism & panic-safety lints\n\n\
                     usage: flow3d-lint [--json] [--fix] [--list] [--root DIR]"
                );
                return Ok(true);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
        i += 1;
    }

    let root = match root_arg {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            flow3d_lint::find_workspace_root(&cwd)
                .ok_or_else(|| "no workspace root found above the current directory".to_string())?
        }
    };

    let report = flow3d_lint::run(&root, fix).map_err(|e| format!("io error: {e}"))?;

    if json {
        print!(
            "{}",
            flow3d_lint::render_json(&report.violations, report.files_checked, &report.fixed)
        );
    } else {
        for fv in &report.violations {
            eprintln!("{}", flow3d_lint::render_human(fv));
        }
        for fixed in &report.fixed {
            eprintln!("fixed: {fixed}");
        }
        eprintln!(
            "flow3d-tidy: {} file(s) checked, {} violation(s){}",
            report.files_checked,
            report.violations.len(),
            if report.fixed.is_empty() {
                String::new()
            } else {
                format!(", {} file(s) fixed", report.fixed.len())
            }
        );
    }
    Ok(report.clean())
}

fn print_lint_table() {
    println!("{:<4} {:<24} rationale", "id", "name");
    for lint in flow3d_lint::ALL_LINTS {
        println!("{:<4} {:<24} {}", lint.id(), lint.name(), lint.rationale());
    }
    println!(
        "\nsuppression: // flow3d-tidy: allow(<name>) — <reason>   (reason required; \
         covers the same line and the next)"
    );
}
