//! Every `flow3d` command rejects an option it does not read, before it
//! touches a file: a misspelled `--no-d2d` used to be kept and ignored,
//! so an ablation ran with D2D movement on and exited 0.

use std::process::Command;

/// Runs `flow3d` on the whitespace-separated `args` and checks that it
/// exits 1 printing exactly `error: {want}`.
fn assert_rejected(args: &str, want: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_flow3d"))
        .args(args.split_whitespace())
        .output()
        .expect("run flow3d");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args}: {stderr}");
    assert_eq!(stderr.trim_end(), format!("error: {want}"), "{args}");
}

#[test]
fn misspelled_legalize_options_fail_before_any_work() {
    let run = "legalize --algo 3dflow --case missing.txt --gp missing.gp --out out.txt";
    assert_rejected(
        &format!("{run} --no-2d2 --threds 4 --aplha 0"),
        "unknown option --no-2d2",
    );
    assert_rejected(&format!("{run} --threads"), "--threads needs a value");
    assert_rejected(
        &format!("{run} --threads --no-post"),
        "--threads needs a value",
    );
    assert_rejected(&format!("{run} --no-d2d yes"), "unexpected argument `yes`");
}

/// The 3D-Flow options are read only by `--algo 3dflow`: a baseline run
/// given one used to exit 0 with the option silently ignored.
#[test]
fn baselines_reject_the_3dflow_options() {
    let options = [
        "--alpha 7",
        "--bin-width 3",
        "--post-bin-width 2",
        "--post-passes 9",
        "--row-algo isotonic",
        "--threads 4",
        "--no-d2d",
        "--no-congestion",
        "--no-post",
    ];
    for algo in ["tetris", "abacus", "bonn"] {
        let run =
            format!("legalize --algo {algo} --case missing.txt --gp missing.gp --out out.txt");
        for option in options {
            let name = option.split_whitespace().next().unwrap();
            assert_rejected(
                &format!("{run} {option}"),
                &format!("{name} is read only by --algo 3dflow, not --algo {algo}"),
            );
        }
    }
    assert_rejected(
        "legalize --algo tetris --case missing.txt --gp missing.gp --out out.txt --row-algo bogus",
        "--row-algo is read only by --algo 3dflow, not --algo tetris",
    );
}

#[test]
fn every_command_names_its_options() {
    for command in [
        "gen",
        "legalize",
        "check",
        "stats",
        "viz",
        "eco",
        // An unknown option must stop `serve` before it binds anything;
        // were it accepted, binding under a missing directory would fail
        // with another message.
        "serve --unix /nonexistent-flow3d-dir/serve.sock",
        "request",
        "request ping",
        "report show r.json",
    ] {
        assert_rejected(&format!("{command} --bogus"), "unknown option --bogus");
    }
}

/// `report` has one subcommand, `show`; anything else prints its usage.
#[test]
fn report_diff_prints_the_report_usage() {
    assert_rejected(
        "report diff a.json b.json --rt-fail-pct 50",
        "usage:\n  flow3d report show <report.json>\n\
         got positionals: [\"diff\", \"a.json\", \"b.json\"]",
    );
}
