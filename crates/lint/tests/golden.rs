//! Golden tests for flow3d-tidy: each fixture under `tests/fixtures/`
//! is checked with a known policy and its rendered diagnostics are
//! compared byte-for-byte against the `.expected` file next to it.
//!
//! Re-bless after an intentional diagnostic change with:
//!
//! ```text
//! FLOW3D_TIDY_BLESS=1 cargo test -p flow3d-lint --test golden
//! ```

use flow3d_lint::{check_file, render_human, render_json, FilePolicy, FileViolation, Lint};
use std::path::{Path, PathBuf};

/// (fixture stem, crate_root flag, lints that must appear at least once).
const FIXTURES: &[(&str, bool, &[Lint])] = &[
    ("d1_unordered_map", false, &[Lint::UnorderedMap]),
    ("d2_nondet_source", false, &[Lint::NondetSource]),
    ("d3_panic_unwrap", false, &[Lint::PanicUnwrap]),
    ("d4_float_eq", false, &[Lint::FloatEq]),
    ("d5_missing_forbid", true, &[Lint::MissingForbidUnsafe]),
    (
        "s1_bad_suppression",
        false,
        &[Lint::BadSuppression, Lint::PanicUnwrap],
    ),
    ("s2_unused_suppression", false, &[Lint::UnusedSuppression]),
    ("w3_nondet_capture", false, &[Lint::NondetCapture]),
    ("suppressed_clean", false, &[]),
];

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
}

fn check_fixture(stem: &str, crate_root: bool) -> Vec<FileViolation> {
    let path = fixtures_dir().join(format!("{stem}.rs"));
    let src = std::fs::read_to_string(&path).expect("fixture readable");
    let mut policy = FilePolicy::strict();
    policy.crate_root = crate_root;
    let lines: Vec<&str> = src.lines().collect();
    check_file(&src, &policy)
        .into_iter()
        .map(|v| FileViolation {
            path: format!("tests/fixtures/{stem}.rs"),
            snippet: lines
                .get(v.line.saturating_sub(1) as usize)
                .map(|s| (*s).to_string())
                .unwrap_or_default(),
            v,
        })
        .collect()
}

fn rendered(violations: &[FileViolation]) -> String {
    violations
        .iter()
        .map(render_human)
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn fixtures_match_golden_diagnostics() {
    let bless = std::env::var_os("FLOW3D_TIDY_BLESS").is_some();
    let mut mismatches = Vec::new();
    for &(stem, crate_root, expected_lints) in FIXTURES {
        let violations = check_fixture(stem, crate_root);
        for lint in expected_lints {
            assert!(
                violations.iter().any(|fv| fv.v.lint == *lint),
                "{stem}: expected a {} finding",
                lint.name()
            );
        }
        if expected_lints.is_empty() {
            assert!(
                violations.is_empty(),
                "{stem}: expected a clean fixture, got {} finding(s)",
                violations.len()
            );
        }
        let text = rendered(&violations);
        let golden_path = fixtures_dir().join(format!("{stem}.expected"));
        if bless {
            std::fs::write(&golden_path, &text).expect("write golden");
            continue;
        }
        let golden = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|_| panic!("{stem}.expected missing — bless with FLOW3D_TIDY_BLESS=1"));
        if text != golden {
            mismatches.push(stem);
        }
    }
    assert!(
        mismatches.is_empty(),
        "diagnostics drifted for {mismatches:?} — if intentional, re-bless with FLOW3D_TIDY_BLESS=1"
    );
}

#[test]
fn bad_fixtures_are_rejected_and_clean_fixture_passes() {
    for &(stem, crate_root, expected_lints) in FIXTURES {
        let violations = check_fixture(stem, crate_root);
        assert_eq!(
            violations.is_empty(),
            expected_lints.is_empty(),
            "{stem}: violation presence does not match expectation"
        );
    }
}

#[test]
fn json_report_round_trips_through_the_obs_parser() {
    let violations = check_fixture("s1_bad_suppression", false);
    assert!(!violations.is_empty());
    let text = render_json(&violations, 8, &["crates/x/src/lib.rs".to_string()]);
    let doc = flow3d_obs::Json::parse(&text).expect("tidy --json output parses");

    assert_eq!(
        doc.get("tool").and_then(|j| j.as_str()),
        Some("flow3d-tidy")
    );
    assert_eq!(doc.get("version").and_then(|j| j.as_u64()), Some(3));
    assert_eq!(doc.get("files_checked").and_then(|j| j.as_u64()), Some(8));
    assert!(matches!(
        doc.get("clean"),
        Some(flow3d_obs::Json::Bool(false))
    ));
    let fixed = doc.get("fixed").and_then(|j| j.as_array()).expect("fixed");
    assert_eq!(fixed.len(), 1);
    let arr = doc
        .get("violations")
        .and_then(|j| j.as_array())
        .expect("violations array");
    assert_eq!(arr.len(), violations.len());
    for (json_v, fv) in arr.iter().zip(&violations) {
        assert_eq!(
            json_v.get("lint").and_then(|j| j.as_str()),
            Some(fv.v.lint.id())
        );
        assert_eq!(
            json_v.get("name").and_then(|j| j.as_str()),
            Some(fv.v.lint.name())
        );
        assert_eq!(
            json_v.get("line").and_then(|j| j.as_u64()),
            Some(u64::from(fv.v.line))
        );
        assert_eq!(
            json_v.get("path").and_then(|j| j.as_str()),
            Some(fv.path.as_str())
        );
    }
}

#[test]
fn workspace_is_tidy() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = flow3d_lint::find_workspace_root(here).expect("workspace root");
    let report = flow3d_lint::run(&root, false).expect("tidy run");
    let rendered: String = report.violations.iter().map(render_human).collect();
    assert!(
        report.clean(),
        "the workspace must stay tidy; run `cargo run -p flow3d-lint` for details\n{rendered}"
    );
    assert!(report.files_checked > 50, "discovery found too few files");
}

/// Recursively copies `src` into `dst` (created fresh).
fn copy_tree(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("mkdir");
    for entry in std::fs::read_dir(src).expect("read_dir") {
        let entry = entry.expect("entry");
        let to = dst.join(entry.file_name());
        if entry.file_type().expect("file_type").is_dir() {
            copy_tree(&entry.path(), &to);
        } else {
            std::fs::copy(entry.path(), &to).expect("copy");
        }
    }
}

/// Drives the real `flow3d-lint` binary through its exit-code contract:
/// 0 on a clean tree; 1 on a synthetic bad workspace, with the expected
/// diagnostic on stderr and a parseable `--json` report on stdout; 2 on
/// a usage error and on a root it cannot read, naming that root.
#[test]
fn binary_exits_nonzero_on_a_bad_tree() {
    let tmp = std::env::temp_dir().join(format!("flow3d-tidy-it-{}", std::process::id()));
    let src_dir = tmp.join("crates").join("badcrate").join("src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    std::fs::write(
        tmp.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\n",
    )
    .expect("write manifest");
    std::fs::write(
        src_dir.join("lib.rs"),
        "#![forbid(unsafe_code)]\npub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    )
    .expect("write bad crate");

    let bin = env!("CARGO_BIN_EXE_flow3d-lint");
    let human = std::process::Command::new(bin)
        .args(["--root", tmp.to_str().expect("utf-8 tmp path")])
        .output()
        .expect("run flow3d-lint");
    assert_eq!(human.status.code(), Some(1), "violations must exit 1");
    let stderr = String::from_utf8_lossy(&human.stderr);
    assert!(
        stderr.contains("error[D3/panic-unwrap]"),
        "expected D3 diagnostic, got:\n{stderr}"
    );

    let json = std::process::Command::new(bin)
        .args(["--root", tmp.to_str().expect("utf-8 tmp path"), "--json"])
        .output()
        .expect("run flow3d-lint --json");
    assert_eq!(json.status.code(), Some(1));
    let doc = flow3d_obs::Json::parse(&String::from_utf8_lossy(&json.stdout))
        .expect("--json output parses");
    assert!(matches!(
        doc.get("clean"),
        Some(flow3d_obs::Json::Bool(false))
    ));

    let clean = tmp.join("clean");
    copy_tree(&fixtures_dir().join("ws").join("tidyws"), &clean);
    let out = std::process::Command::new(bin)
        .args(["--root", clean.to_str().expect("utf-8 tmp path")])
        .output()
        .expect("run flow3d-lint on the clean fixture");
    assert_eq!(
        out.status.code(),
        Some(0),
        "a clean tree must exit 0:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = std::process::Command::new(bin)
        .arg("--bogus")
        .output()
        .expect("run flow3d-lint --bogus");
    assert_eq!(out.status.code(), Some(2), "a usage error must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument `--bogus`"), "{stderr}");

    let no_crates = tmp.join("no-crates");
    std::fs::create_dir_all(&no_crates).expect("mkdir");
    let out = std::process::Command::new(bin)
        .args(["--root", no_crates.to_str().expect("utf-8 tmp path")])
        .output()
        .expect("run flow3d-lint on a root without crates/");
    assert_eq!(out.status.code(), Some(2), "an I/O error must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let missing = no_crates.join("crates");
    assert!(
        stderr.contains(&missing.display().to_string()),
        "the error must name {}:\n{stderr}",
        missing.display()
    );

    std::fs::remove_dir_all(&tmp).ok();
}
