//! Workspace-level golden tests for the W-family lints: each fixture
//! tree under `tests/fixtures/ws/` is copied to a temp dir, linted with
//! the real `run` driver, and its rendered diagnostics are compared
//! against the `.expected` file next to the tree. A run without `--fix`
//! must leave the tree it checks byte-identical.
//!
//! Re-bless after an intentional diagnostic change with:
//!
//! ```text
//! FLOW3D_TIDY_BLESS=1 cargo test -p flow3d-lint --test workspace_golden
//! ```

use flow3d_lint::{render_human, Lint};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn ws_fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("ws")
}

/// Recursively copies `src` into `dst` (created fresh).
fn copy_tree(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("mkdir");
    for entry in std::fs::read_dir(src).expect("read_dir") {
        let entry = entry.expect("entry");
        let from = entry.path();
        let to = dst.join(entry.file_name());
        if entry.file_type().expect("file_type").is_dir() {
            copy_tree(&from, &to);
        } else {
            std::fs::copy(&from, &to).expect("copy");
        }
    }
}

/// Copies the named fixture workspace into a unique temp root.
fn temp_copy(name: &str, tag: &str) -> PathBuf {
    let tmp = std::env::temp_dir().join(format!(
        "flow3d-tidy-ws-{tag}-{}-{name}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&tmp).ok();
    copy_tree(&ws_fixtures_dir().join(name), &tmp);
    tmp
}

/// Lints the fixture workspace `name` and compares the rendered
/// diagnostics against `ws/<name>.expected`.
fn check_ws_golden(name: &str, expected_lints: &[Lint]) {
    let root = temp_copy(name, "golden");
    let report = flow3d_lint::run(&root, false).expect("tidy run");
    for lint in expected_lints {
        assert!(
            report.violations.iter().any(|fv| fv.v.lint == *lint),
            "{name}: expected a {} finding",
            lint.name()
        );
    }
    let text = report
        .violations
        .iter()
        .map(render_human)
        .collect::<Vec<_>>()
        .join("\n");
    let golden_path = ws_fixtures_dir().join(format!("{name}.expected"));
    if std::env::var_os("FLOW3D_TIDY_BLESS").is_some() {
        std::fs::write(&golden_path, &text).expect("write golden");
    } else {
        let golden = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|_| panic!("{name}.expected missing — bless with FLOW3D_TIDY_BLESS=1"));
        assert_eq!(
            text, golden,
            "{name}: diagnostics drifted — if intentional, re-bless with FLOW3D_TIDY_BLESS=1"
        );
    }
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn tidyws_fixture_is_clean() {
    let root = temp_copy("tidyws", "clean");
    let report = flow3d_lint::run(&root, false).expect("tidy run");
    let rendered: String = report.violations.iter().map(render_human).collect();
    assert!(
        report.clean(),
        "the tidyws fixture must stay clean under every lint:\n{rendered}"
    );
    assert!(report.files_checked >= 7, "fixture discovery shrank");
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn w1_drift_fixture_matches_golden() {
    check_ws_golden("w1_drift", &[Lint::ContractDrift]);
}

#[test]
fn w2_deadpub_fixture_matches_golden() {
    check_ws_golden("w2_deadpub", &[Lint::DeadPub]);
}

/// Every file under `dir` as path → bytes.
fn snapshot(dir: &Path) -> BTreeMap<PathBuf, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("read_dir") {
        let path = entry.expect("entry").path();
        if path.is_dir() {
            out.extend(snapshot(&path));
        } else {
            let bytes = std::fs::read(&path).expect("read");
            out.insert(path, bytes);
        }
    }
    out
}

/// A check run only reads: the tree is byte-identical afterwards and
/// no `target/` appears in it.
#[test]
fn a_run_without_fix_writes_nothing() {
    let root = temp_copy("tidyws", "readonly");
    let before = snapshot(&root);
    let report = flow3d_lint::run(&root, false).expect("tidy run");
    assert!(report.clean());
    let after = snapshot(&root);
    assert!(!root.join("target").exists(), "a check run created target/");
    assert_eq!(
        after.keys().collect::<Vec<_>>(),
        before.keys().collect::<Vec<_>>(),
        "a check run changed the file set"
    );
    assert!(after == before, "a check run rewrote a file");
    std::fs::remove_dir_all(&root).ok();
}
