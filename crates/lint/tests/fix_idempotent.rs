//! `tidy --fix` must be idempotent: applying it twice leaves the tree
//! byte-identical to applying it once. Checked over a synthetic corpus
//! built from the per-file fixtures (which includes a D5 tree the first
//! pass genuinely rewrites) and over a copy of the real workspace.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Every file under `root` (except `target/`, where the run writes its
/// symbol cache) as relative path → bytes.
fn snapshot(root: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).expect("read_dir") {
            let entry = entry.expect("entry");
            let path = entry.path();
            if entry.file_type().expect("file_type").is_dir() {
                if entry.file_name() != "target" {
                    stack.push(path);
                }
            } else {
                let rel = path
                    .strip_prefix(root)
                    .expect("under root")
                    .to_string_lossy()
                    .into_owned();
                out.insert(rel, std::fs::read(&path).expect("read"));
            }
        }
    }
    out
}

fn assert_fix_idempotent(root: &Path, expect_first_pass_fixes: bool) {
    let first = flow3d_lint::run(root, true).expect("first --fix run");
    if expect_first_pass_fixes {
        assert!(
            !first.fixed.is_empty(),
            "corpus must exercise the rewrite path"
        );
    }
    let after_first = snapshot(root);
    let second = flow3d_lint::run(root, true).expect("second --fix run");
    assert!(
        second.fixed.is_empty(),
        "second --fix pass rewrote {:?} again",
        second.fixed
    );
    let after_second = snapshot(root);
    assert_eq!(
        after_first.keys().collect::<Vec<_>>(),
        after_second.keys().collect::<Vec<_>>(),
        "file set changed between passes"
    );
    for (rel, bytes) in &after_first {
        assert_eq!(
            bytes, &after_second[rel],
            "{rel}: bytes differ between the first and second --fix pass"
        );
    }
}

fn temp_root(tag: &str) -> PathBuf {
    let tmp = std::env::temp_dir().join(format!("flow3d-tidy-fix-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&tmp).ok();
    tmp
}

/// Builds a workspace whose single crate embeds the per-file fixture
/// corpus: the D5 fixture as the crate root (missing its forbid line —
/// the first `--fix` pass inserts it) and every other fixture as an
/// additional source file.
#[test]
fn fix_is_idempotent_over_the_fixture_corpus() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures");
    let root = temp_root("corpus");
    let src = root.join("crates").join("fixcrate").join("src");
    std::fs::create_dir_all(&src).expect("mkdir");
    std::fs::write(
        root.join("Cargo.toml"),
        "[workspace]\nmembers = [\"crates/*\"]\n",
    )
    .expect("manifest");
    for entry in std::fs::read_dir(&fixtures).expect("fixtures dir") {
        let entry = entry.expect("entry");
        let path = entry.path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let stem = path.file_stem().expect("stem").to_string_lossy();
        let dst = if stem == "d5_missing_forbid" {
            src.join("lib.rs")
        } else {
            src.join(format!("{stem}.rs"))
        };
        std::fs::copy(&path, &dst).expect("copy fixture");
    }
    assert_fix_idempotent(&root, true);
    std::fs::remove_dir_all(&root).ok();
}

/// Copies the real workspace's lintable surface (facade + crate `src/`
/// trees, contract docs, manifest) and runs `--fix` twice over it.
#[test]
fn fix_is_idempotent_over_the_real_workspace() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let real = flow3d_lint::find_workspace_root(here).expect("workspace root");
    let root = temp_root("realws");
    std::fs::create_dir_all(&root).expect("mkdir");
    for doc in ["Cargo.toml", "README.md", "EXPERIMENTS.md", "SERVING.md"] {
        std::fs::copy(real.join(doc), root.join(doc)).expect("copy doc");
    }
    copy_rs_tree(&real.join("src"), &root.join("src"));
    let crates = std::fs::read_dir(real.join("crates")).expect("crates dir");
    for entry in crates {
        let entry = entry.expect("entry");
        if !entry.file_type().expect("file_type").is_dir() {
            continue;
        }
        let src = entry.path().join("src");
        if src.is_dir() {
            copy_rs_tree(
                &src,
                &root.join("crates").join(entry.file_name()).join("src"),
            );
        }
    }
    assert_fix_idempotent(&root, false);
    std::fs::remove_dir_all(&root).ok();
}

/// Copies the `.rs` files of one `src/` tree, preserving layout.
fn copy_rs_tree(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("mkdir");
    for entry in std::fs::read_dir(src).expect("read_dir") {
        let entry = entry.expect("entry");
        let from = entry.path();
        if entry.file_type().expect("file_type").is_dir() {
            copy_rs_tree(&from, &dst.join(entry.file_name()));
        } else if from.extension().is_some_and(|e| e == "rs") {
            std::fs::copy(&from, dst.join(entry.file_name())).expect("copy");
        }
    }
}
