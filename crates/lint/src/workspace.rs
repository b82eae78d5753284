//! Workspace discovery and the tidy run driver: which files to check,
//! which lints apply to each crate, the symbol-graph cache, and the
//! `--fix` rewrites.

use crate::diag::FileViolation;
use crate::lexer::LexOutput;
use crate::lints::{apply_suppressions, fix_missing_forbid, FilePolicy, Lint, Violation};
use crate::symbols::{self, FileFacts};
use crate::{contracts, deadpub};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The result of one tidy run over the workspace.
#[derive(Debug, Default)]
// flow3d-tidy: allow(dead-pub) — returned by the re-exported `run` entry point; drivers consume it field-wise
pub struct TidyReport {
    /// Surviving violations, in (path, line, col) order.
    pub violations: Vec<FileViolation>,
    /// How many `.rs` files were lexed and checked.
    pub files_checked: usize,
    /// Paths rewritten by `--fix`.
    pub fixed: Vec<String>,
    /// Files (checked + reference-only) served from the symbol cache.
    pub cache_hits: usize,
    /// Files that participated in the symbol cache this run.
    pub cache_total: usize,
}

impl TidyReport {
    /// `true` when the tree is tidy.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Per-crate lint switches. Derived from the crate's role; unknown
/// (future) crates default to the strictest profile so new code is
/// gated from day one.
fn crate_policy(dir_name: &str) -> FilePolicy {
    let mut p = FilePolicy {
        d1: true,
        d2: true,
        d3: true,
        d4: false,
        d5: true,
        w3: true,
        crate_root: false,
    };
    // D4 (float-eq) targets geometry/cost arithmetic, where an exact
    // comparison is almost always a latent tolerance bug.
    if matches!(
        dir_name,
        "geom" | "core" | "metrics" | "baselines" | "gp" | "mcmf" | "gen" | "db"
    ) {
        p.d4 = true;
    }
    match dir_name {
        // Profiling is obs's whole purpose: wall-clock is allowed there
        // (and only there) — results never flow back into algorithms.
        "obs" => p.d2 = false,
        // Binaries and the bench harness time things and may exit on
        // bad input; the determinism lints still apply to them.
        "bench" | "cli" => {
            p.d2 = false;
            p.d3 = false;
        }
        // The server times request latency (operational telemetry that
        // never feeds an algorithm), so D2 stays off; D3 (panic-unwrap)
        // applies in full — the serve layer surfaces failures as typed
        // wire errors, with reasoned allows at documented invariants.
        "serve" => p.d2 = false,
        _ => {}
    }
    // Unknown crates: everything on, including float-eq.
    if !matches!(
        dir_name,
        "flow3d"
            | "geom"
            | "db"
            | "mcmf"
            | "io"
            | "gen"
            | "gp"
            | "metrics"
            | "obs"
            | "par"
            | "core"
            | "baselines"
            | "viz"
            | "cli"
            | "bench"
            | "lint"
            | "serve"
    ) {
        p.d4 = true;
    }
    p
}

/// One file scheduled for checking.
#[derive(Debug)]
struct FileTask {
    path: PathBuf,
    rel: String,
    policy: FilePolicy,
}

/// Walks up from `start` to the directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Collects every file to lint under `root`, in deterministic order:
/// the facade crate's `src/`, then each `crates/<name>/src/` sorted by
/// name. `vendor/`, `target/`, per-crate `tests/`/`benches/`/
/// `examples/`, and fixture directories never participate.
fn discover(root: &Path) -> io::Result<Vec<FileTask>> {
    let mut tasks = Vec::new();
    // The facade crate.
    collect_src(root, &root.join("src"), crate_policy("flow3d"), &mut tasks)?;
    // Workspace member crates.
    let crates_dir = root.join("crates");
    let mut names: Vec<String> = Vec::new();
    for entry in fs::read_dir(&crates_dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            names.push(entry.file_name().to_string_lossy().into_owned());
        }
    }
    names.sort();
    for name in names {
        let src = crates_dir.join(&name).join("src");
        collect_src(root, &src, crate_policy(&name), &mut tasks)?;
    }
    Ok(tasks)
}

/// Recursively collects `.rs` files under one crate's `src/`, marking
/// `src/lib.rs` as the crate root for D5.
fn collect_src(
    root: &Path,
    src: &Path,
    policy: FilePolicy,
    tasks: &mut Vec<FileTask>,
) -> io::Result<()> {
    if !src.is_dir() {
        return Ok(());
    }
    let mut stack = vec![src.to_path_buf()];
    let mut files: Vec<PathBuf> = Vec::new();
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            if entry.file_type()?.is_dir() {
                // `src/` should not contain test trees, but be explicit.
                let name = entry.file_name();
                if name != "fixtures" && name != "tests" {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                files.push(path);
            }
        }
    }
    files.sort();
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect::<Vec<_>>()
            .join("/");
        let mut policy = policy;
        policy.crate_root = path == src.join("lib.rs");
        tasks.push(FileTask { path, rel, policy });
    }
    Ok(())
}

/// Collects reference-only `.rs` files — integration tests, benches,
/// and a root-level `tests/` tree. They are never linted, but their
/// identifier references feed the W2 dead-pub liveness check (an
/// integration test consumes the library exactly like an external
/// crate would).
fn discover_refs(root: &Path) -> io::Result<Vec<(PathBuf, String)>> {
    let mut dirs: Vec<PathBuf> = vec![root.join("tests"), root.join("benches")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut names: Vec<String> = Vec::new();
        for entry in fs::read_dir(&crates_dir)? {
            let entry = entry?;
            if entry.file_type()?.is_dir() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        for name in names {
            dirs.push(crates_dir.join(&name).join("tests"));
            dirs.push(crates_dir.join(&name).join("benches"));
        }
    }
    let mut files: Vec<PathBuf> = Vec::new();
    for dir in dirs {
        if !dir.is_dir() {
            continue;
        }
        let mut stack = vec![dir];
        while let Some(d) = stack.pop() {
            for entry in fs::read_dir(&d)? {
                let entry = entry?;
                let path = entry.path();
                if entry.file_type()?.is_dir() {
                    if entry.file_name() != "fixtures" {
                        stack.push(path);
                    }
                } else if path.extension().is_some_and(|e| e == "rs") {
                    files.push(path);
                }
            }
        }
    }
    files.sort();
    Ok(files
        .into_iter()
        .map(|path| {
            let rel = rel_path(root, &path);
            (path, rel)
        })
        .collect())
}

/// Workspace-relative path with `/` separators.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Location of the symbol-graph cache for the workspace at `root`.
fn cache_path(root: &Path) -> PathBuf {
    root.join("target").join("flow3d-tidy-cache.tsv")
}

/// The doc files the W1 contract lint reads alongside the source.
const CONTRACT_DOCS: &[&str] = &["README.md", "EXPERIMENTS.md", "SERVING.md"];

/// Runs the tidy pass over the workspace at `root`. With `fix`, applies
/// the mechanical D5 rewrite in place and re-checks the patched files so
/// fixed violations do not appear in the report.
///
/// Per-file lexing and fact extraction are served from the content-hash
/// cache under `target/` when the file (and its policy) are unchanged;
/// the workspace-level lints (W1/W2) always re-run over the facts — they
/// are cross-file by construction, so no single file's hash can witness
/// their inputs.
pub fn run(root: &Path, fix: bool) -> io::Result<TidyReport> {
    let mut report = TidyReport::default();
    let tasks = discover(root)?;
    let refs = discover_refs(root)?;
    let cache = symbols::load_cache(&cache_path(root));
    let mut facts: BTreeMap<String, FileFacts> = BTreeMap::new();
    let mut contents: BTreeMap<String, String> = BTreeMap::new();

    for task in &tasks {
        let mut src = fs::read_to_string(&task.path)?;
        report.files_checked += 1;
        report.cache_total += 1;
        let mut hash = symbols::policy_hash(&src, &task.policy);
        let mut f = match cache.get(&task.rel) {
            Some(cached) if cached.hash == hash => {
                report.cache_hits += 1;
                cached.clone()
            }
            _ => symbols::file_facts(&src, &task.policy, hash),
        };
        if fix && f.raw.iter().any(|v| v.lint == Lint::MissingForbidUnsafe) {
            if let Some(fixed) = fix_missing_forbid(&src) {
                fs::write(&task.path, &fixed)?;
                report.fixed.push(task.rel.clone());
                src = fixed;
                hash = symbols::policy_hash(&src, &task.policy);
                f = symbols::file_facts(&src, &task.policy, hash);
            }
        }
        contents.insert(task.rel.clone(), src);
        facts.insert(task.rel.clone(), f);
    }

    // Reference-only files: facts for the symbol graph, no lint pass.
    let ref_policy = FilePolicy::default();
    for (path, rel) in &refs {
        let src = fs::read_to_string(path)?;
        report.cache_total += 1;
        let hash = symbols::policy_hash(&src, &ref_policy);
        let f = match cache.get(rel) {
            Some(cached) if cached.hash == hash => {
                report.cache_hits += 1;
                cached.clone()
            }
            _ => symbols::file_facts(&src, &ref_policy, hash),
        };
        facts.insert(rel.clone(), f);
    }

    let mut docs: BTreeMap<String, String> = BTreeMap::new();
    for name in CONTRACT_DOCS {
        if let Ok(text) = fs::read_to_string(root.join(name)) {
            docs.insert((*name).to_string(), text);
        }
    }

    // Workspace-level lints over the assembled symbol graph.
    let mut extra: BTreeMap<String, Vec<Violation>> = BTreeMap::new();
    for (path, v) in contracts::check_w1(&facts, &docs)
        .into_iter()
        .chain(deadpub::check_w2(&facts))
    {
        extra.entry(path).or_default().push(v);
    }

    // Per-file suppression pass over combined (per-file + workspace)
    // findings, then snippet assembly.
    for task in &tasks {
        let f = &facts[&task.rel];
        let mut raw = f.raw.clone();
        if let Some(ws) = extra.remove(&task.rel) {
            raw.extend(ws);
        }
        let lexed = LexOutput {
            tokens: Vec::new(),
            suppressions: f.suppressions.clone(),
            malformed: f.malformed.clone(),
        };
        let violations = apply_suppressions(raw, &lexed);
        if violations.is_empty() {
            continue;
        }
        let src = &contents[&task.rel];
        let lines: Vec<&str> = src.lines().collect();
        for v in violations {
            let snippet = lines
                .get(v.line.saturating_sub(1) as usize)
                .map(|s| (*s).to_string())
                .unwrap_or_default();
            report.violations.push(FileViolation {
                path: task.rel.clone(),
                snippet,
                v,
            });
        }
    }

    // Doc-anchored findings (SERVING.md rows etc.) have no suppression
    // mechanism — they pass through, sorted per file.
    for (path, mut vs) in extra {
        vs.sort_by_key(|v| (v.line, v.col, v.lint));
        let lines: Vec<&str> = docs
            .get(&path)
            .map(|d| d.lines().collect())
            .unwrap_or_default();
        for v in vs {
            let snippet = lines
                .get(v.line.saturating_sub(1) as usize)
                .map(|s| (*s).to_string())
                .unwrap_or_default();
            report.violations.push(FileViolation {
                path: path.clone(),
                snippet,
                v,
            });
        }
    }

    // Cache write failures are non-fatal: the next run just re-lexes.
    let _ = symbols::save_cache(&cache_path(root), &facts);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_profiles() {
        assert!(crate_policy("core").d4, "core compares costs");
        assert!(!crate_policy("obs").d2, "obs is the profiling layer");
        assert!(!crate_policy("cli").d3, "the binary may exit on bad input");
        assert!(crate_policy("cli").d1, "determinism applies everywhere");
        let serve = crate_policy("serve");
        assert!(!serve.d2, "the server times request latency");
        assert!(
            serve.d3,
            "panic-unwrap applies to serve: failures become typed wire errors"
        );
        assert!(
            serve.d1 && serve.d5 && serve.w3,
            "determinism, no-unsafe, and capture hygiene still apply"
        );
        let future = crate_policy("brand-new-crate");
        assert!(future.d1 && future.d2 && future.d3 && future.d4 && future.d5 && future.w3);
    }

    #[test]
    fn finds_the_workspace_root() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        assert!(root.join("crates").is_dir());
        assert!(root.join("Cargo.toml").is_file());
    }

    #[test]
    fn discovery_is_deterministic_and_excludes_vendor() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = find_workspace_root(here).expect("workspace root");
        let a = discover(&root).expect("discover");
        let b = discover(&root).expect("discover");
        let rels = |ts: &[FileTask]| ts.iter().map(|t| t.rel.clone()).collect::<Vec<_>>();
        assert_eq!(rels(&a), rels(&b));
        assert!(a.iter().all(|t| !t.rel.starts_with("vendor/")));
        assert!(a.iter().all(|t| !t.rel.contains("/tests/")));
        assert!(a.iter().any(|t| t.rel == "crates/core/src/driver.rs"));
        assert!(a
            .iter()
            .any(|t| t.rel == "crates/core/src/lib.rs" && t.policy.crate_root));
        assert!(a
            .iter()
            .any(|t| t.rel == "crates/core/src/driver.rs" && !t.policy.crate_root));
    }
}
