//! W2 `dead-pub`: public items no other crate references.
//!
//! A candidate is a top-level `pub` fn/struct/enum/trait/const/static/
//! type alias in a crate's library source. It is *live* when any file
//! belonging to a different compilation unit — another crate, an
//! integration-test or bench target, a binary, the workspace facade —
//! mentions its name. The check is name-based over the symbol graph's
//! reference sets, which over-approximates liveness (a same-named item
//! elsewhere keeps it alive) but never false-fires on an item that
//! genuinely has external users.
//!
//! Intentional API surface with no in-tree consumer yet keeps the
//! standard escape hatch: `// flow3d-tidy: allow(dead-pub) — <reason>`
//! on (or above) the definition line.

use crate::lints::{Lint, Violation};
use crate::symbols::{DefKind, FileFacts};
use std::collections::BTreeMap;

/// The compilation unit a workspace-relative path belongs to.
///
/// Integration tests, benches, and binaries are distinct units from
/// their crate's library — they consume the library like an external
/// crate does, so their references count as external. A `src/bin/`
/// file is always a binary; `src/main.rs` is one only when `facts`
/// also holds the crate's `src/lib.rs`, and is the crate itself
/// otherwise.
fn unit_of(path: &str, facts: &BTreeMap<String, FileFacts>) -> String {
    let (name, rest) = match path.strip_prefix("crates/") {
        Some(rest) => match rest.split_once('/') {
            Some((name, rest)) => (name, rest),
            None => (rest, ""),
        },
        None => ("flow3d", path),
    };
    let main_beside_lib = rest == "src/main.rs"
        && path
            .strip_suffix("main.rs")
            .is_some_and(|src| facts.contains_key(&format!("{src}lib.rs")));
    if rest.starts_with("tests/") || rest.starts_with("benches/") {
        format!("{name}#tests")
    } else if rest.starts_with("src/bin/") || main_beside_lib {
        format!("{name}#bin")
    } else {
        name.to_string()
    }
}

/// Runs the dead-pub check; returns `(path, violation)` pairs.
pub(crate) fn check_w2(facts: &BTreeMap<String, FileFacts>) -> Vec<(String, Violation)> {
    let units: BTreeMap<&str, String> = facts
        .keys()
        .map(|p| (p.as_str(), unit_of(p, facts)))
        .collect();
    let mut out: Vec<(String, Violation)> = Vec::new();
    for (path, f) in facts {
        let unit = &units[path.as_str()];
        // Test, bench and binary units consume libraries; only a
        // library's own source defines candidates.
        if unit.contains('#') {
            continue;
        }
        for d in &f.defs {
            let candidate = d.is_pub
                && d.name != "main"
                && !d.name.starts_with('_')
                && !matches!(d.kind, DefKind::Mod);
            if !candidate {
                continue;
            }
            let live = facts
                .iter()
                .any(|(p2, f2)| &units[p2.as_str()] != unit && f2.refs.contains(&d.name));
            if !live {
                out.push((
                    path.clone(),
                    Violation {
                        lint: Lint::DeadPub,
                        line: d.line,
                        col: 1,
                        len: d.name.chars().count().max(1) as u32,
                        message: format!(
                            "pub {} `{}` is referenced by no other crate",
                            d.kind.as_str(),
                            d.name
                        ),
                        help: "demote to pub(crate) or private, or keep deliberate API surface with `// flow3d-tidy: allow(dead-pub) — <reason>`"
                            .to_string(),
                    },
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::FilePolicy;
    use crate::symbols::file_facts;

    fn fact_map(entries: &[(&str, &str)]) -> BTreeMap<String, FileFacts> {
        entries
            .iter()
            .map(|(p, src)| (p.to_string(), file_facts(src, &FilePolicy::strict())))
            .collect()
    }

    #[test]
    fn unreferenced_pub_fn_is_dead() {
        let facts = fact_map(&[
            (
                "crates/a/src/lib.rs",
                "pub fn used() {}\npub fn orphan() {}",
            ),
            ("crates/b/src/lib.rs", "fn f() { a::used(); }"),
        ]);
        let v = check_w2(&facts);
        assert_eq!(v.len(), 1);
        assert!(v[0].1.message.contains("`orphan`"));
    }

    #[test]
    fn same_crate_references_do_not_count() {
        let facts = fact_map(&[(
            "crates/a/src/lib.rs",
            "pub fn helper() {}\nfn caller() { helper(); }",
        )]);
        assert_eq!(check_w2(&facts).len(), 1);
    }

    #[test]
    fn integration_tests_and_bins_count_as_external() {
        let facts = fact_map(&[
            (
                "crates/a/src/lib.rs",
                "pub fn tested() {}\npub fn binned() {}",
            ),
            ("crates/a/tests/api.rs", "fn t() { a::tested(); }"),
            ("crates/a/src/bin/tool.rs", "fn main() { a::binned(); }"),
        ]);
        assert!(check_w2(&facts).is_empty());
    }

    /// `table`, read only by its own crate's `main.rs`, is live;
    /// `orphan`, read by nothing, still fires.
    #[test]
    fn own_main_rs_is_a_binary_when_the_crate_has_a_library() {
        let facts = fact_map(&[
            (
                "crates/a/src/lib.rs",
                "pub fn table() {}\npub fn orphan() {}",
            ),
            ("crates/a/src/main.rs", "fn main() { a::table(); }"),
        ]);
        let v = check_w2(&facts);
        assert_eq!(v.len(), 1);
        assert!(v[0].1.message.contains("`orphan`"));
    }

    #[test]
    fn bin_only_crate_main_rs_is_the_crate_itself() {
        let facts = fact_map(&[
            ("crates/c/src/main.rs", "mod cmd;\nfn main() { cmd::go(); }"),
            ("crates/c/src/cmd.rs", "pub fn go() {}"),
        ]);
        let v = check_w2(&facts);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].0, "crates/c/src/cmd.rs");
        assert!(v[0].1.message.contains("`go`"));
    }

    #[test]
    fn private_and_crate_visible_items_are_ignored() {
        let facts = fact_map(&[(
            "crates/a/src/lib.rs",
            "fn private() {}\npub(crate) fn internal() {}\npub mod sub;",
        )]);
        assert!(check_w2(&facts).is_empty());
    }
}
