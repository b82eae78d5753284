//! The tidy lints (D1–D5) and the per-file checking engine.
//!
//! Every lint operates on the flat token stream from `crate::lexer`,
//! with `#[cfg(test)]` / `#[test]` items filtered out first — the lints
//! guard *shipping* code; tests may unwrap and compare floats freely.

use crate::lexer::{lex, LexOutput, MalformedSuppression, Suppression, TokKind, Token};

/// The project lints, in ISSUE order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lint {
    /// D1: `HashMap`/`HashSet` in deterministic crates — iteration order
    /// varies run-to-run (and with the allocator), which is exactly the
    /// nondeterminism the engine's bit-identical contract forbids.
    UnorderedMap,
    /// D2: wall-clock or unseeded-randomness sources in algorithm
    /// crates (`Instant::now`, `SystemTime`, `thread_rng`, …).
    NondetSource,
    /// D3: `unwrap`/`expect`/`panic!`-family in library non-test code.
    PanicUnwrap,
    /// D4: `==`/`!=` against float literals or float constants in
    /// geometry/cost code.
    FloatEq,
    /// D5: a library crate root without `#![forbid(unsafe_code)]`.
    MissingForbidUnsafe,
    /// W1: cross-artifact contract drift — config fields without CLI
    /// flags or docs, wire commands missing from dispatch arms or the
    /// SERVING.md table, metric names the docs don't know about.
    ContractDrift,
    /// W2: a `pub` item no other crate references — dead API surface.
    DeadPub,
    /// W3: a closure passed to `flow3d_par::par_map`-family entry points
    /// that captures shared mutable state (`&mut`, `RefCell`, `Cell`,
    /// `Relaxed` atomics) — nondeterminism the differential harness can
    /// only catch dynamically.
    NondetCapture,
    /// A malformed or reason-less `flow3d-tidy:` suppression comment.
    BadSuppression,
    /// A suppression that matched no violation — stale allows rot.
    UnusedSuppression,
}

/// All suppressible lints, for `--list` and name validation.
pub const ALL_LINTS: &[Lint] = &[
    Lint::UnorderedMap,
    Lint::NondetSource,
    Lint::PanicUnwrap,
    Lint::FloatEq,
    Lint::MissingForbidUnsafe,
    Lint::ContractDrift,
    Lint::DeadPub,
    Lint::NondetCapture,
];

impl Lint {
    /// The short ISSUE-style id (`D1`…`D5`).
    pub fn id(self) -> &'static str {
        match self {
            Lint::UnorderedMap => "D1",
            Lint::NondetSource => "D2",
            Lint::PanicUnwrap => "D3",
            Lint::FloatEq => "D4",
            Lint::MissingForbidUnsafe => "D5",
            Lint::ContractDrift => "W1",
            Lint::DeadPub => "W2",
            Lint::NondetCapture => "W3",
            Lint::BadSuppression => "S1",
            Lint::UnusedSuppression => "S2",
        }
    }

    /// The name used in diagnostics and `allow(...)` lists.
    pub fn name(self) -> &'static str {
        match self {
            Lint::UnorderedMap => "unordered-map",
            Lint::NondetSource => "nondet-source",
            Lint::PanicUnwrap => "panic-unwrap",
            Lint::FloatEq => "float-eq",
            Lint::MissingForbidUnsafe => "missing-forbid-unsafe",
            Lint::ContractDrift => "contract-drift",
            Lint::DeadPub => "dead-pub",
            Lint::NondetCapture => "nondet-capture",
            Lint::BadSuppression => "bad-suppression",
            Lint::UnusedSuppression => "unused-suppression",
        }
    }

    /// Resolves an `allow(...)` name.
    pub fn from_name(name: &str) -> Option<Lint> {
        ALL_LINTS.iter().copied().find(|l| l.name() == name)
    }

    /// One-line rationale, shown by `--list`.
    pub fn rationale(self) -> &'static str {
        match self {
            Lint::UnorderedMap => {
                "HashMap/HashSet iteration order is nondeterministic; use BTreeMap/BTreeSet or sorted Vec"
            }
            Lint::NondetSource => {
                "wall-clock and unseeded RNG make algorithm results irreproducible; keep timing in flow3d-obs"
            }
            Lint::PanicUnwrap => {
                "library code must surface failures as typed errors, not panics; document real invariants"
            }
            Lint::FloatEq => "exact float equality is representation-dependent; compare with a tolerance",
            Lint::MissingForbidUnsafe => "every library crate root must carry #![forbid(unsafe_code)]",
            Lint::ContractDrift => {
                "config knobs, wire commands, and metric names must agree across code, CLI, and docs"
            }
            Lint::DeadPub => {
                "a pub item no other crate references is dead API surface; demote it or allow() with a reason"
            }
            Lint::NondetCapture => {
                "parallel closures must not capture shared mutable state; results must not depend on fan-out order"
            }
            Lint::BadSuppression => "flow3d-tidy suppressions must name a known lint and give a reason",
            Lint::UnusedSuppression => "an allow() that suppresses nothing is stale and must be removed",
        }
    }
}

/// Which lints apply to one file.
#[derive(Debug, Clone, Copy, Default)]
pub struct FilePolicy {
    /// D1 `unordered-map`.
    pub d1: bool,
    /// D2 `nondet-source`.
    pub d2: bool,
    /// D3 `panic-unwrap`.
    pub d3: bool,
    /// D4 `float-eq`.
    pub d4: bool,
    /// D5 `missing-forbid-unsafe` (only meaningful with `crate_root`).
    pub d5: bool,
    /// W3 `nondet-capture` on `flow3d_par` closure arguments.
    pub w3: bool,
    /// `true` for a crate root (`src/lib.rs`) where D5 is checked.
    pub crate_root: bool,
}

impl FilePolicy {
    /// Everything on — used for fixtures and unknown future crates.
    pub fn strict() -> Self {
        FilePolicy {
            d1: true,
            d2: true,
            d3: true,
            d4: true,
            d5: true,
            w3: true,
            crate_root: false,
        }
    }
}

/// One lint finding in one file.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which lint fired.
    pub lint: Lint,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Length of the offending token(s), for the diagnostic caret.
    pub len: u32,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub help: String,
}

pub(crate) fn violation(lint: Lint, tok: &Token, message: String, help: String) -> Violation {
    Violation {
        lint,
        line: tok.line,
        col: tok.col,
        len: tok.text.chars().count().max(1) as u32,
        message,
        help,
    }
}

pub(crate) fn suppress_hint(lint: Lint) -> String {
    format!(
        "or suppress with `// flow3d-tidy: allow({}) — <reason>`",
        lint.name()
    )
}

/// Drops tokens belonging to `#[cfg(test)]` / `#[test]` / `#[bench]`
/// items (attribute included) so the lints only see shipping code.
///
/// The skip is purely token-structural: after a test attribute, the next
/// item is consumed up to its closing `}` (brace-counted) or `;`,
/// whichever comes first at nesting depth zero. Intervening attributes
/// on the same item are consumed too.
pub(crate) fn strip_test_items(tokens: &[Token]) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0usize;
    while i < tokens.len() {
        if tokens[i].is_punct("#") && is_test_attr(tokens, i) {
            i = skip_attr(tokens, i);
            // Consume any further attributes attached to the same item.
            while i < tokens.len() && tokens[i].is_punct("#") {
                i = skip_attr(tokens, i);
            }
            i = skip_item(tokens, i);
            continue;
        }
        out.push(tokens[i].clone());
        i += 1;
    }
    out
}

/// `true` if the attribute starting at `tokens[i] == '#'` marks a
/// test-only item: `#[test]`, `#[bench]`, or `#[cfg(... test ...)]`
/// (without a `not`). `#[cfg_attr(test, …)]` does NOT count — the item
/// it decorates still ships.
fn is_test_attr(tokens: &[Token], i: usize) -> bool {
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_punct("!")) {
        j += 1; // inner attribute form
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct("[")) {
        return false;
    }
    let mut idents: Vec<&str> = Vec::new();
    let mut depth = 0i32;
    for tok in &tokens[j..] {
        if tok.is_punct("[") {
            depth += 1;
        } else if tok.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if tok.kind == TokKind::Ident {
            idents.push(tok.text.as_str());
        }
    }
    match idents.first() {
        Some(&"test") | Some(&"bench") if idents.len() == 1 => true,
        Some(&"cfg") => idents.contains(&"test") && !idents.contains(&"not"),
        _ => false,
    }
}

/// `true` if the file opens with an inner `#![cfg(test)]`-style
/// attribute, gating everything in it to test builds.
pub(crate) fn file_gated_to_tests(tokens: &[Token]) -> bool {
    let mut i = 0usize;
    while tokens.get(i).is_some_and(|t| t.is_punct("#"))
        && tokens.get(i + 1).is_some_and(|t| t.is_punct("!"))
    {
        if is_test_attr(tokens, i) {
            return true;
        }
        i = skip_attr(tokens, i);
    }
    false
}

/// Skips one `#[...]` attribute; returns the index after its `]`.
pub(crate) fn skip_attr(tokens: &[Token], i: usize) -> usize {
    let mut j = i + 1;
    if tokens.get(j).is_some_and(|t| t.is_punct("!")) {
        j += 1;
    }
    if !tokens.get(j).is_some_and(|t| t.is_punct("[")) {
        return i + 1;
    }
    let mut depth = 0i32;
    while j < tokens.len() {
        if tokens[j].is_punct("[") {
            depth += 1;
        } else if tokens[j].is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    tokens.len()
}

/// Skips one item starting at `i`: up to the matching `}` of its first
/// top-level brace, or past the first top-level `;`.
fn skip_item(tokens: &[Token], i: usize) -> usize {
    let mut j = i;
    let mut depth = 0i32;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        } else if t.is_punct(";") && depth == 0 {
            return j + 1;
        }
        j += 1;
    }
    tokens.len()
}

/// Checks one file's source against `policy`; returns the surviving
/// violations (suppressions already applied, suppression problems
/// reported as violations themselves).
pub fn check_file(src: &str, policy: &FilePolicy) -> Vec<Violation> {
    let (raw, lexed) = check_file_raw(src, policy);
    apply_suppressions(raw, &lexed.suppressions, &lexed.malformed)
}

/// [`check_file`] without the suppression pass: returns the raw per-file
/// violations plus the lex output, so workspace-level lints (W1/W2) can
/// add their findings before suppressions are applied once for the file.
pub(crate) fn check_file_raw(src: &str, policy: &FilePolicy) -> (Vec<Violation>, LexOutput) {
    let lexed = lex(src);
    let mut raw: Vec<Violation> = Vec::new();

    // A `#![cfg(test)]` inner attribute gates the entire file.
    let tokens = if file_gated_to_tests(&lexed.tokens) {
        Vec::new()
    } else {
        strip_test_items(&lexed.tokens)
    };

    check_d1(&tokens, policy, &mut raw);
    check_d2(&tokens, policy, &mut raw);
    check_d3(&tokens, policy, &mut raw);
    check_d4(&tokens, policy, &mut raw);
    check_d5(&lexed.tokens, policy, &mut raw);
    if policy.w3 {
        crate::capture::check_w3(&tokens, &mut raw);
    }

    (raw, lexed)
}

fn check_d1(tokens: &[Token], policy: &FilePolicy, out: &mut Vec<Violation>) {
    if !policy.d1 {
        return;
    }
    for tok in tokens {
        if tok.kind == TokKind::Ident && (tok.text == "HashMap" || tok.text == "HashSet") {
            let ordered = if tok.text == "HashMap" {
                "BTreeMap"
            } else {
                "BTreeSet"
            };
            out.push(violation(
                Lint::UnorderedMap,
                tok,
                format!("`{}` has nondeterministic iteration order", tok.text),
                format!(
                    "use `{ordered}` or a sorted `Vec`; {}",
                    suppress_hint(Lint::UnorderedMap)
                ),
            ));
        }
    }
}

fn check_d2(tokens: &[Token], policy: &FilePolicy, out: &mut Vec<Violation>) {
    if !policy.d2 {
        return;
    }
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != TokKind::Ident {
            continue;
        }
        let hit = match tok.text.as_str() {
            "SystemTime" | "thread_rng" | "from_entropy" => true,
            "Instant" => {
                tokens.get(i + 1).is_some_and(|t| t.is_punct("::"))
                    && tokens.get(i + 2).is_some_and(|t| t.is_ident("now"))
            }
            "random" => i >= 2 && tokens[i - 1].is_punct("::") && tokens[i - 2].is_ident("rand"),
            _ => false,
        };
        if hit {
            out.push(violation(
                Lint::NondetSource,
                tok,
                format!("`{}` is a nondeterministic source in algorithm code", tok.text),
                format!(
                    "thread timing through `flow3d_obs::Profile` hooks and randomness through a seeded RNG; {}",
                    suppress_hint(Lint::NondetSource)
                ),
            ));
        }
    }
}

fn check_d3(tokens: &[Token], policy: &FilePolicy, out: &mut Vec<Violation>) {
    if !policy.d3 {
        return;
    }
    for (i, tok) in tokens.iter().enumerate() {
        if tok.kind != TokKind::Ident {
            continue;
        }
        let prev_dot = i > 0 && tokens[i - 1].is_punct(".");
        let next_paren = tokens.get(i + 1).is_some_and(|t| t.is_punct("("));
        let next_bang = tokens.get(i + 1).is_some_and(|t| t.is_punct("!"));
        let (hit, what) = match tok.text.as_str() {
            "unwrap" | "expect" if prev_dot && next_paren => (true, format!(".{}()", tok.text)),
            "panic" | "unreachable" | "todo" | "unimplemented" if next_bang => {
                (true, format!("{}!", tok.text))
            }
            _ => (false, String::new()),
        };
        if hit {
            out.push(violation(
                Lint::PanicUnwrap,
                tok,
                format!("`{what}` in library non-test code"),
                format!(
                    "return a typed error (`Flow3dError`/crate error enum) instead; for a documented invariant, suppress with `// flow3d-tidy: allow({}) — <reason>`",
                    Lint::PanicUnwrap.name()
                ),
            ));
        }
    }
}

fn check_d4(tokens: &[Token], policy: &FilePolicy, out: &mut Vec<Violation>) {
    if !policy.d4 {
        return;
    }
    const FLOAT_CONSTS: &[&str] = &["INFINITY", "NEG_INFINITY", "NAN", "EPSILON"];
    for (i, tok) in tokens.iter().enumerate() {
        if !(tok.is_punct("==") || tok.is_punct("!=")) {
            continue;
        }
        let prev = i.checked_sub(1).and_then(|j| tokens.get(j));
        let next = tokens.get(i + 1);
        let float_side = prev.is_some_and(|t| t.kind == TokKind::Float)
            || next.is_some_and(|t| t.kind == TokKind::Float)
            || prev.is_some_and(|t| {
                t.kind == TokKind::Ident && FLOAT_CONSTS.contains(&t.text.as_str())
            })
            || (next.is_some_and(|t| t.is_ident("f32") || t.is_ident("f64"))
                && tokens.get(i + 2).is_some_and(|t| t.is_punct("::")));
        if float_side {
            out.push(violation(
                Lint::FloatEq,
                tok,
                format!("float `{}` comparison in geometry/cost code", tok.text),
                format!(
                    "compare with an explicit tolerance or restructure the predicate; {}",
                    suppress_hint(Lint::FloatEq)
                ),
            ));
        }
    }
}

fn check_d5(all_tokens: &[Token], policy: &FilePolicy, out: &mut Vec<Violation>) {
    if !(policy.d5 && policy.crate_root) {
        return;
    }
    let found = all_tokens.windows(8).any(|w| {
        w[0].is_punct("#")
            && w[1].is_punct("!")
            && w[2].is_punct("[")
            && w[3].is_ident("forbid")
            && w[4].is_punct("(")
            && w[5].is_ident("unsafe_code")
            && w[6].is_punct(")")
            && w[7].is_punct("]")
    });
    if !found {
        out.push(Violation {
            lint: Lint::MissingForbidUnsafe,
            line: 1,
            col: 1,
            len: 1,
            message: "library crate root lacks `#![forbid(unsafe_code)]`".to_string(),
            help: "add `#![forbid(unsafe_code)]` at the top of the crate root (auto-fixable with --fix)"
                .to_string(),
        });
    }
}

/// The source line the `#![forbid(unsafe_code)]` auto-fix inserts.
pub(crate) const FORBID_UNSAFE_LINE: &str = "#![forbid(unsafe_code)]";

/// The D5 mechanical rewrite: prepends `#![forbid(unsafe_code)]` to a
/// crate root that lacks it. Returns `None` when the file already
/// carries the attribute as a line of its own — a doc comment that
/// merely *mentions* the attribute must not defuse the fix.
pub(crate) fn fix_missing_forbid(src: &str) -> Option<String> {
    if src
        .lines()
        .any(|l| l.trim_start().starts_with(FORBID_UNSAFE_LINE))
    {
        return None;
    }
    Some(format!("{FORBID_UNSAFE_LINE}\n{src}"))
}

/// Applies suppression comments: a `// flow3d-tidy: allow(name) — reason`
/// covers matching violations on its own line and the next line.
/// Reason-less or malformed suppressions, unknown lint names, and allows
/// that match nothing become violations themselves.
pub(crate) fn apply_suppressions(
    raw: Vec<Violation>,
    suppressions: &[Suppression],
    malformed: &[MalformedSuppression],
) -> Vec<Violation> {
    let mut used = vec![false; suppressions.len()];
    let mut out: Vec<Violation> = Vec::new();

    for v in raw {
        let mut suppressed = false;
        for (si, s) in suppressions.iter().enumerate() {
            if !(s.line == v.line || s.line + 1 == v.line) {
                continue;
            }
            if s.lints.iter().any(|n| n == v.lint.name()) {
                used[si] = true;
                if s.has_reason {
                    suppressed = true;
                }
                // A reason-less allow does NOT suppress: the violation
                // stays and the bad suppression is reported below.
            }
        }
        if !suppressed {
            out.push(v);
        }
    }

    for (si, s) in suppressions.iter().enumerate() {
        if !s.has_reason {
            out.push(Violation {
                lint: Lint::BadSuppression,
                line: s.line,
                col: s.col,
                len: 1,
                message: "suppression without a reason".to_string(),
                help: "write `// flow3d-tidy: allow(<lint>) — <why this is sound>`".to_string(),
            });
        }
        for name in &s.lints {
            if Lint::from_name(name).is_none() {
                out.push(Violation {
                    lint: Lint::BadSuppression,
                    line: s.line,
                    col: s.col,
                    len: 1,
                    message: format!("unknown lint `{name}` in allow()"),
                    help: format!(
                        "known lints: {}",
                        ALL_LINTS
                            .iter()
                            .map(|l| l.name())
                            .collect::<Vec<_>>()
                            .join(", ")
                    ),
                });
            }
        }
        if s.has_reason && !used[si] && s.lints.iter().all(|n| Lint::from_name(n).is_some()) {
            out.push(Violation {
                lint: Lint::UnusedSuppression,
                line: s.line,
                col: s.col,
                len: 1,
                message: "suppression matches no violation".to_string(),
                help: "remove the stale `flow3d-tidy: allow(...)` comment".to_string(),
            });
        }
    }

    for m in malformed {
        out.push(Violation {
            lint: Lint::BadSuppression,
            line: m.line,
            col: m.col,
            len: 1,
            message: format!("malformed flow3d-tidy comment: {}", m.why),
            help: "write `// flow3d-tidy: allow(<lint>) — <reason>`".to_string(),
        });
    }

    out.sort_by_key(|v| (v.line, v.col, v.lint));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strict(src: &str) -> Vec<Violation> {
        check_file(src, &FilePolicy::strict())
    }

    #[test]
    fn d1_flags_hashmap_and_hashset() {
        let v = strict(
            "use std::collections::HashMap;\nfn f() { let s: HashSet<u32> = Default::default(); }",
        );
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|v| v.lint == Lint::UnorderedMap));
    }

    #[test]
    fn d2_flags_instant_now_but_not_bare_instant() {
        let v = strict("fn f() { let t = Instant::now(); }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, Lint::NondetSource);
        assert!(strict("fn f(t: Instant) -> Instant { t }").is_empty());
    }

    #[test]
    fn d3_flags_unwrap_expect_and_panics() {
        let v = strict("fn f(x: Option<u32>) -> u32 { x.unwrap() + x.expect(\"y\") }");
        assert_eq!(v.len(), 2);
        let v = strict("fn f() { panic!(\"boom\"); }");
        assert_eq!(v.len(), 1);
        // unwrap_or / unwrap_or_else are fine.
        assert!(strict("fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }").is_empty());
        // `expect` not in method position is fine.
        assert!(strict("fn expect(x: u32) -> u32 { x }").is_empty());
    }

    #[test]
    fn d4_flags_float_literal_comparisons() {
        assert_eq!(strict("fn f(x: f64) -> bool { x == 0.0 }").len(), 1);
        assert_eq!(strict("fn f(x: f64) -> bool { 1.5 != x }").len(), 1);
        assert_eq!(
            strict("fn f(x: f64) -> bool { x == f64::INFINITY }").len(),
            1
        );
        assert!(strict("fn f(x: i64) -> bool { x == 0 }").is_empty());
    }

    #[test]
    fn d5_checks_crate_roots_only() {
        let mut p = FilePolicy::strict();
        p.crate_root = true;
        let v = check_file("pub fn f() {}", &p);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, Lint::MissingForbidUnsafe);
        assert!(check_file("#![forbid(unsafe_code)]\npub fn f() {}", &p).is_empty());
        assert!(strict("pub fn f() {}").is_empty());
    }

    #[test]
    fn d5_fix_inserts_attribute() {
        let fixed = fix_missing_forbid("//! Docs.\npub fn f() {}").expect("needs fix");
        assert!(fixed.starts_with("#![forbid(unsafe_code)]\n"));
        assert!(fix_missing_forbid(&fixed).is_none());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "pub fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { None::<u32>.unwrap(); }\n}\n";
        assert!(strict(src).is_empty());
        // …but the same call outside the test mod fires.
        let src = "pub fn f() { None::<u32>.unwrap(); }";
        assert_eq!(strict(src).len(), 1);
    }

    #[test]
    fn code_after_test_mod_is_still_checked() {
        let src = "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\npub fn g(y: Option<u32>) -> u32 { y.unwrap() }\n";
        let v = strict(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn suppression_with_reason_silences() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // flow3d-tidy: allow(panic-unwrap) — checked non-empty above\n    x.unwrap()\n}\n";
        assert!(strict(src).is_empty());
        // Same-line form.
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // flow3d-tidy: allow(panic-unwrap) — invariant\n";
        assert!(strict(src).is_empty());
    }

    #[test]
    fn reasonless_suppression_keeps_violation_and_reports_itself() {
        let src = "fn f(x: Option<u32>) -> u32 {\n    // flow3d-tidy: allow(panic-unwrap)\n    x.unwrap()\n}\n";
        let v = strict(src);
        assert_eq!(v.len(), 2);
        assert!(v.iter().any(|v| v.lint == Lint::PanicUnwrap));
        assert!(v.iter().any(|v| v.lint == Lint::BadSuppression));
    }

    #[test]
    fn unused_suppression_is_reported() {
        let src = "// flow3d-tidy: allow(panic-unwrap) — but nothing here panics\nfn f() {}\n";
        let v = strict(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, Lint::UnusedSuppression);
    }

    #[test]
    fn unknown_lint_name_is_reported() {
        let src = "// flow3d-tidy: allow(no-such-lint) — whatever\nfn f() {}\n";
        let v = strict(src);
        assert!(v.iter().any(|v| v.lint == Lint::BadSuppression));
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src =
            "fn f() -> &'static str { \"HashMap Instant::now() .unwrap() panic!\" } // HashMap\n";
        assert!(strict(src).is_empty());
    }
}
