//! W3 `nondet-capture`: closures handed to the `flow3d-par` fan-out
//! entry points must not smuggle shared mutable state.
//!
//! The workspace's bit-identical-under-threads guarantee rests on
//! parallel closures being pure functions of their index argument plus
//! worker-local state (the pool/init arguments of
//! `par_map_with`/`par_map_with_pool`). This pass finds every call to
//! `par_map`, `par_map_with`, or `par_map_with_pool`, locates the
//! closure literals in the argument list (following a bare-identifier
//! argument back to its `let name = |…|` definition in the same file),
//! and flags captures that can make the fan-out order observable:
//! `&mut` borrows of bindings the closure does not declare itself,
//! `RefCell`/`Cell` interior mutability, `.borrow_mut()` calls, and
//! `Relaxed` atomic orderings.
//!
//! Bindings introduced *inside* the closure — parameters, `let`
//! patterns, `for` loop variables, nested-closure parameters — are
//! exempt: `let mut items = Vec::new()` per invocation is worker-local
//! by construction.

use crate::lexer::{TokKind, Token};
use crate::lints::{suppress_hint, violation, Lint, Violation};
use std::collections::BTreeSet;

/// The `flow3d_par` entry points whose closure arguments are checked.
const PAR_ENTRY_POINTS: &[&str] = &["par_map", "par_map_with", "par_map_with_pool"];

/// Runs the W3 check over one file's (test-stripped) token stream.
pub(crate) fn check_w3(tokens: &[Token], out: &mut Vec<Violation>) {
    for i in 0..tokens.len() {
        let tok = &tokens[i];
        if tok.kind == TokKind::Ident
            && PAR_ENTRY_POINTS.contains(&tok.text.as_str())
            && tokens.get(i + 1).is_some_and(|t| t.is_punct("("))
        {
            let close = matching(tokens, i + 1, "(", ")");
            check_call_args(tokens, &tok.text, i + 2, close, out);
        }
    }
}

/// Index of the token closing the bracket opened at `open` (or `len`).
fn matching(tokens: &[Token], open: usize, l: &str, r: &str) -> usize {
    let mut depth = 0i32;
    for (j, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct(l) {
            depth += 1;
        } else if t.is_punct(r) {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    tokens.len()
}

/// Walks the argument list of one `par_map*` call and analyzes every
/// closure argument (literal or resolved bare identifier).
fn check_call_args(
    tokens: &[Token],
    entry: &str,
    start: usize,
    end: usize,
    out: &mut Vec<Violation>,
) {
    let mut j = start;
    let mut arg_start = true;
    let mut depth = 0i32;
    while j < end {
        let t = &tokens[j];
        if arg_start && depth == 0 {
            if let Some(past) = closure_at(tokens, j) {
                analyze_closure(tokens, entry, j, out);
                j = past;
                arg_start = false;
                continue;
            }
            // A bare identifier naming a closure defined earlier in the
            // same file: `let work = |…| …; par_map(t, n, work)`.
            if t.kind == TokKind::Ident
                && tokens
                    .get(j + 1)
                    .is_none_or(|n| n.is_punct(",") || n.is_punct(")"))
            {
                if let Some(def) = find_let_closure(tokens, &t.text) {
                    analyze_closure(tokens, entry, def, out);
                }
            }
        }
        arg_start = false;
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
        } else if t.is_punct(",") && depth == 0 {
            arg_start = true;
        }
        j += 1;
    }
}

/// If a closure literal starts at `i` (`|…|`, `||`, or `move` + either),
/// returns the index just past its body.
fn closure_at(tokens: &[Token], i: usize) -> Option<usize> {
    let mut k = i;
    if tokens.get(k).is_some_and(|t| t.is_ident("move")) {
        k += 1;
    }
    let t = tokens.get(k)?;
    if !(t.is_punct("|") || t.is_punct("||")) {
        return None;
    }
    let (_, _, past) = closure_extent(tokens, i)?;
    Some(past)
}

/// Splits a closure literal starting at `i` into parameter and body
/// token ranges; returns `(params, body, past_end)`.
#[allow(clippy::type_complexity)]
fn closure_extent(tokens: &[Token], i: usize) -> Option<((usize, usize), (usize, usize), usize)> {
    let mut k = i;
    if tokens.get(k).is_some_and(|t| t.is_ident("move")) {
        k += 1;
    }
    let params;
    let mut b;
    if tokens.get(k)?.is_punct("||") {
        params = (k, k);
        b = k + 1;
    } else if tokens.get(k)?.is_punct("|") {
        let mut k2 = k + 1;
        while k2 < tokens.len() && !tokens[k2].is_punct("|") {
            k2 += 1;
        }
        params = (k + 1, k2.min(tokens.len()));
        b = k2 + 1;
    } else {
        return None;
    }
    // Skip an explicit return type: `|x| -> T { … }`.
    if tokens.get(b).is_some_and(|t| t.is_punct("->")) {
        while b < tokens.len() && !tokens[b].is_punct("{") {
            b += 1;
        }
    }
    if tokens.get(b).is_some_and(|t| t.is_punct("{")) {
        let close = matching(tokens, b, "{", "}");
        return Some((params, (b + 1, close), close + 1));
    }
    // Expression body: runs to the `,` or closing bracket of the
    // enclosing argument list.
    let mut depth = 0i32;
    let mut j = b;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            if depth == 0 {
                break;
            }
            depth -= 1;
        } else if t.is_punct(",") && depth == 0 {
            break;
        }
        j += 1;
    }
    Some((params, (b, j), j))
}

/// Finds `let [mut] NAME = [move] |…|` in the file; returns the index
/// of the closure literal (the `move` or pipe token).
fn find_let_closure(tokens: &[Token], name: &str) -> Option<usize> {
    for (j, t) in tokens.iter().enumerate() {
        if !t.is_ident("let") {
            continue;
        }
        let mut k = j + 1;
        if tokens.get(k).is_some_and(|t| t.is_ident("mut")) {
            k += 1;
        }
        if !tokens.get(k).is_some_and(|t| t.is_ident(name)) {
            continue;
        }
        k += 1;
        // Skip a `: Type` annotation up to the `=`.
        while k < tokens.len() && !tokens[k].is_punct("=") && !tokens[k].is_punct(";") {
            k += 1;
        }
        if !tokens.get(k).is_some_and(|t| t.is_punct("=")) {
            continue;
        }
        k += 1;
        let start = k;
        if tokens.get(k).is_some_and(|t| t.is_ident("move")) {
            k += 1;
        }
        if tokens
            .get(k)
            .is_some_and(|t| t.is_punct("|") || t.is_punct("||"))
        {
            return Some(start);
        }
    }
    None
}

/// Collects the identifiers a closure body binds locally: parameters,
/// `let` patterns, `for` loop variables, and nested-closure parameters.
fn local_bindings(
    tokens: &[Token],
    params: (usize, usize),
    body: (usize, usize),
) -> BTreeSet<String> {
    let mut locals: BTreeSet<String> = BTreeSet::new();
    for t in &tokens[params.0..params.1] {
        if t.kind == TokKind::Ident {
            locals.insert(t.text.clone());
        }
    }
    let mut j = body.0;
    while j < body.1 {
        let t = &tokens[j];
        if t.is_ident("let") {
            // Everything up to the `=` (or `;` for `let x;`) is pattern
            // or type position — over-approximating with every
            // identifier there only widens the local set.
            let mut k = j + 1;
            while k < body.1 && !tokens[k].is_punct("=") && !tokens[k].is_punct(";") {
                if tokens[k].kind == TokKind::Ident {
                    locals.insert(tokens[k].text.clone());
                }
                k += 1;
            }
            j = k;
            continue;
        }
        if t.is_ident("for") {
            let mut k = j + 1;
            while k < body.1 && !tokens[k].is_ident("in") {
                if tokens[k].kind == TokKind::Ident {
                    locals.insert(tokens[k].text.clone());
                }
                k += 1;
            }
            j = k;
            continue;
        }
        if t.is_punct("|") {
            // Nested closure: its parameters are local to the body too.
            let mut k = j + 1;
            while k < body.1 && !tokens[k].is_punct("|") {
                if tokens[k].kind == TokKind::Ident {
                    locals.insert(tokens[k].text.clone());
                }
                k += 1;
            }
            j = k + 1;
            continue;
        }
        j += 1;
    }
    locals
}

/// Scans one closure for nondeterministic-capture patterns.
fn analyze_closure(tokens: &[Token], entry: &str, i: usize, out: &mut Vec<Violation>) {
    let Some((params, body, _)) = closure_extent(tokens, i) else {
        return;
    };
    let locals = local_bindings(tokens, params, body);
    let mut j = body.0;
    while j < body.1 {
        let t = &tokens[j];
        if t.is_punct("&") && tokens.get(j + 1).is_some_and(|n| n.is_ident("mut")) {
            let mut k = j + 2;
            while k < body.1 && tokens[k].is_punct("*") {
                k += 1;
            }
            if let Some(target) = tokens.get(k).filter(|t| t.kind == TokKind::Ident) {
                let captured = target.text == "self"
                    || (target
                        .text
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_lowercase() || c == '_')
                        && !locals.contains(&target.text));
                if captured {
                    out.push(violation(
                        Lint::NondetCapture,
                        t,
                        format!(
                            "closure passed to `{entry}` takes `&mut {}` captured from the enclosing scope",
                            target.text
                        ),
                        format!(
                            "make the binding worker-local (`let mut` inside the closure) or thread it through the pool/init state; {}",
                            suppress_hint(Lint::NondetCapture)
                        ),
                    ));
                }
            }
        } else if t.kind == TokKind::Ident && (t.text == "RefCell" || t.text == "Cell") {
            out.push(violation(
                Lint::NondetCapture,
                t,
                format!("`{}` interior mutability inside a parallel closure", t.text),
                format!(
                    "shared-cell writes race the fan-out order; return values and reduce after the join; {}",
                    suppress_hint(Lint::NondetCapture)
                ),
            ));
        } else if t.is_ident("borrow_mut") && j > 0 && tokens[j - 1].is_punct(".") {
            out.push(violation(
                Lint::NondetCapture,
                t,
                "`.borrow_mut()` inside a parallel closure".to_string(),
                format!(
                    "a shared RefCell borrow races (or panics) under the pool; return values and reduce after the join; {}",
                    suppress_hint(Lint::NondetCapture)
                ),
            ));
        } else if t.is_ident("Relaxed") && j > 0 && tokens[j - 1].is_punct("::") {
            out.push(violation(
                Lint::NondetCapture,
                t,
                "`Ordering::Relaxed` atomic access inside a parallel closure".to_string(),
                format!(
                    "relaxed atomics make observed interleavings run-dependent; accumulate per worker and combine deterministically; {}",
                    suppress_hint(Lint::NondetCapture)
                ),
            ));
        }
        j += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn w3(src: &str) -> Vec<Violation> {
        let lexed = lex(src);
        let mut out = Vec::new();
        check_w3(&lexed.tokens, &mut out);
        out
    }

    #[test]
    fn flags_mut_capture_of_outer_binding() {
        let src = "fn f() { let mut total = 0; par_map(4, n, |i| { total += compute(&mut total, i); }); }";
        let v = w3(src);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].lint, Lint::NondetCapture);
        assert!(v[0].message.contains("&mut total"));
    }

    #[test]
    fn local_let_mut_is_exempt() {
        let src =
            "fn f() { par_map(4, n, |i| { let mut acc = Vec::new(); fill(&mut acc, i); acc }); }";
        assert!(w3(src).is_empty());
    }

    #[test]
    fn closure_params_are_exempt() {
        let src = "fn f() { par_map_with_pool(t, n, &mut pool, mk, init, |scratch, wprof, i| run(&mut *scratch, &mut wprof.timer, i)); }";
        assert!(w3(src).is_empty());
    }

    #[test]
    fn pool_argument_outside_closures_is_not_flagged() {
        let src = "fn f() { par_map_with_pool(t, n, &mut *pool, || S::new(), || (), |s, (), i| s.go(i)); }";
        assert!(w3(src).is_empty());
    }

    #[test]
    fn named_closure_argument_is_resolved() {
        let bad = "fn f() { let mut hits = 0; let work = |i: usize| { hits += bump(&mut hits); i }; par_map(4, n, work); }";
        assert_eq!(w3(bad).len(), 1);
        let good = "fn f() { let work = |i: usize| { let mut rng = seed(i); step(&mut rng) }; par_map(4, n, work); }";
        assert!(w3(good).is_empty());
    }

    #[test]
    fn interior_mutability_and_relaxed_are_flagged() {
        let v = w3("fn f() { par_map(4, n, |i| cell.borrow_mut().push(i)); }");
        assert_eq!(v.len(), 1);
        let v = w3("fn f() { par_map(4, n, |i| counter.fetch_add(1, Ordering::Relaxed)); }");
        assert_eq!(v.len(), 1);
        let v = w3("fn f() { par_map(4, n, |i| shared(RefCell::new(i))); }");
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn mut_self_capture_is_flagged() {
        let v = w3("fn f(&mut self) { par_map(4, n, |i| self.apply(&mut self.state, i)); }");
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn shared_borrows_are_fine() {
        assert!(w3("fn f() { par_map(4, n, |i| self.execute(&work[i])); }").is_empty());
    }
}
