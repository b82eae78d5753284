//! The symbol-graph layer: per-file fact extraction.
//!
//! Every source file is distilled into a [`FileFacts`] record — its
//! top-level item definitions (with `pub` visibility), struct fields,
//! enum variants, every identifier it references, string literals with
//! enough surrounding context to recognize known call sites (match
//! arms, `Flow3dConfig` literal binds, metric-name constants), plus the
//! raw per-file lint findings and suppression comments. The
//! workspace-level lints (W1 `contract-drift` in [`crate::contracts`],
//! W2 `dead-pub` in [`crate::deadpub`]) run entirely over these facts,
//! never re-reading source.

use crate::lexer::{MalformedSuppression, Suppression, TokKind, Token};
use crate::lints::{check_file_raw, FilePolicy, Violation};
use std::collections::BTreeSet;

/// The kind of a top-level item definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DefKind {
    /// A free function.
    Fn,
    /// A struct.
    Struct,
    /// An enum.
    Enum,
    /// A trait.
    Trait,
    /// A `const` item.
    Const,
    /// A `static` item.
    Static,
    /// A type alias.
    TypeAlias,
    /// A module.
    Mod,
}

impl DefKind {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            DefKind::Fn => "fn",
            DefKind::Struct => "struct",
            DefKind::Enum => "enum",
            DefKind::Trait => "trait",
            DefKind::Const => "const",
            DefKind::Static => "static",
            DefKind::TypeAlias => "type",
            DefKind::Mod => "mod",
        }
    }
}

/// One top-level item definition.
#[derive(Debug)]
pub(crate) struct Def {
    pub kind: DefKind,
    pub name: String,
    pub is_pub: bool,
    pub line: u32,
}

/// One named struct field (`owner.name`).
#[derive(Debug)]
pub(crate) struct FieldDef {
    pub owner: String,
    pub name: String,
    pub line: u32,
}

/// One enum variant (`owner::name`).
#[derive(Debug)]
pub(crate) struct VariantDef {
    pub owner: String,
    pub name: String,
    pub line: u32,
}

/// One string literal with the context the contract lints key on.
#[derive(Debug)]
pub(crate) struct StrLit {
    pub text: String,
    pub line: u32,
    /// Text of the preceding token (`"=>"` marks a match-arm value).
    pub prev: String,
    /// Text of the following token (`"=>"`/`"|"` mark a match-arm key).
    pub next: String,
    /// Name of the nearest enclosing `fn`, or empty.
    pub in_fn: String,
}

/// One `field: … "flag" …` entry of a `Flow3dConfig { … }` literal.
#[derive(Debug)]
pub(crate) struct BindDef {
    pub field: String,
    pub flag: String,
    pub line: u32,
}

/// Everything the symbol graph knows about one source file.
#[derive(Debug)]
pub(crate) struct FileFacts {
    pub defs: Vec<Def>,
    pub fields: Vec<FieldDef>,
    pub variants: Vec<VariantDef>,
    pub binds: Vec<BindDef>,
    /// Every identifier appearing anywhere in the file (tests included)
    /// — the reference side of the W2 liveness check.
    pub refs: BTreeSet<String>,
    pub strings: Vec<StrLit>,
    /// Raw per-file violations, suppressions not yet applied.
    pub raw: Vec<Violation>,
    pub suppressions: Vec<Suppression>,
    pub malformed: Vec<MalformedSuppression>,
}

/// Extracts the full fact record for one file.
pub(crate) fn file_facts(src: &str, policy: &FilePolicy) -> FileFacts {
    let (raw, lexed) = check_file_raw(src, policy);
    let stripped = if crate::lints::file_gated_to_tests(&lexed.tokens) {
        Vec::new()
    } else {
        crate::lints::strip_test_items(&lexed.tokens)
    };
    let refs = lexed
        .tokens
        .iter()
        .filter(|t| t.kind == TokKind::Ident)
        .map(|t| t.text.clone())
        .collect();
    let (defs, fields, variants) = extract_items(&stripped);
    FileFacts {
        defs,
        fields,
        variants,
        binds: extract_binds(&stripped),
        refs,
        strings: extract_strings(&stripped),
        raw,
        suppressions: lexed.suppressions,
        malformed: lexed.malformed,
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

/// Walks the token stream and records top-level item definitions plus
/// the fields/variants of top-level structs and enums.
fn extract_items(tokens: &[Token]) -> (Vec<Def>, Vec<FieldDef>, Vec<VariantDef>) {
    let mut defs: Vec<Def> = Vec::new();
    let mut fields: Vec<FieldDef> = Vec::new();
    let mut variants: Vec<VariantDef> = Vec::new();
    let mut depth = 0i32;
    let mut i = 0usize;
    while i < tokens.len() {
        let t = &tokens[i];
        if t.is_punct("{") {
            depth += 1;
            i += 1;
            continue;
        }
        if t.is_punct("}") {
            depth -= 1;
            i += 1;
            continue;
        }
        if depth != 0 {
            i += 1;
            continue;
        }
        if t.is_punct("#") {
            i = crate::lints::skip_attr(tokens, i);
            continue;
        }
        let mut j = i;
        let mut is_pub = false;
        if tokens[j].is_ident("pub") {
            j += 1;
            if tokens.get(j).is_some_and(|t| t.is_punct("(")) {
                // `pub(crate)` / `pub(super)`: not exported API surface.
                j = matching(tokens, j, "(", ")") + 1;
            } else {
                is_pub = true;
            }
        }
        while tokens
            .get(j)
            .is_some_and(|t| t.is_ident("unsafe") || t.is_ident("async") || t.is_ident("extern"))
        {
            j += 1;
            if tokens.get(j).is_some_and(|t| t.kind == TokKind::Str) {
                j += 1; // extern "C"
            }
        }
        let kind = tokens.get(j).and_then(|t| match t.text.as_str() {
            "fn" if t.kind == TokKind::Ident => Some(DefKind::Fn),
            "struct" => Some(DefKind::Struct),
            "enum" => Some(DefKind::Enum),
            "trait" => Some(DefKind::Trait),
            "const" => Some(DefKind::Const),
            "static" => Some(DefKind::Static),
            "type" => Some(DefKind::TypeAlias),
            "mod" => Some(DefKind::Mod),
            _ => None,
        });
        if let Some(kind) = kind {
            // `const fn f` / `const X: T`: a `fn` after const wins.
            let (kind, name_idx) =
                if kind == DefKind::Const && tokens.get(j + 1).is_some_and(|t| t.is_ident("fn")) {
                    (DefKind::Fn, j + 2)
                } else {
                    (kind, j + 1)
                };
            if let Some(name_tok) = tokens.get(name_idx).filter(|t| t.kind == TokKind::Ident) {
                defs.push(Def {
                    kind,
                    name: name_tok.text.clone(),
                    is_pub,
                    line: name_tok.line,
                });
                if kind == DefKind::Struct {
                    collect_fields(tokens, name_idx, &name_tok.text, &mut fields);
                } else if kind == DefKind::Enum {
                    collect_variants(tokens, name_idx, &name_tok.text, &mut variants);
                }
            }
            i = j + 1;
            continue;
        }
        i = j + 1;
    }
    (defs, fields, variants)
}

/// Finds the `{` body of the item named at `name_idx`, skipping
/// generics; returns `None` for unit/tuple forms.
fn item_body(tokens: &[Token], name_idx: usize) -> Option<usize> {
    let mut angle = 0i32;
    let mut j = name_idx + 1;
    while j < tokens.len() {
        let t = &tokens[j];
        if t.is_punct("<") {
            angle += 1;
        } else if t.is_punct(">") {
            angle -= 1;
        } else if t.is_punct(">>") {
            angle -= 2;
        } else if angle <= 0 {
            if t.is_punct(";") || t.is_punct("(") {
                return None;
            }
            if t.is_punct("{") {
                return Some(j);
            }
        }
        j += 1;
    }
    None
}

/// Records the named fields of one struct body.
fn collect_fields(tokens: &[Token], name_idx: usize, owner: &str, out: &mut Vec<FieldDef>) {
    let Some(open) = item_body(tokens, name_idx) else {
        return;
    };
    let close = matching(tokens, open, "{", "}");
    let mut k = open + 1;
    let mut depth = 0i32;
    let mut entry_start = true;
    while k < close {
        let t = &tokens[k];
        if entry_start && depth == 0 {
            if t.is_punct("#") {
                k = crate::lints::skip_attr(tokens, k);
                continue;
            }
            let mut m = k;
            if tokens[m].is_ident("pub") {
                m += 1;
                if tokens.get(m).is_some_and(|t| t.is_punct("(")) {
                    m = matching(tokens, m, "(", ")") + 1;
                }
            }
            if let Some(name_tok) = tokens.get(m).filter(|t| t.kind == TokKind::Ident) {
                if tokens.get(m + 1).is_some_and(|t| t.is_punct(":")) {
                    out.push(FieldDef {
                        owner: owner.to_string(),
                        name: name_tok.text.clone(),
                        line: name_tok.line,
                    });
                }
            }
            entry_start = false;
            k = m + 1;
            continue;
        }
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
        } else if t.is_punct(",") && depth == 0 {
            entry_start = true;
        }
        k += 1;
    }
}

/// Records the variants of one enum body.
fn collect_variants(tokens: &[Token], name_idx: usize, owner: &str, out: &mut Vec<VariantDef>) {
    let Some(open) = item_body(tokens, name_idx) else {
        return;
    };
    let close = matching(tokens, open, "{", "}");
    let mut k = open + 1;
    let mut depth = 0i32;
    let mut entry_start = true;
    while k < close {
        let t = &tokens[k];
        if entry_start && depth == 0 {
            if t.is_punct("#") {
                k = crate::lints::skip_attr(tokens, k);
                continue;
            }
            if t.kind == TokKind::Ident {
                out.push(VariantDef {
                    owner: owner.to_string(),
                    name: t.text.clone(),
                    line: t.line,
                });
            }
            entry_start = false;
            k += 1;
            continue;
        }
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
            depth -= 1;
        } else if t.is_punct(",") && depth == 0 {
            entry_start = true;
        }
        k += 1;
    }
}

/// Records every string literal with its neighboring tokens and the
/// nearest enclosing `fn` name.
fn extract_strings(tokens: &[Token]) -> Vec<StrLit> {
    let mut out: Vec<StrLit> = Vec::new();
    let mut fn_stack: Vec<(String, i32)> = Vec::new();
    let mut pending_fn: Option<String> = None;
    let mut depth = 0i32;
    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident("fn") {
            if let Some(name) = tokens.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                pending_fn = Some(name.text.clone());
            }
        } else if t.is_punct(";") && depth == 0 {
            pending_fn = None; // trait method declaration without a body
        } else if t.is_punct("{") {
            depth += 1;
            if let Some(name) = pending_fn.take() {
                fn_stack.push((name, depth));
            }
        } else if t.is_punct("}") {
            if fn_stack.last().is_some_and(|(_, d)| *d == depth) {
                fn_stack.pop();
            }
            depth -= 1;
        } else if t.kind == TokKind::Str {
            out.push(StrLit {
                text: t.text.clone(),
                line: t.line,
                prev: i
                    .checked_sub(1)
                    .map_or(String::new(), |p| tokens[p].text.clone()),
                next: tokens.get(i + 1).map_or(String::new(), |n| n.text.clone()),
                in_fn: fn_stack.last().map_or(String::new(), |(n, _)| n.clone()),
            });
        }
    }
    out
}

/// Records `field: … "flag" …` binds inside `Flow3dConfig { … }`
/// struct literals (the definition in `config.rs`, whose `Flow3dConfig`
/// is preceded by `struct`, is excluded).
fn extract_binds(tokens: &[Token]) -> Vec<BindDef> {
    let mut out: Vec<BindDef> = Vec::new();
    for i in 0..tokens.len() {
        if !tokens[i].is_ident("Flow3dConfig")
            || !tokens.get(i + 1).is_some_and(|t| t.is_punct("{"))
            || (i > 0 && tokens[i - 1].is_ident("struct"))
        {
            continue;
        }
        let close = matching(tokens, i + 1, "{", "}");
        let mut k = i + 2;
        while k < close {
            // Entry head: `field :` at relative depth 0.
            let Some(field_tok) = tokens.get(k).filter(|t| t.kind == TokKind::Ident) else {
                k += 1;
                continue;
            };
            if !tokens.get(k + 1).is_some_and(|t| t.is_punct(":")) {
                k += 1;
                continue;
            }
            let field = field_tok.text.clone();
            let line = field_tok.line;
            let mut flag = String::new();
            let mut depth = 0i32;
            let mut m = k + 2;
            while m < close {
                let t = &tokens[m];
                if t.is_punct("(") || t.is_punct("[") || t.is_punct("{") {
                    depth += 1;
                } else if t.is_punct(")") || t.is_punct("]") || t.is_punct("}") {
                    depth -= 1;
                } else if t.is_punct(",") && depth == 0 {
                    break;
                } else if t.kind == TokKind::Str && flag.is_empty() {
                    flag = t.text.clone();
                }
                m += 1;
            }
            if !flag.is_empty() {
                out.push(BindDef { field, flag, line });
            }
            k = m + 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(src: &str) -> FileFacts {
        file_facts(src, &FilePolicy::strict())
    }

    #[test]
    fn extracts_top_level_defs_with_visibility() {
        let f = facts(
            "pub fn a() {}\nfn b() {}\npub(crate) fn c() {}\npub struct S { pub x: u32, y: f64 }\npub enum E { A, B(u32) }\npub const K: u32 = 1;\n",
        );
        let pubs: Vec<&str> = f
            .defs
            .iter()
            .filter(|d| d.is_pub)
            .map(|d| d.name.as_str())
            .collect();
        assert_eq!(pubs, vec!["a", "S", "E", "K"]);
        let fields: Vec<&str> = f.fields.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(fields, vec!["x", "y"]);
        let variants: Vec<&str> = f.variants.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(variants, vec!["A", "B"]);
    }

    #[test]
    fn nested_items_are_not_top_level() {
        let f = facts("pub fn outer() { pub fn inner() {} struct Hidden { a: u32 } }\n");
        assert_eq!(f.defs.len(), 1);
        assert!(f.fields.is_empty());
    }

    #[test]
    fn strings_carry_match_arm_context() {
        let f = facts(
            "fn parse(c: &str) {\n    match c {\n        \"ping\" => go(),\n        \"load\" | \"eco\" => go(),\n        _ => {}\n    }\n}\nfn cmd() -> &'static str { match x { X::Ping => \"ping\" } }\n",
        );
        let arm_keys: Vec<&str> = f
            .strings
            .iter()
            .filter(|s| s.in_fn == "parse" && (s.next == "=>" || s.next == "|"))
            .map(|s| s.text.as_str())
            .collect();
        assert_eq!(arm_keys, vec!["ping", "load", "eco"]);
        let arm_vals: Vec<&str> = f
            .strings
            .iter()
            .filter(|s| s.in_fn == "cmd" && s.prev == "=>")
            .map(|s| s.text.as_str())
            .collect();
        assert_eq!(arm_vals, vec!["ping"]);
    }

    #[test]
    fn config_literal_binds_are_recorded() {
        let f = facts(
            "fn go(args: &Args) {\n    let c = Flow3dConfig {\n        alpha: args.get_f64(\"alpha\", 0.1)?,\n        allow_d2d: !args.flag(\"no-d2d\"),\n        ..Default::default()\n    };\n}\npub struct Flow3dConfig { pub alpha: f64 }\n",
        );
        let binds: Vec<(&str, &str)> = f
            .binds
            .iter()
            .map(|b| (b.field.as_str(), b.flag.as_str()))
            .collect();
        assert_eq!(binds, vec![("alpha", "alpha"), ("allow_d2d", "no-d2d")]);
    }
}
