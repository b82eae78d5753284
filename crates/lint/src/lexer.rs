//! A minimal hand-rolled Rust lexer: just enough token structure for the
//! tidy lints — identifiers, literals, punctuation — with comments and
//! string/char contents stripped so lint patterns never fire inside them.
//!
//! Deliberately *not* a full Rust lexer: no token trees, no macro
//! expansion, no edition awareness. The lints only need a flat token
//! stream with source positions, plus the `// flow3d-tidy:` suppression
//! comments collected alongside it.

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokKind {
    /// An identifier or keyword.
    Ident,
    /// An integer literal (including hex/octal/binary forms).
    Int,
    /// A floating-point literal (`1.0`, `2e9`, `3f64`, …).
    Float,
    /// A string literal of any flavour (raw, byte, C). The token text
    /// holds the literal's content (escapes left as written) so symbol
    /// passes can match wire commands, metric names, and CLI flags.
    Str,
    /// A character literal. Content dropped.
    Char,
    /// A lifetime or loop label (`'a`, `'outer`).
    Lifetime,
    /// Punctuation, including compound operators (`==`, `::`, `->`, …).
    Punct,
}

/// One lexed token with its 1-based source position.
#[derive(Debug, Clone)]
pub(crate) struct Token {
    /// What kind of token this is.
    pub kind: TokKind,
    /// The token's text (literal content for strings, empty for chars).
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based column (in characters).
    pub col: u32,
}

impl Token {
    /// `true` if this is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// `true` if this is the punctuation `s`.
    pub fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// One parsed `// flow3d-tidy: allow(...)` comment.
#[derive(Debug)]
pub(crate) struct Suppression {
    /// Line the comment sits on. It covers violations on this line and
    /// the next one.
    pub line: u32,
    /// Column of the comment marker.
    pub col: u32,
    /// Lint names inside `allow(...)`, as written.
    pub lints: Vec<String>,
    /// `true` if a non-empty reason follows the closing parenthesis.
    pub has_reason: bool,
}

/// A `flow3d-tidy:` comment the parser could not make sense of.
#[derive(Debug)]
pub(crate) struct MalformedSuppression {
    /// Line of the comment.
    pub line: u32,
    /// Column of the comment marker.
    pub col: u32,
    /// Why it was rejected.
    pub why: String,
}

/// Everything the lexer extracts from one source file.
#[derive(Debug, Default)]
pub(crate) struct LexOutput {
    /// The significant tokens, in source order.
    pub tokens: Vec<Token>,
    /// Parsed suppression comments.
    pub suppressions: Vec<Suppression>,
    /// `flow3d-tidy:` comments that failed to parse.
    pub malformed: Vec<MalformedSuppression>,
}

/// The marker that introduces a suppression comment.
pub(crate) const SUPPRESSION_MARKER: &str = "flow3d-tidy:";

const COMPOUND_PUNCT: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..",
];

struct Cursor<'a> {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    col: u32,
    src: std::marker::PhantomData<&'a str>,
}

impl Cursor<'_> {
    fn new(src: &str) -> Self {
        Cursor {
            chars: src.chars().collect(),
            pos: 0,
            line: 1,
            col: 1,
            src: std::marker::PhantomData,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.chars.get(self.pos).copied();
        if let Some(c) = c {
            self.pos += 1;
            if c == '\n' {
                self.line += 1;
                self.col = 1;
            } else {
                self.col += 1;
            }
        }
        c
    }

    fn starts_with(&self, s: &str) -> bool {
        s.chars().enumerate().all(|(i, c)| self.peek(i) == Some(c))
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Lexes `src` into tokens and suppression comments.
///
/// Unterminated strings or comments end the token stream at the point of
/// the problem rather than erroring: tidy lints are best-effort on broken
/// source (the compiler reports the real error).
pub(crate) fn lex(src: &str) -> LexOutput {
    let mut cur = Cursor::new(src);
    let mut out = LexOutput::default();

    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        // Comments.
        if cur.starts_with("//") {
            let doc = cur.starts_with("///") || cur.starts_with("//!");
            let mut text = String::new();
            while let Some(c) = cur.peek(0) {
                if c == '\n' {
                    break;
                }
                text.push(c);
                cur.bump();
            }
            // Doc comments never carry suppressions — they describe the
            // syntax (and rustdoc examples quote it) without enacting it.
            if !doc {
                scan_suppression(&text, line, col, &mut out);
            }
            continue;
        }
        if cur.starts_with("/*") {
            cur.bump();
            cur.bump();
            let mut depth = 1usize;
            while depth > 0 {
                if cur.starts_with("/*") {
                    cur.bump();
                    cur.bump();
                    depth += 1;
                } else if cur.starts_with("*/") {
                    cur.bump();
                    cur.bump();
                    depth -= 1;
                } else if cur.bump().is_none() {
                    break;
                }
            }
            continue;
        }
        // String-literal prefixes: r" r#" b" br" b' c" cr" etc.
        if is_ident_start(c) {
            if let Some(tok) = try_string_prefix(&mut cur, line, col) {
                out.tokens.push(tok);
                continue;
            }
            let mut text = String::new();
            while let Some(c) = cur.peek(0) {
                if !is_ident_continue(c) {
                    break;
                }
                text.push(c);
                cur.bump();
            }
            out.tokens.push(Token {
                kind: TokKind::Ident,
                text,
                line,
                col,
            });
            continue;
        }
        if c == '"' {
            out.tokens.push(eat_quoted(&mut cur, line, col));
            continue;
        }
        if c == '\'' {
            // Lifetime/label vs char literal.
            let next = cur.peek(1);
            let after = cur.peek(2);
            let is_lifetime = matches!(next, Some(n) if is_ident_start(n)) && after != Some('\'');
            if is_lifetime {
                cur.bump(); // '
                let mut text = String::from("'");
                while let Some(c) = cur.peek(0) {
                    if !is_ident_continue(c) {
                        break;
                    }
                    text.push(c);
                    cur.bump();
                }
                out.tokens.push(Token {
                    kind: TokKind::Lifetime,
                    text,
                    line,
                    col,
                });
            } else {
                out.tokens.push(eat_char_literal(&mut cur, line, col));
            }
            continue;
        }
        if c.is_ascii_digit() {
            out.tokens.push(eat_number(&mut cur, line, col));
            continue;
        }
        // Punctuation: maximal munch over the compound table.
        let mut matched = false;
        for op in COMPOUND_PUNCT {
            if cur.starts_with(op) {
                for _ in 0..op.len() {
                    cur.bump();
                }
                out.tokens.push(Token {
                    kind: TokKind::Punct,
                    text: (*op).to_string(),
                    line,
                    col,
                });
                matched = true;
                break;
            }
        }
        if !matched {
            cur.bump();
            out.tokens.push(Token {
                kind: TokKind::Punct,
                text: c.to_string(),
                line,
                col,
            });
        }
    }
    out
}

/// Recognizes raw/byte/C string prefixes at the cursor; consumes and
/// returns the whole literal if one starts here.
fn try_string_prefix(cur: &mut Cursor<'_>, line: u32, col: u32) -> Option<Token> {
    // Longest prefixes first.
    for prefix in ["br", "cr", "b", "c", "r"] {
        if !cur.starts_with(prefix) {
            continue;
        }
        let n = prefix.chars().count();
        let next = cur.peek(n);
        let raw = prefix.ends_with('r');
        match next {
            Some('"') => {
                for _ in 0..n {
                    cur.bump();
                }
                return Some(if raw {
                    eat_raw_string(cur, line, col, 0)
                } else {
                    eat_quoted(cur, line, col)
                });
            }
            Some('#') if raw => {
                let mut hashes = 0usize;
                while cur.peek(n + hashes) == Some('#') {
                    hashes += 1;
                }
                if cur.peek(n + hashes) == Some('"') {
                    for _ in 0..(n + hashes) {
                        cur.bump();
                    }
                    return Some(eat_raw_string(cur, line, col, hashes));
                }
            }
            Some('\'') if prefix == "b" => {
                cur.bump(); // b
                return Some(eat_char_literal(cur, line, col));
            }
            _ => {}
        }
    }
    None
}

/// Consumes a `"…"` literal (cursor on the opening quote), honoring
/// backslash escapes.
fn eat_quoted(cur: &mut Cursor<'_>, line: u32, col: u32) -> Token {
    cur.bump(); // opening quote
    let mut text = String::new();
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                text.push(c);
                if let Some(esc) = cur.bump() {
                    text.push(esc);
                }
            }
            '"' => break,
            _ => text.push(c),
        }
    }
    Token {
        kind: TokKind::Str,
        text,
        line,
        col,
    }
}

/// Consumes a raw string (cursor on the opening quote) closed by `"`
/// followed by `hashes` `#`s.
fn eat_raw_string(cur: &mut Cursor<'_>, line: u32, col: u32, hashes: usize) -> Token {
    cur.bump(); // opening quote
    let mut text = String::new();
    'outer: while let Some(c) = cur.bump() {
        if c == '"' {
            for i in 0..hashes {
                if cur.peek(i) != Some('#') {
                    text.push(c);
                    continue 'outer;
                }
            }
            for _ in 0..hashes {
                cur.bump();
            }
            break;
        }
        text.push(c);
    }
    Token {
        kind: TokKind::Str,
        text,
        line,
        col,
    }
}

/// Consumes a `'…'` char literal (cursor on the opening quote).
fn eat_char_literal(cur: &mut Cursor<'_>, line: u32, col: u32) -> Token {
    cur.bump(); // opening quote
    while let Some(c) = cur.bump() {
        match c {
            '\\' => {
                cur.bump();
            }
            '\'' => break,
            _ => {}
        }
    }
    Token {
        kind: TokKind::Char,
        text: String::new(),
        line,
        col,
    }
}

/// Consumes a numeric literal and classifies it as int or float.
fn eat_number(cur: &mut Cursor<'_>, line: u32, col: u32) -> Token {
    let mut text = String::new();
    let mut float = false;
    // Radix-prefixed integers never contain floats.
    if cur.starts_with("0x") || cur.starts_with("0o") || cur.starts_with("0b") {
        text.push(cur.bump().unwrap_or('0'));
        text.push(cur.bump().unwrap_or('x'));
        while let Some(c) = cur.peek(0) {
            if c.is_ascii_alphanumeric() || c == '_' {
                text.push(c);
                cur.bump();
            } else {
                break;
            }
        }
        return Token {
            kind: TokKind::Int,
            text,
            line,
            col,
        };
    }
    while let Some(c) = cur.peek(0) {
        if c.is_ascii_digit() || c == '_' {
            text.push(c);
            cur.bump();
        } else {
            break;
        }
    }
    // Fractional part: a dot that is not a range operator or a method
    // call (`1..2`, `1.max(2)`).
    if cur.peek(0) == Some('.') {
        let after = cur.peek(1);
        let is_fraction = match after {
            Some(c) if c.is_ascii_digit() => true,
            Some('.') => false,
            Some(c) if is_ident_start(c) => false,
            _ => true, // `1.` at end of expression
        };
        if is_fraction {
            float = true;
            text.push('.');
            cur.bump();
            while let Some(c) = cur.peek(0) {
                if c.is_ascii_digit() || c == '_' {
                    text.push(c);
                    cur.bump();
                } else {
                    break;
                }
            }
        }
    }
    // Exponent.
    if matches!(cur.peek(0), Some('e' | 'E')) {
        let (sign, digit) = (cur.peek(1), cur.peek(2));
        let has_exp = match sign {
            Some(c) if c.is_ascii_digit() => true,
            Some('+' | '-') => matches!(digit, Some(d) if d.is_ascii_digit()),
            _ => false,
        };
        if has_exp {
            float = true;
            text.push(cur.bump().unwrap_or('e'));
            if matches!(cur.peek(0), Some('+' | '-')) {
                text.push(cur.bump().unwrap_or('+'));
            }
            while let Some(c) = cur.peek(0) {
                if c.is_ascii_digit() || c == '_' {
                    text.push(c);
                    cur.bump();
                } else {
                    break;
                }
            }
        }
    }
    // Suffix (`u32`, `f64`, …).
    let mut suffix = String::new();
    while let Some(c) = cur.peek(0) {
        if is_ident_continue(c) {
            suffix.push(c);
            cur.bump();
        } else {
            break;
        }
    }
    if suffix == "f32" || suffix == "f64" {
        float = true;
    }
    text.push_str(&suffix);
    Token {
        kind: if float { TokKind::Float } else { TokKind::Int },
        text,
        line,
        col,
    }
}

/// Parses a line comment's text for the `flow3d-tidy:` marker.
fn scan_suppression(comment: &str, line: u32, col: u32, out: &mut LexOutput) {
    let Some(at) = comment.find(SUPPRESSION_MARKER) else {
        return;
    };
    let rest = comment[at + SUPPRESSION_MARKER.len()..].trim_start();
    let Some(args) = rest.strip_prefix("allow") else {
        out.malformed.push(MalformedSuppression {
            line,
            col,
            why: "expected `allow(<lint-name>)` after `flow3d-tidy:`".to_string(),
        });
        return;
    };
    let args = args.trim_start();
    let Some(args) = args.strip_prefix('(') else {
        out.malformed.push(MalformedSuppression {
            line,
            col,
            why: "expected `(` after `allow`".to_string(),
        });
        return;
    };
    let Some(close) = args.find(')') else {
        out.malformed.push(MalformedSuppression {
            line,
            col,
            why: "unclosed `allow(` list".to_string(),
        });
        return;
    };
    let lints: Vec<String> = args[..close]
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if lints.is_empty() {
        out.malformed.push(MalformedSuppression {
            line,
            col,
            why: "empty `allow()` list".to_string(),
        });
        return;
    }
    // The reason: whatever follows the closing paren, stripped of
    // leading separators. Must be non-empty.
    let reason = args[close + 1..]
        .trim_start_matches(|c: char| c.is_whitespace() || matches!(c, '—' | '–' | '-' | ':' | ','))
        .trim();
    out.suppressions.push(Suppression {
        line,
        col,
        lints,
        has_reason: !reason.is_empty(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn idents_and_punct() {
        let out = lex("let x = a.unwrap();");
        let texts: Vec<&str> = out.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(
            texts,
            vec!["let", "x", "=", "a", ".", "unwrap", "(", ")", ";"]
        );
    }

    #[test]
    fn comments_and_strings_are_stripped() {
        assert_eq!(
            idents("// HashMap\n/* unwrap */ let s = \"panic!\"; f(s)"),
            vec!["let", "s", "f", "s"]
        );
    }

    #[test]
    fn raw_and_byte_strings() {
        assert_eq!(
            idents("let a = r#\"unwrap() \" inner\"#; let b = b\"x\"; let c = br#\"y\"#;"),
            vec!["let", "a", "let", "b", "let", "c"]
        );
    }

    #[test]
    fn string_content_is_retained() {
        let strs: Vec<String> = lex("f(\"ping\", r#\"a \" b\"#, \"es\\\"c\");")
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text)
            .collect();
        assert_eq!(strs, vec!["ping", "a \" b", "es\\\"c"]);
    }

    #[test]
    fn char_vs_lifetime() {
        let out = lex("fn f<'a>(x: &'a str) { let c = 'x'; let q = '\\''; }");
        assert!(out
            .tokens
            .iter()
            .any(|t| t.kind == TokKind::Lifetime && t.text == "'a"));
        assert_eq!(
            out.tokens
                .iter()
                .filter(|t| t.kind == TokKind::Char)
                .count(),
            2
        );
    }

    #[test]
    fn float_classification() {
        let kinds: Vec<(String, TokKind)> = lex("1 1.0 1. 2e9 0x10 1..2 3.max(4) 5f64 6u32")
            .tokens
            .into_iter()
            .filter(|t| matches!(t.kind, TokKind::Int | TokKind::Float))
            .map(|t| (t.text, t.kind))
            .collect();
        let f = |s: &str| {
            kinds
                .iter()
                .find(|(t, _)| t == s)
                .map(|&(_, k)| k)
                .unwrap_or(TokKind::Punct)
        };
        assert_eq!(f("1.0"), TokKind::Float);
        assert_eq!(f("2e9"), TokKind::Float);
        assert_eq!(f("5f64"), TokKind::Float);
        assert_eq!(f("0x10"), TokKind::Int);
        assert_eq!(f("6u32"), TokKind::Int);
        // Range and method-call dots do not glue into floats.
        assert!(kinds.iter().any(|(t, k)| t == "2" && *k == TokKind::Int));
        assert!(kinds.iter().any(|(t, k)| t == "3" && *k == TokKind::Int));
    }

    #[test]
    fn compound_operators() {
        let texts: Vec<String> = lex("a == b != c :: d -> e")
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text)
            .collect();
        assert_eq!(texts, vec!["==", "!=", "::", "->"]);
    }

    #[test]
    fn suppression_with_reason() {
        let out = lex("// flow3d-tidy: allow(panic-unwrap) — invariant: list is non-empty\nx();");
        assert_eq!(out.suppressions.len(), 1);
        let s = &out.suppressions[0];
        assert_eq!(s.lints, vec!["panic-unwrap"]);
        assert!(s.has_reason);
        assert!(out.malformed.is_empty());
    }

    #[test]
    fn suppression_without_reason_is_flagged() {
        let out = lex("// flow3d-tidy: allow(panic-unwrap)");
        assert_eq!(out.suppressions.len(), 1);
        assert!(!out.suppressions[0].has_reason);
    }

    #[test]
    fn malformed_suppression() {
        let out = lex("// flow3d-tidy: disallow(x)");
        assert_eq!(out.malformed.len(), 1);
        let out = lex("// flow3d-tidy: allow(unclosed");
        assert_eq!(out.malformed.len(), 1);
        let out = lex("// flow3d-tidy: allow()");
        assert_eq!(out.malformed.len(), 1);
    }

    #[test]
    fn multi_lint_suppression() {
        let out = lex("// flow3d-tidy: allow(panic-unwrap, float-eq) - both are invariants here");
        assert_eq!(out.suppressions[0].lints, vec!["panic-unwrap", "float-eq"]);
        assert!(out.suppressions[0].has_reason);
    }

    #[test]
    fn positions_are_one_based() {
        let out = lex("a\n  bb");
        assert_eq!((out.tokens[0].line, out.tokens[0].col), (1, 1));
        assert_eq!((out.tokens[1].line, out.tokens[1].col), (2, 3));
    }
}
