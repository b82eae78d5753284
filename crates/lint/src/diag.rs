//! Diagnostic rendering: rustc-style human output and a `--json`
//! machine-readable report (hand-rolled writer — the workspace builds
//! without serde).

use crate::lints::Violation;

/// A violation bound to the file it was found in.
#[derive(Debug, Clone)]
pub struct FileViolation {
    /// Workspace-relative path, `/`-separated on every platform.
    pub path: String,
    /// The source line the violation sits on (for the snippet).
    pub snippet: String,
    /// The finding itself.
    pub v: Violation,
}

/// Renders one diagnostic in the familiar rustc layout:
///
/// ```text
/// error[D3/panic-unwrap]: `.unwrap()` in library non-test code
///   --> crates/core/src/driver.rs:253:47
///    |
/// 253 |             let pa = candidates[a].0.as_ref().unwrap();
///     |                                               ^^^^^^
///    = help: return a typed error …
/// ```
pub fn render_human(fv: &FileViolation) -> String {
    let v = &fv.v;
    let line_no = v.line.to_string();
    let gutter = " ".repeat(line_no.len());
    let mut out = String::new();
    out.push_str(&format!(
        "error[{}/{}]: {}\n",
        v.lint.id(),
        v.lint.name(),
        v.message
    ));
    out.push_str(&format!("{gutter}--> {}:{}:{}\n", fv.path, v.line, v.col));
    out.push_str(&format!("{gutter} |\n"));
    out.push_str(&format!("{line_no} | {}\n", fv.snippet));
    let pad = " ".repeat(v.col.saturating_sub(1) as usize);
    let carets = "^".repeat(v.len.max(1) as usize);
    out.push_str(&format!("{gutter} | {pad}{carets}\n"));
    out.push_str(&format!("{gutter} = help: {}\n", v.help));
    out
}

/// Escapes a string for inclusion in a JSON document.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Serializes a full run to the `--json` report consumed by CI.
pub fn render_json(violations: &[FileViolation], files_checked: usize, fixed: &[String]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"tool\": \"flow3d-tidy\",\n");
    out.push_str("  \"version\": 3,\n");
    out.push_str(&format!("  \"files_checked\": {files_checked},\n"));
    out.push_str(&format!(
        "  \"clean\": {},\n",
        if violations.is_empty() {
            "true"
        } else {
            "false"
        }
    ));
    out.push_str("  \"fixed\": [");
    for (i, f) in fixed.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("\"{}\"", json_escape(f)));
    }
    out.push_str("],\n");
    out.push_str("  \"violations\": [\n");
    for (i, fv) in violations.iter().enumerate() {
        let v = &fv.v;
        out.push_str(&format!(
            "    {{\"lint\": \"{}\", \"name\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \"message\": \"{}\", \"help\": \"{}\", \"snippet\": \"{}\"}}{}\n",
            v.lint.id(),
            v.lint.name(),
            json_escape(&fv.path),
            v.line,
            v.col,
            json_escape(&v.message),
            json_escape(&v.help),
            json_escape(fv.snippet.trim_end()),
            if i + 1 < violations.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lints::Lint;

    fn sample() -> FileViolation {
        FileViolation {
            path: "crates/x/src/lib.rs".to_string(),
            snippet: "    x.unwrap();".to_string(),
            v: Violation {
                lint: Lint::PanicUnwrap,
                line: 7,
                col: 7,
                len: 6,
                message: "`.unwrap()` in library non-test code".to_string(),
                help: "return a typed error".to_string(),
            },
        }
    }

    #[test]
    fn human_render_shape() {
        let text = render_human(&sample());
        assert!(text.starts_with("error[D3/panic-unwrap]:"));
        assert!(text.contains("--> crates/x/src/lib.rs:7:7"));
        assert!(text.contains("7 |     x.unwrap();"));
        assert!(text.contains("^^^^^^"));
        assert!(text.contains("= help:"));
    }

    #[test]
    fn json_escapes_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn json_report_is_parseable_shape() {
        let json = render_json(&[sample()], 3, &["crates/x/src/lib.rs".to_string()]);
        assert!(json.contains("\"files_checked\": 3"));
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("\"lint\": \"D3\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
