//! W1 `contract-drift`: cross-artifact consistency over the symbol
//! graph.
//!
//! Three contracts, each anchored on the file that owns the source of
//! truth (a leg is skipped when its anchor file is absent, so synthetic
//! workspaces without a serve layer stay clean):
//!
//! 1. **Config knobs** — every `Flow3dConfig` field (the struct in
//!    `crates/core/src/config.rs`) must be bound to a CLI flag string in
//!    a `Flow3dConfig { … }` literal under `crates/cli/`, every bind
//!    must name a real field, and every field (or its flag) must be
//!    mentioned in README.md or EXPERIMENTS.md.
//! 2. **Wire commands** — the command strings of `Request::parse`'s
//!    match arms, the strings of `Request::cmd()`'s arms, the `Request`
//!    enum variants (lowercased), and the SERVING.md command table must
//!    all agree.
//! 3. **Metric names** — every `flow3d_serve_*` name emitted by
//!    `crates/obs/src/metrics.rs` must appear in SERVING.md, and
//!    SERVING.md must not mention metrics the renderer does not emit.

use crate::lints::{suppress_hint, Lint, Violation};
use crate::symbols::FileFacts;
use std::collections::BTreeMap;

/// Prefix of the serve-layer Prometheus metric family.
const METRIC_PREFIX: &str = "flow3d_serve_";

fn drift(line: u32, message: String, help: String) -> Violation {
    Violation {
        lint: Lint::ContractDrift,
        line,
        col: 1,
        len: 1,
        message,
        help: format!("{help}; {}", suppress_hint(Lint::ContractDrift)),
    }
}

/// Runs all three contract legs; returns `(path, violation)` pairs
/// anchored in source or doc files.
pub(crate) fn check_w1(
    facts: &BTreeMap<String, FileFacts>,
    docs: &BTreeMap<String, String>,
) -> Vec<(String, Violation)> {
    let mut out: Vec<(String, Violation)> = Vec::new();
    check_config_leg(facts, docs, &mut out);
    check_command_leg(facts, docs, &mut out);
    check_metric_leg(facts, docs, &mut out);
    out
}

fn check_config_leg(
    facts: &BTreeMap<String, FileFacts>,
    docs: &BTreeMap<String, String>,
    out: &mut Vec<(String, Violation)>,
) {
    let Some((cfg_path, cfg)) = facts
        .iter()
        .find(|(p, _)| p.ends_with("core/src/config.rs"))
    else {
        return;
    };
    let fields: Vec<_> = cfg
        .fields
        .iter()
        .filter(|f| f.owner == "Flow3dConfig")
        .collect();
    if fields.is_empty() {
        return;
    }
    let cli_files: Vec<(&String, &FileFacts)> = facts
        .iter()
        .filter(|(p, _)| p.starts_with("crates/cli/"))
        .collect();
    if cli_files.is_empty() {
        return;
    }

    for field in &fields {
        let bound = cli_files
            .iter()
            .any(|(_, f)| f.binds.iter().any(|b| b.field == field.name));
        if !bound {
            out.push((
                cfg_path.clone(),
                drift(
                    field.line,
                    format!(
                        "config field `{}` is bound to no CLI flag in crates/cli",
                        field.name
                    ),
                    "bind it in the `Flow3dConfig { .. }` literal of `cmd_legalize` (or drop the field)"
                        .to_string(),
                ),
            ));
        }
    }
    for (path, f) in &cli_files {
        for b in &f.binds {
            if !fields.iter().any(|fd| fd.name == b.field) {
                out.push((
                    (*path).clone(),
                    drift(
                        b.line,
                        format!(
                            "CLI binds `{}`, which is not a `Flow3dConfig` field",
                            b.field
                        ),
                        "remove the stale bind or add the field to Flow3dConfig".to_string(),
                    ),
                ));
            }
        }
    }

    let hay: String = ["README.md", "EXPERIMENTS.md"]
        .iter()
        .filter_map(|d| docs.get(*d))
        .fold(String::new(), |mut acc, t| {
            acc.push_str(t);
            acc.push('\n');
            acc
        });
    if hay.is_empty() {
        return;
    }
    for field in &fields {
        let flags: Vec<&str> = cli_files
            .iter()
            .flat_map(|(_, f)| f.binds.iter())
            .filter(|b| b.field == field.name)
            .map(|b| b.flag.as_str())
            .collect();
        let mentioned = hay.contains(&field.name) || flags.iter().any(|flag| hay.contains(flag));
        if !mentioned {
            out.push((
                cfg_path.clone(),
                drift(
                    field.line,
                    format!(
                        "config field `{}` is documented in neither README.md nor EXPERIMENTS.md",
                        field.name
                    ),
                    "add it to the config-knob table (README.md) or an experiment recipe"
                        .to_string(),
                ),
            ));
        }
    }
}

fn check_command_leg(
    facts: &BTreeMap<String, FileFacts>,
    docs: &BTreeMap<String, String>,
    out: &mut Vec<(String, Violation)>,
) {
    let Some((proto_path, proto)) = facts
        .iter()
        .find(|(p, _)| p.ends_with("serve/src/protocol.rs"))
    else {
        return;
    };
    let parse_arms: Vec<(&str, u32)> = proto
        .strings
        .iter()
        .filter(|s| s.in_fn == "parse" && (s.next == "=>" || s.next == "|"))
        .map(|s| (s.text.as_str(), s.line))
        .collect();
    let cmd_arms: Vec<(&str, u32)> = proto
        .strings
        .iter()
        .filter(|s| s.in_fn == "cmd" && s.prev == "=>")
        .map(|s| (s.text.as_str(), s.line))
        .collect();
    if parse_arms.is_empty() {
        return;
    }

    for (name, line) in &parse_arms {
        if !cmd_arms.iter().any(|(n, _)| n == name) {
            out.push((
                proto_path.clone(),
                drift(
                    *line,
                    format!("wire command `{name}` has a parse arm but no `Request::cmd()` arm"),
                    "add the command to `Request::cmd()` so telemetry and logs can name it"
                        .to_string(),
                ),
            ));
        }
    }
    for (name, line) in &cmd_arms {
        if !parse_arms.iter().any(|(n, _)| n == name) {
            out.push((
                proto_path.clone(),
                drift(
                    *line,
                    format!(
                        "`Request::cmd()` names `{name}`, which `Request::parse` never accepts"
                    ),
                    "add a parse arm for the command or drop the stale cmd() arm".to_string(),
                ),
            ));
        }
    }
    for v in proto.variants.iter().filter(|v| v.owner == "Request") {
        let wire = v.name.to_lowercase();
        if !parse_arms.iter().any(|(n, _)| *n == wire) {
            out.push((
                proto_path.clone(),
                drift(
                    v.line,
                    format!("`Request::{}` has no `\"{wire}\"` parse arm", v.name),
                    "wire the variant into `Request::parse` or remove it".to_string(),
                ),
            ));
        }
    }

    let Some(doc) = docs.get("SERVING.md") else {
        return;
    };
    let doc_cmds = command_table(doc);
    if doc_cmds.is_empty() {
        out.push((
            "SERVING.md".to_string(),
            drift(
                1,
                "SERVING.md lacks a wire-command table (first header cell `cmd`)".to_string(),
                "document the protocol commands in a `| cmd | … |` table".to_string(),
            ),
        ));
        return;
    }
    for (name, line) in &parse_arms {
        if !doc_cmds.iter().any(|(n, _)| n == name) {
            out.push((
                proto_path.clone(),
                drift(
                    *line,
                    format!("wire command `{name}` is missing from the SERVING.md command table"),
                    "add a row to the command table in SERVING.md".to_string(),
                ),
            ));
        }
    }
    for (name, line) in &doc_cmds {
        if !parse_arms.iter().any(|(n, _)| n == name) {
            out.push((
                "SERVING.md".to_string(),
                drift(
                    *line,
                    format!("SERVING.md documents wire command `{name}`, which the server does not parse"),
                    "drop the stale row or implement the command".to_string(),
                ),
            ));
        }
    }
}

/// Parses the first markdown table whose leading header cell is `cmd`;
/// returns `(command, 1-based line)` rows.
fn command_table(doc: &str) -> Vec<(String, u32)> {
    let mut rows: Vec<(String, u32)> = Vec::new();
    let mut in_table = false;
    for (i, line) in doc.lines().enumerate() {
        let trimmed = line.trim();
        if !trimmed.starts_with('|') {
            if in_table {
                break;
            }
            continue;
        }
        let first = trimmed
            .trim_matches('|')
            .split('|')
            .next()
            .unwrap_or("")
            .trim()
            .trim_matches('`')
            .to_string();
        if !in_table {
            if first == "cmd" {
                in_table = true;
            }
            continue;
        }
        if first.chars().all(|c| c == '-' || c == ':') {
            continue; // separator row
        }
        if !first.is_empty() {
            rows.push((first, (i + 1) as u32));
        }
    }
    rows
}

fn check_metric_leg(
    facts: &BTreeMap<String, FileFacts>,
    docs: &BTreeMap<String, String>,
    out: &mut Vec<(String, Violation)>,
) {
    let Some((metrics_path, metrics)) = facts
        .iter()
        .find(|(p, _)| p.ends_with("obs/src/metrics.rs"))
    else {
        return;
    };
    let mut code: BTreeMap<String, u32> = BTreeMap::new();
    for s in &metrics.strings {
        for name in metric_names(&s.text) {
            code.entry(name).or_insert(s.line);
        }
    }
    if code.is_empty() {
        return;
    }
    let Some(doc) = docs.get("SERVING.md") else {
        return;
    };
    let mut documented: BTreeMap<String, u32> = BTreeMap::new();
    for (i, line) in doc.lines().enumerate() {
        for name in metric_names(line) {
            documented.entry(name).or_insert((i + 1) as u32);
        }
    }
    for (name, line) in &code {
        if !documented.contains_key(name) {
            out.push((
                metrics_path.clone(),
                drift(
                    *line,
                    format!("metric `{name}` is not documented in SERVING.md"),
                    "add it to the SERVING.md metric table".to_string(),
                ),
            ));
        }
    }
    for (name, line) in &documented {
        if !code.contains_key(name) {
            out.push((
                "SERVING.md".to_string(),
                drift(
                    *line,
                    format!("SERVING.md mentions metric `{name}`, which metrics.rs does not emit"),
                    "drop the stale name or emit the metric".to_string(),
                ),
            ));
        }
    }
}

/// Extracts every full `flow3d_serve_*` metric name in `text` (a bare
/// prefix mention yields nothing).
fn metric_names(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = text;
    while let Some(pos) = rest.find(METRIC_PREFIX) {
        let tail = &rest[pos..];
        let end = tail
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(tail.len());
        if end > METRIC_PREFIX.len() {
            out.push(tail[..end].to_string());
        }
        rest = &rest[pos + METRIC_PREFIX.len()..];
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
    fn metric_name_extraction() {
        assert_eq!(
            metric_names("a flow3d_serve_queue_depth b flow3d_serve_ c"),
            vec!["flow3d_serve_queue_depth".to_string()]
        );
        assert_eq!(
            metric_names("\"flow3d_serve_request_latency_micros{{quantile=\\\"{q}\\\"}} {v}\\n\""),
            vec!["flow3d_serve_request_latency_micros".to_string()]
        );
    }

    #[test]
    fn unbound_config_field_drifts() {
        let facts = fact_map(&[
            (
                "crates/core/src/config.rs",
                "pub struct Flow3dConfig { pub alpha: f64, pub threads: usize }",
            ),
            (
                "crates/cli/src/main.rs",
                "fn go(args: &Args) { let c = Flow3dConfig { alpha: args.get_f64(\"alpha\", 0.1)?, ..Default::default() }; }",
            ),
        ]);
        let mut docs = BTreeMap::new();
        docs.insert("README.md".to_string(), "`--alpha` and threads".to_string());
        let v = check_w1(&facts, &docs);
        assert_eq!(v.len(), 1);
        assert!(v[0].1.message.contains("`threads`"));
    }

    #[test]
    fn undocumented_field_drifts() {
        let facts = fact_map(&[
            (
                "crates/core/src/config.rs",
                "pub struct Flow3dConfig { pub alpha: f64 }",
            ),
            (
                "crates/cli/src/main.rs",
                "fn go(args: &Args) { let c = Flow3dConfig { alpha: args.get_f64(\"alpha\", 0.1)? }; }",
            ),
        ]);
        let mut docs = BTreeMap::new();
        docs.insert("README.md".to_string(), "nothing relevant".to_string());
        let v = check_w1(&facts, &docs);
        assert_eq!(v.len(), 1);
        assert!(v[0].1.message.contains("documented in neither"));
    }

    #[test]
    fn command_sets_must_agree_with_doc_table() {
        let proto = "pub enum Request { Ping, Load }\nimpl Request {\n  fn parse(c: &str) { match c { \"ping\" => a(), \"load\" => b(), _ => e() } }\n  fn cmd(&self) -> &str { match self { Request::Ping => \"ping\", Request::Load => \"load\" } }\n}\n";
        let facts = fact_map(&[("crates/serve/src/protocol.rs", proto)]);
        let mut docs = BTreeMap::new();
        docs.insert(
            "SERVING.md".to_string(),
            "| `cmd` | effect |\n|---|---|\n| `ping` | liveness |\n| `halt` | bogus |\n"
                .to_string(),
        );
        let v = check_w1(&facts, &docs);
        // `load` missing from the table, `halt` documented but unknown.
        assert_eq!(v.len(), 2);
        assert!(v.iter().any(|(p, x)| p.ends_with("protocol.rs")
            && x.message.contains("`load` is missing from the SERVING.md")));
        assert!(v
            .iter()
            .any(|(p, x)| p == "SERVING.md" && x.message.contains("`halt`")));
    }

    #[test]
    fn cmd_arm_drift_is_caught_without_docs() {
        let proto = "pub enum Request { Ping }\nimpl Request {\n  fn parse(c: &str) { match c { \"ping\" => a(), _ => e() } }\n  fn cmd(&self) -> &str { match self { Request::Ping => \"pong\" } }\n}\n";
        let facts = fact_map(&[("crates/serve/src/protocol.rs", proto)]);
        let v = check_w1(&facts, &BTreeMap::new());
        // `ping` lacks a cmd() arm; `pong` has no parse arm.
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn metric_drift_both_directions() {
        let metrics = "fn to_prometheus() { emit(\"flow3d_serve_queue_depth\"); emit(\"flow3d_serve_requests_total\"); }";
        let facts = fact_map(&[("crates/obs/src/metrics.rs", metrics)]);
        let mut docs = BTreeMap::new();
        docs.insert(
            "SERVING.md".to_string(),
            "| `cmd` |\n|---|\n| `x` |\n\nflow3d_serve_queue_depth and flow3d_serve_ghost_gauge\n"
                .to_string(),
        );
        let v = check_w1(&facts, &docs);
        assert!(v
            .iter()
            .any(|(p, x)| p.ends_with("metrics.rs")
                && x.message.contains("flow3d_serve_requests_total")));
        assert!(v
            .iter()
            .any(|(p, x)| p == "SERVING.md" && x.message.contains("flow3d_serve_ghost_gauge")));
    }

    #[test]
    fn absent_anchor_files_skip_their_legs() {
        let facts = fact_map(&[("crates/geom/src/lib.rs", "pub fn area() -> u64 { 0 }")]);
        assert!(check_w1(&facts, &BTreeMap::new()).is_empty());
    }
}
