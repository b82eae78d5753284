//! [`RunReport`]: the serializable summary of one instrumented run —
//! phase timings, counters, and solution-quality metrics.

use crate::json::{Json, JsonError};
use crate::profile::Profile;
use std::fmt::Write as _;

/// Timing of one phase path within a run.
#[derive(Debug, Clone, PartialEq)]
// flow3d-tidy: allow(dead-pub) — telemetry schema (flow3d::obs) consumed by downstream report tooling
pub struct PhaseReport {
    /// Slash-separated phase path, e.g. `"legalize/flow_pass"`.
    pub path: String,
    /// Total wall time in seconds, summed over calls.
    pub seconds: f64,
    /// How many times the phase was entered.
    pub calls: u64,
}

/// Summary of one named histogram within a run (see
/// [`Histogram::summary`](crate::Histogram::summary)).
#[derive(Debug, Clone, PartialEq)]
// flow3d-tidy: allow(dead-pub) — telemetry schema (flow3d::obs) consumed by downstream report tooling
pub struct HistReport {
    /// Histogram name, e.g. `"cell_displacement"`.
    pub name: String,
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Estimated 50th percentile.
    pub p50: f64,
    /// Estimated 90th percentile.
    pub p90: f64,
    /// Estimated 99th percentile.
    pub p99: f64,
}

/// Solution-quality metrics attached to a run (the paper's Table III/IV
/// columns).
#[derive(Debug, Clone, PartialEq)]
pub struct Quality {
    /// Mean cell displacement between global and legalized placement, in
    /// database units.
    pub avg_disp: f64,
    /// Maximum cell displacement, in database units.
    pub max_disp: f64,
    /// HPWL degradation of the legalized placement relative to the
    /// global placement, in percent.
    pub dhpwl_pct: f64,
}

/// A complete run summary, serializable to JSON and to an aligned text
/// table.
///
/// Build one from a finished [`Profile`] with
/// [`from_profile`](RunReport::from_profile), optionally attach
/// [`Quality`], then emit with [`to_json`](RunReport::to_json) or
/// [`to_pretty`](RunReport::to_pretty). [`from_json`](RunReport::from_json)
/// inverts `to_json` exactly (up to float round-tripping, which Rust's
/// shortest-repr formatting makes lossless).
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Benchmark case name, e.g. `"iccad2022_case2"`.
    pub case: String,
    /// Legalizer name, e.g. `"flow3d"`.
    pub legalizer: String,
    /// Wall time of the whole run in seconds (phase times are nested
    /// inside this).
    pub total_seconds: f64,
    /// Per-phase timings, in first-entry order.
    pub phases: Vec<PhaseReport>,
    /// Counter values, in name order.
    pub counters: Vec<(String, u64)>,
    /// Histogram summaries, in name order (non-empty histograms only).
    pub hists: Vec<HistReport>,
    /// Quality metrics, when the caller computed them.
    pub quality: Option<Quality>,
    /// Peak resident set size of the process in bytes, when the caller
    /// sampled it (see [`peak_rss_bytes`](crate::peak_rss_bytes)).
    /// Machine-dependent, so the report diff ignores it.
    pub peak_rss_bytes: Option<u64>,
}

impl RunReport {
    /// Snapshots a profile into a report.
    pub fn from_profile(case: &str, legalizer: &str, profile: &Profile) -> Self {
        Self {
            case: case.to_string(),
            legalizer: legalizer.to_string(),
            total_seconds: profile.total_elapsed().as_secs_f64(),
            phases: profile
                .phases()
                .map(|(path, stats)| PhaseReport {
                    path: path.to_string(),
                    seconds: stats.total.as_secs_f64(),
                    calls: stats.calls,
                })
                .collect(),
            counters: profile
                .counters()
                .iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            hists: profile
                .hists()
                .iter()
                .filter(|(_, h)| h.count() > 0)
                .map(|(name, h)| {
                    let s = h.summary();
                    HistReport {
                        name: name.to_string(),
                        count: s.count,
                        sum: s.sum,
                        min: s.min,
                        max: s.max,
                        p50: s.p50,
                        p90: s.p90,
                        p99: s.p99,
                    }
                })
                .collect(),
            quality: None,
            peak_rss_bytes: None,
        }
    }

    /// Attaches quality metrics (builder style).
    pub fn with_quality(mut self, quality: Quality) -> Self {
        self.quality = Some(quality);
        self
    }

    /// Value of a named counter, when the run recorded it.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Selection-memo hit rate `hits / (hits + misses)` over the run's
    /// counters, or `None` when the memo was **disabled** (neither
    /// counter recorded — the flow pass bumps them only with
    /// `selection_memo` on, even for zero values). A run that had the
    /// memo enabled but took no hits reports `Some(0.0)`, so "cold this
    /// request" and "memo off" stay distinguishable downstream
    /// (serve `stats`, `repro bench`).
    pub fn selection_memo_hit_rate(&self) -> Option<f64> {
        let hits = self.counter(crate::keys::SELECTION_MEMO_HITS);
        let misses = self.counter(crate::keys::SELECTION_MEMO_MISSES);
        if hits.is_none() && misses.is_none() {
            return None;
        }
        let hits = hits.unwrap_or(0);
        let total = hits + misses.unwrap_or(0);
        if total == 0 {
            // Enabled but no lookups ran (e.g. no overflow, so no
            // searches): a defined 0.0, not "disabled".
            return Some(0.0);
        }
        Some(hits as f64 / total as f64)
    }

    /// Attaches a peak-RSS sample in bytes (builder style). Not filled
    /// in by [`from_profile`](Self::from_profile) — the gauge is a
    /// process-wide high-water mark, so sampling is an explicit caller
    /// decision, taken right after the work being measured.
    pub fn with_peak_rss(mut self, bytes: u64) -> Self {
        self.peak_rss_bytes = Some(bytes);
        self
    }

    /// Serializes to a compact JSON document: exactly the text of
    /// [`to_json_value`](Self::to_json_value).
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// The report as a JSON value, for embedding in a larger document
    /// without a serialize-and-reparse round trip.
    pub fn to_json_value(&self) -> Json {
        let mut fields = vec![
            ("case".to_string(), Json::Str(self.case.clone())),
            ("legalizer".to_string(), Json::Str(self.legalizer.clone())),
            ("total_seconds".to_string(), Json::num(self.total_seconds)),
            (
                "phases".to_string(),
                Json::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            Json::Obj(vec![
                                ("path".to_string(), Json::Str(p.path.clone())),
                                ("seconds".to_string(), Json::num(p.seconds)),
                                ("calls".to_string(), Json::Num(p.calls as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "counters".to_string(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Num(*v as f64)))
                        .collect(),
                ),
            ),
        ];
        if !self.hists.is_empty() {
            fields.push((
                "histograms".to_string(),
                Json::Arr(
                    self.hists
                        .iter()
                        .map(|h| {
                            Json::Obj(vec![
                                ("name".to_string(), Json::Str(h.name.clone())),
                                ("count".to_string(), Json::Num(h.count as f64)),
                                ("sum".to_string(), Json::num(h.sum)),
                                ("min".to_string(), Json::num(h.min)),
                                ("max".to_string(), Json::num(h.max)),
                                ("p50".to_string(), Json::num(h.p50)),
                                ("p90".to_string(), Json::num(h.p90)),
                                ("p99".to_string(), Json::num(h.p99)),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        if let Some(q) = &self.quality {
            fields.push((
                "quality".to_string(),
                Json::Obj(vec![
                    ("avg_disp".to_string(), Json::num(q.avg_disp)),
                    ("max_disp".to_string(), Json::num(q.max_disp)),
                    ("dhpwl_pct".to_string(), Json::num(q.dhpwl_pct)),
                ]),
            ));
        }
        if let Some(rss) = self.peak_rss_bytes {
            fields.push(("peak_rss_bytes".to_string(), Json::Num(rss as f64)));
        }
        Json::Obj(fields)
    }

    /// Parses a report previously produced by [`to_json`](Self::to_json).
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        let doc = Json::parse(text)?;
        let missing = |field: &str| JsonError {
            message: format!("missing or ill-typed field '{field}'"),
            offset: 0,
        };
        let case = doc
            .get("case")
            .and_then(Json::as_str)
            .ok_or_else(|| missing("case"))?
            .to_string();
        let legalizer = doc
            .get("legalizer")
            .and_then(Json::as_str)
            .ok_or_else(|| missing("legalizer"))?
            .to_string();
        let total_seconds = doc
            .get("total_seconds")
            .and_then(Json::as_f64)
            .ok_or_else(|| missing("total_seconds"))?;
        let mut phases = Vec::new();
        for p in doc
            .get("phases")
            .and_then(Json::as_array)
            .ok_or_else(|| missing("phases"))?
        {
            phases.push(PhaseReport {
                path: p
                    .get("path")
                    .and_then(Json::as_str)
                    .ok_or_else(|| missing("phases[].path"))?
                    .to_string(),
                seconds: p
                    .get("seconds")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| missing("phases[].seconds"))?,
                calls: p
                    .get("calls")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| missing("phases[].calls"))?,
            });
        }
        let mut counters = Vec::new();
        match doc.get("counters") {
            Some(Json::Obj(pairs)) => {
                for (k, v) in pairs {
                    counters.push((
                        k.clone(),
                        v.as_u64().ok_or_else(|| missing("counters values"))?,
                    ));
                }
            }
            _ => return Err(missing("counters")),
        }
        let mut hists = Vec::new();
        // "histograms" is optional: pre-telemetry reports omit it.
        if let Some(arr) = doc.get("histograms").and_then(Json::as_array) {
            for h in arr {
                let num = |field: &'static str| {
                    h.get(field)
                        .and_then(Json::as_f64)
                        .ok_or_else(|| missing(&format!("histograms[].{field}")))
                };
                hists.push(HistReport {
                    name: h
                        .get("name")
                        .and_then(Json::as_str)
                        .ok_or_else(|| missing("histograms[].name"))?
                        .to_string(),
                    count: h
                        .get("count")
                        .and_then(Json::as_u64)
                        .ok_or_else(|| missing("histograms[].count"))?,
                    sum: num("sum")?,
                    min: num("min")?,
                    max: num("max")?,
                    p50: num("p50")?,
                    p90: num("p90")?,
                    p99: num("p99")?,
                });
            }
        }
        let quality = match doc.get("quality") {
            None => None,
            Some(q) => Some(Quality {
                avg_disp: q
                    .get("avg_disp")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| missing("quality.avg_disp"))?,
                max_disp: q
                    .get("max_disp")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| missing("quality.max_disp"))?,
                dhpwl_pct: q
                    .get("dhpwl_pct")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| missing("quality.dhpwl_pct"))?,
            }),
        };
        // Optional like "histograms"/"quality": absent on non-Linux runs
        // and in pre-gauge reports.
        let peak_rss_bytes = doc.get("peak_rss_bytes").and_then(Json::as_u64);
        Ok(Self {
            case,
            legalizer,
            total_seconds,
            phases,
            counters,
            hists,
            quality,
            peak_rss_bytes,
        })
    }

    /// Renders an aligned, human-readable text table.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "run report: {} ({})", self.case, self.legalizer);
        let _ = writeln!(out, "total: {:.3} s", self.total_seconds);
        if !self.phases.is_empty() {
            let width = self
                .phases
                .iter()
                .map(|p| p.path.len())
                .max()
                .unwrap_or(0)
                .max("phase".len());
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "{:<width$}  {:>10}  {:>6}  {:>7}",
                "phase", "time", "%", "calls"
            );
            for p in &self.phases {
                let pct = if self.total_seconds > 0.0 {
                    100.0 * p.seconds / self.total_seconds
                } else {
                    0.0
                };
                let _ = writeln!(
                    out,
                    "{:<width$}  {:>8.3} s  {:>6.1}  {:>7}",
                    p.path, p.seconds, pct, p.calls
                );
            }
        }
        if !self.counters.is_empty() {
            let width = self
                .counters
                .iter()
                .map(|(k, _)| k.len())
                .max()
                .unwrap_or(0);
            let _ = writeln!(out);
            let _ = writeln!(out, "counters");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<width$} = {v}");
            }
            if let Some(rate) = self.selection_memo_hit_rate() {
                let _ = writeln!(out, "  selection memo hit rate: {:.1} %", 100.0 * rate);
            }
        }
        if !self.hists.is_empty() {
            let width = self
                .hists
                .iter()
                .map(|h| h.name.len())
                .max()
                .unwrap_or(0)
                .max("histogram".len());
            let _ = writeln!(out);
            let _ = writeln!(
                out,
                "{:<width$}  {:>8}  {:>10}  {:>10}  {:>10}  {:>10}",
                "histogram", "count", "p50", "p90", "p99", "max"
            );
            for h in &self.hists {
                let _ = writeln!(
                    out,
                    "{:<width$}  {:>8}  {:>10.2}  {:>10.2}  {:>10.2}  {:>10.2}",
                    h.name, h.count, h.p50, h.p90, h.p99, h.max
                );
            }
        }
        if let Some(q) = &self.quality {
            let _ = writeln!(out);
            let _ = writeln!(out, "quality");
            let _ = writeln!(out, "  avg displacement = {:.3}", q.avg_disp);
            let _ = writeln!(out, "  max displacement = {:.3}", q.max_disp);
            let _ = writeln!(out, "  dHPWL            = {:.3} %", q.dhpwl_pct);
        }
        if let Some(rss) = self.peak_rss_bytes {
            let _ = writeln!(out);
            let _ = writeln!(out, "peak RSS = {:.1} MiB", rss as f64 / (1024.0 * 1024.0));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunReport {
        RunReport {
            case: "iccad2022_case2".to_string(),
            legalizer: "flow3d".to_string(),
            total_seconds: 1.5,
            phases: vec![
                PhaseReport {
                    path: "legalize".to_string(),
                    seconds: 1.25,
                    calls: 1,
                },
                PhaseReport {
                    path: "legalize/flow_pass".to_string(),
                    seconds: 0.75,
                    calls: 3,
                },
            ],
            counters: vec![
                ("cells_moved".to_string(), 678),
                ("nodes_expanded".to_string(), 12345),
            ],
            hists: vec![HistReport {
                name: "cell_displacement".to_string(),
                count: 4321,
                sum: 8000.5,
                min: 0.0,
                max: 312.0,
                p50: 1.5,
                p90: 12.0,
                p99: 100.25,
            }],
            quality: Some(Quality {
                avg_disp: 1.25,
                max_disp: 10.0,
                dhpwl_pct: 0.52,
            }),
            peak_rss_bytes: Some(123 * 1024 * 1024),
        }
    }

    #[test]
    fn json_round_trips_exactly() {
        let report = sample();
        let parsed = RunReport::from_json(&report.to_json()).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn json_value_equals_the_reparsed_text() {
        // Embedding the value directly must give the same document the
        // old serialize-and-reparse path produced.
        let report = sample();
        assert_eq!(
            Json::parse(&report.to_json()).unwrap(),
            report.to_json_value()
        );
    }

    #[test]
    fn json_round_trips_without_quality() {
        let report = RunReport {
            quality: None,
            hists: Vec::new(),
            ..sample()
        };
        let json = report.to_json();
        assert!(!json.contains("histograms"), "empty hists omitted: {json}");
        let parsed = RunReport::from_json(&json).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn selection_memo_hit_rate_from_counters() {
        let mut report = sample();
        assert_eq!(report.selection_memo_hit_rate(), None, "no memo counters");
        report
            .counters
            .push((crate::keys::SELECTION_MEMO_HITS.to_string(), 30));
        report
            .counters
            .push((crate::keys::SELECTION_MEMO_MISSES.to_string(), 10));
        assert_eq!(report.selection_memo_hit_rate(), Some(0.75));
        let pretty = report.to_pretty();
        assert!(
            pretty.contains("selection memo hit rate: 75.0 %"),
            "{pretty}"
        );
        report.counters.retain(|(k, _)| !k.contains("memo"));
        report
            .counters
            .push((crate::keys::SELECTION_MEMO_MISSES.to_string(), 10));
        assert_eq!(
            report.selection_memo_hit_rate(),
            Some(0.0),
            "all-miss runs report 0.0 so callers can warn"
        );
        report.counters.retain(|(k, _)| !k.contains("memo"));
        report
            .counters
            .push((crate::keys::SELECTION_MEMO_HITS.to_string(), 0));
        report
            .counters
            .push((crate::keys::SELECTION_MEMO_MISSES.to_string(), 0));
        assert_eq!(
            report.selection_memo_hit_rate(),
            Some(0.0),
            "enabled-but-idle (0/0 counters present) is 0.0, not None"
        );
    }

    #[test]
    fn from_profile_snapshots_phases_counters_and_hists() {
        let mut p = Profile::new();
        p.begin("a");
        p.begin("b");
        p.bump("k", 3);
        p.record("disp", 2.0);
        p.record("disp", 6.0);
        p.end("b");
        p.end("a");
        let report = RunReport::from_profile("case", "lg", &p);
        assert_eq!(report.case, "case");
        assert_eq!(report.phases.len(), 2);
        assert_eq!(report.phases[0].path, "a");
        assert_eq!(report.phases[1].path, "a/b");
        assert_eq!(report.counters, vec![("k".to_string(), 3)]);
        assert_eq!(report.hists.len(), 1);
        assert_eq!(report.hists[0].name, "disp");
        assert_eq!(report.hists[0].count, 2);
        assert_eq!(report.hists[0].min, 2.0);
        assert_eq!(report.hists[0].max, 6.0);
        assert!(report.total_seconds >= report.phases[0].seconds);
    }

    #[test]
    fn empty_histograms_are_not_reported() {
        let mut p = Profile::new();
        p.hists_mut().entry("untouched_via_entry");
        let report = RunReport::from_profile("case", "lg", &p);
        assert!(report.hists.is_empty());
    }

    #[test]
    fn pretty_output_mentions_everything() {
        let text = sample().to_pretty();
        for needle in [
            "iccad2022_case2",
            "flow3d",
            "legalize/flow_pass",
            "nodes_expanded",
            "12345",
            "cell_displacement",
            "dHPWL",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn from_json_rejects_malformed_reports() {
        assert!(RunReport::from_json("{}").is_err());
        assert!(RunReport::from_json("not json").is_err());
        assert!(RunReport::from_json(r#"{"case": 3}"#).is_err());
    }
}
