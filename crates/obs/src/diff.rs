//! Report diffing: compares two [`RunReport`]s metric by metric against
//! configurable tolerances — the engine behind `flow3d report diff` and
//! the CI perf-regression gate.
//!
//! Only *regressions* (a metric increasing over the baseline) are
//! penalized; improvements always pass. Runtime metrics get loose
//! tolerances (wall time varies across machines), while quality metrics
//! and counters are deterministic per case and can be held tight.

use crate::report::RunReport;
use std::fmt;

/// Severity of one compared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DiffStatus {
    /// Within the warn tolerance (or improved).
    Pass,
    /// Beyond the warn tolerance but within the fail tolerance, or a
    /// structural mismatch that does not invalidate the comparison
    /// (metric present on only one side).
    Warn,
    /// Beyond the fail tolerance, or reports that are not comparable at
    /// all (different case / legalizer).
    Fail,
}

impl fmt::Display for DiffStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DiffStatus::Pass => "pass",
            DiffStatus::Warn => "WARN",
            DiffStatus::Fail => "FAIL",
        })
    }
}

/// One compared metric.
#[derive(Debug, Clone, PartialEq)]
// flow3d-tidy: allow(dead-pub) — telemetry schema (flow3d::obs) consumed by downstream report tooling
pub struct DiffItem {
    /// Metric identifier, e.g. `"phase/legalize/flow_pass"` or
    /// `"quality/avg_disp"`.
    pub metric: String,
    /// Baseline value (`NaN` when absent on that side).
    pub baseline: f64,
    /// Current value (`NaN` when absent on that side).
    pub current: f64,
    /// Relative change in percent (positive = regression); `NaN` for
    /// structural items.
    pub delta_pct: f64,
    /// Verdict under the tolerances the diff ran with.
    pub status: DiffStatus,
}

/// Tolerances for [`diff_reports`], as percent increases over baseline.
///
/// `warn < fail` for each pair; a delta strictly greater than the fail
/// threshold fails, strictly greater than the warn threshold warns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffTolerances {
    /// Warn threshold for runtime metrics (total and per-phase seconds).
    pub rt_warn_pct: f64,
    /// Fail threshold for runtime metrics.
    pub rt_fail_pct: f64,
    /// Warn threshold for quality metrics (displacement, dHPWL) and
    /// histogram percentiles.
    pub disp_warn_pct: f64,
    /// Fail threshold for quality metrics.
    pub disp_fail_pct: f64,
    /// Warn threshold for counter deltas.
    pub counter_warn_pct: f64,
    /// Fail threshold for counter deltas.
    pub counter_fail_pct: f64,
    /// Runtime metrics where both sides are below this many seconds are
    /// skipped — sub-millisecond phases are pure noise.
    pub min_seconds: f64,
}

impl Default for DiffTolerances {
    /// Loose on runtime (machines differ), tight on deterministic
    /// quality and counter metrics.
    fn default() -> Self {
        Self {
            rt_warn_pct: 25.0,
            rt_fail_pct: 100.0,
            disp_warn_pct: 0.5,
            disp_fail_pct: 2.0,
            counter_warn_pct: 5.0,
            counter_fail_pct: 25.0,
            min_seconds: 0.005,
        }
    }
}

/// Counters whose regressions never fail a diff, only warn.
///
/// These are kernel-internal efficiency measures (pop-time frontier
/// drops): their values shift whenever search internals are
/// retuned while the *placement* stays bit-identical, so gating CI on
/// them would punish exactly the optimizations they exist to observe.
/// The outcome-facing counters (paths, moves, retries) stay under the
/// full counter tolerances.
// flow3d-tidy: allow(dead-pub) — telemetry schema (flow3d::obs) consumed by downstream report tooling
pub const ADVISORY_COUNTERS: &[&str] = &[crate::counters::keys::BRANCHES_PRUNED_STALE];

/// The outcome of comparing two reports.
#[derive(Debug, Clone, PartialEq)]
// flow3d-tidy: allow(dead-pub) — telemetry schema (flow3d::obs) consumed by downstream report tooling
pub struct ReportDiff {
    /// Every compared metric, in comparison order.
    pub items: Vec<DiffItem>,
}

impl ReportDiff {
    /// The most severe status across all items ([`DiffStatus::Pass`]
    /// for an empty diff).
    pub fn worst(&self) -> DiffStatus {
        self.items
            .iter()
            .map(|i| i.status)
            .max()
            .unwrap_or(DiffStatus::Pass)
    }

    /// Items at or above a given severity.
    pub fn at_least(&self, status: DiffStatus) -> impl Iterator<Item = &DiffItem> {
        self.items.iter().filter(move |i| i.status >= status)
    }

    /// Renders an aligned, human-readable verdict table.
    pub fn to_pretty(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let width = self
            .items
            .iter()
            .map(|i| i.metric.len())
            .max()
            .unwrap_or(0)
            .max("metric".len());
        let _ = writeln!(
            out,
            "{:<width$}  {:>12}  {:>12}  {:>9}  status",
            "metric", "baseline", "current", "delta"
        );
        for i in &self.items {
            let delta = if i.delta_pct.is_nan() {
                "-".to_string()
            } else {
                format!("{:+.2} %", i.delta_pct)
            };
            let _ = writeln!(
                out,
                "{:<width$}  {:>12}  {:>12}  {:>9}  {}",
                i.metric,
                fmt_val(i.baseline),
                fmt_val(i.current),
                delta,
                i.status
            );
        }
        let _ = writeln!(out, "\nverdict: {}", self.worst());
        out
    }
}

fn fmt_val(v: f64) -> String {
    if v.is_nan() {
        "-".to_string()
    } else if v.fract() == 0.0 && v.abs() < 1e12 {
        format!("{v}")
    } else {
        format!("{v:.4}")
    }
}

/// Relative increase of `cur` over `base` in percent; positive means a
/// regression. A zero baseline with a non-zero current reads as an
/// infinite regression.
fn rel_delta_pct(base: f64, cur: f64) -> f64 {
    if base.abs() < 1e-12 {
        if cur.abs() < 1e-12 {
            0.0
        } else if cur > 0.0 {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        }
    } else {
        (cur - base) / base.abs() * 100.0
    }
}

fn classify(delta_pct: f64, warn: f64, fail: f64) -> DiffStatus {
    if delta_pct > fail {
        DiffStatus::Fail
    } else if delta_pct > warn {
        DiffStatus::Warn
    } else {
        DiffStatus::Pass
    }
}

/// Compares `current` against `baseline` under `tol`.
///
/// Compared metrics, in order: report identity (case / legalizer must
/// match), total and per-phase runtime, quality (avg/max displacement,
/// dHPWL), counters, and histogram p99/max. Metrics present on only one
/// side produce [`DiffStatus::Warn`] structural items — they make the
/// diff visible without failing CI on intentional instrumentation
/// changes.
// flow3d-tidy: allow(dead-pub) — telemetry schema (flow3d::obs) consumed by downstream report tooling
pub fn diff_reports(baseline: &RunReport, current: &RunReport, tol: &DiffTolerances) -> ReportDiff {
    diff_reports_phase(baseline, current, tol, None)
}

/// [`diff_reports`] restricted to the phases whose path contains
/// `phase_filter`.
///
/// With `Some(filter)`, only per-phase runtime metrics matching the
/// filter are compared — identity is still checked, but total runtime,
/// quality, counters, and histograms are skipped. This is the engine
/// behind `flow3d report diff --phase …`: a CI gate can hold one hot
/// phase (e.g. `flow_pass/search_batch`) to a tight wall-clock tolerance
/// without the noise of every other metric. `None` is the full diff.
pub fn diff_reports_phase(
    baseline: &RunReport,
    current: &RunReport,
    tol: &DiffTolerances,
    phase_filter: Option<&str>,
) -> ReportDiff {
    let mut items = Vec::new();
    let structural = |metric: String, base: f64, cur: f64, status: DiffStatus| DiffItem {
        metric,
        baseline: base,
        current: cur,
        delta_pct: f64::NAN,
        status,
    };

    if baseline.case != current.case || baseline.legalizer != current.legalizer {
        items.push(structural(
            format!(
                "identity ({}/{} vs {}/{})",
                baseline.case, baseline.legalizer, current.case, current.legalizer
            ),
            f64::NAN,
            f64::NAN,
            DiffStatus::Fail,
        ));
        return ReportDiff { items };
    }

    let runtime = |metric: String, base: f64, cur: f64, items: &mut Vec<DiffItem>| {
        if base < tol.min_seconds && cur < tol.min_seconds {
            return;
        }
        let delta = rel_delta_pct(base, cur);
        items.push(DiffItem {
            metric,
            baseline: base,
            current: cur,
            delta_pct: delta,
            status: classify(delta, tol.rt_warn_pct, tol.rt_fail_pct),
        });
    };
    if phase_filter.is_none() {
        runtime(
            "total_seconds".to_string(),
            baseline.total_seconds,
            current.total_seconds,
            &mut items,
        );
    }
    let phase_matches = |path: &str| phase_filter.is_none_or(|f| path.contains(f));
    for bp in &baseline.phases {
        if !phase_matches(&bp.path) {
            continue;
        }
        match current.phases.iter().find(|cp| cp.path == bp.path) {
            Some(cp) => runtime(
                format!("phase/{}", bp.path),
                bp.seconds,
                cp.seconds,
                &mut items,
            ),
            None => items.push(structural(
                format!("phase/{} (missing in current)", bp.path),
                bp.seconds,
                f64::NAN,
                DiffStatus::Warn,
            )),
        }
    }
    for cp in &current.phases {
        if !phase_matches(&cp.path) {
            continue;
        }
        if !baseline.phases.iter().any(|bp| bp.path == cp.path) {
            items.push(structural(
                format!("phase/{} (new in current)", cp.path),
                f64::NAN,
                cp.seconds,
                DiffStatus::Warn,
            ));
        }
    }
    if phase_filter.is_some() {
        // A phase-scoped diff compares only the wall-clock of the
        // selected phases; everything else belongs to the full diff.
        return ReportDiff { items };
    }

    let quality = |metric: String, base: f64, cur: f64, items: &mut Vec<DiffItem>| {
        let delta = rel_delta_pct(base, cur);
        items.push(DiffItem {
            metric,
            baseline: base,
            current: cur,
            delta_pct: delta,
            status: classify(delta, tol.disp_warn_pct, tol.disp_fail_pct),
        });
    };
    match (&baseline.quality, &current.quality) {
        (Some(b), Some(c)) => {
            quality(
                "quality/avg_disp".to_string(),
                b.avg_disp,
                c.avg_disp,
                &mut items,
            );
            quality(
                "quality/max_disp".to_string(),
                b.max_disp,
                c.max_disp,
                &mut items,
            );
            quality(
                "quality/dhpwl_pct".to_string(),
                b.dhpwl_pct,
                c.dhpwl_pct,
                &mut items,
            );
        }
        (Some(_), None) => items.push(structural(
            "quality (missing in current)".to_string(),
            f64::NAN,
            f64::NAN,
            DiffStatus::Warn,
        )),
        _ => {}
    }

    for (name, base) in &baseline.counters {
        match current.counters.iter().find(|(n, _)| n == name) {
            Some((_, cur)) => {
                let delta = rel_delta_pct(*base as f64, *cur as f64);
                let mut status = classify(delta, tol.counter_warn_pct, tol.counter_fail_pct);
                if ADVISORY_COUNTERS.contains(&name.as_str()) {
                    status = status.min(DiffStatus::Warn);
                }
                items.push(DiffItem {
                    metric: format!("counter/{name}"),
                    baseline: *base as f64,
                    current: *cur as f64,
                    delta_pct: delta,
                    status,
                });
            }
            None => items.push(structural(
                format!("counter/{name} (missing in current)"),
                *base as f64,
                f64::NAN,
                DiffStatus::Warn,
            )),
        }
    }
    for (name, cur) in &current.counters {
        if !baseline.counters.iter().any(|(n, _)| n == name) {
            items.push(structural(
                format!("counter/{name} (new in current)"),
                f64::NAN,
                *cur as f64,
                DiffStatus::Warn,
            ));
        }
    }

    for bh in &baseline.hists {
        match current.hists.iter().find(|ch| ch.name == bh.name) {
            Some(ch) => {
                quality(format!("hist/{}/p99", bh.name), bh.p99, ch.p99, &mut items);
                quality(format!("hist/{}/max", bh.name), bh.max, ch.max, &mut items);
            }
            None => items.push(structural(
                format!("hist/{} (missing in current)", bh.name),
                f64::NAN,
                f64::NAN,
                DiffStatus::Warn,
            )),
        }
    }
    for ch in &current.hists {
        if !baseline.hists.iter().any(|bh| bh.name == ch.name) {
            items.push(structural(
                format!("hist/{} (new in current)", ch.name),
                f64::NAN,
                f64::NAN,
                DiffStatus::Warn,
            ));
        }
    }

    ReportDiff { items }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{HistReport, PhaseReport, Quality};

    fn report() -> RunReport {
        RunReport {
            case: "case".to_string(),
            legalizer: "flow3d".to_string(),
            total_seconds: 10.0,
            phases: vec![PhaseReport {
                path: "legalize".to_string(),
                seconds: 8.0,
                calls: 1,
            }],
            counters: vec![("cells_moved".to_string(), 1000)],
            hists: vec![HistReport {
                name: "cell_displacement".to_string(),
                count: 100,
                sum: 5000.0,
                min: 1.0,
                max: 200.0,
                p50: 40.0,
                p90: 90.0,
                p99: 150.0,
            }],
            quality: Some(Quality {
                avg_disp: 50.0,
                max_disp: 200.0,
                dhpwl_pct: 0.5,
            }),
            peak_rss_bytes: None,
        }
    }

    fn status_of<'d>(diff: &'d ReportDiff, metric: &str) -> &'d DiffItem {
        diff.items
            .iter()
            .find(|i| i.metric == metric)
            .unwrap_or_else(|| panic!("no item {metric:?} in {:?}", diff.items))
    }

    #[test]
    fn identical_reports_pass_everything() {
        let r = report();
        let diff = diff_reports(&r, &r, &DiffTolerances::default());
        assert_eq!(diff.worst(), DiffStatus::Pass);
        assert!(!diff.items.is_empty());
    }

    #[test]
    fn improvements_always_pass() {
        let base = report();
        let mut cur = report();
        cur.total_seconds = 1.0;
        cur.quality.as_mut().unwrap().avg_disp = 10.0;
        cur.counters[0].1 = 1;
        let diff = diff_reports(&base, &cur, &DiffTolerances::default());
        assert_eq!(diff.worst(), DiffStatus::Pass);
    }

    #[test]
    fn runtime_tolerance_boundaries() {
        let tol = DiffTolerances::default(); // warn 25, fail 100
        let base = report();

        // Exactly at the warn threshold: +25.0 % is not > 25.0 → Pass.
        let mut cur = report();
        cur.total_seconds = 12.5;
        let diff = diff_reports(&base, &cur, &tol);
        assert_eq!(status_of(&diff, "total_seconds").status, DiffStatus::Pass);

        // Just beyond warn, within fail → Warn.
        cur.total_seconds = 12.6;
        let diff = diff_reports(&base, &cur, &tol);
        assert_eq!(status_of(&diff, "total_seconds").status, DiffStatus::Warn);
        assert_eq!(diff.worst(), DiffStatus::Warn);

        // Exactly at fail (+100 %) → still Warn; beyond → Fail.
        cur.total_seconds = 20.0;
        let diff = diff_reports(&base, &cur, &tol);
        assert_eq!(status_of(&diff, "total_seconds").status, DiffStatus::Warn);
        cur.total_seconds = 20.1;
        let diff = diff_reports(&base, &cur, &tol);
        assert_eq!(status_of(&diff, "total_seconds").status, DiffStatus::Fail);
        assert_eq!(diff.worst(), DiffStatus::Fail);
    }

    #[test]
    fn quality_regression_fails_tight_tolerance() {
        let base = report();
        let mut cur = report();
        // +3 % average displacement: beyond the 2 % fail threshold.
        cur.quality.as_mut().unwrap().avg_disp = 51.5;
        let diff = diff_reports(&base, &cur, &DiffTolerances::default());
        assert_eq!(
            status_of(&diff, "quality/avg_disp").status,
            DiffStatus::Fail
        );
    }

    #[test]
    fn hist_percentile_regression_is_detected() {
        let base = report();
        let mut cur = report();
        cur.hists[0].p99 = 200.0; // +33 %
        let diff = diff_reports(&base, &cur, &DiffTolerances::default());
        assert_eq!(
            status_of(&diff, "hist/cell_displacement/p99").status,
            DiffStatus::Fail
        );
    }

    #[test]
    fn tiny_runtimes_are_skipped() {
        let mut base = report();
        let mut cur = report();
        base.phases[0].seconds = 0.0001;
        cur.phases[0].seconds = 0.004; // 40x, but both under min_seconds
        base.total_seconds = 0.004;
        cur.total_seconds = 0.004;
        let diff = diff_reports(&base, &cur, &DiffTolerances::default());
        assert!(diff.items.iter().all(|i| !i.metric.starts_with("phase/")));
        assert_eq!(diff.worst(), DiffStatus::Pass);
    }

    #[test]
    fn structural_mismatches_warn_not_fail() {
        let base = report();
        let mut cur = report();
        cur.phases.push(PhaseReport {
            path: "legalize/new_phase".to_string(),
            seconds: 1.0,
            calls: 1,
        });
        cur.counters.clear();
        cur.hists.clear();
        let diff = diff_reports(&base, &cur, &DiffTolerances::default());
        assert_eq!(diff.worst(), DiffStatus::Warn);
        assert!(diff.at_least(DiffStatus::Warn).count() >= 3);
    }

    #[test]
    fn mismatched_identity_fails_immediately() {
        let base = report();
        let mut cur = report();
        cur.case = "other_case".to_string();
        let diff = diff_reports(&base, &cur, &DiffTolerances::default());
        assert_eq!(diff.worst(), DiffStatus::Fail);
        assert_eq!(diff.items.len(), 1);
    }

    #[test]
    fn zero_baseline_regression_is_infinite() {
        let mut base = report();
        let mut cur = report();
        base.counters[0].1 = 0;
        cur.counters[0].1 = 5;
        let diff = diff_reports(&base, &cur, &DiffTolerances::default());
        assert_eq!(
            status_of(&diff, "counter/cells_moved").status,
            DiffStatus::Fail
        );
    }

    #[test]
    fn advisory_counters_warn_but_never_fail() {
        let mut base = report();
        let mut cur = report();
        base.counters
            .push(("branches_pruned_stale".to_string(), 100));
        cur.counters
            .push(("branches_pruned_stale".to_string(), 500)); // +400 %
        let diff = diff_reports(&base, &cur, &DiffTolerances::default());
        assert_eq!(
            status_of(&diff, "counter/branches_pruned_stale").status,
            DiffStatus::Warn,
            "advisory counters cap at Warn"
        );
        // A regular counter with the same regression still fails.
        cur.counters[0].1 = 5000;
        let diff = diff_reports(&base, &cur, &DiffTolerances::default());
        assert_eq!(
            status_of(&diff, "counter/cells_moved").status,
            DiffStatus::Fail
        );
    }

    #[test]
    fn phase_filter_scopes_the_diff_to_matching_phases() {
        let mut base = report();
        let mut cur = report();
        base.phases.push(PhaseReport {
            path: "legalize/flow_pass/search_batch".to_string(),
            seconds: 2.0,
            calls: 1,
        });
        cur.phases.push(PhaseReport {
            path: "legalize/flow_pass/search_batch".to_string(),
            seconds: 5.0, // +150 %: beyond the default fail threshold
            calls: 1,
        });
        // Unfiltered items the scoped diff must ignore: a huge total
        // regression and a counter regression.
        cur.total_seconds = 100.0;
        cur.counters[0].1 = 100_000;

        let tol = DiffTolerances {
            min_seconds: 0.0,
            ..DiffTolerances::default()
        };
        let diff = diff_reports_phase(&base, &cur, &tol, Some("flow_pass/search_batch"));
        assert_eq!(diff.items.len(), 1, "{:?}", diff.items);
        assert_eq!(
            status_of(&diff, "phase/legalize/flow_pass/search_batch").status,
            DiffStatus::Fail
        );
        // The same inputs with no filter still see the other regressions.
        let full = diff_reports(&base, &cur, &tol);
        assert!(full.items.len() > 1);
    }

    #[test]
    fn phase_filter_still_rejects_mismatched_identity() {
        let base = report();
        let mut cur = report();
        cur.case = "other_case".to_string();
        let diff = diff_reports_phase(
            &base,
            &cur,
            &DiffTolerances::default(),
            Some("search_batch"),
        );
        assert_eq!(diff.worst(), DiffStatus::Fail);
    }

    #[test]
    fn missing_rows_warn_in_both_directions() {
        let mut base = report();
        let mut cur = report();
        base.phases.push(PhaseReport {
            path: "legalize/retired".to_string(),
            seconds: 1.0,
            calls: 1,
        });
        cur.phases.push(PhaseReport {
            path: "serve/load".to_string(),
            seconds: 1.0,
            calls: 1,
        });
        let diff = diff_reports(&base, &cur, &DiffTolerances::default());
        let gone = status_of(&diff, "phase/legalize/retired (missing in current)");
        assert_eq!(gone.status, DiffStatus::Warn);
        assert!(gone.delta_pct.is_nan(), "structural items carry no delta");
        assert_eq!(
            status_of(&diff, "phase/serve/load (new in current)").status,
            DiffStatus::Warn
        );
        assert_eq!(diff.worst(), DiffStatus::Warn);
    }

    #[test]
    fn zero_valued_baseline_phase_reads_as_infinite_regression() {
        let mut base = report();
        let mut cur = report();
        base.phases[0].seconds = 0.0;
        cur.phases[0].seconds = 8.0;
        let diff = diff_reports(&base, &cur, &DiffTolerances::default());
        let item = status_of(&diff, "phase/legalize");
        assert!(item.delta_pct.is_infinite() && item.delta_pct > 0.0);
        assert_eq!(item.status, DiffStatus::Fail);

        // Zero on both sides sits under the min-seconds floor: skipped.
        cur.phases[0].seconds = 0.0;
        let diff = diff_reports(&base, &cur, &DiffTolerances::default());
        assert!(!diff.items.iter().any(|i| i.metric == "phase/legalize"));
    }

    #[test]
    fn histogram_added_in_candidate_only_warns() {
        let base = report();
        let mut cur = report();
        cur.hists.push(HistReport {
            name: "serve_request_micros".to_string(),
            count: 5,
            sum: 50.0,
            min: 1.0,
            max: 20.0,
            p50: 8.0,
            p90: 15.0,
            p99: 19.0,
        });
        let diff = diff_reports(&base, &cur, &DiffTolerances::default());
        assert_eq!(
            status_of(&diff, "hist/serve_request_micros (new in current)").status,
            DiffStatus::Warn
        );
        assert_eq!(diff.worst(), DiffStatus::Warn);
    }

    #[test]
    fn serve_latency_regression_fails_the_scoped_gate() {
        // The CI serve gate in miniature: `--phase serve/eco_request
        // --rt-warn-pct 5 --rt-fail-pct 10`. An injected 12 % latency
        // inflation must fail while nothing else is even compared.
        let mut base = report();
        base.phases.push(PhaseReport {
            path: "serve/eco_request".to_string(),
            seconds: 0.5,
            calls: 16,
        });
        let mut cur = base.clone();
        cur.phases.last_mut().unwrap().seconds = 0.56; // +12 %
        cur.counters[0].1 = 100_000; // out of scope for the gate
        let tol = DiffTolerances {
            rt_warn_pct: 5.0,
            rt_fail_pct: 10.0,
            min_seconds: 0.0,
            ..DiffTolerances::default()
        };
        let diff = diff_reports_phase(&base, &cur, &tol, Some("serve/eco_request"));
        assert_eq!(diff.items.len(), 1, "{:?}", diff.items);
        assert_eq!(
            status_of(&diff, "phase/serve/eco_request").status,
            DiffStatus::Fail
        );
        // An unchanged serve row passes the same gate.
        let diff = diff_reports_phase(&base, &base.clone(), &tol, Some("serve/eco_request"));
        assert_eq!(diff.worst(), DiffStatus::Pass);
    }

    #[test]
    fn pretty_output_names_metrics_and_verdict() {
        let base = report();
        let mut cur = report();
        cur.total_seconds = 25.0;
        let diff = diff_reports(&base, &cur, &DiffTolerances::default());
        let text = diff.to_pretty();
        assert!(text.contains("total_seconds"));
        assert!(text.contains("verdict: FAIL"));
    }
}
