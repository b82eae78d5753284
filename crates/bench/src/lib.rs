#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Shared experiment harness: generates the benchmark suites, runs the
//! global placer, executes every legalizer, and formats the paper's
//! tables for the `repro` binary.

use flow3d_baselines::{AbacusLegalizer, BonnLegalizer, TetrisLegalizer};
use flow3d_core::{Flow3dLegalizer, Legalizer};
use flow3d_db::{Design, Placement3d};
use flow3d_gen::GeneratorConfig;
use flow3d_gp::{GlobalPlacer, GpConfig};
use flow3d_metrics::{delta_hpwl_pct, displacement_stats};
use flow3d_obs::{Profile, Quality, RunReport};
use std::time::Instant;

/// A prepared benchmark instance: design plus global placement.
#[derive(Debug, Clone)]
pub struct CaseRun {
    /// Case name (e.g. `"case3h"`).
    pub name: String,
    /// The design.
    pub design: Design,
    /// The global placement fed to every legalizer.
    pub global: Placement3d,
}

/// Which contest suite a case belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// ICCAD 2022 (standard cells only).
    Iccad2022,
    /// ICCAD 2023 (with macros).
    Iccad2023,
    /// Million-cell scaling family (beyond the contest suites).
    Million,
}

impl Suite {
    /// Case names of the suite (Table II rows).
    pub fn cases(self) -> &'static [&'static str] {
        match self {
            Suite::Iccad2022 => &flow3d_gen::ICCAD2022_CASES,
            Suite::Iccad2023 => &flow3d_gen::ICCAD2023_CASES,
            Suite::Million => &flow3d_gen::MILLION_CASES,
        }
    }

    /// Generator preset for one case of the suite.
    pub fn config(self, case: &str) -> Option<GeneratorConfig> {
        match self {
            Suite::Iccad2022 => GeneratorConfig::iccad2022(case),
            Suite::Iccad2023 => GeneratorConfig::iccad2023(case),
            Suite::Million => GeneratorConfig::million(case),
        }
    }
}

/// Generates one case at `scale` and globally places it.
///
/// # Panics
///
/// Panics on unknown case names or generator failure (the presets are
/// known-feasible).
pub fn prepare(suite: Suite, case: &str, scale: f64) -> CaseRun {
    let mut cfg = suite
        .config(case)
        .unwrap_or_else(|| panic!("unknown case `{case}`"));
    cfg.scale = scale;
    let generated = cfg.generate().expect("preset generation failed");
    let global =
        GlobalPlacer::new(GpConfig::default()).place_from(&generated.design, &generated.natural);
    CaseRun {
        name: case.to_string(),
        design: generated.design,
        global,
    }
}

/// [`prepare`]s several cases of a suite concurrently on `threads`
/// workers. Case generation and global placement are deterministic per
/// case, so the result is identical to mapping [`prepare`] serially —
/// only wall-clock changes.
///
/// # Panics
///
/// Same as [`prepare`].
pub fn prepare_all(suite: Suite, cases: &[&str], scale: f64, threads: usize) -> Vec<CaseRun> {
    flow3d_par::par_map(threads, cases.len(), |i| prepare(suite, cases[i], scale))
}

/// One legalizer's result on one case.
#[derive(Debug, Clone)]
pub struct Row {
    /// Legalizer name.
    pub legalizer: String,
    /// Mean displacement normalized by row height ("Avg. Disp.").
    pub avg_disp: f64,
    /// Maximum normalized displacement ("Max. Disp.").
    pub max_disp: f64,
    /// Wall-clock legalization time in seconds ("RT (s)").
    pub runtime_s: f64,
    /// HPWL increase over the global placement in percent (Fig. 7).
    pub delta_hpwl_pct: f64,
    /// Cells moved across dies relative to the nearest-die snap
    /// (Table V "#Move").
    pub cross_die_moves: usize,
}

/// The four legalizers of Tables III/IV in paper order.
pub fn standard_legalizers() -> Vec<Box<dyn Legalizer>> {
    vec![
        Box::new(TetrisLegalizer::default()),
        Box::new(AbacusLegalizer::default()),
        Box::new(BonnLegalizer::default()),
        Box::new(Flow3dLegalizer::default()),
    ]
}

/// Runs one legalizer on one case and measures everything.
///
/// # Panics
///
/// Panics if legalization fails — generated cases are feasible, so a
/// failure is a bug worth crashing on in the harness.
pub fn evaluate(run: &CaseRun, legalizer: &dyn Legalizer) -> Row {
    let start = Instant::now();
    let outcome = legalizer
        .legalize(&run.design, &run.global)
        .unwrap_or_else(|e| panic!("{} failed on {}: {e}", legalizer.name(), run.name));
    let runtime_s = start.elapsed().as_secs_f64();
    let report = flow3d_metrics::check_legal(&run.design, &outcome.placement);
    assert!(
        report.is_legal(),
        "{} produced an illegal placement on {}: {report}",
        legalizer.name(),
        run.name
    );
    let stats = displacement_stats(&run.design, &run.global, &outcome.placement);
    Row {
        legalizer: legalizer.name().to_string(),
        avg_disp: stats.avg,
        max_disp: stats.max,
        runtime_s,
        delta_hpwl_pct: delta_hpwl_pct(&run.design, &run.global, &outcome.placement),
        cross_die_moves: outcome.stats.cross_die_moves,
    }
}

/// Like [`evaluate`], but instruments the run with a [`Profile`] and
/// returns the table [`Row`] together with the full [`RunReport`]
/// (phase timings, search counters, quality metrics).
///
/// # Panics
///
/// Same as [`evaluate`].
pub fn evaluate_profiled(run: &CaseRun, legalizer: &dyn Legalizer) -> (Row, RunReport) {
    let mut profile = Profile::new();
    let start = Instant::now();
    let outcome = legalizer
        .legalize_observed(&run.design, &run.global, Some(&mut profile))
        .unwrap_or_else(|e| panic!("{} failed on {}: {e}", legalizer.name(), run.name));
    let runtime_s = start.elapsed().as_secs_f64();
    let report = flow3d_metrics::check_legal(&run.design, &outcome.placement);
    assert!(
        report.is_legal(),
        "{} produced an illegal placement on {}: {report}",
        legalizer.name(),
        run.name
    );
    let stats = displacement_stats(&run.design, &run.global, &outcome.placement);
    let dhpwl = delta_hpwl_pct(&run.design, &run.global, &outcome.placement);
    let row = Row {
        legalizer: legalizer.name().to_string(),
        avg_disp: stats.avg,
        max_disp: stats.max,
        runtime_s,
        delta_hpwl_pct: dhpwl,
        cross_die_moves: outcome.stats.cross_die_moves,
    };
    let report =
        RunReport::from_profile(&run.name, legalizer.name(), &profile).with_quality(Quality {
            avg_disp: stats.avg_dbu,
            max_disp: stats.max_dbu,
            dhpwl_pct: dhpwl,
        });
    (row, report)
}

/// Formats a Table III/IV-style block for one case.
pub fn format_case_rows(case: &str, rows: &[Row]) -> String {
    let mut out = String::new();
    for (i, r) in rows.iter().enumerate() {
        let name = if i == 0 { case } else { "" };
        out.push_str(&format!(
            "{:<10} {:<14} {:>10.3} {:>10.2} {:>8.2} {:>9.2} {:>7}\n",
            name,
            r.legalizer,
            r.avg_disp,
            r.max_disp,
            r.runtime_s,
            r.delta_hpwl_pct,
            r.cross_die_moves
        ));
    }
    out
}

/// Table header matching [`format_case_rows`].
pub fn table_header() -> String {
    format!(
        "{:<10} {:<14} {:>10} {:>10} {:>8} {:>9} {:>7}\n{}\n",
        "case",
        "legalizer",
        "avg.disp",
        "max.disp",
        "rt(s)",
        "dHPWL%",
        "#move",
        "-".repeat(74)
    )
}

/// Geometric-mean ratios versus the last row's legalizer (the paper
/// normalizes Tables III/IV to "Ours" = 1.00). Returns
/// `(avg_ratio, max_ratio, rt_ratio)` per legalizer name.
pub fn normalized_averages(all: &[(String, Vec<Row>)]) -> Vec<(String, f64, f64, f64)> {
    let mut names: Vec<String> = Vec::new();
    if let Some((_, rows)) = all.first() {
        names = rows.iter().map(|r| r.legalizer.clone()).collect();
    }
    let Some(ours) = names.last().cloned() else {
        return Vec::new();
    };
    names
        .iter()
        .map(|name| {
            let mut log_avg = 0.0;
            let mut log_max = 0.0;
            let mut log_rt = 0.0;
            let mut k = 0usize;
            for (_, rows) in all {
                let r = rows.iter().find(|r| &r.legalizer == name).unwrap();
                let o = rows.iter().find(|r| r.legalizer == ours).unwrap();
                if o.avg_disp > 0.0 && r.avg_disp > 0.0 {
                    log_avg += (r.avg_disp / o.avg_disp).ln();
                    log_max += (r.max_disp / o.max_disp).max(1e-12).ln();
                    log_rt += (r.runtime_s / o.runtime_s).max(1e-12).ln();
                    k += 1;
                }
            }
            let k = k.max(1) as f64;
            (
                name.clone(),
                (log_avg / k).exp(),
                (log_max / k).exp(),
                (log_rt / k).exp(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepare_and_evaluate_smallest_case() {
        // Tiny scale so the full pipeline runs in test time.
        let run = prepare(Suite::Iccad2022, "case2", 0.2);
        assert_eq!(run.design.num_cells(), (2735.0f64 * 0.2) as usize);
        let lg = TetrisLegalizer::default();
        let row = evaluate(&run, &lg);
        assert_eq!(row.legalizer, "tetris");
        assert!(row.avg_disp >= 0.0);
        assert!(row.runtime_s > 0.0);
    }

    #[test]
    fn prepare_all_matches_serial_prepare() {
        let cases = ["case2", "case3"];
        let serial: Vec<CaseRun> = cases
            .iter()
            .map(|c| prepare(Suite::Iccad2022, c, 0.05))
            .collect();
        let parallel = prepare_all(Suite::Iccad2022, &cases, 0.05, 4);
        assert_eq!(parallel.len(), serial.len());
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.name, s.name);
            assert_eq!(p.design, s.design);
            assert_eq!(p.global, s.global);
        }
    }

    #[test]
    fn suites_expose_paper_cases() {
        assert_eq!(Suite::Iccad2022.cases().len(), 6);
        assert_eq!(Suite::Iccad2023.cases().len(), 7);
        assert_eq!(Suite::Million.cases().len(), 3);
        assert!(Suite::Iccad2023.config("case3h").is_some());
        assert!(Suite::Million.config("m1h").is_some());
        assert!(Suite::Iccad2022.config("nope").is_none());
        assert!(Suite::Million.config("nope").is_none());
    }

    #[test]
    fn normalized_averages_are_one_for_ours() {
        let rows = vec![
            Row {
                legalizer: "tetris".into(),
                avg_disp: 2.0,
                max_disp: 4.0,
                runtime_s: 0.5,
                delta_hpwl_pct: 1.0,
                cross_die_moves: 0,
            },
            Row {
                legalizer: "3d-flow".into(),
                avg_disp: 1.0,
                max_disp: 2.0,
                runtime_s: 1.0,
                delta_hpwl_pct: 0.5,
                cross_die_moves: 5,
            },
        ];
        let norm = normalized_averages(&[("case2".into(), rows)]);
        assert_eq!(norm.len(), 2);
        assert!((norm[0].1 - 2.0).abs() < 1e-9);
        assert!((norm[1].1 - 1.0).abs() < 1e-9);
        assert!((norm[1].2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn table_formatting_is_stable() {
        let header = table_header();
        assert!(header.contains("avg.disp"));
        let rows = vec![Row {
            legalizer: "tetris".into(),
            avg_disp: 1.5,
            max_disp: 7.25,
            runtime_s: 0.125,
            delta_hpwl_pct: 3.5,
            cross_die_moves: 42,
        }];
        let s = format_case_rows("case2", &rows);
        assert!(s.contains("case2"));
        assert!(s.contains("tetris"));
        assert!(s.contains("1.500"));
        assert!(s.contains("42"));
    }
}
