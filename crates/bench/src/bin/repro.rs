//! Reproduces every table and figure of the 3D-Flow paper.
//!
//! ```text
//! repro table2            # Table II  — benchmark statistics
//! repro table3 [scale]    # Table III — ICCAD 2022 comparison
//! repro table4 [scale]    # Table IV  — ICCAD 2023 comparison
//! repro table5 [scale]    # Table V   — D2D ablation
//! repro fig7  [scale]     # Fig. 7    — dHPWL% bars (+ SVG files)
//! repro fig8  [scale]     # Fig. 8    — displacement plots (SVG files)
//! repro alpha [scale]     # §III-B    — alpha sweep ablation
//! repro binwidth [scale]  # §III-F    — bin width sweep ablation
//! repro rowalgo [scale]   # §III-D    — Abacus vs isotonic-L1 PlaceRow
//! repro eco   [scale]     # §III-E    — incremental (ECO) legalization
//! repro profile [scale]   # phase/counter profiles (+ JSON sidecars)
//! repro threads [scale]   # thread-scaling: flow_pass/placerow at 1/2/4/8 workers
//! repro scale [scale]     # million-cell family: stream read / legalize / peak RSS
//! repro all   [scale]     # everything above (except scale)
//! ```
//!
//! `scale` (default 1.0) multiplies every case's cell/net/macro counts;
//! use e.g. `0.25` for a quick pass. SVG files land in `target/figures/`.
//!
//! Case preparation (generation + global placement) fans out over a
//! worker pool sized by `FLOW3D_THREADS` / the machine; prepared cases
//! and all legalization results are bit-identical to serial runs.

use flow3d_bench::{
    evaluate, evaluate_profiled, format_case_rows, normalized_averages, prepare, prepare_all,
    standard_legalizers, table_header, CaseRun, Row, Suite,
};
use flow3d_core::{Flow3dConfig, Flow3dLegalizer, Legalizer};
use flow3d_db::DieId;
use flow3d_viz::{BarChart, DisplacementPlot};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("all");
    let scale: f64 = args
        .get(1)
        .map(|s| s.parse().expect("scale must be a number"))
        .unwrap_or(1.0);

    match cmd {
        "table2" => table2(),
        "table3" => {
            comparison_table(Suite::Iccad2022, "Table III (ICCAD 2022)", scale);
        }
        "table4" => {
            comparison_table(Suite::Iccad2023, "Table IV (ICCAD 2023)", scale);
        }
        "table5" => table5(scale),
        "fig7" => fig7(scale),
        "fig8" => fig8(scale),
        "alpha" => alpha_sweep(scale),
        "binwidth" => binwidth_sweep(scale),
        "rowalgo" => rowalgo_sweep(scale),
        "eco" => eco_experiment(scale),
        "profile" => profile_runs(scale),
        "threads" => threads_scaling(scale),
        "scale" => scale_experiment(scale),
        "all" => {
            table2();
            comparison_table(Suite::Iccad2022, "Table III (ICCAD 2022)", scale);
            comparison_table(Suite::Iccad2023, "Table IV (ICCAD 2023)", scale);
            table5(scale);
            fig7(scale);
            fig8(scale);
            alpha_sweep(scale);
            binwidth_sweep(scale);
            rowalgo_sweep(scale);
            eco_experiment(scale);
            profile_runs(scale);
            threads_scaling(scale);
        }
        other => {
            eprintln!("unknown experiment `{other}`");
            eprintln!("usage: repro [table2|table3|table4|table5|fig7|fig8|alpha|binwidth|rowalgo|eco|profile|threads|scale|all] [scale]");
            std::process::exit(2);
        }
    }
}

fn figures_dir() -> PathBuf {
    let dir = PathBuf::from("target/figures");
    std::fs::create_dir_all(&dir).expect("create target/figures");
    dir
}

/// Table II: statistics of the generated suites.
fn table2() {
    println!("== Table II: benchmark statistics (generated) ==");
    println!(
        "{:<22} {:>8} {:>8} {:>8} {:>6} {:>6} {:>12}",
        "case", "#cells", "#macros", "#nets", "hr_top", "hr_bot", "die(WxH)"
    );
    for (suite, tag) in [(Suite::Iccad2022, "2022"), (Suite::Iccad2023, "2023")] {
        for case in suite.cases() {
            let cfg = suite.config(case).unwrap();
            let generated = cfg.generate().expect("generation failed");
            let d = &generated.design;
            let outline = d.die(DieId::BOTTOM).outline;
            println!(
                "{:<22} {:>8} {:>8} {:>8} {:>6} {:>6} {:>5}x{:<6}",
                format!("iccad{tag}_{case}"),
                d.num_cells(),
                d.num_macros(),
                d.num_nets(),
                d.die(DieId::TOP).row_height,
                d.die(DieId::BOTTOM).row_height,
                outline.width(),
                outline.height(),
            );
        }
    }
    println!();
}

/// Tables III/IV: the 4-legalizer comparison over one suite.
fn comparison_table(suite: Suite, title: &str, scale: f64) -> Vec<(String, Vec<Row>)> {
    println!("== {title}, scale {scale} ==");
    print!("{}", table_header());
    let legalizers = standard_legalizers();
    let mut all = Vec::new();
    let runs = prepare_all(suite, suite.cases(), scale, flow3d_par::resolve_threads(0));
    for run in &runs {
        let rows: Vec<Row> = legalizers
            .iter()
            .map(|lg| evaluate(run, lg.as_ref()))
            .collect();
        print!("{}", format_case_rows(&run.name, &rows));
        all.push((run.name.clone(), rows));
    }
    println!("{}", "-".repeat(74));
    println!("geometric means normalized to ours (avg / max / runtime):");
    for (name, avg, max, rt) in normalized_averages(&all) {
        println!("  {name:<14} {avg:>6.3} {max:>8.2} {rt:>8.2}");
    }
    println!();
    all
}

/// Table V: 3D-Flow with and without D2D movement.
fn table5(scale: f64) {
    println!("== Table V: D2D ablation (ICCAD 2023), scale {scale} ==");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12} {:>7}",
        "case", "avg w/o D2D", "max w/o D2D", "avg ours", "max ours", "#move"
    );
    let runs = prepare_all(
        Suite::Iccad2023,
        Suite::Iccad2023.cases(),
        scale,
        flow3d_par::resolve_threads(0),
    );
    for run in &runs {
        let without = evaluate(run, &Flow3dLegalizer::new(Flow3dConfig::without_d2d()));
        let ours = evaluate(run, &Flow3dLegalizer::default());
        println!(
            "{:<10} {:>12.3} {:>12.2} {:>12.3} {:>12.2} {:>7}",
            run.name,
            without.avg_disp,
            without.max_disp,
            ours.avg_disp,
            ours.max_disp,
            ours.cross_die_moves
        );
    }
    println!();
}

/// Fig. 7: dHPWL% bars for both suites (printed + SVG).
fn fig7(scale: f64) {
    for (suite, tag) in [(Suite::Iccad2022, "2022"), (Suite::Iccad2023, "2023")] {
        println!(
            "== Fig 7{}: dHPWL% (ICCAD {tag}), scale {scale} ==",
            if tag == "2022" { "a" } else { "b" }
        );
        let legalizers = standard_legalizers();
        let mut chart = BarChart::new("dHPWL (%)");
        println!(
            "{:<10} {:>10} {:>10} {:>10} {:>10}",
            "case", "tetris", "abacus", "bonn", "ours"
        );
        let runs = prepare_all(suite, suite.cases(), scale, flow3d_par::resolve_threads(0));
        for run in &runs {
            let rows: Vec<Row> = legalizers
                .iter()
                .map(|lg| evaluate(run, lg.as_ref()))
                .collect();
            println!(
                "{:<10} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
                run.name,
                rows[0].delta_hpwl_pct,
                rows[1].delta_hpwl_pct,
                rows[2].delta_hpwl_pct,
                rows[3].delta_hpwl_pct
            );
            let bars: Vec<(&str, f64)> = rows
                .iter()
                .map(|r| (r.legalizer.as_str(), r.delta_hpwl_pct))
                .collect();
            chart = chart.group(run.name.clone(), &bars);
        }
        let path = figures_dir().join(format!("fig7_{tag}.svg"));
        std::fs::write(&path, chart.to_svg()).expect("write svg");
        println!("wrote {}\n", path.display());
    }
}

/// Fig. 8: displacement plots of ICCAD 2023 case3's top die, with and
/// without D2D movement.
fn fig8(scale: f64) {
    println!("== Fig 8: displacement visualization (ICCAD 2023 case3, top die), scale {scale} ==");
    let run = prepare(Suite::Iccad2023, "case3", scale);
    for (tag, cfg) in [
        ("no_d2d", Flow3dConfig::without_d2d()),
        ("ours", Flow3dConfig::default()),
    ] {
        let outcome = Flow3dLegalizer::new(cfg)
            .legalize(&run.design, &run.global)
            .expect("legalization failed");
        let svg = DisplacementPlot::new(&run.design, &run.global, &outcome.placement, DieId::TOP)
            .to_svg();
        let path = figures_dir().join(format!("fig8_{tag}.svg"));
        std::fs::write(&path, svg).expect("write svg");
        let stats =
            flow3d_metrics::displacement_stats(&run.design, &run.global, &outcome.placement);
        let hist = flow3d_metrics::DisplacementHistogram::collect(
            &run.design,
            &run.global,
            &outcome.placement,
            12,
        );
        let hist_path = figures_dir().join(format!("fig8_{tag}_hist.svg"));
        std::fs::write(
            &hist_path,
            flow3d_viz::histogram_svg("cells per displacement bucket (rows)", hist.counts()),
        )
        .expect("write histogram svg");
        println!(
            "{tag:<8} avg {:.3} max {:.2} cross-die {:>5} p99-bucket {:>2}  -> {}",
            stats.avg,
            stats.max,
            outcome.stats.cross_die_moves,
            hist.quantile_bucket(0.99),
            path.display()
        );
    }
    println!();
}

/// §III-B ablation: the branch-and-bound slack alpha.
fn alpha_sweep(scale: f64) {
    println!("== alpha sweep (ICCAD 2022 case3), scale {scale} ==");
    println!(
        "{:<10} {:>10} {:>10} {:>8} {:>12}",
        "alpha", "avg.disp", "max.disp", "rt(s)", "nodes"
    );
    let run = prepare(Suite::Iccad2022, "case3", scale);
    for alpha in [0.0, 0.05, 0.1, 0.5, 2.0, f64::INFINITY] {
        let lg = Flow3dLegalizer::new(Flow3dConfig {
            alpha,
            ..Default::default()
        });
        let start = std::time::Instant::now();
        let outcome = lg.legalize(&run.design, &run.global).expect("failed");
        let rt = start.elapsed().as_secs_f64();
        let stats =
            flow3d_metrics::displacement_stats(&run.design, &run.global, &outcome.placement);
        println!(
            "{:<10} {:>10.3} {:>10.2} {:>8.2} {:>12}",
            if alpha.is_infinite() {
                "inf".to_string()
            } else {
                format!("{alpha}")
            },
            stats.avg,
            stats.max,
            rt,
            outcome.stats.nodes_expanded
        );
    }
    println!();
}

/// §III-F ablation: the flow-phase bin width factor.
fn binwidth_sweep(scale: f64) {
    println!("== bin width sweep (ICCAD 2022 case3), scale {scale} ==");
    println!(
        "{:<10} {:>10} {:>10} {:>8}",
        "w_v/avg_w", "avg.disp", "max.disp", "rt(s)"
    );
    let run = prepare(Suite::Iccad2022, "case3", scale);
    for factor in [2.0, 5.0, 10.0, 20.0, 40.0] {
        let lg = Flow3dLegalizer::new(Flow3dConfig {
            bin_width_factor: factor,
            ..Default::default()
        });
        let start = std::time::Instant::now();
        let outcome = lg.legalize(&run.design, &run.global).expect("failed");
        let rt = start.elapsed().as_secs_f64();
        let stats =
            flow3d_metrics::displacement_stats(&run.design, &run.global, &outcome.placement);
        println!(
            "{:<10} {:>10.3} {:>10.2} {:>8.2}",
            factor, stats.avg, stats.max, rt
        );
    }
    println!();
}

/// §III-E extension: incremental (ECO) legalization vs full re-run.
fn eco_experiment(scale: f64) {
    println!("== ECO experiment: incremental vs full re-legalization (ICCAD 2022 case3), scale {scale} ==");
    let run = prepare(Suite::Iccad2022, "case3", scale);
    let legalizer = Flow3dLegalizer::default();
    let base = legalizer
        .legalize(&run.design, &run.global)
        .expect("base legalization")
        .placement;
    let n = run.design.num_cells();

    // Deterministic "timing optimization": every 1000th cell moves toward
    // the die center.
    let center = run.design.die(DieId::BOTTOM).outline.center();
    let moves: Vec<flow3d_core::CellMove> = (0..n)
        .step_by((n / 32).max(1))
        .map(|i| {
            let cell = flow3d_db::CellId::new(i);
            let p = base.pos(cell);
            flow3d_core::CellMove {
                cell,
                target: flow3d_geom::Point::new((p.x + center.x) / 2, (p.y + center.y) / 2),
                die: None,
            }
        })
        .collect();

    let start = std::time::Instant::now();
    let inc = legalizer
        .legalize_incremental(&run.design, &base, &moves)
        .expect("incremental legalization");
    let rt_inc = start.elapsed().as_secs_f64();

    let touched = (0..n)
        .filter(|&i| {
            let c = flow3d_db::CellId::new(i);
            inc.placement.pos(c) != base.pos(c) || inc.placement.die(c) != base.die(c)
        })
        .count();

    let start = std::time::Instant::now();
    let full = legalizer
        .legalize(&run.design, &run.global)
        .expect("full re-legalization");
    let rt_full = start.elapsed().as_secs_f64();
    let _ = full;

    println!(
        "perturbed {} cells; incremental touched {touched}/{n} cells in {rt_inc:.3}s \
         (full re-legalization: {rt_full:.3}s)",
        moves.len()
    );
    println!();
}

/// §III-D extension: Abacus (quadratic) vs isotonic-L1 row legalization.
fn rowalgo_sweep(scale: f64) {
    println!("== row algorithm sweep (ICCAD 2022 case3 + case4h), scale {scale} ==");
    println!(
        "{:<10} {:<18} {:>10} {:>10} {:>8}",
        "case", "row algo", "avg.disp", "max.disp", "rt(s)"
    );
    for case in ["case3", "case4h"] {
        let run = prepare(Suite::Iccad2022, case, scale);
        for (tag, algo) in [
            (
                "abacus-quadratic",
                flow3d_core::placerow::RowAlgo::AbacusQuadratic,
            ),
            ("isotonic-l1", flow3d_core::placerow::RowAlgo::IsotonicL1),
        ] {
            let lg = Flow3dLegalizer::new(Flow3dConfig {
                row_algo: algo,
                ..Default::default()
            });
            let start = std::time::Instant::now();
            let outcome = lg.legalize(&run.design, &run.global).expect("failed");
            let rt = start.elapsed().as_secs_f64();
            let stats =
                flow3d_metrics::displacement_stats(&run.design, &run.global, &outcome.placement);
            println!(
                "{:<10} {:<18} {:>10.3} {:>10.2} {:>8.2}",
                case, tag, stats.avg, stats.max, rt
            );
        }
    }
    println!();
}

/// Instrumented runs: every legalizer on every ICCAD 2022 case, with a
/// JSON [`RunReport`](flow3d_obs::RunReport) sidecar per (case,
/// legalizer) pair in `target/profiles/` and the full phase breakdown
/// printed for case3 (the EXPERIMENTS.md example).
fn profile_runs(scale: f64) {
    println!("== instrumented profiles (ICCAD 2022), scale {scale} ==");
    let dir = PathBuf::from("target/profiles");
    std::fs::create_dir_all(&dir).expect("create target/profiles");
    let legalizers = standard_legalizers();
    let runs = prepare_all(
        Suite::Iccad2022,
        Suite::Iccad2022.cases(),
        scale,
        flow3d_par::resolve_threads(0),
    );
    for run in &runs {
        for lg in &legalizers {
            let (row, report) = evaluate_profiled(run, lg.as_ref());
            let path = dir.join(format!("iccad2022_{}_{}.json", run.name, row.legalizer));
            std::fs::write(&path, report.to_json()).expect("write profile sidecar");
            if run.name == "case3" {
                print!("{}", report.to_pretty());
                println!();
            }
            println!(
                "{:<8} {:<14} {:>8.2}s  -> {}",
                run.name,
                row.legalizer,
                row.runtime_s,
                path.display()
            );
        }
    }
    println!();
}

/// Thread-scaling experiment: the largest ICCAD 2022 case at 1/2/4/8
/// workers, reporting the profiled `flow_pass` and `placerow` phase
/// times and re-checking that every worker count produces the same
/// placement bit for bit (the engine guarantees it by construction; the
/// differential test suite proves it on small cases, this shows it at
/// experiment scale).
fn threads_scaling(scale: f64) {
    let case = *Suite::Iccad2022.cases().last().unwrap();
    println!("== thread scaling (ICCAD 2022 {case}), scale {scale} ==");
    let run = prepare(Suite::Iccad2022, case, scale);
    println!(
        "{:<8} {:>13} {:>12} {:>9} {:>10}",
        "threads", "flow_pass(s)", "placerow(s)", "total(s)", "identical"
    );
    let mut baseline: Option<flow3d_db::LegalPlacement> = None;
    for threads in [1usize, 2, 4, 8] {
        let lg = Flow3dLegalizer::new(Flow3dConfig {
            threads,
            ..Default::default()
        });
        let mut profile = flow3d_obs::Profile::new();
        let start = std::time::Instant::now();
        let outcome = lg
            .legalize_observed(&run.design, &run.global, Some(&mut profile))
            .expect("legalization failed");
        let total = start.elapsed().as_secs_f64();
        let phase = |p: &str| {
            profile
                .phase(p)
                .map(|s| s.total.as_secs_f64())
                .unwrap_or(0.0)
        };
        let identical = match &baseline {
            None => {
                baseline = Some(outcome.placement.clone());
                "-"
            }
            Some(b) if *b == outcome.placement => "yes",
            Some(_) => "NO",
        };
        println!(
            "{threads:<8} {:>13.3} {:>12.3} {:>9.3} {:>10}",
            phase("legalize/flow_pass"),
            phase("legalize/placerow"),
            total,
            identical
        );
    }
    println!();
}

/// Million-cell scaling: for every case of the million family, time the
/// streaming contest-format read and the full legalization, and report
/// the process peak RSS after each case. At the default scale this is
/// minutes of work — use e.g. `0.05` for a quick pass.
fn scale_experiment(scale: f64) {
    println!("== million-cell scaling (streaming read), scale {scale} ==");
    println!(
        "{:<14} {:>9} {:>9} {:>10} {:>10} {:>10}",
        "case", "#cells", "read(s)", "legal(s)", "avg.disp", "rss(MiB)"
    );
    for case in flow3d_gen::MILLION_CASES {
        let run = prepare(Suite::Million, case, scale);
        // Serialize once and stream-parse the bytes back: the same code
        // path `flow3d legalize` takes when reading a case file.
        let mut text = String::new();
        flow3d_io::write_case(&run.design, &mut text).expect("serialize case");
        let start = std::time::Instant::now();
        let reparsed = flow3d_io::parse_case_reader(text.as_bytes()).expect("streaming reparse");
        let rt_read = start.elapsed().as_secs_f64();
        assert_eq!(reparsed, run.design, "streaming reader must round-trip");
        drop((reparsed, text));

        let start = std::time::Instant::now();
        let outcome = Flow3dLegalizer::default()
            .legalize(&run.design, &run.global)
            .expect("legalization failed");
        let rt_legal = start.elapsed().as_secs_f64();
        let stats =
            flow3d_metrics::displacement_stats(&run.design, &run.global, &outcome.placement);
        let rss_mib = flow3d_obs::peak_rss_bytes()
            .map(|b| b as f64 / (1024.0 * 1024.0))
            .unwrap_or(0.0);
        println!(
            "{:<14} {:>9} {:>9.3} {:>10.2} {:>10.3} {:>10.1}",
            format!("million_{case}"),
            run.design.num_cells(),
            rt_read,
            rt_legal,
            stats.avg,
            rss_mib
        );
    }
    println!();
}

/// Keep `CaseRun` referenced so the harness API stays exercised from the
/// binary (rustc dead-code check across crate boundary is not an issue,
/// this is for readers).
#[allow(dead_code)]
fn _types(_: &CaseRun) {}
