//! Ablation benches for the design choices the paper discusses:
//!
//! * §III-B: the branch-and-bound slack `α` trades search effort for path
//!   quality (`α = 0` greedy, `0.1` paper default, `∞` exhaustive).
//! * §III-F: the bin width `w_v = k·w̄_c` trades cost-model precision for
//!   grid size (the paper picks `k = 10` for the flow phase, `5` for the
//!   post-optimization).
//! * Table V: D2D movement on/off.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flow3d_bench::{prepare, Suite};
use flow3d_core::{Flow3dConfig, Flow3dLegalizer, Legalizer};
use std::hint::black_box;

const SCALE: f64 = 0.1;

fn bench_alpha(c: &mut Criterion) {
    let run = prepare(Suite::Iccad2022, "case3", SCALE);
    let mut group = c.benchmark_group("ablation_alpha");
    group.sample_size(10);
    for (label, alpha) in [("0", 0.0), ("0.1", 0.1), ("2", 2.0), ("inf", f64::INFINITY)] {
        let lg = Flow3dLegalizer::new(Flow3dConfig {
            alpha,
            ..Default::default()
        });
        // Some α values cannot drain every bin on the scaled-down case
        // (e.g. α = ∞ exhausts the cycling guard); skip those rows so
        // the remaining groups still run.
        if lg.legalize(&run.design, &run.global).is_err() {
            println!("ablation_alpha/{label:<26} skipped (legalization fails on this scaled case)");
            continue;
        }
        group.bench_with_input(BenchmarkId::from_parameter(label), &run, |b, run| {
            b.iter(|| {
                let outcome = lg.legalize(&run.design, &run.global).expect("legalize");
                black_box(outcome.stats.nodes_expanded)
            })
        });
    }
    group.finish();
}

fn bench_binwidth(c: &mut Criterion) {
    let run = prepare(Suite::Iccad2022, "case3", SCALE);
    let mut group = c.benchmark_group("ablation_binwidth");
    group.sample_size(10);
    for factor in [2.0, 5.0, 10.0, 20.0, 40.0] {
        let lg = Flow3dLegalizer::new(Flow3dConfig {
            bin_width_factor: factor,
            ..Default::default()
        });
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{factor}")),
            &run,
            |b, run| {
                b.iter(|| {
                    let outcome = lg.legalize(&run.design, &run.global).expect("legalize");
                    black_box(outcome.stats.augmentations)
                })
            },
        );
    }
    group.finish();
}

fn bench_d2d(c: &mut Criterion) {
    let run = prepare(Suite::Iccad2023, "case2", SCALE);
    let mut group = c.benchmark_group("ablation_d2d");
    group.sample_size(10);
    for (label, cfg) in [
        ("with_d2d", Flow3dConfig::default()),
        ("without_d2d", Flow3dConfig::without_d2d()),
    ] {
        let lg = Flow3dLegalizer::new(cfg);
        group.bench_with_input(BenchmarkId::from_parameter(label), &run, |b, run| {
            b.iter(|| {
                let outcome = lg.legalize(&run.design, &run.global).expect("legalize");
                black_box(outcome.stats.cross_die_moves)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_alpha, bench_binwidth, bench_d2d);
criterion_main!(benches);
