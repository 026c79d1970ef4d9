//! Bench regenerating Table II cells (experimental + analytical +
//! simulation model) at smoke scale, plus one full smoke table.
//!
//! `cargo bench -p borg-bench --bench table2` writes the resulting rows to
//! stdout so the bench run doubles as a miniature reproduction.

#![allow(clippy::print_stdout)]

use borg_experiments::suite::PaperProblem;
use borg_experiments::table2::{render_table2, run_table2, Table2Config};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench_table2(c: &mut Criterion) {
    let mut group = c.benchmark_group("table2");
    group.sample_size(10);

    for p in [16u32, 256] {
        let cfg = Table2Config {
            evaluations: 2_000,
            replicates: 1,
            processors: vec![p],
            tf_means: vec![0.001],
            problems: vec![PaperProblem::Dtlz2],
            ..Table2Config::default()
        };
        group.bench_with_input(BenchmarkId::new("dtlz2_cell", p), &cfg, |b, cfg| {
            b.iter(|| run_table2(cfg))
        });
    }

    let smoke = Table2Config::default().smoke();
    group.bench_function("smoke_table_full", |b| b.iter(|| run_table2(&smoke)));
    group.finish();

    // Emit the miniature table alongside the timing numbers.
    let rows = run_table2(&Table2Config::default().smoke());
    println!("\n{}", render_table2(&rows).render());
}

criterion_group!(benches, bench_table2);
criterion_main!(benches);
