//! Benchmarks for the one parallel fan-out, `Pipeline::bound_targets` over
//! a multi-target design, under Sequential vs `Threads(2/4/8)`.
//!
//! The outputs are asserted identical across settings inside the benchmark
//! body — the parallel path is only allowed to change wall-clock, never
//! results. Numbers land in `EXPERIMENTS.md` ("Parallel orchestration").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use diam_core::{Pipeline, StructuralOptions};
use diam_gen::random::{random_netlist, RandomDesignOptions};
use diam_netlist::Netlist;
use diam_par::Parallelism;

/// A multi-target design: 24 independent per-target bounding jobs.
fn design(targets: usize) -> Netlist {
    let opts = RandomDesignOptions {
        inputs: 4,
        regs: 10,
        gates: 60,
        targets,
        allow_nondet: true,
    };
    random_netlist(&opts, 0xBE7C)
}

fn bench_bound_targets(c: &mut Criterion) {
    let mut group = c.benchmark_group("par/bound_targets");
    group.sample_size(10);
    let n = design(24);
    let pipeline = Pipeline::com();
    let reference = pipeline.bound_targets(&n, &StructuralOptions::default());
    for (name, par) in [
        ("seq", Parallelism::Sequential),
        ("t2", Parallelism::Threads(2)),
        ("t4", Parallelism::Threads(4)),
        ("t8", Parallelism::Threads(8)),
    ] {
        let opts = StructuralOptions {
            parallelism: par,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::new("24_targets", name), &n, |b, n| {
            b.iter(|| {
                let got = pipeline.bound_targets(n, &opts);
                assert_eq!(got.len(), reference.len());
                for (a, b) in got.iter().zip(&reference) {
                    assert_eq!(a.original, b.original);
                }
                got
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_bound_targets);
criterion_main!(benches);
