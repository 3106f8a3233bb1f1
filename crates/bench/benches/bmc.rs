//! Benchmarks for the consumers of diameter bounds: BMC unrolling depth
//! scaling, BMC search over a free-enable counter, and the
//! recurrence-diameter baseline (whose cost explosion is part of the
//! paper's motivation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use diam_bmc::{check, BmcOptions, BmcOutcome};
use diam_core::recurrence::{recurrence_diameter, RecurrenceOptions};
use diam_gen::archetypes::{counter, pipeline, register_file};
use diam_netlist::{Lit, Netlist};

fn bench_bmc_depth(c: &mut Criterion) {
    let mut group = c.benchmark_group("bmc/counter_hit");
    group.sample_size(10);
    for bits in [4usize, 6, 8] {
        let mut n = Netlist::new();
        let cnt = counter(&mut n, "c", bits, Lit::TRUE);
        n.add_target(cnt.all_ones, "max");
        let depth = (1u64 << bits) - 1;
        group.bench_with_input(BenchmarkId::new("bits", bits), &n, |b, n| {
            b.iter(|| {
                let r = check(
                    n,
                    0,
                    &BmcOptions {
                        max_depth: depth,
                        ..BmcOptions::default()
                    },
                );
                assert!(matches!(r, BmcOutcome::Counterexample { .. }));
            })
        });
    }
    group.finish();
}

/// The ledger's `cnt_wrap` cone: a counter whose enable is a free input, so
/// every depth short of the wrap is refuted by CDCL search over the XOR
/// chain rather than by unit propagation from the initial state.
fn bench_bmc_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("bmc/cnt_wrap");
    group.sample_size(10);
    for bits in [5usize, 6, 7] {
        let mut n = Netlist::new();
        let enable = n.input("en").lit();
        let cnt = counter(&mut n, "c", bits, enable);
        n.add_target(cnt.all_ones, "cnt_wrap");
        let depth = (1u64 << bits) - 1;
        group.bench_with_input(BenchmarkId::new("bits", bits), &n, |b, n| {
            b.iter(|| {
                let r = check(
                    n,
                    0,
                    &BmcOptions {
                        max_depth: depth,
                        ..BmcOptions::default()
                    },
                );
                assert!(matches!(r, BmcOutcome::Counterexample { depth: d, .. } if d == depth));
            })
        });
    }
    group.finish();
}

fn bench_recurrence(c: &mut Criterion) {
    let mut group = c.benchmark_group("bmc/recurrence_diameter");
    group.sample_size(10);
    // Pipelines: the recurrence diameter is loose and costly; register
    // files: it explodes with width — the ablation motivating structural
    // bounding.
    for depth in [3usize, 4] {
        let mut n = Netlist::new();
        let p = pipeline(&mut n, "p", depth);
        n.add_target(p.tail, "t");
        group.bench_with_input(BenchmarkId::new("pipeline", depth), &n, |b, n| {
            b.iter(|| {
                recurrence_diameter(
                    n,
                    n.targets()[0].lit,
                    &RecurrenceOptions {
                        max_length: 20,
                        conflict_budget: Some(50_000),
                        ..Default::default()
                    },
                )
            })
        });
    }
    for rows in [2usize, 3] {
        let mut n = Netlist::new();
        let m = register_file(&mut n, "m", rows, 2);
        let cells: Vec<Lit> = m.all_cells().iter().map(|r| r.lit()).collect();
        let t = n.and_many(cells);
        n.add_target(t, "t");
        group.bench_with_input(BenchmarkId::new("register_file", rows), &n, |b, n| {
            b.iter(|| {
                recurrence_diameter(
                    n,
                    n.targets()[0].lit,
                    &RecurrenceOptions {
                        max_length: 20,
                        conflict_budget: Some(50_000),
                        ..Default::default()
                    },
                )
            })
        });
    }
    group.finish();
}

fn bench_symbolic(c: &mut Criterion) {
    use diam_core::symbolic::{reach, SymbolicLimits};
    let mut group = c.benchmark_group("bmc/symbolic_reachability");
    group.sample_size(10);
    for depth in [8usize, 16, 32] {
        let mut n = Netlist::new();
        let p = pipeline(&mut n, "p", depth);
        n.add_target(p.tail, "t");
        group.bench_with_input(BenchmarkId::new("pipeline", depth), &n, |b, n| {
            b.iter(|| reach(n, 0, &SymbolicLimits::default()).expect("fits"))
        });
    }
    for bits in [6usize, 8, 10] {
        let mut n = Netlist::new();
        let cnt = counter(&mut n, "c", bits, Lit::TRUE);
        n.add_target(cnt.all_ones, "max");
        group.bench_with_input(BenchmarkId::new("counter", bits), &n, |b, n| {
            b.iter(|| reach(n, 0, &SymbolicLimits::default()).expect("fits"))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_bmc_depth,
    bench_bmc_search,
    bench_recurrence,
    bench_symbolic
);
criterion_main!(benches);
