//! Benchmarks for the CSR netlist substrate: binary-AIGER parsing, cone of
//! influence, and register classification on the deterministic `large`
//! archetype. The criterion harness runs at a moderate size so it stays
//! iterable; the full 1M-gate designs are measured end to end by the perf
//! ledger's `scale_1m` workload (`ledger --workload scale_1m`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use diam_core::classify::{classify, ClassifyOptions};
use diam_gen::large::{large, LargeOptions};
use diam_netlist::{aiger, analysis, Netlist};

const SIZES: [usize; 2] = [30_000, 120_000];

fn build(min_gates: usize) -> Netlist {
    large(&LargeOptions {
        min_gates,
        seed: 0xD1A4,
    })
}

fn bench_parse(c: &mut Criterion) {
    let mut group = c.benchmark_group("netlist/parse_binary");
    group.sample_size(10);
    for size in SIZES {
        let n = build(size);
        let mut buf = Vec::new();
        aiger::write_binary(&n, &mut buf).expect("binary write");
        group.bench_with_input(BenchmarkId::new("gates", size), &buf, |b, buf| {
            b.iter(|| aiger::read(std::io::Cursor::new(buf.as_slice())).expect("parse"))
        });
    }
    group.finish();
}

fn bench_coi(c: &mut Criterion) {
    let mut group = c.benchmark_group("netlist/coi");
    group.sample_size(10);
    for size in SIZES {
        let n = build(size);
        let parity = n.targets()[0].lit;
        // Warm the CSR cache so the bench isolates traversal, not build.
        let _ = n.csr();
        group.bench_with_input(BenchmarkId::new("parity", size), &n, |b, n| {
            b.iter(|| analysis::coi(n, [parity]))
        });
    }
    group.finish();
}

fn bench_classify(c: &mut Criterion) {
    let mut group = c.benchmark_group("netlist/classify");
    group.sample_size(10);
    for size in SIZES {
        let n = build(size);
        let parity = n.targets()[0].lit;
        let cone = analysis::coi(&n, [parity]);
        group.bench_with_input(BenchmarkId::new("parity_cone", size), &n, |b, n| {
            b.iter(|| classify(n, &cone.regs, &ClassifyOptions::default()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parse, bench_coi, bench_classify);
criterion_main!(benches);
