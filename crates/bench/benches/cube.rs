//! Cube-and-conquer BMC benchmarks: deep unrolls solved monolithically vs.
//! split into reproducible cubes, sequential vs. fanned out over the
//! `diam-par` pool.
//!
//! `cube/bmc_unroll` times the same counter hit — a deep obligation per
//! depth — under (a) the monolithic solver, (b) cubes on one worker (split
//! overhead, no parallelism), and (c) cubes at 4 workers. On a single-core
//! runner (c) degenerates to (b) plus scheduling noise.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use diam_bmc::{check, BmcOptions, BmcOutcome, CubeMode, CubeOptions};
use diam_gen::archetypes::counter;
use diam_netlist::{Lit, Netlist};
use diam_par::Parallelism;

fn deep_counter(bits: usize) -> (Netlist, u64) {
    let mut n = Netlist::new();
    let cnt = counter(&mut n, "c", bits, Lit::TRUE);
    n.add_target(cnt.all_ones, "max");
    (n, (1u64 << bits) - 1)
}

fn opts(depth: u64, mode: CubeMode, par: Parallelism) -> BmcOptions {
    BmcOptions {
        max_depth: depth,
        parallelism: par,
        cube: CubeOptions {
            mode,
            vars: 3,
            // Split only the deepest frame — the one hard obligation. The
            // shallow frames' solves are trivially cheap, so splitting them
            // would pay 2^vars solver clones per depth for nothing.
            min_depth: depth,
        },
        ..BmcOptions::default()
    }
}

fn bench_cube_unroll(c: &mut Criterion) {
    let mut group = c.benchmark_group("cube/bmc_unroll");
    group.sample_size(10);
    for bits in [6usize, 8] {
        let (n, depth) = deep_counter(bits);
        let configs: [(&str, BmcOptions); 3] = [
            (
                "mono",
                BmcOptions {
                    max_depth: depth,
                    ..BmcOptions::default()
                },
            ),
            (
                "repro_seq",
                opts(depth, CubeMode::Reproducible, Parallelism::Sequential),
            ),
            (
                "repro_j4",
                opts(depth, CubeMode::Reproducible, Parallelism::Threads(4)),
            ),
        ];
        for (name, o) in &configs {
            group.bench_with_input(BenchmarkId::new(*name, bits), &(&n, o), |b, (n, o)| {
                b.iter(|| {
                    let r = check(n, 0, o);
                    assert!(matches!(r, BmcOutcome::Counterexample { .. }));
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_cube_unroll);
criterion_main!(benches);
