//! Determinism tests for the parallel orchestration layers.
//!
//! The contract under test (see `DESIGN.md`, "Threading model"): every
//! per-target fan-out — `prove_all`, `Pipeline::bound_targets`,
//! `classify_targets`, and `check_all` — produces output that is
//! **bit-identical across all `Parallelism` settings**, because jobs are
//! pure functions of the immutable netlist merged in original target order.
//! The fan-outs also agree with their single-target counterparts.

use diam::bmc::{
    check, check_all, prove, prove_all, BmcOptions, BmcOutcome, ProveOptions, ProveOutcome,
};
use diam::core::{classify_targets, ClassifyOptions, Pipeline, StructuralOptions};
use diam::gen::random::{random_netlist, RandomDesignOptions};
use diam::netlist::Netlist;
use diam::par::Parallelism;

/// 24 seeded multi-target designs (deterministic per seed).
fn designs() -> Vec<Netlist> {
    let opts = RandomDesignOptions {
        inputs: 3,
        regs: 5,
        gates: 14,
        targets: 4,
        allow_nondet: true,
    };
    (0..24u64)
        .map(|seed| random_netlist(&opts, 0xD1A0 + seed))
        .collect()
}

#[test]
fn prove_all_is_bit_identical_across_thread_counts() {
    let pipeline = Pipeline::com_ret_com();
    for (k, n) in designs().iter().enumerate() {
        let base = ProveOptions {
            depth_cap: 64,
            ..Default::default()
        };
        let seq = prove_all(n, &pipeline, &base);
        for par in [
            Parallelism::Threads(2),
            Parallelism::Threads(4),
            Parallelism::Auto,
        ] {
            let opts = ProveOptions {
                parallelism: par,
                ..base.clone()
            };
            let got = prove_all(n, &pipeline, &opts);
            // ProveOutcome derives PartialEq including the witness trace:
            // this compares counterexamples bit-for-bit.
            assert_eq!(seq, got, "design {k}, parallelism {par}");
        }
    }
}

#[test]
fn bound_targets_is_identical_across_thread_counts() {
    let pipeline = Pipeline::com();
    for (k, n) in designs().iter().enumerate() {
        let seq = pipeline.bound_targets(n, &StructuralOptions::default());
        for workers in [2usize, 4] {
            let opts = StructuralOptions {
                parallelism: Parallelism::Threads(workers),
                ..Default::default()
            };
            let got = pipeline.bound_targets(n, &opts);
            assert_eq!(seq.len(), got.len());
            for (a, b) in seq.iter().zip(&got) {
                assert_eq!(a.name, b.name, "design {k}");
                assert_eq!(a.transformed, b.transformed, "design {k}");
                assert_eq!(a.original, b.original, "design {k}");
                assert_eq!(a.counts, b.counts, "design {k}");
            }
        }
    }
}

#[test]
fn classify_targets_matches_across_thread_counts() {
    for n in designs().into_iter().take(8) {
        let seq = classify_targets(&n, &ClassifyOptions::default(), Parallelism::Sequential);
        let par = classify_targets(&n, &ClassifyOptions::default(), Parallelism::Threads(3));
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.regs, b.regs);
            assert_eq!(a.kinds, b.kinds);
            assert_eq!(a.counts(), b.counts());
        }
    }
}

#[test]
fn check_all_is_bit_identical_across_thread_counts() {
    for (k, n) in designs().iter().enumerate() {
        let opts = |parallelism| BmcOptions {
            max_depth: 12,
            parallelism,
            ..Default::default()
        };
        let seq = check_all(n, &opts(Parallelism::Sequential));
        for par in [Parallelism::Threads(2), Parallelism::Threads(4)] {
            // BmcOutcome derives PartialEq including the witness trace.
            assert_eq!(seq, check_all(n, &opts(par)), "design {k}, {par}");
        }
        // Each fanned-out outcome is the per-target check's outcome.
        for (i, outcome) in seq.iter().enumerate() {
            let single = check(n, i, &opts(Parallelism::Sequential));
            match (outcome, &single) {
                (
                    BmcOutcome::Counterexample { depth: x, witness },
                    BmcOutcome::Counterexample { depth: y, .. },
                ) => {
                    assert_eq!(x, y, "design {k} target {i}");
                    assert!(
                        witness.replays_to(n, n.targets()[i].lit),
                        "design {k} target {i}: witness does not replay"
                    );
                }
                (BmcOutcome::NoHitUpTo(x), BmcOutcome::NoHitUpTo(y)) => {
                    assert_eq!(x, y, "design {k} target {i}")
                }
                other => panic!("design {k} target {i}: outcome mismatch {other:?}"),
            }
        }
    }
}

#[test]
fn prove_agrees_with_prove_all_target_by_target() {
    // `prove` searches the whole netlist, `prove_all` each target's cone
    // slice: witnesses may differ, but verdicts, bounds and earliest hit
    // depths may not — and every witness replays on the original.
    let pipeline = Pipeline::com_ret_com();
    let opts = ProveOptions {
        depth_cap: 64,
        ..Default::default()
    };
    for (k, n) in designs().iter().enumerate() {
        let all = prove_all(n, &pipeline, &opts);
        for (i, from_all) in all.iter().enumerate() {
            let single = prove(n, i, &pipeline, &opts);
            let ctx = format!("design {k} target {i}");
            match (&single, from_all) {
                (
                    ProveOutcome::Counterexample {
                        depth: x,
                        witness: a,
                    },
                    ProveOutcome::Counterexample {
                        depth: y,
                        witness: b,
                    },
                ) => {
                    assert_eq!(x, y, "{ctx}");
                    let t = n.targets()[i].lit;
                    assert!(a.replays_to(n, t), "{ctx}: prove witness does not replay");
                    assert!(
                        b.replays_to(n, t),
                        "{ctx}: prove_all witness does not replay"
                    );
                }
                (single, from_all) => assert_eq!(single, from_all, "{ctx}"),
            }
        }
    }
}
