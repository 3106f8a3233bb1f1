//! Tests for the per-target orchestration layers.
//!
//! The contract under test (see `DESIGN.md`, "Threading model"): the one
//! parallel fan-out, `Pipeline::bound_targets` under
//! `StructuralOptions::parallelism`, produces output that is **identical
//! across all `Parallelism` settings**, because jobs are pure functions of
//! the immutable netlist merged in original target order. The all-target
//! BMC entry points, `check_all` and `prove_all`, agree with their
//! single-target counterparts, and `prove` bounds only its own target.

use diam::bmc::{
    check, check_all, prove, prove_all, BmcOptions, BmcOutcome, ProveOptions, ProveOutcome,
};
use diam::core::{Pipeline, StructuralOptions};
use diam::gen::random::{random_netlist, RandomDesignOptions};
use diam::netlist::Netlist;
use diam::obs::{EventKind, ObsConfig, ObsMode, RunManifest, Session, Value};
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
fn check_all_is_bit_identical_across_thread_counts() {
    for (k, n) in designs().iter().enumerate() {
        let opts = BmcOptions {
            max_depth: 12,
            ..Default::default()
        };
        // Each outcome is the per-target check's outcome.
        for (i, outcome) in check_all(n, &opts).iter().enumerate() {
            let single = check(n, i, &opts);
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

/// `prove` of one target bounds that target alone: a recording session
/// around it sees one `bound.target` span, not one per target.
#[test]
fn prove_bounds_only_its_own_target() {
    let n = &designs()[0];
    assert!(n.targets().len() > 1);
    let config = ObsConfig {
        mode: ObsMode::Json,
        ..ObsConfig::default()
    };
    let session = Session::install(config, RunManifest::capture("test-prove"));
    let root = {
        let sp = diam::obs::span!("test.prove");
        prove(n, 1, &Pipeline::com(), &ProveOptions::default());
        sp.id()
    };
    let report = session.finish();
    let bounded: Vec<&Value> = report
        .events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Open {
                name: "bound.target",
                parent,
                fields,
                ..
            } if *parent == root => fields.iter().find(|f| f.0 == "index").map(|f| &f.1),
            _ => None,
        })
        .collect();
    assert_eq!(bounded, [&Value::U64(1)]);
}
