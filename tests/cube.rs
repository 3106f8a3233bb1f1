//! Differential soundness of the cube-and-conquer BMC layer (`diam::bmc::cube`).
//!
//! The contract under test (see `DESIGN.md`, "Cube-and-conquer"): splitting a
//! depth obligation into assumption cubes never changes a verdict. On random
//! multi-target designs, the cube split at every parallelism setting must
//! agree with the plain monolithic check on hit depths, and every returned
//! witness must replay on the original netlist. The split is also held to
//! the stronger bar: bit-identical outcomes (witness included) across
//! thread counts.

use diam::bmc::{check, check_all, BmcOptions, BmcOutcome, CubeMode, CubeOptions};
use diam::gen::random::{random_netlist, RandomDesignOptions};
use diam::netlist::{Gate, Init, Lit, Netlist};
use diam::par::Parallelism;

/// Seeded multi-target designs (deterministic per seed).
fn designs() -> Vec<Netlist> {
    let opts = RandomDesignOptions {
        inputs: 3,
        regs: 6,
        gates: 16,
        targets: 3,
        allow_nondet: true,
    };
    (0..16u64)
        .map(|seed| random_netlist(&opts, 0xC0BE + seed))
        .collect()
}

fn cube_opts() -> CubeOptions {
    CubeOptions {
        mode: CubeMode::Reproducible,
        vars: 2,
        // Split early so shallow random designs still exercise the layer.
        min_depth: 1,
    }
}

/// Hit depths and no-hit bounds must match outcome-for-outcome; cube-path
/// witnesses must replay (they may legitimately differ from the monolithic
/// witness).
fn assert_verdicts_match(n: &Netlist, plain: &[BmcOutcome], cubed: &[BmcOutcome], ctx: &str) {
    assert_eq!(plain.len(), cubed.len(), "{ctx}");
    for (i, (a, b)) in plain.iter().zip(cubed).enumerate() {
        match (a, b) {
            (
                BmcOutcome::Counterexample { depth: x, .. },
                BmcOutcome::Counterexample { depth: y, witness },
            ) => {
                assert_eq!(x, y, "{ctx}: target {i} hit depth");
                assert!(
                    witness.replays_to(n, n.targets()[i].lit),
                    "{ctx}: target {i} cube witness does not replay"
                );
            }
            (BmcOutcome::NoHitUpTo(x), BmcOutcome::NoHitUpTo(y)) => {
                assert_eq!(x, y, "{ctx}: target {i} clean bound")
            }
            other => panic!("{ctx}: target {i} outcome mismatch {other:?}"),
        }
    }
}

#[test]
fn cube_modes_agree_with_monolithic_on_random_designs() {
    for (k, n) in designs().iter().enumerate() {
        let plain = check_all(
            n,
            &BmcOptions {
                max_depth: 10,
                ..Default::default()
            },
        );
        for par in [Parallelism::Sequential, Parallelism::Threads(4)] {
            let cubed = check_all(
                n,
                &BmcOptions {
                    max_depth: 10,
                    parallelism: par,
                    cube: cube_opts(),
                    ..Default::default()
                },
            );
            assert_verdicts_match(n, &plain, &cubed, &format!("design {k}, {par}"));
        }
    }
}

/// A `bits`-wide counter with a target hit exactly when it reaches `value`.
fn counter(bits: usize, value: u64) -> Netlist {
    let mut n = Netlist::new();
    let b: Vec<Gate> = (0..bits)
        .map(|k| n.reg(format!("b{k}"), Init::Zero))
        .collect();
    let mut carry = Lit::TRUE;
    for &bk in &b {
        let nk = n.xor(bk.lit(), carry);
        carry = n.and(bk.lit(), carry);
        n.set_next(bk, nk);
    }
    let lits: Vec<Lit> = (0..bits)
        .map(|k| b[k].lit().xor_complement(value >> k & 1 == 0))
        .collect();
    let t = n.and_many(lits);
    n.add_target(t, format!("value_is_{value}"));
    n
}

#[test]
fn reproducible_mode_is_bit_identical_across_jobs() {
    // The stronger contract: in reproducible mode the *entire* outcome —
    // witness bits included — is a pure function of the input, regardless
    // of `--jobs`.
    let n = counter(5, 21);
    let outcome = |par| {
        check(
            &n,
            0,
            &BmcOptions {
                max_depth: 40,
                parallelism: par,
                cube: cube_opts(),
                ..Default::default()
            },
        )
    };
    let seq = outcome(Parallelism::Sequential);
    assert!(matches!(seq, BmcOutcome::Counterexample { depth: 21, .. }));
    for par in [Parallelism::Threads(2), Parallelism::Threads(8)] {
        assert_eq!(seq, outcome(par), "jobs {par}");
    }
}
