//! Release-mode soundness smoke for the eccentricity engine on the paper
//! suite: `--ecc on` may only *tighten* diameter bounds — register
//! classification is untouched, every per-target bound stays ≤ the blanket
//! bound, and the useful-target count never drops. CI runs this in release
//! mode so the smoke covers the optimized sweep kernels. The last test
//! follows one certified bound from enumeration to a complete BMC proof.

use diam_bench::run_design_opts;
use diam_bmc::{BmcOptions, BmcOutcome, ProveOptions, ProveOutcome};
use diam_core::eccentricity::sum_sweep;
use diam_core::state_graph::{StateGraph, StateGraphLimits};
use diam_core::{Bound, EccOptions, Pipeline, StructuralOptions};
use diam_gen::{archetypes, iscas};
use diam_netlist::Netlist;
use diam_par::Parallelism;

fn bound_le(a: Bound, b: Bound) -> bool {
    match (a, b) {
        (Bound::Finite(x), Bound::Finite(y)) => x <= y,
        (_, Bound::Exponential) => true,
        (Bound::Exponential, Bound::Finite(_)) => false,
    }
}

#[test]
fn ecc_on_preserves_verdicts_and_tightens() {
    let suite = iscas::suite(0);
    for (profile, netlist) in suite.iter().take(4) {
        let off = run_design_opts(
            profile,
            netlist,
            Parallelism::Sequential,
            &EccOptions::default(),
        );
        let on = run_design_opts(profile, netlist, Parallelism::Sequential, &EccOptions::on());
        for c in 0..3 {
            assert_eq!(
                off.columns[c].counts, on.columns[c].counts,
                "{}: classification must not depend on --ecc",
                profile.name
            );
            assert!(
                on.columns[c].useful >= off.columns[c].useful,
                "{}: --ecc on lost useful targets ({} -> {})",
                profile.name,
                off.columns[c].useful,
                on.columns[c].useful
            );
        }
    }
}

#[test]
fn per_target_bounds_are_monotone() {
    let suite = iscas::suite(0);
    for (profile, netlist) in suite.iter().take(4) {
        let result = Pipeline::com_ret_com().run(netlist);
        let off = result.bound_targets(&StructuralOptions::default());
        let on = result.bound_targets(&StructuralOptions {
            ecc: EccOptions::on(),
            ..StructuralOptions::default()
        });
        for (b_off, b_on) in off.iter().zip(&on) {
            assert!(
                bound_le(b_on.original, b_off.original),
                "{}/{}: --ecc on loosened the bound ({:?} vs {:?})",
                profile.name,
                b_on.name,
                b_on.original,
                b_off.original
            );
        }
    }
}

/// Enabled counters at and below the engine's k = 16 cutoff enumerate every
/// state and certify a diameter below the blanket `2^regs`. On the
/// 12-position token ring's unreachable two-token target, under a BMC depth
/// cap of 128, the blanket bound (`2^12 - 1`) exceeds the cap and a plain
/// sweep to the cap settles nothing, while the certified bound proves it.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow unoptimized; run with --release")]
fn certified_bound_proves_the_token_ring_under_a_depth_cap() {
    for bits in [12usize, 16] {
        let mut n = Netlist::new();
        let en = n.input("en").lit();
        let c = archetypes::counter(&mut n, "c", bits, en);
        n.add_target(c.all_ones, "wrap");
        let g = StateGraph::build(&n, &c.regs, &StateGraphLimits::default())
            .expect("counter fits the default limits");
        assert_eq!(
            g.num_states() as u64,
            1 << bits,
            "counter visits all states"
        );
        let summary = sum_sweep(&g, 16);
        assert!(summary.diameter < 1 << bits, "certified below blanket");
    }

    const CAP: u64 = 128;
    let mut n = Netlist::new();
    let step = n.input("step").lit();
    let ring = archetypes::token_ring(&mut n, "ring", 12, step);
    let two = n.and(ring[0].lit(), ring[1].lit());
    n.add_target(two, "two_tokens");
    let pipeline = Pipeline::new();

    let blanket = diam_bmc::prove(
        &n,
        0,
        &pipeline,
        &ProveOptions {
            depth_cap: CAP,
            ..ProveOptions::default()
        },
    );
    assert!(
        matches!(blanket, ProveOutcome::BoundTooLarge { bound: Some(_) }),
        "blanket bound must exceed the cap, got {blanket:?}"
    );
    let swept = diam_bmc::check(
        &n,
        0,
        &BmcOptions {
            max_depth: CAP,
            ..BmcOptions::default()
        },
    );
    assert_eq!(
        swept,
        BmcOutcome::NoHitUpTo(CAP),
        "capped sweep settles nothing"
    );

    let certified = diam_bmc::prove(
        &n,
        0,
        &pipeline,
        &ProveOptions {
            structural: StructuralOptions {
                ecc: EccOptions::on(),
                ..StructuralOptions::default()
            },
            depth_cap: CAP,
            ..ProveOptions::default()
        },
    );
    assert!(
        matches!(certified, ProveOutcome::Proved { .. }),
        "two-token ring target must prove under the cap, got {certified:?}"
    );
}
