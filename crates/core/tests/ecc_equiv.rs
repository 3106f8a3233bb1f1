//! Differential soundness harness for the SumSweep eccentricity engine.
//!
//! The oracle is `exact.rs`: explicit exploration of the full state space.
//! For any netlist small enough to explore, a certificate over *all* its
//! registers bounds the same graph the oracle walks, so `factor` must
//! dominate the exact `pairwise` diameter — with equality whenever the
//! sweeps converged (`exact`), since both sides enumerate identical
//! reachable sets under exhaustive free inputs. On top of that, the
//! end-to-end `d̂` with `--ecc on` must stay sound (hittable targets hit
//! within `d̂ − 1`) and never exceed the blanket `d̂` with `--ecc off`.
//! Bounding a netlist's targets through one pass, whose certificate memo
//! they share, must give each target its one-shot bound and explanation.

use diam_core::eccentricity::{component_cert, EccOptions};
use diam_core::exact::{explore, state_diameter, ExploreLimits};
use diam_core::structural::{diameter_bound, explain, StructuralOptions};
use diam_core::{Bound, Classifier};
use diam_netlist::sim::SplitMix64;
use diam_netlist::{Gate, Init, Lit, Netlist};
use diam_obs::{EventKind, ObsConfig, ObsMode, RunManifest, Session};
use proptest::prelude::*;

/// Random sequential netlist with free inputs, mixed inits (no `Init::Fn`,
/// so the state-graph init set matches `explore`'s exactly), and random
/// next-state cones over a shared literal pool.
fn build_netlist(seed: u64, ni: usize, nr: usize, na: usize) -> Netlist {
    let mut rng = SplitMix64::new(seed);
    let mut n = Netlist::new();
    let inputs: Vec<Lit> = (0..ni).map(|k| n.input(format!("i{k}")).lit()).collect();
    let mut regs: Vec<Gate> = Vec::with_capacity(nr);
    for k in 0..nr {
        let init = match rng.below(3) {
            0 => Init::Zero,
            1 => Init::One,
            _ => Init::Nondet,
        };
        regs.push(n.reg(format!("r{k}"), init));
    }
    let mut pool: Vec<Lit> = vec![Lit::FALSE];
    pool.extend(&inputs);
    pool.extend(regs.iter().map(|r| r.lit()));
    for _ in 0..na {
        let a = pool[rng.below(pool.len() as u64) as usize].xor_complement(rng.below(2) == 1);
        let b = pool[rng.below(pool.len() as u64) as usize].xor_complement(rng.below(2) == 1);
        pool.push(n.and(a, b));
    }
    for &r in &regs {
        let nx = pool[rng.below(pool.len() as u64) as usize].xor_complement(rng.below(2) == 1);
        n.set_next(r, nx);
    }
    n.add_target(*pool.last().expect("nonempty pool"), "t");
    n.validate().expect("generated netlist is well-formed");
    n
}

/// `a ≤ b` in the bound order (`Exponential` is the top element).
fn bound_le(a: Bound, b: Bound) -> bool {
    match (a, b) {
        (Bound::Finite(x), Bound::Finite(y)) => x <= y,
        (_, Bound::Exponential) => true,
        (Bound::Exponential, Bound::Finite(_)) => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Certificate over all registers vs. the explicit-search diameter.
    #[test]
    fn certificate_dominates_exact_diameter(
        seed in proptest::arbitrary::any::<u64>(),
        ni in 1usize..=3,
        nr in 1usize..=8,
        na in 0usize..=40,
    ) {
        let n = build_netlist(seed, ni, nr, na);
        let opts = EccOptions {
            cutoff: 8,
            ..EccOptions::on()
        };
        let cert = component_cert(&n, n.regs(), &opts)
            .expect("whole-register component fits the limits");
        let oracle = state_diameter(&n, &ExploreLimits::default())
            .expect("generator stays under the explore limits");
        prop_assert!(
            cert.factor >= oracle.pairwise,
            "certified factor {} below exact pairwise diameter {}",
            cert.factor,
            oracle.pairwise
        );
        prop_assert_eq!(cert.states, oracle.reachable_states);
        if cert.exact {
            prop_assert_eq!(cert.factor, oracle.pairwise);
        }
    }

    /// End-to-end `d̂`: `--ecc on` is monotone below the blanket bound and
    /// still sound against the earliest exact hit.
    #[test]
    fn tightened_bound_is_monotone_and_sound(
        seed in proptest::arbitrary::any::<u64>(),
        ni in 1usize..=3,
        nr in 1usize..=8,
        na in 0usize..=40,
    ) {
        let n = build_netlist(seed, ni, nr, na);
        let target = n.targets()[0].lit;
        let off = diameter_bound(&n, target, &StructuralOptions::default());
        let on = diameter_bound(
            &n,
            target,
            &StructuralOptions {
                ecc: EccOptions::on(),
                ..StructuralOptions::default()
            },
        );
        prop_assert!(
            bound_le(on.bound, off.bound),
            "--ecc on loosened d̂: {:?} vs {:?}",
            on.bound,
            off.bound
        );
        if let Some(hit) = explore(&n, &ExploreLimits::default())
            .expect("generator stays under the explore limits")
            .earliest_hit[0]
        {
            for (label, tb) in [("off", &off), ("on", &on)] {
                let Bound::Finite(b) = tb.bound else { continue };
                prop_assert!(
                    hit < b,
                    "--ecc {label} bound {b} misses a hit at step {hit}"
                );
            }
        }
    }
}

/// Runs `f` under a recording session and counts the components it
/// enumerated on this thread (its `ecc.enumerate` spans; other tests'
/// threads record theirs under other parents).
fn enumerations(f: impl FnOnce()) -> usize {
    let config = ObsConfig {
        mode: ObsMode::Json,
        ..ObsConfig::default()
    };
    let session = Session::install(config, RunManifest::capture("test-ecc-memo"));
    let root = {
        let sp = diam_obs::span!("test.pass");
        f();
        sp.id()
    };
    let report = session.finish();
    report
        .events
        .iter()
        .filter(|e| {
            matches!(e.kind, EventKind::Open { name: "ecc.enumerate", parent, .. } if parent == root)
        })
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One pass over a multi-target netlist — every register is a target
    /// too, so cones overlap and share components — bounds and explains
    /// each target exactly as a one-shot call does, whichever target
    /// fills the certificate memo first.
    #[test]
    fn one_pass_matches_one_shot_bounds(
        seed in proptest::arbitrary::any::<u64>(),
        ni in 1usize..=3,
        nr in 1usize..=8,
        na in 0usize..=40,
    ) {
        let mut n = build_netlist(seed, ni, nr, na);
        for (k, r) in n.regs().to_vec().into_iter().enumerate() {
            n.add_target(r.lit(), format!("r{k}"));
        }
        let opts = StructuralOptions {
            ecc: EccOptions {
                cutoff: 8,
                ..EccOptions::on()
            },
            ..StructuralOptions::default()
        };
        let lits: Vec<Lit> = n.targets().iter().map(|t| t.lit).collect();
        let one_shot: Vec<_> = lits
            .iter()
            .map(|&t| {
                let tb = diameter_bound(&n, t, &opts);
                let why = explain(&n, t, &opts).to_string();
                (tb.bound, tb.classification.counts(), why)
            })
            .collect();
        let forward: Vec<usize> = (0..lits.len()).collect();
        let backward: Vec<usize> = forward.iter().rev().copied().collect();
        for order in [forward, backward] {
            let cx = Classifier::new(&n, &opts);
            for &i in &order {
                let tb = cx.diameter_bound(lits[i]);
                prop_assert_eq!(tb.bound, one_shot[i].0, "target {}", i);
                prop_assert_eq!(tb.classification.counts(), one_shot[i].1, "target {}", i);
                prop_assert_eq!(&cx.explain(lits[i]).to_string(), &one_shot[i].2);
            }
        }
    }
}

/// One component probed by several targets of one pass costs one
/// enumeration: the second target recalls the pass's certificate.
#[test]
fn certificates_are_memoized_across_targets() {
    let mut n = Netlist::new();
    let regs: Vec<Gate> = (0..9)
        .map(|k| n.reg(format!("m{k}"), if k == 0 { Init::One } else { Init::Zero }))
        .collect();
    for k in 0..9 {
        n.set_next(regs[k], regs[(k + 8) % 9].lit());
    }
    n.add_target(regs[2].lit(), "head");
    n.add_target(regs[7].lit(), "tail");
    n.validate().expect("ring is well-formed");

    let opts = StructuralOptions {
        ecc: EccOptions::on(),
        ..StructuralOptions::default()
    };
    let cx = Classifier::new(&n, &opts);
    let (mut head, mut tail) = (None, None);
    let enumerated = enumerations(|| {
        head = Some(cx.diameter_bound(n.targets()[0].lit));
        tail = Some(cx.diameter_bound(n.targets()[1].lit));
    });
    assert_eq!(
        enumerated, 1,
        "one pass, one shared component, one enumeration"
    );
    let (head, tail) = (head.unwrap(), tail.unwrap());
    // Both targets see the same tightened factor: 9 reachable states on a
    // cycle, certified diameter 8, factor 9 ≪ 2^9.
    assert_eq!(head.bound, tail.bound);
    let Bound::Finite(b) = head.bound else {
        panic!("ring bound is finite");
    };
    assert!(b <= 2 * 9, "factor 9 (not 512) dominates d̂ = {b}");
}
