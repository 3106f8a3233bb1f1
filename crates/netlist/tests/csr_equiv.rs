//! Differential testing of the CSR substrate against pre-refactor reference
//! implementations.
//!
//! Every analysis that was rewritten onto the cached CSR / visit engine —
//! cone of influence, levelization, the register dependency graph and its
//! condensation, and the bit-parallel simulator — is checked here against a
//! deliberately naive reference that walks `GateKind` edges directly with
//! `HashSet` marks, the way the code worked before the refactor. The
//! references are slow and allocation-happy by design: simple enough to
//! audit by eye.

use diam_netlist::analysis::{self, coi, condense, levels, reg_graph};
use diam_netlist::csr::NodeKind;
use diam_netlist::sim::{simulate, SplitMix64, Stimulus};
use diam_netlist::{Gate, GateKind, Init, Lit, Netlist};
use proptest::prelude::*;
use std::collections::HashSet;

/// Deterministically expands a seed into a random sequential netlist:
/// `ni` inputs, `nr` registers (all four init kinds, `Init::Fn` cones kept
/// input-only so the netlist validates), `na` AND picks over a growing pool,
/// and 1–3 targets.
fn build_netlist(seed: u64, ni: usize, nr: usize, na: usize) -> Netlist {
    let mut rng = SplitMix64::new(seed);
    let mut n = Netlist::new();
    let inputs: Vec<Lit> = (0..ni).map(|k| n.input(format!("i{k}")).lit()).collect();
    let mut regs: Vec<Gate> = Vec::with_capacity(nr);
    for k in 0..nr {
        let init = match rng.below(4) {
            0 => Init::Zero,
            1 => Init::One,
            2 => Init::Nondet,
            _ => {
                // Input-only literal (or constant), possibly complemented.
                let l = if inputs.is_empty() || rng.below(4) == 0 {
                    Lit::FALSE
                } else {
                    inputs[rng.below(inputs.len() as u64) as usize]
                };
                Init::Fn(l.xor_complement(rng.below(2) == 1))
            }
        };
        regs.push(n.reg(format!("r{k}"), init));
    }
    let mut pool: Vec<Lit> = vec![Lit::FALSE];
    pool.extend(&inputs);
    pool.extend(regs.iter().map(|r| r.lit()));
    let pick = |rng: &mut SplitMix64, pool: &[Lit]| {
        pool[rng.below(pool.len() as u64) as usize].xor_complement(rng.below(2) == 1)
    };
    for _ in 0..na {
        let a = pick(&mut rng, &pool);
        let b = pick(&mut rng, &pool);
        pool.push(n.and(a, b));
    }
    for &r in &regs {
        let nx = pick(&mut rng, &pool);
        n.set_next(r, nx);
    }
    let ntargets = 1 + rng.below(3) as usize;
    for t in 0..ntargets {
        let l = pick(&mut rng, &pool);
        n.add_target(l, format!("t{t}"));
    }
    n.validate().expect("generated netlist is well-formed");
    n
}

/// Reference cone of influence: recursive-style DFS over `GateKind` edges
/// with a `HashSet` mark set (the pre-refactor implementation shape).
fn ref_coi(n: &Netlist, roots: &[Lit]) -> HashSet<Gate> {
    let mut seen: HashSet<Gate> = HashSet::new();
    let mut stack: Vec<Gate> = roots.iter().map(|l| l.gate()).collect();
    while let Some(g) = stack.pop() {
        if !seen.insert(g) {
            continue;
        }
        match n.kind(g) {
            GateKind::And(a, b) => {
                stack.push(a.gate());
                stack.push(b.gate());
            }
            GateKind::Reg => {
                stack.push(n.reg_next(g).gate());
                if let Init::Fn(l) = n.reg_init(g) {
                    stack.push(l.gate());
                }
            }
            GateKind::Const0 | GateKind::Input => {}
        }
    }
    seen
}

/// Reference levels: direct `GateKind` recurrence in index order.
fn ref_levels(n: &Netlist) -> Vec<u32> {
    let mut lv = vec![0u32; n.num_gates()];
    for g in n.gates() {
        if let GateKind::And(a, b) = n.kind(g) {
            lv[g.index()] = 1 + lv[a.gate().index()].max(lv[b.gate().index()]);
        }
    }
    lv
}

/// Reference register dependency edges: per-register combinational DFS from
/// the next-state function, stopping at registers.
fn ref_reg_edges(n: &Netlist, regs: &[Gate]) -> HashSet<(usize, usize)> {
    let index_of: std::collections::HashMap<Gate, usize> =
        regs.iter().enumerate().map(|(i, &r)| (r, i)).collect();
    let mut edges = HashSet::new();
    for (i, &r) in regs.iter().enumerate() {
        let mut seen: HashSet<Gate> = HashSet::new();
        let mut stack = vec![n.reg_next(r).gate()];
        while let Some(g) = stack.pop() {
            if !seen.insert(g) {
                continue;
            }
            match n.kind(g) {
                GateKind::And(a, b) => {
                    stack.push(a.gate());
                    stack.push(b.gate());
                }
                GateKind::Reg => {
                    if let Some(&j) = index_of.get(&g) {
                        edges.insert((j, i)); // j feeds i
                    }
                }
                GateKind::Const0 | GateKind::Input => {}
            }
        }
    }
    edges
}

/// Reference simulator: per-step `GateKind` dispatch, sweeping the gate list
/// in index order (ANDs are topological, so one sweep settles a frame).
fn ref_simulate(n: &Netlist, stim: &Stimulus) -> Vec<Vec<u64>> {
    let eval = |row: &[u64], l: Lit| -> u64 {
        let v = row[l.gate().index()];
        if l.is_complement() {
            !v
        } else {
            v
        }
    };
    let sweep = |n: &Netlist, row: &mut Vec<u64>| {
        for g in n.gates() {
            if let GateKind::And(a, b) = n.kind(g) {
                row[g.index()] = eval(row, a) & eval(row, b);
            }
        }
    };
    let mut values: Vec<Vec<u64>> = Vec::new();
    for t in 0..stim.len() {
        let mut row = vec![0u64; n.num_gates()];
        for (k, &i) in n.inputs().iter().enumerate() {
            row[i.index()] = stim.inputs[t][k];
        }
        if t == 0 {
            sweep(n, &mut row);
            for (j, &r) in n.regs().iter().enumerate() {
                row[r.index()] = match n.reg_init(r) {
                    Init::Zero => 0,
                    Init::One => !0,
                    Init::Nondet => stim.nondet_init[j],
                    Init::Fn(l) => eval(&row, l),
                };
            }
        } else {
            let prev = &values[t - 1];
            for &r in n.regs() {
                row[r.index()] = eval(prev, n.reg_next(r));
            }
        }
        sweep(n, &mut row);
        values.push(row);
    }
    values
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn coi_matches_reference(
        seed in proptest::arbitrary::any::<u64>(),
        ni in 1usize..=6,
        nr in 0usize..=10,
        na in 0usize..=60,
    ) {
        let n = build_netlist(seed, ni, nr, na);
        let roots: Vec<Lit> = n.targets().iter().map(|t| t.lit).collect();
        let want = ref_coi(&n, &roots);
        let got = coi(&n, roots.clone());
        for g in n.gates() {
            prop_assert_eq!(got.contains(g), want.contains(&g), "gate {} membership", g);
        }
        let want_regs: Vec<Gate> =
            n.regs().iter().copied().filter(|r| want.contains(r)).collect();
        let want_inputs: Vec<Gate> =
            n.inputs().iter().copied().filter(|i| want.contains(i)).collect();
        prop_assert_eq!(&got.regs, &want_regs);
        prop_assert_eq!(&got.inputs, &want_inputs);
    }

    #[test]
    fn levels_match_reference(
        seed in proptest::arbitrary::any::<u64>(),
        ni in 1usize..=6,
        nr in 0usize..=8,
        na in 0usize..=80,
    ) {
        let n = build_netlist(seed, ni, nr, na);
        prop_assert_eq!(levels(&n), ref_levels(&n));
    }

    #[test]
    fn reg_graph_and_condensation_match_reference(
        seed in proptest::arbitrary::any::<u64>(),
        ni in 1usize..=4,
        nr in 1usize..=12,
        na in 0usize..=60,
    ) {
        let n = build_netlist(seed, ni, nr, na);
        let regs: Vec<Gate> = n.regs().to_vec();
        let g = reg_graph(&n, &regs);
        let want = ref_reg_edges(&n, &regs);
        let mut got: HashSet<(usize, usize)> = HashSet::new();
        for i in 0..g.len() {
            for &p in g.preds(i) {
                got.insert((p as usize, i));
            }
            // succs must be the exact transpose of preds.
            for &s in g.succs(i) {
                prop_assert!(
                    g.preds(s as usize).contains(&(i as u32)),
                    "succ edge {i}->{s} missing from preds"
                );
            }
        }
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(g.num_edges(), want.len());

        // Condensation invariants over the (verified) graph.
        let cond = condense(&g);
        prop_assert_eq!(cond.comp_of.len(), g.len());
        for (c, comp) in cond.comps.iter().enumerate() {
            for &v in comp {
                prop_assert_eq!(cond.comp_of[v], c);
            }
            let is_cyclic = comp.len() > 1
                || comp.iter().any(|&v| want.contains(&(v, v)));
            prop_assert_eq!(cond.cyclic[c], is_cyclic, "component {c} cyclicity");
        }
    }

    #[test]
    fn simulation_matches_reference(
        seed in proptest::arbitrary::any::<u64>(),
        ni in 1usize..=5,
        nr in 0usize..=8,
        na in 0usize..=50,
        steps in 1usize..=8,
    ) {
        let n = build_netlist(seed, ni, nr, na);
        let mut rng = SplitMix64::new(seed ^ 0xBEEF);
        let stim = Stimulus::random(&n, steps, &mut rng);
        let trace = simulate(&n, &stim);
        let want = ref_simulate(&n, &stim);
        for (t, row) in want.iter().enumerate() {
            for g in n.gates() {
                prop_assert_eq!(
                    trace.word(g.lit(), t),
                    row[g.index()],
                    "gate {} at step {}", g, t
                );
            }
        }
    }

    #[test]
    fn support_leaves_are_cone_leaves(
        seed in proptest::arbitrary::any::<u64>(),
        ni in 1usize..=6,
        nr in 0usize..=8,
        na in 0usize..=60,
    ) {
        let n = build_netlist(seed, ni, nr, na);
        let root = n.targets()[0].lit;
        let sup = analysis::support(&n, root);
        // Reference: combinational DFS that stops at regs/inputs.
        let mut seen: HashSet<Gate> = HashSet::new();
        let mut stack = vec![root.gate()];
        let mut regs = HashSet::new();
        let mut inputs = HashSet::new();
        while let Some(g) = stack.pop() {
            if !seen.insert(g) {
                continue;
            }
            match n.kind(g) {
                GateKind::And(a, b) => {
                    stack.push(a.gate());
                    stack.push(b.gate());
                }
                GateKind::Reg => {
                    regs.insert(g);
                }
                GateKind::Input => {
                    inputs.insert(g);
                }
                GateKind::Const0 => {}
            }
        }
        let got_regs: HashSet<Gate> = sup.regs.iter().copied().collect();
        let got_inputs: HashSet<Gate> = sup.inputs.iter().copied().collect();
        prop_assert_eq!(&got_regs, &regs);
        prop_assert_eq!(&got_inputs, &inputs);
    }
}

/// The CSR mirrors the netlist edge-for-edge on random netlists (not part of
/// the proptest block: one deterministic sweep across a seed range keeps the
/// failure message simple).
#[test]
fn csr_kinds_and_edges_mirror_netlist() {
    for seed in 0..32u64 {
        let n = build_netlist(seed, 4, 6, 40);
        let csr = n.csr();
        assert_eq!(csr.num_nodes(), n.num_gates());
        for g in n.gates() {
            let v = g.index() as u32;
            match n.kind(g) {
                GateKind::Const0 => assert_eq!(csr.kind(v), NodeKind::Const0),
                GateKind::Input => assert_eq!(csr.kind(v), NodeKind::Input),
                GateKind::And(a, b) => {
                    assert_eq!(csr.kind(v), NodeKind::And);
                    assert_eq!(
                        csr.fanins(v),
                        &[a.gate().index() as u32, b.gate().index() as u32]
                    );
                }
                GateKind::Reg => {
                    assert_eq!(csr.kind(v), NodeKind::Reg);
                    let mut want = vec![n.reg_next(g).gate().index() as u32];
                    if let Init::Fn(l) = n.reg_init(g) {
                        want.push(l.gate().index() as u32);
                    }
                    assert_eq!(csr.fanins(v), &want[..]);
                }
            }
            // Fanouts are sorted and reciprocal.
            let fo = csr.fanouts(v);
            assert!(fo.windows(2).all(|w| w[0] <= w[1]), "fanouts sorted");
            for &w in fo {
                assert!(
                    csr.fanins(w).contains(&v),
                    "fanout edge {v}->{w} reciprocal"
                );
            }
        }
    }
}
