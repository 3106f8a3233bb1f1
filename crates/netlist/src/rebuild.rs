//! Netlist reconstruction under a substitution map.
//!
//! [`rebuild`] copies a netlist while (a) redirecting every gate to a chosen
//! *representative* literal and (b) dropping logic outside the cone of
//! influence of the targets. It is the common back-end of cone-of-influence
//! reduction and of redundancy removal: merging vertex `v` onto vertex `u`
//! (Section 3.1 of the paper) is simply `repr(v) = ±u` followed by a rebuild,
//! which also re-applies structural hashing and constant folding to the
//! merged vertex's fanout cone.

use crate::visit;
use crate::{Gate, GateKind, Init, Lit, Netlist, Target};

/// The result of [`rebuild`]: the new netlist plus a mapping from old gates
/// to new literals (`None` for gates that fell outside the kept cone).
#[derive(Debug, Clone)]
pub struct Rebuilt {
    /// The reconstructed netlist.
    pub netlist: Netlist,
    /// `map[g]` = literal of the new netlist implementing old gate `g`.
    pub map: Vec<Option<Lit>>,
}

impl Rebuilt {
    /// Maps an old literal into the new netlist, if its gate survived.
    pub fn lit(&self, old: Lit) -> Option<Lit> {
        self.map[old.gate().index()].map(|l| l.xor_complement(old.is_complement()))
    }
}

/// Rebuilds `n`, replacing every gate `g` by its representative `repr[g]`
/// (a literal of the *old* netlist) and keeping only the cone of influence
/// of the (remapped) targets.
///
/// Requirements on `repr`, checked with debug assertions:
/// * `repr[g].gate() <= g` — representatives point at equal-or-older gates,
///   so a representative chain terminates;
/// * representatives are idempotent after chain compression (the function
///   compresses chains itself, so `repr[repr[g].gate()]` may be non-trivial).
///
/// Pass the identity (`g.lit()` for every gate) to get a pure
/// cone-of-influence reduction.
pub fn rebuild(n: &Netlist, repr: &[Lit]) -> Rebuilt {
    rebuild_with_targets(n, repr, n.targets())
}

/// [`rebuild`] restricted to an explicit target subset (which need not be
/// `n.targets()`): the kept cone and the rebuilt netlist's target list come
/// from `targets` alone. This is what [`slice_target`] uses to carve out one
/// target's cone without cloning the source netlist first.
fn rebuild_with_targets(n: &Netlist, repr: &[Lit], targets: &[Target]) -> Rebuilt {
    let first = rebuild_once(n, repr, targets);
    // Constant folding during emission can orphan leaves that the initial
    // cone marking (which runs before folding) still considered live; one
    // identity pass removes them and reaches a fixpoint.
    let second = rebuild_once(
        &first.netlist,
        &identity_repr(&first.netlist),
        first.netlist.targets(),
    );
    let map = first
        .map
        .iter()
        .map(|l| l.and_then(|l| second.lit(l)))
        .collect();
    Rebuilt {
        netlist: second.netlist,
        map,
    }
}

fn rebuild_once(n: &Netlist, repr: &[Lit], targets: &[Target]) -> Rebuilt {
    assert_eq!(repr.len(), n.num_gates(), "repr table width mismatch");
    // Compress representative chains: resolve(g) = final (gate, complement).
    let mut resolved: Vec<Lit> = vec![Lit::FALSE; n.num_gates()];
    for g in n.gates() {
        let r = repr[g.index()];
        debug_assert!(
            r.gate().index() <= g.index(),
            "representative of {g} points forward to {r}"
        );
        resolved[g.index()] = if r.gate() == g {
            debug_assert!(!r.is_complement(), "gate {g} is its own complement");
            r
        } else {
            // `r.gate()` is older, hence already resolved.
            resolved[r.gate().index()].xor_complement(r.is_complement())
        };
    }

    // Mark the cone of influence of the remapped targets through the visit
    // layer, following resolved edges only (the raw CSR does not apply to
    // representative-compressed adjacency, so this is the DFS side of the
    // engine with a resolving successor closure).
    let keep = visit::mark_reachable(
        n.num_gates(),
        targets
            .iter()
            .map(|t| resolved[t.lit.gate().index()].gate().index() as u32),
        |v, stack| {
            let g = Gate::from_index(v as usize);
            match n.kind(g) {
                GateKind::And(a, b) => {
                    stack.push(resolved[a.gate().index()].gate().index() as u32);
                    stack.push(resolved[b.gate().index()].gate().index() as u32);
                }
                GateKind::Reg => {
                    stack.push(resolved[n.reg_next(g).gate().index()].gate().index() as u32);
                    if let Init::Fn(l) = n.reg_init(g) {
                        stack.push(resolved[l.gate().index()].gate().index() as u32);
                    }
                }
                GateKind::Const0 | GateKind::Input => {}
            }
        },
    );

    // Emit kept gates in index order. Register next/init functions may point
    // forward, so they are connected in a second pass.
    let mut out = Netlist::new();
    let mut map: Vec<Option<Lit>> = vec![None; n.num_gates()];
    map[Gate::CONST0.index()] = Some(Lit::FALSE);
    for g in n.gates() {
        let r = resolved[g.index()];
        if r.gate() != g {
            // Merged away; translate through the representative (older, so
            // already mapped when in the kept cone).
            map[g.index()] = map[r.gate().index()].map(|l| l.xor_complement(r.is_complement()));
            continue;
        }
        if !keep.get(g.index()) {
            continue;
        }
        match n.kind(g) {
            GateKind::Const0 => {}
            GateKind::Input => {
                let name = n.name(g).unwrap_or("in").to_string();
                map[g.index()] = Some(out.input(name).lit());
            }
            GateKind::Reg => {
                let name = n.name(g).unwrap_or("reg").to_string();
                // Init is connected in the second pass; Fn cones may point at
                // gates not yet emitted.
                let init = match n.reg_init(g) {
                    Init::Fn(_) => Init::Zero,
                    other => other,
                };
                map[g.index()] = Some(out.reg(name, init).lit());
            }
            GateKind::And(a, b) => {
                let ra = resolved[a.gate().index()].xor_complement(a.is_complement());
                let rb = resolved[b.gate().index()].xor_complement(b.is_complement());
                let na = map[ra.gate().index()]
                    .expect("kept AND fanin missing")
                    .xor_complement(ra.is_complement());
                let nb = map[rb.gate().index()]
                    .expect("kept AND fanin missing")
                    .xor_complement(rb.is_complement());
                map[g.index()] = Some(out.and(na, nb));
            }
        }
    }
    // Second pass: connect register next-state and Fn initial values.
    let translate = |map: &[Option<Lit>], l: Lit| -> Lit {
        let r = resolved[l.gate().index()].xor_complement(l.is_complement());
        map[r.gate().index()]
            .expect("kept register fanin missing")
            .xor_complement(r.is_complement())
    };
    for g in n.gates() {
        if resolved[g.index()].gate() != g || !keep.get(g.index()) || !n.is_reg(g) {
            continue;
        }
        let new_reg = map[g.index()].expect("kept register missing").gate();
        out.set_next(new_reg, translate(&map, n.reg_next(g)));
        if let Init::Fn(l) = n.reg_init(g) {
            out.set_init(new_reg, Init::Fn(translate(&map, l)));
        }
    }
    // Targets.
    for t in targets {
        let l = translate(&map, t.lit);
        out.add_target(l, t.name.clone());
    }
    Rebuilt { netlist: out, map }
}

/// The identity representative table for `n` (every gate represents itself).
pub fn identity_repr(n: &Netlist) -> Vec<Lit> {
    n.gates().map(Gate::lit).collect()
}

/// Cone-of-influence reduction: drops every gate outside the targets' cone.
///
/// Per Section 3.1 of the paper this preserves trace equivalence of every
/// vertex in the cone, hence also the diameter of any vertex set in the cone
/// (Theorem 1).
///
/// # Examples
///
/// ```
/// use diam_netlist::{rebuild, Init, Netlist};
///
/// let mut n = Netlist::new();
/// let a = n.input("a");
/// let _dead = n.input("dead");
/// let r = n.reg("r", Init::Zero);
/// n.set_next(r, a.lit());
/// n.add_target(r.lit(), "t");
/// let reduced = rebuild::reduce_coi(&n);
/// assert_eq!(reduced.netlist.num_inputs(), 1);
/// ```
pub fn reduce_coi(n: &Netlist) -> Rebuilt {
    rebuild(n, &identity_repr(n))
}

/// Slices out the cone of influence of target `index` alone.
///
/// The result is a netlist with exactly one target — target `index` of `n` —
/// and only the logic in its cone; the [`Rebuilt::map`] translates old
/// literals into the slice. This is the unit of work for per-target proof
/// orchestration: each slice is an independent, self-contained proof
/// obligation that owns a fresh solver.
///
/// Because the slice is produced by the same deterministic [`rebuild`] used
/// by cone-of-influence reduction, slicing the same `(netlist, index)` pair
/// always yields a structurally identical result regardless of what other
/// targets exist.
///
/// # Panics
///
/// Panics if `index` is out of range for `n.targets()`.
///
/// # Examples
///
/// ```
/// use diam_netlist::{rebuild, Init, Netlist};
///
/// let mut n = Netlist::new();
/// let a = n.input("a");
/// let b = n.input("b");
/// let r = n.reg("r", Init::Zero);
/// n.set_next(r, a.lit());
/// n.add_target(r.lit(), "t0");
/// n.add_target(b.lit(), "t1");
/// let slice = rebuild::slice_target(&n, 1);
/// assert_eq!(slice.netlist.targets().len(), 1);
/// assert_eq!(slice.netlist.targets()[0].name, "t1");
/// assert_eq!(slice.netlist.num_regs(), 0); // r is not in t1's cone
/// ```
pub fn slice_target(n: &Netlist, index: usize) -> Rebuilt {
    // Restricting the target set rather than cloning keeps `n`'s cached CSR
    // warm across the per-target slicing loop and leaves the rebuild map
    // directly old-literal -> slice-literal.
    rebuild_with_targets(
        n,
        &identity_repr(n),
        std::slice::from_ref(&n.targets()[index]),
    )
}

/// Replaces every [`Init::Nondet`] initial value by an explicit fresh primary
/// input (`Init::Fn(new_input)`).
///
/// This is semantics-preserving (the fresh input is read only at time 0) and
/// normalizes netlists so that downstream engines — and co-simulation
/// equivalence tests — only have to deal with deterministic-given-inputs
/// initialization. Returns the created inputs in register order.
pub fn explicit_nondet_init(n: &mut Netlist) -> Vec<(Gate, Gate)> {
    let regs: Vec<Gate> = n.regs().to_vec();
    let mut created = Vec::new();
    for r in regs {
        if n.reg_init(r) == Init::Nondet {
            let name = format!("{}_init", n.name(r).unwrap_or("reg"));
            let i = n.input(name);
            n.set_init(r, Init::Fn(i.lit()));
            created.push((r, i));
        }
    }
    created
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate, SplitMix64, Stimulus};

    #[test]
    fn identity_rebuild_preserves_structure() {
        let mut n = Netlist::new();
        let a = n.input("a").lit();
        let b = n.input("b").lit();
        let x = n.and(a, b);
        let r = n.reg("r", Init::One);
        n.set_next(r, x);
        n.add_target(r.lit(), "t");
        let rb = reduce_coi(&n);
        assert_eq!(rb.netlist.num_inputs(), 2);
        assert_eq!(rb.netlist.num_regs(), 1);
        assert_eq!(rb.netlist.num_ands(), 1);
        rb.netlist.validate().unwrap();
    }

    #[test]
    fn coi_drops_dead_logic() {
        let mut n = Netlist::new();
        let a = n.input("a").lit();
        let dead_in = n.input("dead").lit();
        let _dead_and = n.and(a, dead_in);
        let r = n.reg("r", Init::Zero);
        n.set_next(r, a);
        n.add_target(r.lit(), "t");
        let rb = reduce_coi(&n);
        assert_eq!(rb.netlist.num_inputs(), 1);
        assert_eq!(rb.netlist.num_ands(), 0);
    }

    #[test]
    fn merge_redirects_fanout_and_simplifies() {
        // y = a AND a' where a' is a duplicate input we merge onto a;
        // merging makes y = a.
        let mut n = Netlist::new();
        let a = n.input("a");
        let a2 = n.input("a2");
        let y = n.and(a.lit(), a2.lit());
        let r = n.reg("r", Init::Zero);
        n.set_next(r, y);
        n.add_target(r.lit(), "t");
        let mut repr = identity_repr(&n);
        repr[a2.index()] = a.lit();
        let rb = rebuild(&n, &repr);
        // The AND collapses to a wire; only input a remains.
        assert_eq!(rb.netlist.num_inputs(), 1);
        assert_eq!(rb.netlist.num_ands(), 0);
    }

    #[test]
    fn merge_onto_complement() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let y = n.and(a.lit(), b.lit());
        n.add_target(y, "t");
        let mut repr = identity_repr(&n);
        repr[b.index()] = !a.lit(); // b == ¬a
        let rb = rebuild(&n, &repr);
        // a AND ¬a = false: target collapses to constant.
        assert_eq!(rb.netlist.targets()[0].lit, Lit::FALSE);
    }

    #[test]
    fn rebuild_preserves_simulation_semantics() {
        let mut rng = SplitMix64::new(7);
        let mut n = Netlist::new();
        let a = n.input("a").lit();
        let b = n.input("b").lit();
        let r0 = n.reg("r0", Init::Zero);
        let r1 = n.reg("r1", Init::One);
        let x = n.xor(a, r0.lit());
        let y = n.mux(b, x, r1.lit());
        n.set_next(r0, y);
        n.set_next(r1, x);
        n.add_target(y, "t");
        let rb = reduce_coi(&n);
        let stim = Stimulus::random(&n, 16, &mut rng);
        let t_old = simulate(&n, &stim);
        // Same inputs survive in the same order here.
        let t_new = simulate(&rb.netlist, &stim);
        let new_y = rb.lit(y).unwrap();
        for t in 0..16 {
            assert_eq!(t_old.word(y, t), t_new.word(new_y, t));
        }
    }

    #[test]
    fn slice_target_isolates_cones() {
        let mut n = Netlist::new();
        let a = n.input("a").lit();
        let b = n.input("b").lit();
        let r0 = n.reg("r0", Init::Zero);
        let r1 = n.reg("r1", Init::One);
        n.set_next(r0, a);
        n.set_next(r1, b);
        n.add_target(r0.lit(), "t0");
        n.add_target(r1.lit(), "t1");
        let s0 = slice_target(&n, 0);
        let s1 = slice_target(&n, 1);
        assert_eq!(s0.netlist.targets().len(), 1);
        assert_eq!(s0.netlist.targets()[0].name, "t0");
        assert_eq!(s0.netlist.num_regs(), 1);
        assert_eq!(s0.netlist.num_inputs(), 1);
        // r1/b fall outside t0's cone, and vice versa.
        assert!(s0.lit(r1.lit()).is_none());
        assert!(s0.lit(b).is_none());
        assert!(s1.lit(r0.lit()).is_none());
        assert!(s1.lit(r1.lit()).is_some());
        s0.netlist.validate().unwrap();
        s1.netlist.validate().unwrap();
    }

    #[test]
    fn slice_target_is_deterministic() {
        let mut n = Netlist::new();
        let a = n.input("a").lit();
        let b = n.input("b").lit();
        let x = n.xor(a, b);
        let r = n.reg("r", Init::Zero);
        n.set_next(r, x);
        n.add_target(r.lit(), "t0");
        n.add_target(x, "t1");
        for idx in 0..2 {
            let s1 = slice_target(&n, idx);
            let s2 = slice_target(&n, idx);
            assert_eq!(s1.map, s2.map);
            assert_eq!(s1.netlist.num_gates(), s2.netlist.num_gates());
            assert_eq!(s1.netlist.targets(), s2.netlist.targets());
            for (g1, g2) in s1.netlist.gates().zip(s2.netlist.gates()) {
                assert_eq!(s1.netlist.kind(g1), s2.netlist.kind(g2));
            }
        }
    }

    #[test]
    fn explicit_nondet_init_adds_inputs() {
        let mut n = Netlist::new();
        let r = n.reg("r", Init::Nondet);
        n.set_next(r, r.lit());
        n.add_target(r.lit(), "t");
        let created = explicit_nondet_init(&mut n);
        assert_eq!(created.len(), 1);
        assert!(matches!(n.reg_init(r), Init::Fn(_)));
        n.validate().unwrap();
    }

    #[test]
    fn fn_init_survives_rebuild() {
        let mut n = Netlist::new();
        let i = n.input("i");
        let r = n.reg("r", Init::Fn(!i.lit()));
        n.set_next(r, r.lit());
        n.add_target(r.lit(), "t");
        let rb = reduce_coi(&n);
        let new_r = rb.lit(r.lit()).unwrap().gate();
        assert!(matches!(rb.netlist.reg_init(new_r), Init::Fn(_)));
        rb.netlist.validate().unwrap();
    }
}
