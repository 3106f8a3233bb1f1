//! The netlist data structure (Definition 1 of the paper).
//!
//! A [`Netlist`] is a directed graph of typed gates: the constant, primary
//! inputs, two-input AND gates with complementable edges, and registers.
//! Safety properties are expressed as *targets* — literals that must never
//! evaluate to 1 in any trace (`AG ¬t`).
//!
//! AND gates are structurally hashed by [`Netlist::and`], so trivially
//! redundant logic is never created. The structural-hash index is built on
//! the first `and` call: a netlist that is only read, such as one loaded
//! from AIGER and then analysed, never builds it, and cloning such a netlist
//! copies an empty map. Registers carry an initial-value
//! *function* ([`Init`]): besides the usual constant and nondeterministic
//! resets this allows an arbitrary combinational cone over primary inputs,
//! which is how the retiming engine expresses its *retiming stump* (Section
//! 3.2 of the paper) and how parametric re-encoding rewrites reset logic.

use crate::csr::Csr;
use crate::{Gate, Lit};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The initial-value specification of a register.
///
/// `Fn(lit)` designates a combinational function over primary inputs,
/// evaluated once using the input values of time-step 0; registers must not
/// appear in the cone of an `Fn` initial value (checked by
/// [`Netlist::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Init {
    /// Reset to 0.
    Zero,
    /// Reset to 1.
    One,
    /// Nondeterministic initial value (an implicit fresh input).
    Nondet,
    /// Initial value computed by a combinational cone over primary inputs.
    Fn(Lit),
}

impl Init {
    /// Complements the initial value (used when a register is merged onto the
    /// complement of another literal).
    #[must_use]
    pub fn complement(self) -> Init {
        match self {
            Init::Zero => Init::One,
            Init::One => Init::Zero,
            Init::Nondet => Init::Nondet,
            Init::Fn(l) => Init::Fn(!l),
        }
    }
}

/// The semantic type of a gate (the function `G` of Definition 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateKind {
    /// The constant-false gate (gate 0 of every netlist).
    Const0,
    /// A primary input: an unconstrained, nondeterministic bit per time-step.
    Input,
    /// A two-input AND over possibly-complemented literals.
    And(Lit, Lit),
    /// A register; its next-state function and initial value are stored with
    /// the gate and read via [`Netlist::reg_next`] / [`Netlist::reg_init`].
    Reg,
}

#[derive(Debug, Clone)]
struct GateData {
    kind: GateKind,
    /// For `Reg` gates: next-state function (defaults to constant 0 until
    /// [`Netlist::set_next`] is called) and initial value.
    next: Lit,
    init: Init,
}

/// A named safety target: the property `AG ¬lit`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Target {
    /// The literal that must never be asserted.
    pub lit: Lit,
    /// Human-readable name, used in reports.
    pub name: String,
}

/// An and-inverter-graph netlist with registers and safety targets.
///
/// # Examples
///
/// Build a 1-bit toggle register and ask whether it can reach 1:
///
/// ```
/// use diam_netlist::{Init, Netlist};
///
/// let mut n = Netlist::new();
/// let t = n.reg("toggle", Init::Zero);
/// let next = !t.lit();              // invert every cycle
/// n.set_next(t, next);
/// n.add_target(t.lit(), "toggle_high");
/// assert_eq!(n.num_regs(), 1);
/// n.validate().unwrap();
/// ```
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    gates: Vec<GateData>,
    inputs: Vec<Gate>,
    regs: Vec<Gate>,
    targets: Vec<Target>,
    names: HashMap<Gate, String>,
    /// Structural-hash index: the AND gates of `gates[..strashed]`, keyed by
    /// their canonical operand pair. [`Netlist::and`] extends it over the
    /// rest of the table before its lookup.
    strash: HashMap<(Lit, Lit), Gate>,
    strashed: usize,
    /// Lazily built CSR adjacency (see [`Netlist::csr`]); cleared by every
    /// structural mutation. Cloning a netlist shares the cached `Arc`.
    csr: OnceLock<Arc<Csr>>,
}

/// Error returned by [`Netlist::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateNetlistError {
    /// A gate literal references a gate index that does not exist.
    DanglingLit { gate: Gate, lit: Lit },
    /// The cone of a register's `Init::Fn` initial value contains a register.
    SequentialInitCone { reg: Gate, through: Gate },
    /// A target references a gate index that does not exist.
    DanglingTarget { name: String, lit: Lit },
    /// An AND gate references a gate created after it (would break the
    /// topological-by-construction invariant).
    ForwardReference { gate: Gate, lit: Lit },
}

impl fmt::Display for ValidateNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateNetlistError::DanglingLit { gate, lit } => {
                write!(f, "gate {gate} references nonexistent literal {lit}")
            }
            ValidateNetlistError::SequentialInitCone { reg, through } => write!(
                f,
                "initial-value cone of register {reg} passes through register {through}"
            ),
            ValidateNetlistError::DanglingTarget { name, lit } => {
                write!(f, "target {name:?} references nonexistent literal {lit}")
            }
            ValidateNetlistError::ForwardReference { gate, lit } => {
                write!(f, "AND gate {gate} references later gate {lit}")
            }
        }
    }
}

impl std::error::Error for ValidateNetlistError {}

impl Netlist {
    /// Creates an empty netlist containing only the constant gate.
    pub fn new() -> Netlist {
        Netlist {
            gates: vec![GateData {
                kind: GateKind::Const0,
                next: Lit::FALSE,
                init: Init::Zero,
            }],
            inputs: Vec::new(),
            regs: Vec::new(),
            targets: Vec::new(),
            names: HashMap::new(),
            strash: HashMap::new(),
            strashed: 0,
            csr: OnceLock::new(),
        }
    }

    fn push(&mut self, data: GateData) -> Gate {
        self.csr.take();
        let g = Gate::from_index(self.gates.len());
        self.gates.push(data);
        g
    }

    /// The cached CSR adjacency of this netlist, built on first access.
    ///
    /// **Invalidation contract:** every structural mutation — gate creation,
    /// [`set_next`](Netlist::set_next), [`set_init`](Netlist::set_init),
    /// [`add_target`](Netlist::add_target),
    /// [`clear_targets`](Netlist::clear_targets) — clears the cache, so the
    /// returned CSR always describes the current structure. Debug builds
    /// check this on every access: the CSR's recorded
    /// [`stats::fingerprint`](crate::stats::fingerprint) must equal that of
    /// `self`. Debug-name changes do not invalidate. Concurrent first
    /// accesses race benignly: one builder wins, the rest share its `Arc`.
    pub fn csr(&self) -> &Csr {
        let csr = self.csr.get_or_init(|| Arc::new(Csr::build(self)));
        #[cfg(debug_assertions)]
        assert_eq!(
            csr.fingerprint(),
            crate::stats::fingerprint(self),
            "cached CSR is stale: a structural mutation missed invalidation"
        );
        csr
    }

    /// Adds a primary input.
    pub fn input(&mut self, name: impl Into<String>) -> Gate {
        let g = self.unnamed_input();
        self.names.insert(g, name.into());
        g
    }

    /// Adds a primary input without a debug name.
    pub(crate) fn unnamed_input(&mut self) -> Gate {
        let g = self.push(GateData {
            kind: GateKind::Input,
            next: Lit::FALSE,
            init: Init::Zero,
        });
        self.inputs.push(g);
        g
    }

    /// Adds a register with the given initial value. Its next-state function
    /// defaults to constant 0 until [`set_next`](Netlist::set_next) is called.
    pub fn reg(&mut self, name: impl Into<String>, init: Init) -> Gate {
        let g = self.unnamed_reg(init);
        self.names.insert(g, name.into());
        g
    }

    /// Adds a register without a debug name.
    pub(crate) fn unnamed_reg(&mut self, init: Init) -> Gate {
        let g = self.push(GateData {
            kind: GateKind::Reg,
            next: Lit::FALSE,
            init,
        });
        self.regs.push(g);
        g
    }

    /// Sets the next-state function of register `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a register.
    pub fn set_next(&mut self, r: Gate, next: Lit) {
        assert_eq!(
            self.gates[r.index()].kind,
            GateKind::Reg,
            "set_next on non-register {r}"
        );
        self.csr.take();
        self.gates[r.index()].next = next;
    }

    /// Replaces the initial value of register `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a register.
    pub fn set_init(&mut self, r: Gate, init: Init) {
        assert_eq!(
            self.gates[r.index()].kind,
            GateKind::Reg,
            "set_init on non-register {r}"
        );
        self.csr.take();
        self.gates[r.index()].init = init;
    }

    /// Creates (or reuses) the AND of two literals.
    ///
    /// Structural hashing and local simplification are applied: constants are
    /// folded, `x ∧ x = x`, `x ∧ ¬x = 0`, and operand order is canonicalized,
    /// so equal cones built twice share gates. The first call indexes every
    /// AND gate already in the netlist; later calls index only what was
    /// added since.
    pub fn and(&mut self, a: Lit, b: Lit) -> Lit {
        // Local simplification rules.
        if a == Lit::FALSE || b == Lit::FALSE || a == !b {
            return Lit::FALSE;
        }
        if a == Lit::TRUE || a == b {
            return b;
        }
        if b == Lit::TRUE {
            return a;
        }
        let (a, b) = if a.code() <= b.code() { (a, b) } else { (b, a) };
        // Index the gates created since the last call: all of a netlist's
        // ANDs on the first call, none or a few inputs and registers later.
        for (k, gate) in self.gates.iter().enumerate().skip(self.strashed) {
            if let GateKind::And(x, y) = gate.kind {
                self.strash.entry((x, y)).or_insert(Gate::from_index(k));
            }
        }
        self.strashed = self.gates.len();
        if let Some(&g) = self.strash.get(&(a, b)) {
            return g.lit();
        }
        let g = self.append_and(a, b);
        self.strash.insert((a, b), g);
        self.strashed = self.gates.len();
        g.lit()
    }

    /// Appends `And(a, b)` without consulting the structural-hash index. The
    /// caller has checked what [`and`](Netlist::and) would: `a` and `b` are
    /// existing, non-constant literals over two different gates, in
    /// canonical order, and no AND gate has these operands yet.
    pub(crate) fn append_and(&mut self, a: Lit, b: Lit) -> Gate {
        debug_assert!(
            !a.is_const() && a.gate() < b.gate() && b.gate().index() < self.gates.len(),
            "append_and({a}, {b}) is not a canonical fresh AND"
        );
        self.push(GateData {
            kind: GateKind::And(a, b),
            next: Lit::FALSE,
            init: Init::Zero,
        })
    }

    /// The OR of two literals (lowered to AND/inverters).
    pub fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    /// The XOR of two literals.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let p = self.and(a, !b);
        let q = self.and(!a, b);
        self.or(p, q)
    }

    /// The XNOR (equivalence) of two literals.
    pub fn xnor(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor(a, b)
    }

    /// Recognizes the shape [`xor`](Netlist::xor) and
    /// [`xnor`](Netlist::xnor) build: `g = And(¬P, ¬Q)` with `P = And(u, v)`
    /// and `Q = And(¬u, ¬v)`, so that `g ≡ u ⊕ v`. Returns `(u, v)`, the
    /// operands of `P`; `None` for every other gate.
    pub fn xor_operands(&self, g: Gate) -> Option<(Lit, Lit)> {
        let GateKind::And(p, q) = self.kind(g) else {
            return None;
        };
        if !p.is_complement() || !q.is_complement() {
            return None;
        }
        let (GateKind::And(u, v), GateKind::And(nu, nv)) =
            (self.kind(p.gate()), self.kind(q.gate()))
        else {
            return None;
        };
        (nu == !u && nv == !v).then_some((u, v))
    }

    /// `if s then t else e`.
    pub fn mux(&mut self, s: Lit, t: Lit, e: Lit) -> Lit {
        let p = self.and(s, t);
        let q = self.and(!s, e);
        self.or(p, q)
    }

    /// The implication `a → b`.
    pub fn implies(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(a, !b)
    }

    /// Conjunction of an arbitrary set of literals as a balanced tree.
    pub fn and_many<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> Lit {
        let mut layer: Vec<Lit> = lits.into_iter().collect();
        if layer.is_empty() {
            return Lit::TRUE;
        }
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len() / 2 + 1);
            for pair in layer.chunks(2) {
                next.push(if pair.len() == 2 {
                    self.and(pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            layer = next;
        }
        layer[0]
    }

    /// Disjunction of an arbitrary set of literals as a balanced tree.
    pub fn or_many<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> Lit {
        let inv: Vec<Lit> = lits.into_iter().map(|l| !l).collect();
        !self.and_many(inv)
    }

    /// Bitwise equality of two equal-length words.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn eq_word(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        assert_eq!(a.len(), b.len(), "eq_word on mismatched widths");
        let bits: Vec<Lit> = a.iter().zip(b).map(|(&x, &y)| self.xnor(x, y)).collect();
        self.and_many(bits)
    }

    /// Registers a safety target `AG ¬lit`.
    pub fn add_target(&mut self, lit: Lit, name: impl Into<String>) -> usize {
        self.csr.take();
        self.targets.push(Target {
            lit,
            name: name.into(),
        });
        self.targets.len() - 1
    }

    /// Removes all targets (used by engines that rewrite the target list).
    pub fn clear_targets(&mut self) {
        self.csr.take();
        self.targets.clear();
    }

    /// Attaches a debug name to an arbitrary gate.
    pub fn set_name(&mut self, g: Gate, name: impl Into<String>) {
        self.names.insert(g, name.into());
    }

    /// The debug name of a gate, if any.
    pub fn name(&self, g: Gate) -> Option<&str> {
        self.names.get(&g).map(String::as_str)
    }

    /// The kind of gate `g`.
    #[inline]
    pub fn kind(&self, g: Gate) -> GateKind {
        self.gates[g.index()].kind
    }

    /// The next-state function of register `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a register.
    #[inline]
    pub fn reg_next(&self, r: Gate) -> Lit {
        debug_assert_eq!(self.gates[r.index()].kind, GateKind::Reg);
        self.gates[r.index()].next
    }

    /// The initial value of register `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is not a register.
    #[inline]
    pub fn reg_init(&self, r: Gate) -> Init {
        debug_assert_eq!(self.gates[r.index()].kind, GateKind::Reg);
        self.gates[r.index()].init
    }

    /// Whether gate `g` is a register.
    #[inline]
    pub fn is_reg(&self, g: Gate) -> bool {
        matches!(self.gates[g.index()].kind, GateKind::Reg)
    }

    /// Whether gate `g` is a primary input.
    #[inline]
    pub fn is_input(&self, g: Gate) -> bool {
        matches!(self.gates[g.index()].kind, GateKind::Input)
    }

    /// Number of gates, including the constant.
    #[inline]
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of primary inputs.
    #[inline]
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Number of registers.
    #[inline]
    pub fn num_regs(&self) -> usize {
        self.regs.len()
    }

    /// Number of AND gates.
    pub fn num_ands(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| matches!(g.kind, GateKind::And(..)))
            .count()
    }

    /// The primary inputs, in creation order.
    #[inline]
    pub fn inputs(&self) -> &[Gate] {
        &self.inputs
    }

    /// The registers, in creation order.
    #[inline]
    pub fn regs(&self) -> &[Gate] {
        &self.regs
    }

    /// The safety targets.
    #[inline]
    pub fn targets(&self) -> &[Target] {
        &self.targets
    }

    /// Iterates over all gate handles in index (topological) order.
    pub fn gates(&self) -> impl Iterator<Item = Gate> + '_ {
        (0..self.gates.len()).map(Gate::from_index)
    }

    /// Checks the structural invariants of the netlist.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant: dangling literals, forward
    /// references from AND gates, or a register inside an `Init::Fn` cone.
    pub fn validate(&self) -> Result<(), ValidateNetlistError> {
        let n = self.gates.len();
        let check = |lit: Lit, gate: Gate| -> Result<(), ValidateNetlistError> {
            if lit.gate().index() >= n {
                Err(ValidateNetlistError::DanglingLit { gate, lit })
            } else {
                Ok(())
            }
        };
        for g in self.gates() {
            match self.kind(g) {
                GateKind::And(a, b) => {
                    check(a, g)?;
                    check(b, g)?;
                    for l in [a, b] {
                        if l.gate().index() >= g.index() {
                            return Err(ValidateNetlistError::ForwardReference { gate: g, lit: l });
                        }
                    }
                }
                GateKind::Reg => {
                    check(self.reg_next(g), g)?;
                    if let Init::Fn(l) = self.reg_init(g) {
                        check(l, g)?;
                        // The init cone must be purely combinational.
                        if let Some(bad) = self.find_reg_in_cone(l) {
                            return Err(ValidateNetlistError::SequentialInitCone {
                                reg: g,
                                through: bad,
                            });
                        }
                    }
                }
                GateKind::Const0 | GateKind::Input => {}
            }
        }
        for t in &self.targets {
            if t.lit.gate().index() >= n {
                return Err(ValidateNetlistError::DanglingTarget {
                    name: t.name.clone(),
                    lit: t.lit,
                });
            }
        }
        Ok(())
    }

    /// Depth-first search of the combinational cone of `root` for a register.
    fn find_reg_in_cone(&self, root: Lit) -> Option<Gate> {
        let mut stack = vec![root.gate()];
        let mut seen = vec![false; self.gates.len()];
        while let Some(g) = stack.pop() {
            if seen[g.index()] {
                continue;
            }
            seen[g.index()] = true;
            match self.kind(g) {
                GateKind::Reg => return Some(g),
                GateKind::And(a, b) => {
                    stack.push(a.gate());
                    stack.push(b.gate());
                }
                GateKind::Const0 | GateKind::Input => {}
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_gate_exists() {
        let n = Netlist::new();
        assert_eq!(n.num_gates(), 1);
        assert_eq!(n.kind(Gate::CONST0), GateKind::Const0);
    }

    #[test]
    fn and_simplification_rules() {
        let mut n = Netlist::new();
        let a = n.input("a").lit();
        assert_eq!(n.and(a, Lit::FALSE), Lit::FALSE);
        assert_eq!(n.and(Lit::TRUE, a), a);
        assert_eq!(n.and(a, a), a);
        assert_eq!(n.and(a, !a), Lit::FALSE);
    }

    #[test]
    fn structural_hashing_reuses_gates() {
        let mut n = Netlist::new();
        let a = n.input("a").lit();
        let b = n.input("b").lit();
        let x = n.and(a, b);
        let y = n.and(b, a);
        assert_eq!(x, y);
        assert_eq!(n.num_ands(), 1);
    }

    #[test]
    fn or_xor_mux_lower_to_ands() {
        let mut n = Netlist::new();
        let a = n.input("a").lit();
        let b = n.input("b").lit();
        let s = n.input("s").lit();
        let _ = n.or(a, b);
        let _ = n.xor(a, b);
        let _ = n.mux(s, a, b);
        assert!(n.num_ands() > 0);
        n.validate().unwrap();
    }

    #[test]
    fn xor_operands_recognizes_exactly_what_it_claims() {
        use crate::sim::{simulate, SplitMix64, Stimulus};
        for seed in 0..64 {
            let mut rng = SplitMix64::new(seed);
            let mut n = Netlist::new();
            let mut pool: Vec<Lit> = (0..2 + rng.below(3))
                .map(|k| n.input(format!("i{k}")).lit())
                .collect();
            let regs: Vec<Gate> = (0..rng.below(4))
                .map(|k| {
                    let init = [Init::Zero, Init::One, Init::Nondet][rng.below(3) as usize];
                    n.reg(format!("r{k}"), init)
                })
                .collect();
            pool.extend(regs.iter().map(|r| r.lit()));
            for _ in 0..24 {
                let mut pick = || pool[rng.below(pool.len() as u64) as usize];
                let (a, b, c) = (pick(), pick(), pick());
                let l = match rng.below(4) {
                    k @ (0 | 1) => {
                        let x = if k == 0 { n.xor(a, b) } else { n.xnor(a, b) };
                        // Constant operands and operands over one gate fold
                        // away inside `and`; every other result is recognized.
                        if !a.is_const() && !b.is_const() && a.gate() != b.gate() {
                            assert!(n.xor_operands(x.gate()).is_some(), "seed {seed}");
                        }
                        x
                    }
                    2 => n.mux(a, b, c),
                    _ => n.and(a, b),
                };
                pool.push(l.xor_complement(rng.bool()));
            }
            for &r in &regs {
                let next = pool[rng.below(pool.len() as u64) as usize];
                n.set_next(r, next);
            }
            let stim = Stimulus::random(&n, 4, &mut rng);
            let trace = simulate(&n, &stim);
            for g in n.gates() {
                if let Some((u, v)) = n.xor_operands(g) {
                    for t in 0..4 {
                        assert_eq!(
                            trace.word(g.lit(), t),
                            trace.word(u, t) ^ trace.word(v, t),
                            "seed {seed}: gate {g} at time {t}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn and_many_empty_is_true() {
        let mut n = Netlist::new();
        assert_eq!(n.and_many([]), Lit::TRUE);
        assert_eq!(n.or_many([]), Lit::FALSE);
    }

    #[test]
    fn validate_rejects_sequential_init_cone() {
        let mut n = Netlist::new();
        let r = n.reg("r", Init::Zero);
        n.set_next(r, r.lit());
        let r2 = n.reg("r2", Init::Fn(r.lit()));
        n.set_next(r2, r2.lit());
        assert!(matches!(
            n.validate(),
            Err(ValidateNetlistError::SequentialInitCone { .. })
        ));
    }

    #[test]
    fn register_round_trip() {
        let mut n = Netlist::new();
        let i = n.input("i").lit();
        let r = n.reg("r", Init::One);
        n.set_next(r, i);
        assert_eq!(n.reg_next(r), i);
        assert_eq!(n.reg_init(r), Init::One);
        assert!(n.is_reg(r));
        assert!(!n.is_reg(i.gate()));
        n.validate().unwrap();
    }

    #[test]
    fn init_complement() {
        assert_eq!(Init::Zero.complement(), Init::One);
        assert_eq!(Init::Nondet.complement(), Init::Nondet);
        let l = Gate::from_index(2).lit();
        assert_eq!(Init::Fn(l).complement(), Init::Fn(!l));
    }
}
