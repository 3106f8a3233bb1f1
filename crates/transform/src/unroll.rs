//! Time-frame expansion of a netlist into a SAT solver (Tseitin encoding).
//!
//! The [`Unroller`] lazily encodes the value of any netlist literal at any
//! time-frame as a SAT literal. Frame-0 register values are either *free*
//! (for inductive reasoning and combinational sweeping, where the state is
//! unconstrained) or *initialized* (for BMC, where initial values apply).
//! Frame `t+1` register values are simply the frame-`t` encoding of the
//! register's next-state function, so consecutive frames share logic.
//!
//! An AND gate gets one variable and the three Tseitin clauses. An XOR gate —
//! the shape [`Netlist::xor_operands`] recognizes, three ANDs — gets one
//! variable and the four XOR clauses over its two operands; its two inner
//! ANDs are encoded only if a caller asks for them, and their ordinary
//! clauses then agree with the XOR's. Every caller shares this one encoder,
//! and solves through [`solve_traced`] and [`inprocess_traced`], which charge
//! each call's SAT work to the recording session.

use diam_netlist::{GateKind, Init, Lit, Netlist};
use diam_sat::{Lit as SatLit, SolveResult, Solver, SolverStats};

/// How frame-0 register values are constrained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameZero {
    /// Registers start in an arbitrary state (each gets a fresh variable).
    /// Used by induction and combinational equivalence reasoning.
    Free,
    /// Registers start in their initial values; `Init::Nondet` gets a fresh
    /// variable and `Init::Fn` cones are encoded over frame-0 inputs.
    Init,
}

/// Incremental Tseitin encoder of a netlist's time-frames.
///
/// # Examples
///
/// ```
/// use diam_netlist::{Init, Netlist};
/// use diam_sat::{SolveResult, Solver};
/// use diam_transform::unroll::{FrameZero, Unroller};
///
/// // A register that toggles: can it be 1 at time 1?
/// let mut n = Netlist::new();
/// let r = n.reg("r", Init::Zero);
/// n.set_next(r, !r.lit());
/// let mut solver = Solver::new();
/// let mut u = Unroller::new(&n, FrameZero::Init);
/// let at1 = u.lit_at(&mut solver, r.lit(), 1);
/// assert_eq!(solver.solve_with(&[at1]), SolveResult::Sat);
/// let at0 = u.lit_at(&mut solver, r.lit(), 0);
/// assert_eq!(solver.solve_with(&[at0]), SolveResult::Unsat);
/// ```
#[derive(Debug)]
pub struct Unroller<'a> {
    n: &'a Netlist,
    mode: FrameZero,
    /// `frames[t][g]` = SAT literal of gate `g` at time `t`.
    frames: Vec<Vec<Option<SatLit>>>,
    const_false: Option<SatLit>,
}

impl<'a> Unroller<'a> {
    /// Creates an unroller for `n` with the given frame-0 policy.
    pub fn new(n: &'a Netlist, mode: FrameZero) -> Unroller<'a> {
        Unroller {
            n,
            mode,
            frames: Vec::new(),
            const_false: None,
        }
    }

    /// The netlist being unrolled.
    pub fn netlist(&self) -> &Netlist {
        self.n
    }

    /// A SAT literal that is constant false.
    pub fn false_lit(&mut self, solver: &mut Solver) -> SatLit {
        if let Some(l) = self.const_false {
            return l;
        }
        let l = solver.new_var().positive();
        solver.add_clause([!l]);
        self.const_false = Some(l);
        l
    }

    fn ensure_frame(&mut self, t: usize) {
        while self.frames.len() <= t {
            self.frames.push(vec![None; self.n.num_gates()]);
            diam_obs::counter_add("unroll.frames", 1);
        }
    }

    /// Returns the SAT literal encoding netlist literal `l` at time `t`,
    /// adding Tseitin clauses to `solver` as needed.
    pub fn lit_at(&mut self, solver: &mut Solver, l: Lit, t: usize) -> SatLit {
        let g = self.gate_at(solver, l.gate(), t);
        if l.is_complement() {
            !g
        } else {
            g
        }
    }

    fn gate_at(&mut self, solver: &mut Solver, root: diam_netlist::Gate, t0: usize) -> SatLit {
        self.ensure_frame(t0);
        if let Some(l) = self.frames[t0][root.index()] {
            return l;
        }
        // Iterative encoding: a work stack of (gate, frame). A node is
        // expanded when first visited and emitted when its children are done.
        let mut stack: Vec<(diam_netlist::Gate, usize, bool)> = vec![(root, t0, false)];
        while let Some((g, t, expanded)) = stack.pop() {
            self.ensure_frame(t);
            if self.frames[t][g.index()].is_some() {
                continue;
            }
            match self.n.kind(g) {
                GateKind::Const0 => {
                    let f = self.false_lit(solver);
                    self.frames[t][g.index()] = Some(f);
                }
                GateKind::Input => {
                    let v = solver.new_var().positive();
                    self.frames[t][g.index()] = Some(v);
                }
                GateKind::And(a, b) => {
                    // An XOR gate is encoded over its operands, skipping the
                    // two ANDs between them.
                    let xor = self.n.xor_operands(g);
                    let (a, b) = xor.unwrap_or((a, b));
                    if !expanded {
                        stack.push((g, t, true));
                        stack.push((a.gate(), t, false));
                        stack.push((b.gate(), t, false));
                    } else {
                        let la = self.resolved(a, t);
                        let lb = self.resolved(b, t);
                        let v = solver.new_var().positive();
                        if xor.is_some() {
                            solver.add_clause([!v, la, lb]);
                            solver.add_clause([!v, !la, !lb]);
                            solver.add_clause([v, !la, lb]);
                            solver.add_clause([v, la, !lb]);
                        } else {
                            solver.add_clause([!v, la]);
                            solver.add_clause([!v, lb]);
                            solver.add_clause([v, !la, !lb]);
                        }
                        self.frames[t][g.index()] = Some(v);
                    }
                }
                GateKind::Reg => {
                    if t == 0 {
                        match self.mode {
                            FrameZero::Free => {
                                let v = solver.new_var().positive();
                                self.frames[0][g.index()] = Some(v);
                            }
                            FrameZero::Init => match self.n.reg_init(g) {
                                Init::Zero => {
                                    let f = self.false_lit(solver);
                                    self.frames[0][g.index()] = Some(f);
                                }
                                Init::One => {
                                    let f = self.false_lit(solver);
                                    self.frames[0][g.index()] = Some(!f);
                                }
                                Init::Nondet => {
                                    let v = solver.new_var().positive();
                                    self.frames[0][g.index()] = Some(v);
                                }
                                Init::Fn(l) => {
                                    if !expanded {
                                        stack.push((g, 0, true));
                                        stack.push((l.gate(), 0, false));
                                    } else {
                                        let enc = self.resolved(l, 0);
                                        self.frames[0][g.index()] = Some(enc);
                                    }
                                }
                            },
                        }
                    } else {
                        let next = self.n.reg_next(g);
                        if !expanded {
                            stack.push((g, t, true));
                            stack.push((next.gate(), t - 1, false));
                        } else {
                            let enc = self.resolved(next, t - 1);
                            self.frames[t][g.index()] = Some(enc);
                        }
                    }
                }
            }
        }
        self.frames[t0][root.index()].expect("root encoded")
    }

    fn resolved(&self, l: Lit, t: usize) -> SatLit {
        let v = self.frames[t][l.gate().index()].expect("child encoded before parent");
        if l.is_complement() {
            !v
        } else {
            v
        }
    }

    /// The SAT literal already assigned to `l` at `t`, if encoded.
    pub fn try_lit_at(&self, l: Lit, t: usize) -> Option<SatLit> {
        let row = self.frames.get(t)?;
        row[l.gate().index()].map(|v| if l.is_complement() { !v } else { v })
    }
}

/// `solve_with` plus observability: when a session records, the per-call
/// [`SolverStats`] delta is charged to the current thread (so the enclosing
/// span carries its SAT counters on close), counted in the `sat.*` metrics
/// and the `sat.lbd` histogram, and returned; `None` when nothing records.
pub fn solve_traced(
    solver: &mut Solver,
    assumptions: &[SatLit],
) -> (SolveResult, Option<SolverStats>) {
    if !diam_obs::enabled() {
        return (solver.solve_with(assumptions), None);
    }
    let before = *solver.stats_ref();
    let r = solver.solve_with(assumptions);
    let d = solver.stats_ref().delta_since(&before);
    diam_obs::charge_sat(d.conflicts, d.decisions, d.propagations);
    diam_obs::charge_sat_gc(d.gc_runs, d.gc_freed_bytes, d.arena_bytes);
    for (i, &n) in d.lbd_hist.iter().enumerate() {
        diam_obs::histogram_record_n("sat.lbd", (i + 1) as u64, n);
    }
    (r, Some(d))
}

/// [`Solver::inprocess`] plus observability: arena-GC work performed at the
/// level-0 boundary is charged to the open spans and the `sat.arena_bytes`
/// gauge is refreshed.
pub fn inprocess_traced(solver: &mut Solver) {
    if !diam_obs::enabled() {
        solver.inprocess();
        return;
    }
    let before = *solver.stats_ref();
    solver.inprocess();
    let d = solver.stats_ref().delta_since(&before);
    diam_obs::charge_sat_gc(d.gc_runs, d.gc_freed_bytes, d.arena_bytes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use diam_netlist::sim::{simulate, SplitMix64, Stimulus};
    use diam_netlist::{Gate, Init, Netlist};
    use diam_sat::SolveResult;
    use proptest::prelude::*;

    #[test]
    fn free_mode_leaves_state_unconstrained() {
        let mut n = Netlist::new();
        let r = n.reg("r", Init::Zero);
        n.set_next(r, r.lit());
        let mut solver = Solver::new();
        let mut u = Unroller::new(&n, FrameZero::Free);
        let at0 = u.lit_at(&mut solver, r.lit(), 0);
        // In free mode the register may be 1 at time 0 despite Init::Zero.
        assert_eq!(solver.solve_with(&[at0]), SolveResult::Sat);
    }

    #[test]
    fn init_mode_applies_initial_values() {
        let mut n = Netlist::new();
        let r0 = n.reg("zero", Init::Zero);
        let r1 = n.reg("one", Init::One);
        n.set_next(r0, r0.lit());
        n.set_next(r1, r1.lit());
        let mut solver = Solver::new();
        let mut u = Unroller::new(&n, FrameZero::Init);
        let a = u.lit_at(&mut solver, r0.lit(), 0);
        let b = u.lit_at(&mut solver, r1.lit(), 0);
        assert_eq!(solver.solve_with(&[a]), SolveResult::Unsat);
        assert_eq!(solver.solve_with(&[!b]), SolveResult::Unsat);
    }

    #[test]
    fn fn_init_encodes_cone_over_time_zero_inputs() {
        let mut n = Netlist::new();
        let i = n.input("i");
        let r = n.reg("r", Init::Fn(!i.lit()));
        n.set_next(r, r.lit());
        let mut solver = Solver::new();
        let mut u = Unroller::new(&n, FrameZero::Init);
        let r0 = u.lit_at(&mut solver, r.lit(), 0);
        let i0 = u.lit_at(&mut solver, i.lit(), 0);
        // r at time 0 must equal ¬i at time 0.
        assert_eq!(solver.solve_with(&[r0, i0]), SolveResult::Unsat);
        assert_eq!(solver.solve_with(&[!r0, !i0]), SolveResult::Unsat);
        assert_eq!(solver.solve_with(&[r0, !i0]), SolveResult::Sat);
    }

    #[test]
    fn counter_reaches_three_at_step_three() {
        // 2-bit counter; target: value == 3.
        let mut n = Netlist::new();
        let b0 = n.reg("b0", Init::Zero);
        let b1 = n.reg("b1", Init::Zero);
        let n0 = !b0.lit();
        let n1 = n.xor(b1.lit(), b0.lit());
        n.set_next(b0, n0);
        n.set_next(b1, n1);
        let both = n.and(b0.lit(), b1.lit());
        let mut solver = Solver::new();
        let mut u = Unroller::new(&n, FrameZero::Init);
        for t in 0..3 {
            let l = u.lit_at(&mut solver, both, t);
            assert_eq!(solver.solve_with(&[l]), SolveResult::Unsat, "t={t}");
        }
        let l3 = u.lit_at(&mut solver, both, 3);
        assert_eq!(solver.solve_with(&[l3]), SolveResult::Sat);
    }

    /// A random netlist over `inputs` inputs and `regs` registers with
    /// every [`Init`] kind (`Fn` cones over inputs only), `gates` random
    /// `xor`/`xnor`/`mux`/`and` results, and random next-state functions.
    fn random_netlist(rng: &mut SplitMix64, inputs: usize, regs: usize, gates: usize) -> Netlist {
        let mut n = Netlist::new();
        let mut pool: Vec<Lit> = (0..inputs)
            .map(|k| n.input(format!("i{k}")).lit())
            .collect();
        let regs: Vec<Gate> = (0..regs)
            .map(|k| n.reg(format!("r{k}"), Init::Zero))
            .collect();
        let pick = |rng: &mut SplitMix64, pool: &[Lit]| {
            pool[rng.below(pool.len() as u64) as usize].xor_complement(rng.bool())
        };
        // Input-only gates first, so `Init::Fn` has cones to pick from.
        for k in 0..gates {
            if k == gates / 3 {
                for &r in &regs {
                    let init = match rng.below(4) {
                        0 => Init::Zero,
                        1 => Init::One,
                        2 => Init::Nondet,
                        _ => Init::Fn(pick(rng, &pool)),
                    };
                    n.set_init(r, init);
                }
                pool.extend(regs.iter().map(|r| r.lit()));
            }
            let (a, b, c) = (pick(rng, &pool), pick(rng, &pool), pick(rng, &pool));
            let l = match rng.below(4) {
                0 => n.xor(a, b),
                1 => n.xnor(a, b),
                2 => n.mux(a, b, c),
                _ => n.and(a, b),
            };
            pool.push(l);
        }
        for &r in &regs {
            let next = pick(rng, &pool);
            n.set_next(r, next);
        }
        n
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// With the inputs of every frame and the frame-0 registers fixed by
        /// unit clauses to a simulated trace, every requested gate literal
        /// is forced to its simulated value, whatever order the gates are
        /// requested in — an XOR's two ANDs before, after or without it.
        #[test]
        fn encoding_agrees_with_simulation(
            seed in any::<u64>(),
            inputs in 1usize..4,
            regs in 0usize..4,
            gates in 1usize..32,
            depth in 0usize..5,
            free in any::<bool>(),
        ) {
            let mut rng = SplitMix64::new(seed);
            let n = random_netlist(&mut rng, inputs, regs, gates);
            n.validate().expect("generated netlists validate");
            let trace = simulate(&n, &Stimulus::random(&n, depth + 1, &mut rng));
            let mode = if free { FrameZero::Free } else { FrameZero::Init };
            let mut solver = Solver::new();
            let mut u = Unroller::new(&n, mode);
            let mut requests: Vec<(Gate, usize)> = (0..=depth)
                .flat_map(|t| n.gates().map(move |g| (g, t)))
                .filter(|_| rng.below(4) != 0)
                .collect();
            for i in (1..requests.len()).rev() {
                requests.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let encoded: Vec<(Lit, usize, SatLit)> = requests
                .iter()
                .map(|&(g, t)| {
                    let l = g.lit().xor_complement(rng.bool());
                    (l, t, u.lit_at(&mut solver, l, t))
                })
                .collect();
            let fixed = (0..=depth)
                .flat_map(|t| n.inputs().iter().map(move |&i| (i, t)))
                .chain(n.regs().iter().map(|&r| (r, 0)));
            for (g, t) in fixed {
                let l = u.lit_at(&mut solver, g.lit(), t);
                solver.add_clause([if trace.value(g.lit(), t, 0) { l } else { !l }]);
            }
            prop_assert_eq!(solver.solve(), SolveResult::Sat);
            for &(l, t, sat) in &encoded {
                prop_assert_eq!(solver.value(sat), Some(trace.value(l, t, 0)), "{} at time {}", l, t);
            }
            for &(l, t, sat) in &encoded {
                let other = if trace.value(l, t, 0) { !sat } else { sat };
                prop_assert_eq!(solver.solve_with(&[other]), SolveResult::Unsat, "{} at time {}", l, t);
            }
        }
    }

    #[test]
    fn an_xor_costs_one_variable() {
        let mut n = Netlist::new();
        let a = n.input("a").lit();
        let b = n.input("b").lit();
        let x = n.xor(a, b);
        let mut solver = Solver::new();
        let mut u = Unroller::new(&n, FrameZero::Free);
        let (la, lb) = (u.lit_at(&mut solver, a, 0), u.lit_at(&mut solver, b, 0));
        let vars_before = solver.num_vars();
        let lx = u.lit_at(&mut solver, x, 0);
        assert_eq!(solver.num_vars(), vars_before + 1);
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let fix = |l: SatLit, v: bool| if v { l } else { !l };
            let wrong = fix(lx, va == vb);
            assert_eq!(
                solver.solve_with(&[fix(la, va), fix(lb, vb), wrong]),
                SolveResult::Unsat
            );
        }
    }

    #[test]
    fn shared_logic_is_encoded_once() {
        let mut n = Netlist::new();
        let a = n.input("a").lit();
        let b = n.input("b").lit();
        let x = n.and(a, b);
        let mut solver = Solver::new();
        let mut u = Unroller::new(&n, FrameZero::Free);
        let l1 = u.lit_at(&mut solver, x, 0);
        let vars_before = solver.num_vars();
        let l2 = u.lit_at(&mut solver, x, 0);
        assert_eq!(l1, l2);
        assert_eq!(solver.num_vars(), vars_before);
    }
}
