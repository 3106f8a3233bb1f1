//! Symbolic (BDD-based) forward reachability — the classic unbounded engine
//! the paper positions BMC against. It is the portfolio's exact fallback
//! when a target's diameter bound is too large for complete BMC, and a
//! reference oracle for medium-sized designs beyond the explicit-state
//! exploration limit.
//!
//! Breadth-first *onion rings* `R_0 = I`, `R_{k+1} = img(R_k) \ (R_0 ∪ … ∪
//! R_k)` reach a fixpoint after exactly the initial-state eccentricity many
//! steps (for `Init::Fn` registers see below), so the ring count (+1,
//! Definition 3 convention) is the *exact* "diameter from initial states"
//! the paper notes suffices for property checking — every sound structural
//! bound over the same cone must dominate it. The first ring that meets the
//! target is its exact earliest hit `d`.
//! For a hit, a second pass of `d` image steps rebuilds the rings `R_0..R_d`
//! and walks back through them: a state of `R_d` that hits the target, then
//! for each earlier ring a state (and inputs) stepping to the one picked
//! after it. The picks form a [`Witness`] that replays on the simulator.
//! Only hits pay for the rings; a target that is never hit costs one
//! fixpoint.
//!
//! Time 0 is exact. As in the simulator and the BMC unrolling, an
//! [`Init::Fn`] register takes its reset cone's value under the same time-0
//! inputs that drive frame 0's logic, so `R_0` is the initial relation over
//! state *and* inputs: the depth-0 hit test, the first image and the walk's
//! last step all see consistent pairs. An initial state that exists only
//! under some time-0 inputs is not marked reached by `R_0` — revisited
//! later, with free inputs, it may hit the target or step where time 0 did
//! not let it — so it joins the ring of its first later visit. (States that
//! are initial under every time-0 input gain nothing from a revisit; without
//! `Init::Fn` registers every initial state is one.)

use diam_bdd::{Bdd, Manager};
use diam_netlist::analysis::{coi, Coi};
use diam_netlist::sim::Witness;
use diam_netlist::{Gate, Init, Lit, Netlist};
use diam_transform::bridge::cone_to_bdd;
use std::collections::HashMap;
use std::fmt;

/// Limits for the symbolic engine.
#[derive(Debug, Clone)]
pub struct SymbolicLimits {
    /// Abort when the BDD manager exceeds this many nodes.
    pub max_nodes: usize,
    /// Abort after this many image steps.
    pub max_steps: u64,
}

impl Default for SymbolicLimits {
    fn default() -> SymbolicLimits {
        SymbolicLimits {
            max_nodes: 2_000_000,
            max_steps: 10_000,
        }
    }
}

/// Error returned by the symbolic engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SymbolicError {
    /// The BDDs exceeded the node budget.
    NodeBudget {
        /// Nodes at the point of failure.
        nodes: usize,
    },
    /// The step limit was reached before the fixpoint.
    StepBudget,
}

impl fmt::Display for SymbolicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SymbolicError::NodeBudget { nodes } => {
                write!(f, "bdd node budget exceeded ({nodes} nodes)")
            }
            SymbolicError::StepBudget => write!(f, "symbolic step budget exceeded"),
        }
    }
}

impl std::error::Error for SymbolicError {}

/// The result of a symbolic reachability run over one target's cone.
#[derive(Debug, Clone)]
pub struct SymbolicReach {
    /// Earliest time the target can be hit (`None` = unreachable — a proof).
    pub earliest_hit: Option<u64>,
    /// A counterexample for the earliest hit: `earliest_hit + 1` input rows
    /// over the whole netlist that replay to the target
    /// ([`Witness::replays_to`]). `Some` exactly when `earliest_hit` is.
    pub witness: Option<Witness>,
    /// The number of image steps to the reachability fixpoint, plus one: no
    /// target over the cone is first hit at or beyond it. Without
    /// [`Init::Fn`] registers in the cone this is the exact initial-state
    /// eccentricity, +1 (Definition 3 convention).
    pub eccentricity: u64,
    /// Reachable states in the cone (counted over its registers).
    pub reachable_states: f64,
}

/// Runs BDD-based forward reachability on the cone of target `index`; a
/// hit comes with a witness walked back through the onion rings (see the
/// module docs). Opens one `symbolic.reach` span (`index`, `regs`; on close
/// `steps`, `earliest` or `outcome`, and the peak manager `nodes`).
///
/// # Errors
///
/// Fails when the node or step budget is exhausted (see [`SymbolicError`]).
pub fn reach(
    n: &Netlist,
    index: usize,
    limits: &SymbolicLimits,
) -> Result<SymbolicReach, SymbolicError> {
    let target = n.targets()[index].lit;
    let cone = coi(n, [target]);
    let mut sp = diam_obs::span!(
        "symbolic.reach",
        index = index,
        regs = cone.regs.len() as u64
    );
    let mut sys = System::new(limits.max_nodes);
    let result = sys.reach(n, target, &cone, limits.max_steps);
    sp.record("steps", sys.steps);
    match &result {
        Ok(SymbolicReach {
            earliest_hit: Some(d),
            ..
        }) => sp.record("earliest", *d),
        Ok(_) => sp.record("outcome", "unreachable"),
        Err(SymbolicError::NodeBudget { .. }) => sp.record("outcome", "node_budget"),
        Err(SymbolicError::StepBudget) => sp.record("outcome", "step_budget"),
    }
    sp.record("nodes", sys.peak_nodes as u64);
    result
}

/// One time step of a walk back through the rings: the values of the cone's
/// registers and of its inputs, in cone order.
type Pick = (Vec<bool>, Vec<bool>);

/// One cone's transition system in one BDD manager.
///
/// Variable order: current and primed state interleaved (cone register `j`
/// at `2j`, its primed copy at `2j + 1` — essential to keep
/// shift-register-like transition relations linear), inputs at the end.
struct System {
    m: Manager,
    max_nodes: usize,
    /// Most nodes the manager has held.
    peak_nodes: usize,
    /// Image steps of the forward fixpoint so far.
    steps: u64,
    num_regs: u32,
    /// The cone's inputs, as BDD variables.
    input_vars: Vec<u32>,
    /// What an image quantifies: current state and inputs.
    current_and_inputs: Vec<u32>,
    /// Primed variable ↦ its current-state variable.
    unprime: HashMap<u32, Bdd>,
    /// `∧_j (s'_j ↔ δ_j(s, i))`.
    trans: Bdd,
    /// The initial relation over state and time-0 inputs.
    init: Bdd,
    /// The target over state and inputs.
    target: Bdd,
}

impl System {
    fn new(max_nodes: usize) -> System {
        System {
            m: Manager::new(),
            max_nodes,
            peak_nodes: 0,
            steps: 0,
            num_regs: 0,
            input_vars: Vec::new(),
            current_and_inputs: Vec::new(),
            unprime: HashMap::new(),
            trans: Bdd::TRUE,
            init: Bdd::TRUE,
            target: Bdd::FALSE,
        }
    }

    /// Encodes the cone, runs the fixpoint, and for a hit rebuilds the
    /// rings up to it and walks back through them.
    fn reach(
        &mut self,
        n: &Netlist,
        target: Lit,
        cone: &Coi,
        max_steps: u64,
    ) -> Result<SymbolicReach, SymbolicError> {
        self.encode(n, target, cone)?;
        let (earliest_hit, reachable_states) = self.fixpoint(max_steps)?;
        let witness = match earliest_hit {
            Some(d) => {
                let rings = self.rings(d)?;
                Some(witness(n, cone, &self.walk(rings)?))
            }
            None => None,
        };
        Ok(SymbolicReach {
            earliest_hit,
            witness,
            eccentricity: self.steps + 1,
            reachable_states,
        })
    }

    fn check(&mut self) -> Result<(), SymbolicError> {
        let nodes = self.m.num_nodes();
        self.peak_nodes = self.peak_nodes.max(nodes);
        if nodes > self.max_nodes {
            Err(SymbolicError::NodeBudget { nodes })
        } else {
            Ok(())
        }
    }

    fn encode(&mut self, n: &Netlist, target: Lit, cone: &Coi) -> Result<(), SymbolicError> {
        self.num_regs = cone.regs.len() as u32;
        let mut var_of_gate: HashMap<Gate, u32> = HashMap::new();
        for (j, &r) in cone.regs.iter().enumerate() {
            var_of_gate.insert(r, 2 * j as u32);
        }
        let input_base = 2 * self.num_regs;
        for (k, &i) in cone.inputs.iter().enumerate() {
            var_of_gate.insert(i, input_base + k as u32);
        }
        let var_of = |g: Gate| var_of_gate.get(&g).copied();
        self.input_vars = (0..cone.inputs.len() as u32)
            .map(|k| input_base + k)
            .collect();
        self.current_and_inputs = (0..self.num_regs).map(|j| 2 * j).collect();
        self.current_and_inputs.extend(&self.input_vars);
        for j in 0..self.num_regs {
            let v = self.m.var(2 * j);
            self.unprime.insert(2 * j + 1, v);
        }

        // The transition relation, one next-state function at a time.
        for (j, &r) in cone.regs.iter().enumerate() {
            let delta = cone_to_bdd(&mut self.m, n, n.reg_next(r), &var_of);
            let next = self.m.var(2 * j as u32 + 1);
            let eq = self.m.xnor(next, delta);
            self.trans = self.m.and(self.trans, eq);
            self.check()?;
        }
        self.target = cone_to_bdd(&mut self.m, n, target, &var_of);
        // Initial states, with `Init::Fn` registers tied to the time-0
        // inputs they are computed from.
        for (j, &r) in cone.regs.iter().enumerate() {
            let v = self.m.var(2 * j as u32);
            let constraint = match n.reg_init(r) {
                Init::Zero => self.m.not(v),
                Init::One => v,
                Init::Nondet => Bdd::TRUE,
                Init::Fn(l) => {
                    let f = cone_to_bdd(&mut self.m, n, l, &var_of);
                    self.m.xnor(v, f)
                }
            };
            self.init = self.m.and(self.init, constraint);
            self.check()?;
        }
        Ok(())
    }

    /// `R_0` and the reached set it starts: the states initial under every
    /// time-0 input (see the module docs).
    fn start(&mut self) -> (Bdd, Bdd) {
        let reached = self.m.forall(self.init, &self.input_vars);
        (self.init, reached)
    }

    /// The next ring: states one image step from `ring` not yet `reached`.
    fn next_ring(&mut self, ring: Bdd, reached: Bdd) -> Result<Bdd, SymbolicError> {
        let img_primed = self
            .m
            .and_exists(ring, self.trans, &self.current_and_inputs);
        self.check()?;
        let img = self.m.compose(img_primed, &self.unprime);
        Ok(self.m.diff(img, reached))
    }

    /// Whether growth dominates the manager: the arena-style manager never
    /// frees nodes, so long runs [`compact`](System::compact) it
    /// periodically.
    fn crowded(&self) -> bool {
        self.m.num_nodes() > 64 * 1024
    }

    /// Re-roots the live functions — the system's own plus `live` — into a
    /// fresh manager.
    fn compact(&mut self, live: &mut [&mut Bdd]) {
        let mut roots = vec![self.trans, self.init, self.target];
        roots.extend((0..self.num_regs).map(|j| self.unprime[&(2 * j + 1)]));
        roots.extend(live.iter().map(|f| **f));
        let (m, new_roots) = self.m.compact(&roots);
        self.m = m;
        let mut new_roots = new_roots.into_iter();
        let mut next = || new_roots.next().expect("one new root per root");
        self.trans = next();
        self.init = next();
        self.target = next();
        for j in 0..self.num_regs {
            self.unprime.insert(2 * j + 1, next());
        }
        for f in live.iter_mut() {
            **f = next();
        }
    }

    /// The forward fixpoint: the earliest ring meeting the target, and the
    /// reachable state count.
    fn fixpoint(&mut self, max_steps: u64) -> Result<(Option<u64>, f64), SymbolicError> {
        let (mut frontier, mut reached) = self.start();
        let mut initial = self.m.exists(self.init, &self.input_vars);
        let mut earliest: Option<u64> = None;
        loop {
            if earliest.is_none() && self.m.and(frontier, self.target) != Bdd::FALSE {
                earliest = Some(self.steps);
            }
            if self.steps >= max_steps {
                return Err(SymbolicError::StepBudget);
            }
            let new = self.next_ring(frontier, reached)?;
            if new == Bdd::FALSE {
                break;
            }
            reached = self.m.or(reached, new);
            frontier = new;
            self.steps += 1;
            self.check()?;
            if self.crowded() {
                self.compact(&mut [&mut reached, &mut frontier, &mut initial]);
            }
        }
        // `reached` is over the even (current-state) variables; count
        // assignments over them by halving the all-variables count.
        let all = self.m.or(reached, initial);
        let total = self.m.sat_count(all, 2 * self.num_regs);
        Ok((earliest, total / (2f64).powi(self.num_regs as i32)))
    }

    /// The rings `R_0..=R_d`, rebuilt by `d` steps of the fixpoint.
    fn rings(&mut self, d: u64) -> Result<Vec<Bdd>, SymbolicError> {
        let (ring, mut reached) = self.start();
        let mut rings = vec![ring];
        for k in 0..d as usize {
            let new = self.next_ring(rings[k], reached)?;
            reached = self.m.or(reached, new);
            rings.push(new);
            self.check()?;
            if self.crowded() {
                let mut live: Vec<&mut Bdd> = rings.iter_mut().collect();
                live.push(&mut reached);
                self.compact(&mut live);
            }
        }
        Ok(rings)
    }

    /// Walks back from the target through `rings`: per time step, the
    /// picked state (by cone register) and inputs (by cone input).
    /// Don't-care variables take 0.
    fn walk(&mut self, mut rings: Vec<Bdd>) -> Result<Vec<Pick>, SymbolicError> {
        let input_base = 2 * self.num_regs;
        let mut picks = Vec::with_capacity(rings.len());
        let mut goal = self.target;
        while let Some(ring) = rings.pop() {
            let here = self.m.and(ring, goal);
            let cube = self
                .m
                .any_cube(here)
                .expect("every ring state is reached from the ring before it");
            let mut state = vec![false; self.num_regs as usize];
            let mut inputs = vec![false; self.input_vars.len()];
            for (v, value) in cube {
                if v >= input_base {
                    inputs[(v - input_base) as usize] = value;
                } else {
                    debug_assert!(v % 2 == 0, "rings and picks are over current state");
                    state[(v / 2) as usize] = value;
                }
            }
            // The previous step must land exactly on this state.
            let primed: HashMap<u32, Bdd> = state
                .iter()
                .enumerate()
                .map(|(j, &b)| (2 * j as u32 + 1, if b { Bdd::TRUE } else { Bdd::FALSE }))
                .collect();
            goal = self.m.compose(self.trans, &primed);
            picks.push((state, inputs));
            self.check()?;
            if self.crowded() {
                let mut live: Vec<&mut Bdd> = rings.iter_mut().collect();
                live.push(&mut goal);
                self.compact(&mut live);
            }
        }
        picks.reverse();
        Ok(picks)
    }
}

/// The witness of a walk's picks on the whole netlist: cone inputs take the
/// picked values, `Nondet` cone registers their picked time-0 state, and
/// everything outside the cone 0.
fn witness(n: &Netlist, cone: &Coi, picks: &[Pick]) -> Witness {
    // Cone inputs and registers, by their position in the whole netlist
    // (the cone lists them in netlist order).
    let input_pos: Vec<usize> = (0..n.num_inputs())
        .filter(|&p| cone.contains(n.inputs()[p]))
        .collect();
    let reg_pos: Vec<usize> = (0..n.num_regs())
        .filter(|&p| cone.contains(n.regs()[p]))
        .collect();
    let inputs = picks
        .iter()
        .map(|(_, values)| {
            let mut row = vec![false; n.num_inputs()];
            for (&p, &b) in input_pos.iter().zip(values) {
                row[p] = b;
            }
            row
        })
        .collect();
    let mut nondet_init = vec![false; n.num_regs()];
    for (&p, &b) in reg_pos.iter().zip(&picks[0].0) {
        if n.reg_init(n.regs()[p]) == Init::Nondet {
            nondet_init[p] = b;
        }
    }
    Witness {
        inputs,
        nondet_init,
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops mirror the math here
mod tests {
    use super::*;
    use crate::bound::Bound;
    use diam_netlist::Netlist;

    /// Asserts `r`'s witness matches its earliest hit: one input row per
    /// time step `0..=d`, replaying to target `index` of `n`.
    fn assert_witness(n: &Netlist, index: usize, r: &SymbolicReach) {
        match (r.earliest_hit, &r.witness) {
            (None, None) => {}
            (Some(d), Some(w)) => {
                assert_eq!(w.inputs.len() as u64, d + 1, "one row per step");
                assert!(w.inputs.iter().all(|row| row.len() == n.num_inputs()));
                assert_eq!(w.nondet_init.len(), n.num_regs());
                assert!(w.replays_to(n, n.targets()[index].lit), "hit at {d}");
            }
            (d, w) => panic!("earliest hit {d:?} with witness {w:?}"),
        }
    }

    #[test]
    fn counter_reachability_is_exact() {
        let mut n = Netlist::new();
        let b: Vec<Gate> = (0..4).map(|k| n.reg(format!("b{k}"), Init::Zero)).collect();
        let mut carry = Lit::TRUE;
        for r in &b {
            let nk = n.xor(r.lit(), carry);
            carry = n.and(r.lit(), carry);
            n.set_next(*r, nk);
        }
        let lits: Vec<Lit> = b.iter().map(|r| r.lit()).collect();
        let t = n.and_many(lits);
        n.add_target(t, "all_ones");
        let r = reach(&n, 0, &SymbolicLimits::default()).unwrap();
        assert_eq!(r.earliest_hit, Some(15));
        assert_eq!(r.eccentricity, 16);
        assert_eq!(r.reachable_states as u64, 16);
        assert_witness(&n, 0, &r);
    }

    #[test]
    fn unreachable_target_is_a_proof() {
        let mut n = Netlist::new();
        let i = n.input("i");
        let a = n.reg("a", Init::Zero);
        let b = n.reg("b", Init::Zero);
        n.set_next(a, i.lit());
        n.set_next(b, i.lit());
        let t = n.xor(a.lit(), b.lit());
        n.add_target(t, "differ");
        let r = reach(&n, 0, &SymbolicLimits::default()).unwrap();
        assert_eq!(r.earliest_hit, None);
        assert_eq!(r.reachable_states as u64, 2);
        assert_witness(&n, 0, &r);
    }

    #[test]
    fn matches_explicit_exploration() {
        use crate::exact::{explore, ExploreLimits};
        use diam_netlist::sim::SplitMix64;
        let mut rng = SplitMix64::new(0x5e1f);
        for round in 0..10 {
            let mut n = Netlist::new();
            let mut pool: Vec<Lit> = (0..2).map(|k| n.input(format!("i{k}")).lit()).collect();
            let mut regs = Vec::new();
            for k in 0..4 {
                let init = match rng.below(3) {
                    0 => Init::Zero,
                    1 => Init::One,
                    _ => Init::Nondet,
                };
                let r = n.reg(format!("r{k}"), init);
                regs.push(r);
                pool.push(r.lit());
            }
            for _ in 0..8 {
                let a = pool[rng.below(pool.len() as u64) as usize];
                let b = pool[rng.below(pool.len() as u64) as usize];
                pool.push(match rng.below(3) {
                    0 => n.and(a, b),
                    1 => n.or(a, b),
                    _ => n.xor(a, b),
                });
            }
            for &r in &regs {
                let nx = pool[rng.below(pool.len() as u64) as usize];
                n.set_next(r, nx);
            }
            n.add_target(*pool.last().unwrap(), "t");
            let explicit = explore(&n, &ExploreLimits::default()).unwrap();
            let symbolic = reach(&n, 0, &SymbolicLimits::default()).unwrap();
            assert_eq!(
                symbolic.earliest_hit, explicit.earliest_hit[0],
                "round {round}: earliest hit"
            );
            assert_witness(&n, 0, &symbolic);
            // Explicit exploration explores the whole netlist; restrict the
            // comparison to designs where the cone covers all registers.
            let cone = diam_netlist::analysis::coi(&n, [n.targets()[0].lit]);
            if cone.regs.len() == n.num_regs() {
                assert_eq!(
                    symbolic.eccentricity,
                    explicit.eccentricity + 1,
                    "round {round}: eccentricity"
                );
                assert_eq!(
                    symbolic.reachable_states as u64, explicit.reachable_states,
                    "round {round}: state count"
                );
            }
        }
    }

    #[test]
    fn medium_design_beyond_explicit_limits() {
        // 24 registers — explicit exploration refuses, symbolic handles it.
        let mut n = Netlist::new();
        let i = n.input("i");
        let mut prev = i.lit();
        for k in 0..24 {
            let r = n.reg(format!("s{k}"), Init::Zero);
            n.set_next(r, prev);
            prev = r.lit();
        }
        n.add_target(prev, "tail");
        assert!(crate::exact::explore(&n, &crate::exact::ExploreLimits::default()).is_err());
        let r = reach(&n, 0, &SymbolicLimits::default()).unwrap();
        assert_eq!(r.earliest_hit, Some(24));
        assert_eq!(r.eccentricity, 25);
        assert_witness(&n, 0, &r);
        // The structural bound is exactly tight here.
        let tb = crate::structural::diameter_bound(
            &n,
            n.targets()[0].lit,
            &crate::structural::StructuralOptions::default(),
        );
        assert_eq!(tb.bound, Bound::Finite(25));
    }

    #[test]
    fn time_zero_pairs_init_fn_registers_with_the_frame_zero_inputs() {
        // `r` loads the time-0 input, then `i ∧ ¬r`: it is 0 at time 1
        // (`i_0 ∧ ¬i_0`) and can be 1 from time 2. `s` is 0 at time 0 and 1
        // afterwards, so `r ∧ s` first holds at time 2. Pairing initial
        // states with fresh time-0 inputs would let time 1 see `r = 1`.
        let mut n = Netlist::new();
        let i = n.input("i").lit();
        let r = n.reg("r", Init::Fn(i));
        let nr = n.and(i, !r.lit());
        n.set_next(r, nr);
        let s = n.reg("s", Init::Zero);
        n.set_next(s, Lit::TRUE);
        let t = n.and(r.lit(), s.lit());
        n.add_target(t, "r_and_s");
        let r = reach(&n, 0, &SymbolicLimits::default()).unwrap();
        assert_eq!(r.earliest_hit, Some(2));
        assert_witness(&n, 0, &r);
    }

    #[test]
    fn input_dependent_initial_states_are_revisited() {
        // `r` holds the time-0 input forever; the target `r ∧ ¬i` is
        // unsatisfiable at time 0 (`r = i_0`) but holds at time 1 after
        // `i_0 = 1, i_1 = 0` — in the initial state `r = 1`, revisited.
        // Marking every initial state reached at time 0 would miss the hit
        // and call the target unreachable.
        let mut n = Netlist::new();
        let i = n.input("i").lit();
        let r = n.reg("r", Init::Fn(i));
        n.set_next(r, r.lit());
        let t = n.and(r.lit(), !i);
        n.add_target(t, "r_not_i");
        let r = reach(&n, 0, &SymbolicLimits::default()).unwrap();
        assert_eq!(r.earliest_hit, Some(1));
        assert_witness(&n, 0, &r);
        assert_eq!(r.reachable_states as u64, 2);
    }

    #[test]
    fn budgets_are_respected() {
        let mut n = Netlist::new();
        let b: Vec<Gate> = (0..8).map(|k| n.reg(format!("b{k}"), Init::Zero)).collect();
        let mut carry = Lit::TRUE;
        for r in &b {
            let nk = n.xor(r.lit(), carry);
            carry = n.and(r.lit(), carry);
            n.set_next(*r, nk);
        }
        n.add_target(b[7].lit(), "t");
        let r = reach(
            &n,
            0,
            &SymbolicLimits {
                max_steps: 5,
                ..Default::default()
            },
        );
        assert!(matches!(r, Err(SymbolicError::StepBudget)));
    }
}
