//! Explicit-state graph enumeration for small register components — the
//! substrate of the eccentricity engine ([`crate::eccentricity`]).
//!
//! Given a set of registers (typically one general-circuit SCC from
//! [`crate::classify`]), the builder enumerates the component's reachable
//! state graph by simulating the component's next-state cone word-parallel,
//! as `sim.rs` does, over a cone-local plan. One combinational fanin BFS
//! over the cached [`diam_netlist::csr::Csr`] from the next-state roots
//! yields the cone's AND gates and its leaves. The ANDs, sorted by gate
//! index (the CSR `and_plan` order, hence topological), are compiled once
//! onto a compact frame: slot 0 holds constant false, then come the
//! component registers, the free signals and the cone ANDs. Every sweep
//! then costs the cone, not the netlist; the frame length is recorded as
//! `slots` on the `ecc.enumerate` span.
//!
//! Everything outside the component — primary inputs in the cone and
//! registers of *other* components feeding it — is a **free signal**: the X
//! leaves of a ternary view of the cone. Instead of propagating X
//! symbolically, the builder concretizes it exhaustively, 64 assignments per
//! sweep in the word-parallel style of `exact.rs`, which keeps the successor
//! relation exact (every ternary completion is some concrete assignment).
//!
//! Initial states overapproximate: `Init::Nondet` **and** `Init::Fn` bits
//! take both values (`Fn` cones may depend on time-0 inputs the component
//! does not control). Overapproximation is sound for diameter purposes: the
//! reachable set is successor-closed, so extra initial states only add
//! vertices and ordered pairs — shortest distances between existing pairs
//! never shrink, and the pairwise diameter is monotone in the state set.
//!
//! Determinism contract: state ids are assigned in BFS discovery order with
//! each state's successor batch sorted by packed value before id assignment,
//! so the graph — and everything the sweep engine derives from it — is
//! identical across runs.

use diam_netlist::csr::NodeKind;
use diam_netlist::visit::{self, Dir, Expand, Neighbors};
use diam_netlist::{Gate, GateKind, Init, Lit, Netlist};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Enumeration budgets. Exceeding any of them makes [`StateGraph::build`]
/// decline (return `None`) so the caller falls back to the blanket
/// `2^|regs|` bound — budgets affect performance, never soundness.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateGraphLimits {
    /// Maximum component register count (packed-state width). Hard-capped
    /// at 26 regardless of the configured value.
    pub max_regs: usize,
    /// Maximum free-signal count: each state costs `2^free / 64` sweeps.
    pub max_free: usize,
    /// Total sweep-batch budget across the whole enumeration.
    pub max_batches: u64,
}

impl Default for StateGraphLimits {
    fn default() -> StateGraphLimits {
        StateGraphLimits {
            max_regs: 16,
            max_free: 10,
            max_batches: 1 << 22,
        }
    }
}

/// The reachable state graph of one register component: packed states,
/// forward/backward adjacency in CSR form, and the initial-state prefix.
#[derive(Debug, Clone)]
pub struct StateGraph {
    regs: Vec<Gate>,
    free: Vec<Gate>,
    /// Packed state per id. Bit `j` is the value of `regs[j]`.
    states: Vec<u32>,
    /// Ids `0..num_inits` are the (overapproximated) initial states.
    num_inits: usize,
    fwd_off: Vec<u32>,
    fwd: Vec<u32>,
    bwd_off: Vec<u32>,
    bwd: Vec<u32>,
}

/// Forward-edge view of a [`StateGraph`] for [`visit::bfs_graph`].
pub struct ForwardView<'a>(&'a StateGraph);

/// Backward-edge view of a [`StateGraph`] for [`visit::bfs_graph`].
pub struct BackwardView<'a>(&'a StateGraph);

impl Neighbors for ForwardView<'_> {
    fn num_nodes(&self) -> usize {
        self.0.num_states()
    }
    fn neighbors(&self, v: u32) -> &[u32] {
        self.0.succs(v)
    }
}

impl Neighbors for BackwardView<'_> {
    fn num_nodes(&self) -> usize {
        self.0.num_states()
    }
    fn neighbors(&self, v: u32) -> &[u32] {
        self.0.preds(v)
    }
}

impl StateGraph {
    /// Number of reachable states.
    #[inline]
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Number of distinct transition edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.fwd.len()
    }

    /// Number of initial states (ids `0..num_inits`).
    #[inline]
    pub fn num_inits(&self) -> usize {
        self.num_inits
    }

    /// The component registers, sorted; bit `j` of a packed state is the
    /// value of `regs()[j]`.
    #[inline]
    pub fn regs(&self) -> &[Gate] {
        &self.regs
    }

    /// The free signals (cone inputs plus out-of-component registers).
    #[inline]
    pub fn free(&self) -> &[Gate] {
        &self.free
    }

    /// Packed state value of id `v`.
    #[inline]
    pub fn state(&self, v: u32) -> u32 {
        self.states[v as usize]
    }

    /// Successor ids of state `v`, sorted ascending.
    #[inline]
    pub fn succs(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.fwd[self.fwd_off[v] as usize..self.fwd_off[v + 1] as usize]
    }

    /// Predecessor ids of state `v`, sorted ascending.
    #[inline]
    pub fn preds(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.bwd[self.bwd_off[v] as usize..self.bwd_off[v + 1] as usize]
    }

    /// Forward-edge [`Neighbors`] view.
    #[inline]
    pub fn forward(&self) -> ForwardView<'_> {
        ForwardView(self)
    }

    /// Backward-edge [`Neighbors`] view.
    #[inline]
    pub fn backward(&self) -> BackwardView<'_> {
        BackwardView(self)
    }

    /// Enumerates the reachable state graph of the component `comp` (a set
    /// of registers of `n`), or `None` if the component exceeds a limit:
    /// too many registers, too many free signals, or the sweep-batch budget.
    ///
    /// Opens an `ecc.enumerate` obs span recording `regs`/`free`/`slots`
    /// (the compact frame length) on entry and `states`/`edges` on close.
    pub fn build(n: &Netlist, comp: &[Gate], limits: &StateGraphLimits) -> Option<StateGraph> {
        let mut regs: Vec<Gate> = comp.to_vec();
        regs.sort();
        regs.dedup();
        if regs.is_empty() || regs.len() > limits.max_regs.min(26) {
            return None;
        }
        let csr = n.csr();
        for &r in &regs {
            if csr.kind(r.index() as u32) != NodeKind::Reg {
                return None;
            }
        }
        let next_lits: Vec<Lit> = regs.iter().map(|&r| n.reg_next(r)).collect();

        // One combinational fanin BFS from the next-state roots: its ANDs
        // are the cone, and its leaves other than the constant and the
        // component's own registers are the free signals.
        let cone = visit::bfs(
            csr,
            Dir::Fanin,
            Expand::Combinational,
            next_lits.iter().map(|l| l.gate().index() as u32),
        );
        let mut free: Vec<Gate> = Vec::new();
        let mut ands: Vec<Gate> = Vec::new();
        for &v in &cone.order {
            let g = Gate::from_index(v as usize);
            match csr.kind(v) {
                NodeKind::And => ands.push(g),
                NodeKind::Input => free.push(g),
                NodeKind::Reg if regs.binary_search(&g).is_err() => free.push(g),
                NodeKind::Reg | NodeKind::Const0 => {}
            }
        }
        if free.len() > limits.max_free {
            return None;
        }
        free.sort_unstable();
        // Gate-index order is `and_plan` order, hence topological.
        ands.sort_unstable();

        // The compact frame: slot 0 is constant false, then the component
        // registers, the free signals and the cone's ANDs.
        let first_free = 1 + regs.len();
        let first_and = first_free + free.len();
        let slot_of: HashMap<Gate, u32> = regs
            .iter()
            .chain(&free)
            .chain(&ands)
            .enumerate()
            .map(|(k, &g)| (g, 1 + k as u32))
            .chain([(Gate::CONST0, 0)])
            .collect();
        let code = |l: Lit| slot_of[&l.gate()] << 1 | l.is_complement() as u32;
        let plan: Vec<(u32, u32)> = ands
            .iter()
            .map(|&g| match n.kind(g) {
                GateKind::And(a, b) => (code(a), code(b)),
                _ => unreachable!("cone ANDs are AND gates"),
            })
            .collect();
        let next_codes: Vec<u32> = next_lits.iter().map(|&l| code(l)).collect();
        let slots = first_and + plan.len();

        let mut span = diam_obs::span!(
            "ecc.enumerate",
            regs = regs.len() as u64,
            free = free.len() as u64,
            slots = slots as u64,
        );

        // Initial states: Zero/One are fixed; Nondet and Fn bits take both
        // values (see module docs for why overapproximating is sound).
        let mut inits: Vec<u32> = vec![0];
        for (j, &r) in regs.iter().enumerate() {
            match n.reg_init(r) {
                Init::Zero => {}
                Init::One => {
                    for s in &mut inits {
                        *s |= 1 << j;
                    }
                }
                Init::Nondet | Init::Fn(_) => {
                    let with: Vec<u32> = inits.iter().map(|&s| s | 1 << j).collect();
                    inits.extend(with);
                }
            }
        }
        inits.sort_unstable();
        inits.dedup();

        let mut states: Vec<u32> = inits.clone();
        let mut id_of: HashMap<u32, u32> = states
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i as u32))
            .collect();
        let num_inits = states.len();

        let mut frame = vec![0u64; slots];
        let combos: u64 = 1u64 << free.len();
        let mut batches: u64 = 0;
        let mut succ_lists: Vec<Vec<u32>> = Vec::with_capacity(states.len());
        let mut head = 0usize;
        while head < states.len() {
            let s = states[head];
            head += 1;
            let mut out: Vec<u32> = Vec::with_capacity(combos as usize);
            let mut combo = 0u64;
            while combo < combos {
                let batch = (combos - combo).min(64) as usize;
                batches += 1;
                if batches > limits.max_batches {
                    span.record("aborted", "budget");
                    return None;
                }
                for j in 0..regs.len() {
                    frame[1 + j] = if (s >> j) & 1 == 1 { !0u64 } else { 0 };
                }
                for k in 0..free.len() {
                    let mut w = 0u64;
                    for b in 0..batch {
                        if ((combo + b as u64) >> k) & 1 == 1 {
                            w |= 1u64 << b;
                        }
                    }
                    frame[first_free + k] = w;
                }
                for (i, &(a, b)) in plan.iter().enumerate() {
                    frame[first_and + i] = eval_code(&frame, a) & eval_code(&frame, b);
                }
                for b in 0..batch {
                    let mut t: u32 = 0;
                    for (j, &c) in next_codes.iter().enumerate() {
                        t |= (((eval_code(&frame, c) >> b) & 1) as u32) << j;
                    }
                    out.push(t);
                }
                combo += batch as u64;
            }
            out.sort_unstable();
            out.dedup();
            let mut succ_ids: Vec<u32> = Vec::with_capacity(out.len());
            for t in out {
                let id = match id_of.entry(t) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        let id = states.len() as u32;
                        states.push(t);
                        e.insert(id);
                        id
                    }
                };
                succ_ids.push(id);
            }
            succ_ids.sort_unstable();
            succ_lists.push(succ_ids);
        }

        let nv = states.len();
        let (fwd_off, fwd, bwd_off, bwd) = flatten_csr(&succ_lists);

        span.record("states", nv as u64);
        span.record("edges", fwd.len() as u64);
        Some(StateGraph {
            regs,
            free,
            states,
            num_inits,
            fwd_off,
            fwd,
            bwd_off,
            bwd,
        })
    }

    /// Builds a bare graph directly from an edge list: vertices are
    /// `0..num_states` with `state(v) == v`, no registers or free signals,
    /// and every vertex counted as initial. This is the harness entry
    /// point for tests and benches that exercise the sweep engine on
    /// hand-shaped graphs the netlist generators rarely produce (e.g. a
    /// branch vertex feeding both a clique and a long chain).
    pub fn from_edges(num_states: usize, edges: &[(u32, u32)]) -> StateGraph {
        let mut succ_lists: Vec<Vec<u32>> = vec![Vec::new(); num_states];
        for &(src, dst) in edges {
            succ_lists[src as usize].push(dst);
        }
        for l in &mut succ_lists {
            l.sort_unstable();
            l.dedup();
        }
        let (fwd_off, fwd, bwd_off, bwd) = flatten_csr(&succ_lists);
        StateGraph {
            regs: Vec::new(),
            free: Vec::new(),
            states: (0..num_states as u32).collect(),
            num_inits: num_states,
            fwd_off,
            fwd,
            bwd_off,
            bwd,
        }
    }
}

/// Flattens per-vertex successor lists (each sorted ascending) into
/// forward and backward CSR arrays. Sources within each predecessor list
/// arrive in ascending order by construction, so `bwd` comes out sorted
/// per node.
fn flatten_csr(succ_lists: &[Vec<u32>]) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>) {
    let nv = succ_lists.len();
    let mut fwd_off: Vec<u32> = Vec::with_capacity(nv + 1);
    fwd_off.push(0);
    let mut fwd: Vec<u32> = Vec::new();
    for l in succ_lists {
        fwd.extend_from_slice(l);
        fwd_off.push(fwd.len() as u32);
    }
    let mut deg = vec![0u32; nv];
    for &t in &fwd {
        deg[t as usize] += 1;
    }
    let mut bwd_off: Vec<u32> = Vec::with_capacity(nv + 1);
    bwd_off.push(0);
    for d in &deg {
        bwd_off.push(bwd_off.last().unwrap() + d);
    }
    let mut cursor = bwd_off[..nv].to_vec();
    let mut bwd = vec![0u32; fwd.len()];
    for (v, l) in succ_lists.iter().enumerate() {
        for &t in l {
            bwd[cursor[t as usize] as usize] = v as u32;
            cursor[t as usize] += 1;
        }
    }
    (fwd_off, fwd, bwd_off, bwd)
}

#[inline]
fn eval_code(row: &[u64], code: u32) -> u64 {
    let v = row[(code >> 1) as usize];
    if code & 1 != 0 {
        !v
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diam_netlist::analysis::support;
    use diam_netlist::csr::AndStep;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use std::collections::BTreeSet;

    fn limits() -> StateGraphLimits {
        StateGraphLimits::default()
    }

    /// The netlist-sized builder the compact frame replaced, kept as the
    /// differential oracle: one `support()` traversal per register for the
    /// free signals, the whole `and_plan` filtered to the cone, and a frame
    /// with one word per netlist gate.
    fn dense_reference(
        n: &Netlist,
        comp: &[Gate],
        limits: &StateGraphLimits,
    ) -> Option<StateGraph> {
        let mut regs: Vec<Gate> = comp.to_vec();
        regs.sort();
        regs.dedup();
        if regs.is_empty() || regs.len() > limits.max_regs.min(26) {
            return None;
        }
        let csr = n.csr();
        for &r in &regs {
            if csr.kind(r.index() as u32) != NodeKind::Reg {
                return None;
            }
        }
        let next_lits: Vec<Lit> = regs.iter().map(|&r| n.reg_next(r)).collect();
        let in_comp: BTreeSet<Gate> = regs.iter().copied().collect();
        let mut free_set: BTreeSet<Gate> = BTreeSet::new();
        for &nl in &next_lits {
            let sup = support(n, nl);
            free_set.extend(sup.inputs.iter().copied());
            free_set.extend(sup.regs.iter().filter(|r| !in_comp.contains(r)));
        }
        let free: Vec<Gate> = free_set.into_iter().collect();
        if free.len() > limits.max_free {
            return None;
        }
        let cone = visit::bfs(
            csr,
            Dir::Fanin,
            Expand::Combinational,
            next_lits.iter().map(|l| l.gate().index() as u32),
        );
        let plan: Vec<AndStep> = csr
            .and_plan()
            .iter()
            .filter(|s| cone.contains(s.gate))
            .copied()
            .collect();
        let mut inits: Vec<u32> = vec![0];
        for (j, &r) in regs.iter().enumerate() {
            match n.reg_init(r) {
                Init::Zero => {}
                Init::One => {
                    for s in &mut inits {
                        *s |= 1 << j;
                    }
                }
                Init::Nondet | Init::Fn(_) => {
                    let with: Vec<u32> = inits.iter().map(|&s| s | 1 << j).collect();
                    inits.extend(with);
                }
            }
        }
        inits.sort_unstable();
        inits.dedup();
        let mut states: Vec<u32> = inits.clone();
        let mut id_of: HashMap<u32, u32> = states
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i as u32))
            .collect();
        let num_inits = states.len();
        let mut frame = vec![0u64; n.num_gates()];
        let combos: u64 = 1u64 << free.len();
        let mut batches: u64 = 0;
        let mut succ_lists: Vec<Vec<u32>> = Vec::new();
        let mut head = 0usize;
        while head < states.len() {
            let s = states[head];
            head += 1;
            let mut out: Vec<u32> = Vec::new();
            let mut combo = 0u64;
            while combo < combos {
                let batch = (combos - combo).min(64) as usize;
                batches += 1;
                if batches > limits.max_batches {
                    return None;
                }
                for (j, &r) in regs.iter().enumerate() {
                    frame[r.index()] = if (s >> j) & 1 == 1 { !0u64 } else { 0 };
                }
                for (k, &g) in free.iter().enumerate() {
                    let mut w = 0u64;
                    for b in 0..batch {
                        if ((combo + b as u64) >> k) & 1 == 1 {
                            w |= 1u64 << b;
                        }
                    }
                    frame[g.index()] = w;
                }
                for step in &plan {
                    frame[step.gate as usize] =
                        eval_code(&frame, step.a) & eval_code(&frame, step.b);
                }
                for b in 0..batch {
                    let mut t: u32 = 0;
                    for (j, &nl) in next_lits.iter().enumerate() {
                        let w = frame[nl.gate().index()];
                        let bit = ((w >> b) & 1) as u32 ^ (nl.code() & 1);
                        t |= bit << j;
                    }
                    out.push(t);
                }
                combo += batch as u64;
            }
            out.sort_unstable();
            out.dedup();
            let mut succ_ids: Vec<u32> = Vec::with_capacity(out.len());
            for t in out {
                let id = match id_of.entry(t) {
                    Entry::Occupied(e) => *e.get(),
                    Entry::Vacant(e) => {
                        let id = states.len() as u32;
                        states.push(t);
                        e.insert(id);
                        id
                    }
                };
                succ_ids.push(id);
            }
            succ_ids.sort_unstable();
            succ_lists.push(succ_ids);
        }
        let (fwd_off, fwd, bwd_off, bwd) = flatten_csr(&succ_lists);
        Some(StateGraph {
            regs,
            free,
            states,
            num_inits,
            fwd_off,
            fwd,
            bwd_off,
            bwd,
        })
    }

    /// Everything a graph answers, minus its gate names: initial-state
    /// count, and per state its packed value, successors and predecessors.
    type Shape = (usize, Vec<(u32, Vec<u32>, Vec<u32>)>);

    fn shape(g: &StateGraph) -> Shape {
        let per_state = (0..g.num_states() as u32)
            .map(|v| (g.state(v), g.succs(v).to_vec(), g.preds(v).to_vec()))
            .collect();
        (g.num_inits(), per_state)
    }

    fn answers(g: &Option<StateGraph>) -> Option<(Vec<Gate>, Vec<Gate>, Shape)> {
        g.as_ref()
            .map(|g| (g.regs().to_vec(), g.free().to_vec(), shape(g)))
    }

    /// Appends `count` AND gates that no register reads by extending the
    /// chain ending at `tip` with `rail` of alternating polarity, so every
    /// step is a fresh gate.
    fn pad(n: &mut Netlist, tip: &mut Lit, rail: Lit, count: usize) {
        for k in 0..count {
            *tip = !n.and(*tip, rail.xor_complement(k % 2 == 1));
        }
    }

    /// A random component netlist with the shapes a compact frame can get
    /// wrong: unrelated ANDs before, between and after the cone (high,
    /// sparse gate indices), a component that is usually a strict subset of
    /// the registers, all four init kinds, and next-state literals that are
    /// constants, component or outside registers, inputs, or cone logic,
    /// each possibly complemented. Returns the netlist and the component.
    fn component_netlist(
        seed: u64,
        inputs: usize,
        regs: usize,
        gates: usize,
        padding: (usize, usize),
    ) -> (Netlist, Vec<Gate>) {
        let mut rng = TestRng::new(seed);
        let mut n = Netlist::new();
        let (mut tip, rail) = (n.input("pad0").lit(), n.input("pad1").lit());
        pad(&mut n, &mut tip, rail, padding.0);
        let ins: Vec<Lit> = (0..inputs)
            .map(|k| n.input(format!("i{k}")).lit())
            .collect();
        let all: Vec<Gate> = (0..regs)
            .map(|k| {
                let init = match rng.below(4) {
                    0 => Init::Zero,
                    1 => Init::One,
                    2 => Init::Nondet,
                    _ => Init::Fn(ins.first().map_or(Lit::TRUE, |&i| !i)),
                };
                n.reg(format!("r{k}"), init)
            })
            .collect();
        let mut comp: Vec<Gate> = all.iter().copied().filter(|_| rng.below(3) != 0).collect();
        if comp.is_empty() {
            comp.push(all[rng.below(regs as u64) as usize]);
        }
        let outside: Vec<Gate> = all.iter().copied().filter(|r| !comp.contains(r)).collect();
        let mut pool: Vec<Lit> = ins
            .iter()
            .copied()
            .chain(all.iter().map(|r| r.lit()))
            .collect();
        let mut logic: Vec<Lit> = Vec::new();
        for _ in 0..gates {
            let a = pool[rng.below(pool.len() as u64) as usize].xor_complement(rng.below(2) == 0);
            let b = pool[rng.below(pool.len() as u64) as usize].xor_complement(rng.below(2) == 0);
            let g = n.and(a, b);
            pool.push(g);
            logic.push(g);
            pad(&mut n, &mut tip, rail, rng.below(40) as usize);
        }
        let pick = |rng: &mut TestRng, from: &[Lit]| -> Option<Lit> {
            (!from.is_empty()).then(|| from[rng.below(from.len() as u64) as usize])
        };
        let comp_lits: Vec<Lit> = comp.iter().map(|r| r.lit()).collect();
        let outside_lits: Vec<Lit> = outside.iter().map(|r| r.lit()).collect();
        for &r in &all {
            let next = match rng.below(6) {
                0 => Some(Lit::FALSE),
                1 => Some(Lit::TRUE),
                2 => pick(&mut rng, &comp_lits),
                3 => pick(&mut rng, &outside_lits),
                4 => pick(&mut rng, &ins),
                _ => pick(&mut rng, &logic),
            }
            .unwrap_or(Lit::TRUE);
            n.set_next(r, next.xor_complement(rng.below(2) == 0));
        }
        let mut tip = all[0].lit();
        pad(&mut n, &mut tip, rail, padding.1);
        n.validate().expect("component netlists validate");
        (n, comp)
    }

    /// 2-bit counter with always-on increment: 00 → 01 → 10 → 11 → 00.
    fn counter2() -> Netlist {
        let mut n = Netlist::new();
        let b0 = n.reg("b0", Init::Zero);
        let b1 = n.reg("b1", Init::Zero);
        n.set_next(b0, !b0.lit());
        let x = n.xor(b1.lit(), b0.lit());
        n.set_next(b1, x);
        n.add_target(b1.lit(), "t");
        n
    }

    #[test]
    fn counter_cycle_is_enumerated() {
        let n = counter2();
        let g = StateGraph::build(&n, n.regs(), &limits()).unwrap();
        assert_eq!(g.num_states(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.num_inits(), 1);
        assert_eq!(g.state(0), 0);
        // Deterministic single-successor chain covering all four states.
        for v in 0..4u32 {
            assert_eq!(g.succs(v).len(), 1);
            assert_eq!(g.preds(v).len(), 1);
        }
    }

    #[test]
    fn free_input_fans_out_transitions() {
        // One register toggled by a free input: 0 ⇄ 1 with self-loops.
        let mut n = Netlist::new();
        let i = n.input("i").lit();
        let r = n.reg("r", Init::Zero);
        let x = n.xor(r.lit(), i);
        n.set_next(r, x);
        n.add_target(r.lit(), "t");
        let g = StateGraph::build(&n, n.regs(), &limits()).unwrap();
        assert_eq!(g.num_states(), 2);
        assert_eq!(g.free().len(), 1);
        assert_eq!(g.succs(0), &[0, 1]);
        assert_eq!(g.succs(1), &[0, 1]);
    }

    #[test]
    fn nondet_init_seeds_multiple_states() {
        let mut n = Netlist::new();
        let r = n.reg("r", Init::Nondet);
        n.set_next(r, r.lit());
        n.add_target(r.lit(), "t");
        let g = StateGraph::build(&n, n.regs(), &limits()).unwrap();
        assert_eq!(g.num_inits(), 2);
        assert_eq!(g.num_states(), 2);
    }

    #[test]
    fn limits_decline_oversized_components() {
        let n = counter2();
        let tight = StateGraphLimits {
            max_regs: 1,
            ..limits()
        };
        assert!(StateGraph::build(&n, n.regs(), &tight).is_none());
        let no_budget = StateGraphLimits {
            max_batches: 1,
            ..limits()
        };
        assert!(StateGraph::build(&n, n.regs(), &no_budget).is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        /// The compact frame and the dense reference return the same
        /// `Option<StateGraph>`, declines included: `max_free` below the
        /// cone's free count, and batch budgets from one batch upwards.
        #[test]
        fn compact_frame_matches_the_dense_reference(
            seed in any::<u64>(),
            inputs in 0usize..4,
            regs in 1usize..8,
            gates in 0usize..24,
            before in 0usize..4000,
            after in 0usize..4000,
            max_free in 0usize..7,
            budget in 0u32..4,
        ) {
            let (n, comp) = component_netlist(seed, inputs, regs, gates, (before, after));
            let limits = StateGraphLimits {
                max_free,
                max_batches: [1, 3, 40, 1 << 22][budget as usize],
                ..limits()
            };
            let want = dense_reference(&n, &comp, &limits);
            let got = StateGraph::build(&n, &comp, &limits);
            prop_assert_eq!(answers(&got), answers(&want));
            // A repeated register changes nothing; a non-register declines.
            let mut odd = comp.clone();
            odd.push(comp[0]);
            prop_assert_eq!(
                answers(&StateGraph::build(&n, &odd, &limits)),
                answers(&dense_reference(&n, &odd, &limits))
            );
            odd.push(n.inputs()[0]);
            prop_assert!(StateGraph::build(&n, &odd, &limits).is_none());
        }
    }

    /// A free-running 4-bit counter, behind `before` and ahead of `after`
    /// unrelated AND gates (the trailing ones read the counter).
    fn counter4(before: usize, after: usize) -> (Netlist, Vec<Gate>) {
        let mut n = Netlist::new();
        let (mut tip, rail) = (n.input("pad0").lit(), n.input("pad1").lit());
        pad(&mut n, &mut tip, rail, before);
        let bits: Vec<Gate> = (0..4).map(|k| n.reg(format!("b{k}"), Init::Zero)).collect();
        let mut carry = Lit::TRUE;
        for &b in &bits {
            let next = n.xor(b.lit(), carry);
            n.set_next(b, next);
            carry = n.and(carry, b.lit());
        }
        let mut tip = bits[3].lit();
        pad(&mut n, &mut tip, rail, after);
        (n, bits)
    }

    /// Builds under a `Json` obs session and returns the graph with the
    /// `slots` field of its `ecc.enumerate` span (matched by parent, so
    /// concurrently running tests cannot interfere).
    fn traced_build(n: &Netlist, comp: &[Gate]) -> (StateGraph, u64) {
        use diam_obs::{EventKind, ObsConfig, ObsMode, RunManifest, Session, Value};
        let session = Session::install(
            ObsConfig {
                mode: ObsMode::Json,
                ..ObsConfig::default()
            },
            RunManifest::capture("test-enumerate-slots"),
        );
        let (g, root) = {
            let sp = diam_obs::span!("test.enumerate");
            (StateGraph::build(n, comp, &limits()), sp.id())
        };
        let report = session.finish();
        let slots = report.events.iter().find_map(|e| match &e.kind {
            EventKind::Open {
                parent,
                name: "ecc.enumerate",
                fields,
                ..
            } if *parent == root => fields.iter().find_map(|(k, v)| match v {
                Value::U64(s) if *k == "slots" => Some(*s),
                _ => None,
            }),
            _ => None,
        });
        (
            g.expect("the counter enumerates"),
            slots.expect("a slots field"),
        )
    }

    /// Enumeration work follows the cone, not the netlist: the frame of a
    /// 4-bit counter has the same length alone and amid 100k unrelated
    /// gates, and the graphs agree.
    #[test]
    fn frame_is_sized_by_the_cone_not_the_netlist() {
        let (small, small_comp) = counter4(0, 0);
        let (big, big_comp) = counter4(50_000, 50_000);
        assert!(big.num_gates() > 100_000);
        let (g, slots) = traced_build(&small, &small_comp);
        let (h, big_slots) = traced_build(&big, &big_comp);
        assert_eq!(slots, big_slots);
        assert!(
            slots < 32,
            "4 registers, no free signals, a few ANDs: {slots}"
        );
        assert_eq!(g.num_states(), 16);
        assert_eq!(shape(&g), shape(&h));
        assert!(g.free().is_empty() && h.free().is_empty());
    }
}
