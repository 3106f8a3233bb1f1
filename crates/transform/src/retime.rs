//! Normalized min-register retiming — the paper's **RET** engine
//! (Section 3.2, Definition 5, Theorem 2).
//!
//! Retiming assigns every vertex a *lag* `r(v)`: the number of registers
//! moved backward through it. The engine minimizes the total register count
//! by solving the Leiserson–Saxe LP exactly (via [`crate::flow`]), then
//! *normalizes* the lags so `max r = 0` — every lag is `≤ 0`.
//!
//! The retimed netlist is the CAV'01 construction the paper builds
//! Theorem 2 on:
//!
//! * a **recurrence structure** with one gate per combinational vertex and
//!   registers re-placed according to the new edge weights
//!   `w_r(e) = w(e) + r(head) − r(tail)`;
//! * a combinational **retiming stump** representing the discarded prefix
//!   time-steps, realized here as [`Init::Fn`] initial-value cones: the
//!   `m`-th register of a chain from source `u` is initialized to the value
//!   the original netlist would have produced for `u` at time `j_u − m`
//!   (`j_v = −r(v)` is the non-negative temporal skew of vertex `v`).
//!   Original input values inside the discarded prefix become fresh *stump
//!   inputs*.
//!
//! The correspondence is `p'(v, t) = p(v, t + j_v)` for every vertex, which
//! is exactly the premise of Theorem 2: a diameter bound `d̂` on a retimed
//! target with lag `r` yields the bound `d̂ + (−r)` on the original target.

use crate::flow::MinCostFlow;
use diam_netlist::{Gate, GateKind, Init, Lit, Netlist};
use std::collections::HashMap;
use std::fmt;

/// Error returned by [`retime`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RetimeError {
    /// A register's `Init::Fn` cone is not a plain input/constant literal.
    /// Normalize with [`diam_netlist::rebuild::explicit_nondet_init`] and
    /// keep reset logic out of the netlist before retiming.
    ComplexInitCone { reg: Gate },
    /// The retiming LP was infeasible (indicates a malformed netlist).
    Infeasible,
}

impl fmt::Display for RetimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetimeError::ComplexInitCone { reg } => {
                write!(f, "register {reg} has a non-literal initial-value cone")
            }
            RetimeError::Infeasible => write!(f, "retiming LP infeasible"),
        }
    }
}

impl std::error::Error for RetimeError {}

/// The result of retiming: the new netlist, the per-gate lags, and the
/// old-to-new mapping.
#[derive(Debug, Clone)]
pub struct RetimedNetlist {
    /// The retimed netlist (recurrence structure; the stump lives in the
    /// registers' initial-value cones).
    pub netlist: Netlist,
    /// Normalized lag `r(g) ≤ 0` per original gate.
    pub lag: Vec<i64>,
    /// Old gate → new literal.
    pub map: Vec<Option<Lit>>,
    /// Fresh inputs created for discarded-prefix values of original inputs:
    /// `(original_input, original_time, new_input)`.
    pub stump_inputs: Vec<(Gate, u64, Gate)>,
    /// Registers before and after.
    pub regs_before: usize,
    /// Registers in the retimed netlist.
    pub regs_after: usize,
}

impl RetimedNetlist {
    /// Maps an original literal into the retimed netlist (temporal skew
    /// `−lag` applies; see module docs).
    pub fn lit(&self, old: Lit) -> Option<Lit> {
        self.map[old.gate().index()].map(|l| l.xor_complement(old.is_complement()))
    }

    /// The non-negative temporal skew `j = −r` of an original gate.
    pub fn skew(&self, g: Gate) -> u64 {
        u64::try_from(-self.lag[g.index()]).expect("normalized lag > 0")
    }
}

/// Retimes `n` with a minimum-register normalized retiming.
///
/// # Errors
///
/// Fails with [`RetimeError::ComplexInitCone`] if a register initial value
/// is a function of anything but a single input literal, or
/// [`RetimeError::Infeasible`] if the LP cannot be solved (malformed input).
///
/// # Examples
///
/// ```
/// use diam_netlist::{Init, Netlist};
/// use diam_transform::retime::retime;
///
/// // A 3-deep pipeline: retiming eliminates all registers.
/// let mut n = Netlist::new();
/// let i = n.input("i");
/// let mut prev = i.lit();
/// for k in 0..3 {
///     let r = n.reg(format!("s{k}"), Init::Zero);
///     n.set_next(r, prev);
///     prev = r.lit();
/// }
/// n.add_target(prev, "deep");
/// let ret = retime(&n)?;
/// assert_eq!(ret.regs_after, 0);
/// assert_eq!(ret.skew(prev.gate()), 3);
/// # Ok::<(), diam_transform::retime::RetimeError>(())
/// ```
pub fn retime(n: &Netlist) -> Result<RetimedNetlist, RetimeError> {
    // Observability: the pass framework wraps this engine in the unified
    // `pass.apply` span (see `crate::pass`); no ad-hoc span here.
    // --- validate inits ----------------------------------------------------
    for &r in n.regs() {
        if let Init::Fn(l) = n.reg_init(r) {
            match n.kind(l.gate()) {
                GateKind::Input | GateKind::Const0 => {}
                _ => return Err(RetimeError::ComplexInitCone { reg: r }),
            }
        }
    }

    // --- retiming graph ----------------------------------------------------
    // Vertices are gate indices. Edges: (tail, head, weight).
    let num = n.num_gates();
    let mut edges: Vec<(usize, usize, i64)> = Vec::new();
    for g in n.gates() {
        match n.kind(g) {
            GateKind::And(a, b) => {
                edges.push((a.gate().index(), g.index(), 0));
                edges.push((b.gate().index(), g.index(), 0));
            }
            GateKind::Reg => {
                edges.push((n.reg_next(g).gate().index(), g.index(), 1));
            }
            GateKind::Const0 | GateKind::Input => {}
        }
    }

    // --- solve the LP, one weakly connected component at a time -------------
    // The flow decomposes over weak components of the retiming graph; small
    // independent structures (the common case) solve independently and are
    // normalized per component, which the paper notes can only tighten the
    // per-target lags ("retiming and normalizing a single target cone at a
    // time").
    //
    // Objective coefficients c_v = indeg − outdeg; the flow solver takes
    // supplies as outflow − inflow = −c_v (see crate::flow docs).
    let mut comp_of = vec![usize::MAX; num];
    let mut comps: Vec<Vec<usize>> = Vec::new();
    {
        let mut undirected: Vec<Vec<usize>> = vec![Vec::new(); num];
        for &(u, v, _) in &edges {
            undirected[u].push(v);
            undirected[v].push(u);
        }
        for start in 0..num {
            if comp_of[start] != usize::MAX {
                continue;
            }
            let id = comps.len();
            let mut comp = vec![start];
            comp_of[start] = id;
            let mut head = 0;
            while head < comp.len() {
                let v = comp[head];
                head += 1;
                for &w in &undirected[v] {
                    if comp_of[w] == usize::MAX {
                        comp_of[w] = id;
                        comp.push(w);
                    }
                }
            }
            comps.push(comp);
        }
    }
    // Each component's edges, in one pass, with node indices local to it.
    let mut local_of = vec![0usize; num];
    for comp in &comps {
        for (i, &v) in comp.iter().enumerate() {
            local_of[v] = i;
        }
    }
    let mut comp_edges: Vec<Vec<(usize, usize, i64)>> = vec![Vec::new(); comps.len()];
    for &(u, v, w) in &edges {
        comp_edges[comp_of[u]].push((local_of[u], local_of[v], w));
    }
    let mut lag = vec![0i64; num];
    for (comp, local_edges) in comps.iter().zip(&comp_edges) {
        if comp.len() <= 1 {
            continue;
        }
        let mut supplies = vec![0i64; comp.len()];
        for &(u, v, _) in local_edges {
            supplies[v] -= 1;
            supplies[u] += 1;
        }
        let mut net = MinCostFlow::new(comp.len());
        let cap = (local_edges.len() as i64 + n.num_regs() as i64 + 2) * 4;
        for &(u, v, w) in local_edges {
            net.add_edge(u, v, cap, w);
        }
        net.solve(&supplies).map_err(|_| RetimeError::Infeasible)?;
        let pot = net.valid_potentials();
        // Normalize per component (Definition 5).
        let max_pot = pot.iter().copied().map(|p| -p).max().unwrap_or(0);
        for (i, &v) in comp.iter().enumerate() {
            lag[v] = -pot[i] - max_pot;
        }
    }
    // Feasibility sanity check.
    for &(u, v, w) in &edges {
        debug_assert!(lag[u] - lag[v] <= w, "retiming constraint violated");
    }
    let skew = |g: Gate| -> u64 { (-lag[g.index()]) as u64 };

    // --- build the retimed netlist -------------------------------------------
    let mut out = Netlist::new();
    let mut map: Vec<Option<Lit>> = vec![None; num];
    map[Gate::CONST0.index()] = Some(Lit::FALSE);
    for &i in n.inputs() {
        let g = out.input(n.name(i).unwrap_or("in").to_string());
        map[i.index()] = Some(g.lit());
    }

    // Topological order over edges whose *new* weight is zero.
    let new_weight = |(u, v, w): (usize, usize, i64)| -> i64 { w + lag[v] - lag[u] };
    let mut indeg0 = vec![0usize; num];
    let mut succs0: Vec<Vec<usize>> = vec![Vec::new(); num];
    for &e in &edges {
        if new_weight(e) == 0 {
            let (u, v, _) = e;
            indeg0[v] += 1;
            succs0[u].push(v);
        }
    }
    let mut order: Vec<usize> = (0..num).filter(|&v| indeg0[v] == 0).collect();
    let mut head = 0;
    while head < order.len() {
        let v = order[head];
        head += 1;
        for &w in &succs0[v] {
            indeg0[w] -= 1;
            if indeg0[w] == 0 {
                order.push(w);
            }
        }
    }
    debug_assert_eq!(order.len(), num, "zero-weight retimed edges form a cycle");

    // Register chains per source vertex: chains[src] = registers delaying
    // the plain value of src by 1, 2, … (created on demand, next-functions
    // connected at the end).
    let mut chains: Vec<Vec<Gate>> = vec![Vec::new(); num];
    let mut stump = Stump {
        n,
        lag: &lag,
        memo: HashMap::new(),
        stump_inputs: Vec::new(),
        pending_next: Vec::new(),
    };

    // Delayed view of vertex `src` by `k` cycles (plain value).
    // Creates chain registers with stump initial values as needed.
    fn delayed(
        out: &mut Netlist,
        n: &Netlist,
        stump: &mut Stump<'_>,
        chains: &mut [Vec<Gate>],
        map: &[Option<Lit>],
        src: usize,
        k: u64,
    ) -> Lit {
        if src == Gate::CONST0.index() {
            return Lit::FALSE;
        }
        if k == 0 {
            return map[src].expect("source built before consumer");
        }
        let j_src = stump.skew(Gate::from_index(src));
        debug_assert!(k <= j_src, "shared chains only cover the stump range");
        while (chains[src].len() as u64) < k {
            let m = chains[src].len() as u64 + 1;
            let name = format!("{}_d{m}", n.name(Gate::from_index(src)).unwrap_or("v"));
            let init_lit = stump.value(out, Gate::from_index(src), j_src - m);
            let reg = out.reg(name, Init::Fn(init_lit));
            chains[src].push(reg);
        }
        chains[src][(k - 1) as usize].lit()
    }

    for &v in &order {
        let g = Gate::from_index(v);
        match n.kind(g) {
            GateKind::Const0 | GateKind::Input => {} // already mapped
            GateKind::And(a, b) => {
                let ja = skew(a.gate());
                let jb = skew(b.gate());
                let jv = skew(g);
                let la = delayed(
                    &mut out,
                    n,
                    &mut stump,
                    &mut chains,
                    &map,
                    a.gate().index(),
                    ja - jv,
                )
                .xor_complement(a.is_complement());
                let lb = delayed(
                    &mut out,
                    n,
                    &mut stump,
                    &mut chains,
                    &map,
                    b.gate().index(),
                    jb - jv,
                )
                .xor_complement(b.is_complement());
                map[v] = Some(out.and(la, lb));
            }
            GateKind::Reg => {
                let next = n.reg_next(g);
                let u = next.gate();
                let k = 1 + skew(u) as i64 - skew(g) as i64;
                debug_assert!(k >= 0);
                let k = k as u64;
                if k == 0 {
                    // Register eliminated: becomes a wire from its driver.
                    let src = delayed(&mut out, n, &mut stump, &mut chains, &map, u.index(), 0);
                    map[v] = Some(src.xor_complement(next.is_complement()));
                    continue;
                }
                let plain = if k <= skew(u) {
                    delayed(&mut out, n, &mut stump, &mut chains, &map, u.index(), k)
                } else {
                    // k = j_u + 1: one extra register beyond the shared
                    // chain, initialized from the original register's own
                    // initial value (complement-adjusted below).
                    debug_assert_eq!(k, skew(u) + 1);
                    let feeder = if skew(u) == 0 {
                        None // connected to map[u] at the end
                    } else {
                        Some(delayed(
                            &mut out,
                            n,
                            &mut stump,
                            &mut chains,
                            &map,
                            u.index(),
                            skew(u),
                        ))
                    };
                    let init = adjust_init(&mut stump, &mut out, g, next.is_complement());
                    let reg = out.reg(n.name(g).unwrap_or("reg").to_string(), init);
                    // The extra register's next is the (j_u)-delayed plain
                    // value of u — record for the connection pass.
                    stump.pending_next.push((reg, u.index(), feeder));
                    reg.lit()
                };
                map[v] = Some(plain.xor_complement(next.is_complement()));
            }
        }
    }

    // Connect chain register next-functions (they may reference gates built
    // later in `order`, so this happens after the main pass).
    for src in 0..num {
        for (m, &reg) in chains[src].iter().enumerate() {
            let next = if m == 0 {
                map[src].expect("chain source mapped")
            } else {
                chains[src][m - 1].lit()
            };
            out.set_next(reg, next);
        }
    }
    for &(reg, u, feeder) in &stump.pending_next {
        let next = match feeder {
            Some(l) => l,
            None => map[u].expect("extra-register driver mapped"),
        };
        out.set_next(reg, next);
    }

    // Targets.
    for t in n.targets() {
        let l = map[t.lit.gate().index()]
            .expect("target vertex mapped")
            .xor_complement(t.lit.is_complement());
        out.add_target(l, t.name.clone());
    }

    let regs_after = out.num_regs();
    let stump_inputs = std::mem::take(&mut stump.stump_inputs);
    drop(stump);
    Ok(RetimedNetlist {
        netlist: out,
        lag,
        map,
        stump_inputs,
        regs_before: n.num_regs(),
        regs_after,
    })
}

/// The initial value of the dedicated extra register standing in for the
/// original register `orig_reg`, complement-adjusted when the original
/// next-state literal was inverted. Nondeterministic and functional initial
/// values are routed through the stump so they bind to the same fresh
/// inputs everywhere.
fn adjust_init(stump: &mut Stump<'_>, out: &mut Netlist, orig_reg: Gate, complement: bool) -> Init {
    let translated = match stump.n.reg_init(orig_reg) {
        Init::Zero => Init::Zero,
        Init::One => Init::One,
        Init::Nondet | Init::Fn(_) => {
            // `S(R, 0)` is exactly the original initial value, memoized —
            // shared with any other stump use of the same register.
            Init::Fn(stump.value(out, orig_reg, 0))
        }
    };
    if complement {
        translated.complement()
    } else {
        translated
    }
}

/// Builder state for the retiming stump: memoized values `S(g, τ)` = the
/// original value of gate `g` at original time `τ` (`τ ≤ j_g`), expressed
/// as a literal of the new netlist over time-0 inputs and fresh stump
/// inputs.
struct Stump<'a> {
    n: &'a Netlist,
    lag: &'a [i64],
    memo: HashMap<(Gate, u64), Lit>,
    stump_inputs: Vec<(Gate, u64, Gate)>,
    pending_next: Vec<(Gate, usize, Option<Lit>)>,
}

impl<'a> Stump<'a> {
    fn skew(&self, g: Gate) -> u64 {
        (-self.lag[g.index()]) as u64
    }

    /// `S(g, τ)` — see struct docs. `τ ≤ j_g` is guaranteed by the lag
    /// constraints (checked with a debug assertion).
    fn value(&mut self, out: &mut Netlist, g: Gate, tau: u64) -> Lit {
        debug_assert!(
            tau <= self.skew(g),
            "stump query beyond skew: {g} at {tau} (skew {})",
            self.skew(g)
        );
        if let Some(&l) = self.memo.get(&(g, tau)) {
            return l;
        }
        let result = match self.n.kind(g) {
            GateKind::Const0 => Lit::FALSE,
            GateKind::Input => {
                let j = self.skew(g);
                if tau == j {
                    // The new input stream starts at original time j.
                    // Referencing it at time 0 is exactly p(g, j).
                    // The caller guarantees map[g] exists — inputs are
                    // created first — but the stump cannot see `map`;
                    // inputs are created with identical order, so find by
                    // position.
                    let pos = self
                        .n
                        .inputs()
                        .iter()
                        .position(|&i| i == g)
                        .expect("input exists");
                    out.inputs()[pos].lit()
                } else {
                    // Discarded prefix: fresh stump input.
                    let name = format!("{}@{tau}", self.n.name(g).unwrap_or("in"));
                    let ni = out.input(name);
                    self.stump_inputs.push((g, tau, ni));
                    ni.lit()
                }
            }
            GateKind::And(a, b) => {
                let la = self
                    .value(out, a.gate(), tau)
                    .xor_complement(a.is_complement());
                let lb = self
                    .value(out, b.gate(), tau)
                    .xor_complement(b.is_complement());
                out.and(la, lb)
            }
            GateKind::Reg => {
                if tau >= 1 {
                    let next = self.n.reg_next(g);
                    self.value(out, next.gate(), tau - 1)
                        .xor_complement(next.is_complement())
                } else {
                    match self.n.reg_init(g) {
                        Init::Zero => Lit::FALSE,
                        Init::One => Lit::TRUE,
                        Init::Nondet => {
                            let name = format!("{}@init", self.n.name(g).unwrap_or("reg"));
                            let ni = out.input(name);
                            self.stump_inputs.push((g, 0, ni));
                            ni.lit()
                        }
                        Init::Fn(l) => self
                            .value(out, l.gate(), 0)
                            .xor_complement(l.is_complement()),
                    }
                }
            }
        };
        self.memo.insert((g, tau), result);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diam_netlist::sim::{simulate, SplitMix64, Stimulus};

    /// Checks the retiming correspondence `p'(v, t) = p(v, t + j_v)` by
    /// co-simulation: the retimed netlist is driven with the original input
    /// streams advanced by each input's skew, and stump inputs receive the
    /// discarded prefix values.
    fn check_correspondence(n: &Netlist, ret: &RetimedNetlist, steps: usize, seed: u64) {
        let mut rng = SplitMix64::new(seed);
        let mut stim = Stimulus::random(n, steps, &mut rng);
        for w in &mut stim.nondet_init {
            *w = rng.next_u64();
        }
        let trace = simulate(n, &stim);

        // Build the retimed stimulus.
        let m = &ret.netlist;
        let max_skew = n.gates().map(|g| ret.skew(g)).max().unwrap_or(0) as usize;
        assert!(steps > max_skew, "simulate longer than the max skew");
        let horizon = steps - max_skew;
        let mut inputs = vec![vec![0u64; m.num_inputs()]; horizon];
        // Original inputs occupy the first positions, in order.
        for (pos, &i) in n.inputs().iter().enumerate() {
            let j = ret.skew(i) as usize;
            for (t, row) in inputs.iter_mut().enumerate() {
                row[pos] = stim.inputs[t + j][n.inputs().iter().position(|&x| x == i).unwrap()];
            }
        }
        // Stump inputs: original value of (gate, tau).
        for &(orig, tau, new_input) in &ret.stump_inputs {
            let pos = m
                .inputs()
                .iter()
                .position(|&x| x == new_input)
                .expect("stump input exists");
            let word = match n.kind(orig) {
                GateKind::Input => trace.word(orig.lit(), tau as usize),
                GateKind::Reg => {
                    // Nondet initial value of the original register.
                    let rpos = n.regs().iter().position(|&r| r == orig).unwrap();
                    stim.nondet_init[rpos]
                }
                _ => unreachable!("stump inputs come from inputs or nondet inits"),
            };
            for row in inputs.iter_mut() {
                row[pos] = word;
            }
        }
        let rstim = Stimulus {
            inputs,
            nondet_init: vec![0; m.num_regs()],
        };
        let rtrace = simulate(m, &rstim);

        for g in n.gates() {
            let Some(new_lit) = ret.lit(g.lit()) else {
                continue;
            };
            let j = ret.skew(g) as usize;
            for t in 0..horizon {
                assert_eq!(
                    rtrace.word(new_lit, t),
                    trace.word(g.lit(), t + j),
                    "gate {g} (skew {j}) diverges at retimed time {t}"
                );
            }
        }
    }

    #[test]
    fn pipeline_registers_are_eliminated() {
        let mut n = Netlist::new();
        let i = n.input("i");
        let mut prev = i.lit();
        let mut regs = Vec::new();
        for k in 0..4 {
            let r = n.reg(format!("s{k}"), Init::Zero);
            n.set_next(r, prev);
            prev = r.lit();
            regs.push(r);
        }
        n.add_target(prev, "deep");
        let ret = retime(&n).unwrap();
        assert_eq!(ret.regs_after, 0);
        assert_eq!(ret.skew(regs[3]), 4);
        ret.netlist.validate().unwrap();
        check_correspondence(&n, &ret, 16, 11);
    }

    #[test]
    fn toggle_register_is_preserved() {
        let mut n = Netlist::new();
        let r = n.reg("t", Init::Zero);
        n.set_next(r, !r.lit());
        n.add_target(r.lit(), "high");
        let ret = retime(&n).unwrap();
        assert_eq!(ret.regs_after, 1);
        ret.netlist.validate().unwrap();
        check_correspondence(&n, &ret, 8, 3);
    }

    #[test]
    fn lags_are_normalized_nonpositive() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let r1 = n.reg("r1", Init::One);
        let r2 = n.reg("r2", Init::Nondet);
        n.set_next(r1, a.lit());
        let x = n.xor(r1.lit(), a.lit());
        n.set_next(r2, x);
        n.add_target(r2.lit(), "t");
        let ret = retime(&n).unwrap();
        assert!(ret.lag.iter().all(|&l| l <= 0));
        assert!(ret.lag.contains(&0));
        check_correspondence(&n, &ret, 12, 5);
    }

    #[test]
    fn fanout_from_pipeline_middle() {
        // r0 feeds both r1 and combinational logic observed by the target.
        let mut n = Netlist::new();
        let i = n.input("i");
        let j = n.input("j");
        let r0 = n.reg("r0", Init::Zero);
        let r1 = n.reg("r1", Init::One);
        n.set_next(r0, i.lit());
        n.set_next(r1, r0.lit());
        let t = n.mux(j.lit(), r0.lit(), r1.lit());
        n.add_target(t, "t");
        let ret = retime(&n).unwrap();
        ret.netlist.validate().unwrap();
        assert!(ret.regs_after <= 2);
        check_correspondence(&n, &ret, 12, 7);
    }

    #[test]
    fn self_loop_with_enable() {
        // A held register: next = mux(en, data, self).
        let mut n = Netlist::new();
        let en = n.input("en");
        let d = n.input("d");
        let r = n.reg("hold", Init::Nondet);
        let nx = n.mux(en.lit(), d.lit(), r.lit());
        n.set_next(r, nx);
        n.add_target(r.lit(), "t");
        let ret = retime(&n).unwrap();
        assert_eq!(ret.regs_after, 1);
        check_correspondence(&n, &ret, 10, 13);
    }

    #[test]
    fn fn_init_input_literal_is_supported() {
        let mut n = Netlist::new();
        let iv = n.input("iv");
        let i = n.input("i");
        let r = n.reg("r", Init::Fn(!iv.lit()));
        n.set_next(r, i.lit());
        n.add_target(r.lit(), "t");
        let ret = retime(&n).unwrap();
        ret.netlist.validate().unwrap();
        check_correspondence(&n, &ret, 10, 17);
    }

    #[test]
    fn complex_init_cone_is_rejected() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let cone = n.and(a.lit(), b.lit());
        let r = n.reg("r", Init::Fn(cone));
        n.set_next(r, a.lit());
        n.add_target(r.lit(), "t");
        assert!(matches!(
            retime(&n),
            Err(RetimeError::ComplexInitCone { .. })
        ));
    }

    #[test]
    fn random_netlists_preserve_correspondence() {
        let mut rng = SplitMix64::new(0xfeed);
        for round in 0..20 {
            let mut n = Netlist::new();
            let inputs: Vec<Lit> = (0..3).map(|k| n.input(format!("i{k}")).lit()).collect();
            let mut regs = Vec::new();
            let mut pool: Vec<Lit> = inputs.clone();
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
            for _ in 0..10 {
                let a = pool[rng.below(pool.len() as u64) as usize];
                let b = pool[rng.below(pool.len() as u64) as usize];
                let l = match rng.below(3) {
                    0 => n.and(a, b),
                    1 => n.or(a, b),
                    _ => n.xor(a, b),
                };
                pool.push(l);
            }
            for &r in &regs {
                let nx = pool[rng.below(pool.len() as u64) as usize];
                n.set_next(r, nx);
            }
            let t = *pool.last().unwrap();
            n.add_target(t, "t");
            let ret = match retime(&n) {
                Ok(r) => r,
                Err(e) => panic!("round {round}: {e}"),
            };
            ret.netlist.validate().unwrap();
            assert!(ret.regs_after <= ret.regs_before);
            check_correspondence(&n, &ret, 20, 0x100 + round);
        }
    }
}
