//! Structural analyses: cone of influence, supports, register dependency
//! graph, and strongly-connected-component condensation.
//!
//! These are the building blocks of the structural diameter approximation
//! (the component partition of \[7\]) and of the cone-of-influence reduction,
//! which the paper notes preserves trace equivalence of every vertex in the
//! cone (Section 3.1).
//!
//! Every traversal here runs over the cached CSR adjacency
//! ([`Netlist::csr`]) through the unified visit engine
//! ([`crate::visit`]): membership marks are dense bitvecs
//! ([`Marks`]) and scratch state is hoisted out of inner loops.

use crate::csr::{Marks, NodeKind};
use crate::visit::{self, Dir, Expand};
use crate::{Gate, Lit, Netlist};

/// The cone of influence of a set of roots.
#[derive(Debug, Clone)]
pub struct Coi {
    /// Dense membership bitvec per gate index (O(1) [`Coi::contains`]).
    pub in_cone: Marks,
    /// Registers in the cone, in creation order.
    pub regs: Vec<Gate>,
    /// Primary inputs in the cone, in creation order.
    pub inputs: Vec<Gate>,
}

impl Coi {
    /// Whether gate `g` belongs to the cone.
    #[inline]
    pub fn contains(&self, g: Gate) -> bool {
        self.in_cone.get(g.index())
    }
}

/// Computes the cone of influence of `roots`: every gate reachable backward
/// through AND inputs, register next-state functions, and register
/// initial-value cones.
///
/// # Examples
///
/// ```
/// use diam_netlist::{analysis, Init, Netlist};
///
/// let mut n = Netlist::new();
/// let a = n.input("a");
/// let _unused = n.input("unused");
/// let r = n.reg("r", Init::Zero);
/// n.set_next(r, a.lit());
/// let coi = analysis::coi(&n, [r.lit()]);
/// assert!(coi.contains(a));
/// assert_eq!(coi.inputs.len(), 1);
/// ```
pub fn coi<I: IntoIterator<Item = Lit>>(n: &Netlist, roots: I) -> Coi {
    let csr = n.csr();
    let v = visit::bfs(
        csr,
        Dir::Fanin,
        Expand::All,
        roots.into_iter().map(|l| l.gate().index() as u32),
    );
    let in_cone = v.into_marks();
    let regs = n
        .regs()
        .iter()
        .copied()
        .filter(|r| in_cone.get(r.index()))
        .collect();
    let inputs = n
        .inputs()
        .iter()
        .copied()
        .filter(|i| in_cone.get(i.index()))
        .collect();
    Coi {
        in_cone,
        regs,
        inputs,
    }
}

/// The combinational support of a literal: the registers and inputs reachable
/// without crossing a register boundary.
#[derive(Debug, Clone, Default)]
pub struct Support {
    /// Registers appearing in the combinational cone.
    pub regs: Vec<Gate>,
    /// Primary inputs appearing in the combinational cone.
    pub inputs: Vec<Gate>,
}

/// Computes the combinational support of `root` (registers and inputs are
/// cone leaves; their fanin is not traversed).
pub fn support(n: &Netlist, root: Lit) -> Support {
    let csr = n.csr();
    let v = visit::bfs(
        csr,
        Dir::Fanin,
        Expand::Combinational,
        [root.gate().index() as u32],
    );
    let mut out = Support::default();
    for &g in &v.order {
        match csr.kind(g) {
            NodeKind::Reg => out.regs.push(Gate::from_index(g as usize)),
            NodeKind::Input => out.inputs.push(Gate::from_index(g as usize)),
            NodeKind::And | NodeKind::Const0 => {}
        }
    }
    out.regs.sort();
    out.inputs.sort();
    out
}

/// The register dependency graph of a netlist (optionally restricted to a
/// cone of influence), stored in CSR form.
///
/// Vertex `i` is the `i`-th register of the restriction; an edge `i → j`
/// means register `j`'s next-state function combinationally depends on
/// register `i` — i.e. data flows from `i` to `j` in one time-step.
#[derive(Debug, Clone)]
pub struct RegGraph {
    /// The registers, defining the vertex numbering.
    pub regs: Vec<Gate>,
    succ_off: Vec<u32>,
    succ: Vec<u32>,
    pred_off: Vec<u32>,
    pred: Vec<u32>,
}

impl RegGraph {
    /// Number of registers (vertices).
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// Whether the graph has no registers.
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// Registers fed by register `i` (deduplicated, sorted ascending).
    #[inline]
    pub fn succs(&self, i: usize) -> &[u32] {
        &self.succ[self.succ_off[i] as usize..self.succ_off[i + 1] as usize]
    }

    /// Registers feeding register `j` (deduplicated, sorted ascending).
    #[inline]
    pub fn preds(&self, j: usize) -> &[u32] {
        &self.pred[self.pred_off[j] as usize..self.pred_off[j + 1] as usize]
    }

    /// Total number of edges.
    pub fn num_edges(&self) -> usize {
        self.succ.len()
    }
}

/// Builds the register dependency graph over `regs` (typically
/// [`Coi::regs`]). Dependencies through registers outside `regs` are ignored,
/// which is correct when `regs` is closed under the cone of influence.
///
/// One mark bitvec and one DFS stack are allocated for the whole build and
/// reused across the per-register support traversals; between registers only
/// the touched bits are reset, so the cost is O(total cone size), not
/// O(registers × gates).
pub fn reg_graph(n: &Netlist, regs: &[Gate]) -> RegGraph {
    let csr = n.csr();
    let mut index_of = vec![u32::MAX; n.num_gates()];
    for (i, &r) in regs.iter().enumerate() {
        index_of[r.index()] = i as u32;
    }

    // Hoisted scratch, reset via the touched list after each register.
    let mut seen = Marks::new(n.num_gates());
    let mut touched: Vec<u32> = Vec::new();
    let mut stack: Vec<u32> = Vec::new();
    let mut row: Vec<u32> = Vec::new();

    let mut pred_off = vec![0u32; regs.len() + 1];
    let mut pred: Vec<u32> = Vec::new();
    for (j, &r) in regs.iter().enumerate() {
        row.clear();
        stack.push(n.reg_next(r).gate().index() as u32);
        while let Some(v) = stack.pop() {
            if !seen.set(v as usize) {
                continue;
            }
            touched.push(v);
            match csr.kind(v) {
                NodeKind::And => stack.extend_from_slice(csr.fanins(v)),
                NodeKind::Reg => {
                    let i = index_of[v as usize];
                    if i != u32::MAX {
                        row.push(i);
                    }
                }
                NodeKind::Input | NodeKind::Const0 => {}
            }
        }
        for &v in &touched {
            seen.unset(v as usize);
        }
        touched.clear();
        row.sort_unstable();
        row.dedup();
        pred.extend_from_slice(&row);
        pred_off[j + 1] = pred.len() as u32;
    }

    // Transpose into successor lists; walking rows in ascending `j` keeps
    // every successor list sorted, and rows are already deduplicated.
    let mut succ_off = vec![0u32; regs.len() + 1];
    for &i in &pred {
        succ_off[i as usize + 1] += 1;
    }
    for i in 1..=regs.len() {
        succ_off[i] += succ_off[i - 1];
    }
    let mut succ = vec![0u32; pred.len()];
    let mut pos = succ_off.clone();
    for j in 0..regs.len() {
        for &p in &pred[pred_off[j] as usize..pred_off[j + 1] as usize] {
            let i = p as usize;
            succ[pos[i] as usize] = j as u32;
            pos[i] += 1;
        }
    }

    RegGraph {
        regs: regs.to_vec(),
        succ_off,
        succ,
        pred_off,
        pred,
    }
}

/// The condensation of a [`RegGraph`] into strongly connected components.
///
/// Components are numbered in **reverse topological order of discovery**
/// normalized so that `comps` is emitted in *topological order*: every edge
/// of the condensation goes from a lower-numbered component to a higher one.
#[derive(Debug, Clone)]
pub struct Condensation {
    /// Component id per register-graph vertex.
    pub comp_of: Vec<usize>,
    /// Vertices per component, in topological order of components.
    pub comps: Vec<Vec<usize>>,
    /// Condensation edges `c → d` (deduplicated, sorted), `c < d` guaranteed
    /// by the topological numbering.
    pub succs: Vec<Vec<usize>>,
    /// Whether the component is *cyclic*: more than one vertex, or a single
    /// vertex with a self-loop.
    pub cyclic: Vec<bool>,
}

/// Computes strongly connected components of `g` with an iterative Tarjan
/// algorithm and returns the condensation in topological order.
pub fn condense(g: &RegGraph) -> Condensation {
    let n = g.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comp_of = vec![usize::MAX; n];
    let mut comps_rev: Vec<Vec<usize>> = Vec::new();
    let mut counter = 0usize;

    // Iterative Tarjan: frame = (vertex, next-successor position).
    let mut call: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        call.push((start, 0));
        index[start] = counter;
        low[start] = counter;
        counter += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(&mut (v, ref mut pos)) = call.last_mut() {
            let succs = g.succs(v);
            if *pos < succs.len() {
                let w = succs[*pos] as usize;
                *pos += 1;
                if index[w] == usize::MAX {
                    index[w] = counter;
                    low[w] = counter;
                    counter += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp_of[w] = comps_rev.len();
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    comp.sort_unstable();
                    comps_rev.push(comp);
                }
            }
        }
    }

    // Tarjan emits components in reverse topological order; flip them.
    let num = comps_rev.len();
    comps_rev.reverse();
    for c in comp_of.iter_mut() {
        *c = num - 1 - *c;
    }
    let comps = comps_rev;

    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); num];
    let mut cyclic = vec![false; num];
    for v in 0..n {
        for &w in g.succs(v) {
            let (c, d) = (comp_of[v], comp_of[w as usize]);
            if c == d {
                cyclic[c] = true;
            } else {
                succs[c].push(d);
            }
        }
    }
    for (c, comp) in comps.iter().enumerate() {
        if comp.len() > 1 {
            cyclic[c] = true;
        }
    }
    for s in &mut succs {
        s.sort_unstable();
        s.dedup();
    }
    Condensation {
        comp_of,
        comps,
        succs,
        cyclic,
    }
}

/// Combinational level (depth in AND gates) per gate; inputs, registers and
/// the constant have level 0.
pub fn levels(n: &Netlist) -> Vec<u32> {
    let csr = n.csr();
    let mut lv = vec![0u32; n.num_gates()];
    for step in csr.and_plan() {
        let la = lv[(step.a >> 1) as usize];
        let lb = lv[(step.b >> 1) as usize];
        lv[step.gate as usize] = 1 + la.max(lb);
    }
    lv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Init, Netlist};

    /// Three-stage pipeline: i -> r0 -> r1 -> r2.
    fn pipeline() -> (Netlist, Vec<Gate>) {
        let mut n = Netlist::new();
        let i = n.input("i");
        let r0 = n.reg("r0", Init::Zero);
        let r1 = n.reg("r1", Init::Zero);
        let r2 = n.reg("r2", Init::Zero);
        n.set_next(r0, i.lit());
        n.set_next(r1, r0.lit());
        n.set_next(r2, r1.lit());
        (n, vec![r0, r1, r2])
    }

    #[test]
    fn coi_excludes_unreferenced_gates() {
        let (mut n, regs) = pipeline();
        let dead = n.input("dead");
        let c = coi(&n, [regs[2].lit()]);
        assert!(!c.contains(dead));
        assert_eq!(c.regs.len(), 3);
        assert_eq!(c.inputs.len(), 1);
    }

    #[test]
    fn coi_follows_init_cones() {
        let mut n = Netlist::new();
        let i = n.input("init_src");
        let r = n.reg("r", Init::Fn(i.lit()));
        n.set_next(r, r.lit());
        let c = coi(&n, [r.lit()]);
        assert!(c.contains(i));
    }

    #[test]
    fn support_stops_at_registers() {
        let mut n = Netlist::new();
        let i = n.input("i");
        let r = n.reg("r", Init::Zero);
        n.set_next(r, i.lit());
        let x = n.and(r.lit(), i.lit());
        let s = support(&n, x);
        assert_eq!(s.regs, vec![r]);
        assert_eq!(s.inputs, vec![i]);
    }

    #[test]
    fn pipeline_reg_graph_is_a_chain() {
        let (n, regs) = pipeline();
        let g = reg_graph(&n, &regs);
        assert_eq!(g.succs(0), &[1]);
        assert_eq!(g.succs(1), &[2]);
        assert!(g.succs(2).is_empty());
        assert_eq!(g.preds(2), &[1]);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn pipeline_condensation_is_acyclic_chain() {
        let (n, regs) = pipeline();
        let g = reg_graph(&n, &regs);
        let c = condense(&g);
        assert_eq!(c.comps.len(), 3);
        assert!(c.cyclic.iter().all(|&b| !b));
        // Topological numbering: edges go to strictly larger components.
        for (i, succs) in c.succs.iter().enumerate() {
            for &j in succs {
                assert!(j > i);
            }
        }
    }

    #[test]
    fn self_loop_is_cyclic_component() {
        let mut n = Netlist::new();
        let r = n.reg("r", Init::Zero);
        n.set_next(r, !r.lit());
        let g = reg_graph(&n, &[r]);
        let c = condense(&g);
        assert_eq!(c.comps.len(), 1);
        assert!(c.cyclic[0]);
    }

    #[test]
    fn two_register_loop_is_one_component() {
        let mut n = Netlist::new();
        let a = n.reg("a", Init::Zero);
        let b = n.reg("b", Init::Zero);
        n.set_next(a, b.lit());
        n.set_next(b, !a.lit());
        let g = reg_graph(&n, &[a, b]);
        let c = condense(&g);
        assert_eq!(c.comps.len(), 1);
        assert_eq!(c.comps[0], vec![0, 1]);
        assert!(c.cyclic[0]);
    }

    #[test]
    fn condensation_of_diamond() {
        // r0 feeds r1 and r2; both feed r3.
        let mut n = Netlist::new();
        let i = n.input("i");
        let r0 = n.reg("r0", Init::Zero);
        let r1 = n.reg("r1", Init::Zero);
        let r2 = n.reg("r2", Init::Zero);
        let r3 = n.reg("r3", Init::Zero);
        n.set_next(r0, i.lit());
        n.set_next(r1, r0.lit());
        n.set_next(r2, !r0.lit());
        let x = n.and(r1.lit(), r2.lit());
        n.set_next(r3, x);
        let g = reg_graph(&n, &[r0, r1, r2, r3]);
        let c = condense(&g);
        assert_eq!(c.comps.len(), 4);
        assert_eq!(c.comp_of[0], 0);
        assert_eq!(c.comp_of[3], 3);
    }

    #[test]
    fn empty_register_graph_condenses_trivially() {
        let n = Netlist::new();
        let g = reg_graph(&n, &[]);
        assert!(g.is_empty());
        assert_eq!(g.len(), 0);
        let c = condense(&g);
        assert!(c.comps.is_empty());
        assert!(c.succs.is_empty());
    }

    #[test]
    fn support_of_constant_is_empty() {
        let n = Netlist::new();
        let s = support(&n, crate::Lit::TRUE);
        assert!(s.regs.is_empty());
        assert!(s.inputs.is_empty());
    }

    #[test]
    fn levels_count_and_depth() {
        let mut n = Netlist::new();
        let a = n.input("a").lit();
        let b = n.input("b").lit();
        let c = n.input("c").lit();
        let x = n.and(a, b);
        let y = n.and(x, c);
        let lv = levels(&n);
        assert_eq!(lv[x.gate().index()], 1);
        assert_eq!(lv[y.gate().index()], 2);
    }
}
