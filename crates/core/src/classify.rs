//! Register and component classification — the structural taxonomy of \[7\]
//! that the paper's experiments report (`CC; AC; MC+QC; GC` columns of
//! Tables 1 and 2).
//!
//! * **CC** — *constant* registers: proven to hold a fixed value in every
//!   reachable state by a ternary constant-propagation fixpoint. They do not
//!   increase the diameter.
//! * **AC** — *acyclic* registers: non-cyclic vertices of the register
//!   dependency graph. A pipeline stage of arbitrary width adds exactly one
//!   to the diameter (parallel stages merge via `max` in the compositional
//!   walk).
//! * **MC/QC** — *memory/queue table cells*: registers whose next-state
//!   function is a hold/load mux `ite(h, r, d)` with the hold condition and
//!   load data independent of the cell. Cells are clustered into memories by
//!   the support of their hold conditions; a memory with `R` atomically
//!   updated rows (distinct hold conditions) multiplies the diameter by
//!   `R + 1` regardless of row width.
//! * **GC** — *general* components: everything else. Their diameter is
//!   assumed exponential in their register count (the paper deliberately
//!   makes the same pessimistic choice "for speed").
//!
//! A bounding pass classifies every target cone of one netlist. What
//! depends only on the netlist — the constant registers, each register's
//! table-cell test with its hold condition, and each general component's
//! eccentricity certificate — is computed once per [`Classifier`] and
//! shared by the cones. What depends on the register set — the dependency
//! graph, its condensation, the component kinds and the memory clusters
//! with their row counts — is computed per cone.

use crate::eccentricity::{component_cert, EccCert};
use crate::structural::StructuralOptions;
use diam_bdd::{Bdd, Manager};
use diam_netlist::analysis::{condense, reg_graph, support, Condensation};
use diam_netlist::csr::NodeKind;
use diam_netlist::{Gate, GateKind, Init, Lit, Netlist};
use diam_transform::bridge::cone_to_bdd;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// The structural class of a register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegClass {
    /// Constant in all reachable states (CC).
    Constant,
    /// Acyclic / pipeline register (AC).
    Acyclic,
    /// Memory or queue table cell (MC/QC).
    Table,
    /// General — part of an unstructured SCC (GC).
    General,
}

/// Per-class register counts, as reported in the paper's tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// Constant registers.
    pub constant: usize,
    /// Acyclic registers.
    pub acyclic: usize,
    /// Memory/queue table cells.
    pub table: usize,
    /// General registers.
    pub general: usize,
}

impl ClassCounts {
    /// Total registers counted.
    pub fn total(&self) -> usize {
        self.constant + self.acyclic + self.table + self.general
    }
}

impl std::fmt::Display for ClassCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{};{};{};{}",
            self.constant, self.acyclic, self.table, self.general
        )
    }
}

/// The kind of a condensation component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComponentKind {
    /// Acyclic singleton.
    Acyclic,
    /// A table cell belonging to memory cluster `cluster`.
    Table {
        /// Index into [`Classification::clusters`].
        cluster: usize,
    },
    /// General strongly connected component.
    General,
}

/// A memory cluster: table-cell components grouped by hold-condition
/// support.
#[derive(Debug, Clone)]
pub struct MemoryCluster {
    /// Component indices of the member cells.
    pub comps: Vec<usize>,
    /// Number of atomically updated rows (distinct hold conditions).
    pub rows: usize,
}

/// The complete classification of a register set.
#[derive(Debug, Clone)]
pub struct Classification {
    /// The non-constant registers, defining the vertex numbering of
    /// [`Classification::cond`].
    pub regs: Vec<Gate>,
    /// Constant registers (CC), with their proven values.
    pub constants: Vec<(Gate, bool)>,
    /// Condensation of the register dependency graph over `regs`.
    pub cond: Condensation,
    /// Kind per condensation component.
    pub kinds: Vec<ComponentKind>,
    /// Memory clusters.
    pub clusters: Vec<MemoryCluster>,
    /// Class per input register (parallel to the `regs` argument of
    /// [`classify`]).
    pub class_of: HashMap<Gate, RegClass>,
}

impl Classification {
    /// Aggregated per-class counts.
    pub fn counts(&self) -> ClassCounts {
        let mut c = ClassCounts::default();
        for class in self.class_of.values() {
            match class {
                RegClass::Constant => c.constant += 1,
                RegClass::Acyclic => c.acyclic += 1,
                RegClass::Table => c.table += 1,
                RegClass::General => c.general += 1,
            }
        }
        c
    }
}

/// Options controlling classification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassifyOptions {
    /// Give up on table-cell detection when a next-state function's support
    /// exceeds this many signals (the cell is then classified General).
    pub max_cell_support: usize,
}

impl Default for ClassifyOptions {
    fn default() -> ClassifyOptions {
        ClassifyOptions {
            max_cell_support: 24,
        }
    }
}

/// A ternary value for constant propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ternary {
    Zero,
    One,
    X,
}

impl Ternary {
    fn join(self, other: Ternary) -> Ternary {
        if self == other {
            self
        } else {
            Ternary::X
        }
    }

    fn complement(self, c: bool) -> Ternary {
        if !c {
            return self;
        }
        match self {
            Ternary::Zero => Ternary::One,
            Ternary::One => Ternary::Zero,
            Ternary::X => Ternary::X,
        }
    }
}

/// Computes the registers that hold a constant value in every reachable
/// state, by a ternary simulation fixpoint (inputs are `X`; register states
/// only ever widen toward `X`).
///
/// Implemented as a worklist over the netlist's cached fanout CSR: after one
/// in-order sweep over the topological AND plan seeds a consistent frame,
/// every later change is a widening to `X`, so each gate re-enters the
/// worklist at most once and the fixpoint costs `O(V + E)` instead of the
/// full-netlist re-sweep per widening round of the naive iteration.
pub fn constant_registers(n: &Netlist) -> Vec<(Gate, bool)> {
    let csr = n.csr();
    let mut values = vec![Ternary::X; n.num_gates()];
    values[Gate::CONST0.index()] = Ternary::Zero;
    for &r in n.regs() {
        values[r.index()] = match n.reg_init(r) {
            Init::Zero => Ternary::Zero,
            Init::One => Ternary::One,
            Init::Nondet | Init::Fn(_) => Ternary::X,
        };
    }
    let eval = |values: &[Ternary], l: Lit| values[l.gate().index()].complement(l.is_complement());
    let and3 = |va: Ternary, vb: Ternary| match (va, vb) {
        (Ternary::Zero, _) | (_, Ternary::Zero) => Ternary::Zero,
        (Ternary::One, Ternary::One) => Ternary::One,
        _ => Ternary::X,
    };
    // Initial frame from the register initial values.
    for step in csr.and_plan() {
        let va = values[(step.a >> 1) as usize].complement(step.a & 1 != 0);
        let vb = values[(step.b >> 1) as usize].complement(step.b & 1 != 0);
        values[step.gate as usize] = and3(va, vb);
    }
    // Seed: registers whose next-state value already widens their state.
    let mut work: Vec<u32> = Vec::new();
    for &r in n.regs() {
        let joined = values[r.index()].join(eval(&values, n.reg_next(r)));
        if joined != values[r.index()] {
            values[r.index()] = joined;
            work.push(r.index() as u32);
        }
    }
    // Monotone propagation: re-evaluate only the fanout of changed gates.
    while let Some(v) = work.pop() {
        for &w in csr.fanouts(v) {
            let new = match csr.kind(w) {
                NodeKind::And => {
                    let g = Gate::from_index(w as usize);
                    match n.kind(g) {
                        GateKind::And(a, b) => and3(eval(&values, a), eval(&values, b)),
                        _ => unreachable!("CSR kind disagrees with netlist"),
                    }
                }
                NodeKind::Reg => {
                    let g = Gate::from_index(w as usize);
                    values[w as usize].join(eval(&values, n.reg_next(g)))
                }
                NodeKind::Const0 | NodeKind::Input => continue,
            };
            if new != values[w as usize] {
                values[w as usize] = new;
                work.push(w);
            }
        }
    }
    n.regs()
        .iter()
        .filter_map(|&r| match values[r.index()] {
            Ternary::Zero => Some((r, false)),
            Ternary::One => Some((r, true)),
            Ternary::X => None,
        })
        .collect()
}

/// Classifies the registers `regs` of `n` (typically a target's cone of
/// influence): a one-shot [`Classifier`]. To classify several register
/// sets of one netlist, build one [`Classifier`] and reuse it.
pub fn classify(n: &Netlist, regs: &[Gate], opts: &ClassifyOptions) -> Classification {
    let opts = StructuralOptions {
        classify: opts.clone(),
        ..StructuralOptions::default()
    };
    Classifier::new(n, &opts).classify(regs)
}

/// The context of one bounding pass over one netlist: it classifies every
/// register set of the pass (the target cones of a table column, or of
/// `diam bound`) and bounds its targets under the [`StructuralOptions`] it
/// was built with (see [`crate::structural`]).
///
/// What depends only on the netlist is computed once and shared:
///
/// * the constant registers, one [`constant_registers`] fixpoint over the
///   whole netlist, run by the first [`Classifier::classify`] call (so the
///   time lands in that call's span);
/// * each register's table-cell test, run at most once: its hold condition,
///   kept as a BDD in one manager shared by every cell, and its cluster key;
/// * each general component's eccentricity certificate, computed at most
///   once under the pass's [`EccOptions`](crate::EccOptions), declines
///   included (obs counters `ecc.cache_miss` and `ecc.cache_hit`).
///
/// What depends on the register set is recomputed per call: the dependency
/// graph, its condensation, the component kinds, and the clusters with
/// their row counts. A cone's memory therefore counts only the rows it
/// reaches, and [`Classifier::classify`] returns exactly what a fresh
/// [`classify`] of the same registers returns.
///
/// The context is `Sync`, so parallel bounding jobs share it. Which job
/// fills a memo first changes nothing: hold conditions live in one
/// manager, where equal handles mean equal functions, the cluster key is
/// read off the hold condition's support, and a certificate depends only on
/// the component. A job that needs a certificate another job is computing
/// waits for it; if that job panics, the next one computes it again.
///
/// # Examples
///
/// ```
/// use diam_core::{Classifier, RegClass, StructuralOptions};
/// use diam_netlist::{Init, Netlist};
///
/// // Two one-bit cells written through one port, each seen by one target.
/// let mut n = Netlist::new();
/// let (we, a, d) = (n.input("we").lit(), n.input("a").lit(), n.input("d").lit());
/// let mut cells = Vec::new();
/// for row in 0..2 {
///     let wr = n.and(we, a.xor_complement(row == 0));
///     let r = n.reg(format!("m{row}"), Init::Zero);
///     let next = n.mux(wr, d, r.lit());
///     n.set_next(r, next);
///     cells.push(r);
/// }
/// let cx = Classifier::new(&n, &StructuralOptions::default());
/// for &cell in &cells {
///     let cone = cx.classify(&[cell]);
///     assert_eq!(cone.class_of[&cell], RegClass::Table);
///     assert_eq!(cone.clusters[0].rows, 1, "a cone counts only its own rows");
/// }
/// assert_eq!(cx.classify(&cells).clusters[0].rows, 2);
/// ```
#[derive(Debug)]
pub struct Classifier<'n> {
    n: &'n Netlist,
    opts: StructuralOptions,
    constants: OnceLock<HashMap<Gate, bool>>,
    cells: Mutex<CellMemo>,
    /// One slot per general component, keyed by its sorted registers.
    certs: Mutex<HashMap<Vec<Gate>, CertSlot>>,
}

/// A general component's certificate, once its first request computed it.
type CertSlot = Arc<OnceLock<Option<EccCert>>>;

/// The table-cell test per register, with the manager holding every hold
/// condition and a dense index per distinct cluster key.
#[derive(Debug)]
struct CellMemo {
    manager: Manager,
    cell_of: HashMap<Gate, Option<Cell>>,
    keys: HashMap<Vec<Gate>, usize>,
}

/// A register that passed the table-cell test.
#[derive(Debug, Clone, Copy)]
struct Cell {
    /// The hold condition, in [`CellMemo::manager`].
    hold: Bdd,
    /// The index of the cluster key in [`CellMemo::keys`].
    key: usize,
}

impl<'n> Classifier<'n> {
    /// A bounding pass over `n` under `opts`; computes nothing until the
    /// first [`Classifier::classify`].
    pub fn new(n: &'n Netlist, opts: &StructuralOptions) -> Classifier<'n> {
        Classifier {
            n,
            opts: opts.clone(),
            constants: OnceLock::new(),
            cells: Mutex::new(CellMemo {
                manager: Manager::new(),
                cell_of: HashMap::new(),
                keys: HashMap::new(),
            }),
            certs: Mutex::default(),
        }
    }

    /// The netlist this pass classifies.
    pub fn netlist(&self) -> &'n Netlist {
        self.n
    }

    /// The options this pass was built with.
    pub fn options(&self) -> &StructuralOptions {
        &self.opts
    }

    /// Classifies the registers `regs` of the netlist (typically a target's
    /// cone of influence).
    pub fn classify(&self, regs: &[Gate]) -> Classification {
        // CC detection runs once on the whole netlist and is filtered.
        let const_set = self
            .constants
            .get_or_init(|| constant_registers(self.n).into_iter().collect());
        let constants: Vec<(Gate, bool)> = regs
            .iter()
            .filter_map(|&r| const_set.get(&r).map(|&v| (r, v)))
            .collect();

        // Build the dependency graph over the non-constant registers:
        // constant registers carry no temporal information, so edges
        // through them are dropped.
        let live: Vec<Gate> = regs
            .iter()
            .copied()
            .filter(|r| !const_set.contains_key(r))
            .collect();
        let graph = reg_graph(self.n, &live);
        let cond = condense(&graph);

        // Classify components. Clusters are numbered in order of first
        // appearance in this register set; each collects (comp, h-bdd).
        let mut kinds: Vec<ComponentKind> = Vec::with_capacity(cond.comps.len());
        let mut cluster_index: HashMap<usize, usize> = HashMap::new();
        let mut cluster_members: Vec<Vec<(usize, Bdd)>> = Vec::new();
        for (c, comp) in cond.comps.iter().enumerate() {
            if !cond.cyclic[c] {
                kinds.push(ComponentKind::Acyclic);
                continue;
            }
            if comp.len() > 1 {
                kinds.push(ComponentKind::General);
                continue;
            }
            // Singleton with a self-loop: test for the hold/load mux shape.
            match self.cell(live[comp[0]]) {
                Some(cell) => {
                    let idx = *cluster_index.entry(cell.key).or_insert_with(|| {
                        cluster_members.push(Vec::new());
                        cluster_members.len() - 1
                    });
                    cluster_members[idx].push((c, cell.hold));
                    kinds.push(ComponentKind::Table { cluster: idx });
                }
                None => kinds.push(ComponentKind::General),
            }
        }

        let clusters: Vec<MemoryCluster> = cluster_members
            .into_iter()
            .map(|members| {
                let mut hs: Vec<Bdd> = members.iter().map(|&(_, h)| h).collect();
                hs.sort();
                hs.dedup();
                MemoryCluster {
                    comps: members.iter().map(|&(c, _)| c).collect(),
                    rows: hs.len(),
                }
            })
            .collect();

        // Per-register class map.
        let mut class_of: HashMap<Gate, RegClass> = HashMap::new();
        for &(r, _) in &constants {
            class_of.insert(r, RegClass::Constant);
        }
        for (pos, &r) in live.iter().enumerate() {
            let c = cond.comp_of[pos];
            let class = match kinds[c] {
                ComponentKind::Acyclic => RegClass::Acyclic,
                ComponentKind::Table { .. } => RegClass::Table,
                ComponentKind::General => RegClass::General,
            };
            class_of.insert(r, class);
        }

        Classification {
            regs: live,
            constants,
            cond,
            kinds,
            clusters,
            class_of,
        }
    }

    /// The table-cell test of register `r`, run on its first request.
    fn cell(&self, r: Gate) -> Option<Cell> {
        let mut memo = self
            .cells
            .lock()
            .expect("no job panics while it tests a table cell");
        let CellMemo {
            manager,
            cell_of,
            keys,
        } = &mut *memo;
        *cell_of.entry(r).or_insert_with(|| {
            let hold = table_cell_hold(manager, self.n, r, self.opts.classify.max_cell_support)?;
            let fresh = keys.len();
            let key = *keys
                .entry(cluster_key(manager, self.n, hold))
                .or_insert(fresh);
            Some(Cell { hold, key })
        })
    }

    /// The eccentricity certificate of the general component `comp`,
    /// computed on its first request ([`component_cert`]).
    pub(crate) fn certificate(&self, comp: &[Gate]) -> Option<EccCert> {
        let ecc = &self.opts.ecc;
        if !ecc.enabled || comp.len() > ecc.cutoff {
            return None;
        }
        let mut regs = comp.to_vec();
        regs.sort();
        let slot = Arc::clone(
            self.certs
                .lock()
                .expect("no job panics while it holds the certificate map")
                .entry(regs)
                .or_default(),
        );
        let mut computed = false;
        let cert = *slot.get_or_init(|| {
            computed = true;
            component_cert(self.n, comp, ecc)
        });
        let counter = if computed {
            "ecc.cache_miss"
        } else {
            "ecc.cache_hit"
        };
        diam_obs::counter_add(counter, 1);
        cert
    }
}

/// The cluster key of a cell with hold condition `h`: the non-register
/// support of `h` (the shared write port — enables, addresses), so rows
/// selected by different pointer registers (queues) still cluster into one
/// memory. Registers are kept in the key only when nothing else identifies
/// the port.
fn cluster_key(m: &Manager, n: &Netlist, h: Bdd) -> Vec<Gate> {
    let full: Vec<Gate> = m
        .support(h)
        .iter()
        .map(|&v| Gate::from_index(v as usize))
        .collect();
    let inputs_only: Vec<Gate> = full.iter().copied().filter(|&g| !n.is_reg(g)).collect();
    if inputs_only.is_empty() {
        full
    } else {
        inputs_only
    }
}

/// If register `r`'s next-state function has the hold/load shape
/// `ite(h, r, d)` with `h`, `d` independent of `r`, returns the hold
/// condition `h` as a BDD over gate-indexed variables. The shape test is
/// monotonicity in `r`: `f|r=0 ⇒ f|r=1`.
fn table_cell_hold(m: &mut Manager, n: &Netlist, r: Gate, max_support: usize) -> Option<Bdd> {
    let f_lit = n.reg_next(r);
    let sup = support(n, f_lit);
    if sup.regs.len() + sup.inputs.len() > max_support {
        return None;
    }
    // Variables are gate indices (shared across all cells so hold conditions
    // from different cells are comparable).
    let var_of = |g: Gate| Some(u32::try_from(g.index()).expect("gate index fits u32"));
    let f = cone_to_bdd(m, n, f_lit, &var_of);
    let rv = r.index() as u32;
    let f1 = m.restrict(f, rv, true);
    let f0 = m.restrict(f, rv, false);
    if !m.implies_check(f0, f1) {
        return None; // not monotone in r: not a hold/load cell
    }
    // Degenerate cells whose next value ignores r entirely are pipeline-like
    // (no real self-dependence) — but a true self-loop always depends on r.
    if f0 == f1 {
        return None;
    }
    Some(m.diff(f1, f0))
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops mirror the math here
mod tests {
    use super::*;
    use diam_netlist::Lit;

    #[test]
    fn constants_are_detected() {
        let mut n = Netlist::new();
        let stuck0 = n.reg("stuck0", Init::Zero);
        n.set_next(stuck0, stuck0.lit());
        let stuck1 = n.reg("stuck1", Init::One);
        n.set_next(stuck1, stuck1.lit());
        let i = n.input("i");
        let free = n.reg("free", Init::Zero);
        n.set_next(free, i.lit());
        n.add_target(free.lit(), "t");
        let consts = constant_registers(&n);
        assert_eq!(consts, vec![(stuck0, false), (stuck1, true)]);
    }

    #[test]
    fn constant_propagates_through_logic() {
        // r2 = r1 AND input; r1 constant 0 ⇒ r2 constant 0.
        let mut n = Netlist::new();
        let i = n.input("i");
        let r1 = n.reg("r1", Init::Zero);
        n.set_next(r1, r1.lit());
        let x = n.and(r1.lit(), i.lit());
        let r2 = n.reg("r2", Init::Zero);
        n.set_next(r2, x);
        n.add_target(r2.lit(), "t");
        let consts = constant_registers(&n);
        assert!(consts.contains(&(r1, false)));
        assert!(consts.contains(&(r2, false)));
    }

    #[test]
    fn pipeline_is_acyclic() {
        let mut n = Netlist::new();
        let i = n.input("i");
        let r0 = n.reg("r0", Init::Zero);
        let r1 = n.reg("r1", Init::Zero);
        n.set_next(r0, i.lit());
        n.set_next(r1, r0.lit());
        n.add_target(r1.lit(), "t");
        let c = classify(&n, &[r0, r1], &ClassifyOptions::default());
        assert_eq!(c.class_of[&r0], RegClass::Acyclic);
        assert_eq!(c.class_of[&r1], RegClass::Acyclic);
        let counts = c.counts();
        assert_eq!(counts.acyclic, 2);
        assert_eq!(counts.total(), 2);
    }

    #[test]
    fn hold_register_is_table_cell() {
        let mut n = Netlist::new();
        let we = n.input("we");
        let d = n.input("d");
        let r = n.reg("cell", Init::Zero);
        let nx = n.mux(we.lit(), d.lit(), r.lit());
        n.set_next(r, nx);
        n.add_target(r.lit(), "t");
        let c = classify(&n, &[r], &ClassifyOptions::default());
        assert_eq!(c.class_of[&r], RegClass::Table);
        assert_eq!(c.clusters.len(), 1);
        assert_eq!(c.clusters[0].rows, 1);
    }

    #[test]
    fn toggle_register_is_general() {
        let mut n = Netlist::new();
        let r = n.reg("t", Init::Zero);
        n.set_next(r, !r.lit());
        n.add_target(r.lit(), "t");
        let c = classify(&n, &[r], &ClassifyOptions::default());
        assert_eq!(c.class_of[&r], RegClass::General);
    }

    #[test]
    fn multi_register_scc_is_general() {
        let mut n = Netlist::new();
        let a = n.reg("a", Init::Zero);
        let b = n.reg("b", Init::Zero);
        n.set_next(a, !b.lit());
        n.set_next(b, a.lit());
        n.add_target(a.lit(), "t");
        let c = classify(&n, &[a, b], &ClassifyOptions::default());
        assert_eq!(c.class_of[&a], RegClass::General);
        assert_eq!(c.class_of[&b], RegClass::General);
    }

    #[test]
    fn register_file_rows_are_clustered() {
        // 4 rows × 2 bits, one-hot row select derived from 2 address bits.
        let mut n = Netlist::new();
        let we = n.input("we").lit();
        let a0 = n.input("a0").lit();
        let a1 = n.input("a1").lit();
        let d: Vec<Lit> = (0..2).map(|k| n.input(format!("d{k}")).lit()).collect();
        let mut cells = Vec::new();
        for row in 0..4u32 {
            let sel0 = a0.xor_complement(row & 1 == 0);
            let sel1 = a1.xor_complement(row >> 1 & 1 == 0);
            let sel = n.and(sel0, sel1);
            let wr = n.and(we, sel);
            for bit in 0..2 {
                let r = n.reg(format!("m{row}_{bit}"), Init::Zero);
                let nx = n.mux(wr, d[bit], r.lit());
                n.set_next(r, nx);
                cells.push(r);
            }
        }
        let read = n.and(cells[0].lit(), cells[7].lit());
        n.add_target(read, "t");
        let c = classify(&n, &cells, &ClassifyOptions::default());
        let counts = c.counts();
        assert_eq!(counts.table, 8);
        assert_eq!(c.clusters.len(), 1, "one memory");
        assert_eq!(c.clusters[0].rows, 4, "four atomically updated rows");
    }

    #[test]
    fn sticky_bit_is_a_one_row_table() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let r = n.reg("sticky", Init::Zero);
        let nx = n.or(r.lit(), a.lit());
        n.set_next(r, nx);
        n.add_target(r.lit(), "t");
        let c = classify(&n, &[r], &ClassifyOptions::default());
        assert_eq!(c.class_of[&r], RegClass::Table);
    }

    #[test]
    fn mixed_design_counts() {
        let mut n = Netlist::new();
        let i = n.input("i");
        let we = n.input("we");
        // constant
        let c0 = n.reg("c0", Init::One);
        n.set_next(c0, c0.lit());
        // acyclic
        let p = n.reg("p", Init::Zero);
        n.set_next(p, i.lit());
        // table
        let m0 = n.reg("m0", Init::Zero);
        let nx = n.mux(we.lit(), i.lit(), m0.lit());
        n.set_next(m0, nx);
        // general
        let t = n.reg("t", Init::Zero);
        n.set_next(t, !t.lit());
        let x = n.and(p.lit(), m0.lit());
        let y = n.and(x, t.lit());
        let z = n.and(y, c0.lit());
        n.add_target(z, "t");
        let c = classify(&n, &[c0, p, m0, t], &ClassifyOptions::default());
        let counts = c.counts();
        assert_eq!(
            (
                counts.constant,
                counts.acyclic,
                counts.table,
                counts.general
            ),
            (1, 1, 1, 1)
        );
    }

    /// The per-call classification [`Classifier`] replaced, kept verbatim
    /// as its reference: a whole-netlist constant pass and a fresh BDD
    /// manager per call, and a table-cell test for every self-looped
    /// singleton of every call.
    fn classify_reference(n: &Netlist, regs: &[Gate], opts: &ClassifyOptions) -> Classification {
        // CC detection runs on the whole netlist (cheap) and is filtered.
        let all_constants = constant_registers(n);
        let const_set: HashMap<Gate, bool> = all_constants.iter().copied().collect();
        let constants: Vec<(Gate, bool)> = regs
            .iter()
            .filter_map(|&r| const_set.get(&r).map(|&v| (r, v)))
            .collect();

        // Build the dependency graph over the non-constant registers: constant
        // registers carry no temporal information, so edges through them are
        // dropped.
        let live: Vec<Gate> = regs
            .iter()
            .copied()
            .filter(|r| !const_set.contains_key(r))
            .collect();
        let graph = reg_graph(n, &live);
        let cond = condense(&graph);

        // Classify components.
        let mut manager = Manager::new();
        let mut kinds: Vec<ComponentKind> = Vec::with_capacity(cond.comps.len());
        // Cluster key → cluster index; clusters collect (comp, h-bdd).
        let mut cluster_index: HashMap<Vec<Gate>, usize> = HashMap::new();
        let mut cluster_members: Vec<Vec<(usize, Bdd)>> = Vec::new();

        for (c, comp) in cond.comps.iter().enumerate() {
            if !cond.cyclic[c] {
                kinds.push(ComponentKind::Acyclic);
                continue;
            }
            if comp.len() > 1 {
                kinds.push(ComponentKind::General);
                continue;
            }
            // Singleton with a self-loop: test for the hold/load mux shape.
            let r = live[comp[0]];
            match table_cell_hold(&mut manager, n, r, opts.max_cell_support) {
                Some(h) => {
                    // Cluster key: the non-register support of the hold
                    // condition (the shared write port — enables, addresses),
                    // so rows selected by different pointer registers (queues)
                    // still cluster into one memory. Registers are kept in the
                    // key only when nothing else identifies the port.
                    let full: Vec<Gate> = manager
                        .support(h)
                        .iter()
                        .map(|&v| Gate::from_index(v as usize))
                        .collect();
                    let inputs_only: Vec<Gate> =
                        full.iter().copied().filter(|&g| !n.is_reg(g)).collect();
                    let key = if inputs_only.is_empty() {
                        full
                    } else {
                        inputs_only
                    };
                    let idx = *cluster_index.entry(key).or_insert_with(|| {
                        cluster_members.push(Vec::new());
                        cluster_members.len() - 1
                    });
                    cluster_members[idx].push((c, h));
                    kinds.push(ComponentKind::Table { cluster: idx });
                }
                None => kinds.push(ComponentKind::General),
            }
        }

        let clusters: Vec<MemoryCluster> = cluster_members
            .into_iter()
            .map(|members| {
                let mut hs: Vec<Bdd> = members.iter().map(|&(_, h)| h).collect();
                hs.sort();
                hs.dedup();
                MemoryCluster {
                    comps: members.iter().map(|&(c, _)| c).collect(),
                    rows: hs.len(),
                }
            })
            .collect();

        // Per-register class map.
        let mut class_of: HashMap<Gate, RegClass> = HashMap::new();
        for &(r, _) in &constants {
            class_of.insert(r, RegClass::Constant);
        }
        for (pos, &r) in live.iter().enumerate() {
            let c = cond.comp_of[pos];
            let class = match kinds[c] {
                ComponentKind::Acyclic => RegClass::Acyclic,
                ComponentKind::Table { .. } => RegClass::Table,
                ComponentKind::General => RegClass::General,
            };
            class_of.insert(r, class);
        }

        Classification {
            regs: live,
            constants,
            cond,
            kinds,
            clusters,
            class_of,
        }
    }

    /// A multi-target netlist composed of `diam_gen` archetypes, so that
    /// its target cones reach what the shared classifier must keep per
    /// cone: register files and a queue whose rows are split across
    /// targets, constant registers (one of them gating logic), counters
    /// (self-looped bits that fail the hold test), multi-register rings,
    /// sticky bits, cells written through a register-only port, and cells
    /// whose write enable is an AND of up to 8 inputs.
    fn archetype_soup(seed: u64) -> Netlist {
        use diam_gen::archetypes as arch;
        use diam_netlist::sim::SplitMix64;
        let mut rng = SplitMix64::new(seed);
        let mut n = Netlist::new();
        let mut observe: Vec<Vec<Lit>> = Vec::new();
        for k in 0..1 + rng.below(2) {
            let rows = 1 + rng.below(5) as usize;
            let mem =
                arch::register_file(&mut n, &format!("rf{k}"), rows, 1 + rng.below(3) as usize);
            for row in &mem.cells {
                observe.push(row.iter().map(|r| r.lit()).collect());
            }
        }
        let fifo = arch::fifo(&mut n, "q", 2 + rng.below(4) as usize);
        observe.extend(fifo.cells.iter().map(|r| vec![r.lit()]));
        let consts = arch::constants(&mut n, "c", 1 + rng.below(3) as usize);
        observe.push(consts.iter().map(|r| r.lit()).collect());
        let en = n.input("en").lit();
        let gated = n.and(en, !consts[0].lit());
        let counter = arch::counter(&mut n, "cnt", 1 + rng.below(4) as usize, gated);
        observe.push(vec![counter.all_ones]);
        let ring = if rng.bool() {
            arch::token_ring(&mut n, "ring", 2 + rng.below(3) as usize, en)
        } else {
            arch::lfsr(&mut n, "lfsr", 2 + rng.below(3) as usize, en)
        };
        observe.push(vec![ring[0].lit()]);
        let pipe = arch::pipeline(&mut n, "p", 1 + rng.below(3) as usize);
        for (k, &stage) in pipe.regs.iter().enumerate() {
            // A cell loaded whenever a pipeline stage is set: its port is
            // identified by registers only.
            let d = n.input(format!("pd{k}")).lit();
            let r = n.reg(format!("pc{k}"), Init::Zero);
            let next = n.mux(stage.lit(), d, r.lit());
            n.set_next(r, next);
            observe.push(vec![r.lit()]);
        }
        for k in 0..1 + rng.below(3) {
            let sticky = n.reg(format!("sticky{k}"), Init::Zero);
            let set = n.input(format!("set{k}")).lit();
            let next = n.or(sticky.lit(), set);
            n.set_next(sticky, next);
            observe.push(vec![sticky.lit()]);
        }
        for k in 0..1 + rng.below(3) {
            let width = 2 + rng.below(7);
            let enables: Vec<Lit> = (0..width)
                .map(|b| n.input(format!("w{k}_{b}")).lit())
                .collect();
            let we = n.and_many(enables);
            let d = n.input(format!("wd{k}")).lit();
            let r = n.reg(format!("wide{k}"), Init::Zero);
            let next = n.mux(we, d, r.lit());
            n.set_next(r, next);
            observe.push(vec![r.lit()]);
        }
        for k in 0..3 + rng.below(5) {
            let mut lits: Vec<Lit> = Vec::new();
            for _ in 0..1 + rng.below(3) {
                let group = &observe[rng.below(observe.len() as u64) as usize];
                lits.extend(group.iter().filter(|_| rng.below(3) != 0));
                lits.push(group[0]);
            }
            let t = n.and_many(lits);
            n.add_target(t, format!("t{k}"));
        }
        n
    }

    /// Asserts that two classifications agree field for field.
    fn assert_same(got: &Classification, want: &Classification, what: &str) {
        assert_eq!(got.regs, want.regs, "{what}: regs");
        assert_eq!(got.constants, want.constants, "{what}: constants");
        assert_eq!(got.cond.comp_of, want.cond.comp_of, "{what}: comp_of");
        assert_eq!(got.cond.comps, want.cond.comps, "{what}: comps");
        assert_eq!(got.cond.succs, want.cond.succs, "{what}: succs");
        assert_eq!(got.cond.cyclic, want.cond.cyclic, "{what}: cyclic");
        assert_eq!(got.kinds, want.kinds, "{what}: kinds");
        let clusters = |c: &Classification| -> Vec<(Vec<usize>, usize)> {
            c.clusters
                .iter()
                .map(|m| (m.comps.clone(), m.rows))
                .collect()
        };
        assert_eq!(clusters(got), clusters(want), "{what}: clusters");
        assert_eq!(got.class_of, want.class_of, "{what}: class_of");
    }

    /// The register sets of one bounding pass: every target cone, then the
    /// whole netlist (a table column classifies both).
    fn pass_register_sets(n: &Netlist) -> Vec<Vec<Gate>> {
        let mut sets: Vec<Vec<Gate>> = n
            .targets()
            .iter()
            .map(|t| diam_netlist::analysis::coi(n, [t.lit]).regs)
            .collect();
        sets.push(n.regs().to_vec());
        sets
    }

    /// The generator reaches every shape the differential test is about,
    /// on most seeds.
    #[test]
    fn archetype_soup_reaches_the_shapes_that_matter() {
        let opts = StructuralOptions {
            classify: ClassifyOptions {
                max_cell_support: 8,
            },
            ..StructuralOptions::default()
        };
        let (mut split_rows, mut constants, mut sccs, mut failed_hold, mut too_wide) =
            (0, 0, 0, 0, 0);
        for seed in 0..32 {
            let n = archetype_soup(seed);
            let sets = pass_register_sets(&n);
            let cx = Classifier::new(&n, &opts);
            let whole = cx.classify(n.regs());
            let whole_rows: HashMap<Gate, usize> = whole
                .clusters
                .iter()
                .flat_map(|m| m.comps.iter().map(move |&c| (c, m.rows)))
                .map(|(c, rows)| (whole.regs[whole.cond.comps[c][0]], rows))
                .collect();
            let cones: Vec<Classification> = sets.iter().map(|regs| cx.classify(regs)).collect();
            split_rows += usize::from(cones.iter().any(|cl| {
                cl.clusters.iter().any(|m| {
                    let r = cl.regs[cl.cond.comps[m.comps[0]][0]];
                    m.rows < whole_rows[&r]
                })
            }));
            constants += usize::from(!whole.constants.is_empty());
            sccs += usize::from(whole.cond.comps.iter().any(|c| c.len() > 1));
            let singletons_general = |wide: bool| {
                (0..whole.cond.comps.len()).any(|c| {
                    let comp = &whole.cond.comps[c];
                    let r = whole.regs[comp[0]];
                    let sup = support(&n, n.reg_next(r));
                    comp.len() == 1
                        && whole.cond.cyclic[c]
                        && whole.kinds[c] == ComponentKind::General
                        && (sup.regs.len() + sup.inputs.len() > opts.classify.max_cell_support)
                            == wide
                })
            };
            failed_hold += usize::from(singletons_general(false));
            too_wide += usize::from(singletons_general(true));
        }
        for (what, hits) in [
            ("rows split across targets", split_rows),
            ("constants", constants),
            ("multi-register SCCs", sccs),
            ("failed hold tests", failed_hold),
            ("cells over the support cap", too_wide),
        ] {
            assert!(hits >= 16, "{what}: {hits} of 32 seeds");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Every register set of a bounding pass, classified through one
        /// shared [`Classifier`] in index order and through a fresh one in
        /// reverse order, equals the per-call reference field for field,
        /// and so do its bound factors.
        #[test]
        fn classifier_matches_the_per_call_reference(
            seed in proptest::prelude::any::<u64>(),
            max_cell_support in 2usize..=12,
        ) {
            let n = archetype_soup(seed);
            let opts = StructuralOptions {
                classify: ClassifyOptions { max_cell_support },
                ..StructuralOptions::default()
            };
            let sets = pass_register_sets(&n);
            let want: Vec<Classification> = sets
                .iter()
                .map(|regs| classify_reference(&n, regs, &opts.classify))
                .collect();
            let forward = Classifier::new(&n, &opts);
            let backward = Classifier::new(&n, &opts);
            let order: Vec<(usize, &Classifier, &str)> = (0..sets.len())
                .map(|i| (i, &forward, "forward"))
                .chain((0..sets.len()).rev().map(|i| (i, &backward, "backward")))
                .collect();
            for (i, cx, pass) in order {
                let got = cx.classify(&sets[i]);
                assert_same(&got, &want[i], &format!("{pass} set {i}"));
                proptest::prop_assert_eq!(cx.factors(&got), cx.factors(&want[i]));
            }
        }
    }
}
