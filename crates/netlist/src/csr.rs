//! Compact CSR (compressed sparse row) adjacency over a [`Netlist`].
//!
//! Every structural analysis — cone of influence, combinational supports,
//! the register dependency graph, levelization, simulation order — is a
//! graph traversal. On the million-gate AIGs the ROADMAP targets, walking
//! the `Vec`-of-gates representation with per-call `HashSet`/`Vec<bool>`
//! marks is cache-hostile and allocation-heavy; the diameter literature
//! (Magnien–Latapy–Habib) frames these workloads as "cheap BFS sweeps over
//! a compact adjacency". [`Csr`] is that adjacency: contiguous `u32` fanin
//! and fanout edge arrays plus a payload-free kind code per gate and a flat
//! AND evaluation plan for the simulator.
//!
//! A [`Csr`] is built once per netlist via [`Netlist::csr`](crate::Netlist::csr)
//! and cached; every structural mutation invalidates the cache. Debug builds
//! watch that contract: there the CSR records the
//! [`stats::fingerprint`](crate::stats::fingerprint) of the netlist it was
//! built from, and the accessor asserts that it still matches. Release
//! builds skip the fingerprint, a full pass over the netlist that nothing
//! else reads.
//!
//! Traversal membership uses [`Marks`], a dense bitvec with O(1) contains —
//! the replacement for the ad-hoc `vec![false; n]` / `HashSet` marks the
//! analyses used previously.

use crate::{GateKind, Init, Netlist};

/// Payload-free gate kind code stored per node in the [`Csr`].
///
/// The fanin payload of [`GateKind::And`] lives in the CSR edge arrays (and
/// in the [`AndStep`] plan with complement bits), so the per-node kind fits
/// in one byte and kind scans stay cache-friendly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum NodeKind {
    /// The constant-false gate (gate 0).
    Const0 = 0,
    /// A primary input (no fanin).
    Input = 1,
    /// A two-input AND.
    And = 2,
    /// A register; fanin edges point at its next-state cone (and its
    /// `Init::Fn` cone when present).
    Reg = 3,
}

/// A dense bit-set over gate indices with O(1) membership.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Marks {
    words: Vec<u64>,
    len: usize,
}

impl Marks {
    /// An all-clear set over `len` gate indices.
    pub fn new(len: usize) -> Marks {
        Marks {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Number of indices the set ranges over.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set ranges over zero indices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether index `i` is set.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        self.words[i >> 6] & (1u64 << (i & 63)) != 0
    }

    /// Sets index `i`; returns `true` if it was newly set.
    #[inline]
    pub fn set(&mut self, i: usize) -> bool {
        let w = &mut self.words[i >> 6];
        let bit = 1u64 << (i & 63);
        let fresh = *w & bit == 0;
        *w |= bit;
        fresh
    }

    /// Clears index `i`.
    #[inline]
    pub fn unset(&mut self, i: usize) {
        self.words[i >> 6] &= !(1u64 << (i & 63));
    }

    /// Clears the whole set (O(len/64); prefer [`Marks::unset`] over the
    /// touched indices when resetting a scratch set between small
    /// traversals).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of set indices.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the set indices in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some((wi << 6) | b)
                }
            })
        })
    }
}

/// One AND gate in topological (index) order: the flat evaluation plan the
/// bit-parallel simulator and the levelizer iterate instead of re-matching
/// [`GateKind`] per gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AndStep {
    /// Gate index of the AND.
    pub gate: u32,
    /// Packed literal code (`gate << 1 | complement`) of the first operand.
    pub a: u32,
    /// Packed literal code of the second operand.
    pub b: u32,
}

/// Compressed-sparse-row adjacency of a [`Netlist`].
///
/// Fanin edges of an AND are its two operand gates; fanin edges of a
/// register are its next-state root gate plus, for [`Init::Fn`] resets, the
/// initial-value root gate. Fanout is the exact transpose. Complement bits
/// are irrelevant to reachability and are dropped from the edge arrays; the
/// simulator reads them from the [`AndStep`] plan.
#[derive(Debug, Clone)]
pub struct Csr {
    kinds: Vec<NodeKind>,
    fanin_off: Vec<u32>,
    fanin: Vec<u32>,
    fanout_off: Vec<u32>,
    fanout: Vec<u32>,
    and_plan: Vec<AndStep>,
    #[cfg(debug_assertions)]
    fingerprint: u64,
}

impl Csr {
    /// Builds the CSR of `n` (two passes over the gate table; O(V+E)).
    pub fn build(n: &Netlist) -> Csr {
        let num = n.num_gates();
        let mut kinds = Vec::with_capacity(num);
        let mut fanin_off = Vec::with_capacity(num + 1);
        fanin_off.push(0u32);
        let mut edges = 0u32;
        let mut and_count = 0usize;
        for g in n.gates() {
            let (kind, deg) = match n.kind(g) {
                GateKind::Const0 => (NodeKind::Const0, 0),
                GateKind::Input => (NodeKind::Input, 0),
                GateKind::And(..) => {
                    and_count += 1;
                    (NodeKind::And, 2)
                }
                GateKind::Reg => (
                    NodeKind::Reg,
                    if matches!(n.reg_init(g), Init::Fn(_)) {
                        2
                    } else {
                        1
                    },
                ),
            };
            kinds.push(kind);
            edges += deg;
            fanin_off.push(edges);
        }

        // Gates fill their fanin runs in index order, so the runs come out
        // at the offsets just computed.
        let mut fanin = Vec::with_capacity(edges as usize);
        let mut and_plan = Vec::with_capacity(and_count);
        for g in n.gates() {
            match n.kind(g) {
                GateKind::And(a, b) => {
                    fanin.push(a.gate().index() as u32);
                    fanin.push(b.gate().index() as u32);
                    and_plan.push(AndStep {
                        gate: g.index() as u32,
                        a: a.code(),
                        b: b.code(),
                    });
                }
                GateKind::Reg => {
                    fanin.push(n.reg_next(g).gate().index() as u32);
                    if let Init::Fn(l) = n.reg_init(g) {
                        fanin.push(l.gate().index() as u32);
                    }
                }
                GateKind::Const0 | GateKind::Input => {}
            }
        }

        // Transpose: `fanout_off[w]` first counts w's fanouts, then holds the
        // end of w's run; filling from the last consumer back moves it to
        // the start, and leaves each run sorted by consumer index.
        let mut fanout_off = vec![0u32; num + 1];
        for &w in &fanin {
            fanout_off[w as usize] += 1;
        }
        let mut sum = 0;
        for off in &mut fanout_off {
            sum += *off;
            *off = sum;
        }
        let mut fanout = vec![0u32; fanin.len()];
        for g in (0..num).rev() {
            for &f in &fanin[fanin_off[g] as usize..fanin_off[g + 1] as usize] {
                let w = f as usize;
                fanout_off[w] -= 1;
                fanout[fanout_off[w] as usize] = g as u32;
            }
        }

        Csr {
            kinds,
            fanin_off,
            fanin,
            fanout_off,
            fanout,
            and_plan,
            #[cfg(debug_assertions)]
            fingerprint: crate::stats::fingerprint(n),
        }
    }

    /// Number of nodes (gates, including the constant).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// The kind code of node `v`.
    #[inline]
    pub fn kind(&self, v: u32) -> NodeKind {
        self.kinds[v as usize]
    }

    /// Fanin gate indices of node `v` (operands, or next/init cone roots of
    /// a register).
    #[inline]
    pub fn fanins(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.fanin[self.fanin_off[v] as usize..self.fanin_off[v + 1] as usize]
    }

    /// Fanout gate indices of node `v`, sorted ascending (duplicates appear
    /// when one consumer reads `v` through two edges).
    #[inline]
    pub fn fanouts(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.fanout[self.fanout_off[v] as usize..self.fanout_off[v + 1] as usize]
    }

    /// Fanout degree of node `v` (edge count, excluding target references).
    #[inline]
    pub fn fanout_degree(&self, v: u32) -> usize {
        self.fanouts(v).len()
    }

    /// The AND gates in topological (index) order with packed operand codes.
    #[inline]
    pub fn and_plan(&self) -> &[AndStep] {
        &self.and_plan
    }

    /// The [`stats::fingerprint`](crate::stats::fingerprint) of the netlist
    /// this CSR was built from (debug builds only).
    #[cfg(debug_assertions)]
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Init, Netlist};

    #[test]
    fn marks_set_get_unset() {
        let mut m = Marks::new(130);
        assert_eq!(m.len(), 130);
        assert!(m.set(0));
        assert!(m.set(129));
        assert!(!m.set(129), "second set reports already-present");
        assert!(m.get(0) && m.get(129) && !m.get(64));
        assert_eq!(m.count(), 2);
        assert_eq!(m.iter_ones().collect::<Vec<_>>(), vec![0, 129]);
        m.unset(0);
        assert!(!m.get(0));
        m.clear();
        assert_eq!(m.count(), 0);
    }

    #[test]
    fn csr_mirrors_netlist_edges() {
        let mut n = Netlist::new();
        let a = n.input("a").lit();
        let b = n.input("b").lit();
        let x = n.and(a, b);
        let r = n.reg("r", Init::Zero);
        n.set_next(r, x);
        let csr = Csr::build(&n);
        assert_eq!(csr.num_nodes(), n.num_gates());
        assert_eq!(csr.kind(0), NodeKind::Const0);
        assert_eq!(csr.kind(a.gate().index() as u32), NodeKind::Input);
        assert_eq!(csr.kind(x.gate().index() as u32), NodeKind::And);
        assert_eq!(csr.kind(r.index() as u32), NodeKind::Reg);
        assert_eq!(
            csr.fanins(x.gate().index() as u32),
            &[a.gate().index() as u32, b.gate().index() as u32]
        );
        assert_eq!(csr.fanins(r.index() as u32), &[x.gate().index() as u32]);
        // Transpose: a fans out to x; x fans out to r.
        assert_eq!(
            csr.fanouts(a.gate().index() as u32),
            &[x.gate().index() as u32]
        );
        assert_eq!(csr.fanouts(x.gate().index() as u32), &[r.index() as u32]);
        assert_eq!(csr.and_plan().len(), 1);
        assert_eq!(csr.and_plan()[0].gate, x.gate().index() as u32);
        #[cfg(debug_assertions)]
        assert_eq!(csr.fingerprint(), crate::stats::fingerprint(&n));
    }

    #[test]
    fn fn_init_contributes_a_fanin_edge() {
        let mut n = Netlist::new();
        let i = n.input("i");
        let r = n.reg("r", Init::Fn(!i.lit()));
        n.set_next(r, r.lit());
        let csr = Csr::build(&n);
        assert_eq!(
            csr.fanins(r.index() as u32),
            &[r.index() as u32, i.index() as u32]
        );
    }
}
