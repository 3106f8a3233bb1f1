//! The fast structural diameter overapproximation of \[7\], as used for all
//! of the paper's experiments.
//!
//! The target's cone of influence is partitioned into an **acyclic
//! sequence** of classified components (see [`crate::classify`]) — the
//! paper's phrasing is deliberate: components compose *serially*, because
//! two components that look parallel in the dependency graph may still need
//! their observable values phase-aligned in time (an autonomous toggle next
//! to a pipeline can delay a joint valuation beyond either component's own
//! diameter). The serialized bound is
//!
//! ```text
//!   d̂ = (L + 1) · Π_GC 2^|regs|  ·  Π_memory (rows + 1)
//! ```
//!
//! * `L` is the longest chain of **acyclic** components in the cone's
//!   condensation — a pipeline stage of arbitrary width contributes one
//!   level, and parallel stages share levels (width is free, per \[7\]);
//! * every **memory** cluster with `R` atomically updated rows multiplies
//!   by `R + 1`, regardless of row width;
//! * every **general** component multiplies by `2^|regs|` (saturating) —
//!   the same deliberately pessimistic choice as the paper, which notes
//!   that tightening GC bounds is orthogonal future work (products over
//!   parallel GCs also pay for worst-case phase alignment, which `max`
//!   would unsoundly ignore). When the [`crate::eccentricity`] engine is
//!   enabled ([`EccOptions`]), a GC component within the cutoff instead
//!   multiplies by its certified state-graph diameter + 1, clamped to
//!   `2^|regs|` so the replacement is monotone (never looser, typically
//!   exponentially tighter);
//! * **constant** registers contribute nothing (they are excluded from the
//!   component graph entirely);
//! * the empty cone has diameter 1 (Definition 3 is one greater than the
//!   classic graph definition — a combinational netlist has diameter 1).
//!
//! The resulting invariant, property-tested in this crate and end-to-end in
//! the workspace tests: **if a target is hittable at all, it is hittable
//! within `d̂(t) − 1` time-steps**, so a bounded model check of depth
//! `d̂(t) − 1` is complete (Section 1 of the paper).
//!
//! A target's bound is the product of its cone's [`Factor`]s, and its
//! [`Explanation`] renders the same factors. To bound or explain several
//! targets of one netlist, build one [`Classifier`], the bounding pass: the
//! targets then share its constant pass, table-cell tests and eccentricity
//! certificates, while each cone still gets its own condensation.
//! [`diameter_bound`] and [`explain`] are the one-shot forms.

use crate::bound::Bound;
use crate::classify::{Classification, Classifier, ClassifyOptions, ComponentKind};
use crate::eccentricity::{EccCert, EccOptions};
use diam_netlist::analysis::coi;
use diam_netlist::{Gate, Lit, Netlist};
use diam_par::Parallelism;

/// Options for the structural diameter engine.
#[derive(Debug, Clone, Default)]
pub struct StructuralOptions {
    /// Classification options.
    pub classify: ClassifyOptions,
    /// Worker threads for per-target fan-out (bounding each target's cone
    /// is an independent job; results are merged in original target order,
    /// so every setting produces identical output).
    pub parallelism: Parallelism,
    /// Eccentricity-engine options for tightening general components
    /// (disabled by default; see [`crate::eccentricity`]).
    pub ecc: EccOptions,
}

/// The result of bounding one target.
#[derive(Debug, Clone)]
pub struct TargetBound {
    /// The diameter bound `d̂(t)`.
    pub bound: Bound,
    /// The classification of the target's cone (counts feed the tables).
    pub classification: Classification,
}

/// Computes the structural diameter bound of a single target literal.
///
/// # Examples
///
/// ```
/// use diam_core::structural::{diameter_bound, StructuralOptions};
/// use diam_core::Bound;
/// use diam_netlist::{Init, Netlist};
///
/// // Three pipeline stages: d̂ = 1 + 3.
/// let mut n = Netlist::new();
/// let i = n.input("i");
/// let mut prev = i.lit();
/// for k in 0..3 {
///     let r = n.reg(format!("s{k}"), Init::Zero);
///     n.set_next(r, prev);
///     prev = r.lit();
/// }
/// n.add_target(prev, "deep");
/// let tb = diameter_bound(&n, prev, &StructuralOptions::default());
/// assert_eq!(tb.bound, Bound::Finite(4));
/// ```
pub fn diameter_bound(n: &Netlist, target: Lit, opts: &StructuralOptions) -> TargetBound {
    Classifier::new(n, opts).diameter_bound(target)
}

/// One factor of a target's serialized bound (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Factor {
    /// The longest chain of acyclic components, `levels` long (≥ 1):
    /// `levels + 1`.
    AcyclicChain {
        /// Acyclic components along the longest chain.
        levels: u64,
    },
    /// A memory cluster of `regs` table cells: `rows + 1`.
    Memory {
        /// Atomically updated rows.
        rows: usize,
        /// Table cells in the cluster.
        regs: usize,
        /// A representative cell.
        witness: Gate,
    },
    /// A general component: its certificate's factor, else `2^regs`.
    General {
        /// Registers in the component.
        regs: usize,
        /// The eccentricity certificate, when the engine produced one.
        cert: Option<EccCert>,
        /// A representative register.
        witness: Gate,
    },
}

impl Factor {
    /// The factor's value.
    pub fn value(&self) -> Bound {
        match *self {
            Factor::AcyclicChain { levels } => Bound::ONE.add_const(levels),
            Factor::Memory { rows, .. } => Bound::Finite(rows as u64 + 1),
            Factor::General { cert: Some(c), .. } => Bound::Finite(c.factor),
            Factor::General { regs, .. } => Bound::pow2(regs as u64),
        }
    }
}

impl std::fmt::Display for Factor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Factor::AcyclicChain { levels } => write!(f, "acyclic chain ({levels} levels)"),
            Factor::Memory { rows, .. } => write!(f, "memory({rows} rows)"),
            // A certificate that actually tightened the blanket names the
            // certified diameter and the sweeps that earned it; the generic
            // exponential blame line survives only untightened components.
            Factor::General {
                regs,
                cert: Some(c),
                ..
            } if self.value() < Bound::pow2(regs as u64) => write!(
                f,
                "general({regs} regs, ecc diameter {}, {} sweeps)",
                c.diameter, c.sweeps
            ),
            Factor::General { regs, .. } => write!(f, "general({regs} regs)"),
        }
    }
}

impl Classifier<'_> {
    /// [`diameter_bound`] of a target of this pass's netlist: the product
    /// of its cone's [`Classifier::factors`]. Every factor is at least 1, so
    /// the product saturates only when the true product overflows, in any
    /// order.
    pub fn diameter_bound(&self, target: Lit) -> TargetBound {
        let classification = self.classify(&coi(self.netlist(), [target]).regs);
        let bound = self
            .factors(&classification)
            .iter()
            .fold(Bound::ONE, |b, f| b.mul(f.value()));
        TargetBound {
            bound,
            classification,
        }
    }

    /// [`explain`] for a target of this pass's netlist: its factors, with
    /// their registers' names and the running product.
    pub fn explain(&self, target: Lit) -> Explanation {
        let n = self.netlist();
        let mut bound = Bound::ONE;
        let steps = self
            .factors(&self.classify(&coi(n, [target]).regs))
            .into_iter()
            .map(|factor| {
                bound = bound.mul(factor.value());
                let witness_reg = match factor {
                    Factor::AcyclicChain { .. } => String::new(),
                    Factor::Memory { witness, .. } | Factor::General { witness, .. } => {
                        n.name(witness).unwrap_or("?").to_string()
                    }
                };
                ExplainStep {
                    factor,
                    witness_reg,
                    bound,
                }
            })
            .collect();
        Explanation { bound, steps }
    }

    /// The factors of the serialized bound over `cl`, a classification of
    /// this pass's netlist, in explanation order: the acyclic chain (when
    /// it has a level), the memory clusters, then the general components,
    /// smallest first so the big culprit lands last, with the pass's
    /// certificates.
    pub fn factors(&self, cl: &Classification) -> Vec<Factor> {
        // Longest AC chain: AC components count 1, others 0, maximized
        // along the condensation's topological numbering (edges `c → d`
        // have `c < d`).
        let num = cl.cond.comps.len();
        let mut depth = vec![0u64; num];
        let mut levels = 0u64;
        let mut gcs: Vec<&[usize]> = Vec::new();
        for (c, comp) in cl.cond.comps.iter().enumerate() {
            match cl.kinds[c] {
                ComponentKind::Acyclic => depth[c] += 1,
                ComponentKind::General => gcs.push(comp),
                ComponentKind::Table { .. } => {}
            }
            levels = levels.max(depth[c]);
            for &d in &cl.cond.succs[c] {
                depth[d] = depth[d].max(depth[c]);
            }
        }
        let mut factors = Vec::with_capacity(1 + cl.clusters.len() + gcs.len());
        if levels > 0 {
            factors.push(Factor::AcyclicChain { levels });
        }
        for cluster in cl.clusters.iter().filter(|m| !m.comps.is_empty()) {
            factors.push(Factor::Memory {
                rows: cluster.rows,
                regs: cluster.comps.len(),
                witness: cl.regs[cl.cond.comps[cluster.comps[0]][0]],
            });
        }
        gcs.sort_by_key(|comp| comp.len());
        for comp in gcs {
            let regs: Vec<Gate> = comp.iter().map(|&i| cl.regs[i]).collect();
            factors.push(Factor::General {
                regs: regs.len(),
                cert: self.certificate(&regs),
                witness: regs[0],
            });
        }
        factors
    }
}

/// One factor of a bound explanation.
#[derive(Debug, Clone)]
pub struct ExplainStep {
    /// The factor; it renders as `acyclic chain (L levels)`,
    /// `memory(R rows)` or `general(k regs)`.
    pub factor: Factor,
    /// Its witness register's name (empty for the acyclic chain).
    pub witness_reg: String,
    /// The running bound after applying this factor.
    pub bound: Bound,
}

/// The factors behind a target's serialized bound, largest-last.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The final bound.
    pub bound: Bound,
    /// The factors, in application order (AC chain first, then memory
    /// clusters, then general components sorted by size).
    pub steps: Vec<ExplainStep>,
}

impl std::fmt::Display for Explanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "d̂ = {}", self.bound)?;
        for (i, s) in self.steps.iter().enumerate() {
            match s.factor {
                Factor::AcyclicChain { .. } => writeln!(f, "  {i}: {} → {}", s.factor, s.bound)?,
                Factor::Memory { regs, .. } | Factor::General { regs, .. } => writeln!(
                    f,
                    "  {i}: {} ({regs} regs, e.g. {}) → {}",
                    s.factor, s.witness_reg, s.bound
                )?,
            }
        }
        Ok(())
    }
}

/// Explains *why* a target's structural bound is what it is: each factor of
/// the serialized composition with the running product. The trailing steps
/// are the usual culprits for an exponential bound — typically a large
/// general (GC) component that a transformation might shrink.
pub fn explain(n: &Netlist, target: Lit, opts: &StructuralOptions) -> Explanation {
    Classifier::new(n, opts).explain(target)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops mirror the math here
mod tests {
    use super::*;
    use diam_netlist::{Gate, Init};

    fn bound_of(n: &Netlist, t: Lit) -> Bound {
        diameter_bound(n, t, &StructuralOptions::default()).bound
    }

    #[test]
    fn combinational_target_has_diameter_one() {
        let mut n = Netlist::new();
        let a = n.input("a").lit();
        let b = n.input("b").lit();
        let t = n.and(a, b);
        n.add_target(t, "t");
        assert_eq!(bound_of(&n, t), Bound::Finite(1));
    }

    #[test]
    fn wide_pipeline_stage_adds_one() {
        // A 16-bit wide single stage: bound 2, not 17.
        let mut n = Netlist::new();
        let mut lits = Vec::new();
        for k in 0..16 {
            let i = n.input(format!("i{k}"));
            let r = n.reg(format!("r{k}"), Init::Zero);
            n.set_next(r, i.lit());
            lits.push(r.lit());
        }
        let t = n.and_many(lits);
        n.add_target(t, "t");
        assert_eq!(bound_of(&n, t), Bound::Finite(2));
    }

    #[test]
    fn deep_pipeline_adds_depth() {
        let mut n = Netlist::new();
        let i = n.input("i");
        let mut prev = i.lit();
        for k in 0..10 {
            let r = n.reg(format!("s{k}"), Init::Zero);
            n.set_next(r, prev);
            prev = r.lit();
        }
        n.add_target(prev, "t");
        assert_eq!(bound_of(&n, prev), Bound::Finite(11));
    }

    #[test]
    fn counter_bits_are_exponential_chain() {
        // 3-bit ripple counter: b0 ×2, b1 ×2, b2 ×2 in a chain = 8.
        let mut n = Netlist::new();
        let b: Vec<Gate> = (0..3).map(|k| n.reg(format!("b{k}"), Init::Zero)).collect();
        let c1 = b[0].lit();
        let n1 = n.xor(b[1].lit(), c1);
        let c2 = n.and(b[1].lit(), c1);
        let n2 = n.xor(b[2].lit(), c2);
        n.set_next(b[0], !b[0].lit());
        n.set_next(b[1], n1);
        n.set_next(b[2], n2);
        let t = n.and_many([b[0].lit(), b[1].lit(), b[2].lit()]);
        n.add_target(t, "t");
        assert_eq!(bound_of(&n, t), Bound::Finite(8));
    }

    #[test]
    fn memory_multiplies_by_rows_plus_one() {
        // 4-row × 3-bit register file: bound (rows+1) = 5 regardless of
        // width.
        let mut n = Netlist::new();
        let we = n.input("we").lit();
        let a0 = n.input("a0").lit();
        let a1 = n.input("a1").lit();
        let d: Vec<Lit> = (0..3).map(|k| n.input(format!("d{k}")).lit()).collect();
        let mut cells = Vec::new();
        for row in 0..4u32 {
            let s0 = a0.xor_complement(row & 1 == 0);
            let s1 = a1.xor_complement(row >> 1 & 1 == 0);
            let sel = n.and(s0, s1);
            let wr = n.and(we, sel);
            for bit in 0..3 {
                let r = n.reg(format!("m{row}_{bit}"), Init::Zero);
                let nx = n.mux(wr, d[bit], r.lit());
                n.set_next(r, nx);
                cells.push(r.lit());
            }
        }
        let t = n.and_many(cells.clone());
        n.add_target(t, "t");
        assert_eq!(bound_of(&n, t), Bound::Finite(5));
    }

    #[test]
    fn pipeline_feeding_memory_composes() {
        // 2-stage pipeline feeding the write data of a 2-row memory:
        // (1 + 2) · (2 + 1) = 9.
        let mut n = Netlist::new();
        let i = n.input("i");
        let we = n.input("we").lit();
        let a = n.input("a").lit();
        let s0 = n.reg("s0", Init::Zero);
        let s1 = n.reg("s1", Init::Zero);
        n.set_next(s0, i.lit());
        n.set_next(s1, s0.lit());
        let mut cells = Vec::new();
        for row in 0..2u32 {
            let sel = a.xor_complement(row == 0);
            let wr = n.and(we, sel);
            let r = n.reg(format!("m{row}"), Init::Zero);
            let nx = n.mux(wr, s1.lit(), r.lit());
            n.set_next(r, nx);
            cells.push(r.lit());
        }
        let t = n.and(cells[0], cells[1]);
        n.add_target(t, "t");
        assert_eq!(bound_of(&n, t), Bound::Finite(9));
    }

    #[test]
    fn large_general_component_saturates() {
        // A 70-register rotating ring with an inverter is one big SCC.
        let mut n = Netlist::new();
        let regs: Vec<Gate> = (0..70)
            .map(|k| n.reg(format!("r{k}"), Init::Zero))
            .collect();
        for k in 0..70 {
            let prev = regs[(k + 69) % 70].lit();
            n.set_next(regs[k], if k == 0 { !prev } else { prev });
        }
        let t = regs[0].lit();
        n.add_target(t, "t");
        assert_eq!(bound_of(&n, t), Bound::Exponential);
    }

    #[test]
    fn coi_restriction_ignores_unrelated_logic() {
        // A huge unrelated GC must not affect a small pipeline target.
        let mut n = Netlist::new();
        let i = n.input("i");
        let p = n.reg("p", Init::Zero);
        n.set_next(p, i.lit());
        for k in 0..40 {
            let r = n.reg(format!("g{k}"), Init::Zero);
            n.set_next(r, !r.lit());
        }
        n.add_target(p.lit(), "t");
        assert_eq!(bound_of(&n, p.lit()), Bound::Finite(2));
    }

    #[test]
    fn explanation_names_the_dominant_chain() {
        // Pipeline feeding a memory: the chain is stages → memory.
        let mut n = Netlist::new();
        let i = n.input("i");
        let we = n.input("we").lit();
        let a = n.input("a").lit();
        let s0 = n.reg("s0", Init::Zero);
        let s1 = n.reg("s1", Init::Zero);
        n.set_next(s0, i.lit());
        n.set_next(s1, s0.lit());
        let mut cells = Vec::new();
        for row in 0..2u32 {
            let sel = a.xor_complement(row == 0);
            let wr = n.and(we, sel);
            let r = n.reg(format!("m{row}"), Init::Zero);
            let nx = n.mux(wr, s1.lit(), r.lit());
            n.set_next(r, nx);
            cells.push(r.lit());
        }
        let t = n.and(cells[0], cells[1]);
        n.add_target(t, "t");
        let e = explain(&n, t, &StructuralOptions::default());
        assert_eq!(e.bound, Bound::Finite(9));
        assert_eq!(e.steps.len(), 2, "{e}");
        let last = e.steps.last().unwrap();
        assert!(matches!(last.factor, Factor::Memory { rows: 2, .. }), "{e}");
        assert_eq!(last.bound, Bound::Finite(9));
        assert!(
            matches!(e.steps[0].factor, Factor::AcyclicChain { levels: 2 }),
            "{e}"
        );
        // The rendering mentions the witness registers.
        let text = e.to_string();
        assert!(text.contains("m0") || text.contains("m1"), "{text}");
    }

    #[test]
    fn explanation_blames_the_big_general_component() {
        let mut n = Netlist::new();
        let p = n.reg("p", Init::Zero);
        let i = n.input("i");
        n.set_next(p, i.lit());
        let regs: Vec<Gate> = (0..10)
            .map(|k| n.reg(format!("ring{k}"), Init::Zero))
            .collect();
        for k in 0..10 {
            let prev = regs[(k + 9) % 10].lit();
            n.set_next(regs[k], if k == 0 { !prev } else { prev });
        }
        let t = n.and(p.lit(), regs[0].lit());
        n.add_target(t, "t");
        let e = explain(&n, t, &StructuralOptions::default());
        let last = e.steps.last().unwrap();
        assert_eq!(last.factor.to_string(), "general(10 regs)");
        assert!(last.witness_reg.starts_with("ring"));
    }

    #[test]
    fn ecc_certificate_tightens_bound_and_explanation() {
        // The same 10-register twisted ring: blanket factor 2^10, but the
        // reachable state graph is the 20-state Johnson cycle.
        let mut n = Netlist::new();
        let p = n.reg("p", Init::Zero);
        let i = n.input("i");
        n.set_next(p, i.lit());
        let regs: Vec<Gate> = (0..10)
            .map(|k| n.reg(format!("ring{k}"), Init::Zero))
            .collect();
        for k in 0..10 {
            let prev = regs[(k + 9) % 10].lit();
            n.set_next(regs[k], if k == 0 { !prev } else { prev });
        }
        let t = n.and(p.lit(), regs[0].lit());
        n.add_target(t, "t");
        let off = StructuralOptions::default();
        let on = StructuralOptions {
            ecc: EccOptions::on(),
            ..StructuralOptions::default()
        };
        assert_eq!(diameter_bound(&n, t, &off).bound, Bound::Finite(2048));
        let counts = crate::eccentricity::tests::memo_counts(|| {
            assert_eq!(diameter_bound(&n, t, &on).bound, Bound::Finite(40));
            let e = explain(&n, t, &on);
            assert_eq!(e.bound, Bound::Finite(40));
            let last = e.steps.last().unwrap();
            let label = last.factor.to_string();
            assert_eq!(label, "general(10 regs, ecc diameter 19, 1 sweeps)");
            assert!(last.witness_reg.starts_with("ring"));
            // Explaining through the bounding pass recalls its certificate.
            let cx = Classifier::new(&n, &on);
            assert_eq!(cx.diameter_bound(t).bound, Bound::Finite(40));
            assert_eq!(cx.explain(t).to_string(), e.to_string());
        });
        assert_eq!(counts, (3, 1), "one miss per pass, then one hit");
    }

    #[test]
    fn constant_registers_do_not_increase_bound() {
        let mut n = Netlist::new();
        let i = n.input("i");
        let c = n.reg("const", Init::One);
        n.set_next(c, c.lit());
        let p = n.reg("p", Init::Zero);
        n.set_next(p, i.lit());
        let t = n.and(p.lit(), c.lit());
        n.add_target(t, "t");
        assert_eq!(bound_of(&n, t), Bound::Finite(2));
    }
}
