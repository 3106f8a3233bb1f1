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
//! To bound or explain several targets of one netlist, build one
//! [`Classifier`] and pass it to [`diameter_bound_in`] and [`explain_in`]:
//! the targets then share its constant pass and table-cell tests, while each
//! cone still gets its own condensation. [`diameter_bound`] and [`explain`]
//! are the one-shot forms.

use crate::bound::Bound;
use crate::classify::{Classification, Classifier, ClassifyOptions, ComponentKind};
use crate::eccentricity::{component_cert, EccCert, EccOptions};
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
    diameter_bound_in(&Classifier::new(n, &opts.classify), target, &opts.ecc)
}

/// [`diameter_bound`] of a target of `cx`'s netlist, classifying its cone
/// through `cx`: the targets of one bounding pass share the constant
/// registers and table-cell tests, and each cone keeps its own condensation.
pub fn diameter_bound_in(cx: &Classifier<'_>, target: Lit, ecc: &EccOptions) -> TargetBound {
    let n = cx.netlist();
    let cone = coi(n, [target]);
    let classification = cx.classify(&cone.regs);
    let certs = gc_certificates(n, &classification, ecc);
    let bound = serialized_bound_with(&classification, &certs);
    TargetBound {
        bound,
        classification,
    }
}

/// Certified eccentricity bounds per condensation component: `Some` for
/// every general component the engine tightened, `None` elsewhere (acyclic
/// and table components, components past the cutoff, engine disabled).
///
/// Certificates are memoized per `(fingerprint, register set, options)` in
/// [`crate::eccentricity`], so `bound_targets` sweeps that reach a shared
/// component from many targets enumerate it once.
pub fn gc_certificates(n: &Netlist, cl: &Classification, ecc: &EccOptions) -> Vec<Option<EccCert>> {
    let num = cl.cond.comps.len();
    if !ecc.enabled {
        return vec![None; num];
    }
    (0..num)
        .map(|c| {
            if !matches!(cl.kinds[c], ComponentKind::General) {
                return None;
            }
            let regs: Vec<Gate> = cl.cond.comps[c].iter().map(|&i| cl.regs[i]).collect();
            component_cert(n, &regs, ecc)
        })
        .collect()
}

/// The factor one general component contributes: the certified diameter
/// bound when present (already clamped to `2^|regs|`), else the blanket.
fn gc_factor(cl: &Classification, certs: &[Option<EccCert>], c: usize) -> Bound {
    match certs.get(c).copied().flatten() {
        Some(cert) => Bound::Finite(cert.factor),
        None => Bound::pow2(cl.cond.comps[c].len() as u64),
    }
}

/// The serialized compositional bound over a (cone-restricted)
/// classification with the blanket `2^|regs|` GC factors; see the module
/// docs for the formula and its rationale. [`serialized_bound_with`] takes
/// eccentricity certificates.
pub fn serialized_bound(cl: &Classification) -> Bound {
    serialized_bound_with(cl, &[])
}

/// [`serialized_bound`] with per-component eccentricity certificates
/// (as computed by [`gc_certificates`]; missing entries fall back to the
/// blanket factor).
pub fn serialized_bound_with(cl: &Classification, certs: &[Option<EccCert>]) -> Bound {
    let num = cl.cond.comps.len();
    // Longest AC-chain: AC components count 1, others 0, maximized along
    // the condensation's topological order (which the component numbering
    // already is).
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); num];
    for (c, succs) in cl.cond.succs.iter().enumerate() {
        for &d in succs {
            preds[d].push(c);
        }
    }
    let mut ac_depth = vec![0u64; num];
    for c in 0..num {
        let up = preds[c].iter().map(|&p| ac_depth[p]).max().unwrap_or(0);
        ac_depth[c] = up + u64::from(matches!(cl.kinds[c], ComponentKind::Acyclic));
    }
    let levels = ac_depth.iter().copied().max().unwrap_or(0);

    let mut bound = Bound::Finite(1).add_const(levels);
    for cluster in &cl.clusters {
        if !cluster.comps.is_empty() {
            bound = bound.mul_const(cluster.rows as u64 + 1);
        }
    }
    for (c, kind) in cl.kinds.iter().enumerate() {
        if matches!(kind, ComponentKind::General) {
            bound = bound.mul(gc_factor(cl, certs, c));
        }
    }
    bound
}

/// One factor of a bound explanation.
#[derive(Debug, Clone)]
pub struct ExplainStep {
    /// Factor description (`acyclic chain (L levels)`, `memory(R rows)`,
    /// `general(k regs)`).
    pub kind: String,
    /// A representative register name (empty for the acyclic chain entry).
    pub witness_reg: String,
    /// Registers involved.
    pub regs: usize,
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
            if s.witness_reg.is_empty() {
                writeln!(f, "  {i}: {} → {}", s.kind, s.bound)?;
            } else {
                writeln!(
                    f,
                    "  {i}: {} ({} regs, e.g. {}) → {}",
                    s.kind, s.regs, s.witness_reg, s.bound
                )?;
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
    explain_in(&Classifier::new(n, &opts.classify), target, &opts.ecc)
}

/// [`explain`] for a target of `cx`'s netlist, classifying its cone through
/// `cx` (see [`diameter_bound_in`]).
pub fn explain_in(cx: &Classifier<'_>, target: Lit, ecc: &EccOptions) -> Explanation {
    let n = cx.netlist();
    let cone = coi(n, [target]);
    let cl = cx.classify(&cone.regs);
    let certs = gc_certificates(n, &cl, ecc);
    let num = cl.cond.comps.len();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); num];
    for (c, succs) in cl.cond.succs.iter().enumerate() {
        for &d in succs {
            preds[d].push(c);
        }
    }
    let mut ac_depth = vec![0u64; num];
    let mut ac_regs = 0usize;
    for c in 0..num {
        let up = preds[c].iter().map(|&p| ac_depth[p]).max().unwrap_or(0);
        let is_ac = matches!(cl.kinds[c], ComponentKind::Acyclic);
        ac_depth[c] = up + u64::from(is_ac);
        if is_ac {
            ac_regs += cl.cond.comps[c].len();
        }
    }
    let levels = ac_depth.iter().copied().max().unwrap_or(0);

    let mut steps = Vec::new();
    let mut bound = Bound::Finite(1).add_const(levels);
    if levels > 0 {
        steps.push(ExplainStep {
            kind: format!("acyclic chain ({levels} levels)"),
            witness_reg: String::new(),
            regs: ac_regs,
            bound,
        });
    }
    for cluster in &cl.clusters {
        if cluster.comps.is_empty() {
            continue;
        }
        bound = bound.mul_const(cluster.rows as u64 + 1);
        let witness = cl.regs[cl.cond.comps[cluster.comps[0]][0]];
        steps.push(ExplainStep {
            kind: format!("memory({} rows)", cluster.rows),
            witness_reg: n.name(witness).unwrap_or("?").to_string(),
            regs: cluster.comps.len(),
            bound,
        });
    }
    // General components, smallest first so the big culprit lands last.
    let mut gcs: Vec<usize> = (0..num)
        .filter(|&c| matches!(cl.kinds[c], ComponentKind::General))
        .collect();
    gcs.sort_by_key(|&c| cl.cond.comps[c].len());
    for c in gcs {
        let k = cl.cond.comps[c].len();
        // A certificate that actually tightened the blanket names the
        // certified diameter and the sweeps that earned it; the generic
        // exponential blame line survives only untightened components.
        let kind = match certs.get(c).copied().flatten() {
            Some(cert) if k >= 64 || cert.factor < 1u64 << k => {
                bound = bound.mul(Bound::Finite(cert.factor));
                format!(
                    "general({k} regs, ecc diameter {}, {} sweeps)",
                    cert.diameter, cert.sweeps
                )
            }
            _ => {
                bound = bound.mul(Bound::pow2(k as u64));
                format!("general({k} regs)")
            }
        };
        let witness = cl.regs[cl.cond.comps[c][0]];
        steps.push(ExplainStep {
            kind,
            witness_reg: n.name(witness).unwrap_or("?").to_string(),
            regs: k,
            bound,
        });
    }
    Explanation { bound, steps }
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
        assert!(last.kind.starts_with("memory"), "{e}");
        assert_eq!(last.bound, Bound::Finite(9));
        assert!(e.steps[0].kind.contains("acyclic"), "{e}");
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
        assert_eq!(last.kind, "general(10 regs)");
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
        assert_eq!(diameter_bound(&n, t, &on).bound, Bound::Finite(40));
        let e = explain(&n, t, &on);
        assert_eq!(e.bound, Bound::Finite(40));
        let last = e.steps.last().unwrap();
        assert_eq!(last.kind, "general(10 regs, ecc diameter 19, 1 sweeps)");
        assert!(last.witness_reg.starts_with("ring"));
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
