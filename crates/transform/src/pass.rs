//! Certificate-carrying transformation passes.
//!
//! Every engine of the paper is wrapped as a [`Pass`]: a transformation
//! that, when applicable, produces a new netlist **plus a [`Certificate`]**
//! carrying *both* directions of the per-theorem correspondence:
//!
//! * the constant-time **bound back-translation** of Theorems 1–4
//!   ([`BoundStep`]s per target: `+skew` for RET, `×c` for FOLD, `+k` for
//!   ENL, identity for COI/COM/PARAM), and
//! * a **witness lifter** ([`Certificate::lift`]) mapping a counterexample
//!   trace found on the transformed netlist back to a replay-valid trace of
//!   the input netlist — the constructive content of the theorems' trace
//!   correspondences.
//!
//! Per-pass lifting strategies:
//!
//! | Pass | Bound map | Trace map |
//! |---|---|---|
//! | COI / COM | identity (Thm 1) | gate-map read-back: simulate the transformed witness, read each original input / nondet init through its surviving literal |
//! | PARAM | identity (Thm 1) | per-frame SAT inversion of the re-encoded cut (the cut ranges are equal, so every frame is invertible) |
//! | RET | `d̂ + skew(t)` (Thm 2) | lag-shifted prefix re-construction: input `u` at original time `τ` is the retimed input at `τ − skew(u)`, prefix times come from the retiming stump |
//! | FOLD | `c · d̂` (Thm 3) | c-slow frame expansion: hold each folded input frame for `c` original steps; kept registers copy their nondet choices |
//! | ENL | `d̂ + k` (Thm 4) | k-suffix extension: pin the witness prefix in a BMC query on the pre-enlargement netlist and extend to the original target |
//!
//! Certificates compose: a [`CertificateChain`] lifts through the passes in
//! reverse application order and concatenates bound steps in application
//! order, replacing ad-hoc per-engine bookkeeping in the pipeline driver.
//!
//! Lifting is total for COI/COM/PARAM/RET/FOLD. ENL lifting can fail
//! (returning `None`) in one corner: a depth-0 witness on an enlarged
//! target whose pre-netlist has `Init::Fn` registers may be *spurious* —
//! the enlarged state is realizable at time 0, but the input values that
//! realize it conflict with the inputs the k-step suffix needs. Callers
//! fall back to BMC on the original netlist in that case (the `d̂ + k`
//! *bound* of Theorem 4 is unaffected).

use crate::com::{sweep, SweepOptions};
use crate::enlarge::{enlarge, EnlargeOptions};
use crate::fold::{detect, fold};
use crate::parametric::reencode_auto;
use crate::retime::retime;
use crate::unroll::{FrameZero, Unroller};
use diam_netlist::rebuild::{explicit_nondet_init, reduce_coi};
use diam_netlist::sim::{simulate, Witness};
use diam_netlist::stats::{stats, NetlistStats};
use diam_netlist::{Init, Lit, Netlist};
use diam_sat::{SolveResult, Solver};
use std::collections::HashMap;

/// A recorded bound back-translation step for one target, in application
/// order (replayed in reverse by the pipeline's back-translation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoundStep {
    /// Theorem 2 / Theorem 4: add a constant.
    Add(u64),
    /// Theorem 3: multiply by the folding factor.
    Mul(u64),
}

/// The two-directional evidence a pass emits for each target: bound steps
/// (transformed bound → original bound) and a witness lifter (transformed
/// counterexample → original counterexample).
#[derive(Debug, Clone)]
pub struct Certificate {
    pass: &'static str,
    bounds: Vec<Vec<BoundStep>>,
    lifter: Lifter,
}

impl Certificate {
    /// A certificate with identity bound maps and an identity trace map
    /// (used by passes that change nothing a witness can observe).
    pub fn identity(pass: &'static str, num_targets: usize) -> Certificate {
        Certificate {
            pass,
            bounds: vec![Vec::new(); num_targets],
            lifter: Lifter::Identity,
        }
    }

    /// The name of the pass that emitted this certificate.
    pub fn pass(&self) -> &'static str {
        self.pass
    }

    /// The bound back-translation steps for target `index`, in application
    /// order.
    pub fn bound_steps(&self, index: usize) -> &[BoundStep] {
        &self.bounds[index]
    }

    /// Number of targets this certificate covers.
    pub fn num_targets(&self) -> usize {
        self.bounds.len()
    }

    /// Lifts a witness for target `index` of this pass's *output* netlist
    /// into a witness for the same target of the *input* netlist.
    ///
    /// Returns `None` when the witness is empty or (ENL only, see module
    /// docs) when the enlarged witness is spurious.
    pub fn lift(&self, index: usize, w: &Witness) -> Option<Witness> {
        self.lifter.lift(index, w)
    }
}

/// The trace-map side of a certificate.
///
/// The variants differ widely in size (Retime carries the stump table,
/// Identity is empty), but there is at most one `Lifter` per applied pass
/// per pipeline run — boxing would buy nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
enum Lifter {
    /// The pass preserves inputs and nondet registers verbatim.
    Identity,
    /// Theorem 1 (COI / COM): every original input and nondet register
    /// survives as a literal of the transformed netlist; simulate the
    /// transformed witness and read the values back.
    GateMap {
        transformed: Netlist,
        /// Per original-input position: its literal in the transformed
        /// netlist (`None` = dropped; its value is unobservable).
        input_lits: Vec<Option<Lit>>,
        /// Per original-register position: its literal in the transformed
        /// netlist (only consulted for `Init::Nondet` registers).
        nondet_lits: Vec<Option<Lit>>,
    },
    /// Theorem 2 (RET, fused with `explicit_nondet_init`).
    Retime {
        /// Inputs of the *original* netlist (the pre-netlist appends the
        /// `_init` inputs after these).
        orig_inputs: usize,
        /// Registers of the original netlist.
        orig_regs: usize,
        /// Temporal skew `j_p = −lag` per pre-netlist input position.
        input_skews: Vec<u64>,
        /// Temporal skew `j_t` per target.
        target_skews: Vec<u64>,
        /// `(pre input position, original time) → retimed input position`
        /// for the stump inputs covering the discarded prefix.
        stump: HashMap<(usize, u64), usize>,
        /// `(original register position, pre input position)` for the
        /// `_init` inputs that made nondet initial values explicit.
        init_inputs: Vec<(usize, usize)>,
    },
    /// Theorem 3 (FOLD): block-hold expansion by the folding factor.
    Fold {
        c: u64,
        /// Positions (in original register order) of the kept color class —
        /// the folded netlist's registers, in order.
        kept: Vec<usize>,
        orig_regs: usize,
    },
    /// Theorem 4 (ENL): k-suffix extension via BMC on the pre-enlargement
    /// netlist.
    Enlarge {
        /// The netlist *before* enlargement (same inputs and registers as
        /// the enlarged one; only targets differ).
        pre: Netlist,
        /// Enlargement depth per target (`None` = target untouched).
        ks: Vec<Option<u32>>,
    },
    /// Theorem 1 (PARAM): per-frame SAT inversion of the re-encoded cut.
    Parametric {
        pre: Netlist,
        transformed: Netlist,
        /// The re-encoded cut literals, in the pre netlist.
        cut: Vec<Lit>,
        /// Where each cut value lives in the transformed netlist (`None` =
        /// merged away / unobservable — safe to leave unconstrained, since
        /// the cut ranges are equal and partial constraints of a satisfiable
        /// full vector stay satisfiable).
        cut_new: Vec<Option<Lit>>,
        /// Per pre-input position: surviving literal in the transformed
        /// netlist (`None` for cone inputs, recovered from the SAT model).
        input_lits: Vec<Option<Lit>>,
        /// Per pre-register position: surviving literal (for nondet reads).
        nondet_lits: Vec<Option<Lit>>,
    },
}

impl Lifter {
    fn lift(&self, index: usize, w: &Witness) -> Option<Witness> {
        if w.inputs.is_empty() {
            return None;
        }
        match self {
            Lifter::Identity => Some(w.clone()),
            Lifter::GateMap {
                transformed,
                input_lits,
                nondet_lits,
            } => {
                let trace = simulate(transformed, &w.to_stimulus());
                let inputs = (0..trace.len())
                    .map(|t| {
                        input_lits
                            .iter()
                            .map(|ol| ol.map(|l| trace.value(l, t, 0)).unwrap_or(false))
                            .collect()
                    })
                    .collect();
                let nondet_init = nondet_lits
                    .iter()
                    .map(|ol| ol.map(|l| trace.value(l, 0, 0)).unwrap_or(false))
                    .collect();
                Some(Witness {
                    inputs,
                    nondet_init,
                })
            }
            Lifter::Retime {
                orig_inputs,
                orig_regs,
                input_skews,
                target_skews,
                stump,
                init_inputs,
            } => {
                let d = w.inputs.len() - 1;
                let jt = usize::try_from(target_skews[index]).ok()?;
                // Reconstruct the pre-netlist stimulus over times 0..=d+jt:
                // input `p` with skew `j_p` at original time τ is the
                // retimed input at τ − j_p when that lands inside the
                // retimed trace, a stump input when τ is in the discarded
                // prefix, and unconstrained (false) otherwise.
                let pre_rows: Vec<Vec<bool>> = (0..=d + jt)
                    .map(|tau| {
                        input_skews
                            .iter()
                            .enumerate()
                            .map(|(p, &jp)| {
                                let jp = jp as usize;
                                if tau >= jp {
                                    let src = tau - jp;
                                    if src <= d {
                                        w.inputs[src][p]
                                    } else {
                                        false
                                    }
                                } else {
                                    stump
                                        .get(&(p, tau as u64))
                                        .map(|&q| w.inputs[0][q])
                                        .unwrap_or(false)
                                }
                            })
                            .collect()
                    })
                    .collect();
                // Strip the `_init` input columns back into nondet choices.
                let mut nondet_init = vec![false; *orig_regs];
                for &(reg_pos, input_pos) in init_inputs {
                    nondet_init[reg_pos] = pre_rows[0][input_pos];
                }
                let inputs = pre_rows
                    .into_iter()
                    .map(|row| row[..*orig_inputs].to_vec())
                    .collect();
                Some(Witness {
                    inputs,
                    nondet_init,
                })
            }
            Lifter::Fold { c, kept, orig_regs } => {
                let d = w.inputs.len() - 1;
                let c = *c as usize;
                // Hold every folded input frame for c original steps: all
                // reads inside original block [c·t, c·t+c) see folded frame
                // t, which is exactly the c-step expansion the folded
                // next-state functions compute.
                let inputs = (0..=c * d).map(|tau| w.inputs[tau / c].clone()).collect();
                let mut nondet_init = vec![false; *orig_regs];
                for (j, &pos) in kept.iter().enumerate() {
                    nondet_init[pos] = w.nondet_init[j];
                }
                Some(Witness {
                    inputs,
                    nondet_init,
                })
            }
            Lifter::Enlarge { pre, ks } => {
                let Some(k) = ks[index] else {
                    return Some(w.clone());
                };
                let k = k as usize;
                let d = w.inputs.len() - 1;
                // Pin the witness prefix (nondet choices + input frames
                // 0..d; frame d of the enlarged witness only fed the
                // enlarged target, which reads registers exclusively) and
                // ask BMC on the pre netlist for the earliest original-
                // target hit in d..=d+k. For d ≥ 1 the state at time d is
                // fully pinned and the enlarged target guarantees a hit at
                // exactly d+k; for d = 0 the query may be unsatisfiable
                // (spurious witness, see module docs).
                let mut solver = Solver::new();
                let mut unroller = Unroller::new(pre, FrameZero::Init);
                let mut assumptions = Vec::new();
                for (j, &r) in pre.regs().iter().enumerate() {
                    if pre.reg_init(r) == Init::Nondet {
                        let l = unroller.lit_at(&mut solver, r.lit(), 0);
                        assumptions.push(if w.nondet_init[j] { l } else { !l });
                    }
                }
                for (tau, row) in w.inputs.iter().enumerate().take(d) {
                    for (p, &i) in pre.inputs().iter().enumerate() {
                        let l = unroller.lit_at(&mut solver, i.lit(), tau);
                        assumptions.push(if row[p] { l } else { !l });
                    }
                }
                let target = pre.targets()[index].lit;
                for t in d..=d + k {
                    let tl = unroller.lit_at(&mut solver, target, t);
                    let mut a = assumptions.clone();
                    a.push(tl);
                    if solver.solve_with(&a) == SolveResult::Sat {
                        let inputs = (0..=t)
                            .map(|tau| {
                                pre.inputs()
                                    .iter()
                                    .map(|&i| {
                                        unroller
                                            .try_lit_at(i.lit(), tau)
                                            .and_then(|l| solver.value(l))
                                            .unwrap_or(false)
                                    })
                                    .collect()
                            })
                            .collect();
                        return Some(Witness {
                            inputs,
                            nondet_init: w.nondet_init.clone(),
                        });
                    }
                }
                None
            }
            Lifter::Parametric {
                pre,
                transformed,
                cut,
                cut_new,
                input_lits,
                nondet_lits,
            } => {
                let trace = simulate(transformed, &w.to_stimulus());
                // One frame-0 unroll of the pre netlist serves every time
                // step: the cut cones are combinational over inputs only.
                let mut solver = Solver::new();
                let mut unroller = Unroller::new(pre, FrameZero::Free);
                let sat_cut: Vec<_> = cut
                    .iter()
                    .map(|&l| unroller.lit_at(&mut solver, l, 0))
                    .collect();
                let mut inputs = Vec::with_capacity(trace.len());
                for tau in 0..trace.len() {
                    let assumptions: Vec<_> = cut_new
                        .iter()
                        .enumerate()
                        .filter_map(|(i, cn)| {
                            cn.map(|l| {
                                if trace.value(l, tau, 0) {
                                    sat_cut[i]
                                } else {
                                    !sat_cut[i]
                                }
                            })
                        })
                        .collect();
                    // The re-encoded range equals the original range, so
                    // every (partial) observed cut valuation is producible.
                    if solver.solve_with(&assumptions) != SolveResult::Sat {
                        debug_assert!(false, "parametric cut inversion must be satisfiable");
                        return None;
                    }
                    let row = pre
                        .inputs()
                        .iter()
                        .enumerate()
                        .map(|(p, &i)| {
                            if let Some(sl) = unroller.try_lit_at(i.lit(), 0) {
                                // Cone input: take the model's preimage.
                                solver.value(sl).unwrap_or(false)
                            } else if let Some(ml) = input_lits[p] {
                                // Surviving input: copy through the map.
                                trace.value(ml, tau, 0)
                            } else {
                                false
                            }
                        })
                        .collect();
                    inputs.push(row);
                }
                let nondet_init = nondet_lits
                    .iter()
                    .map(|ol| ol.map(|l| trace.value(l, 0, 0)).unwrap_or(false))
                    .collect();
                Some(Witness {
                    inputs,
                    nondet_init,
                })
            }
        }
    }
}

/// A composition of certificates, in application order.
#[derive(Debug, Clone, Default)]
pub struct CertificateChain {
    certs: Vec<Certificate>,
}

impl CertificateChain {
    /// An empty chain (identity in both directions).
    pub fn new() -> CertificateChain {
        CertificateChain::default()
    }

    /// Appends a certificate (the pass ran *after* all previous ones).
    pub fn push(&mut self, cert: Certificate) {
        self.certs.push(cert);
    }

    /// The certificates, in application order.
    pub fn certs(&self) -> &[Certificate] {
        &self.certs
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.certs.is_empty()
    }

    /// Number of certificates in the chain.
    pub fn len(&self) -> usize {
        self.certs.len()
    }

    /// All bound steps for target `index`, concatenated in application
    /// order (back-translation replays them in reverse).
    pub fn bound_steps(&self, index: usize) -> Vec<BoundStep> {
        self.certs
            .iter()
            .flat_map(|c| c.bound_steps(index).iter().copied())
            .collect()
    }

    /// Lifts a witness for target `index` of the *final* netlist through
    /// every certificate in reverse, yielding a witness for the *original*
    /// netlist. `None` propagates from any individual lift failure.
    pub fn lift(&self, index: usize, w: &Witness) -> Option<Witness> {
        let mut w = w.clone();
        for cert in self.certs.iter().rev() {
            w = cert.lift(index, &w)?;
        }
        Some(w)
    }

    /// Back-translates a diameter bound `d̂` for target `index` of the
    /// *final* netlist into a bound for the *original* netlist: the bound
    /// steps replayed in reverse application order (Theorems 1–4). `None`
    /// when the bound overflows `u64`.
    pub fn back_translate(&self, index: usize, bound: u64) -> Option<u64> {
        self.certs
            .iter()
            .rev()
            .flat_map(|c| c.bound_steps(index).iter().rev())
            .try_fold(bound, |b, step| match *step {
                BoundStep::Add(k) => b.checked_add(k),
                BoundStep::Mul(c) => b.checked_mul(c),
            })
    }

    /// The *proof-prefix obligation* for target `index`: when every bound
    /// step is an `Add`, the chain's bound map is `d̂ ↦ d̂ + p` with
    /// `p = Σ adds`, and "transformed netlist clean up to depth D" plus
    /// "original netlist clean up to depth p − 1" proves the original clean
    /// up to `D + p`. Returns `None` when a `Mul` step (FOLD) is present —
    /// multiplicative maps do not transfer emptiness, so callers must fall
    /// back to BMC on the original netlist.
    pub fn prefix_obligation(&self, index: usize) -> Option<u64> {
        let mut p = 0u64;
        for cert in &self.certs {
            for step in cert.bound_steps(index) {
                match *step {
                    BoundStep::Add(k) => p += k,
                    BoundStep::Mul(_) => return None,
                }
            }
        }
        Some(p)
    }
}

/// The outcome of a successfully applied pass.
#[derive(Debug, Clone)]
pub struct PassOutcome {
    /// The transformed netlist.
    pub netlist: Netlist,
    /// The pass's certificate (bound maps + witness lifter).
    pub cert: Certificate,
    /// Structural statistics before the pass.
    pub stats_before: NetlistStats,
    /// Structural statistics after the pass.
    pub stats_after: NetlistStats,
    /// Pass-specific close-field details (merges, refinements, …), recorded
    /// on the `pass.apply` span by [`apply_traced`].
    pub details: Vec<(&'static str, u64)>,
}

impl PassOutcome {
    fn new(before: &Netlist, netlist: Netlist, cert: Certificate) -> PassOutcome {
        PassOutcome {
            stats_before: stats(before),
            stats_after: stats(&netlist),
            netlist,
            cert,
            details: Vec::new(),
        }
    }

    fn with_details(mut self, details: Vec<(&'static str, u64)>) -> PassOutcome {
        self.details = details;
        self
    }
}

/// A certificate-carrying transformation pass.
pub trait Pass {
    /// Stable lowercase pass name (also the `pass` field of the
    /// `pass.apply` observability span).
    fn name(&self) -> &'static str;

    /// Applies the pass. `None` means the pass did not apply (unsupported
    /// structure, no usable cut, no folding factor, …) — the pipeline skips
    /// it and bounds/witnesses transfer unchanged.
    fn apply(&self, n: &Netlist) -> Option<PassOutcome>;
}

/// Runs `pass` under the unified `pass.apply` observability span: one span
/// schema for every engine, carrying the pass name, before/after structural
/// statistics, pass-specific details, and (via the ambient SAT attribution)
/// the solver work the engine performed.
pub fn apply_traced(pass: &dyn Pass, n: &Netlist) -> Option<PassOutcome> {
    let mut sp = diam_obs::span!("pass.apply", pass = pass.name());
    let out = pass.apply(n);
    match &out {
        Some(o) => {
            sp.record("ok", true);
            if diam_obs::enabled() {
                record_stats(&mut sp, &o.stats_before, &o.stats_after);
                for &(k, v) in &o.details {
                    sp.record(k, v);
                }
            }
        }
        None => sp.record("ok", false),
    }
    out
}

/// Records a before/after [`NetlistStats`] pair on a span — the single
/// shared stats path used by both the `pass.apply` schema and the pipeline's
/// step log.
fn record_stats(sp: &mut diam_obs::SpanGuard, before: &NetlistStats, after: &NetlistStats) {
    sp.record("ands_before", before.ands);
    sp.record("regs_before", before.regs);
    sp.record("inputs_before", before.inputs);
    sp.record("level_before", before.max_level);
    sp.record("ands_after", after.ands);
    sp.record("regs_after", after.regs);
    sp.record("inputs_after", after.inputs);
    sp.record("level_after", after.max_level);
}

fn gate_map_certificate(
    pass: &'static str,
    n: &Netlist,
    map: &[Option<Lit>],
    out: &Netlist,
) -> Certificate {
    Certificate {
        pass,
        bounds: vec![Vec::new(); n.targets().len()],
        lifter: Lifter::GateMap {
            transformed: out.clone(),
            input_lits: n.inputs().iter().map(|&i| map[i.index()]).collect(),
            nondet_lits: n.regs().iter().map(|&r| map[r.index()]).collect(),
        },
    }
}

/// Cone-of-influence reduction (Theorem 1).
#[derive(Debug, Clone, Default)]
pub struct CoiPass;

impl Pass for CoiPass {
    fn name(&self) -> &'static str {
        "coi"
    }

    fn apply(&self, n: &Netlist) -> Option<PassOutcome> {
        let r = reduce_coi(n);
        let cert = gate_map_certificate("coi", n, &r.map, &r.netlist);
        Some(PassOutcome::new(n, r.netlist, cert))
    }
}

/// Redundancy removal — SAT sweeping with induction (Theorem 1).
#[derive(Debug, Clone, Default)]
pub struct ComPass(pub SweepOptions);

impl Pass for ComPass {
    fn name(&self) -> &'static str {
        "com"
    }

    fn apply(&self, n: &Netlist) -> Option<PassOutcome> {
        let r = sweep(n, &self.0);
        let cert = gate_map_certificate("com", n, &r.map, &r.netlist);
        Some(PassOutcome::new(n, r.netlist, cert).with_details(vec![
            ("merges", r.merges as u64),
            ("refinements", r.refinements as u64),
        ]))
    }
}

/// Normalized min-register retiming, fused with the nondet-init
/// normalization it requires (Theorem 2).
#[derive(Debug, Clone, Default)]
pub struct RetimePass;

impl Pass for RetimePass {
    fn name(&self) -> &'static str {
        "ret"
    }

    fn apply(&self, n: &Netlist) -> Option<PassOutcome> {
        // Retiming requires literal initial values; make nondeterministic
        // inits explicit first (semantics-preserving `_init` inputs).
        let mut pre = n.clone();
        let created = explicit_nondet_init(&mut pre);
        let ret = retime(&pre).ok()?;

        let mut bounds = Vec::with_capacity(pre.targets().len());
        let mut target_skews = Vec::with_capacity(pre.targets().len());
        for t in pre.targets() {
            let skew = ret.skew(t.lit.gate());
            bounds.push(if skew > 0 {
                vec![BoundStep::Add(skew)]
            } else {
                Vec::new()
            });
            target_skews.push(skew);
        }

        let input_skews = pre.inputs().iter().map(|&i| ret.skew(i)).collect();
        let mut pre_input_pos = vec![usize::MAX; pre.num_gates()];
        for (p, &i) in pre.inputs().iter().enumerate() {
            pre_input_pos[i.index()] = p;
        }
        let mut ret_input_pos = vec![usize::MAX; ret.netlist.num_gates()];
        for (q, &i) in ret.netlist.inputs().iter().enumerate() {
            ret_input_pos[i.index()] = q;
        }
        let stump = ret
            .stump_inputs
            .iter()
            .map(|&(g, t, ni)| ((pre_input_pos[g.index()], t), ret_input_pos[ni.index()]))
            .collect();
        let mut reg_pos = vec![usize::MAX; n.num_gates()];
        for (j, &r) in n.regs().iter().enumerate() {
            reg_pos[r.index()] = j;
        }
        let init_inputs = created
            .iter()
            .map(|&(r, i)| (reg_pos[r.index()], pre_input_pos[i.index()]))
            .collect();

        let regs_removed = ret.regs_before.saturating_sub(ret.regs_after) as u64;
        let cert = Certificate {
            pass: "ret",
            bounds,
            lifter: Lifter::Retime {
                orig_inputs: n.num_inputs(),
                orig_regs: n.num_regs(),
                input_skews,
                target_skews,
                stump,
                init_inputs,
            },
        };
        Some(
            PassOutcome::new(n, ret.netlist, cert)
                .with_details(vec![("regs_removed", regs_removed)]),
        )
    }
}

/// Phase / c-slow abstraction (Theorem 3). Applies only when every target's
/// register support is uni-colored and all targets agree on the color.
#[derive(Debug, Clone)]
pub struct FoldPass {
    /// Folding factor used when the register graph is acyclic (two-phase
    /// designs use 2).
    pub preferred: u32,
}

impl Pass for FoldPass {
    fn name(&self) -> &'static str {
        "fold"
    }

    fn apply(&self, n: &Netlist) -> Option<PassOutcome> {
        let coloring = detect(n, self.preferred);
        if coloring.c < 2 {
            return None;
        }
        // Precomputed gate → register-position map (the old per-lookup
        // `position()` scan made eligibility O(regs²) per target).
        let mut reg_pos = vec![usize::MAX; n.num_gates()];
        for (j, &r) in n.regs().iter().enumerate() {
            reg_pos[r.index()] = j;
        }
        // Theorem 3 speaks about *identically-colored* vertex sets: folding
        // applies only when each target's register support is uni-colored
        // and every target observes the same color.
        let mut keep: Option<u32> = None;
        for t in n.targets() {
            let sup = diam_netlist::analysis::support(n, t.lit);
            for r in sup.regs {
                let c = coloring.colors[reg_pos[r.index()]];
                match keep {
                    None => keep = Some(c),
                    Some(k) if k != c => return None,
                    _ => {}
                }
            }
        }
        let keep = keep.unwrap_or(0);
        let folded = fold(n, &coloring, keep).ok()?;
        let kept = (0..n.num_regs())
            .filter(|&j| coloring.colors[j] == keep)
            .collect();
        let c = u64::from(folded.c);
        let regs_removed = folded.regs_before.saturating_sub(folded.regs_after) as u64;
        let cert = Certificate {
            pass: "fold",
            bounds: vec![vec![BoundStep::Mul(c)]; n.targets().len()],
            lifter: Lifter::Fold {
                c,
                kept,
                orig_regs: n.num_regs(),
            },
        };
        Some(
            PassOutcome::new(n, folded.netlist, cert)
                .with_details(vec![("c", c), ("regs_removed", regs_removed)]),
        )
    }
}

/// k-step target enlargement of every target (Theorem 4).
#[derive(Debug, Clone, Default)]
pub struct EnlargePass(pub EnlargeOptions);

impl Pass for EnlargePass {
    fn name(&self) -> &'static str {
        "enl"
    }

    fn apply(&self, n: &Netlist) -> Option<PassOutcome> {
        let mut current = n.clone();
        let num_targets = n.targets().len();
        let mut bounds = vec![Vec::new(); num_targets];
        let mut ks = vec![None; num_targets];
        let mut enlarged_count = 0u64;
        for i in 0..num_targets {
            if let Ok(enl) = enlarge(&current, i, &self.0) {
                bounds[i].push(BoundStep::Add(u64::from(enl.k)));
                ks[i] = Some(enl.k);
                enlarged_count += 1;
                current = enl.netlist;
            }
        }
        if enlarged_count == 0 {
            return None;
        }
        let cert = Certificate {
            pass: "enl",
            bounds,
            lifter: Lifter::Enlarge { pre: n.clone(), ks },
        };
        Some(PassOutcome::new(n, current, cert).with_details(vec![("enlarged", enlarged_count)]))
    }
}

/// Parametric re-encoding of automatically selected input-fed cuts
/// (Theorem 1).
#[derive(Debug, Clone, Default)]
pub struct ParametricPass;

impl Pass for ParametricPass {
    fn name(&self) -> &'static str {
        "param"
    }

    fn apply(&self, n: &Netlist) -> Option<PassOutcome> {
        let re = reencode_auto(n)?;
        let params = re.params.len() as u64;
        let complete = u64::from(re.complete_range);
        let cert = Certificate {
            pass: "param",
            bounds: vec![Vec::new(); n.targets().len()],
            lifter: Lifter::Parametric {
                pre: n.clone(),
                transformed: re.netlist.clone(),
                cut: re.cut,
                cut_new: re.cut_new,
                input_lits: n.inputs().iter().map(|&i| re.map[i.index()]).collect(),
                nondet_lits: n.regs().iter().map(|&r| re.map[r.index()]).collect(),
            },
        };
        Some(
            PassOutcome::new(n, re.netlist, cert)
                .with_details(vec![("params", params), ("complete_range", complete)]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use diam_netlist::Init;

    /// Bound steps are recorded in application order and replayed in
    /// reverse; overflow saturates to `None`.
    #[test]
    fn composed_back_translation_order() {
        let cert = |pass, step| Certificate {
            pass,
            bounds: vec![vec![step]],
            lifter: Lifter::Identity,
        };
        let mut chain = CertificateChain::new();
        assert_eq!(chain.back_translate(0, 7), Some(7));
        chain.push(cert("FOLD", BoundStep::Mul(3)));
        chain.push(cert("ENL", BoundStep::Add(2)));
        // Applied order: fold(×3) then enlarge(+2). A bound b on the final
        // netlist is first undone through the enlargement (b + 2), then
        // through the folding (×3): (b + 2) · 3.
        assert_eq!(chain.back_translate(0, 4), Some(18));
        assert_eq!(chain.back_translate(0, u64::MAX / 3), None);
        assert_eq!(chain.bound_steps(0), [BoundStep::Mul(3), BoundStep::Add(2)]);
    }

    /// Brute-force search for a witness hitting `lit` at exactly `depth`
    /// (inputs only; nondet inits all false). Test-sized netlists only.
    fn find_witness(n: &Netlist, lit: Lit, depth: usize) -> Option<Witness> {
        let ni = n.num_inputs();
        let bits = ni * (depth + 1);
        assert!(bits <= 16, "test netlist too wide for enumeration");
        for assignment in 0u32..(1 << bits) {
            let inputs: Vec<Vec<bool>> = (0..=depth)
                .map(|t| {
                    (0..ni)
                        .map(|p| (assignment >> (t * ni + p)) & 1 != 0)
                        .collect()
                })
                .collect();
            let w = Witness {
                inputs,
                nondet_init: vec![false; n.num_regs()],
            };
            if w.replays_to(n, lit) {
                return Some(w);
            }
        }
        None
    }

    /// COM certificate: a witness found on the swept netlist (with a merged
    /// register) lifts to a replay-valid witness of the original.
    #[test]
    fn com_certificate_lifts_witnesses() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let r = n.reg("r", Init::Zero);
        let s = n.reg("s", Init::Zero);
        let nr = n.and(r.lit(), a.into());
        let _ = nr;
        n.set_next(r, a.into());
        n.set_next(s, a.into());
        let both = n.and(r.lit(), s.lit());
        n.add_target(both, "both");
        let out = ComPass::default().apply(&n).expect("com always applies");
        assert!(
            out.netlist.num_regs() < n.num_regs(),
            "the lockstep register must merge"
        );
        let t_new = out.netlist.targets()[0].lit;
        let w = find_witness(&out.netlist, t_new, 1).expect("hit at depth 1");
        let lifted = out.cert.lift(0, &w).expect("lift succeeds");
        assert_eq!(lifted.inputs.len(), w.inputs.len(), "COM preserves depth");
        assert!(lifted.replays_to(&n, n.targets()[0].lit));
    }

    /// COI certificate: dropped inputs default to false; surviving inputs
    /// copy through, and the lifted witness replays.
    #[test]
    fn coi_certificate_lifts_witnesses() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let unused = n.input("unused");
        let dead = n.reg("dead", Init::Nondet);
        n.set_next(dead, unused.into());
        let r = n.reg("r", Init::Zero);
        n.set_next(r, a.into());
        n.add_target(r.lit(), "t");
        let out = CoiPass.apply(&n).expect("coi always applies");
        assert_eq!(out.netlist.num_inputs(), 1, "unused input dropped");
        let t_new = out.netlist.targets()[0].lit;
        let w = find_witness(&out.netlist, t_new, 1).expect("hit at depth 1");
        let lifted = out.cert.lift(0, &w).expect("lift succeeds");
        assert_eq!(lifted.inputs[0].len(), 2, "original input arity restored");
        assert_eq!(lifted.nondet_init.len(), 2);
        assert!(lifted.replays_to(&n, n.targets()[0].lit));
    }

    /// RET certificate: a depth-0 witness on the fully retimed pipeline
    /// lifts to the depth-`skew` witness of the original.
    #[test]
    fn retime_certificate_lifts_witnesses() {
        let mut n = Netlist::new();
        let i = n.input("i");
        let mut prev: Lit = i.into();
        for k in 0..3 {
            let r = n.reg(format!("s{k}"), Init::Zero);
            n.set_next(r, prev);
            prev = r.lit();
        }
        n.add_target(prev, "deep");
        let out = RetimePass.apply(&n).expect("pipeline retimes");
        assert_eq!(out.netlist.num_regs(), 0, "all registers retire");
        assert_eq!(out.cert.bound_steps(0), &[BoundStep::Add(3)]);
        let t_new = out.netlist.targets()[0].lit;
        let w = find_witness(&out.netlist, t_new, 0).expect("combinational hit");
        let lifted = out.cert.lift(0, &w).expect("lift succeeds");
        assert_eq!(lifted.inputs.len(), 4, "depth 0 + skew 3 → 4 frames");
        assert!(lifted.replays_to(&n, n.targets()[0].lit));
    }

    /// RET certificate with nondet initial state: the `_init` input columns
    /// fold back into nondet choices.
    #[test]
    fn retime_certificate_recovers_nondet_inits() {
        let mut n = Netlist::new();
        let i = n.input("i");
        let free = n.reg("free", Init::Nondet);
        let r = n.reg("r", Init::Zero);
        n.set_next(r, i.into());
        n.set_next(free, free.lit());
        let t = n.and(r.lit(), free.lit());
        n.add_target(t, "t");
        let Some(out) = RetimePass.apply(&n) else {
            return; // structure not retimable — nothing to check
        };
        let t_new = out.netlist.targets()[0].lit;
        for depth in 0..3 {
            if let Some(w) = find_witness(&out.netlist, t_new, depth) {
                let lifted = out.cert.lift(0, &w).expect("lift succeeds");
                assert!(lifted.replays_to(&n, n.targets()[0].lit));
                return;
            }
        }
        panic!("no witness found on the retimed netlist");
    }

    /// FOLD certificate: a depth-d witness on the folded 2-slow toggle
    /// expands to a replay-valid depth-2d witness of the original.
    #[test]
    fn fold_certificate_lifts_witnesses() {
        let mut n = Netlist::new();
        let a = n.reg("a", Init::Zero);
        let b = n.reg("b", Init::Zero);
        n.set_next(a, !b.lit());
        n.set_next(b, a.lit());
        n.add_target(a.lit(), "t");
        let out = FoldPass { preferred: 2 }.apply(&n).expect("2-slow folds");
        assert_eq!(out.netlist.num_regs(), 1);
        assert_eq!(out.cert.bound_steps(0), &[BoundStep::Mul(2)]);
        let t_new = out.netlist.targets()[0].lit;
        let w = find_witness(&out.netlist, t_new, 1).expect("folded hit at 1");
        let lifted = out.cert.lift(0, &w).expect("lift succeeds");
        assert_eq!(lifted.inputs.len(), 3, "2·1 + 1 frames");
        assert!(lifted.replays_to(&n, n.targets()[0].lit));
    }

    /// ENL certificate: a witness hitting the enlarged target {3} of a
    /// 3-bit counter extends by the k-step suffix to hit {5}.
    #[test]
    fn enlarge_certificate_lifts_witnesses() {
        let mut n = Netlist::new();
        let b: Vec<_> = (0..3).map(|k| n.reg(format!("b{k}"), Init::Zero)).collect();
        let mut carry = Lit::TRUE;
        for &bit in &b {
            let nk = n.xor(bit.lit(), carry);
            carry = n.and(bit.lit(), carry);
            n.set_next(bit, nk);
        }
        let t0 = n.and(b[0].lit(), !b[1].lit());
        let is5 = n.and(t0, b[2].lit());
        n.add_target(is5, "value_is_5");
        let out = EnlargePass(EnlargeOptions {
            k: 2,
            ..Default::default()
        })
        .apply(&n)
        .expect("enlargement applies");
        assert_eq!(out.cert.bound_steps(0), &[BoundStep::Add(2)]);
        let t_new = out.netlist.targets()[0].lit;
        // The enlarged target characterizes {3}: hit at depth 3.
        let w = find_witness(&out.netlist, t_new, 3).expect("enlarged hit at 3");
        let lifted = out.cert.lift(0, &w).expect("suffix extension succeeds");
        assert_eq!(lifted.inputs.len(), 6, "depth 3 + k 2 → 6 frames");
        assert!(lifted.replays_to(&n, n.targets()[0].lit));
    }

    /// PARAM certificate: the per-frame SAT inversion reconstructs cone
    /// inputs producing the observed cut valuations, including for an
    /// incomplete range.
    #[test]
    fn parametric_certificate_lifts_witnesses() {
        let mut n = Netlist::new();
        let a = n.input("a").lit();
        let b = n.input("b").lit();
        let y0 = n.and(a, b);
        let y1 = n.or(a, b);
        let r0 = n.reg("r0", Init::Zero);
        let r1 = n.reg("r1", Init::Zero);
        n.set_next(r0, y0);
        n.set_next(r1, y1);
        let good = n.and(r0.lit(), r1.lit());
        n.add_target(good, "both");
        let out = ParametricPass.apply(&n).expect("auto cut exists");
        let t_new = out.netlist.targets()[0].lit;
        let w = find_witness(&out.netlist, t_new, 1).expect("hit at depth 1");
        let lifted = out.cert.lift(0, &w).expect("lift succeeds");
        assert_eq!(lifted.inputs.len(), w.inputs.len(), "PARAM preserves depth");
        assert!(lifted.replays_to(&n, n.targets()[0].lit));
    }

    /// Composed chain: COM then FOLD on the redundant 2-slow toggle — the
    /// chain lifts through both certificates and the bound steps accumulate.
    #[test]
    fn certificate_chain_composes() {
        let mut n = Netlist::new();
        let a = n.reg("a", Init::Zero);
        let b = n.reg("b", Init::Zero);
        let a2 = n.reg("a2", Init::Zero);
        n.set_next(a, !b.lit());
        n.set_next(b, a.lit());
        n.set_next(a2, !b.lit()); // lockstep copy of `a`
        let t = n.and(a.lit(), a2.lit());
        n.add_target(t, "t");

        let mut chain = CertificateChain::new();
        let com = ComPass::default().apply(&n).expect("com applies");
        chain.push(com.cert);
        let fold = FoldPass { preferred: 2 }
            .apply(&com.netlist)
            .expect("folds after merge");
        chain.push(fold.cert);
        assert_eq!(chain.bound_steps(0), vec![BoundStep::Mul(2)]);
        assert_eq!(chain.prefix_obligation(0), None, "Mul blocks the prefix");

        let t_new = fold.netlist.targets()[0].lit;
        let w = find_witness(&fold.netlist, t_new, 1).expect("folded hit");
        let lifted = chain.lift(0, &w).expect("chain lift succeeds");
        assert!(lifted.replays_to(&n, n.targets()[0].lit));
    }

    /// Prefix obligations: additive chains sum, multiplicative chains void.
    #[test]
    fn prefix_obligation_accounts_adds_only() {
        let mut chain = CertificateChain::new();
        chain.push(Certificate {
            pass: "ret",
            bounds: vec![vec![BoundStep::Add(3)]],
            lifter: Lifter::Identity,
        });
        chain.push(Certificate {
            pass: "enl",
            bounds: vec![vec![BoundStep::Add(2)]],
            lifter: Lifter::Identity,
        });
        assert_eq!(chain.prefix_obligation(0), Some(5));
        chain.push(Certificate {
            pass: "fold",
            bounds: vec![vec![BoundStep::Mul(2)]],
            lifter: Lifter::Identity,
        });
        assert_eq!(chain.prefix_obligation(0), None);
    }

    /// The unified span: `pass.apply` carries the shared stats schema and
    /// pass-specific details for every engine.
    #[test]
    fn apply_traced_skips_are_recorded() {
        // A netlist nothing applies to: fold needs a factor ≥ 2.
        let mut n = Netlist::new();
        let r = n.reg("r", Init::Zero);
        n.set_next(r, !r.lit());
        n.add_target(r.lit(), "t");
        assert!(apply_traced(&FoldPass { preferred: 1 }, &n).is_none());
        let out = apply_traced(&CoiPass, &n).expect("coi applies");
        assert_eq!(out.stats_before.regs, 1);
        assert_eq!(out.stats_after.regs, 1);
    }
}
