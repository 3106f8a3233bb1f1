//! A portfolio strategy tying the whole system together, in the spirit of
//! the transformation-based verification framework this paper's engines
//! belong to: cheap engines run first, each either discharges a target or
//! simplifies the problem for the next.
//!
//! Engine 1, **random simulation**, runs first and for every target at
//! once: one shared search (the engine behind
//! [`random_search`](crate::random_search)) finds the shallow
//! counterexamples for free. Only if a target survives it does
//! [`solve_all`] pay for the formal engines' shared evidence — one COM
//! sweep, one pipeline run and its bounding pass — and then, for each
//! surviving target, in order:
//!
//! 2. **redundancy removal** (COM) — may collapse the target outright and
//!    yields proven equivalences reused later as induction invariants;
//! 3. **diameter-complete BMC** through a transformation pipeline
//!    (Theorems 1–4) — the paper's contribution: a finite back-translated
//!    bound makes the bounded check a proof either way;
//! 4. **symbolic reachability** — when the bound is too large but the cone
//!    is small enough for BDDs, an exact fixpoint settles the target: an
//!    unreachable target is proved, and a hit's counterexample is walked
//!    back through the fixpoint's onion rings, with no SAT call;
//! 5. **k-induction strengthened with the sweep's invariants** — catches
//!    properties whose diameter stays unboundable but whose inductive core
//!    is shallow;
//! 6. otherwise the target is reported open, with its bound as diagnosis.
//!
//! Every `Failed` verdict's witness is replayed on the original netlist
//! before it is returned, in release builds too: a witness that does not
//! hit its target at its depth panics instead of becoming a wrong answer.

use crate::{
    k_induction_with_invariants, random, BmcOptions, BmcOutcome, InductionOutcome,
    RandomSearchOptions,
};
use diam_core::{Bound, Pipeline, PipelineResult, PipelinedBound, StructuralOptions};
use diam_netlist::sim::Witness;
use diam_netlist::{Lit, Netlist};
use diam_transform::com::{sweep, SweepOptions, SweepResult};

/// Per-target verdict of [`solve_all`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TargetStatus {
    /// The target is unreachable; `by` names the engine that proved it.
    Proved {
        /// Engine that closed the proof.
        by: Engine,
    },
    /// The target is reachable at `depth` (witness replays on the original
    /// netlist).
    Failed {
        /// Earliest-found hit depth (earliest overall when found by the
        /// complete bounded check).
        depth: u64,
        /// Replayable witness.
        witness: Witness,
        /// Engine that found it.
        by: Engine,
    },
    /// Everything inconclusive; the diameter bound is attached as the
    /// diagnosis.
    Open {
        /// The back-translated diameter bound (`None` = exponential).
        bound: Option<u64>,
    },
}

/// The engines a [`TargetStatus`] can credit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Random simulation.
    RandomSim,
    /// Redundancy removal collapsed the target to a constant.
    Com,
    /// Diameter-complete BMC.
    DiameterBmc,
    /// Symbolic (BDD) reachability fixpoint.
    Symbolic,
    /// Invariant-strengthened k-induction.
    Induction,
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Engine::RandomSim => write!(f, "random simulation"),
            Engine::Com => write!(f, "redundancy removal"),
            Engine::DiameterBmc => write!(f, "diameter-complete BMC"),
            Engine::Symbolic => write!(f, "symbolic reachability"),
            Engine::Induction => write!(f, "strengthened k-induction"),
        }
    }
}

/// Options for [`solve_all`].
#[derive(Debug, Clone)]
pub struct StrategyOptions {
    /// Random-simulation budget.
    pub random: RandomSearchOptions,
    /// Sweep options (engine 2; its invariants feed engine 5).
    pub sweep: SweepOptions,
    /// The transformation pipeline for diameter bounding (engine 3).
    pub pipeline: Pipeline,
    /// Refuse complete BMC beyond this depth (0 = unlimited).
    pub depth_cap: u64,
    /// Run symbolic reachability when the target's cone has at most this
    /// many registers (0 disables the engine).
    pub symbolic_reg_cap: usize,
    /// Maximum induction depth.
    pub max_induction: u64,
    /// Structural bounding options for engine 3. The portfolio default
    /// enables the eccentricity engine: tighter certified GC bounds pull
    /// more targets under `depth_cap`, closing verdicts the blanket bound
    /// leaves `Unknown`.
    pub structural: StructuralOptions,
}

impl Default for StrategyOptions {
    fn default() -> StrategyOptions {
        StrategyOptions {
            random: RandomSearchOptions::default(),
            sweep: SweepOptions::default(),
            pipeline: Pipeline::com_ret_com(),
            depth_cap: 256,
            symbolic_reg_cap: 40,
            max_induction: 3,
            structural: StructuralOptions {
                ecc: diam_core::EccOptions::on(),
                ..StructuralOptions::default()
            },
        }
    }
}

/// Runs the portfolio on every target of `n`.
///
/// # Panics
///
/// Panics if a `Failed` witness does not replay on `n` at its depth — an
/// engine bug, reported through the crash hook rather than as a verdict.
pub fn solve_all(n: &Netlist, opts: &StrategyOptions) -> Vec<TargetStatus> {
    // 1. Random simulation, shared by every target.
    let lits: Vec<Lit> = n.targets().iter().map(|t| t.lit).collect();
    let hits = random::search(n, &lits, &opts.random);
    // Engines 2–5 read evidence built once per design, and only for the
    // first target random simulation leaves open.
    let mut evidence = None;
    hits.into_iter()
        .enumerate()
        .map(|(i, hit)| {
            let status = match hit {
                Some((depth, witness)) => TargetStatus::Failed {
                    depth,
                    witness,
                    by: Engine::RandomSim,
                },
                None => decide(
                    n,
                    i,
                    evidence.get_or_insert_with(|| Evidence::new(n, opts)),
                    opts,
                ),
            };
            assert_replays(n, i, &status);
            status
        })
        .collect()
}

/// What engines 2–5 share across a design's targets: one sweep (engine 2
/// evidence + engine 5 invariants), one pipeline run + bounding pass
/// (engine 3). Keeping the pipeline result around gives engine 3 both halves
/// of the certificate chain: the bound map (how deep to search) and the
/// witness lifters (how to carry a transformed-netlist counterexample home).
struct Evidence {
    swept: SweepResult,
    pipelined: PipelineResult,
    bounds: Vec<PipelinedBound>,
}

impl Evidence {
    fn new(n: &Netlist, opts: &StrategyOptions) -> Evidence {
        let swept = sweep(n, &opts.sweep);
        let pipelined = opts.pipeline.run(n);
        let bounds = pipelined.bound_targets(&opts.structural);
        Evidence {
            swept,
            pipelined,
            bounds,
        }
    }
}

/// Engines 2–5 for target `i`, which random simulation left open.
fn decide(n: &Netlist, i: usize, ev: &Evidence, opts: &StrategyOptions) -> TargetStatus {
    // 2. Did the sweep collapse the target to constant false?
    let t = n.targets()[i].lit;
    if ev.swept.lit(t) == Some(Lit::FALSE) {
        return TargetStatus::Proved { by: Engine::Com };
    }
    // 3. Diameter-complete BMC through the transformation pipeline: search
    // on the transformed netlist (to the *transformed* bound) and lift any
    // counterexample home through the certificate chain. Falls back to the
    // original netlist for multiplicative chains or failed lifts.
    let bound = ev.bounds[i].original;
    if let Bound::Finite(b) = bound {
        if opts.depth_cap == 0 || b <= opts.depth_cap {
            match diameter_complete_check(n, &ev.pipelined, i, b) {
                BmcOutcome::Counterexample { depth, witness } => {
                    return TargetStatus::Failed {
                        depth,
                        witness,
                        by: Engine::DiameterBmc,
                    };
                }
                BmcOutcome::NoHitUpTo(_) => {
                    return TargetStatus::Proved {
                        by: Engine::DiameterBmc,
                    };
                }
                BmcOutcome::Unknown { .. } => {}
            }
        }
    }
    // 4. Symbolic reachability on small-enough cones. The fixpoint is
    // exact: unreachable proves, and a hit comes with the counterexample
    // walked back through the fixpoint's onion rings.
    let cone_regs = diam_netlist::analysis::coi(n, [t]).regs.len();
    if opts.symbolic_reg_cap > 0 && cone_regs <= opts.symbolic_reg_cap {
        if let Ok(r) =
            diam_core::symbolic::reach(n, i, &diam_core::symbolic::SymbolicLimits::default())
        {
            return match r.earliest_hit {
                None => TargetStatus::Proved {
                    by: Engine::Symbolic,
                },
                Some(depth) => TargetStatus::Failed {
                    depth,
                    witness: r.witness.expect("symbolic hits carry a witness"),
                    by: Engine::Symbolic,
                },
            };
        }
    }
    // 5. Invariant-strengthened induction.
    match k_induction_with_invariants(n, i, opts.max_induction, &ev.swept.proven) {
        InductionOutcome::Proved { .. } => TargetStatus::Proved {
            by: Engine::Induction,
        },
        InductionOutcome::Counterexample { depth, witness } => TargetStatus::Failed {
            depth,
            witness,
            by: Engine::Induction,
        },
        InductionOutcome::Unknown => TargetStatus::Open {
            bound: bound.finite(),
        },
    }
}

/// Replays a `Failed` verdict's witness on the original netlist: it must
/// hit target `i` at exactly the reported depth. Runs in release builds —
/// a mismatch panics, so the crash hook records it instead of a wrong
/// verdict reaching the caller.
fn assert_replays(n: &Netlist, i: usize, status: &TargetStatus) {
    if let TargetStatus::Failed { depth, witness, by } = status {
        assert!(
            witness.inputs.len() as u64 == depth + 1 && witness.replays_to(n, n.targets()[i].lit),
            "{by} witness for target {i} ({}) does not replay at depth {depth}",
            n.targets()[i].name
        );
    }
}

/// Engine 3: a complete bounded check of target `index` against its
/// back-translated bound `b`, run through the transformed netlist.
///
/// A clean prefix (original netlist, depths `0..p`) plus a clean
/// transformed check (depths `0..=b − 1 − p`) covers original depths
/// `0..=b − 1` — the same completeness contract as BMC-to-`b − 1` on the
/// original, at the transformed netlist's (smaller) cost; counterexamples
/// come back through the certificate chain's witness lifters and replay on
/// the original netlist.
fn diameter_complete_check(
    n: &Netlist,
    pipelined: &diam_core::PipelineResult,
    index: usize,
    b: u64,
) -> BmcOutcome {
    crate::check_one_transformed(
        n,
        pipelined,
        index,
        &BmcOptions {
            max_depth: b.saturating_sub(1),
            ..BmcOptions::default()
        },
    )
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops mirror the math here
mod tests {
    use super::*;
    use diam_netlist::{Gate, Init, Lit};

    /// A design exercising every portfolio layer at once.
    fn mixed_design() -> Netlist {
        let mut n = Netlist::new();
        let i = n.input("i").lit();

        // Target 0 — easy hit for random simulation.
        let r = n.reg("easy", Init::Zero);
        n.set_next(r, i);
        n.add_target(r.lit(), "easy_hit");

        // Target 1 — lock-step registers through different structure: COM.
        let a = n.reg("a", Init::Zero);
        let b = n.reg("b", Init::Zero);
        let e = n.input("e").lit();
        let na = n.and(i, e);
        let nb = n.mux(e, i, Lit::FALSE);
        n.set_next(a, na);
        n.set_next(b, nb);
        let differ = n.xor(a.lit(), b.lit());
        n.add_target(differ, "lockstep");

        // Target 2 — mod-6 counter overflow behind a pipeline: needs the
        // diameter-complete check (reassociated so COM cannot collapse it).
        let mut en = i;
        for k in 0..4 {
            let p = n.reg(format!("p{k}"), Init::Zero);
            n.set_next(p, en);
            en = p.lit();
        }
        let bits: Vec<Gate> = (0..3).map(|k| n.reg(format!("c{k}"), Init::Zero)).collect();
        let at_five = {
            let hi = n.and(bits[2].lit(), !bits[1].lit());
            n.and(hi, bits[0].lit())
        };
        let clear = n.and(en, at_five);
        let en_inc = n.and(en, !at_five);
        let mut carry = en_inc;
        for r in &bits {
            let inc = n.xor(r.lit(), carry);
            carry = n.and(r.lit(), carry);
            let nx = n.and(inc, !clear);
            n.set_next(*r, nx);
        }
        let overflow = {
            let lo_hi = n.and(bits[0].lit(), bits[2].lit());
            n.and(lo_hi, bits[1].lit())
        };
        n.add_target(overflow, "overflow");
        n
    }

    #[test]
    fn portfolio_credits_the_right_engines() {
        let n = mixed_design();
        let statuses = solve_all(&n, &StrategyOptions::default());
        assert_eq!(statuses.len(), 3);
        match &statuses[0] {
            TargetStatus::Failed { by, witness, .. } => {
                assert_eq!(*by, Engine::RandomSim);
                assert!(witness.replays_to(&n, n.targets()[0].lit));
            }
            other => panic!("target 0: {other:?}"),
        }
        match &statuses[1] {
            TargetStatus::Proved { by } => {
                assert_eq!(*by, Engine::Com);
            }
            other => panic!("target 1: {other:?}"),
        }
        // Target 2's overflow is sometimes within reach of the sweep's
        // invariant vocabulary; the portfolio may close it via COM or the
        // diameter check — either way it must be proved.
        match &statuses[2] {
            TargetStatus::Proved { .. } => {}
            other => panic!("target 2: {other:?}"),
        }

        // With the sweep crippled, the diameter-complete check must pick up
        // the overflow target — exercising the fallback order.
        let crippled = StrategyOptions {
            sweep: SweepOptions {
                max_refinements: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let statuses = solve_all(&n, &crippled);
        match &statuses[2] {
            TargetStatus::Proved { by } => assert_eq!(*by, Engine::DiameterBmc),
            other => panic!("crippled target 2: {other:?}"),
        }
    }

    /// `solve_all` as it ran before the random search was shared and the
    /// formal engines lazy: every engine's evidence up front, then the
    /// per-target random search, then engines 2–5.
    fn eager_reference(n: &Netlist, opts: &StrategyOptions) -> Vec<TargetStatus> {
        let ev = Evidence::new(n, opts);
        (0..n.targets().len())
            .map(
                |i| match crate::random::per_target_oracle(n, i, &opts.random) {
                    Some((depth, witness)) => TargetStatus::Failed {
                        depth,
                        witness,
                        by: Engine::RandomSim,
                    },
                    None => decide(n, i, &ev, opts),
                },
            )
            .collect()
    }

    /// Runs `solve_all` under a `Json` session and returns its verdicts plus
    /// every span it opened, by name and `index` field (when it has one).
    /// Spans are matched by ancestry, so concurrently running tests cannot
    /// leak into the set.
    fn traced_solve(n: &Netlist) -> (Vec<TargetStatus>, Vec<(&'static str, Option<u64>)>) {
        use diam_obs::{EventKind, ObsConfig, ObsMode, RunManifest, Session, Value};
        let session = Session::install(
            ObsConfig {
                mode: ObsMode::Json,
                ..ObsConfig::default()
            },
            RunManifest::capture("test-lazy-portfolio"),
        );
        let (statuses, root) = {
            let sp = diam_obs::span!("test.solve");
            (solve_all(n, &StrategyOptions::default()), sp.id())
        };
        let report = session.finish();
        let mut parent = std::collections::HashMap::new();
        let mut spans = Vec::new();
        for e in &report.events {
            if let EventKind::Open {
                span,
                parent: p,
                name,
                fields,
            } = &e.kind
            {
                parent.insert(*span, *p);
                let mut up = *p;
                while up != 0 && up != root {
                    up = parent.get(&up).copied().unwrap_or(0);
                }
                if up == root {
                    let index = fields.iter().find_map(|(k, v)| match (k, v) {
                        (&"index", Value::U64(i)) => Some(*i),
                        _ => None,
                    });
                    spans.push((*name, index));
                }
            }
        }
        (statuses, spans)
    }

    #[test]
    fn formal_engines_run_only_for_targets_random_simulation_leaves_open() {
        const FORMAL: [&str; 3] = ["pipeline.run", "pass.apply", "bound.target"];
        // Every target here falls to random simulation: constant true, an
        // input, a register loading it, and both together.
        let mut n = Netlist::new();
        let i = n.input("i").lit();
        let r = n.reg("r", Init::Zero);
        n.set_next(r, i);
        let both = n.and(r.lit(), i);
        n.add_target(Lit::TRUE, "always");
        n.add_target(i, "input");
        n.add_target(r.lit(), "reg");
        n.add_target(both, "both");
        let (statuses, spans) = traced_solve(&n);
        assert!(
            statuses.iter().all(|s| matches!(
                s,
                TargetStatus::Failed {
                    by: Engine::RandomSim,
                    ..
                }
            )),
            "{statuses:?}"
        );
        assert_eq!(statuses, eager_reference(&n, &StrategyOptions::default()));
        assert!(
            !spans.iter().any(|(s, _)| FORMAL.contains(s)),
            "formal engines ran for a fully falsified design: {spans:?}"
        );

        // Control: one surviving target pays for the shared evidence.
        let n = mixed_design();
        let (statuses, spans) = traced_solve(&n);
        assert_eq!(statuses, eager_reference(&n, &StrategyOptions::default()));
        for name in FORMAL {
            assert!(
                spans.iter().any(|(s, _)| *s == name),
                "{name} missing: {spans:?}"
            );
        }
    }

    #[test]
    fn lazy_portfolio_matches_the_eager_reference_on_random_netlists() {
        use diam_gen::random::{random_netlist, RandomDesignOptions};
        let opts = StrategyOptions::default();
        let mut survivors = 0;
        for seed in 0..12 {
            let n = random_netlist(
                &RandomDesignOptions {
                    targets: 3,
                    ..RandomDesignOptions::default()
                },
                seed,
            );
            let statuses = solve_all(&n, &opts);
            assert_eq!(statuses, eager_reference(&n, &opts), "seed {seed}");
            survivors += statuses
                .iter()
                .filter(|s| {
                    !matches!(
                        s,
                        TargetStatus::Failed {
                            by: Engine::RandomSim,
                            ..
                        }
                    )
                })
                .count();
        }
        assert!(survivors > 0, "no target reached engines 2–5");
    }

    /// A large stirred ring whose all-ones target is reachable only at
    /// depth 24: random simulation misses it and its 2^24 bound is over
    /// every depth cap, so only the symbolic engine can settle it.
    fn stirred_ring() -> Netlist {
        use diam_netlist::sim::SplitMix64;
        let mut n = Netlist::new();
        let mut rng = SplitMix64::new(9);
        let stir = n.input("stir");
        let regs: Vec<Gate> = (0..24)
            .map(|k| n.reg(format!("r{k}"), Init::Zero))
            .collect();
        for k in 0..24 {
            let prev = regs[(k + 23) % 24].lit();
            let nx = if k == 0 {
                n.xor(prev, stir.lit())
            } else if rng.below(4) == 0 {
                n.xor(prev, regs[(k + 12) % 24].lit())
            } else {
                prev
            };
            n.set_next(regs[k], nx);
        }
        let lits: Vec<Lit> = regs.iter().map(|r| r.lit()).collect();
        let t = n.and_many(lits);
        n.add_target(t, "all_ones");
        n
    }

    #[test]
    fn unboundable_targets_are_reported_open() {
        let n = stirred_ring();
        // With the symbolic engine disabled, nothing can touch a 2^24
        // bound: reported open with the bound attached as the diagnosis.
        let limited = StrategyOptions {
            max_induction: 1,
            symbolic_reg_cap: 0,
            ..Default::default()
        };
        let statuses = solve_all(&n, &limited);
        match &statuses[0] {
            TargetStatus::Open { bound } => assert_eq!(*bound, Some(1 << 24)),
            other => panic!("expected open, got {other:?}"),
        }
        // The default portfolio includes symbolic reachability, whose exact
        // fixpoint resolves the target (all-ones is reachable at depth 24 by
        // stirring ones around the ring) — with a replayable witness.
        let statuses = solve_all(
            &n,
            &StrategyOptions {
                max_induction: 1,
                ..Default::default()
            },
        );
        match &statuses[0] {
            TargetStatus::Failed { by, witness, depth } => {
                assert_eq!(*by, Engine::Symbolic);
                assert_eq!(*depth, 24);
                assert_eq!(witness.inputs.len(), 25, "one row per step 0..=24");
                assert!(witness.replays_to(&n, n.targets()[0].lit));
            }
            other => panic!("expected symbolic hit, got {other:?}"),
        }
    }

    #[test]
    fn symbolic_hits_make_no_bmc_call() {
        // Engine 4 hands back the witness it walked out of its rings; no
        // BMC check re-derives it.
        let (statuses, spans) = traced_solve(&stirred_ring());
        assert!(
            matches!(
                statuses[0],
                TargetStatus::Failed {
                    by: Engine::Symbolic,
                    depth: 24,
                    ..
                }
            ),
            "{statuses:?}"
        );
        assert!(
            spans.contains(&("symbolic.reach", Some(0))),
            "engine 4 did not run: {spans:?}"
        );
        assert!(
            !spans.contains(&("bmc.check", Some(0))),
            "engine 4 re-ran BMC: {spans:?}"
        );
    }

    /// Engine 4 against BMC, the reference for time-0 semantics (explicit
    /// exploration is not one: its first transition also takes free
    /// inputs). On corner netlists — `Init::Fn` and `Nondet` registers,
    /// constant and duplicate targets — every target's symbolic earliest hit
    /// equals `check`'s up to a depth cap, and comes with a witness of
    /// exactly `depth + 1` rows that replays; `None` means `check` finds no
    /// hit either.
    #[test]
    fn symbolic_earliest_hits_match_bmc_on_corner_netlists() {
        use crate::random::corner_netlist;
        use crate::{check, BmcOptions, BmcOutcome};
        use diam_core::symbolic::{reach, SymbolicLimits};
        use diam_netlist::analysis::coi;
        use diam_netlist::sim::SplitMix64;
        const CAP: u64 = 12;
        let designs = if cfg!(debug_assertions) { 200 } else { 2000 };
        let mut rng = SplitMix64::new(0x5ab0);
        let mut late_fn_hits = 0;
        for _ in 0..designs {
            let (inputs, regs, gates) = (
                rng.below(4) as usize,
                1 + rng.below(5) as usize,
                2 + rng.below(22) as usize,
            );
            let seed = rng.next_u64();
            let n = corner_netlist(inputs, regs, gates, seed);
            let ctx = format!("corner_netlist({inputs}, {regs}, {gates}, {seed})");
            for (i, t) in n.targets().iter().enumerate() {
                let r = reach(&n, i, &SymbolicLimits::default()).expect("small cones fit");
                let bmc = match check(
                    &n,
                    i,
                    &BmcOptions {
                        max_depth: CAP,
                        ..BmcOptions::default()
                    },
                ) {
                    BmcOutcome::Counterexample { depth, .. } => Some(depth),
                    BmcOutcome::NoHitUpTo(_) => None,
                    other => panic!("{ctx} target {i}: {other:?}"),
                };
                let capped = r.earliest_hit.filter(|&d| d <= CAP);
                assert_eq!(capped, bmc, "{ctx} target {i} ({})", t.name);
                match (r.earliest_hit, &r.witness) {
                    (None, None) => {}
                    (Some(d), Some(w)) => {
                        assert_eq!(w.inputs.len() as u64, d + 1, "{ctx} target {i}");
                        assert!(w.replays_to(&n, t.lit), "{ctx} target {i}");
                    }
                    other => panic!("{ctx} target {i}: {other:?}"),
                }
                let fn_cone = coi(&n, [t.lit])
                    .regs
                    .iter()
                    .any(|&g| matches!(n.reg_init(g), Init::Fn(_)));
                if fn_cone && capped.is_some_and(|d| d > 0) {
                    late_fn_hits += 1;
                }
            }
        }
        assert!(late_fn_hits > 0, "no Init::Fn cone was hit after time 0");
    }
}
