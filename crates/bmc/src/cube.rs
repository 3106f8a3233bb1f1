//! Cube-and-conquer splitting of deep BMC obligations.
//!
//! A depth-`d` obligation ("is the target hittable at exactly depth `d`?")
//! is split into `2^k` **cubes**: conjunctions of `k` assumption literals
//! over high-fanout state variables of the target's cone, encoded at the
//! middle frame `⌊d/2⌋`. The split is exhaustive by construction — every
//! assignment falls into exactly one cube — so:
//!
//! * every cube UNSAT ⇒ the depth is clean (same verdict as the monolithic
//!   solve);
//! * any cube SAT ⇒ a counterexample (its model extends to a full witness);
//! * any cube `Unknown` (conflict budget) without a SAT ⇒ `Unknown`.
//!
//! Cubes are farmed as [`diam_par`] jobs under the caller's cancellation
//! token. Each job **clones** the base incremental solver and solves the
//! clone under its cube's assumptions, so the base solver's clause database
//! is untouched.
//!
//! ## Determinism contract
//!
//! Cube order is fixed, jobs are pure, and the merge takes the first event
//! in cube-index order: output is **bit-identical** across every
//! `Parallelism` setting.

use crate::{extract_witness, solve_traced, BmcOptions};
use diam_netlist::sim::Witness;
use diam_netlist::{GateKind, Lit, Netlist};
use diam_par::CancelToken;
use diam_sat::{Lit as SatLit, SolveResult, Solver};
use diam_transform::unroll::Unroller;

/// Whether deep BMC obligations are cube-split; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CubeMode {
    /// No cube splitting: every depth is one monolithic solve.
    #[default]
    Off,
    /// Fixed cube order, pure jobs, deterministic merge: bit-identical
    /// output across all `Parallelism` settings.
    Reproducible,
}

impl CubeMode {
    /// Parses a `--cube` flag value.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unparsable value.
    pub fn parse(s: &str) -> Result<CubeMode, String> {
        match s {
            "off" => Ok(CubeMode::Off),
            "repro" | "reproducible" => Ok(CubeMode::Reproducible),
            _ => Err(format!(
                "bad --cube value {s:?} (expected `off` or `repro`)"
            )),
        }
    }
}

impl std::fmt::Display for CubeMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CubeMode::Off => write!(f, "off"),
            CubeMode::Reproducible => write!(f, "repro"),
        }
    }
}

/// Options for the cube layer (a field of [`BmcOptions`]).
#[derive(Debug, Clone)]
pub struct CubeOptions {
    /// Splitting mode.
    pub mode: CubeMode,
    /// Cube variables per depth: `2^vars` cubes (clamped to the state
    /// variables actually available in the cone).
    pub vars: u32,
    /// Only depths at or above this are split; shallow obligations are
    /// cheaper monolithic.
    pub min_depth: u64,
}

impl Default for CubeOptions {
    fn default() -> CubeOptions {
        CubeOptions {
            mode: CubeMode::Off,
            vars: 3,
            min_depth: 4,
        }
    }
}

/// Verdict of one cube job; the SAT variant keeps the clone holding the
/// model.
enum CubeVerdict {
    Sat(Box<Solver>),
    Unsat,
    /// A conflict budget expired, or the job found the token cancelled.
    Unknown,
}

/// Whether this depth should be cube-split at all.
pub(crate) fn applicable(opts: &BmcOptions, depth: u64) -> bool {
    opts.cube.mode != CubeMode::Off && depth >= opts.cube.min_depth && opts.cube.vars > 0
}

/// Picks up to `k` cube literals: registers of the target's cone of
/// influence, scored by static fanout (descending; gate index ascending as
/// the tie-break — a deterministic "most constrained first" lookahead),
/// encoded at the middle frame `⌊depth/2⌋` of the unrolling. Encoding may
/// create frames/variables, which is why the base solver is mutated here —
/// *before* it is cloned for the cube jobs.
fn select_cube_lits(
    n: &Netlist,
    solver: &mut Solver,
    unroller: &mut Unroller<'_>,
    target: Lit,
    depth: u64,
    k: u32,
) -> Vec<SatLit> {
    let cone = diam_netlist::analysis::coi(n, [target]);
    if cone.regs.is_empty() {
        return Vec::new();
    }
    // Static fanout per gate: references as an AND fanin or a register's
    // next-state function.
    let mut fanout = vec![0u32; n.num_gates()];
    for g in n.gates() {
        match n.kind(g) {
            GateKind::And(a, b) => {
                fanout[a.gate().index()] += 1;
                fanout[b.gate().index()] += 1;
            }
            GateKind::Reg => fanout[n.reg_next(g).gate().index()] += 1,
            _ => {}
        }
    }
    let mut scored: Vec<(u32, diam_netlist::Gate)> =
        cone.regs.iter().map(|&r| (fanout[r.index()], r)).collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.index().cmp(&b.1.index())));

    let frame = (depth / 2) as usize;
    let mut lits: Vec<SatLit> = Vec::new();
    for (_, r) in scored {
        let l = unroller.lit_at(solver, r.lit(), frame);
        // Distinct SAT variables only: equivalent registers would produce
        // trivially empty cubes.
        if lits.iter().all(|p| p.var() != l.var()) {
            lits.push(l);
        }
        if lits.len() >= k as usize {
            break;
        }
    }
    lits
}

/// Solves the depth-`depth` obligation of `target` by cube-and-conquer,
/// returning the verdict plus, on SAT, a witness extracted from the first
/// satisfiable cube. `None` when the cone has no state variable to split
/// on; the caller then solves monolithically.
///
/// The base incremental `solver`/`unroller` pair is mutated only by
/// encoding (the obligation literal and the cube frame); the search runs on
/// per-cube clones, so the caller's incremental loop continues as if a
/// monolithic solve had returned. Cube jobs run under `token`: once it is
/// cancelled, unstarted cubes report `Unknown`.
pub(crate) fn solve_depth(
    n: &Netlist,
    solver: &mut Solver,
    unroller: &mut Unroller<'_>,
    target: Lit,
    depth: u64,
    token: &CancelToken,
    opts: &BmcOptions,
) -> Option<(SolveResult, Option<Witness>)> {
    let obligation = unroller.lit_at(solver, target, depth as usize);
    let cube_lits = select_cube_lits(n, solver, unroller, target, depth, opts.cube.vars);
    if cube_lits.is_empty() {
        return None;
    }
    let ncubes = 1usize << cube_lits.len();
    let mut sp = diam_obs::span!("cube.split", depth = depth, cubes = ncubes);

    let base = &*solver;
    let verdicts = diam_par::run_with_token(
        opts.parallelism,
        token,
        (0..ncubes).collect::<Vec<usize>>(),
        |_| 1,
        |_, m, token| {
            if token.is_cancelled() {
                return CubeVerdict::Unknown;
            }
            let mut sp = diam_obs::span!("cube.solve", depth = depth, cube = m);
            let mut s = base.clone();
            let mut assumptions = vec![obligation];
            for (bit, &l) in cube_lits.iter().enumerate() {
                assumptions.push(if m >> bit & 1 == 1 { l } else { !l });
            }
            match solve_traced(&mut s, &assumptions, depth) {
                SolveResult::Sat => {
                    sp.record("outcome", "sat");
                    CubeVerdict::Sat(Box::new(s))
                }
                SolveResult::Unsat => {
                    diam_obs::counter_add("cube.refuted", 1);
                    sp.record("outcome", "unsat");
                    CubeVerdict::Unsat
                }
                SolveResult::Unknown => {
                    sp.record("outcome", "unknown");
                    CubeVerdict::Unknown
                }
            }
        },
    );

    // Merge in cube-index order; the first SAT cube wins. Jobs are pure, so
    // this scan is a function of the job results alone — thread-count
    // independent.
    let mut unknown = false;
    let mut refuted = 0u64;
    let mut winner: Option<Box<Solver>> = None;
    for verdict in verdicts {
        match verdict {
            CubeVerdict::Sat(s) => {
                winner.get_or_insert(s);
            }
            CubeVerdict::Unsat => refuted += 1,
            CubeVerdict::Unknown => unknown = true,
        }
    }
    sp.record("refuted", refuted);
    Some(if let Some(s) = winner {
        sp.record("outcome", "sat");
        let witness = extract_witness(n, unroller, &s, depth as usize);
        (SolveResult::Sat, Some(witness))
    } else if unknown {
        sp.record("outcome", "unknown");
        (SolveResult::Unknown, None)
    } else {
        sp.record("outcome", "unsat");
        (SolveResult::Unsat, None)
    })
}
