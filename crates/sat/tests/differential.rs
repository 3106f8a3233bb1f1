//! Differential testing of the arena CDCL solver against a naive DPLL
//! reference on random 3-CNFs.
//!
//! The oracle is deliberately dumb: unit propagation + chronological
//! backtracking over a recursive split, no learning, no heuristics — simple
//! enough to audit by eye. For every random instance:
//!
//! * both solvers must agree Sat/Unsat;
//! * on Sat, the CDCL model is checked clause-by-clause against the CNF;
//! * on Unsat under assumptions, the reported `unsat_core` is validated by
//!   re-solving with *only* the core assumed — which must still be Unsat.
//!
//! Instances are sized so the reference stays fast (≤ 60 variables), while
//! clause/variable ratios straddle the 3-SAT phase transition (~4.26) so both
//! satisfiable and unsatisfiable formulas are exercised.

use diam_sat::{Lit, SolveResult, Solver, Var};
use proptest::prelude::*;

/// A CNF over `num_vars` variables; clauses are literal lists.
#[derive(Debug, Clone)]
struct Cnf {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
}

/// Deterministically expands a compact seed into a random k-CNF. Doing the
/// expansion ourselves (rather than generating `Vec<Vec<Lit>>` through the
/// shim) keeps the strategy simple and the instance well-formed by
/// construction: no empty clauses, no duplicate variables within a clause.
fn build_cnf(seed: u64, num_vars: usize, num_clauses: usize) -> Cnf {
    // SplitMix64 — same generator family as the vendored shim's TestRng.
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut clauses = Vec::with_capacity(num_clauses);
    for _ in 0..num_clauses {
        // 3 distinct variables (or fewer when num_vars < 3), random phases.
        let width = 3.min(num_vars);
        let mut vars: Vec<usize> = Vec::with_capacity(width);
        while vars.len() < width {
            let v = (next() % num_vars as u64) as usize;
            if !vars.contains(&v) {
                vars.push(v);
            }
        }
        let clause: Vec<Lit> = vars
            .into_iter()
            .map(|v| Var::from_index(v).lit(next() & 1 == 0))
            .collect();
        clauses.push(clause);
    }
    Cnf { num_vars, clauses }
}

/// Naive DPLL reference: unit propagation + recursive split on the first
/// unassigned variable. Returns `Some(model)` or `None` (Unsat).
fn dpll(cnf: &Cnf, assumptions: &[Lit]) -> Option<Vec<bool>> {
    let mut assign: Vec<Option<bool>> = vec![None; cnf.num_vars];
    for &a in assumptions {
        let want = !a.is_negative();
        match assign[a.var().index()] {
            Some(b) if b != want => return None,
            _ => assign[a.var().index()] = Some(want),
        }
    }
    fn solve(cnf: &Cnf, assign: &mut Vec<Option<bool>>) -> bool {
        // Unit propagation to fixpoint.
        loop {
            let mut changed = false;
            for clause in &cnf.clauses {
                let mut unassigned: Option<Lit> = None;
                let mut n_unassigned = 0;
                let mut satisfied = false;
                for &l in clause {
                    match assign[l.var().index()] {
                        None => {
                            n_unassigned += 1;
                            unassigned = Some(l);
                        }
                        Some(b) => {
                            if b != l.is_negative() {
                                satisfied = true;
                                break;
                            }
                        }
                    }
                }
                if satisfied {
                    continue;
                }
                match n_unassigned {
                    0 => return false, // conflict
                    1 => {
                        let l = unassigned.unwrap();
                        assign[l.var().index()] = Some(!l.is_negative());
                        changed = true;
                    }
                    _ => {}
                }
            }
            if !changed {
                break;
            }
        }
        // Split on the first unassigned variable.
        match assign.iter().position(Option::is_none) {
            None => true, // full assignment, and no clause is falsified
            Some(v) => {
                for b in [true, false] {
                    let saved = assign.clone();
                    assign[v] = Some(b);
                    if solve(cnf, assign) {
                        return true;
                    }
                    *assign = saved;
                }
                false
            }
        }
    }
    if solve(cnf, &mut assign) {
        Some(assign.into_iter().map(|b| b.unwrap_or(false)).collect())
    } else {
        None
    }
}

fn load(cnf: &Cnf) -> Solver {
    let mut s = Solver::new();
    for _ in 0..cnf.num_vars {
        s.new_var();
    }
    for clause in &cnf.clauses {
        s.add_clause(clause.iter().copied());
    }
    s
}

/// `true` iff the model (`value` per variable) satisfies every clause.
fn model_satisfies(cnf: &Cnf, s: &Solver) -> bool {
    cnf.clauses.iter().all(|clause| {
        clause.iter().any(|&l| {
            // An unassigned variable in a satisfied solver state can take
            // either phase; treat `None` as "false" conservatively — the
            // clause must be satisfied by some *assigned* literal or a
            // don't-care (which means another literal already satisfies it
            // under every completion, so scanning assigned ones suffices
            // for randomized testing).
            s.value(l) == Some(true)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn agrees_with_dpll_on_random_3cnf(
        seed in proptest::arbitrary::any::<u64>(),
        num_vars in 3usize..=40,
        ratio_pct in 200u64..=600, // clauses/vars in [2.0, 6.0]
    ) {
        let num_clauses = ((num_vars as u64 * ratio_pct) / 100).max(1) as usize;
        let cnf = build_cnf(seed, num_vars, num_clauses);
        let mut s = load(&cnf);
        let got = s.solve();
        let want = dpll(&cnf, &[]);
        match (got, &want) {
            (SolveResult::Sat, Some(_)) => {
                prop_assert!(model_satisfies(&cnf, &s), "CDCL model falsifies a clause\n{cnf:?}");
            }
            (SolveResult::Unsat, None) => {}
            _ => prop_assert!(false, "disagreement: cdcl={got:?} dpll_sat={} on {cnf:?}", want.is_some()),
        }
        // The solver must stay usable incrementally after the verdict.
        let again = s.solve();
        prop_assert_eq!(got, again, "verdict changed on re-solve");
    }

    #[test]
    fn assumption_cores_check_out(
        seed in proptest::arbitrary::any::<u64>(),
        num_vars in 4usize..=30,
        ratio_pct in 250u64..=550,
        n_assumps in 1usize..=6,
    ) {
        let num_clauses = ((num_vars as u64 * ratio_pct) / 100).max(1) as usize;
        let cnf = build_cnf(seed, num_vars, num_clauses);
        // Derive assumptions from the same seed, offset so they do not
        // correlate with clause structure.
        let assumps: Vec<Lit> = (0..n_assumps)
            .map(|i| {
                let x = seed.rotate_left((7 * i + 13) as u32) ^ 0xA5A5_5A5A;
                Var::from_index((x % num_vars as u64) as usize).lit(x & 2 == 0)
            })
            .collect();
        let mut s = load(&cnf);
        let got = s.solve_with(&assumps);
        let want = dpll(&cnf, &assumps);
        match (got, &want) {
            (SolveResult::Sat, Some(_)) => {
                prop_assert!(model_satisfies(&cnf, &s));
                for &a in &assumps {
                    prop_assert_eq!(s.value(a), Some(true), "assumption not honored");
                }
            }
            (SolveResult::Unsat, None) => {
                // Core validation: assuming only the reported core must
                // still be Unsat (on a fresh solver, so learned clauses
                // cannot mask an unsound core).
                let core: Vec<Lit> = s.unsat_core().to_vec();
                for &c in &core {
                    prop_assert!(
                        assumps.contains(&c),
                        "core literal {c:?} is not an assumption"
                    );
                }
                if dpll(&cnf, &[]).is_none() {
                    // The formula itself is Unsat; an empty core is legal.
                } else {
                    prop_assert!(!core.is_empty(), "sat formula, unsat assumptions, empty core");
                }
                let mut fresh = load(&cnf);
                prop_assert_eq!(
                    fresh.solve_with(&core),
                    SolveResult::Unsat,
                    "re-solving under the core alone is not Unsat"
                );
            }
            _ => prop_assert!(false, "disagreement under assumptions: cdcl={got:?} dpll_sat={}", want.is_some()),
        }
    }

    #[test]
    fn inprocessing_never_changes_the_verdict(
        seed in proptest::arbitrary::any::<u64>(),
        num_vars in 4usize..=24,
        ratio_pct in 300u64..=500,
    ) {
        let num_clauses = ((num_vars as u64 * ratio_pct) / 100).max(1) as usize;
        let cnf = build_cnf(seed, num_vars, num_clauses);
        let mut plain = load(&cnf);
        let baseline = plain.solve();
        // Same instance, but with inprocessing (simplify + arena GC) forced
        // between incremental calls — verdicts must match call-for-call.
        let mut inproc = load(&cnf);
        for round in 0..3 {
            let r = inproc.solve();
            prop_assert_eq!(r, baseline, "round {} diverged", round);
            inproc.inprocess();
            let _ = inproc.gc(); // force a compaction even below the waste gate
        }
    }
}
