//! Redundancy removal — the paper's **COM** engine (Section 3.1).
//!
//! The engine identifies semantically equivalent vertices and merges each
//! onto its oldest class representative, redirecting fanout. Merging
//! preserves the semantics of every remaining vertex, so by Theorem 1 of the
//! paper a diameter bound computed after redundancy removal is a diameter
//! bound for the original netlist — the back-translation is the identity.
//!
//! The implementation follows the SAT-sweeping / van-Eijk recipe the paper
//! cites (\[14, 15, 27\]):
//!
//! 1. **Candidates** come from bit-parallel sequential simulation from the
//!    initial states: gates with equal (or complemented) value signatures
//!    form equivalence-class candidates; the constant class is seeded by
//!    gate 0. The signatures are never stored. The candidates (the gates in
//!    the targets' cone, plus gate 0) form one partition, and each
//!    simulation word splits every class by the word's value, complemented
//!    for gates whose first simulated bit was 1. Per gate only that phase
//!    and a running count of 1-bits are kept, so memory is O(gates), not
//!    O(gates × words). A gate left alone in its class leaves the partition.
//! 2. **Proof** is by 1-step induction, checked with two SAT queries over
//!    the candidate classes as a whole: a *base* query (some pair differs in
//!    an initial state?) and a *step* query (assuming all pairs equal in an
//!    arbitrary state, can some pair differ one step later?).
//! 3. A satisfiable query yields a concrete state/input valuation. Its
//!    frames, plus a few random-input frames after them, are simulated and
//!    refine the same partition (counterexample-guided refinement); the
//!    next round checks the classes that survive. An unsatisfiable pair of
//!    queries certifies every surviving candidate.
//! 4. Proven classes are merged with [`diam_netlist::rebuild`], which also
//!    re-applies structural hashing and constant folding to the fanout.
//!
//! Because classes must hold in every *reachable* state (base + step), the
//! merge is sound even for pairs that differ in unreachable states: all
//! traces of Definition 2 start in initial states.

use diam_netlist::rebuild::{identity_repr, rebuild, Rebuilt};
use diam_netlist::sim::{eval_frame, next_state, simulate, SplitMix64, Stimulus};
use diam_netlist::{Gate, Lit, Marks, Netlist};
use diam_sat::{Lit as SatLit, SolveResult, Solver};

use crate::unroll::{inprocess_traced, solve_traced, FrameZero, Unroller};

/// Tuning knobs for [`sweep`].
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Rounds of 64-trace sequential simulation used to seed classes.
    pub sim_rounds: usize,
    /// Time-steps per simulation round.
    pub sim_steps: usize,
    /// Conflict budget per SAT query (`None` = unlimited). Queries that
    /// exhaust the budget conservatively *split* their classes apart, so the
    /// result is always sound.
    pub conflict_budget: Option<u64>,
    /// Maximum refinement iterations before giving up on unproven classes.
    pub max_refinements: usize,
    /// Induction depth: candidate equalities are assumed over this many
    /// consecutive frames before being checked on the next one. Depth 1 is
    /// the classic van-Eijk step; higher depths prove equivalences whose
    /// invariant needs history (at quadratic unrolling cost).
    pub induction_depth: usize,
    /// PRNG seed for simulation.
    pub seed: u64,
}

impl Default for SweepOptions {
    fn default() -> SweepOptions {
        SweepOptions {
            sim_rounds: 6,
            sim_steps: 48,
            conflict_budget: Some(100_000),
            max_refinements: 100,
            induction_depth: 1,
            seed: 0x5EED,
        }
    }
}

/// Outcome of a [`sweep`] run.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// The reduced netlist.
    pub netlist: Netlist,
    /// Old-gate → new-literal map (see [`Rebuilt::map`]).
    pub map: Vec<Option<Lit>>,
    /// Number of gates merged onto a representative.
    pub merges: usize,
    /// Refinement iterations used.
    pub refinements: usize,
    /// The proven equivalences, as literal pairs of the *original* netlist
    /// (`member ≡ representative`). These are inductive invariants over the
    /// reachable states — usable to strengthen k-induction or as BMC
    /// simplification lemmas.
    pub proven: Vec<(Lit, Lit)>,
}

impl SweepResult {
    /// Maps an old literal into the reduced netlist.
    pub fn lit(&self, old: Lit) -> Option<Lit> {
        self.map[old.gate().index()].map(|l| l.xor_complement(old.is_complement()))
    }
}

/// Class bookkeeping: every gate holds a candidate literal (its class
/// representative with relative phase); representatives point to themselves.
struct Classes {
    /// `cand[g]` = representative literal for gate `g` (`g.lit()` when `g`
    /// is its own representative or unclassified).
    cand: Vec<Lit>,
}

impl Classes {
    fn singleton(n: &Netlist) -> Classes {
        Classes {
            cand: n.gates().map(Gate::lit).collect(),
        }
    }

    /// Pairs `(member, representative_lit)` with `member != rep`.
    fn pairs(&self) -> Vec<(Gate, Lit)> {
        self.cand
            .iter()
            .enumerate()
            .filter_map(|(i, &rep)| {
                let g = Gate::from_index(i);
                (rep.gate() != g).then_some((g, rep))
            })
            .collect()
    }

    fn is_empty(&self) -> bool {
        self.cand
            .iter()
            .enumerate()
            .all(|(i, &rep)| rep.gate() == Gate::from_index(i))
    }
}

/// The candidate classes as one partition of the candidate gates (the
/// in-cone gates plus gate 0), refined one simulation word at a time.
///
/// A gate's *canonical* signature is the sequence of its simulation words,
/// each complemented when the gate's *phase*, bit 0 of its first word, is
/// set. Two candidates share a class exactly when their canonical signatures
/// are equal: every new word splits every class by canonical word value.
/// So the signatures themselves are never stored, only each gate's phase
/// and its running count of 1-bits. A gate left alone in its class can
/// never pair again and leaves the partition for good.
struct Partition {
    /// Gates that still share their class, one contiguous run per class,
    /// ascending gate order within a run.
    members: Vec<Gate>,
    /// Where each run starts in `members`, then `members.len()`.
    starts: Vec<usize>,
    /// Per gate: `!0` when bit 0 of its first word was 1, else 0.
    phase: Vec<u64>,
    /// Per gate: 1-bits over every word seen (kept up to date while the
    /// gate is a member).
    ones: Vec<u64>,
    /// Words seen, the same count for every gate.
    words: u64,
}

impl Partition {
    /// One class of every candidate: no word has told them apart yet.
    fn new(n: &Netlist, in_cone: &Marks) -> Partition {
        // Gate 0 always seeds the constant class, even when the cone
        // restriction would exclude it.
        let members: Vec<Gate> = n
            .gates()
            .filter(|&g| g == Gate::CONST0 || in_cone.get(g.index()))
            .collect();
        Partition {
            starts: vec![0, members.len()],
            members,
            phase: vec![0; n.num_gates()],
            ones: vec![0; n.num_gates()],
            words: 0,
        }
    }

    /// Splits every class by the canonical value of the next word,
    /// `word(g)` for gate `g`.
    fn refine(&mut self, word: impl Fn(Gate) -> u64) {
        if self.words == 0 {
            for &g in &self.members {
                self.phase[g.index()] = (word(g) & 1).wrapping_neg();
            }
        }
        self.words += 1;
        let mut members = Vec::with_capacity(self.members.len());
        let mut starts = vec![0];
        let mut split: Vec<(u64, Gate)> = Vec::new();
        for class in self.starts.windows(2) {
            split.clear();
            for &g in &self.members[class[0]..class[1]] {
                let w = word(g);
                self.ones[g.index()] += u64::from(w.count_ones());
                split.push((w ^ self.phase[g.index()], g));
            }
            // Ties keep ascending gate order, so every run's first member
            // stays its lowest-indexed one.
            if split.iter().any(|&(w, _)| w != split[0].0) {
                split.sort_unstable();
            }
            for run in split.chunk_by(|a, b| a.0 == b.0) {
                if run.len() >= 2 {
                    members.extend(run.iter().map(|&(_, g)| g));
                    starts.push(members.len());
                }
            }
        }
        self.members = members;
        self.starts = starts;
    }

    /// The candidate pairs of the current partition. The representative is
    /// the lowest-indexed member; complemented signatures pair with inverted
    /// phase, and the class of gate 0 is the constant class.
    ///
    /// Candidate pairs between two internal (non-register) gates are only
    /// formed when both signals are reasonably *unbiased* (a 1-bit fraction
    /// in [1/16, 15/16] over every word seen): heavily skewed signals (wide
    /// OR/AND towers that are almost always 1/0) collide in any finite
    /// simulation sample and would each cost the induction loop a refutation
    /// round — a classic sweeping pathology. Register pairs and
    /// constant-class pairs are always kept; they are the merges that matter
    /// for diameter bounding, and spurious ones die in the cheap base check.
    fn classes(&self, n: &Netlist) -> Classes {
        let total = self.words * 64;
        let unbiased = |g: Gate| {
            let ones = self.ones[g.index()];
            total > 0 && ones * 16 >= total && ones * 16 <= 15 * total
        };
        let mut cand: Vec<Lit> = n.gates().map(Gate::lit).collect();
        for class in self.starts.windows(2) {
            let run = &self.members[class[0]..class[1]];
            let rep = run[0];
            for &g in &run[1..] {
                let keep = rep == Gate::CONST0
                    || (n.is_reg(g) && n.is_reg(rep))
                    || (unbiased(g) && unbiased(rep));
                if keep {
                    // g == rep iff their phases agree.
                    cand[g.index()] =
                        Lit::new(rep, self.phase[g.index()] != self.phase[rep.index()]);
                }
            }
        }
        Classes { cand }
    }
}

/// Runs redundancy removal on `n`.
///
/// The returned netlist is trace-equivalent to `n` on every surviving vertex
/// (Theorem 1: the identity back-translation applies to diameter bounds).
///
/// # Examples
///
/// ```
/// use diam_netlist::{Init, Netlist};
/// use diam_transform::com::{sweep, SweepOptions};
///
/// // Two identical registers — one is redundant.
/// let mut n = Netlist::new();
/// let i = n.input("i");
/// let r1 = n.reg("r1", Init::Zero);
/// let r2 = n.reg("r2", Init::Zero);
/// n.set_next(r1, i.lit());
/// n.set_next(r2, i.lit());
/// let both = n.and(r1.lit(), r2.lit());
/// n.add_target(both, "t");
/// let result = sweep(&n, &SweepOptions::default());
/// assert_eq!(result.netlist.num_regs(), 1);
/// ```
pub fn sweep(n: &Netlist, opts: &SweepOptions) -> SweepResult {
    // Observability: the pass framework wraps this engine in the unified
    // `pass.apply` span (see `crate::pass`); `com.round` events and the SAT
    // attribution from `solve_traced` land on whatever span is current.
    let mut rng = SplitMix64::new(opts.seed);

    // --- 1. Candidate classes from sequential simulation -----------------
    let coi = diam_netlist::analysis::coi(n, n.targets().iter().map(|t| t.lit));
    let mut partition = Partition::new(n, &coi.in_cone);
    for _ in 0..opts.sim_rounds.max(1) {
        let stim = Stimulus::random(n, opts.sim_steps.max(2), &mut rng);
        let trace = simulate(n, &stim);
        for t in 0..trace.len() {
            partition.refine(|g| trace.word(g.lit(), t));
        }
    }
    let mut classes = partition.classes(n);

    // --- 2/3. Counterexample-guided induction -----------------------------
    let mut refinements = 0;
    while !classes.is_empty() && refinements < opts.max_refinements {
        // Per-round debug visibility is a structured event now (was a raw
        // `DIAM_SWEEP_TRACE` eprintln): the field expressions — including
        // the sample string — are only evaluated when a session records.
        diam_obs::event!(
            "com.round",
            round = refinements,
            pairs = classes.pairs().len(),
            sample = {
                let pairs = classes.pairs();
                let sample: Vec<String> = pairs
                    .iter()
                    .rev()
                    .take(8)
                    .map(|(g, rep)| {
                        format!(
                            "{}~{}{}",
                            n.name(*g).unwrap_or("?"),
                            if rep.is_complement() { "!" } else { "" },
                            n.name(rep.gate()).unwrap_or("?")
                        )
                    })
                    .collect();
                sample.join(", ")
            }
        );
        match check_classes(n, &classes, opts) {
            CheckOutcome::Proven => break,
            CheckOutcome::Counterexamples(cexs) => {
                refinements += 1;
                for Cex {
                    reg_vals,
                    input_frames,
                } in cexs
                {
                    // Refine with the distinguishing valuation
                    // (the model's frames), then *amplify* by simulating a
                    // few more steps under random inputs — one
                    // counterexample then splits every spuriously-aligned
                    // pair in its vicinity rather than just the single
                    // violated one. Amplification cannot split a truly
                    // inductive pair: starting from a hypothesis-satisfying
                    // state, such a pair stays equal on every successor
                    // frame.
                    let mut regs = reg_vals;
                    let mut frame = Vec::new();
                    for inputs in &input_frames {
                        frame = eval_frame(n, &regs, inputs);
                        partition.refine(|g| frame[g.index()]);
                        regs = next_state(n, &frame);
                    }
                    for _ in 0..6 {
                        let regs_next = next_state(n, &frame);
                        let inputs: Vec<u64> =
                            (0..n.num_inputs()).map(|_| rng.next_u64()).collect();
                        frame = eval_frame(n, &regs_next, &inputs);
                        partition.refine(|g| frame[g.index()]);
                    }
                }
                classes = partition.classes(n);
            }
            CheckOutcome::Budget => {
                // Conservative: abandon sweeping rather than risk an
                // unsound merge.
                classes = Classes::singleton(n);
                break;
            }
        }
    }
    if refinements >= opts.max_refinements {
        classes = Classes::singleton(n);
    }

    // --- 4. Merge ----------------------------------------------------------
    let mut repr = identity_repr(n);
    let mut merges = 0;
    let mut proven = Vec::new();
    for (g, rep) in classes.pairs() {
        repr[g.index()] = rep;
        proven.push((g.lit(), rep));
        merges += 1;
    }
    let Rebuilt { netlist, map } = rebuild(n, &repr);
    SweepResult {
        netlist,
        map,
        merges,
        refinements,
        proven,
    }
}

struct Cex {
    reg_vals: Vec<u64>,
    /// Input words per frame, frame 0 first (at least one frame).
    input_frames: Vec<Vec<u64>>,
}

enum CheckOutcome {
    Proven,
    Counterexamples(Vec<Cex>),
    Budget,
}

/// Checks all candidate pairs with a base and a step query; on SAT returns
/// the distinguishing (state, inputs) valuation replicated into words.
fn check_classes(n: &Netlist, classes: &Classes, opts: &SweepOptions) -> CheckOutcome {
    let pairs = classes.pairs();
    if pairs.is_empty() {
        return CheckOutcome::Proven;
    }

    // Both checks are run *per pair under assumptions* in one incremental
    // solver: the disjunction "some pair differs" is unsatisfiable iff every
    // per-pair query is, and the per-pair form yields one counterexample for
    // every refutable pair instead of a single model satisfying just one
    // difference — convergence in a handful of rounds instead of one round
    // per spurious candidate.
    let mut cexs: Vec<Cex> = Vec::new();

    // --- Base: can some pair differ in an initial state? -----------------
    {
        let mut solver = Solver::new();
        solver.set_conflict_budget(opts.conflict_budget);
        let mut u = Unroller::new(n, FrameZero::Init);
        let diffs: Vec<SatLit> = pairs
            .iter()
            .map(|&(g, rep)| {
                let a = u.lit_at(&mut solver, g.lit(), 0);
                let b = u.lit_at(&mut solver, rep, 0);
                half_xor(&mut solver, a, b)
            })
            .collect();
        for &d in &diffs {
            match solve_traced(&mut solver, &[d]).0 {
                SolveResult::Unsat => {
                    // Level-0 boundary between per-pair queries: self-gated
                    // simplification + arena GC for the shared solver.
                    inprocess_traced(&mut solver);
                }
                SolveResult::Unknown => return CheckOutcome::Budget,
                SolveResult::Sat => {
                    let (regs, ins) = extract_frame0(n, &mut u, &solver);
                    // Initial-state counterexample: register values at time
                    // 0 are whatever the model of the initialized frame
                    // gives.
                    cexs.push(Cex {
                        reg_vals: regs,
                        input_frames: vec![ins],
                    });
                }
            }
        }
    }
    if !cexs.is_empty() {
        return CheckOutcome::Counterexamples(cexs);
    }

    // --- Step: assuming all pairs equal over `depth` frames, can one
    // --- differ on the next? ----------------------------------------------
    {
        let depth = opts.induction_depth.max(1);
        let mut solver = Solver::new();
        solver.set_conflict_budget(opts.conflict_budget);
        let mut u = Unroller::new(n, FrameZero::Free);
        // Hypothesis: equality at frames 0..depth.
        for frame in 0..depth {
            for &(g, rep) in &pairs {
                let a = u.lit_at(&mut solver, g.lit(), frame);
                let b = u.lit_at(&mut solver, rep, frame);
                solver.add_clause([!a, b]);
                solver.add_clause([a, !b]);
            }
        }
        // Violation: inequality at frame `depth`, one pair at a time.
        let diffs: Vec<SatLit> = pairs
            .iter()
            .map(|&(g, rep)| {
                let a = u.lit_at(&mut solver, g.lit(), depth);
                let b = u.lit_at(&mut solver, rep, depth);
                half_xor(&mut solver, a, b)
            })
            .collect();
        for &d in &diffs {
            match solve_traced(&mut solver, &[d]).0 {
                SolveResult::Unsat => {
                    // Level-0 boundary between per-pair induction queries:
                    // self-gated simplification + arena GC.
                    inprocess_traced(&mut solver);
                }
                SolveResult::Unknown => return CheckOutcome::Budget,
                SolveResult::Sat => {
                    let (regs, ins) = extract_frame0(n, &mut u, &solver);
                    let mut input_frames = vec![ins];
                    for frame in 1..=depth {
                        input_frames.push(
                            n.inputs()
                                .iter()
                                .map(|&i| {
                                    u.try_lit_at(i.lit(), frame)
                                        .and_then(|l| solver.value(l))
                                        .map_or(0, |b| if b { !0 } else { 0 })
                                })
                                .collect(),
                        );
                    }
                    cexs.push(Cex {
                        reg_vals: regs,
                        input_frames,
                    });
                }
            }
        }
    }
    if cexs.is_empty() {
        CheckOutcome::Proven
    } else {
        CheckOutcome::Counterexamples(cexs)
    }
}

/// `t` such that `t → (a ≠ b)`; used inside a big OR where only that
/// direction matters.
fn half_xor(solver: &mut Solver, a: SatLit, b: SatLit) -> SatLit {
    let t = solver.new_var().positive();
    solver.add_clause([!t, a, b]);
    solver.add_clause([!t, !a, !b]);
    t
}

/// Reads the frame-0 register and input values out of a model, replicating
/// each boolean into a full word.
fn extract_frame0(n: &Netlist, u: &mut Unroller<'_>, solver: &Solver) -> (Vec<u64>, Vec<u64>) {
    let word = |b: Option<bool>| -> u64 {
        match b {
            Some(true) => !0,
            _ => 0,
        }
    };
    let regs = n
        .regs()
        .iter()
        .map(|&r| word(u.try_lit_at(r.lit(), 0).and_then(|l| solver.value(l))))
        .collect();
    let ins = n
        .inputs()
        .iter()
        .map(|&i| word(u.try_lit_at(i.lit(), 0).and_then(|l| solver.value(l))))
        .collect();
    (regs, ins)
}

#[cfg(test)]
mod tests {
    use super::*;
    use diam_netlist::Init;
    use proptest::prelude::*;

    /// The class builder [`Partition`] replaced, kept as its reference: it
    /// stores every gate's whole signature and re-hashes all of them on
    /// every call.
    ///
    /// (Re)builds classes from value signatures: gates with equal signatures
    /// share a class; complemented signatures join with inverted phase. The
    /// representative is the lowest-indexed member. Gates whose signature is
    /// constant 0/1 across the sample join the constant class of gate 0.
    /// Pairs of internal gates need both to be unbiased; register pairs and
    /// constant-class pairs are always kept.
    fn from_signatures(n: &Netlist, sigs: &[Vec<u64>], restrict: Option<&Marks>) -> Classes {
        use std::collections::HashMap;
        let mut first: HashMap<&[u64], (Gate, bool)> = HashMap::new();
        let mut cand: Vec<Lit> = n.gates().map(Gate::lit).collect();
        // Bias per gate: fraction of sampled bits that are 1.
        let unbiased: Vec<bool> = sigs
            .iter()
            .map(|sig| {
                if sig.is_empty() {
                    return false;
                }
                let ones: u64 = sig.iter().map(|w| u64::from(w.count_ones())).sum();
                let total = sig.len() as u64 * 64;
                ones * 16 >= total && ones * 16 <= 15 * total
            })
            .collect();
        // Canonical signature: complement so the first bit is 0; remember
        // the phase flip.
        let mut canon: Vec<(Vec<u64>, bool)> = Vec::with_capacity(sigs.len());
        for sig in sigs {
            let flip = sig.first().is_some_and(|w| w & 1 != 0);
            let c = if flip {
                sig.iter().map(|w| !w).collect()
            } else {
                sig.clone()
            };
            canon.push((c, flip));
        }
        for g in n.gates() {
            // Gate 0 always seeds the constant class, even when the cone
            // restriction would exclude it.
            if g != Gate::CONST0 {
                if let Some(r) = restrict {
                    if !r.get(g.index()) {
                        continue;
                    }
                }
            }
            let (sig, flip) = &canon[g.index()];
            match first.entry(sig.as_slice()) {
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert((g, *flip));
                }
                std::collections::hash_map::Entry::Occupied(e) => {
                    let (rep, rep_flip) = *e.get();
                    let keep = rep == Gate::CONST0
                        || (n.is_reg(g) && n.is_reg(rep))
                        || (unbiased[g.index()] && unbiased[rep.index()]);
                    if keep {
                        // g == rep iff their phases agree.
                        cand[g.index()] = Lit::new(rep, flip ^ rep_flip);
                    }
                }
            }
        }
        Classes { cand }
    }

    /// A netlist of `inputs` inputs, `regs` registers and up to `ands`
    /// random AND gates; only its gate kinds matter to the classes.
    fn kinds_netlist(rng: &mut SplitMix64, inputs: usize, regs: usize, ands: usize) -> Netlist {
        let mut n = Netlist::new();
        let mut pool: Vec<Lit> = (0..inputs)
            .map(|k| n.input(format!("i{k}")).lit())
            .collect();
        let regs: Vec<Gate> = (0..regs)
            .map(|k| n.reg(format!("r{k}"), Init::Zero))
            .collect();
        pool.extend(regs.iter().map(|r| r.lit()));
        pool.push(Lit::TRUE);
        for _ in 0..ands {
            let a = pool[rng.below(pool.len() as u64) as usize];
            let b = pool[rng.below(pool.len() as u64) as usize];
            let l = n.and(a, b);
            pool.push(l.xor_complement(rng.bool()));
        }
        for &r in &regs {
            let next = pool[rng.below(pool.len() as u64) as usize];
            n.set_next(r, next);
        }
        n
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// After every batch of words, the refined partition yields exactly
        /// the candidate classes of the signature reference fed the same
        /// words, under random cone restrictions. Words come from a small
        /// pool (`0`, `!0`, `a`, `!a`, `b` and heavily biased words), and
        /// half the gates follow an earlier gate (or its complement) on
        /// most words, so classes collide, survive batches and split late.
        #[test]
        fn partition_matches_the_signature_reference(
            seed in any::<u64>(),
            inputs in 0usize..4,
            regs in 0usize..6,
            ands in 0usize..24,
            batches in 1usize..7,
        ) {
            let mut rng = SplitMix64::new(seed);
            let n = kinds_netlist(&mut rng, inputs, regs, ands);
            let mut cone = Marks::new(n.num_gates());
            for g in n.gates() {
                if rng.below(4) != 0 {
                    cone.set(g.index());
                }
            }
            let leader: Vec<Option<(usize, u64)>> = n
                .gates()
                .map(|g| {
                    (g.index() > 1 && rng.bool()).then(|| {
                        let flip = if rng.bool() { !0 } else { 0 };
                        (1 + rng.below(g.index() as u64 - 1) as usize, flip)
                    })
                })
                .collect();
            let mut sigs: Vec<Vec<u64>> = vec![Vec::new(); n.num_gates()];
            let mut partition = Partition::new(&n, &cone);
            for batch in 0..batches {
                for _ in 0..1 + rng.below(3) {
                    let (a, b) = (rng.next_u64(), rng.next_u64());
                    let sparse = rng.next_u64() & rng.next_u64() & rng.next_u64() & rng.next_u64();
                    let pool = [0, !0, a, !a, b, sparse, !sparse, 1 << rng.below(64)];
                    let mut word = vec![0u64; n.num_gates()];
                    for i in 1..word.len() {
                        word[i] = match leader[i] {
                            Some((l, flip)) if rng.below(8) != 0 => word[l] ^ flip,
                            _ => pool[rng.below(pool.len() as u64) as usize],
                        };
                    }
                    for (sig, &w) in sigs.iter_mut().zip(&word) {
                        sig.push(w);
                    }
                    partition.refine(|g| word[g.index()]);
                }
                let want = from_signatures(&n, &sigs, Some(&cone));
                prop_assert_eq!(&partition.classes(&n).cand, &want.cand, "batch {}", batch);
            }
        }
    }

    fn cosim_equal(a: &Netlist, b: &Netlist, res: &SweepResult, probes: &[Lit], steps: usize) {
        let mut rng = SplitMix64::new(77);
        // Transformed netlists produced by sweep keep a subset of the
        // original inputs, in the original relative order; replay the same
        // stimulus by name.
        let stim_a = Stimulus::random(a, steps, &mut rng);
        let name_to_word = |t: usize| {
            let mut m = std::collections::HashMap::new();
            for (k, &g) in a.inputs().iter().enumerate() {
                m.insert(a.name(g).unwrap().to_string(), stim_a.inputs[t][k]);
            }
            m
        };
        let stim_b = Stimulus {
            inputs: (0..steps)
                .map(|t| {
                    let m = name_to_word(t);
                    b.inputs()
                        .iter()
                        .map(|&g| *m.get(b.name(g).unwrap()).expect("input preserved"))
                        .collect()
                })
                .collect(),
            nondet_init: vec![0; b.num_regs()],
        };
        // Force deterministic init in both (zeros for nondet).
        let mut stim_a = stim_a;
        for w in &mut stim_a.nondet_init {
            *w = 0;
        }
        let ta = simulate(a, &stim_a);
        let tb = simulate(b, &stim_b);
        for &p in probes {
            if let Some(q) = res.lit(p) {
                for t in 0..steps {
                    assert_eq!(ta.word(p, t), tb.word(q, t), "probe {p} at t={t}");
                }
            }
        }
    }

    #[test]
    fn merges_duplicate_combinational_logic() {
        let mut n = Netlist::new();
        let a = n.input("a").lit();
        let b = n.input("b").lit();
        // Build OR twice through different structure: the plain form and the
        // mux form a | (¬a ∧ b), which structural hashing cannot identify.
        let x = n.or(a, b);
        let y = n.mux(a, Lit::TRUE, b);
        let r = n.reg("r", Init::Zero);
        let z = n.xor(x, y); // constant false once merged
        let keep = n.or(z, a);
        n.set_next(r, keep);
        n.add_target(r.lit(), "t");
        let res = sweep(&n, &SweepOptions::default());
        // x and y merge, z collapses to constant 0, keep becomes a.
        assert!(res.merges > 0);
        assert_eq!(res.lit(z), Some(Lit::FALSE));
        cosim_equal(&n, &res.netlist, &res, &[keep, r.lit()], 8);
    }

    #[test]
    fn merges_equivalent_registers() {
        let mut n = Netlist::new();
        let i = n.input("i").lit();
        let r1 = n.reg("r1", Init::Zero);
        let r2 = n.reg("r2", Init::Zero);
        n.set_next(r1, i);
        n.set_next(r2, i);
        let differ = n.xor(r1.lit(), r2.lit());
        n.add_target(differ, "differ");
        // A second, non-collapsing target keeps the merged register alive.
        let live = n.and(r1.lit(), i);
        n.add_target(live, "live");
        let res = sweep(&n, &SweepOptions::default());
        assert_eq!(res.netlist.num_regs(), 1);
        // The xor target is the constant 0 after merging.
        assert_eq!(res.netlist.targets()[0].lit, Lit::FALSE);
        assert_ne!(res.netlist.targets()[1].lit, Lit::FALSE);
    }

    #[test]
    fn keeps_registers_with_different_init() {
        let mut n = Netlist::new();
        let i = n.input("i").lit();
        let r1 = n.reg("r1", Init::Zero);
        let r2 = n.reg("r2", Init::One);
        n.set_next(r1, i);
        n.set_next(r2, i);
        let t = n.xor(r1.lit(), r2.lit());
        n.add_target(t, "differ");
        let res = sweep(&n, &SweepOptions::default());
        // They differ at time 0, so both must survive.
        assert_eq!(res.netlist.num_regs(), 2);
    }

    #[test]
    fn detects_constant_register() {
        // A register that re-latches its own value from Init::Zero is
        // constantly 0 in every reachable state.
        let mut n = Netlist::new();
        let r = n.reg("stuck", Init::Zero);
        n.set_next(r, r.lit());
        let i = n.input("i").lit();
        let t = n.and(r.lit(), i);
        n.add_target(t, "t");
        let res = sweep(&n, &SweepOptions::default());
        assert_eq!(res.netlist.targets()[0].lit, Lit::FALSE);
        assert_eq!(res.netlist.num_regs(), 0);
    }

    #[test]
    fn complemented_pair_merges() {
        let mut n = Netlist::new();
        let i = n.input("i").lit();
        let r1 = n.reg("r1", Init::Zero);
        let r2 = n.reg("r2", Init::One);
        n.set_next(r1, i);
        n.set_next(r2, !i);
        // r2 == ¬r1 at all times.
        let t = n.xnor(r1.lit(), r2.lit()); // constant 0
        n.add_target(t, "same");
        let live = n.and(r1.lit(), i);
        n.add_target(live, "live");
        let res = sweep(&n, &SweepOptions::default());
        assert_eq!(res.netlist.targets()[0].lit, Lit::FALSE);
        assert_eq!(res.netlist.num_regs(), 1);
    }

    #[test]
    fn does_not_merge_distinct_functions() {
        let mut n = Netlist::new();
        let a = n.input("a").lit();
        let b = n.input("b").lit();
        let x = n.and(a, b);
        let y = n.or(a, b);
        let t = n.xor(x, y);
        n.add_target(t, "t");
        let res = sweep(&n, &SweepOptions::default());
        // x and y are different functions; the target must not collapse.
        assert_ne!(res.netlist.targets()[0].lit, Lit::FALSE);
        cosim_equal(&n, &res.netlist, &res, &[t], 4);
    }

    #[test]
    fn deeper_induction_proves_history_dependent_equivalence() {
        // r2 mirrors r1 with one cycle of lag through different paths:
        // a = in; b = in; a2 = a; b2 = b. (a2 ≡ b2) needs (a ≡ b) one frame
        // earlier — provable at depth 1 only because (a ≡ b) is also a
        // candidate. Break that crutch with different STRUCTURE at the
        // first stage so the gate pair (a, b) exists but the deeper pair is
        // the real test; then verify both depth settings agree and merge.
        let mut n = Netlist::new();
        let i = n.input("i").lit();
        let e = n.input("e").lit();
        let a = n.reg("a", Init::Zero);
        let b = n.reg("b", Init::Zero);
        let na = n.and(i, e);
        let nb = n.mux(e, i, Lit::FALSE);
        n.set_next(a, na);
        n.set_next(b, nb);
        let a2 = n.reg("a2", Init::Zero);
        let b2 = n.reg("b2", Init::Zero);
        n.set_next(a2, a.lit());
        n.set_next(b2, b.lit());
        let t = n.xor(a2.lit(), b2.lit());
        n.add_target(t, "differ");
        let live = n.and(a2.lit(), i);
        n.add_target(live, "live");
        for depth in [1usize, 2, 3] {
            let res = sweep(
                &n,
                &SweepOptions {
                    induction_depth: depth,
                    ..Default::default()
                },
            );
            assert_eq!(
                res.netlist.targets()[0].lit,
                Lit::FALSE,
                "depth {depth} must collapse the differ target"
            );
            assert_eq!(res.netlist.num_regs(), 2, "depth {depth}");
        }
    }

    #[test]
    fn reachable_only_equivalence_is_found() {
        // Two counters count in lock-step; bit equality holds in reachable
        // states though the functions differ on unreachable joint states.
        let mut n = Netlist::new();
        let a0 = n.reg("a0", Init::Zero);
        let a1 = n.reg("a1", Init::Zero);
        let b0 = n.reg("b0", Init::Zero);
        let b1 = n.reg("b1", Init::Zero);
        let an1 = n.xor(a1.lit(), a0.lit());
        n.set_next(a0, !a0.lit());
        n.set_next(a1, an1);
        let bn1 = n.xor(b1.lit(), b0.lit());
        n.set_next(b0, !b0.lit());
        n.set_next(b1, bn1);
        let d0 = n.xor(a0.lit(), b0.lit());
        let d1 = n.xor(a1.lit(), b1.lit());
        let t = n.or(d0, d1);
        n.add_target(t, "counters_differ");
        // A live target over one counter keeps it in the cone.
        let live = n.and(a0.lit(), a1.lit());
        n.add_target(live, "count_is_3");
        let res = sweep(&n, &SweepOptions::default());
        assert_eq!(res.netlist.targets()[0].lit, Lit::FALSE);
        assert_eq!(res.netlist.num_regs(), 2);
    }
}
