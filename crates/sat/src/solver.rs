//! A CDCL SAT solver in the MiniSat/Glucose lineage.
//!
//! Features: a flat `u32` clause arena with a compacting garbage collector,
//! two-watched-literal propagation with blockers, VSIDS variable activities
//! with an indexed heap, phase saving, first-UIP conflict analysis with
//! local clause minimization, LBD (glue) computation at learning time,
//! tiered learnt-clause reduction (core / mid / local), Luby restarts with
//! glue-aware postponement, incremental solving under assumptions, level-0
//! inprocessing hooks, and an optional conflict budget for anytime use.
//!
//! ## Clause arena
//!
//! Clauses live contiguously in one `Vec<u32>` ([`Arena`]): a 3-word header
//! (size; flags + LBD; activity as `f32` bits) followed by the literal
//! codes. A [`CRef`] is the word offset of the header. Deletion tombstones
//! the header; the collector ([`Solver::gc`]) compacts live clauses into a
//! fresh arena and rewrites every watcher list, `reason[]` entry, and
//! clause-list reference through forwarding pointers left in the old
//! headers — so long-lived incremental solvers (BMC unrollers held open
//! across hundreds of frames, sweeping loops) stop leaking tombstones.

use crate::{LBool, Lit, Var};

/// Outcome of a [`Solver::solve`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found (query it with [`Solver::value`]).
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// The conflict budget was exhausted before an answer was reached.
    Unknown,
}

/// A clause reference: the word offset of the clause header in the arena.
type CRef = u32;

const NO_REASON: CRef = u32::MAX;

/// Words in a clause header: `[size, flags|lbd, activity]`.
const HEADER_WORDS: usize = 3;
const F_LEARNT: u32 = 1 << 0;
const F_DELETED: u32 = 1 << 1;
const F_RELOCATED: u32 = 1 << 2;
const F_PROTECTED: u32 = 1 << 3;
const LBD_SHIFT: u32 = 4;
const LBD_MAX: u32 = (1 << 28) - 1;

/// Learnt clauses with LBD at or below this are *core*: kept forever.
const CORE_LBD: u32 = 2;
/// Learnt clauses with LBD at or below this are *mid*: they survive a
/// reduction round when recently used in conflict analysis.
const MID_LBD: u32 = 6;

/// The flat clause store. See the module docs for the layout.
#[derive(Debug, Clone, Default)]
struct Arena {
    data: Vec<u32>,
    /// Words occupied by tombstoned clauses and shrunk-away literals;
    /// reclaimable by [`Solver::gc`].
    wasted: usize,
}

impl Arena {
    fn alloc(&mut self, lits: &[Lit], learnt: bool, lbd: u32, activity: f32) -> CRef {
        let r = u32::try_from(self.data.len()).expect("clause arena exceeds u32 words");
        self.data.reserve(HEADER_WORDS + lits.len());
        self.data.push(lits.len() as u32);
        let flags = if learnt { F_LEARNT } else { 0 };
        self.data.push(flags | (lbd.min(LBD_MAX) << LBD_SHIFT));
        self.data.push(activity.to_bits());
        self.data.extend(lits.iter().map(|l| l.code() as u32));
        r
    }

    #[inline]
    fn len(&self, r: CRef) -> usize {
        self.data[r as usize] as usize
    }

    #[inline]
    fn lit(&self, r: CRef, i: usize) -> Lit {
        Lit::from_code(self.data[r as usize + HEADER_WORDS + i] as usize)
    }

    #[inline]
    fn set_lit(&mut self, r: CRef, i: usize, l: Lit) {
        self.data[r as usize + HEADER_WORDS + i] = l.code() as u32;
    }

    #[inline]
    fn flags(&self, r: CRef) -> u32 {
        self.data[r as usize + 1]
    }

    #[inline]
    fn is_learnt(&self, r: CRef) -> bool {
        self.flags(r) & F_LEARNT != 0
    }

    #[inline]
    fn is_deleted(&self, r: CRef) -> bool {
        self.flags(r) & F_DELETED != 0
    }

    #[inline]
    fn is_relocated(&self, r: CRef) -> bool {
        self.flags(r) & F_RELOCATED != 0
    }

    #[inline]
    fn is_protected(&self, r: CRef) -> bool {
        self.flags(r) & F_PROTECTED != 0
    }

    fn set_protected(&mut self, r: CRef, on: bool) {
        if on {
            self.data[r as usize + 1] |= F_PROTECTED;
        } else {
            self.data[r as usize + 1] &= !F_PROTECTED;
        }
    }

    #[inline]
    fn lbd(&self, r: CRef) -> u32 {
        self.flags(r) >> LBD_SHIFT
    }

    #[inline]
    fn activity(&self, r: CRef) -> f32 {
        f32::from_bits(self.data[r as usize + 2])
    }

    #[inline]
    fn set_activity(&mut self, r: CRef, a: f32) {
        self.data[r as usize + 2] = a.to_bits();
    }

    /// Tombstones the clause; the space is reclaimed by the next GC.
    fn delete(&mut self, r: CRef) {
        debug_assert!(!self.is_deleted(r));
        self.wasted += HEADER_WORDS + self.len(r);
        self.data[r as usize + 1] |= F_DELETED;
    }

    /// Shrinks the clause in place to its first `new_len` literals. The
    /// abandoned tail words become waste for the next GC; sequential arena
    /// walks are never performed, so the gap is harmless.
    fn shrink(&mut self, r: CRef, new_len: usize) {
        let old = self.len(r);
        debug_assert!((2..old).contains(&new_len));
        self.wasted += old - new_len;
        self.data[r as usize] = new_len as u32;
    }

    /// Copies the clause into `new`, leaves a forwarding pointer in the old
    /// header, and returns the new reference. Idempotent.
    fn relocate(&mut self, r: CRef, new: &mut Vec<u32>) -> CRef {
        if self.is_relocated(r) {
            return self.forward(r);
        }
        debug_assert!(!self.is_deleted(r));
        let nr = u32::try_from(new.len()).expect("clause arena exceeds u32 words");
        let start = r as usize;
        new.extend_from_slice(&self.data[start..start + HEADER_WORDS + self.len(r)]);
        self.data[start] = nr; // size word becomes the forwarding pointer
        self.data[start + 1] |= F_RELOCATED;
        nr
    }

    /// The forwarding pointer of a relocated clause.
    #[inline]
    fn forward(&self, r: CRef) -> CRef {
        debug_assert!(self.is_relocated(r));
        self.data[r as usize]
    }

    /// Current arena footprint in bytes (live + tombstoned).
    fn bytes(&self) -> usize {
        self.data.len() * 4
    }
}

#[derive(Debug, Clone, Copy)]
struct Watcher {
    clause: CRef,
    blocker: Lit,
}

/// Runtime statistics of a [`Solver`].
///
/// Most fields are monotone counters; `learnts`, `arena_bytes`, and
/// `arena_wasted_bytes` are *levels* (current values). See
/// [`delta_since`](SolverStats::delta_since) for the distinction.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverStats {
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Decisions made.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Restarts postponed by the glue-aware (trail-size) heuristic.
    pub blocked_restarts: u64,
    /// Learnt clauses currently in the database (level, not counter).
    pub learnts: u64,
    /// Arena garbage-collection passes performed.
    pub gc_runs: u64,
    /// Total bytes reclaimed by arena GC so far.
    pub gc_freed_bytes: u64,
    /// Current clause-arena footprint in bytes (level, not counter).
    pub arena_bytes: u64,
    /// Bytes currently tombstoned awaiting GC (level, not counter).
    pub arena_wasted_bytes: u64,
    /// Sum of LBD (glue) over all clauses learnt so far.
    pub lbd_sum: u64,
    /// Histogram of learnt-clause LBD: bucket `i < 7` counts clauses with
    /// `lbd == i + 1`; bucket 7 counts `lbd >= 8`.
    pub lbd_hist: [u64; 8],
}

impl SolverStats {
    /// The work performed since `earlier` was snapshotted: the monotone
    /// counters subtract (saturating, so misuse never panics); `learnts`,
    /// `arena_bytes`, and `arena_wasted_bytes` are levels, not counters,
    /// and carry the *current* value.
    ///
    /// # Examples
    ///
    /// ```
    /// use diam_sat::Solver;
    ///
    /// let mut s = Solver::new();
    /// let before = *s.stats_ref();
    /// let a = s.new_var().positive();
    /// s.add_clause([a]);
    /// s.solve();
    /// let delta = s.stats_ref().delta_since(&before);
    /// assert_eq!(delta.conflicts, 0);
    /// ```
    pub fn delta_since(&self, earlier: &SolverStats) -> SolverStats {
        let mut lbd_hist = [0u64; 8];
        for (d, (now, then)) in lbd_hist
            .iter_mut()
            .zip(self.lbd_hist.iter().zip(earlier.lbd_hist.iter()))
        {
            *d = now.saturating_sub(*then);
        }
        SolverStats {
            conflicts: self.conflicts.saturating_sub(earlier.conflicts),
            decisions: self.decisions.saturating_sub(earlier.decisions),
            propagations: self.propagations.saturating_sub(earlier.propagations),
            restarts: self.restarts.saturating_sub(earlier.restarts),
            blocked_restarts: self
                .blocked_restarts
                .saturating_sub(earlier.blocked_restarts),
            learnts: self.learnts,
            gc_runs: self.gc_runs.saturating_sub(earlier.gc_runs),
            gc_freed_bytes: self.gc_freed_bytes.saturating_sub(earlier.gc_freed_bytes),
            arena_bytes: self.arena_bytes,
            arena_wasted_bytes: self.arena_wasted_bytes,
            lbd_sum: self.lbd_sum.saturating_sub(earlier.lbd_sum),
            lbd_hist,
        }
    }
}

/// An incremental CDCL SAT solver.
///
/// # Examples
///
/// ```
/// use diam_sat::{Solver, SolveResult};
///
/// let mut s = Solver::new();
/// let a = s.new_var().positive();
/// let b = s.new_var().positive();
/// s.add_clause([a, b]);
/// s.add_clause([!a]);
/// assert_eq!(s.solve(), SolveResult::Sat);
/// assert_eq!(s.value(b), Some(true));
/// s.add_clause([!b]);
/// assert_eq!(s.solve(), SolveResult::Unsat);
/// ```
#[derive(Debug)]
pub struct Solver {
    ca: Arena,
    /// Problem (original) clause references, insertion order.
    clauses: Vec<CRef>,
    /// Learnt clause references, insertion order.
    learnts: Vec<CRef>,
    watches: Vec<Vec<Watcher>>,
    assigns: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<CRef>, // NO_REASON = decision / unassigned
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    // VSIDS.
    activity: Vec<f64>,
    var_inc: f64,
    heap: Vec<Var>,
    heap_pos: Vec<usize>, // usize::MAX = not in heap
    polarity: Vec<bool>,
    // Conflict analysis scratch.
    seen: Vec<bool>,
    // LBD computation scratch: level → stamp of the current computation.
    lbd_stamp: Vec<u64>,
    lbd_counter: u64,
    // Exponential moving average of the trail size at conflicts; large
    // current trails (search deep in a satisfying-looking region) postpone
    // restarts (Glucose-style blocking, here on top of Luby).
    trail_ema: f64,
    // Trail length at the last `simplify`; gates `inprocess`.
    simplified_at: usize,
    // Clause activities.
    cla_inc: f64,
    ok: bool,
    stats: SolverStats,
    conflict_budget: Option<u64>,
    max_learnts: f64,
    model: Vec<LBool>,
    conflict_core: Vec<Lit>,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            ca: Arena::default(),
            clauses: Vec::new(),
            learnts: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: Vec::new(),
            heap_pos: Vec::new(),
            polarity: Vec::new(),
            seen: Vec::new(),
            lbd_stamp: Vec::new(),
            lbd_counter: 0,
            trail_ema: 0.0,
            simplified_at: 0,
            cla_inc: 1.0,
            ok: true,
            stats: SolverStats::default(),
            conflict_budget: None,
            max_learnts: 1000.0,
            model: Vec::new(),
            conflict_core: Vec::new(),
        }
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::from_index(self.assigns.len());
        self.assigns.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.polarity.push(false);
        self.seen.push(false);
        self.heap_pos.push(usize::MAX);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap_insert(v);
        v
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Current clause-arena footprint in bytes (live clauses plus
    /// tombstones awaiting [`gc`](Solver::gc)).
    pub fn arena_bytes(&self) -> usize {
        self.ca.bytes()
    }

    /// Solver statistics accumulated so far.
    ///
    /// All fields — including `learnts` — are maintained incrementally, so
    /// this is a cheap copy; use [`stats_ref`](Solver::stats_ref) to avoid
    /// even that, or [`SolverStats::delta_since`] to attribute work to a
    /// single solve call.
    pub fn stats(&self) -> SolverStats {
        debug_assert_eq!(
            self.stats.learnts,
            self.learnts
                .iter()
                .filter(|&&r| !self.ca.is_deleted(r))
                .count() as u64,
            "incremental learnt-clause counter out of sync"
        );
        self.stats
    }

    /// Borrows the statistics without copying — the snapshot half of the
    /// per-call delta pattern:
    ///
    /// ```
    /// use diam_sat::{SolveResult, Solver};
    ///
    /// let mut s = Solver::new();
    /// let (a, b) = (s.new_var().positive(), s.new_var().positive());
    /// s.add_clause([a, b]);
    /// let before = *s.stats_ref();
    /// assert_eq!(s.solve(), SolveResult::Sat);
    /// let spent = s.stats_ref().delta_since(&before);
    /// assert!(spent.propagations <= s.stats_ref().propagations);
    /// ```
    pub fn stats_ref(&self) -> &SolverStats {
        &self.stats
    }

    /// Limits the number of conflicts per [`solve`](Solver::solve) call;
    /// `None` removes the limit. When the budget is exhausted, `solve`
    /// returns [`SolveResult::Unknown`].
    pub fn set_conflict_budget(&mut self, budget: Option<u64>) {
        self.conflict_budget = budget;
    }

    /// Adds a clause. Returns `false` if the solver is already in an
    /// unsatisfiable state (either before the call or because of this
    /// clause).
    ///
    /// # Panics
    ///
    /// Panics if called while the solver holds a partial assignment from an
    /// interrupted solve (this implementation always returns to decision
    /// level 0, so this cannot happen through the public API).
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        assert!(
            self.trail_lim.is_empty(),
            "add_clause above decision level 0"
        );
        if !self.ok {
            return false;
        }
        let mut lits: Vec<Lit> = lits.into_iter().collect();
        lits.sort_unstable_by_key(|l| l.code());
        lits.dedup();
        // Remove false literals; detect tautologies and satisfied clauses.
        let mut i = 0;
        while i + 1 < lits.len() {
            if lits[i].var() == lits[i + 1].var() {
                return true; // p ∨ ¬p: tautology
            }
            i += 1;
        }
        lits.retain(|&l| self.lit_value(l) != LBool::False);
        if lits.iter().any(|&l| self.lit_value(l) == LBool::True) {
            return true;
        }
        match lits.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(lits[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                let r = self.ca.alloc(&lits, false, 0, 0.0);
                self.clauses.push(r);
                self.watch(lits[0], lits[1], r);
                self.watch(lits[1], lits[0], r);
                self.sync_arena_stats();
                true
            }
        }
    }

    /// Solves the formula with no assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Solves under the given assumptions. On [`SolveResult::Unsat`] the
    /// formula itself may still be satisfiable without the assumptions; the
    /// solver remains usable either way.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.conflict_core.clear();
        if !self.ok {
            return SolveResult::Unsat;
        }
        debug_assert!(self.trail_lim.is_empty());
        let budget_start = self.stats.conflicts;
        let mut luby_index: u64 = 0;
        let result = loop {
            let restart_limit = 64 * luby(luby_index);
            luby_index += 1;
            match self.search(assumptions, restart_limit, budget_start) {
                Some(r) => break r,
                None => {
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                }
            }
        };
        if result == SolveResult::Sat {
            self.model = self.assigns.clone();
        } else {
            self.model.clear();
        }
        self.cancel_until(0);
        result
    }

    /// The model value of `l` after a [`SolveResult::Sat`] answer (`None`
    /// for variables the search never assigned — any value satisfies —
    /// or when no model is available).
    pub fn value(&self, l: Lit) -> Option<bool> {
        let v = match self.model.get(l.var().index()) {
            Some(&v) => v,
            None => return None,
        };
        match if l.is_negative() { v.negate() } else { v } {
            LBool::True => Some(true),
            LBool::False => Some(false),
            LBool::Undef => None,
        }
    }

    // --- internals -------------------------------------------------------

    #[inline]
    fn lit_value(&self, l: Lit) -> LBool {
        let v = self.assigns[l.var().index()];
        if l.is_negative() {
            v.negate()
        } else {
            v
        }
    }

    #[inline]
    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn watch(&mut self, lit: Lit, blocker: Lit, clause: CRef) {
        // A clause watching `lit` must be revisited when `¬lit` is enqueued.
        self.watches[(!lit).code()].push(Watcher { clause, blocker });
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: CRef) {
        debug_assert_eq!(self.lit_value(l), LBool::Undef);
        let v = l.var().index();
        self.assigns[v] = LBool::from_bool(!l.is_negative());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    fn sync_arena_stats(&mut self) {
        self.stats.arena_bytes = self.ca.bytes() as u64;
        self.stats.arena_wasted_bytes = (self.ca.wasted * 4) as u64;
    }

    /// Propagates all enqueued facts; returns the conflicting clause.
    fn propagate(&mut self) -> Option<CRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            let mut conflict = None;
            'watchers: while i < ws.len() {
                let w = ws[i];
                if self.lit_value(w.blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                let r = w.clause;
                if self.ca.is_deleted(r) {
                    ws.swap_remove(i);
                    continue;
                }
                // Normalize: the false literal (¬p) goes to position 1.
                let false_lit = !p;
                if self.ca.lit(r, 0) == false_lit {
                    let other = self.ca.lit(r, 1);
                    self.ca.set_lit(r, 0, other);
                    self.ca.set_lit(r, 1, false_lit);
                }
                debug_assert_eq!(self.ca.lit(r, 1), false_lit);
                let first = self.ca.lit(r, 0);
                if first != w.blocker && self.lit_value(first) == LBool::True {
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Find a new watch.
                let n = self.ca.len(r);
                for k in 2..n {
                    let cand = self.ca.lit(r, k);
                    if self.lit_value(cand) != LBool::False {
                        self.ca.set_lit(r, 1, cand);
                        self.ca.set_lit(r, k, false_lit);
                        self.watch(cand, first, r);
                        ws.swap_remove(i);
                        continue 'watchers;
                    }
                }
                // No new watch: unit or conflicting.
                ws[i].blocker = first;
                i += 1;
                if self.lit_value(first) == LBool::False {
                    conflict = Some(r);
                    self.qhead = self.trail.len();
                    break;
                }
                self.unchecked_enqueue(first, r);
            }
            debug_assert!(self.watches[p.code()].is_empty());
            self.watches[p.code()] = ws;
            if conflict.is_some() {
                return conflict;
            }
        }
        None
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backtrack level.
    fn analyze(&mut self, mut conflict: CRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)]; // placeholder slot
        let mut counter = 0u32;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        loop {
            self.bump_clause(conflict);
            // Visit the literals of the reason clause (skipping the implied
            // literal itself when this is not the conflict clause).
            let start = usize::from(p.is_some());
            let n = self.ca.len(conflict);
            for k in start..n {
                let q = self.ca.lit(conflict, k);
                let v = q.var().index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(q.var());
                    if self.level[v] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail back to the next marked literal.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let lit = self.trail[index];
            self.seen[lit.var().index()] = false;
            counter -= 1;
            p = Some(lit);
            if counter == 0 {
                learnt[0] = !lit;
                break;
            }
            conflict = self.reason[lit.var().index()];
            debug_assert_ne!(conflict, NO_REASON);
        }

        // Local minimization: drop literals whose reason is subsumed by the
        // rest of the learnt clause.
        for l in &learnt[1..] {
            self.seen[l.var().index()] = true;
        }
        let mut minimized = vec![learnt[0]];
        for &l in &learnt[1..] {
            let r = self.reason[l.var().index()];
            let redundant = r != NO_REASON && {
                let n = self.ca.len(r);
                (1..n).all(|k| {
                    let q = self.ca.lit(r, k);
                    self.seen[q.var().index()] || self.level[q.var().index()] == 0
                })
            };
            if !redundant {
                minimized.push(l);
            }
        }
        for l in &learnt[1..] {
            self.seen[l.var().index()] = false;
        }
        let learnt = minimized;

        // Backtrack level = second-highest level in the clause.
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            self.level[learnt[max_i].var().index()]
        };
        (learnt, bt)
    }

    fn cancel_until(&mut self, lvl: u32) {
        if self.decision_level() <= lvl {
            return;
        }
        let bound = self.trail_lim[lvl as usize];
        for i in (bound..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            self.polarity[v] = self.assigns[v] == LBool::True;
            self.assigns[v] = LBool::Undef;
            self.reason[v] = NO_REASON;
            self.heap_insert(l.var());
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(lvl as usize);
        self.qhead = self.trail.len();
    }

    /// The LBD ("glue") of a clause: the number of distinct decision levels
    /// among its literals. Computed with a stamped level map, no clearing.
    ///
    /// Called from [`learn`](Self::learn) *after* the backtrack: the
    /// asserting literal's variable was just unassigned, but its `level[]`
    /// entry still holds the conflict level — which is strictly greater
    /// than every other literal's level, so the count is exactly the
    /// pre-backtrack LBD.
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_counter += 1;
        let mut lbd = 0u32;
        for &l in lits {
            let lev = self.level[l.var().index()] as usize;
            if lev == 0 {
                continue;
            }
            if lev >= self.lbd_stamp.len() {
                self.lbd_stamp.resize(lev + 1, 0);
            }
            if self.lbd_stamp[lev] != self.lbd_counter {
                self.lbd_stamp[lev] = self.lbd_counter;
                lbd += 1;
            }
        }
        lbd.max(1)
    }

    fn learn(&mut self, lits: &[Lit]) -> CRef {
        debug_assert!(lits.len() >= 2);
        let lbd = self.compute_lbd(lits);
        let r = self.ca.alloc(lits, true, lbd, self.cla_inc as f32);
        self.learnts.push(r);
        self.watch(lits[0], lits[1], r);
        self.watch(lits[1], lits[0], r);
        self.stats.learnts += 1;
        self.stats.lbd_sum += u64::from(lbd);
        self.stats.lbd_hist[(lbd as usize).clamp(1, 8) - 1] += 1;
        self.sync_arena_stats();
        r
    }

    /// One restart period of CDCL search. `None` = restart requested.
    fn search(
        &mut self,
        assumptions: &[Lit],
        restart_limit: u64,
        budget_start: u64,
    ) -> Option<SolveResult> {
        let mut conflicts_here: u64 = 0;
        let mut postponements: u32 = 0;
        loop {
            if let Some(conflict) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                // Glue-aware restart postponement input: track the average
                // trail size at conflicts.
                self.trail_ema += (self.trail.len() as f64 - self.trail_ema) * (1.0 / 1024.0);
                if self.decision_level() <= assumptions.len() as u32 {
                    // Conflict within (or below) the assumption prefix:
                    // compute the subset of assumptions responsible.
                    self.analyze_final_clause(conflict, assumptions);
                    if self.decision_level() == 0 {
                        self.ok = false;
                    }
                    return Some(SolveResult::Unsat);
                }
                let (learnt, bt) = self.analyze(conflict);
                // Never backtrack into the middle of the assumption prefix
                // without re-deciding the assumptions: cancel to max(bt, —)
                // is handled by re-entering the decision loop below.
                self.cancel_until(bt);
                if learnt.len() == 1 {
                    if self.decision_level() > 0 {
                        // Unit learnt while above level 0 (can happen when
                        // assumptions are re-decided); back out fully.
                        self.cancel_until(0);
                    }
                    if self.lit_value(learnt[0]) == LBool::False {
                        self.ok = false;
                        return Some(SolveResult::Unsat);
                    }
                    if self.lit_value(learnt[0]) == LBool::Undef {
                        self.unchecked_enqueue(learnt[0], NO_REASON);
                    }
                } else {
                    let r = self.learn(&learnt);
                    self.unchecked_enqueue(learnt[0], r);
                }
                self.decay_activities();
                if let Some(b) = self.conflict_budget {
                    if self.stats.conflicts - budget_start >= b {
                        return Some(SolveResult::Unknown);
                    }
                }
                if conflicts_here >= restart_limit {
                    // Glue-aware postponement on top of Luby: a trail much
                    // larger than the running average means the search is
                    // deep in a promising region — postpone the restart
                    // (bounded per period so Luby keeps its schedule).
                    if self.stats.conflicts > 1000
                        && postponements < 3
                        && self.trail.len() as f64 > 1.4 * self.trail_ema
                    {
                        postponements += 1;
                        self.stats.blocked_restarts += 1;
                        conflicts_here = 0;
                    } else {
                        return None;
                    }
                }
                if self.stats.learnts as f64 > self.max_learnts {
                    self.reduce_db();
                    self.max_learnts *= 1.3;
                }
            } else {
                // Decide: assumptions first, then VSIDS.
                let dl = self.decision_level() as usize;
                if dl < assumptions.len() {
                    let a = assumptions[dl];
                    match self.lit_value(a) {
                        LBool::True => {
                            // Already implied; open an empty level for it.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            self.analyze_final_lit(a, assumptions);
                            return Some(SolveResult::Unsat);
                        }
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(a, NO_REASON);
                        }
                    }
                    continue;
                }
                match self.pick_branch() {
                    None => return Some(SolveResult::Sat),
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let l = v.lit(self.polarity[v.index()]);
                        self.unchecked_enqueue(l, NO_REASON);
                    }
                }
            }
        }
    }

    /// Tiered learnt-clause reduction:
    ///
    /// * **core** (`lbd <= 2`), binary, and locked (reason) clauses are
    ///   kept unconditionally;
    /// * **mid** (`lbd <= 6`) clauses that were used in conflict analysis
    ///   since the last reduction survive one round (their protection bit
    ///   is cleared — they must earn the next reprieve);
    /// * everything else is a removal candidate: the worse half by
    ///   (LBD desc, activity asc) is tombstoned, selected with
    ///   `select_nth_unstable_by` instead of a full sort.
    fn reduce_db(&mut self) {
        let mut cands: Vec<CRef> = Vec::new();
        for i in 0..self.learnts.len() {
            let r = self.learnts[i];
            if self.ca.is_deleted(r) || self.ca.len(r) <= 2 || self.is_locked(r) {
                continue;
            }
            let lbd = self.ca.lbd(r);
            if lbd <= CORE_LBD {
                continue;
            }
            if lbd <= MID_LBD && self.ca.is_protected(r) {
                self.ca.set_protected(r, false);
                continue;
            }
            cands.push(r);
        }
        if cands.len() >= 2 {
            let mid = cands.len() / 2;
            let ca = &self.ca;
            // Worse-first: higher LBD, then lower activity.
            cands.select_nth_unstable_by(mid, |&a, &b| {
                ca.lbd(b).cmp(&ca.lbd(a)).then(
                    ca.activity(a)
                        .partial_cmp(&ca.activity(b))
                        .unwrap_or(std::cmp::Ordering::Equal),
                )
            });
            for &r in cands.iter().take(mid) {
                self.remove_clause(r);
            }
        }
        let ca = &self.ca;
        self.learnts.retain(|&r| !ca.is_deleted(r));
        self.maybe_gc();
    }

    fn remove_clause(&mut self, r: CRef) {
        debug_assert!(!self.ca.is_deleted(r));
        if self.ca.is_learnt(r) {
            self.stats.learnts -= 1;
        }
        self.ca.delete(r);
        self.sync_arena_stats();
    }

    /// Whether the clause is the reason of a currently-assigned variable
    /// *above* level 0. Level-0 reasons are never dereferenced (conflict
    /// analysis and core extraction both stop at level 0), so root-satisfied
    /// reason clauses stay removable; GC clears their dangling `reason[]`
    /// entries.
    fn is_locked(&self, r: CRef) -> bool {
        if self.ca.len(r) == 0 {
            return false;
        }
        let v = self.ca.lit(r, 0).var().index();
        self.reason[v] == r && self.assigns[v] != LBool::Undef && self.level[v] > 0
    }

    fn pick_branch(&mut self) -> Option<Var> {
        while let Some(v) = self.heap_pop() {
            if self.assigns[v.index()] == LBool::Undef {
                return Some(v);
            }
        }
        None
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.heap_update(v);
    }

    fn bump_clause(&mut self, r: CRef) {
        if !self.ca.is_learnt(r) {
            return;
        }
        let a = self.ca.activity(r) + self.cla_inc as f32;
        self.ca.set_activity(r, a);
        // Used in conflict analysis: refresh the mid-tier reprieve.
        self.ca.set_protected(r, true);
        if a > 1e20 {
            for i in 0..self.learnts.len() {
                let lr = self.learnts[i];
                let scaled = self.ca.activity(lr) * 1e-20;
                self.ca.set_activity(lr, scaled);
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
        self.cla_inc /= 0.999;
    }

    /// Level-0 simplification: removes clauses satisfied by root-level
    /// facts and strips falsified literals from the rest. Cheap, and keeps
    /// long-lived incremental solvers (BMC unrollers, sweeping loops) lean.
    /// Runs the arena collector afterwards when enough waste accumulated.
    /// Returns the number of clauses removed.
    pub fn simplify(&mut self) -> usize {
        assert!(self.trail_lim.is_empty(), "simplify above decision level 0");
        if !self.ok {
            return 0;
        }
        let mut removed = 0;
        let total = self.clauses.len() + self.learnts.len();
        for idx in 0..total {
            let r = if idx < self.clauses.len() {
                self.clauses[idx]
            } else {
                self.learnts[idx - self.clauses.len()]
            };
            if self.ca.is_deleted(r) || self.is_locked(r) {
                continue;
            }
            // At level 0 every assignment is a root fact.
            let n = self.ca.len(r);
            let satisfied = (0..n).any(|k| self.lit_value(self.ca.lit(r, k)) == LBool::True);
            if satisfied {
                self.remove_clause(r);
                removed += 1;
                continue;
            }
            // Strip root-false literals from the tail only: positions 0/1
            // are the watched pair and must not move (watcher lists refer
            // to them); a root-false watch is harmless and migrates on its
            // own during propagation.
            if n > 2 {
                let mut w = 2;
                for k in 2..n {
                    let l = self.ca.lit(r, k);
                    if self.lit_value(l) != LBool::False {
                        if w != k {
                            self.ca.set_lit(r, w, l);
                        }
                        w += 1;
                    }
                }
                if w < n {
                    self.ca.shrink(r, w);
                }
            }
        }
        let ca = &self.ca;
        self.clauses.retain(|&r| !ca.is_deleted(r));
        self.learnts.retain(|&r| !ca.is_deleted(r));
        self.simplified_at = self.trail.len();
        self.sync_arena_stats();
        self.maybe_gc();
        removed
    }

    /// Level-0 inprocessing hook for incremental callers (BMC depth loops,
    /// sweeping rounds): call it at natural boundaries — e.g. after each
    /// UNSAT depth — and it decides internally whether any work is worth
    /// doing. [`simplify`](Solver::simplify) runs only when new root facts
    /// arrived since the last pass; the collector runs only past its waste
    /// threshold. Calling this every round is safe and cheap.
    pub fn inprocess(&mut self) {
        assert!(
            self.trail_lim.is_empty(),
            "inprocess above decision level 0"
        );
        if !self.ok {
            return;
        }
        if self.trail.len() > self.simplified_at {
            self.simplify(); // also runs maybe_gc
        } else {
            self.maybe_gc();
        }
    }

    /// Runs the collector when at least 25% of the arena (and a minimum
    /// absolute amount) is waste.
    fn maybe_gc(&mut self) {
        if self.ca.wasted >= 256 && self.ca.wasted * 4 >= self.ca.data.len() {
            self.gc();
        }
    }

    /// Compacts the clause arena: copies live clauses into a fresh arena
    /// (insertion order preserved) and rewrites every watcher list,
    /// `reason[]` entry, and internal clause list through forwarding
    /// pointers. Returns the number of bytes reclaimed.
    ///
    /// Safe at any decision level: reasons of assigned variables are
    /// remapped; dangling level-0 reasons (their clause was removed by
    /// [`simplify`](Solver::simplify)/reduction — legal because level-0
    /// reasons are never dereferenced) are cleared.
    pub fn gc(&mut self) -> usize {
        let old_bytes = self.ca.bytes();
        let live_words = self.ca.data.len().saturating_sub(self.ca.wasted);
        let mut new_data: Vec<u32> = Vec::with_capacity(live_words);

        // Relocate via the clause lists (every live clause is in exactly
        // one); drop tombstones from the lists as we go.
        let mut clauses = std::mem::take(&mut self.clauses);
        clauses.retain_mut(|r| {
            if self.ca.is_deleted(*r) {
                false
            } else {
                *r = self.ca.relocate(*r, &mut new_data);
                true
            }
        });
        self.clauses = clauses;
        let mut learnts = std::mem::take(&mut self.learnts);
        learnts.retain_mut(|r| {
            if self.ca.is_deleted(*r) {
                false
            } else {
                *r = self.ca.relocate(*r, &mut new_data);
                true
            }
        });
        self.learnts = learnts;

        // Rewrite watchers: live clauses forward, tombstones drop.
        let ca = &self.ca;
        for wl in self.watches.iter_mut() {
            wl.retain_mut(|w| {
                if ca.is_relocated(w.clause) {
                    w.clause = ca.forward(w.clause);
                    true
                } else {
                    debug_assert!(ca.is_deleted(w.clause));
                    false
                }
            });
        }

        // Rewrite reasons. A reason pointing at a tombstone can only belong
        // to a level-0 assignment (reduction/simplify never delete clauses
        // locked above level 0); those reasons are never read again — clear.
        for v in 0..self.reason.len() {
            let r = self.reason[v];
            if r == NO_REASON {
                continue;
            }
            if self.ca.is_relocated(r) {
                self.reason[v] = self.ca.forward(r);
            } else {
                debug_assert!(self.ca.is_deleted(r));
                debug_assert!(self.assigns[v] == LBool::Undef || self.level[v] == 0);
                self.reason[v] = NO_REASON;
            }
        }

        self.ca.data = new_data;
        self.ca.wasted = 0;
        let freed = old_bytes - self.ca.bytes();
        self.stats.gc_runs += 1;
        self.stats.gc_freed_bytes += freed as u64;
        self.sync_arena_stats();
        freed
    }

    /// The subset of the last call's assumptions that were proven jointly
    /// contradictory with the formula (non-empty only after an
    /// assumption-level [`SolveResult::Unsat`]). Analogous to MiniSat's
    /// final conflict clause; useful for incremental BMC and sweeping.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.conflict_core
    }

    /// Walks reasons from a conflicting clause back to the assumption
    /// decisions, filling `conflict_core`.
    fn analyze_final_clause(&mut self, conflict: CRef, assumptions: &[Lit]) {
        let lits: Vec<Lit> = (0..self.ca.len(conflict))
            .map(|k| self.ca.lit(conflict, k))
            .collect();
        self.trace_to_assumptions(&lits, assumptions);
    }

    /// Like [`Self::analyze_final_clause`] for a single already-false
    /// assumption literal.
    fn analyze_final_lit(&mut self, a: Lit, assumptions: &[Lit]) {
        self.trace_to_assumptions(&[!a], assumptions);
        if !self.conflict_core.contains(&a) {
            self.conflict_core.push(a);
        }
    }

    fn trace_to_assumptions(&mut self, seed: &[Lit], assumptions: &[Lit]) {
        self.conflict_core.clear();
        let mut seen = vec![false; self.num_vars()];
        let mut stack: Vec<Var> = seed.iter().map(|l| l.var()).collect();
        while let Some(v) = stack.pop() {
            if seen[v.index()] || self.level[v.index()] == 0 {
                continue;
            }
            seen[v.index()] = true;
            let reason = self.reason[v.index()];
            if reason == NO_REASON {
                // A decision: within the assumption prefix every decision is
                // an assumption.
                if let Some(&a) = assumptions.iter().find(|a| a.var() == v) {
                    if !self.conflict_core.contains(&a) {
                        self.conflict_core.push(a);
                    }
                }
            } else {
                for k in 0..self.ca.len(reason) {
                    stack.push(self.ca.lit(reason, k).var());
                }
            }
        }
    }

    // --- indexed max-heap on activity -------------------------------------

    fn heap_less(&self, a: Var, b: Var) -> bool {
        self.activity[a.index()] > self.activity[b.index()]
    }

    fn heap_insert(&mut self, v: Var) {
        if self.heap_pos[v.index()] != usize::MAX {
            return;
        }
        self.heap_pos[v.index()] = self.heap.len();
        self.heap.push(v);
        self.heap_up(self.heap.len() - 1);
    }

    fn heap_update(&mut self, v: Var) {
        let pos = self.heap_pos[v.index()];
        if pos != usize::MAX {
            self.heap_up(pos);
        }
    }

    fn heap_pop(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_pos[top.index()] = usize::MAX;
        let last = self.heap.pop().expect("heap nonempty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last.index()] = 0;
            self.heap_down(0);
        }
        Some(top)
    }

    fn heap_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap_less(self.heap[i], self.heap[parent]) {
                self.heap_swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn heap_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut best = i;
            if l < self.heap.len() && self.heap_less(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.heap_less(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.heap_pos[self.heap[a].index()] = a;
        self.heap_pos[self.heap[b].index()] = b;
    }
}

/// The Luby restart sequence (0-indexed): 1,1,2,1,1,2,4,...
fn luby(index: u64) -> u64 {
    let mut i = index + 1;
    loop {
        // k = number of bits of i, so 2^(k-1) <= i < 2^k.
        let k = 64 - u64::from(i.leading_zeros());
        if i == (1 << k) - 1 {
            return 1 << (k - 1);
        }
        i = i - (1 << (k - 1)) + 1;
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops mirror the math here
mod tests {
    use super::*;

    fn vars(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| s.new_var().positive()).collect()
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        s.add_clause([v[0]]);
        s.add_clause([!v[0], v[1]]);
        s.add_clause([!v[1], v[2]]);
        s.add_clause([!v[2], v[3]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for &l in &v {
            assert_eq!(s.value(l), Some(true));
        }
    }

    #[test]
    fn trivially_unsat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        s.add_clause([v[0]]);
        assert!(!s.add_clause([!v[0]]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause([]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn tautology_is_ignored() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        assert!(s.add_clause([v[0], !v[0]]));
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn pigeonhole_3_into_2_is_unsat() {
        // p[i][j] = pigeon i in hole j.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..3)
            .map(|_| (0..2).map(|_| s.new_var().positive()).collect())
            .collect();
        for i in 0..3 {
            s.add_clause([p[i][0], p[i][1]]);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause([!p[i1][j], !p[i2][j]]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn assumptions_are_respected_and_removable() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        assert_eq!(s.solve_with(&[!v[0], !v[1]]), SolveResult::Unsat);
        // Without assumptions still satisfiable.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.solve_with(&[!v[0]]), SolveResult::Sat);
        assert_eq!(s.value(v[1]), Some(true));
    }

    #[test]
    fn duplicate_assumptions_are_harmless() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause([!v[0], v[1]]);
        assert_eq!(s.solve_with(&[v[0], v[0], v[0]]), SolveResult::Sat);
        assert_eq!(s.value(v[1]), Some(true));
        // Duplicates in an UNSAT query don't confuse the core either.
        s.add_clause([!v[1]]);
        assert_eq!(s.solve_with(&[v[0], v[0]]), SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(core.contains(&v[0]), "core {core:?}");
    }

    #[test]
    fn contradictory_assumptions_are_unsat_with_core() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause([v[0], v[1], v[2]]); // keep the formula satisfiable
        assert_eq!(s.solve_with(&[v[0], !v[0]]), SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(
            core.contains(&v[0]) && core.contains(&!v[0]),
            "core must name both sides of the contradiction: {core:?}"
        );
        // The solver stays usable and the formula is still satisfiable.
        assert_eq!(s.solve(), SolveResult::Sat);
        // Order flipped: still Unsat, still both sides.
        assert_eq!(s.solve_with(&[!v[0], v[0]]), SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(
            core.contains(&v[0]) && core.contains(&!v[0]),
            "core {core:?}"
        );
    }

    #[test]
    fn xor_chain_parity() {
        // Encode x0 ^ x1 ^ x2 = 1 via CNF; satisfiable, then force all-false.
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        let clauses: [[i32; 3]; 4] = [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]];
        for signs in clauses {
            let lits: Vec<Lit> = v
                .iter()
                .zip(signs)
                .map(|(&l, s)| if s > 0 { l } else { !l })
                .collect();
            s.add_clause(lits);
        }
        assert_eq!(s.solve(), SolveResult::Sat);
        let parity = s.value(v[0]).unwrap() ^ s.value(v[1]).unwrap() ^ s.value(v[2]).unwrap();
        assert!(parity);
        assert_eq!(s.solve_with(&[!v[0], !v[1], !v[2]]), SolveResult::Unsat);
    }

    #[test]
    fn conflict_budget_yields_unknown_or_answer() {
        // A moderately hard pigeonhole with a 1-conflict budget should give
        // Unknown (it needs many conflicts).
        let mut s = Solver::new();
        let n = 6;
        let p: Vec<Vec<Lit>> = (0..n + 1)
            .map(|_| (0..n).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for j in 0..n {
            for i1 in 0..=n {
                for i2 in (i1 + 1)..=n {
                    s.add_clause([!p[i1][j], !p[i2][j]]);
                }
            }
        }
        s.set_conflict_budget(Some(1));
        assert_eq!(s.solve(), SolveResult::Unknown);
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn simplify_removes_satisfied_clauses() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        s.add_clause([v[0], v[1]]);
        s.add_clause([v[2], v[3]]);
        s.add_clause([!v[0], v[2], v[3]]);
        s.add_clause([v[0]]); // root fact satisfies clause 0
        let removed = s.simplify();
        assert!(removed >= 1, "removed {removed}");
        // Solver behaviour is unchanged.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.solve_with(&[!v[2], !v[3]]), SolveResult::Unsat);
    }

    #[test]
    fn simplify_strips_root_false_literals() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        s.add_clause([v[0], v[1], v[2], v[3]]);
        s.add_clause([!v[0]]);
        s.simplify();
        // The solver must still behave as (v1 ∨ v2 ∨ v3).
        assert_eq!(s.solve_with(&[!v[1], !v[2], !v[3]]), SolveResult::Unsat);
        assert_eq!(s.solve_with(&[!v[1], !v[2]]), SolveResult::Sat);
        assert_eq!(s.value(v[3]), Some(true));
    }

    #[test]
    fn stats_accumulate() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause([v[0], v[1], v[2]]);
        s.add_clause([!v[0], v[1]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        let st = s.stats();
        assert!(st.decisions > 0 || st.propagations > 0);
        // The solver stays reusable and stats are monotone.
        assert_eq!(s.solve_with(&[!v[1]]), SolveResult::Sat);
        assert!(s.stats().decisions >= st.decisions);
    }

    #[test]
    fn unsat_core_names_the_guilty_assumptions() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        // v0 -> v1, v2 -> v3; assume v0, !v1 (contradictory) and v2 (innocent).
        s.add_clause([!v[0], v[1]]);
        s.add_clause([!v[2], v[3]]);
        assert_eq!(s.solve_with(&[v[2], v[0], !v[1]]), SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(
            core.contains(&v[0]) || core.contains(&!v[1]),
            "core {core:?}"
        );
        assert!(
            !core.contains(&v[2]),
            "innocent assumption in core {core:?}"
        );
    }

    #[test]
    fn unsat_core_for_directly_false_assumption() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause([v[0]]); // unit: v0 true at level 0
        assert_eq!(s.solve_with(&[v[1], !v[0]]), SolveResult::Unsat);
        let core = s.unsat_core().to_vec();
        assert!(core.contains(&!v[0]), "core {core:?}");
        assert!(!core.contains(&v[1]), "core {core:?}");
    }

    #[test]
    fn core_is_empty_on_sat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        assert_eq!(s.solve_with(&[v[0]]), SolveResult::Sat);
        assert!(s.unsat_core().is_empty());
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expect.iter().enumerate() {
            assert_eq!(luby(i as u64), e, "luby({i})");
        }
    }

    #[test]
    fn gc_reclaims_tombstoned_arena_bytes() {
        let mut s = Solver::new();
        let v = vars(&mut s, 20);
        // Many clauses that a root fact will satisfy (→ tombstones).
        for i in 1..20 {
            s.add_clause([v[0], v[i % 20], v[(i + 1) % 20]]);
        }
        s.add_clause([v[0]]); // satisfies every clause above
        let before = s.stats().arena_bytes;
        assert!(before > 0);
        let removed = s.simplify();
        assert!(removed >= 19, "removed {removed}");
        // simplify may or may not have crossed the auto-GC threshold; a
        // forced collection must leave a strictly smaller arena when
        // tombstones are present, and account the freed bytes.
        let st_before_gc = s.stats();
        if st_before_gc.arena_wasted_bytes > 0 {
            let freed = s.gc();
            assert!(freed > 0, "gc freed nothing with tombstones present");
        }
        let st = s.stats();
        assert!(
            st.arena_bytes < before,
            "arena did not shrink: {} -> {}",
            before,
            st.arena_bytes
        );
        assert_eq!(st.arena_wasted_bytes, 0);
        assert!(st.gc_runs >= 1);
        assert!(st.gc_freed_bytes > 0);
        // The solver still answers correctly after compaction: v0 is a
        // root fact, so contradicting it is Unsat while anything else is
        // free.
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(v[0]), Some(true));
        assert_eq!(s.solve_with(&[!v[1]]), SolveResult::Sat);
        assert_eq!(s.solve_with(&[!v[0]]), SolveResult::Unsat);
    }

    #[test]
    fn gc_rewrites_watchers_and_reasons_mid_search() {
        // Force learning + reduction + collection on a pigeonhole, then
        // verify the answer and continued usability.
        let mut s = Solver::new();
        let n = 7;
        let p: Vec<Vec<Lit>> = (0..n + 1)
            .map(|_| (0..n).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for j in 0..n {
            for i1 in 0..=n {
                for i2 in (i1 + 1)..=n {
                    s.add_clause([!p[i1][j], !p[i2][j]]);
                }
            }
        }
        // Tiny reduction threshold → many reduce_db (and hence GC) passes.
        s.max_learnts = 20.0;
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
        // The instance is unconditionally UNSAT; the solver noticed.
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn reduce_db_keeps_reason_clauses_mid_db() {
        // Regression for the reason-check pathology: build a solver state
        // where learnt clauses sit in the middle of the database and one of
        // them is the reason of a literal on the trail, then force a
        // reduction pass. The locked clause must survive (deleting a
        // reason corrupts conflict analysis — this used to be guarded only
        // via lits[0], which in-place watch swaps can invalidate for
        // root-satisfied clauses).
        let mut s = Solver::new();
        let n = 6;
        let p: Vec<Vec<Lit>> = (0..n + 1)
            .map(|_| (0..n).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for j in 0..n {
            for i1 in 0..=n {
                for i2 in (i1 + 1)..=n {
                    s.add_clause([!p[i1][j], !p[i2][j]]);
                }
            }
        }
        // Aggressive reduction: reduce_db runs constantly while reasons
        // from learnt clauses are live on the trail.
        s.max_learnts = 4.0;
        assert_eq!(s.solve(), SolveResult::Unsat);
        // Binary learnts are never deleted by reduction.
        let ca = &s.ca;
        assert!(s.learnts.iter().all(|&r| !ca.is_deleted(r)));
    }

    #[test]
    fn root_satisfied_reason_clauses_are_removable() {
        // A clause that *implied* a level-0 fact stays marked as its reason
        // forever (level-0 assignments are never cancelled). The robust
        // lock check must still allow simplify to drop it once satisfied.
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause([v[0], v[1]]); // will become v1's reason after !v0
        s.add_clause([!v[0]]); // root fact: v0 false → v1 implied with reason
        assert_eq!(s.lit_value(v[1]), LBool::True);
        let reason = s.reason[v[1].var().index()];
        assert_ne!(reason, NO_REASON, "v1 must be implied, not decided");
        // The clause is root-satisfied (by v1) — simplify must remove it.
        let removed = s.simplify();
        assert!(removed >= 1, "root-satisfied reason clause kept");
        // And GC clears the dangling level-0 reason without issue.
        s.gc();
        assert_eq!(s.reason[v[1].var().index()], NO_REASON);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(v[1]), Some(true));
    }

    #[test]
    fn lbd_is_computed_and_histogrammed() {
        let mut s = Solver::new();
        let n = 6;
        let p: Vec<Vec<Lit>> = (0..n + 1)
            .map(|_| (0..n).map(|_| s.new_var().positive()).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for j in 0..n {
            for i1 in 0..=n {
                for i2 in (i1 + 1)..=n {
                    s.add_clause([!p[i1][j], !p[i2][j]]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        let st = s.stats();
        let learnt_total: u64 = st.lbd_hist.iter().sum();
        assert!(learnt_total > 0, "no learnt clauses recorded");
        assert!(st.lbd_sum >= learnt_total, "lbd is at least 1 per clause");
        // Deltas subtract the histogram elementwise.
        let d = st.delta_since(&st);
        assert_eq!(d.lbd_hist.iter().sum::<u64>(), 0);
        assert_eq!(d.lbd_sum, 0);
    }

    #[test]
    fn inprocess_is_idempotent_and_preserves_answers() {
        let mut s = Solver::new();
        let v = vars(&mut s, 8);
        for i in 0..7 {
            s.add_clause([!v[i], v[i + 1]]);
        }
        s.add_clause([v[0]]);
        s.inprocess();
        s.inprocess(); // no new facts: must be a cheap no-op
        assert_eq!(s.solve(), SolveResult::Sat);
        for &l in &v {
            assert_eq!(s.value(l), Some(true));
        }
        s.inprocess();
        assert_eq!(s.solve_with(&[!v[7]]), SolveResult::Unsat);
    }

    /// Brute-force cross-check on random 3-CNF instances.
    #[test]
    fn random_3cnf_matches_brute_force() {
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..60 {
            let nv = 3 + (next() % 6) as usize; // 3..8 variables
            let nc = 2 + (next() % 24) as usize;
            let mut clauses: Vec<Vec<(usize, bool)>> = Vec::new();
            for _ in 0..nc {
                let mut c = Vec::new();
                for _ in 0..3 {
                    c.push(((next() % nv as u64) as usize, next() & 1 == 0));
                }
                clauses.push(c);
            }
            // Brute force.
            let mut brute_sat = false;
            'assign: for m in 0..(1u32 << nv) {
                for c in &clauses {
                    if !c.iter().any(|&(v, pos)| ((m >> v) & 1 == 1) == pos) {
                        continue 'assign;
                    }
                }
                brute_sat = true;
                break;
            }
            // Solver.
            let mut s = Solver::new();
            let v = vars(&mut s, nv);
            for c in &clauses {
                s.add_clause(c.iter().map(|&(i, pos)| if pos { v[i] } else { !v[i] }));
            }
            let got = s.solve();
            assert_eq!(
                got,
                if brute_sat {
                    SolveResult::Sat
                } else {
                    SolveResult::Unsat
                },
                "round {round}"
            );
            if got == SolveResult::Sat {
                // The produced model must satisfy every clause.
                for c in &clauses {
                    assert!(c.iter().any(|&(i, pos)| {
                        s.value(v[i]).unwrap_or(false) == pos || (s.value(v[i]).is_none())
                    }));
                }
            }
        }
    }
}
