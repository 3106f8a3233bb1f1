//! The ROBDD manager: unique table, `ite`, boolean operations,
//! quantification, composition, counting, and cube extraction.

use std::collections::HashMap;

/// A handle to a BDD node owned by a [`Manager`].
///
/// Handles compare equal iff the functions are equal (hash-consing), so
/// equivalence checks are O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bdd(u32);

impl Bdd {
    /// The constant-false function.
    pub const FALSE: Bdd = Bdd(0);
    /// The constant-true function.
    pub const TRUE: Bdd = Bdd(1);

    /// Whether this is one of the two constants.
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }
}

#[derive(Debug, Clone, Copy)]
struct Node {
    var: u32,
    lo: Bdd,
    hi: Bdd,
}

/// A BDD manager with a fixed variable order given by variable index.
#[derive(Debug)]
pub struct Manager {
    nodes: Vec<Node>,
    unique: HashMap<(u32, Bdd, Bdd), Bdd>,
    ite_cache: HashMap<(Bdd, Bdd, Bdd), Bdd>,
}

const TERMINAL_VAR: u32 = u32::MAX;

impl Default for Manager {
    fn default() -> Manager {
        Manager::new()
    }
}

impl Manager {
    /// Creates a manager containing only the two constants.
    pub fn new() -> Manager {
        Manager {
            nodes: vec![
                Node {
                    var: TERMINAL_VAR,
                    lo: Bdd::FALSE,
                    hi: Bdd::FALSE,
                },
                Node {
                    var: TERMINAL_VAR,
                    lo: Bdd::TRUE,
                    hi: Bdd::TRUE,
                },
            ],
            unique: HashMap::new(),
            ite_cache: HashMap::new(),
        }
    }

    /// Number of live nodes (including the two constants).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The projection function of variable `v`.
    pub fn var(&mut self, v: u32) -> Bdd {
        self.mk(v, Bdd::FALSE, Bdd::TRUE)
    }

    /// The negated projection of variable `v`.
    pub fn nvar(&mut self, v: u32) -> Bdd {
        self.mk(v, Bdd::TRUE, Bdd::FALSE)
    }

    /// The literal of variable `v` with the given phase.
    pub fn literal(&mut self, v: u32, positive: bool) -> Bdd {
        if positive {
            self.var(v)
        } else {
            self.nvar(v)
        }
    }

    fn mk(&mut self, var: u32, lo: Bdd, hi: Bdd) -> Bdd {
        if lo == hi {
            return lo;
        }
        if let Some(&n) = self.unique.get(&(var, lo, hi)) {
            return n;
        }
        let id = Bdd(u32::try_from(self.nodes.len()).expect("bdd node count overflow"));
        self.nodes.push(Node { var, lo, hi });
        self.unique.insert((var, lo, hi), id);
        id
    }

    #[inline]
    fn var_of(&self, f: Bdd) -> u32 {
        self.nodes[f.0 as usize].var
    }

    #[inline]
    fn cofactors(&self, f: Bdd, var: u32) -> (Bdd, Bdd) {
        let n = self.nodes[f.0 as usize];
        if n.var == var {
            (n.lo, n.hi)
        } else {
            (f, f)
        }
    }

    /// The if-then-else operator — the core of every boolean operation.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        // Terminal cases.
        if f == Bdd::TRUE {
            return g;
        }
        if f == Bdd::FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        if g == Bdd::TRUE && h == Bdd::FALSE {
            return f;
        }
        if let Some(&r) = self.ite_cache.get(&(f, g, h)) {
            return r;
        }
        let top = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let (h0, h1) = self.cofactors(h, top);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(top, lo, hi);
        self.ite_cache.insert((f, g, h), r);
        r
    }

    /// Negation.
    pub fn not(&mut self, f: Bdd) -> Bdd {
        self.ite(f, Bdd::FALSE, Bdd::TRUE)
    }

    /// Conjunction.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, Bdd::FALSE)
    }

    /// Disjunction.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, Bdd::TRUE, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// Equivalence.
    pub fn xnor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let ng = self.not(g);
        self.ite(f, g, ng)
    }

    /// `f ∧ ¬g` (set difference when reading BDDs as sets).
    pub fn diff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let ng = self.not(g);
        self.and(f, ng)
    }

    /// Whether `f ⇒ g` holds for all assignments.
    pub fn implies_check(&mut self, f: Bdd, g: Bdd) -> bool {
        self.diff(f, g) == Bdd::FALSE
    }

    /// Existential quantification of the listed variables (in any order).
    pub fn exists(&mut self, f: Bdd, vars: &[u32]) -> Bdd {
        let mut sorted: Vec<u32> = vars.to_vec();
        sorted.sort_unstable();
        let mut cache = HashMap::new();
        self.exists_rec(f, &sorted, &mut cache)
    }

    fn exists_rec(&mut self, f: Bdd, vars: &[u32], cache: &mut HashMap<Bdd, Bdd>) -> Bdd {
        if f.is_const() || vars.is_empty() {
            return f;
        }
        let v = self.var_of(f);
        // Variables above the top of f cannot occur in it.
        let vars = match vars.iter().position(|&q| q >= v) {
            Some(p) => &vars[p..],
            None => return f,
        };
        if vars.is_empty() {
            return f;
        }
        if let Some(&r) = cache.get(&f) {
            return r;
        }
        let node = self.nodes[f.0 as usize];
        let r = if vars[0] == v {
            let lo = self.exists_rec(node.lo, &vars[1..], cache);
            let hi = self.exists_rec(node.hi, &vars[1..], cache);
            self.or(lo, hi)
        } else {
            let lo = self.exists_rec(node.lo, vars, cache);
            let hi = self.exists_rec(node.hi, vars, cache);
            self.mk(v, lo, hi)
        };
        cache.insert(f, r);
        r
    }

    /// The relational product `∃ vars. f ∧ g` computed in one pass — the
    /// workhorse of image/preimage computation, avoiding the (often much
    /// larger) intermediate conjunction.
    pub fn and_exists(&mut self, f: Bdd, g: Bdd, vars: &[u32]) -> Bdd {
        let mut sorted: Vec<u32> = vars.to_vec();
        sorted.sort_unstable();
        let mut cache = HashMap::new();
        self.and_exists_rec(f, g, &sorted, &mut cache)
    }

    fn and_exists_rec(
        &mut self,
        f: Bdd,
        g: Bdd,
        vars: &[u32],
        cache: &mut HashMap<(Bdd, Bdd), Bdd>,
    ) -> Bdd {
        if f == Bdd::FALSE || g == Bdd::FALSE {
            return Bdd::FALSE;
        }
        if f == Bdd::TRUE && g == Bdd::TRUE {
            return Bdd::TRUE;
        }
        // No quantified variables left at or below this level: plain AND.
        let top = self.var_of(f).min(self.var_of(g));
        let vars = match vars.iter().position(|&q| q >= top) {
            Some(p) => &vars[p..],
            None => return self.and(f, g),
        };
        if vars.is_empty() {
            return self.and(f, g);
        }
        let key = if f.0 <= g.0 { (f, g) } else { (g, f) };
        if let Some(&r) = cache.get(&key) {
            return r;
        }
        let (f0, f1) = self.cofactors(f, top);
        let (g0, g1) = self.cofactors(g, top);
        let r = if vars[0] == top {
            let lo = self.and_exists_rec(f0, g0, &vars[1..], cache);
            // Early termination: lo = TRUE makes the OR true.
            if lo == Bdd::TRUE {
                Bdd::TRUE
            } else {
                let hi = self.and_exists_rec(f1, g1, &vars[1..], cache);
                self.or(lo, hi)
            }
        } else {
            let lo = self.and_exists_rec(f0, g0, vars, cache);
            let hi = self.and_exists_rec(f1, g1, vars, cache);
            self.mk(top, lo, hi)
        };
        cache.insert(key, r);
        r
    }

    /// Conjunction of many functions (balanced for cache friendliness).
    pub fn and_many<I: IntoIterator<Item = Bdd>>(&mut self, fs: I) -> Bdd {
        let mut layer: Vec<Bdd> = fs.into_iter().collect();
        if layer.is_empty() {
            return Bdd::TRUE;
        }
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len() / 2 + 1);
            for pair in layer.chunks(2) {
                next.push(if pair.len() == 2 {
                    self.and(pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            layer = next;
        }
        layer[0]
    }

    /// Disjunction of many functions.
    pub fn or_many<I: IntoIterator<Item = Bdd>>(&mut self, fs: I) -> Bdd {
        let inv: Vec<Bdd> = fs.into_iter().map(|f| self.not(f)).collect();
        let conj = self.and_many(inv);
        self.not(conj)
    }

    /// Universal quantification of the listed variables.
    pub fn forall(&mut self, f: Bdd, vars: &[u32]) -> Bdd {
        let nf = self.not(f);
        let e = self.exists(nf, vars);
        self.not(e)
    }

    /// Simultaneous substitution: replaces variable `v` by `map(v)` wherever
    /// `map` returns a function. Substituted functions must only mention
    /// variables *not* themselves substituted (no recursive composition).
    pub fn compose(&mut self, f: Bdd, map: &HashMap<u32, Bdd>) -> Bdd {
        let mut cache = HashMap::new();
        self.compose_rec(f, map, &mut cache)
    }

    fn compose_rec(
        &mut self,
        f: Bdd,
        map: &HashMap<u32, Bdd>,
        cache: &mut HashMap<Bdd, Bdd>,
    ) -> Bdd {
        if f.is_const() {
            return f;
        }
        if let Some(&r) = cache.get(&f) {
            return r;
        }
        let node = self.nodes[f.0 as usize];
        let lo = self.compose_rec(node.lo, map, cache);
        let hi = self.compose_rec(node.hi, map, cache);
        let selector = match map.get(&node.var) {
            Some(&g) => g,
            None => self.var(node.var),
        };
        let r = self.ite(selector, hi, lo);
        cache.insert(f, r);
        r
    }

    /// Cofactor: fixes variable `v` to `value`.
    pub fn restrict(&mut self, f: Bdd, v: u32, value: bool) -> Bdd {
        let c = if value { Bdd::TRUE } else { Bdd::FALSE };
        let mut map = HashMap::new();
        map.insert(v, c);
        self.compose(f, &map)
    }

    /// Evaluates `f` under a total assignment (`assign(v)` = value of `v`).
    pub fn eval(&self, f: Bdd, assign: &dyn Fn(u32) -> bool) -> bool {
        let mut cur = f;
        while !cur.is_const() {
            let n = self.nodes[cur.0 as usize];
            cur = if assign(n.var) { n.hi } else { n.lo };
        }
        cur == Bdd::TRUE
    }

    /// The set of variables occurring in `f`, sorted ascending.
    pub fn support(&self, f: Bdd) -> Vec<u32> {
        let mut seen = HashMap::new();
        let mut out = Vec::new();
        let mut stack = vec![f];
        while let Some(g) = stack.pop() {
            if g.is_const() || seen.contains_key(&g) {
                continue;
            }
            seen.insert(g, ());
            let n = self.nodes[g.0 as usize];
            out.push(n.var);
            stack.push(n.lo);
            stack.push(n.hi);
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of satisfying assignments over `num_vars` variables
    /// (`0..num_vars` must cover the support of `f`). Saturating at
    /// `f64::MAX`; exact for the sizes used in this project.
    pub fn sat_count(&self, f: Bdd, num_vars: u32) -> f64 {
        let mut cache: HashMap<Bdd, f64> = HashMap::new();
        // count(f) over the variables strictly below f's top, then adjust.
        fn go(m: &Manager, f: Bdd, num_vars: u32, cache: &mut HashMap<Bdd, f64>) -> f64 {
            // Returns satisfying fraction × 2^num_vars assuming all vars free.
            if f == Bdd::FALSE {
                return 0.0;
            }
            if f == Bdd::TRUE {
                return (2f64).powi(num_vars as i32);
            }
            if let Some(&c) = cache.get(&f) {
                return c;
            }
            let n = m.nodes[f.0 as usize];
            let lo = go(m, n.lo, num_vars, cache);
            let hi = go(m, n.hi, num_vars, cache);
            // Each branch fixes one variable.
            let c = (lo + hi) / 2.0;
            cache.insert(f, c);
            c
        }
        go(self, f, num_vars, &mut cache)
    }

    /// One satisfying assignment as `(var, value)` pairs along a path to
    /// `TRUE` (variables absent from the cube are don't-cares), or `None`
    /// when `f` is unsatisfiable.
    pub fn any_cube(&self, f: Bdd) -> Option<Vec<(u32, bool)>> {
        if f == Bdd::FALSE {
            return None;
        }
        let mut cube = Vec::new();
        let mut cur = f;
        while !cur.is_const() {
            let n = self.nodes[cur.0 as usize];
            if n.lo != Bdd::FALSE {
                cube.push((n.var, false));
                cur = n.lo;
            } else {
                cube.push((n.var, true));
                cur = n.hi;
            }
        }
        Some(cube)
    }

    /// Calls `visit` for every cube (irredundant path to `TRUE`) of `f`.
    #[allow(clippy::type_complexity)]
    pub fn for_each_cube(&self, f: Bdd, visit: &mut dyn FnMut(&[(u32, bool)])) {
        let mut path = Vec::new();
        self.cubes_rec(f, &mut path, visit);
    }

    #[allow(clippy::type_complexity)]
    fn cubes_rec(
        &self,
        f: Bdd,
        path: &mut Vec<(u32, bool)>,
        visit: &mut dyn FnMut(&[(u32, bool)]),
    ) {
        if f == Bdd::FALSE {
            return;
        }
        if f == Bdd::TRUE {
            visit(path);
            return;
        }
        let n = self.nodes[f.0 as usize];
        path.push((n.var, false));
        self.cubes_rec(n.lo, path, visit);
        path.pop();
        path.push((n.var, true));
        self.cubes_rec(n.hi, path, visit);
        path.pop();
    }

    /// The number of distinct internal nodes reachable from `f`.
    pub fn size(&self, f: Bdd) -> usize {
        let mut seen: HashMap<Bdd, ()> = HashMap::new();
        let mut stack = vec![f];
        let mut count = 0;
        while let Some(g) = stack.pop() {
            if g.is_const() || seen.contains_key(&g) {
                continue;
            }
            seen.insert(g, ());
            count += 1;
            let n = self.nodes[g.0 as usize];
            stack.push(n.lo);
            stack.push(n.hi);
        }
        count
    }

    /// Copies the given roots into a fresh manager, dropping every node not
    /// reachable from them — the manager's garbage-collection story (cheap
    /// arena growth during computation, explicit compaction between phases).
    /// Returns the new manager and the translated roots, in order.
    #[allow(clippy::type_complexity)]
    pub fn compact(&self, roots: &[Bdd]) -> (Manager, Vec<Bdd>) {
        let mut out = Manager::new();
        let mut map: HashMap<Bdd, Bdd> = HashMap::new();
        map.insert(Bdd::FALSE, Bdd::FALSE);
        map.insert(Bdd::TRUE, Bdd::TRUE);
        fn copy(src: &Manager, dst: &mut Manager, f: Bdd, map: &mut HashMap<Bdd, Bdd>) -> Bdd {
            if let Some(&g) = map.get(&f) {
                return g;
            }
            let n = src.nodes[f.0 as usize];
            let lo = copy(src, dst, n.lo, map);
            let hi = copy(src, dst, n.hi, map);
            let g = dst.mk(n.var, lo, hi);
            map.insert(f, g);
            g
        }
        let new_roots = roots
            .iter()
            .map(|&r| copy(self, &mut out, r, &mut map))
            .collect();
        (out, new_roots)
    }

    /// Decomposes `f` at its top variable: `(var, lo, hi)`, or `None` for
    /// constants. The basis of BDD-to-netlist synthesis.
    pub fn decompose(&self, f: Bdd) -> Option<(u32, Bdd, Bdd)> {
        if f.is_const() {
            return None;
        }
        let n = self.nodes[f.0 as usize];
        Some((n.var, n.lo, n.hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evaluates f over all assignments of `nv` variables and compares with
    /// the reference function.
    fn check_truth_table(m: &Manager, f: Bdd, nv: u32, reference: impl Fn(u32) -> bool) {
        for a in 0..(1u32 << nv) {
            let got = m.eval(f, &|v| (a >> v) & 1 == 1);
            assert_eq!(got, reference(a), "assignment {a:b}");
        }
    }

    #[test]
    fn basic_ops_match_truth_tables() {
        let mut m = Manager::new();
        let x = m.var(0);
        let y = m.var(1);
        let z = m.var(2);
        let f = m.and(x, y);
        check_truth_table(&m, f, 3, |a| (a & 1 != 0) && (a & 2 != 0));
        let g = m.or(f, z);
        check_truth_table(&m, g, 3, |a| ((a & 1 != 0) && (a & 2 != 0)) || a & 4 != 0);
        let h = m.xor(x, y);
        check_truth_table(&m, h, 3, |a| (a & 1 != 0) ^ (a & 2 != 0));
        let k = m.xnor(x, z);
        check_truth_table(&m, k, 3, |a| (a & 1 != 0) == (a & 4 != 0));
    }

    #[test]
    fn default_manager_holds_the_two_constants() {
        let mut m = Manager::default();
        assert_eq!(m.num_nodes(), 2);
        let x = m.var(0);
        let y = m.var(1);
        assert!(x != Bdd::FALSE && x != Bdd::TRUE);
        assert_ne!(m.and(x, y), Bdd::FALSE);
    }

    #[test]
    fn hash_consing_makes_equal_functions_identical() {
        let mut m = Manager::new();
        let x = m.var(0);
        let y = m.var(1);
        let a = m.and(x, y);
        let b = m.and(y, x);
        assert_eq!(a, b);
        let na = m.not(a);
        let de_morgan = {
            let nx = m.not(x);
            let ny = m.not(y);
            m.or(nx, ny)
        };
        assert_eq!(na, de_morgan);
    }

    #[test]
    fn quantification() {
        let mut m = Manager::new();
        let x = m.var(0);
        let y = m.var(1);
        let f = m.and(x, y);
        assert_eq!(m.exists(f, &[1]), x);
        assert_eq!(m.exists(f, &[0, 1]), Bdd::TRUE);
        assert_eq!(m.forall(f, &[1]), Bdd::FALSE);
        let g = m.or(x, y);
        assert_eq!(m.forall(g, &[1]), x);
    }

    #[test]
    fn compose_substitutes() {
        let mut m = Manager::new();
        let x = m.var(0);
        let y = m.var(1);
        let z = m.var(2);
        let f = m.xor(x, y);
        // y := z
        let mut map = HashMap::new();
        map.insert(1, z);
        let g = m.compose(f, &map);
        let expect = m.xor(x, z);
        assert_eq!(g, expect);
    }

    #[test]
    fn restrict_is_cofactoring() {
        let mut m = Manager::new();
        let x = m.var(0);
        let y = m.var(1);
        let f = m.ite(x, y, Bdd::FALSE);
        assert_eq!(m.restrict(f, 0, true), y);
        assert_eq!(m.restrict(f, 0, false), Bdd::FALSE);
    }

    #[test]
    fn sat_count_majority() {
        let mut m = Manager::new();
        let x = m.var(0);
        let y = m.var(1);
        let z = m.var(2);
        let xy = m.and(x, y);
        let xz = m.and(x, z);
        let yz = m.and(y, z);
        let t = m.or(xy, xz);
        let maj = m.or(t, yz);
        assert_eq!(m.sat_count(maj, 3) as u32, 4);
        assert_eq!(m.sat_count(Bdd::TRUE, 3) as u32, 8);
        assert_eq!(m.sat_count(Bdd::FALSE, 3) as u32, 0);
    }

    #[test]
    fn any_cube_is_satisfying() {
        let mut m = Manager::new();
        let x = m.var(0);
        let ny = m.nvar(1);
        let f = m.and(x, ny);
        let cube = m.any_cube(f).unwrap();
        assert!(cube.contains(&(0, true)));
        assert!(cube.contains(&(1, false)));
        assert_eq!(m.any_cube(Bdd::FALSE), None);
    }

    #[test]
    fn cube_enumeration_covers_function() {
        let mut m = Manager::new();
        let x = m.var(0);
        let y = m.var(1);
        let f = m.xor(x, y);
        let mut cubes = Vec::new();
        m.for_each_cube(f, &mut |c| cubes.push(c.to_vec()));
        assert_eq!(cubes.len(), 2);
    }

    #[test]
    fn support_and_size() {
        let mut m = Manager::new();
        let x = m.var(0);
        let z = m.var(5);
        let f = m.and(x, z);
        assert_eq!(m.support(f), vec![0, 5]);
        assert_eq!(m.size(f), 2);
        assert_eq!(m.size(Bdd::TRUE), 0);
    }

    #[test]
    fn and_exists_matches_naive_composition() {
        let mut state = 0x5151u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..40 {
            let mut m = Manager::new();
            let nv = 5u32;
            // Two random functions over 5 vars.
            let build = |m: &mut Manager, next: &mut dyn FnMut() -> u64| {
                let mut f = m.var((next() % nv as u64) as u32);
                for _ in 0..6 {
                    let x = m.var((next() % nv as u64) as u32);
                    f = match next() % 3 {
                        0 => m.and(f, x),
                        1 => m.or(f, x),
                        _ => m.xor(f, x),
                    };
                }
                f
            };
            let f = build(&mut m, &mut next);
            let g = build(&mut m, &mut next);
            let qvars: Vec<u32> = (0..nv).filter(|_| next() % 2 == 0).collect();
            let fused = m.and_exists(f, g, &qvars);
            let conj = m.and(f, g);
            let naive = m.exists(conj, &qvars);
            assert_eq!(fused, naive);
        }
    }

    #[test]
    fn compact_preserves_functions_and_drops_garbage() {
        let mut m = Manager::new();
        let x = m.var(0);
        let y = m.var(1);
        let z = m.var(2);
        let keep = m.and(x, y);
        // Garbage: a large parity chain we will not keep.
        let mut junk = z;
        for v in 3..12 {
            let w = m.var(v);
            junk = m.xor(junk, w);
        }
        let before = m.num_nodes();
        let (m2, roots) = m.compact(&[keep]);
        assert!(m2.num_nodes() < before);
        // Same function under the same variable numbering.
        for a in 0..4u32 {
            let want = m.eval(keep, &|v| (a >> v) & 1 == 1);
            let got = m2.eval(roots[0], &|v| (a >> v) & 1 == 1);
            assert_eq!(want, got);
        }
        let _ = junk;
    }

    #[test]
    fn and_many_or_many() {
        let mut m = Manager::new();
        let xs: Vec<Bdd> = (0..5).map(|v| m.var(v)).collect();
        let conj = m.and_many(xs.clone());
        let disj = m.or_many(xs.clone());
        assert_eq!(m.sat_count(conj, 5) as u32, 1);
        assert_eq!(m.sat_count(disj, 5) as u32, 31);
        assert_eq!(m.and_many([]), Bdd::TRUE);
        assert_eq!(m.or_many([]), Bdd::FALSE);
    }

    #[test]
    fn random_expression_cross_check() {
        // Build random expressions twice: as BDDs and as 16-bit truth tables
        // over 4 variables, then compare pointwise.
        let mut state = 0xdead_beefu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let nv = 4u32;
        let var_table = |v: u32| -> u16 {
            let mut t = 0u16;
            for a in 0..16u32 {
                if (a >> v) & 1 == 1 {
                    t |= 1 << a;
                }
            }
            t
        };
        for _ in 0..30 {
            let mut m = Manager::new();
            let mut funcs: Vec<(Bdd, u16)> = (0..nv).map(|v| (m.var(v), var_table(v))).collect();
            for _ in 0..10 {
                let i = (next() % funcs.len() as u64) as usize;
                let j = (next() % funcs.len() as u64) as usize;
                let (bi, ti) = funcs[i];
                let (bj, tj) = funcs[j];
                let entry = match next() % 3 {
                    0 => (m.and(bi, bj), ti & tj),
                    1 => (m.or(bi, bj), ti | tj),
                    _ => (m.xor(bi, bj), ti ^ tj),
                };
                funcs.push(entry);
            }
            let &(top, table) = funcs.last().unwrap();
            for a in 0..16u32 {
                let got = m.eval(top, &|v| (a >> v) & 1 == 1);
                assert_eq!(got, (table >> a) & 1 == 1, "assignment {a:04b}");
            }
            assert_eq!(m.sat_count(top, nv) as u32, table.count_ones());
        }
    }
}
