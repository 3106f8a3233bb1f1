//! The SumSweep eccentricity engine: certified diameter upper bounds for
//! small general-circuit components, replacing the blanket `2^|regs|`
//! factor of the Def.-3 serialized bound.
//!
//! For a component within the cutoff, the engine enumerates its reachable
//! state graph ([`crate::state_graph`]), condenses it into SCCs (iterative
//! Tarjan), seeds per-vertex forward-eccentricity **upper** bounds by a DAG
//! DP over the condensation, and then runs SumSweep-style pivot sweeps —
//! a forward BFS from the pivot (its exact eccentricity) paired with a
//! backward BFS (distance-to-pivot lower bounds for every `v` that reaches
//! the pivot, and `d(v,w) + ecc(w)` upper bounds for the pivot's own SCC)
//! — until the global upper bound `DU = max_v U(v)` meets the lower bound
//! `DL` or the sweep budget runs out. Every BFS runs on the shared
//! level-synchronous [`visit`](diam_netlist::visit) engine.
//!
//! **Why the triangle update is SCC-restricted.** `ecc(v) ≤ d(v,w) +
//! ecc(w)` requires every vertex `v` reaches to be reachable from `w`.
//! Membership in the pivot's backward BFS tree only certifies `v → w`,
//! i.e. `reach(v) ⊇ reach(w)`; the containment the inequality needs is the
//! converse, and (since `v ∈ reach(v)`) both hold together exactly when
//! `v` and `w` share an SCC. Reachable state graphs are generally *not*
//! strongly connected — a branch state can enter either a small
//! free-running region or a long countdown chain — and applying the update
//! across SCCs can cut `U(v)` below the true eccentricity. Cross-SCC
//! information instead flows through a sound relaxation after each sweep:
//! `ecc(v) ≤ 1 + max_{s ∈ succ(v)} ecc(s)`, applied in ascending SCC order
//! (reverse-topological, successors first), which propagates confirmed
//! pivot eccentricities backward without ever under-cutting.
//!
//! **The bound is certified at every step, not just at convergence.** The
//! DAG DP seeds `U(v)` with the maximum number of *edges* any path from `v`
//! can traverse (a shortest path visits at most `|C|` distinct vertices in
//! each SCC `C` along a simple condensation chain), so `DU ≥ ecc(v)` for
//! all `v` before the first sweep; sweeps only tighten with equally sound
//! bounds. Exhausting the budget therefore still yields a valid certified
//! diameter — `exact` merely records whether `DU == DL` was reached.
//!
//! Certificates are memoized per bounding pass, in its
//! [`Classifier`](crate::classify::Classifier), so the targets of one pass
//! that share a component pay for its enumeration once.

use crate::state_graph::{StateGraph, StateGraphLimits};
use diam_netlist::visit::bfs_graph;
use diam_netlist::{Gate, Netlist};

/// Eccentricity-engine configuration. The `Default` is **disabled** so that
/// existing `StructuralOptions::default()` call sites keep the blanket
/// bound; enable with [`EccOptions::on`] or [`EccOptions::parse`]. The
/// free-signal cap and the sweep budget ([`MAX_SWEEPS`]) are fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EccOptions {
    /// Master switch; when off, [`component_cert`] always returns `None`.
    pub enabled: bool,
    /// Component register-count cutoff `k`: only components with
    /// `|regs| ≤ k` are enumerated (`--ecc k=<N>` on the CLI).
    pub cutoff: usize,
}

/// Default cutoff: components up to 2^16 packed states.
pub const DEFAULT_CUTOFF: usize = 16;

impl Default for EccOptions {
    fn default() -> EccOptions {
        EccOptions {
            enabled: false,
            cutoff: DEFAULT_CUTOFF,
        }
    }
}

impl EccOptions {
    /// The engine with default limits, enabled.
    pub fn on() -> EccOptions {
        EccOptions {
            enabled: true,
            ..EccOptions::default()
        }
    }

    /// Parses a CLI value: `off`, `on`, or `k=<N>` (the engine on with
    /// register cutoff `N ≥ 1`).
    pub fn parse(s: &str) -> Result<EccOptions, String> {
        let cutoff = |v: &str| v.parse::<usize>().ok().filter(|&k| k >= 1);
        match s {
            "off" => Ok(EccOptions::default()),
            "on" => Ok(EccOptions::on()),
            _ => match s.strip_prefix("k=").and_then(cutoff) {
                Some(cutoff) => Ok(EccOptions {
                    cutoff,
                    ..EccOptions::on()
                }),
                None => Err(format!("invalid --ecc value: {s} (want on|off|k=<N>)")),
            },
        }
    }

    /// Renders the option back to its CLI form, losslessly
    /// (`parse(render(o)) == o`), so run manifests record the cutoff
    /// actually used.
    pub fn render(&self) -> String {
        if !self.enabled {
            "off".to_string()
        } else if self.cutoff == DEFAULT_CUTOFF {
            "on".to_string()
        } else {
            format!("k={}", self.cutoff)
        }
    }
}

/// A certified per-component diameter bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EccCert {
    /// The serialized-bound factor replacing `2^|regs|`: the certified
    /// diameter plus one (the `+1` state-count convention of `exact.rs`),
    /// clamped to `2^|regs|` so the replacement is monotone.
    pub factor: u64,
    /// Certified upper bound on the pairwise diameter (in edges) of the
    /// component's reachable state graph under free external signals.
    pub diameter: u64,
    /// Whether the sweeps converged (`DU == DL`), making `diameter` exact.
    pub exact: bool,
    /// Reachable state count.
    pub states: u64,
    /// SumSweep pivots spent.
    pub sweeps: u32,
}

/// The outcome of [`sum_sweep`] on one state graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepSummary {
    /// Certified pairwise diameter upper bound (in edges).
    pub diameter: u64,
    /// Whether `DU == DL` was reached.
    pub exact: bool,
    /// Pivots spent.
    pub sweeps: u32,
}

/// Iterative Tarjan SCC over the forward edges. Components are numbered in
/// emission order, which is reverse-topological: every condensation edge
/// `c → d` has `d < c`.
fn tarjan(g: &StateGraph) -> (Vec<u32>, u32) {
    const UNSET: u32 = u32::MAX;
    let nv = g.num_states();
    let mut index = vec![UNSET; nv];
    let mut lowlink = vec![0u32; nv];
    let mut on_stack = vec![false; nv];
    let mut comp_of = vec![UNSET; nv];
    let mut stack: Vec<u32> = Vec::new();
    let mut frames: Vec<(u32, usize)> = Vec::new();
    let mut next_index = 0u32;
    let mut ncomps = 0u32;

    for root in 0..nv as u32 {
        if index[root as usize] != UNSET {
            continue;
        }
        frames.push((root, 0));
        while let Some(&(v, pos)) = frames.last() {
            let vi = v as usize;
            if pos == 0 {
                index[vi] = next_index;
                lowlink[vi] = next_index;
                next_index += 1;
                stack.push(v);
                on_stack[vi] = true;
            }
            let succs = g.succs(v);
            let mut pos = pos;
            let mut descended = false;
            while pos < succs.len() {
                let w = succs[pos];
                pos += 1;
                let wi = w as usize;
                if index[wi] == UNSET {
                    frames.last_mut().unwrap().1 = pos;
                    frames.push((w, 0));
                    descended = true;
                    break;
                } else if on_stack[wi] {
                    lowlink[vi] = lowlink[vi].min(index[wi]);
                }
            }
            if descended {
                continue;
            }
            frames.pop();
            if let Some(&(p, _)) = frames.last() {
                let pi = p as usize;
                lowlink[pi] = lowlink[pi].min(lowlink[vi]);
            }
            if lowlink[vi] == index[vi] {
                loop {
                    let w = stack.pop().unwrap();
                    on_stack[w as usize] = false;
                    comp_of[w as usize] = ncomps;
                    if w == v {
                        break;
                    }
                }
                ncomps += 1;
            }
        }
    }
    (comp_of, ncomps)
}

/// Runs SumSweep bound propagation over `g` and returns a certified
/// diameter upper bound (see the module docs for the invariants).
pub fn sum_sweep(g: &StateGraph, max_sweeps: usize) -> SweepSummary {
    let nv = g.num_states();
    if nv <= 1 {
        return SweepSummary {
            diameter: 0,
            exact: true,
            sweeps: 0,
        };
    }

    // SCC condensation + DAG DP seed: U(C) = (|C| − 1) + max over
    // condensation successors D of (1 + U(D)). Reverse-topological
    // numbering makes a single ascending pass well-founded.
    let (comp_of, ncomps) = tarjan(g);
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); ncomps as usize];
    for v in 0..nv as u32 {
        members[comp_of[v as usize] as usize].push(v);
    }
    let mut u_comp = vec![0u64; ncomps as usize];
    for c in 0..ncomps as usize {
        let mut best = 0u64;
        for &v in &members[c] {
            for &w in g.succs(v) {
                let d = comp_of[w as usize] as usize;
                if d != c {
                    best = best.max(1 + u_comp[d]);
                }
            }
        }
        u_comp[c] = (members[c].len() as u64 - 1) + best;
    }

    let mut uf: Vec<u64> = (0..nv).map(|v| u_comp[comp_of[v] as usize]).collect();
    let mut lf = vec![0u64; nv];
    let mut confirmed = vec![false; nv];
    let mut dl = 0u64;
    let mut du = uf.iter().copied().max().unwrap();
    let mut sweeps = 0u32;

    while du > dl && (sweeps as usize) < max_sweeps {
        // Pivot: the unconfirmed vertex with the loosest upper bound,
        // smallest id on ties (determinism).
        let mut pivot: Option<usize> = None;
        for v in 0..nv {
            if !confirmed[v] && pivot.is_none_or(|p| uf[v] > uf[p]) {
                pivot = Some(v);
            }
        }
        let Some(w) = pivot else { break };

        // Forward BFS: the pivot's exact forward eccentricity is a
        // diameter lower bound and pins U(w) = L(w).
        let fwd = bfs_graph(&g.forward(), [w as u32]);
        let ecc_w = fwd.num_levels() as u64 - 1;
        uf[w] = ecc_w;
        lf[w] = ecc_w;
        confirmed[w] = true;
        dl = dl.max(ecc_w);

        // Backward BFS: every v at distance d(v,w) = ℓ gains the lower
        // bound ℓ. The triangle upper bound ℓ + ecc(w) is only sound when
        // reach(v) ⊆ reach(w), which together with v → w means v and w
        // share an SCC (see the module docs); confirmed vertices are
        // already exact and must never be lowered.
        let wc = comp_of[w];
        let bwd = bfs_graph(&g.backward(), [w as u32]);
        for l in 0..bwd.num_levels() {
            let level = &bwd.order[bwd.level_starts[l] as usize..bwd.level_starts[l + 1] as usize];
            let dist = l as u64;
            for &v in level {
                let vi = v as usize;
                if dist > lf[vi] {
                    lf[vi] = dist;
                }
                if comp_of[vi] == wc && !confirmed[vi] {
                    let ub = dist + ecc_w;
                    if ub < uf[vi] {
                        uf[vi] = ub;
                    }
                }
            }
        }
        dl = dl.max(bwd.num_levels() as u64 - 1);

        // Cross-SCC relaxation: ecc(v) ≤ 1 + max over successors s of
        // ecc(s) (any shortest path from v leaves through some successor),
        // so 1 + max U(s) is a sound upper bound whenever every U is.
        // Ascending SCC order is reverse-topological — condensation
        // successors relax first — so one pass carries a confirmed pivot's
        // exact eccentricity through every acyclic stretch behind it.
        for comp in &members {
            for &v in comp {
                let vi = v as usize;
                if confirmed[vi] {
                    continue;
                }
                let mut best: Option<u64> = None;
                for &s in g.succs(v) {
                    let u = uf[s as usize];
                    best = Some(best.map_or(u, |b| b.max(u)));
                }
                if let Some(b) = best {
                    let ub = 1 + b;
                    if ub < uf[vi] {
                        uf[vi] = ub;
                    }
                }
            }
        }
        du = uf.iter().copied().max().unwrap();
        sweeps += 1;
    }

    SweepSummary {
        diameter: du,
        exact: du == dl,
        sweeps,
    }
}

/// Edge-visit budget of [`check_certificate`]'s all-sources BFS.
const CHECK_BUDGET: u64 = 1 << 22;

/// Release-mode certificate check: on graphs whose all-sources BFS costs at
/// most [`CHECK_BUDGET`] edge visits (`states × (states + edges)`),
/// recomputes the true pairwise diameter with a plain queue BFS from every
/// state — independent of the `visit` engine the sweeps run on — and
/// panics if the certificate undercuts it, or claims `exact` without
/// matching it. A wrong certificate is a false proof; the panic reaches the
/// crash hook instead.
fn check_certificate(g: &StateGraph, s: &SweepSummary) {
    let nv = g.num_states() as u64;
    if nv * (nv + g.num_edges() as u64) > CHECK_BUDGET {
        return;
    }
    let mut dist = vec![u32::MAX; g.num_states()];
    let mut queue: Vec<u32> = Vec::with_capacity(g.num_states());
    let mut truth = 0u64;
    for src in 0..nv as u32 {
        dist.fill(u32::MAX);
        dist[src as usize] = 0;
        queue.clear();
        queue.push(src);
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            for &w in g.succs(v) {
                if dist[w as usize] == u32::MAX {
                    dist[w as usize] = dist[v as usize] + 1;
                    truth = truth.max(u64::from(dist[w as usize]));
                    queue.push(w);
                }
            }
        }
    }
    assert!(
        s.diameter >= truth,
        "ecc certificate {} is below the true diameter {truth}",
        s.diameter
    );
    assert!(
        !s.exact || s.diameter == truth,
        "exact ecc certificate {} differs from the true diameter {truth}",
        s.diameter
    );
}

/// A no-op: certificates are memoized per bounding pass and die with it.
/// Kept for callers that cleared the process-wide cache this replaced.
pub fn cache_clear() {}

/// The sweep budget of [`component_cert`]; exhausting it keeps the last
/// certified bound.
pub const MAX_SWEEPS: usize = 16;

/// Computes the certified diameter bound for the component `comp` of `n`.
/// Returns `None` when the engine is disabled, the component exceeds the
/// cutoff or the free-signal limit ([`StateGraphLimits`]'s default), or
/// enumeration blows the budget — in all cases the caller keeps the blanket
/// `2^|regs|`. The bounding pass memoizes the result per component.
pub fn component_cert(n: &Netlist, comp: &[Gate], opts: &EccOptions) -> Option<EccCert> {
    if !opts.enabled {
        return None;
    }
    let limits = StateGraphLimits {
        max_regs: opts.cutoff,
        ..StateGraphLimits::default()
    };
    StateGraph::build(n, comp, &limits).map(|g| {
        let mut span = diam_obs::span!("ecc.sweep", states = g.num_states() as u64,);
        let s = sum_sweep(&g, MAX_SWEEPS);
        check_certificate(&g, &s);
        let blanket = 1u64 << g.regs().len().min(63);
        let factor = (s.diameter + 1).min(blanket);
        span.record("sweeps", s.sweeps as u64);
        span.record("bound", factor);
        span.record("exact", s.exact as u64);
        EccCert {
            factor,
            diameter: s.diameter,
            exact: s.exact,
            states: g.num_states() as u64,
            sweeps: s.sweeps,
        }
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::classify::Classifier;
    use crate::structural::StructuralOptions;
    use diam_netlist::sim::SplitMix64;
    use diam_netlist::Init;
    use diam_obs::{Metric, ObsConfig, ObsMode, RunManifest, Session};
    use proptest::prelude::*;

    /// `len`-stage one-hot token ring with one target per stage: exactly
    /// `len` reachable states on a directed cycle, diameter `len − 1`, and
    /// every target's cone is the whole ring.
    fn ring(len: usize) -> Netlist {
        let mut n = Netlist::new();
        let regs: Vec<Gate> = (0..len)
            .map(|k| n.reg(format!("t{k}"), if k == 0 { Init::One } else { Init::Zero }))
            .collect();
        for k in 0..len {
            n.set_next(regs[k], regs[(k + len - 1) % len].lit());
            n.add_target(regs[k].lit(), format!("t{k}"));
        }
        n
    }

    /// Runs `f` under a recording session and returns the memo counters it
    /// bumped: `(ecc.cache_miss, ecc.cache_hit)`. Sessions are exclusive,
    /// and every test of this crate that bounds with the engine on runs
    /// under this function, so no other test's lookups land in the counts.
    pub(crate) fn memo_counts(f: impl FnOnce()) -> (u64, u64) {
        let config = ObsConfig {
            mode: ObsMode::Summary,
            ..ObsConfig::default()
        };
        let session = Session::install(config, RunManifest::capture("test-memo"));
        f();
        let metrics = session.finish().metrics;
        let count = |name| match metrics.get(name) {
            Some(Metric::Counter(v)) => *v,
            _ => 0,
        };
        (count("ecc.cache_miss"), count("ecc.cache_hit"))
    }

    /// Structural options with the engine on.
    fn ecc_on() -> StructuralOptions {
        StructuralOptions {
            ecc: EccOptions::on(),
            ..StructuralOptions::default()
        }
    }

    #[test]
    fn pure_cycle_diameter_is_exact() {
        let n = ring(8);
        let g = StateGraph::build(&n, n.regs(), &StateGraphLimits::default()).unwrap();
        assert_eq!(g.num_states(), 8);
        let s = sum_sweep(&g, 16);
        assert_eq!(s.diameter, 7);
        assert!(s.exact);
    }

    #[test]
    fn budget_exhaustion_still_certifies() {
        let n = ring(8);
        let g = StateGraph::build(&n, n.regs(), &StateGraphLimits::default()).unwrap();
        // Zero sweeps: the DAG DP alone must certify. One 8-vertex SCC
        // gives U = 7, which here happens to be exact.
        let s = sum_sweep(&g, 0);
        assert_eq!(s.sweeps, 0);
        assert!(s.diameter >= 7);
        assert!(s.diameter <= 7, "DP bound is |C|−1 on a single cycle SCC");
    }

    /// Exhaustive reference: the true pairwise diameter by one forward BFS
    /// per vertex.
    fn exact_diameter(g: &StateGraph) -> u64 {
        let mut best = 0u64;
        for src in 0..g.num_states() as u32 {
            let r = bfs_graph(&g.forward(), [src]);
            best = best.max(r.num_levels() as u64 - 1);
        }
        best
    }

    /// REVIEW.md soundness regression: a branch vertex (0) that can enter
    /// either a free-running region (the 10-clique 1..=10, true
    /// eccentricity 1, DP seed 9) or a countdown chain (11 → 12 → 13).
    /// The graph is not strongly connected, and the old unrestricted
    /// triangle update let a clique pivot's backward BFS cut the branch
    /// vertex's upper bound to d(0, pivot) + ecc(pivot) = 2 — below its
    /// true eccentricity 3 and below the already-confirmed exact value —
    /// certifying diameter 2 for a diameter-3 graph.
    fn branch_into_clique_and_chain() -> StateGraph {
        let mut edges: Vec<(u32, u32)> = vec![(0, 1), (0, 11), (11, 12), (12, 13)];
        for a in 1..=10u32 {
            for b in 1..=10u32 {
                if a != b {
                    edges.push((a, b));
                }
            }
        }
        StateGraph::from_edges(14, &edges)
    }

    #[test]
    fn branch_into_clique_and_chain_stays_sound() {
        let g = branch_into_clique_and_chain();
        let truth = exact_diameter(&g);
        assert_eq!(truth, 3, "0 → 11 → 12 → 13 is the longest shortest path");
        for budget in 0..=16 {
            let s = sum_sweep(&g, budget);
            assert!(
                s.diameter >= truth,
                "budget {budget}: certified {} below true diameter {truth}",
                s.diameter
            );
            if s.exact {
                assert_eq!(s.diameter, truth, "budget {budget}: exact but wrong");
            }
        }
        let s = sum_sweep(&g, 16);
        assert_eq!(s.diameter, truth);
        assert!(s.exact, "full budget converges on the 14-state graph");
    }

    /// A random SCC DAG built from the shapes that break sweep updates:
    /// one to four blocks joined in a line by single bridges, each block a
    /// branch vertex feeding a clique and a chain, a cycle SCC, or a clique
    /// SCC, with self-loops sprinkled over every vertex. Each bridge leaves
    /// a random vertex of the previous block and enters the next block at
    /// its entry vertex.
    fn scc_dag(seed: u64) -> StateGraph {
        let mut rng = SplitMix64::new(seed);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut nv = 0u32;
        let mut prev: Option<std::ops::Range<u32>> = None;
        for _ in 0..1 + rng.below(4) {
            let first = nv;
            let entry = match rng.below(3) {
                0 => {
                    let clique = 2 + rng.below(7) as u32;
                    let chain = 1 + rng.below(6) as u32;
                    let branch = first;
                    let (c0, h0) = (first + 1, first + 1 + clique);
                    complete(&mut edges, c0..h0);
                    edges.push((branch, c0));
                    edges.push((branch, h0));
                    edges.extend((h0..h0 + chain - 1).map(|v| (v, v + 1)));
                    nv = h0 + chain;
                    branch
                }
                1 => {
                    let len = 1 + rng.below(7) as u32;
                    nv = first + len;
                    if len > 1 {
                        edges.extend((first..nv).map(|v| (v, first + (v - first + 1) % len)));
                    }
                    first + rng.below(u64::from(len)) as u32
                }
                _ => {
                    let size = 1 + rng.below(6) as u32;
                    nv = first + size;
                    complete(&mut edges, first..nv);
                    first + rng.below(u64::from(size)) as u32
                }
            };
            if let Some(p) = prev {
                let exit = p.start + rng.below(u64::from(p.end - p.start)) as u32;
                edges.push((exit, entry));
            }
            prev = Some(first..nv);
        }
        for v in 0..nv {
            if rng.below(4) == 0 {
                edges.push((v, v));
            }
        }
        StateGraph::from_edges(nv as usize, &edges)
    }

    /// Adds the edges of the complete digraph on `vs` (a clique SCC).
    fn complete(edges: &mut Vec<(u32, u32)>, vs: std::ops::Range<u32>) {
        for a in vs.clone() {
            edges.extend(vs.clone().filter(|&b| b != a).map(|b| (a, b)));
        }
    }

    proptest! {
        /// On every generated SCC DAG and at every sweep budget, the
        /// certified diameter covers the true one, and an `exact`
        /// certificate equals it.
        #[test]
        fn scc_dag_shapes_stay_sound(seed in any::<u64>()) {
            let g = scc_dag(seed);
            let truth = exact_diameter(&g);
            for budget in 0..=16 {
                let s = sum_sweep(&g, budget);
                prop_assert!(
                    s.diameter >= truth,
                    "seed {seed}, budget {budget}: certified {} below true diameter {truth}",
                    s.diameter
                );
                if s.exact {
                    prop_assert_eq!(
                        s.diameter,
                        truth,
                        "seed {seed}, budget {budget}: exact but wrong"
                    );
                }
            }
        }
    }

    /// The release certificate check accepts the branch graph's certificate
    /// and rejects the same certificate lowered by one.
    #[test]
    fn certificate_check_rejects_an_undercut() {
        let g = branch_into_clique_and_chain();
        let s = sum_sweep(&g, 16);
        check_certificate(&g, &s);
        let lowered = SweepSummary {
            diameter: s.diameter - 1,
            ..s
        };
        let err = std::panic::catch_unwind(|| check_certificate(&g, &lowered))
            .expect_err("a lowered certificate must panic");
        let msg = err
            .downcast_ref::<String>()
            .expect("formatted panic message");
        assert!(msg.contains("below the true diameter 3"), "{msg}");
    }

    /// Concurrent jobs of one bounding pass enumerate a shared component
    /// once: eight threads bound eight targets whose cones are one ring;
    /// one computes the certificate, and the other seven wait for it or
    /// recall it, each counting a hit.
    #[test]
    fn concurrent_probes_enumerate_once() {
        let n = ring(8);
        let cx = Classifier::new(&n, &ecc_on());
        let barrier = std::sync::Barrier::new(n.targets().len());
        let (misses, hits) = memo_counts(|| {
            std::thread::scope(|s| {
                let handles: Vec<_> = n
                    .targets()
                    .iter()
                    .map(|t| {
                        s.spawn(|| {
                            barrier.wait();
                            cx.diameter_bound(t.lit).bound
                        })
                    })
                    .collect();
                for h in handles {
                    assert_eq!(h.join().unwrap(), crate::Bound::Finite(8));
                }
            });
        });
        assert_eq!((misses, hits), (1, 7));
    }

    /// The memo lives and dies with its pass: two passes over one netlist
    /// each enumerate the ring, and neither recalls the other's certificate.
    #[test]
    fn each_pass_enumerates_its_own_components() {
        let n = ring(6);
        let (misses, hits) = memo_counts(|| {
            for t in &n.targets()[..2] {
                let cx = Classifier::new(&n, &ecc_on());
                assert_eq!(cx.diameter_bound(t.lit).bound, crate::Bound::Finite(6));
            }
        });
        assert_eq!((misses, hits), (2, 0));
    }

    #[test]
    fn component_cert_respects_cutoff() {
        let n = ring(6);
        let opts = EccOptions::on();
        let cert = component_cert(&n, n.regs(), &opts).unwrap();
        assert_eq!(cert.factor, 6);
        assert_eq!(cert.diameter, 5);
        assert!(cert.exact);
        assert_eq!(cert.states, 6);
        let tight = EccOptions {
            cutoff: 4,
            ..EccOptions::on()
        };
        assert!(component_cert(&n, n.regs(), &tight).is_none());
        assert!(component_cert(&n, n.regs(), &EccOptions::default()).is_none());
    }

    #[test]
    fn options_parse_and_render_round_trip() {
        assert_eq!(EccOptions::parse("on").unwrap(), EccOptions::on());
        assert_eq!(EccOptions::parse("off").unwrap(), EccOptions::default());
        let k8 = EccOptions::parse("k=8").unwrap();
        assert!(k8.enabled);
        assert_eq!(k8.cutoff, 8);
        assert_eq!(k8.render(), "k=8");
        assert_eq!(EccOptions::parse(&k8.render()).unwrap(), k8);
        assert_eq!(EccOptions::on().render(), "on");
        assert_eq!(EccOptions::default().render(), "off");
        // The free-signal cap and the sweep budget are no longer options.
        for bad in [
            "k=zero",
            "k=0",
            "maybe",
            "k=8,wat=3",
            "mf=12",
            "ms=2",
            "on,ms=2",
            "k=8,mf=6,ms=4",
        ] {
            let err = EccOptions::parse(bad).expect_err(bad);
            assert!(err.starts_with("invalid --ecc value"), "{bad}: {err}");
        }
    }
}
