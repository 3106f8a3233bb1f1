//! The unified parallel visit layer: every reachability traversal in the
//! workspace — cone of influence, combinational supports, rebuild cone
//! marking, BMC cone slicing — runs through this one engine over the cached
//! [`Csr`].
//!
//! The engine is a level-synchronous frontier BFS in the webgraph-algo
//! `bfv` + atomic-bitvec style: each level's frontier is expanded by
//! claiming unvisited neighbors with an atomic `fetch_or` bit-set, and the
//! merged next frontier is sorted ascending before the next level starts.
//! Because a node's BFS level is claim-order-independent (the frontier at
//! level *l* is exactly the distance-*l* set) and each level is canonically
//! sorted, **the visit order is bit-identical for every parallelism
//! setting** — `Sequential`, `Threads(2)`, `Threads(8)` and `Auto` all
//! produce the same [`Visit`]. Small frontiers are expanded inline; only
//! levels wider than [`PAR_LEVEL_THRESHOLD`] fan out over
//! [`diam_par::run`], so shallow or narrow cones never pay thread overhead.
//!
//! Observability: each BFS opens a `visit.bfs` span, records the live
//! frontier width on the `visit.frontier` gauge, and counts claimed nodes
//! on the `visit.visited` counter, so `diam-trace report` attributes
//! traversal time per phase.

use crate::csr::{Csr, Marks, NodeKind};
use diam_par::Parallelism;
use std::sync::atomic::{AtomicU64, Ordering};

/// BFS level width at which a level is expanded in parallel instead of
/// inline. Below this, thread fan-out costs more than the expansion.
pub const PAR_LEVEL_THRESHOLD: usize = 4096;

/// Traversal direction over the [`Csr`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Follow fanin edges (towards sources) — cone-of-influence style.
    Fanin,
    /// Follow fanout edges (towards sinks) — constant-propagation style.
    Fanout,
}

/// Which nodes the traversal expands *through*.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expand {
    /// Expand every visited node (sequential reachability: registers'
    /// next-state and `Init::Fn` cones are traversed).
    All,
    /// Expand only AND nodes: registers and inputs are cone leaves, giving
    /// combinational-support semantics.
    Combinational,
}

/// The result of a BFS: the visited set both as a canonical order and as a
/// dense bitvec.
#[derive(Debug, Clone)]
pub struct Visit {
    /// Visited node indices, level by level, ascending within each level.
    /// This order is identical across all [`Parallelism`] settings.
    pub order: Vec<u32>,
    /// `order[level_starts[l] as usize..level_starts[l + 1] as usize]` is
    /// BFS level `l` (distance `l` from the root set).
    pub level_starts: Vec<u32>,
    marks: Marks,
}

impl Visit {
    /// Membership bitvec of the visited set.
    #[inline]
    pub fn marks(&self) -> &Marks {
        &self.marks
    }

    /// Consumes the visit, keeping only the membership bitvec.
    #[inline]
    pub fn into_marks(self) -> Marks {
        self.marks
    }

    /// Whether node `v` was visited.
    #[inline]
    pub fn contains(&self, v: u32) -> bool {
        self.marks.get(v as usize)
    }

    /// Number of BFS levels (0 for an empty root set).
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.level_starts.len().saturating_sub(1)
    }
}

/// Shared atomic claim set: the bit-parallel "visited" array workers race
/// on. A claim is an idempotent `fetch_or`; exactly one claimant wins each
/// bit, so every frontier node is produced exactly once per level.
struct AtomicMarks {
    words: Vec<AtomicU64>,
    len: usize,
}

impl AtomicMarks {
    fn new(len: usize) -> AtomicMarks {
        let mut words = Vec::with_capacity(len.div_ceil(64));
        words.resize_with(len.div_ceil(64), || AtomicU64::new(0));
        AtomicMarks { words, len }
    }

    /// Claims bit `i`; returns `true` for the unique winning claimant.
    /// Relaxed ordering suffices: membership is the only payload, and level
    /// barriers (the executor's join) order cross-level reads.
    #[inline]
    fn claim(&self, i: u32) -> bool {
        let w = &self.words[(i >> 6) as usize];
        let bit = 1u64 << (i & 63);
        if w.load(Ordering::Relaxed) & bit != 0 {
            return false;
        }
        w.fetch_or(bit, Ordering::Relaxed) & bit == 0
    }

    fn into_marks(self) -> Marks {
        let len = self.len;
        Marks::from_words(
            self.words.into_iter().map(AtomicU64::into_inner).collect(),
            len,
        )
    }
}

#[inline]
fn expands(csr: &Csr, expand: Expand, v: u32) -> bool {
    match expand {
        Expand::All => true,
        Expand::Combinational => csr.kind(v) == NodeKind::And,
    }
}

/// Adjacency abstraction for [`bfs_graph`]: any graph with dense `u32` node
/// ids and slice-backed successor lists runs on the level-synchronous
/// parallel engine. The netlist [`Csr`] (via [`bfs`]) and the eccentricity
/// engine's explicit state graphs are both instances.
pub trait Neighbors: Sync {
    /// Number of nodes; valid ids are `0..num_nodes`.
    fn num_nodes(&self) -> usize;
    /// Successors of `v` under this traversal. A node the traversal should
    /// not expand through simply returns an empty slice.
    fn neighbors(&self, v: u32) -> &[u32];
}

/// [`Csr`] + traversal policy as a [`Neighbors`] instance: direction picks
/// the edge set, and non-expanding nodes (per [`Expand`]) present as sinks.
struct CsrView<'a> {
    csr: &'a Csr,
    dir: Dir,
    expand: Expand,
}

impl Neighbors for CsrView<'_> {
    #[inline]
    fn num_nodes(&self) -> usize {
        self.csr.num_nodes()
    }

    #[inline]
    fn neighbors(&self, v: u32) -> &[u32] {
        if !expands(self.csr, self.expand, v) {
            return &[];
        }
        match self.dir {
            Dir::Fanin => self.csr.fanins(v),
            Dir::Fanout => self.csr.fanouts(v),
        }
    }
}

/// Level-synchronous BFS over `csr` from `roots`.
///
/// Roots out of range are rejected with a panic (they indicate a stale CSR).
/// Duplicated roots are visited once. See the module docs for the
/// determinism argument; `tests/csr_equiv.rs` enforces bit-identity across
/// `Sequential`/`Threads(2)`/`Threads(8)`.
pub fn bfs(
    csr: &Csr,
    dir: Dir,
    expand: Expand,
    roots: impl IntoIterator<Item = u32>,
    par: Parallelism,
) -> Visit {
    let label = match dir {
        Dir::Fanin => "fanin",
        Dir::Fanout => "fanout",
    };
    bfs_impl(&CsrView { csr, dir, expand }, label, roots, par)
}

/// Level-synchronous BFS over any [`Neighbors`] graph from `roots` — the
/// same engine as [`bfs`], including the bit-identity guarantee across
/// parallelism settings and the `visit.bfs` span (with `dir = "graph"`).
pub fn bfs_graph<G: Neighbors>(
    g: &G,
    roots: impl IntoIterator<Item = u32>,
    par: Parallelism,
) -> Visit {
    bfs_impl(g, "graph", roots, par)
}

fn bfs_impl<G: Neighbors>(
    g: &G,
    dir: &str,
    roots: impl IntoIterator<Item = u32>,
    par: Parallelism,
) -> Visit {
    let marks = AtomicMarks::new(g.num_nodes());
    let mut frontier: Vec<u32> = roots
        .into_iter()
        .inspect(|&v| {
            assert!(
                (v as usize) < g.num_nodes(),
                "bfs root {v} out of range for graph of {} nodes",
                g.num_nodes()
            );
        })
        .filter(|&v| marks.claim(v))
        .collect();
    frontier.sort_unstable();

    let span = diam_obs::span!("visit.bfs", dir = dir, roots = frontier.len() as u64,);

    let mut order: Vec<u32> = Vec::with_capacity(frontier.len() * 2);
    let mut level_starts: Vec<u32> = vec![0];
    let workers = par.workers();
    let obs = diam_obs::enabled();

    while !frontier.is_empty() {
        if obs {
            diam_obs::gauge_set("visit.frontier", frontier.len() as i64);
            diam_obs::counter_add("visit.visited", frontier.len() as u64);
        }
        order.extend_from_slice(&frontier);
        level_starts.push(order.len() as u32);

        let mut next: Vec<u32> = if workers > 1 && frontier.len() >= PAR_LEVEL_THRESHOLD {
            // Wide level: fan the frontier out in contiguous chunks. Chunk
            // attribution of a claim is racy, but the claimed *set* is not,
            // and the sort below canonicalizes the order.
            let chunk = frontier.len().div_ceil(workers);
            let chunks: Vec<&[u32]> = frontier.chunks(chunk).collect();
            let outs: Vec<Vec<u32>> = diam_par::run(
                par,
                chunks,
                |c| c.len() as u64,
                |_, c, _| {
                    let mut out = Vec::new();
                    for &v in c {
                        for &w in g.neighbors(v) {
                            if marks.claim(w) {
                                out.push(w);
                            }
                        }
                    }
                    out
                },
            );
            outs.concat()
        } else {
            let mut out = Vec::new();
            for &v in &frontier {
                for &w in g.neighbors(v) {
                    if marks.claim(w) {
                        out.push(w);
                    }
                }
            }
            out
        };
        next.sort_unstable();
        frontier = next;
    }

    diam_obs::event!(
        "visit.bfs.done",
        visited = order.len() as u64,
        levels = level_starts.len().saturating_sub(1) as u64,
    );
    drop(span);

    Visit {
        order,
        level_starts,
        marks: marks.into_marks(),
    }
}

/// Depth-first reachability marking under a caller-supplied successor
/// relation — the DFS side of the visit layer, for traversals that do not
/// follow raw CSR edges (e.g. [`rebuild`](crate::rebuild) walks
/// representative-*resolved* edges). `successors(v, stack)` pushes the
/// successors of `v` onto `stack`; already-marked nodes are skipped.
pub fn mark_reachable<F>(
    num_nodes: usize,
    roots: impl IntoIterator<Item = u32>,
    mut successors: F,
) -> Marks
where
    F: FnMut(u32, &mut Vec<u32>),
{
    let mut marks = Marks::new(num_nodes);
    let mut stack: Vec<u32> = roots.into_iter().collect();
    while let Some(v) = stack.pop() {
        if !marks.set(v as usize) {
            continue;
        }
        successors(v, &mut stack);
    }
    marks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Init, Netlist};

    fn diamond() -> Netlist {
        // i -> x, y; x,y -> z; r latches z.
        let mut n = Netlist::new();
        let i = n.input("i").lit();
        let j = n.input("j").lit();
        let x = n.and(i, j);
        let y = n.and(i, !j);
        let z = n.or(x, y);
        let r = n.reg("r", Init::Zero);
        n.set_next(r, z);
        n.add_target(r.lit(), "t");
        n
    }

    #[test]
    fn bfs_levels_are_distances() {
        let n = diamond();
        let csr = n.csr();
        let r = n.regs()[0].index() as u32;
        let v = bfs(csr, Dir::Fanin, Expand::All, [r], Parallelism::Sequential);
        assert!(v.contains(r));
        assert_eq!(v.order[0], r, "level 0 is the root");
        assert_eq!(v.level_starts[0], 0);
        assert_eq!(v.level_starts[1], 1);
        // Every gate in the cone is reached.
        assert_eq!(v.marks().count(), n.num_gates() - 1); // all but Const0
    }

    #[test]
    fn combinational_expand_stops_at_registers() {
        let mut n = Netlist::new();
        let i = n.input("i").lit();
        let r = n.reg("r", Init::Zero);
        n.set_next(r, i);
        let x = n.and(r.lit(), i);
        let csr = n.csr();
        let v = bfs(
            csr,
            Dir::Fanin,
            Expand::Combinational,
            [x.gate().index() as u32],
            Parallelism::Sequential,
        );
        assert!(v.contains(r.index() as u32), "register leaf is visited");
        // But the register was not expanded: i is reached only through the
        // AND, and nothing beyond leaves exists here.
        assert_eq!(v.marks().count(), 3);
    }

    #[test]
    fn parallel_and_sequential_orders_are_identical() {
        let n = diamond();
        let csr = n.csr();
        let root = n.targets()[0].lit.gate().index() as u32;
        let seq = bfs(
            csr,
            Dir::Fanin,
            Expand::All,
            [root],
            Parallelism::Sequential,
        );
        for par in [Parallelism::Threads(2), Parallelism::Threads(8)] {
            let p = bfs(csr, Dir::Fanin, Expand::All, [root], par);
            assert_eq!(seq.order, p.order);
            assert_eq!(seq.level_starts, p.level_starts);
            assert_eq!(seq.marks(), p.marks());
        }
    }

    #[test]
    fn fanout_direction_reaches_consumers() {
        let n = diamond();
        let csr = n.csr();
        let i = n.inputs()[0].index() as u32;
        let v = bfs(csr, Dir::Fanout, Expand::All, [i], Parallelism::Sequential);
        let r = n.regs()[0].index() as u32;
        assert!(v.contains(r), "input's forward cone reaches the register");
    }

    struct VecGraph {
        succ: Vec<Vec<u32>>,
    }

    impl Neighbors for VecGraph {
        fn num_nodes(&self) -> usize {
            self.succ.len()
        }
        fn neighbors(&self, v: u32) -> &[u32] {
            &self.succ[v as usize]
        }
    }

    #[test]
    fn bfs_graph_levels_match_distances_and_parallelism() {
        // A 6-cycle with a chord: distances from 0 are 0,1,2,3,2,1.
        let g = VecGraph {
            succ: vec![vec![1, 5], vec![2], vec![3], vec![4], vec![5], vec![0, 4]],
        };
        let seq = bfs_graph(&g, [0u32], Parallelism::Sequential);
        assert_eq!(seq.order, vec![0, 1, 5, 2, 4, 3]);
        assert_eq!(seq.level_starts, vec![0, 1, 3, 5, 6]);
        assert_eq!(seq.num_levels(), 4);
        for par in [Parallelism::Threads(2), Parallelism::Threads(8)] {
            let p = bfs_graph(&g, [0u32], par);
            assert_eq!(seq.order, p.order);
            assert_eq!(seq.level_starts, p.level_starts);
            assert_eq!(seq.marks(), p.marks());
        }
    }

    #[test]
    fn mark_reachable_follows_custom_edges() {
        // 0 -> 1 -> 2, but the closure redirects 1 to 3.
        let m = mark_reachable(4, [0u32], |v, stack| {
            if v == 0 {
                stack.push(1);
            } else if v == 1 {
                stack.push(3);
            }
        });
        assert!(m.get(0) && m.get(1) && m.get(3) && !m.get(2));
    }
}
