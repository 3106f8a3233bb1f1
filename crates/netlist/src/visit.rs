//! The unified visit layer: every reachability traversal in the workspace —
//! cone of influence, combinational supports, rebuild cone marking, BMC cone
//! slicing — runs through this one engine over the cached [`Csr`].
//!
//! The engine is a level-synchronous frontier BFS: each level's frontier is
//! expanded by claiming unvisited neighbors in a dense bitvec, and the next
//! frontier is sorted ascending before the next level starts, so the visit
//! order is canonical — level by level, ascending within each level.
//!
//! Observability: each BFS opens a `visit.bfs` span, records the live
//! frontier width on the `visit.frontier` gauge, and counts claimed nodes
//! on the `visit.visited` counter, so `diam-trace report` attributes
//! traversal time per phase.

use crate::csr::{Csr, Marks, NodeKind};

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

#[inline]
fn expands(csr: &Csr, expand: Expand, v: u32) -> bool {
    match expand {
        Expand::All => true,
        Expand::Combinational => csr.kind(v) == NodeKind::And,
    }
}

/// Adjacency abstraction for [`bfs_graph`]: any graph with dense `u32` node
/// ids and slice-backed successor lists runs on the level-synchronous
/// engine. The netlist [`Csr`] (via [`bfs`]) and the eccentricity
/// engine's explicit state graphs are both instances.
pub trait Neighbors {
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
/// Duplicated roots are visited once.
pub fn bfs(csr: &Csr, dir: Dir, expand: Expand, roots: impl IntoIterator<Item = u32>) -> Visit {
    let label = match dir {
        Dir::Fanin => "fanin",
        Dir::Fanout => "fanout",
    };
    bfs_impl(&CsrView { csr, dir, expand }, label, roots)
}

/// Level-synchronous BFS over any [`Neighbors`] graph from `roots` — the
/// same engine as [`bfs`], including the `visit.bfs` span (with
/// `dir = "graph"`).
pub fn bfs_graph<G: Neighbors>(g: &G, roots: impl IntoIterator<Item = u32>) -> Visit {
    bfs_impl(g, "graph", roots)
}

fn bfs_impl<G: Neighbors>(g: &G, dir: &str, roots: impl IntoIterator<Item = u32>) -> Visit {
    let mut marks = Marks::new(g.num_nodes());
    let mut frontier: Vec<u32> = roots
        .into_iter()
        .inspect(|&v| {
            assert!(
                (v as usize) < g.num_nodes(),
                "bfs root {v} out of range for graph of {} nodes",
                g.num_nodes()
            );
        })
        .filter(|&v| marks.set(v as usize))
        .collect();
    frontier.sort_unstable();

    let span = diam_obs::span!("visit.bfs", dir = dir, roots = frontier.len() as u64,);

    let mut order: Vec<u32> = Vec::with_capacity(frontier.len() * 2);
    let mut level_starts: Vec<u32> = vec![0];
    let obs = diam_obs::enabled();

    while !frontier.is_empty() {
        if obs {
            diam_obs::gauge_set("visit.frontier", frontier.len() as i64);
            diam_obs::counter_add("visit.visited", frontier.len() as u64);
        }
        order.extend_from_slice(&frontier);
        level_starts.push(order.len() as u32);

        let mut next = Vec::new();
        for &v in &frontier {
            for &w in g.neighbors(v) {
                if marks.set(w as usize) {
                    next.push(w);
                }
            }
        }
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
        marks,
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
        let v = bfs(csr, Dir::Fanin, Expand::All, [r]);
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
        );
        assert!(v.contains(r.index() as u32), "register leaf is visited");
        // But the register was not expanded: i is reached only through the
        // AND, and nothing beyond leaves exists here.
        assert_eq!(v.marks().count(), 3);
    }

    #[test]
    fn fanout_direction_reaches_consumers() {
        let n = diamond();
        let csr = n.csr();
        let i = n.inputs()[0].index() as u32;
        let v = bfs(csr, Dir::Fanout, Expand::All, [i]);
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
        let seq = bfs_graph(&g, [0u32]);
        assert_eq!(seq.order, vec![0, 1, 5, 2, 4, 3]);
        assert_eq!(seq.level_starts, vec![0, 1, 3, 5, 6]);
        assert_eq!(seq.num_levels(), 4);
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
