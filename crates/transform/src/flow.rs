//! Minimum-cost flow, used to solve the Leiserson–Saxe min-register
//! retiming LP exactly.
//!
//! The retiming LP
//!
//! ```text
//!   minimize   Σ_v c_v · r(v)
//!   subject to r(u) − r(v) ≤ w(e)   for every edge e = (u → v)
//! ```
//!
//! is the dual of a minimum-cost transshipment: find a flow `f ≥ 0` with
//! node imbalance `inflow(v) − outflow(v) = c_v` minimizing `Σ f(e)·w(e)`.
//! The optimal lags are recovered from the node potentials of the optimal
//! flow. This module implements the primal side and exposes valid
//! potentials.
//!
//! # The solver
//!
//! [`MinCostFlow::solve`] is a primal–dual method, one phase per shortest
//! path length. Each phase runs Dijkstra over reduced costs from a super
//! source and raises the node potentials by the distances (nodes beyond the
//! super sink's distance are clamped to it). Every shortest path then
//! consists of *tight* arcs: arcs with capacity left and reduced cost
//! zero. The phase routes a maximum flow over the tight arcs, Dinic-style:
//! BFS levels, then augmenting paths along arcs one level up, searched
//! iteratively so that a path as long as a deep pipeline cannot overflow
//! the stack. Reverse arcs of tight arcs are tight too, so reduced costs
//! stay non-negative. Phases repeat until every supply is routed. A
//! textbook successive-shortest-path loop instead runs one Dijkstra per
//! augmenting path, which on retiming graphs means one per unit of flow.
//!
//! # Why any optimal flow gives the same lags
//!
//! [`crate::retime`] reads only [`MinCostFlow::valid_potentials`]: the
//! greatest non-positive potentials that are feasible on the final residual
//! graph, meaning no residual arc has negative reduced cost. By
//! complementary slackness, potentials are feasible on the residual graph
//! of an optimal flow exactly when they are optimal for the dual LP, and
//! that set does not depend on which optimal flow was found. So its
//! greatest non-positive element, and with it every lag, is the same
//! whichever augmenting paths the solver took.

/// A directed edge handle returned by [`MinCostFlow::add_edge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeId(usize);

#[derive(Debug, Clone)]
struct Arc {
    to: usize,
    cap: i64,
    cost: i64,
}

/// Error returned when the supplies cannot be routed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfeasibleFlowError;

impl std::fmt::Display for InfeasibleFlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "flow supplies cannot be routed")
    }
}

impl std::error::Error for InfeasibleFlowError {}

/// A minimum-cost flow network with non-negative edge costs.
///
/// # Examples
///
/// ```
/// use diam_transform::flow::MinCostFlow;
///
/// let mut net = MinCostFlow::new(3);
/// let cheap = net.add_edge(0, 1, 10, 1);
/// let _expensive = net.add_edge(0, 1, 10, 5);
/// net.add_edge(1, 2, 10, 0);
/// let cost = net.solve(&[4, 0, -4])?;
/// assert_eq!(cost, 4);             // all flow takes the cheap arc
/// assert_eq!(net.flow(cheap), 4);
/// # Ok::<(), diam_transform::flow::InfeasibleFlowError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MinCostFlow {
    num_nodes: usize,
    /// Arcs in pairs: `2k` forward, `2k+1` backward (residual).
    arcs: Vec<Arc>,
    adj: Vec<Vec<usize>>,
    potentials: Vec<i64>,
}

impl MinCostFlow {
    /// Creates a network with `num_nodes` nodes and no edges.
    pub fn new(num_nodes: usize) -> MinCostFlow {
        MinCostFlow {
            num_nodes,
            arcs: Vec::new(),
            adj: vec![Vec::new(); num_nodes],
            potentials: vec![0; num_nodes],
        }
    }

    /// Adds an edge `u → v` with the given capacity and cost.
    ///
    /// # Panics
    ///
    /// Panics if the cost is negative or a node index is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize, cap: i64, cost: i64) -> EdgeId {
        assert!(cost >= 0, "negative edge cost");
        assert!(
            u < self.num_nodes && v < self.num_nodes,
            "node out of range"
        );
        let id = self.arcs.len();
        self.adj[u].push(id);
        self.arcs.push(Arc { to: v, cap, cost });
        self.adj[v].push(id + 1);
        self.arcs.push(Arc {
            to: u,
            cap: 0,
            cost: -cost,
        });
        EdgeId(id)
    }

    /// The flow currently on `e` (meaningful after [`solve`](Self::solve)).
    pub fn flow(&self, e: EdgeId) -> i64 {
        self.arcs[e.0 + 1].cap
    }

    /// Routes the given supplies (`supplies[v] > 0` = source of that many
    /// units, `< 0` = sink) at minimum cost. Returns the total cost.
    ///
    /// # Errors
    ///
    /// Returns [`InfeasibleFlowError`] if the supplies do not balance or
    /// cannot be routed through the network.
    ///
    /// # Panics
    ///
    /// Panics if `supplies.len()` differs from the node count.
    pub fn solve(&mut self, supplies: &[i64]) -> Result<i64, InfeasibleFlowError> {
        let (s, t, need) = self.attach_super(supplies)?;
        let mut total_cost = 0i64;
        let mut routed = 0i64;
        while routed < need {
            if self.tighten(s, t).is_none() {
                self.detach_super(s);
                return Err(InfeasibleFlowError);
            }
            let (flow, cost) = self.route_tight(s, t);
            routed += flow;
            total_cost += cost;
        }
        self.detach_super(s);
        Ok(total_cost)
    }

    /// Checks that the supplies balance, then attaches a super source `s`
    /// feeding every supply and a super sink `t` draining every demand.
    /// Returns `(s, t, total supply)`.
    fn attach_super(
        &mut self,
        supplies: &[i64],
    ) -> Result<(usize, usize, i64), InfeasibleFlowError> {
        assert_eq!(supplies.len(), self.num_nodes, "supply vector width");
        if supplies.iter().sum::<i64>() != 0 {
            return Err(InfeasibleFlowError);
        }
        let s = self.num_nodes;
        let t = self.num_nodes + 1;
        self.adj.push(Vec::new());
        self.adj.push(Vec::new());
        self.potentials = vec![0; self.num_nodes + 2];
        self.num_nodes += 2;
        let mut need = 0i64;
        for (v, &b) in supplies.iter().enumerate() {
            if b > 0 {
                self.add_edge(s, v, b, 0);
                need += b;
            } else if b < 0 {
                self.add_edge(v, t, -b, 0);
            }
        }
        Ok((s, t, need))
    }

    fn detach_super(&mut self, old_nodes: usize) {
        // Leave the super arcs in place (they are saturated or harmless) but
        // restore the public node count and drop super potentials.
        self.num_nodes = old_nodes;
        self.potentials.truncate(old_nodes);
    }

    /// Runs Dijkstra over reduced costs from `s` and raises the potentials
    /// by the distances, so every shortest `s`–`t` path becomes a path of
    /// tight arcs. Returns the distances, or `None` when `t` is unreachable.
    fn tighten(&mut self, s: usize, t: usize) -> Option<Vec<(i64, usize)>> {
        let dist = self.dijkstra(s);
        let dt = dist[t].0;
        if dt == i64::MAX {
            return None;
        }
        // Nodes farther than the sink, or not reached at all, are clamped to
        // the sink distance, which preserves the non-negative reduced-cost
        // invariant (they can only be reached later through arcs created
        // along tight paths).
        for (pot, d) in self.potentials.iter_mut().zip(&dist) {
            *pot += d.0.min(dt);
        }
        Some(dist)
    }

    /// Whether arc `a` out of `u` is *tight*: it has capacity left and
    /// reduced cost zero.
    fn tight(&self, u: usize, a: usize) -> bool {
        let arc = &self.arcs[a];
        arc.cap > 0 && arc.cost + self.potentials[u] - self.potentials[arc.to] == 0
    }

    /// Routes a maximum `s`–`t` flow over the tight arcs, Dinic-style:
    /// BFS levels over the tight arcs, then augmenting paths along arcs that
    /// go one level up, until the tight arcs no longer reach `t`. The
    /// augmenting search is iterative, so a path as long as the network
    /// cannot overflow the stack. Returns `(flow, cost)`.
    fn route_tight(&mut self, s: usize, t: usize) -> (i64, i64) {
        let (mut flow, mut cost) = (0i64, 0i64);
        let mut level = vec![usize::MAX; self.num_nodes];
        let mut next_arc = vec![0usize; self.num_nodes];
        let mut queue = Vec::new();
        // Arcs from `s` to the current node `v`.
        let mut path: Vec<usize> = Vec::new();
        loop {
            level.fill(usize::MAX);
            level[s] = 0;
            queue.clear();
            queue.push(s);
            let mut head = 0;
            while head < queue.len() && level[t] == usize::MAX {
                let v = queue[head];
                head += 1;
                for &a in &self.adj[v] {
                    let to = self.arcs[a].to;
                    if level[to] == usize::MAX && self.tight(v, a) {
                        level[to] = level[v] + 1;
                        queue.push(to);
                    }
                }
            }
            if level[t] == usize::MAX {
                return (flow, cost);
            }
            next_arc.fill(0);
            let mut v = s;
            loop {
                if v == t {
                    let push = path
                        .iter()
                        .map(|&a| self.arcs[a].cap)
                        .min()
                        .expect("an s-t path has arcs");
                    for &a in &path {
                        self.arcs[a].cap -= push;
                        self.arcs[a ^ 1].cap += push;
                        cost += push * self.arcs[a].cost;
                    }
                    flow += push;
                    // Resume from the tail of the first saturated arc.
                    let k = path
                        .iter()
                        .position(|&a| self.arcs[a].cap == 0)
                        .expect("the bottleneck arc is saturated");
                    v = self.arcs[path[k] ^ 1].to;
                    path.truncate(k);
                    continue;
                }
                let mut advanced = false;
                while let Some(&a) = self.adj[v].get(next_arc[v]) {
                    let to = self.arcs[a].to;
                    if level[to] == level[v] + 1 && self.tight(v, a) {
                        path.push(a);
                        v = to;
                        advanced = true;
                        break;
                    }
                    next_arc[v] += 1;
                }
                if !advanced {
                    // Dead end: retreat and skip the arc that led here.
                    let Some(a) = path.pop() else { break };
                    v = self.arcs[a ^ 1].to;
                    next_arc[v] += 1;
                }
            }
        }
    }

    /// Shortest distances by reduced cost; returns `(dist, incoming_arc)`.
    fn dijkstra(&self, s: usize) -> Vec<(i64, usize)> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut dist = vec![(i64::MAX, usize::MAX); self.num_nodes];
        let mut done = vec![false; self.num_nodes];
        let mut heap = BinaryHeap::new();
        dist[s].0 = 0;
        heap.push(Reverse((0i64, s)));
        while let Some(Reverse((d, v))) = heap.pop() {
            if done[v] {
                continue;
            }
            done[v] = true;
            for &a in &self.adj[v] {
                let arc = &self.arcs[a];
                if arc.cap <= 0 {
                    continue;
                }
                let rc = arc.cost + self.potentials[v] - self.potentials[arc.to];
                debug_assert!(rc >= 0, "negative reduced cost");
                let nd = d + rc;
                if nd < dist[arc.to].0 {
                    dist[arc.to] = (nd, a);
                    heap.push(Reverse((nd, arc.to)));
                }
            }
        }
        dist
    }

    /// Node potentials `π` of the optimal flow, valid after a successful
    /// [`solve`](Self::solve): for every residual arc `u → v` with capacity,
    /// `cost(u,v) + π(u) − π(v) ≥ 0`. For the retiming LP the optimal lags
    /// are `r(v) = −π(v)`.
    ///
    /// Computed robustly with Bellman–Ford from a virtual root, so nodes the
    /// Dijkstra passes never reached still receive valid values.
    pub fn valid_potentials(&self) -> Vec<i64> {
        // Queue-based Bellman–Ford (SPFA) over the residual graph; all nodes
        // start at 0 (a virtual root). The optimal flow has no negative
        // residual cycles, so this terminates.
        let mut pot = vec![0i64; self.num_nodes];
        let mut in_queue = vec![true; self.num_nodes];
        let mut queue: std::collections::VecDeque<usize> = (0..self.num_nodes).collect();
        while let Some(u) = queue.pop_front() {
            in_queue[u] = false;
            for &a in &self.adj[u] {
                let arc = &self.arcs[a];
                if arc.cap <= 0 || arc.to >= self.num_nodes {
                    continue;
                }
                if pot[u] + arc.cost < pot[arc.to] {
                    pot[arc.to] = pot[u] + arc.cost;
                    if !in_queue[arc.to] {
                        in_queue[arc.to] = true;
                        queue.push_back(arc.to);
                    }
                }
            }
        }
        pot
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index loops mirror time-steps here
mod tests {
    use super::*;

    impl MinCostFlow {
        /// The loop [`MinCostFlow::solve`] replaced, kept as its reference:
        /// successive shortest paths, one Dijkstra per augmenting path.
        fn solve_one_path_per_dijkstra(
            &mut self,
            supplies: &[i64],
        ) -> Result<i64, InfeasibleFlowError> {
            let (s, t, need) = self.attach_super(supplies)?;
            let mut total_cost = 0i64;
            let mut routed = 0i64;
            while routed < need {
                let Some(dist) = self.tighten(s, t) else {
                    self.detach_super(s);
                    return Err(InfeasibleFlowError);
                };
                // Find bottleneck along the shortest path.
                let mut bottleneck = i64::MAX;
                let mut v = t;
                while v != s {
                    let a = dist[v].1;
                    bottleneck = bottleneck.min(self.arcs[a].cap);
                    v = self.arcs[a ^ 1].to;
                }
                // Apply.
                let mut v = t;
                while v != s {
                    let a = dist[v].1;
                    self.arcs[a].cap -= bottleneck;
                    self.arcs[a ^ 1].cap += bottleneck;
                    total_cost += bottleneck * self.arcs[a].cost;
                    v = self.arcs[a ^ 1].to;
                }
                routed += bottleneck;
            }
            self.detach_super(s);
            Ok(total_cost)
        }
    }

    /// Solves `edges` (`(u, v, cap, cost)`) under `supplies` with both
    /// solvers and asserts the same outcome: the same error, or the same
    /// total cost and the same [`MinCostFlow::valid_potentials`].
    fn assert_matches_reference(
        nodes: usize,
        edges: &[(usize, usize, i64, i64)],
        supplies: &[i64],
    ) {
        let mut net = MinCostFlow::new(nodes);
        for &(u, v, cap, cost) in edges {
            net.add_edge(u, v, cap, cost);
        }
        let mut reference = net.clone();
        let got = net.solve(supplies);
        let want = reference.solve_one_path_per_dijkstra(supplies);
        assert_eq!(got, want, "{edges:?} {supplies:?}");
        if got.is_ok() {
            assert_eq!(
                net.valid_potentials(),
                reference.valid_potentials(),
                "{edges:?} {supplies:?}"
            );
        }
    }

    fn xorshift(mut state: u64) -> impl FnMut(u64) -> u64 {
        move |bound| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        }
    }

    /// Retiming-shaped networks: weight-0 edges of a random DAG plus back
    /// edges of weight ≥ 1, ample capacity and supplies outdeg − indeg, as
    /// `retime` builds them. Any optimal flow gives the same potentials.
    #[test]
    fn retiming_graphs_match_the_one_path_reference() {
        let mut below = xorshift(0x5eed_f10e);
        for _ in 0..300 {
            let nodes = 2 + below(24) as usize;
            let mut edges = Vec::new();
            for _ in 0..below(3 * nodes as u64) {
                let u = below(nodes as u64 - 1) as usize;
                let v = u + 1 + below((nodes - u - 1) as u64) as usize;
                edges.push((u, v, 0));
            }
            for _ in 0..1 + below(nodes as u64) {
                let u = below(nodes as u64) as usize;
                let v = below(u as u64 + 1) as usize;
                edges.push((u, v, 1 + below(3) as i64));
            }
            let mut supplies = vec![0i64; nodes];
            for &(u, v, _) in &edges {
                supplies[u] += 1;
                supplies[v] -= 1;
            }
            let cap = (edges.len() as i64 + 2) * 4;
            let edges: Vec<_> = edges.iter().map(|&(u, v, w)| (u, v, cap, w)).collect();
            assert_matches_reference(nodes, &edges, &supplies);
        }
    }

    /// Small capacities that bind, random costs and random balanced
    /// supplies, feasible or not.
    #[test]
    fn binding_capacities_match_the_one_path_reference() {
        let mut below = xorshift(0xca9_ac17);
        for _ in 0..300 {
            let nodes = 2 + below(12) as usize;
            let edges: Vec<_> = (0..below(4 * nodes as u64))
                .map(|_| {
                    let (u, v) = (below(nodes as u64) as usize, below(nodes as u64) as usize);
                    (u, v, 1 + below(3) as i64, below(5) as i64)
                })
                .collect();
            let mut supplies = vec![0i64; nodes];
            for _ in 0..below(8) {
                let (u, v) = (below(nodes as u64) as usize, below(nodes as u64) as usize);
                supplies[u] += 1;
                supplies[v] -= 1;
            }
            assert_matches_reference(nodes, &edges, &supplies);
        }
    }

    /// A 200,000-node chain is one augmenting path as long as the network:
    /// the search that routes it must not recurse.
    #[test]
    fn long_chain_routes_without_deep_recursion() {
        let nodes = 200_000;
        let mut net = MinCostFlow::new(nodes);
        for v in 0..nodes - 1 {
            net.add_edge(v, v + 1, 3, 1);
        }
        let mut supplies = vec![0i64; nodes];
        supplies[0] = 2;
        supplies[nodes - 1] = -2;
        assert_eq!(net.solve(&supplies), Ok(2 * (nodes as i64 - 1)));
    }

    #[test]
    fn simple_path_cost() {
        let mut net = MinCostFlow::new(3);
        net.add_edge(0, 1, 5, 2);
        net.add_edge(1, 2, 5, 3);
        let cost = net.solve(&[3, 0, -3]).unwrap();
        assert_eq!(cost, 3 * 5);
    }

    #[test]
    fn chooses_cheaper_parallel_edge_first() {
        let mut net = MinCostFlow::new(2);
        let cheap = net.add_edge(0, 1, 2, 1);
        let dear = net.add_edge(0, 1, 10, 4);
        let cost = net.solve(&[5, -5]).unwrap();
        assert_eq!(cost, 2 + 3 * 4);
        assert_eq!(net.flow(cheap), 2);
        assert_eq!(net.flow(dear), 3);
    }

    #[test]
    fn unbalanced_supplies_are_infeasible() {
        let mut net = MinCostFlow::new(2);
        net.add_edge(0, 1, 1, 0);
        assert!(net.solve(&[2, -1]).is_err());
    }

    #[test]
    fn disconnected_demand_is_infeasible() {
        let mut net = MinCostFlow::new(3);
        net.add_edge(0, 1, 10, 0);
        assert!(net.solve(&[1, 0, -1]).is_err());
    }

    #[test]
    fn zero_supplies_cost_zero() {
        let mut net = MinCostFlow::new(2);
        net.add_edge(0, 1, 10, 7);
        assert_eq!(net.solve(&[0, 0]).unwrap(), 0);
    }

    #[test]
    fn potentials_satisfy_reduced_cost_optimality() {
        let mut net = MinCostFlow::new(4);
        net.add_edge(0, 1, 4, 1);
        net.add_edge(0, 2, 2, 2);
        net.add_edge(1, 3, 3, 1);
        net.add_edge(2, 3, 3, 1);
        net.add_edge(1, 2, 2, 0);
        net.solve(&[4, 0, 0, -4]).unwrap();
        let pot = net.valid_potentials();
        for u in 0..4 {
            for &a in &net.adj[u] {
                let arc = &net.arcs[a];
                if arc.cap > 0 && arc.to < 4 {
                    assert!(
                        arc.cost + pot[u] - pot[arc.to] >= 0,
                        "arc {u}->{} violates optimality",
                        arc.to
                    );
                }
            }
        }
    }

    /// Cross-check the LP interpretation: minimize Σ c_v·r(v) subject to
    /// difference constraints, solved via flow potentials, against brute
    /// force over a small lag box.
    #[test]
    fn retiming_lp_matches_brute_force() {
        let mut state = 0xabcdu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..40 {
            let nv = 3 + (next() % 3) as usize; // 3..5 vertices
            let ne = nv + (next() % 4) as usize;
            // Random edges with weights 0..2; ensure the constraint graph
            // admits r = 0 (weights non-negative) so it is always feasible.
            let edges: Vec<(usize, usize, i64)> = (0..ne)
                .map(|_| {
                    (
                        (next() % nv as u64) as usize,
                        (next() % nv as u64) as usize,
                        (next() % 3) as i64,
                    )
                })
                .collect();
            // Node objective coefficients = indeg - outdeg (the retiming
            // register-count objective).
            let mut c = vec![0i64; nv];
            for &(u, v, _) in &edges {
                c[v] += 1;
                c[u] -= 1;
            }
            // Flow formulation: the LP stationarity condition reads
            // inflow(v) − outflow(v) = c_v, while `solve` takes supplies as
            // outflow − inflow, hence the negation.
            let mut net = MinCostFlow::new(nv);
            for &(u, v, w) in &edges {
                net.add_edge(u, v, 1_000, w);
            }
            let supplies: Vec<i64> = c.iter().map(|&x| -x).collect();
            if net.solve(&supplies).is_err() {
                continue; // degenerate instance (e.g. isolated supply)
            }
            let pot = net.valid_potentials();
            let lags: Vec<i64> = pot.iter().map(|&p| -p).collect();
            // Feasibility: r(u) - r(v) <= w(e).
            for &(u, v, w) in &edges {
                assert!(lags[u] - lags[v] <= w, "round {round}: infeasible lags");
            }
            let obj: i64 = (0..nv).map(|v| c[v] * lags[v]).sum();
            // Brute force over the box [-3, 3]^nv.
            let mut best = i64::MAX;
            let mut idx = vec![-3i64; nv];
            'outer: loop {
                let feasible = edges.iter().all(|&(u, v, w)| idx[u] - idx[v] <= w);
                if feasible {
                    let o: i64 = (0..nv).map(|v| c[v] * idx[v]).sum();
                    best = best.min(o);
                }
                for k in 0..nv {
                    idx[k] += 1;
                    if idx[k] <= 3 {
                        continue 'outer;
                    }
                    idx[k] = -3;
                }
                break;
            }
            assert_eq!(obj, best, "round {round}: objective mismatch");
        }
    }
}
