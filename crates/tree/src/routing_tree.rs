//! The rooted routing-tree representation.

use bmst_geom::le_tol;
use bmst_graph::Edge;

use crate::TreeError;

const NO_PARENT: usize = usize::MAX;

/// A rooted routing tree over the node universe `0..n`.
///
/// The root is the net's source. The tree may cover all nodes (spanning
/// trees) or a subset containing the root (Steiner trees over a routing
/// grid); uncovered nodes simply have no parent and answer
/// [`RoutingTree::is_covered`] with `false`.
///
/// All structural queries the paper's algorithms need are provided:
/// source-to-node path lengths, in-tree path lengths between arbitrary
/// covered nodes (`path_T(u, v)`), per-node radii (`radius_T(v)`), the father
/// array / depth levels used by the T-exchange search, and feasibility checks
/// against path-length bounds.
///
/// The structure is immutable; the T-exchange operation
/// ([`RoutingTree::apply_exchange`]) returns a new tree, which keeps the
/// backtracking search in BKEX trivially correct.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingTree {
    // Fields are crate-visible so the auditor (and its corruption tests)
    // can inspect and fake every piece of derived state.
    pub(crate) n: usize,
    pub(crate) root: usize,
    pub(crate) parent: Vec<usize>,
    pub(crate) parent_weight: Vec<f64>,
    pub(crate) depth: Vec<usize>,
    pub(crate) dist_root: Vec<f64>,
    pub(crate) children: Vec<Vec<usize>>,
    pub(crate) covered: Vec<bool>,
    pub(crate) covered_count: usize,
    pub(crate) cost: f64,
}

impl RoutingTree {
    /// Builds a routing tree from an edge list, rooted at `root`.
    ///
    /// The edges must form a tree containing `root`; nodes not touched by any
    /// edge are left uncovered (Steiner case). For a spanning tree over all
    /// `n` nodes pass exactly `n - 1` edges covering every node.
    ///
    /// # Errors
    ///
    /// * [`TreeError::RootOutOfBounds`] / [`TreeError::NodeOutOfBounds`] on
    ///   bad indices;
    /// * [`TreeError::Cycle`] if the edge set contains a cycle;
    /// * [`TreeError::Disconnected`] if some edges cannot be reached from the
    ///   root.
    // analyze: allow(cancel-liveness) — one pass over the edge list; bmst-tree has no CancelToken dependency
    pub fn from_edges(
        n: usize,
        root: usize,
        edges: impl IntoIterator<Item = Edge>,
    ) -> Result<Self, TreeError> {
        if root >= n {
            return Err(TreeError::RootOutOfBounds { root, n });
        }
        let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        let mut edge_count = 0usize;
        for e in edges {
            if e.u >= n || e.v >= n {
                let node = if e.u >= n { e.u } else { e.v };
                return Err(TreeError::NodeOutOfBounds { node, n });
            }
            adj[e.u].push((e.v, e.weight));
            adj[e.v].push((e.u, e.weight));
            edge_count += 1;
        }

        let mut tree = RoutingTree {
            n,
            root,
            parent: vec![NO_PARENT; n],
            parent_weight: vec![0.0; n],
            depth: vec![0; n],
            dist_root: vec![f64::INFINITY; n],
            children: vec![Vec::new(); n],
            covered: vec![false; n],
            covered_count: 0,
            cost: 0.0,
        };

        // Iterative DFS from the root; children are visited in insertion
        // order so traversal order is deterministic.
        let mut stack = vec![root];
        tree.covered[root] = true;
        tree.covered_count = 1;
        tree.dist_root[root] = 0.0;
        while let Some(u) = stack.pop() {
            for &(v, w) in &adj[u] {
                if v == tree.parent[u] {
                    continue;
                }
                if tree.covered[v] {
                    return Err(TreeError::Cycle { node: v });
                }
                tree.covered[v] = true;
                tree.covered_count += 1;
                tree.parent[v] = u;
                tree.parent_weight[v] = w;
                tree.depth[v] = tree.depth[u] + 1;
                tree.dist_root[v] = tree.dist_root[u] + w;
                tree.children[u].push(v);
                tree.cost += w;
                stack.push(v);
            }
        }

        let attached = tree.covered_count - 1;
        if attached != edge_count {
            return Err(TreeError::Disconnected {
                unattached_edges: edge_count - attached,
            });
        }
        Ok(tree)
    }

    /// Size of the node universe (covered or not).
    #[inline]
    pub fn universe(&self) -> usize {
        self.n
    }

    /// The root (source) node.
    #[inline]
    pub fn root(&self) -> usize {
        self.root
    }

    /// Number of nodes covered by the tree.
    #[inline]
    pub fn covered_count(&self) -> usize {
        self.covered_count
    }

    /// Returns `true` if `v` is covered by the tree.
    #[inline]
    pub fn is_covered(&self, v: usize) -> bool {
        self.covered[v]
    }

    /// Returns `true` when the tree covers every node of the universe.
    #[inline]
    pub fn is_spanning(&self) -> bool {
        self.covered_count == self.n
    }

    /// Iterator over covered node indices, ascending.
    pub fn covered_nodes(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n).filter(move |&v| self.covered[v])
    }

    /// Total wirelength `cost(T)`.
    #[inline]
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// The tree's edges as `(parent, child, weight)` triples encoded as
    /// [`Edge`]s, in ascending child order.
    pub fn edges(&self) -> Vec<Edge> {
        (0..self.n)
            .filter(|&v| self.covered[v] && v != self.root)
            .map(|v| Edge::new(self.parent[v], v, self.parent_weight[v]))
            .collect()
    }

    /// Parent of `v` in the rooted tree (the paper's father array `FA[v]`),
    /// `None` at the root or for uncovered nodes.
    #[inline]
    pub fn parent(&self, v: usize) -> Option<usize> {
        if self.covered[v] && v != self.root {
            Some(self.parent[v])
        } else {
            None
        }
    }

    /// Weight of the edge from `v` to its parent.
    ///
    /// # Panics
    ///
    /// Panics if `v` is the root or uncovered.
    #[inline]
    pub fn parent_edge_weight(&self, v: usize) -> f64 {
        assert!(
            self.covered[v] && v != self.root,
            "node {v} has no parent edge"
        );
        self.parent_weight[v]
    }

    /// Depth level of `v` (number of ancestors; `depth(root) = 0`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is uncovered.
    #[inline]
    pub fn depth(&self, v: usize) -> usize {
        assert!(self.covered[v], "node {v} is not covered");
        self.depth[v]
    }

    /// Children of `v` in traversal order.
    #[inline]
    pub fn children(&self, v: usize) -> &[usize] {
        &self.children[v]
    }

    /// Path length from the root (source) to `v`: the paper's
    /// `path_T(S, v)`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is uncovered.
    #[inline]
    pub fn dist_from_root(&self, v: usize) -> f64 {
        assert!(self.covered[v], "node {v} is not covered");
        self.dist_root[v]
    }

    /// The radius of the tree as seen from the root: `max_v path_T(S, v)`.
    /// This is the quantity bounded by `(1 + eps) * R`.
    pub fn source_radius(&self) -> f64 {
        self.covered_nodes()
            .map(|v| self.dist_root[v])
            .fold(0.0, f64::max)
    }

    /// The shortest source-to-node path length over a node subset (used for
    /// the lower bound of the LUB construction). Returns `f64::INFINITY`
    /// when the subset is empty.
    pub fn min_dist_from_root(&self, nodes: impl IntoIterator<Item = usize>) -> f64 {
        nodes
            .into_iter()
            .map(|v| self.dist_from_root(v))
            .fold(f64::INFINITY, f64::min)
    }

    /// Maximum source-to-node path length over a node subset (e.g. sinks
    /// only, excluding Steiner points). Returns `0.0` when the subset is
    /// empty.
    pub fn max_dist_from_root(&self, nodes: impl IntoIterator<Item = usize>) -> f64 {
        nodes
            .into_iter()
            .map(|v| self.dist_from_root(v))
            .fold(0.0, f64::max)
    }

    /// Lowest common ancestor of two covered nodes.
    ///
    /// # Panics
    ///
    /// Panics if either node is uncovered.
    pub fn lca(&self, mut u: usize, mut v: usize) -> usize {
        assert!(self.covered[u], "node {u} is not covered");
        assert!(self.covered[v], "node {v} is not covered");
        while self.depth[u] > self.depth[v] {
            u = self.parent[u];
        }
        while self.depth[v] > self.depth[u] {
            v = self.parent[v];
        }
        while u != v {
            u = self.parent[u];
            v = self.parent[v];
        }
        u
    }

    /// In-tree path length between two covered nodes: the paper's
    /// `path_T(u, v)`.
    ///
    /// # Panics
    ///
    /// Panics if either node is uncovered.
    pub fn path_length(&self, u: usize, v: usize) -> f64 {
        let a = self.lca(u, v);
        self.dist_root[u] + self.dist_root[v] - 2.0 * self.dist_root[a]
    }

    /// Nodes on the unique in-tree path from `u` to `v`, inclusive
    /// (the paper's `path_nodes(u, v)`).
    ///
    /// # Panics
    ///
    /// Panics if either node is uncovered.
    pub fn path_nodes(&self, u: usize, v: usize) -> Vec<usize> {
        let a = self.lca(u, v);
        let mut up = Vec::new();
        let mut cur = u;
        while cur != a {
            up.push(cur);
            cur = self.parent[cur];
        }
        up.push(a);
        let mut down = Vec::new();
        cur = v;
        while cur != a {
            down.push(cur);
            cur = self.parent[cur];
        }
        up.extend(down.into_iter().rev());
        up
    }

    /// In-tree distances from `v` to every node (`f64::INFINITY` for
    /// uncovered nodes). `O(V)` by tree traversal.
    ///
    /// # Panics
    ///
    /// Panics if `v` is uncovered.
    pub fn dists_from(&self, v: usize) -> Vec<f64> {
        assert!(self.covered[v], "node {v} is not covered");
        let mut dist = vec![f64::INFINITY; self.n];
        dist[v] = 0.0;
        // Traverse the tree as an undirected graph from v.
        let mut stack = vec![(v, NO_PARENT)];
        while let Some((u, from)) = stack.pop() {
            // Neighbors: parent + children.
            if u != self.root {
                let p = self.parent[u];
                if p != from {
                    dist[p] = dist[u] + self.parent_weight[u];
                    stack.push((p, u));
                }
            }
            for &c in &self.children[u] {
                if c != from {
                    dist[c] = dist[u] + self.parent_weight[c];
                    stack.push((c, u));
                }
            }
        }
        dist
    }

    /// The radius of node `v`: `max_u path_T(v, u)` over covered nodes
    /// (the paper's `radius_T(v)`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is uncovered.
    pub fn radius_of(&self, v: usize) -> f64 {
        self.dists_from(v)
            .into_iter()
            .filter(|d| d.is_finite())
            .fold(0.0, f64::max)
    }

    /// All covered nodes in the subtree rooted at `v` (including `v`).
    ///
    /// # Panics
    ///
    /// Panics if `v` is uncovered.
    pub fn subtree_nodes(&self, v: usize) -> Vec<usize> {
        assert!(self.covered[v], "node {v} is not covered");
        let mut out = Vec::new();
        let mut stack = vec![v];
        while let Some(u) = stack.pop() {
            out.push(u);
            stack.extend_from_slice(&self.children[u]);
        }
        out
    }

    /// Returns `true` if `(u, v)` (in either order) is a tree edge.
    pub fn contains_edge(&self, u: usize, v: usize) -> bool {
        if !self.covered[u] || !self.covered[v] {
            return false;
        }
        (u != self.root && self.parent[u] == v) || (v != self.root && self.parent[v] == u)
    }

    /// Checks that every node in `nodes` satisfies
    /// `path_T(S, node) <= bound` (tolerantly).
    pub fn satisfies_upper_bound(
        &self,
        bound: f64,
        nodes: impl IntoIterator<Item = usize>,
    ) -> bool {
        nodes
            .into_iter()
            .all(|v| le_tol(self.dist_from_root(v), bound))
    }

    /// Checks that every node in `nodes` satisfies
    /// `path_T(S, node) >= bound` (tolerantly) — the LUB lower bound.
    pub fn satisfies_lower_bound(
        &self,
        bound: f64,
        nodes: impl IntoIterator<Item = usize>,
    ) -> bool {
        nodes
            .into_iter()
            .all(|v| le_tol(bound, self.dist_from_root(v)))
    }

    /// Applies a T-exchange: removes the tree edge from `remove_child` to its
    /// father and adds `add`, returning the resulting tree.
    ///
    /// A *T-exchange* (Gabow) is a pair `(e, f)` with `e` in the tree and `f`
    /// outside such that `T - e + f` is again a spanning tree; its weight is
    /// `weight(f) - weight(e)`. The caller identifies `e` by its child
    /// endpoint, exactly like the `(v, FA[v])` pairs in the paper's
    /// `DFS_EXCHANGE`.
    ///
    /// # Errors
    ///
    /// * [`TreeError::NotATreeEdge`] if `remove_child` is the root or
    ///   uncovered (it then has no father edge);
    /// * [`TreeError::InvalidExchange`] if `add` does not reconnect the two
    ///   components (both endpoints on the same side of the cut), including
    ///   the degenerate case where `add` *is* the removed edge.
    pub fn apply_exchange(&self, remove_child: usize, add: Edge) -> Result<Self, TreeError> {
        if !self.covered[remove_child] || remove_child == self.root {
            return Err(TreeError::NotATreeEdge {
                u: remove_child,
                v: self.parent.get(remove_child).copied().unwrap_or(NO_PARENT),
            });
        }
        if add.u >= self.n || add.v >= self.n {
            let node = if add.u >= self.n { add.u } else { add.v };
            return Err(TreeError::NodeOutOfBounds { node, n: self.n });
        }
        if !self.covered[add.u] || !self.covered[add.v] {
            let node = if !self.covered[add.u] { add.u } else { add.v };
            return Err(TreeError::NodeNotCovered { node });
        }
        let removed_pair = {
            let p = self.parent[remove_child];
            (p.min(remove_child), p.max(remove_child))
        };
        if add.endpoints() == removed_pair {
            // f must come from G - T: swapping an edge with itself is not a
            // T-exchange.
            return Err(TreeError::InvalidExchange);
        }
        // The cut: subtree(remove_child) vs the rest. `add` must cross it.
        let mut in_subtree = vec![false; self.n];
        for v in self.subtree_nodes(remove_child) {
            in_subtree[v] = true;
        }
        if in_subtree[add.u] == in_subtree[add.v] {
            return Err(TreeError::InvalidExchange);
        }
        let mut edges: Vec<Edge> = self
            .edges()
            .into_iter()
            .filter(|e| e.endpoints() != removed_pair)
            .collect();
        edges.push(add);
        RoutingTree::from_edges(self.n, self.root, edges)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::float_cmp, clippy::as_conversions)] // tests compare exact floats and cast
    use super::*;

    /// A small fixed tree:
    ///
    /// ```text
    ///        0 (root)
    ///      /   \
    ///    1(2)   2(1)
    ///    |
    ///    3(4)
    /// ```
    fn sample() -> RoutingTree {
        RoutingTree::from_edges(
            4,
            0,
            vec![
                Edge::new(0, 1, 2.0),
                Edge::new(0, 2, 1.0),
                Edge::new(1, 3, 4.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_basic_properties() {
        let t = sample();
        assert_eq!(t.universe(), 4);
        assert_eq!(t.root(), 0);
        assert!(t.is_spanning());
        assert_eq!(t.cost(), 7.0);
        assert_eq!(t.parent(3), Some(1));
        assert_eq!(t.parent(0), None);
        assert_eq!(t.depth(3), 2);
        assert_eq!(t.parent_edge_weight(3), 4.0);
    }

    #[test]
    fn dist_from_root_accumulates() {
        let t = sample();
        assert_eq!(t.dist_from_root(0), 0.0);
        assert_eq!(t.dist_from_root(1), 2.0);
        assert_eq!(t.dist_from_root(2), 1.0);
        assert_eq!(t.dist_from_root(3), 6.0);
        assert_eq!(t.source_radius(), 6.0);
    }

    #[test]
    fn path_length_via_lca() {
        let t = sample();
        assert_eq!(t.lca(3, 2), 0);
        assert_eq!(t.lca(3, 1), 1);
        assert_eq!(t.path_length(3, 2), 7.0);
        assert_eq!(t.path_length(1, 3), 4.0);
        assert_eq!(t.path_length(2, 2), 0.0);
    }

    #[test]
    fn path_nodes_lists_route() {
        let t = sample();
        assert_eq!(t.path_nodes(3, 2), vec![3, 1, 0, 2]);
        assert_eq!(t.path_nodes(2, 3), vec![2, 0, 1, 3]);
        assert_eq!(t.path_nodes(1, 1), vec![1]);
    }

    #[test]
    fn radius_of_matches_brute_force() {
        let t = sample();
        for v in 0..4 {
            let brute = (0..4).map(|u| t.path_length(v, u)).fold(0.0_f64, f64::max);
            assert_eq!(t.radius_of(v), brute);
        }
        assert_eq!(t.radius_of(2), 7.0); // 2 -> 0 -> 1 -> 3
    }

    #[test]
    fn dists_from_interior_node() {
        let t = sample();
        let d = t.dists_from(1);
        assert_eq!(d, vec![2.0, 0.0, 3.0, 4.0]);
    }

    #[test]
    fn subtree_nodes_collects_descendants() {
        let t = sample();
        let mut s = t.subtree_nodes(1);
        s.sort_unstable();
        assert_eq!(s, vec![1, 3]);
        let mut all = t.subtree_nodes(0);
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn contains_edge_checks_both_orders() {
        let t = sample();
        assert!(t.contains_edge(0, 1));
        assert!(t.contains_edge(1, 0));
        assert!(t.contains_edge(3, 1));
        assert!(!t.contains_edge(2, 3));
    }

    #[test]
    fn edges_round_trip() {
        let t = sample();
        let rebuilt = RoutingTree::from_edges(4, 0, t.edges()).unwrap();
        assert_eq!(rebuilt.cost(), t.cost());
        for v in 0..4 {
            assert_eq!(rebuilt.dist_from_root(v), t.dist_from_root(v));
        }
    }

    #[test]
    fn cycle_detected() {
        let err = RoutingTree::from_edges(
            3,
            0,
            vec![
                Edge::new(0, 1, 1.0),
                Edge::new(1, 2, 1.0),
                Edge::new(0, 2, 1.0),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, TreeError::Cycle { .. }));
    }

    #[test]
    fn disconnected_edge_detected() {
        let err = RoutingTree::from_edges(4, 0, vec![Edge::new(0, 1, 1.0), Edge::new(2, 3, 1.0)])
            .unwrap_err();
        assert_eq!(
            err,
            TreeError::Disconnected {
                unattached_edges: 1
            }
        );
    }

    #[test]
    fn bad_root_and_bad_node() {
        assert_eq!(
            RoutingTree::from_edges(2, 5, vec![]).unwrap_err(),
            TreeError::RootOutOfBounds { root: 5, n: 2 }
        );
        assert_eq!(
            RoutingTree::from_edges(2, 0, vec![Edge::new(0, 9, 1.0)]).unwrap_err(),
            TreeError::NodeOutOfBounds { node: 9, n: 2 }
        );
    }

    #[test]
    fn steiner_tree_covers_subset() {
        // Universe of 5 nodes, tree only covers {0, 1, 2}.
        let t = RoutingTree::from_edges(5, 0, vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 1.0)])
            .unwrap();
        assert!(!t.is_spanning());
        assert_eq!(t.covered_count(), 3);
        assert!(t.is_covered(2));
        assert!(!t.is_covered(4));
        assert_eq!(t.covered_nodes().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "not covered")]
    fn query_uncovered_node_panics() {
        let t = RoutingTree::from_edges(3, 0, vec![Edge::new(0, 1, 1.0)]).unwrap();
        t.dist_from_root(2);
    }

    #[test]
    fn bounds_checks() {
        let t = sample();
        assert!(t.satisfies_upper_bound(6.0, 0..4));
        assert!(!t.satisfies_upper_bound(5.9, 0..4));
        assert!(t.satisfies_lower_bound(1.0, [1, 2, 3]));
        assert!(!t.satisfies_lower_bound(1.5, [1, 2, 3]));
        // Tolerance: a bound short by less than EPS_TOL still passes.
        assert!(t.satisfies_upper_bound(6.0 - 1e-12, 0..4));
    }

    #[test]
    fn min_max_dist_from_root() {
        let t = sample();
        assert_eq!(t.min_dist_from_root([1, 2, 3]), 1.0);
        assert_eq!(t.max_dist_from_root([1, 2]), 2.0);
        assert_eq!(t.min_dist_from_root(std::iter::empty()), f64::INFINITY);
        assert_eq!(t.max_dist_from_root(std::iter::empty()), 0.0);
    }

    #[test]
    fn exchange_swaps_edges() {
        let t = sample();
        // Remove (1, 3), reattach 3 under 2.
        let t2 = t.apply_exchange(3, Edge::new(2, 3, 1.5)).unwrap();
        assert_eq!(t2.cost(), 7.0 - 4.0 + 1.5);
        assert_eq!(t2.parent(3), Some(2));
        assert!(t2.is_spanning());
        // Original is untouched (persistent structure).
        assert_eq!(t.cost(), 7.0);
    }

    #[test]
    fn exchange_rejects_non_crossing_edge() {
        let t = sample();
        // Removing (0,1) splits {1,3} from {0,2}; edge (0,2) doesn't cross.
        let err = t.apply_exchange(1, Edge::new(0, 2, 1.0)).unwrap_err();
        assert_eq!(err, TreeError::InvalidExchange);
    }

    #[test]
    fn exchange_rejects_root_removal() {
        let t = sample();
        assert!(matches!(
            t.apply_exchange(0, Edge::new(2, 3, 1.0)).unwrap_err(),
            TreeError::NotATreeEdge { .. }
        ));
    }

    #[test]
    fn exchange_same_edge_rejected() {
        let t = sample();
        // Re-adding the removed edge is not an exchange.
        let err = t.apply_exchange(3, Edge::new(1, 3, 4.0)).unwrap_err();
        assert_eq!(err, TreeError::InvalidExchange);
    }

    #[test]
    fn single_node_tree() {
        let t = RoutingTree::from_edges(1, 0, vec![]).unwrap();
        assert!(t.is_spanning());
        assert_eq!(t.cost(), 0.0);
        assert_eq!(t.source_radius(), 0.0);
        assert_eq!(t.radius_of(0), 0.0);
        assert!(t.edges().is_empty());
    }

    #[test]
    fn deep_chain_no_stack_overflow() {
        // Iterative traversals must handle path graphs of large depth.
        let n = 50_000;
        let edges: Vec<Edge> = (1..n).map(|v| Edge::new(v - 1, v, 1.0)).collect();
        let t = RoutingTree::from_edges(n, 0, edges).unwrap();
        assert_eq!(t.dist_from_root(n - 1), (n - 1) as f64);
        assert_eq!(t.radius_of(n - 1), (n - 1) as f64);
        assert_eq!(t.path_length(0, n - 1), (n - 1) as f64);
    }
}
