//! Enumeration of spanning trees in nondecreasing cost order.
//!
//! This is the primitive behind Gabow's 1977 algorithm ("Two algorithms for
//! generating weighted spanning trees in order"), in the standard
//! partition-refinement formulation: subproblems are `(forced, banned)`
//! edge-set pairs represented by their constrained MST and kept in a
//! priority queue keyed by tree cost. Popping in cost order yields every
//! spanning tree exactly once, cheapest first.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::{sort_edges, DisjointSets, Edge};

/// A spanning tree produced by [`SpanningTreeEnumerator`].
#[derive(Debug, Clone, PartialEq)]
pub struct EnumeratedTree {
    /// The tree's edges.
    pub edges: Vec<Edge>,
    /// Total weight.
    pub cost: f64,
}

/// Iterator over all spanning trees of a graph in nondecreasing cost order.
///
/// # Examples
///
/// ```
/// use bmst_graph::{Edge, SpanningTreeEnumerator};
///
/// // A triangle has exactly three spanning trees.
/// let edges = vec![
///     Edge::new(0, 1, 1.0),
///     Edge::new(1, 2, 2.0),
///     Edge::new(0, 2, 3.0),
/// ];
/// let costs: Vec<f64> =
///     SpanningTreeEnumerator::new(3, edges).map(|t| t.cost).collect();
/// assert_eq!(costs, vec![3.0, 4.0, 5.0]);
/// ```
#[derive(Debug)]
pub struct SpanningTreeEnumerator {
    n: usize,
    edges: Vec<Edge>,
    heap: BinaryHeap<Partition>,
    seq: usize,
}

#[derive(Debug, Clone)]
struct Partition {
    forced: Vec<usize>,
    banned: Vec<bool>,
    tree: Vec<usize>,
    cost: f64,
    seq: usize,
}

impl PartialEq for Partition {
    fn eq(&self, other: &Self) -> bool {
        self.cost == other.cost && self.seq == other.seq
    }
}
impl Eq for Partition {}
impl PartialOrd for Partition {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Partition {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so the cheapest pops first; sequence breaks ties
        // deterministically. Costs are finite sums of finite weights;
        // `total_cmp` keeps the order total regardless.
        other
            .cost
            .total_cmp(&self.cost)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Kruskal with `forced` pre-merged and `banned` skipped; `None` when the
/// partition has no spanning tree.
fn constrained_mst(
    n: usize,
    edges: &[Edge],
    forced: &[usize],
    banned: &[bool],
) -> Option<(Vec<usize>, f64)> {
    let mut dsu = DisjointSets::new(n);
    let mut tree = Vec::with_capacity(n.saturating_sub(1));
    let mut cost = 0.0;
    for &i in forced {
        if !dsu.union(edges[i].u, edges[i].v) {
            return None;
        }
        tree.push(i);
        cost += edges[i].weight;
    }
    for (i, e) in edges.iter().enumerate() {
        if tree.len() + 1 == n {
            break;
        }
        if banned[i] || forced.contains(&i) {
            continue;
        }
        if dsu.union(e.u, e.v) {
            tree.push(i);
            cost += e.weight;
        }
    }
    (tree.len() + 1 == n || n == 0).then_some((tree, cost))
}

impl SpanningTreeEnumerator {
    /// Creates an enumerator over the spanning trees of the graph with `n`
    /// nodes and the given edges.
    pub fn new(n: usize, edges: Vec<Edge>) -> Self {
        Self::with_forced(n, edges, &[])
    }

    /// Like [`SpanningTreeEnumerator::new`], but every yielded tree must
    /// contain all the `forced` edges (given by their endpoint pairs).
    ///
    /// Forced endpoint pairs that match no edge are ignored.
    pub fn with_forced(n: usize, mut edges: Vec<Edge>, forced: &[(usize, usize)]) -> Self {
        sort_edges(&mut edges);
        let forced_idx: Vec<usize> = forced
            .iter()
            .filter_map(|&(a, b)| {
                let pair = (a.min(b), a.max(b));
                edges.iter().position(|e| e.endpoints() == pair)
            })
            .collect();
        let mut heap = BinaryHeap::new();
        let banned = vec![false; edges.len()];
        if n > 0 {
            if let Some((tree, cost)) = constrained_mst(n, &edges, &forced_idx, &banned) {
                heap.push(Partition {
                    forced: forced_idx,
                    banned,
                    tree,
                    cost,
                    seq: 0,
                });
            }
        }
        SpanningTreeEnumerator {
            n,
            edges,
            heap,
            seq: 1,
        }
    }
}

impl Iterator for SpanningTreeEnumerator {
    type Item = EnumeratedTree;

    fn next(&mut self) -> Option<EnumeratedTree> {
        let part = self.heap.pop()?;

        // Branch on the free edges of the popped tree: child i bans free
        // edge i and forces free edges 0..i, partitioning the remaining
        // trees of this subproblem.
        let free: Vec<usize> = part
            .tree
            .iter()
            .copied()
            .filter(|i| !part.forced.contains(i))
            .collect();
        let mut forced_acc = part.forced.clone();
        for &ban in &free {
            let mut banned = part.banned.clone();
            banned[ban] = true;
            if let Some((tree, cost)) = constrained_mst(self.n, &self.edges, &forced_acc, &banned) {
                self.heap.push(Partition {
                    forced: forced_acc.clone(),
                    banned,
                    tree,
                    cost,
                    seq: self.seq,
                });
                self.seq += 1;
            }
            forced_acc.push(ban);
        }

        Some(EnumeratedTree {
            edges: part.tree.iter().map(|&i| self.edges[i]).collect(),
            cost: part.cost,
        })
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::float_cmp, clippy::as_conversions)] // tests compare exact floats and cast
    use super::*;
    use crate::complete_edges;
    use bmst_geom::{DistanceMatrix, Metric, Point};

    fn complete(n: usize) -> Vec<Edge> {
        // Distinct-ish weights from a fixed point set.
        let pts: Vec<Point> = (0..n)
            .map(|i| Point::new((i * i % 7) as f64, (i * 3 % 5) as f64 + i as f64 * 0.1))
            .collect();
        complete_edges(&DistanceMatrix::from_points(&pts, Metric::L1))
    }

    #[test]
    fn cayley_counts() {
        // Number of spanning trees of K_n is n^(n-2).
        for n in [2usize, 3, 4, 5] {
            let count = SpanningTreeEnumerator::new(n, complete(n)).count();
            assert_eq!(count, n.pow(u32::try_from(n).unwrap() - 2), "K_{n}");
        }
    }

    #[test]
    fn costs_nondecreasing_and_first_is_mst() {
        let edges = complete(5);
        let mst = crate::kruskal_mst(5, &edges).unwrap();
        let mst_cost: f64 = mst.iter().map(|e| e.weight).sum();
        let costs: Vec<f64> = SpanningTreeEnumerator::new(5, edges)
            .map(|t| t.cost)
            .collect();
        assert!((costs[0] - mst_cost).abs() < 1e-9);
        for w in costs.windows(2) {
            assert!(w[0] <= w[1] + 1e-9);
        }
    }

    #[test]
    fn trees_are_distinct() {
        let trees: Vec<Vec<(usize, usize)>> = SpanningTreeEnumerator::new(4, complete(4))
            .map(|t| {
                let mut ids: Vec<(usize, usize)> = t.edges.iter().map(Edge::endpoints).collect();
                ids.sort_unstable();
                ids
            })
            .collect();
        let mut uniq = trees.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), trees.len());
    }

    #[test]
    fn forced_edge_in_every_tree() {
        let trees: Vec<EnumeratedTree> =
            SpanningTreeEnumerator::with_forced(4, complete(4), &[(0, 3)]).collect();
        assert!(!trees.is_empty());
        // 4^2 = 16 trees total; forcing one edge keeps those containing it:
        // by symmetry of Cayley's formula that is 16 * (n-1)/binom... just
        // check the constraint and that we got strictly fewer than all.
        assert!(trees.len() < 16);
        for t in &trees {
            assert!(t.edges.iter().any(|e| e.endpoints() == (0, 3)));
        }
    }

    #[test]
    fn disconnected_graph_yields_nothing() {
        let edges = vec![Edge::new(0, 1, 1.0)];
        assert_eq!(SpanningTreeEnumerator::new(3, edges).count(), 0);
    }

    #[test]
    fn single_node_yields_empty_tree() {
        let mut it = SpanningTreeEnumerator::new(1, vec![]);
        let t = it.next().unwrap();
        assert!(t.edges.is_empty());
        assert_eq!(t.cost, 0.0);
        assert!(it.next().is_none());
    }

    #[test]
    fn path_graph_has_one_tree() {
        let edges = vec![Edge::new(0, 1, 1.0), Edge::new(1, 2, 2.0)];
        let trees: Vec<_> = SpanningTreeEnumerator::new(3, edges).collect();
        assert_eq!(trees.len(), 1);
        assert_eq!(trees[0].cost, 3.0);
    }
}
