//! Weighted undirected edges and the canonical edge ordering.

use std::cmp::Ordering;
use std::fmt;

use bmst_geom::DistanceMatrix;

/// A weighted undirected edge between node indices `u` and `v`.
///
/// Construction normalises the endpoint order to `u <= v` so that an edge
/// has exactly one representation, which in turn makes the canonical
/// `(weight, u, v)` sort a strict total order and every Kruskal-style
/// construction in the workspace deterministic.
///
/// # Examples
///
/// ```
/// use bmst_graph::Edge;
///
/// let e = Edge::new(5, 2, 1.5);
/// assert_eq!((e.u, e.v), (2, 5)); // endpoints normalised
/// assert!(e.connects(5) && e.connects(2) && !e.connects(3));
/// assert_eq!(e.other(2), 5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Smaller endpoint index.
    pub u: usize,
    /// Larger endpoint index.
    pub v: usize,
    /// Edge weight (wirelength).
    pub weight: f64,
}

impl Edge {
    /// Creates an edge, normalising endpoints so `u <= v`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (self-loops are never meaningful here) or if the
    /// weight is not finite.
    #[inline]
    pub fn new(a: usize, b: usize, weight: f64) -> Self {
        assert!(a != b, "self-loop edge ({a}, {b})");
        assert!(
            weight.is_finite(),
            "edge weight must be finite, got {weight}"
        );
        let (u, v) = if a <= b { (a, b) } else { (b, a) };
        Edge { u, v, weight }
    }

    /// Returns `true` if `node` is one of the endpoints.
    #[inline]
    pub fn connects(&self, node: usize) -> bool {
        self.u == node || self.v == node
    }

    /// The endpoint that is not `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an endpoint of this edge.
    #[inline]
    #[expect(clippy::panic, reason = "misuse of a documented `# Panics` contract")]
    pub fn other(&self, node: usize) -> usize {
        if node == self.u {
            self.v
        } else if node == self.v {
            self.u
        } else {
            panic!(
                "node {node} is not an endpoint of edge ({}, {})",
                self.u, self.v
            )
        }
    }

    /// The endpoint pair `(u, v)` with `u <= v`.
    #[inline]
    pub fn endpoints(&self) -> (usize, usize) {
        (self.u, self.v)
    }

    /// Canonical total order: by weight, then `u`, then `v`.
    ///
    /// Weights are finite by construction; `total_cmp` keeps the order
    /// total without a panicking unwrap even if that invariant breaks.
    #[inline]
    pub fn canonical_cmp(&self, other: &Edge) -> Ordering {
        self.weight
            .total_cmp(&other.weight)
            .then(self.u.cmp(&other.u))
            .then(self.v.cmp(&other.v))
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}-{}: {})", self.u, self.v, self.weight)
    }
}

/// All `n * (n - 1) / 2` edges of the complete graph whose weights come from
/// a distance matrix.
///
/// This is the edge set `E` of the paper's routing graph `G(V, E)` for the
/// spanning-tree constructions.
///
/// ```
/// use bmst_geom::{DistanceMatrix, Metric, Point};
/// use bmst_graph::complete_edges;
///
/// let d = DistanceMatrix::from_points(
///     &[Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(0.0, 2.0)],
///     Metric::L1,
/// );
/// let edges = complete_edges(&d);
/// assert_eq!(edges.len(), 3);
/// ```
pub fn complete_edges(d: &DistanceMatrix) -> Vec<Edge> {
    let n = d.len();
    let mut edges = Vec::with_capacity(n.saturating_sub(1) * n / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push(Edge::new(u, v, d[(u, v)]));
        }
    }
    edges
}

/// Sorts edges in the canonical nondecreasing `(weight, u, v)` order
/// (the paper's BKRUS line 8: "sort the edge set E in nondecreasing order
/// of weights").
pub fn sort_edges(edges: &mut [Edge]) {
    edges.sort_by(Edge::canonical_cmp);
}

/// Total weight of an edge collection (the paper's `cost(T)` when applied to
/// the edges of a tree).
pub fn tree_cost(edges: &[Edge]) -> f64 {
    edges.iter().map(|e| e.weight).sum()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;
    use bmst_geom::{Metric, Point};

    #[test]
    fn new_normalises_endpoints() {
        let e = Edge::new(7, 3, 2.0);
        assert_eq!(e.endpoints(), (3, 7));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        Edge::new(4, 4, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_weight_panics() {
        Edge::new(0, 1, f64::NAN);
    }

    #[test]
    fn other_endpoint() {
        let e = Edge::new(1, 2, 1.0);
        assert_eq!(e.other(1), 2);
        assert_eq!(e.other(2), 1);
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_of_non_endpoint_panics() {
        Edge::new(1, 2, 1.0).other(3);
    }

    #[test]
    fn canonical_order_breaks_ties_by_indices() {
        let mut edges = vec![
            Edge::new(2, 3, 1.0),
            Edge::new(0, 5, 1.0),
            Edge::new(0, 1, 0.5),
        ];
        sort_edges(&mut edges);
        assert_eq!(edges[0].endpoints(), (0, 1));
        assert_eq!(edges[1].endpoints(), (0, 5));
        assert_eq!(edges[2].endpoints(), (2, 3));
    }

    #[test]
    fn complete_edges_count_and_weights() {
        let d = bmst_geom::DistanceMatrix::from_points(
            &[
                Point::new(0.0, 0.0),
                Point::new(1.0, 0.0),
                Point::new(0.0, 2.0),
                Point::new(1.0, 2.0),
            ],
            Metric::L1,
        );
        let edges = complete_edges(&d);
        assert_eq!(edges.len(), 6);
        let e01 = edges.iter().find(|e| e.endpoints() == (0, 1)).unwrap();
        assert_eq!(e01.weight, 1.0);
    }

    #[test]
    fn tree_cost_sums_weights() {
        let edges = vec![Edge::new(0, 1, 1.5), Edge::new(1, 2, 2.5)];
        assert_eq!(tree_cost(&edges), 4.0);
        assert_eq!(tree_cost(&[]), 0.0);
    }

    #[test]
    fn display_shows_endpoints_and_weight() {
        assert_eq!(Edge::new(0, 1, 2.0).to_string(), "(0-1: 2)");
    }
}
