//! Bottom-up zero-skew embedding under the linear delay model.

use bmst_geom::{Net, Point};
use bmst_graph::Edge;
use bmst_tree::RoutingTree;

use crate::{balanced_topology, Topology};

/// A zero-skew clock tree: every sink at exactly the same path length from
/// the source.
#[derive(Debug, Clone)]
pub struct ZeroSkewTree {
    /// The routing tree: terminals `0..num_terminals` (the net's node ids)
    /// plus internal tapping points.
    pub tree: RoutingTree,
    /// Coordinates of every node, indexed by node id. Edge *lengths* may
    /// exceed the endpoint distance where wire snaking was needed.
    pub points: Vec<Point>,
    /// Number of original terminals.
    pub num_terminals: usize,
}

impl ZeroSkewTree {
    /// Total wirelength (snaking included).
    #[inline]
    pub fn wirelength(&self) -> f64 {
        self.tree.cost()
    }

    /// Source-to-sink path length of terminal `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a covered terminal.
    #[inline]
    pub fn sink_path_length(&self, v: usize) -> f64 {
        self.tree.dist_from_root(v)
    }

    /// The skew: max minus min source-to-sink path length
    /// (zero, up to rounding, by construction).
    pub fn skew(&self) -> f64 {
        let sinks: Vec<usize> = (0..self.num_terminals)
            .filter(|&v| v != self.tree.root())
            .collect();
        if sinks.is_empty() {
            return 0.0;
        }
        let longest = self.tree.max_dist_from_root(sinks.iter().copied());
        let shortest = self.tree.min_dist_from_root(sinks.iter().copied());
        longest - shortest
    }

    /// Total snaked (detour) wirelength: edge length in excess of the
    /// endpoints' Manhattan distance.
    pub fn snaked_length(&self) -> f64 {
        self.tree
            .edges()
            .iter()
            .map(|e| e.weight - self.points[e.u].manhattan(self.points[e.v]))
            .sum()
    }
}

/// The result of embedding a subtree: its tapping point, the (equal) delay
/// from that point to every sink below it, and the node id holding it.
struct Tap {
    node: usize,
    point: Point,
    delay: f64,
}

/// Merges two embedded subtrees into a zero-skew parent tap (linear delay):
/// the tapping point divides the `l`-to-`r` route so both sides see equal
/// delay; when one side is too slow (`|dl - dr| > L`) the fast side's wire
/// is snaked to make up the difference.
///
/// Returns `(tap point, delay, edge length to l, edge length to r)`.
fn balance(l: &Tap, r: &Tap) -> (Point, f64, f64, f64) {
    let length = l.point.manhattan(r.point);
    // Solve dl + x = dr + (L - x).
    let x = (r.delay - l.delay + length) / 2.0;
    if x < 0.0 {
        // Left side is already slower than right + the whole wire: tap at
        // the left point, snake the right wire.
        (l.point, l.delay, 0.0, l.delay - r.delay)
    } else if x > length {
        (r.point, r.delay, r.delay - l.delay, 0.0)
    } else {
        (walk_l_path(l.point, r.point, x), l.delay + x, x, length - x)
    }
}

/// The point at distance `d` along the L-shaped route from `a` to `b`
/// (corner at `(b.x, a.y)`).
fn walk_l_path(a: Point, b: Point, d: f64) -> Point {
    let leg1 = (b.x - a.x).abs();
    if d <= leg1 {
        Point::new(a.x + (b.x - a.x).signum() * d, a.y)
    } else {
        let rest = d - leg1;
        Point::new(b.x, a.y + (b.y - a.y).signum() * rest)
    }
}

/// Constructs a zero-skew clock tree for the net (linear delay): balanced
/// topology by recursive bipartition, then bottom-up zero-skew merging, and
/// finally a trunk from the source to the top-level tapping point.
///
/// Always succeeds: zero skew is achievable for any sink set under the
/// linear model (snaking can slow any fast branch).
///
/// # Examples
///
/// ```
/// use bmst_clock::zero_skew_tree;
/// use bmst_geom::{Net, Point};
///
/// let net = Net::with_source_first(vec![
///     Point::new(0.0, 0.0),
///     Point::new(4.0, 0.0),
///     Point::new(0.0, 4.0),
/// ])?;
/// let zst = zero_skew_tree(&net);
/// assert!(zst.skew() < 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[expect(
    clippy::expect_used,
    reason = "a one-node tree is trivially valid, and embed() emits one edge per merge, \
              which is a tree by induction"
)]
pub fn zero_skew_tree(net: &Net) -> ZeroSkewTree {
    let n = net.len();
    let source = net.source();
    let mut points: Vec<Point> = net.points().to_vec();
    let mut edges: Vec<Edge> = Vec::new();

    if net.num_sinks() == 0 {
        let tree = RoutingTree::from_edges(1, source, []).expect("single node");
        return ZeroSkewTree {
            tree,
            points,
            num_terminals: n,
        };
    }

    let sinks: Vec<usize> = net.sinks().collect();
    let topo = balanced_topology(&points, &sinks);
    let top = embed(&topo, &mut points, &mut edges);

    // Trunk from the source to the top tap: adds the same delay to every
    // sink, so the skew stays zero.
    let trunk = net.point(source).manhattan(top.point);
    if top.node != source {
        edges.push(Edge::new(source, top.node, trunk.max(f64::MIN_POSITIVE)));
    }

    let tree =
        RoutingTree::from_edges(points.len(), source, edges).expect("bottom-up merges form a tree");
    ZeroSkewTree {
        tree,
        points,
        num_terminals: n,
    }
}

fn embed(topo: &Topology, points: &mut Vec<Point>, edges: &mut Vec<Edge>) -> Tap {
    match topo {
        Topology::Leaf(s) => Tap {
            node: *s,
            point: points[*s],
            delay: 0.0,
        },
        Topology::Internal(l, r) => {
            let tl = embed(l, points, edges);
            let tr = embed(r, points, edges);
            let (point, delay, wl, wr) = balance(&tl, &tr);
            let node = points.len();
            points.push(point);
            // Zero-length connections still need a positive weight for the
            // Edge type; epsilon wire is physically a via.
            edges.push(Edge::new(node, tl.node, wl.max(f64::MIN_POSITIVE)));
            edges.push(Edge::new(node, tr.node, wr.max(f64::MIN_POSITIVE)));
            Tap { node, point, delay }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_net(seed: u64, n: usize) -> Net {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..100.0), rng.gen_range(0.0..100.0)))
            .collect();
        Net::with_source_first(pts).unwrap()
    }

    #[test]
    fn skew_is_zero_on_random_nets() {
        for seed in 0..10 {
            let net = random_net(seed, 12);
            let zst = zero_skew_tree(&net);
            assert!(zst.skew() < 1e-9, "seed {seed}: skew {}", zst.skew());
            for t in 0..net.len() {
                assert!(zst.tree.is_covered(t), "seed {seed}: terminal {t}");
            }
        }
    }

    #[test]
    fn balance_midpoint_when_delays_equal() {
        let l = Tap {
            node: 0,
            point: Point::new(0.0, 0.0),
            delay: 0.0,
        };
        let r = Tap {
            node: 1,
            point: Point::new(4.0, 0.0),
            delay: 0.0,
        };
        let (p, d, wl, wr) = balance(&l, &r);
        assert_eq!(p, Point::new(2.0, 0.0));
        assert_eq!(d, 2.0);
        assert_eq!((wl, wr), (2.0, 2.0));
    }

    #[test]
    fn balance_shifts_towards_slower_side() {
        let l = Tap {
            node: 0,
            point: Point::new(0.0, 0.0),
            delay: 3.0,
        };
        let r = Tap {
            node: 1,
            point: Point::new(4.0, 0.0),
            delay: 0.0,
        };
        let (p, d, wl, wr) = balance(&l, &r);
        // x = (0 - 3 + 4)/2 = 0.5 from the left.
        assert_eq!(p, Point::new(0.5, 0.0));
        assert_eq!(d, 3.5);
        assert!((wl - 0.5).abs() < 1e-12 && (wr - 3.5).abs() < 1e-12);
        assert!(
            (3.0 + wl - (0.0 + wr)).abs() < 1e-12,
            "both sides equal delay"
        );
    }

    #[test]
    fn balance_snakes_when_one_side_is_far_slower() {
        let l = Tap {
            node: 0,
            point: Point::new(0.0, 0.0),
            delay: 10.0,
        };
        let r = Tap {
            node: 1,
            point: Point::new(2.0, 0.0),
            delay: 0.0,
        };
        let (p, d, wl, wr) = balance(&l, &r);
        assert_eq!(p, Point::new(0.0, 0.0)); // tap at the slow side
        assert_eq!(d, 10.0);
        assert_eq!(wl, 0.0);
        assert_eq!(wr, 10.0); // 2.0 of geometry + 8.0 of snaking
    }

    #[test]
    fn walk_l_path_both_legs() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert_eq!(walk_l_path(a, b, 0.0), a);
        assert_eq!(walk_l_path(a, b, 2.0), Point::new(2.0, 0.0));
        assert_eq!(walk_l_path(a, b, 3.0), Point::new(3.0, 0.0));
        assert_eq!(walk_l_path(a, b, 5.0), Point::new(3.0, 2.0));
        assert_eq!(walk_l_path(a, b, 7.0), b);
    }

    #[test]
    fn snaked_length_nonnegative_and_counted() {
        for seed in 0..6 {
            let net = random_net(seed + 40, 9);
            let zst = zero_skew_tree(&net);
            assert!(zst.snaked_length() >= -1e-9, "seed {seed}");
            // Wirelength = geometric length + snaking.
            let geometric: f64 = zst
                .tree
                .edges()
                .iter()
                .map(|e| zst.points[e.u].manhattan(zst.points[e.v]))
                .sum();
            assert!((zst.wirelength() - geometric - zst.snaked_length()).abs() < 1e-6);
        }
    }

    #[test]
    fn cheaper_than_node_branching_zero_skew() {
        // The paper's §6 point: Steiner branching (taps mid-wire) beats the
        // spanning construction's node branching at equal (zero) skew.
        use bmst_instances_free::figure13_like;
        let net = figure13_like();
        let zst = zero_skew_tree(&net);
        assert!(zst.skew() < 1e-9);
        if let Ok(lub) = bmst_core::lub_bkrus(&net, 1.0, 0.0) {
            assert!(
                zst.wirelength() <= lub.cost() + 1e-9,
                "DME {} vs LUB {}",
                zst.wirelength(),
                lub.cost()
            );
        }
    }

    /// Local stand-in for an equidistant sink family (avoids a dev-dep on
    /// bmst-instances).
    mod bmst_instances_free {
        use bmst_geom::{Net, Point};

        pub fn figure13_like() -> Net {
            let mut pts = vec![Point::new(0.0, 0.0)];
            for i in 0..8 {
                // Sinks on the L1 circle of radius 20: (20 - y, y).
                let y = 2.0 * i as f64;
                pts.push(Point::new(20.0 - y, y));
            }
            Net::with_source_first(pts).unwrap()
        }
    }

    #[test]
    fn trivial_nets() {
        let net = Net::with_source_first(vec![Point::new(5.0, 5.0)]).unwrap();
        let zst = zero_skew_tree(&net);
        assert_eq!(zst.wirelength(), 0.0);
        assert_eq!(zst.skew(), 0.0);

        let net = Net::with_source_first(vec![Point::new(0.0, 0.0), Point::new(3.0, 4.0)]).unwrap();
        let zst = zero_skew_tree(&net);
        assert!((zst.sink_path_length(1) - 7.0).abs() < 1e-6);
    }

    #[test]
    fn sink_path_equals_trunk_plus_top_delay() {
        let net = random_net(7, 10);
        let zst = zero_skew_tree(&net);
        let d0 = zst.sink_path_length(net.sinks().next().unwrap());
        for v in net.sinks() {
            assert!((zst.sink_path_length(v) - d0).abs() < 1e-9);
        }
        // The common path length is at least R (no tree can beat the direct
        // distance to the farthest sink).
        assert!(d0 + 1e-9 >= net.source_radius());
    }
}
