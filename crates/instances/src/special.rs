//! The paper's hand-constructed adversarial benchmarks p1-p4.

use bmst_geom::{Net, Point};

/// p1: the Figure 13 configuration — a tight cluster of 5 sinks far from
/// the source.
///
/// The sinks sit on a small ring around `(20.2, 0)` so their direct source
/// distances span `[R - 0.4, R]` with `R ~ 20.4` and `r ~ 20.0` (Table 1).
/// At `eps = 0` no intra-cluster chaining is admissible and the BKT
/// degenerates to spokes, exhibiting the paper's
/// `cost(BKT) / cost(MST) ~ N` worst case; at `eps = inf` the MST chains
/// the cluster for cost barely above `R`.
pub fn p1() -> Net {
    p1_with_cluster(5)
}

/// The p1 family with a configurable cluster size (used by the Figure 13
/// pathology sweep, where `cost(BKT) / cost(MST)` grows linearly in the
/// number of sinks).
///
/// # Panics
///
/// Panics if `cluster == 0`.
#[expect(
    clippy::expect_used,
    reason = "coordinates are finite literals/arithmetic on finite inputs"
)]
pub fn p1_with_cluster(cluster: usize) -> Net {
    assert!(cluster > 0, "cluster must have at least one sink");
    let mut pts = vec![Point::new(0.0, 0.0)];
    // Sinks strung along the L1 circle band: sink i sits at
    // (r_i - y_i, y_i) with radius r_i rising from 20.0 to 20.4 and
    // vertical offset y_i = 0.75 * i, so direct distances span
    // [20.0, 20.4] while neighbouring sinks are ~1.4 apart — more than the
    // 0.4 slack that eps = 0 allows, so no intra-cluster merge is ever
    // feasible and the bounded tree degenerates to spokes.
    let denom = (cluster - 1).max(1) as f64;
    for i in 0..cluster {
        let r = 20.0 + 0.4 * i as f64 / denom;
        let y = 0.75 * i as f64;
        pts.push(Point::new(r - y, y));
    }
    Net::with_source_first(pts).expect("constructed points are finite")
}

/// A point on the L1 circle (diamond) of the given radius, parameterised by
/// `t` in `[0, 1)` walking the perimeter.
fn diamond_point(radius: f64, t: f64) -> (f64, f64) {
    let s = t.fract() * 4.0;
    // Branch on the quadrant instead of casting: s is in [0, 4).
    let leg = if s < 1.0 {
        0
    } else if s < 2.0 {
        1
    } else if s < 3.0 {
        2
    } else {
        3
    };
    let f = s.fract();
    match leg {
        0 => (radius * (1.0 - f), radius * f),  // (r,0) -> (0,r)
        1 => (-radius * f, radius * (1.0 - f)), // (0,r) -> (-r,0)
        2 => (radius * (f - 1.0), -radius * f), // (-r,0) -> (0,-r)
        _ => (radius * f, radius * (f - 1.0)),  // (0,-r) -> (r,0)
    }
}

/// p2: p1's far cluster (grown to 6 sinks) plus one intermediate sink
/// halfway between the source and the cluster, for 8 points total with
/// `r ~ 10` (Table 1).
///
/// The intermediate sink tempts tree-growing heuristics into routing the
/// cluster through it, consuming the path budget; BKRUS's cluster-first
/// merging avoids the trap.
#[expect(
    clippy::expect_used,
    reason = "coordinates are finite literals/arithmetic on finite inputs"
)]
pub fn p2() -> Net {
    let cluster = p1_with_cluster(6);
    let mut pts = vec![cluster.point(0), Point::new(10.0, 0.0)];
    pts.extend((1..cluster.len()).map(|i| cluster.point(i)));
    Net::with_source_first(pts).expect("constructed points are finite")
}

/// p3: the Figure 1 configuration — 17 points: the source, one near sink
/// (`r ~ 6`), and a 5x3 far cluster (`R ~ 16`) where BPRIM's per-node
/// budget collapses into direct source spokes while BKRUS chains the
/// cluster.
#[expect(
    clippy::expect_used,
    reason = "coordinates are finite literals/arithmetic on finite inputs"
)]
pub fn p3() -> Net {
    // 17 points: the source, a ring of 15 sinks around (9.1, 0) at L1
    // radius 3 (direct distances 6.1 .. 12.1, so r = 6.1), and one far sink
    // at (16, 0) defining R = 16. BPRIM's per-node budget (eps * dist) is
    // tiny for the near-ring sinks, forcing them onto direct spokes, while
    // BKRUS's global budget (eps * R) lets it chain the whole ring.
    let mut pts = vec![Point::new(0.0, 0.0)];
    for i in 0..15 {
        let t = (i as f64 + 0.5) / 15.0;
        let (dx, dy) = diamond_point(3.0, t);
        pts.push(Point::new(9.1 + dx, dy));
    }
    pts.push(Point::new(16.0, 0.0));
    Net::with_source_first(pts).expect("constructed points are finite")
}

/// p4: 30 sinks scattered around a circle of diameter 20 with the source at
/// the centre (31 points, `R = 10.4`, `r = 5.8`, Table 1).
///
/// "Scattered" uses a deterministic low-discrepancy jitter of the radius so
/// the instance is reproducible without a random number generator.
#[expect(
    clippy::expect_used,
    reason = "coordinates are finite literals/arithmetic on finite inputs"
)]
pub fn p4() -> Net {
    let mut pts = vec![Point::new(0.0, 0.0)];
    for i in 0..30 {
        let ang = std::f64::consts::TAU * i as f64 / 30.0;
        // Radius jitter in [5.8, 10.4] via the golden-ratio sequence, so R
        // and r land on the paper's Table 1 values (10.4 and 5.8).
        let frac = (i as f64 * 0.618_033_988_749_895).fract();
        // Ensure the extremes are actually hit: indices 0 and 1 are pinned.
        let r = match i {
            0 => 10.4,
            1 => 5.8,
            _ => 5.8 + 4.6 * frac,
        };
        // Scale so the *L1* distance stays near r regardless of angle.
        let (c, s) = (ang.cos(), ang.sin());
        let l1 = c.abs() + s.abs();
        pts.push(Point::new(r * c / l1, r * s / l1));
    }
    Net::with_source_first(pts).expect("constructed points are finite")
}

/// The idealised Figure 13 family: `n` sinks all at *exactly* the same
/// direct distance `R` from the source, spread along a short arc of the L1
/// circle.
///
/// With `eps = 0` the bound equals `R`, so no sink can afford any detour at
/// all: even the optimal bounded tree is the star of `n` spokes, costing
/// `~ n * R`, while the MST chains the arc for `~ R` — the paper's
/// `cost(BKT)/cost(MST) ~ N` worst case is inherent to the problem.
///
/// # Panics
///
/// Panics if `n == 0`.
#[expect(
    clippy::expect_used,
    reason = "coordinates are finite literals/arithmetic on finite inputs"
)]
pub fn figure13_family(n: usize) -> Net {
    assert!(n > 0, "family needs at least one sink");
    let radius = 20.4;
    let mut pts = vec![Point::new(0.0, 0.0)];
    for i in 0..n {
        // Spread over a tenth of the diamond perimeter near (radius, 0).
        let t = 0.95 + 0.1 * (i as f64 + 0.5) / n as f64;
        let (dx, dy) = diamond_point(radius, t);
        pts.push(Point::new(dx, dy));
    }
    Net::with_source_first(pts).expect("constructed points are finite")
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;

    #[test]
    fn p1_shape_matches_table1() {
        let net = p1();
        assert_eq!(net.len(), 6);
        let r_far = net.source_radius();
        let r_near = net.source_nearest();
        assert!((r_far - 20.4).abs() < 0.05, "R = {r_far}");
        assert!((r_near - 20.0).abs() < 0.05, "r = {r_near}");
        assert_eq!(net.complete_edge_count(), 15);
    }

    #[test]
    fn p2_has_midway_sink() {
        let net = p2();
        assert_eq!(net.len(), 8);
        assert!((net.source_nearest() - 10.0).abs() < 1e-9);
        assert!((net.source_radius() - 20.4).abs() < 0.05);
        assert_eq!(net.complete_edge_count(), 28);
    }

    #[test]
    fn p3_shape_matches_table1() {
        let net = p3();
        assert_eq!(net.len(), 17);
        assert!((net.source_nearest() - 6.1).abs() < 0.05);
        assert!((net.source_radius() - 16.0).abs() < 0.5);
        assert_eq!(net.complete_edge_count(), 136);
    }

    #[test]
    fn p4_ring_around_source() {
        let net = p4();
        assert_eq!(net.len(), 31);
        assert!(
            net.source_radius() <= 10.4 + 0.1,
            "R = {}",
            net.source_radius()
        );
        assert!(net.source_nearest() >= 5.0, "r = {}", net.source_nearest());
        assert_eq!(net.complete_edge_count(), 465);
        // Every sink really surrounds the source: all four quadrants hit.
        let quadrants: std::collections::HashSet<(bool, bool)> = net
            .sinks()
            .map(|i| {
                let p = net.point(i);
                (p.x >= 0.0, p.y >= 0.0)
            })
            .collect();
        assert_eq!(quadrants.len(), 4);
    }

    #[test]
    fn p1_family_scales() {
        for n in [1, 3, 10, 25] {
            let net = p1_with_cluster(n);
            assert_eq!(net.num_sinks(), n);
            assert!(net.source_radius() <= 20.4 + 1e-9);
        }
    }

    #[test]
    fn diamond_point_stays_on_l1_circle() {
        for i in 0..16 {
            let (dx, dy) = diamond_point(0.2, i as f64 / 16.0);
            assert!((dx.abs() + dy.abs() - 0.2).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "at least one sink")]
    fn empty_cluster_panics() {
        p1_with_cluster(0);
    }

    #[test]
    fn figure13_family_equidistant() {
        for n in [1, 5, 17] {
            let net = figure13_family(n);
            assert_eq!(net.num_sinks(), n);
            for v in net.sinks() {
                assert!((net.dist(0, v) - 20.4).abs() < 1e-9, "sink {v}");
            }
        }
    }

    #[test]
    fn p4_extremes_match_table1() {
        let net = p4();
        assert!((net.source_radius() - 10.4).abs() < 1e-9);
        assert!((net.source_nearest() - 5.8).abs() < 1e-9);
    }
}
