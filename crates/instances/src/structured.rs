//! Structured placement generators: sink distributions that stress the
//! algorithms differently from uniform clouds.
//!
//! Real placements are rarely uniform: registers cluster near their logic
//! cones, standard cells sit in rows, and I/O sinks ring the die. These
//! generators reproduce those shapes deterministically, for evaluation
//! breadth beyond the paper's uniform suites.

use bmst_geom::{Net, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Sinks grouped into `clusters` Gaussian-ish blobs spread over the die,
/// the source at the die centre.
///
/// Cluster placements are the adversarial middle ground between the
/// paper's p1 (one far cluster) and uniform clouds: bounded constructions
/// must choose between chaining within blobs and spokes between them.
///
/// # Panics
///
/// Panics if `clusters == 0` or `sinks_per_cluster == 0`, or if `side` is
/// not positive and finite.
#[expect(
    clippy::expect_used,
    reason = "generators draw from finite ranges, so coordinates are finite"
)]
pub fn clustered_net(clusters: usize, sinks_per_cluster: usize, side: f64, seed: u64) -> Net {
    assert!(
        clusters > 0 && sinks_per_cluster > 0,
        "need at least one sink"
    );
    assert!(side.is_finite() && side > 0.0, "die side must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let spread = side / (clusters as f64).sqrt() / 12.0;
    let mut pts = vec![Point::new(side / 2.0, side / 2.0)];
    for _ in 0..clusters {
        let cx = rng.gen_range(0.1 * side..0.9 * side);
        let cy = rng.gen_range(0.1 * side..0.9 * side);
        for _ in 0..sinks_per_cluster {
            // Triangular-ish jitter: the sum of two uniforms concentrates
            // sinks near the cluster centre.
            let dx = (rng.gen_range(-1.0..1.0f64) + rng.gen_range(-1.0..1.0)) * spread;
            let dy = (rng.gen_range(-1.0..1.0f64) + rng.gen_range(-1.0..1.0)) * spread;
            pts.push(Point::new(
                (cx + dx).clamp(0.0, side),
                (cy + dy).clamp(0.0, side),
            ));
        }
    }
    Net::with_source_first(pts).expect("generated points are finite")
}

/// Standard-cell-row placement: sinks on `rows` horizontal rows with
/// snapped y coordinates and random x, the source on the middle row's left
/// edge (a typical clock/scan entry point).
///
/// Row placements make the Hanan grid degenerate (few distinct y values) —
/// the regime the paper notes keeps Steiner grids small in practice.
///
/// # Panics
///
/// Panics if `rows == 0` or `sinks == 0`, or `side` is not positive/finite.
#[expect(
    clippy::expect_used,
    reason = "generators draw from finite ranges, so coordinates are finite"
)]
pub fn row_net(rows: usize, sinks: usize, side: f64, seed: u64) -> Net {
    assert!(rows > 0 && sinks > 0, "need rows and sinks");
    assert!(side.is_finite() && side > 0.0, "die side must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let row_pitch = side / rows as f64;
    let mid_row_y = (rows / 2) as f64 * row_pitch;
    let mut pts = vec![Point::new(0.0, mid_row_y)];
    for _ in 0..sinks {
        let row = rng.gen_range(0..rows);
        pts.push(Point::new(rng.gen_range(0.0..side), row as f64 * row_pitch));
    }
    Net::with_source_first(pts).expect("generated points are finite")
}

/// Sinks on a jittered ring around a central source (pad-ring style, and
/// the generalisation of the paper's p4).
///
/// # Panics
///
/// Panics if `sinks == 0` or `radius` is not positive/finite.
#[expect(
    clippy::expect_used,
    reason = "generators draw from finite ranges, so coordinates are finite"
)]
pub fn ring_net(sinks: usize, radius: f64, jitter: f64, seed: u64) -> Net {
    assert!(sinks > 0, "need sinks");
    assert!(
        radius.is_finite() && radius > 0.0,
        "radius must be positive"
    );
    assert!((0.0..1.0).contains(&jitter), "jitter must be in [0, 1)");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pts = vec![Point::new(0.0, 0.0)];
    for i in 0..sinks {
        let ang = std::f64::consts::TAU * (i as f64 + rng.gen_range(0.0..0.5)) / sinks as f64;
        let r = radius * (1.0 + jitter * rng.gen_range(-1.0..1.0));
        pts.push(Point::new(r * ang.cos(), r * ang.sin()));
    }
    Net::with_source_first(pts).expect("generated points are finite")
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;

    #[test]
    fn clustered_counts_and_bounds() {
        let net = clustered_net(4, 5, 100.0, 3);
        assert_eq!(net.num_sinks(), 20);
        let bb = net.bounding_box();
        assert!(bb.lo.x >= 0.0 && bb.hi.x <= 100.0);
        assert!(bb.lo.y >= 0.0 && bb.hi.y <= 100.0);
        assert_eq!(net, clustered_net(4, 5, 100.0, 3));
        assert_ne!(net, clustered_net(4, 5, 100.0, 4));
    }

    #[test]
    fn clustered_really_clusters() {
        // Nearest-neighbour distances must be far below the uniform
        // expectation for the same density.
        let net = clustered_net(3, 10, 100.0, 7);
        let mut nn_total = 0.0;
        for i in net.sinks() {
            let nn = net
                .sinks()
                .filter(|&j| j != i)
                .map(|j| net.dist(i, j))
                .fold(f64::INFINITY, f64::min);
            nn_total += nn;
        }
        let nn_avg = nn_total / net.num_sinks() as f64;
        // Uniform 30 points on 100x100 would average ~9-10 apart; clusters
        // compress that severalfold.
        assert!(nn_avg < 6.0, "average nearest neighbour {nn_avg}");
    }

    #[test]
    fn rows_snap_y() {
        let net = row_net(5, 30, 100.0, 11);
        assert_eq!(net.num_sinks(), 30);
        let pitch = 20.0;
        for v in net.sinks() {
            let y = net.point(v).y;
            let snapped = (y / pitch).round() * pitch;
            assert!((y - snapped).abs() < 1e-9, "y = {y} not on a row");
        }
        // Few distinct y values -> small Hanan grid (the property we want).
        let distinct_y: std::collections::HashSet<u64> =
            net.points().iter().map(|p| p.y.to_bits()).collect();
        assert!(distinct_y.len() <= 6);
    }

    #[test]
    fn ring_surrounds_source() {
        let net = ring_net(16, 50.0, 0.1, 9);
        assert_eq!(net.num_sinks(), 16);
        for v in net.sinks() {
            let d = net.point(v).euclidean(Point::new(0.0, 0.0));
            assert!((40.0..=60.0).contains(&d), "sink {v} at distance {d}");
        }
        // All four quadrants hit.
        let quadrants: std::collections::HashSet<(bool, bool)> = net
            .sinks()
            .map(|i| (net.point(i).x >= 0.0, net.point(i).y >= 0.0))
            .collect();
        assert_eq!(quadrants.len(), 4);
    }

    #[test]
    #[should_panic(expected = "at least one sink")]
    fn zero_clusters_panic() {
        clustered_net(0, 5, 100.0, 1);
    }

    #[test]
    #[should_panic(expected = "jitter")]
    fn bad_jitter_panics() {
        ring_net(4, 10.0, 1.5, 1);
    }
}
