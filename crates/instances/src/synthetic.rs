//! Seeded synthetic instance generators: uniform clouds (pr*/r*
//! substitutes) and the paper's random net suite.

use bmst_geom::{Net, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A uniform random sink cloud in the square `[0, side]^2` with an appended
/// source, mirroring how the paper appended a source to the r* and primary*
/// benchmarks ("we added one more node as the source ... because they did
/// not come with a source").
///
/// The source is drawn from the same distribution (uniform in the die), and
/// node 0 is the source as everywhere in this workspace.
///
/// # Panics
///
/// Panics if `side` is not positive and finite.
#[expect(
    clippy::expect_used,
    reason = "generators draw from finite ranges, so coordinates are finite"
)]
pub fn uniform_cloud(num_sinks: usize, side: f64, seed: u64) -> Net {
    assert!(
        side.is_finite() && side > 0.0,
        "die side must be positive, got {side}"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pts = Vec::with_capacity(num_sinks + 1);
    // Source first (node 0).
    pts.push(Point::new(
        rng.gen_range(0.0..side),
        rng.gen_range(0.0..side),
    ));
    for _ in 0..num_sinks {
        pts.push(Point::new(
            rng.gen_range(0.0..side),
            rng.gen_range(0.0..side),
        ));
    }
    Net::with_source_first(pts).expect("generated points are finite")
}

/// One random test net with `num_sinks` sinks, as used for the paper's
/// benchmark set (4). Uniform in `[0, 100]^2`, source included in the draw.
pub fn random_net(num_sinks: usize, seed: u64) -> Net {
    uniform_cloud(num_sinks, 100.0, seed)
}

/// The paper's random suite: `count` seeded nets of `num_sinks` sinks
/// (the paper uses 50 cases per size in {5, 8, 10, 12, 15}).
///
/// Seeds are derived as `base_seed + index`, so suites are reproducible and
/// non-overlapping across sizes when `base_seed` differs.
pub fn random_suite(num_sinks: usize, count: usize, base_seed: u64) -> Vec<Net> {
    (0..count)
        .map(|i| random_net(num_sinks, base_seed + i as u64))
        .collect()
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;

    #[test]
    fn cloud_has_requested_size_and_bounds() {
        let net = uniform_cloud(25, 50.0, 7);
        assert_eq!(net.len(), 26);
        assert_eq!(net.source(), 0);
        let bb = net.bounding_box();
        assert!(bb.lo.x >= 0.0 && bb.hi.x <= 50.0);
        assert!(bb.lo.y >= 0.0 && bb.hi.y <= 50.0);
    }

    #[test]
    fn same_seed_same_net() {
        assert_eq!(uniform_cloud(10, 100.0, 3), uniform_cloud(10, 100.0, 3));
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(uniform_cloud(10, 100.0, 3), uniform_cloud(10, 100.0, 4));
    }

    #[test]
    fn suite_counts_and_determinism() {
        let suite = random_suite(8, 5, 1000);
        assert_eq!(suite.len(), 5);
        for net in &suite {
            assert_eq!(net.num_sinks(), 8);
        }
        assert_eq!(suite, random_suite(8, 5, 1000));
        assert_ne!(suite[0], suite[1]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bad_side_panics() {
        uniform_cloud(5, 0.0, 1);
    }

    #[test]
    fn zero_sinks_is_a_lonely_source() {
        let net = uniform_cloud(0, 10.0, 9);
        assert_eq!(net.len(), 1);
        assert_eq!(net.source_radius(), 0.0);
    }
}
