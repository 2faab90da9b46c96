//! Scaling-study instance generators: nets sized for 100–50k sinks at
//! constant point density, so n-sweeps measure algorithmic scaling rather
//! than changing geometry.
//!
//! The die side grows as `sqrt(n)` (10 units of side per sqrt-sink), which
//! keeps expected nearest-neighbour distance roughly constant across sizes
//! — the regime the paper's Table 2 benchmarks and the sparsification
//! papers in PAPERS.md assume. Four styles cover the placement shapes a
//! router actually sees (plus one adversarial stress case):
//!
//! * [`ScaleStyle::Uniform`] — i.i.d. uniform cloud, the baseline;
//! * [`ScaleStyle::Clustered`] — Gaussian-ish blobs around `~sqrt(n)`
//!   seeded centres, modelling macro-dominated placements;
//! * [`ScaleStyle::Grid`] — jittered lattice, modelling datapath rows;
//! * [`ScaleStyle::Pathological`] — half the sinks exactly collinear, the
//!   rest packed into a near-degenerate cluster, stressing geometric
//!   acceleration structures that assume benign density.
//!
//! All generators are `O(n)`, fully determined by `(n, seed, style)`, and
//! put the source at node 0 in the die centre.

use bmst_geom::{Net, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Placement style for [`scaled_net`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScaleStyle {
    /// I.i.d. uniform over the die.
    Uniform,
    /// Sinks gathered into `~sqrt(n)` uniform-square blobs.
    Clustered,
    /// Jittered lattice: one sink per cell, offset up to 30% of the pitch.
    Grid,
    /// Adversarial layout for geometric indexes: half the sinks sit exactly
    /// on one horizontal line, the other half are crammed into a cluster
    /// whose diameter is a millionth of the die side.
    Pathological,
}

impl ScaleStyle {
    /// All styles, for sweep drivers. `Pathological` is deliberately last so
    /// drivers that sample `ALL[i % 3]` keep their historical composition.
    pub const ALL: [ScaleStyle; 4] = [
        ScaleStyle::Uniform,
        ScaleStyle::Clustered,
        ScaleStyle::Grid,
        ScaleStyle::Pathological,
    ];

    /// Stable lowercase name (used in bench record keys).
    pub fn name(self) -> &'static str {
        match self {
            ScaleStyle::Uniform => "uniform",
            ScaleStyle::Clustered => "clustered",
            ScaleStyle::Grid => "grid",
            ScaleStyle::Pathological => "pathological",
        }
    }
}

/// Die side for `n` sinks: `10 * sqrt(n)`, clamped to at least 10, so
/// density stays constant as `n` grows.
fn die_side(num_sinks: usize) -> f64 {
    let n = num_sinks.max(1) as f64;
    10.0 * n.sqrt()
}

/// A deterministic `n`-sink net for scaling studies: constant density,
/// source at node 0 in the die centre, style-dependent sink placement.
///
/// # Panics
///
/// Never for `num_sinks` in the supported range (the generators draw from
/// finite ranges); the internal `expect` guards the finite-coordinate
/// invariant of [`Net::with_source_first`].
#[expect(
    clippy::expect_used,
    reason = "generators draw from finite ranges, so coordinates are finite"
)]
pub fn scaled_net(num_sinks: usize, seed: u64, style: ScaleStyle) -> Net {
    let side = die_side(num_sinks);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5CA1_EDBE_u64.rotate_left(style as u32 * 8));
    let mut pts = Vec::with_capacity(num_sinks + 1);
    // Source first (node 0), centred in the die.
    pts.push(Point::new(side / 2.0, side / 2.0));
    match style {
        ScaleStyle::Uniform => {
            for _ in 0..num_sinks {
                pts.push(Point::new(
                    rng.gen_range(0.0..side),
                    rng.gen_range(0.0..side),
                ));
            }
        }
        ScaleStyle::Clustered => {
            // ~sqrt(n) blobs whose width is ~8% of the die: dense locally,
            // spread globally.
            #[expect(
                clippy::cast_possible_truncation,
                reason = "f64→usize of a sqrt of a small count, always in range"
            )]
            let clusters = ((num_sinks.max(1) as f64).sqrt().ceil() as usize).max(1);
            let spread = (side * 0.08).max(1.0);
            let centres: Vec<Point> = (0..clusters)
                .map(|_| {
                    Point::new(
                        rng.gen_range(spread..(side - spread).max(spread + 1.0)),
                        rng.gen_range(spread..(side - spread).max(spread + 1.0)),
                    )
                })
                .collect();
            for i in 0..num_sinks {
                let c = centres[i % clusters];
                pts.push(Point::new(
                    (c.x + rng.gen_range(-spread..spread)).clamp(0.0, side),
                    (c.y + rng.gen_range(-spread..spread)).clamp(0.0, side),
                ));
            }
        }
        ScaleStyle::Grid => {
            // Smallest square lattice with >= n cells; fill row-major and
            // jitter each sink within 30% of the pitch.
            #[expect(
                clippy::cast_possible_truncation,
                reason = "f64→usize of a sqrt of a small count, always in range"
            )]
            let cols = ((num_sinks.max(1) as f64).sqrt().ceil() as usize).max(1);
            let pitch = side / cols as f64;
            let jitter = pitch * 0.3;
            for i in 0..num_sinks {
                let (cx, cy) = (
                    ((i % cols) as f64 + 0.5) * pitch,
                    ((i / cols) as f64 + 0.5) * pitch,
                );
                pts.push(Point::new(
                    (cx + rng.gen_range(-jitter..jitter)).clamp(0.0, side),
                    (cy + rng.gen_range(-jitter..jitter)).clamp(0.0, side),
                ));
            }
        }
        ScaleStyle::Pathological => {
            // Worst case for grid-bucket indexes: the first half shares one
            // exact y (an entire row of occupied cells on one line), the
            // second half collapses into a cluster ~1e-6 of the die wide
            // (thousands of points in a single cell).
            let on_line = num_sinks / 2;
            let line_y = side / 2.0;
            for _ in 0..on_line {
                pts.push(Point::new(rng.gen_range(0.0..side), line_y));
            }
            // `die_side` clamps to >= 10, so `blob` is always positive.
            let blob = side * 1e-6;
            let centre = Point::new(side * 0.25, side * 0.75);
            for _ in on_line..num_sinks {
                pts.push(Point::new(
                    centre.x + rng.gen_range(-blob..blob),
                    centre.y + rng.gen_range(-blob..blob),
                ));
            }
        }
    }
    Net::with_source_first(pts).expect("generated points are finite")
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;

    #[test]
    fn sizes_and_source_position() {
        for style in ScaleStyle::ALL {
            let net = scaled_net(100, 1, style);
            assert_eq!(net.num_sinks(), 100, "{style:?}");
            assert_eq!(net.source(), 0);
            let side = die_side(100);
            assert_eq!(net.points()[0], Point::new(side / 2.0, side / 2.0));
            let bb = net.bounding_box();
            assert!(bb.hi.x <= side && bb.hi.y <= side, "{style:?}");
            assert!(bb.lo.x >= 0.0 && bb.lo.y >= 0.0, "{style:?}");
        }
    }

    #[test]
    fn deterministic_per_seed_and_style() {
        for style in ScaleStyle::ALL {
            assert_eq!(scaled_net(64, 9, style), scaled_net(64, 9, style));
            assert_ne!(scaled_net(64, 9, style), scaled_net(64, 10, style));
        }
        // Styles must not alias each other under the same seed.
        assert_ne!(
            scaled_net(64, 9, ScaleStyle::Uniform),
            scaled_net(64, 9, ScaleStyle::Clustered)
        );
        assert_ne!(
            scaled_net(64, 9, ScaleStyle::Uniform),
            scaled_net(64, 9, ScaleStyle::Grid)
        );
        assert_ne!(
            scaled_net(64, 9, ScaleStyle::Uniform),
            scaled_net(64, 9, ScaleStyle::Pathological)
        );
    }

    #[test]
    fn density_is_roughly_constant() {
        // Side grows as sqrt(n): quadrupling n doubles the side.
        assert!((die_side(400) / die_side(100) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn style_names_are_stable() {
        assert_eq!(ScaleStyle::Uniform.name(), "uniform");
        assert_eq!(ScaleStyle::Clustered.name(), "clustered");
        assert_eq!(ScaleStyle::Grid.name(), "grid");
        assert_eq!(ScaleStyle::Pathological.name(), "pathological");
    }

    #[test]
    fn pathological_layout_shape() {
        let net = scaled_net(1000, 7, ScaleStyle::Pathological);
        let side = die_side(1000);
        let pts = net.points();
        // First half (after the source) collinear on y = side/2.
        let on_line = pts[1..=500].iter().filter(|p| p.y == side / 2.0).count();
        assert_eq!(on_line, 500);
        // Second half confined to a blob of diameter ~2e-6 * side.
        let blob = side * 1e-6;
        for p in &pts[501..] {
            assert!((p.x - side * 0.25).abs() <= blob, "{p:?}");
            assert!((p.y - side * 0.75).abs() <= blob, "{p:?}");
        }
    }

    #[test]
    fn pathological_snapshot_is_pinned() {
        // Fixed-seed snapshot: any change to the generator (RNG stream,
        // layout constants, ordering) must show up here as a diff, because
        // bench records and golden tests key off these exact coordinates.
        let net = scaled_net(4, 42, ScaleStyle::Pathological);
        let rendered: Vec<String> = net
            .points()
            .iter()
            .map(|p| format!("({:?}, {:?})", p.x, p.y))
            .collect();
        assert_eq!(
            rendered,
            [
                "(10.0, 10.0)",
                "(16.886500435780448, 10.0)",
                "(15.617418478303438, 10.0)",
                "(5.000002818493857, 14.999981718362438)",
                "(4.999998125818847, 15.000000072886124)",
            ],
            "Pathological generator output drifted for (n=4, seed=42)"
        );
    }

    #[test]
    fn pathological_scales_to_a_million_sinks() {
        // The adversarial generator must stay O(n) like the benign ones:
        // a 1M-sink net generates in well under a second.
        let net = scaled_net(1_000_000, 5, ScaleStyle::Pathological);
        assert_eq!(net.num_sinks(), 1_000_000);
        let net = scaled_net(10_000, 5, ScaleStyle::Pathological);
        assert_eq!(net.num_sinks(), 10_000);
    }

    #[test]
    fn large_sizes_stay_linear_time() {
        // 50k sinks must generate near-instantly (O(n)); this is the upper
        // end of the supported range.
        let net = scaled_net(50_000, 2, ScaleStyle::Grid);
        assert_eq!(net.num_sinks(), 50_000);
    }

    #[test]
    fn tiny_nets_are_valid() {
        for style in ScaleStyle::ALL {
            let net = scaled_net(1, 3, style);
            assert_eq!(net.num_sinks(), 1);
        }
    }
}
