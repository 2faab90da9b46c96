//! Benchmark instances for the BMST reproduction (paper §7).
//!
//! The paper evaluates on four benchmark families:
//!
//! 1. **p1-p4** — hand-constructed adversarial configurations ("generated
//!    specially to test extreme results"). The paper describes each one's
//!    generative rule (Figure 13 shape, Figure 1 shape, a circle of diameter
//!    20); we rebuild them from those descriptions.
//! 2. **pr1, pr2** — sink placements of the MCNC Primary1/Primary2
//!    benchmarks. The original placements are not redistributable, so we
//!    substitute seeded uniform sink clouds with the same terminal counts
//!    and a die size chosen to match the published R scale (see DESIGN.md).
//! 3. **r1-r5** — Tsay's zero-skew benchmarks, substituted the same way. A
//!    source node is appended exactly as the paper appended one.
//! 4. **Random nets** — 50 seeded uniform cases per net size in
//!    {5, 8, 10, 12, 15}, the paper's own methodology.
//!
//! Every generator is deterministic (fixed or caller-provided seeds).
//!
//! # Examples
//!
//! ```
//! use bmst_instances::{random_net, Benchmark};
//!
//! let p1 = Benchmark::P1.build();
//! assert_eq!(p1.len(), 6); // matches the paper's Table 1 row
//!
//! let net = random_net(10, 42);
//! assert_eq!(net.num_sinks(), 10);
//! ```

#![forbid(unsafe_code)]
// Lint scopes: DESIGN.md §5a. Waive one site with `#[expect(<lint>, reason = "...")]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod scaled;
mod special;
mod stats;
mod structured;
mod synthetic;

pub use scaled::{scaled_net, ScaleStyle};
pub use special::{figure13_family, p1, p1_with_cluster, p2, p3, p4};
pub use stats::InstanceStats;
pub use structured::{clustered_net, ring_net, row_net};
pub use synthetic::{random_net, random_suite, uniform_cloud};

use bmst_geom::Net;

/// The named benchmarks of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// Far tight cluster (Figure 13 shape), 6 points.
    P1,
    /// P1 plus an intermediate sink, 8 points.
    P2,
    /// The Figure 1 BPRIM-pathology layout, 17 points.
    P3,
    /// Sinks scattered around a circle of diameter 20, 31 points.
    P4,
    /// MCNC Primary1 substitute, 270 points.
    Pr1,
    /// MCNC Primary2 substitute, 604 points.
    Pr2,
    /// Tsay r1 substitute, 268 points.
    R1,
    /// Tsay r2 substitute, 599 points.
    R2,
    /// Tsay r3 substitute, 863 points.
    R3,
    /// Tsay r4 substitute, 1904 points.
    R4,
    /// Tsay r5 substitute, 3102 points.
    R5,
}

impl Benchmark {
    /// All benchmarks, in the paper's Table 1 order.
    pub const ALL: [Benchmark; 11] = [
        Benchmark::P1,
        Benchmark::P2,
        Benchmark::P3,
        Benchmark::P4,
        Benchmark::Pr1,
        Benchmark::Pr2,
        Benchmark::R1,
        Benchmark::R2,
        Benchmark::R3,
        Benchmark::R4,
        Benchmark::R5,
    ];

    /// The four small special benchmarks (suitable for the exact methods).
    pub const SPECIAL: [Benchmark; 4] =
        [Benchmark::P1, Benchmark::P2, Benchmark::P3, Benchmark::P4];

    /// The large benchmarks of the paper's Table 3.
    pub const LARGE: [Benchmark; 7] = [
        Benchmark::Pr1,
        Benchmark::Pr2,
        Benchmark::R1,
        Benchmark::R2,
        Benchmark::R3,
        Benchmark::R4,
        Benchmark::R5,
    ];

    /// The benchmark's name as printed in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::P1 => "p1",
            Benchmark::P2 => "p2",
            Benchmark::P3 => "p3",
            Benchmark::P4 => "p4",
            Benchmark::Pr1 => "pr1",
            Benchmark::Pr2 => "pr2",
            Benchmark::R1 => "r1",
            Benchmark::R2 => "r2",
            Benchmark::R3 => "r3",
            Benchmark::R4 => "r4",
            Benchmark::R5 => "r5",
        }
    }

    /// Total number of terminals (source included), matching Table 1's
    /// "# of pts." column.
    pub fn num_points(self) -> usize {
        match self {
            Benchmark::P1 => 6,
            Benchmark::P2 => 8,
            Benchmark::P3 => 17,
            Benchmark::P4 => 31,
            Benchmark::Pr1 => 270,
            Benchmark::Pr2 => 604,
            Benchmark::R1 => 268,
            Benchmark::R2 => 599,
            Benchmark::R3 => 863,
            Benchmark::R4 => 1904,
            Benchmark::R5 => 3102,
        }
    }

    /// Builds the benchmark net. Deterministic (fixed seeds for the
    /// synthetic substitutes).
    pub fn build(self) -> Net {
        match self {
            Benchmark::P1 => p1(),
            Benchmark::P2 => p2(),
            Benchmark::P3 => p3(),
            Benchmark::P4 => p4(),
            // Coordinate scales chosen so R lands near the paper's Table 1
            // values (542, 981, 58 700, 86 554, 85 509, 124 357, 138 318).
            Benchmark::Pr1 => uniform_cloud(269, 400.0, 0xBEEF_0001),
            Benchmark::Pr2 => uniform_cloud(603, 700.0, 0xBEEF_0002),
            Benchmark::R1 => uniform_cloud(267, 42_000.0, 0xBEEF_0101),
            Benchmark::R2 => uniform_cloud(598, 62_000.0, 0xBEEF_0102),
            Benchmark::R3 => uniform_cloud(862, 61_000.0, 0xBEEF_0103),
            Benchmark::R4 => uniform_cloud(1903, 89_000.0, 0xBEEF_0104),
            Benchmark::R5 => uniform_cloud(3101, 99_000.0, 0xBEEF_0105),
        }
    }

    /// Table 1 statistics for this benchmark.
    pub fn stats(self) -> InstanceStats {
        InstanceStats::of(self.name(), &self.build())
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;

    #[test]
    fn point_counts_match_table1() {
        for b in Benchmark::SPECIAL {
            assert_eq!(b.build().len(), b.num_points(), "{}", b.name());
        }
        // The large substitutes are validated by count without building the
        // biggest ones repeatedly.
        assert_eq!(Benchmark::Pr1.build().len(), 270);
        assert_eq!(Benchmark::R1.build().len(), 268);
    }

    #[test]
    fn builds_are_deterministic() {
        let a = Benchmark::Pr1.build();
        let b = Benchmark::Pr1.build();
        assert_eq!(a, b);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), Benchmark::ALL.len());
    }
}
