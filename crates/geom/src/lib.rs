//! Planar geometry substrate for bounded path length routing trees.
//!
//! This crate provides the geometric primitives used by every algorithm in
//! the BMST reproduction: [`Point`]s in the plane, the Manhattan ([`Metric::L1`])
//! and Euclidean ([`Metric::L2`]) metrics, dense [`DistanceMatrix`]es, and the
//! [`Net`] type that bundles a source terminal with its sinks.
//!
//! The paper ("Constructing Minimal Spanning/Steiner Trees with Bounded Path
//! Length", ED&TC 1996) formulates everything on a set of terminals in L1 or
//! L2 space; all published results use the Manhattan metric.
//!
//! # Examples
//!
//! ```
//! use bmst_geom::{Metric, Net, Point};
//!
//! // A source at the origin driving three sinks.
//! let net = Net::new(
//!     vec![
//!         Point::new(0.0, 0.0),
//!         Point::new(4.0, 0.0),
//!         Point::new(0.0, 3.0),
//!         Point::new(4.0, 3.0),
//!     ],
//!     0,
//!     Metric::L1,
//! )?;
//! // R: direct distance from the source to the farthest sink.
//! assert_eq!(net.source_radius(), 7.0);
//! // r: direct distance from the source to the nearest sink.
//! assert_eq!(net.source_nearest(), 3.0);
//! # Ok::<(), bmst_geom::GeomError>(())
//! ```

#![forbid(unsafe_code)]
// Lint scopes: DESIGN.md §5a. Waive one site with `#[expect(<lint>, reason = "...")]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(missing_docs)]

mod grid;
mod matrix;
mod metric;
mod net;
mod point;

pub use grid::NeighborIndex;
pub use matrix::DistanceMatrix;
pub use metric::Metric;
pub use net::{GeomError, Net};
pub use point::{BoundingBox, Point};

/// Tolerance used throughout the workspace when comparing accumulated
/// floating-point lengths.
///
/// Path lengths are sums of O(V) coordinate differences; `1e-9` absolute
/// slack (relative to typical benchmark coordinates of magnitude `1e0..1e5`)
/// comfortably absorbs rounding while never confusing genuinely distinct
/// candidate edges in the published benchmarks.
pub const EPS_TOL: f64 = 1e-9;

/// Returns `true` when `a <= b` up to [`EPS_TOL`] absolute tolerance.
///
/// Every feasibility test in the BKRUS/BPRIM/BRBC family compares an
/// accumulated path length against the bound `(1 + eps) * R`; using a shared
/// tolerant comparison keeps all algorithms consistent with one another.
///
/// ```
/// assert!(bmst_geom::le_tol(1.0 + 1e-12, 1.0));
/// assert!(!bmst_geom::le_tol(1.0 + 1e-6, 1.0));
/// ```
#[inline]
pub fn le_tol(a: f64, b: f64) -> bool {
    a <= b + EPS_TOL
}

/// Returns `true` when `a` and `b` are equal up to [`EPS_TOL`] absolute
/// tolerance.
///
/// ```
/// assert!(bmst_geom::approx_eq(0.1 + 0.2, 0.3));
/// ```
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS_TOL
}
