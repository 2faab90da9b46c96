//! Signal nets: a source terminal plus its sinks.

use std::error::Error;
use std::fmt;

use crate::{BoundingBox, DistanceMatrix, Metric, Point};

/// Errors produced when constructing or validating geometric inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GeomError {
    /// The terminal list was empty.
    EmptyNet,
    /// The source index is out of bounds for the terminal list.
    SourceOutOfBounds {
        /// The offending index.
        source: usize,
        /// Number of terminals in the net.
        len: usize,
    },
    /// A terminal has a NaN or infinite coordinate.
    NonFinitePoint {
        /// Index of the offending terminal.
        index: usize,
    },
}

impl fmt::Display for GeomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeomError::EmptyNet => f.write_str("net has no terminals"),
            GeomError::SourceOutOfBounds { source, len } => {
                write!(f, "source index {source} out of bounds for {len} terminals")
            }
            GeomError::NonFinitePoint { index } => {
                write!(f, "terminal {index} has a non-finite coordinate")
            }
        }
    }
}

impl Error for GeomError {}

/// A signal net: a set of terminals in the plane with one distinguished
/// *source* (the driver) and a metric.
///
/// Node indices `0..len()` identify terminals everywhere in the workspace;
/// the source is `source()` and every other index is a sink. The paper's two
/// characteristic lengths are exposed directly:
///
/// * `R` = [`Net::source_radius`] — direct distance from the source to the
///   *farthest* sink; the path-length bound is `(1 + eps) * R`.
/// * `r` = [`Net::source_nearest`] — direct distance from the source to the
///   *nearest* sink (reported in the paper's Table 1).
///
/// # Examples
///
/// ```
/// use bmst_geom::{Metric, Net, Point};
///
/// let net = Net::new(
///     vec![Point::new(0.0, 0.0), Point::new(5.0, 0.0), Point::new(0.0, 2.0)],
///     0,
///     Metric::L1,
/// )?;
/// assert_eq!(net.len(), 3);
/// assert_eq!(net.num_sinks(), 2);
/// assert_eq!(net.source_radius(), 5.0);
/// assert_eq!(net.source_nearest(), 2.0);
/// assert_eq!(net.path_bound(0.2), 6.0);
/// # Ok::<(), bmst_geom::GeomError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    points: Vec<Point>,
    source: usize,
    metric: Metric,
}

impl Net {
    /// Creates a net from terminal coordinates, the index of the source
    /// terminal, and the wirelength metric.
    ///
    /// # Errors
    ///
    /// * [`GeomError::EmptyNet`] if `points` is empty.
    /// * [`GeomError::SourceOutOfBounds`] if `source >= points.len()`.
    /// * [`GeomError::NonFinitePoint`] if any coordinate is NaN/infinite.
    pub fn new(points: Vec<Point>, source: usize, metric: Metric) -> Result<Self, GeomError> {
        if points.is_empty() {
            return Err(GeomError::EmptyNet);
        }
        if source >= points.len() {
            return Err(GeomError::SourceOutOfBounds {
                source,
                len: points.len(),
            });
        }
        if let Some(index) = points.iter().position(|p| !p.is_finite()) {
            return Err(GeomError::NonFinitePoint { index });
        }
        Ok(Net {
            points,
            source,
            metric,
        })
    }

    /// Convenience constructor: terminal 0 is the source, Manhattan metric.
    ///
    /// This matches the layout of every benchmark in the reproduction.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Net::new`].
    pub fn with_source_first(points: Vec<Point>) -> Result<Self, GeomError> {
        Net::new(points, 0, Metric::L1)
    }

    /// All terminals, source included, indexed by node id.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Coordinates of node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn point(&self, i: usize) -> Point {
        self.points[i]
    }

    /// Index of the source terminal.
    #[inline]
    pub fn source(&self) -> usize {
        self.source
    }

    /// The wirelength metric.
    #[inline]
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Total number of terminals (source + sinks).
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the net has no terminals. Always `false` for a
    /// constructed `Net` (construction rejects empty nets), provided for
    /// clippy-idiomatic pairing with [`Net::len`].
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of sinks (terminals excluding the source).
    #[inline]
    pub fn num_sinks(&self) -> usize {
        self.points.len() - 1
    }

    /// Iterator over sink indices (all node ids except the source).
    pub fn sinks(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.points.len()).filter(move |&i| i != self.source)
    }

    /// Distance between nodes `i` and `j` under the net's metric.
    #[inline]
    pub fn dist(&self, i: usize, j: usize) -> f64 {
        self.metric.dist(self.points[i], self.points[j])
    }

    /// `R`: direct distance from the source to the farthest sink
    /// (0 for a net with no sinks).
    ///
    /// This is the paper's `R`, the radius of the shortest path tree and the
    /// reference length for the bound `(1 + eps) * R`.
    pub fn source_radius(&self) -> f64 {
        self.sinks()
            .map(|i| self.dist(self.source, i))
            .fold(0.0, f64::max)
    }

    /// `r`: direct distance from the source to the nearest sink
    /// (0 for a net with no sinks).
    pub fn source_nearest(&self) -> f64 {
        self.sinks()
            .map(|i| self.dist(self.source, i))
            .fold(f64::INFINITY, f64::min)
            .min(if self.num_sinks() == 0 {
                0.0
            } else {
                f64::INFINITY
            })
    }

    /// The upper path-length bound `(1 + eps) * R`.
    ///
    /// `eps = f64::INFINITY` yields an infinite bound, i.e. the unconstrained
    /// MST case written as `eps = inf` in the paper's tables.
    #[inline]
    pub fn path_bound(&self, eps: f64) -> f64 {
        if eps.is_infinite() {
            f64::INFINITY
        } else {
            (1.0 + eps) * self.source_radius()
        }
    }

    /// Pairwise distance matrix of all terminals (the paper's `D`).
    pub fn distance_matrix(&self) -> DistanceMatrix {
        DistanceMatrix::from_points(&self.points, self.metric)
    }

    /// Bounding box of all terminals.
    ///
    /// # Panics
    ///
    /// Never panics for a constructed `Net` (nets are non-empty).
    #[expect(
        clippy::expect_used,
        reason = "Net constructors reject empty point sets"
    )]
    pub fn bounding_box(&self) -> BoundingBox {
        BoundingBox::of(self.points.iter().copied()).expect("nets are non-empty")
    }

    /// Number of edges in the complete graph on the terminals,
    /// `V * (V - 1) / 2` (the paper's Table 1 "# of edges" column).
    #[inline]
    pub fn complete_edge_count(&self) -> usize {
        self.points.len() * (self.points.len() - 1) / 2
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;

    fn tri_net() -> Net {
        Net::with_source_first(vec![
            Point::new(0.0, 0.0),
            Point::new(5.0, 0.0),
            Point::new(0.0, 2.0),
        ])
        .unwrap()
    }

    #[test]
    fn empty_net_rejected() {
        assert_eq!(Net::with_source_first(vec![]), Err(GeomError::EmptyNet));
    }

    #[test]
    fn bad_source_rejected() {
        let err = Net::new(vec![Point::ORIGIN], 1, Metric::L1).unwrap_err();
        assert_eq!(err, GeomError::SourceOutOfBounds { source: 1, len: 1 });
    }

    #[test]
    fn non_finite_point_rejected() {
        let err =
            Net::with_source_first(vec![Point::ORIGIN, Point::new(f64::NAN, 0.0)]).unwrap_err();
        assert_eq!(err, GeomError::NonFinitePoint { index: 1 });
    }

    #[test]
    fn radius_and_nearest() {
        let net = tri_net();
        assert_eq!(net.source_radius(), 5.0);
        assert_eq!(net.source_nearest(), 2.0);
    }

    #[test]
    fn single_terminal_net_has_zero_radius() {
        let net = Net::with_source_first(vec![Point::ORIGIN]).unwrap();
        assert_eq!(net.num_sinks(), 0);
        assert_eq!(net.source_radius(), 0.0);
        assert_eq!(net.source_nearest(), 0.0);
    }

    #[test]
    fn path_bound_scales_radius() {
        let net = tri_net();
        assert_eq!(net.path_bound(0.0), 5.0);
        assert_eq!(net.path_bound(1.0), 10.0);
        assert_eq!(net.path_bound(f64::INFINITY), f64::INFINITY);
    }

    #[test]
    fn sinks_iterator_skips_source() {
        let net = Net::new(
            vec![Point::ORIGIN, Point::new(1.0, 0.0), Point::new(2.0, 0.0)],
            1,
            Metric::L1,
        )
        .unwrap();
        let sinks: Vec<usize> = net.sinks().collect();
        assert_eq!(sinks, vec![0, 2]);
    }

    #[test]
    fn distance_matrix_matches_dist() {
        let net = tri_net();
        let d = net.distance_matrix();
        for i in 0..net.len() {
            for j in 0..net.len() {
                assert_eq!(d[(i, j)], net.dist(i, j));
            }
        }
    }

    #[test]
    fn complete_edge_count_formula() {
        assert_eq!(tri_net().complete_edge_count(), 3);
        let net6 =
            Net::with_source_first((0..6).map(|i| Point::new(i as f64, 0.0)).collect()).unwrap();
        assert_eq!(net6.complete_edge_count(), 15); // matches paper's p1 row
    }

    #[test]
    fn errors_display() {
        assert!(GeomError::EmptyNet.to_string().contains("no terminals"));
        assert!(GeomError::SourceOutOfBounds { source: 3, len: 2 }
            .to_string()
            .contains("out of bounds"));
        assert!(GeomError::NonFinitePoint { index: 0 }
            .to_string()
            .contains("non-finite"));
    }
}
