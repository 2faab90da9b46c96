//! The Hanan grid: the canonical Steiner candidate grid.

use bmst_geom::Point;

/// The Hanan grid of a terminal set: the intersections of the horizontal
/// and vertical lines through every terminal.
///
/// Hanan's theorem (1966) guarantees an optimal rectilinear Steiner tree
/// exists whose Steiner points all lie on this grid, which is why the
/// paper's BKST restricts its paths to it.
///
/// Grid nodes are addressed by index pairs `(xi, yi)` into the sorted,
/// deduplicated coordinate ladders.
///
/// # Examples
///
/// ```
/// use bmst_geom::Point;
/// use bmst_steiner::HananGrid;
///
/// let grid = HananGrid::new(&[
///     Point::new(0.0, 0.0),
///     Point::new(2.0, 1.0),
///     Point::new(1.0, 3.0),
/// ]);
/// assert_eq!(grid.width(), 3);   // x in {0, 1, 2}
/// assert_eq!(grid.height(), 3);  // y in {0, 1, 3}
/// assert_eq!(grid.node_count(), 9);
/// assert_eq!(grid.coordinate(1, 2), Point::new(1.0, 3.0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HananGrid {
    xs: Vec<f64>,
    ys: Vec<f64>,
}

impl HananGrid {
    /// Builds the grid from a terminal set.
    ///
    /// Coordinates are deduplicated by exact equality (benchmark terminals
    /// are generated, not measured, so exact comparison is appropriate).
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or contains non-finite coordinates.
    pub fn new(points: &[Point]) -> Self {
        assert!(!points.is_empty(), "Hanan grid of an empty point set");
        assert!(
            points.iter().all(|p| p.is_finite()),
            "non-finite terminal coordinate"
        );
        let mut xs: Vec<f64> = points.iter().map(|p| p.x).collect();
        let mut ys: Vec<f64> = points.iter().map(|p| p.y).collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        ys.sort_by(f64::total_cmp);
        ys.dedup();
        HananGrid { xs, ys }
    }

    /// Number of distinct x coordinates.
    #[inline]
    pub fn width(&self) -> usize {
        self.xs.len()
    }

    /// Number of distinct y coordinates.
    #[inline]
    pub fn height(&self) -> usize {
        self.ys.len()
    }

    /// Total number of grid nodes (`width * height`).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.xs.len() * self.ys.len()
    }

    /// The x coordinate ladder, ascending.
    #[inline]
    pub fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// The y coordinate ladder, ascending.
    #[inline]
    pub fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// Coordinates of grid node `(xi, yi)`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn coordinate(&self, xi: usize, yi: usize) -> Point {
        Point::new(self.xs[xi], self.ys[yi])
    }

    /// Grid indices of a terminal (terminals always lie on the grid).
    ///
    /// Returns `None` for a point off the grid.
    pub fn locate(&self, p: Point) -> Option<(usize, usize)> {
        // Ladder entries are finite by construction; a NaN query compares
        // as "off the grid" instead of panicking.
        use std::cmp::Ordering;
        let xi = self
            .xs
            .binary_search_by(|x| x.partial_cmp(&p.x).unwrap_or(Ordering::Greater))
            .ok()?;
        let yi = self
            .ys
            .binary_search_by(|y| y.partial_cmp(&p.y).unwrap_or(Ordering::Greater))
            .ok()?;
        Some((xi, yi))
    }

    /// Grid nodes on the L-shaped path from `a` to `b` through `corner`,
    /// in walk order starting *after* `a` and ending at `b` (inclusive).
    ///
    /// `corner` must share one coordinate with `a` and the other with `b`
    /// (degenerate Ls — collinear points — are handled naturally).
    ///
    /// # Panics
    ///
    /// Panics if any of the three points is off the grid or the corner does
    /// not join the two legs.
    #[expect(
        clippy::expect_used,
        reason = "off-grid inputs are a documented `# Panics` contract violation"
    )]
    pub fn l_path(&self, a: Point, corner: Point, b: Point) -> Vec<(usize, usize)> {
        let (axi, ayi) = self.locate(a).expect("a on grid");
        let (cxi, cyi) = self.locate(corner).expect("corner on grid");
        let (bxi, byi) = self.locate(b).expect("b on grid");
        assert!(
            (axi == cxi || ayi == cyi) && (bxi == cxi || byi == cyi),
            "corner does not join the legs"
        );

        let mut path = Vec::new();
        // Leg 1: a -> corner.
        append_straight(&mut path, (axi, ayi), (cxi, cyi));
        // Leg 2: corner -> b.
        append_straight(&mut path, (cxi, cyi), (bxi, byi));
        path
    }
}

/// Appends the grid nodes strictly after `from` through `to` along an
/// axis-aligned segment.
fn append_straight(path: &mut Vec<(usize, usize)>, from: (usize, usize), to: (usize, usize)) {
    let (fx, fy) = from;
    let (tx, ty) = to;
    debug_assert!(fx == tx || fy == ty, "segment is not axis-aligned");
    if fx == tx {
        let mut y = fy;
        while y != ty {
            y = if ty > y { y + 1 } else { y - 1 };
            path.push((fx, y));
        }
    } else {
        let mut x = fx;
        while x != tx {
            x = if tx > x { x + 1 } else { x - 1 };
            path.push((x, fy));
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;

    fn sample_grid() -> HananGrid {
        HananGrid::new(&[
            Point::new(0.0, 0.0),
            Point::new(2.0, 1.0),
            Point::new(1.0, 3.0),
        ])
    }

    #[test]
    fn ladders_sorted_and_deduped() {
        let g = HananGrid::new(&[
            Point::new(1.0, 5.0),
            Point::new(1.0, 2.0),
            Point::new(0.0, 5.0),
        ]);
        assert_eq!(g.xs(), &[0.0, 1.0]);
        assert_eq!(g.ys(), &[2.0, 5.0]);
        assert_eq!(g.node_count(), 4);
    }

    #[test]
    fn locate_terminals() {
        let g = sample_grid();
        assert_eq!(g.locate(Point::new(2.0, 1.0)), Some((2, 1)));
        assert_eq!(g.locate(Point::new(1.0, 1.0)), Some((1, 1))); // Hanan point
        assert_eq!(g.locate(Point::new(0.5, 1.0)), None);
    }

    #[test]
    fn l_path_walks_both_legs() {
        let g = sample_grid();
        // From (0,0) to (2.0, 1.0) via corner (2.0, 0.0):
        // x-leg through (1,0),(2,0) then y-leg to (2,1).
        let p = g.l_path(
            Point::new(0.0, 0.0),
            Point::new(2.0, 0.0),
            Point::new(2.0, 1.0),
        );
        assert_eq!(p, vec![(1, 0), (2, 0), (2, 1)]);
    }

    #[test]
    fn l_path_other_corner() {
        let g = sample_grid();
        let p = g.l_path(
            Point::new(0.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(2.0, 1.0),
        );
        assert_eq!(p, vec![(0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn degenerate_l_is_straight() {
        let g = sample_grid();
        // Collinear in x: corner coincides with b.
        let p = g.l_path(
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 0.0),
        );
        assert_eq!(p, vec![(1, 0)]);
    }

    #[test]
    fn l_path_downward_and_leftward() {
        let g = sample_grid();
        let p = g.l_path(
            Point::new(2.0, 3.0),
            Point::new(2.0, 0.0),
            Point::new(0.0, 0.0),
        );
        assert_eq!(p, vec![(2, 1), (2, 0), (1, 0), (0, 0)]);
    }

    #[test]
    #[should_panic(expected = "corner does not join")]
    fn disjoint_corner_panics() {
        let g = sample_grid();
        g.l_path(
            Point::new(0.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(2.0, 3.0),
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_point_set_panics() {
        HananGrid::new(&[]);
    }

    #[test]
    fn single_point_grid() {
        let g = HananGrid::new(&[Point::new(3.0, 4.0)]);
        assert_eq!(g.node_count(), 1);
        assert_eq!(g.coordinate(0, 0), Point::new(3.0, 4.0));
    }
}
