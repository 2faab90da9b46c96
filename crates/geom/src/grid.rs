//! Grid-bucket neighbor index: the geometric sparsification substrate.
//!
//! Every sub-quadratic construction path in the workspace (the lazy
//! increasing-weight edge stream, BPRIM's nearest-neighbor candidate pull,
//! the duplicate-sink diagnostic scan) answers the same primitive query:
//! *which points lie within distance `r` of point `i`?* A uniform
//! grid-bucket index answers it in output-sensitive time. Cells are sized
//! for constant expected occupancy on the constant-density `scaled_net`
//! die (one point per cell on average), so a radius-`r` query touches
//! `O(r² / cell²)` cells and pays for exactly the points it reports.
//!
//! The index is immutable after construction, borrows the point slice it
//! was built over, and is fully deterministic: buckets hold point ids in
//! ascending order, and queries scan the covering cell rectangle in
//! row-major order.

use crate::{BoundingBox, Metric, Point};

/// Soft cap on total grid cells, as a multiple of the point count, so
/// degenerate aspect ratios cannot allocate an oversized (mostly empty)
/// grid.
const MAX_CELLS_PER_POINT: usize = 4;

/// A uniform grid over a point set answering range queries in
/// output-sensitive time.
///
/// Both supported metrics dominate the Chebyshev (L∞) distance, so every
/// point within metric distance `r` of a query point lies inside the
/// axis-aligned square of half-side `r` around it; a query therefore
/// scans only the grid cells covering that square and filters by exact
/// metric distance.
///
/// # Examples
///
/// ```
/// use bmst_geom::{Metric, NeighborIndex, Point};
///
/// let pts = vec![
///     Point::new(0.0, 0.0),
///     Point::new(1.0, 0.0),
///     Point::new(10.0, 10.0),
/// ];
/// let index = NeighborIndex::new(&pts, Metric::L1);
/// let mut found = Vec::new();
/// index.neighbors_in_annulus(0, -1.0, 2.0, &mut found);
/// assert_eq!(found, vec![(1.0, 1)]); // only the adjacent point
/// ```
#[derive(Debug, Clone)]
pub struct NeighborIndex<'a> {
    points: &'a [Point],
    metric: Metric,
    origin: Point,
    cell: f64,
    cols: usize,
    rows: usize,
    /// CSR bucket layout: `ids[starts[c]..starts[c + 1]]` are the point
    /// ids (ascending) whose coordinates fall in cell `c`.
    starts: Vec<usize>,
    ids: Vec<usize>,
    diameter: f64,
}

impl<'a> NeighborIndex<'a> {
    /// Builds the index over `points` in `O(n)` time and space.
    ///
    /// Cell side is chosen for roughly one point per cell: the square
    /// root of die area per point, with a linear fallback so collinear
    /// layouts (zero-area bounding boxes) still get `~n` cells along
    /// their extent instead of one degenerate bucket.
    pub fn new(points: &'a [Point], metric: Metric) -> Self {
        let bb = BoundingBox::of(points.iter().copied()).unwrap_or(BoundingBox {
            lo: Point::ORIGIN,
            hi: Point::ORIGIN,
        });
        let (w, h) = (bb.width(), bb.height());
        let count = points.len().max(1) as f64;
        let area_cell = (w * h / count).sqrt();
        let line_cell = w.max(h) / count;
        let mut cell = area_cell.max(line_cell);
        if !cell.is_finite() || cell <= 0.0 {
            cell = 1.0;
        }
        let (mut cols, mut rows) = Self::grid_dims(w, h, cell);
        // Degenerate aspect ratios can still overshoot the cell cap
        // (e.g. a thin-but-not-flat strip); coarsen once to respect it.
        let cap = points.len().saturating_mul(MAX_CELLS_PER_POINT).max(16);
        if cols.saturating_mul(rows) > cap {
            let ratio = (cols * rows) as f64 / cap as f64;
            cell *= ratio.sqrt().max(1.0);
            (cols, rows) = Self::grid_dims(w, h, cell);
        }

        let mut starts = vec![0usize; cols * rows + 1];
        let mut index = NeighborIndex {
            points,
            metric,
            origin: bb.lo,
            cell,
            cols,
            rows,
            starts: Vec::new(),
            ids: Vec::new(),
            diameter: metric.dist(bb.lo, bb.hi),
        };
        for p in points {
            starts[index.cell_id(*p) + 1] += 1;
        }
        for c in 1..starts.len() {
            starts[c] += starts[c - 1];
        }
        let mut cursor = starts.clone();
        let mut ids = vec![0usize; points.len()];
        for (id, p) in points.iter().enumerate() {
            let c = index.cell_id(*p);
            ids[cursor[c]] = id;
            cursor[c] += 1;
        }
        index.starts = starts;
        index.ids = ids;
        index
    }

    fn grid_dims(w: f64, h: f64, cell: f64) -> (usize, usize) {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "non-negative, capped cell counts"
        )]
        let dim = |extent: f64| ((extent / cell).floor() as usize).saturating_add(1);
        (dim(w), dim(h))
    }

    /// Column/row of a point, clamped into the grid.
    fn cell_coords(&self, p: Point) -> (usize, usize) {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "floored at 0, clamped into the grid"
        )]
        let clamp = |delta: f64, limit: usize| {
            let raw = (delta / self.cell).floor().max(0.0) as usize;
            raw.min(limit - 1)
        };
        (
            clamp(p.x - self.origin.x, self.cols),
            clamp(p.y - self.origin.y, self.rows),
        )
    }

    fn cell_id(&self, p: Point) -> usize {
        let (col, row) = self.cell_coords(p);
        row * self.cols + col
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when the index covers no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The chosen cell side (the expected nearest-neighbor length scale;
    /// useful as the first threshold of an expanding-radius search).
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell
    }

    /// An upper bound on the distance between any two indexed points
    /// (corner-to-corner distance of the bounding box, valid for both
    /// metrics). An expanding search that has reached this radius has
    /// seen every point.
    #[inline]
    pub fn diameter_bound(&self) -> f64 {
        self.diameter
    }

    /// Pushes `(dist, j)` for every point `j != i` with
    /// `lo < dist(i, j) <= hi` onto `out` (which is *not* cleared).
    ///
    /// The half-open weight window is what makes expanding-threshold
    /// searches exact: successive calls with `(t0, t1], (t1, t2], …`
    /// partition the neighbor set with no duplicates and no gaps, and
    /// ties sit wholly inside one window. Pass `lo < 0.0` to include
    /// zero-length (coincident) pairs. Output order is deterministic
    /// (row-major cell scan, ascending ids per cell) but not sorted by
    /// distance; callers sort as needed.
    // analyze: complexity(n log n)
    pub fn neighbors_in_annulus(&self, i: usize, lo: f64, hi: f64, out: &mut Vec<(f64, usize)>) {
        let Some(&p) = self.points.get(i) else {
            return;
        };
        if hi < 0.0 || hi <= lo {
            return;
        }
        let r = hi.max(0.0);
        let (c0, r0) = self.cell_coords(Point::new(p.x - r, p.y - r));
        let (c1, r1) = self.cell_coords(Point::new(p.x + r, p.y + r));
        for row in r0..=r1 {
            for col in c0..=c1 {
                let c = row * self.cols + col;
                for &other in &self.ids[self.starts[c]..self.starts[c + 1]] {
                    if other == i {
                        continue;
                    }
                    let w = self.metric.dist(p, self.points[other]);
                    if w > lo && w <= hi {
                        out.push((w, other));
                    }
                }
            }
        }
    }

    /// Pushes every point id (ascending) whose coordinates exactly equal
    /// point `i`'s onto `out` (which is *not* cleared), excluding `i`
    /// itself. Exact coincidence is a zero metric distance, so this is a
    /// single-bucket probe.
    pub fn coincident(&self, i: usize, out: &mut Vec<usize>) {
        let Some(&p) = self.points.get(i) else {
            return;
        };
        let c = self.cell_id(p);
        for &other in &self.ids[self.starts[c]..self.starts[c + 1]] {
            if other != i && self.points[other] == p {
                out.push(other);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;

    fn annulus_sorted(index: &NeighborIndex<'_>, i: usize, lo: f64, hi: f64) -> Vec<(f64, usize)> {
        let mut out = Vec::new();
        index.neighbors_in_annulus(i, lo, hi, &mut out);
        out.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out
    }

    fn brute_sorted(pts: &[Point], m: Metric, i: usize, lo: f64, hi: f64) -> Vec<(f64, usize)> {
        let mut out: Vec<(f64, usize)> = (0..pts.len())
            .filter(|&j| j != i)
            .map(|j| (m.dist(pts[i], pts[j]), j))
            .filter(|&(w, _)| w > lo && w <= hi)
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        out
    }

    /// Deterministic pseudo-random points (no RNG dep in geom).
    fn scatter(n: usize, span: f64) -> Vec<Point> {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        (0..n)
            .map(|_| {
                let mut next = || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
                    unit * span
                };
                Point::new(next(), next())
            })
            .collect()
    }

    #[test]
    fn annulus_matches_brute_force_on_scatter() {
        for metric in [Metric::L1, Metric::L2] {
            let pts = scatter(120, 50.0);
            let index = NeighborIndex::new(&pts, metric);
            for i in [0, 7, 59, 119] {
                for (lo, hi) in [(-1.0, 3.0), (3.0, 10.0), (-1.0, 1e9), (10.0, 10.0)] {
                    assert_eq!(
                        annulus_sorted(&index, i, lo, hi),
                        brute_sorted(&pts, metric, i, lo, hi),
                        "{metric} i={i} window=({lo}, {hi}]"
                    );
                }
            }
        }
    }

    #[test]
    fn expanding_windows_partition_the_neighbor_set() {
        let pts = scatter(80, 30.0);
        let index = NeighborIndex::new(&pts, Metric::L1);
        let all = brute_sorted(&pts, Metric::L1, 5, -1.0, f64::MAX);
        let mut collected = Vec::new();
        let mut lo = -1.0;
        let mut hi = index.cell_size();
        loop {
            let mut batch = Vec::new();
            index.neighbors_in_annulus(5, lo, hi, &mut batch);
            collected.extend(batch);
            if hi >= index.diameter_bound() {
                break;
            }
            lo = hi;
            hi = (hi * 2.0).min(index.diameter_bound());
        }
        collected.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        assert_eq!(collected, all);
    }

    #[test]
    fn collinear_points_stay_output_sensitive() {
        // A purely horizontal layout has a zero-area bounding box; the
        // linear fallback must still spread it over ~n cells.
        let pts: Vec<Point> = (0..200).map(|i| Point::new(i as f64, 7.0)).collect();
        let index = NeighborIndex::new(&pts, Metric::L1);
        assert!(index.cols >= 100, "cols = {}", index.cols);
        assert_eq!(
            annulus_sorted(&index, 100, -1.0, 2.0),
            vec![(1.0, 99), (1.0, 101), (2.0, 98), (2.0, 102)]
        );
    }

    #[test]
    fn coincident_probe_finds_exact_duplicates_in_order() {
        let pts = vec![
            Point::new(1.0, 1.0),
            Point::new(2.0, 2.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0 + 1e-12, 1.0),
        ];
        let index = NeighborIndex::new(&pts, Metric::L1);
        let mut out = Vec::new();
        index.coincident(0, &mut out);
        assert_eq!(out, vec![2, 3]); // near-duplicate at 1e-12 excluded
        out.clear();
        index.coincident(1, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn degenerate_inputs_are_safe() {
        let empty: Vec<Point> = Vec::new();
        let index = NeighborIndex::new(&empty, Metric::L1);
        assert!(index.is_empty());
        let mut out = Vec::new();
        index.neighbors_in_annulus(0, -1.0, 10.0, &mut out);
        assert!(out.is_empty());

        let same = vec![Point::new(3.0, 3.0); 50];
        let index = NeighborIndex::new(&same, Metric::L2);
        assert_eq!(index.diameter_bound(), 0.0);
        index.neighbors_in_annulus(10, -1.0, 0.0, &mut out);
        assert_eq!(out.len(), 49); // every other copy, at distance zero
    }

    #[test]
    fn cell_cap_bounds_grid_size() {
        // A thin strip: without the cap the grid would be enormously wide.
        let pts: Vec<Point> = (0..64)
            .map(|i| Point::new(1e6 * i as f64, (i % 2) as f64))
            .collect();
        let index = NeighborIndex::new(&pts, Metric::L1);
        assert!(index.cols * index.rows <= 64 * MAX_CELLS_PER_POINT + 16);
        assert_eq!(
            annulus_sorted(&index, 3, -1.0, 2e6),
            brute_sorted(&pts, Metric::L1, 3, -1.0, 2e6)
        );
    }
}
