//! Edge-candidate supply: dense vs. lazily-generated sparse edge streams.
//!
//! Every Kruskal-style construction consumes the complete terminal graph's
//! edges in the canonical nondecreasing `(weight, u, v)` order, but almost
//! never all of them — BKRUS stops at `V - 1` acceptances. The dense
//! supply materializes and sorts all `n(n-1)/2` edges up front
//! (`O(n² log n)`); the sparse supply generates the same sequence
//! incrementally from the [`NeighborIndex`], in expanding weight windows,
//! paying only for the prefix actually consumed.
//!
//! Both supplies yield **bit-identical** sequences: edge weights come from
//! the same `Metric::dist` evaluations the distance matrix stores, the
//! canonical order is a strict total order (`total_cmp` plus endpoint
//! tie-breaks), and the expanding half-open weight windows `(t0, t1],
//! (t1, t2], …` partition the edge set — equal-weight ties always land in
//! the same window, so sorting each window locally reproduces the global
//! sort exactly. The registry golden tests and the sparse/dense
//! equivalence proptests pin this.

use bmst_geom::NeighborIndex;
use bmst_graph::{sort_edges, Edge};

use crate::cancel::CancelToken;
use crate::ProblemContext;

/// Which edge-candidate supply a [`ProblemContext`] hands to builders.
///
/// `Auto` (the default) picks the sparse supply once a net is large enough
/// for the dense matrix + full edge sort to dominate, and stays dense for
/// small nets where the flat matrix is faster than index queries. Both
/// paths produce bit-identical trees; the knob only trades construction
/// time and memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EdgeSupply {
    /// Size-based choice: dense below [`EdgeSupply::AUTO_SPARSE_MIN`]
    /// terminals, sparse at or above it.
    #[default]
    Auto,
    /// Always materialize the dense distance matrix and fully sorted edge
    /// list (the exact-parity fallback; fastest for small nets).
    Dense,
    /// Always generate edges lazily from the grid neighbor index.
    Sparse,
}

impl EdgeSupply {
    /// Terminal count at which `Auto` switches to the sparse supply.
    ///
    /// Below this the dense matrix fits comfortably in cache and beats
    /// per-query index arithmetic; above it the `O(n²)` materialization
    /// dominates construction time.
    pub const AUTO_SPARSE_MIN: usize = 128;

    /// Resolves the knob for a net with `num_nodes` terminals.
    #[inline]
    pub fn is_sparse_for(self, num_nodes: usize) -> bool {
        match self {
            EdgeSupply::Dense => false,
            EdgeSupply::Sparse => true,
            EdgeSupply::Auto => num_nodes >= Self::AUTO_SPARSE_MIN,
        }
    }

    /// Stable lowercase name (used in bench record keys and reports).
    pub fn name(self) -> &'static str {
        match self {
            EdgeSupply::Auto => "auto",
            EdgeSupply::Dense => "dense",
            EdgeSupply::Sparse => "sparse",
        }
    }
}

/// An iterator over the complete terminal graph's edges in canonical
/// nondecreasing `(weight, u, v)` order, backed by either supply.
///
/// Obtained from [`ProblemContext::edge_stream`]. The dense backing walks
/// the cached sorted edge list; the sparse backing generates edges in
/// expanding weight windows from the neighbor index (each window's
/// generation runs under the `context.edge_stream` span).
pub struct EdgeStream<'c> {
    imp: StreamImpl<'c>,
}

enum StreamImpl<'c> {
    Dense(std::iter::Copied<std::slice::Iter<'c, Edge>>),
    Sparse(SparseEdgeStream<'c>),
}

impl<'c> EdgeStream<'c> {
    pub(crate) fn dense(sorted: &'c [Edge]) -> Self {
        EdgeStream {
            imp: StreamImpl::Dense(sorted.iter().copied()),
        }
    }

    pub(crate) fn sparse(cx: &'c ProblemContext<'_>) -> Self {
        EdgeStream {
            imp: StreamImpl::Sparse(SparseEdgeStream::new(
                cx.neighbor_index(),
                cx.cancel_token().clone(),
            )),
        }
    }
}

impl Iterator for EdgeStream<'_> {
    type Item = Edge;

    fn next(&mut self) -> Option<Edge> {
        match &mut self.imp {
            StreamImpl::Dense(it) => it.next(),
            StreamImpl::Sparse(s) => s.next(),
        }
    }
}

/// Lazy increasing-weight edge generation over a [`NeighborIndex`].
///
/// Maintains a half-open weight window `(lo, hi]` that starts at the
/// index's cell size (the expected nearest-neighbor length) and doubles
/// until it covers the diameter bound. Each refill collects every edge
/// whose weight falls in the window, sorts it canonically, and serves it
/// out; concatenated windows reproduce the globally sorted edge list
/// bit-for-bit (see the module docs for why ties cannot straddle a
/// window).
struct SparseEdgeStream<'c> {
    index: &'c NeighborIndex<'c>,
    lo: f64,
    hi: f64,
    exhausted: bool,
    batch: Vec<Edge>,
    pos: usize,
    scratch: Vec<(f64, usize)>,
    /// Window generation is the stream's only multi-millisecond
    /// uncancellable stretch at scale, so refills poll the context's
    /// token and end the stream early once it fires. Consumers observe a
    /// truncated sequence and surface the fired token through their own
    /// post-loop [`crate::ProblemContext::check_cancelled`] poll.
    cancel: CancelToken,
}

impl<'c> SparseEdgeStream<'c> {
    fn new(index: &'c NeighborIndex<'c>, cancel: CancelToken) -> Self {
        let diameter = index.diameter_bound();
        // First window: the expected nearest-neighbor scale, floored away
        // from zero so doubling always terminates, capped at the diameter
        // (degenerate all-coincident nets have diameter 0 and emit their
        // zero-weight edges in the single window (-1, 0]).
        let first = index
            .cell_size()
            .max(diameter * 1e-6)
            .max(f64::MIN_POSITIVE);
        SparseEdgeStream {
            index,
            lo: -1.0,
            hi: first.min(diameter),
            exhausted: false,
            batch: Vec::new(),
            pos: 0,
            scratch: Vec::new(),
            cancel,
        }
    }

    /// Marks the stream exhausted because the cancel token fired; any
    /// partially generated window is dropped (the consumer is about to
    /// abandon the construction anyway).
    fn abort(&mut self) -> bool {
        self.exhausted = true;
        self.batch.clear();
        self.pos = 0;
        false
    }

    /// Generates the next non-empty weight window, or returns `false`
    /// when every window up to the diameter bound has been served (or the
    /// cancel token fired mid-generation).
    // analyze: complexity(n log n)
    fn refill(&mut self) -> bool {
        while !self.exhausted {
            let _span = bmst_obs::span("context.edge_stream");
            self.batch.clear();
            self.pos = 0;
            for a in 0..self.index.len() {
                // Poll at a stride: one window over a large net is itself
                // a multi-millisecond stretch in debug builds.
                if a & 0xff == 0 && self.cancel.check().is_err() {
                    return self.abort();
                }
                self.scratch.clear();
                self.index
                    .neighbors_in_annulus(a, self.lo, self.hi, &mut self.scratch);
                for &(w, b) in &self.scratch {
                    // Each unordered pair is seen from both endpoints;
                    // keep the `a < b` sighting.
                    if b > a {
                        self.batch.push(Edge::new(a, b, w));
                    }
                }
            }
            sort_edges(&mut self.batch);
            if self.hi >= self.index.diameter_bound() {
                self.exhausted = true;
            } else {
                self.lo = self.hi;
                self.hi = (self.hi * 2.0).min(self.index.diameter_bound());
            }
            if !self.batch.is_empty() {
                return true;
            }
        }
        false
    }
}

impl Iterator for SparseEdgeStream<'_> {
    type Item = Edge;

    fn next(&mut self) -> Option<Edge> {
        if self.pos >= self.batch.len() && !self.refill() {
            return None;
        }
        let e = self.batch[self.pos];
        self.pos += 1;
        Some(e)
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::float_cmp, clippy::as_conversions)] // tests compare exact floats and cast
    use super::*;
    use bmst_geom::{Net, Point};

    fn scatter_net(n: usize) -> Net {
        let mut state = 0xDEAD_BEEF_u64;
        let pts = (0..n)
            .map(|_| {
                let mut next = || {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
                    unit * 100.0
                };
                Point::new(next(), next())
            })
            .collect();
        Net::with_source_first(pts).unwrap()
    }

    #[test]
    fn sparse_stream_equals_dense_sorted_edges() {
        for n in [2, 3, 17, 60] {
            let net = scatter_net(n);
            let cx = ProblemContext::new(&net, 0.5).unwrap();
            let dense: Vec<Edge> = cx.sorted_edges().to_vec();
            let sparse: Vec<Edge> = EdgeStream::sparse(&cx).collect();
            assert_eq!(dense, sparse, "n = {n}");
        }
    }

    #[test]
    fn sparse_stream_handles_coincident_points() {
        let net = Net::with_source_first(vec![Point::new(1.0, 1.0); 4]).unwrap();
        let cx = ProblemContext::unbounded(&net);
        let sparse: Vec<Edge> = EdgeStream::sparse(&cx).collect();
        assert_eq!(sparse, cx.sorted_edges().to_vec());
        assert_eq!(sparse.len(), 6);
        assert!(sparse.iter().all(|e| e.weight == 0.0));
    }

    #[test]
    fn auto_threshold_resolves_by_size() {
        assert!(!EdgeSupply::Auto.is_sparse_for(EdgeSupply::AUTO_SPARSE_MIN - 1));
        assert!(EdgeSupply::Auto.is_sparse_for(EdgeSupply::AUTO_SPARSE_MIN));
        assert!(EdgeSupply::Sparse.is_sparse_for(2));
        assert!(!EdgeSupply::Dense.is_sparse_for(1_000_000));
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(EdgeSupply::Auto.name(), "auto");
        assert_eq!(EdgeSupply::Dense.name(), "dense");
        assert_eq!(EdgeSupply::Sparse.name(), "sparse");
    }
}
