//! Span-tree profiling recorder.
//!
//! [`SpanTreeRecorder`] aggregates completed spans into a tree keyed by
//! their slash-joined nesting paths, tracking per path: call count,
//! cumulative wall time, the longest single completion, a log-scale
//! duration histogram, and — when the `alloc` feature counts — allocation
//! deltas. Two renderers ship with it:
//!
//! * [`SpanTreeRecorder::render_table`] — an indented text table with
//!   cumulative/self/count columns (self time = cumulative minus the
//!   direct children's cumulative), the shape behind the CLI's
//!   `--profile`;
//! * [`SpanTreeRecorder::render_folded`] — collapsed-stack lines
//!   (`a;b;c <self-micros>`), the input format of flamegraph tooling,
//!   behind the CLI's `--profile-folded <path>`.
//!
//! # Determinism under `--jobs N`
//!
//! The parallel router tags per-worker spans `router.net.w<k>`; which
//! worker routes which net is scheduling-dependent, so raw per-worker
//! paths are not reproducible. The recorder therefore normalises every
//! path segment of the shape `<base>.w<digits>` down to `<base>` at
//! record time: a serial run and a `--jobs 4` run of the same netlist
//! produce the same path set with the same per-path counts (timings
//! still differ — they are wall-clock), and the `BTreeMap` storage keeps
//! path ordering stable.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::recorder::{Field, Recorder};
use crate::summary::{Histogram, SummaryRecorder};

/// Aggregated statistics for one span path in the tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanNode {
    /// How many times a span completed under this exact path.
    pub count: u64,
    /// Total wall-clock nanoseconds across completions (cumulative: time
    /// spent in child spans is included).
    pub cum_nanos: u64,
    /// Longest single completion in nanoseconds.
    pub max_nanos: u64,
    /// Log-scale histogram of per-completion durations (nanoseconds).
    pub durations: Histogram,
    /// Heap allocations observed across completions (0 unless the process
    /// counts allocations — see `bmst_obs::alloc`).
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub alloc_bytes: u64,
}

impl SpanNode {
    fn new() -> Self {
        SpanNode {
            count: 0,
            cum_nanos: 0,
            max_nanos: 0,
            durations: Histogram::new(),
            allocs: 0,
            alloc_bytes: 0,
        }
    }
}

/// Aggregates nested spans into a path tree; see the module docs.
///
/// Counters, histograms and events are delegated to an embedded
/// [`SummaryRecorder`], so a `--profile` report keeps showing them
/// alongside the span tree.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use bmst_obs::SpanTreeRecorder;
///
/// let recorder = Arc::new(SpanTreeRecorder::new());
/// {
///     let _guard = bmst_obs::scoped(recorder.clone());
///     let _outer = bmst_obs::span("outer");
///     let _inner = bmst_obs::span("inner");
/// }
/// let folded = recorder.render_folded();
/// assert!(folded.contains("outer;inner"));
/// ```
#[derive(Default)]
pub struct SpanTreeRecorder {
    nodes: Mutex<BTreeMap<String, SpanNode>>,
    rest: SummaryRecorder,
}

/// Collapses a `<base>.w<digits>` path segment to `<base>` (the parallel
/// router's per-worker span tag), leaving every other segment untouched.
fn normalize_segment(seg: &str) -> &str {
    if let Some(dot_w) = seg.rfind(".w") {
        let digits = &seg[dot_w + 2..];
        if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
            return &seg[..dot_w];
        }
    }
    seg
}

/// Normalises a full slash-joined path segment by segment.
fn normalize_path(path: &str) -> String {
    let mut out = String::with_capacity(path.len());
    for (i, seg) in path.split('/').enumerate() {
        if i > 0 {
            out.push('/');
        }
        out.push_str(normalize_segment(seg));
    }
    out
}

/// Depth of a slash-joined path (`a` = 1, `a/b` = 2).
fn depth(path: &str) -> usize {
    path.split('/').count()
}

/// `true` when `child` is a *direct* child path of `parent`.
fn is_direct_child(parent: &str, child: &str) -> bool {
    child.len() > parent.len()
        && child.as_bytes()[parent.len()] == b'/'
        && child.starts_with(parent)
        && !child[parent.len() + 1..].contains('/')
}

#[expect(clippy::as_conversions, reason = "u64→f64 for display only")]
fn nanos_to_ms(nanos: u64) -> f64 {
    nanos as f64 / 1.0e6
}

impl SpanTreeRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        SpanTreeRecorder::default()
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, SpanNode>> {
        self.nodes.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The aggregated node for a (normalised) span path, if any span
    /// completed under it.
    pub fn node(&self, path: &str) -> Option<SpanNode> {
        self.lock().get(path).cloned()
    }

    /// Every (normalised path, node) pair, in stable lexicographic order.
    pub fn nodes(&self) -> Vec<(String, SpanNode)> {
        self.lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// The per-path counts alone, in stable order — the deterministic
    /// signature used by the serial-vs-parallel profile parity test.
    pub fn path_counts(&self) -> Vec<(String, u64)> {
        self.lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.count))
            .collect()
    }

    /// The embedded recorder aggregating counters/histograms/events.
    pub fn summary(&self) -> &SummaryRecorder {
        &self.rest
    }

    /// Self nanoseconds of `path` within `nodes`: cumulative minus the
    /// direct children's cumulative, clamped at zero (clock skew between
    /// parent and child measurements can make the difference negative by
    /// nanoseconds).
    fn self_nanos(nodes: &BTreeMap<String, SpanNode>, path: &str, node: &SpanNode) -> u64 {
        let children: u64 = nodes
            .iter()
            .filter(|(p, _)| is_direct_child(path, p))
            .map(|(_, n)| n.cum_nanos)
            .fold(0, u64::saturating_add);
        node.cum_nanos.saturating_sub(children)
    }

    /// Renders the span tree as an indented text table:
    ///
    /// ```text
    /// span tree (cum ms / self ms / count / max ms):
    ///   router.net: 12.801 / 0.310 / 24 / 1.002
    ///     bkrus: 12.491 / 9.107 / 24 / 0.967
    ///       context.sorted_edges: 3.384 / 2.881 / 24 / 0.141
    /// ```
    ///
    /// Allocation columns (`allocs / KiB`) are appended per row when any
    /// node observed a nonzero allocation delta.
    pub fn render_table(&self) -> String {
        let nodes = self.lock();
        let mut out = String::new();
        if nodes.is_empty() {
            return out;
        }
        let any_alloc = nodes.values().any(|n| n.allocs > 0);
        let alloc_header = if any_alloc { " / allocs / KiB" } else { "" };
        let _ = writeln!(
            out,
            "span tree (cum ms / self ms / count / max ms{alloc_header}):"
        );
        for (path, node) in nodes.iter() {
            let indent = "  ".repeat(depth(path));
            let label = path.rsplit('/').next().unwrap_or(path);
            let self_ns = Self::self_nanos(&nodes, path, node);
            let _ = write!(
                out,
                "{indent}{label}: {:.3} / {:.3} / {} / {:.3}",
                nanos_to_ms(node.cum_nanos),
                nanos_to_ms(self_ns),
                node.count,
                nanos_to_ms(node.max_nanos),
            );
            if any_alloc {
                #[expect(clippy::as_conversions, reason = "u64→f64 for display only")]
                let kib = node.alloc_bytes as f64 / 1024.0;
                let _ = write!(out, " / {} / {kib:.1}", node.allocs);
            }
            out.push('\n');
        }
        drop(nodes);
        out
    }

    /// Renders collapsed-stack lines — one `seg;seg;... <self-micros>`
    /// per path, in stable path order — directly consumable by standard
    /// flamegraph tooling (`flamegraph.pl`, `inferno-flamegraph`).
    ///
    /// The folded value is *self* time in integer microseconds; paths
    /// whose self time rounds to zero microseconds are still emitted
    /// (value 0) so the tree shape is complete.
    pub fn render_folded(&self) -> String {
        let nodes = self.lock();
        let mut out = String::new();
        for (path, node) in nodes.iter() {
            let self_us = Self::self_nanos(&nodes, path, node) / 1_000;
            let _ = writeln!(out, "{} {self_us}", path.replace('/', ";"));
        }
        drop(nodes);
        out
    }

    /// Renders the full profile: the span tree table followed by the
    /// embedded summary's counters/histograms/events sections.
    pub fn render_text(&self) -> String {
        let mut out = self.render_table();
        out.push_str(&self.rest.render_text());
        out
    }
}

impl std::fmt::Debug for SpanTreeRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanTreeRecorder")
            .field("paths", &self.lock().len())
            .finish_non_exhaustive()
    }
}

impl Recorder for SpanTreeRecorder {
    fn add_counter(&self, name: &str, delta: u64) {
        self.rest.add_counter(name, delta);
    }

    fn record_histogram(&self, name: &str, value: u64) {
        self.rest.record_histogram(name, value);
    }

    fn record_span(&self, path: &str, nanos: u64) {
        let path = normalize_path(path);
        let mut nodes = self.lock();
        let node = nodes.entry(path).or_insert_with(SpanNode::new);
        node.count += 1;
        node.cum_nanos = node.cum_nanos.saturating_add(nanos);
        node.max_nanos = node.max_nanos.max(nanos);
        node.durations.observe(nanos);
    }

    fn record_event(&self, name: &str, fields: &[(&str, Field)]) {
        self.rest.record_event(name, fields);
    }

    fn record_span_alloc(&self, path: &str, allocs: u64, bytes: u64) {
        let path = normalize_path(path);
        let mut nodes = self.lock();
        let node = nodes.entry(path).or_insert_with(SpanNode::new);
        node.allocs = node.allocs.saturating_add(allocs);
        node.alloc_bytes = node.alloc_bytes.saturating_add(bytes);
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;

    #[test]
    fn worker_segments_normalise() {
        assert_eq!(normalize_segment("router.net.w3"), "router.net");
        assert_eq!(normalize_segment("router.net.w12"), "router.net");
        assert_eq!(normalize_segment("router.net"), "router.net");
        assert_eq!(normalize_segment("router.net.worker"), "router.net.worker");
        assert_eq!(normalize_segment("w3"), "w3");
        assert_eq!(normalize_segment("a.w"), "a.w");
        assert_eq!(normalize_path("router.net.w7/bkrus"), "router.net/bkrus");
        assert_eq!(normalize_path("a/b.w1/c.w22"), "a/b/c");
    }

    #[test]
    fn spans_aggregate_into_tree_nodes() {
        let r = SpanTreeRecorder::new();
        r.record_span("a/b", 300);
        r.record_span("a/b", 500);
        r.record_span("a", 1000);
        let b = r.node("a/b").unwrap();
        assert_eq!(b.count, 2);
        assert_eq!(b.cum_nanos, 800);
        assert_eq!(b.max_nanos, 500);
        assert_eq!(b.durations.count, 2);
        let a = r.node("a").unwrap();
        assert_eq!(a.count, 1);
        // Self time of the parent excludes the direct child's cumulative.
        let nodes = r.lock();
        assert_eq!(SpanTreeRecorder::self_nanos(&nodes, "a", &a), 200);
    }

    #[test]
    fn self_time_only_subtracts_direct_children() {
        let r = SpanTreeRecorder::new();
        r.record_span("a", 1000);
        r.record_span("a/b", 600);
        r.record_span("a/b/c", 500);
        let nodes = r.lock();
        // a's self = 1000 - 600 (b), NOT - 500 (grandchild c).
        assert_eq!(
            SpanTreeRecorder::self_nanos(&nodes, "a", nodes.get("a").unwrap()),
            400
        );
        // Sibling prefix `ab` must not count as a child of `a`.
        drop(nodes);
        r.record_span("ab", 10_000);
        let nodes = r.lock();
        assert_eq!(
            SpanTreeRecorder::self_nanos(&nodes, "a", nodes.get("a").unwrap()),
            400
        );
    }

    #[test]
    fn negative_self_time_clamps_to_zero() {
        let r = SpanTreeRecorder::new();
        r.record_span("a", 100);
        r.record_span("a/b", 300); // measured longer than its parent
        let nodes = r.lock();
        assert_eq!(
            SpanTreeRecorder::self_nanos(&nodes, "a", nodes.get("a").unwrap()),
            0
        );
    }

    #[test]
    fn table_renders_indented_rows() {
        let r = SpanTreeRecorder::new();
        r.record_span("router.net/bkrus", 2_000_000);
        r.record_span("router.net", 3_000_000);
        let table = r.render_table();
        assert!(table.starts_with("span tree"), "{table}");
        assert!(
            table.contains("  router.net: 3.000 / 1.000 / 1 / 3.000"),
            "{table}"
        );
        assert!(
            table.contains("    bkrus: 2.000 / 2.000 / 1 / 2.000"),
            "{table}"
        );
        // No alloc columns unless something counted.
        assert!(!table.contains("allocs"), "{table}");
    }

    #[test]
    fn alloc_columns_appear_when_counted() {
        let r = SpanTreeRecorder::new();
        r.record_span("a", 1_000_000);
        r.record_span_alloc("a", 7, 2048);
        let table = r.render_table();
        assert!(table.contains("allocs / KiB"), "{table}");
        assert!(table.contains("/ 7 / 2.0"), "{table}");
        let a = r.node("a").unwrap();
        assert_eq!(a.allocs, 7);
        assert_eq!(a.alloc_bytes, 2048);
    }

    #[test]
    fn folded_lines_use_semicolons_and_self_micros() {
        let r = SpanTreeRecorder::new();
        r.record_span("a/b/c", 2_500_000);
        r.record_span("a/b", 4_000_000);
        r.record_span("a", 10_000_000);
        let folded = r.render_folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines, vec!["a 6000", "a;b 1500", "a;b;c 2500"]);
    }

    #[test]
    fn parallel_worker_paths_merge_deterministically() {
        // Two recorders fed the same logical spans under different worker
        // tags and arrival orders must agree on paths and counts.
        let serial = SpanTreeRecorder::new();
        for _ in 0..3 {
            serial.record_span("router.net/bkrus", 500);
            serial.record_span("router.net", 700);
        }
        let parallel = SpanTreeRecorder::new();
        parallel.record_span("router.net.w1/bkrus", 900);
        parallel.record_span("router.net.w1", 950);
        parallel.record_span("router.net.w0/bkrus", 450);
        parallel.record_span("router.net.w0", 500);
        parallel.record_span("router.net.w0/bkrus", 100);
        parallel.record_span("router.net.w0", 120);
        assert_eq!(serial.path_counts(), parallel.path_counts());
    }

    #[test]
    fn counters_and_events_flow_to_the_embedded_summary() {
        let r = SpanTreeRecorder::new();
        r.add_counter("bkrus.edges_scanned", 5);
        r.record_histogram("forest.merge.cross_pairs", 4);
        r.record_event("audit.violation", &[]);
        r.record_span("bkrus", 1_000);
        assert_eq!(r.summary().counter("bkrus.edges_scanned"), 5);
        assert_eq!(r.summary().event_count("audit.violation"), 1);
        let text = r.render_text();
        assert!(text.contains("span tree"), "{text}");
        assert!(text.contains("bkrus.edges_scanned"), "{text}");
        assert!(text.contains("forest.merge.cross_pairs"), "{text}");
        // The flat spans section must not duplicate the tree.
        assert!(!text.contains("spans (total ms"), "{text}");
    }

    #[test]
    fn empty_recorder_renders_empty() {
        let r = SpanTreeRecorder::new();
        assert_eq!(r.render_table(), "");
        assert_eq!(r.render_folded(), "");
        assert!(r.node("missing").is_none());
        assert!(r.nodes().is_empty());
    }
}
