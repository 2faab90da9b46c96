//! SVG rendering of routing trees.
//!
//! Produces small, self-contained SVG documents: tree edges as lines, sinks
//! as dots, the source as a filled square, Steiner points (covered
//! non-terminal nodes) as smaller hollow dots. Y is flipped so the plane's
//! "up" is up on screen.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use bmst_geom::{BoundingBox, Point};
use bmst_tree::RoutingTree;

/// Rendering options.
#[derive(Debug, Clone, PartialEq)]
pub struct SvgOptions {
    /// Output width in pixels (height follows the aspect ratio).
    pub width: f64,
    /// Margin around the drawing, as a fraction of the larger dimension.
    pub margin: f64,
    /// Number of terminals; nodes with ids `>= terminals` are drawn as
    /// Steiner points. Use `usize::MAX` (the default) for spanning trees.
    pub terminals: usize,
    /// Label nodes with their indices.
    pub labels: bool,
}

impl Default for SvgOptions {
    fn default() -> Self {
        SvgOptions {
            width: 480.0,
            margin: 0.08,
            terminals: usize::MAX,
            labels: false,
        }
    }
}

/// Renders a routing tree over the given node coordinates to an SVG string.
///
/// `points[i]` must hold the position of node `i` for every covered node.
///
/// # Panics
///
/// Panics if `points.len() < tree.universe()` or if the tree covers no node
/// (impossible for constructed trees).
///
/// # Examples
///
/// ```
/// use bmst_geom::Point;
/// use bmst_graph::Edge;
/// use bmst_io::svg;
/// use bmst_tree::RoutingTree;
///
/// let pts = [Point::new(0.0, 0.0), Point::new(10.0, 5.0)];
/// let tree = RoutingTree::from_edges(2, 0, vec![Edge::new(0, 1, 15.0)])?;
/// let doc = svg::render_tree(&pts, &tree, &svg::SvgOptions::default());
/// assert!(doc.starts_with("<svg"));
/// assert!(doc.contains("<line"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[expect(
    clippy::expect_used,
    reason = "covered_nodes() always yields at least the root"
)]
pub fn render_tree(points: &[Point], tree: &RoutingTree, opts: &SvgOptions) -> String {
    assert!(
        points.len() >= tree.universe(),
        "need coordinates for all {} nodes, got {}",
        tree.universe(),
        points.len()
    );
    let covered: Vec<usize> = tree.covered_nodes().collect();
    let bb =
        BoundingBox::of(covered.iter().map(|&v| points[v])).expect("trees cover at least the root");

    // Map plane -> pixels. Guard degenerate (single point / collinear) boxes.
    let span_x = bb.width().max(1e-9);
    let span_y = bb.height().max(1e-9);
    let margin_px = opts.width * opts.margin;
    let draw_w = opts.width - 2.0 * margin_px;
    let scale = draw_w / span_x.max(span_y);
    let height = span_y * scale + 2.0 * margin_px;
    let px = |p: Point| -> (f64, f64) {
        (
            margin_px + (p.x - bb.lo.x) * scale,
            // Flip y so larger plane-y is higher on screen.
            height - margin_px - (p.y - bb.lo.y) * scale,
        )
    };

    let mut out = String::new();
    let _ = write!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{:.0}" height="{:.0}" viewBox="0 0 {:.2} {:.2}">"#,
        opts.width, height, opts.width, height
    );
    out.push('\n');
    let _ = writeln!(out, r#"<rect width="100%" height="100%" fill="white"/>"#);

    // Edges first so markers draw on top.
    for e in tree.edges() {
        let (x1, y1) = px(points[e.u]);
        let (x2, y2) = px(points[e.v]);
        let _ = writeln!(
            out,
            r##"<line x1="{x1:.2}" y1="{y1:.2}" x2="{x2:.2}" y2="{y2:.2}" stroke="#1f77b4" stroke-width="1.5"/>"##
        );
    }

    for &v in &covered {
        let (x, y) = px(points[v]);
        if v == tree.root() {
            let _ = writeln!(
                out,
                r##"<rect x="{:.2}" y="{:.2}" width="9" height="9" fill="#d62728"><title>source {v}</title></rect>"##,
                x - 4.5,
                y - 4.5
            );
        } else if v < opts.terminals {
            let _ = writeln!(
                out,
                r##"<circle cx="{x:.2}" cy="{y:.2}" r="3.5" fill="#2ca02c"><title>sink {v}</title></circle>"##
            );
        } else {
            let _ = writeln!(
                out,
                r##"<circle cx="{x:.2}" cy="{y:.2}" r="2" fill="white" stroke="#7f7f7f"><title>steiner {v}</title></circle>"##
            );
        }
        if opts.labels {
            let _ = writeln!(
                out,
                r##"<text x="{:.2}" y="{:.2}" font-size="9" fill="#333">{v}</text>"##,
                x + 5.0,
                y - 5.0
            );
        }
    }

    out.push_str("</svg>\n");
    out
}

/// Renders the tree and writes it to `path`.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn write_tree(
    path: impl AsRef<Path>,
    points: &[Point],
    tree: &RoutingTree,
    opts: &SvgOptions,
) -> std::io::Result<()> {
    fs::write(path, render_tree(points, tree, opts))
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;
    use bmst_graph::Edge;

    fn sample() -> (Vec<Point>, RoutingTree) {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 8.0),
        ];
        let tree = RoutingTree::from_edges(3, 0, vec![Edge::new(0, 1, 10.0), Edge::new(1, 2, 8.0)])
            .unwrap();
        (pts, tree)
    }

    #[test]
    fn renders_all_elements() {
        let (pts, tree) = sample();
        let doc = render_tree(&pts, &tree, &SvgOptions::default());
        assert_eq!(doc.matches("<line").count(), 2);
        assert_eq!(doc.matches("<circle").count(), 2); // two sinks
        assert_eq!(doc.matches("source 0").count(), 1);
        assert!(doc.ends_with("</svg>\n"));
    }

    #[test]
    fn steiner_points_marked() {
        let (pts, tree) = sample();
        let opts = SvgOptions {
            terminals: 2,
            ..SvgOptions::default()
        };
        let doc = render_tree(&pts, &tree, &opts);
        assert!(doc.contains("steiner 2"));
        assert!(doc.contains("sink 1"));
    }

    #[test]
    fn labels_toggle() {
        let (pts, tree) = sample();
        let plain = render_tree(&pts, &tree, &SvgOptions::default());
        assert!(!plain.contains("<text"));
        let labeled = render_tree(
            &pts,
            &tree,
            &SvgOptions {
                labels: true,
                ..SvgOptions::default()
            },
        );
        assert_eq!(labeled.matches("<text").count(), 3);
    }

    #[test]
    fn single_node_tree_renders() {
        let pts = vec![Point::new(5.0, 5.0)];
        let tree = RoutingTree::from_edges(1, 0, vec![]).unwrap();
        let doc = render_tree(&pts, &tree, &SvgOptions::default());
        assert!(doc.contains("source 0"));
        assert_eq!(doc.matches("<line").count(), 0);
    }

    #[test]
    fn deterministic() {
        let (pts, tree) = sample();
        let a = render_tree(&pts, &tree, &SvgOptions::default());
        let b = render_tree(&pts, &tree, &SvgOptions::default());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "need coordinates")]
    fn missing_coordinates_panic() {
        let (_, tree) = sample();
        render_tree(&[Point::new(0.0, 0.0)], &tree, &SvgOptions::default());
    }

    #[test]
    fn file_write() {
        let (pts, tree) = sample();
        let dir = std::env::temp_dir().join("bmst_svg_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tree.svg");
        write_tree(&path, &pts, &tree, &SvgOptions::default()).unwrap();
        assert!(std::fs::read_to_string(&path).unwrap().starts_with("<svg"));
    }

    #[test]
    fn uncovered_nodes_not_drawn() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(9.0, 9.0), // uncovered
        ];
        let tree = RoutingTree::from_edges(3, 0, vec![Edge::new(0, 1, 4.0)]).unwrap();
        let doc = render_tree(&pts, &tree, &SvgOptions::default());
        assert!(!doc.contains("sink 2"));
        assert!(doc.contains("sink 1"));
    }
}
