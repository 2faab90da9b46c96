//! Bounded path length Steiner trees on the Hanan grid (paper §3.3).
//!
//! A spanning tree on the Hanan grid that covers all terminals is a
//! rectilinear Steiner tree. BKST adapts BKRUS to that setting: candidate
//! terminal pairs are kept in a heap ordered by rectilinear distance; a
//! feasible pair is connected by an L-shaped grid path (corner nearest the
//! source), and the grid nodes on the added path become *new sinks* that
//! immediately offer new, shorter candidate connections.
//!
//! # Examples
//!
//! ```
//! use bmst_geom::{Net, Point};
//! use bmst_steiner::bkst;
//!
//! // Two sinks sharing an x-span with the source: the Steiner tree reuses
//! // the common trunk and beats every spanning tree.
//! let net = Net::with_source_first(vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(10.0, 2.0),
//!     Point::new(10.0, -2.0),
//! ])?;
//! let st = bkst(&net, 1.0)?;
//! assert!(st.tree.cost() <= 14.0 + 1e-9); // trunk 10 + two stubs of 2
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
// Lint scopes: DESIGN.md §5a. Waive one site with `#[expect(<lint>, reason = "...")]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod bkst;
mod builder;
mod graph_bkst;
mod hanan;
mod routing_graph;

pub use bkst::{bkst, bkst_with, SteinerTree};
pub use builder::{find_builder, full_registry, BkstBuilder};
pub use graph_bkst::{bkst_on_graph, bkst_on_graph_with};
pub use hanan::HananGrid;
pub use routing_graph::RoutingGraph;
