//! Routing-tree substrate for the BMST reproduction.
//!
//! A [`RoutingTree`] is a rooted tree over a node universe `0..n` whose root
//! is the net's source. Spanning trees cover every node; Steiner trees cover
//! a subset (terminals plus materialised grid nodes). The type answers all
//! the queries the paper's algorithms and evaluations need:
//!
//! * `cost(T)` — total wirelength;
//! * `path_T(u, v)` — in-tree path length between any two covered nodes;
//! * `radius_T(v)` — the largest in-tree path length from `v`;
//! * the *father array* `FA` and depth levels used by the negative-sum
//!   T-exchange search (BKEX / BKH2);
//! * feasibility checks against an upper (and optionally lower) path-length
//!   bound;
//! * [Elmore delay](elmore) evaluation for the RC-delay extension of BKRUS.
//!
//! # Examples
//!
//! ```
//! use bmst_graph::Edge;
//! use bmst_tree::RoutingTree;
//!
//! // A path 0 - 1 - 2 rooted at 0.
//! let t = RoutingTree::from_edges(3, 0, vec![Edge::new(0, 1, 2.0), Edge::new(1, 2, 3.0)])?;
//! assert_eq!(t.cost(), 5.0);
//! assert_eq!(t.dist_from_root(2), 5.0);
//! assert_eq!(t.path_length(0, 2), 5.0);
//! assert_eq!(t.radius_of(2), 5.0);
//! # Ok::<(), bmst_tree::TreeError>(())
//! ```

#![forbid(unsafe_code)]
// Lint scopes: DESIGN.md §5a. Waive one site with `#[expect(<lint>, reason = "...")]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(clippy::as_conversions)]
#![deny(missing_docs)]

mod audit;
/// Elmore (RC) delay evaluation over routing trees (§6 of the paper).
pub mod elmore;
mod error;
mod routing_tree;

pub use audit::{AuditContext, AuditViolation};
pub use elmore::{ElmoreDelays, ElmoreParams};
pub use error::TreeError;
pub use routing_tree::RoutingTree;
