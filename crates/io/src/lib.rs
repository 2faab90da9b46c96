//! I/O for the BMST workspace.
//!
//! Facilities a routing library needs in practice:
//!
//! * a plain-text **net format** ([`netfile`]) compatible in spirit with the
//!   sink-placement lists the paper's benchmarks shipped as (one terminal
//!   per line, source first), so users can route their own placements;
//! * an **SVG renderer** ([`svg`]) for routing and Steiner trees, so a tree
//!   can actually be looked at — the fastest way to debug a bound violation
//!   or an ugly topology;
//! * a **Graphviz DOT exporter** ([`dot`]) for the tree *structure*.
//!
//! # Examples
//!
//! ```
//! use bmst_geom::{Net, Point};
//! use bmst_io::netfile;
//!
//! let net = Net::with_source_first(vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(3.5, 2.0),
//! ])?;
//! let text = netfile::to_string(&net);
//! let back = netfile::from_str(&text)?;
//! assert_eq!(net, back);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
// Lint scopes: DESIGN.md §5a. Waive one site with `#[expect(<lint>, reason = "...")]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod dot;
pub mod netfile;
pub mod svg;

pub use netfile::ParseNetError;
