//! A multi-net global routing pass built on the bounded path length
//! constructions.
//!
//! The paper's introduction frames BMST as a *global routing* primitive:
//! critical path delay is a function of the longest interconnection path,
//! power of the total interconnection length. This crate is the pass a
//! router would actually run: a [`Netlist`] of signal nets, each tagged
//! with a [`Criticality`], is routed net by net — critical nets with a
//! tight `eps`, relaxed nets at the MST end — and the result is a
//! [`RouteReport`] with wirelength, per-net radii and slack against the
//! bound.
//!
//! # Examples
//!
//! ```
//! use bmst_geom::{Net, Point};
//! use bmst_router::{Criticality, NamedNet, Netlist, RouteAlgorithm, RouterConfig};
//!
//! let clk = Net::with_source_first(vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(10.0, 3.0),
//!     Point::new(9.0, -4.0),
//! ])?;
//! let data = Net::with_source_first(vec![
//!     Point::new(1.0, 1.0),
//!     Point::new(7.0, 8.0),
//! ])?;
//! let netlist = Netlist::new(vec![
//!     NamedNet::new("clk", clk, Criticality::Critical),
//!     NamedNet::new("data0", data, Criticality::Relaxed),
//! ]);
//!
//! let report = netlist.route(&RouterConfig::default());
//! assert_eq!(report.nets.len(), 2);
//! // Every net routed at its requested eps: no failures, none degraded.
//! assert!(report.is_clean());
//! assert!(report.total_wirelength > 0.0);
//! // Every routed net meets its bound: slack is never negative.
//! assert!(report.worst_slack() >= -1e-9);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The pass is *fault-isolated*: a net that cannot route (degenerate
//! geometry, an infeasible window, even a panicking construction) lands in
//! [`RouteReport::failures`] with a typed [`bmst_core::BmstError`] while
//! every other net routes normally, and recoverable failures walk a
//! configurable eps-relaxation ladder ([`RelaxationPolicy`]) before giving
//! up — results routed under a relaxed bound are marked
//! [`NetStatus::Degraded`].

#![forbid(unsafe_code)]
// Lint scopes: DESIGN.md §5a. Waive one site with `#[expect(<lint>, reason = "...")]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod netlist;
mod report;
mod route;

pub use netlist::{Criticality, NamedNet, Netlist, ParseNetlistError, RejectedNet};
pub use report::{NetStatus, RelaxationStep, RouteFailure, RouteReport, RoutedNet};
pub use route::{RelaxationPolicy, RouteAlgorithm, RouterConfig};
