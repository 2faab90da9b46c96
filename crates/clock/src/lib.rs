//! Zero-skew clock tree construction.
//!
//! §6 of the paper positions its lower/upper bounded spanning trees against
//! the *bounded-skew Steiner heuristics* of clock routing (its references
//! \[11\]-\[13\]), noting that the spanning heuristic "runs fast, and gives
//! reliable estimation of tree cost upper bounds to the Steiner tree
//! heuristics" because node branching cannot place taps mid-wire. This
//! crate provides that Steiner-branching reference point: a classical
//! zero-skew construction in the style of Tsay's exact zero skew / DME —
//!
//! 1. a **balanced topology** over the sinks by recursive geometric
//!    bipartition (the flavour of the recursive-matching approach the
//!    paper cites as reference \[4\]), and
//! 2. a **bottom-up merge** under the linear delay model: each internal
//!    node's tapping point divides the wire between its children so both
//!    sides see identical delay, with *wire snaking* when one side is so
//!    slow that no tapping point suffices.
//!
//! The result has exactly zero skew in path length: every sink sits at the
//! same distance from the source. Comparing its cost with
//! `lub_bkrus(eps1 = 1, eps2 = 0)` quantifies the paper's §6 claim.
//!
//! # Examples
//!
//! ```
//! use bmst_clock::zero_skew_tree;
//! use bmst_geom::{Net, Point};
//!
//! let net = Net::with_source_first(vec![
//!     Point::new(0.0, 0.0),
//!     Point::new(10.0, 2.0),
//!     Point::new(8.0, -6.0),
//!     Point::new(3.0, 9.0),
//! ])?;
//! let zst = zero_skew_tree(&net);
//! // Every sink is exactly equidistant from the source.
//! let d0 = zst.sink_path_length(1);
//! for v in net.sinks() {
//!     assert!((zst.sink_path_length(v) - d0).abs() < 1e-9);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
// Lint scopes: DESIGN.md §5a. Waive one site with `#[expect(<lint>, reason = "...")]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod dme;
mod topology;

pub use dme::{zero_skew_tree, ZeroSkewTree};
pub use topology::{balanced_topology, Topology};
