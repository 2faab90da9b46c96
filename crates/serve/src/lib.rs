//! `bmst-serve`: a hardened, long-running routing service.
//!
//! Wraps the registry + `RouteReport` pipeline (the paper's §1
//! global-routing consumer) behind a zero-dependency JSON-lines-over-TCP
//! protocol: a bounded worker pool routes admitted requests, a bounded
//! admission queue sheds load with typed `overloaded` responses, every
//! request runs under a [`bmst_core::CancelToken`] deadline, repeated
//! requests hit a fingerprint-keyed LRU report cache with bit-parity
//! against cold routing, and graceful shutdown drains in-flight work
//! before cancelling stragglers through their tokens.
//!
//! The invariant everything here defends: **every accepted request gets
//! exactly one JSON response line, and no single request — however
//! pathological, slow, or (under `fault-inject`) actively sabotaged —
//! can take the process down.** See DESIGN §5i for the architecture and
//! the fault-injection matrix.
//!
//! # Quick start
//!
//! ```no_run
//! use bmst_serve::{ServeConfig, Server};
//!
//! let server = Server::bind(ServeConfig::default())?;
//! println!("listening on {}", server.local_addr());
//! let summary = server.run()?; // blocks until shutdown
//! println!("served {} requests", summary.completed);
//! # Ok::<(), bmst_serve::ServeError>(())
//! ```

// Lint scopes: DESIGN.md §5a. Waive one site with `#[expect(<lint>, reason = "...")]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod cache;
pub mod fault;
pub mod protocol;
mod server;
pub mod signal;

pub use server::{ServeConfig, ServeError, ServeSummary, Server, ServerHandle};

/// Fires the request's assigned fault at a named site.
///
/// With the `fault-inject` feature the site calls
/// [`fault::fire`](crate::fault::fire) — which may sleep, return a typed
/// `BmstError`, or panic, per the request's seeded
/// [`fault::Fault`](crate::fault::Fault) — so it must appear in a
/// function returning `Result<_, BmstError>`. Without the feature the
/// macro expands to nothing: release builds carry no failpoints.
#[macro_export]
macro_rules! failpoint {
    ($fault:expr, $site:expr) => {
        #[cfg(feature = "fault-inject")]
        $crate::fault::fire($fault, $site)?;
        #[cfg(not(feature = "fault-inject"))]
        let _ = (&$fault, $site);
    };
}
