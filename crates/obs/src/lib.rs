//! Observability for the BMST workspace: spans, counters, histograms, and
//! structured events behind a cheap per-thread handle.
//!
//! The workspace is offline, so this crate is written from scratch (no
//! `tracing`/`metrics`); it exposes exactly the surface the algorithm
//! crates need:
//!
//! * [`span`] — RAII wall-clock timing with nesting: a span dropped inside
//!   another records under the slash-joined path (`bkrus/merge`);
//! * [`counter`] — named monotonic counters (`bkrus.edges_scanned`);
//! * [`histogram`] — named log-scale (power-of-two bucket) histograms for
//!   size distributions (`forest.merge.cross_pairs`);
//! * [`event`] — structured one-shot events with typed fields
//!   (`audit.violation`).
//!
//! All four are no-ops costing roughly **one thread-local load** until a
//! [`Recorder`] is [`scoped`] on the calling thread. Four recorders ship
//! in-tree: [`NoopRecorder`] (discard), [`SummaryRecorder`] (in-memory
//! aggregation, renderable as text or JSON), [`SpanTreeRecorder`] (profiling: nested
//! spans aggregated into a path tree with self/cumulative time, renderable
//! as a table or collapsed-stack flamegraph lines) and
//! [`JsonLinesRecorder`] (streams spans and events as JSON lines, dumping
//! aggregated counters/histograms on [`JsonLinesRecorder::finish`]).
//! [`MultiRecorder`] fans out to several.
//!
//! With the `alloc` feature, the [`alloc`] module adds a counting global
//! allocator; processes that install it get per-span allocation deltas
//! reported through [`Recorder::record_span_alloc`].
//!
//! # Naming scheme
//!
//! Metric names are `<module>.<metric>[.<outcome>]`, e.g.
//! `bkrus.edges_scanned`, `forest.cond3a.accept`, `gabow.trees_examined`.
//! Span names are bare algorithm names (`bkrus`, `bkex`, `gabow`); nesting
//! produces paths like `bkh2/bkrus`.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use bmst_obs::SummaryRecorder;
//!
//! let recorder = Arc::new(SummaryRecorder::new());
//! {
//!     let _guard = bmst_obs::scoped(recorder.clone());
//!     let _span = bmst_obs::span("work");
//!     bmst_obs::counter("work.items", 3);
//! }
//! assert_eq!(recorder.counter("work.items"), 3);
//! assert!(recorder.span_nanos("work") > 0);
//! ```

// `deny`, not `forbid`: the feature-gated `alloc` module implements
// `GlobalAlloc` and carries its own scoped `#![allow(unsafe_code)]`.
#![deny(unsafe_code)]
// Lint scopes: DESIGN.md §5a. Waive one site with `#[expect(<lint>, reason = "...")]`.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![deny(clippy::as_conversions)]
#![deny(missing_docs)]

/// Counting global allocator and scoped allocation snapshots
/// (feature `alloc`).
#[cfg(feature = "alloc")]
pub mod alloc;
/// Minimal JSON value model, writer, and parser (no external crates).
pub mod json;
mod jsonl;
mod profile;
mod recorder;
mod span;
mod summary;

pub use jsonl::JsonLinesRecorder;
pub use profile::{SpanNode, SpanTreeRecorder};
pub use recorder::{Field, MultiRecorder, NoopRecorder, Recorder};
pub use span::SpanGuard;
pub use summary::{CounterSnapshot, Histogram, SpanStat, SummaryRecorder};

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::Arc;

thread_local! {
    /// Fast-path flag: `false` means every instrumentation call on this
    /// thread returns after one thread-local load.
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    /// This thread's current recorder, set by [`scoped`].
    static CURRENT: RefCell<Option<Arc<dyn Recorder>>> = const { RefCell::new(None) };
}

/// Returns `true` when a recorder is scoped on this thread and
/// instrumentation is live.
#[inline]
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// The recorder scoped on this thread, if any. Code that fans work out to
/// other threads hands this to each worker's [`scoped`], so the workers
/// record into the same recorder as their parent.
pub fn current() -> Option<Arc<dyn Recorder>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Makes `recorder` the current thread's recorder for the lifetime of the
/// returned guard; the guard restores the previous one (or none) on drop.
///
/// Recording is per thread: work on other threads records nothing unless
/// it scopes a recorder itself (see [`current`]), so concurrent scopes,
/// such as parallel tests, never see each other's data.
pub fn scoped(recorder: Arc<dyn Recorder>) -> ScopedRecorder {
    let previous = CURRENT.with(|c| c.replace(Some(recorder)));
    ENABLED.with(|e| e.set(true));
    ScopedRecorder {
        previous,
        _thread_bound: PhantomData,
    }
}

/// RAII guard returned by [`scoped`]; restores the thread's previous
/// recorder on drop. Not `Send`: it must drop on the thread it scoped.
#[must_use = "dropping the guard immediately ends the recording scope"]
pub struct ScopedRecorder {
    previous: Option<Arc<dyn Recorder>>,
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for ScopedRecorder {
    fn drop(&mut self) {
        let previous = self.previous.take();
        ENABLED.with(|e| e.set(previous.is_some()));
        CURRENT.with(|c| *c.borrow_mut() = previous);
    }
}

impl std::fmt::Debug for ScopedRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScopedRecorder").finish_non_exhaustive()
    }
}

/// Runs `f` against this thread's recorder, if any. The slow path of
/// every instrumentation call.
pub(crate) fn with_recorder(f: impl FnOnce(&dyn Recorder)) {
    if !enabled() {
        return;
    }
    CURRENT.with(|c| {
        if let Some(r) = c.borrow().as_deref() {
            f(r);
        }
    });
}

/// Adds `delta` to the named counter. One thread-local load when disabled.
#[inline]
pub fn counter(name: &str, delta: u64) {
    if !enabled() {
        return;
    }
    with_recorder(|r| r.add_counter(name, delta));
}

/// Records `value` into the named log-scale histogram.
#[inline]
pub fn histogram(name: &str, value: u64) {
    if !enabled() {
        return;
    }
    with_recorder(|r| r.record_histogram(name, value));
}

/// Emits a structured event with typed fields.
///
/// # Examples
///
/// ```
/// use bmst_obs::Field;
/// bmst_obs::event("audit.violation", &[("kind", Field::from("ParentCycle"))]);
/// ```
#[inline]
pub fn event(name: &str, fields: &[(&str, Field)]) {
    if !enabled() {
        return;
    }
    with_recorder(|r| r.record_event(name, fields));
}

/// Opens a named span; the returned guard records its wall-clock duration
/// (under the slash-joined path of enclosing spans) when dropped.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard::enter(name)
}

/// [`span`] for runtime-computed names (e.g. per-worker spans like
/// `router.net.w3`). The name is only materialised when instrumentation is
/// enabled, so callers should still gate any `format!` behind [`enabled`].
#[inline]
pub fn span_dyn(name: &str) -> SpanGuard {
    SpanGuard::enter(name)
}
