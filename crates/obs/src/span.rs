//! RAII spans with thread-local nesting.

use std::cell::RefCell;
use std::time::Instant;

thread_local! {
    /// Stack of open span paths on this thread; the top is the parent of
    /// the next span opened here.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// Guard returned by [`span`](crate::span): records the span's wall-clock
/// duration under its nesting path when dropped.
///
/// Nesting is per-thread: a span opened while another is live on the same
/// thread records under `parent/child`. A guard created while
/// instrumentation was disabled stays inert even if a recorder is scoped
/// before it drops (and vice versa, a guard created enabled records to
/// whatever recorder is scoped on the thread at drop time, or nothing).
#[must_use = "dropping the guard immediately closes the span"]
#[derive(Debug)]
pub struct SpanGuard {
    /// Full nesting path; `None` when the guard was created disabled.
    path: Option<String>,
    start: Instant,
    /// Thread-local allocation counters at entry, read *after* the path
    /// string is built so the guard's own bookkeeping allocation does not
    /// pollute the span's delta. Only meaningful when the process runs
    /// under [`crate::alloc::CountingAlloc`]; zero-delta otherwise.
    #[cfg(feature = "alloc")]
    alloc_base: crate::alloc::AllocSnapshot,
}

impl SpanGuard {
    pub(crate) fn enter(name: &str) -> SpanGuard {
        if !crate::enabled() {
            return SpanGuard {
                path: None,
                start: Instant::now(),
                #[cfg(feature = "alloc")]
                alloc_base: crate::alloc::AllocSnapshot::default(),
            };
        }
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = match stack.last() {
                Some(parent) => format!("{parent}/{name}"),
                None => name.to_owned(),
            };
            stack.push(path.clone());
            path
        });
        SpanGuard {
            path: Some(path),
            start: Instant::now(),
            #[cfg(feature = "alloc")]
            alloc_base: crate::alloc::snapshot(),
        }
    }

    /// The slash-joined nesting path, or `None` for an inert guard.
    pub fn path(&self) -> Option<&str> {
        self.path.as_deref()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(path) = self.path.take() else {
            return;
        };
        let nanos = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // Read the allocation delta before any drop-path bookkeeping so the
        // guard's own teardown does not inflate it.
        #[cfg(feature = "alloc")]
        let alloc_delta = crate::alloc::snapshot().delta_since(self.alloc_base);
        SPAN_STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        crate::with_recorder(|r| {
            r.record_span(&path, nanos);
            #[cfg(feature = "alloc")]
            if alloc_delta.allocs > 0 {
                r.record_span_alloc(&path, alloc_delta.allocs, alloc_delta.bytes);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;
    use crate::SummaryRecorder;
    use std::sync::Arc;

    #[test]
    fn disabled_guard_is_inert() {
        // Recording is per thread: once this thread's scope ends, its
        // spans are inert whatever other tests scope meanwhile.
        let r = Arc::new(SummaryRecorder::new());
        drop(crate::scoped(r));
        let g = SpanGuard::enter("inert");
        assert!(g.path().is_none());
    }

    #[test]
    fn paths_nest_per_thread() {
        let r = Arc::new(SummaryRecorder::new());
        let _guard = crate::scoped(r.clone());
        {
            let outer = crate::span("outer");
            assert_eq!(outer.path(), Some("outer"));
            let inner = crate::span("inner");
            assert_eq!(inner.path(), Some("outer/inner"));
        }
        assert_eq!(r.span_stats("outer").map(|s| s.count), Some(1));
        assert_eq!(r.span_stats("outer/inner").map(|s| s.count), Some(1));
    }
}
