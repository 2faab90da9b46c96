//! Integration tests for the per-thread recorder handle: accumulation,
//! span nesting, and concurrent recording.
#![allow(clippy::unwrap_used, clippy::expect_used)] // tests may panic

use std::sync::Arc;
use std::thread;

use bmst_obs::{Field, SummaryRecorder};

#[test]
fn counters_and_histograms_accumulate_through_the_scoped_handle() {
    let rec = Arc::new(SummaryRecorder::new());
    {
        let _guard = bmst_obs::scoped(rec.clone());
        for i in 0..10u64 {
            bmst_obs::counter("test.count", 1);
            bmst_obs::histogram("test.hist", i);
        }
        bmst_obs::event("test.event", &[("flag", Field::from(true))]);
    }
    assert_eq!(rec.counter("test.count"), 10);
    assert_eq!(rec.event_count("test.event"), 1);
    let snap = rec.snapshot();
    let hist = snap.histograms.get("test.hist").unwrap();
    assert_eq!(hist.count, 10);
    assert_eq!(hist.sum, 45);
    assert_eq!(hist.max, 9);
}

#[test]
fn span_nesting_produces_parent_child_paths_with_consistent_timing() {
    let rec = Arc::new(SummaryRecorder::new());
    {
        let _guard = bmst_obs::scoped(rec.clone());
        {
            let _outer = bmst_obs::span("outer");
            for _ in 0..3 {
                let _inner = bmst_obs::span("inner");
                std::hint::black_box(());
            }
        }
        // A fresh root span after the nest: stack unwound correctly.
        let _root = bmst_obs::span("other");
    }
    let outer = rec.span_stats("outer").unwrap();
    let inner = rec.span_stats("outer/inner").unwrap();
    assert_eq!(outer.count, 1);
    assert_eq!(inner.count, 3);
    // The parent encloses all child executions, so its wall-clock total
    // must be at least the children's.
    assert!(outer.total_nanos >= inner.total_nanos);
    assert!(
        rec.span_stats("inner").is_none(),
        "child must not appear as a root"
    );
    assert_eq!(rec.span_stats("other").map(|s| s.count), Some(1));
}

#[test]
fn concurrent_recording_is_race_free() {
    let rec = Arc::new(SummaryRecorder::new());
    {
        let _guard = bmst_obs::scoped(rec.clone());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let parent = bmst_obs::current().unwrap();
                thread::spawn(move || {
                    let _guard = bmst_obs::scoped(parent);
                    for i in 0..1000u64 {
                        bmst_obs::counter("mt.count", 1);
                        bmst_obs::histogram("mt.hist", i % 16);
                        let _span = bmst_obs::span("mt");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }
    assert_eq!(rec.counter("mt.count"), 8000);
    let snap = rec.snapshot();
    assert_eq!(snap.histograms.get("mt.hist").unwrap().count, 8000);
    assert_eq!(rec.span_stats("mt").unwrap().count, 8000);
}

#[test]
fn sequential_scopes_are_isolated() {
    // Two sequential scopes: the second must not see the first's data, and
    // data recorded outside any scope must vanish.
    let first = Arc::new(SummaryRecorder::new());
    {
        let _guard = bmst_obs::scoped(first.clone());
        bmst_obs::counter("iso.count", 1);
    }
    bmst_obs::counter("iso.count", 100); // dropped: nothing scoped
    let second = Arc::new(SummaryRecorder::new());
    {
        let _guard = bmst_obs::scoped(second.clone());
        bmst_obs::counter("iso.count", 2);
    }
    assert_eq!(first.counter("iso.count"), 1);
    assert_eq!(second.counter("iso.count"), 2);
}
