//! In-memory aggregating recorder.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, PoisonError};

use crate::json::Json;
use crate::recorder::{Field, Recorder};

/// Number of power-of-two buckets: bucket `i` counts values `v` with
/// `ilog2(v) == i` (bucket 0 also takes `v == 0`), so bucket 63 covers the
/// whole `u64` range.
const BUCKETS: usize = 64;

/// A log-scale histogram: power-of-two buckets plus exact count/sum/min/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[i]` counts observations with `ilog2(value) == i`.
    pub buckets: Vec<u64>,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values (saturating).
    pub sum: u64,
    /// Smallest observed value.
    pub min: u64,
    /// Largest observed value.
    pub max: u64,
}

impl Histogram {
    pub(crate) fn new() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    #[expect(
        clippy::as_conversions,
        reason = "u32 bucket index → usize is lossless"
    )]
    pub(crate) fn observe(&mut self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            value.ilog2() as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean observed value, or 0 for an empty histogram.
    #[expect(
        clippy::as_conversions,
        reason = "u64→f64 for a mean; precision loss above 2^53 is acceptable for reporting"
    )]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    fn to_json(&self) -> Json {
        // Only non-empty buckets, keyed by the bucket's lower bound.
        let buckets: Vec<Json> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, n)| **n > 0)
            .map(|(i, n)| {
                Json::Obj(vec![
                    ("ge".to_owned(), Json::from_u64(1u64 << i)),
                    ("n".to_owned(), Json::from_u64(*n)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("count".to_owned(), Json::from_u64(self.count)),
            ("sum".to_owned(), Json::from_u64(self.sum)),
            (
                "min".to_owned(),
                Json::from_u64(if self.count == 0 { 0 } else { self.min }),
            ),
            ("max".to_owned(), Json::from_u64(self.max)),
            ("buckets".to_owned(), Json::Arr(buckets)),
        ])
    }
}

/// Aggregated timing for one span path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStat {
    /// How many times the span completed.
    pub count: u64,
    /// Total wall-clock nanoseconds across completions (saturating).
    pub total_nanos: u64,
    /// Longest single completion in nanoseconds.
    pub max_nanos: u64,
}

/// A point-in-time copy of a [`SummaryRecorder`]'s counters, histograms and
/// span timings, detached from the recorder's lock.
#[derive(Debug, Clone, Default)]
pub struct CounterSnapshot {
    /// Counter name → accumulated value.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name → aggregated histogram.
    pub histograms: BTreeMap<String, Histogram>,
    /// Span path → aggregated timing.
    pub spans: BTreeMap<String, SpanStat>,
}

impl CounterSnapshot {
    /// Renders the snapshot as a JSON object with `counters`, `histograms`
    /// and `spans` keys (span timings in nanoseconds).
    pub fn to_json(&self) -> Json {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), Json::from_u64(*v)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| (k.clone(), h.to_json()))
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|(k, s)| {
                (
                    k.clone(),
                    Json::Obj(vec![
                        ("count".to_owned(), Json::from_u64(s.count)),
                        ("total_ns".to_owned(), Json::from_u64(s.total_nanos)),
                        ("max_ns".to_owned(), Json::from_u64(s.max_nanos)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("counters".to_owned(), Json::Obj(counters)),
            ("histograms".to_owned(), Json::Obj(histograms)),
            ("spans".to_owned(), Json::Obj(spans)),
        ])
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
    spans: BTreeMap<String, SpanStat>,
    events: BTreeMap<String, u64>,
}

/// Aggregates everything in memory behind a mutex. Cheap enough for hot
/// loops (one uncontended lock per record), and the natural sink for
/// `--profile` summaries and bench counter snapshots.
#[derive(Default)]
pub struct SummaryRecorder {
    inner: Mutex<Inner>,
}

impl SummaryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        SummaryRecorder::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current value of the named counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Total nanoseconds recorded under the span path (0 if never seen).
    pub fn span_nanos(&self, path: &str) -> u64 {
        self.lock()
            .spans
            .get(path)
            .map(|s| s.total_nanos)
            .unwrap_or(0)
    }

    /// Aggregated stats for the span path, if it completed at least once.
    pub fn span_stats(&self, path: &str) -> Option<SpanStat> {
        self.lock().spans.get(path).copied()
    }

    /// Number of times the named event fired.
    pub fn event_count(&self, name: &str) -> u64 {
        self.lock().events.get(name).copied().unwrap_or(0)
    }

    /// Copies out all counters, histograms and span timings.
    pub fn snapshot(&self) -> CounterSnapshot {
        let inner = self.lock();
        CounterSnapshot {
            counters: inner.counters.clone(),
            histograms: inner.histograms.clone(),
            spans: inner.spans.clone(),
        }
    }

    /// Renders the current state as a JSON object (see
    /// [`CounterSnapshot::to_json`]).
    pub fn to_json(&self) -> Json {
        self.snapshot().to_json()
    }

    /// Renders a human-readable profile: spans sorted by total time, then
    /// counters, histograms and event counts alphabetically.
    pub fn render_text(&self) -> String {
        let inner = self.lock();
        let mut out = String::new();
        if !inner.spans.is_empty() {
            let _ = writeln!(out, "spans (total ms / count / max ms):");
            let mut spans: Vec<(&String, &SpanStat)> = inner.spans.iter().collect();
            spans.sort_by_key(|(_, s)| std::cmp::Reverse(s.total_nanos));
            for (path, s) in spans {
                let _ = writeln!(
                    out,
                    "  {path}: {:.3} / {} / {:.3}",
                    nanos_to_ms(s.total_nanos),
                    s.count,
                    nanos_to_ms(s.max_nanos),
                );
            }
        }
        if !inner.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for (name, v) in &inner.counters {
                let _ = writeln!(out, "  {name}: {v}");
            }
        }
        if !inner.histograms.is_empty() {
            let _ = writeln!(out, "histograms (count / mean / max):");
            for (name, h) in &inner.histograms {
                let _ = writeln!(out, "  {name}: {} / {:.1} / {}", h.count, h.mean(), h.max);
            }
        }
        if !inner.events.is_empty() {
            let _ = writeln!(out, "events:");
            for (name, n) in &inner.events {
                let _ = writeln!(out, "  {name}: {n}");
            }
        }
        out
    }
}

#[expect(clippy::as_conversions, reason = "u64→f64 for display only")]
fn nanos_to_ms(nanos: u64) -> f64 {
    nanos as f64 / 1.0e6
}

impl std::fmt::Debug for SummaryRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.lock();
        f.debug_struct("SummaryRecorder")
            .field("counters", &inner.counters.len())
            .field("histograms", &inner.histograms.len())
            .field("spans", &inner.spans.len())
            .field("events", &inner.events.len())
            .finish()
    }
}

impl Recorder for SummaryRecorder {
    fn add_counter(&self, name: &str, delta: u64) {
        let mut inner = self.lock();
        let slot = inner.counters.entry(name.to_owned()).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    fn record_histogram(&self, name: &str, value: u64) {
        self.lock()
            .histograms
            .entry(name.to_owned())
            .or_insert_with(Histogram::new)
            .observe(value);
    }

    fn record_span(&self, path: &str, nanos: u64) {
        let mut inner = self.lock();
        let stat = inner.spans.entry(path.to_owned()).or_default();
        stat.count += 1;
        stat.total_nanos = stat.total_nanos.saturating_add(nanos);
        stat.max_nanos = stat.max_nanos.max(nanos);
    }

    fn record_event(&self, name: &str, _fields: &[(&str, Field)]) {
        let mut inner = self.lock();
        *inner.events.entry(name.to_owned()).or_insert(0) += 1;
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::float_cmp)] // tests may panic and compare exact floats
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = SummaryRecorder::new();
        r.add_counter("a", 1);
        r.add_counter("a", 2);
        r.add_counter("b", 5);
        assert_eq!(r.counter("a"), 3);
        assert_eq!(r.counter("b"), 5);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn histogram_buckets_are_log_scale() {
        let r = SummaryRecorder::new();
        for v in [0, 1, 2, 3, 4, 1024] {
            r.record_histogram("h", v);
        }
        let snap = r.snapshot();
        let h = snap.histograms.get("h").unwrap();
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1034);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1024);
        // 0 and 1 land in bucket 0; 2 and 3 in bucket 1; 4 in bucket 2;
        // 1024 in bucket 10.
        assert_eq!(h.buckets[0], 2);
        assert_eq!(h.buckets[1], 2);
        assert_eq!(h.buckets[2], 1);
        assert_eq!(h.buckets[10], 1);
    }

    #[test]
    fn span_stats_track_count_total_max() {
        let r = SummaryRecorder::new();
        r.record_span("s", 10);
        r.record_span("s", 30);
        let s = r.span_stats("s").unwrap();
        assert_eq!(s.count, 2);
        assert_eq!(s.total_nanos, 40);
        assert_eq!(s.max_nanos, 30);
        assert!(r.span_stats("missing").is_none());
    }

    #[test]
    fn snapshot_to_json_has_expected_shape() {
        let r = SummaryRecorder::new();
        r.add_counter("c", 7);
        r.record_histogram("h", 8);
        r.record_span("s", 100);
        let json = r.to_json();
        assert_eq!(
            json.get("counters")
                .and_then(|c| c.get("c"))
                .and_then(Json::as_f64),
            Some(7.0)
        );
        let h = json.get("histograms").and_then(|h| h.get("h")).unwrap();
        assert_eq!(h.get("count").and_then(Json::as_f64), Some(1.0));
        let s = json.get("spans").and_then(|s| s.get("s")).unwrap();
        assert_eq!(s.get("total_ns").and_then(Json::as_f64), Some(100.0));
        // Round-trips through the serializer and parser.
        let reparsed = Json::parse(&json.to_string()).unwrap();
        assert_eq!(
            reparsed
                .get("counters")
                .and_then(|c| c.get("c"))
                .and_then(Json::as_f64),
            Some(7.0)
        );
    }

    #[test]
    fn render_text_mentions_everything() {
        let r = SummaryRecorder::new();
        r.add_counter("cnt", 1);
        r.record_histogram("hist", 2);
        r.record_span("sp", 3);
        r.record_event("ev", &[]);
        let text = r.render_text();
        assert!(text.contains("cnt"));
        assert!(text.contains("hist"));
        assert!(text.contains("sp"));
        assert!(text.contains("ev"));
        assert_eq!(r.event_count("ev"), 1);
    }
}
