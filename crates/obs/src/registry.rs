//! Metric registry: counters, gauges, histograms, and hierarchical span
//! statistics behind one lock, snapshotted deterministically.

use crate::clock::{Clock, Stopwatch};
use crate::snapshot::{HistogramSummary, Snapshot, SpanSummary, HISTOGRAM_BUCKETS};
use std::collections::BTreeMap;
use std::sync::Mutex;

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Hist>,
    spans: BTreeMap<String, SpanStat>,
}

struct Hist {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for Hist {
    fn default() -> Self {
        Hist { count: 0, sum: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY, buckets: [0; HISTOGRAM_BUCKETS] }
    }
}

#[derive(Default)]
struct SpanStat {
    count: u64,
    total_s: f64,
    min_s: f64,
    max_s: f64,
}

/// Thread-safe metric registry.
///
/// All maps are `BTreeMap`s, so [`Registry::snapshot`] is sorted by name
/// and deterministic; under a logical [`Clock`] (the simulator's), two
/// identical runs produce bit-identical snapshots. Metric names use a
/// `'.'`-separated convention (`service.jobs.completed`); span paths are
/// `'/'`-separated hierarchies (`pipeline/solve/gmres`) aggregated per
/// path.
pub struct Registry {
    clock: Clock,
    inner: Mutex<Inner>,
}

impl Registry {
    /// A registry timing spans against `clock`.
    pub fn new(clock: Clock) -> Self {
        Registry { clock, inner: Mutex::new(Inner::default()) }
    }

    /// Convenience constructor: wall clock epoch now.
    pub fn with_wall_clock() -> Self {
        Registry::new(Clock::wall())
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic while holding the metrics lock cannot corrupt the
        // aggregates in a way we care more about than continuing.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Add `delta` to the named monotonic counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        let mut inner = self.locked();
        *inner.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Set the named gauge (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        let mut inner = self.locked();
        inner.gauges.insert(name.to_string(), value);
    }

    /// Raise the named gauge to `value` if larger (peak tracking).
    pub fn gauge_max(&self, name: &str, value: f64) {
        let mut inner = self.locked();
        let g = inner.gauges.entry(name.to_string()).or_insert(f64::NEG_INFINITY);
        if value > *g {
            *g = value;
        }
    }

    /// Record one observation into the named histogram.
    pub fn observe(&self, name: &str, value: f64) {
        let mut inner = self.locked();
        let h = inner.histograms.entry(name.to_string()).or_default();
        h.count += 1;
        h.sum += value;
        h.min = h.min.min(value);
        h.max = h.max.max(value);
        h.buckets[HistogramSummary::bucket_index(value)] += 1;
    }

    /// Record a completed span of `seconds` on `path` directly (for
    /// durations measured elsewhere, e.g. a solver's own timer).
    pub fn record_span_s(&self, path: &str, seconds: f64) {
        let mut inner = self.locked();
        let s = inner.spans.entry(path.to_string()).or_default();
        if s.count == 0 {
            s.min_s = seconds;
            s.max_s = seconds;
        } else {
            s.min_s = s.min_s.min(seconds);
            s.max_s = s.max_s.max(seconds);
        }
        s.count += 1;
        s.total_s += seconds;
    }

    /// Time `f` against the registry clock and record it as a span on
    /// `path`. Returns `f`'s result.
    pub fn time<T>(&self, path: &str, f: impl FnOnce() -> T) -> T {
        let sw = Stopwatch::start(&self.clock);
        let out = f();
        self.record_span_s(path, sw.elapsed_s());
        out
    }

    /// Deterministic point-in-time copy (sorted by name).
    pub fn snapshot(&self) -> Snapshot {
        let inner = self.locked();
        Snapshot {
            counters: inner.counters.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| {
                    (
                        k.clone(),
                        HistogramSummary {
                            count: h.count,
                            sum: h.sum,
                            min: if h.count == 0 { 0.0 } else { h.min },
                            max: if h.count == 0 { 0.0 } else { h.max },
                            buckets: h.buckets.to_vec(),
                        },
                    )
                })
                .collect(),
            spans: inner
                .spans
                .iter()
                .map(|(k, s)| {
                    (
                        k.clone(),
                        SpanSummary { count: s.count, total_s: s.total_s, min_s: s.min_s, max_s: s.max_s },
                    )
                })
                .collect(),
        }
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::with_wall_clock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_sort() {
        let r = Registry::with_wall_clock();
        r.counter_add("z.last", 1);
        r.counter_add("a.first", 2);
        r.counter_add("a.first", 3);
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("a.first".to_string(), 5), ("z.last".to_string(), 1)]);
    }

    #[test]
    fn gauges_last_write_and_peak() {
        let r = Registry::with_wall_clock();
        r.gauge_set("depth", 3.0);
        r.gauge_set("depth", 1.0);
        r.gauge_max("peak", 2.0);
        r.gauge_max("peak", 5.0);
        r.gauge_max("peak", 4.0);
        let snap = r.snapshot();
        assert_eq!(snap.gauge("depth"), Some(1.0));
        assert_eq!(snap.gauge("peak"), Some(5.0));
    }

    #[test]
    fn histograms_track_count_sum_extremes_buckets() {
        let r = Registry::with_wall_clock();
        for v in [100.0, 200.0, 400.0] {
            r.observe("lat_us", v);
        }
        let snap = r.snapshot();
        let h = snap.histogram("lat_us").expect("histogram");
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 700.0);
        assert_eq!(h.min, 100.0);
        assert_eq!(h.max, 400.0);
        assert!((h.mean() - 700.0 / 3.0).abs() < 1e-12);
        assert_eq!(h.buckets.iter().sum::<u64>(), 3);
    }

    #[test]
    fn spans_aggregate_per_path() {
        let r = Registry::with_wall_clock();
        r.record_span_s("pipeline/solve", 1.0);
        r.record_span_s("pipeline/solve", 0.5);
        r.record_span_s("pipeline/mesh", 0.25);
        let snap = r.snapshot();
        let s = snap.span("pipeline/solve").expect("span");
        assert_eq!(s.count, 2);
        assert!((s.total_s - 1.5).abs() < 1e-12);
        assert_eq!(s.min_s, 0.5);
        assert_eq!(s.max_s, 1.0);
        assert_eq!(snap.span("pipeline/mesh").expect("span").count, 1);
    }

    #[test]
    fn time_records_under_logical_clock_deterministically() {
        // With a logical clock that nobody advances, every span takes
        // exactly 0.0 s — two identical runs snapshot identically.
        let run = || {
            let clock = Clock::logical();
            let r = Registry::new(clock.clone());
            r.time("a/b", || ());
            clock.advance_to_us(1000);
            r.time("a/b", || clock.advance_to_us(3000));
            r.counter_add("n", 1);
            r.snapshot()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b);
        let s = a.span("a/b").expect("span");
        assert_eq!(s.count, 2);
        // Second span covered the 1000→3000 µs advance.
        assert!((s.total_s - 0.002).abs() < 1e-12);
        assert_eq!(a.to_json().render(), b.to_json().render());
    }
}
