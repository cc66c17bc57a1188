//! Point-in-time copies of a [`Registry`](crate::Registry) with a JSON
//! round-trip.

use crate::json::{JsonError, JsonValue};

/// Number of log₂ buckets a histogram keeps (values 0‥1 land in bucket
/// 0, value `v ≥ 1` in bucket `⌊log₂ v⌋` clamped to the last).
pub const HISTOGRAM_BUCKETS: usize = 32;

/// Summary of one histogram: count/sum/min/max plus log₂ buckets.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observation (`0.0` when empty).
    pub min: f64,
    /// Largest observation (`0.0` when empty).
    pub max: f64,
    /// `HISTOGRAM_BUCKETS` log₂ buckets; bucket `i` counts observations
    /// `v` with `⌊log₂ max(v, 1)⌋ = i` (negative values land in bucket
    /// 0).
    pub buckets: Vec<u64>,
}

impl HistogramSummary {
    /// An empty histogram.
    pub fn empty() -> Self {
        HistogramSummary { count: 0, sum: 0.0, min: 0.0, max: 0.0, buckets: vec![0; HISTOGRAM_BUCKETS] }
    }

    /// Mean observation, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Index of the bucket `value` falls into.
    pub fn bucket_index(value: f64) -> usize {
        if value.is_nan() || value < 1.0 {
            return 0;
        }
        (value.log2().floor() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Aggregated statistics for one span path.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Number of completed spans on this path.
    pub count: u64,
    /// Total seconds across all spans.
    pub total_s: f64,
    /// Shortest single span.
    pub min_s: f64,
    /// Longest single span.
    pub max_s: f64,
}

/// A deterministic point-in-time copy of a registry: every vector is
/// sorted by name, so two snapshots of identical registries compare
/// (and render) identically.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Monotonic counters.
    pub counters: Vec<(String, u64)>,
    /// Last-write-wins gauges.
    pub gauges: Vec<(String, f64)>,
    /// Histograms.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Span statistics keyed by `'/'`-separated path.
    pub spans: Vec<(String, SpanSummary)>,
}

impl Snapshot {
    /// Counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Span summary by path.
    pub fn span(&self, path: &str) -> Option<&SpanSummary> {
        self.spans.iter().find(|(n, _)| n == path).map(|(_, s)| s)
    }

    /// Encode as a JSON object (`counters` / `gauges` / `histograms` /
    /// `spans`, each an object keyed by metric name in sorted order).
    pub fn to_json(&self) -> JsonValue {
        let counters = JsonValue::Obj(
            self.counters.iter().map(|(n, v)| (n.clone(), JsonValue::from(*v))).collect(),
        );
        let gauges = JsonValue::Obj(
            self.gauges.iter().map(|(n, v)| (n.clone(), JsonValue::Num(*v))).collect(),
        );
        let histograms = JsonValue::Obj(
            self.histograms
                .iter()
                .map(|(n, h)| {
                    // Only non-empty buckets are encoded, as [index, count]
                    // pairs — most of the 32 are zero.
                    let buckets: Vec<JsonValue> = h
                        .buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| **c > 0)
                        .map(|(i, c)| {
                            JsonValue::Arr(vec![JsonValue::from(i), JsonValue::from(*c)])
                        })
                        .collect();
                    let obj = JsonValue::obj()
                        .with("count", h.count.into())
                        .with("sum", h.sum.into())
                        .with("min", h.min.into())
                        .with("max", h.max.into())
                        .with("mean", h.mean().into())
                        .with("log2_buckets", JsonValue::Arr(buckets));
                    (n.clone(), obj)
                })
                .collect(),
        );
        let spans = JsonValue::Obj(
            self.spans
                .iter()
                .map(|(n, s)| {
                    let obj = JsonValue::obj()
                        .with("count", s.count.into())
                        .with("total_s", s.total_s.into())
                        .with("min_s", s.min_s.into())
                        .with("max_s", s.max_s.into());
                    (n.clone(), obj)
                })
                .collect(),
        );
        JsonValue::obj()
            .with("counters", counters)
            .with("gauges", gauges)
            .with("histograms", histograms)
            .with("spans", spans)
    }

    /// Decode a snapshot previously produced by [`Snapshot::to_json`].
    pub fn from_json(v: &JsonValue) -> Result<Snapshot, JsonError> {
        let fail = |msg: &str| JsonError { at: 0, msg: msg.to_string() };
        let obj_entries = |key: &str| -> Result<Vec<(String, JsonValue)>, JsonError> {
            match v.get(key) {
                Some(JsonValue::Obj(entries)) => Ok(entries.clone()),
                None => Ok(Vec::new()),
                Some(_) => Err(fail(&format!("'{key}' is not an object"))),
            }
        };
        let mut snap = Snapshot::default();
        for (name, val) in obj_entries("counters")? {
            snap.counters.push((name, val.as_u64().ok_or_else(|| fail("bad counter"))?));
        }
        for (name, val) in obj_entries("gauges")? {
            // A non-finite gauge renders as null; decode it back as NaN.
            let x = val.as_f64().unwrap_or(f64::NAN);
            snap.gauges.push((name, x));
        }
        for (name, val) in obj_entries("histograms")? {
            let mut h = HistogramSummary::empty();
            h.count = val.get("count").and_then(JsonValue::as_u64).ok_or_else(|| fail("bad histogram count"))?;
            h.sum = val.get("sum").and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
            h.min = val.get("min").and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
            h.max = val.get("max").and_then(JsonValue::as_f64).unwrap_or(f64::NAN);
            if let Some(pairs) = val.get("log2_buckets").and_then(JsonValue::as_array) {
                for pair in pairs {
                    let pair = pair.as_array().ok_or_else(|| fail("bad bucket pair"))?;
                    let i = pair
                        .first()
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| fail("bad bucket index"))? as usize;
                    let c = pair
                        .get(1)
                        .and_then(JsonValue::as_u64)
                        .ok_or_else(|| fail("bad bucket count"))?;
                    if i < h.buckets.len() {
                        h.buckets[i] = c;
                    }
                }
            }
            snap.histograms.push((name, h));
        }
        for (name, val) in obj_entries("spans")? {
            snap.spans.push((
                name,
                SpanSummary {
                    count: val.get("count").and_then(JsonValue::as_u64).ok_or_else(|| fail("bad span count"))?,
                    total_s: val.get("total_s").and_then(JsonValue::as_f64).unwrap_or(f64::NAN),
                    min_s: val.get("min_s").and_then(JsonValue::as_f64).unwrap_or(f64::NAN),
                    max_s: val.get("max_s").and_then(JsonValue::as_f64).unwrap_or(f64::NAN),
                },
            ));
        }
        Ok(snap)
    }

    /// A copy with every metric name (and span path) prefixed with
    /// `"{prefix}."` — how a fleet namespaces its shards' registries
    /// (`shard0.service.jobs.completed`, …) before merging them into one
    /// document. Prefixing every name with the same string preserves the
    /// sorted order, so the result is still a valid deterministic
    /// snapshot.
    pub fn prefixed(&self, prefix: &str) -> Snapshot {
        let pre = |n: &String| format!("{prefix}.{n}");
        Snapshot {
            counters: self.counters.iter().map(|(n, v)| (pre(n), *v)).collect(),
            gauges: self.gauges.iter().map(|(n, v)| (pre(n), *v)).collect(),
            histograms: self.histograms.iter().map(|(n, h)| (pre(n), h.clone())).collect(),
            spans: self.spans.iter().map(|(n, s)| (pre(n), s.clone())).collect(),
        }
    }

    /// Merge several snapshots into one, re-sorted by name. Metric names
    /// are expected to be disjoint (the fleet guarantees this by
    /// [`Snapshot::prefixed`]-ing each shard); a name that does appear in
    /// several inputs keeps one entry: counters / histogram and span
    /// summaries are summed element-wise, gauges keep their maximum —
    /// the aggregations that stay truthful for the fleet's additive
    /// counters and peak-style gauges.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a Snapshot>) -> Snapshot {
        let mut out = Snapshot::default();
        for part in parts {
            for (n, v) in &part.counters {
                match out.counters.iter_mut().find(|(m, _)| m == n) {
                    Some((_, acc)) => *acc += v,
                    None => out.counters.push((n.clone(), *v)),
                }
            }
            for (n, v) in &part.gauges {
                match out.gauges.iter_mut().find(|(m, _)| m == n) {
                    Some((_, acc)) => *acc = acc.max(*v),
                    None => out.gauges.push((n.clone(), *v)),
                }
            }
            for (n, h) in &part.histograms {
                match out.histograms.iter_mut().find(|(m, _)| m == n) {
                    // An empty side contributes nothing — and must not
                    // drag min/max toward their 0.0 placeholders.
                    Some((_, acc)) if h.count > 0 => {
                        acc.min = if acc.count == 0 { h.min } else { acc.min.min(h.min) };
                        acc.max = if acc.count == 0 { h.max } else { acc.max.max(h.max) };
                        acc.count += h.count;
                        acc.sum += h.sum;
                        for (b, c) in acc.buckets.iter_mut().zip(&h.buckets) {
                            *b += c;
                        }
                    }
                    Some(_) => {}
                    None => out.histograms.push((n.clone(), h.clone())),
                }
            }
            for (n, s) in &part.spans {
                match out.spans.iter_mut().find(|(m, _)| m == n) {
                    Some((_, acc)) if s.count > 0 => {
                        acc.min_s = if acc.count == 0 { s.min_s } else { acc.min_s.min(s.min_s) };
                        acc.max_s = if acc.count == 0 { s.max_s } else { acc.max_s.max(s.max_s) };
                        acc.count += s.count;
                        acc.total_s += s.total_s;
                    }
                    Some(_) => {}
                    None => out.spans.push((n.clone(), s.clone())),
                }
            }
        }
        out.counters.sort_by(|a, b| a.0.cmp(&b.0));
        out.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        out.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        out.spans.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    impl Snapshot {
        /// Histogram summary by name.
        pub(crate) fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
            self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
        }
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let mut h = HistogramSummary::empty();
        h.count = 3;
        h.sum = 700.0;
        h.min = 100.0;
        h.max = 400.0;
        h.buckets[HistogramSummary::bucket_index(100.0)] += 1;
        h.buckets[HistogramSummary::bucket_index(200.0)] += 1;
        h.buckets[HistogramSummary::bucket_index(400.0)] += 1;
        let snap = Snapshot {
            counters: vec![("jobs.completed".into(), 7), ("jobs.rejected".into(), 1)],
            gauges: vec![("queue.depth".into(), 3.0)],
            histograms: vec![("latency_us".into(), h)],
            spans: vec![(
                "pipeline/solve".into(),
                SpanSummary { count: 2, total_s: 1.5, min_s: 0.5, max_s: 1.0 },
            )],
        };
        let text = snap.to_json().render();
        let back = Snapshot::from_json(&parse_json(&text).expect("parses")).expect("round trip");
        assert_eq!(back, snap);
        // And the re-rendering is byte-identical (schema stability).
        assert_eq!(back.to_json().render(), text);
    }

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(HistogramSummary::bucket_index(-5.0), 0);
        assert_eq!(HistogramSummary::bucket_index(0.5), 0);
        assert_eq!(HistogramSummary::bucket_index(1.0), 0);
        assert_eq!(HistogramSummary::bucket_index(2.0), 1);
        assert_eq!(HistogramSummary::bucket_index(1023.0), 9);
        assert_eq!(HistogramSummary::bucket_index(1e30), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn prefixed_renames_everything_and_stays_sorted() {
        let snap = Snapshot {
            counters: vec![("jobs.completed".into(), 7)],
            gauges: vec![("queue.depth".into(), 3.0)],
            histograms: vec![("latency_us".into(), HistogramSummary::empty())],
            spans: vec![("scan/solve".into(), SpanSummary { count: 1, total_s: 0.1, min_s: 0.1, max_s: 0.1 })],
        };
        let p = snap.prefixed("shard2");
        assert_eq!(p.counter("shard2.jobs.completed"), Some(7));
        assert_eq!(p.gauge("shard2.queue.depth"), Some(3.0));
        assert!(p.histogram("shard2.latency_us").is_some());
        assert!(p.span("shard2.scan/solve").is_some());
        assert_eq!(p.counter("jobs.completed"), None, "old names are gone");
    }

    #[test]
    fn merged_sums_counters_and_keeps_disjoint_names_sorted() {
        let a = Snapshot {
            counters: vec![("shard0.done".into(), 3), ("total".into(), 3)],
            gauges: vec![("peak".into(), 2.0)],
            histograms: vec![],
            spans: vec![],
        };
        let mut h = HistogramSummary::empty();
        h.count = 2;
        h.sum = 30.0;
        h.min = 10.0;
        h.max = 20.0;
        h.buckets[HistogramSummary::bucket_index(10.0)] += 1;
        h.buckets[HistogramSummary::bucket_index(20.0)] += 1;
        let b = Snapshot {
            counters: vec![("shard1.done".into(), 4), ("total".into(), 4)],
            gauges: vec![("peak".into(), 5.0)],
            histograms: vec![("lat".into(), h.clone())],
            spans: vec![],
        };
        let m = Snapshot::merged([&a, &b]);
        assert_eq!(m.counter("shard0.done"), Some(3));
        assert_eq!(m.counter("shard1.done"), Some(4));
        assert_eq!(m.counter("total"), Some(7), "colliding counters sum");
        assert_eq!(m.gauge("peak"), Some(5.0), "colliding gauges keep the max");
        assert_eq!(m.histogram("lat"), Some(&h));
        let names: Vec<&str> = m.counters.iter().map(|(n, _)| n.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "merged snapshot stays name-sorted");
    }

    #[test]
    fn merged_histograms_ignore_empty_placeholder_extremes() {
        let mut h = HistogramSummary::empty();
        h.count = 1;
        h.sum = 50.0;
        h.min = 50.0;
        h.max = 50.0;
        h.buckets[HistogramSummary::bucket_index(50.0)] += 1;
        let full = Snapshot { histograms: vec![("lat".into(), h)], ..Snapshot::default() };
        let empty =
            Snapshot { histograms: vec![("lat".into(), HistogramSummary::empty())], ..Snapshot::default() };
        let m = Snapshot::merged([&empty, &full]);
        let lat = m.histogram("lat").expect("merged");
        assert_eq!(lat.count, 1);
        assert_eq!(lat.min, 50.0, "empty side's 0.0 placeholder must not leak into min");
        assert_eq!(lat.max, 50.0);
    }

    #[test]
    fn accessors_find_by_name() {
        let snap = Snapshot {
            counters: vec![("a".into(), 1)],
            gauges: vec![("g".into(), 2.5)],
            histograms: vec![],
            spans: vec![],
        };
        assert_eq!(snap.counter("a"), Some(1));
        assert_eq!(snap.counter("missing"), None);
        assert_eq!(snap.gauge("g"), Some(2.5));
    }
}
