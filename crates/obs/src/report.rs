//! The shared report schema every benchmark / report binary writes into
//! `bench_out/`.

use crate::json::{JsonError, JsonValue};
use crate::snapshot::Snapshot;
use std::io;
use std::path::Path;

/// Schema identifier stamped into every report document.
pub const SCHEMA: &str = "brainshift.obs.v1";

/// One report document:
///
/// ```json
/// {
///   "schema": "brainshift.obs.v1",
///   "name": "<report name>",
///   "params": { ... },       // inputs: sizes, sweep settings
///   "metrics": { ... },      // a Snapshot: counters/gauges/histograms/spans
///   "extra": { ... }         // report-specific detail payload
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Report name (e.g. `"e2e_budget"`, `"conformance"`).
    pub name: String,
    /// Input parameters of the run.
    pub params: JsonValue,
    /// Metric snapshot of the run.
    pub metrics: Snapshot,
    /// Report-specific detail (per-scan arrays, sweep tables, …).
    pub extra: JsonValue,
}

impl BenchReport {
    /// A new empty report.
    pub fn new(name: &str) -> Self {
        BenchReport {
            name: name.to_string(),
            params: JsonValue::obj(),
            metrics: Snapshot::default(),
            extra: JsonValue::obj(),
        }
    }

    /// Encode the full document.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::obj()
            .with("schema", SCHEMA.into())
            .with("name", self.name.as_str().into())
            .with("params", self.params.clone())
            .with("metrics", self.metrics.to_json())
            .with("extra", self.extra.clone())
    }

    /// Decode a document produced by [`BenchReport::to_json`]. Rejects
    /// unknown schema identifiers.
    pub fn from_json(v: &JsonValue) -> Result<BenchReport, JsonError> {
        let fail = |msg: &str| JsonError { at: 0, msg: msg.to_string() };
        match v.get("schema").and_then(JsonValue::as_str) {
            Some(SCHEMA) => {}
            Some(other) => return Err(fail(&format!("unknown schema '{other}'"))),
            None => return Err(fail("missing 'schema'")),
        }
        Ok(BenchReport {
            name: v
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| fail("missing 'name'"))?
                .to_string(),
            params: v.get("params").cloned().unwrap_or_else(JsonValue::obj),
            metrics: Snapshot::from_json(v.get("metrics").unwrap_or(&JsonValue::Null))?,
            extra: v.get("extra").cloned().unwrap_or_else(JsonValue::obj),
        })
    }

    /// Render the document as pretty JSON text.
    pub fn render(&self) -> String {
        self.to_json().render()
    }

    /// Write the rendered document to `path`, creating parent
    /// directories as needed.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn report_round_trips_through_json() {
        let r = Registry::with_wall_clock();
        r.counter_add("scans", 4);
        r.gauge_set("speedup", 2.5);
        r.observe("cold_s", 0.8);
        r.record_span_s("solve", 0.3);
        let mut report = BenchReport::new("warm_solve");
        report.params = JsonValue::obj().with("equations", 77_000u64.into());
        report.metrics = r.snapshot();
        report.extra = JsonValue::obj().with(
            "cold_scan_s",
            vec![JsonValue::Num(0.8), JsonValue::Num(0.7)].into_iter().collect(),
        );
        let text = report.render();
        let back =
            BenchReport::from_json(&crate::json::parse_json(&text).expect("parse")).expect("decode");
        assert_eq!(back, report);
        assert!(text.contains("\"schema\": \"brainshift.obs.v1\""));
    }

    #[test]
    fn unknown_schema_is_rejected() {
        let doc = JsonValue::obj().with("schema", "something.else.v9".into()).with("name", "x".into());
        assert!(BenchReport::from_json(&doc).is_err());
    }
}
