//! Machine-readable run reports: one JSON document that accounts for a
//! whole pipeline run — the span tree, the metric snapshot, events, and
//! quarantine / partial-outcome bookkeeping.
//!
//! Schema (version 1; the in-tree validator fails on drift):
//!
//! ```json
//! {
//!   "schema": 1,
//!   "meta":   { "commit": "...", "cmd": "..." },
//!   "spans":  [ {"name": "...", "start_ms": 0.0, "ms": 1.5, "self_ms": 0.5,
//!                "children": [...]} ],
//!   "metrics": {
//!     "route.sweeps":   {"type": "counter", "value": 12},
//!     "bdd.nodes":      {"type": "gauge", "value": 4096},
//!     "reach.relaxations": {"type": "histogram", "count": 3, "sum": 90,
//!                            "mean": 30.0, "buckets": [[16, 32, 2], [32, 64, 1]]}
//!   },
//!   "events": [ {"at_ms": 0.2, "kind": "quarantine", "subject": "r9",
//!                "detail": "parse-panic"} ],
//!   "events_dropped": 0,
//!   "quarantined": [ {"device": "r9", "stage": "parse",
//!                     "code": "parse-panic", "detail": "..."} ],
//!   "partial": null,
//!   "snapshot": {"devices": 84, "quarantined": 1, "diagnostics": 3}
//! }
//! ```
//!
//! An open span (`Span` alive at capture) serializes `"ms": null`;
//! histogram buckets list only non-empty `[lo, hi, count]` triples.

use crate::json::{within, Value, Writer};
use crate::metrics::{bucket_range, Event, MetricValue};
use crate::span::SpanRecord;
use std::collections::BTreeMap;

/// Current report schema version.
pub const SCHEMA_VERSION: u64 = 1;

/// One quarantined device as reported.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantineEntry {
    /// Device (or file stem).
    pub device: String,
    /// Pipeline stage (`load`, `parse`, `route`).
    pub stage: String,
    /// Stable machine-readable reason code.
    pub code: String,
    /// Free-text detail.
    pub detail: String,
}

/// Partial-outcome accounting: what a governor trip abandoned.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartialOutcome {
    /// Stage that observed the exhaustion.
    pub stage: String,
    /// The limit that tripped (display form).
    pub limit: String,
    /// Machine-readable identifiers of abandoned work.
    pub abandoned: Vec<String>,
}

/// Input-accounting summary for the snapshot that was analyzed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct SnapshotSummary {
    /// Devices that survived to analysis.
    pub devices: usize,
    /// Devices quarantined on the way.
    pub quarantined: usize,
    /// Total parse diagnostics.
    pub diagnostics: usize,
}

/// A captured run report. [`capture`] fills the observability sections;
/// callers (the snapshot pipeline, the bench harness) fill the rest.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Provenance key/values (commit, command line, network).
    pub meta: BTreeMap<String, String>,
    /// Recorded spans (flat; parent indices define the tree).
    pub spans: Vec<SpanRecord>,
    /// Metric snapshot.
    pub metrics: BTreeMap<String, MetricValue>,
    /// Recorded events.
    pub events: Vec<Event>,
    /// Events beyond the retention cap.
    pub events_dropped: u64,
    /// Quarantine accounting.
    pub quarantined: Vec<QuarantineEntry>,
    /// Partial-outcome accounting, when a governor limit tripped.
    pub partial: Option<PartialOutcome>,
    /// Snapshot input summary.
    pub snapshot: Option<SnapshotSummary>,
}

/// Captures everything recorded since the last [`crate::reset`].
pub fn capture() -> RunReport {
    let r = crate::recorder::lock();
    RunReport {
        meta: BTreeMap::new(),
        spans: r.records(),
        metrics: r.metrics.clone(),
        events: r.events.clone(),
        events_dropped: r.events_dropped,
        quarantined: Vec::new(),
        partial: None,
        snapshot: None,
    }
}

fn ms(ns: u64) -> f64 {
    (ns / 1_000) as f64 / 1000.0
}

impl RunReport {
    /// How many spans carry this exact name.
    pub fn span_count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Duration in milliseconds of the first span with this name, if it
    /// closed.
    pub fn span_ms(&self, name: &str) -> Option<f64> {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .and_then(|s| s.dur_ns)
            .map(ms)
    }

    /// The counter's value, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(c)) => Some(*c),
            _ => None,
        }
    }

    /// Serializes to schema-1 JSON.
    pub fn to_json(&self) -> String {
        Writer::spaced()
            .obj(|w| {
                w.field("schema", SCHEMA_VERSION).strs("meta", &self.meta);
                write_span_forest(w, &self.spans);
                w.object("metrics", |w| {
                    for (name, value) in &self.metrics {
                        w.object(name, |w| write_metric(w, value));
                    }
                });
                w.array("events", |w| {
                    for e in &self.events {
                        w.obj(|w| {
                            w.field("at_ms", ms(e.at_ns))
                                .field("kind", &e.kind)
                                .field("subject", &e.subject)
                                .field("detail", &e.detail);
                        });
                    }
                });
                w.field("events_dropped", self.events_dropped);
                w.array("quarantined", |w| {
                    for q in &self.quarantined {
                        w.obj(|w| {
                            w.field("device", &q.device)
                                .field("stage", &q.stage)
                                .field("code", &q.code)
                                .field("detail", &q.detail);
                        });
                    }
                });
                write_partial(w, self.partial.as_ref());
                match &self.snapshot {
                    None => w.field("snapshot", None::<u64>),
                    Some(s) => w.object("snapshot", |w| {
                        w.field("devices", s.devices)
                            .field("quarantined", s.quarantined)
                            .field("diagnostics", s.diagnostics);
                    }),
                };
            })
            .finish()
    }
}

/// Writes the `"partial"` member: the `{stage, limit, abandoned}`
/// accounting of a tripped governor, or `null`. Run reports and the
/// service's governed answers share this one shape.
pub fn write_partial(w: &mut Writer, partial: Option<&PartialOutcome>) {
    match partial {
        None => w.field("partial", None::<u64>),
        Some(p) => w.object("partial", |w| {
            w.field("stage", &p.stage)
                .field("limit", &p.limit)
                .vals("abandoned", &p.abandoned);
        }),
    };
}

/// Writes a flat span list as the `"spans"` member: the nested schema-1
/// forest (`{name, start_ms, ms, self_ms, children}`). This is the
/// report's own renderer, exposed so other producers of span trees —
/// the serve `/tracez` endpoint's per-request traces — emit the exact
/// same shape and validate with the same code.
pub fn write_span_forest(w: &mut Writer, spans: &[SpanRecord]) {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            Some(p) if p < spans.len() => children[p].push(i),
            _ => roots.push(i),
        }
    }
    let forest = Forest { spans, children, self_ns: self_times_ns(spans) };
    w.array("spans", |w| forest.write(w, &roots));
}

/// Per-span self time in nanoseconds, indexed like `spans`: duration
/// minus the durations of direct children, clamped at zero (children of
/// an open span, or clock jitter at span edges, must never produce
/// negative attribution). An open span attributes zero to itself; its
/// closed children still carry their own time.
fn self_times_ns(spans: &[SpanRecord]) -> Vec<u64> {
    let mut child_sum: Vec<u64> = vec![0; spans.len()];
    for s in spans {
        if let (Some(p), Some(d)) = (s.parent, s.dur_ns) {
            if p < spans.len() {
                child_sum[p] = child_sum[p].saturating_add(d);
            }
        }
    }
    spans
        .iter()
        .zip(&child_sum)
        .map(|(s, &c)| s.dur_ns.unwrap_or(0).saturating_sub(c))
        .collect()
}

/// A span list with its child lists and self times, for rendering.
struct Forest<'a> {
    spans: &'a [SpanRecord],
    children: Vec<Vec<usize>>,
    self_ns: Vec<u64>,
}

impl Forest<'_> {
    /// The spans at `idxs`, each with its subtree, as array elements.
    fn write(&self, w: &mut Writer, idxs: &[usize]) {
        for &idx in idxs {
            let s = &self.spans[idx];
            w.obj(|w| {
                w.field("name", &s.name)
                    .field("start_ms", ms(s.start_ns))
                    .field("ms", s.dur_ns.map(ms))
                    .field("self_ms", ms(self.self_ns[idx]))
                    .array("children", |w| self.write(w, &self.children[idx]));
            });
        }
    }
}

fn write_metric(w: &mut Writer, value: &MetricValue) {
    match value {
        MetricValue::Counter(c) => w.field("type", "counter").field("value", *c),
        MetricValue::Gauge(g) => w.field("type", "gauge").field("value", *g),
        MetricValue::Histogram(h) => w
            .field("type", "histogram")
            .field("count", h.count)
            .field("sum", h.sum)
            .field("mean", h.mean())
            .array("buckets", |w| {
                for (i, &n) in h.buckets.iter().enumerate().filter(|(_, &n)| n > 0) {
                    let (lo, hi) = bucket_range(i);
                    w.arr(|w| {
                        w.val(lo).val(hi).val(n);
                    });
                }
            }),
    };
}

/// The version gate every schema-1 document opens with.
fn check_schema(v: &Value) -> Result<(), String> {
    let schema = v.num("schema")?;
    if schema != SCHEMA_VERSION as f64 {
        return Err(format!(
            "schema drift: expected {SCHEMA_VERSION}, found {schema}"
        ));
    }
    Ok(())
}

/// Validates a parsed schema-1 run report. Returns the first problem
/// found; `Ok` means the document has every required section with the
/// required shape.
pub fn validate_run_report(v: &Value) -> Result<(), String> {
    check_schema(v)?;
    v.obj("meta")?;
    for s in v.arr("spans")? {
        validate_span(s)?;
    }
    for (name, m) in v.obj("metrics")? {
        let place = format!("metric {name}");
        match within(&place, m.text("type"))? {
            "counter" | "gauge" => {
                within(&place, m.num("value"))?;
            }
            "histogram" => {
                for k in ["count", "sum", "mean"] {
                    within(&place, m.num(k))?;
                }
                for b in within(&place, m.arr("buckets"))? {
                    let triple = b.as_arr().unwrap_or(&[]);
                    if triple.len() != 3 || triple.iter().any(|t| t.as_f64().is_none()) {
                        return Err(format!("{place}: bucket is not [lo, hi, count]"));
                    }
                }
            }
            other => return Err(format!("{place}: unknown type {other:?}")),
        }
    }
    for e in v.arr("events")? {
        for k in ["kind", "subject", "detail"] {
            within("event", e.text(k))?;
        }
        within("event", e.num("at_ms"))?;
    }
    for q in v.arr("quarantined")? {
        for k in ["device", "stage", "code"] {
            within("quarantine entry", q.nonempty(k))?;
        }
    }
    match v.get("partial") {
        Some(Value::Null) => {}
        Some(p @ Value::Obj(_)) => {
            for k in ["stage", "limit"] {
                within("partial", p.text(k))?;
            }
            within("partial", p.arr("abandoned"))?;
        }
        _ => return Err("missing \"partial\" (object or null)".to_string()),
    }
    match v.get("snapshot") {
        Some(Value::Null) | None => {}
        Some(s @ Value::Obj(_)) => {
            for k in ["devices", "quarantined", "diagnostics"] {
                within("snapshot", s.num(k))?;
            }
        }
        _ => return Err("\"snapshot\" must be object or null".to_string()),
    }
    Ok(())
}

/// Validates one node of a schema-1 span forest (recursively). Public
/// because `/tracez` documents embed per-request span forests in the
/// same shape.
pub fn validate_span(s: &Value) -> Result<(), String> {
    within("span", s.text("name"))?;
    within("span", s.num("start_ms"))?;
    match s.get("ms") {
        Some(Value::Num(_)) | Some(Value::Null) => {}
        _ => return Err("span \"ms\" must be number or null".to_string()),
    }
    // `self_ms` is optional (pre-attribution reports lack it) but must
    // be numeric when present.
    match s.get("self_ms") {
        None | Some(Value::Num(_)) => {}
        _ => return Err("span \"self_ms\" must be a number when present".to_string()),
    }
    for c in within("span", s.arr("children"))? {
        validate_span(c)?;
    }
    Ok(())
}

/// Validates a serve `/tracez` document: schema 1, ring accounting
/// (`capacity` > 0, `evicted` ≥ 0), and per-request trace entries with
/// a non-empty trace id, request identity, non-negative timing fields,
/// and a valid span forest.
pub fn validate_tracez(v: &Value) -> Result<(), String> {
    check_schema(v)?;
    v.num_min("capacity", 1.0)?;
    v.num_min("evicted", 0.0)?;
    for (i, t) in v.arr("traces")?.iter().enumerate() {
        let place = format!("trace {i}");
        for k in ["trace_id", "method", "path"] {
            within(&place, t.nonempty(k))?;
        }
        match t.num("status") {
            Ok(s) if (100.0..600.0).contains(&s) => {}
            _ => return Err(format!("{place}: \"status\" must be an HTTP status")),
        }
        for k in ["queue_wait_ms", "handler_ms"] {
            within(&place, t.num_min(k, 0.0))?;
        }
        match t.get("deadline_ms") {
            Some(Value::Num(_)) | Some(Value::Null) | None => {}
            _ => return Err(format!("{place}: \"deadline_ms\" must be number or null")),
        }
        if !matches!(t.get("partial"), Some(Value::Bool(_))) {
            return Err(format!("{place}: missing boolean \"partial\""));
        }
        for s in within(&place, t.arr("spans"))? {
            within(&place, validate_span(s))?;
        }
    }
    Ok(())
}

/// Validates a bench JSON file (`BENCH_<cmd>.json`): the stable
/// `{bench, network, stage, ms, meta}` row schema plus an embedded run
/// report.
pub fn validate_bench(v: &Value) -> Result<(), String> {
    check_schema(v)?;
    v.text("bench")?;
    let rows = v.arr("rows")?;
    if rows.is_empty() {
        return Err("\"rows\" is empty".to_string());
    }
    for (i, row) in rows.iter().enumerate() {
        let place = format!("row {i}");
        for k in ["bench", "network", "stage"] {
            within(&place, row.nonempty(k))?;
        }
        within(&place, row.num_min("ms", 0.0))?;
        within(&place, row.obj("meta"))?;
    }
    let report = v.get("report").ok_or("missing \"report\"")?;
    within("embedded report", validate_run_report(report))
}

/// Validates one `results/TRAJECTORY.jsonl` row: a commit-stamped bench
/// summary (`{schema, bench, commit, unix, rows, total_ms}`), one per
/// `benchmark/` workload result a merged PR records.
pub fn validate_trajectory_row(v: &Value) -> Result<(), String> {
    check_schema(v)?;
    for k in ["bench", "commit"] {
        v.nonempty(k)?;
    }
    v.num_min("unix", 0.0)?;
    v.num_min("rows", 1.0)?;
    v.num_min("total_ms", 0.0)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::span::Span;

    #[test]
    fn self_time_subtracts_children_and_clamps() {
        let rec = |name: &str, parent, dur_ns| SpanRecord {
            name: name.to_string(),
            parent,
            start_ns: 0,
            dur_ns,
            tid: 0,
        };
        let spans = vec![
            rec("root", None, Some(100)),
            rec("a", Some(0), Some(30)),
            rec("b", Some(0), Some(40)),
            rec("a.inner", Some(1), Some(25)),
        ];
        assert_eq!(self_times_ns(&spans), [30, 5, 40, 25]);
        // Children can over-report (clock edges); self time clamps to 0.
        let spans = vec![rec("root", None, Some(10)), rec("a", Some(0), Some(15))];
        assert_eq!(self_times_ns(&spans)[0], 0);
        // An open span attributes nothing to itself.
        let spans = vec![rec("open", None, None), rec("a", Some(0), Some(5))];
        assert_eq!(self_times_ns(&spans)[0], 0);
    }

    #[test]
    fn capture_serialize_validate_roundtrip() {
        let _g = crate::span::test_guard();
        crate::reset();
        {
            let _root = Span::enter("pipeline");
            let _child = Span::enter("route.simulate");
            crate::counter_add("route.sweeps", 7);
            crate::gauge_set("bdd.nodes", 42.0);
            crate::observe("reach.relaxations", 30);
            crate::event("quarantine", "r9", "parse-panic");
        }
        let mut report = capture();
        report.meta.insert("commit".into(), "abc123".into());
        report.quarantined.push(QuarantineEntry {
            device: "r9".into(),
            stage: "parse".into(),
            code: "parse-panic".into(),
            detail: "index out of bounds".into(),
        });
        report.partial = Some(PartialOutcome {
            stage: "bgp-fixed-point".into(),
            limit: "deadline (120000 ms)".into(),
            abandoned: vec!["10.0.0.0/8".into()],
        });
        report.snapshot = Some(SnapshotSummary {
            devices: 3,
            quarantined: 1,
            diagnostics: 2,
        });
        let text = report.to_json();
        let parsed = json::parse(&text).expect("report JSON parses");
        validate_run_report(&parsed).expect("report validates");
        // The span tree nests route.simulate under pipeline.
        let spans = parsed.get("spans").and_then(Value::as_arr).expect("spans");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].get("name").and_then(Value::as_str), Some("pipeline"));
        let kids = spans[0]
            .get("children")
            .and_then(Value::as_arr)
            .expect("children");
        assert_eq!(
            kids[0].get("name").and_then(Value::as_str),
            Some("route.simulate")
        );
        // Accessors see the same data.
        assert_eq!(report.span_count("pipeline"), 1);
        assert_eq!(report.counter("route.sweeps"), Some(7));
    }

    #[test]
    fn validator_rejects_drift() {
        let good = r#"{"schema": 1, "meta": {}, "spans": [], "metrics": {},
                       "events": [], "events_dropped": 0, "quarantined": [],
                       "partial": null, "snapshot": null}"#;
        let v = json::parse(good).expect("parses");
        validate_run_report(&v).expect("valid");
        let drifted = good.replace("\"schema\": 1", "\"schema\": 2");
        let v = json::parse(&drifted).expect("parses");
        assert!(validate_run_report(&v).unwrap_err().contains("drift"));
        let missing = good.replace("\"quarantined\": []", "\"quarantined\": 5");
        let v = json::parse(&missing).expect("parses");
        assert!(validate_run_report(&v).is_err());
    }

    #[test]
    fn tracez_schema_validates() {
        let doc = r#"{"schema": 1, "capacity": 256, "evicted": 3, "traces": [
          {"trace_id": "9a1b2c3d4e5f6071", "method": "GET", "path": "/healthz",
           "status": 200, "queue_wait_ms": 0.25, "handler_ms": 1.5,
           "deadline_ms": null, "partial": false,
           "spans": [{"name": "serve.request", "start_ms": 0, "ms": 1.5,
                      "self_ms": 1.5, "children": []}]}]}"#;
        let v = json::parse(doc).expect("parses");
        validate_tracez(&v).expect("valid tracez document");
        for (needle, replacement, what) in [
            (r#""trace_id": "9a1b2c3d4e5f6071""#, r#""trace_id": """#, "empty trace id"),
            (r#""status": 200"#, r#""status": 42"#, "non-HTTP status"),
            (r#""queue_wait_ms": 0.25"#, r#""queue_wait_ms": -1"#, "negative wait"),
            (r#""partial": false"#, r#""partial": "no""#, "non-boolean partial"),
            (r#""capacity": 256"#, r#""capacity": 0"#, "zero capacity"),
        ] {
            let bad = doc.replace(needle, replacement);
            let v = json::parse(&bad).expect("parses");
            assert!(validate_tracez(&v).is_err(), "{what} must fail");
        }
    }

    #[test]
    fn bench_schema_validates() {
        let doc = r#"{"schema": 1, "bench": "table2", "meta": {},
          "rows": [{"bench": "table2", "network": "N2", "stage": "parse",
                    "ms": 1.25, "meta": {}}],
          "report": {"schema": 1, "meta": {}, "spans": [], "metrics": {},
                     "events": [], "events_dropped": 0, "quarantined": [],
                     "partial": null, "snapshot": null}}"#;
        let v = json::parse(doc).expect("parses");
        validate_bench(&v).expect("valid bench file");
        let bad = doc.replace("\"ms\": 1.25", "\"ms\": -1");
        let v = json::parse(&bad).expect("parses");
        assert!(validate_bench(&v).is_err());
        let empty = doc.replace(
            r#""rows": [{"bench": "table2", "network": "N2", "stage": "parse",
                    "ms": 1.25, "meta": {}}]"#,
            r#""rows": []"#,
        );
        if let Ok(v) = json::parse(&empty) {
            assert!(validate_bench(&v).is_err());
        }
    }

    #[test]
    fn trajectory_row_validates() {
        let row = r#"{"schema": 1, "bench": "table2", "commit": "0ecb0d3",
                      "unix": 1754600000, "rows": 12, "total_ms": 842.5}"#;
        let v = json::parse(row).expect("parses");
        validate_trajectory_row(&v).expect("valid trajectory row");
        for (needle, replacement) in [
            (r#""commit": "0ecb0d3""#, r#""commit": """#),
            (r#""rows": 12"#, r#""rows": 0"#),
            (r#""total_ms": 842.5"#, r#""total_ms": -1"#),
        ] {
            let bad = row.replace(needle, replacement);
            let v = json::parse(&bad).expect("parses");
            assert!(validate_trajectory_row(&v).is_err());
        }
    }
}
