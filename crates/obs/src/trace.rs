//! Trace export: render a span forest as Chrome `trace.json` (loadable
//! in Perfetto / `chrome://tracing`) or as folded-stack flamegraph text.
//!
//! Chrome format: one complete event (`"ph": "X"`) per span, timestamps
//! and durations in microseconds, one `tid` per root tree. Folded
//! format: one line per distinct span path — `root;child;leaf
//! <self-time-µs>` — ready for `flamegraph.pl` or speedscope.
//!
//! [`chrome_trace`] and [`folded`] work from a [`SpanNode`] forest built
//! from a parsed run-report JSON document ([`forest_from_json`]), so the
//! `obs-trace` binary can export any committed `BENCH_*.json` or report
//! file after the fact — and a `/tracez` dump, whose every trace carries
//! its request's tree in the same shape.

use crate::json::{self, within, Value};
#[cfg(test)]
use crate::span::SpanRecord;
use std::collections::HashMap;
use std::fmt::Write as _;

/// One span in tree form.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Start offset from the run epoch, nanoseconds.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for spans still open at capture).
    pub dur_ns: u64,
    /// Nested children, in open order.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Nodes in this subtree (self included).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(SpanNode::size).sum::<usize>()
    }

    /// Self time: duration minus direct children, clamped at zero.
    pub fn self_ns(&self) -> u64 {
        let kids: u64 = self.children.iter().map(|c| c.dur_ns).sum();
        self.dur_ns.saturating_sub(kids)
    }
}

/// Builds the forest from flat records (parent indices → tree): the
/// reference [`forest_from_json`]'s round trip is tested against.
#[cfg(test)]
fn forest_from_records(spans: &[SpanRecord]) -> Vec<SpanNode> {
    fn build(i: usize, spans: &[SpanRecord], children: &[Vec<usize>]) -> SpanNode {
        SpanNode {
            name: spans[i].name.clone(),
            start_ns: spans[i].start_ns,
            dur_ns: spans[i].dur_ns.unwrap_or(0),
            children: children[i].iter().map(|&c| build(c, spans, children)).collect(),
        }
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            Some(p) if p < spans.len() => children[p].push(i),
            _ => roots.push(i),
        }
    }
    roots.iter().map(|&r| build(r, spans, &children)).collect()
}

/// Builds the forest from the `"spans"` section of a parsed run-report
/// document (the nested `{name, start_ms, ms, children}` shape) or of
/// one `/tracez` trace.
pub fn forest_from_json(report: &Value) -> Result<Vec<SpanNode>, String> {
    fn node(v: &Value) -> Result<SpanNode, String> {
        let name = v.text("name")?.to_string();
        let start_ms = v.num("start_ms")?;
        let dur_ms = match v.get("ms") {
            Some(Value::Num(n)) => *n,
            Some(Value::Null) | None => 0.0,
            _ => return Err("span \"ms\" must be number or null".to_string()),
        };
        let children = v
            .arr("children")?
            .iter()
            .map(node)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(SpanNode {
            name,
            start_ns: (start_ms.max(0.0) * 1e6) as u64,
            dur_ns: (dur_ms.max(0.0) * 1e6) as u64,
            children,
        })
    }
    report.arr("spans")?.iter().map(node).collect()
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Renders the forest as Chrome trace JSON: `ph: "X"` complete events,
/// microsecond timestamps, `pid` 1, one `tid` per root tree. Events are
/// emitted in depth-first start order, so `ts` is monotone within each
/// `tid` (spans on one thread open in start order).
pub fn chrome_trace(forest: &[SpanNode]) -> String {
    fn emit(out: &mut String, node: &SpanNode, tid: usize, first: &mut bool) {
        if !*first {
            out.push_str(",\n ");
        }
        *first = false;
        out.push_str("{\"name\": ");
        json::write_str(out, &node.name);
        out.push_str(", \"cat\": \"batnet\", \"ph\": \"X\", \"ts\": ");
        json::write_f64(out, us(node.start_ns));
        out.push_str(", \"dur\": ");
        json::write_f64(out, us(node.dur_ns));
        let _ = write!(out, ", \"pid\": 1, \"tid\": {tid}}}");
        for c in &node.children {
            emit(out, c, tid, first);
        }
    }
    let mut out = String::with_capacity(4096);
    out.push_str("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n ");
    let mut first = true;
    for (i, root) in forest.iter().enumerate() {
        emit(&mut out, root, i + 1, &mut first);
    }
    out.push_str("\n]}");
    out
}

/// Renders the forest as folded-stack text: `path;to;span <self-µs>`
/// per line in first-visit order, repeated paths merged (self times
/// summed), zero-self-time paths kept only when they are leaves
/// (interior zero rows are pure structure).
pub fn folded(forest: &[SpanNode]) -> String {
    /// Per distinct path, in first-visit order: summed self time and
    /// whether any span on it was a leaf.
    #[derive(Default)]
    struct Rows {
        index: HashMap<String, usize>,
        rows: Vec<(String, u64, bool)>,
    }
    fn walk(acc: &mut Rows, node: &SpanNode, prefix: &str) {
        let path = if prefix.is_empty() {
            node.name.clone()
        } else {
            format!("{prefix};{}", node.name)
        };
        let i = *acc.index.entry(path.clone()).or_insert(acc.rows.len());
        if i == acc.rows.len() {
            acc.rows.push((path.clone(), 0, false));
        }
        acc.rows[i].1 += node.self_ns();
        acc.rows[i].2 |= node.children.is_empty();
        for c in &node.children {
            walk(acc, c, &path);
        }
    }
    let mut acc = Rows::default();
    for root in forest {
        walk(&mut acc, root, "");
    }
    let mut out = String::new();
    for (path, self_ns, leaf) in acc.rows {
        let self_us = self_ns / 1_000;
        if self_us > 0 || leaf {
            let _ = writeln!(out, "{path} {self_us}");
        }
    }
    out
}

/// Validates a parsed Chrome trace document: a `traceEvents` array in
/// which every event is a complete (`ph: "X"`) event with a string
/// name and non-negative numeric `ts`/`dur`/`pid`/`tid`. This is the
/// subset Perfetto needs to load the file.
pub fn validate_chrome_trace(v: &Value) -> Result<(), String> {
    for (i, e) in v.arr("traceEvents")?.iter().enumerate() {
        let place = format!("event {i}");
        within(&place, e.text("name"))?;
        if e.get("ph").and_then(Value::as_str) != Some("X") {
            return Err(format!("{place}: \"ph\" must be \"X\""));
        }
        for k in ["ts", "dur", "pid", "tid"] {
            within(&place, e.num_min(k, 0.0))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn forest() -> Vec<SpanNode> {
        vec![
            SpanNode {
                name: "run".into(),
                start_ns: 0,
                dur_ns: 100_000,
                children: vec![
                    SpanNode {
                        name: "parse".into(),
                        start_ns: 1_000,
                        dur_ns: 30_000,
                        children: vec![],
                    },
                    SpanNode {
                        name: "route".into(),
                        start_ns: 40_000,
                        dur_ns: 50_000,
                        children: vec![],
                    },
                ],
            },
            SpanNode {
                name: "worker".into(),
                start_ns: 5_000,
                dur_ns: 20_000,
                children: vec![],
            },
        ]
    }

    #[test]
    fn chrome_trace_validates_and_counts_events() {
        let f = forest();
        let total: usize = f.iter().map(SpanNode::size).sum();
        let text = chrome_trace(&f);
        let v = json::parse(&text).expect("trace parses");
        validate_chrome_trace(&v).expect("trace validates");
        let events = v.get("traceEvents").and_then(Value::as_arr).expect("events");
        assert_eq!(events.len(), total);
        // Root trees land on distinct tids; ts is monotone within one.
        let tid0 = events[0].get("tid").and_then(Value::as_f64);
        let tid_last = events[events.len() - 1].get("tid").and_then(Value::as_f64);
        assert_ne!(tid0, tid_last);
        let mut last_ts = f64::MIN;
        for e in events.iter().filter(|e| e.get("tid").and_then(Value::as_f64) == tid0) {
            let ts = e.get("ts").and_then(Value::as_f64).expect("ts");
            assert!(ts >= last_ts, "ts monotone within a tid");
            last_ts = ts;
        }
    }

    #[test]
    fn validator_rejects_non_complete_events() {
        let bad = r#"{"traceEvents": [{"name": "x", "ph": "B", "ts": 0, "dur": 1, "pid": 1, "tid": 1}]}"#;
        let v = json::parse(bad).expect("parses");
        assert!(validate_chrome_trace(&v).is_err());
        let missing = r#"{"traceEvents": [{"name": "x", "ph": "X", "ts": 0, "pid": 1, "tid": 1}]}"#;
        let v = json::parse(missing).expect("parses");
        assert!(validate_chrome_trace(&v).unwrap_err().contains("dur"));
        let v = json::parse("{}").expect("parses");
        assert!(validate_chrome_trace(&v).is_err());
    }

    #[test]
    fn folded_output_has_self_times() {
        let text = folded(&forest());
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.contains(&"run 20")); // 100 - 80 µs
        assert!(lines.contains(&"run;parse 30"));
        assert!(lines.contains(&"run;route 50"));
        assert!(lines.contains(&"worker 20"));
    }

    #[test]
    fn folded_merges_repeated_paths() {
        let span = |name: &str, dur_ns, children| SpanNode {
            name: name.to_string(),
            start_ns: 0,
            dur_ns,
            children,
        };
        // Two sibling shards under one query, and the same path again
        // under a second root of the same name.
        let shard = || span("reach.forward", 30_000, vec![]);
        let forest = [
            span("query", 100_000, vec![shard(), shard()]),
            span("query", 50_000, vec![shard()]),
        ];
        assert_eq!(folded(&forest), "query 60\nquery;reach.forward 90\n");
    }

    #[test]
    fn forest_roundtrips_through_report_json() {
        let _g = crate::span::test_guard();
        crate::reset();
        {
            let _root = crate::Span::enter("pipeline");
            let _child = crate::Span::enter("stage");
        }
        let report = crate::capture();
        let from_records = forest_from_records(&report.spans);
        let parsed = json::parse(&report.to_json()).expect("report parses");
        let from_json = forest_from_json(&parsed).expect("forest from JSON");
        assert_eq!(from_json.len(), from_records.len());
        assert_eq!(from_json[0].name, "pipeline");
        assert_eq!(from_json[0].children[0].name, "stage");
        // JSON carries ms at µs precision; the shapes must agree even if
        // the low nanoseconds differ.
        assert_eq!(
            from_json.iter().map(SpanNode::size).sum::<usize>(),
            report.spans.len()
        );
    }
}
