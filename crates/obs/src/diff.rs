//! The bench-file structure gate: do two `BENCH_*.json` documents
//! measure the same things?
//!
//! Rows are matched on their `bench/network/stage` key. A stage the
//! baseline has and the new file lacks, or a row that appears from
//! nowhere, fails — a silently vanished stage is how perf bugs hide.
//! Time is never read: wall-clock between revisions is compared by the
//! repo's benchmark (`benchmark/`, ten alternating pairs), not by
//! diffing two single runs, and file-level `meta` is provenance, not
//! input.

use crate::json::{Value, Writer};
use crate::report::validate_bench;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// What kind of drift a finding reports. Both fail the gate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FindingKind {
    /// Key in the baseline but not the new file.
    MissingInNew,
    /// Key in the new file but not the baseline.
    ExtraInNew,
}

/// One row key present on only one side.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Drift class.
    pub kind: FindingKind,
    /// The `bench/network/stage` key.
    pub key: String,
}

impl Finding {
    /// One-line human rendering.
    pub fn render(&self) -> String {
        match self.kind {
            FindingKind::MissingInNew => {
                format!("MISSING {}: in baseline but not in new file", self.key)
            }
            FindingKind::ExtraInNew => {
                format!("EXTRA {}: in new file but not in baseline", self.key)
            }
        }
    }
}

/// The full diff outcome.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Keys on one side only, baseline-missing first, each in key order.
    pub findings: Vec<Finding>,
    /// Non-failing notes (networks absent from the new file).
    pub warnings: Vec<String>,
    /// Keys present on both sides.
    pub compared: usize,
}

impl DiffReport {
    /// True when the gate should pass.
    pub fn ok(&self) -> bool {
        self.findings.is_empty()
    }

    /// Text rendering, one line per finding plus warnings.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for w in &self.warnings {
            let _ = writeln!(out, "warning: {w}");
        }
        for f in &self.findings {
            let _ = writeln!(out, "{}", f.render());
        }
        let _ = writeln!(
            out,
            "compared {} keys: {} failing",
            self.compared,
            self.findings.len()
        );
        out
    }

    /// JSON rendering (`{ok, compared, findings, warnings}`).
    pub fn render_json(&self) -> String {
        Writer::spaced()
            .obj(|w| {
                w.field("ok", self.ok()).field("compared", self.compared);
                w.array("findings", |w| {
                    for f in &self.findings {
                        let kind = match f.kind {
                            FindingKind::MissingInNew => "missing",
                            FindingKind::ExtraInNew => "extra",
                        };
                        w.obj(|w| {
                            w.field("kind", kind).field("key", &f.key);
                        });
                    }
                });
                w.vals("warnings", &self.warnings);
            })
            .finish()
    }
}

/// The `(network, bench/network/stage)` pairs of a bench document's
/// rows, network first so one network's keys are contiguous.
fn row_keys(doc: &Value) -> BTreeSet<(String, String)> {
    let rows = doc.get("rows").and_then(Value::as_arr).unwrap_or(&[]);
    rows.iter()
        .map(|row| {
            let get = |k: &str| row.get(k).and_then(Value::as_str).unwrap_or("?");
            let network = get("network");
            (
                network.to_string(),
                format!("{}/{network}/{}", get("bench"), get("stage")),
            )
        })
        .collect()
}

/// Diffs the row sets of two parsed bench documents (`BENCH_*.json`).
/// Both must pass the bench schema validator (`Err` otherwise). Networks
/// wholly absent from the new file are warnings (a subset run, like the
/// CI N2 gate against the four-network baseline, is legitimate); a
/// missing or extra *stage* for a network the new file covers fails.
pub fn diff_bench(base: &Value, new: &Value) -> Result<DiffReport, String> {
    validate_bench(base).map_err(|e| format!("baseline: {e}"))?;
    validate_bench(new).map_err(|e| format!("new file: {e}"))?;
    let (base_keys, new_keys) = (row_keys(base), row_keys(new));
    let covered: BTreeSet<&str> = new_keys.iter().map(|(n, _)| n.as_str()).collect();
    let mut report = DiffReport::default();
    let mut absent: BTreeSet<&str> = BTreeSet::new();
    for entry in &base_keys {
        if new_keys.contains(entry) {
            report.compared += 1;
        } else if covered.contains(entry.0.as_str()) {
            report.findings.push(Finding {
                kind: FindingKind::MissingInNew,
                key: entry.1.clone(),
            });
        } else {
            absent.insert(&entry.0);
        }
    }
    for n in absent {
        report.warnings.push(format!(
            "network {n} absent from the new file; its rows were skipped"
        ));
    }
    for entry in new_keys.difference(&base_keys) {
        report.findings.push(Finding {
            kind: FindingKind::ExtraInNew,
            key: entry.1.clone(),
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// A bench document over `rows` of `(network, stage, ms)`.
    fn bench_doc(rows: &[(&str, &str, f64)]) -> Value {
        let rows: Vec<String> = rows
            .iter()
            .map(|(network, stage, ms)| {
                format!(
                    r#"{{"bench": "t", "network": "{network}", "stage": "{stage}", "ms": {ms}, "meta": {{}}}}"#
                )
            })
            .collect();
        let doc = format!(
            r#"{{"schema": 1, "bench": "t", "meta": {{}}, "rows": [{}],
              "report": {{"schema": 1, "meta": {{}}, "spans": [], "metrics": {{}},
                         "events": [], "events_dropped": 0, "quarantined": [],
                         "partial": null, "snapshot": null}}}}"#,
            rows.join(", ")
        );
        json::parse(&doc).expect("test doc parses")
    }

    #[test]
    fn time_is_not_read() {
        let base = bench_doc(&[("N2", "parse", 2.0), ("N2", "graph", 50.0)]);
        let slow = bench_doc(&[("N2", "parse", 20.0), ("N2", "graph", 500.0)]);
        let d = diff_bench(&base, &slow).expect("comparable");
        assert!(d.ok(), "{:?}", d.findings);
        assert_eq!(d.compared, 2);
        let rendered = json::parse(&d.render_json()).expect("verdict JSON parses");
        assert_eq!(rendered.get("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn structural_drift_fails() {
        let base = bench_doc(&[
            ("N2", "parse", 2.0),
            ("N2", "graph", 50.0),
            ("N2", "bonus", 1.0),
        ]);
        let new = bench_doc(&[("N2", "parse", 2.0), ("N2", "graph", 5000.0)]);
        let d = diff_bench(&base, &new).expect("comparable");
        assert_eq!(d.findings.len(), 1);
        assert_eq!(d.findings[0].kind, FindingKind::MissingInNew);
        assert_eq!(d.findings[0].key, "t/N2/bonus");
        assert!(d.render_text().contains("MISSING t/N2/bonus"));
        // A row that appears from nowhere is drift too.
        let d = diff_bench(&new, &base).expect("comparable");
        assert!(!d.ok());
        assert_eq!(d.findings[0].kind, FindingKind::ExtraInNew);
        assert_eq!(d.findings[0].key, "t/N2/bonus");
    }

    #[test]
    fn subset_networks_warn_but_pass() {
        let base = bench_doc(&[("N2", "parse", 2.0), ("N9", "parse", 9.0)]);
        let new = bench_doc(&[("N2", "parse", 2.0)]);
        let d = diff_bench(&base, &new).expect("comparable");
        assert!(d.ok(), "{:?}", d.findings);
        assert!(d.warnings.iter().any(|w| w.contains("N9")));
    }

    #[test]
    fn schema_invalid_input_is_refused() {
        let good = bench_doc(&[("N2", "parse", 2.0)]);
        let bad = json::parse(r#"{"schema": 1, "bench": "t", "rows": []}"#).expect("parses");
        assert!(diff_bench(&good, &bad).is_err_and(|e| e.starts_with("new file:")));
        assert!(diff_bench(&bad, &good).is_err_and(|e| e.starts_with("baseline:")));
    }
}
