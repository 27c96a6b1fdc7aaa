//! Finding serialization: text, a stable JSON report, SARIF-lite, and
//! fingerprint baselines.
//!
//! Every JSON document here is written by [`batnet_obs::json::Writer`]
//! in its compact layout and is deliberately timestamp-free: the same
//! devices always serialize to the same bytes, which is what lets CI
//! diff reports and the determinism tests compare runs bytewise
//! (`tests/golden.rs` pins them).
//!
//! The SARIF output is a pragmatic subset of SARIF 2.1.0 — `tool.driver`
//! with a rule per catalog check, one `result` per finding with
//! `level`, `message.text`, a `partialFingerprints."batnet/v1"` entry
//! (the stable fingerprint), and a physical location when the finding
//! has one. [`validate_sarif`] checks exactly that contract, in the
//! spirit of `obs-validate`: produce *and* verify the format in-tree so
//! drift between writer and reader is a test failure, not a consumer
//! surprise.

use crate::{Finding, Severity, CHECKS};
use batnet_obs::json::{self, within, Value, Writer};
use std::fmt::Write as _;

/// Plain-text rendering, one finding per line:
/// `severity[check] device path: message (witness: …) [file:line]`.
pub fn render_text(findings: &[Finding]) -> String {
    let mut out = String::new();
    for f in findings {
        let _ = write!(out, "{}[{}]", f.severity, f.check);
        if !f.device.is_empty() {
            let _ = write!(out, " {}", f.device);
        }
        if !f.path.is_empty() {
            let _ = write!(out, " {}", f.path);
        }
        let _ = write!(out, ": {}", f.message);
        if !f.witness.is_empty() {
            let _ = write!(out, " (witness: {})", f.witness);
        }
        if !f.file.is_empty() {
            let _ = write!(out, " [{}:{}]", f.file, f.line);
        }
        out.push('\n');
    }
    out
}

fn count_by(findings: &[Finding], sev: Severity) -> usize {
    findings.iter().filter(|f| f.severity == sev).count()
}

/// The JSON report: schema id, network name, per-severity counts, and
/// the full finding list (sorted by the caller; [`crate::run_all`]
/// already sorts). No timestamps — byte-identical across runs.
pub fn render_json(network: &str, findings: &[Finding]) -> String {
    Writer::compact()
        .obj(|w| {
            w.field("schema", "batnet-lint/v1").field("network", network);
            w.object("counts", |w| {
                w.field("error", count_by(findings, Severity::Error))
                    .field("warning", count_by(findings, Severity::Warning))
                    .field("info", count_by(findings, Severity::Info))
                    .field("total", findings.len());
            });
            w.array("findings", |w| {
                for f in findings {
                    w.obj(|w| {
                        w.field("fingerprint", f.fingerprint())
                            .field("check", f.check)
                            .field("severity", f.severity.as_str())
                            .field("device", &f.device)
                            .field("path", &f.path)
                            .field("message", &f.message);
                        if !f.file.is_empty() {
                            w.field("file", &f.file).field("line", f.line);
                        }
                        if !f.witness.is_empty() {
                            w.field("witness", &f.witness);
                        }
                    });
                }
            });
        })
        .finish_line()
}

/// SARIF-lite 2.1.0: one run, one rule per catalog check, one result per
/// finding.
pub fn render_sarif(findings: &[Finding]) -> String {
    Writer::compact()
        .obj(|w| {
            w.field("version", "2.1.0")
                .field("$schema", "https://json.schemastore.org/sarif-2.1.0.json");
            w.array("runs", |w| {
                w.obj(|w| {
                    w.object("tool", |w| {
                        w.object("driver", |w| {
                            w.field("name", "batnet-lint").array("rules", |w| {
                                for c in CHECKS {
                                    w.obj(|w| {
                                        w.field("id", c.id)
                                            .object("shortDescription", |w| {
                                                w.field("text", c.what);
                                            })
                                            .object("defaultConfiguration", |w| {
                                                w.field("level", c.severity.sarif_level());
                                            });
                                    });
                                }
                            });
                        });
                    });
                    w.array("results", |w| {
                        for f in findings {
                            w.obj(|w| write_sarif_result(w, f));
                        }
                    });
                });
            });
        })
        .finish_line()
}

fn write_sarif_result(w: &mut Writer, f: &Finding) {
    let text = if f.witness.is_empty() {
        f.message.clone()
    } else {
        format!("{} (witness: {})", f.message, f.witness)
    };
    w.field("ruleId", f.check)
        .field("level", f.severity.sarif_level())
        .object("message", |w| {
            w.field("text", text);
        })
        .object("partialFingerprints", |w| {
            w.field("batnet/v1", f.fingerprint());
        });
    if f.device.is_empty() && f.file.is_empty() {
        return;
    }
    // Physical location when we have a file, logical otherwise.
    w.array("locations", |w| {
        w.obj(|w| {
            if !f.file.is_empty() {
                w.object("physicalLocation", |w| {
                    w.object("artifactLocation", |w| {
                        w.field("uri", &f.file);
                    })
                    .object("region", |w| {
                        w.field("startLine", f.line.max(1));
                    });
                });
            }
            if !f.device.is_empty() {
                w.array("logicalLocations", |w| {
                    w.obj(|w| {
                        w.field("name", &f.device);
                    });
                });
            }
        });
    });
}

fn is_fingerprint(s: &str) -> bool {
    s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit())
}

/// Validates the SARIF-lite contract: version, one run with a named
/// driver and rules, and for every result a known `ruleId`, a legal
/// `level`, a `message.text`, and a well-formed `batnet/v1` fingerprint.
pub fn validate_sarif(doc: &Value) -> Result<(), String> {
    if doc.get("version").and_then(Value::as_str) != Some("2.1.0") {
        return Err("version must be \"2.1.0\"".into());
    }
    let runs = doc.arr("runs")?;
    if runs.is_empty() {
        return Err("runs is empty".into());
    }
    for run in runs {
        let driver = run
            .get("tool")
            .and_then(|t| t.get("driver"))
            .ok_or("run missing tool.driver")?;
        within("driver", driver.text("name"))?;
        let rule_ids = within("driver", driver.arr("rules"))?
            .iter()
            .map(|r| within("rule", r.text("id")))
            .collect::<Result<Vec<&str>, String>>()?;
        for (i, r) in within("run", run.arr("results"))?.iter().enumerate() {
            let place = format!("result {i}");
            let rule = within(&place, r.text("ruleId"))?;
            if !rule_ids.contains(&rule) {
                return Err(format!("{place}: ruleId '{rule}' not declared in rules"));
            }
            let level = within(&place, r.text("level"))?;
            if !matches!(level, "error" | "warning" | "note") {
                return Err(format!("{place}: bad level '{level}'"));
            }
            let message = r.get("message").unwrap_or(&Value::Null);
            within(format!("{place}: message"), message.text("text"))?;
            let prints = r.get("partialFingerprints").unwrap_or(&Value::Null);
            let fp = within(format!("{place}: partialFingerprints"), prints.text("batnet/v1"))?;
            if !is_fingerprint(fp) {
                return Err(format!("{place}: malformed fingerprint '{fp}'"));
            }
        }
    }
    Ok(())
}

/// Serializes a baseline: the fingerprints of `findings`, to be muted in
/// later runs.
pub fn write_baseline(findings: &[Finding]) -> String {
    let mut fps: Vec<String> = findings.iter().map(Finding::fingerprint).collect();
    fps.sort();
    fps.dedup();
    Writer::compact()
        .obj(|w| {
            w.field("schema", "batnet-lint-baseline/v1").vals("fingerprints", &fps);
        })
        .finish_line()
}

/// Parses a baseline file into its fingerprint list.
pub fn parse_baseline(text: &str) -> Result<Vec<String>, String> {
    let doc = json::parse(text)?;
    if doc.get("schema").and_then(Value::as_str) != Some("batnet-lint-baseline/v1") {
        return Err("baseline schema must be \"batnet-lint-baseline/v1\"".into());
    }
    let arr = doc
        .get("fingerprints")
        .and_then(Value::as_arr)
        .ok_or("baseline missing fingerprints array")?;
    let mut out = Vec::with_capacity(arr.len());
    for v in arr {
        let fp = v.as_str().ok_or("fingerprints must be strings")?;
        if !is_fingerprint(fp) {
            return Err(format!("malformed fingerprint '{fp}'"));
        }
        out.push(fp.to_string());
    }
    Ok(out)
}

/// Drops findings whose fingerprint is baselined; returns the survivors
/// and the number muted.
pub fn apply_baseline(findings: Vec<Finding>, baseline: &[String]) -> (Vec<Finding>, usize) {
    let before = findings.len();
    let kept: Vec<Finding> = findings
        .into_iter()
        .filter(|f| !baseline.contains(&f.fingerprint()))
        .collect();
    let muted = before - kept.len();
    (kept, muted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use batnet_config::vi::SourceSpan;

    fn sample() -> Vec<Finding> {
        vec![
            Finding::new("undefined-reference", "r1", "interface e0 (in)/acl NOPE", "acl NOPE is not defined")
                .at(&SourceSpan { file: "r1".into(), line: 4, end_line: 4 }),
            Finding::new("acl-partial-shadow", "r2", "acl A/line 20", "partially shadowed")
                .with_witness("tcp 0.0.0.0:0 -> 0.0.0.0:22"),
            Finding::new("duplicate-ip", "", "ip 10.0.0.1", "10.0.0.1 assigned twice"),
        ]
    }

    #[test]
    fn text_rendering_lists_everything() {
        let text = render_text(&sample());
        assert!(text.contains("error[undefined-reference] r1"));
        assert!(text.contains("[r1:4]"));
        assert!(text.contains("witness: tcp"));
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn json_report_roundtrips_and_counts() {
        let findings = sample();
        let text = render_json("T1", &findings);
        let doc = json::parse(&text).expect("valid json");
        assert_eq!(doc.get("schema").and_then(Value::as_str), Some("batnet-lint/v1"));
        assert_eq!(doc.get("network").and_then(Value::as_str), Some("T1"));
        let counts = doc.get("counts").expect("counts");
        assert_eq!(counts.get("error").and_then(Value::as_f64), Some(2.0));
        assert_eq!(counts.get("info").and_then(Value::as_f64), Some(1.0));
        assert_eq!(counts.get("total").and_then(Value::as_f64), Some(3.0));
        let arr = doc.get("findings").and_then(Value::as_arr).expect("findings");
        assert_eq!(arr.len(), 3);
        assert_eq!(
            arr[0].get("fingerprint").and_then(Value::as_str),
            Some(findings[0].fingerprint().as_str())
        );
        // Determinism: same input, same bytes.
        assert_eq!(text, render_json("T1", &findings));
    }

    #[test]
    fn sarif_output_validates() {
        let text = render_sarif(&sample());
        // It is real JSON with the right shape, and it validates.
        let doc = json::parse(&text).expect("valid json");
        validate_sarif(&doc).expect("own SARIF validates");
        let runs = doc.get("runs").and_then(Value::as_arr).expect("runs");
        let results = runs[0].get("results").and_then(Value::as_arr).expect("results");
        assert_eq!(results.len(), 3);
    }

    #[test]
    fn sarif_validator_rejects_bad_documents() {
        let validate_sarif = |text: &str| validate_sarif(&json::parse(text).expect("valid json"));
        assert!(validate_sarif("{}").is_err());
        assert!(validate_sarif("{\"version\":\"2.1.0\",\"runs\":[]}").is_err());
        // Undeclared ruleId.
        let bad = "{\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{\"name\":\"x\",\"rules\":[]}},\
                   \"results\":[{\"ruleId\":\"ghost\",\"level\":\"error\",\"message\":{\"text\":\"m\"},\
                   \"partialFingerprints\":{\"batnet/v1\":\"0123456789abcdef\"}}]}]}";
        let err = validate_sarif(bad).expect_err("undeclared rule");
        assert!(err.contains("ghost"));
        // Malformed fingerprint.
        let bad_fp = bad.replace("0123456789abcdef", "xyz");
        let err = validate_sarif(&bad_fp.replace("ghost", "g").replace("\"rules\":[]", "\"rules\":[{\"id\":\"g\"}]"))
            .expect_err("bad fingerprint");
        assert!(err.contains("fingerprint"));
    }

    #[test]
    fn baseline_roundtrip_and_apply() {
        let findings = sample();
        let baseline_text = write_baseline(&findings[..1]);
        let fps = parse_baseline(&baseline_text).expect("parses");
        assert_eq!(fps, vec![findings[0].fingerprint()]);
        let (kept, muted) = apply_baseline(findings.clone(), &fps);
        assert_eq!(muted, 1);
        assert_eq!(kept.len(), 2);
        assert!(kept.iter().all(|f| f.fingerprint() != fps[0]));
        // Bad baselines are rejected.
        assert!(parse_baseline("{\"fingerprints\":[]}").is_err());
        assert!(parse_baseline("{\"schema\":\"batnet-lint-baseline/v1\",\"fingerprints\":[\"zz\"]}").is_err());
    }
}
