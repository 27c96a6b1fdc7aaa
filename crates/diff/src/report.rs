//! Rendering: deterministic text and JSON forms of a [`SnapshotDiff`],
//! plus a minimal validator for the JSON schema (`batnet-diff-1`).
//!
//! Both renderers iterate already-sorted structures and never consult
//! clocks or randomness, so the same diff always renders byte-identical
//! output — the CI determinism gate stands on this.

use crate::SnapshotDiff;
use batnet_config::vi::SourceSpan;
use batnet_obs::json::{Value, Writer};
use batnet_obs::report::QuarantineEntry;
use std::fmt::Write as _;

/// The JSON schema identifier emitted and accepted by this version.
pub const SCHEMA: &str = "batnet-diff-1";

fn render_span(s: &Option<SourceSpan>) -> String {
    match s {
        Some(s) if s.is_known() => format!("{}:{}", s.file, s.line),
        _ => "?".to_string(),
    }
}

fn indent(text: &str, pad: &str) -> String {
    text.lines().map(|l| format!("{pad}{l}\n")).collect()
}

/// Renders the human-readable report.
pub fn render_text(diff: &SnapshotDiff) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "batnet-diff: {} structural, {} route, {} changed-start(s)",
        diff.structural.change_count(),
        diff.routes.change_count(),
        diff.reach.changed_starts,
    );
    if diff.is_empty() {
        let _ = writeln!(out, "no differences");
    }
    if !diff.structural.is_empty() {
        let _ = writeln!(out, "\n== structural ==");
        for d in &diff.structural.devices_removed {
            let _ = writeln!(out, "- device {d}");
        }
        for d in &diff.structural.devices_added {
            let _ = writeln!(out, "+ device {d}");
        }
        for c in &diff.structural.changes {
            let _ = writeln!(
                out,
                "{}: {} {} ({}) [{} -> {}]",
                c.device,
                c.path,
                c.kind,
                c.detail,
                render_span(&c.before_src),
                render_span(&c.after_src),
            );
        }
    }
    if !diff.routes.is_empty() {
        let _ = writeln!(out, "\n== control plane ==");
        let _ = writeln!(
            out,
            "{} RIB / {} FIB prefix deltas across {} device(s)",
            diff.routes.total_rib_changes,
            diff.routes.total_fib_changes,
            diff.routes.changed_devices.len(),
        );
        for c in &diff.routes.changes {
            let detail = match (&c.before, &c.after) {
                (Some(b), Some(a)) => format!("{b}  ->  {a}"),
                (Some(b), None) => b.clone(),
                (None, Some(a)) => a.clone(),
                (None, None) => String::new(),
            };
            let _ = writeln!(out, "{} {} {} {}: {detail}", c.device, c.layer, c.prefix, c.kind);
        }
        if diff.routes.truncated > 0 {
            let _ = writeln!(out, "({} more route deltas not shown)", diff.routes.truncated);
        }
    }
    {
        let r = &diff.reach;
        let _ = writeln!(out, "\n== data plane ==");
        if r.skipped_equivalent {
            let _ = writeln!(
                out,
                "skipped: config and control-plane layers are identical, so the \
                 forwarding graphs are equal by construction"
            );
        } else {
            let _ = writeln!(
                out,
                "{} start location(s), {} compared (cone-pruned), {} changed",
                r.starts_total, r.starts_compared, r.changed_starts
            );
            for d in &r.deltas {
                let _ = writeln!(out, "{}/{} {}: {}", d.device, d.iface, d.direction, d.flow);
                let _ = writeln!(out, "  before: {}", d.before_disposition);
                out.push_str(&indent(&d.before_trace, "    "));
                let _ = writeln!(out, "  after:  {}", d.after_disposition);
                out.push_str(&indent(&d.after_trace, "    "));
            }
            if r.truncated {
                let _ = writeln!(out, "(more changed flows not shown)");
            }
        }
    }
    let quarantined = !diff.quarantined_before.is_empty() || !diff.quarantined_after.is_empty();
    if quarantined {
        let _ = writeln!(out, "\n== quarantined (excluded from the comparison) ==");
        for (side, list) in [("before", &diff.quarantined_before), ("after", &diff.quarantined_after)]
        {
            for q in list.iter() {
                let _ = writeln!(out, "{side}: {} at {} ({})", q.device, q.stage, q.code);
            }
        }
    }
    out
}

fn write_quarantine_list(w: &mut Writer, key: &str, list: &[QuarantineEntry]) {
    w.array(key, |w| {
        for q in list {
            w.obj(|w| {
                w.field("device", &q.device).field("stage", &q.stage).field("code", &q.code);
            });
        }
    });
}

fn write_opt_span(w: &mut Writer, key: &str, v: &Option<SourceSpan>) {
    match v {
        Some(s) => w.object(key, |w| {
            w.field("file", &s.file).field("line", s.line);
        }),
        None => w.field(key, None::<u32>),
    };
}

/// Renders the machine-readable report (schema `batnet-diff-1`).
pub fn render_json(diff: &SnapshotDiff) -> String {
    let (structural, routes, r) = (&diff.structural, &diff.routes, &diff.reach);
    Writer::compact()
        .obj(|w| {
            w.field("schema", SCHEMA).object("summary", |w| {
                w.field("empty", diff.is_empty())
                    .field("structural_changes", structural.change_count())
                    .field("route_changes", routes.change_count())
                    .field("changed_starts", r.changed_starts)
                    .field("flow_deltas", r.deltas.len())
                    .field("quarantined_before", diff.quarantined_before.len())
                    .field("quarantined_after", diff.quarantined_after.len());
            });
            w.object("structural", |w| {
                w.vals("devices_added", &structural.devices_added)
                    .vals("devices_removed", &structural.devices_removed)
                    .array("changes", |w| {
                        for c in &structural.changes {
                            w.obj(|w| {
                                w.field("device", &c.device)
                                    .field("path", &c.path)
                                    .field("kind", c.kind.to_string())
                                    .field("detail", &c.detail);
                                write_opt_span(w, "before_src", &c.before_src);
                                write_opt_span(w, "after_src", &c.after_src);
                            });
                        }
                    });
            });
            w.object("routes", |w| {
                w.field("total_rib_changes", routes.total_rib_changes)
                    .field("total_fib_changes", routes.total_fib_changes)
                    .field("truncated", routes.truncated)
                    .array("changes", |w| {
                        for c in &routes.changes {
                            w.obj(|w| {
                                w.field("device", &c.device)
                                    .field("layer", c.layer)
                                    .field("prefix", c.prefix.to_string())
                                    .field("kind", c.kind.to_string())
                                    .field("before", &c.before)
                                    .field("after", &c.after);
                            });
                        }
                    });
            });
            w.object("reach", |w| {
                w.field("starts_total", r.starts_total)
                    .field("starts_compared", r.starts_compared)
                    .field("changed_starts", r.changed_starts)
                    .field("truncated", r.truncated)
                    .field("skipped_equivalent", r.skipped_equivalent)
                    .array("deltas", |w| {
                        for d in &r.deltas {
                            w.obj(|w| {
                                w.field("device", &d.device)
                                    .field("iface", &d.iface)
                                    .field("direction", d.direction.to_string())
                                    .field("flow", &d.flow)
                                    .field("before_disposition", &d.before_disposition)
                                    .field("after_disposition", &d.after_disposition)
                                    .field("before_trace", &d.before_trace)
                                    .field("after_trace", &d.after_trace);
                            });
                        }
                    });
            });
            write_quarantine_list(w, "quarantined_before", &diff.quarantined_before);
            write_quarantine_list(w, "quarantined_after", &diff.quarantined_after);
        })
        .finish_line()
}

/// Validates a parsed `batnet-diff-1` document: schema tag, required
/// sections, and the summary's cross-checks against the section bodies.
pub fn validate(v: &Value) -> Result<(), String> {
    let Value::Obj(top) = v else {
        return Err("top level is not an object".to_string());
    };
    match top.get("schema") {
        Some(Value::Str(s)) if s == SCHEMA => {}
        Some(Value::Str(s)) => return Err(format!("unknown schema {s:?}")),
        _ => return Err("missing schema tag".to_string()),
    }
    for key in ["summary", "structural", "routes", "reach", "quarantined_before", "quarantined_after"]
    {
        if !top.contains_key(key) {
            return Err(format!("missing section {key:?}"));
        }
    }
    let Some(Value::Obj(summary)) = top.get("summary") else {
        return Err("summary is not an object".to_string());
    };
    let Some(Value::Obj(reach)) = top.get("reach") else {
        return Err("reach is not an object".to_string());
    };
    let deltas = match reach.get("deltas") {
        Some(Value::Arr(a)) => a.len(),
        _ => return Err("reach.deltas is not an array".to_string()),
    };
    match summary.get("flow_deltas") {
        Some(Value::Num(n)) if *n as usize == deltas => Ok(()),
        Some(Value::Num(n)) => Err(format!(
            "summary.flow_deltas = {} but reach.deltas has {deltas} entries",
            *n as usize
        )),
        _ => Err("summary.flow_deltas missing".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_diff_renders_and_validates() {
        let diff = SnapshotDiff::default();
        let text = render_text(&diff);
        assert!(text.contains("no differences"), "{text}");
        let json = render_json(&diff);
        let v = batnet_obs::json::parse(&json).expect("emitted JSON parses");
        validate(&v).expect("emitted JSON validates");
    }
}
