//! Minimal automatic repair: make the finding vanish, change nothing
//! else.
//!
//! Given a target — a lint finding, or a non-empty pre-deployment diff —
//! the repairer enumerates small candidate patches in ascending size
//! (single-line deletes, single-line parameter tweaks borrowed from
//! peer devices, then multi-line inserts/reverts: the inverse moves of
//! `topogen::perturb`), validates each candidate with the full
//! three-layer differential analysis, and accepts the first candidate
//! where
//!
//! * the target is gone (the finding's fingerprint no longer appears,
//!   or the diff is empty at every layer), and
//! * nothing else changed: route and reachability layers are identical,
//!   and the multiset of *other* findings — compared by
//!   `(check, device, severity, message)`, deliberately not by location,
//!   so deleting a line cannot spuriously "change" findings below it —
//!   is exactly the baseline's.
//!
//! Because candidates are tried smallest-first, the first accepted
//! patch is the minimal one in the enumeration order. Every candidate
//! is accounted for: `tried == accepted + rejected_regression +
//! rejected_side_effect` is a chaos-checked invariant.

use batnet::{DiffOptions, Snapshot};
use batnet_lint::Finding;
use std::fmt::Write as _;

/// Tuning knobs for a repair run.
#[derive(Clone, Debug)]
pub struct RepairLimits {
    /// Cap on validated candidates (each validation runs two route
    /// simulations plus a symbolic reachability diff).
    pub max_candidates: usize,
    /// Options for the validation diffs.
    pub diff: DiffOptions,
}

impl Default for RepairLimits {
    fn default() -> RepairLimits {
        RepairLimits {
            max_candidates: 64,
            diff: DiffOptions::default(),
        }
    }
}

/// One file's worth of patch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FilePatch {
    /// Device (file stem) the patch applies to.
    pub device: String,
    /// Original text.
    pub before: String,
    /// Patched text.
    pub after: String,
}

/// An accepted repair, possibly spanning several files.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Patch {
    /// Per-file changes, in device order.
    pub files: Vec<FilePatch>,
}

impl Patch {
    /// Renders the patch as a unified diff with one line of context —
    /// the format the committed repair fixtures are compared against
    /// bytewise.
    pub fn unified(&self) -> String {
        let mut out = String::new();
        for f in &self.files {
            let _ = writeln!(out, "--- a/{}.cfg", f.device);
            let _ = writeln!(out, "+++ b/{}.cfg", f.device);
            out.push_str(&unified_hunks(&f.before, &f.after, 1));
        }
        out
    }
}

/// Outcome of one repair attempt, with full candidate accounting.
#[derive(Clone, Debug, Default)]
pub struct RepairOutcome {
    /// What the repairer was aimed at (for the report line).
    pub target: String,
    /// Candidates validated.
    pub tried: usize,
    /// Candidates accepted (0 or 1: the search stops at the first).
    pub accepted: usize,
    /// Candidates that left the target in place.
    pub rejected_regression: usize,
    /// Candidates that fixed the target but changed something else.
    pub rejected_side_effect: usize,
    /// The minimal accepted patch, if any.
    pub patch: Option<Patch>,
}

impl RepairOutcome {
    /// The accounting invariant the chaos harness asserts.
    pub fn balanced(&self) -> bool {
        self.tried == self.accepted + self.rejected_regression + self.rejected_side_effect
    }

    /// One-line summary for logs and stderr.
    pub fn summary(&self) -> String {
        format!(
            "tried {} candidate(s): {} accepted, {} rejected (target persists), {} rejected (side effects)",
            self.tried, self.accepted, self.rejected_regression, self.rejected_side_effect
        )
    }
}

/// A candidate patch: one device's text rewritten.
struct Candidate {
    device: String,
    after: String,
}

/// The location-insensitive identity of a finding, for "nothing else
/// changed" comparison. Bridged parse findings embed their line number
/// in `path`, so fingerprints shift when a patch deletes a line above
/// them; `(check, device, severity, message)` does not.
fn finding_key(f: &Finding) -> (String, String, String, String) {
    (
        f.check.to_string(),
        f.device.clone(),
        f.severity.to_string(),
        f.message.clone(),
    )
}

fn other_findings(findings: &[Finding], target_fp: &str) -> Vec<(String, String, String, String)> {
    let mut keys: Vec<_> = findings
        .iter()
        .filter(|f| f.fingerprint() != target_fp)
        .map(finding_key)
        .collect();
    keys.sort();
    keys
}

fn patched_configs(
    configs: &[(String, String)],
    device: &str,
    after: &str,
) -> Vec<(String, String)> {
    configs
        .iter()
        .map(|(n, t)| {
            if n == device {
                (n.clone(), after.to_string())
            } else {
                (n.clone(), t.clone())
            }
        })
        .collect()
}

/// Repairs the first lint finding matching `check` (and `device`, when
/// given). Errors when no finding matches; returns an outcome with no
/// patch when every candidate was rejected.
pub fn repair_lint(
    configs: &[(String, String)],
    check: &str,
    device: Option<&str>,
    limits: &RepairLimits,
) -> Result<RepairOutcome, String> {
    let base = Snapshot::from_configs(configs.to_vec());
    let findings = base.lint();
    let target = findings
        .iter()
        .find(|f| f.check == check && device.is_none_or(|d| f.device == d))
        .ok_or_else(|| match device {
            Some(d) => format!("no '{check}' finding on device '{d}'"),
            None => format!("no '{check}' finding in the snapshot"),
        })?
        .clone();
    let target_fp = target.fingerprint();
    let baseline_others = other_findings(&findings, &target_fp);
    let text = configs
        .iter()
        .find(|(n, _)| *n == target.device)
        .map(|(_, t)| t.clone())
        .ok_or_else(|| format!("finding names device '{}' with no config", target.device))?;

    let mut outcome = RepairOutcome {
        target: format!("{} {} {}", target.check, target.device, target.path),
        ..RepairOutcome::default()
    };
    for cand in lint_candidates(&target, &text, configs) {
        if outcome.tried >= limits.max_candidates {
            break;
        }
        outcome.tried += 1;
        let patched = patched_configs(configs, &cand.device, &cand.after);
        let snap = Snapshot::from_configs(patched);
        let after_findings = snap.lint();
        if after_findings.iter().any(|f| f.fingerprint() == target_fp) {
            outcome.rejected_regression += 1;
            continue;
        }
        let d = base.diff_with(&snap, &limits.diff);
        let behavior_same = d.routes.is_empty() && d.reach.is_empty();
        if !behavior_same || other_findings(&after_findings, &target_fp) != baseline_others {
            outcome.rejected_side_effect += 1;
            continue;
        }
        outcome.accepted += 1;
        outcome.patch = Some(Patch {
            files: vec![FilePatch {
                device: cand.device,
                before: text,
                after: cand.after,
            }],
        });
        break;
    }
    Ok(outcome)
}

/// Candidate enumeration for lint repair, smallest patch first:
/// 1. delete one line (nearest the finding's source line first);
/// 2. tweak one parameter to a peer device's value (consensus tweaks);
/// 3. insert a definition for an undefined reference.
fn lint_candidates(
    target: &Finding,
    text: &str,
    configs: &[(String, String)],
) -> Vec<Candidate> {
    let lines: Vec<&str> = text.lines().collect();
    let mut editable: Vec<usize> = (0..lines.len())
        .filter(|&i| {
            let t = lines[i].trim();
            !t.is_empty() && !t.starts_with('!') && !t.starts_with('#')
        })
        .collect();
    // Nearest the finding first (stable on ties); natural order when the
    // finding has no location.
    if target.line > 0 {
        let fl = target.line as i64;
        editable.sort_by_key(|&i| ((i as i64 + 1 - fl).abs(), i));
    }

    let mut out = Vec::new();
    let rebuild = |keep: &dyn Fn(usize) -> Option<String>| -> String {
        let mut s = String::new();
        for i in 0..lines.len() {
            if let Some(l) = keep(i) {
                s.push_str(&l);
                s.push('\n');
            }
        }
        s
    };
    // Class 1: single-line deletes.
    for &del in &editable {
        out.push(Candidate {
            device: target.device.clone(),
            after: rebuild(&|i| (i != del).then(|| lines[i].to_string())),
        });
    }
    // Class 2: consensus parameter tweaks — replace one line with a peer
    // device's variant of the same statement (same first token, same
    // word count, different content). The inverse of perturb's
    // RouteMapEdit / parameter drifts.
    for &idx in &editable {
        let victim = lines[idx];
        let vt: Vec<&str> = victim.split_whitespace().collect();
        let Some(&head) = vt.first() else { continue };
        let indent: String = victim.chars().take_while(|c| c.is_whitespace()).collect();
        let mut variants: Vec<String> = Vec::new();
        for (peer, peer_text) in configs {
            if *peer == target.device {
                continue;
            }
            for pl in peer_text.lines() {
                let pt: Vec<&str> = pl.split_whitespace().collect();
                if pt.first() == Some(&head) && pt.len() == vt.len() && pt != vt {
                    let v = format!("{indent}{}", pt.join(" "));
                    if !variants.contains(&v) {
                        variants.push(v);
                    }
                }
            }
        }
        for v in variants {
            out.push(Candidate {
                device: target.device.clone(),
                after: rebuild(&|i| {
                    Some(if i == idx { v.clone() } else { lines[i].to_string() })
                }),
            });
        }
    }
    // Class 3: define the missing structure (undefined-reference only).
    // The path tail is "<kind> <name>" by the lint path contract.
    if target.check == "undefined-reference" {
        if let Some(tail) = target.path.rsplit('/').next() {
            let stanza = match tail.split_once(' ') {
                Some(("acl", name)) => {
                    Some(format!("ip access-list extended {name}\n 10 permit ip any any\n"))
                }
                Some(("route-map", name)) => Some(format!("route-map {name} permit 10\n")),
                _ => None,
            };
            if let Some(stanza) = stanza {
                out.push(Candidate {
                    device: target.device.clone(),
                    after: format!("{text}{stanza}"),
                });
            }
        }
    }
    out
}

/// Repairs a failing pre-deployment diff: finds the minimal edit to the
/// *after* snapshot that makes `diff(before, after)` empty at every
/// layer. Candidates revert individual textual edits, then whole files.
pub fn repair_diff(
    before: &[(String, String)],
    after: &[(String, String)],
    limits: &RepairLimits,
) -> Result<RepairOutcome, String> {
    let snap_before = Snapshot::from_configs(before.to_vec());
    let snap_after = Snapshot::from_configs(after.to_vec());
    let d0 = snap_before.diff_with(&snap_after, &limits.diff);
    let mut outcome = RepairOutcome {
        target: format!("diff with {} change(s)", d0.change_count()),
        ..RepairOutcome::default()
    };
    if d0.is_empty() {
        outcome.target = "empty diff (nothing to repair)".to_string();
        return Ok(outcome);
    }
    let baseline_changes = d0.change_count();
    for cand in diff_candidates(before, after) {
        if outcome.tried >= limits.max_candidates {
            break;
        }
        outcome.tried += 1;
        let patched = patched_configs(after, &cand.device, &cand.after);
        let snap = Snapshot::from_configs(patched);
        let d = snap_before.diff_with(&snap, &limits.diff);
        if d.is_empty() {
            outcome.accepted += 1;
            let orig = after
                .iter()
                .find(|(n, _)| *n == cand.device)
                .map(|(_, t)| t.clone())
                .unwrap_or_default();
            outcome.patch = Some(Patch {
                files: vec![FilePatch {
                    device: cand.device,
                    before: orig,
                    after: cand.after,
                }],
            });
            break;
        } else if d.change_count() > baseline_changes {
            // The candidate introduced differences the original diff did
            // not have: it broke something new.
            outcome.rejected_side_effect += 1;
        } else {
            outcome.rejected_regression += 1;
        }
    }
    Ok(outcome)
}

/// Candidates for diff repair: for every device whose text differs,
/// revert each individual edit-script operation (smallest first), then
/// the whole file.
fn diff_candidates(before: &[(String, String)], after: &[(String, String)]) -> Vec<Candidate> {
    let mut out = Vec::new();
    for (name, after_text) in after {
        let Some((_, before_text)) = before.iter().find(|(n, _)| n == name) else {
            continue;
        };
        if before_text == after_text {
            continue;
        }
        let a: Vec<&str> = after_text.lines().collect();
        let b: Vec<&str> = before_text.lines().collect();
        let ops = edit_ops(&a, &b);
        let mut sized: Vec<(usize, usize)> = ops.iter().enumerate().map(|(i, op)| (op.size(), i)).collect();
        sized.sort();
        for (_, op_idx) in sized {
            // Apply only op `op_idx` of the after→before script.
            let mut text = String::new();
            for (i, op) in ops.iter().enumerate() {
                match op {
                    EditOp::Keep(ai) => {
                        text.push_str(a[*ai]);
                        text.push('\n');
                    }
                    EditOp::Delete(ai) => {
                        if i != op_idx {
                            text.push_str(a[*ai]);
                            text.push('\n');
                        }
                    }
                    EditOp::Insert(bi) => {
                        if i == op_idx {
                            text.push_str(b[*bi]);
                            text.push('\n');
                        }
                    }
                }
            }
            if text != *after_text {
                out.push(Candidate {
                    device: name.clone(),
                    after: text,
                });
            }
        }
        // Last resort: full revert of this device.
        out.push(Candidate {
            device: name.clone(),
            after: before_text.clone(),
        });
    }
    out
}

/// One operation of the line-level edit script turning `a` into `b`.
enum EditOp {
    /// Line `a[i]` is common to both sides.
    Keep(usize),
    /// Line `a[i]` must be removed.
    Delete(usize),
    /// Line `b[i]` must be inserted.
    Insert(usize),
}

impl EditOp {
    fn size(&self) -> usize {
        match self {
            EditOp::Keep(_) => 0,
            EditOp::Delete(_) | EditOp::Insert(_) => 1,
        }
    }
}

/// Classic LCS edit script (quadratic table; config files are small).
fn edit_ops(a: &[&str], b: &[&str]) -> Vec<EditOp> {
    let (n, m) = (a.len(), b.len());
    let mut lcs = vec![0u32; (n + 1) * (m + 1)];
    let at = |i: usize, j: usize| i * (m + 1) + j;
    for i in (0..n).rev() {
        for j in (0..m).rev() {
            lcs[at(i, j)] = if a[i] == b[j] {
                lcs[at(i + 1, j + 1)] + 1
            } else {
                lcs[at(i + 1, j)].max(lcs[at(i, j + 1)])
            };
        }
    }
    let mut ops = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < n && j < m {
        if a[i] == b[j] {
            ops.push(EditOp::Keep(i));
            i += 1;
            j += 1;
        } else if lcs[at(i + 1, j)] >= lcs[at(i, j + 1)] {
            ops.push(EditOp::Delete(i));
            i += 1;
        } else {
            ops.push(EditOp::Insert(j));
            j += 1;
        }
    }
    while i < n {
        ops.push(EditOp::Delete(i));
        i += 1;
    }
    while j < m {
        ops.push(EditOp::Insert(j));
        j += 1;
    }
    ops
}

/// Renders the hunks of a unified diff between two texts with the given
/// number of context lines.
fn unified_hunks(before: &str, after: &str, context: usize) -> String {
    let a: Vec<&str> = before.lines().collect();
    let b: Vec<&str> = after.lines().collect();
    let ops = edit_ops(&a, &b);

    // Group ops into hunks: runs of changes with at most 2*context
    // common lines between them, padded by `context` lines each side.
    let change_idx: Vec<usize> = ops
        .iter()
        .enumerate()
        .filter(|(_, op)| op.size() > 0)
        .map(|(i, _)| i)
        .collect();
    let mut out = String::new();
    if change_idx.is_empty() {
        return out;
    }
    let mut groups: Vec<(usize, usize)> = Vec::new();
    for &c in &change_idx {
        match groups.last_mut() {
            Some((_, end)) if c <= *end + 2 * context => *end = c,
            _ => groups.push((c, c)),
        }
    }
    // Positions of each op in the a/b line spaces.
    let mut a_pos = Vec::with_capacity(ops.len());
    let mut b_pos = Vec::with_capacity(ops.len());
    let (mut ai, mut bi) = (0usize, 0usize);
    for op in &ops {
        a_pos.push(ai);
        b_pos.push(bi);
        match op {
            EditOp::Keep(_) => {
                ai += 1;
                bi += 1;
            }
            EditOp::Delete(_) => ai += 1,
            EditOp::Insert(_) => bi += 1,
        }
    }
    for (first, last) in groups {
        let start = first.saturating_sub(context);
        let end = (last + context).min(ops.len().saturating_sub(1));
        let (mut a_len, mut b_len) = (0usize, 0usize);
        for op in &ops[start..=end] {
            match op {
                EditOp::Keep(_) => {
                    a_len += 1;
                    b_len += 1;
                }
                EditOp::Delete(_) => a_len += 1,
                EditOp::Insert(_) => b_len += 1,
            }
        }
        let a_start = if a_len == 0 { a_pos[start] } else { a_pos[start] + 1 };
        let b_start = if b_len == 0 { b_pos[start] } else { b_pos[start] + 1 };
        let _ = writeln!(out, "@@ -{a_start},{a_len} +{b_start},{b_len} @@");
        for op in &ops[start..=end] {
            match op {
                EditOp::Keep(i) => {
                    let _ = writeln!(out, " {}", a[*i]);
                }
                EditOp::Delete(i) => {
                    let _ = writeln!(out, "-{}", a[*i]);
                }
                EditOp::Insert(j) => {
                    let _ = writeln!(out, "+{}", b[*j]);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unified_diff_single_deletion() {
        let before = "a\nb\nc\nd\n";
        let after = "a\nb\nd\n";
        let hunks = unified_hunks(before, after, 1);
        assert_eq!(hunks, "@@ -2,3 +2,2 @@\n b\n-c\n d\n");
    }

    #[test]
    fn unified_diff_replacement_and_insert() {
        let before = "one\ntwo\nthree\n";
        let after = "one\nTWO\nthree\nfour\n";
        let hunks = unified_hunks(before, after, 1);
        assert!(hunks.contains("-two\n"), "{hunks}");
        assert!(hunks.contains("+TWO\n"), "{hunks}");
        assert!(hunks.contains("+four\n"), "{hunks}");
        // Patch applies: reconstruct by replay.
        let patch = Patch {
            files: vec![FilePatch {
                device: "r1".into(),
                before: before.into(),
                after: after.into(),
            }],
        };
        let text = patch.unified();
        assert!(text.starts_with("--- a/r1.cfg\n+++ b/r1.cfg\n"));
    }

    #[test]
    fn identical_texts_produce_no_hunks() {
        assert_eq!(unified_hunks("a\nb\n", "a\nb\n", 1), "");
    }

    #[test]
    fn repair_deletes_planted_undefined_reference() {
        let configs = vec![(
            "r1".to_string(),
            "hostname r1\ninterface e0\n ip address 10.0.0.1/24\n ip access-group MISSING in\n no shutdown\n"
                .to_string(),
        )];
        let out = repair_lint(&configs, "undefined-reference", None, &RepairLimits::default())
            .expect("target finding exists");
        assert!(out.balanced(), "accounting: {}", out.summary());
        assert_eq!(out.accepted, 1, "{}", out.summary());
        let patch = out.patch.expect("patch accepted");
        let text = patch.unified();
        assert!(text.contains("- ip access-group MISSING in\n"), "{text}");
        // Minimality: a one-line deletion, nothing else.
        let dels = text.lines().filter(|l| l.starts_with('-') && !l.starts_with("---")).count();
        let adds = text.lines().filter(|l| l.starts_with('+') && !l.starts_with("+++")).count();
        assert_eq!((dels, adds), (1, 0), "{text}");
    }

    #[test]
    fn repair_targets_an_undefined_zone_acl_by_its_path() {
        let configs = vec![(
            "fw".to_string(),
            "hostname fw\nzone security a\nzone security b\n\
             interface e0\n ip address 10.0.0.1/24\n zone-member security a\n\
             interface e1\n ip address 10.0.1.1/24\n zone-member security b\n\
             zone-pair security a b acl MISSING\n"
                .to_string(),
        )];
        let out = repair_lint(&configs, "undefined-reference", None, &RepairLimits::default())
            .expect("target finding exists");
        assert_eq!(out.target, "undefined-reference fw zone-policy a -> b/acl MISSING");
        assert!(out.balanced(), "accounting: {}", out.summary());
        assert_eq!(out.accepted, 1, "{}", out.summary());
        assert!(out.patch.is_some());
    }

    #[test]
    fn repair_diff_reverts_the_planted_edit() {
        let before = vec![(
            "r1".to_string(),
            "hostname r1\ninterface e0\n ip address 10.0.0.1/24\nip access-list extended A\n 10 permit ip any any\n"
                .to_string(),
        )];
        let mut after = before.clone();
        after[0].1 = after[0]
            .1
            .replace(" 10 permit ip any any\n", " 5 deny tcp any any eq 179\n 10 permit ip any any\n");
        let out = repair_diff(&before, &after, &RepairLimits::default()).expect("diff repair runs");
        assert!(out.balanced(), "accounting: {}", out.summary());
        assert_eq!(out.accepted, 1, "{}", out.summary());
        let patch = out.patch.expect("patch");
        assert!(patch.unified().contains("- 5 deny tcp any any eq 179\n"));
        // No-difference inputs are a no-op, not an error.
        let clean = repair_diff(&before, &before, &RepairLimits::default()).expect("runs");
        assert_eq!(clean.tried, 0);
        assert!(clean.patch.is_none());
    }

    #[test]
    fn missing_target_is_an_error() {
        let configs = vec![("r1".to_string(), "hostname r1\n".to_string())];
        let err = repair_lint(&configs, "undefined-reference", None, &RepairLimits::default());
        assert!(err.is_err());
    }
}
