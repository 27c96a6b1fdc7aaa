//! The correctness oracle behind `wrong_answers`. Runs untimed, after
//! the timed answers. Two independent references:
//!
//! * the committed `expected/<workload>.json`: semantic facts about the
//!   answers (route totals, graph sizes, verdicts, change counts). Keys
//!   without a prefix hold for every seed — the networks are seed-free —
//!   and keys under `seed1.` are compared when the run asks what the
//!   file was written for: `--seed 1` at the nominal `--seconds`;
//! * the concrete engine: sampled symbolic verdicts are re-checked with
//!   `Tracer::trace`, in the direction that must hold whatever the seed
//!   (a flow the symbolic engine says always arrives must arrive; a
//!   witness of "can reach this sink" must be delivered at that sink).

use crate::spec::bench_path;
use batnet::obs::json::{self, Value};
use batnet::traceroute::{Disposition, Trace};
use std::collections::BTreeMap;

/// Semantic facts about a run's answers, as strings.
pub type Facts = BTreeMap<String, String>;

/// Mismatch counter with the reasons, printed at the end of the run.
#[derive(Default)]
pub struct Verdict {
    pub wrong: u64,
    pub checked: u64,
    pub reasons: Vec<String>,
}

impl Verdict {
    /// Records one check; `why` is evaluated only on a mismatch.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.checked += 1;
        if !ok {
            self.wrong += 1;
            self.reasons.push(why());
        }
    }
}

/// Renders a list compactly for a fact value.
pub fn list<T: ToString>(items: impl IntoIterator<Item = T>) -> String {
    items
        .into_iter()
        .map(|x| x.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// FNV-1a over a sequence of numbers: folds long per-device lists into
/// one comparable fact.
pub fn fold(values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    })
}

fn expected_path(workload: &str) -> std::path::PathBuf {
    bench_path(&format!("expected/{workload}.json"))
}

/// Compares `facts` with the committed expectations. Every expected key
/// that applies to this run must be present and equal; `seed1` says
/// whether this is seed 1 at the nominal size.
pub fn check_expected(workload: &str, seed1: bool, facts: &Facts, verdict: &mut Verdict) {
    let path = expected_path(workload);
    let expected = std::fs::read_to_string(&path)
        .map_err(|e| e.to_string())
        .and_then(|t| json::parse(&t));
    let Ok(Value::Obj(expected)) = expected else {
        verdict.check(false, || {
            format!("{}: missing or not a JSON object", path.display())
        });
        return;
    };
    for (key, want) in &expected {
        if key.starts_with("seed1.") && !seed1 {
            continue;
        }
        let got = facts.get(key).map(String::as_str);
        verdict.check(got == want.as_str(), || {
            format!("{workload}: {key} = {got:?}, expected {:?}", want.as_str())
        });
    }
}

/// Writes `facts` as the expectations file (`--write-expected`, seed 1).
pub fn write_expected(workload: &str, facts: &Facts) -> std::io::Result<()> {
    let mut out = String::from("{\n");
    for (i, (k, v)) in facts.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("  ");
        json::write_str(&mut out, k);
        out.push_str(": ");
        json::write_str(&mut out, v);
    }
    out.push_str("\n}\n");
    let path = expected_path(workload);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

/// Did some path of the trace deliver the packet to a host or device
/// (leaving the network does not count as reaching a service)?
pub fn delivered(trace: &Trace) -> bool {
    trace.paths.iter().any(|p| {
        matches!(
            p.disposition,
            Disposition::Accepted { .. } | Disposition::DeliveredToSubnet { .. }
        )
    })
}
