//! Performance attribution over the span forest: per-span self time
//! (exclusive of children) and the critical path.
//!
//! Stage totals answer "how long did `route.bgp` take"; attribution
//! answers "which phase *inside* it actually costs the time". Self time
//! is a span's duration minus the durations of its direct children,
//! clamped at zero (children of an open span, or clock jitter at span
//! edges, must never produce negative attribution). The critical path
//! is the chain from the most expensive root through each level's most
//! expensive child — the shortest list of spans a perf investigation
//! should read first.

use crate::span::SpanRecord;

/// Per-span self time in nanoseconds, indexed like `spans`. An open
/// span (no duration) attributes zero to itself; its closed children
/// still carry their own time.
pub fn self_times_ns(spans: &[SpanRecord]) -> Vec<u64> {
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

/// One step of the critical path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathStep {
    /// Index into the span list.
    pub index: usize,
    /// Span name.
    pub name: String,
    /// Total duration in nanoseconds.
    pub total_ns: u64,
    /// Self time in nanoseconds (duration minus direct children).
    pub self_ns: u64,
}

/// The critical path: starting from the most expensive closed root,
/// descend into the most expensive closed child until a leaf. Ties
/// break toward the earlier span, so the result is deterministic.
pub fn critical_path(spans: &[SpanRecord]) -> Vec<PathStep> {
    let self_ns = self_times_ns(spans);
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        match s.parent {
            Some(p) if p < spans.len() => children[p].push(i),
            _ => roots.push(i),
        }
    }
    let heaviest = |idxs: &[usize]| -> Option<usize> {
        idxs.iter()
            .copied()
            .filter(|&i| spans[i].dur_ns.is_some())
            .max_by_key(|&i| (spans[i].dur_ns.unwrap_or(0), std::cmp::Reverse(i)))
    };
    let mut path = Vec::new();
    let mut cur = heaviest(&roots);
    while let Some(i) = cur {
        path.push(PathStep {
            index: i,
            name: spans[i].name.clone(),
            total_ns: spans[i].dur_ns.unwrap_or(0),
            self_ns: self_ns[i],
        });
        cur = heaviest(&children[i]);
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, parent: Option<usize>, start: u64, dur: Option<u64>) -> SpanRecord {
        SpanRecord {
            name: name.to_string(),
            parent,
            start_ns: start,
            dur_ns: dur,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_clamps() {
        let spans = vec![
            rec("root", None, 0, Some(100)),
            rec("a", Some(0), 10, Some(30)),
            rec("b", Some(0), 50, Some(40)),
            rec("a.inner", Some(1), 12, Some(25)),
        ];
        let st = self_times_ns(&spans);
        assert_eq!(st[0], 30); // 100 - (30 + 40)
        assert_eq!(st[1], 5); // 30 - 25
        assert_eq!(st[2], 40);
        assert_eq!(st[3], 25);
        // Children can over-report (clock edges); self time clamps to 0.
        let spans = vec![rec("root", None, 0, Some(10)), rec("a", Some(0), 0, Some(15))];
        assert_eq!(self_times_ns(&spans)[0], 0);
        // An open span attributes nothing to itself.
        let spans = vec![rec("open", None, 0, None), rec("a", Some(0), 0, Some(5))];
        assert_eq!(self_times_ns(&spans)[0], 0);
    }

    #[test]
    fn critical_path_follows_heaviest_children() {
        let spans = vec![
            rec("small-root", None, 0, Some(10)),
            rec("big-root", None, 0, Some(100)),
            rec("cheap", Some(1), 0, Some(20)),
            rec("costly", Some(1), 20, Some(70)),
            rec("leaf", Some(3), 20, Some(60)),
            rec("open-child", Some(3), 25, None),
        ];
        let steps = critical_path(&spans);
        let path: Vec<&str> = steps.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(path, ["big-root", "costly", "leaf"]);
        assert_eq!(steps[1].self_ns, 10); // 70 - 60
        assert!(critical_path(&[]).is_empty());
    }
}
