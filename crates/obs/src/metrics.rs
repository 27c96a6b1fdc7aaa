//! The typed metrics registry: counters, gauges, histograms, events.
//!
//! Metrics are named with dotted lowercase paths (`parse.lines.total.ios`,
//! `bdd.cache.hits`); the full taxonomy is documented in DESIGN.md
//! ("Observability"). A name is bound to one type on first use; a
//! mismatched re-use is recorded in the `obs.type-conflicts` counter
//! rather than panicking (observability must never take the pipeline
//! down).
//!
//! Every `counter_add`/`gauge_set`/`observe`/`event` call updates the
//! one registry inside the recorder under its one lock, so a
//! counter is a sum, a gauge is its last write and events are in
//! recording order with nothing to merge at capture. The engine crates
//! record metrics once per query or per sweep, never per item.
//!
//! Histograms use fixed log2 buckets: bucket 0 holds the value 0 and
//! bucket *i* ≥ 1 holds values in `[2^(i-1), 2^i)`, except the top
//! bucket (64), which is inclusive `[2^63, u64::MAX]` since 2^64 does
//! not fit in a `u64`. 65 buckets cover the full `u64` range with no
//! configuration and no allocation per observation, and every observed
//! value lands in exactly one bucket (`count == sum(buckets)` always).

use crate::clock;
use crate::recorder::{self, Recorder};

/// Number of log2 histogram buckets (value 0 plus one per bit).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Cap on retained events; later events are counted but dropped.
const MAX_EVENTS: usize = 4096;

/// A log2-bucketed histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    /// Observations recorded.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// `buckets[bucket_index(v)]` counts observations of `v`.
    pub buckets: Vec<u64>,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            buckets: vec![0; HISTOGRAM_BUCKETS],
        }
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// An upper bound on the `q`-quantile (0 < q ≤ 1): the upper edge
    /// of the bucket holding the ⌈count·q⌉-th smallest observation.
    /// Log2 buckets bound the true quantile within 2×, which is what
    /// latency SLO reporting (p50/p99 on `/metricsz` and in the bench
    /// harness) needs. Returns 0 for an empty histogram.
    pub fn percentile_upper(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let want = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= want {
                return bucket_range(i).1;
            }
        }
        bucket_range(HISTOGRAM_BUCKETS - 1).1
    }
}

/// The bucket index for a value: 0 for 0, else `floor(log2(v)) + 1`.
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Value range of a bucket. Buckets 0..=63 are inclusive-exclusive
/// `[lo, hi)`; the top bucket (64) is inclusive `[2^63, u64::MAX]`
/// because its upper bound, 2^64, is not representable — the old
/// saturating computation returned `[2^63, u64::MAX)` and thereby
/// excluded `u64::MAX` from the very bucket [`bucket_index`] files it
/// under. Bucket 0 is `[0, 1)`, i.e. exactly the value 0.
pub fn bucket_range(i: usize) -> (u64, u64) {
    match i {
        0 => (0, 1),
        64 => (1u64 << 63, u64::MAX),
        _ => (1u64 << (i - 1), 1u64 << i),
    }
}

/// Whether value `v` belongs to bucket `i` — the single source of truth
/// for the boundary semantics above (top bucket hi-inclusive).
#[cfg(test)]
fn bucket_contains(i: usize, v: u64) -> bool {
    bucket_index(v) == i
}

/// One metric's current value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotone sum.
    Counter(u64),
    /// Last-set value.
    Gauge(f64),
    /// Log2-bucketed distribution.
    Histogram(Histogram),
}

/// One recorded event (quarantine, governor trip, …).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Offset from the run epoch in nanoseconds.
    pub at_ns: u64,
    /// Event class, e.g. `quarantine`, `governor-trip`.
    pub kind: String,
    /// What the event is about (device name, stage).
    pub subject: String,
    /// Machine-readable detail (reason code, limit description).
    pub detail: String,
}

fn type_conflict(r: &mut Recorder) {
    if let MetricValue::Counter(c) = r
        .metrics
        .entry("obs.type-conflicts".to_string())
        .or_insert(MetricValue::Counter(0))
    {
        *c += 1;
    }
}

/// Adds `n` to the counter `name`, creating it at 0 first.
pub fn counter_add(name: &str, n: u64) {
    let mut r = recorder::lock();
    match r.metrics.get_mut(name) {
        None => {
            r.metrics.insert(name.to_string(), MetricValue::Counter(n));
        }
        Some(MetricValue::Counter(c)) => *c += n,
        Some(_) => type_conflict(&mut r),
    }
}

/// Sets the gauge `name` to `v`.
pub fn gauge_set(name: &str, v: f64) {
    let mut r = recorder::lock();
    match r.metrics.get_mut(name) {
        None => {
            r.metrics.insert(name.to_string(), MetricValue::Gauge(v));
        }
        Some(MetricValue::Gauge(g)) => *g = v,
        Some(_) => type_conflict(&mut r),
    }
}

/// Records `v` in the histogram `name`.
pub fn observe(name: &str, v: u64) {
    let mut r = recorder::lock();
    match r.metrics.get_mut(name) {
        None => {
            let mut h = Histogram::new();
            h.record(v);
            r.metrics.insert(name.to_string(), MetricValue::Histogram(h));
        }
        Some(MetricValue::Histogram(h)) => h.record(v),
        Some(_) => type_conflict(&mut r),
    }
}

/// Reads a gauge's current value (None when unset or a different
/// type). The bench harness uses this to lift per-stage gauges into row
/// metadata without re-capturing the whole registry.
pub fn gauge(name: &str) -> Option<f64> {
    match recorder::lock().metrics.get(name) {
        Some(MetricValue::Gauge(g)) => Some(*g),
        _ => None,
    }
}

/// Records an event. Events beyond the retention cap are counted in the
/// report's `events_dropped` field instead of growing without bound.
pub fn event(kind: &str, subject: &str, detail: &str) {
    let mut r = recorder::lock();
    if r.events.len() >= MAX_EVENTS {
        r.events_dropped += 1;
        return;
    }
    let at_ns = r.run_ns(clock::now());
    r.events.push(Event {
        at_ns,
        kind: kind.to_string(),
        subject: subject.to_string(),
        detail: detail.to_string(),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn snapshot_metrics() -> (BTreeMap<String, MetricValue>, Vec<Event>, u64) {
        let r = crate::capture();
        (r.metrics, r.events, r.events_dropped)
    }

    #[test]
    fn bucket_index_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Every bucket's range round-trips through bucket_index.
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = bucket_range(i);
            assert_eq!(bucket_index(lo), i, "lo of bucket {i}");
            if i < 64 {
                assert_eq!(bucket_index(hi - 1), i, "hi-1 of bucket {i}");
            } else {
                // Top bucket: hi is inclusive, not one-past-the-end.
                assert_eq!(bucket_index(hi), i, "top bucket holds u64::MAX");
            }
        }
    }

    #[test]
    fn bucket_boundaries_at_powers_of_two() {
        // Exact power-of-two boundaries: 2^k - 1 stays in bucket k,
        // 2^k opens bucket k + 1.
        for k in 1..64usize {
            let v = 1u64 << k;
            assert_eq!(bucket_index(v - 1), k, "2^{k} - 1");
            assert_eq!(bucket_index(v), k + 1, "2^{k}");
            assert!(bucket_contains(k + 1, v));
            assert!(!bucket_contains(k, v));
        }
        // The two edge values the old range computation mishandled.
        assert!(bucket_contains(0, 0));
        assert!(bucket_contains(64, u64::MAX));
        let (lo, hi) = bucket_range(64);
        assert_eq!(lo, 1u64 << 63);
        assert_eq!(hi, u64::MAX);
    }

    #[test]
    fn histogram_edge_values_and_count_sum_invariant() {
        let _g = crate::span::test_guard();
        crate::reset();
        for v in [0u64, 0, 1, u64::MAX, u64::MAX, 1u64 << 63, (1u64 << 63) - 1] {
            observe("test.edges", v);
        }
        let (metrics, _, _) = snapshot_metrics();
        let Some(MetricValue::Histogram(h)) = metrics.get("test.edges") else {
            panic!("histogram missing");
        };
        assert_eq!(h.count, 7);
        // count == sum(buckets): nothing falls outside the bucket array.
        assert_eq!(h.count, h.buckets.iter().sum::<u64>());
        assert_eq!(h.buckets[0], 2, "both zeros in bucket 0");
        assert_eq!(h.buckets[64], 3, "u64::MAX ×2 and 2^63 in the top bucket");
        assert_eq!(h.buckets[63], 1, "2^63 - 1 one bucket down");
        // The sum saturates instead of wrapping on extreme inputs.
        assert_eq!(h.sum, u64::MAX);
    }

    #[test]
    fn histogram_counts_and_mean() {
        let _g = crate::span::test_guard();
        crate::reset();
        for v in [0u64, 1, 1, 3, 8, 1000] {
            observe("test.hist", v);
        }
        let (metrics, _, _) = snapshot_metrics();
        let Some(MetricValue::Histogram(h)) = metrics.get("test.hist") else {
            panic!("histogram missing");
        };
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 1013);
        assert_eq!(h.buckets[bucket_index(0)], 1);
        assert_eq!(h.buckets[bucket_index(1)], 2);
        assert_eq!(h.buckets[bucket_index(3)], 1);
        assert_eq!(h.buckets[bucket_index(8)], 1);
        assert_eq!(h.buckets[bucket_index(1000)], 1);
        assert!((h.mean() - 1013.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn percentile_upper_bounds_quantiles() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 4, 100, 1000] {
            h.count += 1;
            h.sum += v;
            h.buckets[bucket_index(v)] += 1;
        }
        // 3rd of 6 values is 3 → bucket [2,4) → upper edge 4.
        assert_eq!(h.percentile_upper(0.5), 4);
        // p99 of 6 values is the max (1000) → bucket [512,1024) → 1024.
        assert_eq!(h.percentile_upper(0.99), 1024);
        assert_eq!(Histogram::new().percentile_upper(0.5), 0);
    }

    #[test]
    fn counters_gauges_and_conflicts() {
        let _g = crate::span::test_guard();
        crate::reset();
        counter_add("c", 2);
        counter_add("c", 3);
        gauge_set("g", 1.5);
        gauge_set("g", 2.5);
        // A type conflict is absorbed, not panicked on.
        gauge_set("c", 9.0);
        let (metrics, _, _) = snapshot_metrics();
        assert_eq!(metrics.get("c"), Some(&MetricValue::Counter(5)));
        assert_eq!(metrics.get("g"), Some(&MetricValue::Gauge(2.5)));
        assert_eq!(
            metrics.get("obs.type-conflicts"),
            Some(&MetricValue::Counter(1))
        );
    }

    #[test]
    fn cross_thread_counters_sum_and_gauges_take_last_write() {
        let _g = crate::span::test_guard();
        crate::reset();
        counter_add("mt.c", 1);
        gauge_set("mt.g", 1.0);
        std::thread::spawn(|| {
            counter_add("mt.c", 10);
            gauge_set("mt.g", 7.5); // the later write: must win
        })
        .join()
        .expect("worker");
        let (metrics, _, _) = snapshot_metrics();
        assert_eq!(metrics.get("mt.c"), Some(&MetricValue::Counter(11)));
        assert_eq!(metrics.get("mt.g"), Some(&MetricValue::Gauge(7.5)));
        assert_eq!(gauge("mt.g"), Some(7.5));
    }

    #[test]
    fn events_record_and_reset() {
        let _g = crate::span::test_guard();
        crate::reset();
        event("quarantine", "r1", "parse-panic");
        let (_, events, dropped) = snapshot_metrics();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, "quarantine");
        assert_eq!(dropped, 0);
        crate::reset();
        let (m, events, _) = snapshot_metrics();
        assert!(m.is_empty());
        assert!(events.is_empty());
    }
}
