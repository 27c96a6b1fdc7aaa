//! The typed metrics registry: counters, gauges, histograms, events.
//!
//! Metrics are named with dotted lowercase paths (`parse.lines.total.ios`,
//! `bdd.cache.hits`); the full taxonomy is documented in DESIGN.md
//! ("Observability"). A name is bound to one type on first use; a
//! mismatched re-use is recorded in the `obs.type-conflicts` counter
//! rather than panicking (observability must never take the pipeline
//! down).
//!
//! Recording is sharded per OS thread (see [`crate::shard`]): every
//! `counter_add`/`gauge_set`/`observe`/`event` call touches only the
//! calling thread's slice of the registry. The merge at capture time is
//! deterministic: counters sum, histograms add bucket-wise, gauges
//! resolve to the write with the highest global stamp (last write wins,
//! exactly as it did under one global lock), and events interleave by
//! timestamp with shard registration order as the tie-break. A name
//! bound to different types on different shards is a cross-shard type
//! conflict: the merge keeps the lowest-shard binding and counts the
//! rest in `obs.type-conflicts`, same policy as within a thread.
//!
//! Histograms use fixed log2 buckets: bucket 0 holds the value 0 and
//! bucket *i* ≥ 1 holds values in `[2^(i-1), 2^i)`, except the top
//! bucket (64), which is inclusive `[2^63, u64::MAX]` since 2^64 does
//! not fit in a `u64`. 65 buckets cover the full `u64` range with no
//! configuration and no allocation per observation, and every observed
//! value lands in exactly one bucket (`count == sum(buckets)` always).

use crate::clock;
use crate::shard::{self, ShardData};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 histogram buckets (value 0 plus one per bit).
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Cap on retained events (per shard while recording, and again on the
/// merged stream); later events are counted but dropped.
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

    /// Folds `other` into `self` bucket-wise (the capture-time shard
    /// merge). Exact: no observation is lost or double-counted, so the
    /// merged histogram equals the one a single global registry would
    /// have recorded.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
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

/// One metric as stored in a shard. Gauges carry the global write stamp
/// so the merge can resolve "last write wins" across threads without
/// any cross-thread ordering on the write path.
#[derive(Clone, Debug)]
pub(crate) enum MetricSlot {
    Counter(u64),
    Gauge(f64, u64),
    Histogram(Histogram),
}

/// Global sequence for gauge writes: one relaxed fetch per `gauge_set`,
/// giving the merge a total order over writes to the same gauge.
static GAUGE_SEQ: AtomicU64 = AtomicU64::new(1);

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

fn type_conflict(data: &mut ShardData) {
    if let MetricSlot::Counter(c) = data
        .metrics
        .entry("obs.type-conflicts".to_string())
        .or_insert(MetricSlot::Counter(0))
    {
        *c += 1;
    }
}

/// Adds `n` to the counter `name`, creating it at 0 first.
pub fn counter_add(name: &str, n: u64) {
    shard::with_local(|sh| {
        let mut data = sh.lock();
        match data.metrics.get_mut(name) {
            None => {
                data.metrics.insert(name.to_string(), MetricSlot::Counter(n));
            }
            Some(MetricSlot::Counter(c)) => *c += n,
            Some(_) => type_conflict(&mut data),
        }
    });
}

/// Sets the gauge `name` to `v`.
pub fn gauge_set(name: &str, v: f64) {
    let stamp = GAUGE_SEQ.fetch_add(1, Ordering::Relaxed);
    shard::with_local(|sh| {
        let mut data = sh.lock();
        match data.metrics.get_mut(name) {
            None => {
                data.metrics
                    .insert(name.to_string(), MetricSlot::Gauge(v, stamp));
            }
            Some(MetricSlot::Gauge(g, s)) => {
                *g = v;
                *s = stamp;
            }
            Some(_) => type_conflict(&mut data),
        }
    });
}

/// Records `v` in the histogram `name`.
pub fn observe(name: &str, v: u64) {
    shard::with_local(|sh| {
        let mut data = sh.lock();
        let entry = match data.metrics.get_mut(name) {
            None => {
                data.metrics
                    .insert(name.to_string(), MetricSlot::Histogram(Histogram::new()));
                match data.metrics.get_mut(name) {
                    Some(MetricSlot::Histogram(h)) => h,
                    _ => return,
                }
            }
            Some(MetricSlot::Histogram(h)) => h,
            Some(_) => {
                type_conflict(&mut data);
                return;
            }
        };
        entry.count += 1;
        entry.sum = entry.sum.saturating_add(v);
        entry.buckets[bucket_index(v)] += 1;
    });
}

/// Reads a gauge's current value across all shards (None when unset or
/// a different type). The bench harness uses this to lift per-stage
/// gauges into row metadata without re-capturing the whole registry.
pub fn gauge(name: &str) -> Option<f64> {
    let mut best: Option<(u64, f64)> = None;
    for sh in shard::all() {
        let data = sh.lock();
        if let Some(MetricSlot::Gauge(g, s)) = data.metrics.get(name) {
            if best.is_none_or(|(stamp, _)| *s > stamp) {
                best = Some((*s, *g));
            }
        }
    }
    best.map(|(_, g)| g)
}

/// Records an event. Events beyond the retention cap are counted in the
/// report's `events_dropped` field instead of growing without bound.
pub fn event(kind: &str, subject: &str, detail: &str) {
    let at_ns = shard::run_ns(clock::now());
    shard::with_local(|sh| {
        let mut data = sh.lock();
        if data.events.len() >= MAX_EVENTS {
            data.events_dropped += 1;
            return;
        }
        data.events.push(Event {
            at_ns,
            kind: kind.to_string(),
            subject: subject.to_string(),
            detail: detail.to_string(),
        });
    });
}

/// Snapshot of the registry since the last reset: the deterministic
/// cross-shard merge. Shards are visited in registration order, so the
/// result is independent of thread scheduling given the same recorded
/// data; with one shard (any single-threaded run) the merge is the
/// identity.
pub(crate) fn snapshot_metrics() -> (BTreeMap<String, MetricValue>, Vec<Event>, u64) {
    // (resolved slot, winning gauge stamp) per name.
    let mut merged: BTreeMap<String, MetricSlot> = BTreeMap::new();
    let mut events: Vec<Event> = Vec::new();
    let mut dropped = 0u64;
    let mut cross_shard_conflicts = 0u64;
    for sh in shard::all() {
        let data = sh.lock();
        for (name, slot) in &data.metrics {
            match merged.get_mut(name) {
                None => {
                    merged.insert(name.clone(), slot.clone());
                }
                Some(MetricSlot::Counter(a)) => match slot {
                    MetricSlot::Counter(b) => *a += b,
                    _ => cross_shard_conflicts += 1,
                },
                Some(MetricSlot::Gauge(g, stamp)) => match slot {
                    MetricSlot::Gauge(v, s) if s > stamp => {
                        *g = *v;
                        *stamp = *s;
                    }
                    MetricSlot::Gauge(..) => {}
                    _ => cross_shard_conflicts += 1,
                },
                Some(MetricSlot::Histogram(a)) => match slot {
                    MetricSlot::Histogram(b) => a.merge(b),
                    _ => cross_shard_conflicts += 1,
                },
            }
        }
        events.extend(data.events.iter().cloned());
        dropped += data.events_dropped;
    }
    if cross_shard_conflicts > 0 {
        if let MetricSlot::Counter(c) = merged
            .entry("obs.type-conflicts".to_string())
            .or_insert(MetricSlot::Counter(0))
        {
            *c += cross_shard_conflicts;
        }
    }
    // Stable sort: within-shard order (already by timestamp) is kept,
    // and equal timestamps across shards fall back to shard order.
    events.sort_by_key(|e| e.at_ns);
    if events.len() > MAX_EVENTS {
        dropped += (events.len() - MAX_EVENTS) as u64;
        events.truncate(MAX_EVENTS);
    }
    let metrics = merged
        .into_iter()
        .map(|(name, slot)| {
            let value = match slot {
                MetricSlot::Counter(c) => MetricValue::Counter(c),
                MetricSlot::Gauge(g, _) => MetricValue::Gauge(g),
                MetricSlot::Histogram(h) => MetricValue::Histogram(h),
            };
            (name, value)
        })
        .collect();
    (metrics, events, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn histogram_merge_is_exact() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for (h, vals) in [(&mut a, [0u64, 5, 1 << 40]), (&mut b, [5, 6, u64::MAX])] {
            for v in vals {
                h.count += 1;
                h.sum = h.sum.saturating_add(v);
                h.buckets[bucket_index(v)] += 1;
                whole.count += 1;
                whole.sum = whole.sum.saturating_add(v);
                whole.buckets[bucket_index(v)] += 1;
            }
        }
        a.merge(&b);
        assert_eq!(a, whole);
        assert_eq!(a.count, a.buckets.iter().sum::<u64>());
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
            gauge_set("mt.g", 7.5); // later stamp: must win the merge
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
