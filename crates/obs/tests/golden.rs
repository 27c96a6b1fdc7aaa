//! Byte-level serializer stability: a fixed, fully deterministic
//! `RunReport` must serialize to exactly the committed golden file.
//!
//! The recorder is one value behind one lock, storing spans in open
//! order (`src/recorder.rs`), so for a single-threaded run the span
//! order *is* the open order and the metric map is sorted by name; this
//! test pins that `to_json` turns such a report into exactly the same
//! bytes, whatever writes its layout. Regenerate with
//! `cargo test -p batnet-obs --test golden -- --ignored write_golden`
//! only when the schema intentionally changes (and say so in the PR).

use batnet_obs::metrics::{bucket_index, Event, Histogram, MetricValue, HISTOGRAM_BUCKETS};
use batnet_obs::report::{PartialOutcome, QuarantineEntry, RunReport, SnapshotSummary};
use batnet_obs::span::SpanRecord;

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/golden_report.json")
}

/// A report with every section populated and no wall-clock input: the
/// exact shape a single-threaded capture produces, with fixed numbers.
fn golden_report() -> RunReport {
    let span = |name: &str, parent: Option<usize>, start_ns: u64, dur_ns: Option<u64>| SpanRecord {
        name: name.to_string(),
        parent,
        start_ns,
        dur_ns,
        tid: 0,
    };
    let mut report = RunReport {
        spans: vec![
            span("run", None, 0, Some(5_000_000)),
            span("snapshot.parse", Some(0), 10_000, Some(1_500_000)),
            span("route.simulate", Some(0), 1_600_000, Some(3_000_000)),
            span("route.igp", Some(2), 1_700_000, Some(1_000_000)),
            span("still-open", Some(0), 4_900_000, None),
        ],
        events: vec![Event {
            at_ns: 123_000,
            kind: "quarantine".to_string(),
            subject: "r9".to_string(),
            detail: "parse-panic".to_string(),
        }],
        events_dropped: 1,
        quarantined: vec![QuarantineEntry {
            device: "r9".to_string(),
            stage: "parse".to_string(),
            code: "parse-panic".to_string(),
            detail: "index out of bounds".to_string(),
        }],
        partial: Some(PartialOutcome {
            stage: "bgp-fixed-point".to_string(),
            limit: "deadline (120000 ms)".to_string(),
            abandoned: vec!["10.0.0.0/8".to_string()],
        }),
        snapshot: Some(SnapshotSummary {
            devices: 3,
            quarantined: 1,
            diagnostics: 2,
        }),
        ..RunReport::default()
    };
    report.meta.insert("cmd".to_string(), "golden".to_string());
    report.meta.insert("commit".to_string(), "fixed".to_string());
    report
        .metrics
        .insert("golden.count".to_string(), MetricValue::Counter(42));
    report
        .metrics
        .insert("golden.gauge".to_string(), MetricValue::Gauge(2.5));
    let mut h = Histogram {
        count: 0,
        sum: 0,
        buckets: vec![0; HISTOGRAM_BUCKETS],
    };
    for v in [0u64, 1, 3, 8, 1000] {
        h.count += 1;
        h.sum += v;
        h.buckets[bucket_index(v)] += 1;
    }
    report
        .metrics
        .insert("golden.hist".to_string(), MetricValue::Histogram(h));
    report
}

#[test]
fn report_json_matches_pre_refactor_golden() {
    let want = std::fs::read_to_string(golden_path()).expect("committed golden fixture");
    let got = golden_report().to_json();
    assert_eq!(got, want.trim_end(), "report JSON drifted from the golden fixture");
}

#[test]
#[ignore = "regenerates the committed fixture"]
fn write_golden() {
    let path = golden_path();
    std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir");
    let mut text = golden_report().to_json();
    text.push('\n');
    std::fs::write(&path, text).expect("write fixture");
}
