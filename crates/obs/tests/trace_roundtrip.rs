//! Trace-export round trip: record a real span forest, serialize the
//! run report, export it as Chrome trace JSON, and re-parse everything
//! with the in-tree JSON parser.
//!
//! A single `#[test]` on purpose: the span recorder is process-global
//! and `cargo test` runs tests on threads, so this file owns the whole
//! recording window (integration tests build as their own binary, so
//! no unit test can interleave).

use batnet_obs::json::{self, Value};
use batnet_obs::trace::{chrome_trace, forest_from_json, validate_chrome_trace, SpanNode};
use batnet_obs::Span;

#[test]
fn report_to_chrome_trace_roundtrip() {
    batnet_obs::reset();
    {
        let _run = Span::enter("run");
        for net in ["n2", "net1"] {
            let _network = Span::enter(format!("network.{net}"));
            {
                let _parse = Span::enter("parse");
                std::hint::black_box(vec![0u8; 4096]);
            }
            let _route = Span::enter("route");
            let _bgp = Span::enter("route.bgp");
        }
    }
    std::thread::spawn(|| {
        let _w = Span::enter("worker");
    })
    .join()
    .expect("worker thread");

    let report = batnet_obs::capture();
    let span_count = report.spans.len();
    assert_eq!(span_count, 10, "1 run + 2×(network, parse, route, bgp) + worker");

    // Report → JSON → parsed forest → Chrome trace → parsed events.
    let report_json = json::parse(&report.to_json()).expect("report parses");
    batnet_obs::report::validate_run_report(&report_json).expect("report validates");
    let forest = forest_from_json(&report_json).expect("forest from JSON");
    let trace_text = chrome_trace(&forest);
    let trace = json::parse(&trace_text).expect("trace parses with the in-tree parser");
    validate_chrome_trace(&trace).expect("trace validates");

    // Event count equals span count: every recorded span becomes
    // exactly one complete event.
    let events = trace
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents");
    assert_eq!(events.len(), span_count);

    // ts is monotone and dur non-negative within each tid (Perfetto
    // renders one track per tid; out-of-order events corrupt nesting).
    let mut per_tid: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    for e in events {
        let tid = e.get("tid").and_then(Value::as_f64).expect("tid") as u64;
        let ts = e.get("ts").and_then(Value::as_f64).expect("ts");
        let dur = e.get("dur").and_then(Value::as_f64).expect("dur");
        assert!(dur >= 0.0);
        let last = per_tid.entry(tid).or_insert(f64::MIN);
        assert!(ts >= *last, "ts must be monotone within tid {tid}");
        *last = ts;
    }
    // The main-thread tree and the worker root land on different tids.
    assert!(per_tid.len() >= 2, "worker root gets its own track");

    // Self time over the forest sums to ≤ the root wall time: the
    // attribution partitions the measured wall clock, it never invents
    // time. (Worker spans overlap the main tree, so compare per root.
    // The report stores ms, so the ns→ms→ns round trip can truncate up
    // to 1 ns per span — grant exactly that much slack.)
    fn sum_self(node: &SpanNode) -> u64 {
        node.self_ns() + node.children.iter().map(sum_self).sum::<u64>()
    }
    for root in &forest {
        let rounding_slack = root.size() as u64;
        assert!(
            sum_self(root) <= root.dur_ns + rounding_slack,
            "self times within {} exceed its wall time",
            root.name
        );
    }
}
