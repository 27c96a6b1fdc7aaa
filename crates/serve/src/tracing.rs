//! Per-request tracing: trace ids and the recent-trace ring.
//!
//! Every accepted request gets a trace id — the request's sequence
//! number as 16 hex digits, so the smoke test sees a deterministic id
//! stream — returned to the client as `X-Batnet-Trace-Id` and attached
//! to the request's span tree. Finished trees land in a bounded ring
//! ([`TraceRing`]) served at `GET /tracez`: the operator's answer to
//! "why was *this* request slow", holding the most recent N requests
//! with queue-wait/handler timing, deadline/partial accounting, and the
//! full span forest in the same schema the run report uses (validated
//! by `obs-validate`). Evictions are counted, never silent —
//! chaos invariant 9 checks `requests == ring + evicted` exactly.

use batnet_obs::json::Writer;
use batnet_obs::span::SpanRecord;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Sequential trace-id generator: id *n* is `n` as 16 hex digits.
#[derive(Default)]
pub struct TraceIds {
    next: AtomicU64,
}

impl TraceIds {
    /// The next id in this generator's sequence.
    pub fn next_id(&self) -> String {
        Self::nth(self.next.fetch_add(1, Ordering::Relaxed))
    }

    /// The id handed to the `n`-th request. Smoke assertions use this
    /// to predict the deterministic stream.
    pub fn nth(n: u64) -> String {
        format!("{n:016x}")
    }

    /// Ids handed out so far.
    pub fn issued(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Whether this generator has ever issued `id` — `/tracez?id=` uses
    /// this to tell an *evicted* trace (issued, no longer retained) from
    /// an id this server never produced. Only the exact spelling
    /// [`TraceIds::nth`] gives counts (16 lowercase hex digits).
    pub fn was_issued(&self, id: &str) -> bool {
        u64::from_str_radix(id, 16).is_ok_and(|n| n < self.issued() && Self::nth(n) == id)
    }
}

/// One finished request as traced.
#[derive(Clone, Debug)]
pub struct TraceEntry {
    pub trace_id: String,
    pub method: String,
    pub path: String,
    pub status: u16,
    /// Accept-to-worker-pickup wait, microseconds.
    pub queue_wait_us: u64,
    /// Handler wall time, microseconds.
    pub handler_us: u64,
    /// The request's effective deadline, when it asked for one.
    pub deadline_ms: Option<u64>,
    /// Whether the response was a 206 partial (blown budget).
    pub partial: bool,
    /// The request's span forest (flat records, parent indices).
    pub spans: Vec<SpanRecord>,
}

fn ms(us: u64) -> f64 {
    us as f64 / 1000.0
}

impl TraceEntry {
    /// The entry as a `/tracez` trace object (with the span forest).
    fn write_trace(&self, w: &mut Writer) {
        w.field("trace_id", &self.trace_id)
            .field("method", &self.method)
            .field("path", &self.path)
            .field("status", self.status)
            .field("queue_wait_ms", ms(self.queue_wait_us))
            .field("handler_ms", ms(self.handler_us))
            .field("deadline_ms", self.deadline_ms)
            .field("partial", self.partial);
        batnet_obs::report::write_span_forest(w, &self.spans);
    }
}

struct RingState {
    entries: VecDeque<TraceEntry>,
    evicted: u64,
}

/// Bounded ring of the most recent finished request traces.
pub struct TraceRing {
    capacity: usize,
    state: Mutex<RingState>,
}

impl TraceRing {
    pub fn new(capacity: usize) -> TraceRing {
        TraceRing {
            capacity: capacity.max(1),
            state: Mutex::new(RingState {
                entries: VecDeque::new(),
                evicted: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RingState> {
        // Poison recovery for the same reason as the recorder: a
        // panicking worker must not take `/tracez` down with it.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Adds a finished request, evicting (and counting) the oldest when
    /// full.
    pub fn push(&self, entry: TraceEntry) {
        let mut st = self.lock();
        if st.entries.len() >= self.capacity {
            st.entries.pop_front();
            st.evicted += 1;
        }
        st.entries.push_back(entry);
    }

    /// `(retained, evicted)` — the ring's side of the accounting
    /// identity `requests.total == retained + evicted`.
    pub fn stats(&self) -> (usize, u64) {
        let st = self.lock();
        (st.entries.len(), st.evicted)
    }

    /// Whether a trace id is currently retained.
    pub fn contains(&self, trace_id: &str) -> bool {
        self.lock().entries.iter().any(|e| e.trace_id == trace_id)
    }

    /// A single retained trace as a standalone `/tracez`-schema document
    /// (one-element `traces`, same ring accounting), or `None` if the id
    /// is not currently in the ring.
    pub fn render_one(&self, trace_id: &str) -> Option<String> {
        let st = self.lock();
        let e = st.entries.iter().find(|e| e.trace_id == trace_id)?;
        Some(self.render(&st, [e]))
    }

    /// The `/tracez` document: schema 1, ring accounting, traces
    /// newest-first (the recent ones are what an operator is after).
    pub fn render_json(&self) -> String {
        let st = self.lock();
        self.render(&st, st.entries.iter().rev())
    }

    fn render<'a>(&self, st: &RingState, traces: impl IntoIterator<Item = &'a TraceEntry>) -> String {
        Writer::spaced()
            .obj(|w| {
                w.field("schema", 1u64)
                    .field("capacity", self.capacity)
                    .field("evicted", st.evicted)
                    .array("traces", |w| {
                        for e in traces {
                            w.obj(|w| e.write_trace(w));
                        }
                    });
            })
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batnet_obs::json::{self, Value};
    use batnet_obs::report::validate_tracez;

    fn entry(id: &str) -> TraceEntry {
        TraceEntry {
            trace_id: id.to_string(),
            method: "GET".to_string(),
            path: "/healthz".to_string(),
            status: 200,
            queue_wait_us: 250,
            handler_us: 1500,
            deadline_ms: None,
            partial: false,
            spans: vec![SpanRecord {
                name: "serve.request".to_string(),
                parent: None,
                start_ns: 0,
                dur_ns: Some(1_500_000),
                tid: 0,
            }],
        }
    }

    #[test]
    fn ids_are_sequential_and_lookups_know_what_was_issued() {
        let ids = TraceIds::default();
        assert!(!ids.was_issued(&TraceIds::nth(0)), "nothing issued yet");
        let issued: Vec<String> = (0..3).map(|_| ids.next_id()).collect();
        for (n, id) in issued.iter().enumerate() {
            assert_eq!(*id, format!("{n:016x}"));
            assert_eq!(*id, TraceIds::nth(n as u64));
        }
        assert_eq!(ids.issued(), 3);
        assert!(ids.was_issued(&issued[2]), "the last issued id");
        assert!(!ids.was_issued(&TraceIds::nth(3)), "not issued yet");
        assert!(!ids.was_issued("zz"), "malformed ids are never issued");
        assert!(!ids.was_issued("000000000000000g"), "not hex");
        assert!(!ids.was_issued("+000000000000001"), "a sign is not a digit");
        assert!(!ids.was_issued("0000000000000000000"), "wrong length");
        assert!(!ids.was_issued("0"), "wrong length");
    }

    #[test]
    fn ring_renders_single_retained_trace() {
        let ring = TraceRing::new(2);
        for i in 0..3 {
            ring.push(entry(&format!("id-{i}")));
        }
        let one = ring.render_one("id-2").expect("retained");
        let v = json::parse(&one).expect("parses");
        validate_tracez(&v).expect("single-trace doc validates");
        let traces = v.get("traces").and_then(Value::as_arr).expect("traces");
        assert_eq!(traces.len(), 1);
        assert_eq!(
            traces[0].get("trace_id").and_then(Value::as_str),
            Some("id-2")
        );
        assert_eq!(v.get("evicted").and_then(Value::as_f64), Some(1.0));
        assert!(ring.render_one("id-0").is_none(), "evicted ids miss");
    }

    #[test]
    fn ring_evicts_oldest_and_counts() {
        let ring = TraceRing::new(2);
        for i in 0..5 {
            ring.push(entry(&format!("id-{i}")));
        }
        assert_eq!(ring.stats(), (2, 3));
        assert!(ring.contains("id-4") && ring.contains("id-3"));
        assert!(!ring.contains("id-0"));
        let v = json::parse(&ring.render_json()).expect("tracez parses");
        validate_tracez(&v).expect("tracez validates");
        // Newest first.
        let traces = v.get("traces").and_then(Value::as_arr).expect("traces");
        assert_eq!(
            traces[0].get("trace_id").and_then(Value::as_str),
            Some("id-4")
        );
    }
}
