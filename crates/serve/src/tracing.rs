//! Per-request tracing: trace ids, the recent-trace ring, and the
//! structured access log.
//!
//! Every accepted request gets a trace id — 16 hex digits from a seeded
//! splitmix64 sequence, so the smoke test sees a deterministic id stream
//! — returned to the client as `X-Batnet-Trace-Id` and attached to the
//! request's span tree. Finished trees land in a bounded ring
//! ([`TraceRing`]) served at `GET /tracez`: the operator's answer to
//! "why was *this* request slow", holding the most recent N requests
//! with queue-wait/handler timing, deadline/partial accounting, and the
//! full span forest in the same schema the run report uses (validated
//! by `obs-validate`). Evictions are counted, never silent —
//! chaos invariant 9 checks `requests == ring + evicted` exactly.
//!
//! The access log ([`AccessLog`]) is one JSON line per request, off by
//! default (`--access-log` writes to stderr; tests capture via a sink).

use batnet_obs::json;
use batnet_obs::span::SpanRecord;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// splitmix64: tiny, seedable, full-period — the same generator family
/// the chaos harness uses. Good enough to make ids unique per run and
/// deterministic per seed; these are correlation ids, not secrets.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Multiplicative inverse of an odd u64 (mod 2⁶⁴) by Newton iteration:
/// each step doubles the number of correct low bits, so five steps from
/// the trivial `a⁻¹ ≡ a (mod 2³)` cover all 64.
fn mul_inverse(a: u64) -> u64 {
    let mut x = a; // correct to 3 bits for odd a
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
    }
    x
}

/// Undoes `z ^= z >> shift` (shift ≥ 32 needs one step; smaller shifts
/// recover the bits block by block from the top).
fn unxorshift(z: u64, shift: u32) -> u64 {
    let mut x = z;
    let mut recovered = shift;
    while recovered < 64 {
        x = z ^ (x >> shift);
        recovered += shift;
    }
    x
}

/// Inverse of [`splitmix64`]: recovers the input counter from an id.
/// splitmix64 is a bijection on u64 — every step (constant add, odd
/// multiply mod 2⁶⁴, xorshift) is invertible — which is what lets
/// `/tracez?id=` decide in O(1) whether an unknown id was *ever* issued
/// by this server (evicted) or never existed.
fn splitmix64_inverse(z: u64) -> u64 {
    let mut x = unxorshift(z, 31);
    x = x.wrapping_mul(mul_inverse(0x94d0_49bb_1331_11eb));
    x = unxorshift(x, 27);
    x = x.wrapping_mul(mul_inverse(0xbf58_476d_1ce4_e5b9));
    x = unxorshift(x, 30);
    x.wrapping_sub(0x9e37_79b9_7f4a_7c15)
}

/// Seeded trace-id generator: id *n* is `splitmix64(seed + n)`.
pub struct TraceIds {
    seed: u64,
    next: AtomicU64,
}

impl TraceIds {
    pub fn new(seed: u64) -> TraceIds {
        TraceIds {
            seed,
            next: AtomicU64::new(0),
        }
    }

    /// The next id in this generator's sequence.
    pub fn next_id(&self) -> String {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        Self::nth(self.seed, n)
    }

    /// The id a generator with `seed` hands to its `n`-th request.
    /// Smoke assertions use this to predict the deterministic stream.
    pub fn nth(seed: u64, n: u64) -> String {
        format!("{:016x}", splitmix64(seed.wrapping_add(n)))
    }

    /// Ids handed out so far.
    pub fn issued(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Whether this generator has ever issued `id`. splitmix64 is a
    /// bijection, so inverting it recovers the sequence position of any
    /// well-formed id in O(1) — `/tracez?id=` uses this to tell an
    /// *evicted* trace (issued, no longer retained) from an id this
    /// server never produced.
    pub fn was_issued(&self, id: &str) -> bool {
        if id.len() != 16 {
            return false;
        }
        let Ok(v) = u64::from_str_radix(id, 16) else {
            return false;
        };
        let n = splitmix64_inverse(v).wrapping_sub(self.seed);
        n < self.issued()
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
    fn write_common(&self, out: &mut String) {
        out.push_str("{\"trace_id\": ");
        json::write_str(out, &self.trace_id);
        out.push_str(", \"method\": ");
        json::write_str(out, &self.method);
        out.push_str(", \"path\": ");
        json::write_str(out, &self.path);
        let _ = write!(out, ", \"status\": {}, \"queue_wait_ms\": ", self.status);
        json::write_f64(out, ms(self.queue_wait_us));
        out.push_str(", \"handler_ms\": ");
        json::write_f64(out, ms(self.handler_us));
        out.push_str(", \"deadline_ms\": ");
        match self.deadline_ms {
            Some(d) => {
                let _ = write!(out, "{d}");
            }
            None => out.push_str("null"),
        }
        let _ = write!(out, ", \"partial\": {}", self.partial);
    }

    /// The entry as a `/tracez` trace object (with the span forest).
    fn write_trace(&self, out: &mut String) {
        self.write_common(out);
        out.push_str(", \"spans\": ");
        batnet_obs::report::write_span_forest(&self.spans, out);
        out.push('}');
    }

    /// The entry as one access-log line (no spans — those live in the
    /// ring; the log is for grep and line counting).
    pub fn access_line(&self) -> String {
        let mut out = String::with_capacity(160);
        self.write_common(&mut out);
        out.push('}');
        out
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
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"schema\": 1, \"capacity\": {}, \"evicted\": {}, \"traces\": [",
            self.capacity, st.evicted
        );
        e.write_trace(&mut out);
        out.push_str("]}");
        Some(out)
    }

    /// The `/tracez` document: schema 1, ring accounting, traces
    /// newest-first (the recent ones are what an operator is after).
    pub fn render_json(&self) -> String {
        let st = self.lock();
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "{{\"schema\": 1, \"capacity\": {}, \"evicted\": {}, \"traces\": [",
            self.capacity, st.evicted
        );
        for (i, e) in st.entries.iter().rev().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            e.write_trace(&mut out);
        }
        out.push_str("]}");
        out
    }
}

/// Where per-request access-log lines go.
#[derive(Clone, Default)]
pub enum AccessLog {
    /// No logging (the default; tracing still fills the ring).
    #[default]
    Off,
    /// One JSON line per request to stderr (`--access-log`).
    Stderr,
    /// Captured in memory — the chaos harness counts lines here.
    Sink(Arc<Mutex<Vec<String>>>),
}

impl AccessLog {
    /// A sink log plus the shared buffer it writes to.
    pub fn sink() -> (AccessLog, Arc<Mutex<Vec<String>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        (AccessLog::Sink(Arc::clone(&buf)), buf)
    }

    pub fn emit(&self, entry: &TraceEntry) {
        match self {
            AccessLog::Off => {}
            AccessLog::Stderr => eprintln!("{}", entry.access_line()),
            AccessLog::Sink(buf) => buf
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(entry.access_line()),
        }
    }
}

impl std::fmt::Debug for AccessLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            AccessLog::Off => "Off",
            AccessLog::Stderr => "Stderr",
            AccessLog::Sink(_) => "Sink",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batnet_obs::json::Value;
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
    fn ids_are_deterministic_per_seed() {
        let a = TraceIds::new(42);
        let b = TraceIds::new(42);
        let ids: Vec<String> = (0..4).map(|_| a.next_id()).collect();
        assert_eq!(ids, (0..4).map(|_| b.next_id()).collect::<Vec<_>>());
        assert_eq!(ids[2], TraceIds::nth(42, 2));
        assert_eq!(ids.iter().collect::<std::collections::BTreeSet<_>>().len(), 4);
        assert!(ids.iter().all(|i| i.len() == 16));
        assert_ne!(ids[0], TraceIds::new(43).next_id(), "seed changes the stream");
    }

    #[test]
    fn splitmix64_inversion_roundtrips() {
        for x in [0u64, 1, 42, u64::MAX, 0xdead_beef_cafe_f00d, 1 << 63] {
            assert_eq!(splitmix64_inverse(splitmix64(x)), x);
        }
        let ids = TraceIds::new(907);
        assert!(!ids.was_issued(&TraceIds::nth(907, 0)), "nothing issued yet");
        let first = ids.next_id();
        assert_eq!(ids.issued(), 1);
        assert!(ids.was_issued(&first));
        assert!(!ids.was_issued(&TraceIds::nth(907, 1)), "not issued yet");
        assert!(!ids.was_issued(&TraceIds::nth(1, 0)), "other seed's stream");
        assert!(!ids.was_issued("zz"), "malformed ids are never issued");
        assert!(!ids.was_issued("00112233445566778899"), "wrong length");
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

    #[test]
    fn access_line_is_one_json_object() {
        let (log, buf) = AccessLog::sink();
        log.emit(&entry("abc"));
        let lines = buf.lock().expect("sink");
        assert_eq!(lines.len(), 1);
        assert!(!lines[0].contains('\n'));
        let v = json::parse(&lines[0]).expect("line parses");
        assert_eq!(v.get("trace_id").and_then(Value::as_str), Some("abc"));
        assert_eq!(v.get("status").and_then(Value::as_f64), Some(200.0));
        assert_eq!(v.get("queue_wait_ms").and_then(Value::as_f64), Some(0.25));
        assert!(v.get("spans").is_none(), "log lines carry no span forest");
    }
}
