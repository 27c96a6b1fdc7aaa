//! The benchmark's own spans. Traced runs record one span around each
//! call into a layer; spans live in memory and are written to
//! `out/trace-<workload>.json` when the run ends. Timed runs record none.

use batnet::obs::json;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Which answer (question, request) caused it; 0 = the run itself.
    pub answer: u32,
    /// The network the stage ran on.
    pub net: &'static str,
}

/// Span store for one traced run (single-threaded; the serve clients
/// hand their request timings over after they join).
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Stamped on every span opened from now on.
    pub net: &'static str,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: batnet::obs::now(),
            spans: Vec::new(),
            open: Vec::new(),
            net: "",
        }
    }

    fn us(&self, at: Instant) -> f64 {
        at.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str, answer: u32) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.us(batnet::obs::now()),
            end_us: f64::NAN,
            parent: self.open.last().copied(),
            answer,
            net: self.net,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one); returns its duration
    /// in milliseconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let end = self.us(batnet::obs::now());
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_us = end;
        (end - self.spans[id].start_us) / 1e3
    }

    /// Runs `f` inside a span; returns its result and the span's
    /// duration in milliseconds.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        answer: u32,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> (R, f64) {
        let id = self.enter(name, answer);
        let out = f(self);
        (out, self.exit(id))
    }

    /// Adds a span timed elsewhere (a client thread's request).
    pub fn add(&mut self, name: &'static str, answer: u32, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            parent: self.open.last().copied(),
            answer,
            net: self.net,
        });
    }

    /// The cost of recording one span, in nanoseconds: what tracing adds
    /// to a stage, measured on 10,000 empty spans in a scratch recorder.
    pub fn cost_per_span_ns() -> f64 {
        let mut scratch = Recorder::new();
        let t = batnet::obs::now();
        for i in 0..10_000u32 {
            scratch.span("calibrate", i, |_| ());
        }
        t.elapsed().as_secs_f64() * 1e9 / 10_000.0
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Serializes the spans with the run's metrics (each tagged with the
    /// network it was measured on).
    pub fn to_json(&self, workload: &str, host: &str, metrics: &[(&str, f64, &str)]) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str("{\"workload\": ");
        json::write_str(&mut out, workload);
        out.push_str(", \"host\": ");
        json::write_str(&mut out, host);
        out.push_str(", \"metrics\": {");
        for (i, (name, value, net)) in metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            json::write_str(&mut out, name);
            out.push_str(": {\"value\": ");
            json::write_f64(&mut out, *value);
            out.push_str(", \"net\": ");
            json::write_str(&mut out, net);
            out.push('}');
        }
        out.push_str("}, \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str("{\"name\": ");
            json::write_str(&mut out, s.name);
            let _ = write!(
                out,
                ", \"start_us\": {:.1}, \"end_us\": {:.1}, \"parent\": ",
                s.start_us, s.end_us
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(out, ", \"answer\": {}, \"net\": ", s.answer);
            json::write_str(&mut out, s.net);
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }
}
