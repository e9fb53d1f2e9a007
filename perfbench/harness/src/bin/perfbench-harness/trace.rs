//! In-memory span recorder, written out as Chrome trace-event JSON.
//!
//! Spans are recorded at layer boundaries only, from this harness, around
//! calls into the library's public API. Each span keeps its name, start,
//! end, parent span and the run id; the recorder also times itself, so the
//! traced run can report its own overhead.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
}

pub struct Tracer {
    epoch: Instant,
    run: String,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Time spent inside the recorder itself.
    overhead: Duration,
}

impl Tracer {
    pub fn new(run: &str) -> Self {
        Tracer {
            epoch: Instant::now(),
            run: run.to_string(),
            spans: Vec::with_capacity(4096),
            open: Vec::new(),
            overhead: Duration::ZERO,
        }
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &str) -> usize {
        let t0 = Instant::now();
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start: t0 - self.epoch,
            end: t0 - self.epoch,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        self.overhead += t0.elapsed();
        id
    }

    /// Close span `id` (the innermost open one) and return its duration in
    /// seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let t0 = Instant::now();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end = t0 - self.epoch;
        let secs = (span.end - span.start).as_secs_f64();
        self.overhead += t0.elapsed();
        secs
    }

    /// Run `f` inside a span named `name`; returns its result and seconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = f(self);
        let secs = self.exit(id);
        (out, secs)
    }

    pub fn overhead_s(&self) -> f64 {
        self.overhead.as_secs_f64()
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Self time summed per layer (the span name up to its last `.`): a
    /// span's duration minus the part of it its child spans cover.
    pub fn self_time_by_layer(&self) -> BTreeMap<String, f64> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&child) {
            let layer = s.name.rsplit_once('.').map_or(s.name.as_str(), |(l, _)| l);
            let own = (s.end - s.start).saturating_sub(*c);
            *out.entry(layer.to_string()).or_insert(0.0) += own.as_secs_f64();
        }
        out
    }

    /// Chrome trace-event JSON (complete `X` events, microseconds), the
    /// format Perfetto and `chrome://tracing` load.
    pub fn to_chrome_json(&self, pid: u32) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let cat = s.name.split('.').next().unwrap_or("");
            write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":1,\"args\":{{\"id\":{i},\"parent\":{},\"run\":\"{}\"}}}}",
                s.name,
                cat,
                s.start.as_secs_f64() * 1e6,
                (s.end - s.start).as_secs_f64() * 1e6,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                self.run,
            )
            .expect("writing to a String");
        }
        out.push_str("\n]");
        out
    }
}
