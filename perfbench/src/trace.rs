//! Spans recorded by the benchmark around its calls into each layer:
//! name, start, end, parent and operation id, kept in memory and written
//! out when the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

struct Span {
    name: &'static str,
    op: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder. When off, `begin`/`end` record nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer { on, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Switch recording on or off between operations (the traced run
    /// alternates, to measure its own overhead).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "switching inside a span");
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, op, parent: self.open.last().copied(), start_ns, end_ns: 0 });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close a span (and any left open inside it); returns its duration
    /// in seconds (0 when tracing is off).
    pub fn end(&mut self, id: SpanId) -> f64 {
        let Some(id) = id.0 else { return 0.0 };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Per span name: count, total seconds and self seconds (duration
    /// minus the part covered by child spans).
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 / 1e9;
            e.2 += dur.saturating_sub(*child) as f64 / 1e9;
        }
        out
    }

    /// Total seconds of the named spans.
    pub fn total_s(&self, name: &str) -> f64 {
        self.summary().get(name).map_or(0.0, |e| e.1)
    }

    pub fn summary_json(&self) -> Json {
        let mut o = Json::obj();
        for (name, (n, total, own)) in self.summary() {
            o.set(name, Json::obj().with("count", n).with("total_s", total).with("self_s", own));
        }
        o
    }

    /// Write every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let line = Json::obj()
                .with("id", i)
                .with("name", s.name)
                .with("op", s.op)
                .with("parent", s.parent)
                .with("start_us", s.start_ns as f64 / 1e3)
                .with("end_us", s.end_ns as f64 / 1e3);
            writeln!(f, "{}", line.render())?;
        }
        f.flush()
    }
}
