//! The span recorder of the traced run: spans around calls into each
//! crate, kept in memory and written out when the run ends, plus the
//! self-time rollup per layer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the run's common origin.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Request or batch id the span belongs to.
    pub id: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// One thread's spans. Spans nest by call order: a span opened while
/// another is open becomes its child.
#[derive(Debug)]
pub struct Tracer {
    pub thread: &'static str,
    origin: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(thread: &'static str, origin: Instant) -> Tracer {
        Tracer {
            thread,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, id: u64) -> usize {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.now(),
            end: 0,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(idx);
        idx
    }

    pub fn exit(&mut self, idx: usize) {
        let end = self.now();
        debug_assert_eq!(self.open.last(), Some(&idx), "spans close in order");
        self.open.pop();
        self.spans[idx].end = end;
    }

    /// Time `f` as a span, when `on` (an untraced run records nothing).
    pub fn span<T>(&mut self, on: bool, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        if !on {
            return f();
        }
        let idx = self.enter(name, id);
        let out = f();
        self.exit(idx);
        out
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }
}

/// The layer a span belongs to: its name up to the first dot.
fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Per-layer self-time table over every recorder, as report lines.
pub fn rollup(tracers: &[&Tracer], window_s: f64) -> Vec<String> {
    let mut by_layer: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for t in tracers {
        for (s, own) in t.spans.iter().zip(t.self_ns()) {
            for (key, map) in [(layer(s.name), &mut by_layer), (s.name, &mut by_name)] {
                let e = map.entry(key).or_default();
                e.0 += 1;
                e.1 += s.ns();
                e.2 += own;
            }
        }
    }
    let mut out = vec![format!(
        "{:<34} {:>9} {:>12} {:>12} {:>8}",
        "layer / span", "spans", "total ms", "self ms", "self %"
    )];
    let pct = |ns: u64| 100.0 * ns as f64 / 1e9 / window_s;
    for (layer_name, (n, total, own)) in &by_layer {
        out.push(format!(
            "{:<34} {:>9} {:>12.3} {:>12.3} {:>7.2}%",
            layer_name,
            n,
            *total as f64 / 1e6,
            *own as f64 / 1e6,
            pct(*own)
        ));
        for (name, (n, total, own)) in by_name.iter().filter(|(k, _)| layer(k) == *layer_name) {
            out.push(format!(
                "  {:<32} {:>9} {:>12.3} {:>12.3} {:>7.2}%",
                name,
                n,
                *total as f64 / 1e6,
                *own as f64 / 1e6,
                pct(*own)
            ));
        }
    }
    out
}

/// Write every span as one tab-separated line:
/// `thread name id parent start_ns end_ns self_ns`.
pub fn write_spans(path: &Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    let mut text = String::from("thread\tname\tid\tparent\tstart_ns\tend_ns\tself_ns\n");
    for t in tracers {
        for (s, own) in t.spans.iter().zip(t.self_ns()) {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                text,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                t.thread, s.name, s.id, parent, s.start, s.end, own
            )
            .expect("writing to a String");
        }
    }
    std::fs::write(path, text)
}
