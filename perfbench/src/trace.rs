//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! request it belongs to.  Spans are kept in memory and written as JSON
//! when the benchmark ends; a disabled tracer records nothing.  Spans named
//! `bench.*` are the benchmark's own (phases, requests, checks); every
//! other span is a call into one layer of the library.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

struct Inner {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

#[derive(Clone)]
pub struct Tracer(Option<Arc<Inner>>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer(enabled.then(|| {
            Arc::new(Inner {
                origin: Instant::now(),
                spans: Mutex::new(Vec::new()),
            })
        }))
    }

    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records a span whose start and end are already known.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        let inner = self.0.as_ref()?;
        let at = |t: Instant| t.saturating_duration_since(inner.origin).as_nanos() as u64;
        let mut spans = inner.spans.lock().expect("span list not poisoned");
        spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent,
            request,
        });
        Some(spans.len() - 1)
    }

    /// Opens a span now; [`Tracer::close`] ends it.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, request: u64) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, parent, request, now, now)
    }

    pub fn close(&self, id: Option<SpanId>) {
        let (Some(inner), Some(id)) = (self.0.as_ref(), id) else {
            return;
        };
        let end = inner.origin.elapsed().as_nanos() as u64;
        inner.spans.lock().expect("span list not poisoned")[id].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f(id);
        self.close(id);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.0.as_ref().map_or_else(Vec::new, |inner| {
            inner.spans.lock().expect("span list not poisoned").clone()
        })
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"spans\": [")?;
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}{comma}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Per span name: how many spans, their total duration and their total
/// self time (duration minus the part covered by child spans), in ns.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            covered[p] += end.saturating_sub(start);
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(covered) {
        let duration = s.end_ns.saturating_sub(s.start_ns);
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += duration;
        entry.self_ns += duration.saturating_sub(covered);
    }
    out
}

/// The share of request time spent inside layer spans: the sum of the
/// self times of the non-`bench.*` spans under `bench.request` spans,
/// divided by the requests' end-to-end time.
pub fn coverage(spans: &[Span]) -> f64 {
    let under_request = |mut i: SpanId| loop {
        match spans[i].parent {
            Some(p) if spans[p].name == "bench.request" => return true,
            Some(p) => i = p,
            None => return false,
        }
    };
    let filtered: Vec<Span> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut s = s.clone();
            if s.name != "bench.request" && !under_request(i) {
                s.name = "bench.other";
            }
            s
        })
        .collect();
    let t = totals(&filtered);
    let requests = t.get("bench.request").map_or(0, |t| t.total_ns);
    let layers: u64 = t
        .iter()
        .filter(|(name, _)| !name.starts_with("bench."))
        .map(|(_, t)| t.self_ns)
        .sum();
    if requests == 0 {
        0.0
    } else {
        layers as f64 / requests as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("bench.request", 0, 100, None),
            span("engine.run", 10, 70, Some(0)),
            span("engine.hash", 70, 80, Some(0)),
        ];
        let t = totals(&spans);
        assert_eq!(t["bench.request"].self_ns, 30);
        assert_eq!(t["engine.run"].self_ns, 60);
        assert!((coverage(&spans) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let id = tracer.open("engine.run", None, 1);
        tracer.close(id);
        assert!(id.is_none() && tracer.spans().is_empty());
        let tracer = Tracer::new(true);
        tracer.span("bench.request", None, 1, |parent| {
            tracer.span("engine.run", parent, 1, |_| ())
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
