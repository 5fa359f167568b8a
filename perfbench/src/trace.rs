//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions, written out when the run ends.
//!
//! A span has a name, start, end, parent span and request id.

use robusthd_serve::json::Json;
use std::io;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same [`Tracer`].
    pub parent: Option<usize>,
    /// The request (or, for batch-level spans, the batch's first request)
    /// the span served.
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span log. A disabled tracer records nothing, so the same
/// code path measures tracing overhead.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a span that was timed by the caller; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: Option<u64>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(name, start, end, parent, request);
        out
    }

    /// Opens a parent span whose end is filled in by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, request: Option<u64>) -> Option<usize> {
        let now = self.now_ns();
        self.record(name, now, now, None, request)
    }

    pub fn close(&mut self, index: Option<usize>) {
        let now = self.now_ns();
        if let Some(span) = index.and_then(|i| self.spans.get_mut(i)) {
            span.end_ns = now;
        }
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }
}

/// Writes the spans of every tracer, one JSON object per line, prefixed by
/// the tracer's name.
pub fn write_spans(path: &Path, tracers: &[(&str, &Tracer)]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = String::new();
    for (thread, tracer) in tracers {
        for (index, span) in tracer.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or(Json::Null, |v| Json::Number(v as f64));
            Json::Object(vec![
                ("thread".into(), Json::String((*thread).to_owned())),
                ("index".into(), Json::Number(index as f64)),
                ("name".into(), Json::String(span.name.to_owned())),
                ("start_ns".into(), Json::Number(span.start_ns as f64)),
                ("end_ns".into(), Json::Number(span.end_ns as f64)),
                ("parent".into(), opt(span.parent.map(|p| p as u64))),
                ("request".into(), opt(span.request)),
            ])
            .write(&mut out);
            out.push('\n');
        }
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(Instant::now(), false);
        assert_eq!(t.span("x", None, None, || 7), 7);
        assert!(t.open("y", None).is_none());
        assert!(t.spans.is_empty());
    }
}
