//! Spans recorded from the benchmark's own calls into each layer.
//!
//! A span has a name, a start, an end and the span that was open when it
//! began. Spans stay in memory and are written out once, when the run ends.
//! With tracing off, [`Tracer::open`] and [`Tracer::close`] record nothing.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Handle of an open span; `None` while tracing is off.
#[must_use]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch recording on or off between rounds (never with a span open).
    pub fn set_enabled(&mut self, on: bool) {
        assert!(self.stack.is_empty(), "toggled tracing inside a span");
        self.enabled = on;
    }

    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.stack.last().copied(),
        });
        self.stack.push(self.spans.len() - 1);
        SpanId(Some(self.spans.len() - 1))
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id.0 {
            assert_eq!(self.stack.pop(), Some(i), "spans must close in order");
            self.spans[i].end = self.origin.elapsed();
        }
    }

    /// Record a span timed elsewhere (on another thread), under the span
    /// open now.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.origin),
            end: end.saturating_duration_since(self.origin),
            parent: self.stack.last().copied(),
        });
    }

    /// Durations (seconds) of every span named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Write every span as one JSON line (times in microseconds).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent}}}",
                s.name,
                s.start.as_micros(),
                s.end.as_micros()
            )?;
        }
        out.flush()
    }
}
