//! Span recorder for traced runs. Spans are kept in memory and written as
//! JSON lines when the run ends; a disabled tracer records nothing.
//!
//! Every span has a unique `span` id, a `trace` id shared by all spans of
//! one request (or one harness operation), a `parent` span and start/end
//! offsets in nanoseconds from the tracer's epoch.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub span: u64,
    pub trace: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A span that has started; close it with [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub span: u64,
    pub trace: u64,
    parent: u64,
    name: &'static str,
    start: Instant,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh id (0 when disabled; 0 also means "no parent").
    pub fn id(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Starts a span under `parent`, in the parent's trace (or a new one).
    pub fn begin(&self, name: &'static str, parent: Option<&Open>) -> Open {
        let span = self.id();
        Open {
            span,
            trace: parent.map_or(span, |p| p.trace),
            parent: parent.map_or(0, |p| p.span),
            name,
            start: Instant::now(),
        }
    }

    pub fn end(&self, open: Open) {
        self.record_with(
            open.span,
            open.trace,
            open.parent,
            open.name,
            open.start,
            Instant::now(),
        );
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<&Open>,
        f: impl FnOnce(&Open) -> R,
    ) -> R {
        let open = self.begin(name, parent);
        let out = f(&open);
        self.end(open);
        out
    }

    /// Records a finished span with explicit ids and bounds.
    pub fn record_with(
        &self,
        span: u64,
        trace: u64,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let offset = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let span = Span {
            span,
            trace,
            parent,
            name,
            start_ns: offset(start),
            end_ns: offset(end),
        };
        self.spans.lock().expect("span buffer").push(span);
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.lock().expect("span buffer").iter() {
            writeln!(
                out,
                "{{\"span\": {}, \"trace\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.span, s.trace, s.parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
