//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps every call it makes into a crate's public API in a
//! span: a name (`<layer>.<call>`), start and end, the span that caused
//! it, and the id of the solve or job it belongs to. Spans stay in memory
//! and are written out once, when the run ends. A disabled recorder costs
//! one branch per call, so the untraced runs carry no tracing work.

use std::io::Write;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// Solve or job id the span belongs to.
    pub op: u64,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work done inside the span (steps, epochs, …) when the caller
    /// knows it; 0 otherwise.
    pub work: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// A cloneable handle; clones share one span list.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

struct Inner {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            inner: enabled.then(|| {
                Arc::new(Inner {
                    epoch: Instant::now(),
                    spans: Mutex::new(Vec::new()),
                })
            }),
        }
    }

    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a span; returns `None` when tracing is off.
    pub fn begin(&self, name: &'static str, parent: Option<SpanId>, op: u64) -> Option<SpanId> {
        let inner = self.inner.as_ref()?;
        let start_ns = inner.epoch.elapsed().as_nanos() as u64;
        let mut spans = inner.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name,
            parent,
            op,
            start_ns,
            end_ns: start_ns,
            work: 0,
        });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`], recording `work`.
    pub fn end(&self, id: Option<SpanId>, work: u64) {
        let (Some(inner), Some(id)) = (self.inner.as_ref(), id) else {
            return;
        };
        let end_ns = inner.epoch.elapsed().as_nanos() as u64;
        let mut spans = inner.spans.lock().expect("span list poisoned");
        spans[id].end_ns = end_ns;
        spans[id].work = work;
    }

    /// Runs `f` inside a span named `name`; the closure gets the span id
    /// to parent its own calls on and returns its result and work count.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        f: impl FnOnce(Option<SpanId>) -> (T, u64),
    ) -> T {
        let id = self.begin(name, parent, op);
        let (out, work) = f(id);
        self.end(id, work);
        out
    }

    /// Every closed span named `name`.
    pub fn spans(&self, name: &str) -> Vec<Span> {
        match &self.inner {
            Some(inner) => inner
                .spans
                .lock()
                .expect("span list poisoned")
                .iter()
                .filter(|s| s.name == name)
                .cloned()
                .collect(),
            None => Vec::new(),
        }
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans(name).iter().map(Span::ms).collect()
    }

    /// Writes every span as one NDJSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let spans = inner.spans.lock().expect("span list poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"op\":{},\"start_ns\":{},\"end_ns\":{},\"work\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, s.work
            )?;
        }
        out.flush()
    }
}
