//! In-memory spans recorded by the benchmark around each call it makes
//! into a layer's public entry point. Nothing here reaches inside the
//! program: a span covers exactly one call, and the layers' internal
//! breakdown comes from the metrics registry those calls already return.
//!
//! A disabled tracer runs the same calls without recording anything, so a
//! traced pass and an untraced pass execute identical code apart from the
//! span bookkeeping; their difference is the tracing overhead.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span: name, start and end (seconds since the tracer's
/// origin), the span that caused it, and the request it belongs to.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub request: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), request: 0 }
    }

    /// Tags the spans recorded from now on with request `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    /// Runs `f` inside a span called `name` (a child of the innermost open
    /// span). `f` receives the tracer so it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.stack.last().copied(),
            request: self.request,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Records a span measured elsewhere (e.g. a server-side interval
    /// reported in a response) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: f64, end: f64) {
        if self.enabled {
            let parent = self.stack.last().copied();
            self.spans.push(Span { name, start, end, parent, request: self.request });
        }
    }

    /// Seconds since the tracer's origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Each recorded span name's total self time (duration minus the time
    /// its direct children cover), summed over every span of that name.
    /// The self times of all spans add up to the duration of the roots.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_insert(0.0) += (s.end - s.start) - child_time[i];
        }
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}
