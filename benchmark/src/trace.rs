//! Spans around the benchmark's calls into each layer.
//!
//! The tracer lives in the benchmark only: a span is opened around a
//! façade call or a layer probe, from outside, and closed when the
//! call returns. Spans stay in memory and are written as one JSON file
//! when the workload ends. A disabled tracer (every untraced run) runs
//! the closure and records nothing.

use std::path::Path;
use std::time::Instant;

use mr_json::Json;

/// The layer a span's time is charged to.
pub const LAYERS: &[&str] = &[
    "harness",
    "core",
    "mr-storage",
    "mr-ir",
    "mr-analysis",
    "mr-engine",
];

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Position in the span list; ids are dense from 0.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// What was called.
    pub name: String,
    /// One of [`LAYERS`].
    pub layer: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Counts read when the span closed.
    pub counts: Vec<(&'static str, u64)>,
}

/// An in-memory span recorder for one workload.
pub struct Tracer {
    workload: String,
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for `workload`; a disabled one records nothing.
    pub fn new(workload: &str, enabled: bool) -> Tracer {
        Tracer {
            workload: workload.to_string(),
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turn recording on or off (the traced run times some repetitions
    /// with it off, to price the tracing itself).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span by hand (the workload's root span, which cannot be
    /// a closure around the whole run). `None` when recording is off.
    pub fn enter(&mut self, name: &str, layer: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name: name.to_string(),
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            counts: Vec::new(),
        });
        self.open.push(id);
        Some(id)
    }

    /// Close a span opened by [`enter`](Self::enter), whether or not
    /// recording is still on.
    pub fn exit(&mut self, id: Option<usize>, counts: Vec<(&'static str, u64)>) {
        let Some(id) = id else { return };
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].counts = counts;
    }

    /// Run `f` inside a span. `f` gets the tracer back (for child
    /// spans) and returns its value plus the counts to attach.
    pub fn span_with<T>(
        &mut self,
        name: &str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> (T, Vec<(&'static str, u64)>),
    ) -> T {
        let id = self.enter(name, layer);
        let (value, counts) = f(self);
        self.exit(id, counts);
        value
    }

    /// Run `f` inside a span that attaches no counts.
    pub fn span<T>(
        &mut self,
        name: &str,
        layer: &'static str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        self.span_with(name, layer, |t| (f(t), Vec::new()))
    }

    /// Add a finished span measured elsewhere (a client thread), as a
    /// child of the span open right now.
    pub fn record(&mut self, name: &str, layer: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id: self.spans.len(),
            parent: self.open.last().copied(),
            name: name.to_string(),
            layer,
            start_ns: ns(start),
            end_ns: ns(end),
            counts: Vec::new(),
        });
    }

    /// Self time per layer in seconds: each span's duration minus the
    /// durations of its direct children, summed by the span's layer.
    pub fn self_seconds(&self) -> Vec<(&'static str, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        LAYERS
            .iter()
            .map(|&layer| {
                let ns: u64 = self
                    .spans
                    .iter()
                    .filter(|s| s.layer == layer)
                    .map(|s| (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id]))
                    .sum();
                (layer, ns as f64 / 1e9)
            })
            .collect()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Write every span to `path` as one JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Int(s.id as i64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Int(p as i64)),
                    ),
                    ("name", Json::str(s.name.clone())),
                    ("layer", Json::str(s.layer)),
                    ("workload", Json::str(self.workload.clone())),
                    ("start_ns", Json::Int(s.start_ns as i64)),
                    ("end_ns", Json::Int(s.end_ns as i64)),
                    (
                        "counts",
                        Json::obj(s.counts.iter().map(|(k, v)| (*k, Json::Int(*v as i64)))),
                    ),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("workload", Json::str(self.workload.clone())),
            ("spans", Json::Arr(spans)),
        ]);
        std::fs::write(path, doc.to_string_pretty() + "\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new("w", true);
        t.span("outer", "harness", |t| {
            t.span("inner", "core", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        assert_eq!(t.len(), 2);
        let selfs: std::collections::BTreeMap<_, _> = t.self_seconds().into_iter().collect();
        assert!(selfs["core"] >= 0.005);
        assert!(
            selfs["harness"] < selfs["core"],
            "outer span only wraps the inner one"
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new("w", false);
        assert_eq!(t.span("x", "core", |_| 7), 7);
        assert!(t.is_empty());
    }
}
