//! The harness-side span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions — no library code is instrumented.
//! A span is `{name, start_ns, end_ns, parent, request_id}`; spans of one
//! request share the identifier. They are kept in a pre-sized in-memory
//! vector and written out when the run ends. A layer's **self time** is
//! its span's duration minus the part its child spans cover; the per-name
//! totals are accumulated as spans close, so the per-layer table does not
//! depend on how many raw spans were retained.

use crate::json::Value;
use std::time::Instant;

/// "No parent" / "no stored slot" marker.
const NONE: u32 = u32::MAX;

/// One closed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into [`Tracer::names`].
    pub name: u16,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span in the stored vector, `u32::MAX` at
    /// the root (or when the parent was not retained).
    pub parent: u32,
    /// Identifier shared by every span of one request / round / probe.
    pub request_id: u64,
}

/// Per-name totals, accumulated as spans close.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotals {
    /// Spans closed under this name.
    pub count: u64,
    /// Sum of span durations.
    pub total_ns: u64,
    /// Sum of durations minus child-covered time.
    pub self_ns: u64,
}

#[derive(Debug)]
struct OpenSpan {
    name: u16,
    start_ns: u64,
    child_ns: u64,
    /// Slot reserved in `spans` (children point at it), or `NONE`.
    slot: u32,
}

/// The span recorder. A disabled tracer (`--trace 0`) makes every call a
/// single branch, so the same workload code serves both runs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    names: Vec<&'static str>,
    totals: Vec<LayerTotals>,
    spans: Vec<Span>,
    capacity: usize,
    open: Vec<OpenSpan>,
    dropped: u64,
}

impl Tracer {
    /// A recorder that retains up to `capacity` raw spans (allocated up
    /// front); totals keep accumulating past that.
    pub fn new(capacity: usize) -> Self {
        Self {
            enabled: true,
            epoch: Instant::now(),
            names: Vec::new(),
            totals: Vec::new(),
            spans: Vec::with_capacity(capacity),
            capacity,
            open: Vec::with_capacity(16),
            dropped: 0,
        }
    }

    /// A recorder that records nothing.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new(0)
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Interned span names, indexed by [`Span::name`].
    pub fn names(&self) -> &[&'static str] {
        &self.names
    }

    /// Retained raw spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans closed but not retained because the vector was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn intern(&mut self, name: &'static str) -> u16 {
        // A few dozen names at most: a linear scan beats hashing.
        if let Some(i) = self.names.iter().position(|&n| n == name) {
            return i as u16;
        }
        self.names.push(name);
        self.totals.push(LayerTotals::default());
        (self.names.len() - 1) as u16
    }

    fn since_epoch(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span that encloses everything recorded until the matching
    /// [`exit`](Tracer::exit).
    pub fn enter(&mut self, name: &'static str, request_id: u64) {
        if !self.enabled {
            return;
        }
        let name = self.intern(name);
        let start_ns = self.since_epoch(Instant::now());
        // Reserve the slot now so children can name their parent.
        let slot = if self.spans.len() < self.capacity {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().map_or(NONE, |p| p.slot),
                request_id,
            });
            (self.spans.len() - 1) as u32
        } else {
            NONE
        };
        self.open.push(OpenSpan {
            name,
            start_ns,
            child_ns: 0,
            slot,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.since_epoch(Instant::now());
        let Some(span) = self.open.pop() else { return };
        if span.slot == NONE {
            self.dropped += 1;
        } else {
            self.spans[span.slot as usize].end_ns = end_ns;
        }
        self.close(
            span.name,
            end_ns.saturating_sub(span.start_ns),
            span.child_ns,
        );
    }

    /// Runs `f` inside a span; `f` gets the tracer back for nested spans.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request_id: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        self.enter(name, request_id);
        let r = f(self);
        self.exit();
        r
    }

    /// Records a leaf span from timestamps the caller already took (the
    /// per-op latency clock reads double as span boundaries).
    pub fn record(&mut self, name: &'static str, request_id: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let name = self.intern(name);
        let (start_ns, end_ns) = (self.since_epoch(start), self.since_epoch(end));
        if self.spans.len() < self.capacity {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent: self.open.last().map_or(NONE, |p| p.slot),
                request_id,
            });
        } else {
            self.dropped += 1;
        }
        self.close(name, end_ns.saturating_sub(start_ns), 0);
    }

    fn close(&mut self, name: u16, dur_ns: u64, child_ns: u64) {
        let t = &mut self.totals[name as usize];
        t.count += 1;
        t.total_ns += dur_ns;
        t.self_ns += dur_ns.saturating_sub(child_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur_ns;
        }
    }

    /// Totals of every span closed under `name` (zeros if none was).
    pub fn totals(&self, name: &str) -> LayerTotals {
        self.names
            .iter()
            .position(|&n| n == name)
            .map_or_else(LayerTotals::default, |i| self.totals[i])
    }

    /// Mean duration of the spans named `name`, in nanoseconds.
    pub fn mean_ns(&self, name: &str) -> f64 {
        let t = self.totals(name);
        if t.count == 0 {
            0.0
        } else {
            t.total_ns as f64 / t.count as f64
        }
    }

    /// The trace document: the per-layer table plus the retained spans,
    /// each `[name_index, start_ns, end_ns, parent, request_id]`.
    pub fn to_json(&self, workload: &str) -> Value {
        let layers = self
            .names
            .iter()
            .zip(&self.totals)
            .map(|(name, t)| {
                Value::obj([
                    ("name", Value::str(*name)),
                    ("count", Value::int(t.count)),
                    ("total_ns", Value::int(t.total_ns)),
                    ("self_ns", Value::int(t.self_ns)),
                ])
            })
            .collect();
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Value::Arr(vec![
                    Value::int(s.name as u64),
                    Value::int(s.start_ns),
                    Value::int(s.end_ns),
                    if s.parent == NONE {
                        Value::Null
                    } else {
                        Value::int(s.parent as u64)
                    },
                    Value::int(s.request_id),
                ])
            })
            .collect();
        Value::obj([
            ("schema", Value::str("islabel-benchmark-trace/v1")),
            ("workload", Value::str(workload)),
            (
                "span_fields",
                Value::Arr(
                    ["name", "start_ns", "end_ns", "parent", "request_id"]
                        .map(Value::str)
                        .to_vec(),
                ),
            ),
            (
                "names",
                Value::Arr(self.names.iter().map(|n| Value::str(*n)).collect()),
            ),
            ("dropped_spans", Value::int(self.dropped)),
            ("layers", Value::Arr(layers)),
            ("spans", Value::Arr(spans)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tr = Tracer::new(16);
        let t0 = Instant::now();
        tr.enter("request", 7);
        tr.record(
            "child",
            7,
            t0 + Duration::from_nanos(100),
            t0 + Duration::from_nanos(400),
        );
        tr.record(
            "child",
            7,
            t0 + Duration::from_nanos(500),
            t0 + Duration::from_nanos(600),
        );
        tr.exit();
        let child = tr.totals("child");
        assert_eq!((child.count, child.total_ns, child.self_ns), (2, 400, 400));
        let parent = tr.totals("request");
        assert_eq!(parent.count, 1);
        assert_eq!(parent.self_ns, parent.total_ns.saturating_sub(400));
        // Children point at the parent's slot and share its request id.
        assert_eq!(tr.spans().len(), 3);
        assert_eq!(tr.spans()[0].parent, NONE);
        assert!(tr.spans()[1..]
            .iter()
            .all(|s| s.parent == 0 && s.request_id == 7));
        assert_eq!(tr.mean_ns("child"), 200.0);
        assert_eq!(tr.totals("absent"), LayerTotals::default());
    }

    #[test]
    fn totals_outlive_the_span_capacity() {
        let mut tr = Tracer::new(2);
        let t0 = Instant::now();
        for i in 0..5 {
            tr.record("op", i, t0, t0 + Duration::from_nanos(10));
        }
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.dropped(), 3);
        assert_eq!(tr.totals("op").count, 5);
        assert_eq!(tr.totals("op").total_ns, 50);
        let doc = tr.to_json("w");
        assert_eq!(doc.get("dropped_spans").unwrap().as_f64(), Some(3.0));
        assert_eq!(doc.get("spans").unwrap().as_array().unwrap().len(), 2);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::disabled();
        let got = tr.span("outer", 1, |tr| {
            tr.record("inner", 1, Instant::now(), Instant::now());
            5
        });
        assert_eq!(got, 5);
        assert!(!tr.enabled());
        assert!(tr.spans().is_empty() && tr.names().is_empty());
        assert_eq!(tr.totals("outer"), LayerTotals::default());
    }
}
