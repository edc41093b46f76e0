//! The metric [`Registry`]: named families of labeled series, each
//! backed either by an owned handle (an `Arc`'d atomic the hot path
//! bumps directly) or by a collector closure sampled at exposition time,
//! plus the Prometheus-text encoder.
//!
//! Registration is get-or-create: asking twice for the same
//! `(name, labels)` returns the same handle, so independent subsystems
//! (or repeated server restarts in one process) converge on one series.
//! Collector closures instead *replace* on the same `(name, labels)` —
//! a restarted server's closures capture the live state, and the stale
//! ones from the retired instance are dropped.

use crate::hist::{AtomicLatencyHistogram, LatencyHistogram, LATENCY_BUCKETS};
use crate::metric::{Counter, Gauge};
use std::sync::{Arc, Mutex, OnceLock};

/// What a family measures; fixed at first registration. Registering the
/// same name again with a different kind is a programmer error and
/// panics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetricKind {
    /// Monotonically increasing count.
    Counter,
    /// Last-value-wins signed level.
    Gauge,
    /// Power-of-two latency distribution ([`LatencyHistogram`]).
    Histogram,
}

impl MetricKind {
    fn exposition_name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

enum Source {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<AtomicLatencyHistogram>),
    CounterFn(Box<dyn Fn() -> u64 + Send + Sync>),
    GaugeFn(Box<dyn Fn() -> i64 + Send + Sync>),
    HistogramFn(Box<dyn Fn() -> LatencyHistogram + Send + Sync>),
}

struct Series {
    labels: Vec<(String, String)>,
    source: Source,
}

struct Family {
    name: &'static str,
    help: &'static str,
    kind: MetricKind,
    series: Vec<Series>,
}

/// A set of metric families. Most code uses the process-wide
/// [`Registry::global`]; tests build private registries with
/// [`Registry::new`].
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        f.debug_struct("Registry")
            .field("families", &families.len())
            .finish()
    }
}

fn owned_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self {
            families: Mutex::new(Vec::new()),
        }
    }

    /// The process-wide registry every layer registers into; this is
    /// what the wire `Metrics` opcode and the CLI `metrics` command
    /// render.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    fn family<'a>(
        families: &'a mut Vec<Family>,
        name: &'static str,
        help: &'static str,
        kind: MetricKind,
    ) -> &'a mut Family {
        if let Some(i) = families.iter().position(|f| f.name == name) {
            assert_eq!(
                families[i].kind, kind,
                "metric {name} registered with two kinds"
            );
            return &mut families[i];
        }
        families.push(Family {
            name,
            help,
            kind,
            series: Vec::new(),
        });
        let last = families.len() - 1;
        &mut families[last]
    }

    /// Get-or-create an owned counter series.
    pub fn counter(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Counter> {
        let labels = owned_labels(labels);
        let mut families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let family = Self::family(&mut families, name, help, MetricKind::Counter);
        if let Some(s) = family.series.iter().find(|s| s.labels == labels) {
            if let Source::Counter(c) = &s.source {
                return Arc::clone(c);
            }
        }
        let handle = Arc::new(Counter::new());
        Self::upsert(family, labels, Source::Counter(Arc::clone(&handle)));
        handle
    }

    /// Get-or-create an owned gauge series.
    pub fn gauge(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<Gauge> {
        let labels = owned_labels(labels);
        let mut families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let family = Self::family(&mut families, name, help, MetricKind::Gauge);
        if let Some(s) = family.series.iter().find(|s| s.labels == labels) {
            if let Source::Gauge(g) = &s.source {
                return Arc::clone(g);
            }
        }
        let handle = Arc::new(Gauge::new());
        Self::upsert(family, labels, Source::Gauge(Arc::clone(&handle)));
        handle
    }

    /// Get-or-create an owned histogram series.
    pub fn histogram(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
    ) -> Arc<AtomicLatencyHistogram> {
        let labels = owned_labels(labels);
        let mut families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let family = Self::family(&mut families, name, help, MetricKind::Histogram);
        if let Some(s) = family.series.iter().find(|s| s.labels == labels) {
            if let Source::Histogram(h) = &s.source {
                return Arc::clone(h);
            }
        }
        let handle = Arc::new(AtomicLatencyHistogram::new());
        Self::upsert(family, labels, Source::Histogram(Arc::clone(&handle)));
        handle
    }

    /// Registers (or replaces) a counter collector sampled at exposition.
    pub fn counter_fn(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        let labels = owned_labels(labels);
        let mut families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let family = Self::family(&mut families, name, help, MetricKind::Counter);
        Self::upsert(family, labels, Source::CounterFn(Box::new(f)));
    }

    /// Registers (or replaces) a gauge collector sampled at exposition.
    pub fn gauge_fn(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        f: impl Fn() -> i64 + Send + Sync + 'static,
    ) {
        let labels = owned_labels(labels);
        let mut families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let family = Self::family(&mut families, name, help, MetricKind::Gauge);
        Self::upsert(family, labels, Source::GaugeFn(Box::new(f)));
    }

    /// Registers (or replaces) a histogram collector sampled at
    /// exposition.
    pub fn histogram_fn(
        &self,
        name: &'static str,
        help: &'static str,
        labels: &[(&str, &str)],
        f: impl Fn() -> LatencyHistogram + Send + Sync + 'static,
    ) {
        let labels = owned_labels(labels);
        let mut families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        let family = Self::family(&mut families, name, help, MetricKind::Histogram);
        Self::upsert(family, labels, Source::HistogramFn(Box::new(f)));
    }

    fn upsert(family: &mut Family, labels: Vec<(String, String)>, source: Source) {
        if let Some(s) = family.series.iter_mut().find(|s| s.labels == labels) {
            s.source = source;
        } else {
            family.series.push(Series { labels, source });
        }
    }

    /// Renders the whole registry as Prometheus text exposition
    /// (families sorted by name, series sorted by label signature, so
    /// output is deterministic and diffable).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    /// [`render`](Self::render) into an existing buffer.
    pub fn render_into(&self, out: &mut String) {
        let mut families = self.families.lock().unwrap_or_else(|e| e.into_inner());
        families.sort_by_key(|f| f.name);
        for family in families.iter_mut() {
            family.series.sort_by_key(|a| label_signature(&a.labels));
        }
        for family in families.iter() {
            out.push_str("# HELP ");
            out.push_str(family.name);
            out.push(' ');
            push_escaped_help(out, family.help);
            out.push('\n');
            out.push_str("# TYPE ");
            out.push_str(family.name);
            out.push(' ');
            out.push_str(family.kind.exposition_name());
            out.push('\n');
            for series in &family.series {
                render_series(out, family.name, series);
            }
        }
    }
}

fn label_signature(labels: &[(String, String)]) -> String {
    let mut sig = String::new();
    for (k, v) in labels {
        sig.push_str(k);
        sig.push('\u{1}');
        sig.push_str(v);
        sig.push('\u{2}');
    }
    sig
}

fn render_series(out: &mut String, name: &str, series: &Series) {
    match &series.source {
        Source::Counter(c) => render_scalar(out, name, &series.labels, &c.get().to_string()),
        Source::CounterFn(f) => render_scalar(out, name, &series.labels, &f().to_string()),
        Source::Gauge(g) => render_scalar(out, name, &series.labels, &g.get().to_string()),
        Source::GaugeFn(f) => render_scalar(out, name, &series.labels, &f().to_string()),
        Source::Histogram(h) => render_histogram(out, name, &series.labels, &h.snapshot()),
        Source::HistogramFn(f) => render_histogram(out, name, &series.labels, &f()),
    }
}

fn render_scalar(out: &mut String, name: &str, labels: &[(String, String)], value: &str) {
    out.push_str(name);
    push_labels(out, labels, None);
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

fn render_histogram(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    h: &LatencyHistogram,
) {
    // Cumulative `le` buckets in seconds: bucket i's upper edge is
    // 2^{i+1} ns; the top bucket is open-ended and becomes `+Inf`.
    let mut cumulative = 0u64;
    for (i, &c) in h.buckets().iter().enumerate() {
        cumulative += c;
        if i == LATENCY_BUCKETS - 1 {
            break;
        }
        let le_seconds = (1u64 << (i + 1)) as f64 / 1e9;
        out.push_str(name);
        out.push_str("_bucket");
        push_labels(out, labels, Some(&le_seconds.to_string()));
        out.push(' ');
        out.push_str(&cumulative.to_string());
        out.push('\n');
    }
    let total = h.count();
    out.push_str(name);
    out.push_str("_bucket");
    push_labels(out, labels, Some("+Inf"));
    out.push(' ');
    out.push_str(&total.to_string());
    out.push('\n');
    out.push_str(name);
    out.push_str("_sum");
    push_labels(out, labels, None);
    out.push(' ');
    out.push_str(&(h.sum_nanos() as f64 / 1e9).to_string());
    out.push('\n');
    out.push_str(name);
    out.push_str("_count");
    push_labels(out, labels, None);
    out.push(' ');
    out.push_str(&total.to_string());
    out.push('\n');
}

fn push_labels(out: &mut String, labels: &[(String, String)], le: Option<&str>) {
    if labels.is_empty() && le.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(k);
        out.push_str("=\"");
        push_escaped_value(out, v);
        out.push('"');
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        out.push_str("le=\"");
        out.push_str(le);
        out.push('"');
    }
    out.push('}');
}

/// Escapes a label value per the Prometheus text format: backslash,
/// double quote, and newline.
fn push_escaped_value(out: &mut String, v: &str) {
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

/// Escapes HELP text: backslash and newline (quotes are legal there).
fn push_escaped_help(out: &mut String, v: &str) {
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn get_or_create_returns_the_same_handle() {
        let r = Registry::new();
        let a = r.counter("islabel_test_total", "help", &[("shard", "0")]);
        let b = r.counter("islabel_test_total", "help", &[("shard", "0")]);
        let other = r.counter("islabel_test_total", "help", &[("shard", "1")]);
        a.add(3);
        b.add(4);
        other.inc();
        assert_eq!(a.get(), 7);
        assert_eq!(other.get(), 1);
    }

    #[test]
    #[should_panic(expected = "two kinds")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("islabel_kind_test", "help", &[]);
        let _ = r.gauge("islabel_kind_test", "help", &[]);
    }

    #[test]
    fn collector_replaces_on_same_labels() {
        let r = Registry::new();
        r.counter_fn("islabel_fn_total", "help", &[], || 1);
        r.counter_fn("islabel_fn_total", "help", &[], || 42);
        let text = r.render();
        assert!(text.contains("islabel_fn_total 42"), "{text}");
        assert!(!text.contains("islabel_fn_total 1\n"), "{text}");
    }

    #[test]
    fn exposition_golden_scalar_and_escaping() {
        let r = Registry::new();
        let c = r.counter(
            "islabel_golden_total",
            "Queries with \"odd\\chars\"\nand a newline.",
            &[("path", "a\\b\"c\nd"), ("shard", "0")],
        );
        c.add(7);
        r.gauge("islabel_golden_gauge", "A level.", &[]).set(-3);
        let text = r.render();
        let expect = concat!(
            "# HELP islabel_golden_gauge A level.\n",
            "# TYPE islabel_golden_gauge gauge\n",
            "islabel_golden_gauge -3\n",
            "# HELP islabel_golden_total Queries with \"odd\\\\chars\"\\nand a newline.\n",
            "# TYPE islabel_golden_total counter\n",
            "islabel_golden_total{path=\"a\\\\b\\\"c\\nd\",shard=\"0\"} 7\n",
        );
        assert_eq!(text, expect);
    }

    #[test]
    fn exposition_golden_histogram_le_buckets() {
        let r = Registry::new();
        let h = r.histogram("islabel_golden_seconds", "Latency.", &[("shard", "1")]);
        h.record(Duration::from_nanos(1)); // bucket 0 (le 2e-9)
        h.record(Duration::from_nanos(3)); // bucket 1 (le 4e-9)
        h.record(Duration::from_secs(3600)); // top bucket -> +Inf only
        let text = r.render();
        assert!(
            text.contains("islabel_golden_seconds_bucket{shard=\"1\",le=\"0.000000002\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("islabel_golden_seconds_bucket{shard=\"1\",le=\"0.000000004\"} 2\n"),
            "{text}"
        );
        assert!(
            text.contains("islabel_golden_seconds_bucket{shard=\"1\",le=\"+Inf\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("islabel_golden_seconds_sum{shard=\"1\"} 3600.000000004\n"),
            "{text}"
        );
        assert!(
            text.contains("islabel_golden_seconds_count{shard=\"1\"} 3\n"),
            "{text}"
        );
        // `le` is strictly increasing and every non-`+Inf` bucket edge is
        // a power of two in nanoseconds.
        let edges: Vec<&str> = text
            .lines()
            .filter(|l| l.contains("_bucket{") && !l.contains("+Inf"))
            .collect();
        assert_eq!(edges.len(), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn label_order_is_deterministic_across_registration_order() {
        let r = Registry::new();
        r.counter("islabel_order_total", "h", &[("shard", "1")])
            .inc();
        r.counter("islabel_order_total", "h", &[("shard", "0")])
            .inc();
        let text = r.render();
        let s0 = text.find("shard=\"0\"").unwrap();
        let s1 = text.find("shard=\"1\"").unwrap();
        assert!(s0 < s1, "series are sorted by label signature: {text}");
    }

    #[test]
    fn concurrent_increments_match_serial_ground_truth() {
        let r = Registry::new();
        let threads = 8;
        let per_thread = 10_000u64;
        let c = r.counter("islabel_stress_total", "h", &[]);
        let h = r.histogram("islabel_stress_seconds", "h", &[]);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        c.inc();
                        h.record(Duration::from_nanos(i % 1024));
                    }
                });
            }
        });
        assert_eq!(c.get(), threads * per_thread);
        let snap = h.snapshot();
        assert_eq!(snap.count(), threads * per_thread);
        // Serial ground truth for the same observation stream.
        let mut serial = LatencyHistogram::new();
        for _ in 0..threads {
            for i in 0..per_thread {
                serial.record(Duration::from_nanos(i % 1024));
            }
        }
        assert_eq!(snap, serial);
    }
}
