//! Deterministic-by-construction instrumentation for the BEC stack:
//! hierarchical spans, typed metrics and trace export, with no external
//! dependencies (matching the workspace's std-only discipline).
//!
//! Every engine in the stack (analyzer, campaign pool, study orchestrator)
//! threads a [`Telemetry`] handle through its hot paths. The handle is
//! either *disabled* — every call is a near-free no-op, the default for
//! library users and tests — or *enabled*, in which case it collects:
//!
//! * **spans** — wall-clock intervals with a name, a thread id and
//!   key-value arguments, exported as Chrome-trace-format JSON
//!   ([`Telemetry::trace_json`]) loadable in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev);
//! * **metrics** — named [counters](Telemetry::add),
//!   [gauges](Telemetry::gauge), [timings](Telemetry::time_ms) and
//!   log₂-bucketed [histograms](Telemetry::observe) in a shared registry,
//!   exported as a machine-readable snapshot
//!   ([`Telemetry::metrics_json`]);
//! * **progress** — a throttled live progress line on stderr
//!   ([`Telemetry::meter`]) and typed [`ProgressEvent`]s for orchestrators
//!   that stream structured progress to a caller.
//!
//! # The determinism contract
//!
//! Instrumentation must never change what the instrumented engines
//! *output*. Concretely:
//!
//! * wall-clock time and thread attribution exist **only** in the trace
//!   export, the `time_ms` metrics and the stderr progress lines — never
//!   in engine stdout, golden files or resumable report artifacts;
//! * *logical* counters and histograms (runs, solver visits, simulated
//!   cycles, …) are built from per-item observations combined with
//!   associative, commutative merges ([`Histogram::merge`], counter
//!   addition), so their totals are independent of worker count and
//!   scheduling order — the property `crates/telemetry`'s unit tests and
//!   the pool-level determinism suite pin;
//! * a disabled handle performs no locking and no allocation, so
//!   uninstrumented runs behave exactly like pre-telemetry builds.
//!
//! ```
//! use bec_telemetry::Telemetry;
//!
//! let tel = Telemetry::enabled();
//! {
//!     let _span = tel.span("work").arg("items", 3);
//!     tel.add("work.items", 3);
//!     tel.observe("work.sizes", 17);
//! }
//! let snap = tel.snapshot();
//! assert_eq!(snap.counter("work.items"), Some(3));
//! assert!(tel.trace_json().contains("\"work\""));
//! ```

mod metrics;
mod progress;
mod span;

pub use metrics::{Histogram, Metric, MetricsSnapshot};
pub use progress::{group_digits, Phase, ProgressEvent, ProgressMeter};
pub use span::Span;

use span::TraceEvent;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

struct Inner {
    start: Instant,
    events: Mutex<Vec<TraceEvent>>,
    metrics: Mutex<BTreeMap<String, Metric>>,
}

/// The instrumentation handle threaded through the BEC engines.
///
/// Cloning is cheap (an [`Arc`] bump); clones share one span buffer and
/// one metric registry, so a CLI invocation collects everything its
/// engines record into a single trace/snapshot. A
/// [disabled](Telemetry::disabled) handle turns every recording call into
/// a no-op.
#[derive(Clone)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// A no-op handle: every recording call returns immediately, exports
    /// are empty. This is the default for library users — engines take
    /// `&Telemetry` unconditionally and stay zero-overhead without one.
    pub fn disabled() -> Telemetry {
        Telemetry { inner: None }
    }

    /// A collecting handle with an empty span buffer and metric registry.
    pub fn enabled() -> Telemetry {
        Telemetry {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                events: Mutex::new(Vec::new()),
                metrics: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// Whether this handle collects anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since this handle was created (0 when disabled).
    pub(crate) fn now_us(&self) -> u64 {
        match &self.inner {
            Some(inner) => inner.start.elapsed().as_micros() as u64,
            None => 0,
        }
    }

    pub(crate) fn push_event(&self, event: TraceEvent) {
        if let Some(inner) = &self.inner {
            inner.events.lock().expect("event buffer poisoned").push(event);
        }
    }

    fn with_metric(
        &self,
        name: &str,
        update: impl FnOnce(&mut Metric),
        init: impl FnOnce() -> Metric,
    ) {
        if let Some(inner) = &self.inner {
            let mut metrics = inner.metrics.lock().expect("metric registry poisoned");
            update(metrics.entry(name.to_owned()).or_insert_with(init));
        }
    }

    /// Adds `delta` to the counter `name` (creating it at 0).
    ///
    /// Counters are *logical* by convention: record per-item or per-batch
    /// quantities whose sum is independent of how work was partitioned
    /// over threads.
    pub fn add(&self, name: &str, delta: u64) {
        self.with_metric(
            name,
            |m| {
                if let Metric::Counter(v) = m {
                    *v += delta;
                }
            },
            || Metric::Counter(0),
        );
    }

    /// Sets the gauge `name` to `value` (last write wins — set gauges from
    /// single-threaded code for deterministic snapshots).
    pub fn gauge(&self, name: &str, value: u64) {
        self.with_metric(name, |m| *m = Metric::Gauge(value), || Metric::Gauge(value));
    }

    /// Records the wall-clock measurement `name` in milliseconds.
    /// Timing metrics are nondeterministic by nature; they live only in
    /// trace/metrics exports, never in engine stdout or report files.
    pub fn time_ms(&self, name: &str, ms: f64) {
        self.with_metric(name, |m| *m = Metric::TimeMs(ms), || Metric::TimeMs(ms));
    }

    /// Adds `ms` to the timing `name` (creating it at 0): the sum over
    /// every call, for a phase one process runs more than once (each
    /// campaign of a study).
    pub fn add_time_ms(&self, name: &str, ms: f64) {
        self.with_metric(
            name,
            |m| {
                if let Metric::TimeMs(v) = m {
                    *v += ms;
                }
            },
            || Metric::TimeMs(0.0),
        );
    }

    /// Records one observation into the histogram `name`.
    pub fn observe(&self, name: &str, value: u64) {
        self.with_metric(
            name,
            |m| {
                if let Metric::Hist(h) = m {
                    h.observe(value);
                }
            },
            || Metric::Hist(Histogram::default()),
        );
    }

    /// Merges a locally aggregated histogram into the registry — the
    /// batched form of [`Telemetry::observe`] worker threads use (one
    /// registry lock per batch instead of per observation).
    pub fn merge_hist(&self, name: &str, hist: &Histogram) {
        self.with_metric(
            name,
            |m| {
                if let Metric::Hist(h) = m {
                    h.merge(hist);
                }
            },
            || Metric::Hist(Histogram::default()),
        );
    }

    /// Opens a span named `name` on the main timeline (tid 0). The span
    /// records its wall-clock interval when dropped.
    pub fn span(&self, name: &str) -> Span<'_> {
        self.span_on(0, name)
    }

    /// Opens a span on worker timeline `tid` (Chrome-trace thread id; use
    /// a stable per-worker index so lanes line up in the viewer).
    pub fn span_on(&self, tid: u32, name: &str) -> Span<'_> {
        Span::begin(self, tid, name)
    }

    /// A throttled stderr progress meter for a long-running operation of
    /// `total` items. Silent when this handle is disabled.
    pub fn meter(&self, label: &str, total: u64) -> ProgressMeter {
        ProgressMeter::new(self.is_enabled(), label, total)
    }

    /// A point-in-time copy of the metric registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            Some(inner) => MetricsSnapshot::new(
                inner.metrics.lock().expect("metric registry poisoned").clone(),
            ),
            None => MetricsSnapshot::new(BTreeMap::new()),
        }
    }

    /// The collected spans as Chrome-trace-format JSON (the
    /// `{"traceEvents": [...]}` object form), loadable in
    /// `chrome://tracing` or Perfetto.
    pub fn trace_json(&self) -> String {
        let events = match &self.inner {
            Some(inner) => inner.events.lock().expect("event buffer poisoned").clone(),
            None => Vec::new(),
        };
        span::render_chrome_trace(&events)
    }

    /// The metric registry as snapshot JSON (see
    /// [`MetricsSnapshot::to_json_string`]).
    pub fn metrics_json(&self) -> String {
        self.snapshot().to_json_string()
    }

    /// Writes [`Telemetry::trace_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_trace(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.trace_json() + "\n")
    }

    /// Writes [`Telemetry::metrics_json`] to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error.
    pub fn write_metrics(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.metrics_json() + "\n")
    }
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("enabled", &self.is_enabled()).finish()
    }
}

/// Escapes `s` as the body of a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        tel.add("a", 1);
        tel.gauge("g", 2);
        tel.observe("h", 3);
        tel.time_ms("t", 1.0);
        tel.add_time_ms("t", 1.0);
        drop(tel.span("s").arg("k", "v"));
        assert!(!tel.is_enabled());
        assert!(tel.snapshot().is_empty());
        assert_eq!(tel.trace_json(), span::render_chrome_trace(&[]));
    }

    #[test]
    fn counters_and_gauges_register() {
        let tel = Telemetry::enabled();
        tel.add("runs", 2);
        tel.add("runs", 3);
        tel.gauge("workers", 8);
        tel.gauge("workers", 4);
        tel.observe("cycles", 0);
        tel.observe("cycles", 9);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("runs"), Some(5));
        assert_eq!(snap.gauge("workers"), Some(4));
        let h = snap.histogram("cycles").unwrap();
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 9, 0, 9));
        assert_eq!(snap.counter("missing"), None);
    }

    #[test]
    fn added_timings_accumulate_and_set_timings_overwrite() {
        let tel = Telemetry::enabled();
        tel.add_time_ms("sum", 1.5);
        tel.add_time_ms("sum", 2.25);
        tel.time_ms("last", 1.5);
        tel.time_ms("last", 2.25);
        let snap = tel.snapshot();
        assert_eq!(snap.time_ms("sum"), Some(3.75));
        assert_eq!(snap.time_ms("last"), Some(2.25));
    }

    #[test]
    fn clones_share_one_registry() {
        let tel = Telemetry::enabled();
        let clone = tel.clone();
        clone.add("shared", 7);
        drop(clone.span("child"));
        assert_eq!(tel.snapshot().counter("shared"), Some(7));
        assert!(tel.trace_json().contains("\"child\""));
    }

    #[test]
    fn json_escaping_is_safe() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
