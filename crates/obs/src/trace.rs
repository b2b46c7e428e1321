//! The [`Recorder`]: named instruments plus lightweight tracing spans.
//!
//! A span is an RAII guard ([`SpanGuard`]).  Creating one while a
//! trace capture is active appends a record to the capture's span
//! list at the current nesting depth; dropping it writes the measured
//! wall time back.  Outside a capture a span records nothing: opening
//! it is one relaxed load of the capture flag and a branch, and
//! dropping it is a branch.
//!
//! A disabled recorder short-circuits every instrument to a branch on
//! a plain bool — no atomics touched, no locks taken, no `Instant`
//! read — which is what lets the figure-regeneration binaries run
//! with instrumented code and byte-identical output.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::events::{EventJournal, EventValue};
use crate::fingerprint::QueryFingerprints;
use crate::metrics::{Counter, Gauge, Instruments, LatencyHistogram, MetricsSnapshot};
use crate::slowlog::SlowLog;

/// Mint a process-unique request trace id (`t-<hex>`), for statements
/// that arrived without a client-chosen one.  A plain counter keeps it
/// zero-dependency and collision-free within one server process — the
/// scope a trace id must be unique in.
pub fn next_trace_id() -> String {
    let mut id = String::new();
    mint_trace_id(&mut id);
    id
}

/// [`next_trace_id`] written over `out`, reusing its buffer.
pub fn mint_trace_id(out: &mut String) {
    use std::fmt::Write as _;
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
    out.clear();
    let _ = write!(out, "t-{:08x}", NEXT.fetch_add(1, Ordering::Relaxed));
}

/// A process-wide disabled recorder, for call sites that must accept a
/// `&Recorder` but have none threaded to them.
pub fn noop_recorder() -> &'static Recorder {
    static NOOP: OnceLock<Recorder> = OnceLock::new();
    NOOP.get_or_init(Recorder::disabled)
}

/// One finished (or in-flight) span inside a trace capture.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: &'static str,
    /// Free-form annotation, e.g. the access path chosen.
    pub detail: String,
    /// Nesting depth at entry (0 = root).
    pub depth: usize,
    pub duration_ns: u64,
    pub rows_in: Option<u64>,
    pub rows_out: Option<u64>,
    /// Statistics-based row-count estimate for this operator (from
    /// `analyze`-collected table statistics), shown beside the actual
    /// count so misestimation is visible in `explain`/`profile`.
    pub rows_est: Option<u64>,
}

#[derive(Default)]
struct TraceState {
    /// `Some` while a capture is active.
    capture: Option<Vec<SpanRecord>>,
    depth: usize,
}

/// The engine-wide observability handle.
pub struct Recorder {
    enabled: bool,
    metrics: Instruments,
    trace: Mutex<TraceState>,
    /// True while `trace.capture` is `Some`.  Written only under the
    /// `trace` lock; [`span`](Self::span) reads it without the lock so
    /// that a span outside a capture takes none.  `Relaxed` suffices:
    /// the flag publishes no data (the capture itself is read under the
    /// lock), and a capture's own spans run on the thread that began it.
    capturing: AtomicBool,
    /// Slow-statement captures (disabled until a threshold is set).
    slowlog: SlowLog,
    /// Per-statement-shape workload aggregates (always on while the
    /// recorder is enabled; one mutex-guarded vector probe per
    /// statement, priced in EXPERIMENTS.md T10).
    fingerprints: QueryFingerprints,
    /// Lifecycle event sink, present only on databases that attached a
    /// journal (durable ones).
    journal: Mutex<Option<Arc<EventJournal>>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An enabled recorder: instruments record, spans are captured.
    pub fn new() -> Self {
        Recorder {
            enabled: true,
            metrics: Instruments::default(),
            trace: Mutex::new(TraceState::default()),
            capturing: AtomicBool::new(false),
            slowlog: SlowLog::default(),
            fingerprints: QueryFingerprints::default(),
            journal: Mutex::new(None),
        }
    }

    /// A recorder whose every operation is a no-op (one branch).
    pub fn disabled() -> Self {
        Recorder {
            enabled: false,
            metrics: Instruments::default(),
            trace: Mutex::new(TraceState::default()),
            capturing: AtomicBool::new(false),
            slowlog: SlowLog::default(),
            fingerprints: QueryFingerprints::default(),
            journal: Mutex::new(None),
        }
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Direct read access for tests and stats surfacing.
    pub fn instruments(&self) -> &Instruments {
        &self.metrics
    }

    /// The slow-query log (disabled until a threshold is set).
    pub fn slowlog(&self) -> &SlowLog {
        &self.slowlog
    }

    /// The query-fingerprint store (recording whenever the recorder is
    /// enabled; callers gate on [`is_enabled`](Self::is_enabled)).
    pub fn fingerprints(&self) -> &QueryFingerprints {
        &self.fingerprints
    }

    /// Attaches the lifecycle event journal; subsequent
    /// [`emit_event`](Self::emit_event) calls append to it.
    pub fn set_journal(&self, journal: Arc<EventJournal>) {
        *self.journal.lock().unwrap() = Some(journal);
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<Arc<EventJournal>> {
        self.journal.lock().unwrap().clone()
    }

    /// Appends one lifecycle event to the journal, if one is attached.
    /// Events are rare (opens, checkpoints, freezes, slow queries), so
    /// the journal slot's lock is no hot-path cost.
    pub fn emit_event(&self, event: &str, fields: &[(&str, EventValue)]) {
        if let Some(journal) = self.journal.lock().unwrap().as_ref() {
            journal.emit(event, fields);
        }
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    // ---- counter helpers (all gated on `enabled`) -------------------

    #[inline]
    pub fn count(&self, pick: impl FnOnce(&Instruments) -> &Counter) {
        if self.enabled {
            pick(&self.metrics).incr();
        }
    }

    #[inline]
    pub fn count_n(&self, pick: impl FnOnce(&Instruments) -> &Counter, n: u64) {
        if self.enabled {
            pick(&self.metrics).add(n);
        }
    }

    #[inline]
    pub fn record_latency(&self, pick: impl FnOnce(&Instruments) -> &LatencyHistogram, ns: u64) {
        if self.enabled {
            pick(&self.metrics).record_ns(ns);
        }
    }

    #[inline]
    pub fn set_gauge(&self, pick: impl FnOnce(&Instruments) -> &Gauge, v: u64) {
        if self.enabled {
            pick(&self.metrics).set(v);
        }
    }

    // ---- tracing ----------------------------------------------------

    /// Start capturing a span tree.  A capture already in progress is
    /// discarded (traces don't nest; the outermost wins is *not* the
    /// rule — the newest request wins, matching the CLI's one-query-
    /// at-a-time use).
    pub fn begin_trace(&self) {
        if !self.enabled {
            return;
        }
        let mut t = self.trace.lock().unwrap();
        t.capture = Some(Vec::new());
        t.depth = 0;
        self.capturing.store(true, Ordering::Relaxed);
    }

    /// Stop capturing and return the span tree plus the metrics delta
    /// accumulated since `since` (callers snapshot before the traced
    /// work).  Returns `None` when disabled or no capture was active.
    pub fn end_trace(&self, since: &MetricsSnapshot) -> Option<TraceReport> {
        if !self.enabled {
            return None;
        }
        let mut t = self.trace.lock().unwrap();
        self.capturing.store(false, Ordering::Relaxed);
        let spans = t.capture.take()?;
        drop(t);
        Some(TraceReport {
            spans,
            delta: self.snapshot().since(since),
        })
    }

    /// Open a span.  Inside a capture the guard records wall time on
    /// drop; outside one it records nothing.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled || !self.capturing.load(Ordering::Relaxed) {
            return SpanGuard { open: None };
        }
        let mut t = self.trace.lock().unwrap();
        let depth = t.depth;
        let Some(spans) = t.capture.as_mut() else {
            return SpanGuard { open: None };
        };
        spans.push(SpanRecord {
            name,
            detail: String::new(),
            depth,
            duration_ns: 0,
            rows_in: None,
            rows_out: None,
            rows_est: None,
        });
        let index = spans.len() - 1;
        t.depth += 1;
        drop(t);
        SpanGuard {
            open: Some((self, index, Instant::now())),
        }
    }

    fn finish_span(&self, index: usize, ns: u64) {
        let mut t = self.trace.lock().unwrap();
        if let Some(rec) = t.capture.as_mut().and_then(|spans| spans.get_mut(index)) {
            rec.duration_ns = ns;
        }
        t.depth = t.depth.saturating_sub(1);
    }

    fn annotate(&self, index: usize, f: impl FnOnce(&mut SpanRecord)) {
        let mut t = self.trace.lock().unwrap();
        if let Some(spans) = t.capture.as_mut() {
            if let Some(rec) = spans.get_mut(index) {
                f(rec);
            }
        }
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

/// RAII span guard; see [`Recorder::span`].
pub struct SpanGuard<'a> {
    /// The recorder, the span's position in its capture and its start,
    /// when a capture was running at entry.
    open: Option<(&'a Recorder, usize, Instant)>,
}

impl SpanGuard<'_> {
    fn annotate(&self, f: impl FnOnce(&mut SpanRecord)) {
        if let Some((rec, index, _)) = self.open {
            rec.annotate(index, f);
        }
    }

    /// Attach a free-form annotation (e.g. the access path chosen).
    pub fn detail(&self, detail: impl Into<String>) {
        self.annotate(|r| r.detail = detail.into());
    }

    pub fn rows_in(&self, n: u64) {
        self.annotate(|r| r.rows_in = Some(n));
    }

    pub fn rows_out(&self, n: u64) {
        self.annotate(|r| r.rows_out = Some(n));
    }

    /// Statistics-based row-count estimate for this operator.
    pub fn rows_est(&self, n: u64) {
        self.annotate(|r| r.rows_est = Some(n));
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some((rec, index, start)) = self.open {
            rec.finish_span(index, start.elapsed().as_nanos() as u64);
        }
    }
}

/// A captured span tree plus the metrics delta over the traced work.
#[derive(Debug, Clone)]
pub struct TraceReport {
    pub spans: Vec<SpanRecord>,
    pub delta: MetricsSnapshot,
}

impl TraceReport {
    /// First span with the given name, if any (test convenience).
    pub fn span_named(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Per-operator misestimation factors (×1000) for every span that
    /// carries both an estimate and an actual row count — what the
    /// session layer feeds back into the fingerprint store.
    pub fn misestimates(&self) -> Vec<(&'static str, u64)> {
        self.spans
            .iter()
            .filter_map(|s| match (s.rows_est, s.rows_out) {
                (Some(est), Some(actual)) => Some((s.name, misestimate_x1000(est, actual))),
                _ => None,
            })
            .collect()
    }

    /// Render the span tree.  With `timings` (profile mode) each row
    /// carries its wall time; without (explain mode) only structure,
    /// row counts, and access-path details are shown.
    pub fn render(&self, timings: bool) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&"  ".repeat(s.depth));
            out.push_str(s.name);
            if !s.detail.is_empty() {
                out.push_str(&format!(" [{}]", s.detail));
            }
            if let Some(n) = s.rows_in {
                out.push_str(&format!(" rows_in={n}"));
            }
            if let Some(n) = s.rows_out {
                out.push_str(&format!(" rows_out={n}"));
            }
            if let Some(est) = s.rows_est {
                out.push_str(&format!(" est={est}"));
                if let Some(actual) = s.rows_out {
                    let x1000 = misestimate_x1000(est, actual);
                    out.push_str(&format!(
                        " ({}{:.1}x)",
                        if est >= actual { "over " } else { "under " },
                        x1000 as f64 / 1000.0
                    ));
                }
            }
            if timings {
                out.push_str(&format!(" ({})", fmt_ns(s.duration_ns)));
            }
            out.push('\n');
        }
        out.push_str(&format!(
            "counters: rows_scanned={} index_probes={} page_reads={}\n",
            self.delta.heap_rows_scanned, self.delta.index_probes, self.delta.pager_page_reads,
        ));
        out
    }
}

/// Symmetric misestimation factor ×1000: `max/min` of estimate and
/// actual (so 2× over and 2× under both read 2000), with zeroes
/// clamped to 1 so an empty side reads as a finite factor.  1000 is a
/// perfect estimate.
pub fn misestimate_x1000(est: u64, actual: u64) -> u64 {
    let (hi, lo) = (est.max(actual).max(1), est.min(actual).max(1));
    hi.saturating_mul(1000) / lo
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let r = Recorder::disabled();
        r.count(|m| &m.commits);
        r.count_n(|m| &m.heap_rows_scanned, 100);
        r.record_latency(|m| &m.commit_latency, 42);
        r.begin_trace();
        {
            let s = r.span("scan");
            s.detail("sequential");
            s.rows_out(10);
        }
        assert!(r.end_trace(&MetricsSnapshot::default()).is_none());
        assert!(r.snapshot().is_zero());
    }

    #[test]
    fn span_tree_capture_nests_by_depth() {
        let r = Recorder::new();
        let before = r.snapshot();
        r.begin_trace();
        {
            let outer = r.span("exec");
            outer.rows_out(2);
            {
                let inner = r.span("scan");
                inner.detail("sequential");
                inner.rows_out(5);
                r.count_n(|m| &m.heap_rows_scanned, 5);
            }
            let sibling = r.span("product");
            sibling.rows_in(5);
        }
        let report = r.end_trace(&before).expect("capture active");
        assert_eq!(report.spans.len(), 3);
        assert_eq!(report.spans[0].name, "exec");
        assert_eq!(report.spans[0].depth, 0);
        assert_eq!(report.spans[1].name, "scan");
        assert_eq!(report.spans[1].depth, 1);
        assert_eq!(report.spans[2].name, "product");
        assert_eq!(report.spans[2].depth, 1);
        assert_eq!(report.delta.heap_rows_scanned, 5);
        let rendered = report.render(true);
        assert!(rendered.contains("scan [sequential] rows_out=5"));
        assert!(rendered.contains("rows_scanned=5"));
    }

    /// `explain` and `profile` end on this line.
    #[test]
    fn the_counters_line_names_what_is_counted() {
        let r = Recorder::new();
        let before = r.snapshot();
        r.begin_trace();
        r.count_n(|m| &m.index_probes, 2);
        let report = r.end_trace(&before).expect("capture active");
        assert_eq!(
            report.render(false),
            "counters: rows_scanned=0 index_probes=2 page_reads=0\n"
        );
    }

    #[test]
    fn rows_est_renders_with_misestimation_factor() {
        let r = Recorder::new();
        let before = r.snapshot();
        r.begin_trace();
        {
            let scan = r.span("scan");
            scan.rows_est(100);
            scan.rows_out(10);
        }
        let report = r.end_trace(&before).expect("capture active");
        let rendered = report.render(false);
        assert!(
            rendered.contains("rows_out=10 est=100 (over 10.0x)"),
            "{rendered}"
        );
        assert_eq!(report.misestimates(), vec![("scan", 10_000)]);
        assert_eq!(misestimate_x1000(10, 100), 10_000, "symmetric");
        assert_eq!(misestimate_x1000(7, 7), 1_000, "perfect");
        assert_eq!(misestimate_x1000(0, 5), 5_000, "zero clamps to 1");
    }

    #[test]
    fn spans_outside_a_capture_record_nothing() {
        let r = Recorder::new();
        {
            let s = r.span("commit");
            s.rows_out(1);
        }
        // A span opened before the capture began is not part of it and
        // leaves the capture's nesting alone when it closes inside it.
        let early = r.span("early");
        let before = r.snapshot();
        r.begin_trace();
        drop(r.span("scan"));
        drop(early);
        drop(r.span("filter"));
        let report = r.end_trace(&before).expect("capture active");
        let names: Vec<_> = report.spans.iter().map(|s| (s.name, s.depth)).collect();
        assert_eq!(names, vec![("scan", 0), ("filter", 0)]);
        drop(r.span("commit"));
        assert!(r.end_trace(&before).is_none(), "no capture after end_trace");
    }

    #[test]
    fn trace_delta_is_scoped_to_snapshot() {
        let r = Recorder::new();
        r.count_n(|m| &m.index_probes, 7);
        let before = r.snapshot();
        r.begin_trace();
        r.count_n(|m| &m.index_probes, 3);
        let report = r.end_trace(&before).unwrap();
        assert_eq!(report.delta.index_probes, 3);
        assert_eq!(r.snapshot().index_probes, 10);
    }
}
