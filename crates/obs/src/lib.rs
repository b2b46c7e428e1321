//! Observability primitives for ChronosDB: a lock-cheap metrics
//! registry (atomic counters + fixed-bucket latency histograms) and
//! lightweight tracing spans (RAII guards that record wall time into
//! the registry and, while a trace capture is active, build the span
//! tree rendered by TQuel `explain` / `profile`).
//!
//! The crate has no dependencies and no global state: every engine
//! component holds an `Arc<Recorder>` handed down from the `Database`
//! (or a disabled recorder when observability is off).  A disabled
//! recorder is a single relaxed load + branch per instrument call, so
//! the hot paths stay byte-identical in behaviour — see the
//! figure-regeneration smoke assertion in `figures.rs`.
//!
//! It also holds [`fault::Disk`], the per-database handle every durable
//! write goes through, with the fault plan a test may give it.

pub mod events;
pub mod export;
pub mod fault;
pub mod fingerprint;
pub mod metrics;
pub mod slowlog;
pub mod trace;

pub use events::{
    parse_event_summary, validate_json, validate_jsonl, EventJournal, EventValue, JournalStats,
};
pub use export::{http_get, serve, Endpoint, Health, ObsServer, ObsSource};
pub use fault::{Disk, DiskFile};
pub use fingerprint::{FingerprintStats, QueryFingerprints};
pub use metrics::{
    prometheus, Counter, Gauge, HistogramSnapshot, Instruments, LatencyHistogram, Metric,
    MetricsSnapshot, Reading, Unit,
};
pub use slowlog::{SlowEntry, SlowLog, SLOWLOG_DISABLED};
pub use trace::{
    mint_trace_id, misestimate_x1000, next_trace_id, noop_recorder, Recorder, SpanGuard,
    SpanRecord, TraceReport,
};
