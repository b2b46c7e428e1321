//! Temporal introspection: the engine's telemetry as system relations.
//!
//! The paper's taxonomy says transaction time "models the
//! representation" — and nothing is more purely representational than
//! the engine's own counters.  This module dogfoods the taxonomy by
//! recording engine history *as* relations in the reserved `sys$`
//! namespace, so operators ask "what was the cache hit rate as of
//! yesterday" in TQuel itself:
//!
//! | relation          | class            | contents                           |
//! |-------------------|------------------|------------------------------------|
//! | `sys$stats`       | temporal (event) | sampled `engine_stats()` counters  |
//! | `sys$relations`   | static rollback  | catalog history (name/class/sizes) |
//! | `sys$slow`        | historical (event)| slow-query admissions             |
//! | `sys$events`      | static           | tail of the JSONL event journal    |
//! | `sys$sessions`    | static rollback  | live + sampled session state       |
//! | `sys$connections` | static           | live network connections           |
//! | `sys$queries`     | static           | per-fingerprint workload aggregates|
//! | `sys$tablestats`  | temporal (event) | `analyze` storage statistics       |
//! | `sys$wal`         | static           | physical WAL frame/watermark stats |
//! | `sys$pages`       | static           | per-relation heap/page statistics  |
//!
//! `sys$stats` rows carry both timestamps: validity is the sampling
//! event, and the transaction period of sample *i* is
//! `[at_i, at_{i+1})` (the last sample extends to `forever`), so an
//! `as of t` rollback query answers with the counter values that were
//! current at `t`.  `sys$relations` is sampled synchronously at every
//! catalog-visible mutation (commits, DDL), which makes its rollback
//! view exact without any background mirror.
//!
//! The [`TelemetryStore`] holds both sample rings, bounded in memory
//! with optional JSONL spill beside the WAL; the [`StatsSampler`] is
//! the background thread that feeds it on a configurable interval.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use chronos_core::chronon::Chronon;
use chronos_core::clock::Clock;
use chronos_core::period::Period;
use chronos_core::relation::Validity;
use chronos_core::schema::{Attribute, RelationClass, Schema, TemporalSignature};
use chronos_core::tuple::Tuple;
use chronos_core::value::{AttrType, Value};
use chronos_obs::export::Health;
use chronos_obs::Recorder;
use chronos_tquel::provider::{AsOfSpec, RelationInfo, SourceRow};

use crate::cache::QueryCache;
use crate::database::EngineStats;

/// The reserved system-relation namespace.
pub const SYS_PREFIX: &str = "sys$";

/// True iff `name` lives in the reserved `sys$` namespace.
pub fn is_system(name: &str) -> bool {
    name.starts_with(SYS_PREFIX)
}

/// Samples each ring retains in memory before spilling/dropping.
pub const DEFAULT_TELEMETRY_CAPACITY: usize = 256;

/// One sampled `engine_stats()` snapshot, flattened to `(metric, value)`
/// pairs (the tall/narrow shape lets TQuel select and aggregate single
/// metrics with ordinary `where` clauses).
#[derive(Debug, Clone)]
pub struct StatSample {
    /// Transaction-clock reading when the sample was taken.
    pub at: Chronon,
    /// Flattened metric values, in exposition order.
    pub metrics: Vec<(&'static str, i64)>,
}

/// One catalog entry as seen at a sampling point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogRow {
    pub name: String,
    pub class: String,
    pub tuples: i64,
    pub bytes: i64,
}

/// The catalog as a whole at one sampling point.
#[derive(Debug, Clone)]
struct CatalogSample {
    at: Chronon,
    rows: Vec<CatalogRow>,
}

/// One per-relation statistic as collected by `analyze`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableStatRow {
    /// The analyzed relation.
    pub relation: String,
    /// Statistic name (`rows`, `versions`, `chain_len_le_4`, …).
    pub stat: String,
    /// Statistic value.
    pub value: i64,
    /// Transaction-clock reading of the `analyze` that produced this
    /// row — its valid-time event (carried forward unchanged when later
    /// analyzes of *other* relations produce new samples).
    pub analyzed_at: Chronon,
}

/// All relations' statistics as known after one `analyze`.
#[derive(Debug, Clone)]
struct TableStatsSample {
    at: Chronon,
    rows: Vec<TableStatRow>,
}

/// Counters describing the telemetry subsystem itself, surfaced through
/// `engine_stats()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryStats {
    /// Stat samples ever recorded (including replaced/spilled ones).
    pub samples_taken: u64,
    /// Stat samples spilled to the JSONL file beside the WAL.
    pub samples_spilled: u64,
    /// Stat samples currently retained in memory.
    pub stats_retained: usize,
    /// Catalog samples currently retained in memory.
    pub catalog_retained: usize,
    /// Ring capacity.
    pub capacity: usize,
    /// Whether the background sampler thread is running.
    pub sampler_running: bool,
}

impl TelemetryStats {
    /// Hand-rolled JSON object (the workspace has no serde).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"samples_taken\": {}, \"samples_spilled\": {}, \"stats_retained\": {}, \
             \"catalog_retained\": {}, \"capacity\": {}, \"sampler_running\": {}}}",
            self.samples_taken,
            self.samples_spilled,
            self.stats_retained,
            self.catalog_retained,
            self.capacity,
            self.sampler_running
        )
    }
}

/// Bounded rings of engine-history samples backing the `sys$stats` and
/// `sys$relations` system relations.  `Arc`-shared between the
/// `Database`, the background sampler, and the HTTP exporter.
pub struct TelemetryStore {
    capacity: usize,
    stats: Mutex<VecDeque<StatSample>>,
    catalog: Mutex<VecDeque<CatalogSample>>,
    tablestats: Mutex<VecDeque<TableStatsSample>>,
    spill_path: Mutex<Option<PathBuf>>,
    samples_taken: AtomicU64,
    samples_spilled: AtomicU64,
    sampler_running: AtomicBool,
}

impl Default for TelemetryStore {
    fn default() -> Self {
        TelemetryStore::new(DEFAULT_TELEMETRY_CAPACITY)
    }
}

impl TelemetryStore {
    /// A store retaining up to `capacity` samples per ring.
    pub fn new(capacity: usize) -> TelemetryStore {
        TelemetryStore {
            capacity: capacity.max(1),
            stats: Mutex::new(VecDeque::new()),
            catalog: Mutex::new(VecDeque::new()),
            tablestats: Mutex::new(VecDeque::new()),
            spill_path: Mutex::new(None),
            samples_taken: AtomicU64::new(0),
            samples_spilled: AtomicU64::new(0),
            sampler_running: AtomicBool::new(false),
        }
    }

    /// Enables JSONL spill: stat samples evicted from the ring are
    /// appended to `path` (kept beside the WAL on durable databases)
    /// instead of vanishing.
    pub fn set_spill_path(&self, path: PathBuf) {
        *self.spill_path.lock() = Some(path);
    }

    /// Marks the background sampler as running/stopped.
    pub(crate) fn set_sampler_running(&self, running: bool) {
        self.sampler_running.store(running, Ordering::Release);
    }

    /// Whether the background sampler thread is currently running.
    pub fn sampler_running(&self) -> bool {
        self.sampler_running.load(Ordering::Acquire)
    }

    /// Subsystem counters for `engine_stats()`.
    pub fn stats(&self) -> TelemetryStats {
        TelemetryStats {
            samples_taken: self.samples_taken.load(Ordering::Relaxed),
            samples_spilled: self.samples_spilled.load(Ordering::Relaxed),
            stats_retained: self.stats.lock().len(),
            catalog_retained: self.catalog.lock().len(),
            capacity: self.capacity,
            sampler_running: self.sampler_running(),
        }
    }

    /// Records one flattened `engine_stats()` snapshot at transaction
    /// time `at`.  Samples at (or behind) the newest recorded chronon
    /// replace it — "newest wins" keeps the ring strictly increasing in
    /// `at`, which is what gives `as of` queries a well-defined answer.
    pub fn record_stats(&self, at: Chronon, stats: &EngineStats) {
        let metrics = flatten_stats(stats);
        self.samples_taken.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.stats.lock();
        if let Some(last) = ring.back_mut() {
            if at <= last.at {
                let at = last.at;
                *last = StatSample { at, metrics };
                return;
            }
        }
        ring.push_back(StatSample { at, metrics });
        if ring.len() > self.capacity {
            if let Some(evicted) = ring.pop_front() {
                drop(ring);
                self.spill(&evicted);
            }
        }
    }

    /// Records the catalog's state at transaction time `at` (same
    /// newest-wins clamping as [`record_stats`](Self::record_stats)).
    pub fn record_catalog(&self, at: Chronon, rows: Vec<CatalogRow>) {
        let mut ring = self.catalog.lock();
        if let Some(last) = ring.back_mut() {
            if at <= last.at {
                let at = last.at;
                *last = CatalogSample { at, rows };
                return;
            }
        }
        ring.push_back(CatalogSample { at, rows });
        if ring.len() > self.capacity {
            ring.pop_front();
        }
    }

    /// Records the statistics `analyze <relation>` collected at
    /// transaction time `at`.  The new sample carries forward the
    /// previous sample's rows for every *other* relation (with their
    /// original `analyzed_at`) and replaces the analyzed relation's —
    /// so the newest sample always holds the complete statistics state,
    /// and `as of` shows how a relation's shape evolved across
    /// successive analyzes.  Same newest-wins clamping as
    /// [`record_stats`](Self::record_stats).
    pub fn record_tablestats(&self, at: Chronon, relation: &str, stats: Vec<(String, i64)>) {
        let mut ring = self.tablestats.lock();
        let mut rows: Vec<TableStatRow> = ring
            .back()
            .map(|s| {
                s.rows
                    .iter()
                    .filter(|r| r.relation != relation)
                    .cloned()
                    .collect()
            })
            .unwrap_or_default();
        rows.extend(stats.into_iter().map(|(stat, value)| TableStatRow {
            relation: relation.to_string(),
            stat,
            value,
            analyzed_at: at,
        }));
        rows.sort_by(|a, b| a.relation.cmp(&b.relation).then(a.stat.cmp(&b.stat)));
        if let Some(last) = ring.back_mut() {
            if at <= last.at {
                let at = last.at;
                *last = TableStatsSample { at, rows };
                return;
            }
        }
        ring.push_back(TableStatsSample { at, rows });
        if ring.len() > self.capacity {
            ring.pop_front();
        }
    }

    /// Drops every statistic recorded for `relation` (called on
    /// `destroy`, so a recreated relation starts unanalyzed).
    pub fn forget_tablestats(&self, relation: &str) {
        let mut ring = self.tablestats.lock();
        for s in ring.iter_mut() {
            s.rows.retain(|r| r.relation != relation);
        }
    }

    /// The latest recorded value of one statistic for `relation`
    /// (`None` until the relation is analyzed) — the planner-facing
    /// lookup behind `RelationProvider::estimated_rows`.
    pub fn latest_tablestat(&self, relation: &str, stat: &str) -> Option<i64> {
        let ring = self.tablestats.lock();
        ring.back().and_then(|s| {
            s.rows
                .iter()
                .find(|r| r.relation == relation && r.stat == stat)
                .map(|r| r.value)
        })
    }

    /// The `sys$tablestats` scan: tall `(relation, stat, value)` rows.
    /// Validity is the `analyze` collection event; the transaction
    /// period of sample *i* is `[at_i, at_{i+1})`, the newest extending
    /// to `forever` — the same currency semantics as `sys$stats`.
    pub fn tablestats_scan(&self, as_of: Option<&AsOfSpec>) -> Vec<SourceRow> {
        let ring = self.tablestats.lock();
        let periods = periods_of(ring.iter().map(|s| s.at));
        let selected: Vec<usize> = match as_of {
            None => (!ring.is_empty())
                .then(|| ring.len() - 1)
                .into_iter()
                .collect(),
            Some(AsOfSpec::At(t)) => ring
                .iter()
                .enumerate()
                .rev()
                .find(|(_, s)| s.at <= *t)
                .map(|(i, _)| i)
                .into_iter()
                .collect(),
            Some(AsOfSpec::Through(t1, t2)) => {
                let window = Period::clamped(*t1, t2.succ());
                periods
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.overlaps(window))
                    .map(|(i, _)| i)
                    .collect()
            }
        };
        let mut rows = Vec::new();
        for i in selected {
            let s = &ring[i];
            for r in &s.rows {
                rows.push(SourceRow {
                    tuple: Tuple::new(vec![
                        Value::str(&r.relation),
                        Value::str(&r.stat),
                        Value::Int(r.value),
                    ]),
                    validity: Some(Validity::Event(r.analyzed_at)),
                    tx: Some(periods[i]),
                });
            }
        }
        rows
    }

    /// Appends an evicted sample to the spill file (best effort — the
    /// telemetry plane never fails an engine operation).
    fn spill(&self, sample: &StatSample) {
        let Some(path) = self.spill_path.lock().clone() else {
            return;
        };
        let mut line = format!("{{\"at\": {}", sample.at.ticks());
        for (name, value) in &sample.metrics {
            line.push_str(&format!(", \"{name}\": {value}"));
        }
        line.push_str("}\n");
        use std::io::Write;
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(&path)
        {
            if f.write_all(line.as_bytes()).is_ok() {
                self.samples_spilled.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The `sys$stats` scan: tall `(metric, value)` rows.  Validity is
    /// the sampling event; the transaction period of sample *i* is
    /// `[at_i, at_{i+1})`, the newest extending to `forever`.
    pub fn stats_scan(&self, as_of: Option<&AsOfSpec>) -> Vec<SourceRow> {
        let ring = self.stats.lock();
        let samples: Vec<&StatSample> = match as_of {
            // Current state: the newest sample only.
            None => ring.back().into_iter().collect(),
            // State as of t: the newest sample taken at or before t.
            Some(AsOfSpec::At(t)) => ring.iter().rev().find(|s| s.at <= *t).into_iter().collect(),
            // Every sample whose currency period overlaps [t1, t2].
            Some(AsOfSpec::Through(t1, t2)) => {
                let window = Period::clamped(*t1, t2.succ());
                let periods = sample_periods(&ring);
                ring.iter()
                    .zip(periods)
                    .filter(|(_, p)| p.overlaps(window))
                    .map(|(s, _)| s)
                    .collect()
            }
        };
        let periods = sample_periods(&ring);
        let mut rows = Vec::new();
        for s in samples {
            let idx = ring
                .iter()
                .position(|r| r.at == s.at)
                .expect("sample in ring");
            let tx = periods[idx];
            for (metric, value) in &s.metrics {
                rows.push(SourceRow {
                    tuple: Tuple::new(vec![Value::str(metric), Value::Int(*value)]),
                    validity: Some(Validity::Event(s.at)),
                    tx: Some(tx),
                });
            }
        }
        rows
    }

    /// The last `n` sampled values of `metric`, oldest first (the
    /// `/history` endpoint body).
    pub fn history(&self, metric: &str, n: usize) -> Vec<(Chronon, i64)> {
        let ring = self.stats.lock();
        let mut out: Vec<(Chronon, i64)> = ring
            .iter()
            .rev()
            .filter_map(|s| {
                s.metrics
                    .iter()
                    .find(|(name, _)| *name == metric)
                    .map(|(_, v)| (s.at, *v))
            })
            .take(n)
            .collect();
        out.reverse();
        out
    }

    /// The `sys$relations` scan.  Rollback semantics: every result is a
    /// pure static relation (no timestamps on the rows).
    pub fn catalog_scan(&self, as_of: Option<&AsOfSpec>) -> Vec<SourceRow> {
        let ring = self.catalog.lock();
        let mut rows: Vec<&CatalogRow> = Vec::new();
        match as_of {
            None => {
                if let Some(s) = ring.back() {
                    rows.extend(s.rows.iter());
                }
            }
            Some(AsOfSpec::At(t)) => {
                if let Some(s) = ring.iter().rev().find(|s| s.at <= *t) {
                    rows.extend(s.rows.iter());
                }
            }
            Some(AsOfSpec::Through(t1, t2)) => {
                let window = Period::clamped(*t1, t2.succ());
                let periods = catalog_periods(&ring);
                for (s, p) in ring.iter().zip(periods) {
                    if p.overlaps(window) {
                        for row in &s.rows {
                            if !rows.contains(&row) {
                                rows.push(row);
                            }
                        }
                    }
                }
            }
        }
        rows.into_iter()
            .map(|r| SourceRow {
                tuple: Tuple::new(vec![
                    Value::str(&r.name),
                    Value::str(&r.class),
                    Value::Int(r.tuples),
                    Value::Int(r.bytes),
                ]),
                validity: None,
                tx: None,
            })
            .collect()
    }
}

/// One registered session's state, as reported by `sys$sessions`,
/// `/sessions`, and the CLI's `\sessions`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionRow {
    /// Engine-unique session id (1-based; 0 means "unregistered").
    pub session_id: u64,
    /// The snapshot pin watermark, in chronon ticks.
    pub pin_ticks: i64,
    /// Statements executed by this session so far.
    pub statements: u64,
    /// Nanoseconds since the session last executed a statement (or was
    /// opened).  Frozen at sampling time in sampled rows.
    pub idle_ns: u64,
    /// Trace id of the session's most recent statement (empty before
    /// the first one).
    pub trace_id: String,
}

/// One live network connection, as reported by `sys$connections`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnRow {
    /// Server-unique connection id (1-based).
    pub conn_id: u64,
    /// Peer address as reported by the listener.
    pub peer: String,
    /// The engine session serving this connection.
    pub session_id: u64,
    /// Frames handled on this connection (executes + pings + errors).
    pub requests: u64,
    /// Payload bytes received on this connection.
    pub bytes_in: u64,
    /// Payload bytes sent on this connection.
    pub bytes_out: u64,
}

struct LiveSession {
    pin_ticks: i64,
    statements: u64,
    last_active: std::time::Instant,
    trace_id: String,
}

/// The session samples ring entry: every registered session's state at
/// one transaction-time coordinate.
struct SessionSample {
    at: Chronon,
    rows: Vec<SessionRow>,
}

/// Live registry of engine sessions and network connections, with a
/// bounded sample ring giving `sys$sessions` a rollback (`as of`) view.
///
/// `Arc`-shared between the `Database` (scans, sampling), the `Engine`
/// (session registration), the TQuel service (connection registration),
/// and the HTTP exporter (`/sessions`).  Everything here is
/// diagnostic: the registry never fails an engine operation.
pub struct SessionRegistry {
    next_session: AtomicU64,
    next_conn: AtomicU64,
    sessions: Mutex<BTreeMap<u64, LiveSession>>,
    connections: Mutex<BTreeMap<u64, ConnRow>>,
    samples: Mutex<VecDeque<SessionSample>>,
    capacity: usize,
}

impl Default for SessionRegistry {
    fn default() -> Self {
        SessionRegistry::new(DEFAULT_TELEMETRY_CAPACITY)
    }
}

impl SessionRegistry {
    /// A registry retaining up to `capacity` session samples.
    pub fn new(capacity: usize) -> SessionRegistry {
        SessionRegistry {
            next_session: AtomicU64::new(1),
            next_conn: AtomicU64::new(1),
            sessions: Mutex::new(BTreeMap::new()),
            connections: Mutex::new(BTreeMap::new()),
            samples: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Registers a new session pinned at `pin_ticks`; returns its id.
    pub fn register_session(&self, pin_ticks: i64) -> u64 {
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        self.sessions.lock().insert(
            id,
            LiveSession {
                pin_ticks,
                statements: 0,
                last_active: std::time::Instant::now(),
                trace_id: String::new(),
            },
        );
        id
    }

    /// Updates a session's pin watermark (snapshot refresh).
    pub fn session_refreshed(&self, id: u64, pin_ticks: i64) {
        if let Some(s) = self.sessions.lock().get_mut(&id) {
            s.pin_ticks = pin_ticks;
        }
    }

    /// Records one executed statement under `trace_id`.
    pub fn note_statement(&self, id: u64, trace_id: &str) {
        if let Some(s) = self.sessions.lock().get_mut(&id) {
            s.statements += 1;
            s.last_active = std::time::Instant::now();
            s.trace_id = trace_id.to_string();
        }
    }

    /// Removes a closed session from the live table (samples keep it).
    pub fn deregister_session(&self, id: u64) {
        self.sessions.lock().remove(&id);
    }

    /// Registers a network connection serving `session_id`; returns its
    /// connection id.
    pub fn register_connection(&self, peer: String, session_id: u64) -> u64 {
        let id = self.next_conn.fetch_add(1, Ordering::Relaxed);
        self.connections.lock().insert(
            id,
            ConnRow {
                conn_id: id,
                peer,
                session_id,
                requests: 0,
                bytes_in: 0,
                bytes_out: 0,
            },
        );
        id
    }

    /// Adds one handled frame's traffic to a connection's totals.
    pub fn record_conn_io(&self, id: u64, bytes_in: u64, bytes_out: u64) {
        if let Some(c) = self.connections.lock().get_mut(&id) {
            c.requests += 1;
            c.bytes_in += bytes_in;
            c.bytes_out += bytes_out;
        }
    }

    /// Removes a closed connection from the live table.
    pub fn deregister_connection(&self, id: u64) {
        self.connections.lock().remove(&id);
    }

    /// Live session rows, id order.
    pub fn sessions(&self) -> Vec<SessionRow> {
        self.sessions
            .lock()
            .iter()
            .map(|(&id, s)| SessionRow {
                session_id: id,
                pin_ticks: s.pin_ticks,
                statements: s.statements,
                idle_ns: s.last_active.elapsed().as_nanos() as u64,
                trace_id: s.trace_id.clone(),
            })
            .collect()
    }

    /// Live connection rows, id order.
    pub fn connections(&self) -> Vec<ConnRow> {
        self.connections.lock().values().cloned().collect()
    }

    /// Records every live session's state at transaction time `at`
    /// (same newest-wins clamping as the telemetry rings), giving the
    /// `as of` view its coordinates.
    pub fn record_sample(&self, at: Chronon) {
        let rows = self.sessions();
        let mut ring = self.samples.lock();
        if let Some(last) = ring.back_mut() {
            if at <= last.at {
                let at = last.at;
                *last = SessionSample { at, rows };
                return;
            }
        }
        ring.push_back(SessionSample { at, rows });
        if ring.len() > self.capacity {
            ring.pop_front();
        }
    }

    /// The `sys$sessions` scan.  Current state reads the live table;
    /// `as of` reads the sample ring with the same currency-period
    /// semantics as `sys$stats` (`[at_i, at_{i+1})`, newest to
    /// forever).  Rollback semantics: rows come back pure static.
    pub fn sessions_scan(&self, as_of: Option<&AsOfSpec>) -> Vec<SourceRow> {
        let rows: Vec<SessionRow> = match as_of {
            None => self.sessions(),
            Some(AsOfSpec::At(t)) => {
                let ring = self.samples.lock();
                ring.iter()
                    .rev()
                    .find(|s| s.at <= *t)
                    .map(|s| s.rows.clone())
                    .unwrap_or_default()
            }
            Some(AsOfSpec::Through(t1, t2)) => {
                let window = Period::clamped(*t1, t2.succ());
                let ring = self.samples.lock();
                let periods = periods_of(ring.iter().map(|s| s.at));
                let mut out: Vec<SessionRow> = Vec::new();
                for (s, p) in ring.iter().zip(periods) {
                    if p.overlaps(window) {
                        for row in &s.rows {
                            if !out.contains(row) {
                                out.push(row.clone());
                            }
                        }
                    }
                }
                out
            }
        };
        rows.iter()
            .map(|r| SourceRow {
                tuple: Tuple::new(vec![
                    Value::Int(r.session_id.min(i64::MAX as u64) as i64),
                    Value::Int(r.pin_ticks),
                    Value::Int(r.statements.min(i64::MAX as u64) as i64),
                    Value::Int(r.idle_ns.min(i64::MAX as u64) as i64),
                    Value::str(&r.trace_id),
                ]),
                validity: None,
                tx: None,
            })
            .collect()
    }

    /// The `sys$connections` scan (live only; connections have no
    /// sampled history).
    pub fn connections_scan(&self) -> Vec<SourceRow> {
        self.connections()
            .iter()
            .map(|c| SourceRow {
                tuple: Tuple::new(vec![
                    Value::Int(c.conn_id.min(i64::MAX as u64) as i64),
                    Value::str(&c.peer),
                    Value::Int(c.session_id.min(i64::MAX as u64) as i64),
                    Value::Int(c.requests.min(i64::MAX as u64) as i64),
                    Value::Int(c.bytes_in.min(i64::MAX as u64) as i64),
                    Value::Int(c.bytes_out.min(i64::MAX as u64) as i64),
                ]),
                validity: None,
                tx: None,
            })
            .collect()
    }

    /// Hand-rolled JSON body for the `/sessions` HTTP endpoint.
    pub fn to_json(&self) -> String {
        use chronos_obs::events::escape_json;
        let mut out = String::from("{\"sessions\": [");
        for (i, s) in self.sessions().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"session\": {}, \"pin\": {}, \"statements\": {}, \
                 \"idle_ns\": {}, \"trace_id\": \"{}\"}}",
                s.session_id,
                s.pin_ticks,
                s.statements,
                s.idle_ns,
                escape_json(&s.trace_id)
            ));
        }
        out.push_str("], \"connections\": [");
        for (i, c) in self.connections().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"conn\": {}, \"peer\": \"{}\", \"session\": {}, \
                 \"requests\": {}, \"bytes_in\": {}, \"bytes_out\": {}}}",
                c.conn_id,
                escape_json(&c.peer),
                c.session_id,
                c.requests,
                c.bytes_in,
                c.bytes_out
            ));
        }
        out.push_str("]}");
        out
    }
}

impl std::fmt::Debug for SessionRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionRegistry")
            .field("sessions", &self.sessions.lock().len())
            .field("connections", &self.connections.lock().len())
            .finish_non_exhaustive()
    }
}

impl std::fmt::Debug for TelemetryStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TelemetryStore")
            .field("capacity", &self.capacity)
            .field("samples_taken", &self.samples_taken.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Currency period of each sample: `[at_i, at_{i+1})`, the newest
/// extending to `forever`.
fn sample_periods(ring: &VecDeque<StatSample>) -> Vec<Period> {
    periods_of(ring.iter().map(|s| s.at))
}

fn catalog_periods(ring: &VecDeque<CatalogSample>) -> Vec<Period> {
    periods_of(ring.iter().map(|s| s.at))
}

fn periods_of(ats: impl Iterator<Item = Chronon>) -> Vec<Period> {
    let ats: Vec<Chronon> = ats.collect();
    ats.iter()
        .enumerate()
        .map(|(i, &at)| match ats.get(i + 1) {
            Some(&next) => Period::clamped(at, next),
            None => Period::from_start(at),
        })
        .collect()
}

/// Flattens an [`EngineStats`] into the `sys$stats` metric set: every
/// registry counter, the query-cache section, the derived session
/// gauge, and the histograms' p50/p99.  Values saturate into `i64`
/// (the engine will not live long enough to overflow them honestly).
pub fn flatten_stats(stats: &EngineStats) -> Vec<(&'static str, i64)> {
    fn clamp(v: u64) -> i64 {
        v.min(i64::MAX as u64) as i64
    }
    let mut out: Vec<(&'static str, i64)> = stats
        .metrics
        .counters()
        .iter()
        .map(|(name, v)| (*name, clamp(*v)))
        .collect();
    out.push(("query_cache_hits", clamp(stats.cache.hits)));
    out.push(("query_cache_misses", clamp(stats.cache.misses)));
    out.push((
        "query_cache_invalidations",
        clamp(stats.cache.invalidations),
    ));
    out.push(("query_cache_evictions", clamp(stats.cache.evictions)));
    out.push(("query_cache_epoch_bumps", clamp(stats.cache.epoch_bumps)));
    out.push(("query_cache_frozen_hits", clamp(stats.cache.frozen_hits)));
    out.push(("query_cache_entries", clamp(stats.cache_entries as u64)));
    out.push((
        "active_sessions",
        clamp(
            stats
                .metrics
                .sessions_opened
                .saturating_sub(stats.metrics.sessions_closed),
        ),
    ));
    for (name, v) in stats.metrics.gauges() {
        out.push((name, clamp(v)));
    }
    for (name_p50, name_p99, h) in [
        (
            "commit_latency_p50_ns",
            "commit_latency_p99_ns",
            &stats.metrics.commit_latency,
        ),
        (
            "query_latency_p50_ns",
            "query_latency_p99_ns",
            &stats.metrics.query_latency,
        ),
        (
            "group_batch_size_p50",
            "group_batch_size_p99",
            &stats.metrics.group_batch_size,
        ),
        (
            "commit_queue_wait_p50_ns",
            "commit_queue_wait_p99_ns",
            &stats.metrics.commit_queue_wait,
        ),
        (
            "commit_lock_wait_p50_ns",
            "commit_lock_wait_p99_ns",
            &stats.metrics.commit_lock_wait,
        ),
        (
            "commit_apply_p50_ns",
            "commit_apply_p99_ns",
            &stats.metrics.commit_apply,
        ),
        (
            "commit_fsync_p50_ns",
            "commit_fsync_p99_ns",
            &stats.metrics.commit_fsync,
        ),
        (
            "commit_ack_p50_ns",
            "commit_ack_p99_ns",
            &stats.metrics.commit_ack,
        ),
        (
            "read_lock_wait_p50_ns",
            "read_lock_wait_p99_ns",
            &stats.metrics.read_lock_wait,
        ),
    ] {
        out.push((name_p50, clamp(h.percentile(50.0).unwrap_or(0))));
        out.push((name_p99, clamp(h.percentile(99.0).unwrap_or(0))));
    }
    out
}

/// Shared snapshot of the physical-storage observability documents the
/// exporter serves on `/wal` and `/storage`.  The database refreshes
/// both strings at every telemetry sample and checkpoint; the exporter
/// thread only ever reads, so the endpoints stay cheap and never borrow
/// the engine ("as of last sample" semantics, like `/stats`).
#[derive(Debug)]
pub struct PhysicalStore {
    wal_json: Mutex<String>,
    storage_json: Mutex<String>,
}

impl Default for PhysicalStore {
    fn default() -> PhysicalStore {
        PhysicalStore {
            wal_json: Mutex::new("{\"wal\": []}".to_string()),
            storage_json: Mutex::new("{\"storage\": []}".to_string()),
        }
    }
}

impl PhysicalStore {
    /// Replaces the `/wal` document.
    pub fn set_wal_json(&self, doc: String) {
        *self.wal_json.lock() = doc;
    }

    /// The current `/wal` document.
    pub fn wal_json(&self) -> String {
        self.wal_json.lock().clone()
    }

    /// Replaces the `/storage` document.
    pub fn set_storage_json(&self, doc: String) {
        *self.storage_json.lock() = doc;
    }

    /// The current `/storage` document.
    pub fn storage_json(&self) -> String {
        self.storage_json.lock().clone()
    }
}

/// Catalog/provider metadata for the system relations; `None` for
/// unknown `sys$` names (they surface as ordinary unknown relations).
pub fn system_info(name: &str) -> Option<RelationInfo> {
    let (schema, class, signature) = match name {
        "sys$stats" => (
            Schema::new(vec![
                Attribute::new("metric", AttrType::Str),
                Attribute::new("value", AttrType::Int),
            ]),
            RelationClass::Temporal,
            TemporalSignature::Event,
        ),
        "sys$relations" => (
            Schema::new(vec![
                Attribute::new("name", AttrType::Str),
                Attribute::new("class", AttrType::Str),
                Attribute::new("tuples", AttrType::Int),
                Attribute::new("bytes", AttrType::Int),
            ]),
            RelationClass::StaticRollback,
            TemporalSignature::Interval,
        ),
        "sys$slow" => (
            Schema::new(vec![
                Attribute::new("seq", AttrType::Int),
                Attribute::new("duration_ns", AttrType::Int),
                Attribute::new("statement", AttrType::Str),
            ]),
            RelationClass::Historical,
            TemporalSignature::Event,
        ),
        // "kind" not "event": `event` is a TQuel keyword (`as event`),
        // so it cannot name an attribute.
        "sys$events" => (
            Schema::new(vec![
                Attribute::new("seq", AttrType::Int),
                Attribute::new("ts_ns", AttrType::Int),
                Attribute::new("kind", AttrType::Str),
            ]),
            RelationClass::Static,
            TemporalSignature::Interval,
        ),
        "sys$sessions" => (
            Schema::new(vec![
                Attribute::new("session", AttrType::Int),
                Attribute::new("pin", AttrType::Int),
                Attribute::new("statements", AttrType::Int),
                Attribute::new("idle_ns", AttrType::Int),
                Attribute::new("trace_id", AttrType::Str),
            ]),
            RelationClass::StaticRollback,
            TemporalSignature::Interval,
        ),
        "sys$connections" => (
            Schema::new(vec![
                Attribute::new("conn", AttrType::Int),
                Attribute::new("peer", AttrType::Str),
                Attribute::new("session", AttrType::Int),
                Attribute::new("requests", AttrType::Int),
                Attribute::new("bytes_in", AttrType::Int),
                Attribute::new("bytes_out", AttrType::Int),
            ]),
            RelationClass::Static,
            TemporalSignature::Interval,
        ),
        // "kind" for the same reason as sys$events: `event` is reserved.
        "sys$queries" => (
            Schema::new(vec![
                Attribute::new("fingerprint", AttrType::Str),
                Attribute::new("statement", AttrType::Str),
                Attribute::new("kind", AttrType::Str),
                Attribute::new("calls", AttrType::Int),
                Attribute::new("p50_ns", AttrType::Int),
                Attribute::new("p99_ns", AttrType::Int),
                Attribute::new("rows_out", AttrType::Int),
                Attribute::new("cache_hits", AttrType::Int),
                Attribute::new("cache_misses", AttrType::Int),
            ]),
            RelationClass::Static,
            TemporalSignature::Interval,
        ),
        "sys$tablestats" => (
            Schema::new(vec![
                Attribute::new("relation", AttrType::Str),
                Attribute::new("stat", AttrType::Str),
                Attribute::new("value", AttrType::Int),
            ]),
            RelationClass::Temporal,
            TemporalSignature::Event,
        ),
        // Physical WAL introspection: one row per stat, with a free-form
        // detail column (tail state, truncation info).
        "sys$wal" => (
            Schema::new(vec![
                Attribute::new("stat", AttrType::Str),
                Attribute::new("value", AttrType::Int),
                Attribute::new("detail", AttrType::Str),
            ]),
            RelationClass::Static,
            TemporalSignature::Interval,
        ),
        // Physical heap/page stats: one row per relation (plus rows for
        // the on-disk files: checkpoint, catalog, wal, journal).
        "sys$pages" => (
            Schema::new(vec![
                Attribute::new("relation", AttrType::Str),
                Attribute::new("class", AttrType::Str),
                Attribute::new("pages", AttrType::Int),
                Attribute::new("bytes_disk", AttrType::Int),
                Attribute::new("records", AttrType::Int),
                Attribute::new("occupancy_x1000", AttrType::Int),
                Attribute::new("versions", AttrType::Int),
                Attribute::new("bytes_per_version", AttrType::Int),
                Attribute::new("dup_factor_x1000", AttrType::Int),
            ]),
            RelationClass::Static,
            TemporalSignature::Interval,
        ),
        _ => return None,
    };
    Some(RelationInfo {
        schema: schema.expect("system schemas are well-formed"),
        class,
        signature,
    })
}

/// Names of the system relations, in name order (the CLI's `\d` lists
/// them after user relations).
pub fn system_relation_names() -> [&'static str; 10] {
    [
        "sys$connections",
        "sys$events",
        "sys$pages",
        "sys$queries",
        "sys$relations",
        "sys$sessions",
        "sys$slow",
        "sys$stats",
        "sys$tablestats",
        "sys$wal",
    ]
}

/// The background stats sampler: a thread that snapshots
/// `engine_stats()` into the [`TelemetryStore`] on a fixed interval.
/// Stopping (or dropping) joins the thread; the lifecycle is journaled
/// (`sampler_start` / `sampler_stop`) and mirrored into
/// [`Health::mark_sampler`] so `/readyz` shows it.
pub(crate) struct StatsSampler {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl StatsSampler {
    /// Spawns the sampler thread.  `clock` supplies the transaction-time
    /// coordinate of each sample.
    pub(crate) fn start(
        interval: Duration,
        recorder: Arc<Recorder>,
        health: Arc<Health>,
        cache: Arc<Mutex<QueryCache>>,
        telemetry: Arc<TelemetryStore>,
        registry: Arc<SessionRegistry>,
        clock: Arc<dyn Clock>,
    ) -> std::io::Result<StatsSampler> {
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        recorder.emit_event(
            "sampler_start",
            &[("interval_ms", (interval.as_millis() as u64).into())],
        );
        health.mark_sampler(true);
        telemetry.set_sampler_running(true);
        let handle = std::thread::Builder::new()
            .name("chronos-sampler".to_string())
            .spawn(move || {
                while !stop_flag.load(Ordering::Acquire) {
                    let stats = crate::observe::engine_stats_from(&recorder, &cache, &telemetry);
                    let at = clock.now();
                    telemetry.record_stats(at, &stats);
                    registry.record_sample(at);
                    // Sleep in short slices so stop() stays responsive
                    // even with multi-second intervals.
                    let mut remaining = interval;
                    while !remaining.is_zero() && !stop_flag.load(Ordering::Acquire) {
                        let slice = remaining.min(Duration::from_millis(25));
                        std::thread::sleep(slice);
                        remaining = remaining.saturating_sub(slice);
                    }
                }
                telemetry.set_sampler_running(false);
                health.mark_sampler(false);
                recorder.emit_event("sampler_stop", &[]);
            })?;
        Ok(StatsSampler {
            stop,
            handle: Some(handle),
        })
    }

    /// Signals the thread and joins it.
    pub(crate) fn stop(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for StatsSampler {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop_and_join();
        }
    }
}

impl std::fmt::Debug for StatsSampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsSampler").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at: i64, commits: i64) -> EngineStats {
        let mut stats = EngineStats {
            metrics: Default::default(),
            cache: Default::default(),
            cache_entries: 0,
            journal: None,
            telemetry: TelemetryStore::new(4).stats(),
        };
        stats.metrics.commits = commits as u64;
        let _ = at;
        stats
    }

    #[test]
    fn stats_scan_answers_as_of_with_the_then_current_sample() {
        let store = TelemetryStore::new(8);
        store.record_stats(Chronon::new(10), &sample(10, 1));
        store.record_stats(Chronon::new(20), &sample(20, 5));
        store.record_stats(Chronon::new(30), &sample(30, 9));

        let commits_at = |as_of: Option<&AsOfSpec>| -> Vec<i64> {
            store
                .stats_scan(as_of)
                .iter()
                .filter(|r| r.tuple.get(0).as_str() == Some("commits"))
                .map(|r| r.tuple.get(1).as_int().unwrap())
                .collect()
        };
        // Current: newest sample only.
        assert_eq!(commits_at(None), vec![9]);
        // As of t: the sample current at t.
        assert_eq!(commits_at(Some(&AsOfSpec::At(Chronon::new(10)))), vec![1]);
        assert_eq!(commits_at(Some(&AsOfSpec::At(Chronon::new(25)))), vec![5]);
        assert_eq!(commits_at(Some(&AsOfSpec::At(Chronon::new(99)))), vec![9]);
        // Before the first sample: nothing was current.
        assert_eq!(
            commits_at(Some(&AsOfSpec::At(Chronon::new(5)))),
            Vec::<i64>::new()
        );
        // Through a window: every sample whose currency overlaps it.
        assert_eq!(
            commits_at(Some(&AsOfSpec::Through(Chronon::new(15), Chronon::new(25)))),
            vec![1, 5]
        );
    }

    #[test]
    fn newest_wins_at_equal_chronons_and_capacity_bounds_the_ring() {
        let store = TelemetryStore::new(3);
        for i in 0..10 {
            store.record_stats(Chronon::new(i), &sample(i, i));
        }
        let st = store.stats();
        assert_eq!(st.stats_retained, 3);
        assert_eq!(st.samples_taken, 10);
        // Same chronon: the later sample replaces the earlier.
        store.record_stats(Chronon::new(9), &sample(9, 42));
        let rows = store.stats_scan(Some(&AsOfSpec::At(Chronon::new(9))));
        let commits: Vec<i64> = rows
            .iter()
            .filter(|r| r.tuple.get(0).as_str() == Some("commits"))
            .map(|r| r.tuple.get(1).as_int().unwrap())
            .collect();
        assert_eq!(commits, vec![42]);
    }

    #[test]
    fn spill_writes_evicted_samples_as_jsonl() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "chronos-telemetry-spill-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let store = TelemetryStore::new(2);
        store.set_spill_path(path.clone());
        for i in 0..5 {
            store.record_stats(Chronon::new(i), &sample(i, i));
        }
        assert_eq!(store.stats().samples_spilled, 3);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(chronos_obs::validate_jsonl(&text).unwrap(), 3);
        assert!(text.contains("\"at\": 0"));
        assert!(text.contains("\"commits\": 2"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn catalog_scan_is_a_rollback_view() {
        let store = TelemetryStore::new(8);
        let row = |n: &str, tuples: i64| CatalogRow {
            name: n.to_string(),
            class: "temporal".to_string(),
            tuples,
            bytes: tuples * 64,
        };
        store.record_catalog(Chronon::new(10), vec![row("faculty", 1)]);
        store.record_catalog(Chronon::new(20), vec![row("faculty", 2), row("dept", 1)]);
        // Rollback rows are pure static: no timestamps.
        let current = store.catalog_scan(None);
        assert_eq!(current.len(), 2);
        assert!(current
            .iter()
            .all(|r| r.validity.is_none() && r.tx.is_none()));
        let then = store.catalog_scan(Some(&AsOfSpec::At(Chronon::new(15))));
        assert_eq!(then.len(), 1);
        assert_eq!(then[0].tuple.get(0).as_str(), Some("faculty"));
        assert_eq!(then[0].tuple.get(2).as_int(), Some(1));
        // A window spanning both samples unions (and dedups) the rows.
        let window =
            store.catalog_scan(Some(&AsOfSpec::Through(Chronon::new(10), Chronon::new(25))));
        assert_eq!(window.len(), 3);
    }

    #[test]
    fn history_tails_one_metric_oldest_first() {
        let store = TelemetryStore::new(8);
        for i in 1..=5 {
            store.record_stats(Chronon::new(i), &sample(i, i * 10));
        }
        let h = store.history("commits", 3);
        assert_eq!(
            h,
            vec![
                (Chronon::new(3), 30),
                (Chronon::new(4), 40),
                (Chronon::new(5), 50)
            ]
        );
        assert!(store.history("no_such_metric", 3).is_empty());
    }

    #[test]
    fn session_registry_tracks_live_state_and_answers_as_of() {
        let reg = SessionRegistry::new(8);
        let a = reg.register_session(5);
        let b = reg.register_session(5);
        assert_ne!(a, b);
        reg.note_statement(a, "t-cli");
        reg.note_statement(a, "t-cli2");
        reg.session_refreshed(b, 9);
        reg.record_sample(Chronon::new(10));
        reg.deregister_session(b);
        reg.record_sample(Chronon::new(20));

        // Live scan: only session `a` remains, with its latest trace.
        let live = reg.sessions_scan(None);
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].tuple.get(0).as_int(), Some(a as i64));
        assert_eq!(live[0].tuple.get(2).as_int(), Some(2));
        assert_eq!(live[0].tuple.get(4).as_str(), Some("t-cli2"));
        // As of the first sample: both sessions, b refreshed to pin 9.
        let then = reg.sessions_scan(Some(&AsOfSpec::At(Chronon::new(15))));
        assert_eq!(then.len(), 2);
        assert!(then.iter().any(
            |r| r.tuple.get(0).as_int() == Some(b as i64) && r.tuple.get(1).as_int() == Some(9)
        ));
        // Before any sample was taken: nothing was current.
        assert!(reg
            .sessions_scan(Some(&AsOfSpec::At(Chronon::new(1))))
            .is_empty());
        // Rollback rows are pure static.
        assert!(then.iter().all(|r| r.validity.is_none() && r.tx.is_none()));
    }

    #[test]
    fn session_registry_connections_and_json() {
        let reg = SessionRegistry::default();
        let s = reg.register_session(0);
        let c = reg.register_connection("127.0.0.1:9999".to_string(), s);
        reg.record_conn_io(c, 64, 128);
        reg.record_conn_io(c, 10, 20);
        let conns = reg.connections_scan();
        assert_eq!(conns.len(), 1);
        assert_eq!(conns[0].tuple.get(3).as_int(), Some(2));
        assert_eq!(conns[0].tuple.get(4).as_int(), Some(74));
        assert_eq!(conns[0].tuple.get(5).as_int(), Some(148));
        chronos_obs::validate_json(&reg.to_json()).unwrap();
        reg.deregister_connection(c);
        assert!(reg.connections_scan().is_empty());
    }

    #[test]
    fn tablestats_carry_forward_and_answer_as_of() {
        let store = TelemetryStore::new(8);
        let stats = |v: i64| vec![("rows".to_string(), v), ("versions".to_string(), v * 2)];
        store.record_tablestats(Chronon::new(10), "faculty", stats(5));
        store.record_tablestats(Chronon::new(20), "dept", stats(3));
        store.record_tablestats(Chronon::new(30), "faculty", stats(9));

        let value_of = |as_of: Option<&AsOfSpec>, rel: &str, stat: &str| -> Option<i64> {
            store
                .tablestats_scan(as_of)
                .iter()
                .find(|r| {
                    r.tuple.get(0).as_str() == Some(rel) && r.tuple.get(1).as_str() == Some(stat)
                })
                .map(|r| r.tuple.get(2).as_int().unwrap())
        };
        // Current: the newest sample holds both relations (carry-forward).
        assert_eq!(value_of(None, "faculty", "rows"), Some(9));
        assert_eq!(value_of(None, "dept", "rows"), Some(3));
        // As of t: the relation's shape at that time.
        assert_eq!(
            value_of(Some(&AsOfSpec::At(Chronon::new(25))), "faculty", "rows"),
            Some(5)
        );
        assert_eq!(
            value_of(Some(&AsOfSpec::At(Chronon::new(15))), "dept", "rows"),
            None
        );
        // Valid time is the collection event, carried forward unchanged.
        let current = store.tablestats_scan(None);
        let dept = current
            .iter()
            .find(|r| r.tuple.get(0).as_str() == Some("dept"))
            .unwrap();
        assert_eq!(dept.validity, Some(Validity::Event(Chronon::new(20))));
        // Planner lookup sees the newest value; destroy forgets.
        assert_eq!(store.latest_tablestat("faculty", "versions"), Some(18));
        assert_eq!(store.latest_tablestat("faculty", "nope"), None);
        store.forget_tablestats("faculty");
        assert_eq!(store.latest_tablestat("faculty", "rows"), None);
        assert_eq!(store.latest_tablestat("dept", "rows"), Some(3));
    }

    #[test]
    fn system_info_covers_the_namespace() {
        assert!(is_system("sys$stats"));
        assert!(!is_system("stats"));
        for name in system_relation_names() {
            let info = system_info(name).unwrap();
            assert!(!info.schema.attributes().is_empty());
        }
        assert!(system_info("sys$nope").is_none());
        let stats = system_info("sys$stats").unwrap();
        assert_eq!(stats.class, RelationClass::Temporal);
        assert_eq!(stats.signature, TemporalSignature::Event);
        assert_eq!(
            system_info("sys$relations").unwrap().class,
            RelationClass::StaticRollback
        );
    }
}
