//! Temporal introspection: the engine's telemetry as system relations.
//!
//! The paper's taxonomy says transaction time "models the
//! representation" — and nothing is more purely representational than
//! the engine's own counters.  This module dogfoods the taxonomy by
//! recording engine history *as* relations in the reserved `sys$`
//! namespace, so operators ask "how many commits had there been as of
//! yesterday" in TQuel itself.  `SYSTEM_RELATIONS` declares all ten
//! once — name, class, signature, columns:
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
//! The four relations with transaction time are rollback relations in
//! the paper's sense (§4.2): sequences of past states indexed by
//! transaction time.  Each is one `SampleRing` in the
//! [`TelemetryStore`]: state *i* is current over `[at_i, at_{i+1})`
//! (the newest to `forever`), so `as of t` answers with the state
//! current at `t`.  The class decides how an answer is stamped:
//! temporal rows carry their state's period, static-rollback rows come
//! back pure static.  `sys$relations` is sampled synchronously at every
//! catalog-visible mutation (commits, DDL), which makes its rollback
//! view exact without any background mirror; the `StatsSampler` is
//! the background thread that samples `sys$stats` and `sys$sessions`
//! on a configurable interval.  Evicted `sys$stats` states spill to
//! JSONL beside the WAL.
//!
//! Every JSON endpoint of the HTTP exporter is a rendering of these
//! relations: [`document`] renders rows under their relation's declared
//! attribute names, and the endpoint's rows come from the same builders
//! a TQuel scan uses — so `/wal` and a `retrieve` over `sys$wal` cannot
//! disagree.

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
use chronos_obs::events::escape_json;
use chronos_obs::export::Health;
use chronos_obs::{Disk, EventJournal, QueryFingerprints, Reading, Recorder, SlowLog};
use chronos_tquel::provider::{AsOfSpec, RelationInfo, SourceRow};

use crate::database::EngineStats;

/// The reserved system-relation namespace.
pub const SYS_PREFIX: &str = "sys$";

/// True iff `name` lives in the reserved `sys$` namespace.
pub fn is_system(name: &str) -> bool {
    name.starts_with(SYS_PREFIX)
}

/// States each ring retains in memory before spilling/dropping.
pub const DEFAULT_TELEMETRY_CAPACITY: usize = 256;

/// One system relation's declaration.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SystemRelation {
    pub name: &'static str,
    pub class: RelationClass,
    pub signature: TemporalSignature,
    pub columns: &'static [(&'static str, AttrType)],
}

const fn sys(
    name: &'static str,
    class: RelationClass,
    signature: TemporalSignature,
    columns: &'static [(&'static str, AttrType)],
) -> SystemRelation {
    SystemRelation {
        name,
        class,
        signature,
        columns,
    }
}

const INT: AttrType = AttrType::Int;
const STR: AttrType = AttrType::Str;

/// The ten system relations, in name order (the CLI's `\d` lists them
/// after user relations).  `event` is a TQuel keyword (`as event`), so
/// `sys$events` and `sys$queries` name that column `kind`.
pub(crate) static SYSTEM_RELATIONS: [SystemRelation; 10] = {
    use RelationClass::{Historical, Static, StaticRollback, Temporal};
    use TemporalSignature::{Event, Interval};
    [
        sys(
            "sys$connections",
            Static,
            Interval,
            &[
                ("conn", INT),
                ("peer", STR),
                ("session", INT),
                ("requests", INT),
                ("bytes_in", INT),
                ("bytes_out", INT),
            ],
        ),
        // `detail` holds the journal line's other fields, as JSON.
        sys(
            "sys$events",
            Static,
            Interval,
            &[("seq", INT), ("ts_ns", INT), ("kind", STR), ("detail", STR)],
        ),
        // Physical heap/page stats: one row per relation (plus rows for
        // the on-disk files: checkpoint, catalog, wal, journal).
        sys(
            "sys$pages",
            Static,
            Interval,
            &[
                ("relation", STR),
                ("class", STR),
                ("pages", INT),
                ("bytes_disk", INT),
                ("records", INT),
                ("occupancy_x1000", INT),
                ("versions", INT),
                ("bytes_per_version", INT),
                ("dup_factor_x1000", INT),
            ],
        ),
        sys(
            "sys$queries",
            Static,
            Interval,
            &[
                ("fingerprint", STR),
                ("statement", STR),
                ("kind", STR),
                ("calls", INT),
                ("p50_ns", INT),
                ("p99_ns", INT),
                ("rows_out", INT),
                ("worst_misestimate_x1000", INT),
                ("access_path", STR),
            ],
        ),
        sys(
            "sys$relations",
            StaticRollback,
            Interval,
            &[
                ("name", STR),
                ("class", STR),
                ("tuples", INT),
                ("bytes", INT),
            ],
        ),
        sys(
            "sys$sessions",
            StaticRollback,
            Interval,
            &[
                ("session", INT),
                ("pin", INT),
                ("statements", INT),
                ("idle_ns", INT),
                ("trace_id", STR),
            ],
        ),
        sys(
            "sys$slow",
            Historical,
            Event,
            &[
                ("seq", INT),
                ("duration_ns", INT),
                ("statement", STR),
                ("session", INT),
                ("trace_id", STR),
                ("report", STR),
            ],
        ),
        sys(
            "sys$stats",
            Temporal,
            Event,
            &[("metric", STR), ("value", INT)],
        ),
        sys(
            "sys$tablestats",
            Temporal,
            Event,
            &[("relation", STR), ("stat", STR), ("value", INT)],
        ),
        // Physical WAL introspection: one row per stat, with a free-form
        // detail column (tail state, truncation info).
        sys(
            "sys$wal",
            Static,
            Interval,
            &[("stat", STR), ("value", INT), ("detail", STR)],
        ),
    ]
};

/// The declaration of the system relation `name`, if there is one.
pub(crate) fn system_relation(name: &str) -> Option<&'static SystemRelation> {
    SYSTEM_RELATIONS.iter().find(|r| r.name == name)
}

/// Catalog/provider metadata for the system relations; `None` for
/// unknown `sys$` names (they surface as ordinary unknown relations).
pub fn system_info(name: &str) -> Option<RelationInfo> {
    let r = system_relation(name)?;
    let attributes = r.columns.iter().map(|&(n, t)| Attribute::new(n, t));
    Some(RelationInfo {
        schema: Schema::new(attributes.collect()).expect("system schemas are well-formed"),
        class: r.class,
        signature: r.signature,
    })
}

/// Names of the system relations, in name order.
pub fn system_relation_names() -> [&'static str; 10] {
    SYSTEM_RELATIONS.map(|r| r.name)
}

/// One row of a system relation's state, rendered for the provider at
/// the transaction time `at` its state became current.
pub(crate) trait SystemRow {
    fn source_row(&self, at: Chronon) -> SourceRow;
}

/// A rollback relation held in memory: the states one system relation
/// passed through, each stamped with the transaction time it became
/// current, bounded to the newest `capacity`.
pub(crate) struct SampleRing<R> {
    capacity: usize,
    states: Mutex<VecDeque<(Chronon, Vec<R>)>>,
}

impl<R: SystemRow> SampleRing<R> {
    fn new(capacity: usize) -> SampleRing<R> {
        SampleRing {
            capacity: capacity.max(1),
            states: Mutex::new(VecDeque::new()),
        }
    }

    /// States currently retained.
    pub fn len(&self) -> usize {
        self.states.lock().len()
    }

    /// Records `next(newest state)` as current from `at` (the newest
    /// state is empty before the first); `None` records nothing.  A
    /// state at (or behind) the newest chronon replaces it — newest
    /// wins, which keeps the ring strictly increasing in `at` and gives
    /// `as of` one answer.  Returns the state evicted past capacity.
    pub fn record(
        &self,
        at: Chronon,
        next: impl FnOnce(&[R]) -> Option<Vec<R>>,
    ) -> Option<(Chronon, Vec<R>)> {
        let mut ring = self.states.lock();
        let state = next(ring.back().map_or(&[], |(_, s)| s.as_slice()))?;
        match ring.back_mut() {
            Some(last) if at <= last.0 => last.1 = state,
            _ => ring.push_back((at, state)),
        }
        (ring.len() > self.capacity)
            .then(|| ring.pop_front())
            .flatten()
    }

    /// Reads the newest state (empty before the first).
    pub fn latest<T>(&self, read: impl FnOnce(&[R]) -> T) -> T {
        read(self.states.lock().back().map_or(&[], |(_, s)| s.as_slice()))
    }

    /// The `as of` answer: the rows of each selected state — with no
    /// `as of` the newest, at `t` the one current at `t`, through a
    /// window every one whose period overlaps it.  The class stamps
    /// them: a temporal relation's rows carry their state's period as
    /// transaction time, a static-rollback relation's rows come back
    /// pure static and deduplicated.
    pub fn rows(&self, as_of: Option<&AsOfSpec>, class: RelationClass) -> Vec<SourceRow> {
        let ring = self.states.lock();
        let mut out: Vec<SourceRow> = Vec::new();
        for (i, (at, state)) in ring.iter().enumerate() {
            let period = match ring.get(i + 1) {
                Some((next, _)) => Period::clamped(*at, *next),
                None => Period::from_start(*at),
            };
            let selected = match as_of {
                None => i + 1 == ring.len(),
                Some(AsOfSpec::At(t)) => period.contains(*t),
                Some(AsOfSpec::Through(t1, t2)) => period.overlaps(Period::clamped(*t1, t2.succ())),
            };
            if !selected {
                continue;
            }
            for row in state {
                let mut row = row.source_row(*at);
                if class == RelationClass::Temporal {
                    row.tx = Some(period);
                    out.push(row);
                } else if !out.iter().any(|r| r.tuple == row.tuple) {
                    out.push(row);
                }
            }
        }
        out
    }
}

/// One catalog entry as seen at a sampling point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogRow {
    pub name: String,
    pub class: String,
    pub tuples: i64,
    pub bytes: i64,
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

/// The rings behind the four system relations with transaction time.
/// `Arc`-shared between the `Database`, the background sampler, and the
/// HTTP exporter.
pub struct TelemetryStore {
    /// `sys$stats`: flattened `engine_stats()` snapshots, `(metric,
    /// value)` in exposition order.
    pub(crate) stats: SampleRing<(String, i64)>,
    /// `sys$relations`: the catalog at every catalog-visible mutation.
    pub(crate) catalog: SampleRing<CatalogRow>,
    /// `sys$tablestats`: every relation's statistics after each
    /// `analyze` or `destroy`.
    pub(crate) tablestats: SampleRing<TableStatRow>,
    /// `sys$sessions`' past: every live session at each sample.
    pub(crate) sessions: SampleRing<SessionRow>,
    spill: Mutex<Option<(Disk, PathBuf)>>,
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
    /// A store retaining up to `capacity` states per ring.
    pub fn new(capacity: usize) -> TelemetryStore {
        TelemetryStore {
            stats: SampleRing::new(capacity),
            catalog: SampleRing::new(capacity),
            tablestats: SampleRing::new(capacity),
            sessions: SampleRing::new(capacity),
            spill: Mutex::new(None),
            samples_taken: AtomicU64::new(0),
            samples_spilled: AtomicU64::new(0),
            sampler_running: AtomicBool::new(false),
        }
    }

    /// Enables JSONL spill: stat samples evicted from the ring are
    /// appended to `path` through `disk` (kept beside the WAL on
    /// durable databases) instead of vanishing.
    pub fn set_spill(&self, disk: Disk, path: PathBuf) {
        *self.spill.lock() = Some((disk, path));
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
            stats_retained: self.stats.len(),
            catalog_retained: self.catalog.len(),
            capacity: self.stats.capacity,
            sampler_running: self.sampler_running(),
        }
    }

    /// Records one flattened `engine_stats()` snapshot at transaction
    /// time `at`, spilling the state it evicts.
    pub fn record_stats(&self, at: Chronon, stats: &EngineStats) {
        let metrics = flatten_stats(stats);
        self.samples_taken.fetch_add(1, Ordering::Relaxed);
        if let Some(evicted) = self.stats.record(at, |_| Some(metrics)) {
            self.spill(evicted);
        }
    }

    /// Records `relation`'s statistics as collected at transaction time
    /// `at` (`analyze`), or their end (`destroy`, with no `stats`).  The
    /// new state carries forward every *other* relation's rows with
    /// their original `analyzed_at`, so the newest state is the complete
    /// statistics state and `as of` shows how a relation's shape evolved
    /// — and, past a `destroy`, that it had one.
    pub fn record_tablestats(&self, at: Chronon, relation: &str, stats: Vec<(String, i64)>) {
        self.tablestats.record(at, |prev| {
            if stats.is_empty() && !prev.iter().any(|r| r.relation == relation) {
                return None;
            }
            let mut rows: Vec<TableStatRow> = prev
                .iter()
                .filter(|r| r.relation != relation)
                .cloned()
                .collect();
            rows.extend(stats.into_iter().map(|(stat, value)| TableStatRow {
                relation: relation.to_string(),
                stat,
                value,
                analyzed_at: at,
            }));
            rows.sort_by(|a, b| a.relation.cmp(&b.relation).then(a.stat.cmp(&b.stat)));
            Some(rows)
        });
    }

    /// The latest recorded value of one statistic for `relation`
    /// (`None` until the relation is analyzed) — the planner-facing
    /// lookup behind `RelationProvider::estimated_rows`.
    pub fn latest_tablestat(&self, relation: &str, stat: &str) -> Option<i64> {
        self.tablestats.latest(|rows| {
            rows.iter()
                .find(|r| r.relation == relation && r.stat == stat)
                .map(|r| r.value)
        })
    }

    /// Appends an evicted sample to the spill file (best effort — the
    /// telemetry plane never fails an engine operation).
    fn spill(&self, (at, metrics): (Chronon, Vec<(String, i64)>)) {
        let Some((disk, path)) = self.spill.lock().clone() else {
            return;
        };
        let mut line = format!("{{\"at\": {}", at.ticks());
        for (name, value) in &metrics {
            line.push_str(&format!(", \"{name}\": {value}"));
        }
        line.push_str("}\n");
        if let Ok(mut f) = disk.open_append(&path) {
            if f.append(line.as_bytes()).is_ok() {
                self.samples_spilled.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The `/history` rows: the last `n` retained `sys$stats` rows of
    /// `metric`, oldest first, each stamped as a read through the whole
    /// retained window stamps it.
    pub(crate) fn history_rows(&self, metric: &str, n: usize) -> Vec<SourceRow> {
        let window = AsOfSpec::Through(Chronon::MIN, Chronon::MAX);
        let mut rows = self.stats.rows(Some(&window), RelationClass::Temporal);
        rows.retain(|r| r.tuple.get(0).as_str() == Some(metric));
        rows.split_off(rows.len().saturating_sub(n))
    }
}

/// A `sys$stats` row: validity is the sampling event.
impl SystemRow for (String, i64) {
    fn source_row(&self, at: Chronon) -> SourceRow {
        SourceRow {
            tuple: Tuple::new(vec![Value::str(&self.0), Value::Int(self.1)]),
            validity: Some(Validity::Event(at)),
            tx: None,
        }
    }
}

impl SystemRow for CatalogRow {
    fn source_row(&self, _: Chronon) -> SourceRow {
        static_row(vec![
            Value::str(&self.name),
            Value::str(&self.class),
            Value::Int(self.tuples),
            Value::Int(self.bytes),
        ])
    }
}

/// A `sys$tablestats` row: validity is the statistic's `analyze` event.
impl SystemRow for TableStatRow {
    fn source_row(&self, _: Chronon) -> SourceRow {
        SourceRow {
            tuple: Tuple::new(vec![
                Value::str(&self.relation),
                Value::str(&self.stat),
                Value::Int(self.value),
            ]),
            validity: Some(Validity::Event(self.analyzed_at)),
            tx: None,
        }
    }
}

impl SystemRow for SessionRow {
    fn source_row(&self, _: Chronon) -> SourceRow {
        static_row(vec![
            Value::Int(clamp(self.session_id)),
            Value::Int(self.pin_ticks),
            Value::Int(clamp(self.statements)),
            Value::Int(clamp(self.idle_ns)),
            Value::str(&self.trace_id),
        ])
    }
}

/// A row with no timestamps.
pub(crate) fn static_row(values: Vec<Value>) -> SourceRow {
    SourceRow {
        tuple: Tuple::new(values),
        validity: None,
        tx: None,
    }
}

/// Saturates a counter into `i64` (the engine will not live long enough
/// to overflow one honestly).
pub(crate) fn clamp(v: u64) -> i64 {
    v.min(i64::MAX as u64) as i64
}

/// Flattens an [`EngineStats`] into the `sys$stats` metric set: each
/// of [`EngineStats::metrics`] by its name, except that a histogram
/// becomes its sample count, total and p50/p99/p999.
pub fn flatten_stats(stats: &EngineStats) -> Vec<(String, i64)> {
    let mut out = Vec::new();
    for m in stats.metrics() {
        match m.reading {
            Reading::Counter(v) | Reading::Gauge(v) => out.push((m.name.to_string(), clamp(v))),
            Reading::Histogram(h, unit) => {
                let (name, unit) = (m.name, unit.suffix());
                out.push((format!("{name}_samples"), clamp(h.samples)));
                out.push((format!("{name}_total{unit}"), clamp(h.total_ns)));
                for (p, label) in [(50.0, "50"), (99.0, "99"), (99.9, "999")] {
                    let v = h.percentile(p).unwrap_or(0);
                    out.push((format!("{name}_p{label}{unit}"), clamp(v)));
                }
            }
        }
    }
    out
}

/// The `/stats` rows: `stats` flattened into the `sys$stats` rows a
/// sample taken at `at` would record.
pub fn stats_rows(stats: &EngineStats, at: Chronon) -> Vec<SourceRow> {
    flatten_stats(stats)
        .iter()
        .map(|metric| SourceRow {
            tx: Some(Period::from_start(at)),
            ..metric.source_row(at)
        })
        .collect()
}

/// `sys$slow`: the slow log's ring, oldest first, each row an event at
/// its admission's clock reading.
pub(crate) fn slow_rows(log: &SlowLog) -> Vec<SourceRow> {
    log.entries()
        .iter()
        .map(|e| SourceRow {
            validity: Some(Validity::Event(Chronon::new(e.at_tick))),
            ..static_row(vec![
                Value::Int(clamp(e.seq)),
                Value::Int(clamp(e.duration_ns)),
                Value::str(&e.statement),
                Value::Int(clamp(e.session_id)),
                Value::str(&e.trace_id),
                Value::str(&e.report),
            ])
        })
        .collect()
}

/// `sys$queries`: one row per fingerprint, most-called first.
pub(crate) fn query_rows(store: &QueryFingerprints) -> Vec<SourceRow> {
    store
        .entries()
        .iter()
        .map(|e| {
            static_row(vec![
                Value::str(format!("{:016x}", e.hash)),
                Value::str(&e.statement),
                Value::str(e.kind),
                Value::Int(clamp(e.calls)),
                Value::Int(clamp(e.p50_ns)),
                Value::Int(clamp(e.p99_ns)),
                Value::Int(clamp(e.rows_out)),
                Value::Int(clamp(e.worst_misestimate_x1000)),
                Value::str(&e.access_path),
            ])
        })
        .collect()
}

/// `sys$events` over the journal's last `n` lines, oldest first.  A
/// TQuel scan of `sys$events` reads the last
/// [`DEFAULT_EVENTS_TAIL`](chronos_obs::export::DEFAULT_EVENTS_TAIL)
/// lines, which is also what `/events` shows without `?n=`.
pub(crate) fn event_rows(journal: Option<&EventJournal>, n: usize) -> Vec<SourceRow> {
    let Some(journal) = journal else {
        return Vec::new();
    };
    journal
        .tail_lines(n)
        .iter()
        .filter_map(|line| chronos_obs::parse_event_summary(line))
        .map(|(seq, ts_ns, kind, detail)| {
            static_row(vec![
                Value::Int(clamp(seq)),
                Value::Int(clamp(ts_ns)),
                Value::str(kind),
                Value::str(detail),
            ])
        })
        .collect()
}

/// Renders system relations' rows as one JSON document — the body of
/// every JSON endpoint.  The document has one member per relation,
/// named as the relation, holding its rows in order.  A row is an
/// object keyed by the relation's declared attribute names, followed by
/// `valid_at` (an event) or `valid_from`/`valid_to` (an interval) when
/// the row carries valid time, and `tx_from`/`tx_to` when it carries
/// transaction time.  Times are chronon ticks; an unbounded end is
/// `null`.
pub fn document(relations: &[(&str, &[SourceRow])]) -> String {
    let mut out = String::from("{");
    for (i, (name, rows)) in relations.iter().enumerate() {
        let decl = system_relation(name).expect("documents render declared system relations");
        out.push_str(&format!("{}\"{name}\": [", if i > 0 { ", " } else { "" }));
        for (j, row) in rows.iter().enumerate() {
            let mut fields: Vec<String> = decl
                .columns
                .iter()
                .zip(row.tuple.values())
                .map(|(&(attr, _), value)| match value {
                    Value::Int(v) => format!("\"{attr}\": {v}"),
                    text => format!("\"{attr}\": \"{}\"", escape_json(&text.to_string())),
                })
                .collect();
            match row.validity {
                Some(Validity::Event(at)) => fields.push(format!("\"valid_at\": {}", at.ticks())),
                Some(Validity::Interval(p)) => fields.extend(period_fields("valid", p)),
                None => {}
            }
            fields.extend(row.tx.into_iter().flat_map(|tx| period_fields("tx", tx)));
            out.push_str(&format!(
                "{}{{{}}}",
                if j > 0 { ", " } else { "" },
                fields.join(", ")
            ));
        }
        out.push(']');
    }
    out.push('}');
    out
}

/// `<axis>_from` and `<axis>_to` of `period`, in ticks (`null` when
/// unbounded).
fn period_fields(axis: &str, period: Period) -> [String; 2] {
    let ticks = |p: chronos_core::timepoint::TimePoint| {
        p.finite()
            .map_or_else(|| "null".to_string(), |c| c.ticks().to_string())
    };
    [
        format!("\"{axis}_from\": {}", ticks(period.start())),
        format!("\"{axis}_to\": {}", ticks(period.end())),
    ]
}

/// One registered session's state, as reported by `sys$sessions` (and
/// so `/sessions`) and the CLI's `\sessions`.
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

/// Live registry of engine sessions and network connections (the
/// sampled past of `sys$sessions` lives in the [`TelemetryStore`]).
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
}

impl Default for SessionRegistry {
    fn default() -> Self {
        SessionRegistry::new()
    }
}

impl SessionRegistry {
    /// An empty registry.
    pub fn new() -> SessionRegistry {
        SessionRegistry {
            next_session: AtomicU64::new(1),
            next_conn: AtomicU64::new(1),
            sessions: Mutex::new(BTreeMap::new()),
            connections: Mutex::new(BTreeMap::new()),
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
            s.trace_id.clear();
            s.trace_id.push_str(trace_id);
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

    /// The live `sys$sessions` rows (its past is sampled into the
    /// [`TelemetryStore`]).
    pub fn sessions_scan(&self) -> Vec<SourceRow> {
        self.sessions()
            .iter()
            .map(|r| r.source_row(Chronon::ZERO))
            .collect()
    }

    /// The `sys$connections` scan (live only; connections have no
    /// sampled history).
    pub fn connections_scan(&self) -> Vec<SourceRow> {
        self.connections()
            .iter()
            .map(|c| {
                static_row(vec![
                    Value::Int(clamp(c.conn_id)),
                    Value::str(&c.peer),
                    Value::Int(clamp(c.session_id)),
                    Value::Int(clamp(c.requests)),
                    Value::Int(clamp(c.bytes_in)),
                    Value::Int(clamp(c.bytes_out)),
                ])
            })
            .collect()
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
            .field("capacity", &self.stats.capacity)
            .field("samples_taken", &self.samples_taken.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
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
                    let stats = crate::observe::engine_stats_from(&recorder, &telemetry);
                    let at = clock.now();
                    telemetry.record_stats(at, &stats);
                    telemetry.sessions.record(at, |_| Some(registry.sessions()));
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
            journal: None,
            slowlog_threshold_ns: u64::MAX,
            slowlog_admitted: 0,
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
                .stats
                .rows(as_of, RelationClass::Temporal)
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
        let rows = store.stats.rows(
            Some(&AsOfSpec::At(Chronon::new(9))),
            RelationClass::Temporal,
        );
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
        store.set_spill(Disk::default(), path.clone());
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
        let catalog =
            |as_of: Option<&AsOfSpec>| store.catalog.rows(as_of, RelationClass::StaticRollback);
        store
            .catalog
            .record(Chronon::new(10), |_| Some(vec![row("faculty", 1)]));
        store.catalog.record(Chronon::new(20), |_| {
            Some(vec![row("faculty", 2), row("dept", 1)])
        });
        // Rollback rows are pure static: no timestamps.
        let current = catalog(None);
        assert_eq!(current.len(), 2);
        assert!(current
            .iter()
            .all(|r| r.validity.is_none() && r.tx.is_none()));
        let then = catalog(Some(&AsOfSpec::At(Chronon::new(15))));
        assert_eq!(then.len(), 1);
        assert_eq!(then[0].tuple.get(0).as_str(), Some("faculty"));
        assert_eq!(then[0].tuple.get(2).as_int(), Some(1));
        // A window spanning both samples unions (and dedups) the rows.
        let window = catalog(Some(&AsOfSpec::Through(Chronon::new(10), Chronon::new(25))));
        assert_eq!(window.len(), 3);
    }

    #[test]
    fn history_tails_one_metric_oldest_first() {
        let store = TelemetryStore::new(8);
        for i in 1..=5 {
            store.record_stats(Chronon::new(i), &sample(i, i * 10));
        }
        let h: Vec<(Option<Validity>, i64)> = store
            .history_rows("commits", 3)
            .iter()
            .map(|r| (r.validity, r.tuple.get(1).as_int().unwrap()))
            .collect();
        let event = |t| Some(Validity::Event(Chronon::new(t)));
        assert_eq!(h, vec![(event(3), 30), (event(4), 40), (event(5), 50)]);
        // Each row carries its sample's currency; the newest is open.
        assert_eq!(
            document(&[("sys$stats", &store.history_rows("commits", 2))]),
            "{\"sys$stats\": [\
             {\"metric\": \"commits\", \"value\": 40, \"valid_at\": 4, \"tx_from\": 4, \"tx_to\": 5}, \
             {\"metric\": \"commits\", \"value\": 50, \"valid_at\": 5, \"tx_from\": 5, \"tx_to\": null}]}"
        );
        assert!(store.history_rows("no_such_metric", 3).is_empty());
    }

    #[test]
    fn session_registry_tracks_live_state_and_answers_as_of() {
        let reg = SessionRegistry::new();
        let store = TelemetryStore::new(8);
        let record_sample = |at: i64| {
            store
                .sessions
                .record(Chronon::new(at), |_| Some(reg.sessions()))
        };
        // The current state is the live registry; `as of` reads samples.
        let sessions_scan = |as_of: Option<&AsOfSpec>| match as_of {
            None => reg.sessions_scan(),
            Some(_) => store.sessions.rows(as_of, RelationClass::StaticRollback),
        };
        let a = reg.register_session(5);
        let b = reg.register_session(5);
        assert_ne!(a, b);
        reg.note_statement(a, "t-cli");
        reg.note_statement(a, "t-cli2");
        reg.session_refreshed(b, 9);
        record_sample(10);
        reg.deregister_session(b);
        record_sample(20);

        // Live scan: only session `a` remains, with its latest trace.
        let live = sessions_scan(None);
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].tuple.get(0).as_int(), Some(a as i64));
        assert_eq!(live[0].tuple.get(2).as_int(), Some(2));
        assert_eq!(live[0].tuple.get(4).as_str(), Some("t-cli2"));
        // As of the first sample: both sessions, b refreshed to pin 9.
        let then = sessions_scan(Some(&AsOfSpec::At(Chronon::new(15))));
        assert_eq!(then.len(), 2);
        assert!(then.iter().any(
            |r| r.tuple.get(0).as_int() == Some(b as i64) && r.tuple.get(1).as_int() == Some(9)
        ));
        // Before any sample was taken: nothing was current.
        assert!(sessions_scan(Some(&AsOfSpec::At(Chronon::new(1)))).is_empty());
        // Rollback rows are pure static.
        assert!(then.iter().all(|r| r.validity.is_none() && r.tx.is_none()));
    }

    #[test]
    fn session_registry_connections_and_json() {
        let reg = SessionRegistry::default();
        let s = reg.register_session(0);
        let c = reg.register_connection("127.0.0.1:9999 \"quoted\"".to_string(), s);
        reg.record_conn_io(c, 64, 128);
        reg.record_conn_io(c, 10, 20);
        let conns = reg.connections_scan();
        assert_eq!(conns.len(), 1);
        assert_eq!(conns[0].tuple.get(3).as_int(), Some(2));
        assert_eq!(conns[0].tuple.get(4).as_int(), Some(74));
        assert_eq!(conns[0].tuple.get(5).as_int(), Some(148));
        // `/sessions` renders both relations under their attribute
        // names, escaping the hostile peer.
        let doc = document(&[
            ("sys$sessions", &reg.sessions_scan()),
            ("sys$connections", &conns),
        ]);
        chronos_obs::validate_json(&doc).unwrap();
        assert!(doc.starts_with("{\"sys$sessions\": [{\"session\": 1, \"pin\": 0,"));
        assert!(doc.ends_with(
            "\"sys$connections\": [{\"conn\": 1, \"peer\": \"127.0.0.1:9999 \\\"quoted\\\"\", \
             \"session\": 1, \"requests\": 2, \"bytes_in\": 74, \"bytes_out\": 148}]}"
        ));
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
                .tablestats
                .rows(as_of, RelationClass::Temporal)
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
        let current = store.tablestats.rows(None, RelationClass::Temporal);
        let dept = current
            .iter()
            .find(|r| r.tuple.get(0).as_str() == Some("dept"))
            .unwrap();
        assert_eq!(dept.validity, Some(Validity::Event(Chronon::new(20))));
        // Planner lookup sees the newest value; destroy ends it…
        assert_eq!(store.latest_tablestat("faculty", "versions"), Some(18));
        assert_eq!(store.latest_tablestat("faculty", "nope"), None);
        store.record_tablestats(Chronon::new(40), "faculty", Vec::new());
        assert_eq!(store.latest_tablestat("faculty", "rows"), None);
        assert_eq!(store.latest_tablestat("dept", "rows"), Some(3));
        // …without rewriting the past.
        assert_eq!(
            value_of(Some(&AsOfSpec::At(Chronon::new(35))), "faculty", "rows"),
            Some(9)
        );
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
