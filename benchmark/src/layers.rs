//! The per-layer pass: in process, one thread, same seed.
//!
//! The first statements of the stream are run through the
//! engine's *public* functions with the benchmark's own spans around
//! each call — nothing inside the program is instrumented:
//!
//! * pass **U** (untraced) runs every statement through the real
//!   `Session::run` + `render_outcomes` and checks each answer; it is the
//!   whole that the layers must add up to (`db.session.run_us`);
//! * pass **T** (traced) runs each read as the benchmark's own
//!   composition of the same pipeline — `parse_program` →
//!   `analyze_retrieve` → `execute_plan` over a timing
//!   `RelationProvider` → the monitoring calls → `render_outcomes` →
//!   freeing the plan and the AST — one span per call, and each write
//!   through `Session::run` as one opaque span;
//! * pass **T0** repeats T with the recorder disabled; T over T0 is the
//!   tracing overhead.
//!
//! Each pass loads its own fresh durable database, so cache and
//! relation state evolve identically.  Storage, WAL, pager, segment,
//! algebra and core-reference numbers come from direct calls on those
//! layers, fed the workload's own history.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use chronos_algebra::expr::Predicate;
use chronos_algebra::join::overlap_join;
use chronos_algebra::ops::hash_join;
use chronos_core::calendar::date;
use chronos_core::chronon::Chronon;
use chronos_core::clock::ManualClock;
use chronos_core::relation::static_rel::StaticRelation;
use chronos_core::relation::temporal::{BitemporalTable, TemporalStore};
use chronos_core::relation::HistoricalOp;
use chronos_core::schema::{RelationClass, TemporalSignature};
use chronos_core::value::Value;
use chronos_db::net::render_outcomes;
use chronos_db::{Database, Engine, EngineSession, ExecOutcome, QueryClient, QueryServer};
use chronos_obs::{HistogramSnapshot, Recorder};
use chronos_storage::heap::HeapFile;
use chronos_storage::pager::{BufferPool, FilePager};
use chronos_storage::table::StoredBitemporalTable;
use chronos_storage::wal::{Wal, WalRecord};
use chronos_tquel::analyze::analyze_retrieve;
use chronos_tquel::ast::Statement;
use chronos_tquel::exec::execute_plan;
use chronos_tquel::provider::{AsOfSpec, RelationInfo, RelationProvider, SourceRow};
use chronos_tquel::{fingerprint, parse_program, TquelResult};

use crate::e2e::Config;
use crate::model::{schema, Plan, Stmt, Workload, CLOCK_START};
use crate::spans::{self_times_by_name, unattributed_ratio, SpanRecorder};
use crate::stats::{median, Summary};
use crate::{Outcome, Tally};

/// Reads of the stream the pass covers (writes: up to
/// [`MAX_WRITES`], whichever comes first).
const MAX_READS: usize = 2_000;
/// A join statement costs ~50× a lookup; cover fewer of them.
const MAX_JOIN_READS: usize = 200;
/// Writes of the stream the pass covers.
const MAX_WRITES: usize = 500;
/// Repeats of a direct storage call whose median is reported.
const PROBES: usize = 64;

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn time_ns<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_nanos() as f64)
}

/// Median (µs) and quartiles of nanosecond samples.
fn summary_us(ns: &[f64]) -> Summary {
    let us: Vec<f64> = ns.iter().map(|v| v / 1e3).collect();
    Summary::of(&us, us.len() as u64)
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// `Ok` when a layer agreed with the reference it is checked against.
fn agree(same: bool, difference: impl FnOnce() -> String) -> Result<(), String> {
    if same {
        Ok(())
    } else {
        Err(difference())
    }
}

/// A fresh durable in-process database behind the concurrent engine,
/// its clock where the server's is advanced to.
struct Instance {
    engine: Arc<Engine>,
    session: EngineSession,
    dir: std::path::PathBuf,
}

fn clock() -> Arc<ManualClock> {
    Arc::new(ManualClock::new(date(CLOCK_START).expect("a valid date")))
}

impl Instance {
    fn create(dir: &Path, plan: &Plan) -> Result<Instance, String> {
        let _ = std::fs::remove_dir_all(dir);
        let db =
            Database::open(dir, clock()).map_err(|e| format!("open {}: {e}", dir.display()))?;
        let engine = Engine::start(db);
        let mut session = engine.session();
        for ddl in plan.ddl.iter().chain([&plan.ranges]) {
            session.run(ddl).map_err(|e| format!("{ddl}: {e}"))?;
        }
        Ok(Instance {
            engine,
            session,
            dir: dir.to_path_buf(),
        })
    }

    /// Runs one statement the way the TQuel service does — fresh
    /// snapshot, `Session::run`, `render_outcomes` — returning the body
    /// (or the error text), the time inside `Session::run`, and the time
    /// rendering.
    fn run(&mut self, text: &str) -> ((bool, String), f64, f64) {
        self.session.refresh();
        let (result, run_ns) = time_ns(|| self.session.run(text));
        match result {
            Ok(outcomes) => {
                let (body, render_ns) = time_ns(|| render_outcomes(&outcomes));
                ((true, body), run_ns, render_ns)
            }
            Err(e) => ((false, e.to_string()), run_ns, 0.0),
        }
    }

    /// Loads the plan through `Session::run`, checking every answer;
    /// returns each commit's time inside `Session::run`, ns.
    fn load(&mut self, plan: &Plan, tally: &mut Tally) -> Vec<f64> {
        plan.load
            .iter()
            .map(|stmt| {
                let ((ok, body), run_ns, _) = self.run(&stmt.text);
                tally.check(&stmt.text, stmt.expect.check(ok, &body));
                run_ns
            })
            .collect()
    }

    fn close(self) {
        drop(self.session);
        self.engine.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The timing `RelationProvider` wrapper around `Database`: clamps
/// transaction-time scans to the durable watermark exactly as an engine
/// session's snapshot pin does, and records how long the scans took and
/// how many rows they handed the evaluator.
struct TimingProvider<'a> {
    db: &'a Database,
    pin: Option<Chronon>,
    scan_ns: Cell<u64>,
    scanned: RefCell<Vec<u64>>,
}

impl<'a> TimingProvider<'a> {
    fn new(db: &'a Database) -> TimingProvider<'a> {
        TimingProvider {
            db,
            pin: db.last_commit_time(),
            scan_ns: Cell::new(0),
            scanned: RefCell::new(Vec::new()),
        }
    }

    /// Row combinations the evaluator examines: the product of the
    /// scans' sizes.
    fn examined(&self) -> u64 {
        self.scanned.borrow().iter().product()
    }
}

impl RelationProvider for TimingProvider<'_> {
    fn info(&self, relation: &str) -> Option<RelationInfo> {
        self.db.info(relation)
    }

    fn scan(&self, relation: &str, as_of: Option<&AsOfSpec>) -> TquelResult<Arc<Vec<SourceRow>>> {
        let has_tx = matches!(
            self.db.info(relation).map(|i| i.class),
            Some(RelationClass::StaticRollback | RelationClass::Temporal)
        );
        let clamped = match (self.pin, has_tx, as_of) {
            (Some(pin), true, None) => Some(AsOfSpec::At(pin)),
            (Some(pin), true, Some(AsOfSpec::At(t))) => Some(AsOfSpec::At((*t).min(pin))),
            (Some(pin), true, Some(AsOfSpec::Through(t1, t2))) => {
                Some(AsOfSpec::Through((*t1).min(pin), (*t2).min(pin)))
            }
            _ => as_of.copied(),
        };
        let started = Instant::now();
        let rows = RelationProvider::scan(self.db, relation, clamped.as_ref())?;
        self.scan_ns
            .set(self.scan_ns.get() + started.elapsed().as_nanos() as u64);
        self.scanned.borrow_mut().push(rows.len() as u64);
        Ok(rows)
    }

    fn estimated_rows(&self, relation: &str) -> Option<u64> {
        RelationProvider::estimated_rows(self.db, relation)
    }
}

/// What the traced pass counted besides its spans.
#[derive(Default)]
struct Examined {
    combinations: u64,
    results: u64,
}

/// One read as the benchmark's own composition of the public pipeline,
/// a span around each call.  Returns the rendered body.
fn traced_read(
    rec: &mut SpanRecorder,
    engine: &Engine,
    ranges: &HashMap<String, String>,
    text: &str,
    examined: &mut Examined,
) -> Result<String, String> {
    rec.span("stmt", |rec| {
        let stmts = rec
            .span("tquel.parser.parse", |_| parse_program(text))
            .map_err(|e| e.to_string())?;
        if !matches!(stmts.as_slice(), [Statement::Retrieve(_)]) {
            return Err("not a single retrieve".to_string());
        }
        engine
            .with_db(|db| {
                let Statement::Retrieve(retrieve) = &stmts[0] else {
                    unreachable!("checked above");
                };
                let provider = TimingProvider::new(db);
                let plan = rec
                    .span("tquel.analyze.analyze", |_| {
                        analyze_retrieve(retrieve, ranges, &provider)
                    })
                    .map_err(|e| e.to_string())?;
                let result = rec
                    .span("tquel.exec.evaluate", |rec| {
                        let result = execute_plan(&plan, &provider);
                        // The scans ran inside `execute_plan`; booking them
                        // as a child leaves evaluate its self time.
                        rec.leaf("db.provider.scan", provider.scan_ns.get());
                        result
                    })
                    .map_err(|e| e.to_string())?;
                examined.combinations += provider.examined();
                examined.results += result.len() as u64;
                // What `Session::run` adds around a statement when monitoring
                // is on (the default): a trace id, the literal-normalised
                // fingerprint, the memo's copy of the statement, and the fold
                // into the fingerprint store.
                rec.span("db.session.monitor", |_| {
                    std::hint::black_box(chronos_obs::next_trace_id());
                    let (hash, normalized) = fingerprint(&stmts[0]);
                    std::hint::black_box(stmts[0].clone());
                    db.recorder().fingerprints().record(
                        hash,
                        &normalized,
                        "retrieve",
                        provider.scan_ns.get(),
                        result.len() as u64,
                        0,
                        0,
                        None,
                    );
                });
                let body = rec.span("db.net.render", |_| {
                    render_outcomes(&[ExecOutcome::Retrieved(result)])
                });
                // `Session::run` also frees what it built before it returns.
                rec.span("db.session.cleanup", |_| drop(plan));
                Ok((body, stmts))
            })
            .map(|(body, stmts)| {
                rec.span("db.session.cleanup", |_| drop(stmts));
                body
            })
    })
}

/// One statement of pass T (or T0) through the traced composition;
/// returns its wall time, ns.
fn traced_stmt(
    rec: &mut SpanRecorder,
    instance: &mut Instance,
    ranges: &HashMap<String, String>,
    stmt: &Stmt,
    tally: &mut Tally,
    examined: &mut Examined,
) -> f64 {
    let started = Instant::now();
    let (ok, body) = if stmt.is_write {
        rec.span("stmt", |rec| {
            rec.span("db.session.modify", |_| instance.run(&stmt.text).0)
        })
    } else {
        match traced_read(rec, &instance.engine, ranges, &stmt.text, examined) {
            Ok(body) => (true, body),
            Err(e) => (false, e),
        }
    };
    let wall_ns = started.elapsed().as_nanos() as f64;
    tally.check(&stmt.text, stmt.expect.check(ok, &body));
    wall_ns
}

fn histogram_us(h: &HistogramSnapshot, fallback: &HistogramSnapshot, p: f64) -> f64 {
    let pick = if h.samples > 0 { h } else { fallback };
    pick.percentile(p).map_or(0.0, |ns| us(ns as f64))
}

fn mean_us(h: &HistogramSnapshot, fallback: &HistogramSnapshot) -> f64 {
    let pick = if h.samples > 0 { h } else { fallback };
    pick.mean_ns().map_or(0.0, |ns| us(ns as f64))
}

/// Evenly spread probe instants over a history's transaction times.
fn probe_instants(history: &[(Chronon, Vec<HistoricalOp>)]) -> Vec<Chronon> {
    let (first, last) = (history[0].0, history[history.len() - 1].0);
    (1..=PROBES as i64)
        .map(|i| first + last.since(first) * i / PROBES as i64)
        .collect()
}

/// Direct calls on storage, WAL, pager, segment, algebra and the core
/// reference, over the workload's primary temporal history.
fn storage_layers(
    history: &[(Chronon, Vec<HistoricalOp>)],
    user_bytes: u64,
    scratch: &Path,
    tally: &mut Tally,
    out: &mut Vec<(&'static str, Summary)>,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(scratch);
    std::fs::create_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let err = |e: chronos_storage::StorageError| e.to_string();
    let interval = TemporalSignature::Interval;

    // storage.table + the core reference it must agree with.
    let recorder = Arc::new(Recorder::new());
    let mut table = StoredBitemporalTable::in_memory(schema(), interval);
    table.set_recorder(Arc::clone(&recorder));
    let mut reference = BitemporalTable::new(schema(), interval);
    let mut commit_ns = Vec::with_capacity(history.len());
    for (tx, ops) in history {
        let (committed, ns) = time_ns(|| table.try_commit(*tx, ops));
        committed.map_err(err)?;
        commit_ns.push(ns);
        reference
            .commit(*tx, ops)
            .map_err(|e| format!("reference commit: {e}"))?;
    }
    out.push(("storage.table.try_commit_us", summary_us(&commit_ns)));
    let instants = probe_instants(history);
    let keys: Vec<Value> = reference
        .rows()
        .iter()
        .map(|r| r.tuple.get(0).clone())
        .take(PROBES)
        .collect();
    let valid_probe = date("06/01/71").expect("a valid date");

    let mut scan_ns = Vec::new();
    for _ in 0..PROBES / 4 {
        let (rows, ns) = time_ns(|| table.scan_rows());
        let rows = rows.map_err(err)?;
        scan_ns.push(ns);
        tally.check(
            "storage scan_rows",
            agree(rows.len() == reference.rows().len(), || {
                format!(
                    "{} rows, reference has {}",
                    rows.len(),
                    reference.rows().len()
                )
            }),
        );
    }
    out.push(("storage.table.scan_rows_us", summary_us(&scan_ns)));

    let (mut rollback_ns, mut ref_ns, mut point_ns, mut lookup_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for (i, t) in instants.iter().enumerate() {
        let (stored, ns) = time_ns(|| table.try_rollback_checkpointed(*t));
        rollback_ns.push(ns);
        let (expected, ns) = time_ns(|| reference.rollback(*t));
        ref_ns.push(ns);
        tally.check(
            "storage rollback vs core reference",
            agree(stored.map_err(err)? == expected, || {
                format!("states differ as of {t}")
            }),
        );
        let (rows, ns) = time_ns(|| table.valid_at_as_of(valid_probe, *t));
        point_ns.push(ns);
        tally.check(
            "storage valid_at_as_of vs core reference",
            agree(
                rows.map_err(err)?.len() == reference.valid_at_as_of(valid_probe, *t).len(),
                || format!("row counts differ as of {t}"),
            ),
        );
        let key = &keys[i % keys.len()];
        let (rows, ns) = time_ns(|| table.lookup_key_as_of(key, *t));
        lookup_ns.push(ns);
        let want = reference
            .rows()
            .iter()
            .filter(|r| r.tx.contains(*t) && r.tuple.get(0) == key)
            .count();
        tally.check(
            "storage lookup_key_as_of vs core reference",
            agree(rows.map_err(err)?.len() == want, || {
                format!("row counts differ for {key} as of {t}")
            }),
        );
    }
    out.push(("storage.table.rollback_us", summary_us(&rollback_ns)));
    out.push(("core.relation.rollback_ref_us", summary_us(&ref_ns)));
    out.push(("storage.table.valid_at_as_of_us", summary_us(&point_ns)));
    out.push(("storage.table.lookup_key_as_of_us", summary_us(&lookup_ns)));
    out.push((
        "storage.table.heap_pages",
        Summary::exact(f64::from(table.heap_pages()), 1),
    ));

    // algebra: what the joins cost when the operators that already
    // exist are handed the same rows (the floor a TQuel join can reach).
    let current = table.current_ref().clone();
    let pair = Predicate::attr_eq(0, keys[0].clone())
        .and(Predicate::attr_eq(3, keys[keys.len() - 1].clone()));
    let mut overlap_ns = Vec::new();
    for _ in 0..3 {
        let (joined, ns) = time_ns(|| overlap_join(&current, &current, &pair, "f2"));
        joined.map_err(|e| format!("overlap_join: {e}"))?;
        overlap_ns.push(ns);
    }
    out.push(("algebra.join.overlap_join_us", summary_us(&overlap_ns)));
    let mut snapshot = StaticRelation::new(schema());
    for row in current.rows() {
        if !snapshot.contains(&row.tuple) {
            snapshot
                .insert(row.tuple.clone())
                .map_err(|e| e.to_string())?;
        }
    }
    let mut hash_ns = Vec::new();
    for _ in 0..3 {
        let (joined, ns) = time_ns(|| hash_join(&snapshot, &snapshot, &[(0, 0)], "f2"));
        joined.map_err(|e| format!("hash_join: {e}"))?;
        hash_ns.push(ns);
    }
    out.push(("algebra.join.hash_join_us", summary_us(&hash_ns)));

    // storage.segment: freeze the closed versions, then look keys up
    // across the segment boundary.
    let (report, freeze_ns) = time_ns(|| table.freeze_into(&scratch.join("probe.seg")));
    let report = report.map_err(err)?;
    out.push((
        "storage.segment.freeze_ms",
        Summary::exact(freeze_ns / 1e6, 1),
    ));
    let before = recorder.snapshot();
    for (i, t) in instants.iter().enumerate() {
        let key = &keys[(i * 7) % keys.len()];
        let rows = table.lookup_key_as_of(key, *t).map_err(err)?;
        let want = reference
            .rows()
            .iter()
            .filter(|r| r.tx.contains(*t) && r.tuple.get(0) == key)
            .count();
        tally.check(
            "frozen lookup_key_as_of vs core reference",
            agree(rows.len() == want, || {
                format!("row counts differ for {key} as of {t}")
            }),
        );
    }
    let seen = recorder.snapshot().since(&before);
    out.push((
        "storage.segment.skip_ratio",
        Summary::exact(
            ratio(seen.segment_skips, seen.segment_skips + seen.segment_hits),
            seen.segment_skips + seen.segment_hits,
        ),
    ));
    let dup = match (&report, table.segments().first()) {
        (Some(_), Some(seg)) => seg.stats().dup_factor_x1000 as f64 / 1e3,
        _ => 0.0, // nothing was freezable: no closed versions yet
    };
    out.push(("storage.segment.dup_factor", Summary::exact(dup, 1)));

    // storage.wal: the same history as log records.
    let records: Vec<WalRecord> = history
        .iter()
        .map(|(tx, ops)| WalRecord {
            rel_id: 1,
            tx_time: *tx,
            ops: ops.clone(),
        })
        .collect();
    let mut wal = Wal::open(&scratch.join("probe.wal")).map_err(err)?;
    let mut sync_ns = Vec::new();
    for rec in records.iter().take(PROBES * 2) {
        let (appended, ns) = time_ns(|| wal.append(rec));
        appended.map_err(err)?;
        sync_ns.push(ns);
    }
    out.push(("storage.wal.append_sync_us", summary_us(&sync_ns)));
    let mut group_ns = Vec::new();
    for group in records[(PROBES * 2).min(records.len())..].chunks(8) {
        for rec in group {
            wal.append_no_sync(rec).map_err(err)?;
        }
        let (synced, ns) = time_ns(|| wal.group_sync());
        synced.map_err(err)?;
        group_ns.push(ns);
    }
    if group_ns.is_empty() {
        group_ns.push(sync_ns[sync_ns.len() / 2]);
    }
    out.push(("storage.wal.group_sync_us", summary_us(&group_ns)));
    out.push((
        "storage.wal.bytes_per_user_byte",
        Summary::exact(wal.len().map_err(err)? as f64 / user_bytes as f64, 1),
    ));

    // storage.pager: the table's own pool size (64 frames) over a file
    // pager holding one record per stored version.
    let pool = BufferPool::new(
        FilePager::open(&scratch.join("probe.heap")).map_err(err)?,
        64,
    );
    let mut heap = HeapFile::open(pool).map_err(err)?;
    let mut rids = Vec::new();
    for row in reference.rows() {
        let bytes = format!("{:?}|{}|{}", row.tuple, row.validity, row.tx);
        rids.push(heap.insert(bytes.as_bytes()).map_err(err)?);
    }
    for _ in 0..4 {
        heap.scan(|_, _| ()).map_err(err)?;
    }
    for i in 0..rids.len() * 2 {
        heap.get(rids[(i * 7_919) % rids.len()]).map_err(err)?;
    }
    let (hits, misses) = heap.pool().stats();
    out.push((
        "storage.pager.hit_ratio",
        Summary::exact(ratio(hits, hits + misses), hits + misses),
    ));
    let _ = std::fs::remove_dir_all(scratch);
    Ok(())
}

/// Loopback wire cost against the in-process engine: ping, the overhead
/// of `QueryClient::execute` over `Session::run` on one statement, and
/// response bytes per statement.
fn net_layers(
    instance: &mut Instance,
    plan: &Plan,
    reads: &[&Stmt],
    out: &mut Vec<(&'static str, Summary)>,
) -> Result<(), String> {
    let io = |e: std::io::Error| format!("loopback service: {e}");
    let server = QueryServer::serve(Arc::clone(&instance.engine), "127.0.0.1:0").map_err(io)?;
    let mut client = QueryClient::connect(&server.addr().to_string()).map_err(io)?;
    client.execute(&plan.ranges).map_err(io)?;
    let mut ping_ns = Vec::new();
    for _ in 0..1_000 {
        let (pong, ns) = time_ns(|| client.ping());
        pong.map_err(io)?;
        ping_ns.push(ns);
    }
    out.push(("db.net.ping_us", summary_us(&ping_ns)));
    // The same cheap statement both ways, its scan cached, in alternating
    // blocks of 100 (statement-by-statement alternation would bounce the
    // cached rows between the two threads' cores and slow both sides):
    // what is left is framing, two socket hops and the thread hand-off.
    let var = plan.range_vars[0].0;
    let probe = &format!("retrieve ({var}.name) where {var}.name = \"\"");
    let (mut wire_ns, mut local_ns) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        for _ in 0..100 {
            let (r, ns) = time_ns(|| client.execute(probe));
            if !r.map_err(io)?.ok {
                return Err(format!("the wire probe {probe:?} failed"));
            }
            wire_ns.push(ns);
        }
        for _ in 0..100 {
            let (_, run_ns, render_ns) = instance.run(probe);
            local_ns.push(run_ns + render_ns);
        }
    }
    let overhead = us(median(&wire_ns) - median(&local_ns));
    out.push(("db.net.overhead_us", Summary::exact(overhead, 300)));
    let mut bytes = 0usize;
    for stmt in reads.iter().take(300) {
        let r = client.execute(&stmt.text).map_err(io)?;
        bytes += 4 + 1 + 1 + r.trace_id.len() + r.body.len();
    }
    let n = reads.len().min(300);
    out.push((
        "db.net.bytes_out_per_stmt",
        Summary::exact(bytes as f64 / n as f64, n as u64),
    ));
    drop(client);
    server.shutdown();
    Ok(())
}

/// Runs the per-layer pass of `workload`.
pub fn run(workload: Workload, cfg: &Config) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut out: Vec<(&'static str, Summary)> = Vec::new();
    let mut plan = Plan::generate(workload, cfg.seed);
    let max_reads = if workload == Workload::TemporalJoin {
        MAX_JOIN_READS
    } else {
        MAX_READS
    };
    let mut stmts: Vec<Stmt> = Vec::new();
    let (mut n_reads, mut n_writes) = (0, 0);
    while n_reads < max_reads && n_writes < MAX_WRITES {
        let stmt = plan.stream.next_stmt();
        if stmt.is_write {
            n_writes += 1;
        } else {
            n_reads += 1;
        }
        stmts.push(stmt);
    }
    let reads: Vec<&Stmt> = stmts.iter().filter(|s| !s.is_write).collect();
    let dir = |pass: &str| {
        cfg.data_dir
            .join(format!("{}-traced-{pass}", workload.name()))
    };

    // Three instances, loaded alike.  Each statement runs once on every
    // instance, back to back: untraced (pass U) on one, traced (T) on the
    // next, traced with the recorder off (T0) on the third — and the
    // assignment rotates with the statement.  Every instance thus sees
    // the whole stream once (cache and relation state evolve as in a
    // single pass), while drift in the machine's state and the accidents
    // of each instance's memory layout fall on the three passes equally,
    // so their totals compare.
    let mut instances = Vec::with_capacity(3);
    let mut modify_ns = Vec::new();
    for pass in ["a", "b", "c"] {
        let mut instance = Instance::create(&dir(pass), &plan)?;
        modify_ns = instance.load(&plan, &mut tally);
        instances.push(instance);
    }
    let loaded = instances[0].engine.stats();
    let ranges: HashMap<String, String> = plan
        .range_vars
        .iter()
        .map(|(var, rel)| (var.to_string(), rel.to_string()))
        .collect();
    let mut examined = Examined::default();
    let (mut rec, mut rec0) = (SpanRecorder::new(), SpanRecorder::disabled());
    let (mut run_ns, mut modify_window_ns) = (Vec::new(), Vec::new());
    // Pass U's `Session::run` + render time of each read, by statement.
    let mut whole_read_ns: BTreeMap<u64, f64> = BTreeMap::new();
    let (mut t_wall_ns, mut t0_wall_ns) = (0.0, 0.0);
    for (i, stmt) in stmts.iter().enumerate() {
        rec.statement(i as u64);
        for (k, instance) in instances.iter_mut().enumerate() {
            match (i + k) % 3 {
                0 => {
                    // Pass U: the real thing, untraced.
                    let ((ok, body), ns, render_ns) = instance.run(&stmt.text);
                    tally.check(&stmt.text, stmt.expect.check(ok, &body));
                    if stmt.is_write {
                        modify_window_ns.push(ns);
                    } else {
                        run_ns.push(ns);
                        whole_read_ns.insert(i as u64, ns + render_ns);
                    }
                }
                // Writes take the same opaque path in T and T0 and their
                // fsyncs are noisy: only reads price the recorder.
                1 => {
                    let ns =
                        traced_stmt(&mut rec, instance, &ranges, stmt, &mut tally, &mut examined);
                    t_wall_ns += if stmt.is_write { 0.0 } else { ns };
                }
                _ => {
                    let ns = traced_stmt(
                        &mut rec0,
                        instance,
                        &ranges,
                        stmt,
                        &mut tally,
                        &mut Examined::default(),
                    );
                    t0_wall_ns += if stmt.is_write { 0.0 } else { ns };
                }
            }
        }
    }
    let mut u = instances.swap_remove(0);
    for instance in instances {
        instance.close();
    }
    let after = u.engine.stats();
    let window = after.metrics.since(&loaded.metrics);
    out.push(("db.session.run_us", summary_us(&run_ns)));
    let lookups =
        (after.cache.hits - loaded.cache.hits) + (after.cache.misses - loaded.cache.misses);
    out.push((
        "db.cache.hit_ratio",
        Summary::exact(
            ratio(after.cache.hits - loaded.cache.hits, lookups),
            lookups,
        ),
    ));
    out.push((
        "db.cache.frozen_hit_ratio",
        Summary::exact(
            ratio(after.cache.frozen_hits - loaded.cache.frozen_hits, lookups),
            lookups,
        ),
    ));
    // Commit stages: the window's commits where it has any, otherwise
    // the load's (a read-only workload's only writes).
    let life = &after.metrics;
    let commits = if window.commits > 0 { &window } else { life };
    out.push((
        "db.engine.fsyncs_per_commit",
        Summary::exact(ratio(commits.wal_fsyncs, commits.commits), commits.commits),
    ));
    out.push((
        "db.engine.group_batch_avg",
        Summary::exact(
            ratio(commits.commits, commits.group_commit_batches),
            commits.group_commit_batches,
        ),
    ));
    for (name, h, all) in [
        (
            "db.engine.stage_queue_wait_p50_us",
            &window.commit_queue_wait,
            &life.commit_queue_wait,
        ),
        (
            "db.engine.stage_apply_p50_us",
            &window.commit_apply,
            &life.commit_apply,
        ),
        (
            "db.engine.stage_fsync_p50_us",
            &window.commit_fsync,
            &life.commit_fsync,
        ),
        (
            "db.engine.stage_ack_p50_us",
            &window.commit_ack,
            &life.commit_ack,
        ),
    ] {
        let samples = if h.samples > 0 {
            h.samples
        } else {
            all.samples
        };
        out.push((name, Summary::exact(histogram_us(h, all, 50.0), samples)));
    }
    out.push((
        "db.engine.stage_apply_mean_us",
        Summary::exact(
            mean_us(&window.commit_apply, &life.commit_apply),
            commits.commits,
        ),
    ));
    out.push((
        "db.engine.stage_fsync_mean_us",
        Summary::exact(
            mean_us(&window.commit_fsync, &life.commit_fsync),
            commits.commits,
        ),
    ));
    let modify = if modify_window_ns.is_empty() {
        &modify_ns
    } else {
        &modify_window_ns
    };
    out.push(("db.session.modify_us", summary_us(modify)));
    net_layers(&mut u, &plan, &reads, &mut out)?;
    let mut checkpoint_ns = Vec::new();
    for _ in 0..3 {
        let (done, ns) = time_ns(|| u.engine.checkpoint());
        done.map_err(|e| format!("checkpoint: {e}"))?;
        checkpoint_ns.push(ns / 1e3);
    }
    out.push(("db.checkpoint.checkpoint_ms", summary_us(&checkpoint_ns)));
    // Reopen the finished directory in process.
    let finished = u.dir.clone();
    drop(u.session);
    u.engine.shutdown();
    drop(u.engine);
    let mut open_ns = Vec::new();
    for _ in 0..3 {
        let (db, ns) = time_ns(|| Database::open(&finished, clock()));
        drop(db.map_err(|e| format!("reopen {}: {e}", finished.display()))?);
        open_ns.push(ns / 1e3);
    }
    out.push(("db.open.open_ms", summary_us(&open_ns)));
    let _ = std::fs::remove_dir_all(&finished);

    // Engine::commit with the statements' operations, no TQuel: what a
    // write costs below the session.
    let mut direct = Instance::create(&dir("commit"), &plan)?;
    let bare: Vec<&Stmt> = if modify_window_ns.is_empty() {
        plan.load.iter().collect()
    } else {
        // The window's writes land on the loaded state.
        direct.load(&plan, &mut tally);
        stmts.iter().filter(|s| s.is_write).collect()
    };
    let mut engine_commit_ns = Vec::new();
    for stmt in bare {
        let (rel, ops) = stmt.commit.as_ref().expect("writes carry their operations");
        let (committed, ns) = time_ns(|| direct.engine.commit(rel, ops));
        tally.check(&stmt.text, committed.map(|_| ()).map_err(|e| e.to_string()));
        engine_commit_ns.push(ns);
    }
    direct.close();
    out.push(("db.engine.commit_us", summary_us(&engine_commit_ns)));
    out.push((
        "db.session.modify_overhead_us",
        Summary::exact(
            us(median(modify) - median(&engine_commit_ns)),
            modify.len() as u64,
        ),
    ));

    // Pass T's spans, layer by layer.
    let by_name = self_times_by_name(rec.spans());
    for (metric, span) in [
        ("tquel.parser.parse_us", "tquel.parser.parse"),
        ("tquel.analyze.analyze_us", "tquel.analyze.analyze"),
        ("tquel.exec.evaluate_us", "tquel.exec.evaluate"),
        ("db.provider.scan_us", "db.provider.scan"),
        ("db.net.render_us", "db.net.render"),
        ("db.session.monitor_us", "db.session.monitor"),
    ] {
        let samples = by_name
            .get(span)
            .ok_or_else(|| format!("the traced pass recorded no {span} span"))?;
        out.push((metric, summary_us(samples)));
    }
    out.push((
        "tquel.exec.rows_examined_per_result",
        Summary::exact(
            ratio(examined.combinations, examined.results),
            examined.results,
        ),
    ));
    // The share of the real `Session::run` + render time (pass U) that
    // the same read's layer spans (pass T) do not account for; median
    // over the reads.
    out.push((
        "trace.unattributed_ratio",
        Summary::exact(
            unattributed_ratio(rec.spans(), &whole_read_ns),
            reads.len() as u64,
        ),
    ));
    out.push((
        "trace.overhead_ratio",
        Summary::exact(t_wall_ns / t0_wall_ns, reads.len() as u64),
    ));
    let spans_path = cfg
        .data_dir
        .join(format!("{}.spans.jsonl", workload.name()));
    std::fs::File::create(&spans_path)
        .and_then(|f| {
            let mut w = std::io::BufWriter::new(f);
            rec.write_jsonl(&mut w)?;
            std::io::Write::flush(&mut w)
        })
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;

    // Storage and below, on the primary temporal relation's history: the
    // load, then whatever the covered statements wrote to it.
    let primary = workload.primary_relation();
    let mut history = plan.primary_history();
    let mut next_tx = plan.load.last().and_then(|s| s.tx).expect("a load") + 1;
    for stmt in &stmts {
        if let Some((rel, ops)) = &stmt.commit {
            if *rel == primary {
                history.push((next_tx, ops.clone()));
                next_tx = next_tx + 1;
            }
        }
    }
    let user_bytes: u64 = plan
        .load
        .iter()
        .chain(&stmts)
        .filter(|s| s.commit.as_ref().is_some_and(|(rel, _)| *rel == primary))
        .map(|s| s.user_bytes)
        .sum();
    storage_layers(&history, user_bytes, &dir("storage"), &mut tally, &mut out)?;

    let notes = vec![
        ("statements", stmts.len().to_string()),
        ("reads", reads.len().to_string()),
        ("writes", (stmts.len() - reads.len()).to_string()),
        ("load_commits", plan.load.len().to_string()),
        ("primary_history_commits", history.len().to_string()),
        ("spans", rec.spans().len().to_string()),
        ("spans_file", spans_path.display().to_string()),
        ("pass_t_reads_wall_ms", (t_wall_ns / 1e6).to_string()),
        ("pass_t0_reads_wall_ms", (t0_wall_ns / 1e6).to_string()),
    ];
    Ok(Outcome {
        metrics: out,
        attempted: tally.attempted,
        failed: tally.failed,
        mismatches: tally.mismatches,
        notes,
    })
}
