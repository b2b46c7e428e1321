//! Sessions: executing TQuel programs against a database.
//!
//! A [`Session`] tracks `range of` declarations and dispatches each
//! statement: retrieves go to the `chronos-tquel` evaluator under the
//! session's snapshot pin; data definition and modification statements
//! are lowered here to the uniform [`HistoricalOp`] vocabulary and
//! committed through the [`Engine`]'s group-commit queue.
//!
//! ## Modification semantics by class
//!
//! * **static** — destructive insert/delete/replace (§4.1);
//! * **static rollback** — the same operations, recorded append-only at
//!   the allocated transaction time (§4.2);
//! * **historical / temporal, interval** — `append` records a new fact
//!   over its `valid` period (default `[now, ∞)`); `delete` *logically
//!   deletes*: it closes the validity of affected rows at `now`
//!   (future-only rows are retracted outright); `replace` terminates the
//!   old fact where the new period begins and records the new fact —
//!   exactly the transaction shape that produces the paper's Figure 8;
//! * **event relations** — `append` records an event at `valid at e`
//!   (default `now`); `delete` retracts matching events; `replace`
//!   retracts and re-records.

use std::collections::HashMap;
use std::sync::Arc;

use chronos_algebra::expr::Predicate;
use chronos_core::calendar::date;
use chronos_core::chronon::Chronon;
use chronos_core::period::Period;
use chronos_core::relation::historical::HistoricalRow;
use chronos_core::relation::{HistoricalOp, RowSelector, Validity};
use chronos_core::schema::{RelationClass, Schema, TemporalSignature};
use chronos_core::timepoint::TimePoint;
use chronos_core::tuple::Tuple;
use chronos_core::value::{AttrType, Value};
use chronos_obs::trace::{noop_recorder, Recorder};
use chronos_tquel::analyze::{analyze_valid_const, analyze_where_single, ValidPlan};
use chronos_tquel::ast::{
    Assignment, ClassAst, Operand, Retrieve, Statement, ValidClause, WhereExpr,
};
use chronos_tquel::exec::{execute_retrieve_traced, ResultRelation};
use chronos_tquel::parser::{parse_program, parse_statement};
use chronos_tquel::provider::{RelationInfo, RelationProvider};
use chronos_tquel::unparse::unparse;
use chronos_tquel::TquelError;

use crate::database::Database;
use crate::engine::{Engine, PinnedProvider};
use crate::error::{DbError, DbResult};

/// What executing one statement produced.
#[derive(Debug)]
pub enum ExecOutcome {
    /// A `range of` declaration was recorded.
    Declared,
    /// A retrieve produced a derived relation.
    Retrieved(ResultRelation),
    /// A `retrieve into` materialized a derived relation in the catalog.
    Materialized {
        /// The new relation's name.
        relation: String,
        /// How many rows it holds.
        rows: usize,
    },
    /// An `append` committed (with its transaction time).
    Appended(Chronon),
    /// A `delete` affected this many rows.
    Deleted(usize),
    /// A `replace` affected this many rows.
    Replaced(usize),
    /// A `create` defined a relation.
    Created,
    /// A `destroy` dropped a relation.
    Destroyed,
    /// An `explain`/`profile` prefix traced the inner statement.
    Explained {
        /// True when invoked as `profile` (timings included).
        profile: bool,
        /// The rendered span tree plus counter deltas.
        report: String,
    },
    /// An `analyze` collected storage statistics into `sys$tablestats`.
    Analyzed {
        /// The analyzed relation.
        relation: String,
        /// How many statistics the sample holds.
        stats: usize,
    },
}

impl ExecOutcome {
    /// The derived relation, if this outcome carries one.
    pub fn relation(&self) -> Option<&ResultRelation> {
        match self {
            ExecOutcome::Retrieved(r) => Some(r),
            _ => None,
        }
    }
}

/// A TQuel session over a shared [`Engine`] (see [`Engine::session`]).
///
/// Reads are clamped to the session's snapshot pin; writes go through
/// the engine's group-commit queue, and DDL runs exclusively on its
/// writer thread.  Embedded use and the TQuel service run this same
/// code.
pub struct Session {
    engine: Arc<Engine>,
    /// The session's transaction-time snapshot: scans of relations
    /// with transaction time are clamped to `<= pin`.
    pin: Chronon,
    /// Registry id (`sys$sessions` row key).
    session_id: u64,
    ranges: HashMap<String, String>,
    /// Trace id to attribute the next [`run`](Self::run) to
    /// (client-chosen, set via [`set_trace_id`](Self::set_trace_id));
    /// consumed by the next `run`, which mints one when it is empty.
    pending_trace: String,
    /// Trace id of the most recent [`run`](Self::run) (empty before the
    /// first one); echoed in wire responses and stamped on slow-log
    /// admissions and `slow_query` journal events.
    last_trace: String,
    /// The monitored statement's normalized text, rewritten in place
    /// for each one.
    fingerprint_text: String,
}

impl Session {
    /// A fresh session (no range declarations) registered as
    /// `session_id` and pinned at `pin`.
    pub(crate) fn new(engine: Arc<Engine>, pin: Chronon, session_id: u64) -> Session {
        Session {
            engine,
            pin,
            session_id,
            ranges: HashMap::new(),
            pending_trace: String::new(),
            last_trace: String::new(),
            fingerprint_text: String::new(),
        }
    }

    /// The session's current snapshot pin.
    pub fn pin(&self) -> Chronon {
        self.pin
    }

    /// Advances the snapshot to the current durable watermark —
    /// "begin a new read transaction".  Pins never move backwards.
    pub fn refresh(&mut self) {
        self.advance_pin(self.engine.snapshot());
    }

    fn advance_pin(&mut self, to: Chronon) {
        self.pin = self.pin.max(to);
        self.engine
            .session_registry()
            .session_refreshed(self.session_id, self.pin.ticks());
    }

    /// The session's registry id (the `sys$sessions` row key).
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Attributes the next [`run`](Self::run) to `trace_id` instead of
    /// a minted one (the TQuel service sets the client-chosen id here).
    pub fn set_trace_id(&mut self, trace_id: &str) {
        if !trace_id.is_empty() {
            self.pending_trace.clear();
            self.pending_trace.push_str(trace_id);
        }
    }

    /// The trace id of the most recent [`run`](Self::run) (empty before
    /// the first one).
    pub fn last_trace_id(&self) -> &str {
        &self.last_trace
    }

    /// Parses and executes a TQuel program, returning one outcome per
    /// statement.  Execution stops at the first error.
    pub fn run(&mut self, src: &str) -> DbResult<Vec<ExecOutcome>> {
        // One trace id per request: the whole program runs under the
        // client-chosen id when one is pending, a minted one otherwise.
        // Both buffers are reused, so this allocates nothing once warm.
        if self.pending_trace.is_empty() {
            chronos_obs::mint_trace_id(&mut self.last_trace);
        } else {
            std::mem::swap(&mut self.last_trace, &mut self.pending_trace);
            self.pending_trace.clear();
        }
        let stmts = parse_program(src)?;
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in &stmts {
            out.push(self.execute_monitored(stmt)?);
        }
        Ok(out)
    }

    /// Parses and executes a program, returning the last derived
    /// relation (convenience for query-shaped programs).
    pub fn query(&mut self, src: &str) -> DbResult<ResultRelation> {
        let outcomes = self.run(src)?;
        outcomes
            .into_iter()
            .rev()
            .find_map(|o| match o {
                ExecOutcome::Retrieved(r) => Some(r),
                _ => None,
            })
            .ok_or_else(|| DbError::Catalog("program contained no retrieve".into()))
    }

    /// Executes one parsed statement.
    pub fn execute(&mut self, stmt: &Statement) -> DbResult<ExecOutcome> {
        match stmt {
            Statement::RangeDecl { var, relation } => {
                // Resolve through the provider so `sys$` system relations
                // (catalog-less) are rangeable just like stored ones.
                self.info(relation)?;
                self.ranges.insert(var.clone(), relation.clone());
                Ok(ExecOutcome::Declared)
            }
            Statement::Retrieve(r) => {
                let result = self.retrieve(r, noop_recorder())?;
                if let Some(into) = &r.into {
                    let n = result.len();
                    self.materialize(into, &result)?;
                    return Ok(ExecOutcome::Materialized {
                        relation: into.clone(),
                        rows: n,
                    });
                }
                Ok(ExecOutcome::Retrieved(result))
            }
            Statement::Append {
                relation,
                assignments,
                valid,
            } => self.append(relation, assignments, valid.as_ref()),
            Statement::Delete { var, where_clause } => self.delete(var, where_clause.as_ref()),
            Statement::Replace {
                var,
                assignments,
                valid,
                where_clause,
            } => self.replace(var, assignments, valid.as_ref(), where_clause.as_ref()),
            Statement::Create {
                relation,
                attrs,
                class,
                event,
            } => {
                let schema = Schema::new(
                    attrs
                        .iter()
                        .map(|(n, t)| chronos_core::schema::Attribute::new(n, *t))
                        .collect(),
                )?;
                let class = match class {
                    ClassAst::Static => RelationClass::Static,
                    ClassAst::Rollback => RelationClass::StaticRollback,
                    ClassAst::Historical => RelationClass::Historical,
                    ClassAst::Temporal => RelationClass::Temporal,
                };
                let signature = if *event {
                    TemporalSignature::Event
                } else {
                    TemporalSignature::Interval
                };
                let relation = relation.clone();
                self.engine.exclusive(move |db| {
                    db.create_relation(&relation, schema, class, signature)
                })??;
                Ok(ExecOutcome::Created)
            }
            Statement::Destroy { relation } => {
                let relation = relation.clone();
                self.engine
                    .exclusive(move |db| db.destroy_relation(&relation))??;
                Ok(ExecOutcome::Destroyed)
            }
            Statement::Explain { profile, inner } => self.explain(*profile, inner),
            Statement::Analyze { relation } => {
                // A read-lock suffices: statistics collection only scans
                // storage and records into the (interior-mutable)
                // telemetry rings — no catalog mutation.
                let stats = self.engine.read_db()?.analyze_relation(relation)?;
                Ok(ExecOutcome::Analyzed {
                    relation: relation.clone(),
                    stats,
                })
            }
        }
    }

    /// [`execute`](Self::execute) wrapped in workload analytics and
    /// slow-query capture.
    ///
    /// With the recorder enabled, every statement's execution is folded
    /// into the query-fingerprint store under its literal-normalized
    /// hash (calls, latency, rows out — the `sys$queries`
    /// projection).  When additionally the statement's
    /// wall time meets the recorder's slow-log threshold, its rendered
    /// span tree plus counter deltas — the `profile` artifact — is
    /// admitted to the bounded slow-query ring and a `slow_query` event
    /// is journaled.  With the recorder disabled this is a registry note
    /// and a branch on top of [`execute`](Self::execute); what the
    /// enabled path adds is gated by the T10 experiment (≤ 5%).
    pub fn execute_monitored(&mut self, stmt: &Statement) -> DbResult<ExecOutcome> {
        self.engine
            .session_registry()
            .note_statement(self.session_id, &self.last_trace);
        // `explain`/`profile` runs its own capture (wrapping it would
        // steal that capture — newest trace request wins) and records
        // its own fingerprint, so it — and any disabled recorder —
        // takes the plain path.
        let recorder = Arc::clone(self.engine.recorder());
        if !recorder.is_enabled() || matches!(stmt, Statement::Explain { .. }) {
            return self.execute(stmt);
        }
        // Span capture is dearer than fingerprint aggregation, so it
        // stays gated behind the slow log being armed.
        let capture = recorder.slowlog().is_enabled();
        let threshold = recorder.slowlog().threshold_ns();
        let before = capture.then(|| {
            let snapshot = recorder.snapshot();
            recorder.begin_trace();
            snapshot
        });
        let started = std::time::Instant::now();
        let result = if capture {
            // The root span guarantees every captured profile has a
            // non-empty tree; access-path details (e.g. an `as of`
            // scan's "tx-index stab") are recorded by the layers below
            // on this same recorder.
            let span = recorder.span("session/statement");
            span.detail(statement_kind(stmt).to_string());
            self.execute(stmt)
        } else {
            self.execute(stmt)
        };
        let elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // End the capture even on error so a failed statement does not
        // leave a stale capture eating later spans.
        let report = before.as_ref().and_then(|b| recorder.end_trace(b));
        let rows_out = match &result {
            Ok(ExecOutcome::Retrieved(r)) => r.len() as u64,
            Ok(ExecOutcome::Materialized { rows, .. }) => *rows as u64,
            _ => 0,
        };
        chronos_tquel::normalize_into(stmt, &mut self.fingerprint_text);
        let hash = recorder.fingerprints().record_statement(
            &self.fingerprint_text,
            statement_kind(stmt),
            elapsed_ns,
            rows_out,
            report.as_ref().and_then(access_path_of).as_deref(),
        );
        if let Some(report) = report {
            for (_, factor) in report.misestimates() {
                recorder.fingerprints().record_misestimate(hash, factor);
            }
            if elapsed_ns >= threshold {
                let statement = unparse(stmt);
                let seq = recorder.slowlog().admit(
                    statement.clone(),
                    elapsed_ns,
                    report.render(true),
                    self.now().ticks(),
                    self.session_id,
                    self.last_trace.clone(),
                );
                recorder.emit_event(
                    "slow_query",
                    &[
                        ("slow_seq", seq.into()),
                        ("duration_ns", elapsed_ns.into()),
                        ("threshold_ns", threshold.into()),
                        ("session", self.session_id.into()),
                        ("trace_id", self.last_trace.as_str().into()),
                        ("statement", statement.as_str().into()),
                    ],
                );
            }
        }
        result
    }

    /// Executes `inner` with tracing active and returns the rendered
    /// span tree (`explain` shows structure, access paths, and row
    /// counts; `profile` adds wall times).
    fn explain(&mut self, profile: bool, inner: &Statement) -> DbResult<ExecOutcome> {
        let recorder = Arc::clone(self.engine.recorder());
        let before = recorder.snapshot();
        recorder.begin_trace();
        // Parse cost is measured honestly by re-parsing the statement's
        // canonical text (the unparser round-trips by construction).
        {
            let span = recorder.span("tquel/parse");
            let text = unparse(inner);
            span.rows_out(text.len() as u64);
            let _ = parse_statement(&text);
        }
        let started = std::time::Instant::now();
        let mut rows_out = 0u64;
        let result: DbResult<()> = match inner {
            // Retrieves run through the traced evaluator so analyze /
            // scan / product spans land in this capture.
            Statement::Retrieve(r) => self.retrieve(r, &recorder).and_then(|result| {
                rows_out = result.len() as u64;
                match &r.into {
                    Some(into) => self.materialize(into, &result),
                    None => Ok(()),
                }
            }),
            // Everything else takes the normal path; the db/storage
            // layer spans it emits are captured all the same.
            other => self.execute(other).map(|_| ()),
        };
        let elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        // End the capture even on error so a failed statement does not
        // leave a stale capture eating later spans.
        let report = recorder.end_trace(&before);
        result?;
        // The *inner* statement's fingerprint absorbs this execution —
        // an explained retrieve is the same workload shape as a bare
        // one — along with any estimated-vs-actual misestimation
        // factors its operators exposed.
        if recorder.is_enabled() {
            let (hash, normalized) = chronos_tquel::fingerprint(inner);
            recorder.fingerprints().record_execution(
                hash,
                &normalized,
                statement_kind(inner),
                elapsed_ns,
                rows_out,
                report.as_ref().and_then(access_path_of).as_deref(),
            );
            if let Some(report) = &report {
                for (_, factor) in report.misestimates() {
                    recorder.fingerprints().record_misestimate(hash, factor);
                }
            }
        }
        let report = report
            .map(|r| r.render(profile))
            .unwrap_or_else(|| "(tracing disabled on this database)".to_string());
        Ok(ExecOutcome::Explained { profile, report })
    }

    // ----------------------------------------------------------------
    // append
    // ----------------------------------------------------------------

    fn append(
        &mut self,
        relation: &str,
        assignments: &[Assignment],
        valid: Option<&ValidClause>,
    ) -> DbResult<ExecOutcome> {
        let info = self.info(relation)?;
        let tuple = build_tuple(&info.schema, assignments)?;
        let validity = self.modification_validity(&info, valid)?;
        let ops = [HistoricalOp::Insert { tuple, validity }];
        let t = self.commit(relation, &ops)?;
        Ok(ExecOutcome::Appended(t))
    }

    // ----------------------------------------------------------------
    // delete
    // ----------------------------------------------------------------

    fn delete(&mut self, var: &str, where_clause: Option<&WhereExpr>) -> DbResult<ExecOutcome> {
        let relation = self.resolve_var(var)?;
        reject_system_modification(&relation)?;
        let info = self.info(&relation)?;
        let pred = self.lower_where(where_clause, var, &info)?;
        let now = self.now();
        let valid_time = crate::relation::has_valid_time(info.class);
        let mut ops = Vec::new();
        for row in self.current_matching(&relation, &pred)? {
            match valid_time.then_some(row.validity) {
                None => {
                    // Static classes: remove the tuple.
                    ops.push(HistoricalOp::remove(RowSelector::tuple(row.tuple)));
                }
                Some(at @ Validity::Event(_)) => {
                    ops.push(HistoricalOp::remove(RowSelector::exact(row.tuple, at)));
                }
                Some(Validity::Interval(p)) => {
                    // Logical delete at `now`.
                    if p.end() <= TimePoint::at(now) {
                        continue; // already ended; nothing to delete
                    }
                    let sel = RowSelector::exact(row.tuple, Validity::Interval(p));
                    if p.start() >= TimePoint::at(now) {
                        // Postactive row: retract it outright.
                        ops.push(HistoricalOp::remove(sel));
                    } else {
                        ops.push(HistoricalOp::set_validity(
                            sel,
                            Period::clamped(p.start(), TimePoint::at(now)),
                        ));
                    }
                }
            }
        }
        if ops.is_empty() {
            return Ok(ExecOutcome::Deleted(0));
        }
        let n = ops.len();
        self.commit(&relation, &ops)?;
        Ok(ExecOutcome::Deleted(n))
    }

    // ----------------------------------------------------------------
    // replace
    // ----------------------------------------------------------------

    fn replace(
        &mut self,
        var: &str,
        assignments: &[Assignment],
        valid: Option<&ValidClause>,
        where_clause: Option<&WhereExpr>,
    ) -> DbResult<ExecOutcome> {
        let relation = self.resolve_var(var)?;
        reject_system_modification(&relation)?;
        let info = self.info(&relation)?;
        let pred = self.lower_where(where_clause, var, &info)?;
        let valid_time = crate::relation::has_valid_time(info.class);

        let mut ops = Vec::new();
        let mut affected = 0usize;
        let mut staged: std::collections::HashSet<(Tuple, Validity)> =
            std::collections::HashSet::new();
        for row in self.current_matching(&relation, &pred)? {
            let new_tuple = apply_assignments(&info.schema, &row.tuple, assignments)?;
            let validity = match valid_time.then_some(row.validity) {
                None => {
                    // Static classes: in-place replacement, and a `valid`
                    // clause refused as `append` refuses it.
                    let validity = self.modification_validity(&info, valid)?;
                    ops.push(HistoricalOp::remove(RowSelector::tuple(row.tuple)));
                    validity
                }
                Some(at @ Validity::Event(_)) => {
                    let validity = self.modification_validity(&info, valid)?;
                    ops.push(HistoricalOp::remove(RowSelector::exact(row.tuple, at)));
                    validity
                }
                Some(Validity::Interval(old)) => {
                    let validity = self.modification_validity(&info, valid)?;
                    let new_period = validity.period();
                    if old.end() <= new_period.start() {
                        continue; // old fact entirely before the new period
                    }
                    let sel = RowSelector::exact(row.tuple, Validity::Interval(old));
                    if old.start() < new_period.start() {
                        // Terminate the old belief where the new one
                        // begins (Merrie's promotion, Figure 8).
                        ops.push(HistoricalOp::set_validity(
                            sel,
                            Period::clamped(old.start(), new_period.start()),
                        ));
                    } else {
                        ops.push(HistoricalOp::remove(sel));
                    }
                    validity
                }
            };
            // Several matched rows may produce the *same* new fact (a
            // retroactive promotion superseding both of the old rank's
            // rows, two departments renamed to one); it is recorded once.
            if staged.insert((new_tuple.clone(), validity)) {
                ops.push(HistoricalOp::insert(new_tuple, validity));
            }
            affected += 1;
        }
        if ops.is_empty() {
            return Ok(ExecOutcome::Replaced(0));
        }
        self.commit(&relation, &ops)?;
        Ok(ExecOutcome::Replaced(affected))
    }

    // ----------------------------------------------------------------
    // helpers
    // ----------------------------------------------------------------

    /// Catalog lookup (stored relations and `sys$` projections).
    fn info(&self, relation: &str) -> DbResult<RelationInfo> {
        self.engine
            .with_db(|db| db.info(relation))
            .ok_or_else(|| DbError::Catalog(format!("unknown relation {relation:?}")))
    }

    /// The transaction time the next commit would receive.
    fn now(&self) -> Chronon {
        self.engine.with_db(Database::now)
    }

    /// Commits `ops` to `relation` through the group-commit queue; the
    /// returned transaction time is durable on return.
    fn commit(&mut self, relation: &str, ops: &[HistoricalOp]) -> DbResult<Chronon> {
        let t = self.engine.commit(relation, ops)?;
        // Read-your-writes: the snapshot advances to cover the
        // session's own (now durable) commit.
        self.advance_pin(t);
        Ok(t)
    }

    /// The rows of `relation`'s latest stored state that satisfy `pred`,
    /// in scan order.  Modification lowering reads the *latest* state
    /// (read committed): a delete must close the facts that exist now,
    /// not the ones the snapshot remembers — and it reads only the rows
    /// the predicate names (see
    /// [`Relation::current_matching`](crate::relation::Relation::current_matching)).
    fn current_matching(&self, relation: &str, pred: &Predicate) -> DbResult<Vec<HistoricalRow>> {
        self.engine
            .read_db()?
            .relation(relation)
            .ok_or_else(|| DbError::Catalog(format!("unknown relation {relation:?}")))?
            .current_matching(pred)
    }

    /// Runs a retrieve through the snapshot pin; the evaluator records
    /// its analyze/scan/product spans into `recorder` (the explain
    /// recorder, or [`noop_recorder`]).
    fn retrieve(&self, stmt: &Retrieve, recorder: &Recorder) -> DbResult<ResultRelation> {
        let db = self.engine.read_db()?;
        let provider = PinnedProvider::new(&db, self.pin);
        Ok(execute_retrieve_traced(
            stmt,
            &self.ranges,
            &provider,
            recorder,
        )?)
    }

    /// Materializes a derived relation (`retrieve into`), exclusively.
    fn materialize(&self, name: &str, result: &ResultRelation) -> DbResult<()> {
        let name = name.to_string();
        let result = result.clone();
        self.engine
            .exclusive(move |db| db.materialize(&name, &result))?
    }

    fn resolve_var(&self, var: &str) -> DbResult<String> {
        self.ranges.get(var).cloned().ok_or_else(|| {
            DbError::Tquel(TquelError::Semantic(format!(
                "range variable {var:?} is not declared"
            )))
        })
    }

    fn lower_where(
        &self,
        where_clause: Option<&WhereExpr>,
        var: &str,
        info: &RelationInfo,
    ) -> DbResult<Predicate> {
        match where_clause {
            Some(w) => Ok(analyze_where_single(w, var, info)?),
            None => Ok(Predicate::True),
        }
    }

    /// Computes the validity for a modification from its `valid` clause,
    /// the relation's class/signature, and "now" defaults.
    fn modification_validity(
        &self,
        info: &RelationInfo,
        valid: Option<&ValidClause>,
    ) -> DbResult<Validity> {
        if !crate::relation::has_valid_time(info.class) {
            if valid.is_some() {
                return Err(DbError::Capability(format!(
                    "'valid' clause on a {} relation (no valid time)",
                    info.class
                )));
            }
            // Static classes carry no valid time: every row is stamped
            // `(-∞, ∞)`, and the store refuses anything else.
            return Ok(crate::relation::ALWAYS);
        }
        let now = self.now();
        match (info.signature, valid) {
            (TemporalSignature::Event, None) => Ok(Validity::Event(now)),
            (TemporalSignature::Event, Some(clause)) => match analyze_valid_const(clause)? {
                ValidPlan::At(e) => {
                    let p = e.eval(&[]).map_err(TquelError::Core)?;
                    match p.start() {
                        TimePoint::Finite(c) => Ok(Validity::Event(c)),
                        other => Err(DbError::Capability(format!(
                            "event validity must be finite, got {other}"
                        ))),
                    }
                }
                ValidPlan::FromTo(..) => Err(DbError::Capability(
                    "event relations take 'valid at', not 'valid from … to …'".into(),
                )),
            },
            (TemporalSignature::Interval, None) => Ok(Validity::Interval(Period::from_start(now))),
            (TemporalSignature::Interval, Some(clause)) => match analyze_valid_const(clause)? {
                ValidPlan::FromTo(a, b) => {
                    // `to` is an exclusive bound (see the paper's Figure
                    // 6: `associate … to 12/01/82` meets `full` starting
                    // that same day).
                    let from = a.eval(&[]).map_err(TquelError::Core)?.start();
                    let to = b.eval(&[]).map_err(TquelError::Core)?.start();
                    let p = Period::new(from, to).ok_or_else(|| {
                        DbError::Capability(format!("backwards validity [{from}, {to})"))
                    })?;
                    if p.is_empty() {
                        return Err(DbError::Capability(format!("empty validity {p}")));
                    }
                    Ok(Validity::Interval(p))
                }
                ValidPlan::At(_) => Err(DbError::Capability(
                    "interval relations take 'valid from … to …', not 'valid at'".into(),
                )),
            },
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.engine
            .session_registry()
            .deregister_session(self.session_id);
        self.engine.recorder().count(|m| &m.sessions_closed);
    }
}

/// System relations are projections of engine state; TQuel
/// modifications cannot target them.
fn reject_system_modification(relation: &str) -> DbResult<()> {
    if crate::introspect::is_system(relation) {
        return Err(DbError::Capability(format!(
            "cannot modify {relation:?}: system relations are read-only"
        )));
    }
    Ok(())
}

/// A short label for the root span of a monitored statement.
fn statement_kind(stmt: &Statement) -> &'static str {
    match stmt {
        Statement::RangeDecl { .. } => "range",
        Statement::Retrieve(r) if r.into.is_some() => "retrieve into",
        Statement::Retrieve(_) => "retrieve",
        Statement::Append { .. } => "append",
        Statement::Delete { .. } => "delete",
        Statement::Replace { .. } => "replace",
        Statement::Create { .. } => "create",
        Statement::Destroy { .. } => "destroy",
        Statement::Explain { .. } => "explain",
        Statement::Analyze { .. } => "analyze",
    }
}

/// The access-path label a traced execution exposed: the detail of the
/// deepest storage-layer span (scan strategy, tx-index stab, key
/// index).  `None` when the capture recorded no such span.
fn access_path_of(report: &chronos_obs::trace::TraceReport) -> Option<String> {
    report
        .spans
        .iter()
        .rev()
        .filter(|s| s.name.starts_with("db/") || s.name.starts_with("storage/"))
        .find(|s| !s.detail.is_empty())
        .map(|s| s.detail.clone())
}

fn literal_value(op: &Operand, expected: AttrType) -> DbResult<Value> {
    let v = match (op, expected) {
        (Operand::Str(s), AttrType::Str) => Value::str(s),
        (Operand::Str(s), AttrType::Date) => Value::Date(date(s)?),
        (Operand::Int(i), AttrType::Int) => Value::Int(*i),
        (Operand::Int(i), AttrType::Float) => Value::Float(*i as f64),
        (Operand::Float(x), AttrType::Float) => Value::Float(*x),
        (Operand::Bool(b), AttrType::Bool) => Value::Bool(*b),
        (Operand::Str(s), AttrType::Bool) => match s.as_str() {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            other => {
                return Err(DbError::Tquel(TquelError::Semantic(format!(
                    "expected a boolean, got {other:?}"
                ))))
            }
        },
        (Operand::Attr(_), _) => {
            return Err(DbError::Tquel(TquelError::Semantic(
                "assignments take literals, not attribute references".into(),
            )))
        }
        (op, ty) => {
            return Err(DbError::Tquel(TquelError::Semantic(format!(
                "cannot assign {op:?} to an attribute of type {ty}"
            ))))
        }
    };
    Ok(v)
}

fn build_tuple(schema: &Schema, assignments: &[Assignment]) -> DbResult<Tuple> {
    let mut values: Vec<Option<Value>> = vec![None; schema.arity()];
    for a in assignments {
        let idx = schema.index_of(&a.attr).ok_or_else(|| {
            DbError::Tquel(TquelError::Semantic(format!(
                "no attribute {:?} in schema {schema}",
                a.attr
            )))
        })?;
        if values[idx].is_some() {
            return Err(DbError::Tquel(TquelError::Semantic(format!(
                "attribute {:?} assigned twice",
                a.attr
            ))));
        }
        values[idx] = Some(literal_value(&a.value, schema.attribute(idx).attr_type())?);
    }
    let mut out = Vec::with_capacity(schema.arity());
    for (i, v) in values.into_iter().enumerate() {
        match v {
            Some(v) => out.push(v),
            None => {
                return Err(DbError::Tquel(TquelError::Semantic(format!(
                    "attribute {:?} not assigned in append",
                    schema.attribute(i).name()
                ))))
            }
        }
    }
    Ok(Tuple::new(out))
}

fn apply_assignments(schema: &Schema, old: &Tuple, assignments: &[Assignment]) -> DbResult<Tuple> {
    let mut values: Vec<Value> = old.values().to_vec();
    for a in assignments {
        let idx = schema.index_of(&a.attr).ok_or_else(|| {
            DbError::Tquel(TquelError::Semantic(format!(
                "no attribute {:?} in schema {schema}",
                a.attr
            )))
        })?;
        values[idx] = literal_value(&a.value, schema.attribute(idx).attr_type())?;
    }
    Ok(Tuple::new(values))
}
