//! The database: catalog + relations + transaction clock + durability.
//!
//! A [`Database`] owns the catalog and one store per defined relation.
//! All mutation funnels through the [`Engine`](crate::Engine)'s writer
//! thread, whose commits allocate a strictly monotonic transaction
//! time from the [`TxnManager`], validate the operations, stage them
//! ahead in the shared log (durable databases), apply them, and make
//! the batch durable under one group fsync.  Reopening a durable
//! database loads the catalog image and the last checkpoint and replays
//! the log after it — the log *is* the temporal database, which is
//! precisely the paper's append-only transaction-time semantics.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use chronos_core::chronon::Chronon;
use chronos_core::clock::Clock;
use chronos_core::relation::HistoricalOp;
use chronos_core::schema::{RelationClass, Schema, TemporalSignature};
use chronos_core::taxonomy::DatabaseClass;
use chronos_core::value::Value;
use chronos_obs::export::{Health, ObsServer};
use chronos_obs::{
    prometheus, Disk, EventJournal, JournalStats, Metric, MetricsSnapshot, Reading, Recorder,
};
use chronos_storage::table::{Read, TxSelect};
use chronos_storage::txn::TxnManager;
use chronos_storage::wal::{Wal, WalRecord};
use chronos_storage::StorageError;
use chronos_tquel::provider::{AccessRequest, AsOfSpec, RelationInfo, RelationProvider, SourceRow};
use chronos_tquel::TquelError;

use crate::catalog::Catalog;
use crate::error::{DbError, DbResult};
use crate::introspect::{
    clamp, event_rows, is_system, query_rows, slow_rows, static_row, system_info, system_relation,
    CatalogRow, SessionRegistry, StatsSampler, TelemetryStats, TelemetryStore,
};
use crate::observe::{EngineSlot, ObsBootstrap};
use crate::relation::{has_transaction_time, Relation};

/// Log bytes below which the writer never checkpoints on its own.
///
/// After each commit group the writer checkpoints once the log has
/// grown past both this floor and the last checkpoint's length, so a
/// reopen replays at most max(floor, one checkpoint) of log.  Replay
/// costs ~0.13 µs per log byte, so 16 KiB replays in ~2 ms — about what
/// starting the process costs; below it a checkpoint would cost more
/// than it saves.
pub const CHECKPOINT_LOG_FLOOR: u64 = 16 * 1024;

/// A ChronosDB database instance.
pub struct Database {
    catalog: Catalog,
    relations: HashMap<String, Relation>,
    txn: TxnManager,
    dir: Option<PathBuf>,
    /// Every write to `dir` goes through this handle (plain outside
    /// tests; see [`Database::open_with_disk`]).
    disk: Disk,
    /// The write-ahead log, shared behind a mutex so the group-commit
    /// writer can fsync a batch *after* releasing the database's write
    /// lock (readers proceed during the fsync; see `crate::engine`).
    wal: Option<Arc<Mutex<Wal>>>,
    /// Engine instruments and trace spans, shared with every relation
    /// store, the shared WAL, and the TQuel executor.
    recorder: Arc<Recorder>,
    /// Readiness flags served by `/healthz` + `/readyz`.
    health: Arc<Health>,
    /// The clock behind the transaction manager, kept for the sampler
    /// (the manager owns its own handle privately).
    clock: Arc<dyn Clock>,
    /// Sample rings backing the `sys$stats` / `sys$relations` system
    /// relations; `Arc`-shared with the sampler and the HTTP exporter.
    telemetry: Arc<TelemetryStore>,
    /// Live session/connection registry backing `sys$sessions` and
    /// `sys$connections`; `Arc`-shared with the engine, the TQuel
    /// service, and the HTTP exporter (`/sessions`).
    registry: Arc<SessionRegistry>,
    /// The engine this database runs under, once [`Engine::start`]
    /// fills it; `Arc`-shared with the HTTP exporter, which reads
    /// `sys$wal` and `sys$pages` through it.
    ///
    /// [`Engine::start`]: crate::Engine::start
    pub(crate) engine: Arc<EngineSlot>,
    /// The background stats sampler, when started.
    sampler: Option<StatsSampler>,
    /// Length of the checkpoint file this database last loaded or
    /// wrote (0 without one): the checkpoint policy's yardstick.
    checkpoint_len: u64,
    /// Log length past which the writer's policy checkpoints:
    /// max(floor, `checkpoint_len`), or, after a policy checkpoint
    /// failed, the log's length then plus that much again.
    checkpoint_due: u64,
}

impl Database {
    /// Creates a volatile in-memory database.
    pub fn in_memory(clock: Arc<dyn Clock>) -> Database {
        let db = Database {
            catalog: Catalog::new(),
            relations: HashMap::new(),
            txn: TxnManager::new(Arc::clone(&clock)),
            dir: None,
            disk: Disk::default(),
            wal: None,
            recorder: Arc::new(Recorder::new()),
            // Nothing to recover: ready from the first instant.
            health: Arc::new(Health::ready_now()),
            clock,
            telemetry: Arc::new(TelemetryStore::default()),
            registry: Arc::new(SessionRegistry::default()),
            engine: Arc::default(),
            sampler: None,
            checkpoint_len: 0,
            checkpoint_due: CHECKPOINT_LOG_FLOOR,
        };
        db.record_catalog_sample(db.txn.peek_now());
        db
    }

    /// Opens (creating if needed) a durable database in `dir`: loads the
    /// catalog image, replays the write-ahead log (truncating a torn
    /// tail), and resumes the transaction clock after the last replayed
    /// commit.
    pub fn open(dir: &Path, clock: Arc<dyn Clock>) -> DbResult<Database> {
        Self::open_with_obs(dir, clock, &ObsBootstrap::new())
    }

    /// [`open`](Self::open) against pre-created observability handles,
    /// so an exporter started from the same [`ObsBootstrap`] observes
    /// recovery as it happens: `/healthz` answers 503 until the
    /// catalog, checkpoint image, and WAL replay have all completed.
    pub fn open_with_obs(
        dir: &Path,
        clock: Arc<dyn Clock>,
        obs: &ObsBootstrap,
    ) -> DbResult<Database> {
        Self::open_with_disk(dir, clock, obs, Disk::default())
    }

    /// [`open_with_obs`](Self::open_with_obs) writing through `disk`:
    /// the way a test gives a database a recording or faulting handle
    /// ([`Disk::recording`]).  Recovery's own writes go through it too.
    pub fn open_with_disk(
        dir: &Path,
        clock: Arc<dyn Clock>,
        obs: &ObsBootstrap,
        disk: Disk,
    ) -> DbResult<Database> {
        let started = std::time::Instant::now();
        if !dir.is_dir() {
            // A new directory is an entry in its parent: until that is
            // synced, a power cut may lose the database whole.  Reopening
            // an existing directory costs no extra operation.
            std::fs::create_dir_all(dir).map_err(StorageError::from)?;
            let parent = dir.parent().filter(|p| !p.as_os_str().is_empty());
            disk.sync_dir(parent.unwrap_or(Path::new(".")))
                .map_err(StorageError::from)?;
        }
        // A `segments/` directory left by an older build is never read:
        // every row is in the checkpoint image or the log.
        let recorder = Arc::clone(&obs.recorder);
        // The lifecycle journal lives beside the WAL.  Journaling is
        // diagnostic: a journal that cannot be opened is skipped, never
        // a reason to refuse recovery.
        if let Ok(journal) = EventJournal::open(&disk, &dir.join("events.jsonl")) {
            recorder.set_journal(Arc::new(journal));
        }
        let mut catalog = Catalog::load(&dir.join("catalog"))?;
        obs.health.mark_catalog_loaded();
        recorder.emit_event(
            "recovery_start",
            &[("relations", catalog.iter().count().into())],
        );
        // Start from the checkpoint image when one exists, otherwise
        // from empty stores; either way the log suffix replays on top.
        let checkpoint = crate::checkpoint::load(&dir.join("checkpoint"))?;
        let checkpoint_len = checkpoint.as_ref().map_or(0, |c| c.len);
        recorder.set_gauge(|m| &m.checkpoint_bytes, checkpoint_len);
        // A crash between checkpoint rename and WAL reset leaves the
        // full log beside a checkpoint that already contains its
        // effects; the floor tells replay which records to skip.
        let wal_floor = checkpoint.as_ref().and_then(|c| c.wal_floor);
        let mut images = checkpoint.map(|c| c.images).unwrap_or_default();
        // A crash between a materialization's checkpoint and its catalog
        // save leaves rows under an id the catalog never handed out: no
        // relation defined later may take it.
        if let Some(&last) = images.keys().next_back() {
            catalog.reserve_ids_through(last);
        }
        obs.health.mark_checkpoint_loaded();
        let mut relations = HashMap::new();
        let mut by_id: HashMap<u32, String> = HashMap::new();
        // The transaction clock resumes after the latest commit anything
        // on disk knows about (`None` sorts below every commit time).
        let mut last_commit: Option<Chronon> = None;
        for (name, entry) in catalog.iter() {
            let rel = match images.remove(&entry.rel_id) {
                Some(image) => {
                    last_commit = last_commit.max(image.last_commit);
                    crate::checkpoint::restore(entry, image)?
                }
                None => Relation::new(entry.schema.clone(), entry.class, entry.signature),
            };
            relations.insert(name.clone(), rel);
            by_id.insert(entry.rel_id, name.clone());
        }
        let (mut wal, recovered) = Wal::open_recovered(&disk, &dir.join("wal"))?;
        if recovered.torn_bytes > 0 {
            // Graceful degradation, journaled: the torn tail (a crash
            // mid-append) was cut at the last valid record.
            recorder.emit_event(
                "wal_truncated",
                &[
                    ("truncated_at", recovered.valid_len.into()),
                    ("torn_bytes", recovered.torn_bytes.into()),
                ],
            );
        }
        last_commit = last_commit.max(wal_floor);
        let mut frames_replayed = 0usize;
        let mut frames_skipped = 0usize;
        for rec in &recovered.records {
            if wal_floor.is_some_and(|floor| rec.tx_time <= floor) {
                // Already absorbed by the checkpoint image (crash
                // between checkpoint rename and WAL reset).
                frames_skipped += 1;
                continue;
            }
            let Some(name) = by_id.get(&rec.rel_id) else {
                continue; // relation since destroyed
            };
            let rel = relations.get_mut(name).expect("catalog and stores in sync");
            rel.apply(rec.tx_time, &rec.ops).map_err(|e| {
                DbError::Storage(chronos_storage::StorageError::Corrupt(format!(
                    "log replay failed for {name:?} at {}: {e}",
                    rec.tx_time
                )))
            })?;
            frames_replayed += 1;
            last_commit = last_commit.max(Some(rec.tx_time));
        }
        obs.health.mark_wal_recovered();
        recorder.emit_event(
            "recovery",
            &[
                ("frames_replayed", frames_replayed.into()),
                // Catalog, checkpoint image and log replay together: what
                // a restart waited for.
                (
                    "elapsed_us",
                    u64::try_from(started.elapsed().as_micros())
                        .unwrap_or(u64::MAX)
                        .into(),
                ),
                ("frames_skipped", frames_skipped.into()),
                ("truncated_at", recovered.valid_len.into()),
                ("torn_bytes", recovered.torn_bytes.into()),
            ],
        );
        for rel in relations.values_mut() {
            rel.set_recorder(Arc::clone(&recorder));
            rel.table_mut().set_disk(disk.clone());
        }
        wal.set_recorder(Arc::clone(&recorder));
        let telemetry = Arc::clone(&obs.telemetry);
        // Evicted telemetry samples spill beside the WAL.
        telemetry.set_spill(disk.clone(), dir.join("telemetry.spill.jsonl"));
        let db = Database {
            catalog,
            relations,
            txn: TxnManager::resuming_after(Arc::clone(&clock), last_commit),
            dir: Some(dir.to_path_buf()),
            disk,
            wal: Some(Arc::new(Mutex::new(wal))),
            recorder,
            health: Arc::clone(&obs.health),
            clock,
            telemetry,
            registry: Arc::clone(&obs.registry),
            engine: Arc::clone(&obs.engine),
            sampler: None,
            checkpoint_len,
            checkpoint_due: CHECKPOINT_LOG_FLOOR.max(checkpoint_len),
        };
        db.record_catalog_sample(db.txn.peek_now());
        Ok(db)
    }

    /// Checkpoints the database: writes the complete physical state of
    /// every relation (all versions included — a temporal database
    /// forgets nothing) to the `checkpoint` file and truncates the
    /// write-ahead log, bounding future recovery time.  Only meaningful
    /// on durable databases.
    pub fn checkpoint(&mut self) -> DbResult<()> {
        self.write_checkpoint("explicit")
    }

    /// The checkpoint policy's rule, checked by the writer after each
    /// commit group's fsync and acks: true once the log has grown past
    /// both [`CHECKPOINT_LOG_FLOOR`] and the last checkpoint's length.
    /// Replay then never exceeds max(floor, one checkpoint), and every
    /// checkpoint is paid for by at least as many log bytes.  It reads
    /// the log's in-memory length: no syscall per commit.
    pub(crate) fn log_outgrew_checkpoint(&self) -> bool {
        self.log_len() > self.checkpoint_due
    }

    /// The log's in-memory length (0 for an in-memory database).
    fn log_len(&self) -> u64 {
        self.wal.as_ref().map_or(0, |wal| wal.lock().logical_len())
    }

    /// The checkpoint the policy writes once
    /// [`log_outgrew_checkpoint`](Self::log_outgrew_checkpoint) holds.
    /// No caller waits on it, so a failure is journaled
    /// (`db_checkpoint_failed`) and counted (`checkpoint_failures`),
    /// never returned: the commits that triggered it are already
    /// durable.  The next attempt waits for as much new log as a
    /// checkpoint that succeeded would have, so a lasting failure (a
    /// full disk) costs one attempt per max(floor, checkpoint) of log,
    /// not one per commit group.
    pub(crate) fn checkpoint_for_log(&mut self) {
        if let Err(e) = self.write_checkpoint("log") {
            self.checkpoint_due = self.log_len() + CHECKPOINT_LOG_FLOOR.max(self.checkpoint_len);
            self.recorder.count(|m| &m.checkpoint_failures);
            self.recorder.emit_event(
                "db_checkpoint_failed",
                &[("reason", "log".into()), ("error", e.to_string().into())],
            );
        }
    }

    /// Writes the checkpoint; `reason` is `explicit` (asked for) or
    /// `log` (the writer's policy).
    fn write_checkpoint(&mut self, reason: &'static str) -> DbResult<()> {
        let Some(dir) = self.dir.clone() else {
            return Err(DbError::Catalog(
                "checkpoint requires a durable database".into(),
            ));
        };
        self.recorder.emit_event(
            "db_checkpoint_start",
            &[
                ("relations", self.relations.len().into()),
                ("reason", reason.into()),
            ],
        );
        let mut images = std::collections::BTreeMap::new();
        for (name, entry) in self.catalog.iter() {
            let rel = self
                .relations
                .get(name)
                .expect("catalog and stores in sync");
            images.insert(entry.rel_id, crate::checkpoint::capture(rel)?);
        }
        // Every WAL record's commit time is ≤ the manager's last commit
        // time, and every future commit gets a strictly greater one —
        // so this floor cleanly splits "absorbed by the images" from
        // "must replay" if a crash strands the full log next to the
        // new checkpoint.
        let bytes = crate::checkpoint::save(
            &self.disk,
            &dir.join("checkpoint"),
            self.txn.last_commit_time(),
            &images,
        )?;
        // `save` fsynced the directory after its rename, so the log
        // truncation below can never outlive the checkpoint it relies on.
        let wal_bytes_truncated = match &self.wal {
            Some(wal) => {
                let mut wal = wal.lock();
                let len = wal.logical_len();
                wal.reset()?;
                len
            }
            None => 0,
        };
        self.checkpoint_len = bytes;
        self.checkpoint_due = CHECKPOINT_LOG_FLOOR.max(bytes);
        self.recorder.count(|m| &m.checkpoints);
        self.recorder.set_gauge(|m| &m.checkpoint_bytes, bytes);
        self.recorder.emit_event(
            "db_checkpoint_finish",
            &[
                ("relations", self.relations.len().into()),
                ("bytes", bytes.into()),
                ("wal_bytes_truncated", wal_bytes_truncated.into()),
            ],
        );
        Ok(())
    }

    /// True iff the database persists to disk.
    pub fn is_durable(&self) -> bool {
        self.wal.is_some()
    }

    /// The current reading of the database clock: the transaction time
    /// the next commit would receive.
    pub fn now(&self) -> Chronon {
        self.txn.peek_now()
    }

    /// Defines a new relation.
    pub fn create_relation(
        &mut self,
        name: &str,
        schema: Schema,
        class: RelationClass,
        signature: TemporalSignature,
    ) -> DbResult<()> {
        Self::reject_system_write(name)?;
        let rel = Relation::new(schema, class, signature);
        self.define(name, rel, false)?;
        self.record_catalog_sample(self.txn.peek_now());
        Ok(())
    }

    /// Enters `rel` into the catalog under `name` and saves the catalog.
    /// With `rows_first` (a materialized relation, whose rows no log
    /// holds) a checkpoint holding its rows is written before the
    /// catalog names it, so no crash leaves it empty.  If either write
    /// fails, the database is left as it was, except that the relation's
    /// id stays spent: a checkpoint may already hold rows under it.
    fn define(&mut self, name: &str, mut rel: Relation, rows_first: bool) -> DbResult<()> {
        use chronos_core::relation::temporal::TemporalStore as _;
        let (table, class) = (rel.table(), rel.class());
        let mut catalog = self.catalog.clone();
        let rel_id = catalog
            .define(name, table.schema().clone(), class, table.signature())
            .map_err(DbError::Catalog)?;
        rel.set_recorder(Arc::clone(&self.recorder));
        rel.table_mut().set_disk(self.disk.clone());
        let mut previous = std::mem::replace(&mut self.catalog, catalog);
        self.relations.insert(name.to_string(), rel);
        let rows = match rows_first && self.is_durable() {
            true => self.checkpoint(),
            false => Ok(()),
        };
        let saved = rows.and_then(|()| self.persist_catalog(&self.catalog));
        if saved.is_err() {
            previous.reserve_ids_through(rel_id);
            self.catalog = previous;
            self.relations.remove(name);
        }
        saved
    }

    /// Drops a relation and its store.
    pub fn destroy_relation(&mut self, name: &str) -> DbResult<()> {
        Self::reject_system_write(name)?;
        let mut catalog = self.catalog.clone();
        if catalog.remove(name).is_none() {
            return Err(DbError::Catalog(format!("unknown relation {name:?}")));
        }
        self.persist_catalog(&catalog)?;
        self.catalog = catalog;
        self.relations.remove(name);
        // The relation's statistics end here; their past stays.
        let at = self.txn.peek_now();
        self.telemetry.record_tablestats(at, name, Vec::new());
        self.record_catalog_sample(at);
        Ok(())
    }

    /// The `sys$` namespace is reserved: every write path refuses it.
    fn reject_system_write(name: &str) -> DbResult<()> {
        if is_system(name) {
            return Err(DbError::Capability(format!(
                "{name:?} is in the reserved sys$ namespace: system relations are read-only"
            )));
        }
        Ok(())
    }

    fn persist_catalog(&self, catalog: &Catalog) -> DbResult<()> {
        if let Some(dir) = &self.dir {
            catalog.save(&self.disk, &dir.join("catalog"))?;
        }
        Ok(())
    }

    /// Names of all defined relations, in name order.
    pub fn relation_names(&self) -> Vec<String> {
        self.catalog.iter().map(|(n, _)| n.clone()).collect()
    }

    /// Borrows a relation's store.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.relations.get(name)
    }

    /// The database class of a relation (Figure 10 classification).
    pub fn classify(&self, name: &str) -> Option<DatabaseClass> {
        self.catalog.get(name).map(|e| e.class.database_class())
    }

    /// Commits a transaction against one relation: allocates the
    /// transaction time, validates, logs (write-ahead, *staged*),
    /// applies.  Returns the transaction time.  The WAL frame is not
    /// yet durable: the group-commit writer (`crate::engine`) calls
    /// this for each transaction in a batch, then makes the whole batch
    /// durable with one `Wal::group_sync`, and acknowledges no commit
    /// before that covering fsync succeeds.
    pub(crate) fn commit_unsynced(
        &mut self,
        relation: &str,
        ops: &[HistoricalOp],
    ) -> DbResult<Chronon> {
        // Clone the handle so the span's borrow doesn't pin `self`.
        let recorder = Arc::clone(&self.recorder);
        let span = recorder.span("db/commit");
        span.detail(relation.to_string());
        span.rows_in(ops.len() as u64);
        let started = std::time::Instant::now();
        Self::reject_system_write(relation)?;
        if ops.is_empty() {
            return Err(DbError::Catalog("empty transaction".into()));
        }
        let entry = self
            .catalog
            .get(relation)
            .ok_or_else(|| DbError::Catalog(format!("unknown relation {relation:?}")))?;
        let rel_id = entry.rel_id;
        let rel = self
            .relations
            .get(relation)
            .expect("catalog and stores in sync");
        let tx_time = self.txn.next_commit_time();
        rel.validate(tx_time, ops)?;
        let wal_len_before = match &self.wal {
            Some(wal) => {
                let mut wal = wal.lock();
                let len = wal.logical_len();
                let rec = WalRecord {
                    rel_id,
                    tx_time,
                    ops: ops.to_vec(),
                };
                wal.append_no_sync(&rec)?;
                Some(len)
            }
            None => None,
        };
        let rel = self
            .relations
            .get_mut(relation)
            .expect("catalog and stores in sync");
        if let Err(e) = rel.table_mut().apply_validated(tx_time, ops) {
            // The transaction validated but the physical apply failed
            // (an injected fault in the heap path).  The record is
            // already in the log; roll it back so the database never
            // resurrects at reopen a commit it reported as failed.  A
            // commit that failed after changing the table stays
            // `PartlyApplied`, which poisons the engine.
            if let (Some(wal), Some(len)) = (&self.wal, wal_len_before) {
                let _ = wal.lock().truncate_to(len);
            }
            return Err(DbError::Storage(match e {
                StorageError::PartlyApplied(_) => e,
                e => StorageError::Corrupt(format!(
                    "commit apply failed after write-ahead (log rolled back): {e}"
                )),
            }));
        }
        recorder.count(|m| &m.commits);
        recorder.record_latency(|m| &m.commit_latency, started.elapsed().as_nanos() as u64);
        // Commits are the only points where tuple counts change, so a
        // synchronous catalog sample at the commit time makes the
        // `sys$relations` rollback view exact.
        self.record_catalog_sample(tx_time);
        Ok(tx_time)
    }

    /// The shared WAL handle, for the group-commit writer's
    /// post-batch fsync.  `None` for in-memory databases.
    pub(crate) fn wal_handle(&self) -> Option<Arc<Mutex<Wal>>> {
        self.wal.clone()
    }

    /// The most recently allocated commit time, if any transaction has
    /// ever committed (snapshot sessions pin this at `begin`).
    pub fn last_commit_time(&self) -> Option<Chronon> {
        self.txn.last_commit_time()
    }

    /// The engine's observability handle.  Shared (behind the `Arc`)
    /// with every relation store, the WAL, and traced query execution.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// Unified engine statistics: every instrument in the metrics
    /// registry plus the journal and telemetry sections.  This is the
    /// sole stats surface.
    pub fn engine_stats(&self) -> EngineStats {
        crate::observe::engine_stats_from(&self.recorder, &self.telemetry)
    }

    /// The database's readiness flags (`/healthz` + `/readyz`).
    pub fn health(&self) -> &Arc<Health> {
        &self.health
    }

    /// Starts the embedded HTTP observability exporter on `addr`
    /// (e.g. `"127.0.0.1:9090"`, or port `:0` for an ephemeral port —
    /// read it back from [`ObsServer::addr`]).  The server owns `Arc`
    /// clones of the engine handles and keeps serving until dropped;
    /// it never borrows the database.
    pub fn serve_observability(&self, addr: &str) -> std::io::Result<ObsServer> {
        ObsBootstrap {
            recorder: Arc::clone(&self.recorder),
            health: Arc::clone(&self.health),
            telemetry: Arc::clone(&self.telemetry),
            registry: Arc::clone(&self.registry),
            engine: Arc::clone(&self.engine),
        }
        .serve(addr)
    }

    /// Sets the slow-query admission threshold: statements at least
    /// this slow are captured (with their span tree and counter
    /// deltas) into the recorder's slow log.  `0` captures everything;
    /// `u64::MAX` (the default) disables capture.
    pub fn set_slow_query_threshold_ns(&self, ns: u64) {
        self.recorder.slowlog().set_threshold_ns(ns);
    }

    /// Materializes a derived relation under `name` — the executable
    /// form of the paper's closure property ("this derived relation is a
    /// temporal relation, so further temporal relations can be derived
    /// from it").  The new relation's class is the result's class; its
    /// rows keep their derived timestamps verbatim.  On a durable
    /// database a checkpoint is taken immediately, since derived
    /// timestamps cannot be replayed through the append-only log.
    pub fn materialize(
        &mut self,
        name: &str,
        result: &chronos_tquel::exec::ResultRelation,
    ) -> DbResult<()> {
        use chronos_core::relation::temporal::BitemporalRow;
        Self::reject_system_write(name)?;
        let class =
            match result.kind {
                DatabaseClass::Static => RelationClass::Static,
                DatabaseClass::StaticRollback => return Err(DbError::Capability(
                    "query results are never rollback relations (rollback yields static results)"
                        .into(),
                )),
                DatabaseClass::Historical => RelationClass::Historical,
                DatabaseClass::Temporal => RelationClass::Temporal,
            };
        let schema = result.schema.clone();
        // A result row carries exactly the axes of its class; an axis
        // the class lacks spans all of time.
        let mut rows = Vec::with_capacity(result.rows.len());
        let mut commits = std::collections::BTreeSet::new();
        for row in &result.rows {
            let validity = if result.kind.supports_historical_queries() {
                row.validity.ok_or_else(|| {
                    DbError::Capability(format!("{class} result row lacks valid time"))
                })?
            } else {
                crate::relation::ALWAYS
            };
            let tx = if result.kind.supports_rollback() {
                let tx = row.tx.ok_or_else(|| {
                    DbError::Capability(format!("{class} result row lacks transaction time"))
                })?;
                commits.extend(tx.start().finite());
                tx
            } else {
                chronos_core::period::Period::ALWAYS
            };
            rows.push(BitemporalRow {
                tuple: row.tuple.clone(),
                validity,
                tx,
            });
        }
        let relation = Relation::from_rows(
            schema,
            class,
            result.signature,
            rows,
            commits.last().copied(),
            commits.len(),
        )?;
        // Derived timestamps aren't reproducible from the log; a
        // checkpoint captures them (and everything else) right away.
        self.define(name, relation, true)?;
        self.record_catalog_sample(self.txn.peek_now());
        Ok(())
    }

    // -----------------------------------------------------------------
    // Temporal introspection (the `sys$` system relations)
    // -----------------------------------------------------------------

    /// The telemetry store backing `sys$stats` / `sys$relations`.
    pub fn telemetry(&self) -> &Arc<TelemetryStore> {
        &self.telemetry
    }

    /// The session/connection registry backing `sys$sessions` and
    /// `sys$connections`.
    pub fn session_registry(&self) -> &Arc<SessionRegistry> {
        &self.registry
    }

    /// Takes one stats + catalog sample right now, at the transaction
    /// time the next commit would receive.  Returns that chronon.  The
    /// deterministic counterpart of the background sampler (tests and
    /// the CLI's `\sample` drive this).
    pub fn sample_now(&self) -> Chronon {
        let at = self.txn.peek_now();
        let stats = self.engine_stats();
        self.telemetry.record_stats(at, &stats);
        self.record_catalog_sample(at);
        self.telemetry
            .sessions
            .record(at, |_| Some(self.registry.sessions()));
        at
    }

    /// Records the catalog's current shape into the telemetry store at
    /// transaction time `at`.
    fn record_catalog_sample(&self, at: Chronon) {
        let rows: Vec<CatalogRow> = self
            .catalog
            .iter()
            .map(|(name, entry)| {
                let rel = self
                    .relations
                    .get(name)
                    .expect("catalog and stores in sync");
                CatalogRow {
                    name: name.clone(),
                    class: entry.class.to_string(),
                    tuples: rel.stored_tuples() as i64,
                    bytes: i64::from(rel.table().heap_pages())
                        * chronos_storage::page::PAGE_SIZE as i64,
                }
            })
            .collect();
        self.telemetry.catalog.record(at, |_| Some(rows));
    }

    /// Starts the background stats sampler on `interval`.  Restarting
    /// replaces (and joins) a previous sampler.  The lifecycle is
    /// journaled and visible in `/readyz` as `sampler_running`.
    pub fn start_stats_sampler(&mut self, interval: std::time::Duration) -> std::io::Result<()> {
        self.stop_stats_sampler();
        let sampler = StatsSampler::start(
            interval,
            Arc::clone(&self.recorder),
            Arc::clone(&self.health),
            Arc::clone(&self.telemetry),
            Arc::clone(&self.registry),
            Arc::clone(&self.clock),
        )?;
        self.sampler = Some(sampler);
        Ok(())
    }

    /// Stops (and joins) the background sampler, if running.
    pub fn stop_stats_sampler(&mut self) {
        if let Some(sampler) = self.sampler.take() {
            sampler.stop();
        }
    }

    /// True while the background sampler thread is alive.
    pub fn sampler_running(&self) -> bool {
        self.telemetry.sampler_running()
    }

    /// Collects temporal storage statistics for `relation` into the
    /// `sys$tablestats` telemetry ring (the `analyze` statement):
    /// row/version counts, a version-chain-length histogram, valid- and
    /// transaction-time interval-duration histograms, a valid-time
    /// overlap-density histogram, checkpoint density, and a
    /// distinct-key estimate.  With no declared keys, version chains
    /// group by the first attribute's value — a heuristic the catalog
    /// will refine once key declarations exist.  Returns the number of
    /// statistic rows recorded.  Takes `&self`: the stores are read-only
    /// here and the telemetry ring is interior-mutable, so the engine
    /// analyzes under its read lock.
    pub fn analyze_relation(&self, relation: &str) -> DbResult<usize> {
        if is_system(relation) {
            return Err(DbError::Capability(format!(
                "cannot analyze {relation}: system relations are telemetry, not storage"
            )));
        }
        let span = self.recorder.span("db/analyze");
        span.detail(relation.to_string());
        let rel = self
            .relations
            .get(relation)
            .ok_or_else(|| DbError::Catalog(format!("unknown relation {relation:?}")))?;
        let class = rel.class().database_class();
        let mut stats: Vec<(String, i64)> = Vec::new();
        let all = rel.table().read(&Read::tx(TxSelect::Any))?;
        let current = all.iter().filter(|row| row.is_current()).count();
        push_stat(&mut stats, "rows", current as i64);
        push_stat(&mut stats, "versions", all.len() as i64);
        push_key_stats(&mut stats, all.iter().map(|row| key_of(&row.tuple)));
        // Interval statistics only for the axes the class has.
        let valid: Vec<_> = all.iter().map(|row| row.validity.period()).collect();
        if class.supports_historical_queries() {
            push_duration_histogram(&mut stats, "vt_dur", valid.iter().copied());
        }
        if class.supports_rollback() {
            push_duration_histogram(&mut stats, "tx_dur", all.iter().map(|row| row.tx));
        }
        if class.supports_historical_queries() {
            push_overlap_histogram(&mut stats, &valid);
        }
        // Physical accounting, measured off the heap for every class.
        let physical = rel.table().physical_stats()?;
        push_stat(&mut stats, "bytes", clamp(physical.bytes_on_disk));
        push_stat(
            &mut stats,
            "bytes_per_version",
            clamp(physical.bytes_per_version),
        );
        push_stat(
            &mut stats,
            "dup_factor_x1000",
            clamp(physical.dup_factor_x1000),
        );
        let count = stats.len();
        let at = self.txn.peek_now();
        self.telemetry.record_tablestats(at, relation, stats);
        self.recorder.emit_event(
            "analyze",
            &[("relation", relation.into()), ("stats", count.into())],
        );
        span.rows_out(count as u64);
        Ok(count)
    }

    /// Scan of one system relation.  Its declared class decides whether
    /// `as of` applies: the analyzer already refuses it over relations
    /// without transaction time, and this keeps direct provider calls
    /// honest.
    fn scan_system(
        &self,
        relation: &str,
        as_of: Option<&AsOfSpec>,
    ) -> Result<Arc<Vec<SourceRow>>, TquelError> {
        let Some(decl) = system_relation(relation) else {
            return Err(TquelError::Semantic(format!(
                "unknown relation {relation:?}"
            )));
        };
        if as_of.is_some() && !has_transaction_time(decl.class) {
            return Err(TquelError::Semantic(format!(
                "{relation} has no transaction time: rollback (as of) does not apply"
            )));
        }
        let span = self.recorder.span("db/scan");
        span.detail(format!("{relation} (system)"));
        let (t, class) = (&self.telemetry, decl.class);
        let rows = match relation {
            "sys$stats" => t.stats.rows(as_of, class),
            "sys$tablestats" => t.tablestats.rows(as_of, class),
            "sys$relations" => t.catalog.rows(as_of, class),
            // The current state is the live registry, not the last sample.
            "sys$sessions" if as_of.is_none() => self.registry.sessions_scan(),
            "sys$sessions" => t.sessions.rows(as_of, class),
            "sys$queries" => query_rows(self.recorder.fingerprints()),
            "sys$connections" => self.registry.connections_scan(),
            "sys$slow" => slow_rows(self.recorder.slowlog()),
            "sys$events" => event_rows(
                self.recorder.journal().as_deref(),
                chronos_obs::export::DEFAULT_EVENTS_TAIL,
            ),
            "sys$wal" => self.wal_rows(),
            "sys$pages" => self.pages_rows(),
            other => unreachable!("{other} is declared but has no scan"),
        };
        span.rows_out(rows.len() as u64);
        Ok(Arc::new(rows))
    }

    /// The tall `(stat, value, detail)` rows behind `sys$wal`: an
    /// offline frame walk of the log file combined with the live
    /// handle's watermarks.  The walk runs under the WAL lock, so the
    /// view is quiesced against concurrent appends.
    pub(crate) fn wal_rows(&self) -> Vec<SourceRow> {
        use chronos_storage::inspect::{scan_wal, TailState};
        let mut rows = Vec::new();
        let mut push = |stat: &str, value: i64, detail: &str| {
            rows.push(static_row(vec![
                Value::str(stat),
                Value::Int(value),
                Value::str(detail),
            ]));
        };
        let Some(wal) = &self.wal else {
            push("durable", 0, "in-memory database: no write-ahead log");
            return rows;
        };
        let wal = wal.lock();
        let scan = match scan_wal(wal.path()) {
            Ok(scan) => scan,
            Err(e) => {
                push("durable", 1, &format!("wal unreadable: {e}"));
                return rows;
            }
        };
        push("durable", 1, "");
        push("frames", scan.frames.len() as i64, "");
        push("bytes", clamp(scan.total_len), "");
        push("valid_bytes", clamp(scan.valid_len), "");
        push("synced_bytes", clamp(wal.synced_len()), "fsynced watermark");
        push(
            "pending_bytes",
            clamp(wal.pending_bytes()),
            "staged, awaiting group fsync",
        );
        let (lsn_first, lsn_last) = scan.lsn_range().unwrap_or((0, 0));
        push("lsn_first", lsn_first, "");
        push("lsn_last", lsn_last, "");
        let (inserts, removes, set_validities) = scan.op_totals();
        push("ops_insert", clamp(inserts), "");
        push("ops_remove", clamp(removes), "");
        push("ops_set_validity", clamp(set_validities), "");
        for (class, frames, bytes) in scan.classes() {
            push(
                &format!("frames_{class}"),
                clamp(frames),
                &format!("{bytes} bytes"),
            );
        }
        let tail_detail = match &scan.tail {
            TailState::Clean => "clean".to_string(),
            TailState::Torn { offset, bytes } => {
                format!("torn tail: {bytes} incomplete bytes at offset {offset}")
            }
            TailState::Corrupt { reason, .. } => reason.clone(),
        };
        push("tail_bad_bytes", clamp(scan.tail.bad_bytes()), &tail_detail);
        push("truncations", clamp(wal.truncations()), "");
        push(
            "last_truncation_bytes",
            clamp(wal.last_truncation_bytes()),
            "",
        );
        rows
    }

    /// The wide per-relation rows behind `sys$pages` (plus pseudo-rows,
    /// class `file`, sizing the durable directory's on-disk files).
    pub(crate) fn pages_rows(&self) -> Vec<SourceRow> {
        // relation, class, then pages, bytes_disk, records,
        // occupancy_x1000, versions, bytes_per_version, dup_factor_x1000.
        let row = |relation: &str, class: &str, numbers: [i64; 7]| {
            let mut values = vec![Value::str(relation), Value::str(class)];
            values.extend(numbers.map(Value::Int));
            static_row(values)
        };
        let file_row = |name: &str, bytes: u64| row(name, "file", [0, clamp(bytes), 0, 0, 0, 0, 0]);
        let mut rows = Vec::new();
        for (name, entry) in self.catalog.iter() {
            let rel = self
                .relations
                .get(name)
                .expect("catalog and stores in sync");
            let Ok(p) = rel.table().physical_stats() else {
                continue;
            };
            rows.push(row(
                name,
                &entry.class.to_string(),
                [
                    i64::from(p.pages),
                    clamp(p.bytes_on_disk),
                    clamp(p.versions),
                    clamp(p.occupancy_x1000),
                    clamp(p.versions),
                    clamp(p.bytes_per_version),
                    clamp(p.dup_factor_x1000),
                ],
            ));
        }
        if let Some(dir) = &self.dir {
            for file in ["catalog", "checkpoint", "wal", "events.jsonl"] {
                if let Ok(meta) = std::fs::metadata(dir.join(file)) {
                    rows.push(file_row(&format!("file:{file}"), meta.len()));
                }
            }
        }
        rows
    }
}

impl Drop for Database {
    fn drop(&mut self) {
        self.stop_stats_sampler();
    }
}

fn push_stat(stats: &mut Vec<(String, i64)>, name: &str, value: i64) {
    stats.push((name.to_string(), value));
}

/// Version-chain grouping key: the first attribute's rendered value
/// (the relation model declares no keys yet, so this is the documented
/// heuristic behind `distinct_keys` and the chain-length histogram).
fn key_of(tuple: &chronos_core::tuple::Tuple) -> String {
    tuple
        .try_get(0)
        .map(|v| format!("{v:?}"))
        .unwrap_or_default()
}

/// `distinct_keys` plus the version-chain-length histogram
/// (`chain_len_le_{1,2,4,8,16}` / `chain_len_gt_16`): how many versions
/// each key has accumulated.
fn push_key_stats(stats: &mut Vec<(String, i64)>, keys: impl Iterator<Item = String>) {
    let mut chains: std::collections::BTreeMap<String, i64> = std::collections::BTreeMap::new();
    for key in keys {
        *chains.entry(key).or_insert(0) += 1;
    }
    push_stat(stats, "distinct_keys", chains.len() as i64);
    let mut buckets = [0i64; 6];
    for &len in chains.values() {
        let idx = match len {
            ..=1 => 0,
            2 => 1,
            3..=4 => 2,
            5..=8 => 3,
            9..=16 => 4,
            _ => 5,
        };
        buckets[idx] += 1;
    }
    for (name, count) in [
        "chain_len_le_1",
        "chain_len_le_2",
        "chain_len_le_4",
        "chain_len_le_8",
        "chain_len_le_16",
        "chain_len_gt_16",
    ]
    .iter()
    .zip(buckets)
    {
        push_stat(stats, name, count);
    }
}

/// Interval-duration histogram over `periods`, in chronon ticks:
/// `<prefix>_le_{1,4,16,64,256}`, `<prefix>_gt_256`, and
/// `<prefix>_open` for periods reaching `forever` (still-current
/// transaction periods, open valid intervals).
fn push_duration_histogram(
    stats: &mut Vec<(String, i64)>,
    prefix: &str,
    periods: impl Iterator<Item = chronos_core::period::Period>,
) {
    let mut buckets = [0i64; 6];
    let mut open = 0i64;
    for p in periods {
        match p.duration() {
            None => open += 1,
            Some(d) => {
                let idx = match d {
                    ..=1 => 0,
                    2..=4 => 1,
                    5..=16 => 2,
                    17..=64 => 3,
                    65..=256 => 4,
                    _ => 5,
                };
                buckets[idx] += 1;
            }
        }
    }
    for (suffix, count) in ["le_1", "le_4", "le_16", "le_64", "le_256", "gt_256"]
        .iter()
        .zip(buckets)
    {
        push_stat(stats, &format!("{prefix}_{suffix}"), count);
    }
    push_stat(stats, &format!("{prefix}_open"), open);
}

/// Valid-time overlap-density histogram: a sweep line over the interval
/// endpoints records, at each interval start, how many intervals are
/// concurrently valid (`overlap_le_{1,2,4,8}` / `overlap_gt_8`).  This
/// is the distribution property Mkaouar & Bouaziz identify as the
/// dominant temporal-join cost driver.
fn push_overlap_histogram(
    stats: &mut Vec<(String, i64)>,
    periods: &[chronos_core::period::Period],
) {
    use chronos_core::timepoint::TimePoint;
    let mut events: Vec<(TimePoint, i32)> = Vec::with_capacity(periods.len() * 2);
    for p in periods {
        if p.is_empty() {
            continue;
        }
        events.push((p.start(), 1));
        events.push((p.end(), -1));
    }
    // Ends sort before starts at equal points: `[a, b)` and `[b, c)` do
    // not overlap.
    events.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut live = 0i64;
    let mut buckets = [0i64; 5];
    for (_, delta) in events {
        live += delta as i64;
        if delta > 0 {
            let idx = match live {
                ..=1 => 0,
                2 => 1,
                3..=4 => 2,
                5..=8 => 3,
                _ => 4,
            };
            buckets[idx] += 1;
        }
    }
    for (name, count) in [
        "overlap_le_1",
        "overlap_le_2",
        "overlap_le_4",
        "overlap_le_8",
        "overlap_gt_8",
    ]
    .iter()
    .zip(buckets)
    {
        push_stat(stats, name, count);
    }
}

impl RelationProvider for Database {
    fn info(&self, relation: &str) -> Option<RelationInfo> {
        if is_system(relation) {
            return system_info(relation);
        }
        self.catalog.get(relation).map(|e| RelationInfo {
            schema: e.schema.clone(),
            class: e.class,
            signature: e.signature,
        })
    }

    fn scan(
        &self,
        relation: &str,
        as_of: Option<&AsOfSpec>,
    ) -> Result<Arc<Vec<SourceRow>>, TquelError> {
        self.access(relation, &AccessRequest { as_of, key: None })
    }

    /// One [`Relation::scan`] of the relation's store, errors in the
    /// evaluator's terms: with a key, the key index; without one, the
    /// whole relation at the coordinate.  `sys$` projections ignore the
    /// key.
    fn access(
        &self,
        relation: &str,
        request: &AccessRequest<'_>,
    ) -> Result<Arc<Vec<SourceRow>>, TquelError> {
        if is_system(relation) {
            return self.scan_system(relation, request.as_of);
        }
        let rel = self
            .relations
            .get(relation)
            .ok_or_else(|| TquelError::Semantic(format!("unknown relation {relation:?}")))?;
        let span = self.recorder.span("db/scan");
        span.detail(relation);
        let rows = rel.scan(request.as_of, request.key).map_err(|e| match e {
            DbError::Tquel(t) => t,
            DbError::Core(c) => TquelError::Core(c),
            other => TquelError::Semantic(other.to_string()),
        })?;
        span.rows_out(rows.len() as u64);
        Ok(Arc::new(rows))
    }

    fn estimated_rows(&self, relation: &str) -> Option<u64> {
        // The latest `analyze` sample's current-row count — `scan(None)`
        // yields current rows in every class, so "rows" (not "versions")
        // is the comparable estimate.  Never-analyzed relations (and all
        // sys$ telemetry) answer None.
        self.telemetry
            .latest_tablestat(relation, "rows")
            .map(|v| v.max(0) as u64)
    }
}

/// Serializable point-in-time snapshot of every engine instrument,
/// returned by [`Database::engine_stats`].
#[derive(Debug, Clone)]
pub struct EngineStats {
    /// The metrics registry (pager, WAL, scans, rollback, commits …).
    pub metrics: MetricsSnapshot,
    #[doc(hidden)]
    pub cache: NoCache,
    /// Event-journal counters (seq, rotations, retention); `None` for
    /// in-memory databases, which have no journal.
    pub journal: Option<JournalStats>,
    /// The slow-query log's admission threshold (`u64::MAX`: disabled).
    pub slowlog_threshold_ns: u64,
    /// Statements the slow-query log ever admitted.
    pub slowlog_admitted: u64,
    /// Telemetry-subsystem counters (samples, spill, sampler state).
    pub telemetry: TelemetryStats,
}

/// Always zero: the engine has no scan cache.  The frozen chronobench
/// harness still reads these three fields, so the struct stays until
/// the benchmark stops reading them (ROADMAP item 1a).
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default)]
pub struct NoCache {
    pub hits: u64,
    pub misses: u64,
    pub frozen_hits: u64,
}

/// `[Metric; N]` from lines of `Kind name = value => "help",`.
macro_rules! metric_list {
    ($( $kind:ident $name:ident = $value:expr => $help:literal, )*) => {
        [$( Metric::new(stringify!($name), Reading::$kind($value), $help), )*]
    };
}

impl EngineStats {
    /// Every metric, in exposition order: the registry's declared table
    /// with the derived session gauge after its counters, then the slow
    /// log's, the journal's and the telemetry store's readings.
    /// `/metrics` and `sys$stats` are two renderings of this one list.
    pub fn metrics(&self) -> Vec<Metric<'_>> {
        let mut all = self.metrics.metrics();
        let [sessions] = metric_list! {
            Gauge active_sessions = self.metrics.active_sessions()
                => "Sessions opened and not yet closed.",
        };
        let counters = all.partition_point(|m| matches!(m.reading, Reading::Counter(_)));
        all.insert(counters, sessions);
        all.extend(metric_list! {
            Gauge slowlog_threshold_ns = self.slowlog_threshold_ns
                => "The slow-query log's admission threshold (u64::MAX: disabled).",
            Counter slowlog_admitted = self.slowlog_admitted
                => "Statements the slow-query log ever admitted.",
        });
        if let Some(j) = &self.journal {
            all.extend(metric_list! {
                Counter journal_seq = j.seq
                    => "Event-journal sequence numbers handed out over its life.",
                Counter journal_rotations = j.rotations
                    => "Event-journal rotations since it was opened.",
                Gauge journal_generations = j.generations as u64
                    => "Rotated event-journal generations retained on disk.",
                Gauge journal_max_bytes = j.max_bytes
                    => "Event-journal size threshold per generation, in bytes.",
            });
        }
        let t = &self.telemetry;
        all.extend(metric_list! {
            Counter telemetry_samples_taken = t.samples_taken
                => "Stat samples ever recorded.",
            Counter telemetry_samples_spilled = t.samples_spilled
                => "Stat samples spilled to the JSONL file beside the WAL.",
            Gauge telemetry_stats_retained = t.stats_retained as u64
                => "Stat samples retained in memory.",
            Gauge telemetry_catalog_retained = t.catalog_retained as u64
                => "Catalog samples retained in memory.",
            Gauge telemetry_capacity = t.capacity as u64
                => "Samples each telemetry ring retains.",
            Gauge telemetry_sampler_running = u64::from(t.sampler_running)
                => "1 while the background stats sampler runs.",
        });
        all
    }

    /// Prometheus text exposition of [`metrics`](Self::metrics).
    pub fn to_prometheus(&self) -> String {
        prometheus(&self.metrics())
    }
}
