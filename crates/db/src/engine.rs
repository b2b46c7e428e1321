//! The query engine: shared MVCC core + group-commit writer.
//!
//! Every session runs over an [`Engine`], embedded or networked alike.
//! The engine owns one [`Database`] behind an `Arc`-shared core, so
//! many sessions run in parallel:
//!
//! * **Readers** take the engine's `RwLock` in read mode and scan
//!   through the existing as-of machinery.  Each [`Session`] pins a
//!   *snapshot* — the durable commit watermark at `begin` — and every
//!   scan of a transaction-time relation is clamped to that pin, so a
//!   session sees one consistent transaction-time state no matter how
//!   many commits land underneath it (see `PinnedProvider`).
//!
//! * **Writers** never touch the database directly.  All mutation is
//!   funneled through a bounded submission queue drained by a single
//!   writer thread, which applies each commit serially (preserving
//!   the WAL's replay order) but *stages* the WAL frames and covers a
//!   whole batch with **one** fsync — group commit.  Submitters block
//!   until the covering fsync completes, so an acknowledged commit is
//!   durable; under concurrency the natural batch size approaches the
//!   number of in-flight writers and the fsync-per-commit cost drops
//!   toward `1/batch`.  This is the only way a transaction reaches the
//!   log.
//!
//! * **Exclusive operations** (DDL, `retrieve into`, checkpoints) run
//!   alone on the writer thread between batches, with the write lock
//!   held and the previous batch's fsync already on disk — this
//!   serializes WAL resets against group syncs by construction.  The
//!   writer's own checkpoint policy runs the same way, after a group's
//!   acks, once the log outgrows the last checkpoint
//!   (see `CHECKPOINT_LOG_FLOOR`).
//!
//! ## Visibility and the durable watermark
//!
//! The writer applies a commit to the in-memory state *before* its
//! covering fsync.  Snapshot pins are taken from the **durable**
//! watermark (the last fsync-covered commit), so a pinned session can
//! never observe a commit that a crash could still revoke.  Every
//! relation class lives in the same store, but a static or historical
//! relation *drops* a superseded version instead of closing it, so
//! there is no past state to clamp its scans to: those two classes read
//! at read-committed isolation, as do the current-row probes that lower
//! `delete`/`replace` statements.  (Keeping a hidden, recorded
//! transaction time for them would close that hole; see ROADMAP.)
//!
//! If the covering fsync *fails*, the staged frames have been rolled
//! back but the in-memory state already applied them: the engine
//! poisons itself — every later submission is refused with the
//! original error, reads included, and the process must reopen the
//! database, which replays exactly the durable prefix.  A commit that
//! fails after it changed its table (`StorageError::PartlyApplied`)
//! poisons the engine the same way: its frame is rolled back, the rest
//! of its batch is refused, and no checkpoint runs.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::SyncSender;
use std::sync::{mpsc, Arc, Condvar, Mutex as StdMutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use chronos_core::chronon::Chronon;
use chronos_core::period::Period;
use chronos_core::relation::HistoricalOp;
use chronos_obs::trace::Recorder;
use chronos_storage::StorageError;
use chronos_tquel::provider::{AccessRequest, AsOfSpec, RelationInfo, RelationProvider, SourceRow};
use chronos_tquel::TquelResult;
use parking_lot::{Mutex, RwLock, RwLockReadGuard};

use crate::database::{Database, EngineStats};
use crate::error::{DbError, DbResult};
use crate::introspect::SessionRegistry;
use crate::session::Session;

/// Submissions the writer thread accepts before producers block.
/// Bounds memory under a submission storm; large enough that closed-
/// loop writers never stall on it.
const SUBMISSION_QUEUE_CAP: usize = 256;

/// The snapshot pin used when the database has no durable commit yet:
/// far enough in the past that every transaction-time relation reads
/// as empty, yet far from `i64::MIN` so period arithmetic cannot wrap.
fn empty_pin() -> Chronon {
    Chronon::new(i64::MIN / 4)
}

enum WriterReq {
    /// One session's statement: ops against a single relation,
    /// acknowledged (with the allocated transaction time) only after
    /// the covering group fsync.
    Commit {
        relation: String,
        ops: Vec<HistoricalOp>,
        reply: SyncSender<DbResult<Chronon>>,
        /// When the submitter enqueued the request; the writer records
        /// the dequeue delta into the `commit_queue_wait` histogram.
        enqueued: Instant,
    },
    /// An operation that must run alone (DDL, materialize,
    /// checkpoint); the closure owns its own reply channel.
    Exclusive {
        f: Box<dyn FnOnce(&mut Database) + Send + 'static>,
    },
}

struct WriterState {
    queue: VecDeque<WriterReq>,
    /// Set by the first fsync failure: the in-memory state holds
    /// commits the log does not, so the engine refuses further work.
    poisoned: Option<String>,
    stopping: bool,
}

/// A shared, concurrently-usable database engine.
///
/// Create one with [`Engine::start`]; open sessions with
/// [`Engine::session`].  Dropping the last handle stops the writer
/// thread after it drains the queue, and closes the database;
/// [`Engine::shutdown`] does the same while handles are still alive.
pub struct Engine {
    core: Arc<Core>,
    writer: StdMutex<Option<JoinHandle<()>>>,
}

/// What the writer thread shares with the handle.  The thread holds
/// only this, never the [`Engine`], so dropping the last handle can
/// stop it.
struct Core {
    db: RwLock<Database>,
    state: StdMutex<WriterState>,
    /// Set with `WriterState::poisoned`, before the failing batch hears
    /// back: what a read checks, so a statement pays one relaxed load
    /// and no lock.  It publishes nothing; the message is read under
    /// the state lock.
    poisoned: AtomicBool,
    cond: Condvar,
    /// Last fsync-covered commit time — what new sessions pin.
    durable: Mutex<Option<Chronon>>,
    recorder: Arc<Recorder>,
    /// Live session/connection introspection, shared with the wrapped
    /// database (`sys$sessions`) and the TQuel service.
    registry: Arc<SessionRegistry>,
}

impl Engine {
    /// Wraps `db` and starts the group-commit writer thread.
    pub fn start(db: Database) -> Arc<Engine> {
        let slot = Arc::clone(&db.engine);
        let core = Arc::new(Core {
            recorder: Arc::clone(db.recorder()),
            registry: Arc::clone(db.session_registry()),
            durable: Mutex::new(db.last_commit_time()),
            db: RwLock::new(db),
            state: StdMutex::new(WriterState {
                queue: VecDeque::new(),
                poisoned: None,
                stopping: false,
            }),
            poisoned: AtomicBool::new(false),
            cond: Condvar::new(),
        });
        let loop_core = Arc::clone(&core);
        let handle = std::thread::Builder::new()
            .name("chronos-writer".into())
            .spawn(move || loop_core.writer_loop())
            .expect("spawn group-commit writer");
        let engine = Arc::new(Engine {
            core,
            writer: StdMutex::new(Some(handle)),
        });
        // The exporter reads live storage through this handle.
        *slot.lock() = Arc::downgrade(&engine);
        engine
    }

    /// Opens a snapshot-pinned session.  The pin is the durable
    /// watermark right now; [`Session::refresh`] advances it.
    pub fn session(self: &Arc<Engine>) -> Session {
        self.core.recorder.count(|m| &m.sessions_opened);
        let pin = self.snapshot();
        let session_id = self.core.registry.register_session(pin.ticks());
        Session::new(Arc::clone(self), pin, session_id)
    }

    /// The live session/connection registry (`sys$sessions`,
    /// `/sessions`, and the TQuel service's connection accounting).
    pub fn session_registry(&self) -> &Arc<SessionRegistry> {
        &self.core.registry
    }

    /// The last commit covered by an fsync (what a new session pins).
    pub fn durable_watermark(&self) -> Option<Chronon> {
        *self.core.durable.lock()
    }

    /// The pin a session takes when it opens or refreshes: the durable
    /// watermark, or [`empty_pin`] before the first durable commit.
    pub(crate) fn snapshot(&self) -> Chronon {
        self.durable_watermark().unwrap_or_else(empty_pin)
    }

    /// Runs `f` with shared read access to the core — the engine-side
    /// counterpart of [`Database`]'s introspection surface (stats,
    /// recorder, telemetry, `now`).
    pub fn with_db<R>(&self, f: impl FnOnce(&Database) -> R) -> R {
        f(&self.core.db.read())
    }

    /// Takes the core's read lock for a statement, recording the
    /// acquisition wait into the `read_lock_wait` histogram (read-side
    /// contention with the group-commit writer).  A disabled recorder
    /// reads no clock.  A poisoned engine refuses: its memory may hold
    /// part of a commit the log does not.
    pub(crate) fn read_db(&self) -> DbResult<RwLockReadGuard<'_, Database>> {
        if self.core.poisoned.load(Ordering::Relaxed) {
            let state = self
                .core
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            return Err(poisoned(state.poisoned.as_deref().unwrap_or_default()));
        }
        let recorder = &self.core.recorder;
        if !recorder.is_enabled() {
            return Ok(self.core.db.read());
        }
        let started = Instant::now();
        let db = self.core.db.read();
        recorder.record_latency(|m| &m.read_lock_wait, started.elapsed().as_nanos() as u64);
        Ok(db)
    }

    /// Snapshot of every engine instrument (see
    /// [`Database::engine_stats`]).
    pub fn stats(&self) -> EngineStats {
        self.core.db.read().engine_stats()
    }

    /// The observability recorder shared with the wrapped database.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.core.recorder
    }

    /// Submits one commit to the writer and blocks until it is
    /// durable (or failed).  The returned chronon is the allocated
    /// transaction time.
    pub fn commit(&self, relation: &str, ops: &[HistoricalOp]) -> DbResult<Chronon> {
        let (reply, rx) = mpsc::sync_channel(1);
        self.core.submit(WriterReq::Commit {
            relation: relation.to_string(),
            ops: ops.to_vec(),
            reply,
            enqueued: Instant::now(),
        })?;
        rx.recv()
            .map_err(|_| DbError::Service("write service stopped before acknowledging".into()))?
    }

    /// Runs `f` alone on the writer thread with exclusive access —
    /// after the previous batch's fsync, before the next batch.  DDL,
    /// `retrieve into`, and checkpoints go through here.
    pub fn exclusive<R, F>(&self, f: F) -> DbResult<R>
    where
        R: Send + 'static,
        F: FnOnce(&mut Database) -> R + Send + 'static,
    {
        let (reply, rx) = mpsc::sync_channel(1);
        self.core.submit(WriterReq::Exclusive {
            f: Box::new(move |db| {
                let _ = reply.send(f(db));
            }),
        })?;
        rx.recv()
            .map_err(|_| DbError::Service("write service stopped before acknowledging".into()))
    }

    /// Checkpoints the wrapped database (exclusive; see
    /// [`Database::checkpoint`]).
    pub fn checkpoint(&self) -> DbResult<()> {
        self.exclusive(|db| db.checkpoint())?
    }

    /// Stops the writer thread after draining every queued request;
    /// later submissions are refused.  Idempotent; also run when the
    /// last handle drops.
    pub fn shutdown(&self) {
        // `Drop` runs this, so it must not panic: setting a flag and
        // taking the handle leave both mutexes valid even after a panic.
        self.core
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .stopping = true;
        self.core.cond.notify_all();
        let handle = self
            .writer
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl Core {
    fn submit(&self, req: WriterReq) -> DbResult<()> {
        let mut st = self
            .state
            .lock()
            .expect("writer state poisoned (writer thread panicked)");
        let mut stalled = false;
        loop {
            if let Some(msg) = &st.poisoned {
                return Err(poisoned(msg));
            }
            if st.stopping {
                return Err(DbError::Service("write service is shut down".into()));
            }
            if st.queue.len() < SUBMISSION_QUEUE_CAP {
                break;
            }
            // Backpressure: counted once per blocked submission, not
            // once per condvar wakeup.
            if !stalled {
                stalled = true;
                self.recorder.count(|m| &m.submit_stalls);
            }
            st = self
                .cond
                .wait(st)
                .expect("writer state poisoned (writer thread panicked)");
        }
        st.queue.push_back(req);
        self.recorder
            .set_gauge(|m| &m.commit_queue_depth, st.queue.len() as u64);
        drop(st);
        self.cond.notify_all();
        Ok(())
    }

    // ------------------------------------------------------------
    // the writer thread
    // ------------------------------------------------------------

    fn writer_loop(&self) {
        loop {
            // Wait for work; drain the longest prefix of same-kind
            // requests (a run of commits forms one group; an
            // exclusive runs alone).
            let batch: Vec<WriterReq> = {
                let mut st = self.state.lock().expect("writer state poisoned");
                loop {
                    if !st.queue.is_empty() {
                        break;
                    }
                    if st.stopping {
                        return;
                    }
                    st = self.cond.wait(st).expect("writer state poisoned");
                }
                let mut batch = Vec::new();
                while let Some(front) = st.queue.front() {
                    let commit = matches!(front, WriterReq::Commit { .. });
                    if batch.is_empty() {
                        let req = st.queue.pop_front().expect("checked front");
                        let solo = !commit;
                        batch.push(req);
                        if solo {
                            break;
                        }
                    } else if commit {
                        batch.push(st.queue.pop_front().expect("checked front"));
                    } else {
                        break;
                    }
                }
                self.recorder
                    .set_gauge(|m| &m.commit_queue_depth, st.queue.len() as u64);
                batch
            };
            // Producers blocked on a full queue can move again.
            self.cond.notify_all();
            // Queue-wait decomposition: submit → drain, per request.
            let drained_at = Instant::now();
            for req in &batch {
                if let WriterReq::Commit { enqueued, .. } = req {
                    self.recorder.record_latency(
                        |m| &m.commit_queue_wait,
                        drained_at.duration_since(*enqueued).as_nanos() as u64,
                    );
                }
            }
            match batch.first() {
                Some(WriterReq::Exclusive { .. }) => {
                    for req in batch {
                        if let WriterReq::Exclusive { f } = req {
                            let mut db = self.db.write();
                            f(&mut db);
                            // DDL may have committed (materialize
                            // checkpoints; creates persist the
                            // catalog): those paths fsync on their
                            // own, so the watermark follows.
                            let t = db.last_commit_time();
                            drop(db);
                            *self.durable.lock() = t;
                        }
                    }
                }
                Some(WriterReq::Commit { .. }) => self.run_commit_group(batch),
                None => {}
            }
        }
    }

    /// Applies a run of commits serially, covers the whole batch with
    /// one fsync, and acknowledges each submitter.
    fn run_commit_group(&self, batch: Vec<WriterReq>) {
        let mut acks: Vec<(SyncSender<DbResult<Chronon>>, DbResult<Chronon>)> =
            Vec::with_capacity(batch.len());
        let mut applied = 0u64;
        let mut max_tx: Option<Chronon> = None;
        // Set when a commit failed after it had changed its table: the
        // rest of the batch is refused and the engine poisons itself.
        let mut torn: Option<String> = None;
        let wal = {
            let lock_started = Instant::now();
            let mut db = self.db.write();
            self.recorder.record_latency(
                |m| &m.commit_lock_wait,
                lock_started.elapsed().as_nanos() as u64,
            );
            let apply_started = Instant::now();
            let wal = db.wal_handle();
            for req in batch {
                let WriterReq::Commit {
                    relation,
                    ops,
                    reply,
                    ..
                } = req
                else {
                    unreachable!("commit group contains only commits");
                };
                // A failed statement (validation, unknown relation)
                // rolls back its own staged frame inside the
                // database; the rest of the batch is unaffected.
                let result = match &torn {
                    Some(msg) => Err(poisoned(msg)),
                    None => db.commit_unsynced(&relation, &ops),
                };
                match &result {
                    Ok(t) => {
                        applied += 1;
                        max_tx = Some(max_tx.map_or(*t, |m: Chronon| m.max(*t)));
                    }
                    Err(e @ DbError::Storage(StorageError::PartlyApplied(_))) => {
                        torn = Some(e.to_string());
                    }
                    Err(_) => {}
                }
                acks.push((reply, result));
            }
            self.recorder.record_latency(
                |m| &m.commit_apply,
                apply_started.elapsed().as_nanos() as u64,
            );
            wal
            // Write lock drops here: readers resume while we fsync.
        };
        let fsync_started = Instant::now();
        let sync_result = match (&wal, applied) {
            (Some(wal), n) if n > 0 => {
                let r = wal.lock().group_sync().map_err(DbError::Storage);
                self.recorder.record_latency(
                    |m| &m.commit_fsync,
                    fsync_started.elapsed().as_nanos() as u64,
                );
                r
            }
            _ => Ok(()),
        };
        match sync_result {
            Ok(()) => {
                if applied > 0 {
                    if let Some(t) = max_tx {
                        let mut durable = self.durable.lock();
                        *durable = Some(durable.map_or(t, |d| d.max(t)));
                    }
                    self.recorder.count(|m| &m.group_commit_batches);
                    // The histogram generically records "ns"; here the
                    // recorded value is a batch size (a count).
                    self.recorder
                        .record_latency(|m| &m.group_batch_size, applied);
                    if wal.is_some() && applied > 1 {
                        self.recorder
                            .count_n(|m| &m.group_fsyncs_saved, applied - 1);
                    }
                }
                if let Some(msg) = &torn {
                    // Part of a commit is applied in memory and nowhere
                    // in the log: refuse all further work before anyone
                    // hears back, and write no checkpoint.
                    self.poison(msg.clone());
                }
                let ack_started = Instant::now();
                for (reply, result) in acks {
                    let _ = reply.send(result);
                }
                self.recorder
                    .record_latency(|m| &m.commit_ack, ack_started.elapsed().as_nanos() as u64);
                if torn.is_none() && applied > 0 && self.db.read().log_outgrew_checkpoint() {
                    // The checkpoint policy runs here, the way an
                    // exclusive request runs: alone, after the acks,
                    // with the batch's fsync on disk.
                    self.db.write().checkpoint_for_log();
                }
            }
            Err(e) => {
                // The staged frames are gone from the log but applied
                // in memory: refuse all further work.
                let msg = e.to_string();
                self.poison(msg.clone());
                for (reply, result) in acks {
                    let _ = reply.send(match result {
                        Ok(_) => Err(DbError::Service(format!(
                            "commit lost: group fsync failed ({msg}); reopen required"
                        ))),
                        err => err,
                    });
                }
            }
        }
    }

    /// Refuses every later submission: the in-memory state holds what
    /// the log does not, and only a reopen replays the durable truth.
    fn poison(&self, msg: String) {
        self.state.lock().expect("writer state poisoned").poisoned = Some(msg);
        self.poisoned.store(true, Ordering::Relaxed);
        self.cond.notify_all();
    }
}

/// The error a poisoned engine answers every submission with.
fn poisoned(msg: &str) -> DbError {
    DbError::Service(format!(
        "engine poisoned by a durability failure ({msg}); reopen required"
    ))
}

/// A [`RelationProvider`] view of the core clamped to a snapshot pin —
/// the only provider a session reads through; [`Database`]'s own is
/// the unclamped one underneath it.
///
/// Relations with transaction time (rollback, temporal) are read `as
/// of min(requested, pin)` — a query can look further back than its
/// snapshot but never past it — and each version shows its transaction
/// end as known at the pin: an end committed after the pin reads `∞`.
/// So a pinned read is repeatable, keyed or not.  Classes without
/// transaction time and the `sys$` projections pass through unclamped
/// (read committed).
pub(crate) struct PinnedProvider<'a> {
    db: &'a Database,
    pin: Chronon,
}

impl<'a> PinnedProvider<'a> {
    /// `db` read through the snapshot `pin`.
    pub(crate) fn new(db: &'a Database, pin: Chronon) -> Self {
        PinnedProvider { db, pin }
    }
}

impl RelationProvider for PinnedProvider<'_> {
    fn info(&self, relation: &str) -> Option<RelationInfo> {
        self.db.info(relation)
    }

    fn scan(&self, relation: &str, as_of: Option<&AsOfSpec>) -> TquelResult<Arc<Vec<SourceRow>>> {
        self.access(relation, &AccessRequest { as_of, key: None })
    }

    fn access(
        &self,
        relation: &str,
        request: &AccessRequest<'_>,
    ) -> TquelResult<Arc<Vec<SourceRow>>> {
        // `sys$` projections are not in the catalog, so they pass too.
        if !self
            .db
            .classify(relation)
            .is_some_and(|c| c.supports_rollback())
        {
            return self.db.access(relation, request);
        }
        let pin = self.pin;
        let clamped = match request.as_of {
            None => AsOfSpec::At(pin),
            Some(AsOfSpec::At(t)) => AsOfSpec::At((*t).min(pin)),
            Some(AsOfSpec::Through(t1, t2)) => AsOfSpec::Through((*t1).min(pin), (*t2).min(pin)),
        };
        let request = AccessRequest {
            as_of: Some(&clamped),
            key: request.key,
        };
        let rows = self.db.access(relation, &request)?;
        let after_pin = |row: &SourceRow| {
            row.tx
                .and_then(|tx| tx.end().finite())
                .is_some_and(|end| end > pin)
        };
        if !rows.iter().any(after_pin) {
            return Ok(rows);
        }
        let mut rows = Arc::unwrap_or_clone(rows);
        for row in &mut rows {
            if after_pin(row) {
                row.tx = row.tx.map(|tx| Period::from_start(tx.start()));
            }
        }
        Ok(Arc::new(rows))
    }

    fn estimated_rows(&self, relation: &str) -> Option<u64> {
        // Statistics are telemetry, not versioned state — the latest
        // analyze sample answers regardless of the snapshot pin.
        RelationProvider::estimated_rows(self.db, relation)
    }
}
