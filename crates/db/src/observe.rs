//! The database's operational observability surface.
//!
//! [`ObsBootstrap`] bundles the `Arc`-shared engine handles the HTTP
//! exporter reads — recorder (metrics, slow log, journal), readiness
//! flags, telemetry, sessions, and a weak handle to the engine —
//! *independently of the `Database` value itself*.  That indirection is
//! what lets an exporter start **before** recovery: create a bootstrap,
//! serve it (`/healthz` answers 503), then pass it to
//! [`Database::open_with_obs`], which marks the readiness flags as the
//! catalog, checkpoint image, and WAL replay complete — flipping the
//! endpoint to 200 with no server restart.
//!
//! For the common case (observe an already-open database),
//! [`Database::serve_observability`] does the same wiring from the
//! database's own handles.
//!
//! Every JSON endpoint is the rows of its `sys$` relation(s), built by
//! the row builders a TQuel scan uses and rendered by
//! [`introspect::document`](crate::introspect::document).  `/wal` and
//! `/storage` read live storage (`sys$wal`, `sys$pages`) and `/stats`
//! the engine's clock, all through the engine handle [`Engine::start`]
//! fills; until then they answer 503 `starting`.  A scrape opens no
//! session, records no span, and moves no counter.

use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use chronos_obs::export::{serve, Endpoint, Health, ObsServer, ObsSource};
use chronos_obs::Recorder;
use chronos_tquel::provider::SourceRow;

use crate::database::{Database, EngineStats};
use crate::engine::Engine;
use crate::introspect::{
    document, event_rows, query_rows, slow_rows, stats_rows, SessionRegistry, TelemetryStore,
};

/// The engine a database runs under, as the exporter reaches it: empty
/// until [`Engine::start`] fills it, and weak, so a running exporter
/// never keeps an engine alive.
pub(crate) type EngineSlot = Mutex<Weak<Engine>>;

/// Pre-created engine handles shared between a [`Database`] and the
/// exporter serving it.
///
/// [`Database`]: crate::Database
pub struct ObsBootstrap {
    pub(crate) recorder: Arc<Recorder>,
    pub(crate) health: Arc<Health>,
    pub(crate) telemetry: Arc<TelemetryStore>,
    pub(crate) registry: Arc<SessionRegistry>,
    pub(crate) engine: Arc<EngineSlot>,
}

impl Default for ObsBootstrap {
    fn default() -> Self {
        ObsBootstrap::new()
    }
}

impl ObsBootstrap {
    /// Fresh handles with every readiness flag down.
    pub fn new() -> ObsBootstrap {
        ObsBootstrap {
            recorder: Arc::new(Recorder::new()),
            health: Arc::new(Health::starting()),
            telemetry: Arc::new(TelemetryStore::default()),
            registry: Arc::new(SessionRegistry::default()),
            engine: Arc::default(),
        }
    }

    /// Handles whose recorder is *disabled*: every instrument
    /// short-circuits to a branch.  The overhead experiments open one
    /// database with these and one with the default to price the
    /// observability layer itself.
    pub fn disabled() -> ObsBootstrap {
        ObsBootstrap {
            recorder: Arc::new(Recorder::disabled()),
            ..ObsBootstrap::new()
        }
    }

    /// The readiness flags (for tests and callers that mark stages).
    pub fn health(&self) -> &Arc<Health> {
        &self.health
    }

    /// The shared recorder.
    pub fn recorder(&self) -> &Arc<Recorder> {
        &self.recorder
    }

    /// The shared telemetry store (`sys$stats` samples, `/history`).
    pub fn telemetry(&self) -> &Arc<TelemetryStore> {
        &self.telemetry
    }

    /// The shared session/connection registry (`/sessions`).
    pub fn session_registry(&self) -> &Arc<SessionRegistry> {
        &self.registry
    }

    /// Starts the HTTP exporter over these handles.  Endpoints answer
    /// immediately; `/healthz` stays 503 until a database opened with
    /// this bootstrap finishes recovery, and `/stats`, `/wal` and
    /// `/storage` until an engine runs it.
    pub fn serve(&self, addr: &str) -> std::io::Result<ObsServer> {
        serve(
            addr,
            Arc::new(DbObsSource {
                recorder: Arc::clone(&self.recorder),
                health: Arc::clone(&self.health),
                telemetry: Arc::clone(&self.telemetry),
                registry: Arc::clone(&self.registry),
                engine: Arc::clone(&self.engine),
            }),
        )
    }
}

/// The exporter's view of a database: everything it serves is computed
/// from `Arc`-shared handles, so it never borrows the `Database` except
/// through the engine, for the documents that read storage.
struct DbObsSource {
    recorder: Arc<Recorder>,
    health: Arc<Health>,
    telemetry: Arc<TelemetryStore>,
    registry: Arc<SessionRegistry>,
    engine: Arc<EngineSlot>,
}

impl DbObsSource {
    /// `read` over the running engine's database; `None` before
    /// [`Engine::start`] (or after the engine stopped).
    fn with_db<R>(&self, read: impl FnOnce(&Database) -> R) -> Option<R> {
        let engine = self.engine.lock().upgrade()?;
        Some(engine.with_db(read))
    }
}

impl ObsSource for DbObsSource {
    fn prometheus(&self) -> String {
        engine_stats_from(&self.recorder, &self.telemetry).to_prometheus()
    }

    fn document(&self, endpoint: Endpoint<'_>) -> Option<String> {
        let one = |relation, rows: Vec<SourceRow>| document(&[(relation, &rows)]);
        Some(match endpoint {
            Endpoint::Stats => {
                let now = self.with_db(Database::now)?;
                let stats = engine_stats_from(&self.recorder, &self.telemetry);
                one("sys$stats", stats_rows(&stats, now))
            }
            Endpoint::Slow => one("sys$slow", slow_rows(self.recorder.slowlog())),
            Endpoint::Queries => one("sys$queries", query_rows(self.recorder.fingerprints())),
            Endpoint::Sessions => document(&[
                ("sys$sessions", &self.registry.sessions_scan()),
                ("sys$connections", &self.registry.connections_scan()),
            ]),
            Endpoint::Events { n } => one(
                "sys$events",
                event_rows(self.recorder.journal().as_deref(), n),
            ),
            Endpoint::History { metric, n } => {
                one("sys$stats", self.telemetry.history_rows(metric, n))
            }
            Endpoint::Wal => one("sys$wal", self.with_db(Database::wal_rows)?),
            Endpoint::Storage => one("sys$pages", self.with_db(Database::pages_rows)?),
        })
    }

    fn health(&self) -> &Health {
        &self.health
    }
}

/// Builds the unified stats snapshot from the shared handles (also the
/// body of [`Database::engine_stats`](crate::Database::engine_stats)).
pub(crate) fn engine_stats_from(recorder: &Recorder, telemetry: &TelemetryStore) -> EngineStats {
    EngineStats {
        metrics: recorder.snapshot(),
        cache: Default::default(),
        journal: recorder.journal().map(|j| j.stats()),
        slowlog_threshold_ns: recorder.slowlog().threshold_ns(),
        slowlog_admitted: recorder.slowlog().admitted(),
        telemetry: telemetry.stats(),
    }
}
