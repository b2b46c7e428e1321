//! The database's operational observability surface.
//!
//! [`ObsBootstrap`] bundles the `Arc`-shared engine handles the HTTP
//! exporter reads — recorder (metrics, slow log, journal), readiness
//! flags, telemetry, sessions and physical snapshots — *independently of the `Database` value
//! itself*.  That indirection is what lets an exporter start **before**
//! recovery: create a bootstrap, serve it (`/healthz` answers 503),
//! then pass it to [`Database::open_with_obs`], which marks the
//! readiness flags as the catalog, checkpoint image, and WAL replay
//! complete — flipping the endpoint to 200 with no server restart.
//!
//! For the common case (observe an already-open database),
//! [`Database::serve_observability`] does the same wiring from the
//! database's own handles.
//!
//! [`Database::open_with_obs`]: crate::Database::open_with_obs
//! [`Database::serve_observability`]: crate::Database::serve_observability

use std::sync::Arc;

use chronos_obs::export::{serve, Health, ObsServer, ObsSource};
use chronos_obs::Recorder;

use crate::database::EngineStats;
use crate::introspect::{PhysicalStore, SessionRegistry, TelemetryStore};

/// Pre-created engine handles shared between a [`Database`] and the
/// exporter serving it.
///
/// [`Database`]: crate::Database
pub struct ObsBootstrap {
    pub(crate) recorder: Arc<Recorder>,
    pub(crate) health: Arc<Health>,
    pub(crate) telemetry: Arc<TelemetryStore>,
    pub(crate) registry: Arc<SessionRegistry>,
    pub(crate) physical: Arc<PhysicalStore>,
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
            physical: Arc::new(PhysicalStore::default()),
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

    /// The shared physical-storage snapshot (`/wal` + `/storage`).
    pub fn physical(&self) -> &Arc<PhysicalStore> {
        &self.physical
    }

    /// Starts the HTTP exporter over these handles.  Endpoints answer
    /// immediately; `/healthz` stays 503 until a database opened with
    /// this bootstrap finishes recovery.
    pub fn serve(&self, addr: &str) -> std::io::Result<ObsServer> {
        serve(
            addr,
            Arc::new(DbObsSource {
                recorder: Arc::clone(&self.recorder),
                health: Arc::clone(&self.health),
                telemetry: Arc::clone(&self.telemetry),
                registry: Arc::clone(&self.registry),
                physical: Arc::clone(&self.physical),
            }),
        )
    }
}

/// The exporter's view of a database: everything it serves is computed
/// from `Arc`-shared handles, so it never borrows the `Database`.
pub(crate) struct DbObsSource {
    pub(crate) recorder: Arc<Recorder>,
    pub(crate) health: Arc<Health>,
    pub(crate) telemetry: Arc<TelemetryStore>,
    pub(crate) registry: Arc<SessionRegistry>,
    pub(crate) physical: Arc<PhysicalStore>,
}

impl ObsSource for DbObsSource {
    fn prometheus(&self) -> String {
        engine_stats_from(&self.recorder, &self.telemetry).to_prometheus()
    }

    fn stats_json(&self) -> String {
        engine_stats_from(&self.recorder, &self.telemetry).to_json()
    }

    fn slow_json(&self) -> String {
        self.recorder.slowlog().to_json()
    }

    fn queries_json(&self) -> String {
        self.recorder.fingerprints().to_json()
    }

    fn events_json(&self, n: usize) -> String {
        match self.recorder.journal() {
            Some(journal) => {
                // Each tail line is already one well-formed JSON object.
                let lines = journal.tail_lines(n);
                let mut out = String::from("{\"events\": [");
                for (i, line) in lines.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    out.push_str(line.trim());
                }
                out.push_str("]}");
                out
            }
            None => "{\"events\": []}".to_string(),
        }
    }

    fn history_json(&self, metric: &str, n: usize) -> String {
        let mut out = format!(
            "{{\"metric\": \"{}\", \"samples\": [",
            chronos_obs::events::escape_json(metric)
        );
        for (i, (at, value)) in self.telemetry.history(metric, n).iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{{\"at\": {}, \"value\": {value}}}", at.ticks()));
        }
        out.push_str("]}");
        out
    }

    fn sessions_json(&self) -> String {
        self.registry.to_json()
    }

    fn wal_json(&self) -> String {
        self.physical.wal_json()
    }

    fn storage_json(&self) -> String {
        self.physical.storage_json()
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
        telemetry: telemetry.stats(),
    }
}
