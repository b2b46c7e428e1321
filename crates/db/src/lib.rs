//! # chronos-db
//!
//! The ChronosDB facade: a catalog of named relations spanning all four
//! of the paper's database classes, TQuel execution (queries *and*
//! modifications), transaction-time allocation, and durability via a
//! shared write-ahead log.  Every session — embedded or served over
//! TCP — runs over an [`Engine`]: snapshot-pinned reads, group-committed
//! writes.
//!
//! ```
//! use chronos_db::{Database, Engine};
//! use chronos_core::clock::ManualClock;
//! use chronos_core::calendar::date;
//! use std::sync::Arc;
//!
//! let clock = Arc::new(ManualClock::new(date("08/25/77").unwrap()));
//! let engine = Engine::start(Database::in_memory(clock.clone()));
//! let mut session = engine.session();
//! session.run(r#"
//!     create faculty (name = str, rank = str) as temporal
//!     append to faculty (name = "Merrie", rank = "associate")
//!         valid from "09/01/77" to forever
//!     range of f is faculty
//!     retrieve (f.rank) where f.name = "Merrie"
//! "#).unwrap();
//! ```

pub mod catalog;
pub mod checkpoint;
pub mod database;
pub mod doctor;
pub mod engine;
pub mod error;
pub mod introspect;
pub mod net;
pub mod observe;
pub mod relation;
pub mod session;

pub use database::{Database, EngineStats};
pub use doctor::{inspect, Inspection};
pub use engine::Engine;
pub use error::{DbError, DbResult};
pub use introspect::{
    is_system, system_relation_names, ConnRow, SessionRegistry, SessionRow, TelemetryStats,
    TelemetryStore, SYS_PREFIX,
};
pub use net::{QueryClient, QueryServer, Response};
pub use observe::ObsBootstrap;
pub use session::{ExecOutcome, Session};

/// The session type's former name, kept for existing callers.
pub type EngineSession = Session;
