//! # chronos-core
//!
//! Core library for **ChronosDB**, a Rust reproduction of
//! Snodgrass & Ahn, *"A Taxonomy of Time in Databases"* (SIGMOD 1985).
//!
//! The paper identifies three kinds of time that a database may support:
//!
//! * **transaction time** — when information was stored in the database.
//!   Supplied by the DBMS, append-only, models the *representation*;
//! * **valid time** — when the stored information was true in reality.
//!   User-supplied and correctable, models *reality*;
//! * **user-defined time** — additional temporal attributes whose values the
//!   DBMS stores but does not interpret.
//!
//! and derives four classes of database from two orthogonal capabilities
//! (*rollback* and *historical queries*): **static**, **static rollback**,
//! **historical** and **temporal** (bitemporal) databases.
//!
//! This crate provides:
//!
//! * the time domain ([`Chronon`], [`TimePoint`], [`Period`], Allen interval
//!   relations, a proleptic-Gregorian [`calendar`]);
//! * the taxonomy itself as code ([`taxonomy`]), including the literature
//!   classification tables of the paper's Figures 1 and 13;
//! * the relational model: the [`value`], [`schema`] and `tuple` modules;
//! * reference implementations of all four relation classes
//!   ([`relation`]), in both the conceptual "cube of snapshots" form and
//!   the practical tuple-timestamped form, whose equivalence is the
//!   executable semantics of the paper.
//!
//! Higher layers build on this crate: `chronos-storage` (pages, WAL,
//! indexes), `chronos-algebra` (temporal relational algebra),
//! `chronos-tquel` (the TQuel query language) and `chronos-db` (the DBMS
//! facade).
//!
//! ## Quick example
//!
//! ```
//! use chronos_core::prelude::*;
//!
//! // Build the start of the paper's Figure 8 bitemporal `faculty` relation.
//! let schema = Schema::new(vec![
//!     Attribute::new("name", AttrType::Str),
//!     Attribute::new("rank", AttrType::Str),
//! ]).unwrap();
//! let mut faculty = BitemporalTable::new(schema, TemporalSignature::Interval);
//!
//! let recorded = date("08/25/77").unwrap();
//! faculty.begin()
//!     .insert(tuple(["Merrie", "associate"]), Period::from_start(date("09/01/77").unwrap()))
//!     .commit(recorded)
//!     .unwrap();
//! assert_eq!(faculty.current().len(), 1);
//! ```

pub mod calendar;
pub mod chronon;
pub mod clock;
pub mod error;
pub mod period;
pub mod relation;
pub mod render;
pub mod schema;
pub mod taxonomy;
pub mod timepoint;
pub mod tuple;
pub mod value;

pub use chronon::Chronon;
pub use error::{CoreError, CoreResult};
pub use period::Period;
pub use timepoint::TimePoint;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::calendar::{date, Date};
    pub use crate::chronon::Chronon;
    pub use crate::clock::{Clock, ManualClock, SystemClock};
    pub use crate::error::{CoreError, CoreResult};
    pub use crate::period::{AllenRelation, Period};
    pub use crate::relation::historical::HistoricalRelation;
    pub use crate::relation::rollback::{RollbackStore, SnapshotRollback, TimestampedRollback};
    pub use crate::relation::static_rel::StaticRelation;
    pub use crate::relation::temporal::{BitemporalTable, SnapshotTemporal, TemporalStore};
    pub use crate::relation::{HistoricalOp, RowSelector, Validity};
    pub use crate::schema::{Attribute, RelationClass, Schema, TemporalSignature};
    pub use crate::taxonomy::{DatabaseClass, TimeKind};
    pub use crate::timepoint::TimePoint;
    pub use crate::tuple::{tuple, Tuple};
    pub use crate::value::{AttrType, Value};
}
