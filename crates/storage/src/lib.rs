//! # chronos-storage
//!
//! Storage-engine substrate for ChronosDB.
//!
//! The paper (1985) observes that "there has been nothing published on …
//! implementing historical or temporal databases"; this crate is the
//! implementation substrate that makes the taxonomy of `chronos-core`
//! durable and fast:
//!
//! * [`codec`] — a hand-written, length-delimited binary encoding for
//!   tuples, timestamps and rows, with CRC-32 integrity;
//! * [`page`] — 8 KiB slotted pages;
//! * [`pager`] — page stores (in-memory and file-backed) and an LRU
//!   buffer pool;
//! * [`heap`] — heap files of records over pages;
//! * [`wal`] — a write-ahead log with checksummed frames, replay
//!   recovery, and tolerance of torn tails;
//! * [`index`] — an interval tree for transaction-time stabbing and
//!   overlap queries;
//! * [`txn`] — monotonic commit-timestamp allocation over a
//!   [`Clock`](chronos_core::clock::Clock);
//! * [`table`] — [`table::StoredBitemporalTable`], a durable,
//!   index-accelerated implementation of
//!   [`TemporalStore`](chronos_core::relation::temporal::TemporalStore)
//!   that is differentially tested against the in-memory reference
//!   stores of `chronos-core`.

pub mod codec;
pub mod error;
pub mod heap;
pub mod index;
pub mod inspect;
pub mod page;
pub mod pager;
pub mod segment;
pub mod table;
pub mod txn;
pub mod wal;

pub use error::{StorageError, StorageResult};
