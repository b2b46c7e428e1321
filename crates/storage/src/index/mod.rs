//! Index structures.
//!
//! * [`interval`] — a randomized interval tree (treap with `max_end`
//!   augmentation) answering stabbing and overlap queries over valid-time
//!   and transaction-time periods, the access paths behind the paper's
//!   rollback and timeslice operations.

pub mod interval;

pub use interval::IntervalTree;
