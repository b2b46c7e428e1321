//! Index structures.
//!
//! * [`interval`] — a randomized interval tree (treap with `max_end`
//!   augmentation) answering stabbing and overlap queries over
//!   transaction-time periods, the access path behind the paper's
//!   rollback operation.

pub mod interval;

pub use interval::IntervalTree;
