//! The interface between TQuel and the relations it queries.
//!
//! The evaluator is storage-agnostic: it sees relations through
//! [`RelationProvider`], which `chronos-db` implements over its catalog.
//! A scan yields [`SourceRow`]s — tuples with whatever timestamps the
//! relation's class carries — optionally rolled back by an
//! [`AsOfSpec`].  The evaluator asks through [`RelationProvider::access`],
//! whose [`AccessRequest`] may also carry a key the provider can use to
//! read less.

use std::sync::Arc;

use chronos_core::chronon::Chronon;
use chronos_core::period::Period;
use chronos_core::relation::Validity;
use chronos_core::schema::{RelationClass, Schema, TemporalSignature};
use chronos_core::tuple::Tuple;
use chronos_core::value::Value;

use crate::error::TquelResult;

/// Catalog metadata for one relation.
#[derive(Clone, Debug)]
pub struct RelationInfo {
    /// Explicit attributes.
    pub schema: Schema,
    /// Which of the paper's four classes the relation is.
    pub class: RelationClass,
    /// Interval or event valid time (meaningful for historical and
    /// temporal relations).
    pub signature: TemporalSignature,
}

/// A resolved `as of` clause.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AsOfSpec {
    /// `as of t`: the state stored at transaction time `t`.
    At(Chronon),
    /// `as of t1 through t2`: every version stored at any time in
    /// `[t1, t2]`.
    Through(Chronon, Chronon),
}

/// One tuple as scanned from a relation.
#[derive(Clone, PartialEq, Debug)]
pub struct SourceRow {
    /// The explicit attribute values.
    pub tuple: Tuple,
    /// Valid time, when the relation's class carries it.
    pub validity: Option<Validity>,
    /// Transaction time, when the relation's class carries it (temporal
    /// relations only — rollback queries yield pure static relations).
    pub tx: Option<Period>,
}

/// What the evaluator asks of one range variable's relation.
#[derive(Clone, Copy, Debug)]
pub struct AccessRequest<'a> {
    /// The resolved `as of` clause, if any.
    pub as_of: Option<&'a AsOfSpec>,
    /// A constant every answer's first attribute equals (the variable's
    /// own `name = "k"` conjunct); rows with another key may be left out.
    pub key: Option<&'a Value>,
}

/// Access to relations by name.
pub trait RelationProvider {
    /// Catalog lookup.
    fn info(&self, relation: &str) -> Option<RelationInfo>;

    /// Scans a relation, applying `as_of` when given.
    ///
    /// * static: current tuples (`as_of` rejected by analysis);
    /// * rollback: the static state as of the given time (or current);
    /// * historical: rows with validity (`as_of` rejected by analysis);
    /// * temporal: rows with validity and transaction periods, filtered
    ///   to those stored as of the given time (or current).
    ///
    /// The rows come back behind an [`Arc`], so a provider can hand
    /// over a row set it already holds without copying it.
    fn scan(&self, relation: &str, as_of: Option<&AsOfSpec>) -> TquelResult<Arc<Vec<SourceRow>>>;

    /// The rows the evaluator reads for one range variable: at least the
    /// rows of `scan(relation, request.as_of)` whose first attribute
    /// equals `request.key` (all of them without a key), in the scan's
    /// relative order.  The evaluator re-checks every predicate, so a
    /// provider may return more — the default ignores the key.
    fn access(
        &self,
        relation: &str,
        request: &AccessRequest<'_>,
    ) -> TquelResult<Arc<Vec<SourceRow>>> {
        self.scan(relation, request.as_of)
    }

    /// Estimated row count for a *current-state* scan of `relation`,
    /// from whatever statistics the provider keeps (`chronos-db` answers
    /// from the latest `analyze` sample in `sys$tablestats`).  `None`
    /// when the relation has never been analyzed — the evaluator then
    /// omits the estimated-vs-actual column for that operator rather
    /// than invent a number.
    fn estimated_rows(&self, relation: &str) -> Option<u64> {
        let _ = relation;
        None
    }
}
