//! One store, four classes.
//!
//! The paper (§4) builds static, rollback and historical relations as
//! *restrictions* of the temporal relation: drop valid time, drop
//! transaction time, or both.  A [`Relation`] says that once: every
//! class is the same [`StoredBitemporalTable`], and the catalog's
//! [`RelationClass`] alone decides
//!
//! * which axes a scan **exposes** — static: neither; rollback: neither
//!   (its validity is pinned to `(-∞, ∞)` and "the result of a query on a
//!   static rollback database is a pure static relation"); historical:
//!   valid time only; temporal: both;
//! * whether `as of` is **accepted** — only where the class has
//!   transaction time (a historical relation still refuses rollback);
//! * whether a superseded version is **kept** — classes with
//!   transaction time close it (append-only, §4.2/§4.4); static and
//!   historical relations drop it physically ("forgotten completely",
//!   §4.1; no memory of corrections, §4.3).
//!
//! All mutation flows through [`Relation::validate`] +
//! [`Relation::apply`] with the operation vocabulary the write-ahead
//! log records ([`HistoricalOp`]), and a `delete` or `replace` finds the
//! rows it acts on through [`Relation::current_matching`]: all three
//! cost what the statement names, not what the relation holds.
//! `chronos-core`'s reference relations are the oracle this store is
//! differentially tested against, not part of it.

use std::collections::HashSet;

use chronos_algebra::expr::{CmpOp, Expr, Predicate};
use chronos_core::chronon::Chronon;
use chronos_core::error::CoreError;
use chronos_core::period::Period;
use chronos_core::relation::historical::HistoricalRow;
use chronos_core::relation::temporal::{BitemporalRow, TemporalStore};
use chronos_core::relation::{HistoricalOp, Validity};
use chronos_core::schema::{RelationClass, Schema, TemporalSignature};
use chronos_core::value::Value;
use chronos_storage::table::{CurrentOrder, StoredBitemporalTable, Superseded};
use chronos_storage::{StorageError, StorageResult};

use crate::error::{DbError, DbResult};
use chronos_tquel::provider::{AsOfSpec, SourceRow};
use chronos_tquel::TquelError;

/// The validity every row of a class without valid time carries.
pub(crate) const ALWAYS: Validity = Validity::Interval(Period::ALWAYS);

pub(crate) fn has_valid_time(class: RelationClass) -> bool {
    class.database_class().supports_historical_queries()
}

pub(crate) fn has_transaction_time(class: RelationClass) -> bool {
    class.database_class().supports_rollback()
}

/// The constant a conjunct `attribute 0 = constant` of `pred` pins the
/// key to, when it has one: no row with another key can satisfy `pred`.
fn key_conjunct(pred: &Predicate) -> Option<&Value> {
    match pred {
        Predicate::Cmp(CmpOp::Eq, Expr::Attr(0), Expr::Const(key))
        | Predicate::Cmp(CmpOp::Eq, Expr::Const(key), Expr::Attr(0)) => Some(key),
        Predicate::And(a, b) => key_conjunct(a).or_else(|| key_conjunct(b)),
        _ => None,
    }
}

/// The table arguments a class implies: rows of a class without valid
/// time are interval-stamped `(-∞, ∞)` whatever the catalog signature
/// says, and only transaction time keeps superseded versions.
fn table_shape(
    class: RelationClass,
    signature: TemporalSignature,
) -> (TemporalSignature, Superseded) {
    (
        if has_valid_time(class) {
            signature
        } else {
            TemporalSignature::Interval
        },
        if has_transaction_time(class) {
            Superseded::Closed
        } else {
            Superseded::Dropped
        },
    )
}

/// A named relation of any class: the class plus the one store.
pub struct Relation {
    class: RelationClass,
    table: StoredBitemporalTable,
}

impl Relation {
    /// Creates an empty relation of the given class.
    pub fn new(schema: Schema, class: RelationClass, signature: TemporalSignature) -> Relation {
        let (signature, superseded) = table_shape(class, signature);
        Relation {
            class,
            table: StoredBitemporalTable::new(schema, signature, superseded),
        }
    }

    /// Rebuilds a relation from stored rows (a checkpoint image or a
    /// materialized query result); the table validates them against the
    /// schema, the signature and the class's keep-or-drop rule.
    pub(crate) fn from_rows(
        schema: Schema,
        class: RelationClass,
        signature: TemporalSignature,
        rows: Vec<BitemporalRow>,
        last_commit: Option<Chronon>,
        transactions: usize,
    ) -> StorageResult<Relation> {
        let (signature, superseded) = table_shape(class, signature);
        Ok(Relation {
            class,
            table: StoredBitemporalTable::from_rows(
                schema,
                signature,
                superseded,
                rows,
                last_commit,
                transactions,
            )?,
        })
    }

    /// Routes the store's instruments into `recorder`.
    pub fn set_recorder(&mut self, recorder: std::sync::Arc<chronos_obs::Recorder>) {
        self.table.set_recorder(recorder);
    }

    /// The relation's class.
    pub fn class(&self) -> RelationClass {
        self.class
    }

    /// The store behind the relation.
    pub fn table(&self) -> &StoredBitemporalTable {
        &self.table
    }

    pub(crate) fn table_mut(&mut self) -> &mut StoredBitemporalTable {
        &mut self.table
    }

    /// Rows currently stored (every kept version included).
    pub fn stored_tuples(&self) -> usize {
        self.table.stored_tuples()
    }

    /// Every stored row in an order a restore reproduces: physical order
    /// where versions are kept (as-of reads follow it), the reference
    /// order of the current state where they are dropped.
    pub(crate) fn image_rows(&self) -> StorageResult<Vec<BitemporalRow>> {
        if has_transaction_time(self.class) {
            self.table.scan_rows()
        } else {
            self.table.current_rows()
        }
    }

    /// Checks that `ops` would apply cleanly at `tx_time`, without
    /// modifying anything (so the write-ahead log never records a failing
    /// transaction).
    pub fn validate(&self, tx_time: Chronon, ops: &[HistoricalOp]) -> DbResult<()> {
        let valid_time = has_valid_time(self.class);
        if !valid_time {
            for op in ops {
                match op {
                    HistoricalOp::Insert { validity, .. } if *validity != ALWAYS => {
                        return Err(DbError::Capability(format!(
                            "a {} relation has no valid time: validity {validity} on an insert",
                            self.class
                        )))
                    }
                    HistoricalOp::SetValidity { .. } => {
                        return Err(DbError::Capability(
                            "validity corrections require a historical or temporal relation".into(),
                        ))
                    }
                    _ => {}
                }
            }
        }
        self.table.validate(tx_time, ops).map_err(|refusal| {
            match (refusal.op.map(|i| &ops[i]), refusal.error) {
                // With the validity pinned above, the one rule an insert
                // can still break is distinctness.  The store words a
                // duplicate with the validity this class hides; the
                // reference static relation knows only the tuple.
                (
                    Some(HistoricalOp::Insert { tuple, .. }),
                    StorageError::Core(CoreError::Invalid(_)),
                ) if !valid_time => {
                    DbError::Core(CoreError::Invalid(format!("duplicate tuple {tuple}")))
                }
                (_, StorageError::Core(e)) => DbError::Core(e),
                (_, e) => e.into(),
            }
        })
    }

    /// Validates and applies a transaction (log replay enters here; a
    /// live commit validates, appends to the write-ahead log, and then
    /// applies through the table directly).
    pub fn apply(&mut self, tx_time: Chronon, ops: &[HistoricalOp]) -> DbResult<()> {
        self.validate(tx_time, ops)?;
        self.table.apply_validated(tx_time, ops)?;
        Ok(())
    }

    /// The current rows satisfying `pred`, in the order a scan of the
    /// latest state shows them — what a `delete` or `replace` acts on.
    /// A predicate with a conjunct `attribute 0 = constant` probes the
    /// table's current-row index for that key; any other walks every
    /// current row.  Either way the answer comes from memory.
    pub fn current_matching(&self, pred: &Predicate) -> DbResult<Vec<HistoricalRow>> {
        // A temporal scan follows the heap, every other reference order.
        let order = if has_valid_time(self.class) && has_transaction_time(self.class) {
            CurrentOrder::Heap
        } else {
            CurrentOrder::Reference
        };
        let entries = self.table.current_entries(key_conjunct(pred), order);
        let mut rows = Vec::new();
        for entry in entries {
            if pred.eval(&entry.tuple).map_err(TquelError::Core)? {
                rows.push(HistoricalRow {
                    tuple: entry.tuple.clone(),
                    validity: entry.validity,
                });
            }
        }
        Ok(rows)
    }

    /// Scans the relation for the evaluator, applying an `as of`
    /// specification when the class supports it; with a `key`, only the
    /// rows whose first attribute is `key`, in the order the unkeyed
    /// scan lists them, read through the table's key indexes.  The
    /// table's own spans name the access path (`tx-index stab`,
    /// `tx-index overlap`, `key index`, heap scan).
    pub fn scan(&self, as_of: Option<&AsOfSpec>, key: Option<&Value>) -> DbResult<Vec<SourceRow>> {
        let valid_time = has_valid_time(self.class);
        let tx_time = has_transaction_time(self.class);
        let table = &self.table;
        let rows = match (as_of, key) {
            (Some(_), _) if !tx_time => {
                return Err(DbError::Capability(format!(
                    "'as of' on a {} relation (no transaction time)",
                    self.class
                )))
            }
            (Some(AsOfSpec::At(t)), None) => table.rows_at(*t)?,
            (Some(AsOfSpec::At(t)), Some(key)) => table.lookup_key_as_of(key, *t)?,
            (Some(AsOfSpec::Through(t1, t2)), key) => {
                let window = Period::clamped(*t1, t2.succ());
                match key {
                    None => table.rows_during(window)?,
                    Some(key) => table.lookup_key_during(key, window)?,
                }
            }
            // Only a temporal scan shows transaction periods, which live
            // on the heap; every other class reads the current state in
            // reference order straight off the table's current-row index.
            (None, key) if valid_time && tx_time => table
                .scan_rows()?
                .into_iter()
                .filter(|row| row.is_current() && key.is_none_or(|k| row.tuple.get(0) == k))
                .collect(),
            (None, key) => {
                return Ok(table
                    .current_entries(key, CurrentOrder::Reference)
                    .into_iter()
                    .map(|row| SourceRow {
                        tuple: row.tuple.clone(),
                        validity: valid_time.then_some(row.validity),
                        tx: None,
                    })
                    .collect())
            }
        };
        // A window over hidden transaction time can hold several versions
        // of one tuple; the pure static result shows it once.
        let collapse = !valid_time && matches!(as_of, Some(AsOfSpec::Through(..)));
        let mut seen = HashSet::new();
        Ok(rows
            .into_iter()
            .filter(|row| !collapse || seen.insert(row.tuple.clone()))
            .map(|row| SourceRow {
                tuple: row.tuple,
                validity: valid_time.then_some(row.validity),
                tx: valid_time.then_some(row.tx),
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_core::relation::RowSelector;
    use chronos_core::schema::faculty_schema;
    use chronos_core::tuple::tuple;

    const CLASSES: [RelationClass; 4] = [
        RelationClass::Static,
        RelationClass::StaticRollback,
        RelationClass::Historical,
        RelationClass::Temporal,
    ];

    #[test]
    fn uniform_ops_drive_every_class() {
        let insert = HistoricalOp::insert(tuple(["Merrie", "full"]), ALWAYS);
        let remove = HistoricalOp::remove(RowSelector::tuple(tuple(["Merrie", "full"])));
        for class in CLASSES {
            let mut rel = Relation::new(faculty_schema(), class, TemporalSignature::Interval);
            assert_eq!(rel.class(), class);
            let t1 = Chronon::new(100);
            rel.validate(t1, std::slice::from_ref(&insert)).unwrap();
            rel.apply(t1, std::slice::from_ref(&insert)).unwrap();
            assert_eq!(rel.scan(None, None).unwrap().len(), 1, "{class}");
            let t2 = Chronon::new(200);
            rel.validate(t2, std::slice::from_ref(&remove)).unwrap();
            rel.apply(t2, std::slice::from_ref(&remove)).unwrap();
            assert!(rel.scan(None, None).unwrap().is_empty(), "{class}");
            // The class alone decides whether the superseded version stays.
            let kept = usize::from(has_transaction_time(class));
            assert_eq!(rel.stored_tuples(), kept, "{class}");
            assert_eq!(rel.table().frozen_version_count(), kept, "{class}");
        }
    }

    #[test]
    fn the_class_decides_which_axes_a_scan_exposes() {
        let insert = HistoricalOp::insert(tuple(["Merrie", "full"]), ALWAYS);
        for class in CLASSES {
            let mut rel = Relation::new(faculty_schema(), class, TemporalSignature::Interval);
            rel.apply(Chronon::new(100), std::slice::from_ref(&insert))
                .unwrap();
            let row = rel.scan(None, None).unwrap().remove(0);
            assert_eq!(row.validity.is_some(), has_valid_time(class), "{class}");
            assert_eq!(
                row.tx.is_some(),
                class == RelationClass::Temporal,
                "{class}"
            );
        }
    }

    /// A scan of the latest state lists rows in the order they were
    /// recorded, whatever slots the heap reuses — in every class.
    #[test]
    fn a_scan_of_the_latest_state_follows_insertion_order() {
        let row = |n: usize| tuple(["Tom".to_string(), format!("r{n}")]);
        let insert = |n: usize| HistoricalOp::insert(row(n), ALWAYS);
        for class in CLASSES {
            let mut rel = Relation::new(faculty_schema(), class, TemporalSignature::Interval);
            let first: Vec<_> = (0..6).map(insert).collect();
            rel.apply(Chronon::new(10), &first).unwrap();
            let gone = [2, 3].map(|n| HistoricalOp::remove(RowSelector::tuple(row(n))));
            rel.apply(Chronon::new(20), &gone).unwrap();
            rel.apply(Chronon::new(30), &[insert(6), insert(7)])
                .unwrap();
            let scanned: Vec<_> = rel
                .scan(None, None)
                .unwrap()
                .into_iter()
                .map(|r| r.tuple)
                .collect();
            assert_eq!(scanned, [0, 1, 4, 5, 6, 7].map(row), "{class}");
            if !has_transaction_time(class) {
                // The new rows took the freed slots: the heap no longer
                // says who came first.
                let heap = rel.table().scan_rows().unwrap();
                let heap: Vec<_> = heap.into_iter().map(|r| r.tuple).collect();
                assert_ne!(heap, scanned, "{class}");
            }
        }
    }

    #[test]
    fn validate_never_mutates() {
        let mut rel = Relation::new(
            faculty_schema(),
            RelationClass::Temporal,
            TemporalSignature::Interval,
        );
        let insert = HistoricalOp::insert(tuple(["Tom", "associate"]), ALWAYS);
        rel.apply(Chronon::new(10), std::slice::from_ref(&insert))
            .unwrap();
        // A failing op validates to an error and changes nothing.
        let bad = HistoricalOp::remove(RowSelector::tuple(tuple(["Ghost", "x"])));
        assert!(rel
            .validate(Chronon::new(20), std::slice::from_ref(&bad))
            .is_err());
        assert_eq!(rel.stored_tuples(), 1);
        // A succeeding validate also changes nothing.
        let good = HistoricalOp::insert(tuple(["Mike", "assistant"]), ALWAYS);
        rel.validate(Chronon::new(20), std::slice::from_ref(&good))
            .unwrap();
        assert_eq!(rel.stored_tuples(), 1);
    }

    #[test]
    fn valid_time_rejected_on_static_classes() {
        let correction =
            HistoricalOp::set_validity(RowSelector::tuple(tuple(["Tom", "associate"])), ALWAYS);
        let stamped = HistoricalOp::insert(
            tuple(["Tom", "associate"]),
            Period::from_start(Chronon::new(5)),
        );
        for class in [RelationClass::Static, RelationClass::StaticRollback] {
            let rel = Relation::new(faculty_schema(), class, TemporalSignature::Interval);
            for op in [&correction, &stamped] {
                assert!(matches!(
                    rel.validate(Chronon::new(1), std::slice::from_ref(op)),
                    Err(DbError::Capability(_))
                ));
            }
        }
    }

    #[test]
    fn as_of_rejected_without_transaction_time() {
        for class in [RelationClass::Static, RelationClass::Historical] {
            let rel = Relation::new(faculty_schema(), class, TemporalSignature::Interval);
            let err = rel
                .scan(Some(&AsOfSpec::At(Chronon::new(5))), None)
                .unwrap_err();
            assert_eq!(
                err.to_string(),
                DbError::Capability(format!(
                    "'as of' on a {class} relation (no transaction time)"
                ))
                .to_string()
            );
        }
    }

    #[test]
    fn rollback_scan_as_of_and_through() {
        let mut rel = Relation::new(
            faculty_schema(),
            RelationClass::StaticRollback,
            TemporalSignature::Interval,
        );
        let merrie = HistoricalOp::insert(tuple(["Merrie", "associate"]), ALWAYS);
        let tom = HistoricalOp::insert(tuple(["Tom", "associate"]), ALWAYS);
        let drop_merrie = HistoricalOp::remove(RowSelector::tuple(tuple(["Merrie", "associate"])));
        let rehire = HistoricalOp::insert(tuple(["Merrie", "associate"]), ALWAYS);
        rel.apply(Chronon::new(10), &[merrie]).unwrap();
        rel.apply(Chronon::new(20), &[tom]).unwrap();
        rel.apply(Chronon::new(30), &[drop_merrie]).unwrap();
        rel.apply(Chronon::new(40), &[rehire]).unwrap();
        assert_eq!(
            rel.scan(Some(&AsOfSpec::At(Chronon::new(15))), None)
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            rel.scan(Some(&AsOfSpec::At(Chronon::new(25))), None)
                .unwrap()
                .len(),
            2
        );
        assert_eq!(
            rel.scan(Some(&AsOfSpec::At(Chronon::new(35))), None)
                .unwrap()
                .len(),
            1
        );
        assert_eq!(rel.scan(None, None).unwrap().len(), 2);
        // Through a window spanning both of Merrie's tenures sees her once.
        let through = rel
            .scan(
                Some(&AsOfSpec::Through(Chronon::new(15), Chronon::new(45))),
                None,
            )
            .unwrap();
        assert_eq!(through.len(), 2);
        assert!(through
            .iter()
            .all(|r| r.validity.is_none() && r.tx.is_none()));
    }
}
