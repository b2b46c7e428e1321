//! Static rollback relations (paper §4.2).
//!
//! A rollback relation stores "all past states, indexed by time, of the
//! static database as it evolves", supporting transaction time.  Changes
//! may be made only to the most recent state; committed states are
//! immutable (append-only).  Rolling back to time `t` yields the static
//! relation as it was stored at `t` — including any errors it contained:
//! "Errors can sometimes be overridden … but they cannot be forgotten."
//!
//! Two implementations share the [`RollbackStore`] interface:
//!
//! * [`SnapshotRollback`] — the conceptual cube of Figure 3: one complete
//!   static relation per transaction.  The paper judges this
//!   "impractical, due to excessive duplication"; benchmark E14 measures
//!   exactly that.
//! * [`TimestampedRollback`] — the practical encoding of Figure 4: each
//!   tuple carries a transaction-time period `[start, end)`, with `∞` for
//!   still-current tuples.
//!
//! Both must agree on every `rollback(t)`; that equivalence is checked by
//! the tests here and by property tests in the integration suite.

use crate::chronon::Chronon;
use crate::error::{CoreError, CoreResult};
use crate::period::Period;
use crate::relation::static_rel::StaticRelation;
use crate::relation::StaticOp;
use crate::schema::Schema;
use crate::timepoint::TimePoint;
use crate::tuple::Tuple;

/// Common interface of the two rollback-relation implementations.
pub trait RollbackStore {
    /// The relation's schema.
    fn schema(&self) -> &Schema;

    /// Commits a transaction of static operations at transaction time
    /// `tx_time`.  Fails (leaving the store unchanged) when the
    /// operations are invalid against the current state or when `tx_time`
    /// does not advance the transaction clock.
    fn commit(&mut self, tx_time: Chronon, ops: &[StaticOp]) -> CoreResult<()>;

    /// The paper's *rollback* operation: the static state as stored at
    /// transaction time `t`.  Before the first commit the result is the
    /// null relation.
    fn rollback(&self, t: Chronon) -> StaticRelation;

    /// The most recent state (the only one that may be modified).
    fn current(&self) -> StaticRelation;

    /// The transaction time of the latest commit, if any.
    fn last_commit(&self) -> Option<Chronon>;

    /// Number of committed transactions.
    fn transactions(&self) -> usize;

    /// Total tuples physically stored — the space metric of experiment
    /// E14 (snapshot cubes duplicate unchanged tuples; timestamped stores
    /// do not).
    fn stored_tuples(&self) -> usize;

    /// Starts a transaction builder.
    fn begin(&mut self) -> RollbackTx<'_, Self>
    where
        Self: Sized,
    {
        RollbackTx {
            store: self,
            ops: Vec::new(),
        }
    }
}

/// A transaction being assembled against a rollback store.
///
/// Operations accumulate and apply atomically on [`commit`].
///
/// [`commit`]: RollbackTx::commit
#[must_use = "a transaction does nothing until committed"]
pub struct RollbackTx<'a, S: RollbackStore> {
    store: &'a mut S,
    ops: Vec<StaticOp>,
}

impl<S: RollbackStore> RollbackTx<'_, S> {
    /// Stages an insertion.
    pub fn insert(mut self, t: Tuple) -> Self {
        self.ops.push(StaticOp::Insert(t));
        self
    }

    /// Stages a deletion.
    pub fn delete(mut self, t: Tuple) -> Self {
        self.ops.push(StaticOp::Delete(t));
        self
    }

    /// Stages a replacement.
    pub fn replace(mut self, old: Tuple, new: Tuple) -> Self {
        self.ops.push(StaticOp::Replace { old, new });
        self
    }

    /// Commits at `tx_time`.
    pub fn commit(self, tx_time: Chronon) -> CoreResult<()> {
        self.store.commit(tx_time, &self.ops)
    }
}

fn check_monotonic(last: Option<Chronon>, attempted: Chronon) -> CoreResult<()> {
    match last {
        Some(l) if attempted <= l => Err(CoreError::NonMonotonicCommit {
            last: l.to_string(),
            attempted: attempted.to_string(),
        }),
        _ => Ok(()),
    }
}

/// The conceptual cube: a sequence of complete static relations indexed
/// by transaction time (Figure 3).
#[derive(Clone, Debug)]
pub struct SnapshotRollback {
    schema: Schema,
    /// `(commit time, complete state after that commit)`, ascending.
    states: Vec<(Chronon, StaticRelation)>,
}

impl SnapshotRollback {
    /// Creates an empty rollback relation.
    pub fn new(schema: Schema) -> SnapshotRollback {
        SnapshotRollback {
            schema,
            states: Vec::new(),
        }
    }

    /// The committed states, oldest first (used by figure rendering).
    pub fn states(&self) -> &[(Chronon, StaticRelation)] {
        &self.states
    }

    /// Borrows the state committed at index `i` (oldest first).
    ///
    /// Unlike [`rollback`](RollbackStore::rollback) and
    /// [`current`](RollbackStore::current), the borrowed accessors copy
    /// nothing, so benchmark and figure code measuring the *store* does
    /// not also measure a clone of the result.
    pub fn state_at(&self, i: usize) -> Option<&StaticRelation> {
        self.states.get(i).map(|(_, s)| s)
    }

    /// Borrows the most recent state, if any commit has happened.
    pub fn current_ref(&self) -> Option<&StaticRelation> {
        self.states.last().map(|(_, s)| s)
    }

    /// Borrows the state as stored at transaction time `t` (`None`
    /// before the first commit) — the allocation-free rollback.
    pub fn rollback_ref(&self, t: Chronon) -> Option<&StaticRelation> {
        // States are committed in ascending transaction time.
        let idx = self.states.partition_point(|(commit, _)| *commit <= t);
        idx.checked_sub(1).map(|i| &self.states[i].1)
    }
}

impl RollbackStore for SnapshotRollback {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn commit(&mut self, tx_time: Chronon, ops: &[StaticOp]) -> CoreResult<()> {
        check_monotonic(self.last_commit(), tx_time)?;
        let mut next = self.current();
        next.apply(ops)?;
        // "Each transaction results in a new static relation being
        // appended to the front of the cube."
        self.states.push((tx_time, next));
        Ok(())
    }

    fn rollback(&self, t: Chronon) -> StaticRelation {
        self.rollback_ref(t)
            .cloned()
            .unwrap_or_else(|| StaticRelation::new(self.schema.clone()))
    }

    fn current(&self) -> StaticRelation {
        self.current_ref()
            .cloned()
            .unwrap_or_else(|| StaticRelation::new(self.schema.clone()))
    }

    fn last_commit(&self) -> Option<Chronon> {
        self.states.last().map(|(c, _)| *c)
    }

    fn transactions(&self) -> usize {
        self.states.len()
    }

    fn stored_tuples(&self) -> usize {
        self.states.iter().map(|(_, s)| s.len()).sum()
    }
}

/// A tuple-timestamped rollback row: the tuple plus its transaction-time
/// period (Figure 4's `(start)` and `(end)` columns).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RollbackRow {
    /// The explicit attribute values.
    pub tuple: Tuple,
    /// When the tuple was in the database: `[start, end)`, end `∞` while
    /// current.
    pub tx: Period,
}

impl RollbackRow {
    /// True iff the row is in the current state.
    pub fn is_current(&self) -> bool {
        self.tx.end() == TimePoint::PlusInfinity
    }
}

/// The practical encoding: transaction-time start/end appended to each
/// tuple (Figure 4).
#[derive(Clone, Debug)]
pub struct TimestampedRollback {
    schema: Schema,
    rows: Vec<RollbackRow>,
    last_commit: Option<Chronon>,
    transactions: usize,
}

impl TimestampedRollback {
    /// Creates an empty rollback relation.
    pub fn new(schema: Schema) -> TimestampedRollback {
        TimestampedRollback {
            schema,
            rows: Vec::new(),
            last_commit: None,
            transactions: 0,
        }
    }

    /// All physical rows, in creation order (used by figure rendering).
    pub fn rows(&self) -> &[RollbackRow] {
        &self.rows
    }

    /// Reconstructs a store from checkpointed parts, validating the
    /// invariants a live store maintains (schema-conformant tuples, no
    /// duplicate current tuples, no transaction period beyond
    /// `last_commit`).
    pub fn from_parts(
        schema: Schema,
        rows: Vec<RollbackRow>,
        last_commit: Option<Chronon>,
        transactions: usize,
    ) -> CoreResult<TimestampedRollback> {
        let mut current = std::collections::HashSet::new();
        for row in &rows {
            schema.check(&row.tuple)?;
            if row.is_current() && !current.insert(&row.tuple) {
                return Err(CoreError::Invalid(format!(
                    "checkpoint holds duplicate current tuple {}",
                    row.tuple
                )));
            }
            let horizon = last_commit.map_or(TimePoint::MINUS_INFINITY, TimePoint::at);
            if row.tx.start() > horizon {
                return Err(CoreError::Invalid(format!(
                    "checkpoint row committed at {} after last commit {horizon}",
                    row.tx.start()
                )));
            }
        }
        Ok(TimestampedRollback {
            schema,
            rows,
            last_commit,
            transactions,
        })
    }

    fn current_row_index(&self, t: &Tuple) -> Option<usize> {
        self.rows
            .iter()
            .position(|r| r.is_current() && &r.tuple == t)
    }

    fn apply_one(&mut self, tx_time: Chronon, op: &StaticOp) -> CoreResult<()> {
        match op {
            StaticOp::Insert(t) => {
                self.schema.check(t)?;
                if self.current_row_index(t).is_some() {
                    return Err(CoreError::Invalid(format!("duplicate tuple {t}")));
                }
                self.rows.push(RollbackRow {
                    tuple: t.clone(),
                    tx: Period::from_start(tx_time),
                });
                Ok(())
            }
            StaticOp::Delete(t) => {
                let idx = self
                    .current_row_index(t)
                    .ok_or_else(|| CoreError::NoSuchRow(t.to_string()))?;
                let row = &mut self.rows[idx];
                row.tx = Period::clamped(row.tx.start(), TimePoint::at(tx_time));
                Ok(())
            }
            StaticOp::Replace { old, new } => {
                self.apply_one(tx_time, &StaticOp::Delete(old.clone()))?;
                self.apply_one(tx_time, &StaticOp::Insert(new.clone()))
            }
        }
    }
}

impl RollbackStore for TimestampedRollback {
    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn commit(&mut self, tx_time: Chronon, ops: &[StaticOp]) -> CoreResult<()> {
        check_monotonic(self.last_commit, tx_time)?;
        // Validate against a scratch copy so a failing transaction leaves
        // the store untouched.
        let mut scratch = self.rows.clone();
        std::mem::swap(&mut scratch, &mut self.rows);
        for op in ops {
            if let Err(e) = self.apply_one(tx_time, op) {
                self.rows = scratch; // restore
                return Err(e);
            }
        }
        self.last_commit = Some(tx_time);
        self.transactions += 1;
        Ok(())
    }

    fn rollback(&self, t: Chronon) -> StaticRelation {
        let mut out = StaticRelation::new(self.schema.clone());
        for row in &self.rows {
            if row.tx.contains(t) {
                out.insert(row.tuple.clone())
                    .expect("rollback state of a valid store is duplicate-free");
            }
        }
        out
    }

    fn current(&self) -> StaticRelation {
        let mut out = StaticRelation::new(self.schema.clone());
        for row in self.rows.iter().filter(|r| r.is_current()) {
            out.insert(row.tuple.clone())
                .expect("current state of a valid store is duplicate-free");
        }
        out
    }

    fn last_commit(&self) -> Option<Chronon> {
        self.last_commit
    }

    fn transactions(&self) -> usize {
        self.transactions
    }

    fn stored_tuples(&self) -> usize {
        self.rows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::date;
    use crate::schema::faculty_schema;
    use crate::tuple::tuple;

    /// Drives both stores through the paper's Figure 4 history.
    fn figure_4_history<S: RollbackStore>(s: &mut S) {
        s.begin()
            .insert(tuple(["Merrie", "associate"]))
            .commit(date("08/25/77").unwrap())
            .unwrap();
        s.begin()
            .insert(tuple(["Tom", "associate"]))
            .commit(date("12/07/82").unwrap())
            .unwrap();
        s.begin()
            .replace(tuple(["Merrie", "associate"]), tuple(["Merrie", "full"]))
            .commit(date("12/15/82").unwrap())
            .unwrap();
        s.begin()
            .insert(tuple(["Mike", "assistant"]))
            .commit(date("01/10/83").unwrap())
            .unwrap();
        s.begin()
            .delete(tuple(["Mike", "assistant"]))
            .commit(date("02/25/84").unwrap())
            .unwrap();
    }

    #[test]
    fn figure_4_rows() {
        let mut s = TimestampedRollback::new(faculty_schema());
        figure_4_history(&mut s);
        let rows = s.rows();
        // Exactly the four rows of Figure 4 (plus closure semantics).
        assert_eq!(rows.len(), 4);
        let find = |name: &str, rank: &str| {
            rows.iter()
                .find(|r| r.tuple == tuple([name, rank]))
                .unwrap_or_else(|| panic!("{name}/{rank} missing"))
        };
        let m1 = find("Merrie", "associate");
        assert_eq!(m1.tx.start(), TimePoint::at(date("08/25/77").unwrap()));
        assert_eq!(m1.tx.end(), TimePoint::at(date("12/15/82").unwrap()));
        let m2 = find("Merrie", "full");
        assert_eq!(m2.tx.start(), TimePoint::at(date("12/15/82").unwrap()));
        assert_eq!(m2.tx.end(), TimePoint::INFINITY);
        let tom = find("Tom", "associate");
        assert_eq!(tom.tx.start(), TimePoint::at(date("12/07/82").unwrap()));
        assert!(tom.is_current());
        let mike = find("Mike", "assistant");
        assert_eq!(mike.tx.start(), TimePoint::at(date("01/10/83").unwrap()));
        assert_eq!(mike.tx.end(), TimePoint::at(date("02/25/84").unwrap()));
    }

    #[test]
    fn as_of_12_10_82_sees_associate() {
        // TQuel: retrieve (f.rank) where f.name = "Merrie" as of "12/10/82"
        let mut s = TimestampedRollback::new(faculty_schema());
        figure_4_history(&mut s);
        let state = s.rollback(date("12/10/82").unwrap());
        let ranks: Vec<_> = state
            .iter()
            .filter(|t| t.get(0).as_str() == Some("Merrie"))
            .map(|t| t.get(1).as_str().unwrap().to_string())
            .collect();
        assert_eq!(ranks, ["associate"]);
    }

    #[test]
    fn snapshot_and_timestamped_agree_everywhere() {
        let mut a = SnapshotRollback::new(faculty_schema());
        let mut b = TimestampedRollback::new(faculty_schema());
        figure_4_history(&mut a);
        figure_4_history(&mut b);
        let lo = date("01/01/77").unwrap().ticks();
        let hi = date("12/31/84").unwrap().ticks();
        for t in (lo..=hi).step_by(7) {
            let t = Chronon::new(t);
            assert_eq!(a.rollback(t), b.rollback(t), "divergence at {t}");
        }
        assert_eq!(a.current(), b.current());
        assert_eq!(a.transactions(), b.transactions());
    }

    #[test]
    fn snapshot_borrowed_accessors_match_owned() {
        let mut s = SnapshotRollback::new(faculty_schema());
        assert!(s.current_ref().is_none());
        assert!(s.rollback_ref(Chronon::new(0)).is_none());
        figure_4_history(&mut s);
        assert_eq!(s.current_ref(), Some(&s.current()));
        assert_eq!(s.state_at(0), Some(&s.states()[0].1));
        assert!(s.state_at(99).is_none());
        let lo = date("01/01/77").unwrap().ticks();
        let hi = date("12/31/84").unwrap().ticks();
        for t in (lo..=hi).step_by(7) {
            let t = Chronon::new(t);
            match s.rollback_ref(t) {
                Some(state) => assert_eq!(state, &s.rollback(t)),
                None => assert!(s.rollback(t).is_empty()),
            }
        }
    }

    #[test]
    fn snapshot_duplication_vs_timestamped() {
        let mut a = SnapshotRollback::new(faculty_schema());
        let mut b = TimestampedRollback::new(faculty_schema());
        figure_4_history(&mut a);
        figure_4_history(&mut b);
        // The cube duplicates unchanged tuples in every state…
        assert_eq!(a.stored_tuples(), 1 + 2 + 2 + 3 + 2);
        // …while tuple timestamping stores each version once.
        assert_eq!(b.stored_tuples(), 4);
    }

    #[test]
    fn commits_are_append_only() {
        let mut s = TimestampedRollback::new(faculty_schema());
        figure_4_history(&mut s);
        let early = s
            .begin()
            .insert(tuple(["Late", "entry"]))
            .commit(date("01/01/80").unwrap());
        assert!(matches!(early, Err(CoreError::NonMonotonicCommit { .. })));
        // Same transaction time as the last commit is also rejected.
        let same = s
            .begin()
            .insert(tuple(["Late", "entry"]))
            .commit(date("02/25/84").unwrap());
        assert!(same.is_err());
    }

    #[test]
    fn failed_transaction_leaves_store_unchanged() {
        let mut s = TimestampedRollback::new(faculty_schema());
        figure_4_history(&mut s);
        let before_rows = s.rows().to_vec();
        let r = s
            .begin()
            .insert(tuple(["New", "prof"]))
            .delete(tuple(["Ghost", "prof"]))
            .commit(date("06/01/84").unwrap());
        assert!(r.is_err());
        assert_eq!(s.rows(), &before_rows[..]);
        assert_eq!(s.last_commit(), Some(date("02/25/84").unwrap()));
        assert_eq!(s.transactions(), 5);
    }

    #[test]
    fn rollback_before_first_commit_is_null_relation() {
        let mut s = TimestampedRollback::new(faculty_schema());
        figure_4_history(&mut s);
        assert!(s.rollback(date("01/01/70").unwrap()).is_empty());
        let mut c = SnapshotRollback::new(faculty_schema());
        figure_4_history(&mut c);
        assert!(c.rollback(date("01/01/70").unwrap()).is_empty());
    }

    #[test]
    fn past_states_are_immutable_under_later_transactions() {
        let mut s = TimestampedRollback::new(faculty_schema());
        figure_4_history(&mut s);
        let t = date("12/10/82").unwrap();
        let before = s.rollback(t);
        s.begin()
            .insert(tuple(["New", "prof"]))
            .delete(tuple(["Tom", "associate"]))
            .commit(date("06/01/84").unwrap())
            .unwrap();
        assert_eq!(s.rollback(t), before, "append-only: the past never changes");
    }

    #[test]
    fn delete_then_reinsert_same_tuple() {
        let mut s = TimestampedRollback::new(faculty_schema());
        let t = tuple(["Mike", "assistant"]);
        s.begin()
            .insert(t.clone())
            .commit(Chronon::new(10))
            .unwrap();
        s.begin()
            .delete(t.clone())
            .commit(Chronon::new(20))
            .unwrap();
        s.begin()
            .insert(t.clone())
            .commit(Chronon::new(30))
            .unwrap();
        assert!(!s.rollback(Chronon::new(25)).contains(&t));
        assert!(s.rollback(Chronon::new(35)).contains(&t));
        assert_eq!(s.stored_tuples(), 2, "two versions of the tuple");
    }
}
