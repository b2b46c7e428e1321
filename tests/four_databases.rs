//! The four database classes, exercised side by side: capabilities,
//! update disciplines, and the exact semantic differences the paper
//! describes between them.

use std::sync::Arc;

use chronos_core::calendar::date;
use chronos_core::chronon::Chronon;
use chronos_core::clock::ManualClock;
use chronos_core::period::Period;
use chronos_core::relation::historical::HistoricalRelation;
use chronos_core::relation::rollback::{RollbackStore, TimestampedRollback};
use chronos_core::relation::static_rel::StaticRelation;
use chronos_core::relation::temporal::{BitemporalTable, TemporalStore};
use chronos_core::relation::{HistoricalOp, RowSelector, StaticOp, Validity};
use chronos_core::schema::{faculty_schema, RelationClass, TemporalSignature};
use chronos_core::taxonomy::{classify, DatabaseClass};
use chronos_core::tuple::{tuple, Tuple};
use chronos_db::{Database, Engine, ExecOutcome};
use chronos_storage::table::{CurrentOrder, Read, TxSelect};
use chronos_tquel::provider::{AsOfSpec, RelationProvider};
use proptest::prelude::*;

fn d(s: &str) -> Chronon {
    date(s).unwrap()
}

fn db_with_all_classes() -> (Arc<Engine>, Arc<ManualClock>) {
    let clock = Arc::new(ManualClock::new(d("01/01/80")));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    engine
        .session()
        .run(
            r#"
        create s_rel (name = str, rank = str) as static
        create r_rel (name = str, rank = str) as rollback
        create h_rel (name = str, rank = str) as historical
        create t_rel (name = str, rank = str) as temporal
    "#,
        )
        .unwrap();
    (engine, clock)
}

/// Applies the same story to each class: hire Merrie as associate, then
/// promote her; ask what each class can still tell us.
fn run_story(engine: &Arc<Engine>, clock: &Arc<ManualClock>, rel: &str) {
    clock.advance_to(d("01/05/80"));
    engine
        .session()
        .run(&format!(
            r#"append to {rel} (name = "Merrie", rank = "associate")"#
        ))
        .unwrap();
    clock.advance_to(d("06/01/82"));
    engine
        .session()
        .run(&format!(
            r#"range of v is {rel}
               replace v (rank = "full") where v.name = "Merrie""#
        ))
        .unwrap();
}

#[test]
fn static_database_forgets_everything() {
    let (engine, clock) = db_with_all_classes();
    run_story(&engine, &clock, "s_rel");
    assert_eq!(
        engine.with_db(|db| db.classify("s_rel")),
        Some(DatabaseClass::Static)
    );
    // Only the snapshot survives.
    let res = engine
        .session()
        .query(r#"range of v is s_rel retrieve (v.rank)"#)
        .unwrap();
    assert_eq!(res.column_strings(0), ["full"]);
    // Neither rollback nor historical queries are possible.
    assert!(engine
        .session()
        .query(r#"range of v is s_rel retrieve (v.rank) as of "01/01/81""#)
        .is_err());
    assert!(engine
        .session()
        .query(r#"range of v is s_rel retrieve (v.rank) when v overlap "01/01/81""#)
        .is_err());
}

#[test]
fn rollback_database_remembers_states_but_not_reality() {
    let (engine, clock) = db_with_all_classes();
    run_story(&engine, &clock, "r_rel");
    assert_eq!(
        engine.with_db(|db| db.classify("r_rel")),
        Some(DatabaseClass::StaticRollback)
    );
    // Rollback sees the old stored state…
    let res = engine
        .session()
        .query(r#"range of v is r_rel retrieve (v.rank) as of "01/01/81""#)
        .unwrap();
    assert_eq!(res.column_strings(0), ["associate"]);
    assert_eq!(res.kind, DatabaseClass::Static, "pure static result");
    // …but has no concept of when the promotion was true in reality.
    assert!(engine
        .session()
        .query(r#"range of v is r_rel retrieve (v.rank) when v overlap "01/01/81""#)
        .is_err());
}

#[test]
fn historical_database_models_reality_but_forgets_beliefs() {
    let (engine, clock) = db_with_all_classes();
    run_story(&engine, &clock, "h_rel");
    assert_eq!(
        engine.with_db(|db| db.classify("h_rel")),
        Some(DatabaseClass::Historical)
    );
    // The replace closed the associate period at its valid start (the
    // commit day, since no valid clause was given).
    let res = engine
        .session()
        .query(r#"range of v is h_rel retrieve (v.rank) when v overlap "01/01/81""#)
        .unwrap();
    assert_eq!(res.column_strings(0), ["associate"]);
    let res = engine
        .session()
        .query(r#"range of v is h_rel retrieve (v.rank) when v overlap "01/01/83""#)
        .unwrap();
    assert_eq!(res.column_strings(0), ["full"]);
    // But there is no rollback: the belief history is gone.
    assert!(engine
        .session()
        .query(r#"range of v is h_rel retrieve (v.rank) as of "01/01/81""#)
        .is_err());
}

#[test]
fn temporal_database_captures_both() {
    let (engine, clock) = db_with_all_classes();
    run_story(&engine, &clock, "t_rel");
    assert_eq!(
        engine.with_db(|db| db.classify("t_rel")),
        Some(DatabaseClass::Temporal)
    );
    // Reality: associate during 1981.
    let res = engine
        .session()
        .query(r#"range of v is t_rel retrieve (v.rank) when v overlap "01/01/81""#)
        .unwrap();
    assert_eq!(res.column_strings(0), ["associate"]);
    // Representation: the database of 1981 believed Merrie was (still)
    // associate on that day; the database of 1983 knew she was full.
    for (as_of, expect) in [("01/01/81", "associate"), ("01/01/83", "full")] {
        let res = engine
            .session()
            .query(&format!(
                r#"range of v is t_rel retrieve (v.rank)
                   when v overlap "{as_of}" as of "{as_of}""#
            ))
            .unwrap();
        assert_eq!(res.column_strings(0), [expect], "as of {as_of}");
    }
    // And both at once.
    let res = engine
        .session()
        .query(
            r#"range of v is t_rel
               retrieve (v.rank)
               when v overlap "01/01/81"
               as of "01/01/83""#,
        )
        .unwrap();
    assert_eq!(res.column_strings(0), ["associate"]);
}

#[test]
fn corrections_distinguish_historical_from_rollback() {
    // A historical database can make a retroactive correction; a rollback
    // database can only append new states.
    let (engine, clock) = db_with_all_classes();
    run_story(&engine, &clock, "h_rel");
    clock.advance_to(d("01/01/83"));
    // Retroactive: the promotion was actually effective 01/01/82.
    engine
        .session()
        .run(
            r#"range of v is h_rel
               replace v (rank = "full") valid from "01/01/82" to forever
               where v.name = "Merrie""#,
        )
        .unwrap();
    let res = engine
        .session()
        .query(r#"range of v is h_rel retrieve (v.rank) when v overlap "03/01/82""#)
        .unwrap();
    assert_eq!(res.column_strings(0), ["full"], "corrected history");
    // No record remains of the old (wrong) belief: the old full row from
    // 06/01/82 was superseded; only the corrected rows exist.
    let stored = engine.with_db(|db| db.relation("h_rel").unwrap().stored_tuples());
    assert_eq!(stored, 2, "associate (closed) + full (corrected)");
}

#[test]
fn same_updates_different_stored_tuples() {
    // The classes store radically different amounts for the same story
    // (the paper's Figure 3 vs 4 / 7 vs 8 distinction, at tuple level).
    let (engine, clock) = db_with_all_classes();
    for rel in ["s_rel", "r_rel", "h_rel", "t_rel"] {
        run_story(&engine, &clock, rel);
    }
    let stored = |rel: &str| engine.with_db(|db| db.relation(rel).unwrap().stored_tuples());
    assert_eq!(stored("s_rel"), 1, "static: snapshot only");
    assert_eq!(stored("r_rel"), 2, "rollback: both stored versions");
    assert_eq!(stored("h_rel"), 2, "historical: both validity rows");
    assert_eq!(stored("t_rel"), 3, "temporal: closed row + 2 current");
}

#[test]
fn outcomes_report_affected_rows() {
    let (engine, clock) = db_with_all_classes();
    clock.advance_to(d("02/01/80"));
    engine
        .session()
        .run(
            r#"append to t_rel (name = "A", rank = "assistant")
               append to t_rel (name = "B", rank = "assistant")"#,
        )
        .unwrap();
    clock.advance_to(d("03/01/80"));
    let out = engine
        .session()
        .run(r#"range of v is t_rel replace v (rank = "associate") where v.rank = "assistant""#)
        .unwrap();
    assert!(matches!(out[1], ExecOutcome::Replaced(2)));
    clock.advance_to(d("04/01/80"));
    let out = engine
        .session()
        .run(r#"range of v is t_rel delete v where v.name = "A""#)
        .unwrap();
    assert!(matches!(out[1], ExecOutcome::Deleted(1)));
}

/// A `valid` clause on a relation without valid time is refused by
/// `replace` as `append` refuses it — same words, nothing written.
#[test]
fn replace_refuses_a_valid_clause_where_append_does() {
    let (engine, clock) = db_with_all_classes();
    for (rel, class) in [("s_rel", "static"), ("r_rel", "static rollback")] {
        run_story(&engine, &clock, rel);
        let state = || {
            engine.with_db(|db| {
                let stored = db.relation(rel).expect("defined").stored_tuples();
                (scanned(db, rel, None), stored)
            })
        };
        let before = state();
        for stmt in [
            format!(
                r#"append to {rel} (name = "Tom", rank = "full")
                   valid from "01/01/81" to forever"#
            ),
            format!(
                r#"range of v is {rel} replace v (rank = "emeritus")
                   valid from "01/01/81" to forever where v.name = "Merrie""#
            ),
        ] {
            let err = engine.session().run(&stmt).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!(
                    "capability violation: 'valid' clause on a {class} relation (no valid time)"
                ),
                "{stmt}"
            );
        }
        assert_eq!(state(), before, "{rel}");
    }
}

/// Figure 10 through the database (experiment T5): the catalog class of
/// a relation is exactly the pair of capabilities its queries have, and
/// a refusal says which capability is missing — unchanged by every class
/// now living in the same store, where the bytes to answer exist.
#[test]
fn capability_matrix_and_refusal_texts_are_pinned() {
    let (engine, clock) = db_with_all_classes();
    for (rel, rollback, historical) in [
        ("s_rel", false, false),
        ("r_rel", true, false),
        ("h_rel", false, true),
        ("t_rel", true, true),
    ] {
        run_story(&engine, &clock, rel);
        assert_eq!(
            engine.with_db(|db| db.classify(rel)),
            Some(classify(rollback, historical))
        );
        let as_of = engine.session().query(&format!(
            r#"range of v is {rel} retrieve (v.rank) as of "01/01/81""#
        ));
        let when = engine.session().query(&format!(
            r#"range of v is {rel} retrieve (v.rank) when v overlap "01/01/81""#
        ));
        let valid = engine.session().run(&format!(
            r#"append to {rel} (name = "Tom", rank = "full") valid from "01/01/81" to forever"#
        ));
        assert_eq!(as_of.is_ok(), rollback, "{rel}: as of");
        assert_eq!(when.is_ok(), historical, "{rel}: when");
        assert_eq!(valid.is_ok(), historical, "{rel}: valid clause");
    }
    for (rel, class) in [("s_rel", "static"), ("h_rel", "historical")] {
        // The analyzer refuses the statement …
        let err = engine
            .session()
            .query(&format!(
                r#"range of v is {rel} retrieve (v.rank) as of "01/01/81""#
            ))
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "semantic error: 'as of' requires rollback support, but v ranges over {rel} \
                 — a {class} relation"
            )
        );
        // … and the store refuses a provider that asks anyway.
        let err = engine
            .with_db(|db| db.scan(rel, Some(&AsOfSpec::At(d("01/01/81")))))
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            format!(
                "semantic error: capability violation: 'as of' on a {class} relation \
                 (no transaction time)"
            )
        );
    }
    // A duplicate is refused in the language of the class: a relation
    // without valid time says what the reference static relation says —
    // no "historical row", no `(-∞, ∞)` the user never wrote.
    let mut reference = StaticRelation::new(faculty_schema());
    reference.insert(tuple(["A", "d1"])).unwrap();
    let static_text = reference
        .insert(tuple(["A", "d1"]))
        .unwrap_err()
        .to_string();
    assert_eq!(static_text, "duplicate tuple (A, d1)");
    let historical_text = "duplicate historical row (A, d1) valid [01/01/83, ∞)";
    for (rel, valid, expect) in [
        ("s_rel", "", static_text.as_str()),
        ("r_rel", "", static_text.as_str()),
        (
            "h_rel",
            r#" valid from "01/01/83" to forever"#,
            historical_text,
        ),
        (
            "t_rel",
            r#" valid from "01/01/83" to forever"#,
            historical_text,
        ),
    ] {
        let append = format!(r#"append to {rel} (name = "A", rank = "d1"){valid}"#);
        engine.session().run(&append).unwrap();
        let err = engine.session().run(&append).unwrap_err();
        assert_eq!(err.to_string(), expect, "{rel}");
    }
}

/// Two rows replaced onto the same new tuple are one new fact in every
/// class — static and rollback relations used to stage it twice and
/// refuse their own transaction.
#[test]
fn replace_onto_one_new_fact_is_accepted_by_every_class() {
    let (engine, clock) = db_with_all_classes();
    for rel in ["s_rel", "r_rel", "h_rel", "t_rel"] {
        clock.advance_to(d("02/01/80"));
        engine
            .session()
            .run(&format!(
                r#"append to {rel} (name = "A", rank = "d1")
                   append to {rel} (name = "A", rank = "d2")"#
            ))
            .unwrap();
        clock.advance_to(d("03/01/80"));
        let out = engine
            .session()
            .run(&format!(
                r#"range of e is {rel} replace e (rank = "x") where e.name = "A""#
            ))
            .unwrap_or_else(|e| panic!("{rel}: {e}"));
        assert!(matches!(out[1], ExecOutcome::Replaced(2)), "{rel}: {out:?}");
        let now = engine
            .session()
            .query(&format!(
                r#"range of e is {rel} retrieve (e.name, e.rank) where e.rank = "x""#
            ))
            .unwrap();
        assert_eq!(now.len(), 1, "{rel}: one new fact");
    }
}

// ---------------------------------------------------------------------
// The unified store against the reference relation of each class
// ---------------------------------------------------------------------

/// One generated operation; row picks resolve against the oracle's
/// current state when the script is replayed.
#[derive(Clone, Debug)]
enum Step {
    Insert {
        name: u8,
        rank: u8,
        from: i64,
        len: Option<i64>,
    },
    Remove(prop::sample::Index),
    Correct {
        pick: prop::sample::Index,
        from: i64,
        len: Option<i64>,
    },
}

fn arb_period() -> impl Strategy<Value = (i64, Option<i64>)> {
    (0i64..40, prop::option::of(1i64..20))
}

fn arb_step() -> impl Strategy<Value = Step> {
    prop_oneof![
        3 => (0u8..6, 0u8..3, arb_period())
            .prop_map(|(name, rank, (from, len))| Step::Insert { name, rank, from, len }),
        2 => any::<prop::sample::Index>().prop_map(Step::Remove),
        2 => (any::<prop::sample::Index>(), arb_period())
            .prop_map(|(pick, (from, len))| Step::Correct { pick, from, len }),
    ]
}

/// Transactions of one to three steps, each preceded by a clock advance.
fn arb_script() -> impl Strategy<Value = Vec<(i64, Vec<Step>)>> {
    prop::collection::vec((1i64..5, prop::collection::vec(arb_step(), 1..4)), 6..28)
}

fn period(from: i64, len: Option<i64>) -> Validity {
    Validity::Interval(match len {
        Some(len) => Period::new(Chronon::new(from), Chronon::new(from + len)).unwrap(),
        None => Period::from_start(Chronon::new(from)),
    })
}

/// What a scan hands the evaluator: the tuple plus the axes the class
/// exposes.
type Row = (Tuple, Option<Validity>, Option<Period>);

/// The `chronos-core` reference relation of one class.
enum Oracle {
    Static(StaticRelation),
    Rollback(TimestampedRollback),
    Historical(HistoricalRelation),
    Temporal(BitemporalTable),
}

impl Oracle {
    fn new(class: RelationClass) -> Oracle {
        let interval = TemporalSignature::Interval;
        match class {
            RelationClass::Static => Oracle::Static(StaticRelation::new(faculty_schema())),
            RelationClass::StaticRollback => {
                Oracle::Rollback(TimestampedRollback::new(faculty_schema()))
            }
            RelationClass::Historical => {
                Oracle::Historical(HistoricalRelation::new(faculty_schema(), interval))
            }
            RelationClass::Temporal => {
                Oracle::Temporal(BitemporalTable::new(faculty_schema(), interval))
            }
        }
    }

    fn has_valid_time(&self) -> bool {
        matches!(self, Oracle::Historical(_) | Oracle::Temporal(_))
    }

    /// The current state, in the reference's row order.
    fn current(&self) -> Vec<Row> {
        match self {
            Oracle::Static(r) => r.iter().map(|t| (t.clone(), None, None)).collect(),
            Oracle::Rollback(r) => r
                .current()
                .iter()
                .map(|t| (t.clone(), None, None))
                .collect(),
            Oracle::Historical(r) => r
                .rows()
                .iter()
                .map(|row| (row.tuple.clone(), Some(row.validity), None))
                .collect(),
            Oracle::Temporal(r) => r
                .rows()
                .iter()
                .filter(|row| row.is_current())
                .map(|row| (row.tuple.clone(), Some(row.validity), Some(row.tx)))
                .collect(),
        }
    }

    /// The rows stored during `window` (one instant for `as of t`), or
    /// `None` for a class that must refuse the question.
    fn stored_during(&self, window: Period) -> Option<Vec<Row>> {
        match self {
            Oracle::Static(_) | Oracle::Historical(_) => None,
            Oracle::Rollback(r) => {
                let mut seen = std::collections::HashSet::new();
                Some(
                    r.rows()
                        .iter()
                        .filter(|row| row.tx.overlaps(window) && seen.insert(&row.tuple))
                        .map(|row| (row.tuple.clone(), None, None))
                        .collect(),
                )
            }
            Oracle::Temporal(r) => Some(
                r.rows()
                    .iter()
                    .filter(|row| row.tx.overlaps(window))
                    .map(|row| (row.tuple.clone(), Some(row.validity), Some(row.tx)))
                    .collect(),
            ),
        }
    }

    /// Lowers generated steps to the operations the session would log
    /// for this class: classes without valid time pin it to `(-∞, ∞)`,
    /// select rows by tuple, and have no corrections to make.
    fn lower(&self, steps: &[Step]) -> Vec<HistoricalOp> {
        let current = self.current();
        let select = |pick: &prop::sample::Index| {
            let (t, validity, _) = &current[pick.index(current.len())];
            match validity {
                Some(v) => RowSelector::exact(t.clone(), *v),
                None => RowSelector::tuple(t.clone()),
            }
        };
        let stamp = |from, len| {
            if self.has_valid_time() {
                period(from, len)
            } else {
                Validity::Interval(Period::ALWAYS)
            }
        };
        let mut ops = Vec::new();
        for step in steps {
            match step {
                Step::Insert {
                    name,
                    rank,
                    from,
                    len,
                } => {
                    let row = tuple([format!("n{name}"), format!("r{rank}")]);
                    ops.push(HistoricalOp::insert(row, stamp(*from, *len)));
                }
                Step::Remove(pick) if !current.is_empty() => {
                    ops.push(HistoricalOp::remove(select(pick)));
                }
                Step::Correct { pick, from, len }
                    if !current.is_empty() && self.has_valid_time() =>
                {
                    ops.push(HistoricalOp::set_validity(
                        select(pick),
                        period(*from, *len),
                    ));
                }
                _ => {}
            }
        }
        ops
    }

    /// Applies a transaction under the reference semantics; an error
    /// leaves the oracle unchanged.
    fn commit(&mut self, t: Chronon, ops: &[HistoricalOp]) -> bool {
        let static_ops = || -> Vec<StaticOp> {
            ops.iter()
                .map(|op| match op {
                    HistoricalOp::Insert { tuple, .. } => StaticOp::Insert(tuple.clone()),
                    HistoricalOp::Remove { selector } => StaticOp::Delete(selector.tuple.clone()),
                    HistoricalOp::SetValidity { .. } => unreachable!("no valid time to correct"),
                })
                .collect()
        };
        match self {
            Oracle::Static(r) => r.apply(&static_ops()).is_ok(),
            Oracle::Rollback(r) => r.commit(t, &static_ops()).is_ok(),
            Oracle::Historical(r) => r.apply(ops).is_ok(),
            Oracle::Temporal(r) => r.commit(t, ops).is_ok(),
        }
    }
}

fn scanned(db: &Database, rel: &str, as_of: Option<&AsOfSpec>) -> Result<Vec<Row>, String> {
    db.scan(rel, as_of)
        .map(|rows| {
            rows.iter()
                .map(|r| (r.tuple.clone(), r.validity, r.tx))
                .collect()
        })
        .map_err(|e| e.to_string())
}

/// Every read the class allows agrees with the oracle, row for row and
/// in order; every read it must refuse is refused.
fn assert_agrees(
    db: &Database,
    rel: &str,
    oracle: &Oracle,
    commits: &[Chronon],
) -> Result<(), TestCaseError> {
    prop_assert_eq!(scanned(db, rel, None), Ok(oracle.current()), "{} now", rel);
    let first = commits.first().copied().unwrap_or(Chronon::new(0));
    for &t in commits.iter().step_by(3).chain(commits.last()) {
        for probe in [t.pred(), t, t.succ()] {
            let at = scanned(db, rel, Some(&AsOfSpec::At(probe)));
            let through = scanned(db, rel, Some(&AsOfSpec::Through(first, probe)));
            match oracle.stored_during(Period::instant(probe)) {
                Some(expect) => {
                    prop_assert_eq!(at, Ok(expect), "{} as of {}", rel, probe);
                    let window = Period::clamped(first, probe.succ());
                    prop_assert_eq!(
                        through,
                        Ok(oracle.stored_during(window).expect("has transaction time")),
                        "{} as of {} through {}",
                        rel,
                        first,
                        probe
                    );
                }
                None => prop_assert!(at.is_err() && through.is_err(), "{} must refuse", rel),
            }
        }
    }
    // "Forgotten completely" / "no memory of corrections" stay literal:
    // a class without transaction time holds no closed version, anywhere.
    let table = db.relation(rel).expect("defined").table();
    if oracle.stored_during(Period::ALWAYS).is_none() {
        prop_assert_eq!(table.frozen_version_count(), 0, "{} keeps history", rel);
        prop_assert_eq!(table.stored_tuples(), oracle.current().len());
    }
    Ok(())
}

/// Defines `rel` as a `(name, rank)` relation of `class`.
fn create(engine: &Engine, rel: &'static str, class: RelationClass) {
    engine
        .exclusive(move |db| {
            db.create_relation(rel, faculty_schema(), class, TemporalSignature::Interval)
        })
        .expect("writer")
        .expect("create");
}

const CLASSES: [(&str, RelationClass); 4] = [
    ("s_rel", RelationClass::Static),
    ("r_rel", RelationClass::StaticRollback),
    ("h_rel", RelationClass::Historical),
    ("t_rel", RelationClass::Temporal),
];

fn cases() -> ProptestConfig {
    // Durable commits fsync, so tier-1 runs a small sample; the full
    // sweep is `PROPTEST_CASES=2048 cargo test --test four_databases`.
    ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(24),
    )
}

proptest! {
    #![proptest_config(cases())]

    /// Random insert / remove / set-validity scripts replayed against
    /// the unified store and against the `chronos-core` reference
    /// relation of each class, with a checkpoint, a log suffix and a
    /// reopen in mid-script.
    #[test]
    fn unified_store_matches_the_reference_relation_of_every_class(script in arb_script()) {
        static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "chronos-fourclass-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let mut clock = Arc::new(ManualClock::new(Chronon::new(100)));
        let mut engine = Engine::start(Database::open(&dir, clock.clone()).expect("open"));
        for (rel, class) in CLASSES {
            create(&engine, rel, class);
        }
        let mut oracles: Vec<Oracle> = CLASSES.iter().map(|(_, c)| Oracle::new(*c)).collect();
        let mut commits: Vec<Vec<Chronon>> = vec![Vec::new(); CLASSES.len()];
        let (checkpoint_at, reopen_at) = (script.len() / 2, script.len() / 2 + 2);
        for (i, (advance, steps)) in script.iter().enumerate() {
            if i == checkpoint_at {
                engine.checkpoint().expect("checkpoint");
            }
            if i == reopen_at {
                // Image + log suffix must restore every class in order.
                let now = engine.with_db(Database::now);
                drop(engine);
                clock = Arc::new(ManualClock::new(now));
                engine = Engine::start(Database::open(&dir, clock.clone()).expect("reopen"));
                for (k, (rel, _)) in CLASSES.iter().enumerate() {
                    engine.with_db(|db| assert_agrees(db, rel, &oracles[k], &commits[k]))?;
                }
            }
            for (k, (rel, _)) in CLASSES.iter().enumerate() {
                let ops = oracles[k].lower(steps);
                if ops.is_empty() {
                    continue;
                }
                clock.tick(*advance);
                let expected = engine.with_db(Database::now);
                // The store accepts exactly the transactions the
                // reference semantics accept, at the time it announced.
                if oracles[k].commit(expected, &ops) {
                    prop_assert_eq!(engine.commit(rel, &ops).ok(), Some(expected), "{} commit", rel);
                    commits[k].push(expected);
                } else {
                    prop_assert!(engine.commit(rel, &ops).is_err(), "{} accepted {:?}", rel, ops);
                }
            }
        }
        for (k, (rel, _)) in CLASSES.iter().enumerate() {
            engine.with_db(|db| assert_agrees(db, rel, &oracles[k], &commits[k]))?;
        }
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Write-side access paths: what a delete/replace reads, what a refused
// transaction leaves behind
// ---------------------------------------------------------------------

/// One generated statement over a `(name, rank)` relation; `pick`
/// chooses the shape of the `where` clause.
#[derive(Clone, Debug)]
enum Write {
    Append {
        name: u8,
        rank: u8,
    },
    Replace {
        pick: usize,
        name: u8,
        rank: u8,
        to: u8,
    },
    Delete {
        pick: usize,
        name: u8,
        rank: u8,
    },
    Checkpoint,
}

/// `where` clauses with a key conjunct (either side of `=`, first or
/// second under `and`, a key nothing carries) and without (none at all,
/// under `or`, under `not`, another attribute).
const WHERES: [&str; 9] = [
    "",
    r#" where v.name = "{n}""#,
    r#" where "{n}" = v.name"#,
    r#" where v.name = "{n}" and v.rank = "{r}""#,
    r#" where v.rank != "{r}" and "{n}" = v.name"#,
    r#" where v.name = "nobody""#,
    r#" where v.name = "{n}" or v.rank = "{r}""#,
    r#" where not (v.name = "{n}")"#,
    r#" where v.rank = "{r}""#,
];

fn where_clause(pick: usize, name: u8, rank: u8) -> String {
    WHERES[pick % WHERES.len()]
        .replace("{n}", &format!("n{name}"))
        .replace("{r}", &format!("r{rank}"))
}

fn arb_write() -> impl Strategy<Value = Write> {
    let clause = || (0usize..WHERES.len(), 0u8..5, 0u8..3);
    prop_oneof![
        5 => (0u8..5, 0u8..3).prop_map(|(name, rank)| Write::Append { name, rank }),
        3 => (clause(), 0u8..3)
            .prop_map(|((pick, name, rank), to)| Write::Replace { pick, name, rank, to }),
        2 => clause().prop_map(|(pick, name, rank)| Write::Delete { pick, name, rank }),
        1 => Just(Write::Checkpoint),
    ]
}

/// What the lowering of `delete`/`replace` read before key-directed
/// lowering: the relation's whole latest state, filtered.
fn full_scan_matching(
    db: &Database,
    rel: &str,
    pred: &chronos_algebra::expr::Predicate,
) -> Vec<(Tuple, Option<Validity>)> {
    db.relation(rel)
        .expect("defined")
        .scan(None, None)
        .expect("scan")
        .into_iter()
        .filter(|row| pred.eval(&row.tuple).expect("typed by the analyzer"))
        .map(|row| (row.tuple, row.validity))
        .collect()
}

/// The rows a `delete v<clause>` on `rel` would act on, through the
/// key-directed path and through the full scan.  The ops a statement
/// lowers to are a function of this row sequence alone (plus the clock),
/// so equal sequences are equal transactions, op for op.
fn assert_same_rows_either_way(
    db: &Database,
    rel: &str,
    clause: &str,
) -> Result<(), TestCaseError> {
    let info = db.info(rel).expect("defined");
    let stmt = chronos_tquel::parse_statement(&format!("delete v{clause}")).expect("parses");
    let chronos_tquel::ast::Statement::Delete { var, where_clause } = stmt else {
        unreachable!("parsed a delete");
    };
    let pred = match &where_clause {
        Some(w) => chronos_tquel::analyze::analyze_where_single(w, &var, &info).expect("typed"),
        None => chronos_algebra::expr::Predicate::True,
    };
    let valid_time = info.class.database_class().supports_historical_queries();
    let keyed: Vec<_> = db
        .relation(rel)
        .expect("defined")
        .current_matching(&pred)
        .expect("lookup")
        .into_iter()
        .map(|row| (row.tuple, valid_time.then_some(row.validity)))
        .collect();
    prop_assert_eq!(
        keyed,
        full_scan_matching(db, rel, &pred),
        "{}{}",
        rel,
        clause
    );
    Ok(())
}

proptest! {
    #![proptest_config(cases())]

    /// Key-directed lowering reads exactly the rows, in exactly the
    /// order, that a scan of the latest state filtered by the predicate
    /// yields — on all four classes, for predicates with and without a
    /// key conjunct, across checkpoints and with dead heap slots reused
    /// by later inserts.
    #[test]
    fn key_directed_lowering_matches_full_scan_lowering(
        script in prop::collection::vec(arb_write(), 8..40)
    ) {
        static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "chronos-lowering-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let clock = Arc::new(ManualClock::new(Chronon::new(100)));
        let engine = Engine::start(Database::open(&dir, clock.clone()).expect("open"));
        for (rel, class) in CLASSES {
            create(&engine, rel, class);
        }
        for write in &script {
            if let Write::Checkpoint = write {
                engine.checkpoint().expect("checkpoint");
                continue;
            }
            for (rel, _) in CLASSES {
                clock.tick(3);
                let text = match write {
                    Write::Append { name, rank } => {
                        format!(r#"append to {rel} (name = "n{name}", rank = "r{rank}")"#)
                    }
                    Write::Replace { pick, name, rank, to } => {
                        let clause = where_clause(*pick, *name, *rank);
                        engine.with_db(|db| assert_same_rows_either_way(db, rel, &clause))?;
                        format!(r#"range of v is {rel} replace v (rank = "r{to}"){clause}"#)
                    }
                    Write::Delete { pick, name, rank } => {
                        let clause = where_clause(*pick, *name, *rank);
                        engine.with_db(|db| assert_same_rows_either_way(db, rel, &clause))?;
                        format!("range of v is {rel} delete v{clause}")
                    }
                    Write::Checkpoint => unreachable!("checkpointed above"),
                };
                // A statement the store refuses (a replace onto a fact
                // that already stands) changes nothing; go on.
                let _ = engine.session().run(&text);
            }
        }
        for (rel, _) in CLASSES {
            for pick in 0..WHERES.len() {
                for (name, rank) in [(0, 0), (3, 1), (4, 2)] {
                    engine.with_db(|db| assert_same_rows_either_way(db, rel, &where_clause(pick, name, rank)))?;
                }
            }
        }
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Everything a commit could have touched, read back through public
/// accessors: the current state, the heap, both interval indexes, the
/// current-row index, the commit clock and the log.
fn physical_state(db: &Database, dir: &std::path::Path, rel: &str) -> String {
    let table = db.relation(rel).expect("defined").table();
    let keys = ["Merrie", "Tom", "Zed"];
    format!(
        "current {:?}\nheap {:?}\ntx index {:?}\nvalid index {:?}\nentries {:?}\nby key {:?}\n\
         commits {} last {:?}\nwal {} bytes",
        table.current().rows(),
        table.scan_rows().expect("heap"),
        [d("02/01/80"), d("07/01/82"), d("01/01/90")]
            .map(|t| table.read(&Read::tx(TxSelect::At(t))).expect("tx")),
        [d("02/01/80"), d("07/01/82"), d("01/01/90")].map(|t| {
            let valid = Some(Period::instant(t));
            let slice = Read {
                valid,
                ..Read::tx(TxSelect::Open)
            };
            table.read(&slice).expect("valid")
        }),
        table.current_entries(None, CurrentOrder::Reference),
        keys.map(|k| table.current_entries(Some(&k.into()), CurrentOrder::Heap)),
        table.transactions(),
        table.last_commit(),
        std::fs::metadata(dir.join("wal")).expect("wal").len(),
    )
}

/// A transaction whose first op is legal and whose second is not is
/// refused whole — with the reference relation's own words — and leaves
/// no trace in memory or on disk.
#[test]
fn a_refused_transaction_leaves_every_structure_as_it_was() {
    let dir = std::env::temp_dir().join(format!("chronos-atomic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let clock = Arc::new(ManualClock::new(d("01/01/80")));
    let engine = Engine::start(Database::open(&dir, clock.clone()).expect("open"));
    for (rel, class) in CLASSES {
        create(&engine, rel, class);
        run_story(&engine, &clock, rel);
        clock.advance_to(d("07/01/82"));
        engine
            .session()
            .run(&format!(
                r#"append to {rel} (name = "Tom", rank = "associate")"#
            ))
            .expect("append");
    }
    clock.advance_to(d("01/01/85"));
    for (rel, class) in CLASSES {
        let valid_time = class.database_class().supports_historical_queries();
        let current = engine.with_db(|db| db.relation(rel).expect("defined").table().current());
        let standing = current.rows()[0].clone();
        let fresh = HistoricalOp::insert(tuple(["Zed", "assistant"]), standing.validity);
        let duplicate = HistoricalOp::insert(standing.tuple.clone(), standing.validity);
        let ghost = HistoricalOp::remove(RowSelector::tuple(tuple(["Ghost", "x"])));
        // What the class's reference relation says to the duplicate.
        let expected = if valid_time {
            let mut reference = current.clone();
            reference
                .apply(&[fresh.clone(), duplicate.clone()])
                .unwrap_err()
                .to_string()
        } else {
            let mut reference = StaticRelation::new(faculty_schema());
            for row in current.rows() {
                reference.insert(row.tuple.clone()).unwrap();
            }
            reference
                .apply(&[
                    StaticOp::Insert(tuple(["Zed", "assistant"])),
                    StaticOp::Insert(standing.tuple.clone()),
                ])
                .unwrap_err()
                .to_string()
        };
        let state = || engine.with_db(|db| physical_state(db, &dir, rel));
        let before = state();
        let err = engine.commit(rel, &[fresh.clone(), duplicate]).unwrap_err();
        assert_eq!(err.to_string(), expected, "{rel}");
        assert!(engine.commit(rel, &[fresh, ghost]).is_err(), "{rel}");
        assert_eq!(state(), before, "{rel}");
    }
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A version no heap page can hold is refused before anything is logged
/// or applied — from plain TQuel, on every class — and the relation
/// goes on as it was: an unkeyed `delete` and a checkpoint (both walk
/// every current row through the index) still work.
#[test]
fn an_oversized_tuple_is_refused_at_validation_and_leaves_no_trace() {
    let dir = std::env::temp_dir().join(format!("chronos-oversized-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let clock = Arc::new(ManualClock::new(d("01/01/80")));
    let engine = Engine::start(Database::open(&dir, clock.clone()).expect("open"));
    let long = "x".repeat(9000);
    for (rel, class) in CLASSES {
        create(&engine, rel, class);
        run_story(&engine, &clock, rel);
        clock.tick(1);
        let state = || engine.with_db(|db| physical_state(db, &dir, rel));
        let before = state();
        for stmt in [
            format!(r#"append to {rel} (name = "{long}", rank = "full")"#),
            format!(r#"range of v is {rel} replace v (name = "{long}") where v.name = "Merrie""#),
        ] {
            let err = engine.session().run(&stmt).unwrap_err().to_string();
            assert!(err.contains("page full: need 90"), "{rel}: {err}");
            assert_eq!(state(), before, "{rel}");
        }
        clock.tick(1);
        let outcome = engine
            .session()
            .run(&format!(
                r#"range of v is {rel} delete v where v.rank = "full""#
            ))
            .expect("unkeyed delete");
        assert!(
            matches!(outcome.last(), Some(ExecOutcome::Deleted(1))),
            "{rel}: {outcome:?}"
        );
    }
    let scans =
        |db: &Database| CLASSES.map(|(rel, _)| db.relation(rel).unwrap().scan(None, None).unwrap());
    let live = engine.with_db(scans);
    engine.checkpoint().expect("checkpoint");
    drop(engine);
    let db = Database::open(&dir, clock).expect("reopen");
    assert_eq!(scans(&db), live);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Scaling, measured in rows rather than microseconds: over 3 500 stored
/// versions a keyed `replace` and a keyed `delete` decode no heap row,
/// and a predicate without a key still reaches every current row.
#[test]
fn a_keyed_write_reads_no_heap_row_however_long_the_history() {
    let clock = Arc::new(ManualClock::new(d("01/01/80")));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    engine
        .session()
        .run("create emp (name = str, salary = int) as temporal")
        .unwrap();
    let mut session = engine.session();
    session.run("range of e is emp").unwrap();
    for k in 0..500 {
        clock.tick(1);
        session
            .run(&format!(r#"append to emp (name = "k{k}", salary = 1)"#))
            .unwrap();
    }
    for round in 2..5 {
        for k in 0..500 {
            clock.tick(1);
            session
                .run(&format!(
                    r#"replace e (salary = {round}) where e.name = "k{k}""#
                ))
                .unwrap();
        }
    }
    drop(session);
    let stored = engine.with_db(|db| db.relation("emp").unwrap().stored_tuples());
    assert_eq!(stored, 2000 + 1500);
    let scanned = || engine.recorder().snapshot().heap_rows_scanned;
    let before = scanned();
    clock.tick(1);
    let out = engine
        .session()
        .run(r#"range of e is emp replace e (salary = 9) where e.name = "k7""#)
        .unwrap();
    assert!(matches!(out[1], ExecOutcome::Replaced(1)), "{out:?}");
    clock.tick(1);
    let out = engine
        .session()
        .run(r#"range of e is emp delete e where e.name = "k8""#)
        .unwrap();
    assert!(matches!(out[1], ExecOutcome::Deleted(1)), "{out:?}");
    assert_eq!(scanned(), before, "a keyed write decoded heap rows");
    // Without a key conjunct every current row is still found: each key
    // has one open-ended fact (k8's was just closed at `now`).
    clock.tick(1);
    let out = engine
        .session()
        .run("range of e is emp replace e (salary = 10) where e.salary > 0")
        .unwrap();
    assert!(matches!(out[1], ExecOutcome::Replaced(499)), "{out:?}");
    assert_eq!(
        scanned(),
        before,
        "the fallback is answered from memory too"
    );
}
