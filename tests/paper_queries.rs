//! The paper's four worked queries, executed through the full stack
//! (TQuel text → parser → analyzer → evaluator → database), with every
//! printed timestamp of the paper's answers asserted.

use std::sync::Arc;

use chronos_core::calendar::date;
use chronos_core::chronon::Chronon;
use chronos_core::clock::ManualClock;
use chronos_core::period::Period;
use chronos_core::relation::Validity;
use chronos_core::taxonomy::DatabaseClass;
use chronos_db::{Database, Engine};

fn d(s: &str) -> Chronon {
    date(s).unwrap()
}

/// A database with the paper's faculty history, built via TQuel.
fn paper_db() -> (Arc<Engine>, Arc<ManualClock>) {
    let clock = Arc::new(ManualClock::new(d("01/01/77")));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    engine
        .session()
        .run("create faculty (name = str, rank = str) as temporal")
        .unwrap();
    let steps: &[(&str, &str)] = &[
        (
            "08/25/77",
            r#"append to faculty (name = "Merrie", rank = "associate") valid from "09/01/77" to forever"#,
        ),
        (
            "12/01/82",
            r#"append to faculty (name = "Tom", rank = "full") valid from "12/05/82" to forever"#,
        ),
        (
            "12/07/82",
            r#"range of f is faculty
            replace f (rank = "associate") valid from "12/05/82" to forever where f.name = "Tom""#,
        ),
        (
            "12/15/82",
            r#"range of f is faculty
            replace f (rank = "full") valid from "12/01/82" to forever where f.name = "Merrie""#,
        ),
        (
            "01/10/83",
            r#"append to faculty (name = "Mike", rank = "assistant") valid from "01/01/83" to forever"#,
        ),
        (
            "02/25/84",
            r#"range of f is faculty
            replace f (rank = "assistant") valid from "01/01/83" to "03/01/84" where f.name = "Mike""#,
        ),
    ];
    for (day, stmt) in steps {
        clock.advance_to(d(day));
        engine.session().run(stmt).unwrap();
    }
    clock.advance_to(d("01/01/85"));
    (engine, clock)
}

#[test]
fn query_1_static_retrieve() {
    // Section 4.1 poses the query against a *static* database whose
    // snapshot holds (Merrie, full) and (Tom, associate):
    //   retrieve (f.rank) where f.name = "Merrie"   =>  full
    let clock = Arc::new(ManualClock::new(d("01/01/85")));
    let engine = Engine::start(Database::in_memory(clock));
    engine
        .session()
        .run(
            r#"create faculty (name = str, rank = str) as static
               append to faculty (name = "Merrie", rank = "full")
               append to faculty (name = "Tom", rank = "associate")"#,
        )
        .unwrap();
    let res = engine
        .session()
        .query(
            r#"range of f is faculty
               retrieve (f.rank) where f.name = "Merrie""#,
        )
        .unwrap();
    assert_eq!(res.column_strings(0), ["full"]);
    assert_eq!(res.kind, DatabaseClass::Static);

    // On the temporal database the same bare retrieve returns Merrie's
    // whole known history — both ranks, each with its valid time.
    let (engine, _clock) = paper_db();
    let res = engine
        .session()
        .query(
            r#"range of f is faculty
               retrieve (f.rank) where f.name = "Merrie""#,
        )
        .unwrap();
    let mut ranks = res.column_strings(0);
    ranks.sort();
    assert_eq!(ranks, ["associate", "full"]);
    // Restricting to "now" (any instant after the promotion) gives full.
    let res = engine
        .session()
        .query(
            r#"range of f is faculty
               retrieve (f.rank) where f.name = "Merrie" when f overlap "01/01/85""#,
        )
        .unwrap();
    assert_eq!(res.column_strings(0), ["full"]);
}

#[test]
fn query_2_rollback_as_of() {
    // Section 4.2: … as of "12/10/82"  =>  associate
    let (engine, _clock) = paper_db();
    let res = engine
        .session()
        .query(
            r#"range of f is faculty
               retrieve (f.rank) where f.name = "Merrie" as of "12/10/82""#,
        )
        .unwrap();
    assert_eq!(res.column_strings(0), ["associate"]);
}

#[test]
fn query_3_historical_when() {
    // Section 4.3: retrieve (f1.rank)
    //              where f1.name = "Merrie" and f2.name = "Tom"
    //              when f1 overlap start of f2
    // => full, valid [12/01/82, ∞)
    let (engine, _clock) = paper_db();
    let res = engine
        .session()
        .query(
            r#"range of f1 is faculty
               range of f2 is faculty
               retrieve (f1.rank)
               where f1.name = "Merrie" and f2.name = "Tom"
               when f1 overlap start of f2"#,
        )
        .unwrap();
    assert_eq!(res.len(), 1);
    assert_eq!(res.column_strings(0), ["full"]);
    assert_eq!(
        res.rows[0].validity,
        Some(Validity::Interval(Period::from_start(d("12/01/82"))))
    );
    // "Note that the derived relation is also an historical relation" —
    // it came from a temporal relation, so here it is in fact temporal.
    assert_eq!(res.kind, DatabaseClass::Temporal);
}

#[test]
fn query_4_bitemporal_as_of_pair() {
    // Section 4.4: the same when-query as of 12/10/82 and 12/20/82.
    let (engine, _clock) = paper_db();
    let q = |engine: &Arc<Engine>, as_of: &str| {
        engine
            .session()
            .query(&format!(
                r#"range of f1 is faculty
                   range of f2 is faculty
                   retrieve (f1.rank)
                   where f1.name = "Merrie" and f2.name = "Tom"
                   when f1 overlap start of f2
                   as of "{as_of}""#
            ))
            .unwrap()
    };
    // The paper's printed answer row:
    //   associate | 09/01/77 ∞ | 08/25/77 12/15/82
    let early = q(&engine, "12/10/82");
    assert_eq!(early.len(), 1);
    let row = &early.rows[0];
    assert_eq!(row.tuple.get(0).as_str(), Some("associate"));
    assert_eq!(
        row.validity,
        Some(Validity::Interval(Period::from_start(d("09/01/77"))))
    );
    assert_eq!(
        row.tx,
        Some(Period::new(d("08/25/77"), d("12/15/82")).unwrap())
    );
    assert_eq!(early.kind, DatabaseClass::Temporal);

    // "If a similar query is made as of 12/20/82, the answer would be
    // full because the fact was recorded retroactively by that time."
    let late = q(&engine, "12/20/82");
    assert_eq!(late.column_strings(0), ["full"]);
    assert_eq!(
        late.rows[0].validity,
        Some(Validity::Interval(Period::from_start(d("12/01/82"))))
    );
}

#[test]
fn derived_temporal_relations_close_under_queries() {
    // §4.4: "This derived relation is a temporal relation, so further
    // temporal relations can be derived from it."  We verify closure by
    // checking the result carries both timestamps and that restricting
    // by them reproduces the same answers.
    let (engine, _clock) = paper_db();
    let res = engine
        .session()
        .query(
            r#"range of f1 is faculty
               retrieve (f1.name, f1.rank)
               when f1 overlap "06/01/83""#,
        )
        .unwrap();
    assert_eq!(res.kind, DatabaseClass::Temporal);
    for row in &res.rows {
        assert!(row.validity.is_some());
        assert!(row.tx.is_some());
        assert!(row.validity.unwrap().valid_at(d("06/01/83")));
    }
    // Exactly the people serving on 06/01/83: Merrie (full), Tom, Mike.
    let mut names = res.column_strings(0);
    names.sort();
    assert_eq!(names, ["Merrie", "Mike", "Tom"]);
}

#[test]
fn the_inconsistency_window_is_observable() {
    // §4.3's point: the static-rollback answer and the historical answer
    // for "Merrie's rank on 12/05/82" differ because the database was
    // inconsistent with reality from 12/01/82 to 12/15/82.  A temporal
    // database exposes the window precisely.
    let (engine, _clock) = paper_db();
    let mut window = Vec::new();
    for day in [
        "11/30/82", "12/01/82", "12/10/82", "12/14/82", "12/15/82", "12/16/82",
    ] {
        // What the database believed *on `day`* about Merrie's rank on
        // `day` — valid and transaction time pinned to the same instant…
        let as_stored = engine
            .session()
            .query(&format!(
                r#"range of f is faculty
                   retrieve (f.rank) where f.name = "Merrie"
                   when f overlap "{day}" as of "{day}""#
            ))
            .unwrap();
        // …versus what it *now* knows was true on `day`.
        let as_known_now = engine
            .session()
            .query(&format!(
                r#"range of f is faculty
                   retrieve (f.rank) where f.name = "Merrie"
                   when f overlap "{day}""#
            ))
            .unwrap();
        let stored = as_stored.column_strings(0).join(",");
        let known = as_known_now.column_strings(0).join(",");
        window.push((day, stored != known));
    }
    assert_eq!(
        window,
        [
            ("11/30/82", false),
            ("12/01/82", true), // promoted in reality, not yet recorded
            ("12/10/82", true),
            ("12/14/82", true),
            ("12/15/82", false), // correction recorded
            ("12/16/82", false),
        ]
    );
}
