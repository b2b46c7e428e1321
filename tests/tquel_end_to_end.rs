//! TQuel end to end: every statement form, clause combination, and
//! diagnostic path, executed against a live database.

use std::sync::Arc;

use chronos_core::calendar::date;
use chronos_core::chronon::Chronon;
use chronos_core::clock::ManualClock;
use chronos_core::relation::Validity;
use chronos_core::schema::TemporalSignature;
use chronos_core::taxonomy::DatabaseClass;
use chronos_db::{Database, DbError, Engine, ExecOutcome};
use chronos_tquel::printer::render;
use chronos_tquel::TquelError;

fn d(s: &str) -> Chronon {
    date(s).unwrap()
}

fn db() -> (Arc<Engine>, Arc<ManualClock>) {
    let clock = Arc::new(ManualClock::new(d("01/01/80")));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    engine
        .session()
        .run("create faculty (name = str, rank = str) as temporal")
        .unwrap();
    (engine, clock)
}

#[test]
fn create_all_forms() {
    let (engine, _c) = db();
    let mut s = engine.session();
    s.run("create a (x = int, y = float, z = bool, w = date, v = str) as static")
        .unwrap();
    s.run("create b (x = str) as historical event").unwrap();
    s.run("create c (x = str) as temporal interval").unwrap();
    s.run("create dflt (x = str)").unwrap(); // defaults: temporal interval
    drop(s);
    assert_eq!(
        engine.with_db(|db| db.classify("dflt")),
        Some(DatabaseClass::Temporal)
    );
    assert_eq!(
        engine.with_db(|db| db.classify("a")),
        Some(DatabaseClass::Static)
    );
}

#[test]
fn append_defaults_valid_from_now() {
    let (engine, clock) = db();
    clock.advance_to(d("06/15/80"));
    engine
        .session()
        .run(r#"append to faculty (name = "Merrie", rank = "associate")"#)
        .unwrap();
    let res = engine
        .session()
        .query(r#"range of f is faculty retrieve (f.rank) where f.name = "Merrie""#)
        .unwrap();
    assert_eq!(
        res.rows[0].validity,
        Some(Validity::Interval(
            chronos_core::period::Period::from_start(d("06/15/80"))
        )),
        "default validity starts at the commit time"
    );
}

#[test]
fn named_targets_and_multi_attribute_projection() {
    let (engine, clock) = db();
    clock.advance_to(d("06/15/80"));
    engine
        .session()
        .run(r#"append to faculty (name = "Merrie", rank = "associate")"#)
        .unwrap();
    let res = engine
        .session()
        .query(r#"range of f is faculty retrieve (who = f.name, f.rank)"#)
        .unwrap();
    assert_eq!(res.schema.attributes()[0].name(), "who");
    assert_eq!(res.schema.attributes()[1].name(), "rank");
    assert_eq!(res.rows[0].tuple.to_string(), "(Merrie, associate)");
    // Duplicate output names rejected with a helpful message.
    let err = engine
        .session()
        .query(r#"range of f is faculty retrieve (f.name, f.name)"#)
        .unwrap_err();
    assert!(err.to_string().contains("rename"), "{err}");
}

#[test]
fn when_clause_full_predicate_algebra() {
    let (engine, clock) = db();
    for (day, stmt) in [
        (
            "02/01/80",
            r#"append to faculty (name = "A", rank = "r1") valid from "01/01/80" to "01/01/82""#,
        ),
        (
            "02/02/80",
            r#"append to faculty (name = "B", rank = "r2") valid from "01/01/81" to "01/01/83""#,
        ),
        (
            "02/03/80",
            r#"append to faculty (name = "C", rank = "r3") valid from "06/01/83" to forever"#,
        ),
    ] {
        clock.advance_to(d(day));
        engine.session().run(stmt).unwrap();
    }
    let names = |engine: &Arc<Engine>, q: &str| -> Vec<String> {
        let mut v = engine.session().query(q).unwrap().column_strings(0);
        v.sort();
        v.dedup();
        v
    };
    // overlap with a constant.
    assert_eq!(
        names(
            &engine,
            r#"range of f is faculty retrieve (f.name) when f overlap "06/01/81""#
        ),
        ["A", "B"]
    );
    // precede.
    assert_eq!(
        names(
            &engine,
            r#"range of f1 is faculty range of f2 is faculty
               retrieve (f1.name)
               where f2.name = "C" when f1 precede f2"#
        ),
        ["A", "B"]
    );
    // equal + extend + not.
    assert_eq!(
        names(
            &engine,
            r#"range of f1 is faculty range of f2 is faculty
               retrieve (f1.name)
               where f2.name = "A"
               when start of (f1 extend f2) equal start of f2 and not f1 equal f2"#
        ),
        ["B", "C"],
        "everything extending A's start without being A itself"
    );
    // or / parentheses.
    assert_eq!(
        names(
            &engine,
            r#"range of f is faculty
               retrieve (f.name)
               when (f overlap "06/01/80" or f overlap "06/01/84")"#
        ),
        ["A", "C"]
    );
}

#[test]
fn valid_clause_controls_derived_timestamps() {
    let (engine, clock) = db();
    clock.advance_to(d("02/01/80"));
    engine
        .session()
        .run(r#"append to faculty (name = "A", rank = "r1") valid from "01/01/80" to "01/01/82""#)
        .unwrap();
    // Explicit interval.
    let res = engine
        .session()
        .query(
            r#"range of f is faculty
               retrieve (f.name)
               valid from start of f to "06/01/80""#,
        )
        .unwrap();
    let per = match res.rows[0].validity.unwrap() {
        Validity::Interval(p) => p,
        other => panic!("{other:?}"),
    };
    assert_eq!(
        per.start(),
        chronos_core::timepoint::TimePoint::at(d("01/01/80"))
    );
    assert_eq!(
        per.end(),
        chronos_core::timepoint::TimePoint::at(d("06/01/80")),
        "'to' is an exclusive bound, as in the paper's (to) columns"
    );
    assert!(per.contains(d("05/31/80")));
    assert!(!per.contains(d("06/01/80")));
    // Event stamping via `valid at`.
    let res = engine
        .session()
        .query(r#"range of f is faculty retrieve (f.name) valid at end of f"#)
        .unwrap();
    assert_eq!(res.signature, TemporalSignature::Event);
    assert_eq!(
        res.rows[0].validity,
        Some(Validity::Event(d("01/01/82").pred())),
        "end of a period is its last chronon"
    );
}

#[test]
fn as_of_through_windows() {
    let (engine, clock) = db();
    clock.advance_to(d("02/01/80"));
    engine
        .session()
        .run(r#"append to faculty (name = "A", rank = "r1")"#)
        .unwrap();
    clock.advance_to(d("02/01/81"));
    engine
        .session()
        .run(r#"range of f is faculty delete f where f.name = "A""#)
        .unwrap();
    clock.advance_to(d("02/01/82"));
    engine
        .session()
        .run(r#"append to faculty (name = "B", rank = "r2")"#)
        .unwrap();
    // Point probes.
    let count_as_of = |engine: &Arc<Engine>, day: &str| {
        engine
            .session()
            .query(&format!(
                r#"range of f is faculty retrieve (f.name) as of "{day}""#
            ))
            .unwrap()
            .len()
    };
    assert_eq!(count_as_of(&engine, "06/01/80"), 1);
    assert_eq!(
        count_as_of(&engine, "06/01/81"),
        1,
        "A's validity closed, version still stored"
    );
    assert_eq!(count_as_of(&engine, "06/01/82"), 2);
    // Window sees every version current at some point inside it.
    let res = engine
        .session()
        .query(
            r#"range of f is faculty
               retrieve (f.name) as of "01/01/80" through "12/31/82""#,
        )
        .unwrap();
    let mut names = res.column_strings(0);
    names.sort();
    names.dedup();
    assert_eq!(names, ["A", "B"]);
    // Backwards window rejected.
    let err = engine
        .session()
        .query(r#"range of f is faculty retrieve (f.name) as of "12/31/82" through "01/01/80""#)
        .unwrap_err();
    assert!(matches!(err, DbError::Tquel(TquelError::Semantic(_))));
}

#[test]
fn destroy_then_query_fails_cleanly() {
    let (engine, _c) = db();
    let out = engine.session().run("destroy faculty").unwrap();
    assert!(matches!(out[0], ExecOutcome::Destroyed));
    let err = engine.session().run("range of f is faculty").unwrap_err();
    assert!(matches!(err, DbError::Catalog(_)));
    assert!(engine.session().run("destroy faculty").is_err());
}

#[test]
fn diagnostics_name_the_problem() {
    let (engine, clock) = db();
    clock.advance_to(d("02/01/80"));
    engine
        .session()
        .run(r#"append to faculty (name = "A", rank = "r1")"#)
        .unwrap();
    let expect_err = |q: &str, needle: &str| {
        let err = engine.session().query(q).unwrap_err().to_string();
        assert!(
            err.contains(needle),
            "query {q:?}\n  error {err:?}\n  wanted {needle:?}"
        );
    };
    expect_err(
        r#"range of f is faculty retrieve (f.salary)"#,
        "no attribute",
    );
    expect_err(r#"retrieve (g.rank)"#, "not declared");
    expect_err(
        r#"range of f is faculty retrieve (f.rank) where f.name = 3"#,
        "type mismatch",
    );
    expect_err(
        r#"range of f is faculty retrieve (f.rank) as of "99/99/99""#,
        "invalid date",
    );
    expect_err(
        r#"range of f is faculty retrieve (f.rank) as of start of f"#,
        "constant date",
    );
}

#[test]
fn printer_renders_paper_style_tables() {
    let (engine, clock) = db();
    clock.advance_to(d("02/01/80"));
    engine.session()
        .run(r#"append to faculty (name = "Merrie", rank = "associate") valid from "09/01/77" to forever"#)
        .unwrap();
    let res = engine
        .session()
        .query(r#"range of f is faculty retrieve (f.name, f.rank)"#)
        .unwrap();
    let s = render(&res);
    assert!(s.contains("||"), "double bar before temporal domains:\n{s}");
    assert!(s.contains("09/01/77") && s.contains("∞"), "{s}");
    assert!(s.contains("tx (start)"), "{s}");
}

#[test]
fn empty_results_are_well_formed() {
    let (engine, _c) = db();
    let res = engine
        .session()
        .query(r#"range of f is faculty retrieve (f.rank) where f.name = "nobody""#)
        .unwrap();
    assert!(res.is_empty());
    assert_eq!(res.schema.arity(), 1);
    let s = render(&res);
    assert!(s.contains("rank"));
}

#[test]
fn retrieve_into_materializes_derived_relations() {
    // §4.4's closure property, executable: a bitemporal query result is
    // itself a temporal relation that further queries range over.
    let (engine, clock) = db();
    for (day, stmt) in [
        (
            "02/01/80",
            r#"append to faculty (name = "Merrie", rank = "associate") valid from "01/01/80" to forever"#,
        ),
        (
            "02/02/80",
            r#"append to faculty (name = "Tom", rank = "assistant") valid from "01/15/80" to forever"#,
        ),
        (
            "06/01/82",
            r#"range of f is faculty
                        replace f (rank = "full") valid from "05/01/82" to forever
                        where f.name = "Merrie""#,
        ),
    ] {
        clock.advance_to(d(day));
        engine.session().run(stmt).unwrap();
    }
    // Materialize Merrie's *complete* bitemporal history — every
    // version ever stored — via an `as of … through …` window.
    let out = engine
        .session()
        .run(
            r#"range of f is faculty
               retrieve into merrie_hist (f.rank) where f.name = "Merrie"
               as of "01/01/80" through "01/01/85""#,
        )
        .unwrap();
    assert!(
        matches!(out[1], ExecOutcome::Materialized { rows: 3, .. }),
        "{:?}",
        out[1]
    );
    assert_eq!(
        engine.with_db(|db| db.classify("merrie_hist")),
        Some(DatabaseClass::Temporal)
    );
    // Query the derived relation — including by rollback, since it kept
    // its transaction timestamps.
    let res = engine
        .session()
        .query(
            r#"range of m is merrie_hist
               retrieve (m.rank) when m overlap "01/01/81" as of "01/01/81""#,
        )
        .unwrap();
    assert_eq!(res.column_strings(0), ["associate"]);
    let res = engine
        .session()
        .query(r#"range of m is merrie_hist retrieve (m.rank) when m overlap "06/01/82""#)
        .unwrap();
    assert_eq!(res.column_strings(0), ["full"]);
    // A projection with an explicit valid clause keeps both timestamps
    // (the source is temporal), so it materializes as temporal too…
    engine
        .session()
        .run(
            r#"range of f is faculty
               retrieve into full_profs (f.name) valid from start of f to forever
               where f.rank = "full""#,
        )
        .unwrap();
    assert_eq!(
        engine.with_db(|db| db.classify("full_profs")),
        Some(DatabaseClass::Temporal)
    );
    // …and an aggregate materializes as a static one.
    engine
        .session()
        .run(r#"range of f is faculty retrieve into counts (n = count(f.name))"#)
        .unwrap();
    assert_eq!(
        engine.with_db(|db| db.classify("counts")),
        Some(DatabaseClass::Static)
    );
    let res = engine
        .session()
        .query("range of c is counts retrieve (c.n)")
        .unwrap();
    assert_eq!(res.column_strings(0), ["3"]);
    // Name collisions are rejected.
    let err = engine
        .session()
        .run(r#"range of f is faculty retrieve into counts (n = count(f.name))"#)
        .unwrap_err();
    assert!(err.to_string().contains("already exists"), "{err}");
}

#[test]
fn aggregate_queries() {
    let clock = Arc::new(ManualClock::new(d("01/01/80")));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    engine
        .session()
        .run("create payroll (name = str, salary = int) as temporal")
        .unwrap();
    for (i, (name, sal)) in [("A", 3000i64), ("B", 4000), ("C", 5000), ("D", 4400)]
        .iter()
        .enumerate()
    {
        clock.advance_to(d("01/01/80") + 1 + i as i64);
        engine
            .session()
            .run(&format!(
                r#"append to payroll (name = "{name}", salary = {sal})"#
            ))
            .unwrap();
    }
    // Count/sum/avg/min/max over the qualifying rows.
    let res = engine
        .session()
        .query(
            r#"range of p is payroll
               retrieve (n = count(p.name), total = sum(p.salary),
                         mean = avg(p.salary), lo = min(p.salary), hi = max(p.salary))"#,
        )
        .unwrap();
    assert_eq!(res.kind, DatabaseClass::Static, "aggregates are static");
    assert_eq!(res.len(), 1);
    let row = &res.rows[0];
    assert_eq!(row.tuple.get(0).as_int(), Some(4));
    assert_eq!(row.tuple.get(1).as_int(), Some(16_400));
    assert_eq!(row.tuple.get(2).to_string(), "4100");
    assert_eq!(row.tuple.get(3).as_int(), Some(3000));
    assert_eq!(row.tuple.get(4).as_int(), Some(5000));
    assert!(row.validity.is_none() && row.tx.is_none());
    // Aggregates respect where and when clauses.
    let res = engine
        .session()
        .query(
            r#"range of p is payroll
               retrieve (n = count(p.name))
               where p.salary >= 4000
               when p overlap "06/01/80""#,
        )
        .unwrap();
    assert_eq!(res.rows[0].tuple.get(0).as_int(), Some(3));
    // count over an empty set is 0; min over an empty set is undefined.
    let res = engine
        .session()
        .query(r#"range of p is payroll retrieve (n = count(p.name)) where p.name = "zz""#)
        .unwrap();
    assert_eq!(res.rows[0].tuple.get(0).as_int(), Some(0));
    let res = engine
        .session()
        .query(r#"range of p is payroll retrieve (lo = min(p.salary)) where p.name = "zz""#)
        .unwrap();
    assert!(res.is_empty());
    // Mixed plain/aggregate target lists rejected (no grouping).
    let err = engine
        .session()
        .query(r#"range of p is payroll retrieve (p.name, count(p.name))"#)
        .unwrap_err();
    assert!(err.to_string().contains("grouping"), "{err}");
    // Non-numeric sums rejected at analysis.
    let err = engine
        .session()
        .query(r#"range of p is payroll retrieve (sum(p.name))"#)
        .unwrap_err();
    assert!(err.to_string().contains("non-numeric"), "{err}");
}

#[test]
fn user_defined_time_compares_as_dates() {
    // §4.5: user-defined time needs only "an internal representation and
    // input and output functions" — but ordering comparisons on date
    // attributes must still work, with string literals coerced to dates.
    let clock = Arc::new(ManualClock::new(d("01/01/83")));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    engine
        .session()
        .run("create promotion (name = str, effective = date) as temporal event")
        .unwrap();
    for (i, (name, eff)) in [
        ("Merrie", "12/01/82"),
        ("Tom", "12/05/82"),
        ("Mike", "01/01/83"),
    ]
    .iter()
    .enumerate()
    {
        clock.advance_to(d("01/01/83") + 1 + i as i64);
        engine
            .session()
            .run(&format!(
                r#"append to promotion (name = "{name}", effective = "{eff}")
                   valid at "{eff}""#
            ))
            .unwrap();
    }
    let names = |engine: &Arc<Engine>, q: &str| -> Vec<String> {
        let mut v = engine.session().query(q).unwrap().column_strings(0);
        v.sort();
        v
    };
    assert_eq!(
        names(
            &engine,
            r#"range of p is promotion retrieve (p.name) where p.effective < "01/01/83""#
        ),
        ["Merrie", "Tom"]
    );
    assert_eq!(
        names(
            &engine,
            r#"range of p is promotion retrieve (p.name) where p.effective >= "12/05/82""#
        ),
        ["Mike", "Tom"]
    );
    // The coerced literal works on either side of the comparison.
    assert_eq!(
        names(
            &engine,
            r#"range of p is promotion retrieve (p.name) where "12/05/82" = p.effective"#
        ),
        ["Tom"]
    );
    // min/max aggregate over dates.
    let res = engine
        .session()
        .query(r#"range of p is promotion retrieve (first = min(p.effective))"#)
        .unwrap();
    assert_eq!(res.column_strings(0), ["12/01/82"]);
    // Invalid date literals against date attributes are rejected.
    assert!(engine
        .session()
        .query(r#"range of p is promotion retrieve (p.name) where p.effective = "not a date""#)
        .is_err());
}

#[test]
fn comments_and_case_insensitive_keywords() {
    let (engine, clock) = db();
    clock.advance_to(d("02/01/80"));
    engine
        .session()
        .run(
            r#"
        # load one professor
        APPEND TO faculty (name = "A", rank = "r1")
        RANGE OF f IS faculty
        Retrieve (f.rank) WHERE f.name = "A"
    "#,
        )
        .unwrap();
}

#[test]
fn non_ascii_strings_round_trip_and_keep_columns_aligned() {
    let (engine, _c) = db();
    engine
        .session()
        .run(r#"append to faculty (name = "café", rank = "∞-associate")"#)
        .unwrap();
    engine
        .session()
        .run(r#"append to faculty (name = "Tom", rank = "full")"#)
        .unwrap();
    let res = engine
        .session()
        .query(r#"range of f is faculty retrieve (f.name, f.rank) where f.name = "café""#)
        .unwrap();
    assert_eq!(res.column_strings(0), vec!["café"]);
    let all = engine
        .session()
        .query("range of f is faculty retrieve (f.name, f.rank)")
        .unwrap();
    let text = render(&all);
    assert!(
        text.contains("café") && text.contains("∞-associate"),
        "{text}"
    );
    // Every bar of every line sits at the same character column (the
    // rule line draws a `+` where the others draw a `|`).
    let bars = |line: &str| -> Vec<usize> {
        line.chars()
            .enumerate()
            .filter(|&(_, c)| c == '|' || c == '+')
            .map(|(i, _)| i)
            .collect()
    };
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "{text}");
    for line in &lines[1..] {
        assert_eq!(bars(line), bars(lines[0]), "{text}");
    }
}
