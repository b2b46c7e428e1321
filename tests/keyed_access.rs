//! A keyed read is the unkeyed read restricted to the key.
//!
//! For every relation class, seeded scripts of appends, deletes,
//! replacements and valid-time corrections run through a durable engine,
//! with a freeze, a checkpoint, a log suffix and a reopen (which restores
//! the checkpoint image row by row) along the way.  At every stage, for
//! every key — one no row carries included — and every `as of` (none, a
//! point, a window), `Relation::scan(as_of, Some(key))` must equal
//! `scan(as_of, None)` filtered on the first attribute: the same rows in
//! the same order, with the same valid and transaction periods, or the
//! same refusal.

use std::sync::Arc;

use chronos_core::chronon::Chronon;
use chronos_core::clock::ManualClock;
use chronos_core::period::Period;
use chronos_core::relation::{HistoricalOp, RowSelector, Validity};
use chronos_core::schema::{faculty_schema, RelationClass, TemporalSignature};
use chronos_core::timepoint::TimePoint;
use chronos_core::tuple::tuple;
use chronos_core::value::Value;
use chronos_db::{Database, Engine, ExecOutcome};
use chronos_storage::table::CurrentOrder;
use chronos_tquel::provider::{AsOfSpec, SourceRow};
use proptest::prelude::*;

const CLASSES: [(&str, RelationClass); 4] = [
    ("s_rel", RelationClass::Static),
    ("r_rel", RelationClass::StaticRollback),
    ("h_rel", RelationClass::Historical),
    ("t_rel", RelationClass::Temporal),
];

/// Keys the scripts write, plus one they never do.
const KEYS: [&str; 4] = ["n0", "n1", "n2", "absent"];

/// One write: `(op, key, rank, (valid from, valid length), clock advance)`.
/// Ops 0–1 append, 2 deletes, 3 replaces, 4 corrects a row's validity.
type Step = (u8, u8, u8, (u8, u8), u8);

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec((0u8..5, 0u8..3, 0u8..4, (0u8..40, 0u8..20), 1u8..4), 4..14)
}

fn has_valid_time(class: RelationClass) -> bool {
    matches!(class, RelationClass::Historical | RelationClass::Temporal)
}

fn stamp(class: RelationClass, from: u8, len: u8) -> Validity {
    let from = Chronon::new(i64::from(from));
    match (has_valid_time(class), len) {
        (false, _) => Validity::Interval(Period::ALWAYS),
        (true, 0) => Validity::Interval(Period::from_start(from)),
        (true, len) => Validity::Interval(Period::clamped(from, from + i64::from(len))),
    }
}

/// Runs `steps` against every relation; a write the store refuses is
/// part of the history too.
fn play(engine: &Engine, clock: &ManualClock, steps: &[Step]) {
    for &(op, key, rank, (from, len), advance) in steps {
        clock.tick(i64::from(advance));
        for (rel, class) in CLASSES {
            let key = format!("n{key}");
            let current = engine.with_db(|db| {
                let table = db.relation(rel).expect("defined").table();
                table
                    .current_entries(Some(&Value::str(&key)), CurrentOrder::Reference)
                    .into_iter()
                    .map(|e| (e.tuple.clone(), e.validity))
                    .collect::<Vec<_>>()
            });
            let row = tuple([key.as_str(), &format!("r{rank}")]);
            let validity = stamp(class, from, len);
            let ops = match (op, current.first()) {
                (0 | 1, _) => vec![HistoricalOp::insert(row, validity)],
                (2, Some((t, v))) => vec![HistoricalOp::remove(RowSelector::exact(t.clone(), *v))],
                (3, Some((t, v))) => vec![
                    HistoricalOp::remove(RowSelector::exact(t.clone(), *v)),
                    HistoricalOp::insert(row, validity),
                ],
                (4, Some((t, v))) if has_valid_time(class) => {
                    vec![HistoricalOp::set_validity(
                        RowSelector::exact(t.clone(), *v),
                        validity.period(),
                    )]
                }
                _ => continue,
            };
            let _ = engine.commit(rel, &ops);
        }
    }
}

/// Every keyed read of every relation equals its unkeyed read filtered
/// on the key.
fn assert_keyed_reads_restrict(engine: &Engine, stage: &str) -> Result<(), TestCaseError> {
    let now = engine.with_db(Database::now);
    let mut coordinates = vec![None];
    for tick in (100..now.ticks()).step_by(2).chain([now.ticks() + 5]) {
        let t = Chronon::new(tick);
        coordinates.push(Some(AsOfSpec::At(t)));
        coordinates.push(Some(AsOfSpec::Through(Chronon::new(tick / 2 + 50), t)));
    }
    engine.with_db(|db| {
        for (rel, _) in CLASSES {
            let rel_ref = db.relation(rel).expect("defined");
            for as_of in &coordinates {
                let all = rel_ref
                    .scan(as_of.as_ref(), None)
                    .map_err(|e| e.to_string());
                for key in KEYS {
                    let key = Value::str(key);
                    let keyed = rel_ref
                        .scan(as_of.as_ref(), Some(&key))
                        .map_err(|e| e.to_string());
                    let expected = all.clone().map(|rows| {
                        rows.into_iter()
                            .filter(|r: &SourceRow| *r.tuple.get(0) == key)
                            .collect::<Vec<_>>()
                    });
                    prop_assert_eq!(
                        keyed,
                        expected,
                        "{}: {} key {} as of {:?}",
                        stage,
                        rel,
                        key,
                        as_of
                    );
                }
            }
        }
        Ok(())
    })
}

fn cases() -> ProptestConfig {
    // Durable commits fsync, so tier-1 runs a small sample; the nightly
    // CI job sweeps `PROPTEST_CASES=2048 cargo test --test keyed_access`.
    ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64),
    )
}

proptest! {
    #![proptest_config(cases())]

    #[test]
    fn a_keyed_read_is_the_unkeyed_read_restricted_to_the_key(
        before_freeze in arb_steps(),
        after_freeze in arb_steps(),
        after_checkpoint in arb_steps(),
    ) {
        static NEXT: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "chronos-keyed-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let clock = Arc::new(ManualClock::new(Chronon::new(100)));
        let engine = Engine::start(Database::open(&dir, clock.clone()).expect("open"));
        for (rel, class) in CLASSES {
            engine
                .exclusive(move |db| {
                    db.create_relation(rel, faculty_schema(), class, TemporalSignature::Interval)
                })
                .expect("writer")
                .expect("create");
        }
        play(&engine, &clock, &before_freeze);
        assert_keyed_reads_restrict(&engine, "heap")?;
        // Freezing moves closed versions into segments and frees their
        // heap slots, so later closes relocate records.
        for (rel, _) in CLASSES {
            engine.session().run(&format!("freeze {rel}")).expect("freeze");
        }
        assert_keyed_reads_restrict(&engine, "frozen")?;
        play(&engine, &clock, &after_freeze);
        assert_keyed_reads_restrict(&engine, "frozen, then written")?;
        engine.checkpoint().expect("checkpoint");
        play(&engine, &clock, &after_checkpoint);
        let now = engine.with_db(Database::now);
        drop(engine);
        // The image is restored row by row, then the log suffix replays.
        let clock = Arc::new(ManualClock::new(now));
        let engine = Engine::start(Database::open(&dir, clock).expect("reopen"));
        assert_keyed_reads_restrict(&engine, "reopened")?;
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A keyed past read of a temporal relation shows the version's
/// transaction period as it is now: once a later commit closes the
/// version, the same read shows the closed end.
#[test]
fn a_keyed_past_read_shows_a_later_close() {
    let clock = Arc::new(ManualClock::new(Chronon::new(100)));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    let run = |stmt: &str| {
        engine
            .session()
            .run(stmt)
            .unwrap_or_else(|e| panic!("{stmt}: {e}"))
    };
    run("create faculty (name = str, rank = str) as temporal");
    run(r#"append to faculty (name = "Tom", rank = "associate")"#);
    // Tom's version is stored at this instant and still open.
    let past = engine.with_db(Database::now);
    clock.tick(10);
    run(r#"append to faculty (name = "Merrie", rank = "full")"#);
    let past = chronos_core::calendar::Date::from_chronon(past);
    let keyed =
        format!(r#"range of f is faculty retrieve (f.rank) where f.name = "Tom" as of "{past}""#);
    let unkeyed = format!(r#"range of f is faculty retrieve (f.rank) as of "{past}""#);
    let tx_of = |src: &str| -> Vec<Period> {
        match run(src).pop() {
            Some(ExecOutcome::Retrieved(r)) => {
                r.rows.iter().map(|r| r.tx.expect("temporal")).collect()
            }
            other => panic!("{src}: {other:?}"),
        }
    };
    let open = tx_of(&keyed);
    assert_eq!(open.len(), 1);
    assert_eq!(open[0].end(), TimePoint::PlusInfinity);
    // The unkeyed read leaves an entry for this past coordinate in the
    // scan cache; the keyed read must not be answered from it.
    assert_eq!(tx_of(&unkeyed), open);
    clock.tick(10);
    let closing = engine.with_db(Database::now);
    run(r#"range of f is faculty replace f (rank = "full") where f.name = "Tom""#);
    assert_eq!(
        tx_of(&keyed),
        [Period::clamped(open[0].start(), TimePoint::at(closing))]
    );
}
