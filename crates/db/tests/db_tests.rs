//! Database-level tests: TQuel end-to-end against all four relation
//! classes, durability, and the paper's Figure 8 built purely from TQuel
//! modification statements.

use std::sync::Arc;

use chronos_core::calendar::date;
use chronos_core::chronon::Chronon;
use chronos_core::clock::ManualClock;
use chronos_core::period::Period;
use chronos_core::relation::temporal::TemporalStore as _;
use chronos_core::relation::Validity;
use chronos_core::taxonomy::DatabaseClass;
use chronos_core::timepoint::TimePoint;
use chronos_db::{Database, DbError, Engine, ExecOutcome};

fn d(s: &str) -> Chronon {
    date(s).unwrap()
}

/// Builds the paper's Figure 8 temporal `faculty` relation using only
/// TQuel statements, advancing the clock between transactions.
fn build_figure_8(engine: &Arc<Engine>, clock: &Arc<ManualClock>) {
    let run = |day: &str, stmt: &str| {
        clock.advance_to(d(day));
        engine
            .session()
            .run(stmt)
            .unwrap_or_else(|e| panic!("{stmt}: {e}"));
    };
    run(
        "08/25/77",
        r#"append to faculty (name = "Merrie", rank = "associate")
           valid from "09/01/77" to forever"#,
    );
    run(
        "12/01/82",
        r#"append to faculty (name = "Tom", rank = "full")
           valid from "12/05/82" to forever"#,
    );
    // Correction: Tom was actually an associate.  The retraction and the
    // corrected fact must be one transaction, as in the paper.
    run(
        "12/07/82",
        r#"range of f is faculty
           replace f (rank = "associate") valid from "12/05/82" to forever
           where f.name = "Tom""#,
    );
    run(
        "12/15/82",
        r#"range of f is faculty
           replace f (rank = "full") valid from "12/01/82" to forever
           where f.name = "Merrie""#,
    );
    run(
        "01/10/83",
        r#"append to faculty (name = "Mike", rank = "assistant")
           valid from "01/01/83" to forever"#,
    );
    run(
        "02/25/84",
        r#"range of f is faculty
           delete f where f.name = "Mike""#,
    );
}

fn fresh_db() -> (Arc<Engine>, Arc<ManualClock>) {
    let clock = Arc::new(ManualClock::new(d("01/01/77")));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    engine
        .session()
        .run("create faculty (name = str, rank = str) as temporal")
        .unwrap();
    (engine, clock)
}

#[test]
fn tquel_replay_of_figure_8_history() {
    let (engine, clock) = fresh_db();
    build_figure_8(&engine, &clock);
    let (transactions, stored, rows) = engine.with_db(|db| {
        let rel = db.relation("faculty").unwrap().table();
        (rel.transactions(), rel.stored_tuples(), rel.scan_rows())
    });
    assert_eq!(transactions, 6);
    assert_eq!(stored, 7, "exactly the 7 rows of Figure 8");

    // Mike's delete on 02/25/84 closes validity at the *commit* time
    // (02/25/84): in the paper the letter said 03/01/84; reproduce that
    // exact row with an explicit replace instead when needed.  Here we
    // check the closure happened.
    let rows = rows.unwrap();
    let mike_current: Vec<_> = rows
        .iter()
        .filter(|r| r.tuple.get(0).as_str() == Some("Mike") && r.is_current())
        .collect();
    assert_eq!(mike_current.len(), 1);
    match mike_current[0].validity {
        Validity::Interval(p) => assert_eq!(p.end(), TimePoint::at(d("02/25/84"))),
        other => panic!("unexpected validity {other:?}"),
    }
}

#[test]
fn paper_query_pair_through_tquel() {
    let (engine, clock) = fresh_db();
    build_figure_8(&engine, &clock);
    clock.advance_to(d("01/01/85"));

    let query = |engine: &Arc<Engine>, as_of: &str| {
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
    // As of 12/10/82 the database still believed Merrie was associate.
    let early = query(&engine, "12/10/82");
    assert_eq!(early.kind, DatabaseClass::Temporal);
    assert_eq!(early.column_strings(0), ["associate"]);
    let row = &early.rows[0];
    assert_eq!(
        row.validity,
        Some(Validity::Interval(Period::from_start(d("09/01/77"))))
    );
    assert_eq!(
        row.tx,
        Some(Period::new(d("08/25/77"), d("12/15/82")).unwrap())
    );
    // As of 12/20/82 the retroactive promotion is visible.
    let late = query(&engine, "12/20/82");
    assert_eq!(late.column_strings(0), ["full"]);
}

#[test]
fn historical_query_without_as_of() {
    let (engine, clock) = fresh_db();
    build_figure_8(&engine, &clock);
    let result = engine
        .session()
        .query(
            r#"range of f1 is faculty
               range of f2 is faculty
               retrieve (f1.rank)
               where f1.name = "Merrie" and f2.name = "Tom"
               when f1 overlap start of f2"#,
        )
        .unwrap();
    // Current knowledge: Merrie was full when Tom arrived.
    assert_eq!(result.column_strings(0), ["full"]);
    assert_eq!(
        result.rows[0].validity,
        Some(Validity::Interval(Period::from_start(d("12/01/82"))))
    );
}

#[test]
fn four_classes_coexist_in_one_database() {
    let clock = Arc::new(ManualClock::new(Chronon::new(100)));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    let mut s = engine.session();
    s.run(
        r#"
        create s_rel (name = str) as static
        create r_rel (name = str) as rollback
        create h_rel (name = str) as historical
        create t_rel (name = str) as temporal
    "#,
    )
    .unwrap();
    assert_eq!(
        engine.with_db(|db| db.classify("s_rel")),
        Some(DatabaseClass::Static)
    );
    assert_eq!(
        engine.with_db(|db| db.classify("r_rel")),
        Some(DatabaseClass::StaticRollback)
    );
    assert_eq!(
        engine.with_db(|db| db.classify("h_rel")),
        Some(DatabaseClass::Historical)
    );
    assert_eq!(
        engine.with_db(|db| db.classify("t_rel")),
        Some(DatabaseClass::Temporal)
    );

    for rel in ["s_rel", "r_rel", "h_rel", "t_rel"] {
        clock.tick(1);
        engine
            .session()
            .run(&format!(r#"append to {rel} (name = "x")"#))
            .unwrap();
    }

    // `as of` works only where transaction time exists.
    for (rel, ok) in [
        ("s_rel", false),
        ("r_rel", true),
        ("h_rel", false),
        ("t_rel", true),
    ] {
        let res = engine.session().query(&format!(
            r#"range of v is {rel}
               retrieve (v.name) as of "{}""#,
            chronos_core::calendar::Date::from_chronon(Chronon::new(150))
        ));
        assert_eq!(res.is_ok(), ok, "{rel}: {res:?}");
    }

    // Result classes follow Figure 10.
    let kind = |engine: &Arc<Engine>, rel: &str| {
        engine
            .session()
            .query(&format!("range of v is {rel} retrieve (v.name)"))
            .unwrap()
            .kind
    };
    assert_eq!(kind(&engine, "s_rel"), DatabaseClass::Static);
    assert_eq!(
        kind(&engine, "r_rel"),
        DatabaseClass::Static,
        "pure static result"
    );
    assert_eq!(kind(&engine, "h_rel"), DatabaseClass::Historical);
    assert_eq!(kind(&engine, "t_rel"), DatabaseClass::Temporal);
}

#[test]
fn durable_database_survives_reopen() {
    let dir = std::env::temp_dir().join(format!("chronos-db-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let clock = Arc::new(ManualClock::new(d("01/01/77")));
    {
        let engine = Engine::start(Database::open(&dir, clock.clone()).unwrap());
        engine
            .session()
            .run("create faculty (name = str, rank = str) as temporal")
            .unwrap();
        build_figure_8(&engine, &clock);
    }
    {
        let clock2 = Arc::new(ManualClock::new(d("01/01/85")));
        let engine = Engine::start(Database::open(&dir, clock2).unwrap());
        engine.with_db(|db| {
            assert_eq!(db.relation_names(), ["faculty"]);
            let rel = db.relation("faculty").unwrap().table();
            assert_eq!(rel.transactions(), 6);
            assert_eq!(rel.stored_tuples(), 7);
        });
        // The bitemporal query still answers from the replayed state.
        let res = engine
            .session()
            .query(
                r#"range of f1 is faculty
                   range of f2 is faculty
                   retrieve (f1.rank)
                   where f1.name = "Merrie" and f2.name = "Tom"
                   when f1 overlap start of f2
                   as of "12/10/82""#,
            )
            .unwrap();
        assert_eq!(res.column_strings(0), ["associate"]);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn destroyed_relations_stay_destroyed_after_reopen() {
    let dir = std::env::temp_dir().join(format!("chronos-db-destroy-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let clock = Arc::new(ManualClock::new(Chronon::new(10)));
    {
        let engine = Engine::start(Database::open(&dir, clock.clone()).unwrap());
        let mut s = engine.session();
        s.run(r#"create temp_rel (name = str) as temporal"#)
            .unwrap();
        s.run(r#"append to temp_rel (name = "ghost")"#).unwrap();
        s.run("destroy temp_rel").unwrap();
        s.run("create keeper (name = str) as temporal").unwrap();
        s.run(r#"append to keeper (name = "kept")"#).unwrap();
    }
    let db = Database::open(&dir, clock).unwrap();
    assert_eq!(db.relation_names(), ["keeper"]);
    // The old relation's log records were skipped, the new one's
    // replayed; rel-ids were not confused.
    assert_eq!(db.relation("keeper").unwrap().table().stored_tuples(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn errors_are_reported_not_panicked() {
    let clock = Arc::new(ManualClock::new(Chronon::new(10)));
    let engine = Engine::start(Database::in_memory(clock));
    let mut s = engine.session();
    s.run("create faculty (name = str, rank = str) as temporal")
        .unwrap();
    // Unknown relation.
    assert!(matches!(
        s.run("range of f is nosuch"),
        Err(DbError::Catalog(_))
    ));
    // Unknown attribute.
    assert!(s
        .run(r#"append to faculty (name = "x", salary = "high")"#)
        .is_err());
    // Missing attribute.
    assert!(s.run(r#"append to faculty (name = "x")"#).is_err());
    // Duplicate create.
    assert!(s.run("create faculty (a = int) as static").is_err());
    // valid clause on a static relation.
    s.run("create s (name = str) as static").unwrap();
    assert!(s
        .run(r#"append to s (name = "x") valid from "01/01/80" to forever"#)
        .is_err());
    // Delete with no matches affects zero rows but succeeds.
    let out = s
        .run(r#"range of f is faculty delete f where f.name = "nobody""#)
        .unwrap();
    assert!(matches!(out[1], ExecOutcome::Deleted(0)));
}

#[test]
fn event_relation_appends_take_valid_at() {
    let clock = Arc::new(ManualClock::new(d("08/25/77")));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    let mut s = engine.session();
    s.run("create promotion (name = str, rank = str, effective = date) as temporal event")
        .unwrap();
    s.run(
        r#"append to promotion (name = "Merrie", rank = "associate", effective = "09/01/77")
           valid at "08/25/77""#,
    )
    .unwrap();
    // Interval clause on an event relation rejected.
    assert!(s
        .run(
            r#"append to promotion (name = "X", rank = "full", effective = "01/01/80")
               valid from "01/01/80" to forever"#
        )
        .is_err());
    let res = s
        .query(r#"range of p is promotion retrieve (p.effective) where p.name = "Merrie""#)
        .unwrap();
    assert_eq!(res.column_strings(0), ["09/01/77"]);
    assert_eq!(res.rows[0].validity, Some(Validity::Event(d("08/25/77"))));
}

// ---------------------------------------------------------------------
// workload analytics: analyze / sys$tablestats / sys$queries / explain
// ---------------------------------------------------------------------

/// Queries `sys$tablestats` for one relation's latest sample as a
/// `stat -> value` map (optionally rolled back with `as of`).
fn tablestats_map(
    engine: &Arc<Engine>,
    relation: &str,
    as_of: Option<&str>,
) -> std::collections::HashMap<String, i64> {
    let as_of = as_of.map(|t| format!(" as of \"{t}\"")).unwrap_or_default();
    let res = engine
        .session()
        .query(&format!(
            r#"range of ts is sys$tablestats
               retrieve (ts.stat, ts.value) where ts.relation = "{relation}"{as_of}"#
        ))
        .unwrap();
    res.rows
        .iter()
        .map(|r| {
            (
                r.tuple.get(0).to_string(),
                r.tuple.get(1).to_string().parse::<i64>().unwrap(),
            )
        })
        .collect()
}

#[test]
fn analyze_populates_sys_tablestats_with_histograms() {
    let clock = Arc::new(ManualClock::new(d("01/01/77")));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    let mut s = engine.session();
    s.run("create people (name = str, rank = str) as temporal")
        .unwrap();
    // 500 facts, then a sweeping retroactive replace: 1000 stored
    // versions in chains of length 2.
    let mut program = String::new();
    for i in 0..500 {
        program.push_str(&format!(
            "append to people (name = \"p{i}\", rank = \"junior\")\n"
        ));
    }
    s.run(&program).unwrap();
    clock.advance_to(d("01/01/80"));
    s.run(r#"range of p is people replace p (rank = "senior") where p.rank = "junior""#)
        .unwrap();

    let out = s.run("analyze people").unwrap();
    match &out[0] {
        ExecOutcome::Analyzed { relation, stats } => {
            assert_eq!(relation, "people");
            assert!(
                *stats > 10,
                "expected a full statistics sample, got {stats}"
            );
        }
        other => panic!("expected Analyzed, got {other:?}"),
    }
    drop(s);

    // A temporal replace supersedes the old version (its transaction
    // period closes), stores a correction copy with closed validity,
    // and opens the new version: 3 versions per key.
    let map = tablestats_map(&engine, "people", None);
    assert_eq!(map["versions"], 1500);
    assert_eq!(map["rows"], 1000, "tx-current versions after the replace");
    assert_eq!(map["distinct_keys"], 500);
    assert_eq!(
        map["chain_len_le_4"], 500,
        "every key has exactly 3 versions"
    );
    // The replace closed 500 validity intervals (3 years each) and left
    // 1000 open; transaction periods mirror that shape.
    let closed_vt: i64 = [
        "vt_dur_le_1",
        "vt_dur_le_4",
        "vt_dur_le_16",
        "vt_dur_le_64",
        "vt_dur_le_256",
        "vt_dur_gt_256",
    ]
    .iter()
    .map(|k| map[*k])
    .sum();
    assert_eq!(closed_vt, 500);
    assert_eq!(map["vt_dur_open"], 1000);
    assert_eq!(map["tx_dur_open"], 1000);
    // All 500 superseded intervals cover [77, 80): peak concurrency is
    // far past the last bucket edge.
    assert!(
        map["overlap_gt_8"] > 0,
        "overlap histogram is empty: {map:?}"
    );
}

#[test]
fn sys_tablestats_as_of_shows_statistics_evolution() {
    let clock = Arc::new(ManualClock::new(d("01/01/77")));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    let mut s = engine.session();
    s.run("create people (name = str) as temporal").unwrap();
    s.run(r#"append to people (name = "a")"#).unwrap();
    s.run("analyze people").unwrap();
    clock.advance_to(d("01/01/80"));
    s.run(r#"append to people (name = "b")"#).unwrap();
    s.run("analyze people").unwrap();
    drop(s);

    assert_eq!(tablestats_map(&engine, "people", None)["versions"], 2);
    // Rolled back between the two samples, the first one answers.
    assert_eq!(
        tablestats_map(&engine, "people", Some("01/01/78"))["versions"],
        1
    );
}

#[test]
fn same_shape_queries_share_one_fingerprint() {
    let (engine, clock) = fresh_db();
    build_figure_8(&engine, &clock);
    let mut s = engine.session();
    s.query(r#"range of f is faculty retrieve (f.rank) where f.name = "Mike""#)
        .unwrap();
    s.query(r#"range of f is faculty retrieve (f.rank) where f.name = "Tom""#)
        .unwrap();
    let res = s
        .query(r#"range of q is sys$queries retrieve (q.statement, q.calls) where q.kind = "retrieve""#)
        .unwrap();
    assert_eq!(res.len(), 1, "two literals, one fingerprint: {res:?}");
    let statement = res.rows[0].tuple.get(0).to_string();
    assert!(
        statement.contains("\"?\""),
        "literals should be normalized away: {statement}"
    );
    assert_eq!(res.rows[0].tuple.get(1).to_string(), "2");
}

#[test]
fn explain_shows_estimated_vs_actual_after_analyze() {
    let (engine, clock) = fresh_db();
    build_figure_8(&engine, &clock);
    let mut s = engine.session();
    s.run("analyze faculty").unwrap();
    // Unkeyed: the estimate describes a whole-relation scan, so a keyed
    // scan (`f.name = "Mike"`) shows its actual row count alone.
    let out = s
        .run(r#"range of f is faculty explain retrieve (f.rank) where f.rank = "full""#)
        .unwrap();
    let report = match &out[1] {
        ExecOutcome::Explained { report, .. } => report.clone(),
        other => panic!("expected Explained, got {other:?}"),
    };
    assert!(
        report.contains("est="),
        "explain should show the statistics-based estimate: {report}"
    );
    let out = s
        .run(r#"range of f is faculty explain retrieve (f.rank) where f.name = "Mike""#)
        .unwrap();
    let ExecOutcome::Explained { report, .. } = &out[1] else {
        panic!("expected Explained, got {out:?}");
    };
    assert!(
        report.contains(r#"[key name = "Mike"]"#) && !report.contains("est="),
        "a keyed scan shows no whole-relation estimate: {report}"
    );
}

#[test]
fn connections_as_of_rejection_names_the_relation() {
    let (engine, _clock) = fresh_db();
    let err = engine
        .session()
        .query(r#"range of c is sys$connections retrieve (c.peer) as of "01/01/80""#)
        .unwrap_err();
    let msg = format!("{err}");
    assert!(
        msg.contains("sys$connections"),
        "the rejection should name the relation, not just the range variable: {msg}"
    );
}

/// Every declared system relation scans through the provider, and the
/// provider refuses `as of` — by name — on exactly those whose declared
/// class has no transaction time (over TQuel the analyzer refuses
/// first; this is the backstop for direct provider calls).
#[test]
fn provider_refuses_as_of_on_system_relations_without_transaction_time() {
    use chronos_tquel::provider::{AsOfSpec, RelationProvider};
    let (engine, _clock) = fresh_db();
    engine.with_db(|db| {
        for name in chronos_db::system_relation_names() {
            let class = db.info(name).expect("declared").class;
            assert!(db.scan(name, None).is_ok(), "{name} scans");
            let rolled_back = db.scan(name, Some(&AsOfSpec::At(d("01/01/80"))));
            if class.database_class().supports_rollback() {
                assert!(rolled_back.is_ok(), "{name} rolls back");
            } else {
                let err = rolled_back.expect_err(name).to_string();
                assert!(
                    err.contains(&format!("{name} has no transaction time")),
                    "{err}"
                );
            }
        }
    });
}

/// Reads the `sys$wal` system relation into `stat -> value`.
fn sys_wal_map(engine: &Arc<Engine>) -> std::collections::HashMap<String, i64> {
    let res = engine
        .session()
        .query(r#"range of w is sys$wal retrieve (w.stat, w.value)"#)
        .unwrap();
    res.rows
        .iter()
        .map(|r| {
            (
                r.tuple.get(0).to_string(),
                r.tuple.get(1).to_string().parse::<i64>().unwrap(),
            )
        })
        .collect()
}

#[test]
fn sys_wal_agrees_with_the_offline_inspector() {
    let dir = std::env::temp_dir().join(format!("chronos-db-syswal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let clock = Arc::new(ManualClock::new(d("01/01/77")));
    let engine = Engine::start(Database::open(&dir, clock.clone()).unwrap());
    engine
        .session()
        .run("create faculty (name = str, rank = str) as temporal")
        .unwrap();
    build_figure_8(&engine, &clock);

    // Live view (the sys$wal relation) vs the offline walker the
    // doctor uses, on a quiesced database: they must agree exactly.
    let map = sys_wal_map(&engine);
    let scan = chronos_storage::inspect::scan_wal(&dir.join("wal")).unwrap();
    assert_eq!(map["durable"], 1);
    assert_eq!(map["frames"], scan.frames.len() as i64);
    assert_eq!(map["bytes"], scan.total_len as i64);
    assert_eq!(map["valid_bytes"], scan.valid_len as i64);
    assert_eq!(map["tail_bad_bytes"], 0);
    let (ins, rem, setv) = scan.op_totals();
    assert_eq!(map["ops_insert"], ins as i64);
    assert_eq!(map["ops_remove"], rem as i64);
    assert_eq!(map["ops_set_validity"], setv as i64);
    assert!(map["frames"] > 0, "figure 8 committed six transactions");
    assert_eq!(
        map["lsn_last"],
        d("02/25/84").ticks(),
        "last frame carries the last commit time"
    );
    drop(engine);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sys_wal_reports_truncations_after_checkpoint() {
    let dir = std::env::temp_dir().join(format!("chronos-db-waltrunc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let clock = Arc::new(ManualClock::new(d("01/01/77")));
    let engine = Engine::start(Database::open(&dir, clock.clone()).unwrap());
    engine
        .session()
        .run("create faculty (name = str, rank = str) as temporal")
        .unwrap();
    build_figure_8(&engine, &clock);
    let written = sys_wal_map(&engine)["bytes"];
    assert!(written > 0);
    engine.checkpoint().unwrap();
    let map = sys_wal_map(&engine);
    assert_eq!(map["bytes"], 0, "checkpoint resets the log");
    assert_eq!(map["truncations"], 1);
    assert_eq!(map["last_truncation_bytes"], written);
    drop(engine);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sys_pages_reports_physical_shape() {
    let (engine, clock) = fresh_db();
    build_figure_8(&engine, &clock);
    let res = engine
        .session()
        .query(
            r#"range of p is sys$pages
               retrieve (p.versions, p.pages, p.bytes_per_version, p.dup_factor_x1000)
               where p.relation = "faculty""#,
        )
        .unwrap();
    assert_eq!(res.len(), 1);
    let row = &res.rows[0].tuple;
    let versions: i64 = row.get(0).to_string().parse().unwrap();
    let pages: i64 = row.get(1).to_string().parse().unwrap();
    let bytes_per_version: i64 = row.get(2).to_string().parse().unwrap();
    let dup: i64 = row.get(3).to_string().parse().unwrap();
    assert_eq!(versions, 7, "the seven stored rows of Figure 8");
    assert!(pages >= 1);
    assert!(bytes_per_version > 0);
    assert!(
        dup > 1000,
        "version chains share key bytes, so duplication > 1.0x: {dup}"
    );
}

#[test]
fn storage_system_relations_reject_writes_and_as_of_by_name() {
    let (engine, _clock) = fresh_db();
    let err = engine
        .session()
        .run(r#"append to sys$wal (stat = "x", value = 1, detail = "y")"#)
        .unwrap_err();
    assert!(
        format!("{err}").contains("sys$wal"),
        "write rejection should name the relation: {err}"
    );
    let err = engine
        .session()
        .query(r#"range of p is sys$pages retrieve (p.relation) as of "01/01/80""#)
        .unwrap_err();
    assert!(
        format!("{err}").contains("sys$pages"),
        "as-of rejection should name the relation: {err}"
    );
}

#[test]
fn analyze_records_bytes_per_version_and_duplication() {
    let (engine, clock) = fresh_db();
    build_figure_8(&engine, &clock);
    engine.session().run("analyze faculty").unwrap();
    let map = tablestats_map(&engine, "faculty", None);
    assert!(map["bytes_per_version"] > 0, "stats: {map:?}");
    assert!(map["dup_factor_x1000"] > 1000, "stats: {map:?}");
}

#[test]
fn every_class_reports_measured_physical_stats() {
    let clock = Arc::new(ManualClock::new(d("01/01/77")));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    // Same story in each class: two rows, one superseded.
    for (rel, class) in [
        ("s", "static"),
        ("r", "rollback"),
        ("h", "historical"),
        ("t", "temporal"),
    ] {
        engine
            .session()
            .run(&format!("create {rel} (name = str, rank = str) as {class}"))
            .unwrap();
        for name in ["Merrie", "Tom"] {
            clock.tick(1);
            engine
                .session()
                .run(&format!(
                    r#"append to {rel} (name = "{name}", rank = "associate")"#
                ))
                .unwrap();
        }
        clock.tick(1);
        engine
            .session()
            .run(&format!(
                r#"range of v is {rel} replace v (rank = "full") where v.name = "Tom""#
            ))
            .unwrap();
        engine.session().run(&format!("analyze {rel}")).unwrap();

        // analyze: pages × 8 KiB, not a tuple-count estimate.
        let stats = tablestats_map(&engine, rel, None);
        let (physical, versions) = engine.with_db(|db| {
            let table = db.relation(rel).unwrap().table();
            (
                table.physical_stats().unwrap(),
                table.stored_tuples() as i64,
            )
        });
        assert_eq!(stats["versions"], versions, "{rel}");
        assert_eq!(stats["bytes"], 8192, "{rel}: one heap page");
        assert_eq!(stats["bytes_per_version"], 8192 / versions, "{rel}");
        assert_eq!(
            stats["dup_factor_x1000"], physical.dup_factor_x1000 as i64,
            "{rel}"
        );

        // sys$pages: the same heap walk.
        let res = engine
            .session()
            .query(&format!(
                r#"range of p is sys$pages
                   retrieve (p.pages, p.versions, p.occupancy_x1000, p.bytes_per_version)
                   where p.relation = "{rel}""#
            ))
            .unwrap();
        let cells: Vec<i64> = (0..4)
            .map(|i| res.rows[0].tuple.get(i).to_string().parse().unwrap())
            .collect();
        assert_eq!(
            cells,
            [
                1,
                versions,
                physical.occupancy_x1000 as i64,
                8192 / versions
            ],
            "{rel}"
        );
        assert!(
            physical.occupancy_x1000 < 1000,
            "{rel}: measured, not assumed full"
        );

        // sys$relations: sampled at the last commit.
        let res = engine
            .session()
            .query(&format!(
                r#"range of c is sys$relations
                   retrieve (c.tuples, c.bytes) where c.name = "{rel}""#
            ))
            .unwrap();
        let cells: Vec<i64> = (0..2)
            .map(|i| res.rows[0].tuple.get(i).to_string().parse().unwrap())
            .collect();
        assert_eq!(cells, [versions, 8192], "{rel}");
    }
}

/// Sorted, printable rows of every relation answer we care about —
/// captured before and after a reopen to prove it changes no answer.
fn query_fingerprint(engine: &Arc<Engine>) -> Vec<String> {
    let mut out = Vec::new();
    for q in [
        r#"range of f is faculty retrieve (f.name, f.rank)"#,
        r#"range of f is faculty retrieve (f.name, f.rank) as of "01/01/83""#,
        r#"range of f is faculty retrieve (f.name, f.rank) as of "12/10/82""#,
        r#"range of f is faculty retrieve (f.name, f.rank) when f overlap "12/05/82""#,
    ] {
        let res = engine.session().query(q).unwrap();
        let mut rows: Vec<String> = res.rows.iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        out.push(format!("{q} => {rows:?}"));
    }
    out
}

#[test]
fn a_checkpoint_writes_no_segment() {
    let dir = std::env::temp_dir().join(format!("chronos-db-nofreeze-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let clock = Arc::new(ManualClock::new(d("01/01/77")));
    let engine = Engine::start(Database::open(&dir, clock.clone()).unwrap());
    engine
        .session()
        .run("create faculty (name = str, rank = str) as temporal")
        .unwrap();
    build_figure_8(&engine, &clock);

    // A checkpoint over closed versions leaves them on the heap: the
    // image already holds every row, so no segment duplicates them.
    engine.checkpoint().unwrap();
    assert!(!dir.join("segments").exists());
    engine.with_db(|db| {
        let rel = db.relation("faculty").unwrap().table();
        assert_eq!(rel.segment_versions(), 0);
        assert_eq!(rel.frozen_version_count(), 3);
    });
    drop(engine);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// An older build could freeze closed versions into `segments/`.  Its
/// directory still opens with the same answers: the files there are
/// never read, listed in `sys$pages`, diagnosed or removed.
#[test]
fn segment_files_left_by_an_older_build_are_inert() {
    let dir = std::env::temp_dir().join(format!("chronos-db-oldsegs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let clock = Arc::new(ManualClock::new(d("01/01/77")));
    let engine = Engine::start(Database::open(&dir, clock.clone()).unwrap());
    engine
        .session()
        .run("create faculty (name = str, rank = str) as temporal")
        .unwrap();
    build_figure_8(&engine, &clock);
    let before = query_fingerprint(&engine);
    drop(engine);

    let segments = dir.join("segments");
    std::fs::create_dir_all(&segments).unwrap();
    std::fs::write(segments.join("r-0.seg"), b"CHRONSG1 and then anything").unwrap();
    std::fs::write(segments.join("r-1.seg.tmp"), b"partial").unwrap();

    let engine = Engine::start(Database::open(&dir, clock.clone()).unwrap());
    assert_eq!(query_fingerprint(&engine), before);
    let pages = engine
        .session()
        .query("range of p is sys$pages retrieve (p.relation, p.class)")
        .unwrap();
    assert!(!pages.is_empty());
    for row in &pages.rows {
        let text = format!("{:?}", row.tuple);
        assert!(!text.contains("segment"), "sys$pages lists {text}");
    }
    drop(engine);

    let inspect = std::process::Command::new(env!("CARGO_BIN_EXE_chronos"))
        .arg("--inspect")
        .arg(&dir)
        .output()
        .unwrap();
    assert!(
        inspect.status.success(),
        "{}",
        String::from_utf8_lossy(&inspect.stdout)
    );
    assert!(segments.join("r-0.seg").is_file() && segments.join("r-1.seg.tmp").is_file());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The writer thread holds no handle to the engine: dropping the last
/// `Arc<Engine>` stops it and releases the core, with no `shutdown()`.
/// The core, the database and its log each hold the recorder, so the
/// probe is left alone only once all three are gone.
#[test]
fn dropping_the_last_engine_handle_releases_the_engine() {
    let (engine, _clock) = fresh_db();
    let recorder = Arc::clone(engine.recorder());
    drop(engine);
    assert_eq!(
        Arc::strong_count(&recorder),
        1,
        "the engine's core outlived its last handle"
    );
}

/// Dropping the engine without `shutdown()` drains the writer and
/// closes the database and its log: a reopen of the same directory
/// finds the commit.
#[test]
fn a_dropped_engine_leaves_its_commits_for_the_next_open() {
    let dir = std::env::temp_dir().join(format!("chronos-db-dropped-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let clock = Arc::new(ManualClock::new(d("01/01/77")));
    let engine = Engine::start(Database::open(&dir, clock.clone()).unwrap());
    engine
        .session()
        .run(
            r#"create faculty (name = str, rank = str) as temporal
               append to faculty (name = "Merrie", rank = "associate")"#,
        )
        .unwrap();
    let recorder = Arc::clone(engine.recorder());
    drop(engine);
    assert_eq!(
        Arc::strong_count(&recorder),
        1,
        "the database or its log outlived the engine"
    );
    let engine = Engine::start(Database::open(&dir, clock).unwrap());
    let res = engine
        .session()
        .query("range of f is faculty retrieve (f.name, f.rank)")
        .unwrap();
    assert_eq!(res.rows[0].tuple.to_string(), "(Merrie, associate)");
    drop(engine);
    std::fs::remove_dir_all(&dir).unwrap();
}
