//! The operational surface end-to-end: the embedded HTTP exporter
//! (`/metrics`, `/stats`, `/slow`, `/healthz`, `/readyz`), the
//! slow-query log, and the structured `events.jsonl` journal.
//!
//! Every HTTP interaction here goes through [`chronos_obs::http_get`],
//! a raw-TCP GET — there is no HTTP client dependency to hide behind.

use std::path::PathBuf;
use std::sync::Arc;

use chronos_core::calendar::date;
use chronos_core::chronon::Chronon;
use chronos_core::clock::ManualClock;
use chronos_core::relation::temporal::TemporalStore as _;
use chronos_db::{Database, Engine, ObsBootstrap};
use chronos_obs::{http_get, validate_json, validate_jsonl, SLOWLOG_DISABLED};

fn d(s: &str) -> Chronon {
    date(s).unwrap()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chronos-ops-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The paper's Figure 8 faculty history, built through TQuel.
fn figure8_db() -> (Arc<Engine>, Arc<ManualClock>) {
    let clock = Arc::new(ManualClock::new(d("08/25/77")));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    engine
        .session()
        .run("create faculty (name = str, rank = str) as temporal")
        .expect("create");
    for (day, stmt) in [
        (
            "08/25/77",
            r#"append to faculty (name = "Merrie", rank = "associate")
               valid from "09/01/77" to forever"#,
        ),
        (
            "12/01/82",
            r#"append to faculty (name = "Tom", rank = "full")
               valid from "12/05/82" to forever"#,
        ),
        (
            "12/07/82",
            r#"range of f is faculty
               replace f (rank = "associate") valid from "12/05/82" to forever
               where f.name = "Tom""#,
        ),
        (
            "12/15/82",
            r#"range of f is faculty
               replace f (rank = "full") valid from "12/01/82" to forever
               where f.name = "Merrie""#,
        ),
    ] {
        clock.advance_to(d(day));
        engine
            .session()
            .run(stmt)
            .unwrap_or_else(|e| panic!("{stmt}: {e}"));
    }
    (engine, clock)
}

/// Pulls an unsigned JSON field out of one journal line (the journal is
/// flat, hand-rolled JSON — no serde in this workspace).
fn field_u64(line: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\": ");
    let at = line
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key} in {line}"));
    line[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("bad {key} in {line}"))
}

#[test]
fn exporter_serves_all_five_endpoints_with_live_counters() {
    let (engine, _clock) = figure8_db();
    // A Figure 8 rollback query: "what did we record, as best known on
    // 12/10/82?"  It advances the index-probe counter the scrape below
    // must carry.
    let res = engine
        .session()
        .query(
            r#"range of f is faculty
               retrieve (f.rank) where f.name = "Tom" as of "12/10/82""#,
        )
        .expect("rollback query");
    assert_eq!(res.column_strings(0), ["associate"]);

    let server = engine
        .with_db(|db| db.serve_observability("127.0.0.1:0"))
        .expect("serve");
    let addr = server.addr().to_string();

    let (status, metrics) = http_get(&addr, "/metrics").expect("GET /metrics");
    assert_eq!(status, 200);
    // The just-executed query's counters are in the exposition.
    assert!(metrics.contains("chronos_commits 4"), "{metrics}");
    assert!(metrics.contains("chronos_index_probes"), "{metrics}");
    let probes = metrics
        .lines()
        .find(|l| l.starts_with("chronos_index_probes "))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<u64>().ok())
        .expect("index probe sample");
    assert!(probes > 0, "rollback query did not probe the tx index");

    let (status, stats) = http_get(&addr, "/stats").expect("GET /stats");
    assert_eq!(status, 200);
    assert!(stats.contains("\"commits\""), "{stats}");
    assert!(stats.contains("\"telemetry\""), "{stats}");

    let (status, slow) = http_get(&addr, "/slow").expect("GET /slow");
    assert_eq!(status, 200);
    assert!(slow.contains("\"threshold_ns\""), "{slow}");

    // An in-memory database is born recovered: both health endpoints
    // answer 200 immediately.
    let (status, body) = http_get(&addr, "/healthz").expect("GET /healthz");
    assert_eq!((status, body.trim()), (200, "ok"));
    let (status, ready) = http_get(&addr, "/readyz").expect("GET /readyz");
    assert_eq!(status, 200);
    assert!(ready.contains("\"ready\": true"), "{ready}");

    // Unknown paths 404 without killing the server.
    let (status, _) = http_get(&addr, "/nope").expect("GET /nope");
    assert_eq!(status, 404);
    let (status, _) = http_get(&addr, "/metrics").expect("GET again");
    assert_eq!(status, 200);

    server.shutdown();
}

/// The scrape path under fire: several readers hammer `/metrics` and
/// `/stats` while a writer session commits.  Every response must be
/// whole (parseable, counters present) and the commit counter seen by
/// any one reader must be monotone — a torn snapshot would violate
/// either.
#[test]
fn exporter_survives_concurrent_scrapes_during_writes() {
    const READERS: usize = 4;
    const SCRAPES: usize = 20;
    const COMMITS: usize = 40;

    let clock = Arc::new(ManualClock::new(d("01/01/80")));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    engine
        .session()
        .run("create log (name = str) as temporal")
        .expect("create");
    let server = engine
        .with_db(|db| db.serve_observability("127.0.0.1:0"))
        .expect("serve");
    let addr = server.addr().to_string();

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..READERS)
            .map(|_| {
                let addr = addr.clone();
                s.spawn(move || {
                    let mut last_commits = 0u64;
                    for _ in 0..SCRAPES {
                        let (status, metrics) = http_get(&addr, "/metrics").expect("GET /metrics");
                        assert_eq!(status, 200);
                        let commits = metrics
                            .lines()
                            .find(|l| l.starts_with("chronos_commits "))
                            .and_then(|l| l.rsplit(' ').next())
                            .and_then(|v| v.parse::<u64>().ok())
                            .unwrap_or_else(|| panic!("torn exposition:\n{metrics}"));
                        assert!(
                            commits >= last_commits,
                            "commit counter went backwards: {last_commits} -> {commits}"
                        );
                        last_commits = commits;
                        let (status, stats) = http_get(&addr, "/stats").expect("GET /stats");
                        assert_eq!(status, 200);
                        validate_json(&stats).expect("torn /stats body");
                    }
                    last_commits
                })
            })
            .collect();
        // The writer keeps committing on this thread the whole time.
        for i in 0..COMMITS {
            clock.tick(1);
            engine
                .session()
                .run(&format!(r#"append to log (name = "e{i:03}")"#))
                .expect("append");
        }
        for h in handles {
            let seen = h.join().expect("reader thread");
            assert!(seen <= COMMITS as u64);
        }
    });
    assert_eq!(engine.stats().metrics.commits, COMMITS as u64);
    server.shutdown();
}

#[test]
fn healthz_flips_from_503_to_200_across_recovery() {
    let dir = temp_dir("healthz");
    // Lay down history to recover.
    {
        let clock = Arc::new(ManualClock::new(d("01/01/80")));
        let engine = Engine::start(Database::open(&dir, clock.clone()).expect("open"));
        engine
            .session()
            .run("create faculty (name = str, rank = str) as temporal")
            .expect("create");
        clock.advance_to(d("02/01/80"));
        engine
            .session()
            .run(r#"append to faculty (name = "Merrie", rank = "associate")"#)
            .expect("append");
    }
    // The exporter comes up before the database: not ready.
    let obs = ObsBootstrap::new();
    let server = obs.serve("127.0.0.1:0").expect("serve");
    let addr = server.addr().to_string();
    let (status, body) = http_get(&addr, "/healthz").expect("GET /healthz");
    assert_eq!((status, body.trim()), (503, "starting"));
    let (status, ready) = http_get(&addr, "/readyz").expect("GET /readyz");
    assert_eq!(status, 503);
    assert!(ready.contains("\"ready\": false"), "{ready}");
    assert!(ready.contains("\"wal_recovered\": false"), "{ready}");

    // Recovery completes; the SAME server (no restart) answers 200.
    let clock = Arc::new(ManualClock::new(d("01/01/81")));
    let db = Database::open_with_obs(&dir, clock, &obs).expect("recover");
    let (status, body) = http_get(&addr, "/healthz").expect("GET /healthz");
    assert_eq!((status, body.trim()), (200, "ok"));
    let (status, ready) = http_get(&addr, "/readyz").expect("GET /readyz");
    assert_eq!(status, 200);
    assert!(ready.contains("\"wal_recovered\": true"), "{ready}");
    assert!(db.health().ready());

    server.shutdown();
    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn slow_log_names_the_rollback_access_path() {
    let clock = Arc::new(ManualClock::new(Chronon::new(1000)));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    engine
        .session()
        .run("create r (name = str) as rollback")
        .expect("create");
    // Nine commits, then a probe at the end.
    for i in 0..9 {
        clock.tick(1);
        engine
            .session()
            .run(&format!(r#"append to r (name = "e{i:02}")"#))
            .expect("append");
    }
    engine.with_db(|db| db.set_slow_query_threshold_ns(0));
    let as_of = chronos_core::calendar::Date::from_chronon(engine.with_db(Database::now));
    engine
        .session()
        .query(&format!(
            r#"range of x is r retrieve (x.name) as of "{as_of}""#
        ))
        .expect("rollback retrieve");

    let server = engine
        .with_db(|db| db.serve_observability("127.0.0.1:0"))
        .expect("serve");
    let (status, slow) = http_get(&server.addr().to_string(), "/slow").expect("GET /slow");
    assert_eq!(status, 200);
    // The captured profile names the access path the reconstruction
    // actually took — the table's transaction-time index, the same
    // path a temporal `as of` takes.
    assert!(slow.contains("tx-index stab"), "{slow}");
    assert!(slow.contains("retrieve"), "{slow}");
    server.shutdown();

    let entries = engine.recorder().slowlog().entries();
    let last = entries.last().expect("captured");
    assert!(last.report.contains("storage/asof"), "{}", last.report);
    assert!(last.report.contains("tx-index stab"), "{}", last.report);
}

#[test]
fn slow_log_threshold_zero_captures_every_statement_once_in_order() {
    let (engine, clock) = figure8_db();
    engine.with_db(|db| db.set_slow_query_threshold_ns(0));
    let statements = [
        r#"append to faculty (name = "Jane", rank = "assistant")"#.to_string(),
        r#"range of f is faculty retrieve (f.rank) where f.name = "Tom""#.to_string(),
        r#"range of f is faculty retrieve (f.name) as of "12/10/82""#.to_string(),
    ];
    clock.tick(1);
    for stmt in &statements {
        engine.session().run(stmt).expect("statement");
    }
    let entries = engine.recorder().slowlog().entries();
    // `range of` and the retrieve are separate statements: 1 + 2 + 2.
    assert_eq!(entries.len(), 5, "{entries:#?}");
    assert_eq!(engine.recorder().slowlog().admitted(), 5);
    for (i, e) in entries.iter().enumerate() {
        // Captured once each, in execution order…
        assert_eq!(e.seq, i as u64);
        // …with a non-empty span tree rooted at the statement span.
        assert!(
            e.report.contains("session/statement"),
            "entry {i} has no root span:\n{}",
            e.report
        );
        assert!(e.duration_ns > 0, "entry {i} has no duration");
    }
    // The capture order is the statement order.
    assert!(entries[0].statement.starts_with("append to faculty"));
    assert!(entries[1].statement.starts_with("range of"));
    assert!(entries[2].statement.starts_with("retrieve"));
    assert!(entries[3].statement.starts_with("range of"));
    assert!(entries[4].statement.starts_with("retrieve"));
}

#[test]
fn slow_log_disabled_threshold_captures_nothing() {
    let (engine, _clock) = figure8_db();
    // The default threshold is disabled; make that explicit.
    assert_eq!(engine.recorder().slowlog().threshold_ns(), SLOWLOG_DISABLED);
    engine
        .session()
        .query(r#"range of f is faculty retrieve (f.rank) where f.name = "Tom""#)
        .expect("query");
    assert!(engine.recorder().slowlog().is_empty());
    assert_eq!(engine.recorder().slowlog().admitted(), 0);
    assert!(engine
        .recorder()
        .slowlog()
        .to_json()
        .contains("\"entries\": []"));
}

#[test]
fn recovery_event_matches_the_replayed_table_state() {
    let dir = temp_dir("recovery-event");
    let commits = 3usize;
    {
        let clock = Arc::new(ManualClock::new(d("01/01/80")));
        let engine = Engine::start(Database::open(&dir, clock.clone()).expect("open"));
        engine
            .session()
            .run("create faculty (name = str, rank = str) as temporal")
            .expect("create");
        for (i, day) in ["02/01/80", "03/01/80", "04/01/80"].iter().enumerate() {
            clock.advance_to(d(day));
            engine
                .session()
                .run(&format!(
                    r#"append to faculty (name = "prof{i}", rank = "assistant")"#
                ))
                .expect("append");
        }
        assert_eq!(commits, 3);
    }
    // Flip a byte inside the SECOND frame's payload: recovery must stop
    // at the last good record and say so in the journal.
    let wal_path = dir.join("wal");
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let total_len = bytes.len() as u64;
    let first_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let first_frame_end = 8 + first_len as u64;
    bytes[8 + first_len + 8 + 2] ^= 0xFF;
    std::fs::write(&wal_path, &bytes).unwrap();

    let clock = Arc::new(ManualClock::new(d("01/01/81")));
    let db = Database::open(&dir, clock).expect("reopen");
    let replayed_txns = db.relation("faculty").unwrap().table().transactions() as u64;
    assert_eq!(replayed_txns, 1, "only the valid prefix replays");

    let journal = std::fs::read_to_string(dir.join("events.jsonl")).expect("journal");
    validate_jsonl(&journal).expect("journal is well-formed JSONL");
    // The LAST recovery event is this reopen's (the journal appends
    // across database lifetimes).
    let recovery = journal
        .lines()
        .rfind(|l| l.contains("\"event\": \"recovery\""))
        .expect("a recovery event");
    assert_eq!(field_u64(recovery, "frames_replayed"), replayed_txns);
    assert_eq!(field_u64(recovery, "truncated_at"), first_frame_end);
    assert_eq!(
        field_u64(recovery, "torn_bytes"),
        total_len - first_frame_end,
        "everything after the corrupt frame is torn"
    );
    // The first (clean) open journaled its recovery too, with nothing
    // torn.
    let first = journal
        .lines()
        .find(|l| l.contains("\"event\": \"recovery\""))
        .expect("first recovery event");
    assert_eq!(field_u64(first, "torn_bytes"), 0);
    // It also says how long the restart took (catalog + image +
    // replay): an open that replays a frame is not free.
    assert!(field_u64(recovery, "elapsed_us") > 0, "{recovery}");

    drop(db);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn wal_appends_and_checkpoints_are_journaled() {
    let dir = temp_dir("journal");
    {
        let clock = Arc::new(ManualClock::new(d("01/01/80")));
        let engine = Engine::start(Database::open(&dir, clock.clone()).expect("open"));
        engine
            .session()
            .run("create faculty (name = str, rank = str) as temporal")
            .expect("create");
        clock.advance_to(d("02/01/80"));
        engine
            .session()
            .run(r#"append to faculty (name = "Merrie", rank = "associate")"#)
            .expect("append");
        engine.checkpoint().expect("checkpoint");
    }
    let journal = std::fs::read_to_string(dir.join("events.jsonl")).expect("journal");
    validate_jsonl(&journal).expect("well-formed");
    // The whole journal, in order.  Journal lines are most of a data
    // directory's bytes, so the one commit journals one log append and
    // one group commit, nothing more.
    let events: Vec<&str> = journal
        .lines()
        .map(|l| {
            let rest = &l[l.find("\"event\": \"").expect("event field") + 10..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect();
    assert_eq!(
        events,
        [
            "recovery_start",
            "recovery",
            "wal_append",
            "group_commit",
            "db_checkpoint_start",
            "db_checkpoint_finish",
        ],
        "{journal}"
    );
    // The recovery event carries its counts and its duration.
    let recovery = journal
        .lines()
        .find(|l| l.contains("\"event\": \"recovery\""))
        .expect("checked above");
    for field in [
        "frames_replayed",
        "elapsed_us",
        "frames_skipped",
        "truncated_at",
        "torn_bytes",
    ] {
        assert!(
            recovery.contains(&format!("\"{field}\": ")),
            "missing {field} in {recovery}"
        );
    }
    // Sequence numbers are strictly increasing down the file.
    let seqs: Vec<u64> = journal.lines().map(|l| field_u64(l, "seq")).collect();
    assert!(seqs.windows(2).all(|w| w[0] < w[1]), "{seqs:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}
