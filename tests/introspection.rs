//! Temporal introspection end-to-end: the engine's telemetry queried
//! *as relations* through TQuel.  `sys$stats` is an event relation
//! indexed at transaction time, so the paper's own rollback vocabulary
//! ("as best known at t") answers operational questions — "how many
//! commits had we seen as of noon?" — with no new query surface.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use chronos_core::calendar::date;
use chronos_core::chronon::Chronon;
use chronos_core::clock::ManualClock;
use chronos_db::introspect::flatten_stats;
use chronos_db::{Database, Engine, ObsBootstrap, QueryClient, QueryServer};
use chronos_obs::{http_get, validate_json, MetricsSnapshot, Reading};

fn d(s: &str) -> Chronon {
    date(s).unwrap()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("chronos-introspect-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One workload step: advance the clock, run a statement.
fn step(engine: &Arc<Engine>, clock: &Arc<ManualClock>, day: &str, stmt: &str) {
    clock.advance_to(d(day));
    engine
        .session()
        .run(stmt)
        .unwrap_or_else(|e| panic!("{stmt}: {e}"));
}

/// The sampled `commits` counter as best known at `as_of`.
fn commits_as_of(engine: &Arc<Engine>, as_of: &str) -> Vec<i64> {
    engine
        .session()
        .query(&format!(
            r#"range of s is sys$stats
               retrieve (s.value) where s.metric = "commits" as of "{as_of}""#
        ))
        .expect("rollback query over sys$stats")
        .rows
        .iter()
        .map(|r| r.tuple.get(0).as_int().expect("int value"))
        .collect()
}

/// The acceptance scenario: sample, advance the workload, sample again,
/// then ask for the counter values that were current at two distinct
/// as-of points and get two distinct (correct) answers.
#[test]
fn sys_stats_as_of_returns_the_then_current_counters() {
    let clock = Arc::new(ManualClock::new(d("01/01/80")));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    engine
        .session()
        .run("create faculty (name = str, rank = str) as temporal")
        .expect("create");
    step(
        &engine,
        &clock,
        "01/05/80",
        r#"append to faculty (name = "Merrie", rank = "associate")"#,
    );

    clock.advance_to(d("02/01/80"));
    let t1 = engine.with_db(Database::sample_now);
    assert_eq!(t1, d("02/01/80"), "sample lands at the clock reading");
    let commits_t1 = engine.stats().metrics.commits as i64;
    assert_eq!(commits_t1, 1);

    step(
        &engine,
        &clock,
        "02/10/80",
        r#"append to faculty (name = "Tom", rank = "full")"#,
    );
    step(
        &engine,
        &clock,
        "02/11/80",
        r#"append to faculty (name = "Jane", rank = "assistant")"#,
    );

    clock.advance_to(d("03/01/80"));
    let t2 = engine.with_db(Database::sample_now);
    assert_eq!(t2, d("03/01/80"));
    let commits_t2 = engine.stats().metrics.commits as i64;
    assert_eq!(commits_t2, 3);

    // Two distinct as-of points, two distinct counter values.
    assert_eq!(commits_as_of(&engine, "02/01/80"), vec![commits_t1]);
    assert_eq!(commits_as_of(&engine, "03/01/80"), vec![commits_t2]);
    // Between samples the earlier one is still the current belief.
    assert_eq!(commits_as_of(&engine, "02/15/80"), vec![commits_t1]);
    // Before any sample, nothing was known.
    assert_eq!(commits_as_of(&engine, "01/02/80"), Vec::<i64>::new());

    // The default (no as-of) view is the newest sample only.
    let now = engine
        .session()
        .query(r#"range of s is sys$stats retrieve (s.value) where s.metric = "commits""#)
        .expect("current query");
    assert_eq!(now.rows.len(), 1);
    assert_eq!(now.rows[0].tuple.get(0).as_int(), Some(commits_t2));
}

/// `when` works over telemetry: samples carry their sampling event as
/// validity, so valid-time predicates select among them.
#[test]
fn when_clause_selects_samples_by_their_sampling_event() {
    let clock = Arc::new(ManualClock::new(d("01/01/80")));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    engine
        .session()
        .run("create faculty (name = str) as temporal")
        .expect("create");
    step(
        &engine,
        &clock,
        "01/05/80",
        r#"append to faculty (name = "Merrie")"#,
    );
    clock.advance_to(d("02/01/80"));
    engine.with_db(Database::sample_now);
    step(
        &engine,
        &clock,
        "02/10/80",
        r#"append to faculty (name = "Tom")"#,
    );
    clock.advance_to(d("03/01/80"));
    engine.with_db(Database::sample_now);

    // A through-window exposes both samples; the when clause picks the
    // one whose sampling event is 02/01/80.
    let res = engine
        .session()
        .query(
            r#"range of s is sys$stats
               retrieve (s.value) where s.metric = "commits"
               when s overlap "02/01/80"
               as of "01/01/80" through "04/01/80""#,
        )
        .expect("when over telemetry");
    assert_eq!(res.rows.len(), 1);
    assert_eq!(res.rows[0].tuple.get(0).as_int(), Some(1));
}

/// `sys$relations` is a static rollback view of the catalog: DDL and
/// commits are sampled synchronously, so as-of answers are exact.
#[test]
fn sys_relations_rolls_the_catalog_back_across_ddl() {
    let clock = Arc::new(ManualClock::new(d("01/01/80")));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    engine
        .session()
        .run("create faculty (name = str, rank = str) as temporal")
        .expect("create");
    step(
        &engine,
        &clock,
        "01/05/80",
        r#"append to faculty (name = "Merrie", rank = "associate")"#,
    );
    step(
        &engine,
        &clock,
        "02/10/80",
        r#"append to faculty (name = "Tom", rank = "full")"#,
    );
    clock.advance_to(d("04/01/80"));
    engine
        .session()
        .run("create dept (name = str) as static")
        .expect("create dept");

    // Current catalog: both relations, as pure static rows.
    let now = engine
        .session()
        .query(r#"range of r is sys$relations retrieve (r.name, r.class, r.tuples)"#)
        .expect("current catalog");
    let mut names = now.column_strings(0);
    names.sort();
    assert_eq!(names, ["dept", "faculty"]);
    assert!(now
        .rows
        .iter()
        .all(|r| r.validity.is_none() && r.tx.is_none()));

    // As of before dept existed: faculty alone, with the tuple count it
    // had then.
    let then = engine
        .session()
        .query(
            r#"range of r is sys$relations
               retrieve (r.name, r.tuples) as of "03/01/80""#,
        )
        .expect("rollback catalog");
    assert_eq!(then.column_strings(0), ["faculty"]);
    assert_eq!(then.rows[0].tuple.get(1).as_int(), Some(2));

    // As of before the first append: cataloged but empty.
    let empty = engine
        .session()
        .query(
            r#"range of r is sys$relations
               retrieve (r.name, r.tuples) as of "01/02/80""#,
        )
        .expect("rollback catalog");
    assert_eq!(empty.rows[0].tuple.get(1).as_int(), Some(0));
}

/// Every modification path refuses the reserved namespace.
#[test]
fn system_relations_are_read_only() {
    let clock = Arc::new(ManualClock::new(d("01/01/80")));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    engine.with_db(Database::sample_now);
    for stmt in [
        r#"append to sys$stats (metric = "forged", value = 1)"#,
        "create sys$mine (a = int) as static",
        "destroy sys$stats",
        "range of s is sys$stats delete s",
        r#"range of s is sys$stats replace s (value = 0)"#,
        r#"range of s is sys$stats retrieve into sys$copy (s.metric)"#,
    ] {
        let err = engine.session().run(stmt).expect_err(stmt).to_string();
        assert!(err.contains("read-only"), "{stmt}: {err}");
    }
    // Unknown sys$ names are ordinary unknown relations.
    let err = engine
        .session()
        .run("range of x is sys$nope")
        .expect_err("unknown system relation")
        .to_string();
    assert!(err.contains("unknown relation"), "{err}");
}

/// Ordinary TQuel aggregates run over telemetry unchanged.
#[test]
fn aggregates_run_over_sys_stats() {
    let clock = Arc::new(ManualClock::new(d("01/01/80")));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    engine
        .session()
        .run("create faculty (name = str) as temporal")
        .expect("create");
    step(
        &engine,
        &clock,
        "01/05/80",
        r#"append to faculty (name = "Merrie")"#,
    );
    clock.advance_to(d("02/01/80"));
    engine.with_db(Database::sample_now);
    let res = engine
        .session()
        .query(
            r#"range of s is sys$stats
               retrieve (n = count(s.metric), hi = max(s.value))"#,
        )
        .expect("aggregate over telemetry");
    let n = res.rows[0].tuple.get(0).as_int().unwrap();
    let hi = res.rows[0].tuple.get(1).as_int().unwrap();
    assert!(n > 20, "the flattened metric set is wide, got {n}");
    assert!(hi >= 1, "some counter advanced, got {hi}");

    // explain works too: the system scan is spanned like any other.
    let outcomes = engine
        .session()
        .run(r#"range of s is sys$stats explain retrieve (s.metric)"#)
        .expect("explain over telemetry");
    let report = match &outcomes[1] {
        chronos_db::ExecOutcome::Explained { report, .. } => report.clone(),
        other => panic!("expected explain, got {other:?}"),
    };
    assert!(report.contains("db/scan"), "{report}");
}

/// The background sampler feeds `sys$stats` while the HTTP surface
/// (`/history`, `/events`, `/readyz`) and the journal observe its
/// lifecycle; `sys$slow` and `sys$events` project the slow log and the
/// journal into TQuel.
#[test]
fn background_sampler_and_system_relations_on_a_durable_database() {
    let dir = temp_dir("sampler");
    let clock = Arc::new(ManualClock::new(d("01/01/80")));
    let obs = ObsBootstrap::new();
    let server = obs.serve("127.0.0.1:0").expect("serve");
    let addr = server.addr().to_string();
    let engine = Engine::start(Database::open_with_obs(&dir, clock.clone(), &obs).expect("open"));
    let sampler_running = || engine.with_db(Database::sampler_running);
    engine
        .session()
        .run("create faculty (name = str, rank = str) as temporal")
        .expect("create");
    step(
        &engine,
        &clock,
        "02/01/80",
        r#"append to faculty (name = "Merrie", rank = "associate")"#,
    );

    assert!(!sampler_running());
    engine
        .exclusive(|db| db.start_stats_sampler(Duration::from_millis(5)))
        .expect("writer")
        .expect("sampler");
    assert!(sampler_running());
    let (status, ready) = http_get(&addr, "/readyz").expect("GET /readyz");
    assert_eq!(status, 200);
    assert!(ready.contains("\"sampler_running\": true"), "{ready}");

    // Wait for the thread to take at least two samples.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while engine.with_db(|db| db.telemetry().stats().samples_taken) < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "sampler never sampled"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let (status, hist) = http_get(&addr, "/history?metric=commits&n=8").expect("GET /history");
    assert_eq!(status, 200);
    validate_json(&hist).expect("untorn /history JSON");
    assert!(hist.contains("\"metric\": \"commits\""), "{hist}");
    assert!(hist.contains("\"value\": 1"), "{hist}");
    let (status, body) = http_get(&addr, "/history").expect("GET /history sans metric");
    assert_eq!(status, 400, "{body}");

    let (status, events) = http_get(&addr, "/events?n=50").expect("GET /events");
    assert_eq!(status, 200);
    validate_json(&events).expect("untorn /events JSON");
    assert!(events.contains("\"kind\": \"sampler_start\""), "{events}");

    engine
        .exclusive(|db| db.stop_stats_sampler())
        .expect("writer");
    assert!(!sampler_running());
    let (_, ready) = http_get(&addr, "/readyz").expect("GET /readyz");
    assert!(ready.contains("\"sampler_running\": false"), "{ready}");

    // The sampler's own counters ride in engine_stats().
    let stats = engine.stats();
    assert!(stats.telemetry.samples_taken >= 2);
    assert!(!stats.telemetry.sampler_running);
    let taken = (
        "telemetry_samples_taken".to_string(),
        stats.telemetry.samples_taken as i64,
    );
    assert!(flatten_stats(&stats).contains(&taken));
    assert!(stats
        .to_prometheus()
        .contains("chronos_telemetry_samples_taken"));

    // sys$events projects the journal into TQuel…
    let res = engine
        .session()
        .query(r#"range of e is sys$events retrieve (e.kind, e.seq)"#)
        .expect("sys$events");
    let events = res.column_strings(0);
    assert!(events.iter().any(|e| e == "recovery"), "{events:?}");
    assert!(events.iter().any(|e| e == "sampler_stop"), "{events:?}");

    // …and sys$slow the slow-query ring, with the capture clock reading
    // as the row's validity event.
    engine.with_db(|db| db.set_slow_query_threshold_ns(0));
    engine
        .session()
        .query(r#"range of f is faculty retrieve (f.name)"#)
        .expect("slow-captured query");
    let res = engine
        .session()
        .query(r#"range of w is sys$slow retrieve (w.statement, w.duration_ns)"#)
        .expect("sys$slow");
    assert!(!res.rows.is_empty());
    assert!(
        res.rows.iter().any(|r| r
            .tuple
            .get(0)
            .as_str()
            .is_some_and(|s| s.contains("retrieve (f.name)"))),
        "captured statement missing"
    );
    assert!(res
        .rows
        .iter()
        .all(|r| matches!(r.validity, Some(chronos_core::relation::Validity::Event(_)))));

    server.shutdown();
    drop(engine);
    // The journal recorded the sampler lifecycle durably.
    let journal = std::fs::read_to_string(dir.join("events.jsonl")).expect("journal");
    assert!(
        journal.contains("\"event\": \"sampler_start\""),
        "{journal}"
    );
    assert!(journal.contains("\"event\": \"sampler_stop\""), "{journal}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Restarting the sampler replaces the previous thread, and dropping
/// the database joins it (no leaked threads, no double-running flags).
#[test]
fn sampler_restart_replaces_the_previous_thread() {
    let clock = Arc::new(ManualClock::new(d("01/01/80")));
    let mut db = Database::in_memory(clock);
    db.start_stats_sampler(Duration::from_millis(400))
        .expect("first");
    assert!(db.sampler_running());
    db.start_stats_sampler(Duration::from_millis(400))
        .expect("second");
    assert!(db.sampler_running());
    db.stop_stats_sampler();
    assert!(!db.sampler_running());
    // Idempotent stop.
    db.stop_stats_sampler();
    assert!(!db.sampler_running());
}

/// An embedded session is registered like a served one: `sys$sessions`
/// lists it under a non-zero id while it is open, and no longer once it
/// has dropped.
#[test]
fn an_embedded_session_is_listed_in_sys_sessions_while_open() {
    let engine = Engine::start(Database::in_memory(Arc::new(ManualClock::new(d(
        "01/01/80",
    )))));
    let listed = |session: &mut chronos_db::Session| -> Vec<i64> {
        session
            .query("range of s is sys$sessions retrieve (s.session)")
            .expect("sys$sessions")
            .rows
            .iter()
            .map(|r| r.tuple.get(0).as_int().expect("int session id"))
            .collect()
    };
    let mut session = engine.session();
    let id = session.session_id();
    assert_ne!(id, 0, "an embedded session is registered");
    assert!(listed(&mut session).contains(&(id as i64)));
    drop(session);
    let mut other = engine.session();
    let ids = listed(&mut other);
    assert!(
        !ids.contains(&(id as i64)),
        "{id} outlived its session: {ids:?}"
    );
    assert_eq!(ids, [other.session_id() as i64]);
}

/// Renders one answer row as `tuple | valid | tx` (`-` for an axis the
/// answer does not carry).
fn render_row(row: &chronos_tquel::exec::ResultRow) -> String {
    let axis = |a: Option<String>| a.unwrap_or_else(|| "-".to_string());
    format!(
        "{} | {} | {}",
        row.tuple,
        axis(row.validity.map(|v| v.to_string())),
        axis(row.tx.map(|p| p.to_string()))
    )
}

/// The four system relations with history, read three ways each — the
/// current state, `as of t`, and `as of t1 through t2` — through engine
/// sessions in TQuel.  Every answer is pinned whole: its rows, their
/// order, and the transaction period of each row where the relation's
/// class has transaction time (`sys$stats`, `sys$tablestats`; the
/// static-rollback `sys$relations` and `sys$sessions` answer with pure
/// static rows).
#[test]
fn system_relations_with_history_answer_current_as_of_and_through_reads() {
    let clock = Arc::new(ManualClock::new(d("01/01/80")));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    let run = |session: &mut chronos_db::Session, day: &str, trace: &str, stmt: &str| {
        clock.advance_to(d(day));
        session.set_trace_id(trace);
        session.run(stmt).unwrap_or_else(|e| panic!("{stmt}: {e}"));
    };
    let sample = |day: &str| {
        clock.advance_to(d(day));
        engine.with_db(Database::sample_now);
    };
    let mut w = engine.session();
    run(
        &mut w,
        "01/01/80",
        "w1",
        "create faculty (name = str, rank = str) as temporal",
    );
    run(
        &mut w,
        "01/05/80",
        "w2",
        r#"append to faculty (name = "Merrie", rank = "associate")"#,
    );
    run(&mut w, "01/10/80", "w3", "analyze faculty");
    sample("02/01/80");
    let mut r = engine.session();
    run(
        &mut w,
        "02/10/80",
        "w4",
        r#"append to faculty (name = "Tom", rank = "full")"#,
    );
    run(
        &mut w,
        "02/12/80",
        "w5",
        "create dept (name = str) as static",
    );
    run(&mut w, "02/15/80", "w6", "analyze dept");
    r.refresh();
    run(
        &mut r,
        "02/16/80",
        "r1",
        "range of f is faculty retrieve (f.name)",
    );
    sample("03/01/80");
    drop(r);
    run(
        &mut w,
        "03/10/80",
        "w7",
        r#"append to faculty (name = "Jane", rank = "assistant")"#,
    );
    run(&mut w, "03/12/80", "w8", "analyze faculty");
    sample("04/01/80");
    clock.advance_to(d("05/01/80"));

    let reads = [
        "",
        r#"as of "02/20/80""#,
        r#"as of "02/20/80" through "03/15/80""#,
    ];
    let table: [(&str, [&[&str]; 3]); 4] = [
        (
            r#"range of x is sys$stats
               retrieve (x.metric, x.value)
               where x.metric = "commits" or x.metric = "sessions_opened""#,
            [
                &[
                    "(commits, 3) | 04/01/80 | [04/01/80, ∞)",
                    "(sessions_opened, 2) | 04/01/80 | [04/01/80, ∞)",
                ],
                &[
                    "(commits, 1) | 02/01/80 | [02/01/80, 03/01/80)",
                    "(sessions_opened, 1) | 02/01/80 | [02/01/80, 03/01/80)",
                ],
                &[
                    "(commits, 1) | 02/01/80 | [02/01/80, 03/01/80)",
                    "(sessions_opened, 1) | 02/01/80 | [02/01/80, 03/01/80)",
                    "(commits, 2) | 03/01/80 | [03/01/80, 04/01/80)",
                    "(sessions_opened, 2) | 03/01/80 | [03/01/80, 04/01/80)",
                ],
            ],
        ),
        (
            r#"range of x is sys$relations retrieve (x.name, x.class, x.tuples, x.bytes)"#,
            [
                &[
                    "(dept, static, 0, 0) | - | -",
                    "(faculty, temporal, 3, 8192) | - | -",
                ],
                &[
                    "(dept, static, 0, 0) | - | -",
                    "(faculty, temporal, 2, 8192) | - | -",
                ],
                &[
                    "(dept, static, 0, 0) | - | -",
                    "(faculty, temporal, 2, 8192) | - | -",
                    "(faculty, temporal, 3, 8192) | - | -",
                ],
            ],
        ),
        (
            r#"range of x is sys$tablestats
               retrieve (x.relation, x.stat, x.value)
               where x.stat = "rows" or x.stat = "versions""#,
            [
                &[
                    "(dept, rows, 0) | 02/15/80 | [03/12/80, ∞)",
                    "(dept, versions, 0) | 02/15/80 | [03/12/80, ∞)",
                    "(faculty, rows, 3) | 03/12/80 | [03/12/80, ∞)",
                    "(faculty, versions, 3) | 03/12/80 | [03/12/80, ∞)",
                ],
                &[
                    "(dept, rows, 0) | 02/15/80 | [02/15/80, 03/12/80)",
                    "(dept, versions, 0) | 02/15/80 | [02/15/80, 03/12/80)",
                    "(faculty, rows, 1) | 01/10/80 | [02/15/80, 03/12/80)",
                    "(faculty, versions, 1) | 01/10/80 | [02/15/80, 03/12/80)",
                ],
                &[
                    "(dept, rows, 0) | 02/15/80 | [02/15/80, 03/12/80)",
                    "(dept, versions, 0) | 02/15/80 | [02/15/80, 03/12/80)",
                    "(faculty, rows, 1) | 01/10/80 | [02/15/80, 03/12/80)",
                    "(faculty, versions, 1) | 01/10/80 | [02/15/80, 03/12/80)",
                    "(dept, rows, 0) | 02/15/80 | [03/12/80, ∞)",
                    "(dept, versions, 0) | 02/15/80 | [03/12/80, ∞)",
                    "(faculty, rows, 3) | 03/12/80 | [03/12/80, ∞)",
                    "(faculty, versions, 3) | 03/12/80 | [03/12/80, ∞)",
                ],
            ],
        ),
        (
            r#"range of x is sys$sessions
               retrieve (x.session, x.pin, x.statements, x.trace_id)"#,
            [
                &["(1, 3721, 8, w8) | - | -", "(3, 3721, 20, q) | - | -"],
                &["(1, 3656, 3, w3) | - | -"],
                &[
                    "(1, 3656, 3, w3) | - | -",
                    "(1, 3692, 6, w6) | - | -",
                    "(2, 3692, 2, r1) | - | -",
                ],
            ],
        ),
    ];
    let mut q = engine.session();
    for (query, expected) in table {
        for (read, want) in reads.iter().zip(expected) {
            q.set_trace_id("q");
            let got: Vec<String> = q
                .query(&format!("{query} {read}"))
                .unwrap_or_else(|e| panic!("{query} {read}: {e}"))
                .rows
                .iter()
                .map(render_row)
                .collect();
            assert_eq!(got, want, "{query} {read}");
        }
    }

    // The full `sys$stats` metric set, in exposition order: 21
    // counters, the derived session gauge, 3 gauges, each of the 9
    // histograms' samples/total/p50/p99/p999, the slow log's threshold
    // and admissions, and the telemetry counters (an in-memory database
    // has no journal, so no journal counters).
    let names = q
        .query("range of s is sys$stats retrieve (s.metric)")
        .expect("metric names")
        .column_strings(0);
    assert_eq!(
        names,
        [
            "pager_page_reads",
            "pager_page_writes",
            "wal_appends",
            "wal_fsyncs",
            "heap_rows_scanned",
            "index_probes",
            "segment_hits",
            "segment_skips",
            "segment_bloom_fps",
            "commits",
            "sessions_opened",
            "sessions_closed",
            "group_commit_batches",
            "group_fsyncs_saved",
            "submit_stalls",
            "checkpoints",
            "checkpoint_failures",
            "net_requests",
            "net_errors",
            "net_bytes_in",
            "net_bytes_out",
            "active_sessions",
            "commit_queue_depth",
            "commit_queue_hwm",
            "checkpoint_bytes",
            "commit_latency_samples",
            "commit_latency_total_ns",
            "commit_latency_p50_ns",
            "commit_latency_p99_ns",
            "commit_latency_p999_ns",
            "group_batch_size_samples",
            "group_batch_size_total",
            "group_batch_size_p50",
            "group_batch_size_p99",
            "group_batch_size_p999",
            "commit_queue_wait_samples",
            "commit_queue_wait_total_ns",
            "commit_queue_wait_p50_ns",
            "commit_queue_wait_p99_ns",
            "commit_queue_wait_p999_ns",
            "commit_lock_wait_samples",
            "commit_lock_wait_total_ns",
            "commit_lock_wait_p50_ns",
            "commit_lock_wait_p99_ns",
            "commit_lock_wait_p999_ns",
            "commit_apply_samples",
            "commit_apply_total_ns",
            "commit_apply_p50_ns",
            "commit_apply_p99_ns",
            "commit_apply_p999_ns",
            "commit_fsync_samples",
            "commit_fsync_total_ns",
            "commit_fsync_p50_ns",
            "commit_fsync_p99_ns",
            "commit_fsync_p999_ns",
            "commit_ack_samples",
            "commit_ack_total_ns",
            "commit_ack_p50_ns",
            "commit_ack_p99_ns",
            "commit_ack_p999_ns",
            "read_lock_wait_samples",
            "read_lock_wait_total_ns",
            "read_lock_wait_p50_ns",
            "read_lock_wait_p99_ns",
            "read_lock_wait_p999_ns",
            "slowlog_threshold_ns",
            "slowlog_admitted",
            "telemetry_samples_taken",
            "telemetry_samples_spilled",
            "telemetry_stats_retained",
            "telemetry_catalog_retained",
            "telemetry_capacity",
            "telemetry_sampler_running",
        ]
    );
}

/// `destroy` ends a relation's statistics at its transaction time
/// without rewriting the past: `sys$tablestats` still shows them `as
/// of` a time before the destroy, the current state and the planner's
/// lookup no longer do, and a recreated relation starts unanalyzed.
#[test]
fn destroy_keeps_the_past_of_sys_tablestats() {
    let clock = Arc::new(ManualClock::new(d("01/01/77")));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    engine
        .session()
        .run("create people (name = str) as temporal")
        .expect("create");
    step(
        &engine,
        &clock,
        "03/01/77",
        r#"append to people (name = "Merrie")"#,
    );
    step(&engine, &clock, "06/01/77", "analyze people");
    step(&engine, &clock, "01/01/80", "destroy people");

    let people_rows = |read: &str| -> Vec<i64> {
        engine
            .session()
            .query(&format!(
                r#"range of t is sys$tablestats
                   retrieve (t.value) where t.relation = "people" and t.stat = "rows" {read}"#
            ))
            .expect("sys$tablestats")
            .rows
            .iter()
            .map(|r| r.tuple.get(0).as_int().expect("int value"))
            .collect()
    };
    let latest = || engine.with_db(|db| db.telemetry().latest_tablestat("people", "rows"));
    assert_eq!(people_rows(r#"as of "01/01/78""#), [1], "the past is kept");
    assert_eq!(people_rows(""), Vec::<i64>::new(), "destroy ends the stats");
    assert_eq!(latest(), None);
    // The catalog's rollback view agrees: people existed as of 78.
    let then = engine
        .session()
        .query(r#"range of r is sys$relations retrieve (r.name) as of "01/01/78""#)
        .expect("sys$relations")
        .column_strings(0);
    assert_eq!(then, ["people"]);

    step(
        &engine,
        &clock,
        "02/01/80",
        "create people (name = str) as temporal",
    );
    assert_eq!(latest(), None, "a recreated relation starts unanalyzed");
    assert_eq!(people_rows(""), Vec::<i64>::new());
}

/// An engine over a durable database with one relation of each class,
/// an exporter started before recovery (as the CLI does), a slow log
/// admitting every statement, and one open network connection — so
/// every `sys$` relation an endpoint renders has rows.
struct Scraped {
    dir: PathBuf,
    clock: Arc<ManualClock>,
    engine: Arc<Engine>,
    exporter: chronos_obs::ObsServer,
    service: QueryServer,
    client: QueryClient,
}

fn scraped(name: &str) -> Scraped {
    let dir = temp_dir(name);
    let clock = Arc::new(ManualClock::new(d("01/01/80")));
    let obs = ObsBootstrap::new();
    let exporter = obs.serve("127.0.0.1:0").expect("serve");
    let db = Database::open_with_obs(&dir, clock.clone(), &obs).expect("open");
    db.set_slow_query_threshold_ns(0);
    let engine = Engine::start(db);
    let mut session = engine.session();
    session
        .run(
            "create s (name = str) as static
             create r (name = str) as rollback
             create h (name = str) as historical
             create t (name = str) as temporal",
        )
        .expect("create");
    clock.advance_to(d("02/01/80"));
    for rel in ["s", "r", "h", "t"] {
        session
            .run(&format!(r#"append to {rel} (name = "Merrie")"#))
            .expect("append");
    }
    let service = QueryServer::serve(Arc::clone(&engine), "127.0.0.1:0").expect("service");
    let mut client = QueryClient::connect(&service.addr().to_string()).expect("connect");
    assert!(client.execute("range of x is s").expect("execute").ok);
    let x = Scraped {
        dir,
        clock,
        engine,
        exporter,
        service,
        client,
    };
    x.settle();
    x
}

impl Scraped {
    /// Waits until the engine's instruments stop moving: the writer
    /// records a commit's ack after the caller already has its answer.
    /// (The service counts a response's bytes before sending it.)
    fn settle(&self) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut last = self.engine.stats().metrics;
        loop {
            std::thread::sleep(Duration::from_millis(20));
            let now = self.engine.stats().metrics;
            if now == last {
                return;
            }
            assert!(std::time::Instant::now() < deadline, "never settled");
            last = now;
        }
    }

    /// GETs `path`, which must answer 200 (and, but for `/metrics` and
    /// `/healthz`, with well-formed JSON).
    fn get(&self, path: &str) -> String {
        let (status, body) = http_get(&self.exporter.addr().to_string(), path).expect("GET");
        assert_eq!(status, 200, "{path}: {body}");
        if !matches!(path, "/metrics" | "/healthz") {
            validate_json(&body).unwrap_or_else(|e| panic!("{path}: {e}\n{body}"));
        }
        body
    }

    fn finish(self) {
        drop(self.client);
        self.service.shutdown();
        self.exporter.shutdown();
        drop(self.engine);
        std::fs::remove_dir_all(&self.dir).unwrap();
    }
}

/// Every attribute of `relation`, retrieved in TQuel straight over the
/// database (no session, so the read registers nothing), each row
/// rendered as a JSON object independently of the exporter's renderer.
fn retrieve_json(engine: &Engine, relation: &str, tail: &str) -> Vec<String> {
    use chronos_core::relation::Validity;
    use chronos_core::value::Value;
    use chronos_tquel::provider::RelationProvider;
    let names: Vec<String> = engine.with_db(|db| {
        let info = db.info(relation).expect("declared");
        let names = info
            .schema
            .attributes()
            .iter()
            .map(|a| a.name().to_string());
        names.collect()
    });
    let targets: Vec<String> = names.iter().map(|n| format!("v.{n}")).collect();
    let text = format!("retrieve ({}) {tail}", targets.join(", "));
    let Ok(chronos_tquel::ast::Statement::Retrieve(retrieve)) =
        chronos_tquel::parse_statement(&text)
    else {
        panic!("{text} does not parse");
    };
    let ranges = [("v".to_string(), relation.to_string())].into();
    let result = engine.with_db(|db| {
        let plan = chronos_tquel::analyze::analyze_retrieve(&retrieve, &ranges, db)
            .unwrap_or_else(|e| panic!("{text}: {e}"));
        chronos_tquel::exec::execute_plan(&plan, db).unwrap_or_else(|e| panic!("{text}: {e}"))
    });
    let ticks = |p: chronos_core::timepoint::TimePoint| {
        p.finite()
            .map_or("null".to_string(), |c| c.ticks().to_string())
    };
    let mut rows: Vec<String> = result
        .rows
        .iter()
        .map(|row| {
            let mut fields: Vec<String> = names
                .iter()
                .zip(row.tuple.values())
                .map(|(name, value)| match value {
                    Value::Int(v) => format!("\"{name}\": {v}"),
                    other => format!(
                        "\"{name}\": \"{}\"",
                        chronos_obs::events::escape_json(other.as_str().expect("str"))
                    ),
                })
                .collect();
            match row.validity {
                Some(Validity::Event(at)) => fields.push(format!("\"valid_at\": {}", at.ticks())),
                Some(Validity::Interval(p)) => panic!("no sys$ relation has intervals: {p}"),
                None => {}
            }
            if let Some(tx) = row.tx {
                fields.push(format!("\"tx_from\": {}", ticks(tx.start())));
                fields.push(format!("\"tx_to\": {}", ticks(tx.end())));
            }
            idle_blind(&format!("{{{}}}", fields.join(", ")))
        })
        .collect();
    rows.sort();
    rows
}

/// The rows of `relation` in a document body, each as its JSON text,
/// sorted.
fn body_rows(body: &str, relation: &str) -> Vec<String> {
    let key = format!("\"{relation}\": [");
    let start = body
        .find(&key)
        .unwrap_or_else(|| panic!("{relation} missing from {body}"))
        + key.len();
    let (mut rows, mut depth, mut row_start) = (Vec::new(), 0, 0);
    let (mut in_string, mut escaped) = (false, false);
    for (i, c) in body[start..].char_indices() {
        let at = start + i;
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' if depth == 0 => (row_start, depth) = (at, 1),
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    rows.push(idle_blind(&body[row_start..=at]));
                }
            }
            ']' if depth == 0 => {
                rows.sort();
                return rows;
            }
            _ => {}
        }
    }
    panic!("{relation} unterminated in {body}")
}

/// `idle_ns` is a clock reading: it moves between any two reads of a
/// live session, so the comparison blinds it.
fn idle_blind(row: &str) -> String {
    match row.find("\"idle_ns\": ") {
        Some(at) => {
            let digits = row[at + 11..].find(|c: char| !c.is_ascii_digit()).unwrap();
            format!("{}\"idle_ns\": _{}", &row[..at], &row[at + 11 + digits..])
        }
        None => row.to_string(),
    }
}

/// Each JSON endpoint is the rows of its `sys$` relation(s): its body
/// equals a TQuel retrieve of every attribute, right after open and
/// again after two more commits.  Each check GETs the endpoints first,
/// then takes a sample — `/stats` is the engine's statistics now, which
/// a sample taken now records into `sys$stats` — and reads `/history`
/// (the sampled window) after it.  No sample runs between the commits
/// and the second check's GETs, so a `/wal` or `/storage` document
/// cached at the last sample would show the old frames and sizes.
#[test]
fn every_endpoint_renders_its_system_relation() {
    let x = scraped("every-endpoint");
    for check in 0..2 {
        if check == 1 {
            x.clock.advance_to(d("03/01/80"));
            for name in ["Tom", "Jane"] {
                x.engine
                    .session()
                    .run(&format!(r#"append to t (name = "{name}")"#))
                    .expect("commit");
            }
            x.settle();
        }
        let endpoints: [(&str, &[&str]); 7] = [
            ("/stats", &["sys$stats"]),
            ("/slow", &["sys$slow"]),
            ("/queries", &["sys$queries"]),
            ("/sessions", &["sys$sessions", "sys$connections"]),
            ("/events", &["sys$events"]),
            ("/wal", &["sys$wal"]),
            ("/storage", &["sys$pages"]),
        ];
        let mut read: Vec<(&str, &[&str], &str, String)> = endpoints
            .iter()
            .map(|&(path, relations)| (path, relations, "", x.get(path)))
            .collect();
        x.engine.with_db(Database::sample_now);
        read.push((
            "/history",
            &["sys$stats"],
            r#"where v.metric = "commits" as of "01/01/80" through "01/01/99""#,
            x.get("/history?metric=commits&n=1000"),
        ));
        for (path, relations, tail, body) in &read {
            for relation in relations.iter() {
                let rows = body_rows(body, relation);
                assert!(
                    !rows.is_empty(),
                    "check {check}: {path} has no {relation} rows"
                );
                assert_eq!(
                    rows,
                    retrieve_json(&x.engine, relation, tail),
                    "check {check}: {path} is not {relation}"
                );
            }
        }
        // Two commits later, the live WAL has two more frames.
        assert!(
            read[5].3.contains(&format!(
                "\"stat\": \"frames\", \"value\": {},",
                4 + 2 * check
            )),
            "check {check}: {}",
            read[5].3
        );
    }
    x.finish();
}

/// Every counter of the registry's declared table, by name.
fn counters(metrics: &MetricsSnapshot) -> Vec<(&'static str, u64)> {
    metrics
        .metrics()
        .into_iter()
        .filter_map(|m| match m.reading {
            Reading::Counter(v) => Some((m.name, v)),
            _ => None,
        })
        .collect()
}

/// `/metrics` carries every `sys$stats` metric: a plain one as the
/// family of its own name, a histogram's `_samples`, `_total` and
/// `_pNN` rows under the histogram's family.
#[test]
fn metrics_names_every_sys_stats_metric() {
    let x = scraped("metrics-covers-stats");
    let stats = x.get("/stats");
    let names: Vec<&str> = stats
        .split("\"metric\": \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("closing quote")])
        .collect();
    assert!(names.contains(&"journal_max_bytes"), "{stats}");
    let scrape = x.get("/metrics");
    let family = |name: &str| {
        let prefix = format!("# TYPE chronos_{name} ");
        scrape.lines().find_map(|l| l.strip_prefix(&prefix))
    };
    let histogram_row = |name: &str| {
        let stem = name.strip_suffix("_ns").unwrap_or(name);
        ["_samples", "_total", "_p50", "_p99", "_p999"]
            .iter()
            .filter_map(|row| stem.strip_suffix(row))
            .any(|base| {
                [base.to_string(), format!("{base}_ns")]
                    .iter()
                    .any(|f| family(f) == Some("histogram"))
            })
    };
    let missing: Vec<&str> = names
        .iter()
        .copied()
        .filter(|name| family(name).is_none() && !histogram_row(name))
        .collect();
    assert!(missing.is_empty(), "/metrics lacks {missing:?}:\n{scrape}");
    let helps = scrape.lines().filter(|l| l.starts_with("# HELP ")).count();
    let types = scrape.lines().filter(|l| l.starts_with("# TYPE ")).count();
    assert_eq!(helps, types, "a family without its help line:\n{scrape}");
    x.finish();
}

/// A scrape only reads: GETting every endpoint twice opens no session,
/// records no span and no read-lock wait, and moves no counter.
#[test]
fn a_scrape_has_no_side_effects() {
    let x = scraped("no-side-effects");
    let observed = || {
        let stats = x.engine.stats();
        let sessions: Vec<u64> = x
            .engine
            .session_registry()
            .sessions()
            .iter()
            .map(|s| s.session_id)
            .collect();
        (
            sessions,
            stats.metrics.read_lock_wait.samples,
            counters(&stats.metrics),
        )
    };
    let before = observed();
    let recorder = x.engine.recorder();
    let snapshot = recorder.snapshot();
    recorder.begin_trace();
    for _ in 0..2 {
        for path in [
            "/metrics",
            "/stats",
            "/slow",
            "/queries",
            "/sessions",
            "/events",
            "/history?metric=commits",
            "/wal",
            "/storage",
            "/healthz",
            "/readyz",
        ] {
            x.get(path);
        }
    }
    let spans = recorder.end_trace(&snapshot).expect("capture active").spans;
    let after = observed();
    assert_eq!(before.0, after.0, "a scrape registered a session");
    assert_eq!(before.1, after.1, "a scrape waited on the read lock");
    assert_eq!(before.2, after.2, "a scrape moved a counter");
    assert!(spans.is_empty(), "a scrape recorded spans: {spans:?}");
    x.finish();
}
