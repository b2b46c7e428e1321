//! Observability end-to-end: `explain`/`profile` must name the access
//! path the engine *actually* took (not a guess re-derived from the
//! plan), and the metrics registry must lose nothing when the work is
//! spread across scan threads.

use std::sync::Arc;

use chronos_bench::workload::{generate, WorkloadSpec};
use chronos_core::calendar::date;
use chronos_core::clock::ManualClock;
use chronos_core::prelude::*;
use chronos_db::introspect::flatten_stats;
use chronos_db::{Database, Engine, ExecOutcome};
use chronos_obs::Recorder;
use chronos_storage::table::StoredBitemporalTable;

fn step(engine: &Arc<Engine>, clock: &Arc<ManualClock>, day: &str, stmt: &str) {
    clock.advance_to(date(day).expect("valid date"));
    engine
        .session()
        .run(stmt)
        .unwrap_or_else(|e| panic!("{stmt}: {e}"));
}

/// The paper's Figure 8 faculty history, built through TQuel.
fn figure8_db() -> (Arc<Engine>, Arc<ManualClock>) {
    let clock = Arc::new(ManualClock::new(date("08/25/77").expect("valid")));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    engine
        .session()
        .run("create faculty (name = str, rank = str) as temporal")
        .expect("create");
    step(
        &engine,
        &clock,
        "08/25/77",
        r#"append to faculty (name = "Merrie", rank = "associate")
           valid from "09/01/77" to forever"#,
    );
    step(
        &engine,
        &clock,
        "12/01/82",
        r#"append to faculty (name = "Tom", rank = "full")
           valid from "12/05/82" to forever"#,
    );
    step(
        &engine,
        &clock,
        "12/07/82",
        r#"range of f is faculty
           replace f (rank = "associate") valid from "12/05/82" to forever
           where f.name = "Tom""#,
    );
    step(
        &engine,
        &clock,
        "12/15/82",
        r#"range of f is faculty
           replace f (rank = "full") valid from "12/01/82" to forever
           where f.name = "Merrie""#,
    );
    (engine, clock)
}

#[test]
fn profile_names_the_access_path_for_a_figure8_rollback_query() {
    let (engine, _clock) = figure8_db();
    let before = engine.stats();
    let outcomes = engine
        .session()
        .run(
            r#"range of f is faculty
               profile select (f.rank) where f.name = "Tom" as of "12/10/82""#,
        )
        .expect("profile runs");
    let report = match &outcomes[1] {
        ExecOutcome::Explained {
            profile: true,
            report,
        } => report.clone(),
        other => panic!("expected a profile report, got {other:?}"),
    };
    // The span tree covers every layer of the query.
    for needle in ["tquel/parse", "tquel/analyze", "tquel/exec", "db/scan"] {
        assert!(report.contains(needle), "missing {needle} in:\n{report}");
    }
    // The keyed rollback read was answered by the key index — the
    // report names the path the storage layer took, and the key.
    assert!(
        report.contains("storage/asof") && report.contains("key index"),
        "access path not named in:\n{report}"
    );
    assert!(
        report.contains(r#"f over faculty [key name = "Tom"]"#),
        "key not named in:\n{report}"
    );
    assert!(
        report.contains("counters:"),
        "counter line missing:\n{report}"
    );

    // The report's counters and the registry agree: the traced query
    // advanced the same global counters engine_stats() snapshots.
    let after = engine.stats();
    assert!(
        after.metrics.index_probes > before.metrics.index_probes,
        "profile reported a probe but index_probes did not advance"
    );

    // Both exposition formats carry the instrument.
    let prom = after.to_prometheus();
    assert!(prom.contains("chronos_index_probes"));
    assert!(prom.contains("chronos_commit_latency_ns"));
    assert!(flatten_stats(&after)
        .iter()
        .any(|(name, _)| name == "index_probes"));
}

#[test]
fn explain_omits_timings_but_keeps_the_span_tree() {
    let (engine, _clock) = figure8_db();
    let outcomes = engine
        .session()
        .run(
            r#"range of f is faculty
               explain retrieve (f.rank) where f.name = "Merrie""#,
        )
        .expect("explain runs");
    match &outcomes[1] {
        ExecOutcome::Explained {
            profile: false,
            report,
        } => {
            assert!(
                report.contains("tquel/exec"),
                "span tree missing:\n{report}"
            );
            // A session reads a temporal relation as of its snapshot
            // pin: the storage span is the transaction-time index stab.
            assert!(
                report.contains("storage/asof"),
                "span tree missing:\n{report}"
            );
        }
        other => panic!("expected an explain report, got {other:?}"),
    }
}

/// The `explain` report of one statement over two `faculty` variables.
fn explain_two_vars(engine: &Arc<Engine>, retrieve: &str) -> String {
    let outcomes = engine
        .session()
        .run(&format!(
            "range of f1 is faculty\nrange of f2 is faculty\nexplain {retrieve}"
        ))
        .expect("explain runs");
    match &outcomes[2] {
        ExecOutcome::Explained {
            profile: false,
            report,
        } => report.clone(),
        other => panic!("expected an explain report, got {other:?}"),
    }
}

/// The `tquel/filter` lines of a report, each checked to sit directly
/// under its `tquel/scan` and to keep no more than that scan's rows (a
/// keyed scan already returns only its key's rows).
fn filter_lines(report: &str) -> Vec<&str> {
    let count = |line: &str, key: &str| -> u64 {
        let at = line
            .find(key)
            .unwrap_or_else(|| panic!("no {key} in {line}"));
        let digits: String = line[at + key.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect();
        digits.parse().expect("a row count")
    };
    let indent = |line: &str| line.len() - line.trim_start().len();
    let lines: Vec<&str> = report.lines().collect();
    let mut filters = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if !line.contains("tquel/filter") {
            continue;
        }
        let scan = lines[..i]
            .iter()
            .rev()
            .find(|l| l.contains("tquel/scan"))
            .expect("a filter follows its scan");
        assert_eq!(
            indent(line),
            indent(scan) + 2,
            "not under its scan:\n{report}"
        );
        assert_eq!(
            count(line, "rows_in="),
            count(scan, "rows_out="),
            "{report}"
        );
        assert!(
            count(line, "rows_out=") <= count(line, "rows_in="),
            "{report}"
        );
        filters.push(*line);
    }
    filters
}

#[test]
fn explain_names_the_conjuncts_pushed_to_each_variable() {
    let (engine, _clock) = figure8_db();
    // The paper's §4.4 query: each variable keeps its own name test.
    let report = explain_two_vars(
        &engine,
        r#"retrieve (f1.rank) where f1.name = "Merrie" and f2.name = "Tom"
           when f1 overlap start of f2"#,
    );
    let filters = filter_lines(&report);
    assert_eq!(filters.len(), 2, "{report}");
    assert!(
        filters[0].contains(r#"[where f1.name = "Merrie"]"#),
        "{report}"
    );
    assert!(
        filters[1].contains(r#"[where f2.name = "Tom"]"#),
        "{report}"
    );
    // Each variable's relation was read by its key: the scans name it.
    for scan in [
        r#"f1 over faculty [key name = "Merrie"]"#,
        r#"f2 over faculty [key name = "Tom"]"#,
    ] {
        assert!(report.contains(scan), "{scan} missing:\n{report}");
    }

    // An equi-join: f2's constant equality is derived from f1's.
    let report = explain_two_vars(
        &engine,
        r#"retrieve (f1.rank, r2 = f2.rank) where f1.name = f2.name and f1.name = "Tom"
           when f1 overlap f2"#,
    );
    let filters = filter_lines(&report);
    assert_eq!(filters.len(), 2, "{report}");
    assert!(
        filters[0].contains(r#"[where f1.name = "Tom"]"#),
        "{report}"
    );
    assert!(
        filters[1].contains(r#"[where f2.name = "Tom"]"#),
        "{report}"
    );
    // The derived constant is f2's key too.
    assert!(
        report.contains(r#"f2 over faculty [key name = "Tom"]"#),
        "{report}"
    );
    // The join conjunct spans both variables and is pushed to neither.
    assert!(!report.contains("f1.name = f2.name"), "{report}");
}

fn built_table(transactions: usize, seed: u64) -> StoredBitemporalTable {
    let w = generate(&WorkloadSpec {
        entities: (transactions / 4).max(8),
        transactions,
        ops_per_tx: 2,
        correction_pct: 25,
        seed,
    });
    let mut table = StoredBitemporalTable::in_memory(w.schema.clone(), TemporalSignature::Interval);
    for tx in &w.transactions {
        table.try_commit(tx.tx_time, &tx.ops).expect("valid");
    }
    table
}

#[test]
fn rollback_reads_the_past_by_one_tx_index_stab() {
    let mut table = built_table(64, 11);
    let recorder = Arc::new(Recorder::new());
    table.set_recorder(Arc::clone(&recorder));
    let late = table.last_commit().expect("nonempty");
    let before = recorder.snapshot();
    recorder.begin_trace();
    table.try_rollback(late).expect("rollback");
    let report = recorder.end_trace(&before).expect("capture active");
    report
        .span_named("storage/rollback")
        .expect("span recorded");
    let read = report.span_named("storage/asof").expect("span recorded");
    assert!(read.detail.contains("tx-index stab"), "{}", read.detail);
    assert_eq!(report.delta.index_probes, 1);
}

#[test]
fn engine_stats_tracks_commits() {
    let (engine, _clock) = figure8_db();
    let stats = engine.stats();
    // Four committing statements built Figure 8.
    assert_eq!(stats.metrics.commits, 4);
    assert_eq!(stats.metrics.commit_latency.samples, 4);
}

/// Concurrent writer sessions on a durable engine feed every
/// commit-stage histogram and the writer-queue gauge, a read feeds the
/// read-lock timer, `/metrics` answers while they commit, and a
/// disabled-recorder twin running the same writes records nothing at
/// all.
#[test]
fn concurrent_writes_feed_every_commit_stage_and_a_disabled_twin_stays_zero() {
    const WRITERS: usize = 4;
    const COMMITS_EACH: usize = 10;
    let root = std::env::temp_dir().join(format!("chronos-obs-stages-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let write_rounds = |engine: &Arc<Engine>, scrape: Option<&str>| {
        let barrier = std::sync::Barrier::new(WRITERS);
        let (committed_tx, committed_rx) = std::sync::mpsc::channel();
        let (scraped_tx, scraped_rx) = std::sync::mpsc::channel::<()>();
        let mut scraped_rx = Some(scraped_rx);
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let (barrier, engine) = (&barrier, Arc::clone(engine));
                let handshake = scraped_rx
                    .take()
                    .map(|scraped| (committed_tx.clone(), scraped));
                s.spawn(move || {
                    let mut session = engine.session();
                    barrier.wait();
                    for j in 0..COMMITS_EACH {
                        session
                            .run(&format!(r#"append to log (name = "w{w}c{j:02}")"#))
                            .expect("writer append");
                        // Writer 0 pauses after its first commit until
                        // the scrape is done, so the scrape lands
                        // between commits.
                        if let (0, Some((committed, scraped))) = (j, &handshake) {
                            committed.send(()).expect("main thread listens");
                            scraped.recv().expect("main thread answers");
                        }
                    }
                });
            }
            committed_rx.recv().expect("writer 0 committed");
            if let Some(addr) = scrape {
                let (status, body) = chronos_obs::http_get(addr, "/metrics").expect("GET /metrics");
                assert_eq!(status, 200, "{body}");
                assert!(body.contains("chronos_commits "), "{body}");
            }
            scraped_tx.send(()).expect("writer 0 waits");
        });
    };
    let open = |name: &str, obs: &chronos_db::ObsBootstrap| {
        let clock = Arc::new(ManualClock::new(date("01/01/80").expect("valid")));
        let db = Database::open_with_obs(&root.join(name), clock, obs).expect("open");
        let engine = Engine::start(db);
        engine
            .session()
            .run("create log (name = str) as temporal")
            .expect("create");
        engine
    };

    let on = open("on", &chronos_db::ObsBootstrap::new());
    let server = on
        .with_db(|db| db.serve_observability("127.0.0.1:0"))
        .expect("serve");
    write_rounds(&on, Some(&server.addr().to_string()));
    server.shutdown();
    on.session()
        .query("range of l is log retrieve (l.name)")
        .expect("read back");
    let m = on.stats().metrics;
    assert_eq!(m.commits, (WRITERS * COMMITS_EACH) as u64);
    assert!(
        m.commit_queue_hwm > 0,
        "the writer queue never held a commit"
    );
    for (stage, h) in [
        ("commit_queue_wait", &m.commit_queue_wait),
        ("commit_lock_wait", &m.commit_lock_wait),
        ("commit_apply", &m.commit_apply),
        ("commit_fsync", &m.commit_fsync),
        ("commit_ack", &m.commit_ack),
        ("read_lock_wait", &m.read_lock_wait),
    ] {
        assert!(h.samples > 0, "stage {stage} recorded no samples");
    }

    let off = open("off", &chronos_db::ObsBootstrap::disabled());
    write_rounds(&off, None);
    assert_eq!(
        off.session()
            .query("range of l is log retrieve (l.name)")
            .expect("read back")
            .len(),
        WRITERS * COMMITS_EACH,
        "the twin lost a write"
    );
    assert!(
        off.stats().metrics.is_zero(),
        "the disabled twin recorded metrics"
    );
    assert!(
        off.recorder().fingerprints().is_empty(),
        "the disabled twin recorded fingerprints"
    );
    drop((on, off));
    let _ = std::fs::remove_dir_all(&root);
}
