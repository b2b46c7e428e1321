//! Concurrency: append-only transaction time makes past states immune
//! to concurrent writers — readers of a rolled-back state see a stable
//! snapshot no matter how many commits land meanwhile.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use chronos_core::chronon::Chronon;
use chronos_core::clock::ManualClock;
use chronos_core::period::Period;
use chronos_core::prelude::*;
use chronos_core::schema::faculty_schema;
use chronos_storage::table::StoredBitemporalTable;
use chronos_storage::txn::TxnManager;
use parking_lot::RwLock;

#[test]
fn txn_manager_is_race_free() {
    let clock = Arc::new(ManualClock::new(Chronon::new(0)));
    let mgr = Arc::new(TxnManager::new(clock));
    let mut all = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let mgr = Arc::clone(&mgr);
                s.spawn(move || (0..500).map(|_| mgr.next_commit_time()).collect::<Vec<_>>())
            })
            .collect();
        for h in handles {
            all.extend(h.join().unwrap());
        }
    });
    let n = all.len();
    all.sort();
    all.dedup();
    assert_eq!(all.len(), n, "commit times are unique under contention");
}

#[test]
fn readers_see_stable_past_states_during_writes() {
    let table = Arc::new(RwLock::new(StoredBitemporalTable::in_memory(
        faculty_schema(),
        TemporalSignature::Interval,
    )));
    // Seed some history.
    {
        let mut t = table.write();
        for i in 0..50i64 {
            t.try_commit(
                Chronon::new(i),
                &[HistoricalOp::insert(
                    tuple([format!("prof{i:03}").as_str(), "assistant"]),
                    Validity::Interval(Period::from_start(Chronon::new(i))),
                )],
            )
            .expect("valid");
        }
    }
    let frozen_at = Chronon::new(25);
    let expected = table.read().rollback(frozen_at);
    let stop = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        // Writer: keeps committing new facts and corrections.
        {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                for i in 50..250i64 {
                    let mut t = table.write();
                    t.try_commit(
                        Chronon::new(i),
                        &[HistoricalOp::insert(
                            tuple([format!("prof{i:03}").as_str(), "associate"]),
                            Validity::Interval(Period::from_start(Chronon::new(i))),
                        )],
                    )
                    .expect("valid");
                }
                stop.store(true, Ordering::SeqCst);
            });
        }
        // Readers: repeatedly roll back to the frozen instant.
        for _ in 0..4 {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            let expected = expected.clone();
            s.spawn(move || {
                let mut checks = 0u32;
                while !stop.load(Ordering::SeqCst) || checks == 0 {
                    let got = table.read().rollback(frozen_at);
                    assert_eq!(got, expected, "past state changed under a writer");
                    checks += 1;
                }
                assert!(checks > 0);
            });
        }
    });

    // After all writes, the past is still the past.
    assert_eq!(table.read().rollback(frozen_at), expected);
    assert_eq!(table.read().transactions(), 250);
}

#[test]
fn pinned_engine_reader_sees_stable_slice_across_commits() {
    let clock = Arc::new(ManualClock::new(Chronon::new(0)));
    let db = chronos_db::Database::in_memory(clock);
    let engine = chronos_db::Engine::start(db);
    {
        let mut s = engine.session();
        s.run("create faculty (name = str, rank = str) as temporal")
            .expect("create");
        for i in 0..10 {
            s.run(&format!(
                r#"append to faculty (name = "seed{i:02}", rank = "assistant")"#
            ))
            .expect("seed append");
        }
    }
    // Pin a reader at the 10-row snapshot, then hammer the engine with
    // concurrent writer sessions; the pinned slice must not move.
    let mut reader = engine.session();
    let query = "range of f is faculty retrieve (f.name, f.rank)";
    let baseline = reader.query(query).expect("baseline");
    assert_eq!(baseline.rows.len(), 10);
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for w in 0..4 {
            let engine = Arc::clone(&engine);
            s.spawn(move || {
                let mut session = engine.session();
                for j in 0..25 {
                    session
                        .run(&format!(
                            r#"append to faculty (name = "w{w}x{j:02}", rank = "associate")"#
                        ))
                        .expect("writer append");
                }
            });
        }
        {
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut checks = 0u32;
                while !stop.load(Ordering::SeqCst) || checks == 0 {
                    let got = reader.query(query).expect("pinned query");
                    assert_eq!(got, baseline, "pinned snapshot changed under writers");
                    checks += 1;
                }
                // After the writers drain, refreshing the pin reveals
                // every committed row.
                reader.refresh();
                let fresh = reader.query(query).expect("refreshed query");
                assert_eq!(fresh.rows.len(), 110);
            });
        }
        // The writer spawns above joined implicitly at scope end would
        // leave the reader spinning; signal it once they finish.
        let engine2 = Arc::clone(&engine);
        let stop = Arc::clone(&stop);
        s.spawn(move || loop {
            let commits = engine2.stats().metrics.commits;
            if commits >= 110 {
                stop.store(true, Ordering::SeqCst);
                break;
            }
            std::thread::yield_now();
        });
    });
    engine.shutdown();
}

#[test]
fn engine_sessions_read_their_own_writes_monotonically() {
    let clock = Arc::new(ManualClock::new(Chronon::new(0)));
    let db = chronos_db::Database::in_memory(clock);
    let engine = chronos_db::Engine::start(db);
    engine
        .session()
        .run("create faculty (name = str, rank = str) as temporal")
        .expect("create");
    let query = "range of f is faculty retrieve (f.name)";
    let mut a = engine.session();
    let mut b = engine.session();
    let pin_a0 = a.pin();
    a.run(r#"append to faculty (name = "Merrie", rank = "full")"#)
        .expect("a's append");
    // Read-your-writes: a's pin advanced with its own commit.
    assert!(a.pin() > pin_a0, "own commit must advance the pin");
    assert_eq!(a.query(query).expect("a reads").rows.len(), 1);
    // b is still pinned before a's commit and must not see it...
    assert_eq!(b.query(query).expect("b reads").rows.len(), 0);
    // ...until b commits itself (its pin jumps past a's commit time)...
    b.run(r#"append to faculty (name = "Tom", rank = "assistant")"#)
        .expect("b's append");
    assert_eq!(b.query(query).expect("b re-reads").rows.len(), 2);
    // ...or an explicit refresh catches a up to the durable watermark.
    let pin_a1 = a.pin();
    a.refresh();
    assert!(a.pin() >= pin_a1, "refresh never moves the pin backwards");
    assert_eq!(a.query(query).expect("a refreshed").rows.len(), 2);
    engine.shutdown();
}

#[test]
fn concurrent_bitemporal_point_queries_agree_with_serial() {
    let mut t = StoredBitemporalTable::in_memory(faculty_schema(), TemporalSignature::Interval);
    for i in 0..100i64 {
        t.try_commit(
            Chronon::new(i),
            &[HistoricalOp::insert(
                tuple([format!("p{i:03}").as_str(), "r"]),
                Validity::Interval(
                    Period::new(Chronon::new(i), Chronon::new(i + 40)).expect("fwd"),
                ),
            )],
        )
        .expect("valid");
    }
    let t = Arc::new(t);
    // Serial answers.
    let serial: Vec<usize> = (0..100i64)
        .map(|v| {
            t.valid_at_as_of(Chronon::new(v), Chronon::new(99))
                .unwrap()
                .len()
        })
        .collect();
    // The same queries from many threads (read-only sharing).
    std::thread::scope(|s| {
        for chunk in 0..4 {
            let t = Arc::clone(&t);
            let serial = serial.clone();
            s.spawn(move || {
                for v in (chunk..100).step_by(4) {
                    let got = t
                        .valid_at_as_of(Chronon::new(v as i64), Chronon::new(99))
                        .unwrap()
                        .len();
                    assert_eq!(got, serial[v], "divergence at valid={v}");
                }
            });
        }
    });
}
