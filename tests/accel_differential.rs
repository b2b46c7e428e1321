//! Differential properties of the acceleration layer: rollback through
//! the transaction-time index and frozen segments, morsel-driven
//! parallel scans, and the bitemporal query cache must all be
//! *observationally invisible* —
//! byte-identical answers to the reference paths on every generated
//! history, at every probe time.

use chronos_bench::workload::{self, generate, WorkloadSpec};
use chronos_core::chronon::Chronon;
use chronos_core::clock::ManualClock;
use chronos_core::prelude::*;
use chronos_core::relation::StaticOp;
use chronos_db::{Database, Engine};
use chronos_storage::table::StoredBitemporalTable;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (2usize..30, 5usize..60, 1usize..4, 0u32..60, any::<u64>()).prop_map(
        |(entities, transactions, ops_per_tx, correction_pct, seed)| WorkloadSpec {
            entities,
            transactions,
            ops_per_tx,
            correction_pct,
            seed,
        },
    )
}

/// A random static-op history (for the core rollback stores): inserts,
/// deletes, and replaces kept valid against a shadow presence map.
fn static_history(seed: u64, entities: usize, transactions: usize) -> Vec<(Chronon, StaticOp)> {
    let tuples = workload::entity_tuples(entities);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut present = vec![false; entities];
    let mut out = Vec::with_capacity(transactions);
    for i in 0..transactions {
        let idx = rng.gen_range(0..entities);
        let op = if present[idx] {
            if rng.gen_bool(0.5) {
                present[idx] = false;
                StaticOp::Delete(tuples[idx].clone())
            } else {
                // Replace with itself is rejected by the static store;
                // swap to a neighbouring absent entity when possible.
                match (0..entities).find(|&j| !present[j]) {
                    Some(j) => {
                        present[idx] = false;
                        present[j] = true;
                        StaticOp::Replace {
                            old: tuples[idx].clone(),
                            new: tuples[j].clone(),
                        }
                    }
                    None => {
                        present[idx] = false;
                        StaticOp::Delete(tuples[idx].clone())
                    }
                }
            }
        } else {
            present[idx] = true;
            StaticOp::Insert(tuples[idx].clone())
        };
        out.push((Chronon::new(1000 + i as i64), op));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Equivalence at the core layer: the snapshot cube and the
    /// tuple-timestamped store agree on `rollback(t)` at, just before,
    /// and just after every commit time.
    #[test]
    fn both_rollback_encodings_agree(
        seed in any::<u64>(),
        entities in 2usize..20,
        transactions in 1usize..80,
    ) {
        let history = static_history(seed, entities, transactions);
        let schema = chronos_core::schema::faculty_schema();
        let mut cube = SnapshotRollback::new(schema.clone());
        let mut ts = TimestampedRollback::new(schema);
        for (t, op) in &history {
            cube.commit(*t, std::slice::from_ref(op)).expect("cube");
            ts.commit(*t, std::slice::from_ref(op)).expect("ts");
        }
        prop_assert_eq!(cube.stored_tuples() > 0, transactions > 0);
        for (t, _) in &history {
            for probe in [t.pred(), *t, t.succ()] {
                prop_assert_eq!(
                    &cube.rollback(probe),
                    &ts.rollback(probe),
                    "timestamped diverges at {}", probe
                );
            }
        }
        // The borrowed accessor sees the same state the trait clones.
        prop_assert_eq!(cube.current_ref(), Some(&ts.current()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Storage layer: rollback through the transaction-time index
    /// agrees with the in-memory reference table — on a table whose
    /// history is all on the heap, and on its twin that froze its closed
    /// versions into a segment part-way through.
    #[test]
    fn stored_rollback_paths_agree(spec in arb_spec(), freeze_after in 0usize..60) {
        let w = generate(&spec);
        let mut reference = BitemporalTable::new(w.schema.clone(), TemporalSignature::Interval);
        let mut heap_only =
            StoredBitemporalTable::in_memory(w.schema.clone(), TemporalSignature::Interval);
        let mut frozen =
            StoredBitemporalTable::in_memory(w.schema.clone(), TemporalSignature::Interval);
        let segment = std::env::temp_dir().join(format!(
            "chronos-accel-{}-{}-{freeze_after}.seg",
            std::process::id(),
            spec.seed
        ));
        let mut commits = Vec::new();
        for (i, tx) in w.transactions.iter().enumerate() {
            reference.commit(tx.tx_time, &tx.ops).expect("valid");
            heap_only.try_commit(tx.tx_time, &tx.ops).expect("valid");
            frozen.try_commit(tx.tx_time, &tx.ops).expect("valid");
            commits.push(tx.tx_time);
            if i == freeze_after % w.transactions.len() {
                frozen.freeze_into(&segment).expect("freeze");
            }
        }
        for &ct in commits.iter().step_by(2) {
            for probe in [ct.pred(), ct, ct.succ()] {
                let expect = reference.rollback(probe);
                prop_assert_eq!(
                    &expect,
                    &heap_only.try_rollback(probe).expect("ok"),
                    "heap diverges at {}", probe
                );
                prop_assert_eq!(
                    &expect,
                    &frozen.try_rollback(probe).expect("ok"),
                    "frozen twin diverges at {}", probe
                );
                prop_assert_eq!(&expect, &frozen.rollback(probe));
            }
        }
        drop(frozen);
        let _ = std::fs::remove_file(&segment);
    }

    /// Parallel scans return byte-identical output (same rows, same
    /// order) as the sequential paths, across full scans and every
    /// index-probe materialization.
    #[test]
    fn parallel_scans_are_invisible(spec in arb_spec()) {
        let w = generate(&spec);
        let mut seq =
            StoredBitemporalTable::in_memory(w.schema.clone(), TemporalSignature::Interval);
        let mut par =
            StoredBitemporalTable::in_memory(w.schema.clone(), TemporalSignature::Interval);
        par.set_parallel_threshold(0); // every scan takes the morsel path
        for tx in &w.transactions {
            seq.try_commit(tx.tx_time, &tx.ops).expect("valid");
            par.try_commit(tx.tx_time, &tx.ops).expect("valid");
        }
        prop_assert_eq!(seq.scan_rows_sequential().expect("ok"), par.scan_rows().expect("ok"));
        prop_assert_eq!(
            par.scan_rows_sequential().expect("ok"),
            par.scan_rows_parallel().expect("ok")
        );
        for probe in [Chronon::new(995), Chronon::new(1015), Chronon::new(1080)] {
            prop_assert_eq!(
                seq.rows_at(probe).expect("ok"),
                par.rows_at(probe).expect("ok")
            );
            prop_assert_eq!(
                seq.current_valid_at(probe).expect("ok"),
                par.current_valid_at(probe).expect("ok")
            );
            prop_assert_eq!(
                seq.valid_at_as_of(Chronon::new(990), probe).expect("ok"),
                par.valid_at_as_of(Chronon::new(990), probe).expect("ok")
            );
        }
        let window = Period::new(Chronon::new(1000), Chronon::new(1050)).expect("window");
        prop_assert_eq!(
            seq.rows_during(window).expect("ok"),
            par.rows_during(window).expect("ok")
        );
        prop_assert_eq!(
            seq.current_overlapping(window).expect("ok"),
            par.current_overlapping(window).expect("ok")
        );
    }

    /// The query cache is transparent: a database answering retrieves
    /// through the cache gives the same results as one with the cache
    /// disabled, across interleaved appends (which must invalidate) and
    /// repeated probes at current and historical coordinates.
    #[test]
    fn query_cache_is_transparent(
        seed in any::<u64>(),
        rounds in 1usize..5,
        appends_per_round in 1usize..6,
    ) {
        let mk = |capacity: usize| {
            let clock = std::sync::Arc::new(ManualClock::new(Chronon::new(900)));
            let mut db = Database::in_memory(clock.clone());
            db.set_cache_capacity(capacity);
            let engine = Engine::start(db);
            engine.session()
                .run("create faculty (name = str, rank = str) as temporal")
                .expect("create");
            (clock, engine)
        };
        let (clock_a, cached) = mk(8);
        let (clock_b, uncached) = mk(0);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut appended = 0usize;
        for _ in 0..rounds {
            for _ in 0..appends_per_round {
                let stmt = format!(
                    r#"append to faculty (name = "prof{appended:05}", rank = "assistant")"#
                );
                clock_a.tick(1);
                clock_b.tick(1);
                cached.session().run(&stmt).expect("append cached");
                uncached.session().run(&stmt).expect("append uncached");
                appended += 1;
            }
            // Probe current state and a random historical coordinate,
            // twice each so the second cached probe is a genuine hit.
            let as_of = chronos_core::calendar::Date::from_chronon(
                Chronon::new(900 + rng.gen_range(0..(appended as i64 + 1))),
            );
            let queries = [
                "range of f is faculty retrieve (f.rank) sorted".to_string(),
                format!(r#"range of f is faculty retrieve (f.name) as of "{as_of}""#),
            ];
            for q in &queries {
                for _ in 0..2 {
                    let a = cached.session().query(q);
                    let b = uncached.session().query(q);
                    match (a, b) {
                        (Ok(a), Ok(b)) => prop_assert_eq!(a.rows, b.rows, "diverged on {}", q),
                        (Err(_), Err(_)) => {}
                        (a, b) => prop_assert!(
                            false,
                            "one side errored on {}: cached={:?} uncached={:?}",
                            q, a.is_ok(), b.is_ok()
                        ),
                    }
                }
            }
        }
        // The cached database actually cached something.
        let stats = cached.stats().cache;
        prop_assert!(stats.hits > 0, "no cache hits in {} rounds", rounds);
        prop_assert_eq!(uncached.stats().cache.hits, 0);
    }
}
