//! Cross-crate differential properties: the conceptual snapshot stores,
//! the in-memory tuple-timestamped stores, and the storage-backed,
//! index-accelerated table must be observationally equivalent on every
//! generated history; algebra transformations must preserve query
//! answers.

use chronos_algebra::coalesce::{coalesce, is_coalesced};
use chronos_algebra::temporal::{bitemporal_slice, rollback_temporal, timeslice};
use chronos_bench::workload::{generate, WorkloadSpec};
use chronos_core::chronon::Chronon;
use chronos_core::prelude::*;
use chronos_storage::table::{StoredBitemporalTable, Superseded};
use chronos_storage::wal::{Wal, WalRecord};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn three_temporal_implementations_agree(spec in arb_spec()) {
        let w = generate(&spec);
        let mut cube = SnapshotTemporal::new(w.schema.clone(), TemporalSignature::Interval);
        let mut table = BitemporalTable::new(w.schema.clone(), TemporalSignature::Interval);
        let mut stored = StoredBitemporalTable::in_memory(w.schema.clone(), TemporalSignature::Interval);
        let mut commits = Vec::new();
        for tx in &w.transactions {
            cube.commit(tx.tx_time, &tx.ops).expect("valid on cube");
            table.commit(tx.tx_time, &tx.ops).expect("valid on table");
            stored.try_commit(tx.tx_time, &tx.ops).expect("valid on stored");
            commits.push(tx.tx_time);
        }
        prop_assert_eq!(cube.current(), table.current());
        prop_assert_eq!(table.current(), stored.current());
        // Row for row, in the order the cube's own state keeps.
        prop_assert_eq!(cube.current().rows().to_vec(), stored.current().rows().to_vec());
        prop_assert_eq!(table.stored_tuples(), stored.stored_tuples());
        for &ct in commits.iter().step_by(3) {
            for probe in [ct.pred(), ct, ct.succ()] {
                let a = cube.rollback(probe);
                prop_assert_eq!(&a, &table.rollback(probe), "table diverges at {}", probe);
                prop_assert_eq!(&a, &stored.rollback(probe), "stored diverges at {}", probe);
            }
        }
    }

    /// A table that drops superseded versions is the cube's latest state
    /// and nothing else — live, and restored from its own image — row for
    /// row in the cube's order, though its heap reuses freed slots.
    #[test]
    fn a_table_that_keeps_no_history_follows_the_latest_state(spec in arb_spec()) {
        let w = generate(&spec);
        let mut cube = SnapshotTemporal::new(w.schema.clone(), TemporalSignature::Interval);
        let mut stored = StoredBitemporalTable::new(
            w.schema.clone(),
            TemporalSignature::Interval,
            Superseded::Dropped,
        );
        for tx in &w.transactions {
            cube.commit(tx.tx_time, &tx.ops).expect("valid on cube");
            stored.try_commit(tx.tx_time, &tx.ops).expect("valid on stored");
        }
        let latest = cube.current();
        prop_assert_eq!(stored.current().rows().to_vec(), latest.rows().to_vec());
        prop_assert_eq!(stored.stored_tuples(), latest.len());
        let restored = StoredBitemporalTable::from_rows(
            w.schema.clone(),
            TemporalSignature::Interval,
            Superseded::Dropped,
            stored.current_rows().expect("image"),
            stored.last_commit(),
            stored.transactions(),
        )
        .expect("restores");
        prop_assert_eq!(restored.current().rows().to_vec(), latest.rows().to_vec());
    }

    #[test]
    fn coalescing_preserves_every_timeslice(spec in arb_spec()) {
        let w = generate(&spec);
        let mut table = BitemporalTable::new(w.schema.clone(), TemporalSignature::Interval);
        for tx in &w.transactions {
            table.commit(tx.tx_time, &tx.ops).expect("valid");
        }
        let current = table.current();
        let merged = coalesce(&current).expect("coalesces");
        prop_assert!(is_coalesced(&merged));
        prop_assert!(merged.len() <= current.len());
        // Timeslices agree at period endpoints and in gaps.
        let mut probes: Vec<Chronon> = current
            .rows()
            .iter()
            .flat_map(|r| {
                let p = r.validity.period();
                [p.start().finite(), p.end().finite()]
            })
            .flatten()
            .collect();
        probes.push(Chronon::new(0));
        probes.push(Chronon::new(5000));
        for t in probes {
            for probe in [t.pred(), t, t.succ()] {
                prop_assert_eq!(
                    current.valid_at(probe),
                    merged.valid_at(probe),
                    "slice diverges at {}",
                    probe
                );
            }
        }
        // Idempotence.
        prop_assert_eq!(coalesce(&merged).expect("coalesces"), merged);
    }

    #[test]
    fn algebra_operators_match_store_queries(spec in arb_spec()) {
        let w = generate(&spec);
        let mut table = BitemporalTable::new(w.schema.clone(), TemporalSignature::Interval);
        let mut stored = StoredBitemporalTable::in_memory(w.schema.clone(), TemporalSignature::Interval);
        for tx in &w.transactions {
            table.commit(tx.tx_time, &tx.ops).expect("valid");
            stored.try_commit(tx.tx_time, &tx.ops).expect("valid");
        }
        let as_of = Chronon::new(1030);
        let valid = Chronon::new(990);
        // ρ then τ = the composed bitemporal slice…
        let composed = bitemporal_slice(&table, valid, as_of);
        let by_hand = timeslice(&rollback_temporal(&table, as_of), valid);
        prop_assert_eq!(&composed, &by_hand);
        // …and equals the stored table's indexed point query.
        let mut via_index: Vec<Tuple> = stored
            .valid_at_as_of(valid, as_of)
            .expect("ok")
            .into_iter()
            .map(|r| r.tuple)
            .collect();
        via_index.sort();
        via_index.dedup();
        let mut via_algebra: Vec<Tuple> = composed.iter().cloned().collect();
        via_algebra.sort();
        prop_assert_eq!(via_index, via_algebra);
    }

    #[test]
    fn stored_table_survives_wal_round_trip(spec in arb_spec()) {
        // Durability is replay: committing through a WAL and reopening
        // must reproduce the identical table.
        let w = generate(&spec);
        let dir = std::env::temp_dir().join(format!(
            "chronos-diff-{}-{}",
            std::process::id(),
            spec.seed
        ));
        let _ = std::fs::remove_file(&dir);
        {
            let mut wal = Wal::open(&dir).expect("open");
            for tx in &w.transactions {
                let rec = WalRecord { rel_id: 1, tx_time: tx.tx_time, ops: tx.ops.clone() };
                wal.append(&rec).expect("log");
            }
        }
        let mut reopened =
            StoredBitemporalTable::in_memory(w.schema.clone(), TemporalSignature::Interval);
        for rec in Wal::recover(&dir).expect("reopen").records {
            reopened.try_commit(rec.tx_time, &rec.ops).expect("replay");
        }
        let mut reference = BitemporalTable::new(w.schema.clone(), TemporalSignature::Interval);
        for tx in &w.transactions {
            reference.commit(tx.tx_time, &tx.ops).expect("valid");
        }
        prop_assert_eq!(reopened.current(), reference.current());
        prop_assert_eq!(reopened.current().rows().to_vec(), reference.current().rows().to_vec());
        prop_assert_eq!(reopened.stored_tuples(), reference.stored_tuples());
        prop_assert_eq!(reopened.transactions(), reference.transactions());
        let _ = std::fs::remove_file(&dir);
    }
}
