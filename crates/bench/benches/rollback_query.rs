//! E16 — the rollback operation (`as of t`): heap scan vs the
//! transaction-time interval tree, on the same stored table.

use chronos_bench::workload::{generate, WorkloadSpec};
use chronos_core::chronon::Chronon;
use chronos_core::prelude::*;
use chronos_storage::table::{Read, StoredBitemporalTable, TxSelect};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn build(n: usize) -> StoredBitemporalTable {
    let w = generate(&WorkloadSpec {
        entities: (n / 4).max(8),
        transactions: n,
        ops_per_tx: 2,
        correction_pct: 25,
        seed: 7,
    });
    let mut t = StoredBitemporalTable::in_memory(w.schema.clone(), TemporalSignature::Interval);
    for tx in &w.transactions {
        t.try_commit(tx.tx_time, &tx.ops).expect("valid");
    }
    t
}

fn bench_rollback_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("rollback_query");
    for &n in &[256usize, 1024, 4096] {
        let table = build(n);
        let probe = Chronon::new(1000 + (n as i64) / 8);
        group.bench_with_input(BenchmarkId::new("heap_scan", n), &table, |b, t| {
            b.iter(|| {
                let rows = t.scan_rows().expect("ok");
                rows.into_iter().filter(|r| r.tx.contains(probe)).count()
            })
        });
        group.bench_with_input(BenchmarkId::new("tx_interval_tree", n), &table, |b, t| {
            b.iter(|| t.read(&Read::tx(TxSelect::At(probe))).expect("ok").len())
        });
        group.bench_with_input(
            BenchmarkId::new("materialize_historical_state", n),
            &table,
            |b, t| b.iter(|| t.try_rollback(probe).expect("ok").len()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_rollback_query);
criterion_main!(benches);
