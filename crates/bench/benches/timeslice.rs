//! E17 — historical timeslice (τ_t, "more sophisticated operations"):
//! heap scan vs a filter of the current-row index, plus the bitemporal
//! point query composing both axes.
//!
//! ## Measurement asymmetry
//!
//! The scan and filter variants do *not* do the same per-row work, and
//! the asymmetry cuts both ways:
//!
//! * `heap_scan` decodes **every** stored row (page-sequential reads,
//!   cheap per row) and then filters — cost ∝ history size;
//! * `current_row_filter` tests the validity of every *current* row in
//!   memory without decoding it, then pays a sort of the matching
//!   record ids and a **random** heap access + decode per hit — cost ∝
//!   current rows plus answer size, the latter with a higher per-row
//!   constant.
//!
//! With few hits the filter wins outright; as the answer approaches the
//! whole table the scan's sequential advantage reasserts itself.  To
//! keep the comparison honest, `current_filter_materialized` measures
//! the filter *including* full row materialization into an owned `Vec`
//! (exactly what a query executor consumes) rather than just the hit
//! count, and `heap_scan_parallel` gives the scan side its best shot:
//! the morsel-driven parallel scan over heap pages.
//!
//! Every variant additionally declares its **rows produced** (computed
//! once, outside the timed loop) as the Criterion throughput, so the
//! report shows per-row cost alongside wall time: all timeslice
//! variants produce the same answer, which makes the per-produced-row
//! column expose exactly how much work each access path wastes per
//! useful row.

use chronos_bench::workload::{generate, WorkloadSpec};
use chronos_core::chronon::Chronon;
use chronos_core::prelude::*;
use chronos_storage::table::StoredBitemporalTable;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

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

/// Same table with the parallel threshold dropped to zero, so every
/// scan takes the morsel-driven path regardless of size.
fn build_parallel(n: usize) -> StoredBitemporalTable {
    let mut t = build(n);
    t.set_parallel_threshold(0);
    t
}

fn bench_timeslice(c: &mut Criterion) {
    let mut group = c.benchmark_group("timeslice");
    for &n in &[256usize, 1024, 4096] {
        let table = build(n);
        let probe = Chronon::new(940);
        let as_of = Chronon::new(1000 + (n as i64) / 4);
        // Rows produced per variant, computed once outside the timed
        // loops: the timeslice answer is identical across access paths,
        // so per-row throughput is directly comparable.
        let stored = table.stored_tuples() as u64;
        let produced = table.current_valid_at(probe).expect("ok").len() as u64;
        let bitemp_produced = table.valid_at_as_of(probe, as_of).expect("ok").len() as u64;
        eprintln!(
            "timeslice n={n}: stored={stored} rows, timeslice answer={produced} rows, \
             bitemporal answer={bitemp_produced} rows"
        );
        group.throughput(Throughput::Elements(produced.max(1)));
        group.bench_with_input(BenchmarkId::new("heap_scan", n), &table, |b, t| {
            b.iter(|| {
                let rows = t.scan_rows().expect("ok");
                rows.into_iter()
                    .filter(|r| r.is_current() && r.validity.valid_at(probe))
                    .count()
            })
        });
        let parallel = build_parallel(n);
        group.bench_with_input(
            BenchmarkId::new("heap_scan_parallel", n),
            &parallel,
            |b, t| {
                b.iter(|| {
                    let rows = t.scan_rows().expect("ok");
                    rows.into_iter()
                        .filter(|r| r.is_current() && r.validity.valid_at(probe))
                        .count()
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("current_row_filter", n), &table, |b, t| {
            b.iter(|| t.current_valid_at(probe).expect("ok").len())
        });
        // Filter including row materialization: the hits are moved
        // into a fresh owned Vec (tuple clones included), matching what
        // an executor keeps, so the variant's cost is comparable to the
        // scan variants above rather than to a bare count.
        group.bench_with_input(
            BenchmarkId::new("current_filter_materialized", n),
            &table,
            |b, t| {
                b.iter(|| {
                    let rows = t.current_valid_at(probe).expect("ok");
                    let materialized: Vec<(chronos_core::tuple::Tuple, Validity)> =
                        rows.into_iter().map(|r| (r.tuple, r.validity)).collect();
                    materialized.len()
                })
            },
        );
        group.throughput(Throughput::Elements(bitemp_produced.max(1)));
        group.bench_with_input(
            BenchmarkId::new("bitemporal_point_query", n),
            &table,
            |b, t| b.iter(|| t.valid_at_as_of(probe, as_of).expect("ok").len()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_timeslice);
criterion_main!(benches);
