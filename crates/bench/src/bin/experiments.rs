//! Quantitative experiments behind the paper's implementation claims.
//!
//! ```text
//! cargo run -p chronos-bench --bin experiments --release
//! ```
//!
//! The paper's evaluation is analytical; where it makes implementation
//! claims, these experiments measure them (experiment ids from
//! DESIGN.md §3):
//!
//! * **T1 (E14)** — storing a rollback relation as a cube of full
//!   snapshots is "impractical, due to excessive duplication" compared
//!   with tuple timestamping;
//! * **T2 (E15)** — the same claim for temporal relations (snapshot
//!   historical states vs a bitemporal table);
//! * **T3 (E16)** — rollback (`as of`) query latency: linear scan vs the
//!   transaction-time interval tree;
//! * **T4 (E17)** — historical timeslice latency: scan vs a filter of the
//!   current-row index;
//! * **T5 (E18)** — the measured capability matrix of the four database
//!   classes (Figure 10/11, measured rather than asserted);
//! * **T6 (E20)** — coalescing cost and compression;
//! * **T7 (E19)** — TQuel end-to-end latency for the paper's four query
//!   shapes;
//! * **T10** — the operational surface: `/metrics` scrape latency under
//!   concurrent query load, and the slow-query wrapper's overhead at
//!   the disabled threshold (`u64::MAX`);
//! * **T11** — temporal introspection: the background stats sampler's
//!   overhead on the timeslice workload, and the latency of querying
//!   the telemetry itself (`retrieve` over `sys$stats`);
//! * **T12** — the concurrent MVCC query service: closed-loop snapshot
//!   readers over loopback and group-commit write rounds;
//! * **T13** — concurrency-aware observability: the full tracing +
//!   telemetry stack (enabled recorder, per-statement trace ids, the
//!   background sampler) priced against a disabled-recorder twin under
//!   the 8-writer group-commit workload, with the writer-queue depth
//!   trajectory and the per-stage commit latency decomposition;
//! * **T14** — workload analytics: query fingerprinting plus `analyze`
//!   statistics collection priced against a disabled-recorder twin on a
//!   read-dominant workload over a 6000-version temporal relation,
//!   with the fingerprint store's dedup verified (one entry for every
//!   literal variation of the same statement shape);
//! * **T16** — frozen segments: bytes/version and as-of point-query
//!   latency of the delta-coded, mmap-backed segment format against
//!   the paged heap with its key index, swept over version-chain
//!   length (gated: ≤1.3× duplication at chain length 32, byte-identical
//!   answers, a segment lookup touching one chain and a heap lookup
//!   decoding only the versions stored at the probe; both latencies are
//!   reported, neither is gated), recorded in `BENCH_storage.json`;
//! * **T17** — physical storage shape: version-chain length swept
//!   against the measured duplication factor and bytes/version of the
//!   paged heap (the numbers `sys$pages`, `/storage`, and `analyze`
//!   report), recorded in `BENCH_storage.json`.
//!
//! Set `EXPERIMENTS_ONLY=<ids>` (comma-separated, e.g. `T10,T11,T13`) to
//! run a subset.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use chronos_bench::workload::{self, WorkloadSpec};
use chronos_core::chronon::Chronon;
use chronos_core::clock::ManualClock;
use chronos_core::prelude::*;
use chronos_core::relation::StaticOp;
use chronos_db::{Database, Engine};
use chronos_obs::Recorder;
use chronos_storage::codec;
use chronos_storage::table::{Read, StoredBitemporalTable, TxSelect};
use chronos_tquel::analyze::analyze_retrieve;
use chronos_tquel::ast::Statement;
use chronos_tquel::exec::execute_plan;

fn heading(s: &str) {
    println!("\n{}", "-".repeat(72));
    println!("{s}");
    println!("{}", "-".repeat(72));
}

/// Median-of-5 wall time per call, in nanoseconds.
fn time_ns(iters: u32, mut f: impl FnMut()) -> u64 {
    let mut samples = Vec::with_capacity(5);
    for _ in 0..5 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(start.elapsed().as_nanos() as u64 / u64::from(iters));
    }
    samples.sort_unstable();
    samples[2]
}

fn approx_row_bytes(t: &Tuple) -> usize {
    let mut buf = Vec::new();
    codec::put_tuple(&mut buf, t);
    // valid + tx stamps ≈ 20 bytes of varints/tags.
    buf.len() + 20
}

fn main() {
    println!("ChronosDB experiments (paper: Snodgrass & Ahn, SIGMOD 1985)");
    let only = std::env::var("EXPERIMENTS_ONLY").ok();
    let want = |id: &str| {
        only.as_deref()
            .is_none_or(|o| o.split(',').any(|p| p.trim().eq_ignore_ascii_case(id)))
    };
    if want("T1") {
        t1_rollback_storage();
    }
    if want("T2") {
        t2_temporal_storage();
    }
    if want("T3") {
        t3_rollback_query();
    }
    if want("T4") {
        t4_timeslice();
    }
    if want("T5") {
        t5_capability_matrix();
    }
    if want("T6") {
        t6_coalesce();
    }
    if want("T7") {
        t7_tquel_throughput();
    }
    let mut t10_stats = None;
    if want("T10") {
        t10_stats = Some(t10_operational_surface());
    }
    let mut t11_stats = None;
    if want("T11") {
        t11_stats = Some(t11_temporal_introspection());
    }
    if want("T12") {
        t12_concurrent_service();
    }
    let mut t13_stats = None;
    if want("T13") {
        t13_stats = Some(t13_observability_overhead());
    }
    let mut t14_stats = None;
    if want("T14") {
        t14_stats = Some(t14_workload_analytics());
    }
    let mut t17_rows = None;
    if want("T17") {
        t17_rows = Some(t17_physical_storage());
    }
    let mut t16_rows = None;
    if want("T16") {
        t16_rows = Some(t16_frozen_segments());
    }
    if t17_rows.is_some() || t16_rows.is_some() {
        write_bench_storage_json(
            t17_rows.as_deref().unwrap_or(&[]),
            t16_rows.as_deref().unwrap_or(&[]),
        );
    }
    if t10_stats.is_some() || t11_stats.is_some() || t13_stats.is_some() || t14_stats.is_some() {
        write_bench_observability_json(
            t10_stats.as_ref(),
            t11_stats.as_ref(),
            t13_stats.as_ref(),
            t14_stats.as_ref(),
        );
    }
    println!("\nDone.  These tables are recorded in EXPERIMENTS.md.");
}

// ---------------------------------------------------------------------
// T1 — snapshot cube vs tuple timestamping (rollback relations)
// ---------------------------------------------------------------------

fn rollback_toggle_history(transactions: usize, entities: usize) -> Vec<(Chronon, StaticOp)> {
    let tuples = workload::entity_tuples(entities);
    let mut present = vec![false; entities];
    let mut out = Vec::with_capacity(transactions);
    for i in 0..transactions {
        // Grow the relation for the first half, then churn.
        let idx = if i < entities { i } else { (i * 7) % entities };
        let op = if present[idx] {
            present[idx] = false;
            StaticOp::Delete(tuples[idx].clone())
        } else {
            present[idx] = true;
            StaticOp::Insert(tuples[idx].clone())
        };
        out.push((Chronon::new(1000 + i as i64), op));
    }
    out
}

fn t1_rollback_storage() {
    heading("T1 (E14): rollback storage — snapshot cube vs tuple timestamping");
    println!(
        "{:>6} | {:>12} | {:>12} | {:>8} | {:>10} | {:>10}",
        "txns", "cube tuples", "ts tuples", "ratio", "cube ms", "ts ms"
    );
    for &n in &[64usize, 256, 1024, 4096] {
        let history = rollback_toggle_history(n, n / 2);
        let schema = chronos_core::schema::faculty_schema();

        let start = Instant::now();
        let mut cube = SnapshotRollback::new(schema.clone());
        for (t, op) in &history {
            cube.commit(*t, std::slice::from_ref(op)).expect("valid");
        }
        let cube_ms = start.elapsed().as_secs_f64() * 1e3;

        let start = Instant::now();
        let mut ts = TimestampedRollback::new(schema);
        for (t, op) in &history {
            ts.commit(*t, std::slice::from_ref(op)).expect("valid");
        }
        let ts_ms = start.elapsed().as_secs_f64() * 1e3;

        let ratio = cube.stored_tuples() as f64 / ts.stored_tuples().max(1) as f64;
        println!(
            "{:>6} | {:>12} | {:>12} | {:>7.1}x | {:>10.2} | {:>10.2}",
            n,
            cube.stored_tuples(),
            ts.stored_tuples(),
            ratio,
            cube_ms,
            ts_ms
        );
        // Borrowed accessor: compare against the cube's live state
        // without cloning the whole snapshot out of the store.
        assert_eq!(*cube.current_ref().expect("committed"), ts.current());
    }
    println!("(cube tuples grow quadratically with history; tuple timestamping is linear)");
}

// ---------------------------------------------------------------------
// T2 — snapshot historical states vs bitemporal table
// ---------------------------------------------------------------------

fn t2_temporal_storage() {
    heading("T2 (E15): temporal storage — snapshot states vs bitemporal table");
    println!(
        "{:>6} | {:>12} | {:>13} | {:>8} | {:>10} | {:>10} | {:>10}",
        "txns", "cube tuples", "bitemp tuples", "ratio", "cube MB", "bitemp MB", "bitemp ms"
    );
    for &n in &[64usize, 256, 1024, 4096] {
        let w = workload::generate(&WorkloadSpec {
            entities: (n / 4).max(8),
            transactions: n,
            ops_per_tx: 2,
            correction_pct: 25,
            seed: 42,
        });
        let mut cube = SnapshotTemporal::new(w.schema.clone(), TemporalSignature::Interval);
        for tx in &w.transactions {
            cube.commit(tx.tx_time, &tx.ops).expect("valid");
        }
        let start = Instant::now();
        let mut table = BitemporalTable::new(w.schema.clone(), TemporalSignature::Interval);
        for tx in &w.transactions {
            table.commit(tx.tx_time, &tx.ops).expect("valid");
        }
        let bitemp_ms = start.elapsed().as_secs_f64() * 1e3;

        let row_bytes = approx_row_bytes(&tuple(["prof00000", "associate"])) as f64;
        println!(
            "{:>6} | {:>12} | {:>13} | {:>7.1}x | {:>10.3} | {:>10.3} | {:>10.2}",
            n,
            cube.stored_tuples(),
            table.stored_tuples(),
            cube.stored_tuples() as f64 / table.stored_tuples().max(1) as f64,
            cube.stored_tuples() as f64 * row_bytes / 1e6,
            table.stored_tuples() as f64 * row_bytes / 1e6,
            bitemp_ms
        );
        assert_eq!(cube.current(), table.current());
    }
}

// ---------------------------------------------------------------------
// T3 — rollback query latency: scan vs transaction-time index
// ---------------------------------------------------------------------

fn build_pair(n: usize) -> (BitemporalTable, StoredBitemporalTable) {
    let w = workload::generate(&WorkloadSpec {
        entities: (n / 4).max(8),
        transactions: n,
        ops_per_tx: 2,
        correction_pct: 25,
        seed: 7,
    });
    let mut reference = BitemporalTable::new(w.schema.clone(), TemporalSignature::Interval);
    let mut stored =
        StoredBitemporalTable::in_memory(w.schema.clone(), TemporalSignature::Interval);
    for tx in &w.transactions {
        reference.commit(tx.tx_time, &tx.ops).expect("valid");
        stored.try_commit(tx.tx_time, &tx.ops).expect("valid");
    }
    (reference, stored)
}

fn t3_rollback_query() {
    heading("T3 (E16): rollback (`as of`) access path — heap scan vs tx interval tree");
    println!(
        "{:>6} | {:>8} | {:>8} | {:>12} | {:>12} | {:>8}",
        "txns", "rows", "alive", "scan µs", "indexed µs", "speedup"
    );
    for &n in &[256usize, 1024, 4096, 16384] {
        let (reference, stored) = build_pair(n);
        // Probe early in the history, where most stored versions are
        // dead: this is exactly the case the paper's rollback operation
        // must stay cheap in as history accumulates.
        let probe = Chronon::new(1000 + (n as i64) / 8);
        assert_eq!(reference.rollback(probe), stored.rollback(probe));
        let at = Read::tx(TxSelect::At(probe));
        let alive = stored.read(&at).expect("ok").len();
        // Scan path: decode every stored version, keep those alive at
        // the probe (what a store without a tx index must do).
        let scan_ns = time_ns(10, || {
            let rows = stored.scan_rows().expect("ok");
            let alive: Vec<_> = rows.into_iter().filter(|r| r.tx.contains(probe)).collect();
            std::hint::black_box(alive);
        });
        // Index path: stab the transaction-time interval tree.
        let index_ns = time_ns(10, || {
            std::hint::black_box(stored.read(&at).expect("ok"));
        });
        println!(
            "{:>6} | {:>8} | {:>8} | {:>12.1} | {:>12.1} | {:>7.1}x",
            n,
            stored.stored_tuples(),
            alive,
            scan_ns as f64 / 1e3,
            index_ns as f64 / 1e3,
            scan_ns as f64 / index_ns.max(1) as f64
        );
    }
    println!("(the index touches only versions alive at the probe; the scan decodes");
    println!(" the whole history, so the gap widens as history accumulates)");
}

// ---------------------------------------------------------------------
// T4 — timeslice latency: scan vs current-row filter
// ---------------------------------------------------------------------

fn t4_timeslice() {
    heading("T4 (E17): historical timeslice — heap scan vs current-row filter");
    println!(
        "{:>6} | {:>8} | {:>8} | {:>12} | {:>12} | {:>8}",
        "txns", "rows", "valid", "scan µs", "filter µs", "speedup"
    );
    for &n in &[256usize, 1024, 4096, 16384] {
        let (_, stored) = build_pair(n);
        // Probe early in valid time: most current rows are not yet valid
        // there, so a good access path decodes few of them.
        let probe = Chronon::new(940);
        let slice = Read {
            valid: Some(Period::instant(probe)),
            ..Read::tx(TxSelect::Open)
        };
        let hits = stored.read(&slice).expect("ok").len();
        let scan_ns = time_ns(10, || {
            let rows = stored.scan_rows().expect("ok");
            let valid: Vec<_> = rows
                .into_iter()
                .filter(|r| r.is_current() && r.validity.valid_at(probe))
                .collect();
            std::hint::black_box(valid);
        });
        let index_ns = time_ns(10, || {
            std::hint::black_box(stored.read(&slice).expect("ok"));
        });
        println!(
            "{:>6} | {:>8} | {:>8} | {:>12.1} | {:>12.1} | {:>7.1}x",
            n,
            stored.stored_tuples(),
            hits,
            scan_ns as f64 / 1e3,
            index_ns as f64 / 1e3,
            scan_ns as f64 / index_ns.max(1) as f64
        );
    }
}

// ---------------------------------------------------------------------
// T5 — the measured capability matrix
// ---------------------------------------------------------------------

fn t5_capability_matrix() {
    heading("T5 (E18): measured capability matrix of the four classes (Figure 10/11)");
    let clock = Arc::new(ManualClock::new(Chronon::new(100)));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    engine
        .session()
        .run(
            r#"
        create s_rel (name = str, rank = str) as static
        create r_rel (name = str, rank = str) as rollback
        create h_rel (name = str, rank = str) as historical
        create t_rel (name = str, rank = str) as temporal
    "#,
        )
        .expect("create");
    for rel in ["s_rel", "r_rel", "h_rel", "t_rel"] {
        clock.tick(1);
        engine
            .session()
            .run(&format!(
                r#"append to {rel} (name = "Merrie", rank = "full")"#
            ))
            .expect("append");
    }
    println!(
        "{:>16} | {:>12} | {:>14} | {:>16}",
        "class", "static query", "rollback query", "historical query"
    );
    let probe = chronos_core::calendar::Date::from_chronon(Chronon::new(150));
    for rel in ["s_rel", "r_rel", "h_rel", "t_rel"] {
        let stat = engine
            .session()
            .query(&format!("range of v is {rel} retrieve (v.rank)"))
            .is_ok();
        let roll = engine
            .session()
            .query(&format!(
                r#"range of v is {rel} retrieve (v.rank) as of "{probe}""#
            ))
            .is_ok();
        let hist = engine
            .session()
            .query(&format!(
                r#"range of v is {rel} retrieve (v.rank) when v overlap "{probe}""#
            ))
            .is_ok();
        let class = engine.with_db(|db| db.classify(rel)).expect("classified");
        let mark = |b: bool| if b { "✓" } else { "—" };
        println!(
            "{:>16} | {:>12} | {:>14} | {:>16}",
            class.to_string(),
            mark(stat),
            mark(roll),
            mark(hist)
        );
    }
    println!("(matches Figure 10: rollback ⇔ transaction time, historical ⇔ valid time)");
}

// ---------------------------------------------------------------------
// T6 — coalescing
// ---------------------------------------------------------------------

fn t6_coalesce() {
    heading("T6 (E20): coalescing cost and compression vs fragmentation");
    println!(
        "{:>10} | {:>8} | {:>8} | {:>12} | {:>8}",
        "fragments", "rows in", "rows out", "compression", "ms"
    );
    for &frags in &[1usize, 2, 8, 32] {
        let rel = workload::fragmented_relation(500, frags);
        let start = Instant::now();
        let out = chronos_algebra::coalesce::coalesce(&rel).expect("coalesces");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        println!(
            "{:>10} | {:>8} | {:>8} | {:>11.1}x | {:>8.2}",
            frags,
            rel.len(),
            out.len(),
            rel.len() as f64 / out.len() as f64,
            ms
        );
        assert!(chronos_algebra::coalesce::is_coalesced(&out));
    }
}

// ---------------------------------------------------------------------
// T7 — TQuel end-to-end latency
// ---------------------------------------------------------------------

fn t7_tquel_throughput() {
    heading("T7 (E19): TQuel end-to-end latency for the paper's query shapes");
    let clock = Arc::new(ManualClock::new(Chronon::new(900)));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    engine
        .session()
        .run("create faculty (name = str, rank = str) as temporal")
        .expect("create");
    for i in 0..200 {
        clock.tick(1);
        engine
            .session()
            .run(&format!(
                r#"append to faculty (name = "prof{i:05}", rank = "assistant")
                   valid from "{}" to forever"#,
                chronos_core::calendar::Date::from_chronon(Chronon::new(900 + i))
            ))
            .expect("append");
    }
    for i in 0..100 {
        clock.tick(1);
        engine
            .session()
            .run(&format!(
                r#"range of f is faculty
                   replace f (rank = "associate")
                   valid from "{}" to forever
                   where f.name = "prof{i:05}""#,
                chronos_core::calendar::Date::from_chronon(Chronon::new(1200 + i))
            ))
            .expect("replace");
    }
    let shapes: &[(&str, String)] = &[
        (
            "static projection",
            r#"range of f is faculty retrieve (f.rank) where f.name = "prof00007""#.to_string(),
        ),
        (
            "rollback (as of)",
            format!(
                r#"range of f is faculty retrieve (f.rank) where f.name = "prof00007" as of "{}""#,
                chronos_core::calendar::Date::from_chronon(Chronon::new(1210))
            ),
        ),
        (
            "historical (when)",
            format!(
                r#"range of f is faculty retrieve (f.rank)
                   where f.name = "prof00007"
                   when f overlap "{}""#,
                chronos_core::calendar::Date::from_chronon(Chronon::new(1100))
            ),
        ),
        (
            "bitemporal join",
            format!(
                r#"range of f1 is faculty
                   range of f2 is faculty
                   retrieve (f1.rank)
                   where f1.name = "prof00007" and f2.name = "prof00009"
                   when f1 overlap start of f2
                   as of "{}""#,
                chronos_core::calendar::Date::from_chronon(Chronon::new(1300))
            ),
        ),
    ];
    println!(
        "{:>20} | {:>12} | {:>6}",
        "query shape", "latency µs", "rows"
    );
    for (name, src) in shapes {
        let rows = engine.session().query(src).expect("query").len();
        let mut session = engine.session();
        let ns = time_ns(10, || {
            std::hint::black_box(session.query(src).expect("query"));
        });
        println!("{:>20} | {:>12.1} | {:>6}", name, ns as f64 / 1e3, rows);
    }

    // The ablation: the join's own plan with nothing pushed, so every
    // combination of the two scans is tested.  It runs without parse,
    // analysis or a session around it, which only flatters this row.
    let mut ranges = HashMap::new();
    let mut join = None;
    for stmt in chronos_tquel::parse_program(&shapes[3].1).expect("parses") {
        match stmt {
            Statement::RangeDecl { var, relation } => {
                ranges.insert(var, relation);
            }
            Statement::Retrieve(r) => join = Some(r),
            _ => {}
        }
    }
    let join = join.expect("the join shape is a retrieve");
    engine.with_db(|db| {
        let mut plan = analyze_retrieve(&join, &ranges, db).expect("analyzes");
        plan.filters.clear();
        let rows = execute_plan(&plan, db).expect("query").len();
        let ns = time_ns(10, || {
            std::hint::black_box(execute_plan(&plan, db).expect("query"));
        });
        println!(
            "{:>20} | {:>12.1} | {:>6}",
            "join, nothing pushed",
            ns as f64 / 1e3,
            rows
        );
    });
}

// ---------------------------------------------------------------------
// T10 — the operational surface: scrape latency and slow-log overhead
// ---------------------------------------------------------------------

/// The T10 measurements (serialized to BENCH_observability.json).
struct T10Stats {
    scrapes: usize,
    scrape_p50_ns: u64,
    scrape_p99_ns: u64,
    statements: u32,
    slowlog_disabled_overhead_ratio: f64,
}

fn t10_operational_surface() -> T10Stats {
    heading("T10: operational surface — /metrics scrape latency, slow-log overhead");
    let clock = Arc::new(ManualClock::new(Chronon::new(900)));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    engine
        .session()
        .run("create faculty (name = str, rank = str) as temporal")
        .expect("create");
    for i in 0..200 {
        clock.tick(1);
        engine
            .session()
            .run(&format!(
                r#"append to faculty (name = "prof{i:05}", rank = "assistant")
                   valid from "{}" to forever"#,
                chronos_core::calendar::Date::from_chronon(Chronon::new(900 + i))
            ))
            .expect("append");
    }
    let as_of = chronos_core::calendar::Date::from_chronon(Chronon::new(1000));
    let query = format!(
        r#"range of f is faculty retrieve (f.rank) where f.name = "prof00007" as of "{as_of}""#
    );

    // Scrape latency: a second thread GETs /metrics in a loop while
    // this thread serves it a steady diet of retrieves.  The exporter
    // reads only `Arc`-shared atomics and short-lived mutexes, so it
    // never borrows the database itself.
    let server = engine
        .with_db(|db| db.serve_observability("127.0.0.1:0"))
        .expect("serve");
    let addr = server.addr().to_string();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let scraper = {
        let (addr, stop) = (addr.clone(), Arc::clone(&stop));
        std::thread::spawn(move || -> Vec<u64> {
            let mut lat = Vec::new();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let start = Instant::now();
                let (status, body) = chronos_obs::http_get(&addr, "/metrics").expect("scrape");
                lat.push(start.elapsed().as_nanos() as u64);
                assert_eq!(status, 200, "scrape failed mid-load");
                assert!(body.contains("chronos_"), "scrape body lost its metrics");
            }
            lat
        })
    };
    let load_until = Instant::now() + std::time::Duration::from_millis(400);
    let mut queries = 0usize;
    {
        let mut session = engine.session();
        while Instant::now() < load_until {
            std::hint::black_box(session.query(&query).expect("query"));
            queries += 1;
        }
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let mut lat = scraper.join().expect("scraper thread");
    server.shutdown();
    lat.sort_unstable();
    assert!(!lat.is_empty(), "no scrapes completed under load");
    let p50 = lat[lat.len() / 2];
    let p99 = lat[(lat.len() * 99 / 100).min(lat.len() - 1)];
    println!(
        "{:>8} | {:>8} | {:>13} | {:>13}",
        "queries", "scrapes", "scrape p50 µs", "scrape p99 µs"
    );
    println!(
        "{:>8} | {:>8} | {:>13.1} | {:>13.1}",
        queries,
        lat.len(),
        p50 as f64 / 1e3,
        p99 as f64 / 1e3
    );

    // Slow-log overhead: the monitored wrapper at the disabled
    // threshold (the default, u64::MAX) against the plain execute
    // path.  Interleaved min-of-9, same discipline as overhead_check.
    let retrieve = format!(r#"retrieve (f.rank) where f.name = "prof00007" as of "{as_of}""#);
    let stmt = chronos_tquel::parser::parse_statement(&retrieve).expect("parse");
    assert_eq!(
        engine.recorder().slowlog().threshold_ns(),
        u64::MAX,
        "slow log must be disabled for the overhead baseline"
    );
    let iters = 300u32;
    let mut session = engine.session();
    session.run("range of f is faculty").expect("range");
    let (mut plain_ns, mut monitored_ns) = (u64::MAX, u64::MAX);
    for _ in 0..9 {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(session.execute(&stmt).expect("execute"));
        }
        plain_ns = plain_ns.min(start.elapsed().as_nanos() as u64);
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(session.execute_monitored(&stmt).expect("execute"));
        }
        monitored_ns = monitored_ns.min(start.elapsed().as_nanos() as u64);
    }
    assert!(
        engine.recorder().slowlog().is_empty(),
        "disabled slow log captured statements"
    );
    let ratio = monitored_ns as f64 / plain_ns.max(1) as f64;
    assert!(
        ratio < 1.05,
        "disabled slow log overhead {ratio:.3} exceeds the 5% budget"
    );
    println!("slow-log overhead: disabled-threshold ratio {ratio:.3} — within budget (<1.05)");
    T10Stats {
        scrapes: lat.len(),
        scrape_p50_ns: p50,
        scrape_p99_ns: p99,
        statements: iters,
        slowlog_disabled_overhead_ratio: ratio,
    }
}

// ---------------------------------------------------------------------
// T11 — temporal introspection: the sampler's cost and the telemetry's
// queryability
// ---------------------------------------------------------------------

/// The T11 measurements (serialized to BENCH_observability.json).
struct T11Stats {
    iters: u32,
    sampler_overhead_ratio: f64,
    samples_taken: u64,
    telemetry_query_ns: u64,
}

fn t11_temporal_introspection() -> T11Stats {
    heading("T11: temporal introspection — sampler overhead on the timeslice workload");
    let clock = Arc::new(ManualClock::new(Chronon::new(900)));
    let engine = Engine::start(Database::in_memory(clock.clone()));
    engine
        .session()
        .run("create faculty (name = str, rank = str) as temporal")
        .expect("create");
    for i in 0..200 {
        clock.tick(1);
        engine
            .session()
            .run(&format!(
                r#"append to faculty (name = "prof{i:05}", rank = "assistant")
                   valid from "{}" to forever"#,
                chronos_core::calendar::Date::from_chronon(Chronon::new(900 + i))
            ))
            .expect("append");
    }
    // The T4 shape through TQuel: a historical timeslice.
    let day = chronos_core::calendar::Date::from_chronon(Chronon::new(1000));
    let stmt = chronos_tquel::parser::parse_statement(&format!(
        r#"retrieve (f.rank) where f.name = "prof00007" when f overlap "{day}""#
    ))
    .expect("parse");

    // Sampler off vs on, interleaved min-of-9 (same discipline as
    // overhead_check): the background thread snapshots engine_stats()
    // every 5ms while the foreground runs the timeslice loop.
    let iters = 300u32;
    let run_loop = |engine: &Arc<Engine>| -> u64 {
        let mut session = engine.session();
        session.run("range of f is faculty").expect("range");
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(session.execute(&stmt).expect("execute"));
        }
        start.elapsed().as_nanos() as u64
    };
    std::hint::black_box(run_loop(&engine)); // warmup
                                             // Paired rounds: each measures off and on adjacently (alternating
                                             // which goes first, so frequency drift hits both sides alike) and
                                             // contributes one ratio; the median ratio is immune to the odd
                                             // preempted loop that a min-of-totals would let dominate.
    let mut ratios = Vec::new();
    for round in 0..15 {
        let off_first = round % 2 == 0;
        let mut off_ns = 0u64;
        if off_first {
            off_ns = run_loop(&engine);
        }
        engine
            .exclusive(|db| db.start_stats_sampler(std::time::Duration::from_millis(5)))
            .expect("writer")
            .expect("sampler");
        let on_ns = run_loop(&engine);
        engine
            .exclusive(|db| db.stop_stats_sampler())
            .expect("writer");
        if !off_first {
            off_ns = run_loop(&engine);
        }
        ratios.push(on_ns as f64 / off_ns.max(1) as f64);
    }
    let samples_taken = engine.with_db(|db| db.telemetry().stats().samples_taken);
    assert!(samples_taken > 0, "the sampler never sampled under load");
    ratios.sort_by(f64::total_cmp);
    let ratio = ratios[ratios.len() / 2];
    assert!(
        ratio < 1.05,
        "sampler-enabled overhead {ratio:.3} exceeds the 5% budget"
    );
    println!("sampler overhead: enabled-vs-off ratio {ratio:.3} — within budget (<1.05)");

    // Querying the telemetry is an ordinary TQuel retrieve over
    // sys$stats; measure its end-to-end latency.
    engine.with_db(|db| db.sample_now());
    let mut session = engine.session();
    session.run("range of s is sys$stats").expect("range");
    let tstmt =
        chronos_tquel::parser::parse_statement(r#"retrieve (s.value) where s.metric = "commits""#)
            .expect("parse");
    let telemetry_query_ns = time_ns(50, || {
        std::hint::black_box(session.execute(&tstmt).expect("telemetry query"));
    });
    drop(session);
    println!(
        "{:>8} | {:>13} | {:>8} | {:>18}",
        "iters", "overhead", "samples", "sys$stats query µs"
    );
    println!(
        "{:>8} | {:>12.3}x | {:>8} | {:>18.1}",
        iters,
        ratio,
        samples_taken,
        telemetry_query_ns as f64 / 1e3
    );
    T11Stats {
        iters,
        sampler_overhead_ratio: ratio,
        samples_taken,
        telemetry_query_ns,
    }
}

/// Emits the T10/T11/T13/T14 stats as `BENCH_observability.json`.
/// Hand-rolled JSON: the workspace deliberately has no serde.
fn write_bench_observability_json(
    t10: Option<&T10Stats>,
    t11: Option<&T11Stats>,
    t13: Option<&T13Stats>,
    t14: Option<&T14Stats>,
) {
    let mut out = String::from("{\n  \"experiment\": \"T10+T11+T13+T14\",\n");
    out.push_str("  \"description\": \"operational surface; temporal introspection; concurrency-aware observability; workload analytics\",\n");
    out.push_str("  \"source\": \"engine metrics registry + embedded HTTP exporter\"");
    if let Some(t) = t10 {
        out.push_str(&format!(
            ",\n  \"t10\": {{\"scrapes\": {}, \"scrape_p50_ns\": {}, \"scrape_p99_ns\": {}, \
             \"statements\": {}, \"slowlog_disabled_overhead_ratio\": {:.4}}}",
            t.scrapes,
            t.scrape_p50_ns,
            t.scrape_p99_ns,
            t.statements,
            t.slowlog_disabled_overhead_ratio
        ));
    }
    if let Some(t) = t11 {
        out.push_str(&format!(
            ",\n  \"t11\": {{\"iters\": {}, \"sampler_overhead_ratio\": {:.4}, \
             \"samples_taken\": {}, \"telemetry_query_ns\": {}}}",
            t.iters, t.sampler_overhead_ratio, t.samples_taken, t.telemetry_query_ns
        ));
    }
    if let Some(t) = t13 {
        out.push_str(&format!(
            ",\n  \"t13\": {{\"writers\": {}, \"rounds\": {}, \"enabled_ms_median\": {:.1}, \
             \"disabled_ms_median\": {:.1}, \"overhead_ratio\": {:.4}, \"queue_hwm\": {}, \
             \"queue_depth_peak_sampled\": {}, \"queue_depth_samples\": {}, \"stages\": [",
            t.writers,
            t.rounds,
            t.enabled_ms,
            t.disabled_ms,
            t.overhead_ratio,
            t.queue_hwm,
            t.queue_depth_peak_sampled,
            t.queue_depth_samples,
        ));
        for (i, s) in t.stages.iter().enumerate() {
            out.push_str(&format!(
                "{}{{\"stage\": \"{}\", \"samples\": {}, \"p50_ns\": {}, \"p99_ns\": {}}}",
                if i > 0 { ", " } else { "" },
                s.name,
                s.samples,
                s.p50_ns,
                s.p99_ns
            ));
        }
        out.push_str("]}");
    }
    if let Some(t) = t14 {
        out.push_str(&format!(
            ",\n  \"t14\": {{\"rounds\": {}, \"queries_per_round\": {}, \"versions\": {}, \
             \"enabled_ms_median\": {:.1}, \"disabled_ms_median\": {:.1}, \
             \"overhead_ratio\": {:.4}, \"fingerprints\": {}, \"retrieve_calls\": {}, \
             \"tablestats\": {}}}",
            t.rounds,
            t.queries_per_round,
            t.versions,
            t.enabled_ms,
            t.disabled_ms,
            t.overhead_ratio,
            t.fingerprints,
            t.retrieve_calls,
            t.tablestats,
        ));
    }
    out.push_str("\n}\n");
    match std::fs::write("BENCH_observability.json", &out) {
        Ok(()) => println!("(wrote BENCH_observability.json)"),
        Err(e) => println!("(could not write BENCH_observability.json: {e})"),
    }
}

// ---------------------------------------------------------------------
// T12 — concurrent MVCC query service (EXPERIMENTS_ONLY=T12)
// ---------------------------------------------------------------------

/// Per-statement think time of the closed-loop readers.  A closed loop
/// models interactive sessions: each client waits `think`, issues one
/// statement, and blocks for the answer, so single-session throughput
/// is bounded by `1 / (think + round trip)` and adding sessions raises
/// aggregate throughput until the core saturates.
const T12_THINK_US: u64 = 400;

/// One row of the closed-loop read sweep (serialized to
/// BENCH_concurrency.json).
struct T12ReadRow {
    sessions: usize,
    statements: u64,
    elapsed_ms: f64,
    per_sec: f64,
    p50_us: f64,
    p99_us: f64,
}

/// One row of the group-commit write rounds.
struct T12WriteRow {
    writers: usize,
    commits: u64,
    fsyncs: u64,
    fsyncs_per_commit: f64,
    batches: u64,
    fsyncs_saved: u64,
    avg_batch: f64,
    elapsed_ms: f64,
}

fn t12_percentile_us(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64
}

fn t12_read_round(addr: &str, sessions: usize) -> T12ReadRow {
    let barrier = Arc::new(std::sync::Barrier::new(sessions + 1));
    let mut handles = Vec::new();
    for _ in 0..sessions {
        let addr = addr.to_string();
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut client = chronos_db::QueryClient::connect(&addr).expect("connect");
            let q = "range of f is faculty retrieve (f.name, f.rank)";
            // Warm the connection and pin the session's snapshot.
            assert!(client.execute(q).expect("warmup").ok);
            barrier.wait();
            let deadline = Instant::now() + std::time::Duration::from_millis(600);
            let mut lats_us = Vec::new();
            while Instant::now() < deadline {
                std::thread::sleep(std::time::Duration::from_micros(T12_THINK_US));
                let t0 = Instant::now();
                let resp = client.execute_pinned(q).expect("read");
                assert!(resp.ok, "{}", resp.body);
                lats_us.push(t0.elapsed().as_nanos() as u64 / 1_000);
            }
            lats_us
        }));
    }
    barrier.wait();
    let t0 = Instant::now();
    let mut all: Vec<u64> = Vec::new();
    for h in handles {
        all.extend(h.join().expect("reader thread"));
    }
    let elapsed = t0.elapsed();
    all.sort_unstable();
    T12ReadRow {
        sessions,
        statements: all.len() as u64,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
        per_sec: all.len() as f64 / elapsed.as_secs_f64(),
        p50_us: t12_percentile_us(&all, 50.0),
        p99_us: t12_percentile_us(&all, 99.0),
    }
}

fn t12_write_round(engine: &Arc<chronos_db::Engine>, writers: usize) -> T12WriteRow {
    const COMMITS_EACH: usize = 50;
    let before = engine.stats();
    let barrier = Arc::new(std::sync::Barrier::new(writers + 1));
    let mut handles = Vec::new();
    for w in 0..writers {
        let engine = Arc::clone(engine);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut session = engine.session();
            barrier.wait();
            for j in 0..COMMITS_EACH {
                session
                    .run(&format!(
                        r#"append to faculty (name = "w{w}n{writers}b{j:03}", rank = "associate")"#
                    ))
                    .expect("writer append");
            }
        }));
    }
    barrier.wait();
    let t0 = Instant::now();
    for h in handles {
        h.join().expect("writer thread");
    }
    let elapsed = t0.elapsed();
    let after = engine.stats();
    let commits = after.metrics.commits - before.metrics.commits;
    let fsyncs = after.metrics.wal_fsyncs - before.metrics.wal_fsyncs;
    let batches = after.metrics.group_commit_batches - before.metrics.group_commit_batches;
    T12WriteRow {
        writers,
        commits,
        fsyncs,
        fsyncs_per_commit: fsyncs as f64 / commits.max(1) as f64,
        batches,
        fsyncs_saved: after.metrics.group_fsyncs_saved - before.metrics.group_fsyncs_saved,
        avg_batch: commits as f64 / batches.max(1) as f64,
        elapsed_ms: elapsed.as_secs_f64() * 1e3,
    }
}

fn t12_concurrent_service() {
    heading("T12: concurrent MVCC query service — snapshot readers + group commit");
    // A durable directory under target/ so the group fsyncs hit a real
    // file rather than an in-memory log.
    let dir = std::path::PathBuf::from("target/t12-service-db");
    let _ = std::fs::remove_dir_all(&dir);
    let clock = Arc::new(ManualClock::new(Chronon::new(0)));
    let db = Database::open(&dir, clock.clone() as _).expect("open t12 db");
    let engine = chronos_db::Engine::start(db);
    {
        let mut s = engine.session();
        s.run("create faculty (name = str, rank = str) as temporal")
            .expect("create");
        for i in 0..50 {
            clock.tick(1);
            s.run(&format!(
                r#"append to faculty (name = "prof{i:03}", rank = "assistant")"#
            ))
            .expect("seed append");
        }
    }
    let server = chronos_db::QueryServer::serve(Arc::clone(&engine), "127.0.0.1:0").expect("serve");
    let addr = server.addr().to_string();

    println!("closed-loop readers over loopback (think {T12_THINK_US} µs per statement):");
    println!(
        "{:>8} | {:>10} | {:>10} | {:>8} | {:>8}",
        "sessions", "stmts", "stmts/sec", "p50 µs", "p99 µs"
    );
    let mut reads = Vec::new();
    for &n in &[1usize, 2, 4, 8] {
        let row = t12_read_round(&addr, n);
        println!(
            "{:>8} | {:>10} | {:>10.0} | {:>8.0} | {:>8.0}",
            row.sessions, row.statements, row.per_sec, row.p50_us, row.p99_us
        );
        reads.push(row);
    }
    let scaling = reads.last().map(|r| r.per_sec).unwrap_or(0.0)
        / reads.first().map(|r| r.per_sec.max(1.0)).unwrap_or(1.0);
    println!("read scaling 1 → 8 sessions: {scaling:.2}x");

    println!("\ngroup commit (no-think writer sessions, 50 commits each):");
    println!(
        "{:>8} | {:>8} | {:>7} | {:>14} | {:>8} | {:>10} | {:>10}",
        "writers", "commits", "fsyncs", "fsyncs/commit", "batches", "avg batch", "saved"
    );
    let mut writes = Vec::new();
    for &n in &[1usize, 8] {
        let row = t12_write_round(&engine, n);
        println!(
            "{:>8} | {:>8} | {:>7} | {:>14.3} | {:>8} | {:>10.2} | {:>10}",
            row.writers,
            row.commits,
            row.fsyncs,
            row.fsyncs_per_commit,
            row.batches,
            row.avg_batch,
            row.fsyncs_saved
        );
        writes.push(row);
    }
    let batch_hist = &engine.stats().metrics.group_batch_size;
    let (batch_p50, batch_p99) = (
        batch_hist.percentile(50.0).unwrap_or(0),
        batch_hist.percentile(99.0).unwrap_or(0),
    );

    server.shutdown();
    engine.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    write_bench_concurrency_json(&reads, scaling, &writes, batch_p50, batch_p99);
}

// ---------------------------------------------------------------------
// T13 — concurrency-aware observability: the tracing + telemetry stack
// priced under the 8-writer group-commit workload (EXPERIMENTS_ONLY=T13)
// ---------------------------------------------------------------------

/// One per-stage row of the commit latency decomposition.
struct T13StageRow {
    name: &'static str,
    samples: u64,
    p50_ns: u64,
    p99_ns: u64,
}

/// The T13 measurements (serialized to BENCH_observability.json).
struct T13Stats {
    writers: usize,
    rounds: usize,
    /// Median per-round wall time with the full observability stack on.
    enabled_ms: f64,
    /// The same workload against the disabled-recorder twin.
    disabled_ms: f64,
    /// enabled / disabled — the price of observing the engine.
    overhead_ratio: f64,
    queue_hwm: u64,
    queue_depth_peak_sampled: u64,
    queue_depth_samples: usize,
    stages: Vec<T13StageRow>,
}

/// One group-commit write round: `writers` no-think sessions, 50
/// commits each.  With `traced`, every statement carries a
/// client-chosen trace id (the `--connect --trace-id` path).
fn t13_write_round(
    engine: &Arc<chronos_db::Engine>,
    writers: usize,
    traced: bool,
    round: usize,
) -> f64 {
    const COMMITS_EACH: usize = 50;
    let barrier = Arc::new(std::sync::Barrier::new(writers + 1));
    let mut handles = Vec::new();
    for w in 0..writers {
        let engine = Arc::clone(engine);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut session = engine.session();
            barrier.wait();
            for j in 0..COMMITS_EACH {
                if traced {
                    session.set_trace_id(format!("t13-r{round}-w{w}-s{j:03}"));
                }
                session
                    .run(&format!(
                        r#"append to faculty (name = "r{round}w{w}b{j:03}", rank = "associate")"#
                    ))
                    .expect("writer append");
            }
        }));
    }
    barrier.wait();
    let t0 = Instant::now();
    for h in handles {
        h.join().expect("writer thread");
    }
    t0.elapsed().as_secs_f64() * 1e3
}

fn t13_observability_overhead() -> T13Stats {
    heading(
        "T13: concurrency-aware observability — tracing + telemetry under 8-writer group commit",
    );
    const WRITERS: usize = 8;
    const ROUNDS: usize = 5;

    // Two durable twins under target/: one with the default (enabled)
    // recorder, client-chosen trace ids, and the background stats
    // sampler — the full observability stack — and one whose recorder
    // short-circuits every instrument.  Both pay the same real fsyncs.
    let dir_on = std::path::PathBuf::from("target/t13-obs-on-db");
    let dir_off = std::path::PathBuf::from("target/t13-obs-off-db");
    let _ = std::fs::remove_dir_all(&dir_on);
    let _ = std::fs::remove_dir_all(&dir_off);
    let clock_on = Arc::new(ManualClock::new(Chronon::new(0)));
    let mut db_on = Database::open(&dir_on, clock_on as _).expect("open t13 enabled db");
    db_on
        .start_stats_sampler(std::time::Duration::from_millis(25))
        .expect("sampler");
    let engine_on = chronos_db::Engine::start(db_on);
    let clock_off = Arc::new(ManualClock::new(Chronon::new(0)));
    let obs_off = chronos_db::ObsBootstrap::disabled();
    let db_off =
        Database::open_with_obs(&dir_off, clock_off as _, &obs_off).expect("open t13 disabled db");
    let engine_off = chronos_db::Engine::start(db_off);
    for engine in [&engine_on, &engine_off] {
        engine
            .session()
            .run("create faculty (name = str, rank = str) as temporal")
            .expect("create");
    }

    // Poll the writer-queue depth gauge on the observed twin while its
    // rounds run: the trajectory the dashboards would graph.
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let poller = {
        let (engine, stop) = (Arc::clone(&engine_on), Arc::clone(&stop));
        std::thread::spawn(move || -> Vec<u64> {
            let mut depths = Vec::new();
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                depths.push(engine.stats().metrics.commit_queue_depth);
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            depths
        })
    };

    // One uncounted warmup pair, then paired rounds; the ratio of
    // medians absorbs fsync jitter better than per-pair ratios.
    t13_write_round(&engine_on, WRITERS, true, 99);
    t13_write_round(&engine_off, WRITERS, false, 99);
    let (mut on_ms, mut off_ms) = (Vec::new(), Vec::new());
    for r in 0..ROUNDS {
        on_ms.push(t13_write_round(&engine_on, WRITERS, true, r));
        off_ms.push(t13_write_round(&engine_off, WRITERS, false, r));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let depths = poller.join().expect("queue-depth poller");

    // A few reads so the read-side contention timer has samples too.
    {
        let mut s = engine_on.session();
        for _ in 0..10 {
            s.refresh();
            s.query("range of f is faculty retrieve (f.name)")
                .expect("read round");
        }
    }

    let median = |v: &mut Vec<f64>| -> f64 {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        v[v.len() / 2]
    };
    let enabled_ms = median(&mut on_ms);
    let disabled_ms = median(&mut off_ms);
    let ratio = enabled_ms / disabled_ms.max(1e-9);

    let stats = engine_on.stats();
    let m = &stats.metrics;
    assert!(
        m.commit_queue_hwm > 0,
        "8 writers never made the commit queue nonempty"
    );
    let stages: Vec<T13StageRow> = [
        ("commit_queue_wait", &m.commit_queue_wait),
        ("commit_lock_wait", &m.commit_lock_wait),
        ("commit_apply", &m.commit_apply),
        ("commit_fsync", &m.commit_fsync),
        ("commit_ack", &m.commit_ack),
        ("read_lock_wait", &m.read_lock_wait),
    ]
    .into_iter()
    .map(|(name, h)| T13StageRow {
        name,
        samples: h.samples,
        p50_ns: h.percentile(50.0).unwrap_or(0),
        p99_ns: h.percentile(99.0).unwrap_or(0),
    })
    .collect();
    for s in &stages {
        // The read-side timer only fires on retrieves (checked above);
        // every commit-side stage must have fired during the rounds.
        assert!(
            s.samples > 0,
            "stage {} recorded no samples under the write rounds",
            s.name
        );
    }
    assert!(
        engine_off.stats().metrics.is_zero(),
        "the disabled twin recorded metrics"
    );

    println!(
        "{:>8} | {:>12} | {:>13} | {:>8}",
        "writers", "enabled ms", "disabled ms", "ratio"
    );
    println!("{WRITERS:>8} | {enabled_ms:>12.1} | {disabled_ms:>13.1} | {ratio:>8.3}");
    assert!(
        ratio < 1.05,
        "observability overhead {ratio:.3} exceeds the 5% budget"
    );
    println!("tracing + telemetry overhead ratio {ratio:.3} — within budget (<1.05)");
    let peak_sampled = depths.iter().copied().max().unwrap_or(0);
    println!(
        "writer queue: high-watermark {} (gauge), peak {} over {} sampled depths",
        m.commit_queue_hwm,
        peak_sampled,
        depths.len()
    );
    println!("commit latency decomposition (enabled twin):");
    for s in &stages {
        println!(
            "  {:>18}: {:>8} sample(s)  p50 {:>9} ns  p99 {:>9} ns",
            s.name, s.samples, s.p50_ns, s.p99_ns
        );
    }

    let queue_depth_samples = depths.len();
    let t13 = T13Stats {
        writers: WRITERS,
        rounds: ROUNDS,
        enabled_ms,
        disabled_ms,
        overhead_ratio: ratio,
        queue_hwm: m.commit_queue_hwm,
        queue_depth_peak_sampled: peak_sampled,
        queue_depth_samples,
        stages,
    };
    engine_on.shutdown();
    engine_off.shutdown();
    let _ = std::fs::remove_dir_all(&dir_on);
    let _ = std::fs::remove_dir_all(&dir_off);
    t13
}

// ---------------------------------------------------------------------
// T14 — workload analytics: query fingerprinting + analyze statistics
// priced against a disabled-recorder twin (EXPERIMENTS_ONLY=T14)
// ---------------------------------------------------------------------

/// The T14 measurements (serialized to BENCH_observability.json).
struct T14Stats {
    rounds: usize,
    queries_per_round: usize,
    /// Stored versions of the analyzed relation (chains of 3 per key).
    versions: i64,
    /// Best per-round wall time with fingerprinting + analyze on.
    enabled_ms: f64,
    /// The same workload against the disabled-recorder twin.
    disabled_ms: f64,
    /// enabled / disabled — the price of workload analytics.
    overhead_ratio: f64,
    /// Entries in the fingerprint store after all rounds.
    fingerprints: usize,
    /// Calls folded into the single retrieve-shaped fingerprint.
    retrieve_calls: u64,
    /// Statistics in the relation's latest `sys$tablestats` sample.
    tablestats: usize,
}

/// One analytics round: `queries` same-shape retrieves with rotating
/// literals, then one `analyze` pass over the relation.
fn t14_round(engine: &Arc<Engine>, queries: usize, round: usize) -> f64 {
    let t0 = Instant::now();
    let mut s = engine.session();
    for q in 0..queries {
        let name = (round * queries + q) % 2000;
        s.query(&format!(
            r#"range of p is people retrieve (p.rank) where p.name = "p{name}""#
        ))
        .expect("t14 retrieve");
    }
    s.run("analyze people").expect("t14 analyze");
    t0.elapsed().as_secs_f64() * 1e3
}

fn t14_workload_analytics() -> T14Stats {
    heading("T14: workload analytics — query fingerprinting + analyze vs a disabled-recorder twin");
    const ROUNDS: usize = 5;
    const QUERIES: usize = 200;
    const KEYS: usize = 2000;

    // Durable twins under target/, populated identically: 2000 facts,
    // then a sweeping replace — 6000 stored versions in chains of 3.
    // The measured rounds are read-dominant (retrieves + analyze), so
    // the twins differ only in the recorder the statements report into.
    let dir_on = std::path::PathBuf::from("target/t14-analytics-on-db");
    let dir_off = std::path::PathBuf::from("target/t14-analytics-off-db");
    let _ = std::fs::remove_dir_all(&dir_on);
    let _ = std::fs::remove_dir_all(&dir_off);
    let clock_on = Arc::new(ManualClock::new(Chronon::new(0)));
    let engine_on =
        Engine::start(Database::open(&dir_on, clock_on.clone() as _).expect("open t14 enabled db"));
    let clock_off = Arc::new(ManualClock::new(Chronon::new(0)));
    let obs_off = chronos_db::ObsBootstrap::disabled();
    let engine_off = Engine::start(
        Database::open_with_obs(&dir_off, clock_off.clone() as _, &obs_off)
            .expect("open t14 disabled db"),
    );
    for (engine, clock) in [(&engine_on, &clock_on), (&engine_off, &clock_off)] {
        let mut s = engine.session();
        s.run("create people (name = str, rank = str) as temporal")
            .expect("create");
        let mut program = String::new();
        for i in 0..KEYS {
            program.push_str(&format!(
                "append to people (name = \"p{i}\", rank = \"junior\")\n"
            ));
        }
        s.run(&program).expect("seed appends");
        drop(s);
        clock.advance_to(Chronon::new(1000));
        engine
            .session()
            .run(r#"range of p is people replace p (rank = "senior") where p.rank = "junior""#)
            .expect("seed replace");
    }

    // One uncounted warmup pair, then interleaved paired rounds.  The
    // rounds are read-only, so noise is one-sided (scheduler stalls
    // only ever slow a round down): comparing each side's *minimum*
    // estimates the true cost, as overhead_check does for tight loops.
    t14_round(&engine_on, QUERIES, 99);
    t14_round(&engine_off, QUERIES, 99);
    let (mut on_ms, mut off_ms) = (Vec::new(), Vec::new());
    for r in 0..ROUNDS {
        on_ms.push(t14_round(&engine_on, QUERIES, r));
        off_ms.push(t14_round(&engine_off, QUERIES, r));
    }

    let best = |v: &[f64]| -> f64 { v.iter().copied().fold(f64::INFINITY, f64::min) };
    let enabled_ms = best(&on_ms);
    let disabled_ms = best(&off_ms);
    let ratio = enabled_ms / disabled_ms.max(1e-9);

    // Dedup: (ROUNDS+1) * QUERIES literal variations of one statement
    // shape must have folded into a single retrieve-kind fingerprint.
    let entries = engine_on.recorder().fingerprints().entries();
    let retrieves: Vec<_> = entries.iter().filter(|e| e.kind == "retrieve").collect();
    assert_eq!(
        retrieves.len(),
        1,
        "literal variations split the fingerprint: {retrieves:#?}"
    );
    let retrieve_calls = retrieves[0].calls;
    assert_eq!(retrieve_calls as usize, (ROUNDS + 1) * QUERIES);
    assert!(
        retrieves[0].statement.contains("\"?\""),
        "literals survived normalization: {}",
        retrieves[0].statement
    );

    // The analyze passes populated sys$tablestats, and the repeated
    // samples agree (the relation did not change between rounds).
    let stats_rel = engine_on
        .session()
        .query(r#"range of ts is sys$tablestats retrieve (ts.stat, ts.value) where ts.relation = "people""#)
        .expect("tablestats query");
    let versions = stats_rel
        .rows
        .iter()
        .find(|r| r.tuple.get(0).to_string() == "versions")
        .map(|r| r.tuple.get(1).to_string().parse::<i64>().expect("int"))
        .expect("versions stat");
    assert_eq!(
        versions,
        3 * KEYS as i64,
        "analyze saw a different relation"
    );
    assert!(
        engine_off.recorder().fingerprints().entries().is_empty(),
        "the disabled twin recorded fingerprints"
    );

    println!(
        "{:>8} | {:>12} | {:>13} | {:>8}",
        "rounds", "enabled ms", "disabled ms", "ratio"
    );
    println!("{ROUNDS:>8} | {enabled_ms:>12.1} | {disabled_ms:>13.1} | {ratio:>8.3}");
    assert!(
        ratio < 1.05,
        "workload-analytics overhead {ratio:.3} exceeds the 5% budget"
    );
    println!("fingerprinting + analyze overhead ratio {ratio:.3} — within budget (<1.05)");
    println!(
        "fingerprints: {} entries; retrieve shape folded {} calls; latest sample: {} statistics",
        entries.len(),
        retrieve_calls,
        stats_rel.len()
    );

    let t14 = T14Stats {
        rounds: ROUNDS,
        queries_per_round: QUERIES,
        versions,
        enabled_ms,
        disabled_ms,
        overhead_ratio: ratio,
        fingerprints: entries.len(),
        retrieve_calls,
        tablestats: stats_rel.len(),
    };
    let _ = std::fs::remove_dir_all(&dir_on);
    let _ = std::fs::remove_dir_all(&dir_off);
    t14
}

/// Emits the T12 sweep as `BENCH_concurrency.json` (hand-rolled JSON,
/// same discipline as the other BENCH_* writers).
fn write_bench_concurrency_json(
    reads: &[T12ReadRow],
    scaling: f64,
    writes: &[T12WriteRow],
    batch_p50: u64,
    batch_p99: u64,
) {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"T12 concurrent MVCC query service\",\n");
    out.push_str("  \"model\": \"closed-loop\",\n");
    out.push_str(&format!("  \"think_us\": {T12_THINK_US},\n"));
    out.push_str("  \"reads\": [\n");
    for (i, r) in reads.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"sessions\": {}, \"statements\": {}, \"elapsed_ms\": {:.1}, \"stmts_per_sec\": {:.1}, \"p50_us\": {:.0}, \"p99_us\": {:.0}}}{}\n",
            r.sessions,
            r.statements,
            r.elapsed_ms,
            r.per_sec,
            r.p50_us,
            r.p99_us,
            if i + 1 < reads.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"read_scaling_1_to_8\": {scaling:.3},\n"));
    out.push_str("  \"writes\": [\n");
    for (i, w) in writes.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"writers\": {}, \"commits\": {}, \"fsyncs\": {}, \"fsyncs_per_commit\": {:.3}, \"batches\": {}, \"avg_batch\": {:.2}, \"fsyncs_saved\": {}, \"elapsed_ms\": {:.1}}}{}\n",
            w.writers,
            w.commits,
            w.fsyncs,
            w.fsyncs_per_commit,
            w.batches,
            w.avg_batch,
            w.fsyncs_saved,
            w.elapsed_ms,
            if i + 1 < writes.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!("  \"group_batch_size_p50\": {batch_p50},\n"));
    out.push_str(&format!("  \"group_batch_size_p99\": {batch_p99}\n"));
    out.push_str("}\n");
    match std::fs::write("BENCH_concurrency.json", &out) {
        Ok(()) => println!("(wrote BENCH_concurrency.json)"),
        Err(e) => println!("(could not write BENCH_concurrency.json: {e})"),
    }
}

// ---------------------------------------------------------------------
// T17 — physical storage: version-chain length vs duplication factor
// (EXPERIMENTS_ONLY=T17)
// ---------------------------------------------------------------------

/// One sweep point of the T17 chain-length experiment (serialized to
/// BENCH_storage.json).
struct T17Row {
    chain_len: usize,
    keys: usize,
    versions: u64,
    pages: u32,
    bytes_on_disk: u64,
    occupancy_x1000: u64,
    bytes_per_version: u64,
    dup_factor_x1000: u64,
}

/// Grows per-key version chains by replacement rounds and reads the
/// paged heap's measured shape back through `physical_stats` — the same
/// numbers `sys$pages`, the exporter's `/storage` document, and
/// `analyze` report.  The paper's duplication argument (§5) is about
/// exactly this: every version of a key re-stores the bytes the
/// versions share.
fn t17_physical_storage() -> Vec<T17Row> {
    heading("T17: physical storage — version-chain length vs duplication factor");
    println!(
        "{:>6} | {:>6} | {:>9} | {:>6} | {:>9} | {:>9} | {:>7} | {:>8}",
        "chain", "keys", "versions", "pages", "disk KB", "occup ‰", "B/vers", "dup ‰"
    );
    const KEYS: usize = 128;
    let mut rows = Vec::new();
    for &chain in &[1usize, 2, 4, 8, 16, 32] {
        let mut table = StoredBitemporalTable::in_memory(
            chronos_core::schema::faculty_schema(),
            TemporalSignature::Interval,
        );
        let mut day = 1_000i64;
        for round in 0..chain {
            let mut ops = Vec::with_capacity(KEYS * 2);
            for k in 0..KEYS {
                let name = format!("prof{k:05}");
                if round > 0 {
                    let prev = format!("rank{:03}", round - 1);
                    ops.push(HistoricalOp::remove(RowSelector::tuple(tuple([
                        name.as_str(),
                        prev.as_str(),
                    ]))));
                }
                let rank = format!("rank{round:03}");
                ops.push(HistoricalOp::insert(
                    tuple([name.as_str(), rank.as_str()]),
                    Validity::Interval(Period::from_start(Chronon::new(day))),
                ));
            }
            table.try_commit(Chronon::new(day), &ops).expect("valid");
            day += 10;
        }
        let p = table.physical_stats().expect("stats");
        assert_eq!(
            p.versions,
            (KEYS * chain) as u64,
            "every replacement round adds one stored version per key"
        );
        println!(
            "{:>6} | {:>6} | {:>9} | {:>6} | {:>9.1} | {:>9} | {:>7} | {:>8}",
            chain,
            KEYS,
            p.versions,
            p.pages,
            p.bytes_on_disk as f64 / 1e3,
            p.occupancy_x1000,
            p.bytes_per_version,
            p.dup_factor_x1000,
        );
        rows.push(T17Row {
            chain_len: chain,
            keys: KEYS,
            versions: p.versions,
            pages: p.pages,
            bytes_on_disk: p.bytes_on_disk,
            occupancy_x1000: p.occupancy_x1000,
            bytes_per_version: p.bytes_per_version,
            dup_factor_x1000: p.dup_factor_x1000,
        });
    }
    println!("(each round closes a key's current version and opens a new one; the");
    println!(" versions of one key re-store the bytes they share, so the measured");
    println!(" duplication factor grows with chain length while bytes/version is flat)");
    rows
}

// ---------------------------------------------------------------------
// T16 — frozen segments: bytes/version + as-of point-query latency,
// heap vs segments (EXPERIMENTS_ONLY=T16)
// ---------------------------------------------------------------------

/// One sweep point of the T16 heap-vs-segment comparison.
struct T16Row {
    chain_len: usize,
    keys: usize,
    frozen_versions: u64,
    heap_bytes_per_version: u64,
    heap_dup_x1000: u64,
    seg_bytes_per_version: u64,
    seg_dup_x1000: u64,
    seg_file_bytes: u64,
    heap_lookup_ns: u64,
    seg_lookup_ns: u64,
    speedup_x1000: u64,
}

/// Grows per-key version chains by replacement rounds (the T17
/// driver); returns the commit days, for picking as-of probe times.
fn t16_drive(table: &mut StoredBitemporalTable, keys: usize, chain: usize) -> Vec<i64> {
    let mut days = Vec::with_capacity(chain);
    let mut day = 1_000i64;
    for round in 0..chain {
        let mut ops = Vec::with_capacity(keys * 2);
        for k in 0..keys {
            let name = format!("prof{k:05}");
            if round > 0 {
                let prev = format!("rank{:03}", round - 1);
                ops.push(HistoricalOp::remove(RowSelector::tuple(tuple([
                    name.as_str(),
                    prev.as_str(),
                ]))));
            }
            let rank = format!("rank{round:03}");
            ops.push(HistoricalOp::insert(
                tuple([name.as_str(), rank.as_str()]),
                Validity::Interval(Period::from_start(Chronon::new(day))),
            ));
        }
        table.try_commit(Chronon::new(day), &ops).expect("valid");
        days.push(day);
        day += 10;
    }
    days
}

/// Freezes one of two identically-driven tables and measures both
/// physical shape (bytes/version, duplication) and as-of point-lookup
/// latency, heap vs segment.  Asserted, so a codec or access-path
/// regression fails the run: ≤1.3× duplication at chain length 32,
/// byte-identical answers, a segment lookup touching exactly one chain,
/// and a heap lookup decoding only the versions stored at the probe.
/// The latencies are printed and recorded, not gated: both paths cost
/// a key's versions, and which is faster depends on chain length.
fn t16_frozen_segments() -> Vec<T16Row> {
    heading("T16: frozen segments — bytes/version + as-of point lookup, heap vs segments");
    println!(
        "{:>6} | {:>8} | {:>8} | {:>7} | {:>7} | {:>9} | {:>9} | {:>8}",
        "chain", "B/v heap", "B/v seg", "dup hp", "dup seg", "heap ns", "seg ns", "speedup"
    );
    const KEYS: usize = 128;
    let mut rows = Vec::new();
    for &chain in &[4usize, 8, 16, 32] {
        let schema = chronos_core::schema::faculty_schema();
        let mut heap_only =
            StoredBitemporalTable::in_memory(schema.clone(), TemporalSignature::Interval);
        let mut frozen = StoredBitemporalTable::in_memory(schema, TemporalSignature::Interval);
        let days = t16_drive(&mut heap_only, KEYS, chain);
        t16_drive(&mut frozen, KEYS, chain);
        let heap_recorder = Arc::new(Recorder::new());
        heap_only.set_recorder(Arc::clone(&heap_recorder));
        let seg_recorder = Arc::new(Recorder::new());
        frozen.set_recorder(Arc::clone(&seg_recorder));

        let seg_path =
            std::env::temp_dir().join(format!("chronos-t16-{}-{chain}.seg", std::process::id()));
        let _ = std::fs::remove_file(&seg_path);
        let report = frozen
            .freeze_into(&seg_path)
            .expect("freeze")
            .expect("chains past round one always leave closed versions");
        assert_eq!(report.versions, (KEYS * (chain - 1)) as u64);
        let heap_stats = heap_only.physical_stats().expect("stats");
        let seg_stats = frozen.segments()[0].stats();

        // As-of point probes in the middle of history: every key is
        // alive with `chain` versions, one of them stored at the probe.
        // The heap picks that one from the key index by period before
        // decoding; the segment walks the key's delta chain.
        let probes: Vec<(Value, Chronon)> = (0..64)
            .map(|i| {
                (
                    Value::str(format!("prof{:05}", (i * 7) % KEYS)),
                    Chronon::new(days[(i * 5) % (chain - 1)] + 5),
                )
            })
            .collect();
        for (key, t) in &probes {
            let mut a: Vec<String> = heap_only
                .lookup_key_as_of(key, *t)
                .expect("heap lookup")
                .iter()
                .map(|r| format!("{r:?}"))
                .collect();
            let mut b: Vec<String> = frozen
                .lookup_key_as_of(key, *t)
                .expect("segment lookup")
                .iter()
                .map(|r| format!("{r:?}"))
                .collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "heap and segment answers must be byte-identical");
            assert_eq!(a.len(), 1, "one version of {key} is stored as of {t}");
            let heap = t16_trace(&heap_recorder, || heap_only.lookup_key_as_of(key, *t));
            let read = heap.span_named("storage/asof").expect("keyed read span");
            assert_eq!(read.detail, "key index");
            assert_eq!(
                (read.rows_in, heap.delta.index_probes),
                (Some(1), 1),
                "a heap lookup decodes only the version stored at the probe"
            );
            let seg = t16_trace(&seg_recorder, || frozen.lookup_key_as_of(key, *t));
            assert_eq!(
                (seg.delta.segment_hits, seg.delta.segment_skips),
                (1, 0),
                "a segment lookup touches one chain"
            );
        }
        let mut i = 0usize;
        let heap_ns = time_ns(64, || {
            let (key, t) = &probes[i % probes.len()];
            i += 1;
            std::hint::black_box(heap_only.lookup_key_as_of(key, *t).expect("heap lookup"));
        });
        let mut j = 0usize;
        let seg_ns = time_ns(64, || {
            let (key, t) = &probes[j % probes.len()];
            j += 1;
            std::hint::black_box(frozen.lookup_key_as_of(key, *t).expect("segment lookup"));
        });
        let speedup_x1000 = heap_ns * 1000 / seg_ns.max(1);
        assert!(
            chain != 32 || seg_stats.dup_factor_x1000 <= 1300,
            "segment duplication at chain 32 must stay ≤1.3x: {}",
            seg_stats.dup_factor_x1000
        );
        println!(
            "{:>6} | {:>8} | {:>8} | {:>7} | {:>7} | {:>9} | {:>9} | {:>7.2}x",
            chain,
            heap_stats.bytes_per_version,
            seg_stats.bytes_per_version,
            heap_stats.dup_factor_x1000,
            seg_stats.dup_factor_x1000,
            heap_ns,
            seg_ns,
            speedup_x1000 as f64 / 1000.0,
        );
        rows.push(T16Row {
            chain_len: chain,
            keys: KEYS,
            frozen_versions: report.versions,
            heap_bytes_per_version: heap_stats.bytes_per_version,
            heap_dup_x1000: heap_stats.dup_factor_x1000,
            seg_bytes_per_version: seg_stats.bytes_per_version,
            seg_dup_x1000: seg_stats.dup_factor_x1000,
            seg_file_bytes: seg_stats.file_bytes,
            heap_lookup_ns: heap_ns,
            seg_lookup_ns: seg_ns,
            speedup_x1000,
        });
        drop(frozen);
        let _ = std::fs::remove_file(&seg_path);
    }
    println!("(the heap re-stores what a key's versions share and decodes the one");
    println!(" version its key index picks by period; the segment stores prefix/suffix");
    println!(" deltas and decodes the one chain found by bloom filter + binary search)");
    rows
}

/// The trace of one lookup on a table routed to `recorder`.
fn t16_trace<T>(
    recorder: &Recorder,
    lookup: impl FnOnce() -> chronos_storage::StorageResult<T>,
) -> chronos_obs::TraceReport {
    let before = recorder.snapshot();
    recorder.begin_trace();
    lookup().expect("lookup");
    recorder.end_trace(&before).expect("capture active")
}

/// Emits the T17 sweep and the T16 heap-vs-segment comparison as
/// `BENCH_storage.json` (hand-rolled JSON, same discipline as the
/// other BENCH_* writers).
fn write_bench_storage_json(t17: &[T17Row], t16: &[T16Row]) {
    let mut out = String::from("{\n  \"experiment\": \"T17 physical storage shape\",\n");
    out.push_str("  \"chain_sweep\": [\n");
    for (i, r) in t17.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"chain_len\": {}, \"keys\": {}, \"versions\": {}, \"pages\": {}, \
             \"bytes_on_disk\": {}, \"occupancy_x1000\": {}, \"bytes_per_version\": {}, \
             \"dup_factor_x1000\": {}}}{}\n",
            r.chain_len,
            r.keys,
            r.versions,
            r.pages,
            r.bytes_on_disk,
            r.occupancy_x1000,
            r.bytes_per_version,
            r.dup_factor_x1000,
            if i + 1 < t17.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"frozen_segments\": [\n");
    for (i, r) in t16.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"chain_len\": {}, \"keys\": {}, \"frozen_versions\": {}, \
             \"heap_bytes_per_version\": {}, \"heap_dup_x1000\": {}, \
             \"seg_bytes_per_version\": {}, \"seg_dup_x1000\": {}, \
             \"seg_file_bytes\": {}, \"heap_lookup_ns\": {}, \"seg_lookup_ns\": {}, \
             \"speedup_x1000\": {}}}{}\n",
            r.chain_len,
            r.keys,
            r.frozen_versions,
            r.heap_bytes_per_version,
            r.heap_dup_x1000,
            r.seg_bytes_per_version,
            r.seg_dup_x1000,
            r.seg_file_bytes,
            r.heap_lookup_ns,
            r.seg_lookup_ns,
            r.speedup_x1000,
            if i + 1 < t16.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    match std::fs::write("BENCH_storage.json", &out) {
        Ok(()) => println!("(wrote BENCH_storage.json)"),
        Err(e) => println!("(could not write BENCH_storage.json: {e})"),
    }
}
