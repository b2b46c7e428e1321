//! The crash matrix as a tier-1 test: every registered crash site runs
//! workload → crash → recover → verify (oracle equality, journal
//! consistency, `/readyz` 503 → 200, byte-identical paper figures), and
//! every site also unwinds gracefully in error mode.  The crash half
//! re-executes this test binary filtered down to [`crash_child_entry`],
//! which the armed fault kills with exit code 86.
//!
//! The matrix itself lives in `chronos_bench::fault_matrix`.

use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

use chronos_bench::fault_matrix as fm;
use chronos_core::calendar::date;
use chronos_core::clock::ManualClock;
use chronos_core::relation::temporal::TemporalStore as _;
use chronos_db::{Database, Engine};
use chronos_obs::fault::{self, FaultPlan};
use chronos_storage::table::CurrentOrder;
use chronos_storage::wal::Wal;
use proptest::prelude::*;

/// Serializes the tests that install process-global fault plans (or,
/// for the crash matrix, recover databases that would trip over an
/// armed plan) against each other.
fn fault_lock() -> MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Child entry point for the crash matrix.  In an ordinary test run
/// (no `CHRONOS_FAULT_CHILD` in the environment) this is a no-op; when
/// the matrix re-executes this binary with the fault armed, the
/// workload runs here and the armed site kills the process.
#[test]
fn crash_child_entry() {
    fm::maybe_run_child();
}

#[test]
fn every_crash_site_recovers_to_oracle_state() {
    let _g = fault_lock();
    let exe = std::env::current_exe().expect("own executable path");
    let args: Vec<String> = ["crash_child_entry", "--exact", "--nocapture"]
        .iter()
        .map(ToString::to_string)
        .collect();
    let lines = fm::run_crash_matrix(&exe, &args).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(lines.len(), fault::CRASH_SITES.len());
}

#[test]
fn every_site_unwinds_gracefully() {
    let _g = fault_lock();
    let lines = fm::run_unwind_matrix().unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(lines.len(), fault::CRASH_SITES.len());
}

/// The paper figures are pure in-memory computations: an armed (but
/// never-firing) fault plan must not perturb a single byte of them.
#[test]
fn figures_regenerate_byte_identically_under_armed_plan() {
    let baseline = fm::figures_digest();
    {
        let _g = fault_lock();
        fault::install(Arc::new(FaultPlan::error_at("wal.append.pre_frame", 1)));
        let armed = fm::figures_digest();
        fault::clear();
        assert_eq!(baseline, armed, "figures changed under an armed fault plan");
    }
}

/// Builds a durable database holding the matrix workload's commits
/// (checkpoint skipped, so every commit is a WAL record) and returns
/// the WAL length.
fn populated(dir: &Path) -> u64 {
    let clock = Arc::new(ManualClock::new(date("01/01/80").unwrap()));
    let engine = Engine::start(Database::open(dir, Arc::clone(&clock) as _).expect("open fresh"));
    engine
        .session()
        .run("create faculty (name = str, rank = str) as temporal")
        .expect("ddl");
    for (day, stmt) in [
        (
            "02/01/80",
            r#"append to faculty (name = "Merrie", rank = "associate")"#,
        ),
        (
            "03/01/80",
            r#"append to faculty (name = "Tom", rank = "assistant")"#,
        ),
        (
            "04/01/80",
            r#"range of f is faculty replace f (rank = "full") where f.name = "Merrie""#,
        ),
        (
            "05/01/80",
            r#"append to faculty (name = "Mike", rank = "assistant")"#,
        ),
        (
            "06/01/80",
            r#"range of f is faculty delete f where f.name = "Tom""#,
        ),
        (
            "07/01/80",
            r#"append to faculty (name = "Ann", rank = "lecturer")"#,
        ),
    ] {
        clock.advance_to(date(day).unwrap());
        engine.session().run(stmt).expect("workload statement");
    }
    drop(engine);
    std::fs::metadata(dir.join("wal"))
        .expect("wal exists")
        .len()
}

/// A commit that validates, reaches the log, and then fails while it is
/// applied (the heap refuses the new version) is reported as failed, its
/// log record rolled back — and the process goes on with the table it
/// had: current-row index and heap still agree, so the statements that
/// walk every current row (an unkeyed `delete`, a checkpoint) keep
/// working, on every relation class.
#[test]
fn a_commit_that_fails_while_applied_leaves_index_and_heap_agreeing() {
    let _g = fault_lock();
    let dir = proptest_dir("apply");
    let clock = Arc::new(ManualClock::new(date("01/01/80").unwrap()));
    let engine = Engine::start(Database::open(&dir, Arc::clone(&clock) as _).expect("open fresh"));
    let state = |db: &Database, rel: &str| {
        let table = db.relation(rel).expect("defined").table();
        format!(
            "entries {:?}\nheap {:?}\nimage {:?}\ncommits {} wal {}",
            table.current_entries(None, CurrentOrder::Reference),
            table.scan_rows().expect("heap"),
            table.current_rows().expect("image"),
            table.transactions(),
            std::fs::metadata(dir.join("wal")).expect("wal").len(),
        )
    };
    for class in ["static", "rollback", "historical", "temporal"] {
        let rel = format!("f_{class}");
        let run = |stmt: &str| {
            clock.tick(1);
            engine.session().run(stmt)
        };
        run(&format!("create {rel} (name = str, rank = str) as {class}")).expect("ddl");
        run(&format!(
            r#"append to {rel} (name = "Merrie", rank = "full")"#
        ))
        .expect("append");
        run(&format!(r#"append to {rel} (name = "Tom", rank = "full")"#)).expect("append");
        let before = engine.with_db(|db| state(db, &rel));

        fault::install(Arc::new(FaultPlan::error_at("heap.insert", 1)));
        let refused = engine
            .session()
            .run(&format!(r#"append to {rel} (name = "Zed", rank = "full")"#));
        fault::clear();
        let err = refused
            .expect_err("the armed site fails the apply")
            .to_string();
        assert!(err.contains("heap.insert"), "{class}: {err}");
        assert_eq!(engine.with_db(|db| state(db, &rel)), before, "{class}");

        clock.tick(1);
        engine
            .session()
            .run(&format!(
                r#"range of f is {rel} delete f where f.rank = "full""#
            ))
            .unwrap_or_else(|e| panic!("{class}: unkeyed delete after the failure: {e}"));
        let rows = engine.with_db(|db| db.relation(&rel).unwrap().scan(None, None).unwrap());
        assert!(
            rows.iter().all(|row| {
                // Nothing is current any more (valid-time classes keep the
                // facts, ended at the delete).
                row.validity.is_some_and(|v| {
                    v.period().end() < chronos_core::timepoint::TimePoint::PlusInfinity
                })
            }),
            "{class}"
        );
    }
    engine.checkpoint().expect("checkpoint after the failures");
    drop(engine);
    Database::open(&dir, clock as _).expect("reopen");
    let _ = std::fs::remove_dir_all(&dir);
}

fn proptest_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("chronos-faultpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Recovery after arbitrary WAL damage: open must always succeed, and
/// must recover exactly the intact record prefix the damaged bytes
/// still encode (per [`Wal::recover`]'s own scan).
fn assert_recovers_prefix(dir: &Path) {
    let expected = Wal::recover(&dir.join("wal"))
        .expect("recover scans any byte soup")
        .records
        .len();
    let db = Database::open(
        dir,
        Arc::new(ManualClock::new(date("01/01/81").unwrap())) as _,
    )
    .expect("open after damage must degrade gracefully, not fail");
    let commits = db
        .relation(fm::RELATION)
        .map(|r| r.table().transactions())
        .unwrap_or(0);
    assert_eq!(commits, expected, "recovered commits != intact WAL prefix");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Truncating the WAL at any byte offset (a torn final write) must
    /// recover the longest intact record prefix.
    #[test]
    fn truncated_wal_recovers_intact_prefix(pct in 0u64..=100) {
        let _g = fault_lock();
        let dir = proptest_dir("cut");
        let len = populated(&dir);
        let cut = len * pct / 100;
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("wal"))
            .expect("open wal");
        f.set_len(cut).expect("truncate");
        drop(f);
        assert_recovers_prefix(&dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flipping any single byte (bit-rot anywhere in the log) must
    /// recover the prefix before the damaged record.
    #[test]
    fn byte_flip_recovers_intact_prefix(pct in 0u64..100, bit in 0u32..8) {
        let _g = fault_lock();
        let dir = proptest_dir("flip");
        let len = populated(&dir);
        let pos = len.saturating_sub(1) * pct / 100;
        let path = dir.join("wal");
        let mut bytes = std::fs::read(&path).expect("read wal");
        bytes[pos as usize] ^= 1u8 << bit;
        std::fs::write(&path, &bytes).expect("write damaged wal");
        assert_recovers_prefix(&dir);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
