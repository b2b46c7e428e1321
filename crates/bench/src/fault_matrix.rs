//! The crash-matrix torture harness.
//!
//! For every crash site in [`chronos_obs::fault::CRASH_SITES`] this
//! module runs the cycle the durability story is supposed to survive:
//!
//! 1. **workload** — a child process (re-executed from the current
//!    binary, armed via `CHRONOS_FAULT_*` environment variables) runs a
//!    fixed TQuel workload against a durable database;
//! 2. **crash** — the armed site kills the child with
//!    [`fault::CRASH_EXIT_CODE`] partway through;
//! 3. **recover** — the parent reopens the directory through an
//!    [`ObsBootstrap`], watching `/readyz` flip 503 → 200;
//! 4. **verify** — the recovered state must equal an in-memory oracle
//!    replaying the durable commit prefix, the journal's `recovery`
//!    event must agree with the bytes actually on disk, a torn tail
//!    must be journaled as `wal_truncated`, and every paper figure must
//!    still regenerate byte-identically.
//!
//! The same workload also runs in **unwind mode** (in-process, the
//! fault surfaces as an `Err` instead of killing the process) to prove
//! the error paths degrade gracefully: the failed operation reports an
//! error (a failed group fsync also poisons the engine), a reopen
//! recovers exactly the committed prefix, and the workload then
//! completes.
//!
//! Both modes drive the workload through an [`Engine`], the one path
//! every session takes, so each commit is one group-commit batch.
//!
//! Driver: `tests/fault_matrix.rs` (tier-1).

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use chronos_core::calendar::date;
use chronos_core::chronon::Chronon;
use chronos_core::clock::ManualClock;
use chronos_core::relation::temporal::TemporalStore as _;
use chronos_db::{Database, Engine, ObsBootstrap};
use chronos_obs::fault::{self, FaultPlan};
use chronos_obs::http_get;
use chronos_storage::wal::Wal;

/// Environment variable carrying the child's database directory.
pub const CHILD_DIR_ENV: &str = "CHRONOS_FAULT_DIR";
/// Environment variable marking a process as a crash-matrix child.
pub const CHILD_MARK_ENV: &str = "CHRONOS_FAULT_CHILD";

/// The relation the workload drives.
pub const RELATION: &str = "faculty";

fn d(s: &str) -> Chronon {
    date(s).expect("fixed workload date parses")
}

/// One step of the deterministic workload.  Each step advances the
/// manual clock to its date first, so transaction times are a pure
/// function of the step index — identical in the child, the oracle,
/// and any retry.
pub enum Step {
    /// A TQuel statement (DDL or modification).
    Stmt(&'static str, &'static str),
    /// A read-only query (drives the scan/pager paths; no state).
    Query(&'static str, &'static str),
    /// `Engine::checkpoint()`.
    Checkpoint(&'static str),
    /// `freeze faculty` — migrates closed versions into a segment (no
    /// logical state; the heap stays authoritative until the segment
    /// is durable and mapped).
    Freeze(&'static str),
}

/// The fixed workload: 6 commits around one checkpoint, plus a query.
/// It exercises every registered crash site — WAL appends (commits),
/// WAL reset + checkpoint save (the checkpoint), pager allocate/read
/// and heap insert (physical applies), and the journal (the open's
/// recovery events and the checkpoint's).
pub const STEPS: &[Step] = &[
    Step::Stmt(
        "01/01/80",
        "create faculty (name = str, rank = str) as temporal",
    ),
    Step::Stmt(
        "02/01/80",
        r#"append to faculty (name = "Merrie", rank = "associate")"#,
    ),
    Step::Stmt(
        "03/01/80",
        r#"append to faculty (name = "Tom", rank = "assistant")"#,
    ),
    Step::Stmt(
        "04/01/80",
        r#"range of f is faculty replace f (rank = "full") where f.name = "Merrie""#,
    ),
    Step::Query(
        "04/15/80",
        r#"range of f is faculty retrieve (f.name, f.rank)"#,
    ),
    Step::Checkpoint("05/01/80"),
    Step::Stmt(
        "06/01/80",
        r#"append to faculty (name = "Mike", rank = "assistant")"#,
    ),
    Step::Stmt(
        "07/01/80",
        r#"range of f is faculty delete f where f.name = "Tom""#,
    ),
    Step::Stmt(
        "08/01/80",
        r#"append to faculty (name = "Ann", rank = "lecturer")"#,
    ),
    // The replace and the delete above closed two versions: freezable.
    Step::Freeze("09/01/80"),
];

/// Number of commit steps in [`STEPS`].
pub fn total_commits() -> usize {
    STEPS
        .iter()
        .filter(|s| matches!(s, Step::Stmt(_, stmt) if !stmt.starts_with("create")))
        .count()
}

/// Runs `STEPS[from..]` through `engine`, advancing `clock` per step.
/// Every statement runs in a fresh snapshot-pinned session, so each
/// commit is one group-commit batch and every data-carrying
/// `Wal::group_sync` is a scheduled hit of the sync sites.  Returns the
/// index of the first failing step with its error.
pub fn run_steps(
    engine: &Arc<Engine>,
    clock: &ManualClock,
    from: usize,
) -> Result<(), (usize, String)> {
    for (i, step) in STEPS.iter().enumerate().skip(from) {
        let result = match step {
            Step::Stmt(day, stmt) => {
                clock.advance_to(d(day));
                engine.session().run(stmt).map(drop)
            }
            Step::Query(day, q) => {
                clock.advance_to(d(day));
                engine.session().query(q).map(drop)
            }
            Step::Checkpoint(day) => {
                clock.advance_to(d(day));
                engine.checkpoint()
            }
            Step::Freeze(day) => {
                clock.advance_to(d(day));
                engine.session().run("freeze faculty").map(drop)
            }
        };
        result.map_err(|e| (i, e.to_string()))?;
    }
    Ok(())
}

/// The canonical rows (see [`canonical_rows`]) of an in-memory oracle
/// holding the first `commits` commits of the workload (the DDL always
/// runs; checkpoints, queries and freezes are no-ops for logical
/// state).
pub fn oracle_rows(commits: usize) -> Result<Vec<String>, String> {
    let clock = Arc::new(ManualClock::new(d("01/01/80")));
    let engine = Engine::start(Database::in_memory(Arc::clone(&clock) as _));
    let mut done = 0usize;
    for step in STEPS {
        if let Step::Stmt(day, stmt) = step {
            let is_commit = !stmt.starts_with("create");
            if is_commit && done >= commits {
                break;
            }
            clock.advance_to(d(day));
            engine.session().run(stmt).expect("oracle workload step");
            done += usize::from(is_commit);
        }
    }
    engine.with_db(|db| canonical_rows(db, RELATION))
}

/// How many commits `db`'s copy of the workload relation holds.
fn commits_in(db: &Database) -> usize {
    db.relation(RELATION)
        .map(|r| r.table().transactions())
        .unwrap_or(0)
}

/// Canonical, order-independent rendering of a temporal relation's
/// complete bitemporal content (tuples, valid time, transaction time).
pub fn canonical_rows(db: &Database, relation: &str) -> Result<Vec<String>, String> {
    let Some(rel) = db.relation(relation) else {
        return Ok(Vec::new());
    };
    let rows = rel
        .table()
        .scan_rows()
        .map_err(|e| format!("scan_rows: {e}"))?;
    let mut out: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    Ok(out)
}

/// Concatenation of every paper figure — the byte-identity baseline.
pub fn figures_digest() -> String {
    use crate::figures as f;
    [
        f::render_figure_1(),
        f::render_figure_2(),
        f::render_figure_3(),
        f::render_figure_4(),
        f::render_figure_5(),
        f::render_figure_6(),
        f::render_figure_7(),
        f::render_figure_8(),
        f::render_figure_9(),
        f::render_figure_10(),
        f::render_figure_11(),
        f::render_figure_12(),
        f::render_figure_13(),
    ]
    .concat()
}

/// The sites that fail inside `Wal::group_sync`.  An unwind at any of
/// them must poison the engine; an unwind anywhere else must not.
const GROUP_SYNC_SITES: &[&str] = &[
    "wal.group_sync.pre",
    "wal.group_fsync",
    "wal.group_sync.post",
];

/// Per-site schedule: which hit to fault, and the torn-write length
/// for the torn site.  Hits are chosen so every fault lands *mid*
/// workload (after some durable commits, before others).
pub struct SiteSpec {
    /// Site name (from [`fault::CRASH_SITES`]).
    pub site: &'static str,
    /// 1-based hit to fault on, counted from child process start.
    pub hit: u64,
    /// Torn-write prefix length, for the write site.
    pub keep: Option<usize>,
}

/// The matrix rows: every registered crash site, each with a hit count
/// placing the fault inside the workload.
pub fn site_specs() -> Vec<SiteSpec> {
    let spec = |site: &'static str, hit: u64, keep: Option<usize>| SiteSpec { site, hit, keep };
    let specs = vec![
        spec("wal.append.pre_frame", 2, None),
        spec("wal.append.frame", 3, Some(5)),
        // Each commit is its own group sync: hit 2 dies with the second
        // commit's frame full on disk but unsynced, hit 1 with the first
        // commit durable but never acknowledged.
        spec("wal.group_sync.pre", 2, None),
        spec("wal.group_sync.post", 1, None),
        spec("wal.reset.pre_truncate", 1, None),
        spec("wal.reset.post_truncate", 1, None),
        spec("pager.read.miss", 1, None),
        spec("pager.allocate", 1, None),
        spec("heap.insert", 3, None),
        spec("table.commit.apply", 2, None),
        spec("checkpoint.save.pre_write", 1, None),
        spec("checkpoint.save.pre_rename", 1, None),
        spec("checkpoint.save.post_rename", 1, None),
        // Commits journal nothing, so the open's two recovery events
        // are hits 1–2 and hit 3 is `db_checkpoint_start`, after three
        // durable commits.
        spec("journal.emit", 3, None),
        // The freeze step runs once, at the end of the workload; all 6
        // commits are durable when it dies, and the heap stays
        // authoritative at every point in the segment's tmp → fsync →
        // rename → mmap-validate pipeline.
        spec("segment.write", 1, None),
        spec("segment.rename", 1, None),
        spec("segment.mmap_open", 1, None),
        // A serial run of the 6-commit workload makes 6 data-carrying
        // group syncs; hit 4 is the first commit after the checkpoint,
        // so the crash leaves 3 commits durable (all covered by the
        // checkpoint image) and an empty log.
        spec("wal.group_fsync", 4, None),
    ];
    // The schedule and the registry must cover the same sites, or the
    // matrix silently under-tests.
    let registered: std::collections::BTreeSet<&str> =
        fault::CRASH_SITES.iter().map(|(s, _)| *s).collect();
    let scheduled: std::collections::BTreeSet<&str> = specs.iter().map(|s| s.site).collect();
    assert_eq!(
        registered, scheduled,
        "crash-site schedule out of sync with fault::CRASH_SITES"
    );
    specs
}

/// If this process is a crash-matrix child, run the workload (the
/// armed site will kill it) and never return.  Call first thing in any
/// binary that [`run_crash_matrix`] may re-execute.
pub fn maybe_run_child() {
    if std::env::var(CHILD_MARK_ENV).is_err() {
        return;
    }
    let dir = PathBuf::from(std::env::var(CHILD_DIR_ENV).expect("child needs CHRONOS_FAULT_DIR"));
    fault::arm_from_env();
    let clock = Arc::new(ManualClock::new(d("01/01/80")));
    let obs = ObsBootstrap::new();
    let engine = match Database::open_with_obs(&dir, Arc::clone(&clock) as _, &obs) {
        Ok(db) => Engine::start(db),
        Err(e) => {
            eprintln!("fault child: open failed: {e}");
            std::process::exit(3);
        }
    };
    // A site on the writer thread kills the whole process all the same.
    match run_steps(&engine, &clock, 0) {
        Ok(()) => {
            // The armed site never fired (or only unwound): the parent
            // treats exit 0 as "site not exercised" and fails the row.
            println!("fault child: workload completed without crashing");
            std::process::exit(0);
        }
        Err((i, e)) => {
            eprintln!("fault child: step {i} unwound instead of crashing: {e}");
            std::process::exit(4);
        }
    }
}

/// Runs the crash matrix: for every site spec, spawn a child of
/// `child_exe child_args..` with the fault armed, assert it dies with
/// [`fault::CRASH_EXIT_CODE`], recover the directory, and verify.
/// Returns one human-readable summary line per site, or a combined
/// failure report.
pub fn run_crash_matrix(child_exe: &Path, child_args: &[String]) -> Result<Vec<String>, String> {
    let baseline = figures_digest();
    let mut summaries = Vec::new();
    let mut failures = Vec::new();
    for spec in site_specs() {
        match run_one_site(child_exe, child_args, &spec, &baseline) {
            Ok(line) => summaries.push(line),
            Err(e) => failures.push(format!("{}: {e}", spec.site)),
        }
    }
    if failures.is_empty() {
        Ok(summaries)
    } else {
        Err(format!(
            "{} of {} crash sites failed verification:\n  {}",
            failures.len(),
            site_specs().len(),
            failures.join("\n  ")
        ))
    }
}

fn matrix_dir(site: &str) -> PathBuf {
    let safe = site.replace('.', "-");
    let dir = std::env::temp_dir().join(format!("chronos-faultmx-{safe}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_one_site(
    child_exe: &Path,
    child_args: &[String],
    spec: &SiteSpec,
    figures_baseline: &str,
) -> Result<String, String> {
    let dir = matrix_dir(spec.site);
    // 1 + 2: workload in a child, killed at the armed site.
    let mut cmd = Command::new(child_exe);
    cmd.args(child_args)
        .env(CHILD_MARK_ENV, "1")
        .env(CHILD_DIR_ENV, &dir)
        .env("CHRONOS_FAULT_SITE", spec.site)
        .env("CHRONOS_FAULT_HIT", spec.hit.to_string())
        .env("CHRONOS_FAULT_MODE", "crash")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped());
    match spec.keep {
        Some(k) => {
            cmd.env("CHRONOS_FAULT_KEEP", k.to_string());
        }
        None => {
            cmd.env_remove("CHRONOS_FAULT_KEEP");
        }
    }
    let out = cmd.output().map_err(|e| format!("spawning child: {e}"))?;
    let code = out.status.code();
    if code != Some(fault::CRASH_EXIT_CODE) {
        return Err(format!(
            "child exited with {code:?}, want {} (stderr: {})",
            fault::CRASH_EXIT_CODE,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    // What is actually durable on disk, before recovery touches it.
    let on_disk = Wal::recover(&dir.join("wal")).map_err(|e| format!("pre-recovery scan: {e}"))?;
    let floor = chronos_db::checkpoint::load(&dir.join("checkpoint"))
        .map_err(|e| format!("pre-recovery checkpoint load: {e}"))?
        .and_then(|c| c.wal_floor);
    let expect_replayed = on_disk
        .records
        .iter()
        .filter(|r| floor.is_none_or(|f| r.tx_time > f))
        .count();
    let expect_skipped = on_disk.records.len() - expect_replayed;

    // 3: recover behind a live exporter; /readyz must flip 503 → 200.
    let obs = ObsBootstrap::new();
    let server = obs
        .serve("127.0.0.1:0")
        .map_err(|e| format!("exporter: {e}"))?;
    let addr = server.addr().to_string();
    let (pre, _) = http_get(&addr, "/readyz").map_err(|e| format!("readyz pre: {e}"))?;
    if pre != 503 {
        return Err(format!("/readyz before recovery was {pre}, want 503"));
    }
    let clock = Arc::new(ManualClock::new(d("01/01/81")));
    let db = Database::open_with_obs(&dir, clock as _, &obs)
        .map_err(|e| format!("recovery failed: {e}"))?;
    let (post, _) = http_get(&addr, "/readyz").map_err(|e| format!("readyz post: {e}"))?;
    if post != 200 {
        return Err(format!("/readyz after recovery was {post}, want 200"));
    }

    // 4a: oracle equality over the durable commit prefix.
    let commits = commits_in(&db);
    if commits > total_commits() {
        return Err(format!(
            "recovered {commits} commits, workload only has {}",
            total_commits()
        ));
    }
    let got = canonical_rows(&db, RELATION)?;
    let want = oracle_rows(commits)?;
    if got != want {
        return Err(format!(
            "recovered state diverges from oracle at {commits} commits:\n  got: {got:#?}\n  want: {want:#?}"
        ));
    }

    // 4b: the journal's recovery event must match the bytes on disk.
    let journal =
        std::fs::read_to_string(dir.join("events.jsonl")).map_err(|e| format!("journal: {e}"))?;
    let recovery_line = journal
        .lines()
        .rfind(|l| l.contains("\"event\": \"recovery\""))
        .ok_or("no recovery event journaled")?;
    for (field, value) in [
        ("frames_replayed", expect_replayed as u64),
        ("frames_skipped", expect_skipped as u64),
        ("truncated_at", on_disk.valid_len),
    ] {
        let needle = format!("\"{field}\": {value}");
        if !recovery_line.contains(&needle) {
            return Err(format!(
                "recovery event lacks {needle} (line: {})",
                recovery_line.trim()
            ));
        }
    }
    if on_disk.torn_bytes > 0 && !journal.contains("\"event\": \"wal_truncated\"") {
        return Err("torn tail on disk but no wal_truncated event journaled".into());
    }

    // 4c: the paper figures still regenerate byte-identically.
    if figures_digest() != figures_baseline {
        return Err("paper figures no longer regenerate byte-identically".into());
    }

    drop(db);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(format!(
        "{:<28} hit {} → crash; {} commits durable ({} replayed, {} skipped, {} torn bytes); oracle + journal + readyz + figures ok",
        spec.site, spec.hit, commits, expect_replayed, expect_skipped, on_disk.torn_bytes
    ))
}

/// Runs the unwind matrix in-process: every site fires as an injected
/// `Err` instead of a crash.  The faulted operation must fail
/// gracefully (no panic; a failed group fsync poisons the engine, which
/// must then refuse further work): after a reopen the database holds
/// exactly the committed prefix, the workload retries to completion,
/// and the final state equals the full oracle.
pub fn run_unwind_matrix() -> Result<Vec<String>, String> {
    let mut summaries = Vec::new();
    let mut failures = Vec::new();
    for spec in site_specs() {
        match run_one_unwind(&spec) {
            Ok(line) => summaries.push(line),
            Err(e) => failures.push(format!("{}: {e}", spec.site)),
        }
    }
    fault::clear();
    if failures.is_empty() {
        Ok(summaries)
    } else {
        Err(format!(
            "{} of {} unwind sites failed verification:\n  {}",
            failures.len(),
            site_specs().len(),
            failures.join("\n  ")
        ))
    }
}

fn run_one_unwind(spec: &SiteSpec) -> Result<String, String> {
    let dir = matrix_dir(&format!("unwind.{}", spec.site));
    let clock = Arc::new(ManualClock::new(d("01/01/80")));
    let open = |what: &str| {
        Database::open(&dir, Arc::clone(&clock) as _)
            .map(Engine::start)
            .map_err(|e| format!("{what}: {e}"))
    };
    let mut engine = open("initial open")?;
    // Arm after open so hit 1 lands in the workload, not in recovery.
    fault::install(Arc::new(FaultPlan {
        site: spec.site.to_string(),
        hit: 1,
        torn_keep: spec.keep,
        unwind: true,
    }));
    let outcome = run_steps(&engine, &clock, 0);
    fault::clear();
    let detail = match outcome {
        Err((failed_at, err)) => {
            if !err.contains("injected fault") && !err.contains(spec.site) {
                return Err(format!(
                    "step {failed_at} failed with an unrelated error: {err}"
                ));
            }
            // A failed group sync leaves commits applied in memory that
            // the log no longer holds: the engine must poison itself, and
            // a retry on the same instance must be refused, not silently
            // absorbed.  Any other fault is rolled back in place and must
            // leave the engine serving.
            let poisons = GROUP_SYNC_SITES.contains(&spec.site);
            let refused = engine.exclusive(|_| ()).is_err();
            if poisons {
                if !refused {
                    return Err("the group sync failed but the engine still accepts work".into());
                }
                match run_steps(&engine, &clock, failed_at) {
                    Err((_, e)) if e.contains("poisoned") => {}
                    Err((i, e)) => {
                        return Err(format!(
                            "poisoned engine failed step {i} with the wrong error: {e}"
                        ))
                    }
                    Ok(()) => return Err("poisoned engine accepted further commits".into()),
                }
            } else if refused {
                return Err(format!(
                    "the engine refused work after a fault outside the group sync: {err}"
                ));
            }
            // The process survived; a restart must see a consistent
            // prefix, after which the workload completes.
            drop(engine);
            engine = open("reopen after injected error")?;
            let (commits, got) =
                engine.with_db(|db| (commits_in(db), canonical_rows(db, RELATION)));
            if got? != oracle_rows(commits)? {
                return Err(format!(
                    "state after injected error diverges from oracle at {commits} commits"
                ));
            }
            run_steps(&engine, &clock, failed_at)
                .map_err(|(i, e)| format!("retry from step {i} failed: {e}"))?;
            let poisoned = if poisons { "poisoned, " } else { "" };
            format!("error at step {failed_at}, {poisoned}reopened + retried")
        }
        Ok(()) => {
            // Only the journal site may swallow its fault (dropped
            // diagnostic event, by contract).
            if spec.site != "journal.emit" {
                return Err("workload completed but the site should have unwound".into());
            }
            "fault swallowed (diagnostic path)".to_string()
        }
    };
    let want = oracle_rows(total_commits())?;
    if engine.with_db(|db| canonical_rows(db, RELATION))? != want {
        return Err("final state diverges from the full oracle".into());
    }
    drop(engine);
    // And the completed state is durable.
    let db = Database::open(&dir, Arc::new(ManualClock::new(d("01/01/81"))) as _)
        .map_err(|e| format!("final reopen: {e}"))?;
    if canonical_rows(&db, RELATION)? != want {
        return Err("durable state diverges from the full oracle".into());
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(format!(
        "{:<28} {detail}; full-oracle equality ok",
        spec.site
    ))
}
