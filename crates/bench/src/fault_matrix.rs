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
//! A second, smaller matrix fires the checkpoint and log-reset sites
//! ([`POLICY_SITES`]) inside the writer's own checkpoint, the one its
//! policy writes once the log outgrows the floor (the policy workload
//! asks for no checkpoint).  A crash there must lose no acknowledged
//! commit; an injected error must fail no commit, and a later group
//! must checkpoint again.  A site that fails every time, as on a full
//! disk, must cost at most one attempt per floor of log.
//!
//! Driver: `tests/fault_matrix.rs` (tier-1).

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use chronos_core::calendar::date;
use chronos_core::chronon::Chronon;
use chronos_core::clock::ManualClock;
use chronos_core::relation::temporal::TemporalStore as _;
use chronos_db::database::CHECKPOINT_LOG_FLOOR;
use chronos_db::{Database, Engine, ObsBootstrap};
use chronos_obs::fault::{self, FaultAction, FaultPlan, StorageFaults};
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

/// Commits in the policy workload: enough long replaces that the log
/// passes the checkpoint floor (16 KiB) twice.
pub const POLICY_COMMITS: usize = 48;

/// The sites a policy checkpoint passes through, in order.
pub const POLICY_SITES: &[&str] = &[
    "checkpoint.save.pre_write",
    "checkpoint.save.pre_rename",
    "checkpoint.save.post_rename",
    "wal.reset.pre_truncate",
    "wal.reset.post_truncate",
];

/// Step `i` of the policy workload at its own transaction time: the
/// DDL (step 0), two appends, then replaces alternating between the two
/// keys, each frame ~1 KiB.
fn policy_step(engine: &Arc<Engine>, clock: &ManualClock, i: usize) -> Result<(), String> {
    clock.advance_to(Chronon::new(d("01/01/80").ticks() + i as i64));
    let rank = format!("r{i}-{}", "x".repeat(480));
    let stmt = match i {
        0 => "create faculty (name = str, rank = str) as temporal".to_string(),
        1 | 2 => format!(r#"append to faculty (name = "k{i}", rank = "{rank}")"#),
        _ => format!(
            r#"range of f is faculty replace f (rank = "{rank}") where f.name = "k{}""#,
            1 + i % 2
        ),
    };
    engine
        .session()
        .run(&stmt)
        .map(drop)
        .map_err(|e| e.to_string())
}

/// Runs the policy workload's DDL and its first `commits` commits; the
/// error names the first failing step.
pub fn run_policy(engine: &Arc<Engine>, clock: &ManualClock, commits: usize) -> Result<(), String> {
    (0..=commits)
        .try_for_each(|i| policy_step(engine, clock, i).map_err(|e| format!("step {i}: {e}")))
}

/// The canonical rows of an in-memory oracle holding the first
/// `commits` commits of the policy workload.
pub fn policy_oracle_rows(commits: usize) -> Result<Vec<String>, String> {
    let clock = Arc::new(ManualClock::new(d("01/01/80")));
    let engine = Engine::start(Database::in_memory(Arc::clone(&clock) as _));
    run_policy(&engine, &clock, commits).map_err(|e| format!("oracle {e}"))?;
    engine.with_db(|db| canonical_rows(db, RELATION))
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
    if let Some((engine, clock)) = child_engine() {
        child_exit(run_steps(&engine, &clock, 0));
    }
}

/// [`maybe_run_child`] for the policy workload, which
/// [`run_policy_crash_matrix`] re-executes.  Each acknowledged commit
/// prints `acked N` before the next one starts, so the parent knows
/// which commits were promised durable.
pub fn maybe_run_policy_child() {
    if let Some((engine, clock)) = child_engine() {
        child_exit((0..=POLICY_COMMITS).try_for_each(|i| {
            policy_step(&engine, &clock, i).map_err(|e| (i, e))?;
            println!("acked {i}");
            Ok(())
        }));
    }
}

/// In a crash-matrix child, arms the fault from the environment and
/// opens the child's database; `None` in any other process.
fn child_engine() -> Option<(Arc<Engine>, Arc<ManualClock>)> {
    std::env::var(CHILD_MARK_ENV).ok()?;
    let dir = PathBuf::from(std::env::var(CHILD_DIR_ENV).expect("child needs CHRONOS_FAULT_DIR"));
    fault::arm_from_env();
    let clock = Arc::new(ManualClock::new(d("01/01/80")));
    let obs = ObsBootstrap::new();
    match Database::open_with_obs(&dir, Arc::clone(&clock) as _, &obs) {
        Ok(db) => Some((Engine::start(db), clock)),
        Err(e) => {
            eprintln!("fault child: open failed: {e}");
            std::process::exit(3);
        }
    }
}

/// Ends a child whose workload returned instead of being killed.
fn child_exit(outcome: Result<(), (usize, String)>) -> ! {
    // A site on the writer thread kills the whole process all the same.
    match outcome {
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

/// What a crash row's recovered state is checked against: the
/// workload's commit count and its oracle for a durable prefix.
struct Oracle {
    commits: usize,
    rows: fn(usize) -> Result<Vec<String>, String>,
}

/// Runs the crash matrix: for every site spec, spawn a child of
/// `child_exe child_args..` with the fault armed, assert it dies with
/// [`fault::CRASH_EXIT_CODE`], recover the directory, and verify.
/// Returns one human-readable summary line per site, or a combined
/// failure report.
pub fn run_crash_matrix(child_exe: &Path, child_args: &[String]) -> Result<Vec<String>, String> {
    let oracle = Oracle {
        commits: total_commits(),
        rows: oracle_rows,
    };
    crash_rows(child_exe, child_args, "", site_specs(), &oracle)
}

/// The crash matrix over the policy checkpoint: each of
/// [`POLICY_SITES`] kills a [`maybe_run_policy_child`] at its first
/// hit, which falls in the first checkpoint the writer's policy writes.
/// Recovery must hold every commit the child saw acknowledged, and
/// pass every check of [`run_crash_matrix`].
pub fn run_policy_crash_matrix(
    child_exe: &Path,
    child_args: &[String],
) -> Result<Vec<String>, String> {
    let specs = POLICY_SITES
        .iter()
        .map(|&site| SiteSpec {
            site,
            hit: 1,
            keep: None,
        })
        .collect();
    let oracle = Oracle {
        commits: POLICY_COMMITS,
        rows: policy_oracle_rows,
    };
    crash_rows(child_exe, child_args, "policy.", specs, &oracle)
}

fn crash_rows(
    child_exe: &Path,
    child_args: &[String],
    tag: &str,
    specs: Vec<SiteSpec>,
    oracle: &Oracle,
) -> Result<Vec<String>, String> {
    let baseline = figures_digest();
    matrix_rows(
        "crash",
        &specs,
        |spec| spec.site,
        |spec| {
            let dir = matrix_dir(&format!("{tag}{}", spec.site));
            run_one_site(child_exe, child_args, spec, &dir, oracle, &baseline)
        },
    )
}

/// Runs `one` on every row of a matrix, then clears any fault plan the
/// rows left installed.  Returns one summary line per row, or a report
/// naming (by `site`) every row that failed; `what` names the matrix.
fn matrix_rows<T>(
    what: &str,
    rows: &[T],
    site: impl Fn(&T) -> &str,
    mut one: impl FnMut(&T) -> Result<String, String>,
) -> Result<Vec<String>, String> {
    let mut summaries = Vec::new();
    let mut failures = Vec::new();
    for row in rows {
        match one(row) {
            Ok(line) => summaries.push(line),
            Err(e) => failures.push(format!("{}: {e}", site(row))),
        }
    }
    fault::clear();
    if failures.is_empty() {
        Ok(summaries)
    } else {
        Err(format!(
            "{} of {} {what} sites failed verification:\n  {}",
            failures.len(),
            rows.len(),
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
    dir: &Path,
    oracle: &Oracle,
    figures_baseline: &str,
) -> Result<String, String> {
    // 1 + 2: workload in a child, killed at the armed site.
    let mut cmd = Command::new(child_exe);
    cmd.args(child_args)
        .env(CHILD_MARK_ENV, "1")
        .env(CHILD_DIR_ENV, dir)
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
    // The last commit the child printed as acknowledged, if it prints.
    let acked = String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|l| l.strip_prefix("acked ")?.parse::<usize>().ok())
        .max()
        .unwrap_or(0);
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
    let db = Database::open_with_obs(dir, clock as _, &obs)
        .map_err(|e| format!("recovery failed: {e}"))?;
    let (post, _) = http_get(&addr, "/readyz").map_err(|e| format!("readyz post: {e}"))?;
    if post != 200 {
        return Err(format!("/readyz after recovery was {post}, want 200"));
    }

    // 4a: oracle equality over the durable commit prefix.
    let commits = commits_in(&db);
    if commits > oracle.commits {
        return Err(format!(
            "recovered {commits} commits, workload only has {}",
            oracle.commits
        ));
    }
    if commits < acked {
        return Err(format!(
            "recovered {commits} commits, but {acked} were acknowledged"
        ));
    }
    let got = canonical_rows(&db, RELATION)?;
    let want = (oracle.rows)(commits)?;
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
    let _ = std::fs::remove_dir_all(dir);
    Ok(format!(
        "{:<28} hit {} → crash; {} commits durable, {} seen acknowledged ({} replayed, {} skipped, {} torn bytes); oracle + journal + readyz + figures ok",
        spec.site, spec.hit, commits, acked, expect_replayed, expect_skipped, on_disk.torn_bytes
    ))
}

/// Runs the unwind matrix in-process: every site fires as an injected
/// `Err` instead of a crash.  The faulted operation must fail
/// gracefully (no panic; a failed group fsync poisons the engine, which
/// must then refuse further work): after a reopen the database holds
/// exactly the committed prefix, the workload retries to completion,
/// and the final state equals the full oracle.
pub fn run_unwind_matrix() -> Result<Vec<String>, String> {
    matrix_rows("unwind", &site_specs(), |spec| spec.site, run_one_unwind)
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

/// The site that fails every time in the policy unwind matrix's
/// lasting-failure row.
pub const LASTING_FAILURE_SITE: &str = "checkpoint.save.pre_write";

/// The unwind matrix over the policy checkpoint.  Each of
/// [`POLICY_SITES`] fails with an injected error at its first hit, in
/// the first checkpoint the writer's policy writes.  No caller waits on
/// that checkpoint, so every commit must still succeed; the failure
/// must be counted (`checkpoint_failures`) and journaled
/// (`db_checkpoint_failed`), a later group must checkpoint again, and
/// the state must equal the full oracle, live and after a reopen.  One
/// more row fails [`LASTING_FAILURE_SITE`] on every hit, as a full disk
/// would: the commits must still succeed, and the policy must try at
/// most once per [`CHECKPOINT_LOG_FLOOR`] of log, not once per group.
pub fn run_policy_unwind_matrix() -> Result<Vec<String>, String> {
    let rows: Vec<(&str, bool)> = POLICY_SITES
        .iter()
        .map(|&site| (site, false))
        .chain([(LASTING_FAILURE_SITE, true)])
        .collect();
    matrix_rows(
        "policy",
        &rows,
        |row| row.0,
        |&(site, lasting)| run_one_policy_unwind(site, lasting),
    )
}

/// A plan that fails every hit of one site: a lasting fault, such as a
/// full disk.
struct EveryHit(&'static str);

impl StorageFaults for EveryHit {
    fn decide(&self, site: &str, _hit: u64, _len: usize) -> FaultAction {
        if site == self.0 {
            FaultAction::Error
        } else {
            FaultAction::Proceed
        }
    }
}

fn run_one_policy_unwind(site: &'static str, lasting: bool) -> Result<String, String> {
    let tag = if lasting { "lasting" } else { "unwind" };
    let dir = matrix_dir(&format!("policy-{tag}.{site}"));
    let clock = Arc::new(ManualClock::new(d("01/01/80")));
    let engine = Database::open(&dir, Arc::clone(&clock) as _)
        .map(Engine::start)
        .map_err(|e| format!("open: {e}"))?;
    if lasting {
        fault::install(Arc::new(EveryHit(site)));
    } else {
        fault::install(Arc::new(FaultPlan::error_at(site, 1)));
    }
    let outcome = run_policy(&engine, &clock, POLICY_COMMITS);
    // The writer checkpoints after a group's acks: a round trip through
    // it lets the last group's checkpoint finish under the plan.
    let drained = engine.exclusive(|_| ());
    fault::clear();
    outcome.map_err(|e| format!("{e}: a policy checkpoint's error failed a commit"))?;
    drained.map_err(|e| format!("writer after the workload: {e}"))?;
    let metrics = engine.stats().metrics;
    let journal =
        std::fs::read_to_string(dir.join("events.jsonl")).map_err(|e| format!("journal: {e}"))?;
    let is = |line: &str, event: &str| line.contains(&format!("\"event\": \"{event}\""));
    let failed: Vec<usize> = (journal.lines().enumerate())
        .filter(|(_, l)| is(l, "db_checkpoint_failed"))
        .map(|(i, _)| i)
        .collect();
    if failed.len() as u64 != metrics.checkpoint_failures {
        return Err(format!(
            "{} failures journaled, {} counted",
            failed.len(),
            metrics.checkpoint_failures
        ));
    }
    let first_failed = *failed.first().ok_or("no failure was journaled")?;
    if !journal
        .lines()
        .nth(first_failed)
        .is_some_and(|l| l.contains(site))
    {
        return Err("the journaled failure does not name the site".into());
    }
    let detail = if lasting {
        if metrics.checkpoints != 0 {
            return Err(format!(
                "{} checkpoints written past a site that always fails",
                metrics.checkpoints
            ));
        }
        // Every attempt failed, so the log still holds every commit; a
        // retry per group would have tried once per commit.
        drop(engine);
        let log = Wal::recover(&dir.join("wal"))
            .map_err(|e| format!("log scan: {e}"))?
            .valid_len;
        let bound = log / CHECKPOINT_LOG_FLOOR;
        if metrics.checkpoint_failures > bound {
            return Err(format!(
                "{} attempts over {log} B of log, want at most {bound} (one per {CHECKPOINT_LOG_FLOOR} B)",
                metrics.checkpoint_failures
            ));
        }
        format!(
            "fails every hit; {} attempts over {log} B of log (bound {bound})",
            metrics.checkpoint_failures
        )
    } else {
        if metrics.checkpoint_failures != 1 {
            return Err(format!(
                "{} policy checkpoints counted as failed, want 1",
                metrics.checkpoint_failures
            ));
        }
        if !journal
            .lines()
            .skip(first_failed)
            .any(|l| is(l, "db_checkpoint_finish"))
        {
            return Err("no checkpoint finished after the failure".into());
        }
        let want = policy_oracle_rows(POLICY_COMMITS)?;
        if engine.with_db(|db| canonical_rows(db, RELATION))? != want {
            return Err("live state diverges from the full oracle".into());
        }
        drop(engine);
        format!(
            "error in a policy checkpoint; {} checkpoints written",
            metrics.checkpoints
        )
    };
    let db = Database::open(&dir, Arc::new(ManualClock::new(d("01/01/81"))) as _)
        .map_err(|e| format!("reopen: {e}"))?;
    if canonical_rows(&db, RELATION)? != policy_oracle_rows(POLICY_COMMITS)? {
        return Err("durable state diverges from the full oracle".into());
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    Ok(format!(
        "{site:<28} {detail}; {POLICY_COMMITS} commits ok; full-oracle equality ok"
    ))
}
