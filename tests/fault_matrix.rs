//! The fault matrix and the power-cut checker, as tier-1 tests.
//!
//! Every write a database makes goes through its `Disk` handle.  A
//! recording handle logs a workload's operations, and the [`Model`]
//! below replays that log into every disk state a power cut may leave
//! after each operation (POSIX's promises and no more):
//!
//! * unsynced appends are dropped, or torn at a prefix;
//! * a truncate or a whole-file write is lost unless its file was
//!   synced after it;
//! * a creation or rename is lost unless its directory was synced
//!   after it (a sync of any other directory, such as the parent the
//!   database directory was created in, changes nothing here);
//! * synced data survives.
//!
//! Each state is opened with `Database::open` and must hold exactly a
//! prefix of the workload: every acknowledged statement, and nothing
//! past the ones that had started.  The journal's `recovery` event must
//! match the bytes on disk.  The other rows inject faults through the
//! same handle: an error at one operation of each kind on each file
//! (the process goes on), and a crash inside the writer's policy
//! checkpoint (the handle fails every later call and changes nothing).

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use chronos_core::calendar::date;
use chronos_core::chronon::Chronon;
use chronos_core::clock::ManualClock;
use chronos_core::relation::temporal::TemporalStore as _;
use chronos_db::database::CHECKPOINT_LOG_FLOOR;
use chronos_db::{Database, DbResult, Engine, ObsBootstrap};
use chronos_obs::fault::{file_name, Fault, Op, OpKind};
use chronos_obs::{http_get, Disk};
use chronos_storage::inspect::scan_wal_bytes;
use chronos_storage::table::CurrentOrder;
use chronos_storage::wal::Wal;
use proptest::prelude::*;

// ------------------------------------------------------------------
// The power-cut model
// ------------------------------------------------------------------

/// A disk state: file name → content.
type State = BTreeMap<String, Vec<u8>>;

/// One file: what the process sees, and what a power cut may keep.
#[derive(Default)]
struct Inode {
    data: Vec<u8>,
    /// The content at the last sync: a cut keeps at least this.
    synced: Vec<u8>,
    /// A truncate or whole-file write since the last sync: a cut may
    /// undo it and keep `synced` whole.
    rewritten: bool,
    /// Lengths a cut may leave `data` at, past the last rewrite: each
    /// unsynced append dropped, or torn halfway.
    cuts: Vec<usize>,
}

impl Inode {
    fn append(&mut self, bytes: &[u8]) {
        let at = self.data.len();
        self.cuts.extend([at, at + bytes.len() / 2]);
        self.data.extend_from_slice(bytes);
    }

    fn rewrite(&mut self, len: usize) {
        self.data.truncate(len);
        self.rewritten = true;
        self.cuts.clear();
    }

    fn sync(&mut self) {
        self.synced = self.data.clone();
        self.rewritten = false;
        self.cuts.clear();
    }

    /// What a cut may leave; a diagnostic file (the journal) only
    /// whole or at its shortest, to keep the product small.
    fn candidates(&self, diagnostic: bool) -> Vec<&[u8]> {
        let mut all: Vec<&[u8]> = self.cuts.iter().map(|&n| &self.data[..n]).collect();
        all.push(&self.data);
        if self.rewritten {
            all.push(&self.synced);
        }
        all.sort();
        all.dedup();
        if diagnostic {
            let shortest = *all.iter().min_by_key(|c| c.len()).expect("data is one");
            all = vec![shortest, &self.data];
            all.dedup();
        }
        all
    }
}

/// A directory entry change, durable once the directory is synced.
enum Entry {
    Link(String, usize),
    Rename(String, String),
}

impl Entry {
    fn apply(&self, dir: &mut BTreeMap<String, usize>) {
        match self {
            Entry::Link(name, ino) => {
                dir.insert(name.clone(), *ino);
            }
            Entry::Rename(from, to) => {
                if let Some(ino) = dir.remove(from) {
                    dir.insert(to.clone(), ino);
                }
            }
        }
    }
}

/// One database directory, replayed from a recorded operation log.
struct Model {
    /// The directory whose entries the model tracks.
    dir: PathBuf,
    inodes: Vec<Inode>,
    /// The entries the process sees.
    names: BTreeMap<String, usize>,
    /// The entries as of the last directory sync.
    durable: BTreeMap<String, usize>,
    /// Entry changes since the last directory sync, in order.
    pending: Vec<Entry>,
}

impl Model {
    fn new(dir: &Path) -> Model {
        Model {
            dir: dir.to_path_buf(),
            inodes: Vec::new(),
            names: BTreeMap::new(),
            durable: BTreeMap::new(),
            pending: Vec::new(),
        }
    }

    fn inode(&mut self, path: &Path) -> &mut Inode {
        let name = file_name(path).to_string();
        let ino = match self.names.get(&name) {
            Some(&ino) => ino,
            None => {
                self.inodes.push(Inode::default());
                let ino = self.inodes.len() - 1;
                self.names.insert(name.clone(), ino);
                self.pending.push(Entry::Link(name, ino));
                ino
            }
        };
        &mut self.inodes[ino]
    }

    fn apply(&mut self, op: &Op) {
        let name = |p: &Path| file_name(p).to_string();
        match op {
            Op::Create(p) => {
                self.inode(p);
            }
            Op::Append(p, bytes) => self.inode(p).append(bytes),
            Op::Write(p, bytes) => {
                let inode = self.inode(p);
                inode.rewrite(0);
                inode.append(bytes);
            }
            Op::Sync(p) => self.inode(p).sync(),
            Op::Truncate(p, len) => self.inode(p).rewrite(*len as usize),
            Op::Rename(from, to) => {
                let entry = Entry::Rename(name(from), name(to));
                entry.apply(&mut self.names);
                self.pending.push(entry);
            }
            Op::SyncDir(d) if *d == self.dir => {
                self.durable = self.names.clone();
                self.pending.clear();
            }
            Op::SyncDir(_) => {}
        }
    }

    /// Every state a power cut may leave now: any subset of the pending
    /// entry changes, times each file's candidates.
    fn states(&self) -> BTreeSet<State> {
        assert!(self.pending.len() <= 12, "too many unsynced entries");
        let mut out = BTreeSet::new();
        for mask in 0..1u32 << self.pending.len() {
            let mut dir = self.durable.clone();
            for (i, entry) in self.pending.iter().enumerate() {
                if mask >> i & 1 == 1 {
                    entry.apply(&mut dir);
                }
            }
            let mut states = vec![State::new()];
            for (name, &ino) in &dir {
                let options = self.inodes[ino].candidates(name.ends_with(".jsonl"));
                states = states
                    .iter()
                    .flat_map(|s| {
                        options.iter().map(move |c| {
                            let mut s = s.clone();
                            s.insert(name.clone(), c.to_vec());
                            s
                        })
                    })
                    .collect();
            }
            out.extend(states);
        }
        out
    }
}

/// Calls `visit(k, states)` with the states a power cut may leave in
/// `dir` after the first `k` operations, for every `k`.
fn crash_states(dir: &Path, ops: &[Op], mut visit: impl FnMut(usize, BTreeSet<State>)) {
    let mut model = Model::new(dir);
    visit(0, model.states());
    for (k, op) in ops.iter().enumerate() {
        model.apply(op);
        visit(k + 1, model.states());
    }
}

/// The checkpoint's rename window, written by hand: a new checkpoint
/// written and synced, renamed over the old one with no directory
/// sync, then the log truncated and synced.  A power cut may keep the
/// truncation and lose the rename.
fn checkpoint_window(sync_dir_after_rename: bool) -> Vec<Op> {
    let p = |s: &str| PathBuf::from(s);
    let mut ops = vec![
        Op::Write(p("checkpoint"), b"old".to_vec()),
        Op::Sync(p("checkpoint")),
        Op::Create(p("wal")),
        Op::Append(p("wal"), b"frames".to_vec()),
        Op::Sync(p("wal")),
        Op::SyncDir(p(".")),
        Op::Write(p("checkpoint.tmp"), b"new".to_vec()),
        Op::Sync(p("checkpoint.tmp")),
        Op::Rename(p("checkpoint.tmp"), p("checkpoint")),
        Op::Truncate(p("wal"), 0),
        Op::Sync(p("wal")),
    ];
    if sync_dir_after_rename {
        ops.insert(9, Op::SyncDir(p(".")));
    }
    ops
}

fn old_checkpoint_and_empty_log(state: &State) -> bool {
    state.get("checkpoint").map(Vec::as_slice) == Some(b"old")
        && state.get("wal").map(Vec::as_slice) == Some(b"")
}

#[test]
fn the_model_loses_a_rename_its_directory_never_synced() {
    let mut last = BTreeSet::new();
    crash_states(Path::new("."), &checkpoint_window(false), |_, states| {
        last = states
    });
    assert!(
        last.iter().any(old_checkpoint_and_empty_log),
        "old checkpoint + empty log must be a possible power-cut state"
    );
    // The synced data survives every cut.
    assert!(last.iter().all(|s| s.contains_key("wal")));
}

#[test]
fn a_directory_sync_closes_the_rename_window() {
    let ops = checkpoint_window(true);
    let truncate = ops.iter().position(|op| op.kind() == OpKind::Truncate);
    crash_states(Path::new("."), &ops, |k, states| {
        assert!(
            k <= truncate.expect("the window truncates")
                || !states.iter().any(old_checkpoint_and_empty_log),
            "after op {k}: the synced rename was lost"
        );
    });
}

// ------------------------------------------------------------------
// Workloads and their oracle
// ------------------------------------------------------------------

/// One step of a workload, run at its own day so transaction times are
/// a function of the step index.
#[derive(Clone)]
enum Step {
    Run(String),
    Checkpoint,
}

fn day(i: usize) -> Chronon {
    Chronon::new(date("01/01/80").expect("date").ticks() + i as i64)
}

fn run_step(engine: &Arc<Engine>, clock: &ManualClock, i: usize, step: &Step) -> DbResult<()> {
    clock.advance_to(day(i));
    match step {
        Step::Run(stmt) => engine.session().run(stmt).map(drop),
        Step::Checkpoint => engine.checkpoint(),
    }
}

const CLASSES: [&str; 4] = ["static", "rollback", "historical", "temporal"];

/// One relation of each class: appends, a replace and a delete, an
/// explicit checkpoint, and more commits after it.
fn basic_workload() -> Vec<Step> {
    let mut steps = Vec::new();
    for class in CLASSES {
        steps.push(format!(
            "create f_{class} (name = str, rank = str) as {class}"
        ));
        steps.push(format!(
            r#"append to f_{class} (name = "Merrie", rank = "associate")"#
        ));
    }
    steps.extend([
        r#"append to f_temporal (name = "Tom", rank = "assistant")"#.to_string(),
        r#"range of f is f_temporal replace f (rank = "full") where f.name = "Merrie""#.into(),
        r#"range of f is f_static replace f (rank = "full") where f.name = "Merrie""#.into(),
    ]);
    let mut steps: Vec<Step> = steps.into_iter().map(Step::Run).collect();
    steps.push(Step::Checkpoint);
    steps.extend(
        [
            r#"append to f_rollback (name = "Mike", rank = "assistant")"#,
            r#"range of f is f_temporal delete f where f.name = "Tom""#,
            r#"append to f_historical (name = "Ann", rank = "lecturer")"#,
            r#"range of f is f_temporal retrieve into f_derived (f.name, f.rank)"#,
        ]
        .map(|s| Step::Run(s.to_string())),
    );
    steps
}

/// A `replace` of one of two keys of `rel` with a ~1 KiB frame.
fn long_replace(rel: &str, i: usize) -> Step {
    let rank = format!("r{i}-{}", "x".repeat(480));
    Step::Run(format!(
        r#"range of f is {rel} replace f (rank = "{rank}") where f.name = "k{}""#,
        i % 2
    ))
}

/// Commits in the policy workload: enough ~1 KiB frames that the log
/// passes the checkpoint floor (16 KiB) twice.
const POLICY_COMMITS: usize = 48;

/// The DDL, two appends, then long replaces: the writer's policy
/// checkpoints twice and nothing asks it to.
fn policy_workload() -> Vec<Step> {
    let mut steps = vec![Step::Run(
        "create faculty (name = str, rank = str) as temporal".into(),
    )];
    for k in 0..2 {
        steps.push(Step::Run(format!(
            r#"append to faculty (name = "k{k}", rank = "new")"#
        )));
    }
    steps.extend((2..POLICY_COMMITS).map(|i| long_replace("faculty", i)));
    steps
}

/// Every relation's rows with both timestamps, and its commit count.
type Canon = BTreeMap<String, (usize, Vec<String>)>;

fn canon(db: &Database) -> Canon {
    db.relation_names()
        .into_iter()
        .map(|name| {
            let table = db.relation(&name).expect("named").table();
            let mut rows: Vec<String> = (table.scan_rows().expect("heap").iter())
                .map(|r| format!("{r:?}"))
                .collect();
            rows.sort();
            (name, (table.transactions(), rows))
        })
        .collect()
}

/// The canonical state after each prefix of `steps` (`[0]` is empty),
/// from an in-memory database.
fn oracle(steps: &[Step]) -> Vec<Canon> {
    let clock = Arc::new(ManualClock::new(day(0)));
    let engine = Engine::start(Database::in_memory(Arc::clone(&clock) as _));
    let mut states = vec![engine.with_db(canon)];
    for (i, step) in steps.iter().enumerate() {
        if let Step::Run(_) = step {
            run_step(&engine, &clock, i, step).expect("oracle step");
        }
        states.push(engine.with_db(canon));
    }
    states
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chronos-faultmx-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(dir: &Path, disk: &Disk, clock: &Arc<ManualClock>) -> DbResult<Arc<Engine>> {
    let db = Database::open_with_disk(
        dir,
        Arc::clone(clock) as _,
        &ObsBootstrap::new(),
        disk.clone(),
    );
    db.map(Engine::start)
}

/// What happened to each step of a recorded run: the operation count
/// when it started and, if it was acknowledged, when it returned.
struct Run {
    dir: PathBuf,
    ops: Vec<Op>,
    marks: Vec<(usize, Option<usize>)>,
}

/// Runs `steps` on a fresh database in `dir` through a recording disk,
/// with `fault` armed before the database opens.
fn record(dir: &Path, steps: &[Step], fault: Option<Fault>) -> Run {
    let disk = &Disk::recording();
    if let Some(fault) = fault {
        disk.inject(fault);
    }
    let clock = Arc::new(ManualClock::new(day(0)));
    let engine = open(dir, disk, &clock).expect("open fresh");
    let marks = (steps.iter().enumerate())
        .map(|(i, step)| {
            let started = disk.op_count();
            let acked = run_step(&engine, &clock, i, step).ok();
            (started, acked.map(|()| disk.op_count()))
        })
        .collect();
    // The writer checkpoints after a group's acks: a round trip through
    // it lets the last one finish.
    let _ = engine.exclusive(|_| ());
    drop(engine);
    Run {
        dir: dir.to_path_buf(),
        ops: disk.ops(),
        marks,
    }
}

// ------------------------------------------------------------------
// The checker
// ------------------------------------------------------------------

fn describe(state: &State) -> String {
    let files: Vec<String> = (state.iter())
        .map(|(name, bytes)| match name.as_str() {
            "wal" => {
                let scan = scan_wal_bytes(bytes);
                format!("wal {} B ({} frames)", bytes.len(), scan.frames.len())
            }
            _ => format!("{name} {} B", bytes.len()),
        })
        .collect();
    format!("{{{}}}", files.join(", "))
}

fn summary(op: &Op) -> String {
    match op {
        Op::Rename(from, to) => format!("Rename {} → {}", file_name(from), file_name(to)),
        op => format!("{:?} {}", op.kind(), file_name(op.path())),
    }
}

/// Writes `state` into `dir`, opens it, and returns the prefixes of the
/// workload whose oracle it equals — after checking that the journal's
/// `recovery` event matches the bytes recovery found.
fn recover(state: &State, dir: &Path, oracle: &[Canon]) -> Result<Vec<usize>, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("state dir");
    for (name, bytes) in state {
        std::fs::write(dir.join(name), bytes).expect("state file");
    }
    let wal = state.get("wal").map_or(&[][..], Vec::as_slice);
    let scan = scan_wal_bytes(wal);
    let floor = match state.get("checkpoint") {
        Some(bytes) => chronos_db::checkpoint::decode(bytes)
            .map_err(|e| format!("checkpoint: {e}"))?
            .wal_floor
            .map(Chronon::ticks),
        None => None,
    };
    let skipped = (scan.frames.iter())
        .filter(|f| floor.is_some_and(|floor| f.tx_ticks <= floor))
        .count();
    let clock = Arc::new(ManualClock::new(day(0)));
    let db = Database::open(dir, clock as _).map_err(|e| format!("open failed: {e}"))?;
    let got = canon(&db);
    drop(db);
    let journal = std::fs::read_to_string(dir.join("events.jsonl")).unwrap_or_default();
    let this_open = journal
        .rsplit_once("\"event\": \"recovery_start\"")
        .map_or("", |(_, tail)| tail);
    let event = (this_open.lines())
        .find(|l| l.contains("\"event\": \"recovery\""))
        .ok_or("no recovery event journaled")?;
    for (field, value) in [
        ("frames_replayed", (scan.frames.len() - skipped) as u64),
        ("frames_skipped", skipped as u64),
        ("truncated_at", scan.valid_len),
    ] {
        if !event.contains(&format!("\"{field}\": {value}")) {
            return Err(format!("recovery event lacks {field} = {value}: {event}"));
        }
    }
    if !scan.is_clean() && !this_open.contains("\"event\": \"wal_truncated\"") {
        return Err("a torn tail with no wal_truncated event".into());
    }
    let matched: Vec<usize> = (0..oracle.len()).filter(|&j| oracle[j] == got).collect();
    if matched.is_empty() {
        return Err(format!("recovered no prefix of the workload: {got:#?}"));
    }
    Ok(matched)
}

/// Opens every state a power cut may leave after each operation of
/// `run` (only after the last one, with `only_end`): each must hold a
/// prefix of the workload with every acknowledged step and none past
/// the ones that had started.  Panics naming the first losing state.
/// Returns how many distinct states were opened.
fn check_power_cuts(tag: &str, run: &Run, oracle: &[Canon], only_end: bool) -> usize {
    let dir = scratch(tag);
    let mut seen: HashMap<State, Vec<usize>> = HashMap::new();
    crash_states(&run.dir, &run.ops, |k, states| {
        if only_end && k < run.ops.len() {
            return;
        }
        let after = k
            .checked_sub(1)
            .map_or("none".into(), |i| summary(&run.ops[i]));
        let acked = (run.marks.iter())
            .take_while(|(_, acked)| acked.is_some_and(|a| a <= k))
            .count();
        let started = run.marks.iter().filter(|(s, _)| *s < k).count();
        for state in states {
            let matched = match seen.get(&state) {
                Some(matched) => matched,
                None => {
                    let matched = recover(&state, &dir, oracle).unwrap_or_else(|e| {
                        panic!(
                            "power cut after op {k} ({after}) leaves {}: {e}",
                            describe(&state)
                        )
                    });
                    seen.entry(state.clone()).or_insert(matched)
                }
            };
            assert!(
                matched.iter().any(|j| (acked..=started).contains(j)),
                "power cut after op {k} ({after}) leaves {}: it recovers {matched:?} steps, \
                 but {acked} were acknowledged and {started} had started",
                describe(&state)
            );
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
    seen.len()
}

/// A new database directory is an entry in its parent: the open syncs
/// the parent before it creates any file, and a reopen of the existing
/// directory syncs nothing more.
#[test]
fn a_new_database_directory_is_synced_into_its_parent() {
    let dir = scratch("newdir");
    let parent = Op::SyncDir(dir.parent().expect("a parent").to_path_buf());
    let clock = Arc::new(ManualClock::new(day(0)));
    let disk = Disk::recording();
    drop(open(&dir, &disk, &clock).expect("open fresh"));
    let ops = disk.ops();
    let synced = ops.iter().position(|op| *op == parent);
    let created = ops.iter().position(|op| op.kind() == OpKind::Create);
    assert!(
        synced.is_some() && synced < created,
        "the parent is synced before the first create: {ops:?}"
    );
    let disk = Disk::recording();
    drop(open(&dir, &disk, &clock).expect("reopen"));
    assert!(!disk.ops().contains(&parent), "{:?}", disk.ops());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash after each durable operation — on disk, a power cut keeping
/// any state POSIX allows — recovers a prefix of the workload with
/// every acknowledged commit, across DDL for every class, an explicit
/// checkpoint and one the writer's policy writes.
#[test]
fn every_crash_site_recovers_to_oracle_state() {
    let mut steps = basic_workload();
    steps.extend((0..2).map(|k| {
        Step::Run(format!(
            r#"append to f_temporal (name = "k{k}", rank = "new")"#
        ))
    }));
    steps.extend((0..18).map(|i| long_replace("f_temporal", i)));
    let dir = scratch("powercut-run");
    let run = record(&dir, &steps, None);
    assert!(run.marks.iter().all(|(_, acked)| acked.is_some()));
    let checkpoints = (run.ops.iter())
        .filter(|op| matches!(op, Op::Rename(_, to) if file_name(to) == "checkpoint"))
        .count();
    assert_eq!(checkpoints, 3, "explicit, `retrieve into` and policy ones");
    let states = check_power_cuts("powercut", &run, &oracle(&steps), false);
    assert!(
        states > run.ops.len(),
        "{states} states over {} ops",
        run.ops.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------------
// Injected errors
// ------------------------------------------------------------------

/// Every operation of each kind on each file (told apart by the
/// previous operation on that file, so a group sync and a log reset's
/// sync are rows of their own) and both in-memory unwind sites fail
/// once with an injected error.  The failed step reports it; the engine
/// is poisoned exactly when a group sync failed or a commit failed
/// after it was partly applied; a reopen recovers the acknowledged
/// prefix, the workload then completes, and the result is durable.
#[test]
fn every_site_unwinds_gracefully() {
    let steps = basic_workload();
    let oracle = oracle(&steps);
    let dir = scratch("unwind");
    let baseline = record(&dir, &steps, None);
    let mut rows: BTreeMap<(OpKind, String, Option<OpKind>), Vec<u64>> = BTreeMap::new();
    let mut count: HashMap<(OpKind, String), u64> = HashMap::new();
    let mut last: HashMap<String, OpKind> = HashMap::new();
    for op in &baseline.ops {
        let file = file_name(op.path()).to_string();
        let n = count.entry((op.kind(), file.clone())).or_default();
        *n += 1;
        let prev = last.insert(file.clone(), op.kind());
        rows.entry((op.kind(), file, prev)).or_default().push(*n);
    }
    let mut faults: Vec<(Fault, bool)> = (rows.iter())
        .map(|((kind, file, prev), hits)| {
            let group_sync =
                *kind == OpKind::Sync && file == "wal" && *prev == Some(OpKind::Append);
            (Fault::error(*kind, file, hits[hits.len() / 2]), group_sync)
        })
        .collect();
    faults.push((Fault::error(OpKind::Unwind, "table.commit.apply", 2), false));
    faults.push((Fault::error(OpKind::Unwind, "heap.insert", 3), false));
    let mut failures = Vec::new();
    for (fault, group_sync) in faults {
        let what = format!("{fault:?}");
        if let Err(e) = unwind_row(&dir, &steps, &oracle, fault, group_sync) {
            failures.push(format!("{what}: {e}"));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

fn unwind_row(
    dir: &Path,
    steps: &[Step],
    oracle: &[Canon],
    fault: Fault,
    group_sync: bool,
) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    let clock = Arc::new(ManualClock::new(day(0)));
    let disk = Disk::recording();
    disk.inject(fault);
    let mut failed = Some((0, "the open failed".to_string()));
    if let Ok(engine) = open(dir, &disk, &clock) {
        failed = (steps.iter().enumerate()).find_map(|(i, step)| {
            let result = run_step(&engine, &clock, i, step);
            result.err().map(|e| (i, e.to_string()))
        });
        if let Some((i, e)) = &failed {
            if !e.contains("injected fault") {
                return Err(format!("step {i} failed with an unrelated error: {e}"));
            }
            let poisons = group_sync || e.contains("partly applied");
            let refused = engine.exclusive(|_| ()).is_err();
            if refused != poisons {
                return Err(format!(
                    "step {i}: poisoned {refused}, want {poisons} ({e})"
                ));
            }
        } else if group_sync {
            return Err("the workload completed past a failed group sync".into());
        }
    }
    // The process survived; a restart holds the acknowledged prefix and
    // perhaps the failed step, and the workload completes from there.
    let from = failed.map_or(steps.len(), |(i, _)| i);
    let engine = open(dir, &Disk::default(), &clock).map_err(|e| format!("reopen: {e}"))?;
    let got = engine.with_db(canon);
    let resume = (from..=(from + 1).min(steps.len()))
        .find(|&j| oracle[j] == got)
        .ok_or_else(|| format!("reopened state is not the prefix before or after step {from}"))?;
    for (i, step) in steps.iter().enumerate().skip(resume) {
        run_step(&engine, &clock, i, step).map_err(|e| format!("retry of step {i}: {e}"))?;
    }
    drop(engine);
    let engine = open(dir, &Disk::default(), &clock).map_err(|e| format!("final reopen: {e}"))?;
    if engine.with_db(canon) != oracle[steps.len()] {
        return Err("the durable result is not the full oracle".into());
    }
    Ok(())
}

/// The operations of the first checkpoint the writer's policy writes
/// in the policy workload, each as (kind, file, nth of its kind on its
/// file from the start of the run).  A directory sync is named by the
/// directory's name, so the rows must run in `dir` too.
fn policy_checkpoint_ops(dir: &Path) -> Vec<(OpKind, String, u64)> {
    let run = record(dir, &policy_workload(), None);
    let mut count: HashMap<(OpKind, String), u64> = HashMap::new();
    let mut ckpt: Vec<(OpKind, String, u64)> = Vec::new();
    for op in &run.ops {
        let key = (op.kind(), file_name(op.path()).to_string());
        let n = count.entry(key.clone()).or_default();
        *n += 1;
        let (kind, file) = key;
        // From the checkpoint's first write to the log reset's sync,
        // the journal's lines aside.
        if (kind == OpKind::Write && file == "checkpoint.tmp" || !ckpt.is_empty())
            && file != "events.jsonl"
        {
            ckpt.push((kind, file, *n));
            if kind == OpKind::Sync && ckpt[ckpt.len() - 2].0 == OpKind::Truncate {
                break;
            }
        }
    }
    assert_eq!(
        ckpt.len(),
        6,
        "write, sync, rename, sync-dir, truncate, sync: {ckpt:?}"
    );
    ckpt
}

/// An error in a policy checkpoint fails none of the commits; it is
/// counted and journaled, and a later group checkpoints again.  A
/// failure that lasts is tried at most once per floor of log.
#[test]
fn an_error_in_a_policy_checkpoint_fails_no_commit() {
    let steps = policy_workload();
    let want = oracle(&steps).pop().expect("full oracle");
    let dir = scratch("policy-error");
    let mut rows: Vec<(Fault, bool)> = (policy_checkpoint_ops(&dir).into_iter())
        .map(|(kind, file, n)| (Fault::error(kind, &file, n), false))
        .collect();
    rows.push((Fault::lasting(OpKind::Write, "checkpoint.tmp", 1), true));
    for (fault, lasting) in rows {
        let what = format!("{fault:?}");
        let _ = std::fs::remove_dir_all(&dir);
        let run = record(&dir, &steps, Some(fault));
        assert!(
            run.marks.iter().all(|(_, a)| a.is_some()),
            "{what}: a commit failed"
        );
        let journal = std::fs::read_to_string(dir.join("events.jsonl")).expect("journal");
        let is = |l: &&str, event: &str| l.contains(&format!("\"event\": \"{event}\""));
        let failed: Vec<&str> = journal
            .lines()
            .filter(|l| is(l, "db_checkpoint_failed"))
            .collect();
        let finished = journal
            .rsplit_once("db_checkpoint_failed")
            .is_some_and(|(_, after)| after.contains("db_checkpoint_finish"));
        let log = Wal::recover(&dir.join("wal")).expect("log").valid_len;
        if lasting {
            // Every attempt failed, so the log holds every commit; a
            // retry per group would have tried once per commit.
            let bound = log / CHECKPOINT_LOG_FLOOR;
            assert!(!journal.contains("db_checkpoint_finish"), "{what}");
            assert!(
                (1..=bound as usize).contains(&failed.len()),
                "{what}: {} attempts over {log} B of log, want at most {bound}",
                failed.len()
            );
        } else {
            assert_eq!(failed.len(), 1, "{what}");
            assert!(
                failed[0].contains("injected fault"),
                "{what}: {}",
                failed[0]
            );
            assert!(finished, "{what}: no checkpoint finished after the failure");
        }
        let clock = Arc::new(ManualClock::new(day(0)));
        let engine = open(&dir, &Disk::default(), &clock).expect("reopen");
        assert!(
            engine.with_db(canon) == want,
            "{what}: durable state is not the oracle"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crash at each operation of a policy checkpoint loses no
/// acknowledged commit: the directory as the crash left it reopens to
/// the oracle (behind a live exporter whose `/readyz` flips 503 → 200),
/// and so does every state a power cut at that point may leave.
#[test]
fn a_crash_in_a_policy_checkpoint_loses_no_acknowledged_commit() {
    let steps = policy_workload();
    let oracle = oracle(&steps);
    let dir = scratch("policy-crash");
    for (kind, file, n) in policy_checkpoint_ops(&dir) {
        let _ = std::fs::remove_dir_all(&dir);
        let run = record(&dir, &steps, Some(Fault::crash(kind, &file, n)));
        let acked = run.marks.iter().take_while(|(_, a)| a.is_some()).count();
        assert!(
            acked < steps.len(),
            "{kind:?} {file}: nothing failed after the crash"
        );
        let obs = ObsBootstrap::new();
        let server = obs.serve("127.0.0.1:0").expect("exporter");
        let addr = server.addr().to_string();
        assert_eq!(http_get(&addr, "/readyz").expect("readyz").0, 503);
        let clock = Arc::new(ManualClock::new(day(0)));
        let db = Database::open_with_obs(&dir, clock as _, &obs).expect("recover");
        assert_eq!(http_get(&addr, "/readyz").expect("readyz").0, 200);
        let got = canon(&db);
        assert!(
            (acked..=steps.len()).any(|j| oracle[j] == got),
            "{kind:?} {file}: the recovered state lost one of {acked} acknowledged steps"
        );
        drop((db, server));
        check_power_cuts("policy-cut", &run, &oracle, true);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------------------------
// A failed apply
// ------------------------------------------------------------------

/// A commit that validates, reaches the log, and then fails while it is
/// applied (the heap refuses the new version) is reported as failed, its
/// log record rolled back — and the process goes on with the table it
/// had: current-row index and heap still agree, so the statements that
/// walk every current row (an unkeyed `delete`, a checkpoint) keep
/// working, on every relation class.
#[test]
fn a_commit_that_fails_while_applied_leaves_index_and_heap_agreeing() {
    let dir = scratch("apply");
    let clock = Arc::new(ManualClock::new(date("01/01/80").unwrap()));
    let disk = Disk::recording();
    let engine = open(&dir, &disk, &clock).expect("open fresh");
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
    for class in CLASSES {
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

        // The fault fires once: the statements after this one run clean.
        disk.inject(Fault::error(OpKind::Unwind, "heap.insert", 1));
        let refused = engine
            .session()
            .run(&format!(r#"append to {rel} (name = "Zed", rank = "full")"#));
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

/// A `replace` lowers to `[Remove, Insert]`.  When the insert fails
/// after the remove has changed the table, the commit is partly applied
/// in memory and nowhere in the log: the engine poisons itself, as a
/// failed group sync does, so nothing is written on top of it and no
/// read shows the half-applied state (the exporter still answers), and
/// a reopen brings back the row the remove had taken.
#[test]
fn a_replace_that_fails_halfway_poisons_the_engine() {
    for class in CLASSES {
        let dir = scratch(&format!("halfway-{class}"));
        let clock = Arc::new(ManualClock::new(day(0)));
        let disk = Disk::recording();
        let engine = open(&dir, &disk, &clock).expect("open fresh");
        let steps: Vec<Step> = [
            format!("create f (name = str, rank = str) as {class}"),
            r#"append to f (name = "Merrie", rank = "associate")"#.into(),
            r#"append to f (name = "Tom", rank = "full")"#.into(),
        ]
        .map(Step::Run)
        .to_vec();
        for (i, step) in steps.iter().enumerate() {
            run_step(&engine, &clock, i, step).expect("setup");
        }
        // Op 2 of the replace is its insert, the first heap insert.
        disk.inject(Fault::error(OpKind::Unwind, "heap.insert", 1));
        let replace = Step::Run(
            r#"range of f is f replace f (rank = "full") where f.name = "Merrie""#.into(),
        );
        let err = run_step(&engine, &clock, 3, &replace).expect_err("the insert fails");
        assert!(err.to_string().contains("partly applied"), "{class}: {err}");
        let next = Step::Run(r#"append to f (name = "Ann", rank = "full")"#.into());
        let refused = run_step(&engine, &clock, 4, &next).expect_err("poisoned");
        assert!(
            refused.to_string().contains("poisoned"),
            "{class}: {refused}"
        );
        let read = Step::Run(r#"range of f is f retrieve (f.name)"#.into());
        let refused = run_step(&engine, &clock, 4, &read).expect_err("a poisoned read");
        assert!(
            refused.to_string().contains("poisoned"),
            "{class}: {refused}"
        );
        let server =
            (engine.with_db(|db| db.serve_observability("127.0.0.1:0"))).expect("exporter");
        let addr = server.addr().to_string();
        for path in ["/metrics", "/wal", "/storage"] {
            assert_eq!(http_get(&addr, path).expect(path).0, 200, "{class}: {path}");
        }
        drop(server);
        assert!(engine.checkpoint().is_err(), "{class}: a checkpoint ran");
        drop(engine);
        let engine = open(&dir, &Disk::default(), &clock).expect("reopen");
        assert!(
            engine.with_db(canon) == oracle(&steps)[steps.len()],
            "{class}: the reopened relation is not the one before the replace"
        );
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `retrieve into` writes its rows into a checkpoint before the catalog
/// names the new relation.  When the catalog's save fails there, by an
/// error or a crash, the checkpoint already holds rows under the new
/// id: a relation defined afterwards, in the same process or after a
/// reopen, must not take that id and inherit them.
#[test]
fn a_failed_retrieve_into_lends_its_id_to_no_relation() {
    let steps: Vec<Step> = [
        "create f (name = str, rank = str) as temporal",
        r#"append to f (name = "Merrie", rank = "full")"#,
        "range of x is f retrieve into d (x.name, x.rank)",
        "create g (name = str, rank = str) as temporal",
        r#"append to g (name = "Tom", rank = "full")"#,
    ]
    .map(|s| Step::Run(s.into()))
    .to_vec();
    let mut want = oracle(&steps).pop().expect("full oracle");
    want.remove("d");
    for crash in [false, true] {
        let dir = scratch(&format!("materialize-{crash}"));
        let clock = Arc::new(ManualClock::new(day(0)));
        let disk = Disk::recording();
        // The second catalog rename is the materialization's.
        let fault = [Fault::error, Fault::crash][usize::from(crash)];
        disk.inject(fault(OpKind::Rename, "catalog", 2));
        let mut engine = open(&dir, &disk, &clock).expect("open fresh");
        for (i, step) in steps.iter().enumerate() {
            if i == 3 && crash {
                drop(engine);
                engine = open(&dir, &Disk::default(), &clock).expect("reopen");
            }
            let result = run_step(&engine, &clock, i, step);
            assert_eq!(
                result.is_err(),
                i == 2,
                "crash {crash}, step {i}: {result:?}"
            );
        }
        drop(engine);
        let engine = open(&dir, &Disk::default(), &clock).expect("reopen");
        assert!(
            engine.with_db(canon) == want,
            "crash {crash}: {:#?}",
            engine.with_db(canon)
        );
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ------------------------------------------------------------------
// A damaged log
// ------------------------------------------------------------------

/// Builds a durable database holding six commits to `faculty` (no
/// checkpoint, so every commit is a WAL record) and returns the WAL
/// length.
fn populated(dir: &Path) -> u64 {
    let mut steps = vec![Step::Run(
        "create faculty (name = str, rank = str) as temporal".into(),
    )];
    steps.extend((0..6).map(small_commit));
    let clock = Arc::new(ManualClock::new(day(0)));
    let engine = open(dir, &Disk::default(), &clock).expect("open fresh");
    for (i, step) in steps.iter().enumerate() {
        run_step(&engine, &clock, i, step).expect("workload statement");
    }
    drop(engine);
    std::fs::metadata(dir.join("wal")).expect("wal").len()
}

fn small_commit(i: usize) -> Step {
    match i {
        0 | 1 => Step::Run(format!(
            r#"append to faculty (name = "k{i}", rank = "assistant")"#
        )),
        _ => Step::Run(format!(
            r#"range of f is faculty replace f (rank = "r{i}") where f.name = "k{}""#,
            i % 2
        )),
    }
}

/// Recovery after arbitrary WAL damage: open must always succeed, and
/// must recover exactly the intact record prefix the damaged bytes
/// still encode (per [`Wal::recover`]'s own scan).
fn assert_recovers_prefix(dir: &Path) {
    let expected = Wal::recover(&dir.join("wal"))
        .expect("recover scans any byte soup")
        .records
        .len();
    let db = Database::open(dir, Arc::new(ManualClock::new(day(100))) as _)
        .expect("open after damage must degrade gracefully, not fail");
    let commits = db
        .relation("faculty")
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
        let dir = scratch("cut");
        let len = populated(&dir);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("wal"))
            .expect("open wal");
        f.set_len(len * pct / 100).expect("truncate");
        drop(f);
        assert_recovers_prefix(&dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Flipping any single byte (bit-rot anywhere in the log) must
    /// recover the prefix before the damaged record.
    #[test]
    fn byte_flip_recovers_intact_prefix(pct in 0u64..100, bit in 0u32..8) {
        let dir = scratch("flip");
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
