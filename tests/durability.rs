//! Durability and failure injection: reopen, torn log tails, corrupted
//! interior frames, catalog corruption, and crash points between catalog
//! and log writes.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use chronos_core::calendar::date;
use chronos_core::chronon::Chronon;
use chronos_core::clock::ManualClock;
use chronos_core::relation::temporal::TemporalStore as _;
use chronos_db::{Database, Engine, ObsBootstrap};
use chronos_obs::fault::{file_name, Op};
use chronos_obs::Disk;
use chronos_storage::inspect::{scan_wal, scan_wal_bytes};

fn d(s: &str) -> Chronon {
    date(s).unwrap()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chronos-dur-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn populated(dir: &Path) {
    let clock = Arc::new(ManualClock::new(d("01/01/80")));
    let engine = Engine::start(Database::open(dir, clock.clone()).unwrap());
    engine
        .session()
        .run("create faculty (name = str, rank = str) as temporal")
        .unwrap();
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
    ] {
        clock.advance_to(d(day));
        engine.session().run(stmt).unwrap();
    }
}

#[test]
fn reopen_reproduces_the_database() {
    let dir = temp_dir("reopen");
    populated(&dir);
    let clock = Arc::new(ManualClock::new(d("01/01/81")));
    let engine = Engine::start(Database::open(&dir, clock).unwrap());
    assert!(engine.with_db(Database::is_durable));
    // A bare retrieve returns the whole current historical state — both
    // of Merrie's validity rows survive the reopen…
    let res = engine
        .session()
        .query(r#"range of f is faculty retrieve (f.rank) where f.name = "Merrie""#)
        .unwrap();
    let mut all = res.column_strings(0);
    all.sort();
    assert_eq!(all, ["associate", "full"]);
    // …and reality *now* is `full`.
    let res = engine
        .session()
        .query(r#"range of f is faculty retrieve (f.rank) where f.name = "Merrie" when f overlap "06/01/80""#)
        .unwrap();
    assert_eq!(res.column_strings(0), ["full"]);
    // And the belief history survived too.
    let res = engine
        .session()
        .query(
            r#"range of f is faculty retrieve (f.rank) where f.name = "Merrie" as of "03/15/80""#,
        )
        .unwrap();
    assert_eq!(res.column_strings(0), ["associate"]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn new_commits_after_reopen_stay_append_only() {
    let dir = temp_dir("resume");
    populated(&dir);
    {
        // Reopen with a clock stuck in the past: commit times must still
        // advance past the replayed history.
        let clock = Arc::new(ManualClock::new(d("01/01/70"))); // long ago
        let engine = Engine::start(Database::open(&dir, clock).unwrap());
        engine
            .session()
            .run(r#"append to faculty (name = "Mike", rank = "assistant")"#)
            .unwrap();
        let last = engine.with_db(|db| db.relation("faculty").unwrap().table().last_commit());
        assert!(last.unwrap() > d("04/01/80"));
    }
    // The whole thing replays again.
    let clock = Arc::new(ManualClock::new(d("01/01/81")));
    let db = Database::open(&dir, clock).unwrap();
    assert_eq!(db.relation("faculty").unwrap().table().transactions(), 4);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Every acknowledged commit waits for one sync of the log.  Its frame
/// is written in place, inside the zeroed tail the log keeps, so most
/// of those syncs flush data and change no file size: of 64
/// single-statement commits after a checkpoint, at most 12 grow the log.
#[test]
fn most_commits_write_their_frame_inside_the_log() {
    let dir = temp_dir("in-place");
    let clock = Arc::new(ManualClock::new(d("01/01/80")));
    let disk = Disk::recording();
    let db = Database::open_with_disk(&dir, clock.clone(), &ObsBootstrap::new(), disk.clone());
    let engine = Engine::start(db.unwrap());
    let mut session = engine.session();
    session
        .run("create faculty (name = str, rank = str) as temporal")
        .unwrap();
    session
        .run(r#"append to faculty (name = "Merrie", rank = "associate")"#)
        .unwrap();
    engine.checkpoint().unwrap();
    let from = disk.op_count();
    for i in 0..64 {
        clock.tick(1);
        session
            .run(&format!(
                r#"append to faculty (name = "k{i}", rank = "assistant")"#
            ))
            .unwrap();
    }
    let (mut len, mut syncs, mut grew, mut inside) = (0, 0, 0, 0);
    for op in disk.ops().iter().skip(from) {
        if file_name(op.path()) != "wal" {
            continue;
        }
        match op {
            Op::Sync(_) => syncs += 1,
            Op::Append(_, bytes) => {
                len += bytes.len() as u64;
                grew += 1;
            }
            Op::WriteAt(_, at, bytes) if at + bytes.len() as u64 > len => {
                len = at + bytes.len() as u64;
                grew += 1;
            }
            Op::WriteAt(..) => inside += 1,
            other => panic!("a commit did {other:?}"),
        }
    }
    assert_eq!(syncs, 64, "one log sync per commit");
    assert_eq!(grew + inside, 64, "one log write per commit");
    assert!(grew <= 12, "{grew} of 64 log writes grew the file");
    assert_eq!(std::fs::metadata(dir.join("wal")).unwrap().len(), len);
    drop((session, engine));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_wal_tail_is_truncated_on_open() {
    let dir = temp_dir("torn");
    populated(&dir);
    {
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join("wal"))
            .unwrap();
        f.write_all(&[0x99, 0x00, 0x00, 0x00, 0xDE, 0xAD, 0xBE])
            .unwrap();
    }
    let clock = Arc::new(ManualClock::new(d("01/01/81")));
    let db = Database::open(&dir, clock).unwrap();
    assert_eq!(
        db.relation("faculty").unwrap().table().transactions(),
        3,
        "all intact commits survive, the torn frame is dropped"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncation_mid_record_recovers_and_journals_wal_truncated() {
    let dir = temp_dir("midrec");
    populated(&dir);
    // Cut the log mid-way through its *last* record: a crash during the
    // final append, torn at an arbitrary byte.  The frames end before
    // the file does: past them lies the zeroed tail.
    let wal_path = dir.join("wal");
    let len = scan_wal(&wal_path).unwrap().valid_len;
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&wal_path)
        .unwrap();
    f.set_len(len - 3).unwrap();
    drop(f);
    let clock = Arc::new(ManualClock::new(d("01/01/81")));
    let db = Database::open(&dir, clock).expect("torn tail must degrade, not fail");
    assert_eq!(
        db.relation("faculty").unwrap().table().transactions(),
        2,
        "the two intact commits survive, the torn third is dropped"
    );
    // Graceful degradation is journaled, not silent.
    let journal = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
    let line = journal
        .lines()
        .find(|l| l.contains("\"event\": \"wal_truncated\""))
        .expect("wal_truncated event journaled");
    assert!(
        line.contains("\"torn_bytes\": "),
        "event records the torn span: {line}"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checksum_flip_in_last_record_recovers_and_journals_wal_truncated() {
    let dir = temp_dir("crcflip");
    populated(&dir);
    // Find the last record with the walker and flip one byte of its
    // stored checksum (bit-rot on the crc itself).
    let wal_path = dir.join("wal");
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let last = scan_wal_bytes(&bytes).frames.last().unwrap().offset as usize;
    bytes[last + 4] ^= 0xFF;
    std::fs::write(&wal_path, &bytes).unwrap();
    let clock = Arc::new(ManualClock::new(d("01/01/81")));
    let db = Database::open(&dir, clock).expect("checksum mismatch must degrade, not fail");
    assert_eq!(
        db.relation("faculty").unwrap().table().transactions(),
        2,
        "recovery keeps the prefix before the damaged record"
    );
    let journal = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
    assert!(
        journal.contains("\"event\": \"wal_truncated\""),
        "dropping the damaged record must be journaled"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn interior_corruption_keeps_the_valid_prefix() {
    let dir = temp_dir("interior");
    populated(&dir);
    // Flip a byte inside the SECOND frame's payload.
    let wal_path = dir.join("wal");
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let first_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let target = 8 + first_len + 8 + 2;
    bytes[target] ^= 0xFF;
    std::fs::write(&wal_path, &bytes).unwrap();
    let clock = Arc::new(ManualClock::new(d("01/01/81")));
    let db = Database::open(&dir, clock).unwrap();
    // Only the first commit survives; framing is lost from the bad frame.
    assert_eq!(db.relation("faculty").unwrap().table().transactions(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_catalog_is_reported() {
    let dir = temp_dir("catalog");
    populated(&dir);
    let cat_path = dir.join("catalog");
    let mut bytes = std::fs::read(&cat_path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&cat_path, &bytes).unwrap();
    let clock = Arc::new(ManualClock::new(d("01/01/81")));
    assert!(
        Database::open(&dir, clock).is_err(),
        "checksum failure must not be silently ignored"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn empty_directory_is_a_fresh_database() {
    let dir = temp_dir("fresh");
    let clock = Arc::new(ManualClock::new(d("01/01/81")));
    let db = Database::open(&dir, clock).unwrap();
    assert!(db.relation_names().is_empty());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_bounds_recovery_and_preserves_history() {
    let dir = temp_dir("ckpt");
    populated(&dir);
    // Checkpoint: the WAL empties, the state moves into the image.
    {
        let clock = Arc::new(ManualClock::new(d("06/01/80")));
        let engine = Engine::start(Database::open(&dir, clock).unwrap());
        let wal_before = std::fs::metadata(dir.join("wal")).unwrap().len();
        assert!(wal_before > 0);
        engine.checkpoint().unwrap();
        assert_eq!(std::fs::metadata(dir.join("wal")).unwrap().len(), 0);
        assert!(dir.join("checkpoint").exists());
    }
    // Reopen from the checkpoint alone: every version and the belief
    // history must survive — a temporal database forgets nothing.
    {
        let clock = Arc::new(ManualClock::new(d("07/01/80")));
        let engine = Engine::start(Database::open(&dir, clock.clone()).unwrap());
        engine.with_db(|db| {
            let rel = db.relation("faculty").unwrap().table();
            assert_eq!(rel.transactions(), 3);
            assert_eq!(rel.last_commit(), Some(d("04/01/80")));
        });
        let res = engine
            .session()
            .query(r#"range of f is faculty retrieve (f.rank) where f.name = "Merrie" as of "03/15/80""#)
            .unwrap();
        assert_eq!(
            res.column_strings(0),
            ["associate"],
            "pre-checkpoint belief intact"
        );
        // New commits land in the (fresh) log on top of the checkpoint…
        clock.advance_to(d("08/01/80"));
        engine
            .session()
            .run(r#"append to faculty (name = "Mike", rank = "assistant")"#)
            .unwrap();
    }
    // …and both layers compose on the next open.
    {
        let clock = Arc::new(ManualClock::new(d("09/01/80")));
        let engine = Engine::start(Database::open(&dir, clock).unwrap());
        let commits = engine.with_db(|db| db.relation("faculty").unwrap().table().transactions());
        assert_eq!(commits, 4);
        let res = engine
            .session()
            .query(r#"range of f is faculty retrieve (f.name) when f overlap "08/15/80""#)
            .unwrap();
        let mut names = res.column_strings(0);
        names.sort();
        assert_eq!(names, ["Merrie", "Mike", "Tom"]);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_round_trips_every_class() {
    let dir = temp_dir("ckpt-all");
    {
        let clock = Arc::new(ManualClock::new(d("01/01/80")));
        let engine = Engine::start(Database::open(&dir, clock.clone()).unwrap());
        engine
            .session()
            .run(
                r#"
            create s (name = str) as static
            create r (name = str) as rollback
            create h (name = str) as historical
            create t (name = str) as temporal
            create e (name = str, stamp = date) as temporal event
        "#,
            )
            .unwrap();
        for rel in ["s", "r", "h", "t"] {
            clock.tick(1);
            engine
                .session()
                .run(&format!(r#"append to {rel} (name = "x")"#))
                .unwrap();
            clock.tick(1);
            engine
                .session()
                .run(&format!(
                    r#"range of v is {rel} delete v where v.name = "x""#
                ))
                .unwrap();
            clock.tick(1);
            engine
                .session()
                .run(&format!(r#"append to {rel} (name = "y")"#))
                .unwrap();
        }
        clock.tick(1);
        engine
            .session()
            .run(r#"append to e (name = "ev", stamp = "01/15/80") valid at "01/10/80""#)
            .unwrap();
        engine.checkpoint().unwrap();
    }
    let clock = Arc::new(ManualClock::new(d("06/01/80")));
    let engine = Engine::start(Database::open(&dir, clock).unwrap());
    for rel in ["s", "r"] {
        let res = engine
            .session()
            .query(&format!("range of v is {rel} retrieve (v.name)"))
            .unwrap();
        assert_eq!(res.column_strings(0), ["y"], "{rel}");
    }
    // The rollback relation still answers as-of across the checkpoint.
    // (`r` was loaded second: its `x` lived from the 4th to the 5th tick.)
    let res = engine
        .session()
        .query(&format!(
            r#"range of v is r retrieve (v.name) as of "{}""#,
            chronos_core::calendar::Date::from_chronon(d("01/01/80") + 4)
        ))
        .unwrap();
    assert_eq!(res.column_strings(0), ["x"]);
    // Event relation round-trips its instant validity.
    let res = engine
        .session()
        .query(r#"range of v is e retrieve (v.stamp) when v overlap "01/10/80""#)
        .unwrap();
    assert_eq!(res.column_strings(0), ["01/15/80"]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupted_checkpoint_is_reported() {
    let dir = temp_dir("ckpt-bad");
    populated(&dir);
    {
        let clock = Arc::new(ManualClock::new(d("06/01/80")));
        let engine = Engine::start(Database::open(&dir, clock).unwrap());
        engine.checkpoint().unwrap();
    }
    let path = dir.join("checkpoint");
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    let clock = Arc::new(ManualClock::new(d("07/01/80")));
    assert!(Database::open(&dir, clock).is_err());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn mixed_classes_replay_correctly() {
    let dir = temp_dir("mixed");
    {
        let clock = Arc::new(ManualClock::new(d("01/01/80")));
        let engine = Engine::start(Database::open(&dir, clock.clone()).unwrap());
        engine
            .session()
            .run(
                r#"
            create s (name = str) as static
            create r (name = str) as rollback
            create h (name = str) as historical
            create t (name = str) as temporal
        "#,
            )
            .unwrap();
        for rel in ["s", "r", "h", "t"] {
            clock.tick(1);
            engine
                .session()
                .run(&format!(r#"append to {rel} (name = "x")"#))
                .unwrap();
            clock.tick(1);
            engine
                .session()
                .run(&format!(r#"append to {rel} (name = "y")"#))
                .unwrap();
            clock.tick(1);
            engine
                .session()
                .run(&format!(
                    r#"range of v is {rel} delete v where v.name = "x""#
                ))
                .unwrap();
        }
    }
    let clock = Arc::new(ManualClock::new(d("01/01/81")));
    let engine = Engine::start(Database::open(&dir, clock).unwrap());
    for rel in ["s", "r"] {
        // Static classes: the delete removed the tuple outright.
        let res = engine
            .session()
            .query(&format!("range of v is {rel} retrieve (v.name)"))
            .unwrap();
        assert_eq!(res.column_strings(0), ["y"], "{rel} replayed wrong");
    }
    for rel in ["h", "t"] {
        // Timestamped classes: x's row remains with a closed validity;
        // only y is valid *now*.
        let res = engine
            .session()
            .query(&format!(
                r#"range of v is {rel} retrieve (v.name) when v overlap "06/01/80""#
            ))
            .unwrap();
        assert_eq!(res.column_strings(0), ["y"], "{rel} replayed wrong");
    }
    // The rollback relation still remembers x's tenure.
    let stored = engine.with_db(|db| db.relation("r").unwrap().stored_tuples());
    assert_eq!(stored, 2);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Reads `"key": <digits>` out of one journal line.
fn field_u64(line: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\": ");
    let at = line
        .find(&needle)
        .unwrap_or_else(|| panic!("no {key} in {line}"));
    line[at + needle.len()..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("bad {key} in {line}"))
}

/// The writer checkpoints once the log outgrows both the 16 KiB floor
/// and the last checkpoint, so the log never holds more than
/// max(16 KiB, one checkpoint) plus the group just committed, and a
/// reopen replays no more than that.
#[test]
fn recovery_is_bounded_by_the_last_checkpoint() {
    const FLOOR: u64 = 16 * 1024;
    const KEYS: usize = 4;
    const REPLACES: usize = 2_000;
    let dir = temp_dir("bounded");
    let len = |file: &str| std::fs::metadata(dir.join(file)).map_or(0, |m| m.len());
    // The log's frames, without the zeroed tail after them.
    let frames = || scan_wal(&dir.join("wal")).unwrap().valid_len;
    let clock = Arc::new(ManualClock::new(d("01/01/80")));
    let engine = Engine::start(Database::open(&dir, clock.clone()).unwrap());
    engine
        .session()
        .run("create faculty (name = str, rank = str) as temporal")
        .unwrap();
    for k in 0..KEYS {
        clock.tick(1);
        engine
            .session()
            .run(&format!(r#"append to faculty (name = "k{k}", rank = "r")"#))
            .unwrap();
    }
    let mut session = engine.session();
    let mut wal_before = frames();
    for i in 0..REPLACES {
        clock.tick(1);
        session
            .run(&format!(
                r#"range of f is faculty replace f (rank = "r{i}") where f.name = "k{}""#,
                i % KEYS
            ))
            .unwrap();
        // Under the read lock the writer is between groups, so the log
        // and the checkpoint are read as one state.
        let (wal, checkpoint) = engine.with_db(|_| (frames(), len("checkpoint")));
        // The frames of this commit's group, unless a checkpoint since
        // emptied the log.
        let group = wal.saturating_sub(wal_before);
        assert!(
            wal <= FLOOR.max(checkpoint) + group,
            "after commit {i}: log {wal} B > max({FLOOR}, checkpoint {checkpoint} B) + group {group} B"
        );
        wal_before = wal;
    }
    let rows = |engine: &Arc<Engine>| {
        engine.with_db(|db| {
            let mut rows: Vec<String> = db
                .relation("faculty")
                .unwrap()
                .table()
                .scan_rows()
                .unwrap()
                .iter()
                .map(|row| format!("{row:?}"))
                .collect();
            rows.sort();
            rows
        })
    };
    let acknowledged = rows(&engine);
    // Each replace closes one version and adds two: the old fact ended
    // now, the new one from now.
    assert_eq!(acknowledged.len(), KEYS + 2 * REPLACES);
    // Dropped without a checkpoint: the writer finished the last
    // group's policy check before it stopped.
    drop(session);
    drop(engine);
    let (wal, checkpoint) = (frames(), len("checkpoint"));
    assert!(wal <= FLOOR.max(checkpoint), "log {wal} B at close");
    // Amortized: the checkpoints wrote at most twice the log bytes
    // appended (the ones they truncated plus the log left over).
    let journal = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
    let finished: Vec<&str> = journal
        .lines()
        .filter(|l| l.contains("\"event\": \"db_checkpoint_finish\""))
        .collect();
    assert!(!finished.is_empty(), "the log outgrew the floor");
    let started = journal
        .lines()
        .filter(|l| l.contains("\"event\": \"db_checkpoint_start\""));
    assert!(started.clone().all(|l| l.contains("\"reason\": \"log\"")));
    assert_eq!(started.count(), finished.len());
    let written: u64 = finished.iter().map(|l| field_u64(l, "bytes")).sum();
    let appended: u64 = wal
        + finished
            .iter()
            .map(|l| field_u64(l, "wal_bytes_truncated"))
            .sum::<u64>();
    assert!(
        written <= 2 * appended,
        "{written} B of checkpoints for {appended} B of log"
    );

    let engine = Engine::start(Database::open(&dir, clock).unwrap());
    let journal = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
    let recovery = journal
        .lines()
        .rfind(|l| l.contains("\"event\": \"recovery\""))
        .expect("a recovery event");
    // `truncated_at` is the intact log's length: every byte replay read.
    let replayed = field_u64(recovery, "truncated_at");
    assert_eq!(replayed, wal, "{recovery}");
    assert!(replayed <= FLOOR.max(checkpoint), "{recovery}");
    assert!(field_u64(recovery, "frames_replayed") > 0, "{recovery}");
    assert_eq!(
        rows(&engine),
        acknowledged,
        "every acknowledged row reads back"
    );
    drop(engine);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The files of `dir`, by name, with their bytes.
fn file_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read(&path).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// `tests/fixtures/format2-db` was written by the last build before
/// checkpoints and log frames shared their strings, from
/// `format2-db.tql`: one relation of each class, a checkpoint, and a
/// log tail of five frames.  `format2-db.answers` is what that build
/// printed for the reads below.  Today's build inspects it without a
/// change, opens it, answers the same, and has rewritten its catalog
/// under the new magic, so the older build refuses the directory by
/// name from then on.
#[test]
fn a_format_2_directory_opens_and_answers_as_its_writer_did() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures/format2-db");
    let before = file_bytes(&fixture);
    let report = chronos_db::inspect(&fixture).unwrap();
    assert_eq!(report.exit_code(), 0, "{}", report.human_report());
    assert_eq!(
        file_bytes(&fixture),
        before,
        "--inspect wrote to the fixture"
    );
    assert_eq!(&before[0].1[..8], b"CHRONCAT");

    let dir = temp_dir("format2");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, bytes) in &before {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
    let clock = Arc::new(ManualClock::new(d("09/06/82")));
    let engine = Engine::start(Database::open(&dir, clock).unwrap());
    let mut session = engine.session();
    let mut answers = String::new();
    for program in [
        "range of f is faculty retrieve (f.name, f.rank)",
        r#"retrieve (f.name, f.rank) as of "07/01/81""#,
        "range of s is staff retrieve (s.name, s.dept)",
        "range of l is ledger retrieve (l.name, l.dept)",
        r#"retrieve (l.name, l.dept) as of "01/01/81""#,
        "range of t is tenure retrieve (t.name, t.rank)",
    ] {
        let outcomes = session.run(program).unwrap();
        answers.push_str(&chronos_db::net::render_outcomes(&outcomes));
    }
    assert_eq!(answers, include_str!("fixtures/format2-db.answers"));
    drop(session);
    drop(engine);
    assert_eq!(
        &std::fs::read(dir.join("catalog")).unwrap()[..8],
        b"CHRONCA2"
    );

    // The recovery event splits the restart into its parts.
    let journal = std::fs::read_to_string(dir.join("events.jsonl")).unwrap();
    let recovery = (journal.lines())
        .find(|l| l.contains("\"event\": \"recovery\""))
        .unwrap();
    assert_eq!(field_u64(recovery, "frames_replayed"), 5, "{recovery}");
    let parts: u64 = ["checkpoint_us", "log_decode_us", "replay_us"]
        .iter()
        .map(|f| field_u64(recovery, f))
        .sum();
    assert!(parts <= field_u64(recovery, "elapsed_us"), "{recovery}");
    std::fs::remove_dir_all(&dir).unwrap();
}
