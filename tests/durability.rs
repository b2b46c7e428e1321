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
use chronos_db::{Database, Engine};

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
    // final append, torn at an arbitrary byte.
    let wal_path = dir.join("wal");
    let len = std::fs::metadata(&wal_path).unwrap().len();
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
    // Walk the `[len][crc][payload]` framing to the last record and
    // flip one byte of its stored checksum (bit-rot on the crc itself).
    let wal_path = dir.join("wal");
    let mut bytes = std::fs::read(&wal_path).unwrap();
    let mut offset = 0usize;
    let mut last = 0usize;
    while offset + 8 <= bytes.len() {
        last = offset;
        let frame_len = u32::from_le_bytes(bytes[offset..offset + 4].try_into().unwrap()) as usize;
        offset += 8 + frame_len;
    }
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
