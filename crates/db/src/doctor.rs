//! Offline storage forensics: `chronos --inspect DIR`.
//!
//! The doctor walks a durable database directory **without running
//! recovery** and without opening any file for writing: every artefact
//! — catalog, checkpoint, WAL, events journal — is parsed read-only and
//! judged on its own.  Where [`Database::open`](crate::Database::open)
//! would silently truncate a torn WAL tail and replay, the doctor
//! *reports* the tear (with its byte offset) and leaves the file
//! untouched, so a corrupted database can be diagnosed before deciding
//! whether to recover, restore a backup, or dig further.
//!
//! The WAL section is produced by [`chronos_storage::inspect`] — the
//! same walker behind the live `sys$wal` relation and the exporter's
//! `/wal` document — so offline and live reports agree on a quiesced
//! database by construction.
//!
//! Exit-code contract (used by `--inspect` and the CI smoke):
//!
//! * `0` — every artefact parsed clean,
//! * `2` — the directory was readable but something is torn or corrupt
//!   (the report names each problem and its offset),
//! * `1` — the directory itself could not be read at all.

use std::path::{Path, PathBuf};

use chronos_storage::inspect::{scan_wal, TailState, WalScan};

use crate::catalog::Catalog;
use crate::checkpoint;

/// What the doctor found out about the catalog file.
pub enum CatalogReport {
    /// No `catalog` file — a database that never created a relation.
    Absent,
    /// Parsed clean: `(name, class, signature, rel_id)` per relation.
    Ok(Vec<(String, String, String, u32)>),
    /// Present but unparseable.
    Broken(String),
}

/// What the doctor found out about the checkpoint file.
pub enum CheckpointReport {
    /// No `checkpoint` file — recovery would replay the whole WAL.
    Absent,
    /// Parsed clean (magic, CRC, framing all good).
    Ok {
        /// Last commit time the images absorbed, in ticks.
        wal_floor: Option<i64>,
        /// `(rel_id, class, rows)` per relation image.  Images are
        /// class-uniform; the class is the catalog's, `?` where the
        /// catalog has no such relation (or did not parse).
        images: Vec<(u32, String, u64)>,
    },
    /// Present but bad magic, bad CRC, or undecodable body.
    Broken(String),
}

/// What the doctor found out about the events journal.
pub enum JournalReport {
    /// No `events.jsonl` (journalling is optional).
    Absent,
    /// Every line is well-formed JSON.
    Ok(usize),
    /// A line failed to parse.
    Broken(String),
}

/// One regular file in the directory: `(name, bytes)`.
pub type FileEntry = (String, u64);

/// The complete read-only findings for one database directory.
pub struct Inspection {
    /// The inspected directory.
    pub dir: PathBuf,
    /// Every regular file present, with sizes, sorted by name.
    pub files: Vec<FileEntry>,
    /// Catalog findings.
    pub catalog: CatalogReport,
    /// Checkpoint findings.
    pub checkpoint: CheckpointReport,
    /// WAL findings (`None` only if the file existed but could not be
    /// read at all).
    pub wal: Option<WalScan>,
    /// Events-journal findings.
    pub journal: JournalReport,
    /// Every diagnosis, offset included where one exists.  Empty means
    /// the database is clean.
    pub problems: Vec<String>,
}

impl Inspection {
    /// True when every artefact parsed clean.
    pub fn healthy(&self) -> bool {
        self.problems.is_empty()
    }

    /// The process exit code for `--inspect`: 0 clean, 2 diagnosed.
    pub fn exit_code(&self) -> i32 {
        if self.healthy() {
            0
        } else {
            2
        }
    }

    /// The human report printed by `--inspect`.
    pub fn human_report(&self) -> String {
        let mut out = format!("inspecting {} (read-only)\n\nfiles:\n", self.dir.display());
        if self.files.is_empty() {
            out.push_str("  (none)\n");
        }
        for (name, bytes) in &self.files {
            out.push_str(&format!("  {name:<24} {bytes:>10} bytes\n"));
        }
        match &self.catalog {
            CatalogReport::Absent => out.push_str("\ncatalog: absent (empty database)\n"),
            CatalogReport::Ok(entries) => {
                out.push_str(&format!("\ncatalog: {} relation(s)\n", entries.len()));
                for (name, class, signature, rel_id) in entries {
                    out.push_str(&format!(
                        "  {name}  [{class}, {signature}]  rel_id {rel_id}\n"
                    ));
                }
            }
            CatalogReport::Broken(e) => out.push_str(&format!("\ncatalog: BROKEN — {e}\n")),
        }
        match &self.checkpoint {
            CheckpointReport::Absent => {
                out.push_str("checkpoint: absent (recovery replays the full WAL)\n")
            }
            CheckpointReport::Ok { wal_floor, images } => {
                let floor = match wal_floor {
                    Some(t) => format!("wal floor at tick {t}"),
                    None => "no wal floor".to_string(),
                };
                out.push_str(&format!("checkpoint: {} image(s), {floor}\n", images.len()));
                for (rel_id, class, rows) in images {
                    out.push_str(&format!("  rel_id {rel_id}  {class}  {rows} row(s)\n"));
                }
            }
            CheckpointReport::Broken(e) => out.push_str(&format!("checkpoint: BROKEN — {e}\n")),
        }
        match &self.wal {
            None => out.push_str("wal: unreadable\n"),
            Some(scan) => {
                out.push_str(&format!(
                    "wal: {} frame(s), {} bytes ({} valid), tail {}\n",
                    scan.frames.len(),
                    scan.total_len,
                    scan.valid_len,
                    scan.tail.label(),
                ));
                if let Some((first, last)) = scan.lsn_range() {
                    out.push_str(&format!("  commit ticks {first}..={last}\n"));
                }
                let (ins, rem, setv) = scan.op_totals();
                if ins + rem + setv > 0 {
                    out.push_str(&format!(
                        "  ops: {ins} insert, {rem} remove, {setv} set_validity\n"
                    ));
                }
                for (class, frames, bytes) in scan.classes() {
                    out.push_str(&format!(
                        "  class {class}: {frames} frame(s), {bytes} bytes\n"
                    ));
                }
            }
        }
        match &self.journal {
            JournalReport::Absent => out.push_str("journal: absent\n"),
            JournalReport::Ok(n) => {
                out.push_str(&format!("journal: {n} well-formed JSON line(s)\n"))
            }
            JournalReport::Broken(e) => out.push_str(&format!("journal: BROKEN — {e}\n")),
        }
        if self.problems.is_empty() {
            out.push_str("\nverdict: clean\n");
        } else {
            out.push_str(&format!("\nverdict: {} problem(s)\n", self.problems.len()));
            for p in &self.problems {
                out.push_str(&format!("  - {p}\n"));
            }
        }
        out
    }

    /// The `--inspect-json` dump: one JSON object per WAL frame, then
    /// one `{"tail": ...}` object describing how the log ends.
    pub fn frames_jsonl(&self) -> String {
        let mut out = String::new();
        let Some(scan) = &self.wal else {
            return "{\"tail\": \"unreadable\"}\n".to_string();
        };
        for f in &scan.frames {
            out.push_str(&format!(
                "{{\"offset\": {}, \"len\": {}, \"rel_id\": {}, \"tx_ticks\": {}, \
                 \"class\": \"{}\", \"insert\": {}, \"remove\": {}, \"set_validity\": {}}}\n",
                f.offset,
                f.frame_len,
                f.rel_id,
                f.tx_ticks,
                f.class(),
                f.insert_ops,
                f.remove_ops,
                f.set_validity_ops,
            ));
        }
        match &scan.tail {
            TailState::Clean => out.push_str("{\"tail\": \"clean\"}\n"),
            TailState::Torn { offset, bytes } => out.push_str(&format!(
                "{{\"tail\": \"torn\", \"offset\": {offset}, \"bytes\": {bytes}}}\n"
            )),
            TailState::Corrupt {
                offset,
                bytes,
                reason,
            } => out.push_str(&format!(
                "{{\"tail\": \"corrupt\", \"offset\": {offset}, \"bytes\": {bytes}, \
                 \"reason\": \"{}\"}}\n",
                chronos_obs::events::escape_json(reason),
            )),
        }
        out
    }
}

/// Inspects a database directory read-only.  `Err` means the directory
/// itself could not be listed (exit code 1 territory); every per-file
/// finding — including corruption — lands in the returned report.
pub fn inspect(dir: &Path) -> std::io::Result<Inspection> {
    let mut files: Vec<FileEntry> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            files.push((
                entry.file_name().to_string_lossy().into_owned(),
                entry.metadata()?.len(),
            ));
        }
    }
    files.sort();
    let mut problems = Vec::new();

    let catalog_path = dir.join("catalog");
    let catalog = if catalog_path.exists() {
        match Catalog::load(&catalog_path) {
            Ok(cat) => CatalogReport::Ok(
                cat.iter()
                    .map(|(name, e)| {
                        (
                            name.clone(),
                            e.class.to_string(),
                            e.signature.to_string(),
                            e.rel_id,
                        )
                    })
                    .collect(),
            ),
            Err(e) => {
                problems.push(format!("catalog does not parse: {e}"));
                CatalogReport::Broken(e.to_string())
            }
        }
    } else {
        CatalogReport::Absent
    };

    let checkpoint = match checkpoint::load(&dir.join("checkpoint")) {
        Ok(None) => CheckpointReport::Absent,
        Ok(Some(ckp)) => CheckpointReport::Ok {
            wal_floor: ckp.wal_floor.map(|c| c.ticks()),
            images: ckp
                .images
                .iter()
                .map(|(rel_id, image)| {
                    let class = match &catalog {
                        CatalogReport::Ok(entries) => entries
                            .iter()
                            .find(|(_, _, _, id)| id == rel_id)
                            .map(|(_, class, _, _)| class.clone()),
                        _ => None,
                    };
                    (
                        *rel_id,
                        class.unwrap_or_else(|| "?".to_string()),
                        image.rows.len() as u64,
                    )
                })
                .collect(),
        },
        Err(e) => {
            problems.push(format!("checkpoint does not parse: {e}"));
            CheckpointReport::Broken(e.to_string())
        }
    };

    let wal = match scan_wal(&dir.join("wal")) {
        Ok(scan) => {
            match &scan.tail {
                TailState::Clean => {}
                TailState::Torn { offset, bytes } => problems.push(format!(
                    "wal has a torn tail: {bytes} incomplete byte(s) at offset {offset} \
                     (an interrupted append; recovery would truncate here)"
                )),
                TailState::Corrupt { reason, .. } => problems.push(format!("wal {reason}")),
            }
            Some(scan)
        }
        Err(e) => {
            problems.push(format!("wal unreadable: {e}"));
            None
        }
    };

    let journal_path = dir.join("events.jsonl");
    let journal = if journal_path.exists() {
        match std::fs::read_to_string(&journal_path) {
            Ok(text) => match chronos_obs::validate_jsonl(&text) {
                Ok(n) => JournalReport::Ok(n),
                Err(e) => {
                    problems.push(format!("events.jsonl is malformed: {e}"));
                    JournalReport::Broken(e.to_string())
                }
            },
            Err(e) => {
                problems.push(format!("events.jsonl unreadable: {e}"));
                JournalReport::Broken(e.to_string())
            }
        }
    } else {
        JournalReport::Absent
    };

    Ok(Inspection {
        dir: dir.to_path_buf(),
        files,
        catalog,
        checkpoint,
        wal,
        journal,
        problems,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use chronos_core::calendar::date;
    use chronos_core::clock::ManualClock;

    use crate::{Database, Engine};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "chronos-doctor-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn seeded_db(tag: &str) -> PathBuf {
        let dir = temp_dir(tag);
        let clock = Arc::new(ManualClock::new(date("08/25/77").unwrap()));
        let engine = Engine::start(Database::open(&dir, clock).unwrap());
        engine
            .session()
            .run(r#"
                create faculty (name = str, rank = str) as temporal
                append to faculty (name = "Merrie", rank = "assistant") valid from "09/01/77" to forever
                append to faculty (name = "Tom", rank = "full") valid from "09/01/77" to forever
            "#)
            .unwrap();
        dir
    }

    /// Every on-disk byte before == after: the doctor never mutates.
    fn fingerprint(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let e = e.unwrap();
                (
                    e.file_name().to_string_lossy().into_owned(),
                    std::fs::read(e.path()).unwrap(),
                )
            })
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    #[test]
    fn clean_database_inspects_clean_without_mutation() {
        let dir = seeded_db("clean");
        let before = fingerprint(&dir);
        let report = inspect(&dir).unwrap();
        assert!(report.healthy(), "problems: {:?}", report.problems);
        assert_eq!(report.exit_code(), 0);
        let scan = report.wal.as_ref().unwrap();
        assert!(!scan.frames.is_empty());
        let text = report.human_report();
        assert!(text.contains("verdict: clean"));
        assert!(text.contains("faculty"));
        assert!(text.contains("tail clean"));
        let jsonl = report.frames_jsonl();
        assert!(jsonl.ends_with("{\"tail\": \"clean\"}\n"));
        assert_eq!(jsonl.lines().count(), scan.frames.len() + 1);
        assert_eq!(fingerprint(&dir), before, "doctor mutated the database");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_is_diagnosed_with_its_offset() {
        let dir = seeded_db("torn");
        let wal_path = dir.join("wal");
        let mut bytes = std::fs::read(&wal_path).unwrap();
        let torn_at = {
            // Recompute the last clean frame boundary so the test knows
            // the offset the doctor must name.
            let scan = chronos_storage::inspect::scan_wal_bytes(&bytes);
            assert!(scan.is_clean());
            scan.frames.last().unwrap().offset
        };
        bytes.truncate(bytes.len() - 3);
        std::fs::write(&wal_path, &bytes).unwrap();
        let before = fingerprint(&dir);
        let report = inspect(&dir).unwrap();
        assert!(!report.healthy());
        assert_eq!(report.exit_code(), 2);
        let text = report.human_report();
        assert!(
            text.contains("torn tail") && text.contains(&format!("offset {torn_at}")),
            "report must name the torn offset {torn_at}: {text}"
        );
        assert!(report.frames_jsonl().contains("\"tail\": \"torn\""));
        assert_eq!(fingerprint(&dir), before, "doctor mutated the database");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_wal_byte_is_diagnosed_as_corrupt() {
        let dir = seeded_db("flip");
        let wal_path = dir.join("wal");
        let mut bytes = std::fs::read(&wal_path).unwrap();
        let (victim_offset, payload_at) = {
            let scan = chronos_storage::inspect::scan_wal_bytes(&bytes);
            let first = &scan.frames[0];
            (first.offset, first.offset as usize + 8)
        };
        bytes[payload_at] ^= 0xFF;
        std::fs::write(&wal_path, &bytes).unwrap();
        let report = inspect(&dir).unwrap();
        assert_eq!(report.exit_code(), 2);
        let text = report.human_report();
        assert!(
            text.contains("checksum mismatch") && text.contains(&format!("offset {victim_offset}")),
            "report must name the corrupt frame offset {victim_offset}: {text}"
        );
        assert!(report.frames_jsonl().contains("\"tail\": \"corrupt\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checkpoint_is_diagnosed() {
        let dir = seeded_db("ckp");
        {
            let clock = Arc::new(ManualClock::new(date("08/25/77").unwrap()));
            let mut db = Database::open(&dir, clock).unwrap();
            db.checkpoint().unwrap();
        }
        let ckp_path = dir.join("checkpoint");
        let mut bytes = std::fs::read(&ckp_path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&ckp_path, &bytes).unwrap();
        let report = inspect(&dir).unwrap();
        assert_eq!(report.exit_code(), 2);
        assert!(report
            .problems
            .iter()
            .any(|p| p.contains("checkpoint does not parse")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_images_take_their_class_from_the_catalog() {
        let dir = temp_dir("classes");
        let clock = Arc::new(ManualClock::new(date("08/25/77").unwrap()));
        let engine = Engine::start(Database::open(&dir, clock).unwrap());
        engine
            .session()
            .run(
                r#"
                create s (name = str) as static
                create r (name = str) as rollback
                create h (name = str) as historical
                create t (name = str) as temporal
                append to s (name = "x")
                append to r (name = "x")
                append to h (name = "x")
                append to t (name = "x")
                range of v is r
                delete v where v.name = "x"
            "#,
            )
            .unwrap();
        engine.checkpoint().unwrap();
        drop(engine);
        let report = inspect(&dir).unwrap();
        assert!(report.healthy(), "problems: {:?}", report.problems);
        let CheckpointReport::Ok { images, .. } = &report.checkpoint else {
            panic!("checkpoint should parse");
        };
        // Images come in rel_id (creation) order and carry no class of
        // their own; r kept the version its delete closed.
        let by_class: Vec<(&str, u64)> = images.iter().map(|(_, c, n)| (c.as_str(), *n)).collect();
        assert_eq!(
            by_class,
            [
                ("static", 1),
                ("static rollback", 1),
                ("historical", 1),
                ("temporal", 1)
            ]
        );
        let text = report.human_report();
        assert!(text.contains("static rollback  1 row(s)"), "{text}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_directory_is_an_io_error() {
        let dir = std::env::temp_dir().join("chronos-doctor-definitely-absent");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(inspect(&dir).is_err());
    }
}
