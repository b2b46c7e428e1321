//! Write-ahead log.
//!
//! ChronosDB logs *logically*: each committed transaction appends one
//! checksummed frame holding the transaction time, the relation id, and
//! the [`HistoricalOp`]s (or static ops encoded as historical ops on an
//! always-valid period).  Replaying the log through the normal commit
//! path deterministically reconstructs the table — which is exactly the
//! append-only transaction-time semantics of the paper: the log *is* the
//! temporal database.
//!
//! Frame format: `[len: u32 LE][crc32(payload): u32 LE][payload]`.
//! Recovery reads frames until the end of the file; an incomplete or
//! checksum-failing final frame (a torn write from a crash) is tolerated
//! and truncated, while corruption *before* the tail is reported as an
//! error.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use chronos_core::chronon::Chronon;
use chronos_core::relation::{HistoricalOp, RowSelector};
use chronos_obs::Recorder;

use crate::codec::{crc32, get_tuple, get_validity, put_tuple, put_uvarint, put_validity, Reader};
use crate::error::{StorageError, StorageResult};

/// One committed transaction, as logged.
#[derive(Clone, PartialEq, Debug)]
pub struct WalRecord {
    /// The relation the transaction applies to.
    pub rel_id: u32,
    /// The transaction time assigned at commit.
    pub tx_time: Chronon,
    /// The operations, in order.
    pub ops: Vec<HistoricalOp>,
}

const OP_INSERT: u8 = 0;
const OP_REMOVE: u8 = 1;
const OP_SET_VALIDITY: u8 = 2;

fn put_selector(buf: &mut Vec<u8>, sel: &RowSelector) {
    put_tuple(buf, &sel.tuple);
    match sel.validity {
        None => buf.push(0),
        Some(v) => {
            buf.push(1);
            put_validity(buf, v);
        }
    }
}

fn get_selector(r: &mut Reader<'_>) -> StorageResult<RowSelector> {
    let tuple = get_tuple(r)?;
    let validity = match r.get_u8()? {
        0 => None,
        1 => Some(get_validity(r)?),
        t => return Err(StorageError::Corrupt(format!("bad selector tag {t}"))),
    };
    Ok(RowSelector { tuple, validity })
}

/// Encodes a record into a payload (no framing).
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    buf.extend_from_slice(&rec.rel_id.to_le_bytes());
    crate::codec::put_ivarint(&mut buf, rec.tx_time.ticks());
    put_uvarint(&mut buf, rec.ops.len() as u64);
    for op in &rec.ops {
        match op {
            HistoricalOp::Insert { tuple, validity } => {
                buf.push(OP_INSERT);
                put_tuple(&mut buf, tuple);
                put_validity(&mut buf, *validity);
            }
            HistoricalOp::Remove { selector } => {
                buf.push(OP_REMOVE);
                put_selector(&mut buf, selector);
            }
            HistoricalOp::SetValidity { selector, validity } => {
                buf.push(OP_SET_VALIDITY);
                put_selector(&mut buf, selector);
                put_validity(&mut buf, *validity);
            }
        }
    }
    buf
}

/// Decodes a payload into a record.
pub fn decode_record(payload: &[u8]) -> StorageResult<WalRecord> {
    let mut r = Reader::new(payload);
    let mut id = [0u8; 4];
    for slot in &mut id {
        *slot = r.get_u8()?;
    }
    let rel_id = u32::from_le_bytes(id);
    let tx_time = Chronon::new(r.get_ivarint()?);
    let n = r.get_uvarint()? as usize;
    if n > 1 << 24 {
        return Err(StorageError::Corrupt(format!("implausible op count {n}")));
    }
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        let op = match r.get_u8()? {
            OP_INSERT => HistoricalOp::Insert {
                tuple: get_tuple(&mut r)?,
                validity: get_validity(&mut r)?,
            },
            OP_REMOVE => HistoricalOp::Remove {
                selector: get_selector(&mut r)?,
            },
            OP_SET_VALIDITY => {
                let selector = get_selector(&mut r)?;
                let validity = get_validity(&mut r)?;
                HistoricalOp::SetValidity { selector, validity }
            }
            t => return Err(StorageError::Corrupt(format!("unknown op tag {t}"))),
        };
        ops.push(op);
    }
    if !r.is_exhausted() {
        return Err(StorageError::Corrupt(format!(
            "{} trailing bytes after record",
            r.remaining()
        )));
    }
    Ok(WalRecord {
        rel_id,
        tx_time,
        ops,
    })
}

/// The result of reading a log: the valid records, plus how many bytes of
/// torn tail (if any) were ignored.
#[derive(Debug)]
pub struct Recovered {
    /// Every intact record in append order.
    pub records: Vec<WalRecord>,
    /// Offset at which the valid prefix ends.
    pub valid_len: u64,
    /// Bytes of unusable tail beyond `valid_len`.
    pub torn_bytes: u64,
}

/// An append-only write-ahead log.
pub struct Wal {
    file: File,
    path: PathBuf,
    recorder: Arc<Recorder>,
    /// Length of the known-good, fsynced prefix.  A failed append
    /// rolls the file back here so later appends never land *after*
    /// garbage (which recovery would then truncate away, silently
    /// losing them).
    synced_len: u64,
    /// End of the last intact frame, synced or not.  Frames between
    /// `synced_len` and here were staged by [`Wal::append_no_sync`] and
    /// await a [`Wal::group_sync`]; a failed staging rolls back to this
    /// boundary rather than `synced_len` so one bad append in a batch
    /// cannot erase its already-staged siblings.
    logical_len: u64,
    /// How many times this handle has truncated the log (rollback of a
    /// failed apply via [`Wal::truncate_to`], or a post-checkpoint
    /// [`Wal::reset`]).  Surfaced by `sys$wal`.
    truncations: u64,
    /// Bytes dropped by the most recent truncation, if any.
    last_truncation_bytes: u64,
}

impl Wal {
    /// Opens (creating if necessary) the log at `path`.
    pub fn open(path: &Path) -> StorageResult<Wal> {
        let file = OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(path)?;
        let synced_len = file.metadata()?.len();
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            recorder: Arc::new(Recorder::disabled()),
            synced_len,
            logical_len: synced_len,
            truncations: 0,
            last_truncation_bytes: 0,
        })
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Routes append/fsync counts into `recorder`.
    pub fn set_recorder(&mut self, recorder: Arc<Recorder>) {
        self.recorder = recorder;
    }

    /// Appends one record (framed and checksummed) and syncs to disk:
    /// [`append_no_sync`](Self::append_no_sync) followed by
    /// [`group_sync`](Self::group_sync), with their rollback on error.
    pub fn append(&mut self, rec: &WalRecord) -> StorageResult<()> {
        self.append_no_sync(rec)?;
        self.group_sync()
    }

    /// Appends one record (framed and checksummed) **without** syncing:
    /// the frame is staged until the next [`Wal::group_sync`] makes the
    /// whole batch durable under a single fsync (group commit).
    ///
    /// On error the file is rolled back to the end of the last intact
    /// frame — which may itself still be staged — so a failed append
    /// never erases frames already staged by the same batch.
    pub fn append_no_sync(&mut self, rec: &WalRecord) -> StorageResult<()> {
        let restore = self.logical_len;
        let result = self.append_no_sync_inner(rec);
        if result.is_err() {
            let _ = self.file.set_len(restore);
            let _ = self.file.sync_data();
            self.logical_len = restore;
        }
        result
    }

    /// Frames, checksums, and writes one record, honoring the
    /// `wal.append.pre_frame`/`wal.append.frame` fault sites, and
    /// advances `logical_len` past the new frame.
    fn append_no_sync_inner(&mut self, rec: &WalRecord) -> StorageResult<()> {
        let recorder = Arc::clone(&self.recorder);
        let _span = recorder.span("wal/append");
        crate::fault::crash_point("wal.append.pre_frame")?;
        let payload = encode_record(rec);
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        match crate::fault::write_decision("wal.append.frame", frame.len())? {
            crate::fault::IoFault::Full => self.file.write_all(&frame)?,
            crate::fault::IoFault::Torn { keep, unwind } => {
                // Persist the tear before dying so the torn tail is
                // really on disk for recovery to find.
                self.file.write_all(&frame[..keep])?;
                let _ = self.file.sync_data();
                if unwind {
                    return Err(crate::fault::injected_error("wal.append.frame").into());
                }
                crate::fault::crash_now("wal.append.frame");
            }
        }
        self.logical_len += frame.len() as u64;
        self.recorder.count(|m| &m.wal_appends);
        Ok(())
    }

    /// Makes every staged frame durable under one fsync.  A no-op (no
    /// fsync, no fault-site hit) when nothing is staged.
    ///
    /// On error the staged frames are rolled back to the fsynced
    /// prefix: the caller is about to report every covered commit as
    /// failed, and a frame that was never acknowledged must not
    /// resurrect its commit at recovery.
    pub fn group_sync(&mut self) -> StorageResult<()> {
        if self.logical_len == self.synced_len {
            return Ok(());
        }
        let result = self.group_sync_inner();
        if result.is_err() {
            let _ = self.file.set_len(self.synced_len);
            let _ = self.file.sync_data();
            self.logical_len = self.synced_len;
        }
        result
    }

    fn group_sync_inner(&mut self) -> StorageResult<()> {
        let _span = self.recorder.span("wal/group_sync");
        // A crash here models a process death after the frames reached
        // the OS but before any fsync: the staged frames are full on
        // disk, yet no commit they carry was acknowledged.
        crate::fault::crash_point("wal.group_sync.pre")?;
        if crate::fault::crash_imminent("wal.group_fsync") {
            // An injected crash here models a power cut at the
            // group-commit boundary: the staged frames are exactly the
            // bytes such a cut may drop, so drop them deterministically
            // before dying (the same way torn-write sites persist their
            // tear first).  Every acked commit stays durable; the
            // unacked batch vanishes.
            let _ = self.file.set_len(self.synced_len);
            let _ = self.file.sync_data();
        }
        crate::fault::crash_point("wal.group_fsync")?;
        self.file.sync_data()?;
        // `synced_len` advances only once the whole sync has succeeded:
        // an error unwinding from here rolls the durable but *reported
        // failed* frames back, keeping the log consistent with what the
        // caller was told.
        crate::fault::crash_point("wal.group_sync.post")?;
        self.synced_len = self.logical_len;
        self.recorder.count(|m| &m.wal_fsyncs);
        Ok(())
    }

    /// Bytes staged by [`Wal::append_no_sync`] and not yet covered by a
    /// [`Wal::group_sync`].
    pub fn pending_bytes(&self) -> u64 {
        self.logical_len - self.synced_len
    }

    /// Length of the known-good, fsynced prefix (the durability
    /// watermark `sys$wal` reports).
    pub fn synced_len(&self) -> u64 {
        self.synced_len
    }

    /// End of the last intact frame, synced or not.
    pub fn logical_len(&self) -> u64 {
        self.logical_len
    }

    /// How many truncations this handle has performed (rollbacks and
    /// post-checkpoint resets).
    pub fn truncations(&self) -> u64 {
        self.truncations
    }

    /// Bytes dropped by the most recent truncation (0 if none yet).
    pub fn last_truncation_bytes(&self) -> u64 {
        self.last_truncation_bytes
    }

    fn note_truncation(&mut self, dropped: u64) {
        if dropped > 0 {
            self.truncations += 1;
            self.last_truncation_bytes = dropped;
        }
    }

    /// Reads every record, tolerating a torn tail.
    ///
    /// Returns an error only for corruption *within* the valid prefix
    /// (an interior frame whose checksum fails but whose length field is
    /// plausible and followed by more data is still treated as tail
    /// corruption from that point on: everything after the first bad
    /// frame is unusable because framing is lost).
    pub fn recover(path: &Path) -> StorageResult<Recovered> {
        let mut data = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut data)?;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let mut records = Vec::new();
        let mut pos = 0usize;
        let mut valid_len = 0u64;
        while data.len() - pos >= 8 {
            let len = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes")) as usize;
            let stored_crc =
                u32::from_le_bytes(data[pos + 4..pos + 8].try_into().expect("4 bytes"));
            if data.len() - pos - 8 < len {
                break; // torn tail: incomplete frame
            }
            let payload = &data[pos + 8..pos + 8 + len];
            if crc32(payload) != stored_crc {
                break; // torn or corrupt from here on
            }
            match decode_record(payload) {
                Ok(rec) => records.push(rec),
                Err(_) => break,
            }
            pos += 8 + len;
            valid_len = pos as u64;
        }
        Ok(Recovered {
            records,
            valid_len,
            torn_bytes: data.len() as u64 - valid_len,
        })
    }

    /// Truncates the log to its valid prefix, discarding a torn tail.
    pub fn truncate_torn_tail(path: &Path) -> StorageResult<Recovered> {
        let rec = Self::recover(path)?;
        if rec.torn_bytes > 0 {
            let f = OpenOptions::new().write(true).open(path)?;
            f.set_len(rec.valid_len)?;
            f.sync_data()?;
        }
        Ok(rec)
    }

    /// Current log size in bytes.
    pub fn len(&self) -> StorageResult<u64> {
        Ok(self.file.metadata()?.len())
    }

    /// True iff the log holds no bytes.
    pub fn is_empty(&self) -> StorageResult<bool> {
        Ok(self.len()? == 0)
    }

    /// Truncates the log back to `len` bytes (a prefix that was known
    /// good), e.g. to roll back the frame of a commit whose in-memory
    /// apply failed after the write-ahead append.
    pub fn truncate_to(&mut self, len: u64) -> StorageResult<()> {
        self.file.set_len(len)?;
        self.file.sync_data()?;
        self.note_truncation(self.logical_len.saturating_sub(len));
        self.synced_len = self.synced_len.min(len);
        self.logical_len = len;
        Ok(())
    }

    /// Truncates the whole log (after a checkpoint has captured its
    /// effects).
    pub fn reset(&mut self) -> StorageResult<()> {
        crate::fault::crash_point("wal.reset.pre_truncate")?;
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_data()?;
        self.note_truncation(self.logical_len);
        self.synced_len = 0;
        self.logical_len = 0;
        crate::fault::crash_point("wal.reset.post_truncate")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_core::period::Period;
    use chronos_core::tuple::tuple;

    fn temp_wal(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("chronos-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord {
                rel_id: 1,
                tx_time: Chronon::new(100),
                ops: vec![HistoricalOp::insert(
                    tuple(["Merrie", "associate"]),
                    Period::from_start(Chronon::new(90)),
                )],
            },
            WalRecord {
                rel_id: 1,
                tx_time: Chronon::new(110),
                ops: vec![
                    HistoricalOp::remove(RowSelector::tuple(tuple(["Merrie", "associate"]))),
                    HistoricalOp::insert(
                        tuple(["Merrie", "full"]),
                        Period::from_start(Chronon::new(105)),
                    ),
                ],
            },
            WalRecord {
                rel_id: 2,
                tx_time: Chronon::new(120),
                ops: vec![HistoricalOp::set_validity(
                    RowSelector::exact(
                        tuple(["Mike", "assistant"]),
                        Period::from_start(Chronon::new(80)),
                    ),
                    Period::new(Chronon::new(80), Chronon::new(118)).unwrap(),
                )],
            },
        ]
    }

    #[test]
    fn record_codec_round_trips() {
        for rec in sample_records() {
            let payload = encode_record(&rec);
            assert_eq!(decode_record(&payload).unwrap(), rec);
        }
    }

    #[test]
    fn append_and_recover() {
        let path = temp_wal("basic");
        let mut wal = Wal::open(&path).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        let rec = Wal::recover(&path).unwrap();
        assert_eq!(rec.records, sample_records());
        assert_eq!(rec.torn_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn recover_missing_file_is_empty() {
        let path = temp_wal("missing");
        let rec = Wal::recover(&path).unwrap();
        assert!(rec.records.is_empty());
        assert_eq!(rec.valid_len, 0);
    }

    #[test]
    fn torn_tail_is_tolerated_and_truncatable() {
        let path = temp_wal("torn");
        let mut wal = Wal::open(&path).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        let full_len = wal.len().unwrap();
        drop(wal);
        // Simulate a crash mid-append: write a partial frame.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&[0x55, 0x02, 0x00, 0x00, 0xAA]).unwrap();
        }
        let rec = Wal::recover(&path).unwrap();
        assert_eq!(rec.records.len(), 3);
        assert_eq!(rec.valid_len, full_len);
        assert_eq!(rec.torn_bytes, 5);
        let rec = Wal::truncate_torn_tail(&path).unwrap();
        assert_eq!(rec.records.len(), 3);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), full_len);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_frame_stops_recovery_at_last_good_record() {
        let path = temp_wal("corrupt");
        let mut wal = Wal::open(&path).unwrap();
        for rec in sample_records() {
            wal.append(&rec).unwrap();
        }
        drop(wal);
        // Flip a byte in the *second* frame's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        let first_len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let second_payload_start = 8 + first_len + 8;
        bytes[second_payload_start + 2] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let rec = Wal::recover(&path).unwrap();
        assert_eq!(rec.records.len(), 1, "only the first record survives");
        assert!(rec.torn_bytes > 0);
        std::fs::remove_file(&path).unwrap();
    }

    /// One test covers both group-commit scenarios (staging + unwind):
    /// the unwind half arms the process-global fault registry, and a
    /// single test keeps the only `group_sync` callers in this binary
    /// from racing an armed plan.
    #[test]
    fn group_append_stages_until_group_sync_and_unwinds_cleanly() {
        let path = temp_wal("group");
        let mut wal = Wal::open(&path).unwrap();
        let recs = sample_records();
        for rec in &recs {
            wal.append_no_sync(rec).unwrap();
        }
        assert!(wal.pending_bytes() > 0, "frames staged, not yet synced");
        // The frames are in the file (recovery would replay them after
        // a kill that leaves the page cache intact) …
        assert_eq!(Wal::recover(&path).unwrap().records, recs);
        // … and one group_sync covers them all.
        wal.group_sync().unwrap();
        assert_eq!(wal.pending_bytes(), 0);
        // With nothing staged, group_sync is a no-op.
        wal.group_sync().unwrap();
        assert_eq!(Wal::recover(&path).unwrap().records, recs);

        // A failed group fsync must drop exactly the staged batch.
        let synced = wal.len().unwrap();
        wal.append_no_sync(&recs[0]).unwrap();
        wal.append_no_sync(&recs[1]).unwrap();
        crate::fault::install(std::sync::Arc::new(crate::fault::FaultPlan::error_at(
            "wal.group_fsync",
            1,
        )));
        let err = wal.group_sync().unwrap_err();
        crate::fault::clear();
        assert!(err.to_string().contains("wal.group_fsync"), "{err}");
        // The staged batch is gone; the fsynced prefix survives.
        assert_eq!(wal.pending_bytes(), 0);
        assert_eq!(wal.len().unwrap(), synced);
        assert_eq!(Wal::recover(&path).unwrap().records, recs);
        // The log is usable again after the error.
        wal.append_no_sync(&recs[0]).unwrap();
        wal.group_sync().unwrap();
        assert_eq!(
            Wal::recover(&path).unwrap().records.len(),
            recs.len() + 1,
            "post-error staging works"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn reset_empties_the_log() {
        let path = temp_wal("reset");
        let mut wal = Wal::open(&path).unwrap();
        wal.append(&sample_records()[0]).unwrap();
        assert!(!wal.is_empty().unwrap());
        wal.reset().unwrap();
        assert!(wal.is_empty().unwrap());
        assert!(Wal::recover(&path).unwrap().records.is_empty());
        std::fs::remove_file(&path).unwrap();
    }
}
