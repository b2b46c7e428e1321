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
//! Frame format: `[len: u32 LE][crc32(payload): u32 LE][payload]`.  The
//! payload is the relation id (u32 LE), the commit time (ivarint), the
//! op count and the tagged ops.  A frame is one string section
//! ([`StrEncoder`]): a string repeated within the frame is written once
//! and referenced after that, and no frame refers to another, so every
//! frame decodes on its own.
//!
//! Frames are append-only; the file is not.  It ends in a zeroed tail
//! of up to [`RESERVE`] bytes, and the next frame is written in place
//! at the start of it, so most commits sync data without growing the
//! file.  A frame that does not fit is written together with a fresh
//! tail.  Recovery reads frames until the first one that is incomplete,
//! fails its checksum or does not decode (a torn write from a crash, or
//! a flipped byte): the records before it replay and the rest is cut
//! off — unless the rest is all zero bytes, which is the tail, the
//! log's clean end.  Framing is lost past a bad frame, so nothing after
//! it is trusted.
//!
//! Every write goes through the database's [`Disk`].

use std::path::Path;
use std::sync::Arc;

use chronos_core::chronon::Chronon;
use chronos_core::relation::{HistoricalOp, RowSelector};
use chronos_obs::{Disk, DiskFile, Recorder};

use crate::codec::{
    crc32, get_validity, put_uvarint, put_validity, Reader, StrDecoder, StrEncoder,
};
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

fn put_selector<'a>(buf: &mut Vec<u8>, strs: &mut StrEncoder<'a>, sel: &'a RowSelector) {
    strs.put_tuple(buf, &sel.tuple);
    match sel.validity {
        None => buf.push(0),
        Some(v) => {
            buf.push(1);
            put_validity(buf, v);
        }
    }
}

fn get_selector(r: &mut Reader<'_>, strs: &mut StrDecoder) -> StorageResult<RowSelector> {
    let tuple = strs.get_tuple(r)?;
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
    let mut strs = StrEncoder::default();
    for op in &rec.ops {
        match op {
            HistoricalOp::Insert { tuple, validity } => {
                buf.push(OP_INSERT);
                strs.put_tuple(&mut buf, tuple);
                put_validity(&mut buf, *validity);
            }
            HistoricalOp::Remove { selector } => {
                buf.push(OP_REMOVE);
                put_selector(&mut buf, &mut strs, selector);
            }
            HistoricalOp::SetValidity { selector, validity } => {
                buf.push(OP_SET_VALIDITY);
                put_selector(&mut buf, &mut strs, selector);
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
    // The count is untrusted: reserve only what the bytes left can
    // hold (an op takes at least three).
    let mut ops = Vec::with_capacity(n.min(r.remaining() / 3));
    let mut strs = StrDecoder::default();
    for _ in 0..n {
        let op = match r.get_u8()? {
            OP_INSERT => HistoricalOp::Insert {
                tuple: strs.get_tuple(&mut r)?,
                validity: get_validity(&mut r)?,
            },
            OP_REMOVE => HistoricalOp::Remove {
                selector: get_selector(&mut r, &mut strs)?,
            },
            OP_SET_VALIDITY => {
                let selector = get_selector(&mut r, &mut strs)?;
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

/// Zero bytes written after a frame that grows the log, so that the
/// frames after it are written in place, inside the file (a sync that
/// changes no file size flushes data only).  About one small commit in
/// eight grows the file.
pub const RESERVE: usize = 512;

/// The result of reading a log: the valid records, plus how many bytes of
/// torn tail (if any) were ignored.
#[derive(Debug)]
pub struct Recovered {
    /// Every intact record in append order.
    pub records: Vec<WalRecord>,
    /// Offset at which the valid prefix ends.
    pub valid_len: u64,
    /// Bytes of unusable tail beyond `valid_len` (0 when only the
    /// zeroed tail follows it).
    pub torn_bytes: u64,
}

/// A write-ahead log: its frames are append-only, and the file keeps a
/// zeroed tail past them (see the module docs).
pub struct Wal {
    file: DiskFile,
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
    /// The file's length: `logical_len` plus the zeroed tail.
    physical_len: u64,
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
        Self::open_on(&Disk::default(), path)
    }

    /// [`open_recovered`](Self::open_recovered), keeping the handle only:
    /// its next frame goes right after the last intact one.
    pub fn open_on(disk: &Disk, path: &Path) -> StorageResult<Wal> {
        Ok(Self::open_recovered(disk, path)?.0)
    }

    /// Opens the log at `path` for recovery: reads it once, cuts a torn
    /// tail off (synced, so frames never land after garbage), and
    /// returns the handle with every intact record.  A zeroed tail is
    /// kept.
    pub fn open_recovered(disk: &Disk, path: &Path) -> StorageResult<(Wal, Recovered)> {
        let recovered = Self::recover(path)?;
        let mut file = disk.open(path)?;
        let mut physical_len = file.size()?;
        if recovered.torn_bytes > 0 {
            file.truncate(recovered.valid_len)?;
            file.sync()?;
            physical_len = recovered.valid_len;
        }
        let wal = Wal {
            file,
            recorder: Arc::new(Recorder::disabled()),
            synced_len: recovered.valid_len,
            logical_len: recovered.valid_len,
            physical_len,
            truncations: 0,
            last_truncation_bytes: 0,
        };
        Ok((wal, recovered))
    }

    /// The log's path.
    pub fn path(&self) -> &Path {
        self.file.path()
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
    /// whole batch durable under a single fsync (group commit).  It is
    /// written in place inside the zeroed tail, or, when it does not
    /// fit there, with a new [`RESERVE`] of zeros after it.
    ///
    /// On error the file is rolled back to the end of the last intact
    /// frame — which may itself still be staged — so a failed append
    /// never erases frames already staged by the same batch.
    pub fn append_no_sync(&mut self, rec: &WalRecord) -> StorageResult<()> {
        let restore = self.logical_len;
        let recorder = Arc::clone(&self.recorder);
        let _span = recorder.span("wal/append");
        let payload = encode_record(rec);
        let mut frame = Vec::with_capacity(payload.len() + 8);
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let end = restore + frame.len() as u64;
        if end > self.physical_len {
            frame.resize(frame.len() + RESERVE, 0);
        }
        if let Err(e) = self.file.write_at(restore, &frame) {
            self.roll_back_to(restore);
            return Err(e.into());
        }
        self.logical_len = end;
        self.physical_len = self.physical_len.max(restore + frame.len() as u64);
        self.recorder.count(|m| &m.wal_appends);
        Ok(())
    }

    /// Cuts the file back to `len` after a failed write (best effort:
    /// the caller reports the original error).
    fn roll_back_to(&mut self, len: u64) {
        let _ = self.file.truncate(len);
        let _ = self.file.sync();
        self.logical_len = len;
        self.physical_len = len;
    }

    /// Makes every staged frame durable under one fsync.  A no-op (no
    /// fsync) when nothing is staged.
    ///
    /// On error the staged frames are rolled back to the fsynced
    /// prefix: the caller is about to report every covered commit as
    /// failed, and a frame that was never acknowledged must not
    /// resurrect its commit at recovery.
    pub fn group_sync(&mut self) -> StorageResult<()> {
        if self.logical_len == self.synced_len {
            return Ok(());
        }
        let recorder = Arc::clone(&self.recorder);
        let _span = recorder.span("wal/group_sync");
        if let Err(e) = self.file.sync() {
            self.roll_back_to(self.synced_len);
            return Err(e.into());
        }
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

    /// Reads every intact record: the frames before the first one that
    /// is incomplete, fails its checksum or does not decode (see
    /// [`walk_frames`](crate::inspect::walk_frames)).  Damaged bytes
    /// never make this fail, wherever they are; only an I/O error
    /// reading the file does.
    pub fn recover(path: &Path) -> StorageResult<Recovered> {
        let data = match std::fs::read(path) {
            Ok(data) => data,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let mut records = Vec::new();
        let (valid_len, tail) = crate::inspect::walk_frames(&data, |_, _, rec| records.push(rec));
        Ok(Recovered {
            records,
            valid_len,
            torn_bytes: tail.bad_bytes(),
        })
    }

    /// Current file size in bytes, the zeroed tail included.
    pub fn len(&self) -> StorageResult<u64> {
        Ok(self.file.size()?)
    }

    /// True iff the log holds no bytes.
    pub fn is_empty(&self) -> StorageResult<bool> {
        Ok(self.len()? == 0)
    }

    /// Truncates the log back to `len` bytes (a prefix that was known
    /// good), e.g. to roll back the frame of a commit whose in-memory
    /// apply failed after the write-ahead append.
    pub fn truncate_to(&mut self, len: u64) -> StorageResult<()> {
        self.file.truncate(len)?;
        // The lengths follow the file even if the sync below fails, so
        // a later append's rollback never cuts past its own frame.
        self.note_truncation(self.logical_len.saturating_sub(len));
        self.synced_len = self.synced_len.min(len);
        self.logical_len = len;
        self.physical_len = len;
        self.file.sync()?;
        Ok(())
    }

    /// Truncates the whole log (after a checkpoint has captured its
    /// effects).
    pub fn reset(&mut self) -> StorageResult<()> {
        self.truncate_to(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_core::period::Period;
    use chronos_core::tuple::tuple;
    use chronos_obs::fault::{file_name, Fault, OpKind};
    use std::os::unix::fs::FileExt;
    use std::path::PathBuf;

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

    /// A frame with no repeated string keeps the encoding it had before
    /// frames shared their strings: these bytes are that encoder's.
    #[test]
    fn a_frame_without_repeats_keeps_its_earlier_encoding() {
        let rec = WalRecord {
            rel_id: 7,
            tx_time: Chronon::new(4626),
            ops: vec![
                HistoricalOp::remove(RowSelector::tuple(tuple(["Merrie", "associate"]))),
                HistoricalOp::insert(
                    tuple(["Tom", "full"]),
                    Period::from_start(Chronon::new(4625)),
                ),
                HistoricalOp::set_validity(
                    RowSelector::exact(
                        tuple(["Mike", "assistant"]),
                        Period::from_start(Chronon::new(80)),
                    ),
                    Period::new(Chronon::new(80), Chronon::new(118)).unwrap(),
                ),
            ],
        };
        let hex: String = (encode_record(&rec).iter())
            .map(|b| format!("{b:02x}"))
            .collect();
        assert_eq!(
            hex,
            "07000000a44803010200064d657272696500096173736f63696174650000020003546f6d00046675\
             6c6c0001a24802020200044d696b650009617373697374616e74010001a001020001a00101ec01"
        );
    }

    #[test]
    fn a_frame_writes_a_repeated_string_once() {
        let rec = &sample_records()[1];
        let payload = encode_record(rec);
        let merrie = payload.windows(6).filter(|w| w == b"Merrie").count();
        assert_eq!(merrie, 1, "{payload:?}");
        assert_eq!(&decode_record(&payload).unwrap(), rec);
        // A frame stands alone: the same string in the next frame is
        // written in full again.
        let next = encode_record(&sample_records()[0]);
        assert_eq!(next.windows(6).filter(|w| w == b"Merrie").count(), 1);
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
        let full_len = wal.logical_len();
        let file_len = wal.len().unwrap();
        assert!(file_len > full_len, "the log keeps a zeroed tail");
        drop(wal);
        // Simulate a crash mid-append: a partial frame where the next
        // one goes, inside the zeroed tail.
        std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .write_all_at(&[0x55, 0x02, 0x00, 0x00, 0xAA], full_len)
            .unwrap();
        let rec = Wal::recover(&path).unwrap();
        assert_eq!(rec.records.len(), 3);
        assert_eq!(rec.valid_len, full_len);
        assert_eq!(rec.torn_bytes, file_len - full_len);
        let (mut wal, rec) = Wal::open_recovered(&Disk::default(), &path).unwrap();
        assert_eq!(rec.records.len(), 3);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), full_len);
        // Appends land right after the last intact frame.
        wal.append(&sample_records()[0]).unwrap();
        assert_eq!(Wal::recover(&path).unwrap().records.len(), 4);
        std::fs::remove_file(&path).unwrap();
    }

    /// A frame is written in place inside the zeroed tail; one that does
    /// not fit grows the file by itself plus a new [`RESERVE`].  Recovery
    /// keeps the tail, and the handle that reopens it writes into it.
    #[test]
    fn frames_fill_the_zeroed_tail_before_the_file_grows() {
        let path = temp_wal("tail");
        let disk = Disk::recording();
        let mut wal = Wal::open_on(&disk, &path).unwrap();
        let recs = sample_records();
        let mut ends = Vec::new();
        for rec in &recs {
            wal.append(rec).unwrap();
            ends.push(wal.logical_len());
        }
        let first = ends[0] as usize;
        assert_eq!(wal.len().unwrap(), (first + RESERVE) as u64);
        let writes: Vec<(u64, usize)> = (disk.ops().into_iter())
            .filter_map(|op| match op {
                chronos_obs::fault::Op::WriteAt(_, at, bytes) => Some((at, bytes.len())),
                _ => None,
            })
            .collect();
        assert_eq!(
            writes,
            [
                (0, first + RESERVE),
                (ends[0], (ends[1] - ends[0]) as usize),
                (ends[1], (ends[2] - ends[1]) as usize),
            ]
        );
        drop(wal);
        let (mut wal, rec) = Wal::open_recovered(&Disk::default(), &path).unwrap();
        assert_eq!(
            (rec.records, rec.valid_len, rec.torn_bytes),
            (recs.clone(), ends[2], 0)
        );
        assert_eq!(
            wal.len().unwrap(),
            (first + RESERVE) as u64,
            "the tail is kept"
        );
        wal.append(&recs[0]).unwrap();
        assert_eq!(wal.len().unwrap(), (first + RESERVE) as u64);
        assert_eq!(Wal::recover(&path).unwrap().records.len(), 4);
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

    #[test]
    fn group_append_stages_until_group_sync_and_unwinds_cleanly() {
        let path = temp_wal("group");
        let disk = Disk::recording();
        let mut wal = Wal::open_on(&disk, &path).unwrap();
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
        let synced = wal.synced_len();
        wal.append_no_sync(&recs[0]).unwrap();
        wal.append_no_sync(&recs[1]).unwrap();
        disk.inject(Fault::error(OpKind::Sync, file_name(&path), 1));
        let err = wal.group_sync().unwrap_err();
        assert!(err.to_string().contains("injected fault: Sync"), "{err}");
        // The staged batch is gone, with the zeroed tail; the fsynced
        // prefix survives.
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

    /// A reset whose sync fails has still cut the file: the handle's
    /// lengths follow it, so a later append that fails rolls back to
    /// the right place instead of padding the log with zeros.
    #[test]
    fn a_reset_whose_sync_fails_keeps_the_lengths_with_the_file() {
        let path = temp_wal("reset-sync");
        let disk = Disk::recording();
        let mut wal = Wal::open_on(&disk, &path).unwrap();
        let recs = sample_records();
        wal.append(&recs[0]).unwrap();
        disk.inject(Fault::error(OpKind::Sync, file_name(&path), 1));
        assert!(wal.reset().is_err());
        assert_eq!((wal.logical_len(), wal.len().unwrap()), (0, 0));
        wal.append(&recs[1]).unwrap();
        disk.inject(Fault::error(OpKind::WriteAt, file_name(&path), 1));
        assert!(wal.append(&recs[2]).is_err());
        assert_eq!(wal.len().unwrap(), wal.logical_len());
        assert_eq!(Wal::recover(&path).unwrap().records, &recs[1..2]);
        std::fs::remove_file(&path).unwrap();
    }
}
