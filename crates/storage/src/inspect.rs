//! Offline, read-only WAL forensics.
//!
//! [`Wal::recover`](crate::wal::Wal::recover) answers "which records can
//! I replay?" and deliberately collapses every failure into a silent
//! stop.  The inspector answers the forensic questions recovery throws
//! away: *where* does the valid prefix end, *why* (torn tail vs. byte
//! flip vs. undecodable payload), and what does each intact frame hold.
//! Both walk the log with the one [`walk_frames`].
//! It never opens a file for writing, so it is safe to point at a live
//! or corrupted database directory.
//!
//! The same walker backs three consumers — the `sys$wal` system
//! relation, the `/wal` exporter endpoint, and `chronos --inspect` — so
//! live and offline views agree by construction on a quiesced log.

use std::path::Path;

use crate::codec::crc32;
use crate::error::StorageResult;
use crate::wal::{decode_record, WalRecord};

/// One intact WAL frame, as found on disk.
#[derive(Clone, Debug, PartialEq)]
pub struct FrameInfo {
    /// Byte offset of the frame header (`len` field) in the file.
    pub offset: u64,
    /// Whole frame length: 8-byte header plus payload.
    pub frame_len: u64,
    /// Relation the logged transaction applies to.
    pub rel_id: u32,
    /// Commit (transaction) time, in clock ticks — the frame's LSN.
    pub tx_ticks: i64,
    /// Operations in the frame, by kind.
    pub insert_ops: u64,
    pub remove_ops: u64,
    pub set_validity_ops: u64,
}

impl FrameInfo {
    /// Total operations in the frame.
    pub fn ops(&self) -> u64 {
        self.insert_ops + self.remove_ops + self.set_validity_ops
    }

    /// The frame's class: which kind of operation it carries
    /// (`"insert"`, `"remove"`, `"set_validity"`, `"mixed"`, or
    /// `"empty"`).
    pub fn class(&self) -> &'static str {
        let kinds = [self.insert_ops, self.remove_ops, self.set_validity_ops]
            .iter()
            .filter(|&&n| n > 0)
            .count();
        match kinds {
            0 => "empty",
            1 if self.insert_ops > 0 => "insert",
            1 if self.remove_ops > 0 => "remove",
            1 => "set_validity",
            _ => "mixed",
        }
    }
}

/// Why (and where) the walk stopped before the end of the file.
#[derive(Clone, Debug, PartialEq)]
pub enum TailState {
    /// Every byte belongs to an intact frame, or to the zeroed tail
    /// after the last one (see [`walk_frames`]).
    Clean,
    /// The final frame is incomplete: fewer bytes remain at `offset`
    /// than its header (or length field) promises.  The classic
    /// crash-mid-append tear; recovery truncates it silently.
    Torn { offset: u64, bytes: u64 },
    /// A complete frame at `offset` fails its CRC or does not decode —
    /// a byte flip, not a tear.  Everything after is unreadable because
    /// framing is lost.
    Corrupt {
        offset: u64,
        bytes: u64,
        reason: String,
    },
}

impl TailState {
    /// Short machine-friendly label (`clean` / `torn` / `corrupt`).
    pub fn label(&self) -> &'static str {
        match self {
            TailState::Clean => "clean",
            TailState::Torn { .. } => "torn",
            TailState::Corrupt { .. } => "corrupt",
        }
    }

    /// Offset where the damage starts, if any.
    pub fn offset(&self) -> Option<u64> {
        match self {
            TailState::Clean => None,
            TailState::Torn { offset, .. } | TailState::Corrupt { offset, .. } => Some(*offset),
        }
    }

    /// Bytes rendered unusable by the damage, if any.
    pub fn bad_bytes(&self) -> u64 {
        match self {
            TailState::Clean => 0,
            TailState::Torn { bytes, .. } | TailState::Corrupt { bytes, .. } => *bytes,
        }
    }
}

/// The full result of a frame-by-frame WAL walk.
#[derive(Debug)]
pub struct WalScan {
    /// Every intact frame, in file order.
    pub frames: Vec<FrameInfo>,
    /// Offset at which the intact prefix ends.
    pub valid_len: u64,
    /// Total file length in bytes; past `valid_len` on a clean log lies
    /// the zeroed tail.
    pub total_len: u64,
    /// What lies beyond the intact prefix.
    pub tail: TailState,
}

impl WalScan {
    /// Total operations across all intact frames, as
    /// `(inserts, removes, set_validities)`.
    pub fn op_totals(&self) -> (u64, u64, u64) {
        self.frames.iter().fold((0, 0, 0), |(i, r, s), f| {
            (i + f.insert_ops, r + f.remove_ops, s + f.set_validity_ops)
        })
    }

    /// LSN (tx-time tick) range over the intact frames, `(first, last)`.
    pub fn lsn_range(&self) -> Option<(i64, i64)> {
        let first = self.frames.first()?.tx_ticks;
        let last = self.frames.last()?.tx_ticks;
        Some((first, last))
    }

    /// Per-class `(class, frames, bytes)` aggregates over the intact
    /// frames, in a stable order.
    pub fn classes(&self) -> Vec<(&'static str, u64, u64)> {
        let mut out: Vec<(&'static str, u64, u64)> = Vec::new();
        for class in ["insert", "remove", "set_validity", "mixed", "empty"] {
            let (n, bytes) = self
                .frames
                .iter()
                .filter(|f| f.class() == class)
                .fold((0u64, 0u64), |(n, b), f| (n + 1, b + f.frame_len));
            if n > 0 {
                out.push((class, n, bytes));
            }
        }
        out
    }

    /// True iff the whole file is intact frames and the zeroed tail.
    pub fn is_clean(&self) -> bool {
        matches!(self.tail, TailState::Clean)
    }
}

fn frame_info(offset: u64, frame_len: u64, rec: &WalRecord) -> FrameInfo {
    use chronos_core::relation::HistoricalOp;
    let mut info = FrameInfo {
        offset,
        frame_len,
        rel_id: rec.rel_id,
        tx_ticks: rec.tx_time.ticks(),
        insert_ops: 0,
        remove_ops: 0,
        set_validity_ops: 0,
    };
    for op in &rec.ops {
        match op {
            HistoricalOp::Insert { .. } => info.insert_ops += 1,
            HistoricalOp::Remove { .. } => info.remove_ops += 1,
            HistoricalOp::SetValidity { .. } => info.set_validity_ops += 1,
        }
    }
    info
}

/// The one WAL frame walker, behind both recovery and the inspector:
/// hands each intact frame's offset, whole length (header included)
/// and decoded record to `frame`, in file order, and returns where the
/// intact prefix ends and what lies beyond it.  Each payload is checked
/// and decoded once.  [`Wal::recover`](crate::wal::Wal::recover) keeps
/// the records; [`scan_wal_bytes`] keeps a [`FrameInfo`] of each.
///
/// A remainder of zero bytes only (or none) is the log's clean end: the
/// tail a [`Wal`](crate::wal::Wal) keeps for its next frames.  A zero
/// header followed by any other byte is torn or corrupt like any frame.
pub fn walk_frames(data: &[u8], mut frame: impl FnMut(u64, u64, WalRecord)) -> (u64, TailState) {
    let mut pos = 0usize;
    let tail = loop {
        if data[pos..].iter().all(|&b| b == 0) {
            break TailState::Clean;
        }
        let remaining = data.len() - pos;
        if remaining < 8 {
            break TailState::Torn {
                offset: pos as u64,
                bytes: remaining as u64,
            };
        }
        let len = u32::from_le_bytes(data[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let stored_crc = u32::from_le_bytes(data[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if remaining - 8 < len {
            break TailState::Torn {
                offset: pos as u64,
                bytes: remaining as u64,
            };
        }
        let payload = &data[pos + 8..pos + 8 + len];
        let actual_crc = crc32(payload);
        if actual_crc != stored_crc {
            break TailState::Corrupt {
                offset: pos as u64,
                bytes: remaining as u64,
                reason: format!(
                    "checksum mismatch in frame at offset {pos}: \
                     stored {stored_crc:#010x}, computed {actual_crc:#010x}"
                ),
            };
        }
        match decode_record(payload) {
            Ok(rec) => frame(pos as u64, 8 + len as u64, rec),
            Err(e) => {
                break TailState::Corrupt {
                    offset: pos as u64,
                    bytes: remaining as u64,
                    reason: format!(
                        "frame at offset {pos} passes its checksum but does not decode: {e}"
                    ),
                }
            }
        }
        pos += 8 + len;
    };
    (pos as u64, tail)
}

/// Walks a WAL image frame by frame, validating lengths and checksums,
/// without interpreting the records beyond op classification.
pub fn scan_wal_bytes(data: &[u8]) -> WalScan {
    let mut frames = Vec::new();
    let (valid_len, tail) = walk_frames(data, |offset, frame_len, rec| {
        frames.push(frame_info(offset, frame_len, &rec));
    });
    WalScan {
        valid_len,
        total_len: data.len() as u64,
        frames,
        tail,
    }
}

/// Reads and walks the WAL at `path` (read-only; a missing file scans
/// as an empty, clean log).
pub fn scan_wal(path: &Path) -> StorageResult<WalScan> {
    let data = match std::fs::read(path) {
        Ok(data) => data,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e.into()),
    };
    Ok(scan_wal_bytes(&data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{encode_record, Wal};
    use chronos_core::chronon::Chronon;
    use chronos_core::period::Period;
    use chronos_core::relation::{HistoricalOp, RowSelector};
    use chronos_core::tuple::tuple;

    fn frame_bytes(rec: &WalRecord) -> Vec<u8> {
        let payload = encode_record(rec);
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }

    fn sample() -> Vec<WalRecord> {
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

    fn image(recs: &[WalRecord]) -> Vec<u8> {
        recs.iter().flat_map(frame_bytes).collect()
    }

    #[test]
    fn clean_log_scans_clean_with_frame_details() {
        let data = image(&sample());
        let scan = scan_wal_bytes(&data);
        assert!(scan.is_clean());
        assert_eq!(scan.valid_len, data.len() as u64);
        assert_eq!(scan.total_len, data.len() as u64);
        assert_eq!(scan.frames.len(), 3);
        assert_eq!(scan.frames[0].offset, 0);
        assert_eq!(scan.frames[0].class(), "insert");
        assert_eq!(scan.frames[1].class(), "mixed");
        assert_eq!(scan.frames[2].class(), "set_validity");
        assert_eq!(scan.op_totals(), (2, 1, 1));
        assert_eq!(scan.lsn_range(), Some((100, 120)));
        let bytes: u64 = scan.frames.iter().map(|f| f.frame_len).sum();
        assert_eq!(bytes, data.len() as u64);
        let classed: u64 = scan.classes().iter().map(|(_, n, _)| n).sum();
        assert_eq!(classed, 3);
    }

    #[test]
    fn empty_log_is_clean() {
        let scan = scan_wal_bytes(&[]);
        assert!(scan.is_clean());
        assert!(scan.frames.is_empty());
        assert_eq!(scan.lsn_range(), None);
    }

    #[test]
    fn torn_tail_is_reported_with_its_offset() {
        let mut data = image(&sample());
        let valid = data.len() as u64;
        // A partial frame: plausible header, missing payload bytes.
        data.extend_from_slice(&[0x55, 0x02, 0x00, 0x00, 0xAA]);
        let scan = scan_wal_bytes(&data);
        assert_eq!(scan.frames.len(), 3);
        assert_eq!(scan.valid_len, valid);
        assert_eq!(
            scan.tail,
            TailState::Torn {
                offset: valid,
                bytes: 5
            }
        );
        assert_eq!(scan.tail.label(), "torn");
        assert_eq!(scan.tail.offset(), Some(valid));
    }

    #[test]
    fn an_all_zero_remainder_is_the_clean_end() {
        let data = image(&sample());
        for zeros in [1, 7, 8, crate::wal::RESERVE] {
            let mut padded = data.clone();
            padded.resize(data.len() + zeros, 0);
            let scan = scan_wal_bytes(&padded);
            assert_eq!(scan.tail, TailState::Clean, "{zeros} zero bytes");
            assert_eq!(scan.frames.len(), 3);
            assert_eq!(scan.valid_len, data.len() as u64);
            assert_eq!(scan.total_len, padded.len() as u64);
        }
    }

    /// A zero header is the clean end only when nothing but zeros
    /// follows it: one non-zero byte anywhere after it is damage.
    #[test]
    fn a_zero_header_before_a_non_zero_byte_is_not_clean() {
        let data = image(&sample());
        let valid = data.len() as u64;
        for at in [3, 8, 100] {
            let mut damaged = data.clone();
            damaged.resize(data.len() + 200, 0);
            damaged[data.len() + at] = 0x01;
            let scan = scan_wal_bytes(&damaged);
            assert!(!scan.is_clean(), "a non-zero byte {at} past the frames");
            assert_eq!(scan.tail.offset(), Some(valid));
            assert_eq!(scan.tail.bad_bytes(), 200);
            assert_eq!(scan.frames.len(), 3);
        }
    }

    /// A crash mid-write of a frame into the zeroed tail leaves a prefix
    /// of it and then zeros: the walk cuts at that frame's start.
    #[test]
    fn a_frame_torn_inside_the_tail_is_cut_at_its_start() {
        let recs = sample();
        let valid = image(&recs[..2]).len();
        let last = frame_bytes(&recs[2]);
        for kept in [1, 4, 8, last.len() - 1] {
            let mut data = image(&recs[..2]);
            data.extend_from_slice(&last[..kept]);
            data.resize(valid + crate::wal::RESERVE, 0);
            let scan = scan_wal_bytes(&data);
            assert!(!scan.is_clean(), "{kept} bytes of the frame kept");
            assert_eq!(scan.frames.len(), 2);
            assert_eq!(scan.valid_len, valid as u64);
            assert_eq!(scan.tail.offset(), Some(valid as u64));
        }
    }

    #[test]
    fn mid_file_byte_flip_is_corrupt_not_torn() {
        let recs = sample();
        let mut data = image(&recs);
        // Flip a payload byte inside the second frame.
        let second = frame_bytes(&recs[0]).len();
        data[second + 10] ^= 0xFF;
        let scan = scan_wal_bytes(&data);
        assert_eq!(scan.frames.len(), 1, "walk stops at the flipped frame");
        assert_eq!(scan.valid_len, second as u64);
        match &scan.tail {
            TailState::Corrupt {
                offset,
                bytes,
                reason,
            } => {
                assert_eq!(*offset, second as u64);
                assert_eq!(*bytes, (data.len() - second) as u64);
                assert!(reason.contains("checksum mismatch"), "{reason}");
                assert!(reason.contains(&format!("offset {second}")), "{reason}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn scan_agrees_with_recovery_on_disk() {
        let mut path = std::env::temp_dir();
        path.push(format!("chronos-inspect-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut wal = Wal::open(&path).unwrap();
        for rec in sample() {
            wal.append(&rec).unwrap();
        }
        drop(wal);
        let scan = scan_wal(&path).unwrap();
        let recovered = Wal::recover(&path).unwrap();
        assert_eq!(scan.frames.len(), recovered.records.len());
        assert_eq!(scan.valid_len, recovered.valid_len);
        assert_eq!(scan.valid_len, image(&sample()).len() as u64);
        assert!(scan.total_len > scan.valid_len, "the zeroed tail follows");
        assert!(scan.is_clean());
        assert_eq!(recovered.torn_bytes, 0);
        std::fs::remove_file(&path).unwrap();
    }

    /// Recovery and the inspector walk the log once, the same way:
    /// past a flipped byte they stop at the same frame.
    #[test]
    fn recovery_stops_where_the_scan_does() {
        let recs = sample();
        let mut data = image(&recs);
        let second = frame_bytes(&recs[0]).len();
        data[second + 10] ^= 0xFF;
        let path =
            std::env::temp_dir().join(format!("chronos-inspect-flip-{}", std::process::id()));
        std::fs::write(&path, &data).unwrap();
        let recovered = Wal::recover(&path).unwrap();
        let scan = scan_wal_bytes(&data);
        assert_eq!(recovered.records, &recs[..1]);
        assert_eq!(recovered.valid_len, scan.valid_len);
        assert_eq!(recovered.torn_bytes, scan.tail.bad_bytes());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_scans_as_empty() {
        let mut path = std::env::temp_dir();
        path.push(format!("chronos-inspect-missing-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let scan = scan_wal(&path).unwrap();
        assert!(scan.is_clean());
        assert_eq!(scan.total_len, 0);
    }
}
