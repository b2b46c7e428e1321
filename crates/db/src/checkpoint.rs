//! Checkpointing: bounding recovery time without giving up append-only
//! history.
//!
//! A durable ChronosDB database is logically *the write-ahead log*:
//! reopening replays every committed transaction.  That is faithful to
//! the paper's append-only transaction time, but recovery is O(history).
//! [`Database::checkpoint`](crate::Database::checkpoint) bounds it: the
//! complete physical state of every relation — including closed
//! versions, which a temporal database may never forget — is written to
//! a checksummed `checkpoint` file, and the log is truncated.  Reopening
//! loads the checkpoint and replays only the log suffix.  Besides the
//! explicit calls, the engine's writer checkpoints on its own once the
//! log outgrows both the last checkpoint and
//! [`CHECKPOINT_LOG_FLOOR`](crate::database::CHECKPOINT_LOG_FLOOR), so
//! the suffix never exceeds max(floor, one checkpoint).
//!
//! The checkpoint preserves *everything* the log encoded: every stored
//! version of every relation, all transaction counters and the last
//! commit time, so `as of` queries answer identically before and after
//! (asserted by the durability tests).  Every relation class has the
//! same image shape — the rows with both timestamps — because every
//! class lives in the same store; the class itself is the catalog's.

use std::collections::BTreeMap;
use std::path::Path;

use chronos_core::chronon::Chronon;
use chronos_core::relation::temporal::{BitemporalRow, TemporalStore as _};
use chronos_storage::codec::{
    crc32, get_period, get_tuple, get_validity, put_ivarint, put_period, put_tuple, put_uvarint,
    put_validity, Reader,
};
use chronos_storage::{StorageError, StorageResult};

use crate::catalog::CatalogEntry;
use crate::relation::Relation;

/// Format 2: one image shape for every relation class.
const MAGIC: &[u8; 8] = b"CHRONCK2";
/// Format 1 tagged each image with its class and had four layouts.
const MAGIC_V1: &[u8; 8] = b"CHRONCKP";

/// A loaded checkpoint: the per-relation images, its length, and the
/// WAL floor — the last commit time the checkpoint has already
/// absorbed.  Replay skips log records at or below the floor, which
/// makes recovery idempotent when a crash lands *between* checkpoint
/// rename and WAL reset (the classic double-apply window: checkpoint
/// and full log both on disk).
pub struct Checkpoint {
    /// Last commit time captured by the images, if any commit happened.
    pub wal_floor: Option<Chronon>,
    /// `rel_id → image` for every relation at checkpoint time.
    pub images: BTreeMap<u32, RelationImage>,
    /// Length of the encoded checkpoint, in bytes.
    pub len: u64,
}

/// The checkpointed state of one relation, whatever its class: every
/// stored row with both timestamps, plus the commit counters.  The class
/// lives in the catalog, not here.
#[derive(Debug, PartialEq)]
pub struct RelationImage {
    /// Every stored version (only current ones for a class that drops
    /// superseded versions).
    pub rows: Vec<BitemporalRow>,
    /// Latest commit time.
    pub last_commit: Option<Chronon>,
    /// Committed transaction count.
    pub transactions: u64,
}

fn put_opt_chronon(buf: &mut Vec<u8>, c: Option<Chronon>) {
    match c {
        None => buf.push(0),
        Some(c) => {
            buf.push(1);
            put_ivarint(buf, c.ticks());
        }
    }
}

fn get_opt_chronon(r: &mut Reader<'_>) -> StorageResult<Option<Chronon>> {
    match r.get_u8()? {
        0 => Ok(None),
        1 => Ok(Some(Chronon::new(r.get_ivarint()?))),
        t => Err(StorageError::Corrupt(format!("bad option tag {t}"))),
    }
}

/// Captures the image of a live relation.
pub fn capture(rel: &Relation) -> StorageResult<RelationImage> {
    Ok(RelationImage {
        rows: rel.image_rows()?,
        last_commit: rel.table().last_commit(),
        transactions: rel.table().transactions() as u64,
    })
}

fn encode_image(buf: &mut Vec<u8>, image: &RelationImage) {
    put_opt_chronon(buf, image.last_commit);
    put_uvarint(buf, image.transactions);
    put_uvarint(buf, image.rows.len() as u64);
    for row in &image.rows {
        put_tuple(buf, &row.tuple);
        put_validity(buf, row.validity);
        put_period(buf, row.tx);
    }
}

fn decode_image(r: &mut Reader<'_>) -> StorageResult<RelationImage> {
    let last_commit = get_opt_chronon(r)?;
    let transactions = r.get_uvarint()?;
    let n = r.get_uvarint()?;
    // The count is untrusted: let the rows that actually decode size
    // the vector, not a number a flipped bit can make enormous.
    let mut rows = Vec::new();
    for _ in 0..n {
        rows.push(BitemporalRow {
            tuple: get_tuple(r)?,
            validity: get_validity(r)?,
            tx: get_period(r)?,
        });
    }
    Ok(RelationImage {
        rows,
        last_commit,
        transactions,
    })
}

/// Restores a live relation from its image, validating the rows against
/// the catalog entry's schema, class and signature.
pub fn restore(entry: &CatalogEntry, image: RelationImage) -> StorageResult<Relation> {
    Relation::from_rows(
        entry.schema.clone(),
        entry.class,
        entry.signature,
        image.rows,
        image.last_commit,
        image.transactions as usize,
    )
}

/// Writes a checkpoint file: the WAL floor, then `(rel_id → image)`
/// for every relation, framed with magic and CRC-32.  The file is
/// written to a `.tmp` sibling, fsynced, and renamed into place, so a
/// crash at any point leaves either the old checkpoint or the new one
/// — never a torn mixture.  The directory is fsynced after the rename,
/// so once this returns the new checkpoint survives a power loss and
/// the log it absorbed may be truncated.  Returns the file's length.
pub fn save(
    path: &Path,
    wal_floor: Option<Chronon>,
    images: &BTreeMap<u32, RelationImage>,
) -> StorageResult<u64> {
    let mut body = Vec::new();
    put_opt_chronon(&mut body, wal_floor);
    put_uvarint(&mut body, images.len() as u64);
    for (rel_id, image) in images {
        put_uvarint(&mut body, u64::from(*rel_id));
        encode_image(&mut body, image);
    }
    let mut out = Vec::with_capacity(body.len() + 12);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    let tmp = path.with_extension("tmp");
    chronos_storage::fault::crash_point("checkpoint.save.pre_write")?;
    {
        let mut f = std::fs::File::create(&tmp)?;
        std::io::Write::write_all(&mut f, &out)?;
        f.sync_all()?;
    }
    chronos_storage::fault::crash_point("checkpoint.save.pre_rename")?;
    std::fs::rename(&tmp, path)?;
    // The rename is an entry in the directory, which the file's fsync
    // does not cover.  Callers truncate the log next; were the rename
    // still in the page cache, a power loss could keep that truncation
    // and lose the checkpoint, and with it every commit since the last.
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    std::fs::File::open(dir)?.sync_all()?;
    chronos_storage::fault::crash_point("checkpoint.save.post_rename")?;
    Ok(out.len() as u64)
}

/// Loads a checkpoint file; absent file means no checkpoint.
pub fn load(path: &Path) -> StorageResult<Option<Checkpoint>> {
    match std::fs::read(path) {
        Ok(bytes) => decode(&bytes).map(Some),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// Decodes the bytes of a checkpoint file.  They are untrusted: any
/// input yields a checkpoint or a typed error, never a panic.
pub fn decode(bytes: &[u8]) -> StorageResult<Checkpoint> {
    if bytes.len() >= 8 && &bytes[..8] == MAGIC_V1 {
        return Err(StorageError::UnsupportedFormat {
            file: "checkpoint",
            found: 1,
            supported: 2,
        });
    }
    if bytes.len() < 12 || &bytes[..8] != MAGIC {
        return Err(StorageError::Corrupt("bad checkpoint magic".into()));
    }
    let stored = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    let body = &bytes[12..];
    let computed = crc32(body);
    if stored != computed {
        return Err(StorageError::ChecksumMismatch {
            expected: stored,
            computed,
        });
    }
    let mut r = Reader::new(body);
    let wal_floor = get_opt_chronon(&mut r)?;
    let n = r.get_uvarint()?;
    let mut images = BTreeMap::new();
    for _ in 0..n {
        let rel_id = u32::try_from(r.get_uvarint()?)
            .map_err(|_| StorageError::Corrupt("relation id out of range".into()))?;
        images.insert(rel_id, decode_image(&mut r)?);
    }
    if !r.is_exhausted() {
        return Err(StorageError::Corrupt("trailing bytes in checkpoint".into()));
    }
    Ok(Checkpoint {
        wal_floor,
        images,
        len: bytes.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_core::period::Period;
    use chronos_core::relation::Validity;
    use chronos_core::tuple::tuple;
    use proptest::prelude::*;

    fn arb_row() -> impl Strategy<Value = BitemporalRow> {
        (
            0u8..5,
            0i64..50,
            prop::option::of(1i64..30),
            0i64..50,
            prop::option::of(1i64..30),
        )
            .prop_map(|(name, vfrom, vlen, tfrom, tlen)| {
                let period = |from: i64, len: Option<i64>| match len {
                    Some(len) => Period::new(Chronon::new(from), Chronon::new(from + len)).unwrap(),
                    None => Period::from_start(Chronon::new(from)),
                };
                BitemporalRow {
                    tuple: tuple([format!("n{name}"), "rank".to_string()]),
                    validity: Validity::Interval(period(vfrom, vlen)),
                    tx: period(tfrom, tlen),
                }
            })
    }

    fn arb_checkpoint() -> impl Strategy<Value = (Option<i64>, Vec<(u32, Vec<BitemporalRow>)>)> {
        (
            prop::option::of(0i64..100),
            prop::collection::vec((0u32..9, prop::collection::vec(arb_row(), 0..6)), 0..4),
        )
    }

    /// The bytes `save` writes for the generated checkpoint, and the
    /// checkpoint they must load back as.
    fn written(
        tag: &str,
        floor: Option<i64>,
        relations: Vec<(u32, Vec<BitemporalRow>)>,
    ) -> (Vec<u8>, Checkpoint) {
        let images: BTreeMap<u32, RelationImage> = relations
            .into_iter()
            .map(|(rel_id, rows)| {
                let image = RelationImage {
                    transactions: rows.len() as u64,
                    last_commit: floor.map(Chronon::new),
                    rows,
                };
                (rel_id, image)
            })
            .collect();
        let path =
            std::env::temp_dir().join(format!("chronos-ckpt-prop-{tag}-{}", std::process::id()));
        let wal_floor = floor.map(Chronon::new);
        save(&path, wal_floor, &images).expect("save");
        let bytes = std::fs::read(&path).expect("read back");
        assert_eq!(
            same(&load(&path).expect("load").expect("present")),
            (wal_floor, &images)
        );
        std::fs::remove_file(&path).expect("clean up");
        let len = bytes.len() as u64;
        (
            bytes,
            Checkpoint {
                wal_floor,
                images,
                len,
            },
        )
    }

    fn same(c: &Checkpoint) -> (Option<Chronon>, &BTreeMap<u32, RelationImage>) {
        (c.wal_floor, &c.images)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Untrusted bytes: whatever is done to a checkpoint file, loading
        /// it yields a typed error or the checkpoint that was written —
        /// never a panic, never a different value.
        #[test]
        fn damaged_checkpoints_never_load_as_something_else(
            (floor, relations) in arb_checkpoint(),
            cut in any::<prop::sample::Index>(),
            flip in any::<prop::sample::Index>(),
            bit in 0u32..8,
        ) {
            let (bytes, original) = written("damage", floor, relations);
            let truncated = &bytes[..cut.index(bytes.len())];
            prop_assert!(decode(truncated).is_err(), "cut at {}", truncated.len());
            let mut flipped = bytes.clone();
            flipped[flip.index(bytes.len())] ^= 1 << bit;
            match decode(&flipped) {
                Err(_) => {}
                Ok(loaded) => prop_assert_eq!(same(&loaded), same(&original)),
            }
        }

        /// Past the magic and a matching CRC the body is still untrusted:
        /// any byte soup decodes to an error or to *some* checkpoint.
        #[test]
        fn arbitrary_bodies_never_panic(
            body in prop::collection::vec(any::<u8>(), 0..200),
            (floor, relations) in arb_checkpoint(),
            splice in any::<prop::sample::Index>(),
        ) {
            let framed = |body: &[u8]| {
                let mut out = MAGIC.to_vec();
                out.extend_from_slice(&crc32(body).to_le_bytes());
                out.extend_from_slice(body);
                out
            };
            let _ = decode(&body);
            let _ = decode(&framed(&body));
            // Structure-aware: a valid body with garbage spliced into it.
            let (bytes, _) = written("splice", floor, relations);
            let mut spliced = bytes[12..].to_vec();
            let at = splice.index(spliced.len());
            spliced.splice(at..at, body.iter().copied());
            let _ = decode(&framed(&spliced));
        }
    }

    #[test]
    fn format_1_is_refused_by_name_not_misread() {
        let mut v1 = MAGIC_V1.to_vec();
        v1.extend_from_slice(&crc32(&[0, 0]).to_le_bytes());
        v1.extend_from_slice(&[0, 0]);
        let err = decode(&v1).map(|_| ()).unwrap_err();
        assert!(matches!(
            err,
            StorageError::UnsupportedFormat {
                file: "checkpoint",
                found: 1,
                supported: 2
            }
        ));
        assert_eq!(
            err.to_string(),
            "checkpoint is format version 1; this build reads version 2"
        );
    }
}
