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
//!
//! The whole file is one string section of the storage codec
//! ([`StrEncoder`]): a string is written in full the first time any
//! image names it, and as a reference to that first occurrence after,
//! so a key repeated across versions and relations costs its bytes once.

use std::collections::BTreeMap;
use std::path::Path;

use chronos_core::chronon::Chronon;
use chronos_core::relation::temporal::{BitemporalRow, TemporalStore as _};
use chronos_obs::Disk;
use chronos_storage::codec::{
    crc32, get_period, get_validity, put_ivarint, put_period, put_uvarint, put_validity, Reader,
    StrDecoder, StrEncoder,
};
use chronos_storage::{StorageError, StorageResult};

use crate::catalog::CatalogEntry;
use crate::relation::Relation;

/// Format 3: one image shape for every relation class, and one string
/// table for the whole file.
const MAGIC: &[u8; 8] = b"CHRONCK3";
/// Format 2 is format 3 with no string reference in it, so the one
/// decoder reads it.
const MAGIC_V2: &[u8; 8] = b"CHRONCK2";
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

fn encode_image<'a>(buf: &mut Vec<u8>, strs: &mut StrEncoder<'a>, image: &'a RelationImage) {
    put_opt_chronon(buf, image.last_commit);
    put_uvarint(buf, image.transactions);
    put_uvarint(buf, image.rows.len() as u64);
    for row in &image.rows {
        strs.put_tuple(buf, &row.tuple);
        put_validity(buf, row.validity);
        put_period(buf, row.tx);
    }
}

fn decode_image(r: &mut Reader<'_>, strs: &mut StrDecoder) -> StorageResult<RelationImage> {
    let last_commit = get_opt_chronon(r)?;
    let transactions = r.get_uvarint()?;
    let n = r.get_uvarint()?;
    // The count is untrusted: let the rows that actually decode size
    // the vector, not a number a flipped bit can make enormous.
    let mut rows = Vec::new();
    for _ in 0..n {
        rows.push(BitemporalRow {
            tuple: strs.get_tuple(r)?,
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

/// The bytes of a checkpoint file: the WAL floor, then `(rel_id →
/// image)` for every relation, framed with magic and CRC-32.
pub fn encode(wal_floor: Option<Chronon>, images: &BTreeMap<u32, RelationImage>) -> Vec<u8> {
    let mut body = Vec::new();
    put_opt_chronon(&mut body, wal_floor);
    put_uvarint(&mut body, images.len() as u64);
    let mut strs = StrEncoder::default();
    for (rel_id, image) in images {
        put_uvarint(&mut body, u64::from(*rel_id));
        encode_image(&mut body, &mut strs, image);
    }
    let mut out = Vec::with_capacity(body.len() + 12);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&crc32(&body).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Writes the checkpoint file [`encode`] makes through `replace_file`
/// on `disk`: once this returns the new checkpoint survives a power
/// loss and the log it absorbed may be truncated.  Returns the file's
/// length.
pub fn save(
    disk: &Disk,
    path: &Path,
    wal_floor: Option<Chronon>,
    images: &BTreeMap<u32, RelationImage>,
) -> StorageResult<u64> {
    let out = encode(wal_floor, images);
    replace_file(disk, path, &out)?;
    Ok(out.len() as u64)
}

/// Replaces the file at `path` with `bytes` durably, through `disk`:
/// they are written to a `.tmp` sibling, fsynced, and renamed into
/// place, so a crash at any point leaves either the old file or the new
/// one — never a torn mixture.  The directory is fsynced after the
/// rename, so once this returns the new file survives a power loss.
pub(crate) fn replace_file(disk: &Disk, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    disk.write(&tmp, bytes)?;
    disk.sync(&tmp)?;
    disk.rename(&tmp, path)?;
    // The rename is an entry in the directory, which the file's fsync
    // does not cover: were it still in the page cache, a power loss
    // could lose the new file while later writes that depend on it (a
    // truncated log, fsynced commits to a new relation) survive.
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    disk.sync_dir(dir)
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
            supported: 3,
        });
    }
    if bytes.len() < 12 || (&bytes[..8] != MAGIC && &bytes[..8] != MAGIC_V2) {
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
    let mut strs = StrDecoder::default();
    for _ in 0..n {
        let rel_id = u32::try_from(r.get_uvarint()?)
            .map_err(|_| StorageError::Corrupt("relation id out of range".into()))?;
        images.insert(rel_id, decode_image(&mut r, &mut strs)?);
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
            0usize..3,
            0i64..50,
            prop::option::of(1i64..30),
            0i64..50,
            prop::option::of(1i64..30),
        )
            .prop_map(|(name, rank, vfrom, vlen, tfrom, tlen)| {
                let period = |from: i64, len: Option<i64>| match len {
                    Some(len) => Period::new(Chronon::new(from), Chronon::new(from + len)).unwrap(),
                    None => Period::from_start(Chronon::new(from)),
                };
                // A small pool, so that strings repeat within an image
                // and across images.
                let ranks = ["assistant", "associate", "n1"];
                BitemporalRow {
                    tuple: tuple([format!("n{name}"), ranks[rank].to_string()]),
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

    fn images_of(
        floor: Option<i64>,
        relations: Vec<(u32, Vec<BitemporalRow>)>,
    ) -> BTreeMap<u32, RelationImage> {
        relations
            .into_iter()
            .map(|(rel_id, rows)| {
                let image = RelationImage {
                    transactions: rows.len() as u64,
                    last_commit: floor.map(Chronon::new),
                    rows,
                };
                (rel_id, image)
            })
            .collect()
    }

    /// The bytes `save` writes for the generated checkpoint, and the
    /// checkpoint they must load back as.
    fn written(
        tag: &str,
        floor: Option<i64>,
        relations: Vec<(u32, Vec<BitemporalRow>)>,
    ) -> (Vec<u8>, Checkpoint) {
        let images = images_of(floor, relations);
        let path =
            std::env::temp_dir().join(format!("chronos-ckpt-prop-{tag}-{}", std::process::id()));
        let wal_floor = floor.map(Chronon::new);
        save(&Disk::default(), &path, wal_floor, &images).expect("save");
        let bytes = std::fs::read(&path).expect("read back");
        assert_eq!(bytes, encode(wal_floor, &images));
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

    /// `body` under the magic and its own CRC: past the checksum, so
    /// that decoding reaches the body's structure.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.extend_from_slice(&crc32(body).to_le_bytes());
        out.extend_from_slice(body);
        out
    }

    proptest! {
        /// encode ∘ decode = id over several images that share strings.
        #[test]
        fn checkpoint_round_trips((floor, relations) in arb_checkpoint()) {
            let images = images_of(floor, relations);
            let wal_floor = floor.map(Chronon::new);
            let bytes = encode(wal_floor, &images);
            let loaded = decode(&bytes).expect("decode");
            prop_assert_eq!(same(&loaded), (wal_floor, &images));
            prop_assert_eq!(loaded.len, bytes.len() as u64);
        }

        /// A body that is truncated, has a byte flipped, or is spliced
        /// from two encodings, re-framed with a valid CRC, decodes to an
        /// error or to some checkpoint — never a panic — and a truncated
        /// one always to an error.
        #[test]
        fn checkpoint_decoder_never_panics_on_garbage(
            (floor, relations) in arb_checkpoint(),
            (floor2, relations2) in arb_checkpoint(),
            cut in any::<prop::sample::Index>(),
            at in any::<prop::sample::Index>(),
            bit in 0u32..8,
        ) {
            let one = encode(floor.map(Chronon::new), &images_of(floor, relations));
            let two = encode(floor2.map(Chronon::new), &images_of(floor2, relations2));
            let (one, two) = (&one[12..], &two[12..]);
            let truncated = &one[..cut.index(one.len())];
            prop_assert!(decode(&framed(truncated)).is_err(), "cut at {}", truncated.len());
            let mut flipped = one.to_vec();
            flipped[at.index(one.len())] ^= 1 << bit;
            let _ = decode(&framed(&flipped));
            let spliced = [&one[..at.index(one.len())], &two[cut.index(two.len())..]].concat();
            let _ = decode(&framed(&spliced));
        }
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

    /// The images `no_repeats_bytes` holds: no string in them repeats.
    fn no_repeats() -> BTreeMap<u32, RelationImage> {
        let row = |name: &str, rank: &str, validity: Validity, tx: Period| BitemporalRow {
            tuple: tuple([name, rank]),
            validity,
            tx,
        };
        let from = |t: i64| Period::from_start(Chronon::new(t));
        let mut images = BTreeMap::new();
        images.insert(
            0,
            RelationImage {
                rows: vec![
                    row(
                        "Merrie",
                        "assistant",
                        from(3).into(),
                        Period::new(Chronon::new(3), Chronon::new(9)).unwrap(),
                    ),
                    row("Tom", "full", Chronon::new(5).into(), from(9)),
                ],
                last_commit: Some(Chronon::new(9)),
                transactions: 2,
            },
        );
        images.insert(
            3,
            RelationImage {
                rows: vec![row("Ilsoo", "history", from(1).into(), from(2))],
                last_commit: Some(Chronon::new(2)),
                transactions: 1,
            },
        );
        images
    }

    /// The format-2 file of [`no_repeats`], as format 2's encoder wrote
    /// it (hex).
    const NO_REPEATS_V2: &str = "4348524f4e434b320fba061b01120200011202020200064d6572726965000961\
        7373697374616e740001060201060112020003546f6d000466756c6c010a0112020301040101020005496c\
        736f6f0007686973746f727900010202010402";

    fn unhex(hex: &str) -> Vec<u8> {
        let digits: Vec<u8> = hex.bytes().filter(u8::is_ascii_hexdigit).collect();
        (digits.chunks(2))
            .map(|d| u8::from_str_radix(std::str::from_utf8(d).unwrap(), 16).unwrap())
            .collect()
    }

    /// A file with no repeated string is format 2's bytes under the new
    /// magic, and a format-2 file still loads, through the same decoder.
    #[test]
    fn a_file_without_repeats_is_format_2_under_the_new_magic() {
        let v2 = unhex(NO_REPEATS_V2);
        let v3 = encode(Some(Chronon::new(9)), &no_repeats());
        assert_eq!(&v3[..8], MAGIC);
        assert_eq!(&v2[..8], MAGIC_V2);
        assert_eq!(v3[8..], v2[8..]);
        for bytes in [&v2, &v3] {
            let loaded = decode(bytes).expect("decode");
            assert_eq!(same(&loaded), (Some(Chronon::new(9)), &no_repeats()));
        }
    }

    /// A string shared by two images is written once in the file.
    #[test]
    fn images_share_one_string_table() {
        let mut images = no_repeats();
        let tom = images[&0].rows[1].clone();
        images.get_mut(&3).unwrap().rows.push(tom);
        let bytes = encode(None, &images);
        assert_eq!(bytes.windows(3).filter(|w| w == b"Tom").count(), 1);
        assert_eq!(same(&decode(&bytes).unwrap()), (None, &images));
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
                supported: 3
            }
        ));
        assert_eq!(
            err.to_string(),
            "checkpoint is format version 1; this build reads version 3"
        );
    }
}
