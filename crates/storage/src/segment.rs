//! Frozen-history segments: immutable and delta-encoded.
//!
//! No engine path reaches this module, and a database directory holds
//! no segment file.  Only
//! [`StoredBitemporalTable::freeze_into`](crate::table::StoredBitemporalTable::freeze_into)
//! writes one, and only the frozen benchmark's layer probe calls that
//! (`storage.segment.*`).  The encoding stays for the closed-history
//! files ROADMAP item 6 plans; the read path goes with the benchmark
//! change that retires those probe metrics.
//!
//! The paper warns that rollback and temporal stores pay for their
//! memory with "excessive duplication" — every version of a key repeats
//! almost all of its predecessor's bytes.  The heap stores each version
//! fully encoded (that is what makes the tail cheap to mutate), and
//! `sys$pages` prices the resulting duplication factor at ~2.7× for
//! chains of 32 versions.  A **segment** is the antidote for history
//! that can no longer change: an immutable file holding every version
//! whose transaction period is wholly past (finite `tx.end`), laid out
//! so that
//!
//! * per-key version chains store each version as a **prefix/suffix
//!   delta** against its predecessor — exactly the delta the heap's
//!   duplication factor already prices;
//! * transaction periods are **coalesce-encoded**: consecutive versions
//!   of one key abut (`prev.end == next.start`), so all but the first
//!   period store only their end point;
//! * a **bloom filter** over first-attribute key bytes plus a min/max
//!   transaction-time range let as-of point lookups skip a whole
//!   segment without decoding it;
//! * the file is read whole into memory once, at open; the skip/filter
//!   path (range check, bloom probe, directory key compare) then
//!   materialises no tuples, and only a matching chain is decoded.
//!
//! ## On-disk layout
//!
//! ```text
//! offset  size  field
//! 0       8     magic "CHRONSG1"
//! 8       4     u32  relation id                   (little-endian)
//! 12      8     u64  version count
//! 20      8     u64  chain count
//! 28      8     i64  min tx start (ticks; i64::MIN = -infinity)
//! 36      8     i64  max tx end   (ticks; always finite)
//! 44      8     u64  logical bytes (sum of full heap row encodings)
//! 52      8     u64  priced delta bytes (prefix/suffix delta pricing)
//! 60      8     u64  bloom section length
//! 68      8     u64  directory section length
//! 76      8     u64  body section length
//! 84      ...   bloom:     uvarint k, uvarint m_bits, bitmap bytes
//! ...     ...   directory: per chain, bytes(key) ++ uvarint body_off
//! ...     ...   body:      per chain (at its body_off):
//!                            uvarint n
//!                            bytes(v0 payload)            -- full
//!                            n-1 × (uvarint prefix, uvarint suffix,
//!                                   bytes(mid))           -- deltas
//!                            period(p0)                   -- full
//!                            n-1 × (u8 flag;
//!                                   0 → timepoint(end)    -- abuts
//!                                   1 → period(p))        -- gap
//! len-4   4     u32 CRC-32 of bytes[0 .. len-4]           (little-endian)
//! ```
//!
//! A version's *payload* is its tuple and validity encoding (the
//! transaction period is carried by the coalesced period block).  Keys
//! are the [`codec::put_value`](crate::codec::put_value) encoding of the
//! first attribute; chains are sorted by key bytes, versions within a
//! chain by transaction start.
//!
//! ## Crash safety
//!
//! Segments are a rebuildable physical cache, never the authority: the
//! write-ahead log and checkpoint images alone reconstruct the full
//! heap, so a crash or an error anywhere in a freeze loses nothing.
//! Heap rows are only deleted *after* the segment is durable (`.tmp` +
//! fsync + rename) and read back.

use std::fs::File;
use std::path::{Path, PathBuf};

use chronos_core::chronon::Chronon;
use chronos_core::period::Period;
use chronos_core::relation::temporal::BitemporalRow;
use chronos_core::relation::Validity;
use chronos_core::timepoint::TimePoint;
use chronos_core::tuple::Tuple;
use chronos_core::value::Value;

use crate::codec::{
    crc32, get_period, get_timepoint, get_tuple, get_validity, put_bytes, put_period,
    put_timepoint, put_tuple, put_uvarint, put_validity, put_value, Reader,
};
use crate::error::{StorageError, StorageResult};

/// Segment file magic: "CHRONSG1".
pub const MAGIC: &[u8; 8] = b"CHRONSG1";

/// Fixed header length (magic + nine fixed-width fields).
pub const HEADER_LEN: usize = 84;

/// Bloom filter design load: bits per key …
const BLOOM_BITS_PER_KEY: usize = 10;
/// … and hash count, giving a false-positive rate of ~0.8 % (< 2 %).
const BLOOM_HASHES: u32 = 7;

// ---------------------------------------------------------------------
// Bloom filter
// ---------------------------------------------------------------------

fn fnv1a(data: &[u8], seed: u64) -> u64 {
    let mut h = seed;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn bloom_bits(key: &[u8], m_bits: u64) -> impl Iterator<Item = u64> {
    let h1 = fnv1a(key, 0xCBF2_9CE4_8422_2325);
    let h2 = fnv1a(key, 0x9E37_79B9_7F4A_7C15) | 1;
    (0..u64::from(BLOOM_HASHES)).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % m_bits)
}

fn bloom_size_bits(keys: usize) -> u64 {
    ((keys.max(1) * BLOOM_BITS_PER_KEY) as u64).next_multiple_of(64)
}

fn bloom_probe(bitmap: &[u8], m_bits: u64, key: &[u8]) -> bool {
    bloom_bits(key, m_bits).all(|bit| bitmap[(bit / 8) as usize] & (1 << (bit % 8)) != 0)
}

/// The bytes a chain is keyed by: the key bytes of the row's first
/// attribute (empty for zero-arity tuples).
pub fn key_bytes(tuple: &Tuple) -> Vec<u8> {
    tuple.try_get(0).map(value_key_bytes).unwrap_or_default()
}

/// Key bytes for a probe value (point lookups): its codec encoding,
/// with the floats that `=` equates (`-0.0` and `0.0`, every NaN)
/// encoded alike, so values equal as keys share one chain.
pub fn value_key_bytes(v: &Value) -> Vec<u8> {
    let mut buf = Vec::new();
    match v {
        Value::Float(x) if *x == 0.0 => put_value(&mut buf, &Value::Float(0.0)),
        Value::Float(x) if x.is_nan() => put_value(&mut buf, &Value::Float(f64::NAN)),
        v => put_value(&mut buf, v),
    }
    buf
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

fn encode_payload(tuple: &Tuple, validity: Validity) -> Vec<u8> {
    let mut buf = Vec::with_capacity(48);
    put_tuple(&mut buf, tuple);
    put_validity(&mut buf, validity);
    buf
}

fn full_row_encoding(row: &BitemporalRow) -> Vec<u8> {
    let mut buf = encode_payload(&row.tuple, row.validity);
    put_period(&mut buf, row.tx);
    buf
}

fn tick_floor(p: TimePoint) -> i64 {
    match p {
        TimePoint::MinusInfinity => i64::MIN,
        TimePoint::Finite(c) => c.ticks(),
        TimePoint::PlusInfinity => i64::MAX,
    }
}

/// What a freeze wrote: the segment's vital statistics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FreezeReport {
    /// Where the segment landed.
    pub path: PathBuf,
    /// Versions stored.
    pub versions: u64,
    /// Distinct first-attribute keys (chains).
    pub chains: u64,
    /// Segment file size.
    pub file_bytes: u64,
    /// What the same versions cost fully encoded on the heap.
    pub logical_bytes: u64,
}

/// Writes `rows` (all with finite transaction end) as a segment at
/// `path`, durably: `.tmp` sibling, fsync, rename.
pub fn write_segment(
    path: &Path,
    rel_id: u32,
    rows: &[BitemporalRow],
) -> StorageResult<FreezeReport> {
    if rows.is_empty() {
        return Err(StorageError::Corrupt(
            "refusing to write an empty segment".into(),
        ));
    }
    // Group into chains by key bytes, versions ordered by tx start.
    let mut chains: std::collections::BTreeMap<Vec<u8>, Vec<&BitemporalRow>> =
        std::collections::BTreeMap::new();
    let mut min_start = i64::MAX;
    let mut max_end = i64::MIN;
    for row in rows {
        if row.tx.end() == TimePoint::PlusInfinity {
            return Err(StorageError::Corrupt(
                "segment rows must have a closed transaction period".into(),
            ));
        }
        min_start = min_start.min(tick_floor(row.tx.start()));
        max_end = max_end.max(tick_floor(row.tx.end()));
        chains.entry(key_bytes(&row.tuple)).or_default().push(row);
    }
    for chain in chains.values_mut() {
        chain.sort_by_key(|r| (tick_floor(r.tx.start()), tick_floor(r.tx.end())));
    }

    // Bloom filter over chain keys.
    let m_bits = bloom_size_bits(chains.len());
    let mut bitmap = vec![0u8; (m_bits / 8) as usize];
    for key in chains.keys() {
        for bit in bloom_bits(key, m_bits) {
            bitmap[(bit / 8) as usize] |= 1 << (bit % 8);
        }
    }
    let mut bloom = Vec::with_capacity(bitmap.len() + 8);
    put_uvarint(&mut bloom, u64::from(BLOOM_HASHES));
    put_uvarint(&mut bloom, m_bits);
    bloom.extend_from_slice(&bitmap);

    // Body: delta-encoded chains; directory records each chain's offset.
    let mut body = Vec::new();
    let mut dir = Vec::new();
    let mut logical = 0u64;
    let mut priced_delta = 0u64;
    for (key, chain) in &chains {
        put_bytes(&mut dir, key);
        put_uvarint(&mut dir, body.len() as u64);
        put_uvarint(&mut body, chain.len() as u64);
        let mut prev_payload: Option<Vec<u8>> = None;
        let mut prev_full: Option<Vec<u8>> = None;
        for row in chain {
            let payload = encode_payload(&row.tuple, row.validity);
            let full = full_row_encoding(row);
            logical += full.len() as u64;
            priced_delta += match &prev_full {
                Some(p) => (full.len() - crate::table::shared_bytes(p, &full)) as u64,
                None => full.len() as u64,
            };
            match &prev_payload {
                None => put_bytes(&mut body, &payload),
                Some(prev) => {
                    let max = prev.len().min(payload.len());
                    let prefix = prev
                        .iter()
                        .zip(payload.iter())
                        .take_while(|(a, b)| a == b)
                        .count();
                    let suffix = prev
                        .iter()
                        .rev()
                        .zip(payload.iter().rev())
                        .take_while(|(a, b)| a == b)
                        .count()
                        .min(max - prefix);
                    put_uvarint(&mut body, prefix as u64);
                    put_uvarint(&mut body, suffix as u64);
                    put_bytes(&mut body, &payload[prefix..payload.len() - suffix]);
                }
            }
            prev_payload = Some(payload);
            prev_full = Some(full);
        }
        // Coalesced transaction periods: all but the first store only
        // their end point when they abut the predecessor.
        let mut prev_end: Option<TimePoint> = None;
        for row in chain {
            match prev_end {
                None => put_period(&mut body, row.tx),
                Some(end) if end == row.tx.start() => {
                    body.push(0);
                    put_timepoint(&mut body, row.tx.end());
                }
                Some(_) => {
                    body.push(1);
                    put_period(&mut body, row.tx);
                }
            }
            prev_end = Some(row.tx.end());
        }
    }

    // Assemble: header ++ bloom ++ directory ++ body ++ crc.
    let mut out = Vec::with_capacity(HEADER_LEN + bloom.len() + dir.len() + body.len() + 4);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&rel_id.to_le_bytes());
    out.extend_from_slice(&(rows.len() as u64).to_le_bytes());
    out.extend_from_slice(&(chains.len() as u64).to_le_bytes());
    out.extend_from_slice(&min_start.to_le_bytes());
    out.extend_from_slice(&max_end.to_le_bytes());
    out.extend_from_slice(&logical.to_le_bytes());
    out.extend_from_slice(&priced_delta.to_le_bytes());
    out.extend_from_slice(&(bloom.len() as u64).to_le_bytes());
    out.extend_from_slice(&(dir.len() as u64).to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&bloom);
    out.extend_from_slice(&dir);
    out.extend_from_slice(&body);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());

    let tmp = path.with_extension("seg.tmp");
    {
        let mut f = File::create(&tmp)?;
        std::io::Write::write_all(&mut f, &out)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;

    Ok(FreezeReport {
        path: path.to_path_buf(),
        versions: rows.len() as u64,
        chains: chains.len() as u64,
        file_bytes: out.len() as u64,
        logical_bytes: logical,
    })
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

fn le_u64(data: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"))
}

fn le_i64(data: &[u8], at: usize) -> i64 {
    i64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"))
}

/// Structurally validates a whole segment image: magic, checksum,
/// section bounds, every chain's deltas, periods and payload decodes.
/// On corruption returns `(byte offset, message)`.
pub fn check_bytes(data: &[u8]) -> Result<(), (u64, String)> {
    if data.len() < HEADER_LEN + 4 {
        return Err((data.len() as u64, "truncated segment header".into()));
    }
    if &data[..8] != MAGIC {
        return Err((0, "bad segment magic".into()));
    }
    let crc_off = data.len() - 4;
    let stored = u32::from_le_bytes(data[crc_off..].try_into().expect("4 bytes"));
    let actual = crc32(&data[..crc_off]);
    if stored != actual {
        return Err((
            crc_off as u64,
            format!("checksum mismatch (stored {stored:#010x}, computed {actual:#010x})"),
        ));
    }
    let versions = le_u64(data, 12);
    let chain_count = le_u64(data, 20);
    let min_start = le_i64(data, 28);
    let max_end = le_i64(data, 36);
    let bloom_len = le_u64(data, 60) as usize;
    let dir_len = le_u64(data, 68) as usize;
    let body_len = le_u64(data, 76) as usize;
    let expect = HEADER_LEN
        .checked_add(bloom_len)
        .and_then(|n| n.checked_add(dir_len))
        .and_then(|n| n.checked_add(body_len))
        .and_then(|n| n.checked_add(4));
    if expect != Some(data.len()) {
        return Err((44, "section lengths disagree with file size".into()));
    }
    // Equal bounds are a segment of versions superseded by the commit
    // that wrote them: it covers no instant, and is well-formed.
    if versions > 0 && (min_start > max_end || max_end == i64::MAX) {
        return Err((28, "implausible transaction-time range".into()));
    }

    // A reader over the checksummed region keeps every error's offset
    // absolute in the file.
    let mut r = Reader::new(&data[..crc_off]);
    let fail = |e: StorageError| -> (u64, String) {
        match e {
            StorageError::Corrupt(msg) => {
                let off = msg
                    .rsplit("at offset ")
                    .next()
                    .and_then(|s| s.parse::<u64>().ok())
                    .unwrap_or(0);
                (off, msg)
            }
            other => (0, other.to_string()),
        }
    };
    r.skip(HEADER_LEN).map_err(fail)?;

    // Bloom section.
    let bloom_start = crc_off - body_len - dir_len - bloom_len;
    let k = r.get_uvarint().map_err(fail)?;
    let m_bits = r.get_uvarint().map_err(fail)?;
    if k == 0 || m_bits == 0 || !m_bits.is_multiple_of(8) {
        return Err((bloom_start as u64, "malformed bloom parameters".into()));
    }
    let consumed = crc_off - r.remaining() - bloom_start;
    if consumed + (m_bits / 8) as usize != bloom_len {
        return Err((bloom_start as u64, "bloom bitmap length mismatch".into()));
    }
    r.skip((m_bits / 8) as usize).map_err(fail)?;

    // Directory: keys strictly ascending, offsets within the body.
    let dir_start = bloom_start + bloom_len;
    let body_start = dir_start + dir_len;
    let mut prev_key: Option<Vec<u8>> = None;
    let mut offsets = Vec::with_capacity(chain_count as usize);
    for _ in 0..chain_count {
        if crc_off - r.remaining() >= dir_start + dir_len {
            return Err((dir_start as u64, "directory overruns its section".into()));
        }
        let key = r.get_bytes().map_err(fail)?.to_vec();
        let off = r.get_uvarint().map_err(fail)? as usize;
        if off >= body_len.max(1) {
            return Err(((dir_start) as u64, "chain offset beyond body".into()));
        }
        if let Some(prev) = &prev_key {
            if *prev >= key {
                return Err((
                    dir_start as u64,
                    "directory keys not strictly ascending".into(),
                ));
            }
        }
        prev_key = Some(key);
        offsets.push(off);
    }
    if crc_off - r.remaining() != body_start {
        return Err((dir_start as u64, "directory length mismatch".into()));
    }

    // Body: decode every chain completely.
    let mut total_versions = 0u64;
    for (i, off) in offsets.iter().enumerate() {
        let at = crc_off - r.remaining() - body_start;
        if at != *off {
            return Err((
                (body_start + at) as u64,
                format!("chain {i} starts at body offset {at}, directory says {off}"),
            ));
        }
        let n = decode_chain_structure(&mut r).map_err(fail)?;
        total_versions += n;
    }
    if !r.is_exhausted() {
        return Err((
            (crc_off - r.remaining()) as u64,
            "trailing bytes after last chain".into(),
        ));
    }
    if total_versions != versions {
        return Err((
            12,
            format!("header says {versions} versions, body holds {total_versions}"),
        ));
    }
    Ok(())
}

/// Decodes one chain (payloads and periods) purely for validation,
/// returning its version count.
fn decode_chain_structure(r: &mut Reader<'_>) -> StorageResult<u64> {
    let n = r.get_uvarint()?;
    if n == 0 {
        return Err(StorageError::Corrupt("empty chain".into()));
    }
    let mut prev: Vec<u8> = r.get_bytes()?.to_vec();
    decode_payload(&prev)?;
    for _ in 1..n {
        let prefix = r.get_uvarint()? as usize;
        let suffix = r.get_uvarint()? as usize;
        let mid = r.get_bytes()?;
        if prefix + suffix > prev.len() {
            return Err(StorageError::Corrupt(
                "delta prefix+suffix exceed predecessor".into(),
            ));
        }
        let mut cur = Vec::with_capacity(prefix + mid.len() + suffix);
        cur.extend_from_slice(&prev[..prefix]);
        cur.extend_from_slice(mid);
        cur.extend_from_slice(&prev[prev.len() - suffix..]);
        decode_payload(&cur)?;
        prev = cur;
    }
    let mut prev_end = {
        let p = get_period(r)?;
        p.end()
    };
    for _ in 1..n {
        match r.get_u8()? {
            0 => {
                let end = get_timepoint(r)?;
                let p = Period::new(prev_end, end)
                    .ok_or_else(|| StorageError::Corrupt("non-abutting coalesced period".into()))?;
                prev_end = p.end();
            }
            1 => {
                prev_end = get_period(r)?.end();
            }
            t => return Err(StorageError::Corrupt(format!("unknown period flag {t}"))),
        }
    }
    Ok(n)
}

fn decode_payload(bytes: &[u8]) -> StorageResult<(Tuple, Validity)> {
    let mut r = Reader::new(bytes);
    let tuple = get_tuple(&mut r)?;
    let validity = get_validity(&mut r)?;
    if !r.is_exhausted() {
        return Err(StorageError::Corrupt(
            "trailing bytes after chain payload".into(),
        ));
    }
    Ok((tuple, validity))
}

// ---------------------------------------------------------------------
// Segment (the read-only form)
// ---------------------------------------------------------------------

struct ChainRef {
    /// Key bytes, as absolute offsets into the file.
    key: std::ops::Range<usize>,
    /// Absolute offset of the chain body.
    body: usize,
}

/// Physical statistics of one segment, for the benchmark's layer probe.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SegmentStats {
    /// Versions stored.
    pub versions: u64,
    /// Chains (distinct first-attribute keys).
    pub chains: u64,
    /// Whole file size on disk.
    pub file_bytes: u64,
    /// Directory + body bytes: the payload the segment actually stores.
    pub stored_bytes: u64,
    /// What the same versions cost fully encoded on the heap.
    pub logical_bytes: u64,
    /// Stored payload per 1000 bytes of the ideal prefix/suffix delta
    /// encoding — the segment's duplication factor, comparable with the
    /// heap's (`PhysicalStats::dup_factor_x1000`); near 1000 by
    /// construction.
    pub dup_factor_x1000: u64,
    /// `file_bytes / versions`.
    pub bytes_per_version: u64,
}

/// An immutable segment of frozen history, read whole into memory.
pub struct Segment {
    data: Vec<u8>,
    rel_id: u32,
    versions: u64,
    min_start: i64,
    max_end: i64,
    logical_bytes: u64,
    priced_delta: u64,
    bloom_k: u32,
    bloom_m: u64,
    bloom_bitmap: std::ops::Range<usize>,
    dir_len: usize,
    body_len: usize,
    chains: Vec<ChainRef>,
}

impl Segment {
    /// Reads and validates the segment at `path`; a segment that fails
    /// validation is never attached.
    pub fn open(path: &Path) -> StorageResult<Segment> {
        let data = std::fs::read(path)?;
        check_bytes(&data).map_err(|(off, msg)| {
            StorageError::Corrupt(format!("segment {}: {msg} at offset {off}", path.display()))
        })?;
        let rel_id = u32::from_le_bytes(data[8..12].try_into().expect("4 bytes"));
        let versions = le_u64(&data, 12);
        let chain_count = le_u64(&data, 20) as usize;
        let min_start = le_i64(&data, 28);
        let max_end = le_i64(&data, 36);
        let logical_bytes = le_u64(&data, 44);
        let priced_delta = le_u64(&data, 52);
        let bloom_len = le_u64(&data, 60) as usize;
        let dir_len = le_u64(&data, 68) as usize;
        let body_len = le_u64(&data, 76) as usize;

        let mut r = Reader::new(&data[..data.len() - 4]);
        r.skip(HEADER_LEN)?;
        let bloom_k = r.get_uvarint()? as u32;
        let bloom_m = r.get_uvarint()?;
        let bitmap_start = data.len() - 4 - r.remaining();
        let bloom_bitmap = bitmap_start..bitmap_start + (bloom_m / 8) as usize;
        r.skip((bloom_m / 8) as usize)?;

        let dir_start = HEADER_LEN + bloom_len;
        let body_start = dir_start + dir_len;
        let mut chains = Vec::with_capacity(chain_count);
        for _ in 0..chain_count {
            let key_len = r.get_bytes()?.len();
            let key_end = data.len() - 4 - r.remaining();
            let body_off = r.get_uvarint()? as usize;
            chains.push(ChainRef {
                key: key_end - key_len..key_end,
                body: body_start + body_off,
            });
        }
        Ok(Segment {
            data,
            rel_id,
            versions,
            min_start,
            max_end,
            logical_bytes,
            priced_delta,
            bloom_k,
            bloom_m,
            bloom_bitmap,
            dir_len,
            body_len,
            chains,
        })
    }

    /// Relation id stamped in the header.
    pub fn rel_id(&self) -> u32 {
        self.rel_id
    }

    /// Versions stored.
    pub fn versions(&self) -> u64 {
        self.versions
    }

    /// The segment's transaction-time coverage: `[min start, max end)`
    /// in ticks.  An as-of at `t` outside this window cannot match any
    /// stored version — the caller skips the whole segment.
    pub fn covers(&self, t: Chronon) -> bool {
        self.min_start <= t.ticks() && t.ticks() < self.max_end
    }

    /// True when the window `[w]` overlaps the segment's coverage.
    pub fn covers_window(&self, w: Period) -> bool {
        let seg = Period::clamped(
            if self.min_start == i64::MIN {
                TimePoint::MinusInfinity
            } else {
                TimePoint::at(Chronon::new(self.min_start))
            },
            TimePoint::at(Chronon::new(self.max_end)),
        );
        seg.overlaps(w)
    }

    /// Bloom-filter membership probe over key bytes — no body access,
    /// no tuple materialisation.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        debug_assert_eq!(self.bloom_k, BLOOM_HASHES);
        bloom_probe(&self.data[self.bloom_bitmap.clone()], self.bloom_m, key)
    }

    /// Finds the chain holding `key`, comparing raw key bytes in the
    /// directory (zero-copy).  `None` after a positive bloom probe is a
    /// false positive.
    pub fn find_chain(&self, key: &[u8]) -> Option<usize> {
        self.chains
            .binary_search_by(|c| self.data[c.key.clone()].cmp(key))
            .ok()
    }

    /// Decodes one chain into full bitemporal rows.
    pub fn chain_rows(&self, idx: usize) -> StorageResult<Vec<BitemporalRow>> {
        let chain = &self.chains[idx];
        let data = &self.data;
        let mut r = Reader::new(&data[chain.body..data.len() - 4]);
        decode_chain(&mut r)
    }

    /// Decodes every chain, in directory (key) order.
    pub fn rows(&self) -> StorageResult<Vec<BitemporalRow>> {
        let mut out = Vec::with_capacity(self.versions as usize);
        for idx in 0..self.chains.len() {
            out.extend(self.chain_rows(idx)?);
        }
        Ok(out)
    }

    /// Physical statistics (`storage.segment.dup_factor`).
    pub fn stats(&self) -> SegmentStats {
        let stored = (self.dir_len + self.body_len) as u64;
        SegmentStats {
            versions: self.versions,
            chains: self.chains.len() as u64,
            file_bytes: self.data.len() as u64,
            stored_bytes: stored,
            logical_bytes: self.logical_bytes,
            dup_factor_x1000: (stored * 1000)
                .checked_div(self.priced_delta)
                .unwrap_or(1000),
            bytes_per_version: (self.data.len() as u64)
                .checked_div(self.versions)
                .unwrap_or(0),
        }
    }
}

/// Decodes one chain from a reader positioned at its start.
fn decode_chain(r: &mut Reader<'_>) -> StorageResult<Vec<BitemporalRow>> {
    let n = r.get_uvarint()? as usize;
    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(n);
    payloads.push(r.get_bytes()?.to_vec());
    for _ in 1..n {
        let prefix = r.get_uvarint()? as usize;
        let suffix = r.get_uvarint()? as usize;
        let mid = r.get_bytes()?;
        let prev = payloads.last().expect("chain has a predecessor");
        if prefix + suffix > prev.len() {
            return Err(StorageError::Corrupt(
                "delta prefix+suffix exceed predecessor".into(),
            ));
        }
        let mut cur = Vec::with_capacity(prefix + mid.len() + suffix);
        cur.extend_from_slice(&prev[..prefix]);
        cur.extend_from_slice(mid);
        cur.extend_from_slice(&prev[prev.len() - suffix..]);
        payloads.push(cur);
    }
    let mut periods = Vec::with_capacity(n);
    periods.push(get_period(r)?);
    for _ in 1..n {
        let prev_end = periods.last().expect("period predecessor").end();
        match r.get_u8()? {
            0 => {
                let end = get_timepoint(r)?;
                periods.push(Period::new(prev_end, end).ok_or_else(|| {
                    StorageError::Corrupt("non-abutting coalesced period".into())
                })?);
            }
            1 => periods.push(get_period(r)?),
            t => return Err(StorageError::Corrupt(format!("unknown period flag {t}"))),
        }
    }
    let mut rows = Vec::with_capacity(n);
    for (payload, tx) in payloads.iter().zip(periods) {
        let (tuple, validity) = decode_payload(payload)?;
        rows.push(BitemporalRow {
            tuple,
            validity,
            tx,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_core::tuple::tuple;

    fn closed(t: Tuple, vs: i64, ve: i64, ts: i64, te: i64) -> BitemporalRow {
        BitemporalRow {
            tuple: t,
            validity: Validity::Interval(Period::new(Chronon::new(vs), Chronon::new(ve)).unwrap()),
            tx: Period::new(Chronon::new(ts), Chronon::new(te)).unwrap(),
        }
    }

    fn chain_rows(name: &str, n: usize) -> Vec<BitemporalRow> {
        (0..n)
            .map(|i| {
                let rank = format!("rank{i}");
                closed(
                    tuple([name, rank.as_str()]),
                    i as i64,
                    i as i64 + 100,
                    i as i64 * 10 + 1,
                    (i as i64 + 1) * 10 + 1,
                )
            })
            .collect()
    }

    fn tmp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("chronos-seg-{tag}-{}.seg", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn round_trips_chains_and_periods() {
        let mut rows = chain_rows("Merrie", 5);
        rows.extend(chain_rows("Tom", 3));
        // A gap in Tom's chain exercises the full-period flag.
        rows.push(closed(tuple(["Tom", "emeritus"]), 50, 60, 200, 300));
        let path = tmp_path("roundtrip");
        let report = write_segment(&path, 7, &rows).unwrap();
        assert_eq!(report.versions, 9);
        assert_eq!(report.chains, 2);
        let seg = Segment::open(&path).unwrap();
        assert_eq!(seg.rel_id(), 7);
        assert_eq!(seg.versions(), 9);
        let mut got = seg.rows().unwrap();
        let key = |r: &BitemporalRow| (format!("{:?}", r.tuple), r.tx.start());
        got.sort_by_key(key);
        let mut want = rows.clone();
        want.sort_by_key(key);
        assert_eq!(got, want);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn skip_paths_range_bloom_and_directory() {
        let rows = chain_rows("Merrie", 4); // tx covers [1, 41)
        let path = tmp_path("skips");
        write_segment(&path, 1, &rows).unwrap();
        let seg = Segment::open(&path).unwrap();
        assert!(seg.covers(Chronon::new(1)));
        assert!(seg.covers(Chronon::new(40)));
        assert!(!seg.covers(Chronon::new(0)));
        assert!(!seg.covers(Chronon::new(41)));
        let merrie = value_key_bytes(&Value::str("Merrie"));
        assert!(seg.may_contain(&merrie));
        assert!(seg.find_chain(&merrie).is_some());
        let ghost = value_key_bytes(&Value::str("Ghost"));
        assert!(seg.find_chain(&ghost).is_none());
        let chain = seg.chain_rows(seg.find_chain(&merrie).unwrap()).unwrap();
        let at_15 = chain.iter().filter(|r| r.tx.contains(Chronon::new(15)));
        assert_eq!(at_15.count(), 1);
        std::fs::remove_file(&path).unwrap();
    }

    /// A version its own commit superseded was never visible; a segment
    /// of nothing else still writes, opens, and covers no instant.
    #[test]
    fn versions_that_never_were_visible_freeze_on_their_own() {
        let rows = [closed(tuple(["Tom", "full"]), 0, 100, 7, 7)];
        let path = tmp_path("neverseen");
        write_segment(&path, 1, &rows).unwrap();
        let seg = Segment::open(&path).unwrap();
        assert!(!seg.covers(Chronon::new(7)));
        assert_eq!(seg.rows().unwrap(), rows);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn open_rows_must_not_freeze() {
        let open_row = BitemporalRow {
            tuple: tuple(["Merrie", "full"]),
            validity: Validity::Interval(Period::ALWAYS),
            tx: Period::from_start(Chronon::new(5)),
        };
        let path = tmp_path("openrow");
        assert!(write_segment(&path, 1, &[open_row]).is_err());
    }

    #[test]
    fn corruption_is_reported_with_an_offset() {
        let rows = chain_rows("Merrie", 3);
        let path = tmp_path("corrupt");
        write_segment(&path, 1, &rows).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Checksum catches a flipped byte mid-body.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let err = check_bytes(&bytes).unwrap_err();
        assert_eq!(err.0, bytes.len() as u64 - 4);
        assert!(err.1.contains("checksum mismatch"), "{}", err.1);
        // Truncation is caught too.
        let whole = std::fs::read(&path).unwrap();
        assert!(check_bytes(&whole[..HEADER_LEN / 2]).is_err());
        // Bad magic names offset 0.
        let mut bad = whole.clone();
        bad[0] = b'X';
        assert_eq!(check_bytes(&bad).unwrap_err().0, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn delta_encoding_stores_near_the_ideal_delta() {
        // 32-version chains of near-identical tuples: the heap pays the
        // full encoding per version, the segment pays ~one delta.
        let mut rows = Vec::new();
        for k in 0..16 {
            rows.extend(chain_rows(&format!("employee-{k:03}"), 32));
        }
        let path = tmp_path("dup");
        write_segment(&path, 1, &rows).unwrap();
        let seg = Segment::open(&path).unwrap();
        let stats = seg.stats();
        assert!(
            stats.dup_factor_x1000 <= 1300,
            "segment dup factor {} should be ≤ 1.3×",
            stats.dup_factor_x1000
        );
        assert!(stats.stored_bytes < stats.logical_bytes / 2);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bloom_false_positive_rate_is_bounded_at_design_load() {
        let rows: Vec<BitemporalRow> = (0..128)
            .map(|k| {
                closed(
                    tuple([format!("key-{k:04}").as_str(), "v"]),
                    0,
                    10,
                    k as i64 + 1,
                    k as i64 + 2,
                )
            })
            .collect();
        let path = tmp_path("bloom");
        write_segment(&path, 1, &rows).unwrap();
        let seg = Segment::open(&path).unwrap();
        let mut fps = 0u32;
        let probes = 5000u32;
        for i in 0..probes {
            let absent = value_key_bytes(&Value::str(format!("absent-{i:05}")));
            if seg.may_contain(&absent) {
                fps += 1;
            }
        }
        let rate_pct = f64::from(fps) * 100.0 / f64::from(probes);
        assert!(rate_pct <= 2.0, "bloom FP rate {rate_pct:.2}% exceeds 2%");
        std::fs::remove_file(&path).unwrap();
    }
}
