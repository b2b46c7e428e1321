//! Hand-written binary encoding for storage.
//!
//! ChronosDB persists tuples, timestamps and rows with a compact,
//! self-describing, length-delimited encoding:
//!
//! * unsigned integers as LEB128 varints;
//! * signed integers zig-zag folded first;
//! * strings and byte blobs length-prefixed;
//! * values, validities and time points tagged with a single type byte;
//! * within one section (a checkpoint file, a WAL frame), a repeated
//!   string as a reference to its first occurrence ([`StrEncoder`]).
//!
//! Integrity is provided by [`crc32`], the standard IEEE CRC-32 used to
//! frame WAL records and page images.  The codec is deliberately written
//! by hand rather than pulling in a serialization crate: a storage
//! engine's on-disk format is part of its contract, and the tests here
//! pin it.

use std::collections::hash_map::{Entry, HashMap};
use std::sync::Arc;

use chronos_core::chronon::Chronon;
use chronos_core::period::Period;
use chronos_core::relation::Validity;
use chronos_core::timepoint::TimePoint;
use chronos_core::tuple::Tuple;
use chronos_core::value::Value;

use crate::error::{StorageError, StorageResult};

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected)
// ---------------------------------------------------------------------

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the bytewise table, and
/// `CRC_TABLES[k][i]` is the CRC of byte `i` followed by `k` zero bytes,
/// so one step folds eight input bytes with eight lookups.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// IEEE CRC-32 of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let at = |table: &[u32; 256], word: u32, shift: u32| table[((word >> shift) & 0xFF) as usize];
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = at(&t[7], lo, 0)
            ^ at(&t[6], lo, 8)
            ^ at(&t[5], lo, 16)
            ^ at(&t[4], lo, 24)
            ^ at(&t[3], hi, 0)
            ^ at(&t[2], hi, 8)
            ^ at(&t[1], hi, 16)
            ^ at(&t[0], hi, 24);
    }
    for &b in chunks.remainder() {
        c = at(&t[0], c ^ u32::from(b), 0) ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Primitive writers / readers
// ---------------------------------------------------------------------

/// Appends a LEB128 varint.
pub fn put_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Appends a zig-zag folded signed varint.
pub fn put_ivarint(buf: &mut Vec<u8>, v: i64) {
    put_uvarint(buf, ((v << 1) ^ (v >> 63)) as u64);
}

/// Appends a length-prefixed byte blob.
pub fn put_bytes(buf: &mut Vec<u8>, data: &[u8]) {
    put_uvarint(buf, data.len() as u64);
    buf.extend_from_slice(data);
}

/// A cursor over encoded bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when fully consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn corrupt(&self, what: &str) -> StorageError {
        StorageError::Corrupt(format!("{what} at offset {}", self.pos))
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> StorageResult<u8> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| self.corrupt("unexpected end"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a LEB128 varint.
    pub fn get_uvarint(&mut self) -> StorageResult<u64> {
        let mut shift = 0u32;
        let mut v = 0u64;
        loop {
            let b = self.get_u8()?;
            if shift >= 64 {
                return Err(self.corrupt("varint overflow"));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a zig-zag folded signed varint.
    pub fn get_ivarint(&mut self) -> StorageResult<i64> {
        let u = self.get_uvarint()?;
        Ok(((u >> 1) as i64) ^ -((u & 1) as i64))
    }

    /// Advances past `n` bytes without interpreting them.
    pub fn skip(&mut self, n: usize) -> StorageResult<()> {
        if self.remaining() < n {
            return Err(self.corrupt("skip overruns buffer"));
        }
        self.pos += n;
        Ok(())
    }

    /// Reads a length-prefixed byte blob.
    pub fn get_bytes(&mut self) -> StorageResult<&'a [u8]> {
        let len = self.get_uvarint()? as usize;
        if self.remaining() < len {
            return Err(self.corrupt("blob overruns buffer"));
        }
        let out = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> StorageResult<&'a str> {
        let bytes = self.get_bytes()?;
        std::str::from_utf8(bytes)
            .map_err(|_| StorageError::Corrupt("invalid utf-8 in string".into()))
    }
}

// ---------------------------------------------------------------------
// Domain encoders
// ---------------------------------------------------------------------

const TAG_STR: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_BOOL: u8 = 3;
const TAG_DATE: u8 = 4;
/// A string already written in the same section, by the index of its
/// first occurrence (see [`StrEncoder`]).
const TAG_STR_REF: u8 = 5;

/// Encodes a single value.
pub fn put_value(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Str(s) => {
            buf.push(TAG_STR);
            put_bytes(buf, s.as_bytes());
        }
        Value::Int(i) => {
            buf.push(TAG_INT);
            put_ivarint(buf, *i);
        }
        Value::Float(x) => {
            buf.push(TAG_FLOAT);
            buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Bool(b) => {
            buf.push(TAG_BOOL);
            buf.push(u8::from(*b));
        }
        Value::Date(c) => {
            buf.push(TAG_DATE);
            put_ivarint(buf, c.ticks());
        }
    }
}

/// Decodes a single value.
pub fn get_value(r: &mut Reader<'_>) -> StorageResult<Value> {
    let tag = r.get_u8()?;
    value_after_tag(tag, r)
}

fn value_after_tag(tag: u8, r: &mut Reader<'_>) -> StorageResult<Value> {
    match tag {
        TAG_STR => Ok(Value::str(r.get_str()?)),
        TAG_INT => Ok(Value::Int(r.get_ivarint()?)),
        TAG_FLOAT => {
            let mut b = [0u8; 8];
            for slot in &mut b {
                *slot = r.get_u8()?;
            }
            Ok(Value::Float(f64::from_bits(u64::from_le_bytes(b))))
        }
        TAG_BOOL => Ok(Value::Bool(r.get_u8()? != 0)),
        TAG_DATE => Ok(Value::Date(Chronon::new(r.get_ivarint()?))),
        t => Err(StorageError::Corrupt(format!("unknown value tag {t}"))),
    }
}

/// Encodes a tuple (arity-prefixed).
pub fn put_tuple(buf: &mut Vec<u8>, t: &Tuple) {
    put_uvarint(buf, t.arity() as u64);
    for v in t.values() {
        put_value(buf, v);
    }
}

/// Reads a tuple's arity and a vector for its values, reserved by what
/// the bytes left can hold (every value takes at least two), not by
/// the untrusted count.
fn tuple_header(r: &mut Reader<'_>) -> StorageResult<(usize, Vec<Value>)> {
    let n = r.get_uvarint()? as usize;
    if n > 1 << 20 {
        return Err(StorageError::Corrupt(format!("implausible arity {n}")));
    }
    Ok((n, Vec::with_capacity(n.min(r.remaining() / 2))))
}

/// Decodes a tuple.
pub fn get_tuple(r: &mut Reader<'_>) -> StorageResult<Tuple> {
    let (n, mut vals) = tuple_header(r)?;
    for _ in 0..n {
        vals.push(get_value(r)?);
    }
    Ok(Tuple::new(vals))
}

/// Writes the tuples of one *section* — a whole checkpoint file, or one
/// WAL frame — with each distinct string in full once: its first
/// occurrence is encoded as by [`put_tuple`], and every later one as
/// `TAG_STR_REF` plus the index of the first (strings are numbered in
/// the order they are first written).  A section with no repeated
/// string is byte for byte the [`put_tuple`] encoding.
#[derive(Debug, Default)]
pub struct StrEncoder<'a> {
    index: HashMap<&'a str, u64>,
}

impl<'a> StrEncoder<'a> {
    /// Encodes `t` into the section.
    pub fn put_tuple(&mut self, buf: &mut Vec<u8>, t: &'a Tuple) {
        put_uvarint(buf, t.arity() as u64);
        for v in t.values() {
            let Value::Str(s) = v else {
                put_value(buf, v);
                continue;
            };
            let next = self.index.len() as u64;
            match self.index.entry(s) {
                Entry::Occupied(first) => {
                    buf.push(TAG_STR_REF);
                    put_uvarint(buf, *first.get());
                }
                Entry::Vacant(slot) => {
                    slot.insert(next);
                    put_value(buf, v);
                }
            }
        }
    }
}

/// Reads the tuples of one section written by a [`StrEncoder`]: every
/// distinct string becomes one `Arc<str>` that each tuple naming it
/// shares.  A reference to a string not yet defined is
/// [`StorageError::Corrupt`].
#[derive(Debug, Default)]
pub struct StrDecoder {
    strings: Vec<Arc<str>>,
}

impl StrDecoder {
    /// Decodes the section's next tuple.
    pub fn get_tuple(&mut self, r: &mut Reader<'_>) -> StorageResult<Tuple> {
        let (n, mut vals) = tuple_header(r)?;
        for _ in 0..n {
            vals.push(match r.get_u8()? {
                TAG_STR => {
                    let s: Arc<str> = Arc::from(r.get_str()?);
                    self.strings.push(Arc::clone(&s));
                    Value::Str(s)
                }
                TAG_STR_REF => {
                    let i = r.get_uvarint()?;
                    let s = usize::try_from(i).ok().and_then(|i| self.strings.get(i));
                    Value::Str(Arc::clone(s.ok_or_else(|| {
                        r.corrupt(&format!("string {i} referenced before it is defined"))
                    })?))
                }
                tag => value_after_tag(tag, r)?,
            });
        }
        Ok(Tuple::new(vals))
    }
}

const TP_MINUS_INF: u8 = 0;
const TP_FINITE: u8 = 1;
const TP_PLUS_INF: u8 = 2;

/// Encodes a time point.
pub fn put_timepoint(buf: &mut Vec<u8>, p: TimePoint) {
    match p {
        TimePoint::MinusInfinity => buf.push(TP_MINUS_INF),
        TimePoint::Finite(c) => {
            buf.push(TP_FINITE);
            put_ivarint(buf, c.ticks());
        }
        TimePoint::PlusInfinity => buf.push(TP_PLUS_INF),
    }
}

/// Decodes a time point.
pub fn get_timepoint(r: &mut Reader<'_>) -> StorageResult<TimePoint> {
    match r.get_u8()? {
        TP_MINUS_INF => Ok(TimePoint::MinusInfinity),
        TP_FINITE => Ok(TimePoint::Finite(Chronon::new(r.get_ivarint()?))),
        TP_PLUS_INF => Ok(TimePoint::PlusInfinity),
        t => Err(StorageError::Corrupt(format!("unknown timepoint tag {t}"))),
    }
}

/// Encodes a period.
pub fn put_period(buf: &mut Vec<u8>, p: Period) {
    put_timepoint(buf, p.start());
    put_timepoint(buf, p.end());
}

/// Decodes a period.
pub fn get_period(r: &mut Reader<'_>) -> StorageResult<Period> {
    let start = get_timepoint(r)?;
    let end = get_timepoint(r)?;
    Period::new(start, end)
        .ok_or_else(|| StorageError::Corrupt(format!("backwards period [{start}, {end})")))
}

const VAL_INTERVAL: u8 = 0;
const VAL_EVENT: u8 = 1;

/// Encodes a validity stamp.
pub fn put_validity(buf: &mut Vec<u8>, v: Validity) {
    match v {
        Validity::Interval(p) => {
            buf.push(VAL_INTERVAL);
            put_period(buf, p);
        }
        Validity::Event(c) => {
            buf.push(VAL_EVENT);
            put_ivarint(buf, c.ticks());
        }
    }
}

/// Decodes a validity stamp.
pub fn get_validity(r: &mut Reader<'_>) -> StorageResult<Validity> {
    match r.get_u8()? {
        VAL_INTERVAL => Ok(Validity::Interval(get_period(r)?)),
        VAL_EVENT => Ok(Validity::Event(Chronon::new(r.get_ivarint()?))),
        t => Err(StorageError::Corrupt(format!("unknown validity tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronos_core::tuple::tuple;

    #[test]
    fn crc32_known_vectors() {
        // Standard test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"chronos"), crc32(b"chronoS"));
    }

    /// Slicing-by-8 folds eight bytes at a time; every length and
    /// alignment agrees with the bytewise definition.
    #[test]
    fn crc32_agrees_with_the_bytewise_definition() {
        let bytewise = |data: &[u8]| {
            let mut c = 0xFFFF_FFFFu32;
            for &b in data {
                c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
            }
            c ^ 0xFFFF_FFFF
        };
        let data: Vec<u8> = (0..300u32).map(|i| (i * 131 + 7) as u8).collect();
        for from in 0..9 {
            for to in from..data.len() {
                assert_eq!(crc32(&data[from..to]), bytewise(&data[from..to]));
            }
        }
    }

    #[test]
    fn a_section_writes_each_string_once_and_shares_it_on_decode() {
        let tuples = [
            tuple(["Merrie", "full"]),
            tuple(["Tom", "full"]),
            tuple(["Merrie", "Tom"]),
        ];
        let mut buf = Vec::new();
        let mut enc = StrEncoder::default();
        for t in &tuples {
            enc.put_tuple(&mut buf, t);
        }
        // `Merrie`, `full` and `Tom` are strings 0, 1 and 2.
        let lit = |s: &str| [&[TAG_STR, s.len() as u8][..], s.as_bytes()].concat();
        let want = [
            vec![2],
            lit("Merrie"),
            lit("full"),
            vec![2],
            lit("Tom"),
            vec![TAG_STR_REF, 1],
            vec![2, TAG_STR_REF, 0, TAG_STR_REF, 2],
        ]
        .concat();
        assert_eq!(buf, want);
        let mut r = Reader::new(&buf);
        let mut dec = StrDecoder::default();
        let got: Vec<Tuple> = (0..3).map(|_| dec.get_tuple(&mut r).unwrap()).collect();
        assert!(r.is_exhausted());
        assert_eq!(got, tuples);
        let (Value::Str(a), Value::Str(b)) = (got[0].get(0), got[2].get(0)) else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(a, b), "one Arc per distinct string");
    }

    #[test]
    fn a_reference_before_its_definition_is_corrupt() {
        // One string defined (index 0), then references to 0 and 1.
        let bytes = [2, TAG_STR, 1, b'a', TAG_STR_REF, 0];
        let mut dec = StrDecoder::default();
        assert_eq!(
            dec.get_tuple(&mut Reader::new(&bytes)).unwrap(),
            tuple(["a", "a"])
        );
        for bytes in [&[1, TAG_STR_REF, 1][..], &[2, TAG_STR, 0, TAG_STR_REF, 1]] {
            let err = StrDecoder::default()
                .get_tuple(&mut Reader::new(bytes))
                .unwrap_err();
            assert!(matches!(err, StorageError::Corrupt(_)), "{err}");
            assert!(err.to_string().contains("before it is defined"), "{err}");
        }
        // Outside a section a reference is just an unknown tag.
        assert!(get_tuple(&mut Reader::new(&[1, TAG_STR_REF, 0])).is_err());
    }

    #[test]
    fn varint_round_trips() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.get_uvarint().unwrap(), v);
            assert!(r.is_exhausted());
        }
        for v in [0i64, -1, 1, -64, 64, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            put_ivarint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.get_ivarint().unwrap(), v);
        }
    }

    #[test]
    fn value_round_trips() {
        let values = [
            Value::str("Merrie"),
            Value::str(""),
            Value::Int(-42),
            Value::Float(3.5),
            Value::Float(f64::NEG_INFINITY),
            Value::Bool(true),
            Value::Date(Chronon::new(4712)),
        ];
        for v in &values {
            let mut buf = Vec::new();
            put_value(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(&get_value(&mut r).unwrap(), v);
            assert!(r.is_exhausted());
        }
    }

    #[test]
    fn tuple_round_trips() {
        let t = tuple(["Merrie", "full"]);
        let mut buf = Vec::new();
        put_tuple(&mut buf, &t);
        let mut r = Reader::new(&buf);
        assert_eq!(get_tuple(&mut r).unwrap(), t);
    }

    #[test]
    fn period_and_validity_round_trip() {
        let p = Period::new(Chronon::new(3), Chronon::new(9)).unwrap();
        let open = Period::from_start(Chronon::new(3));
        for per in [p, open, Period::ALWAYS] {
            let mut buf = Vec::new();
            put_period(&mut buf, per);
            let mut r = Reader::new(&buf);
            assert_eq!(get_period(&mut r).unwrap(), per);
        }
        for v in [Validity::Interval(p), Validity::Event(Chronon::new(7))] {
            let mut buf = Vec::new();
            put_validity(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(get_validity(&mut r).unwrap(), v);
        }
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let t = tuple(["Merrie", "full"]);
        let mut buf = Vec::new();
        put_tuple(&mut buf, &t);
        for cut in 0..buf.len() {
            let mut r = Reader::new(&buf[..cut]);
            assert!(get_tuple(&mut r).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn unknown_tags_rejected() {
        let mut r = Reader::new(&[200]);
        assert!(get_value(&mut r).is_err());
        let mut r = Reader::new(&[9]);
        assert!(get_timepoint(&mut r).is_err());
    }

    #[test]
    fn backwards_period_rejected() {
        let mut buf = Vec::new();
        put_timepoint(&mut buf, TimePoint::at(Chronon::new(9)));
        put_timepoint(&mut buf, TimePoint::at(Chronon::new(3)));
        let mut r = Reader::new(&buf);
        assert!(get_period(&mut r).is_err());
    }
}
