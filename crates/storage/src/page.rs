//! Slotted pages.
//!
//! The unit of storage is an 8 KiB [`Page`] with the classic slotted
//! layout: a fixed header, a slot directory growing upward, and record
//! data growing downward from the end of the page.  Deleting a record
//! tombstones its slot; [`Page::compact`] reclaims the dead space.
//!
//! ```text
//! ┌────────────┬───────────────┬─────── free ───────┬───────────────┐
//! │ header 16B │ slot dir →    │                    │   ← record data│
//! └────────────┴───────────────┴────────────────────┴───────────────┘
//! ```

use bytes::{Buf, BufMut, BytesMut};

use crate::error::{StorageError, StorageResult};

/// Size of every page in bytes.
pub const PAGE_SIZE: usize = 8192;
/// Bytes of fixed header at the start of each page.
pub const HEADER_SIZE: usize = 16;
/// Bytes per slot directory entry (offset u16 + len u16).
pub const SLOT_SIZE: usize = 4;
/// Largest record a page can hold.
pub const MAX_RECORD: usize = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE;

/// Identifies a record: page number and slot index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RecordId {
    /// The page holding the record.
    pub page: u32,
    /// The slot within the page.
    pub slot: u16,
}

impl std::fmt::Display for RecordId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.page, self.slot)
    }
}

/// An 8 KiB slotted page.
#[derive(Clone, Debug)]
pub struct Page {
    buf: BytesMut,
}

impl Page {
    /// Creates an empty page with the given page number.
    pub fn new(page_no: u32) -> Page {
        let mut p = Page {
            buf: BytesMut::zeroed(PAGE_SIZE),
        };
        p.set_page_no(page_no);
        p.set_slot_count(0);
        p.set_free_end(PAGE_SIZE as u16);
        p
    }

    /// Wraps raw page bytes read from disk.
    pub fn from_bytes(bytes: BytesMut) -> StorageResult<Page> {
        if bytes.len() != PAGE_SIZE {
            return Err(StorageError::Corrupt(format!(
                "page image of {} bytes, expected {PAGE_SIZE}",
                bytes.len()
            )));
        }
        Ok(Page { buf: bytes })
    }

    /// The raw page image (for writing to disk).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    fn read_u16(&self, off: usize) -> u16 {
        (&self.buf[off..off + 2]).get_u16_le()
    }

    fn write_u16(&mut self, off: usize, v: u16) {
        (&mut self.buf[off..off + 2]).put_u16_le(v);
    }

    fn read_u32(&self, off: usize) -> u32 {
        (&self.buf[off..off + 4]).get_u32_le()
    }

    fn write_u32(&mut self, off: usize, v: u32) {
        (&mut self.buf[off..off + 4]).put_u32_le(v);
    }

    /// The page's own number.
    pub fn page_no(&self) -> u32 {
        self.read_u32(0)
    }

    fn set_page_no(&mut self, v: u32) {
        self.write_u32(0, v);
    }

    /// Number of slots in the directory (live and dead).
    pub fn slot_count(&self) -> u16 {
        self.read_u16(4)
    }

    fn set_slot_count(&mut self, v: u16) {
        self.write_u16(4, v);
    }

    fn free_end(&self) -> u16 {
        self.read_u16(6)
    }

    fn set_free_end(&mut self, v: u16) {
        self.write_u16(6, v);
    }

    /// Tombstoned slots waiting for reuse.  Kept in the header so the
    /// common insert — a page with none — does not scan the directory.
    fn dead_slots(&self) -> u16 {
        self.read_u16(8)
    }

    fn set_dead_slots(&mut self, v: u16) {
        self.write_u16(8, v);
    }

    fn slot_dir_end(&self) -> usize {
        HEADER_SIZE + self.slot_count() as usize * SLOT_SIZE
    }

    fn slot_entry(&self, slot: u16) -> (u16, u16) {
        let off = HEADER_SIZE + slot as usize * SLOT_SIZE;
        (self.read_u16(off), self.read_u16(off + 2))
    }

    fn set_slot_entry(&mut self, slot: u16, offset: u16, len: u16) {
        let off = HEADER_SIZE + slot as usize * SLOT_SIZE;
        self.write_u16(off, offset);
        self.write_u16(off + 2, len);
    }

    /// Bytes available for a new record (including its slot entry).
    pub fn free_space(&self) -> usize {
        self.free_end() as usize - self.slot_dir_end()
    }

    /// True iff a record of `len` bytes fits (reusing a dead slot when
    /// one exists).  O(1): the header counts the dead slots.
    pub fn fits(&self, len: usize) -> bool {
        let slot_cost = if self.dead_slots() > 0 { 0 } else { SLOT_SIZE };
        len + slot_cost <= self.free_space()
    }

    /// The lowest tombstoned slot, if any.
    fn dead_slot(&self) -> Option<u16> {
        if self.dead_slots() == 0 {
            return None;
        }
        (0..self.slot_count()).find(|&s| {
            let (off, len) = self.slot_entry(s);
            off == 0 && len == 0
        })
    }

    /// Inserts a record, returning its slot.
    pub fn insert(&mut self, data: &[u8]) -> StorageResult<u16> {
        if data.len() > MAX_RECORD {
            return Err(StorageError::Corrupt(format!(
                "record of {} bytes exceeds page capacity {MAX_RECORD}",
                data.len()
            )));
        }
        // The slot to reuse is looked up here, not trusted from the
        // header count, so an image whose count disagrees with its
        // directory can never be written past its free space.
        let reused = self.dead_slot();
        let slot_cost = if reused.is_some() { 0 } else { SLOT_SIZE };
        if data.len() + slot_cost > self.free_space() {
            return Err(StorageError::PageFull {
                needed: data.len() + SLOT_SIZE,
                available: self.free_space(),
            });
        }
        // Zero-length records: store at the current free end with len 0
        // but a nonzero offset so the slot is distinguishable from dead.
        let new_end = self.free_end() as usize - data.len();
        self.buf[new_end..new_end + data.len()].copy_from_slice(data);
        self.set_free_end(new_end as u16);
        let slot = match reused {
            Some(s) => {
                self.set_dead_slots(self.dead_slots() - 1);
                s
            }
            None => {
                let s = self.slot_count();
                self.set_slot_count(s + 1);
                s
            }
        };
        self.set_slot_entry(slot, new_end as u16, data.len() as u16);
        Ok(slot)
    }

    /// Reads the record in `slot`.
    pub fn get(&self, slot: u16) -> StorageResult<&[u8]> {
        if slot >= self.slot_count() {
            return Err(StorageError::NoSuchRecord(format!(
                "page {} slot {slot}",
                self.page_no()
            )));
        }
        let (off, len) = self.slot_entry(slot);
        if off == 0 && len == 0 {
            return Err(StorageError::NoSuchRecord(format!(
                "page {} slot {slot} (deleted)",
                self.page_no()
            )));
        }
        Ok(&self.buf[off as usize..off as usize + len as usize])
    }

    /// Deletes the record in `slot` (tombstones the slot; space is
    /// reclaimed by [`compact`](Page::compact)).
    pub fn delete(&mut self, slot: u16) -> StorageResult<()> {
        self.get(slot)?; // validate
        self.set_slot_entry(slot, 0, 0);
        self.set_dead_slots(self.dead_slots() + 1);
        Ok(())
    }

    /// Iterates live `(slot, record)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> {
        (0..self.slot_count()).filter_map(move |s| self.get(s).ok().map(|d| (s, d)))
    }

    /// Number of live records.
    pub fn live_records(&self) -> usize {
        self.iter().count()
    }

    /// Rewrites record data contiguously at the end of the page, in
    /// slot order, reclaiming space from deleted records.  Slot numbers
    /// are stable.  The records are read from one copy of the page
    /// image, since the new layout may overwrite any old position.
    pub fn compact(&mut self) {
        let image: [u8; PAGE_SIZE] = self.buf[..].try_into().expect("a page image");
        let mut end = PAGE_SIZE;
        for slot in 0..self.slot_count() {
            let (off, len) = self.slot_entry(slot);
            if off == 0 && len == 0 {
                continue;
            }
            let (off, len) = (off as usize, len as usize);
            end -= len;
            self.buf[end..end + len].copy_from_slice(&image[off..off + len]);
            self.set_slot_entry(slot, end as u16, len as u16);
        }
        self.set_free_end(end as u16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn insert_get_delete() {
        let mut p = Page::new(7);
        assert_eq!(p.page_no(), 7);
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!").unwrap();
        assert_ne!(a, b);
        assert_eq!(p.get(a).unwrap(), b"hello");
        assert_eq!(p.get(b).unwrap(), b"world!");
        p.delete(a).unwrap();
        assert!(p.get(a).is_err());
        assert!(p.delete(a).is_err());
        assert_eq!(p.live_records(), 1);
    }

    #[test]
    fn dead_slots_are_reused() {
        let mut p = Page::new(0);
        let a = p.insert(b"one").unwrap();
        let _b = p.insert(b"two").unwrap();
        p.delete(a).unwrap();
        assert_eq!(p.dead_slots(), 1);
        let c = p.insert(b"three").unwrap();
        assert_eq!(c, a, "dead slot reused");
        assert_eq!(p.get(c).unwrap(), b"three");
        assert_eq!(p.slot_count(), 2);
        assert_eq!(p.dead_slots(), 0, "and no longer counted");
        let d = p.insert(b"four").unwrap();
        assert_eq!((d, p.slot_count()), (2, 3), "no tombstone left: append");
    }

    #[test]
    fn fills_up_and_reports_page_full() {
        let mut p = Page::new(0);
        let rec = vec![0xABu8; 1000];
        let mut n = 0;
        while p.fits(rec.len()) {
            p.insert(&rec).unwrap();
            n += 1;
        }
        assert!(n >= 8, "should fit at least 8 KB-sized records, got {n}");
        let err = p.insert(&rec);
        assert!(matches!(err, Err(StorageError::PageFull { .. })));
    }

    #[test]
    fn oversized_record_rejected() {
        let mut p = Page::new(0);
        assert!(p.insert(&vec![0u8; MAX_RECORD + 1]).is_err());
    }

    #[test]
    fn compact_reclaims_space() {
        let mut p = Page::new(0);
        let rec = vec![1u8; 1500];
        let slots: Vec<u16> = (0..5).map(|_| p.insert(&rec).unwrap()).collect();
        for &s in &slots[..4] {
            p.delete(s).unwrap();
        }
        let before = p.free_space();
        p.compact();
        assert!(p.free_space() > before + 4 * 1400);
        assert_eq!(p.get(slots[4]).unwrap(), &rec[..]);
        // New inserts go into reclaimed space.
        for _ in 0..4 {
            p.insert(&rec).unwrap();
        }
    }

    #[test]
    fn round_trips_through_bytes() {
        let mut p = Page::new(3);
        let s = p.insert(b"persisted").unwrap();
        let image = BytesMut::from(p.as_bytes());
        let q = Page::from_bytes(image).unwrap();
        assert_eq!(q.page_no(), 3);
        assert_eq!(q.get(s).unwrap(), b"persisted");
        assert!(Page::from_bytes(BytesMut::from(&b"short"[..])).is_err());
    }

    /// The directory-scan definition `fits` had before the header's
    /// dead-slot count was trusted: a tombstone anywhere in the
    /// directory saves the new record its slot entry.
    fn oracle_fits(p: &Page, len: usize) -> bool {
        let tombstone = (0..p.slot_count()).any(|s| p.slot_entry(s) == (0, 0));
        len + if tombstone { 0 } else { SLOT_SIZE } <= p.free_space()
    }

    /// The per-record-copy `compact` the one-copy version replaced.
    fn oracle_compact(p: &mut Page) {
        let live: Vec<(u16, Vec<u8>)> = p.iter().map(|(s, d)| (s, d.to_vec())).collect();
        let mut end = PAGE_SIZE;
        for (slot, data) in &live {
            end -= data.len();
            p.buf[end..end + data.len()].copy_from_slice(data);
            p.set_slot_entry(*slot, end as u16, data.len() as u16);
        }
        p.set_free_end(end as u16);
    }

    /// Compacts `p` both ways and checks the images agree byte for byte.
    fn compact_against_oracle(p: &mut Page) -> Result<(), TestCaseError> {
        let mut want = p.clone();
        oracle_compact(&mut want);
        p.compact();
        prop_assert_eq!(p.as_bytes(), want.as_bytes());
        Ok(())
    }

    #[derive(Clone, Debug)]
    enum PageOp {
        Insert(usize),
        Delete(usize),
        /// Delete and reinsert on the same page, compacting when the
        /// page is full — what `HeapFile::update` does to a page.
        Update(usize, usize),
        Compact,
    }

    fn arb_page_ops() -> impl Strategy<Value = Vec<PageOp>> {
        let op = prop_oneof![
            4 => (0usize..1200).prop_map(PageOp::Insert),
            2 => (0usize..64).prop_map(PageOp::Delete),
            3 => ((0usize..64), (0usize..1200)).prop_map(|(i, n)| PageOp::Update(i, n)),
            1 => Just(PageOp::Compact),
        ];
        prop::collection::vec(op, 1..80)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// `fits` reads the header count yet agrees with the directory
        /// scan, and `compact` lays out the same image as the
        /// per-record copy, over random insert/delete/update/compact
        /// sequences.
        #[test]
        fn fits_and_compact_match_their_oracles(ops in arb_page_ops()) {
            let mut p = Page::new(1);
            for (i, op) in ops.into_iter().enumerate() {
                let fill = [i as u8];
                match op {
                    PageOp::Insert(len) => {
                        let fits = p.fits(len);
                        prop_assert_eq!(p.insert(&fill.repeat(len)).is_ok(), fits);
                    }
                    PageOp::Delete(nth) => {
                        let live: Vec<u16> = p.iter().map(|(s, _)| s).collect();
                        if let Some(&slot) = live.get(nth % live.len().max(1)) {
                            p.delete(slot).unwrap();
                        }
                    }
                    PageOp::Update(nth, len) => {
                        let live: Vec<u16> = p.iter().map(|(s, _)| s).collect();
                        if let Some(&slot) = live.get(nth % live.len().max(1)) {
                            p.delete(slot).unwrap();
                            if !p.fits(len) {
                                compact_against_oracle(&mut p)?;
                            }
                            let fits = p.fits(len);
                            prop_assert_eq!(p.insert(&fill.repeat(len)).is_ok(), fits);
                        }
                    }
                    PageOp::Compact => compact_against_oracle(&mut p)?,
                }
                for len in [0, 1, 100, 1000, 4000, MAX_RECORD] {
                    prop_assert_eq!(p.fits(len), oracle_fits(&p, len), "fits({}) after op {}", len, i);
                }
            }
        }
    }

    #[test]
    fn iter_skips_tombstones() {
        let mut p = Page::new(0);
        let a = p.insert(b"a").unwrap();
        let b = p.insert(b"b").unwrap();
        let c = p.insert(b"c").unwrap();
        p.delete(b).unwrap();
        let live: Vec<u16> = p.iter().map(|(s, _)| s).collect();
        assert_eq!(live, vec![a, c]);
    }
}
