//! Heap files: unordered record storage over pages.
//!
//! A [`HeapFile`] stores variable-length records across the pages of a
//! [`BufferPool`], handing out stable [`RecordId`]s.  Insertion uses a
//! simple last-page-first policy with a scan fallback, which keeps pages
//! dense for the append-mostly workloads of temporal tables.

use crate::error::{StorageError, StorageResult};
use crate::page::{RecordId, MAX_RECORD};
use crate::pager::{BufferPool, PageStore};

/// An unordered file of records.
pub struct HeapFile<S: PageStore> {
    pool: BufferPool<S>,
    /// Page to try first on insert.
    insert_hint: u32,
    records: usize,
}

impl<S: PageStore> HeapFile<S> {
    /// Creates a heap over a fresh or reopened pool, scanning existing
    /// pages to recover the record count.
    pub fn open(pool: BufferPool<S>) -> StorageResult<HeapFile<S>> {
        let mut records = 0usize;
        let n = pool.num_pages();
        for page_no in 0..n {
            records += pool.with_page(page_no, |p| p.live_records())?;
        }
        Ok(HeapFile {
            pool,
            insert_hint: n.saturating_sub(1),
            records,
        })
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.records
    }

    /// True iff the heap holds no records.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// Number of pages allocated.
    pub fn pages(&self) -> u32 {
        self.pool.num_pages()
    }

    /// The underlying pool (for flushing).
    pub fn pool(&self) -> &BufferPool<S> {
        &self.pool
    }

    /// Inserts a record, returning its id.
    pub fn insert(&mut self, data: &[u8]) -> StorageResult<RecordId> {
        if data.len() > MAX_RECORD {
            return Err(StorageError::Corrupt(format!(
                "record of {} bytes exceeds page capacity {MAX_RECORD}",
                data.len()
            )));
        }
        // Try the hint page, then every page in order, then allocate.
        let n = self.pool.num_pages();
        let candidates = std::iter::once(self.insert_hint)
            .chain(0..n)
            .filter(|&p| p < n);
        for page_no in candidates {
            let fits = self.pool.with_page(page_no, |p| p.fits(data.len()))?;
            if fits {
                let slot = self.pool.with_page_mut(page_no, |p| p.insert(data))??;
                self.insert_hint = page_no;
                self.records += 1;
                return Ok(RecordId {
                    page: page_no,
                    slot,
                });
            }
        }
        let page_no = self.pool.allocate()?;
        let slot = self.pool.with_page_mut(page_no, |p| p.insert(data))??;
        self.insert_hint = page_no;
        self.records += 1;
        Ok(RecordId {
            page: page_no,
            slot,
        })
    }

    /// Reads the record at `rid`.
    pub fn get(&self, rid: RecordId) -> StorageResult<Vec<u8>> {
        self.with_record(rid, <[u8]>::to_vec)
    }

    /// Runs `f` on the record at `rid` in place, without copying it out
    /// of its page.
    pub fn with_record<R>(&self, rid: RecordId, f: impl FnOnce(&[u8]) -> R) -> StorageResult<R> {
        self.pool.with_page(rid.page, |p| p.get(rid.slot).map(f))?
    }

    /// Deletes the record at `rid`.
    pub fn delete(&mut self, rid: RecordId) -> StorageResult<()> {
        self.pool
            .with_page_mut(rid.page, |p| p.delete(rid.slot))??;
        self.records -= 1;
        Ok(())
    }

    /// Replaces the record at `rid`, possibly relocating it; returns the
    /// (new) id.
    pub fn update(&mut self, rid: RecordId, data: &[u8]) -> StorageResult<RecordId> {
        // Try in-place replacement within the same page first.
        let replaced = self.pool.with_page_mut(rid.page, |p| {
            p.delete(rid.slot)?;
            match p.insert(data) {
                Ok(slot) => Ok(Some(slot)),
                Err(StorageError::PageFull { .. }) => {
                    p.compact();
                    match p.insert(data) {
                        Ok(slot) => Ok(Some(slot)),
                        Err(StorageError::PageFull { .. }) => Ok(None),
                        Err(e) => Err(e),
                    }
                }
                Err(e) => Err(e),
            }
        })??;
        if let Some(slot) = replaced {
            return Ok(RecordId {
                page: rid.page,
                slot,
            });
        }
        self.records -= 1; // insert() below re-counts it
        self.insert(data)
    }

    /// Visits every live record in page order.
    pub fn scan(&self, mut f: impl FnMut(RecordId, &[u8])) -> StorageResult<()> {
        for page_no in 0..self.pool.num_pages() {
            self.pool.with_page(page_no, |p| {
                for (slot, data) in p.iter() {
                    f(
                        RecordId {
                            page: page_no,
                            slot,
                        },
                        data,
                    );
                }
            })?;
        }
        Ok(())
    }

    /// Collects every live record (convenience over [`scan`](HeapFile::scan)).
    pub fn collect_all(&self) -> StorageResult<Vec<(RecordId, Vec<u8>)>> {
        let mut out = Vec::with_capacity(self.records);
        self.scan(|rid, data| out.push((rid, data.to_vec())))?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::MemPager;

    fn heap() -> HeapFile<MemPager> {
        HeapFile::open(BufferPool::new(MemPager::new(), 4)).unwrap()
    }

    #[test]
    fn insert_get_delete_across_pages() {
        let mut h = heap();
        let rec = vec![7u8; 3000];
        let ids: Vec<RecordId> = (0..10).map(|_| h.insert(&rec).unwrap()).collect();
        assert_eq!(h.len(), 10);
        assert!(h.pages() >= 4, "3 KB records spill across pages");
        for &rid in &ids {
            assert_eq!(h.get(rid).unwrap(), rec);
        }
        h.delete(ids[3]).unwrap();
        assert!(h.get(ids[3]).is_err());
        assert_eq!(h.len(), 9);
    }

    #[test]
    fn scan_visits_everything_once() {
        let mut h = heap();
        let mut expected = Vec::new();
        for i in 0..100u32 {
            let data = i.to_le_bytes().to_vec();
            h.insert(&data).unwrap();
            expected.push(data);
        }
        let mut seen: Vec<Vec<u8>> = h
            .collect_all()
            .unwrap()
            .into_iter()
            .map(|(_, d)| d)
            .collect();
        seen.sort();
        expected.sort();
        assert_eq!(seen, expected);
    }

    #[test]
    fn update_in_place_and_relocating() {
        let mut h = heap();
        let small = vec![1u8; 100];
        let rid = h.insert(&small).unwrap();
        // Same-size update stays on the page.
        let rid2 = h.update(rid, &[2u8; 100]).unwrap();
        assert_eq!(rid2.page, rid.page);
        assert_eq!(h.get(rid2).unwrap(), vec![2u8; 100]);
        // Fill the page, then grow the record so it must relocate.
        while h.pool.with_page(rid2.page, |p| p.fits(3000)).unwrap() {
            h.insert(&vec![9u8; 3000]).unwrap();
        }
        let n_before = h.len();
        let rid3 = h.update(rid2, &vec![3u8; 7000]).unwrap();
        assert_eq!(h.get(rid3).unwrap(), vec![3u8; 7000]);
        assert_eq!(h.len(), n_before);
    }

    #[test]
    fn reopen_recovers_record_count() {
        let mut m = MemPager::new();
        {
            // Build through a first heap, flushing into the pager.
            let pool = BufferPool::new(&mut m, 4);
            let mut h = HeapFile::open(pool).unwrap();
            for i in 0..20u8 {
                h.insert(&[i]).unwrap();
            }
            h.pool().flush().unwrap();
        }
        let h = HeapFile::open(BufferPool::new(&mut m, 4)).unwrap();
        assert_eq!(h.len(), 20);
    }

    #[test]
    fn oversized_record_rejected() {
        let mut h = heap();
        assert!(h.insert(&vec![0u8; MAX_RECORD + 1]).is_err());
        assert_eq!(h.len(), 0);
    }
}
