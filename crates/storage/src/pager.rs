//! Page stores and the buffer pool.
//!
//! A [`PageStore`] owns a linear array of pages.  [`MemPager`] keeps them
//! in memory; [`FilePager`] maps them onto a file with positional I/O;
//! [`BufferPool`] caches a bounded number of frames over any store with
//! LRU eviction and dirty-page write-back.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::path::Path;
use std::sync::Arc;

use bytes::BytesMut;
use chronos_obs::Recorder;
use parking_lot::Mutex;

use crate::error::{StorageError, StorageResult};
use crate::page::{Page, PAGE_SIZE};

/// A linear array of pages with random access.
pub trait PageStore: Send {
    /// Reads page `page_no`.
    fn read_page(&self, page_no: u32) -> StorageResult<Page>;
    /// Writes a page image (the page knows its own number).
    fn write_page(&mut self, page: &Page) -> StorageResult<()>;
    /// Appends a fresh empty page, returning its number.
    fn allocate(&mut self) -> StorageResult<u32>;
    /// Number of pages in the store.
    fn num_pages(&self) -> u32;
    /// Flushes buffered state to durable storage.
    fn sync(&mut self) -> StorageResult<()> {
        Ok(())
    }
}

impl<S: PageStore + ?Sized> PageStore for &mut S {
    fn read_page(&self, page_no: u32) -> StorageResult<Page> {
        (**self).read_page(page_no)
    }
    fn write_page(&mut self, page: &Page) -> StorageResult<()> {
        (**self).write_page(page)
    }
    fn allocate(&mut self) -> StorageResult<u32> {
        (**self).allocate()
    }
    fn num_pages(&self) -> u32 {
        (**self).num_pages()
    }
    fn sync(&mut self) -> StorageResult<()> {
        (**self).sync()
    }
}

/// An in-memory page store.
#[derive(Default)]
pub struct MemPager {
    pages: Vec<BytesMut>,
}

impl MemPager {
    /// Creates an empty in-memory store.
    pub fn new() -> MemPager {
        MemPager::default()
    }
}

impl PageStore for MemPager {
    fn read_page(&self, page_no: u32) -> StorageResult<Page> {
        let bytes = self
            .pages
            .get(page_no as usize)
            .ok_or_else(|| StorageError::NoSuchRecord(format!("page {page_no}")))?;
        Page::from_bytes(bytes.clone())
    }

    fn write_page(&mut self, page: &Page) -> StorageResult<()> {
        let idx = page.page_no() as usize;
        let slot = self
            .pages
            .get_mut(idx)
            .ok_or_else(|| StorageError::NoSuchRecord(format!("page {idx}")))?;
        slot.clear();
        slot.extend_from_slice(page.as_bytes());
        Ok(())
    }

    fn allocate(&mut self) -> StorageResult<u32> {
        let page_no = self.pages.len() as u32;
        self.pages
            .push(BytesMut::from(Page::new(page_no).as_bytes()));
        Ok(page_no)
    }

    fn num_pages(&self) -> u32 {
        self.pages.len() as u32
    }
}

/// A file-backed page store using positional reads and writes.
pub struct FilePager {
    file: File,
    num_pages: u32,
}

impl FilePager {
    /// Opens (creating if necessary) a page file.
    pub fn open(path: &Path) -> StorageResult<FilePager> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        if len % PAGE_SIZE as u64 != 0 {
            return Err(StorageError::Corrupt(format!(
                "page file length {len} is not a multiple of {PAGE_SIZE}"
            )));
        }
        Ok(FilePager {
            file,
            num_pages: (len / PAGE_SIZE as u64) as u32,
        })
    }
}

impl PageStore for FilePager {
    fn read_page(&self, page_no: u32) -> StorageResult<Page> {
        use std::os::unix::fs::FileExt;
        if page_no >= self.num_pages {
            return Err(StorageError::NoSuchRecord(format!("page {page_no}")));
        }
        let mut buf = BytesMut::zeroed(PAGE_SIZE);
        self.file
            .read_exact_at(&mut buf, page_no as u64 * PAGE_SIZE as u64)?;
        Page::from_bytes(buf)
    }

    fn write_page(&mut self, page: &Page) -> StorageResult<()> {
        use std::os::unix::fs::FileExt;
        if page.page_no() >= self.num_pages {
            return Err(StorageError::NoSuchRecord(format!(
                "page {}",
                page.page_no()
            )));
        }
        self.file
            .write_all_at(page.as_bytes(), page.page_no() as u64 * PAGE_SIZE as u64)?;
        Ok(())
    }

    fn allocate(&mut self) -> StorageResult<u32> {
        use std::os::unix::fs::FileExt;
        let page_no = self.num_pages;
        let page = Page::new(page_no);
        self.file
            .write_all_at(page.as_bytes(), page_no as u64 * PAGE_SIZE as u64)?;
        self.num_pages += 1;
        Ok(page_no)
    }

    fn num_pages(&self) -> u32 {
        self.num_pages
    }

    fn sync(&mut self) -> StorageResult<()> {
        self.file.sync_data()?;
        Ok(())
    }
}

struct Frame {
    page: Page,
    dirty: bool,
    /// Monotone touch counter for LRU.
    last_used: u64,
}

struct PoolInner<S: PageStore> {
    store: S,
    frames: HashMap<u32, Frame>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    /// Engine-wide instruments; disabled by default until the owning
    /// table (ultimately the `Database`) hands down a live recorder.
    recorder: Arc<Recorder>,
}

/// An LRU buffer pool over any [`PageStore`].
///
/// Callers read and mutate pages through closures so the pool controls
/// frame lifetime and dirty tracking.
pub struct BufferPool<S: PageStore> {
    inner: Mutex<PoolInner<S>>,
}

impl<S: PageStore> BufferPool<S> {
    /// Creates a pool caching at most `capacity` frames.
    pub fn new(store: S, capacity: usize) -> BufferPool<S> {
        BufferPool {
            inner: Mutex::new(PoolInner {
                store,
                frames: HashMap::new(),
                capacity: capacity.max(1),
                tick: 0,
                hits: 0,
                misses: 0,
                recorder: Arc::new(Recorder::disabled()),
            }),
        }
    }

    /// Routes physical page reads/writes into `recorder`.
    pub fn set_recorder(&self, recorder: Arc<Recorder>) {
        self.inner.lock().recorder = recorder;
    }

    /// Reads page `page_no` through the cache.
    pub fn with_page<R>(&self, page_no: u32, f: impl FnOnce(&Page) -> R) -> StorageResult<R> {
        let mut inner = self.inner.lock();
        inner.touch(page_no)?;
        let frame = inner.frames.get(&page_no).expect("touched frame present");
        Ok(f(&frame.page))
    }

    /// Mutates page `page_no` through the cache, marking it dirty.
    pub fn with_page_mut<R>(
        &self,
        page_no: u32,
        f: impl FnOnce(&mut Page) -> R,
    ) -> StorageResult<R> {
        let mut inner = self.inner.lock();
        inner.touch(page_no)?;
        let frame = inner
            .frames
            .get_mut(&page_no)
            .expect("touched frame present");
        frame.dirty = true;
        Ok(f(&mut frame.page))
    }

    /// Appends a fresh page, returning its number.
    pub fn allocate(&self) -> StorageResult<u32> {
        let mut inner = self.inner.lock();
        inner.store.allocate()
    }

    /// Number of pages in the underlying store.
    pub fn num_pages(&self) -> u32 {
        self.inner.lock().store.num_pages()
    }

    /// Writes back every dirty frame and syncs the store.
    pub fn flush(&self) -> StorageResult<()> {
        let mut inner = self.inner.lock();
        inner.flush_all()?;
        inner.store.sync()
    }

    /// `(hits, misses)` counters, for cache-efficiency assertions.
    pub fn stats(&self) -> (u64, u64) {
        let inner = self.inner.lock();
        (inner.hits, inner.misses)
    }
}

impl<S: PageStore> PoolInner<S> {
    /// Ensures `page_no` is resident, evicting LRU frames as needed.
    fn touch(&mut self, page_no: u32) -> StorageResult<()> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(frame) = self.frames.get_mut(&page_no) {
            frame.last_used = tick;
            self.hits += 1;
            return Ok(());
        }
        self.misses += 1;
        if self.frames.len() >= self.capacity {
            self.evict_one()?;
        }
        self.recorder.count(|m| &m.pager_page_reads);
        let page = self.store.read_page(page_no)?;
        self.frames.insert(
            page_no,
            Frame {
                page,
                dirty: false,
                last_used: tick,
            },
        );
        Ok(())
    }

    fn evict_one(&mut self) -> StorageResult<()> {
        let victim = self
            .frames
            .iter()
            .min_by_key(|(_, f)| f.last_used)
            .map(|(no, _)| *no)
            .expect("eviction only when non-empty");
        let frame = self.frames.remove(&victim).expect("victim present");
        if frame.dirty {
            self.recorder.count(|m| &m.pager_page_writes);
            self.store.write_page(&frame.page)?;
        }
        Ok(())
    }

    fn flush_all(&mut self) -> StorageResult<()> {
        for frame in self.frames.values_mut() {
            if frame.dirty {
                self.recorder.count(|m| &m.pager_page_writes);
                self.store.write_page(&frame.page)?;
                frame.dirty = false;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("chronos-pager-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn mem_pager_round_trip() {
        let mut m = MemPager::new();
        let no = m.allocate().unwrap();
        let mut page = m.read_page(no).unwrap();
        let slot = page.insert(b"hello").unwrap();
        m.write_page(&page).unwrap();
        let again = m.read_page(no).unwrap();
        assert_eq!(again.get(slot).unwrap(), b"hello");
        assert!(m.read_page(99).is_err());
    }

    #[test]
    fn file_pager_persists_across_reopen() {
        let path = temp_path("persist");
        let _ = std::fs::remove_file(&path);
        let slot;
        {
            let mut fp = FilePager::open(&path).unwrap();
            let no = fp.allocate().unwrap();
            assert_eq!(no, 0);
            let mut page = fp.read_page(0).unwrap();
            slot = page.insert(b"durable").unwrap();
            fp.write_page(&page).unwrap();
            fp.sync().unwrap();
        }
        {
            let fp = FilePager::open(&path).unwrap();
            assert_eq!(fp.num_pages(), 1);
            let page = fp.read_page(0).unwrap();
            assert_eq!(page.get(slot).unwrap(), b"durable");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn file_pager_rejects_torn_file() {
        let path = temp_path("torn");
        std::fs::write(&path, vec![0u8; PAGE_SIZE + 100]).unwrap();
        assert!(FilePager::open(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn buffer_pool_caches_and_evicts() {
        let mut m = MemPager::new();
        for _ in 0..6 {
            m.allocate().unwrap();
        }
        let pool = BufferPool::new(m, 2);
        // Touch pages 0 and 1: two misses.
        pool.with_page(0, |_| ()).unwrap();
        pool.with_page(1, |_| ()).unwrap();
        // Re-touch 0: hit.
        pool.with_page(0, |_| ()).unwrap();
        // Touch 2: evicts LRU (page 1).
        pool.with_page(2, |_| ()).unwrap();
        let (hits, misses) = pool.stats();
        assert_eq!((hits, misses), (1, 3));
        // Dirty page survives eviction via write-back.
        let slot = pool
            .with_page_mut(0, |p| p.insert(b"cached").unwrap())
            .unwrap();
        pool.with_page(3, |_| ()).unwrap();
        pool.with_page(4, |_| ()).unwrap(); // page 0 evicted, written back
        let data = pool
            .with_page(0, |p| p.get(slot).map(<[u8]>::to_vec))
            .unwrap()
            .unwrap();
        assert_eq!(data, b"cached");
    }

    #[test]
    fn buffer_pool_flush_persists_to_file() {
        let path = temp_path("flush");
        let _ = std::fs::remove_file(&path);
        {
            let mut fp = FilePager::open(&path).unwrap();
            fp.allocate().unwrap();
            let pool = BufferPool::new(fp, 4);
            pool.with_page_mut(0, |p| p.insert(b"flushed").unwrap())
                .unwrap();
            pool.flush().unwrap();
        }
        let fp = FilePager::open(&path).unwrap();
        let page = fp.read_page(0).unwrap();
        assert_eq!(page.live_records(), 1);
        std::fs::remove_file(&path).unwrap();
    }
}
