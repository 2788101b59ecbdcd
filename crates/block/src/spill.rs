//! The spill tier: the one owner of bytes that leave process memory.
//!
//! A [`SpillTier`] is a [`PageCache`] and an [`ExtentAllocator`] behind
//! one leaf mutex. It hands out [`Extent`]s, contiguous sector runs shared
//! by `Arc`, whose written bytes are never rewritten while a handle lives:
//! an extent only grows at its unused tail ([`Extent::append`]). So any
//! number of copies of a file or a table may share an extent, and none of
//! them frees it: the last handle's drop discards the extent's pages from
//! the cache, without write-back, and returns its sectors to the
//! allocator. The VFS spill tier and the sqldb row heap both sit on it.
//!
//! Lock order: callers may hold their own locks (store shards, a provider
//! mutex) when they call in; nothing is taken under the tier mutex. An
//! extent's `Drop` takes that mutex, so no handle may drop while it is
//! held. The tier never lends its guard out and runs no caller code under
//! it but a plain `fn` decoder ([`Extent::decode`]), which captures
//! nothing and so can drop no handle; everything else copies bytes in or
//! out under the lock.

use crate::{BlockDevice, BlockResult, CacheStats, ExtentAllocator, PageCache};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A shared page cache and sector allocator that extents are carved from.
/// Cloning is a handle copy.
#[derive(Clone, Debug)]
pub struct SpillTier(Arc<Shared>);

struct Shared {
    tier: Mutex<Tier>,
    page_size: usize,
}

impl Shared {
    /// Locks the tier. A panic under the lock is a bug in this crate
    /// (every bounds check runs before the first change), so a poisoned
    /// lock is taken over rather than failing every later call and drop.
    fn lock(&self) -> MutexGuard<'_, Tier> {
        self.tier.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

struct Tier {
    cache: PageCache,
    alloc: ExtentAllocator,
}

impl Tier {
    /// Writes `bytes` at device byte `at`. Every byte from `at` to the end
    /// of the extent is unused, so a page the write starts at its first
    /// byte is fresh: it skips the device read and reads back zero past
    /// the bytes written.
    fn put(&mut self, at: u64, bytes: &[u8]) -> BlockResult<()> {
        let ps = self.cache.page_size();
        let mut done = 0;
        while done < bytes.len() {
            let abs = at + done as u64;
            let (sector, within) = (abs / ps as u64, (abs % ps as u64) as usize);
            let chunk = &bytes[done..done + (ps - within).min(bytes.len() - done)];
            if within == 0 {
                self.cache.write_padded(sector, chunk)?;
            } else {
                self.cache
                    .write(sector, |p| p[within..within + chunk.len()].copy_from_slice(chunk))?;
            }
            done += chunk.len();
        }
        Ok(())
    }

    /// Forgets a run's cached pages and returns its sectors.
    fn release(&mut self, start: u64, sectors: u64) {
        for s in start..start + sectors {
            self.cache.discard(s);
        }
        self.alloc.free_run(start, sectors);
    }
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpillTier").field("page_size", &self.page_size).finish_non_exhaustive()
    }
}

impl SpillTier {
    /// A tier over `dev` keeping at most `pages` pages resident.
    pub fn new(dev: Box<dyn BlockDevice>, pages: usize) -> Self {
        let cache = PageCache::new(dev, pages);
        let page_size = cache.page_size();
        let tier = Tier { cache, alloc: ExtentAllocator::new() };
        SpillTier(Arc::new(Shared { tier: Mutex::new(tier), page_size }))
    }

    /// Cache counters (hits, misses, evictions, promotions, ...).
    pub fn stats(&self) -> CacheStats {
        self.0.lock().cache.stats()
    }

    /// The cache's fixed memory bound in bytes.
    pub fn budget_bytes(&self) -> usize {
        self.0.lock().cache.budget_bytes()
    }

    /// The allocator's free runs, ascending, as `(start, len)` pairs.
    pub fn free_runs(&self) -> Vec<(u64, u64)> {
        self.0.lock().alloc.free_runs()
    }

    /// The first sector never handed out.
    pub fn next_sector(&self) -> u64 {
        self.0.lock().alloc.next_sector()
    }

    /// Writes `bytes` into a fresh extent of whole pages (at least one):
    /// one contiguous run, the first free one that fits.
    pub fn store(&self, bytes: &[u8]) -> BlockResult<Arc<Extent>> {
        let ps = self.0.page_size;
        let sectors = bytes.len().div_ceil(ps).max(1) as u64;
        let start = {
            let mut t = self.0.lock();
            let start = t.alloc.alloc_contiguous(sectors);
            if let Err(e) = t.put(start * ps as u64, bytes) {
                t.release(start, sectors);
                return Err(e);
            }
            start
        };
        let used = AtomicU64::new(bytes.len() as u64);
        Ok(Arc::new(Extent { tier: Arc::clone(&self.0), start, sectors, used }))
    }
}

/// A contiguous run of sectors on a [`SpillTier`], freed when its last
/// handle drops. Its written bytes never change; [`Extent::append`] only
/// writes past them.
#[derive(Debug)]
pub struct Extent {
    tier: Arc<Shared>,
    start: u64,
    sectors: u64,
    /// Bytes written so far. It only grows, under the tier mutex; whoever
    /// holds a handle or an offset learned of it after the write that
    /// made it, so even a relaxed load sees at least that many bytes.
    used: AtomicU64,
}

impl Extent {
    /// The run's length in sectors.
    pub fn sectors(&self) -> u64 {
        self.sectors
    }

    /// Bytes written so far.
    pub fn written(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }

    /// The tier's page size in bytes.
    pub fn page_size(&self) -> usize {
        self.tier.page_size
    }

    /// Device byte of extent offset `off`, after checking that `len`
    /// bytes from there were written. Called under the tier mutex.
    fn at(&self, off: u64, len: usize) -> u64 {
        assert!(
            off + len as u64 <= self.used.load(Ordering::Relaxed),
            "read past the written bytes of {self:?}"
        );
        self.start * self.tier.page_size as u64 + off
    }

    /// Writes `bytes` just past the bytes written so far and returns their
    /// offset, or `None` (writing nothing) when the run has no room left.
    pub fn append(&self, bytes: &[u8]) -> BlockResult<Option<u64>> {
        let mut t = self.tier.lock();
        let off = self.used.load(Ordering::Relaxed);
        let end = off + bytes.len() as u64;
        if end > self.sectors * self.tier.page_size as u64 {
            return Ok(None);
        }
        t.put(self.start * self.tier.page_size as u64 + off, bytes)?;
        self.used.store(end, Ordering::Relaxed);
        Ok(Some(off))
    }

    /// Copies `out.len()` written bytes from offset `off` into `out`.
    pub fn read(&self, off: u64, out: &mut [u8]) -> BlockResult<()> {
        let mut t = self.tier.lock();
        let at = self.at(off, out.len());
        t.cache.read_bytes(at, out)
    }

    /// Runs `f` over `len` written bytes from offset `off`. Bytes within
    /// one page are lent from the pinned cache frame, uncopied; a range
    /// across pages is copied out first.
    pub fn decode<R>(&self, off: u64, len: usize, f: fn(&[u8]) -> R) -> BlockResult<R> {
        let ps = self.tier.page_size;
        let mut t = self.tier.lock();
        let at = self.at(off, len);
        let within = at as usize % ps;
        if within + len <= ps {
            let page = t.cache.read(at / ps as u64)?;
            return Ok(f(&page[within..within + len]));
        }
        let mut buf = vec![0u8; len];
        t.cache.read_bytes(at, &mut buf)?;
        drop(t);
        Ok(f(&buf))
    }
}

impl Drop for Extent {
    fn drop(&mut self) {
        self.tier.lock().release(self.start, self.sectors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDevice;

    fn tier(pages: usize) -> SpillTier {
        SpillTier::new(Box::new(MemDevice::with_sector_size(64)), pages)
    }

    fn bytes(e: &Extent, len: usize) -> Vec<u8> {
        let mut out = vec![0; len];
        e.read(0, &mut out).unwrap();
        out
    }

    #[test]
    fn the_last_drop_frees_exactly_the_extents_sectors() {
        let t = tier(2);
        let a = t.store(&[1; 100]).unwrap(); // 2 sectors
        let b = t.store(&[2; 200]).unwrap(); // 4 sectors
        let c = t.store(&[3; 10]).unwrap(); // 1 sector
        assert_eq!((a.start, b.start, c.start), (0, 2, 6));
        drop(b);
        assert_eq!(t.free_runs(), vec![(2, 4)], "only b's run is free");
        drop(a);
        assert_eq!(t.free_runs(), vec![(0, 6)], "a's run coalesces with b's");
        drop(c);
        assert_eq!(t.free_runs(), vec![(0, 7)]);
        assert_eq!(t.next_sector(), 7, "frees never move the high-water mark");
    }

    #[test]
    fn a_drop_on_another_thread_frees_the_sectors() {
        let t = tier(2);
        let e = t.store(&[7; 150]).unwrap();
        std::thread::spawn(move || drop(e)).join().unwrap();
        assert_eq!(t.free_runs(), vec![(0, 3)]);
    }

    #[test]
    fn sectors_are_handed_out_again_only_after_every_clone_drops() {
        let t = tier(2);
        let e = t.store(&[5; 64]).unwrap();
        let clones = [Arc::clone(&e), Arc::clone(&e)];
        drop(e);
        let next = t.store(&[6; 64]).unwrap();
        assert_eq!(next.start, 1, "a shared extent's sector is still taken");
        drop(clones);
        assert_eq!(t.store(&[6; 64]).unwrap().start, 0, "the freed sector is reused");
        assert_eq!(t.next_sector(), 2);
    }

    #[test]
    fn an_append_into_a_shared_page_changes_no_byte_another_handle_reads() {
        let t = tier(1); // one frame: every access below evicts another
        let page = t.store(b"first").unwrap();
        let other = Arc::clone(&page);
        let _evict = t.store(&[9; 64]).unwrap();
        assert_eq!(page.append(b"second").unwrap(), Some(5));
        assert_eq!(other.append(b"third").unwrap(), Some(11), "a clone appends past both");
        assert_eq!(bytes(&other, 5), b"first");
        assert_eq!(bytes(&page, 16), b"firstsecondthird");
        // A full page takes nothing and keeps what it holds.
        assert_eq!(page.append(&[0; 60]).unwrap(), None);
        assert_eq!(page.decode(5, 6, |b| b.to_vec()).unwrap(), b"second");
    }

    #[test]
    fn a_range_across_pages_decodes_from_a_copy() {
        let t = tier(2);
        let data: Vec<u8> = (0..200).map(|i| i as u8).collect();
        let e = t.store(&data).unwrap();
        assert_eq!(e.decode(60, 10, |b| b.to_vec()).unwrap(), &data[60..70]);
        assert_eq!(bytes(&e, 200), data);
        // An append fills the last page's tail.
        assert_eq!(e.append(&[1]).unwrap(), Some(200));
        let mut tail = [9u8; 1];
        e.read(200, &mut tail).unwrap();
        assert_eq!(tail, [1]);
    }

    #[test]
    #[should_panic(expected = "read past the written bytes")]
    fn a_read_past_the_written_bytes_panics() {
        let t = tier(2);
        let e = t.store(&[1; 10]).unwrap();
        let mut out = [0u8; 11];
        let _ = e.read(0, &mut out);
    }
}
