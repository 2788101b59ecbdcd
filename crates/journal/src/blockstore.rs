//! Block-backed log storage: the WAL on a [`maxoid_block::BlockDevice`]
//! behind a page cache, so the journal can outgrow process memory and a
//! system can cold-boot from a file.
//!
//! On-device layout:
//!
//! ```text
//! sector 0          sector 1          sector 2 ...
//! +-----------------+-----------------+-----------------------------------+
//! | superblock A    | superblock B    | data area                         |
//! | magic    (8 B)  | magic    (8 B)  |   ... | live log | ...            |
//! | gen      u64    | gen      u64    |         ^ byte `start` of the     |
//! | start    u64    | start    u64    |           area, `len` bytes long  |
//! | len      u64    | len      u64    | (frame stream, exactly as         |
//! | move_src u64    | move_src u64    |  MemStorage would hold it)        |
//! | move_at  u64    | move_at  u64    |                                   |
//! | crc      u32    | crc      u32    |                                   |
//! +-----------------+-----------------+-----------------------------------+
//! ```
//!
//! The superblock names where the durable log lives: `start` (a byte
//! offset into the data area, sector-aligned) and `len`. `append` writes
//! the new bytes at `start + len` through the cache, issues the flush
//! barrier, then commits the superblock and issues a second barrier — so
//! `len` never points past data that reached the device. A crash between
//! the two barriers leaves the old `len`: the new bytes exist on the
//! device but were never acknowledged, exactly the "lost tail" a torn
//! append models.
//!
//! `replace_from` is streamed: the caller announces the new tail's length
//! and writes it in pieces, which go straight through the cache to the
//! device, beside the live log, as they arrive.
//!
//! `replace_from(0, ..)` (a whole rewrite) writes the new log *beside*
//! the live one: at the front of the data area if it ends before the live
//! log's first sector, otherwise from the first sector past the live
//! log's end. After a flush barrier, one superblock commit names the new
//! `start` and `len`. No sector of the live log is written before that
//! commit, so a crash leaves the old log (the commit never landed) or the
//! new one, never a mix. The new log only goes past the live one when it
//! is longer than the gap in front of it, so a log never starts more than
//! about twice the largest log into the data area, and the area stays
//! under about three times the largest log.
//!
//! `replace_from(keep, ..)` with `keep > 0` (a checkpoint keeping its
//! retained prefix) *splices*: it writes the tail beside the log, from the
//! first sector past both the live log's end and `start + keep + n` (`n`
//! the announced tail length) — so it overlaps neither the live log nor
//! its own in-place target — then, after a flush barrier, commits a
//! superblock naming the new `len` and a **move** (`move_src` = where the
//! tail was written, `move_at` = `keep`): "the log's bytes from `move_at`
//! on are at `move_src`". That commit makes the new log durable. Only then
//! is the tail copied in place at `start + keep`, one window at a time
//! from beside the log, flushed, and a superblock without the move
//! committed (`move_src` = `u64::MAX`). Reads serve the tail from
//! `move_src` until the move is done, and `append`, `replace_from` and
//! `open` finish a pending move first, through the same window; the copy
//! is idempotent, so a cut anywhere reopens as the old log or the whole
//! new one. A checkpoint thus writes about twice its tail, never the
//! prefix.
//!
//! Superblock commits alternate between **two slots** (generation `g`
//! lands in sector `g % 2`), so the commit never overwrites the slot it
//! would fall back to: a torn write during commit `g+1` can only damage
//! the slot holding stale generation `g-1`, and reopen still finds the
//! acked state `g`. This is the page-level analogue of the WAL's own
//! no-overwrite discipline — an in-place single-slot superblock would
//! make every commit a bet that sector writes are atomic.
//!
//! Open takes the valid slot with the highest generation. A non-empty
//! device where *no* slot validates (bad magic, CRC failure, a log past
//! the device end) is reported loudly rather than treated as an empty
//! log — shortened history must never be silent.

use crate::replay::SCAN_WINDOW;
use crate::wal::{Fill, Replacement, Storage, Tail};
use crate::{JournalError, JournalResult};
use maxoid_block::{BlockDevice, BlockError, PageCache};

/// Magic opening the superblock sector.
pub const SUPERBLOCK_MAGIC: [u8; 8] = *b"MXBLKSB\0";

/// Size of the meaningful superblock prefix: magic + gen + start + len +
/// move_src + move_at + crc.
const SUPERBLOCK_LEN: usize = 8 + 8 + 8 + 8 + 8 + 8 + 4;

/// `move_src` of a superblock with no pending move.
const NO_MOVE: u64 = u64::MAX;

/// A splice's pending move: the log's bytes from `at` on are still at
/// data-area offset `src`, not in place at `start + at`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Move {
    src: u64,
    at: u64,
}

/// Encodes a superblock: the magic, `gen`, `start`, `len`, the move's
/// `src` and `at` (`NO_MOVE`, 0 without one), and the CRC of all of it.
fn encode_superblock(gen: u64, start: u64, len: u64, moving: Option<Move>) -> Vec<u8> {
    let (src, at) = moving.map_or((NO_MOVE, 0), |m| (m.src, m.at));
    let mut sb = Vec::with_capacity(SUPERBLOCK_LEN);
    sb.extend_from_slice(&SUPERBLOCK_MAGIC);
    for field in [gen, start, len, src, at] {
        sb.extend_from_slice(&field.to_le_bytes());
    }
    let crc = crate::codec::crc32(&sb);
    sb.extend_from_slice(&crc.to_le_bytes());
    sb
}

/// Parses one superblock slot into `(gen, start, len, move)`; `None` if
/// the slot doesn't validate.
fn parse_slot(sb: &[u8]) -> Option<(u64, u64, u64, Option<Move>)> {
    let body = SUPERBLOCK_LEN - 4;
    let crc = u32::from_le_bytes(sb[body..SUPERBLOCK_LEN].try_into().unwrap());
    if sb[..8] != SUPERBLOCK_MAGIC || crc != crate::codec::crc32(&sb[..body]) {
        return None;
    }
    let field = |k: usize| u64::from_le_bytes(sb[8 + 8 * k..16 + 8 * k].try_into().unwrap());
    let moving = (field(3) != NO_MOVE).then(|| Move { src: field(3), at: field(4) });
    Some((field(0), field(1), field(2), moving))
}

fn block_err(e: BlockError) -> JournalError {
    match e {
        BlockError::Crashed => JournalError::Crashed,
        other => JournalError::Io(other.to_string()),
    }
}

/// [`Storage`] over a block device: a page cache plus the superblock
/// protocol described in the module docs.
pub struct BlockStorage {
    cache: PageCache,
    /// Where the durable log starts, as a byte offset into the data area
    /// (mirrors the newest superblock).
    start: u64,
    /// Durable log length in bytes (mirrors the newest superblock).
    len: u64,
    /// A splice's unfinished move (mirrors the newest superblock).
    moving: Option<Move>,
    /// Generation of the newest committed superblock (0 = never written).
    gen: u64,
}

impl std::fmt::Debug for BlockStorage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockStorage")
            .field("start", &self.start)
            .field("len", &self.len)
            .field("moving", &self.moving)
            .field("gen", &self.gen)
            .field("cache", &self.cache)
            .finish()
    }
}

impl BlockStorage {
    /// Opens (or initializes) a log on `dev` with a `pages`-page cache.
    ///
    /// * empty device → a fresh log (superblock written on first append);
    /// * valid superblock → the existing log, ready for cold-boot replay
    ///   and further appends (a pending move is finished first);
    /// * anything else → [`JournalError::Io`], loudly.
    pub fn open(dev: Box<dyn BlockDevice>, pages: usize) -> JournalResult<Self> {
        let mut cache = PageCache::new(dev, pages.max(2));
        if cache.device().len_sectors() == 0 {
            return Ok(BlockStorage { cache, start: 0, len: 0, moving: None, gen: 0 });
        }
        let capacity = (cache.device().len_sectors() * cache.page_size() as u64)
            .saturating_sub(self::data_origin(&cache));
        let within = |from: u64, n: u64| from.checked_add(n).is_some_and(|end| end <= capacity);
        let mut best: Option<(u64, u64, u64, Option<Move>)> = None;
        for slot in 0..2u64 {
            let mut sb = vec![0u8; SUPERBLOCK_LEN];
            cache.read_bytes(slot * cache.page_size() as u64, &mut sb).map_err(block_err)?;
            if let Some((gen, start, len, moving)) = parse_slot(&sb) {
                // A log, or a move source, past the device end is damage
                // even if the CRC happened to survive; so is a move whose
                // source overlaps its target.
                let fits = within(start, len)
                    && moving.is_none_or(|m| {
                        m.at <= len && m.src >= start + len && within(m.src, len - m.at)
                    });
                if fits && best.is_none_or(|(g, ..)| gen > g) {
                    best = Some((gen, start, len, moving));
                }
            }
        }
        let Some((gen, start, len, moving)) = best else {
            return Err(JournalError::Io(
                "no valid block log superblock: not a journal device, or both slots damaged".into(),
            ));
        };
        let mut s = BlockStorage { cache, start, len, moving, gen };
        s.finish_move()?;
        Ok(s)
    }

    /// Opens a log on an in-memory device (tests).
    pub fn in_memory(pages: usize) -> Self {
        Self::open(Box::new(maxoid_block::MemDevice::new()), pages)
            .expect("an empty mem device always opens")
    }

    /// The underlying device (tests corrupt it; benches size it).
    pub fn device(&self) -> &dyn BlockDevice {
        self.cache.device()
    }

    /// Mutable device access for fault injection. Media damage does not
    /// invalidate resident pages by itself — pair with
    /// [`BlockStorage::drop_clean_pages`] or reopen the device.
    pub fn device_mut(&mut self) -> &mut dyn BlockDevice {
        self.cache.device_mut()
    }

    /// Drops clean resident pages so a test's out-of-band device
    /// corruption becomes visible to subsequent reads.
    pub fn drop_clean_pages(&mut self) {
        self.cache.drop_clean()
    }

    /// Device byte offset where the live log starts.
    fn log_offset(&self) -> u64 {
        data_origin(&self.cache) + self.start
    }

    /// Commits the current `start`/`len`/move to the next superblock slot
    /// and advances the generation — only after the flush barrier
    /// succeeds, so a failed commit leaves the previous slot as the
    /// durable truth.
    fn commit_superblock(&mut self) -> JournalResult<()> {
        let gen = self.gen + 1;
        let sb = encode_superblock(gen, self.start, self.len, self.moving);
        let slot = (gen % 2) * self.cache.page_size() as u64;
        self.cache.write_bytes(slot, &sb).map_err(block_err)?;
        self.cache.flush().map_err(block_err)?;
        self.gen = gen;
        Ok(())
    }

    /// Finishes a pending move, if any: copies its tail from beside the
    /// log to `start + at`, one window at a time, flushes, and commits a
    /// superblock without the move. On `Err` the move stays pending — the
    /// log is still whole, read from beside.
    fn finish_move(&mut self) -> JournalResult<()> {
        let Some(m) = self.moving else { return Ok(()) };
        let (src, dst) = (data_origin(&self.cache) + m.src, self.log_offset() + m.at);
        let n = (self.len - m.at) as usize;
        let mut window = vec![0u8; n.min(SCAN_WINDOW)];
        for at in (0..n).step_by(SCAN_WINDOW) {
            let piece = &mut window[..(n - at).min(SCAN_WINDOW)];
            self.cache.read_bytes(src + at as u64, piece).map_err(block_err)?;
            self.cache.write_bytes(dst + at as u64, piece).map_err(block_err)?;
        }
        self.cache.flush().map_err(block_err)?;
        self.moving = None;
        if let Err(e) = self.commit_superblock() {
            self.moving = Some(m);
            return Err(e);
        }
        Ok(())
    }
}

/// A replacement's tail, written through the cache from data-area offset
/// `at` on, while the live log stays where the superblock says.
struct Beside<'a> {
    storage: &'a mut BlockStorage,
    at: u64,
}

impl Replacement for Beside<'_> {
    fn write_at(&mut self, at: usize, bytes: &[u8]) -> JournalResult<()> {
        let offset = data_origin(&self.storage.cache) + self.at + at as u64;
        self.storage.cache.write_bytes(offset, bytes).map_err(block_err)
    }

    fn read_old(&mut self, offset: usize, buf: &mut [u8]) -> JournalResult<()> {
        self.storage.read_at(offset, buf)
    }
}

/// Byte offset of the data area (after both superblock slots).
fn data_origin(cache: &PageCache) -> u64 {
    2 * cache.page_size() as u64
}

impl Storage for BlockStorage {
    fn append(&mut self, bytes: &[u8]) -> JournalResult<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        self.finish_move()?;
        // Data first, barrier, then the length that makes it reachable,
        // barrier again: `len` can never run ahead of flushed data.
        let end = self.log_offset() + self.len;
        self.cache.write_bytes(end, bytes).map_err(block_err)?;
        self.cache.flush().map_err(block_err)?;
        self.len += bytes.len() as u64;
        if let Err(e) = self.commit_superblock() {
            // The superblock commit failed: the appended bytes are
            // unreachable, so the in-memory length must not count them.
            self.len -= bytes.len() as u64;
            return Err(e);
        }
        Ok(())
    }

    fn read_at(&mut self, offset: usize, buf: &mut [u8]) -> JournalResult<()> {
        let (offset, end) = (offset as u64, (offset + buf.len()) as u64);
        if end > self.len {
            return Err(JournalError::Io("read past the end of the log".into()));
        }
        // Bytes a pending move covers are read from its source.
        let split = self.moving.map_or(end, |m| m.at.clamp(offset, end));
        let (here, moved) = buf.split_at_mut((split - offset) as usize);
        self.cache.read_bytes(self.log_offset() + offset, here).map_err(block_err)?;
        if let Some(m) = self.moving.filter(|_| !moved.is_empty()) {
            let src = data_origin(&self.cache) + m.src + (split - m.at);
            self.cache.read_bytes(src, moved).map_err(block_err)?;
        }
        Ok(())
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    fn replace_from(&mut self, keep: usize, len: usize, fill: Fill<'_>) -> JournalResult<()> {
        self.finish_move()?;
        // Beside the live log, never over it (module docs): a whole
        // rewrite goes to the front of the data area if it ends before the
        // live log's first sector (`start` is sector-aligned), else to the
        // first sector past the live log's end; a splice's tail goes past
        // its in-place target too.
        let ss = self.cache.page_size() as u64;
        let (keep, n) = (keep as u64, len as u64);
        let end = self.start + self.len;
        let past = if keep == 0 { end } else { end.max(self.start + keep + n) };
        let at = if keep == 0 && n <= self.start { 0 } else { past.div_ceil(ss) * ss };
        Tail::run(len, &mut Beside { storage: self, at }, fill)?;
        self.cache.flush().map_err(block_err)?;
        let old = (self.start, self.len);
        if keep == 0 {
            (self.start, self.len) = (at, n);
        } else {
            self.len = keep + n;
            self.moving = Some(Move { src: at, at: keep });
        }
        if let Err(e) = self.commit_superblock() {
            // Not committed: the live log is still the old one.
            (self.start, self.len) = old;
            self.moving = None;
            return Err(e);
        }
        // The new log is durable. A failed in-place copy leaves the move
        // pending, for the next append, rewrite or open to finish.
        let _ = self.finish_move();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Record, VfsRecord};
    use crate::replay::{read_records, TailState};
    use crate::wal::Journal;
    use maxoid_block::{FaultDevice, FileDevice, MemDevice};

    fn rec(path: &str) -> Record {
        Record::Vfs(VfsRecord::Unlink { path: path.into() })
    }

    /// Makes `s`'s log its first `keep` bytes followed by `tail`.
    fn replace(s: &mut BlockStorage, keep: usize, tail: &[u8]) -> JournalResult<()> {
        s.replace_from(keep, tail.len(), &mut |t| t.write_all(tail))
    }

    /// The durable log from byte `offset` to its end.
    fn log_from(s: &mut BlockStorage, offset: usize) -> Vec<u8> {
        let mut buf = vec![0; s.len() - offset];
        s.read_at(offset, &mut buf).unwrap();
        buf
    }

    #[test]
    fn wal_over_blocks_roundtrips() {
        let j = Journal::new(Box::new(BlockStorage::in_memory(8)), 1).unwrap();
        for i in 0..20 {
            j.append(rec(&format!("/f{i}"))).unwrap();
        }
        let log = read_records(&j.bytes());
        assert_eq!(log.records.len(), 20);
        assert_eq!(log.tail, TailState::Clean);
    }

    #[test]
    fn log_survives_reopen() {
        let mut dev = FileDevice::temp("wal-reopen").unwrap();
        dev.set_delete_on_drop(false);
        let path = dev.path().to_path_buf();
        let j = Journal::new(Box::new(BlockStorage::open(Box::new(dev), 8).unwrap()), 1).unwrap();
        for i in 0..5 {
            j.append(rec(&format!("/f{i}"))).unwrap();
        }
        let want = j.bytes();
        drop(j);

        let mut reopened = FileDevice::open(&path).unwrap();
        reopened.set_delete_on_drop(true);
        let mut storage = BlockStorage::open(Box::new(reopened), 8).unwrap();
        assert_eq!(log_from(&mut storage, 0), want, "cold reopen must see the identical log");
        // And the reopened storage keeps appending.
        let j2 = Journal::new(Box::new(storage), 1).unwrap();
        j2.append(rec("/post-reboot")).unwrap();
        assert_eq!(read_records(&j2.bytes()).records.len(), 6);
    }

    #[test]
    fn tiny_cache_still_serves_the_whole_log() {
        // 2 pages of 4096B cache a multi-sector log: every read_bytes
        // walk faults pages in and out, and the log is still exact.
        let j = Journal::new(Box::new(BlockStorage::in_memory(2)), 4).unwrap();
        for i in 0..200 {
            j.append(rec(&format!("/some/deeply/nested/path/file-{i}"))).unwrap();
        }
        j.flush().unwrap();
        let log = read_records(&j.bytes());
        assert_eq!(log.records.len(), 200);
        assert_eq!(log.tail, TailState::Clean);
    }

    #[test]
    fn replace_then_append_reuses_the_device() {
        let mut s = BlockStorage::in_memory(4);
        s.append(&[7u8; 5000]).unwrap();
        // Longer than the (empty) gap in front of the live log: the new
        // log goes past its end, at the next sector.
        replace(&mut s, 0, &[1u8; 6000]).unwrap();
        assert_eq!(s.start, 8192);
        assert_eq!(log_from(&mut s, 0), vec![1u8; 6000]);
        // Short enough for the front: back to the start of the area.
        replace(&mut s, 0, b"new").unwrap();
        assert_eq!(s.start, 0);
        s.append(b" tail").unwrap();
        assert_eq!(log_from(&mut s, 0), b"new tail");
        let mut reopened = BlockStorage::open(Box::new(image_of(&mut s)), 4).unwrap();
        assert_eq!(log_from(&mut reopened, 0), b"new tail");
    }

    #[test]
    fn splice_keeps_the_prefix_in_place() {
        let mut s = BlockStorage::in_memory(4);
        s.append(&[7u8; 5000]).unwrap();
        replace(&mut s, 3000, &[8u8; 6000]).unwrap();
        let want = [vec![7u8; 3000], vec![8u8; 6000]].concat();
        assert_eq!((s.start, s.moving), (0, None), "the tail was moved in place");
        assert_eq!(log_from(&mut s, 0), want);
        assert_eq!(log_from(&mut s, 4000), want[4000..]);
        s.append(b"!").unwrap();
        let mut reopened = BlockStorage::open(Box::new(image_of(&mut s)), 4).unwrap();
        assert_eq!(log_from(&mut reopened, 0), [&want[..], b"!"].concat());
    }

    #[test]
    fn a_failed_copy_in_place_reads_from_beside_until_finished() {
        let dev = FaultDevice::new(Box::new(MemDevice::new()));
        let faults = dev.read_faults();
        let mut s = BlockStorage::open(Box::new(dev), 4).unwrap();
        s.append(&[7u8; 5000]).unwrap();
        // The copy in place starts by reading the sector it shares with
        // the prefix (the data area's first, device sector 2): fail that
        // read, after the commit that made the splice durable.
        s.drop_clean_pages();
        faults.fail(2);
        replace(&mut s, 3000, &[8u8; 6000]).expect("the splice is durable");
        faults.clear(2);
        assert!(s.moving.is_some(), "the copy in place failed");
        let want = [vec![7u8; 3000], vec![8u8; 6000]].concat();
        assert_eq!(log_from(&mut s, 0), want, "the tail is read from beside the log");
        assert_eq!(log_from(&mut s, 4000), want[4000..]);
        // A reopen finishes the move, and so does the next append.
        let mut reopened = BlockStorage::open(Box::new(image_of(&mut s)), 4).unwrap();
        assert_eq!(reopened.moving, None);
        assert_eq!(log_from(&mut reopened, 0), want);
        s.append(b"!").unwrap();
        assert_eq!(s.moving, None);
        assert_eq!(log_from(&mut s, 0), [&want[..], b"!"].concat());
    }

    #[test]
    fn power_loss_in_either_placement_keeps_the_old_log_or_the_new_one() {
        // The first rewrite goes past the live log, the second (shorter
        // than the gap that leaves at the front) to the front; then a
        // splice keeps the first 1000 bytes.
        let first = vec![3u8; 9000];
        let steps = [(0, vec![4u8; 10_000]), (0, vec![5u8; 3000]), (1000, vec![6u8; 9000])];
        let mut logs = vec![first.clone()];
        for (keep, tail) in &steps {
            logs.push([&logs[logs.len() - 1][..*keep], &tail[..]].concat());
        }
        let run = |writes: u64, torn: usize| {
            let dev = FaultDevice::with_write_budget(Box::new(MemDevice::new()), writes, torn);
            let mut s = BlockStorage::open(Box::new(dev), 2).unwrap();
            let mut done = 0;
            if s.append(&first).is_ok() {
                done = 1;
                for (keep, tail) in &steps {
                    if replace(&mut s, *keep, tail).is_err() {
                        break;
                    }
                    done += 1;
                }
            }
            let cut = s.device_mut().as_fault_device().is_some_and(|d| d.crashed());
            (done, cut, image_of(&mut s))
        };
        // Raise the budget until no write is cut. A cut inside rewrite
        // `k` reopens as log `k - 1` or log `k`; one inside a splice's
        // copy in place, after its commit, reopens as the new log.
        let mut cuts = 0;
        for writes in 0.. {
            let mut any_cut = false;
            for torn in [0, 20, 4000] {
                let (done, cut, img) = run(writes, torn);
                any_cut |= cut;
                if cut && done > 0 {
                    cuts += 1;
                    let got = log_from(&mut BlockStorage::open(Box::new(img), 2).unwrap(), 0);
                    assert!(
                        got == logs[done - 1] || logs.get(done) == Some(&got),
                        "budget {writes}/{torn}: a mix of logs"
                    );
                }
            }
            if !any_cut {
                break;
            }
        }
        // Three data sectors plus the superblock for the first rewrite,
        // one plus the superblock for the second; the splice's three
        // sectors beside, its superblock, three in place and the last
        // superblock. Three tears each.
        assert_eq!(cuts, (4 + 2 + 8) * 3);
    }

    /// Clones the raw device image into a fresh `MemDevice`, exactly as a
    /// reboot sees the platter.
    fn image_of(s: &mut BlockStorage) -> MemDevice {
        let mut img = MemDevice::new();
        let ss = s.device().sector_size();
        let mut buf = vec![0u8; ss];
        for sec in 0..s.device().len_sectors() {
            s.device_mut().read_sector(sec, &mut buf).unwrap();
            img.write_sector(sec, &buf).unwrap();
        }
        img
    }

    /// `n` bytes of a pattern picked by `seed`.
    fn pattern(n: usize, seed: u8) -> Vec<u8> {
        (0..n).map(|i| (i as u8).wrapping_mul(7).wrapping_add(seed)).collect()
    }

    /// The whole durable log of `s`.
    fn whole(s: &mut dyn Storage) -> Vec<u8> {
        let mut log = vec![0; s.len()];
        s.read_at(0, &mut log).unwrap();
        log
    }

    /// Makes `s`'s log its first `keep` bytes followed by `tail`, written
    /// in uneven pieces with its first four bytes zero until a closing
    /// patch. Between pieces the old log, `old`, must read back as it was.
    fn replace_unevenly(
        s: &mut dyn Storage,
        keep: usize,
        tail: &[u8],
        old: &[u8],
    ) -> JournalResult<()> {
        s.replace_from(keep, tail.len(), &mut |t| {
            let mut at = 0;
            for n in [1, 4095, 4096, 3000, 1].into_iter().cycle() {
                let mut read = vec![0; old.len()];
                t.read_old(0, &mut read)?;
                assert_eq!(read, old, "the old log changed during the fill");
                assert!(t.read_old(old.len() - 1, &mut [0; 2]).is_err(), "a read past the old log");
                if at == tail.len() {
                    break;
                }
                let mut piece = tail[at..tail.len().min(at + n)].to_vec();
                piece.iter_mut().take(4usize.saturating_sub(at)).for_each(|b| *b = 0);
                t.write(&piece)?;
                at += piece.len();
            }
            t.patch(0, &tail[..4.min(tail.len())])
        })
    }

    /// The storages the streamed-replacement contract is checked on.
    fn every_storage() -> Vec<(&'static str, Box<dyn Storage>)> {
        let file = FileDevice::temp("replace-contract").unwrap();
        vec![
            ("mem", Box::new(crate::MemStorage::new())),
            ("fault", Box::new(crate::FaultStorage::with_budget(usize::MAX))),
            ("block on a mem device", Box::new(BlockStorage::in_memory(4))),
            ("block on a file device", Box::new(BlockStorage::open(Box::new(file), 4).unwrap())),
        ]
    }

    #[test]
    fn streamed_replacement_contract_on_every_storage() {
        let old = pattern(10_000, 1);
        for (name, mut s) in every_storage() {
            let s = &mut *s;
            s.append(&old[..6000]).unwrap();
            s.append(&old[6000..]).unwrap();
            // Fills that fail or break a rule leave the old log as the log,
            // whether they return the error or carry on regardless.
            let big = vec![5u8; SCAN_WINDOW + 1];
            type Broken<'b> = Box<dyn FnMut(&mut Tail<'_>) -> JournalResult<()> + 'b>;
            let broken: Vec<(&str, usize, Broken)> = vec![
                (
                    "an error",
                    5000,
                    Box::new(|t| {
                        t.write(&[1; 3000])?;
                        Err(JournalError::Io("the fill gave up".into()))
                    }),
                ),
                ("too few bytes", 5000, Box::new(|t| t.write(&[1; 4999]))),
                (
                    "too many bytes",
                    5000,
                    Box::new(|t| {
                        t.write(&[1; 5000])?;
                        let _ = t.write(&[1]);
                        Ok(())
                    }),
                ),
                (
                    "a patch past what was written",
                    5000,
                    Box::new(|t| {
                        t.write(&[1; 3000])?;
                        let _ = t.patch(2999, &[2, 2]);
                        t.write(&[1; 2000])
                    }),
                ),
                (
                    "a piece larger than the window",
                    big.len(),
                    Box::new(|t| {
                        let _ = t.write(&big);
                        t.write_all(&big)
                    }),
                ),
            ];
            for (what, len, mut fill) in broken {
                for keep in [0, 3000] {
                    assert!(s.replace_from(keep, len, &mut *fill).is_err(), "{name}: {what}");
                    assert_eq!(whole(s), old, "{name}: {what} (keep {keep})");
                }
            }
            // A committed replacement reads back exactly: a splice, then a
            // whole rewrite, and the log still takes appends.
            let tail = pattern(20_000, 2);
            replace_unevenly(s, 3000, &tail, &old).unwrap();
            let spliced = [&old[..3000], &tail[..]].concat();
            assert_eq!(whole(s), spliced, "{name}");
            let rewritten = pattern(9000, 3);
            replace_unevenly(s, 0, &rewritten, &spliced).unwrap();
            s.append(b"!").unwrap();
            assert_eq!(whole(s), [&rewritten[..], b"!"].concat(), "{name}");
        }
    }

    #[test]
    fn streamed_replacement_out_of_budget_keeps_the_old_log() {
        // The budget covers the old log and part of the new tail: the
        // piece that runs it out fails the replacement, and the old log
        // stays the log.
        let old = pattern(10_000, 1);
        let mut s = crate::FaultStorage::with_budget(old.len() + 2500);
        s.append(&old).unwrap();
        let got = s.replace_from(3000, 5000, &mut |t| (0..5).try_for_each(|_| t.write(&[1; 1000])));
        assert_eq!(got, Err(JournalError::Crashed));
        assert!(s.crashed());
        assert_eq!(whole(&mut s), old);
    }

    #[test]
    fn streamed_replacement_placements_reopen_as_the_new_log() {
        // A whole rewrite past the live log's end, one at the front of the
        // data area, and a splice, on a mem and on a file device; each
        // reopens as the new log, and the file reopens from its path.
        for on_file in [false, true] {
            let mut path = None;
            let dev: Box<dyn maxoid_block::BlockDevice> = if on_file {
                let mut dev = FileDevice::temp("placements").unwrap();
                dev.set_delete_on_drop(false);
                path = Some(dev.path().to_path_buf());
                Box::new(dev)
            } else {
                Box::new(MemDevice::new())
            };
            let mut s = BlockStorage::open(dev, 4).unwrap();
            let mut log = pattern(9000, 1);
            s.append(&log).unwrap();
            // (keep, tail, where the new log starts): longer than the empty
            // gap in front, past the live log's end (the first sector past
            // 9,000 bytes); shorter than the gap that leaves, the front; a
            // splice keeping 1,000 bytes, moved in place.
            let steps = [
                (0, pattern(12_000, 2), 12_288),
                (0, pattern(5000, 3), 0),
                (1000, pattern(7000, 4), 0),
            ];
            for (keep, tail, start) in steps {
                replace_unevenly(&mut s, keep, &tail, &log).unwrap();
                log = [&log[..keep], &tail[..]].concat();
                assert_eq!((s.start, s.moving), (start, None), "keep {keep}");
                let mut reopened = BlockStorage::open(Box::new(image_of(&mut s)), 4).unwrap();
                assert_eq!(log_from(&mut reopened, 0), log, "keep {keep}, file device {on_file}");
            }
            drop(s);
            if let Some(path) = path {
                let mut dev = FileDevice::open(&path).unwrap();
                dev.set_delete_on_drop(true);
                let mut reopened = BlockStorage::open(Box::new(dev), 4).unwrap();
                assert_eq!(log_from(&mut reopened, 0), log);
            }
        }
    }

    #[test]
    fn superblock_corruption_is_loud() {
        let mut s = BlockStorage::in_memory(4);
        // One append: generation 1 lives in slot 1 (sector 1); slot 0 has
        // never been written. Damaging the only valid slot must refuse to
        // open rather than guess the log length.
        s.append(b"payload").unwrap();
        let mut img = image_of(&mut s);
        img.corrupt(4096 + 17, 0x40); // inside slot 1's len field
        let err = BlockStorage::open(Box::new(img), 4);
        assert!(matches!(err, Err(JournalError::Io(_))), "corrupt superblock must not open");
    }

    #[test]
    fn torn_superblock_commit_falls_back_to_the_acked_slot() {
        let mut s = BlockStorage::in_memory(4);
        s.append(b"first").unwrap(); // gen 1 → slot 1
        s.append(b"second").unwrap(); // gen 2 → slot 0
        let mut img = image_of(&mut s);
        // Simulate a torn commit of gen 3: it would target slot 1 (the
        // stale gen-1 slot), so shred that sector. Gen 2 — the newest
        // *acked* state — must still open with both appends readable.
        for off in 4096..(4096 + 28) {
            img.corrupt(off as u64, 0xA5);
        }
        let mut reopened = BlockStorage::open(Box::new(img), 4).expect("fallback slot must open");
        assert_eq!(log_from(&mut reopened, 0), b"firstsecond");
    }

    #[test]
    fn a_move_past_the_device_end_is_damage() {
        let mut s = BlockStorage::in_memory(4);
        s.append(b"payload").unwrap(); // gen 1 → slot 1
        let mut img = image_of(&mut s);
        // A CRC-valid gen 2 in slot 0 whose move source lies past the
        // device end: open must not trust it, and falls back to gen 1.
        let mut sector = vec![0u8; 4096];
        let sb = encode_superblock(2, 0, 7, Some(Move { src: 1 << 40, at: 0 }));
        sector[..sb.len()].copy_from_slice(&sb);
        img.write_sector(0, &sector).unwrap();
        let mut reopened = BlockStorage::open(Box::new(img), 4).unwrap();
        assert_eq!((reopened.gen, reopened.moving), (1, None));
        assert_eq!(log_from(&mut reopened, 0), b"payload");
    }

    /// Superblock decoder fuzzing: a device's two slots are read back on
    /// every cold boot, so no bytes in them may panic `open`, and no log
    /// it opens may lie past the device end.
    mod fuzz {
        use super::*;
        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;

        /// One slot's bytes: noise (led by the magic or not), or a
        /// CRC-valid superblock with arbitrary fields, small ones often
        /// inside the device and large ones past it.
        fn slot() -> impl Strategy<Value = Vec<u8>> {
            let field = || prop_oneof![0u64..40_000, any::<u64>()];
            prop_oneof![
                (any::<bool>(), proptest::collection::vec(any::<u8>(), 0..SUPERBLOCK_LEN + 8))
                    .prop_map(|(magic, mut bytes)| {
                        if magic {
                            bytes.splice(..bytes.len().min(8), SUPERBLOCK_MAGIC);
                        }
                        bytes
                    }),
                (0u64..4, (field(), field()), proptest::option::of((field(), field()))).prop_map(
                    |(gen, (start, len), moving)| {
                        let moving = moving.map(|(src, at)| Move { src, at });
                        encode_superblock(gen, start, len, moving)
                    }
                ),
            ]
        }

        /// What an opened storage must be: a log inside the device that
        /// reads back whole, with no move left pending.
        fn sound(s: &mut BlockStorage) -> Result<(), TestCaseError> {
            let ss = s.cache.page_size() as u64;
            let capacity = s.device().len_sectors() * ss - 2 * ss;
            prop_assert!(s.start + s.len <= capacity, "a log past the device end: {:?}", s);
            prop_assert_eq!(s.moving, None);
            let mut log = vec![0; s.len()];
            prop_assert!(s.read_at(0, &mut log).is_ok());
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn fuzz_superblock_slots_never_panic_open(
                slots in (slot(), slot()),
                data_sectors in 0usize..10,
            ) {
                let mut img = MemDevice::new();
                for (k, bytes) in [slots.0, slots.1].iter().enumerate() {
                    let mut sector = vec![0u8; 4096];
                    let n = bytes.len().min(4096);
                    sector[..n].copy_from_slice(&bytes[..n]);
                    img.write_sector(k as u64, &sector).unwrap();
                }
                for k in 0..data_sectors {
                    img.write_sector(2 + k as u64, &[k as u8; 4096]).unwrap();
                }
                if let Ok(mut s) = BlockStorage::open(Box::new(img), 4) {
                    sound(&mut s)?;
                }
            }
        }

        /// A step of a storage's history: an append, a whole rewrite, or
        /// a splice keeping some of the log.
        fn history() -> impl Strategy<Value = Vec<(u8, usize, usize)>> {
            proptest::collection::vec((0u8..3, 1usize..9000, 0usize..9000), 1..6)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn fuzz_a_flipped_superblock_byte_opens_the_newest_log_or_an_older_one(
                steps in history(),
                newest in any::<bool>(),
                at in 0usize..SUPERBLOCK_LEN,
                mask in 1u8..=255,
            ) {
                let mut s = BlockStorage::in_memory(4);
                for (op, n, keep) in steps {
                    let bytes = vec![n as u8; n];
                    match op {
                        0 => s.append(&bytes).unwrap(),
                        1 => replace(&mut s, 0, &bytes).unwrap(),
                        _ => {
                            let keep = keep.min(s.len());
                            replace(&mut s, keep, &bytes).unwrap()
                        }
                    }
                }
                let log = log_from(&mut s, 0);
                let mut img = image_of(&mut s);
                let parsed = |img: &MemDevice, k: usize| parse_slot(&img.raw()[k * 4096..][..4096]);
                let gens = [0, 1].map(|k| parsed(&img, k).map(|(gen, ..)| gen));
                let newer = if gens[0] > gens[1] { 0 } else { 1 };
                let (flipped, other) = if newest { (newer, 1 - newer) } else { (1 - newer, newer) };
                let fallback = parsed(&img, other);
                img.corrupt((flipped * 4096 + at) as u64, mask);
                match BlockStorage::open(Box::new(img), 4) {
                    Ok(mut opened) => {
                        sound(&mut opened)?;
                        // The other slot's log; finishing its pending
                        // move, if it had one, committed one more.
                        let (gen, start, len, moving) = fallback.expect("a slot to open");
                        let gen = gen + moving.is_some() as u64;
                        prop_assert_eq!((opened.gen, opened.start, opened.len), (gen, start, len));
                        if !newest {
                            prop_assert!(log_from(&mut opened, 0) == log, "not the newest log");
                        }
                    }
                    Err(_) => prop_assert!(newest, "a flip in the older slot lost the newest log"),
                }
            }
        }
    }

    #[test]
    fn non_journal_device_is_rejected() {
        let mut dev = MemDevice::new();
        dev.write_sector(0, &vec![0xAB; 4096]).unwrap();
        assert!(matches!(BlockStorage::open(Box::new(dev), 4), Err(JournalError::Io(_))));
    }

    #[test]
    fn power_loss_mid_append_never_acks() {
        // Budget: superblock + a couple of data sectors, then the cord.
        let inner = MemDevice::new();
        let fault = FaultDevice::with_write_budget(Box::new(inner), 3, 17);
        let storage = BlockStorage::open(Box::new(fault), 4).unwrap();
        let j = Journal::new(Box::new(storage), 1).unwrap();
        let mut last_ok = 0;
        for i in 0..50 {
            if j.append(rec(&format!("/f{i}"))).is_ok() && j.stats().io_errors == 0 {
                last_ok = i + 1;
            }
        }
        assert!(j.stats().io_errors > 0, "the cord was pulled");
        assert!(last_ok < 50);
    }
}
