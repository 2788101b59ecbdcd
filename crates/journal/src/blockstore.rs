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
//! `replace_from(0, log)` (a whole rewrite) writes the new log *beside*
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
//! `replace_from(keep, tail)` with `keep > 0` (a checkpoint keeping its
//! retained prefix) *splices*: it writes `tail` beside the log, from the
//! first sector past both the live log's end and `start + keep +
//! tail.len()` — so it overlaps neither the live log nor its own in-place
//! target — then, after a flush barrier, commits a superblock naming the
//! new `len` and a **move** (`move_src` = where the tail was written,
//! `move_at` = `keep`): "the log's bytes from `move_at` on are at
//! `move_src`". That commit makes the new log durable. Only then is the
//! tail copied in place at `start + keep`, flushed, and a superblock
//! without the move committed (`move_src` = `u64::MAX`). Reads serve the
//! tail from `move_src` until the move is done, and `append`,
//! `replace_from` and `open` finish a pending move first; the copy is
//! idempotent, so a cut anywhere reopens as the old log or the whole new
//! one. A checkpoint thus writes about twice its tail, never the prefix.
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

use crate::wal::Storage;
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

    /// Page-cache counters (hits/misses/evictions/writeback).
    pub fn cache_stats(&self) -> maxoid_block::CacheStats {
        self.cache.stats()
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

    /// Finishes a pending move, if any: reads its tail from beside the
    /// log and moves it in place.
    fn finish_move(&mut self) -> JournalResult<()> {
        let Some(m) = self.moving else { return Ok(()) };
        let mut tail = vec![0u8; (self.len - m.at) as usize];
        let src = data_origin(&self.cache) + m.src;
        self.cache.read_bytes(src, &mut tail).map_err(block_err)?;
        self.move_in_place(&tail)
    }

    /// Writes the pending move's `tail` at `start + at`, flushes, and
    /// commits a superblock without the move. On `Err` the move stays
    /// pending — the log is still whole, read from beside.
    fn move_in_place(&mut self, tail: &[u8]) -> JournalResult<()> {
        let Some(m) = self.moving else { return Ok(()) };
        self.cache.write_bytes(self.log_offset() + m.at, tail).map_err(block_err)?;
        self.cache.flush().map_err(block_err)?;
        self.moving = None;
        if let Err(e) = self.commit_superblock() {
            self.moving = Some(m);
            return Err(e);
        }
        Ok(())
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

    fn replace_from(&mut self, keep: usize, tail: Vec<u8>) -> JournalResult<()> {
        self.finish_move()?;
        // Beside the live log, never over it (module docs): a whole
        // rewrite goes to the front of the data area if it ends before the
        // live log's first sector (`start` is sector-aligned), else to the
        // first sector past the live log's end; a splice's tail goes past
        // its in-place target too.
        let ss = self.cache.page_size() as u64;
        let (keep, n) = (keep as u64, tail.len() as u64);
        let end = self.start + self.len;
        let past = if keep == 0 { end } else { end.max(self.start + keep + n) };
        let at = if keep == 0 && n <= self.start { 0 } else { past.div_ceil(ss) * ss };
        self.cache.write_bytes(data_origin(&self.cache) + at, &tail).map_err(block_err)?;
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
        let _ = self.move_in_place(&tail);
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

    /// The durable log from byte `offset` to its end.
    fn log_from(s: &mut BlockStorage, offset: usize) -> Vec<u8> {
        let mut buf = vec![0; s.len() - offset];
        s.read_at(offset, &mut buf).unwrap();
        buf
    }

    #[test]
    fn wal_over_blocks_roundtrips() {
        let mut j = Journal::new(Box::new(BlockStorage::in_memory(8)), 1).unwrap();
        for i in 0..20 {
            j.append(&rec(&format!("/f{i}"))).unwrap();
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
        let mut j =
            Journal::new(Box::new(BlockStorage::open(Box::new(dev), 8).unwrap()), 1).unwrap();
        for i in 0..5 {
            j.append(&rec(&format!("/f{i}"))).unwrap();
        }
        let want = j.bytes();
        drop(j);

        let mut reopened = FileDevice::open(&path).unwrap();
        reopened.set_delete_on_drop(true);
        let mut storage = BlockStorage::open(Box::new(reopened), 8).unwrap();
        assert_eq!(log_from(&mut storage, 0), want, "cold reopen must see the identical log");
        // And the reopened storage keeps appending.
        let mut j2 = Journal::new(Box::new(storage), 1).unwrap();
        j2.append(&rec("/post-reboot")).unwrap();
        assert_eq!(read_records(&j2.bytes()).records.len(), 6);
    }

    #[test]
    fn tiny_cache_still_serves_the_whole_log() {
        // 2 pages of 4096B cache a multi-sector log: every read_bytes
        // walk faults pages in and out, and the log is still exact.
        let mut j = Journal::new(Box::new(BlockStorage::in_memory(2)), 4).unwrap();
        for i in 0..200 {
            j.append(&rec(&format!("/some/deeply/nested/path/file-{i}"))).unwrap();
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
        s.replace_from(0, vec![1u8; 6000]).unwrap();
        assert_eq!(s.start, 8192);
        assert_eq!(log_from(&mut s, 0), vec![1u8; 6000]);
        // Short enough for the front: back to the start of the area.
        s.replace_from(0, b"new".to_vec()).unwrap();
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
        s.replace_from(3000, vec![8u8; 6000]).unwrap();
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
        s.replace_from(3000, vec![8u8; 6000]).expect("the splice is durable");
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
                    if s.replace_from(*keep, tail.clone()).is_err() {
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
        let mut j = Journal::new(Box::new(storage), 1).unwrap();
        let mut last_ok = 0;
        for i in 0..50 {
            if j.append(&rec(&format!("/f{i}"))).is_ok() && j.stats().io_errors == 0 {
                last_ok = i + 1;
            }
        }
        assert!(j.stats().io_errors > 0, "the cord was pulled");
        assert!(last_ok < 50);
    }
}
