//! Partitioned devices: several logical block devices multiplexed onto
//! one physical image, so a whole system (WAL + VFS spill + sqldb heap)
//! can cold-boot from a single file.
//!
//! The image is chunk-remapped rather than statically split: physical
//! space past a small on-device directory is carved into fixed-size
//! chunks, and each chunk is assigned to a `(partition, logical chunk)`
//! pair the first time that logical range is written. Partitions
//! therefore grow on demand and interleave without pre-sizing — the
//! moral equivalent of a flash translation layer, one level down from
//! the page cache.
//!
//! Layout: sector 0 is the header (magic, geometry); the next
//! `dir_sectors` sectors are the chunk directory (8-byte entries, one
//! per physical chunk, `0xFFFF` partition id = unassigned); data chunks
//! follow. Directory entries are written *before* the first data write
//! of their chunk, and a directory update rewrites every other byte of
//! its sector unchanged, so a torn directory write can at worst leak an
//! unassigned chunk — it can never remap live data. Durability of
//! partition *contents* is the owning layer's problem (the WAL has its
//! own superblock protocol; VFS spill and the row heap are volatile
//! scratch rebuilt from the WAL).

use crate::{BlockDevice, BlockError, BlockResult};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Partition id of the journal WAL.
pub const PART_WAL: u16 = 0;
/// Partition id of the VFS spill tier.
pub const PART_VFS: u16 = 1;
/// Partition id of the sqldb row heap.
pub const PART_HEAP: u16 = 2;

const MAGIC: &[u8; 4] = b"MXP1";
const HEADER_LEN: usize = 12;
const ENTRY_LEN: usize = 8;
const FREE_PART: u16 = 0xFFFF;
/// The smallest sector a partitioned device takes: two directory entries,
/// which leaves room for the header too.
const MIN_SECTOR: usize = 2 * ENTRY_LEN;
const _: () = assert!(HEADER_LEN <= MIN_SECTOR);

struct PartInner {
    dev: Box<dyn BlockDevice>,
    sector_size: usize,
    chunk_sectors: u64,
    dir_sectors: u64,
    /// partition → logical chunk → physical chunk.
    maps: HashMap<u16, HashMap<u64, u64>>,
    /// Next physical chunk to assign.
    next_phys: u64,
    /// Per-partition logical length high-water mark, chunk-granular.
    lens: HashMap<u16, u64>,
}

impl PartInner {
    fn entries_per_sector(&self) -> u64 {
        (self.sector_size / ENTRY_LEN) as u64
    }

    fn chunk_capacity(&self) -> u64 {
        self.dir_sectors * self.entries_per_sector()
    }

    fn data_start(&self) -> u64 {
        1 + self.dir_sectors
    }

    /// Maps `(part, logical sector)` to a physical sector, assigning a
    /// fresh chunk (directory entry first, durably ordered before any
    /// data lands in it) when `assign` is set.
    fn translate(&mut self, part: u16, sector: u64, assign: bool) -> BlockResult<Option<u64>> {
        let lc = sector / self.chunk_sectors;
        let off = sector % self.chunk_sectors;
        if let Some(&pc) = self.maps.get(&part).and_then(|m| m.get(&lc)) {
            return Ok(Some(self.data_start() + pc * self.chunk_sectors + off));
        }
        if !assign {
            return Ok(None);
        }
        let pc = self.next_phys;
        if pc >= self.chunk_capacity() {
            return Err(BlockError::Io(format!(
                "partition directory full: {} chunks of {} sectors",
                self.chunk_capacity(),
                self.chunk_sectors
            )));
        }
        self.write_dir_entry(pc, part, lc)?;
        self.next_phys += 1;
        self.maps.entry(part).or_default().insert(lc, pc);
        Ok(Some(self.data_start() + pc * self.chunk_sectors + off))
    }

    fn write_dir_entry(&mut self, pc: u64, part: u16, lc: u64) -> BlockResult<()> {
        let eps = self.entries_per_sector();
        let dir_sector = 1 + pc / eps;
        let at = (pc % eps) as usize * ENTRY_LEN;
        let mut buf = vec![0u8; self.sector_size];
        self.dev.read_sector(dir_sector, &mut buf)?;
        buf[at..at + 2].copy_from_slice(&part.to_le_bytes());
        let lc32 = u32::try_from(lc).map_err(|_| BlockError::Io("chunk index overflow".into()))?;
        buf[at + 2..at + 6].copy_from_slice(&lc32.to_le_bytes());
        buf[at + 6..at + 8].fill(0);
        self.dev.write_sector(dir_sector, &buf)
    }
}

/// The shared partition table over one physical device. Cheap to clone;
/// all handles serialize on one internal mutex (a leaf lock — nothing is
/// acquired under it).
#[derive(Clone)]
pub struct PartitionTable {
    inner: Arc<Mutex<PartInner>>,
}

impl std::fmt::Debug for PartitionTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("PartitionTable")
            .field("chunk_sectors", &inner.chunk_sectors)
            .field("dir_sectors", &inner.dir_sectors)
            .field("chunks_used", &inner.next_phys)
            .finish()
    }
}

impl PartitionTable {
    /// Formats `dev` with a fresh partition table: `chunk_sectors`
    /// sectors per chunk, a directory of `dir_sectors` sectors (bounding
    /// total capacity at `dir_sectors × (sector_size/8)` chunks).
    pub fn create(
        dev: Box<dyn BlockDevice>,
        chunk_sectors: u64,
        dir_sectors: u64,
    ) -> BlockResult<Self> {
        let mut dev = dev;
        let ss = dev.sector_size();
        assert!(ss >= MIN_SECTOR, "partitioned devices need sectors of at least 16 bytes");
        assert!(chunk_sectors > 0 && dir_sectors > 0);
        let mut header = vec![0u8; ss];
        header[..4].copy_from_slice(MAGIC);
        header[4..8].copy_from_slice(&(ss as u32).to_le_bytes());
        header[8..10].copy_from_slice(&(chunk_sectors as u16).to_le_bytes());
        header[10..12].copy_from_slice(&(dir_sectors as u16).to_le_bytes());
        dev.write_sector(0, &header)?;
        // Free directory entries carry the 0xFFFF partition id, so the
        // directory must be formatted: all-zero entries would read as
        // partition 0, chunk 0.
        let blank = vec![0xFFu8; ss];
        for s in 1..=dir_sectors {
            dev.write_sector(s, &blank)?;
        }
        dev.flush()?;
        let inner = PartInner {
            dev,
            sector_size: ss,
            chunk_sectors,
            dir_sectors,
            maps: HashMap::new(),
            next_phys: 0,
            lens: HashMap::new(),
        };
        Ok(PartitionTable { inner: Arc::new(Mutex::new(inner)) })
    }

    /// Opens an existing partitioned image, rebuilding the chunk maps
    /// from the on-device directory (the cold-boot path). An image that
    /// does not decode — a device with sectors too small for the header,
    /// bad magic, a sector size other than the device's, a zero geometry,
    /// or a directory past the device end — is an error.
    pub fn open(dev: Box<dyn BlockDevice>) -> BlockResult<Self> {
        let mut dev = dev;
        let ss = dev.sector_size();
        if ss < MIN_SECTOR {
            return Err(BlockError::Io(format!("{ss}-byte sectors hold no partition table")));
        }
        let mut header = vec![0u8; ss];
        dev.read_sector(0, &mut header)?;
        if &header[..4] != MAGIC {
            return Err(BlockError::Io("not a maxoid partitioned image".into()));
        }
        let stored_ss = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
        if stored_ss != ss {
            return Err(BlockError::Io(format!(
                "image formatted with {stored_ss}-byte sectors, device has {ss}"
            )));
        }
        let chunk_sectors = u16::from_le_bytes(header[8..10].try_into().unwrap()) as u64;
        let dir_sectors = u16::from_le_bytes(header[10..12].try_into().unwrap()) as u64;
        if chunk_sectors == 0 || dir_sectors == 0 {
            return Err(BlockError::Io("corrupt partition header geometry".into()));
        }
        if 1 + dir_sectors > dev.len_sectors() {
            return Err(BlockError::Io(format!(
                "a {dir_sectors}-sector partition directory past the device end"
            )));
        }
        let mut maps: HashMap<u16, HashMap<u64, u64>> = HashMap::new();
        let mut lens: HashMap<u16, u64> = HashMap::new();
        let mut next_phys = 0u64;
        let eps = (ss / ENTRY_LEN) as u64;
        let mut buf = vec![0u8; ss];
        for ds in 0..dir_sectors {
            dev.read_sector(1 + ds, &mut buf)?;
            for e in 0..eps as usize {
                let at = e * ENTRY_LEN;
                let part = u16::from_le_bytes(buf[at..at + 2].try_into().unwrap());
                if part == FREE_PART {
                    continue;
                }
                let lc = u32::from_le_bytes(buf[at + 2..at + 6].try_into().unwrap()) as u64;
                let pc = ds * eps + e as u64;
                maps.entry(part).or_default().insert(lc, pc);
                next_phys = next_phys.max(pc + 1);
                let len = lens.entry(part).or_default();
                *len = (*len).max((lc + 1) * chunk_sectors);
            }
        }
        let inner =
            PartInner { dev, sector_size: ss, chunk_sectors, dir_sectors, maps, next_phys, lens };
        Ok(PartitionTable { inner: Arc::new(Mutex::new(inner)) })
    }

    /// Opens the image when it already carries a partition table,
    /// formats it otherwise — the single entry point for "boot from this
    /// device file whether or not it has been used before".
    pub fn open_or_create(
        dev: Box<dyn BlockDevice>,
        chunk_sectors: u64,
        dir_sectors: u64,
    ) -> BlockResult<Self> {
        let mut dev = dev;
        if dev.len_sectors() > 0 {
            let ss = dev.sector_size();
            let mut header = vec![0u8; ss];
            dev.read_sector(0, &mut header)?;
            if header.starts_with(MAGIC) {
                return Self::open(dev);
            }
        }
        Self::create(dev, chunk_sectors, dir_sectors)
    }

    /// A [`BlockDevice`] view of one partition.
    pub fn handle(&self, part: u16) -> PartitionHandle {
        assert_ne!(part, FREE_PART, "0xFFFF is the free marker, not a partition id");
        PartitionHandle { part, inner: Arc::clone(&self.inner) }
    }
}

/// One partition of a [`PartitionTable`], usable anywhere a
/// [`BlockDevice`] is.
pub struct PartitionHandle {
    part: u16,
    inner: Arc<Mutex<PartInner>>,
}

impl std::fmt::Debug for PartitionHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PartitionHandle").field("part", &self.part).finish()
    }
}

impl BlockDevice for PartitionHandle {
    fn sector_size(&self) -> usize {
        self.inner.lock().unwrap().sector_size
    }

    fn len_sectors(&self) -> u64 {
        let inner = self.inner.lock().unwrap();
        inner.lens.get(&self.part).copied().unwrap_or(0)
    }

    fn read_sector(&mut self, sector: u64, buf: &mut [u8]) -> BlockResult<()> {
        let mut inner = self.inner.lock().unwrap();
        if buf.len() != inner.sector_size {
            return Err(BlockError::BadBufferLen { expected: inner.sector_size, got: buf.len() });
        }
        match inner.translate(self.part, sector, false)? {
            Some(phys) => inner.dev.read_sector(phys, buf),
            None => {
                // Unassigned chunk: thin provisioning reads as zeros.
                buf.fill(0);
                Ok(())
            }
        }
    }

    fn write_sector(&mut self, sector: u64, buf: &[u8]) -> BlockResult<()> {
        let mut inner = self.inner.lock().unwrap();
        if buf.len() != inner.sector_size {
            return Err(BlockError::BadBufferLen { expected: inner.sector_size, got: buf.len() });
        }
        let phys = inner
            .translate(self.part, sector, true)?
            .expect("assigning translate always yields a physical sector");
        inner.dev.write_sector(phys, buf)?;
        let len = inner.lens.entry(self.part).or_default();
        *len = (*len).max(sector + 1);
        Ok(())
    }

    fn flush(&mut self) -> BlockResult<()> {
        // One physical device underneath: the barrier is global.
        self.inner.lock().unwrap().dev.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FileDevice, MemDevice};

    #[test]
    fn partitions_are_isolated() {
        let table =
            PartitionTable::create(Box::new(MemDevice::with_sector_size(32)), 2, 2).unwrap();
        let mut a = table.handle(PART_WAL);
        let mut b = table.handle(PART_VFS);
        a.write_sector(0, &[1u8; 32]).unwrap();
        b.write_sector(0, &[2u8; 32]).unwrap();
        a.write_sector(5, &[3u8; 32]).unwrap();
        let mut buf = vec![0u8; 32];
        a.read_sector(0, &mut buf).unwrap();
        assert_eq!(buf, vec![1u8; 32]);
        b.read_sector(0, &mut buf).unwrap();
        assert_eq!(buf, vec![2u8; 32]);
        a.read_sector(5, &mut buf).unwrap();
        assert_eq!(buf, vec![3u8; 32]);
        // Unwritten ranges read as zeros in both partitions.
        b.read_sector(5, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0));
        assert!(a.len_sectors() >= 6);
        assert!(b.len_sectors() >= 1 && b.len_sectors() <= 2);
    }

    #[test]
    fn reopen_rebuilds_the_chunk_maps() {
        let mut file = FileDevice::temp_with("part-reopen", 32).unwrap();
        // Keep the backing file across the device drop for the reopen.
        file.set_delete_on_drop(false);
        let path = file.path().to_path_buf();
        {
            let table = PartitionTable::open_or_create(Box::new(file), 2, 2).unwrap();
            let mut a = table.handle(PART_WAL);
            let mut b = table.handle(PART_HEAP);
            a.write_sector(3, &[7u8; 32]).unwrap();
            b.write_sector(0, &[9u8; 32]).unwrap();
            a.flush().unwrap();
        }
        let mut re = FileDevice::open_with(&path, 32).unwrap();
        re.set_delete_on_drop(true);
        let table = PartitionTable::open_or_create(Box::new(re), 4, 4).unwrap();
        // Geometry comes from the image, not the open_or_create args.
        let mut a = table.handle(PART_WAL);
        let mut b = table.handle(PART_HEAP);
        let mut buf = vec![0u8; 32];
        a.read_sector(3, &mut buf).unwrap();
        assert_eq!(buf, vec![7u8; 32]);
        b.read_sector(0, &mut buf).unwrap();
        assert_eq!(buf, vec![9u8; 32]);
        a.read_sector(0, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0));
    }

    #[test]
    fn sectors_too_small_for_the_header_do_not_open() {
        // A 4-byte sector holding the magic once panicked the decoder as
        // it read the sector size past the sector's end.
        for ss in [4, 8, 12] {
            let mut dev = MemDevice::with_sector_size(ss);
            let mut sector = vec![0u8; ss];
            sector[..4].copy_from_slice(MAGIC);
            dev.write_sector(0, &sector).unwrap();
            dev.write_sector(1, &sector).unwrap();
            assert!(matches!(PartitionTable::open(Box::new(dev)), Err(BlockError::Io(_))));
        }
    }

    #[test]
    fn a_directory_past_the_device_end_does_not_open() {
        // The header claims three directory sectors; the image ends after
        // one. The missing sectors would read as zeros — entries naming
        // partition 0, chunk 0 — so the image must not open.
        let table =
            PartitionTable::create(Box::new(MemDevice::with_sector_size(32)), 2, 1).unwrap();
        let mut dev = MemDevice::with_sector_size(32);
        let mut sector = vec![0u8; 32];
        let mut inner = table.inner.lock().unwrap();
        for s in 0..2 {
            inner.dev.read_sector(s, &mut sector).unwrap();
            dev.write_sector(s, &sector).unwrap();
        }
        drop(inner);
        let mut header = vec![0u8; 32];
        dev.read_sector(0, &mut header).unwrap();
        header[10..12].copy_from_slice(&3u16.to_le_bytes());
        dev.write_sector(0, &header).unwrap();
        assert!(matches!(PartitionTable::open(Box::new(dev)), Err(BlockError::Io(_))));
    }

    /// Decoder fuzzing: a partitioned image is read back on cold boot,
    /// so no header or directory bytes may panic `open`, and a header it
    /// cannot trust must be an error.
    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn fuzz_partition_table_open_never_panics_and_refuses_bad_headers(
                ss in prop_oneof![1usize..24, Just(32usize), Just(64usize)],
                magic in any::<bool>(),
                stored_ss in proptest::option::of(any::<u32>()),
                geometry in (0u16..5, prop_oneof![0u16..5, any::<u16>()]),
                noise in proptest::collection::vec(any::<u8>(), 0..600),
                sectors in 1u64..12,
            ) {
                let (chunk, dir): (u16, u16) = geometry;
                let mut dev = MemDevice::with_sector_size(ss);
                // Sector 0: the magic (or not), a stored sector size (the
                // device's, or any), the geometry, then noise; every other
                // sector — the directory and past it — is noise.
                let mut header = if magic { MAGIC.to_vec() } else { noise.iter().take(4).copied().collect() };
                header.extend_from_slice(&stored_ss.unwrap_or(ss as u32).to_le_bytes());
                header.extend_from_slice(&chunk.to_le_bytes());
                header.extend_from_slice(&dir.to_le_bytes());
                let mut image = header;
                image.extend_from_slice(&noise);
                image.resize(ss * sectors as usize, 0xFF);
                for (s, sector) in image.chunks(ss).enumerate() {
                    dev.write_sector(s as u64, sector).unwrap();
                }
                let len = dev.len_sectors();
                let got = PartitionTable::open(Box::new(dev));
                let sound = ss >= MIN_SECTOR
                    && image.starts_with(MAGIC)
                    && stored_ss.is_none_or(|s| s as usize == ss)
                    && chunk > 0
                    && dir > 0
                    && (dir as u64) < len;
                prop_assert_eq!(got.is_ok(), sound, "{:?}", got.as_ref().err());
                if let Ok(table) = got {
                    // Every partition reads and writes through the maps it
                    // rebuilt without panicking.
                    let mut buf = vec![0u8; ss];
                    for part in [PART_WAL, PART_VFS, PART_HEAP, 7] {
                        let mut h = table.handle(part);
                        let _ = h.len_sectors();
                        for sector in 0..4 * chunk as u64 {
                            let _ = h.read_sector(sector, &mut buf);
                            let _ = h.write_sector(sector, &buf);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn directory_overflow_is_a_clean_error() {
        // 16 bytes/sector → 2 entries/sector → 2 chunks with 1 dir sector.
        let table =
            PartitionTable::create(Box::new(MemDevice::with_sector_size(16)), 1, 1).unwrap();
        let mut h = table.handle(PART_WAL);
        h.write_sector(0, &[1u8; 16]).unwrap();
        h.write_sector(1, &[2u8; 16]).unwrap();
        assert!(matches!(h.write_sector(2, &[3u8; 16]), Err(BlockError::Io(_))));
        // Existing data is untouched by the failed growth.
        let mut buf = vec![0u8; 16];
        h.read_sector(0, &mut buf).unwrap();
        assert_eq!(buf, vec![1u8; 16]);
    }
}
