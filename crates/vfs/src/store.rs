//! The backing store: a sharded in-memory inode tree playing the role of
//! the device's flash storage.
//!
//! The store knows nothing about mounts, namespaces, or union views — it is
//! the "raw disk" that branches and bind mounts reference by *host path*.
//! All higher-level policy (Maxoid views, permissions at the app-facing
//! layer) is built on top in [`crate::union`] and [`crate::fs`].
//!
//! # Sharding
//!
//! The inode table is split into [`STORE_SHARDS`] shards, each behind its
//! own `RwLock`, so file operations on different tenants' branch trees
//! proceed without contending on one global store lock. An inode id maps to
//! its shard by `id % STORE_SHARDS`; the slot within the shard is
//! `id / STORE_SHARDS`. Every method takes `&self` — interior mutability
//! replaced the old `&mut Store` facade.
//!
//! **Deterministic allocation.** Journal replay addresses inodes by id
//! (`WriteInode` records), so a replayed store must reproduce the exact ids
//! the live store handed out. Creations therefore allocate in the shard
//! chosen by a *hash of the full path being created* — a pure function of
//! the operation, not of thread timing — and each shard's free list is
//! LIFO. Because the journal record is emitted while the operation still
//! holds its shard write guards, the journal's per-shard record order
//! equals the per-shard allocation order, and sequential replay reproduces
//! identical ids.
//!
//! **Lock protocol.** Multi-shard operations (create, unlink, rename,
//! copy-up targets) resolve their paths optimistically under transient
//! per-step read locks, compute the involved shard set, then acquire the
//! write guards in ascending shard order ([`Store::lock_shards`]). Under
//! the guards the operation re-validates what it resolved (parent still a
//! live directory, entry still maps to the expected id); on mismatch it
//! drops the guards and retries. No lock is ever acquired after the shard
//! set is taken, which is what makes the ascending order deadlock-free.
//!
//! **Sharded visibility generations.** Union resolution caches used to
//! validate against one global generation counter, which a sharded store
//! would turn into a false-sharing hot spot — and a single counter
//! invalidates *every* tenant's cache on *any* namespace change. Instead
//! the store keeps [`VIS_SHARDS`] generation counters keyed by a hash of
//! the first [`VIS_PREFIX_COMPONENTS`] path components. A namespace
//! mutation at `p` bumps the counters for each prefix of `p` up to that
//! depth; a union branch rooted at host `h` validates against the single
//! counter for `h`'s prefix ([`Store::vis_branch_shard`] +
//! [`Store::vis_stamp`]). The one operation that can move a whole subtree
//! *across* prefixes — renaming a directory — bumps every counter.

use crate::cred::{Mode, Uid};
use crate::error::{VfsError, VfsResult};
use crate::path::VPath;
use maxoid_block::{BlockDevice, CacheStats, Extent, SpillTier};
use maxoid_journal::codec::{ByteReader, Put};
use maxoid_journal::{Delta, Journal, Record, VfsRecord};
use parking_lot::{RwLock, RwLockWriteGuard};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of inode-table shards. A power of two so `id % STORE_SHARDS`
/// compiles to a mask; 16 keeps per-shard contention negligible for the
/// fleet sizes the `fleet` bench drives while the all-shard operations
/// (dirty images) stay cheap.
pub const STORE_SHARDS: usize = 16;

/// Number of namespace-visibility generation counters.
pub const VIS_SHARDS: usize = 64;

/// Path-prefix depth the visibility counters are keyed on. Union branch
/// hosts in this system live at depths 2–5; the deepest per-tenant
/// discriminator sits at component 4 (`/backing/ext/apps/<init>/tmp`,
/// `/backing/npriv/<init>/<pkg>`), so four components is the shallowest
/// keying at which distinct tenants' branches map to distinct counters —
/// at three, every tenant's external branches collapse onto the one
/// `backing/ext/apps` counter and any tenant's volatile write
/// invalidates the whole fleet's resolution caches.
pub const VIS_PREFIX_COMPONENTS: usize = 4;

/// Identifier of an inode within the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InodeId(pub u64);

/// The shard an inode id lives in.
pub fn shard_of(id: InodeId) -> usize {
    (id.0 as usize) % STORE_SHARDS
}

/// The slot index of an inode id within its shard.
fn local_of(id: InodeId) -> usize {
    (id.0 / STORE_SHARDS as u64) as usize
}

/// Reassembles a global inode id from (shard, local slot).
fn global_id(shard: usize, local: usize) -> InodeId {
    InodeId((local * STORE_SHARDS + shard) as u64)
}

fn djb2(bytes: &[u8]) -> u64 {
    bytes.iter().fold(5381u64, |h, &b| h.wrapping_mul(33) ^ b as u64)
}

/// The shard a *creation at this path* allocates its inode in. A pure
/// function of the path so journal replay allocates identically.
pub fn shard_of_path(path: &VPath) -> usize {
    (djb2(path.as_str().as_bytes()) % STORE_SHARDS as u64) as usize
}

/// Metadata common to files and directories.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Metadata {
    /// Owning uid.
    pub owner: Uid,
    /// Permission bits.
    pub mode: Mode,
    /// Logical modification counter (monotonic store-wide clock).
    pub mtime: u64,
    /// Size in bytes (0 for directories).
    pub size: u64,
    /// True when the node is a directory.
    pub is_dir: bool,
}

/// Where a file's bytes live: inline in the inode, or spilled to an
/// extent of the store's spill tier.
///
/// Small payloads (at or below the store's spill threshold) and every
/// payload of a device-less store stay [`FileData::Resident`]. Larger
/// payloads on a block-backed store are written to an extent behind the
/// page cache, keeping the inode table itself small while content
/// competes for the fixed page budget. A clone shares the extent, and the
/// last one dropped frees its sectors.
#[derive(Debug, Clone)]
pub(crate) enum FileData {
    /// Bytes held inline.
    Resident(Vec<u8>),
    /// Bytes spilled to an extent (the file is its written bytes).
    Paged(Arc<Extent>),
}

impl FileData {
    /// Content length in bytes, without touching the device.
    fn len(&self) -> u64 {
        match self {
            FileData::Resident(d) => d.len() as u64,
            FileData::Paged(e) => e.written(),
        }
    }

    /// Materializes the content regardless of representation. Device I/O
    /// failure on the spill tier is fatal: the device is process-lifetime
    /// scratch (content is rebuilt from the WAL on recovery), so losing it
    /// mid-run is equivalent to losing RAM.
    fn load(&self) -> Vec<u8> {
        match self {
            FileData::Resident(d) => d.clone(),
            FileData::Paged(e) => {
                let mut out = vec![0u8; e.written() as usize];
                e.read(0, &mut out).expect("vfs spill device read failed");
                out
            }
        }
    }
}

/// A node in the backing store.
#[derive(Debug, Clone)]
pub(crate) enum Inode {
    /// A regular file with its contents.
    File {
        /// File bytes (inline or spilled to the block device).
        data: FileData,
        /// Owner uid.
        owner: Uid,
        /// Permission bits.
        mode: Mode,
        /// Logical mtime.
        mtime: u64,
    },
    /// A directory mapping names to child inodes.
    Dir {
        /// Sorted child map.
        entries: BTreeMap<String, InodeId>,
        /// Owner uid.
        owner: Uid,
        /// Permission bits.
        mode: Mode,
        /// Logical mtime.
        mtime: u64,
    },
}

impl Inode {
    fn meta(&self) -> Metadata {
        match self {
            Inode::File { data, owner, mode, mtime } => Metadata {
                owner: *owner,
                mode: *mode,
                mtime: *mtime,
                size: data.len(),
                is_dir: false,
            },
            Inode::Dir { owner, mode, mtime, .. } => {
                Metadata { owner: *owner, mode: *mode, mtime: *mtime, size: 0, is_dir: true }
            }
        }
    }
}

/// A directory entry returned by [`Store::read_dir`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Entry name within its directory.
    pub name: String,
    /// True when the entry is a directory.
    pub is_dir: bool,
}

/// Point-in-time store composition counters (see [`Store::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Files whose bytes are inline in the inode table.
    pub resident_files: u64,
    /// Total bytes held inline.
    pub resident_bytes: u64,
    /// Files spilled to the block device.
    pub spilled_files: u64,
    /// Total logical bytes spilled (device usage is this, page-rounded).
    pub spilled_bytes: u64,
    /// Page-cache counters, when a block device is attached.
    pub cache: Option<CacheStats>,
    /// Fixed page-cache budget in bytes (memory bound for spilled content).
    pub cache_budget_bytes: u64,
}

/// One shard of the inode table: the slots whose global ids are congruent
/// to this shard's index, a LIFO free list of those ids, and the dirty set
/// incremental checkpoints drain.
struct Shard {
    /// Slot `l` holds the inode with global id `l * STORE_SHARDS + idx`.
    slots: Vec<Option<Inode>>,
    /// Freed ids available for reuse, LIFO (global ids, all in this shard).
    free: Vec<InodeId>,
    /// Global ids mutated since the last [`DirtyImage::clear`].
    /// Deallocated slots stay in the set (the delta must record the
    /// tombstone).
    dirty: BTreeSet<u64>,
}

impl Shard {
    fn empty() -> Self {
        Shard { slots: Vec::new(), free: Vec::new(), dirty: BTreeSet::new() }
    }

    fn get(&self, id: InodeId) -> Option<&Inode> {
        self.slots.get(local_of(id)).and_then(|s| s.as_ref())
    }

    fn get_mut(&mut self, id: InodeId) -> Option<&mut Inode> {
        self.slots.get_mut(local_of(id)).and_then(|s| s.as_mut())
    }

    fn alloc(&mut self, idx: usize, inode: Inode) -> InodeId {
        let id = if let Some(id) = self.free.pop() {
            self.slots[local_of(id)] = Some(inode);
            id
        } else {
            let id = global_id(idx, self.slots.len());
            self.slots.push(Some(inode));
            id
        };
        self.dirty.insert(id.0);
        id
    }

    fn dealloc(&mut self, id: InodeId) {
        if let Some(slot) = self.slots.get_mut(local_of(id)) {
            *slot = None;
            self.free.push(id);
            self.dirty.insert(id.0);
        }
    }
}

/// The store held still by [`Store::dirty_image`]: every shard's write
/// guard, for as long as a checkpoint writes the store's dirty image into
/// the journal and makes it durable.
pub struct DirtyImage<'a> {
    store: &'a Store,
    guards: Vec<RwLockWriteGuard<'a, Shard>>,
}

impl DirtyImage<'_> {
    /// The shards with a non-empty dirty set, with their indices.
    fn dirty_shards(&self) -> impl Iterator<Item = (usize, &Shard)> {
        self.guards
            .iter()
            .enumerate()
            .map(|(idx, sh)| (idx, &**sh))
            .filter(|(_, sh)| !sh.dirty.is_empty())
    }

    /// Empties every dirty set, once the image is durable, and lets the
    /// store go. An image that never became durable is dropped instead,
    /// so the next one still covers its inodes.
    pub fn clear(mut self) {
        for sh in &mut self.guards {
            sh.dirty.clear();
        }
    }
}

/// The *incremental* image — root, clock, and for each shard with a
/// non-empty dirty set: its slot count, the dirtied slots (id-tagged,
/// tombstones included) and its full free list. Shards without dirty
/// slots are omitted entirely; that is sound because alloc and dealloc
/// always dirty the slot they touch, so a free list can never change
/// without its shard appearing in the delta. Applying the images in
/// checkpoint order to [`Store::new`] reproduces the exact store. A store
/// built from `Store::new` with no image ever cleared has every slot in
/// its dirty set (`new` dirties the root; alloc, dealloc, touch and an
/// applied image dirty what they change), so its image is the whole
/// store, allocation state included: the one image a compaction writes.
/// Its length is counted from the inodes, so a checkpoint frames
/// it before writing it, and a spilled file's content is written a page
/// at a time.
impl Delta for DirtyImage<'_> {
    fn encoded_len(&self) -> usize {
        let mut n = 8 + 8 + 4 + 4;
        for (_, sh) in self.dirty_shards() {
            n += 4 + 4 + 4 + 4 + 8 * sh.free.len();
            for &id in &sh.dirty {
                n += 8 + slot_len(sh.slots.get(local_of(InodeId(id))).and_then(|s| s.as_ref()));
            }
        }
        n
    }

    fn write_to(&self, w: &mut dyn Put) {
        let store = self.store;
        w.put_u64(store.root.load(Ordering::Relaxed));
        w.put_u64(store.clock.load(Ordering::Relaxed));
        w.put_u32(STORE_SHARDS as u32);
        w.put_u32(self.dirty_shards().count() as u32);
        for (idx, sh) in self.dirty_shards() {
            w.put_u32(idx as u32);
            w.put_u32(sh.slots.len() as u32);
            w.put_u32(sh.dirty.len() as u32);
            for &id in &sh.dirty {
                w.put_u64(id);
                let slot = sh.slots.get(local_of(InodeId(id))).and_then(|s| s.as_ref());
                write_slot(w, slot);
            }
            w.put_u32(sh.free.len() as u32);
            for id in &sh.free {
                w.put_u64(id.0);
            }
        }
    }
}

/// Write guards over the shard set one multi-shard operation touches,
/// acquired in ascending shard order by [`Store::lock_shards`]. All inode
/// access during the mutation goes through this, which statically rules
/// out touching a shard the operation did not declare.
struct Locked<'a> {
    guards: Vec<(usize, RwLockWriteGuard<'a, Shard>)>,
}

impl Locked<'_> {
    fn shard(&self, idx: usize) -> &Shard {
        &self.guards.iter().find(|(i, _)| *i == idx).expect("shard not in lock set").1
    }

    fn shard_mut(&mut self, idx: usize) -> &mut Shard {
        &mut self.guards.iter_mut().find(|(i, _)| *i == idx).expect("shard not in lock set").1
    }

    fn get(&self, id: InodeId) -> VfsResult<&Inode> {
        self.shard(shard_of(id)).get(id).ok_or(VfsError::NotFound)
    }

    fn get_mut(&mut self, id: InodeId) -> VfsResult<&mut Inode> {
        self.shard_mut(shard_of(id)).get_mut(id).ok_or(VfsError::NotFound)
    }

    fn alloc_in(&mut self, idx: usize, inode: Inode) -> InodeId {
        self.shard_mut(idx).alloc(idx, inode)
    }

    fn dealloc(&mut self, id: InodeId) {
        self.shard_mut(shard_of(id)).dealloc(id);
    }

    fn touch(&mut self, id: InodeId) {
        self.shard_mut(shard_of(id)).dirty.insert(id.0);
    }

    /// Looks up `name` under a parent that must be a live directory.
    /// `Err(NotFound)` means the parent vanished (caller retries);
    /// `Err(NotADirectory)` means it is a file.
    fn entry(&self, parent: InodeId, name: &str) -> VfsResult<Option<InodeId>> {
        match self.get(parent)? {
            Inode::Dir { entries, .. } => Ok(entries.get(name).copied()),
            Inode::File { .. } => Err(VfsError::NotADirectory),
        }
    }

    /// Inserts (or replaces) `name -> child` in a parent directory and
    /// stamps the parent's mtime. The parent must be a live directory.
    fn link(&mut self, parent: InodeId, name: String, child: InodeId, mtime: u64) {
        match self.get_mut(parent).expect("parent validated before link") {
            Inode::Dir { entries, mtime: pm, .. } => {
                entries.insert(name, child);
                *pm = mtime;
            }
            Inode::File { .. } => unreachable!("parent validated to be a directory"),
        }
        self.touch(parent);
    }

    /// Removes `name` from a parent directory and stamps its mtime.
    fn unlink_entry(&mut self, parent: InodeId, name: &str, mtime: u64) {
        match self.get_mut(parent).expect("parent validated before unlink") {
            Inode::Dir { entries, mtime: pm, .. } => {
                entries.remove(name);
                *pm = mtime;
            }
            Inode::File { .. } => unreachable!("parent validated to be a directory"),
        }
        self.touch(parent);
    }
}

/// The in-memory backing store, sharded for concurrent access.
///
/// Host paths are plain [`VPath`]s resolved from the store root; the store
/// performs **no permission checks** — it is below the layer where Android
/// UIDs matter. Callers that need checks use [`crate::fs::Vfs`].
pub struct Store {
    shards: Vec<RwLock<Shard>>,
    /// Root inode id (always 0 in practice; atomic only so an applied
    /// image can adopt the image's value through `&self`).
    root: AtomicU64,
    /// Logical store-wide clock.
    clock: AtomicU64,
    /// Optional journal; when attached, every successful leaf mutation
    /// emits a physical [`VfsRecord`]. Behind its own `RwLock` (taken
    /// *after* shard guards, before the journal) so attach/detach work
    /// through `&self`.
    journal: RwLock<Option<Journal>>,
    /// Namespace-visibility generations, sharded by path prefix: advanced
    /// by every mutation that can change *which* paths exist (create,
    /// unlink, rmdir, rename, an applied image) but not by content-only
    /// writes or appends. Union path-resolution caches validate against
    /// the counters for their branch hosts' prefixes, so one tenant's
    /// namespace changes no longer invalidate every other tenant's cache.
    vis: Vec<AtomicU64>,
    /// Optional block-device tier for large file payloads. Its mutex is a
    /// leaf: taken under shard guards (a read, a store, a dropped extent),
    /// with nothing taken under it.
    spill: Option<SpillTier>,
    /// Payloads strictly larger than this spill to the device. Irrelevant
    /// when `spill` is `None` (everything stays resident).
    spill_threshold: usize,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Store")
            .field("shards", &self.shards.len())
            .field("inodes", &self.inode_count())
            .field("clock", &self.clock.load(Ordering::Relaxed))
            .field("paged", &self.spill.is_some())
            .field("spill_threshold", &self.spill_threshold)
            .finish()
    }
}

impl Default for Store {
    fn default() -> Self {
        Self::new()
    }
}

/// Default spill threshold for block-backed stores: payloads up to this
/// size stay inline; anything larger goes to device pages.
pub const DEFAULT_SPILL_THRESHOLD: usize = 1024;

impl Store {
    /// Creates a store containing only an empty root directory.
    pub fn new() -> Self {
        let shards: Vec<RwLock<Shard>> =
            (0..STORE_SHARDS).map(|_| RwLock::new(Shard::empty())).collect();
        {
            let mut s0 = shards[0].write();
            s0.slots.push(Some(Inode::Dir {
                entries: BTreeMap::new(),
                owner: Uid::ROOT,
                mode: Mode::PUBLIC,
                mtime: 0,
            }));
            s0.dirty.insert(0);
        }
        Store {
            shards,
            root: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            journal: RwLock::new(None),
            vis: (0..VIS_SHARDS).map(|_| AtomicU64::new(0)).collect(),
            spill: None,
            spill_threshold: usize::MAX,
        }
    }

    /// Creates a store that spills file payloads larger than `threshold`
    /// bytes to `dev` behind a `pages`-page cache. The device is volatile
    /// scratch for the live tree — durability still comes from the journal
    /// — so page-resident memory for content is bounded by the cache
    /// budget no matter how large the working set grows.
    pub fn with_block_device(dev: Box<dyn BlockDevice>, pages: usize, threshold: usize) -> Self {
        let mut s = Store::new();
        s.spill = Some(SpillTier::new(dev, pages));
        s.spill_threshold = threshold;
        s
    }

    /// Chooses a representation for `bytes` and stores it: inline when
    /// small (or when the store has no device), spilled to a fresh extent
    /// otherwise.
    fn file_data(&self, bytes: &[u8]) -> FileData {
        match &self.spill {
            Some(tier) if bytes.len() > self.spill_threshold => {
                FileData::Paged(tier.store(bytes).expect("vfs spill device write failed"))
            }
            _ => FileData::Resident(bytes.to_vec()),
        }
    }

    /// Point-in-time composition counters: how many files (and bytes) are
    /// inline vs spilled, plus the page-cache counters when a device is
    /// attached. The mirror of `db.stats` for the storage tier.
    pub fn stats(&self) -> StoreStats {
        let mut st = StoreStats::default();
        for shard in &self.shards {
            let sh = shard.read();
            for slot in sh.slots.iter().flatten() {
                if let Inode::File { data, .. } = slot {
                    match data {
                        FileData::Resident(d) => {
                            st.resident_files += 1;
                            st.resident_bytes += d.len() as u64;
                        }
                        FileData::Paged(e) => {
                            st.spilled_files += 1;
                            st.spilled_bytes += e.written();
                        }
                    }
                }
            }
        }
        if let Some(tier) = &self.spill {
            st.cache = Some(tier.stats());
            st.cache_budget_bytes = tier.budget_bytes() as u64;
        }
        st
    }

    // ----- visibility generations -----

    fn vis_prefix_shard(path: &VPath, depth: usize) -> usize {
        let mut h = 5381u64;
        for (i, comp) in path.components().take(depth).enumerate() {
            if i > 0 {
                h = h.wrapping_mul(33) ^ b'/' as u64;
            }
            for &b in comp.as_bytes() {
                h = h.wrapping_mul(33) ^ b as u64;
            }
        }
        (h % VIS_SHARDS as u64) as usize
    }

    /// The visibility counter a union branch rooted at `host` should
    /// validate against, or `None` for a root-level host (which must fall
    /// back to stamping every counter).
    pub fn vis_branch_shard(host: &VPath) -> Option<usize> {
        let n = host.components().count();
        if n == 0 {
            return None;
        }
        Some(Self::vis_prefix_shard(host, n.min(VIS_PREFIX_COMPONENTS)))
    }

    /// Sums the named visibility counters into one validation stamp.
    pub fn vis_stamp(&self, shards: &[usize]) -> u64 {
        shards.iter().map(|&i| self.vis[i].load(Ordering::Acquire)).fold(0u64, u64::wrapping_add)
    }

    /// Bumps the counters covering every branch whose host is a prefix of
    /// `path` (or contains it): each prefix of `path` up to
    /// [`VIS_PREFIX_COMPONENTS`] components. A branch host deeper than
    /// that is keyed on its first `VIS_PREFIX_COMPONENTS` components, so
    /// the deepest bump covers it too.
    fn bump_path(&self, path: &VPath) {
        let n = path.components().count();
        if n == 0 {
            return self.bump_all();
        }
        for depth in 1..=n.min(VIS_PREFIX_COMPONENTS) {
            self.vis[Self::vis_prefix_shard(path, depth)].fetch_add(1, Ordering::Release);
        }
    }

    fn bump_all(&self) {
        for v in &self.vis {
            v.fetch_add(1, Ordering::Release);
        }
    }

    /// Advances the visibility counters covering `path` (every prefix up
    /// to [`VIS_PREFIX_COMPONENTS`] components), invalidating the union
    /// resolution caches that can see that subtree: the leaf mutations
    /// below bump their path prefixes automatically, and coarse events
    /// whose blast radius is one subtree (volatile commit/clear) call
    /// this on top. Unions whose branch hosts share no prefix with `path`
    /// keep their resolution caches.
    pub fn bump_visibility_under(&self, path: &VPath) {
        self.bump_path(path);
    }

    // ----- journal plumbing -----

    /// Attaches a journal; subsequent successful mutations are logged.
    pub fn set_journal(&self, journal: Journal) {
        *self.journal.write() = Some(journal);
    }

    fn emit(&self, rec: VfsRecord) {
        if let Some(j) = &*self.journal.read() {
            j.emit(Record::Vfs(rec));
        }
    }

    /// Returns the root inode id.
    pub fn root(&self) -> InodeId {
        InodeId(self.root.load(Ordering::Relaxed))
    }

    /// Advances and returns the logical clock.
    pub fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Returns the current logical clock without advancing it.
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }

    // ----- locking -----

    /// Acquires write guards for the given shard set in ascending index
    /// order (sorted + deduped), the store's only multi-shard lock path.
    fn lock_shards(&self, mut idxs: Vec<usize>) -> Locked<'_> {
        idxs.sort_unstable();
        idxs.dedup();
        Locked { guards: idxs.into_iter().map(|i| (i, self.shards[i].write())).collect() }
    }

    fn note_retry(&self) {
        maxoid_obs::counter_add("vfs.store.lock_retries", 1);
    }

    /// Runs `f` over a live inode under its shard's read lock.
    fn with_inode<R>(&self, id: InodeId, f: impl FnOnce(&Inode) -> R) -> VfsResult<R> {
        let sh = self.shards[shard_of(id)].read();
        sh.get(id).map(f).ok_or(VfsError::NotFound)
    }

    // ----- reads -----

    /// Resolves a host path to an inode id, taking each step's shard read
    /// lock transiently (never two at once).
    pub fn resolve(&self, path: &VPath) -> VfsResult<InodeId> {
        let mut cur = self.root();
        for comp in path.components() {
            let sh = self.shards[shard_of(cur)].read();
            match sh.get(cur) {
                None => return Err(VfsError::NotFound),
                Some(Inode::Dir { entries, .. }) => {
                    cur = *entries.get(comp).ok_or(VfsError::NotFound)?;
                }
                Some(Inode::File { .. }) => return Err(VfsError::NotADirectory),
            }
        }
        Ok(cur)
    }

    /// Returns true if the host path exists.
    pub fn exists(&self, path: &VPath) -> bool {
        self.resolve(path).is_ok()
    }

    /// Returns metadata for a host path.
    pub fn stat(&self, path: &VPath) -> VfsResult<Metadata> {
        let id = self.resolve(path)?;
        self.with_inode(id, |ino| ino.meta())
    }

    /// Reads the full contents of a file.
    pub fn read(&self, path: &VPath) -> VfsResult<Vec<u8>> {
        let id = self.resolve(path)?;
        self.read_inode(id)
    }

    /// Reads a file by inode id, materializing spilled content through the
    /// page cache (under the inode's shard read lock, so the sectors
    /// cannot be freed out from under the load).
    pub fn read_inode(&self, id: InodeId) -> VfsResult<Vec<u8>> {
        self.with_inode(id, |ino| match ino {
            Inode::File { data, .. } => Ok(data.load()),
            Inode::Dir { .. } => Err(VfsError::IsADirectory),
        })?
    }

    /// Lists a directory's entries in name order. Children are stat'ed
    /// with brief per-child locks after the directory lock is dropped;
    /// entries unlinked mid-listing are skipped rather than erroring.
    pub fn read_dir(&self, path: &VPath) -> VfsResult<Vec<DirEntry>> {
        let id = self.resolve(path)?;
        let entries: Vec<(String, InodeId)> = self.with_inode(id, |ino| match ino {
            Inode::Dir { entries, .. } => {
                Ok(entries.iter().map(|(n, i)| (n.clone(), *i)).collect())
            }
            Inode::File { .. } => Err(VfsError::NotADirectory),
        })??;
        let mut out = Vec::with_capacity(entries.len());
        for (name, child) in entries {
            if let Ok(is_dir) = self.with_inode(child, |ino| ino.meta().is_dir) {
                out.push(DirEntry { name, is_dir });
            }
        }
        Ok(out)
    }

    // ----- mutations -----

    /// Creates a directory; parent must exist.
    pub fn mkdir(&self, path: &VPath, owner: Uid, mode: Mode) -> VfsResult<InodeId> {
        let parent_path = path.parent().ok_or(VfsError::AlreadyExists)?;
        let name = path.file_name().ok_or(VfsError::InvalidArgument)?.to_string();
        let alloc_shard = shard_of_path(path);
        loop {
            let parent = self.resolve(&parent_path)?;
            let mut locked = self.lock_shards(vec![shard_of(parent), alloc_shard]);
            let existing = match locked.entry(parent, &name) {
                Ok(e) => e,
                Err(VfsError::NotFound) => {
                    // Parent vanished between resolve and lock: retry.
                    drop(locked);
                    self.note_retry();
                    continue;
                }
                Err(e) => {
                    self.tick();
                    return Err(e);
                }
            };
            let mtime = self.tick();
            if existing.is_some() {
                return Err(VfsError::AlreadyExists);
            }
            let child = locked
                .alloc_in(alloc_shard, Inode::Dir { entries: BTreeMap::new(), owner, mode, mtime });
            locked.link(parent, name, child, mtime);
            self.bump_path(path);
            self.emit(VfsRecord::Mkdir {
                path: path.as_str().to_string(),
                owner: owner.0,
                mode: mode.to_bits(),
            });
            return Ok(child);
        }
    }

    /// Creates all missing ancestors of `path` and `path` itself as
    /// directories. Existing directories are left untouched; losing a
    /// creation race to a concurrent `mkdir_all` of the same directory is
    /// absorbed (the component exists either way).
    pub fn mkdir_all(&self, path: &VPath, owner: Uid, mode: Mode) -> VfsResult<()> {
        let mut cur = VPath::root();
        for comp in path.components() {
            cur = cur.join(comp)?;
            match self.stat(&cur) {
                Ok(meta) if meta.is_dir => {}
                Ok(_) => return Err(VfsError::NotADirectory),
                Err(VfsError::NotFound) => match self.mkdir(&cur, owner, mode) {
                    Ok(_) => {}
                    Err(VfsError::AlreadyExists) => match self.stat(&cur) {
                        Ok(meta) if meta.is_dir => {}
                        Ok(_) => return Err(VfsError::NotADirectory),
                        Err(e) => return Err(e),
                    },
                    Err(e) => return Err(e),
                },
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Creates or truncates a file with the given contents.
    pub fn write(&self, path: &VPath, data: &[u8], owner: Uid, mode: Mode) -> VfsResult<InodeId> {
        let parent_path = path.parent().ok_or(VfsError::IsADirectory)?;
        let name = path.file_name().ok_or(VfsError::InvalidArgument)?.to_string();
        let alloc_shard = shard_of_path(path);
        loop {
            let parent = self.resolve(&parent_path)?;
            // Peek the existing entry to learn which shards the op needs.
            let peek = match self.with_inode(parent, |ino| match ino {
                Inode::Dir { entries, .. } => Ok(entries.get(&name).copied()),
                Inode::File { .. } => Err(VfsError::NotADirectory),
            }) {
                Ok(Ok(peek)) => peek,
                Ok(Err(e)) => {
                    self.tick();
                    return Err(e);
                }
                Err(_) => {
                    self.note_retry();
                    continue;
                }
            };
            let mut shards = vec![shard_of(parent)];
            match peek {
                Some(id) => shards.push(shard_of(id)),
                None => shards.push(alloc_shard),
            }
            let mut locked = self.lock_shards(shards);
            let existing = match locked.entry(parent, &name) {
                Ok(e) => e,
                Err(VfsError::NotFound) => {
                    drop(locked);
                    self.note_retry();
                    continue;
                }
                Err(e) => {
                    self.tick();
                    return Err(e);
                }
            };
            if existing != peek {
                // The entry changed between peek and lock; the shard set
                // may be wrong. Retry from resolution.
                drop(locked);
                self.note_retry();
                continue;
            }
            let mtime = self.tick();
            let id = if let Some(id) = existing {
                if let Inode::Dir { .. } = locked.get(id)? {
                    return Err(VfsError::IsADirectory);
                }
                let new_fd = self.file_data(data);
                match locked.get_mut(id)? {
                    Inode::File { data: d, mtime: m, .. } => {
                        *d = new_fd;
                        *m = mtime;
                    }
                    _ => unreachable!("checked to be a file above"),
                }
                id
            } else {
                let new_fd = self.file_data(data);
                let id =
                    locked.alloc_in(alloc_shard, Inode::File { data: new_fd, owner, mode, mtime });
                locked.link(parent, name, id, mtime);
                // Creation (not overwrite) makes a new path visible.
                self.bump_path(path);
                id
            };
            locked.touch(id);
            // An overwrite logs the whole new contents, so the old ones
            // are freed unread. Replaying it keeps the file's owner and
            // mode, as the overwrite did.
            self.emit(VfsRecord::Write {
                path: path.as_str().to_string(),
                data: data.to_vec(),
                owner: owner.0,
                mode: mode.to_bits(),
            });
            return Ok(id);
        }
    }

    /// Appends bytes to an existing file. Resident files that stay under
    /// the spill threshold extend in place; anything else (already spilled,
    /// or crossing the threshold) re-stores the whole payload, which may
    /// migrate it to device pages.
    pub fn append(&self, path: &VPath, data: &[u8]) -> VfsResult<()> {
        loop {
            let id = self.resolve(path)?;
            let mut locked = self.lock_shards(vec![shard_of(id)]);
            if locked.get(id).is_err() {
                drop(locked);
                self.note_retry();
                continue;
            }
            let mtime = self.tick();
            let in_place = match locked.get(id)? {
                Inode::File { data: FileData::Resident(d), .. } => {
                    self.spill.is_none() || d.len() + data.len() <= self.spill_threshold
                }
                Inode::File { .. } => false,
                Inode::Dir { .. } => return Err(VfsError::IsADirectory),
            };
            if in_place {
                match locked.get_mut(id)? {
                    Inode::File { data: FileData::Resident(d), mtime: m, .. } => {
                        d.extend_from_slice(data);
                        *m = mtime;
                    }
                    _ => unreachable!("checked resident file above"),
                }
            } else {
                let mut content = match locked.get(id)? {
                    Inode::File { data: d, .. } => d.load(),
                    Inode::Dir { .. } => unreachable!("checked to be a file above"),
                };
                content.extend_from_slice(data);
                let new_fd = self.file_data(&content);
                match locked.get_mut(id)? {
                    Inode::File { data: d, mtime: m, .. } => {
                        *d = new_fd;
                        *m = mtime;
                    }
                    _ => unreachable!("checked to be a file above"),
                }
            }
            locked.touch(id);
            self.emit(VfsRecord::Append { path: path.as_str().to_string(), data: data.to_vec() });
            return Ok(());
        }
    }

    /// Overwrites a file's contents by inode id (used by file handles).
    pub fn write_inode(&self, id: InodeId, data: &[u8]) -> VfsResult<()> {
        let mut locked = self.lock_shards(vec![shard_of(id)]);
        let mtime = self.tick();
        if let Inode::Dir { .. } = locked.get(id)? {
            return Err(VfsError::IsADirectory);
        }
        let new_fd = self.file_data(data);
        match locked.get_mut(id)? {
            Inode::File { data: d, mtime: m, .. } => {
                *d = new_fd;
                *m = mtime;
            }
            _ => unreachable!("checked to be a file above"),
        }
        locked.touch(id);
        self.emit(VfsRecord::WriteInode { inode: id.0, data: data.to_vec() });
        Ok(())
    }

    /// Removes a file.
    pub fn unlink(&self, path: &VPath) -> VfsResult<()> {
        let parent_path = path.parent().ok_or(VfsError::IsADirectory)?;
        let name = path.file_name().ok_or(VfsError::InvalidArgument)?.to_string();
        loop {
            let parent = self.resolve(&parent_path)?;
            let child = self.resolve(path)?;
            let mut locked = self.lock_shards(vec![shard_of(parent), shard_of(child)]);
            match locked.get(child) {
                Err(_) => {
                    drop(locked);
                    self.note_retry();
                    continue;
                }
                Ok(ino) if ino.meta().is_dir => return Err(VfsError::IsADirectory),
                Ok(_) => {}
            }
            match locked.entry(parent, &name) {
                Ok(Some(id)) if id == child => {}
                Err(VfsError::NotADirectory) => {
                    self.tick();
                    return Err(VfsError::NotADirectory);
                }
                _ => {
                    // Parent vanished or the entry moved on: retry.
                    drop(locked);
                    self.note_retry();
                    continue;
                }
            }
            let mtime = self.tick();
            locked.unlink_entry(parent, &name, mtime);
            locked.dealloc(child);
            self.bump_path(path);
            self.emit(VfsRecord::Unlink { path: path.as_str().to_string() });
            return Ok(());
        }
    }

    /// Removes an empty directory.
    pub fn rmdir(&self, path: &VPath) -> VfsResult<()> {
        let parent_path = path.parent().ok_or(VfsError::InvalidArgument)?;
        let name = path.file_name().ok_or(VfsError::InvalidArgument)?.to_string();
        loop {
            let child = self.resolve(path)?;
            let parent = self.resolve(&parent_path)?;
            let mut locked = self.lock_shards(vec![shard_of(parent), shard_of(child)]);
            // Emptiness is re-checked under the child's shard lock: adding
            // an entry to this directory requires that same lock, so the
            // check cannot go stale before the removal below.
            match locked.get(child) {
                Err(_) => {
                    drop(locked);
                    self.note_retry();
                    continue;
                }
                Ok(Inode::Dir { entries, .. }) if entries.is_empty() => {}
                Ok(Inode::Dir { .. }) => return Err(VfsError::NotEmpty),
                Ok(Inode::File { .. }) => return Err(VfsError::NotADirectory),
            }
            match locked.entry(parent, &name) {
                Ok(Some(id)) if id == child => {}
                Err(VfsError::NotADirectory) => {
                    self.tick();
                    return Err(VfsError::NotADirectory);
                }
                _ => {
                    drop(locked);
                    self.note_retry();
                    continue;
                }
            }
            let mtime = self.tick();
            locked.unlink_entry(parent, &name, mtime);
            locked.dealloc(child);
            self.bump_path(path);
            self.emit(VfsRecord::Rmdir { path: path.as_str().to_string() });
            return Ok(());
        }
    }

    /// Recursively removes a directory tree (or a single file). Children
    /// unlinked by concurrent activity mid-walk are tolerated; the named
    /// top-level path itself must exist.
    pub fn remove_all(&self, path: &VPath) -> VfsResult<()> {
        let meta = self.stat(path)?;
        if !meta.is_dir {
            return self.unlink(path);
        }
        let names: Vec<String> = self.read_dir(path)?.into_iter().map(|e| e.name).collect();
        for name in names {
            match self.remove_all(&path.join(&name)?) {
                Ok(()) | Err(VfsError::NotFound) => {}
                Err(e) => return Err(e),
            }
        }
        if path.is_root() {
            Ok(())
        } else {
            self.rmdir(path)
        }
    }

    /// Renames a file or directory within the store. Replacing an existing
    /// file target emits the same two records (Unlink then Rename) the
    /// pre-sharded store produced, so replay formats are unchanged.
    pub fn rename(&self, from: &VPath, to: &VPath) -> VfsResult<()> {
        if to.starts_with(from) && from != to {
            return Err(VfsError::InvalidArgument);
        }
        let from_name = from.file_name().ok_or(VfsError::InvalidArgument)?.to_string();
        let to_name = to.file_name().ok_or(VfsError::InvalidArgument)?.to_string();
        let from_parent_path = from.parent().ok_or(VfsError::InvalidArgument)?;
        let to_parent_path = to.parent().ok_or(VfsError::InvalidArgument)?;
        loop {
            let from_parent = self.resolve(&from_parent_path)?;
            let to_parent = self.resolve(&to_parent_path)?;
            let moved = self.resolve(from)?;
            let replaced = self.resolve(to).ok();
            // The moved inode's shard is in the lock set so its type (file
            // vs directory, for the visibility bump) can be read without
            // acquiring anything after the set is taken.
            let mut shards = vec![shard_of(from_parent), shard_of(to_parent), shard_of(moved)];
            if let Some(r) = replaced {
                shards.push(shard_of(r));
            }
            let mut locked = self.lock_shards(shards);
            let moved_is_dir = match locked.get(moved) {
                Ok(ino) => ino.meta().is_dir,
                Err(_) => {
                    drop(locked);
                    self.note_retry();
                    continue;
                }
            };
            match locked.entry(from_parent, &from_name) {
                Ok(Some(id)) if id == moved => {}
                Err(VfsError::NotADirectory) => {
                    self.tick();
                    return Err(VfsError::NotADirectory);
                }
                _ => {
                    drop(locked);
                    self.note_retry();
                    continue;
                }
            }
            match locked.entry(to_parent, &to_name) {
                Ok(e) if e == replaced => {}
                Err(VfsError::NotADirectory) => {
                    self.tick();
                    return Err(VfsError::NotADirectory);
                }
                _ => {
                    drop(locked);
                    self.note_retry();
                    continue;
                }
            }
            if let Some(rep) = replaced {
                if locked.get(rep)?.meta().is_dir {
                    return Err(VfsError::IsADirectory);
                }
                // Inline unlink of the replaced target: its own tick and
                // journal record, exactly as the nested `unlink` call in
                // the pre-sharded store produced.
                let t = self.tick();
                locked.unlink_entry(to_parent, &to_name, t);
                locked.dealloc(rep);
                self.emit(VfsRecord::Unlink { path: to.as_str().to_string() });
            }
            let mtime = self.tick();
            locked.unlink_entry(from_parent, &from_name, mtime);
            locked.link(to_parent, to_name, moved, mtime);
            if moved_is_dir {
                // A directory rename moves a whole subtree across path
                // prefixes; prefix-keyed bumps cannot cover branches
                // rooted below the old location, so invalidate globally.
                self.bump_all();
            } else {
                self.bump_path(from);
                self.bump_path(to);
            }
            self.emit(VfsRecord::Rename {
                from: from.as_str().to_string(),
                to: to.as_str().to_string(),
            });
            return Ok(());
        }
    }

    /// Copies a single file, preserving owner and mode.
    pub fn copy_file(&self, from: &VPath, to: &VPath) -> VfsResult<()> {
        let meta = self.stat(from)?;
        if meta.is_dir {
            return Err(VfsError::IsADirectory);
        }
        let data = self.read(from)?;
        self.write(to, &data, meta.owner, meta.mode)?;
        Ok(())
    }

    /// Recursively copies a tree, creating `to` and all descendants.
    pub fn copy_all(&self, from: &VPath, to: &VPath) -> VfsResult<()> {
        let meta = self.stat(from)?;
        if !meta.is_dir {
            if let Some(parent) = to.parent() {
                self.mkdir_all(&parent, meta.owner, Mode::PUBLIC)?;
            }
            return self.copy_file(from, to);
        }
        self.mkdir_all(to, meta.owner, meta.mode)?;
        for entry in self.read_dir(from)? {
            self.copy_all(&from.join(&entry.name)?, &to.join(&entry.name)?)?;
        }
        Ok(())
    }

    /// Changes owner and mode of a node.
    pub fn chown_chmod(&self, path: &VPath, owner: Uid, mode: Mode) -> VfsResult<()> {
        loop {
            let id = self.resolve(path)?;
            let mut locked = self.lock_shards(vec![shard_of(id)]);
            match locked.get_mut(id) {
                Err(_) => {
                    drop(locked);
                    self.note_retry();
                    continue;
                }
                Ok(Inode::File { owner: o, mode: m, .. })
                | Ok(Inode::Dir { owner: o, mode: m, .. }) => {
                    *o = owner;
                    *m = mode;
                }
            }
            locked.touch(id);
            self.emit(VfsRecord::ChownChmod {
                path: path.as_str().to_string(),
                owner: owner.0,
                mode: mode.to_bits(),
            });
            return Ok(());
        }
    }

    /// Returns the total number of live inodes (for leak tests).
    pub fn inode_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().slots.iter().filter(|x| x.is_some()).count()).sum()
    }
}

impl Store {
    /// Applies a journal record during recovery by routing it through the
    /// same leaf primitives that produced it. The journal is detached
    /// for the duration so replay does not re-log. Recovery is exclusive:
    /// no concurrent mutators run while records are being applied.
    pub fn apply_journal_record(&self, rec: &VfsRecord) -> VfsResult<()> {
        let saved = self.journal.write().take();
        let res = self.apply_inner(rec);
        *self.journal.write() = saved;
        res
    }

    fn apply_inner(&self, rec: &VfsRecord) -> VfsResult<()> {
        match rec {
            VfsRecord::Mkdir { path, owner, mode } => {
                self.mkdir(&VPath::new(path)?, Uid(*owner), Mode::from_bits(*mode))?;
            }
            VfsRecord::Write { path, data, owner, mode } => {
                self.write(&VPath::new(path)?, data, Uid(*owner), Mode::from_bits(*mode))?;
            }
            VfsRecord::Append { path, data } => self.append(&VPath::new(path)?, data)?,
            VfsRecord::WriteInode { inode, data } => self.write_inode(InodeId(*inode), data)?,
            VfsRecord::Unlink { path } => self.unlink(&VPath::new(path)?)?,
            VfsRecord::Rmdir { path } => self.rmdir(&VPath::new(path)?)?,
            VfsRecord::Rename { from, to } => self.rename(&VPath::new(from)?, &VPath::new(to)?)?,
            VfsRecord::ChownChmod { path, owner, mode } => {
                self.chown_chmod(&VPath::new(path)?, Uid(*owner), Mode::from_bits(*mode))?
            }
        }
        Ok(())
    }

    /// Holds the store still for an incremental checkpoint: takes every
    /// shard's write guard, in ascending order (the multi-shard order), so
    /// no mutation lands between the image written from the returned
    /// [`DirtyImage`] and the journal rewrite that makes it durable. Store
    /// readers wait until it is dropped.
    pub fn dirty_image(&self) -> DirtyImage<'_> {
        DirtyImage { store: self, guards: self.shards.iter().map(|s| s.write()).collect() }
    }

    /// Applies a [`DirtyImage::write_to`] payload on top of the current
    /// contents: listed slots are replaced (or tombstoned), listed shards'
    /// free lists are overwritten, root and clock adopt the delta's
    /// values. Slot tables grow as needed; they never shrink, matching the
    /// live store.
    pub fn apply_dirty_image(&self, image: &[u8]) -> VfsResult<()> {
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.write()).collect();
        let mut r = ByteReader::new(image);
        let bad = |_| VfsError::InvalidArgument;
        let root = r.get_u64().map_err(bad)?;
        let clock = r.get_u64().map_err(bad)?;
        if r.get_u32().map_err(bad)? as usize != STORE_SHARDS {
            return Err(VfsError::InvalidArgument);
        }
        let n_dirty = r.get_u32().map_err(bad)? as usize;
        for _ in 0..n_dirty {
            let idx = r.get_u32().map_err(bad)? as usize;
            if idx >= STORE_SHARDS {
                return Err(VfsError::InvalidArgument);
            }
            let slots_len = r.get_u32().map_err(bad)? as usize;
            let dirty_len = r.get_u32().map_err(bad)? as usize;
            let sh = &mut guards[idx];
            if sh.slots.len() < slots_len {
                sh.slots.resize(slots_len, None);
            }
            for _ in 0..dirty_len {
                let id = r.get_u64().map_err(bad)?;
                let slot = read_slot(&mut r, self)?;
                let local = local_of(InodeId(id));
                if local >= sh.slots.len() {
                    sh.slots.resize(local + 1, None);
                }
                sh.slots[local] = slot;
                sh.dirty.insert(id);
            }
            let fcount = r.get_u32().map_err(bad)? as usize;
            let mut free = Vec::with_capacity(fcount);
            for _ in 0..fcount {
                free.push(InodeId(r.get_u64().map_err(bad)?));
            }
            sh.free = free;
        }
        self.root.store(root, Ordering::Relaxed);
        self.clock.store(clock, Ordering::Relaxed);
        drop(guards);
        self.bump_all();
        Ok(())
    }

    /// Dumps the whole tree as `path -> (is_dir, data, owner, mode bits)`
    /// for state-equivalence checks. Mtimes are deliberately excluded:
    /// failed operations advance the clock but are not journaled, so a
    /// replayed store matches on contents and metadata, not on clock.
    pub fn dump_tree(&self) -> BTreeMap<String, (bool, Vec<u8>, u32, u8)> {
        let mut out = BTreeMap::new();
        self.dump_into(self.root(), &VPath::root(), &mut out);
        out
    }

    fn dump_into(
        &self,
        id: InodeId,
        path: &VPath,
        out: &mut BTreeMap<String, (bool, Vec<u8>, u32, u8)>,
    ) {
        enum Node {
            File(Vec<u8>, u32, u8),
            Dir(Vec<(String, InodeId)>, u32, u8),
        }
        let node = match self.with_inode(id, |ino| match ino {
            Inode::File { data, owner, mode, .. } => {
                Node::File(data.load(), owner.0, mode.to_bits())
            }
            Inode::Dir { entries, owner, mode, .. } => Node::Dir(
                entries.iter().map(|(n, i)| (n.clone(), *i)).collect(),
                owner.0,
                mode.to_bits(),
            ),
        }) {
            Ok(n) => n,
            Err(_) => return,
        };
        match node {
            Node::File(data, owner, mode) => {
                out.insert(path.as_str().to_string(), (false, data, owner, mode));
            }
            Node::Dir(children, owner, mode) => {
                out.insert(path.as_str().to_string(), (true, Vec::new(), owner, mode));
                for (name, child) in children {
                    if let Ok(p) = path.join(&name) {
                        self.dump_into(child, &p, out);
                    }
                }
            }
        }
    }
}

/// Serializes one inode slot: 0 = empty, 1 = file, 2 = directory. File
/// content is always materialized, so the image
/// bytes are identical whether payloads were resident or spilled — backend
/// equivalence at the serialization boundary. Spilled content reaches `w`
/// one page at a time, each copied out of the cache before `w` sees it,
/// so the tier mutex stays a leaf.
fn write_slot(w: &mut dyn Put, slot: Option<&Inode>) {
    match slot {
        None => w.put_u8(0),
        Some(Inode::File { data, owner, mode, mtime }) => {
            w.put_u8(1);
            match data {
                FileData::Resident(d) => w.put_bytes(d),
                FileData::Paged(e) => {
                    let len = e.written();
                    w.put_u32(len as u32);
                    let ps = e.page_size() as u64;
                    let mut page = vec![0u8; ps.min(len) as usize];
                    for off in (0..len).step_by(ps as usize) {
                        let n = ps.min(len - off) as usize;
                        e.read(off, &mut page[..n]).expect("vfs spill device read failed");
                        w.put_raw(&page[..n]);
                    }
                }
            }
            w.put_u32(owner.0);
            w.put_u8(mode.to_bits());
            w.put_u64(*mtime);
        }
        Some(Inode::Dir { entries, owner, mode, mtime }) => {
            w.put_u8(2);
            w.put_u32(entries.len() as u32);
            for (name, id) in entries {
                w.put_str(name);
                w.put_u64(id.0);
            }
            w.put_u32(owner.0);
            w.put_u8(mode.to_bits());
            w.put_u64(*mtime);
        }
    }
}

/// The bytes [`write_slot`] writes for `slot`.
fn slot_len(slot: Option<&Inode>) -> usize {
    match slot {
        None => 1,
        Some(Inode::File { data, .. }) => 1 + 4 + data.len() as usize + 4 + 1 + 8,
        Some(Inode::Dir { entries, .. }) => {
            let names: usize = entries.keys().map(|name| 4 + name.len() + 8).sum();
            1 + 4 + names + 4 + 1 + 8
        }
    }
}

fn read_slot(r: &mut ByteReader<'_>, store: &Store) -> VfsResult<Option<Inode>> {
    let bad = |_| VfsError::InvalidArgument;
    match r.get_u8().map_err(bad)? {
        0 => Ok(None),
        1 => {
            let data = r.get_bytes().map_err(bad)?;
            let owner = Uid(r.get_u32().map_err(bad)?);
            let mode = Mode::from_bits(r.get_u8().map_err(bad)?);
            let mtime = r.get_u64().map_err(bad)?;
            let data = store.file_data(&data);
            Ok(Some(Inode::File { data, owner, mode, mtime }))
        }
        2 => {
            let count = r.get_u32().map_err(bad)? as usize;
            let mut entries = BTreeMap::new();
            for _ in 0..count {
                let name = r.get_str().map_err(bad)?;
                let id = InodeId(r.get_u64().map_err(bad)?);
                entries.insert(name, id);
            }
            let owner = Uid(r.get_u32().map_err(bad)?);
            let mode = Mode::from_bits(r.get_u8().map_err(bad)?);
            let mtime = r.get_u64().map_err(bad)?;
            Ok(Some(Inode::Dir { entries, owner, mode, mtime }))
        }
        _ => Err(VfsError::InvalidArgument),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::vpath;
    use maxoid_journal::codec::ByteWriter;
    use std::sync::Arc;

    fn store_with(paths: &[(&str, &str)]) -> Store {
        let s = Store::new();
        for (p, content) in paths {
            let vp = vpath(p);
            s.mkdir_all(&vp.parent().unwrap(), Uid::ROOT, Mode::PUBLIC).unwrap();
            s.write(&vp, content.as_bytes(), Uid::ROOT, Mode::PUBLIC).unwrap();
        }
        s
    }

    #[test]
    fn write_read_roundtrip() {
        let s = store_with(&[("/a/b/c.txt", "hello")]);
        assert_eq!(s.read(&vpath("/a/b/c.txt")).unwrap(), b"hello");
        assert_eq!(s.read(&vpath("/a/b/missing")).err(), Some(VfsError::NotFound));
    }

    #[test]
    fn append_extends() {
        let s = store_with(&[("/f", "ab")]);
        s.append(&vpath("/f"), b"cd").unwrap();
        assert_eq!(s.read(&vpath("/f")).unwrap(), b"abcd");
        assert_eq!(s.append(&vpath("/g"), b"x").err(), Some(VfsError::NotFound));
    }

    #[test]
    fn mkdir_semantics() {
        let s = Store::new();
        s.mkdir(&vpath("/d"), Uid::ROOT, Mode::PUBLIC).unwrap();
        assert_eq!(
            s.mkdir(&vpath("/d"), Uid::ROOT, Mode::PUBLIC).err(),
            Some(VfsError::AlreadyExists)
        );
        assert_eq!(
            s.mkdir(&vpath("/x/y"), Uid::ROOT, Mode::PUBLIC).err(),
            Some(VfsError::NotFound)
        );
        s.mkdir_all(&vpath("/x/y/z"), Uid::ROOT, Mode::PUBLIC).unwrap();
        assert!(s.stat(&vpath("/x/y/z")).unwrap().is_dir);
    }

    #[test]
    fn unlink_and_rmdir() {
        let s = store_with(&[("/d/f", "x")]);
        assert_eq!(s.rmdir(&vpath("/d")).err(), Some(VfsError::NotEmpty));
        assert_eq!(s.unlink(&vpath("/d")).err(), Some(VfsError::IsADirectory));
        s.unlink(&vpath("/d/f")).unwrap();
        s.rmdir(&vpath("/d")).unwrap();
        assert!(!s.exists(&vpath("/d")));
    }

    #[test]
    fn remove_all_recurses() {
        let s = store_with(&[("/t/a/f1", "1"), ("/t/a/b/f2", "2"), ("/t/f3", "3")]);
        let before = s.inode_count();
        s.remove_all(&vpath("/t")).unwrap();
        assert!(!s.exists(&vpath("/t")));
        assert!(s.inode_count() < before);
    }

    #[test]
    fn rename_moves_and_replaces() {
        let s = store_with(&[("/a/f", "new"), ("/b/g", "old")]);
        s.rename(&vpath("/a/f"), &vpath("/b/g")).unwrap();
        assert_eq!(s.read(&vpath("/b/g")).unwrap(), b"new");
        assert!(!s.exists(&vpath("/a/f")));
        // Renaming a directory into itself is rejected.
        assert_eq!(s.rename(&vpath("/b"), &vpath("/b/sub")).err(), Some(VfsError::InvalidArgument));
    }

    #[test]
    fn copy_all_preserves_tree() {
        let s = store_with(&[("/src/a/f", "1"), ("/src/g", "2")]);
        s.copy_all(&vpath("/src"), &vpath("/dst")).unwrap();
        assert_eq!(s.read(&vpath("/dst/a/f")).unwrap(), b"1");
        assert_eq!(s.read(&vpath("/dst/g")).unwrap(), b"2");
        // Source unchanged.
        assert_eq!(s.read(&vpath("/src/a/f")).unwrap(), b"1");
    }

    #[test]
    fn stat_reports_size_and_mtime_order() {
        let s = Store::new();
        s.write(&vpath("/f"), b"abc", Uid::ROOT, Mode::PUBLIC).unwrap();
        let m1 = s.stat(&vpath("/f")).unwrap();
        assert_eq!(m1.size, 3);
        s.append(&vpath("/f"), b"d").unwrap();
        let m2 = s.stat(&vpath("/f")).unwrap();
        assert_eq!(m2.size, 4);
        assert!(m2.mtime > m1.mtime);
    }

    #[test]
    fn journal_replay_rebuilds_identical_tree() {
        use maxoid_journal::{replay, Record};
        let h = Journal::in_memory(1);
        let s = Store::new();
        s.set_journal(h.clone());
        s.mkdir_all(&vpath("/data/app"), Uid(10_001), Mode::PRIVATE).unwrap();
        s.write(&vpath("/data/app/f"), b"v1", Uid(10_001), Mode::PRIVATE).unwrap();
        s.append(&vpath("/data/app/f"), b"+2").unwrap();
        let id = s.resolve(&vpath("/data/app/f")).unwrap();
        s.write_inode(id, b"handle-write").unwrap();
        s.write(&vpath("/data/app/g"), b"x", Uid(10_001), Mode::PRIVATE).unwrap();
        s.rename(&vpath("/data/app/g"), &vpath("/data/app/h")).unwrap();
        s.chown_chmod(&vpath("/data/app/h"), Uid::SYSTEM, Mode::WORLD_READABLE).unwrap();
        s.unlink(&vpath("/data/app/h")).unwrap();
        // Failed ops advance the clock but must not be journaled.
        assert!(s.mkdir(&vpath("/data/app"), Uid::ROOT, Mode::PUBLIC).is_err());

        let replayed = Store::new();
        replay(&h.bytes(), |rec| {
            if let Record::Vfs(v) = rec {
                replayed.apply_journal_record(&v).unwrap();
            }
        });
        assert_eq!(replayed.dump_tree(), s.dump_tree());
        assert_eq!(replayed.inode_count(), s.inode_count());
    }

    /// The store's dirty image, its dirty sets left as they are.
    fn image(s: &Store) -> Vec<u8> {
        let mut w = ByteWriter::new();
        s.dirty_image().write_to(&mut w);
        w.into_bytes()
    }

    #[test]
    fn dirty_image_roundtrip_is_exact() {
        // A store whose image was never cleared has every slot dirty, so
        // its dirty image is the whole store.
        let s = store_with(&[("/a/f", "1"), ("/b/g", "2")]);
        s.unlink(&vpath("/a/f")).unwrap(); // leave a hole in the inode table
        let restored = Store::new();
        restored.apply_dirty_image(&image(&s)).unwrap();
        assert_eq!(restored.dump_tree(), s.dump_tree());
        // Allocation state is preserved: the next alloc reuses the hole in
        // both stores, keeping later WriteInode replay valid.
        let a = s.write(&vpath("/n"), b"x", Uid::ROOT, Mode::PUBLIC).unwrap();
        let b = restored.write(&vpath("/n"), b"x", Uid::ROOT, Mode::PUBLIC).unwrap();
        assert_eq!(a, b);
        assert_eq!(restored.now(), s.now());
    }

    #[test]
    fn overwrites_replay_exactly() {
        use maxoid_journal::{replay, Record};
        let h = Journal::in_memory(1);
        let s = Store::new();
        s.set_journal(h.clone());
        let mut base = vec![0u8; 4096];
        s.write(&vpath("/f"), &base, Uid::ROOT, Mode::PUBLIC).unwrap();
        // Small in-place change.
        base[100..108].copy_from_slice(b"CHANGED!");
        s.write(&vpath("/f"), &base, Uid::ROOT, Mode::PUBLIC).unwrap();
        // Majority rewrite.
        let rewrite = vec![9u8; 4096];
        s.write(&vpath("/f"), &rewrite, Uid::ROOT, Mode::PUBLIC).unwrap();
        // Through an inode handle.
        let id = s.resolve(&vpath("/f")).unwrap();
        let mut v = rewrite.clone();
        v[0] = 1;
        s.write_inode(id, &v).unwrap();

        // Every overwrite logs the file's whole new contents.
        let mut recs = Vec::new();
        replay(&h.bytes(), |r| recs.push(r));
        let writes: Vec<(&'static str, &[u8])> = recs
            .iter()
            .filter_map(|r| match r {
                Record::Vfs(VfsRecord::Write { data, .. }) => Some(("write", &data[..])),
                Record::Vfs(VfsRecord::WriteInode { data, .. }) => Some(("inode", &data[..])),
                _ => None,
            })
            .collect();
        let zeros = vec![0u8; 4096];
        let want: Vec<(&'static str, &[u8])> =
            vec![("write", &zeros), ("write", &base), ("write", &rewrite), ("inode", &v)];
        assert_eq!(writes, want);

        let replayed = Store::new();
        for rec in recs {
            if let Record::Vfs(v) = rec {
                replayed.apply_journal_record(&v).unwrap();
            }
        }
        assert_eq!(replayed.dump_tree(), s.dump_tree());
    }

    #[test]
    fn dirty_image_chain_matches_full_snapshot() {
        // The dirty image, with the dirty sets emptied as a durable
        // checkpoint empties them.
        let take = |s: &Store| {
            let image = s.dirty_image();
            let mut w = ByteWriter::new();
            image.write_to(&mut w);
            image.clear();
            w.into_bytes()
        };
        let s = store_with(&[("/a/f", "1"), ("/b/g", "2")]);
        let shadow = Store::new();
        let full = take(&s);
        shadow.apply_dirty_image(&full).unwrap();
        assert_eq!(shadow.dump_tree(), s.dump_tree());
        // Mutations between takes produce a small delta that catches the
        // shadow up — including tombstones for freed slots.
        s.write(&vpath("/a/f"), b"updated", Uid::ROOT, Mode::PUBLIC).unwrap();
        s.unlink(&vpath("/b/g")).unwrap();
        s.rename(&vpath("/a/f"), &vpath("/b/h")).unwrap();
        let delta = take(&s);
        assert!(delta.len() < full.len());
        shadow.apply_dirty_image(&delta).unwrap();
        assert_eq!(shadow.dump_tree(), s.dump_tree());
        // Allocation state converged too: next writes allocate identically.
        let a = s.write(&vpath("/n"), b"x", Uid::ROOT, Mode::PUBLIC).unwrap();
        let b = shadow.write(&vpath("/n"), b"x", Uid::ROOT, Mode::PUBLIC).unwrap();
        assert_eq!(a, b);
        assert_eq!(shadow.now(), s.now());
    }

    #[test]
    fn dirty_image_rejects_garbage() {
        let s = Store::new();
        assert_eq!(s.apply_dirty_image(&[1, 2, 3]).err(), Some(VfsError::InvalidArgument));
        // A good image with its shard count, or one shard's index, out of
        // range; and every truncation of it.
        let good = image(&store_with(&[("/a/f", "1")]));
        let mut shards = good.clone();
        shards[16] ^= 1;
        let mut idx = good.clone();
        idx[24..28].copy_from_slice(&(STORE_SHARDS as u32).to_le_bytes());
        for bad in [&shards[..], &idx[..]].into_iter().chain((0..good.len()).map(|n| &good[..n])) {
            assert_eq!(Store::new().apply_dirty_image(bad).err(), Some(VfsError::InvalidArgument));
        }
        Store::new().apply_dirty_image(&good).unwrap();
    }

    fn paged_store(pages: usize, threshold: usize) -> Store {
        Store::with_block_device(Box::new(maxoid_block::MemDevice::new()), pages, threshold)
    }

    /// A memory device that counts the sectors read from it.
    struct CountingDevice(maxoid_block::MemDevice, Arc<AtomicU64>);

    impl BlockDevice for CountingDevice {
        fn sector_size(&self) -> usize {
            self.0.sector_size()
        }

        fn len_sectors(&self) -> u64 {
            self.0.len_sectors()
        }

        fn read_sector(&mut self, sector: u64, buf: &mut [u8]) -> maxoid_block::BlockResult<()> {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.read_sector(sector, buf)
        }

        fn write_sector(&mut self, sector: u64, buf: &[u8]) -> maxoid_block::BlockResult<()> {
            self.0.write_sector(sector, buf)
        }

        fn flush(&mut self) -> maxoid_block::BlockResult<()> {
            self.0.flush()
        }
    }

    #[test]
    fn a_journaled_overwrite_reads_none_of_the_old_file() {
        // A one-page spill cache: by the time a second file is written,
        // all four pages of the first are on the device, not cached.
        let reads = Arc::new(AtomicU64::new(0));
        let dev = CountingDevice(maxoid_block::MemDevice::new(), reads.clone());
        let s = Store::with_block_device(Box::new(dev), 1, 1024);
        let h = Journal::in_memory(1);
        s.set_journal(h.clone());
        s.write(&vpath("/f"), &[1; 16 << 10], Uid::ROOT, Mode::PUBLIC).unwrap();
        s.write(&vpath("/g"), &[2; 16 << 10], Uid::ROOT, Mode::PUBLIC).unwrap();
        let before = reads.load(Ordering::Relaxed);
        s.write(&vpath("/f"), &[3; 16 << 10], Uid::ROOT, Mode::PUBLIC).unwrap();
        assert_eq!(reads.load(Ordering::Relaxed), before, "the overwrite read the old file");
        assert_eq!(s.read(&vpath("/f")).unwrap(), vec![3; 16 << 10]);
    }

    /// Every `put_raw` that reaches a writer, in order.
    #[derive(Default)]
    struct Puts(Vec<Vec<u8>>);

    impl Put for Puts {
        fn put_raw(&mut self, v: &[u8]) {
            self.0.push(v.to_vec());
        }
    }

    #[test]
    fn paged_content_reaches_the_writer_a_page_at_a_time() {
        let s = paged_store(8, 4096);
        let big: Vec<u8> = (0..(3 << 20) + 1234).map(|i| (i % 251) as u8).collect();
        s.write(&vpath("/big"), &big, Uid::ROOT, Mode::PUBLIC).unwrap();
        let image = s.dirty_image();
        let mut puts = Puts::default();
        image.write_to(&mut puts);
        assert!(puts.0.iter().all(|p| p.len() <= 4096), "a put larger than a page");
        // The file's pages arrive in order, one put each.
        let first = puts.0.iter().position(|p| p[..] == big[..4096]).expect("the first page");
        let pages = &puts.0[first..first + big.len().div_ceil(4096)];
        assert_eq!(pages.concat(), big);
        // And the image is the one a buffer would hold.
        let mut w = ByteWriter::new();
        image.write_to(&mut w);
        assert_eq!(puts.0.concat(), w.into_bytes());
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(64))]

        /// A dirty image's reported length is the bytes it writes, over
        /// random stores: resident and paged files, appends across the
        /// spill threshold, directories, unlinks, and dirty sets emptied
        /// by some of the checkpoints in between.
        #[test]
        fn prop_dirty_image_length_is_the_bytes_it_writes(
            ops in proptest::collection::vec((0u8..5, 0u8..8, 0usize..20_000), 1..40),
        ) {
            let s = paged_store(8, 1024);
            for (round, batch) in ops.chunks(8).enumerate() {
                for &(op, f, n) in batch {
                    let dir = vpath(&format!("/d{}", f % 3));
                    let file = vpath(&format!("/d{}/f{f}", f % 3));
                    let _ = s.mkdir_all(&dir, Uid::ROOT, Mode::PUBLIC);
                    let _ = match op {
                        0 | 1 => s.write(&file, &vec![f; n], Uid::ROOT, Mode::PUBLIC).map(drop),
                        2 => s.unlink(&file),
                        3 => s
                            .mkdir_all(&vpath(&format!("/d{}/sub{n}", f % 3)), Uid::ROOT, Mode::PUBLIC)
                            .map(drop),
                        _ => s.append(&file, &vec![f; n % 3000]).map(drop),
                    };
                }
                let image = s.dirty_image();
                let mut w = ByteWriter::new();
                image.write_to(&mut w);
                proptest::prop_assert_eq!(w.len(), image.encoded_len(), "round {}", round);
                if round % 2 == 0 {
                    image.clear();
                }
            }
        }
    }

    #[test]
    fn paged_store_spills_and_reads_back() {
        let s = paged_store(8, 64);
        let small = vec![1u8; 64];
        let big = vec![2u8; 10_000];
        s.write(&vpath("/small"), &small, Uid::ROOT, Mode::PUBLIC).unwrap();
        s.write(&vpath("/big"), &big, Uid::ROOT, Mode::PUBLIC).unwrap();
        assert_eq!(s.read(&vpath("/small")).unwrap(), small);
        assert_eq!(s.read(&vpath("/big")).unwrap(), big);
        let st = s.stats();
        assert_eq!(st.resident_files, 1);
        assert_eq!(st.spilled_files, 1);
        assert_eq!(st.spilled_bytes, 10_000);
        assert!(st.cache.is_some());
    }

    #[test]
    fn paged_append_migrates_across_threshold() {
        let s = paged_store(8, 100);
        s.write(&vpath("/f"), &[7u8; 90], Uid::ROOT, Mode::PUBLIC).unwrap();
        assert_eq!(s.stats().resident_files, 1);
        s.append(&vpath("/f"), &[8u8; 90]).unwrap();
        let st = s.stats();
        assert_eq!(st.resident_files, 0);
        assert_eq!(st.spilled_files, 1);
        let mut want = vec![7u8; 90];
        want.extend_from_slice(&[8u8; 90]);
        assert_eq!(s.read(&vpath("/f")).unwrap(), want);
    }

    #[test]
    fn unlink_releases_sectors_for_reuse() {
        let s = paged_store(4, 0);
        let payload = vec![3u8; 4096 * 3];
        s.write(&vpath("/a"), &payload, Uid::ROOT, Mode::PUBLIC).unwrap();
        s.unlink(&vpath("/a")).unwrap();
        s.write(&vpath("/b"), &payload, Uid::ROOT, Mode::PUBLIC).unwrap();
        // The second file reuses the first one's sectors: the device never
        // grew past one extent (3 data sectors).
        assert_eq!(s.spill.as_ref().unwrap().next_sector(), 3);
    }

    #[test]
    fn spill_after_churn_gets_contiguous_run() {
        let s = paged_store(4, 0);
        // Six one-page files take sectors 0..6; unlinking f1, f2, f4
        // fragments the free list into runs {1..3} and {4..5}.
        for i in 0..6u8 {
            s.write(&vpath(&format!("/f{i}")), &vec![i; 4096], Uid::ROOT, Mode::PUBLIC).unwrap();
        }
        for i in [1u8, 2, 4] {
            s.unlink(&vpath(&format!("/f{i}"))).unwrap();
        }
        let tier = s.spill.as_ref().unwrap();
        assert_eq!(tier.free_runs(), vec![(1, 2), (4, 1)]);
        // A two-page spill must take the contiguous [1, 2] run — not
        // scatter LIFO across the fragments — and not grow the device.
        s.write(&vpath("/big"), &vec![9u8; 8192], Uid::ROOT, Mode::PUBLIC).unwrap();
        assert_eq!(tier.free_runs(), vec![(4, 1)]);
        assert_eq!(tier.next_sector(), 6);
        assert_eq!(s.read(&vpath("/big")).unwrap(), vec![9u8; 8192]);
    }

    #[test]
    fn working_set_beyond_cache_stays_exact_and_bounded() {
        // 4 pages of cache, 32 spilled files of a page each: 8x the
        // budget. Every file reads back exactly; memory for content is
        // the 4-page budget plus the tiny inode table.
        let s = paged_store(4, 0);
        for i in 0..32 {
            let body = vec![i as u8; 4096];
            s.write(&vpath(&format!("/f{i}")), &body, Uid::ROOT, Mode::PUBLIC).unwrap();
        }
        for i in 0..32 {
            assert_eq!(s.read(&vpath(&format!("/f{i}"))).unwrap(), vec![i as u8; 4096]);
        }
        let st = s.stats();
        assert_eq!(st.spilled_files, 32);
        assert_eq!(st.resident_bytes, 0);
        assert_eq!(st.cache_budget_bytes, 4 * 4096);
        let cache = st.cache.unwrap();
        assert!(cache.evictions > 0, "working set must have churned the cache");
    }

    #[test]
    fn dirty_images_identical_across_backends() {
        let script: &[(&str, &[u8])] =
            &[("/a/f", &[1u8; 5000]), ("/a/g", b"tiny"), ("/b/h", &[9u8; 12_345])];
        let resident = Store::new();
        let paged = paged_store(8, 64);
        for s in [&resident, &paged] {
            for (p, body) in script {
                let vp = vpath(p);
                s.mkdir_all(&vp.parent().unwrap(), Uid::ROOT, Mode::PUBLIC).unwrap();
                s.write(&vp, body, Uid::ROOT, Mode::PUBLIC).unwrap();
            }
        }
        assert_eq!(image(&resident), image(&paged));
        assert_eq!(resident.dump_tree(), paged.dump_tree());
        // Applying a resident image to a paged store spills by threshold
        // and still reads back identically.
        let restored = paged_store(8, 64);
        restored.apply_dirty_image(&image(&resident)).unwrap();
        assert_eq!(restored.dump_tree(), resident.dump_tree());
        assert!(restored.stats().spilled_files >= 2);
    }

    #[test]
    fn inode_reuse_after_dealloc() {
        let s = Store::new();
        s.write(&vpath("/f"), b"x", Uid::ROOT, Mode::PUBLIC).unwrap();
        let count = s.inode_count();
        s.unlink(&vpath("/f")).unwrap();
        s.write(&vpath("/g"), b"y", Uid::ROOT, Mode::PUBLIC).unwrap();
        assert_eq!(s.inode_count(), count);
    }

    // ----- sharding-specific coverage -----

    #[test]
    fn allocation_is_deterministic_across_stores() {
        // Two stores running the same op sequence hand out identical
        // inode ids — the property journal replay depends on.
        let run = |s: &Store| -> Vec<InodeId> {
            let mut ids = Vec::new();
            s.mkdir_all(&vpath("/data/app/pkg"), Uid::ROOT, Mode::PUBLIC).unwrap();
            for i in 0..32 {
                let p = vpath(&format!("/data/app/pkg/f{i}"));
                ids.push(s.write(&p, b"x", Uid::ROOT, Mode::PUBLIC).unwrap());
            }
            for i in (0..32).step_by(3) {
                s.unlink(&vpath(&format!("/data/app/pkg/f{i}"))).unwrap();
            }
            for i in 0..16 {
                let p = vpath(&format!("/data/app/pkg/g{i}"));
                ids.push(s.write(&p, b"y", Uid::ROOT, Mode::PUBLIC).unwrap());
            }
            ids
        };
        let (a, b) = (Store::new(), Store::new());
        assert_eq!(run(&a), run(&b));
        assert_eq!(a.dump_tree(), b.dump_tree());
    }

    #[test]
    fn creations_allocate_in_their_path_shard() {
        let s = Store::new();
        let p = vpath("/file-abc");
        let id = s.write(&p, b"x", Uid::ROOT, Mode::PUBLIC).unwrap();
        assert_eq!(shard_of(id), shard_of_path(&p));
        let d = vpath("/dir-q");
        let id = s.mkdir(&d, Uid::ROOT, Mode::PUBLIC).unwrap();
        assert_eq!(shard_of(id), shard_of_path(&d));
    }

    #[test]
    fn vis_stamps_are_prefix_local() {
        let s = Store::new();
        // Pick two top-level trees whose visibility shards differ (and
        // whose depth-2 creation paths do not collide with the other's
        // branch shard), so the isolation assertion is meaningful.
        let mut pair = None;
        'outer: for i in 0..64 {
            for j in 0..64 {
                if i == j {
                    continue;
                }
                let (pa, pb) = (vpath(&format!("/t{i}")), vpath(&format!("/t{j}")));
                let (sa, sb) =
                    (Store::vis_branch_shard(&pa).unwrap(), Store::vis_branch_shard(&pb).unwrap());
                let deep = Store::vis_branch_shard(&pa.join("f").unwrap()).unwrap();
                if sa != sb && deep != sb {
                    pair = Some((pa, pb, sa, sb));
                    break 'outer;
                }
            }
        }
        let (pa, pb, sa, sb) = pair.expect("some pair of paths must land in distinct vis shards");
        s.mkdir(&pa, Uid::ROOT, Mode::PUBLIC).unwrap();
        s.mkdir(&pb, Uid::ROOT, Mode::PUBLIC).unwrap();
        let (stamp_a, stamp_b) = (s.vis_stamp(&[sa]), s.vis_stamp(&[sb]));
        // A creation under pa bumps pa's branch counter but not pb's.
        s.write(&pa.join("f").unwrap(), b"x", Uid::ROOT, Mode::PUBLIC).unwrap();
        assert_ne!(s.vis_stamp(&[sa]), stamp_a, "own branch stamp must advance");
        assert_eq!(s.vis_stamp(&[sb]), stamp_b, "unrelated branch stamp must not move");
        // Content-only writes never bump any stamp.
        let quiet = s.vis_stamp(&[sa]);
        s.write(&pa.join("f").unwrap(), b"y", Uid::ROOT, Mode::PUBLIC).unwrap();
        s.append(&pa.join("f").unwrap(), b"z").unwrap();
        assert_eq!(s.vis_stamp(&[sa]), quiet);
    }

    #[test]
    fn dir_rename_bumps_every_vis_shard() {
        let s = Store::new();
        s.mkdir_all(&vpath("/a/sub"), Uid::ROOT, Mode::PUBLIC).unwrap();
        s.mkdir(&vpath("/b"), Uid::ROOT, Mode::PUBLIC).unwrap();
        let before: Vec<u64> = (0..VIS_SHARDS).map(|i| s.vis_stamp(&[i])).collect();
        s.rename(&vpath("/a/sub"), &vpath("/b/sub")).unwrap();
        for (i, b) in before.iter().enumerate() {
            assert_ne!(s.vis_stamp(&[i]), *b, "dir rename must invalidate every prefix shard");
        }
    }

    #[test]
    fn concurrent_writers_in_disjoint_trees() {
        use std::sync::Arc;
        let s = Arc::new(Store::new());
        for t in 0..8 {
            s.mkdir_all(&vpath(&format!("/tenant{t}")), Uid::ROOT, Mode::PUBLIC).unwrap();
        }
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    let p = vpath(&format!("/tenant{t}/f{i}"));
                    s.write(&p, format!("{t}:{i}").as_bytes(), Uid(t), Mode::PUBLIC).unwrap();
                    if i % 5 == 0 {
                        s.unlink(&p).unwrap();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for t in 0..8u32 {
            for i in 0..50 {
                let p = vpath(&format!("/tenant{t}/f{i}"));
                if i % 5 == 0 {
                    assert!(!s.exists(&p));
                } else {
                    assert_eq!(s.read(&p).unwrap(), format!("{t}:{i}").as_bytes());
                }
            }
        }
    }
}
