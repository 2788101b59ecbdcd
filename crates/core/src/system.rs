//! The Maxoid system facade: everything wired together.
//!
//! [`MaxoidSystem`] owns the kernel (processes, VFS, network), the branch
//! manager, the Activity Manager, the content resolver with the three
//! ported system providers, the private-state manager, volatile-state
//! management, and the policy services. It is the single object examples,
//! tests and the app models drive — the analogue of a booted device.
//!
//! # Threading model
//!
//! Every entry point takes `&self`, so an `Arc<MaxoidSystem>` can be
//! cloned across threads and driven concurrently — the analogue of many
//! apps running at once on one device. Shared state is sharded behind
//! fine-grained interior locks, and the hot read paths (path resolution,
//! provider queries, `caller`) take only read locks:
//!
//! * kernel process table — pid-hashed `RwLock` shards; the app
//!   registry is an `Arc`-swapped immutable snapshot (reads clone an
//!   `Arc<Process>` out of one shard and release it before doing any
//!   I/O; see DESIGN.md §4.14);
//! * VFS store — inode-hashed shard locks inside
//!   [`maxoid_vfs::Store`]; ops lock only the shards they touch, in
//!   ascending index order (§4.14);
//! * provider table — `RwLock` over per-authority entries. Each entry
//!   holds the provider's **write lock** (`Arc<Mutex<provider>>`) plus a
//!   lock-free read handle: routed queries are served from the
//!   provider's published MVCC snapshot (`maxoid_cowproxy::ReadSlot`)
//!   without the write lock, so reads on *one* authority run in
//!   parallel with each other; mutations serialize on the write lock
//!   and republish a snapshot before releasing it. Different
//!   authorities dispatch in parallel as before;
//! * journal — one [`maxoid_journal::Journal`] handle, shared by every
//!   emitter: a state mutex plus a storage mutex with leader/follower
//!   group commit;
//! * AMS registry (`RwLock`), private-state manager (`Mutex`), services
//!   (leaf mutexes), and a per-initiator gesture lock serializing the
//!   delegation lifecycle of one initiator.
//!
//! **Global lock order** (acquire left-to-right, never right-to-left):
//!
//! ```text
//! per-initiator gesture lock
//!   → AMS registry / private-state manager
//!     → kernel process-table shard (at most one at a time)
//!       → VFS store shards (ascending shard order)
//!         → provider mutexes (ascending authority order)
//!           → journal state → journal storage
//! ```
//!
//! Service mutexes (clipboard, bluetooth, sms) and the obs registry are
//! leaves: nothing is acquired while they are held. The per-initiator
//! lock serializes delegate COW-forks, `commit_vol`, `clear_vol` and
//! `clear_priv` for one initiator while other initiators proceed in
//! parallel. An incremental checkpoint holds every store shard across
//! its journal rewrite (store shards → journal state → storage), so
//! store readers wait out the rewrite. A compaction holds the journal
//! state from its replay through its rewrite (journal state → storage,
//! no store or provider lock), so writers wait out the compaction.

use crate::ams::{ActivityManager, AmsError, Route};
use crate::branch_manager::{BranchLocator, BranchManager};
use crate::intent::{AppIntentFilter, Intent};
use crate::layout;
use crate::manifest::MaxoidManifest;
use crate::private_state::{ForkOutcome, PrivateStateManager};
use crate::services::{BluetoothService, ClipboardService, SmsService};
use crate::volatile::{VolatileEntry, VolatileState};
use maxoid_journal::Journal;
use maxoid_kernel::{AppId, ExecContext, Kernel, KernelError, Pid};
use maxoid_providers::{
    downloads, media, userdict, Caller, ContentResolver, ContentValues, DownloadRequest,
    DownloadsProvider, MediaKind, MediaProvider, ProviderError, ProviderScope, QueryArgs,
    SystemFiles, Uri, UserDictionaryProvider,
};
use maxoid_sqldb::ResultSet;
use maxoid_vfs::{Vfs, VfsResult};
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Top-level error for system operations.
#[derive(Debug)]
pub enum SystemError {
    /// Invocation routing failed.
    Ams(AmsError),
    /// A kernel operation failed.
    Kernel(KernelError),
    /// A filesystem operation failed.
    Fs(maxoid_vfs::VfsError),
    /// A provider operation failed.
    Provider(ProviderError),
    /// A journal operation failed.
    Journal(maxoid_journal::JournalError),
    /// A block-device operation (partition table, storage tier) failed.
    Block(maxoid_block::BlockError),
    /// The log could not be replayed (cold boot or compaction).
    Recovery(String),
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::Ams(e) => write!(f, "ams: {e}"),
            SystemError::Kernel(e) => write!(f, "kernel: {e}"),
            SystemError::Fs(e) => write!(f, "fs: {e}"),
            SystemError::Provider(e) => write!(f, "provider: {e}"),
            SystemError::Journal(e) => write!(f, "journal: {e}"),
            SystemError::Block(e) => write!(f, "block: {e}"),
            SystemError::Recovery(e) => write!(f, "log replay: {e}"),
        }
    }
}

impl std::error::Error for SystemError {}

impl From<AmsError> for SystemError {
    fn from(e: AmsError) -> Self {
        SystemError::Ams(e)
    }
}

impl From<KernelError> for SystemError {
    fn from(e: KernelError) -> Self {
        SystemError::Kernel(e)
    }
}

impl From<maxoid_vfs::VfsError> for SystemError {
    fn from(e: maxoid_vfs::VfsError) -> Self {
        SystemError::Fs(e)
    }
}

impl From<ProviderError> for SystemError {
    fn from(e: ProviderError) -> Self {
        SystemError::Provider(e)
    }
}

impl From<maxoid_journal::JournalError> for SystemError {
    fn from(e: maxoid_journal::JournalError) -> Self {
        SystemError::Journal(e)
    }
}

impl From<maxoid_block::BlockError> for SystemError {
    fn from(e: maxoid_block::BlockError) -> Self {
        SystemError::Block(e)
    }
}

/// Result alias for system operations.
pub type SystemResult<T> = Result<T, SystemError>;

/// A booted Maxoid device: kernel + system services + providers.
///
/// Shareable: every API takes `&self`; wrap in an [`Arc`] to drive it
/// from several threads (see the module docs for the lock order).
pub struct MaxoidSystem {
    /// The kernel (process table, VFS, network).
    pub kernel: Kernel,
    /// The content resolver with all system providers registered.
    pub resolver: ContentResolver,
    /// Clipboard service (per-context instances).
    pub clipboard: ClipboardService,
    /// Bluetooth policy service.
    pub bluetooth: BluetoothService,
    /// SMS policy service.
    pub sms: SmsService,
    /// The Activity Manager (intent routing); registrations are rare,
    /// routing reads are frequent.
    ams: RwLock<ActivityManager>,
    branch_mgr: BranchManager,
    priv_mgr: Mutex<PrivateStateManager>,
    volatile: VolatileState,
    downloads: Arc<Mutex<DownloadsProvider<BranchLocator>>>,
    media: Arc<Mutex<MediaProvider<BranchLocator>>>,
    userdict: Arc<Mutex<UserDictionaryProvider>>,
    downloads_pid: Pid,
    journal: Option<Journal>,
    /// Heap tier provider row payloads page to, when booted from a
    /// device (or attached explicitly).
    heap: Option<maxoid_block::SpillTier>,
    /// Per-initiator gesture locks: COW-fork of a delegate, `commit_vol`,
    /// `clear_vol` and `clear_priv` for one initiator are mutually
    /// exclusive; different initiators run their gestures in parallel.
    /// Entries carry an activity stamp and are swept when the map grows
    /// past [`INIT_LOCK_SOFT_CAP`] or a tenant is evicted, so 10k
    /// one-shot tenants do not pin 10k lock entries forever.
    init_locks: Mutex<BTreeMap<String, GestureEntry>>,
    /// Logical activity clock: ticks once per gesture-lock acquisition.
    /// Tenant idleness is measured in these ticks, not wall time, so the
    /// evictor is deterministic under test.
    activity_clock: std::sync::atomic::AtomicU64,
}

/// A per-initiator gesture lock plus the activity stamp used by the
/// idle-tenant evictor.
#[derive(Debug, Default)]
struct GestureEntry {
    lock: Arc<Mutex<()>>,
    /// Value of `activity_clock` at the last acquisition.
    last_used: u64,
}

/// When the gesture-lock map grows past this many entries, acquiring a
/// lock sweeps every entry no thread currently references (`Arc` strong
/// count 1) and not stamped within [`SWEEP_RETAIN_TICKS`]. The map stays
/// bounded by `cap + concurrently-active tenants`; a swept tenant's next
/// gesture just recreates its entry.
pub const INIT_LOCK_SOFT_CAP: usize = 256;

/// Entries stamped within this many activity-clock ticks survive the
/// soft-cap sweep. Consequently a tenant with volatile state but no map
/// entry is certifiably idle for at least this long — the basis on which
/// [`MaxoidSystem::evict_idle_tenants`] may reclaim swept tenants.
const SWEEP_RETAIN_TICKS: u64 = 128;

// The whole point of the facade: one device shared by many app threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MaxoidSystem>();
};

impl std::fmt::Debug for MaxoidSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaxoidSystem").finish()
    }
}

impl MaxoidSystem {
    /// Boots a Maxoid device: kernel, branch manager, system providers.
    pub fn boot() -> SystemResult<Self> {
        Self::boot_inner(None, Vfs::new())
    }

    /// Boots a Maxoid device with a write-ahead journal attached.
    ///
    /// The journal is wired into the VFS store *before* the branch
    /// manager creates the backing layout and into each provider database
    /// *before* its schema DDL runs, so replaying the log from an empty
    /// substrate ([`crate::durability::recover`]) rebuilds everything —
    /// directory layout, catalogs (tables, indexes, user views) and rows.
    /// The boot-time records are flushed before returning; afterwards
    /// durability follows the journal's group-commit batching.
    /// If the journal already holds records (e.g. it sits on a file-backed
    /// [`maxoid_journal::BlockStorage`] reopened after a restart), boot
    /// instead **cold-boots**: the log is replayed into the fresh substrate
    /// before the journal attaches, then providers adopt the recovered
    /// databases. App installs and UIDs are not journaled — callers
    /// re-install apps after a cold boot.
    pub fn boot_journaled(journal: Journal) -> SystemResult<Self> {
        Self::boot_inner(Some(journal), Vfs::new())
    }

    /// Boots (or cold-boots) a Maxoid device from **one block device**:
    /// a [`maxoid_block::PartitionTable`] multiplexes the image into a
    /// WAL partition (the journal's `BlockStorage`), a VFS spill
    /// partition (large file payloads), and a sqldb heap partition
    /// (large provider tables page their rows through it). An empty
    /// device is formatted; a device carrying an earlier run's image is
    /// reopened and its journal replayed, after which the recovered
    /// provider databases re-adopt the heap tier — tables past the spill
    /// threshold migrate straight back out of resident memory.
    pub fn boot_from_device(
        dev: Box<dyn maxoid_block::BlockDevice>,
        cfg: &DeviceBootConfig,
    ) -> SystemResult<Self> {
        let table =
            maxoid_block::PartitionTable::open_or_create(dev, cfg.chunk_sectors, cfg.dir_sectors)?;
        let wal = maxoid_journal::BlockStorage::open(
            Box::new(table.handle(maxoid_block::PART_WAL)),
            cfg.wal_pages,
        )?;
        let journal = Journal::new(Box::new(wal), cfg.wal_batch)?;
        let vfs = Vfs::with_block_device(
            Box::new(table.handle(maxoid_block::PART_VFS)),
            cfg.vfs_pages,
            cfg.vfs_threshold,
        );
        let mut sys = Self::boot_inner(Some(journal), vfs)?;
        let tier = maxoid_block::SpillTier::new(
            Box::new(table.handle(maxoid_block::PART_HEAP)),
            cfg.heap_pages,
        );
        sys.attach_heap_tier(&tier, cfg.heap_threshold);
        sys.heap = Some(tier);
        Ok(sys)
    }

    /// Attaches `tier` to every system provider database: tables past
    /// `threshold` encoded bytes (now or later) page their rows to it.
    fn attach_heap_tier(&self, tier: &maxoid_block::SpillTier, threshold: usize) {
        self.userdict.lock().proxy_mut().db_mut().attach_heap(tier.clone(), threshold);
        self.downloads.lock().proxy_mut().db_mut().attach_heap(tier.clone(), threshold);
        self.media.lock().proxy_mut().db_mut().attach_heap(tier.clone(), threshold);
    }

    /// The sqldb heap tier, when booted from a device.
    pub fn heap(&self) -> Option<&maxoid_block::SpillTier> {
        self.heap.as_ref()
    }

    fn boot_inner(journal: Option<Journal>, vfs: Vfs) -> SystemResult<Self> {
        let mut sp = maxoid_obs::span("system.boot");
        sp.field("journaled", if journal.is_some() { "true" } else { "false" });

        // Cold boot: the journal was opened over existing storage. Replay
        // the committed log, through one window of it, into the bare VFS
        // *before* the journal is attached (replay must not re-log
        // itself), and keep the recovered provider databases for adoption
        // below. A log that cannot be read fails the boot rather than
        // booting an empty device.
        let mut recovered = None;
        if let Some(j) = journal.as_ref().filter(|j| !j.is_empty()) {
            let vfs = vfs.clone();
            recovered = Some(j.with_flushed(|j| crate::durability::recover_journal(j, vfs))??);
        }
        sp.field("cold_boot", if recovered.is_some() { "true" } else { "false" });

        let kernel = Kernel::with_vfs(vfs);
        if let Some(j) = &journal {
            kernel.vfs().attach_journal(j.clone());
        }
        let branch_mgr = BranchManager::new(kernel.vfs().clone())?;
        let volatile = VolatileState::new(kernel.vfs().clone());
        let files = SystemFiles::new(kernel.vfs().clone(), BranchLocator);

        // The Downloads service's own process: a trusted system app with
        // network access.
        let dl_app = AppId::new("android.providers.downloads");
        kernel.install_app(&dl_app);
        let downloads_pid =
            kernel.spawn(&dl_app, ExecContext::Normal, maxoid_vfs::MountNamespace::new())?;

        // Each system provider is built by its one constructor (journaled
        // when booted with a journal, adopting its recovered database on a
        // cold boot) and registered with its lock-free read handle: the
        // resolver keeps the provider's mutex, and so does the system, for
        // the service APIs (download pump, media scans).
        let mut db = |authority| recovered.as_mut().map(|sub| sub.take_db(authority));
        let resolver = ContentResolver::new();
        let downloads =
            DownloadsProvider::open(files.clone(), journal.clone(), db(downloads::AUTHORITY));
        let downloads = resolver.register(ProviderScope::System, downloads);
        let media = MediaProvider::open(files, journal.clone(), db(media::AUTHORITY));
        let media = resolver.register(ProviderScope::System, media);
        let userdict = UserDictionaryProvider::open(journal.clone(), db(userdict::AUTHORITY));
        let userdict = resolver.register(ProviderScope::System, userdict);

        // Make the boot-time records (layout mkdirs, schema DDL) durable:
        // a crash immediately after boot must still recover the catalogs.
        if let Some(j) = &journal {
            j.flush()?;
        }

        Ok(MaxoidSystem {
            kernel,
            ams: RwLock::new(ActivityManager::new()),
            resolver,
            clipboard: ClipboardService::new(),
            bluetooth: BluetoothService::default(),
            sms: SmsService::default(),
            branch_mgr,
            priv_mgr: Mutex::new(PrivateStateManager::new()),
            volatile,
            downloads,
            media,
            userdict,
            downloads_pid,
            journal,
            heap: None,
            init_locks: Mutex::new(BTreeMap::new()),
            activity_clock: std::sync::atomic::AtomicU64::new(0),
        })
    }

    /// Returns the attached journal, if this system was booted with one.
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Snapshot of the file store's residency and page-cache counters
    /// (the VFS analogue of the SQL layer's `db.stats`).
    pub fn store_stats(&self) -> maxoid_vfs::StoreStats {
        self.kernel.vfs().store_stats()
    }

    /// Incremental checkpoint: serializes only the store state dirtied
    /// since the last checkpoint as a `SnapshotDelta` record and prunes
    /// the physical VFS records it subsumes. The delta scales with the
    /// working set, and the journal scans, filters and replaces only what
    /// was logged since its last rewrite (the retained prefix — earlier
    /// images and the committed SQL history — stays in place), in one
    /// storage write. So the call costs O(bytes logged since the last
    /// checkpoint).
    ///
    /// The store is held still (every shard's write guard) from the image
    /// through the rewrite's commit, and the image streams straight into
    /// the new log on storage, a spilled file a page at a time: no file
    /// write can land between them, so none is dropped from the log
    /// without being in the delta. The dirty sets are emptied only once
    /// the rewrite succeeds; a failed one leaves them for the next.
    pub fn checkpoint_incremental(&self) -> SystemResult<()> {
        if let Some(j) = &self.journal {
            let _sp = maxoid_obs::span("system.checkpoint_incremental");
            self.kernel.vfs().with_store(|s| {
                let image = s.dirty_image();
                j.checkpoint_delta(crate::durability::VFS_COMPONENT, &image)?;
                image.clear();
                Ok::<_, maxoid_journal::JournalError>(())
            })?;
            maxoid_obs::counter_add("system.checkpoints_incremental", 1);
        }
        Ok(())
    }

    /// Compacts the journal: replays the durable log into a scratch
    /// substrate, then rewrites it from empty as catalog DDL + row dumps +
    /// the scratch store's image, so a subsequent recovery replays *live
    /// state* instead of uptime history (see
    /// [`crate::durability::compact`]). Once any in-flight group commit
    /// has landed, the flush, the replay and the rewrite run under one
    /// hold of the journal-state lock, so every record durable before the
    /// rewrite is in the compacted log, and every record appended during
    /// it waits and lands after it. No store or provider lock is taken. A
    /// log that cannot be read is an error, and the log stays as it was.
    pub fn compact(&self) -> SystemResult<()> {
        if let Some(j) = &self.journal {
            let _sp = maxoid_obs::span("system.compact");
            j.with_flushed(crate::durability::compact)??;
            maxoid_obs::counter_add("system.compactions", 1);
        }
        Ok(())
    }

    /// Returns the branch manager (examples render mount tables from it).
    pub fn branch_manager(&self) -> &BranchManager {
        &self.branch_mgr
    }

    /// The gesture lock of one initiator (created on first use). Ranked
    /// highest in the lock order: acquired before any other system lock.
    ///
    /// Also the activity stamp: each acquisition ticks the logical
    /// activity clock and re-stamps the tenant's entry. When the map has
    /// outgrown [`INIT_LOCK_SOFT_CAP`], entries no thread references are
    /// swept inline — dropping such an entry is safe because the map held
    /// the only `Arc`, so no one can be holding (or about to hold) the
    /// mutex, and the next gesture simply recreates it.
    fn init_lock(&self, init: &str) -> Arc<Mutex<()>> {
        let now = self.activity_clock.fetch_add(1, std::sync::atomic::Ordering::Relaxed) + 1;
        let mut map = self.init_locks.lock();
        let entry = map.entry(init.to_string()).or_default();
        entry.last_used = now;
        let lock = entry.lock.clone();
        if map.len() > INIT_LOCK_SOFT_CAP {
            // Our clone keeps this tenant's count at 2, so the sweep can
            // never drop the entry we are about to return. Recently
            // stamped entries survive so that "absent from the map"
            // certifies at least SWEEP_RETAIN_TICKS of idleness (any
            // later gesture would have recreated the entry) — the idle
            // evictor relies on exactly that to reclaim tenants whose
            // entries were swept.
            map.retain(|_, e| {
                Arc::strong_count(&e.lock) > 1
                    || now.saturating_sub(e.last_used) < SWEEP_RETAIN_TICKS
            });
        }
        lock
    }

    /// Number of per-initiator gesture-lock entries currently retained
    /// (bounded-growth regression hook).
    pub fn init_lock_count(&self) -> usize {
        self.init_locks.lock().len()
    }

    /// Current value of the logical activity clock (ticks once per
    /// gesture-lock acquisition across all tenants).
    pub fn activity_clock(&self) -> u64 {
        self.activity_clock.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Installs an app: uid assignment, backing directories, intent
    /// filters and Maxoid manifest registration.
    pub fn install(
        &self,
        pkg: &str,
        filters: Vec<AppIntentFilter>,
        manifest: MaxoidManifest,
    ) -> SystemResult<AppId> {
        let app = AppId::new(pkg);
        let uid = self.kernel.install_app(&app);
        self.branch_mgr.prepare_app(pkg, uid, &manifest)?;
        self.ams.write().register_app(&app, filters, manifest);
        Ok(app)
    }

    /// Returns an installed app's Maxoid manifest (cloned out of the AMS
    /// registry lock).
    pub fn manifest_of(&self, app: &AppId) -> Option<MaxoidManifest> {
        self.ams.read().manifest(app).cloned()
    }

    /// Computes the delivery set for a broadcast from `sender` (AMS
    /// facade; §3.4 delegate narrowing applies).
    pub fn broadcast_targets(
        &self,
        sender: Option<(&AppId, &ExecContext)>,
        intent: &Intent,
    ) -> Vec<Pid> {
        self.ams.read().broadcast_targets(sender, intent, &self.running())
    }

    /// Launches an app normally (tapping its icon): no sender context.
    /// Any live instance running in a different context is killed first
    /// (the §6.2 rule applies regardless of how the app starts).
    pub fn launch(&self, pkg: &str) -> SystemResult<Pid> {
        let app = AppId::new(pkg);
        self.kill_conflicting(&app, &ExecContext::Normal)?;
        self.spawn_in_context(&app, ExecContext::Normal)
    }

    /// The launcher's "start as delegate" gesture (§6.3): the user drags
    /// the initiator's icon onto the Initiator target, then taps the app.
    pub fn launch_as_delegate(&self, pkg: &str, initiator: &str) -> SystemResult<Pid> {
        let route = self.ams.read().route(
            None,
            &Intent::new("android.intent.action.MAIN").with_target(pkg),
            &self.running(),
        )?;
        // The launcher overrides the computed (normal) context.
        let Route::Start { target, .. } = route else {
            unreachable!("explicit target cannot produce a chooser")
        };
        let ctx = ExecContext::OnBehalfOf(AppId::new(initiator));
        self.kill_conflicting(&target, &ctx)?;
        self.spawn_in_context(&target, ctx)
    }

    fn running(&self) -> Vec<(Pid, AppId, ExecContext)> {
        self.kernel.processes().iter().map(|p| (p.pid, p.app.clone(), p.ctx.clone())).collect()
    }

    fn kill_conflicting(&self, app: &AppId, ctx: &ExecContext) -> SystemResult<()> {
        let doomed: Vec<Pid> = self
            .kernel
            .processes()
            .iter()
            .filter(|p| &p.app == app && &p.ctx != ctx)
            .map(|p| p.pid)
            .collect();
        for pid in doomed {
            self.kernel.kill(pid)?;
        }
        Ok(())
    }

    fn spawn_in_context(&self, app: &AppId, ctx: ExecContext) -> SystemResult<Pid> {
        // The root of the delegation lifecycle: invoke → COW fork → spawn.
        // (Commit/discard arrive later via `commit_vol` / `clear_vol`.)
        let _inv = match &ctx {
            ExecContext::OnBehalfOf(init) => {
                let mut sp = maxoid_obs::span("delegation.invoke");
                sp.field_with("delegate", || app.pkg().to_string());
                sp.field_with("initiator", || init.pkg().to_string());
                Some(sp)
            }
            _ => None,
        };
        let manifest = self.manifest_of(app).unwrap_or_default();
        let ns = match &ctx {
            ExecContext::Normal => self.branch_mgr.initiator_namespace(app.pkg(), &manifest)?,
            ExecContext::OnBehalfOf(init) => {
                // Serialize the COW-fork against commit/clear gestures of
                // the same initiator.
                let gesture = self.init_lock(init.pkg());
                let _g = gesture.lock();
                let mut sp = maxoid_obs::span("delegation.cow_fork");
                sp.field_with("delegate", || app.pkg().to_string());
                sp.field_with("initiator", || init.pkg().to_string());
                let init_manifest = self.manifest_of(init).unwrap_or_default();
                // Figure 2 lifecycle: fork / keep / discard nPriv.
                let outcome = self.priv_mgr.lock().on_delegate_start(
                    self.kernel.vfs(),
                    init.pkg(),
                    app.pkg(),
                )?;
                sp.field_with("priv_fork", || format!("{outcome:?}"));
                self.branch_mgr.delegate_namespace(
                    app.pkg(),
                    &manifest,
                    init.pkg(),
                    &init_manifest,
                )?
            }
        };
        Ok(self.kernel.spawn(app, ctx, ns)?)
    }

    /// Sends an intent from `sender` (None = the user via the launcher),
    /// starting the resolved target. Returns the new process or the
    /// chooser candidates.
    pub fn start_activity(
        &self,
        sender: Option<Pid>,
        intent: &Intent,
    ) -> SystemResult<StartOutcome> {
        let sender_info = match sender {
            Some(pid) => {
                let p = self.kernel.process(pid)?;
                Some((p.app.clone(), p.ctx.clone()))
            }
            None => None,
        };
        let sender_ref = sender_info.as_ref().map(|(a, c)| (a, c));
        let route = self.ams.read().route(sender_ref, intent, &self.running())?;
        match route {
            Route::Chooser { candidates, ctx } => Ok(StartOutcome::Chooser { candidates, ctx }),
            Route::Start { target, ctx, kill_first } => {
                for pid in kill_first {
                    self.kernel.kill(pid)?;
                }
                // Per-URI grant plumbing for content data with the grant
                // flag (the Email attachment pattern).
                if intent.read_granted() {
                    if let Some(data) = &intent.data {
                        if let Ok(uri) = Uri::parse(data) {
                            self.resolver.grant_uri_permission(target.pkg(), &uri, false, true);
                        }
                    }
                }
                let pid = self.spawn_in_context(&target, ctx)?;
                Ok(StartOutcome::Started(pid))
            }
        }
    }

    /// Completes a chooser: starts `choice` in the already-computed
    /// context (ResolverActivity is an intent channel, not an instance).
    pub fn start_chosen(&self, choice: &AppId, ctx: ExecContext) -> SystemResult<Pid> {
        self.kill_conflicting(choice, &ctx)?;
        self.spawn_in_context(choice, ctx)
    }

    /// Returns the provider-facing caller identity of a process.
    pub fn caller(&self, pid: Pid) -> SystemResult<Caller> {
        let p = self.kernel.process(pid)?;
        Ok(Caller { app: p.app.clone(), ctx: p.ctx.clone() })
    }

    // -----------------------------------------------------------------
    // Provider conveniences bound to a calling process.
    // -----------------------------------------------------------------

    /// Opens a resolver-call span carrying the target URI.
    fn cp_span(name: &'static str, uri: &Uri) -> maxoid_obs::SpanGuard {
        let mut sp = maxoid_obs::span(name);
        sp.field_with("uri", || uri.to_string());
        sp
    }

    /// Provider insert on behalf of `pid`.
    pub fn cp_insert(&self, pid: Pid, uri: &Uri, values: &ContentValues) -> SystemResult<Uri> {
        let _sp = Self::cp_span("system.cp_insert", uri);
        let caller = self.caller(pid)?;
        Ok(self.resolver.insert(&caller, uri, values)?)
    }

    /// Provider update on behalf of `pid`.
    pub fn cp_update(
        &self,
        pid: Pid,
        uri: &Uri,
        values: &ContentValues,
        args: &QueryArgs,
    ) -> SystemResult<usize> {
        let _sp = Self::cp_span("system.cp_update", uri);
        let caller = self.caller(pid)?;
        Ok(self.resolver.update(&caller, uri, values, args)?)
    }

    /// Provider query on behalf of `pid`.
    pub fn cp_query(&self, pid: Pid, uri: &Uri, args: &QueryArgs) -> SystemResult<ResultSet> {
        let _sp = Self::cp_span("system.cp_query", uri);
        let caller = self.caller(pid)?;
        Ok(self.resolver.query(&caller, uri, args)?)
    }

    /// Provider delete on behalf of `pid`.
    pub fn cp_delete(&self, pid: Pid, uri: &Uri, args: &QueryArgs) -> SystemResult<usize> {
        let _sp = Self::cp_span("system.cp_delete", uri);
        let caller = self.caller(pid)?;
        Ok(self.resolver.delete(&caller, uri, args)?)
    }

    // -----------------------------------------------------------------
    // Download manager and media scanner service APIs.
    // -----------------------------------------------------------------

    /// `DownloadManager.enqueue` on behalf of `pid`.
    pub fn enqueue_download(&self, pid: Pid, req: &DownloadRequest) -> SystemResult<i64> {
        let caller = self.caller(pid)?;
        Ok(self.downloads.lock().enqueue(&caller, req)?)
    }

    /// Pumps the Downloads background worker once.
    pub fn pump_downloads(&self) -> SystemResult<usize> {
        let pid = self.downloads_pid;
        Ok(self.downloads.lock().process_pending(&self.kernel, pid)?)
    }

    /// Drains download notifications.
    pub fn download_notifications(&self) -> Vec<maxoid_providers::DownloadNotification> {
        self.downloads.lock().take_notifications()
    }

    /// Opens a completed download's bytes (provenance-aware).
    pub fn open_download(
        &self,
        initiator: Option<&str>,
        dest: &maxoid_vfs::VPath,
    ) -> SystemResult<Vec<u8>> {
        Ok(self.downloads.lock().open_download(initiator, dest)?)
    }

    /// Media scanner service: scan a file on behalf of `pid`.
    pub fn scan_media(
        &self,
        pid: Pid,
        path: &maxoid_vfs::VPath,
        kind: MediaKind,
        title: &str,
        size: usize,
    ) -> SystemResult<i64> {
        let caller = self.caller(pid)?;
        Ok(self.media.lock().scan_file(&caller, path, kind, title, size)?)
    }

    /// Opens a thumbnail generated by the media scanner.
    pub fn open_thumbnail(
        &self,
        initiator: Option<&str>,
        media_path: &maxoid_vfs::VPath,
    ) -> SystemResult<Vec<u8>> {
        Ok(self.media.lock().open_thumbnail(initiator, media_path)?)
    }

    // -----------------------------------------------------------------
    // Volatile state: list, commit, and the launcher gestures.
    // -----------------------------------------------------------------

    /// Lists the volatile files of an initiator.
    pub fn volatile_files(&self, init: &str) -> SystemResult<Vec<VolatileEntry>> {
        Ok(self.volatile.list(init)?)
    }

    /// The launcher's Clear-Vol gesture (§6.3): discards `Vol(init)` —
    /// volatile files, provider delta tables, and the confined clipboard.
    ///
    /// On a journaled system the whole discard is one journal
    /// transaction; a crash mid-way recovers to the pre-gesture state.
    pub fn clear_vol(&self, init: &str) -> SystemResult<usize> {
        let mut sp = maxoid_obs::span("delegation.clear_vol");
        sp.field_with("initiator", || init.to_string());
        let outcome =
            self.commit_vol(init, &VolCommitPlan { discard_rest: true, ..Default::default() })?;
        Ok(outcome.files_removed)
    }

    /// The initiator's selective Commit gesture (§3.3) as a single atomic
    /// step: promotes the chosen volatile files and provider delta rows
    /// to non-volatile state and (optionally) discards the rest of
    /// `Vol(init)`.
    ///
    /// The whole plan is checked before its first change: every listed
    /// volatile file must exist, and a listed row whose link names a
    /// volatile row is refused unless a row listed before it commits that
    /// row (a listed row the initiator does not hold commits nothing). A
    /// plan that fails the check changes nothing, live or in the journal.
    ///
    /// On a journaled system the entire plan — external and internal
    /// file copies, provider row commits across authorities, and the
    /// trailing Clear-Vol — is bracketed in one journal transaction. A
    /// crash at *any* record boundary recovers to either the full
    /// post-commit state or the untouched all-volatile state, never
    /// between. A step that fails after the check (an I/O error) rolls
    /// the journal transaction back, so a crash-and-recover lands at the
    /// all-volatile side; the steps before it stay applied live.
    ///
    /// The whole gesture holds the initiator's gesture lock: concurrent
    /// commits of *different* initiators proceed in parallel, but a
    /// delegate of `init` cannot COW-fork mid-commit.
    pub fn commit_vol(&self, init: &str, plan: &VolCommitPlan) -> SystemResult<VolCommitOutcome> {
        let mut sp = maxoid_obs::span("delegation.commit_vol");
        sp.field_with("initiator", || init.to_string());
        sp.field_with("discard_rest", || plan.discard_rest.to_string());
        let gesture = self.init_lock(init);
        let _g = gesture.lock();
        if let Err(e) = self.check_commit(init, plan) {
            sp.field("outcome", "refused");
            return Err(e);
        }
        let txn = match &self.journal {
            Some(j) => Some(j.begin_txn()?),
            None => None,
        };
        let result = self.commit_vol_inner(init, plan);
        if let (Some(j), Some(txn)) = (&self.journal, txn) {
            match &result {
                Ok(_) => j.commit_txn(txn)?,
                // Best effort: the rollback record only narrows the torn
                // window; an open transaction is discarded on recovery
                // anyway.
                Err(_) => {
                    let _ = j.rollback_txn(txn);
                }
            }
        }
        match &result {
            Ok(out) => {
                // The commit/discard moved or removed volatile files
                // behind the unions' backs in places the leaf mutations
                // may not all have covered; force the resolution caches
                // whose branches can see those trees to refill. The blast
                // radius is this tenant's volatile/private roots plus the
                // public branch a commit may have landed in — bumping
                // globally here would thrash every *other* tenant's
                // caches on each gesture, the fleet-scale scan cliff.
                self.kernel.vfs().with_store(|s| {
                    for root in [
                        layout::back_ext_tmp(init),
                        layout::back_internal_tmp(init),
                        layout::back_ext_app(init),
                        layout::back_internal(init),
                        Ok(layout::back_ext_pub()),
                    ]
                    .into_iter()
                    .flatten()
                    {
                        s.bump_visibility_under(&root);
                    }
                });
                sp.field_with("rows_committed", || out.rows_committed.to_string());
                sp.field_with("files_removed", || out.files_removed.to_string());
                maxoid_obs::counter_add("delegation.commits", 1);
            }
            Err(_) => {
                sp.field("outcome", "rolled_back");
                maxoid_obs::counter_add("delegation.rollbacks", 1);
            }
        }
        result
    }

    /// Checks `plan` against live state before anything is committed:
    /// the files exist, and each authority's rows can commit in plan
    /// order (see `ContentResolver::check_volatile_rows`).
    fn check_commit(&self, init: &str, plan: &VolCommitPlan) -> SystemResult<()> {
        self.volatile.check(init, &plan.external, &plan.internal)?;
        let mut by_authority: BTreeMap<&str, Vec<(&str, i64)>> = BTreeMap::new();
        for (authority, table, id) in &plan.provider_rows {
            by_authority.entry(authority).or_default().push((table, *id));
        }
        for (authority, rows) in by_authority {
            self.resolver.check_volatile_rows(authority, init, &rows)?;
        }
        Ok(())
    }

    fn commit_vol_inner(&self, init: &str, plan: &VolCommitPlan) -> SystemResult<VolCommitOutcome> {
        let manifest = self.manifest_of(&AppId::new(init)).unwrap_or_default();
        for rel in &plan.external {
            self.volatile.commit_external(init, &manifest, rel)?;
        }
        for rel in &plan.internal {
            self.volatile.commit_internal(init, rel)?;
        }
        let mut public_rows = Vec::new();
        for (authority, table, id) in &plan.provider_rows {
            if let Some(public) = self.resolver.commit_volatile_row(authority, init, table, *id)? {
                public_rows.push((authority.clone(), table.clone(), public));
            }
        }
        let mut files_removed = 0;
        if plan.discard_rest {
            files_removed = self.volatile.clear(init)?;
            self.resolver.clear_volatile(init)?;
            self.clipboard.clear_confined(init);
        }
        Ok(VolCommitOutcome { rows_committed: public_rows.len(), public_rows, files_removed })
    }

    /// The launcher's Clear-Priv gesture (§6.3): clears `Priv(x^init)`
    /// for every app `x` (delegate forks and persistent private state).
    pub fn clear_priv(&self, init: &str) -> SystemResult<usize> {
        let gesture = self.init_lock(init);
        let _g = gesture.lock();
        Ok(self.priv_mgr.lock().clear_initiator(self.kernel.vfs(), init)?)
    }

    /// Exposes the fork decision for tests (Figure 2 assertions).
    pub fn fork_outcome_probe(&self, init: &str, pkg: &str) -> VfsResult<ForkOutcome> {
        self.priv_mgr.lock().on_delegate_start(self.kernel.vfs(), init, pkg)
    }

    // -----------------------------------------------------------------
    // Per-tenant accounting and idle-state eviction (fleet scale).
    // -----------------------------------------------------------------

    /// Per-tenant state accounting for one initiator: how much COW state
    /// its delegation activity has accreted (DESIGN.md §4.14).
    ///
    /// * **COW files/bytes** — everything under the initiator's delegate
    ///   fork branches: `nPriv(x^init)`, `pPriv(x^init)` and the
    ///   external `x--init` branches.
    /// * **Delta rows** — rows in this initiator's provider delta tables
    ///   across all three system providers (whiteouts included).
    /// * **Volatile files/bytes** — the file portion of `Vol(init)`.
    pub fn tenant_stats(&self, init: &str) -> SystemResult<TenantStats> {
        fn usage(s: &maxoid_vfs::Store, p: &maxoid_vfs::VPath) -> VfsResult<(usize, u64)> {
            let meta = match s.stat(p) {
                Ok(m) => m,
                Err(maxoid_vfs::VfsError::NotFound) => return Ok((0, 0)),
                Err(e) => return Err(e),
            };
            if !meta.is_dir {
                return Ok((1, meta.size));
            }
            let mut files = 0;
            let mut bytes = 0;
            for e in s.read_dir(p)? {
                let (f, b) = usage(s, &p.join(&e.name)?)?;
                files += f;
                bytes += b;
            }
            Ok((files, bytes))
        }

        let (cow_files, cow_bytes) = self.kernel.vfs().with_store(|s| -> VfsResult<_> {
            let mut files = 0;
            let mut bytes = 0;
            for root in [
                maxoid_vfs::vpath("/backing/npriv").join(init)?,
                maxoid_vfs::vpath("/backing/ppriv").join(init)?,
            ] {
                let (f, b) = usage(s, &root)?;
                files += f;
                bytes += b;
            }
            // External delegate branches are keyed `<pkg>--<init>`.
            let deleg_root = maxoid_vfs::vpath("/backing/ext/deleg");
            if s.exists(&deleg_root) {
                let suffix = format!("--{init}");
                for e in s.read_dir(&deleg_root)? {
                    if e.name.ends_with(&suffix) {
                        let (f, b) = usage(s, &deleg_root.join(&e.name)?)?;
                        files += f;
                        bytes += b;
                    }
                }
            }
            Ok((files, bytes))
        })?;

        let mut volatile_files = 0;
        let mut volatile_bytes = 0;
        for entry in self.volatile.list(init)? {
            volatile_files += 1;
            volatile_bytes += entry.size;
        }

        let delta_rows = self.downloads.lock().delta_row_count(init)
            + self.media.lock().delta_row_count(init)
            + self.userdict.lock().delta_row_count(init);

        Ok(TenantStats { cow_files, cow_bytes, delta_rows, volatile_files, volatile_bytes })
    }

    /// Evicts the volatile state of tenants idle for at least
    /// `min_idle_ticks` activity-clock ticks: discards their `Vol(init)`
    /// files and confined clipboard, retires their provider COW objects
    /// (delta tables, COW views and triggers, which a Clear-Vol only
    /// empties), and drops their gesture-lock entry. Only tenants whose
    /// gesture lock no thread references are candidates, so an in-flight
    /// gesture is never raced; each eviction runs under the tenant's own
    /// gesture lock.
    ///
    /// This is the fleet-scale memory backstop: a tenant whose user
    /// walked away stops holding volatile COW state (its *committed*
    /// state — `Priv`, `pPriv`, public rows — is untouched and its next
    /// delegation works normally, starting from a fresh `Vol`).
    pub fn evict_idle_tenants(&self, min_idle_ticks: u64) -> SystemResult<EvictReport> {
        let _sp = maxoid_obs::span("system.evict_idle_tenants");
        let now = self.activity_clock();
        let mut candidates: Vec<(String, Option<Arc<Mutex<()>>>)> = {
            let map = self.init_locks.lock();
            map.iter()
                .filter(|(_, e)| {
                    Arc::strong_count(&e.lock) == 1
                        && now.saturating_sub(e.last_used) >= min_idle_ticks
                })
                .map(|(k, e)| (k.clone(), Some(e.lock.clone())))
                .collect()
        };
        // Tenants whose entry the soft-cap sweep already dropped may still
        // hold volatile files or provider COW objects (a Clear-Vol empties
        // those but keeps them). Absence from the map certifies at least
        // SWEEP_RETAIN_TICKS of idleness (any later gesture would have
        // recreated the entry), so when the caller's threshold is within
        // that certificate, owners of volatile tmp dirs and initiators
        // any provider records as forked join the candidate set too.
        if min_idle_ticks <= SWEEP_RETAIN_TICKS {
            let known: std::collections::BTreeSet<String> =
                self.init_locks.lock().keys().cloned().collect();
            let mut owners =
                self.kernel.vfs().with_store(|s| -> maxoid_vfs::VfsResult<Vec<String>> {
                    let mut out = Vec::new();
                    let tmp_root = maxoid_vfs::vpath("/backing/internal_tmp");
                    if s.exists(&tmp_root) {
                        for e in s.read_dir(&tmp_root)? {
                            out.push(e.name);
                        }
                    }
                    Ok(out)
                })?;
            owners.retain(|init| !known.contains(init));
            let mut swept = std::collections::BTreeSet::new();
            for init in owners {
                if !self.volatile.list(&init)?.is_empty() {
                    swept.insert(init);
                }
            }
            // One provider lock at a time.
            swept.extend(self.downloads.lock().proxy().forked_initiators().map(str::to_string));
            swept.extend(self.media.lock().proxy().forked_initiators().map(str::to_string));
            swept.extend(self.userdict.lock().proxy().forked_initiators().map(str::to_string));
            candidates.extend(
                swept.into_iter().filter(|init| !known.contains(init)).map(|init| (init, None)),
            );
        }
        let mut report = EvictReport::default();
        for (init, gesture) in candidates {
            // Swept tenants get a fresh entry so the eviction serializes
            // against any gesture racing back in.
            let gesture = gesture.unwrap_or_else(|| self.init_lock(&init));
            let _g = gesture.lock();
            report.files_removed += self.volatile.clear(&init)?;
            self.resolver.retire(&init)?;
            self.clipboard.clear_confined(&init);
            let mut map = self.init_locks.lock();
            if let Some(e) = map.get(&init) {
                // Two refs = the map's + ours: nobody raced us back in.
                if Arc::ptr_eq(&e.lock, &gesture) && Arc::strong_count(&e.lock) == 2 {
                    map.remove(&init);
                }
            }
            report.tenants += 1;
        }
        maxoid_obs::counter_add("system.tenants_evicted", report.tenants as u64);
        Ok(report)
    }
}

/// Per-tenant state accounting (see [`MaxoidSystem::tenant_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantStats {
    /// Files under the tenant's delegate COW fork branches.
    pub cow_files: usize,
    /// Bytes under the tenant's delegate COW fork branches.
    pub cow_bytes: u64,
    /// Rows in the tenant's provider delta tables.
    pub delta_rows: usize,
    /// Files in `Vol(init)` (external + internal tmp).
    pub volatile_files: usize,
    /// Bytes in `Vol(init)`.
    pub volatile_bytes: u64,
}

impl TenantStats {
    /// Total bytes of evictable per-tenant state.
    pub fn total_bytes(&self) -> u64 {
        self.cow_bytes + self.volatile_bytes
    }
}

/// What [`MaxoidSystem::evict_idle_tenants`] reclaimed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvictReport {
    /// Tenants whose volatile state was discarded.
    pub tenants: usize,
    /// Volatile files removed across all evicted tenants.
    pub files_removed: usize,
}

/// Geometry and budgets for [`MaxoidSystem::boot_from_device`]: how the
/// single image is partitioned and how many cache pages each tier may
/// keep resident.
#[derive(Debug, Clone)]
pub struct DeviceBootConfig {
    /// Sectors per partition chunk (the remapping granularity).
    pub chunk_sectors: u64,
    /// Directory sectors reserved for the chunk map.
    pub dir_sectors: u64,
    /// Page-cache budget of the journal's `BlockStorage`.
    pub wal_pages: usize,
    /// Journal group-commit batch size.
    pub wal_batch: usize,
    /// Page-cache budget of the VFS spill tier.
    pub vfs_pages: usize,
    /// File size (bytes) above which VFS payloads spill to pages.
    pub vfs_threshold: usize,
    /// Page-cache budget of the sqldb row heap.
    pub heap_pages: usize,
    /// Table size (encoded bytes) above which rows page to the heap.
    pub heap_threshold: usize,
}

impl Default for DeviceBootConfig {
    fn default() -> Self {
        DeviceBootConfig {
            chunk_sectors: 64,
            dir_sectors: 8,
            wal_pages: 32,
            wal_batch: 8,
            vfs_pages: 64,
            vfs_threshold: 4096,
            heap_pages: 64,
            heap_threshold: 64 * 1024,
        }
    }
}

/// A selective volatile-commit plan (§3.3): which parts of `Vol(init)`
/// to promote to non-volatile state, and whether to discard the rest.
#[derive(Debug, Clone, Default)]
pub struct VolCommitPlan {
    /// External tmp files to commit (paths relative to EXTDIR).
    pub external: Vec<String>,
    /// Internal tmp files to commit into `Priv(init)`.
    pub internal: Vec<String>,
    /// Provider delta rows to commit: `(authority, table, delta row id)`.
    pub provider_rows: Vec<(String, String, i64)>,
    /// Discard the remaining volatile state afterwards (Clear-Vol), in
    /// the same journal transaction.
    pub discard_rest: bool,
}

/// What [`MaxoidSystem::commit_vol`] accomplished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolCommitOutcome {
    /// Provider delta rows promoted into public tables.
    pub rows_committed: usize,
    /// Where each committed row landed, in plan order:
    /// `(authority, table, public row id)`. A row the delegate updated
    /// keeps its public id; a row it inserted gets a fresh one.
    pub public_rows: Vec<(String, String, i64)>,
    /// Volatile files removed by the trailing discard (0 when
    /// `discard_rest` was false).
    pub files_removed: usize,
}

/// What `start_activity` produced.
#[derive(Debug)]
pub enum StartOutcome {
    /// The target started with this pid.
    Started(Pid),
    /// Several candidates: the user must choose (ResolverActivity).
    Chooser {
        /// The matching apps.
        candidates: Vec<AppId>,
        /// The context the choice will run in.
        ctx: ExecContext,
    },
}

impl StartOutcome {
    /// Unwraps the started pid.
    ///
    /// # Panics
    ///
    /// Panics if a chooser was returned instead.
    pub fn pid(self) -> Pid {
        match self {
            StartOutcome::Started(pid) => pid,
            StartOutcome::Chooser { .. } => panic!("expected a started activity, got chooser"),
        }
    }
}
