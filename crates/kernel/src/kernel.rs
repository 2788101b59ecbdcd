//! The kernel: process table, Zygote forking, syscall surface.
//!
//! # Concurrency
//!
//! The kernel is shared by every thread in the system, so all of its
//! state is interior, and the two hot structures are sharded so tenants
//! on different shards never contend (DESIGN.md §4.14):
//!
//! * **Process table** — [`PROC_SHARDS`] pid-hashed shards, each its own
//!   `RwLock<BTreeMap<Pid, Arc<Process>>>`. A syscall or Binder check
//!   locks exactly one shard (`pid % PROC_SHARDS`), clones the
//!   `Arc<Process>` out, releases the shard and runs the actual
//!   VFS/network work in parallel. Pids come from a global `AtomicU64`,
//!   so allocation never takes any lock. Sweeps (`processes`,
//!   `find_processes`) visit shards one at a time in index order — they
//!   see a per-shard-consistent snapshot, which is all the callers need.
//! * **App registry** — read-mostly, so it is an `Arc`-swapped immutable
//!   snapshot: readers briefly read-lock only to clone the `Arc` (no
//!   contention with other readers, and the guard never spans a map
//!   walk); `install_app` builds a new map and swaps the `Arc` under the
//!   write lock. Uid assignment happens under the same write lock, so
//!   uids are dense and reinstalls are idempotent.
//!
//! In the global lock order these locks rank above the VFS store shards:
//! a thread may acquire store shards while holding a process-table shard,
//! never the reverse (see DESIGN.md §4.10, §4.14). No kernel path ever
//! holds two process-table shards at once.

use crate::binder::{binder_allowed, BinderEndpoint};
use crate::error::{KernelError, KernelResult};
use crate::net::Network;
use crate::process::{AppId, ExecContext, Pid, Process};
use maxoid_vfs::{Cred, FileHandle, Metadata, Mode, MountNamespace, OpenMode, Uid, VPath, Vfs};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of pid-hashed process-table shards.
pub const PROC_SHARDS: usize = 16;

/// The process-table shard a pid lives in.
pub fn proc_shard_of(pid: Pid) -> usize {
    (pid.0 as usize) % PROC_SHARDS
}

/// The app registry: an immutable snapshot behind an `Arc`, swapped
/// wholesale on install. `next_uid` rides in the same writer-locked cell
/// so uid assignment is atomic with registry publication.
#[derive(Debug)]
struct AppRegistry {
    snap: Arc<BTreeMap<AppId, Uid>>,
    next_uid: u32,
}

/// The simulated kernel: owns the VFS, the network device, the app
/// registry (installed packages and their UIDs) and the process table.
#[derive(Debug)]
pub struct Kernel {
    vfs: Vfs,
    /// The simulated network device.
    pub net: Network,
    apps: RwLock<AppRegistry>,
    procs: Vec<RwLock<BTreeMap<Pid, Arc<Process>>>>,
    next_pid: AtomicU64,
    /// The πBox-style trusted-cloud extension (paper §2.4): when enabled,
    /// delegates may connect to hosts on this list instead of losing the
    /// network entirely. Empty + disabled by default (the paper's actual
    /// design cuts all delegate network).
    trusted_cloud: RwLock<Option<std::collections::BTreeSet<String>>>,
}

impl Default for Kernel {
    fn default() -> Self {
        Self::new()
    }
}

impl Kernel {
    /// Boots a kernel with an empty VFS and network.
    pub fn new() -> Self {
        Self::with_vfs(Vfs::new())
    }

    /// Boots a kernel around a caller-provided VFS. Used by cold boot,
    /// where the filesystem has already been recovered from a journal
    /// (possibly into a block-device-backed store) before the kernel's
    /// process table exists.
    pub fn with_vfs(vfs: Vfs) -> Self {
        Kernel {
            vfs,
            net: Network::new(),
            apps: RwLock::new(AppRegistry {
                snap: Arc::new(BTreeMap::new()),
                next_uid: Uid::FIRST_APP,
            }),
            procs: (0..PROC_SHARDS).map(|_| RwLock::new(BTreeMap::new())).collect(),
            next_pid: AtomicU64::new(1),
            trusted_cloud: RwLock::new(None),
        }
    }

    /// The current app-registry snapshot (brief read-lock, then lock-free).
    fn apps_snapshot(&self) -> Arc<BTreeMap<AppId, Uid>> {
        self.apps.read().snap.clone()
    }

    /// Enables the πBox-style trusted-cloud extension (§2.4): delegates
    /// may reach the listed hosts, on the assumption that those backends
    /// are themselves confined (as in πBox). Everything else stays
    /// `ENETUNREACH`.
    pub fn enable_trusted_cloud(&self, hosts: impl IntoIterator<Item = String>) {
        *self.trusted_cloud.write() = Some(hosts.into_iter().collect());
    }

    /// Disables the trusted-cloud extension (back to the paper's default).
    pub fn disable_trusted_cloud(&self) {
        *self.trusted_cloud.write() = None;
    }

    /// Returns the kernel's VFS (shared handle).
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// Installs an app, assigning it a dedicated uid (Android's app
    /// sandbox model, §2.1). Reinstalling returns the existing uid.
    pub fn install_app(&self, app: &AppId) -> Uid {
        let mut reg = self.apps.write();
        if let Some(uid) = reg.snap.get(app) {
            return *uid;
        }
        let uid = Uid(reg.next_uid);
        reg.next_uid += 1;
        let mut next = BTreeMap::clone(&reg.snap);
        next.insert(app.clone(), uid);
        reg.snap = Arc::new(next);
        uid
    }

    /// Returns true if the app is installed.
    pub fn is_installed(&self, app: &AppId) -> bool {
        self.apps_snapshot().contains_key(app)
    }

    /// Zygote fork: creates a process for `app` with the given execution
    /// context and mount namespace (prepared by the branch manager).
    ///
    /// The (app, initiator) pair is recorded in the task struct exactly as
    /// Zygote passes it to the kernel through sysfs in the paper (§6.2).
    pub fn spawn(&self, app: &AppId, ctx: ExecContext, ns: MountNamespace) -> KernelResult<Pid> {
        let mut sp = maxoid_obs::span("kernel.spawn");
        sp.field_with("app", || app.0.clone());
        sp.field_with("ctx", || format!("{ctx:?}"));
        let uid =
            *self.apps_snapshot().get(app).ok_or_else(|| KernelError::NoSuchApp(app.0.clone()))?;
        let pid = Pid(self.next_pid.fetch_add(1, Ordering::Relaxed));
        maxoid_obs::counter_add("kernel.spawns", 1);
        self.procs[proc_shard_of(pid)]
            .write()
            .insert(pid, Arc::new(Process { pid, app: app.clone(), uid, ctx, ns }));
        Ok(pid)
    }

    /// Terminates a process.
    pub fn kill(&self, pid: Pid) -> KernelResult<()> {
        let _sp = maxoid_obs::span("kernel.kill");
        self.procs[proc_shard_of(pid)]
            .write()
            .remove(&pid)
            .map(|_| ())
            .ok_or(KernelError::NoSuchProcess)
    }

    /// Returns a process' task struct (a shared snapshot handle: the
    /// process table's read lock is released before this returns, so the
    /// caller can do arbitrary work against the task without blocking
    /// spawns or kills).
    pub fn process(&self, pid: Pid) -> KernelResult<Arc<Process>> {
        self.procs[proc_shard_of(pid)].read().get(&pid).cloned().ok_or(KernelError::NoSuchProcess)
    }

    /// Enables or disables the union-mount path-resolution caches of a
    /// process' namespace (bench and diagnostics hook; resolution results
    /// are unaffected either way).
    pub fn set_resolve_caches(&self, pid: Pid, on: bool) -> KernelResult<()> {
        self.process(pid)?.ns.set_resolve_caches(on);
        Ok(())
    }

    /// Aggregate `(hits, misses)` of the resolution caches across a
    /// process' union mounts.
    pub fn resolve_cache_stats(&self, pid: Pid) -> KernelResult<(u64, u64)> {
        Ok(self.process(pid)?.ns.resolve_cache_stats())
    }

    /// Snapshot of all live processes at the time of the call. Shards are
    /// visited one at a time in index order (never two shard locks held
    /// together), so the result is per-shard consistent; the list is
    /// sorted by pid to keep callers order-independent of sharding.
    pub fn processes(&self) -> Vec<Arc<Process>> {
        let mut out: Vec<Arc<Process>> = Vec::new();
        for shard in &self.procs {
            out.extend(shard.read().values().cloned());
        }
        out.sort_by_key(|p| p.pid);
        out
    }

    /// Finds live processes of an app, optionally filtered by context.
    pub fn find_processes(&self, app: &AppId) -> Vec<Pid> {
        let mut out: Vec<Pid> = Vec::new();
        for shard in &self.procs {
            out.extend(shard.read().values().filter(|p| &p.app == app).map(|p| p.pid));
        }
        out.sort();
        out
    }

    // -----------------------------------------------------------------
    // Syscall surface (all namespace- and uid-checked through the VFS).
    // -----------------------------------------------------------------

    fn task(&self, pid: Pid) -> KernelResult<(Cred, Arc<Process>)> {
        let p = self.process(pid)?;
        Ok((p.cred(), p))
    }

    /// Opens a syscall span tagged with the syscall name and path.
    fn syscall_span(name: &'static str, path: &VPath) -> maxoid_obs::SpanGuard {
        let mut sp = maxoid_obs::span(name);
        sp.field_with("path", || path.to_string());
        sp
    }

    /// `read()`: reads a whole file.
    pub fn read(&self, pid: Pid, path: &VPath) -> KernelResult<Vec<u8>> {
        let _sp = Self::syscall_span("kernel.read", path);
        let (cred, p) = self.task(pid)?;
        Ok(self.vfs.read(cred, &p.ns, path)?)
    }

    /// `write()`: creates or truncates a file.
    pub fn write(&self, pid: Pid, path: &VPath, data: &[u8], mode: Mode) -> KernelResult<()> {
        let _sp = Self::syscall_span("kernel.write", path);
        let (cred, p) = self.task(pid)?;
        Ok(self.vfs.write(cred, &p.ns, path, data, mode)?)
    }

    /// `write()` with `O_APPEND`.
    pub fn append(&self, pid: Pid, path: &VPath, data: &[u8]) -> KernelResult<()> {
        let _sp = Self::syscall_span("kernel.append", path);
        let (cred, p) = self.task(pid)?;
        Ok(self.vfs.append(cred, &p.ns, path, data)?)
    }

    /// `unlink()`.
    pub fn unlink(&self, pid: Pid, path: &VPath) -> KernelResult<()> {
        let _sp = Self::syscall_span("kernel.unlink", path);
        let (cred, p) = self.task(pid)?;
        Ok(self.vfs.unlink(cred, &p.ns, path)?)
    }

    /// `mkdir -p`.
    pub fn mkdir_all(&self, pid: Pid, path: &VPath, mode: Mode) -> KernelResult<()> {
        let _sp = Self::syscall_span("kernel.mkdir_all", path);
        let (cred, p) = self.task(pid)?;
        Ok(self.vfs.mkdir_all(cred, &p.ns, path, mode)?)
    }

    /// `readdir()`.
    pub fn read_dir(&self, pid: Pid, path: &VPath) -> KernelResult<Vec<maxoid_vfs::DirEntry>> {
        let _sp = Self::syscall_span("kernel.read_dir", path);
        let (cred, p) = self.task(pid)?;
        Ok(self.vfs.read_dir(cred, &p.ns, path)?)
    }

    /// `stat()`.
    pub fn stat(&self, pid: Pid, path: &VPath) -> KernelResult<Metadata> {
        let _sp = Self::syscall_span("kernel.stat", path);
        let (cred, p) = self.task(pid)?;
        Ok(self.vfs.stat(cred, &p.ns, path)?)
    }

    /// Returns true when the path is visible to the process.
    pub fn exists(&self, pid: Pid, path: &VPath) -> bool {
        self.task(pid).map(|(cred, p)| self.vfs.exists(cred, &p.ns, path)).unwrap_or(false)
    }

    /// `rename()` within a mount.
    pub fn rename(&self, pid: Pid, from: &VPath, to: &VPath) -> KernelResult<()> {
        let mut sp = Self::syscall_span("kernel.rename", from);
        sp.field_with("to", || to.to_string());
        let (cred, p) = self.task(pid)?;
        Ok(self.vfs.rename(cred, &p.ns, from, to)?)
    }

    /// `open()`: returns a handle that can be passed across processes
    /// (the ParcelFileDescriptor mechanism).
    pub fn open(&self, pid: Pid, path: &VPath, mode: OpenMode) -> KernelResult<FileHandle> {
        let _sp = Self::syscall_span("kernel.open", path);
        let (cred, p) = self.task(pid)?;
        Ok(self.vfs.open(cred, &p.ns, path, mode)?)
    }

    /// Reads through an open handle.
    pub fn read_handle(&self, handle: FileHandle) -> KernelResult<Vec<u8>> {
        Ok(self.vfs.read_handle(handle)?)
    }

    /// Writes through an open handle.
    pub fn write_handle(&self, handle: FileHandle, data: &[u8]) -> KernelResult<()> {
        Ok(self.vfs.write_handle(handle, data)?)
    }

    /// `connect()`: Maxoid emulates loss of network connection for
    /// delegates by returning `ENETUNREACH` (§6.2 item 3.2).
    pub fn connect(&self, pid: Pid, host: &str) -> KernelResult<()> {
        let mut sp = maxoid_obs::span("kernel.connect");
        sp.field_with("host", || host.to_string());
        let p = self.process(pid)?;
        if p.ctx.is_delegate() {
            let trusted = self
                .trusted_cloud
                .read()
                .as_ref()
                .map(|hosts| hosts.contains(host))
                .unwrap_or(false);
            if !trusted {
                maxoid_obs::counter_add("kernel.net_denied", 1);
                sp.field("outcome", "ENETUNREACH");
                return Err(KernelError::NetworkUnreachable);
            }
        }
        if !self.net.has_host(host) {
            return Err(KernelError::NoSuchHost);
        }
        Ok(())
    }

    /// Fetches a URL: `connect()` check plus transfer.
    pub fn http_get(&self, pid: Pid, url: &str) -> KernelResult<Vec<u8>> {
        let mut sp = maxoid_obs::span("kernel.http_get");
        sp.field_with("url", || url.to_string());
        let (host, path) = Network::split_url(url)?;
        self.connect(pid, host)?;
        self.net.fetch(host, path)
    }

    /// Binder transaction check (§3.4): delegates may only reach system
    /// services, their initiator, and co-delegates of the same initiator.
    pub fn binder_check(&self, from: Pid, to: &BinderEndpoint) -> KernelResult<()> {
        let mut sp = maxoid_obs::span("kernel.binder_check");
        sp.field_with("to", || format!("{to:?}"));
        let p = self.process(from)?;
        if binder_allowed(&p, to) {
            maxoid_obs::counter_add("kernel.binder_allowed", 1);
            Ok(())
        } else {
            maxoid_obs::counter_add("kernel.binder_denied", 1);
            sp.field("outcome", "EPERM");
            Err(KernelError::PermissionDenied)
        }
    }

    /// Binder transaction check between two live processes.
    pub fn binder_check_pid(&self, from: Pid, to: Pid) -> KernelResult<()> {
        let target = self.process(to)?;
        let endpoint = BinderEndpoint::App { ctx: target.ctx.clone(), app: target.app.clone() };
        self.binder_check(from, &endpoint)
    }
}

// The whole kernel must be shareable across worker threads behind an
// `Arc` (or plain `&Kernel` from scoped threads).
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Kernel>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use maxoid_vfs::{vpath, Mount};

    fn kernel_with_app(pkg: &str) -> (Kernel, AppId, Pid) {
        let k = Kernel::new();
        let app = AppId::new(pkg);
        k.install_app(&app);
        k.vfs().with_store(|s| s.mkdir_all(&vpath("/back/pub"), Uid::ROOT, Mode::PUBLIC).unwrap());
        let mut ns = MountNamespace::new();
        ns.add(Mount::bind(vpath("/sdcard"), vpath("/back/pub")).with_forced_mode(Mode::PUBLIC));
        let pid = k.spawn(&app, ExecContext::Normal, ns).unwrap();
        (k, app, pid)
    }

    #[test]
    fn uid_assignment_is_stable() {
        let k = Kernel::new();
        let a = AppId::new("a");
        let uid1 = k.install_app(&a);
        let uid2 = k.install_app(&a);
        assert_eq!(uid1, uid2);
        assert!(uid1.0 >= Uid::FIRST_APP);
        let b = k.install_app(&AppId::new("b"));
        assert_ne!(uid1, b);
    }

    #[test]
    fn spawn_requires_installed_app() {
        let k = Kernel::new();
        let err =
            k.spawn(&AppId::new("ghost"), ExecContext::Normal, MountNamespace::new()).unwrap_err();
        assert!(matches!(err, KernelError::NoSuchApp(_)));
    }

    #[test]
    fn syscalls_round_trip() {
        let (k, _, pid) = kernel_with_app("com.test");
        k.write(pid, &vpath("/sdcard/f.txt"), b"data", Mode::PUBLIC).unwrap();
        assert_eq!(k.read(pid, &vpath("/sdcard/f.txt")).unwrap(), b"data");
        assert!(k.exists(pid, &vpath("/sdcard/f.txt")));
        k.unlink(pid, &vpath("/sdcard/f.txt")).unwrap();
        assert!(!k.exists(pid, &vpath("/sdcard/f.txt")));
    }

    #[test]
    fn delegate_connect_is_enetunreach() {
        let (k, app, _) = kernel_with_app("com.viewer");
        k.net.publish("files.example", "x", b"data".to_vec());
        let email = AppId::new("com.email");
        k.install_app(&email);
        let del = k.spawn(&app, ExecContext::OnBehalfOf(email), MountNamespace::new()).unwrap();
        assert_eq!(k.connect(del, "files.example").err(), Some(KernelError::NetworkUnreachable));
        assert!(k.http_get(del, "files.example/x").is_err());
    }

    #[test]
    fn initiator_network_works() {
        let (k, _, pid) = kernel_with_app("com.browser");
        k.net.publish("files.example", "x", b"data".to_vec());
        assert_eq!(k.http_get(pid, "files.example/x").unwrap(), b"data");
        assert_eq!(k.connect(pid, "unknown.host").err(), Some(KernelError::NoSuchHost));
    }

    #[test]
    fn kill_removes_process() {
        let (k, _, pid) = kernel_with_app("com.test");
        k.kill(pid).unwrap();
        assert_eq!(k.kill(pid).err(), Some(KernelError::NoSuchProcess));
        assert!(k.process(pid).is_err());
    }

    #[test]
    fn trusted_cloud_extension_scopes_delegate_network() {
        let (k, app, _) = kernel_with_app("com.viewer");
        k.net.publish("trusted.cloud", "api", b"ok".to_vec());
        k.net.publish("evil.example", "exfil", b"".to_vec());
        let email = AppId::new("com.email");
        k.install_app(&email);
        let del = k.spawn(&app, ExecContext::OnBehalfOf(email), MountNamespace::new()).unwrap();
        // Default: everything unreachable.
        assert_eq!(k.connect(del, "trusted.cloud").err(), Some(KernelError::NetworkUnreachable));
        // With the extension, only the trusted host opens up.
        k.enable_trusted_cloud(["trusted.cloud".to_string()]);
        assert_eq!(k.http_get(del, "trusted.cloud/api").unwrap(), b"ok");
        assert_eq!(k.connect(del, "evil.example").err(), Some(KernelError::NetworkUnreachable));
        // Disabling restores the paper's default.
        k.disable_trusted_cloud();
        assert_eq!(k.connect(del, "trusted.cloud").err(), Some(KernelError::NetworkUnreachable));
    }

    #[test]
    fn binder_check_between_pids() {
        let (k, viewer, _) = kernel_with_app("com.viewer");
        let email = AppId::new("com.email");
        k.install_app(&email);
        let email_pid = k.spawn(&email, ExecContext::Normal, MountNamespace::new()).unwrap();
        let del = k
            .spawn(&viewer, ExecContext::OnBehalfOf(email.clone()), MountNamespace::new())
            .unwrap();
        // Delegate -> its initiator: allowed.
        k.binder_check_pid(del, email_pid).unwrap();
        // Delegate -> unrelated normal app: denied.
        let other = AppId::new("com.other");
        k.install_app(&other);
        let other_pid = k.spawn(&other, ExecContext::Normal, MountNamespace::new()).unwrap();
        assert_eq!(k.binder_check_pid(del, other_pid).err(), Some(KernelError::PermissionDenied));
        // Unrelated app -> delegate: the *sender* is unrestricted at the
        // Binder layer (AMS-level rules prevent invoking B^A; see core).
        k.binder_check_pid(other_pid, del).unwrap();
    }

    #[test]
    fn parallel_syscalls_and_spawns_share_the_kernel() {
        let (k, app, pid) = kernel_with_app("com.par");
        k.write(pid, &vpath("/sdcard/shared.txt"), b"seed", Mode::PUBLIC).unwrap();
        crossbeam::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|_| {
                    for _ in 0..50 {
                        assert_eq!(k.read(pid, &vpath("/sdcard/shared.txt")).unwrap(), b"seed");
                    }
                });
            }
            // A writer thread churns the process table concurrently.
            s.spawn(|_| {
                for _ in 0..50 {
                    let p = k.spawn(&app, ExecContext::Normal, MountNamespace::new()).unwrap();
                    k.kill(p).unwrap();
                }
            });
        })
        .expect("threads join");
        assert_eq!(k.find_processes(&app), vec![pid]);
    }
}
