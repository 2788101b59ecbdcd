//! The app-facing VFS: permission-checked, namespace-relative file
//! operations over the shared backing store.
//!
//! [`Vfs`] is the analogue of the kernel's syscall layer. Every operation
//! takes the caller's [`Cred`] and [`MountNamespace`]; the namespace
//! selects *which* data is visible (Maxoid's views), while the credentials
//! enforce Android's UID-based discretionary access control within a view.

use crate::cred::{Cred, Mode};
use crate::error::{VfsError, VfsResult};
use crate::mount::{Mount, MountKind, MountNamespace};
use crate::path::VPath;
use crate::store::{DirEntry, InodeId, Metadata, Store};
use std::sync::Arc;

/// Access mode requested when opening a file handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// Read-only handle.
    Read,
    /// Read-write handle (performs copy-up on union mounts at open time).
    ReadWrite,
}

/// An open file handle, the analogue of Android's `ParcelFileDescriptor`.
///
/// A handle pins an inode, not a path: access checks happen at open time,
/// so a handle can be passed to a process that could not itself open the
/// path. This models Android's per-URI permission grants, where the file
/// "is still opened by Email's process, but the file descriptor is passed
/// to the invoked app" (§2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileHandle {
    inode: InodeId,
    writable: bool,
}

/// The permission-checked filesystem facade.
///
/// Cloning is cheap; all clones share the same backing store. The store
/// itself is internally sharded (see `store.rs`), so no facade-level lock
/// is needed: every operation takes `&Store` and the store serializes
/// per-shard.
#[derive(Debug, Clone)]
pub struct Vfs {
    store: Arc<Store>,
}

impl Default for Vfs {
    fn default() -> Self {
        Self::new()
    }
}

impl Vfs {
    /// Creates a VFS over a fresh backing store.
    pub fn new() -> Self {
        Vfs { store: Arc::new(Store::new()) }
    }

    /// Creates a VFS whose store spills file payloads larger than
    /// `threshold` bytes to a block device behind a `pages`-page cache,
    /// bounding content memory by the cache budget.
    pub fn with_block_device(
        dev: Box<dyn maxoid_block::BlockDevice>,
        pages: usize,
        threshold: usize,
    ) -> Self {
        Vfs { store: Arc::new(Store::with_block_device(dev, pages, threshold)) }
    }

    /// Point-in-time storage-tier counters: resident vs spilled files and
    /// the page-cache stats when a block device is attached.
    pub fn store_stats(&self) -> crate::store::StoreStats {
        self.with_store(|s| s.stats())
    }

    /// Runs a closure with shared access to the raw backing store.
    ///
    /// This is the "root" escape hatch used by trusted components (the
    /// branch manager, Zygote, providers' file helpers); apps never get it.
    pub fn with_store<R>(&self, f: impl FnOnce(&Store) -> R) -> R {
        f(&self.store)
    }

    /// Attaches a journal to the backing store: every successful store
    /// mutation from here on emits a physical journal record.
    pub fn attach_journal(&self, journal: maxoid_journal::Journal) {
        self.store.set_journal(journal);
    }

    fn creation_mode(mount: &Mount, requested: Mode) -> Mode {
        mount.forced_mode.unwrap_or(requested)
    }

    /// Reads a file through the caller's namespace.
    pub fn read(&self, cred: Cred, ns: &MountNamespace, path: &VPath) -> VfsResult<Vec<u8>> {
        let (mount, rel) = ns.resolve(path)?;
        let store = &*self.store;
        match &mount.kind {
            MountKind::Bind { host, .. } => {
                let hp = join_host(host, &rel)?;
                let meta = store.stat(&hp)?;
                if meta.is_dir {
                    return Err(VfsError::IsADirectory);
                }
                if !meta.mode.allows_read(meta.owner, cred.uid) {
                    return Err(VfsError::PermissionDenied);
                }
                store.read(&hp)
            }
            MountKind::Union(u) => {
                let meta = u.stat(store, &rel)?;
                if meta.is_dir {
                    return Err(VfsError::IsADirectory);
                }
                if !u.maxoid_access && !meta.mode.allows_read(meta.owner, cred.uid) {
                    return Err(VfsError::PermissionDenied);
                }
                u.read(store, &rel)
            }
        }
    }

    /// Creates or truncates a file through the caller's namespace.
    pub fn write(
        &self,
        cred: Cred,
        ns: &MountNamespace,
        path: &VPath,
        data: &[u8],
        mode: Mode,
    ) -> VfsResult<()> {
        let (mount, rel) = ns.resolve(path)?;
        let mode = Self::creation_mode(mount, mode);
        let store = &*self.store;
        match &mount.kind {
            MountKind::Bind { host, read_only } => {
                if *read_only {
                    return Err(VfsError::ReadOnly);
                }
                let hp = join_host(host, &rel)?;
                if let Ok(meta) = store.stat(&hp) {
                    if meta.is_dir {
                        return Err(VfsError::IsADirectory);
                    }
                    if !meta.mode.allows_write(meta.owner, cred.uid) {
                        return Err(VfsError::PermissionDenied);
                    }
                }
                store.write(&hp, data, cred.uid, mode)?;
                Ok(())
            }
            MountKind::Union(u) => {
                if let Some(meta) = u.effective(store, &rel).map(|l| store.stat(&l.host)) {
                    let meta = meta?;
                    if meta.is_dir {
                        return Err(VfsError::IsADirectory);
                    }
                    if !u.maxoid_access && !meta.mode.allows_write(meta.owner, cred.uid) {
                        return Err(VfsError::PermissionDenied);
                    }
                }
                u.write(store, &rel, data, cred.uid, mode)
            }
        }
    }

    /// Appends to an existing file (copy-up on union mounts).
    pub fn append(
        &self,
        cred: Cred,
        ns: &MountNamespace,
        path: &VPath,
        data: &[u8],
    ) -> VfsResult<()> {
        let (mount, rel) = ns.resolve(path)?;
        let store = &*self.store;
        match &mount.kind {
            MountKind::Bind { host, read_only } => {
                if *read_only {
                    return Err(VfsError::ReadOnly);
                }
                let hp = join_host(host, &rel)?;
                let meta = store.stat(&hp)?;
                if !meta.mode.allows_write(meta.owner, cred.uid) {
                    return Err(VfsError::PermissionDenied);
                }
                store.append(&hp, data)
            }
            MountKind::Union(u) => {
                let meta = u.stat(store, &rel)?;
                if !u.maxoid_access && !meta.mode.allows_write(meta.owner, cred.uid) {
                    return Err(VfsError::PermissionDenied);
                }
                u.append(store, &rel, data)
            }
        }
    }

    /// Deletes a file.
    pub fn unlink(&self, cred: Cred, ns: &MountNamespace, path: &VPath) -> VfsResult<()> {
        let (mount, rel) = ns.resolve(path)?;
        let store = &*self.store;
        match &mount.kind {
            MountKind::Bind { host, read_only } => {
                if *read_only {
                    return Err(VfsError::ReadOnly);
                }
                let hp = join_host(host, &rel)?;
                let meta = store.stat(&hp)?;
                if !meta.mode.allows_write(meta.owner, cred.uid) {
                    return Err(VfsError::PermissionDenied);
                }
                store.unlink(&hp)
            }
            MountKind::Union(u) => {
                let meta = u.stat(store, &rel)?;
                if !u.maxoid_access && !meta.mode.allows_write(meta.owner, cred.uid) {
                    return Err(VfsError::PermissionDenied);
                }
                u.unlink(store, &rel)
            }
        }
    }

    /// Creates a directory (and missing ancestors).
    pub fn mkdir_all(
        &self,
        cred: Cred,
        ns: &MountNamespace,
        path: &VPath,
        mode: Mode,
    ) -> VfsResult<()> {
        let (mount, rel) = ns.resolve(path)?;
        let mode = Self::creation_mode(mount, mode);
        let store = &*self.store;
        match &mount.kind {
            MountKind::Bind { host, read_only } => {
                if *read_only {
                    return Err(VfsError::ReadOnly);
                }
                let hp = join_host(host, &rel)?;
                store.mkdir_all(&hp, cred.uid, mode)
            }
            MountKind::Union(u) => u.mkdir_all(store, &rel, cred.uid, mode),
        }
    }

    /// Removes an empty directory.
    pub fn rmdir(&self, _cred: Cred, ns: &MountNamespace, path: &VPath) -> VfsResult<()> {
        let (mount, rel) = ns.resolve(path)?;
        let store = &*self.store;
        match &mount.kind {
            MountKind::Bind { host, read_only } => {
                if *read_only {
                    return Err(VfsError::ReadOnly);
                }
                store.rmdir(&join_host(host, &rel)?)
            }
            MountKind::Union(u) => u.rmdir(store, &rel),
        }
    }

    /// Lists a directory, merging in any nested mount points.
    pub fn read_dir(
        &self,
        cred: Cred,
        ns: &MountNamespace,
        path: &VPath,
    ) -> VfsResult<Vec<DirEntry>> {
        let (mount, rel) = ns.resolve(path)?;
        let store = &*self.store;
        let mut entries = match &mount.kind {
            MountKind::Bind { host, .. } => {
                let hp = join_host(host, &rel)?;
                let meta = store.stat(&hp)?;
                if !meta.mode.allows_read(meta.owner, cred.uid) {
                    return Err(VfsError::PermissionDenied);
                }
                store.read_dir(&hp)?
            }
            MountKind::Union(u) => u.read_dir(store, &rel)?,
        };
        // Surface nested mount points (e.g. EXTDIR/tmp) that live in other
        // mounts rather than in this mount's backing dirs.
        for name in ns.child_mount_names(path) {
            if !entries.iter().any(|e| e.name == name) {
                entries.push(DirEntry { name, is_dir: true });
            }
        }
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(entries)
    }

    /// Returns metadata for a path.
    pub fn stat(&self, _cred: Cred, ns: &MountNamespace, path: &VPath) -> VfsResult<Metadata> {
        let (mount, rel) = ns.resolve(path)?;
        let store = &*self.store;
        match &mount.kind {
            MountKind::Bind { host, .. } => store.stat(&join_host(host, &rel)?),
            MountKind::Union(u) => u.stat(store, &rel),
        }
    }

    /// Returns true if the path exists in the caller's view.
    pub fn exists(&self, cred: Cred, ns: &MountNamespace, path: &VPath) -> bool {
        self.stat(cred, ns, path).is_ok()
    }

    /// Renames a file within a single mount.
    pub fn rename(
        &self,
        cred: Cred,
        ns: &MountNamespace,
        from: &VPath,
        to: &VPath,
    ) -> VfsResult<()> {
        let (fm, frel) = ns.resolve(from)?;
        let (tm, trel) = ns.resolve(to)?;
        if fm.point != tm.point {
            return Err(VfsError::CrossDevice);
        }
        let store = &*self.store;
        match &fm.kind {
            MountKind::Bind { host, read_only } => {
                if *read_only {
                    return Err(VfsError::ReadOnly);
                }
                store.rename(&join_host(host, &frel)?, &join_host(host, &trel)?)
            }
            MountKind::Union(u) => {
                let meta = u.stat(store, &frel)?;
                if !u.maxoid_access && !meta.mode.allows_write(meta.owner, cred.uid) {
                    return Err(VfsError::PermissionDenied);
                }
                let mode = fm.forced_mode.unwrap_or(meta.mode);
                u.rename(store, &frel, &trel, cred.uid, mode)
            }
        }
    }

    /// Opens a file handle; checks happen now, not at read/write time.
    pub fn open(
        &self,
        cred: Cred,
        ns: &MountNamespace,
        path: &VPath,
        mode: OpenMode,
    ) -> VfsResult<FileHandle> {
        let (mount, rel) = ns.resolve(path)?;
        let store = &*self.store;
        let host = match &mount.kind {
            MountKind::Bind { host, read_only } => {
                if *read_only && mode == OpenMode::ReadWrite {
                    return Err(VfsError::ReadOnly);
                }
                join_host(host, &rel)?
            }
            MountKind::Union(u) => {
                if mode == OpenMode::ReadWrite {
                    // Copy-up at open, so the handle pins the writable copy.
                    let meta = u.stat(store, &rel)?;
                    if !u.maxoid_access && !meta.mode.allows_write(meta.owner, cred.uid) {
                        return Err(VfsError::PermissionDenied);
                    }
                    u.copy_up(store, &rel)?
                } else {
                    u.effective(store, &rel).ok_or(VfsError::NotFound)?.host
                }
            }
        };
        let meta = store.stat(&host)?;
        if meta.is_dir {
            return Err(VfsError::IsADirectory);
        }
        let maxoid_read = matches!(&mount.kind, MountKind::Union(u) if u.maxoid_access);
        if !maxoid_read && !meta.mode.allows_read(meta.owner, cred.uid) {
            return Err(VfsError::PermissionDenied);
        }
        if mode == OpenMode::ReadWrite
            && !maxoid_read
            && !meta.mode.allows_write(meta.owner, cred.uid)
        {
            return Err(VfsError::PermissionDenied);
        }
        let inode = store.resolve(&host)?;
        Ok(FileHandle { inode, writable: mode == OpenMode::ReadWrite })
    }

    /// Reads via a handle, bypassing path permission checks.
    pub fn read_handle(&self, handle: FileHandle) -> VfsResult<Vec<u8>> {
        self.store.read_inode(handle.inode)
    }

    /// Overwrites a file via a writable handle.
    pub fn write_handle(&self, handle: FileHandle, data: &[u8]) -> VfsResult<()> {
        if !handle.writable {
            return Err(VfsError::BadHandle);
        }
        self.store.write_inode(handle.inode, data)
    }
}

fn join_host(host: &VPath, rel: &str) -> VfsResult<VPath> {
    if rel.is_empty() {
        Ok(host.clone())
    } else {
        host.join(rel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cred::Uid;
    use crate::mount::Mount;
    use crate::path::vpath;
    use crate::union::{Branch, Union};

    const APP_A: Cred = Cred { uid: Uid(10_001) };
    const APP_B: Cred = Cred { uid: Uid(10_002) };

    fn setup() -> (Vfs, MountNamespace) {
        let vfs = Vfs::new();
        vfs.with_store(|s| {
            s.mkdir_all(&vpath("/back/pub"), Uid::ROOT, Mode::PUBLIC).unwrap();
            s.mkdir_all(&vpath("/back/privA"), Uid::ROOT, Mode::PUBLIC).unwrap();
        });
        let mut ns = MountNamespace::new();
        ns.add(Mount::bind(vpath("/sdcard"), vpath("/back/pub")).with_forced_mode(Mode::PUBLIC));
        ns.add(Mount::bind(vpath("/data/data/A"), vpath("/back/privA")));
        (vfs, ns)
    }

    #[test]
    fn write_read_through_bind() {
        let (vfs, ns) = setup();
        vfs.write(APP_A, &ns, &vpath("/sdcard/f.txt"), b"hi", Mode::PRIVATE).unwrap();
        // Forced mode makes the file public despite the private request.
        assert_eq!(vfs.read(APP_B, &ns, &vpath("/sdcard/f.txt")).unwrap(), b"hi");
    }

    #[test]
    fn private_files_are_uid_protected() {
        let (vfs, ns) = setup();
        vfs.write(APP_A, &ns, &vpath("/data/data/A/secret"), b"s", Mode::PRIVATE).unwrap();
        assert_eq!(vfs.read(APP_A, &ns, &vpath("/data/data/A/secret")).unwrap(), b"s");
        assert_eq!(
            vfs.read(APP_B, &ns, &vpath("/data/data/A/secret")).err(),
            Some(VfsError::PermissionDenied)
        );
        assert_eq!(
            vfs.write(APP_B, &ns, &vpath("/data/data/A/secret"), b"x", Mode::PUBLIC).err(),
            Some(VfsError::PermissionDenied)
        );
    }

    #[test]
    fn union_maxoid_access_allows_cross_uid_read() {
        let (vfs, mut ns) = setup();
        vfs.write(APP_A, &ns, &vpath("/data/data/A/secret"), b"s", Mode::PRIVATE).unwrap();
        // Mount A's private dir for B with maxoid_access, tmp writable branch.
        vfs.with_store(|s| s.mkdir_all(&vpath("/back/tmpA"), Uid::ROOT, Mode::PUBLIC).unwrap());
        let u = Union::new(
            vec![Branch::rw(vpath("/back/tmpA")), Branch::ro(vpath("/back/privA"))],
            true,
        );
        ns.add(Mount::union(vpath("/data/data/A"), u).with_forced_mode(Mode::PUBLIC));
        assert_eq!(vfs.read(APP_B, &ns, &vpath("/data/data/A/secret")).unwrap(), b"s");
        // B's write is redirected, not applied to A's copy.
        vfs.write(APP_B, &ns, &vpath("/data/data/A/secret"), b"mod", Mode::PUBLIC).unwrap();
        assert_eq!(vfs.read(APP_B, &ns, &vpath("/data/data/A/secret")).unwrap(), b"mod");
        vfs.with_store(|s| {
            assert_eq!(s.read(&vpath("/back/privA/secret")).unwrap(), b"s");
            assert_eq!(s.read(&vpath("/back/tmpA/secret")).unwrap(), b"mod");
        });
    }

    #[test]
    fn read_only_bind_rejects_mutation() {
        let (vfs, mut ns) = setup();
        ns.add(Mount::bind_ro(vpath("/ro"), vpath("/back/pub")));
        assert_eq!(
            vfs.write(APP_A, &ns, &vpath("/ro/f"), b"x", Mode::PUBLIC).err(),
            Some(VfsError::ReadOnly)
        );
        assert_eq!(
            vfs.mkdir_all(APP_A, &ns, &vpath("/ro/d"), Mode::PUBLIC).err(),
            Some(VfsError::ReadOnly)
        );
    }

    #[test]
    fn handles_bypass_path_checks() {
        let (vfs, ns) = setup();
        vfs.write(APP_A, &ns, &vpath("/data/data/A/att.pdf"), b"pdf", Mode::PRIVATE).unwrap();
        // A opens its private file and passes the handle to B.
        let h = vfs.open(APP_A, &ns, &vpath("/data/data/A/att.pdf"), OpenMode::Read).unwrap();
        assert_eq!(vfs.read_handle(h).unwrap(), b"pdf");
        // B cannot open the path itself.
        assert_eq!(
            vfs.open(APP_B, &ns, &vpath("/data/data/A/att.pdf"), OpenMode::Read).err(),
            Some(VfsError::PermissionDenied)
        );
        // Read-only handles refuse writes.
        assert_eq!(vfs.write_handle(h, b"x").err(), Some(VfsError::BadHandle));
    }

    #[test]
    fn readdir_includes_nested_mount_points() {
        let (vfs, mut ns) = setup();
        vfs.with_store(|s| s.mkdir_all(&vpath("/back/tmpA"), Uid::ROOT, Mode::PUBLIC).unwrap());
        ns.add(Mount::bind(vpath("/sdcard/tmp"), vpath("/back/tmpA")));
        vfs.write(APP_A, &ns, &vpath("/sdcard/f"), b"x", Mode::PUBLIC).unwrap();
        let names: Vec<String> = vfs
            .read_dir(APP_A, &ns, &vpath("/sdcard"))
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect();
        assert_eq!(names, vec!["f".to_string(), "tmp".to_string()]);
    }

    #[test]
    fn rename_across_mounts_is_exdev() {
        let (vfs, ns) = setup();
        vfs.write(APP_A, &ns, &vpath("/sdcard/f"), b"x", Mode::PUBLIC).unwrap();
        assert_eq!(
            vfs.rename(APP_A, &ns, &vpath("/sdcard/f"), &vpath("/data/data/A/f")).err(),
            Some(VfsError::CrossDevice)
        );
    }

    #[test]
    fn rw_open_on_union_copies_up() {
        let (vfs, mut ns) = setup();
        vfs.with_store(|s| {
            s.mkdir_all(&vpath("/back/up"), Uid::ROOT, Mode::PUBLIC).unwrap();
            s.mkdir_all(&vpath("/back/low"), Uid::ROOT, Mode::PUBLIC).unwrap();
            s.write(&vpath("/back/low/f"), b"orig", Uid::ROOT, Mode::PUBLIC).unwrap();
        });
        let u =
            Union::new(vec![Branch::rw(vpath("/back/up")), Branch::ro(vpath("/back/low"))], false);
        ns.add(Mount::union(vpath("/m"), u));
        let h = vfs.open(APP_A, &ns, &vpath("/m/f"), OpenMode::ReadWrite).unwrap();
        vfs.write_handle(h, b"edited").unwrap();
        vfs.with_store(|s| {
            assert_eq!(s.read(&vpath("/back/low/f")).unwrap(), b"orig");
            assert_eq!(s.read(&vpath("/back/up/f")).unwrap(), b"edited");
        });
    }

    #[test]
    fn empty_namespace_hides_everything() {
        let vfs = Vfs::new();
        let ns = MountNamespace::new();
        assert_eq!(vfs.read(APP_A, &ns, &vpath("/anything")).err(), Some(VfsError::NotFound));
    }
}
