//! Locating provider files across public and volatile storage.
//!
//! Downloads and Media store *client-visible* path names (e.g.
//! `/storage/sdcard/Download/file.pdf`) in their databases, but the actual
//! bytes of a volatile record live in the initiator's tmp branch. The
//! paper wraps Java's `File` class to automate locating such files;
//! [`FileLocator`] is that wrapper: trusted system services resolve a
//! client path plus provenance to the real backing-store location.

use maxoid_vfs::{Mode, Uid, VPath, Vfs, VfsResult};

/// Resolves client-visible paths to backing-store host paths.
pub trait FileLocator: std::fmt::Debug + Send + Sync {
    /// Host path of the public copy of an external-storage path.
    fn public_host(&self, path: &VPath) -> VfsResult<VPath>;

    /// Host path of the volatile copy of `path` for `initiator`.
    fn volatile_host(&self, initiator: &str, path: &VPath) -> VfsResult<VPath>;
}

/// Trusted file access for system services (Downloads, Media): reads and
/// writes go straight to the backing store at locator-resolved paths,
/// bypassing app namespaces — these services run as system UIDs with all
/// volatile tmp directories visible (§5.3).
#[derive(Debug, Clone)]
pub struct SystemFiles<L: FileLocator> {
    vfs: Vfs,
    locator: L,
}

impl<L: FileLocator> SystemFiles<L> {
    /// Creates system file access over a VFS and a locator.
    pub fn new(vfs: Vfs, locator: L) -> Self {
        SystemFiles { vfs, locator }
    }

    /// Returns the locator.
    pub fn locator(&self) -> &L {
        &self.locator
    }

    fn host(&self, initiator: Option<&str>, path: &VPath) -> VfsResult<VPath> {
        match initiator {
            Some(init) => self.locator.volatile_host(init, path),
            None => self.locator.public_host(path),
        }
    }

    /// Writes a file into public (initiator `None`) or volatile storage.
    pub fn write(&self, initiator: Option<&str>, path: &VPath, data: &[u8]) -> VfsResult<()> {
        let host = self.host(initiator, path)?;
        self.vfs.with_store(|s| {
            if let Some(parent) = host.parent() {
                s.mkdir_all(&parent, Uid::SYSTEM, Mode::PUBLIC)?;
            }
            s.write(&host, data, Uid::SYSTEM, Mode::PUBLIC)?;
            Ok(())
        })
    }

    /// Reads a file, checking the volatile copy first when `initiator` is
    /// set (the record's provenance decides, per the Downloads port).
    pub fn read(&self, initiator: Option<&str>, path: &VPath) -> VfsResult<Vec<u8>> {
        let host = self.host(initiator, path)?;
        self.vfs.with_store(|s| s.read(&host))
    }

    /// Deletes a file from the selected storage.
    pub fn delete(&self, initiator: Option<&str>, path: &VPath) -> VfsResult<()> {
        let host = self.host(initiator, path)?;
        self.vfs.with_store(|s| s.unlink(&host))
    }

    /// Returns true when the file exists in the selected storage.
    pub fn exists(&self, initiator: Option<&str>, path: &VPath) -> bool {
        self.host(initiator, path).map(|h| self.vfs.with_store(|s| s.exists(&h))).unwrap_or(false)
    }
}

/// A minimal locator for standalone provider tests: public files under
/// `/back/pub`, volatile files under `/back/vol/<initiator>`.
#[derive(Debug, Clone, Default)]
pub struct SimpleLocator;

impl FileLocator for SimpleLocator {
    fn public_host(&self, path: &VPath) -> VfsResult<VPath> {
        path.rebase(&VPath::root(), &maxoid_vfs::vpath("/back/pub"))
            .ok_or(maxoid_vfs::VfsError::InvalidArgument)
    }

    fn volatile_host(&self, initiator: &str, path: &VPath) -> VfsResult<VPath> {
        let base = maxoid_vfs::vpath("/back/vol").join(initiator)?;
        path.rebase(&VPath::root(), &base).ok_or(maxoid_vfs::VfsError::InvalidArgument)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxoid_vfs::vpath;

    #[test]
    fn system_files_route_by_provenance() {
        let vfs = Vfs::new();
        let sf = SystemFiles::new(vfs.clone(), SimpleLocator);
        let p = vpath("/sdcard/Download/f.pdf");
        sf.write(None, &p, b"public").unwrap();
        sf.write(Some("browser"), &p, b"volatile").unwrap();
        assert_eq!(sf.read(None, &p).unwrap(), b"public");
        assert_eq!(sf.read(Some("browser"), &p).unwrap(), b"volatile");
        // The two copies live in different host locations.
        vfs.with_store(|s| {
            assert_eq!(s.read(&vpath("/back/pub/sdcard/Download/f.pdf")).unwrap(), b"public");
            assert_eq!(
                s.read(&vpath("/back/vol/browser/sdcard/Download/f.pdf")).unwrap(),
                b"volatile"
            );
        });
        sf.delete(Some("browser"), &p).unwrap();
        assert!(!sf.exists(Some("browser"), &p));
        assert!(sf.exists(None, &p));
    }
}
