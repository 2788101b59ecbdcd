//! Volatile state management for files (§3.3).
//!
//! Everything an initiator's delegates write to their view of public state
//! lands in `Vol(A)`: the external tmp branch, the internal tmp branch,
//! and the providers' delta tables (handled by the resolver). This module
//! covers the file side: enumerating `Vol(A)`, selectively **committing**
//! a change (copying it to a non-volatile place), and **discarding** the
//! whole volatile state "conveniently because of the fixed naming
//! pattern".

use crate::layout;
use crate::manifest::MaxoidManifest;
use maxoid_vfs::{Mode, Uid, VPath, Vfs, VfsError, VfsResult};

/// A volatile file entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VolatileEntry {
    /// Path relative to EXTDIR (external entries) or to the initiator's
    /// internal dir (internal entries).
    pub rel: String,
    /// True for internal-storage entries.
    pub internal: bool,
    /// Size in bytes.
    pub size: u64,
}

/// Manages the file portion of `Vol(A)`.
#[derive(Debug, Clone)]
pub struct VolatileState {
    vfs: Vfs,
}

impl VolatileState {
    /// Creates the manager over the shared VFS.
    pub fn new(vfs: Vfs) -> Self {
        VolatileState { vfs }
    }

    fn walk(
        vfs: &Vfs,
        root: &VPath,
        internal: bool,
        out: &mut Vec<VolatileEntry>,
    ) -> VfsResult<()> {
        fn rec(
            s: &maxoid_vfs::Store,
            root: &VPath,
            p: &VPath,
            internal: bool,
            out: &mut Vec<VolatileEntry>,
        ) -> VfsResult<()> {
            let meta = s.stat(p)?;
            if meta.is_dir {
                for e in s.read_dir(p)? {
                    let child = p.join(&e.name)?;
                    rec(s, root, &child, internal, out)?;
                }
            } else if let Some(rel) = p.strip_prefix(root) {
                out.push(VolatileEntry { rel: rel.to_string(), internal, size: meta.size });
            }
            Ok(())
        }
        vfs.with_store(|s| match s.stat(root) {
            // A tmp root that was never created is legitimately empty;
            // every other error (a file where a directory should be, a
            // vanished child mid-walk) must reach the caller rather than
            // silently shortening the Vol(A) listing.
            Err(VfsError::NotFound) => Ok(()),
            Err(e) => Err(e),
            Ok(_) => rec(s, root, root, internal, out),
        })
    }

    /// Enumerates all volatile files of `init`.
    pub fn list(&self, init: &str) -> VfsResult<Vec<VolatileEntry>> {
        let mut out = Vec::new();
        Self::walk(&self.vfs, &layout::back_ext_tmp(init)?, false, &mut out)?;
        Self::walk(&self.vfs, &layout::back_internal_tmp(init)?, true, &mut out)?;
        Ok(out)
    }

    /// Commits one external volatile file: copies it from `Vol(init)` to
    /// its non-volatile place — the initiator's private external branch
    /// when the path falls under a declared private dir, the public
    /// branch otherwise. The volatile copy is kept until Clear-Vol.
    pub fn commit_external(
        &self,
        init: &str,
        manifest: &MaxoidManifest,
        rel: &str,
    ) -> VfsResult<()> {
        let src = layout::back_ext_tmp(init)?.join(rel)?;
        let private = manifest
            .private_ext_dirs
            .iter()
            .any(|d| rel == d.as_str() || rel.starts_with(&format!("{d}/")));
        let dst = if private {
            layout::back_ext_app(init)?.join(rel)?
        } else {
            layout::back_ext_pub().join(rel)?
        };
        self.vfs.with_store(|s| {
            if !s.exists(&src) {
                return Err(VfsError::NotFound);
            }
            if let Some(parent) = dst.parent() {
                s.mkdir_all(&parent, Uid::ROOT, Mode::PUBLIC)?;
            }
            s.copy_file(&src, &dst)
        })
    }

    /// Checks that every listed volatile file of `init` exists: `external`
    /// relative to EXTDIR, `internal` to its internal dir.
    pub fn check(&self, init: &str, external: &[String], internal: &[String]) -> VfsResult<()> {
        let (ext, int) = (layout::back_ext_tmp(init)?, layout::back_internal_tmp(init)?);
        let mut srcs = Vec::with_capacity(external.len() + internal.len());
        for rel in external {
            srcs.push(ext.join(rel)?);
        }
        for rel in internal {
            srcs.push(int.join(rel)?);
        }
        let missing = self.vfs.with_store(|s| srcs.iter().any(|src| !s.exists(src)));
        if missing {
            return Err(VfsError::NotFound);
        }
        Ok(())
    }

    /// Commits one internal volatile file into the initiator's private
    /// internal storage.
    pub fn commit_internal(&self, init: &str, rel: &str) -> VfsResult<()> {
        let src = layout::back_internal_tmp(init)?.join(rel)?;
        let dst = layout::back_internal(init)?.join(rel)?;
        self.vfs.with_store(|s| {
            if !s.exists(&src) {
                return Err(VfsError::NotFound);
            }
            let owner = s.stat(&layout::back_internal(init)?)?.owner;
            if let Some(parent) = dst.parent() {
                s.mkdir_all(&parent, owner, Mode::PRIVATE)?;
            }
            let data = s.read(&src)?;
            s.write(&dst, &data, owner, Mode::PRIVATE)?;
            Ok(())
        })
    }

    /// Discards the entire file portion of `Vol(init)`.
    pub fn clear(&self, init: &str) -> VfsResult<usize> {
        let removed = self.list(init)?.len();
        for root in [layout::back_ext_tmp(init)?, layout::back_internal_tmp(init)?] {
            self.vfs.with_store(|s| -> VfsResult<()> {
                if s.exists(&root) {
                    s.remove_all(&root)?;
                }
                s.mkdir_all(&root, Uid::ROOT, Mode::PUBLIC)
            })?;
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxoid_vfs::vpath;

    fn setup() -> (Vfs, VolatileState) {
        let vfs = Vfs::new();
        vfs.with_store(|s| {
            for d in [
                "/backing/ext/pub",
                "/backing/ext/apps/A/tmp",
                "/backing/internal/A",
                "/backing/internal_tmp/A",
            ] {
                s.mkdir_all(&vpath(d), Uid::ROOT, Mode::PUBLIC).unwrap();
            }
            s.chown_chmod(&vpath("/backing/internal/A"), Uid(10_001), Mode::PRIVATE).unwrap();
        });
        let v = VolatileState::new(vfs.clone());
        (vfs, v)
    }

    fn seed_volatile(vfs: &Vfs) {
        vfs.with_store(|s| {
            s.mkdir_all(&vpath("/backing/ext/apps/A/tmp/data/A"), Uid::ROOT, Mode::PUBLIC).unwrap();
            s.write(
                &vpath("/backing/ext/apps/A/tmp/data/A/edited.txt"),
                b"edited",
                Uid(10_002),
                Mode::PUBLIC,
            )
            .unwrap();
            s.write(&vpath("/backing/ext/apps/A/tmp/side.log"), b"side", Uid(10_002), Mode::PUBLIC)
                .unwrap();
            s.write(
                &vpath("/backing/internal_tmp/A/att.pdf"),
                b"modified",
                Uid(10_002),
                Mode::PUBLIC,
            )
            .unwrap();
        });
    }

    #[test]
    fn lists_both_storages() {
        let (vfs, v) = setup();
        seed_volatile(&vfs);
        let mut entries = v.list("A").unwrap();
        entries.sort_by(|a, b| a.rel.cmp(&b.rel));
        let rels: Vec<(&str, bool)> =
            entries.iter().map(|e| (e.rel.as_str(), e.internal)).collect();
        assert_eq!(
            rels,
            vec![("att.pdf", true), ("data/A/edited.txt", false), ("side.log", false)]
        );
    }

    #[test]
    fn commit_routes_private_vs_public() {
        let (vfs, v) = setup();
        seed_volatile(&vfs);
        let manifest = MaxoidManifest::new().private_ext_dir("data/A");
        // A file under the declared private dir commits into A's branch.
        v.commit_external("A", &manifest, "data/A/edited.txt").unwrap();
        vfs.with_store(|s| {
            assert_eq!(s.read(&vpath("/backing/ext/apps/A/data/A/edited.txt")).unwrap(), b"edited");
            assert!(!s.exists(&vpath("/backing/ext/pub/data/A/edited.txt")));
        });
        // A file outside commits to public.
        v.commit_external("A", &manifest, "side.log").unwrap();
        vfs.with_store(|s| {
            assert_eq!(s.read(&vpath("/backing/ext/pub/side.log")).unwrap(), b"side");
        });
        // Missing files error.
        assert_eq!(v.commit_external("A", &manifest, "nope").err(), Some(VfsError::NotFound));
    }

    #[test]
    fn commit_internal_adopts_owner() {
        let (vfs, v) = setup();
        seed_volatile(&vfs);
        v.commit_internal("A", "att.pdf").unwrap();
        vfs.with_store(|s| {
            let meta = s.stat(&vpath("/backing/internal/A/att.pdf")).unwrap();
            assert_eq!(meta.owner, Uid(10_001));
            assert_eq!(meta.mode, Mode::PRIVATE);
            assert_eq!(s.read(&vpath("/backing/internal/A/att.pdf")).unwrap(), b"modified");
        });
    }

    #[test]
    fn clear_empties_volatile_state() {
        let (vfs, v) = setup();
        seed_volatile(&vfs);
        let n = v.clear("A").unwrap();
        assert_eq!(n, 3);
        assert!(v.list("A").unwrap().is_empty());
        // The tmp roots still exist (fresh and empty) for future runs.
        vfs.with_store(|s| {
            assert!(s.exists(&vpath("/backing/ext/apps/A/tmp")));
            assert!(s.exists(&vpath("/backing/internal_tmp/A")));
        });
    }
}
