//! The Aufs branch manager (§4.2).
//!
//! Lives in Zygote in the paper: when an app process forks, the branch
//! manager selects and mounts the branches that give the process its
//! Maxoid view of files, before the process drops root. Table 2 of the
//! paper specifies the external-storage layout this module reproduces:
//!
//! | Mount point     | Branches for `A`  | Branches for `B^A`            |
//! |-----------------|-------------------|-------------------------------|
//! | EXTDIR          | pub (rw)          | A/tmp (rw), pub               |
//! | EXTDIR/data/A   | A/data/A (rw)     | A/tmp/data/A (rw), A/data/A   |
//! | EXTDIR/data/B   | N/A               | B-A/data/B (rw), B/data/B     |
//! | EXTDIR/tmp      | A/tmp (rw)        | N/A                           |
//!
//! plus the internal mounts: the delegate's nPriv union over
//! `/data/data/B`, its pPriv bind, and the initiator's private directory
//! exposed with copy-on-write redirection into Vol(A).

use crate::layout;
use crate::manifest::MaxoidManifest;
use maxoid_providers::FileLocator;
use maxoid_vfs::{
    Branch, Mode, Mount, MountNamespace, Uid, Union, VPath, Vfs, VfsError, VfsResult,
};

/// Builds per-process mount namespaces and manages branch directories.
#[derive(Debug, Clone)]
pub struct BranchManager {
    vfs: Vfs,
}

impl BranchManager {
    /// Creates the branch manager and the shared backing directories.
    pub fn new(vfs: Vfs) -> VfsResult<Self> {
        vfs.with_store(|s| {
            s.mkdir_all(&layout::back_ext_pub(), Uid::ROOT, Mode::PUBLIC)?;
            s.mkdir_all(&maxoid_vfs::vpath("/backing/internal"), Uid::ROOT, Mode::PUBLIC)?;
            s.mkdir_all(&maxoid_vfs::vpath("/backing/internal_tmp"), Uid::ROOT, Mode::PUBLIC)?;
            s.mkdir_all(&maxoid_vfs::vpath("/backing/npriv"), Uid::ROOT, Mode::PUBLIC)?;
            s.mkdir_all(&maxoid_vfs::vpath("/backing/ppriv"), Uid::ROOT, Mode::PUBLIC)?;
            s.mkdir_all(&maxoid_vfs::vpath("/backing/ext/apps"), Uid::ROOT, Mode::PUBLIC)?;
            s.mkdir_all(&maxoid_vfs::vpath("/backing/ext/deleg"), Uid::ROOT, Mode::PUBLIC)
        })?;
        Ok(BranchManager { vfs })
    }

    /// Returns the underlying VFS.
    pub fn vfs(&self) -> &Vfs {
        &self.vfs
    }

    /// Creates an app's backing directories at install time: its internal
    /// private dir (owned by its uid) and its declared private
    /// external-storage branches.
    pub fn prepare_app(&self, pkg: &str, uid: Uid, manifest: &MaxoidManifest) -> VfsResult<()> {
        self.vfs.with_store(|s| {
            s.mkdir_all(&layout::back_internal(pkg)?, uid, Mode::PRIVATE)?;
            for rel in &manifest.private_ext_dirs {
                s.mkdir_all(&layout::back_ext_app(pkg)?.join(rel)?, uid, Mode::PUBLIC)?;
            }
            Ok(())
        })
    }

    fn ensure_dir(&self, path: &VPath) -> VfsResult<()> {
        self.vfs.with_store(|s| s.mkdir_all(path, Uid::ROOT, Mode::PUBLIC))
    }

    /// Builds the namespace for app `pkg` running normally (initiator).
    ///
    /// The initiator's views are identical to stock Android, plus the
    /// `EXTDIR/tmp` window onto Vol(pkg) and the internal-tmp window under
    /// its private dir.
    pub fn initiator_namespace(
        &self,
        pkg: &str,
        manifest: &MaxoidManifest,
    ) -> VfsResult<MountNamespace> {
        let mut ns = MountNamespace::new();
        // Internal private storage: a single direct branch — "Aufs is not
        // used for initiators' private directories" (§4.2), so initiators
        // pay no union overhead.
        ns.add(Mount::bind(layout::internal_dir(pkg)?, layout::back_internal(pkg)?));
        // Window onto volatile copies of internal files made by delegates.
        let itmp = layout::back_internal_tmp(pkg)?;
        self.ensure_dir(&itmp)?;
        ns.add(
            Mount::bind(layout::internal_dir(pkg)?.join("tmp")?, itmp)
                .with_forced_mode(Mode::PUBLIC),
        );
        // EXTDIR: the public branch, read-write.
        ns.add(
            Mount::bind(layout::extdir(), layout::back_ext_pub()).with_forced_mode(Mode::PUBLIC),
        );
        // Declared private external dirs are backed by the app's branch.
        for rel in &manifest.private_ext_dirs {
            let host = layout::back_ext_app(pkg)?.join(rel)?;
            self.ensure_dir(&host)?;
            ns.add(Mount::bind(layout::extdir().join(rel)?, host).with_forced_mode(Mode::PUBLIC));
        }
        // EXTDIR/tmp: the initiator's view of Vol(pkg) files.
        let ext_tmp = layout::back_ext_tmp(pkg)?;
        self.ensure_dir(&ext_tmp)?;
        ns.add(Mount::bind(layout::ext_tmp_dir(), ext_tmp).with_forced_mode(Mode::PUBLIC));
        Ok(ns)
    }

    /// Builds the namespace for `pkg` running as a delegate of `init`
    /// (`B^A`), per Table 2 and §4.2.
    pub fn delegate_namespace(
        &self,
        pkg: &str,
        pkg_manifest: &MaxoidManifest,
        init: &str,
        init_manifest: &MaxoidManifest,
    ) -> VfsResult<MountNamespace> {
        if pkg == init {
            return Err(VfsError::InvalidArgument);
        }
        let mut ns = MountNamespace::new();

        // nPriv(B^A): writable overlay forked (lazily, copy-on-write) from
        // Priv(B).
        let overlay = layout::back_npriv(init, pkg)?;
        self.ensure_dir(&overlay)?;
        let npriv =
            Union::new(vec![Branch::rw(overlay), Branch::ro(layout::back_internal(pkg)?)], false);
        ns.add(Mount::union(layout::internal_dir(pkg)?, npriv));

        // pPriv(B^A): persistent, per-initiator, a plain writable bind.
        let ppriv = layout::back_ppriv(init, pkg)?;
        self.ensure_dir(&ppriv)?;
        ns.add(Mount::bind(layout::ppriv_dir(pkg)?, ppriv));

        // The initiator's internal private dir, exposed read-all with
        // writes redirected into Vol(A) (internal tmp). This carries the
        // paper's "modify Aufs to always allow read" change.
        let itmp = layout::back_internal_tmp(init)?;
        self.ensure_dir(&itmp)?;
        let init_priv =
            Union::new(vec![Branch::rw(itmp), Branch::ro(layout::back_internal(init)?)], true);
        ns.add(Mount::union(layout::internal_dir(init)?, init_priv).with_forced_mode(Mode::PUBLIC));

        // EXTDIR: A/tmp (rw) over pub (Table 2 row 1).
        let a_tmp = layout::back_ext_tmp(init)?;
        self.ensure_dir(&a_tmp)?;
        let ext =
            Union::new(vec![Branch::rw(a_tmp.clone()), Branch::ro(layout::back_ext_pub())], false);
        ns.add(Mount::union(layout::extdir(), ext).with_forced_mode(Mode::PUBLIC));

        // The initiator's private external dirs: A/tmp/<rel> (rw) over
        // A/<rel> (Table 2 row 2) — reads see A's private files, writes
        // land in Vol(A).
        for rel in &init_manifest.private_ext_dirs {
            let upper = a_tmp.join(rel)?;
            self.ensure_dir(&upper)?;
            let lower = layout::back_ext_app(init)?.join(rel)?;
            self.ensure_dir(&lower)?;
            let u = Union::new(vec![Branch::rw(upper), Branch::ro(lower)], true);
            ns.add(Mount::union(layout::extdir().join(rel)?, u).with_forced_mode(Mode::PUBLIC));
        }

        // The delegate's own private external dirs: B-A/<rel> (rw) over
        // B/<rel> (Table 2 row 3) — invisible to both A and normal B.
        for rel in &pkg_manifest.private_ext_dirs {
            let upper = layout::back_ext_delegate(pkg, init)?.join(rel)?;
            self.ensure_dir(&upper)?;
            let lower = layout::back_ext_app(pkg)?.join(rel)?;
            self.ensure_dir(&lower)?;
            let u = Union::new(vec![Branch::rw(upper), Branch::ro(lower)], false);
            ns.add(Mount::union(layout::extdir().join(rel)?, u).with_forced_mode(Mode::PUBLIC));
        }

        // No EXTDIR/tmp for delegates (Table 2 row 4: N/A).
        Ok(ns)
    }

    /// Renders a namespace as a Table 2-style mount table (used by the
    /// `mount_table` example to regenerate the paper's table).
    pub fn render_mount_table(ns: &MountNamespace) -> String {
        let mut out = String::new();
        let mut mounts: Vec<_> = ns.mounts().to_vec();
        mounts.sort_by(|a, b| a.point.as_str().cmp(b.point.as_str()));
        for m in mounts {
            let branches = match &m.kind {
                maxoid_vfs::MountKind::Bind { host, read_only } => {
                    format!("{host}{}", if *read_only { "" } else { " (rw)" })
                }
                maxoid_vfs::MountKind::Union(u) => u
                    .branches()
                    .iter()
                    .map(|b| format!("{}{}", b.host, if b.writable { " (rw)" } else { "" }))
                    .collect::<Vec<_>>()
                    .join(", "),
            };
            out.push_str(&format!("{:<28} {branches}\n", m.point.as_str()));
        }
        out
    }
}

/// [`FileLocator`] backed by the canonical layout: lets trusted services
/// (Downloads, Media) resolve client-visible paths to public or volatile
/// backing locations.
#[derive(Debug, Clone, Default)]
pub struct BranchLocator;

impl FileLocator for BranchLocator {
    fn public_host(&self, path: &VPath) -> VfsResult<VPath> {
        path.rebase(&layout::extdir(), &layout::back_ext_pub()).ok_or(VfsError::InvalidArgument)
    }

    fn volatile_host(&self, initiator: &str, path: &VPath) -> VfsResult<VPath> {
        if let Some(host) = path.rebase(&layout::extdir(), &layout::back_ext_tmp(initiator)?) {
            return Ok(host);
        }
        // Internal private paths of the initiator map to internal-tmp.
        let internal = layout::internal_dir(initiator)?;
        path.rebase(&internal, &layout::back_internal_tmp(initiator)?)
            .ok_or(VfsError::InvalidArgument)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxoid_vfs::{vpath, Cred};

    fn setup() -> (Vfs, BranchManager) {
        let vfs = Vfs::new();
        let bm = BranchManager::new(vfs.clone()).unwrap();
        (vfs, bm)
    }

    const UID_A: Uid = Uid(10_001);
    const UID_B: Uid = Uid(10_002);

    fn manifests() -> (MaxoidManifest, MaxoidManifest) {
        (
            MaxoidManifest::new().private_ext_dir("data/A"),
            MaxoidManifest::new().private_ext_dir("data/B"),
        )
    }

    #[test]
    fn table2_mount_points_for_initiator() {
        let (_, bm) = setup();
        let (ma, _) = manifests();
        bm.prepare_app("A", UID_A, &ma).unwrap();
        let ns = bm.initiator_namespace("A", &ma).unwrap();
        let points: Vec<String> =
            ns.mounts().iter().map(|m| m.point.as_str().to_string()).collect();
        assert!(points.contains(&"/storage/sdcard".to_string()));
        assert!(points.contains(&"/storage/sdcard/data/A".to_string()));
        assert!(points.contains(&"/storage/sdcard/tmp".to_string()));
        assert!(points.contains(&"/data/data/A".to_string()));
    }

    #[test]
    fn table2_mount_points_for_delegate() {
        let (_, bm) = setup();
        let (ma, mb) = manifests();
        bm.prepare_app("A", UID_A, &ma).unwrap();
        bm.prepare_app("B", UID_B, &mb).unwrap();
        let ns = bm.delegate_namespace("B", &mb, "A", &ma).unwrap();
        let points: Vec<String> =
            ns.mounts().iter().map(|m| m.point.as_str().to_string()).collect();
        // EXTDIR, EXTDIR/data/A, EXTDIR/data/B mounted; EXTDIR/tmp absent.
        assert!(points.contains(&"/storage/sdcard".to_string()));
        assert!(points.contains(&"/storage/sdcard/data/A".to_string()));
        assert!(points.contains(&"/storage/sdcard/data/B".to_string()));
        assert!(!points.contains(&"/storage/sdcard/tmp".to_string()));
        // Internal: own nPriv union, pPriv bind, initiator's dir exposed.
        assert!(points.contains(&"/data/data/B".to_string()));
        assert!(points.contains(&"/data/data/ppriv/B".to_string()));
        assert!(points.contains(&"/data/data/A".to_string()));
    }

    #[test]
    fn figure4_file_views() {
        // The paper's Figure 4 scenario: A's file b edited by B^A with a
        // side change to public file c; X sees none of it.
        let (vfs, bm) = setup();
        let (ma, mb) = manifests();
        bm.prepare_app("A", UID_A, &ma).unwrap();
        bm.prepare_app("B", UID_B, &mb).unwrap();
        bm.prepare_app("X", Uid(10_003), &MaxoidManifest::new()).unwrap();
        let a_ns = bm.initiator_namespace("A", &ma).unwrap();
        let del_ns = bm.delegate_namespace("B", &mb, "A", &ma).unwrap();
        let x_ns = bm.initiator_namespace("X", &MaxoidManifest::new()).unwrap();
        let a = Cred::new(UID_A);
        let b = Cred::new(UID_B);
        let x = Cred::new(Uid(10_003));

        // A puts file b in its private external dir; public file c exists.
        vfs.write(a, &a_ns, &vpath("/storage/sdcard/data/A/b"), b"v1", Mode::PUBLIC).unwrap();
        vfs.write(x, &x_ns, &vpath("/storage/sdcard/c"), b"c1", Mode::PUBLIC).unwrap();

        // B^A reads and edits b (allowed via A's exposed view).
        assert_eq!(vfs.read(b, &del_ns, &vpath("/storage/sdcard/data/A/b")).unwrap(), b"v1");
        vfs.write(b, &del_ns, &vpath("/storage/sdcard/data/A/b"), b"v2", Mode::PUBLIC).unwrap();
        // Side change on c.
        vfs.write(b, &del_ns, &vpath("/storage/sdcard/c"), b"c2", Mode::PUBLIC).unwrap();

        // B^A reads its own writes (U2).
        assert_eq!(vfs.read(b, &del_ns, &vpath("/storage/sdcard/data/A/b")).unwrap(), b"v2");
        assert_eq!(vfs.read(b, &del_ns, &vpath("/storage/sdcard/c")).unwrap(), b"c2");

        // A sees the original b, and the updated version under tmp.
        assert_eq!(vfs.read(a, &a_ns, &vpath("/storage/sdcard/data/A/b")).unwrap(), b"v1");
        assert_eq!(vfs.read(a, &a_ns, &vpath("/storage/sdcard/tmp/data/A/b")).unwrap(), b"v2");
        assert_eq!(vfs.read(a, &a_ns, &vpath("/storage/sdcard/tmp/c")).unwrap(), b"c2");

        // X sees neither A's private file nor any of B^A's updates (S1).
        assert!(vfs.read(x, &x_ns, &vpath("/storage/sdcard/data/A/b")).is_err());
        assert_eq!(vfs.read(x, &x_ns, &vpath("/storage/sdcard/c")).unwrap(), b"c1");
        assert!(!vfs.exists(x, &x_ns, &vpath("/storage/sdcard/tmp/c")));
    }

    #[test]
    fn delegate_private_ext_writes_invisible_to_both() {
        let (vfs, bm) = setup();
        let (ma, mb) = manifests();
        bm.prepare_app("A", UID_A, &ma).unwrap();
        bm.prepare_app("B", UID_B, &mb).unwrap();
        let a_ns = bm.initiator_namespace("A", &ma).unwrap();
        let b_ns = bm.initiator_namespace("B", &mb).unwrap();
        let del_ns = bm.delegate_namespace("B", &mb, "A", &ma).unwrap();
        let a = Cred::new(UID_A);
        let b = Cred::new(UID_B);

        // Normal B has a file in its private external dir.
        vfs.write(b, &b_ns, &vpath("/storage/sdcard/data/B/base"), b"base", Mode::PUBLIC).unwrap();
        // B^A sees it (U1) and writes a new file there.
        assert_eq!(vfs.read(b, &del_ns, &vpath("/storage/sdcard/data/B/base")).unwrap(), b"base");
        vfs.write(b, &del_ns, &vpath("/storage/sdcard/data/B/leak"), b"x", Mode::PUBLIC).unwrap();
        // Invisible to normal B (S4) and to A (S3).
        assert!(!vfs.exists(b, &b_ns, &vpath("/storage/sdcard/data/B/leak")));
        assert!(!vfs.exists(a, &a_ns, &vpath("/storage/sdcard/data/B/leak")));
        assert!(!vfs.exists(a, &a_ns, &vpath("/storage/sdcard/tmp/data/B/leak")));
    }

    #[test]
    fn delegate_reads_initiator_internal_and_redirects_writes() {
        let (vfs, bm) = setup();
        let (ma, mb) = manifests();
        bm.prepare_app("A", UID_A, &ma).unwrap();
        bm.prepare_app("B", UID_B, &mb).unwrap();
        let a_ns = bm.initiator_namespace("A", &ma).unwrap();
        let del_ns = bm.delegate_namespace("B", &mb, "A", &ma).unwrap();
        let a = Cred::new(UID_A);
        let b = Cred::new(UID_B);

        // A stores a private internal attachment.
        vfs.write(a, &a_ns, &vpath("/data/data/A/att.pdf"), b"secret", Mode::PRIVATE).unwrap();
        // B^A reads it despite the uid mismatch (always-allow-read Aufs).
        assert_eq!(vfs.read(b, &del_ns, &vpath("/data/data/A/att.pdf")).unwrap(), b"secret");
        // B^A modifies it: redirected, A sees original + tmp copy.
        vfs.write(b, &del_ns, &vpath("/data/data/A/att.pdf"), b"edited", Mode::PUBLIC).unwrap();
        assert_eq!(vfs.read(a, &a_ns, &vpath("/data/data/A/att.pdf")).unwrap(), b"secret");
        assert_eq!(vfs.read(a, &a_ns, &vpath("/data/data/A/tmp/att.pdf")).unwrap(), b"edited");
    }

    #[test]
    fn npriv_overlay_confines_delegate_private_writes() {
        let (vfs, bm) = setup();
        let (ma, mb) = manifests();
        bm.prepare_app("A", UID_A, &ma).unwrap();
        bm.prepare_app("B", UID_B, &mb).unwrap();
        let b_ns = bm.initiator_namespace("B", &mb).unwrap();
        let del_ns = bm.delegate_namespace("B", &mb, "A", &ma).unwrap();
        let b = Cred::new(UID_B);

        vfs.write(b, &b_ns, &vpath("/data/data/B/prefs.xml"), b"p1", Mode::PRIVATE).unwrap();
        // Delegate sees B's prefs (U1)...
        assert_eq!(vfs.read(b, &del_ns, &vpath("/data/data/B/prefs.xml")).unwrap(), b"p1");
        // ...its update is confined to the overlay (S4).
        vfs.write(b, &del_ns, &vpath("/data/data/B/prefs.xml"), b"p2", Mode::PRIVATE).unwrap();
        assert_eq!(vfs.read(b, &b_ns, &vpath("/data/data/B/prefs.xml")).unwrap(), b"p1");
        assert_eq!(vfs.read(b, &del_ns, &vpath("/data/data/B/prefs.xml")).unwrap(), b"p2");
    }

    #[test]
    fn locator_roundtrip() {
        let loc = BranchLocator;
        assert_eq!(
            loc.public_host(&vpath("/storage/sdcard/Download/f")).unwrap().as_str(),
            "/backing/ext/pub/Download/f"
        );
        assert_eq!(
            loc.volatile_host("A", &vpath("/storage/sdcard/Download/f")).unwrap().as_str(),
            "/backing/ext/apps/A/tmp/Download/f"
        );
        assert_eq!(
            loc.volatile_host("A", &vpath("/data/data/A/cache/f")).unwrap().as_str(),
            "/backing/internal_tmp/A/cache/f"
        );
        assert!(loc.public_host(&vpath("/elsewhere")).is_err());
        assert!(loc.volatile_host("A", &vpath("/data/data/B/f")).is_err());
    }

    #[test]
    fn self_delegation_rejected() {
        let (_, bm) = setup();
        let m = MaxoidManifest::new();
        assert!(bm.delegate_namespace("A", &m, "A", &m).is_err());
    }

    #[test]
    fn render_mount_table_shape() {
        let (_, bm) = setup();
        let (ma, mb) = manifests();
        bm.prepare_app("A", UID_A, &ma).unwrap();
        bm.prepare_app("B", UID_B, &mb).unwrap();
        let ns = bm.delegate_namespace("B", &mb, "A", &ma).unwrap();
        let table = BranchManager::render_mount_table(&ns);
        assert!(table.contains("/storage/sdcard"));
        assert!(table.contains("(rw)"));
        assert!(table.contains("/backing/ext/apps/A/tmp"));
    }
}
