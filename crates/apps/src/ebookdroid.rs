//! EBookDroid model (§7.1 "Using delegates' persistent private state").
//!
//! The only Maxoid-*aware* delegate in the case studies: the paper's
//! 45-line patch makes the document viewer store recent files and
//! bookmarks in its **persistent private state** (`pPriv`) when running as
//! a delegate, and show a recent list merged from both databases. pPriv
//! survives re-forks of nPriv and is isolated per initiator, so
//! attachments opened on behalf of Email reappear in the recents list the
//! next time the viewer runs for Email, but never when it runs normally
//! or for another initiator.

use maxoid::{ExecContext, MaxoidSystem, Pid, SystemResult};
use maxoid_vfs::{vpath, Mode, VPath};

/// The EBookDroid document-viewer model.
#[derive(Debug, Clone)]
pub struct EBookDroid {
    /// Package name.
    pub pkg: String,
}

impl Default for EBookDroid {
    fn default() -> Self {
        EBookDroid { pkg: "org.ebookdroid".into() }
    }
}

impl EBookDroid {
    fn npriv_db(&self) -> VPath {
        vpath("/data/data").join(&self.pkg).and_then(|d| d.join("recent.db")).expect("static path")
    }

    fn ppriv_db(&self) -> VPath {
        vpath("/data/data/ppriv")
            .join(&self.pkg)
            .and_then(|d| d.join("recent.db"))
            .expect("static path")
    }

    /// Queries whether this process runs as a delegate (the Maxoid
    /// delegate API, §6.1).
    fn is_delegate(sys: &MaxoidSystem, pid: Pid) -> SystemResult<bool> {
        Ok(matches!(sys.kernel.process(pid)?.ctx, ExecContext::OnBehalfOf(_)))
    }

    /// Opens a document: records it in the appropriate recents database.
    /// This is the patched code path — delegates write to pPriv, normal
    /// runs write to nPriv; cache files would still go to nPriv.
    pub fn open(&self, sys: &MaxoidSystem, pid: Pid, path: &VPath) -> SystemResult<()> {
        let _content = sys.kernel.read(pid, path)?;
        let db = if Self::is_delegate(sys, pid)? { self.ppriv_db() } else { self.npriv_db() };
        let mut data = sys.kernel.read(pid, &db).unwrap_or_default();
        data.extend_from_slice(path.as_str().as_bytes());
        data.push(b'\n');
        sys.kernel.write(pid, &db, &data, Mode::PRIVATE)?;
        // Unimportant cache state still goes to the normal private state.
        let cache = vpath("/data/data").join(&self.pkg)?.join("cache.bin")?;
        sys.kernel.write(pid, &cache, b"render-cache", Mode::PRIVATE)?;
        Ok(())
    }

    /// Returns the recents list merged from both databases (the patched
    /// list-building code).
    pub fn recent_files(&self, sys: &MaxoidSystem, pid: Pid) -> SystemResult<Vec<String>> {
        let mut out = Vec::new();
        for db in [self.npriv_db(), self.ppriv_db()] {
            if let Ok(data) = sys.kernel.read(pid, &db) {
                out.extend(String::from_utf8_lossy(&data).lines().map(|l| l.to_string()));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxoid::manifest::MaxoidManifest;

    fn boot() -> (MaxoidSystem, EBookDroid, String) {
        let sys = MaxoidSystem::boot().unwrap();
        let viewer = EBookDroid::default();
        sys.install(&viewer.pkg, vec![], MaxoidManifest::new()).unwrap();
        sys.install("com.email", vec![], MaxoidManifest::new()).unwrap();
        sys.install("com.dropbox", vec![], MaxoidManifest::new()).unwrap();
        (sys, viewer, "com.email".to_string())
    }

    /// Write a world-readable book into the initiator's private dir so the
    /// delegate can open it through its view of Priv(initiator).
    fn put_book(sys: &MaxoidSystem, owner_pid: Pid, owner: &str, name: &str) -> VPath {
        let p = vpath("/data/data").join(owner).unwrap().join(name).unwrap();
        sys.kernel.write(owner_pid, &p, b"book", Mode::PRIVATE).unwrap();
        p
    }

    #[test]
    fn ppriv_survives_normal_runs_and_is_per_initiator() {
        let (mut sys, viewer, email) = boot();
        let epid = sys.launch(&email).unwrap();
        let book = put_book(&mut sys, epid, &email, "att1.pdf");

        // Run 1 as Email's delegate: open the attachment.
        let d1 = sys.launch_as_delegate(&viewer.pkg, &email).unwrap();
        viewer.open(&mut sys, d1, &book).unwrap();
        assert_eq!(viewer.recent_files(&sys, d1).unwrap().len(), 1);

        // The viewer runs normally and updates its private state — this
        // diverges Priv(B) and will discard nPriv(B^A).
        let normal = sys.launch(&viewer.pkg).unwrap();
        let own = vpath("/data/data").join(&viewer.pkg).unwrap().join("own.pdf").unwrap();
        sys.kernel.write(normal, &own, b"own book", Mode::PRIVATE).unwrap();
        viewer.open(&mut sys, normal, &own).unwrap();
        // Normal runs never see the delegate's recents (S1).
        let normal_recents = viewer.recent_files(&sys, normal).unwrap();
        assert_eq!(normal_recents, vec![own.as_str().to_string()]);

        // Run 2 as Email's delegate: nPriv was re-forked (cache gone), but
        // pPriv kept the attachment entry.
        let d2 = sys.launch_as_delegate(&viewer.pkg, &email).unwrap();
        let recents = viewer.recent_files(&sys, d2).unwrap();
        assert!(recents.contains(&book.as_str().to_string()));
        // And it also sees the (normal-run) entry via the fresh fork of
        // Priv(B) — the user's normal history carries over (U1).
        assert!(recents.contains(&own.as_str().to_string()));

        // A delegate run for Dropbox sees neither Email's pPriv entries
        // nor Email's attachment.
        let dd = sys.launch_as_delegate(&viewer.pkg, "com.dropbox").unwrap();
        let dropbox_recents = viewer.recent_files(&sys, dd).unwrap();
        assert!(!dropbox_recents.contains(&book.as_str().to_string()));
    }

    #[test]
    fn clear_priv_erases_ppriv() {
        let (mut sys, viewer, email) = boot();
        let epid = sys.launch(&email).unwrap();
        let book = put_book(&mut sys, epid, &email, "att.pdf");
        let d = sys.launch_as_delegate(&viewer.pkg, &email).unwrap();
        viewer.open(&mut sys, d, &book).unwrap();
        sys.clear_priv(&email).unwrap();
        let d2 = sys.launch_as_delegate(&viewer.pkg, &email).unwrap();
        assert!(viewer.recent_files(&sys, d2).unwrap().is_empty());
    }
}
