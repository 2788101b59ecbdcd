//! File-system workloads for the Table 3 microbenchmarks.

use maxoid::manifest::MaxoidManifest;
use maxoid::{MaxoidSystem, Pid};
use maxoid_vfs::{vpath, Mode, Mount, MountNamespace, VPath};

/// Which setup a filesystem workload runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsMode {
    /// Plain bind namespace: the unmodified-Android baseline.
    Android,
    /// Maxoid, app running normally.
    Initiator,
    /// Maxoid, app running as a delegate (union mounts active).
    Delegate,
}

impl FsMode {
    /// All three modes, baseline first.
    pub const ALL: [FsMode; 3] = [FsMode::Android, FsMode::Initiator, FsMode::Delegate];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            FsMode::Android => "android",
            FsMode::Initiator => "initiator",
            FsMode::Delegate => "delegate",
        }
    }
}

/// A booted system with one app in the requested mode, operating on its
/// internal file storage (the paper's Table 3 FS benchmark target).
pub struct FsWorkload {
    /// The system under test.
    pub sys: MaxoidSystem,
    /// The benched process.
    pub pid: Pid,
    dir: VPath,
    counter: u64,
    /// `(path, payload)` prepared by `stage_write`/`stage_append`:
    /// allocation and path formatting happen untimed, so the timed op
    /// measures only the syscall (the 1 MB rows otherwise spend as long
    /// zero-filling the payload as writing it, with allocator jitter
    /// driving stddev to the order of the mean).
    staged: Option<(VPath, Vec<u8>)>,
}

impl FsWorkload {
    /// Builds the workload: app `bench.app` with `nfiles` pre-seeded files
    /// of `size` bytes in its internal storage (seeded while running
    /// normally, so in Delegate mode they sit in the read-only branch and
    /// appends must copy up).
    pub fn new(mode: FsMode, nfiles: usize, size: usize) -> FsWorkload {
        let sys = MaxoidSystem::boot().expect("boot");
        sys.install("bench.app", vec![], MaxoidManifest::new()).expect("install");
        sys.install("bench.initiator", vec![], MaxoidManifest::new()).expect("install");

        let dir = vpath("/data/data/bench.app/files");
        let seed_pid = match mode {
            FsMode::Android => {
                // Plain single bind of the app's backing dir: no Maxoid
                // mounts at all.
                let host = maxoid::layout::back_internal("bench.app").expect("layout");
                let mut ns = MountNamespace::new();
                ns.add(Mount::bind(vpath("/data/data/bench.app"), host));
                sys.kernel
                    .spawn(&maxoid::AppId::new("bench.app"), maxoid::ExecContext::Normal, ns)
                    .expect("spawn baseline")
            }
            FsMode::Initiator | FsMode::Delegate => sys.launch("bench.app").expect("launch"),
        };
        // Seed the original files as the app itself (they land in
        // Priv(bench.app)).
        sys.kernel.mkdir_all(seed_pid, &dir, Mode::PRIVATE).expect("mkdir");
        let payload = vec![0xabu8; size];
        for i in 0..nfiles {
            sys.kernel
                .write(
                    seed_pid,
                    &dir.join(&format!("orig{i}.dat")).unwrap(),
                    &payload,
                    Mode::PRIVATE,
                )
                .expect("seed");
        }
        let pid = match mode {
            FsMode::Delegate => {
                sys.launch_as_delegate("bench.app", "bench.initiator").expect("delegate launch")
            }
            _ => seed_pid,
        };
        FsWorkload { sys, pid, dir, counter: 0, staged: None }
    }

    /// Path of a pre-seeded file.
    pub fn seeded(&self, i: usize) -> VPath {
        self.dir.join(&format!("orig{i}.dat")).expect("valid name")
    }

    /// Enables or disables the union-mount resolution caches of the
    /// benched process (no-op in Android mode, which has no union
    /// mounts). The `cache` bench's before/after cells toggle this.
    pub fn set_resolve_caches(&mut self, on: bool) {
        let _ = self.sys.kernel.set_resolve_caches(self.pid, on);
    }

    /// Aggregate `(hits, misses)` of the benched process' resolution
    /// caches.
    pub fn resolve_cache_stats(&self) -> (u64, u64) {
        self.sys.kernel.resolve_cache_stats(self.pid).unwrap_or((0, 0))
    }

    /// Reads a seeded file.
    pub fn read(&self, i: usize) {
        self.sys.kernel.read(self.pid, &self.seeded(i)).expect("read");
    }

    /// Untimed half of a fresh-file write: picks the next fresh file name
    /// and allocates the payload.
    pub fn stage_write(&mut self, size: usize) {
        self.counter += 1;
        let p = self.dir.join(&format!("new{}.dat", self.counter)).expect("valid name");
        self.staged = Some((p, vec![0x5au8; size]));
    }

    /// Timed half: creates and writes the staged file.
    pub fn write_staged(&mut self) {
        let (p, payload) = self.staged.take().expect("stage_write first");
        self.sys.kernel.write(self.pid, &p, &payload, Mode::PRIVATE).expect("write");
    }

    /// Untimed half of `append`: formats the path and allocates the
    /// payload.
    pub fn stage_append(&mut self, i: usize, size: usize) {
        self.staged = Some((self.seeded(i), vec![0x77u8; size]));
    }

    /// Timed half: appends the staged payload.
    pub fn append_staged(&mut self) {
        let (p, payload) = self.staged.take().expect("stage_append first");
        self.sys.kernel.append(self.pid, &p, &payload).expect("append");
    }

    /// Appends `size` bytes to seeded file `i`, doubling it the first
    /// time (the paper's append workload). In Delegate mode the first
    /// append pays whole-file copy-up.
    pub fn append(&self, i: usize, size: usize) {
        self.sys.kernel.append(self.pid, &self.seeded(i), &vec![0x77u8; size]).expect("append");
    }

    /// Re-seeds file `i` (restores its original content in the branch it
    /// was seeded into) so appends can be re-measured from the copy-up
    /// state. Done with root on the backing store to avoid touching the
    /// measured path.
    pub fn reset_seeded(&self, i: usize, size: usize) {
        let host = maxoid::layout::back_internal("bench.app")
            .and_then(|h| h.join("files"))
            .and_then(|h| h.join(&format!("orig{i}.dat")))
            .expect("layout");
        let overlay = maxoid::layout::back_npriv("bench.initiator", "bench.app")
            .and_then(|h| h.join("files"))
            .and_then(|h| h.join(&format!("orig{i}.dat")))
            .expect("layout");
        self.sys.kernel.vfs().with_store(|s| {
            if s.exists(&overlay) {
                s.unlink(&overlay).expect("drop overlay copy");
            }
            s.write(&host, &vec![0xabu8; size], maxoid_vfs::Uid::ROOT, Mode::PRIVATE)
                .expect("reseed");
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_modes_run_the_same_ops() {
        for mode in FsMode::ALL {
            let mut w = FsWorkload::new(mode, 4, 64);
            w.read(0);
            w.stage_write(64);
            w.write_staged();
            w.append(1, 64);
            // Read-back sees the appended size through the active view.
            let data = w.sys.kernel.read(w.pid, &w.seeded(1)).unwrap();
            assert_eq!(data.len(), 128, "mode {}", mode.label());
        }
    }

    #[test]
    fn delegate_append_copies_up_but_preserves_original() {
        let w = FsWorkload::new(FsMode::Delegate, 2, 32);
        w.append(0, 32);
        // The original in Priv(bench.app) is untouched.
        let host = maxoid::layout::back_internal("bench.app")
            .and_then(|h| h.join("files/orig0.dat"))
            .unwrap();
        let original = w.sys.kernel.vfs().with_store(|s| s.read(&host)).unwrap();
        assert_eq!(original.len(), 32);
    }

    #[test]
    fn reset_restores_append_state() {
        let w = FsWorkload::new(FsMode::Delegate, 1, 16);
        w.append(0, 16);
        assert_eq!(w.sys.kernel.read(w.pid, &w.seeded(0)).unwrap().len(), 32);
        w.reset_seeded(0, 16);
        assert_eq!(w.sys.kernel.read(w.pid, &w.seeded(0)).unwrap().len(), 16);
        // The next append pays copy-up again.
        w.append(0, 16);
        assert_eq!(w.sys.kernel.read(w.pid, &w.seeded(0)).unwrap().len(), 32);
    }
}
