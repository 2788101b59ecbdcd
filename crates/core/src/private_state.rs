//! Evolution of a delegate's private state over time (§3.2, Figure 2).
//!
//! When `B^A` starts, its normal private view `nPriv(B^A)` is a
//! copy-on-write fork of `Priv(B)` (the union mount's writable overlay).
//! When `B` later runs normally and updates `Priv(B)`, the fork and the
//! base diverge and cannot be merged; Maxoid chooses to **discard** the
//! old fork and re-fork from the fresh `Priv(B)` — the user's new
//! preferences win, and `Priv(B)` may contain data fetched from the
//! network that `B^A` could not obtain itself. Consecutive delegate runs
//! keep the fork.
//!
//! Persistent private state `pPriv(B^A)` survives regardless (until the
//! initiator clears it) and is isolated per initiator.
//!
//! Divergence detection: the fork records the maximum logical mtime of the
//! `Priv(B)` tree; a higher maximum at the next delegate start means `B`
//! wrote to its private state in between.

use crate::layout;
use maxoid_vfs::{VPath, Vfs, VfsResult};
use std::collections::BTreeMap;

/// One fork record: who forked from what, at which base version.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Fork {
    /// Max mtime of Priv(pkg) at fork time.
    base_mark: u64,
}

/// Tracks nPriv forks and implements the discard-if-diverged policy.
#[derive(Debug, Default)]
pub struct PrivateStateManager {
    /// Keyed by (initiator, delegate app).
    forks: BTreeMap<(String, String), Fork>,
}

/// What happened to `nPriv(B^A)` when a delegate started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForkOutcome {
    /// First delegate run for this (initiator, app): fresh fork.
    FreshFork,
    /// `Priv(B)` unchanged since the last delegate run: the old overlay
    /// is kept (consecutive invocations keep state).
    Kept,
    /// `Priv(B)` diverged: the old overlay was discarded and re-forked.
    DiscardedAndReforked,
}

impl PrivateStateManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        PrivateStateManager::default()
    }

    /// Computes the maximum logical mtime in a backing tree (0 when the
    /// tree does not exist or is empty).
    fn tree_mark(vfs: &Vfs, root: &VPath) -> u64 {
        fn walk(s: &maxoid_vfs::Store, p: &VPath, acc: &mut u64) {
            if let Ok(meta) = s.stat(p) {
                *acc = (*acc).max(meta.mtime);
                if meta.is_dir {
                    if let Ok(entries) = s.read_dir(p) {
                        for e in entries {
                            if let Ok(child) = p.join(&e.name) {
                                walk(s, &child, acc);
                            }
                        }
                    }
                }
            }
        }
        vfs.with_store(|s| {
            let mut acc = 0;
            walk(s, root, &mut acc);
            acc
        })
    }

    /// Called when `pkg` is about to start as a delegate of `init`:
    /// applies the Figure 2 policy to `nPriv(pkg^init)` and returns what
    /// happened. The overlay directory is wiped on discard.
    pub fn on_delegate_start(
        &mut self,
        vfs: &Vfs,
        init: &str,
        pkg: &str,
    ) -> VfsResult<ForkOutcome> {
        let base = layout::back_internal(pkg)?;
        let overlay = layout::back_npriv(init, pkg)?;
        let mark = Self::tree_mark(vfs, &base);
        let key = (init.to_string(), pkg.to_string());
        match self.forks.get(&key) {
            None => {
                self.forks.insert(key, Fork { base_mark: mark });
                Ok(ForkOutcome::FreshFork)
            }
            Some(f) if f.base_mark == mark => Ok(ForkOutcome::Kept),
            Some(_) => {
                // Priv(B) diverged: discard the overlay, re-fork.
                vfs.with_store(|s| {
                    if s.exists(&overlay) {
                        s.remove_all(&overlay)?;
                    }
                    s.mkdir_all(&overlay, maxoid_vfs::Uid::ROOT, maxoid_vfs::Mode::PUBLIC)
                })?;
                self.forks.insert(key, Fork { base_mark: mark });
                Ok(ForkOutcome::DiscardedAndReforked)
            }
        }
    }

    /// Clears all private forks created on behalf of `init`: both nPriv
    /// overlays and pPriv directories of every app `x` (the launcher's
    /// Clear-Priv gesture, §6.3: "clear `Priv(x^A)` for all x").
    pub fn clear_initiator(&mut self, vfs: &Vfs, init: &str) -> VfsResult<usize> {
        let mut cleared = 0;
        for root in [
            maxoid_vfs::vpath("/backing/npriv").join(init)?,
            maxoid_vfs::vpath("/backing/ppriv").join(init)?,
        ] {
            vfs.with_store(|s| -> VfsResult<()> {
                if s.exists(&root) {
                    s.remove_all(&root)?;
                }
                Ok(())
            })?;
        }
        let before = self.forks.len();
        self.forks.retain(|(i, _), _| i != init);
        cleared += before - self.forks.len();
        Ok(cleared)
    }

    /// Returns true if a fork is currently tracked for (init, pkg).
    pub fn has_fork(&self, init: &str, pkg: &str) -> bool {
        self.forks.contains_key(&(init.to_string(), pkg.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxoid_vfs::{vpath, Mode, Uid};

    fn setup(pkg: &str) -> Vfs {
        let vfs = Vfs::new();
        vfs.with_store(|s| {
            s.mkdir_all(&layout::back_internal(pkg).unwrap(), Uid(10_001), Mode::PRIVATE).unwrap();
            s.write(
                &layout::back_internal(pkg).unwrap().join("db").unwrap(),
                b"v0",
                Uid(10_001),
                Mode::PRIVATE,
            )
            .unwrap();
        });
        vfs
    }

    /// Replays the Figure 2 sequence of invocations and checks the fork
    /// decisions at each step.
    #[test]
    fn figure2_sequence() {
        let vfs = setup("B");
        let mut mgr = PrivateStateManager::new();

        // B^A starts: fresh fork of nPriv.
        assert_eq!(mgr.on_delegate_start(&vfs, "A", "B").unwrap(), ForkOutcome::FreshFork);
        // B^A writes into its overlay.
        vfs.with_store(|s| {
            s.mkdir_all(&vpath("/backing/npriv/A/B"), Uid::ROOT, Mode::PUBLIC).unwrap();
            s.write(&vpath("/backing/npriv/A/B/recent"), b"att1", Uid(10_001), Mode::PRIVATE)
                .unwrap();
        });

        // Consecutive delegate run with Priv(B) untouched: overlay kept.
        assert_eq!(mgr.on_delegate_start(&vfs, "A", "B").unwrap(), ForkOutcome::Kept);
        assert!(vfs.with_store(|s| s.exists(&vpath("/backing/npriv/A/B/recent"))));

        // B runs normally and updates Priv(B): divergence.
        vfs.with_store(|s| {
            s.write(&vpath("/backing/internal/B/db"), b"v1", Uid(10_001), Mode::PRIVATE).unwrap();
        });

        // Next delegate run: old overlay discarded, re-forked.
        assert_eq!(
            mgr.on_delegate_start(&vfs, "A", "B").unwrap(),
            ForkOutcome::DiscardedAndReforked
        );
        assert!(!vfs.with_store(|s| s.exists(&vpath("/backing/npriv/A/B/recent"))));
    }

    #[test]
    fn forks_are_per_initiator() {
        let vfs = setup("B");
        let mut mgr = PrivateStateManager::new();
        assert_eq!(mgr.on_delegate_start(&vfs, "A", "B").unwrap(), ForkOutcome::FreshFork);
        assert_eq!(mgr.on_delegate_start(&vfs, "C", "B").unwrap(), ForkOutcome::FreshFork);
        assert!(mgr.has_fork("A", "B"));
        assert!(mgr.has_fork("C", "B"));
        // A divergence discards both independently at their next start.
        vfs.with_store(|s| {
            s.write(&vpath("/backing/internal/B/db"), b"v1", Uid(10_001), Mode::PRIVATE).unwrap();
        });
        assert_eq!(
            mgr.on_delegate_start(&vfs, "A", "B").unwrap(),
            ForkOutcome::DiscardedAndReforked
        );
        assert_eq!(
            mgr.on_delegate_start(&vfs, "C", "B").unwrap(),
            ForkOutcome::DiscardedAndReforked
        );
    }

    #[test]
    fn clear_initiator_removes_npriv_and_ppriv() {
        let vfs = setup("B");
        let mut mgr = PrivateStateManager::new();
        mgr.on_delegate_start(&vfs, "A", "B").unwrap();
        vfs.with_store(|s| {
            s.mkdir_all(&vpath("/backing/ppriv/A/B"), Uid::ROOT, Mode::PUBLIC).unwrap();
            s.write(&vpath("/backing/ppriv/A/B/bookmarks"), b"x", Uid(10_001), Mode::PRIVATE)
                .unwrap();
        });
        let n = mgr.clear_initiator(&vfs, "A").unwrap();
        assert_eq!(n, 1);
        assert!(!mgr.has_fork("A", "B"));
        assert!(!vfs.with_store(|s| s.exists(&vpath("/backing/ppriv/A/B/bookmarks"))));
    }

    #[test]
    fn overlay_writes_do_not_trigger_divergence() {
        // Only writes to Priv(B) itself cause a discard; the overlay's own
        // growth must not.
        let vfs = setup("B");
        let mut mgr = PrivateStateManager::new();
        mgr.on_delegate_start(&vfs, "A", "B").unwrap();
        vfs.with_store(|s| {
            s.mkdir_all(&vpath("/backing/npriv/A/B"), Uid::ROOT, Mode::PUBLIC).unwrap();
            s.write(&vpath("/backing/npriv/A/B/x"), b"1", Uid(10_001), Mode::PRIVATE).unwrap();
        });
        assert_eq!(mgr.on_delegate_start(&vfs, "A", "B").unwrap(), ForkOutcome::Kept);
    }
}
