//! Union filesystem modelled on Aufs, as used by Maxoid (§4.2 of the paper).
//!
//! A union presents an ordered stack of *branches* (directories in the
//! backing [`Store`]) through a single mount point. The highest-priority
//! branch that contains a name wins; only the top branch is writable, so
//! every write is sandboxed there. Modifying a file that lives in a lower
//! branch triggers **copy-up** (whole-file copy into the writable branch),
//! and deleting a lower-branch file creates a **whiteout** marker
//! (`.wh.<name>`) in the writable branch that hides the lower entry.
//!
//! Two Maxoid-specific details are reproduced here:
//!
//! - The paper modifies Aufs to *always allow read* so that a delegate
//!   (different UID) can read its initiator's private branch. This is the
//!   [`Union::maxoid_access`] flag; the permission bypass itself is applied
//!   by the [`crate::fs::Vfs`] layer.
//! - Copy-up is file-granularity, which is why the paper's Table 3 shows
//!   `append` as the worst case for delegates (the whole original file is
//!   copied before the append). The cost model emerges naturally here.

use crate::cred::{Mode, Uid};
use crate::error::{VfsError, VfsResult};
use crate::path::VPath;
use crate::store::{DirEntry, Metadata, Store};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Prefix used for whiteout marker files, matching Aufs.
pub const WHITEOUT_PREFIX: &str = ".wh.";

/// Prefix used for append-delta files in block-granularity copy-up mode.
pub const APPEND_DELTA_PREFIX: &str = ".ad.";

/// Copy-up granularity for appends to lower-branch files.
///
/// The paper (§7.2.1) notes that append is Maxoid's worst case because
/// Aufs copies the *whole file* before appending, and that "the overhead
/// could be reduced if a block-level copy-on-write file system were
/// used". [`CopyUpGranularity::Block`] implements that alternative: an
/// append to a lower-branch file writes only the appended bytes into a
/// per-file delta in the writable branch; reads merge base + delta. The
/// ablation bench compares both modes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CopyUpGranularity {
    /// Aufs behaviour: whole-file copy into the writable branch (paper
    /// default).
    #[default]
    File,
    /// Append-delta behaviour: only new bytes are written; reads merge.
    Block,
}

/// One branch of a union mount.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Branch {
    /// Directory in the backing store that holds this branch's files.
    pub host: VPath,
    /// True when this branch accepts writes. Only the first (index 0)
    /// branch may be writable.
    pub writable: bool,
}

impl Branch {
    /// Creates a read-write branch.
    pub fn rw(host: VPath) -> Self {
        Branch { host, writable: true }
    }

    /// Creates a read-only branch.
    pub fn ro(host: VPath) -> Self {
        Branch { host, writable: false }
    }
}

/// An Aufs-style union over an ordered list of branches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Union {
    branches: Vec<Branch>,
    /// Maxoid's "always allow read" modification (§4.2): when set, the VFS
    /// layer skips mode checks for reads through this mount, and permits
    /// redirected writes whose copies land in the writable branch.
    pub maxoid_access: bool,
    /// How appends to lower-branch files are copied up.
    pub granularity: CopyUpGranularity,
    /// Memoized path resolutions, validated against the store's
    /// visibility generation.
    cache: ResolveCache,
    /// The store visibility-generation shards covering this union's
    /// branch hosts (sorted, deduped). Cache validation stamps only these
    /// counters, so namespace churn in other tenants' branches never
    /// invalidates this union's resolutions.
    gen_shards: Vec<usize>,
}

/// Entry cap for the resolution cache; cleared wholesale when full.
const RESOLVE_CACHE_CAP: usize = 1024;

/// Per-union memo of [`Union::effective`] results.
///
/// Maps a mount-relative path to the branch resolution (`Some(Located)`
/// or a cached negative) stamped with the [`Store::vis_stamp`] it
/// was computed under; a stale stamp is a miss. Namespaces holding the
/// union are shared across threads during concurrent reads, so the map
/// sits behind a `Mutex` and the counters are atomics. The cache is
/// runtime state, not filesystem state: clones start cold and equality
/// ignores it (only the enabled flag is configuration, and it defaults
/// on everywhere).
#[derive(Debug, Default)]
struct ResolveCache {
    disabled: AtomicBool,
    map: Mutex<HashMap<String, (Option<Located>, u64)>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Clone for ResolveCache {
    fn clone(&self) -> Self {
        ResolveCache {
            disabled: AtomicBool::new(self.disabled.load(Ordering::Relaxed)),
            ..Default::default()
        }
    }
}

impl PartialEq for ResolveCache {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl Eq for ResolveCache {}

impl ResolveCache {
    /// `Some(resolution)` on a valid hit, `None` on miss or when
    /// disabled. Counters (and their obs mirrors) track only enabled
    /// lookups.
    fn lookup(&self, rel: &str, gen: u64) -> Option<Option<Located>> {
        if self.disabled.load(Ordering::Relaxed) {
            return None;
        }
        if let Some((loc, stamp)) = self.map.lock().expect("resolve cache poisoned").get(rel) {
            if *stamp == gen {
                self.hits.fetch_add(1, Ordering::Relaxed);
                maxoid_obs::counter_add("vfs.union.resolve_cache_hits", 1);
                return Some(loc.clone());
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        maxoid_obs::counter_add("vfs.union.resolve_cache_misses", 1);
        None
    }

    fn insert(&self, rel: &str, gen: u64, loc: Option<Located>) {
        if self.disabled.load(Ordering::Relaxed) {
            return;
        }
        let mut map = self.map.lock().expect("resolve cache poisoned");
        if map.len() >= RESOLVE_CACHE_CAP {
            map.clear();
        }
        map.insert(rel.to_string(), (loc, gen));
    }

    fn clear(&self) {
        self.map.lock().expect("resolve cache poisoned").clear();
    }
}

/// Where an effective (visible) node was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Located {
    /// Index of the branch containing the node.
    pub branch: usize,
    /// Full host path of the node in the backing store.
    pub host: VPath,
}

fn join_rel(base: &VPath, rel: &str) -> VfsResult<VPath> {
    if rel.is_empty() {
        Ok(base.clone())
    } else {
        base.join(rel)
    }
}

fn whiteout_name(name: &str) -> String {
    format!("{WHITEOUT_PREFIX}{name}")
}

fn delta_name(name: &str) -> String {
    format!("{APPEND_DELTA_PREFIX}{name}")
}

/// Splits a relative path into (parent, name); `rel` must be non-empty.
fn split_rel(rel: &str) -> (&str, &str) {
    match rel.rfind('/') {
        Some(idx) => (&rel[..idx], &rel[idx + 1..]),
        None => ("", rel),
    }
}

impl Union {
    /// Creates a union from ordered branches (index 0 = highest priority).
    ///
    /// # Panics
    ///
    /// Panics if a branch other than index 0 is writable, or no branch is
    /// given — both indicate a branch-manager bug, not a runtime condition.
    pub fn new(branches: Vec<Branch>, maxoid_access: bool) -> Self {
        assert!(!branches.is_empty(), "union requires at least one branch");
        for (i, b) in branches.iter().enumerate() {
            assert!(i == 0 || !b.writable, "only the top branch may be writable");
        }
        // A branch rooted at the store root can see mutations under any
        // prefix, so it must validate against every generation shard.
        let mut gen_shards: Vec<usize> = Vec::new();
        for b in &branches {
            match Store::vis_branch_shard(&b.host) {
                Some(sh) => gen_shards.push(sh),
                None => {
                    gen_shards = (0..crate::store::VIS_SHARDS).collect();
                    break;
                }
            }
        }
        gen_shards.sort_unstable();
        gen_shards.dedup();
        Union {
            branches,
            maxoid_access,
            granularity: CopyUpGranularity::File,
            cache: ResolveCache::default(),
            gen_shards,
        }
    }

    /// Sets the copy-up granularity (builder style).
    pub fn with_granularity(mut self, granularity: CopyUpGranularity) -> Self {
        self.granularity = granularity;
        self
    }

    /// Enables or disables the path-resolution cache (builder style; on
    /// by default). Used by the cache-equivalence tests and ablations.
    pub fn with_resolve_cache(self, on: bool) -> Self {
        self.set_resolve_cache(on);
        self
    }

    /// Enables or disables the resolution cache in place (bench and
    /// diagnostics hook). Toggling in either direction drops memoized
    /// resolutions.
    pub fn set_resolve_cache(&self, on: bool) {
        self.cache.disabled.store(!on, Ordering::Relaxed);
        self.cache.clear();
    }

    /// Whether the resolution cache is active.
    pub fn resolve_cache_enabled(&self) -> bool {
        !self.cache.disabled.load(Ordering::Relaxed)
    }

    /// `(hits, misses)` of the resolution cache since construction.
    pub fn resolve_cache_stats(&self) -> (u64, u64) {
        (self.cache.hits.load(Ordering::Relaxed), self.cache.misses.load(Ordering::Relaxed))
    }

    /// Host path of the append-delta file for `rel` in the top branch.
    fn delta_host(&self, rel: &str) -> VfsResult<VPath> {
        let top = self.top()?.host.clone();
        let (parent, name) = split_rel(rel);
        join_rel(&top, parent)?.join(&delta_name(name))
    }

    /// Returns the append-delta bytes for `rel`, when block mode has one.
    fn delta_bytes(&self, store: &Store, rel: &str) -> Option<Vec<u8>> {
        if self.granularity != CopyUpGranularity::Block {
            return None;
        }
        let host = self.delta_host(rel).ok()?;
        store.read(&host).ok()
    }

    /// Removes a stale append-delta (called when the file is rewritten,
    /// unlinked, or fully copied up).
    fn clear_delta(&self, store: &Store, rel: &str) -> VfsResult<()> {
        if self.granularity != CopyUpGranularity::Block {
            return Ok(());
        }
        let host = self.delta_host(rel)?;
        if store.exists(&host) {
            store.unlink(&host)?;
        }
        Ok(())
    }

    /// Returns the branches, top priority first.
    pub fn branches(&self) -> &[Branch] {
        &self.branches
    }

    fn top(&self) -> VfsResult<&Branch> {
        if self.branches[0].writable {
            Ok(&self.branches[0])
        } else {
            Err(VfsError::ReadOnly)
        }
    }

    /// Returns true if branch `idx` contains a whiteout hiding `rel` (or an
    /// ancestor of it) from lower branches.
    fn hides_lower(&self, store: &Store, idx: usize, rel: &str) -> bool {
        if rel.is_empty() {
            return false;
        }
        let mut dir = self.branches[idx].host.clone();
        for comp in rel.split('/') {
            if let Ok(wh) = dir.join(&whiteout_name(comp)) {
                if store.exists(&wh) {
                    maxoid_obs::counter_add("vfs.union.whiteout_hits", 1);
                    return true;
                }
            }
            match dir.join(comp) {
                Ok(next) => dir = next,
                Err(_) => return false,
            }
        }
        false
    }

    /// Finds the highest-priority branch where `rel` is visible.
    ///
    /// Resolutions (positive and negative) are memoized per path and
    /// validated against [`Store::vis_stamp`], so steady-state
    /// lookups — including appends to an already-copied-up file — skip
    /// the branch walk and its whiteout probes entirely.
    pub fn effective(&self, store: &Store, rel: &str) -> Option<Located> {
        maxoid_obs::counter_add("vfs.union.lookups", 1);
        let gen = store.vis_stamp(&self.gen_shards);
        if let Some(cached) = self.cache.lookup(rel, gen) {
            let depth = match &cached {
                Some(loc) => loc.branch as u64 + 1,
                None => self.branches.len() as u64,
            };
            maxoid_obs::observe("vfs.union.lookup_depth", depth);
            return cached;
        }
        let resolved = self.resolve_branches(store, rel);
        self.cache.insert(rel, gen, resolved.clone());
        resolved
    }

    /// The uncached branch walk behind [`Union::effective`].
    fn resolve_branches(&self, store: &Store, rel: &str) -> Option<Located> {
        for (i, br) in self.branches.iter().enumerate() {
            let host = join_rel(&br.host, rel).ok()?;
            if store.exists(&host) {
                maxoid_obs::observe("vfs.union.lookup_depth", i as u64 + 1);
                return Some(Located { branch: i, host });
            }
            if self.hides_lower(store, i, rel) {
                maxoid_obs::observe("vfs.union.lookup_depth", i as u64 + 1);
                return None;
            }
        }
        maxoid_obs::observe("vfs.union.lookup_depth", self.branches.len() as u64);
        None
    }

    /// Returns true if `rel` is visible through the union.
    pub fn exists(&self, store: &Store, rel: &str) -> bool {
        self.effective(store, rel).is_some()
    }

    /// Returns metadata of the visible node.
    pub fn stat(&self, store: &Store, rel: &str) -> VfsResult<Metadata> {
        let loc = self.effective(store, rel).ok_or(VfsError::NotFound)?;
        let mut meta = store.stat(&loc.host)?;
        if loc.branch != 0 && !meta.is_dir {
            if let Some(delta) = self.delta_bytes(store, rel) {
                meta.size += delta.len() as u64;
            }
        }
        Ok(meta)
    }

    /// Reads the visible version of a file, merging any append-delta in
    /// block-granularity mode.
    pub fn read(&self, store: &Store, rel: &str) -> VfsResult<Vec<u8>> {
        let mut sp = maxoid_obs::span("vfs.union.read");
        sp.field_with("rel", || rel.to_string());
        let loc = self.effective(store, rel).ok_or(VfsError::NotFound)?;
        let mut data = store.read(&loc.host)?;
        if loc.branch != 0 {
            if let Some(delta) = self.delta_bytes(store, rel) {
                data.extend_from_slice(&delta);
            }
        }
        Ok(data)
    }

    /// Ensures all ancestor directories of `rel` exist in the top branch,
    /// mirroring metadata from the visible version where available.
    fn ensure_parents(&self, store: &Store, rel: &str, owner: Uid) -> VfsResult<()> {
        let top = self.top()?.host.clone();
        let (parent, _) = split_rel(rel);
        if parent.is_empty() {
            store.mkdir_all(&top, owner, Mode::PUBLIC)?;
            return Ok(());
        }
        // Walk down, creating each missing level with the visible dir's
        // owner/mode when one exists.
        store.mkdir_all(&top, owner, Mode::PUBLIC)?;
        let mut sofar = String::new();
        for comp in parent.split('/') {
            if !sofar.is_empty() {
                sofar.push('/');
            }
            sofar.push_str(comp);
            let host = join_rel(&top, &sofar)?;
            if store.exists(&host) {
                continue;
            }
            let (o, m) = match self.stat(store, &sofar) {
                Ok(meta) if meta.is_dir => (meta.owner, meta.mode),
                Ok(_) => return Err(VfsError::NotADirectory),
                Err(_) => (owner, Mode::PUBLIC),
            };
            store.mkdir(&host, o, m)?;
        }
        Ok(())
    }

    /// Removes a whiteout marker for `rel` from the top branch, if present.
    fn clear_whiteout(&self, store: &Store, rel: &str) -> VfsResult<()> {
        let top = self.top()?.host.clone();
        let (parent, name) = split_rel(rel);
        let wh = join_rel(&top, parent)?.join(&whiteout_name(name))?;
        if store.exists(&wh) {
            store.unlink(&wh)?;
        }
        Ok(())
    }

    /// Creates or truncates a file; the write always lands in the top
    /// branch (copy-on-write shadowing of lower versions).
    pub fn write(
        &self,
        store: &Store,
        rel: &str,
        data: &[u8],
        owner: Uid,
        mode: Mode,
    ) -> VfsResult<()> {
        if rel.is_empty() {
            return Err(VfsError::IsADirectory);
        }
        let mut sp = maxoid_obs::span("vfs.union.write");
        sp.field_with("rel", || rel.to_string());
        if let Some(loc) = self.effective(store, rel) {
            if store.stat(&loc.host)?.is_dir {
                return Err(VfsError::IsADirectory);
            }
        }
        self.ensure_parents(store, rel, owner)?;
        self.clear_whiteout(store, rel)?;
        self.clear_delta(store, rel)?;
        let host = join_rel(&self.top()?.host, rel)?;
        // Preserve owner/mode of an existing top-branch file; otherwise
        // create with the caller's identity.
        store.write(&host, data, owner, mode)?;
        Ok(())
    }

    /// Appends to a file, performing whole-file copy-up when the visible
    /// version lives in a lower branch. This is the paper's worst case —
    /// unless the union runs in [`CopyUpGranularity::Block`] mode, where
    /// only the appended bytes are written to a per-file delta.
    pub fn append(&self, store: &Store, rel: &str, data: &[u8]) -> VfsResult<()> {
        let mut sp = maxoid_obs::span("vfs.union.append");
        sp.field_with("rel", || rel.to_string());
        let loc = self.effective(store, rel).ok_or(VfsError::NotFound)?;
        let meta = store.stat(&loc.host)?;
        if meta.is_dir {
            return Err(VfsError::IsADirectory);
        }
        if loc.branch == 0 {
            let top_host = join_rel(&self.top()?.host, rel)?;
            return store.append(&top_host, data);
        }
        match self.granularity {
            CopyUpGranularity::File => {
                // Copy-up: whole-file copy into the writable branch,
                // preserving the original owner and mode (Aufs behaviour).
                let top_host = join_rel(&self.top()?.host, rel)?;
                let original = store.read(&loc.host)?;
                maxoid_obs::counter_add("vfs.union.copy_ups", 1);
                maxoid_obs::observe("vfs.union.copy_up_bytes", original.len() as u64);
                sp.field_with("copy_up_bytes", || original.len().to_string());
                self.ensure_parents(store, rel, meta.owner)?;
                self.clear_whiteout(store, rel)?;
                store.write(&top_host, &original, meta.owner, meta.mode)?;
                store.append(&top_host, data)
            }
            CopyUpGranularity::Block => {
                // Write only the new bytes into the append-delta.
                maxoid_obs::counter_add("vfs.union.append_deltas", 1);
                self.ensure_parents(store, rel, meta.owner)?;
                self.clear_whiteout(store, rel)?;
                let delta = self.delta_host(rel)?;
                if store.exists(&delta) {
                    store.append(&delta, data)
                } else {
                    store.write(&delta, data, meta.owner, meta.mode)?;
                    Ok(())
                }
            }
        }
    }

    /// Copies the visible version of `rel` into the writable branch and
    /// returns its host path. No-op if it is already there. In block mode
    /// any append-delta is folded into the materialized copy.
    pub fn copy_up(&self, store: &Store, rel: &str) -> VfsResult<VPath> {
        let loc = self.effective(store, rel).ok_or(VfsError::NotFound)?;
        let top_host = join_rel(&self.top()?.host, rel)?;
        if loc.branch == 0 {
            return Ok(top_host);
        }
        let mut sp = maxoid_obs::span("vfs.union.copy_up");
        sp.field_with("rel", || rel.to_string());
        let meta = store.stat(&loc.host)?;
        if meta.is_dir {
            return Err(VfsError::IsADirectory);
        }
        let mut original = store.read(&loc.host)?;
        maxoid_obs::counter_add("vfs.union.copy_ups", 1);
        maxoid_obs::observe("vfs.union.copy_up_bytes", original.len() as u64);
        if let Some(delta) = self.delta_bytes(store, rel) {
            original.extend_from_slice(&delta);
        }
        self.ensure_parents(store, rel, meta.owner)?;
        self.clear_whiteout(store, rel)?;
        self.clear_delta(store, rel)?;
        store.write(&top_host, &original, meta.owner, meta.mode)?;
        Ok(top_host)
    }

    /// Deletes a file: removed from the top branch and/or hidden from lower
    /// branches with a whiteout.
    pub fn unlink(&self, store: &Store, rel: &str) -> VfsResult<()> {
        let mut sp = maxoid_obs::span("vfs.union.unlink");
        sp.field_with("rel", || rel.to_string());
        let loc = self.effective(store, rel).ok_or(VfsError::NotFound)?;
        if store.stat(&loc.host)?.is_dir {
            return Err(VfsError::IsADirectory);
        }
        let top = self.top()?.host.clone();
        let top_host = join_rel(&top, rel)?;
        if loc.branch == 0 {
            store.unlink(&top_host)?;
        }
        self.clear_delta(store, rel)?;
        // If any lower branch still has a visible copy, white it out.
        let lower_exists = self
            .branches
            .iter()
            .enumerate()
            .skip(1)
            .any(|(_, br)| join_rel(&br.host, rel).map(|h| store.exists(&h)).unwrap_or(false));
        if lower_exists {
            maxoid_obs::counter_add("vfs.union.whiteouts_created", 1);
            self.ensure_parents(store, rel, Uid::ROOT)?;
            let (parent, name) = split_rel(rel);
            let wh = join_rel(&top, parent)?.join(&whiteout_name(name))?;
            store.write(&wh, b"", Uid::ROOT, Mode::PRIVATE)?;
        }
        Ok(())
    }

    /// Creates a directory in the top branch.
    pub fn mkdir(&self, store: &Store, rel: &str, owner: Uid, mode: Mode) -> VfsResult<()> {
        if rel.is_empty() {
            return Err(VfsError::AlreadyExists);
        }
        if self.exists(store, rel) {
            return Err(VfsError::AlreadyExists);
        }
        self.ensure_parents(store, rel, owner)?;
        self.clear_whiteout(store, rel)?;
        let host = join_rel(&self.top()?.host, rel)?;
        store.mkdir(&host, owner, mode)?;
        Ok(())
    }

    /// Creates a directory and all missing ancestors in the top branch.
    pub fn mkdir_all(&self, store: &Store, rel: &str, owner: Uid, mode: Mode) -> VfsResult<()> {
        if rel.is_empty() {
            return Ok(());
        }
        let mut sofar = String::new();
        for comp in rel.split('/') {
            if !sofar.is_empty() {
                sofar.push('/');
            }
            sofar.push_str(comp);
            match self.stat(store, &sofar) {
                Ok(meta) if meta.is_dir => {}
                Ok(_) => return Err(VfsError::NotADirectory),
                Err(VfsError::NotFound) => self.mkdir(store, &sofar, owner, mode)?,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Removes an (effectively) empty directory.
    pub fn rmdir(&self, store: &Store, rel: &str) -> VfsResult<()> {
        if rel.is_empty() {
            return Err(VfsError::InvalidArgument);
        }
        let meta = self.stat(store, rel)?;
        if !meta.is_dir {
            return Err(VfsError::NotADirectory);
        }
        if !self.read_dir(store, rel)?.is_empty() {
            return Err(VfsError::NotEmpty);
        }
        let top = self.top()?.host.clone();
        let top_host = join_rel(&top, rel)?;
        if store.exists(&top_host) {
            // The top copy may contain only whiteout markers; clear them.
            store.remove_all(&top_host)?;
        }
        let lower_exists = self
            .branches
            .iter()
            .skip(1)
            .any(|br| join_rel(&br.host, rel).map(|h| store.exists(&h)).unwrap_or(false));
        if lower_exists {
            self.ensure_parents(store, rel, Uid::ROOT)?;
            let (parent, name) = split_rel(rel);
            let wh = join_rel(&top, parent)?.join(&whiteout_name(name))?;
            store.write(&wh, b"", Uid::ROOT, Mode::PRIVATE)?;
        }
        Ok(())
    }

    /// Lists the merged view of a directory.
    ///
    /// Entries from higher branches shadow same-named entries below;
    /// whiteouts hide lower entries; marker files themselves are never
    /// listed.
    pub fn read_dir(&self, store: &Store, rel: &str) -> VfsResult<Vec<DirEntry>> {
        // The directory itself must be visible.
        let meta = self.stat(store, rel)?;
        if !meta.is_dir {
            return Err(VfsError::NotADirectory);
        }
        let mut merged: BTreeMap<String, DirEntry> = BTreeMap::new();
        let mut hidden: Vec<String> = Vec::new();
        for (i, br) in self.branches.iter().enumerate() {
            if i > 0 && self.hides_lower_upto(store, i, rel) {
                break;
            }
            let host = join_rel(&br.host, rel)?;
            if let Ok(entries) = store.read_dir(&host) {
                for e in entries {
                    if let Some(stripped) = e.name.strip_prefix(WHITEOUT_PREFIX) {
                        hidden.push(stripped.to_string());
                        continue;
                    }
                    // Append-delta markers are plumbing, never listed.
                    if e.name.starts_with(APPEND_DELTA_PREFIX) {
                        continue;
                    }
                    if hidden.iter().any(|h| h == &e.name) {
                        continue;
                    }
                    merged.entry(e.name.clone()).or_insert(e);
                }
            }
        }
        // Remove names that were whited out by a branch at or above the one
        // providing them. Because we insert before recording later branches'
        // whiteouts, re-filter here for whiteouts discovered after insert.
        let result = merged
            .into_values()
            .filter(|e| {
                // A name inserted by branch i is valid unless some strictly
                // higher branch whites it out, which the `hidden` check at
                // insert time already guarantees (we scan top-down).
                !self.name_whited_out_above(store, rel, &e.name)
            })
            .collect();
        Ok(result)
    }

    /// Returns true if a whiteout hides lower branches at this exact point,
    /// considering only whiteouts in branches with index < `upto`.
    fn hides_lower_upto(&self, store: &Store, upto: usize, rel: &str) -> bool {
        (0..upto).any(|i| self.hides_lower(store, i, rel))
    }

    /// Returns true if `name` inside directory `rel` is whited out by a
    /// branch that shadows the branch where the entry is found.
    fn name_whited_out_above(&self, store: &Store, rel: &str, name: &str) -> bool {
        let child_rel = if rel.is_empty() { name.to_string() } else { format!("{rel}/{name}") };
        // Find the branch that provides the entry.
        let provider = self.branches.iter().position(|br| {
            join_rel(&br.host, &child_rel).map(|h| store.exists(&h)).unwrap_or(false)
        });
        let Some(provider) = provider else { return true };
        // Any whiteout strictly above it hides it.
        (0..provider).any(|i| {
            let dir = join_rel(&self.branches[i].host, rel);
            match dir.and_then(|d| d.join(&whiteout_name(name))) {
                Ok(wh) => store.exists(&wh),
                Err(_) => false,
            }
        })
    }

    /// Renames within the union by copy + unlink (cross-branch safe).
    pub fn rename(
        &self,
        store: &Store,
        from: &str,
        to: &str,
        owner: Uid,
        mode: Mode,
    ) -> VfsResult<()> {
        let data = self.read(store, from)?;
        self.write(store, to, &data, owner, mode)?;
        self.unlink(store, from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::vpath;

    /// Builds a store with `lower` and `upper` branch dirs and some files
    /// in the lower branch.
    fn setup(lower_files: &[(&str, &str)]) -> (Store, Union) {
        let store = Store::new();
        store.mkdir_all(&vpath("/b/upper"), Uid::ROOT, Mode::PUBLIC).unwrap();
        store.mkdir_all(&vpath("/b/lower"), Uid::ROOT, Mode::PUBLIC).unwrap();
        for (p, c) in lower_files {
            let host = vpath("/b/lower").join(p).unwrap();
            store.mkdir_all(&host.parent().unwrap(), Uid::ROOT, Mode::PUBLIC).unwrap();
            store.write(&host, c.as_bytes(), Uid::ROOT, Mode::PUBLIC).unwrap();
        }
        let union =
            Union::new(vec![Branch::rw(vpath("/b/upper")), Branch::ro(vpath("/b/lower"))], false);
        (store, union)
    }

    #[test]
    fn reads_fall_through_to_lower() {
        let (store, u) = setup(&[("d/f.txt", "lower")]);
        assert_eq!(u.read(&store, "d/f.txt").unwrap(), b"lower");
        assert_eq!(u.read(&store, "d/nope").err(), Some(VfsError::NotFound));
    }

    #[test]
    fn writes_shadow_lower_copy() {
        let (store, u) = setup(&[("d/f.txt", "lower")]);
        u.write(&store, "d/f.txt", b"upper", Uid(10_001), Mode::PUBLIC).unwrap();
        // Union view sees the new version.
        assert_eq!(u.read(&store, "d/f.txt").unwrap(), b"upper");
        // The lower branch still holds the original.
        assert_eq!(store.read(&vpath("/b/lower/d/f.txt")).unwrap(), b"lower");
        // The copy landed in the upper branch.
        assert_eq!(store.read(&vpath("/b/upper/d/f.txt")).unwrap(), b"upper");
    }

    #[test]
    fn append_copies_up_whole_file() {
        let (store, u) = setup(&[("f", "abc")]);
        u.append(&store, "f", b"def").unwrap();
        assert_eq!(u.read(&store, "f").unwrap(), b"abcdef");
        assert_eq!(store.read(&vpath("/b/lower/f")).unwrap(), b"abc");
        assert_eq!(store.read(&vpath("/b/upper/f")).unwrap(), b"abcdef");
        // A second append mutates the top copy in place.
        u.append(&store, "f", b"!").unwrap();
        assert_eq!(store.read(&vpath("/b/upper/f")).unwrap(), b"abcdef!");
    }

    #[test]
    fn unlink_lower_creates_whiteout() {
        let (store, u) = setup(&[("d/f", "x")]);
        u.unlink(&store, "d/f").unwrap();
        assert!(!u.exists(&store, "d/f"));
        // Lower file untouched; whiteout marker present in upper.
        assert!(store.exists(&vpath("/b/lower/d/f")));
        assert!(store.exists(&vpath("/b/upper/d/.wh.f")));
        // Re-creating the file clears the whiteout.
        u.write(&store, "d/f", b"new", Uid::ROOT, Mode::PUBLIC).unwrap();
        assert_eq!(u.read(&store, "d/f").unwrap(), b"new");
        assert!(!store.exists(&vpath("/b/upper/d/.wh.f")));
    }

    #[test]
    fn unlink_shadowed_file_removes_both_layers_view() {
        let (store, u) = setup(&[("f", "lower")]);
        u.write(&store, "f", b"upper", Uid::ROOT, Mode::PUBLIC).unwrap();
        u.unlink(&store, "f").unwrap();
        assert!(!u.exists(&store, "f"));
        assert!(store.exists(&vpath("/b/upper/.wh.f")));
    }

    #[test]
    fn readdir_merges_and_hides() {
        let (store, u) = setup(&[("d/a", "1"), ("d/b", "2")]);
        u.write(&store, "d/c", b"3", Uid::ROOT, Mode::PUBLIC).unwrap();
        u.unlink(&store, "d/a").unwrap();
        let names: Vec<String> =
            u.read_dir(&store, "d").unwrap().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["b".to_string(), "c".to_string()]);
        // Whiteout markers are never listed.
        assert!(!names.iter().any(|n| n.starts_with(WHITEOUT_PREFIX)));
    }

    #[test]
    fn readdir_shadowed_entry_listed_once() {
        let (store, u) = setup(&[("d/a", "lower")]);
        u.write(&store, "d/a", b"upper", Uid::ROOT, Mode::PUBLIC).unwrap();
        let entries = u.read_dir(&store, "d").unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, "a");
    }

    #[test]
    fn whiteout_hides_ancestors_children() {
        let (store, u) = setup(&[("d/sub/f", "x")]);
        // White out the whole directory `d/sub`.
        u.rmdir(&store, "d/sub").err(); // Non-empty: fails.
        u.unlink(&store, "d/sub/f").unwrap();
        u.rmdir(&store, "d/sub").unwrap();
        assert!(!u.exists(&store, "d/sub"));
        assert!(!u.exists(&store, "d/sub/f"));
    }

    #[test]
    fn mkdir_and_rmdir_roundtrip() {
        let (store, u) = setup(&[]);
        u.mkdir_all(&store, "x/y", Uid::ROOT, Mode::PUBLIC).unwrap();
        assert!(u.stat(&store, "x/y").unwrap().is_dir);
        assert_eq!(
            u.mkdir(&store, "x/y", Uid::ROOT, Mode::PUBLIC).err(),
            Some(VfsError::AlreadyExists)
        );
        u.rmdir(&store, "x/y").unwrap();
        assert!(!u.exists(&store, "x/y"));
    }

    #[test]
    fn read_only_union_rejects_writes() {
        let store = Store::new();
        store.mkdir_all(&vpath("/ro"), Uid::ROOT, Mode::PUBLIC).unwrap();
        let u = Union::new(vec![Branch::ro(vpath("/ro"))], false);
        assert_eq!(
            u.write(&store, "f", b"x", Uid::ROOT, Mode::PUBLIC).err(),
            Some(VfsError::ReadOnly)
        );
    }

    #[test]
    fn rename_within_union() {
        let (store, u) = setup(&[("a", "data")]);
        u.rename(&store, "a", "b", Uid::ROOT, Mode::PUBLIC).unwrap();
        assert!(!u.exists(&store, "a"));
        assert_eq!(u.read(&store, "b").unwrap(), b"data");
        // Lower branch's original survives under its old name, hidden.
        assert!(store.exists(&vpath("/b/lower/a")));
    }

    #[test]
    fn copy_up_preserves_metadata() {
        let store = Store::new();
        store.mkdir_all(&vpath("/b/upper"), Uid::ROOT, Mode::PUBLIC).unwrap();
        store.mkdir_all(&vpath("/b/lower"), Uid::ROOT, Mode::PUBLIC).unwrap();
        store.write(&vpath("/b/lower/f"), b"secret", Uid(10_050), Mode::PRIVATE).unwrap();
        let u =
            Union::new(vec![Branch::rw(vpath("/b/upper")), Branch::ro(vpath("/b/lower"))], true);
        let host = u.copy_up(&store, "f").unwrap();
        let meta = store.stat(&host).unwrap();
        assert_eq!(meta.owner, Uid(10_050));
        assert_eq!(meta.mode, Mode::PRIVATE);
    }

    #[test]
    #[should_panic(expected = "only the top branch may be writable")]
    fn lower_writable_branch_panics() {
        let _ = Union::new(vec![Branch::ro(vpath("/a")), Branch::rw(vpath("/b"))], false);
    }

    #[test]
    fn three_branch_priority() {
        let store = Store::new();
        for b in ["/b0", "/b1", "/b2"] {
            store.mkdir_all(&vpath(b), Uid::ROOT, Mode::PUBLIC).unwrap();
        }
        store.write(&vpath("/b1/f"), b"mid", Uid::ROOT, Mode::PUBLIC).unwrap();
        store.write(&vpath("/b2/f"), b"low", Uid::ROOT, Mode::PUBLIC).unwrap();
        let u = Union::new(
            vec![Branch::rw(vpath("/b0")), Branch::ro(vpath("/b1")), Branch::ro(vpath("/b2"))],
            false,
        );
        assert_eq!(u.read(&store, "f").unwrap(), b"mid");
        u.write(&store, "f", b"top", Uid::ROOT, Mode::PUBLIC).unwrap();
        assert_eq!(u.read(&store, "f").unwrap(), b"top");
    }
    #[test]
    fn block_mode_append_writes_only_delta() {
        let store = Store::new();
        store.mkdir_all(&vpath("/b/upper"), Uid::ROOT, Mode::PUBLIC).unwrap();
        store.mkdir_all(&vpath("/b/lower"), Uid::ROOT, Mode::PUBLIC).unwrap();
        store.write(&vpath("/b/lower/log"), b"base|", Uid::ROOT, Mode::PUBLIC).unwrap();
        let u =
            Union::new(vec![Branch::rw(vpath("/b/upper")), Branch::ro(vpath("/b/lower"))], false)
                .with_granularity(CopyUpGranularity::Block);
        u.append(&store, "log", b"l1").unwrap();
        u.append(&store, "log", b"|l2").unwrap();
        // Reads and stat merge base + delta.
        assert_eq!(u.read(&store, "log").unwrap(), b"base|l1|l2");
        assert_eq!(u.stat(&store, "log").unwrap().size, 10);
        // Only the delta lives in the upper branch — no full copy.
        assert!(!store.exists(&vpath("/b/upper/log")));
        assert_eq!(store.read(&vpath("/b/upper/.ad.log")).unwrap(), b"l1|l2");
        // The lower branch is untouched.
        assert_eq!(store.read(&vpath("/b/lower/log")).unwrap(), b"base|");
        // Deltas never appear in listings.
        let names: Vec<String> =
            u.read_dir(&store, "").unwrap().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["log".to_string()]);
    }

    #[test]
    fn block_mode_write_and_unlink_clear_delta() {
        let store = Store::new();
        store.mkdir_all(&vpath("/b/upper"), Uid::ROOT, Mode::PUBLIC).unwrap();
        store.mkdir_all(&vpath("/b/lower"), Uid::ROOT, Mode::PUBLIC).unwrap();
        store.write(&vpath("/b/lower/f"), b"abc", Uid::ROOT, Mode::PUBLIC).unwrap();
        let u =
            Union::new(vec![Branch::rw(vpath("/b/upper")), Branch::ro(vpath("/b/lower"))], false)
                .with_granularity(CopyUpGranularity::Block);
        u.append(&store, "f", b"def").unwrap();
        // A truncating write replaces everything, delta included.
        u.write(&store, "f", b"xyz", Uid::ROOT, Mode::PUBLIC).unwrap();
        assert_eq!(u.read(&store, "f").unwrap(), b"xyz");
        assert!(!store.exists(&vpath("/b/upper/.ad.f")));
        // Unlink from fresh delta state also clears it.
        u.unlink(&store, "f").unwrap();
        u.write(&store, "f", b"v2", Uid::ROOT, Mode::PUBLIC).unwrap();
        u.unlink(&store, "f").unwrap();
        assert!(!u.exists(&store, "f"));
    }

    #[test]
    fn block_mode_copy_up_folds_delta() {
        let store = Store::new();
        store.mkdir_all(&vpath("/b/upper"), Uid::ROOT, Mode::PUBLIC).unwrap();
        store.mkdir_all(&vpath("/b/lower"), Uid::ROOT, Mode::PUBLIC).unwrap();
        store.write(&vpath("/b/lower/f"), b"abc", Uid::ROOT, Mode::PUBLIC).unwrap();
        let u =
            Union::new(vec![Branch::rw(vpath("/b/upper")), Branch::ro(vpath("/b/lower"))], false)
                .with_granularity(CopyUpGranularity::Block);
        u.append(&store, "f", b"def").unwrap();
        let host = u.copy_up(&store, "f").unwrap();
        assert_eq!(store.read(&host).unwrap(), b"abcdef");
        assert!(!store.exists(&vpath("/b/upper/.ad.f")));
        // Further appends now mutate the materialized copy in place.
        u.append(&store, "f", b"!").unwrap();
        assert_eq!(store.read(&host).unwrap(), b"abcdef!");
    }

    #[test]
    fn resolve_cache_hits_and_invalidates() {
        let (store, u) = setup(&[("d/f", "lower")]);
        assert!(u.resolve_cache_enabled());
        assert_eq!(u.read(&store, "d/f").unwrap(), b"lower");
        assert_eq!(u.read(&store, "d/f").unwrap(), b"lower");
        let (h1, _) = u.resolve_cache_stats();
        assert!(h1 >= 1, "repeated read should hit, stats {:?}", u.resolve_cache_stats());
        // Shadowing write bumps the store generation; the next read must
        // resolve to the top branch, not the cached lower location.
        u.write(&store, "d/f", b"upper", Uid::ROOT, Mode::PUBLIC).unwrap();
        assert_eq!(u.read(&store, "d/f").unwrap(), b"upper");
        // Negative results are cached too...
        assert!(!u.exists(&store, "d/none"));
        assert!(!u.exists(&store, "d/none"));
        // ...and creation invalidates them.
        u.write(&store, "d/none", b"x", Uid::ROOT, Mode::PUBLIC).unwrap();
        assert!(u.exists(&store, "d/none"));
        // Whiteouts invalidate positive resolutions.
        u.unlink(&store, "d/f").unwrap();
        assert!(!u.exists(&store, "d/f"));
    }

    #[test]
    fn append_after_copy_up_stays_cached() {
        let (store, u) = setup(&[("f", "abc")]);
        u.append(&store, "f", b"1").unwrap(); // whole-file copy-up
        let (h0, _) = u.resolve_cache_stats();
        // Appends to the copied-up file change content, not visibility:
        // the resolution caches and subsequent appends skip the walk.
        u.append(&store, "f", b"2").unwrap();
        u.append(&store, "f", b"3").unwrap();
        let (h1, _) = u.resolve_cache_stats();
        assert!(h1 > h0, "appends after copy-up should hit the resolve cache");
        assert_eq!(u.read(&store, "f").unwrap(), b"abc123");
    }

    #[test]
    fn resolve_cache_disabled_matches_enabled() {
        let run = |cached: bool| -> Vec<Vec<u8>> {
            let (store, u) = setup(&[("d/a", "A"), ("d/b", "B")]);
            let u = u.with_resolve_cache(cached);
            assert_eq!(u.resolve_cache_enabled(), cached);
            u.append(&store, "d/a", b"+").unwrap();
            u.unlink(&store, "d/b").unwrap();
            u.write(&store, "d/c", b"C", Uid::ROOT, Mode::PUBLIC).unwrap();
            let mut out = Vec::new();
            for rel in ["d/a", "d/b", "d/c"] {
                out.push(u.read(&store, rel).unwrap_or_default());
                out.push(u.read(&store, rel).unwrap_or_default());
            }
            out
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn clones_start_with_cold_cache() {
        let (store, u) = setup(&[("f", "x")]);
        assert!(u.exists(&store, "f"));
        assert!(u.exists(&store, "f"));
        let clone = u.clone();
        assert_eq!(clone.resolve_cache_stats(), (0, 0));
        assert_eq!(clone, u, "cache state must not affect union equality");
    }

    #[test]
    fn block_and_file_modes_agree_on_view() {
        // The two granularities must be observationally identical.
        for granularity in [CopyUpGranularity::File, CopyUpGranularity::Block] {
            let store = Store::new();
            store.mkdir_all(&vpath("/b/upper"), Uid::ROOT, Mode::PUBLIC).unwrap();
            store.mkdir_all(&vpath("/b/lower"), Uid::ROOT, Mode::PUBLIC).unwrap();
            store.write(&vpath("/b/lower/f"), b"seed", Uid::ROOT, Mode::PUBLIC).unwrap();
            let u = Union::new(
                vec![Branch::rw(vpath("/b/upper")), Branch::ro(vpath("/b/lower"))],
                false,
            )
            .with_granularity(granularity);
            u.append(&store, "f", b"+1").unwrap();
            u.append(&store, "f", b"+2").unwrap();
            assert_eq!(u.read(&store, "f").unwrap(), b"seed+1+2", "{granularity:?}");
            assert_eq!(u.stat(&store, "f").unwrap().size, 8, "{granularity:?}");
            assert_eq!(
                store.read(&vpath("/b/lower/f")).unwrap(),
                b"seed",
                "{granularity:?} must not touch the lower branch"
            );
        }
    }
}
