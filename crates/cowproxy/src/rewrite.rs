//! Per-epoch memoization of the proxy's generated SQL (the rewrite cache).
//!
//! Every data call through [`crate::CowProxy`] rewrites the caller's
//! operation into plain SQL over primary tables, COW views or delta
//! tables. The rewrite is a pure function of the *shape* of the call —
//! the view, the table, the column list, the WHERE/ORDER BY text — plus
//! the proxy's current COW topology (which deltas and COW views exist).
//! The topology only changes at coarse-grained events: a COW fork, an
//! idle tenant's retirement, provider DDL, or view registration. A
//! volatile clear or commit only deletes or copies rows. The cache
//! therefore keys entries by call shape and stamps them with a *fork
//! epoch*; any topology change bumps the epoch and implicitly drops every
//! cached rewrite.
//!
//! Cached SQL is a string (plus the resolved target relation and the
//! footnote-5 appended-column count) — never a prepared [`maxoid_sqldb`]
//! statement handle. Execution still flows through
//! [`maxoid_sqldb::Database::execute`] / `query` with SQL text so the
//! logical journal records exactly what an uncached proxy would record;
//! the database's statement cache parses and plans each text once.

use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Entry cap; the cache is cleared wholesale when it fills. A shape is
/// per initiator, not one per provider call site: the key carries the
/// initiator, so a tenant whose delegates insert, update and delete holds
/// 3 shapes, and 86 such tenants pass 256. Past that, the cache clears
/// whenever it fills and refills as the shapes recur.
pub(crate) const REWRITE_CACHE_CAP: usize = 256;

/// Operation tags distinguishing cache keys across proxy entry points.
pub(crate) mod op {
    pub const INSERT: u8 = 0;
    pub const UPDATE: u8 = 1;
    pub const DELETE: u8 = 2;
    pub const QUERY: u8 = 3;
}

/// A borrowed cache key: the shape of one proxy call. Hashing and
/// comparison work directly on the borrowed parts so a lookup allocates
/// nothing beyond the caller's transient `parts` slice.
#[derive(Debug)]
pub(crate) struct Key<'a> {
    /// One of the [`op`] tags.
    pub op: u8,
    /// Discriminant of the [`crate::DbView`] (primary/delegate/volatile/admin).
    pub view_tag: u8,
    /// Initiator identity, `""` for primary/admin views.
    pub initiator: &'a str,
    /// The table (or user view) named by the caller.
    pub table: &'a str,
    /// Op-specific shape strings (column names, WHERE text, ORDER BY
    /// text). Option-ness is encoded by the caller with explicit tag
    /// parts so `None` and `Some("")` key differently.
    pub parts: &'a [&'a str],
    /// Op-specific count (e.g. SET-column count) disambiguating the
    /// `parts` layout.
    pub num: i64,
    /// Second op-specific number (e.g. encoded LIMIT).
    pub num2: i64,
}

impl Key<'_> {
    fn fingerprint(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.op.hash(&mut h);
        self.view_tag.hash(&mut h);
        self.initiator.hash(&mut h);
        self.table.hash(&mut h);
        self.parts.len().hash(&mut h);
        for p in self.parts {
            p.hash(&mut h);
        }
        self.num.hash(&mut h);
        self.num2.hash(&mut h);
        h.finish()
    }

    fn matches(&self, e: &Entry) -> bool {
        self.op == e.op
            && self.view_tag == e.view_tag
            && self.num == e.num
            && self.num2 == e.num2
            && self.initiator == e.initiator
            && self.table == e.table
            && self.parts.len() == e.parts.len()
            && self.parts.iter().zip(&e.parts).all(|(a, b)| *a == b)
    }
}

/// The memoized rewrite of one call shape.
#[derive(Debug, Clone)]
pub(crate) struct Rewrite {
    /// The relation the call resolved to (primary table, COW view or
    /// delta table).
    pub target: Arc<str>,
    /// The generated SQL text.
    pub sql: Arc<str>,
    /// Footnote-5 ORDER BY columns appended to the projection (queries
    /// only); the result set is truncated by this many columns.
    pub appended: usize,
    /// Whether resolution rewrote a delegate read onto a COW view (so a
    /// hit replays the `cowproxy.view_rewrites` counter the uncached
    /// path would have bumped).
    pub rewrote: bool,
}

#[derive(Debug)]
struct Entry {
    epoch: u64,
    op: u8,
    view_tag: u8,
    initiator: String,
    table: String,
    parts: Vec<String>,
    num: i64,
    num2: i64,
    rewrite: Rewrite,
}

/// The rewrite cache: one per proxy, for its writes, and one per reader
/// thread of the proxy, for its queries. Interior-mutable because queries
/// take `&CowProxy`; a mutex and relaxed atomics so a proxy shared by
/// readers stays `Sync` (each reader thread runs on its own entries, so
/// nothing contends on the mutex).
#[derive(Debug, Default)]
pub(crate) struct RewriteCache {
    disabled: AtomicBool,
    epoch: AtomicU64,
    entries: Mutex<HashMap<u64, Entry>>,
    counts: Arc<Counts>,
}

/// Hit and miss counts, shared by a proxy's cache and its readers' caches
/// so the proxy's stats count every lookup.
#[derive(Debug, Default)]
struct Counts {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl RewriteCache {
    /// An empty cache for a reader thread of the proxy that owns `self`:
    /// it counts its hits and misses into `self`'s, and starts as `self`
    /// is switched (see [`RewriteCache::follow`]).
    pub(crate) fn for_reader(&self) -> RewriteCache {
        let cache = RewriteCache { counts: Arc::clone(&self.counts), ..Default::default() };
        cache.follow(self);
        cache
    }

    /// Switches this cache on or off as `owner` is.
    pub(crate) fn follow(&self, owner: &RewriteCache) {
        let on = !owner.disabled.load(Relaxed);
        if self.disabled.load(Relaxed) == on {
            self.set_enabled(on);
        }
    }

    /// Toggles the cache; disabling drops every entry so re-enabling
    /// starts cold.
    pub(crate) fn set_enabled(&self, on: bool) {
        self.disabled.store(!on, Relaxed);
        if !on {
            self.entries.lock().clear();
        }
    }

    pub(crate) fn epoch(&self) -> u64 {
        self.epoch.load(Relaxed)
    }

    /// Advances the fork epoch, logically invalidating every cached
    /// rewrite. Entries are dropped eagerly; the per-entry epoch stamp is
    /// belt and braces against reuse across a bump.
    pub(crate) fn bump_epoch(&self) {
        self.epoch.fetch_add(1, Relaxed);
        self.entries.lock().clear();
    }

    pub(crate) fn stats(&self) -> (u64, u64) {
        (self.counts.hits.load(Relaxed), self.counts.misses.load(Relaxed))
    }

    /// Entries held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.lock().len()
    }

    pub(crate) fn lookup(&self, key: &Key<'_>) -> Option<Rewrite> {
        if self.disabled.load(Relaxed) {
            return None;
        }
        let entries = self.entries.lock();
        if let Some(e) = entries.get(&key.fingerprint()) {
            if e.epoch == self.epoch() && key.matches(e) {
                self.counts.hits.fetch_add(1, Relaxed);
                maxoid_obs::counter_add("cowproxy.rewrite_cache_hits", 1);
                return Some(e.rewrite.clone());
            }
        }
        self.counts.misses.fetch_add(1, Relaxed);
        maxoid_obs::counter_add("cowproxy.rewrite_cache_misses", 1);
        None
    }

    pub(crate) fn insert(&self, key: &Key<'_>, rewrite: Rewrite) {
        if self.disabled.load(Relaxed) {
            return;
        }
        let mut entries = self.entries.lock();
        if entries.len() >= REWRITE_CACHE_CAP {
            entries.clear();
        }
        entries.insert(
            key.fingerprint(),
            Entry {
                epoch: self.epoch(),
                op: key.op,
                view_tag: key.view_tag,
                initiator: key.initiator.to_string(),
                table: key.table.to_string(),
                parts: key.parts.iter().map(|p| p.to_string()).collect(),
                num: key.num,
                num2: key.num2,
                rewrite,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rw(sql: &str) -> Rewrite {
        Rewrite { target: "t".into(), sql: sql.into(), appended: 0, rewrote: false }
    }

    fn key<'a>(op_: u8, table: &'a str, parts: &'a [&'a str]) -> Key<'a> {
        Key { op: op_, view_tag: 1, initiator: "A", table, parts, num: 0, num2: 0 }
    }

    #[test]
    fn hit_after_insert() {
        let c = RewriteCache::default();
        let parts = ["word", "frequency"];
        c.insert(&key(op::INSERT, "words", &parts), rw("INSERT ..."));
        let got = c.lookup(&key(op::INSERT, "words", &parts)).expect("hit");
        assert_eq!(&*got.sql, "INSERT ...");
        assert_eq!(c.stats(), (1, 0));
    }

    #[test]
    fn shape_differences_miss() {
        let c = RewriteCache::default();
        let parts = ["word"];
        c.insert(&key(op::INSERT, "words", &parts), rw("a"));
        // Different op, table, parts, view tag or initiator all miss.
        assert!(c.lookup(&key(op::UPDATE, "words", &parts)).is_none());
        assert!(c.lookup(&key(op::INSERT, "other", &parts)).is_none());
        assert!(c.lookup(&key(op::INSERT, "words", &["freq"])).is_none());
        let mut k = key(op::INSERT, "words", &parts);
        k.view_tag = 2;
        assert!(c.lookup(&k).is_none());
        let mut k = key(op::INSERT, "words", &parts);
        k.initiator = "B";
        assert!(c.lookup(&k).is_none());
        let mut k = key(op::INSERT, "words", &parts);
        k.num = 7;
        assert!(c.lookup(&k).is_none());
    }

    #[test]
    fn epoch_bump_invalidates() {
        let c = RewriteCache::default();
        let parts = ["word"];
        c.insert(&key(op::QUERY, "words", &parts), rw("SELECT ..."));
        assert!(c.lookup(&key(op::QUERY, "words", &parts)).is_some());
        c.bump_epoch();
        assert!(c.lookup(&key(op::QUERY, "words", &parts)).is_none());
    }

    #[test]
    fn disabled_cache_bypasses() {
        let c = RewriteCache::default();
        let parts = ["word"];
        c.set_enabled(false);
        c.insert(&key(op::QUERY, "words", &parts), rw("x"));
        assert!(c.lookup(&key(op::QUERY, "words", &parts)).is_none());
        // Disabled lookups count neither hits nor misses.
        assert_eq!(c.stats(), (0, 0));
        c.set_enabled(true);
        assert!(c.lookup(&key(op::QUERY, "words", &parts)).is_none());
        assert_eq!(c.stats(), (0, 1));
    }
}
