//! The lock-free snapshot read path for the COW proxy.
//!
//! A [`crate::CowProxy`] lives behind its authority's write lock; every
//! operation routed through that lock serializes against every other. MVCC
//! snapshot reads (see `maxoid_sqldb::Database::begin_read`) break read
//! traffic out of that queue: after each mutation settles, the lock holder
//! calls [`crate::CowProxy::publish_read`], which captures an immutable
//! [`maxoid_sqldb::ReadSnapshot`] of the committed database and stores it
//! in a shared **read slot**. Reader threads clone the slot's contents
//! under a short `RwLock` read guard — never the authority lock — and run
//! ordinary proxy queries against the snapshot.
//!
//! Three invariants make this safe:
//!
//! 1. **Publication only at quiescent points.** Every `&mut self` proxy
//!    entry point retracts the slot *before* mutating, so a reader can
//!    never observe a half-applied statement; it either sees the previous
//!    committed snapshot or finds the slot empty and falls back to the
//!    locked path. Writers that bypass the proxy (e.g. the system core
//!    holding its own provider `Arc<Mutex<..>>`) still flow through the
//!    proxy's mutating methods, so the retraction discipline holds.
//! 2. **Snapshot-to-snapshot reads.** A snapshot freezes base tables,
//!    delta tables, COW views and triggers at one commit stamp, so a
//!    flattened COW-view query evaluates both `UNION ALL` arms against
//!    the same instant — no torn read between a delta and its base.
//! 3. **Fork-epoch stamping.** The published snapshot carries the proxy's
//!    fork epoch. Thread-local rewrite caches compare it on every bind
//!    and drop their entries when COW topology changed, exactly as the
//!    locked path's cache does.
//!
//! Per-thread state (a [`maxoid_sqldb::SnapshotReader`] with its prepared
//! statements and their plans, and a rewrite cache) lives in a
//! `thread_local!` registry keyed by slot id, so repeated reads on one
//! thread reuse plans across snapshot retargets and share nothing across
//! threads. An entry holds its slot weakly, and entries whose slot is gone
//! (the proxy and every handle dropped) are pruned whenever the thread
//! first reads another slot, so the registry stays bounded by the live
//! slots the thread reads plus one.

use crate::proxy::{cached_query, DbView, QueryOpts};
use crate::rewrite::RewriteCache;
use maxoid_sqldb::{ReadSnapshot, ResultSet, SnapshotReader, SqlResult, Value};
use parking_lot::RwLock;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Slot ids are process-unique so thread-local readers never mix
/// snapshots of different logical databases.
static NEXT_SLOT_ID: AtomicU64 = AtomicU64::new(1);

/// What the write side publishes: a committed snapshot plus the fork
/// epoch it was taken at.
#[derive(Debug, Clone)]
pub(crate) struct CowPublished {
    pub snap: ReadSnapshot,
    pub fork_epoch: u64,
}

/// A cloneable, `Send + Sync` handle to one proxy's published snapshot.
///
/// Obtained from [`crate::CowProxy::read_slot`]; typically held by a
/// resolver-side read handle so queries can be served without taking the
/// authority's write lock. When the slot is empty (a mutation retracted
/// it, or a transaction is open),
/// [`ReadSlot::try_query`] returns `None` and the caller falls back to
/// the locked path.
#[derive(Debug, Clone)]
pub struct ReadSlot {
    id: u64,
    slot: Arc<Slot>,
}

// The slot handle crosses threads by design.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ReadSlot>();
};

/// What the write side publishes into, and readers clone out of.
type Slot = RwLock<Option<CowPublished>>;

/// One thread's cached machinery for reading a particular slot.
struct CowReader {
    /// The slot this reader serves; dead once its proxy is dropped.
    slot: Weak<Slot>,
    reader: SnapshotReader,
    rewrite: RewriteCache,
    fork_epoch: u64,
}

thread_local! {
    /// Per-thread snapshot readers, keyed by slot id.
    static READERS: RefCell<HashMap<u64, CowReader>> = RefCell::new(HashMap::new());
}

impl ReadSlot {
    pub(crate) fn new() -> Self {
        ReadSlot {
            id: NEXT_SLOT_ID.fetch_add(1, Ordering::Relaxed),
            slot: Arc::new(RwLock::new(None)),
        }
    }

    /// Installs a published snapshot. Skips the write lock when the
    /// incumbent is already the same `(stamp, fork_epoch)` pair.
    pub(crate) fn publish(&self, p: CowPublished) {
        if let Some(cur) = &*self.slot.read() {
            if cur.fork_epoch == p.fork_epoch && cur.snap.stamp() == p.snap.stamp() {
                return;
            }
        }
        *self.slot.write() = Some(p);
    }

    /// Empties the slot; readers fall back to the locked path until the
    /// next [`ReadSlot::publish`].
    pub(crate) fn retract(&self) {
        // Cheap read-guard probe first: retraction runs on every proxy
        // mutation and is usually a no-op between publishes.
        if self.slot.read().is_some() {
            *self.slot.write() = None;
        }
    }

    /// Whether a snapshot is currently published.
    pub fn is_published(&self) -> bool {
        self.slot.read().is_some()
    }

    /// The commit stamp of the published snapshot, if any.
    pub fn stamp(&self) -> Option<u64> {
        self.slot.read().as_ref().map(|p| p.snap.stamp())
    }

    /// Runs a proxy query against the published snapshot, if one exists.
    ///
    /// Returns `None` when the slot is empty — the caller must then take
    /// the authority lock and query the live proxy. `Some(result)` is a
    /// full COW-aware query: delegate views resolve to COW views, volatile
    /// views to delta tables, exactly as [`crate::CowProxy::query`] would.
    pub fn try_query(
        &self,
        view: &DbView,
        table: &str,
        opts: &QueryOpts,
        params: &[Value],
    ) -> Option<SqlResult<ResultSet>> {
        let published = self.slot.read().clone()?;
        READERS.with(|cell| {
            let mut map = cell.borrow_mut();
            if !map.contains_key(&self.id) {
                map.retain(|_, r| r.slot.strong_count() > 0);
            }
            let r = map.entry(self.id).or_insert_with(|| CowReader {
                slot: Arc::downgrade(&self.slot),
                reader: SnapshotReader::new(),
                rewrite: RewriteCache::default(),
                fork_epoch: published.fork_epoch,
            });
            if r.fork_epoch != published.fork_epoch {
                // COW topology changed since this thread last read the
                // slot: cached rewrites may target dropped relations.
                r.rewrite.bump_epoch();
                r.fork_epoch = published.fork_epoch;
            }
            let db = r.reader.bind(&published.snap);
            maxoid_obs::counter_add("cowproxy.snapshot_queries", 1);
            let rs = cached_query(&r.rewrite, db, view, table, opts, params);
            // Hold the snapshot only while the query runs: a write that
            // follows then finds the live maps unshared and copies none.
            r.reader.release();
            Some(rs)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CowProxy;

    fn seeded() -> CowProxy {
        let mut p = CowProxy::new();
        p.execute_batch(
            "CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT, frequency INTEGER);",
        )
        .unwrap();
        for (w, f) in [("alpha", 10), ("beta", 20), ("gamma", 30)] {
            p.insert(&DbView::Primary, "words", &[("word", w.into()), ("frequency", f.into())])
                .unwrap();
        }
        p
    }

    #[test]
    fn slot_starts_empty_and_publishes_on_demand() {
        let mut p = seeded();
        let slot = p.read_slot();
        assert!(!slot.is_published());
        assert!(slot.try_query(&DbView::Primary, "words", &QueryOpts::default(), &[]).is_none());
        p.publish_read();
        assert!(slot.is_published());
        let rs = slot
            .try_query(&DbView::Primary, "words", &QueryOpts::default(), &[])
            .expect("published")
            .unwrap();
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn mutation_retracts_until_republished() {
        let mut p = seeded();
        let slot = p.read_slot();
        p.publish_read();
        assert!(slot.is_published());
        p.insert(&DbView::Primary, "words", &[("word", "delta".into())]).unwrap();
        assert!(!slot.is_published(), "a write must retract the published snapshot");
        assert!(slot.try_query(&DbView::Primary, "words", &QueryOpts::default(), &[]).is_none());
        p.publish_read();
        let rs =
            slot.try_query(&DbView::Primary, "words", &QueryOpts::default(), &[]).unwrap().unwrap();
        assert_eq!(rs.rows.len(), 4);
    }

    #[test]
    fn snapshot_queries_see_cow_views_and_volatile_state() {
        let mut p = seeded();
        let delegate = DbView::Delegate { initiator: "A".into() };
        p.update(&delegate, "words", &[("word", "ALPHA".into())], Some("_id = 1"), &[]).unwrap();
        p.publish_read();
        let slot = p.read_slot();
        // Delegate read resolves onto the COW view inside the snapshot.
        let rs = slot
            .try_query(
                &delegate,
                "words",
                &QueryOpts {
                    columns: vec!["word".into()],
                    where_clause: Some("_id = 1".into()),
                    ..Default::default()
                },
                &[],
            )
            .unwrap()
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Text("ALPHA".into())]]);
        // Primary view through the same snapshot is untouched.
        let rs = slot
            .try_query(
                &DbView::Primary,
                "words",
                &QueryOpts {
                    columns: vec!["word".into()],
                    where_clause: Some("_id = 1".into()),
                    ..Default::default()
                },
                &[],
            )
            .unwrap()
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Text("alpha".into())]]);
        // Volatile view sees the delta row, whiteouts excluded.
        let rs = slot
            .try_query(
                &DbView::Volatile { initiator: "A".into() },
                "words",
                &QueryOpts::default(),
                &[],
            )
            .unwrap()
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn published_snapshot_is_immutable_under_later_writes() {
        let mut p = seeded();
        p.publish_read();
        let slot = p.read_slot();
        // Clone the published state by querying, then mutate and check the
        // reader bound to the old snapshot still sees three rows.
        let published = slot.slot.read().clone().unwrap();
        p.insert(&DbView::Primary, "words", &[("word", "delta".into())]).unwrap();
        let mut reader = SnapshotReader::new();
        let db = reader.bind(&published.snap);
        let rs = db.query("SELECT * FROM words", &[]).unwrap();
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(p.db().query("SELECT * FROM words", &[]).unwrap().rows.len(), 4);
    }

    #[test]
    fn thread_readers_are_bounded_by_live_slots() {
        let mut live = seeded();
        live.publish_read();
        let slot = live.read_slot();
        slot.try_query(&DbView::Primary, "words", &QueryOpts::default(), &[]).unwrap().unwrap();
        for _ in 0..1000 {
            let mut p = seeded();
            p.publish_read();
            let rs = p.read_slot().try_query(&DbView::Primary, "words", &QueryOpts::default(), &[]);
            assert_eq!(rs.unwrap().unwrap().rows.len(), 3);
            drop(p);
            let readers = READERS.with(|cell| cell.borrow().len());
            // The live slot, plus the one just dropped: its entry goes
            // when this thread first reads the next slot.
            assert!(readers <= 2, "{readers} thread-local readers for 1 live slot");
        }
        let rs = slot.try_query(&DbView::Primary, "words", &QueryOpts::default(), &[]);
        assert_eq!(rs.unwrap().unwrap().rows.len(), 3, "the live slot's reader survives pruning");
    }

    #[test]
    fn snapshot_reads_work_from_other_threads() {
        let mut p = seeded();
        p.publish_read();
        let slot = p.read_slot();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let slot = slot.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let rs = slot
                            .try_query(&DbView::Primary, "words", &QueryOpts::default(), &[])
                            .expect("published")
                            .unwrap();
                        assert_eq!(rs.rows.len(), 3);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn fork_epoch_change_invalidates_thread_local_rewrites() {
        let mut p = seeded();
        let delegate = DbView::Delegate { initiator: "A".into() };
        p.publish_read();
        let slot = p.read_slot();
        // Warm the thread-local cache: delegate read before any fork
        // resolves to the primary table.
        let rs = slot.try_query(&delegate, "words", &QueryOpts::default(), &[]).unwrap().unwrap();
        assert_eq!(rs.rows.len(), 3);
        // Fork: the delegate deletes a row (whiteout). The epoch bump must
        // reach the thread-local cache or the stale rewrite would keep
        // reading the primary table.
        p.delete(&delegate, "words", Some("_id = 1"), &[]).unwrap();
        p.publish_read();
        let rs = slot.try_query(&delegate, "words", &QueryOpts::default(), &[]).unwrap().unwrap();
        assert_eq!(rs.rows.len(), 2, "post-fork snapshot read must see the whiteout");
    }
}
