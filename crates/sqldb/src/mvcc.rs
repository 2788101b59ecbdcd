//! Multiversion concurrency control: commit stamps and the
//! published-snapshot machinery behind [`Database::begin_read`].
//!
//! The design exploits one structural fact: a [`Database`] is only ever
//! mutated by its single owner (the write-lock holder), and snapshots are
//! published exclusively at *committed, quiescent* points. A snapshot is
//! therefore a shallow freeze — every table's rowid map is an
//! `Arc<BTreeMap<_, Arc<Vec<Value>>>>`, so freezing clones a handful of
//! `Arc`s, and a frozen map's rows *are* exactly the committed rows at
//! freeze time. Visibility is map membership, which keeps the snapshot
//! read path byte-for-byte the same cost as an ordinary read.
//!
//! Writes stay cheap in the presence of live snapshots without version
//! chains: a write privatizes the map (`Arc::make_mut`) and replaces the
//! row's `Arc`, and a frozen map pins every row it can see with its own
//! `Arc`. Old rows are reclaimed by reference counting when the last
//! snapshot that sees them drops; nothing tracks which snapshots are live,
//! and no background thread is involved.
//!
//! [`Database::begin_read`]: crate::Database::begin_read

use crate::db::{Database, TriggerDef, ViewDef};
use crate::planner::FlattenPolicy;
use crate::table::Table;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// MVCC bookkeeping shared between a live [`Database`] and every table it
/// owns. All fields are independent of the database's single-threaded
/// interior.
#[derive(Debug)]
pub(crate) struct MvccShared {
    /// Current commit stamp: bumped once per completed mutating
    /// statement. A published snapshot is valid exactly while its stamp
    /// equals this value.
    stamp: AtomicU64,
    /// Snapshots published (memoized republications excluded).
    snapshots_published: AtomicU64,
    /// Source of table version tags: every mutation of any attached table
    /// takes a fresh value, so two table states with equal tags are
    /// guaranteed to have identical contents (clones copy the tag along
    /// with the content they share). Lets `begin_read` and
    /// [`SnapshotReader`] rebinds skip unchanged tables.
    table_ver: AtomicU64,
}

impl Default for MvccShared {
    fn default() -> Self {
        MvccShared {
            stamp: AtomicU64::new(0),
            snapshots_published: AtomicU64::new(0),
            table_ver: AtomicU64::new(0),
        }
    }
}

impl MvccShared {
    /// Current commit stamp.
    pub(crate) fn stamp(&self) -> u64 {
        self.stamp.load(Ordering::Acquire)
    }

    /// Advances the commit stamp (one mutating statement completed).
    pub(crate) fn bump_stamp(&self) {
        self.stamp.fetch_add(1, Ordering::AcqRel);
    }

    /// Mints a fresh table version tag (see `MvccShared::table_ver`).
    pub(crate) fn next_table_ver(&self) -> u64 {
        self.table_ver.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// The last table version tag minted; every later tag is greater.
    #[cfg(debug_assertions)]
    pub(crate) fn last_table_ver(&self) -> u64 {
        self.table_ver.load(Ordering::Acquire)
    }

    /// Records one fresh snapshot publication.
    pub(crate) fn note_published(&self) {
        self.snapshots_published.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time counter snapshot.
    pub(crate) fn stats(&self) -> MvccStats {
        MvccStats {
            stamp: self.stamp(),
            snapshots_published: self.snapshots_published.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time MVCC counters, from [`Database::mvcc_stats`].
///
/// [`Database::mvcc_stats`]: crate::Database::mvcc_stats
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MvccStats {
    /// Current commit stamp (mutating statements executed).
    pub stamp: u64,
    /// Snapshots published (memoized reuse excluded).
    pub snapshots_published: u64,
}

/// An immutable, shareable freeze of a whole database at one commit
/// stamp: shallow copies of every table (rowid maps and secondary
/// indexes shared by `Arc`), plus the catalog needed to plan and execute
/// read-only statements.
#[derive(Debug)]
pub(crate) struct DbSnapshot {
    pub(crate) stamp: u64,
    pub(crate) catalog_gen: u64,
    pub(crate) flatten_policy: FlattenPolicy,
    pub(crate) tables: Arc<BTreeMap<String, Arc<Table>>>,
    pub(crate) views: Arc<BTreeMap<String, Arc<ViewDef>>>,
    pub(crate) triggers: Arc<BTreeMap<String, Arc<TriggerDef>>>,
}

impl DbSnapshot {
    pub(crate) fn new(
        stamp: u64,
        catalog_gen: u64,
        flatten_policy: FlattenPolicy,
        tables: Arc<BTreeMap<String, Arc<Table>>>,
        views: Arc<BTreeMap<String, Arc<ViewDef>>>,
        triggers: Arc<BTreeMap<String, Arc<TriggerDef>>>,
    ) -> Self {
        DbSnapshot { stamp, catalog_gen, flatten_policy, tables, views, triggers }
    }
}

// The whole point: a snapshot can be handed to reader threads while the
// writer keeps mutating. Everything inside is either plain immutable data
// or `Arc`/atomic-shared.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<DbSnapshot>();
    assert_send_sync::<ReadSnapshot>();
};

/// A cheap, clonable handle on an immutable database snapshot, returned
/// by [`Database::begin_read`]. All read-only statements executed through
/// a [`SnapshotReader`] bound to this handle see exactly the committed
/// state at [`ReadSnapshot::stamp`], no matter what the writer does
/// concurrently.
///
/// [`Database::begin_read`]: crate::Database::begin_read
#[derive(Debug, Clone)]
pub struct ReadSnapshot {
    pub(crate) snap: Arc<DbSnapshot>,
}

impl ReadSnapshot {
    /// Commit stamp this snapshot was taken at.
    pub fn stamp(&self) -> u64 {
        self.snap.stamp
    }

    /// Catalog generation this snapshot was taken at (changes only on
    /// DDL/rollback, so readers can keep cached plans across data-only
    /// retargets).
    pub fn catalog_gen(&self) -> u64 {
        self.snap.catalog_gen
    }
}

/// A reusable executor for read-only statements against
/// [`ReadSnapshot`]s.
///
/// Internally this is a thin private [`Database`] whose tables are
/// re-pointed (shallowly) at whatever snapshot is bound; its prepared-
/// statement and plan caches persist across rebinds, so steady-state
/// snapshot reads pay no re-parse or re-plan cost. Retargeting to a new
/// snapshot of the *same* database costs O(#tables) `Arc` clones; the
/// catalog (views/triggers) is only re-cloned when the snapshot's catalog
/// generation actually changed.
///
/// A reader must only ever be bound to snapshots of one logical database
/// (stamps from different databases are not comparable). One reader per
/// thread per authority is the intended shape.
#[derive(Debug, Default)]
pub struct SnapshotReader {
    db: Database,
    stamp: Option<u64>,
    catalog_gen: Option<u64>,
}

impl SnapshotReader {
    /// Creates an empty reader (binds lazily on first use).
    pub fn new() -> Self {
        SnapshotReader::default()
    }

    /// Points the reader at `snap` and returns the database view to run
    /// `query()` against. No-op when already bound to the same stamp.
    pub fn bind(&mut self, snap: &ReadSnapshot) -> &Database {
        let s = &snap.snap;
        if self.stamp != Some(s.stamp) {
            self.db.retarget(s, self.catalog_gen != Some(s.catalog_gen));
            self.stamp = Some(s.stamp);
            self.catalog_gen = Some(s.catalog_gen);
        }
        &self.db
    }

    /// The underlying read-only database view (last bound snapshot).
    pub fn db(&self) -> &Database {
        &self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn seeded() -> Database {
        let mut db = Database::new();
        db.execute_batch(
            "CREATE TABLE t (_id INTEGER PRIMARY KEY, data TEXT);
             INSERT INTO t (data) VALUES ('a'), ('b'), ('c');",
        )
        .unwrap();
        db
    }

    #[test]
    fn snapshot_is_immutable_under_writes() {
        let mut db = seeded();
        let snap = db.begin_read().unwrap();
        let mut reader = SnapshotReader::new();
        db.execute("UPDATE t SET data = 'X' WHERE _id = 1", &[]).unwrap();
        db.execute("DELETE FROM t WHERE _id = 2", &[]).unwrap();
        db.execute("INSERT INTO t (data) VALUES ('d')", &[]).unwrap();
        let rs = reader.bind(&snap).query("SELECT data FROM t ORDER BY _id", &[]).unwrap();
        let got: Vec<&Value> = rs.rows.iter().map(|r| &r[0]).collect();
        assert_eq!(
            got,
            vec![&Value::Text("a".into()), &Value::Text("b".into()), &Value::Text("c".into())]
        );
        // The live database sees the new state.
        let live = db.query("SELECT data FROM t ORDER BY _id", &[]).unwrap();
        assert_eq!(live.rows.len(), 3);
        assert_eq!(live.rows[0][0], Value::Text("X".into()));
    }

    #[test]
    fn publication_is_memoized_until_a_mutation() {
        let mut db = seeded();
        let s1 = db.begin_read().unwrap();
        let s2 = db.begin_read().unwrap();
        assert_eq!(s1.stamp(), s2.stamp());
        assert_eq!(db.mvcc_stats().snapshots_published, 1);
        db.execute("INSERT INTO t (data) VALUES ('d')", &[]).unwrap();
        let s3 = db.begin_read().unwrap();
        assert!(s3.stamp() > s1.stamp());
        assert_eq!(db.mvcc_stats().snapshots_published, 2);
    }

    #[test]
    fn begin_read_refuses_inside_a_transaction() {
        let mut db = seeded();
        db.begin().unwrap();
        assert!(db.begin_read().is_none(), "uncommitted state must not be published");
        db.rollback().unwrap();
        assert!(db.begin_read().is_some());
    }

    #[test]
    fn dropping_snapshots_lets_gc_reclaim_versions() {
        // A live snapshot keeps reading the row it saw across updates;
        // once it drops, the live table is the only owner of each row
        // (`table::tests::a_dropped_snapshot_leaves_the_live_map_the_only_owner`).
        let mut db = seeded();
        let snap = db.begin_read().unwrap();
        let mut reader = SnapshotReader::new();
        for i in 0..10 {
            db.execute("UPDATE t SET data = ?1 WHERE _id = 1", &[Value::Text(format!("v{i}"))])
                .unwrap();
            let rs = reader.bind(&snap).query("SELECT data FROM t WHERE _id = 1", &[]).unwrap();
            assert_eq!(rs.rows[0][0], Value::Text("a".into()), "after update {i}");
        }
        drop(snap);
        let live = db.query("SELECT data FROM t WHERE _id = 1", &[]).unwrap();
        assert_eq!(live.rows[0][0], Value::Text("v9".into()));
    }

    #[test]
    fn snapshot_reader_keeps_plans_across_data_retargets() {
        let mut db = seeded();
        let mut reader = SnapshotReader::new();
        let s1 = db.begin_read().unwrap();
        reader.bind(&s1).query("SELECT data FROM t WHERE _id = ?1", &[Value::Integer(1)]).unwrap();
        db.execute("INSERT INTO t (data) VALUES ('d')", &[]).unwrap();
        let s2 = db.begin_read().unwrap();
        assert_eq!(s1.catalog_gen(), s2.catalog_gen());
        reader.db().stats.reset();
        let rs = reader
            .bind(&s2)
            .query("SELECT data FROM t WHERE _id = ?1", &[Value::Integer(4)])
            .unwrap();
        assert_eq!(rs.rows[0][0], Value::Text("d".into()));
        assert_eq!(reader.db().stats.stmt_cache_hits.get(), 1, "no re-parse across retarget");
        assert_eq!(reader.db().stats.stmt_cache_misses.get(), 0);
        // DDL bumps the generation; the reader re-clones the catalog.
        db.execute_batch("CREATE VIEW v AS SELECT data FROM t WHERE _id > 2").unwrap();
        let s3 = db.begin_read().unwrap();
        assert_ne!(s3.catalog_gen(), s2.catalog_gen());
        let rs = reader.bind(&s3).query("SELECT data FROM v ORDER BY data", &[]).unwrap();
        assert_eq!(rs.rows.len(), 2);
    }

    #[test]
    fn paged_tables_suppress_snapshots() {
        use maxoid_block::MemDevice;
        let mut db = seeded();
        assert!(db.begin_read().is_some());
        let tier = crate::heap::HeapTier::new(Box::new(MemDevice::with_sector_size(64)), 2);
        db.attach_heap(tier, 0);
        assert!(db.table("t").unwrap().is_paged());
        assert!(db.begin_read().is_none(), "paged rows cannot be aliased lock-free");
    }
}
