//! Multiversion concurrency control: the published-snapshot machinery
//! behind [`Database::begin_read`].
//!
//! The design exploits one structural fact: a [`Database`] is only ever
//! mutated by its single owner (the write-lock holder), and snapshots are
//! published exclusively at *committed, quiescent* points. The catalog is
//! copy-on-write at every level: the table, view and trigger maps, each
//! table in them, each table's rowid map and each row sit behind `Arc`s.
//! A snapshot is the live catalog's three map `Arc`s, so publishing
//! copies nothing, and the rows a snapshot sees *are* the committed rows
//! at its stamp. Visibility is map membership, which keeps the snapshot
//! read path byte-for-byte the same cost as an ordinary read.
//!
//! Writes stay cheap in the presence of live snapshots without version
//! chains: a write privatizes the table map, then the table, then its
//! rowid map (`Arc::make_mut`, each copying entries, never rows), and
//! replaces the row's entry. Paged tables are no exception: their rowid
//! map holds each row's heap page by `Arc`, and a page's bytes never
//! change while a snapshot holds it. Old maps, tables and rows are reclaimed by
//! reference counting when the last snapshot that sees them drops;
//! nothing tracks which snapshots are live, and no background thread is
//! involved.
//!
//! [`Database::begin_read`]: crate::Database::begin_read

use crate::db::{Catalog, Database};
use crate::planner::FlattenPolicy;
use std::sync::Arc;

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

/// An immutable, shareable view of a whole database at one commit stamp:
/// the live catalog's maps, shared by `Arc`, plus what a reader needs to
/// plan read-only statements the way the writer would.
#[derive(Debug)]
pub(crate) struct DbSnapshot {
    pub(crate) stamp: u64,
    pub(crate) catalog_gen: u64,
    pub(crate) flatten_policy: FlattenPolicy,
    pub(crate) catalog: Catalog,
}

// The whole point: a snapshot can be handed to reader threads while the
// writer keeps mutating. Everything inside is either plain immutable data
// or `Arc`-shared.
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
/// Internally this is a thin private [`Database`] whose catalog is the
/// bound snapshot's: a rebind takes the snapshot's three map `Arc`s as
/// its own, so it is O(1) however many tables, views and triggers the
/// database holds, and every read (`table_names`, `dump_sql` included)
/// sees the bound stamp. Its statement cache, with the plan each entry
/// holds, persists across rebinds; a rebind to another catalog generation
/// makes the plans stale, so steady-state snapshot reads pay no re-parse
/// or re-plan cost.
///
/// A reader must only ever be bound to snapshots of one logical database
/// (stamps from different databases are not comparable). One reader per
/// thread per authority is the intended shape.
///
/// A bound reader holds its snapshot's maps, so a write to the live
/// database copies the map it changes away from them. A reader that runs
/// one query at a time lets go of them with [`SnapshotReader::release`]
/// when the query returns; the caches survive, and the next bind costs
/// three reference counts.
#[derive(Debug, Default)]
pub struct SnapshotReader {
    db: Database,
    stamp: Option<u64>,
    catalog_gen: Option<u64>,
    /// Empty maps the reader holds while released, made once so a release
    /// allocates nothing.
    empty: Catalog,
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
            self.db.catalog = s.catalog.clone();
            self.db.flatten_policy = s.flatten_policy;
            if self.catalog_gen != Some(s.catalog_gen) {
                // Built plans were made against another catalog.
                self.db.bump_catalog_generation();
            }
            self.stamp = Some(s.stamp);
            self.catalog_gen = Some(s.catalog_gen);
        }
        &self.db
    }

    /// Lets go of the bound snapshot: the reader holds empty maps until the
    /// next [`SnapshotReader::bind`], so a write that follows copies no map
    /// for it. The statement cache, its plans and the catalog generation
    /// are kept, so a rebind to a snapshot of the same generation keeps
    /// every plan.
    pub fn release(&mut self) {
        self.db.catalog = self.empty.clone();
        self.stamp = None;
    }

    /// The underlying read-only database view (last bound snapshot, or
    /// empty maps after a release).
    pub fn db(&self) -> &Database {
        &self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::tests::{same_maps, table_map};
    use crate::table::tests::same_rows;
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

    /// Publication and a rebind copy nothing: the snapshot holds the live
    /// database's maps, and a bound reader holds the snapshot's.
    #[test]
    fn snapshots_and_bound_readers_share_the_live_maps() {
        let mut db = seeded();
        db.execute_batch(
            "CREATE VIEW tv AS SELECT _id, data FROM t;
             CREATE TRIGGER tv_del INSTEAD OF DELETE ON tv BEGIN
               DELETE FROM t WHERE _id = OLD._id;
             END;",
        )
        .unwrap();
        let snap = db.begin_read().unwrap();
        assert_eq!(same_maps(&snap.snap.catalog, &db.catalog), [true; 3]);
        let mut reader = SnapshotReader::new();
        reader.bind(&snap);
        assert_eq!(same_maps(&reader.db.catalog, &snap.snap.catalog), [true; 3]);
        // A write copies the table map away from the snapshot; the next
        // publication and rebind share the new one.
        db.execute("DELETE FROM tv WHERE _id = 1", &[]).unwrap();
        assert_eq!(same_maps(&snap.snap.catalog, &db.catalog), [false, true, true]);
        let next = db.begin_read().unwrap();
        assert_eq!(same_maps(&reader.bind(&next).catalog, &db.catalog), [true; 3]);
        let rs = reader.db().query("SELECT count(*) FROM tv", &[]).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Integer(2)));
    }

    /// A reader that lets go of its snapshot when its query returns
    /// leaves the live maps unshared: the next write changes the table map
    /// in place, and the rebound reader keeps its plans. A reader still
    /// bound makes the same write copy the map away from it.
    #[test]
    fn a_write_after_a_released_readers_query_copies_no_map() {
        let mut db = seeded();
        let mut reader = SnapshotReader::new();
        let sql = "SELECT data FROM t WHERE _id = ?1";
        for (i, release) in [true, true, false].into_iter().enumerate() {
            let snap = db.begin_read().unwrap();
            reader.db().stats.reset();
            let rs = reader.bind(&snap).query(sql, &[Value::Integer(1)]).unwrap();
            assert_eq!(rs.rows.len(), 1);
            if i > 0 {
                let stats = &reader.db().stats;
                assert_eq!(stats.stmt_cache_hits.get(), 1, "no re-parse after a release");
                assert_eq!(stats.plan_cache_misses.get(), 0, "no re-plan after a release");
            }
            if release {
                reader.release();
                assert!(reader.db().table_names().is_empty());
            }
            drop(snap);
            let before = table_map(&db.catalog);
            db.execute("UPDATE t SET data = ?1 WHERE _id = 1", &[Value::Integer(i as i64)])
                .unwrap();
            let copied = !std::ptr::eq(before, table_map(&db.catalog));
            assert_eq!(copied, !release, "write {i}: release={release}");
        }
    }

    /// Every read of a bound reader sees the bound stamp: its table list
    /// and row dump are the live database's at that stamp.
    #[test]
    fn a_bound_reader_lists_what_it_reads() {
        let mut db = seeded();
        db.execute_batch("CREATE TABLE u (_id INTEGER PRIMARY KEY, w TEXT)").unwrap();
        let (names, dump) = (db.table_names(), db.dump_sql());
        let snap = db.begin_read().unwrap();
        db.execute_batch("DROP TABLE u; INSERT INTO t (data) VALUES ('d')").unwrap();
        let mut reader = SnapshotReader::new();
        let bound = reader.bind(&snap);
        assert!(bound.has_table("t") && bound.has_table("u"));
        assert_eq!(bound.table_names(), names);
        assert_eq!(bound.dump_sql(), dump);
    }

    /// A database with a paged table publishes snapshots like any other:
    /// the snapshot shares the live paged rows, and keeps reading the rows
    /// of its stamp while the writer changes them.
    #[test]
    fn paged_tables_publish_snapshots() {
        use maxoid_block::{MemDevice, SpillTier};
        let mut db = seeded();
        db.attach_heap(SpillTier::new(Box::new(MemDevice::with_sector_size(64)), 2), 0);
        assert!(db.table("t").unwrap().is_paged());
        let snap = db.begin_read().expect("a paged database publishes snapshots");
        let mut reader = SnapshotReader::new();
        let t = reader.bind(&snap).table("t").unwrap();
        assert!(t.is_paged() && same_rows(t, db.table("t").unwrap()));
        db.execute("UPDATE t SET data = 'X' WHERE _id = 1", &[]).unwrap();
        db.execute("DELETE FROM t WHERE _id = 2", &[]).unwrap();
        let sql = "SELECT data FROM t ORDER BY _id";
        let rs = reader.bind(&snap).query(sql, &[]).unwrap();
        let got: Vec<&Value> = rs.rows.iter().map(|r| &r[0]).collect();
        assert_eq!(got, [&Value::from("a"), &Value::from("b"), &Value::from("c")]);
        let live = db.query(sql, &[]).unwrap();
        assert_eq!(live.rows, vec![vec![Value::from("X")], vec![Value::from("c")]]);
    }
}
