//! Readers that share the live catalog: [`SnapshotReader`].
//!
//! A database is shared the way SQLite shares one: a writer holds its
//! authority's lock exclusively, readers hold it shared. The catalog is
//! copy-on-write at every level (the table, view and trigger maps, each
//! table in them, each table's rowid map and each row sit behind `Arc`s),
//! so a reader thread binds the live catalog by cloning its three map
//! `Arc`s, runs its query on its own statement cache, and lets go of the
//! maps before its shared guard drops. A writer, which waits for every
//! shared guard, therefore finds no map a reader holds, and changes the
//! maps in place (`Arc::make_mut` copies only what something else still
//! holds: an open transaction's BEGIN image). Old rows are reclaimed by
//! reference counting when the last holder drops them; nothing tracks
//! readers, and no background thread is involved.

use crate::db::{Catalog, Database, Stats};
use std::sync::Arc;

/// Point-in-time MVCC counters, from [`Database::mvcc_stats`].
///
/// [`Database::mvcc_stats`]: crate::Database::mvcc_stats
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MvccStats {
    /// Snapshots published: always 0, since readers bind the live catalog
    /// instead. Kept because the repository benchmark reads it.
    pub snapshots_published: u64,
}

/// A reusable executor for read-only statements against a live
/// [`Database`] that the caller holds shared.
///
/// Internally this is a thin private [`Database`]: [`SnapshotReader::bind`]
/// takes the live database's three catalog map `Arc`s as its own, so a
/// bind is O(1) however many tables, views and triggers the database
/// holds, and every read (`table_names`, `dump_sql` included) sees the
/// live catalog as bound. Its statement cache, with the plan each entry
/// holds, persists across binds; a bind under another catalog generation
/// makes the plans stale, so steady-state reads pay no re-parse or
/// re-plan and share no cache with other threads. A bind also follows
/// the live database's cache switch ([`Database::set_statement_caches`]).
/// The reader counts privately while its query runs and adds its counts
/// to the live database's [`Database::stats`] when it lets go of the
/// maps, so the live stats count every query whichever thread ran it,
/// and a traced statement's counter deltas are its own.
///
/// A reader must only ever be bound to one database (catalog generations
/// of different databases are not comparable). One reader per thread per
/// authority is the intended shape.
///
/// A bound reader holds the live maps, so a write would copy the map it
/// changes away from them. The reader lets go of them with
/// [`SnapshotReader::release`] when its query returns, before the shared
/// guard it was bound under drops; the caches survive, and the next bind
/// costs three reference counts.
#[derive(Debug, Default)]
pub struct SnapshotReader {
    db: Database,
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

    /// Binds the reader to `live`'s catalog, flatten policy, cache switch
    /// and counters, and returns the database view to run `query()`
    /// against.
    pub fn bind(&mut self, live: &Database) -> &Database {
        self.db.catalog = live.catalog.clone();
        self.db.flatten_policy = live.flatten_policy;
        if !self.db.stats.sinks_into(&live.stats) {
            self.db.stats = Arc::new(Stats::sinking_into(&live.stats));
        }
        let caches = live.statement_caches_enabled();
        if self.db.statement_caches_enabled() != caches {
            self.db.set_statement_caches(caches);
        }
        let gen = live.catalog_generation();
        if self.catalog_gen != Some(gen) {
            // Built plans were made against another catalog.
            self.db.bump_catalog_generation();
            self.catalog_gen = Some(gen);
        }
        &self.db
    }

    /// Lets go of the bound catalog: the reader holds empty maps until the
    /// next [`SnapshotReader::bind`], so a write that follows copies no map
    /// for it, and adds its counts to the live database's stats. The
    /// statement cache, its plans and the catalog generation are kept, so
    /// a rebind under the same generation keeps every plan.
    pub fn release(&mut self) {
        self.db.catalog = self.empty.clone();
        self.db.stats.flush();
    }

    /// The underlying read-only database view (the bound catalog, or empty
    /// maps after a release).
    pub fn db(&self) -> &Database {
        &self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::tests::{same_maps, table_map};
    use crate::table::tests::{row_map, same_rows};
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
    fn snapshot_reader_keeps_plans_across_data_retargets() {
        let mut db = seeded();
        let mut reader = SnapshotReader::new();
        let sql = "SELECT data FROM t WHERE _id = ?1";
        reader.bind(&db).query(sql, &[Value::Integer(1)]).unwrap();
        let gen = db.catalog_generation();
        db.execute("INSERT INTO t (data) VALUES ('d')", &[]).unwrap();
        assert_eq!(db.catalog_generation(), gen, "a data change keeps the generation");
        reader.db().stats.reset();
        let rs = reader.bind(&db).query(sql, &[Value::Integer(4)]).unwrap();
        assert_eq!(rs.rows[0][0], Value::Text("d".into()));
        assert_eq!(reader.db().stats.stmt_cache_hits.get(), 1, "no re-parse across a rebind");
        assert_eq!(reader.db().stats.plan_cache_hits.get(), 1, "no re-plan across a rebind");
        assert_eq!(reader.db().stats.stmt_cache_misses.get(), 0);
        // DDL bumps the generation; the next bind plans again.
        db.execute_batch("CREATE VIEW v AS SELECT data FROM t WHERE _id > 2").unwrap();
        let rs = reader.bind(&db).query("SELECT data FROM v ORDER BY data", &[]).unwrap();
        assert_eq!(rs.rows.len(), 2);
        reader.db().stats.reset();
        reader.bind(&db).query(sql, &[Value::Integer(1)]).unwrap();
        assert_eq!(reader.db().stats.plan_cache_misses.get(), 1, "planned under the new catalog");
    }

    /// A bind copies nothing: a bound reader holds the live database's
    /// maps, and after a release a write changes them in place.
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
        let mut reader = SnapshotReader::new();
        assert_eq!(same_maps(&reader.bind(&db).catalog, &db.catalog), [true; 3]);
        reader.release();
        assert_eq!(same_maps(&reader.db.catalog, &db.catalog), [false; 3]);
        let before = table_map(&db.catalog);
        db.execute("DELETE FROM tv WHERE _id = 1", &[]).unwrap();
        assert!(std::ptr::eq(before, table_map(&db.catalog)), "the write copied the table map");
        assert_eq!(same_maps(&reader.bind(&db).catalog, &db.catalog), [true; 3]);
        let rs = reader.db().query("SELECT count(*) FROM tv", &[]).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Integer(2)));
    }

    /// A reader that lets go of the maps when its query returns leaves
    /// them unshared: the next write changes the table map in place, and
    /// the rebound reader keeps its plans. A reader still bound makes the
    /// same write copy the map away from it.
    #[test]
    fn a_write_after_a_released_readers_query_copies_no_map() {
        let mut db = seeded();
        let mut reader = SnapshotReader::new();
        let sql = "SELECT data FROM t WHERE _id = ?1";
        for (i, release) in [true, true, false].into_iter().enumerate() {
            reader.db().stats.reset();
            let rs = reader.bind(&db).query(sql, &[Value::Integer(1)]).unwrap();
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
            let before = table_map(&db.catalog);
            db.execute("UPDATE t SET data = ?1 WHERE _id = 1", &[Value::Integer(i as i64)])
                .unwrap();
            let copied = !std::ptr::eq(before, table_map(&db.catalog));
            assert_eq!(copied, !release, "write {i}: release={release}");
        }
    }

    /// A reader runs as the live database is switched and counts into its
    /// stats: with the live caches off, every query parses afresh and
    /// counts no hit; back on, a repeat hits.
    #[test]
    fn a_reader_follows_the_live_cache_switch_and_counts_into_its_stats() {
        let db = seeded();
        let mut reader = SnapshotReader::new();
        let sql = "SELECT data FROM t WHERE _id = 1";
        db.set_statement_caches(false);
        for _ in 0..3 {
            reader.bind(&db).query(sql, &[]).unwrap();
            reader.release();
        }
        let hits = |db: &Database| (db.stats.stmt_cache_hits.get(), db.stats.plan_cache_hits.get());
        assert_eq!(hits(&db), (0, 0), "a cache-off reader parses every query");
        assert_eq!(db.stats.stmt_cache_misses.get(), 0, "and caches nothing");
        db.set_statement_caches(true);
        for _ in 0..3 {
            reader.bind(&db).query(sql, &[]).unwrap();
            reader.release();
        }
        assert_eq!(hits(&db), (2, 2), "the live stats count the reader's hits");
        assert_eq!(db.stats.stmt_cache_misses.get(), 1);
    }

    /// Every read of a bound reader sees the catalog it was bound to: its
    /// table list and row dump are the live database's, and a released
    /// reader lists nothing.
    #[test]
    fn a_bound_reader_lists_what_it_reads() {
        let mut db = seeded();
        db.execute_batch("CREATE TABLE u (_id INTEGER PRIMARY KEY, w TEXT)").unwrap();
        let mut reader = SnapshotReader::new();
        let bound = reader.bind(&db);
        assert!(bound.has_table("t") && bound.has_table("u"));
        assert_eq!(bound.table_names(), db.table_names());
        assert_eq!(bound.dump_sql(), db.dump_sql());
        reader.release();
        assert!(reader.db().table_names().is_empty() && reader.db().dump_sql().is_empty());
    }

    /// Two threads query through readers bound under a shared lock, one
    /// query failing on a missing column; each reader lets go of the maps
    /// before its guard drops and lives on past the write. The exclusive
    /// update that follows then changes the table map and the row's rowid
    /// map in place, on a resident table and on a paged one.
    #[test]
    fn a_write_after_shared_readers_changes_the_maps_in_place() {
        use maxoid_block::{MemDevice, SpillTier};
        use std::sync::RwLock;
        for paged in [false, true] {
            let mut db = seeded();
            if paged {
                db.attach_heap(SpillTier::new(Box::new(MemDevice::with_sector_size(64)), 2), 0);
            }
            assert_eq!(db.table("t").unwrap().is_paged(), paged);
            let lock = RwLock::new(db);
            let readers: Vec<SnapshotReader> = std::thread::scope(|s| {
                let threads: Vec<_> = ["SELECT data FROM t WHERE _id = 1", "SELECT nope FROM t"]
                    .into_iter()
                    .map(|sql| {
                        let lock = &lock;
                        s.spawn(move || {
                            let mut reader = SnapshotReader::new();
                            for _ in 0..50 {
                                let live = lock.read().unwrap();
                                let rs = reader.bind(&live).query(sql, &[]);
                                assert!(same_rows(
                                    reader.db.table("t").unwrap(),
                                    live.table("t").unwrap()
                                ));
                                reader.release();
                                drop(live);
                                if sql.contains("nope") {
                                    assert!(rs.is_err(), "{rs:?}");
                                } else {
                                    assert_eq!(rs.unwrap().rows, vec![vec![Value::from("a")]]);
                                }
                            }
                            reader
                        })
                    })
                    .collect();
                threads.into_iter().map(|t| t.join().unwrap()).collect()
            });
            let mut db = lock.write().unwrap();
            let before = (table_map(&db.catalog), row_map(db.table("t").unwrap()));
            db.execute("UPDATE t SET data = 'X' WHERE _id = 1", &[]).unwrap();
            let after = (table_map(&db.catalog), row_map(db.table("t").unwrap()));
            assert_eq!(before, after, "paged={paged}: the write copied a map");
            assert_eq!(db.table("t").unwrap().is_paged(), paged);
            drop(readers);
        }
    }
}
