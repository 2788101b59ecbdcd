//! Transaction tests: BEGIN/COMMIT/ROLLBACK through SQL and the API.

use maxoid_block::{MemDevice, SpillTier};
use maxoid_sqldb::{Database, SqlError, Value};

fn seeded() -> Database {
    let mut db = Database::new();
    db.execute_batch(
        "CREATE TABLE t (_id INTEGER PRIMARY KEY, v TEXT);
         INSERT INTO t (v) VALUES ('a'), ('b');",
    )
    .unwrap();
    db
}

fn count(db: &Database) -> i64 {
    db.query("SELECT count(*) FROM t", &[]).unwrap().scalar().unwrap().as_integer().unwrap()
}

/// Each table's secondary index names, by table.
fn index_names(db: &Database) -> Vec<(String, Vec<String>)> {
    db.table_names()
        .into_iter()
        .map(|name| {
            let ix = db.table(&name).unwrap().indexes().iter().map(|i| i.name().to_string());
            (name, ix.collect())
        })
        .collect()
}

#[test]
fn commit_keeps_changes() {
    let mut db = seeded();
    db.execute_batch("BEGIN; INSERT INTO t (v) VALUES ('c'); COMMIT;").unwrap();
    assert_eq!(count(&db), 3);
    assert!(!db.in_transaction());
}

/// One ROLLBACK undoes every kind of table-level change at once, on a
/// resident database and on one whose tables all page to the heap.
#[test]
fn rollback_restores_data_and_schema() {
    for paged in [false, true] {
        let mut db = Database::new();
        if paged {
            db.attach_heap(SpillTier::new(Box::new(MemDevice::new()), 2), 0);
        }
        db.execute_batch(
            "CREATE TABLE t (_id INTEGER PRIMARY KEY, v TEXT, n INTEGER);
             INSERT INTO t (v, n) VALUES ('a', 1), ('b', 2);
             CREATE INDEX ix_t_n ON t (n);
             CREATE TABLE gone (_id INTEGER PRIMARY KEY, w TEXT);
             INSERT INTO gone (w) VALUES ('x'), ('y');
             CREATE INDEX ix_gone_w ON gone (w);
             CREATE TABLE other (_id INTEGER PRIMARY KEY, w TEXT);
             INSERT INTO other (w) VALUES ('kept');",
        )
        .unwrap();
        assert_eq!(db.table("t").unwrap().is_paged(), paged);
        let dump = db.dump_sql();
        let indexes = index_names(&db);

        db.execute_batch(
            "BEGIN TRANSACTION;
             INSERT INTO t (v, n) VALUES ('c', 3);
             UPDATE t SET v = 'zzz' WHERE _id = 1;
             DELETE FROM t WHERE _id = 2;
             CREATE INDEX ix_t_v ON t (v);
             DROP INDEX ix_t_n;
             ALTER TABLE t ROWID START 500;
             DROP TABLE gone;
             CREATE TABLE extra (_id INTEGER PRIMARY KEY);
             CREATE TABLE brief (_id INTEGER PRIMARY KEY, w TEXT);
             INSERT INTO brief (w) VALUES ('tmp');
             DROP TABLE brief;
             CREATE VIEW tv AS SELECT v FROM t;
             ROLLBACK;",
        )
        .unwrap();

        assert_eq!(db.dump_sql(), dump, "paged={paged}");
        assert_eq!(index_names(&db), indexes, "paged={paged}");
        assert_eq!(db.table_names(), ["gone", "other", "t"]);
        assert!(!db.has_view("tv"));
        let rs = db.query("SELECT v FROM t WHERE _id = 1", &[]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Text("a".into())]]);
        // The restored tables keep working, their indexes included.
        let id = db.execute("INSERT INTO t (v, n) VALUES ('d', 4)", &[]).unwrap().last_insert_id;
        assert_eq!(id, Some(3), "the rowid floor is back to its BEGIN value");
        db.stats.reset();
        let rs = db.query("SELECT w FROM gone WHERE w = 'y'", &[]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Text("y".into())]]);
        assert_eq!(db.stats.index_probes.get(), 1, "the dropped table's index is back");
    }
}

#[test]
fn end_is_commit_alias() {
    let mut db = seeded();
    db.execute_batch("BEGIN; DELETE FROM t; END;").unwrap();
    assert_eq!(count(&db), 0);
}

#[test]
fn nested_begin_rejected() {
    let mut db = seeded();
    db.execute("BEGIN", &[]).unwrap();
    let err = db.execute("BEGIN", &[]).unwrap_err();
    assert!(matches!(err, SqlError::Unsupported(_)));
    db.execute("ROLLBACK", &[]).unwrap();
}

#[test]
fn commit_rollback_without_tx_rejected() {
    let mut db = seeded();
    assert!(db.execute("COMMIT", &[]).is_err());
    assert!(db.execute("ROLLBACK", &[]).is_err());
}

#[test]
fn queries_inside_tx_see_uncommitted_writes() {
    let mut db = seeded();
    db.execute("BEGIN", &[]).unwrap();
    db.execute("INSERT INTO t (v) VALUES ('c')", &[]).unwrap();
    assert_eq!(count(&db), 3);
    db.execute("ROLLBACK", &[]).unwrap();
    assert_eq!(count(&db), 2);
}

#[test]
fn rollback_restores_auto_increment_state() {
    let mut db = seeded();
    db.execute("BEGIN", &[]).unwrap();
    let id = db.execute("INSERT INTO t (v) VALUES ('c')", &[]).unwrap().last_insert_id.unwrap();
    assert_eq!(id, 3);
    db.execute("ROLLBACK", &[]).unwrap();
    // After rollback the same id is handed out again (SQLite behaviour
    // without AUTOINCREMENT).
    let id = db.execute("INSERT INTO t (v) VALUES ('d')", &[]).unwrap().last_insert_id.unwrap();
    assert_eq!(id, 3);
}

#[test]
fn trigger_effects_roll_back_too() {
    let mut db = Database::new();
    db.execute_batch(
        "CREATE TABLE base (_id INTEGER PRIMARY KEY, v TEXT);
         CREATE TABLE audit (_id INTEGER PRIMARY KEY, what TEXT);
         CREATE VIEW bv AS SELECT _id, v FROM base;
         CREATE TRIGGER bv_ins INSTEAD OF INSERT ON bv BEGIN
           INSERT INTO base (v) VALUES (NEW.v);
           INSERT INTO audit (what) VALUES (NEW.v);
         END;",
    )
    .unwrap();
    db.execute_batch("BEGIN; INSERT INTO bv (v) VALUES ('x'); ROLLBACK;").unwrap();
    let n = db.query("SELECT count(*) FROM audit", &[]).unwrap();
    assert_eq!(n.scalar(), Some(&Value::Integer(0)));
}

/// A heap attached inside a transaction: ROLLBACK brings every table back
/// as it was at BEGIN (rows, indexes, resident), and COMMIT keeps them
/// paged.
#[test]
fn attach_heap_inside_a_transaction_rolls_back_or_commits() {
    for commit in [false, true] {
        let mut db = Database::new();
        db.execute_batch(
            "CREATE TABLE t (_id INTEGER PRIMARY KEY, v TEXT, n INTEGER);
             INSERT INTO t (v, n) VALUES ('a', 1), ('b', 2);
             CREATE INDEX ix_t_n ON t (n);
             CREATE TABLE u (_id INTEGER PRIMARY KEY, w TEXT);
             INSERT INTO u (w) VALUES ('x');",
        )
        .unwrap();
        let (dump, indexes) = (db.dump_sql(), index_names(&db));
        db.begin().unwrap();
        db.attach_heap(SpillTier::new(Box::new(MemDevice::new()), 2), 0);
        assert!(db.table_names().iter().all(|n| db.table(n).unwrap().is_paged()));
        if commit { db.commit() } else { db.rollback() }.unwrap();
        assert_eq!(db.dump_sql(), dump, "commit={commit}");
        assert_eq!(index_names(&db), indexes, "commit={commit}");
        for name in db.table_names() {
            assert_eq!(db.table(&name).unwrap().is_paged(), commit, "{name}, commit={commit}");
        }
        db.stats.reset();
        let rs = db.query("SELECT v FROM t WHERE n = 2", &[]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Text("b".into())]]);
        assert_eq!(db.stats.index_probes.get(), 1, "commit={commit}");
    }
}

/// ROLLBACK of a transaction that attached a heap detaches it again: a
/// table created afterwards stays resident like the restored ones, and
/// snapshots are published again. A heap that outlived the rollback would
/// page the new table and leave the old one resident for good.
#[test]
fn rollback_detaches_a_heap_attached_inside_the_transaction() {
    let mut db = Database::new();
    db.execute_batch("CREATE TABLE t (_id INTEGER PRIMARY KEY, v TEXT)").unwrap();
    db.begin().unwrap();
    db.attach_heap(SpillTier::new(Box::new(MemDevice::new()), 2), 0);
    db.rollback().unwrap();
    db.execute_batch("CREATE TABLE u (_id INTEGER PRIMARY KEY, v TEXT)").unwrap();
    for i in 0..50 {
        for table in ["t", "u"] {
            db.execute(&format!("INSERT INTO {table} (v) VALUES (?)"), &[Value::Integer(i)])
                .unwrap();
        }
    }
    for table in ["t", "u"] {
        assert!(!db.table(table).unwrap().is_paged(), "{table} is paged");
        assert_eq!(db.table(table).unwrap().len(), 50);
    }
    assert!(db.begin_read().is_some(), "a database with no heap publishes snapshots");
}

/// A paged table stays paged while a transaction changes it and after
/// COMMIT, and ROLLBACK restores its rows.
#[test]
fn a_paged_table_stays_paged_through_a_transaction() {
    let mut db = Database::new();
    db.attach_heap(SpillTier::new(Box::new(MemDevice::new()), 2), 0);
    db.execute_batch(
        "CREATE TABLE t (_id INTEGER PRIMARY KEY, v TEXT);
         INSERT INTO t (v) VALUES ('a'), ('b');",
    )
    .unwrap();
    let paged = |db: &Database| db.table("t").unwrap().is_paged();
    assert!(paged(&db));
    let dump = db.dump_sql();
    db.execute_batch("BEGIN; INSERT INTO t (v) VALUES ('c'); UPDATE t SET v = 'z' WHERE _id = 1;")
        .unwrap();
    assert!(paged(&db), "the live table stays paged inside the transaction");
    db.rollback().unwrap();
    assert_eq!(db.dump_sql(), dump);
    db.execute("INSERT INTO t (v) VALUES ('d')", &[]).unwrap();
    assert!(paged(&db));
    db.execute_batch("BEGIN; DELETE FROM t WHERE _id = 2; COMMIT;").unwrap();
    assert!(paged(&db));
    let rs = db.query("SELECT v FROM t ORDER BY _id", &[]).unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Text("a".into())], vec![Value::Text("d".into())]]);
}

#[test]
fn a_row_inserted_through_table_mut_is_gone_after_rollback() {
    let mut db = seeded();
    db.begin().unwrap();
    db.table_mut("t").unwrap().insert(vec![Value::Null, "c".into()], false).unwrap();
    assert_eq!(count(&db), 3);
    db.rollback().unwrap();
    assert_eq!(count(&db), 2);
}
