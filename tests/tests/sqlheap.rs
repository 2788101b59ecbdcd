//! Paged row heap: residency is invisible to SQL, and one device boots
//! the whole system.
//!
//! PR 8 moved sqldb row payloads onto the block tier behind `PageCache`.
//! Like the VFS spill in PR 7, the move is only allowed to change *where*
//! bytes live, never *what* a query observes. This file pins that
//! contract at the layers above the heap:
//!
//! - **Backend equivalence** (proptest): the same randomized SQL workload
//!   — inserts, updates, deletes, point probes, scans, index DDL,
//!   BEGIN/ROLLBACK/COMMIT and DDL inside transactions — applied to a
//!   resident database and a paged one (threshold 0, two-frame cache:
//!   maximal eviction pressure) produces identical results, errors,
//!   `dump_sql()` images and planner counters. A replay leg re-executes
//!   the paged database's journal image into a fresh resident database
//!   and must converge to the same rows.
//! - **COW transparency**: a `CowProxy` adopted over a paged database
//!   forks delta tables that inherit the heap tier, and delegates see
//!   exactly what they would see over a resident base. The fork itself
//!   is DDL only and does no heap I/O, however large the base table, and
//!   a transaction's first write reads only the row it changes.
//! - **Single-device cold boot**: `MaxoidSystem::boot_from_device`
//!   partitions one block image for WAL + VFS spill + row heap; a system
//!   is seeded, dropped, and rebooted from the device alone, with
//!   provider rows served back out of paged tables.

use maxoid::manifest::MaxoidManifest;
use maxoid::{Caller, ContentValues, DeviceBootConfig, MaxoidSystem, QueryArgs, Uri};
use maxoid_block::{FileDevice, MemDevice, SpillTier};
use maxoid_cowproxy::{delta_table, CowProxy, DbView, QueryOpts};
use maxoid_sqldb::{Database, Value};
use proptest::prelude::*;

/// A heap tier over a fresh in-memory device with a tiny frame budget, so
/// any non-trivial working set thrashes the cache.
fn tiny_tier(pages: usize) -> SpillTier {
    SpillTier::new(Box::new(MemDevice::new()), pages)
}

/// Deterministic text payload; contents depend on (seed, len) only.
fn body(seed: u8, len: u16) -> String {
    (0..len as usize).map(|k| char::from(b'a' + (seed as usize + k) as u8 % 26)).collect()
}

fn fresh_db(paged: bool) -> Database {
    let mut db = Database::new();
    if paged {
        // Threshold 0: the table pages out on the very first insert.
        db.attach_heap(tiny_tier(2), 0);
    }
    db.execute_batch("CREATE TABLE t (_id INTEGER PRIMARY KEY, k INTEGER, body TEXT);").unwrap();
    db
}

/// A step of the randomized SQL workload. Payload lengths straddle both
/// the heap page size boundary region and the tiny two-frame budget.
#[derive(Debug, Clone)]
enum Op {
    Insert(u8, u16),
    Update(u8, u16),
    Delete(u8),
    Probe(u8),
    Scan,
    Index,
    TxnRollback(u8, u16),
    TxnCommit(u8, u16),
    TxnDdl(u8, bool),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 0..3000u16).prop_map(|(k, n)| Op::Insert(k, n)),
        (any::<u8>(), 0..3000u16).prop_map(|(k, n)| Op::Insert(k, n)),
        (any::<u8>(), 0..3000u16).prop_map(|(k, n)| Op::Update(k, n)),
        any::<u8>().prop_map(Op::Delete),
        any::<u8>().prop_map(Op::Probe),
        Just(Op::Scan),
        Just(Op::Index),
        (any::<u8>(), 0..1500u16).prop_map(|(k, n)| Op::TxnRollback(k, n)),
        (any::<u8>(), 0..1500u16).prop_map(|(k, n)| Op::TxnCommit(k, n)),
        (any::<u8>(), any::<bool>()).prop_map(|(k, commit)| Op::TxnDdl(k, commit)),
    ]
}

/// Applies one op and renders the outcome (rows, affected counts or the
/// error) as a comparable string, so backends must also fail identically.
fn apply(db: &mut Database, op: &Op) -> String {
    match op {
        Op::Insert(k, n) => format!(
            "{:?}",
            db.execute(
                "INSERT INTO t (k, body) VALUES (?, ?)",
                &[Value::Integer(*k as i64 % 16), Value::Text(body(*k, *n))],
            )
        ),
        Op::Update(k, n) => format!(
            "{:?}",
            db.execute(
                "UPDATE t SET body = ? WHERE k = ?",
                &[Value::Text(body(k.wrapping_add(1), *n)), Value::Integer(*k as i64 % 16)],
            )
        ),
        Op::Delete(k) => format!(
            "{:?}",
            db.execute("DELETE FROM t WHERE k = ?", &[Value::Integer(*k as i64 % 16)])
        ),
        Op::Probe(k) => format!(
            "{:?}",
            db.query(
                "SELECT _id, k, body FROM t WHERE k = ? ORDER BY _id",
                &[Value::Integer(*k as i64 % 16)],
            )
        ),
        Op::Scan => format!("{:?}", db.query("SELECT _id, k, body FROM t ORDER BY _id", &[])),
        // Duplicate CREATE INDEX must error the same way on both sides.
        Op::Index => format!("{:?}", db.execute("CREATE INDEX ix_k ON t (k)", &[])),
        Op::TxnRollback(k, n) => {
            // Mutate a paged table inside a transaction (the first
            // change copies its pre-image into memory), roll back, and
            // make sure the restored table still answers.
            let a = format!("{:?}", db.begin());
            let b = apply(db, &Op::Insert(*k, *n));
            let c = format!("{:?}", db.rollback());
            let d = apply(db, &Op::Probe(*k));
            format!("{a}/{b}/{c}/{d}")
        }
        Op::TxnCommit(k, n) => {
            let a = format!("{:?}", db.begin());
            let b = apply(db, &Op::Insert(*k, *n));
            let c = format!("{:?}", db.commit());
            format!("{a}/{b}/{c}")
        }
        Op::TxnDdl(k, commit) => {
            // Table and index DDL inside a transaction: the BEGIN image
            // keeps a dropped table, and ROLLBACK restores schema, rows
            // and the rowid floor alike.
            let a = format!("{:?}", db.begin());
            let b = format!(
                "{:?}",
                db.execute_batch(&format!(
                    "DROP TABLE IF EXISTS side;
                     {SIDE_SCHEMA}
                     INSERT INTO side (body) SELECT body FROM t WHERE k = {};
                     CREATE INDEX ix_side ON side (body);
                     DROP INDEX IF EXISTS ix_k;
                     ALTER TABLE t ROWID START {};",
                    *k as i64 % 16,
                    1000 + *k as i64,
                ))
            );
            let c = format!("{:?}", if *commit { db.commit() } else { db.rollback() });
            let d = apply(db, &Op::Probe(*k));
            let e = apply(db, &Op::Insert(*k, 40));
            format!("{a}/{b}/{c}/{d}/{e}")
        }
    }
}

/// Schema of the table `Op::TxnDdl` recreates inside its transaction.
const SIDE_SCHEMA: &str = "CREATE TABLE side (_id INTEGER PRIMARY KEY, body TEXT);";

/// Full observable image of a database: every row in order.
fn image(db: &Database) -> String {
    format!("{:?}", db.query("SELECT _id, k, body FROM t ORDER BY _id", &[]).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The structural guarantee: a paged table under maximal eviction
    /// pressure is observably a resident table — same rows, same errors,
    /// same journal image, same planner decisions.
    #[test]
    fn prop_paged_and_resident_databases_are_equivalent(
        ops in proptest::collection::vec(op(), 1..50)
    ) {
        let mut resident = fresh_db(false);
        let mut paged = fresh_db(true);

        for op in &ops {
            let a = apply(&mut resident, op);
            let b = apply(&mut paged, op);
            prop_assert_eq!(&a, &b, "paged backend diverged on {:?}", op);
        }

        prop_assert_eq!(image(&resident), image(&paged));

        // The planner must make identical decisions: residency may not
        // change access paths, only where the bytes decode from.
        prop_assert_eq!(resident.stats.rows_scanned.get(), paged.stats.rows_scanned.get());
        prop_assert_eq!(resident.stats.point_lookups.get(), paged.stats.point_lookups.get());
        prop_assert_eq!(resident.stats.index_probes.get(), paged.stats.index_probes.get());
        prop_assert_eq!(resident.stats.rows_cloned.get(), paged.stats.rows_cloned.get());

        // dump_sql is the serialization boundary (snapshots, recovery):
        // paged content must materialize to the exact resident statements.
        let dump_r = format!("{:?}", resident.dump_sql());
        let dump_p = format!("{:?}", paged.dump_sql());
        prop_assert_eq!(&dump_r, &dump_p);

        // Journal-replay leg: re-executing the paged database's dump into
        // a fresh resident database converges to the same rows, proving
        // recovery never depends on residency at dump time. (Dumps carry
        // data only; schema recovery is out-of-band, as in `durability`.)
        let mut replayed = fresh_db(false);
        if paged.has_table("side") {
            replayed.execute_batch(SIDE_SCHEMA).unwrap();
        }
        for (sql, params) in paged.dump_sql() {
            replayed.apply_journal_sql(&sql, &params).unwrap();
        }
        prop_assert_eq!(image(&replayed), image(&paged));
    }
}

/// Deterministic eviction-pressure case: a working set far beyond the
/// two-frame budget stays exact and the tier counters prove it thrashed.
#[test]
fn eviction_pressure_keeps_paged_rows_exact() {
    let tier = tiny_tier(2);
    let mut resident = fresh_db(false);
    let mut paged = Database::new();
    paged.attach_heap(tier.clone(), 0);
    paged.execute_batch("CREATE TABLE t (_id INTEGER PRIMARY KEY, k INTEGER, body TEXT);").unwrap();

    for i in 0..64u8 {
        let params = [Value::Integer(i as i64), Value::Text(body(i, 700))];
        resident.execute("INSERT INTO t (k, body) VALUES (?, ?)", &params).unwrap();
        paged.execute("INSERT INTO t (k, body) VALUES (?, ?)", &params).unwrap();
    }
    assert_eq!(image(&resident), image(&paged));

    let st = tier.stats();
    assert!(st.evictions > 0, "64 x 700B rows must thrash a 2-frame cache: {st:?}");
}

/// COW transparency: forked delta tables inherit the heap tier, and a
/// delegate's merged view over a paged base matches the resident one.
#[test]
fn cow_fork_over_a_paged_base_matches_resident() {
    let build = |paged: bool| {
        let mut db = Database::new();
        if paged {
            db.attach_heap(tiny_tier(2), 0);
        }
        db.execute_batch(
            "CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT, frequency INTEGER);",
        )
        .unwrap();
        for i in 0..48i64 {
            db.execute(
                "INSERT INTO words (word, frequency) VALUES (?, ?)",
                &[Value::Text(body(i as u8, 300)), Value::Integer(i)],
            )
            .unwrap();
        }
        CowProxy::adopt(db)
    };
    let mut resident = build(false);
    let mut paged = build(true);

    let view = DbView::Delegate { initiator: "editor".into() };
    for i in 0..12i64 {
        let a = resident
            .insert(
                &view,
                "words",
                &[
                    ("word", Value::Text(body(200 + i as u8, 200))),
                    ("frequency", Value::Integer(i)),
                ],
            )
            .unwrap();
        let b = paged
            .insert(
                &view,
                "words",
                &[
                    ("word", Value::Text(body(200 + i as u8, 200))),
                    ("frequency", Value::Integer(i)),
                ],
            )
            .unwrap();
        assert_eq!(a, b, "delta rowids must match across backends");
    }
    resident.delete(&view, "words", Some("frequency = ?"), &[Value::Integer(3)]).unwrap();
    paged.delete(&view, "words", Some("frequency = ?"), &[Value::Integer(3)]).unwrap();

    let opts = QueryOpts {
        columns: vec!["word".into(), "frequency".into()],
        order_by: Some("_id".into()),
        ..QueryOpts::default()
    };
    // The delegate's merged view and the untouched primary view agree.
    assert_eq!(
        resident.query(&view, "words", &opts, &[]).unwrap(),
        paged.query(&view, "words", &opts, &[]).unwrap(),
    );
    assert_eq!(
        resident.query(&DbView::Primary, "words", &opts, &[]).unwrap(),
        paged.query(&DbView::Primary, "words", &opts, &[]).unwrap(),
    );

    // The fork is not a loophole back into RAM: the delta table created by
    // ensure_cow inherited the heap config and paged out like its base.
    let delta = delta_table("words", "editor");
    assert!(paged.db().table(&delta).unwrap().is_paged(), "delta table must inherit the heap");
    assert!(paged.db().table("words").unwrap().is_paged(), "base table must be paged");
    assert!(!resident.db().table(&delta).unwrap().is_paged());
}

/// A COW fork creates a delta table, a view and three triggers inside one
/// transaction, so its cost must not depend on the base table's size: over
/// a paged base many times the frame budget, neither the fork nor any other
/// DDL-only transaction may read a single heap page.
#[test]
fn cow_fork_over_a_paged_base_does_no_heap_io() {
    let tier = tiny_tier(4);
    let mut db = Database::new();
    db.attach_heap(tier.clone(), 0);
    db.execute_batch(
        "CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT, frequency INTEGER);
         CREATE INDEX idx_words_frequency ON words (frequency);",
    )
    .unwrap();
    for i in 0..200i64 {
        db.execute(
            "INSERT INTO words (word, frequency) VALUES (?, ?)",
            &[Value::Text(body(i as u8, 300)), Value::Integer(i)],
        )
        .unwrap();
    }
    assert!(db.table("words").unwrap().is_paged());
    assert!(tier.stats().evictions > 0, "200 x 300B words must overflow 4 frames");
    let page_reads = |t: &SpillTier| {
        let st = t.stats();
        st.hits + st.misses
    };

    let mut proxy = CowProxy::adopt(db);
    let before = page_reads(&tier);
    proxy.ensure_cow("words", "editor").unwrap();
    assert!(proxy.has_delta("words", "editor"));
    assert_eq!(page_reads(&tier), before, "the COW fork read the paged base table");

    let db = proxy.db_mut();
    let before = page_reads(&tier);
    db.begin().unwrap();
    db.execute_batch(
        "CREATE TABLE notes (_id INTEGER PRIMARY KEY, note TEXT);
         CREATE VIEW frequent AS SELECT word FROM words WHERE frequency > 100;
         DROP TABLE notes;",
    )
    .unwrap();
    db.commit().unwrap();
    assert!(db.has_view("frequent"));
    assert_eq!(page_reads(&tier), before, "a DDL-only transaction read the paged base table");
}

/// A transaction's first write to a paged table copies the table's rowid
/// map but reads no row except the one it changes, so the heap pages it
/// touches do not grow with the table.
#[test]
fn a_transactions_first_write_reads_only_the_row_it_changes() {
    let tier = tiny_tier(4);
    let mut db = Database::new();
    db.attach_heap(tier.clone(), 0);
    db.execute_batch("CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT, frequency INTEGER);")
        .unwrap();
    for i in 0..2000i64 {
        db.execute(
            "INSERT INTO words (word, frequency) VALUES (?, ?)",
            &[Value::Text(body(i as u8, 100)), Value::Integer(i)],
        )
        .unwrap();
    }
    let page_reads = || {
        let st = tier.stats();
        st.hits + st.misses
    };
    let update = "UPDATE words SET frequency = ? WHERE _id = 7";
    for (commit, freq) in [(true, -7), (false, -8)] {
        db.begin().unwrap();
        let before = page_reads();
        db.execute(update, &[Value::Integer(freq)]).unwrap();
        let touched = page_reads() - before;
        assert!(touched <= 4, "the first write touched {touched} pages of a 2,000-row table");
        if commit {
            db.commit().unwrap();
        } else {
            db.rollback().unwrap();
        }
        let rs = db.query("SELECT frequency FROM words WHERE _id = 7", &[]).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Integer(-7)));
    }
}

const INITIATOR: &str = "initiator";

fn words_uri() -> Uri {
    Uri::parse("content://user_dictionary/words").unwrap()
}

fn query_words(sys: &MaxoidSystem) -> Vec<Vec<Value>> {
    let args = QueryArgs {
        projection: vec!["word".into(), "frequency".into()],
        sort_order: Some("_id".into()),
        ..QueryArgs::default()
    };
    sys.resolver.query(&Caller::normal(INITIATOR), &words_uri(), &args).expect("query").rows
}

/// Opens (or reopens) the single backing image at `path`.
fn device(path: &std::path::Path, fresh: bool) -> Box<dyn maxoid_block::BlockDevice> {
    let mut dev =
        if fresh { FileDevice::create(path).unwrap() } else { FileDevice::open(path).unwrap() };
    dev.set_delete_on_drop(false);
    Box::new(dev)
}

/// One file on disk is the whole machine: WAL, VFS spill tier and sqldb
/// row heap share a partitioned device, and `boot_from_device` brings the
/// system back from it alone — with provider tables re-adopted as paged.
#[test]
fn cold_boot_from_a_single_partitioned_device() {
    let path = std::env::temp_dir().join(format!("maxoid-sqlheap-boot-{}.blk", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // Tiny thresholds so provider rows page immediately and VFS payloads
    // spill; small frame budgets so the caches actually evict.
    let cfg = DeviceBootConfig {
        heap_threshold: 1,
        heap_pages: 4,
        vfs_threshold: 64,
        vfs_pages: 4,
        ..DeviceBootConfig::default()
    };

    // First life: seed provider rows past the heap threshold.
    let sys = MaxoidSystem::boot_from_device(device(&path, true), &cfg).expect("boot");
    sys.install(INITIATOR, vec![], MaxoidManifest::new()).expect("install");
    let caller = Caller::normal(INITIATOR);
    for i in 0..150i64 {
        sys.resolver
            .insert(
                &caller,
                &words_uri(),
                &ContentValues::new().put("word", body(i as u8, 400)).put("frequency", i),
            )
            .expect("insert");
    }
    let heap = sys.heap().expect("device boot attaches a heap tier");
    assert!(
        heap.stats().writeback_bytes > 0 || heap.stats().evictions > 0,
        "150 x 400B words over a 4-frame heap must touch the device: {:?}",
        heap.stats()
    );
    sys.journal().unwrap().flush().unwrap();
    let words = query_words(&sys);
    assert_eq!(words.len(), 150);
    drop(sys);

    // Second life: nothing survives but the device image.
    let sys2 = MaxoidSystem::boot_from_device(device(&path, false), &cfg).expect("cold boot");
    sys2.install(INITIATOR, vec![], MaxoidManifest::new()).expect("re-install");
    assert_eq!(query_words(&sys2), words, "provider rows must survive the reboot");
    let heap2 = sys2.heap().expect("rebooted system keeps its heap tier");
    let st = heap2.stats();
    assert!(
        st.hits + st.misses > 0,
        "recovered words must be served from paged tables, not RAM: {st:?}"
    );

    // Third life: post-reboot writes are journaled onto the same device.
    sys2.resolver
        .insert(
            &caller,
            &words_uri(),
            &ContentValues::new().put("word", "reborn").put("frequency", 3),
        )
        .expect("post-reboot insert");
    sys2.journal().unwrap().flush().unwrap();
    let words2 = query_words(&sys2);
    assert_eq!(words2.len(), words.len() + 1);
    drop(sys2);

    let sys3 = MaxoidSystem::boot_from_device(device(&path, false), &cfg).expect("third boot");
    sys3.install(INITIATOR, vec![], MaxoidManifest::new()).expect("re-install");
    assert_eq!(query_words(&sys3), words2, "post-reboot write must survive the next reboot");
    drop(sys3);
    let _ = std::fs::remove_file(&path);
}
