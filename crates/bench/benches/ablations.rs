//! Ablation benchmarks for the design decisions DESIGN.md calls out:
//!
//! 1. **Subquery flattening** (paper §5.2 footnote 5): point queries on a
//!    COW view under every planner policy, showing the cliff the authors
//!    engineered around (Off materializes the whole view; 3.7.11 refuses
//!    to flatten under ORDER BY; 3.8.6 flattens with the proxy's
//!    column-append workaround).
//! 2. **Unilateral COW vs full snapshot** (paper §3.3): delegate start-up
//!    cost with lazy branch creation vs eagerly snapshotting public state.
//! 3. **File- vs block-granularity copy-up** (paper §7.2.1): append cost
//!    as a function of file size, showing the O(file size) behaviour that
//!    makes append the worst case.
//! 4. **Secondary indexes vs full scans**: point queries on a 1000-row
//!    table with and without an index, plain and through a COW view whose
//!    delta table mirrors the index on both UNION ALL arms.
//! 5. **Statement cache vs re-parsing**: the hot-path caches (prepared
//!    statements, plans, rewrite SQL) against the re-parse-everything
//!    mode the equivalence proptests compare them to.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use maxoid::manifest::MaxoidManifest;
use maxoid::MaxoidSystem;
use maxoid_bench::{cow_point_query, cow_table, FsMode, FsWorkload};
use maxoid_cowproxy::{DbView, QueryOpts};
use maxoid_sqldb::{FlattenPolicy, Value};
use maxoid_vfs::{vpath, Mode, Uid};

fn bench_flattening(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/flattening_point_query");
    g.sample_size(20);
    let policies = [
        ("off", FlattenPolicy::Off),
        ("sqlite_3_7_11", FlattenPolicy::Sqlite3711),
        ("sqlite_3_8_6", FlattenPolicy::Sqlite386),
        ("always", FlattenPolicy::Always),
    ];
    for (name, policy) in policies {
        // 5000 public rows, 100 volatile rows: big enough that a
        // materialize-then-filter plan visibly loses.
        let p = cow_table(policy, 5000, 100);
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            let mut id = 0i64;
            b.iter(|| {
                id = id % 5000 + 1;
                std::hint::black_box(cow_point_query(&p, id));
            });
        });
    }
    g.finish();

    // The ORDER BY variant that separates 3.7.11 from 3.8.6: named
    // columns + ORDER BY (the proxy's workaround appends the column).
    let mut g = c.benchmark_group("ablation/flattening_order_by");
    g.sample_size(20);
    for (name, policy) in policies {
        let p = cow_table(policy, 5000, 100);
        let delegate = DbView::Delegate { initiator: "a".into() };
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            b.iter(|| {
                let rs = p
                    .query(
                        &delegate,
                        "tab1",
                        &QueryOpts {
                            columns: vec!["data".into()],
                            where_clause: Some("_id <= ?".into()),
                            order_by: Some("_id DESC".into()),
                            limit: Some(10),
                        },
                        &[Value::Integer(50)],
                    )
                    .expect("query");
                std::hint::black_box(rs.rows.len());
            });
        });
    }
    g.finish();
}

/// Secondary indexes vs full scans: a point query on a 1000-row table,
/// and the same predicate through a flattened COW view where both UNION
/// ALL arms carry the index.
fn bench_index_vs_fullscan(c: &mut Criterion) {
    use maxoid_sqldb::Database;
    let mut g = c.benchmark_group("ablation/index_vs_fullscan");
    g.sample_size(20);
    let build = |indexed: bool| {
        let mut db = Database::new();
        db.execute_batch("CREATE TABLE t (_id INTEGER PRIMARY KEY, data TEXT);").expect("schema");
        for i in 0..1000 {
            db.execute("INSERT INTO t (data) VALUES (?)", &[Value::Text(format!("row{i:04}"))])
                .expect("seed");
        }
        if indexed {
            db.execute_batch("CREATE INDEX idx_t_data ON t (data);").expect("index");
        }
        db
    };
    for (name, indexed) in [("full_scan", false), ("indexed", true)] {
        let db = build(indexed);
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            let mut i = 0i64;
            b.iter(|| {
                i = (i + 1) % 1000;
                let rs = db
                    .query("SELECT _id FROM t WHERE data = ?", &[Value::Text(format!("row{i:04}"))])
                    .expect("query");
                std::hint::black_box(rs.rows.len());
            });
        });
    }
    // COW view on top: the proxy mirrors the index onto the delta table,
    // so the flattened point query probes on both arms.
    for (name, indexed) in [("cow_full_scan", false), ("cow_indexed", true)] {
        let mut p = cow_table(FlattenPolicy::Sqlite386, 1000, 50);
        if indexed {
            // The fork predates the index here, so mirror it by hand the
            // way ensure_cow would for a post-index fork.
            p.execute_batch("CREATE INDEX idx_tab1_data ON tab1 (data);").expect("index");
            p.execute_batch("CREATE INDEX idx_tab1_data_delta_a ON tab1_delta_a (data);")
                .expect("index");
        }
        let delegate = DbView::Delegate { initiator: "a".into() };
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            let mut i = 0i64;
            b.iter(|| {
                i = (i + 1) % 1000;
                let rs = p
                    .query(
                        &delegate,
                        "tab1",
                        &QueryOpts { where_clause: Some("data = ?".into()), ..Default::default() },
                        &[Value::Text(format!("d{i}"))],
                    )
                    .expect("query");
                std::hint::black_box(rs.rows.len());
            });
        });
    }
    g.finish();
}

/// Statement cache vs re-parsing: the same point query and update run
/// with the hot-path caches at their defaults and with every cache
/// disabled (re-lex, re-parse, re-plan, re-generate rewrite SQL each
/// call), on a raw table and through a delegate's COW view.
fn bench_stmt_cache_vs_reparse(c: &mut Criterion) {
    use maxoid_sqldb::Database;
    let mut g = c.benchmark_group("ablation/stmt_cache_vs_reparse");
    g.sample_size(20);
    for (name, caches) in [("raw_cached", true), ("raw_reparse", false)] {
        let mut db = Database::new();
        db.execute_batch("CREATE TABLE t (_id INTEGER PRIMARY KEY, data TEXT);").expect("schema");
        for i in 0..1000 {
            db.execute("INSERT INTO t (data) VALUES (?)", &[Value::Text(format!("d{i}"))])
                .expect("seed");
        }
        db.set_statement_caches(caches);
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            let mut i = 0i64;
            b.iter(|| {
                i = i % 1000 + 1;
                let rs = db
                    .query("SELECT data FROM t WHERE _id = ?", &[Value::Integer(i)])
                    .expect("query");
                std::hint::black_box(rs.rows.len());
            });
        });
    }
    for (name, caches) in [("cow_cached", true), ("cow_reparse", false)] {
        let mut p = cow_table(FlattenPolicy::Sqlite386, 1000, 50);
        p.set_rewrite_cache(caches);
        p.db().set_statement_caches(caches);
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            let mut i = 0i64;
            b.iter(|| {
                i = i % 1000 + 1;
                std::hint::black_box(cow_point_query(&p, i));
            });
        });
    }
    g.finish();
}

/// Write-ahead logging cost: the same insert loop with the journal
/// detached vs group-commit batch sizes 1/16/128. Batch 1 flushes every
/// record (crash window of zero records); larger batches amortise the
/// flush toward the logging-off floor. The JSON-emitting variant plus
/// the recovery-time-vs-log-size experiment live in `src/bin/journal.rs`.
fn bench_journal_overhead(c: &mut Criterion) {
    use maxoid_journal::Journal;
    use maxoid_sqldb::Database;
    let mut g = c.benchmark_group("ablation/journal_overhead_insert");
    g.sample_size(20);
    for (name, batch) in
        [("off", None), ("batch1", Some(1usize)), ("batch16", Some(16)), ("batch128", Some(128))]
    {
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            let mut db = Database::new();
            if let Some(n) = batch {
                db.set_journal(Journal::in_memory(n), "db.bench");
            }
            db.execute_batch("CREATE TABLE t (_id INTEGER PRIMARY KEY, data TEXT);")
                .expect("schema");
            let mut i = 0i64;
            b.iter(|| {
                i += 1;
                db.execute("INSERT INTO t (data) VALUES (?)", &[Value::Text(format!("d{i}"))])
                    .expect("insert");
            });
        });
    }
    g.finish();
}

fn bench_snapshot_vs_unilateral(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/delegate_start");
    g.sample_size(10);
    // Seed a public external storage with many files.
    let seed = |sys: &mut MaxoidSystem, files: usize| {
        let pid = sys.launch("seeder").expect("launch");
        for i in 0..files {
            sys.kernel
                .write(
                    pid,
                    &vpath("/storage/sdcard").join(&format!("f{i}.dat")).unwrap(),
                    &vec![0u8; 4096],
                    Mode::PUBLIC,
                )
                .expect("seed");
        }
    };
    for files in [50usize, 500] {
        // Unilateral per-name COW (Maxoid): delegate start only builds
        // mounts; no copying.
        g.bench_function(BenchmarkId::new("unilateral_cow", files), |b| {
            b.iter(|| {
                let mut sys = MaxoidSystem::boot().expect("boot");
                sys.install("seeder", vec![], MaxoidManifest::new()).expect("install");
                sys.install("init", vec![], MaxoidManifest::new()).expect("install");
                sys.install("worker", vec![], MaxoidManifest::new()).expect("install");
                seed(&mut sys, files);
                std::hint::black_box(sys.launch_as_delegate("worker", "init").expect("delegate"));
            });
        });
        // Full snapshot (the rejected design): copy all of Pub(all) into
        // a per-delegate area before starting.
        g.bench_function(BenchmarkId::new("full_snapshot", files), |b| {
            b.iter(|| {
                let mut sys = MaxoidSystem::boot().expect("boot");
                sys.install("seeder", vec![], MaxoidManifest::new()).expect("install");
                sys.install("init", vec![], MaxoidManifest::new()).expect("install");
                sys.install("worker", vec![], MaxoidManifest::new()).expect("install");
                seed(&mut sys, files);
                // Eager snapshot of the public branch.
                sys.kernel.vfs().with_store_mut(|s| {
                    s.mkdir_all(&vpath("/backing/snapshots"), Uid::ROOT, Mode::PUBLIC)
                        .expect("mkdir");
                    s.copy_all(&vpath("/backing/ext/pub"), &vpath("/backing/snapshots/worker"))
                        .expect("snapshot");
                });
                std::hint::black_box(sys.launch_as_delegate("worker", "init").expect("delegate"));
            });
        });
    }
    g.finish();
}

fn bench_copyup_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation/append_copyup_scaling");
    g.sample_size(15);
    for size in [4 * 1024usize, 64 * 1024, 1024 * 1024] {
        g.bench_function(BenchmarkId::from_parameter(size), |b| {
            let w = FsWorkload::new(FsMode::Delegate, 1, size);
            b.iter(|| {
                w.reset_seeded(0, size);
                w.append(0, 64);
            });
        });
    }
    g.finish();
}

/// File- vs block-granularity copy-up at the union layer: the paper's
/// §7.2.1 suggestion implemented. Block mode makes append O(appended
/// bytes) instead of O(file size).
fn bench_granularity(c: &mut Criterion) {
    use maxoid_vfs::{vpath, Branch, CopyUpGranularity, Store, Union};
    let mut g = c.benchmark_group("ablation/copyup_granularity_1MB_append");
    g.sample_size(15);
    for (name, granularity) in
        [("file_level_aufs", CopyUpGranularity::File), ("block_level", CopyUpGranularity::Block)]
    {
        g.bench_function(BenchmarkId::from_parameter(name), |b| {
            let mut store = Store::new();
            store.mkdir_all(&vpath("/up"), Uid::ROOT, Mode::PUBLIC).expect("mkdir");
            store.mkdir_all(&vpath("/low"), Uid::ROOT, Mode::PUBLIC).expect("mkdir");
            let payload = vec![0u8; 1024 * 1024];
            store.write(&vpath("/low/big.dat"), &payload, Uid::ROOT, Mode::PUBLIC).expect("seed");
            let union =
                Union::new(vec![Branch::rw(vpath("/up")), Branch::ro(vpath("/low"))], false)
                    .with_granularity(granularity);
            b.iter(|| {
                // Reset to the pre-copy-up state so every iteration pays
                // the first-touch cost.
                let _ = store.unlink(&vpath("/up/big.dat"));
                let _ = store.unlink(&vpath("/up/.ad.big.dat"));
                union.append(&mut store, "big.dat", b"tail").expect("append");
            });
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_flattening,
    bench_index_vs_fullscan,
    bench_stmt_cache_vs_reparse,
    bench_journal_overhead,
    bench_snapshot_vs_unilateral,
    bench_copyup_scaling,
    bench_granularity
);
criterion_main!(benches);
