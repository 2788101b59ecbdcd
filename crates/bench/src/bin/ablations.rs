//! Ablations of the design decisions DESIGN.md calls out, beyond the
//! paper's tables:
//!
//! 1. **Subquery flattening** (paper §5.2 footnote 5): point queries on a
//!    COW view under every planner policy, showing the cliff the authors
//!    engineered around (Off materializes the whole view; 3.7.11 refuses
//!    to flatten under ORDER BY; 3.8.6 flattens with the proxy's
//!    column-append workaround).
//! 2. **Secondary indexes vs full scans**: point queries on a 1000-row
//!    table with and without an index, plain and through a COW view whose
//!    delta table mirrors the index on both UNION ALL arms.
//! 3. **Unilateral COW vs full snapshot** (paper §3.3): delegate start-up
//!    cost with lazy branch creation vs eagerly snapshotting public state.
//! 4. **File- vs block-granularity copy-up** (paper §7.2.1): append cost
//!    as a function of file size, showing the O(file size) behaviour that
//!    makes append the worst case, and the block-level alternative.
//!
//! The statement-cache ablation lives in `--bin cache`, the journal
//! overhead in `--bin journal`.
//!
//! Run with: `cargo run --release -p maxoid-bench --bin ablations`
//! Writes `BENCH_ablations.json`.

use maxoid::manifest::MaxoidManifest;
use maxoid::MaxoidSystem;
use maxoid_bench::{cow_point_query, cow_table, measure_interleaved, BenchJson, Case, FsMode};
use maxoid_bench::{FsWorkload, Measurement};
use maxoid_cowproxy::{DbView, QueryOpts};
use maxoid_sqldb::{Database, FlattenPolicy, Value};
use maxoid_vfs::{vpath, Branch, CopyUpGranularity, Mode, Store, Uid, Union};
use std::cell::RefCell;

const TRIALS: usize = 100;

/// Trials per delegate-start cell: each one boots and seeds a system.
const START_TRIALS: usize = 20;

const POLICIES: [(&str, FlattenPolicy); 4] = [
    ("off", FlattenPolicy::Off),
    ("sqlite_3_7_11", FlattenPolicy::Sqlite3711),
    ("sqlite_3_8_6", FlattenPolicy::Sqlite386),
    ("always", FlattenPolicy::Always),
];

fn main() {
    let mut json = BenchJson::new("ablations");
    println!("Design ablations — flattening, indexes, delegate start, copy-up");
    println!("({TRIALS} interleaved trials per cell, {START_TRIALS} for delegate start)\n");
    flattening(&mut json);
    index_vs_fullscan(&mut json);
    delegate_start(&mut json);
    copyup(&mut json);
    json.finish();
}

/// Records and prints one interleaved group as `<group>/<label>`.
fn record(json: &mut BenchJson, group: &str, labels: &[String], ms: &[Measurement]) {
    println!("{group}:");
    for (label, m) in labels.iter().zip(ms) {
        json.push(&format!("{group}/{label}"), m);
        println!("  {label:<22} {:>10.2} us median", m.median_us());
    }
}

fn flattening(json: &mut BenchJson) {
    // 5000 public rows, 100 volatile rows: big enough that a
    // materialize-then-filter plan visibly loses.
    let tables: Vec<_> = POLICIES.iter().map(|&(_, p)| cow_table(p, 5000, 100)).collect();
    let labels: Vec<String> = POLICIES.iter().map(|(name, _)| name.to_string()).collect();
    let cases = tables
        .iter()
        .map(|p| {
            let mut id = 0i64;
            let case: Case = (
                Box::new(|| {}),
                Box::new(move || {
                    id = id % 5000 + 1;
                    std::hint::black_box(cow_point_query(p, id));
                }),
            );
            case
        })
        .collect();
    record(json, "flattening_point_query", &labels, &measure_interleaved(TRIALS, cases));

    // The ORDER BY variant that separates 3.7.11 from 3.8.6: named
    // columns + ORDER BY (the proxy's workaround appends the column).
    let delegate = DbView::Delegate { initiator: "a".into() };
    let opts = QueryOpts {
        columns: vec!["data".into()],
        where_clause: Some("_id <= ?".into()),
        order_by: Some("_id DESC".into()),
        limit: Some(10),
    };
    let cases = tables
        .iter()
        .map(|p| {
            let (delegate, opts) = (&delegate, &opts);
            let case: Case = (
                Box::new(|| {}),
                Box::new(move || {
                    let rs = p.query(delegate, "tab1", opts, &[Value::Integer(50)]);
                    std::hint::black_box(rs.expect("query").rows.len());
                }),
            );
            case
        })
        .collect();
    record(json, "flattening_order_by", &labels, &measure_interleaved(TRIALS, cases));
}

/// A point query on a 1000-row table, and the same predicate through a
/// flattened COW view where both UNION ALL arms carry the index.
fn index_vs_fullscan(json: &mut BenchJson) {
    let plain = |indexed: bool| {
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
    let cow = |indexed: bool| {
        let mut p = cow_table(FlattenPolicy::Sqlite386, 1000, 50);
        if indexed {
            // The fork predates the index here, so mirror it by hand the
            // way ensure_cow would for a post-index fork.
            p.execute_batch("CREATE INDEX idx_tab1_data ON tab1 (data);").expect("index");
            p.execute_batch("CREATE INDEX idx_tab1_data_delta_a ON tab1_delta_a (data);")
                .expect("index");
        }
        p
    };
    // Keys are built up front so the timed region makes no allocation.
    let plain_keys: Vec<Value> = (0..1000).map(|i| Value::Text(format!("row{i:04}"))).collect();
    let cow_keys: Vec<Value> = (0..1000).map(|i| Value::Text(format!("d{i}"))).collect();
    let (dbs, proxies) = ([plain(false), plain(true)], [cow(false), cow(true)]);
    let delegate = DbView::Delegate { initiator: "a".into() };
    let opts = QueryOpts { where_clause: Some("data = ?".into()), ..Default::default() };
    let mut cases: Vec<Case> = Vec::new();
    for db in &dbs {
        let keys = &plain_keys;
        let mut i = 0;
        cases.push((
            Box::new(|| {}),
            Box::new(move || {
                i = (i + 1) % 1000;
                let rs =
                    db.query("SELECT _id FROM t WHERE data = ?", std::slice::from_ref(&keys[i]));
                std::hint::black_box(rs.expect("query").rows.len());
            }),
        ));
    }
    for p in &proxies {
        let (keys, delegate, opts) = (&cow_keys, &delegate, &opts);
        let mut i = 0;
        cases.push((
            Box::new(|| {}),
            Box::new(move || {
                i = (i + 1) % 1000;
                let rs = p.query(delegate, "tab1", opts, std::slice::from_ref(&keys[i]));
                std::hint::black_box(rs.expect("query").rows.len());
            }),
        ));
    }
    let labels = ["full_scan", "indexed", "cow_full_scan", "cow_indexed"].map(String::from);
    record(json, "index_vs_fullscan", &labels, &measure_interleaved(TRIALS, cases));
}

/// Boots a system with `files` 4 KB public files and the apps the
/// delegate-start cells launch.
fn seeded_system(files: usize) -> MaxoidSystem {
    let sys = MaxoidSystem::boot().expect("boot");
    for app in ["seeder", "init", "worker"] {
        sys.install(app, vec![], MaxoidManifest::new()).expect("install");
    }
    let pid = sys.launch("seeder").expect("launch");
    for i in 0..files {
        let path = vpath("/storage/sdcard").join(&format!("f{i}.dat")).expect("name");
        sys.kernel.write(pid, &path, &vec![0u8; 4096], Mode::PUBLIC).expect("seed");
    }
    sys
}

/// Delegate start with unilateral per-name COW (Maxoid: start only
/// builds mounts) against the rejected design that copies all of
/// Pub(all) into a per-delegate area first. Boot and seeding are untimed.
fn delegate_start(json: &mut BenchJson) {
    for files in [50usize, 500] {
        let slots: [RefCell<Option<MaxoidSystem>>; 2] = Default::default();
        let cases = slots
            .iter()
            .zip([false, true])
            .map(|(slot, snapshot)| {
                let case: Case = (
                    Box::new(move || *slot.borrow_mut() = Some(seeded_system(files))),
                    Box::new(move || {
                        let sys = slot.borrow();
                        let sys = sys.as_ref().expect("seeded by the setup");
                        if snapshot {
                            sys.kernel.vfs().with_store(|s| {
                                s.mkdir_all(&vpath("/backing/snapshots"), Uid::ROOT, Mode::PUBLIC)
                                    .expect("mkdir");
                                let (from, to) = ("/backing/ext/pub", "/backing/snapshots/worker");
                                s.copy_all(&vpath(from), &vpath(to)).expect("snapshot");
                            });
                        }
                        let pid = sys.launch_as_delegate("worker", "init").expect("delegate");
                        std::hint::black_box(pid);
                    }),
                );
                case
            })
            .collect();
        let labels = [format!("unilateral_cow/{files}"), format!("full_snapshot/{files}")];
        record(json, "delegate_start", &labels, &measure_interleaved(START_TRIALS, cases));
    }
}

/// The first delegate append to a file pays its copy-up; at file
/// granularity (aufs) that is O(file size), at block granularity
/// O(appended bytes). Each trial starts from the pre-copy-up state.
fn copyup(json: &mut BenchJson) {
    let sizes = [4 * 1024usize, 64 * 1024, 1024 * 1024];
    let workloads = sizes.map(|size| RefCell::new(FsWorkload::new(FsMode::Delegate, 1, size)));
    let cases = workloads
        .iter()
        .zip(sizes)
        .map(|(w, size)| {
            let case: Case = (
                Box::new(move || {
                    let mut w = w.borrow_mut();
                    w.reset_seeded(0, size);
                    w.stage_append(0, 64);
                }),
                Box::new(move || w.borrow_mut().append_staged()),
            );
            case
        })
        .collect();
    let labels = sizes.map(|s| s.to_string());
    record(json, "append_copyup_scaling", &labels, &measure_interleaved(TRIALS, cases));

    let granularities = [CopyUpGranularity::File, CopyUpGranularity::Block];
    let stores: Vec<_> = granularities
        .iter()
        .map(|&g| {
            let store = Store::new();
            store.mkdir_all(&vpath("/up"), Uid::ROOT, Mode::PUBLIC).expect("mkdir");
            store.mkdir_all(&vpath("/low"), Uid::ROOT, Mode::PUBLIC).expect("mkdir");
            let payload = vec![0u8; 1024 * 1024];
            store.write(&vpath("/low/big.dat"), &payload, Uid::ROOT, Mode::PUBLIC).expect("seed");
            let branches = vec![Branch::rw(vpath("/up")), Branch::ro(vpath("/low"))];
            (store, Union::new(branches, false).with_granularity(g))
        })
        .collect();
    let cases = stores
        .iter()
        .map(|(store, union)| {
            let case: Case = (
                // Back to the pre-copy-up state, so every trial pays the
                // first-touch cost.
                Box::new(move || {
                    let _ = store.unlink(&vpath("/up/big.dat"));
                    let _ = store.unlink(&vpath("/up/.ad.big.dat"));
                }),
                Box::new(move || union.append(store, "big.dat", b"tail").expect("append")),
            );
            case
        })
        .collect();
    let labels = ["file_level_aufs", "block_level"].map(String::from);
    record(json, "copyup_granularity_1MB_append", &labels, &measure_interleaved(TRIALS, cases));
}
