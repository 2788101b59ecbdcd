//! Row-heap ablations: what paging sqldb tables through the block tier
//! costs, and what the scan-resistant cache buys back.
//!
//! Three experiment families, emitted to `BENCH_sqlheap.json`:
//!
//! - **backend point query** — the same PK point query against a
//!   resident table and a paged table whose hot set fits the page
//!   budget. The paged cell pays row decode plus a cache lookup but no
//!   device I/O on hits, so it must stay within 3x of resident by
//!   median (the CI gate for the sqldb hot path, in `report::GATES`).
//! - **backend insert** — append-path cost: paged inserts bump-allocate
//!   into heap pages (first touch is a no-load `write_padded`), resident
//!   inserts clone into a BTreeMap.
//! - **working-set sweep** — full-scan hit rates as the table grows from
//!   0.5x to 4x the page budget. Under the old second-chance clock a
//!   cyclic re-scan at any ratio past 1x degenerated to a 0% hit rate;
//!   the segmented clock must keep a protected core resident, so the
//!   2x cell is gated on a non-zero steady-state hit rate. Its rows are
//!   `heap_working_set/*`, apart from `--bin block`'s page-cache sweep.
//!
//! Run with: `cargo run --release -p maxoid-bench --bin sqlheap`

use maxoid_bench::{measure_interleaved, BenchJson, Case, Measurement, Unit};
use maxoid_block::{MemDevice, SpillTier};
use maxoid_sqldb::{Database, Value};
use std::cell::RefCell;
use std::rc::Rc;

const TRIALS: usize = 300;

/// Page budget for the paged backend: 16 x 4096 = 64 KiB.
const PAGES: usize = 16;

/// Rows in the hot set: 64 x ~400 B = ~26 KiB, well under the budget, so
/// the steady state is all hits.
const HOT_ROWS: i64 = 64;

const BACKENDS: [&str; 2] = ["resident", "paged_mem"];

/// Deterministic text payload of `len` bytes.
fn body(seed: i64, len: usize) -> String {
    (0..len).map(|k| char::from(b'a' + ((seed as usize + k) % 26) as u8)).collect()
}

/// A words-shaped table, optionally paged onto a fresh heap tier with
/// threshold 0 (rows page out from the first insert).
fn hot_db(backend: &str) -> Database {
    let mut db = Database::new();
    if backend == "paged_mem" {
        db.attach_heap(SpillTier::new(Box::new(MemDevice::new()), PAGES), 0);
    }
    db.execute_batch("CREATE TABLE t (_id INTEGER PRIMARY KEY, k INTEGER, body TEXT);").unwrap();
    for i in 0..HOT_ROWS {
        db.execute(
            "INSERT INTO t (k, body) VALUES (?, ?)",
            &[Value::Integer(i), Value::Text(body(i, 400))],
        )
        .unwrap();
    }
    db
}

fn main() {
    let mut json = BenchJson::new("sqlheap");
    println!("Row-heap ablations — paged tables, scan sweep");
    println!("({TRIALS} interleaved trials per cell)\n");

    // --- backend: PK point query on a cache-resident hot set ----------
    let queries = measure_interleaved(
        TRIALS,
        BACKENDS
            .iter()
            .map(|&backend| {
                let db = Rc::new(hot_db(backend));
                let i = Rc::new(RefCell::new(0i64));
                let case: Case = (
                    Box::new(|| {}),
                    Box::new(move || {
                        let mut k = i.borrow_mut();
                        *k += 1;
                        std::hint::black_box(
                            db.query(
                                "SELECT _id, k, body FROM t WHERE _id = ?",
                                &[Value::Integer(*k % HOT_ROWS)],
                            )
                            .expect("point query"),
                        );
                    }),
                );
                case
            })
            .collect(),
    );
    println!("backend, PK point query (hot set ~26 KiB, budget {} KiB):", PAGES * 4);
    print_row(&mut json, "backend/point_query", &queries);

    // --- backend: insert (append path) --------------------------------
    let inserts = measure_interleaved(
        TRIALS,
        BACKENDS
            .iter()
            .map(|&backend| {
                let db = Rc::new(RefCell::new(hot_db(backend)));
                let i = Rc::new(RefCell::new(HOT_ROWS));
                let case: Case = (
                    Box::new(|| {}),
                    Box::new(move || {
                        let mut k = i.borrow_mut();
                        *k += 1;
                        db.borrow_mut()
                            .execute(
                                "INSERT INTO t (k, body) VALUES (?, ?)",
                                &[Value::Integer(*k), Value::Text(body(*k, 400))],
                            )
                            .expect("insert");
                    }),
                );
                case
            })
            .collect(),
    );
    println!("\nbackend, 400B insert:");
    print_row(&mut json, "backend/insert", &inserts);

    // --- working-set sweep: full-scan hit rate vs cache pressure ------
    println!("\nworking-set sweep (page budget {} KiB, sequential re-scan passes):", PAGES * 4);
    for ratio in [0.5f64, 1.0, 2.0, 4.0] {
        let rows = ((PAGES as f64 * ratio) as i64).max(1);
        let tier = SpillTier::new(Box::new(MemDevice::new()), PAGES);
        let mut db = Database::new();
        db.attach_heap(tier.clone(), 0);
        db.execute_batch("CREATE TABLE t (_id INTEGER PRIMARY KEY, k INTEGER, body TEXT);")
            .unwrap();
        // ~1 row per 4 KiB page, so `rows` tracks the page budget ratio.
        for i in 0..rows {
            db.execute(
                "INSERT INTO t (k, body) VALUES (?, ?)",
                &[Value::Integer(i), Value::Text(body(i, 3800))],
            )
            .unwrap();
        }
        let seeded = tier.stats();
        for _pass in 0..8 {
            std::hint::black_box(
                db.query("SELECT _id, k, body FROM t ORDER BY _id", &[]).expect("scan"),
            );
        }
        let c = tier.stats();
        let (hits, misses) = (c.hits - seeded.hits, c.misses - seeded.misses);
        let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
        let cell = |what: &str| format!("heap_working_set/ratio{ratio}/{what}");
        json.push_scalar(&cell("hit_rate"), hit_rate, Unit::Ratio);
        json.push_scalar(&cell("evictions"), c.evictions as f64, Unit::Count);
        println!(
            "  {:>4.1}x budget ({:>2} rows): hit rate {:>5.1}%  evictions {:>5}",
            ratio,
            rows,
            hit_rate * 100.0,
            c.evictions,
        );
    }

    // --- cached hot-set ratio (gated in `report::GATES`) --------------
    let (resident, paged) = (queries[0].median_us(), queries[1].median_us());
    let ratio = if resident > 0.0 { paged / resident } else { 0.0 };
    let name = "backend/point_query/median_ratio_paged_mem_vs_resident";
    json.push_scalar(name, ratio, Unit::Ratio);
    println!("\npaged_mem vs resident point query: {ratio:.2}x by median");

    json.finish();
}

fn print_row(json: &mut BenchJson, section: &str, ms: &[Measurement]) {
    let base = &ms[0];
    for (backend, m) in BACKENDS.iter().zip(ms) {
        json.push(&format!("{section}/{backend}"), m);
        println!(
            "  {:<11} {:>9.2} us  (+{:.1}% vs resident)",
            backend,
            m.mean_us(),
            m.overhead_pct(base).max(0.0),
        );
    }
}
