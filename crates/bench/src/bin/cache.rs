//! Hot-path cache ablation: the paper's worst delegate cells from
//! Table 3, measured with every cache disabled ("before": re-parse,
//! re-plan and re-generate rewrite SQL on each call) and with the caches
//! at their defaults ("after"), plus steady-state hit rates. A raw-table
//! point query (no proxy) shows what the statement cache alone buys.
//!
//! Both legs are staged: row URIs, value maps and payloads are built in
//! the untimed setup, so each cell times only the call. These
//! `cache_on` cells are the bench's single-thread latency cells for the
//! delegate dictionary query and update and the 4 KB append.
//!
//! Run with: `cargo run --release -p maxoid-bench --bin cache`

use maxoid_bench::{
    measure, BenchJson, DictMode, DictWorkload, FsMode, FsWorkload, Measurement, Unit,
};
use maxoid_sqldb::{Database, Value};
use std::cell::RefCell;

const TRIALS: usize = 200;
const ROWS: usize = 1000;

fn main() {
    let mut json = BenchJson::new("cache");
    println!("Hot-path caches — delegate cells, caches off (before) vs on (after)");
    println!("({TRIALS} trials per cell, {ROWS}-row dictionary)\n");

    // --- dict/query 1 word (delegate) ---------------------------------
    let (q_off, _) = dict_cell(
        false,
        50,
        |w, i| w.stage_query_one((i % ROWS) as i64 + 1),
        |w| {
            std::hint::black_box(w.query_one_staged());
        },
    );
    let (q_on, q_warm) = dict_cell(
        true,
        50,
        |w, i| w.stage_query_one((i % ROWS) as i64 + 1),
        |w| {
            std::hint::black_box(w.query_one_staged());
        },
    );
    print_pair(&mut json, "dict/query 1 word/delegate", &q_off, &q_on);

    // Steady-state statement-cache hit rate of the cached query run:
    // counters were reset after warmup, so setup misses are excluded.
    let (sh, sm) = q_warm.stmt_cache_stats();
    let stmt_rate = rate(sh, sm);
    json.push_scalar("cache/stmt_hit_rate", stmt_rate, Unit::Ratio);
    println!(
        "  steady-state stmt-cache hit rate    {:>6.1}% ({sh} hits / {sm} misses)",
        stmt_rate * 100.0
    );
    let (rh, rm) = q_warm.rewrite_cache_stats();
    let rewrite_rate = rate(rh, rm);
    json.push_scalar("cache/rewrite_hit_rate", rewrite_rate, Unit::Ratio);
    println!(
        "  steady-state rewrite-cache hit rate {:>6.1}% ({rh} hits / {rm} misses)",
        rewrite_rate * 100.0
    );

    // --- dict/update (delegate) ---------------------------------------
    let (u_off, _) = dict_cell(false, 0, |w, _| w.stage_update(), |w| w.update_staged());
    let (u_on, _) = dict_cell(true, 0, |w, _| w.stage_update(), |w| w.update_staged());
    print_pair(&mut json, "dict/update/delegate", &u_off, &u_on);

    // --- fs_4KB/append (delegate, append-after-copy-up) ---------------
    let (a_off, _) = fs_append_cell(false);
    let (a_on, fs_warm) = fs_append_cell(true);
    print_pair(&mut json, "fs_4KB/append/delegate", &a_off, &a_on);
    let (fh, fm) = fs_warm.resolve_cache_stats();
    let resolve_rate = rate(fh, fm);
    json.push_scalar("cache/resolve_hit_rate", resolve_rate, Unit::Ratio);
    println!(
        "  steady-state resolve-cache hit rate {:>6.1}% ({fh} hits / {fm} misses)",
        resolve_rate * 100.0
    );

    // --- sql/point query (raw table, no proxy) ------------------------
    let r_off = raw_query_cell(false);
    let r_on = raw_query_cell(true);
    print_pair(&mut json, "sql/point query/raw", &r_off, &r_on);

    json.finish();
}

/// Measures a staged op over a delegate dictionary workload with the
/// caches forced on or off. Statement-cache counters are reset after
/// setup and warmup so the reported hit rate is steady-state.
fn dict_cell(
    caches: bool,
    warm_updates: usize,
    mut stage: impl FnMut(&mut DictWorkload, usize),
    mut op: impl FnMut(&mut DictWorkload),
) -> (Measurement, DictWorkload) {
    let mut w = DictWorkload::new(DictMode::Delegate, ROWS);
    w.set_caches(caches);
    for _ in 0..warm_updates {
        w.update();
    }
    if let Some(p) = w.proxy() {
        p.db().stats.reset();
    }
    let w = RefCell::new(w);
    let mut i = 0usize;
    let m = measure(
        TRIALS,
        || {
            stage(&mut w.borrow_mut(), i);
            i += 1;
        },
        || op(&mut w.borrow_mut()),
    );
    (m, w.into_inner())
}

/// Measures repeated 4KB appends to an already-copied-up file through a
/// delegate's union mount (the resolution-cache steady state: the first
/// append pays copy-up untimed, later ones resolve into the top branch).
fn fs_append_cell(caches: bool) -> (Measurement, FsWorkload) {
    let mut w = FsWorkload::new(FsMode::Delegate, 1, 4 * 1024);
    w.set_resolve_caches(caches);
    w.append(0, 4 * 1024);
    let w = RefCell::new(w);
    let m =
        measure(TRIALS, || w.borrow_mut().stage_append(0, 64), || w.borrow_mut().append_staged());
    (m, w.into_inner())
}

/// Measures a PK point query on a 1000-row raw table with the statement
/// and plan caches on or off.
fn raw_query_cell(caches: bool) -> Measurement {
    let mut db = Database::new();
    db.execute_batch("CREATE TABLE t (_id INTEGER PRIMARY KEY, data TEXT);").expect("schema");
    for i in 0..ROWS {
        db.execute("INSERT INTO t (data) VALUES (?)", &[Value::Text(format!("d{i}"))])
            .expect("seed");
    }
    db.set_statement_caches(caches);
    let mut id = 0i64;
    measure(
        TRIALS,
        || {},
        || {
            id = id % ROWS as i64 + 1;
            let rs = db.query("SELECT data FROM t WHERE _id = ?", &[Value::Integer(id)]);
            std::hint::black_box(rs.expect("query").rows.len());
        },
    )
}

fn rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

fn print_pair(json: &mut BenchJson, label: &str, off: &Measurement, on: &Measurement) {
    json.push(&format!("{label}/cache_off"), off);
    json.push(&format!("{label}/cache_on"), on);
    let speedup = if on.mean_us() > 0.0 { off.mean_us() / on.mean_us() } else { f64::INFINITY };
    println!(
        "  {label:<28} before {:>9.1} us | after {:>9.1} us | {speedup:>5.2}x",
        off.mean_us(),
        on.mean_us(),
    );
}
