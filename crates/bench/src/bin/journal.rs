//! Journal ablations: what write-ahead logging costs, and what recovery
//! buys.
//!
//! Two experiment families, emitted to `BENCH_journal.json`:
//!
//! - **journal_overhead** — the same SQL-insert and file-write loops with
//!   logging off vs group-commit batch sizes 1/16/128. Batch 1 is the
//!   worst case (every record pays a flush); larger batches amortise it
//!   toward the logging-off floor.
//! - **recovery** — replay time of `maxoid::recover` as a function of log
//!   size (100/1000/5000 committed records), the quantity that bounds
//!   crash-restart latency and motivates snapshot checkpoints; plus
//!   replay time of *compacted* logs whose histories differ 100× but
//!   whose live state is identical — compaction's claim is that recovery
//!   cost tracks live state, not uptime, so those two cells must be flat.
//!
//! Exits non-zero when the journaled/unjournaled 4KB-write median ratio
//! exceeds [`MAX_WRITE_RATIO`] (the CI gate for the write-path work).
//!
//! Run with: `cargo run --release -p maxoid-bench --bin journal`

use maxoid::durability::{compact, recover};
use maxoid_bench::{measure, measure_interleaved, BenchJson, Case, Measurement};
use maxoid_journal::JournalHandle;
use maxoid_sqldb::{Database, Value};
use maxoid_vfs::{vpath, Mode, Store, Uid};
use std::cell::RefCell;
use std::rc::Rc;

const TRIALS: usize = 300;

/// The ablation axis: no journal, then group-commit batch sizes.
const MODES: [(&str, Option<usize>); 4] =
    [("off", None), ("batch1", Some(1)), ("batch16", Some(16)), ("batch128", Some(128))];

/// CI gate: the journaled (default batch 16) 4KB file write may cost at
/// most this multiple of the unjournaled write, by median.
const MAX_WRITE_RATIO: f64 = 5.0;

fn main() {
    let mut json = BenchJson::new();
    println!("Journal ablations — logging overhead and recovery scaling");
    println!("({TRIALS} interleaved trials per cell)\n");

    // --- journal_overhead: logical SQL records ------------------------
    let sql = measure_interleaved(
        TRIALS,
        MODES
            .iter()
            .map(|&(_, batch)| {
                let mut db = Database::new();
                if let Some(b) = batch {
                    db.set_journal(JournalHandle::with_batch(b).sink(), "db.bench");
                }
                db.execute_batch(
                    "CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT, frequency INTEGER);",
                )
                .expect("schema");
                let db = Rc::new(RefCell::new(db));
                let i = Rc::new(RefCell::new(0i64));
                let case: Case = (
                    Box::new(|| {}),
                    Box::new(move || {
                        let mut k = i.borrow_mut();
                        *k += 1;
                        db.borrow_mut()
                            .execute(
                                "INSERT INTO words (word, frequency) VALUES (?, ?)",
                                &[Value::Text(format!("w{k}")), Value::Integer(*k)],
                            )
                            .expect("insert");
                    }),
                );
                case
            })
            .collect(),
    );
    println!("journal_overhead, SQL insert:");
    print_row(&mut json, "journal_overhead/sql_insert", &sql);

    // --- journal_overhead: physical file-write records ----------------
    let fs = measure_interleaved(
        TRIALS,
        MODES
            .iter()
            .map(|&(_, batch)| {
                let store = Store::new();
                store.mkdir_all(&vpath("/data"), Uid::ROOT, Mode::PUBLIC).expect("mkdir");
                if let Some(b) = batch {
                    store.set_journal(JournalHandle::with_batch(b).sink());
                }
                let store = Rc::new(RefCell::new(store));
                let i = Rc::new(RefCell::new(0u64));
                let payload = vec![0xabu8; 4096];
                let case: Case = (
                    Box::new(|| {}),
                    Box::new(move || {
                        let mut k = i.borrow_mut();
                        *k += 1;
                        store
                            .borrow_mut()
                            .write(
                                &vpath("/data").join(&format!("f{k}.dat")).unwrap(),
                                &payload,
                                Uid::ROOT,
                                Mode::PUBLIC,
                            )
                            .expect("write");
                    }),
                );
                case
            })
            .collect(),
    );
    println!("\njournal_overhead, 4KB file write:");
    print_row(&mut json, "journal_overhead/fs_write_4k", &fs);

    // --- recovery time vs log size ------------------------------------
    println!("\nrecovery time vs committed log size:");
    for n in [100usize, 1000, 5000] {
        let log = build_log(n);
        let m = measure(
            30.min(TRIALS),
            || {},
            || {
                std::hint::black_box(recover(&log).expect("recover"));
            },
        );
        json.push(&format!("recovery/replay/n{n}"), &m);
        println!(
            "  {:>5} records ({:>8} bytes): {:>10.1} us  ({:.3} us/record)",
            n,
            log.len(),
            m.mean_us(),
            m.mean_us() / n as f64,
        );
    }

    // --- recovery after compaction: flat in history length ------------
    println!("\nrecovery of compacted logs (identical live state, 100x history):");
    let mut compacted_medians = Vec::new();
    for n in [1_000usize, 100_000] {
        let j = build_churn_log(n);
        j.with_flushed(compact).expect("flush").expect("compact");
        let log = j.bytes();
        let m = measure(
            30,
            || {},
            || {
                std::hint::black_box(recover(&log).expect("recover"));
            },
        );
        json.push(&format!("recovery/compacted/n{n}"), &m);
        println!(
            "  {:>6}-op history -> {:>6} compacted bytes: {:>8.1} us",
            n,
            log.len(),
            m.median_us(),
        );
        compacted_medians.push(m.median_us());
    }
    let flatness = compacted_medians[1] / compacted_medians[0];
    json.push_scalar("recovery/compacted/ratio_100k_vs_1k", flatness);
    println!("  100k/1k replay ratio: {flatness:.2}x (compaction bounds recovery by live state)");

    // --- write-overhead gate ------------------------------------------
    let (off, batch16) = (fs[0].median_us(), fs[2].median_us());
    let ratio = if off > 0.0 { batch16 / off } else { 0.0 };
    json.push_scalar("journal_overhead/fs_write_4k/median_ratio_batch16_vs_off", ratio);
    println!("\njournaled (batch16) vs unjournaled 4KB write: {ratio:.2}x by median");

    json.write("BENCH_journal.json").expect("write BENCH_journal.json");
    println!("(wrote BENCH_journal.json)");

    if ratio > MAX_WRITE_RATIO {
        eprintln!(
            "FAIL: journaled 4KB write {batch16:.2} us is {ratio:.2}x the unjournaled \
             {off:.2} us (gate: {MAX_WRITE_RATIO}x)"
        );
        std::process::exit(1);
    }
}

/// Builds a flushed log of `n` committed records, half logical SQL
/// inserts and half physical 1KB file writes — the mix `recover` sees
/// after real use.
fn build_log(n: usize) -> Vec<u8> {
    let j = JournalHandle::with_batch(64);
    let mut db = Database::new();
    db.set_journal(j.sink(), "db.bench");
    db.execute_batch("CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT, frequency INTEGER);")
        .expect("schema");
    let store = Store::new();
    store.set_journal(j.sink());
    store.mkdir_all(&vpath("/data"), Uid::ROOT, Mode::PUBLIC).expect("mkdir");
    let payload = vec![0x5au8; 1024];
    for i in 0..n / 2 {
        db.execute(
            "INSERT INTO words (word, frequency) VALUES (?, ?)",
            &[Value::Text(format!("w{i}")), Value::Integer(i as i64)],
        )
        .expect("insert");
        store
            .write(
                &vpath("/data").join(&format!("f{i}.dat")).unwrap(),
                &payload,
                Uid::ROOT,
                Mode::PUBLIC,
            )
            .expect("write");
    }
    j.flush().expect("flush");
    j.bytes()
}

/// Builds a flushed log of `n` churn operations whose *final* state is
/// independent of `n`: the ops cycle over 4 files and 50 dictionary rows
/// with contents keyed by `i % 100`, so any `n` divisible by 100 lands
/// every file and row on the same last value. Only the history length
/// differs — exactly the input compaction collapses. Returns the journal.
fn build_churn_log(n: usize) -> JournalHandle {
    assert!(n % 100 == 0, "n must align the churn cycles");
    const FILES: usize = 4;
    const ROWS: usize = 50;
    let j = JournalHandle::with_batch(64);
    let mut db = Database::new();
    db.set_journal(j.sink(), "db.bench");
    db.execute_batch("CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT, frequency INTEGER);")
        .expect("schema");
    for r in 0..ROWS {
        db.execute(
            "INSERT INTO words (word, frequency) VALUES (?, ?)",
            &[Value::Text(format!("w{r}")), Value::Integer(0)],
        )
        .expect("seed");
    }
    let store = Store::new();
    store.set_journal(j.sink());
    store.mkdir_all(&vpath("/data"), Uid::ROOT, Mode::PUBLIC).expect("mkdir");
    for i in 0..n {
        let gen = (i % 100) as i64;
        let body = format!("generation {gen:02} of a file that keeps being rewritten");
        store
            .write(
                &vpath("/data").join(&format!("f{}.dat", i % FILES)).unwrap(),
                body.as_bytes(),
                Uid::ROOT,
                Mode::PUBLIC,
            )
            .expect("write");
        db.execute(
            "UPDATE words SET frequency = ? WHERE _id = ?",
            &[Value::Integer(gen), Value::Integer((i % ROWS) as i64 + 1)],
        )
        .expect("update");
    }
    j.flush().expect("flush");
    j
}

fn print_row(json: &mut BenchJson, section: &str, ms: &[Measurement]) {
    let base = &ms[0];
    for ((mode, _), m) in MODES.iter().zip(ms) {
        json.push(&format!("{section}/{mode}"), m);
        println!(
            "  {:<10} {:>9.2} us  (+{:.1}% vs off)",
            mode,
            m.mean_us(),
            m.overhead_pct(base).max(0.0),
        );
    }
}
