//! Read-path benchmark: reader scaling on one authority.
//!
//! Each resolver entry holds its provider behind an `RwLock`: a routed
//! query takes it shared and runs on its thread's own reader, bound to
//! the live catalog only while the query runs; a change takes it
//! exclusively. This benchmark measures what that buys: N reader threads
//! all point-querying the *same* User Dictionary authority, which
//! proceed in parallel.
//!
//! Reported:
//! - `mvcc/readers{N}/ops_per_sec` for N ∈ {1,2,4,8} — aggregate
//!   point-query throughput, best of 3 reps (each rep runs every reader
//!   count once, in reverse order on alternate reps), plus speedup vs
//!   N=1.
//! - `mvcc/contended/readers4_writer1/ops_per_sec` — the same storm
//!   with one delegate writer mutating the authority, whose exclusive
//!   lock waits for the readers' shared guards, best of 3 reps, and
//!   `writer_ops_per_sec`, the unthrottled writer's updates/sec in that
//!   rep: readers wait while it holds the lock, so the two trade off.
//!
//! Run with: `cargo run --release -p maxoid-bench --bin mvcc`
//! Writes `BENCH_mvcc.json`; exits non-zero when multi-reader
//! throughput falls below its core-aware floor (`report::GATES`: on ≥2
//! cores a 4-reader storm must at least match one reader; on a single
//! core it must stay within 0.9× — readers share no cache, so even
//! interleaved they should not cost more than a lone reader).

use maxoid::manifest::MaxoidManifest;
use maxoid::{ContentValues, MaxoidSystem, Pid, QueryArgs, Uri};
use maxoid_bench::{best_of_alternated, cores, BenchJson, Unit};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

const READER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Point queries per reader thread per repetition.
const ITERS: usize = 20_000;
/// Repetitions; each runs every reader count once, in reverse order on
/// alternate repetitions, and each count's best rep is reported.
const REPS: usize = 3;
const DICT_ROWS: usize = 1000;

fn words_uri() -> Uri {
    Uri::parse("content://user_dictionary/words").expect("uri")
}

/// Boots one system with a seeded dictionary and `n` reader apps.
fn build(n: usize) -> (Arc<MaxoidSystem>, Vec<Pid>) {
    let sys = MaxoidSystem::boot().expect("boot");
    sys.install("bench.seeder", vec![], MaxoidManifest::new()).expect("install seeder");
    let seeder = sys.launch("bench.seeder").expect("launch seeder");
    let words = words_uri();
    for i in 0..DICT_ROWS {
        sys.cp_insert(seeder, &words, &ContentValues::new().put("word", format!("w{i}").as_str()))
            .expect("seed dict");
    }
    let mut pids = Vec::with_capacity(n);
    for t in 0..n {
        let app = format!("bench.reader{t}");
        sys.install(&app, vec![], MaxoidManifest::new()).expect("install reader");
        pids.push(sys.launch(&app).expect("launch reader"));
    }
    (Arc::new(sys), pids)
}

/// One repetition of a pure reader storm at `n` threads. Returns
/// (total queries, elapsed seconds).
fn run_readers(n: usize) -> (u64, f64) {
    let (sys, pids) = build(n);
    let barrier = Arc::new(Barrier::new(n + 1));
    let mut handles = Vec::with_capacity(n);
    for pid in pids {
        let sys = sys.clone();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            let words = words_uri();
            let args = QueryArgs::default();
            barrier.wait();
            for i in 0..ITERS {
                let id = (i % DICT_ROWS) as i64 + 1;
                sys.cp_query(pid, &words.with_id(id), &args).expect("query");
            }
            ITERS as u64
        }));
    }
    barrier.wait();
    let start = Instant::now();
    let total: u64 = handles.into_iter().map(|h| h.join().expect("reader")).sum();
    let secs = start.elapsed().as_secs_f64();
    (total, secs)
}

/// One repetition of 4 readers + 1 delegate writer. Returns aggregate
/// reader queries/sec and the writer's updates/sec over the same window:
/// the writer runs unthrottled, so the readers' rate falls as its share
/// of the exclusive lock rises.
fn run_contended() -> (f64, f64) {
    const N: usize = 4;
    let (sys, pids) = build(N);
    sys.install("bench.writer", vec![], MaxoidManifest::new()).expect("install writer");
    sys.install("bench.init", vec![], MaxoidManifest::new()).expect("install init");
    let writer = sys.launch_as_delegate("bench.writer", "bench.init").expect("delegate");
    let stop = Arc::new(AtomicBool::new(false));
    let writes = Arc::new(AtomicU64::new(0));
    let wsys = sys.clone();
    let wstop = stop.clone();
    let wcount = writes.clone();
    let writer_handle = std::thread::spawn(move || {
        let words = words_uri();
        let args = QueryArgs::default();
        let mut i = 0usize;
        while !wstop.load(Ordering::Relaxed) {
            let id = (i % DICT_ROWS) as i64 + 1;
            wsys.cp_update(
                writer,
                &words.with_id(id),
                &ContentValues::new().put("word", format!("c{i}").as_str()),
                &args,
            )
            .expect("contended update");
            wcount.fetch_add(1, Ordering::Relaxed);
            i += 1;
            std::thread::yield_now();
        }
    });
    let barrier = Arc::new(Barrier::new(N + 1));
    let mut handles = Vec::with_capacity(N);
    for pid in pids {
        let sys = sys.clone();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            let words = words_uri();
            let args = QueryArgs::default();
            barrier.wait();
            for i in 0..ITERS {
                let id = (i % DICT_ROWS) as i64 + 1;
                sys.cp_query(pid, &words.with_id(id), &args).expect("query");
            }
            ITERS as u64
        }));
    }
    barrier.wait();
    let start = Instant::now();
    let w0 = writes.load(Ordering::Relaxed);
    let total: u64 = handles.into_iter().map(|h| h.join().expect("reader")).sum();
    let secs = start.elapsed().as_secs_f64();
    let w1 = writes.load(Ordering::Relaxed);
    stop.store(true, Ordering::Relaxed);
    writer_handle.join().expect("writer");
    (total as f64 / secs, (w1 - w0) as f64 / secs)
}

fn main() {
    let mut json = BenchJson::new("mvcc");
    println!("Shared-lock reads — N reader threads on one dictionary authority");
    println!("({ITERS} point queries/thread, best of {REPS} reps, {} core(s))\n", cores());

    println!("Reader scaling:");
    let storm = |n| {
        let (ops, secs) = run_readers(n);
        ops as f64 / secs
    };
    let best = best_of_alternated(REPS, &READER_COUNTS, storm, |&rate| rate);
    for (&n, &rate) in READER_COUNTS.iter().zip(&best) {
        let speedup = rate / best[0];
        json.push_scalar(&format!("mvcc/readers{n}/ops_per_sec"), rate, Unit::OpsPerSec);
        json.push_scalar(&format!("mvcc/readers{n}/speedup"), speedup, Unit::Ratio);
        println!("  {n} reader(s): {rate:>12.0} q/s | speedup {speedup:>5.2}x");
    }

    let (contended, writes) = (0..REPS)
        .map(|_| run_contended())
        .max_by(|a, b| a.0.total_cmp(&b.0))
        .expect("at least one repetition");
    json.push_scalar("mvcc/contended/readers4_writer1/ops_per_sec", contended, Unit::OpsPerSec);
    json.push_scalar("mvcc/contended/readers4_writer1/writer_ops_per_sec", writes, Unit::OpsPerSec);
    println!(
        "  4 readers + 1 writer: {contended:>12.0} q/s (reader aggregate), {writes:.0} updates/s"
    );

    json.finish();
}
