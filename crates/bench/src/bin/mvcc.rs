//! MVCC read-path benchmark: snapshot reader scaling on one authority.
//!
//! The PR-9 tentpole splits each resolver entry into a write lock plus a
//! lock-free read handle served from a published [`maxoid_sqldb`] MVCC
//! snapshot. This benchmark measures what that buys: N reader threads
//! all point-querying the *same* User Dictionary authority, which under
//! the old design serialized on the provider mutex and now proceed
//! without it.
//!
//! Reported:
//! - `mvcc/readers{N}/ops_per_sec` for N ∈ {1,2,4,8} — aggregate
//!   point-query throughput, best of 3 reps, plus speedup vs N=1 and
//!   the fraction of queries served from the snapshot path (the run
//!   aborts if a storm never took the snapshot path).
//! - `mvcc/contended/readers4_writer1/ops_per_sec` — the same storm
//!   with one delegate writer mutating the authority, exercising the
//!   retract/republish discipline.
//!
//! Run with: `cargo run --release -p maxoid-bench --bin mvcc`
//! Writes `BENCH_mvcc.json`; exits non-zero when multi-reader
//! throughput falls below its core-aware floor (`report::GATES`: on ≥2
//! cores a 4-reader storm must at least match one reader; on a single
//! core it must stay within 0.9× — snapshot reads don't contend, so even
//! interleaved they should not cost more than a lone reader).

use maxoid::manifest::MaxoidManifest;
use maxoid::{ContentValues, MaxoidSystem, Pid, QueryArgs, Uri};
use maxoid_bench::{cores, BenchJson, Unit};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

const READER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Point queries per reader thread per repetition.
const ITERS: usize = 20_000;
/// Repetitions per reader count; the best rep is reported.
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
/// (total queries, elapsed seconds, snapshot-path fraction).
fn run_readers(n: usize) -> (u64, f64, f64) {
    let (sys, pids) = build(n);
    let (snap0, locked0) = sys.resolver.read_path_stats();
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
    let (snap1, locked1) = sys.resolver.read_path_stats();
    let (snap, locked) = (snap1 - snap0, locked1 - locked0);
    let frac = snap as f64 / (snap + locked).max(1) as f64;
    // The whole point of the read-path split: a steady-state reader
    // storm must be served from snapshots, not the provider mutex.
    assert!(snap > 0, "reader storm never took the snapshot path");
    (total, secs, frac)
}

/// One repetition of 4 readers + 1 delegate writer. Returns aggregate
/// reader queries/sec (the writer is load, not payload).
fn run_contended() -> f64 {
    const N: usize = 4;
    let (sys, pids) = build(N);
    sys.install("bench.writer", vec![], MaxoidManifest::new()).expect("install writer");
    sys.install("bench.init", vec![], MaxoidManifest::new()).expect("install init");
    let writer = sys.launch_as_delegate("bench.writer", "bench.init").expect("delegate");
    let stop = Arc::new(AtomicBool::new(false));
    let wsys = sys.clone();
    let wstop = stop.clone();
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
    let total: u64 = handles.into_iter().map(|h| h.join().expect("reader")).sum();
    let secs = start.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    writer_handle.join().expect("writer");
    total as f64 / secs
}

fn main() {
    let mut json = BenchJson::new("mvcc");
    println!("MVCC snapshot reads — N reader threads on one dictionary authority");
    println!("({ITERS} point queries/thread, best of {REPS} reps, {} core(s))\n", cores());

    println!("Reader scaling:");
    let mut ops_per_sec = Vec::new();
    for &n in &READER_COUNTS {
        let mut best = 0.0f64;
        let mut frac = 0.0f64;
        for _ in 0..REPS {
            let (ops, secs, f) = run_readers(n);
            let rate = ops as f64 / secs;
            if rate > best {
                best = rate;
                frac = f;
            }
        }
        ops_per_sec.push(best);
        let speedup = best / ops_per_sec[0];
        json.push_scalar(&format!("mvcc/readers{n}/ops_per_sec"), best, Unit::OpsPerSec);
        json.push_scalar(&format!("mvcc/readers{n}/speedup"), speedup, Unit::Ratio);
        json.push_scalar(&format!("mvcc/readers{n}/snapshot_read_fraction"), frac, Unit::Ratio);
        println!(
            "  {n} reader(s): {best:>12.0} q/s | speedup {speedup:>5.2}x | snapshot path {:>5.1}%",
            frac * 100.0
        );
    }

    let contended = (0..REPS).map(|_| run_contended()).fold(0.0f64, f64::max);
    json.push_scalar("mvcc/contended/readers4_writer1/ops_per_sec", contended, Unit::OpsPerSec);
    println!("  4 readers + 1 writer: {contended:>12.0} q/s (reader aggregate)");

    json.finish();
}
