//! Thread-scaling benchmark: one shared [`MaxoidSystem`] driven by N
//! concurrent app threads (the PR's tentpole exercise).
//!
//! Each thread models one initiator with a delegate viewer running on its
//! behalf: a read-heavy mix of 4 KB file reads through the delegate's
//! union mounts, occasional 4 KB private writes, and sparse User
//! Dictionary queries/updates through the COW proxy (all threads share
//! the one dictionary authority, so those serialize on its provider
//! mutex — the sparse mix mirrors an interactive device where provider
//! IPC is rare next to file I/O).
//!
//! Reported per thread count N ∈ {1,2,4,8}: aggregate ops/sec, speedup
//! vs N=1 and scaling efficiency vs `min(N, cores)` (on a single-core
//! host the workload can only interleave; CI runs this on multi-core
//! runners where the read-parallel hot paths must actually scale).
//!
//! Run with: `cargo run --release -p maxoid-bench --bin concurrency`
//! Writes `BENCH_concurrency.json`; exits non-zero when 4-thread
//! aggregate throughput falls below its core-aware floor (`report::GATES`).

use maxoid::manifest::MaxoidManifest;
use maxoid::{ContentValues, MaxoidSystem, Pid, QueryArgs, Uri};
use maxoid_bench::{best_of_alternated, cores, BenchJson, Unit};
use maxoid_vfs::{vpath, Mode, VPath};
use std::sync::{Arc, Barrier};
use std::time::Instant;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Iterations of the mixed loop per thread per repetition.
const ITERS: usize = 20_000;
/// Repetitions; each runs every thread count once, in reverse order on
/// alternate repetitions, and each count's best (highest-throughput) rep
/// is reported, discarding scheduler noise.
const REPS: usize = 3;
const DICT_ROWS: usize = 1000;
const FILE_KB: usize = 4;
const SEEDED_FILES: usize = 8;

/// Per-thread actors on the shared system.
struct ThreadCtx {
    init_pid: Pid,
    del_pid: Pid,
    files: Vec<VPath>,
    scratch: VPath,
}

fn words_uri() -> Uri {
    Uri::parse("content://user_dictionary/words").expect("uri")
}

/// Boots one system with `n` initiator/delegate pairs and a seeded
/// dictionary shared by everyone.
fn build(n: usize) -> (Arc<MaxoidSystem>, Vec<ThreadCtx>) {
    let sys = MaxoidSystem::boot().expect("boot");
    // Shared dictionary rows, inserted by a plain app.
    sys.install("bench.seeder", vec![], MaxoidManifest::new()).expect("install seeder");
    let seeder = sys.launch("bench.seeder").expect("launch seeder");
    let words = words_uri();
    for i in 0..DICT_ROWS {
        sys.cp_insert(seeder, &words, &ContentValues::new().put("word", format!("w{i}").as_str()))
            .expect("seed dict");
    }

    let payload = vec![0xabu8; FILE_KB * 1024];
    let mut ctxs = Vec::with_capacity(n);
    for t in 0..n {
        let app = format!("bench.app{t}");
        let init = format!("bench.init{t}");
        sys.install(&app, vec![], MaxoidManifest::new()).expect("install app");
        sys.install(&init, vec![], MaxoidManifest::new()).expect("install init");
        // Seed the delegate's read set while the app runs normally, so
        // the files sit in the read-only branch of the delegate union.
        let seed_pid = sys.launch(&app).expect("launch");
        let dir = vpath(&format!("/data/data/{app}/files"));
        sys.kernel.mkdir_all(seed_pid, &dir, Mode::PRIVATE).expect("mkdir");
        let mut files = Vec::with_capacity(SEEDED_FILES);
        for i in 0..SEEDED_FILES {
            let p = dir.join(&format!("orig{i}.dat")).expect("name");
            sys.kernel.write(seed_pid, &p, &payload, Mode::PRIVATE).expect("seed");
            files.push(p);
        }
        let del_pid = sys.launch_as_delegate(&app, &init).expect("delegate");
        let init_pid = sys.launch(&init).expect("launch init");
        let scratch = dir.join("scratch.dat").expect("name");
        // Warm the expensive one-time paths outside the timed loop: the
        // first delegate dict update creates the initiator's delta
        // tables (DDL), the first scratch write creates the file.
        sys.cp_update(
            del_pid,
            &words.with_id(1),
            &ContentValues::new().put("word", "warm"),
            &QueryArgs::default(),
        )
        .expect("warm delta");
        sys.kernel.write(del_pid, &scratch, &payload, Mode::PRIVATE).expect("warm scratch");
        ctxs.push(ThreadCtx { init_pid, del_pid, files, scratch });
    }
    (Arc::new(sys), ctxs)
}

/// The per-thread mixed loop. Returns the number of operations issued.
fn run_mix(sys: &MaxoidSystem, ctx: &ThreadCtx, iters: usize) -> u64 {
    let words = words_uri();
    let payload = vec![0x5au8; FILE_KB * 1024];
    let args = QueryArgs::default();
    let mut ops = 0u64;
    for i in 0..iters {
        // Read-heavy floor: a 4 KB read through the delegate's union
        // (parallel under the store read lock + resolve caches).
        sys.kernel.read(ctx.del_pid, &ctx.files[i % SEEDED_FILES]).expect("read");
        ops += 1;
        if i % 16 == 7 {
            // Private 4 KB write (store write lock: exclusive).
            sys.kernel.write(ctx.del_pid, &ctx.scratch, &payload, Mode::PRIVATE).expect("write");
            ops += 1;
        }
        if i % 32 == 15 {
            // Dict point query; alternate initiator/delegate callers.
            let pid = if i % 64 == 15 { ctx.del_pid } else { ctx.init_pid };
            let id = (i % DICT_ROWS) as i64 + 1;
            sys.cp_query(pid, &words.with_id(id), &args).expect("query");
            ops += 1;
        }
        if i % 128 == 31 {
            // Delegate dict update: COW write into the delta table.
            let id = (i % DICT_ROWS) as i64 + 1;
            sys.cp_update(
                ctx.del_pid,
                &words.with_id(id),
                &ContentValues::new().put("word", format!("t{i}").as_str()),
                &args,
            )
            .expect("update");
            ops += 1;
        }
    }
    ops
}

/// One repetition at `n` threads: returns (total ops, elapsed seconds).
fn run_once(n: usize) -> (u64, f64) {
    let (sys, ctxs) = build(n);
    let barrier = Arc::new(Barrier::new(n + 1));
    let mut handles = Vec::with_capacity(n);
    for ctx in ctxs {
        let sys = sys.clone();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            run_mix(&sys, &ctx, ITERS)
        }));
    }
    barrier.wait();
    let start = Instant::now();
    let total: u64 = handles.into_iter().map(|h| h.join().expect("thread")).sum();
    (total, start.elapsed().as_secs_f64())
}

fn main() {
    let cores = cores();
    let mut json = BenchJson::new("concurrency");
    println!("Concurrent multi-app execution — one shared system, N app threads");
    println!("({ITERS} mixed iterations/thread, best of {REPS} reps, {cores} core(s))\n");

    let rate = |n| {
        let (ops, secs) = run_once(n);
        ops as f64 / secs
    };
    let ops_per_sec = best_of_alternated(REPS, &THREAD_COUNTS, rate, |&r| r);
    for (&n, &best) in THREAD_COUNTS.iter().zip(&ops_per_sec) {
        let speedup = best / ops_per_sec[0];
        // Parallel hardware can only be exploited up to the core count.
        let ideal = n.min(cores) as f64;
        let efficiency = speedup / ideal;
        json.push_scalar(&format!("concurrency/threads{n}/ops_per_sec"), best, Unit::OpsPerSec);
        json.push_scalar(&format!("concurrency/threads{n}/speedup"), speedup, Unit::Ratio);
        json.push_scalar(&format!("concurrency/threads{n}/efficiency"), efficiency, Unit::Ratio);
        println!(
            "  {n} thread(s): {best:>12.0} ops/s | speedup {speedup:>5.2}x | efficiency {:>5.1}% (vs {ideal:.0} ideal)",
            efficiency * 100.0
        );
    }
    json.finish();
}
