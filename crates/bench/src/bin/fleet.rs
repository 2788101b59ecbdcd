//! Fleet-scale simulator: one shared [`MaxoidSystem`] booted with 1000+
//! initiator/delegate tenant pairs, driven by 10k+ short sessions with a
//! Zipfian tenant-popularity skew (a few hot tenants, a long cold tail —
//! the shape of a real device fleet behind one confinement service).
//!
//! Each session picks a tenant by Zipf rank, runs a short interactive
//! burst through that tenant's delegate — union-mounted private reads, a
//! volatile public write, sparse COW provider traffic, an occasional
//! commit gesture — separated by a tiny deterministic think-time spin.
//! Sessions are driven by 1 and 8 worker threads over the same booted
//! fleet, the two legs alternating over three repetitions; each leg's
//! best repetition is reported, its per-session wall latencies feeding
//! nearest-rank p50/p95/p99.
//!
//! After the drive the per-tenant COW accounting (`tenant_stats`) is
//! sampled over the hottest tenants, the idle-tenant evictor runs, and
//! the sample is re-measured: volatile bytes and delta rows must drop to
//! zero (the "bounded after eviction" gate), while committed state is
//! untouched.
//!
//! Run with: `cargo run --release -p maxoid-bench --bin fleet`
//! Writes `BENCH_fleet.json`, then exits non-zero when 8-worker
//! throughput falls below its core-aware floor, eviction leaves volatile
//! state behind, or the evictor finds no idle tenant (`report::GATES`).
//! `FLEET_TENANTS` / `FLEET_SESSIONS` shrink the run for smoke testing.

use maxoid::manifest::MaxoidManifest;
use maxoid::{ContentValues, MaxoidSystem, Pid, QueryArgs, Uri, VolCommitPlan};
use maxoid_bench::{best_of_alternated, cores, BenchJson, Measurement, Unit};
use maxoid_vfs::{vpath, Mode, VPath};
use std::sync::{Arc, Barrier};
use std::time::Instant;

const DEFAULT_TENANTS: usize = 1000;
const DEFAULT_SESSIONS: usize = 10_000;
const DICT_ROWS: usize = 100;
const SEEDED_FILES: usize = 4;
const FILE_BYTES: usize = 1024;
/// Zipf exponent: rank-1 tenants dominate, the tail stays warm.
const ZIPF_S: f64 = 1.0;
/// Tenants sampled for the COW-accounting cells (the Zipf-hot head).
const COW_SAMPLE: usize = 32;
/// Think-time between session ops: a deterministic spin (the user
/// glancing at the screen) plus a scheduler yield at the session
/// boundary — real sessions are interleaved by the scheduler at their
/// natural gaps, which also keeps an oversubscribed single-core run from
/// stranding locks mid-critical-section when the quantum expires.
const THINK_SPINS: u64 = 64;
/// Worker counts of the session drive.
const WORKERS: [usize; 2] = [1, 8];
/// Repetitions of the drive; each runs both worker counts, in reverse
/// order on alternate repetitions.
const REPS: usize = 3;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn words_uri() -> Uri {
    Uri::parse("content://user_dictionary/words").expect("uri")
}

struct TenantCtx {
    init: String,
    del_pid: Pid,
    files: Vec<VPath>,
}

/// Boots one system with `n` tenant pairs: installs initiator + delegate
/// apps, seeds each delegate's private read set, and leaves one delegate
/// process per tenant running on the initiator's behalf.
fn build(n: usize) -> (Arc<MaxoidSystem>, Vec<TenantCtx>) {
    let sys = MaxoidSystem::boot().expect("boot");
    sys.install("fleet.seeder", vec![], MaxoidManifest::new()).expect("install seeder");
    let seeder = sys.launch("fleet.seeder").expect("launch seeder");
    let words = words_uri();
    for i in 0..DICT_ROWS {
        sys.cp_insert(seeder, &words, &ContentValues::new().put("word", format!("w{i}").as_str()))
            .expect("seed dict");
    }

    let payload = vec![0xabu8; FILE_BYTES];
    let mut ctxs = Vec::with_capacity(n);
    for t in 0..n {
        let app = format!("fleet.app{t}");
        let init = format!("fleet.init{t}");
        sys.install(&app, vec![], MaxoidManifest::new()).expect("install app");
        sys.install(&init, vec![], MaxoidManifest::new()).expect("install init");
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
        ctxs.push(TenantCtx { init, del_pid, files });
    }
    (Arc::new(sys), ctxs)
}

/// Deterministic xorshift64* — per-worker, seeded by worker index, so
/// runs are reproducible and workers don't correlate.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
    fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Cumulative Zipf(s) distribution over `n` ranks; sample by inverting a
/// uniform draw with binary search.
fn zipf_cdf(n: usize) -> Vec<f64> {
    let mut cum = Vec::with_capacity(n);
    let mut total = 0.0;
    for r in 0..n {
        total += 1.0 / ((r + 1) as f64).powf(ZIPF_S);
        cum.push(total);
    }
    for c in &mut cum {
        *c /= total;
    }
    cum
}

fn zipf_sample(cdf: &[f64], rng: &mut Rng) -> usize {
    let u = rng.next_f64();
    cdf.partition_point(|&c| c < u).min(cdf.len() - 1)
}

fn think() {
    let mut acc = 0u64;
    for i in 0..THINK_SPINS {
        acc = std::hint::black_box(acc.wrapping_add(i));
    }
    std::hint::black_box(acc);
}

/// One tenant session: a short interactive burst through the tenant's
/// delegate. Returns ops issued.
fn run_session(sys: &MaxoidSystem, ctx: &TenantCtx, k: usize) -> u64 {
    let mut ops = 0u64;
    let diag = std::env::var("FLEET_DIAG").unwrap_or_default();
    if diag == "reads" {
        for i in 0..3 {
            sys.kernel.read(ctx.del_pid, &ctx.files[(k + i) % SEEDED_FILES]).expect("read");
            ops += 1;
        }
        return ops;
    }
    if diag == "writes" {
        let out = vpath(&format!("/storage/sdcard/{}_s{}.dat", ctx.init, k % 8));
        let body = vec![(k % 251) as u8; FILE_BYTES];
        sys.kernel.write(ctx.del_pid, &out, &body, Mode::PUBLIC).expect("vol write");
        return 1;
    }
    if diag == "cp" {
        let words = words_uri();
        let id = (k % DICT_ROWS) as i64 + 1;
        if k % 4 == 3 {
            sys.cp_update(
                ctx.del_pid,
                &words.with_id(id),
                &ContentValues::new().put("word", format!("s{k}").as_str()),
                &QueryArgs::default(),
            )
            .expect("update");
        } else {
            sys.cp_query(ctx.del_pid, &words.with_id(id), &QueryArgs::default()).expect("query");
        }
        return 1;
    }
    if diag == "commit" {
        sys.commit_vol(&ctx.init, &VolCommitPlan::default()).expect("commit");
        return 1;
    }
    let skip_cp = diag == "nocp";
    let skip_commit = diag == "nocommit";
    // Two private reads through the delegate's union mounts.
    for i in 0..2 {
        sys.kernel.read(ctx.del_pid, &ctx.files[(k + i) % SEEDED_FILES]).expect("read");
        ops += 1;
    }
    think();
    // A public write, redirected into Vol(init); bounded name set keeps
    // per-tenant volatile state finite while still accreting real bytes.
    let out = vpath(&format!("/storage/sdcard/{}_s{}.dat", ctx.init, k % 8));
    let body = vec![(k % 251) as u8; FILE_BYTES];
    sys.kernel.write(ctx.del_pid, &out, &body, Mode::PUBLIC).expect("vol write");
    ops += 1;
    if k % 16 == 7 && !skip_cp {
        // Sparse COW provider traffic: a point query, and every fourth
        // one an update into the tenant's delta table (first update pays
        // the delta DDL — part of the modelled cost).
        let words = words_uri();
        let id = (k % DICT_ROWS) as i64 + 1;
        if k % 64 == 39 {
            sys.cp_update(
                ctx.del_pid,
                &words.with_id(id),
                &ContentValues::new().put("word", format!("s{k}").as_str()),
                &QueryArgs::default(),
            )
            .expect("update");
        } else {
            sys.cp_query(ctx.del_pid, &words.with_id(id), &QueryArgs::default()).expect("query");
        }
        ops += 1;
    }
    if k % 128 == 63 && !skip_commit {
        // Occasional (empty) commit gesture: ticks the activity clock
        // and exercises the gesture-lock path under fleet load.
        sys.commit_vol(&ctx.init, &VolCommitPlan::default()).expect("commit");
        ops += 1;
    }
    ops
}

/// Drives `sessions` Zipf-skewed tenant sessions over `threads` workers.
/// Returns (total ops, elapsed secs, per-session latencies).
fn drive(
    sys: &Arc<MaxoidSystem>,
    ctxs: &Arc<Vec<TenantCtx>>,
    cdf: &Arc<Vec<f64>>,
    sessions: usize,
    threads: usize,
) -> (u64, f64, Measurement) {
    let barrier = Arc::new(Barrier::new(threads + 1));
    let per_worker = sessions / threads;
    let mut handles = Vec::with_capacity(threads);
    for w in 0..threads {
        let sys = sys.clone();
        let ctxs = ctxs.clone();
        let cdf = cdf.clone();
        let barrier = barrier.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = Rng::new(w as u64 + 1);
            let mut lats = Vec::with_capacity(per_worker);
            let mut ops = 0u64;
            barrier.wait();
            for s in 0..per_worker {
                let t = zipf_sample(&cdf, &mut rng);
                let k = w * per_worker + s;
                let started = Instant::now();
                ops += run_session(&sys, &ctxs[t], k);
                lats.push(started.elapsed().as_nanos() as u64);
                std::thread::yield_now();
            }
            (ops, lats)
        }));
    }
    barrier.wait();
    let start = Instant::now();
    let mut total = 0u64;
    let mut lats = Vec::with_capacity(sessions);
    for h in handles {
        let (ops, mut l) = h.join().expect("worker");
        total += ops;
        lats.append(&mut l);
    }
    (total, start.elapsed().as_secs_f64(), Measurement { trials_ns: lats })
}

fn main() {
    let tenants = env_usize("FLEET_TENANTS", DEFAULT_TENANTS);
    let sessions = env_usize("FLEET_SESSIONS", DEFAULT_SESSIONS);
    let mut json = BenchJson::new("fleet");
    println!(
        "Fleet simulator — {tenants} tenant pairs, {sessions} Zipf(s={ZIPF_S}) sessions, {} core(s)\n",
        cores()
    );
    json.push_scalar("fleet/tenants", tenants as f64, Unit::Count);
    json.push_scalar("fleet/sessions", sessions as f64, Unit::Count);

    // Fleet boot: how fast the sharded substrate absorbs tenant churn.
    println!("Booting {tenants} tenant pairs…");
    let boot_start = Instant::now();
    let (sys, ctxs) = build(tenants);
    let boot_secs = boot_start.elapsed().as_secs_f64();
    let ctxs = Arc::new(ctxs);
    let cdf = Arc::new(zipf_cdf(tenants));
    json.push_scalar("fleet/boot/secs", boot_secs, Unit::Seconds);
    json.push_scalar("fleet/boot/tenants_per_sec", tenants as f64 / boot_secs, Unit::OpsPerSec);
    println!("  booted in {boot_secs:.2}s ({:.0} tenants/s)\n", tenants as f64 / boot_secs);

    if std::env::var("FLEET_OBS").is_ok() {
        maxoid_obs::enable();
        let (_, secs, _) = drive(&sys, &ctxs, &cdf, sessions, 1);
        maxoid_obs::disable();
        let snap = maxoid_obs::take_snapshot();
        let mut totals: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
        for sp in &snap.spans {
            let e = totals.entry(sp.name).or_default();
            e.0 += 1;
            e.1 += sp.dur_ns;
        }
        let mut rows: Vec<_> = totals.into_iter().collect();
        rows.sort_by_key(|(_, (_, ns))| std::cmp::Reverse(*ns));
        println!("top spans over {secs:.2}s:");
        for (name, (n, ns)) in rows.iter().take(15) {
            println!("  {name:<32} n={n:<8} total={:>9.1}ms", *ns as f64 / 1e6);
        }
        return;
    }

    // Session drive at 1 and 8 workers over the same fleet, alternating
    // which leg runs first, so neither always runs on the warmer system
    // or the faster stretch of a host whose speed drifts.
    let drives = best_of_alternated(
        REPS,
        &WORKERS,
        |threads| drive(&sys, &ctxs, &cdf, sessions, threads),
        |(ops, secs, _)| *ops as f64 / secs,
    );
    for (&threads, (ops, secs, lats)) in WORKERS.iter().zip(&drives) {
        let rate = *ops as f64 / secs;
        let [p50, p95, p99] = [0.50, 0.95, 0.99].map(|q| lats.percentile_ns(q) / 1e3);
        let per_sec = lats.trials_ns.len() as f64 / secs;
        let cell = |what: &str| format!("fleet/threads{threads}/{what}");
        json.push_scalar(&cell("ops_per_sec"), rate, Unit::OpsPerSec);
        json.push_scalar(&cell("sessions_per_sec"), per_sec, Unit::OpsPerSec);
        json.push_scalar(&cell("session_p50_us"), p50, Unit::Us);
        json.push_scalar(&cell("session_p95_us"), p95, Unit::Us);
        json.push_scalar(&cell("session_p99_us"), p99, Unit::Us);
        println!(
            "  {threads} worker(s): {rate:>10.0} ops/s | session p50 {p50:>7.1}us p95 {p95:>7.1}us p99 {p99:>7.1}us"
        );
    }

    // Per-tenant COW accounting over the Zipf-hot head, before and after
    // idle eviction. Everything is idle once the drive stops, so the
    // evictor must reclaim all sampled volatile state.
    let sample = COW_SAMPLE.min(tenants);
    let collect = |sys: &MaxoidSystem| {
        let mut vol_bytes = 0u64;
        let mut cow_bytes = 0u64;
        let mut delta_rows = 0usize;
        let mut max_total = 0u64;
        for ctx in ctxs.iter().take(sample) {
            let st = sys.tenant_stats(&ctx.init).expect("stats");
            vol_bytes += st.volatile_bytes;
            cow_bytes += st.cow_bytes;
            delta_rows += st.delta_rows;
            max_total = max_total.max(st.total_bytes());
        }
        (vol_bytes, cow_bytes, delta_rows, max_total)
    };
    let (vol_before, cow_before, rows_before, max_before) = collect(&sys);
    println!(
        "\nCOW accounting over {sample} hottest tenants (before eviction):\n  \
         volatile {vol_before} B | cow {cow_before} B | delta rows {rows_before} | max tenant {max_before} B"
    );
    json.push_scalar("fleet/cow/sampled_tenants", sample as f64, Unit::Count);
    json.push_scalar("fleet/cow/volatile_bytes_before", vol_before as f64, Unit::Bytes);
    json.push_scalar("fleet/cow/cow_bytes_before", cow_before as f64, Unit::Bytes);
    json.push_scalar("fleet/cow/delta_rows_before", rows_before as f64, Unit::Count);
    json.push_scalar("fleet/cow/max_tenant_bytes_before", max_before as f64, Unit::Bytes);
    json.push_scalar(
        "fleet/cow/per_tenant_volatile_bytes_before",
        vol_before as f64 / sample as f64,
        Unit::Bytes,
    );

    let evict_start = Instant::now();
    let report = sys.evict_idle_tenants(0).expect("evict");
    let evict_secs = evict_start.elapsed().as_secs_f64();
    let (vol_after, _cow_after, rows_after, max_after) = collect(&sys);
    println!(
        "Evicted {} tenants ({} files) in {evict_secs:.2}s; after: volatile {vol_after} B | \
         delta rows {rows_after} | max tenant {max_after} B",
        report.tenants, report.files_removed
    );
    json.push_scalar("fleet/evict/tenants", report.tenants as f64, Unit::Count);
    json.push_scalar("fleet/evict/files_removed", report.files_removed as f64, Unit::Count);
    json.push_scalar("fleet/evict/secs", evict_secs, Unit::Seconds);
    json.push_scalar("fleet/cow/volatile_bytes_after", vol_after as f64, Unit::Bytes);
    json.push_scalar("fleet/cow/delta_rows_after", rows_after as f64, Unit::Count);
    json.push_scalar(
        "fleet/cow/per_tenant_volatile_bytes_after",
        vol_after as f64 / sample as f64,
        Unit::Bytes,
    );
    json.push_scalar("fleet/init_locks/retained", sys.init_lock_count() as f64, Unit::Count);

    json.finish();
}
