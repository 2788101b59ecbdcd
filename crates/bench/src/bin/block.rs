//! Block-layer ablations: what paging file content through a device
//! costs, and what the page cache buys back.
//!
//! Three experiment families, emitted to `BENCH_block.json`:
//!
//! - **backend** — the same 4KB file read/write loops against a resident
//!   store, a mem-device-backed paged store, and a file-device-backed
//!   paged store, with a hot set that fits the cache. The paged cells pay
//!   spill bookkeeping and cache lookups but no device I/O on hits, so
//!   they must stay within 3x of resident by median (the CI gate for
//!   the block-layer hot path, in `report::GATES`).
//! - **working_set sweep** — read hit rates as the working set grows from
//!   0.5x to 4x the page budget. The cache's memory is structural
//!   (`budget_bytes` never moves); what degrades is the hit rate, and
//!   the sweep quantifies the cliff.
//! - **cold_boot** — end-to-end `MaxoidSystem::boot_journaled` latency
//!   from a file-backed [`BlockStorage`] holding 100/1000-record logs:
//!   the crash-restart cost the journal+block stack promises to bound.
//!
//! Run with: `cargo run --release -p maxoid-bench --bin block`

use maxoid::manifest::MaxoidManifest;
use maxoid::{Caller, ContentValues, MaxoidSystem, QueryArgs, Uri};
use maxoid_bench::{measure, measure_interleaved, BenchJson, Case, Measurement, Unit};
use maxoid_block::{FileDevice, MemDevice};
use maxoid_journal::{BlockStorage, Journal};
use maxoid_vfs::{vpath, Mode, Store, Uid};
use std::cell::RefCell;
use std::rc::Rc;

const TRIALS: usize = 300;

/// Page budget for the paged backends: 16 x 4096 = 64 KiB.
const PAGES: usize = 16;

/// Spill threshold for the paged backends: everything over 64 bytes goes
/// to sectors, so the 4KB cells below always exercise the block path.
const THRESHOLD: usize = 64;

/// Files in the hot set: 8 x 4KB = 32 KiB, half the page budget, so the
/// steady state is all hits.
const HOT_FILES: usize = 8;

/// The backend axis of the `backend` family.
const BACKENDS: [&str; 3] = ["resident", "paged_mem", "paged_file"];

fn hot_store(backend: &str) -> Store {
    let s = match backend {
        "resident" => Store::new(),
        "paged_mem" => Store::with_block_device(Box::new(MemDevice::new()), PAGES, THRESHOLD),
        "paged_file" => Store::with_block_device(
            Box::new(FileDevice::temp("bench-hot").expect("temp device")),
            PAGES,
            THRESHOLD,
        ),
        other => unreachable!("unknown backend {other}"),
    };
    s.mkdir_all(&vpath("/data"), Uid::ROOT, Mode::PUBLIC).expect("mkdir");
    let payload = vec![0xabu8; 4096];
    for i in 0..HOT_FILES {
        s.write(
            &vpath("/data").join(&format!("f{i}.dat")).unwrap(),
            &payload,
            Uid::ROOT,
            Mode::PUBLIC,
        )
        .expect("seed");
    }
    s
}

fn main() {
    let mut json = BenchJson::new("block");
    println!("Block-layer ablations — paged backends, cache sweep, cold boot");
    println!("({TRIALS} interleaved trials per cell)\n");

    // --- backend: 4KB read on a cache-resident hot set ----------------
    let reads = measure_interleaved(
        TRIALS,
        BACKENDS
            .iter()
            .map(|&backend| {
                let s = Rc::new(RefCell::new(hot_store(backend)));
                let i = Rc::new(RefCell::new(0usize));
                let case: Case = (
                    Box::new(|| {}),
                    Box::new(move || {
                        let mut k = i.borrow_mut();
                        *k += 1;
                        let path =
                            vpath("/data").join(&format!("f{}.dat", *k % HOT_FILES)).unwrap();
                        std::hint::black_box(s.borrow().read(&path).expect("read"));
                    }),
                );
                case
            })
            .collect(),
    );
    println!("backend, 4KB read (hot set {} KiB, budget {} KiB):", HOT_FILES * 4, PAGES * 4);
    print_row(&mut json, "backend/read_4k", &reads);

    // --- backend: 4KB overwrite on the same hot set -------------------
    let writes = measure_interleaved(
        TRIALS,
        BACKENDS
            .iter()
            .map(|&backend| {
                let s = Rc::new(RefCell::new(hot_store(backend)));
                let i = Rc::new(RefCell::new(0usize));
                let payload = vec![0x5au8; 4096];
                let case: Case = (
                    Box::new(|| {}),
                    Box::new(move || {
                        let mut k = i.borrow_mut();
                        *k += 1;
                        let path =
                            vpath("/data").join(&format!("f{}.dat", *k % HOT_FILES)).unwrap();
                        s.borrow_mut()
                            .write(&path, &payload, Uid::ROOT, Mode::PUBLIC)
                            .expect("write");
                    }),
                );
                case
            })
            .collect(),
    );
    println!("\nbackend, 4KB overwrite:");
    print_row(&mut json, "backend/write_4k", &writes);

    // --- working-set sweep: hit rate vs cache pressure ----------------
    println!("\nworking-set sweep (page budget {} KiB, sequential re-read passes):", PAGES * 4);
    for ratio in [0.5f64, 1.0, 2.0, 4.0] {
        let files = ((PAGES as f64 * ratio) as usize).max(1);
        let s = Store::with_block_device(Box::new(MemDevice::new()), PAGES, THRESHOLD);
        s.mkdir_all(&vpath("/data"), Uid::ROOT, Mode::PUBLIC).expect("mkdir");
        let payload = vec![0x77u8; 4096];
        for i in 0..files {
            s.write(
                &vpath("/data").join(&format!("f{i}.dat")).unwrap(),
                &payload,
                Uid::ROOT,
                Mode::PUBLIC,
            )
            .expect("seed");
        }
        let seeded = s.stats().cache.expect("paged store");
        for _pass in 0..8 {
            for i in 0..files {
                std::hint::black_box(
                    s.read(&vpath("/data").join(&format!("f{i}.dat")).unwrap()).expect("read"),
                );
            }
        }
        let st = s.stats();
        let c = st.cache.expect("paged store");
        let (hits, misses) = (c.hits - seeded.hits, c.misses - seeded.misses);
        let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
        let cell = |what: &str| format!("working_set/ratio{ratio}/{what}");
        json.push_scalar(&cell("hit_rate"), hit_rate, Unit::Ratio);
        json.push_scalar(&cell("evictions"), c.evictions as f64, Unit::Count);
        json.push_scalar(&cell("budget_bytes"), st.cache_budget_bytes as f64, Unit::Bytes);
        println!(
            "  {:>4.1}x budget ({:>2} files): hit rate {:>5.1}%  evictions {:>5}  budget {:>6} B",
            ratio,
            files,
            hit_rate * 100.0,
            c.evictions,
            st.cache_budget_bytes,
        );
        assert_eq!(
            st.cache_budget_bytes,
            (PAGES * 4096) as u64,
            "the page budget is structural; it must not track the working set"
        );
    }

    // --- cold boot from a file-backed device --------------------------
    println!("\ncold boot from a file-backed block journal:");
    for n in [100usize, 1000] {
        let path =
            std::env::temp_dir().join(format!("maxoid-bench-boot-{}-{n}.blk", std::process::id()));
        build_device_log(&path, n);
        let m = measure(
            20,
            || {},
            || {
                let dev = FileDevice::open(&path).expect("reopen");
                let storage = BlockStorage::open(Box::new(dev), 64).expect("open storage");
                let j = Journal::new(Box::new(storage), 16).expect("open journal");
                std::hint::black_box(MaxoidSystem::boot_journaled(j).expect("cold boot"));
            },
        );
        json.push(&format!("cold_boot/file_n{n}"), &m);
        println!("  {n:>5}-record log: {:>10.1} us median", m.median_us());
        let _ = std::fs::remove_file(&path);
    }

    // --- cached hot-set ratios (gated in `report::GATES`) -------------
    for (family, ms) in [("read_4k", &reads), ("write_4k", &writes)] {
        let (resident, mem) = (ms[0].median_us(), ms[1].median_us());
        let ratio = if resident > 0.0 { mem / resident } else { 0.0 };
        let name = format!("backend/{family}/median_ratio_paged_mem_vs_resident");
        json.push_scalar(&name, ratio, Unit::Ratio);
        println!("\npaged_mem vs resident {family}: {ratio:.2}x by median");
    }

    json.finish();
}

/// Seeds a journaled system over the file device at `path` with `n`
/// committed records (provider rows and 1KB file writes), then drops it —
/// the device file is the only survivor, ready for cold-boot timing.
fn build_device_log(path: &std::path::Path, n: usize) {
    let _ = std::fs::remove_file(path);
    let dev = FileDevice::create(path).expect("create device");
    let storage = BlockStorage::open(Box::new(dev), 64).expect("open storage");
    let j = Journal::new(Box::new(storage), 16).expect("open journal");
    let sys = MaxoidSystem::boot_journaled(j.clone()).expect("boot");
    sys.install("seeder", vec![], MaxoidManifest::new()).expect("install");
    let words = Uri::parse("content://user_dictionary/words").unwrap();
    let caller = Caller::normal("seeder");
    let payload = vec![0x3cu8; 1024];
    for i in 0..n / 2 {
        sys.resolver
            .insert(
                &caller,
                &words,
                &ContentValues::new().put("word", format!("w{i}")).put("frequency", i as i64),
            )
            .expect("insert");
        sys.kernel
            .vfs()
            .with_store(|s| {
                s.mkdir_all(&vpath("/data/seed"), Uid::ROOT, Mode::PUBLIC)?;
                s.write(
                    &vpath("/data/seed").join(&format!("f{i}.dat")).unwrap(),
                    &payload,
                    Uid::ROOT,
                    Mode::PUBLIC,
                )
            })
            .expect("write");
    }
    // Sanity: the state is queryable before we throw the process away.
    let rows =
        sys.resolver.query(&caller, &words, &QueryArgs::default()).expect("query").rows.len();
    assert_eq!(rows, n / 2);
    j.flush().expect("flush");
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
