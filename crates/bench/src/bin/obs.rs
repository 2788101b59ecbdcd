//! Observability overhead: what `maxoid-obs` costs when it is off, and
//! what it costs when it is on.
//!
//! Emitted to `BENCH_obs.json`:
//!
//! - **probe** — the raw instrumentation-point primitives in a tight
//!   loop: an inert span (the price every instrumented call path pays
//!   when tracing is disabled — one relaxed atomic load), a recording
//!   span, and a counter increment in both states.
//! - **workload** — a real COW-proxied SQL workload (delegate inserts +
//!   flattened view queries) with tracing off vs on; the "off" column is
//!   the number that must stay within noise of the pre-obs tree.
//!
//! Run with: `cargo run --release -p maxoid-bench --bin obs`

use maxoid_bench::{measure_interleaved, BenchJson, Case, Measurement};
use maxoid_cowproxy::{CowProxy, DbView, QueryOpts};
use std::cell::RefCell;
use std::rc::Rc;

const TRIALS: usize = 300;
/// Primitive ops per trial (amortises the timer's own cost).
const PROBE_BATCH: usize = 1_000;
/// Proxy statements per workload trial.
const WORK_BATCH: usize = 50;

fn main() {
    let mut json = BenchJson::new("obs");
    println!("maxoid-obs overhead — probe primitives and a traced workload");
    println!("({TRIALS} interleaved trials per cell)\n");

    // --- probe primitives ---------------------------------------------
    let probes = measure_interleaved(
        TRIALS,
        vec![
            probe_case(false, || {
                std::hint::black_box(maxoid_obs::span("bench.probe"));
            }),
            probe_case(true, || {
                std::hint::black_box(maxoid_obs::span("bench.probe"));
            }),
            probe_case(false, || {
                maxoid_obs::counter_add("bench.counter", 1);
            }),
            probe_case(true, || {
                maxoid_obs::counter_add("bench.counter", 1);
            }),
        ],
    );
    println!("probe ({PROBE_BATCH} ops/trial, per-op figures):");
    let labels = ["span/disabled", "span/enabled", "counter/disabled", "counter/enabled"];
    for (label, m) in labels.iter().zip(&probes) {
        json.push(&format!("probe/{label}"), m);
        println!("  {:<18} {:>9.2} ns/op", label, m.mean_us() * 1_000.0 / PROBE_BATCH as f64);
    }
    let disabled_ns = probes[0].mean_us() * 1_000.0 / PROBE_BATCH as f64;
    println!("  (disabled span = the per-call-site price everyone pays: {disabled_ns:.2} ns)");

    // --- traced workload ----------------------------------------------
    let work = measure_interleaved(TRIALS, vec![workload_case(false), workload_case(true)]);
    println!("\nworkload ({WORK_BATCH} proxied statements/trial):");
    print_pair(&mut json, "workload/cow_sql", &work);

    maxoid_obs::disable();
    maxoid_obs::reset();
    json.finish();
}

/// A primitive-probe case: the setup pins the global obs state (and
/// drains the collector so enabled runs don't grow without bound), the
/// op runs the primitive `PROBE_BATCH` times.
fn probe_case(enabled: bool, op: impl Fn() + 'static) -> Case<'static> {
    (
        Box::new(move || {
            maxoid_obs::reset();
            if enabled {
                maxoid_obs::enable();
            } else {
                maxoid_obs::disable();
            }
        }),
        Box::new(move || {
            for _ in 0..PROBE_BATCH {
                op();
            }
        }),
    )
}

/// The real-workload case: a COW proxy with a delegate view, running
/// `WORK_BATCH` insert+query statements per trial.
fn workload_case(enabled: bool) -> Case<'static> {
    let mut p = CowProxy::new();
    p.execute_batch("CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT, freq INTEGER);")
        .expect("schema");
    let p = Rc::new(RefCell::new(p));
    let setup_p = p.clone();
    let i = Rc::new(RefCell::new(0i64));
    (
        Box::new(move || {
            maxoid_obs::reset();
            maxoid_obs::disable();
            // Reset the delta table so every trial queries the same
            // bounded view instead of an ever-growing one.
            setup_p.borrow_mut().clear_volatile("a").expect("clear");
            if enabled {
                maxoid_obs::enable();
            }
        }),
        Box::new(move || {
            let delegate = DbView::Delegate { initiator: "a".into() };
            let opts = QueryOpts { order_by: Some("_id".into()), ..Default::default() };
            let mut p = p.borrow_mut();
            let mut k = i.borrow_mut();
            for _ in 0..WORK_BATCH {
                *k += 1;
                p.insert(&delegate, "words", &[("word", format!("w{k}").into())]).expect("insert");
                std::hint::black_box(p.query(&delegate, "words", &opts, &[]).expect("query"));
            }
        }),
    )
}

fn print_pair(json: &mut BenchJson, section: &str, ms: &[Measurement]) {
    let (off, on) = (&ms[0], &ms[1]);
    json.push(&format!("{section}/off"), off);
    json.push(&format!("{section}/on"), on);
    println!("  {:<10} {:>9.2} us", "off", off.mean_us());
    println!("  {:<10} {:>9.2} us  (+{:.1}% vs off)", "on", on.mean_us(), on.overhead_pct(off));
}
