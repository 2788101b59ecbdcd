//! Allocation budgets for provider calls: a call copies what it returns,
//! not every row it looks at, and a write after a snapshot read copies no
//! catalog map.
//!
//! A counting global allocator counts the calls that obtain heap memory
//! (`alloc`, `alloc_zeroed`, `realloc`) per thread, so the harness's
//! parallel tests do not mix their counts. Each probe warms its caches,
//! then counts [`CALLS`] calls; the totals repeat exactly from run to run.
//!
//! The ceilings are the counts of the same probes before sqldb bound each
//! statement once and borrowed every row it scanned, and before a snapshot
//! reader let go of its snapshot when its query returned. The delegate
//! point update's is its count once each prepared statement carried its
//! own plan: before that, every update through the COW view built a fresh
//! row-matching `SELECT` and cloned its WHERE clause (63,410 per 1,000).
//!
//! | probe                                  | ceiling           |
//! |----------------------------------------|-------------------|
//! | plain 50-row index range               | `PLAIN_RANGE`     |
//! | the same range through a COW view      | `COW_RANGE`       |
//! | delegate point query (resolver)        | `POINT_QUERY`     |
//! | delegate point update (resolver)       | `POINT_UPDATE`    |
//! | that query, then that update           | `QUERY_THEN_UPDATE` |
//! | owner point update, paged dictionary   | `PAGED_OWNER_UPDATE` |
//! | delegate point update, paged dictionary | `PAGED_POINT_UPDATE` |
//!
//! The paged probes boot from one in-memory device with the default
//! configuration, as `device_lifecycle` does, so the dictionary's rows sit
//! on the heap. Their ceilings are the counts of the same calls before a
//! database with a paged table published snapshots, plus one allocation
//! per call: the snapshot each write now publishes. A write that copied
//! the shared rowid map of the 20,000-word table would make one allocation
//! per node of that map on top.

use maxoid::manifest::MaxoidManifest;
use maxoid::{Caller, ContentValues, DeviceBootConfig, MaxoidSystem, QueryArgs, Uri};
use maxoid_block::MemDevice;
use maxoid_cowproxy::{CowProxy, DbView, QueryOpts};
use maxoid_sqldb::{Database, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, whose contract is the one `GlobalAlloc` states; counting
// touches only a thread-local integer and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Counted calls per probe.
const CALLS: u64 = 1000;
/// Calls per probe before counting starts (statement, plan and rewrite
/// caches warm, thread-local readers made).
const WARMUP: u64 = 16;
/// Rows in the dictionary.
const WORDS: i64 = 5000;
/// Ids a range spans.
const RANGE: i64 = 50;

/// Allocations of `CALLS` calls of `f` (given the call number), after
/// `WARMUP` uncounted calls.
fn allocations(mut f: impl FnMut(u64)) -> u64 {
    for i in 0..WARMUP {
        f(i);
    }
    let before = ALLOCS.with(Cell::get);
    for i in WARMUP..WARMUP + CALLS {
        f(i);
    }
    ALLOCS.with(Cell::get) - before
}

fn word(id: i64) -> String {
    format!("w{id:05}")
}

/// The lower and upper bound of the `i`th range: `RANGE` consecutive
/// words, starting anywhere in the table.
fn range_bounds(i: u64) -> [Value; 2] {
    let lo = (i as i64 * 97) % (WORDS - RANGE + 1) + 1;
    [Value::Text(word(lo)), Value::Text(word(lo + RANGE))]
}

/// The user dictionary's `words` table and index.
const DDL: &str = "CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT NOT NULL, \
                   frequency INTEGER, locale TEXT, appid INTEGER);
                   CREATE INDEX idx_words_word ON words (word);";

const RANGE_WHERE: &str = "word >= ? AND word < ?";

fn cols() -> Vec<String> {
    vec!["_id".into(), "word".into(), "frequency".into()]
}

/// The ceilings in the table above (totals over `CALLS` calls, so they
/// compare exactly).
const PLAIN_RANGE: u64 = 686_194;
const COW_RANGE: u64 = 771_113;
const POINT_QUERY: u64 = 66_097;
const POINT_UPDATE: u64 = 56_410;
const QUERY_THEN_UPDATE: u64 = 908_128;

#[test]
fn a_range_copies_only_the_rows_it_returns() {
    let mut db = Database::new();
    db.execute_batch(DDL).unwrap();
    for id in 1..=WORDS {
        db.execute(
            "INSERT INTO words (word, frequency) VALUES (?, ?)",
            &[Value::Text(word(id)), Value::Integer(id)],
        )
        .unwrap();
    }
    let sql = format!("SELECT _id, word, frequency FROM words WHERE {RANGE_WHERE}");
    let plain = allocations(|i| {
        let rs = db.query(&sql, &range_bounds(i)).unwrap();
        assert_eq!(rs.rows.len(), RANGE as usize);
    });

    let mut proxy = CowProxy::new();
    proxy.execute_batch(DDL).unwrap();
    for id in 1..=WORDS {
        proxy
            .insert(
                &DbView::Primary,
                "words",
                &[("word", Value::Text(word(id))), ("frequency", Value::Integer(id))],
            )
            .unwrap();
    }
    // The delegate forks: its reads go through the COW view.
    let delegate = DbView::Delegate { initiator: "viewer".into() };
    proxy
        .update(&delegate, "words", &[("frequency", Value::Integer(0))], Some("_id = 1"), &[])
        .unwrap();
    proxy.publish_read();
    let slot = proxy.read_slot();
    let opts =
        QueryOpts { columns: cols(), where_clause: Some(RANGE_WHERE.into()), ..Default::default() };
    let cow = allocations(|i| {
        let rs = slot.try_query(&delegate, "words", &opts, &range_bounds(i)).unwrap().unwrap();
        assert_eq!(rs.rows.len(), RANGE as usize);
    });

    eprintln!("per {CALLS} calls: plain range {plain}, COW-view range {cow}");
    assert!(plain * 4 <= PLAIN_RANGE, "plain range: {plain} against {PLAIN_RANGE} before");
    assert!(cow * 4 <= COW_RANGE, "COW-view range: {cow} against {COW_RANGE} before");
}

/// A system with `WORDS` seeded words and `tenants` forked delegates.
fn dictionary(tenants: usize) -> (MaxoidSystem, Uri, Vec<Caller>) {
    let (sys, words, _) = seeded(MaxoidSystem::boot().unwrap(), WORDS);
    let callers = forked(&sys, &words, tenants);
    (sys, words, callers)
}

/// `sys` with `count` seeded words, and the seeder as a caller.
fn seeded(sys: MaxoidSystem, count: i64) -> (MaxoidSystem, Uri, Caller) {
    let words = Uri::parse("content://user_dictionary/words").unwrap();
    sys.install("seeder", vec![], MaxoidManifest::new()).unwrap();
    let seeder = sys.launch("seeder").unwrap();
    for id in 1..=count {
        let vals = ContentValues::new().put("word", word(id)).put("frequency", id);
        sys.cp_insert(seeder, &words, &vals).unwrap();
    }
    let owner = sys.caller(seeder).unwrap();
    (sys, words, owner)
}

/// `tenants` delegates of their own initiators, each forked by an update
/// of word `WORDS`.
fn forked(sys: &MaxoidSystem, words: &Uri, tenants: usize) -> Vec<Caller> {
    (0..tenants)
        .map(|t| {
            let (app, init) = (format!("app{t}"), format!("init{t}"));
            sys.install(&app, vec![], MaxoidManifest::new()).unwrap();
            sys.install(&init, vec![], MaxoidManifest::new()).unwrap();
            let pid = sys.launch_as_delegate(&app, &init).unwrap();
            let caller = sys.caller(pid).unwrap();
            // The fork: the delegate's reads go through its COW view.
            let vals = ContentValues::new().put("frequency", 0);
            sys.resolver
                .update(&caller, &words.with_id(WORDS), &vals, &QueryArgs::default())
                .unwrap();
            caller
        })
        .collect()
}

/// A point update of word `id` by `caller`.
fn update(sys: &MaxoidSystem, words: &Uri, caller: &Caller, id: i64) {
    let vals = ContentValues::new().put("frequency", -id);
    let n = sys.resolver.update(caller, &words.with_id(id), &vals, &QueryArgs::default()).unwrap();
    assert_eq!(n, 1);
}

#[test]
fn a_write_after_a_snapshot_read_copies_no_catalog() {
    let (sys, words, callers) = dictionary(3);
    let args = QueryArgs { projection: cols(), ..Default::default() };
    let query = |caller: &Caller, id: i64| {
        let rs = sys.resolver.query(caller, &words.with_id(id), &args).unwrap();
        assert_eq!(rs.rows.len(), 1);
    };
    let update = |caller: &Caller, id: i64| update(&sys, &words, caller, id);
    // Each tenant's probe copies up the same ids, so the update alone and
    // the pair's update find the same delta table.
    let id = |i: u64| i as i64 + 1;
    let point_query = allocations(|i| query(&callers[0], id(i)));
    let point_update = allocations(|i| update(&callers[1], id(i)));
    let pair = allocations(|i| {
        query(&callers[2], id(i));
        update(&callers[2], id(i));
    });
    assert!(sys.resolver.read_path_stats().0 > 0, "the queries took the snapshot path");

    eprintln!(
        "per {CALLS} calls: point query {point_query}, point update {point_update}, \
         query then update {pair}"
    );
    assert!(
        pair <= point_query + point_update,
        "query then update: {pair} against {point_query} + {point_update} apart"
    );
    for (what, now, ceiling) in [
        ("point query", point_query, POINT_QUERY),
        ("point update", point_update, POINT_UPDATE),
        ("query then update", pair, QUERY_THEN_UPDATE),
    ] {
        assert!(now <= ceiling, "{what}: {now} against a ceiling of {ceiling}");
    }
}

/// Words in the paged dictionary, as in `device_lifecycle`: past the
/// default heap threshold, so `words` pages its rows.
const PAGED_WORDS: i64 = 20_000;

/// The paged probes' ceilings (see the table above): 34,516 and 60,708
/// before, plus `CALLS` publications.
const PAGED_OWNER_UPDATE: u64 = 34_516 + CALLS;
const PAGED_POINT_UPDATE: u64 = 60_708 + CALLS;

#[test]
fn a_write_to_a_paged_table_copies_no_row_map() {
    let dev = Box::new(MemDevice::new());
    let sys = MaxoidSystem::boot_from_device(dev, &DeviceBootConfig::default()).unwrap();
    let (sys, words, owner) = seeded(sys, PAGED_WORDS);
    let delegate = forked(&sys, &words, 1).remove(0);
    let heap = sys.heap().expect("a device boot attaches a heap");
    let pages = |st: maxoid_block::CacheStats| st.hits + st.misses;
    let id = |i: u64| i as i64 * 7 + 1;
    let before = pages(heap.stats());
    let owner_update = allocations(|i| update(&sys, &words, &owner, id(i)));
    assert!(pages(heap.stats()) > before, "the owner's updates wrote to paged rows");
    let point_update = allocations(|i| update(&sys, &words, &delegate, id(i)));
    eprintln!(
        "per {CALLS} calls on {PAGED_WORDS} paged words: owner point update {owner_update}, \
         delegate point update {point_update}"
    );
    for (what, now, ceiling) in [
        ("paged owner point update", owner_update, PAGED_OWNER_UPDATE),
        ("paged delegate point update", point_update, PAGED_POINT_UPDATE),
    ] {
        assert!(now <= ceiling, "{what}: {now} against a ceiling of {ceiling}");
    }
}
