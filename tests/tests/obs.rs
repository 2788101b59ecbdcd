//! Observability neutrality: tracing must be a pure observer.
//!
//! The same workload — COW-proxied queries and a full delegation
//! lifecycle — is run twice, once with `maxoid-obs` disabled and once
//! enabled. Results must be byte-identical and the engine's own
//! `db.stats` counters must match exactly: the obs registry *mirrors*
//! `db.stats`, it never feeds back into it.
//!
//! Obs state is process-global, so this file lives in its own test
//! binary and serializes its tests behind a mutex.

use maxoid::manifest::MaxoidManifest;
use maxoid::{Caller, ContentValues, MaxoidSystem, QueryArgs, Uri};
use maxoid_cowproxy::{CowProxy, DbView, QueryOpts};
use maxoid_vfs::{vpath, Mode};
use proptest::prelude::*;
use std::sync::Mutex;

static GATE: Mutex<()> = Mutex::new(());

const INITIATOR: &str = "initiator";
const DELEGATE: &str = "viewer";

/// A step of the randomized COW-proxy workload.
#[derive(Debug, Clone)]
enum Op {
    PublicInsert(u8, u8),
    DelegateInsert(u8),
    DelegateUpdate(u8, u8),
    DelegateDelete(u8),
    DelegateQuery,
    PublicQuery,
    ClearVolatile,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..50u8, 0..50u8).prop_map(|(a, b)| Op::PublicInsert(a, b)),
        (0..50u8).prop_map(Op::DelegateInsert),
        (0..8u8, 0..50u8).prop_map(|(a, b)| Op::DelegateUpdate(a, b)),
        (0..8u8).prop_map(Op::DelegateDelete),
        Just(Op::DelegateQuery),
        Just(Op::PublicQuery),
        Just(Op::ClearVolatile),
    ]
}

/// Everything the workload observes: each step's result rendered to a
/// string, plus the final `db.stats` counters and access-path log.
#[derive(Debug, PartialEq)]
struct Trace {
    steps: Vec<String>,
    rows_scanned: u64,
    point_lookups: u64,
    index_probes: u64,
    rows_cloned: u64,
    flattened_queries: u64,
    materialized_views: u64,
    access_paths: Vec<String>,
}

fn run_proxy_workload(ops: &[Op]) -> Trace {
    let mut p = CowProxy::new();
    p.execute_batch("CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT, freq INTEGER);")
        .unwrap();
    let delegate = DbView::Delegate { initiator: "a".into() };
    let q_opts = QueryOpts { order_by: Some("_id".into()), ..Default::default() };
    let mut steps = Vec::new();
    for o in ops {
        let out = match o {
            Op::PublicInsert(w, f) => format!(
                "{:?}",
                p.insert(
                    &DbView::Primary,
                    "words",
                    &[("word", format!("w{w}").into()), ("freq", (*f as i64).into())],
                )
            ),
            Op::DelegateInsert(w) => {
                format!("{:?}", p.insert(&delegate, "words", &[("word", format!("d{w}").into())]))
            }
            Op::DelegateUpdate(id, f) => format!(
                "{:?}",
                p.update(
                    &delegate,
                    "words",
                    &[("freq", (*f as i64).into())],
                    Some(&format!("_id = {}", id + 1)),
                    &[],
                )
            ),
            Op::DelegateDelete(id) => format!(
                "{:?}",
                p.delete(&delegate, "words", Some(&format!("_id = {}", id + 1)), &[])
            ),
            Op::DelegateQuery => format!("{:?}", p.query(&delegate, "words", &q_opts, &[])),
            Op::PublicQuery => format!("{:?}", p.query(&DbView::Primary, "words", &q_opts, &[])),
            Op::ClearVolatile => format!("{:?}", p.clear_volatile("a")),
        };
        steps.push(out);
    }
    let s = &p.db().stats;
    let access_paths = s.access_paths.lock().clone();
    Trace {
        steps,
        rows_scanned: s.rows_scanned.get(),
        point_lookups: s.point_lookups.get(),
        index_probes: s.index_probes.get(),
        rows_cloned: s.rows_cloned.get(),
        flattened_queries: s.flattened_queries.get(),
        materialized_views: s.materialized_views.get(),
        access_paths,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The COW proxy produces identical results and identical `db.stats`
    /// counters whether tracing is on or off.
    #[test]
    fn proxy_workload_is_obs_neutral(ops in proptest::collection::vec(op(), 1..20)) {
        let _g = GATE.lock().unwrap();
        maxoid_obs::disable();
        maxoid_obs::reset();
        let dark = run_proxy_workload(&ops);
        let silent = maxoid_obs::snapshot();
        prop_assert!(silent.spans.is_empty(), "disabled run must record nothing");
        prop_assert!(silent.counters.is_empty(), "disabled run must count nothing");

        maxoid_obs::enable();
        let lit = run_proxy_workload(&ops);
        maxoid_obs::disable();
        let recorded = maxoid_obs::take_snapshot();

        prop_assert_eq!(&dark, &lit, "tracing changed workload results or db.stats");
        prop_assert!(!recorded.spans.is_empty(), "enabled run must record spans");
    }
}

/// Full-system delegation lifecycle: results, volatile listings and
/// provider query rows are identical with tracing on and off — and the
/// traced run actually captures the delegation spans.
#[test]
fn delegation_lifecycle_is_obs_neutral() {
    let _g = GATE.lock().unwrap();
    let run = || -> Vec<String> {
        let sys = MaxoidSystem::boot().expect("boot");
        sys.install(INITIATOR, vec![], MaxoidManifest::new()).unwrap();
        sys.install(DELEGATE, vec![], MaxoidManifest::new()).unwrap();
        let uri = Uri::parse("content://user_dictionary/words").unwrap();
        let public = Caller::normal(INITIATOR);
        let delegate = Caller::delegate(DELEGATE, INITIATOR);
        let mut out = Vec::new();
        for (w, f) in [("hello", 10i64), ("world", 20)] {
            let r = sys.resolver.insert(
                &public,
                &uri,
                &ContentValues::new().put("word", w).put("frequency", f),
            );
            out.push(format!("{r:?}"));
        }
        let r = sys.resolver.insert(&delegate, &uri, &ContentValues::new().put("word", "draft"));
        out.push(format!("{r:?}"));
        let pid = sys.launch_as_delegate(DELEGATE, INITIATOR).unwrap();
        let w = sys.kernel.write(pid, &vpath("/storage/sdcard/n.txt"), b"edit", Mode::PUBLIC);
        out.push(format!("{w:?}"));
        let args = QueryArgs {
            projection: vec!["word".into(), "frequency".into()],
            sort_order: Some("_id".into()),
            ..QueryArgs::default()
        };
        for caller in [&public, &delegate, &Caller::normal("bystander")] {
            let rows = sys.resolver.query(caller, &uri, &args).map(|rs| rs.rows);
            out.push(format!("{rows:?}"));
        }
        let vols: Vec<String> = sys
            .volatile_files(INITIATOR)
            .unwrap()
            .into_iter()
            .map(|e| format!("{}:{}", e.rel, e.size))
            .collect();
        out.push(format!("{vols:?}"));
        out.push(format!("{:?}", sys.clear_vol(INITIATOR)));
        let rows = sys.resolver.query(&public, &uri, &args).map(|rs| rs.rows);
        out.push(format!("{rows:?}"));
        out
    };

    maxoid_obs::disable();
    maxoid_obs::reset();
    let dark = run();
    assert!(maxoid_obs::snapshot().spans.is_empty());

    maxoid_obs::enable();
    let lit = run();
    maxoid_obs::disable();
    let snap = maxoid_obs::take_snapshot();

    assert_eq!(dark, lit, "tracing changed the delegation's observable behaviour");
    let names: Vec<&str> = snap.spans.iter().map(|s| s.name).collect();
    for expected in ["delegation.invoke", "delegation.cow_fork", "delegation.clear_vol"] {
        assert!(names.contains(&expected), "traced run missing span {expected}");
    }
    assert!(snap.counters.contains_key("vfs.union.lookups"), "vfs counters missing");
    // One value check that would catch double-counting: exactly one
    // delegation was invoked and committed (via clear_vol).
    assert_eq!(snap.counters.get("delegation.commits"), Some(&1));
}

/// Histogram bucket boundaries double; the mean stays exact.
#[test]
fn histogram_shape_sanity() {
    let _g = GATE.lock().unwrap();
    maxoid_obs::reset();
    maxoid_obs::enable();
    for v in [0u64, 1, 2, 3, 4, 1023, 1024] {
        maxoid_obs::observe("t.hist", v);
    }
    maxoid_obs::disable();
    let snap = maxoid_obs::take_snapshot();
    let h = snap.histograms.get("t.hist").expect("recorded");
    assert_eq!(h.count, 7);
    assert_eq!(h.min, 0);
    assert_eq!(h.max, 1024);
    assert_eq!(h.sum, 0 + 1 + 2 + 3 + 4 + 1023 + 1024);
}

/// Traced readers of one proxy on two threads mirror only their own
/// work: each statement's counter deltas come from its reader's private
/// counts, so the obs registry's totals equal the live `db.stats`.
#[test]
fn concurrent_readers_mirror_their_own_counts() {
    let _g = GATE.lock().unwrap();
    let mut p = CowProxy::new();
    p.execute_batch("CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT);").unwrap();
    for i in 0..10 {
        p.insert(&DbView::Primary, "words", &[("word", format!("w{i}").into())]).unwrap();
    }
    let q = QueryOpts { where_clause: Some("_id = ?".into()), ..Default::default() };
    let p = std::sync::RwLock::new(p);
    p.read().unwrap().db().stats.reset();
    maxoid_obs::enable();
    maxoid_obs::reset();
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for i in 0..2_000 {
                    let id = maxoid_sqldb::Value::Integer(i % 10 + 1);
                    p.read().unwrap().query(&DbView::Primary, "words", &q, &[id]).unwrap();
                }
            });
        }
    });
    maxoid_obs::disable();
    let counters = maxoid_obs::take_snapshot().counters;
    let p = p.into_inner().unwrap();
    let stats = &p.db().stats;
    assert_eq!(stats.point_lookups.get(), 4_000);
    for (name, live) in [
        ("sqldb.point_lookups", stats.point_lookups.get()),
        ("sqldb.rows_cloned", stats.rows_cloned.get()),
        ("sqldb.stmt_cache_hits", stats.stmt_cache_hits.get()),
    ] {
        assert_eq!(counters.get(name).copied().unwrap_or(0), live, "{name}");
    }
}
