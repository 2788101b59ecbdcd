//! The shared-lock read path: per-thread readers over a live proxy.
//!
//! A [`crate::CowProxy`] lives behind its authority's `RwLock`. A change
//! takes it exclusively (every mutating entry point takes `&mut self`); a
//! query takes it shared and runs through [`crate::CowProxy::query`],
//! which lands here. The calling thread's reader for the proxy binds the
//! live catalog (three `Arc` clones), runs the query on the thread's own
//! statement and rewrite caches, and lets go of the maps before it
//! returns, so before the shared guard drops. A writer, which waits for
//! every shared guard, therefore never finds a map a reader holds and
//! copies nothing for one. The thread's caches are switched on and off
//! with the proxy's ([`maxoid_sqldb::Database::set_statement_caches`],
//! [`crate::CowProxy::set_rewrite_cache`]), and their counts reach the
//! proxy's counters (the statement counts as the reader lets go), so the
//! proxy's stats see every query.
//!
//! Two invariants keep this exact:
//!
//! 1. **One catalog per query.** A reader binds base tables, delta tables,
//!    COW views and triggers together, under one shared guard, so a
//!    flattened COW-view query evaluates both `UNION ALL` arms against
//!    the same state: no torn read between a delta and its base.
//! 2. **Fork-epoch stamping.** Each bind compares the proxy's fork epoch
//!    with the one the thread's rewrite cache was filled under, and drops
//!    the cache's entries when COW topology changed, exactly as the
//!    proxy's own cache does.
//!
//! Per-thread state (a [`maxoid_sqldb::SnapshotReader`] with its prepared
//! statements and their plans, and a rewrite cache) lives in a
//! `thread_local!` registry keyed by proxy, so repeated reads on one thread
//! reuse plans across binds and share no cache across threads. An entry
//! holds its proxy's key weakly, and entries whose proxy is gone are
//! pruned whenever the thread first reads another proxy, so the registry
//! stays bounded by the live proxies the thread reads plus one.

use crate::proxy::{cached_query, DbView, QueryOpts};
use crate::rewrite::RewriteCache;
use maxoid_sqldb::{Database, ResultSet, SnapshotReader, SqlResult, Value};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Weak};

/// A proxy's key in the per-thread reader registry: an allocation the
/// proxy owns. Registry entries hold it weakly, which keeps the
/// allocation, so its address names one proxy for as long as any entry
/// can be looked up by it.
#[derive(Debug, Default)]
pub(crate) struct ReaderKey(Arc<()>);

/// One thread's cached machinery for reading a particular proxy.
struct CowReader {
    /// The proxy this reader serves; dead once the proxy is dropped.
    proxy: Weak<()>,
    reader: SnapshotReader,
    rewrite: RewriteCache,
    fork_epoch: u64,
}

thread_local! {
    /// Per-thread readers, keyed by the address of their proxy's key.
    static READERS: RefCell<HashMap<usize, CowReader>> = RefCell::new(HashMap::new());
}

/// Runs a proxy query on the calling thread's reader for the proxy whose
/// key is `key`, database `db` and rewrite cache `rewrite`, holding the
/// live maps only while the query runs.
pub(crate) fn query(
    key: &ReaderKey,
    db: &Database,
    rewrite: &RewriteCache,
    view: &DbView,
    table: &str,
    opts: &QueryOpts,
    params: &[Value],
) -> SqlResult<ResultSet> {
    let fork_epoch = rewrite.epoch();
    READERS.with(|cell| {
        let mut map = cell.borrow_mut();
        let id = Arc::as_ptr(&key.0) as usize;
        if !map.contains_key(&id) {
            map.retain(|_, r| r.proxy.strong_count() > 0);
        }
        let r = map.entry(id).or_insert_with(|| CowReader {
            proxy: Arc::downgrade(&key.0),
            reader: SnapshotReader::new(),
            rewrite: rewrite.for_reader(),
            fork_epoch,
        });
        if r.fork_epoch != fork_epoch {
            // COW topology changed since this thread last read the proxy:
            // cached rewrites may target dropped relations.
            r.rewrite.bump_epoch();
            r.fork_epoch = fork_epoch;
        }
        r.rewrite.follow(rewrite);
        let bound = r.reader.bind(db);
        let rs = cached_query(&r.rewrite, bound, view, table, opts, params);
        r.reader.release();
        rs
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CowProxy;
    use parking_lot::RwLock;

    fn seeded() -> CowProxy {
        let mut p = CowProxy::new();
        p.execute_batch(
            "CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT, frequency INTEGER);",
        )
        .unwrap();
        for (w, f) in [("alpha", 10), ("beta", 20), ("gamma", 30)] {
            p.insert(&DbView::Primary, "words", &[("word", w.into()), ("frequency", f.into())])
                .unwrap();
        }
        p
    }

    fn word(id: i64) -> QueryOpts {
        QueryOpts {
            columns: vec!["word".into()],
            where_clause: Some(format!("_id = {id}")),
            ..Default::default()
        }
    }

    #[test]
    fn snapshot_queries_see_cow_views_and_volatile_state() {
        let mut p = seeded();
        let delegate = DbView::Delegate { initiator: "A".into() };
        p.update(&delegate, "words", &[("word", "ALPHA".into())], Some("_id = 1"), &[]).unwrap();
        // A delegate read resolves onto the COW view.
        let rs = p.query(&delegate, "words", &word(1), &[]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Text("ALPHA".into())]]);
        // The primary view is untouched.
        let rs = p.query(&DbView::Primary, "words", &word(1), &[]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Text("alpha".into())]]);
        // The volatile view sees the delta row, whiteouts excluded.
        let volatile = DbView::Volatile { initiator: "A".into() };
        let rs = p.query(&volatile, "words", &QueryOpts::default(), &[]).unwrap();
        assert_eq!(rs.rows.len(), 1);
    }

    #[test]
    fn thread_readers_are_bounded_by_live_proxies() {
        let live = seeded();
        live.query(&DbView::Primary, "words", &QueryOpts::default(), &[]).unwrap();
        for _ in 0..1000 {
            let p = seeded();
            let rs = p.query(&DbView::Primary, "words", &QueryOpts::default(), &[]);
            assert_eq!(rs.unwrap().rows.len(), 3);
            drop(p);
            let readers = READERS.with(|cell| cell.borrow().len());
            // The live proxy, plus the one just dropped: its entry goes
            // when this thread first reads the next proxy.
            assert!(readers <= 2, "{readers} thread-local readers for 1 live proxy");
        }
        let rs = live.query(&DbView::Primary, "words", &QueryOpts::default(), &[]);
        assert_eq!(rs.unwrap().rows.len(), 3, "the live proxy's reader survives pruning");
    }

    /// Threads read one proxy under a shared lock while a writer takes it
    /// exclusively: every read sees a whole state, before or after a write.
    #[test]
    fn snapshot_reads_work_from_other_threads() {
        let p = RwLock::new(seeded());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let rs = p
                            .read()
                            .query(&DbView::Primary, "words", &QueryOpts::default(), &[])
                            .unwrap();
                        assert!(rs.rows.len() == 3 || rs.rows.len() == 4, "{rs:?}");
                    }
                });
            }
            s.spawn(|| {
                p.write().insert(&DbView::Primary, "words", &[("word", "delta".into())]).unwrap();
            });
        });
        let rs = p.read().query(&DbView::Primary, "words", &QueryOpts::default(), &[]);
        assert_eq!(rs.unwrap().rows.len(), 4);
    }

    #[test]
    fn fork_epoch_change_invalidates_thread_local_rewrites() {
        let mut p = seeded();
        let delegate = DbView::Delegate { initiator: "A".into() };
        // Warm the thread-local cache: a delegate read before any fork
        // resolves to the primary table.
        let rs = p.query(&delegate, "words", &QueryOpts::default(), &[]).unwrap();
        assert_eq!(rs.rows.len(), 3);
        // Fork: the delegate deletes a row (whiteout). The epoch bump must
        // reach the thread-local cache or the stale rewrite would keep
        // reading the primary table.
        p.delete(&delegate, "words", Some("_id = 1"), &[]).unwrap();
        let rs = p.query(&delegate, "words", &QueryOpts::default(), &[]).unwrap();
        assert_eq!(rs.rows.len(), 2, "a read after the fork must see the whiteout");
    }
}
