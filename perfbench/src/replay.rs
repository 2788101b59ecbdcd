//! The `cowproxy` and `sqldb` layers, measured on benchmark-owned copies.
//!
//! The system keeps its provider databases private, so the traced run
//! replays the provider ops a workload issued, in per-tenant order, twice:
//! through a benchmark-owned `CowProxy` holding the same dictionary (the
//! delegate path), and as raw SQL on a plain `Database` with the same
//! schema (the unmodified-Android path, the paper's Table 3 baseline).
//! Their difference on the same op stream is the proxy's overhead.

use crate::harness::{ratio, timed, Layers, Metric, Unit, T};
use maxoid_cowproxy::{DbView, QueryOpts};
use maxoid_providers::UserDictionaryProvider;
use maxoid_sqldb::{Database, Value};

/// The dictionary schema the User Dictionary provider installs.
const SCHEMA: &str = "CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT NOT NULL, \
     frequency INTEGER, locale TEXT, appid INTEGER);
     CREATE INDEX idx_words_word ON words (word);";

/// Ops replayed at most, so the replay stays a fixed share of a run.
pub const MAX_REPLAY: usize = 20_000;

/// A provider op as a delegate of tenant `init` issued it.
#[derive(Debug, Clone)]
pub enum ProvOp {
    Query {
        init: usize,
        id: i64,
    },
    Range {
        init: usize,
        lo: String,
        hi: String,
    },
    Update {
        init: usize,
        id: i64,
        col: &'static str,
        value: Value,
    },
    Insert {
        init: usize,
        word: String,
        freq: i64,
    },
    Delete {
        init: usize,
        id: i64,
    },
    /// Commit these delta rows, then discard the rest (`commit_vol`).
    Commit {
        init: usize,
        ids: Vec<i64>,
    },
    /// Discard the tenant's delta tables (`clear_vol`).
    Clear {
        init: usize,
    },
}

/// Replays `ops` (capped at [`MAX_REPLAY`]) over a dictionary seeded with
/// `seed` rows (`(word, frequency)`, ids from 1), returning the
/// `cowproxy.*` and `sqldb.*` metrics.
pub fn replay(inits: &[String], seed: &[(String, i64)], ops: &[ProvOp]) -> Vec<Metric> {
    let mut dict = UserDictionaryProvider::new();
    let mut raw = Database::new();
    raw.execute_batch(SCHEMA).expect("static schema is valid");
    for (word, freq) in seed {
        let vals = [("word", Value::from(word.as_str())), ("frequency", Value::Integer(*freq))];
        dict.proxy_mut().insert(&DbView::Primary, "words", &vals).expect("seed proxy");
        raw.execute(
            "INSERT INTO words (word, frequency) VALUES (?, ?)",
            &[Value::from(word.as_str()), Value::Integer(*freq)],
        )
        .expect("seed raw");
    }
    let proxy = dict.proxy_mut();
    proxy.publish_read();
    let stats = &proxy.db().stats;
    stats.reset();
    let (rw_hits0, rw_miss0) = proxy.rewrite_cache_stats();
    let published0 = proxy.db().mvcc_stats().snapshots_published;

    let cols = || vec!["_id".to_string(), "word".to_string(), "frequency".to_string()];
    let mut layers = Layers::default();
    let (mut returned, mut writes) = (0u64, 0u64);
    for op in ops.iter().take(MAX_REPLAY) {
        let view = |init: &usize| DbView::Delegate { initiator: inits[*init].clone() };
        match op {
            ProvOp::Query { init, id } => {
                let opts = QueryOpts {
                    columns: cols(),
                    where_clause: Some("_id = ?".into()),
                    ..Default::default()
                };
                let params = [Value::Integer(*id)];
                let (rs, d) = timed(|| proxy.query(&view(init), "words", &opts, &params));
                returned += rs.map_or(0, |r| r.rows.len() as u64);
                layers.add(T::CowQuery, d);
                layers.add(T::CowOp, d);
                let (_, d) = timed(|| {
                    raw.query("SELECT _id, word, frequency FROM words WHERE _id = ?", &params)
                });
                layers.add(T::SqlQuery, d);
                layers.add(T::SqlOp, d);
            }
            ProvOp::Range { init, lo, hi } => {
                let opts = QueryOpts {
                    columns: cols(),
                    where_clause: Some("word >= ? AND word < ?".into()),
                    ..Default::default()
                };
                let params = [Value::from(lo.as_str()), Value::from(hi.as_str())];
                let (rs, d) = timed(|| proxy.query(&view(init), "words", &opts, &params));
                returned += rs.map_or(0, |r| r.rows.len() as u64);
                layers.add(T::CowQuery, d);
                layers.add(T::CowOp, d);
                let (_, d) = timed(|| {
                    raw.query(
                        "SELECT _id, word, frequency FROM words WHERE word >= ? AND word < ?",
                        &params,
                    )
                });
                layers.add(T::SqlQuery, d);
                layers.add(T::SqlOp, d);
            }
            ProvOp::Update { init, id, col, value } => {
                let sets = [(*col, value.clone())];
                let params = [Value::Integer(*id)];
                let (_, d) =
                    timed(|| proxy.update(&view(init), "words", &sets, Some("_id = ?"), &params));
                layers.add(T::CowUpdate, d);
                layers.add(T::CowOp, d);
                let sql = format!("UPDATE words SET {col} = ? WHERE _id = ?");
                let (_, d) = timed(|| raw.execute(&sql, &[value.clone(), Value::Integer(*id)]));
                layers.add(T::SqlExecute, d);
                layers.add(T::SqlOp, d);
                writes += 1;
            }
            ProvOp::Insert { init, word, freq } => {
                let vals =
                    [("word", Value::from(word.as_str())), ("frequency", Value::Integer(*freq))];
                let (_, d) = timed(|| proxy.insert(&view(init), "words", &vals));
                layers.add(T::CowOp, d);
                let params = [Value::from(word.as_str()), Value::Integer(*freq)];
                let (out, d) = timed(|| {
                    raw.execute("INSERT INTO words (word, frequency) VALUES (?, ?)", &params)
                });
                layers.add(T::SqlExecute, d);
                layers.add(T::SqlOp, d);
                // Keep the raw table the seeded one: a delegate's insert
                // never reaches the public rows either.
                if let Some(id) = out.ok().and_then(|o| o.last_insert_id) {
                    let _ = raw.execute("DELETE FROM words WHERE _id = ?", &[Value::Integer(id)]);
                }
                writes += 1;
            }
            ProvOp::Delete { init, id } => {
                let params = [Value::Integer(*id)];
                let (_, d) = timed(|| proxy.delete(&view(init), "words", Some("_id = ?"), &params));
                layers.add(T::CowOp, d);
                let row = raw.query("SELECT word, frequency FROM words WHERE _id = ?", &params);
                let (_, d) = timed(|| raw.execute("DELETE FROM words WHERE _id = ?", &params));
                layers.add(T::SqlExecute, d);
                layers.add(T::SqlOp, d);
                // Restore the row: a delegate's delete is a whiteout.
                if let Some(r) = row.ok().and_then(|rs| rs.rows.into_iter().next()) {
                    let mut p = vec![Value::Integer(*id)];
                    p.extend(r);
                    let _ = raw
                        .execute("INSERT INTO words (_id, word, frequency) VALUES (?, ?, ?)", &p);
                }
                writes += 1;
            }
            ProvOp::Commit { init, ids } => {
                for id in ids {
                    let _ = proxy.commit_volatile_row(&inits[*init], "words", *id);
                }
                let _ = proxy.clear_volatile(&inits[*init]);
                writes += 1;
            }
            ProvOp::Clear { init } => {
                let _ = proxy.clear_volatile(&inits[*init]);
                writes += 1;
            }
        }
        // The resolver republishes after every locked provider call.
        proxy.publish_read();
    }

    let st = &proxy.db().stats;
    let (rw_hits, rw_miss) = proxy.rewrite_cache_stats();
    let (rw_hits, rw_miss) = ((rw_hits - rw_hits0) as f64, (rw_miss - rw_miss0) as f64);
    let published = proxy.db().mvcc_stats().snapshots_published - published0;
    let (sh, sm) = (st.stmt_cache_hits.get() as f64, st.stmt_cache_misses.get() as f64);
    let (ph, pm) = (st.plan_cache_hits.get() as f64, st.plan_cache_misses.get() as f64);
    vec![
        Metric::new("cowproxy.query_us", Unit::Us, layers.mean_us(T::CowQuery)),
        Metric::new("cowproxy.update_us", Unit::Us, layers.mean_us(T::CowUpdate)),
        Metric::new(
            "cowproxy.overhead_us",
            Unit::Us,
            layers.mean_us(T::CowOp) - layers.mean_us(T::SqlOp),
        ),
        Metric::new("cowproxy.rewrite_hit_rate", Unit::Ratio, ratio(rw_hits, rw_hits + rw_miss)),
        Metric::new("sqldb.query_us", Unit::Us, layers.mean_us(T::SqlQuery)),
        Metric::new("sqldb.execute_us", Unit::Us, layers.mean_us(T::SqlExecute)),
        Metric::new("sqldb.stmt_cache_hit_rate", Unit::Ratio, ratio(sh, sh + sm)),
        Metric::new("sqldb.plan_cache_hit_rate", Unit::Ratio, ratio(ph, ph + pm)),
        Metric::new(
            "sqldb.rows_scanned_per_returned",
            Unit::Ratio,
            ratio(st.rows_scanned.get() as f64, returned as f64),
        ),
        Metric::new(
            "sqldb.snapshots_per_write",
            Unit::Ratio,
            ratio(published as f64, writes as f64),
        ),
    ]
}
