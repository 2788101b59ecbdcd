//! User Dictionary provider workloads for the Table 3 microbenchmarks.
//!
//! Matches the paper's parameters: a 1000-row table; delegate updates run
//! before any delta entries exist (so the copy-on-write path is paid);
//! queries run after updates (so both primary and delta tables are
//! involved); query-1-word addresses a specific id, query-1k selects all.

use maxoid_cowproxy::{CowProxy, DbView, QueryOpts};
use maxoid_providers::provider::ContentProvider;
use maxoid_providers::{Caller, ContentValues, QueryArgs, Uri, UserDictionaryProvider};
use maxoid_sqldb::{Database, FlattenPolicy, Value};

/// Which setup a dictionary workload runs in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DictMode {
    /// Raw SQL against a plain table — the unmodified-Android baseline
    /// (no proxy in the call path at all).
    Android,
    /// Through the provider as an initiator (proxy present, primary
    /// tables).
    Initiator,
    /// Through the provider as a delegate (COW views + delta tables).
    Delegate,
}

impl DictMode {
    /// All three modes, baseline first.
    pub const ALL: [DictMode; 3] = [DictMode::Android, DictMode::Initiator, DictMode::Delegate];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            DictMode::Android => "android",
            DictMode::Initiator => "initiator",
            DictMode::Delegate => "delegate",
        }
    }
}

/// One dictionary operation staged ahead of its timed half: everything
/// the op needs that costs allocation or formatting (URI clones, value
/// maps, parameter vectors). Mirrors `FsWorkload`'s staged writes — with
/// staging fused into the timed region, allocator jitter drives the
/// stddev of fast cells past their mean.
enum Staged {
    /// Parameters for a raw-SQL statement (Android mode).
    Raw(Vec<Value>),
    /// Values for a provider insert.
    Insert(ContentValues),
    /// Row URI + values for a provider update.
    Update(Uri, ContentValues),
    /// Row URI for a provider point query.
    Query(Uri),
}

/// A User Dictionary instance pre-populated with `rows` words, plus the
/// caller identity for the selected mode.
pub struct DictWorkload {
    mode: DictMode,
    /// Raw database for the Android baseline.
    raw: Option<Database>,
    /// Provider for the Maxoid modes.
    provider: Option<UserDictionaryProvider>,
    caller: Caller,
    uri: Uri,
    rows: usize,
    next_update: usize,
    staged: Option<Staged>,
}

impl DictWorkload {
    /// Builds the workload with `rows` pre-seeded words.
    pub fn new(mode: DictMode, rows: usize) -> DictWorkload {
        let uri = Uri::parse("content://user_dictionary/words").expect("static uri");
        let caller = match mode {
            DictMode::Delegate => Caller::delegate("bench.app", "bench.initiator"),
            _ => Caller::normal("bench.app"),
        };
        let mut w = DictWorkload {
            mode,
            raw: None,
            provider: None,
            caller,
            uri,
            rows,
            next_update: 0,
            staged: None,
        };
        match mode {
            DictMode::Android => {
                let mut db = Database::with_policy(FlattenPolicy::Sqlite386);
                db.execute_batch(
                    "CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT NOT NULL, \
                     frequency INTEGER, locale TEXT, appid INTEGER);",
                )
                .expect("schema");
                for i in 0..rows {
                    db.execute(
                        "INSERT INTO words (word, frequency) VALUES (?, ?)",
                        &[Value::Text(format!("word{i}")), Value::Integer(i as i64)],
                    )
                    .expect("seed");
                }
                w.raw = Some(db);
            }
            DictMode::Initiator | DictMode::Delegate => {
                let mut p = UserDictionaryProvider::new();
                let seeder = Caller::normal("bench.seeder");
                for i in 0..rows {
                    p.insert(
                        &seeder,
                        &w.uri,
                        &ContentValues::new()
                            .put("word", format!("word{i}"))
                            .put("frequency", i as i64),
                    )
                    .expect("seed");
                }
                w.provider = Some(p);
            }
        }
        w
    }

    /// Access to the proxy stats (None in Android mode).
    pub fn proxy(&self) -> Option<&CowProxy> {
        self.provider.as_ref().map(|p| p.proxy())
    }

    /// Enables or disables every hot-path cache under this workload
    /// (statement/plan caches of the active database, rewrite cache of
    /// the proxy). The `cache` bench's before/after cells toggle this.
    pub fn set_caches(&mut self, on: bool) {
        if let Some(db) = &self.raw {
            db.set_statement_caches(on);
        }
        if let Some(p) = &mut self.provider {
            p.proxy().db().set_statement_caches(on);
            p.proxy_mut().set_rewrite_cache(on);
        }
    }

    /// `(hits, misses)` of the statement cache of the active database.
    pub fn stmt_cache_stats(&self) -> (u64, u64) {
        let stats = match (&self.raw, &self.provider) {
            (Some(db), _) => &db.stats,
            (_, Some(p)) => &p.proxy().db().stats,
            _ => unreachable!("workload always has a database"),
        };
        (stats.stmt_cache_hits.get(), stats.stmt_cache_misses.get())
    }

    /// `(hits, misses)` of the proxy's rewrite cache (zeros in Android
    /// mode, which has no proxy).
    pub fn rewrite_cache_stats(&self) -> (u64, u64) {
        self.provider.as_ref().map_or((0, 0), |p| p.proxy().rewrite_cache_stats())
    }

    /// Untimed half of `insert`: formats the word and builds the value
    /// map / parameter vector.
    pub fn stage_insert(&mut self, i: usize) {
        self.staged = Some(match self.mode {
            DictMode::Android => {
                Staged::Raw(vec![Value::Text(format!("new{i}")), Value::Integer(0)])
            }
            _ => Staged::Insert(
                ContentValues::new().put("word", format!("new{i}")).put("frequency", 0),
            ),
        });
    }

    /// Timed half: runs the staged insert.
    pub fn insert_staged(&mut self) {
        match self.staged.take().expect("stage_insert first") {
            Staged::Raw(params) => {
                self.raw
                    .as_mut()
                    .expect("android mode has raw db")
                    .execute("INSERT INTO words (word, frequency) VALUES (?, ?)", &params)
                    .expect("insert");
            }
            Staged::Insert(values) => {
                self.provider
                    .as_mut()
                    .expect("maxoid modes have provider")
                    .insert(&self.caller, &self.uri, &values)
                    .expect("insert");
            }
            _ => panic!("staged op is not an insert"),
        }
    }

    /// insert: one new word (staging and timed op fused; benches wanting
    /// clean timings call the halves).
    pub fn insert(&mut self, i: usize) {
        self.stage_insert(i);
        self.insert_staged();
    }

    /// Untimed half of `update`: picks the next id (cycling through the
    /// table so delegate-mode updates keep hitting rows without delta
    /// entries — first-touch copy-on-write, as in the paper) and builds
    /// the row URI and values.
    pub fn stage_update(&mut self) {
        self.next_update = self.next_update % self.rows + 1;
        let id = self.next_update as i64;
        self.staged = Some(match self.mode {
            DictMode::Android => Staged::Raw(vec![Value::Integer(id)]),
            _ => Staged::Update(self.uri.with_id(id), ContentValues::new().put("frequency", id)),
        });
    }

    /// Timed half: runs the staged update.
    pub fn update_staged(&mut self) {
        match self.staged.take().expect("stage_update first") {
            Staged::Raw(params) => {
                self.raw
                    .as_mut()
                    .expect("android mode has raw db")
                    .execute("UPDATE words SET frequency = frequency + 1 WHERE _id = ?", &params)
                    .expect("update");
            }
            Staged::Update(uri, values) => {
                self.provider
                    .as_mut()
                    .expect("maxoid modes have provider")
                    .update(&self.caller, &uri, &values, &QueryArgs::default())
                    .expect("update");
            }
            _ => panic!("staged op is not an update"),
        }
    }

    /// update: bumps one seeded word by id (staging and timed op fused).
    pub fn update(&mut self) {
        self.stage_update();
        self.update_staged();
    }

    /// Untimed half of `query_one`: builds the row URI / parameters.
    pub fn stage_query_one(&mut self, id: i64) {
        self.staged = Some(match self.mode {
            DictMode::Android => Staged::Raw(vec![Value::Integer(id)]),
            _ => Staged::Query(self.uri.with_id(id)),
        });
    }

    /// Timed half: runs the staged point query.
    pub fn query_one_staged(&mut self) -> usize {
        match self.staged.take().expect("stage_query_one first") {
            Staged::Raw(params) => self
                .raw
                .as_ref()
                .expect("android mode has raw db")
                .query("SELECT * FROM words WHERE _id = ?", &params)
                .expect("query")
                .rows
                .len(),
            Staged::Query(uri) => self
                .provider
                .as_mut()
                .expect("maxoid modes have provider")
                .query(&self.caller, &uri, &QueryArgs::default())
                .expect("query")
                .rows
                .len(),
            _ => panic!("staged op is not a query"),
        }
    }

    /// query 1 word: by id in the URI (staging and timed op fused).
    pub fn query_one(&mut self, id: i64) -> usize {
        self.stage_query_one(id);
        self.query_one_staged()
    }

    /// query 1k words: selects every word.
    pub fn query_all(&mut self) -> usize {
        match self.mode {
            DictMode::Android => self
                .raw
                .as_ref()
                .expect("android mode has raw db")
                .query("SELECT * FROM words", &[])
                .expect("query")
                .rows
                .len(),
            _ => self
                .provider
                .as_mut()
                .expect("maxoid modes have provider")
                .query(&self.caller, &self.uri, &QueryArgs::default())
                .expect("query")
                .rows
                .len(),
        }
    }

    /// delete: removes one seeded word (whiteout for delegates).
    pub fn delete(&mut self, id: i64) {
        match self.mode {
            DictMode::Android => {
                self.raw
                    .as_mut()
                    .expect("android mode has raw db")
                    .execute("DELETE FROM words WHERE _id = ?", &[Value::Integer(id)])
                    .expect("delete");
            }
            _ => {
                self.provider
                    .as_mut()
                    .expect("maxoid modes have provider")
                    .delete(&self.caller, &self.uri.with_id(id), &QueryArgs::default())
                    .expect("delete");
            }
        }
    }
}

/// Builds a CowProxy with `rows` public rows and `delta_rows` volatile
/// rows for initiator `a` — used by the flattening ablation bench.
pub fn cow_table(policy: FlattenPolicy, rows: usize, delta_rows: usize) -> CowProxy {
    let mut p = CowProxy::with_policy(policy);
    p.execute_batch("CREATE TABLE tab1 (_id INTEGER PRIMARY KEY, data TEXT);").expect("schema");
    for i in 0..rows {
        p.insert(&DbView::Primary, "tab1", &[("data", format!("d{i}").into())]).expect("seed");
    }
    let delegate = DbView::Delegate { initiator: "a".into() };
    for i in 0..delta_rows {
        p.update(
            &delegate,
            "tab1",
            &[("data", format!("v{i}").into())],
            Some("_id = ?"),
            &[Value::Integer((i + 1) as i64)],
        )
        .expect("delta seed");
    }
    p
}

/// Runs a point query through the COW view (the flattening-sensitive
/// query shape).
pub fn cow_point_query(p: &CowProxy, id: i64) -> usize {
    let delegate = DbView::Delegate { initiator: "a".into() };
    p.query(
        &delegate,
        "tab1",
        &QueryOpts {
            columns: vec!["data".into()],
            where_clause: Some("_id = ?".into()),
            ..Default::default()
        },
        &[Value::Integer(id)],
    )
    .expect("query")
    .rows
    .len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_modes_agree_on_results() {
        for mode in DictMode::ALL {
            let mut w = DictWorkload::new(mode, 50);
            assert_eq!(w.query_all(), 50, "mode {}", mode.label());
            assert_eq!(w.query_one(10), 1);
            w.insert(0);
            w.update();
            assert_eq!(w.query_all(), 51);
            w.delete(5);
            assert_eq!(w.query_all(), 50);
            assert_eq!(w.query_one(5), 0);
        }
    }

    #[test]
    fn staged_halves_match_fused_ops() {
        for mode in DictMode::ALL {
            let mut w = DictWorkload::new(mode, 20);
            w.stage_insert(0);
            w.insert_staged();
            w.stage_update();
            w.update_staged();
            w.stage_query_one(3);
            assert_eq!(w.query_one_staged(), 1, "mode {}", mode.label());
            assert_eq!(w.query_all(), 21);
            // The update cycled to the first seeded row.
            assert_eq!(w.query_one(1), 1);
        }
    }

    #[test]
    fn delegate_mode_uses_cow_machinery() {
        let mut w = DictWorkload::new(DictMode::Delegate, 20);
        w.update();
        let proxy = w.proxy().expect("delegate mode has proxy");
        assert!(proxy.has_delta("words", "bench.initiator"));
    }

    #[test]
    fn cow_table_builder_shapes() {
        let p = cow_table(FlattenPolicy::Sqlite386, 100, 10);
        assert_eq!(cow_point_query(&p, 1), 1);
        assert_eq!(cow_point_query(&p, 100), 1);
        p.db().stats.reset();
        cow_point_query(&p, 50);
        assert!(p.db().stats.flattened_queries.get() > 0);
        let off = cow_table(FlattenPolicy::Off, 100, 10);
        off.db().stats.reset();
        cow_point_query(&off, 50);
        assert_eq!(off.db().stats.flattened_queries.get(), 0);
    }
}
