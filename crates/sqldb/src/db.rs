//! The database: schema registry and public execution API.

use crate::ast::{SelectStmt, Stmt, TriggerEvent};
use crate::error::{SqlError, SqlResult};
use crate::exec::{plan_stmt, Plan};
use crate::expr::{SubqueryCache, TriggerCtx};
use crate::mvcc::MvccStats;
use crate::parser::{parse_statement, parse_statements};
use crate::planner::FlattenPolicy;
use crate::table::Table;
use crate::value::Value;
use parking_lot::Mutex;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// A stored view definition.
#[derive(Debug, Clone)]
pub struct ViewDef {
    /// View name (original casing).
    pub name: String,
    /// Defining query.
    pub select: SelectStmt,
    /// Output column names, resolved at creation time.
    pub columns: Vec<String>,
}

/// A stored trigger definition.
#[derive(Debug, Clone)]
pub struct TriggerDef {
    /// Trigger name.
    pub name: String,
    /// Event (INSTEAD OF insert/update/delete).
    pub event: TriggerEvent,
    /// View the trigger is attached to (lowercased key form).
    pub on: String,
    /// Body statements.
    pub body: Vec<Stmt>,
}

/// A catalog map by lowercased name: the map and each entry behind an
/// `Arc`.
type Map<T> = Arc<BTreeMap<String, Arc<T>>>;

/// The catalog: base tables, views and triggers, copy-on-write at the map
/// level, and the heap setting new tables are created under. The live
/// database, each bound reader and an open transaction's BEGIN image hold
/// the same three maps. A change privatizes the map it changes
/// (`Arc::make_mut`, a copy of the map only while someone else holds it)
/// and then the one entry it changes, so binding a reader and BEGIN copy
/// nothing, and ROLLBACK puts the BEGIN image back, heap setting included.
#[derive(Debug, Clone, Default)]
pub(crate) struct Catalog {
    /// Private to this module: changes go through `table_mut`,
    /// `create_table`, `drop_table` and `attach_heap`.
    tables: Map<Table>,
    pub(crate) views: Map<ViewDef>,
    pub(crate) triggers: Map<TriggerDef>,
    /// Heap tier applied to every table (existing and future) so large
    /// row payloads page to a block device instead of staying resident.
    pub(crate) heap: Option<crate::heap::HeapCfg>,
}

/// One execution counter: a relaxed atomic, so a [`Database`] shared by
/// readers under a shared lock stays `Sync`.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }

    /// Adds `n`.
    pub(crate) fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }
}

/// Execution counters, used by tests and the flattening ablation bench.
#[derive(Debug, Default)]
pub struct Stats {
    /// Rows visited by table scans.
    pub rows_scanned: Counter,
    /// Primary-key point lookups taken instead of scans.
    pub point_lookups: Counter,
    /// Secondary-index probes (equality or range) taken instead of scans.
    pub index_probes: Counter,
    /// Rows materialized (cloned) out of storage by scans — rows that
    /// passed the filter. Filtered-out rows are visited borrowed and never
    /// counted here.
    pub rows_cloned: Counter,
    /// Queries rewritten by UNION ALL subquery flattening.
    pub flattened_queries: Counter,
    /// Queries that materialized a view (no flattening).
    pub materialized_views: Counter,
    /// Prepared-statement cache hits (SQL text found already parsed).
    pub stmt_cache_hits: Counter,
    /// Prepared-statement cache misses (SQL text parsed afresh).
    pub stmt_cache_misses: Counter,
    /// Plan hits: a prepared statement ran with the plan its
    /// statement-cache entry already held.
    pub plan_cache_hits: Counter,
    /// Plan misses: a prepared statement built its plan (its first run,
    /// or its first after a catalog or flatten-policy change).
    pub plan_cache_misses: Counter,
    /// Catalog-generation bumps (DDL, rollback) that made at least one
    /// built plan stale.
    pub plan_cache_invalidations: Counter,
    /// EXPLAIN-style access-path notes, one per table access, capped at
    /// [`ACCESS_PATH_LOG_CAP`] entries.
    pub access_paths: Mutex<Vec<String>>,
    /// Access-path lines dropped because the cap was reached. Non-zero
    /// means [`Stats::access_paths`] is an incomplete record.
    pub access_paths_dropped: Counter,
    /// A reader's sink: the stats of the live database it reads. The
    /// reader counts privately while its query runs, so a traced
    /// statement's counter deltas are its own, adds its counts to the
    /// sink when it lets go of the maps ([`Stats::flush`]), and notes
    /// its access paths in the sink's log. `None` for a database's own
    /// stats.
    sink: Option<Arc<Stats>>,
}

/// Retention cap for [`Stats::access_paths`].
pub const ACCESS_PATH_LOG_CAP: usize = 64;

/// Statements, and so plans, the statement cache holds; reaching the cap
/// clears it.
const STMT_CACHE_CAP: usize = 512;

/// A statement-cache entry: the parsed statement and, once it has run,
/// its plan with the catalog generation and flatten policy it was built
/// under. Both are `Arc`s, so a run clones them out and holds no borrow
/// of the cache while it changes the database.
#[derive(Debug)]
struct Prepared {
    stmt: Arc<Stmt>,
    plan: Option<(u64, FlattenPolicy, Arc<Plan>)>,
}

impl Stats {
    /// Stats for a reader of the database whose stats are `sink`.
    pub(crate) fn sinking_into(sink: &Arc<Stats>) -> Stats {
        Stats { sink: Some(Arc::clone(sink)), ..Stats::default() }
    }

    /// True when these are a reader's stats sinking into `live`.
    pub(crate) fn sinks_into(&self, live: &Arc<Stats>) -> bool {
        self.sink.as_ref().is_some_and(|s| Arc::ptr_eq(s, live))
    }

    /// The execution counters (every counter but the access-path ones).
    fn counters(&self) -> [&Counter; 11] {
        [
            &self.rows_scanned,
            &self.point_lookups,
            &self.index_probes,
            &self.rows_cloned,
            &self.flattened_queries,
            &self.materialized_views,
            &self.stmt_cache_hits,
            &self.stmt_cache_misses,
            &self.plan_cache_hits,
            &self.plan_cache_misses,
            &self.plan_cache_invalidations,
        ]
    }

    /// Resets all counters.
    pub fn reset(&self) {
        for c in self.counters().into_iter().chain([&self.access_paths_dropped]) {
            c.0.store(0, Relaxed);
        }
        self.access_paths.lock().clear();
    }

    /// Adds a reader's counts to its sink and zeroes them; nothing for
    /// stats without a sink.
    pub(crate) fn flush(&self) {
        let Some(sink) = &self.sink else { return };
        for (mine, live) in self.counters().into_iter().zip(sink.counters()) {
            let n = mine.get();
            if n != 0 {
                mine.0.store(0, Relaxed);
                live.add(n);
            }
        }
    }

    /// The stats whose access-path log these note into: the sink's for a
    /// reader, else their own.
    fn log(&self) -> &Stats {
        self.sink.as_deref().unwrap_or(self)
    }

    /// Records one EXPLAIN-style access-path line, rendered only when it
    /// will be retained, so steady-state workloads past the cap skip the
    /// formatting allocation. Past the cap the line is dropped and
    /// [`Stats::access_paths_dropped`] is incremented, so truncation is
    /// always detectable. A reader notes into its sink's log.
    pub fn note_access_path_with(&self, line: impl FnOnce() -> String) {
        let this = self.log();
        let mut log = this.access_paths.lock();
        if log.len() < ACCESS_PATH_LOG_CAP {
            log.push(line());
        } else {
            this.access_paths_dropped.add(1);
        }
    }

    /// Drains and returns the recorded access-path lines.
    pub fn take_access_paths(&self) -> Vec<String> {
        std::mem::take(&mut *self.access_paths.lock())
    }
}

/// A query result: column names plus rows.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column names.
    pub columns: Vec<String>,
    /// Rows in result order.
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    /// Returns the single value of a 1×1 result, if it has that shape.
    pub fn scalar(&self) -> Option<&Value> {
        match (self.rows.len(), self.columns.len()) {
            (1, 1) => Some(&self.rows[0][0]),
            _ => None,
        }
    }

    /// Returns the index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.eq_ignore_ascii_case(name))
    }
}

/// Outcome of executing one statement.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// Result rows for SELECT statements.
    pub rows: Option<ResultSet>,
    /// Rows affected for INSERT/UPDATE/DELETE.
    pub rows_affected: usize,
    /// Rowid of the last inserted row, when the statement inserted one.
    pub last_insert_id: Option<i64>,
}

impl ExecOutcome {
    pub(crate) fn ddl() -> Self {
        ExecOutcome { rows: None, rows_affected: 0, last_insert_id: None }
    }
}

/// Maximum view-expansion depth, guarding against cyclic view definitions.
pub(crate) const MAX_DEPTH: usize = 32;

/// An embedded SQL database.
///
/// Implements the subset of SQLite that Android's system content providers
/// and Maxoid's COW proxy rely on: base tables with integer primary keys,
/// SQL views (including `UNION ALL` compound views), INSTEAD OF triggers,
/// and a planner that performs the subquery-flattening optimization the
/// paper's COW views depend on for performance (§5.2).
///
/// # Examples
///
/// ```
/// use maxoid_sqldb::{Database, Value};
///
/// let mut db = Database::new();
/// db.execute_batch(
///     "CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT);
///      INSERT INTO words (word) VALUES ('hello'), ('world');",
/// )
/// .unwrap();
/// let rs = db
///     .query("SELECT word FROM words WHERE _id = ?", &[Value::Integer(2)])
///     .unwrap();
/// assert_eq!(rs.rows[0][0], Value::Text("world".into()));
/// ```
#[derive(Debug, Default)]
pub struct Database {
    /// Tables, views and triggers (see `Catalog`); other modules read
    /// the tables through [`Database::tables`].
    pub(crate) catalog: Catalog,
    /// Planner policy for UNION ALL view flattening. A prepared statement
    /// plans again on its first run after a change.
    pub flatten_policy: FlattenPolicy,
    /// Execution counters. A [`crate::SnapshotReader`] bound to this
    /// database adds its counts to them when it lets go of the maps, and
    /// notes its access paths in their log.
    pub stats: Arc<Stats>,
    /// Statement cache: SQL text -> the parsed statement and its plan.
    /// Providers issue the same statement shapes repeatedly; SQLite's
    /// compiled-statement cache plays the same role on Android. A hit is
    /// two refcount bumps, not a re-parse or a re-plan.
    stmt_cache: Mutex<HashMap<String, Prepared>>,
    /// True while the statement cache is off: every statement is parsed
    /// afresh and plans itself as it runs.
    caches_off: AtomicBool,
    /// Catalog generation: bumped by every DDL statement and by rollback;
    /// a plan built under another generation is built again.
    generation: AtomicU64,
    /// True once a plan was built under the current generation, so the
    /// next bump counts as an invalidation.
    planned: AtomicBool,
    /// The catalog at BEGIN, which ROLLBACK puts back and COMMIT drops.
    /// `None` = autocommit.
    begin: Option<Catalog>,
    /// Optional journal; when attached, successful mutations are
    /// logged logically (statement text + parameters) under
    /// `journal_name`.
    journal: Option<maxoid_journal::Journal>,
    /// Component name used in emitted `Sql` records (e.g.
    /// `db.user_dictionary`).
    journal_name: String,
    /// Open journal transaction id mirroring `begin`.
    journal_txn: Option<u64>,
}

// Threading contract: a `Database` is `Send + Sync`, shared the way
// SQLite shares one: writers take its authority's lock exclusively
// (every change takes `&mut self`), readers take it shared. A reader
// thread does not run on the shared statement cache: it binds its own
// [`crate::SnapshotReader`] to the live catalog (three `Arc` clones) and
// lets go before its shared guard drops, so a writer never finds a map a
// reader holds. The reader follows this database's cache switch and
// adds its counts to its `stats` as it lets go. The cache's mutex and
// the relaxed counters are there for `Sync`; nothing contends on the
// mutex on the write path.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
};

/// Point-in-time copy of the [`Stats`] counters, taken before a statement
/// runs so the per-statement delta can be mirrored into the obs registry.
/// Only constructed while tracing is enabled; `db.stats` itself stays the
/// source of truth either way (obs mirroring reads it, never writes it).
struct StatsMark {
    rows_scanned: u64,
    point_lookups: u64,
    index_probes: u64,
    rows_cloned: u64,
    flattened_queries: u64,
    materialized_views: u64,
    stmt_cache_hits: u64,
    stmt_cache_misses: u64,
    plan_cache_hits: u64,
    plan_cache_misses: u64,
    plan_cache_invalidations: u64,
    access_paths_len: usize,
}

impl StatsMark {
    fn take(stats: &Stats) -> Option<StatsMark> {
        if !maxoid_obs::enabled() {
            return None;
        }
        Some(StatsMark {
            rows_scanned: stats.rows_scanned.get(),
            point_lookups: stats.point_lookups.get(),
            index_probes: stats.index_probes.get(),
            rows_cloned: stats.rows_cloned.get(),
            flattened_queries: stats.flattened_queries.get(),
            materialized_views: stats.materialized_views.get(),
            stmt_cache_hits: stats.stmt_cache_hits.get(),
            stmt_cache_misses: stats.stmt_cache_misses.get(),
            plan_cache_hits: stats.plan_cache_hits.get(),
            plan_cache_misses: stats.plan_cache_misses.get(),
            plan_cache_invalidations: stats.plan_cache_invalidations.get(),
            access_paths_len: stats.log().access_paths.lock().len(),
        })
    }

    /// Mirrors the counter growth since the mark into the obs registry and
    /// annotates the statement span with any new access-path choices.
    fn mirror(self, stats: &Stats, sp: &mut maxoid_obs::SpanGuard) {
        maxoid_obs::counter_add("sqldb.rows_scanned", stats.rows_scanned.get() - self.rows_scanned);
        maxoid_obs::counter_add(
            "sqldb.point_lookups",
            stats.point_lookups.get() - self.point_lookups,
        );
        maxoid_obs::counter_add("sqldb.index_probes", stats.index_probes.get() - self.index_probes);
        maxoid_obs::counter_add("sqldb.rows_cloned", stats.rows_cloned.get() - self.rows_cloned);
        maxoid_obs::counter_add(
            "sqldb.flattened_queries",
            stats.flattened_queries.get() - self.flattened_queries,
        );
        maxoid_obs::counter_add(
            "sqldb.materialized_views",
            stats.materialized_views.get() - self.materialized_views,
        );
        maxoid_obs::counter_add(
            "sqldb.stmt_cache_hits",
            stats.stmt_cache_hits.get() - self.stmt_cache_hits,
        );
        maxoid_obs::counter_add(
            "sqldb.stmt_cache_misses",
            stats.stmt_cache_misses.get() - self.stmt_cache_misses,
        );
        maxoid_obs::counter_add(
            "sqldb.plan_cache_hits",
            stats.plan_cache_hits.get() - self.plan_cache_hits,
        );
        maxoid_obs::counter_add(
            "sqldb.plan_cache_misses",
            stats.plan_cache_misses.get() - self.plan_cache_misses,
        );
        maxoid_obs::counter_add(
            "sqldb.plan_cache_invalidations",
            stats.plan_cache_invalidations.get() - self.plan_cache_invalidations,
        );
        let paths = stats.log().access_paths.lock();
        for line in paths.iter().skip(self.access_paths_len) {
            sp.field("access_path", line.clone());
        }
    }
}

impl Database {
    /// Creates an empty database with the default (modern) planner policy.
    pub fn new() -> Self {
        Database::default()
    }

    /// Creates a database with a specific flattening policy.
    pub fn with_policy(policy: FlattenPolicy) -> Self {
        Database { flatten_policy: policy, ..Database::default() }
    }

    /// Attaches a journal. `name` identifies this database in `Sql`
    /// records so recovery can route them back (e.g. `db.media`).
    pub fn set_journal(&mut self, journal: maxoid_journal::Journal, name: &str) {
        self.journal = Some(journal);
        self.journal_name = name.to_string();
    }

    /// Returns the journal component name set by [`Database::set_journal`].
    pub fn journal_name(&self) -> &str {
        &self.journal_name
    }

    /// True for statements that must be journaled: anything that can
    /// mutate state. SELECT is read-only; BEGIN/COMMIT/ROLLBACK are
    /// covered by dedicated transaction records.
    fn loggable(stmt: &Stmt) -> bool {
        !matches!(stmt, Stmt::Select(_) | Stmt::Begin | Stmt::Commit | Stmt::Rollback)
    }

    fn emit_sql(&self, sql: &str, params: &[Value]) {
        if let Some(j) = &self.journal {
            j.emit(maxoid_journal::Record::Sql {
                db: self.journal_name.clone(),
                sql: sql.to_string(),
                params: params.iter().map(value_to_param).collect(),
            });
        }
    }

    /// Executes a single statement with positional parameters.
    pub fn execute(&mut self, sql: &str, params: &[Value]) -> SqlResult<ExecOutcome> {
        let mut sp = maxoid_obs::span("sqldb.execute");
        sp.field_with("sql", || sql.to_string());
        let mark = StatsMark::take(&self.stats);
        let (stmt, plan) = self.prepare(sql)?;
        let out = crate::exec::exec_stmt(self, &stmt, plan.as_deref(), params, None)?;
        if let Some(mark) = mark {
            mark.mirror(&self.stats, &mut sp);
        }
        if self.journal.is_some() && Self::loggable(&stmt) {
            self.emit_sql(sql, params);
        }
        Ok(out)
    }

    /// Parses a statement through the statement cache and returns it with
    /// its entry's plan, built first if the entry has none, or one made
    /// under another catalog generation or flatten policy. A statement
    /// with nothing to plan gets none. With caches off the statement is
    /// parsed afresh and plans itself as it runs. Hit and miss counts land
    /// in `db.stats` unconditionally and are mirrored into the obs
    /// registry by the caller's [`StatsMark`].
    fn prepare(&self, sql: &str) -> SqlResult<(Arc<Stmt>, Option<Arc<Plan>>)> {
        if self.caches_off.load(Relaxed) {
            return Ok((Arc::new(parse_statement(sql)?), None));
        }
        let now = (self.catalog_generation(), self.flatten_policy);
        let cached = self.stmt_cache.lock().get(sql).map(|e| {
            let fresh = e.plan.as_ref().filter(|(g, p, _)| (*g, *p) == now);
            (Arc::clone(&e.stmt), fresh.map(|(.., plan)| Arc::clone(plan)))
        });
        let stmt = match cached {
            Some((stmt, Some(plan))) => {
                self.stats.stmt_cache_hits.add(1);
                self.stats.plan_cache_hits.add(1);
                return Ok((stmt, Some(plan)));
            }
            Some((stmt, None)) => {
                self.stats.stmt_cache_hits.add(1);
                stmt
            }
            None => {
                let mut sp = maxoid_obs::span("sqldb.parse");
                sp.field_with("sql", || sql.to_string());
                self.stats.stmt_cache_misses.add(1);
                let stmt = Arc::new(parse_statement(sql)?);
                let mut cache = self.stmt_cache.lock();
                if cache.len() >= STMT_CACHE_CAP {
                    cache.clear();
                }
                cache.insert(sql.to_string(), Prepared { stmt: Arc::clone(&stmt), plan: None });
                stmt
            }
        };
        let Some(plan) = plan_stmt(self, &stmt).map(Arc::new) else {
            return Ok((stmt, None));
        };
        self.stats.plan_cache_misses.add(1);
        self.planned.store(true, Relaxed);
        if let Some(e) = self.stmt_cache.lock().get_mut(sql) {
            e.plan = Some((now.0, now.1, Arc::clone(&plan)));
        }
        Ok((stmt, Some(plan)))
    }

    /// Enables or disables the statement cache, and with it the plans its
    /// entries hold.
    ///
    /// With caches off, every statement is re-parsed and plans itself as
    /// it runs — the equivalence proptests and the `cache` bench's
    /// "before" cells run in this mode. Turning caches off drops all
    /// cached entries.
    pub fn set_statement_caches(&self, on: bool) {
        self.caches_off.store(!on, Relaxed);
        if !on {
            self.stmt_cache.lock().clear();
        }
    }

    /// True while the statement cache is enabled (the default).
    pub fn statement_caches_enabled(&self) -> bool {
        !self.caches_off.load(Relaxed)
    }

    /// Current catalog generation. Bumped by every DDL statement and by
    /// rollback (which restores an older catalog); a plan built under an
    /// earlier generation is never run.
    pub fn catalog_generation(&self) -> u64 {
        self.generation.load(Relaxed)
    }

    /// Bumps the catalog generation, making every built plan stale.
    /// Counted in `stats.plan_cache_invalidations` when a plan was built
    /// under the generation it ends.
    pub(crate) fn bump_catalog_generation(&self) {
        self.generation.fetch_add(1, Relaxed);
        if self.planned.swap(false, Relaxed) {
            self.stats.plan_cache_invalidations.add(1);
        }
    }

    /// Executes multiple `;`-separated statements without parameters.
    ///
    /// When a journal is attached the whole batch text is logged as one
    /// `Sql` record after every statement succeeds (the lexer does not
    /// track source spans, so per-statement text is unavailable). A batch
    /// that fails midway is therefore not journaled — callers that need
    /// crash consistency across fallible batches bracket them in a
    /// transaction, whose rollback discards the partial work anyway.
    pub fn execute_batch(&mut self, sql: &str) -> SqlResult<()> {
        let mut sp = maxoid_obs::span("sqldb.batch");
        let mark = StatsMark::take(&self.stats);
        let stmts = parse_statements(sql)?;
        sp.field_with("statements", || stmts.len().to_string());
        for stmt in &stmts {
            crate::exec::exec_stmt(self, stmt, None, &[], None)?;
        }
        if let Some(mark) = mark {
            mark.mirror(&self.stats, &mut sp);
        }
        if self.journal.is_some() && stmts.iter().any(Self::loggable) {
            self.emit_sql(sql, &[]);
        }
        Ok(())
    }

    /// Runs a query and returns its rows.
    ///
    /// Unlike [`Database::execute`] this takes `&self`: SELECT cannot
    /// mutate, so concurrent readers can share the database.
    pub fn query(&self, sql: &str, params: &[Value]) -> SqlResult<ResultSet> {
        let mut sp = maxoid_obs::span("sqldb.query");
        sp.field_with("sql", || sql.to_string());
        let mark = StatsMark::take(&self.stats);
        let (stmt, plan) = self.prepare(sql)?;
        match &*stmt {
            Stmt::Select(s) => {
                let plan = match plan.as_deref() {
                    Some(Plan::Select(p)) => Some(p),
                    _ => None,
                };
                let cache: SubqueryCache = SubqueryCache::default();
                let rs = crate::exec::exec_select(self, s, plan, params, None, &cache, 0)?;
                if let Some(mark) = mark {
                    sp.field_with("rows", || rs.rows.len().to_string());
                    mark.mirror(&self.stats, &mut sp);
                }
                Ok(rs)
            }
            _ => Err(SqlError::Unsupported("query() requires a SELECT".into())),
        }
    }

    /// Executes a pre-parsed statement, which plans itself as it runs
    /// (used by the COW proxy's view hierarchy).
    pub fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        params: &[Value],
        trigger: Option<&TriggerCtx<'_>>,
    ) -> SqlResult<ExecOutcome> {
        crate::exec::exec_stmt(self, stmt, None, params, trigger)
    }

    /// Point-in-time MVCC counters. Nothing publishes snapshots any more
    /// (readers bind the live catalog under a shared lock), so
    /// `snapshots_published` reads 0; the method stays because the
    /// repository benchmark (`perfbench/`) reads it.
    pub fn mvcc_stats(&self) -> MvccStats {
        MvccStats { snapshots_published: 0 }
    }

    /// Starts a transaction. BEGIN captures the catalog's three map
    /// `Arc`s and copies nothing, so it costs the same for resident and
    /// paged tables, and no transaction reads a row it does not touch.
    pub fn begin(&mut self) -> SqlResult<()> {
        if self.begin.is_some() {
            return Err(SqlError::Unsupported(
                "cannot start a transaction within a transaction".into(),
            ));
        }
        self.begin = Some(self.catalog.clone());
        if let Some(j) = &self.journal {
            // A `TxnBegin` the journal could not write is counted in its
            // `io_errors`, as every emit's failure is; BEGIN goes on, and
            // the transaction it could not open is not closed either.
            self.journal_txn = j.begin_txn().ok();
        }
        Ok(())
    }

    /// Commits the open transaction. Dropping the BEGIN image frees what
    /// only it still held: the versions the transaction replaced, and the
    /// heap pages of tables dropped inside the transaction.
    pub fn commit(&mut self) -> SqlResult<()> {
        self.begin.take().ok_or_else(|| {
            SqlError::Unsupported("cannot commit - no transaction is active".into())
        })?;
        if let (Some(j), Some(txn)) = (&self.journal, self.journal_txn.take()) {
            j.emit(maxoid_journal::Record::TxnCommit { txn });
        }
        Ok(())
    }

    /// Rolls back the open transaction: the catalog captured at BEGIN
    /// becomes the catalog again, every table, view and trigger with it,
    /// and the heap setting too (a heap attached inside the transaction is
    /// detached again, as the tables it paged are restored resident).
    pub fn rollback(&mut self) -> SqlResult<()> {
        self.catalog = self.begin.take().ok_or_else(|| {
            SqlError::Unsupported("cannot rollback - no transaction is active".into())
        })?;
        // The restored catalog may differ from the one cached plans were
        // computed against.
        self.bump_catalog_generation();
        if let (Some(j), Some(txn)) = (&self.journal, self.journal_txn.take()) {
            j.emit(maxoid_journal::Record::TxnRollback { txn });
        }
        Ok(())
    }

    /// Applies a recovered `Sql` journal record. Batch records (no
    /// parameters) replay through [`Database::execute_batch`]; everything
    /// else through [`Database::execute`]. Recovery databases have no
    /// journal attached, so replay does not re-log.
    pub fn apply_journal_sql(
        &mut self,
        sql: &str,
        params: &[maxoid_journal::ParamValue],
    ) -> SqlResult<()> {
        if params.is_empty() {
            self.execute_batch(sql)
        } else {
            let values: Vec<Value> = params.iter().map(param_to_value).collect();
            self.execute(sql, &values).map(|_| ())
        }
    }

    /// Returns true while a transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.begin.is_some()
    }

    /// Returns true if a base table with this name exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.catalog.tables.contains_key(&*key(name))
    }

    /// Returns true if a view with this name exists.
    pub fn has_view(&self, name: &str) -> bool {
        self.catalog.views.contains_key(&*key(name))
    }

    /// Returns true if a trigger with this name exists.
    pub fn has_trigger(&self, name: &str) -> bool {
        self.catalog.triggers.contains_key(&*key(name))
    }

    /// Returns a base table by name.
    pub fn table(&self, name: &str) -> SqlResult<&Table> {
        self.catalog
            .tables
            .get(&*key(name))
            .map(|t| &**t)
            .ok_or_else(|| SqlError::NoSuchTable(name.to_string()))
    }

    /// Returns a mutable base table by name. A table the BEGIN image
    /// shares is copied away from it first: a shallow copy, whose rows and
    /// indexes stay shared until they change.
    pub fn table_mut(&mut self, name: &str) -> SqlResult<&mut Table> {
        let live = Arc::make_mut(&mut self.catalog.tables)
            .get_mut(&*key(name))
            .ok_or_else(|| SqlError::NoSuchTable(name.to_string()))?;
        Ok(Arc::make_mut(live))
    }

    /// Read access to the base tables; changes go through `table_mut`,
    /// `create_table`, `drop_table` and `attach_heap`.
    pub(crate) fn tables(&self) -> &BTreeMap<String, Arc<Table>> {
        &self.catalog.tables
    }

    /// Registers a new table, which must not exist yet.
    pub(crate) fn create_table(&mut self, name: &str, table: Table) {
        let prev =
            Arc::make_mut(&mut self.catalog.tables).insert(key(name).into_owned(), Arc::new(table));
        debug_assert!(prev.is_none(), "create_table over an existing table {name}");
    }

    /// Removes a table; returns false when it did not exist. Inside a
    /// transaction the BEGIN image keeps the dropped table, so nothing is
    /// copied.
    pub(crate) fn drop_table(&mut self, name: &str) -> bool {
        let k = key(name);
        self.catalog.tables.contains_key(&*k)
            && Arc::make_mut(&mut self.catalog.tables).remove(&*k).is_some()
    }

    /// Attaches a device-backed heap tier: every table (existing and
    /// created later) spills its row payloads to `tier` once it outgrows
    /// `threshold` encoded bytes. Already-oversized tables migrate
    /// immediately — this is how a cold boot re-adopts a dataset that was
    /// paged in the previous run. Inside a transaction the BEGIN image
    /// keeps every table as it was, so a ROLLBACK restores them.
    pub fn attach_heap(&mut self, tier: maxoid_block::SpillTier, threshold: usize) {
        let cfg = crate::heap::HeapCfg { tier, threshold };
        for live in Arc::make_mut(&mut self.catalog.tables).values_mut() {
            Arc::make_mut(live).attach_heap(cfg.clone());
        }
        self.catalog.heap = Some(cfg);
    }

    /// Returns a view definition by name.
    pub fn view(&self, name: &str) -> SqlResult<&ViewDef> {
        let view = self.catalog.views.get(&*key(name));
        view.map(|v| &**v).ok_or_else(|| SqlError::NoSuchTable(name.to_string()))
    }

    /// Lists base table names (lowercased keys).
    pub fn table_names(&self) -> Vec<String> {
        self.catalog.tables.keys().cloned().collect()
    }

    /// Dumps every base table's rows as replayable `(sql, params)`
    /// statements for journal compaction. The caller replays catalog DDL
    /// (CREATE TABLE/INDEX/VIEW/TRIGGER, retained from the original log)
    /// first; this dump then rebuilds rows *and rowid allocation state*
    /// exactly:
    ///
    /// * explicit-pk tables store the pk value in the row, so plain
    ///   INSERTs reproduce rowids; one final `ALTER ... ROWID START`
    ///   restores the allocation floor;
    /// * hidden-rowid tables auto-assign, so each INSERT is preceded by
    ///   an `ALTER ... ROWID START` pinning the next assignment — holes
    ///   from deleted rows survive the roundtrip.
    ///
    /// Triggers cannot fire during replay: only INSTEAD OF triggers on
    /// views exist, and the dump addresses base tables directly.
    pub fn dump_sql(&self) -> Vec<(String, Vec<maxoid_journal::ParamValue>)> {
        let mut out = Vec::new();
        for (name, table) in self.catalog.tables.iter() {
            let cols = table.schema.column_names().join(", ");
            let placeholders: Vec<String> =
                (1..=table.schema.columns.len()).map(|i| format!("?{i}")).collect();
            let insert =
                format!("INSERT INTO {name} ({cols}) VALUES ({})", placeholders.join(", "));
            let hidden_rowid = table.schema.pk_column.is_none();
            for (rowid, row) in table.iter() {
                if hidden_rowid {
                    out.push((format!("ALTER TABLE {name} ROWID START {rowid}"), Vec::new()));
                }
                out.push((insert.clone(), row.iter().map(value_to_param).collect()));
            }
            out.push((format!("ALTER TABLE {name} ROWID START {}", table.pk_start()), Vec::new()));
        }
        out
    }

    /// Returns output column names for a table or view.
    pub fn relation_columns(&self, name: &str) -> SqlResult<Vec<String>> {
        if let Some(t) = self.catalog.tables.get(&*key(name)) {
            return Ok(t.schema.column_names().to_vec());
        }
        if let Some(v) = self.catalog.views.get(&*key(name)) {
            return Ok(v.columns.clone());
        }
        Err(SqlError::NoSuchTable(name.to_string()))
    }
}

/// Normalizes an object name to its registry key, borrowing a name that
/// is already lowercase (every name the COW proxy generates), so a lookup
/// allocates only for a mixed-case name.
pub(crate) fn key(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

/// Lowers a [`Value`] into its journal-record form.
pub fn value_to_param(v: &Value) -> maxoid_journal::ParamValue {
    use maxoid_journal::ParamValue as P;
    match v {
        Value::Null => P::Null,
        Value::Integer(i) => P::Int(*i),
        Value::Real(r) => P::Real(*r),
        Value::Text(s) => P::Text(s.clone()),
        Value::Blob(b) => P::Blob(b.clone()),
    }
}

/// Raises a journal-record parameter back into a [`Value`].
pub fn param_to_value(p: &maxoid_journal::ParamValue) -> Value {
    use maxoid_journal::ParamValue as P;
    match p {
        P::Null => Value::Null,
        P::Int(i) => Value::Integer(*i),
        P::Real(r) => Value::Real(*r),
        P::Text(s) => Value::Text(s.clone()),
        P::Blob(b) => Value::Blob(b.clone()),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn create_insert_query_roundtrip() {
        let mut db = Database::new();
        db.execute_batch(
            "CREATE TABLE t (_id INTEGER PRIMARY KEY, data TEXT);
             INSERT INTO t (data) VALUES ('a'), ('b'), ('c');",
        )
        .unwrap();
        let rs = db.query("SELECT * FROM t ORDER BY _id", &[]).unwrap();
        assert_eq!(rs.columns, vec!["_id", "data"]);
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(rs.rows[2], vec![Value::Integer(3), Value::Text("c".into())]);
    }

    /// Past the 512-entry cap the statement cache clears, and the plans
    /// its entries hold go with it: every statement below is a new text
    /// and a new plan, and each answers as the caches-off oracle does.
    #[test]
    fn statement_and_plan_caches_stay_bounded_past_their_caps() {
        let build = || {
            let mut db = Database::new();
            db.execute_batch(
                "CREATE TABLE t (_id INTEGER PRIMARY KEY, data TEXT);
                 CREATE INDEX idx_t_data ON t (data);",
            )
            .unwrap();
            for i in 0..40 {
                db.execute("INSERT INTO t (data) VALUES (?)", &[Value::Text(format!("d{i}"))])
                    .unwrap();
            }
            db
        };
        let (cached, oracle) = (build(), build());
        oracle.set_statement_caches(false);
        let mut peak = (0, 0);
        for round in 0..2 {
            for i in 0..STMT_CACHE_CAP * 2 + 7 {
                let sql =
                    format!("SELECT _id, data FROM t WHERE _id = {} OR data = 'd{i}'", i % 50);
                let got = cached.query(&sql, &[]).unwrap();
                assert_eq!(got.rows, oracle.query(&sql, &[]).unwrap().rows, "round {round}: {sql}");
                let cache = cached.stmt_cache.lock();
                let plans = cache.values().filter(|e| e.plan.is_some()).count();
                assert!(cache.len() <= STMT_CACHE_CAP && plans <= cache.len());
                peak = (peak.0.max(cache.len()), peak.1.max(plans));
            }
        }
        assert_eq!(
            peak,
            (STMT_CACHE_CAP, STMT_CACHE_CAP),
            "the cap was reached, every entry planned"
        );
        let runs = 2 * (STMT_CACHE_CAP as u64 * 2 + 7);
        assert_eq!(cached.stats.plan_cache_misses.get(), runs, "every new text built its plan");
        assert_eq!(oracle.stmt_cache.lock().len(), 0);
        assert_eq!(oracle.stats.plan_cache_misses.get(), 0, "the oracle plans as it runs");
    }

    /// `(access paths, plan hits, plan misses)` of one run of `sql` with
    /// `w` bound.
    fn planned_run(db: &Database, sql: &str, w: &str) -> (Vec<String>, u64, u64) {
        db.stats.reset();
        let rs = db.query(sql, &[w.into()]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Integer(2)]], "{sql}");
        let stats = &db.stats;
        (stats.take_access_paths(), stats.plan_cache_hits.get(), stats.plan_cache_misses.get())
    }

    /// DDL makes a prepared statement plan again under the same text:
    /// `CREATE INDEX` turns its full scan into an index probe, and
    /// `DROP INDEX` turns it back.
    #[test]
    fn a_prepared_statement_is_planned_again_after_ddl() {
        let mut db = Database::new();
        db.execute_batch(
            "CREATE TABLE t (_id INTEGER PRIMARY KEY, w TEXT);
             INSERT INTO t (w) VALUES ('a'), ('b');",
        )
        .unwrap();
        let sql = "SELECT _id FROM t WHERE w = ?1";
        let scan = vec!["t: SCAN".to_string()];
        let probe = vec!["t: INDEX ix_w EQ (1 keys)".to_string()];
        assert_eq!(planned_run(&db, sql, "b"), (scan.clone(), 0, 1));
        assert_eq!(planned_run(&db, sql, "b"), (scan.clone(), 1, 0));
        db.execute_batch("CREATE INDEX ix_w ON t (w)").unwrap();
        assert_eq!(db.stats.plan_cache_invalidations.get(), 1);
        assert_eq!(planned_run(&db, sql, "b"), (probe.clone(), 0, 1));
        assert_eq!(planned_run(&db, sql, "b"), (probe, 1, 0));
        db.execute_batch("DROP INDEX ix_w").unwrap();
        assert_eq!(db.stats.plan_cache_invalidations.get(), 1);
        assert_eq!(planned_run(&db, sql, "b"), (scan, 0, 1));
        assert_eq!(db.stmt_cache.lock().len(), 1, "one text, one entry throughout");
        // A bump with no plan built since the last one invalidates nothing.
        db.stats.reset();
        db.execute_batch("CREATE INDEX ix_w ON t (w); DROP INDEX ix_w").unwrap();
        assert_eq!(db.stats.plan_cache_invalidations.get(), 1);
    }

    /// A prepared statement runs with the flatten policy the database has
    /// now: changing the policy makes its next run plan again.
    #[test]
    fn a_flatten_policy_change_plans_a_prepared_statement_again() {
        let mut db = Database::new();
        db.execute_batch(
            "CREATE TABLE a (_id INTEGER PRIMARY KEY, w TEXT);
             CREATE TABLE b (_id INTEGER PRIMARY KEY, w TEXT);
             INSERT INTO a VALUES (1, 'x'), (2, 'y');
             INSERT INTO b VALUES (3, 'z');
             CREATE VIEW v AS SELECT _id, w FROM a UNION ALL SELECT _id, w FROM b;",
        )
        .unwrap();
        let sql = "SELECT _id FROM v WHERE w = ?1";
        let run = |db: &Database| {
            let (_, hits, misses) = planned_run(db, sql, "y");
            let stats = &db.stats;
            (stats.flattened_queries.get(), stats.materialized_views.get(), hits, misses)
        };
        assert_eq!(run(&db), (1, 0, 0, 1));
        assert_eq!(run(&db), (1, 0, 1, 0));
        db.flatten_policy = FlattenPolicy::Off;
        assert_eq!(run(&db), (0, 1, 0, 1));
        assert_eq!(run(&db), (0, 1, 1, 0));
        db.flatten_policy = FlattenPolicy::Sqlite386;
        assert_eq!(run(&db), (1, 0, 0, 1));
    }

    #[test]
    fn query_rejects_non_select() {
        let db = Database::new();
        assert!(db.query("DELETE FROM t", &[]).is_err());
    }

    #[test]
    fn journal_replay_rebuilds_catalog_and_rows() {
        use maxoid_journal::{replay, Journal, Record};
        let h = Journal::in_memory(1);
        let mut db = Database::new();
        db.set_journal(h.clone(), "db.test");
        db.execute_batch(
            "CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT, freq INTEGER);
             CREATE INDEX idx_words_word ON words (word);
             CREATE VIEW frequent AS SELECT word FROM words WHERE freq > 10;",
        )
        .unwrap();
        db.execute(
            "INSERT INTO words (word, freq) VALUES (?1, ?2)",
            &[Value::Text("hello".into()), Value::Integer(40)],
        )
        .unwrap();
        // A rolled-back transaction must leave no trace in the replay.
        db.begin().unwrap();
        db.execute("INSERT INTO words (word, freq) VALUES ('ghost', 1)", &[]).unwrap();
        db.rollback().unwrap();
        db.begin().unwrap();
        db.execute("INSERT INTO words (word, freq) VALUES ('kept', 99)", &[]).unwrap();
        db.commit().unwrap();
        // SELECTs must not be journaled.
        db.query("SELECT * FROM words", &[]).unwrap();

        let mut replayed = Database::new();
        replay(&h.bytes(), |rec| {
            if let Record::Sql { db: name, sql, params } = rec {
                assert_eq!(name, "db.test");
                replayed.apply_journal_sql(&sql, &params).unwrap();
            }
        });
        assert!(replayed.has_table("words"));
        assert!(replayed.has_view("frequent"));
        assert!(replayed
            .table("words")
            .unwrap()
            .indexes()
            .iter()
            .any(|ix| ix.name().eq_ignore_ascii_case("idx_words_word")));
        let orig = db.query("SELECT _id, word, freq FROM words ORDER BY _id", &[]).unwrap();
        let got = replayed.query("SELECT _id, word, freq FROM words ORDER BY _id", &[]).unwrap();
        assert_eq!(got, orig);
        assert_eq!(got.rows.len(), 2);
        assert!(!got.rows.iter().any(|r| r[1] == Value::Text("ghost".into())));
        // The index works in the replayed catalog, not just exists.
        replayed.stats.reset();
        replayed.query("SELECT freq FROM words WHERE word = 'kept'", &[]).unwrap();
        assert!(replayed.stats.index_probes.get() > 0);
    }

    /// The access-path log keeps [`ACCESS_PATH_LOG_CAP`] lines and counts
    /// every line it drops past them.
    #[test]
    fn access_path_cap_is_configurable_and_drops_are_counted() {
        let mut db = Database::new();
        db.execute_batch(
            "CREATE TABLE t (_id INTEGER PRIMARY KEY, v INTEGER);
             INSERT INTO t (v) VALUES (1);",
        )
        .unwrap();
        db.stats.reset();
        for _ in 0..ACCESS_PATH_LOG_CAP + 7 {
            db.query("SELECT v FROM t", &[]).unwrap();
        }
        assert_eq!(db.stats.access_paths.lock().len(), ACCESS_PATH_LOG_CAP);
        assert_eq!(db.stats.access_paths_dropped.get(), 7);
        // reset clears the log and the drop counter.
        db.stats.reset();
        assert_eq!(db.stats.access_paths_dropped.get(), 0);
        assert!(db.stats.access_paths.lock().is_empty());
    }

    /// With the whole catalog captured at BEGIN there is no per-table log
    /// to skip: a row inserted into a table reached without `table_mut`
    /// is gone after ROLLBACK.
    #[test]
    fn rollback_undoes_a_change_made_without_table_mut() {
        let mut db = Database::new();
        db.execute_batch("CREATE TABLE t (_id INTEGER PRIMARY KEY, v TEXT);").unwrap();
        db.begin().unwrap();
        let live = Arc::make_mut(&mut db.catalog.tables).get_mut("t").unwrap();
        Arc::make_mut(live).insert(vec![Value::Null, "x".into()], false).unwrap();
        assert_eq!(db.table("t").unwrap().len(), 1);
        db.rollback().unwrap();
        assert_eq!(db.table("t").unwrap().len(), 0);
    }

    /// A table removed without `drop_table` is back after ROLLBACK.
    #[test]
    fn rollback_undoes_a_drop_made_without_drop_table() {
        let mut db = Database::new();
        db.execute_batch("CREATE TABLE t (_id INTEGER PRIMARY KEY, v TEXT);").unwrap();
        db.begin().unwrap();
        Arc::make_mut(&mut db.catalog.tables).remove("t");
        assert!(!db.has_table("t"));
        db.rollback().unwrap();
        assert!(db.has_table("t"));
        assert_eq!(db.table("t").unwrap().schema.column_names(), ["_id", "v"]);
    }

    /// The address of `c`'s table map, to tell whether a write copied it.
    pub(crate) fn table_map(c: &Catalog) -> *const BTreeMap<String, Arc<Table>> {
        Arc::as_ptr(&c.tables)
    }

    /// Which of the table, view and trigger maps `a` and `b` share.
    pub(crate) fn same_maps(a: &Catalog, b: &Catalog) -> [bool; 3] {
        [
            Arc::ptr_eq(&a.tables, &b.tables),
            Arc::ptr_eq(&a.views, &b.views),
            Arc::ptr_eq(&a.triggers, &b.triggers),
        ]
    }

    /// BEGIN copies nothing: its image holds the live maps until a change
    /// copies the one map it changes away from the image.
    #[test]
    fn begin_shares_the_live_maps_until_the_first_change() {
        let mut db = Database::new();
        db.execute_batch(
            "CREATE TABLE t (_id INTEGER PRIMARY KEY, v TEXT);
             INSERT INTO t (v) VALUES ('a');
             CREATE VIEW tv AS SELECT _id, v FROM t;
             CREATE TRIGGER tv_ins INSTEAD OF INSERT ON tv BEGIN
               INSERT INTO t (v) VALUES (NEW.v);
             END;",
        )
        .unwrap();
        db.begin().unwrap();
        let image = db.begin.clone().unwrap();
        assert_eq!(same_maps(&image, &db.catalog), [true; 3]);
        db.query("SELECT v FROM tv", &[]).unwrap();
        assert_eq!(same_maps(&image, &db.catalog), [true; 3], "a read changes nothing");
        db.execute("INSERT INTO t (v) VALUES ('b')", &[]).unwrap();
        assert_eq!(same_maps(&image, &db.catalog), [false, true, true]);
        assert!(!Arc::ptr_eq(&image.tables["t"], &db.catalog.tables["t"]));
        assert_eq!(image.tables["t"].len(), 1, "the image keeps the BEGIN rows");
        db.execute_batch("CREATE VIEW tv2 AS SELECT v FROM t").unwrap();
        assert_eq!(same_maps(&image, &db.catalog), [false, false, true]);
        drop(image);
        db.rollback().unwrap();
        assert_eq!(db.table("t").unwrap().len(), 1);
        assert!(!db.has_view("tv2"));
    }

    /// BEGIN shares a paged table as it shares a resident one: the image
    /// holds the live row map until the first change copies the map, and
    /// ROLLBACK puts the image's rows back.
    #[test]
    fn begin_shares_a_paged_table_until_the_first_change() {
        use crate::table::tests::same_rows;
        use maxoid_block::{MemDevice, SpillTier};
        let mut db = Database::new();
        db.attach_heap(SpillTier::new(Box::new(MemDevice::with_sector_size(64)), 2), 0);
        db.execute_batch(
            "CREATE TABLE t (_id INTEGER PRIMARY KEY, v TEXT);
             INSERT INTO t (v) VALUES ('a'), ('b');",
        )
        .unwrap();
        fn live(db: &Database) -> &Table {
            db.table("t").unwrap()
        }
        db.begin().unwrap();
        let image = db.begin.clone().unwrap();
        assert!(live(&db).is_paged() && same_rows(&image.tables["t"], live(&db)));
        db.execute("UPDATE t SET v = 'z' WHERE _id = 1", &[]).unwrap();
        assert!(live(&db).is_paged() && !same_rows(&image.tables["t"], live(&db)));
        assert_eq!(image.tables["t"].get(1).unwrap()[1], Value::from("a"));
        drop(image);
        db.rollback().unwrap();
        assert!(live(&db).is_paged());
        assert_eq!(live(&db).get(1).unwrap()[1], Value::from("a"));
    }

    #[test]
    fn scalar_helper() {
        let mut db = Database::new();
        db.execute_batch(
            "CREATE TABLE t (_id INTEGER PRIMARY KEY);
             INSERT INTO t VALUES (1),(2),(3);",
        )
        .unwrap();
        let rs = db.query("SELECT count(*) FROM t", &[]).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Integer(3)));
    }
}
