//! The database: schema registry and public execution API.

use crate::ast::{Expr, SelectStmt, Stmt, TriggerEvent};
use crate::error::{SqlError, SqlResult};
use crate::expr::{SubqueryCache, TriggerCtx};
use crate::mvcc::{DbSnapshot, MvccShared, MvccStats, ReadSnapshot};
use crate::parser::{parse_statement, parse_statements};
use crate::plancache::{PlanCache, SelectLookup};
use crate::planner::{plan_access, try_flatten, AccessPlan, FlattenPolicy};
use crate::table::Table;
use crate::value::Value;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Memoized `Arc`'d catalog clones keyed by catalog generation, so
/// repeated snapshot publications between DDL statements share one copy
/// of the view/trigger definitions. The maps hold `Arc`'d definitions,
/// so even the rebuild after a generation bump is refcount bumps plus
/// key clones — at fleet scale the system database carries thousands of
/// per-tenant COW views/triggers, and a deep catalog clone per fork was
/// the dominant cost of snapshot publication.
type CatalogMemo =
    (u64, Arc<BTreeMap<String, Arc<ViewDef>>>, Arc<BTreeMap<String, Arc<TriggerDef>>>);

/// Memoized `(view, event) -> trigger name` index keyed by catalog
/// generation, replacing the O(#triggers) linear scan in
/// [`Database::trigger_for`]. At fleet scale one system database holds
/// thousands of per-tenant COW triggers, and every view write performs a
/// trigger lookup.
type TriggerMemo = (u64, BTreeMap<(String, TriggerEvent), String>);

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

/// Execution counters, used by tests and the flattening ablation bench.
#[derive(Debug)]
pub struct Stats {
    /// Rows visited by table scans.
    pub rows_scanned: Cell<u64>,
    /// Primary-key point lookups taken instead of scans.
    pub point_lookups: Cell<u64>,
    /// Secondary-index probes (equality or range) taken instead of scans.
    pub index_probes: Cell<u64>,
    /// Rows materialized (cloned) out of storage by scans — rows that
    /// passed the filter. Filtered-out rows are visited borrowed and never
    /// counted here.
    pub rows_cloned: Cell<u64>,
    /// Queries rewritten by UNION ALL subquery flattening.
    pub flattened_queries: Cell<u64>,
    /// Queries that materialized a view (no flattening).
    pub materialized_views: Cell<u64>,
    /// Prepared-statement cache hits (SQL text found already parsed).
    pub stmt_cache_hits: Cell<u64>,
    /// Prepared-statement cache misses (SQL text parsed afresh).
    pub stmt_cache_misses: Cell<u64>,
    /// Plan-cache hits: a flatten decision or access plan was reused.
    pub plan_cache_hits: Cell<u64>,
    /// Plan-cache misses: a flatten decision or access plan was computed.
    pub plan_cache_misses: Cell<u64>,
    /// Catalog-generation bumps (DDL, rollback) that dropped live cached
    /// plans.
    pub plan_cache_invalidations: Cell<u64>,
    /// EXPLAIN-style access-path notes, one per table access, capped at
    /// [`Stats::access_path_cap`] entries (default
    /// [`ACCESS_PATH_LOG_CAP`]).
    pub access_paths: RefCell<Vec<String>>,
    /// Retention cap for [`Stats::access_paths`]; configurable so long
    /// journaled replays can keep their full EXPLAIN output.
    pub access_path_cap: Cell<usize>,
    /// Access-path lines dropped because the cap was reached. Non-zero
    /// means [`Stats::access_paths`] is an incomplete record.
    pub access_paths_dropped: Cell<u64>,
}

/// Default retention cap for [`Stats::access_paths`].
pub const ACCESS_PATH_LOG_CAP: usize = 64;

/// Statements the prepared-statement cache holds; reaching the cap clears
/// it (the plan cache's policy too).
const STMT_CACHE_CAP: usize = 512;

impl Default for Stats {
    fn default() -> Self {
        Stats {
            rows_scanned: Cell::new(0),
            point_lookups: Cell::new(0),
            index_probes: Cell::new(0),
            rows_cloned: Cell::new(0),
            flattened_queries: Cell::new(0),
            materialized_views: Cell::new(0),
            stmt_cache_hits: Cell::new(0),
            stmt_cache_misses: Cell::new(0),
            plan_cache_hits: Cell::new(0),
            plan_cache_misses: Cell::new(0),
            plan_cache_invalidations: Cell::new(0),
            access_paths: RefCell::new(Vec::new()),
            access_path_cap: Cell::new(ACCESS_PATH_LOG_CAP),
            access_paths_dropped: Cell::new(0),
        }
    }
}

impl Stats {
    /// Resets all counters. The configured cap is preserved.
    pub fn reset(&self) {
        self.rows_scanned.set(0);
        self.point_lookups.set(0);
        self.index_probes.set(0);
        self.rows_cloned.set(0);
        self.flattened_queries.set(0);
        self.materialized_views.set(0);
        self.stmt_cache_hits.set(0);
        self.stmt_cache_misses.set(0);
        self.plan_cache_hits.set(0);
        self.plan_cache_misses.set(0);
        self.plan_cache_invalidations.set(0);
        self.access_paths.borrow_mut().clear();
        self.access_paths_dropped.set(0);
    }

    /// Sets the access-path retention cap. Does not truncate lines already
    /// retained.
    pub fn set_access_path_cap(&self, cap: usize) {
        self.access_path_cap.set(cap);
    }

    /// Records one EXPLAIN-style access-path line. Past the cap the line
    /// is dropped and [`Stats::access_paths_dropped`] is incremented, so
    /// truncation is always detectable.
    pub fn note_access_path(&self, line: String) {
        self.note_access_path_with(|| line);
    }

    /// Like [`Stats::note_access_path`], but the line is only rendered
    /// when it will actually be retained — steady-state workloads past
    /// the cap skip the formatting allocation entirely.
    pub fn note_access_path_with(&self, line: impl FnOnce() -> String) {
        let mut log = self.access_paths.borrow_mut();
        if log.len() < self.access_path_cap.get() {
            log.push(line());
        } else {
            self.access_paths_dropped.set(self.access_paths_dropped.get() + 1);
        }
    }

    /// Drains and returns the recorded access-path lines.
    pub fn take_access_paths(&self) -> Vec<String> {
        std::mem::take(&mut *self.access_paths.borrow_mut())
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
    /// Base tables by key. Private so every change goes through the
    /// helpers that feed the transaction undo log (`table_mut`,
    /// `create_table`, `drop_table`, `attach_heap`); other modules read
    /// it through [`Database::tables`].
    tables: BTreeMap<String, Table>,
    pub(crate) views: BTreeMap<String, Arc<ViewDef>>,
    pub(crate) triggers: BTreeMap<String, Arc<TriggerDef>>,
    /// Planner policy for UNION ALL view flattening.
    pub flatten_policy: FlattenPolicy,
    /// Execution counters.
    pub stats: Stats,
    /// Prepared-statement cache: SQL text -> parsed AST. Providers issue
    /// the same statement shapes repeatedly; SQLite's compiled-statement
    /// cache plays the same role on Android. Entries are `Arc` so a hit
    /// is a refcount bump, not a deep clone of the statement tree.
    stmt_cache: RefCell<HashMap<String, Arc<Stmt>>>,
    /// Flatten-rewrite and access-plan cache, invalidated by the catalog
    /// generation counter (bumped on any DDL and on rollback).
    pub(crate) plan_cache: PlanCache,
    /// Undo log of the open transaction, replayed on ROLLBACK. `None` =
    /// autocommit.
    tx_undo: Option<TxUndo>,
    /// Optional journal; when attached, successful mutations are
    /// logged logically (statement text + parameters) under
    /// `journal_name`.
    journal: Option<maxoid_journal::Journal>,
    /// Component name used in emitted `Sql` records (e.g.
    /// `db.user_dictionary`).
    journal_name: String,
    /// Open journal transaction id mirroring `tx_undo`.
    journal_txn: Option<u64>,
    /// Heap tier applied to every table (existing and future) so large
    /// row payloads page to a block device instead of staying resident.
    pub(crate) heap: Option<crate::heap::HeapCfg>,
    /// Shared MVCC bookkeeping: the commit stamp, the live-snapshot
    /// registry driving version GC, and the version/GC counters. Shared
    /// (`Arc`) with every table and every published snapshot.
    pub(crate) mvcc: Arc<MvccShared>,
    /// Memoized publication: the snapshot handed out by the last
    /// [`Database::begin_read`], reused until the next mutation so
    /// reader-heavy workloads pay the freeze cost once per write, not
    /// once per read.
    published: RefCell<Option<Arc<DbSnapshot>>>,
    /// See [`CatalogMemo`].
    catalog_memo: RefCell<Option<CatalogMemo>>,
    /// See [`TriggerMemo`].
    trigger_memo: RefCell<Option<TriggerMemo>>,
    /// The frozen tables of the last publication, keyed by table name
    /// and shared (`Arc`) with the snapshots handed out. `begin_read`
    /// patches this map in place (`Arc::make_mut`, so a still-live
    /// older snapshot degrades to one O(#tables) map clone rather than
    /// corruption), re-freezing only tables whose version tag changed —
    /// publication is O(tables touched since the last publication)
    /// instead of O(all tables), the difference between µs and ms once
    /// a fleet-scale database holds thousands of per-tenant delta
    /// tables. Mutation paths evict their table's entry eagerly
    /// ([`Database::table_mut`]) so the cache never pins replaced rows.
    frozen_cache: RefCell<Arc<BTreeMap<String, Arc<Table>>>>,
    /// Names evicted from `frozen_cache` since the last publication —
    /// exactly the tables `begin_read` must re-freeze. `None` means the
    /// cache cannot be trusted incrementally (initial state, rollback,
    /// heap attach) and the next publication walks every table once,
    /// after which tracking resumes.
    frozen_dirty: RefCell<Option<std::collections::BTreeSet<String>>>,
    /// A published snapshot this (reader-private) database is bound to.
    /// When set, read-path table lookups resolve from the snapshot's
    /// frozen map instead of `self.tables`, which stays empty — so a
    /// [`crate::SnapshotReader`] rebind is O(1) regardless of how many
    /// tables the database holds. Writer databases never set this.
    bound: Option<Arc<DbSnapshot>>,
}

// Threading contract: a live `Database` is `Send` but deliberately *not*
// `Sync` — the statement/plan caches use `RefCell`/`Cell` for zero-cost
// single-threaded interior mutability, so all *mutation* goes through
// its single owner (one write lock per authority). Concurrent readers do
// NOT share this object: they call [`Database::begin_read`] (through the
// write-lock holder) and execute against the immutable `Send + Sync`
// snapshot it publishes, via their own thread-local
// [`crate::SnapshotReader`]. Cross-authority parallelism still comes
// from having many databases; intra-authority read parallelism comes
// from snapshots.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Database>();
};

/// Rollback state of the open transaction. Tables are logged lazily, on
/// the transaction's first change to each, so BEGIN copies no table and
/// a transaction pays only for what it touches.
#[derive(Debug)]
struct TxUndo {
    /// Every table the transaction has changed, mapped to its state at
    /// BEGIN: the pre-image, or `None` when the table did not exist then.
    tables: BTreeMap<String, Option<Table>>,
    /// The view and trigger catalogs at BEGIN (`Arc`'d definitions, so
    /// the copy is refcount bumps).
    views: BTreeMap<String, Arc<ViewDef>>,
    triggers: BTreeMap<String, Arc<TriggerDef>>,
    /// The last table version tag minted before BEGIN: a table with a
    /// later tag changed inside the transaction and must have an entry.
    #[cfg(debug_assertions)]
    begin_ver: u64,
    /// Number of tables at BEGIN, so a drop that skipped the log shows.
    #[cfg(debug_assertions)]
    begin_tables: usize,
}

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
            access_paths_len: stats.access_paths.borrow().len(),
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
        let paths = stats.access_paths.borrow();
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

    /// Detaches the journal, returning it if one was attached.
    pub fn take_journal(&mut self) -> Option<maxoid_journal::Journal> {
        self.journal.take()
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
        let stmt = self.prepare(sql)?;
        let out = self.exec_stmt(&stmt, params, None)?;
        if let Some(mark) = mark {
            mark.mirror(&self.stats, &mut sp);
        }
        if self.journal.is_some() && Self::loggable(&stmt) {
            self.emit_sql(sql, params);
        }
        Ok(out)
    }

    /// Parses a statement through the prepared-statement cache. Hit and
    /// miss counts land in `db.stats` unconditionally and are mirrored
    /// into the obs registry by the caller's [`StatsMark`].
    fn prepare(&self, sql: &str) -> SqlResult<Arc<Stmt>> {
        if !self.plan_cache.enabled() {
            return Ok(Arc::new(parse_statement(sql)?));
        }
        if let Some(stmt) = self.stmt_cache.borrow().get(sql) {
            self.stats.stmt_cache_hits.set(self.stats.stmt_cache_hits.get() + 1);
            return Ok(Arc::clone(stmt));
        }
        let mut sp = maxoid_obs::span("sqldb.parse");
        sp.field_with("sql", || sql.to_string());
        self.stats.stmt_cache_misses.set(self.stats.stmt_cache_misses.get() + 1);
        let stmt = Arc::new(parse_statement(sql)?);
        let mut cache = self.stmt_cache.borrow_mut();
        if cache.len() >= STMT_CACHE_CAP {
            cache.clear();
        }
        cache.insert(sql.to_string(), Arc::clone(&stmt));
        Ok(stmt)
    }

    /// Enables or disables the statement and plan caches together.
    ///
    /// With caches off, every statement is re-parsed and re-planned —
    /// the equivalence proptests and the `cache` bench's "before" cells
    /// run in this mode. Turning caches off drops all cached entries.
    pub fn set_statement_caches(&self, on: bool) {
        self.plan_cache.set_enabled(on);
        if !on {
            self.stmt_cache.borrow_mut().clear();
        }
    }

    /// True while the statement and plan caches are enabled (the default).
    pub fn statement_caches_enabled(&self) -> bool {
        self.plan_cache.enabled()
    }

    /// Current catalog generation. Bumped by every DDL statement and by
    /// rollback (which restores an older catalog); cached plans from
    /// earlier generations are never served.
    pub fn catalog_generation(&self) -> u64 {
        self.plan_cache.generation()
    }

    /// Bumps the catalog generation, dropping all cached plans. Counted
    /// in `stats.plan_cache_invalidations` when live entries were
    /// dropped.
    pub(crate) fn bump_catalog_generation(&self) {
        if self.plan_cache.bump_generation() {
            self.stats.plan_cache_invalidations.set(self.stats.plan_cache_invalidations.get() + 1);
        }
    }

    /// Runs `stmt` through the flatten cache: returns the memoized (or
    /// freshly computed) UNION ALL view rewrite, or `None` when flattening
    /// does not apply.
    pub(crate) fn cached_flatten(&self, stmt: &SelectStmt) -> Option<Arc<SelectStmt>> {
        match self.plan_cache.lookup_select(stmt, self.flatten_policy) {
            SelectLookup::Hit(flattened) => {
                self.stats.plan_cache_hits.set(self.stats.plan_cache_hits.get() + 1);
                flattened
            }
            SelectLookup::Miss => {
                self.stats.plan_cache_misses.set(self.stats.plan_cache_misses.get() + 1);
                let flattened = try_flatten(self, stmt).map(Arc::new);
                self.plan_cache.insert_select(stmt, self.flatten_policy, flattened.clone());
                flattened
            }
            SelectLookup::Bypass => try_flatten(self, stmt).map(Arc::new),
        }
    }

    /// Returns the (cached) value-free access plan for one table access.
    pub(crate) fn cached_access_plan(
        &self,
        table: &Table,
        binding: &str,
        where_clause: Option<&Expr>,
    ) -> Arc<AccessPlan> {
        let is_const = crate::exec::is_const;
        let Some(w) = where_clause else {
            // No WHERE clause always plans a full scan; not worth caching.
            return Arc::new(plan_access(table, binding, None, &is_const));
        };
        if !self.plan_cache.enabled() {
            return Arc::new(plan_access(table, binding, Some(w), &is_const));
        }
        if let Some(plan) = self.plan_cache.lookup_access(&table.schema.name, binding, w) {
            self.stats.plan_cache_hits.set(self.stats.plan_cache_hits.get() + 1);
            return plan;
        }
        self.stats.plan_cache_misses.set(self.stats.plan_cache_misses.get() + 1);
        let plan = Arc::new(plan_access(table, binding, Some(w), &is_const));
        self.plan_cache.insert_access(&table.schema.name, binding, w, plan.clone());
        plan
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
            self.exec_stmt(stmt, &[], None)?;
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
        let stmt = self.prepare(sql)?;
        match &*stmt {
            Stmt::Select(s) => {
                let cache: SubqueryCache = SubqueryCache::default();
                let rs = self.exec_select(&s, params, None, &cache, 0)?;
                if let Some(mark) = mark {
                    sp.field_with("rows", || rs.rows.len().to_string());
                    mark.mirror(&self.stats, &mut sp);
                }
                Ok(rs)
            }
            _ => Err(SqlError::Unsupported("query() requires a SELECT".into())),
        }
    }

    /// Executes a pre-parsed statement (used by the COW proxy and trigger
    /// bodies).
    pub fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        params: &[Value],
        trigger: Option<&TriggerCtx>,
    ) -> SqlResult<ExecOutcome> {
        let out = crate::exec::exec_stmt(self, stmt, params, trigger);
        if Self::loggable(stmt) {
            // Conservatively also on error: a failed multi-row statement
            // may have mutated before failing. Over-invalidation only
            // costs the next `begin_read` a cheap re-freeze.
            self.note_mutation();
        }
        out
    }

    /// Retracts the memoized published snapshot and advances the commit
    /// stamp. Must run after anything that can change table data, the
    /// catalog, or row storage; missing a call here is a snapshot
    /// staleness bug, an extra call is just a cheap re-freeze.
    pub(crate) fn note_mutation(&mut self) {
        self.published.borrow_mut().take();
        self.mvcc.bump_stamp();
    }

    /// Captures an immutable snapshot of the current committed state for
    /// lock-free readers, or `None` when one cannot be published — inside
    /// an open transaction (uncommitted state must stay private) or when
    /// any table has paged its rows to the heap tier.
    ///
    /// Publication is incremental: a table is shallow-frozen (the `Arc`
    /// of its rowid map cloned, see [`crate::table`]) only when
    /// its version tag changed since the last publication; unchanged
    /// tables reuse the previous frozen copy by `Arc`. A fleet-scale
    /// database with thousands of quiescent per-tenant delta tables
    /// therefore pays per-publication cost proportional to the tables
    /// actually touched, not the catalog size. The result is memoized
    /// until the next mutation, so a read storm between two writes
    /// performs exactly one freeze. Statements run against the snapshot
    /// through a [`crate::SnapshotReader`] and see exactly this commit
    /// stamp's state, while the owner keeps executing writes
    /// concurrently.
    pub fn begin_read(&self) -> Option<ReadSnapshot> {
        let _sp = maxoid_obs::span("sqldb.begin_read");
        if self.tx_undo.is_some() {
            return None;
        }
        let stamp = self.mvcc.stamp();
        if let Some(snap) = self.published.borrow().as_ref() {
            if snap.stamp == stamp {
                return Some(ReadSnapshot { snap: Arc::clone(snap) });
            }
        }
        let tables = {
            let mut cache = self.frozen_cache.borrow_mut();
            let mut dirty_opt = self.frozen_dirty.borrow_mut();
            let mut incremental = false;
            if let Some(dirty) = dirty_opt.as_mut() {
                // Re-freeze exactly the tables mutated since the last
                // publication; everything else keeps its frozen copy.
                if !dirty.is_empty() {
                    let map = Arc::make_mut(&mut *cache);
                    loop {
                        let name = match dirty.iter().next() {
                            Some(n) => n.clone(),
                            None => break,
                        };
                        dirty.remove(&name);
                        match self.tables.get(&name) {
                            Some(t) => {
                                let frozen = Arc::new(t.freeze()?);
                                map.insert(name, frozen);
                            }
                            None => {
                                map.remove(&name);
                            }
                        }
                    }
                }
                // A name-count mismatch means the dirty tracking missed
                // a create/drop; fall back to the full walk.
                incremental = cache.len() == self.tables.len();
            }
            #[cfg(debug_assertions)]
            if incremental {
                for (name, t) in &self.tables {
                    let f = cache.get(name).expect("frozen cache covers every table");
                    debug_assert_eq!(
                        f.version_tag(),
                        t.version_tag(),
                        "stale frozen cache for table {name}: a mutation path \
                         bypassed table_mut/uncache_frozen"
                    );
                }
            }
            if !incremental {
                let mut map = BTreeMap::new();
                for (name, t) in &self.tables {
                    let frozen = match cache.get(name) {
                        Some(f) if f.version_tag() == t.version_tag() && !t.is_paged() => {
                            Arc::clone(f)
                        }
                        _ => Arc::new(t.freeze()?),
                    };
                    map.insert(name.clone(), frozen);
                }
                *cache = Arc::new(map);
                *dirty_opt = Some(std::collections::BTreeSet::new());
            }
            Arc::clone(&*cache)
        };
        let gen = self.catalog_generation();
        let (views, triggers) = {
            let mut memo = self.catalog_memo.borrow_mut();
            match memo.as_ref() {
                Some((g, v, t)) if *g == gen => (Arc::clone(v), Arc::clone(t)),
                _ => {
                    let v = Arc::new(self.views.clone());
                    let t = Arc::new(self.triggers.clone());
                    *memo = Some((gen, Arc::clone(&v), Arc::clone(&t)));
                    (v, t)
                }
            }
        };
        let snap =
            Arc::new(DbSnapshot::new(stamp, gen, self.flatten_policy, tables, views, triggers));
        self.mvcc.note_published();
        maxoid_obs::counter_add("sqldb.snapshots_published", 1);
        *self.published.borrow_mut() = Some(Arc::clone(&snap));
        Some(ReadSnapshot { snap })
    }

    /// Point-in-time MVCC counters: the commit stamp and the snapshots
    /// published.
    pub fn mvcc_stats(&self) -> MvccStats {
        self.mvcc.stats()
    }

    /// Re-points this (reader-private) database at a published snapshot.
    /// O(1) for table data — the snapshot is bound, not copied, and
    /// read-path lookups resolve through it (see `Database::bound`).
    /// Catalog re-clone plus plan-cache invalidation happen only when
    /// the snapshot's catalog generation changed.
    pub(crate) fn retarget(&mut self, snap: &Arc<DbSnapshot>, catalog_changed: bool) {
        self.bound = Some(Arc::clone(snap));
        self.flatten_policy = snap.flatten_policy;
        if catalog_changed {
            self.views = (*snap.views).clone();
            self.triggers = (*snap.triggers).clone();
            self.bump_catalog_generation();
        }
    }

    /// Read-path table lookup: the bound snapshot when this database is
    /// a snapshot reader, the live tables otherwise. `name` must already
    /// be lowercased with [`key`].
    pub(crate) fn read_table(&self, name: &str) -> Option<&Table> {
        if let Some(b) = &self.bound {
            return b.tables.get(name).map(|a| &**a);
        }
        self.tables.get(name)
    }

    /// Executes a pre-parsed SELECT.
    pub(crate) fn exec_select(
        &self,
        stmt: &SelectStmt,
        params: &[Value],
        trigger: Option<&TriggerCtx>,
        cache: &SubqueryCache,
        depth: usize,
    ) -> SqlResult<ResultSet> {
        crate::exec::exec_select(self, stmt, params, trigger, cache, depth)
    }

    /// Starts a transaction. No table is copied here: each table's
    /// pre-image enters the undo log on the transaction's first change to
    /// it, so BEGIN costs the same for resident and paged tables, and a
    /// DDL-only transaction never reads a paged table's rows. Only the
    /// view and trigger catalogs are copied, as `Arc`'d definitions.
    pub fn begin(&mut self) -> SqlResult<()> {
        if self.tx_undo.is_some() {
            return Err(SqlError::Unsupported(
                "cannot start a transaction within a transaction".into(),
            ));
        }
        self.tx_undo = Some(TxUndo {
            tables: BTreeMap::new(),
            views: self.views.clone(),
            triggers: self.triggers.clone(),
            #[cfg(debug_assertions)]
            begin_ver: self.mvcc.last_table_ver(),
            #[cfg(debug_assertions)]
            begin_tables: self.tables.len(),
        });
        if let Some(j) = &self.journal {
            // A `TxnBegin` the journal could not write is counted in its
            // `io_errors`, as every emit's failure is; BEGIN goes on, and
            // the transaction it could not open is not closed either.
            self.journal_txn = j.begin_txn().ok();
        }
        Ok(())
    }

    /// Commits the open transaction, discarding its undo log.
    pub fn commit(&mut self) -> SqlResult<()> {
        let undo = self.tx_undo.take().ok_or_else(|| {
            SqlError::Unsupported("cannot commit - no transaction is active".into())
        })?;
        #[cfg(debug_assertions)]
        self.check_undo_log(&undo);
        // Frees the pre-images, and the heap pages of tables dropped
        // inside the transaction.
        drop(undo);
        if let (Some(j), Some(txn)) = (&self.journal, self.journal_txn.take()) {
            j.emit(maxoid_journal::Record::TxnCommit { txn });
        }
        Ok(())
    }

    /// Rolls back the open transaction: every table in the undo log gets
    /// its BEGIN state back (tables created inside the transaction are
    /// removed), and the view and trigger catalogs are restored.
    pub fn rollback(&mut self) -> SqlResult<()> {
        let undo = self.tx_undo.take().ok_or_else(|| {
            SqlError::Unsupported("cannot rollback - no transaction is active".into())
        })?;
        #[cfg(debug_assertions)]
        self.check_undo_log(&undo);
        for (name, pre) in undo.tables {
            // Restored tables carry their BEGIN tags; re-freeze them at
            // the next publication like any other changed table.
            self.uncache_frozen(&name);
            match pre {
                Some(table) => self.tables.insert(name, table),
                None => self.tables.remove(&name),
            };
        }
        self.views = undo.views;
        self.triggers = undo.triggers;
        // The restored catalog may differ from the one cached plans were
        // computed against.
        self.bump_catalog_generation();
        self.note_mutation();
        if let (Some(j), Some(txn)) = (&self.journal, self.journal_txn.take()) {
            j.emit(maxoid_journal::Record::TxnRollback { txn });
        }
        Ok(())
    }

    /// Debug-build audit of the undo log against the table version tags:
    /// every table whose tag was minted after BEGIN, and every table
    /// dropped since, must have an entry. A mutation path that bypasses
    /// the logging helpers fails here instead of surviving a ROLLBACK.
    #[cfg(debug_assertions)]
    fn check_undo_log(&self, undo: &TxUndo) {
        for (name, t) in &self.tables {
            assert!(
                t.version_tag() <= undo.begin_ver || undo.tables.contains_key(name),
                "table {name} changed inside a transaction without an undo entry: \
                 a mutation path bypassed the undo log"
            );
        }
        let untouched = self.tables.keys().filter(|n| !undo.tables.contains_key(*n)).count();
        let logged = undo.tables.values().filter(|pre| pre.is_some()).count();
        assert_eq!(
            untouched + logged,
            undo.begin_tables,
            "a table was dropped inside a transaction without an undo entry"
        );
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
        self.tx_undo.is_some()
    }

    /// Returns true if a base table with this name exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.read_table(&key(name)).is_some()
    }

    /// Returns true if a view with this name exists.
    pub fn has_view(&self, name: &str) -> bool {
        self.views.contains_key(&key(name))
    }

    /// Returns true if a trigger with this name exists.
    pub fn has_trigger(&self, name: &str) -> bool {
        self.triggers.contains_key(&key(name))
    }

    /// Returns a base table by name.
    pub fn table(&self, name: &str) -> SqlResult<&Table> {
        self.read_table(&key(name)).ok_or_else(|| SqlError::NoSuchTable(name.to_string()))
    }

    /// Returns a mutable base table by name. Conservatively retracts the
    /// published snapshot: the caller may mutate through the handle.
    /// Also drops this table's frozen-cache entry *before* the caller
    /// mutates: a cached freeze holds `Arc`s on the table's rows, which
    /// would keep every row the caller replaces alive as long as the
    /// cache. Unchanged tables keep their cache entry, whose pins are
    /// exactly the live rows.
    /// Inside a transaction, the first call for a table records its
    /// pre-image in the undo log (a paged table's rows are copied into
    /// memory then).
    pub fn table_mut(&mut self, name: &str) -> SqlResult<&mut Table> {
        self.note_mutation();
        self.uncache_frozen(name);
        let k = key(name);
        let table =
            self.tables.get_mut(&k).ok_or_else(|| SqlError::NoSuchTable(name.to_string()))?;
        if let Some(undo) = &mut self.tx_undo {
            undo.tables.entry(k).or_insert_with(|| Some(table.clone()));
        }
        Ok(table)
    }

    /// Read access to the base tables; changes go through the logging
    /// helpers.
    pub(crate) fn tables(&self) -> &BTreeMap<String, Table> {
        &self.tables
    }

    /// Registers a new table, which must not exist yet. Inside a
    /// transaction its BEGIN state is recorded as absent.
    pub(crate) fn create_table(&mut self, name: &str, table: Table) {
        self.uncache_frozen(name);
        let k = key(name);
        if let Some(undo) = &mut self.tx_undo {
            undo.tables.entry(k.clone()).or_insert(None);
        }
        let prev = self.tables.insert(k, table);
        debug_assert!(prev.is_none(), "create_table over an existing table {name}");
    }

    /// Removes a table; returns false when it did not exist. Inside a
    /// transaction the dropped table itself becomes its undo entry, so
    /// nothing is copied.
    pub(crate) fn drop_table(&mut self, name: &str) -> bool {
        let k = key(name);
        let Some(table) = self.tables.remove(&k) else {
            return false;
        };
        self.uncache_frozen(name);
        if let Some(undo) = &mut self.tx_undo {
            undo.tables.entry(k).or_insert(Some(table));
        }
        true
    }

    /// Drops `name`'s frozen-cache entry (same rationale as
    /// [`Database::table_mut`]); for table creation, drop and rollback.
    fn uncache_frozen(&self, name: &str) {
        let k = key(name);
        let mut cache = self.frozen_cache.borrow_mut();
        if cache.contains_key(&k) {
            Arc::make_mut(&mut *cache).remove(&k);
        }
        if let Some(dirty) = self.frozen_dirty.borrow_mut().as_mut() {
            dirty.insert(k);
        }
    }

    /// Attaches a device-backed heap tier: every table (existing and
    /// created later) spills its row payloads to `tier` once it outgrows
    /// `threshold` encoded bytes. Already-oversized tables migrate
    /// immediately — this is how a cold boot re-adopts a dataset that was
    /// paged in the previous run. Inside a transaction every table's
    /// pre-image is logged, so a ROLLBACK restores the tables as they
    /// were at BEGIN.
    pub fn attach_heap(&mut self, tier: crate::heap::HeapTier, threshold: usize) {
        self.note_mutation();
        *self.frozen_cache.borrow_mut() = Arc::new(BTreeMap::new());
        *self.frozen_dirty.borrow_mut() = None;
        let cfg = crate::heap::HeapCfg { tier, threshold };
        for (name, t) in self.tables.iter_mut() {
            if let Some(undo) = &mut self.tx_undo {
                undo.tables.entry(name.clone()).or_insert_with(|| Some(t.clone()));
            }
            t.attach_heap(cfg.clone());
        }
        self.heap = Some(cfg);
    }

    /// Returns a view definition by name.
    pub fn view(&self, name: &str) -> SqlResult<&ViewDef> {
        self.views
            .get(&key(name))
            .map(|v| v.as_ref())
            .ok_or_else(|| SqlError::NoSuchTable(name.to_string()))
    }

    /// Returns the trigger attached to `view_name` for `event`, if any.
    /// Served from a `(view, event)` index memoized per catalog
    /// generation (every trigger create/drop and rollback bumps the
    /// generation), so the lookup does not scan the trigger catalog.
    pub fn trigger_for(&self, view_name: &str, event: TriggerEvent) -> Option<&TriggerDef> {
        let gen = self.catalog_generation();
        let name = {
            let mut memo = self.trigger_memo.borrow_mut();
            if !matches!(memo.as_ref(), Some((g, _)) if *g == gen) {
                let mut ix = BTreeMap::new();
                for (name, t) in &self.triggers {
                    // entry(): first trigger in name order wins, matching
                    // the previous linear scan.
                    ix.entry((t.on.clone(), t.event)).or_insert_with(|| name.clone());
                }
                *memo = Some((gen, ix));
            }
            let (_, ix) = memo.as_ref().expect("just populated");
            ix.get(&(key(view_name), event)).cloned()
        };
        self.triggers.get(&name?).map(|t| t.as_ref())
    }

    /// Lists base table names (lowercased keys).
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Lists view names (lowercased keys).
    pub fn view_names(&self) -> Vec<String> {
        self.views.keys().cloned().collect()
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
        for name in self.table_names() {
            let table = match self.table(&name) {
                Ok(t) => t,
                Err(_) => continue,
            };
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
        if let Some(t) = self.read_table(&key(name)) {
            return Ok(t.schema.column_names());
        }
        if let Some(v) = self.views.get(&key(name)) {
            return Ok(v.columns.clone());
        }
        Err(SqlError::NoSuchTable(name.to_string()))
    }
}

/// Normalizes an object name to its registry key.
pub(crate) fn key(name: &str) -> String {
    name.to_ascii_lowercase()
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
mod tests {
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

    #[test]
    fn statement_and_plan_caches_stay_bounded_past_their_caps() {
        use crate::plancache::PLAN_CACHE_CAP;
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
        let mut peak = (0, 0, 0);
        for round in 0..2 {
            for i in 0..STMT_CACHE_CAP.max(PLAN_CACHE_CAP) * 2 + 7 {
                // Every statement is a new shape for all three caches.
                let sql =
                    format!("SELECT _id, data FROM t WHERE _id = {} OR data = 'd{i}'", i % 50);
                let got = cached.query(&sql, &[]).unwrap();
                assert_eq!(got.rows, oracle.query(&sql, &[]).unwrap().rows, "round {round}: {sql}");
                let (selects, accesses) = cached.plan_cache.sizes();
                let stmts = cached.stmt_cache.borrow().len();
                assert!(stmts <= STMT_CACHE_CAP && selects <= PLAN_CACHE_CAP);
                assert!(accesses <= PLAN_CACHE_CAP);
                peak = (peak.0.max(stmts), peak.1.max(selects), peak.2.max(accesses));
            }
        }
        assert_eq!(peak, (STMT_CACHE_CAP, PLAN_CACHE_CAP, PLAN_CACHE_CAP), "each cap was reached");
        assert_eq!(oracle.stmt_cache.borrow().len(), 0);
        assert_eq!(oracle.plan_cache.sizes(), (0, 0));
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

    #[test]
    fn access_path_cap_is_configurable_and_drops_are_counted() {
        let mut db = Database::new();
        db.execute_batch(
            "CREATE TABLE t (_id INTEGER PRIMARY KEY, v INTEGER);
             INSERT INTO t (v) VALUES (1);",
        )
        .unwrap();
        db.stats.reset();
        db.stats.set_access_path_cap(3);
        for _ in 0..10 {
            db.query("SELECT v FROM t", &[]).unwrap();
        }
        assert_eq!(db.stats.access_paths.borrow().len(), 3);
        assert_eq!(db.stats.access_paths_dropped.get(), 7);
        // reset clears the drop counter but keeps the configured cap.
        db.stats.reset();
        assert_eq!(db.stats.access_paths_dropped.get(), 0);
        assert_eq!(db.stats.access_path_cap.get(), 3);
    }

    /// A change that skips the undo log still moves the table's version
    /// tag, which the debug-build audit at COMMIT/ROLLBACK checks against
    /// the log.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "changed inside a transaction without an undo entry")]
    fn undo_log_audit_catches_a_change_that_skips_the_log() {
        let mut db = Database::new();
        db.execute_batch("CREATE TABLE t (_id INTEGER PRIMARY KEY, v TEXT);").unwrap();
        db.begin().unwrap();
        db.tables.get_mut("t").unwrap().insert(vec![Value::Null, "x".into()], false).unwrap();
        db.commit().unwrap();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "dropped inside a transaction without an undo entry")]
    fn undo_log_audit_catches_a_drop_that_skips_the_log() {
        let mut db = Database::new();
        db.execute_batch("CREATE TABLE t (_id INTEGER PRIMARY KEY, v TEXT);").unwrap();
        db.begin().unwrap();
        db.tables.remove("t");
        db.rollback().unwrap();
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
