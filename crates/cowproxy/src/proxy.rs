//! The copy-on-write proxy layer (paper §5.2).
//!
//! Content providers talk to [`CowProxy`] exactly as they would to SQLite:
//! they create primary tables and user-defined views, then issue
//! insert/update/query/delete calls. The extra input is a [`DbView`]
//! describing *whose* view of the data the call operates on; the proxy
//! routes the operation to primary tables, per-initiator COW views, delta
//! tables, or the administrative view accordingly, creating delta tables,
//! COW views and INSTEAD OF triggers on demand.

use crate::hierarchy::ViewHierarchy;
use crate::names::{
    cow_view, decode_initiator, delta_table, shared_derived_name, trigger, DELTA_PK_START,
    WHITEOUT_COL,
};
use crate::reader::{CowPublished, ReadSlot};
use crate::rewrite::{op, Key, Rewrite, RewriteCache};
use crate::sqlgen;
use maxoid_sqldb::ast::Stmt;
use maxoid_sqldb::parser::parse_statement;
use maxoid_sqldb::{Affinity, Database, FlattenPolicy, ResultSet, SqlError, SqlResult, Value};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Which Maxoid view of provider state an operation targets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbView {
    /// Primary tables: initiators using normal URIs, and all apps when no
    /// confinement is active.
    Primary,
    /// The merged copy-on-write view for delegates of `initiator`.
    Delegate {
        /// The initiator the calling delegate runs on behalf of.
        initiator: String,
    },
    /// Only the volatile records of `initiator` (the provider's `tmp`
    /// URIs), excluding whiteouts.
    Volatile {
        /// The initiator whose volatile state is addressed.
        initiator: String,
    },
    /// The administrative view: all public and volatile records, with
    /// provenance columns. Used by providers with active background work
    /// (Downloads, Media) that must track every record.
    Admin,
}

/// Options for a proxy query.
#[derive(Debug, Clone, Default)]
pub struct QueryOpts {
    /// Columns to project; empty means `*`.
    pub columns: Vec<String>,
    /// WHERE clause text (without the keyword), e.g. `"_id = ?"`.
    pub where_clause: Option<String>,
    /// ORDER BY text (without the keyword), e.g. `"word DESC"`.
    pub order_by: Option<String>,
    /// LIMIT row count.
    pub limit: Option<i64>,
}

/// Provenance column added by [`CowProxy::admin_query`].
pub const ADMIN_STATE_COL: &str = "_maxoid_state";
/// Initiator column added by [`CowProxy::admin_query`] (NULL for public).
pub const ADMIN_INITIATOR_COL: &str = "_maxoid_initiator";

/// The COW proxy: an embedded database plus per-initiator volatile state.
#[derive(Debug)]
pub struct CowProxy {
    db: Database,
    hierarchy: ViewHierarchy,
    /// Each initiator's forked base tables, in fork order: the tables it
    /// has a delta table, COW view and triggers for. Clear and retire
    /// walk this list instead of the catalog.
    forks: BTreeMap<String, Vec<String>>,
    /// Per-fork-epoch memo of generated SQL keyed by call shape.
    rewrite: RewriteCache,
    /// The published-snapshot slot served to lock-free readers.
    read_slot: ReadSlot,
}

// Threading contract: like the `Database` it wraps, a live `CowProxy` is
// `Send`-not-`Sync`. Each provider authority owns one proxy behind its
// per-authority write lock in the resolver table; *mutations* are
// per-authority serialized, never parallel within one proxy. Reads are
// different since MVCC: the proxy publishes immutable snapshots into a
// shared [`ReadSlot`] (see [`CowProxy::publish_read`]) and any number of
// threads query them concurrently without the write lock.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<CowProxy>();
};

impl Default for CowProxy {
    fn default() -> Self {
        Self::new()
    }
}

impl CowProxy {
    /// Creates a proxy over an empty database with the default planner
    /// policy (SQLite 3.8.6 flattening, as ported by the paper's authors).
    pub fn new() -> Self {
        Self::with_policy(FlattenPolicy::Sqlite386)
    }

    /// Creates a proxy with a specific planner policy (for ablations).
    pub fn with_policy(policy: FlattenPolicy) -> Self {
        CowProxy {
            db: Database::with_policy(policy),
            hierarchy: ViewHierarchy::default(),
            forks: BTreeMap::new(),
            rewrite: RewriteCache::default(),
            read_slot: ReadSlot::new(),
        }
    }

    /// Direct access to the underlying database (administrative escape
    /// hatch for providers and tests).
    pub fn db(&self) -> &Database {
        &self.db
    }

    /// Mutable access to the underlying database.
    ///
    /// The borrower may run arbitrary DDL, so the rewrite cache is
    /// conservatively invalidated.
    pub fn db_mut(&mut self) -> &mut Database {
        self.retract_read();
        self.rewrite.bump_epoch();
        &mut self.db
    }

    /// Runs provider schema DDL (CREATE TABLE statements) directly, in
    /// one transaction. A schema whose COW objects could share a name
    /// (see [`CowProxy::check_derived_names`]) is rolled back and
    /// refused: it leaves nothing in the catalog, and replaying the
    /// journal drops it.
    pub fn execute_batch(&mut self, sql: &str) -> SqlResult<()> {
        self.retract_read();
        self.rewrite.bump_epoch();
        self.db.begin()?;
        match self.db.execute_batch(sql).and_then(|()| self.check_derived_names(None)) {
            Ok(()) => self.db.commit(),
            Err(e) => {
                self.db.rollback()?;
                Err(e)
            }
        }
    }

    /// Registers a user-defined SQL view (e.g. Media's `images` over
    /// `files`). The proxy records its dependencies so per-initiator COW
    /// views can be built for the whole hierarchy (paper Figure 5). A view
    /// whose COW views could share a name with another object is refused
    /// before anything is created or recorded.
    pub fn register_user_view(&mut self, sql: &str) -> SqlResult<()> {
        self.retract_read();
        self.rewrite.bump_epoch();
        let Stmt::CreateView { name, .. } = parse_statement(sql)? else {
            return Err(SqlError::Unsupported("register_user_view requires CREATE VIEW".into()));
        };
        self.check_derived_names(Some(&name))?;
        self.hierarchy.register(&mut self.db, sql)
    }

    /// Refuses the schema if forks of two distinct (relation, initiator)
    /// pairs could derive one delta table, COW view, trigger or delta
    /// index: the initiator half of a name is encoded injectively, the
    /// relation half is not, so `(t, delta.app)` and `(t_delta, 2eapp)`
    /// would share `t_delta_delta_2eapp`. Base tables are the catalog's
    /// tables less the delta tables of known forks; views are the
    /// registered user views and `new_view`, the one being registered.
    fn check_derived_names(&self, new_view: Option<&str>) -> SqlResult<()> {
        let forked: std::collections::BTreeSet<String> = self
            .forks
            .iter()
            .flat_map(|(init, tables)| tables.iter().map(|t| delta_table(t, init)))
            .collect();
        let tables: Vec<String> =
            self.db.table_names().into_iter().filter(|t| !forked.contains(t)).collect();
        let mut indexes = Vec::new();
        for t in &tables {
            indexes.extend(self.db.table(t)?.indexes().iter().map(|ix| ix.name().to_string()));
        }
        let mut views = self.hierarchy.names();
        views.extend(new_view.map(str::to_ascii_lowercase));
        match shared_derived_name(&tables, &views, &indexes) {
            Some((a, b)) => Err(SqlError::Unsupported(format!(
                "schema refused: {a} and {b} could share a name"
            ))),
            None => Ok(()),
        }
    }

    /// Enables or disables the rewrite cache (on by default). Used by the
    /// cache-equivalence tests and the ablation benchmarks.
    pub fn set_rewrite_cache(&mut self, on: bool) {
        self.retract_read();
        self.rewrite.set_enabled(on);
    }

    // -----------------------------------------------------------------
    // Snapshot publication (the MVCC read path).
    // -----------------------------------------------------------------

    /// A cloneable handle to this proxy's published-snapshot slot.
    ///
    /// The slot is how lock-free readers reach the proxy: the resolver's
    /// read handles hold one and serve queries from it without the
    /// authority's write lock (see [`ReadSlot::try_query`]).
    pub fn read_slot(&self) -> ReadSlot {
        self.read_slot.clone()
    }

    /// Publishes the current committed database state into the read slot.
    ///
    /// Call at quiescent points — after a mutation has fully settled; the
    /// resolver does so after every locked provider call. Publication is
    /// memoized end to end: an unchanged `(commit stamp, fork epoch)`
    /// pair costs two atomic loads and a read-lock probe. When the
    /// database cannot snapshot (a transaction is open) the slot is
    /// retracted instead, sending readers down the locked path.
    pub fn publish_read(&mut self) {
        let _sp = maxoid_obs::span("cowproxy.publish");
        match self.db.begin_read() {
            Some(snap) => {
                self.read_slot.publish(CowPublished { snap, fork_epoch: self.rewrite.epoch() })
            }
            None => self.read_slot.retract(),
        }
    }

    /// Retracts the published snapshot. Every `&mut self` entry point
    /// calls this *before* touching state, so readers never race a
    /// mutation in flight: they see the prior committed snapshot or fall
    /// back to the locked path.
    fn retract_read(&self) {
        let _sp = maxoid_obs::span("cowproxy.retract");
        self.read_slot.retract();
    }

    /// `(hits, misses)` of the rewrite cache since construction.
    pub fn rewrite_cache_stats(&self) -> (u64, u64) {
        self.rewrite.stats()
    }

    /// The current fork epoch. Bumped by any event that can change COW
    /// topology: a fork, a retire, provider DDL, user-view registration
    /// or mutable database access. A volatile clear empties delta tables
    /// and leaves the topology, and so the epoch, as it was.
    pub fn fork_epoch(&self) -> u64 {
        self.rewrite.epoch()
    }

    /// Attaches a journal: every mutation executed through the proxy's
    /// database is recorded as a logical SQL record attributed to
    /// component `name` (conventionally `db.<authority>`).
    pub fn attach_journal(&mut self, journal: maxoid_journal::Journal, name: &str) {
        self.retract_read();
        self.db.set_journal(journal, name);
    }

    /// Wraps a database rebuilt by journal replay, rediscovering each
    /// initiator's forked tables from the `<table>_delta_<initiator>`
    /// naming convention: the encoded initiator decodes back to the
    /// initiator itself (see [`crate::names::decode_initiator`]). An
    /// encoded initiator may itself begin with `delta_` (`delta.app` is
    /// `delta_2eapp`), so every `_delta_` in a name, overlapping ones too,
    /// is a candidate split. A split names a fork when its prefix is a
    /// table, its suffix decodes to an initiator, and that pair's COW view
    /// exists (a fork creates, and a retire drops, the delta table and the
    /// COW view in one transaction). Logs written before the injective
    /// encoding never get here: the journal refuses their preamble.
    ///
    /// After adopting, re-register the provider's user-defined views
    /// (existing replayed definitions are adopted, not recreated) and then
    /// call [`CowProxy::rebuild_cow_views`].
    pub fn adopt(db: Database) -> Self {
        const SEP: &str = "_delta_";
        let mut forks: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for name in db.table_names() {
            let mut from = 0;
            while let Some(i) = name[from..].find(SEP) {
                let pos = from + i;
                from = pos + 1;
                let (table, encoded) = (&name[..pos], &name[pos + SEP.len()..]);
                if encoded.is_empty() || !db.has_table(table) {
                    continue;
                }
                let Some(initiator) = decode_initiator(encoded) else { continue };
                if db.has_view(&cow_view(table, &initiator)) {
                    forks.entry(initiator).or_default().push(table.to_string());
                    break;
                }
            }
        }
        CowProxy {
            db,
            hierarchy: ViewHierarchy::default(),
            forks,
            rewrite: RewriteCache::default(),
            read_slot: ReadSlot::new(),
        }
    }

    /// Rebuilds the per-initiator COW instances of registered user views
    /// for every initiator with volatile state: the same build a base
    /// table's fork runs (see [`CowProxy::ensure_cow`]). Those instances
    /// are derived state and never journaled, so after recovery they are
    /// missing and `read_relation` would fall back to the plain user
    /// view, hiding an initiator's delta rows.
    pub fn rebuild_cow_views(&mut self) -> SqlResult<()> {
        self.retract_read();
        self.rewrite.bump_epoch();
        for initiator in self.forks.keys() {
            self.hierarchy.build_cow_views(&mut self.db, initiator)?;
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // View plumbing.
    // -----------------------------------------------------------------

    /// Returns true if `initiator` has a delta table for `table`.
    pub fn has_delta(&self, table: &str, initiator: &str) -> bool {
        self.db.has_table(&delta_table(table, initiator))
    }

    /// Total rows currently held in `initiator`'s delta tables across
    /// every base table (whiteouts included — they occupy space too).
    /// Per-tenant accounting hook for fleet-scale stats (DESIGN.md §4.14).
    pub fn delta_row_count(&self, initiator: &str) -> usize {
        self.forked_tables(initiator)
            .iter()
            .map(|t| self.db.table(&delta_table(t, initiator)).map_or(0, |d| d.len()))
            .sum()
    }

    /// The initiators holding COW objects: each has forked at least one
    /// table and has not been retired since (a clear keeps the objects).
    pub fn forked_initiators(&self) -> impl Iterator<Item = &str> {
        self.forks.keys().map(String::as_str)
    }

    /// The base tables `initiator` has forked, in fork order.
    fn forked_tables(&self, initiator: &str) -> &[String] {
        self.forks.get(initiator).map_or(&[], Vec::as_slice)
    }

    /// Ensures delta table, COW view and triggers exist for base table
    /// `(table, initiator)`; created on demand at the first volatile write
    /// (paper: "Delta tables and COW views are created on demand"). When
    /// a registered user view selects from `table`, the fork also
    /// (re)builds the initiator's user-view COW instances, so they read
    /// through the new COW view.
    pub fn ensure_cow(&mut self, table: &str, initiator: &str) -> SqlResult<()> {
        if self.has_delta(table, initiator) {
            return Ok(());
        }
        self.retract_read();
        let mut sp = maxoid_obs::span("cowproxy.cow_fork");
        sp.field_with("table", || table.to_string());
        sp.field_with("initiator", || initiator.to_string());
        maxoid_obs::counter_add("cowproxy.cow_forks", 1);
        let (columns, column_defs, pk, base_indexes) = {
            let t = self.db.table(table)?;
            let columns = t.schema.column_names().to_vec();
            // Mirror every base-table secondary index onto the delta table
            // so index access paths work on both arms of the COW view.
            let base_indexes: Vec<(String, String)> = t
                .indexes()
                .iter()
                .map(|ix| (ix.name().to_string(), t.schema.columns[ix.column()].name.clone()))
                .collect();
            let defs: Vec<String> = t
                .schema
                .columns
                .iter()
                .map(|c| {
                    let ty = match c.affinity {
                        Affinity::Integer => "INTEGER",
                        Affinity::Real => "REAL",
                        Affinity::Text => "TEXT",
                        Affinity::Blob => "BLOB",
                        Affinity::Numeric => "NUMERIC",
                    };
                    let mut d = format!("{} {ty}", c.name);
                    if c.primary_key {
                        d.push_str(" PRIMARY KEY");
                    }
                    d
                })
                .collect();
            let pk =
                t.schema.pk_column.map(|i| t.schema.columns[i].name.clone()).ok_or_else(|| {
                    SqlError::Unsupported(format!(
                        "COW proxy requires an INTEGER PRIMARY KEY on {table}"
                    ))
                })?;
            (columns, defs, pk, base_indexes)
        };
        // The five DDL objects must appear atomically: a half-built COW
        // structure would route delegate writes into a view without its
        // confinement triggers.
        self.db.begin()?;
        let build = (|| -> SqlResult<()> {
            self.db.execute_batch(&sqlgen::delta_table_sql(table, initiator, &column_defs))?;
            // Expressed as SQL (rather than a direct `set_pk_start` call) so
            // the mutation lands in the logical journal and replayed delta
            // tables key from the same offset.
            self.db.execute(
                &format!(
                    "ALTER TABLE {} ROWID START {DELTA_PK_START}",
                    delta_table(table, initiator)
                ),
                &[],
            )?;
            for (index, column) in &base_indexes {
                self.db.execute_batch(&sqlgen::delta_index_sql(index, table, initiator, column))?;
            }
            self.db.execute_batch(&sqlgen::cow_view_sql(table, initiator, &columns, &pk))?;
            self.db.execute_batch(&sqlgen::insert_trigger_sql(table, initiator, &columns))?;
            self.db.execute_batch(&sqlgen::update_trigger_sql(table, initiator, &columns))?;
            self.db.execute_batch(&sqlgen::delete_trigger_sql(table, initiator, &columns))
        })();
        match build {
            Ok(()) => self.db.commit()?,
            Err(e) => {
                self.db.rollback()?;
                return Err(e);
            }
        }
        // The fork changed COW topology: cached rewrites that resolved
        // reads to the primary table are now stale for this initiator.
        self.rewrite.bump_epoch();
        self.forks.entry(initiator.to_string()).or_default().push(table.to_string());
        if !self.hierarchy.has_base(table) {
            return Ok(());
        }
        self.hierarchy.build_cow_views(&mut self.db, initiator)
    }

    /// Resolves the relation name an operation should target for a read.
    ///
    /// Reads before the first volatile write see the primary table
    /// unchanged (unilateral copy-on-write: the fork happens on first
    /// write, not on delegate start). `None` is a volatile read of a
    /// table the initiator never forked: there are no rows to read.
    pub fn read_relation(&self, table: &str, view: &DbView) -> SqlResult<Option<String>> {
        let relation = relation_for_read(&self.db, table, view)?;
        Ok(relation.map(|r| r.to_string()))
    }

    // -----------------------------------------------------------------
    // The SQLite-shaped data API.
    // -----------------------------------------------------------------

    /// Inserts a row; returns the new row's id.
    ///
    /// For delegates the row lands in the initiator's delta table via the
    /// INSTEAD OF INSERT trigger, keyed from the offset `N`. For
    /// `DbView::Volatile` (an initiator's `isVolatile` insert, §6.1 API 4)
    /// the row is written to the initiator's own delta table directly.
    pub fn insert(
        &mut self,
        view: &DbView,
        table: &str,
        values: &[(&str, Value)],
    ) -> SqlResult<i64> {
        let mut sp = maxoid_obs::span("cowproxy.insert");
        sp.field_with("table", || table.to_string());
        sp.field_with("view", || format!("{view:?}"));
        self.retract_read();
        let (cols, params) = split_values(values);
        let (view_tag, vinit) = view_key(view);
        let key = Key {
            op: op::INSERT,
            view_tag,
            initiator: vinit,
            table,
            parts: &cols,
            num: 0,
            num2: 0,
        };
        match view {
            DbView::Primary | DbView::Admin => {
                self.lift_owner_floor(table, &cols)?;
                let sql = match self.rewrite.lookup(&key) {
                    Some(rw) => rw.sql,
                    None => {
                        let sql: Arc<str> = insert_sql(table, &cols).into();
                        let rw = Rewrite {
                            target: Arc::from(table),
                            sql: sql.clone(),
                            appended: 0,
                            rewrote: false,
                        };
                        self.rewrite.insert(&key, rw);
                        sql
                    }
                };
                let out = self.db.execute(&sql, &params)?;
                out.last_insert_id.ok_or_else(|| {
                    SqlError::Unsupported(format!("insert into {table} produced no rowid"))
                })
            }
            DbView::Delegate { initiator } => {
                // A cache hit proves the COW structure existed at this
                // epoch (the fork itself bumps it), so ensure_cow's
                // existence probes can be skipped entirely. The entry's
                // target is the delta table the trigger inserts into, so
                // a hit builds no name.
                let rw = match self.rewrite.lookup(&key) {
                    Some(rw) => rw,
                    None => {
                        self.ensure_cow(table, initiator)?;
                        let rw = Rewrite {
                            target: delta_table(table, initiator).into(),
                            sql: insert_sql(&cow_view(table, initiator), &cols).into(),
                            appended: 0,
                            rewrote: false,
                        };
                        self.rewrite.insert(&key, rw.clone());
                        rw
                    }
                };
                let before = self.db.table(&rw.target)?.next_rowid();
                self.db.execute(&rw.sql, &params)?;
                // The trigger inserted into the delta table; recover the id.
                let after = self.db.table(&rw.target)?.next_rowid();
                Ok(if after > before { after - 1 } else { before })
            }
            DbView::Volatile { initiator } => {
                let rw = match self.rewrite.lookup(&key) {
                    Some(rw) => rw,
                    None => {
                        self.ensure_cow(table, initiator)?;
                        let delta = delta_table(table, initiator);
                        let mut wcols = cols.clone();
                        wcols.push(WHITEOUT_COL);
                        let rw = Rewrite {
                            sql: insert_sql(&delta, &wcols).into(),
                            target: delta.into(),
                            appended: 0,
                            rewrote: false,
                        };
                        self.rewrite.insert(&key, rw.clone());
                        rw
                    }
                };
                let mut params = params;
                params.push(Value::Integer(0));
                let out = self.db.execute(&rw.sql, &params)?;
                out.last_insert_id.ok_or_else(|| {
                    SqlError::Unsupported(format!("insert into {} produced no rowid", rw.target))
                })
            }
        }
    }

    /// Updates rows matching `where_clause`; returns the affected count.
    pub fn update(
        &mut self,
        view: &DbView,
        table: &str,
        sets: &[(&str, Value)],
        where_clause: Option<&str>,
        where_params: &[Value],
    ) -> SqlResult<usize> {
        let mut sp = maxoid_obs::span("cowproxy.update");
        sp.field_with("table", || table.to_string());
        sp.field_with("view", || format!("{view:?}"));
        self.retract_read();
        let mut parts: Vec<&str> = sets.iter().map(|(c, _)| *c).collect();
        parts.push(if where_clause.is_some() { "1" } else { "0" });
        parts.push(where_clause.unwrap_or(""));
        let (view_tag, vinit) = view_key(view);
        let key = Key {
            op: op::UPDATE,
            view_tag,
            initiator: vinit,
            table,
            parts: &parts,
            num: sets.len() as i64,
            num2: 0,
        };
        let sql: Arc<str> = match self.rewrite.lookup(&key) {
            Some(rw) => rw.sql,
            None => {
                let target: Arc<str> = match view {
                    DbView::Primary | DbView::Admin => Arc::from(table),
                    DbView::Delegate { initiator } => {
                        self.ensure_cow(table, initiator)?;
                        cow_view(table, initiator).into()
                    }
                    DbView::Volatile { initiator } => delta_table(table, initiator).into(),
                };
                if matches!(view, DbView::Volatile { .. }) && !self.db.has_table(&target) {
                    return Ok(0);
                }
                // SET parameters come first, then WHERE parameters; the
                // statement uses explicit indices so one parameter list
                // serves both.
                let mut sql = format!("UPDATE {target} SET ");
                for (i, (c, _)) in sets.iter().enumerate() {
                    if i > 0 {
                        sql.push_str(", ");
                    }
                    sql.push_str(&format!("{c} = ?{}", i + 1));
                }
                if let Some(w) = where_clause {
                    sql.push_str(" WHERE ");
                    sql.push_str(&renumber_params(w, sets.len()));
                }
                let sql: Arc<str> = sql.into();
                let rw = Rewrite { target, sql: sql.clone(), appended: 0, rewrote: false };
                self.rewrite.insert(&key, rw);
                sql
            }
        };
        let mut params: Vec<Value> = sets.iter().map(|(_, v)| v.clone()).collect();
        if where_clause.is_some() {
            params.extend(where_params.iter().cloned());
        }
        Ok(self.db.execute(&sql, &params)?.rows_affected)
    }

    /// Deletes rows matching `where_clause`; returns the affected count.
    ///
    /// Through a delegate view this creates whiteout records rather than
    /// touching public rows.
    pub fn delete(
        &mut self,
        view: &DbView,
        table: &str,
        where_clause: Option<&str>,
        where_params: &[Value],
    ) -> SqlResult<usize> {
        let mut sp = maxoid_obs::span("cowproxy.delete");
        sp.field_with("table", || table.to_string());
        sp.field_with("view", || format!("{view:?}"));
        self.retract_read();
        let parts = [if where_clause.is_some() { "1" } else { "0" }, where_clause.unwrap_or("")];
        let (view_tag, vinit) = view_key(view);
        let key = Key {
            op: op::DELETE,
            view_tag,
            initiator: vinit,
            table,
            parts: &parts,
            num: 0,
            num2: 0,
        };
        let sql: Arc<str> = match self.rewrite.lookup(&key) {
            Some(rw) => rw.sql,
            None => {
                let target: Arc<str> = match view {
                    DbView::Primary | DbView::Admin => Arc::from(table),
                    DbView::Delegate { initiator } => {
                        self.ensure_cow(table, initiator)?;
                        cow_view(table, initiator).into()
                    }
                    DbView::Volatile { initiator } => delta_table(table, initiator).into(),
                };
                if matches!(view, DbView::Volatile { .. }) && !self.db.has_table(&target) {
                    return Ok(0);
                }
                let mut sql = format!("DELETE FROM {target}");
                if let Some(w) = where_clause {
                    sql.push_str(" WHERE ");
                    sql.push_str(w);
                }
                let sql: Arc<str> = sql.into();
                let rw = Rewrite { target, sql: sql.clone(), appended: 0, rewrote: false };
                self.rewrite.insert(&key, rw);
                sql
            }
        };
        Ok(self.db.execute(&sql, where_params)?.rows_affected)
    }

    /// Queries the selected view of a table (or user-defined view).
    ///
    /// Reproduces the paper's footnote-5 workaround: when the planner
    /// requires ORDER BY columns to be part of the selection for
    /// flattening, the proxy appends them to the projection and strips the
    /// extra columns from the result.
    pub fn query(
        &self,
        view: &DbView,
        table: &str,
        opts: &QueryOpts,
        params: &[Value],
    ) -> SqlResult<ResultSet> {
        cached_query(&self.rewrite, &self.db, view, table, opts, params)
    }

    /// The administrative view (paper §5.2): every public and volatile
    /// record of `table` with provenance columns appended
    /// ([`ADMIN_STATE_COL`], [`ADMIN_INITIATOR_COL`], and `_whiteout`).
    pub fn admin_query(&self, table: &str) -> SqlResult<ResultSet> {
        let base = self.db.query(&format!("SELECT * FROM {table}"), &[])?;
        let mut columns = base.columns.clone();
        columns.push(ADMIN_STATE_COL.to_string());
        columns.push(ADMIN_INITIATOR_COL.to_string());
        columns.push(WHITEOUT_COL.to_string());
        let mut rows: Vec<Vec<Value>> = base
            .rows
            .into_iter()
            .map(|mut r| {
                r.push(Value::Text("public".into()));
                r.push(Value::Null);
                r.push(Value::Integer(0));
                r
            })
            .collect();
        for initiator in self.forks.keys() {
            let delta = delta_table(table, initiator);
            if !self.db.has_table(&delta) {
                continue;
            }
            let drs = self.db.query(&format!("SELECT * FROM {delta}"), &[])?;
            let wh_idx = drs
                .column_index(WHITEOUT_COL)
                .ok_or_else(|| SqlError::NoSuchColumn(WHITEOUT_COL.into()))?;
            for mut r in drs.rows {
                let wh = r.remove(wh_idx);
                r.push(Value::Text("volatile".into()));
                r.push(Value::Text(initiator.clone()));
                r.push(wh);
                rows.push(r);
            }
        }
        Ok(ResultSet { columns, rows })
    }

    /// Discards all volatile state of `initiator` across every table: the
    /// initiator's "discard the entire Vol(A)" clean-up (§3.3) for
    /// provider state, reached from Clear-Vol and from a commit that
    /// discards the rest. It deletes the rows of the initiator's non-empty
    /// delta tables and keeps everything else: the delta tables and their
    /// mirrored indexes, the COW views and INSTEAD OF triggers, and the
    /// user-view COW instances. A gesture therefore runs and journals no
    /// DDL and bumps neither the fork epoch nor the catalog generation, so
    /// every tenant's cached rewrites and plans stay warm. A delegate then
    /// reads the public rows through its empty COW view (U2), and its next
    /// write does not fork again. [`CowProxy::retire`] is what drops the
    /// objects. Returns the number of delta tables emptied.
    pub fn clear_volatile(&mut self, initiator: &str) -> SqlResult<usize> {
        let mut sp = maxoid_obs::span("cowproxy.clear_volatile");
        sp.field_with("initiator", || initiator.to_string());
        self.retract_read();
        let mut cleared = 0;
        for table in self.forks.get(initiator).into_iter().flatten() {
            let delta = delta_table(table, initiator);
            if self.db.table(&delta)?.is_empty() {
                continue;
            }
            self.db.execute(&format!("DELETE FROM {delta}"), &[])?;
            cleared += 1;
        }
        Ok(cleared)
    }

    /// Retires `initiator`: drops its delta tables, COW views and triggers
    /// and its user-view COW instances, so the catalog stays bounded by
    /// live tenants. Only idle-tenant eviction calls this; the next write
    /// of the initiator's delegates forks again. Returns the number of
    /// forked tables dropped.
    pub fn retire(&mut self, initiator: &str) -> SqlResult<usize> {
        let mut sp = maxoid_obs::span("cowproxy.retire");
        sp.field_with("initiator", || initiator.to_string());
        self.retract_read();
        let tables = self.forked_tables(initiator).to_vec();
        if tables.is_empty() {
            return Ok(0);
        }
        // One transaction, like the fork: a crash never leaves a delta
        // table without its COW view, which `adopt` would not recognise.
        self.db.begin()?;
        let drop = (|| -> SqlResult<()> {
            for table in &tables {
                // Dropping the view drops its triggers too.
                self.db.execute_batch(&format!(
                    "DROP VIEW IF EXISTS {}; DROP TABLE IF EXISTS {};",
                    cow_view(table, initiator),
                    delta_table(table, initiator)
                ))?;
                // Defensive: drop triggers individually in case the view
                // name was never created.
                for ev in ["insert", "update", "delete"] {
                    self.db.execute_batch(&format!(
                        "DROP TRIGGER IF EXISTS {};",
                        trigger(table, initiator, ev)
                    ))?;
                }
            }
            self.hierarchy.drop_initiator(&mut self.db, initiator)
        })();
        match drop {
            Ok(()) => self.db.commit()?,
            Err(e) => {
                self.db.rollback()?;
                return Err(e);
            }
        }
        self.forks.remove(initiator);
        // Delta tables and COW views are gone; cached rewrites that
        // targeted them must not be replayed.
        self.rewrite.bump_epoch();
        Ok(tables.len())
    }

    /// Commits one volatile row of `initiator` into the public table and
    /// returns the public id it landed at, or `None` if the initiator has
    /// no such row. This is the provider-side half of the initiator's
    /// selective commit (§3.3).
    ///
    /// A row the delegate updated keeps the id of the public row it
    /// copied up (below [`DELTA_PK_START`]) and replaces that row. A row
    /// the delegate inserted is keyed from `DELTA_PK_START`, as every
    /// tenant's inserts are, so its id names no public row: it becomes a
    /// new public row at a fresh id (see [`CowProxy::fresh_public_id`])
    /// and leaves the delta table, so the delegate's view shows it once,
    /// as the public row. It never replaces a public row, and a unique
    /// index on the public table refuses it as it would any insert. The
    /// logged insert names the fresh id, so replay puts the row there
    /// whatever the live table held. Rows that name the inserted row by
    /// its delta id are for the caller to move along.
    pub fn commit_volatile_row(
        &mut self,
        initiator: &str,
        table: &str,
        id: i64,
    ) -> SqlResult<Option<i64>> {
        let mut sp = maxoid_obs::span("cowproxy.commit_volatile_row");
        sp.field_with("table", || table.to_string());
        sp.field_with("id", || id.to_string());
        self.retract_read();
        let delta = delta_table(table, initiator);
        if !self.db.has_table(&delta) {
            return Ok(None);
        }
        let rs = self.db.query(
            &format!("SELECT * FROM {delta} WHERE _id = ? AND {WHITEOUT_COL} = 0"),
            &[Value::Integer(id)],
        )?;
        let Some(row) = rs.rows.first() else { return Ok(None) };
        let inserted = id >= DELTA_PK_START;
        let public = if inserted { self.fresh_public_id(table)? } else { id };
        let public_cols = self.db.table(table)?.schema.column_names().to_vec();
        let mut cols = Vec::new();
        let mut params = Vec::new();
        for (c, v) in rs.columns.iter().zip(row) {
            if public_cols.iter().any(|p| p.eq_ignore_ascii_case(c)) {
                cols.push(c.as_str());
                let key = c.eq_ignore_ascii_case("_id");
                params.push(if key { Value::Integer(public) } else { v.clone() });
            }
        }
        let sql = format!(
            "INSERT {}INTO {table} ({}) VALUES ({})",
            if inserted { "" } else { "OR REPLACE " },
            cols.join(", "),
            (1..=params.len()).map(|i| format!("?{i}")).collect::<Vec<_>>().join(", ")
        );
        if !inserted {
            self.db.execute(&sql, &params)?;
            return Ok(Some(id));
        }
        // The table's next id passes the fresh one, so neither the owner
        // nor a later commit is given it again once the row is deleted.
        self.db.execute(&format!("ALTER TABLE {table} ROWID START {}", public + 1), &[])?;
        self.db.execute(&sql, &params)?;
        self.db.execute(&format!("DELETE FROM {delta} WHERE _id = ?"), &[Value::Integer(id)])?;
        sp.field_with("public_id", || public.to_string());
        Ok(Some(public))
    }

    /// Gives an owner's insert into `table` that assigns no id of its own
    /// the floor a committed insert gets (see
    /// [`CowProxy::fresh_public_id`]), when some tenant has forked the
    /// table. Otherwise an id the owner just deleted while a tenant holds
    /// its copy-up would go to this insert, and that tenant's commit
    /// (`INSERT OR REPLACE`) would then replace the owner's new row. A
    /// floor above the table's next id is set by a logged `ALTER TABLE …
    /// ROWID START`, so replay lands the row at the same id.
    fn lift_owner_floor(&mut self, table: &str, cols: &[&str]) -> SqlResult<()> {
        let forked = self.forks.values().flatten().any(|t| t.eq_ignore_ascii_case(table));
        // A user view has no ids of its own to lift.
        let Some(t) = forked.then(|| self.db.table(table).ok()).flatten() else {
            return Ok(());
        };
        let pk = t.schema.pk_column.map(|i| t.schema.columns[i].name.as_str());
        if cols.iter().any(|c| pk.is_some_and(|pk| c.eq_ignore_ascii_case(pk))) {
            return Ok(());
        }
        let next = t.next_rowid();
        let floor = self.fresh_public_id(table)?;
        if floor > next {
            self.db.execute(&format!("ALTER TABLE {table} ROWID START {floor}"), &[])?;
        }
        Ok(())
    }

    /// The id a committed insert into `table` takes: the public table's
    /// next id (past every row it holds and every id a commit gave), or
    /// past the top public row some tenant holds a copy-up or whiteout
    /// of, if that is higher. An id the owner deleted while a tenant
    /// still holds its copy-up is therefore not given to an insert that
    /// the tenant's own commit would then replace.
    fn fresh_public_id(&self, table: &str) -> SqlResult<i64> {
        let mut id = self.db.table(table)?.next_rowid();
        let forked = |tables: &Vec<String>| tables.iter().any(|t| t.eq_ignore_ascii_case(table));
        let holders = self.forks.iter().filter(|(_, tables)| forked(tables));
        for (initiator, _) in holders {
            let top = self.db.query(
                &format!("SELECT MAX(_id) FROM {} WHERE _id < ?", delta_table(table, initiator)),
                &[Value::Integer(DELTA_PK_START)],
            )?;
            if let Some(Value::Integer(top)) = top.rows.first().and_then(|r| r.first()) {
                id = id.max(top + 1);
            }
        }
        Ok(id)
    }
}

/// Resolves the relation a read should target, given any database — the
/// live one under the authority lock or a frozen snapshot. Shared by
/// [`CowProxy::read_relation`] and the snapshot path in [`crate::reader`];
/// because the existence probes run against the passed database, a
/// snapshot read decides delta/COW-view routing *within* the snapshot
/// ("snapshot-to-snapshot"), never against newer live state.
///
/// `None` is a volatile read of a table the initiator never forked: it
/// holds none of that table's rows, so there is no relation to read.
pub(crate) fn relation_for_read(
    db: &Database,
    table: &str,
    view: &DbView,
) -> SqlResult<Option<Arc<str>>> {
    match view {
        DbView::Primary | DbView::Admin => Ok(Some(Arc::from(table))),
        DbView::Delegate { initiator } => {
            let cow = cow_view(table, initiator);
            if db.has_table(&delta_table(table, initiator))
                || (db.has_view(table) && db.has_view(&cow))
            {
                maxoid_obs::counter_add("cowproxy.view_rewrites", 1);
                Ok(Some(cow.into()))
            } else {
                Ok(Some(Arc::from(table)))
            }
        }
        DbView::Volatile { initiator } => {
            let delta = delta_table(table, initiator);
            if db.has_table(&delta) {
                Ok(Some(delta.into()))
            } else if db.has_table(table) {
                Ok(None)
            } else {
                Err(SqlError::NoSuchTable(table.to_string()))
            }
        }
    }
}

/// The proxy query pipeline over an explicit `(rewrite, db)` pair: builds
/// (or replays from the rewrite cache) the rewritten SQL for one
/// view-routed query, executes it, and strips any footnote-5 appended
/// ORDER BY columns. [`CowProxy::query`] calls it with the proxy's own
/// state; [`crate::reader::ReadSlot::try_query`] calls it with a
/// thread-local rewrite cache and a snapshot-bound database.
pub(crate) fn cached_query(
    rewrite: &RewriteCache,
    db: &Database,
    view: &DbView,
    table: &str,
    opts: &QueryOpts,
    params: &[Value],
) -> SqlResult<ResultSet> {
    let mut sp = maxoid_obs::span("cowproxy.query");
    sp.field_with("table", || table.to_string());
    sp.field_with("view", || format!("{view:?}"));
    let mut parts: Vec<&str> = opts.columns.iter().map(|s| s.as_str()).collect();
    parts.push(if opts.where_clause.is_some() { "1" } else { "0" });
    parts.push(opts.where_clause.as_deref().unwrap_or(""));
    parts.push(if opts.order_by.is_some() { "1" } else { "0" });
    parts.push(opts.order_by.as_deref().unwrap_or(""));
    parts.push(if opts.limit.is_some() { "1" } else { "0" });
    let (view_tag, vinit) = view_key(view);
    let key = Key {
        op: op::QUERY,
        view_tag,
        initiator: vinit,
        table,
        parts: &parts,
        num: opts.columns.len() as i64,
        num2: opts.limit.unwrap_or(0),
    };
    let (target, sql, appended) = match rewrite.lookup(&key) {
        Some(rw) => {
            if rw.rewrote {
                // Replay the counter the uncached resolution bumps.
                maxoid_obs::counter_add("cowproxy.view_rewrites", 1);
            }
            (rw.target, rw.sql, rw.appended)
        }
        None => {
            let Some(target) = relation_for_read(db, table, view)? else {
                // No volatile rows to read; the columns are a delta
                // table's.
                let mut columns = opts.columns.clone();
                if columns.is_empty() {
                    columns = db.relation_columns(table)?;
                    columns.push(WHITEOUT_COL.to_string());
                }
                return Ok(ResultSet { columns, rows: Vec::new() });
            };
            let mut columns = opts.columns.clone();
            let explicit = !columns.is_empty();
            let mut appended = 0usize;
            if explicit {
                if let Some(order) = &opts.order_by {
                    // Footnote 5: add ORDER BY columns to query columns
                    // when necessary so flattening can fire.
                    for term in order.split(',') {
                        let col = term.split_whitespace().next().unwrap_or("");
                        if !col.is_empty()
                            && col.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
                            && !col.chars().all(|c| c.is_ascii_digit())
                            && !columns.iter().any(|c| c.eq_ignore_ascii_case(col))
                        {
                            columns.push(col.to_string());
                            appended += 1;
                        }
                    }
                }
            }
            let mut sql = String::from("SELECT ");
            if explicit {
                sql.push_str(&columns.join(", "));
            } else {
                sql.push('*');
            }
            sql.push_str(&format!(" FROM {target}"));
            let mut where_parts: Vec<String> = Vec::new();
            if let Some(w) = &opts.where_clause {
                where_parts.push(format!("({w})"));
            }
            if matches!(view, DbView::Volatile { .. }) {
                // Volatile reads exclude whiteout records.
                where_parts.push(format!("{WHITEOUT_COL} = 0"));
            }
            if !where_parts.is_empty() {
                sql.push_str(" WHERE ");
                sql.push_str(&where_parts.join(" AND "));
            }
            if let Some(order) = &opts.order_by {
                sql.push_str(" ORDER BY ");
                sql.push_str(order);
            }
            if let Some(limit) = opts.limit {
                sql.push_str(&format!(" LIMIT {limit}"));
            }
            let sql: Arc<str> = sql.into();
            let rewrote = matches!(view, DbView::Delegate { .. }) && &*target != table;
            let rw = Rewrite { target: target.clone(), sql: sql.clone(), appended, rewrote };
            rewrite.insert(&key, rw);
            (target, sql, appended)
        }
    };
    sp.field_with("relation", || target.to_string());
    let mut rs = db.query(&sql, params)?;
    if appended > 0 {
        let keep = rs.columns.len() - appended;
        rs.columns.truncate(keep);
        for row in &mut rs.rows {
            row.truncate(keep);
        }
    }
    Ok(rs)
}

fn split_values<'a>(values: &'a [(&'a str, Value)]) -> (Vec<&'a str>, Vec<Value>) {
    (values.iter().map(|(c, _)| *c).collect(), values.iter().map(|(_, v)| v.clone()).collect())
}

/// Rewrite-cache discriminant of a view: `(tag, initiator)`.
fn view_key(view: &DbView) -> (u8, &str) {
    match view {
        DbView::Primary => (0, ""),
        DbView::Delegate { initiator } => (1, initiator),
        DbView::Volatile { initiator } => (2, initiator),
        DbView::Admin => (3, ""),
    }
}

fn insert_sql(table: &str, cols: &[&str]) -> String {
    format!(
        "INSERT INTO {table} ({}) VALUES ({})",
        cols.join(", "),
        (1..=cols.len()).map(|i| format!("?{i}")).collect::<Vec<_>>().join(", ")
    )
}

/// Shifts positional `?` parameters in a WHERE fragment by `offset`.
/// Only bare `?` markers are rewritten; explicit `?N` are left alone.
fn renumber_params(where_clause: &str, offset: usize) -> String {
    let mut out = String::with_capacity(where_clause.len() + 4);
    let mut n = offset;
    let mut chars = where_clause.chars().peekable();
    let mut in_string = false;
    while let Some(c) = chars.next() {
        if c == '\'' {
            in_string = !in_string;
            out.push(c);
            continue;
        }
        if c == '?' && !in_string && !chars.peek().map(|d| d.is_ascii_digit()).unwrap_or(false) {
            n += 1;
            out.push_str(&format!("?{n}"));
        } else {
            out.push(c);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proxy_with_words() -> CowProxy {
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

    fn delegate() -> DbView {
        DbView::Delegate { initiator: "A".into() }
    }

    #[test]
    fn delegate_reads_primary_before_first_write() {
        let p = proxy_with_words();
        assert_eq!(p.read_relation("words", &delegate()).unwrap().as_deref(), Some("words"));
        let rs = p.query(&delegate(), "words", &QueryOpts::default(), &[]).unwrap();
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn delegate_update_is_copy_on_write() {
        let mut p = proxy_with_words();
        let n = p
            .update(
                &delegate(),
                "words",
                &[("word", "ALPHA".into())],
                Some("_id = ?"),
                &[Value::Integer(1)],
            )
            .unwrap();
        assert_eq!(n, 1);
        // Delegate sees its own write.
        let rs = p
            .query(
                &delegate(),
                "words",
                &QueryOpts {
                    columns: vec!["word".into()],
                    where_clause: Some("_id = ?".into()),
                    ..Default::default()
                },
                &[Value::Integer(1)],
            )
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Text("ALPHA".into())]]);
        // The public record is untouched.
        let pubrs = p
            .query(
                &DbView::Primary,
                "words",
                &QueryOpts {
                    columns: vec!["word".into()],
                    where_clause: Some("_id = 1".into()),
                    ..Default::default()
                },
                &[],
            )
            .unwrap();
        assert_eq!(pubrs.rows, vec![vec![Value::Text("alpha".into())]]);
    }

    #[test]
    fn delegate_insert_keys_from_offset() {
        let mut p = proxy_with_words();
        let id = p
            .insert(&delegate(), "words", &[("word", "delta".into()), ("frequency", 1.into())])
            .unwrap();
        assert_eq!(id, DELTA_PK_START);
        let id2 = p
            .insert(&delegate(), "words", &[("word", "eps".into()), ("frequency", 2.into())])
            .unwrap();
        assert_eq!(id2, DELTA_PK_START + 1);
        // Visible to the delegate, invisible publicly.
        let rs = p.query(&delegate(), "words", &QueryOpts::default(), &[]).unwrap();
        assert_eq!(rs.rows.len(), 5);
        let pubrs = p.query(&DbView::Primary, "words", &QueryOpts::default(), &[]).unwrap();
        assert_eq!(pubrs.rows.len(), 3);
    }

    #[test]
    fn delegate_delete_is_whiteout() {
        let mut p = proxy_with_words();
        let n = p.delete(&delegate(), "words", Some("_id = 2"), &[]).unwrap();
        assert_eq!(n, 1);
        let rs = p.query(&delegate(), "words", &QueryOpts::default(), &[]).unwrap();
        assert_eq!(rs.rows.len(), 2);
        // Public record survives.
        let pubrs = p.query(&DbView::Primary, "words", &QueryOpts::default(), &[]).unwrap();
        assert_eq!(pubrs.rows.len(), 3);
        // The whiteout appears in the admin view.
        let admin = p.admin_query("words").unwrap();
        let wh_idx = admin.column_index(WHITEOUT_COL).unwrap();
        assert!(admin.rows.iter().any(|r| r[wh_idx] == Value::Integer(1)));
    }

    #[test]
    fn volatile_view_shows_only_deltas() {
        let mut p = proxy_with_words();
        p.update(&delegate(), "words", &[("word", "X".into())], Some("_id = 3"), &[]).unwrap();
        p.delete(&delegate(), "words", Some("_id = 1"), &[]).unwrap();
        let vol = DbView::Volatile { initiator: "A".into() };
        let rs = p.query(&vol, "words", &QueryOpts::default(), &[]).unwrap();
        // Only the non-whiteout volatile record.
        assert_eq!(rs.rows.len(), 1);
        let widx = rs.column_index("word").unwrap();
        assert_eq!(rs.rows[0][widx], Value::Text("X".into()));
    }

    #[test]
    fn initiator_isvolatile_insert() {
        let mut p = proxy_with_words();
        let vol = DbView::Volatile { initiator: "browser".into() };
        let id =
            p.insert(&vol, "words", &[("word", "incog".into()), ("frequency", 0.into())]).unwrap();
        assert!(id >= DELTA_PK_START);
        // Public view unchanged; browser's delegates see it.
        assert_eq!(
            p.query(&DbView::Primary, "words", &QueryOpts::default(), &[]).unwrap().rows.len(),
            3
        );
        let del = DbView::Delegate { initiator: "browser".into() };
        assert_eq!(p.query(&del, "words", &QueryOpts::default(), &[]).unwrap().rows.len(), 4);
    }

    #[test]
    fn clear_volatile_restores_pristine_state() {
        let mut p = proxy_with_words();
        p.update(&delegate(), "words", &[("word", "X".into())], Some("_id = 1"), &[]).unwrap();
        p.insert(&delegate(), "words", &[("word", "new".into())]).unwrap();
        assert!(p.has_delta("words", "A"));
        assert_eq!(p.delta_row_count("A"), 2);
        assert_eq!(p.clear_volatile("A").unwrap(), 1, "one delta table emptied");
        assert_eq!(p.clear_volatile("A").unwrap(), 0, "nothing left to empty");
        // The COW objects stay; only their rows are gone.
        assert!(p.has_delta("words", "A"));
        assert!(p.db().has_view("words_view__41"));
        assert_eq!(p.delta_row_count("A"), 0);
        // Delegate reads see the public rows through the empty COW view.
        assert_eq!(
            p.read_relation("words", &delegate()).unwrap().as_deref(),
            Some("words_view__41")
        );
        let rs = p.query(&delegate(), "words", &QueryOpts::default(), &[]).unwrap();
        let widx = rs.column_index("word").unwrap();
        assert_eq!(rs.rows.len(), 3);
        assert_eq!(rs.rows[0][widx], Value::Text("alpha".into()));
        // Fresh delegate inserts key from the offset again.
        let id = p.insert(&delegate(), "words", &[("word", "again".into())]).unwrap();
        assert_eq!(id, DELTA_PK_START);
    }

    #[test]
    fn retire_drops_cow_objects_and_the_next_write_forks_again() {
        let mut p = proxy_with_words();
        p.execute_batch("CREATE INDEX idx_words_word ON words (word);").unwrap();
        p.update(&delegate(), "words", &[("word", "X".into())], Some("_id = 1"), &[]).unwrap();
        let e0 = p.fork_epoch();
        assert_eq!(p.retire("A").unwrap(), 1);
        assert!(p.fork_epoch() > e0, "retire changes COW topology");
        assert!(!p.has_delta("words", "A"));
        assert!(!p.db().has_view("words_view__41"));
        assert!(!p.db().has_trigger("words__41_update"));
        assert_eq!(p.delta_row_count("A"), 0);
        assert_eq!(p.read_relation("words", &delegate()).unwrap().as_deref(), Some("words"));
        assert_eq!(p.retire("A").unwrap(), 0, "an unforked initiator has nothing to retire");
        p.update(&delegate(), "words", &[("word", "Y".into())], Some("_id = 1"), &[]).unwrap();
        assert!(p.has_delta("words", "A"));
        assert!(p.db().table("words_delta__41").unwrap().has_index("idx_words_word_delta__41"));
        assert_eq!(p.delta_row_count("A"), 1);
    }

    /// A retired tenant that forks again writes through its new objects:
    /// the same UPDATE text is planned again, fires the new trigger, and
    /// lands its row in the new delta table.
    #[test]
    fn a_tenant_that_forks_again_after_a_retire_updates_through_its_new_trigger() {
        let mut p = proxy_with_words();
        let set = |p: &mut CowProxy, word: &str| {
            let stats = &p.db().stats;
            let before = (stats.plan_cache_hits.get(), stats.plan_cache_misses.get());
            let n = p
                .update(
                    &delegate(),
                    "words",
                    &[("word", word.into())],
                    Some("_id = ?"),
                    &[1.into()],
                )
                .unwrap();
            assert_eq!(n, 1, "{word}");
            let stats = &p.db().stats;
            (stats.plan_cache_hits.get() - before.0, stats.plan_cache_misses.get() - before.1)
        };
        let word = |p: &CowProxy, view: &DbView| {
            let q = QueryOpts { where_clause: Some("_id = 1".into()), ..Default::default() };
            p.query(view, "words", &q, &[]).unwrap().rows[0][1].clone()
        };
        assert_eq!(set(&mut p, "first"), (0, 1), "the first run plans");
        assert_eq!(set(&mut p, "second"), (1, 0), "the next reuses the plan");
        p.retire("A").unwrap();
        assert_eq!(word(&p, &delegate()), Value::Text("alpha".into()));
        assert_eq!(set(&mut p, "again"), (0, 1), "the new objects are planned afresh");
        assert_eq!(p.delta_row_count("A"), 1);
        let delta = p.db().query("SELECT word FROM words_delta__41", &[]).unwrap();
        assert_eq!(delta.rows, vec![vec![Value::Text("again".into())]]);
        assert_eq!(word(&p, &delegate()), Value::Text("again".into()));
        assert_eq!(word(&p, &DbView::Primary), Value::Text("alpha".into()));
        assert_eq!(set(&mut p, "last"), (1, 0));
        assert_eq!(word(&p, &delegate()), Value::Text("last".into()));
    }

    #[test]
    fn volatile_reads_before_any_fork_are_empty() {
        let mut p = proxy_with_words();
        let vol = DbView::Volatile { initiator: "A".into() };
        let rs = p.query(&vol, "words", &QueryOpts::default(), &[]).unwrap();
        assert!(rs.rows.is_empty());
        assert_eq!(rs.columns, ["_id", "word", "frequency", WHITEOUT_COL]);
        // The same columns as the delta table the first fork creates.
        p.update(&delegate(), "words", &[("word", "X".into())], Some("_id = 1"), &[]).unwrap();
        p.clear_volatile("A").unwrap();
        let cleared = p.query(&vol, "words", &QueryOpts::default(), &[]).unwrap();
        assert_eq!((cleared.columns, cleared.rows), (rs.columns, rs.rows));
        // An unknown relation is still an error.
        assert!(p.query(&vol, "nope", &QueryOpts::default(), &[]).is_err());
    }

    #[test]
    fn clearing_one_tenant_keeps_every_tenants_caches_warm() {
        let mut p = proxy_with_words();
        let q = QueryOpts {
            columns: vec!["word".into()],
            where_clause: Some("_id = ?".into()),
            ..Default::default()
        };
        let tenants: Vec<DbView> =
            (0..64).map(|t| DbView::Delegate { initiator: format!("pc.init{t}") }).collect();
        // Every fork bumps the epoch, so warm the queries after the last.
        for (t, view) in tenants.iter().enumerate() {
            let word = format!("t{t}");
            p.update(view, "words", &[("word", word.into())], Some("_id = ?"), &[2.into()])
                .unwrap();
        }
        for view in &tenants {
            p.query(view, "words", &q, &[Value::Integer(2)]).unwrap();
        }
        let epoch = p.fork_epoch();
        let invalidations = p.db().stats.plan_cache_invalidations.get();
        // Tenant 0 clears and writes again.
        assert_eq!(p.clear_volatile("pc.init0").unwrap(), 1);
        p.update(&tenants[0], "words", &[("word", "again".into())], Some("_id = ?"), &[2.into()])
            .unwrap();
        assert_eq!(p.fork_epoch(), epoch, "neither the clear nor the write forked");
        assert_eq!(p.db().stats.plan_cache_invalidations.get(), invalidations);
        for (t, view) in tenants.iter().enumerate().skip(1) {
            let (hits, misses) = p.rewrite_cache_stats();
            let rs = p.query(view, "words", &q, &[Value::Integer(2)]).unwrap();
            assert_eq!(rs.rows, vec![vec![Value::Text(format!("t{t}"))]]);
            assert_eq!(p.rewrite_cache_stats(), (hits + 1, misses), "tenant {t} stays cached");
        }
        let rs = p.query(&tenants[0], "words", &q, &[Value::Integer(2)]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Text("again".into())]]);
    }

    #[test]
    fn commit_volatile_row_publishes() {
        let mut p = proxy_with_words();
        p.update(&delegate(), "words", &[("word", "edited".into())], Some("_id = 2"), &[]).unwrap();
        assert_eq!(p.commit_volatile_row("A", "words", 2).unwrap(), Some(2));
        let rs = p
            .query(
                &DbView::Primary,
                "words",
                &QueryOpts {
                    columns: vec!["word".into()],
                    where_clause: Some("_id = 2".into()),
                    ..Default::default()
                },
                &[],
            )
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Text("edited".into())]]);
        // Committing a missing row is a no-op.
        assert_eq!(p.commit_volatile_row("A", "words", 999).unwrap(), None);
    }

    #[test]
    fn isolation_between_initiators() {
        let mut p = proxy_with_words();
        let da = DbView::Delegate { initiator: "A".into() };
        let db_ = DbView::Delegate { initiator: "B".into() };
        p.update(&da, "words", &[("word", "forA".into())], Some("_id = 1"), &[]).unwrap();
        p.update(&db_, "words", &[("word", "forB".into())], Some("_id = 1"), &[]).unwrap();
        let qa = p
            .query(
                &da,
                "words",
                &QueryOpts {
                    columns: vec!["word".into()],
                    where_clause: Some("_id = 1".into()),
                    ..Default::default()
                },
                &[],
            )
            .unwrap();
        let qb = p
            .query(
                &db_,
                "words",
                &QueryOpts {
                    columns: vec!["word".into()],
                    where_clause: Some("_id = 1".into()),
                    ..Default::default()
                },
                &[],
            )
            .unwrap();
        assert_eq!(qa.rows, vec![vec![Value::Text("forA".into())]]);
        assert_eq!(qb.rows, vec![vec![Value::Text("forB".into())]]);
    }

    #[test]
    fn update_visibility_u2_for_unforked_rows() {
        // Delegates observe initiator updates to rows they have not touched.
        let mut p = proxy_with_words();
        p.update(&delegate(), "words", &[("word", "mine".into())], Some("_id = 1"), &[]).unwrap();
        // An initiator updates row 2 after the fork of row 1.
        p.update(&DbView::Primary, "words", &[("word", "pub2".into())], Some("_id = 2"), &[])
            .unwrap();
        let rs = p
            .query(
                &delegate(),
                "words",
                &QueryOpts { columns: vec!["_id".into(), "word".into()], ..Default::default() },
                &[],
            )
            .unwrap();
        let find = |id: i64| -> Value {
            rs.rows.iter().find(|r| r[0] == Value::Integer(id)).unwrap()[1].clone()
        };
        // Row 1: delegate's own version. Row 2: initiator's fresh update.
        assert_eq!(find(1), Value::Text("mine".into()));
        assert_eq!(find(2), Value::Text("pub2".into()));
    }

    #[test]
    fn query_appends_order_columns_for_flattening() {
        let p = {
            let mut p = proxy_with_words();
            p.update(&delegate(), "words", &[("word", "X".into())], Some("_id = 1"), &[]).unwrap();
            p
        };
        p.db().stats.reset();
        let rs = p
            .query(
                &delegate(),
                "words",
                &QueryOpts {
                    columns: vec!["word".into()],
                    order_by: Some("_id DESC".into()),
                    ..Default::default()
                },
                &[],
            )
            .unwrap();
        // The workaround keeps the projection narrow for the caller...
        assert_eq!(rs.columns, vec!["word"]);
        // ...while the planner still flattened the view.
        assert_eq!(p.db().stats.flattened_queries.get(), 1);
        assert_eq!(rs.rows.first().unwrap()[0], Value::Text("gamma".into()));
    }

    #[test]
    fn cow_point_query_probes_indexes_on_both_arms() {
        let mut p = proxy_with_words();
        p.execute_batch("CREATE INDEX idx_words_word ON words (word);").unwrap();
        // First volatile write forks the table; the delta table must come
        // up with a mirror of the base index.
        p.update(&delegate(), "words", &[("word", "X".into())], Some("_id = 1"), &[]).unwrap();
        assert!(p.db().table("words_delta__41").unwrap().has_index("idx_words_word_delta__41"));

        p.db().stats.reset();
        let rs = p
            .query(
                &delegate(),
                "words",
                &QueryOpts { where_clause: Some("word = 'gamma'".into()), ..Default::default() },
                &[],
            )
            .unwrap();
        assert_eq!(rs.rows.len(), 1);
        // The query flattened into two single-table arms, and each arm
        // resolved `word = 'gamma'` with an index probe instead of a scan.
        assert_eq!(p.db().stats.flattened_queries.get(), 1);
        assert!(
            p.db().stats.index_probes.get() >= 2,
            "expected an index probe per UNION ALL arm, got {}",
            p.db().stats.index_probes.get()
        );
        // The only scan left is the 1-row NOT IN delta subquery — neither
        // arm walks the base table.
        assert!(p.db().stats.rows_scanned.get() <= 1);
        let paths = p.db().stats.take_access_paths();
        assert!(paths.iter().any(|l| l.contains("INDEX idx_words_word EQ")), "{paths:?}");
        assert!(paths.iter().any(|l| l.contains("INDEX idx_words_word_delta__41 EQ")), "{paths:?}");
    }

    #[test]
    fn rewrite_cache_hits_on_repeated_shapes() {
        let mut p = proxy_with_words();
        let del = delegate();
        let q = QueryOpts {
            columns: vec!["word".into()],
            where_clause: Some("_id = ?".into()),
            ..Default::default()
        };
        // First delegate update forks (epoch bump), second reuses the
        // cached UPDATE rewrite; repeated queries reuse the SELECT.
        p.update(&del, "words", &[("word", "a".into())], Some("_id = ?"), &[1.into()]).unwrap();
        p.update(&del, "words", &[("word", "b".into())], Some("_id = ?"), &[1.into()]).unwrap();
        let (h0, _) = p.rewrite_cache_stats();
        assert!(h0 >= 1, "second update should hit, stats {:?}", p.rewrite_cache_stats());
        let r1 = p.query(&del, "words", &q, &[Value::Integer(1)]).unwrap();
        let r2 = p.query(&del, "words", &q, &[Value::Integer(1)]).unwrap();
        assert_eq!(r1.rows, r2.rows);
        let (h1, _) = p.rewrite_cache_stats();
        assert!(h1 > h0, "repeated query should hit the rewrite cache");
    }

    #[test]
    fn rewrite_cache_epoch_tracks_topology() {
        let mut p = proxy_with_words();
        let e0 = p.fork_epoch();
        // Fork: first delegate write bumps the epoch.
        p.update(&delegate(), "words", &[("word", "x".into())], Some("_id = 1"), &[]).unwrap();
        let e1 = p.fork_epoch();
        assert!(e1 > e0);
        // A clear empties the delta table and keeps the topology, so the
        // cached rewrite stays valid and reads the public row again.
        let q = QueryOpts { where_clause: Some("_id = 1".into()), ..Default::default() };
        let forked = p.query(&delegate(), "words", &q, &[]).unwrap();
        assert_eq!(forked.rows[0][1], Value::Text("x".into()));
        p.clear_volatile("A").unwrap();
        assert_eq!(p.fork_epoch(), e1);
        let cleared = p.query(&delegate(), "words", &q, &[]).unwrap();
        assert_eq!(cleared.rows[0][1], Value::Text("alpha".into()));
        // Retire drops the COW view: the epoch bump keeps the cache honest.
        p.update(&delegate(), "words", &[("word", "y".into())], Some("_id = 1"), &[]).unwrap();
        p.retire("A").unwrap();
        assert!(p.fork_epoch() > e1);
        let retired = p.query(&delegate(), "words", &q, &[]).unwrap();
        assert_eq!(retired.rows[0][1], Value::Text("alpha".into()));
    }

    #[test]
    fn rewrite_cache_disabled_matches_enabled() {
        let run = |cache: bool| -> Vec<Vec<Value>> {
            let mut p = proxy_with_words();
            p.set_rewrite_cache(cache);
            let del = delegate();
            p.insert(&del, "words", &[("word", "new".into()), ("frequency", 5.into())]).unwrap();
            p.update(&del, "words", &[("word", "up".into())], Some("_id = ?"), &[1.into()])
                .unwrap();
            p.delete(&del, "words", Some("_id = 2"), &[]).unwrap();
            let q = QueryOpts {
                columns: vec!["_id".into(), "word".into()],
                order_by: Some("_id".into()),
                ..Default::default()
            };
            let mut rows = p.query(&del, "words", &q, &[]).unwrap().rows;
            rows.extend(p.query(&del, "words", &q, &[]).unwrap().rows);
            rows
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn rewrite_cache_stays_bounded_past_its_cap_and_matches_the_oracle() {
        use crate::rewrite::REWRITE_CACHE_CAP;
        let run = |cache: bool| -> Vec<Vec<Vec<Value>>> {
            let mut p = proxy_with_words();
            p.set_rewrite_cache(cache);
            p.db().set_statement_caches(cache);
            let q = QueryOpts { order_by: Some("_id".into()), ..Default::default() };
            let mut out = Vec::new();
            // Four shapes per tenant: update, insert, delete and query.
            let tenants = REWRITE_CACHE_CAP / 4 + 20;
            let mut peak = 0;
            for round in 0..2i64 {
                for t in 0..tenants {
                    let view = DbView::Delegate { initiator: format!("pc.init{t}") };
                    let f = Value::Integer(round * 1000 + t as i64);
                    p.update(&view, "words", &[("frequency", f)], Some("_id = ?"), &[2.into()])
                        .unwrap();
                    p.insert(&view, "words", &[("word", format!("w{t}").into())]).unwrap();
                    p.delete(&view, "words", Some("_id = ?"), &[3.into()]).unwrap();
                    out.push(p.query(&view, "words", &q, &[]).unwrap().rows);
                    if round == 1 && t % 2 == 0 {
                        p.clear_volatile(&format!("pc.init{t}")).unwrap();
                        out.push(p.query(&view, "words", &q, &[]).unwrap().rows);
                    }
                    assert!(p.rewrite.len() <= REWRITE_CACHE_CAP);
                    peak = peak.max(p.rewrite.len());
                }
            }
            assert_eq!(peak, if cache { REWRITE_CACHE_CAP } else { 0 });
            out
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn renumber_only_bare_params() {
        assert_eq!(
            renumber_params("a = ? AND b = ?2 AND c = ?", 3),
            "a = ?4 AND b = ?2 AND c = ?5"
        );
        assert_eq!(renumber_params("name = '?' AND x = ?", 1), "name = '?' AND x = ?2");
    }
}
