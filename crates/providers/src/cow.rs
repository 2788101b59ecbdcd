//! The proxy-backed core the three system providers share.
//!
//! "Porting is trivial" (§5.3): what User Dictionary, Downloads and Media
//! add on top of the COW proxy is a schema, a table of URI routes and,
//! for the latter two, their own services. Everything else — routing a
//! URI to its relation, mapping the caller to its [`DbView`], assembling
//! the WHERE clause from the URI's item id and the caller's selection,
//! refusing writes through user views and the routed data calls — lives
//! here, once, in [`CowProvider`].
//!
//! A provider runs the caller's fragments with its own authority over
//! every tenant's state, so this is also where they are checked (the
//! confused deputy of the transitivity-of-trust problem): a selection
//! must parse on its own as one expression over the row, with no
//! sub-select, and projection items and sort terms must be column names.
//! Anything else is [`ProviderError::Denied`] before any SQL runs.

use crate::provider::{
    Caller, ContentProvider, ContentValues, ProviderError, ProviderResult, QueryArgs,
};
use crate::uri::Uri;
use maxoid_cowproxy::{delta_table, CowProxy, DbView, QueryOpts, DELTA_PK_START, WHITEOUT_COL};
use maxoid_sqldb::{Database, ResultSet, Value};

/// What one proxy-backed provider declares: its authority, its schema
/// and the URI collections it serves.
#[derive(Debug)]
pub(crate) struct Schema {
    pub authority: &'static str,
    /// Table and index DDL, run on a database that has no tables yet.
    pub ddl: &'static str,
    /// User-defined views as `(name, SELECT ...)`, registered in order.
    pub views: &'static [(&'static str, &'static str)],
    /// URI collection → the table or view that serves it.
    pub routes: &'static [(&'static str, &'static str)],
    /// Columns that hold another table's row id, as `(table, column,
    /// parent table)`: a thumbnail's `file_id`, a request header's
    /// `download_id`.
    pub links: &'static [(&'static str, &'static str, &'static str)],
}

impl Schema {
    fn route(&self, uri: &Uri) -> ProviderResult<&'static str> {
        let collection = uri.collection();
        self.routes
            .iter()
            .find(|(c, _)| uri.authority == self.authority && Some(*c) == collection)
            .map(|(_, relation)| *relation)
            .ok_or_else(|| ProviderError::UnknownUri(uri.to_string()))
    }

    /// Routes a write. User views are refused: their rows live in the
    /// base tables, which is where writes go.
    fn route_write(&self, uri: &Uri) -> ProviderResult<&'static str> {
        let relation = self.route(uri)?;
        if self.views.iter().any(|(view, _)| *view == relation) {
            return Err(ProviderError::Denied(format!(
                "{relation} is a view; write to its base table"
            )));
        }
        Ok(relation)
    }

    /// Routes a query: its relation, the caller's view and the proxy
    /// arguments, with the caller's fragments checked.
    fn route_query(
        &self,
        caller: &Caller,
        uri: &Uri,
        args: &QueryArgs,
    ) -> ProviderResult<(&'static str, DbView, QueryOpts, Vec<Value>)> {
        let relation = self.route(uri)?;
        let view = caller.db_view(uri)?;
        let sort_ok = args.sort_order.as_deref().is_none_or(|o| o.split(',').all(is_sort_term));
        if !sort_ok || !args.projection.iter().all(|c| is_column(c)) {
            return Err(ProviderError::Denied(
                "projection items and sort terms must be column names".into(),
            ));
        }
        let (where_clause, params) = where_clause(uri, args)?;
        let opts = QueryOpts {
            columns: args.projection.clone(),
            where_clause,
            order_by: args.sort_order.clone(),
            limit: None,
        };
        Ok((relation, view, opts, params))
    }
}

fn is_column(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// `column [ASC|DESC]`.
fn is_sort_term(term: &str) -> bool {
    let mut words = term.split_whitespace();
    words.next().is_some_and(is_column)
        && words
            .next()
            .is_none_or(|d| d.eq_ignore_ascii_case("asc") || d.eq_ignore_ascii_case("desc"))
        && words.next().is_none()
}

/// The WHERE clause of a routed call: the URI's item id, AND the caller's
/// selection in parentheses. On its own, the selection must parse as
/// exactly one expression with no sub-select, so it can neither close the
/// parenthesis it is put in nor name another relation; in that
/// parenthesis it must parse too, so a trailing line comment cannot
/// swallow it.
fn where_clause(uri: &Uri, args: &QueryArgs) -> ProviderResult<(Option<String>, Vec<Value>)> {
    let mut clauses = Vec::new();
    let mut params = Vec::new();
    if let Some(id) = uri.id() {
        clauses.push("_id = ?".to_string());
        params.push(Value::Integer(id));
    }
    if let Some(sel) = &args.selection {
        let wrapped = format!("({sel})");
        for text in [sel, &wrapped] {
            maxoid_sqldb::parser::parse_row_expr(text)
                .map_err(|e| ProviderError::Denied(format!("selection refused: {e}")))?;
        }
        clauses.push(wrapped);
        params.extend(args.selection_args.iter().cloned());
    }
    Ok(((!clauses.is_empty()).then(|| clauses.join(" AND ")), params))
}

/// A system content provider on the COW proxy: the shared data path plus
/// the provider's own services `S` (`()` for User Dictionary).
#[derive(Debug)]
pub struct CowProvider<S> {
    schema: &'static Schema,
    pub(crate) proxy: CowProxy,
    pub(crate) services: S,
}

impl<S> CowProvider<S> {
    /// The one constructor, behind every provider's `open`. With a journal,
    /// the journal is attached before anything runs, so replaying the
    /// log rebuilds the catalog (tables, indexes, user views) as well as
    /// the rows. With a database recovered from a journal, the provider
    /// adopts it: the schema is installed only if replay left no tables
    /// (a crash before the schema reached the log), replayed view
    /// definitions are adopted, and the per-initiator COW instances of
    /// user views, which are never journaled, are rebuilt.
    pub(crate) fn with_schema(
        schema: &'static Schema,
        services: S,
        journal: Option<maxoid_journal::Journal>,
        recovered: Option<Database>,
    ) -> Self {
        let mut proxy = recovered.map_or_else(CowProxy::new, CowProxy::adopt);
        if let Some(journal) = journal {
            proxy.attach_journal(journal, &format!("db.{}", schema.authority));
        }
        if proxy.db().table_names().is_empty() {
            proxy.execute_batch(schema.ddl).expect("static schema is valid");
        }
        for (name, select) in schema.views {
            proxy
                .register_user_view(&format!("CREATE VIEW {name} AS {select}"))
                .expect("static view is valid");
        }
        proxy.rebuild_cow_views().expect("registered views rebuild cleanly");
        CowProvider { schema, proxy, services }
    }

    /// Access to the underlying proxy (tests, benches, idle-tenant
    /// eviction).
    pub fn proxy(&self) -> &CowProxy {
        &self.proxy
    }

    /// Mutable access to the underlying proxy (attaching storage tiers).
    pub fn proxy_mut(&mut self) -> &mut CowProxy {
        &mut self.proxy
    }

    /// Rows held in `initiator`'s delta tables (per-tenant accounting).
    pub fn delta_row_count(&self, initiator: &str) -> usize {
        self.proxy.delta_row_count(initiator)
    }

    /// The volatile rows `initiator`'s row `id` of `table` names through
    /// the schema's links, as `(parent table, id)`; `None` when the
    /// initiator holds no such row. A table no link touches is not read:
    /// it names no row, and no row names it.
    fn volatile_parents(
        &self,
        initiator: &str,
        table: &str,
        id: i64,
    ) -> ProviderResult<Option<Vec<(&'static str, i64)>>> {
        let links: Vec<_> = self.schema.links.iter().filter(|(t, ..)| *t == table).collect();
        if links.is_empty() && !self.schema.links.iter().any(|(.., parent)| *parent == table) {
            return Ok(Some(Vec::new()));
        }
        let delta = delta_table(table, initiator);
        if !self.proxy.db().has_table(&delta) {
            return Ok(None);
        }
        let mut cols = vec!["_id"];
        cols.extend(links.iter().map(|(_, column, _)| *column));
        let sql =
            format!("SELECT {} FROM {delta} WHERE _id = ? AND {WHITEOUT_COL} = 0", cols.join(", "));
        let rs = self.proxy.db().query(&sql, &[Value::Integer(id)])?;
        let Some(row) = rs.rows.first() else { return Ok(None) };
        let named = links.iter().zip(&row[1..]).filter_map(|((.., parent), v)| match v {
            Value::Integer(n) if *n >= DELTA_PK_START => Some((*parent, *n)),
            _ => None,
        });
        Ok(Some(named.collect()))
    }
}

impl<S: Send + Sync> ContentProvider for CowProvider<S> {
    fn authority(&self) -> &str {
        self.schema.authority
    }

    fn insert(
        &mut self,
        caller: &Caller,
        uri: &Uri,
        values: &ContentValues,
    ) -> ProviderResult<Uri> {
        let relation = self.schema.route_write(uri)?;
        let mut view = caller.db_view(uri)?;
        // The initiator isVolatile API (§6.1 item 4).
        if values.is_volatile && view == DbView::Primary {
            view = DbView::Volatile { initiator: caller.app.pkg().to_string() };
        }
        let id = self.proxy.insert(&view, relation, &values.as_proxy_values())?;
        let base = match view {
            DbView::Volatile { .. } => uri.without_tmp().as_volatile(),
            _ => uri.without_tmp(),
        };
        Ok(base.with_id(id))
    }

    fn update(
        &mut self,
        caller: &Caller,
        uri: &Uri,
        values: &ContentValues,
        args: &QueryArgs,
    ) -> ProviderResult<usize> {
        let relation = self.schema.route_write(uri)?;
        let view = caller.db_view(uri)?;
        let (where_clause, params) = where_clause(uri, args)?;
        let sets = values.as_proxy_values();
        Ok(self.proxy.update(&view, relation, &sets, where_clause.as_deref(), &params)?)
    }

    /// Runs on the calling thread's reader (see [`CowProxy::query`]).
    fn query(&self, caller: &Caller, uri: &Uri, args: &QueryArgs) -> ProviderResult<ResultSet> {
        let (relation, view, opts, params) = self.schema.route_query(caller, uri, args)?;
        Ok(self.proxy.query(&view, relation, &opts, &params)?)
    }

    fn delete(&mut self, caller: &Caller, uri: &Uri, args: &QueryArgs) -> ProviderResult<usize> {
        let relation = self.schema.route_write(uri)?;
        let view = caller.db_view(uri)?;
        let (where_clause, params) = where_clause(uri, args)?;
        Ok(self.proxy.delete(&view, relation, where_clause.as_deref(), &params)?)
    }

    fn clear_volatile(&mut self, initiator: &str) -> ProviderResult<()> {
        self.proxy.clear_volatile(initiator)?;
        Ok(())
    }

    fn retire(&mut self, initiator: &str) -> ProviderResult<()> {
        self.proxy.retire(initiator)?;
        Ok(())
    }

    /// Refuses the plan if a row it lists names a volatile row that no
    /// row listed before it commits: the name would dangle once public.
    /// A listed row the initiator does not hold commits nothing, so it
    /// lets no later row through.
    fn check_volatile_rows(&self, initiator: &str, rows: &[(&str, i64)]) -> ProviderResult<()> {
        let mut committed: Vec<(&str, i64)> = Vec::new();
        for &(table, id) in rows {
            let Some(parents) = self.volatile_parents(initiator, table, id)? else { continue };
            if let Some((parent, named)) = parents.into_iter().find(|p| !committed.contains(p)) {
                return Err(refused(table, id, parent, named));
            }
            committed.push((table, id));
        }
        Ok(())
    }

    /// Commits the row, keeping its links: a row that names a volatile
    /// row (one at or above `DELTA_PK_START`) is refused, since the name
    /// would dangle once public, so a parent is committed before its
    /// children; and when an inserted row lands at a fresh public id, the
    /// initiator's volatile rows that name it are moved to that id, so
    /// they name it when they are committed too.
    fn commit_volatile_row(
        &mut self,
        initiator: &str,
        table: &str,
        id: i64,
    ) -> ProviderResult<Option<i64>> {
        let parents = self.volatile_parents(initiator, table, id)?;
        if let Some((parent, named)) = parents.into_iter().flatten().next() {
            return Err(refused(table, id, parent, named));
        }
        let public = self.proxy.commit_volatile_row(initiator, table, id)?;
        if let Some(public) = public.filter(|&public| public != id) {
            let volatile = DbView::Volatile { initiator: initiator.to_string() };
            for (child, column, _) in self.schema.links.iter().filter(|(.., p)| *p == table) {
                let set = [(*column, Value::Integer(public))];
                let filter = format!("{column} = ?");
                self.proxy.update(&volatile, child, &set, Some(&filter), &[Value::Integer(id)])?;
            }
        }
        Ok(public)
    }
}

/// The refusal of a commit of `table` row `id`, which names the volatile
/// `parent` row `named`.
fn refused(table: &str, id: i64, parent: &str, named: i64) -> ProviderError {
    ProviderError::Denied(format!(
        "{table} row {id} names volatile {parent} row {named}: commit that first"
    ))
}
