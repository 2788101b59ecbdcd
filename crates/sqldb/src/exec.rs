//! Statement execution: planning, the SELECT pipeline, mutations, DDL and
//! triggers.

use crate::ast::{
    Expr, InsertSource, OrderTerm, ResultColumn, SelectCore, SelectStmt, Stmt, TableRef,
    TriggerEvent,
};
use crate::db::{key, Database, ExecOutcome, ResultSet, TriggerDef, ViewDef, MAX_DEPTH};
use crate::error::{SqlError, SqlResult};
use crate::expr::{eval, eval_ref, EvalEnv, RowScope, SubqueryCache, TriggerCtx};
use crate::planner::{bind_access_plan, plan_access, try_flatten, AccessPath, AccessPlan};
use crate::table::{Table, TableSchema};
use crate::value::Value;
use std::borrow::Cow;
use std::sync::Arc;

/// Output rows paired with optional pre-computed sort keys.
type KeyedRows = Vec<(Vec<Value>, Option<Vec<Value>>)>;

/// What a statement runs with: the planner's choices, made against one
/// catalog generation and flatten policy. A prepared statement keeps its
/// plan in its statement-cache entry; a statement run without one plans
/// itself as it runs.
#[derive(Debug)]
pub(crate) enum Plan {
    /// A SELECT.
    Select(SelectPlan),
    /// An UPDATE or DELETE on a base table: its access plan.
    Table(AccessPlan),
    /// An INSERT, UPDATE or DELETE through a view.
    View(ViewPlan),
}

/// A SELECT's plan: the UNION ALL view flattening rewrite, when it
/// applies, and the access plan of each core of the statement that runs
/// (the rewrite, or the statement as written) that reads one base table.
#[derive(Debug, Clone)]
pub(crate) struct SelectPlan {
    flat: Option<SelectStmt>,
    access: Vec<Option<AccessPlan>>,
}

/// A write through a view: the view and its INSTEAD OF trigger, held by
/// `Arc` so the trigger body runs while the database changes, and for an
/// UPDATE or DELETE the `SELECT * FROM view WHERE …` that finds the rows,
/// with its own plan.
#[derive(Debug, Clone)]
pub(crate) struct ViewPlan {
    view: Arc<ViewDef>,
    trigger: Arc<TriggerDef>,
    matching: Option<(SelectStmt, SelectPlan)>,
}

/// Plans `stmt` against the current catalog. `None` for a statement with
/// nothing to plan (DDL, transaction control, an INSERT into a table) and
/// for a write through a view without its trigger, which the run refuses.
pub(crate) fn plan_stmt(db: &Database, stmt: &Stmt) -> Option<Plan> {
    match stmt {
        Stmt::Select(s) => Some(Plan::Select(plan_select(db, s))),
        Stmt::Update { table, where_clause, .. } | Stmt::Delete { table, where_clause } => {
            if let Some(t) = db.tables().get(&*key(table)) {
                return Some(Plan::Table(plan_access(t, table, where_clause.as_ref(), &is_const)));
            }
            let event = match stmt {
                Stmt::Update { .. } => TriggerEvent::Update,
                _ => TriggerEvent::Delete,
            };
            plan_view(db, table, event, Some(where_clause.as_ref())).map(Plan::View)
        }
        Stmt::Insert { table, .. } => {
            plan_view(db, table, TriggerEvent::Insert, None).map(Plan::View)
        }
        _ => None,
    }
}

/// Plans a SELECT: tries the flattening rewrite, then plans the access of
/// every single-table core of the statement that will run.
fn plan_select(db: &Database, stmt: &SelectStmt) -> SelectPlan {
    let flat = try_flatten(db, stmt);
    let runs = flat.as_ref().unwrap_or(stmt);
    let access = runs
        .cores
        .iter()
        .map(|core| match core.from.as_slice() {
            [tref] => db
                .tables()
                .get(&*key(&tref.name))
                .map(|t| plan_access(t, tref.binding(), core.where_clause.as_ref(), &is_const)),
            _ => None,
        })
        .collect();
    SelectPlan { flat, access }
}

/// Plans a write through view `name` for `event`: `None` when `name` is no
/// view or has no trigger for `event`. The trigger is found by scanning
/// the trigger map; the first in name order wins. `matching` is the
/// statement's WHERE clause for an UPDATE or DELETE, `None` for an INSERT.
fn plan_view(
    db: &Database,
    name: &str,
    event: TriggerEvent,
    matching: Option<Option<&Expr>>,
) -> Option<ViewPlan> {
    let k = key(name);
    let view = Arc::clone(db.catalog.views.get(&*k)?);
    let trigger = db.catalog.triggers.values().find(|t| t.event == event && t.on == *k)?;
    let matching = matching.map(|where_clause| {
        // The planner flattens this through UNION ALL views and probes
        // keys, as SQLite's INSTEAD OF trigger path does.
        let select = SelectStmt {
            cores: vec![SelectCore {
                distinct: false,
                columns: vec![ResultColumn::Star],
                from: vec![TableRef { name: name.to_string(), alias: None }],
                where_clause: where_clause.cloned(),
                group_by: Vec::new(),
                having: None,
            }],
            order_by: Vec::new(),
            limit: None,
            offset: None,
        };
        let plan = plan_select(db, &select);
        (select, plan)
    });
    Some(ViewPlan { view, trigger: Arc::clone(trigger), matching })
}

/// Executes one statement against the database with `plan`, or planning
/// as it runs when there is none.
pub(crate) fn exec_stmt(
    db: &mut Database,
    stmt: &Stmt,
    plan: Option<&Plan>,
    params: &[Value],
    trigger: Option<&TriggerCtx<'_>>,
) -> SqlResult<ExecOutcome> {
    match stmt {
        Stmt::CreateTable { name, if_not_exists, columns } => {
            if db.tables().contains_key(&*key(name)) || db.catalog.views.contains_key(&*key(name)) {
                if *if_not_exists {
                    return Ok(ExecOutcome::ddl());
                }
                return Err(SqlError::AlreadyExists(name.clone()));
            }
            let schema = TableSchema::new(name.clone(), columns.clone())?;
            let mut table = Table::new(schema);
            if let Some(cfg) = &db.catalog.heap {
                table.attach_heap(cfg.clone());
            }
            db.create_table(name, table);
            db.bump_catalog_generation();
            Ok(ExecOutcome::ddl())
        }
        Stmt::CreateView { name, if_not_exists, select } => {
            if db.tables().contains_key(&*key(name)) || db.catalog.views.contains_key(&*key(name)) {
                if *if_not_exists {
                    return Ok(ExecOutcome::ddl());
                }
                return Err(SqlError::AlreadyExists(name.clone()));
            }
            let columns = view_output_columns(db, select)?;
            Arc::make_mut(&mut db.catalog.views).insert(
                key(name).into_owned(),
                Arc::new(ViewDef { name: name.clone(), select: select.clone(), columns }),
            );
            db.bump_catalog_generation();
            Ok(ExecOutcome::ddl())
        }
        Stmt::CreateTrigger { name, if_not_exists, event, on, body } => {
            if db.catalog.triggers.contains_key(&*key(name)) {
                if *if_not_exists {
                    return Ok(ExecOutcome::ddl());
                }
                return Err(SqlError::AlreadyExists(name.clone()));
            }
            if !db.catalog.views.contains_key(&*key(on)) {
                return Err(SqlError::Unsupported(format!(
                    "INSTEAD OF trigger requires a view, {on} is not one"
                )));
            }
            Arc::make_mut(&mut db.catalog.triggers).insert(
                key(name).into_owned(),
                Arc::new(TriggerDef {
                    name: name.clone(),
                    event: *event,
                    on: key(on).into_owned(),
                    body: body.clone(),
                }),
            );
            db.bump_catalog_generation();
            Ok(ExecOutcome::ddl())
        }
        Stmt::CreateIndex { name, if_not_exists, unique, table, column } => {
            // Index names share one namespace across all tables, like SQLite.
            if db.tables().values().any(|t| t.has_index(name)) {
                if *if_not_exists {
                    return Ok(ExecOutcome::ddl());
                }
                return Err(SqlError::AlreadyExists(format!("index {name}")));
            }
            if !db.tables().contains_key(&*key(table)) {
                return Err(SqlError::NoSuchTable(table.clone()));
            }
            db.table_mut(table)?.create_index(name, column, *unique)?;
            db.bump_catalog_generation();
            Ok(ExecOutcome::ddl())
        }
        Stmt::DropIndex { name, if_exists } => {
            // Resolve the owning table first so the drop goes through
            // `table_mut` (a private copy of a table the BEGIN image
            // shares).
            let owner = db.tables().iter().find(|(_, t)| t.has_index(name)).map(|(n, _)| n.clone());
            if let Some(owner) = owner {
                db.table_mut(&owner)?.drop_index(name);
                db.bump_catalog_generation();
                return Ok(ExecOutcome::ddl());
            }
            if *if_exists {
                return Ok(ExecOutcome::ddl());
            }
            Err(SqlError::NoSuchIndex(name.clone()))
        }
        Stmt::DropTable { name, if_exists } => {
            if !db.drop_table(name) {
                if !*if_exists {
                    return Err(SqlError::NoSuchTable(name.clone()));
                }
            } else {
                db.bump_catalog_generation();
            }
            Ok(ExecOutcome::ddl())
        }
        Stmt::DropView { name, if_exists } => {
            let k = key(name);
            if !db.catalog.views.contains_key(&*k) {
                if !*if_exists {
                    return Err(SqlError::NoSuchTable(name.clone()));
                }
                return Ok(ExecOutcome::ddl());
            }
            Arc::make_mut(&mut db.catalog.views).remove(&*k);
            // Triggers on the view are dropped with it, like SQLite.
            Arc::make_mut(&mut db.catalog.triggers).retain(|_, t| t.on != *k);
            db.bump_catalog_generation();
            Ok(ExecOutcome::ddl())
        }
        Stmt::DropTrigger { name, if_exists } => {
            let k = key(name);
            if !db.catalog.triggers.contains_key(&*k) {
                if !*if_exists {
                    return Err(SqlError::NoSuchTrigger(name.clone()));
                }
                return Ok(ExecOutcome::ddl());
            }
            Arc::make_mut(&mut db.catalog.triggers).remove(&*k);
            db.bump_catalog_generation();
            Ok(ExecOutcome::ddl())
        }
        Stmt::Insert { table, columns, source, or_replace } => {
            let rows = insert_values(db, source, params, trigger)?;
            exec_insert(db, table, columns, rows, *or_replace, plan)
        }
        Stmt::Update { table, sets, where_clause } => {
            exec_update(db, table, sets, where_clause.as_ref(), plan, params, trigger)
        }
        Stmt::Delete { table, where_clause } => {
            exec_delete(db, table, where_clause.as_ref(), plan, params, trigger)
        }
        Stmt::Select(select) => {
            let plan = match plan {
                Some(Plan::Select(p)) => Some(p),
                _ => None,
            };
            let cache = SubqueryCache::default();
            let rs = exec_select(db, select, plan, params, trigger, &cache, 0)?;
            Ok(ExecOutcome { rows: Some(rs), rows_affected: 0, last_insert_id: None })
        }
        Stmt::Begin => {
            db.begin()?;
            Ok(ExecOutcome::ddl())
        }
        Stmt::Commit => {
            db.commit()?;
            Ok(ExecOutcome::ddl())
        }
        Stmt::Rollback => {
            db.rollback()?;
            Ok(ExecOutcome::ddl())
        }
        Stmt::AlterRowidStart { table, start } => {
            db.table_mut(table)?.set_pk_start(*start);
            db.bump_catalog_generation();
            Ok(ExecOutcome::ddl())
        }
    }
}

/// Resolves a view's output column names at creation time.
fn view_output_columns(db: &Database, select: &SelectStmt) -> SqlResult<Vec<String>> {
    let core = &select.cores[0];
    let mut names = Vec::new();
    for rc in &core.columns {
        match rc {
            ResultColumn::Star => {
                for tref in &core.from {
                    names.extend(db.relation_columns(&tref.name)?);
                }
            }
            ResultColumn::TableStar(t) => {
                let tref = core
                    .from
                    .iter()
                    .find(|r| r.binding().eq_ignore_ascii_case(t))
                    .ok_or_else(|| SqlError::NoSuchTable(t.clone()))?;
                names.extend(db.relation_columns(&tref.name)?);
            }
            ResultColumn::Expr { expr, alias } => names.push(output_name(expr, alias.as_deref())),
        }
    }
    Ok(names)
}

/// Chooses the output column name for a projected expression.
pub(crate) fn output_name(expr: &Expr, alias: Option<&str>) -> String {
    if let Some(a) = alias {
        return a.to_string();
    }
    match expr {
        Expr::Column { name, .. } => name.clone(),
        other => other.to_string(),
    }
}

/// Executes a SELECT with `plan`, or planning as it runs when there is
/// none, and returns its result set.
pub(crate) fn exec_select(
    db: &Database,
    stmt: &SelectStmt,
    plan: Option<&SelectPlan>,
    params: &[Value],
    trigger: Option<&TriggerCtx<'_>>,
    cache: &SubqueryCache,
    depth: usize,
) -> SqlResult<ResultSet> {
    if depth > MAX_DEPTH {
        return Err(SqlError::Unsupported(
            "view nesting too deep (cyclic view definition?)".into(),
        ));
    }
    let plan = plan.map_or_else(|| Cow::Owned(plan_select(db, stmt)), Cow::Borrowed);
    // The statement that runs: the flattened rewrite, or the original.
    let stmt = match &plan.flat {
        Some(flat) => {
            db.stats.flattened_queries.add(1);
            flat
        }
        None => stmt,
    };
    let env = EvalEnv { db, params, trigger, cache, depth };
    let compound = stmt.cores.len() > 1;
    let mut columns: Vec<String> = Vec::new();
    // Each entry: (output row, optional pre-computed sort keys).
    let mut rows: Vec<(Vec<Value>, Option<Vec<Value>>)> = Vec::new();
    for (i, core) in stmt.cores.iter().enumerate() {
        // For single-core queries, sort keys are computed against the
        // source scope so ORDER BY can reference unprojected columns. For
        // compounds, keys come from the output row (SQL rule).
        let order = if compound { &[][..] } else { &stmt.order_by[..] };
        let access = plan.access.get(i).and_then(Option::as_ref);
        let (cols, mut core_rows) = exec_core(db, core, access, order, &env)?;
        if i == 0 {
            columns = cols;
        } else if cols.len() != columns.len() {
            return Err(SqlError::Parse {
                message: "SELECTs to the left and right of UNION ALL do not have the same number of result columns".into(),
            });
        }
        if rows.is_empty() {
            rows = core_rows;
        } else {
            rows.append(&mut core_rows);
        }
    }
    // Sorting.
    if !stmt.order_by.is_empty() {
        if compound {
            // Resolve terms against output columns (name or position).
            let mut key_idx = Vec::new();
            let mut dirs = Vec::new();
            for term in &stmt.order_by {
                let idx = resolve_output_order_term(&term.expr, &columns, &env)?;
                key_idx.push(idx);
                dirs.push(term.ascending);
            }
            rows.sort_by(|a, b| {
                for (k, asc) in key_idx.iter().zip(&dirs) {
                    let ord = a.0[*k].total_cmp(&b.0[*k]);
                    let ord = if *asc { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        } else {
            let dirs: Vec<bool> = stmt.order_by.iter().map(|t| t.ascending).collect();
            rows.sort_by(|a, b| {
                let (ka, kb) = (
                    a.1.as_ref().expect("single-core rows carry sort keys"),
                    b.1.as_ref().expect("single-core rows carry sort keys"),
                );
                for ((x, y), asc) in ka.iter().zip(kb.iter()).zip(&dirs) {
                    let ord = x.total_cmp(y);
                    let ord = if *asc { ord } else { ord.reverse() };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
    }
    // OFFSET, then LIMIT.
    if let Some(offset) = &stmt.offset {
        let n = eval(offset, &RowScope::empty(), &env)?
            .as_integer()
            .ok_or_else(|| SqlError::Type("OFFSET must be an integer".into()))?;
        let n = (n.max(0) as usize).min(rows.len());
        rows.drain(..n);
    }
    if let Some(limit) = &stmt.limit {
        let n = eval(limit, &RowScope::empty(), &env)?
            .as_integer()
            .ok_or_else(|| SqlError::Type("LIMIT must be an integer".into()))?;
        rows.truncate(n.max(0) as usize);
    }
    Ok(ResultSet { columns, rows: rows.into_iter().map(|(r, _)| r).collect() })
}

/// Resolves a compound-query ORDER BY term to an output column index.
fn resolve_output_order_term(
    expr: &Expr,
    columns: &[String],
    env: &EvalEnv<'_>,
) -> SqlResult<usize> {
    match expr {
        Expr::Literal(Value::Integer(k)) if *k >= 1 && (*k as usize) <= columns.len() => {
            Ok(*k as usize - 1)
        }
        Expr::Column { table: None, name } => columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
            .ok_or_else(|| SqlError::NoSuchColumn(name.clone())),
        Expr::Param(_) => {
            let v = eval(expr, &RowScope::empty(), env)?;
            let k = v
                .as_integer()
                .ok_or_else(|| SqlError::Type("ORDER BY position must be integer".into()))?;
            if k >= 1 && (k as usize) <= columns.len() {
                Ok(k as usize - 1)
            } else {
                Err(SqlError::Type(format!("ORDER BY position {k} out of range")))
            }
        }
        other => Err(SqlError::Unsupported(format!(
            "ORDER BY term {other} on a compound SELECT (use a column name or position)"
        ))),
    }
}

/// A FROM source bound for the nested-loop join. Names are borrowed from
/// the statement and the catalog; base-table rows are borrowed straight
/// out of storage, and only view results are owned.
struct Source<'a> {
    binding: &'a str,
    columns: &'a [String],
    rows: Vec<Cow<'a, [Value]>>,
}

/// Executes one SELECT core, returning output columns and rows (with sort
/// keys computed from `order_by` against the source scope).
fn exec_core(
    db: &Database,
    core: &SelectCore,
    access: Option<&AccessPlan>,
    order_by: &[OrderTerm],
    env: &EvalEnv<'_>,
) -> SqlResult<(Vec<String>, KeyedRows)> {
    let aggregate = !core.group_by.is_empty()
        || core.columns.iter().any(|rc| match rc {
            ResultColumn::Expr { expr, .. } => expr.contains_aggregate(),
            _ => false,
        });

    // FROM-less SELECT (e.g. `SELECT 1`).
    if core.from.is_empty() {
        let scope = RowScope::empty();
        if !passes(core.where_clause.as_ref(), &scope, env)? {
            return Ok((project_names(core, &scope)?, Vec::new()));
        }
        let row = project(core, &scope, env)?;
        let names = project_names(core, &scope)?;
        let keys = sort_keys(order_by, &scope, &row, &names, env)?;
        return Ok((names, vec![(row, keys)]));
    }

    // Fast path: single base table, no aggregate — stream rows without
    // materializing the whole table, using pk point lookups when possible.
    if core.from.len() == 1 && db.tables().contains_key(&*key(&core.from[0].name)) {
        return exec_core_single_table(db, core, access, order_by, aggregate, env);
    }

    // General path: materialize every source (tables and views), then
    // nested-loop join.
    let mut sources = Vec::new();
    for tref in &core.from {
        let k = key(&tref.name);
        if let Some(t) = db.tables().get(&*k) {
            // Resident rows are borrowed from storage; paged tables
            // decode into owned rows — the Cow absorbs both.
            let rows: Vec<Cow<'_, [Value]>> = t.iter().map(|(_, r)| r).collect();
            db.stats.rows_scanned.add(rows.len() as u64);
            sources.push(Source {
                binding: tref.binding(),
                columns: t.schema.column_names(),
                rows,
            });
        } else if let Some(v) = db.catalog.views.get(&*k) {
            db.stats.materialized_views.add(1);
            let rs = exec_select(
                db,
                &v.select,
                None,
                env.params,
                env.trigger,
                env.cache,
                env.depth + 1,
            )?;
            sources.push(Source {
                binding: tref.binding(),
                columns: &v.columns,
                rows: rs.rows.into_iter().map(Cow::Owned).collect(),
            });
        } else {
            return Err(SqlError::NoSuchTable(tref.name.clone()));
        }
    }

    // One scope for the whole join: each combination rebinds its rows.
    let mut scope = RowScope::empty();
    for s in &sources {
        scope.push_ref(s.binding, s.columns, s.rows.first().map_or(&[][..], |r| &**r));
    }
    let mut out: KeyedRows = Vec::new();
    let mut matched_scopes: Vec<RowScope> = Vec::new();
    let mut names: Option<Vec<String>> = None;
    let mut index = vec![0usize; sources.len()];
    // Odometer-style nested loop over the cartesian product.
    'outer: loop {
        if sources.iter().any(|s| s.rows.is_empty()) {
            break;
        }
        for (si, s) in sources.iter().enumerate() {
            scope.set_row(si, &s.rows[index[si]]);
        }
        if passes(core.where_clause.as_ref(), &scope, env)? {
            db.stats.rows_cloned.add(1);
            if aggregate {
                matched_scopes.push(scope.clone());
            } else {
                let row = project(core, &scope, env)?;
                if names.is_none() {
                    names = Some(project_names(core, &scope)?);
                }
                let out_names = names.as_deref().expect("named by the first projected row");
                let keys = sort_keys(order_by, &scope, &row, out_names, env)?;
                out.push((row, keys));
            }
        }
        // Advance odometer.
        let mut pos = sources.len();
        loop {
            if pos == 0 {
                break 'outer;
            }
            pos -= 1;
            index[pos] += 1;
            if index[pos] < sources[pos].rows.len() {
                break;
            }
            index[pos] = 0;
        }
    }

    if aggregate {
        let nulls: Vec<Vec<Value>> =
            sources.iter().map(|s| vec![Value::Null; s.columns.len()]).collect();
        let mut template = RowScope::empty();
        for (s, row) in sources.iter().zip(&nulls) {
            template.push_ref(s.binding, s.columns, row);
        }
        return grouped_rows(core, order_by, matched_scopes, &template, env);
    }

    let names = match names {
        Some(n) => n,
        // No rows matched; the names come from the bindings alone.
        None => project_names(core, &scope)?,
    };
    if core.distinct {
        dedupe_rows(&mut out);
    }
    Ok((names, out))
}

/// True when the row bound in `scope` passes `where_clause` (an absent
/// clause passes every row).
fn passes(where_clause: Option<&Expr>, scope: &RowScope, env: &EvalEnv<'_>) -> SqlResult<bool> {
    match where_clause {
        Some(w) => Ok(eval_ref(w, scope, env)?.truthiness() == Some(true)),
        None => Ok(true),
    }
}

/// Single-table core execution with access-path selection: rowid point
/// probes, secondary-index probes, or a full scan as a last resort. One
/// scope serves the whole access: each candidate row is bound by
/// reference, and only rows surviving the WHERE filter are materialized
/// (counted by `db.stats.rows_cloned`).
fn exec_core_single_table(
    db: &Database,
    core: &SelectCore,
    access: Option<&AccessPlan>,
    order_by: &[OrderTerm],
    aggregate: bool,
    env: &EvalEnv<'_>,
) -> SqlResult<(Vec<String>, KeyedRows)> {
    let tref = &core.from[0];
    let table = db.tables().get(&*key(&tref.name)).expect("checked by caller");
    let binding = tref.binding();
    let columns = table.schema.column_names();

    let probed = probe_access_path(db, table, binding, core.where_clause.as_ref(), access, env)?;
    let candidate_rows: Vec<Cow<'_, [Value]>> = match &probed {
        Some(ids) => {
            let mut rows = Vec::with_capacity(ids.len());
            rows.extend(ids.iter().filter_map(|id| table.get(*id)));
            rows
        }
        None => table.iter().map(|(_, r)| r).collect(),
    };

    // A probe's candidates bound the output; a full scan's do not.
    let mut out = Vec::with_capacity(if probed.is_some() { candidate_rows.len() } else { 0 });
    let mut matched_scopes = Vec::new();
    let mut names: Option<Vec<String>> = None;
    let mut scope = RowScope::single_ref(binding, columns, &[]);
    for row in &candidate_rows {
        scope.set_row(0, row);
        if !passes(core.where_clause.as_ref(), &scope, env)? {
            continue;
        }
        db.stats.rows_cloned.add(1);
        if aggregate {
            matched_scopes.push(scope.clone());
        } else {
            let out_row = project(core, &scope, env)?;
            if names.is_none() {
                names = Some(project_names(core, &scope)?);
            }
            let out_names = names.as_deref().expect("named by the first projected row");
            let keys = sort_keys(order_by, &scope, &out_row, out_names, env)?;
            out.push((out_row, keys));
        }
    }

    if aggregate {
        let nulls = vec![Value::Null; columns.len()];
        let template = RowScope::single_ref(binding, columns, &nulls);
        return grouped_rows(core, order_by, matched_scopes, &template, env);
    }
    let names = match names {
        Some(n) => n,
        None => project_names(core, &scope)?,
    };
    if core.distinct {
        dedupe_rows(&mut out);
    }
    Ok((names, out))
}

/// Binds and executes an access path for one table scan: returns
/// `Some(rowids)` for point/index probes (stats and the EXPLAIN log are
/// updated), or `None` to signal a full scan (`rows_scanned` is charged
/// here so callers just iterate). `plan` is the access's value-free plan;
/// without one the access is planned here.
fn probe_access_path(
    db: &Database,
    t: &Table,
    binding: &str,
    where_clause: Option<&Expr>,
    plan: Option<&AccessPlan>,
    env: &EvalEnv<'_>,
) -> SqlResult<Option<Vec<i64>>> {
    let plan = plan.map_or_else(
        || Cow::Owned(plan_access(t, binding, where_clause, &is_const)),
        Cow::Borrowed,
    );
    // Binding probes the plan's captured constants through this closure.
    // An evaluation error (e.g. a missing parameter) is deferred so it
    // still surfaces instead of silently degrading to a full scan.
    let deferred: std::cell::RefCell<Option<SqlError>> = std::cell::RefCell::new(None);
    let eval_const = |e: &Expr| -> Option<Value> {
        if !is_const(e) {
            return None;
        }
        match eval(e, &RowScope::empty(), env) {
            Ok(v) => Some(v),
            Err(err) => {
                deferred.borrow_mut().get_or_insert(err);
                None
            }
        }
    };
    let path = bind_access_plan(&plan, &eval_const);
    if let Some(err) = deferred.into_inner() {
        return Err(err);
    }
    db.stats.note_access_path_with(|| format!("{binding}: {path}"));
    match path {
        AccessPath::FullScan => {
            db.stats.rows_scanned.add(t.len() as u64);
            Ok(None)
        }
        AccessPath::RowidPoint(ids) => {
            db.stats.point_lookups.add(1);
            Ok(Some(ids))
        }
        AccessPath::IndexEq { index, keys } => {
            db.stats.index_probes.add(keys.len() as u64);
            let ix = t
                .indexes()
                .iter()
                .find(|ix| ix.name().eq_ignore_ascii_case(&index))
                .ok_or_else(|| SqlError::NoSuchIndex(index.clone()))?;
            let mut ids: Vec<i64> = Vec::new();
            for k in &keys {
                ids.extend(ix.probe_eq(k));
            }
            // Keep rowid order and drop duplicates from repeated IN keys.
            ids.sort_unstable();
            ids.dedup();
            Ok(Some(ids))
        }
        AccessPath::IndexRange { index, lower, upper } => {
            db.stats.index_probes.add(1);
            let ix = t
                .indexes()
                .iter()
                .find(|ix| ix.name().eq_ignore_ascii_case(&index))
                .ok_or_else(|| SqlError::NoSuchIndex(index.clone()))?;
            Ok(Some(ix.probe_range(lower.as_ref(), upper.as_ref())))
        }
    }
}

/// True when an expression references no columns of the current scope
/// (parameters and NEW/OLD are constant within one row's evaluation).
pub(crate) fn is_const(expr: &Expr) -> bool {
    match expr {
        Expr::Literal(_) | Expr::Param(_) => true,
        Expr::Column { table: Some(t), .. } => TriggerCtx::is_pseudo_table(t),
        Expr::Column { .. } => false,
        Expr::Unary(_, e) => is_const(e),
        Expr::Binary(_, l, r) => is_const(l) && is_const(r),
        _ => false,
    }
}

/// Projects the row bound in `scope` through the result columns: the one
/// place a scanned row's values are copied.
fn project(core: &SelectCore, scope: &RowScope, env: &EvalEnv<'_>) -> SqlResult<Vec<Value>> {
    let width = core
        .columns
        .iter()
        .map(|rc| match rc {
            ResultColumn::Expr { .. } => 1,
            _ => scope.width(),
        })
        .sum();
    let mut row = Vec::with_capacity(width);
    for rc in &core.columns {
        match rc {
            ResultColumn::Star => row.extend(scope.all_values().cloned()),
            ResultColumn::TableStar(t) => row.extend_from_slice(scope.binding_values(t)?),
            ResultColumn::Expr { expr, .. } => row.push(eval(expr, scope, env)?),
        }
    }
    Ok(row)
}

/// Computes the output column names, once per core: they depend on the
/// bindings, not on the row.
fn project_names(core: &SelectCore, scope: &RowScope) -> SqlResult<Vec<String>> {
    let mut names = Vec::new();
    for rc in &core.columns {
        match rc {
            ResultColumn::Star => names.extend(scope.all_columns()),
            ResultColumn::TableStar(t) => names.extend_from_slice(scope.binding_columns(t)?),
            ResultColumn::Expr { expr, alias } => names.push(output_name(expr, alias.as_deref())),
        }
    }
    Ok(names)
}

/// Computes ORDER BY sort keys for one row against its source scope,
/// falling back to output columns for alias references.
fn sort_keys(
    order_by: &[OrderTerm],
    scope: &RowScope,
    out_row: &[Value],
    out_names: &[String],
    env: &EvalEnv<'_>,
) -> SqlResult<Option<Vec<Value>>> {
    if order_by.is_empty() {
        return Ok(None);
    }
    let mut keys = Vec::with_capacity(order_by.len());
    for term in order_by {
        // Positional reference?
        if let Expr::Literal(Value::Integer(k)) = &term.expr {
            if *k >= 1 && (*k as usize) <= out_row.len() {
                keys.push(out_row[*k as usize - 1].clone());
                continue;
            }
        }
        match eval(&term.expr, scope, env) {
            Ok(v) => keys.push(v),
            Err(SqlError::NoSuchColumn(_)) => {
                // Try output aliases.
                if let Expr::Column { table: None, name } = &term.expr {
                    if let Some(i) = out_names.iter().position(|c| c.eq_ignore_ascii_case(name)) {
                        keys.push(out_row[i].clone());
                        continue;
                    }
                }
                return Err(SqlError::NoSuchColumn(term.expr.to_string()));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(Some(keys))
}

/// Deduplicates output rows (SELECT DISTINCT), keeping first occurrences.
fn dedupe_rows(rows: &mut KeyedRows) {
    let mut seen: std::collections::BTreeSet<Vec<crate::expr::OrdValue>> =
        std::collections::BTreeSet::new();
    rows.retain(|(row, _)| seen.insert(row.iter().cloned().map(crate::expr::OrdValue).collect()));
}

/// Produces the output rows of an aggregate / GROUP BY core: one row per
/// group, HAVING-filtered, with ORDER BY keys resolved against the output
/// columns (the SQL rule for grouped queries).
fn grouped_rows(
    core: &SelectCore,
    order_by: &[OrderTerm],
    matched: Vec<RowScope>,
    template: &RowScope,
    env: &EvalEnv<'_>,
) -> SqlResult<(Vec<String>, KeyedRows)> {
    use crate::expr::OrdValue;
    // Partition into groups by the GROUP BY key (one group when absent).
    let groups: Vec<Vec<RowScope>> = if core.group_by.is_empty() {
        vec![matched]
    } else {
        let mut map: std::collections::BTreeMap<Vec<OrdValue>, Vec<RowScope>> =
            std::collections::BTreeMap::new();
        for scope in matched {
            let mut key = Vec::with_capacity(core.group_by.len());
            for e in &core.group_by {
                key.push(OrdValue(eval(e, &scope, env)?));
            }
            map.entry(key).or_default().push(scope);
        }
        map.into_values().collect()
    };
    let mut names: Option<Vec<String>> = None;
    let mut rows: KeyedRows = Vec::new();
    for group in &groups {
        if let Some(h) = &core.having {
            let verdict = eval_aggregate(h, group, template, env)?;
            if verdict.truthiness() != Some(true) {
                continue;
            }
        }
        let (n, row) = project_aggregate(core, group, template, env)?;
        let keys = if order_by.is_empty() {
            None
        } else {
            let mut ks = Vec::with_capacity(order_by.len());
            for term in order_by {
                let idx = resolve_output_order_term(&term.expr, &n, env)?;
                ks.push(row[idx].clone());
            }
            Some(ks)
        };
        if names.is_none() {
            names = Some(n);
        }
        rows.push((row, keys));
    }
    // A grouped query over zero groups still needs names; a plain
    // aggregate over zero rows yields one all-over-nothing row.
    let names = match names {
        Some(n) => n,
        // HAVING filtered everything (or there were no groups): emit no
        // rows but keep the column names.
        None => project_names_for_aggregate(core)?,
    };
    if core.distinct {
        dedupe_rows(&mut rows);
    }
    Ok((names, rows))
}

/// Output names for an aggregate core with no groups.
fn project_names_for_aggregate(core: &SelectCore) -> SqlResult<Vec<String>> {
    core.columns
        .iter()
        .map(|rc| match rc {
            ResultColumn::Expr { expr, alias } => Ok(output_name(expr, alias.as_deref())),
            _ => Err(SqlError::Unsupported("* projection mixed with aggregates".into())),
        })
        .collect()
}

/// Projects the single aggregate output row.
fn project_aggregate(
    core: &SelectCore,
    matched: &[RowScope],
    template: &RowScope,
    env: &EvalEnv<'_>,
) -> SqlResult<(Vec<String>, Vec<Value>)> {
    let mut names = Vec::new();
    let mut row = Vec::new();
    for rc in &core.columns {
        match rc {
            ResultColumn::Expr { expr, alias } => {
                names.push(output_name(expr, alias.as_deref()));
                row.push(eval_aggregate(expr, matched, template, env)?);
            }
            _ => return Err(SqlError::Unsupported("* projection mixed with aggregates".into())),
        }
    }
    Ok((names, row))
}

/// Evaluates an expression in aggregate context: aggregate calls compute
/// over all matched rows, everything else evaluates against the first
/// matched row (SQLite's bare-column rule) or NULL when no rows matched.
fn eval_aggregate(
    expr: &Expr,
    matched: &[RowScope],
    template: &RowScope,
    env: &EvalEnv<'_>,
) -> SqlResult<Value> {
    match expr {
        Expr::Call { name, args, star } if *star || is_agg_name(name, args.len()) => {
            match name.as_str() {
                "count" => {
                    if *star || args.is_empty() {
                        Ok(Value::Integer(matched.len() as i64))
                    } else {
                        let mut n = 0i64;
                        for scope in matched {
                            if !eval(&args[0], scope, env)?.is_null() {
                                n += 1;
                            }
                        }
                        Ok(Value::Integer(n))
                    }
                }
                "max" | "min" => {
                    let mut best: Option<Value> = None;
                    for scope in matched {
                        let v = eval(&args[0], scope, env)?;
                        if v.is_null() {
                            continue;
                        }
                        best = Some(match best {
                            None => v,
                            Some(b) => {
                                let take = if name == "max" {
                                    v.total_cmp(&b) == std::cmp::Ordering::Greater
                                } else {
                                    v.total_cmp(&b) == std::cmp::Ordering::Less
                                };
                                if take {
                                    v
                                } else {
                                    b
                                }
                            }
                        });
                    }
                    Ok(best.unwrap_or(Value::Null))
                }
                "sum" | "total" | "avg" => {
                    let mut acc = 0.0f64;
                    let mut all_int = true;
                    let mut count = 0i64;
                    for scope in matched {
                        let v = eval(&args[0], scope, env)?;
                        if v.is_null() {
                            continue;
                        }
                        if !matches!(v, Value::Integer(_)) {
                            all_int = false;
                        }
                        acc += v.as_real().unwrap_or(0.0);
                        count += 1;
                    }
                    match name.as_str() {
                        "sum" if count == 0 => Ok(Value::Null),
                        "sum" if all_int => Ok(Value::Integer(acc as i64)),
                        "sum" | "total" => Ok(Value::Real(acc)),
                        "avg" if count == 0 => Ok(Value::Null),
                        _ => Ok(Value::Real(acc / count as f64)),
                    }
                }
                other => Err(SqlError::Unsupported(format!("aggregate {other}()"))),
            }
        }
        Expr::Binary(op, l, r) => {
            let lv = eval_aggregate(l, matched, template, env)?;
            let rv = eval_aggregate(r, matched, template, env)?;
            // Re-evaluate as a constant binary over computed values.
            let synth = Expr::Binary(*op, Box::new(Expr::Literal(lv)), Box::new(Expr::Literal(rv)));
            eval(&synth, template, env)
        }
        Expr::Unary(op, e) => {
            let v = eval_aggregate(e, matched, template, env)?;
            eval(&Expr::Unary(*op, Box::new(Expr::Literal(v))), template, env)
        }
        other => {
            // Bare expression: evaluate on the first matched row.
            match matched.first() {
                Some(scope) => eval(other, scope, env),
                None => Ok(Value::Null),
            }
        }
    }
}

fn is_agg_name(name: &str, nargs: usize) -> bool {
    match name {
        "count" | "sum" | "avg" | "total" => true,
        "max" | "min" => nargs == 1,
        _ => false,
    }
}

// ---------------------------------------------------------------------
// Mutations.
// ---------------------------------------------------------------------

/// The rows an INSERT inserts, computed before anything changes.
fn insert_values(
    db: &Database,
    source: &InsertSource,
    params: &[Value],
    trigger: Option<&TriggerCtx<'_>>,
) -> SqlResult<Vec<Vec<Value>>> {
    let cache = SubqueryCache::default();
    let env = EvalEnv { db, params, trigger, cache: &cache, depth: 0 };
    match source {
        InsertSource::Values(rows) => {
            let mut out = Vec::with_capacity(rows.len());
            for row in rows {
                let mut vals = Vec::with_capacity(row.len());
                for e in row {
                    vals.push(eval(e, &RowScope::empty(), &env)?);
                }
                out.push(vals);
            }
            Ok(out)
        }
        InsertSource::Select(sel) => {
            Ok(exec_select(db, sel, None, params, trigger, &cache, 0)?.rows)
        }
    }
}

fn exec_insert(
    db: &mut Database,
    table: &str,
    columns: &[String],
    value_rows: Vec<Vec<Value>>,
    or_replace: bool,
    plan: Option<&Plan>,
) -> SqlResult<ExecOutcome> {
    let tkey = key(table);
    if db.tables().contains_key(&*tkey) {
        // Map provided columns to schema positions.
        let (schema_len, col_map): (usize, Vec<usize>) = {
            let t = db.table(table)?;
            let map: SqlResult<Vec<usize>> = if columns.is_empty() {
                Ok((0..t.schema.columns.len()).collect())
            } else {
                columns
                    .iter()
                    .map(|c| {
                        t.schema.column_index(c).ok_or_else(|| SqlError::NoSuchColumn(c.clone()))
                    })
                    .collect()
            };
            (t.schema.columns.len(), map?)
        };
        let mut last_id = None;
        let mut affected = 0;
        for vals in value_rows {
            if vals.len() != col_map.len() {
                return Err(SqlError::Parse {
                    message: format!(
                        "table {table} has {} target columns but {} values were supplied",
                        col_map.len(),
                        vals.len()
                    ),
                });
            }
            let mut full = vec![Value::Null; schema_len];
            for (v, idx) in vals.into_iter().zip(&col_map) {
                full[*idx] = v;
            }
            let id = db.table_mut(table)?.insert(full, or_replace)?;
            last_id = Some(id);
            affected += 1;
        }
        return Ok(ExecOutcome { rows: None, rows_affected: affected, last_insert_id: last_id });
    }

    // INSERT into a view: fire its INSTEAD OF INSERT trigger per row. The
    // view and trigger are held by `Arc`, so the body and the view's
    // columns are shared, not copied.
    if db.catalog.views.contains_key(&*tkey) {
        let vp = view_plan(db, plan, table, TriggerEvent::Insert, None)?;
        let view_cols = &vp.view.columns;
        let mut affected = 0;
        for vals in value_rows {
            let mut new_row = vec![Value::Null; view_cols.len()];
            if columns.is_empty() {
                if vals.len() != view_cols.len() {
                    return Err(SqlError::Parse {
                        message: format!(
                            "view {table} has {} columns but {} values were supplied",
                            view_cols.len(),
                            vals.len()
                        ),
                    });
                }
                new_row = vals;
            } else {
                for (c, v) in columns.iter().zip(vals) {
                    let idx = view_cols
                        .iter()
                        .position(|vc| vc.eq_ignore_ascii_case(c))
                        .ok_or_else(|| SqlError::NoSuchColumn(c.clone()))?;
                    new_row[idx] = v;
                }
            }
            let ctx = TriggerCtx { columns: view_cols, new: Some(new_row), old: None };
            fire(db, &vp.trigger, &ctx)?;
            affected += 1;
        }
        return Ok(ExecOutcome { rows: None, rows_affected: affected, last_insert_id: None });
    }

    Err(SqlError::NoSuchTable(table.to_string()))
}

/// The view plan `plan` holds, or for a write run without one a plan made
/// now by [`plan_view`]: the view must have a trigger for `event`.
fn view_plan<'p>(
    db: &Database,
    plan: Option<&'p Plan>,
    table: &str,
    event: TriggerEvent,
    matching: Option<Option<&Expr>>,
) -> SqlResult<Cow<'p, ViewPlan>> {
    if let Some(Plan::View(vp)) = plan {
        return Ok(Cow::Borrowed(vp));
    }
    let planned = plan_view(db, table, event, matching);
    planned.map(Cow::Owned).ok_or_else(|| SqlError::ViewNotWritable(table.into()))
}

/// Runs a trigger's body once, for the row in `ctx`.
fn fire(db: &mut Database, trigger: &TriggerDef, ctx: &TriggerCtx<'_>) -> SqlResult<()> {
    for stmt in &trigger.body {
        exec_stmt(db, stmt, None, &[], Some(ctx))?;
    }
    Ok(())
}

/// The view rows an UPDATE or DELETE through a view acts on, in
/// view-column order.
fn view_rows_matching(
    db: &Database,
    vp: &ViewPlan,
    params: &[Value],
    trigger: Option<&TriggerCtx<'_>>,
) -> SqlResult<Vec<Vec<Value>>> {
    let (select, plan) = vp.matching.as_ref().expect("UPDATE and DELETE plans match rows");
    let cache = SubqueryCache::default();
    Ok(exec_select(db, select, Some(plan), params, trigger, &cache, 0)?.rows)
}

/// The access plan `plan` holds for an UPDATE or DELETE on a table.
fn table_access(plan: Option<&Plan>) -> Option<&AccessPlan> {
    match plan {
        Some(Plan::Table(access)) => Some(access),
        _ => None,
    }
}

/// Returns the rows UPDATE/DELETE must consider: a rowid point probe or
/// secondary-index probe when the WHERE clause allows it, otherwise a
/// full scan. Rows are borrowed, not cloned.
fn candidate_rows<'a>(
    db: &Database,
    t: &'a crate::table::Table,
    binding: &str,
    where_clause: Option<&Expr>,
    plan: Option<&AccessPlan>,
    env: &EvalEnv<'_>,
) -> SqlResult<Vec<(i64, Cow<'a, [Value]>)>> {
    if let Some(ids) = probe_access_path(db, t, binding, where_clause, plan, env)? {
        let mut rows = Vec::with_capacity(ids.len());
        rows.extend(ids.into_iter().filter_map(|id| t.get(id).map(|r| (id, r))));
        return Ok(rows);
    }
    Ok(t.iter().collect())
}

fn exec_update(
    db: &mut Database,
    table: &str,
    sets: &[(String, Expr)],
    where_clause: Option<&Expr>,
    plan: Option<&Plan>,
    params: &[Value],
    trigger: Option<&TriggerCtx<'_>>,
) -> SqlResult<ExecOutcome> {
    let tkey = key(table);
    if db.tables().contains_key(&*tkey) {
        // Phase 1 (immutable): find matching rows and compute new values.
        let updates: Vec<(i64, Vec<Value>)> = {
            let cache = SubqueryCache::default();
            let env = EvalEnv { db, params, trigger, cache: &cache, depth: 0 };
            let t = db.table(table)?;
            let cols = t.schema.column_names();
            let set_idx: SqlResult<Vec<usize>> = sets
                .iter()
                .map(|(c, _)| {
                    t.schema.column_index(c).ok_or_else(|| SqlError::NoSuchColumn(c.clone()))
                })
                .collect();
            let set_idx = set_idx?;
            let mut ups = Vec::new();
            let access = table_access(plan);
            let candidates = candidate_rows(db, t, table, where_clause, access, &env)?;
            let mut scope = RowScope::single_ref(table, cols, &[]);
            for (rowid, row) in &candidates {
                scope.set_row(0, row);
                if !passes(where_clause, &scope, &env)? {
                    continue;
                }
                let mut new_row = row.to_vec();
                for ((_, e), idx) in sets.iter().zip(&set_idx) {
                    new_row[*idx] = eval(e, &scope, &env)?;
                }
                ups.push((*rowid, new_row));
            }
            ups
        };
        let affected = updates.len();
        let t = db.table_mut(table)?;
        for (rowid, new_row) in updates {
            t.update_row(rowid, new_row)?;
        }
        return Ok(ExecOutcome { rows: None, rows_affected: affected, last_insert_id: None });
    }

    if db.catalog.views.contains_key(&*tkey) {
        // INSTEAD OF UPDATE: materialize matching view rows, fire trigger
        // with OLD = row, NEW = row + sets.
        let vp = view_plan(db, plan, table, TriggerEvent::Update, Some(where_clause))?;
        let columns = &vp.view.columns;
        let olds = view_rows_matching(db, &vp, params, trigger)?;
        let mut news = Vec::with_capacity(olds.len());
        {
            let cache = SubqueryCache::default();
            let env = EvalEnv { db, params, trigger, cache: &cache, depth: 0 };
            let mut scope = RowScope::single_ref(table, columns, &[]);
            for row in &olds {
                scope.set_row(0, row);
                let mut new_row = row.clone();
                for (c, e) in sets {
                    let idx = columns
                        .iter()
                        .position(|vc| vc.eq_ignore_ascii_case(c))
                        .ok_or_else(|| SqlError::NoSuchColumn(c.clone()))?;
                    new_row[idx] = eval(e, &scope, &env)?;
                }
                news.push(new_row);
            }
        }
        let affected = olds.len();
        for (old, new) in olds.into_iter().zip(news) {
            let ctx = TriggerCtx { columns, new: Some(new), old: Some(old) };
            fire(db, &vp.trigger, &ctx)?;
        }
        return Ok(ExecOutcome { rows: None, rows_affected: affected, last_insert_id: None });
    }

    Err(SqlError::NoSuchTable(table.to_string()))
}

fn exec_delete(
    db: &mut Database,
    table: &str,
    where_clause: Option<&Expr>,
    plan: Option<&Plan>,
    params: &[Value],
    trigger: Option<&TriggerCtx<'_>>,
) -> SqlResult<ExecOutcome> {
    let tkey = key(table);
    if db.tables().contains_key(&*tkey) {
        let doomed: Vec<i64> = {
            let cache = SubqueryCache::default();
            let env = EvalEnv { db, params, trigger, cache: &cache, depth: 0 };
            let t = db.table(table)?;
            let cols = t.schema.column_names();
            let mut ids = Vec::new();
            let access = table_access(plan);
            let candidates = candidate_rows(db, t, table, where_clause, access, &env)?;
            let mut scope = RowScope::single_ref(table, cols, &[]);
            for (rowid, row) in &candidates {
                scope.set_row(0, row);
                if passes(where_clause, &scope, &env)? {
                    ids.push(*rowid);
                }
            }
            ids
        };
        let affected = doomed.len();
        let t = db.table_mut(table)?;
        for id in doomed {
            t.delete_row(id);
        }
        return Ok(ExecOutcome { rows: None, rows_affected: affected, last_insert_id: None });
    }

    if db.catalog.views.contains_key(&*tkey) {
        let vp = view_plan(db, plan, table, TriggerEvent::Delete, Some(where_clause))?;
        let matches = view_rows_matching(db, &vp, params, trigger)?;
        let affected = matches.len();
        for old in matches {
            let ctx = TriggerCtx { columns: &vp.view.columns, new: None, old: Some(old) };
            fire(db, &vp.trigger, &ctx)?;
        }
        return Ok(ExecOutcome { rows: None, rows_affected: affected, last_insert_id: None });
    }

    Err(SqlError::NoSuchTable(table.to_string()))
}
