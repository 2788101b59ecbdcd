//! Statement execution: SELECT pipeline, mutations, DDL and triggers.

use crate::ast::{
    Expr, InsertSource, OrderTerm, ResultColumn, SelectCore, SelectStmt, Stmt, TriggerEvent,
};
use crate::db::{key, Database, ExecOutcome, ResultSet, TriggerDef, ViewDef, MAX_DEPTH};
use crate::error::{SqlError, SqlResult};
use crate::expr::{eval, EvalEnv, RowScope, SubqueryCache, TriggerCtx};
use crate::planner::{bind_access_plan, AccessPath};
use crate::table::{Table, TableSchema};
use crate::value::Value;
use std::borrow::Cow;
use std::sync::Arc;

/// Output rows paired with optional pre-computed sort keys.
type KeyedRows = Vec<(Vec<Value>, Option<Vec<Value>>)>;

/// Executes one statement against the database.
pub fn exec_stmt(
    db: &mut Database,
    stmt: &Stmt,
    params: &[Value],
    trigger: Option<&TriggerCtx>,
) -> SqlResult<ExecOutcome> {
    match stmt {
        Stmt::CreateTable { name, if_not_exists, columns } => {
            if db.tables().contains_key(&key(name)) || db.views.contains_key(&key(name)) {
                if *if_not_exists {
                    return Ok(ExecOutcome::ddl());
                }
                return Err(SqlError::AlreadyExists(name.clone()));
            }
            let schema = TableSchema::new(name.clone(), columns.clone())?;
            let mut table = Table::new(schema);
            table.attach_mvcc(db.mvcc.clone());
            if let Some(cfg) = &db.heap {
                table.attach_heap(cfg.clone());
            }
            db.create_table(name, table);
            db.bump_catalog_generation();
            Ok(ExecOutcome::ddl())
        }
        Stmt::CreateView { name, if_not_exists, select } => {
            if db.tables().contains_key(&key(name)) || db.views.contains_key(&key(name)) {
                if *if_not_exists {
                    return Ok(ExecOutcome::ddl());
                }
                return Err(SqlError::AlreadyExists(name.clone()));
            }
            let columns = view_output_columns(db, select)?;
            db.views.insert(
                key(name),
                Arc::new(ViewDef { name: name.clone(), select: select.clone(), columns }),
            );
            db.bump_catalog_generation();
            Ok(ExecOutcome::ddl())
        }
        Stmt::CreateTrigger { name, if_not_exists, event, on, body } => {
            if db.triggers.contains_key(&key(name)) {
                if *if_not_exists {
                    return Ok(ExecOutcome::ddl());
                }
                return Err(SqlError::AlreadyExists(name.clone()));
            }
            if !db.views.contains_key(&key(on)) {
                return Err(SqlError::Unsupported(format!(
                    "INSTEAD OF trigger requires a view, {on} is not one"
                )));
            }
            db.triggers.insert(
                key(name),
                Arc::new(TriggerDef {
                    name: name.clone(),
                    event: *event,
                    on: key(on),
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
            if !db.tables().contains_key(&key(table)) {
                return Err(SqlError::NoSuchTable(table.clone()));
            }
            db.table_mut(table)?.create_index(name, column, *unique)?;
            db.bump_catalog_generation();
            Ok(ExecOutcome::ddl())
        }
        Stmt::DropIndex { name, if_exists } => {
            // Resolve the owning table first so the drop goes through
            // `table_mut` (snapshot retraction, frozen-cache eviction and
            // the transaction undo log).
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
            if db.views.remove(&key(name)).is_none() {
                if !*if_exists {
                    return Err(SqlError::NoSuchTable(name.clone()));
                }
            } else {
                db.bump_catalog_generation();
            }
            // Triggers on the view are dropped with it, like SQLite.
            db.triggers.retain(|_, t| t.on != key(name));
            Ok(ExecOutcome::ddl())
        }
        Stmt::DropTrigger { name, if_exists } => {
            if db.triggers.remove(&key(name)).is_none() {
                if !*if_exists {
                    return Err(SqlError::NoSuchTrigger(name.clone()));
                }
            } else {
                db.bump_catalog_generation();
            }
            Ok(ExecOutcome::ddl())
        }
        Stmt::Insert { table, columns, source, or_replace } => {
            exec_insert(db, table, columns, source, *or_replace, params, trigger)
        }
        Stmt::Update { table, sets, where_clause } => {
            exec_update(db, table, sets, where_clause.as_ref(), params, trigger)
        }
        Stmt::Delete { table, where_clause } => {
            exec_delete(db, table, where_clause.as_ref(), params, trigger)
        }
        Stmt::Select(select) => {
            let cache = SubqueryCache::default();
            let rs = exec_select(db, select, params, trigger, &cache, 0)?;
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

/// Executes a SELECT, returning its result set.
pub fn exec_select(
    db: &Database,
    stmt: &SelectStmt,
    params: &[Value],
    trigger: Option<&TriggerCtx>,
    cache: &SubqueryCache,
    depth: usize,
) -> SqlResult<ResultSet> {
    if depth > MAX_DEPTH {
        return Err(SqlError::Unsupported(
            "view nesting too deep (cyclic view definition?)".into(),
        ));
    }
    // Planner: try UNION ALL view flattening first. The rewrite (or the
    // decision not to rewrite) is memoized per statement shape and
    // catalog generation.
    if let Some(flat) = db.cached_flatten(stmt) {
        db.stats.flattened_queries.set(db.stats.flattened_queries.get() + 1);
        return exec_select_plain(db, &flat, params, trigger, cache, depth);
    }
    exec_select_plain(db, stmt, params, trigger, cache, depth)
}

fn exec_select_plain(
    db: &Database,
    stmt: &SelectStmt,
    params: &[Value],
    trigger: Option<&TriggerCtx>,
    cache: &SubqueryCache,
    depth: usize,
) -> SqlResult<ResultSet> {
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
        let (cols, mut core_rows) = exec_core(db, core, order, &env)?;
        if i == 0 {
            columns = cols;
        } else if cols.len() != columns.len() {
            return Err(SqlError::Parse {
                message: "SELECTs to the left and right of UNION ALL do not have the same number of result columns".into(),
            });
        }
        rows.append(&mut core_rows);
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

/// A FROM source bound for the nested-loop join. Base-table rows are
/// borrowed straight out of storage; only view results are owned.
struct Source<'a> {
    binding: String,
    columns: Vec<String>,
    rows: Vec<Cow<'a, [Value]>>,
}

/// Executes one SELECT core, returning output columns and rows (with sort
/// keys computed from `order_by` against the source scope).
fn exec_core(
    db: &Database,
    core: &SelectCore,
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
        if let Some(w) = &core.where_clause {
            if eval(w, &scope, env)?.truthiness() != Some(true) {
                return Ok((project_names(core, &scope)?, Vec::new()));
            }
        }
        let (names, row) = project(core, &scope, env)?;
        let keys = sort_keys(order_by, &scope, &row, &names, env)?;
        return Ok((names, vec![(row, keys)]));
    }

    // Fast path: single base table, no aggregate — stream rows without
    // materializing the whole table, using pk point lookups when possible.
    if core.from.len() == 1 && db.read_table(&key(&core.from[0].name)).is_some() {
        return exec_core_single_table(db, core, order_by, aggregate, env);
    }

    // General path: materialize every source (tables and views), then
    // nested-loop join.
    let mut sources = Vec::new();
    for tref in &core.from {
        let k = key(&tref.name);
        if let Some(t) = db.read_table(&k) {
            // Resident rows are borrowed from storage; paged tables
            // decode into owned rows — the Cow absorbs both.
            let rows: Vec<Cow<'_, [Value]>> = t.iter().map(|(_, r)| r).collect();
            db.stats.rows_scanned.set(db.stats.rows_scanned.get() + rows.len() as u64);
            sources.push(Source {
                binding: tref.binding().to_string(),
                columns: t.schema.column_names(),
                rows,
            });
        } else if let Some(v) = db.views.get(&k) {
            db.stats.materialized_views.set(db.stats.materialized_views.get() + 1);
            let rs = exec_select(db, &v.select, env.params, env.trigger, env.cache, env.depth + 1)?;
            sources.push(Source {
                binding: tref.binding().to_string(),
                columns: v.columns.clone(),
                rows: rs.rows.into_iter().map(Cow::Owned).collect(),
            });
        } else {
            return Err(SqlError::NoSuchTable(tref.name.clone()));
        }
    }

    let mut out: Vec<(Vec<Value>, Option<Vec<Value>>)> = Vec::new();
    let mut matched_scopes: Vec<RowScope> = Vec::new();
    let mut names: Option<Vec<String>> = None;
    let mut index = vec![0usize; sources.len()];
    // Odometer-style nested loop over the cartesian product.
    'outer: loop {
        if sources.iter().any(|s| s.rows.is_empty()) {
            break;
        }
        let mut scope = RowScope::empty();
        for (si, s) in sources.iter().enumerate() {
            scope.push_ref(&s.binding, &s.columns, &s.rows[index[si]]);
        }
        let pass = match &core.where_clause {
            Some(w) => eval(w, &scope, env)?.truthiness() == Some(true),
            None => true,
        };
        if pass {
            db.stats.rows_cloned.set(db.stats.rows_cloned.get() + 1);
            if aggregate {
                matched_scopes.push(scope);
            } else {
                let (n, row) = project(core, &scope, env)?;
                let keys = sort_keys(order_by, &scope, &row, &n, env)?;
                if names.is_none() {
                    names = Some(n);
                }
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
        let template = {
            let mut scope = RowScope::empty();
            for s in &sources {
                scope.push(&s.binding, s.columns.clone(), vec![Value::Null; s.columns.len()]);
            }
            scope
        };
        return grouped_rows(core, order_by, matched_scopes, &template, env);
    }

    let names = match names {
        Some(n) => n,
        None => {
            // No rows matched; compute names from an all-NULL scope.
            let mut scope = RowScope::empty();
            for s in &sources {
                scope.push(&s.binding, s.columns.clone(), vec![Value::Null; s.columns.len()]);
            }
            project_names(core, &scope)?
        }
    };
    if core.distinct {
        dedupe_rows(&mut out);
    }
    Ok((names, out))
}

/// Single-table core execution with access-path selection: rowid point
/// probes, secondary-index probes, or a full scan as a last resort. Rows
/// are bound by reference; only rows surviving the WHERE filter are
/// materialized (counted by `db.stats.rows_cloned`).
fn exec_core_single_table(
    db: &Database,
    core: &SelectCore,
    order_by: &[OrderTerm],
    aggregate: bool,
    env: &EvalEnv<'_>,
) -> SqlResult<(Vec<String>, KeyedRows)> {
    let tref = &core.from[0];
    let table = db.read_table(&key(&tref.name)).expect("checked by caller");
    let binding = tref.binding().to_string();
    let columns = table.schema.column_names();

    let probed = probe_access_path(db, table, &binding, core.where_clause.as_ref(), env)?;
    let candidate_rows: Vec<Cow<'_, [Value]>> = match &probed {
        Some(ids) => ids.iter().filter_map(|id| table.get(*id)).collect(),
        None => table.iter().map(|(_, r)| r).collect(),
    };

    let mut out = Vec::new();
    let mut matched_scopes = Vec::new();
    let mut names: Option<Vec<String>> = None;
    for row in &candidate_rows {
        let scope = RowScope::single_ref(&binding, &columns, row);
        let pass = match &core.where_clause {
            Some(w) => eval(w, &scope, env)?.truthiness() == Some(true),
            None => true,
        };
        if !pass {
            continue;
        }
        db.stats.rows_cloned.set(db.stats.rows_cloned.get() + 1);
        if aggregate {
            matched_scopes.push(scope);
        } else {
            let (n, out_row) = project(core, &scope, env)?;
            let keys = sort_keys(order_by, &scope, &out_row, &n, env)?;
            if names.is_none() {
                names = Some(n);
            }
            out.push((out_row, keys));
        }
    }

    if aggregate {
        let template =
            RowScope::single(&binding, columns.clone(), vec![Value::Null; columns.len()]);
        return grouped_rows(core, order_by, matched_scopes, &template, env);
    }
    let names = match names {
        Some(n) => n,
        None => {
            let scope =
                RowScope::single(&binding, columns.clone(), vec![Value::Null; columns.len()]);
            project_names(core, &scope)?
        }
    };
    if core.distinct {
        dedupe_rows(&mut out);
    }
    Ok((names, out))
}

/// Chooses and executes an access path for one table scan: returns
/// `Some(rowids)` for point/index probes (stats and the EXPLAIN log are
/// updated), or `None` to signal a full scan (`rows_scanned` is charged
/// here so callers just iterate).
fn probe_access_path(
    db: &Database,
    t: &Table,
    binding: &str,
    where_clause: Option<&Expr>,
    env: &EvalEnv<'_>,
) -> SqlResult<Option<Vec<i64>>> {
    // The value-free plan comes from the plan cache (or a fresh planner
    // walk); binding probes its captured constants through this closure.
    // An evaluation error (e.g. a missing parameter) is deferred so it
    // still surfaces instead of silently degrading to a full scan.
    let plan = db.cached_access_plan(t, binding, where_clause);
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
            db.stats.rows_scanned.set(db.stats.rows_scanned.get() + t.len() as u64);
            Ok(None)
        }
        AccessPath::RowidPoint(ids) => {
            db.stats.point_lookups.set(db.stats.point_lookups.get() + 1);
            Ok(Some(ids))
        }
        AccessPath::IndexEq { index, keys } => {
            db.stats.index_probes.set(db.stats.index_probes.get() + keys.len() as u64);
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
            db.stats.index_probes.set(db.stats.index_probes.get() + 1);
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

/// Projects one row through the result columns.
fn project(
    core: &SelectCore,
    scope: &RowScope,
    env: &EvalEnv<'_>,
) -> SqlResult<(Vec<String>, Vec<Value>)> {
    let mut names = Vec::new();
    let mut row = Vec::new();
    for rc in &core.columns {
        match rc {
            ResultColumn::Star => {
                names.extend(scope.all_columns());
                row.extend(scope.all_values());
            }
            ResultColumn::TableStar(t) => {
                names.extend(scope.binding_columns(t)?);
                row.extend(scope.binding_values(t)?);
            }
            ResultColumn::Expr { expr, alias } => {
                names.push(output_name(expr, alias.as_deref()));
                row.push(eval(expr, scope, env)?);
            }
        }
    }
    Ok((names, row))
}

/// Computes just the output column names (for empty results).
fn project_names(core: &SelectCore, scope: &RowScope) -> SqlResult<Vec<String>> {
    let mut names = Vec::new();
    for rc in &core.columns {
        match rc {
            ResultColumn::Star => names.extend(scope.all_columns()),
            ResultColumn::TableStar(t) => names.extend(scope.binding_columns(t)?),
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

fn exec_insert(
    db: &mut Database,
    table: &str,
    columns: &[String],
    source: &InsertSource,
    or_replace: bool,
    params: &[Value],
    trigger: Option<&TriggerCtx>,
) -> SqlResult<ExecOutcome> {
    // Compute the rows to insert first (immutable phase).
    let value_rows: Vec<Vec<Value>> = {
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
                out
            }
            InsertSource::Select(sel) => exec_select(db, sel, params, trigger, &cache, 0)?.rows,
        }
    };

    let tkey = key(table);
    if db.tables().contains_key(&tkey) {
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

    // INSERT into a view: fire its INSTEAD OF INSERT trigger per row.
    if db.views.contains_key(&tkey) {
        let (view_cols, body) = {
            let v = db.view(table)?;
            let trig = db
                .trigger_for(table, TriggerEvent::Insert)
                .ok_or_else(|| SqlError::ViewNotWritable(table.to_string()))?;
            (v.columns.clone(), trig.body.clone())
        };
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
            let ctx = TriggerCtx { columns: view_cols.clone(), new: Some(new_row), old: None };
            for stmt in &body {
                exec_stmt(db, stmt, &[], Some(&ctx))?;
            }
            affected += 1;
        }
        return Ok(ExecOutcome { rows: None, rows_affected: affected, last_insert_id: None });
    }

    Err(SqlError::NoSuchTable(table.to_string()))
}

/// Returns the rows UPDATE/DELETE must consider: a rowid point probe or
/// secondary-index probe when the WHERE clause allows it, otherwise a
/// full scan. Rows are borrowed, not cloned.
fn candidate_rows<'a>(
    db: &Database,
    t: &'a crate::table::Table,
    binding: &str,
    where_clause: Option<&Expr>,
    env: &EvalEnv<'_>,
) -> SqlResult<Vec<(i64, Cow<'a, [Value]>)>> {
    if let Some(ids) = probe_access_path(db, t, binding, where_clause, env)? {
        return Ok(ids.into_iter().filter_map(|id| t.get(id).map(|r| (id, r))).collect());
    }
    Ok(t.iter().collect())
}

/// Materializes the view rows matching `where_clause` by running a
/// filtered `SELECT * FROM view WHERE ...` — this lets the planner flatten
/// UNION ALL views and use pk probes, exactly like SQLite's INSTEAD OF
/// trigger path. Returns the matching rows in view-column order.
fn view_rows_matching(
    db: &Database,
    view_name: &str,
    where_clause: Option<&Expr>,
    params: &[Value],
    trigger: Option<&TriggerCtx>,
) -> SqlResult<Vec<Vec<Value>>> {
    let filtered = SelectStmt {
        cores: vec![SelectCore {
            distinct: false,
            columns: vec![ResultColumn::Star],
            from: vec![crate::ast::TableRef { name: view_name.to_string(), alias: None }],
            where_clause: where_clause.cloned(),
            group_by: Vec::new(),
            having: None,
        }],
        order_by: Vec::new(),
        limit: None,
        offset: None,
    };
    let cache = SubqueryCache::default();
    Ok(exec_select(db, &filtered, params, trigger, &cache, 0)?.rows)
}

fn exec_update(
    db: &mut Database,
    table: &str,
    sets: &[(String, Expr)],
    where_clause: Option<&Expr>,
    params: &[Value],
    trigger: Option<&TriggerCtx>,
) -> SqlResult<ExecOutcome> {
    let tkey = key(table);
    if db.tables().contains_key(&tkey) {
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
            let candidates = candidate_rows(db, t, table, where_clause, &env)?;
            for (rowid, row) in candidates {
                let scope = RowScope::single_ref(table, &cols, &row);
                let pass = match where_clause {
                    Some(w) => eval(w, &scope, &env)?.truthiness() == Some(true),
                    None => true,
                };
                if !pass {
                    continue;
                }
                let mut new_row = row.to_vec();
                for ((_, e), idx) in sets.iter().zip(&set_idx) {
                    new_row[*idx] = eval(e, &scope, &env)?;
                }
                ups.push((rowid, new_row));
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

    if db.views.contains_key(&tkey) {
        // INSTEAD OF UPDATE: materialize matching view rows, fire trigger
        // with OLD = row, NEW = row + sets.
        let (view_cols, body, matches) = {
            let v = db.view(table)?;
            let trig = db
                .trigger_for(table, TriggerEvent::Update)
                .ok_or_else(|| SqlError::ViewNotWritable(table.to_string()))?;
            let rows = view_rows_matching(db, table, where_clause, params, trigger)?;
            let cache = SubqueryCache::default();
            let env = EvalEnv { db, params, trigger, cache: &cache, depth: 0 };
            let mut matched = Vec::new();
            for row in rows {
                let scope = RowScope::single_ref(table, &v.columns, &row);
                let mut new_row = row.clone();
                for (c, e) in sets {
                    let idx = v
                        .columns
                        .iter()
                        .position(|vc| vc.eq_ignore_ascii_case(c))
                        .ok_or_else(|| SqlError::NoSuchColumn(c.clone()))?;
                    new_row[idx] = eval(e, &scope, &env)?;
                }
                matched.push((row, new_row));
            }
            (v.columns.clone(), trig.body.clone(), matched)
        };
        let affected = matches.len();
        for (old, new) in matches {
            let ctx = TriggerCtx { columns: view_cols.clone(), new: Some(new), old: Some(old) };
            for stmt in &body {
                exec_stmt(db, stmt, &[], Some(&ctx))?;
            }
        }
        return Ok(ExecOutcome { rows: None, rows_affected: affected, last_insert_id: None });
    }

    Err(SqlError::NoSuchTable(table.to_string()))
}

fn exec_delete(
    db: &mut Database,
    table: &str,
    where_clause: Option<&Expr>,
    params: &[Value],
    trigger: Option<&TriggerCtx>,
) -> SqlResult<ExecOutcome> {
    let tkey = key(table);
    if db.tables().contains_key(&tkey) {
        let doomed: Vec<i64> = {
            let cache = SubqueryCache::default();
            let env = EvalEnv { db, params, trigger, cache: &cache, depth: 0 };
            let t = db.table(table)?;
            let cols = t.schema.column_names();
            let mut ids = Vec::new();
            let candidates = candidate_rows(db, t, table, where_clause, &env)?;
            for (rowid, row) in candidates {
                let scope = RowScope::single_ref(table, &cols, &row);
                let pass = match where_clause {
                    Some(w) => eval(w, &scope, &env)?.truthiness() == Some(true),
                    None => true,
                };
                if pass {
                    ids.push(rowid);
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

    if db.views.contains_key(&tkey) {
        let (view_cols, body, matches) = {
            let v = db.view(table)?;
            let trig = db
                .trigger_for(table, TriggerEvent::Delete)
                .ok_or_else(|| SqlError::ViewNotWritable(table.to_string()))?;
            let matched = view_rows_matching(db, table, where_clause, params, trigger)?;
            (v.columns.clone(), trig.body.clone(), matched)
        };
        let affected = matches.len();
        for old in matches {
            let ctx = TriggerCtx { columns: view_cols.clone(), new: None, old: Some(old) };
            for stmt in &body {
                exec_stmt(db, stmt, &[], Some(&ctx))?;
            }
        }
        return Ok(ExecOutcome { rows: None, rows_affected: affected, last_insert_id: None });
    }

    Err(SqlError::NoSuchTable(table.to_string()))
}
