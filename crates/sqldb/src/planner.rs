//! Query planner: UNION ALL view (subquery) flattening.
//!
//! The paper's COW views are defined as
//! `SELECT ... FROM primary WHERE pk NOT IN (SELECT pk FROM delta)
//!  UNION ALL SELECT ... FROM delta WHERE _whiteout = 0`
//! and footnote 5 explains that query performance hinges on SQLite's
//! *subquery flattening*: pushing the outer query's WHERE clause into both
//! arms of the UNION ALL so each arm can use the primary-key index. The
//! footnote also records a version quirk — SQLite 3.7.11 refused to flatten
//! when the outer query had an ORDER BY (unless it selected `*`), and
//! 3.8.6 required ORDER BY columns to be a subset of the selected columns,
//! which is why the paper's proxy "adds ORDER BY columns to query columns
//! when necessary".
//!
//! [`FlattenPolicy`] reproduces all of those behaviours so the ablation
//! bench can show the performance cliff the authors engineered around.

use crate::ast::{BinOp, Expr, OrderTerm, ResultColumn, SelectCore, SelectStmt};
use crate::db::{key, Database};
use crate::expr::OrdValue;
use crate::table::Table;
use crate::value::Value;
use std::fmt;
use std::ops::Bound;

/// When the planner may flatten an outer query over a UNION ALL view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlattenPolicy {
    /// Never flatten; views are always materialized. (Ablation baseline.)
    Off,
    /// SQLite 3.7.11 behaviour (Android 4.3.2's stock SQLite): refuse to
    /// flatten when the outer query has an ORDER BY, unless it selects `*`.
    Sqlite3711,
    /// SQLite 3.8.6 behaviour (the version the paper ported to Android):
    /// flatten with ORDER BY when every ORDER BY column is among the
    /// selected columns.
    #[default]
    Sqlite386,
    /// Flatten whenever structurally possible (ORDER BY resolved over the
    /// output by appending hidden sort keys is *not* implemented; terms
    /// must still be selected columns or positions).
    Always,
}

/// How the executor fetches candidate rows for one table access.
///
/// Chosen per table access from the conjunctive terms of the WHERE clause.
/// Every path yields a *superset-safe* candidate set: the full WHERE is
/// still re-evaluated per candidate, so a path only has to guarantee it
/// returns every row the predicate could accept. Because secondary indexes
/// are keyed by [`OrdValue`]'s total order — the same comparison the
/// evaluator uses — equality and range probes return exactly the rows the
/// corresponding conjunct accepts.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Visit every row of the table.
    FullScan,
    /// Primary-key (rowid) point lookups for these keys.
    RowidPoint(Vec<i64>),
    /// Equality probes of a secondary index, one per key (`=` or `IN`).
    IndexEq {
        /// Name of the probed index.
        index: String,
        /// Probe keys.
        keys: Vec<Value>,
    },
    /// A range probe of a secondary index (`<`, `<=`, `>`, `>=`, BETWEEN).
    IndexRange {
        /// Name of the probed index.
        index: String,
        /// Lower bound on the indexed value.
        lower: Bound<Value>,
        /// Upper bound on the indexed value.
        upper: Bound<Value>,
    },
}

impl fmt::Display for AccessPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessPath::FullScan => write!(f, "SCAN"),
            AccessPath::RowidPoint(ids) => write!(f, "PK POINT ({} keys)", ids.len()),
            AccessPath::IndexEq { index, keys } => {
                write!(f, "INDEX {index} EQ ({} keys)", keys.len())
            }
            AccessPath::IndexRange { index, .. } => write!(f, "INDEX {index} RANGE"),
        }
    }
}

/// A value-free access plan: the structural half of access-path choice.
///
/// [`plan_access`] decides *which* index or point lookup to use from the
/// WHERE clause's shape alone (column references, operators, which
/// operands are structurally constant), without evaluating anything — so
/// a plan computed once is reusable across executions with different
/// parameter bindings. [`bind_access_plan`] evaluates the captured
/// expressions against the current parameters to produce the concrete
/// [`AccessPath`] the executor probes with.
#[derive(Debug, Clone, PartialEq)]
pub struct AccessPlan {
    /// The structural choice.
    pub choice: PlanChoice,
    /// Every structurally-constant expression the planner inspected while
    /// choosing, in inspection order. Bind evaluates all of them — even
    /// ones the chosen path does not use — so evaluation errors (a
    /// missing parameter, say) surface exactly as they would had the
    /// plan been chosen with live values.
    pub const_checks: Vec<Expr>,
}

/// The structural access choice inside an [`AccessPlan`]. Bound bounds
/// and keys are kept as expressions and evaluated at bind time.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanChoice {
    /// Visit every row.
    FullScan,
    /// Primary-key point lookup, key from one `pk = expr` conjunct.
    RowidPointEq(Expr),
    /// Primary-key point lookups from a `pk IN (exprs)` conjunct.
    RowidPointIn(Vec<Expr>),
    /// Equality probes of a secondary index.
    IndexEq {
        /// Name of the probed index.
        index: String,
        /// Probe-key expressions (`=` gives one, `IN` several).
        keys: Vec<Expr>,
    },
    /// A range probe of a secondary index. Multiple conjuncts may bound
    /// the same column; the tightest bound is picked at bind time, when
    /// the values are known.
    IndexRange {
        /// Name of the probed index.
        index: String,
        /// Candidate lower bounds as `(expr, inclusive)`.
        lowers: Vec<(Expr, bool)>,
        /// Candidate upper bounds as `(expr, inclusive)`.
        uppers: Vec<(Expr, bool)>,
    },
}

/// Builds the value-free access plan for one single-table access.
///
/// `is_const` must return true only for expressions that are constant in
/// the statement's scope (literals, parameters, NEW/OLD references).
/// Preference order matches [`choose_access_path`]: rowid point lookup,
/// then index equality, then index range, then full scan.
pub fn plan_access(
    table: &Table,
    binding: &str,
    where_clause: Option<&Expr>,
    is_const: &dyn Fn(&Expr) -> bool,
) -> AccessPlan {
    let Some(w) = where_clause else {
        return AccessPlan { choice: PlanChoice::FullScan, const_checks: Vec::new() };
    };
    let pk = table.schema.pk_column;
    let mut checks: Vec<Expr> = Vec::new();
    let mut index_eq: Option<(String, Vec<Expr>)> = None;
    // Candidate range bounds per column: (column, lowers, uppers).
    type RangeAcc = (usize, Vec<(Expr, bool)>, Vec<(Expr, bool)>);
    let mut ranges: Vec<RangeAcc> = Vec::new();
    fn range_entry(ranges: &mut Vec<RangeAcc>, col: usize) -> &mut RangeAcc {
        if let Some(i) = ranges.iter().position(|(c, _, _)| *c == col) {
            &mut ranges[i]
        } else {
            ranges.push((col, Vec::new(), Vec::new()));
            ranges.last_mut().unwrap()
        }
    }

    for conj in w.conjuncts() {
        match conj {
            Expr::Binary(
                op @ (BinOp::Eq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq),
                l,
                r,
            ) => {
                // Normalize to (column op constant), flipping the operator
                // when the constant is on the left. Inspected constants go
                // into `checks` in the same order the one-stage chooser
                // would have evaluated them.
                let l_col = own_column(l, binding, table);
                let r_const = is_const(r);
                if r_const {
                    checks.push((**r).clone());
                }
                let (col, val, op) = if let (Some(c), true) = (l_col, r_const) {
                    (c, (**r).clone(), *op)
                } else {
                    let l_const = is_const(l);
                    if l_const {
                        checks.push((**l).clone());
                    }
                    if let (Some(c), true) = (own_column(r, binding, table), l_const) {
                        let flipped = match op {
                            BinOp::Lt => BinOp::Gt,
                            BinOp::LtEq => BinOp::GtEq,
                            BinOp::Gt => BinOp::Lt,
                            BinOp::GtEq => BinOp::LtEq,
                            other => *other,
                        };
                        (c, (**l).clone(), flipped)
                    } else {
                        continue;
                    }
                };
                match op {
                    BinOp::Eq => {
                        if Some(col) == pk {
                            return AccessPlan {
                                choice: PlanChoice::RowidPointEq(val),
                                const_checks: checks,
                            };
                        }
                        if index_eq.is_none() {
                            if let Some(ix) = table.index_on(col) {
                                index_eq = Some((ix.name().to_string(), vec![val]));
                            }
                        }
                    }
                    BinOp::Lt => range_entry(&mut ranges, col).2.push((val, false)),
                    BinOp::LtEq => range_entry(&mut ranges, col).2.push((val, true)),
                    BinOp::Gt => range_entry(&mut ranges, col).1.push((val, false)),
                    BinOp::GtEq => range_entry(&mut ranges, col).1.push((val, true)),
                    _ => {}
                }
            }
            Expr::InList { expr, list, negated: false } => {
                let Some(col) = own_column(expr, binding, table) else { continue };
                // Stop at the first non-constant item, mirroring the
                // one-stage chooser's short-circuiting `collect`.
                let mut items = Vec::with_capacity(list.len());
                let mut all_const = true;
                for item in list {
                    if !is_const(item) {
                        all_const = false;
                        break;
                    }
                    checks.push(item.clone());
                    items.push(item.clone());
                }
                if !all_const {
                    continue;
                }
                if Some(col) == pk {
                    return AccessPlan {
                        choice: PlanChoice::RowidPointIn(items),
                        const_checks: checks,
                    };
                }
                if index_eq.is_none() {
                    if let Some(ix) = table.index_on(col) {
                        index_eq = Some((ix.name().to_string(), items));
                    }
                }
            }
            Expr::Between { expr, low, high, negated: false } => {
                let Some(col) = own_column(expr, binding, table) else { continue };
                if is_const(low) {
                    checks.push((**low).clone());
                    range_entry(&mut ranges, col).1.push(((**low).clone(), true));
                }
                if is_const(high) {
                    checks.push((**high).clone());
                    range_entry(&mut ranges, col).2.push(((**high).clone(), true));
                }
            }
            _ => {}
        }
    }

    if let Some((index, keys)) = index_eq {
        return AccessPlan { choice: PlanChoice::IndexEq { index, keys }, const_checks: checks };
    }
    for (col, lowers, uppers) in ranges {
        if let Some(ix) = table.index_on(col) {
            return AccessPlan {
                choice: PlanChoice::IndexRange { index: ix.name().to_string(), lowers, uppers },
                const_checks: checks,
            };
        }
    }
    AccessPlan { choice: PlanChoice::FullScan, const_checks: checks }
}

/// Binds an [`AccessPlan`] against the current execution's constants,
/// producing the concrete [`AccessPath`] to probe with.
///
/// `eval_const` is the caller's constant evaluator; returning `None` for
/// an expression the plan captured means evaluation failed, which the
/// caller is expected to have recorded (the executor defers the error and
/// raises it after binding). The path produced alongside a deferred error
/// is never probed.
pub fn bind_access_plan(
    plan: &AccessPlan,
    eval_const: &dyn Fn(&Expr) -> Option<Value>,
) -> AccessPath {
    // Evaluate every inspected constant first so errors surface exactly
    // as in unplanned (one-stage) access-path choice.
    for e in &plan.const_checks {
        let _ = eval_const(e);
    }
    match &plan.choice {
        PlanChoice::FullScan => AccessPath::FullScan,
        PlanChoice::RowidPointEq(e) => {
            AccessPath::RowidPoint(match eval_const(e).and_then(|v| v.as_integer()) {
                Some(i) => vec![i],
                None => Vec::new(),
            })
        }
        PlanChoice::RowidPointIn(list) => AccessPath::RowidPoint(
            list.iter().filter_map(|e| eval_const(e).and_then(|v| v.as_integer())).collect(),
        ),
        PlanChoice::IndexEq { index, keys } => AccessPath::IndexEq {
            index: index.clone(),
            keys: keys.iter().map(|e| eval_const(e).unwrap_or(Value::Null)).collect(),
        },
        PlanChoice::IndexRange { index, lowers, uppers } => {
            let mut lower: Bound<Value> = Bound::Unbounded;
            let mut upper: Bound<Value> = Bound::Unbounded;
            for (e, inclusive) in lowers {
                if let Some(v) = eval_const(e) {
                    let b = if *inclusive { Bound::Included(v) } else { Bound::Excluded(v) };
                    if bound_tighter_lower(&lower, &b) {
                        lower = b;
                    }
                }
            }
            for (e, inclusive) in uppers {
                if let Some(v) = eval_const(e) {
                    let b = if *inclusive { Bound::Included(v) } else { Bound::Excluded(v) };
                    if bound_tighter_upper(&upper, &b) {
                        upper = b;
                    }
                }
            }
            AccessPath::IndexRange { index: index.clone(), lower, upper }
        }
    }
}

/// Picks the access path for one single-table access given its WHERE
/// clause.
///
/// `eval_const` must return `Some(value)` only for expressions that are
/// constant in this scope (literals, parameters, NEW/OLD references) and
/// evaluate cleanly. Preference order: rowid point lookup, then index
/// equality, then index range, then full scan.
///
/// This is the one-stage convenience form of [`plan_access`] +
/// [`bind_access_plan`]; the executor uses the two-stage form so plans
/// can be cached across executions.
pub fn choose_access_path(
    table: &Table,
    binding: &str,
    where_clause: Option<&Expr>,
    eval_const: &dyn Fn(&Expr) -> Option<Value>,
) -> AccessPath {
    let plan = plan_access(table, binding, where_clause, &|e| eval_const(e).is_some());
    bind_access_plan(&plan, eval_const)
}

/// Resolves `expr` as a reference to one of `table`'s own columns within
/// `binding`'s scope, returning its schema position.
fn own_column(expr: &Expr, binding: &str, table: &Table) -> Option<usize> {
    match expr {
        Expr::Column { table: qual, name } => {
            if let Some(q) = qual {
                if crate::expr::TriggerCtx::is_pseudo_table(q) || !q.eq_ignore_ascii_case(binding) {
                    return None;
                }
            }
            table.schema.column_index(name)
        }
        _ => None,
    }
}

/// True when `new` is a strictly tighter lower bound than `current`.
fn bound_tighter_lower(current: &Bound<Value>, new: &Bound<Value>) -> bool {
    match (current, new) {
        (_, Bound::Unbounded) => false,
        (Bound::Unbounded, _) => true,
        (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) => {
            match OrdValue(b.clone()).cmp(&OrdValue(a.clone())) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Equal => {
                    matches!(new, Bound::Excluded(_)) && matches!(current, Bound::Included(_))
                }
                std::cmp::Ordering::Less => false,
            }
        }
    }
}

/// True when `new` is a strictly tighter upper bound than `current`.
fn bound_tighter_upper(current: &Bound<Value>, new: &Bound<Value>) -> bool {
    match (current, new) {
        (_, Bound::Unbounded) => false,
        (Bound::Unbounded, _) => true,
        (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) => {
            match OrdValue(b.clone()).cmp(&OrdValue(a.clone())) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => {
                    matches!(new, Bound::Excluded(_)) && matches!(current, Bound::Included(_))
                }
                std::cmp::Ordering::Greater => false,
            }
        }
    }
}

/// Attempts to flatten `stmt` (an outer query over a single UNION ALL
/// view). Returns the rewritten statement, or `None` when the rewrite does
/// not apply under the database's policy.
pub fn try_flatten(db: &Database, stmt: &SelectStmt) -> Option<SelectStmt> {
    if db.flatten_policy == FlattenPolicy::Off {
        return None;
    }
    // Outer shape: single core over exactly one FROM source that is a view.
    if stmt.cores.len() != 1 {
        return None;
    }
    let core = &stmt.cores[0];
    if core.from.len() != 1 || core.distinct || !core.group_by.is_empty() {
        return None;
    }
    let view = db.catalog.views.get(&*key(&core.from[0].name))?;
    // The view must be a bare (possibly compound) select: no ORDER BY or
    // LIMIT of its own, no grouping or DISTINCT in any core.
    if !view.select.order_by.is_empty()
        || view.select.limit.is_some()
        || view
            .select
            .cores
            .iter()
            .any(|c| c.distinct || !c.group_by.is_empty() || c.having.is_some())
    {
        return None;
    }
    // Aggregates cannot be decomposed across UNION ALL arms.
    let outer_has_aggregate = core.columns.iter().any(|rc| match rc {
        ResultColumn::Expr { expr, .. } => expr.contains_aggregate(),
        _ => false,
    });
    if outer_has_aggregate && view.select.cores.len() > 1 {
        return None;
    }

    // Version-specific ORDER BY restrictions.
    let selects_star = core.columns.len() == 1 && matches!(core.columns[0], ResultColumn::Star);
    if !stmt.order_by.is_empty() {
        match db.flatten_policy {
            FlattenPolicy::Sqlite3711 => {
                if !selects_star {
                    return None;
                }
            }
            FlattenPolicy::Sqlite386 | FlattenPolicy::Always => {
                if !selects_star && !order_terms_in_selection(&stmt.order_by, &core.columns) {
                    return None;
                }
            }
            FlattenPolicy::Off => unreachable!("handled above"),
        }
    }

    // Build one flattened core per view core.
    let mut new_cores = Vec::with_capacity(view.select.cores.len());
    for vcore in &view.select.cores {
        // Mapping from view output name -> inner expression.
        let mapping = core_output_mapping(db, vcore, &view.columns)?;
        // Substitute the outer projection.
        let mut new_columns = Vec::new();
        for rc in &core.columns {
            match rc {
                ResultColumn::Star | ResultColumn::TableStar(_) => {
                    // Project the view's columns explicitly so output names
                    // stay the view's names.
                    for (name, inner) in view.columns.iter().zip(&mapping) {
                        new_columns.push(ResultColumn::Expr {
                            expr: inner.clone(),
                            alias: Some(name.clone()),
                        });
                    }
                }
                ResultColumn::Expr { expr, alias } => {
                    let substituted = substitute(expr, &view.columns, &mapping)?;
                    new_columns.push(ResultColumn::Expr {
                        expr: substituted,
                        alias: Some(crate::exec::output_name(expr, alias.as_deref())),
                    });
                }
            }
        }
        // Push the outer WHERE into the arm.
        let outer_where = match &core.where_clause {
            Some(w) => Some(substitute(w, &view.columns, &mapping)?),
            None => None,
        };
        let combined_where = match (vcore.where_clause.clone(), outer_where) {
            (Some(a), Some(b)) => {
                Some(Expr::Binary(crate::ast::BinOp::And, Box::new(a), Box::new(b)))
            }
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        };
        new_cores.push(SelectCore {
            distinct: false,
            columns: new_columns,
            from: vcore.from.clone(),
            where_clause: combined_where,
            group_by: Vec::new(),
            having: None,
        });
    }

    Some(SelectStmt {
        cores: new_cores,
        order_by: stmt.order_by.clone(),
        limit: stmt.limit.clone(),
        offset: stmt.offset.clone(),
    })
}

/// Checks that every ORDER BY term is a selected column (by name or
/// position) — SQLite 3.8.6's flattening precondition.
fn order_terms_in_selection(order_by: &[OrderTerm], columns: &[ResultColumn]) -> bool {
    let names: Vec<String> = columns
        .iter()
        .filter_map(|rc| match rc {
            ResultColumn::Expr { expr, alias } => {
                Some(crate::exec::output_name(expr, alias.as_deref()))
            }
            _ => None,
        })
        .collect();
    order_by.iter().all(|t| match &t.expr {
        Expr::Literal(Value::Integer(k)) => *k >= 1 && (*k as usize) <= columns.len(),
        Expr::Column { table: None, name } => names.iter().any(|n| n.eq_ignore_ascii_case(name)),
        _ => false,
    })
}

/// For one view core, builds the list of inner expressions aligned with
/// the view's output column names. Returns `None` for shapes we cannot
/// flatten (nested stars over views, arity mismatch).
fn core_output_mapping(
    db: &Database,
    vcore: &SelectCore,
    view_columns: &[String],
) -> Option<Vec<Expr>> {
    let mut exprs = Vec::new();
    for rc in &vcore.columns {
        match rc {
            ResultColumn::Expr { expr, .. } => exprs.push(expr.clone()),
            ResultColumn::Star => {
                // Expand * against the core's FROM relations.
                for tref in &vcore.from {
                    let cols = db.relation_columns(&tref.name).ok()?;
                    for c in cols {
                        exprs.push(Expr::Column { table: None, name: c });
                    }
                }
            }
            ResultColumn::TableStar(t) => {
                let tref = vcore.from.iter().find(|r| r.binding().eq_ignore_ascii_case(t))?;
                let cols = db.relation_columns(&tref.name).ok()?;
                for c in cols {
                    exprs.push(Expr::Column { table: None, name: c });
                }
            }
        }
    }
    if exprs.len() != view_columns.len() {
        return None;
    }
    // Substituting an aggregate into a WHERE clause would be invalid.
    if exprs.iter().any(Expr::contains_aggregate) {
        return None;
    }
    Some(exprs)
}

/// Rewrites `expr`, replacing references to view output columns with the
/// corresponding inner expressions. Fails (None) on references that cannot
/// be mapped.
fn substitute(expr: &Expr, view_columns: &[String], mapping: &[Expr]) -> Option<Expr> {
    Some(match expr {
        Expr::Column { table: _, name } => {
            match view_columns.iter().position(|c| c.eq_ignore_ascii_case(name)) {
                Some(i) => mapping[i].clone(),
                // NEW./OLD. references pass through untouched.
                None => match expr {
                    Expr::Column { table: Some(t), .. }
                        if crate::expr::TriggerCtx::is_pseudo_table(t) =>
                    {
                        expr.clone()
                    }
                    _ => return None,
                },
            }
        }
        Expr::Literal(_) | Expr::Param(_) => expr.clone(),
        Expr::Unary(op, e) => Expr::Unary(*op, Box::new(substitute(e, view_columns, mapping)?)),
        Expr::Binary(op, l, r) => Expr::Binary(
            *op,
            Box::new(substitute(l, view_columns, mapping)?),
            Box::new(substitute(r, view_columns, mapping)?),
        ),
        Expr::IsNull { expr: e, negated } => Expr::IsNull {
            expr: Box::new(substitute(e, view_columns, mapping)?),
            negated: *negated,
        },
        Expr::InList { expr: e, list, negated } => {
            let mut new_list = Vec::with_capacity(list.len());
            for item in list {
                new_list.push(substitute(item, view_columns, mapping)?);
            }
            Expr::InList {
                expr: Box::new(substitute(e, view_columns, mapping)?),
                list: new_list,
                negated: *negated,
            }
        }
        Expr::InSelect { expr: e, select, negated } => Expr::InSelect {
            expr: Box::new(substitute(e, view_columns, mapping)?),
            select: select.clone(),
            negated: *negated,
        },
        Expr::Like { expr: e, pattern, negated } => Expr::Like {
            expr: Box::new(substitute(e, view_columns, mapping)?),
            pattern: Box::new(substitute(pattern, view_columns, mapping)?),
            negated: *negated,
        },
        Expr::Between { expr: e, low, high, negated } => Expr::Between {
            expr: Box::new(substitute(e, view_columns, mapping)?),
            low: Box::new(substitute(low, view_columns, mapping)?),
            high: Box::new(substitute(high, view_columns, mapping)?),
            negated: *negated,
        },
        Expr::Call { name, args, star } => {
            let mut new_args = Vec::with_capacity(args.len());
            for a in args {
                new_args.push(substitute(a, view_columns, mapping)?);
            }
            Expr::Call { name: name.clone(), args: new_args, star: *star }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    /// Builds the paper's Figure 6 schema: primary, delta, COW view.
    fn figure6_db(policy: FlattenPolicy) -> Database {
        let mut db = Database::with_policy(policy);
        db.execute_batch(
            "CREATE TABLE tab1 (_id INTEGER PRIMARY KEY, data TEXT);
             CREATE TABLE tab1_delta_A (_id INTEGER PRIMARY KEY, data TEXT, _whiteout BOOLEAN);
             INSERT INTO tab1 VALUES (1,'a'),(2,'b'),(3,'c');
             INSERT INTO tab1_delta_A VALUES (2,'b',1),(3,'d',0),(10000001,'e',0);
             CREATE VIEW tab1_view_A AS
               SELECT _id,data FROM tab1 WHERE _id NOT IN (SELECT _id FROM tab1_delta_A)
               UNION ALL SELECT _id,data FROM tab1_delta_A WHERE _whiteout=0;",
        )
        .unwrap();
        db
    }

    #[test]
    fn figure6_view_contents() {
        let db = figure6_db(FlattenPolicy::Sqlite386);
        let rs = db.query("SELECT _id, data FROM tab1_view_A ORDER BY _id", &[]).unwrap();
        // Row 1 from primary, row 2 whited out, row 3 updated to 'd',
        // row 10000001 inserted by a delegate.
        assert_eq!(
            rs.rows,
            vec![
                vec![Value::Integer(1), Value::Text("a".into())],
                vec![Value::Integer(3), Value::Text("d".into())],
                vec![Value::Integer(10000001), Value::Text("e".into())],
            ]
        );
    }

    #[test]
    fn flattening_fires_and_uses_point_lookups() {
        let db = figure6_db(FlattenPolicy::Sqlite386);
        db.stats.reset();
        let rs =
            db.query("SELECT data FROM tab1_view_A WHERE _id = ?", &[Value::Integer(1)]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Text("a".into())]]);
        assert!(db.stats.flattened_queries.get() >= 1);
        assert!(db.stats.point_lookups.get() >= 1);
        // Without flattening the view arm over `tab1` would scan all rows.
        assert_eq!(db.stats.materialized_views.get(), 0);
    }

    #[test]
    fn off_policy_materializes() {
        let db = figure6_db(FlattenPolicy::Off);
        db.stats.reset();
        let rs =
            db.query("SELECT data FROM tab1_view_A WHERE _id = ?", &[Value::Integer(1)]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Text("a".into())]]);
        assert_eq!(db.stats.flattened_queries.get(), 0);
        assert!(db.stats.materialized_views.get() >= 1);
    }

    #[test]
    fn results_identical_across_policies() {
        for policy in [
            FlattenPolicy::Off,
            FlattenPolicy::Sqlite3711,
            FlattenPolicy::Sqlite386,
            FlattenPolicy::Always,
        ] {
            let db = figure6_db(policy);
            let rs = db.query("SELECT _id, data FROM tab1_view_A ORDER BY _id", &[]).unwrap();
            assert_eq!(rs.rows.len(), 3, "policy {policy:?}");
            let rs2 = db.query("SELECT data FROM tab1_view_A WHERE _id = 10000001", &[]).unwrap();
            assert_eq!(rs2.rows, vec![vec![Value::Text("e".into())]], "policy {policy:?}");
        }
    }

    #[test]
    fn sqlite3711_refuses_order_by_unless_star() {
        let db = figure6_db(FlattenPolicy::Sqlite3711);
        db.stats.reset();
        // Named columns + ORDER BY: 3.7.11 does not flatten.
        db.query("SELECT _id, data FROM tab1_view_A ORDER BY _id", &[]).unwrap();
        assert_eq!(db.stats.flattened_queries.get(), 0);
        // `SELECT *` + ORDER BY: flattens.
        db.stats.reset();
        db.query("SELECT * FROM tab1_view_A ORDER BY _id", &[]).unwrap();
        assert_eq!(db.stats.flattened_queries.get(), 1);
        // No ORDER BY: flattens.
        db.stats.reset();
        db.query("SELECT data FROM tab1_view_A WHERE _id = 1", &[]).unwrap();
        assert_eq!(db.stats.flattened_queries.get(), 1);
    }

    #[test]
    fn sqlite386_requires_order_cols_selected() {
        let db = figure6_db(FlattenPolicy::Sqlite386);
        // ORDER BY column not in selection: no flattening (the paper's
        // proxy works around this by adding the column to the selection).
        db.stats.reset();
        db.query("SELECT data FROM tab1_view_A ORDER BY _id", &[]).unwrap();
        assert_eq!(db.stats.flattened_queries.get(), 0);
        // The workaround: select the ORDER BY column too.
        db.stats.reset();
        db.query("SELECT data, _id FROM tab1_view_A ORDER BY _id", &[]).unwrap();
        assert_eq!(db.stats.flattened_queries.get(), 1);
    }

    #[test]
    fn aggregates_are_not_flattened_across_union() {
        let db = figure6_db(FlattenPolicy::Always);
        db.stats.reset();
        let rs = db.query("SELECT count(*) FROM tab1_view_A", &[]).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Integer(3)));
        assert_eq!(db.stats.flattened_queries.get(), 0);
    }

    #[test]
    fn access_path_selection_prefers_pk_then_index() {
        use crate::parser::parse_statement;
        use crate::Stmt;
        let mut db = Database::new();
        db.execute_batch(
            "CREATE TABLE t (_id INTEGER PRIMARY KEY, word TEXT, freq INTEGER);
             CREATE INDEX ix_word ON t(word);
             CREATE INDEX ix_freq ON t(freq);",
        )
        .unwrap();
        let table = db.table("t").unwrap();
        let eval = |e: &Expr| match e {
            Expr::Literal(v) => Some(v.clone()),
            _ => None,
        };
        let path_for = |sql: &str| {
            let Stmt::Select(s) = parse_statement(sql).unwrap() else { unreachable!() };
            let w = s.cores[0].where_clause.clone();
            choose_access_path(table, "t", w.as_ref(), &eval)
        };
        // pk equality wins even with an indexed term present.
        assert_eq!(
            path_for("SELECT * FROM t WHERE word = 'a' AND _id = 3"),
            AccessPath::RowidPoint(vec![3])
        );
        // Index equality, both operand orders.
        assert_eq!(
            path_for("SELECT * FROM t WHERE word = 'a'"),
            AccessPath::IndexEq { index: "ix_word".into(), keys: vec!["a".into()] }
        );
        assert_eq!(
            path_for("SELECT * FROM t WHERE 'a' = word"),
            AccessPath::IndexEq { index: "ix_word".into(), keys: vec!["a".into()] }
        );
        // IN list becomes multi-key equality.
        assert_eq!(
            path_for("SELECT * FROM t WHERE word IN ('a','b')"),
            AccessPath::IndexEq { index: "ix_word".into(), keys: vec!["a".into(), "b".into()] }
        );
        // Ranges combine conjuncts on the same column; flipped constants
        // flip the operator.
        assert_eq!(
            path_for("SELECT * FROM t WHERE freq > 5 AND 100 >= freq"),
            AccessPath::IndexRange {
                index: "ix_freq".into(),
                lower: Bound::Excluded(5.into()),
                upper: Bound::Included(100.into()),
            }
        );
        assert_eq!(
            path_for("SELECT * FROM t WHERE freq BETWEEN 2 AND 9"),
            AccessPath::IndexRange {
                index: "ix_freq".into(),
                lower: Bound::Included(2.into()),
                upper: Bound::Included(9.into()),
            }
        );
        // Equality beats range; unindexed or non-constant terms scan.
        assert!(matches!(
            path_for("SELECT * FROM t WHERE freq > 5 AND word = 'a'"),
            AccessPath::IndexEq { .. }
        ));
        assert_eq!(path_for("SELECT * FROM t WHERE freq = word"), AccessPath::FullScan);
        assert_eq!(path_for("SELECT * FROM t"), AccessPath::FullScan);
        // Negated IN cannot use the index.
        assert_eq!(path_for("SELECT * FROM t WHERE word NOT IN ('a')"), AccessPath::FullScan);
    }

    #[test]
    fn flattened_star_projection_keeps_names() {
        let db = figure6_db(FlattenPolicy::Sqlite386);
        let rs = db.query("SELECT * FROM tab1_view_A WHERE _id = 3", &[]).unwrap();
        assert_eq!(rs.columns, vec!["_id", "data"]);
        assert_eq!(rs.rows, vec![vec![Value::Integer(3), Value::Text("d".into())]]);
    }
}
