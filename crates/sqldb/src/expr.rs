//! Expression evaluation with SQL three-valued logic.

use crate::ast::{BinOp, Expr, SelectStmt, UnOp};
use crate::db::Database;
use crate::error::{SqlError, SqlResult};
use crate::value::Value;
use std::borrow::Cow;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::collections::HashMap;
use std::fmt;

/// Wrapper giving [`Value`] a total order so it can live in a `BTreeSet`
/// (used for IN-subquery membership sets).
#[derive(Debug, Clone, PartialEq)]
pub struct OrdValue(pub Value);

impl Eq for OrdValue {}

impl PartialOrd for OrdValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdValue {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// A materialized membership set for an IN-subquery.
#[derive(Debug, Clone, Default)]
pub struct MemberSet {
    /// Non-NULL members.
    pub values: BTreeSet<OrdValue>,
    /// True when the subquery produced at least one NULL.
    pub has_null: bool,
}

/// Cache of IN-subquery results, keyed by the subquery's AST address.
///
/// The COW view's `NOT IN (SELECT _id FROM delta)` predicate is evaluated
/// once per statement instead of once per candidate row, which matters for
/// the paper's query-1k-words benchmark. Entries are `Arc` so the
/// per-candidate-row lookup shares the set instead of cloning it.
pub type SubqueryCache = RefCell<HashMap<usize, std::sync::Arc<MemberSet>>>;

/// NEW/OLD row context inside an INSTEAD OF trigger body.
#[derive(Debug, Clone)]
pub struct TriggerCtx<'a> {
    /// Column names shared by NEW and OLD: the view's, borrowed, so firing
    /// a trigger once per row copies no names.
    pub columns: &'a [String],
    /// NEW row (INSERT and UPDATE).
    pub new: Option<Vec<Value>>,
    /// OLD row (UPDATE and DELETE).
    pub old: Option<Vec<Value>>,
}

impl TriggerCtx<'_> {
    fn lookup(&self, which: &str, name: &str) -> Option<&Value> {
        let row = match which {
            _ if which.eq_ignore_ascii_case("new") => self.new.as_ref()?,
            _ if which.eq_ignore_ascii_case("old") => self.old.as_ref()?,
            _ => return None,
        };
        let idx = self.columns.iter().position(|c| c.eq_ignore_ascii_case(name))?;
        Some(&row[idx])
    }

    /// Returns true when `which` names NEW or OLD.
    pub fn is_pseudo_table(which: &str) -> bool {
        which.eq_ignore_ascii_case("new") || which.eq_ignore_ascii_case("old")
    }
}

/// The row scope an expression is evaluated against: one or more bound
/// sources, each contributing named columns.
///
/// Binding names, column names and row values are held as [`Cow`]s so a
/// scan builds one scope per table access, borrowing the names from the
/// statement and the schema, and rebinds each candidate row straight out
/// of table storage ([`RowScope::set_row`]); only rows that survive the
/// WHERE filter are ever materialized.
#[derive(Debug, Clone, Default)]
pub struct RowScope<'a> {
    bindings: Vec<(Cow<'a, str>, Cow<'a, [String]>)>,
    values: Vec<Cow<'a, [Value]>>,
}

impl<'a> RowScope<'a> {
    /// Creates an empty scope (for constant expressions).
    pub fn empty() -> Self {
        RowScope::default()
    }

    /// Creates a scope with a single owned source.
    pub fn single(binding: &str, columns: Vec<String>, row: Vec<Value>) -> Self {
        let mut scope = RowScope::empty();
        scope.push(binding, columns, row);
        scope
    }

    /// Creates a scope with a single borrowed source (zero-copy scan path).
    pub fn single_ref(binding: &'a str, columns: &'a [String], row: &'a [Value]) -> RowScope<'a> {
        let mut scope = RowScope::empty();
        scope.push_ref(binding, columns, row);
        scope
    }

    /// Adds an owned source to the scope.
    pub fn push(&mut self, binding: &str, columns: Vec<String>, row: Vec<Value>) {
        self.bindings.push((Cow::Owned(binding.to_string()), Cow::Owned(columns)));
        self.values.push(Cow::Owned(row));
    }

    /// Adds a borrowed source to the scope (zero-copy scan path).
    pub fn push_ref(&mut self, binding: &'a str, columns: &'a [String], row: &'a [Value]) {
        self.bindings.push((Cow::Borrowed(binding), Cow::Borrowed(columns)));
        self.values.push(Cow::Borrowed(row));
    }

    /// Binds source `source` (in push order) to another row of its
    /// relation: a scan binds each candidate row this way instead of
    /// building a scope per row.
    pub fn set_row(&mut self, source: usize, row: &'a [Value]) {
        self.values[source] = Cow::Borrowed(row);
    }

    /// Resolves a (possibly qualified) column reference to the bound
    /// value.
    pub fn lookup(&self, table: Option<&str>, name: &str) -> SqlResult<&Value> {
        match table {
            Some(t) => {
                for (i, (binding, cols)) in self.bindings.iter().enumerate() {
                    if binding.eq_ignore_ascii_case(t) {
                        if let Some(ci) = cols.iter().position(|c| c.eq_ignore_ascii_case(name)) {
                            return Ok(&self.values[i][ci]);
                        }
                        return Err(SqlError::NoSuchColumn(format!("{t}.{name}")));
                    }
                }
                Err(SqlError::NoSuchColumn(format!("{t}.{name}")))
            }
            None => {
                let mut found: Option<&Value> = None;
                for (i, (_, cols)) in self.bindings.iter().enumerate() {
                    if let Some(ci) = cols.iter().position(|c| c.eq_ignore_ascii_case(name)) {
                        if found.is_some() {
                            return Err(SqlError::NoSuchColumn(format!(
                                "ambiguous column name: {name}"
                            )));
                        }
                        found = Some(&self.values[i][ci]);
                    }
                }
                found.ok_or_else(|| SqlError::NoSuchColumn(name.to_string()))
            }
        }
    }

    /// Resolves a (possibly qualified) column reference to a copy of the
    /// bound value.
    pub fn resolve(&self, table: Option<&str>, name: &str) -> SqlResult<Value> {
        self.lookup(table, name).cloned()
    }

    /// Returns all column values in binding order (for `*` expansion).
    pub fn all_values(&self) -> impl Iterator<Item = &Value> + '_ {
        self.values.iter().flat_map(|v| v.iter())
    }

    /// Number of values bound across all sources.
    pub fn width(&self) -> usize {
        self.values.iter().map(|v| v.len()).sum()
    }

    /// Returns all column names in binding order.
    pub fn all_columns(&self) -> Vec<String> {
        self.bindings.iter().flat_map(|(_, c)| c.iter().cloned()).collect()
    }

    /// Returns column names for one binding.
    pub fn binding_columns(&self, binding: &str) -> SqlResult<&[String]> {
        self.bindings
            .iter()
            .find(|(b, _)| b.eq_ignore_ascii_case(binding))
            .map(|(_, c)| &**c)
            .ok_or_else(|| SqlError::NoSuchTable(binding.to_string()))
    }

    /// Returns column values for one binding.
    pub fn binding_values(&self, binding: &str) -> SqlResult<&[Value]> {
        self.bindings
            .iter()
            .position(|(b, _)| b.eq_ignore_ascii_case(binding))
            .map(|i| &*self.values[i])
            .ok_or_else(|| SqlError::NoSuchTable(binding.to_string()))
    }
}

/// Everything an expression evaluation needs besides the row itself.
pub struct EvalEnv<'a> {
    /// The database, for IN-subqueries.
    pub db: &'a Database,
    /// Positional parameters (1-based).
    pub params: &'a [Value],
    /// Trigger NEW/OLD context, when inside a trigger body.
    pub trigger: Option<&'a TriggerCtx<'a>>,
    /// Per-statement subquery cache.
    pub cache: &'a SubqueryCache,
    /// View-expansion recursion depth.
    pub depth: usize,
}

/// Evaluates an expression against a row scope, borrowing a column
/// reference, parameter or literal instead of copying it. Comparisons,
/// `IN`, `BETWEEN`, `LIKE` and the logical operators read their operands
/// this way, so a predicate over a scanned row copies no value; owned
/// values are made only for output rows, SET values and trigger rows.
pub fn eval_ref<'v>(
    expr: &'v Expr,
    scope: &'v RowScope<'_>,
    env: &'v EvalEnv<'_>,
) -> SqlResult<Cow<'v, Value>> {
    match expr {
        Expr::Literal(v) => Ok(Cow::Borrowed(v)),
        Expr::Param(i) => env
            .params
            .get(i.checked_sub(1).ok_or(SqlError::MissingParam(0))?)
            .map(Cow::Borrowed)
            .ok_or(SqlError::MissingParam(*i)),
        Expr::Column { table, name } => {
            if let (Some(t), Some(trig)) = (table.as_deref(), env.trigger) {
                if TriggerCtx::is_pseudo_table(t) {
                    return trig
                        .lookup(t, name)
                        .map(Cow::Borrowed)
                        .ok_or_else(|| SqlError::NoSuchColumn(format!("{t}.{name}")));
                }
            }
            scope.lookup(table.as_deref(), name).map(Cow::Borrowed)
        }
        other => eval(other, scope, env).map(Cow::Owned),
    }
}

/// Evaluates an expression against a row scope.
pub fn eval(expr: &Expr, scope: &RowScope, env: &EvalEnv<'_>) -> SqlResult<Value> {
    match expr {
        Expr::Literal(_) | Expr::Param(_) | Expr::Column { .. } => {
            eval_ref(expr, scope, env).map(Cow::into_owned)
        }
        Expr::Unary(op, inner) => {
            let v = eval_ref(inner, scope, env)?;
            match op {
                UnOp::Neg => match &*v {
                    Value::Null => Ok(Value::Null),
                    // -i64::MIN does not fit: it becomes REAL, as in SQLite.
                    Value::Integer(i) => {
                        Ok(i.checked_neg().map_or(Value::Real(-(*i as f64)), Value::Integer))
                    }
                    Value::Real(r) => Ok(Value::Real(-r)),
                    other => other
                        .as_real()
                        .map(|r| Value::Real(-r))
                        .ok_or_else(|| SqlError::Type("cannot negate non-number".into())),
                },
                UnOp::Not => match v.truthiness() {
                    None => Ok(Value::Null),
                    Some(b) => Ok(Value::Integer(!b as i64)),
                },
            }
        }
        Expr::Binary(op, l, r) => eval_binary(*op, l, r, scope, env),
        Expr::IsNull { expr, negated } => {
            let v = eval_ref(expr, scope, env)?;
            Ok(Value::Integer((v.is_null() != *negated) as i64))
        }
        Expr::InList { expr, list, negated } => {
            let v = eval_ref(expr, scope, env)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let mut saw_null = false;
            for item in list {
                let iv = eval_ref(item, scope, env)?;
                match v.sql_eq(&iv) {
                    Some(true) => return Ok(Value::Integer(!*negated as i64)),
                    Some(false) => {}
                    None => saw_null = true,
                }
            }
            if saw_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Integer(*negated as i64))
            }
        }
        Expr::InSelect { expr, select, negated } => {
            let v = eval_ref(expr, scope, env)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            if let Some(contains) = probe_in_select(select, &v, env) {
                return Ok(Value::Integer((contains != *negated) as i64));
            }
            let set = member_set(select, env)?;
            if set.values.contains(&OrdValue(v.into_owned())) {
                Ok(Value::Integer(!*negated as i64))
            } else if set.has_null {
                Ok(Value::Null)
            } else {
                Ok(Value::Integer(*negated as i64))
            }
        }
        Expr::Like { expr, pattern, negated } => {
            let v = eval_ref(expr, scope, env)?;
            let p = eval_ref(pattern, scope, env)?;
            if v.is_null() || p.is_null() {
                return Ok(Value::Null);
            }
            let matched = like_match(&text(&p), &text(&v));
            Ok(Value::Integer((matched != *negated) as i64))
        }
        Expr::Between { expr, low, high, negated } => {
            let v = eval_ref(expr, scope, env)?;
            let lo = eval_ref(low, scope, env)?;
            let hi = eval_ref(high, scope, env)?;
            let ge = v.sql_cmp(&lo).map(|o| o != Ordering::Less);
            let le = v.sql_cmp(&hi).map(|o| o != Ordering::Greater);
            match (ge, le) {
                (Some(a), Some(b)) => Ok(Value::Integer(((a && b) != *negated) as i64)),
                _ => Ok(Value::Null),
            }
        }
        Expr::Call { name, args, star } => eval_scalar_fn(name, args, *star, scope, env),
    }
}

/// The text of a value: borrowed for TEXT, rendered for anything else.
fn text(v: &Value) -> Cow<'_, str> {
    match v {
        Value::Text(t) => Cow::Borrowed(t),
        other => Cow::Owned(other.to_string()),
    }
}

/// Answers `v IN (SELECT pk FROM t)` with a rowid point probe instead of
/// materializing the membership set. The COW views' correlated predicate
/// `_id NOT IN (SELECT _id FROM <delta>)` has exactly this shape, and the
/// naive evaluation re-scans the whole delta on every statement — O(delta)
/// per operation, which is what made delegate point queries and updates
/// grow with the number of copied-up rows. The probe applies only when the
/// subquery is a bare single-column projection of one table's INTEGER
/// PRIMARY KEY (no WHERE/GROUP/HAVING/ORDER/LIMIT): such a set can contain
/// neither NULLs nor duplicates, so membership reduces to one BTreeMap
/// lookup. Non-integer candidates fall back to the set path so SQL
/// affinity comparisons keep their ordinary semantics. Gated on the
/// statement caches: the cache-disabled mode keeps the naive evaluation,
/// which is what the cached-vs-uncached equivalence proptests compare
/// against.
fn probe_in_select(select: &SelectStmt, v: &Value, env: &EvalEnv<'_>) -> Option<bool> {
    if !env.db.statement_caches_enabled() {
        return None;
    }
    if select.cores.len() != 1
        || !select.order_by.is_empty()
        || select.limit.is_some()
        || select.offset.is_some()
    {
        return None;
    }
    let core = &select.cores[0];
    if core.where_clause.is_some() || !core.group_by.is_empty() || core.having.is_some() {
        return None;
    }
    if core.from.len() != 1 {
        return None;
    }
    let tref = &core.from[0];
    if env.trigger.is_some() && TriggerCtx::is_pseudo_table(&tref.name) {
        return None;
    }
    let [crate::ast::ResultColumn::Expr { expr: Expr::Column { table: qual, name }, .. }] =
        core.columns.as_slice()
    else {
        return None;
    };
    if let Some(q) = qual {
        let binding = tref.alias.as_deref().unwrap_or(&tref.name);
        if !q.eq_ignore_ascii_case(binding) {
            return None;
        }
    }
    let table = env.db.table(&tref.name).ok()?;
    let pk = table.schema.pk_column?;
    if !table.schema.columns[pk].name.eq_ignore_ascii_case(name) {
        return None;
    }
    let Value::Integer(rowid) = v else {
        return None;
    };
    env.db.stats.point_lookups.set(env.db.stats.point_lookups.get() + 1);
    // Existence only: the resident rowid map answers without faulting the
    // row payload in from a paged table.
    Some(table.contains_rowid(*rowid))
}

/// Computes (with caching) the membership set of an IN-subquery. The
/// returned `Arc` is shared with the cache: a hit is a refcount bump,
/// never a set clone.
fn member_set(select: &SelectStmt, env: &EvalEnv<'_>) -> SqlResult<std::sync::Arc<MemberSet>> {
    let key = select as *const SelectStmt as usize;
    if let Some(cached) = env.cache.borrow().get(&key) {
        return Ok(std::sync::Arc::clone(cached));
    }
    let rs = crate::exec::exec_select(
        env.db,
        select,
        None,
        env.params,
        env.trigger,
        env.cache,
        env.depth + 1,
    )?;
    let mut set = MemberSet::default();
    for row in rs.rows {
        let v = row.into_iter().next().unwrap_or(Value::Null);
        if v.is_null() {
            set.has_null = true;
        } else {
            set.values.insert(OrdValue(v));
        }
    }
    let set = std::sync::Arc::new(set);
    env.cache.borrow_mut().insert(key, std::sync::Arc::clone(&set));
    Ok(set)
}

fn eval_binary(
    op: BinOp,
    l: &Expr,
    r: &Expr,
    scope: &RowScope,
    env: &EvalEnv<'_>,
) -> SqlResult<Value> {
    // Short-circuiting logical operators with three-valued logic.
    match op {
        BinOp::And => {
            let lv = eval_ref(l, scope, env)?.truthiness();
            if lv == Some(false) {
                return Ok(Value::Integer(0));
            }
            let rv = eval_ref(r, scope, env)?.truthiness();
            return Ok(match (lv, rv) {
                (_, Some(false)) => Value::Integer(0),
                (Some(true), Some(true)) => Value::Integer(1),
                _ => Value::Null,
            });
        }
        BinOp::Or => {
            let lv = eval_ref(l, scope, env)?.truthiness();
            if lv == Some(true) {
                return Ok(Value::Integer(1));
            }
            let rv = eval_ref(r, scope, env)?.truthiness();
            return Ok(match (lv, rv) {
                (_, Some(true)) => Value::Integer(1),
                (Some(false), Some(false)) => Value::Integer(0),
                _ => Value::Null,
            });
        }
        _ => {}
    }
    let lv = eval_ref(l, scope, env)?;
    let rv = eval_ref(r, scope, env)?;
    match op {
        BinOp::Eq => Ok(bool3(lv.sql_eq(&rv))),
        BinOp::NotEq => Ok(bool3(lv.sql_eq(&rv).map(|b| !b))),
        BinOp::Lt => Ok(bool3(lv.sql_cmp(&rv).map(|o| o == Ordering::Less))),
        BinOp::LtEq => Ok(bool3(lv.sql_cmp(&rv).map(|o| o != Ordering::Greater))),
        BinOp::Gt => Ok(bool3(lv.sql_cmp(&rv).map(|o| o == Ordering::Greater))),
        BinOp::GtEq => Ok(bool3(lv.sql_cmp(&rv).map(|o| o != Ordering::Less))),
        BinOp::Concat => {
            if lv.is_null() || rv.is_null() {
                Ok(Value::Null)
            } else {
                Ok(Value::Text(format!("{lv}{rv}")))
            }
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem => arith(op, &lv, &rv),
        BinOp::And | BinOp::Or => unreachable!("handled above"),
    }
}

fn bool3(b: Option<bool>) -> Value {
    match b {
        None => Value::Null,
        Some(v) => Value::Integer(v as i64),
    }
}

fn arith(op: BinOp, l: &Value, r: &Value) -> SqlResult<Value> {
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    // Integer arithmetic when both sides are integers (except division by
    // zero, which yields NULL like SQLite). A result that overflows i64
    // falls through to REAL arithmetic, as in SQLite.
    if let (Value::Integer(a), Value::Integer(b)) = (l, r) {
        let exact = match op {
            BinOp::Add => a.checked_add(*b),
            BinOp::Sub => a.checked_sub(*b),
            BinOp::Mul => a.checked_mul(*b),
            BinOp::Div | BinOp::Rem if *b == 0 => return Ok(Value::Null),
            BinOp::Div => a.checked_div(*b),
            // i64::MIN % -1 is 0, as in SQLite.
            BinOp::Rem => Some(a.wrapping_rem(*b)),
            _ => unreachable!("arith called with non-arithmetic op"),
        };
        if let Some(v) = exact {
            return Ok(Value::Integer(v));
        }
    }
    let (a, b) = match (l.as_real(), r.as_real()) {
        (Some(a), Some(b)) => (a, b),
        _ => return Ok(Value::Null),
    };
    Ok(match op {
        BinOp::Add => Value::Real(a + b),
        BinOp::Sub => Value::Real(a - b),
        BinOp::Mul => Value::Real(a * b),
        BinOp::Div => {
            if b == 0.0 {
                Value::Null
            } else {
                Value::Real(a / b)
            }
        }
        BinOp::Rem => {
            if b == 0.0 {
                Value::Null
            } else {
                Value::Real(a % b)
            }
        }
        _ => unreachable!("arith called with non-arithmetic op"),
    })
}

/// Evaluates a scalar (non-aggregate) function.
fn eval_scalar_fn(
    name: &str,
    args: &[Expr],
    star: bool,
    scope: &RowScope,
    env: &EvalEnv<'_>,
) -> SqlResult<Value> {
    if star
        || matches!(name, "count" | "max" | "min" | "sum" | "avg" | "total")
            && is_aggregate_position(name, args)
    {
        // Aggregates outside aggregate context: max/min with 2+ args are
        // the scalar forms; count/sum/avg never are.
        if (name == "max" || name == "min") && args.len() >= 2 {
            // Fall through to scalar max/min below.
        } else {
            return Err(SqlError::Type(format!(
                "aggregate function {name}() used outside aggregate query"
            )));
        }
    }
    let mut vals: Vec<Cow<'_, Value>> = Vec::with_capacity(args.len());
    for a in args {
        vals.push(eval_ref(a, scope, env)?);
    }
    let first = vals.first().map(|v| &**v);
    match name {
        "length" => Ok(match first {
            Some(Value::Null) | None => Value::Null,
            Some(Value::Text(t)) => Value::Integer(t.chars().count() as i64),
            Some(Value::Blob(b)) => Value::Integer(b.len() as i64),
            Some(other) => Value::Integer(other.to_string().chars().count() as i64),
        }),
        "lower" => Ok(str_fn(first, |s| s.to_lowercase())),
        "upper" => Ok(str_fn(first, |s| s.to_uppercase())),
        "trim" => Ok(str_fn(first, |s| s.trim().to_string())),
        "abs" => Ok(match first {
            Some(Value::Integer(i)) => Value::Integer(
                i.checked_abs().ok_or_else(|| SqlError::Type("integer overflow".into()))?,
            ),
            Some(Value::Real(r)) => Value::Real(r.abs()),
            _ => Value::Null,
        }),
        "coalesce" | "ifnull" => {
            Ok(vals.into_iter().find(|v| !v.is_null()).map_or(Value::Null, Cow::into_owned))
        }
        "nullif" => {
            if vals.len() == 2 && vals[0].sql_eq(&vals[1]) == Some(true) {
                Ok(Value::Null)
            } else {
                Ok(vals.into_iter().next().map_or(Value::Null, Cow::into_owned))
            }
        }
        "max" => Ok(vals
            .into_iter()
            .filter(|v| !v.is_null())
            .max_by(|a, b| a.total_cmp(b))
            .map_or(Value::Null, Cow::into_owned)),
        "min" => Ok(vals
            .into_iter()
            .filter(|v| !v.is_null())
            .min_by(|a, b| a.total_cmp(b))
            .map_or(Value::Null, Cow::into_owned)),
        "typeof" => Ok(Value::Text(
            match first {
                Some(Value::Null) | None => "null",
                Some(Value::Integer(_)) => "integer",
                Some(Value::Real(_)) => "real",
                Some(Value::Text(_)) => "text",
                Some(Value::Blob(_)) => "blob",
            }
            .to_string(),
        )),
        "substr" | "substring" => {
            let text = match first {
                Some(Value::Null) | None => return Ok(Value::Null),
                Some(v) => text(v),
            };
            let start = vals.get(1).and_then(|v| v.as_integer()).unwrap_or(1);
            let chars: Vec<char> = text.chars().collect();
            let len = vals.get(2).and_then(|v| v.as_integer()).unwrap_or(chars.len() as i64);
            let begin = if start > 0 {
                (start - 1) as usize
            } else {
                chars.len().saturating_sub(start.unsigned_abs() as usize)
            };
            let out: String = chars.iter().skip(begin).take(len.max(0) as usize).collect();
            Ok(Value::Text(out))
        }
        other => Err(SqlError::Unsupported(format!("function {other}()"))),
    }
}

/// True when this call must be treated as an aggregate (single-argument
/// max/min, or count/sum/avg/total in any form).
fn is_aggregate_position(name: &str, args: &[Expr]) -> bool {
    match name {
        "max" | "min" => args.len() == 1,
        "count" | "sum" | "avg" | "total" => true,
        _ => false,
    }
}

fn str_fn(v: Option<&Value>, f: impl Fn(&str) -> String) -> Value {
    match v {
        Some(Value::Null) | None => Value::Null,
        Some(other) => Value::Text(f(&text(other))),
    }
}

/// SQL LIKE matching: `%` matches any run, `_` matches one character;
/// matching is case-insensitive for ASCII, like SQLite's default.
pub fn like_match(pattern: &str, text: &str) -> bool {
    fn rec(p: &[char], t: &[char]) -> bool {
        match p.first() {
            None => t.is_empty(),
            Some('%') => (0..=t.len()).any(|k| rec(&p[1..], &t[k..])),
            Some('_') => !t.is_empty() && rec(&p[1..], &t[1..]),
            Some(c) => !t.is_empty() && t[0].eq_ignore_ascii_case(c) && rec(&p[1..], &t[1..]),
        }
    }
    let p: Vec<char> = pattern.chars().collect();
    let t: Vec<char> = text.chars().collect();
    rec(&p, &t)
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Literal(v) => f.write_str(&v.to_sql_literal()),
            Expr::Column { table: Some(t), name } => write!(f, "{t}.{name}"),
            Expr::Column { table: None, name } => f.write_str(name),
            Expr::Param(i) => write!(f, "?{i}"),
            Expr::Unary(UnOp::Neg, e) => write!(f, "-{e}"),
            Expr::Unary(UnOp::Not, e) => write!(f, "NOT {e}"),
            Expr::Binary(op, l, r) => {
                let sym = match op {
                    BinOp::And => "AND",
                    BinOp::Or => "OR",
                    BinOp::Eq => "=",
                    BinOp::NotEq => "!=",
                    BinOp::Lt => "<",
                    BinOp::LtEq => "<=",
                    BinOp::Gt => ">",
                    BinOp::GtEq => ">=",
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Rem => "%",
                    BinOp::Concat => "||",
                };
                write!(f, "{l} {sym} {r}")
            }
            Expr::IsNull { expr, negated } => {
                write!(f, "{expr} IS {}NULL", if *negated { "NOT " } else { "" })
            }
            Expr::InList { expr, list, negated } => {
                let items: Vec<String> = list.iter().map(|e| e.to_string()).collect();
                write!(f, "{expr} {}IN ({})", if *negated { "NOT " } else { "" }, items.join(","))
            }
            Expr::InSelect { expr, negated, .. } => {
                write!(f, "{expr} {}IN (SELECT ...)", if *negated { "NOT " } else { "" })
            }
            Expr::Like { expr, pattern, negated } => {
                write!(f, "{expr} {}LIKE {pattern}", if *negated { "NOT " } else { "" })
            }
            Expr::Between { expr, low, high, negated } => {
                write!(f, "{expr} {}BETWEEN {low} AND {high}", if *negated { "NOT " } else { "" })
            }
            Expr::Call { name, args, star } => {
                if *star {
                    write!(f, "{name}(*)")
                } else {
                    let items: Vec<String> = args.iter().map(|e| e.to_string()).collect();
                    write!(f, "{name}({})", items.join(","))
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn like_wildcards() {
        assert!(like_match("a%", "abc"));
        assert!(like_match("%c", "abc"));
        assert!(like_match("a_c", "abc"));
        assert!(!like_match("a_c", "abxc"));
        assert!(like_match("%b%", "abc"));
        assert!(like_match("ABC", "abc"));
        assert!(like_match("", ""));
        assert!(!like_match("", "x"));
        assert!(like_match("%", ""));
    }

    #[test]
    fn scope_resolution() {
        let mut scope = RowScope::single(
            "t",
            vec!["a".into(), "b".into()],
            vec![Value::Integer(1), Value::Integer(2)],
        );
        scope.push("u", vec!["b".into()], vec![Value::Integer(3)]);
        assert_eq!(scope.resolve(None, "a").unwrap(), Value::Integer(1));
        assert_eq!(scope.resolve(Some("u"), "b").unwrap(), Value::Integer(3));
        // Unqualified `b` is ambiguous.
        assert!(scope.resolve(None, "b").is_err());
        assert!(scope.resolve(None, "zzz").is_err());
        assert_eq!(scope.all_columns(), vec!["a", "b", "b"]);
    }

    #[test]
    fn trigger_ctx_lookup() {
        let columns = ["_id".to_string(), "data".to_string()];
        let ctx = TriggerCtx {
            columns: &columns,
            new: Some(vec![Value::Integer(2), "b".into()]),
            old: None,
        };
        assert_eq!(ctx.lookup("NEW", "data"), Some(&Value::Text("b".into())));
        assert_eq!(ctx.lookup("OLD", "data"), None);
        assert_eq!(ctx.lookup("new", "_ID"), Some(&Value::Integer(2)));
    }

    #[test]
    fn expr_display_roundtrippable() {
        use crate::parser::parse_statement;
        let stmt = parse_statement("SELECT a + 1 * 2 FROM t WHERE b NOT IN (1,2)").unwrap();
        if let crate::ast::Stmt::Select(s) = stmt {
            let w = s.cores[0].where_clause.as_ref().unwrap();
            assert_eq!(w.to_string(), "b NOT IN (1,2)");
        } else {
            panic!("expected select");
        }
    }

    fn select_one(sql: &str) -> SqlResult<Value> {
        Ok(crate::Database::new().query(sql, &[])?.rows[0][0].clone())
    }

    #[test]
    fn negating_i64_min_is_real() {
        let v = select_one("SELECT -(-9223372036854775807 - 1)").unwrap();
        assert_eq!(v, Value::Real(9223372036854775808.0));
        assert_eq!(select_one("SELECT -(-5)").unwrap(), Value::Integer(5));
    }

    #[test]
    fn add_overflow_is_real() {
        let v = select_one("SELECT 9223372036854775807 + 1").unwrap();
        assert_eq!(v, Value::Real(9223372036854775808.0));
    }

    #[test]
    fn sub_overflow_is_real() {
        let v = select_one("SELECT -9223372036854775807 - 2").unwrap();
        assert_eq!(v, Value::Real(-9223372036854775809.0));
    }

    #[test]
    fn mul_overflow_is_real() {
        let v = select_one("SELECT 4611686018427387904 * 2").unwrap();
        assert_eq!(v, Value::Real(9223372036854775808.0));
        assert_eq!(
            select_one("SELECT 4611686018427387903 * 2").unwrap(),
            Value::Integer(i64::MAX - 1)
        );
    }

    #[test]
    fn div_overflow_is_real() {
        let v = select_one("SELECT (-9223372036854775807 - 1) / -1").unwrap();
        assert_eq!(v, Value::Real(9223372036854775808.0));
        assert_eq!(select_one("SELECT 7 / 2").unwrap(), Value::Integer(3));
    }

    #[test]
    fn abs_of_i64_min_is_an_error() {
        assert!(matches!(
            select_one("SELECT abs(-9223372036854775807 - 1)"),
            Err(SqlError::Type(_))
        ));
        assert_eq!(
            select_one("SELECT abs(-9223372036854775807)").unwrap(),
            Value::Integer(i64::MAX)
        );
    }

    #[test]
    fn ord_value_total_order() {
        let mut set = BTreeSet::new();
        set.insert(OrdValue(Value::Integer(2)));
        set.insert(OrdValue(Value::Text("a".into())));
        set.insert(OrdValue(Value::Null));
        assert!(set.contains(&OrdValue(Value::Integer(2))));
        assert!(!set.contains(&OrdValue(Value::Integer(3))));
        assert_eq!(set.len(), 3);
    }
}
