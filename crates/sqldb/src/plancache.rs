//! Hot-path plan caching: structural fingerprints plus a generation-
//! checked cache for flatten results and value-free access plans.
//!
//! The COW proxy executes the same statement *shapes* over and over
//! (paper §5.2: every delegate read goes through a COW view). Parsing is
//! already memoized by the statement cache; this module memoizes the two
//! remaining per-execution planner walks:
//!
//! - [`try_flatten`]'s UNION ALL view rewrite, keyed by a structural
//!   fingerprint of the `SELECT` (so internally-built statements — the
//!   INSTEAD OF trigger path builds them without SQL text — hit too);
//! - the per-table-access [`AccessPlan`], keyed by `(table, binding,
//!   WHERE-clause fingerprint)`.
//!
//! Entries carry the catalog generation they were computed under; any DDL
//! (index or table churn, view/trigger churn from COW setup, rollback of a
//! catalog snapshot) bumps the generation and drops the cache, so a stale
//! plan can never be served. Fingerprint collisions are handled by storing
//! the key statement and comparing structurally on hit — a colliding
//! entry is simply replaced, never served.
//!
//! [`try_flatten`]: crate::planner::try_flatten
//! [`AccessPlan`]: crate::planner::AccessPlan

use crate::ast::{Expr, OrderTerm, ResultColumn, SelectCore, SelectStmt};
use crate::planner::{AccessPlan, FlattenPolicy};
use crate::value::Value;
use std::cell::{Cell, RefCell};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Cache-size bound; reaching it clears the map (same policy as the
/// statement cache — workloads that legitimately need more distinct
/// shapes re-warm in one pass).
pub(crate) const PLAN_CACHE_CAP: usize = 512;

/// A cached flatten decision for one SELECT shape.
struct SelectEntry {
    generation: u64,
    policy: FlattenPolicy,
    /// The statement the entry was computed from, for collision checks.
    key: SelectStmt,
    /// `try_flatten`'s answer: the rewritten statement, or `None` when
    /// the rewrite does not apply (also worth caching — the walk that
    /// refuses is the same walk that succeeds).
    flattened: Option<Arc<SelectStmt>>,
}

/// A cached value-free access plan for one `(table, binding, WHERE)`.
struct AccessEntry {
    generation: u64,
    table: String,
    binding: String,
    key: Expr,
    plan: Arc<AccessPlan>,
}

/// Plan cache plus the catalog generation counter that invalidates it.
///
/// Lives inside [`Database`](crate::Database) behind interior mutability
/// so cache fills can happen on the `&self` query path.
#[derive(Default)]
pub(crate) struct PlanCache {
    /// Disabled caches make every lookup a computed miss (used by the
    /// equivalence proptests and the before/after bench cells).
    disabled: Cell<bool>,
    generation: Cell<u64>,
    selects: RefCell<HashMap<u64, SelectEntry>>,
    accesses: RefCell<HashMap<u64, AccessEntry>>,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("generation", &self.generation.get())
            .field("disabled", &self.disabled.get())
            .field("selects", &self.selects.borrow().len())
            .field("accesses", &self.accesses.borrow().len())
            .finish()
    }
}

/// Outcome of a select-cache probe.
pub(crate) enum SelectLookup {
    /// Cache hit: the memoized flatten answer.
    Hit(Option<Arc<SelectStmt>>),
    /// Miss; caller computes and [`PlanCache::insert_select`]s.
    Miss,
    /// Caching disabled; caller computes and does not insert.
    Bypass,
}

impl PlanCache {
    /// True while caching is enabled.
    pub(crate) fn enabled(&self) -> bool {
        !self.disabled.get()
    }

    /// Enables or disables caching. Disabling drops all entries so a
    /// later re-enable cannot serve pre-toggle plans.
    pub(crate) fn set_enabled(&self, on: bool) {
        self.disabled.set(!on);
        if !on {
            self.selects.borrow_mut().clear();
            self.accesses.borrow_mut().clear();
        }
    }

    /// Entries held in the flatten and access-plan maps.
    #[cfg(test)]
    pub(crate) fn sizes(&self) -> (usize, usize) {
        (self.selects.borrow().len(), self.accesses.borrow().len())
    }

    /// Current catalog generation.
    pub(crate) fn generation(&self) -> u64 {
        self.generation.get()
    }

    /// Bumps the catalog generation and drops every cached plan.
    /// Returns true when live entries were actually invalidated (the
    /// caller counts those into `db.stats`).
    pub(crate) fn bump_generation(&self) -> bool {
        self.generation.set(self.generation.get().wrapping_add(1));
        let had_entries = !self.selects.borrow().is_empty() || !self.accesses.borrow().is_empty();
        if had_entries {
            self.selects.borrow_mut().clear();
            self.accesses.borrow_mut().clear();
        }
        had_entries
    }

    /// Probes the flatten cache for `stmt` under `policy`.
    pub(crate) fn lookup_select(&self, stmt: &SelectStmt, policy: FlattenPolicy) -> SelectLookup {
        if self.disabled.get() {
            return SelectLookup::Bypass;
        }
        let fp = fingerprint_select(stmt);
        if let Some(e) = self.selects.borrow().get(&fp) {
            if e.generation == self.generation.get() && e.policy == policy && e.key == *stmt {
                return SelectLookup::Hit(e.flattened.clone());
            }
        }
        SelectLookup::Miss
    }

    /// Records a flatten answer computed after a miss.
    pub(crate) fn insert_select(
        &self,
        stmt: &SelectStmt,
        policy: FlattenPolicy,
        flattened: Option<Arc<SelectStmt>>,
    ) {
        if self.disabled.get() {
            return;
        }
        let mut map = self.selects.borrow_mut();
        if map.len() >= PLAN_CACHE_CAP {
            map.clear();
        }
        map.insert(
            fingerprint_select(stmt),
            SelectEntry { generation: self.generation.get(), policy, key: stmt.clone(), flattened },
        );
    }

    /// Probes the access-plan cache for one `(table, binding, WHERE)`.
    pub(crate) fn lookup_access(
        &self,
        table: &str,
        binding: &str,
        where_clause: &Expr,
    ) -> Option<Arc<AccessPlan>> {
        if self.disabled.get() {
            return None;
        }
        let fp = fingerprint_access(table, binding, where_clause);
        let map = self.accesses.borrow();
        let e = map.get(&fp)?;
        if e.generation == self.generation.get()
            && e.table == table
            && e.binding == binding
            && e.key == *where_clause
        {
            return Some(e.plan.clone());
        }
        None
    }

    /// Records an access plan computed after a miss.
    pub(crate) fn insert_access(
        &self,
        table: &str,
        binding: &str,
        where_clause: &Expr,
        plan: Arc<AccessPlan>,
    ) {
        if self.disabled.get() {
            return;
        }
        let mut map = self.accesses.borrow_mut();
        if map.len() >= PLAN_CACHE_CAP {
            map.clear();
        }
        map.insert(
            fingerprint_access(table, binding, where_clause),
            AccessEntry {
                generation: self.generation.get(),
                table: table.to_string(),
                binding: binding.to_string(),
                key: where_clause.clone(),
                plan,
            },
        );
    }
}

fn fingerprint_access(table: &str, binding: &str, where_clause: &Expr) -> u64 {
    let mut h = DefaultHasher::new();
    table.hash(&mut h);
    binding.hash(&mut h);
    hash_expr(&mut h, where_clause);
    h.finish()
}

/// Structural fingerprint of a SELECT. Two statements that compare equal
/// hash equal; collisions are tolerated (the cache re-checks equality).
pub(crate) fn fingerprint_select(stmt: &SelectStmt) -> u64 {
    let mut h = DefaultHasher::new();
    hash_select(&mut h, stmt);
    h.finish()
}

fn hash_select(h: &mut DefaultHasher, stmt: &SelectStmt) {
    stmt.cores.len().hash(h);
    for core in &stmt.cores {
        hash_core(h, core);
    }
    stmt.order_by.len().hash(h);
    for term in &stmt.order_by {
        hash_order(h, term);
    }
    hash_opt_expr(h, stmt.limit.as_ref());
    hash_opt_expr(h, stmt.offset.as_ref());
}

fn hash_core(h: &mut DefaultHasher, core: &SelectCore) {
    core.distinct.hash(h);
    core.columns.len().hash(h);
    for rc in &core.columns {
        match rc {
            ResultColumn::Star => 0u8.hash(h),
            ResultColumn::TableStar(t) => {
                1u8.hash(h);
                t.hash(h);
            }
            ResultColumn::Expr { expr, alias } => {
                2u8.hash(h);
                hash_expr(h, expr);
                alias.hash(h);
            }
        }
    }
    core.from.len().hash(h);
    for tref in &core.from {
        tref.name.hash(h);
        tref.alias.hash(h);
    }
    hash_opt_expr(h, core.where_clause.as_ref());
    core.group_by.len().hash(h);
    for e in &core.group_by {
        hash_expr(h, e);
    }
    hash_opt_expr(h, core.having.as_ref());
}

fn hash_order(h: &mut DefaultHasher, term: &OrderTerm) {
    hash_expr(h, &term.expr);
    term.ascending.hash(h);
}

fn hash_opt_expr(h: &mut DefaultHasher, e: Option<&Expr>) {
    match e {
        Some(e) => {
            1u8.hash(h);
            hash_expr(h, e);
        }
        None => 0u8.hash(h),
    }
}

fn hash_expr(h: &mut DefaultHasher, e: &Expr) {
    match e {
        Expr::Literal(v) => {
            0u8.hash(h);
            hash_value(h, v);
        }
        Expr::Column { table, name } => {
            1u8.hash(h);
            table.hash(h);
            name.hash(h);
        }
        Expr::Param(n) => {
            2u8.hash(h);
            n.hash(h);
        }
        Expr::Unary(op, inner) => {
            3u8.hash(h);
            std::mem::discriminant(op).hash(h);
            hash_expr(h, inner);
        }
        Expr::Binary(op, l, r) => {
            4u8.hash(h);
            std::mem::discriminant(op).hash(h);
            hash_expr(h, l);
            hash_expr(h, r);
        }
        Expr::IsNull { expr, negated } => {
            5u8.hash(h);
            negated.hash(h);
            hash_expr(h, expr);
        }
        Expr::InList { expr, list, negated } => {
            6u8.hash(h);
            negated.hash(h);
            hash_expr(h, expr);
            list.len().hash(h);
            for item in list {
                hash_expr(h, item);
            }
        }
        Expr::InSelect { expr, select, negated } => {
            7u8.hash(h);
            negated.hash(h);
            hash_expr(h, expr);
            hash_select(h, select);
        }
        Expr::Like { expr, pattern, negated } => {
            8u8.hash(h);
            negated.hash(h);
            hash_expr(h, expr);
            hash_expr(h, pattern);
        }
        Expr::Between { expr, low, high, negated } => {
            9u8.hash(h);
            negated.hash(h);
            hash_expr(h, expr);
            hash_expr(h, low);
            hash_expr(h, high);
        }
        Expr::Call { name, args, star } => {
            10u8.hash(h);
            name.hash(h);
            star.hash(h);
            args.len().hash(h);
            for a in args {
                hash_expr(h, a);
            }
        }
    }
}

fn hash_value(h: &mut DefaultHasher, v: &Value) {
    match v {
        Value::Null => 0u8.hash(h),
        Value::Integer(i) => {
            1u8.hash(h);
            i.hash(h);
        }
        Value::Real(r) => {
            2u8.hash(h);
            r.to_bits().hash(h);
        }
        Value::Text(s) => {
            3u8.hash(h);
            s.hash(h);
        }
        Value::Blob(b) => {
            4u8.hash(h);
            b.hash(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use crate::Stmt;

    fn select(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Stmt::Select(s) => s,
            _ => unreachable!(),
        }
    }

    #[test]
    fn equal_statements_fingerprint_equal() {
        let a = select("SELECT a, b FROM t WHERE a = ?1 ORDER BY b LIMIT 3");
        let b = select("SELECT a, b FROM t WHERE a = ?1 ORDER BY b LIMIT 3");
        assert_eq!(a, b);
        assert_eq!(fingerprint_select(&a), fingerprint_select(&b));
    }

    #[test]
    fn different_statements_fingerprint_differently() {
        let base = select("SELECT a FROM t WHERE a = 1");
        for other in [
            "SELECT a FROM t WHERE a = 2",
            "SELECT a FROM t WHERE a = 1.0",
            "SELECT a FROM t WHERE a = '1'",
            "SELECT a FROM t WHERE b = 1",
            "SELECT a FROM u WHERE a = 1",
            "SELECT a FROM t WHERE a = ?1",
            "SELECT a, b FROM t WHERE a = 1",
            "SELECT a FROM t WHERE a = 1 ORDER BY a",
            "SELECT a FROM t WHERE a = 1 LIMIT 1",
            "SELECT DISTINCT a FROM t WHERE a = 1",
        ] {
            assert_ne!(
                fingerprint_select(&base),
                fingerprint_select(&select(other)),
                "collision with {other}"
            );
        }
    }

    #[test]
    fn generation_bump_invalidates() {
        let cache = PlanCache::default();
        let s = select("SELECT a FROM t");
        cache.insert_select(&s, FlattenPolicy::Sqlite386, None);
        assert!(matches!(
            cache.lookup_select(&s, FlattenPolicy::Sqlite386),
            SelectLookup::Hit(None)
        ));
        // A different policy is a miss even at the same generation.
        assert!(matches!(cache.lookup_select(&s, FlattenPolicy::Off), SelectLookup::Miss));
        assert!(cache.bump_generation());
        assert!(matches!(cache.lookup_select(&s, FlattenPolicy::Sqlite386), SelectLookup::Miss));
        // Bumping an empty cache invalidates nothing.
        assert!(!cache.bump_generation());
    }

    #[test]
    fn disabled_cache_bypasses() {
        let cache = PlanCache::default();
        let s = select("SELECT a FROM t");
        cache.set_enabled(false);
        assert!(matches!(cache.lookup_select(&s, FlattenPolicy::Sqlite386), SelectLookup::Bypass));
        cache.insert_select(&s, FlattenPolicy::Sqlite386, None);
        cache.set_enabled(true);
        // The insert while disabled must not have landed.
        assert!(matches!(cache.lookup_select(&s, FlattenPolicy::Sqlite386), SelectLookup::Miss));
    }
}
