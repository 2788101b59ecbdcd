//! An embedded SQL engine modelling the SQLite subset Maxoid depends on.
//!
//! The Maxoid paper (EuroSys 2015) builds its copy-on-write proxy for
//! Android system content providers out of plain SQLite machinery: base
//! tables, SQL views defined as `UNION ALL` compounds with `NOT IN
//! (SELECT ...)` subqueries, `INSTEAD OF` triggers, and the query planner's
//! *subquery flattening* optimization. This crate implements exactly that
//! machinery so the proxy's generated SQL (the paper's Figure 6) runs
//! unchanged.
//!
//! Highlights:
//!
//! - Tables keyed by an integer primary key (a `BTreeMap` doubling as the
//!   pk index), with configurable auto-assignment offsets for the proxy's
//!   delta tables.
//! - Three-valued logic, `LIKE`, `BETWEEN`, `IN` (lists and cached
//!   uncorrelated subqueries), scalar and aggregate functions.
//! - Views over views, INSTEAD OF insert/update/delete triggers with
//!   `NEW`/`OLD` row contexts.
//! - A [`FlattenPolicy`] switch reproducing the SQLite 3.7.11 / 3.8.6
//!   flattening behaviours described in the paper's footnote 5, plus
//!   execution counters to observe the plan actually taken.
//!
//! # Examples
//!
//! ```
//! use maxoid_sqldb::{Database, Value};
//!
//! let mut db = Database::new();
//! db.execute_batch(
//!     "CREATE TABLE t (_id INTEGER PRIMARY KEY, data TEXT);
//!      INSERT INTO t VALUES (1,'a'),(2,'b');
//!      CREATE VIEW v AS SELECT _id, data FROM t WHERE _id > 1;",
//! )
//! .unwrap();
//! let rs = db.query("SELECT data FROM v", &[]).unwrap();
//! assert_eq!(rs.rows, vec![vec![Value::Text("b".into())]]);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod db;
pub mod error;
pub mod exec;
pub mod expr;
mod heap;
pub mod index;
pub mod lexer;
pub mod mvcc;
pub mod parser;
pub mod planner;
pub mod table;
pub mod value;

pub use ast::{Affinity, ColumnDef, Expr, SelectStmt, Stmt, TriggerEvent};
pub use db::{
    param_to_value, value_to_param, Database, ExecOutcome, ResultSet, Stats, TriggerDef, ViewDef,
    ACCESS_PATH_LOG_CAP,
};
pub use error::{SqlError, SqlResult};
pub use expr::{like_match, MemberSet, OrdValue, RowScope, TriggerCtx};
pub use index::{RowIdSet, SecondaryIndex};
pub use mvcc::{MvccStats, ReadSnapshot, SnapshotReader};
pub use planner::{AccessPath, AccessPlan, FlattenPolicy, PlanChoice};
pub use table::{Table, TableSchema};
pub use value::Value;
