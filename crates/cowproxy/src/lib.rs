//! The Maxoid copy-on-write SQL proxy (paper §5.2).
//!
//! System content providers sit on top of this layer instead of raw
//! SQLite. The proxy implements *unilateral per-row copy-on-write*: public
//! data lives in **primary tables**; the first volatile write by a
//! delegate of initiator `A` creates a per-initiator **delta table**
//! (primary columns plus a `_whiteout` flag) and a **COW view** merging
//! the two with `UNION ALL`. INSTEAD OF triggers on the COW view confine
//! all delegate modifications to the delta table, so:
//!
//! - delegates always read their own writes through the COW view (U2),
//! - public rows are never modified by delegates (S2),
//! - deletion is emulated with whiteout records,
//! - rows inserted by delegates are keyed from a large offset `N`
//!   ([`names::DELTA_PK_START`]) and never collide with public keys.
//!
//! The initiator reads its volatile records through [`DbView::Volatile`]
//! (the provider's `tmp` URIs), selectively commits them with
//! [`CowProxy::commit_volatile_row`], and discards everything with
//! [`CowProxy::clear_volatile`], which empties the delta tables and keeps
//! the COW objects for the initiator's next session. Only
//! [`CowProxy::retire`], run when an idle tenant is evicted, drops them.
//!
//! # Examples
//!
//! ```
//! use maxoid_cowproxy::{CowProxy, DbView, QueryOpts};
//! use maxoid_sqldb::Value;
//!
//! let mut proxy = CowProxy::new();
//! proxy
//!     .execute_batch("CREATE TABLE words (_id INTEGER PRIMARY KEY, word TEXT);")
//!     .unwrap();
//! proxy.insert(&DbView::Primary, "words", &[("word", "hello".into())]).unwrap();
//!
//! // A delegate of initiator "email" updates word 1: copy-on-write.
//! let delegate = DbView::Delegate { initiator: "email".into() };
//! proxy
//!     .update(&delegate, "words", &[("word", "HELLO".into())], Some("_id = 1"), &[])
//!     .unwrap();
//!
//! // Public state is untouched; the delegate reads its write.
//! let public = proxy.query(&DbView::Primary, "words", &QueryOpts::default(), &[]).unwrap();
//! assert_eq!(public.rows[0][1], Value::Text("hello".into()));
//! let confined = proxy.query(&delegate, "words", &QueryOpts::default(), &[]).unwrap();
//! assert_eq!(confined.rows[0][1], Value::Text("HELLO".into()));
//! ```

#![warn(missing_docs)]

pub mod hierarchy;
pub mod names;
pub mod proxy;
mod reader;
pub(crate) mod rewrite;
pub mod sqlgen;

pub use names::{cow_view, delta_table, DELTA_PK_START, WHITEOUT_COL};
pub use proxy::{CowProxy, DbView, QueryOpts, ADMIN_INITIATOR_COL, ADMIN_STATE_COL};
