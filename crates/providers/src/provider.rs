//! The content-provider interface and caller identity.

use crate::uri::Uri;
use maxoid_cowproxy::DbView;
use maxoid_kernel::{AppId, ExecContext};
use maxoid_sqldb::{ResultSet, Value};
use std::fmt;
use std::sync::Arc;

/// Identity of the process calling into a provider.
///
/// In the paper the proxy "uses a Maxoid API to get the information about
/// the calling process, which tells whether the caller is a delegate and
/// what its initiator is" (§5.2); this struct is that information,
/// captured by the resolver from the kernel's task struct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Caller {
    /// The calling app.
    pub app: AppId,
    /// Its Maxoid execution context.
    pub ctx: ExecContext,
}

impl Caller {
    /// A normal (initiator) caller.
    pub fn normal(app: &str) -> Caller {
        Caller { app: AppId::new(app), ctx: ExecContext::Normal }
    }

    /// A delegate caller (`app` running on behalf of `initiator`).
    pub fn delegate(app: &str, initiator: &str) -> Caller {
        Caller { app: AppId::new(app), ctx: ExecContext::OnBehalfOf(AppId::new(initiator)) }
    }

    /// Maps this caller and the addressed URI to the proxy view that must
    /// serve the operation:
    ///
    /// - delegates always get their initiator's COW view;
    /// - initiators get primary tables for normal URIs, and their own
    ///   volatile state for `tmp` URIs;
    /// - delegates may not address `tmp` URIs (volatile state is the
    ///   initiator's interface).
    pub fn db_view(&self, uri: &Uri) -> Result<DbView, ProviderError> {
        match (&self.ctx, uri.is_volatile()) {
            (ExecContext::OnBehalfOf(init), false) => {
                Ok(DbView::Delegate { initiator: init.pkg().to_string() })
            }
            (ExecContext::OnBehalfOf(_), true) => {
                Err(ProviderError::Denied("delegates cannot address volatile (tmp) URIs".into()))
            }
            (ExecContext::Normal, true) => {
                Ok(DbView::Volatile { initiator: self.app.pkg().to_string() })
            }
            (ExecContext::Normal, false) => Ok(DbView::Primary),
        }
    }
}

/// Values for an insert or update, with Maxoid's `isVolatile` extension.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ContentValues {
    pairs: Vec<(String, Value)>,
    /// Maxoid's new initiator API (§6.1 item 4): when set on an insert by
    /// an initiator, the record is created in its volatile state instead
    /// of public state. This is the one-line hook behind Browser's
    /// incognito downloads.
    pub is_volatile: bool,
}

impl ContentValues {
    /// Creates an empty value set.
    pub fn new() -> Self {
        ContentValues::default()
    }

    /// Adds a column value (builder style).
    pub fn put(mut self, column: &str, value: impl Into<Value>) -> Self {
        self.pairs.push((column.to_string(), value.into()));
        self
    }

    /// Sets the `isVolatile` flag (builder style).
    pub fn volatile(mut self) -> Self {
        self.is_volatile = true;
        self
    }

    /// Returns the column/value pairs.
    pub fn pairs(&self) -> &[(String, Value)] {
        &self.pairs
    }

    /// Returns the value for a column, if present.
    pub fn get(&self, column: &str) -> Option<&Value> {
        self.pairs.iter().find(|(c, _)| c.eq_ignore_ascii_case(column)).map(|(_, v)| v)
    }

    /// Returns pairs as the `(&str, Value)` slices the proxy consumes.
    pub fn as_proxy_values(&self) -> Vec<(&str, Value)> {
        self.pairs.iter().map(|(c, v)| (c.as_str(), v.clone())).collect()
    }
}

/// Query arguments (projection / selection / sort), SQLite-shaped.
#[derive(Debug, Clone, Default)]
pub struct QueryArgs {
    /// Columns to return; empty = all.
    pub projection: Vec<String>,
    /// WHERE clause with `?` placeholders.
    pub selection: Option<String>,
    /// Values for the placeholders.
    pub selection_args: Vec<Value>,
    /// ORDER BY clause.
    pub sort_order: Option<String>,
}

/// Errors surfaced by content providers.
#[derive(Debug, Clone, PartialEq)]
pub enum ProviderError {
    /// The URI does not name a known collection.
    UnknownUri(String),
    /// The caller is not allowed to perform the operation.
    Denied(String),
    /// The network was unreachable (delegate download requests, §6.2).
    NetworkUnreachable,
    /// An underlying SQL error.
    Sql(maxoid_sqldb::SqlError),
    /// An underlying kernel/file error.
    Kernel(maxoid_kernel::KernelError),
}

impl fmt::Display for ProviderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProviderError::UnknownUri(u) => write!(f, "unknown URI: {u}"),
            ProviderError::Denied(m) => write!(f, "denied: {m}"),
            ProviderError::NetworkUnreachable => f.write_str("ENETUNREACH"),
            ProviderError::Sql(e) => write!(f, "sql: {e}"),
            ProviderError::Kernel(e) => write!(f, "kernel: {e}"),
        }
    }
}

impl std::error::Error for ProviderError {}

impl From<maxoid_sqldb::SqlError> for ProviderError {
    fn from(e: maxoid_sqldb::SqlError) -> Self {
        ProviderError::Sql(e)
    }
}

impl From<maxoid_kernel::KernelError> for ProviderError {
    fn from(e: maxoid_kernel::KernelError) -> Self {
        ProviderError::Kernel(e)
    }
}

/// Result alias for provider operations.
pub type ProviderResult<T> = Result<T, ProviderError>;

/// The four content-provider operations (plus authority), mirroring
/// Android's `ContentProvider` class.
pub trait ContentProvider {
    /// The authority this provider serves.
    fn authority(&self) -> &str;

    /// Inserts a row; returns the URI of the new row.
    fn insert(&mut self, caller: &Caller, uri: &Uri, values: &ContentValues)
        -> ProviderResult<Uri>;

    /// Updates matching rows; returns the affected count.
    fn update(
        &mut self,
        caller: &Caller,
        uri: &Uri,
        values: &ContentValues,
        args: &QueryArgs,
    ) -> ProviderResult<usize>;

    /// Queries rows.
    fn query(&mut self, caller: &Caller, uri: &Uri, args: &QueryArgs) -> ProviderResult<ResultSet>;

    /// Deletes matching rows; returns the affected count.
    fn delete(&mut self, caller: &Caller, uri: &Uri, args: &QueryArgs) -> ProviderResult<usize>;

    /// Maxoid administrative hook: discards the volatile state this
    /// provider holds for `initiator` (Clear-Vol, §6.3).
    fn clear_volatile(&mut self, initiator: &str) -> ProviderResult<()>;

    /// Maxoid administrative hook: discards `initiator`'s volatile state
    /// and whatever the provider keeps to serve it again, because the
    /// tenant went idle (idle-tenant eviction). Providers that keep
    /// nothing beyond the state itself just clear it.
    fn retire(&mut self, initiator: &str) -> ProviderResult<()> {
        self.clear_volatile(initiator)
    }

    /// Maxoid administrative hook: checks a commit of `initiator`'s
    /// volatile rows `(table, delta-table row id)`, listed in the order
    /// they will be committed, before any of them is, and refuses it
    /// ([`ProviderError::Denied`]) if one of them could not commit.
    /// Changes nothing. Providers without proxy-managed row state accept
    /// every plan.
    fn check_volatile_rows(&self, _initiator: &str, _rows: &[(&str, i64)]) -> ProviderResult<()> {
        Ok(())
    }

    /// Maxoid administrative hook: selectively commits one volatile row
    /// of `initiator` (identified by delta-table row id) into the
    /// provider's public state (§3.3). Returns the public id the row
    /// landed at, or `None` if nothing was committed. Providers without
    /// proxy-managed row state ignore it.
    fn commit_volatile_row(
        &mut self,
        _initiator: &str,
        _table: &str,
        _id: i64,
    ) -> ProviderResult<Option<i64>> {
        Ok(None)
    }

    /// MVCC hook: publishes a fresh committed snapshot for lock-free
    /// readers (see [`ReadHandle`]). The resolver calls this after every
    /// locked provider call, i.e. at a quiescent point while it still
    /// holds the authority lock. Providers without a snapshot read path
    /// ignore it.
    fn publish_read(&mut self) {}

    /// The provider's lock-free read path, which the resolver takes at
    /// registration. Providers without one return `None`.
    fn read_handle(&self) -> Option<Arc<dyn ReadHandle>> {
        None
    }
}

/// The lock-free read path of a provider (MVCC snapshot reads).
///
/// A read handle holds a [`maxoid_cowproxy::ReadSlot`] — never the
/// provider itself — so [`ReadHandle::try_query`] runs without the
/// per-authority write lock. Returning `None` sends the resolver down the
/// locked path: no snapshot is published (a mutation just retracted it,
/// or a transaction is open). Access
/// control stays in the resolver; handles only plan and execute the
/// query.
pub trait ReadHandle: Send + Sync {
    /// Attempts to serve a routed query from the published snapshot.
    fn try_query(
        &self,
        caller: &Caller,
        uri: &Uri,
        args: &QueryArgs,
    ) -> Option<ProviderResult<ResultSet>>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_selection_rules() {
        let words = Uri::parse("content://user_dictionary/words").unwrap();
        let tmp = Uri::parse("content://user_dictionary/tmp/words").unwrap();

        let init = Caller::normal("com.email");
        assert_eq!(init.db_view(&words).unwrap(), DbView::Primary);
        assert_eq!(init.db_view(&tmp).unwrap(), DbView::Volatile { initiator: "com.email".into() });

        let del = Caller::delegate("com.viewer", "com.email");
        assert_eq!(
            del.db_view(&words).unwrap(),
            DbView::Delegate { initiator: "com.email".into() }
        );
        assert!(matches!(del.db_view(&tmp), Err(ProviderError::Denied(_))));
    }

    #[test]
    fn content_values_builder() {
        let cv = ContentValues::new().put("word", "hi").put("frequency", 3).volatile();
        assert_eq!(cv.get("word"), Some(&Value::Text("hi".into())));
        assert_eq!(cv.get("FREQUENCY"), Some(&Value::Integer(3)));
        assert!(cv.is_volatile);
        assert_eq!(cv.as_proxy_values().len(), 2);
        assert_eq!(cv.get("missing"), None);
    }
}
