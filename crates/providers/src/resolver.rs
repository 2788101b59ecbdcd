//! Content resolver: URI routing and per-URI permission grants.
//!
//! Android resolves `content://` URIs to providers by authority. System
//! content providers are world-reachable (subject to install-time
//! permissions, which we treat as granted); app-defined providers are
//! private to their owner unless the owner issues a per-URI grant
//! (`FLAG_GRANT_READ_URI_PERMISSION`), the mechanism Email uses to let a
//! viewer open one attachment (§2.2).

use crate::provider::{
    Caller, ContentProvider, ContentValues, ProviderError, ProviderResult, QueryArgs, ReadHandle,
};
use crate::uri::Uri;
use maxoid_sqldb::ResultSet;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Who may reach a provider.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProviderScope {
    /// A system content provider: reachable by every app.
    System,
    /// An app-defined provider owned by `owner`: reachable only by the
    /// owner and per-URI grantees.
    AppDefined {
        /// The owning package.
        owner: String,
    },
}

/// A per-URI permission grant.
#[derive(Debug, Clone, PartialEq, Eq)]
struct UriGrant {
    grantee: String,
    uri: Uri,
    write: bool,
    /// One-shot grants are revoked after first use (Email's behaviour).
    one_shot: bool,
}

/// A registered provider: its reachability scope, the per-authority
/// **write lock** that serializes mutations into it, and the optional
/// lock-free read handle. The `Arc` lets routing clone the entry out of
/// the table and release the table lock before dispatching, so calls to
/// *different* authorities run fully in parallel; the read handle lets
/// queries on the *same* authority run in parallel too.
#[derive(Clone)]
struct ProviderEntry {
    scope: ProviderScope,
    provider: Arc<Mutex<dyn ContentProvider + Send>>,
    read: Option<Arc<dyn ReadHandle>>,
}

/// Routes content URIs to registered providers and enforces reachability.
///
/// # Concurrency
///
/// The authority table is an `RwLock` (registration is rare; routing
/// takes read locks), the grant list has its own mutex (one-shot grants
/// are consumed atomically), and each provider sits behind its own
/// per-authority **write lock**. Mutations take that lock; after each
/// one the resolver asks the provider to publish a fresh MVCC snapshot
/// ([`ContentProvider::publish_read`]). Queries first try the
/// provider's registered [`ReadHandle`], which serves them from the
/// published snapshot without the write lock; only when no snapshot is
/// available do they fall back to the locked path. When a caller must
/// lock several providers (the Clear-Vol sweep), it does so one at a time
/// in ascending authority order — the documented provider-lock order
/// (DESIGN.md §4.10).
#[derive(Default)]
pub struct ContentResolver {
    providers: RwLock<BTreeMap<String, ProviderEntry>>,
    grants: Mutex<Vec<UriGrant>>,
    /// Queries served lock-free from a published snapshot.
    snapshot_reads: AtomicU64,
    /// Queries that fell back to the per-authority write lock.
    locked_reads: AtomicU64,
}

impl std::fmt::Debug for ContentResolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContentResolver")
            .field("authorities", &self.providers.read().keys().collect::<Vec<_>>())
            .field("grants", &self.grants.lock().len())
            .finish()
    }
}

impl ContentResolver {
    /// Creates an empty resolver.
    pub fn new() -> Self {
        ContentResolver::default()
    }

    /// Registers a provider under its authority, together with its
    /// lock-free read handle if it has one, and returns the provider's
    /// mutex: the authority's one lock, which service APIs outside the
    /// resolver (the download pump, media scans) take too.
    pub fn register<P: ContentProvider + Send + 'static>(
        &self,
        scope: ProviderScope,
        provider: P,
    ) -> Arc<Mutex<P>> {
        let authority = provider.authority().to_string();
        let read = provider.read_handle();
        let shared = Arc::new(Mutex::new(provider));
        self.providers
            .write()
            .insert(authority, ProviderEntry { scope, provider: shared.clone(), read });
        shared
    }

    /// `(snapshot_reads, locked_reads)` since construction: how many
    /// routed queries were served lock-free from a published snapshot
    /// versus under a per-authority write lock.
    pub fn read_path_stats(&self) -> (u64, u64) {
        (self.snapshot_reads.load(Ordering::Relaxed), self.locked_reads.load(Ordering::Relaxed))
    }

    /// Returns the registered authorities.
    pub fn authorities(&self) -> Vec<String> {
        self.providers.read().keys().cloned().collect()
    }

    /// Issues a per-URI grant (the `FLAG_GRANT_*_URI_PERMISSION` analogue).
    pub fn grant_uri_permission(&self, grantee: &str, uri: &Uri, write: bool, one_shot: bool) {
        self.grants.lock().push(UriGrant {
            grantee: grantee.to_string(),
            uri: uri.clone(),
            write,
            one_shot,
        });
    }

    /// Revokes all grants for a URI.
    pub fn revoke_uri_permission(&self, uri: &Uri) {
        self.grants.lock().retain(|g| &g.uri != uri);
    }

    /// Looks an authority up and clones its entry out, releasing the
    /// table lock before the caller dispatches into the provider.
    fn entry(&self, authority: &str) -> ProviderResult<ProviderEntry> {
        self.providers
            .read()
            .get(authority)
            .cloned()
            .ok_or_else(|| ProviderError::UnknownUri(authority.to_string()))
    }

    /// Checks reachability; consumes one-shot grants on success. The
    /// grant check-and-consume runs under the grant lock, so two racing
    /// callers cannot both spend the same one-shot grant.
    fn check_access(
        &self,
        scope: &ProviderScope,
        caller: &Caller,
        uri: &Uri,
        write: bool,
    ) -> ProviderResult<()> {
        match scope {
            ProviderScope::System => Ok(()),
            ProviderScope::AppDefined { owner } => {
                if caller.app.pkg() == owner {
                    return Ok(());
                }
                let mut grants = self.grants.lock();
                let idx = grants.iter().position(|g| {
                    g.grantee == caller.app.pkg() && &g.uri == uri && (!write || g.write)
                });
                match idx {
                    Some(i) => {
                        if grants[i].one_shot {
                            grants.remove(i);
                        }
                        Ok(())
                    }
                    None => Err(ProviderError::Denied(format!(
                        "{} has no grant for {uri}",
                        caller.app.pkg()
                    ))),
                }
            }
        }
    }

    /// Routed insert.
    pub fn insert(
        &self,
        caller: &Caller,
        uri: &Uri,
        values: &ContentValues,
    ) -> ProviderResult<Uri> {
        let entry = self.entry(&uri.authority)?;
        self.check_access(&entry.scope, caller, uri, true)?;
        let mut p = entry.provider.lock();
        let res = p.insert(caller, uri, values);
        p.publish_read();
        res
    }

    /// Routed update.
    pub fn update(
        &self,
        caller: &Caller,
        uri: &Uri,
        values: &ContentValues,
        args: &QueryArgs,
    ) -> ProviderResult<usize> {
        let entry = self.entry(&uri.authority)?;
        self.check_access(&entry.scope, caller, uri, true)?;
        let mut p = entry.provider.lock();
        let res = p.update(caller, uri, values, args);
        p.publish_read();
        res
    }

    /// Routed query.
    ///
    /// Tries the provider's lock-free read handle first: if a committed
    /// snapshot is published, the query runs against it without the
    /// authority's write lock (and in parallel with other readers).
    /// Otherwise the query takes the write lock, runs against live
    /// state, and republishes a snapshot for subsequent readers.
    pub fn query(&self, caller: &Caller, uri: &Uri, args: &QueryArgs) -> ProviderResult<ResultSet> {
        let entry = self.entry(&uri.authority)?;
        self.check_access(&entry.scope, caller, uri, false)?;
        if let Some(read) = &entry.read {
            if let Some(res) = read.try_query(caller, uri, args) {
                self.snapshot_reads.fetch_add(1, Ordering::Relaxed);
                maxoid_obs::counter_add("resolver.snapshot_reads", 1);
                return res;
            }
        }
        let mut p = entry.provider.lock();
        let res = p.query(caller, uri, args);
        p.publish_read();
        self.locked_reads.fetch_add(1, Ordering::Relaxed);
        maxoid_obs::counter_add("resolver.locked_reads", 1);
        res
    }

    /// Routed delete.
    pub fn delete(&self, caller: &Caller, uri: &Uri, args: &QueryArgs) -> ProviderResult<usize> {
        let entry = self.entry(&uri.authority)?;
        self.check_access(&entry.scope, caller, uri, true)?;
        let mut p = entry.provider.lock();
        let res = p.delete(caller, uri, args);
        p.publish_read();
        res
    }

    /// Clears the volatile state every registered provider holds for
    /// `initiator` (the provider half of Clear-Vol).
    pub fn clear_volatile(&self, initiator: &str) -> ProviderResult<()> {
        self.each_provider(|p| p.clear_volatile(initiator))
    }

    /// Retires `initiator` from every registered provider (the provider
    /// half of idle-tenant eviction, see [`ContentProvider::retire`]).
    pub fn retire(&self, initiator: &str) -> ProviderResult<()> {
        self.each_provider(|p| p.retire(initiator))
    }

    /// Runs `f` on every registered provider, locking them one at a time
    /// in ascending authority order (the documented provider-lock order)
    /// and republishing each one's snapshot.
    fn each_provider(
        &self,
        mut f: impl FnMut(&mut dyn ContentProvider) -> ProviderResult<()>,
    ) -> ProviderResult<()> {
        let entries: Vec<ProviderEntry> = self.providers.read().values().cloned().collect();
        for e in entries {
            let mut p = e.provider.lock();
            let res = f(&mut *p);
            p.publish_read();
            res?;
        }
        Ok(())
    }

    /// Selectively commits one volatile row of `initiator` held by the
    /// provider serving `authority` (the resolver half of the
    /// initiator's Commit gesture, §3.3). Returns true if a row moved.
    pub fn commit_volatile_row(
        &self,
        authority: &str,
        initiator: &str,
        table: &str,
        id: i64,
    ) -> ProviderResult<bool> {
        let entry = self.entry(authority)?;
        let mut p = entry.provider.lock();
        let res = p.commit_volatile_row(initiator, table, id);
        p.publish_read();
        res
    }
}

// Routing must be shareable across worker threads.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ContentResolver>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::userdict::UserDictionaryProvider;
    use maxoid_sqldb::SqlResult;

    /// A minimal app-defined provider (Email's attachment provider shape).
    #[derive(Debug, Default)]
    struct AttachmentProvider {
        rows: Vec<String>,
    }

    impl ContentProvider for AttachmentProvider {
        fn authority(&self) -> &str {
            "com.email.attachmentprovider"
        }

        fn insert(&mut self, _: &Caller, uri: &Uri, values: &ContentValues) -> ProviderResult<Uri> {
            self.rows.push(values.get("name").map(|v| v.to_string()).unwrap_or_default());
            Ok(uri.with_id(self.rows.len() as i64))
        }

        fn update(
            &mut self,
            _: &Caller,
            _: &Uri,
            _: &ContentValues,
            _: &QueryArgs,
        ) -> ProviderResult<usize> {
            Ok(0)
        }

        fn query(&mut self, _: &Caller, uri: &Uri, _: &QueryArgs) -> ProviderResult<ResultSet> {
            let id = uri.id().unwrap_or(0) as usize;
            let rows: SqlResult<Vec<Vec<maxoid_sqldb::Value>>> = Ok(self
                .rows
                .get(id.wrapping_sub(1))
                .map(|n| vec![vec![maxoid_sqldb::Value::Text(n.clone())]])
                .unwrap_or_default());
            Ok(ResultSet { columns: vec!["name".into()], rows: rows? })
        }

        fn delete(&mut self, _: &Caller, _: &Uri, _: &QueryArgs) -> ProviderResult<usize> {
            Ok(0)
        }

        fn clear_volatile(&mut self, _: &str) -> ProviderResult<()> {
            Ok(())
        }
    }

    fn resolver_with_attachments() -> (ContentResolver, Uri) {
        let r = ContentResolver::new();
        r.register(
            ProviderScope::AppDefined { owner: "com.email".into() },
            AttachmentProvider::default(),
        );
        let base = Uri::parse("content://com.email.attachmentprovider/attachments").unwrap();
        let email = Caller::normal("com.email");
        let item =
            r.insert(&email, &base, &ContentValues::new().put("name", "report.pdf")).unwrap();
        (r, item)
    }

    #[test]
    fn system_providers_are_world_reachable() {
        let r = ContentResolver::new();
        r.register(ProviderScope::System, UserDictionaryProvider::new());
        let uri = Uri::parse("content://user_dictionary/words").unwrap();
        let any = Caller::normal("com.random");
        r.insert(&any, &uri, &ContentValues::new().put("word", "ok")).unwrap();
        assert_eq!(r.query(&any, &uri, &QueryArgs::default()).unwrap().rows.len(), 1);
    }

    #[test]
    fn app_defined_requires_grant() {
        let (r, item) = resolver_with_attachments();
        let viewer = Caller::normal("com.viewer");
        // No grant: denied.
        assert!(matches!(
            r.query(&viewer, &item, &QueryArgs::default()),
            Err(ProviderError::Denied(_))
        ));
        // Owner grants one-time read on the single item.
        r.grant_uri_permission("com.viewer", &item, false, true);
        let rs = r.query(&viewer, &item, &QueryArgs::default()).unwrap();
        assert_eq!(rs.rows.len(), 1);
        // The one-shot grant is consumed.
        assert!(matches!(
            r.query(&viewer, &item, &QueryArgs::default()),
            Err(ProviderError::Denied(_))
        ));
    }

    #[test]
    fn read_grant_does_not_allow_write() {
        let (r, item) = resolver_with_attachments();
        r.grant_uri_permission("com.viewer", &item, false, false);
        let viewer = Caller::normal("com.viewer");
        assert!(matches!(
            r.update(&viewer, &item, &ContentValues::new(), &QueryArgs::default()),
            Err(ProviderError::Denied(_))
        ));
        // Reads keep working (persistent grant).
        r.query(&viewer, &item, &QueryArgs::default()).unwrap();
        r.query(&viewer, &item, &QueryArgs::default()).unwrap();
    }

    #[test]
    fn grants_are_per_exact_uri() {
        let (r, item) = resolver_with_attachments();
        r.grant_uri_permission("com.viewer", &item, false, false);
        let viewer = Caller::normal("com.viewer");
        let other = item.with_id(999);
        assert!(matches!(
            r.query(&viewer, &other, &QueryArgs::default()),
            Err(ProviderError::Denied(_))
        ));
    }

    #[test]
    fn revoke_removes_grants() {
        let (r, item) = resolver_with_attachments();
        r.grant_uri_permission("com.viewer", &item, false, false);
        r.revoke_uri_permission(&item);
        let viewer = Caller::normal("com.viewer");
        assert!(matches!(
            r.query(&viewer, &item, &QueryArgs::default()),
            Err(ProviderError::Denied(_))
        ));
    }

    #[test]
    fn unknown_authority_is_error() {
        let r = ContentResolver::new();
        let uri = Uri::parse("content://nope/x").unwrap();
        assert!(matches!(
            r.query(&Caller::normal("a"), &uri, &QueryArgs::default()),
            Err(ProviderError::UnknownUri(_))
        ));
    }
}
