//! Additional adversarial tests: attack paths a malicious delegate or a
//! malicious initiator might try, beyond the happy-path Figure 1 edges.

use maxoid::{ContentValues, Intent, QueryArgs, Uri};
use maxoid_tests::{standard_cast, write_private, write_public, VIEW};
use maxoid_vfs::{vpath, Mode, OpenMode};

/// A delegate cannot smuggle data out by renaming a file into "public"
/// locations — renames stay inside its confined view.
#[test]
fn rename_does_not_escape() {
    let mut sys = standard_cast();
    let a = sys.launch("initiator").unwrap();
    let secret = write_private(&sys, a, "initiator", "s.txt", b"secret");
    let d =
        sys.start_activity(Some(a), &Intent::new(VIEW).with_data(secret.as_str())).unwrap().pid();
    // Copy into its view of public storage, then rename around.
    let data = sys.kernel.read(d, &secret).unwrap();
    sys.kernel.write(d, &vpath("/storage/sdcard/a.txt"), &data, Mode::PUBLIC).unwrap();
    sys.kernel.rename(d, &vpath("/storage/sdcard/a.txt"), &vpath("/storage/sdcard/b.txt")).unwrap();
    let x = sys.launch("bystander").unwrap();
    assert!(!sys.kernel.exists(x, &vpath("/storage/sdcard/a.txt")));
    assert!(!sys.kernel.exists(x, &vpath("/storage/sdcard/b.txt")));
}

/// Directory creation by a delegate is confined too.
#[test]
fn mkdir_is_confined() {
    let mut sys = standard_cast();
    let d = sys.launch_as_delegate("viewer", "initiator").unwrap();
    sys.kernel.mkdir_all(d, &vpath("/storage/sdcard/exfil/deep/dir"), Mode::PUBLIC).unwrap();
    sys.kernel.write(d, &vpath("/storage/sdcard/exfil/deep/dir/x"), b"data", Mode::PUBLIC).unwrap();
    let x = sys.launch("bystander").unwrap();
    assert!(!sys.kernel.exists(x, &vpath("/storage/sdcard/exfil")));
}

/// Open file handles do not outlive confinement semantics: a handle the
/// delegate opens for write on a public file pins the *volatile* copy.
#[test]
fn write_handle_pins_volatile_copy() {
    let mut sys = standard_cast();
    let x = sys.launch("bystander").unwrap();
    let f = write_public(&sys, x, "doc.txt", b"public v1");
    let d = sys.launch_as_delegate("viewer", "initiator").unwrap();
    let h = sys.kernel.open(d, &f, OpenMode::ReadWrite).unwrap();
    sys.kernel.write_handle(h, b"delegate edit").unwrap();
    // The public copy is unchanged; the edit went to the volatile copy.
    assert_eq!(sys.kernel.read(x, &f).unwrap(), b"public v1");
    assert_eq!(sys.kernel.read(d, &f).unwrap(), b"delegate edit");
}

/// A malicious initiator cannot use tmp URIs to spy on *other* apps'
/// volatile state: tmp URIs always address the caller's own.
#[test]
fn tmp_uris_are_callers_own() {
    let mut sys = standard_cast();
    sys.install("other", vec![], maxoid::MaxoidManifest::new()).unwrap();
    let words = Uri::parse("content://user_dictionary/words").unwrap();
    // A delegate of `other` creates a volatile record.
    let d = sys.launch_as_delegate("viewer", "other").unwrap();
    sys.cp_insert(d, &words, &ContentValues::new().put("word", "others-secret")).unwrap();
    // `initiator` queries the tmp URI: it sees its own (empty) volatile
    // state, not other's.
    let a = sys.launch("initiator").unwrap();
    let rs = sys.cp_query(a, &words.as_volatile(), &QueryArgs::default());
    assert!(rs.is_err() || rs.unwrap().rows.is_empty());
    // `other` itself sees its volatile record.
    let o = sys.launch("other").unwrap();
    let rs = sys.cp_query(o, &words.as_volatile(), &QueryArgs::default()).unwrap();
    assert_eq!(rs.rows.len(), 1);
}

/// Chooser flows preserve the delegate decision: the user picking an app
/// from ResolverActivity cannot accidentally launder the context.
#[test]
fn chooser_keeps_computed_context() {
    let mut sys = standard_cast();
    // A second viewer creates ambiguity.
    sys.install(
        "viewer2",
        vec![maxoid::AppIntentFilter::new(VIEW, None)],
        maxoid::MaxoidManifest::new(),
    )
    .unwrap();
    let a = sys.launch("initiator").unwrap();
    let outcome =
        sys.start_activity(Some(a), &Intent::new(VIEW).with_data("/storage/sdcard/x")).unwrap();
    let (candidates, ctx) = match outcome {
        maxoid::StartOutcome::Chooser { candidates, ctx } => (candidates, ctx),
        other => panic!("expected chooser, got {other:?}"),
    };
    assert_eq!(candidates.len(), 2);
    let pid = sys.start_chosen(&candidates[1], ctx).unwrap();
    assert!(sys.kernel.process(pid).unwrap().ctx.is_delegate());
}

/// Killing rules close the "consult my normal self" channel: starting a
/// delegate kills the normal instance, and vice versa.
#[test]
fn conflicting_instances_are_killed() {
    let mut sys = standard_cast();
    let normal = sys.launch("viewer").unwrap();
    let d = sys.launch_as_delegate("viewer", "initiator").unwrap();
    // The normal instance is gone.
    assert!(sys.kernel.process(normal).is_err());
    // Launching normally kills the delegate.
    let normal2 = sys.launch("viewer").unwrap();
    assert!(sys.kernel.process(d).is_err());
    assert!(sys.kernel.process(normal2).is_ok());
}

/// The Email per-URI grant pattern: a one-shot read grant lets the viewer
/// open exactly one attachment URI, once, and write grants are separate.
#[test]
fn per_uri_grants_are_one_shot() {
    let mut sys = standard_cast();
    // Register an app-defined provider for `initiator`.
    struct Att;
    impl maxoid_providers::provider::ContentProvider for Att {
        fn authority(&self) -> &str {
            "initiator.attachments"
        }
        fn insert(
            &mut self,
            _: &maxoid::Caller,
            uri: &Uri,
            _: &ContentValues,
        ) -> maxoid_providers::ProviderResult<Uri> {
            Ok(uri.with_id(1))
        }
        fn update(
            &mut self,
            _: &maxoid::Caller,
            _: &Uri,
            _: &ContentValues,
            _: &QueryArgs,
        ) -> maxoid_providers::ProviderResult<usize> {
            Ok(1)
        }
        fn query(
            &mut self,
            _: &maxoid::Caller,
            _: &Uri,
            _: &QueryArgs,
        ) -> maxoid_providers::ProviderResult<maxoid_sqldb::ResultSet> {
            Ok(maxoid_sqldb::ResultSet {
                columns: vec!["data".into()],
                rows: vec![vec![maxoid_sqldb::Value::Text("attachment".into())]],
            })
        }
        fn delete(
            &mut self,
            _: &maxoid::Caller,
            _: &Uri,
            _: &QueryArgs,
        ) -> maxoid_providers::ProviderResult<usize> {
            Ok(0)
        }
        fn clear_volatile(&mut self, _: &str) -> maxoid_providers::ProviderResult<()> {
            Ok(())
        }
    }
    sys.resolver
        .register(maxoid_providers::ProviderScope::AppDefined { owner: "initiator".into() }, Att);
    let a = sys.launch("initiator").unwrap();
    let item = Uri::parse("content://initiator.attachments/att/7").unwrap();
    // Sending a VIEW intent with the grant flag issues the one-shot grant.
    let d = sys
        .start_activity(Some(a), &Intent::new(VIEW).with_data(&item.to_string()).grant_read())
        .unwrap()
        .pid();
    // First read succeeds; the second is denied (grant consumed).
    assert!(sys.cp_query(d, &item, &QueryArgs::default()).is_ok());
    assert!(sys.cp_query(d, &item, &QueryArgs::default()).is_err());
    // Writes were never granted.
    assert!(sys
        .cp_update(d, &item, &ContentValues::new().put("data", "x"), &QueryArgs::default())
        .is_err());
}

/// S3 through the provider path: the initiator cannot read a delegate's
/// private provider-ish files even knowing their exact path.
#[test]
fn initiator_cannot_probe_delegate_fork() {
    let mut sys = standard_cast();
    let a = sys.launch("initiator").unwrap();
    let d = sys.launch_as_delegate("viewer", "initiator").unwrap();
    write_private(&sys, d, "viewer", "delegate_secrets.db", b"fork data");
    // The path inside the delegate's namespace points into the fork; in
    // A's namespace it does not resolve at all.
    let p = vpath("/data/data/viewer/delegate_secrets.db");
    assert!(sys.kernel.read(a, &p).is_err());
    // Neither does the pPriv path.
    assert!(sys.kernel.read(a, &vpath("/data/data/ppriv/viewer")).is_err());
}

/// Clear-Vol also resets the confined clipboard.
#[test]
fn clear_vol_covers_clipboard() {
    let mut sys = standard_cast();
    let d = sys.launch_as_delegate("viewer", "initiator").unwrap();
    let dctx = sys.kernel.process(d).unwrap().ctx.clone();
    sys.clipboard.set(&dctx, "confined clip");
    sys.clear_vol("initiator").unwrap();
    assert_eq!(sys.clipboard.get(&dctx), None);
}

/// The three system providers with the collection, text column and the
/// name of Alice's delta table each probe aims at.
const PROVIDERS: [(&str, &str, &str); 3] = [
    ("content://user_dictionary/words", "word", "words_delta_com_alice"),
    ("content://downloads/my_downloads", "title", "downloads_delta_com_alice"),
    ("content://media/files", "title", "files_delta_com_alice"),
];

/// Caller fragments that reach past their slot: a projection and a sort
/// term that are not column names, a selection that closes its own
/// parenthesis to splice a UNION, a sub-select oracle on Alice's delta
/// table, and a selection that widens an item URI to every row.
fn hostile_fragments(col: &str, delta: &str) -> Vec<QueryArgs> {
    let selection = |s: String| QueryArgs {
        projection: vec![col.into()],
        selection: Some(s),
        ..Default::default()
    };
    vec![
        QueryArgs {
            projection: vec![format!("{col} FROM {delta} UNION ALL SELECT {col}")],
            ..Default::default()
        },
        QueryArgs {
            projection: vec![col.into()],
            sort_order: Some(format!("{col} IN (SELECT {col} FROM {delta})")),
            ..Default::default()
        },
        selection(format!("1)) UNION ALL SELECT {col} FROM {delta} WHERE ((1")),
        selection(format!("'ALICE_SECRET' IN (SELECT {col} FROM {delta})")),
        selection("1) OR (1".into()),
    ]
}

/// A provider runs caller SQL fragments with its own authority over every
/// tenant's state (the confused deputy). Each hostile fragment is refused
/// before any SQL runs, for query, update and delete, on the locked path
/// (a direct provider call) and on the snapshot path (the resolver's
/// lock-free read handle), and Alice's volatile row never leaks.
#[test]
fn hostile_fragments_are_refused_by_every_provider() {
    use maxoid_providers::provider::ContentProvider;
    use maxoid_providers::{
        Caller, DownloadsProvider, MediaProvider, ProviderError, SimpleLocator, SystemFiles,
        UserDictionaryProvider,
    };
    let files = || SystemFiles::new(maxoid_vfs::Vfs::new(), SimpleLocator);
    let direct: [Box<dyn ContentProvider>; 3] = [
        Box::new(UserDictionaryProvider::new()),
        Box::new(DownloadsProvider::open(files(), None, None)),
        Box::new(MediaProvider::open(files(), None, None)),
    ];
    let alice_delegate = Caller::delegate("com.viewer", "com.alice");
    let mallory = Caller::normal("com.mallory");
    fn denied<T>(r: Result<T, ProviderError>) -> bool {
        matches!(r, Err(ProviderError::Denied(_)))
    }

    // Locked path: direct provider calls.
    for (mut p, (uri, col, delta)) in direct.into_iter().zip(PROVIDERS) {
        let uri = Uri::parse(uri).unwrap();
        let item = uri.with_id(999);
        p.insert(&mallory, &uri, &ContentValues::new().put(col, "public1")).unwrap();
        p.insert(&alice_delegate, &uri, &ContentValues::new().put(col, "ALICE_SECRET")).unwrap();
        let edit = ContentValues::new().put(col, "OVERWRITTEN");
        for args in hostile_fragments(col, delta) {
            assert!(denied(p.query(&mallory, &uri, &args)), "{uri} query {args:?}");
            assert!(denied(p.query(&mallory, &item, &args)), "{uri} item query {args:?}");
            if args.selection.is_some() {
                assert!(denied(p.update(&mallory, &item, &edit, &args)), "{uri} update {args:?}");
                assert!(denied(p.delete(&mallory, &item, &args)), "{uri} delete {args:?}");
            }
        }
        let public = QueryArgs { projection: vec![col.into()], ..Default::default() };
        let rows = p.query(&mallory, &uri, &public).unwrap().rows;
        assert_eq!(rows, vec![vec!["public1".into()]], "{uri}: public rows untouched");
        // A well-formed selection still works.
        let args = QueryArgs {
            projection: vec![col.into()],
            selection: Some(format!("{col} = ?")),
            selection_args: vec!["public1".into()],
            sort_order: Some(format!("{col} DESC, _id")),
        };
        assert_eq!(p.query(&mallory, &uri, &args).unwrap().rows.len(), 1, "{uri}");
    }

    // Snapshot path: the resolver's read handle.
    let sys = standard_cast();
    sys.install("com.alice", vec![], maxoid::MaxoidManifest::new()).unwrap();
    let d = sys.launch_as_delegate("viewer", "com.alice").unwrap();
    let x = sys.launch("bystander").unwrap();
    for (uri, col, delta) in PROVIDERS {
        let uri = Uri::parse(uri).unwrap();
        sys.cp_insert(d, &uri, &ContentValues::new().put(col, "ALICE_SECRET")).unwrap();
        for args in hostile_fragments(col, delta) {
            let (snapshot_reads, _) = sys.resolver.read_path_stats();
            let res = sys.cp_query(x, &uri, &args);
            assert!(
                matches!(res, Err(maxoid::SystemError::Provider(ProviderError::Denied(_)))),
                "{uri} snapshot query {args:?}"
            );
            assert_eq!(sys.resolver.read_path_stats().0, snapshot_reads + 1, "{uri} {args:?}");
        }
    }
}
