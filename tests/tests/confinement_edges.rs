//! Additional adversarial tests: attack paths a malicious delegate or a
//! malicious initiator might try, beyond the happy-path Figure 1 edges.

use maxoid::{ContentValues, Intent, QueryArgs, Uri};
use maxoid_tests::{standard_cast, write_private, write_public, VIEW};
use maxoid_vfs::{vpath, Mode, OpenMode};

/// A delegate cannot smuggle data out by renaming a file into "public"
/// locations — renames stay inside its confined view.
#[test]
fn rename_does_not_escape() {
    let sys = standard_cast();
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
    let sys = standard_cast();
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
    let sys = standard_cast();
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
    let sys = standard_cast();
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
    let sys = standard_cast();
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
    let sys = standard_cast();
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
    let sys = standard_cast();
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
            &self,
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
    let sys = standard_cast();
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
    let sys = standard_cast();
    let d = sys.launch_as_delegate("viewer", "initiator").unwrap();
    let dctx = sys.kernel.process(d).unwrap().ctx.clone();
    sys.clipboard.set(&dctx, "confined clip");
    sys.clear_vol("initiator").unwrap();
    assert_eq!(sys.clipboard.get(&dctx), None);
}

/// The three system providers with the collection, text column and the
/// name of Alice's delta table each probe aims at.
const PROVIDERS: [(&str, &str, &str); 3] = [
    ("content://user_dictionary/words", "word", "words_delta_com_2ealice"),
    ("content://downloads/my_downloads", "title", "downloads_delta_com_2ealice"),
    ("content://media/files", "title", "files_delta_com_2ealice"),
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
/// before any SQL runs, for query, update and delete, through a direct
/// provider call and through the resolver (a query under the authority's
/// shared lock), and Alice's volatile row never leaks.
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

    // Routed path: the resolver's shared-lock query.
    let sys = standard_cast();
    sys.install("com.alice", vec![], maxoid::MaxoidManifest::new()).unwrap();
    let d = sys.launch_as_delegate("viewer", "com.alice").unwrap();
    let x = sys.launch("bystander").unwrap();
    for (uri, col, delta) in PROVIDERS {
        let uri = Uri::parse(uri).unwrap();
        sys.cp_insert(d, &uri, &ContentValues::new().put(col, "ALICE_SECRET")).unwrap();
        for args in hostile_fragments(col, delta) {
            let (routed, _) = sys.resolver.read_path_stats();
            let res = sys.cp_query(x, &uri, &args);
            assert!(
                matches!(res, Err(maxoid::SystemError::Provider(ProviderError::Denied(_)))),
                "{uri} routed query {args:?}"
            );
            assert_eq!(sys.resolver.read_path_stats().0, routed + 1, "{uri} {args:?}");
        }
    }
}

/// Initiator pairs an earlier name map merged: a lossy byte map
/// (`com.a.b` / `com.a_b`), a delta-table name suffix (`b` /
/// `x.delta.b`), and the catalog's case folding (`A` / `a`).
const LOOKALIKES: [(&str, &str); 3] = [("com.a.b", "com.a_b"), ("b", "x.delta.b"), ("A", "a")];

/// The relation half of a COW object's name is not encoded, so a schema
/// in which forks of two (relation, initiator) pairs would derive one
/// name is refused when it is registered: `(t, delta.app)` and
/// `(t_delta, 2eapp)` both name the delta table `t_delta_delta_2eapp`.
/// The three system providers' schemas, Media's `audio` beside
/// `audio_meta` among them, stay legal. A refused call changes nothing:
/// no table, view or user-view registration is left behind.
#[test]
fn schemas_whose_cow_objects_could_share_a_name_are_refused() {
    use maxoid_cowproxy::{cow_view, delta_table, CowProxy, DbView};
    use maxoid_sqldb::SqlError;
    assert_eq!(delta_table("t", "delta.app"), delta_table("t_delta", "2eapp"));
    let t = "CREATE TABLE t (_id INTEGER PRIMARY KEY, v TEXT);";
    let t_delta = "CREATE TABLE t_delta (_id INTEGER PRIMARY KEY, v TEXT);";
    let refused = |r: Result<(), SqlError>| matches!(r, Err(SqlError::Unsupported(m)) if m.contains("t_delta"));
    let mut p = CowProxy::new();
    assert!(refused(p.execute_batch(&format!("{t} {t_delta}"))), "one batch");
    assert!(p.db().table_names().is_empty(), "{:?}", p.db().table_names());
    let mut p = CowProxy::new();
    p.execute_batch(t).unwrap();
    assert!(refused(p.execute_batch(t_delta)), "a second registration");
    assert_eq!(p.db().table_names(), vec!["t".to_string()]);
    // A user view's COW views share the namespace too.
    let mut p = CowProxy::new();
    p.execute_batch(t).unwrap();
    assert!(refused(p.register_user_view("CREATE VIEW t_delta AS SELECT v FROM t")), "a view");
    assert!(!p.db().has_view("t_delta"), "the refused view was created");
    // Nor was it registered: a fork of `t` builds no COW instance of it.
    p.insert(&DbView::Delegate { initiator: "a".into() }, "t", &[("v", "x".into())]).unwrap();
    assert!(p.db().has_view(&cow_view("t", "a")));
    assert!(!p.db().has_view(&cow_view("t_delta", "a")), "the refused view was registered");
    maxoid::MaxoidSystem::boot().expect("the system providers' schemas register");
}

/// Distinct initiators never share COW objects (S1, S2). For each
/// look-alike pair, on all three providers, in both roles: a delegate of
/// one initiator never reads the other's volatile row — through a direct
/// provider call or through the resolver — and clearing one initiator
/// never discards the other's volatile rows.
#[test]
fn distinct_initiators_never_share_cow_objects() {
    use maxoid_providers::provider::ContentProvider;
    use maxoid_providers::{
        Caller, DownloadsProvider, MediaProvider, SimpleLocator, SystemFiles,
        UserDictionaryProvider,
    };
    let files = || SystemFiles::new(maxoid_vfs::Vfs::new(), SimpleLocator);
    let providers = || -> [Box<dyn ContentProvider>; 3] {
        [
            Box::new(UserDictionaryProvider::new()),
            Box::new(DownloadsProvider::open(files(), None, None)),
            Box::new(MediaProvider::open(files(), None, None)),
        ]
    };
    let column = |rows: Vec<Vec<maxoid_sqldb::Value>>| -> Vec<String> {
        rows.into_iter().map(|r| format!("{:?}", r[0])).collect()
    };
    let secret = format!("{:?}", maxoid_sqldb::Value::from("ALICE_SECRET"));
    for (x, y) in LOOKALIKES {
        for (alice, bob) in [(x, y), (y, x)] {
            let alice_delegate = Caller::delegate("com.viewer", alice);
            let bob_delegate = Caller::delegate("com.viewer", bob);
            // Locked path: direct provider calls.
            for (mut p, (uri, col, _)) in providers().into_iter().zip(PROVIDERS) {
                let uri = Uri::parse(uri).unwrap();
                let args = QueryArgs { projection: vec![col.into()], ..Default::default() };
                let put = |v: &str| ContentValues::new().put(col, v);
                p.insert(&Caller::normal("com.seed"), &uri, &put("public1")).unwrap();
                p.insert(&alice_delegate, &uri, &put("ALICE_SECRET")).unwrap();
                p.insert(&bob_delegate, &uri, &put("bob_draft")).unwrap();
                let bob_sees = column(p.query(&bob_delegate, &uri, &args).unwrap().rows);
                assert!(!bob_sees.contains(&secret), "{uri}: {bob} read {alice}'s row");
                p.clear_volatile(bob).unwrap();
                let alice_sees = column(p.query(&alice_delegate, &uri, &args).unwrap().rows);
                assert!(
                    alice_sees.contains(&secret),
                    "{uri}: clearing {bob} discarded {alice}'s row"
                );
                let bob_sees = column(p.query(&bob_delegate, &uri, &args).unwrap().rows);
                assert_eq!(bob_sees.len(), 1, "{uri}: {bob} sees only the public row");
            }
            // Routed path: the resolver serves reads under the shared lock.
            let sys = maxoid::MaxoidSystem::boot().unwrap();
            for (uri, col, _) in PROVIDERS {
                let uri = Uri::parse(uri).unwrap();
                let args = QueryArgs { projection: vec![col.into()], ..Default::default() };
                let put = |v: &str| ContentValues::new().put(col, v);
                sys.resolver.insert(&alice_delegate, &uri, &put("ALICE_SECRET")).unwrap();
                sys.resolver.insert(&bob_delegate, &uri, &put("bob_draft")).unwrap();
                let (routed, _) = sys.resolver.read_path_stats();
                let bob_sees = column(sys.resolver.query(&bob_delegate, &uri, &args).unwrap().rows);
                assert_eq!(sys.resolver.read_path_stats().0, routed + 1, "{uri}");
                assert!(!bob_sees.contains(&secret), "{uri}: {bob} read {alice}'s row");
            }
            sys.resolver.clear_volatile(bob).unwrap();
            for (uri, col, _) in PROVIDERS {
                let uri = Uri::parse(uri).unwrap();
                let args = QueryArgs { projection: vec![col.into()], ..Default::default() };
                let alice_sees =
                    column(sys.resolver.query(&alice_delegate, &uri, &args).unwrap().rows);
                assert!(
                    alice_sees.contains(&secret),
                    "{uri}: clearing {bob} discarded {alice}'s row"
                );
            }
        }
    }
}

/// A `tmp` query by an initiator that holds no volatile rows returns an
/// empty result — before its delegates ever forked the table and after a
/// Clear-Vol — through a direct provider call and through the resolver,
/// instead of an error naming an internal table.
#[test]
fn tmp_queries_without_volatile_state_are_empty() {
    use maxoid_providers::provider::ContentProvider;
    use maxoid_providers::{Caller, UserDictionaryProvider};
    let words = Uri::parse("content://user_dictionary/words").unwrap();
    let tmp = words.as_volatile();
    let initiator = Caller::normal("com.init");
    let delegate = Caller::delegate("com.viewer", "com.init");
    let args = QueryArgs::default();
    let draft = ContentValues::new().put("word", "draft");

    // Locked path: direct provider calls.
    let mut p = UserDictionaryProvider::new();
    p.insert(&Caller::normal("com.kb"), &words, &ContentValues::new().put("word", "pub")).unwrap();
    assert_eq!(p.query(&initiator, &tmp, &args).unwrap().rows, Vec::<Vec<_>>::new());
    p.insert(&delegate, &words, &draft).unwrap();
    assert_eq!(p.query(&initiator, &tmp, &args).unwrap().rows.len(), 1);
    p.clear_volatile("com.init").unwrap();
    assert_eq!(p.query(&initiator, &tmp, &args).unwrap().rows, Vec::<Vec<_>>::new());

    // Routed path: the resolver's shared-lock query.
    let sys = standard_cast();
    sys.resolver.insert(&Caller::normal("com.kb"), &words, &draft).unwrap();
    let routed_query = |expect: usize| {
        let (routed, _) = sys.resolver.read_path_stats();
        let rs = sys.resolver.query(&initiator, &tmp, &args).unwrap();
        assert_eq!(sys.resolver.read_path_stats().0, routed + 1);
        assert_eq!(rs.rows.len(), expect);
    };
    routed_query(0);
    sys.resolver.insert(&delegate, &words, &draft).unwrap();
    routed_query(1);
    sys.resolver.clear_volatile("com.init").unwrap();
    routed_query(0);
}

/// Initiators whose encoded name begins with `delta_`, so their delta
/// tables hold `_delta_` twice (`words_delta_delta_2eapp`), and one that
/// does not.
const DELTA_PREFIXED: [&str; 4] = ["delta.app", "delta_x", "deltaA", "com.alice"];

/// A provider reopened around a recovered database finds every
/// initiator's fork, however its name splits: each adopted initiator
/// holds its one volatile row, and a Clear-Vol leaves its delegate the
/// public row alone and its `tmp` query empty.
fn clear_adopted<S: Send + Sync>(mut p: maxoid_providers::CowProvider<S>, uri: &str, col: &str) {
    use maxoid_providers::provider::ContentProvider;
    use maxoid_providers::Caller;
    let uri = Uri::parse(uri).unwrap();
    let args = QueryArgs { projection: vec![col.into()], ..Default::default() };
    for init in DELTA_PREFIXED {
        assert_eq!(p.delta_row_count(init), 1, "{uri}: recovery lost {init}'s fork");
        p.clear_volatile(init).unwrap();
        assert_eq!(p.delta_row_count(init), 0, "{uri}: {init}");
        let delegate_sees = p.query(&Caller::delegate("com.viewer", init), &uri, &args).unwrap();
        assert_eq!(delegate_sees.rows, vec![vec![maxoid_sqldb::Value::from("public1")]], "{init}");
        let tmp = p.query(&Caller::normal(init), &uri.as_volatile(), &args).unwrap();
        assert!(tmp.rows.is_empty(), "{uri}: {init} kept volatile rows");
    }
}

/// Forks of initiators whose encoded name begins with `delta_` survive
/// recovery on all three providers, so a Clear-Vol after a reopen still
/// discards their volatile rows.
#[test]
fn recovered_forks_of_delta_prefixed_initiators_are_cleared() {
    use maxoid_providers::{
        Caller, DownloadsProvider, MediaProvider, SimpleLocator, SystemFiles,
        UserDictionaryProvider,
    };
    let journal = maxoid_journal::Journal::in_memory(1);
    let sys = maxoid::MaxoidSystem::boot_journaled(journal.clone()).unwrap();
    for (uri, col, _) in PROVIDERS {
        let uri = Uri::parse(uri).unwrap();
        let put = |v: &str| ContentValues::new().put(col, v);
        sys.resolver.insert(&Caller::normal("com.seed"), &uri, &put("public1")).unwrap();
        for init in DELTA_PREFIXED {
            sys.resolver
                .insert(&Caller::delegate("com.viewer", init), &uri, &put("draft"))
                .unwrap();
        }
    }
    journal.flush().unwrap();
    let mut rec = maxoid::durability::recover(&journal.bytes()).unwrap();
    let files = || SystemFiles::new(maxoid_vfs::Vfs::new(), SimpleLocator);
    let [(dict_uri, dict_col, _), (dl_uri, dl_col, _), (media_uri, media_col, _)] = PROVIDERS;
    let dict = UserDictionaryProvider::open(None, Some(rec.take_db("user_dictionary")));
    clear_adopted(dict, dict_uri, dict_col);
    let downloads = DownloadsProvider::open(files(), None, Some(rec.take_db("downloads")));
    clear_adopted(downloads, dl_uri, dl_col);
    let media = MediaProvider::open(files(), None, Some(rec.take_db("media")));
    clear_adopted(media, media_uri, media_col);
}
