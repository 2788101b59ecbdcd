//! Provider edge cases: multi-initiator isolation through the admin view,
//! delegate access to volatile downloads, and resolver-level Clear-Vol.

use maxoid_cowproxy::{ADMIN_INITIATOR_COL, ADMIN_STATE_COL};
use maxoid_kernel::{AppId, ExecContext, Kernel, Pid};
use maxoid_providers::provider::ContentProvider;
use maxoid_providers::{
    Caller, ContentResolver, ContentValues, DownloadRequest, DownloadsProvider, ProviderScope,
    QueryArgs, SimpleLocator, SystemFiles, Uri, UserDictionaryProvider,
};
use maxoid_sqldb::Value;
use maxoid_vfs::{vpath, MountNamespace};

fn words() -> Uri {
    Uri::parse("content://user_dictionary/words").unwrap()
}

#[test]
fn admin_view_tracks_provenance_across_initiators() {
    let mut p = UserDictionaryProvider::new();
    let seeder = Caller::normal("kb");
    p.insert(&seeder, &words(), &ContentValues::new().put("word", "public")).unwrap();
    // Two different initiators' delegates write.
    for (init, word) in [("email", "for-email"), ("dropbox", "for-dropbox")] {
        let del = Caller::delegate("viewer", init);
        p.insert(&del, &words(), &ContentValues::new().put("word", word)).unwrap();
    }
    let admin = p.proxy().admin_query("words").unwrap();
    let state_i = admin.column_index(ADMIN_STATE_COL).unwrap();
    let init_i = admin.column_index(ADMIN_INITIATOR_COL).unwrap();
    let word_i = admin.column_index("word").unwrap();
    let mut summary: Vec<(String, String, String)> = admin
        .rows
        .iter()
        .map(|r| (r[word_i].to_string(), r[state_i].to_string(), r[init_i].to_string()))
        .collect();
    summary.sort();
    assert_eq!(
        summary,
        vec![
            ("for-dropbox".into(), "volatile".into(), "dropbox".into()),
            ("for-email".into(), "volatile".into(), "email".into()),
            ("public".into(), "public".into(), "NULL".into()),
        ]
    );
    // Clearing one initiator leaves the other's volatile rows intact.
    p.clear_volatile("email").unwrap();
    let admin = p.proxy().admin_query("words").unwrap();
    assert_eq!(admin.rows.len(), 2);
}

#[test]
fn delegate_ids_from_different_initiators_may_collide() {
    // Delta keys are per initiator; both start at the same offset, and
    // that is fine because the namespaces never meet.
    let mut p = UserDictionaryProvider::new();
    let d1 = Caller::delegate("viewer", "A");
    let d2 = Caller::delegate("viewer", "B");
    let u1 = p.insert(&d1, &words(), &ContentValues::new().put("word", "x")).unwrap();
    let u2 = p.insert(&d2, &words(), &ContentValues::new().put("word", "y")).unwrap();
    assert_eq!(u1.id(), u2.id());
    let r1 = p.query(&d1, &words(), &QueryArgs::default()).unwrap();
    let r2 = p.query(&d2, &words(), &QueryArgs::default()).unwrap();
    let w = r1.column_index("word").unwrap();
    assert_eq!(r1.rows[0][w], Value::Text("x".into()));
    assert_eq!(r2.rows[0][w], Value::Text("y".into()));
}

#[test]
fn volatile_download_readable_by_same_initiators_delegates() {
    let mut kernel = Kernel::new();
    kernel.net.publish("files.example", "doc.pdf", b"DOC".to_vec());
    let svc = AppId::new("downloads.svc");
    kernel.install_app(&svc);
    let svc_pid: Pid = kernel.spawn(&svc, ExecContext::Normal, MountNamespace::new()).unwrap();
    let files = SystemFiles::new(kernel.vfs().clone(), SimpleLocator);
    let mut p = DownloadsProvider::open(files, None, None);

    let browser = Caller::normal("browser");
    p.enqueue(
        &browser,
        &DownloadRequest {
            url: "files.example/doc.pdf".into(),
            dest: vpath("/sdcard/Download/doc.pdf"),
            title: "doc.pdf".into(),
            headers: vec![],
            volatile: true,
        },
    )
    .unwrap();
    p.process_pending(&mut kernel, svc_pid).unwrap();

    // A delegate of the browser sees the record via its COW view...
    let viewer = Caller::delegate("pdf", "browser");
    let dl_uri = Uri::parse("content://downloads/my_downloads").unwrap();
    let rs = p.query(&viewer, &dl_uri, &QueryArgs::default()).unwrap();
    assert_eq!(rs.rows.len(), 1);
    // ...and the provider resolves the file from the browser's volatile
    // storage (the File-wrapper behaviour).
    assert_eq!(
        p.open_download(Some("browser"), &vpath("/sdcard/Download/doc.pdf")).unwrap(),
        b"DOC"
    );
    // An unrelated initiator's view holds neither record nor file.
    let other = Caller::normal("other");
    assert!(p.query(&other, &dl_uri, &QueryArgs::default()).unwrap().rows.is_empty());
    assert!(p.open_download(None, &vpath("/sdcard/Download/doc.pdf")).is_err());
}

#[test]
fn resolver_clear_volatile_spans_providers() {
    let r = ContentResolver::new();
    r.register(ProviderScope::System, UserDictionaryProvider::new());
    let del = Caller::delegate("viewer", "init");
    r.insert(&del, &words(), &ContentValues::new().put("word", "temp")).unwrap();
    assert_eq!(r.query(&del, &words(), &QueryArgs::default()).unwrap().rows.len(), 1);
    r.clear_volatile("init").unwrap();
    assert!(r.query(&del, &words(), &QueryArgs::default()).unwrap().rows.is_empty());
}

#[test]
fn projection_and_empty_projection_consistency() {
    let mut p = UserDictionaryProvider::new();
    let kb = Caller::normal("kb");
    p.insert(&kb, &words(), &ContentValues::new().put("word", "w").put("frequency", 9)).unwrap();
    // Narrow projection returns exactly the asked columns in order.
    let rs = p
        .query(
            &kb,
            &words(),
            &QueryArgs {
                projection: vec!["frequency".into(), "word".into()],
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(rs.columns, vec!["frequency", "word"]);
    assert_eq!(rs.rows[0], vec![Value::Integer(9), Value::Text("w".into())]);
    // Empty projection means all schema columns.
    let rs = p.query(&kb, &words(), &QueryArgs::default()).unwrap();
    assert_eq!(rs.columns.len(), 5);
}

#[test]
fn update_with_both_set_and_where_params() {
    let mut p = UserDictionaryProvider::new();
    let kb = Caller::normal("kb");
    for w in ["a", "b", "c"] {
        p.insert(&kb, &words(), &ContentValues::new().put("word", w).put("frequency", 1)).unwrap();
    }
    // The proxy renumbers `?` in WHERE after the SET params.
    let n = p
        .update(
            &kb,
            &words(),
            &ContentValues::new().put("frequency", 42),
            &QueryArgs {
                selection: Some("word = ?".into()),
                selection_args: vec![Value::Text("b".into())],
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(n, 1);
    let rs = p
        .query(
            &kb,
            &words(),
            &QueryArgs {
                projection: vec!["word".into()],
                selection: Some("frequency = ?".into()),
                selection_args: vec![Value::Integer(42)],
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Text("b".into())]]);
}
