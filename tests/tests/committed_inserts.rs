//! A committed delegate insert never replaces a public row (S2, §3.3).
//!
//! Every tenant's delegate inserts are keyed from `DELTA_PK_START`, and so
//! are the inserts after a Clear-Vol emptied a delta table, so two
//! committed inserts carry the same delta id. Each must still become its
//! own public row, at the fresh id the gesture reports, stay there across
//! a cold boot, and keep the rows that name it (a thumbnail's `file_id`,
//! a request header's `download_id`). The probes run through
//! `MaxoidSystem::commit_vol` on every system provider, since each one's
//! base tables take a delegate insert.

use maxoid::manifest::MaxoidManifest;
use maxoid::{
    Caller, ContentValues, DeviceBootConfig, DownloadRequest, MaxoidSystem, MediaKind, QueryArgs,
    Uri, VolCommitOutcome, VolCommitPlan,
};
use maxoid_block::FileDevice;
use maxoid_cowproxy::DELTA_PK_START;
use maxoid_sqldb::Value;
use maxoid_vfs::{vpath, Mode};

const DELEGATE: &str = "viewer";

/// A system provider's base table that takes delegate inserts, and the
/// text column a probe writes its word to.
struct Target {
    authority: &'static str,
    table: &'static str,
    uri: &'static str,
    column: &'static str,
}

const TARGETS: [Target; 3] = [
    Target {
        authority: "user_dictionary",
        table: "words",
        uri: "content://user_dictionary/words",
        column: "word",
    },
    Target {
        authority: "downloads",
        table: "downloads",
        uri: "content://downloads/downloads",
        column: "title",
    },
    Target { authority: "media", table: "files", uri: "content://media/files", column: "title" },
];

fn install_cast(sys: &MaxoidSystem) {
    for pkg in ["alice", "bob", DELEGATE, "bystander"] {
        sys.install(pkg, vec![], MaxoidManifest::new()).expect("install");
    }
}

/// A cold boot of the device at `path`, left there by an earlier boot.
fn cold_boot(path: &std::path::Path) -> MaxoidSystem {
    let mut dev = FileDevice::open(path).unwrap();
    dev.set_delete_on_drop(true);
    let sys = MaxoidSystem::boot_from_device(Box::new(dev), &DeviceBootConfig::default())
        .expect("cold boot");
    install_cast(&sys);
    sys
}

/// A journaled system on a fresh file device that outlives it, and the
/// device's path.
fn device_boot(tag: &str) -> (MaxoidSystem, std::path::PathBuf) {
    let mut dev = FileDevice::temp(tag).unwrap();
    dev.set_delete_on_drop(false);
    let path = dev.path().to_path_buf();
    let sys =
        MaxoidSystem::boot_from_device(Box::new(dev), &DeviceBootConfig::default()).expect("boot");
    install_cast(&sys);
    (sys, path)
}

/// Makes everything logged so far durable and shuts the system down.
fn power_off(sys: MaxoidSystem) {
    sys.journal().expect("journaled").flush().unwrap();
}

/// `caller` inserts `word`; returns the row id.
fn insert_as(sys: &MaxoidSystem, t: &Target, caller: &Caller, word: &str) -> i64 {
    let uri = Uri::parse(t.uri).unwrap();
    let values = ContentValues::new().put(t.column, word);
    let row = sys.resolver.insert(caller, &uri, &values);
    row.expect("insert").id().expect("a row uri")
}

/// `initiator`'s delegate inserts `word`; returns the delta row id.
fn delegate_insert(sys: &MaxoidSystem, t: &Target, initiator: &str, word: &str) -> i64 {
    insert_as(sys, t, &Caller::delegate(DELEGATE, initiator), word)
}

/// `initiator` commits its delegates' rows `(authority, table, id)` (and
/// keeps the rest).
fn try_commit(
    sys: &MaxoidSystem,
    initiator: &str,
    rows: &[(&str, &str, i64)],
) -> maxoid::SystemResult<VolCommitOutcome> {
    let plan = VolCommitPlan {
        provider_rows: rows.iter().map(|(a, t, id)| (a.to_string(), t.to_string(), *id)).collect(),
        ..VolCommitPlan::default()
    };
    sys.commit_vol(initiator, &plan)
}

/// As [`try_commit`]; each row must be committed. Returns the public ids
/// the gesture reports, in plan order.
fn commit_rows(sys: &MaxoidSystem, initiator: &str, rows: &[(&str, &str, i64)]) -> Vec<i64> {
    let out = try_commit(sys, initiator, rows).expect("commit_vol");
    assert_eq!(out.rows_committed, rows.len(), "{rows:?}");
    let landed = out.public_rows.iter().zip(rows);
    landed
        .map(|((a, t, public), (authority, table, _))| {
            assert_eq!((a.as_str(), t.as_str()), (*authority, *table));
            *public
        })
        .collect()
}

/// `initiator` commits its delegate's row `id` of the target table;
/// returns the public id the gesture reports.
fn commit(sys: &MaxoidSystem, t: &Target, initiator: &str, id: i64) -> i64 {
    commit_rows(sys, initiator, &[(t.authority, t.table, id)])[0]
}

/// The `(id, text)` pairs of `column` in every row `caller` sees at `uri`
/// where `filter` holds (`"1"` for all).
fn pairs(
    sys: &MaxoidSystem,
    caller: &Caller,
    uri: &str,
    column: &str,
    filter: (&str, Vec<Value>),
) -> Vec<(i64, String)> {
    let args = QueryArgs {
        projection: vec!["_id".into(), column.into()],
        selection: Some(filter.0.into()),
        selection_args: filter.1,
        sort_order: Some("_id".into()),
    };
    let rs = sys.resolver.query(caller, &Uri::parse(uri).unwrap(), &args).expect("query");
    rs.rows
        .into_iter()
        .filter_map(|r| match (&r[0], &r[1]) {
            (Value::Integer(id), Value::Text(w)) => Some((*id, w.clone())),
            _ => None,
        })
        .collect()
}

/// `(id, word)` of every row `caller` sees in the target table.
fn rows_seen(sys: &MaxoidSystem, t: &Target, caller: &Caller) -> Vec<(i64, String)> {
    pairs(sys, caller, t.uri, t.column, ("1", vec![]))
}

/// How many rows `caller` sees holding `word`.
fn seen(sys: &MaxoidSystem, t: &Target, caller: &Caller, word: &str) -> usize {
    rows_seen(sys, t, caller).iter().filter(|(_, w)| w == word).count()
}

/// Asserts that a bystander sees each of `rows` once, at its id.
fn public_once(sys: &MaxoidSystem, t: &Target, rows: &[(i64, String)]) {
    let public = rows_seen(sys, t, &Caller::normal("bystander"));
    for (id, word) in rows {
        assert!(public.contains(&(*id, word.clone())), "{}: {word} not at {id}", t.authority);
        let n = public.iter().filter(|(_, w)| w == word).count();
        assert_eq!(n, 1, "{}: {word} in {public:?}", t.authority);
    }
}

/// Alice's and Bob's delegates each insert a word, and each initiator
/// commits it: both inserts carry the first delta id, and both words
/// become public rows of their own, at the ids the gestures report.
fn two_tenants(sys: &MaxoidSystem, t: &Target) -> [(i64, String); 2] {
    let (a_word, b_word) = (format!("alice-{}", t.table), format!("bob-{}", t.table));
    let a = delegate_insert(sys, t, "alice", &a_word);
    let b = delegate_insert(sys, t, "bob", &b_word);
    assert_eq!((a, b), (DELTA_PK_START, DELTA_PK_START), "{}", t.authority);
    let a_public = commit(sys, t, "alice", a);
    let b_public = commit(sys, t, "bob", b);
    assert_ne!(a_public, b_public, "{}: two commits reported one row", t.authority);
    [(a_public, a_word), (b_public, b_word)]
}

#[test]
fn two_tenants_committed_inserts_both_land() {
    for t in &TARGETS {
        let sys = MaxoidSystem::boot().expect("boot");
        install_cast(&sys);
        let landed = two_tenants(&sys, t);
        public_once(&sys, t, &landed);
        // Each word once to each committing initiator's delegate too,
        // before any Clear-Vol.
        for caller in [Caller::delegate(DELEGATE, "alice"), Caller::delegate(DELEGATE, "bob")] {
            for (_, word) in &landed {
                assert_eq!(seen(&sys, t, &caller, word), 1, "{}: {caller:?} {word}", t.authority);
            }
        }
    }
}

#[test]
fn a_commit_after_clear_vol_keeps_the_earlier_one() {
    for t in &TARGETS {
        let sys = MaxoidSystem::boot().expect("boot");
        install_cast(&sys);
        let first = delegate_insert(&sys, t, "alice", "first");
        let first_public = commit(&sys, t, "alice", first);
        sys.clear_vol("alice").expect("clear_vol");
        let second = delegate_insert(&sys, t, "alice", "second");
        assert_eq!(second, first, "{}: an emptied delta table numbers from the start", t.authority);
        let second_public = commit(&sys, t, "alice", second);
        assert_ne!(first_public, second_public, "{}", t.authority);
        let landed = [(first_public, "first".into()), (second_public, "second".into())];
        public_once(&sys, t, &landed);
        for word in ["first", "second"] {
            let caller = Caller::delegate(DELEGATE, "alice");
            assert_eq!(seen(&sys, t, &caller, word), 1, "{}: {word}", t.authority);
        }
    }
}

#[test]
fn committed_inserts_survive_a_cold_boot_at_their_reported_ids() {
    let (sys, path) = device_boot("committed-inserts");
    let landed: Vec<[(i64, String); 2]> = TARGETS.iter().map(|t| two_tenants(&sys, t)).collect();
    power_off(sys);

    let sys = cold_boot(&path);
    for (t, landed) in TARGETS.iter().zip(&landed) {
        public_once(&sys, t, landed);
        // A commit after the boot takes an id of its own too.
        let next = delegate_insert(&sys, t, "alice", "after-boot");
        let next = commit(&sys, t, "alice", next);
        let mut all = landed.to_vec();
        all.push((next, "after-boot".into()));
        public_once(&sys, t, &all);
    }
}

/// The ids of `initiator`'s volatile rows at `uri` whose `link` is
/// `parent`; `text` is one of their text columns.
fn volatile_children(
    sys: &MaxoidSystem,
    initiator: &str,
    uri: &str,
    (link, text): (&str, &str),
    parent: i64,
) -> Vec<i64> {
    let filter = (format!("{link} = ?"), vec![Value::Integer(parent)]);
    let rows = pairs(sys, &Caller::normal(initiator), uri, text, (&filter.0, filter.1));
    rows.into_iter().map(|(id, _)| id).collect()
}

/// A parent row each initiator committed with its children, in one plan
/// that lists the parent first: a scanned file and its thumbnail, or a
/// volatile download and its request headers. `parent` is the public id
/// and title, `children` the child rows' texts.
struct Family {
    initiator: &'static str,
    authority: &'static str,
    parent: (i64, String),
    children: Vec<String>,
}

/// `initiator`'s delegate scans a photo titled `<initiator>-photo`: a
/// `files` row and a `thumbnails` row naming it, both volatile. Returns
/// their ids.
fn scan_photo(sys: &MaxoidSystem, initiator: &str) -> (i64, i64) {
    let pid = sys.launch_as_delegate(DELEGATE, initiator).expect("delegate");
    let path = vpath(&format!("/storage/sdcard/DCIM/{initiator}.jpg"));
    let title = format!("{initiator}-photo");
    let file = sys.scan_media(pid, &path, MediaKind::Image, &title, 64).expect("scan");
    let uri = "content://media/tmp/thumbnails";
    let thumbs = volatile_children(sys, initiator, uri, ("file_id", "_data"), file);
    assert_eq!(thumbs.len(), 1, "{initiator}: {thumbs:?}");
    (file, thumbs[0])
}

/// `initiator`'s delegate scans a photo (see [`scan_photo`]), and
/// `initiator` commits its file and thumbnail.
fn scan_and_commit(sys: &MaxoidSystem, initiator: &'static str) -> Family {
    let (file, thumb) = scan_photo(sys, initiator);
    let file =
        commit_rows(sys, initiator, &[("media", "files", file), ("media", "thumbnails", thumb)])[0];
    let title = format!("{initiator}-photo");
    let thumb = format!("/storage/sdcard/DCIM/.thumbnails/{initiator}.jpg.thumb");
    Family { initiator, authority: "media", parent: (file, title), children: vec![thumb] }
}

/// `initiator` enqueues a volatile download with two request headers:
/// a `downloads` row and two `request_headers` rows naming it. Commits
/// all three.
fn download_and_commit(sys: &MaxoidSystem, initiator: &'static str) -> Family {
    let pid = sys.launch(initiator).expect("launch");
    let title = format!("{initiator}-download");
    let headers = vec![
        (format!("X-{initiator}-1"), "one".to_string()),
        (format!("X-{initiator}-2"), "two".to_string()),
    ];
    let req = DownloadRequest {
        url: format!("files.example/{initiator}.pdf"),
        dest: vpath(&format!("/storage/sdcard/Download/{initiator}.pdf")),
        title: title.clone(),
        headers: headers.clone(),
        volatile: true,
    };
    let download = sys.enqueue_download(pid, &req).expect("enqueue");
    let uri = "content://downloads/tmp/request_headers";
    let rows = volatile_children(sys, initiator, uri, ("download_id", "header"), download);
    assert_eq!(rows.len(), 2, "{initiator}: {rows:?}");
    let mut plan = vec![("downloads", "downloads", download)];
    plan.extend(rows.iter().map(|&id| ("downloads", "request_headers", id)));
    let download = commit_rows(sys, initiator, &plan)[0];
    Family {
        initiator,
        authority: "downloads",
        parent: (download, title),
        children: headers.into_iter().map(|(h, _)| h).collect(),
    }
}

/// Asserts that a bystander sees `f`'s parent at its id and exactly its
/// children naming that id.
fn linked(sys: &MaxoidSystem, f: &Family) {
    let bystander = Caller::normal("bystander");
    let (parents, children, link, text) = match f.authority {
        "media" => ("content://media/files", "content://media/thumbnails", "file_id", "_data"),
        _ => (
            "content://downloads/downloads",
            "content://downloads/request_headers",
            "download_id",
            "header",
        ),
    };
    let (id, title) = &f.parent;
    let public = pairs(sys, &bystander, parents, "title", ("_id = ?", vec![Value::Integer(*id)]));
    assert_eq!(public, vec![(*id, title.clone())], "{}", f.initiator);
    let filter = format!("{link} = ?");
    let named = pairs(sys, &bystander, children, text, (&filter, vec![Value::Integer(*id)]));
    let mut named: Vec<String> = named.into_iter().map(|(_, t)| t).collect();
    named.sort();
    assert_eq!(named, f.children, "{}: the children naming {id}", f.initiator);
}

#[test]
fn committed_parents_keep_their_children_across_a_cold_boot() {
    let (sys, path) = device_boot("committed-families");
    let families: Vec<Family> = ["alice", "bob"]
        .into_iter()
        .flat_map(|init| [scan_and_commit(&sys, init), download_and_commit(&sys, init)])
        .collect();
    for f in &families {
        linked(&sys, f);
    }
    power_off(sys);

    let sys = cold_boot(&path);
    for f in &families {
        linked(&sys, f);
    }
}

/// The owner's insert between Bob's delegate insert and Bob's commit
/// takes no id Bob's commit then replaces, and Alice's earlier commit
/// survives both.
#[test]
fn an_owner_insert_before_a_tenants_commit_is_not_replaced() {
    for t in &TARGETS {
        let sys = MaxoidSystem::boot().expect("boot");
        install_cast(&sys);
        let a = delegate_insert(&sys, t, "alice", "alice");
        let a = commit(&sys, t, "alice", a);
        let b = delegate_insert(&sys, t, "bob", "bob");
        let owner = insert_as(&sys, t, &Caller::normal("bystander"), "owner");
        let b = commit(&sys, t, "bob", b);
        public_once(&sys, t, &[(a, "alice".into()), (b, "bob".into()), (owner, "owner".into())]);
    }
}

/// The owner deletes its top public row while Bob's delegate holds a
/// copy-up of it; Alice then commits an insert and Bob his update. The
/// insert takes no id of the deleted row, so both commits land.
#[test]
fn a_deleted_top_row_is_not_given_to_a_committed_insert() {
    for t in &TARGETS {
        let sys = MaxoidSystem::boot().expect("boot");
        install_cast(&sys);
        let owner = Caller::normal("bystander");
        let top = insert_as(&sys, t, &owner, "top");
        let uri = Uri::parse(t.uri).unwrap().with_id(top);
        let edit = ContentValues::new().put(t.column, "bob-edit");
        let bob = Caller::delegate(DELEGATE, "bob");
        assert_eq!(sys.resolver.update(&bob, &uri, &edit, &QueryArgs::default()).unwrap(), 1);
        assert_eq!(sys.resolver.delete(&owner, &uri, &QueryArgs::default()).unwrap(), 1);
        let a = delegate_insert(&sys, t, "alice", "alice");
        let a = commit(&sys, t, "alice", a);
        assert_ne!(a, top, "{}: the deleted row's id went to an insert", t.authority);
        assert_eq!(commit(&sys, t, "bob", top), top, "{}", t.authority);
        public_once(&sys, t, &[(a, "alice".into()), (top, "bob-edit".into())]);
    }
}

/// The owner deletes its top public row while Bob's delegate holds a
/// copy-up of it, then inserts a row of its own; Bob then commits his
/// update. The owner's insert takes no id of the deleted row, so Bob's
/// commit replaces nothing, and both rows are there after a cold boot.
#[test]
fn an_owner_insert_after_deleting_a_copied_up_row_is_not_replaced() {
    let (sys, path) = device_boot("owner-insert-floor");
    let owner = Caller::normal("bystander");
    let bob = Caller::delegate(DELEGATE, "bob");
    let mut landed = Vec::new();
    for t in &TARGETS {
        let top = insert_as(&sys, t, &owner, "top");
        let uri = Uri::parse(t.uri).unwrap().with_id(top);
        let edit = ContentValues::new().put(t.column, "bob-edit");
        assert_eq!(sys.resolver.update(&bob, &uri, &edit, &QueryArgs::default()).unwrap(), 1);
        assert_eq!(sys.resolver.delete(&owner, &uri, &QueryArgs::default()).unwrap(), 1);
        let new = insert_as(&sys, t, &owner, "owner-new");
        assert_ne!(new, top, "{}: the deleted row's id went to the owner's insert", t.authority);
        assert_eq!(commit(&sys, t, "bob", top), top, "{}", t.authority);
        let rows = [(top, "bob-edit".to_string()), (new, "owner-new".to_string())];
        public_once(&sys, t, &rows);
        landed.push(rows);
    }
    power_off(sys);

    let sys = cold_boot(&path);
    for (t, rows) in TARGETS.iter().zip(&landed) {
        public_once(&sys, t, rows);
    }
}

/// A child row commits after its parent, not before: committing a
/// thumbnail whose file is still volatile is refused (the name would
/// dangle once public) and changes nothing; committing the file alone
/// moves the initiator's volatile thumbnail to the file's public id, so
/// the thumbnail committed later names the public file.
#[test]
fn a_child_commits_after_its_parent() {
    let sys = MaxoidSystem::boot().expect("boot");
    install_cast(&sys);
    let (file, thumb) = scan_photo(&sys, "alice");
    let uri = "content://media/tmp/thumbnails";
    let early = try_commit(&sys, "alice", &[("media", "thumbnails", thumb)]);
    assert!(early.is_err(), "a thumbnail of a volatile file was committed: {early:?}");
    let public = commit_rows(&sys, "alice", &[("media", "files", file)])[0];
    assert_eq!(volatile_children(&sys, "alice", uri, ("file_id", "_data"), public), vec![thumb]);
    commit_rows(&sys, "alice", &[("media", "thumbnails", thumb)]);
    let thumb = "/storage/sdcard/DCIM/.thumbnails/alice.jpg.thumb".to_string();
    let family = Family {
        initiator: "alice",
        authority: "media",
        parent: (public, "alice-photo".into()),
        children: vec![thumb],
    };
    linked(&sys, &family);
}

/// A refused plan commits none of its rows: Alice's delegate inserts a
/// word and scans a photo, and Alice commits the word with the photo's
/// thumbnail but not its file. The thumbnail would name a volatile file,
/// so the plan is refused, and the word stays volatile: a bystander sees
/// it neither live nor after a cold boot, and Alice's delegate sees it
/// once in both.
#[test]
fn a_refused_plan_commits_none_of_its_rows() {
    let (sys, path) = device_boot("refused-plan-rows");
    let dict = &TARGETS[0];
    let word = delegate_insert(&sys, dict, "alice", "alice-word");
    let (_, thumb) = scan_photo(&sys, "alice");
    let plan = [(dict.authority, dict.table, word), ("media", "thumbnails", thumb)];
    let refused = try_commit(&sys, "alice", &plan);
    assert!(refused.is_err(), "a thumbnail of a volatile file was committed: {refused:?}");
    let volatile = |sys: &MaxoidSystem| {
        assert_eq!(seen(sys, dict, &Caller::normal("bystander"), "alice-word"), 0);
        assert_eq!(seen(sys, dict, &Caller::delegate(DELEGATE, "alice"), "alice-word"), 1);
    };
    volatile(&sys);
    power_off(sys);
    volatile(&cold_boot(&path));
}

/// A refused plan commits none of its files: Alice commits a file her
/// delegate wrote together with a thumbnail of a volatile photo. The
/// thumbnail is refused, so the file stays volatile, live and after a
/// cold boot.
#[test]
fn a_refused_plan_commits_none_of_its_files() {
    let (sys, path) = device_boot("refused-plan-files");
    let pid = sys.launch_as_delegate(DELEGATE, "alice").expect("delegate");
    let notes = vpath("/storage/sdcard/notes.txt");
    sys.kernel.write(pid, &notes, b"draft", Mode::PUBLIC).expect("write");
    let (_, thumb) = scan_photo(&sys, "alice");
    let plan = VolCommitPlan {
        external: vec!["notes.txt".into()],
        provider_rows: vec![("media".into(), "thumbnails".into(), thumb)],
        ..VolCommitPlan::default()
    };
    let refused = sys.commit_vol("alice", &plan);
    assert!(refused.is_err(), "a thumbnail of a volatile file was committed: {refused:?}");
    let volatile = |sys: &MaxoidSystem| {
        let files = sys.volatile_files("alice").expect("volatile files");
        assert!(files.iter().any(|e| e.rel == "notes.txt" && !e.internal), "{files:?}");
        let bystander = sys.launch("bystander").expect("launch");
        assert!(!sys.kernel.exists(bystander, &notes), "the file went public");
    };
    volatile(&sys);
    power_off(sys);
    volatile(&cold_boot(&path));
}
