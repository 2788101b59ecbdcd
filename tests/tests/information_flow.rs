//! Figure 1 integration tests: every permitted information-flow edge
//! works, every forbidden edge is blocked, across files, providers, IPC,
//! network and services — the S1-S4 security goals end to end.

use maxoid::{ContentValues, Intent, QueryArgs, Uri};
use maxoid_tests::{standard_cast, write_private, write_public, VIEW};
use maxoid_vfs::{vpath, Mode};

/// Priv(A) -> B^A: a delegate reads its initiator's private state.
#[test]
fn edge_priv_a_to_delegate() {
    let sys = standard_cast();
    let a = sys.launch("initiator").unwrap();
    let secret = write_private(&sys, a, "initiator", "secret.txt", b"priv(A)");
    let d =
        sys.start_activity(Some(a), &Intent::new(VIEW).with_data(secret.as_str())).unwrap().pid();
    assert_eq!(sys.kernel.read(d, &secret).unwrap(), b"priv(A)");
}

/// B^A -> Vol(A): a delegate's public writes land in volatile state,
/// visible to A and to co-delegates, not to the public.
#[test]
fn edge_delegate_to_vol_a() {
    let sys = standard_cast();
    let a = sys.launch("initiator").unwrap();
    let d = sys.launch_as_delegate("viewer", "initiator").unwrap();
    sys.kernel.write(d, &vpath("/storage/sdcard/out.txt"), b"tainted", Mode::PUBLIC).unwrap();
    // A observes it (Vol(A) <-> A).
    assert_eq!(sys.kernel.read(a, &vpath("/storage/sdcard/tmp/out.txt")).unwrap(), b"tainted");
    // A co-delegate of A sees it at the original name (Pub(x^A)).
    sys.install("scanner", vec![], maxoid::MaxoidManifest::new()).unwrap();
    let d2 = sys.launch_as_delegate("scanner", "initiator").unwrap();
    assert_eq!(sys.kernel.read(d2, &vpath("/storage/sdcard/out.txt")).unwrap(), b"tainted");
    // The bystander sees nothing (S1).
    let x = sys.launch("bystander").unwrap();
    assert!(!sys.kernel.exists(x, &vpath("/storage/sdcard/out.txt")));
    assert!(!sys.kernel.exists(x, &vpath("/storage/sdcard/tmp/out.txt")));
}

/// B^A -> Priv(B^A): private writes are confined to the fork; Priv(B) is
/// untouched (S4) and A cannot read the fork (S3).
#[test]
fn edge_delegate_to_priv_fork() {
    let sys = standard_cast();
    let a = sys.launch("initiator").unwrap();
    let d = sys.launch_as_delegate("viewer", "initiator").unwrap();
    let fork_file = write_private(&sys, d, "viewer", "notes.db", b"in fork");
    // A cannot read Priv(B^A): the path resolves inside A's namespace to
    // nothing it can reach.
    assert!(sys.kernel.read(a, &fork_file).is_err());
    // A normal run of B does not see the fork's data (B^A was killed by
    // the conflicting launch, per the §6.2 rule).
    let b = sys.launch("viewer").unwrap();
    assert!(!sys.kernel.exists(b, &fork_file));
}

/// Pub(all) -> everyone: public data stays readable by delegates (U1),
/// and initiator updates remain visible until the unilateral fork (U2).
#[test]
fn edge_pub_all_visibility() {
    let sys = standard_cast();
    let x = sys.launch("bystander").unwrap();
    let f = write_public(&sys, x, "news.txt", b"v1");
    let d = sys.launch_as_delegate("viewer", "initiator").unwrap();
    assert_eq!(sys.kernel.read(d, &f).unwrap(), b"v1");
    // The initiator-side world updates the file; the delegate sees it.
    sys.kernel.write(x, &f, b"v2", Mode::PUBLIC).unwrap();
    assert_eq!(sys.kernel.read(d, &f).unwrap(), b"v2");
    // After the delegate writes the file, it stops following updates.
    sys.kernel.write(d, &f, b"delegate", Mode::PUBLIC).unwrap();
    sys.kernel.write(x, &f, b"v3", Mode::PUBLIC).unwrap();
    assert_eq!(sys.kernel.read(d, &f).unwrap(), b"delegate");
    // The public world never saw the delegate version.
    assert_eq!(sys.kernel.read(x, &f).unwrap(), b"v3");
}

/// Forbidden edge: delegate -> network (ENETUNREACH).
#[test]
fn forbidden_delegate_network() {
    let sys = standard_cast();
    sys.kernel.net.publish("c2.example", "drop", vec![]);
    let d = sys.launch_as_delegate("viewer", "initiator").unwrap();
    assert!(sys.kernel.connect(d, "c2.example").is_err());
    assert!(sys.kernel.http_get(d, "c2.example/drop").is_err());
    // The same app regains network when run normally again.
    let b = sys.launch("viewer").unwrap();
    assert!(sys.kernel.connect(b, "c2.example").is_ok());
}

/// Forbidden edge: delegate -> unrelated app via Binder.
#[test]
fn forbidden_delegate_binder() {
    let sys = standard_cast();
    let a = sys.launch("initiator").unwrap();
    let x = sys.launch("bystander").unwrap();
    let d = sys.launch_as_delegate("viewer", "initiator").unwrap();
    assert!(sys.kernel.binder_check_pid(d, x).is_err());
    assert!(sys.kernel.binder_check_pid(d, a).is_ok());
}

/// Forbidden edges: delegate -> Bluetooth / SMS; clipboard confinement.
#[test]
fn forbidden_delegate_services() {
    let sys = standard_cast();
    let d = sys.launch_as_delegate("viewer", "initiator").unwrap();
    let dctx = sys.kernel.process(d).unwrap().ctx.clone();
    assert!(sys.bluetooth.send(&dctx, b"leak").is_err());
    assert!(sys.sms.send(&dctx, "+1", "leak").is_err());
    // Clipboard: the delegate's copy never reaches the global clipboard.
    sys.clipboard.set(&maxoid::ExecContext::Normal, "public clip");
    sys.clipboard.set(&dctx, "secret clip");
    assert_eq!(sys.clipboard.get(&maxoid::ExecContext::Normal).as_deref(), Some("public clip"));
    assert_eq!(sys.clipboard.get(&dctx).as_deref(), Some("secret clip"));
}

/// Provider flows: the same Figure 1 edges through a system content
/// provider instead of files.
#[test]
fn provider_edges_mirror_file_edges() {
    let sys = standard_cast();
    let words = Uri::parse("content://user_dictionary/words").unwrap();
    let x = sys.launch("bystander").unwrap();
    sys.cp_insert(x, &words, &ContentValues::new().put("word", "public")).unwrap();

    let a = sys.launch("initiator").unwrap();
    let d = sys.launch_as_delegate("viewer", "initiator").unwrap();
    // U1: the delegate sees the pre-existing public row.
    assert_eq!(sys.cp_query(d, &words, &QueryArgs::default()).unwrap().rows.len(), 1);
    // The delegate updates it: copy-on-write.
    sys.cp_update(
        d,
        &words.with_id(1),
        &ContentValues::new().put("word", "tainted"),
        &QueryArgs::default(),
    )
    .unwrap();
    // Delegate reads its write; the bystander reads the original.
    let drs = sys.cp_query(d, &words.with_id(1), &QueryArgs::default()).unwrap();
    assert_eq!(drs.rows[0][drs.column_index("word").unwrap()].to_string(), "tainted");
    let xrs = sys.cp_query(x, &words.with_id(1), &QueryArgs::default()).unwrap();
    assert_eq!(xrs.rows[0][xrs.column_index("word").unwrap()].to_string(), "public");
    // A retrieves the volatile copy through the tmp URI.
    let ars = sys.cp_query(a, &words.as_volatile(), &QueryArgs::default()).unwrap();
    assert_eq!(ars.rows.len(), 1);
    // Clear-Vol discards it.
    sys.clear_vol("initiator").unwrap();
    let drs = sys.cp_query(d, &words.with_id(1), &QueryArgs::default()).unwrap();
    assert_eq!(drs.rows[0][drs.column_index("word").unwrap()].to_string(), "public");
}

/// Invocation-transitivity: B^A invoking C yields C^A; broadcasts from
/// B^A stay inside A's delegate set; nested delegation fails.
#[test]
fn ipc_transitivity_and_broadcast() {
    let sys = standard_cast();
    sys.install(
        "editor",
        vec![maxoid::AppIntentFilter::new("EDIT", None)],
        maxoid::MaxoidManifest::new(),
    )
    .unwrap();
    let a = sys.launch("initiator").unwrap();
    let d = sys
        .start_activity(Some(a), &Intent::new(VIEW).with_data("/storage/sdcard/f"))
        .unwrap()
        .pid();
    // B^A invokes the editor: it becomes a delegate of A, not of B.
    let e = sys.start_activity(Some(d), &Intent::new("EDIT")).unwrap().pid();
    assert_eq!(
        sys.kernel.process(e).unwrap().ctx,
        maxoid::ExecContext::OnBehalfOf(maxoid::AppId::new("initiator"))
    );
    // Nested delegation is refused.
    let err = sys.start_activity(Some(d), &Intent::new("EDIT").as_delegate());
    assert!(matches!(err, Err(maxoid::SystemError::Ams(maxoid::AmsError::NestedDelegation))));
    // Broadcast from the delegate reaches only A and A's delegates.
    let sender = sys.kernel.process(d).unwrap();
    let targets = sys
        .broadcast_targets(Some((&sender.app.clone(), &sender.ctx.clone())), &Intent::new("EDIT"));
    for pid in targets {
        let p = sys.kernel.process(pid).unwrap();
        assert!(
            p.app.pkg() == "initiator"
                || p.ctx == maxoid::ExecContext::OnBehalfOf(maxoid::AppId::new("initiator")),
            "broadcast escaped to {} ({})",
            p.app,
            p.ctx
        );
    }
}

/// The initiator itself is never restricted: S1-S4 protect, they do not
/// privilege.
#[test]
fn initiators_keep_stock_behaviour() {
    let sys = standard_cast();
    sys.kernel.net.publish("api.example", "sync", b"ok".to_vec());
    let a = sys.launch("initiator").unwrap();
    // Network, public writes, provider inserts: all stock.
    assert_eq!(sys.kernel.http_get(a, "api.example/sync").unwrap(), b"ok");
    write_public(&sys, a, "shared.txt", b"x");
    let words = Uri::parse("content://user_dictionary/words").unwrap();
    sys.cp_insert(a, &words, &ContentValues::new().put("word", "w")).unwrap();
    // But it cannot touch other apps' private state.
    let v = sys.launch("viewer").unwrap();
    let vpriv = write_private(&sys, v, "viewer", "own.db", b"viewer data");
    assert!(sys.kernel.read(a, &vpriv).is_err());
}
