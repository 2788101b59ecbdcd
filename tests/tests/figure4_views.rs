//! Figure 4 integration test: the three views of files (A, B^A, X)
//! through the full system — initiator private external dirs, unilateral
//! copy-on-write, the tmp naming pattern, commit and discard.

use maxoid::manifest::MaxoidManifest;
use maxoid::{MaxoidSystem, VolCommitPlan};
use maxoid_vfs::{vpath, Mode};

fn boot() -> MaxoidSystem {
    let sys = MaxoidSystem::boot().expect("boot");
    sys.install("A", vec![], MaxoidManifest::new().private_ext_dir("data/A")).unwrap();
    sys.install("B", vec![], MaxoidManifest::new().private_ext_dir("data/B")).unwrap();
    sys.install("X", vec![], MaxoidManifest::new()).unwrap();
    sys
}

#[test]
fn figure4_three_views() {
    let sys = boot();
    let a = sys.launch("A").unwrap();
    let x = sys.launch("X").unwrap();
    let file_b = vpath("/storage/sdcard/data/A/b");
    let file_c = vpath("/storage/sdcard/c");
    sys.kernel.write(a, &file_b, b"b0", Mode::PUBLIC).unwrap();
    sys.kernel.write(x, &file_c, b"c0", Mode::PUBLIC).unwrap();

    let d = sys.launch_as_delegate("B", "A").unwrap();
    // U1: both files visible to B^A initially, same content.
    assert_eq!(sys.kernel.read(d, &file_b).unwrap(), b"b0");
    assert_eq!(sys.kernel.read(d, &file_c).unwrap(), b"c0");

    // B^A edits b and c.
    sys.kernel.write(d, &file_b, b"b1", Mode::PUBLIC).unwrap();
    sys.kernel.write(d, &file_c, b"c1", Mode::PUBLIC).unwrap();

    // B^A reads its writes at the original names.
    assert_eq!(sys.kernel.read(d, &file_b).unwrap(), b"b1");
    assert_eq!(sys.kernel.read(d, &file_c).unwrap(), b"c1");
    // A sees originals at original names, updates under tmp.
    assert_eq!(sys.kernel.read(a, &file_b).unwrap(), b"b0");
    // `c` is a public file; A sees the public version.
    assert_eq!(sys.kernel.read(a, &file_c).unwrap(), b"c0");
    assert_eq!(sys.kernel.read(a, &vpath("/storage/sdcard/tmp/data/A/b")).unwrap(), b"b1");
    assert_eq!(sys.kernel.read(a, &vpath("/storage/sdcard/tmp/c")).unwrap(), b"c1");
    // X sees only public state, unchanged. X has its *own* (empty) tmp
    // window — different initiators have different views of EXTDIR/tmp —
    // so A's volatile copies are invisible in it.
    assert!(sys.kernel.read(x, &file_b).is_err());
    assert_eq!(sys.kernel.read(x, &file_c).unwrap(), b"c0");
    assert!(!sys.kernel.exists(x, &vpath("/storage/sdcard/tmp/c")));
    assert!(!sys.kernel.exists(x, &vpath("/storage/sdcard/tmp/data/A/b")));
}

#[test]
fn commit_makes_edit_durable_then_discard_cleans() {
    let sys = boot();
    let a = sys.launch("A").unwrap();
    let file_b = vpath("/storage/sdcard/data/A/b");
    sys.kernel.write(a, &file_b, b"b0", Mode::PUBLIC).unwrap();
    let d = sys.launch_as_delegate("B", "A").unwrap();
    sys.kernel.write(d, &file_b, b"b1", Mode::PUBLIC).unwrap();
    sys.kernel.write(d, &vpath("/storage/sdcard/junk.log"), b"side effect", Mode::PUBLIC).unwrap();

    // A commits the edit it wants: b moves into its private branch.
    let plan = VolCommitPlan { external: vec!["data/A/b".into()], ..Default::default() };
    sys.commit_vol("A", &plan).unwrap();
    assert_eq!(sys.kernel.read(a, &file_b).unwrap(), b"b1");

    // Then discards the rest of Vol(A).
    sys.clear_vol("A").unwrap();
    assert!(sys.volatile_files("A").unwrap().is_empty());
    // The committed edit survives; the junk is gone for future delegates.
    assert_eq!(sys.kernel.read(a, &file_b).unwrap(), b"b1");
    let d2 = sys.launch_as_delegate("B", "A").unwrap();
    assert!(!sys.kernel.exists(d2, &vpath("/storage/sdcard/junk.log")));
    assert_eq!(sys.kernel.read(d2, &file_b).unwrap(), b"b1");
}

#[test]
fn delegate_deletion_is_confined_too() {
    let sys = boot();
    let x = sys.launch("X").unwrap();
    let f = vpath("/storage/sdcard/shared.txt");
    sys.kernel.write(x, &f, b"keep me", Mode::PUBLIC).unwrap();
    let d = sys.launch_as_delegate("B", "A").unwrap();
    // The delegate deletes a public file: whiteout in Vol(A).
    sys.kernel.unlink(d, &f).unwrap();
    assert!(!sys.kernel.exists(d, &f));
    // The public copy survives for everyone else.
    assert_eq!(sys.kernel.read(x, &f).unwrap(), b"keep me");
    // Clear-Vol restores the delegate's view as well.
    sys.clear_vol("A").unwrap();
    let d2 = sys.launch_as_delegate("B", "A").unwrap();
    assert_eq!(sys.kernel.read(d2, &f).unwrap(), b"keep me");
}

#[test]
fn append_semantics_match_aufs() {
    // The worst-case microbenchmark path: append to a lower-branch file
    // copies the whole file up, then appends.
    let sys = boot();
    let x = sys.launch("X").unwrap();
    let f = vpath("/storage/sdcard/log.txt");
    sys.kernel.write(x, &f, b"base|", Mode::PUBLIC).unwrap();
    let d = sys.launch_as_delegate("B", "A").unwrap();
    sys.kernel.append(d, &f, b"delegate line").unwrap();
    assert_eq!(sys.kernel.read(d, &f).unwrap(), b"base|delegate line");
    assert_eq!(sys.kernel.read(x, &f).unwrap(), b"base|");
    // A second append stays in the volatile copy.
    sys.kernel.append(d, &f, b"|more").unwrap();
    assert_eq!(sys.kernel.read(d, &f).unwrap(), b"base|delegate line|more");
}

#[test]
fn readdir_views_are_consistent() {
    let sys = boot();
    let a = sys.launch("A").unwrap();
    let x = sys.launch("X").unwrap();
    sys.kernel.write(x, &vpath("/storage/sdcard/pub1.txt"), b"1", Mode::PUBLIC).unwrap();
    let d = sys.launch_as_delegate("B", "A").unwrap();
    sys.kernel.write(d, &vpath("/storage/sdcard/vol1.txt"), b"2", Mode::PUBLIC).unwrap();

    let names = |pid| -> Vec<String> {
        sys.kernel
            .read_dir(pid, &vpath("/storage/sdcard"))
            .unwrap()
            .into_iter()
            .map(|e| e.name)
            .collect()
    };
    // The delegate sees both files merged.
    let dn = names(d);
    assert!(dn.contains(&"pub1.txt".to_string()) && dn.contains(&"vol1.txt".to_string()));
    // X sees only the public file.
    let xn = names(x);
    assert!(xn.contains(&"pub1.txt".to_string()) && !xn.contains(&"vol1.txt".to_string()));
    // A sees the public file plus the tmp window.
    let an = names(a);
    assert!(an.contains(&"pub1.txt".to_string()) && an.contains(&"tmp".to_string()));
}
