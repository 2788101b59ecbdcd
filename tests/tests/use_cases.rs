//! End-to-end replays of the five §7.1 use cases through the app models.

use maxoid::manifest::MaxoidManifest;
use maxoid::{MaxoidSystem, QueryArgs, Uri};
use maxoid_apps::{
    install_observer, install_viewer, AdobeReader, Browser, CamScanner, Dropbox, EBookDroid, Email,
    FileRef, GoogleDrive, WrapperApp,
};
use maxoid_vfs::{vpath, Mode};

/// Use case 1: securing Dropbox — privacy and integrity with zero code
/// changes, only a Maxoid manifest.
#[test]
fn use_case_dropbox() {
    let dropbox = Dropbox::default();
    let reader = AdobeReader::default();
    let mut sys = MaxoidSystem::boot().unwrap();
    sys.kernel.net.publish("dropbox.example", "contract.pdf", b"signed v1".to_vec());
    sys.install(&dropbox.pkg, vec![], dropbox.maxoid_manifest()).unwrap();
    install_viewer(&mut sys, &reader.pkg).unwrap();
    let obs = install_observer(&mut sys).unwrap();

    let dpid = sys.launch(&dropbox.pkg).unwrap();
    let path = dropbox.sync_down(&mut sys, dpid, "contract.pdf").unwrap();

    // Privacy: the observer cannot see Dropbox's files.
    let opid = sys.launch(&obs).unwrap();
    assert!(!sys.kernel.exists(opid, &path));

    // The viewer (delegate) edits the file; sync never uploads it.
    let viewer = dropbox.open_file(&mut sys, dpid, "contract.pdf").unwrap().pid();
    sys.kernel.write(viewer, &path, b"signed v2", Mode::PUBLIC).unwrap();
    assert!(dropbox.sync_up(&mut sys, dpid).unwrap().is_empty());

    // Manual commit path: upload from tmp, then clear Vol.
    dropbox.upload_from_tmp(&mut sys, dpid, "contract.pdf").unwrap();
    assert_eq!(sys.kernel.http_get(dpid, "dropbox.example/contract.pdf").unwrap(), b"signed v2");
    sys.clear_vol(&dropbox.pkg).unwrap();

    // The launcher gesture: a camera app as Dropbox's delegate takes a
    // private photo for it.
    sys.install("camera", vec![], MaxoidManifest::new()).unwrap();
    let cam = sys.launch_as_delegate("camera", &dropbox.pkg).unwrap();
    sys.kernel
        .write(cam, &vpath("/storage/sdcard/DCIM/receipt.jpg"), b"jpeg", Mode::PUBLIC)
        .unwrap();
    let opid2 = sys.launch(&obs).unwrap();
    assert!(!sys.kernel.exists(opid2, &vpath("/storage/sdcard/DCIM/receipt.jpg")));
    assert!(sys.kernel.exists(dpid, &vpath("/storage/sdcard/tmp/DCIM/receipt.jpg")));
}

/// Use case 2: securing Email attachments (VIEW is private; SAVE is an
/// explicit declassification).
#[test]
fn use_case_email() {
    let email = Email::default();
    let reader = AdobeReader::default();
    let mut sys = MaxoidSystem::boot().unwrap();
    sys.install(&email.pkg, vec![], email.maxoid_manifest()).unwrap();
    install_viewer(&mut sys, &reader.pkg).unwrap();
    let obs = install_observer(&mut sys).unwrap();

    let epid = sys.launch(&email.pkg).unwrap();
    let att = email.receive_attachment(&mut sys, epid, "salary.pdf", b"offer details").unwrap();

    // VIEW: the reader runs confined and leaves its copy in Vol only.
    let vpid = email.view_attachment(&mut sys, epid, &att).unwrap().pid();
    let data = sys.kernel.read(vpid, &att).unwrap();
    reader.open(&mut sys, vpid, &FileRef::Content { name: "salary.pdf".into(), data }).unwrap();
    let opid = sys.launch(&obs).unwrap();
    assert!(!sys.kernel.exists(opid, &vpath("/storage/sdcard/Download/salary.pdf")));

    // SAVE: the user explicitly exports; now it is public by choice.
    let out = email.save_attachment(&mut sys, epid, &att).unwrap();
    let opid2 = sys.launch(&obs).unwrap();
    assert_eq!(sys.kernel.read(opid2, &out).unwrap(), b"offer details");
    let dl = Uri::parse("content://downloads/my_downloads").unwrap();
    assert_eq!(sys.cp_query(opid2, &dl, &QueryArgs::default()).unwrap().rows.len(), 1);
}

/// Use case 3: Browser incognito downloads (the 1-line patch).
#[test]
fn use_case_incognito() {
    let browser = Browser::default();
    let mut sys = MaxoidSystem::boot().unwrap();
    sys.kernel.net.publish("files.example", "memo.pdf", b"memo".to_vec());
    sys.install(&browser.pkg, vec![], MaxoidManifest::new()).unwrap();
    let obs = install_observer(&mut sys).unwrap();
    let bpid = sys.launch(&browser.pkg).unwrap();

    // Normal download: public record and file.
    browser.download(&mut sys, bpid, "files.example/memo.pdf", "normal.pdf", false).unwrap();
    // Incognito download: volatile.
    browser.download(&mut sys, bpid, "files.example/memo.pdf", "secret.pdf", true).unwrap();
    sys.pump_downloads().unwrap();
    assert_eq!(sys.download_notifications().len(), 2);

    let opid = sys.launch(&obs).unwrap();
    assert!(sys.kernel.exists(opid, &vpath("/storage/sdcard/Download/normal.pdf")));
    assert!(!sys.kernel.exists(opid, &vpath("/storage/sdcard/Download/secret.pdf")));
    let (pub_n, vol_n) = browser.downloads_list(&mut sys, bpid).unwrap();
    assert_eq!((pub_n, vol_n), (1, 1));

    // Ending the incognito session erases only the volatile download.
    sys.clear_vol(&browser.pkg).unwrap();
    let (pub_n, vol_n) = browser.downloads_list(&mut sys, bpid).unwrap();
    assert_eq!((pub_n, vol_n), (1, 0));
    assert!(sys.kernel.exists(bpid, &vpath("/storage/sdcard/Download/normal.pdf")));
}

/// Use case 4: the wrapper app's system-wide incognito mode.
#[test]
fn use_case_wrapper() {
    let wrapper = WrapperApp::default();
    let scanner = CamScanner::default();
    let mut sys = MaxoidSystem::boot().unwrap();
    sys.install(&wrapper.pkg, vec![], wrapper.maxoid_manifest()).unwrap();
    install_viewer(&mut sys, &scanner.pkg).unwrap();
    let obs = install_observer(&mut sys).unwrap();

    let wpid = sys.launch(&wrapper.pkg).unwrap();
    wrapper.hold_document(&mut sys, wpid, "deed.pdf", b"property deed").unwrap();
    // The "real app" (CamScanner) runs as the wrapper's delegate and
    // leaves all its usual SD-card traces.
    let spid = sys.launch_as_delegate(&scanner.pkg, &wrapper.pkg).unwrap();
    scanner.scan_page(&mut sys, spid, "deed", b"pixels").unwrap();

    // Nothing is publicly visible during or after.
    let opid = sys.launch(&obs).unwrap();
    assert!(!sys.kernel.exists(opid, &vpath("/storage/sdcard/CamScanner/deed.jpg")));
    wrapper.end_session(&mut sys).unwrap();
    assert!(sys.volatile_files(&wrapper.pkg).unwrap().is_empty());
    // Even the scanner's private recent-scans DB from the session is gone.
    let s2 = sys.launch_as_delegate(&scanner.pkg, &wrapper.pkg).unwrap();
    assert!(
        maxoid_apps::dataproc::read_private_lines(&sys, s2, &scanner.pkg, "scans.db").is_empty()
    );
}

/// Use case 5: EBookDroid's persistent private state (the 45-line-style
/// patch) — already covered in unit tests; here the cross-initiator
/// isolation is exercised through the full launcher path.
#[test]
fn use_case_ebookdroid_cross_initiator() {
    let viewer = EBookDroid::default();
    let email = Email::default();
    let dropbox = Dropbox::default();
    let mut sys = MaxoidSystem::boot().unwrap();
    sys.install(&viewer.pkg, vec![], MaxoidManifest::new()).unwrap();
    sys.install(&email.pkg, vec![], email.maxoid_manifest()).unwrap();
    sys.install(&dropbox.pkg, vec![], dropbox.maxoid_manifest()).unwrap();

    let epid = sys.launch(&email.pkg).unwrap();
    let att = email.receive_attachment(&mut sys, epid, "a.pdf", b"A").unwrap();

    let d_email = sys.launch_as_delegate(&viewer.pkg, &email.pkg).unwrap();
    viewer.open(&mut sys, d_email, &att).unwrap();

    // For Dropbox, the recents are empty: pPriv is per initiator.
    let d_dropbox = sys.launch_as_delegate(&viewer.pkg, &dropbox.pkg).unwrap();
    assert!(viewer.recent_files(&sys, d_dropbox).unwrap().is_empty());

    // Back on behalf of email: the attachment is in the merged list.
    let d_email2 = sys.launch_as_delegate(&viewer.pkg, &email.pkg).unwrap();
    assert!(viewer.recent_files(&sys, d_email2).unwrap().iter().any(|r| r.contains("a.pdf")));
}

/// §2.2 case II: Google Drive disclosed-path opens. On stock Android the
/// invoked viewer "can leak information about the files that have been
/// disclosed" (Table 1); under Maxoid the same viewer runs as a delegate
/// and the leak is confined.
#[test]
fn use_case_google_drive() {
    let gdrive = GoogleDrive::default();
    let reader = AdobeReader::default();
    let mut sys = MaxoidSystem::boot().unwrap();
    sys.kernel.net.publish("drive.example", "contract.pdf", b"drive secret".to_vec());
    sys.install(&gdrive.pkg, vec![], MaxoidManifest::new()).unwrap();
    install_viewer(&mut sys, &reader.pkg).unwrap();
    let obs = install_observer(&mut sys).unwrap();

    let gpid = sys.launch(&gdrive.pkg).unwrap();
    let cached = gdrive.cache_file(&mut sys, gpid, "contract.pdf").unwrap();

    // Open with delegate=true (the Maxoid intent flag).
    let vpid = gdrive.open_cached(&mut sys, gpid, &cached, true).unwrap().pid();
    assert!(sys.kernel.process(vpid).unwrap().ctx.is_delegate());
    // The delegate reads the cached file through its view of Priv(drive).
    let data = sys.kernel.read(vpid, &cached).unwrap();
    assert_eq!(data, b"drive secret");
    // It leaves its usual SD-card copy — confined to Vol(drive).
    reader.open(&mut sys, vpid, &FileRef::Content { name: "contract.pdf".into(), data }).unwrap();
    let opid = sys.launch(&obs).unwrap();
    assert!(!sys.kernel.exists(opid, &vpath("/storage/sdcard/Download/contract.pdf")));
    assert!(sys.kernel.exists(gpid, &vpath("/storage/sdcard/tmp/Download/contract.pdf")));
    // One gesture erases the session's traces.
    sys.clear_vol(&gdrive.pkg).unwrap();
    sys.clear_priv(&gdrive.pkg).unwrap();
    assert!(sys.volatile_files(&gdrive.pkg).unwrap().is_empty());
}

/// The paper's note that three of the 77 apps cannot work as delegates
/// because they need network: our delegate fails exactly that way.
#[test]
fn network_dependent_delegate_fails_gracefully() {
    let sys = MaxoidSystem::boot().unwrap();
    sys.kernel.net.publish("convert.example", "api", b"".to_vec());
    sys.install("converter", vec![], MaxoidManifest::new()).unwrap();
    sys.install("docs", vec![], MaxoidManifest::new()).unwrap();
    // Normally the converter reaches its backend.
    let normal = sys.launch("converter").unwrap();
    assert!(sys.kernel.connect(normal, "convert.example").is_ok());
    // As a delegate it sees an ordinary network error, not a crash.
    let confined = sys.launch_as_delegate("converter", "docs").unwrap();
    assert_eq!(
        sys.kernel.connect(confined, "convert.example").unwrap_err(),
        maxoid_kernel::KernelError::NetworkUnreachable
    );
}
