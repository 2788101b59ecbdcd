//! The "Securing Email attachments" use case (paper §7.1), plus the
//! launcher gestures and the EBookDroid persistent-private-state patch.
//!
//! Run with: `cargo run -p maxoid-examples --bin email_attachments`

use maxoid::{MaxoidSystem, VolCommitPlan};
use maxoid_apps::{install_observer, install_viewer, EBookDroid, Email};
use maxoid_vfs::vpath;

fn main() {
    let email = Email::default();
    let viewer = EBookDroid::default();
    let mut sys = MaxoidSystem::boot().expect("boot");
    sys.install(&email.pkg, vec![], email.maxoid_manifest()).expect("install email");
    install_viewer(&mut sys, &viewer.pkg).expect("install viewer");
    let observer = install_observer(&mut sys).expect("install observer");

    // --- An attachment arrives -----------------------------------------
    let epid = sys.launch(&email.pkg).expect("launch");
    let att = email
        .receive_attachment(&mut sys, epid, "offer_letter.pdf", b"salary details inside")
        .expect("receive");
    println!("email stored attachment privately at {att}");

    // --- VIEW: the viewer becomes email's delegate ----------------------
    let vpid = email.view_attachment(&mut sys, epid, &att).expect("view").pid();
    println!("viewer runs {}", sys.kernel.process(vpid).unwrap().ctx);
    viewer.open(&mut sys, vpid, &att).expect("open");
    println!("viewer opened the attachment and recorded it in pPriv (the 45-line patch)");

    // --- The recents list persists across delegate sessions -------------
    // The viewer runs normally in between (and changes its own state)...
    let normal = sys.launch(&viewer.pkg).expect("normal run");
    let own = vpath("/data/data/org.ebookdroid/my_book.pdf");
    sys.kernel.write(normal, &own, b"own book", maxoid_vfs::Mode::PRIVATE).expect("write own");
    viewer.open(&mut sys, normal, &own).expect("open own");
    let normal_recents = viewer.recent_files(&sys, normal).expect("recents");
    println!("normal-run recents: {normal_recents:?}  (no email attachments: S1)");
    assert!(!normal_recents.iter().any(|r| r.contains("offer_letter")));

    // ...then runs for email again: the attachment is still in recents.
    let vpid2 = sys.launch_as_delegate(&viewer.pkg, &email.pkg).expect("delegate again");
    let recents = viewer.recent_files(&sys, vpid2).expect("recents");
    println!("email-delegate recents: {recents:?}");
    assert!(recents.iter().any(|r| r.contains("offer_letter")));

    // --- The launcher gesture: start Camera as email's delegate ---------
    sys.install("camera", vec![], maxoid::MaxoidManifest::new()).expect("install camera");
    let cam = sys.launch_as_delegate("camera", &email.pkg).expect("launcher gesture");
    println!("launcher started camera {}", sys.kernel.process(cam).unwrap().ctx);
    // A photo it takes lands in Vol(email), not on the public SD card.
    sys.kernel
        .write(cam, &vpath("/storage/sdcard/DCIM/for_email.jpg"), b"jpeg", maxoid_vfs::Mode::PUBLIC)
        .expect("photo");
    let opid = sys.launch(&observer).expect("observer");
    assert!(!sys.kernel.exists(opid, &vpath("/storage/sdcard/DCIM/for_email.jpg")));
    assert!(sys.kernel.exists(epid, &vpath("/storage/sdcard/tmp/DCIM/for_email.jpg")));
    println!("the photo is visible only to email (under EXTDIR/tmp)");

    // --- Email commits the photo, making it public by choice ------------
    let plan = VolCommitPlan { external: vec!["DCIM/for_email.jpg".into()], ..Default::default() };
    sys.commit_vol(&email.pkg, &plan).expect("commit");
    let opid2 = sys.launch(&observer).expect("observer");
    assert!(sys.kernel.exists(opid2, &vpath("/storage/sdcard/DCIM/for_email.jpg")));
    println!("after commit, the photo is public — an explicit declassification");

    // --- Clean up the rest ----------------------------------------------
    let removed = sys.clear_vol(&email.pkg).expect("clear-vol");
    println!("Clear-Vol(email) discarded {removed} remaining volatile files");
}
