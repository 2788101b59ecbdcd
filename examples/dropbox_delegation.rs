//! The "Securing Dropbox" use case (paper §7.1).
//!
//! Dropbox stores the user's files on external storage and automatically
//! syncs any change back to the server — on stock Android that means no
//! privacy (any app reads the files) and no integrity (any app's edit is
//! silently uploaded). With a two-line Maxoid manifest (private directory
//! plus VIEW filter), editors run as delegates, the sync loop only ever
//! sees clean state, and the user explicitly commits the edits they want.
//!
//! Run with: `cargo run -p maxoid-examples --bin dropbox_delegation`
//!
//! Pass `--trace` (or set `MAXOID_TRACE=1`) to record the Maxoid run with
//! `maxoid-obs` and render the full span tree of the delegation — kernel
//! syscalls, union-fs copy-ups, cow-proxy rewrites and the journal all
//! nested under the delegation lifecycle spans.

use maxoid::manifest::MaxoidManifest;
use maxoid::MaxoidSystem;
use maxoid_apps::{install_viewer, AdobeReader, Dropbox, FileRef};
use maxoid_vfs::Mode;

fn main() {
    let trace = std::env::args().any(|a| a == "--trace")
        || std::env::var("MAXOID_TRACE").map(|v| v == "1").unwrap_or(false);
    println!("=== Stock Android ===");
    stock_android();
    println!("\n=== Maxoid ===");
    if trace {
        maxoid_obs::enable();
    }
    maxoid_mode();
    if trace {
        maxoid_obs::disable();
        let snap = maxoid_obs::take_snapshot();
        println!("\n=== Trace: span tree of the delegation ===");
        print!("{}", snap.render_span_tree());
        println!("\n=== Trace: counters ===");
        for (name, value) in &snap.counters {
            println!("  {name} = {value}");
        }
    }
}

fn stock_android() {
    let dropbox = Dropbox::default();
    let mut sys = MaxoidSystem::boot().expect("boot");
    sys.kernel.net.publish("dropbox.example", "notes.txt", b"original notes".to_vec());
    // No Maxoid manifest: stock behaviour.
    sys.install(&dropbox.pkg, vec![], MaxoidManifest::new()).expect("install");
    sys.install("com.rogue", vec![], MaxoidManifest::new()).expect("install");

    let dpid = sys.launch(&dropbox.pkg).expect("launch");
    let path = dropbox.sync_down(&mut sys, dpid, "notes.txt").expect("sync down");
    println!("dropbox synced notes.txt to {path}");

    // Privacy failure: a rogue app reads the file.
    let rogue = sys.launch("com.rogue").expect("launch rogue");
    let stolen = sys.kernel.read(rogue, &path).expect("rogue read succeeds on stock");
    println!("rogue app read {} bytes of the user's file (no privacy)", stolen.len());

    // Integrity failure: the rogue app corrupts it and sync uploads it.
    sys.kernel.write(rogue, &path, b"corrupted!!", Mode::PUBLIC).expect("rogue write");
    let uploaded = dropbox.sync_up(&mut sys, dpid).expect("sync");
    println!("dropbox silently uploaded {uploaded:?} (no integrity)");
}

fn maxoid_mode() {
    let dropbox = Dropbox::default();
    let reader = AdobeReader::default();
    // Journaled boot so the trace also shows the WAL group-commit spans.
    let mut sys =
        MaxoidSystem::boot_journaled(maxoid_journal::Journal::in_memory(1)).expect("boot");
    sys.kernel.net.publish("dropbox.example", "notes.txt", b"original notes".to_vec());
    // The paper's fix: declare the storage dir private, VIEW = delegate.
    sys.install(&dropbox.pkg, vec![], dropbox.maxoid_manifest()).expect("install");
    install_viewer(&mut sys, &reader.pkg).expect("install viewer");
    sys.install("com.rogue", vec![], MaxoidManifest::new()).expect("install");

    let dpid = sys.launch(&dropbox.pkg).expect("launch");
    let path = dropbox.sync_down(&mut sys, dpid, "notes.txt").expect("sync down");
    println!("dropbox synced notes.txt into its private directory");

    // Privacy restored: the rogue app cannot even see the file.
    let rogue = sys.launch("com.rogue").expect("launch rogue");
    assert!(!sys.kernel.exists(rogue, &path));
    println!("rogue app sees nothing at {path}");

    // The user opens the file: the viewer runs as Dropbox's delegate.
    let viewer = dropbox.open_file(&mut sys, dpid, "notes.txt").expect("open").pid();
    println!("viewer runs {}", sys.kernel.process(viewer).unwrap().ctx);
    // The viewer reads and edits the file; side effects included.
    reader.open(&mut sys, viewer, &FileRef::Path(path.clone())).expect("view");
    sys.kernel.write(viewer, &path, b"edited notes v2", Mode::PUBLIC).expect("edit");

    // Integrity kept: the sync loop sees only the clean copy.
    let uploaded = dropbox.sync_up(&mut sys, dpid).expect("sync");
    assert!(uploaded.is_empty());
    println!("sync loop uploaded nothing (delegate edits live in Vol)");

    // The user inspects Vol(Dropbox) and commits the intended edit.
    for entry in sys.volatile_files(&dropbox.pkg).expect("vol") {
        println!("  Vol(dropbox): {} ({} bytes)", entry.rel, entry.size);
    }
    dropbox.upload_from_tmp(&mut sys, dpid, "notes.txt").expect("manual upload");
    println!("user explicitly uploaded the edit from EXTDIR/tmp");

    // Then discards everything else.
    let removed = sys.clear_vol(&dropbox.pkg).expect("clear");
    println!("Clear-Vol removed {removed} leftover volatile files");
    assert_eq!(sys.kernel.http_get(dpid, "dropbox.example/notes.txt").unwrap(), b"edited notes v2");
    println!("server now holds the user-approved edit — and only that");
}
