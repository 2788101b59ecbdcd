//! Crash-consistent volatile-state commit: the journal in action.
//!
//! An editor invokes a cleaner app as its delegate. The cleaner's writes
//! — a provider row and a file — land in the editor's volatile state
//! `Vol(editor)` (paper §3.3). The editor then commits the row and the
//! file atomically via `commit_vol`, which brackets the whole plan in
//! one journal transaction.
//!
//! We then pull the power cord at every stage: recovery from a log
//! truncated *inside* the commit transaction yields the untouched
//! all-volatile state; only the full log yields the committed state.
//! There is no log prefix from which anything in between can emerge.
//!
//! Act 2 repeats the lifecycle on a **file-backed block device**: the
//! WAL's frames live in sectors behind a page cache, the process is
//! dropped, and `boot_journaled` cold-starts the whole system — files,
//! catalogs, provider rows — from nothing but the device file, reporting
//! the boot latency.
//!
//! Run with: `cargo run -p maxoid-examples --bin crash_recovery`

use maxoid::durability::recover;
use maxoid::manifest::MaxoidManifest;
use maxoid::{Caller, ContentValues, MaxoidSystem, QueryArgs, Uri, VolCommitPlan};
use maxoid_block::FileDevice;
use maxoid_journal::{crash_prefix, record_boundaries, BlockStorage, Journal};
use maxoid_providers::provider::ContentProvider;
use maxoid_providers::UserDictionaryProvider;
use maxoid_vfs::{vpath, Mode};

fn main() {
    // Boot on a journal that flushes every record (batch size 1), so
    // every record boundary is a place the power cord can be pulled.
    let journal = Journal::in_memory(1);
    let sys = MaxoidSystem::boot_journaled(journal.clone()).expect("boot");
    sys.install("editor", vec![], MaxoidManifest::new()).expect("install editor");
    sys.install("cleaner", vec![], MaxoidManifest::new()).expect("install cleaner");

    // The editor adds a word publicly; the cleaner (as delegate) adds a
    // draft row and writes a report file — both land in Vol(editor).
    let words = Uri::parse("content://user_dictionary/words").unwrap();
    let editor = Caller::normal("editor");
    let delegate = Caller::delegate("cleaner", "editor");
    sys.resolver
        .insert(&editor, &words, &ContentValues::new().put("word", "hello").put("frequency", 10))
        .expect("public insert");
    let draft = sys
        .resolver
        .insert(&delegate, &words, &ContentValues::new().put("word", "draft"))
        .expect("delegate insert");
    let cleaner = sys.launch_as_delegate("cleaner", "editor").expect("launch delegate");
    sys.kernel
        .write(cleaner, &vpath("/storage/sdcard/report.txt"), b"cleaned", Mode::PUBLIC)
        .expect("delegate write");
    journal.flush().expect("flush");
    let pre_commit_len = journal.bytes().len();
    println!("volatile state built: row {draft}, file report.txt ({pre_commit_len} log bytes)");

    // The editor commits *everything* — file and row — atomically, and
    // discards whatever volatile state remains.
    let external: Vec<String> = sys
        .volatile_files("editor")
        .expect("volatile list")
        .into_iter()
        .filter(|e| !e.internal)
        .map(|e| e.rel)
        .collect();
    let plan = VolCommitPlan {
        external,
        provider_rows: vec![("user_dictionary".into(), "words".into(), draft.id().unwrap())],
        discard_rest: true,
        ..VolCommitPlan::default()
    };
    let outcome = sys.commit_vol("editor", &plan).expect("commit_vol");
    println!("commit_vol: {} row(s) committed, volatile state cleared", outcome.rows_committed);

    // --- Pull the cord at every boundary inside the commit txn --------
    let log = journal.bytes();
    let boundaries = record_boundaries(&log);
    let inside: Vec<usize> =
        boundaries.iter().copied().filter(|&b| b >= pre_commit_len && b < log.len()).collect();
    println!("\ncommit transaction spans {} records; crashing inside each of them:", inside.len());
    for &b in &inside {
        let mut rec = recover(&crash_prefix(&log, b)).expect("recover");
        let dict = UserDictionaryProvider::open(None, Some(rec.take_db("user_dictionary")));
        let public = dict
            .query(&Caller::normal("observer"), &words, &QueryArgs::default())
            .expect("query")
            .rows
            .len();
        let volatile = dict
            .query(&Caller::normal("editor"), &words.as_volatile(), &QueryArgs::default())
            .expect("query")
            .rows
            .len();
        let file = rec.vfs.with_store(|s| s.stat(&vpath("/backing/ext/pub/report.txt")).is_ok());
        assert!((public, volatile, file) == (1, 1, false), "crash at {b} must be all-volatile");
    }
    println!("  every mid-commit crash recovers the all-volatile state");
    println!("  (1 public word, 1 uncommitted volatile word, no committed report.txt)");

    // --- The full log: the commit landed ------------------------------
    let mut rec = recover(&log).expect("recover");
    let dict = UserDictionaryProvider::open(None, Some(rec.take_db("user_dictionary")));
    let public =
        dict.query(&Caller::normal("observer"), &words, &QueryArgs::default()).expect("query").rows;
    let file = rec.vfs.with_store(|s| s.stat(&vpath("/backing/ext/pub/report.txt")).is_ok());
    assert!(public.iter().any(|r| format!("{r:?}").contains("draft")));
    assert!(file);
    println!("\nfull log recovers the committed state:");
    println!("  {} public words (draft included), report.txt promoted to public", public.len());
    println!("\nall-or-nothing: no crash point yields a half-committed hybrid");

    cold_start_from_file();
}

/// Act 2: the journal on a real file. Build state, drop the process,
/// then cold-boot a brand-new system from the device file alone.
fn cold_start_from_file() {
    let path = std::env::temp_dir().join(format!("maxoid-coldstart-{}.blk", std::process::id()));
    let _ = std::fs::remove_file(&path);
    println!("\n--- cold start from a file-backed device ({}) ---", path.display());

    // First life: every record flushed through the block device.
    let dev = FileDevice::create(&path).expect("create device");
    let journal = Journal::new(Box::new(BlockStorage::open(Box::new(dev), 16).expect("open")), 1)
        .expect("open journal");
    let sys = MaxoidSystem::boot_journaled(journal.clone()).expect("boot");
    sys.install("editor", vec![], MaxoidManifest::new()).expect("install");
    let words = Uri::parse("content://user_dictionary/words").unwrap();
    let editor = Caller::normal("editor");
    for (w, f) in [("persistent", 1), ("storage", 2), ("rocks", 3)] {
        sys.resolver
            .insert(&editor, &words, &ContentValues::new().put("word", w).put("frequency", f))
            .expect("insert");
    }
    let pid = sys.launch("editor").expect("launch");
    sys.kernel
        .write(pid, &vpath("/storage/sdcard/novel.txt"), &vec![b'x'; 16 * 1024], Mode::PUBLIC)
        .expect("write");
    journal.flush().expect("flush");
    let log_bytes = journal.bytes().len();
    drop(sys);
    drop(journal);
    println!("first life journaled {log_bytes} bytes; process gone, file remains");

    // Second life: reopen the device, cold-boot, measure.
    let dev = FileDevice::open(&path).expect("reopen device");
    let journal = Journal::new(Box::new(BlockStorage::open(Box::new(dev), 16).expect("open")), 1)
        .expect("open journal");
    let t0 = std::time::Instant::now();
    let sys = MaxoidSystem::boot_journaled(journal).expect("cold boot");
    let boot = t0.elapsed();
    sys.install("editor", vec![], MaxoidManifest::new()).expect("re-install");
    let rows = sys
        .resolver
        .query(&Caller::normal("observer"), &words, &QueryArgs::default())
        .expect("query")
        .rows
        .len();
    // The public write went through the editor's mount namespace into
    // the external-public branch; read it back from the recovered store.
    let novel = sys.kernel.vfs().with_store(|s| s.read(&vpath("/backing/ext/pub/novel.txt")));
    assert_eq!(rows, 3, "all three words must survive the reboot");
    assert_eq!(novel.expect("novel.txt must survive").len(), 16 * 1024);
    println!(
        "cold boot in {:.2?}: {} provider rows and a 16 KiB file recovered from {} log bytes",
        boot, rows, log_bytes
    );
    let _ = std::fs::remove_file(&path);
}
