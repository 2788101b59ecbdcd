//! Crash-point sweep: the journal's all-or-nothing guarantee.
//!
//! A journaled system is crashed at **every record boundary** of its log
//! (plus torn tails mid-frame), recovered onto a fresh substrate, and the
//! recovered state compared against reference fingerprints:
//!
//! - **S2 (atomic volatile commit)**: a crash anywhere inside the
//!   `commit_vol` journal transaction recovers to the untouched
//!   all-volatile state; only a log containing the commit record recovers
//!   to the all-committed state. Nothing in between is reachable.
//! - **Equivalence**: replaying the full log reproduces the live
//!   system's file tree (modulo mtimes) and provider query results,
//!   including the COW proxy's delta tables, rowid offsets and views.
//!
//! Adoption after recovery decodes initiators back from delta-table
//! names, so any package name recovers as itself.

use maxoid::durability::{recover, RecoveryError};
use maxoid::manifest::MaxoidManifest;
use maxoid::{Caller, ContentValues, MaxoidSystem, QueryArgs, SystemError, Uri, VolCommitPlan};
use maxoid_journal::{
    crash_prefix, flip_byte, read_records, record_boundaries, torn_log, Fill, Journal,
    JournalError, JournalResult, MemStorage, Record, Replacement, Storage, Tail, TailState,
};
use maxoid_providers::provider::ContentProvider;
use maxoid_providers::UserDictionaryProvider;
use maxoid_sqldb::Value;
use maxoid_vfs::{vpath, Mode, Uid};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const INITIATOR: &str = "initiator";
const DELEGATE: &str = "viewer";
const AUTHORITY: &str = "user_dictionary";

fn words_uri() -> Uri {
    Uri::parse("content://user_dictionary/words").unwrap()
}

fn query_args() -> QueryArgs {
    QueryArgs {
        projection: vec!["word".into(), "frequency".into()],
        sort_order: Some("_id".into()),
        ..QueryArgs::default()
    }
}

/// Semantic state: the full file tree (mtime-free) and the user
/// dictionary as seen publicly, by the delegate, and through the
/// initiator's volatile (tmp) URI. Queries that fail record `None` so
/// both sides must fail alike.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    files: BTreeMap<String, (bool, Vec<u8>, u32, u8)>,
    public_words: Option<Vec<Vec<Value>>>,
    delegate_words: Option<Vec<Vec<Value>>>,
    volatile_words: Option<Vec<Vec<Value>>>,
}

fn live_fingerprint(sys: &mut MaxoidSystem) -> Fingerprint {
    let files = sys.kernel.vfs().with_store(|s| s.dump_tree());
    let q = |caller: &Caller, uri: &Uri| {
        sys.resolver.query(caller, uri, &query_args()).ok().map(|rs| rs.rows)
    };
    Fingerprint {
        public_words: q(&Caller::normal("bystander"), &words_uri()),
        delegate_words: q(&Caller::delegate(DELEGATE, INITIATOR), &words_uri()),
        volatile_words: q(&Caller::normal(INITIATOR), &words_uri().as_volatile()),
        files,
    }
}

fn recovered_fingerprint(log: &[u8]) -> Fingerprint {
    let mut rec = recover(log).expect("recovery must succeed on any committed prefix");
    let files = rec.vfs.with_store(|s| s.dump_tree());
    let mut dict = UserDictionaryProvider::open(None, Some(rec.take_db(AUTHORITY)));
    let mut q =
        |caller: &Caller, uri: &Uri| dict.query(caller, uri, &query_args()).ok().map(|rs| rs.rows);
    Fingerprint {
        public_words: q(&Caller::normal("bystander"), &words_uri()),
        delegate_words: q(&Caller::delegate(DELEGATE, INITIATOR), &words_uri()),
        volatile_words: q(&Caller::normal(INITIATOR), &words_uri().as_volatile()),
        files,
    }
}

/// Boots a journaled system (batch size 1: every record durable at its
/// own boundary) with the initiator/delegate cast installed.
fn journaled_system() -> MaxoidSystem {
    let j = Journal::in_memory(1);
    let sys = MaxoidSystem::boot_journaled(j).expect("boot");
    sys.install(INITIATOR, vec![], MaxoidManifest::new()).expect("install initiator");
    sys.install(DELEGATE, vec![], MaxoidManifest::new()).expect("install delegate");
    sys
}

/// Builds the canonical pre-commit situation: public rows, a delegate's
/// confined row edits, and a delegate file write redirected into
/// `Vol(initiator)`. Returns the delta row id of the delegate's insert.
fn seed_volatile_state(sys: &mut MaxoidSystem) -> i64 {
    let public = Caller::normal(INITIATOR);
    for (w, f) in [("hello", 10), ("world", 20)] {
        sys.resolver
            .insert(&public, &words_uri(), &ContentValues::new().put("word", w).put("frequency", f))
            .expect("public insert");
    }
    let delegate = Caller::delegate(DELEGATE, INITIATOR);
    let uri = sys
        .resolver
        .insert(
            &delegate,
            &words_uri(),
            &ContentValues::new().put("word", "draft").put("frequency", 1),
        )
        .expect("delegate insert");
    let delta_id = uri.id().expect("row uri");
    sys.resolver
        .update(
            &delegate,
            &words_uri().with_id(1),
            &ContentValues::new().put("word", "HELLO"),
            &QueryArgs::default(),
        )
        .expect("delegate update");

    let del_pid = sys.launch_as_delegate(DELEGATE, INITIATOR).expect("launch delegate");
    sys.kernel
        .write(del_pid, &vpath("/storage/sdcard/report.txt"), b"edited", Mode::PUBLIC)
        .expect("delegate file write lands in Vol");
    delta_id
}

#[test]
fn crash_at_every_boundary_is_all_or_nothing() {
    let mut sys = journaled_system();
    let delta_id = seed_volatile_state(&mut sys);
    let journal = sys.journal().expect("journaled").clone();
    journal.flush().unwrap();

    let pre = live_fingerprint(&mut sys);
    let base_len = journal.bytes().len();
    assert!(!pre.files.is_empty());
    assert_eq!(pre.volatile_words.as_ref().map(|r| r.len()), Some(2));

    // The initiator commits everything volatile — the external file and
    // the delegate's inserted row — and discards the rest, atomically.
    let external: Vec<String> = sys
        .volatile_files(INITIATOR)
        .unwrap()
        .into_iter()
        .filter(|e| !e.internal)
        .map(|e| e.rel)
        .collect();
    assert!(!external.is_empty(), "the delegate file write must be volatile");
    let plan = VolCommitPlan {
        external,
        internal: vec![],
        provider_rows: vec![(AUTHORITY.into(), "words".into(), delta_id)],
        discard_rest: true,
    };
    let outcome = sys.commit_vol(INITIATOR, &plan).expect("commit_vol");
    assert_eq!(outcome.rows_committed, 1);
    let post = live_fingerprint(&mut sys);
    assert_ne!(pre, post);
    // The committed row is now public.
    assert!(post
        .public_words
        .as_ref()
        .unwrap()
        .iter()
        .any(|r| r[0] == Value::Text("draft".into())));

    let log = journal.bytes();
    let boundaries = record_boundaries(&log);
    assert_eq!(*boundaries.last().unwrap(), log.len(), "log must parse to its end");
    assert!(boundaries.iter().any(|&b| b == base_len), "pre-commit point is a boundary");

    let mut pre_count = 0;
    for &b in &boundaries {
        let prefix = crash_prefix(&log, b);
        if b < base_len {
            // Mid-setup crashes: recovery must simply succeed (the
            // dichotomy below only holds around the commit txn).
            let _ = recover(&prefix).expect("prefix recovers");
            continue;
        }
        let fp = recovered_fingerprint(&prefix);
        if b == log.len() {
            assert_eq!(fp, post, "full log must recover the committed state");
        } else {
            assert_eq!(fp, pre, "crash inside the commit txn must recover all-volatile (b={b})");
            pre_count += 1;
        }
    }
    assert!(pre_count > 3, "the commit txn spans several records");
}

#[test]
fn torn_tail_recovers_like_clean_boundary() {
    let mut sys = journaled_system();
    let delta_id = seed_volatile_state(&mut sys);
    let journal = sys.journal().expect("journaled").clone();
    journal.flush().unwrap();
    let pre = live_fingerprint(&mut sys);
    let base_len = journal.bytes().len();

    let plan = VolCommitPlan {
        provider_rows: vec![(AUTHORITY.into(), "words".into(), delta_id)],
        discard_rest: true,
        ..VolCommitPlan::default()
    };
    sys.commit_vol(INITIATOR, &plan).expect("commit_vol");
    let post = live_fingerprint(&mut sys);

    let log = journal.bytes();
    let boundaries = record_boundaries(&log);
    for &b in boundaries.iter().filter(|&&b| b >= base_len && b < log.len()) {
        for extra in [1, 7, 16] {
            let torn = torn_log(&log, b, extra);
            if torn.len() == log.len() {
                continue; // tearing past the end reproduced the full log
            }
            let rec = recover(&torn).expect("torn log recovers");
            assert!(
                matches!(rec.tail, TailState::Torn { offset } if offset == b),
                "tail must be detected torn at {b}"
            );
            let fp = recovered_fingerprint(&torn);
            assert_eq!(fp, pre, "torn frame must be treated as never written");
        }
    }
    // Sanity: the clean full log still lands on the committed side.
    assert_eq!(recovered_fingerprint(&log), post);
}

#[test]
fn byte_flip_sweep_is_corrupted_never_silently_shortened() {
    // A fully-flushed multi-record, multi-transaction log: the setup
    // workload plus the commit_vol journal transaction.
    let mut sys = journaled_system();
    let delta_id = seed_volatile_state(&mut sys);
    let plan = VolCommitPlan {
        provider_rows: vec![(AUTHORITY.into(), "words".into(), delta_id)],
        discard_rest: true,
        ..VolCommitPlan::default()
    };
    sys.commit_vol(INITIATOR, &plan).expect("commit_vol");
    let journal = sys.journal().expect("journaled").clone();
    journal.flush().unwrap();
    let post = live_fingerprint(&mut sys);

    let log = journal.bytes();
    let clean = read_records(&log);
    assert_eq!(clean.tail, TailState::Clean);
    assert!(clean.records.len() > 20, "workload must produce a substantial log");
    assert_eq!(recovered_fingerprint(&log), post, "clean log recovers exactly");

    // Every single-byte flip in a complete log is damage no torn write
    // can explain: the parse must land on `Corrupted` at or before the
    // flipped frame — never `Clean`/`Torn` with a shorter history.
    for offset in 0..log.len() {
        for mask in [0x01u8, 0x80] {
            let flipped = flip_byte(&log, offset, mask);
            let parsed = read_records(&flipped);
            match parsed.tail {
                TailState::Corrupted { offset: at } => {
                    assert!(
                        at <= offset,
                        "corruption at byte {offset} reported downstream at {at}"
                    );
                    assert!(
                        parsed.records.len() <= clean.records.len(),
                        "flip at {offset} grew the history"
                    );
                }
                other => panic!(
                    "flip at byte {offset} (mask {mask:#04x}) parsed as {other:?} \
                     with {} of {} records — silently shortened",
                    parsed.records.len(),
                    clean.records.len()
                ),
            }
        }
    }

    // And `recover` fails loudly on corrupted logs rather than booting a
    // silently truncated substrate (sampled: full recovery is costly).
    for offset in (0..log.len()).step_by(101) {
        let flipped = flip_byte(&log, offset, 0xFF);
        match recover(&flipped) {
            Err(RecoveryError::Corrupted { .. }) => {}
            Err(other) => panic!("flip at {offset}: wrong error {other}"),
            Ok(_) => panic!("flip at {offset}: recovery succeeded on a corrupted log"),
        }
    }
}

/// Replay interacts with the hot-path caches: journal replay drives the
/// same `execute`/`query` entry points as live traffic, so the statement
/// and plan caches fill and invalidate during recovery. The recovered
/// state must be byte-identical whether the replayed database keeps its
/// caches (the default) or has every cache disabled — and repeated
/// queries against the warm recovered provider must not drift.
#[test]
fn replay_into_cache_enabled_database_matches_cold() {
    let mut sys = journaled_system();
    let delta_id = seed_volatile_state(&mut sys);
    let plan = VolCommitPlan {
        provider_rows: vec![(AUTHORITY.into(), "words".into(), delta_id)],
        discard_rest: true,
        ..VolCommitPlan::default()
    };
    sys.commit_vol(INITIATOR, &plan).expect("commit_vol");
    let journal = sys.journal().expect("journaled").clone();
    journal.flush().unwrap();
    let live = live_fingerprint(&mut sys);
    let log = journal.bytes();

    // Warm replay: caches at their defaults.
    let mut rec = recover(&log).expect("recover");
    let warm_files = rec.vfs.with_store(|s| s.dump_tree());
    let db = rec.take_db(AUTHORITY);
    assert!(db.statement_caches_enabled(), "caches default on during replay");
    assert!(db.stats.stmt_cache_misses.get() > 0, "replay parsed statements through the cache");
    assert!(db.catalog_generation() > 0, "replayed DDL bumped the catalog generation");
    let mut warm = UserDictionaryProvider::open(None, Some(db));
    let q = |dict: &mut UserDictionaryProvider, caller: &Caller, uri: &Uri| {
        dict.query(caller, uri, &query_args()).ok().map(|rs| rs.rows)
    };
    let warm_fp = Fingerprint {
        public_words: q(&mut warm, &Caller::normal("bystander"), &words_uri()),
        delegate_words: q(&mut warm, &Caller::delegate(DELEGATE, INITIATOR), &words_uri()),
        volatile_words: q(&mut warm, &Caller::normal(INITIATOR), &words_uri().as_volatile()),
        files: warm_files,
    };
    assert_eq!(warm_fp, live, "cache-enabled replay must reproduce the live state");
    // A second round of the same queries is served by now-warm caches.
    let repeat = Fingerprint {
        public_words: q(&mut warm, &Caller::normal("bystander"), &words_uri()),
        delegate_words: q(&mut warm, &Caller::delegate(DELEGATE, INITIATOR), &words_uri()),
        volatile_words: q(&mut warm, &Caller::normal(INITIATOR), &words_uri().as_volatile()),
        files: warm_fp.files.clone(),
    };
    assert_eq!(repeat, warm_fp, "warm-cache repeat queries must not drift");
    assert!(warm.proxy().db().stats.stmt_cache_hits.get() > 0, "repeats hit the cache");

    // Cold replay: every cache off before any query runs.
    let mut rec = recover(&log).expect("recover");
    let cold_files = rec.vfs.with_store(|s| s.dump_tree());
    let db = rec.take_db(AUTHORITY);
    db.set_statement_caches(false);
    let mut cold = UserDictionaryProvider::open(None, Some(db));
    cold.proxy_mut().set_rewrite_cache(false);
    let cold_fp = Fingerprint {
        public_words: q(&mut cold, &Caller::normal("bystander"), &words_uri()),
        delegate_words: q(&mut cold, &Caller::delegate(DELEGATE, INITIATOR), &words_uri()),
        volatile_words: q(&mut cold, &Caller::normal(INITIATOR), &words_uri().as_volatile()),
        files: cold_files,
    };
    assert_eq!(cold_fp, warm_fp, "cache-disabled replay must match the cached one");
}

#[test]
fn group_commit_batching_loses_only_the_pending_tail() {
    // With a large batch, records sit in the pending buffer until a
    // flush-forcing record arrives. bytes() models the crash image: the
    // pending tail is lost, but what is durable is a valid prefix.
    let j = Journal::in_memory(64);
    let sys = MaxoidSystem::boot_journaled(j).expect("boot");
    sys.install(INITIATOR, vec![], MaxoidManifest::new()).unwrap();
    let public = Caller::normal(INITIATOR);
    for i in 0..5 {
        sys.resolver
            .insert(&public, &words_uri(), &ContentValues::new().put("word", format!("w{i}")))
            .unwrap();
    }
    let journal = sys.journal().unwrap().clone();
    let durable = journal.bytes();
    // Boot flushed; the five inserts are still pending.
    let rec_fp = recovered_fingerprint(&durable);
    assert_eq!(rec_fp.public_words.as_ref().map(|r| r.len()), Some(0));
    // After an explicit flush they become durable and replay.
    journal.flush().unwrap();
    let rec_fp = recovered_fingerprint(&journal.bytes());
    assert_eq!(rec_fp.public_words.as_ref().map(|r| r.len()), Some(5));
}

/// Builds a log exercising the record types format v2 brought that
/// remain: repeated overwrites of one file (each a whole `Write`), a
/// compaction (DDL + row dumps + the store's image), and post-compaction
/// traffic. Returns the system; its journal holds the log.
fn v2_heavy_system() -> MaxoidSystem {
    let mut sys = journaled_system();
    seed_volatile_state(&mut sys);
    let pid = sys.launch(INITIATOR).expect("launch");
    let note = vpath(&format!("/data/data/{INITIATOR}/files/note.txt"));
    sys.kernel
        .mkdir_all(pid, &vpath(&format!("/data/data/{INITIATOR}/files")), Mode::PRIVATE)
        .expect("mkdir");
    for i in 0..4u8 {
        // Same length, small middle change.
        let body = format!("draft {i} -- mostly unchanged trailing text");
        sys.kernel.write(pid, &note, body.as_bytes(), Mode::PRIVATE).expect("write");
    }
    sys.compact().expect("compact");
    for i in 0..3u8 {
        let body = format!("final {i} -- mostly unchanged trailing text");
        sys.kernel.write(pid, &note, body.as_bytes(), Mode::PRIVATE).expect("write");
    }
    // A fresh file after the rewrite.
    sys.kernel
        .write(pid, &note.parent().unwrap().join("new.txt").unwrap(), b"x", Mode::PRIVATE)
        .expect("write");
    sys.journal().expect("journaled").flush().unwrap();
    sys
}

/// Names of the record kinds present in a log, for coverage assertions.
fn record_kinds(log: &[u8]) -> std::collections::BTreeSet<&'static str> {
    read_records(log)
        .records
        .iter()
        .map(|(_, r)| match r {
            Record::Vfs(_) => "vfs",
            Record::SnapshotDelta { .. } => "snapshot-delta",
            Record::Sql { .. } => "sql",
            Record::TxnBegin { .. } | Record::TxnCommit { .. } | Record::TxnRollback { .. } => {
                "txn"
            }
        })
        .collect()
}

/// The PR-3 sweeps, on a log full of format-v2 record types: a crash at
/// any boundary of a compacted-then-extended log recovers, the full log
/// reproduces the live state, and a flipped byte anywhere — inside
/// overwrite, image or compacted SQL records — is `Corrupted`, never a
/// silently shortened history.
#[test]
fn v2_record_types_survive_flip_and_crash_sweeps() {
    let mut sys = v2_heavy_system();
    let journal = sys.journal().expect("journaled").clone();
    let live = live_fingerprint(&mut sys);
    let log = journal.bytes();

    let kinds = record_kinds(&log);
    for want in ["snapshot-delta", "sql", "vfs"] {
        assert!(kinds.contains(want), "workload must produce a {want} record, got {kinds:?}");
    }

    // Crash-prefix sweep: every boundary recovers; the full log matches.
    let boundaries = record_boundaries(&log);
    assert_eq!(*boundaries.last().unwrap(), log.len(), "log must parse to its end");
    for &b in &boundaries {
        let rec = recover(&crash_prefix(&log, b)).expect("prefix recovers");
        assert_eq!(rec.tail, TailState::Clean, "boundary {b}");
    }
    assert_eq!(recovered_fingerprint(&log), live, "full log recovers the live state");

    // Flip sweep: identical contract to the PR-3 sweep, now with the
    // damage landing inside the new record types too.
    let clean = read_records(&log);
    for offset in 0..log.len() {
        for mask in [0x01u8, 0x80] {
            let parsed = read_records(&flip_byte(&log, offset, mask));
            match parsed.tail {
                TailState::Corrupted { offset: at } => {
                    assert!(at <= offset, "corruption at {offset} reported downstream at {at}");
                    assert!(
                        parsed.records.len() <= clean.records.len(),
                        "flip at {offset} grew the history"
                    );
                }
                other => panic!(
                    "flip at byte {offset} (mask {mask:#04x}) parsed as {other:?} — \
                     silently shortened"
                ),
            }
        }
    }
}

/// Incremental checkpoints (`SnapshotDelta`) recover: a log carrying two
/// dirty-only checkpoints plus tail records replays to the live state,
/// every crash boundary recovers, and byte flips inside the delta
/// snapshots are detected as corruption.
#[test]
fn incremental_checkpoints_recover_and_reject_flips() {
    let mut sys = journaled_system();
    seed_volatile_state(&mut sys);
    sys.checkpoint_incremental().expect("first incremental checkpoint");
    let pid = sys.launch(INITIATOR).expect("launch");
    let dir = vpath(&format!("/data/data/{INITIATOR}/files"));
    sys.kernel.mkdir_all(pid, &dir, Mode::PRIVATE).expect("mkdir");
    sys.kernel
        .write(pid, &dir.join("a.txt").unwrap(), b"after first ckpt", Mode::PRIVATE)
        .expect("write");
    sys.checkpoint_incremental().expect("second incremental checkpoint");
    sys.kernel
        .write(pid, &dir.join("b.txt").unwrap(), b"after second ckpt", Mode::PRIVATE)
        .expect("write");
    let journal = sys.journal().expect("journaled").clone();
    journal.flush().unwrap();

    let live = live_fingerprint(&mut sys);
    let log = journal.bytes();
    assert!(record_kinds(&log).contains("snapshot-delta"), "checkpoints must log deltas");
    assert_eq!(recovered_fingerprint(&log), live, "full log recovers the live state");

    for &b in &record_boundaries(&log) {
        recover(&crash_prefix(&log, b)).expect("prefix recovers");
    }
    // Sampled flip check (the exhaustive sweep runs above on the
    // compacted log; delta snapshots are large, so sample here).
    for offset in (0..log.len()).step_by(37) {
        let parsed = read_records(&flip_byte(&log, offset, 0x80));
        assert!(
            matches!(parsed.tail, TailState::Corrupted { .. }),
            "flip at {offset} not detected"
        );
    }
}

/// In-memory log storage whose next rewrite fails once armed.
struct FailingRewrite {
    log: MemStorage,
    fail_next: Arc<AtomicBool>,
}

impl Storage for FailingRewrite {
    fn append(&mut self, bytes: &[u8]) -> JournalResult<()> {
        self.log.append(bytes)
    }

    fn read_at(&mut self, offset: usize, buf: &mut [u8]) -> JournalResult<()> {
        self.log.read_at(offset, buf)
    }

    fn len(&self) -> usize {
        self.log.len()
    }

    fn replace_from(&mut self, keep: usize, len: usize, fill: Fill<'_>) -> JournalResult<()> {
        if self.fail_next.swap(false, Ordering::SeqCst) {
            return Err(JournalError::Io("injected rewrite failure".into()));
        }
        self.log.replace_from(keep, len, fill)
    }
}

/// A checkpoint whose rewrite fails must not forget what it drained from
/// the store's dirty sets: the acknowledged write it would have covered
/// is still only in the log's VFS records, which the next checkpoint
/// drops, so that checkpoint's delta has to carry it.
#[test]
fn a_failed_checkpoint_keeps_its_dirty_set() {
    let fail_next = Arc::new(AtomicBool::new(false));
    let storage = FailingRewrite { log: MemStorage::new(), fail_next: fail_next.clone() };
    let sys =
        MaxoidSystem::boot_journaled(Journal::new(Box::new(storage), 1).unwrap()).expect("boot");
    let file = vpath("/p1/a");
    let write = |data: &[u8]| {
        sys.kernel.vfs().with_store(|s| s.write(&file, data, Uid::ROOT, Mode::PUBLIC)).unwrap();
    };
    sys.kernel.vfs().with_store(|s| s.mkdir_all(&vpath("/p1"), Uid::ROOT, Mode::PUBLIC)).unwrap();
    write(b"old");
    sys.checkpoint_incremental().expect("first checkpoint");
    write(b"NEW CONTENT");
    let journal = sys.journal().expect("journaled").clone();
    journal.flush().expect("the new content is acknowledged");
    fail_next.store(true, Ordering::SeqCst);
    assert!(sys.checkpoint_incremental().is_err(), "the armed rewrite fails");
    sys.checkpoint_incremental().expect("a later checkpoint");
    let rec = recover(&journal.bytes()).expect("recover");
    assert_eq!(rec.vfs.with_store(|s| s.read(&file)).unwrap(), b"NEW CONTENT");
}

/// In-memory log storage whose replacements, while `armed`, read the old
/// log back with the last byte of every read flipped: a checkpoint's scan
/// reads the log clean, and its copy of the kept frames does not.
struct FlippingRereads {
    log: MemStorage,
    armed: Arc<AtomicBool>,
}

impl Storage for FlippingRereads {
    fn append(&mut self, bytes: &[u8]) -> JournalResult<()> {
        self.log.append(bytes)
    }

    fn read_at(&mut self, offset: usize, buf: &mut [u8]) -> JournalResult<()> {
        self.log.read_at(offset, buf)
    }

    fn len(&self) -> usize {
        self.log.len()
    }

    fn replace_from(&mut self, keep: usize, len: usize, fill: Fill<'_>) -> JournalResult<()> {
        let armed = &*self.armed;
        let flipping =
            &mut |tail: &mut Tail<'_>| Tail::run(len, &mut Flipping { tail, armed }, &mut *fill);
        self.log.replace_from(keep, len, flipping)
    }
}

/// A [`FlippingRereads`] replacement's tail.
struct Flipping<'t, 'a, 'f> {
    tail: &'t mut Tail<'a>,
    armed: &'f AtomicBool,
}

impl Replacement for Flipping<'_, '_, '_> {
    fn write_at(&mut self, at: usize, bytes: &[u8]) -> JournalResult<()> {
        if at == self.tail.written() {
            self.tail.write(bytes)
        } else {
            self.tail.patch(at, bytes)
        }
    }

    fn read_old(&mut self, offset: usize, buf: &mut [u8]) -> JournalResult<()> {
        self.tail.read_old(offset, buf)?;
        if let (true, Some(last)) = (self.armed.load(Ordering::SeqCst), buf.last_mut()) {
            *last ^= 0x01;
        }
        Ok(())
    }
}

/// A checkpoint copies the frames it keeps from the old log a second
/// time, after the scan checked them: a frame that reads back damaged
/// then fails the checkpoint `Corrupted`, leaves the log as it was, and
/// leaves the store's dirty set for the next checkpoint, whose delta
/// carries the acknowledged write the failed one would have.
#[test]
fn a_kept_frame_read_back_damaged_fails_the_checkpoint() {
    let armed = Arc::new(AtomicBool::new(false));
    let storage = FlippingRereads { log: MemStorage::new(), armed: armed.clone() };
    let mut sys =
        MaxoidSystem::boot_journaled(Journal::new(Box::new(storage), 1).unwrap()).expect("boot");
    sys.install(INITIATOR, vec![], MaxoidManifest::new()).expect("install initiator");
    let file = vpath("/p1/a");
    sys.kernel.vfs().with_store(|s| s.mkdir_all(&vpath("/p1"), Uid::ROOT, Mode::PUBLIC)).unwrap();
    sys.checkpoint_incremental().expect("first checkpoint");
    // Past the retained prefix: a committed SQL frame to carry, and a file
    // write only the next delta can carry.
    let vals = ContentValues::new().put("word", "kept").put("frequency", 1);
    sys.resolver.insert(&Caller::normal(INITIATOR), &words_uri(), &vals).expect("insert");
    sys.kernel.vfs().with_store(|s| s.write(&file, b"ACKED", Uid::ROOT, Mode::PUBLIC)).unwrap();
    let journal = sys.journal().expect("journaled").clone();
    journal.flush().expect("the write is acknowledged");
    let before = journal.bytes();
    armed.store(true, Ordering::SeqCst);
    let got = sys.checkpoint_incremental();
    assert!(
        matches!(got, Err(SystemError::Journal(JournalError::Corrupted { .. }))),
        "a kept frame read back damaged: {got:?}"
    );
    assert_eq!(journal.bytes(), before, "the log is left as it was");
    armed.store(false, Ordering::SeqCst);
    sys.checkpoint_incremental().expect("a later checkpoint");
    let rec = recover(&journal.bytes()).expect("recover");
    assert_eq!(rec.vfs.with_store(|s| s.read(&file)).unwrap(), b"ACKED");
    assert_eq!(recovered_fingerprint(&journal.bytes()), live_fingerprint(&mut sys));
}

/// Runs `cycles` gesture cycles — the initiator's delegate forks the
/// dictionary with an update, then the initiator clears `Vol` — and
/// compacts. Returns the compacted log and the live state.
fn fork_clear_cycles(cycles: usize) -> (Vec<u8>, Fingerprint) {
    let mut sys = journaled_system();
    let public = Caller::normal(INITIATOR);
    for (w, f) in [("hello", 10), ("world", 20)] {
        let vals = ContentValues::new().put("word", w).put("frequency", f);
        sys.resolver.insert(&public, &words_uri(), &vals).expect("public insert");
    }
    let delegate = Caller::delegate(DELEGATE, INITIATOR);
    for c in 0..cycles {
        let vals = ContentValues::new().put("frequency", c as i64);
        let n =
            sys.resolver.update(&delegate, &words_uri().with_id(1), &vals, &QueryArgs::default());
        assert_eq!(n.expect("delegate update"), 1);
        sys.clear_vol(INITIATOR).expect("clear-vol");
    }
    let journal = sys.journal().unwrap().clone();
    sys.compact().expect("compact");
    (journal.bytes(), live_fingerprint(&mut sys))
}

/// The log stays bounded by live state across gesture cycles (ROADMAP
/// item 3): a returning tenant's Clear-Vol deletes rows and runs no DDL,
/// so compaction collapses its history. After 1,000 fork/clear cycles the
/// compacted log is within 1.1x the bytes of the one after 10, and both
/// recover the same state as the live system.
#[test]
fn compacted_log_stays_flat_across_gesture_cycles() {
    let (ten, live_ten) = fork_clear_cycles(10);
    let (thousand, live_thousand) = fork_clear_cycles(1000);
    assert_eq!(live_ten, live_thousand, "the cycles leave the same live state");
    assert_eq!(recovered_fingerprint(&ten), live_ten);
    assert_eq!(recovered_fingerprint(&thousand), live_thousand);
    assert!(
        thousand.len() * 10 <= ten.len() * 11,
        "compacted log grew with history: {} B after 10 cycles, {} B after 1,000",
        ten.len(),
        thousand.len()
    );
}

/// A log written before COW object names were encoded injectively (the
/// v2 preamble) names objects that may belong to several initiators at
/// once: recovery refuses it instead of booting from it.
#[test]
fn logs_from_before_the_injective_names_are_refused() {
    let (mut log, _) = fork_clear_cycles(1);
    assert!(recover(&log).is_ok());
    log[..8].copy_from_slice(b"MXWAL2\x00\x00");
    assert!(matches!(recover(&log), Err(RecoveryError::Corrupted { offset: 0 })));
}

/// A random workload step driven through the resolver / kernel.
#[derive(Debug, Clone)]
enum Op {
    PublicInsert(u8),
    DelegateInsert(u8),
    DelegateUpdate(u8),
    VolatileInsert(u8),
    DelegateFileWrite(u8, Vec<u8>),
    ClearVol,
    /// Commit the delta row of a delegate-updated public row, discarding
    /// the rest (`commit_vol` with `discard_rest`).
    CommitVol(u8),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..200u8).prop_map(Op::PublicInsert),
        (0..200u8).prop_map(Op::DelegateInsert),
        (0..200u8).prop_map(Op::DelegateUpdate),
        (0..200u8).prop_map(Op::VolatileInsert),
        (0..4u8, proptest::collection::vec(any::<u8>(), 1..16))
            .prop_map(|(i, d)| Op::DelegateFileWrite(i, d)),
        Just(Op::ClearVol),
        (0..200u8).prop_map(Op::CommitVol),
    ]
}

/// Runs one workload step; failures are part of the workload.
fn apply(sys: &MaxoidSystem, del_pid: maxoid::Pid, o: &Op) {
    let public = Caller::normal(INITIATOR);
    let delegate = Caller::delegate(DELEGATE, INITIATOR);
    match o {
        Op::PublicInsert(n) => {
            let _ = sys.resolver.insert(
                &public,
                &words_uri(),
                &ContentValues::new().put("word", format!("p{n}")).put("frequency", *n as i64),
            );
        }
        Op::DelegateInsert(n) => {
            let _ = sys.resolver.insert(
                &delegate,
                &words_uri(),
                &ContentValues::new().put("word", format!("d{n}")),
            );
        }
        Op::DelegateUpdate(n) => {
            let _ = sys.resolver.update(
                &delegate,
                &words_uri().with_id((*n % 4) as i64 + 1),
                &ContentValues::new().put("frequency", *n as i64),
                &QueryArgs::default(),
            );
        }
        Op::VolatileInsert(n) => {
            let _ = sys.resolver.insert(
                &public,
                &words_uri(),
                &ContentValues::new().put("word", format!("v{n}")).volatile(),
            );
        }
        Op::DelegateFileWrite(i, data) => {
            let path = vpath("/storage/sdcard").join(&format!("f{i}.dat")).unwrap();
            let _ = sys.kernel.write(del_pid, &path, data, Mode::PUBLIC);
        }
        Op::ClearVol => {
            let _ = sys.clear_vol(INITIATOR);
        }
        Op::CommitVol(n) => {
            // The delta row of an updated public row keeps that row's id.
            let id = (*n % 4) as i64 + 1;
            let plan = VolCommitPlan {
                provider_rows: vec![(AUTHORITY.into(), "words".into(), id)],
                discard_rest: true,
                ..Default::default()
            };
            let _ = sys.commit_vol(INITIATOR, &plan);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Sweep every post-setup crash point of a random workload:
    /// recovery always succeeds, the public view recovered from any
    /// prefix is a state the live public view actually passed through
    /// (delegate activity never leaks via a crash), and the full log
    /// reproduces the live state exactly.
    #[test]
    fn random_workload_crash_sweep(ops in proptest::collection::vec(op(), 1..12)) {
        let mut sys = journaled_system();
        let del_pid = sys.launch_as_delegate(DELEGATE, INITIATOR).unwrap();
        let journal = sys.journal().unwrap().clone();
        journal.flush().unwrap();
        let base_len = journal.bytes().len();

        // Every public-view state the live system passed through.
        let mut public_history: Vec<Option<Vec<Vec<Value>>>> = Vec::new();
        let snap = |sys: &mut MaxoidSystem| {
            let rows = sys
                .resolver
                .query(&Caller::normal("bystander"), &words_uri(), &query_args())
                .ok()
                .map(|rs| rs.rows);
            rows
        };
        public_history.push(snap(&mut sys));
        for o in &ops {
            apply(&sys, del_pid, o);
            public_history.push(snap(&mut sys));
        }
        journal.flush().unwrap();
        let live = live_fingerprint(&mut sys);

        let log = journal.bytes();
        let boundaries = record_boundaries(&log);
        prop_assert_eq!(*boundaries.last().unwrap(), log.len());
        for &b in boundaries.iter().filter(|&&b| b >= base_len) {
            let fp = recovered_fingerprint(&crash_prefix(&log, b));
            prop_assert!(
                public_history.contains(&fp.public_words),
                "crash at {} recovered a public state never observed live: {:?}",
                b,
                fp.public_words
            );
            // A torn continuation of the same prefix recovers identically.
            if b < log.len() {
                let fp_torn = recovered_fingerprint(&torn_log(&log, b, 3));
                prop_assert_eq!(&fp_torn, &fp, "torn tail at {} diverged", b);
            }
        }
        let full = recovered_fingerprint(&log);
        prop_assert_eq!(&full, &live, "full-log replay must equal the live state");
    }

    /// Compaction equivalence: for a random workload, recovering from
    /// the compacted log is indistinguishable from recovering from the
    /// full log — same files, same public/delegate/volatile dictionary
    /// views — and both equal the live state. The compacted log also
    /// still parses cleanly and keeps its boundaries sweepable.
    #[test]
    fn compacted_log_recovers_like_full_log(ops in proptest::collection::vec(op(), 1..12)) {
        let mut sys = journaled_system();
        let del_pid = sys.launch_as_delegate(DELEGATE, INITIATOR).unwrap();
        let journal = sys.journal().unwrap().clone();
        for o in &ops {
            apply(&sys, del_pid, o);
        }
        journal.flush().unwrap();
        let live = live_fingerprint(&mut sys);
        let full_log = journal.bytes();
        let from_full = recovered_fingerprint(&full_log);

        sys.compact().expect("compact");
        let compacted = journal.bytes();
        let parsed = read_records(&compacted);
        prop_assert_eq!(parsed.tail, TailState::Clean);
        let bounds = record_boundaries(&compacted);
        prop_assert_eq!(
            *bounds.last().unwrap(),
            compacted.len(),
            "compacted log must stay boundary-sweepable"
        );
        let from_compacted = recovered_fingerprint(&compacted);
        prop_assert_eq!(&from_full, &live, "full-log replay must equal the live state");
        prop_assert_eq!(&from_compacted, &live, "compacted replay must equal the live state");
    }
}
