//! Block-backend equivalence and cold boot through the block layer.
//!
//! PR 7 moved two consumers onto `maxoid-block`: large VFS file payloads
//! spill to page-cache-backed sectors, and the WAL can write frames
//! through a block device instead of a `Vec<u8>`. Nothing about *what*
//! the system stores may change — only *where* the bytes live. This file
//! pins that contract:
//!
//! - **Backend equivalence** (proptest): the same randomized workload
//!   applied to a resident-only store, a mem-device-backed store and a
//!   file-device-backed store produces byte-identical `dump_tree()` and
//!   dirty images, including under a page budget far
//!   smaller than the working set (eviction pressure).
//! - **Cold boot**: a journaled system whose WAL sits on a file-backed
//!   [`BlockStorage`] is dropped and re-booted from the device alone;
//!   files and provider rows come back exactly, and the rebooted system
//!   keeps journaling (LSN continuity) so a *second* cold boot sees the
//!   post-reboot writes too. A cold boot reads its log through one window:
//!   no read larger than the window or the largest frame, each scan of the
//!   log front to back once.
//! - **Corruption stays loud**: the PR-3/PR-6 byte-flip discipline holds
//!   when the log's bytes round-trip through a block device — a flipped
//!   byte is `Corrupted`, never a silently shortened history — and a
//!   power-lossy device (torn sector, dead writes) never acknowledges a
//!   record the surviving image can't replay.
//! - **Rewrites are atomic**: a power cut at any device write of a
//!   checkpoint or a compaction reopens as the acknowledged log or as the
//!   whole rewrite, never a mix — including a checkpoint that splices its
//!   new tail behind the retained prefix, and a cut of the reopen's own
//!   redo of that splice.
//! - **Spliced ≡ rewritten** (proptest): a checkpoint that reads and
//!   replaces only what was logged since the last rewrite keeps exactly
//!   the committed records a whole-log rewrite would keep.
//! - **No laundering**: a checkpoint over a damaged log fails and leaves
//!   it as it was, instead of rewriting it as a clean, shorter history.
//! - **No acting on an unread log**: compaction, a cold boot and opening a
//!   journal over a log whose sectors fail to read return the error,
//!   instead of taking the log for an empty one.

use maxoid::durability::{recover, RecoveryError};
use maxoid::manifest::MaxoidManifest;
use maxoid::{Caller, ContentValues, MaxoidSystem, QueryArgs, Uri};
use maxoid_block::{BlockDevice, FaultDevice, FileDevice, MemDevice, ReadFaults};
use maxoid_journal::{
    flip_byte, read_records, record_boundaries, replay, BlockStorage, Delta, Fill, Journal,
    JournalError, JournalHandle, JournalSink, Record, Replacement, Storage, Tail, TailState,
    VfsRecord, SCAN_WINDOW,
};
use maxoid_sqldb::Value;
use maxoid_vfs::{vpath, Mode, Store, Uid, VPath, Vfs};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const PAGES: usize = 4;
const THRESHOLD: usize = 64;

/// The records a replay of `log` hands on.
fn committed(log: &[u8]) -> Vec<Record> {
    let mut recs = Vec::new();
    replay(log, |r| recs.push(r));
    recs
}

/// The store's dirty image, its dirty sets left as they are: the whole
/// store, for one built from empty.
fn image(s: &Store) -> Vec<u8> {
    let mut w = maxoid_journal::codec::ByteWriter::new();
    s.dirty_image().write_to(&mut w);
    w.into_bytes()
}

fn fpath(i: u8) -> VPath {
    vpath("/").join(&format!("f{}", i % 8)).unwrap()
}

/// Deterministic payload: contents depend on (seed, len) only, so the
/// same op produces the same bytes on every backend.
fn pattern(seed: u8, len: u16) -> Vec<u8> {
    (0..len as usize).map(|k| seed.wrapping_mul(31).wrapping_add(k as u8)).collect()
}

/// A step of the randomized store workload. Lengths deliberately straddle
/// the spill threshold (64) and the 4096-byte page size.
#[derive(Debug, Clone)]
enum Op {
    Write(u8, u16),
    Append(u8, u16),
    Unlink(u8),
    Read(u8),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), 0..9000u16).prop_map(|(i, n)| Op::Write(i, n)),
        (any::<u8>(), 0..5000u16).prop_map(|(i, n)| Op::Append(i, n)),
        any::<u8>().prop_map(Op::Unlink),
        any::<u8>().prop_map(Op::Read),
    ]
}

/// Applies one op; errors (e.g. unlinking a missing file) are returned so
/// callers can assert all backends fail identically.
fn apply(s: &mut Store, op: &Op) -> Result<Option<Vec<u8>>, maxoid_vfs::VfsError> {
    match op {
        Op::Write(i, n) => {
            s.write(&fpath(*i), &pattern(*i, *n), Uid::ROOT, Mode::PUBLIC).map(|_| None)
        }
        Op::Append(i, n) => s.append(&fpath(*i), &pattern(i.wrapping_add(1), *n)).map(|_| None),
        Op::Unlink(i) => s.unlink(&fpath(*i)).map(|_| None),
        Op::Read(i) => s.read(&fpath(*i)).map(Some),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The structural guarantee behind every other test here: residency is
    /// invisible. Same ops, three backends, identical observable state.
    #[test]
    fn prop_backends_are_equivalent(ops in proptest::collection::vec(op(), 1..60)) {
        let mut resident = Store::new();
        let mut mem = Store::with_block_device(Box::new(MemDevice::new()), PAGES, THRESHOLD);
        let file_dev = FileDevice::temp("equiv").expect("temp device");
        let mut file = Store::with_block_device(Box::new(file_dev), PAGES, THRESHOLD);

        for op in &ops {
            let a = apply(&mut resident, op);
            let b = apply(&mut mem, op);
            let c = apply(&mut file, op);
            prop_assert_eq!(&a, &b, "mem backend diverged on {:?}", op);
            prop_assert_eq!(&a, &c, "file backend diverged on {:?}", op);
        }

        prop_assert_eq!(resident.dump_tree(), mem.dump_tree());
        prop_assert_eq!(resident.dump_tree(), file.dump_tree());
        // Images are the serialization boundary: paged content must
        // materialize to the exact resident bytes.
        prop_assert_eq!(image(&resident), image(&mem));
        prop_assert_eq!(image(&resident), image(&file));

        // The page budget is structural: it never grows with the
        // working set.
        let st = mem.stats();
        prop_assert_eq!(st.cache_budget_bytes, (PAGES * 4096) as u64);
    }
}

/// Deterministic eviction-pressure case: a working set 8x the page budget
/// stays exact and the counters show the cache actually thrashed.
#[test]
fn eviction_pressure_keeps_backends_equivalent() {
    let resident = Store::new();
    let mem = Store::with_block_device(Box::new(MemDevice::new()), PAGES, THRESHOLD);
    for i in 0..8u8 {
        let data = pattern(i, 8000);
        resident.write(&fpath(i), &data, Uid::ROOT, Mode::PUBLIC).unwrap();
        mem.write(&fpath(i), &data, Uid::ROOT, Mode::PUBLIC).unwrap();
    }
    for i in 0..8u8 {
        assert_eq!(resident.read(&fpath(i)).unwrap(), mem.read(&fpath(i)).unwrap());
    }
    assert_eq!(image(&resident), image(&mem));
    let st = mem.stats();
    let cache = st.cache.expect("paged store exposes cache stats");
    assert!(cache.evictions > 0, "8x working set must evict: {cache:?}");
    assert_eq!(st.spilled_files, 8);
    assert_eq!(st.cache_budget_bytes, (PAGES * 4096) as u64);
}

const INITIATOR: &str = "initiator";
const AUTHORITY: &str = "user_dictionary";

fn words_uri() -> Uri {
    Uri::parse(&format!("content://{AUTHORITY}/words")).unwrap()
}

fn query_words(sys: &MaxoidSystem) -> Vec<Vec<Value>> {
    let args = QueryArgs {
        projection: vec!["word".into(), "frequency".into()],
        sort_order: Some("_id".into()),
        ..QueryArgs::default()
    };
    sys.resolver.query(&Caller::normal(INITIATOR), &words_uri(), &args).expect("query").rows
}

fn files_of(sys: &MaxoidSystem) -> BTreeMap<String, (bool, Vec<u8>, u32, u8)> {
    sys.kernel.vfs().with_store(|s| s.dump_tree())
}

fn seed_system(sys: &MaxoidSystem) {
    sys.install(INITIATOR, vec![], MaxoidManifest::new()).expect("install");
    let caller = Caller::normal(INITIATOR);
    for (w, f) in [("hello", 10), ("world", 20)] {
        sys.resolver
            .insert(&caller, &words_uri(), &ContentValues::new().put("word", w).put("frequency", f))
            .expect("insert");
    }
    // A payload big enough to spill on a block-backed store.
    sys.kernel
        .vfs()
        .with_store_mut(|s| {
            s.mkdir_all(&vpath("/storage/sdcard"), Uid::ROOT, Mode::PUBLIC)?;
            s.write(&vpath("/storage/sdcard/blob"), &pattern(7, 9000), Uid::ROOT, Mode::PUBLIC)
        })
        .expect("write blob");
}

/// Opens (or reopens) a journal over the file device at `path`.
fn file_journal(path: &std::path::Path, fresh: bool) -> JournalHandle {
    let mut dev =
        if fresh { FileDevice::create(path).unwrap() } else { FileDevice::open(path).unwrap() };
    dev.set_delete_on_drop(false);
    JournalHandle::with_storage(Box::new(BlockStorage::open(Box::new(dev), 8).unwrap()), 1).unwrap()
}

#[test]
fn cold_boot_from_file_backed_journal_restores_state() {
    let dir = std::env::temp_dir();
    let path = dir.join(format!("maxoid-coldboot-{}.blk", std::process::id()));
    let _ = std::fs::remove_file(&path);

    // First life: journaled boot over a file-backed block device.
    let sys = MaxoidSystem::boot_journaled(file_journal(&path, true)).expect("boot");
    seed_system(&sys);
    sys.journal().unwrap().flush().unwrap();
    let files = files_of(&sys);
    let words = query_words(&sys);
    drop(sys);

    // Second life: nothing survives but the device. Boot cold into a
    // block-backed VFS so recovered payloads spill to pages, not RAM.
    let vfs = Vfs::with_block_device(Box::new(MemDevice::new()), 8, THRESHOLD);
    let sys2 =
        MaxoidSystem::boot_journaled_with_vfs(file_journal(&path, false), vfs).expect("cold boot");
    // App installs are not journaled; re-install before using the cast.
    sys2.install(INITIATOR, vec![], MaxoidManifest::new()).expect("re-install");
    assert_eq!(files_of(&sys2), files, "file tree must survive the reboot");
    assert_eq!(query_words(&sys2), words, "provider rows must survive the reboot");
    let st = sys2.store_stats();
    assert!(st.spilled_files > 0, "the 9000-byte blob must spill after recovery: {st:?}");

    // Third life: writes made after the cold boot are journaled with
    // continuing LSNs, so another reboot sees them too.
    sys2.resolver
        .insert(
            &Caller::normal(INITIATOR),
            &words_uri(),
            &ContentValues::new().put("word", "reborn").put("frequency", 3),
        )
        .expect("post-reboot insert");
    sys2.journal().unwrap().flush().unwrap();
    let words2 = query_words(&sys2);
    assert_eq!(words2.len(), words.len() + 1);
    drop(sys2);

    let sys3 = MaxoidSystem::boot_journaled(file_journal(&path, false)).expect("second cold boot");
    sys3.install(INITIATOR, vec![], MaxoidManifest::new()).expect("re-install");
    assert_eq!(query_words(&sys3), words2, "post-reboot write must survive the next reboot");
    drop(sys3);
    let _ = std::fs::remove_file(&path);
}

/// Builds a journaled system over an in-memory `BlockStorage`, runs the
/// seed workload and returns the flushed log bytes.
fn block_backed_log() -> Vec<u8> {
    let j = JournalHandle::with_storage(Box::new(BlockStorage::in_memory(8)), 1).unwrap();
    let sys = MaxoidSystem::boot_journaled(j).expect("boot");
    seed_system(&sys);
    let j = sys.journal().unwrap().clone();
    j.flush().unwrap();
    j.bytes()
}

#[test]
fn byte_flip_sweep_survives_the_block_device() {
    let log = block_backed_log();
    let clean = read_records(&log);
    assert_eq!(clean.tail, TailState::Clean);
    assert!(clean.records.len() > 10, "seed workload must produce a real log");

    // Same discipline as the PR-3/PR-6 sweeps, now on bytes that lived in
    // sectors behind a page cache: any flip is Corrupted at or before the
    // damaged frame, never a quietly shorter history.
    for offset in (0..log.len()).step_by(7) {
        for mask in [0x01u8, 0x80] {
            let flipped = flip_byte(&log, offset, mask);
            let parsed = read_records(&flipped);
            match parsed.tail {
                TailState::Corrupted { offset: at } => {
                    assert!(at <= offset, "corruption at {offset} reported downstream at {at}");
                    assert!(parsed.records.len() <= clean.records.len());
                }
                other => panic!(
                    "flip at byte {offset} (mask {mask:#04x}) parsed as {other:?} — silently shortened"
                ),
            }
        }
    }
    for offset in (0..log.len()).step_by(97) {
        match recover(&flip_byte(&log, offset, 0xFF)) {
            Err(RecoveryError::Corrupted { .. }) => {}
            Err(other) => panic!("flip at {offset}: wrong error {other}"),
            Ok(_) => panic!("flip at {offset}: recovery succeeded on a corrupted log"),
        }
    }
}

/// A mem device whose platter is shared out-of-band, so a test can crash
/// the journal stack and then inspect what "the disk" actually holds —
/// the same split a real power cut makes between RAM and media. It also
/// counts the sector writes that reached the platter.
#[derive(Clone, Default)]
struct SharedDev(Arc<Mutex<MemDevice>>, Arc<AtomicU64>);

impl SharedDev {
    fn writes(&self) -> u64 {
        self.1.load(Ordering::Relaxed)
    }

    /// A fresh platter holding a copy of this one's bytes.
    fn copy(&self) -> SharedDev {
        let copy = SharedDev::default();
        let src = self.0.lock().unwrap();
        for (sec, chunk) in src.raw().chunks(src.sector_size()).enumerate() {
            copy.0.lock().unwrap().write_sector(sec as u64, chunk).unwrap();
        }
        copy
    }
}

impl maxoid_block::BlockDevice for SharedDev {
    fn sector_size(&self) -> usize {
        self.0.lock().unwrap().sector_size()
    }
    fn len_sectors(&self) -> u64 {
        self.0.lock().unwrap().len_sectors()
    }
    fn read_sector(&mut self, sector: u64, buf: &mut [u8]) -> maxoid_block::BlockResult<()> {
        self.0.lock().unwrap().read_sector(sector, buf)
    }
    fn write_sector(&mut self, sector: u64, buf: &[u8]) -> maxoid_block::BlockResult<()> {
        self.1.fetch_add(1, Ordering::Relaxed);
        self.0.lock().unwrap().write_sector(sector, buf)
    }
    fn flush(&mut self) -> maxoid_block::BlockResult<()> {
        self.0.lock().unwrap().flush()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Power loss through the device, not the storage mock: a
    /// write-budgeted [`FaultDevice`] dies mid-append (with a torn-sector
    /// prefix landing on the platter), and whatever image survives must
    /// replay every record the journal acknowledged — `append` returning
    /// `Ok` is a durability promise the block layer has to keep, even
    /// when the tear hits a superblock slot.
    #[test]
    fn prop_power_loss_never_loses_acked_records(budget in 1u64..40, torn in 0usize..4096) {
        let platter = SharedDev::default();
        let dev = FaultDevice::with_write_budget(Box::new(platter.clone()), budget, torn);
        let mut j = maxoid_journal::Journal::new(
            Box::new(BlockStorage::open(Box::new(dev), 4).unwrap()),
            1,
        )
        .unwrap();
        let mut acked = 0usize;
        for i in 0..64 {
            let rec = maxoid_journal::Record::Vfs(maxoid_journal::VfsRecord::Unlink {
                path: format!("/d{i}").into(),
            });
            match j.append(&rec) {
                Ok(_) => acked += 1,
                Err(_) => break,
            }
        }
        drop(j); // RAM is gone; only the platter survives.

        match BlockStorage::open(Box::new(platter), 4) {
            Ok(mut s) => {
                let parsed = read_records(&whole_log(&mut s));
                prop_assert!(parsed.records.len() >= acked,
                    "{} acked but only {} replayable", acked, parsed.records.len());
            }
            Err(e) => {
                // A loud failure is acceptable only if nothing was ever
                // acknowledged (the very first commit tore).
                prop_assert_eq!(acked, 0, "acked records but reopen failed: {}", e);
            }
        }
    }
}

/// The log rewrites of a checkpoint and a compaction.
#[derive(Clone, Copy, Debug)]
enum Rewrite {
    CheckpointDelta,
    Compact,
}

fn acked_sql(i: usize) -> Record {
    Record::Sql { db: "db.t".into(), sql: format!("INSERT {i}"), params: vec![] }
}

/// Acknowledges `n` `Sql` records at batch 8 on `dev`.
fn ack_n(dev: Box<dyn maxoid_block::BlockDevice>, n: usize) -> Journal {
    let mut j = Journal::new(Box::new(BlockStorage::open(dev, 4).unwrap()), 8).unwrap();
    for i in 0..n {
        j.append(&acked_sql(i)).unwrap();
    }
    assert_eq!((j.stats().flushes, j.stats().io_errors), (n as u64 / 8, 0), "all acknowledged");
    j
}

fn ack_200(dev: Box<dyn maxoid_block::BlockDevice>) -> Journal {
    ack_n(dev, 200)
}

fn run(j: &mut Journal, rewrite: Rewrite) -> maxoid_journal::JournalResult<()> {
    match rewrite {
        Rewrite::CheckpointDelta => j.checkpoint_delta("vfs.store", &[5; 3000][..]),
        Rewrite::Compact => {
            let sql =
                Record::Sql { db: "db.t".into(), sql: "CREATE TABLE t (x)".into(), params: vec![] };
            j.compact(&[sql], "vfs.store", &[6; 6000][..])
        }
    }
}

/// The committed records of the log on `platter`, after a reboot.
fn committed_on(platter: SharedDev) -> Vec<Record> {
    let log = log_on(&platter);
    let tail = read_records(&log).tail;
    assert!(!matches!(tail, TailState::Corrupted { .. }), "rewrite left {tail:?}");
    committed(&log)
}

/// A power cut anywhere inside a log rewrite — checkpoint or compaction,
/// torn sector or not — reopens as the acknowledged log or as the whole
/// rewrite, never as a mix: a rewrite writes its log beside the live one
/// and commits it with one superblock.
#[test]
fn rewrite_power_loss_keeps_the_old_log_or_the_new_one() {
    let old: Vec<Record> = (0..200).map(acked_sql).collect();
    for rewrite in [Rewrite::CheckpointDelta, Rewrite::Compact] {
        // A fault-free run counts the writes the acks take and the ones
        // the rewrite takes, and records the rewritten log.
        let platter = SharedDev::default();
        let mut j = ack_200(Box::new(platter.clone()));
        let acked = platter.writes();
        run(&mut j, rewrite).unwrap();
        drop(j);
        let total = platter.writes();
        let new = committed_on(platter);
        assert_ne!(new, old);

        for writes in acked..total {
            for torn in [0, 100, 4000] {
                let probe = SharedDev::default();
                let dev = FaultDevice::with_write_budget(Box::new(probe.clone()), writes, torn);
                let mut j = ack_200(Box::new(dev));
                assert!(run(&mut j, rewrite).is_err(), "the budget ends inside the rewrite");
                drop(j); // RAM is gone; only the platter survives.
                let got = committed_on(probe);
                assert!(
                    got == old || got == new,
                    "{rewrite:?} cut at write {writes} (torn {torn}): {} records, neither log",
                    got.len()
                );
            }
        }
        assert!(total - acked >= 3, "{rewrite:?} took only {} writes", total - acked);
    }
}

/// The raw log on `platter`, after a reboot.
fn log_on(platter: &SharedDev) -> Vec<u8> {
    let mut storage =
        BlockStorage::open(Box::new(platter.clone()), 4).expect("acked log must reopen");
    whole_log(&mut storage)
}

/// The whole durable log of `storage`.
fn whole_log(storage: &mut BlockStorage) -> Vec<u8> {
    let mut log = vec![0; storage.len()];
    storage.read_at(0, &mut log).unwrap();
    log
}

/// 200 acknowledged `Sql` records, a first checkpoint, then 100 more
/// `Sql` records and 100 VFS records, all acknowledged: the second
/// checkpoint on this journal keeps the first one's output (whose length
/// is returned) and splices.
fn ack_and_checkpoint(dev: Box<dyn maxoid_block::BlockDevice>) -> (Journal, usize) {
    let mut j = ack_200(dev);
    j.checkpoint_delta("vfs.store", &[4; 2000][..]).unwrap();
    let prefix = j.len();
    for i in 200..300 {
        j.append(&acked_sql(i)).unwrap();
        j.append(&Record::Vfs(VfsRecord::Unlink { path: format!("/d/f{}", i % 10) })).unwrap();
    }
    j.flush().unwrap();
    assert_eq!(j.stats().io_errors, 0, "all acknowledged");
    (j, prefix)
}

/// A power cut anywhere inside a checkpoint that keeps its retained prefix
/// — while the new tail is written beside the log, at the superblock
/// that commits it, or while it is copied in place — reopens as the
/// acknowledged log or as the whole new one, and a second reopen sees
/// the same log. A reopen that finds the copy in place unfinished redoes
/// it; cutting that redo at each of its writes still reopens as the new
/// log.
#[test]
fn splice_power_loss_keeps_the_old_log_or_the_new_one() {
    let checkpoint = |j: &mut Journal| j.checkpoint_delta("vfs.store", &[5; 3000][..]);
    let platter = SharedDev::default();
    let (mut j, prefix) = ack_and_checkpoint(Box::new(platter.clone()));
    let (acked, old) = (platter.writes(), j.bytes());
    checkpoint(&mut j).unwrap();
    let new = j.bytes();
    drop(j);
    let total = platter.writes();
    assert_eq!(log_on(&platter), new);
    assert_eq!(new[..prefix], old[..prefix], "the checkpoint kept the prefix");

    let (mut cuts, mut redo_cuts) = (0, 0);
    for writes in acked..total {
        for torn in [0, 100, 4000] {
            let probe = SharedDev::default();
            let dev = FaultDevice::with_write_budget(Box::new(probe.clone()), writes, torn);
            let (mut j, _) = ack_and_checkpoint(Box::new(dev));
            // A cut of the copy in place comes after the commit, so the
            // checkpoint may still return `Ok`.
            let _ = checkpoint(&mut j);
            drop(j); // RAM is gone; only the platter survives.
            cuts += 1;
            redo_cuts += cut_every_redo_write(&probe, &new);
            let got = log_on(&probe);
            assert!(got == old || got == new, "cut at write {writes} (torn {torn}): a mixed log");
            assert_eq!(log_on(&probe), got, "a second reopen sees the same log");
        }
    }
    // The tail's two sectors beside the log, the superblock naming the
    // move, the tail's three sectors in place, the superblock without the
    // move; three tears each.
    assert_eq!(total - acked, 7);
    assert_eq!(cuts, 7 * 3);
    // Twelve cuts leave the move for the reopen to finish: a tear of 100
    // or 4000 B at the move's superblock (the whole superblock lands),
    // every cut in place, and an untorn cut at the last superblock. Each
    // redo is four writes (three sectors, a superblock), three tears each.
    assert_eq!(redo_cuts, 12 * 4 * 3);
}

/// If reopening `platter` has to finish a pending move, cuts a reopen of
/// a copy of it at each of the redo's writes (tears 0/100/4000 B) and
/// checks that the next reopen sees `new`. Returns the cuts made.
fn cut_every_redo_write(platter: &SharedDev, new: &[u8]) -> usize {
    let counter = platter.copy();
    BlockStorage::open(Box::new(counter.clone()), 4).expect("the platter reopens");
    let mut cuts = 0;
    for writes in 0..counter.writes() {
        for torn in [0, 100, 4000] {
            let copy = platter.copy();
            let dev = FaultDevice::with_write_budget(Box::new(copy.clone()), writes, torn);
            assert!(BlockStorage::open(Box::new(dev), 4).is_err(), "the budget ends in the redo");
            assert_eq!(log_on(&copy), new, "redo cut at write {writes} (torn {torn})");
            cuts += 1;
        }
    }
    cuts
}

/// A checkpoint never turns a damaged log into a clean, shorter one: with
/// one flipped byte under 2,000 acknowledged records it fails with the
/// damaged frame's offset and leaves every byte of the log as it was.
#[test]
fn checkpoint_never_launders_a_damaged_log() {
    let platter = SharedDev::default();
    let j = ack_n(Box::new(platter.clone()), 2000);
    let clean = j.bytes();
    drop(j);
    let at = 20_559;
    let frame = *record_boundaries(&clean).iter().rfind(|&&b| b <= at).unwrap();
    // The log starts at the data area, past both superblock slots.
    platter.0.lock().unwrap().corrupt(2 * 4096 + at as u64, 0x10);
    let damaged = log_on(&platter);
    assert_eq!(damaged, flip_byte(&clean, at, 0x10));

    let storage = BlockStorage::open(Box::new(platter.clone()), 4).unwrap();
    let mut j = Journal::new(Box::new(storage), 8).unwrap();
    let writes = platter.writes();
    let got = j.checkpoint_delta("vfs.store", &[9; 100][..]);
    assert_eq!(got, Err(JournalError::Corrupted { offset: frame }));
    assert_eq!(platter.writes(), writes, "nothing was written");
    drop(j);
    assert_eq!(log_on(&platter), damaged, "the damaged log is still the log");
    assert!(matches!(recover(&damaged), Err(RecoveryError::Corrupted { .. })));
}

/// Block storage that records the `(offset, length)` of every read, a
/// replacement's reads of the old log included.
struct RecordingReads {
    inner: BlockStorage,
    reads: Arc<Mutex<Vec<(usize, usize)>>>,
}

impl Storage for RecordingReads {
    fn append(&mut self, bytes: &[u8]) -> maxoid_journal::JournalResult<()> {
        self.inner.append(bytes)
    }

    fn read_at(&mut self, offset: usize, buf: &mut [u8]) -> maxoid_journal::JournalResult<()> {
        self.reads.lock().unwrap().push((offset, buf.len()));
        self.inner.read_at(offset, buf)
    }

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn replace_from(
        &mut self,
        keep: usize,
        len: usize,
        fill: Fill<'_>,
    ) -> maxoid_journal::JournalResult<()> {
        let reads = &self.reads;
        let recorded = &mut |tail: &mut Tail<'_>| {
            Tail::run(len, &mut RecordedTail { tail, reads }, &mut *fill)
        };
        self.inner.replace_from(keep, len, recorded)
    }
}

/// A [`RecordingReads`] replacement's tail.
struct RecordedTail<'t, 'a, 'r> {
    tail: &'t mut Tail<'a>,
    reads: &'r Mutex<Vec<(usize, usize)>>,
}

impl Replacement for RecordedTail<'_, '_, '_> {
    fn write_at(&mut self, at: usize, bytes: &[u8]) -> maxoid_journal::JournalResult<()> {
        if at == self.tail.written() {
            self.tail.write(bytes)
        } else {
            self.tail.patch(at, bytes)
        }
    }

    fn read_old(&mut self, offset: usize, buf: &mut [u8]) -> maxoid_journal::JournalResult<()> {
        self.reads.lock().unwrap().push((offset, buf.len()));
        self.tail.read_old(offset, buf)
    }
}

/// A journal reopened over its device keeps the retained prefix its last
/// checkpoint left: the first checkpoint after the reopen reads only past
/// it, splices, and leaves the prefix's bytes as they were — while
/// keeping what a whole-log rewrite keeps.
#[test]
fn a_reopened_journal_keeps_its_retained_prefix() {
    let mut dev = FileDevice::temp("reopen-prefix").unwrap();
    dev.set_delete_on_drop(false);
    let path = dev.path().to_path_buf();
    let append_sql_and_vfs = |j: &mut Journal, range: std::ops::Range<usize>| {
        for i in range {
            j.append(&acked_sql(i)).unwrap();
            j.append(&Record::Vfs(VfsRecord::Unlink { path: format!("/d/f{}", i % 10) })).unwrap();
        }
        j.flush().unwrap();
    };
    let mut j = Journal::new(Box::new(BlockStorage::open(Box::new(dev), 4).unwrap()), 8).unwrap();
    append_sql_and_vfs(&mut j, 0..200);
    j.checkpoint_delta("vfs.store", &[4; 2000][..]).unwrap();
    let prefix = j.bytes();
    drop(j);

    let mut dev = FileDevice::open(&path).unwrap();
    dev.set_delete_on_drop(true);
    let reads = Arc::new(Mutex::new(Vec::new()));
    let inner = BlockStorage::open(Box::new(dev), 4).unwrap();
    let storage = RecordingReads { inner, reads: reads.clone() };
    let mut j = Journal::new(Box::new(storage), 8).unwrap();
    append_sql_and_vfs(&mut j, 200..300);
    let before = j.bytes();
    reads.lock().unwrap().clear();
    j.checkpoint_delta("vfs.store", &[5; 3000][..]).unwrap();
    let reads = reads.lock().unwrap().clone();
    assert!(!reads.is_empty());
    assert!(
        reads.iter().all(|&(at, _)| at >= prefix.len()),
        "the checkpoint read inside the {}-byte prefix: {reads:?}",
        prefix.len()
    );
    let after = j.bytes();
    assert_eq!(after[..prefix.len()], prefix[..], "the prefix's bytes are unchanged");
    let mut want = chain_and_sql(committed(&before));
    want.push(Record::SnapshotDelta { component: "vfs.store".into(), payload: vec![5; 3000] });
    assert_eq!(committed(&after), want);
}

/// A step of the `spliced ≡ rewritten` workload.
#[derive(Debug, Clone)]
enum LogOp {
    Sql(u16),
    Vfs(u8),
    Begin,
    Commit,
    Rollback,
    Checkpoint(u16),
    Compact,
    Reopen,
}

fn log_op() -> impl Strategy<Value = LogOp> {
    prop_oneof![
        any::<u16>().prop_map(LogOp::Sql),
        any::<u16>().prop_map(LogOp::Sql),
        any::<u8>().prop_map(LogOp::Vfs),
        any::<u8>().prop_map(LogOp::Vfs),
        Just(LogOp::Begin),
        Just(LogOp::Commit),
        Just(LogOp::Rollback),
        (0..5000u16).prop_map(LogOp::Checkpoint),
        Just(LogOp::Compact),
        Just(LogOp::Reopen),
    ]
}

/// The frames of a log, each a slice of it from magic byte to payload end.
fn frames_of(log: &[u8]) -> Vec<&[u8]> {
    record_boundaries(log).windows(2).skip(1).map(|w| &log[w[0]..w[1]]).collect()
}

/// The records a checkpoint keeps from the committed ones.
fn chain_and_sql(recs: Vec<Record>) -> Vec<Record> {
    recs.into_iter()
        .filter(|r| matches!(r, Record::SnapshotDelta { .. } | Record::Sql { .. }))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A checkpoint that keeps its retained prefix and splices only what
    /// was logged since the last rewrite leaves exactly the committed
    /// records a whole-log rewrite would: the committed image chain and
    /// SQL of the whole log before it, then the new delta. LSNs strictly
    /// rise across the spliced log, past everything the log held before.
    #[test]
    fn prop_spliced_checkpoints_equal_whole_log_rewrites(
        ops in proptest::collection::vec(log_op(), 1..80),
    ) {
        let platter = SharedDev::default();
        let open = || Journal::new(
            Box::new(BlockStorage::open(Box::new(platter.clone()), 2).unwrap()),
            4,
        ).unwrap();
        let mut j = open();
        let mut open_txns = Vec::new();
        for op in &ops {
            match *op {
                LogOp::Sql(i) => {
                    j.append(&acked_sql(i as usize)).unwrap();
                }
                LogOp::Vfs(i) => {
                    let path = format!("/d/f{}", i % 6);
                    j.append(&Record::Vfs(VfsRecord::Unlink { path })).unwrap();
                }
                LogOp::Begin => open_txns.push(j.begin_txn().unwrap()),
                LogOp::Commit => {
                    if let Some(t) = open_txns.pop() {
                        j.commit_txn(t).unwrap();
                    }
                }
                LogOp::Rollback => {
                    if let Some(t) = open_txns.pop() {
                        j.rollback_txn(t).unwrap();
                    }
                }
                LogOp::Checkpoint(n) => {
                    j.flush().unwrap();
                    let before_bytes = j.bytes();
                    let before = read_records(&before_bytes);
                    prop_assert_eq!(before.tail, TailState::Clean);
                    let delta = vec![n as u8; n as usize];
                    let mut want = chain_and_sql(committed(&before_bytes));
                    want.push(Record::SnapshotDelta {
                        component: "vfs.store".into(),
                        payload: delta.clone(),
                    });
                    j.checkpoint_delta("vfs.store", &delta[..]).unwrap();
                    let after_bytes = j.bytes();
                    let after = read_records(&after_bytes);
                    prop_assert_eq!(after.tail, TailState::Clean);
                    // Every frame but the new delta's is a frame of the
                    // old log, byte for byte: kept frames are copied with
                    // their LSNs and CRCs, never re-encoded.
                    let old_frames: HashSet<&[u8]> = frames_of(&before_bytes).into_iter().collect();
                    let new_frames = frames_of(&after_bytes);
                    let (delta_frame, kept) = new_frames.split_last().unwrap();
                    prop_assert!(kept.iter().all(|f| old_frames.contains(f)));
                    prop_assert!(!old_frames.contains(delta_frame));
                    prop_assert_eq!(committed(&after_bytes), want);
                    prop_assert!(after.records.windows(2).all(|w| w[0].0 < w[1].0));
                    prop_assert!(after.last_lsn() > before.last_lsn());
                }
                LogOp::Compact => {
                    // The committed chain and SQL as the compaction's
                    // records, then its image.
                    j.flush().unwrap();
                    let live = chain_and_sql(committed(&j.bytes()));
                    j.compact(&live, "vfs.store", &[7; 100][..]).unwrap();
                }
                LogOp::Reopen => {
                    // Queued records die with the process, open
                    // transactions with them.
                    drop(j);
                    j = open();
                    open_txns.clear();
                }
            }
        }
    }
}

/// Opens a journal (2-page cache, so reads reach the device) over
/// `platter` behind a [`FaultDevice`], returning the handle that arms its
/// read faults.
fn faulty_journal(platter: &SharedDev) -> (JournalHandle, ReadFaults) {
    let dev = FaultDevice::new(Box::new(platter.clone()));
    let faults = dev.read_faults();
    let storage = BlockStorage::open(Box::new(dev), 2).unwrap();
    (JournalHandle::with_storage(Box::new(storage), 1).unwrap(), faults)
}

/// Fails (or, with `on == false`, heals) reads of every data sector
/// `platter` holds — every written sector past the two superblock slots.
fn data_read_faults(faults: &ReadFaults, platter: &SharedDev, on: bool) {
    for sector in 2..platter.len_sectors() {
        if on {
            faults.fail(sector)
        } else {
            faults.clear(sector)
        }
    }
}

/// Boots a journaled system on `platter` and journals 50 files of 3,000
/// bytes; returns it with its read-fault handle and the file tree the log
/// recovers.
fn fifty_files(platter: &SharedDev) -> (MaxoidSystem, ReadFaults, usize) {
    let (j, faults) = faulty_journal(platter);
    let sys = MaxoidSystem::boot_journaled(j.clone()).expect("boot");
    sys.kernel
        .vfs()
        .with_store_mut(|s| -> Result<(), maxoid_vfs::VfsError> {
            s.mkdir_all(&vpath("/storage/sdcard/probe"), Uid::ROOT, Mode::PUBLIC)?;
            for i in 0..50u8 {
                let path = vpath("/storage/sdcard/probe").join(&format!("f{i}")).unwrap();
                s.write(&path, &pattern(i, 3000), Uid::ROOT, Mode::PUBLIC)?;
            }
            Ok(())
        })
        .expect("write files");
    j.flush().unwrap();
    let entries = recover(&j.bytes()).expect("recover").vfs.with_store(|s| s.dump_tree()).len();
    assert!(entries > 50, "the log must hold the 50 files: {entries} entries");
    (sys, faults, entries)
}

#[test]
fn compaction_under_read_faults_fails_and_keeps_the_log() {
    let platter = SharedDev::default();
    let (sys, faults, entries) = fifty_files(&platter);
    let j = sys.journal().unwrap().clone();
    let log = j.bytes();
    data_read_faults(&faults, &platter, true);
    assert!(sys.compact().is_err(), "compaction must not rewrite a log it could not read");
    data_read_faults(&faults, &platter, false);
    assert_eq!(j.bytes(), log, "the log is as it was");
    let rec = recover(&j.bytes()).expect("recover");
    assert_eq!(rec.vfs.with_store(|s| s.dump_tree()).len(), entries);
}

#[test]
fn cold_boot_under_read_faults_fails() {
    let platter = SharedDev::default();
    let (sys, _, _) = fifty_files(&platter);
    drop(sys);
    let (j, faults) = faulty_journal(&platter);
    data_read_faults(&faults, &platter, true);
    assert!(
        MaxoidSystem::boot_journaled(j).is_err(),
        "a cold boot must not come up empty over a log it could not read"
    );
}

/// `reads` cut into runs, each read starting where the one before it
/// ended.
fn runs(reads: &[(usize, usize)]) -> Vec<std::ops::Range<usize>> {
    let mut out: Vec<std::ops::Range<usize>> = Vec::new();
    for &(at, n) in reads {
        match out.last_mut() {
            Some(run) if run.end == at => run.end += n,
            _ => out.push(at..at + n),
        }
    }
    out
}

/// A cold boot reads its log through one window: the journal's open and
/// the replay each read the log once, front to back, in reads of at most
/// the window or the largest frame, and no read covers the whole log.
#[test]
fn a_cold_boot_reads_its_log_through_one_window() {
    let platter = SharedDev::default();
    let storage = BlockStorage::open(Box::new(platter.clone()), 4).unwrap();
    let j = JournalHandle::with_storage(Box::new(storage), 16).unwrap();
    let sys = MaxoidSystem::boot_journaled(j.clone()).expect("boot");
    seed_system(&sys);
    // Files before a checkpoint, whose image frame outgrows the window,
    // and more after it, so the log spans several windows.
    let write = |from: u8, to: u8| {
        sys.kernel.vfs().with_store_mut(|s| {
            for i in from..to {
                let path = vpath("/storage/sdcard").join(&format!("f{i}")).unwrap();
                s.write(&path, &pattern(i, 20_000), Uid::ROOT, Mode::PUBLIC).unwrap();
            }
        })
    };
    write(0, 40);
    sys.checkpoint_incremental().unwrap();
    write(40, 100);
    j.flush().unwrap();
    let (files, words) = (files_of(&sys), query_words(&sys));
    drop((sys, j));
    let log = log_on(&platter);
    let largest = record_boundaries(&log).windows(2).skip(1).map(|w| w[1] - w[0]).max().unwrap();
    assert!(log.len() > 4 * SCAN_WINDOW && largest > SCAN_WINDOW, "{} B, {largest}", log.len());

    let reads = Arc::new(Mutex::new(Vec::new()));
    let inner = BlockStorage::open(Box::new(platter.clone()), 4).unwrap();
    let storage = RecordingReads { inner, reads: reads.clone() };
    let j = JournalHandle::with_storage(Box::new(storage), 16).unwrap();
    let sys = MaxoidSystem::boot_journaled(j).expect("cold boot");
    sys.install(INITIATOR, vec![], MaxoidManifest::new()).expect("re-install");
    assert_eq!(files_of(&sys), files);
    assert_eq!(query_words(&sys), words);
    let reads = reads.lock().unwrap().clone();
    let bound = SCAN_WINDOW.max(largest);
    assert!(reads.iter().all(|&(_, n)| n <= bound), "a read past {bound} B: {reads:?}");
    assert!(reads.iter().all(|&(_, n)| n < log.len()), "a read of the whole log");
    assert_eq!(runs(&reads), vec![0..log.len(), 0..log.len()], "the open's scan, the replay");
}

#[test]
fn opening_a_journal_over_an_unreadable_log_fails() {
    let platter = SharedDev::default();
    let (sys, _, _) = fifty_files(&platter);
    drop(sys);
    let dev = FaultDevice::new(Box::new(platter.clone()));
    let faults = dev.read_faults();
    let storage = BlockStorage::open(Box::new(dev), 2).unwrap();
    data_read_faults(&faults, &platter, true);
    // Numbering from 1 over this log would make the next append corrupt it.
    assert!(JournalHandle::with_storage(Box::new(storage), 1).is_err());
    data_read_faults(&faults, &platter, false);
    let (j, _) = faulty_journal(&platter);
    j.emit(Record::Sql { db: "d".into(), sql: "SELECT 1".into(), params: vec![] });
    assert_eq!(read_records(&j.bytes()).tail, TailState::Clean, "LSNs continue past the log");
}
