//! Crash recovery: rebuilding the substrate from a journal.
//!
//! A journaled system ([`crate::MaxoidSystem::boot_journaled`]) logs two
//! kinds of state mutation:
//!
//! - **physical VFS records** under the [`VFS_COMPONENT`] component —
//!   every leaf store primitive (mkdir, write, unlink, ...) that
//!   succeeded on the live store;
//! - **logical SQL records** under `db.<authority>` components — the
//!   statement text and parameters of every successful mutating
//!   statement a provider database executed, which on replay rebuilds
//!   the full catalog (tables, indexes, views, triggers) and rows.
//!
//! Every reader of a log goes through the journal's one replay
//! ([`maxoid_journal::replay()`], or [`JournalState::replay`] over the
//! journal's storage, under [`maxoid_journal::Journal::with_flushed`]),
//! which scans the log one frame at a time and hands on each record as
//! soon as the redo filter settles it as taking effect; the substrate is
//! rebuilt as the records arrive. [`recover`] replays a log in memory,
//! the cold boot replays the journal's own storage through one window of
//! it, and [`compact`] replays it into a scratch substrate. Records inside
//! a journal transaction apply only if every enclosing transaction
//! committed before the crash, so a volatile-state commit interrupted at
//! any record boundary lands all-committed or all-volatile — never
//! between (the S2 invariant exercised by the crash fault-injection
//! tests). A `SnapshotDelta` (the store's one image format, written by
//! checkpoints and by compaction) merges over the store the earlier
//! records rebuilt, before later records re-apply. Every image arrives
//! through one journal rewrite that replaces the log atomically, so a
//! crash mid-checkpoint or mid-compaction recovers the log from before it
//! or the one after it.

use crate::system::{SystemError, SystemResult};
use maxoid_journal::{JournalState, Record, TailState};
use maxoid_sqldb::{Database, FlattenPolicy};
use maxoid_vfs::Vfs;
use std::collections::BTreeMap;

/// Component name under which the VFS store journals itself.
pub const VFS_COMPONENT: &str = "vfs.store";

/// Prefix of provider-database component names (`db.<authority>`).
pub const DB_COMPONENT_PREFIX: &str = "db.";

/// Why replaying a log failed. A well-formed log produced by a journaled
/// system replays cleanly; these errors indicate a corrupted or
/// foreign log (torn tails are *not* errors — they truncate the log at
/// the last valid frame instead).
#[derive(Debug)]
pub enum RecoveryError {
    /// A VFS record failed to apply.
    Vfs(maxoid_vfs::VfsError),
    /// A SQL record failed to apply against the named component.
    Sql {
        /// The database component (`db.<authority>`).
        db: String,
        /// The underlying SQL error.
        error: maxoid_sqldb::SqlError,
    },
    /// An image record named a component this version cannot restore.
    UnknownComponent(String),
    /// The log carries damage a torn write cannot explain (mid-log bit
    /// rot, bad magic, checksum failure on a complete frame). Committed
    /// history past `offset` may exist but cannot be trusted; recovering
    /// a silent prefix would violate S2, so recovery refuses.
    Corrupted {
        /// Byte offset of the damaged frame.
        offset: usize,
    },
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Vfs(e) => write!(f, "vfs replay: {e}"),
            RecoveryError::Sql { db, error } => write!(f, "sql replay into {db}: {error}"),
            RecoveryError::UnknownComponent(c) => write!(f, "unknown snapshot component: {c}"),
            RecoveryError::Corrupted { offset } => {
                write!(f, "journal corrupted at byte {offset}: committed history unrecoverable")
            }
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<RecoveryError> for SystemError {
    fn from(e: RecoveryError) -> Self {
        SystemError::Recovery(e.to_string())
    }
}

/// The substrate rebuilt from a journal.
#[derive(Debug)]
pub struct RecoveredSubstrate {
    /// The file store, rebuilt record by record and image by image.
    pub vfs: Vfs,
    /// Provider databases keyed by full component name
    /// (`db.<authority>`).
    pub dbs: BTreeMap<String, Database>,
    /// Whether the log ended cleanly or with a torn (truncated) frame.
    pub tail: TailState,
}

impl RecoveredSubstrate {
    /// Removes and returns the recovered database for a provider
    /// authority, or a fresh database if the journal never mentioned it
    /// (a crash before the provider's first flushed statement).
    pub fn take_db(&mut self, authority: &str) -> Database {
        self.dbs
            .remove(&format!("{DB_COMPONENT_PREFIX}{authority}"))
            .unwrap_or_else(|| Database::with_policy(FlattenPolicy::Sqlite386))
    }
}

/// A substrate rebuilt from the records a replay hands on, as they
/// arrive, into `vfs` — empty, with no journal attached: replay must
/// not re-log itself. The first record that fails to apply is kept, and
/// the ones after it are skipped.
struct Rebuild {
    vfs: Vfs,
    dbs: BTreeMap<String, Database>,
    failed: Option<RecoveryError>,
}

impl Rebuild {
    fn new(vfs: Vfs) -> Self {
        Rebuild { vfs, dbs: BTreeMap::new(), failed: None }
    }

    /// Applies one record that takes effect.
    fn apply(&mut self, rec: Record) {
        if self.failed.is_some() {
            return;
        }
        let vfs = &self.vfs;
        let result = match rec {
            Record::Vfs(v) => {
                vfs.with_store(|s| s.apply_journal_record(&v)).map_err(RecoveryError::Vfs)
            }
            Record::SnapshotDelta { component, payload } if component == VFS_COMPONENT => {
                vfs.with_store(|s| s.apply_dirty_image(&payload)).map_err(RecoveryError::Vfs)
            }
            Record::SnapshotDelta { component, .. } => {
                Err(RecoveryError::UnknownComponent(component))
            }
            Record::Sql { db, sql, params } => self
                .dbs
                .entry(db.clone())
                .or_insert_with(|| Database::with_policy(FlattenPolicy::Sqlite386))
                .apply_journal_sql(&sql, &params)
                .map_err(|error| RecoveryError::Sql { db, error }),
            // The replay hands on no transaction markers.
            _ => Ok(()),
        };
        self.failed = result.err();
    }

    /// The rebuilt substrate, once the replay ended with `tail`. Damage
    /// wins over a record that failed to apply before it: nothing in a
    /// damaged log can be trusted, so the damage is what to report.
    fn finish(self, tail: TailState) -> Result<RecoveredSubstrate, RecoveryError> {
        match (tail, self.failed) {
            (TailState::Corrupted { offset }, _) => Err(RecoveryError::Corrupted { offset }),
            (_, Some(e)) => Err(e),
            (tail, None) => Ok(RecoveredSubstrate { vfs: self.vfs, dbs: self.dbs, tail }),
        }
    }
}

/// Replays the committed prefix of `log_bytes` into a fresh substrate.
///
/// A *torn* tail — a truncated final frame, the only shape a crashed
/// append can leave — is tolerated: everything after it was never durable
/// and is discarded. Any other damage (bad magic, a checksum or decode
/// failure on a complete frame, valid frames beyond the bad region) is
/// corruption: committed history may lie past it, so recovery returns
/// [`RecoveryError::Corrupted`] instead of silently replaying a prefix.
/// Recovered databases use the default planner policy; the policy is an
/// execution-time setting, not journaled state.
pub fn recover(log_bytes: &[u8]) -> Result<RecoveredSubstrate, RecoveryError> {
    let mut rebuild = Rebuild::new(Vfs::new());
    let tail = maxoid_journal::replay(log_bytes, |rec| rebuild.apply(rec));
    rebuild.finish(tail)
}

/// Like [`recover`], over `journal`'s durable log read through one window
/// of its storage, into `vfs` (empty, no journal attached) — the cold boot
/// hands in a block-backed store, so recovered file payloads spill to
/// device pages instead of resident memory. A log that cannot be read
/// fails with the read error.
pub(crate) fn recover_journal(
    journal: &JournalState,
    vfs: Vfs,
) -> SystemResult<RecoveredSubstrate> {
    let mut rebuild = Rebuild::new(vfs);
    let tail = journal.replay(|rec| rebuild.apply(rec))?;
    Ok(rebuild.finish(tail)?)
}

/// Compacts `journal`: records that replay to the *same* live state
/// without the uptime history. The durable log is replayed into a scratch
/// substrate, collecting the committed DDL statements (CREATE/DROP/ALTER —
/// catalog state that rows alone cannot reproduce) in the same pass; the
/// log is then rewritten from empty as that DDL in log order, each
/// database's row dump, and the scratch store's image. Row-churn history
/// (INSERT/UPDATE/DELETE chains) collapses into the final rows, which is
/// what bounds recovery cost by live state. The scratch store was built
/// from empty, so every slot is in its dirty set and its dirty image is
/// the whole store, allocation state included; it streams into the new
/// log as a checkpoint's delta does.
///
/// The caller holds the journal from the replay through the rewrite
/// ([`maxoid_journal::Journal::with_flushed`]), so no record becomes
/// durable between them. A log that cannot be read or replayed is an
/// error, and the log stays as it was.
pub fn compact(journal: &mut JournalState) -> SystemResult<()> {
    let mut rebuild = Rebuild::new(Vfs::new());
    let mut records = Vec::new();
    let tail = journal.replay(|rec| {
        if matches!(&rec, Record::Sql { sql, .. } if is_ddl(sql)) {
            records.push(rec.clone());
        }
        rebuild.apply(rec)
    })?;
    let sub = rebuild.finish(tail)?;
    for (component, db) in &sub.dbs {
        for (sql, params) in db.dump_sql() {
            records.push(Record::Sql { db: component.clone(), sql, params });
        }
    }
    sub.vfs.with_store(|s| journal.compact(&records, VFS_COMPONENT, &s.dirty_image()))?;
    Ok(())
}

/// True for statements that define catalog state (tables, indexes, views,
/// triggers, rowid floors) rather than row contents. Compaction retains
/// these verbatim and re-derives everything else from live rows.
fn is_ddl(sql: &str) -> bool {
    let first = sql.split_whitespace().next().unwrap_or("");
    first.eq_ignore_ascii_case("CREATE")
        || first.eq_ignore_ascii_case("DROP")
        || first.eq_ignore_ascii_case("ALTER")
}

#[cfg(test)]
mod tests {
    use super::*;
    use maxoid_journal::{Journal, MemStorage, Storage};
    use maxoid_vfs::{vpath, Mode, Uid};

    /// Compacts `j` as `MaxoidSystem::compact` does.
    fn compact_journal(j: &Journal) {
        j.with_flushed(compact).unwrap().unwrap();
    }

    #[test]
    fn recover_rebuilds_vfs_and_db() {
        let j = Journal::in_memory(1);
        let vfs = Vfs::new();
        vfs.attach_journal(j.clone());
        vfs.with_store(|s| {
            s.mkdir_all(&vpath("/data"), Uid::ROOT, Mode::PUBLIC).unwrap();
            s.write(&vpath("/data/f"), b"hello", Uid(10_001), Mode::PRIVATE).unwrap();
        });
        let mut db = Database::new();
        db.set_journal(j.clone(), "db.test");
        db.execute_batch("CREATE TABLE t (_id INTEGER PRIMARY KEY, v TEXT);").unwrap();
        db.execute("INSERT INTO t (v) VALUES (?)", &[maxoid_sqldb::Value::Text("x".into())])
            .unwrap();
        j.flush().unwrap();

        let mut rec = recover(&j.bytes()).unwrap();
        assert_eq!(rec.tail, TailState::Clean);
        let want = vfs.with_store(|s| s.dump_tree());
        let got = rec.vfs.with_store(|s| s.dump_tree());
        assert_eq!(want, got);
        let rdb = rec.take_db("test");
        let rs = rdb.query("SELECT v FROM t", &[]).unwrap();
        assert_eq!(rs.rows, vec![vec![maxoid_sqldb::Value::Text("x".into())]]);
        // An authority the log never mentioned comes back empty.
        assert!(rec.take_db("ghost").table_names().is_empty());
    }

    #[test]
    fn compacted_log_recovers_identically() {
        let j = Journal::in_memory(1);
        let vfs = Vfs::new();
        vfs.attach_journal(j.clone());
        vfs.with_store(|s| {
            s.mkdir_all(&vpath("/a/b"), Uid::ROOT, Mode::PUBLIC).unwrap();
            s.write(&vpath("/a/b/f"), b"version 1", Uid(10_001), Mode::PRIVATE).unwrap();
            // Churn: overwrites and a delete, so history != live state.
            for i in 0..50 {
                let body = format!("version {i}, same file rewritten over and over");
                s.write(&vpath("/a/b/f"), body.as_bytes(), Uid(10_001), Mode::PRIVATE).unwrap();
            }
            s.write(&vpath("/a/tmp"), b"gone", Uid::ROOT, Mode::PUBLIC).unwrap();
            s.unlink(&vpath("/a/tmp")).unwrap();
        });
        let mut db = Database::new();
        db.set_journal(j.clone(), "db.contacts");
        db.execute_batch("CREATE TABLE t (_id INTEGER PRIMARY KEY, v TEXT);").unwrap();
        db.execute_batch("CREATE TABLE hid (v TEXT);").unwrap();
        for i in 0..10 {
            db.execute(
                "INSERT INTO t (v) VALUES (?)",
                &[maxoid_sqldb::Value::Text(format!("row{i}"))],
            )
            .unwrap();
            db.execute(
                "INSERT INTO hid (v) VALUES (?)",
                &[maxoid_sqldb::Value::Text(format!("h{i}"))],
            )
            .unwrap();
        }
        for i in 0..30 {
            db.execute(
                "UPDATE t SET v = ? WHERE _id = ?",
                &[
                    maxoid_sqldb::Value::Text(format!("rewrite{i}")),
                    maxoid_sqldb::Value::Integer(3),
                ],
            )
            .unwrap();
        }
        // Delete the max-rowid rows so compaction must reproduce the
        // allocation floor, not just the surviving keys.
        db.execute("DELETE FROM t WHERE _id > ?", &[maxoid_sqldb::Value::Integer(7)]).unwrap();
        db.execute("DELETE FROM hid WHERE v = ?", &[maxoid_sqldb::Value::Text("h9".into())])
            .unwrap();
        j.flush().unwrap();
        let full = j.bytes();

        compact_journal(&j);
        let compacted = j.bytes();
        assert!(compacted.len() < full.len(), "compaction should shrink a churned log");

        let mut from_full = recover(&full).unwrap();
        let mut from_compacted = recover(&compacted).unwrap();
        assert_eq!(
            from_full.vfs.with_store(|s| s.dump_tree()),
            from_compacted.vfs.with_store(|s| s.dump_tree())
        );
        let (a, b) = (from_full.take_db("contacts"), from_compacted.take_db("contacts"));
        assert_eq!(a.table_names(), b.table_names());
        for table in ["t", "hid"] {
            let q = format!("SELECT * FROM {table}");
            assert_eq!(a.query(&q, &[]).unwrap().rows, b.query(&q, &[]).unwrap().rows);
        }
        // Allocation state survives: the dumps (rows + rowid floors)
        // agree, and fresh inserts pick the same keys.
        assert_eq!(a.dump_sql(), b.dump_sql());
        let mut a = a;
        let mut b = b;
        for db in [&mut a, &mut b] {
            db.execute("INSERT INTO t (v) VALUES (?)", &[maxoid_sqldb::Value::Text("new".into())])
                .unwrap();
        }
        let q = "SELECT _id FROM t WHERE v = 'new'";
        assert_eq!(a.query(q, &[]).unwrap().rows, b.query(q, &[]).unwrap().rows);
    }

    #[test]
    fn cold_boot_from_a_compacted_log_reuses_the_same_hole() {
        let j = Journal::in_memory(1);
        let vfs = Vfs::new();
        vfs.attach_journal(j.clone());
        vfs.with_store(|s| {
            s.mkdir_all(&vpath("/a"), Uid::ROOT, Mode::PUBLIC).unwrap();
            s.mkdir_all(&vpath("/b"), Uid::ROOT, Mode::PUBLIC).unwrap();
            s.write(&vpath("/a/f"), b"1", Uid::ROOT, Mode::PUBLIC).unwrap();
            s.write(&vpath("/b/g"), b"2", Uid::ROOT, Mode::PUBLIC).unwrap();
            s.unlink(&vpath("/a/f")).unwrap(); // leave a hole in the inode table
        });
        compact_journal(&j);
        // A cold boot: a journal reopened over the compacted log, replayed
        // through its storage.
        let mut storage = MemStorage::new();
        storage.append(&j.bytes()).unwrap();
        let reopened = Journal::new(Box::new(storage), 1).unwrap();
        let booted = reopened.with_flushed(|j| recover_journal(j, Vfs::new())).unwrap().unwrap();
        assert_eq!(booted.vfs.with_store(|s| s.dump_tree()), vfs.with_store(|s| s.dump_tree()));
        // Allocation state came through the image: the next allocation
        // reuses the hole in both stores, and the clocks agree.
        let write = |v: &Vfs| {
            v.with_store(|s| s.write(&vpath("/n"), b"x", Uid::ROOT, Mode::PUBLIC)).unwrap()
        };
        assert_eq!(write(&booted.vfs), write(&vfs));
        assert_eq!(booted.vfs.with_store(|s| s.now()), vfs.with_store(|s| s.now()));
    }

    #[test]
    fn incremental_checkpoint_recovers() {
        let j = Journal::in_memory(1);
        let vfs = Vfs::new();
        vfs.attach_journal(j.clone());
        vfs.with_store(|s| {
            s.mkdir_all(&vpath("/data"), Uid::ROOT, Mode::PUBLIC).unwrap();
            s.write(&vpath("/data/a"), b"aaa", Uid(10_001), Mode::PRIVATE).unwrap();
        });
        // The store's dirty image, checkpointed as the system does.
        let checkpoint = || {
            vfs.with_store(|s| {
                let image = s.dirty_image();
                j.checkpoint_delta(VFS_COMPONENT, &image).unwrap();
                image.clear();
            })
        };
        // First delta covers everything dirty since boot.
        checkpoint();
        vfs.with_store(|s| {
            s.write(&vpath("/data/b"), b"bbb", Uid(10_001), Mode::PRIVATE).unwrap();
            s.write(&vpath("/data/a"), b"aaa2", Uid(10_001), Mode::PRIVATE).unwrap();
        });
        // Second delta covers only /data/b, /data/a and their parent.
        checkpoint();
        // Tail records after the last checkpoint replay on top.
        vfs.with_store(|s| {
            s.write(&vpath("/data/c"), b"ccc", Uid::ROOT, Mode::PUBLIC).unwrap();
        });
        j.flush().unwrap();

        let rec = recover(&j.bytes()).unwrap();
        assert_eq!(vfs.with_store(|s| s.dump_tree()), rec.vfs.with_store(|s| s.dump_tree()));
    }

    #[test]
    fn uncommitted_txn_is_discarded() {
        let j = Journal::in_memory(1);
        let vfs = Vfs::new();
        vfs.attach_journal(j.clone());
        vfs.with_store(|s| {
            s.write(&vpath("/keep"), b"k", Uid::ROOT, Mode::PUBLIC).unwrap();
        });
        let txn = j.begin_txn().unwrap();
        vfs.with_store(|s| {
            s.write(&vpath("/lost"), b"l", Uid::ROOT, Mode::PUBLIC).unwrap();
        });
        // Crash before commit_txn: the flush makes TxnBegin + the write
        // durable, but without a commit record they must not replay.
        let _ = txn;
        j.flush().unwrap();
        let rec = recover(&j.bytes()).unwrap();
        rec.vfs.with_store(|s| {
            assert!(s.exists(&vpath("/keep")));
            assert!(!s.exists(&vpath("/lost")));
        });
    }
}
