//! Typed journal records and their binary encoding.
//!
//! The journal sits *below* every other crate, so records carry plain
//! strings and integers rather than `maxoid-vfs`/`maxoid-sqldb` types: the
//! emitting crate lowers its values into record form and the recovery code
//! raises them back. VFS mutations are logged physically (the eight leaf
//! store primitives, including full write payloads — composite operations
//! like `copy_all` decompose into these); SQL mutations are logged
//! logically (statement text plus bound parameters, replayed through the
//! parser so the rebuilt catalog includes views, triggers and indexes).
//!
//! Every record is self-contained: its paths are literal strings and an
//! overwrite carries the file's whole new contents, so a frame decodes
//! the same with no other frame in front of it.

use crate::codec::{ByteReader, ByteWriter, CodecError, Put};

/// A bound SQL parameter value, mirroring `maxoid_sqldb::Value`.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    Null,
    Int(i64),
    Real(f64),
    Text(String),
    Blob(Vec<u8>),
}

/// A physically-logged backing-store mutation.
///
/// `owner` is a raw uid and `mode` a 4-bit permission mask
/// (`owner_read | owner_write<<1 | world_read<<2 | world_write<<3`), so the
/// journal stays independent of `maxoid-vfs` types.
#[derive(Debug, Clone, PartialEq)]
pub enum VfsRecord {
    Mkdir {
        path: String,
        owner: u32,
        mode: u8,
    },
    Write {
        path: String,
        data: Vec<u8>,
        owner: u32,
        mode: u8,
    },
    Append {
        path: String,
        data: Vec<u8>,
    },
    /// Overwrite by inode id (open file handles). Valid to replay because
    /// inode allocation is deterministic given the same operation history.
    WriteInode {
        inode: u64,
        data: Vec<u8>,
    },
    Unlink {
        path: String,
    },
    Rmdir {
        path: String,
    },
    Rename {
        from: String,
        to: String,
    },
    ChownChmod {
        path: String,
        owner: u32,
        mode: u8,
    },
}

/// One typed journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// Opens journal transaction `txn`. Transactions may nest; a record is
    /// effective on replay only if every enclosing transaction committed.
    TxnBegin { txn: u64 },
    /// Commits journal transaction `txn`. Forces a group-commit flush.
    TxnCommit { txn: u64 },
    /// Rolls back journal transaction `txn`; enclosed records are ignored
    /// on replay. Forces a flush.
    TxnRollback { txn: u64 },
    /// A logically-logged SQL mutation against database `db`.
    Sql { db: String, sql: String, params: Vec<ParamValue> },
    /// A physically-logged backing-store mutation.
    Vfs(VfsRecord),
    /// A component's image: the state dirtied since the previous
    /// `SnapshotDelta` for this component — all of it, for a component
    /// rebuilt from empty, as a compaction writes it. Replay merges it over
    /// whatever the earlier records rebuilt.
    SnapshotDelta { component: String, payload: Vec<u8> },
}

/// A record's kind: what the frame scanner reports of a payload it
/// checked without building the record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kind {
    TxnBegin,
    TxnCommit,
    TxnRollback,
    Sql,
    Vfs,
    SnapshotDelta,
}

impl Kind {
    /// The kinds a retained prefix may hold (see `wal`), which are the
    /// kinds a checkpoint carries forward from the log it rewrites: the
    /// image chain and the SQL history. No transaction markers and no VFS
    /// records, which the new image subsumes.
    pub(crate) fn retainable(self) -> bool {
        matches!(self, Kind::SnapshotDelta | Kind::Sql)
    }
}

// Record tags.
const T_TXN_BEGIN: u8 = 1;
const T_TXN_COMMIT: u8 = 2;
const T_TXN_ROLLBACK: u8 = 3;
const T_SQL: u8 = 4;
// Retired tags, which a v5 log never holds: 5 (a whole-store snapshot)
// and 9 (a compaction marker), with format v4; 7 (a path-dictionary
// definition), with format v5.
const T_VFS: u8 = 6;
const T_SNAPSHOT_DELTA: u8 = 8;

// VfsRecord tags.
const V_MKDIR: u8 = 1;
const V_WRITE: u8 = 2;
const V_APPEND: u8 = 3;
const V_WRITE_INODE: u8 = 4;
const V_UNLINK: u8 = 5;
const V_RMDIR: u8 = 6;
const V_RENAME: u8 = 7;
const V_CHOWN_CHMOD: u8 = 8;
// Tags 9 and 10 (overwrites logged as deltas against the old contents)
// were retired with format v5.

// ParamValue tags.
const P_NULL: u8 = 0;
const P_INT: u8 = 1;
const P_REAL: u8 = 2;
const P_TEXT: u8 = 3;
const P_BLOB: u8 = 4;

impl ParamValue {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            ParamValue::Null => w.put_u8(P_NULL),
            ParamValue::Int(v) => {
                w.put_u8(P_INT);
                w.put_i64(*v);
            }
            ParamValue::Real(v) => {
                w.put_u8(P_REAL);
                w.put_f64(*v);
            }
            ParamValue::Text(v) => {
                w.put_u8(P_TEXT);
                w.put_str(v);
            }
            ParamValue::Blob(v) => {
                w.put_u8(P_BLOB);
                w.put_bytes(v);
            }
        }
    }

    /// Checks one encoded value as [`ParamValue::decode`] would read it,
    /// without building it.
    fn check(r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        match r.get_u8()? {
            P_NULL => Ok(()),
            P_INT | P_REAL => r.get_u64().map(drop),
            P_TEXT => r.get_str_ref().map(drop),
            P_BLOB => r.get_slice().map(drop),
            t => Err(CodecError::BadTag(t)),
        }
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.get_u8()? {
            P_NULL => ParamValue::Null,
            P_INT => ParamValue::Int(r.get_i64()?),
            P_REAL => ParamValue::Real(r.get_f64()?),
            P_TEXT => ParamValue::Text(r.get_str()?),
            P_BLOB => ParamValue::Blob(r.get_bytes()?),
            t => return Err(CodecError::BadTag(t)),
        })
    }
}

impl VfsRecord {
    fn encode(&self, w: &mut ByteWriter) {
        match self {
            VfsRecord::Mkdir { path, owner, mode } => {
                w.put_u8(V_MKDIR);
                w.put_str(path);
                w.put_u32(*owner);
                w.put_u8(*mode);
            }
            VfsRecord::Write { path, data, owner, mode } => {
                w.put_u8(V_WRITE);
                w.put_str(path);
                w.put_bytes(data);
                w.put_u32(*owner);
                w.put_u8(*mode);
            }
            VfsRecord::Append { path, data } => {
                w.put_u8(V_APPEND);
                w.put_str(path);
                w.put_bytes(data);
            }
            VfsRecord::WriteInode { inode, data } => {
                w.put_u8(V_WRITE_INODE);
                w.put_u64(*inode);
                w.put_bytes(data);
            }
            VfsRecord::Unlink { path } => {
                w.put_u8(V_UNLINK);
                w.put_str(path);
            }
            VfsRecord::Rmdir { path } => {
                w.put_u8(V_RMDIR);
                w.put_str(path);
            }
            VfsRecord::Rename { from, to } => {
                w.put_u8(V_RENAME);
                w.put_str(from);
                w.put_str(to);
            }
            VfsRecord::ChownChmod { path, owner, mode } => {
                w.put_u8(V_CHOWN_CHMOD);
                w.put_str(path);
                w.put_u32(*owner);
                w.put_u8(*mode);
            }
        }
    }

    /// Checks an encoded record as [`VfsRecord::decode`] would read it,
    /// without building it.
    fn check(r: &mut ByteReader<'_>) -> Result<(), CodecError> {
        match r.get_u8()? {
            V_MKDIR | V_CHOWN_CHMOD => {
                r.get_str_ref()?;
                r.get_u32()?;
                r.get_u8()?;
            }
            V_WRITE => {
                r.get_str_ref()?;
                r.get_slice()?;
                r.get_u32()?;
                r.get_u8()?;
            }
            V_APPEND => {
                r.get_str_ref()?;
                r.get_slice()?;
            }
            V_WRITE_INODE => {
                r.get_u64()?;
                r.get_slice()?;
            }
            V_UNLINK | V_RMDIR => {
                r.get_str_ref()?;
            }
            V_RENAME => {
                r.get_str_ref()?;
                r.get_str_ref()?;
            }
            t => return Err(CodecError::BadTag(t)),
        }
        Ok(())
    }

    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.get_u8()? {
            V_MKDIR => {
                VfsRecord::Mkdir { path: r.get_str()?, owner: r.get_u32()?, mode: r.get_u8()? }
            }
            V_WRITE => VfsRecord::Write {
                path: r.get_str()?,
                data: r.get_bytes()?,
                owner: r.get_u32()?,
                mode: r.get_u8()?,
            },
            V_APPEND => VfsRecord::Append { path: r.get_str()?, data: r.get_bytes()? },
            V_WRITE_INODE => VfsRecord::WriteInode { inode: r.get_u64()?, data: r.get_bytes()? },
            V_UNLINK => VfsRecord::Unlink { path: r.get_str()? },
            V_RMDIR => VfsRecord::Rmdir { path: r.get_str()? },
            V_RENAME => VfsRecord::Rename { from: r.get_str()?, to: r.get_str()? },
            V_CHOWN_CHMOD => {
                VfsRecord::ChownChmod { path: r.get_str()?, owner: r.get_u32()?, mode: r.get_u8()? }
            }
            t => return Err(CodecError::BadTag(t)),
        })
    }
}

impl Record {
    /// Encodes the record's payload (no frame header) into `w`. Writing
    /// into a caller-supplied writer lets the WAL frame a whole batch into
    /// one buffer instead of a `Vec` per record.
    pub(crate) fn encode_into(&self, w: &mut ByteWriter) {
        match self {
            Record::TxnBegin { txn } => {
                w.put_u8(T_TXN_BEGIN);
                w.put_u64(*txn);
            }
            Record::TxnCommit { txn } => {
                w.put_u8(T_TXN_COMMIT);
                w.put_u64(*txn);
            }
            Record::TxnRollback { txn } => {
                w.put_u8(T_TXN_ROLLBACK);
                w.put_u64(*txn);
            }
            Record::Sql { db, sql, params } => {
                w.put_u8(T_SQL);
                w.put_str(db);
                w.put_str(sql);
                w.put_u32(params.len() as u32);
                for p in params {
                    p.encode(w);
                }
            }
            Record::Vfs(v) => {
                w.put_u8(T_VFS);
                v.encode(w);
            }
            Record::SnapshotDelta { component, payload } => {
                Record::put_snapshot_delta_head(w, component, payload.len() as u32);
                w.put_raw(payload);
            }
        }
    }

    /// Decodes a payload produced by [`Record::encode_into`]. It accepts
    /// exactly the payloads [`Record::check`] accepts.
    pub(crate) fn decode(payload: &[u8]) -> Result<Self, CodecError> {
        let mut r = ByteReader::new(payload);
        let rec = match r.get_u8()? {
            T_TXN_BEGIN => Record::TxnBegin { txn: r.get_u64()? },
            T_TXN_COMMIT => Record::TxnCommit { txn: r.get_u64()? },
            T_TXN_ROLLBACK => Record::TxnRollback { txn: r.get_u64()? },
            T_SQL => {
                let db = r.get_str()?;
                let sql = r.get_str()?;
                let n = r.get_u32()? as usize;
                let mut params = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    params.push(ParamValue::decode(&mut r)?);
                }
                Record::Sql { db, sql, params }
            }
            T_VFS => Record::Vfs(VfsRecord::decode(&mut r)?),
            T_SNAPSHOT_DELTA => {
                Record::SnapshotDelta { component: r.get_str()?, payload: r.get_bytes()? }
            }
            t => return Err(CodecError::BadTag(t)),
        };
        Ok(rec)
    }

    /// Checks a payload exactly as [`Record::decode`] reads it — tags,
    /// lengths and UTF-8 — without building the record. Returns its kind,
    /// and the transaction id of a marker (0 for other kinds).
    pub(crate) fn check(payload: &[u8]) -> Result<(Kind, u64), CodecError> {
        let mut r = ByteReader::new(payload);
        Ok(match r.get_u8()? {
            T_TXN_BEGIN => (Kind::TxnBegin, r.get_u64()?),
            T_TXN_COMMIT => (Kind::TxnCommit, r.get_u64()?),
            T_TXN_ROLLBACK => (Kind::TxnRollback, r.get_u64()?),
            T_SQL => {
                r.get_str_ref()?;
                r.get_str_ref()?;
                for _ in 0..r.get_u32()? {
                    ParamValue::check(&mut r)?;
                }
                (Kind::Sql, 0)
            }
            T_SNAPSHOT_DELTA => {
                r.get_str_ref()?;
                r.get_slice()?;
                (Kind::SnapshotDelta, 0)
            }
            T_VFS => {
                VfsRecord::check(&mut r)?;
                (Kind::Vfs, 0)
            }
            t => return Err(CodecError::BadTag(t)),
        })
    }

    /// Writes the head of a `SnapshotDelta` payload — its tag, component
    /// and the length prefix of the `len` bytes of state that follow it —
    /// so the state itself can be streamed after it.
    pub(crate) fn put_snapshot_delta_head(w: &mut dyn Put, component: &str, len: u32) {
        w.put_u8(T_SNAPSHOT_DELTA);
        w.put_str(component);
        w.put_u32(len);
    }

    /// The length of the head [`Record::put_snapshot_delta_head`] writes.
    pub(crate) fn snapshot_delta_head_len(component: &str) -> usize {
        1 + 4 + component.len() + 4
    }

    /// The record's kind.
    pub(crate) fn kind(&self) -> Kind {
        match self {
            Record::TxnBegin { .. } => Kind::TxnBegin,
            Record::TxnCommit { .. } => Kind::TxnCommit,
            Record::TxnRollback { .. } => Kind::TxnRollback,
            Record::Sql { .. } => Kind::Sql,
            Record::Vfs(_) => Kind::Vfs,
            Record::SnapshotDelta { .. } => Kind::SnapshotDelta,
        }
    }

    /// True for records that must force a group-commit flush: transaction
    /// boundaries (durability of the commit decision) and images.
    pub fn forces_flush(&self) -> bool {
        matches!(
            self,
            Record::TxnCommit { .. } | Record::TxnRollback { .. } | Record::SnapshotDelta { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(rec: Record) {
        let mut w = ByteWriter::new();
        rec.encode_into(&mut w);
        assert_eq!(Record::decode(w.as_slice()).unwrap(), rec);
        assert_eq!(Record::check(w.as_slice()).unwrap().0, rec.kind());
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(Record::TxnBegin { txn: 7 });
        roundtrip(Record::TxnCommit { txn: 7 });
        roundtrip(Record::TxnRollback { txn: u64::MAX });
        roundtrip(Record::Sql {
            db: "db.media".into(),
            sql: "INSERT INTO files (path) VALUES (?1)".into(),
            params: vec![
                ParamValue::Null,
                ParamValue::Int(-3),
                ParamValue::Real(1.25),
                ParamValue::Text("x".into()),
                ParamValue::Blob(vec![0, 255]),
            ],
        });
        roundtrip(Record::Vfs(VfsRecord::Mkdir {
            path: "/a/b".into(),
            owner: 10001,
            mode: 0b1111,
        }));
        roundtrip(Record::Vfs(VfsRecord::Write {
            path: "/a/b/f".into(),
            data: b"hello".to_vec(),
            owner: 0,
            mode: 0b0011,
        }));
        roundtrip(Record::Vfs(VfsRecord::Append { path: "/f".into(), data: vec![] }));
        roundtrip(Record::Vfs(VfsRecord::WriteInode { inode: 42, data: b"z".to_vec() }));
        roundtrip(Record::Vfs(VfsRecord::Unlink { path: "/f".into() }));
        roundtrip(Record::Vfs(VfsRecord::Rmdir { path: "/d".into() }));
        roundtrip(Record::Vfs(VfsRecord::Rename { from: "/a".into(), to: "/b".into() }));
        roundtrip(Record::Vfs(VfsRecord::ChownChmod { path: "/p".into(), owner: 1000, mode: 1 }));
    }

    #[test]
    fn v2_only_variants_roundtrip() {
        roundtrip(Record::SnapshotDelta { component: "vfs.store".into(), payload: vec![1, 2] });
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        // The retired tags — a v3 log's snapshot (5) and compaction marker
        // (9), a v4 log's path-dictionary definition (7) — read like any
        // unknown tag, however many bytes follow them.
        for tag in [200, 5, 9, 7] {
            let payload = [[tag].as_slice(), &[0; 24]].concat();
            assert_eq!(Record::decode(&payload), Err(CodecError::BadTag(tag)));
            assert_eq!(Record::check(&payload), Err(CodecError::BadTag(tag)));
        }
        // So do a v4 log's delta-logged overwrites, VFS tags 9 and 10.
        for tag in [200, 9, 10] {
            let payload = [[T_VFS, tag].as_slice(), &[0; 24]].concat();
            assert_eq!(Record::decode(&payload), Err(CodecError::BadTag(tag)));
            assert_eq!(Record::check(&payload), Err(CodecError::BadTag(tag)));
        }
    }

    #[test]
    fn flush_forcing_records() {
        assert!(Record::TxnCommit { txn: 1 }.forces_flush());
        assert!(Record::TxnRollback { txn: 1 }.forces_flush());
        assert!(Record::SnapshotDelta { component: "c".into(), payload: vec![] }.forces_flush());
        assert!(!Record::TxnBegin { txn: 1 }.forces_flush());
        assert!(!Record::Vfs(VfsRecord::Unlink { path: "/f".into() }).forces_flush());
    }
}
