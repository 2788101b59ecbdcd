//! Reading a log back: frame parsing with torn-tail tolerance, and the
//! redo filter that decides which records take effect.
//!
//! Recovery is redo-only: a record inside a journal transaction applies iff
//! *every* enclosing transaction has a durable `TxnCommit`. Transactions
//! left open at end-of-log (the crash window of a two-phase `Vol(A)`
//! commit) are discarded wholesale, which is exactly the "all-volatile"
//! half of the S2 atomicity argument — the delegate's output stays in
//! `Vol(A)` until the commit record itself is durable.

use crate::record::Record;
use crate::wal::{frame_crc, FRAME_HEADER, FRAME_MAGIC, LOG_PREAMBLE};
use std::collections::HashMap;

/// How the log ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailState {
    /// The last frame was complete and valid.
    Clean,
    /// The log ends in a truncated frame at `offset`: the crash signature
    /// of a torn group-commit write. Everything before `offset` was
    /// intact, and nothing after it was ever durable, so recovering the
    /// prefix loses no committed history.
    Torn { offset: usize },
    /// The frame at `offset` is damaged but the log does NOT end there —
    /// bad magic, a failed checksum or decode on a fully-present frame, a
    /// non-monotonic LSN, or valid frames found past the bad region. A
    /// torn write cannot produce this shape; it means committed history
    /// after `offset` may exist but cannot be trusted, so recovery must
    /// fail loudly instead of silently replaying a shortened prefix.
    Corrupted { offset: usize },
}

/// A parsed log: LSN-stamped records plus the tail verdict.
#[derive(Debug, Clone)]
pub struct ReadLog {
    pub records: Vec<(u64, Record)>,
    pub tail: TailState,
}

impl ReadLog {
    /// Highest LSN seen, or 0 for an empty log.
    pub fn last_lsn(&self) -> u64 {
        self.records.last().map(|(l, _)| *l).unwrap_or(0)
    }
}

/// Parses frames until end-of-log or the first invalid frame, classifying
/// the invalid frame as [`TailState::Torn`] (a truncated final frame — the
/// only shape a torn append can leave) or [`TailState::Corrupted`]
/// (anything a truncation cannot explain). Valid prefix records are
/// returned either way; on `Corrupted` the caller must not treat them as
/// the whole history.
///
/// Classification at the first bad frame:
///
/// * wrong magic byte — `Corrupted`. Torn writes truncate; they never
///   rewrite the byte at a frame boundary.
/// * header runs past end-of-log — `Torn` (truncated header).
/// * payload runs past end-of-log — usually `Torn`, with two exceptions
///   that prove the frame was fully written: the stored CRC matches the
///   bytes actually present (so the `len` field itself is what got
///   corrupted), or a fully valid frame exists later in the log (resync
///   scan) — both are `Corrupted`.
/// * complete frame failing its CRC, failing decode, or carrying a
///   non-monotonic LSN — `Corrupted`. A fully-present frame cannot be a
///   truncation artifact.
pub fn read_records(bytes: &[u8]) -> ReadLog {
    match frames_start(bytes) {
        Ok(pos) => read_frames(bytes, pos),
        Err(tail) => ReadLog { records: Vec::new(), tail },
    }
}

/// Parses the frames of `bytes` from byte `pos` on, as [`read_records`]
/// does past the preamble: with a path dictionary of its own and LSNs
/// checked only against each other, so `pos` must be a frame boundary
/// after which every dictionary id used is also defined. Offsets in the
/// returned tail state count from the start of `bytes`.
pub(crate) fn read_frames(bytes: &[u8], mut pos: usize) -> ReadLog {
    let mut records = Vec::new();
    // The path dictionary, built as `PathDef` records stream past.
    // Records are returned with literal paths — interning is a wire
    // format concern, invisible above this function.
    let mut dict: HashMap<u32, String> = HashMap::new();
    let mut last_lsn = 0u64;
    while pos < bytes.len() {
        let rem = bytes.len() - pos;
        if bytes[pos] != FRAME_MAGIC {
            return ReadLog { records, tail: TailState::Corrupted { offset: pos } };
        }
        if rem < FRAME_HEADER {
            return ReadLog { records, tail: TailState::Torn { offset: pos } };
        }
        let lsn = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap());
        let len = u32::from_le_bytes(bytes[pos + 9..pos + 13].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 13..pos + 17].try_into().unwrap());
        let start = pos + FRAME_HEADER;
        let avail = bytes.len() - start;
        if avail < len {
            let frame_was_complete = frame_crc(lsn, avail as u32, &bytes[start..]) == crc;
            let tail = if frame_was_complete || any_valid_frame_after(bytes, pos + 1) {
                TailState::Corrupted { offset: pos }
            } else {
                TailState::Torn { offset: pos }
            };
            return ReadLog { records, tail };
        }
        let payload = &bytes[start..start + len];
        if frame_crc(lsn, len as u32, payload) != crc || lsn <= last_lsn {
            return ReadLog { records, tail: TailState::Corrupted { offset: pos } };
        }
        match Record::decode(payload, Some(&dict)) {
            Ok(rec) => {
                if let Record::PathDef { id, path } = &rec {
                    dict.insert(*id, path.clone());
                }
                records.push((lsn, rec));
            }
            Err(_) => return ReadLog { records, tail: TailState::Corrupted { offset: pos } },
        }
        last_lsn = lsn;
        pos = start + len;
    }
    ReadLog { records, tail: TailState::Clean }
}

/// Where frame parsing starts: just past the preamble (an empty log is
/// trivially clean). A short log that is a proper prefix of the preamble
/// is a torn first write; anything else — frames with no preamble in
/// front of them included — never came from this journal.
fn frames_start(bytes: &[u8]) -> Result<usize, TailState> {
    if bytes.is_empty() {
        return Ok(0);
    }
    if bytes.starts_with(&LOG_PREAMBLE) {
        return Ok(LOG_PREAMBLE.len());
    }
    if LOG_PREAMBLE.starts_with(bytes) {
        return Err(TailState::Torn { offset: 0 });
    }
    Err(TailState::Corrupted { offset: 0 })
}

/// Resync scan: does any byte position at or after `from` start a fully
/// valid frame (magic, complete header, in-bounds payload, matching CRC,
/// decodable record)? Used to tell a corrupted length field mid-log apart
/// from a genuinely torn final frame.
fn any_valid_frame_after(bytes: &[u8], from: usize) -> bool {
    let mut q = from;
    while q + FRAME_HEADER <= bytes.len() {
        if bytes[q] == FRAME_MAGIC {
            let lsn = u64::from_le_bytes(bytes[q + 1..q + 9].try_into().unwrap());
            let len = u32::from_le_bytes(bytes[q + 9..q + 13].try_into().unwrap()) as usize;
            let crc = u32::from_le_bytes(bytes[q + 13..q + 17].try_into().unwrap());
            let start = q + FRAME_HEADER;
            if bytes.len() - start >= len {
                let payload = &bytes[start..start + len];
                // Structural validity only: decode without a path
                // dictionary (unknown ids resolve to a placeholder), since
                // the question is whether a whole frame exists here, not
                // whether its paths resolve.
                if frame_crc(lsn, len as u32, payload) == crc
                    && Record::decode(payload, None).is_ok()
                {
                    return true;
                }
            }
        }
        q += 1;
    }
    false
}

/// Applies the redo filter: returns the records that take effect, in log
/// order, with transaction markers stripped.
///
/// Nested transactions are handled with a frame stack — a record applies
/// only if all enclosing transactions committed. A rollback or an open
/// transaction at end-of-log discards its records (and any committed inner
/// transactions, which is the correct nesting semantics: an inner commit
/// is provisional until the outermost transaction commits).
pub fn committed_records(log: &ReadLog) -> Vec<Record> {
    let mut out: Vec<Record> = Vec::new();
    // Stack of (txn id, buffered records) for open transactions.
    let mut open: Vec<(u64, Vec<Record>)> = Vec::new();
    for (_, rec) in &log.records {
        match rec {
            Record::TxnBegin { txn } => open.push((*txn, Vec::new())),
            Record::TxnCommit { txn } => {
                // Pop the matching frame; tolerate a stray commit by
                // ignoring it (nothing was buffered under it).
                if open.last().map(|(t, _)| *t == *txn).unwrap_or(false) {
                    let (_, recs) = open.pop().unwrap();
                    match open.last_mut() {
                        Some((_, parent)) => parent.extend(recs),
                        None => out.extend(recs),
                    }
                }
            }
            Record::TxnRollback { txn } => {
                if open.last().map(|(t, _)| *t == *txn).unwrap_or(false) {
                    open.pop();
                }
            }
            // Path-dictionary definitions are wire-format metadata, already
            // consumed by `read_records` (which returns literal paths).
            Record::PathDef { .. } => {}
            other => match open.last_mut() {
                Some((_, buf)) => buf.push(other.clone()),
                None => out.push(other.clone()),
            },
        }
    }
    // Transactions still open at end-of-log are discarded: the crash
    // happened before their commit record was durable.
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::VfsRecord;
    use crate::wal::Journal;

    fn rec(path: &str) -> Record {
        Record::Vfs(VfsRecord::Unlink { path: path.into() })
    }

    fn paths(recs: &[Record]) -> Vec<String> {
        recs.iter()
            .filter_map(|r| match r {
                Record::Vfs(VfsRecord::Unlink { path }) => Some(path.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn empty_log_is_clean() {
        let log = read_records(&[]);
        assert!(log.records.is_empty());
        assert_eq!(log.tail, TailState::Clean);
        assert_eq!(log.last_lsn(), 0);
    }

    #[test]
    fn torn_tail_keeps_valid_prefix() {
        let mut j = Journal::in_memory(1);
        j.append(&rec("/a")).unwrap();
        j.append(&rec("/b")).unwrap();
        let mut bytes = j.bytes();
        let cut = bytes.len() - 3;
        bytes.truncate(cut);
        let log = read_records(&bytes);
        assert_eq!(log.records.len(), 1);
        assert!(matches!(log.tail, TailState::Torn { .. }));
    }

    #[test]
    fn crc_corruption_is_not_torn() {
        let mut j = Journal::in_memory(1);
        j.append(&rec("/a")).unwrap();
        j.append(&rec("/b")).unwrap();
        let mut bytes = j.bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF; // flip a payload byte of the second frame
        let log = read_records(&bytes);
        assert_eq!(log.records.len(), 1);
        // The frame is fully present, so this cannot be a torn write.
        assert!(matches!(log.tail, TailState::Corrupted { .. }));
    }

    #[test]
    fn bad_magic_is_corrupted() {
        let mut j = Journal::in_memory(1);
        j.append(&rec("/a")).unwrap();
        let mut bytes = j.bytes();
        bytes.push(0x00); // garbage after a valid frame
        let log = read_records(&bytes);
        assert_eq!(log.records.len(), 1);
        // Truncation never rewrites a boundary byte: wrong magic means
        // corruption, not a torn append.
        assert!(matches!(log.tail, TailState::Corrupted { .. }));
    }

    #[test]
    fn mid_log_corruption_is_flagged_not_swallowed() {
        let mut j = Journal::in_memory(1);
        j.append(&rec("/a")).unwrap();
        j.append(&rec("/b")).unwrap();
        j.append(&rec("/c")).unwrap();
        let bytes = j.bytes();
        let b = crate::fault::record_boundaries(&bytes);
        let (second, third) = (b[b.len() - 3], b[b.len() - 2]);
        // Flip one byte in every position of the middle frame: committed
        // history (/c) follows, so every flip must read as Corrupted at
        // the middle frame's offset — never Torn, never Clean.
        for i in second..third {
            let mut dmg = bytes.clone();
            dmg[i] ^= 0x01;
            let log = read_records(&dmg);
            assert_eq!(
                log.tail,
                TailState::Corrupted { offset: second },
                "flip at byte {i} must corrupt the middle frame"
            );
            assert_eq!(log.records.len(), 1, "only the first record precedes the damage");
        }
    }

    #[test]
    fn corrupted_len_field_on_final_frame_is_detected() {
        let mut j = Journal::in_memory(1);
        j.append(&rec("/a")).unwrap();
        j.append(&rec("/b")).unwrap();
        let bytes = j.bytes();
        let b = crate::fault::record_boundaries(&bytes);
        let second = b[b.len() - 2];
        // Grow the final frame's len field so the payload appears short.
        // The frame is fully present (its CRC proves it), so this is
        // corruption, not a torn tail.
        let len_byte = second + 9;
        let mut dmg = bytes.clone();
        dmg[len_byte] = dmg[len_byte].wrapping_add(3);
        let log = read_records(&dmg);
        assert_eq!(log.tail, TailState::Corrupted { offset: second });
    }

    #[test]
    fn non_monotonic_lsn_is_corrupted() {
        let mut a = Journal::in_memory(1);
        a.append(&rec("/a")).unwrap();
        a.append(&rec("/b")).unwrap();
        let two = a.bytes();
        let mut b = Journal::in_memory(1);
        b.append(&rec("/c")).unwrap();
        // Splice a frame with lsn=1 (preamble stripped) after frames with
        // lsn=1,2: valid CRC, but the LSN sequence goes backwards.
        let mut spliced = two.clone();
        spliced.extend_from_slice(&b.bytes()[LOG_PREAMBLE.len()..]);
        let log = read_records(&spliced);
        assert_eq!(log.records.len(), 2);
        assert_eq!(log.tail, TailState::Corrupted { offset: two.len() });
    }

    #[test]
    fn genuine_truncations_stay_torn() {
        let mut j = Journal::in_memory(1);
        j.append(&rec("/a")).unwrap();
        j.append(&rec("/b")).unwrap();
        let bytes = j.bytes();
        let b = crate::fault::record_boundaries(&bytes);
        let second = b[b.len() - 2];
        // Every proper prefix cut inside the second frame is a torn tail,
        // not corruption: nothing durable follows the cut.
        for cut in second + 1..bytes.len() {
            let log = read_records(&bytes[..cut]);
            assert_eq!(log.records.len(), 1);
            assert_eq!(
                log.tail,
                TailState::Torn { offset: second },
                "cut at {cut} is a truncation and must stay Torn"
            );
        }
    }

    #[test]
    fn torn_preamble_is_torn_not_corrupted() {
        let mut j = Journal::in_memory(1);
        j.append(&rec("/a")).unwrap();
        let bytes = j.bytes();
        // A crash during the very first flush can leave any prefix of the
        // preamble: torn, with nothing recoverable — but never Corrupted.
        for cut in 1..8 {
            let log = read_records(&bytes[..cut]);
            assert!(log.records.is_empty());
            assert_eq!(log.tail, TailState::Torn { offset: 0 }, "cut at {cut}");
        }
    }

    #[test]
    fn frames_without_the_preamble_are_corrupted() {
        // No format but the preamble-led one is read: a log that opens
        // straight on a valid frame never came from this journal.
        let mut j = Journal::in_memory(1);
        j.append(&Record::Sql { db: "d".into(), sql: "CREATE TABLE t (x)".into(), params: vec![] })
            .unwrap();
        let bytes = j.bytes();
        let bare = &bytes[LOG_PREAMBLE.len()..];
        assert_eq!(bare[0], FRAME_MAGIC);
        let log = read_records(bare);
        assert!(log.records.is_empty());
        assert_eq!(log.tail, TailState::Corrupted { offset: 0 });
    }

    #[test]
    fn committed_filter_basic() {
        let mut j = Journal::in_memory(1);
        j.append(&rec("/outside")).unwrap();
        let t = j.begin_txn().unwrap();
        j.append(&rec("/in-committed")).unwrap();
        j.commit_txn(t).unwrap();
        let t2 = j.begin_txn().unwrap();
        j.append(&rec("/in-rolled-back")).unwrap();
        j.rollback_txn(t2).unwrap();
        j.begin_txn().unwrap();
        j.append(&rec("/in-open")).unwrap();
        j.flush().unwrap();
        let recs = committed_records(&read_records(&j.bytes()));
        assert_eq!(paths(&recs), vec!["/outside", "/in-committed"]);
    }

    #[test]
    fn nested_inner_commit_is_provisional() {
        let mut j = Journal::in_memory(1);
        let outer = j.begin_txn().unwrap();
        let inner = j.begin_txn().unwrap();
        j.append(&rec("/inner")).unwrap();
        j.commit_txn(inner).unwrap();
        j.append(&rec("/outer")).unwrap();
        // Crash before outer commit: nothing applies.
        let recs = committed_records(&read_records(&j.bytes()));
        assert!(paths(&recs).is_empty());
        // Outer commit lands: both apply, in order.
        j.commit_txn(outer).unwrap();
        let recs = committed_records(&read_records(&j.bytes()));
        assert_eq!(paths(&recs), vec!["/inner", "/outer"]);
    }
}
