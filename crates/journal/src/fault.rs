//! Fault injection: crash the system at any record boundary, or mid-frame
//! for a torn tail.
//!
//! Two complementary tools:
//!
//! * post-hoc surgery on a captured log — [`record_boundaries`] +
//!   [`crash_prefix`] / [`torn_log`] build the byte image a crash at a
//!   chosen point would have left behind, which the crash-point sweep tests
//!   then feed to recovery;
//! * [`FaultStorage`], a [`Storage`] with a byte budget that cuts a live
//!   journal's writes short, modelling power loss during a group-commit
//!   flush or a log rewrite itself.

use crate::wal::{replace_in_memory, Fill, Storage, FRAME_HEADER, FRAME_MAGIC, LOG_PREAMBLE};
use crate::{JournalError, JournalResult};

/// Returns every crash point of a log: byte offsets at record boundaries,
/// starting with 0 (crash before anything durable) and ending at
/// `bytes.len()` (no loss). The preamble's end is itself a boundary
/// (crash after the preamble, before any frame). Stops at the first
/// invalid frame, or at 0 for a log without the preamble.
pub fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut out = vec![0];
    if !bytes.starts_with(&LOG_PREAMBLE) {
        return out;
    }
    let mut pos = LOG_PREAMBLE.len();
    out.push(pos);
    while pos < bytes.len() {
        if bytes.len() - pos < FRAME_HEADER || bytes[pos] != FRAME_MAGIC {
            break;
        }
        let len = u32::from_le_bytes(bytes[pos + 9..pos + 13].try_into().unwrap()) as usize;
        if bytes.len() - pos - FRAME_HEADER < len {
            break;
        }
        pos += FRAME_HEADER + len;
        out.push(pos);
    }
    out
}

/// The log a crash at `boundary` bytes would leave: a clean prefix.
pub fn crash_prefix(bytes: &[u8], boundary: usize) -> Vec<u8> {
    bytes[..boundary.min(bytes.len())].to_vec()
}

/// The log a *torn* write would leave: everything up to `boundary` plus
/// `extra` bytes of the following frame. Recovery must treat the partial
/// frame as if it were never written.
pub fn torn_log(bytes: &[u8], boundary: usize, extra: usize) -> Vec<u8> {
    let end = (boundary + extra).min(bytes.len());
    bytes[..end].to_vec()
}

/// The log a media/bit-rot fault would leave: a copy with the byte at
/// `offset` XORed by `mask`. Unlike [`torn_log`], the damage can land
/// anywhere — including under committed history — which recovery must
/// report as `Corrupted`, never absorb as a shorter-but-plausible log.
pub fn flip_byte(bytes: &[u8], offset: usize, mask: u8) -> Vec<u8> {
    let mut out = bytes.to_vec();
    if let Some(b) = out.get_mut(offset) {
        *b ^= mask;
    }
    out
}

/// Storage that stops persisting after a byte budget is exhausted,
/// simulating a crash during a flush or a rewrite. An append that would
/// exceed the budget lands only up to it (a torn write). A rewrite is
/// charged its new tail piece by piece (patches included), and one whose
/// budget runs out mid-fill lands nothing the log can see: the old log
/// stays the log. Either way the storage reports
/// [`JournalError::Crashed`] for that write and everything after.
#[derive(Debug)]
pub struct FaultStorage {
    buf: Vec<u8>,
    /// Bytes still writable before the power goes.
    budget: usize,
    crashed: bool,
}

impl FaultStorage {
    /// Storage that accepts exactly `budget` written bytes, appends and
    /// rewrites together, before "losing power".
    pub fn with_budget(budget: usize) -> Self {
        FaultStorage { buf: Vec::new(), budget, crashed: false }
    }

    /// True once the budget has been exceeded.
    pub fn crashed(&self) -> bool {
        self.crashed
    }
}

impl Storage for FaultStorage {
    fn append(&mut self, bytes: &[u8]) -> JournalResult<()> {
        if self.crashed {
            return Err(JournalError::Crashed);
        }
        let n = bytes.len().min(self.budget);
        self.buf.extend_from_slice(&bytes[..n]);
        self.budget -= n;
        if n < bytes.len() {
            self.crashed = true;
            return Err(JournalError::Crashed);
        }
        Ok(())
    }

    fn read_at(&mut self, offset: usize, buf: &mut [u8]) -> JournalResult<()> {
        crate::wal::copy_out(&self.buf, offset, buf)
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    fn replace_from(&mut self, keep: usize, len: usize, fill: Fill<'_>) -> JournalResult<()> {
        if self.crashed {
            return Err(JournalError::Crashed);
        }
        let (budget, crashed) = (&mut self.budget, &mut self.crashed);
        replace_in_memory(&mut self.buf, keep, len, fill, |n| {
            if *crashed || n > *budget {
                *crashed = true;
                return Err(JournalError::Crashed);
            }
            *budget -= n;
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Record, VfsRecord};
    use crate::replay::{read_records, replay, TailState};
    use crate::wal::Journal;

    fn rec(path: &str) -> Record {
        Record::Vfs(VfsRecord::Unlink { path: path.into() })
    }

    fn sample_log(n: usize) -> Vec<u8> {
        let j = Journal::in_memory(1);
        for i in 0..n {
            j.append(rec(&format!("/f{i}"))).unwrap();
        }
        j.bytes()
    }

    #[test]
    fn boundaries_cover_every_record() {
        let bytes = sample_log(4);
        let b = record_boundaries(&bytes);
        // 0, the preamble end, then one boundary per record.
        assert_eq!(b.len(), 6);
        assert_eq!(*b.last().unwrap(), bytes.len());
        let counts: Vec<usize> = b
            .iter()
            .map(|&off| {
                let log = read_records(&crash_prefix(&bytes, off));
                assert_eq!(log.tail, TailState::Clean, "boundary {off}");
                log.records.len()
            })
            .collect();
        assert_eq!(counts, vec![0, 0, 1, 2, 3, 4]);
    }

    #[test]
    fn torn_log_recovers_prefix_only() {
        let bytes = sample_log(3);
        let b = record_boundaries(&bytes);
        // b[0] = 0, b[1] = preamble end; tear 5 bytes into the second record.
        let torn = torn_log(&bytes, b[2], 5);
        let log = read_records(&torn);
        assert_eq!(log.records.len(), 1);
        assert!(matches!(log.tail, TailState::Torn { offset } if offset == b[2]));
    }

    #[test]
    fn fault_storage_truncates_at_budget() {
        let full = sample_log(10);
        // Allow roughly half the log through.
        let budget = full.len() / 2;
        let j = Journal::new(Box::new(FaultStorage::with_budget(budget)), 1).unwrap();
        for i in 0..10 {
            let _ = j.append(rec(&format!("/f{i}")));
        }
        let bytes = j.bytes();
        assert!(bytes.len() <= budget);
        let log = read_records(&bytes);
        assert!(log.records.len() < 10);
        assert!(j.stats().io_errors > 0);
        // The surviving prefix still replays.
        let mut recs = 0;
        replay(&bytes, |_| recs += 1);
        assert_eq!(recs, log.records.len());
    }

    #[test]
    fn fault_storage_replace_keeps_the_old_log() {
        let old = sample_log(10);
        // Enough budget for the appends, not for the rewrite after them.
        let j = Journal::new(Box::new(FaultStorage::with_budget(old.len() + 20)), 1).unwrap();
        for i in 0..10 {
            j.append(rec(&format!("/f{i}"))).unwrap();
        }
        let sql = Record::Sql { db: "d".into(), sql: "CREATE TABLE t (x)".into(), params: vec![] };
        let compacted = j.with_flushed(|st| st.compact(&[sql], "c", &[7; 64][..])).unwrap();
        assert_eq!(compacted, Err(JournalError::Crashed));
        assert_eq!(j.bytes(), old, "a failed rewrite leaves the old log whole");
    }

    #[test]
    fn flip_byte_sweep_never_shortens_history() {
        let bytes = sample_log(3);
        let clean = read_records(&bytes);
        for off in 0..bytes.len() {
            for mask in [0x01, 0x80, 0xFF] {
                let log = read_records(&flip_byte(&bytes, off, mask));
                match log.tail {
                    TailState::Clean => {
                        assert_eq!(log.records.len(), clean.records.len(), "flip {off}/{mask:#x}")
                    }
                    TailState::Corrupted { .. } => {}
                    TailState::Torn { offset } => {
                        panic!("flip {off}/{mask:#x} misread as torn at {offset}")
                    }
                }
            }
        }
    }

    #[test]
    fn fault_storage_loses_uncommitted_txn() {
        // Budget admits the begin + one record but not the commit.
        let probe = Journal::in_memory(1);
        let t = probe.begin_txn().unwrap();
        probe.append(rec("/x")).unwrap();
        let before_commit = probe.bytes().len();
        probe.commit_txn(t).unwrap();

        let j = Journal::new(Box::new(FaultStorage::with_budget(before_commit)), 1).unwrap();
        let t = j.begin_txn().unwrap();
        j.append(rec("/x")).unwrap();
        assert!(j.commit_txn(t).is_err());
        replay(&j.bytes(), |r| panic!("uncommitted txn must not apply: {r:?}"));
    }
}
