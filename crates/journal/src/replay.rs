//! Reading a log back: one frame scanner with torn-tail tolerance, and
//! the redo filter that decides which records take effect.
//!
//! The scanner ([`scan`]) gives every verdict on a log's bytes: it checks
//! each frame — magic, header, CRC, rising LSN, and that the payload
//! decodes with its path-dictionary ids resolving — without building the
//! record, and reports each accepted frame's LSN, kind, transaction id
//! and byte range. It reads through a [`Source`]: a log in memory, or
//! storage read through a fixed window ([`Windowed`]), so opening a
//! journal, checkpointing one or replaying one holds one window of the
//! log, not all of it.
//!
//! The redo filter ([`Redo`]) is fed one frame at a time, with whatever
//! item the caller tracks for it, so a checkpoint can feed it byte ranges
//! and keep the frames that take effect as ranges to copy verbatim later,
//! instead of cloning and re-encoding their records.
//!
//! [`replay`] is the one reader of records: the scan, one decode step per
//! accepted frame, and the redo filter, which hands each record on as soon
//! as it settles as taking effect. Recovery, cold boot and compaction all
//! read a log through it. [`read_records`] is the scan plus the same
//! decode step, for frame-level inspection.
//!
//! Recovery is redo-only: a record inside a journal transaction applies iff
//! *every* enclosing transaction has a durable `TxnCommit`. Transactions
//! left open at end-of-log (the crash window of a two-phase `Vol(A)`
//! commit) are discarded wholesale, which is exactly the "all-volatile"
//! half of the S2 atomicity argument — the delegate's output stays in
//! `Vol(A)` until the commit record itself is durable.

use crate::record::{Kind, Record};
use crate::wal::{frame_crc, Storage, FRAME_HEADER, FRAME_MAGIC, LOG_PREAMBLE};
use crate::JournalResult;
use std::collections::{HashMap, HashSet};
use std::ops::Range;

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

/// A frame the scanner accepted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Frame {
    pub(crate) lsn: u64,
    pub(crate) kind: Kind,
    /// The transaction a marker names (0 for other kinds).
    pub(crate) txn: u64,
    /// The whole frame, header included, in the bytes scanned.
    pub(crate) range: Range<usize>,
}

/// A parsed log: LSN-stamped records plus the tail verdict.
#[derive(Debug, Clone)]
pub struct ReadLog {
    pub records: Vec<(u64, Record)>,
    /// The scanner's account of each record's frame, in the same order.
    pub(crate) frames: Vec<Frame>,
    pub tail: TailState,
}

impl ReadLog {
    /// Highest LSN seen, or 0 for an empty log.
    pub fn last_lsn(&self) -> u64 {
        self.frames.last().map_or(0, |f| f.lsn)
    }
}

/// The decode step: builds the record of a frame the scanner accepted,
/// with literal paths (interning is a wire-format concern, invisible above
/// this step), and grows the path dictionary as `PathDef`s pass.
#[derive(Default)]
struct Decoder {
    dict: HashMap<u32, String>,
}

impl Decoder {
    /// The record of `frame`, a whole frame [`scan`] accepted.
    fn decode(&mut self, frame: &[u8]) -> Record {
        let rec = Record::decode(&frame[FRAME_HEADER..], &self.dict)
            .expect("the scanner checked this payload");
        if let Record::PathDef { id, path } = &rec {
            self.dict.insert(*id, path.clone());
        }
        rec
    }
}

/// Parses a whole log in memory: [`scan`] gives the verdicts, and each
/// frame it accepted is decoded. Valid prefix records are returned
/// whatever the tail; on `Corrupted` the caller must not treat them as the
/// whole history. For inspecting frames; [`replay`] is what reads the
/// records that take effect.
pub fn read_records(bytes: &[u8]) -> ReadLog {
    let (mut frames, mut records, mut decoder) = (Vec::new(), Vec::new(), Decoder::default());
    let tail = scan(&mut &bytes[..], 0, |f, frame| {
        records.push((f.lsn, decoder.decode(frame)));
        frames.push(f.clone());
    });
    let tail = tail.expect("reading a log in memory cannot fail");
    ReadLog { records, frames, tail }
}

/// The one replay, of the log in `bytes`: scans it from its preamble,
/// decodes each frame the scan accepts, feeds the record to the redo
/// filter, and hands `apply` each record the filter settles as taking
/// effect — in log order, as soon as it settles, never a transaction
/// marker or a `PathDef`. It holds one frame and the records of the
/// transactions still open; `apply` builds whatever state it keeps.
///
/// Returns how the log ended. The records before a torn or corrupted
/// frame have been handed on by then: on [`TailState::Corrupted`] the
/// caller must throw away what it built.
pub fn replay(bytes: &[u8], apply: impl FnMut(Record)) -> TailState {
    replay_from(&mut &bytes[..], apply).expect("reading a log in memory cannot fail")
}

/// [`replay`] over any source — storage through one window, for a
/// journal — returning the source's read error too.
pub(crate) fn replay_from<S: Source>(
    src: &mut S,
    mut apply: impl FnMut(Record),
) -> JournalResult<TailState> {
    let (mut decoder, mut redo) = (Decoder::default(), Redo::default());
    let mut settle = |rec, applies| {
        if applies {
            apply(rec)
        }
    };
    let tail = scan(src, 0, |f, frame| redo.feed(f, Some(decoder.decode(frame)), &mut settle))?;
    redo.finish(&mut settle);
    Ok(tail)
}

/// The bytes a [`scan`] reads.
pub(crate) trait Source {
    /// The log's length in bytes.
    fn len(&self) -> usize;
    /// The log's bytes in `range`, which ends at most at `len()`.
    fn get(&mut self, range: Range<usize>) -> JournalResult<&[u8]>;
}

impl Source for &[u8] {
    fn len(&self) -> usize {
        <[u8]>::len(self)
    }

    fn get(&mut self, range: Range<usize>) -> JournalResult<&[u8]> {
        Ok(&self[range])
    }
}

/// Bytes read at a time from storage by a scan or a replay, and the
/// largest piece of a replacement's tail (see [`crate::Tail::write`]).
pub const SCAN_WINDOW: usize = 256 * 1024;

/// Storage read through one fixed window of [`SCAN_WINDOW`] bytes (less
/// when less of the log is left): a range outside the window refills it
/// from the range's start — the part of the range already in the window
/// moves to its front instead of being read again, so a forward scan
/// reads each byte once — and a range larger than the window (one frame)
/// gets a buffer its own size, dropped at the next refill.
pub(crate) struct Windowed<'s> {
    storage: &'s mut dyn Storage,
    len: usize,
    window: usize,
    /// Where `buf` starts in the log.
    at: usize,
    buf: Vec<u8>,
    /// Bytes of `buf` holding the log.
    filled: usize,
}

impl<'s> Windowed<'s> {
    pub(crate) fn new(storage: &'s mut dyn Storage) -> Self {
        Windowed::with_window(storage, SCAN_WINDOW)
    }

    /// A window of `window` bytes (tests shrink it to force refills).
    pub(crate) fn with_window(storage: &'s mut dyn Storage, window: usize) -> Self {
        let len = storage.len();
        Windowed { storage, len, window, at: 0, buf: Vec::new(), filled: 0 }
    }
}

impl Source for Windowed<'_> {
    fn len(&self) -> usize {
        self.len
    }

    fn get(&mut self, range: Range<usize>) -> JournalResult<&[u8]> {
        let end = self.at + self.filled;
        if range.start < self.at || range.end > end {
            let n = range.len().max(self.window).min(self.len - range.start);
            let held = if (self.at..end).contains(&range.start) {
                range.start - self.at..self.filled
            } else {
                0..0
            };
            let kept = held.len();
            if self.buf.len() < n || self.buf.len() > self.window {
                let mut buf = vec![0; n];
                buf[..kept].copy_from_slice(&self.buf[held]);
                self.buf = buf;
            } else {
                self.buf.copy_within(held, 0);
            }
            self.storage.read_at(range.start + kept, &mut self.buf[kept..n])?;
            (self.at, self.filled) = (range.start, n);
        }
        Ok(&self.buf[range.start - self.at..range.end - self.at])
    }
}

/// The frame scanner. Reads `src` from byte `from` — a whole log,
/// preamble first, when `from` is 0; otherwise a frame boundary after
/// which every dictionary id used is also defined, with LSNs checked only
/// against each other — and calls `visit` with each accepted frame and
/// its bytes. Returns how the log ends, or the source's read error.
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
/// * complete frame failing its CRC, failing the payload check, or
///   carrying a non-monotonic LSN — `Corrupted`. A fully-present frame
///   cannot be a truncation artifact.
///
/// A log shorter than its preamble that is a prefix of it is a torn first
/// write; anything else without the preamble — frames with no preamble
/// in front of them included — never came from this journal.
pub(crate) fn scan<S: Source>(
    src: &mut S,
    from: usize,
    mut visit: impl FnMut(&Frame, &[u8]),
) -> JournalResult<TailState> {
    let len = src.len();
    let mut pos = from;
    if from == 0 && len > 0 {
        let head = src.get(0..len.min(LOG_PREAMBLE.len()))?;
        if head != LOG_PREAMBLE {
            let torn = LOG_PREAMBLE.starts_with(head);
            return Ok(if torn {
                TailState::Torn { offset: 0 }
            } else {
                TailState::Corrupted { offset: 0 }
            });
        }
        pos = LOG_PREAMBLE.len();
    }
    // The ids the path dictionary defines, as `PathDef`s stream past.
    let mut ids: HashSet<u32> = HashSet::new();
    let mut last_lsn = 0u64;
    while pos < len {
        let header = src.get(pos..len.min(pos + FRAME_HEADER))?;
        if header[0] != FRAME_MAGIC {
            return Ok(TailState::Corrupted { offset: pos });
        }
        if header.len() < FRAME_HEADER {
            return Ok(TailState::Torn { offset: pos });
        }
        let lsn = u64::from_le_bytes(header[1..9].try_into().unwrap());
        let flen = u32::from_le_bytes(header[9..13].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[13..17].try_into().unwrap());
        let avail = len - pos - FRAME_HEADER;
        if avail < flen {
            // The rest of the log is shorter than this frame claims.
            let rest = src.get(pos..len)?;
            let frame_was_complete = frame_crc(lsn, avail as u32, &rest[FRAME_HEADER..]) == crc;
            return Ok(if frame_was_complete || any_valid_frame_after(rest, 1) {
                TailState::Corrupted { offset: pos }
            } else {
                TailState::Torn { offset: pos }
            });
        }
        let end = pos + FRAME_HEADER + flen;
        let bytes = src.get(pos..end)?;
        let payload = &bytes[FRAME_HEADER..];
        if frame_crc(lsn, flen as u32, payload) != crc || lsn <= last_lsn {
            return Ok(TailState::Corrupted { offset: pos });
        }
        let Ok((kind, id)) = Record::check(payload, Some(&ids)) else {
            return Ok(TailState::Corrupted { offset: pos });
        };
        let txn = match kind {
            Kind::TxnBegin | Kind::TxnCommit | Kind::TxnRollback => id,
            Kind::PathDef => {
                ids.insert(id as u32);
                0
            }
            _ => 0,
        };
        visit(&Frame { lsn, kind, txn, range: pos..end }, bytes);
        last_lsn = lsn;
        pos = end;
    }
    Ok(TailState::Clean)
}

/// Resync scan: does any byte position at or after `from` start a fully
/// valid frame (magic, complete header, in-bounds payload, matching CRC,
/// structurally valid record)? Used to tell a corrupted length field
/// mid-log apart from a genuinely torn final frame.
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
                // Structural validity only: no path dictionary, since the
                // question is whether a whole frame exists here, not
                // whether its paths resolve.
                if frame_crc(lsn, len as u32, payload) == crc
                    && Record::check(payload, None).is_ok()
                {
                    return true;
                }
            }
        }
        q += 1;
    }
    false
}

/// The redo filter, fed one frame at a time. Each item fed with a record
/// other than a transaction marker or a `PathDef` is settled exactly once
/// — `settle(item, true)` if the record takes effect, `false` if not — as
/// soon as that is known; the items that take effect are settled in log
/// order.
///
/// Nested transactions are handled with a frame stack — a record applies
/// only if all enclosing transactions committed. A rollback or an open
/// transaction at end-of-log discards its records (and any committed inner
/// transactions, which is the correct nesting semantics: an inner commit
/// is provisional until the outermost transaction commits).
pub(crate) struct Redo<T> {
    /// Open transactions, innermost last, with the items each holds.
    open: Vec<(u64, Vec<T>)>,
}

impl<T> Default for Redo<T> {
    fn default() -> Self {
        Redo { open: Vec::new() }
    }
}

impl<T> Redo<T> {
    /// Feeds `frame`, with `item` standing for its record (`None` for a
    /// record the caller does not track; the items of markers and
    /// `PathDef`s are dropped).
    pub(crate) fn feed(
        &mut self,
        frame: &Frame,
        item: Option<T>,
        settle: &mut impl FnMut(T, bool),
    ) {
        let top = self.open.last().is_some_and(|(t, _)| *t == frame.txn);
        match frame.kind {
            Kind::TxnBegin => self.open.push((frame.txn, Vec::new())),
            // A stray commit or rollback (not the innermost open
            // transaction) is ignored: nothing was buffered under it.
            Kind::TxnCommit if top => {
                let (_, items) = self.open.pop().unwrap();
                match self.open.last_mut() {
                    Some((_, parent)) => parent.extend(items),
                    None => items.into_iter().for_each(|i| settle(i, true)),
                }
            }
            Kind::TxnRollback if top => {
                let (_, items) = self.open.pop().unwrap();
                items.into_iter().for_each(|i| settle(i, false));
            }
            Kind::TxnCommit | Kind::TxnRollback | Kind::PathDef => {}
            _ => match (item, self.open.last_mut()) {
                (None, _) => {}
                (Some(i), Some((_, buf))) => buf.push(i),
                (Some(i), None) => settle(i, true),
            },
        }
    }

    /// Ends the log: transactions still open are discarded, since the
    /// crash happened before their commit record was durable.
    pub(crate) fn finish(self, settle: &mut impl FnMut(T, bool)) {
        for (_, items) in self.open {
            items.into_iter().for_each(|i| settle(i, false));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::VfsRecord;
    use crate::wal::Journal;

    fn rec(path: &str) -> Record {
        Record::Vfs(VfsRecord::Unlink { path: path.into() })
    }

    /// The records `replay` hands on for `log`.
    fn committed(log: &[u8]) -> Vec<Record> {
        let mut recs = Vec::new();
        replay(log, |r| recs.push(r));
        recs
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
    fn v2_logs_are_corrupted() {
        // A v2 log's records name COW objects in a lossy encoding; it must
        // not replay as if it were current.
        let mut j = Journal::in_memory(1);
        j.append(&rec("/a")).unwrap();
        let mut bytes = j.bytes();
        bytes[..LOG_PREAMBLE.len()].copy_from_slice(b"MXWAL2\x00\x00");
        let log = read_records(&bytes);
        assert!(log.records.is_empty());
        assert_eq!(log.tail, TailState::Corrupted { offset: 0 });
    }

    #[test]
    fn v3_logs_are_refused() {
        // A v3 log may hold a whole-store snapshot (tag 5) or a compaction
        // marker (tag 9), which v4 retired: it is refused as a whole, not
        // read up to its first such frame.
        let mut j = Journal::in_memory(1);
        j.append(&rec("/a")).unwrap();
        let mut bytes = j.bytes();
        bytes[..LOG_PREAMBLE.len()].copy_from_slice(b"MXWAL3\x00\x00");
        let log = read_records(&bytes);
        assert!(log.records.is_empty());
        assert_eq!(log.tail, TailState::Corrupted { offset: 0 });
        assert_eq!(replay(&bytes, |r| panic!("{r:?} replayed from a v3 log")), log.tail);
    }

    /// A log in memory that notes how far it has been read.
    struct Noted<'a> {
        log: &'a [u8],
        read_to: std::rc::Rc<std::cell::Cell<usize>>,
    }

    impl Source for Noted<'_> {
        fn len(&self) -> usize {
            self.log.len()
        }

        fn get(&mut self, range: Range<usize>) -> JournalResult<&[u8]> {
            self.read_to.set(self.read_to.get().max(range.end));
            Ok(&self.log[range])
        }
    }

    #[test]
    fn replay_hands_on_records_as_they_settle() {
        // An autocommit record is handed on as soon as its frame is read,
        // a transaction's records when its commit is, and a rolled-back
        // one's never.
        let mut j = Journal::in_memory(1);
        j.append(&rec("/before")).unwrap();
        let t = j.begin_txn().unwrap();
        j.append(&rec("/in")).unwrap();
        j.commit_txn(t).unwrap();
        let t = j.begin_txn().unwrap();
        j.append(&rec("/rolled-back")).unwrap();
        j.rollback_txn(t).unwrap();
        let bytes = j.bytes();
        let read_to = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut seen = Vec::new();
        let mut src = Noted { log: &bytes, read_to: read_to.clone() };
        let tail = replay_from(&mut src, |r| seen.push((paths(&[r]), read_to.get()))).unwrap();
        assert_eq!(tail, TailState::Clean);
        let frames = read_records(&bytes).frames;
        let want = |path: &str, frame: usize| (vec![path.to_string()], frames[frame].range.end);
        assert_eq!(seen, vec![want("/before", 0), want("/in", 3)]);
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
        let recs = committed(&j.bytes());
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
        let recs = committed(&j.bytes());
        assert!(paths(&recs).is_empty());
        // Outer commit lands: both apply, in order.
        j.commit_txn(outer).unwrap();
        let recs = committed(&j.bytes());
        assert_eq!(paths(&recs), vec!["/inner", "/outer"]);
    }

    /// Parser fuzzing: bytes a delegate can influence (its files, its SQL)
    /// end up in frames, so no byte pattern may panic the reader, and no
    /// damage to acknowledged frames may read as a clean or torn log.
    mod fuzz {
        use super::*;
        use crate::record::ParamValue;
        use crate::wal::{MemStorage, Storage};
        use crate::JournalError;
        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;

        /// The scanner reading `log` from storage through a `window`-byte
        /// window reaches the verdict and the frames `read_records` does,
        /// and hands each frame's own bytes to its visitor.
        fn windowed_scan_agrees(log: &[u8], window: usize) -> Result<(), TestCaseError> {
            let mut storage = MemStorage::new();
            storage.append(log).unwrap();
            let (mut frames, mut bytes_match) = (Vec::new(), true);
            let tail = scan(&mut Windowed::with_window(&mut storage, window), 0, |f, bytes| {
                bytes_match &= bytes == &log[f.range.clone()];
                frames.push(f.clone());
            })
            .unwrap();
            let read = read_records(log);
            prop_assert_eq!(tail, read.tail, "window {}", window);
            prop_assert_eq!(frames, read.frames, "window {}", window);
            prop_assert!(bytes_match, "window {}: a frame's bytes differ", window);
            Ok(())
        }

        /// One step of a mixed log: SQL, VFS writes with payloads up to
        /// the step's bound (so frames take both checksum kernels), a few
        /// repeated paths (so `PathDef`s and interned slots appear),
        /// snapshots, and nested transactions.
        #[derive(Debug, Clone)]
        enum Step {
            Sql(u16),
            Write(u8, u16),
            Unlink(u8),
            Snapshot(u16),
            Begin,
            Commit,
            Rollback,
        }

        fn step(max_payload: u16) -> impl Strategy<Value = Step> {
            prop_oneof![
                any::<u16>().prop_map(Step::Sql),
                (any::<u8>(), 0..max_payload).prop_map(|(p, n)| Step::Write(p, n)),
                any::<u8>().prop_map(Step::Unlink),
                (0..max_payload).prop_map(Step::Snapshot),
                Just(Step::Begin),
                Just(Step::Commit),
                Just(Step::Rollback),
            ]
        }

        /// The durable log of `steps`, flushed, at group-commit `batch`.
        fn mixed_log(steps: &[Step], batch: usize) -> Vec<u8> {
            let mut j = Journal::in_memory(batch);
            let mut open = Vec::new();
            for s in steps {
                match *s {
                    Step::Sql(i) => {
                        let params = vec![
                            ParamValue::Int(i as i64),
                            ParamValue::Blob(vec![7; i as usize % 40]),
                        ];
                        j.append(&Record::Sql {
                            db: "d".into(),
                            sql: format!("INSERT {i}"),
                            params,
                        })
                    }
                    Step::Write(p, n) => {
                        let data = (0..n).map(|k| (k as u8).wrapping_mul(p | 1)).collect();
                        let path = format!("/d/f{}", p % 4);
                        j.append(&Record::Vfs(VfsRecord::Write { path, data, owner: 1, mode: 3 }))
                    }
                    Step::Unlink(p) => j.append(&rec(&format!("/d/f{}", p % 4))),
                    Step::Snapshot(n) => j.append(&Record::SnapshotDelta {
                        component: "vfs.store".into(),
                        payload: vec![n as u8; n as usize],
                    }),
                    Step::Begin => j.begin_txn().map(|t| open.push(t)).map(|()| 0),
                    Step::Commit => open.pop().map_or(Ok(0), |t| j.commit_txn(t).map(|()| 0)),
                    Step::Rollback => open.pop().map_or(Ok(0), |t| j.rollback_txn(t).map(|()| 0)),
                }
                .unwrap();
            }
            j.flush().unwrap();
            j.bytes()
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn fuzz_arbitrary_bytes_never_panic_the_reader(
                bytes in proptest::collection::vec(any::<u8>(), 0..600),
                preamble in any::<bool>(),
                tag in 1u8..12,
            ) {
                let mut log = if preamble { LOG_PREAMBLE.to_vec() } else { Vec::new() };
                log.extend_from_slice(&bytes);
                let read = read_records(&log);
                prop_assert_eq!(read.frames.len(), read.records.len());
                prop_assert!(read.frames.iter().all(|f| f.range.end <= log.len()));
                windowed_scan_agrees(&log, 7)?;
                prop_assert_eq!(replay(&log, drop), read.tail);
                let _ = Record::check(&bytes, None);
                // The check accepts exactly the payloads the decoder
                // decodes, with the same dictionary ids.
                let dict: HashMap<u32, String> = (0..4).map(|i| (i, format!("/p{i}"))).collect();
                let ids: HashSet<u32> = dict.keys().copied().collect();
                let agree = |p: &[u8]| {
                    Record::check(p, Some(&ids)).is_ok() == Record::decode(p, &dict).is_ok()
                };
                prop_assert!(agree(&bytes));
                // The same bytes as the payload of a frame with a valid
                // header and CRC, led by a known or unknown tag: the
                // decoder, not the checksum, must reject what it can't
                // read.
                let mut payload = vec![tag];
                payload.extend_from_slice(&bytes);
                prop_assert!(agree(&payload));
                let mut framed = LOG_PREAMBLE.to_vec();
                framed.push(FRAME_MAGIC);
                framed.extend_from_slice(&1u64.to_le_bytes());
                let len = payload.len() as u32;
                framed.extend_from_slice(&len.to_le_bytes());
                framed.extend_from_slice(&frame_crc(1, len, &payload).to_le_bytes());
                framed.extend_from_slice(&payload);
                windowed_scan_agrees(&framed, 16)?;
                let read = read_records(&framed);
                match read.tail {
                    TailState::Clean => prop_assert_eq!(read.records.len(), 1),
                    TailState::Corrupted { offset } => {
                        prop_assert_eq!(offset, LOG_PREAMBLE.len());
                        prop_assert!(read.records.is_empty());
                    }
                    TailState::Torn { .. } => prop_assert!(false, "a whole frame is never torn"),
                }
            }
        }

        /// `log` with one byte of one of its `frames`, both picked by `at`,
        /// XORed by `mask`; and that frame's range.
        fn flip_in_a_frame(
            log: &[u8],
            frames: &[Frame],
            at: usize,
            mask: u8,
        ) -> (Range<usize>, Vec<u8>) {
            let frame = frames[at % frames.len()].range.clone();
            let offset = frame.start + at / frames.len() % frame.len();
            (frame, crate::fault::flip_byte(log, offset, mask))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn fuzz_a_flipped_byte_in_an_acked_frame_reads_as_corrupted(
                steps in proptest::collection::vec(step(20 * 1024), 1..12),
                batch in 1usize..5,
                at in any::<usize>(),
                mask in 1u8..=255,
            ) {
                let log = mixed_log(&steps, batch);
                let clean = read_records(&log);
                prop_assert_eq!(clean.tail, TailState::Clean);
                prop_assume!(!clean.frames.is_empty());
                let (frame, damaged) = flip_in_a_frame(&log, &clean.frames, at, mask);
                windowed_scan_agrees(&damaged, 1 + at % 4096)?;
                let read = read_records(&damaged);
                prop_assert!(
                    matches!(read.tail, TailState::Corrupted { offset } if offset <= frame.start),
                    "flip in the frame at {}: {:?}", frame.start, read.tail
                );
                prop_assert_eq!(&read.records[..], &clean.records[..read.records.len()]);
            }

            #[test]
            fn fuzz_checkpoint_over_a_flipped_log_writes_nothing(
                steps in proptest::collection::vec(step(20 * 1024), 1..12),
                at in any::<usize>(),
                mask in 1u8..=255,
            ) {
                let log = mixed_log(&steps, 1);
                let clean = read_records(&log);
                prop_assume!(!clean.frames.is_empty());
                let (_, damaged) = flip_in_a_frame(&log, &clean.frames, at, mask);
                let mut storage = MemStorage::new();
                storage.append(&damaged).unwrap();
                let mut j = Journal::new(Box::new(storage), 1).unwrap();
                let flushes = j.stats().flushes;
                let got = j.checkpoint_delta("vfs.store", &[1; 100][..]);
                prop_assert!(matches!(got, Err(JournalError::Corrupted { .. })), "{:?}", got);
                prop_assert_eq!(j.bytes(), damaged);
                prop_assert_eq!(j.stats().flushes, flushes);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn fuzz_every_truncation_is_torn_or_clean_and_a_prefix(
                steps in proptest::collection::vec(step(300), 1..16),
                batch in 1usize..5,
            ) {
                let log = mixed_log(&steps, batch);
                let whole = read_records(&log);
                prop_assert_eq!(whole.tail, TailState::Clean);
                for cut in 0..=log.len() {
                    windowed_scan_agrees(&log[..cut], 1 + cut % 97)?;
                    let read = read_records(&log[..cut]);
                    prop_assert!(
                        matches!(read.tail, TailState::Clean | TailState::Torn { .. }),
                        "cut at {}: {:?}", cut, read.tail
                    );
                    prop_assert_eq!(&read.records[..], &whole.records[..read.records.len()]);
                }
            }
        }
    }
}
