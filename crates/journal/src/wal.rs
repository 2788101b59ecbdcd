//! The write-ahead log: frame format, group commit, transactions and log
//! rewrites, behind [`Journal`], the one handle the rest of the stack
//! emits through.
//!
//! A log opens with an 8-byte preamble (`MXWAL5\0\0`) followed by frames
//! (little-endian):
//!
//! ```text
//! +------+---------+---------+---------+------------------+
//! | 0xA7 | lsn u64 | len u32 | crc u32 | payload (len B)  |
//! +------+---------+---------+---------+------------------+
//! ```
//!
//! `crc` is the IEEE CRC-32 of `lsn || len || payload` (header fields in
//! their little-endian encoding), so a flipped bit anywhere in the frame —
//! including the LSN or length — fails verification instead of being
//! replayed with a wrong header.
//!
//! Each frame's payload is one self-contained record (see
//! [`crate::record`]): it names its paths literally and an overwrite
//! carries the whole new contents, so a frame means the same wherever it
//! is copied.
//!
//! The write path is pipelined: [`Journal::append`], the one append path,
//! pushes the *record* onto a pending queue under the journal-state lock —
//! encoding and checksumming happen later, in the one batch writer and
//! outside that lock, when a flush trigger (batch full, or a flush-forcing
//! record) drives the whole queue through one framed storage append using
//! a reusable scratch buffer. Only flushed bytes survive a crash —
//! [`Journal::bytes`] deliberately exposes the durable prefix, not the
//! pending queue, which is what makes the group-commit batch size a real
//! durability/throughput trade-off in the `journal_overhead` ablation.
//!
//! Incremental checkpoints ([`Journal::checkpoint_delta`]) and compaction
//! ([`JournalState::compact`]) are the only operations that shrink a log.
//! Both end in one `SnapshotDelta` frame and install the new tail with a
//! single streamed [`Storage::replace_from`] (the private
//! `JournalState::install`): the length is announced first, the bytes are
//! written in order through a [`Tail`], and a crash leaves the old log or
//! the new one. A checkpoint keeps the log's retained prefix and carries
//! the committed frames past it; a compaction rewrites from byte 0 —
//! the preamble, the caller's SQL frames, then the image.
//!
//! A rewrite's output is a *retained prefix*: committed `SnapshotDelta`
//! and `Sql` frames only — no transaction markers and no VFS records. The
//! redo filter passes such a prefix through unchanged, so a checkpoint
//! scans and filters only the bytes logged since the last rewrite and
//! replaces just those, keeping the prefix's bytes and LSNs:
//! its cost is O(bytes logged since the last rewrite), not O(log). A
//! journal opened over an existing log takes the log's leading run of
//! frames of those kinds as its retained prefix, found by the same scan
//! that finds the last LSN, so a reopened log keeps its prefix too.
//!
//! A checkpoint holds one window, one write chunk and a list of byte
//! ranges, never the tail it reads or the one it writes. Pass one scans
//! the bytes past the prefix through a fixed window
//! ([`crate::replay::Windowed`]), checking every frame without decoding
//! one, and feeds the redo filter byte ranges: it keeps the committed
//! `SnapshotDelta`/`Sql` frames as merged ranges, and the frames
//! a later rollback or a still-open transaction disqualifies never enter
//! them. Pass two copies those ranges verbatim — header, LSN and CRC
//! included — from the old log into the new tail through the write chunk,
//! re-checking each frame's CRC on the way, then frames the new
//! `SnapshotDelta`, whose length the caller's [`Delta`] reports up front:
//! its payload streams through the chunk while its CRC is computed, and
//! the four CRC bytes are patched in place before the storage commits.
//! Kept frames thus keep their LSNs, as the retained prefix does, and the
//! delta's fresh LSN is above all of them.

use crate::codec::{crc_update, ByteWriter, Put};
use crate::record::Record;
use crate::replay::{replay_from, scan, Redo, TailState, Windowed, SCAN_WINDOW};
use crate::{JournalError, JournalResult};
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::cell::Cell;
use std::ops::Range;
use std::sync::Arc;

/// Magic byte opening every frame.
pub const FRAME_MAGIC: u8 = 0xA7;

/// Fixed frame header size: magic + lsn + len + crc.
pub const FRAME_HEADER: usize = 1 + 8 + 4 + 4;

/// The 8-byte preamble opening every non-empty log. Its first byte is
/// deliberately not [`FRAME_MAGIC`], so a log that opens on a bare frame
/// is told apart from one this journal wrote. The version digit also
/// covers what the records say: since v3 logs name each initiator's COW
/// objects with the injective initiator encoding, a v2 log, whose names a
/// lossy map wrote, does not open; since v4 a store's only image is the
/// `SnapshotDelta`, so a v3 log, which may hold the retired whole-store
/// snapshot or compaction marker, does not open either; and since v5
/// every record is self-contained, so a v4 log, which may name a path by
/// a dictionary id or log an overwrite as a delta, does not open.
pub const LOG_PREAMBLE: [u8; 8] = *b"MXWAL5\x00\x00";

/// Default group-commit batch size (records per flush).
pub const DEFAULT_BATCH: usize = 16;

/// The frame checksum: CRC-32 over the `lsn` and `len` header fields (in
/// their little-endian wire encoding) followed by the payload. Covering
/// the header means a corrupted LSN or length is detected rather than
/// trusted during replay.
pub fn frame_crc(lsn: u64, len: u32, payload: &[u8]) -> u32 {
    crate::codec::crc32_parts(&[&lsn.to_le_bytes(), &len.to_le_bytes(), payload])
}

/// Byte-level log storage. The in-memory implementation stands in for an
/// append-only file; the fault harness wraps one to cut writes short; the
/// block-backed implementation ([`crate::BlockStorage`]) keeps the log on
/// a [`maxoid_block::BlockDevice`] behind a page cache.
///
/// The durability contract: when `append` returns `Ok(())`, the appended
/// bytes are as durable as the backend makes them — block storage issues
/// its write-back + device flush barrier inside `append`, so the WAL's
/// group-commit acknowledgement means the same thing on every backend.
/// `replace_from` is atomic on every backend: after a crash, a reopen sees
/// the old log or the new one, never a mix.
///
/// `read_at` is the one read primitive: the caller owns the buffer, so a
/// reader holds as much of the log as it chooses to — one window of it
/// for a scan or a replay, all of it for [`Journal::bytes`].
pub trait Storage: Send {
    /// Appends bytes to the durable log.
    fn append(&mut self, bytes: &[u8]) -> JournalResult<()>;
    /// Fills `buf` with the durable log's bytes from byte `offset` on; a
    /// range past `len()` is an error. Takes `&mut self` because
    /// device-backed implementations read through their page cache.
    fn read_at(&mut self, offset: usize, buf: &mut [u8]) -> JournalResult<()>;
    /// Durable log length in bytes.
    fn len(&self) -> usize;
    /// True when nothing has been made durable yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Makes the log its first `keep` bytes (at most `len()`) followed by
    /// a new tail of exactly `len` bytes, which `fill` writes through a
    /// [`Tail`] as the storage takes them (implementations run it with
    /// [`Tail::run`]). While it runs, the old log is still the log, and
    /// `fill` may read it through the tail. The storage commits, atomically
    /// (see above), only if `fill` succeeded and exactly `len` bytes
    /// arrived; on `Err` the old log is still the log.
    fn replace_from(&mut self, keep: usize, len: usize, fill: Fill<'_>) -> JournalResult<()>;
}

/// What writes a replacement's new tail: see [`Storage::replace_from`].
pub type Fill<'f> = &'f mut dyn FnMut(&mut Tail<'_>) -> JournalResult<()>;

/// Where a storage puts a replacement's new tail while it arrives, and
/// the old log it still holds meanwhile.
pub trait Replacement {
    /// Writes `bytes` at byte `at` of the new tail.
    fn write_at(&mut self, at: usize, bytes: &[u8]) -> JournalResult<()>;
    /// Fills `buf` from the old log's bytes at `offset`, as
    /// [`Storage::read_at`] does.
    fn read_old(&mut self, offset: usize, buf: &mut [u8]) -> JournalResult<()>;
}

/// A replacement's new tail as the caller writes it: exactly the
/// announced bytes, in order, in pieces of at most one scan window; bytes
/// already written may be patched, and the old log may be read. A
/// broken rule — a larger piece, a byte past the announced length, a
/// patch outside what was written — or a storage error fails the call
/// and the whole replacement, even if the caller goes on.
pub struct Tail<'a> {
    len: usize,
    written: usize,
    failed: Option<JournalError>,
    out: &'a mut dyn Replacement,
}

impl Tail<'_> {
    /// Runs `fill` over `out` for a tail of `len` bytes: `Ok` only if
    /// `fill` succeeded and no rule was broken, and then exactly `len`
    /// bytes arrived, so the storage may commit.
    pub fn run(len: usize, out: &mut dyn Replacement, fill: Fill<'_>) -> JournalResult<()> {
        let mut tail = Tail { len, written: 0, failed: None, out };
        fill(&mut tail)?;
        match tail.failed {
            Some(e) => Err(e),
            None if tail.written != len => Err(JournalError::Io(format!(
                "a replacement tail of {} bytes where {len} were announced",
                tail.written
            ))),
            None => Ok(()),
        }
    }

    /// The announced length.
    pub fn announced(&self) -> usize {
        self.len
    }

    /// Bytes written so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Fails the replacement with `e`, and the call with a copy of it.
    fn fail(&mut self, e: JournalError) -> JournalResult<()> {
        self.failed.get_or_insert(e.clone());
        Err(e)
    }

    /// Writes `bytes` at byte `at` of the tail, unless it already failed.
    fn put(&mut self, at: usize, bytes: &[u8]) -> JournalResult<()> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        self.out.write_at(at, bytes).or_else(|e| self.fail(e))
    }

    /// Writes the next `piece` of the tail (at most one scan window).
    pub fn write(&mut self, piece: &[u8]) -> JournalResult<()> {
        if piece.len() > SCAN_WINDOW || self.len - self.written < piece.len() {
            let (n, at, len) = (piece.len(), self.written, self.len);
            let e = format!("a {n}-byte piece at byte {at} of a {len}-byte tail");
            return self.fail(JournalError::Io(e));
        }
        self.put(self.written, piece)?;
        self.written += piece.len();
        Ok(())
    }

    /// Writes `bytes` as the next pieces of the tail.
    pub fn write_all(&mut self, bytes: &[u8]) -> JournalResult<()> {
        bytes.chunks(SCAN_WINDOW).try_for_each(|piece| self.write(piece))
    }

    /// Overwrites bytes already written, from byte `at` of the tail.
    pub fn patch(&mut self, at: usize, bytes: &[u8]) -> JournalResult<()> {
        if at.checked_add(bytes.len()).is_none_or(|end| end > self.written) {
            let e = format!("a patch at byte {at} of a tail written to byte {}", self.written);
            return self.fail(JournalError::Io(e));
        }
        self.put(at, bytes)
    }

    /// Fills `buf` from the old log's bytes at `offset`.
    pub fn read_old(&mut self, offset: usize, buf: &mut [u8]) -> JournalResult<()> {
        self.out.read_old(offset, buf)
    }
}

/// Plain in-memory storage.
#[derive(Debug, Default)]
pub struct MemStorage {
    buf: Vec<u8>,
}

impl MemStorage {
    pub fn new() -> Self {
        Self::default()
    }
}

impl Storage for MemStorage {
    fn append(&mut self, bytes: &[u8]) -> JournalResult<()> {
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    fn read_at(&mut self, offset: usize, buf: &mut [u8]) -> JournalResult<()> {
        copy_out(&self.buf, offset, buf)
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    fn replace_from(&mut self, keep: usize, len: usize, fill: Fill<'_>) -> JournalResult<()> {
        replace_in_memory(&mut self.buf, keep, len, fill, |_| Ok(()))
    }
}

/// [`Storage::read_at`] over a log held in memory.
pub(crate) fn copy_out(log: &[u8], offset: usize, buf: &mut [u8]) -> JournalResult<()> {
    let src = offset.checked_add(buf.len()).and_then(|end| log.get(offset..end));
    buf.copy_from_slice(
        src.ok_or_else(|| JournalError::Io("read past the end of the log".into()))?,
    );
    Ok(())
}

/// [`Storage::replace_from`] over a log held in memory: the new tail is
/// written past the old log's end, each write first passing `charge` (a
/// fault storage spends its budget there), and only once all of it has
/// arrived does it move over the old log's bytes past `keep`.
pub(crate) fn replace_in_memory(
    log: &mut Vec<u8>,
    keep: usize,
    len: usize,
    fill: Fill<'_>,
    charge: impl FnMut(usize) -> JournalResult<()>,
) -> JournalResult<()> {
    struct PastTheEnd<'a, C> {
        log: &'a mut Vec<u8>,
        old: usize,
        charge: C,
    }
    impl<C: FnMut(usize) -> JournalResult<()>> Replacement for PastTheEnd<'_, C> {
        fn write_at(&mut self, at: usize, bytes: &[u8]) -> JournalResult<()> {
            (self.charge)(bytes.len())?;
            let (from, to) = (self.old + at, self.old + at + bytes.len());
            if self.log.len() < to {
                self.log.resize(to, 0);
            }
            self.log[from..to].copy_from_slice(bytes);
            Ok(())
        }

        fn read_old(&mut self, offset: usize, buf: &mut [u8]) -> JournalResult<()> {
            copy_out(&self.log[..self.old], offset, buf)
        }
    }
    let old = log.len();
    let result = Tail::run(len, &mut PastTheEnd { log: &mut *log, old, charge }, fill);
    if result.is_ok() {
        log.copy_within(old.., keep);
        log.truncate(keep + len);
    } else {
        log.truncate(old);
    }
    result
}

/// A snapshot delta's state, streamed into a checkpoint's new log. Its
/// length is known before any of it is written, so the delta's frame is
/// written front to back and only its CRC is patched afterwards.
pub trait Delta {
    /// The state's length in bytes, exactly what `write_to` writes.
    fn encoded_len(&self) -> usize;
    /// Writes the state into `w`.
    fn write_to(&self, w: &mut dyn Put);
}

impl Delta for [u8] {
    fn encoded_len(&self) -> usize {
        self.len()
    }

    fn write_to(&self, w: &mut dyn Put) {
        w.put_raw(self);
    }
}

/// Counters exposed for tests and the overhead benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Records appended, including queued ones.
    pub records: u64,
    /// Group-commit flushes performed.
    pub flushes: u64,
    /// Bytes made durable.
    pub bytes_flushed: u64,
    /// Storage errors swallowed on emit (the op already happened in
    /// memory; we can only count the lost durability).
    pub io_errors: u64,
    /// Commit/rollback records routed through the leader/follower group
    /// commit protocol.
    pub group_commits: u64,
    /// Group commits that rode an in-flight leader's flush instead of
    /// performing their own (the batching the protocol exists for).
    pub group_follower_waits: u64,
}

/// A record waiting in the pending queue: encoding is deferred to the
/// flush, so the queue holds typed records (the encoder must not need
/// the state lock).
struct Queued {
    lsn: u64,
    rec: Record,
}

/// The storage plus the flush-side scratch buffer, behind one mutex: a
/// flush encodes its whole batch into `scratch` (reused across flushes —
/// no per-record allocation, and at most one scan window of capacity kept
/// between them) and hands storage exactly one append.
struct LogDevice {
    storage: Box<dyn Storage>,
    scratch: Vec<u8>,
}

impl LogDevice {
    /// Frames and appends a batch. Returns the append result and the
    /// number of bytes written.
    fn write_batch(&mut self, batch: &[Queued]) -> (JournalResult<()>, u64) {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        if self.storage.is_empty() {
            scratch.extend_from_slice(&LOG_PREAMBLE);
        }
        let mut w = ByteWriter::from_vec(scratch);
        for q in batch {
            encode_frame(&mut w, q);
        }
        let mut buf = w.into_bytes();
        let n = buf.len() as u64;
        let res = self.storage.append(&buf);
        // A batch that carried a large record keeps no more than one
        // window of it for the rest of the journal's life.
        buf.clear();
        buf.shrink_to(SCAN_WINDOW);
        self.scratch = buf;
        (res, n)
    }
}

/// Frames one queued record into the batch buffer.
fn encode_frame(w: &mut ByteWriter, q: &Queued) {
    put_frame(w, q.lsn, |w| q.rec.encode_into(w));
}

/// Frames the payload `encode` writes in place: header with `len`/`crc`
/// backpatched once the payload length is known.
fn put_frame(w: &mut ByteWriter, lsn: u64, encode: impl FnOnce(&mut ByteWriter)) {
    let start = w.len();
    w.put_u8(FRAME_MAGIC);
    w.put_u64(lsn);
    w.put_u32(0); // len, backpatched below
    w.put_u32(0); // crc, backpatched below
    encode(w);
    let len = (w.len() - start - FRAME_HEADER) as u32;
    w.patch(start + 9, &len.to_le_bytes());
    let crc = frame_crc(lsn, len, &w.as_slice()[start + FRAME_HEADER..]);
    w.patch(start + 13, &crc.to_le_bytes());
}

/// The checkpoint's writer into a [`Tail`]: one chunk of at most one
/// scan window, handed to the tail whenever it fills. Bytes `put`
/// through it are checksummed as they pass, from the register
/// [`Chunk::start_frame`] sets. A write the tail refuses fails the tail,
/// which then refuses every later one, so `put`s after it are dropped and
/// the replacement fails.
struct Chunk<'t, 'a> {
    tail: &'t mut Tail<'a>,
    buf: Vec<u8>,
    crc: u32,
}

impl<'t, 'a> Chunk<'t, 'a> {
    fn new(tail: &'t mut Tail<'a>) -> Self {
        let buf = Vec::with_capacity(tail.announced().min(SCAN_WINDOW));
        Chunk { tail, buf, crc: !0 }
    }

    /// The tail offset of the next byte.
    fn at(&self) -> usize {
        self.tail.written() + self.buf.len()
    }

    /// Hands the chunk to the tail.
    fn flush(&mut self) -> JournalResult<()> {
        let result = if self.buf.is_empty() { Ok(()) } else { self.tail.write(&self.buf) };
        self.buf.clear();
        result
    }

    /// Copies the frames in `range` of the old log — whole frames, read
    /// straight into the chunk — and re-checks each one's CRC as it
    /// passes: a frame that no longer matches is `Corrupted`.
    fn copy_frames(&mut self, range: Range<usize>) -> JournalResult<()> {
        let mut check = FrameCheck::at(range.start);
        let mut at = range.start;
        while at < range.end {
            if self.buf.len() == SCAN_WINDOW {
                self.flush()?;
            }
            let from = self.buf.len();
            let n = (range.end - at).min(SCAN_WINDOW - from);
            self.buf.resize(from + n, 0);
            self.tail.read_old(at, &mut self.buf[from..])?;
            check.feed(&self.buf[from..])?;
            at += n;
        }
        check.end()
    }

    /// Writes the header of a frame of `len` payload bytes at `lsn`, with
    /// a zero CRC for [`Chunk::finish`]'s caller to patch, and starts the
    /// checksum over the bytes put after it.
    fn start_frame(&mut self, lsn: u64, len: u32) {
        self.put_u8(FRAME_MAGIC);
        self.put_u64(lsn);
        self.put_u32(len);
        self.put_u32(0);
        self.crc = crc_update(crc_update(!0, &lsn.to_le_bytes()), &len.to_le_bytes());
    }

    /// Flushes the last chunk; returns the CRC of the frame started last.
    fn finish(mut self) -> JournalResult<u32> {
        self.flush()?;
        Ok(!self.crc)
    }
}

impl Put for Chunk<'_, '_> {
    fn put_raw(&mut self, mut v: &[u8]) {
        self.crc = crc_update(self.crc, v);
        while !v.is_empty() {
            let n = v.len().min(SCAN_WINDOW - self.buf.len());
            self.buf.extend_from_slice(&v[..n]);
            v = &v[n..];
            if self.buf.len() == SCAN_WINDOW {
                // A refused write fails the tail (the type's docs).
                let _ = self.flush();
            }
        }
    }
}

/// Re-checks frames as their bytes stream past: each header's magic, then
/// the payload against the header's CRC.
struct FrameCheck {
    /// Where the current frame starts in the log.
    at: usize,
    header: [u8; FRAME_HEADER],
    /// Header bytes seen of the current frame.
    have: usize,
    /// Payload bytes of the current frame still to come.
    left: usize,
    crc: u32,
}

impl FrameCheck {
    fn at(at: usize) -> Self {
        FrameCheck { at, header: [0; FRAME_HEADER], have: 0, left: 0, crc: 0 }
    }

    fn corrupted(&self) -> JournalError {
        JournalError::Corrupted { offset: self.at }
    }

    fn feed(&mut self, mut bytes: &[u8]) -> JournalResult<()> {
        loop {
            if self.have < FRAME_HEADER {
                let n = bytes.len().min(FRAME_HEADER - self.have);
                self.header[self.have..self.have + n].copy_from_slice(&bytes[..n]);
                (self.have, bytes) = (self.have + n, &bytes[n..]);
                if self.have < FRAME_HEADER {
                    return Ok(());
                }
                if self.header[0] != FRAME_MAGIC {
                    return Err(self.corrupted());
                }
                self.left = u32::from_le_bytes(self.header[9..13].try_into().unwrap()) as usize;
                self.crc = crc_update(!0, &self.header[1..13]);
            }
            let n = bytes.len().min(self.left);
            self.crc = crc_update(self.crc, &bytes[..n]);
            (self.left, bytes) = (self.left - n, &bytes[n..]);
            if self.left > 0 {
                return Ok(());
            }
            if !self.crc != u32::from_le_bytes(self.header[13..].try_into().unwrap()) {
                return Err(self.corrupted());
            }
            let len = u32::from_le_bytes(self.header[9..13].try_into().unwrap()) as usize;
            (self.at, self.have) = (self.at + FRAME_HEADER + len, 0);
        }
    }

    /// The bytes fed ended on a frame boundary.
    fn end(&self) -> JournalResult<()> {
        if self.have == 0 {
            Ok(())
        } else {
            Err(self.corrupted())
        }
    }
}

/// The write-ahead log: one cloneable handle, shared by every emitter, over
/// one locked [`JournalState`].
///
/// Every record takes one path ([`Journal::append`]): it is queued under
/// the state lock (a vec push, no encoding), and a flush trigger — the
/// batch is full, or the record forces a flush — makes the first thread
/// the group-commit **leader**. The leader runs the one batch writer: it
/// pins the storage lock while it still holds the state lock (so no other
/// batch can write later LSNs underneath its own), lets go of the state
/// lock so other threads keep appending, then encodes, checksums and
/// writes the whole batch in one storage append. A flush-forcing record
/// waits until its LSN is acknowledged: threads that commit while a batch
/// is in flight park on a condition variable and usually find their record
/// made durable by the leader's write — many commits, one storage write.
/// [`Journal::flush`], [`Journal::with_flushed`] and
/// [`Journal::checkpoint_delta`] run the same writer under their hold.
///
/// Storage sits behind its own mutex, below the state lock in the global
/// order (state → storage).
#[derive(Clone)]
pub struct Journal {
    shared: Arc<Shared>,
}

/// The state lock, and the condition variable followers park on while a
/// leader's batch is in flight.
struct Shared {
    state: Mutex<JournalState>,
    flushed: Condvar,
}

/// The journal's state, behind the handle's lock. [`Journal::with_flushed`]
/// lends it out, to [`JournalState::replay`] the log or
/// [`JournalState::compact`] it.
pub struct JournalState {
    storage: Arc<Mutex<LogDevice>>,
    next_lsn: u64,
    next_txn: u64,
    batch: usize,
    queue: Vec<Queued>,
    /// Length of the retained prefix (module docs): the log as the last
    /// rewrite left it, or the leading run of retainable frames of the
    /// log this journal opened. 0 when there is none.
    retained: usize,
    /// Highest LSN whose flush attempt has completed (successfully, or
    /// with a counted `io_errors` — matching emit's "durability loss is
    /// counted, not unwound" philosophy). Group-commit followers wait for
    /// this to pass their record's LSN.
    acked_lsn: u64,
    /// True while a group-commit leader's batch is in flight.
    leader: bool,
    stats: JournalStats,
}

thread_local! {
    /// The journal (its `Shared`'s address) whose state this thread has
    /// lent to a [`Journal::with_flushed`] closure, or 0.
    static LENT: Cell<usize> = const { Cell::new(0) };
}

/// Puts back the thread's previously lent journal when a `with_flushed`
/// closure returns or unwinds.
struct Lend(usize);

impl Drop for Lend {
    fn drop(&mut self) {
        LENT.with(|l| l.set(self.0));
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Journal(..)")
    }
}

impl Journal {
    /// Creates a journal over the given storage with a group-commit batch
    /// size (records per flush; 1 = flush every record).
    ///
    /// Non-empty storage (a reopened device-backed log) is scanned once,
    /// through a window, so LSNs continue past the existing history —
    /// replay rejects non-monotonic LSNs as corruption, so a reopened
    /// journal must never restart numbering at 1 — and so the log's
    /// leading run of retainable frames becomes the retained prefix. A log
    /// that cannot be read is an error, not an empty history.
    pub fn new(mut storage: Box<dyn Storage>, batch: usize) -> JournalResult<Self> {
        let (mut last_lsn, mut retained, mut leading) = (0, 0, true);
        scan(&mut Windowed::new(&mut *storage), 0, |f, _| {
            last_lsn = f.lsn;
            leading &= f.kind.retainable();
            if leading {
                retained = f.range.end;
            }
        })?;
        Ok(Journal::resume(storage, batch, last_lsn, retained))
    }

    /// Creates an in-memory journal.
    pub fn in_memory(batch: usize) -> Self {
        Journal::resume(Box::new(MemStorage::new()), batch, 0, 0)
    }

    /// A journal over `storage` whose durable log ends at `last_lsn`, with
    /// a retained prefix of `retained` bytes.
    fn resume(storage: Box<dyn Storage>, batch: usize, last_lsn: u64, retained: usize) -> Self {
        let state = JournalState {
            storage: Arc::new(Mutex::new(LogDevice { storage, scratch: Vec::new() })),
            next_lsn: last_lsn + 1,
            next_txn: 1,
            batch: batch.max(1),
            queue: Vec::new(),
            retained,
            acked_lsn: last_lsn,
            leader: false,
            stats: JournalStats::default(),
        };
        Journal { shared: Arc::new(Shared { state: Mutex::new(state), flushed: Condvar::new() }) }
    }

    fn id(&self) -> usize {
        Arc::as_ptr(&self.shared) as usize
    }

    /// Takes the state lock. It is not reentrant, so a call from inside
    /// this journal's own `with_flushed` closure panics rather than wait
    /// on it forever.
    fn lock(&self) -> MutexGuard<'_, JournalState> {
        assert!(
            LENT.with(Cell::get) != self.id(),
            "a journal was called from inside its own `with_flushed` closure, \
             which holds its state lock"
        );
        self.shared.state.lock()
    }

    /// Appends a record and returns its LSN. It is queued until the batch
    /// fills or a flush-forcing record (commit, rollback, image) arrives;
    /// a flush-forcing record returns once the write that carried it has
    /// completed (the error reaches the thread that wrote the batch; the
    /// others see it counted in `io_errors`).
    pub fn append(&self, rec: Record) -> JournalResult<u64> {
        self.push(self.lock(), rec, false)
    }

    /// [`Journal::append`] for an emitter that has already applied the
    /// mutation the record describes: a storage error can only be counted
    /// (in [`JournalStats::io_errors`], by the batch writer), never
    /// unwound.
    pub fn emit(&self, rec: Record) {
        let _ = self.append(rec);
    }

    /// Opens a journal transaction and returns its id. Emitters close it
    /// with [`Journal::commit_txn`]/[`Journal::rollback_txn`] or an
    /// emitted `TxnCommit`/`TxnRollback`.
    pub fn begin_txn(&self) -> JournalResult<u64> {
        let mut st = self.lock();
        let txn = st.next_txn;
        st.next_txn += 1;
        self.push(st, Record::TxnBegin { txn }, false)?;
        Ok(txn)
    }

    /// Commits a journal transaction through the group-commit protocol.
    pub fn commit_txn(&self, txn: u64) -> JournalResult<()> {
        self.push(self.lock(), Record::TxnCommit { txn }, true).map(drop)
    }

    /// Rolls back a journal transaction through the group-commit protocol
    /// (the rollback decision must be as durable as a commit's).
    pub fn rollback_txn(&self, txn: u64) -> JournalResult<()> {
        self.push(self.lock(), Record::TxnRollback { txn }, true).map(drop)
    }

    /// The one append path. Queues `rec` under the state lock `st`, then:
    ///
    /// * no trigger — returns (encoding deferred);
    /// * batch full — writes the queue as group-commit leader, unless a
    ///   batch is already in flight (the queue then rides a later one);
    /// * flush-forcing — waits until the record's LSN is acknowledged, by
    ///   this thread's own leader write or by riding another thread's
    ///   batch. Only a leader sees a storage error; a follower's
    ///   durability loss is counted in `io_errors`.
    ///
    /// `group` books the record as a group commit.
    fn push<'a>(
        &'a self,
        mut st: MutexGuard<'a, JournalState>,
        rec: Record,
        group: bool,
    ) -> JournalResult<u64> {
        let force = rec.forces_flush();
        let lsn = st.enqueue(rec);
        if group {
            st.stats.group_commits += 1;
            maxoid_obs::counter_add("journal.group_commits", 1);
        }
        if !force && st.queue.len() < st.batch {
            return Ok(lsn);
        }
        maxoid_obs::counter_add(
            if force { "journal.flushes_forced" } else { "journal.flushes_batch" },
            1,
        );
        loop {
            if st.acked_lsn >= lsn {
                return Ok(lsn);
            }
            if !st.leader {
                return self.write_queue(st, true).1.map(|()| lsn);
            }
            if !force {
                // Batch trigger with a leader already in flight: the queued
                // records ride a later flush.
                return Ok(lsn);
            }
            st.stats.group_follower_waits += 1;
            maxoid_obs::counter_add("journal.group_follower_waits", 1);
            self.shared.flushed.wait(&mut st);
        }
    }

    /// The one batch writer: takes the queue, frames it into one storage
    /// append and books the outcome. The storage lock is taken while the
    /// state lock is still held (state → storage), so no other batch can
    /// write later LSNs underneath this one. A group-commit leader (`lead`)
    /// lets go of the state lock during the write, so other threads keep
    /// appending, and wakes the followers once it has booked the write;
    /// every other caller writes under its own hold. Returns the state
    /// lock, held again, and the write's outcome.
    fn write_queue<'a>(
        &'a self,
        mut st: MutexGuard<'a, JournalState>,
        lead: bool,
    ) -> (MutexGuard<'a, JournalState>, JournalResult<()>) {
        if st.queue.is_empty() {
            return (st, Ok(()));
        }
        let batch = std::mem::take(&mut st.queue);
        let high = batch.last().map_or(st.acked_lsn, |q| q.lsn);
        let storage = Arc::clone(&st.storage);
        let mut dev = storage.lock();
        let held = if lead {
            st.leader = true;
            drop(st);
            None
        } else {
            Some(st)
        };
        let mut sp = maxoid_obs::span("journal.flush");
        let (result, bytes) = dev.write_batch(&batch);
        drop(dev);
        if sp.is_active() {
            sp.field("bytes", bytes.to_string());
            sp.field("records", batch.len().to_string());
            maxoid_obs::observe("journal.flush_bytes", bytes);
            maxoid_obs::observe("journal.flush_records", batch.len() as u64);
        }
        drop(sp);
        let mut st = held.unwrap_or_else(|| self.lock());
        st.book(bytes as usize, &result, high);
        if lead {
            st.leader = false;
            self.shared.flushed.notify_all();
        }
        (st, result)
    }

    /// Makes every queued record durable. Waits out any in-flight leader
    /// first, so the acknowledgement covers a known storage outcome.
    pub fn flush(&self) -> JournalResult<()> {
        self.with_flushed(|_| ())
    }

    /// Runs `f` on the journal's state under one hold of the state lock,
    /// once no group-commit leader is in flight and every queued record is
    /// durable. Nothing can become durable while `f` runs — appending
    /// threads wait on the lock — so the log `f` reads stays the whole
    /// durable log until `f` rewrites it: what a compaction needs. For
    /// the same reason `f` must not call this journal (or an emitter it
    /// is attached to): such a call panics.
    pub fn with_flushed<R>(&self, f: impl FnOnce(&mut JournalState) -> R) -> JournalResult<R> {
        let mut st = self.lock();
        while st.leader {
            self.shared.flushed.wait(&mut st);
        }
        let (mut st, flushed) = self.write_queue(st, false);
        flushed?;
        let _lend = Lend(LENT.with(|l| l.replace(self.id())));
        Ok(f(&mut st))
    }

    /// Returns the durable log bytes (NOT including the pending queue —
    /// what a crash right now would leave behind), with a read error
    /// returned as an empty log. That is not the log: code that acts on
    /// the log — rewriting it, booting from it — reads it with
    /// [`JournalState::replay`], which returns the error.
    pub fn bytes(&self) -> Vec<u8> {
        let st = self.lock();
        let mut dev = st.storage.lock();
        let mut log = vec![0; dev.storage.len()];
        match dev.storage.read_at(0, &mut log) {
            Ok(()) => log,
            Err(_) => Vec::new(),
        }
    }

    /// Durable log size in bytes, without copying the log out.
    pub fn len(&self) -> usize {
        self.lock().storage.lock().storage.len()
    }

    /// True when nothing has been made durable yet — i.e. booting from
    /// this journal is a fresh boot, not a cold recovery.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the emit/flush counters.
    pub fn stats(&self) -> JournalStats {
        self.lock().stats
    }

    /// Incremental checkpoint: rewrites the log as the committed image
    /// chain (earlier `SnapshotDelta`s, every component), the committed
    /// SQL history, and a new `SnapshotDelta` carrying only the
    /// state dirtied since the last checkpoint, which `delta` streams
    /// straight into the new log. Replay rebuilds the chain in order; VFS
    /// physical records are dropped because the delta subsumes them, and
    /// records of rolled-back or still-open transactions are dropped with
    /// their markers.
    ///
    /// Only the bytes past the retained prefix are scanned, filtered and
    /// replaced (module docs); the prefix — already in that shape — stays
    /// as it is. Pass one reads those bytes through a fixed window and
    /// keeps the frames to carry as byte ranges; pass two copies the
    /// ranges from the old log into the new one through one write chunk,
    /// then the delta, so the call holds a window, a chunk and the ranges.
    /// If the scan finds [`TailState::Corrupted`], `delta` is not written,
    /// the log is left untouched and the call fails with
    /// [`JournalError::Corrupted`]: a rewrite must not turn damaged
    /// history into a clean, shorter log, nor carry a damaged frame
    /// forward. A kept frame whose CRC no longer matches when pass two
    /// copies it fails the same way, and the old log stays the log.
    pub fn checkpoint_delta<D: Delta + ?Sized>(
        &self,
        component: &str,
        delta: &D,
    ) -> JournalResult<()> {
        self.with_flushed(|st| st.checkpoint(component, delta))?
    }
}

impl JournalState {
    /// Assigns the record an LSN and pushes it onto the pending queue. No
    /// encoding, no checksum, no storage — those are the batch writer's.
    fn enqueue(&mut self, rec: Record) -> u64 {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.queue.push(Queued { lsn, rec });
        self.stats.records += 1;
        maxoid_obs::counter_add("journal.records", 1);
        lsn
    }

    /// Books the outcome of a write of `bytes` bytes: counters on success,
    /// `io_errors` on failure, and in either case acknowledgement up to
    /// `high` (the batch is gone from the queue; a failed write is a
    /// counted durability loss, exactly like `emit`'s).
    fn book(&mut self, bytes: usize, result: &JournalResult<()>, high: u64) {
        match result {
            Ok(()) => {
                self.stats.flushes += 1;
                self.stats.bytes_flushed += bytes as u64;
                maxoid_obs::counter_add("journal.flushes", 1);
                maxoid_obs::counter_add("journal.bytes_flushed", bytes as u64);
            }
            Err(_) => {
                self.stats.io_errors += 1;
                maxoid_obs::counter_add("journal.io_errors", 1);
            }
        }
        self.acked_lsn = self.acked_lsn.max(high);
    }

    /// [`Journal::checkpoint_delta`], on a flushed journal.
    fn checkpoint<D: Delta + ?Sized>(&mut self, component: &str, delta: &D) -> JournalResult<()> {
        let _sp = maxoid_obs::span("journal.rewrite");
        let keep = self.retained;
        let storage = Arc::clone(&self.storage);
        let mut dev = storage.lock();
        // Pass one: the frames that take effect, as merged byte ranges.
        let mut kept: Vec<Range<usize>> = Vec::new();
        let mut settle = |range: Range<usize>, applies: bool| {
            if !applies {
                return;
            }
            match kept.last_mut() {
                Some(last) if last.end == range.start => last.end = range.end,
                _ => kept.push(range),
            }
        };
        let mut redo = Redo::default();
        let end = scan(&mut Windowed::new(&mut *dev.storage), keep, |f, _| {
            redo.feed(f, f.kind.retainable().then(|| f.range.clone()), &mut settle);
        })?;
        if let TailState::Corrupted { offset } = end {
            return Err(JournalError::Corrupted { offset });
        }
        redo.finish(&mut settle);
        // Pass two: the kept frames, then the delta's frame.
        let preamble = if keep == 0 { &LOG_PREAMBLE[..] } else { &[] };
        let carried: usize = kept.iter().map(|r| r.len()).sum();
        let head = &mut |out: &mut Chunk<'_, '_>| {
            out.put_raw(preamble);
            kept.iter().try_for_each(|range| out.copy_frames(range.clone()))
        };
        self.install(&mut *dev.storage, keep, preamble.len() + carried, head, component, delta)
    }

    /// Compaction: replaces the whole log with the preamble, `records` —
    /// a reconstruction of live state, such as each database's catalog
    /// and rows — and a `SnapshotDelta` of `image` for `component`,
    /// written as a checkpoint writes its delta. The records get fresh
    /// LSNs from the journal's counter and are framed into one buffer, of
    /// their size, not the log's; the image streams through the write
    /// chunk. Recovery over the new log replays live
    /// state, not uptime history. The new log is the next retained
    /// prefix, unless `records` held a kind a prefix may not (then the
    /// next checkpoint reads it all).
    ///
    /// The caller read the log it replaces under the same hold
    /// ([`Journal::with_flushed`]), so every record durable by then is in
    /// what it passes here.
    pub fn compact<D: Delta + ?Sized>(
        &mut self,
        records: &[Record],
        component: &str,
        image: &D,
    ) -> JournalResult<()> {
        let _sp = maxoid_obs::span("journal.rewrite");
        let mut w = ByteWriter::from_vec(LOG_PREAMBLE.to_vec());
        for rec in records {
            put_frame(&mut w, self.next_lsn, |w| rec.encode_into(w));
            self.next_lsn += 1;
        }
        let framed = w.into_bytes();
        let storage = Arc::clone(&self.storage);
        let mut dev = storage.lock();
        let head = &mut |out: &mut Chunk<'_, '_>| {
            out.put_raw(&framed);
            Ok(())
        };
        let result = self.install(&mut *dev.storage, 0, framed.len(), head, component, image);
        if result.is_ok() && !records.iter().all(|r| r.kind().retainable()) {
            self.retained = 0;
        }
        result
    }

    /// Replays the durable log through one window of it, handing `apply`
    /// each record that takes effect as soon as it settles (see
    /// [`crate::replay()`]). Returns how the log ended, or the storage's
    /// read error: a log that could not be read is not an empty history.
    pub fn replay(&self, apply: impl FnMut(Record)) -> JournalResult<TailState> {
        let mut dev = self.storage.lock();
        replay_from(&mut Windowed::new(&mut *dev.storage), apply)
    }

    /// The one path that truncates or rewrites the log: makes it its
    /// first `keep` bytes (0, or the retained prefix) followed by the
    /// `head_len` bytes `head` writes (the preamble first when `keep` is
    /// 0) and a `SnapshotDelta` frame of `delta` for `component` at a
    /// fresh LSN, above every LSN before it. The frame's length is known
    /// before any of it is written: its payload streams through the write
    /// chunk while its CRC is computed, and the four CRC bytes are patched
    /// in place. One [`Storage::replace_from`] does it all, booked as one
    /// flush. On success the new log is the next retained prefix (a
    /// caller whose tail may not be one resets it); if the replace fails,
    /// the old log and the old prefix stay.
    fn install<D: Delta + ?Sized>(
        &mut self,
        storage: &mut dyn Storage,
        keep: usize,
        head_len: usize,
        head: &mut dyn FnMut(&mut Chunk<'_, '_>) -> JournalResult<()>,
        component: &str,
        delta: &D,
    ) -> JournalResult<()> {
        let state = delta.encoded_len();
        let payload = Record::snapshot_delta_head_len(component) + state;
        let payload = u32::try_from(payload)
            .map_err(|_| JournalError::Io(format!("a {payload}-byte snapshot delta")))?;
        let len = head_len + FRAME_HEADER + payload as usize;
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let fill = &mut |tail: &mut Tail<'_>| {
            let mut out = Chunk::new(tail);
            head(&mut out)?;
            let frame = out.at();
            out.start_frame(lsn, payload);
            Record::put_snapshot_delta_head(&mut out, component, state as u32);
            delta.write_to(&mut out);
            let crc = out.finish()?;
            tail.patch(frame + 13, &crc.to_le_bytes())
        };
        let result = storage.replace_from(keep, len, fill);
        if result.is_ok() {
            self.retained = keep + len;
        }
        self.book(len, &result, lsn);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::VfsRecord;
    use crate::replay::{read_records, replay, TailState, SCAN_WINDOW};

    fn rec(path: &str) -> Record {
        Record::Vfs(VfsRecord::Unlink { path: path.into() })
    }

    fn state(j: &Journal) -> MutexGuard<'_, JournalState> {
        j.shared.state.lock()
    }

    #[test]
    #[should_panic(expected = "inside its own `with_flushed` closure")]
    fn a_call_from_inside_with_flushed_panics_instead_of_hanging() {
        let j = Journal::in_memory(1);
        j.emit(rec("/a"));
        let _ = j.with_flushed(|_| j.len());
    }

    /// Another journal is not lent, and the lend ends with the closure.
    #[test]
    fn with_flushed_lends_only_its_own_journal() {
        let (a, b) = (Journal::in_memory(1), Journal::in_memory(1));
        b.emit(rec("/b"));
        let len = a.with_flushed(|_| b.len()).unwrap();
        assert_eq!(len, b.len());
        a.emit(rec("/a"));
        assert!(!a.is_empty());
    }

    /// The records a replay of `log` hands on.
    fn committed(log: &[u8]) -> Vec<Record> {
        let mut recs = Vec::new();
        replay(log, |r| recs.push(r));
        recs
    }

    #[test]
    fn batch_buffers_until_full() {
        let j = Journal::in_memory(3);
        j.append(rec("/a")).unwrap();
        j.append(rec("/b")).unwrap();
        assert_eq!(j.stats().flushes, 0);
        assert!(j.bytes().is_empty(), "unflushed records are not durable");
        j.append(rec("/c")).unwrap();
        assert_eq!(j.stats().flushes, 1);
        let log = read_records(&j.bytes());
        assert_eq!(log.records.len(), 3);
        assert_eq!(log.tail, TailState::Clean);
    }

    #[test]
    fn commit_forces_flush() {
        let j = Journal::in_memory(100);
        let txn = j.begin_txn().unwrap();
        j.append(rec("/a")).unwrap();
        assert_eq!(j.stats().flushes, 0);
        j.commit_txn(txn).unwrap();
        assert_eq!(j.stats().flushes, 1);
        assert_eq!(read_records(&j.bytes()).records.len(), 3);
    }

    #[test]
    fn lsns_are_monotonic_and_stamped() {
        let j = Journal::in_memory(1);
        let l1 = j.append(rec("/a")).unwrap();
        let l2 = j.append(rec("/b")).unwrap();
        assert!(l2 > l1);
        let log = read_records(&j.bytes());
        assert_eq!(log.records[0].0, l1);
        assert_eq!(log.records[1].0, l2);
    }

    #[test]
    fn logs_open_with_the_current_preamble() {
        let j = Journal::in_memory(1);
        j.append(rec("/a")).unwrap();
        let bytes = j.bytes();
        assert_eq!(&bytes[..LOG_PREAMBLE.len()], &LOG_PREAMBLE);
        assert_eq!(bytes[LOG_PREAMBLE.len()], FRAME_MAGIC);
    }

    fn sql(text: &str) -> Record {
        Record::Sql { db: "d".into(), sql: text.into(), params: vec![] }
    }

    #[test]
    fn checkpoint_keeps_sql_and_replaces_vfs() {
        let j = Journal::in_memory(1);
        j.append(rec("/a")).unwrap();
        j.append(sql("CREATE TABLE t (x)")).unwrap();
        j.append(rec("/a")).unwrap();
        j.checkpoint_delta("vfs.store", &[1, 2, 3][..]).unwrap();
        let log = read_records(&j.bytes());
        let recs: Vec<&Record> = log.records.iter().map(|(_, r)| r).collect();
        // The VFS records are subsumed by the delta; the SQL stays, ahead
        // of it.
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0], &sql("CREATE TABLE t (x)"));
        assert!(matches!(recs[1], Record::SnapshotDelta { component, payload }
            if component == "vfs.store" && payload == &vec![1, 2, 3]));
    }

    #[test]
    fn checkpoint_drops_uncommitted_sql() {
        let j = Journal::in_memory(1);
        let txn = j.begin_txn().unwrap();
        j.append(sql("INSERT ...")).unwrap();
        j.rollback_txn(txn).unwrap();
        j.checkpoint_delta("vfs.store", &[][..]).unwrap();
        let log = read_records(&j.bytes());
        assert_eq!(log.records.len(), 1);
        assert!(matches!(log.records[0].1, Record::SnapshotDelta { .. }));
    }

    #[test]
    fn checkpoint_delta_is_one_flush() {
        let j = Journal::in_memory(8);
        for i in 0..200 {
            j.append(sql(&format!("INSERT INTO t VALUES ({i})"))).unwrap();
        }
        let before_bytes = j.bytes();
        let before = read_records(&before_bytes);
        assert_eq!(before.records.len(), 200, "200 records at batch 8 are all flushed");
        let flushes = j.stats().flushes;
        j.checkpoint_delta("vfs.store", &[9][..]).unwrap();
        assert_eq!(j.stats().flushes, flushes + 1, "the whole rewrite is one storage call");
        let after_bytes = j.bytes();
        let after = read_records(&after_bytes);
        assert_eq!(after.tail, TailState::Clean);
        let (kept, delta) = after.records.split_at(200);
        let old: Vec<&Record> = before.records.iter().map(|(_, r)| r).collect();
        assert_eq!(kept.iter().map(|(_, r)| r).collect::<Vec<_>>(), old);
        assert!(
            matches!(&delta[0].1, Record::SnapshotDelta { payload, .. } if payload == &vec![9])
        );
        // The 200 kept frames are the old log's, byte for byte (LSNs and
        // CRCs included); the delta's LSN is above every one of them.
        let delta_at = crate::fault::record_boundaries(&after_bytes)[201];
        assert_eq!(after_bytes[..delta_at], before_bytes[..]);
        assert!(delta[0].0 > before.last_lsn());
    }

    /// Storage whose log, and the reads and writes made of it, stay
    /// visible to the test after the journal takes it.
    #[derive(Clone, Default)]
    struct Shared {
        log: Arc<Mutex<Vec<u8>>>,
        /// `(offset, bytes read)` of every read of the log: `read_at`, and
        /// a replacement's `read_old`.
        reads: Arc<Mutex<Vec<(usize, usize)>>>,
        /// `(tail offset, bytes)` of every write of a replacement's tail,
        /// patches included.
        writes: Arc<Mutex<Vec<(usize, usize)>>>,
        /// While set, every `read_old` comes back with its last byte
        /// flipped: a medium that reads a frame differently the second
        /// time.
        flip_rereads: Arc<std::sync::atomic::AtomicBool>,
    }

    impl Storage for Shared {
        fn append(&mut self, bytes: &[u8]) -> JournalResult<()> {
            self.log.lock().extend_from_slice(bytes);
            Ok(())
        }

        fn read_at(&mut self, offset: usize, buf: &mut [u8]) -> JournalResult<()> {
            self.reads.lock().push((offset, buf.len()));
            copy_out(&self.log.lock(), offset, buf)
        }

        fn len(&self) -> usize {
            self.log.lock().len()
        }

        fn replace_from(&mut self, keep: usize, len: usize, fill: Fill<'_>) -> JournalResult<()> {
            let shared = &*self;
            let recorded = &mut |tail: &mut Tail<'_>| {
                Tail::run(len, &mut Recorded { tail, shared }, &mut *fill)
            };
            replace_in_memory(&mut self.log.lock(), keep, len, recorded, |_| Ok(()))
        }
    }

    /// A [`Shared`] replacement's tail, recording what passes through it.
    struct Recorded<'t, 'a, 's> {
        tail: &'t mut Tail<'a>,
        shared: &'s Shared,
    }

    impl Replacement for Recorded<'_, '_, '_> {
        fn write_at(&mut self, at: usize, bytes: &[u8]) -> JournalResult<()> {
            self.shared.writes.lock().push((at, bytes.len()));
            if at == self.tail.written() {
                self.tail.write(bytes)
            } else {
                self.tail.patch(at, bytes)
            }
        }

        fn read_old(&mut self, offset: usize, buf: &mut [u8]) -> JournalResult<()> {
            self.shared.reads.lock().push((offset, buf.len()));
            self.tail.read_old(offset, buf)?;
            if self.shared.flip_rereads.load(std::sync::atomic::Ordering::SeqCst) {
                if let Some(last) = buf.last_mut() {
                    *last ^= 0x01;
                }
            }
            Ok(())
        }
    }

    /// The frames past `from` that a checkpoint of `log` keeps, as the
    /// merged byte ranges pass two copies.
    fn kept_ranges(log: &[u8], from: usize) -> Vec<Range<usize>> {
        let mut kept: Vec<Range<usize>> = Vec::new();
        let mut settle = |r: Range<usize>, applies: bool| match kept.last_mut() {
            Some(last) if applies && last.end == r.start => last.end = r.end,
            _ if applies => kept.push(r),
            _ => {}
        };
        let mut redo = Redo::default();
        for f in read_records(log).frames.iter().filter(|f| f.range.start >= from) {
            redo.feed(f, f.kind.retainable().then(|| f.range.clone()), &mut settle);
        }
        redo.finish(&mut settle);
        kept
    }

    /// `reads` merged where one ends where the next starts; every read
    /// must start past the one before it, so no byte is read twice.
    fn merged(reads: &[(usize, usize)]) -> Vec<Range<usize>> {
        let mut out: Vec<Range<usize>> = Vec::new();
        for &(at, n) in reads {
            match out.last_mut() {
                Some(last) if last.end == at => last.end += n,
                last => {
                    assert!(last.is_none_or(|l| l.end < at), "a read goes back: {reads:?}");
                    out.push(at..at + n);
                }
            }
        }
        out
    }

    #[test]
    fn a_second_checkpoint_reads_and_replaces_only_the_tail() {
        let shared = Shared::default();
        let j = Journal::new(Box::new(shared.clone()), 8).unwrap();
        for i in 0..100 {
            j.append(sql(&format!("INSERT INTO t VALUES ({i})"))).unwrap();
        }
        j.checkpoint_delta("vfs.store", &[1][..]).unwrap();
        let prefix = j.bytes();
        let txn = j.begin_txn().unwrap();
        for i in 100..150 {
            j.append(sql(&format!("INSERT INTO t VALUES ({i})"))).unwrap();
            j.append(rec("/hot")).unwrap();
        }
        j.commit_txn(txn).unwrap();
        let before = j.bytes();
        shared.reads.lock().clear();
        let flushes = j.stats().flushes;
        j.checkpoint_delta("vfs.store", &[2][..]).unwrap();
        let reads = shared.reads.lock().clone();
        assert_eq!(
            reads[0],
            (prefix.len(), before.len() - prefix.len()),
            "the scan: one read, of exactly the bytes logged since the first checkpoint"
        );
        // The copy: each of the 50 committed SQL frames, between which
        // the file records sit, read once more.
        let sql_frames: Vec<(usize, usize)> = read_records(&before)
            .frames
            .iter()
            .filter(|f| f.range.start >= prefix.len() && f.kind == crate::record::Kind::Sql)
            .map(|f| (f.range.start, f.range.len()))
            .collect();
        assert_eq!(sql_frames.len(), 50);
        assert_eq!(reads[1..], sql_frames[..]);
        assert_eq!(j.stats().flushes, flushes + 1, "still one storage call");
        let after = j.bytes();
        assert_eq!(after[..prefix.len()], prefix[..], "the prefix's bytes are untouched");
        let log = read_records(&after);
        assert_eq!(log.tail, TailState::Clean);
        let recs: Vec<&Record> = log.records.iter().map(|(_, r)| r).collect();
        assert_eq!(recs.len(), 100 + 1 + 50 + 1);
        assert!(matches!(recs[100], Record::SnapshotDelta { payload, .. } if payload == &vec![1]));
        assert_eq!(recs[101], &sql("INSERT INTO t VALUES (100)"));
        assert!(matches!(recs[151], Record::SnapshotDelta { payload, .. } if payload == &vec![2]));
        assert!(log.records.windows(2).all(|w| w[0].0 < w[1].0), "LSNs strictly rise");
    }

    #[test]
    fn checkpoint_refuses_a_corrupted_log_and_drops_a_torn_tail() {
        let shared = Shared::default();
        let j = Journal::new(Box::new(shared.clone()), 1).unwrap();
        for i in 0..3 {
            j.append(sql(&format!("INSERT INTO t VALUES ({i})"))).unwrap();
        }
        // Damage under acknowledged history: the first checkpoint (which
        // reads the whole log) refuses it and leaves the log as it was.
        let clean = j.bytes();
        let second = crate::fault::record_boundaries(&clean)[2];
        shared.log.lock()[second + FRAME_HEADER] ^= 0x01;
        let damaged = j.bytes();
        let err = j.checkpoint_delta("vfs.store", &[1][..]);
        assert_eq!(err, Err(JournalError::Corrupted { offset: second }));
        assert_eq!(j.bytes(), damaged);
        // Repaired, it checkpoints; damage past the retained prefix is
        // refused the same way, at its offset in the whole log.
        *shared.log.lock() = clean;
        j.checkpoint_delta("vfs.store", &[1][..]).unwrap();
        let prefix = j.len();
        j.append(sql("INSERT INTO t VALUES (3)")).unwrap();
        j.append(sql("INSERT INTO t VALUES (4)")).unwrap();
        shared.log.lock()[prefix + FRAME_HEADER] ^= 0x01;
        let damaged = j.bytes();
        let err = j.checkpoint_delta("vfs.store", &[2][..]);
        assert_eq!(err, Err(JournalError::Corrupted { offset: prefix }));
        assert_eq!(j.bytes(), damaged);
        // A torn tail is legal (its bytes were never acknowledged), and
        // the rewrite drops it.
        shared.log.lock()[prefix + FRAME_HEADER] ^= 0x01;
        shared.log.lock().extend_from_slice(&[FRAME_MAGIC, 9, 9]);
        j.checkpoint_delta("vfs.store", &[2][..]).unwrap();
        let log = read_records(&j.bytes());
        assert_eq!(log.tail, TailState::Clean);
        assert_eq!(log.records.len(), 3 + 1 + 2 + 1);
    }

    /// A delta that records whether it was written.
    #[derive(Default)]
    struct Spy(std::cell::Cell<bool>);

    impl Delta for Spy {
        fn encoded_len(&self) -> usize {
            0
        }

        fn write_to(&self, _: &mut dyn Put) {
            self.0.set(true);
        }
    }

    #[test]
    fn checkpoint_refuses_a_checksummed_frame_that_does_not_decode() {
        // Two payloads under a valid header and CRC that no record decodes
        // from: an unknown record tag, and an unlink whose path is not
        // UTF-8.
        let mut not_utf8 = ByteWriter::new();
        rec("/a").encode_into(&mut not_utf8);
        let mut not_utf8 = not_utf8.into_bytes();
        *not_utf8.last_mut().unwrap() = 0xFF;
        for bad in [vec![200u8], not_utf8] {
            // In the first checkpoint's whole log, and past a prefix.
            for prefix in [false, true] {
                let shared = Shared::default();
                let j = Journal::new(Box::new(shared.clone()), 1).unwrap();
                j.append(sql("INSERT INTO t VALUES (1)")).unwrap();
                if prefix {
                    j.checkpoint_delta("vfs.store", &[1][..]).unwrap();
                }
                j.append(rec("/b")).unwrap();
                let at = j.len();
                let mut frame = ByteWriter::new();
                put_frame(&mut frame, state(&j).next_lsn, |w| w.put_raw(&bad));
                shared.log.lock().extend_from_slice(frame.as_slice());
                state(&j).next_lsn += 1;
                // Acknowledged history follows the damage.
                j.append(sql("INSERT INTO t VALUES (2)")).unwrap();
                let damaged = j.bytes();
                let delta = Spy::default();
                let got = j.checkpoint_delta("vfs.store", &delta);
                assert_eq!(got, Err(JournalError::Corrupted { offset: at }), "prefix {prefix}");
                assert!(!delta.0.get(), "no delta is written over a damaged log");
                assert_eq!(j.bytes(), damaged, "the log is left as it was");
            }
        }
    }

    /// Over 8 MiB of log on `shared`, flushed: SQL and file writes of
    /// many sizes in and out of transactions, and an image larger than
    /// the window every 40 records.
    fn eight_mib_log(shared: &Shared) -> Journal {
        let j = Journal::new(Box::new(shared.clone()), 16).unwrap();
        let mut i = 0usize;
        while j.len() < 8 << 20 {
            let txn = i.is_multiple_of(7).then(|| j.begin_txn().unwrap());
            if i % 40 == 39 {
                let payload = vec![i as u8; SCAN_WINDOW + 4321];
                let image = Record::SnapshotDelta { component: "vfs.store".into(), payload };
                j.append(image).unwrap();
            } else if i.is_multiple_of(3) {
                j.append(sql(&format!("INSERT INTO t VALUES ({i})"))).unwrap();
            } else {
                let data = vec![i as u8; i * 7919 % 150_000];
                let path = format!("/d/f{}", i % 9);
                j.append(Record::Vfs(VfsRecord::Write { path, data, owner: 1, mode: 3 })).unwrap();
            }
            if let Some(txn) = txn {
                if i.is_multiple_of(2) {
                    j.commit_txn(txn).unwrap();
                } else {
                    j.rollback_txn(txn).unwrap();
                }
            }
            i += 1;
        }
        j.flush().unwrap();
        j
    }

    #[test]
    fn a_checkpoint_reads_through_one_window() {
        let shared = Shared::default();
        let j = eight_mib_log(&shared);
        let before = j.bytes();
        let old = read_records(&before);
        let largest = old.frames.iter().map(|f| f.range.len()).max().unwrap();
        assert!(largest > SCAN_WINDOW);
        shared.reads.lock().clear();
        j.checkpoint_delta("vfs.store", &[9][..]).unwrap();
        let reads = shared.reads.lock().clone();
        let bound = SCAN_WINDOW.max(largest);
        assert!(reads.iter().all(|&(_, n)| n <= bound), "a read past {bound} B: {reads:?}");
        // The scan read the whole tail, each byte once, in order: the
        // reads until as many bytes as the log holds were read.
        let mut read = 0;
        let scan = reads.iter().take_while(|&&(_, n)| {
            read += n;
            read - n < before.len()
        });
        let (scanned, copied) = reads.split_at(scan.count());
        assert_eq!(merged(scanned), vec![0..before.len()], "the scan: {scanned:?}");
        // The copy read exactly the kept frames, each once, in pieces of
        // at most one window.
        assert!(copied.iter().all(|&(_, n)| n <= SCAN_WINDOW), "a copy read past the window");
        assert_eq!(merged(copied), kept_ranges(&before, 0));
        // And it kept what the redo filter keeps.
        let mut want: Vec<Record> = committed(&before)
            .into_iter()
            .filter(|r| matches!(r, Record::SnapshotDelta { .. } | Record::Sql { .. }))
            .collect();
        want.push(Record::SnapshotDelta { component: "vfs.store".into(), payload: vec![9] });
        assert_eq!(committed(&j.bytes()), want);
    }

    /// A delta of `len` bytes written in puts of uneven sizes, from one
    /// byte to several windows.
    struct Uneven(usize);

    impl Uneven {
        fn bytes(&self) -> Vec<u8> {
            (0..self.0).map(|i| (i * 31 % 251) as u8).collect()
        }
    }

    impl Delta for Uneven {
        fn encoded_len(&self) -> usize {
            self.0
        }

        fn write_to(&self, w: &mut dyn Put) {
            let bytes = self.bytes();
            let mut rest = &bytes[..];
            for n in [1, 3, 4096, 3 * SCAN_WINDOW + 17, 1, 5000].into_iter().cycle() {
                let (now, later) = rest.split_at(n.min(rest.len()));
                w.put_raw(now);
                rest = later;
                if rest.is_empty() {
                    break;
                }
            }
        }
    }

    #[test]
    fn a_checkpoint_writes_through_one_chunk() {
        // An 8 MiB tail and an 8 MiB delta: the storage sees the new tail
        // in pieces of at most one window, in order, and one patch — the
        // delta frame's 4 CRC bytes.
        let shared = Shared::default();
        let j = eight_mib_log(&shared);
        let before = j.bytes();
        let delta = Uneven((8 << 20) + 12_345);
        let kept: usize = kept_ranges(&before, 0).iter().map(|r| r.len()).sum();
        let want = buffered_checkpoint(&before, 0, state(&j).next_lsn, &delta.bytes());
        j.checkpoint_delta("vfs.store", &delta).unwrap();
        assert!(j.bytes() == want, "not the bytes a buffered checkpoint wrote");
        let writes = shared.writes.lock().clone();
        assert!(writes.iter().all(|&(_, n)| n <= SCAN_WINDOW), "a write past the window");
        let (mut end, mut patches) = (0, Vec::new());
        for &(at, n) in &writes {
            if at == end {
                end += n;
            } else {
                patches.push((at, n));
            }
        }
        let frame = LOG_PREAMBLE.len() + kept;
        assert_eq!(patches, vec![(frame + 13, 4)], "one patch: the delta's CRC");
        assert_eq!(end, j.len(), "the tail arrived in order");
        let after = read_records(&j.bytes());
        assert_eq!(after.tail, TailState::Clean);
        let last = after.records.last().map(|(_, r)| r);
        assert!(
            matches!(last, Some(Record::SnapshotDelta { payload, .. }) if *payload == delta.bytes())
        );
    }

    /// The log a checkpoint wrote when it built its new tail in one
    /// buffer: `old`'s first `keep` bytes, then the preamble (at `keep`
    /// 0), the frames past `keep` that take effect, and a `SnapshotDelta`
    /// of `delta` at `lsn`, framed by `put_frame`.
    fn buffered_checkpoint(old: &[u8], keep: usize, lsn: u64, delta: &[u8]) -> Vec<u8> {
        let mut w = ByteWriter::from_vec(old[..keep].to_vec());
        if keep == 0 {
            w.put_raw(&LOG_PREAMBLE);
        }
        for range in kept_ranges(old, keep) {
            w.put_raw(&old[range]);
        }
        let rec = Record::SnapshotDelta { component: "vfs.store".into(), payload: delta.to_vec() };
        put_frame(&mut w, lsn, |w| rec.encode_into(w));
        w.into_bytes()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::Config::with_cases(64))]

        /// Two checkpoints (a whole rewrite, then a splice past its
        /// prefix) over random SQL, file writes, unlinks and snapshots in
        /// and out of committed, rolled-back and open transactions write
        /// the same log, byte for byte, as the buffered checkpoint did.
        #[test]
        fn streamed_checkpoints_write_the_bytes_buffered_ones_did(
            steps in proptest::collection::vec((0u8..7, 0u16..u16::MAX), 1..40),
            deltas in (0usize..3000, 0usize..(2 * SCAN_WINDOW)),
        ) {
            let j = Journal::in_memory(4);
            let mut open = Vec::new();
            for (round, len) in [deltas.0, deltas.1].into_iter().enumerate() {
                for &(op, n) in &steps {
                    match op {
                        0 => j.append(sql(&format!("INSERT INTO t VALUES ({round}, {n})"))).map(drop),
                        1 => {
                            let data = vec![n as u8; n as usize % 5000];
                            let path = format!("/d/f{}", n % 5);
                            j.append(Record::Vfs(VfsRecord::Write { path, data, owner: 1, mode: 3 })).map(drop)
                        }
                        2 => {
                            let payload = vec![n as u8; n as usize % 3000];
                            j.append(Record::SnapshotDelta { component: "vfs.store".into(), payload }).map(drop)
                        }
                        3 => j.begin_txn().map(|t| open.push(t)),
                        4 => open.pop().map_or(Ok(()), |t| j.commit_txn(t)),
                        5 => open.pop().map_or(Ok(()), |t| j.rollback_txn(t)),
                        _ => j.append(rec(&format!("/d/f{}", n % 5))).map(drop),
                    }
                    .unwrap();
                }
                j.flush().unwrap();
                let delta: Vec<u8> = (0..len).map(|i| (i * 13 + round) as u8).collect();
                let (keep, lsn) = { let st = state(&j); (st.retained, st.next_lsn) };
                let want = buffered_checkpoint(&j.bytes(), keep, lsn, &delta);
                j.checkpoint_delta("vfs.store", &delta[..]).unwrap();
                proptest::prop_assert!(j.bytes() == want, "round {}", round);
            }
        }
    }

    #[test]
    fn a_kept_frame_that_reads_back_differently_fails_the_checkpoint() {
        // Pass one reads the tail clean; pass two's copy of a kept frame
        // reads it with a flipped byte. The checkpoint fails Corrupted at
        // that frame, and the old log stays the log.
        for keep in [false, true] {
            let shared = Shared::default();
            let j = Journal::new(Box::new(shared.clone()), 1).unwrap();
            j.append(sql("INSERT INTO t VALUES (1)")).unwrap();
            if keep {
                j.checkpoint_delta("vfs.store", &[1][..]).unwrap();
            }
            let at = j.len();
            j.append(sql("INSERT INTO t VALUES (2)")).unwrap();
            j.append(rec("/a")).unwrap();
            let before = j.bytes();
            shared.flip_rereads.store(true, std::sync::atomic::Ordering::SeqCst);
            // The flipped byte is the copy's last: INSERT 2's.
            let got = j.checkpoint_delta("vfs.store", &[2][..]);
            assert_eq!(got, Err(JournalError::Corrupted { offset: at }), "keep {keep}");
            assert_eq!(j.bytes(), before, "the log is left as it was");
            shared.flip_rereads.store(false, std::sync::atomic::Ordering::SeqCst);
            j.checkpoint_delta("vfs.store", &[2][..]).unwrap();
            assert_eq!(read_records(&j.bytes()).tail, TailState::Clean);
        }
    }

    #[test]
    fn a_flush_keeps_at_most_one_window_of_scratch() {
        let j = Journal::in_memory(1);
        let data = vec![7u8; 4 << 20];
        j.append(Record::Vfs(VfsRecord::Write { path: "/big".into(), data, owner: 1, mode: 3 }))
            .unwrap();
        assert!(j.len() > 4 << 20, "the 4 MiB record was flushed");
        let kept = state(&j).storage.lock().scratch.capacity();
        assert!(kept <= SCAN_WINDOW, "{kept} B of scratch kept past the flush");
        j.append(rec("/a")).unwrap();
        assert_eq!(read_records(&j.bytes()).records.len(), 2);
    }

    #[test]
    fn a_rewrite_with_transaction_markers_is_no_retained_prefix() {
        // A compaction handed a record a retained prefix may not hold: the
        // next checkpoint must read it all and, as a whole-log rewrite
        // would, drop the never-committed transaction with what it holds.
        // Kept as a prefix, that transaction would swallow the new delta.
        let j = Journal::in_memory(1);
        let records = [Record::TxnBegin { txn: 99 }, sql("A")];
        j.with_flushed(|st| st.compact(&records, "vfs.store", &[][..])).unwrap().unwrap();
        j.append(sql("B")).unwrap();
        j.checkpoint_delta("vfs.store", &[1][..]).unwrap();
        let recs = committed(&j.bytes());
        assert!(matches!(&recs[..], [Record::SnapshotDelta { payload, .. }] if payload == &[1]));
    }

    #[test]
    fn checkpoint_delta_retains_the_chain() {
        let j = Journal::in_memory(1);
        j.append(Record::SnapshotDelta { component: "vfs.store".into(), payload: vec![1] })
            .unwrap();
        j.append(rec("/a")).unwrap();
        j.checkpoint_delta("vfs.store", &[2][..]).unwrap();
        j.append(rec("/b")).unwrap();
        j.checkpoint_delta("vfs.store", &[3][..]).unwrap();
        let log = read_records(&j.bytes());
        let recs: Vec<&Record> = log.records.iter().map(|(_, r)| r).collect();
        // Chain order: oldest image first; the plain vfs records were
        // subsumed.
        assert_eq!(recs.len(), 3);
        assert!(matches!(recs[0], Record::SnapshotDelta { payload, .. } if payload == &vec![1]));
        assert!(matches!(recs[1], Record::SnapshotDelta { payload, .. } if payload == &vec![2]));
        assert!(matches!(recs[2], Record::SnapshotDelta { payload, .. } if payload == &vec![3]));
    }

    #[test]
    fn compaction_rewrites_history_and_keeps_lsns_rising() {
        let j = Journal::in_memory(1);
        for i in 0..10 {
            j.append(rec(&format!("/f{i}"))).unwrap();
            j.append(rec(&format!("/f{i}"))).unwrap();
        }
        let last = read_records(&j.bytes()).last_lsn();
        let flushes = j.stats().flushes;
        let records = [sql("CREATE TABLE t (x)")];
        j.with_flushed(|st| st.compact(&records, "vfs.store", &[7][..])).unwrap().unwrap();
        assert_eq!(j.stats().flushes, flushes + 1, "the whole rewrite is one storage call");
        let log = read_records(&j.bytes());
        assert_eq!(log.tail, TailState::Clean);
        assert_eq!(log.records.len(), 2, "the SQL and the image only: {:?}", log.records);
        assert_eq!(log.records[0].1, sql("CREATE TABLE t (x)"));
        assert!(
            matches!(&log.records[1].1, Record::SnapshotDelta { payload, .. } if payload == &[7])
        );
        assert!(log.records[0].0 > last, "new LSNs continue past the compacted history");
        assert!(log.records[1].0 > log.records[0].0);
        let retained = state(&j).retained;
        assert_eq!(retained, j.len(), "the compacted log is the next retained prefix");
        // A record appended after the rewrite follows it, its LSN still
        // rising.
        j.append(rec("/f0")).unwrap();
        let log = read_records(&j.bytes());
        assert_eq!(log.records.len(), 3, "{:?}", log.records);
        assert_eq!(log.records[2].1, rec("/f0"));
        assert!(log.records[2].0 > log.records[1].0);
    }

    #[test]
    fn a_compaction_writes_its_image_through_one_chunk() {
        // The SQL frames go out in one buffer; an 8 MiB image follows in
        // pieces of at most one window, in order, and one patch — its 4
        // CRC bytes — as a checkpoint's delta does.
        let shared = Shared::default();
        let j = eight_mib_log(&shared);
        let image = Uneven((8 << 20) + 12_345);
        let sql = [sql("CREATE TABLE t (x)"), sql("INSERT INTO t VALUES (1)")];
        let lsn = state(&j).next_lsn;
        shared.writes.lock().clear();
        j.with_flushed(|st| st.compact(&sql, "vfs.store", &image)).unwrap().unwrap();
        let mut w = ByteWriter::from_vec(LOG_PREAMBLE.to_vec());
        for (i, r) in sql.iter().enumerate() {
            put_frame(&mut w, lsn + i as u64, |w| r.encode_into(w));
        }
        let delta = Record::SnapshotDelta { component: "vfs.store".into(), payload: image.bytes() };
        let frame = w.len();
        put_frame(&mut w, lsn + 2, |w| delta.encode_into(w));
        assert!(j.bytes() == w.into_bytes(), "not the preamble, the SQL frames and the image");
        let writes = shared.writes.lock().clone();
        assert!(writes.iter().all(|&(_, n)| n <= SCAN_WINDOW), "a write past the window");
        let patches: Vec<_> = writes.iter().filter(|&&(at, _)| at == frame + 13).collect();
        assert_eq!(patches, vec![&(frame + 13, 4)], "one patch: the image's CRC");
        assert_eq!(writes.iter().map(|&(_, n)| n).sum::<usize>(), j.len() + 4);
    }

    #[test]
    fn handle_is_shared() {
        let h = Journal::in_memory(1);
        let h2 = h.clone();
        h.emit(rec("/a"));
        h2.emit(rec("/b"));
        assert_eq!(read_records(&h.bytes()).records.len(), 2);
    }

    /// In-memory storage whose appends take 1 ms, so a batch is still
    /// being written when the next commits arrive.
    struct Slow(MemStorage);

    impl Storage for Slow {
        fn append(&mut self, bytes: &[u8]) -> JournalResult<()> {
            std::thread::sleep(std::time::Duration::from_millis(1));
            self.0.append(bytes)
        }

        fn read_at(&mut self, offset: usize, buf: &mut [u8]) -> JournalResult<()> {
            self.0.read_at(offset, buf)
        }

        fn len(&self) -> usize {
            self.0.len()
        }

        fn replace_from(&mut self, keep: usize, len: usize, fill: Fill<'_>) -> JournalResult<()> {
            self.0.replace_from(keep, len, fill)
        }
    }

    #[test]
    fn concurrent_commits_share_leader_flushes_and_all_land() {
        // Four committers and a flusher on one journal. Frames, not a
        // replay, are checked: the redo filter does not yet tell
        // interleaved transactions apart.
        let j = Journal::new(Box::new(Slow(MemStorage::new())), DEFAULT_BATCH).unwrap();
        let done = std::sync::atomic::AtomicBool::new(false);
        let acked: Vec<(u64, Vec<String>)> = std::thread::scope(|s| {
            let flusher = s.spawn(|| {
                while !done.load(std::sync::atomic::Ordering::SeqCst) {
                    j.flush().unwrap();
                }
            });
            let committers: Vec<_> = (0..4)
                .map(|t| {
                    let j = j.clone();
                    s.spawn(move || {
                        let mut acked = Vec::new();
                        for i in 0..100 {
                            let txn = j.begin_txn().unwrap();
                            let texts: Vec<String> = (0..4)
                                .map(|k| format!("INSERT INTO t VALUES ({t}, {i}, {k})"))
                                .collect();
                            for text in &texts {
                                j.append(sql(text)).unwrap();
                            }
                            if j.commit_txn(txn).is_ok() {
                                acked.push((txn, texts));
                            }
                        }
                        acked
                    })
                })
                .collect();
            let acked = committers.into_iter().flat_map(|c| c.join().unwrap()).collect();
            done.store(true, std::sync::atomic::Ordering::SeqCst);
            flusher.join().unwrap();
            acked
        });
        assert_eq!(acked.len(), 400);
        let log = read_records(&j.bytes());
        assert_eq!(log.tail, TailState::Clean);
        assert!(log.records.windows(2).all(|w| w[0].0 < w[1].0), "frame LSNs strictly rise");
        let mut texts = std::collections::HashSet::new();
        let mut commits = std::collections::HashSet::new();
        for (_, r) in &log.records {
            match r {
                Record::Sql { sql, .. } => texts.insert(sql.as_str()),
                Record::TxnCommit { txn } => commits.insert(*txn),
                _ => false,
            };
        }
        for (txn, sql) in &acked {
            assert!(
                commits.contains(txn),
                "the commit of acknowledged txn {txn} is not in the log"
            );
            for text in sql {
                assert!(texts.contains(text.as_str()), "acknowledged {text:?} is not in the log");
            }
        }
        assert!(j.stats().group_follower_waits > 0, "no commit rode another's flush");
    }
}
