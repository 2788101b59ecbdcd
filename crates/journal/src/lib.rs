//! maxoid-journal: write-ahead logging, snapshots, and crash recovery for
//! the Maxoid substrate.
//!
//! Everything above this crate is in-memory; this crate is the durability
//! layer underneath it. `maxoid-vfs` emits physical store-mutation records,
//! `maxoid-sqldb` emits logical SQL records, and the two-phase `Vol(A)`
//! commit in `maxoid` core brackets both inside a single journal
//! transaction, so recovery after a crash at *any* record boundary (or a
//! torn tail) lands in either the all-committed or the all-volatile state
//! — never in between (invariant S2).
//!
//! Layout:
//!
//! * [`codec`] — little-endian byte writer/reader + CRC-32;
//! * [`record`] — typed records and their binary encoding;
//! * [`wal`] — frames, group commit, transactions, log rewrites,
//!   [`JournalSink`];
//! * [`replay`](mod@replay) — torn-tail-tolerant parsing, the redo
//!   filter, and the one replay that reads records back;
//! * [`fault`] — crash-point surgery and a byte-budget fault storage;
//! * [`blockstore`] — the log on a `maxoid-block` device behind a page
//!   cache, for logs that outgrow memory and cold boots from a file.

pub mod blockstore;
pub mod codec;
pub mod fault;
pub mod record;
pub mod replay;
pub mod wal;

pub use blockstore::BlockStorage;
pub use codec::{CodecError, Put};
pub use fault::{crash_prefix, flip_byte, record_boundaries, torn_log, FaultStorage};
pub use record::{ParamValue, Record, VfsRecord};
pub use replay::{read_records, replay, ReadLog, TailState, SCAN_WINDOW};
pub use wal::{
    Delta, Fill, Journal, JournalHandle, JournalSink, JournalStats, MemStorage, NullSink,
    Replacement, SinkRef, Storage, Tail, DEFAULT_BATCH, LOG_PREAMBLE,
};

/// Errors raised by journal operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The fault-injection storage hit its byte budget ("power loss").
    Crashed,
    /// Underlying storage failed.
    Io(String),
    /// The log could not be decoded.
    Codec(CodecError),
    /// The durable log is damaged at byte `offset` (a
    /// [`TailState::Corrupted`] read), so the operation left it as it was.
    Corrupted { offset: usize },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Crashed => write!(f, "journal storage crashed (fault injection)"),
            JournalError::Io(m) => write!(f, "journal io error: {m}"),
            JournalError::Codec(e) => write!(f, "journal codec error: {e}"),
            JournalError::Corrupted { offset } => {
                write!(f, "journal log corrupted at byte {offset}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<CodecError> for JournalError {
    fn from(e: CodecError) -> Self {
        JournalError::Codec(e)
    }
}

/// Result alias for journal operations.
pub type JournalResult<T> = Result<T, JournalError>;
