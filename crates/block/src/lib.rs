//! maxoid-block: pluggable block devices and a page cache, so state can
//! outgrow RAM.
//!
//! Everything above this crate works on byte ranges and inode payloads;
//! this crate is the storage tier underneath: a [`BlockDevice`] exposes
//! fixed-size sectors (read/write/flush/len), and a [`PageCache`] keeps a
//! bounded number of them resident with scan-resistant segmented-clock
//! eviction (probation + protected segments, promotion on re-reference),
//! dirty-page write-back, and an explicit flush barrier. A [`SpillTier`]
//! puts a cache and a sector allocator (free runs kept sorted and
//! coalesced) behind one mutex and hands out refcounted [`Extent`]s, and a
//! [`PartitionTable`] multiplexes several logical devices onto one image
//! for single-file cold boot.
//!
//! Two devices ship with the crate:
//!
//! * [`MemDevice`] — an in-memory sector array, the test and
//!   fault-injection workhorse;
//! * [`FileDevice`] — a real file addressed with positioned reads and
//!   writes, for runs whose working set must not live in process memory.
//!
//! The cache hands out **pinned page guards** ([`PageRef`]): a guard
//! borrows the cache, so the borrow checker itself guarantees the page
//! cannot be evicted or rewritten while the bytes are in use — the same
//! zero-copy discipline as sqldb's `RowScope`. Each frame carries a
//! generation stamp ([`PageToken`]) so a reader that dropped its guard can
//! later revalidate in O(1) instead of re-faulting.
//!
//! Consumers in the workspace: the VFS store spills large file payloads
//! (`maxoid-vfs`) and sqldb pages large tables' rows (`maxoid-sqldb`) to
//! extents of a spill tier, and the journal's `BlockStorage` keeps the WAL
//! on a device (`maxoid-journal`). Lock order: the spill tier's mutex is a
//! leaf (see [`SpillTier`]); the cache takes no locks of its own, so the
//! journal's storage mutex owns its cache.

mod alloc;
mod cache;
mod device;
mod fault;
mod part;
mod spill;

use alloc::ExtentAllocator;
pub use cache::{CacheStats, PageCache, PageRef, PageToken};
pub use device::{BlockDevice, FileDevice, MemDevice, SECTOR_SIZE};
pub use fault::{FaultDevice, ReadFaults};
pub use part::{PartitionHandle, PartitionTable, PART_HEAP, PART_VFS, PART_WAL};
pub use spill::{Extent, SpillTier};

/// Errors raised by devices and the page cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockError {
    /// An underlying I/O operation failed.
    Io(String),
    /// A buffer did not match the device's sector size.
    BadBufferLen {
        /// Expected sector size in bytes.
        expected: usize,
        /// Length actually supplied.
        got: usize,
    },
    /// The fault-injection device hit its write budget ("power loss").
    Crashed,
}

impl std::fmt::Display for BlockError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockError::Io(m) => write!(f, "block io error: {m}"),
            BlockError::BadBufferLen { expected, got } => {
                write!(f, "buffer is {got} bytes, device sector is {expected}")
            }
            BlockError::Crashed => write!(f, "block device crashed (fault injection)"),
        }
    }
}

impl std::error::Error for BlockError {}

/// Result alias for block operations.
pub type BlockResult<T> = Result<T, BlockError>;
