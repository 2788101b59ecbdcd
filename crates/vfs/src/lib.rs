//! In-memory virtual file system substrate for the Maxoid reproduction.
//!
//! This crate plays the role of the Linux storage stack in the paper's
//! prototype: a backing store ("the flash device"), an Aufs-style union
//! filesystem with copy-up and whiteouts, per-process mount namespaces, and
//! a permission-checked syscall facade.
//!
//! Layering, bottom to top:
//!
//! 1. [`store::Store`] — raw inode tree, no policy.
//! 2. [`union::Union`] — Aufs semantics over store directories.
//! 3. [`mount::MountNamespace`] — per-process view selection.
//! 4. [`fs::Vfs`] — UID-checked operations, the only layer apps touch.
//!
//! # Examples
//!
//! ```
//! use maxoid_vfs::{vpath, Cred, Mode, Mount, MountNamespace, Uid, Vfs};
//!
//! let vfs = Vfs::new();
//! vfs.with_store(|s| s.mkdir_all(&vpath("/back/pub"), Uid::ROOT, Mode::PUBLIC))
//!     .unwrap();
//! let mut ns = MountNamespace::new();
//! ns.add(Mount::bind(vpath("/sdcard"), vpath("/back/pub")));
//! let app = Cred::new(Uid(10_001));
//! vfs.write(app, &ns, &vpath("/sdcard/hello.txt"), b"hi", Mode::PUBLIC).unwrap();
//! assert_eq!(vfs.read(app, &ns, &vpath("/sdcard/hello.txt")).unwrap(), b"hi");
//! ```

#![warn(missing_docs)]

pub mod cred;
pub mod error;
pub mod fs;
pub mod mount;
pub mod path;
pub mod store;
pub mod union;

pub use cred::{Cred, Mode, Uid};
pub use error::{VfsError, VfsResult};
pub use fs::{FileHandle, OpenMode, Vfs};
pub use mount::{Mount, MountKind, MountNamespace};
pub use path::{vpath, VPath};
pub use store::{
    shard_of, shard_of_path, DirEntry, DirtyImage, InodeId, Metadata, Store, StoreStats,
    DEFAULT_SPILL_THRESHOLD, STORE_SHARDS, VIS_SHARDS,
};
pub use union::{Branch, CopyUpGranularity, Located, Union, APPEND_DELTA_PREFIX, WHITEOUT_PREFIX};
