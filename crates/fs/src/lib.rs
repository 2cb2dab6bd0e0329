//! An Ext4-like journaling filesystem for the Deep Note reproduction.
//!
//! The paper's first application victim is Ext4: under a sustained
//! acoustic attack "Ext4 terminates its service with a Journal Block
//! Device (JBD) error in code −5, which occurs because the journal
//! superblock cannot be updated due to the blocked I/O" (§4.4). This crate
//! implements enough of an ext4-style filesystem for that failure mode —
//! and the recovery that follows a crash — to emerge mechanically:
//!
//! * 4 KiB filesystem blocks over the 512-byte block device.
//! * A [`Superblock`], inode/block bitmaps, an inode table, hierarchical
//!   directories ([`layout`], [`inode`], [`dir`], [`alloc`]).
//! * A write-ahead [`Journal`] in JBD style: descriptor block → metadata
//!   block images → commit block, then checkpoint to home locations and a
//!   journal-superblock update; mounting replays committed transactions
//!   ([`journal`]).
//! * **Ordered-mode** semantics: file data is written in place before the
//!   transaction that references it commits.
//! * **Abort on blocked I/O**: journal writes are retried against the
//!   device until a patience budget (default 75 virtual seconds, matching
//!   kernel-stack timeouts) is exhausted, then the journal aborts with
//!   errno −5 and the filesystem goes read-only — the paper's crash.
//!
//! # Example
//!
//! ```
//! use deepnote_blockdev::MemDisk;
//! use deepnote_fs::Filesystem;
//! use deepnote_sim::Clock;
//!
//! let clock = Clock::new();
//! let mut fs = Filesystem::format(MemDisk::new(1 << 16), clock)?;
//! fs.create("/var")?;
//! fs.create_file("/var/log")?;
//! fs.write_file("/var/log", 0, b"hello")?;
//! fs.commit()?;
//! assert_eq!(fs.read_file("/var/log", 0, 5)?, b"hello");
//! # Ok::<(), deepnote_fs::FsError>(())
//! ```

pub mod alloc;
pub mod dir;
pub mod error;
pub mod fs;
pub mod inode;
pub mod journal;
pub mod layout;

pub use error::FsError;
pub use fs::{Filesystem, FsState, FsStats};
pub use inode::{Inode, InodeKind};
pub use journal::Journal;
pub use layout::{Superblock, FS_BLOCK_SIZE};
