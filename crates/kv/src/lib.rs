//! A RocksDB-style LSM key-value store for the Deep Note reproduction.
//!
//! The paper's application victim is RocksDB running `db_bench` with the
//! `readwhilewriting` workload (§4.3); under a sustained acoustic attack
//! "the newly arrived key-value pairs written into the write-ahead log
//! (WAL) cannot be persisted into the drive, leading to a crash" with a
//! `sync_without_flush`-style failure (§4.4). This crate implements the
//! LSM machinery for those behaviours to emerge:
//!
//! * [`Memtable`] — an in-memory write buffer with tombstones, hash
//!   indexed and sorted on flush ([`memtable`]).
//! * [`Wal`] — a checksummed write-ahead log stored as files on the
//!   journaling filesystem, group-synced like RocksDB's group commit
//!   ([`wal`]).
//! * [`SsTable`] — immutable sorted runs, held in memory as their encoded
//!   file image once read, and merged by a k-way compaction ([`sstable`]).
//! * [`Db`] — open/recover, `put`/`get`/`delete`, memtable flush, L0→L1
//!   compaction, and crash semantics: when WAL persistence stays blocked
//!   past a patience budget the database dies with
//!   [`DbError::WalSyncFailed`] ([`db`]).
//! * the [mod@bench] module — `db_bench`-style workloads (`fillseq`,
//!   `readwhilewriting`) reporting MB/s and ops/s like Table 2.
//!
//! # Example
//!
//! ```
//! use deepnote_blockdev::MemDisk;
//! use deepnote_kv::Db;
//! use deepnote_sim::Clock;
//!
//! let clock = Clock::new();
//! let mut db = Db::create(MemDisk::new(1 << 17), clock)?;
//! db.put(b"key", b"value")?;
//! assert_eq!(db.get(b"key")?, Some(b"value".to_vec()));
//! db.delete(b"key")?;
//! assert_eq!(db.get(b"key")?, None);
//! # Ok::<(), deepnote_kv::DbError>(())
//! ```

pub mod batch;
pub mod bench;
pub mod db;
pub mod error;
mod index;
pub mod memtable;
pub mod record;
pub mod sstable;
pub mod wal;

pub use batch::WriteBatch;
pub use bench::{BenchReport, BenchSpec};
pub use db::{Db, DbConfig, DbStats};
pub use error::DbError;
pub use memtable::Memtable;
pub use record::Record;
pub use sstable::SsTable;
pub use wal::Wal;
