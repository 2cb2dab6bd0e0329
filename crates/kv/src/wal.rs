//! The write-ahead log.
//!
//! Mutations are appended to an in-memory group buffer and made durable by
//! [`Wal::sync`], which writes the buffered bytes to the WAL file and
//! forces a filesystem commit (fsync). Sync failures are retried until a
//! patience budget is exhausted; then the WAL reports
//! [`DbError::WalSyncFailed`] — the paper's RocksDB crash cause.

use crate::error::DbError;
use crate::record::Record;
use deepnote_blockdev::BlockDevice;
use deepnote_fs::{Filesystem, FsError};
use deepnote_sim::{Clock, SimDuration, SimTime};

/// The write-ahead log for one database.
#[derive(Debug, Clone)]
pub struct Wal {
    path: String,
    /// Bytes already durable in the file.
    synced_len: u64,
    /// Encoded records not yet durable.
    buffer: Vec<u8>,
    patience: SimDuration,
}

impl Wal {
    /// Opens (or adopts) the WAL at `path`; `existing_len` is the durable
    /// length discovered during recovery (0 for a fresh log).
    pub fn new(path: impl Into<String>, existing_len: u64, patience: SimDuration) -> Self {
        Wal {
            path: path.into(),
            synced_len: existing_len,
            buffer: Vec::new(),
            patience,
        }
    }

    /// Appends one record that is already encoded (no I/O).
    pub fn append_encoded(&mut self, encoded: &[u8]) {
        self.buffer.extend_from_slice(encoded);
    }

    /// Makes all buffered records durable: file write + filesystem commit,
    /// retried until the patience budget runs out.
    ///
    /// # Errors
    ///
    /// [`DbError::WalSyncFailed`] when persistence stays blocked past the
    /// patience budget, or when the filesystem journal has aborted.
    pub fn sync<D: BlockDevice>(
        &mut self,
        fs: &mut Filesystem<D>,
        clock: &Clock,
    ) -> Result<(), DbError> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let deadline = clock.now() + self.patience;
        // Phase 1: get the bytes into the file (ordered-mode data write).
        retry_until(clock, deadline, || {
            fs.write_file(&self.path, self.synced_len, &self.buffer)
        })?;
        // Phase 2: commit the metadata (fsync).
        retry_until(clock, deadline, || fs.commit())?;
        self.synced_len += self.buffer.len() as u64;
        self.buffer.clear();
        Ok(())
    }

    /// Resets the log after a successful memtable flush: the old records
    /// are superseded by the SSTable, so the file is recreated empty.
    ///
    /// # Errors
    ///
    /// Filesystem errors (fatal ones should crash the caller).
    pub fn reset<D: BlockDevice>(&mut self, fs: &mut Filesystem<D>) -> Result<(), DbError> {
        replace_file(fs, &self.path, &[])?;
        self.synced_len = 0;
        self.buffer.clear();
        Ok(())
    }

    /// Reads back all complete records in the durable log (recovery).
    /// Decoding stops cleanly at the first torn/corrupt record, like
    /// RocksDB's WAL reader.
    ///
    /// # Errors
    ///
    /// Filesystem errors while reading.
    pub fn load<D: BlockDevice>(
        path: &str,
        fs: &mut Filesystem<D>,
    ) -> Result<(Vec<Record>, u64), DbError> {
        let size = fs.stat(path)?.size;
        let raw = fs.read_file(path, 0, size as usize)?;
        let mut records = Vec::new();
        let mut offset = 0usize;
        while offset < raw.len() {
            match Record::decode_from(&raw[offset..]) {
                Ok((rec, used)) => {
                    records.push(rec);
                    offset += used;
                }
                Err(_) => break, // torn tail: stop replay here
            }
        }
        Ok((records, offset as u64))
    }
}

/// Runs `op` until it succeeds, retrying failures until `deadline`; an
/// aborted journal, or a failure past the deadline, is the WAL failure.
fn retry_until(
    clock: &Clock,
    deadline: SimTime,
    mut op: impl FnMut() -> Result<(), FsError>,
) -> Result<(), DbError> {
    loop {
        let before = clock.now();
        match op() {
            Ok(()) => return Ok(()),
            Err(FsError::JournalAborted { .. }) => return Err(DbError::WalSyncFailed),
            Err(_) if clock.now() < deadline => {
                // If the device failed without burning time (ideal
                // device + injected fault), model the requeue delay.
                if clock.now() == before {
                    clock.advance(SimDuration::from_millis(10));
                }
            }
            Err(_) => return Err(DbError::WalSyncFailed),
        }
    }
}

/// Replaces the file at `path` with a new one holding `bytes`.
pub(crate) fn replace_file<D: BlockDevice>(
    fs: &mut Filesystem<D>,
    path: &str,
    bytes: &[u8],
) -> Result<(), DbError> {
    if fs.exists(path) {
        fs.unlink(path)?;
    }
    fs.create_file(path)?;
    if !bytes.is_empty() {
        fs.write_file(path, 0, bytes)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepnote_blockdev::{ChaosInjector, ChaosPlan, IoError, MemDisk};
    use deepnote_sim::SimRng;

    fn fs_with_wal() -> (Filesystem<MemDisk>, Wal, Clock) {
        let clock = Clock::new();
        let mut fs = Filesystem::format(MemDisk::new(1 << 17), clock.clone()).unwrap();
        fs.create("/db").unwrap();
        fs.create_file("/db/wal").unwrap();
        (
            fs,
            Wal::new("/db/wal", 0, SimDuration::from_secs(81)),
            clock,
        )
    }

    fn append(wal: &mut Wal, rec: &Record) {
        let mut encoded = Vec::new();
        rec.encode_into(&mut encoded).unwrap();
        wal.append_encoded(&encoded);
    }

    #[test]
    fn append_sync_load_roundtrip() {
        let (mut fs, mut wal, clock) = fs_with_wal();
        append(&mut wal, &Record::put("k1", "v1"));
        append(&mut wal, &Record::delete("k2"));
        assert_eq!(wal.synced_len, 0);
        wal.sync(&mut fs, &clock).unwrap();
        assert!(wal.synced_len > 0);
        let (records, len) = Wal::load("/db/wal", &mut fs).unwrap();
        assert_eq!(records, vec![Record::put("k1", "v1"), Record::delete("k2")]);
        assert_eq!(len, wal.synced_len);
    }

    #[test]
    fn sync_of_empty_buffer_is_noop() {
        let (mut fs, mut wal, clock) = fs_with_wal();
        let t0 = clock.now();
        wal.sync(&mut fs, &clock).unwrap();
        assert_eq!(clock.now(), t0);
    }

    #[test]
    fn reset_truncates() {
        let (mut fs, mut wal, clock) = fs_with_wal();
        append(&mut wal, &Record::put("k", "v"));
        wal.sync(&mut fs, &clock).unwrap();
        wal.reset(&mut fs).unwrap();
        assert_eq!(wal.synced_len, 0);
        let (records, _) = Wal::load("/db/wal", &mut fs).unwrap();
        assert!(records.is_empty());
    }

    #[test]
    fn torn_tail_is_ignored_on_load() {
        let (mut fs, mut wal, clock) = fs_with_wal();
        append(&mut wal, &Record::put("good", "record"));
        wal.sync(&mut fs, &clock).unwrap();
        // Simulate a torn append: garbage bytes after the good record.
        fs.write_file("/db/wal", wal.synced_len, &[0xFF, 0x00, 0x13])
            .unwrap();
        let (records, len) = Wal::load("/db/wal", &mut fs).unwrap();
        assert_eq!(records, vec![Record::put("good", "record")]);
        assert_eq!(len, wal.synced_len);
    }

    #[test]
    fn blocked_sync_crashes_after_patience() {
        let clock = Clock::new();
        let mut fs = Filesystem::format_with_patience(
            ChaosInjector::new(MemDisk::new(1 << 17), ChaosPlan::quiet(), SimRng::seeded(0)),
            clock.clone(),
            SimDuration::from_secs(81),
        )
        .unwrap();
        fs.create("/db").unwrap();
        fs.create_file("/db/wal").unwrap();
        let mut wal = Wal::new("/db/wal", 0, SimDuration::from_secs(81));
        append(&mut wal, &Record::put("k", "v"));
        fs.device_mut()
            .set_plan(ChaosPlan::fail_writes(IoError::NoResponse));
        let t0 = clock.now();
        assert_eq!(wal.sync(&mut fs, &clock), Err(DbError::WalSyncFailed));
        let waited = (clock.now() - t0).as_secs_f64();
        assert!((80.0..85.0).contains(&waited), "waited {waited}");
    }
}
