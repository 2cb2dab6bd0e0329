//! The database: open/recover, reads, writes, flush, and compaction.

use crate::error::DbError;
use crate::index::HashedKey;
use crate::memtable::Memtable;
use crate::record::{check_len, Record, RecordRef};
use crate::sstable::{compact, SsTable};
use crate::wal::Wal;
use deepnote_blockdev::BlockDevice;
use deepnote_fs::{Filesystem, FsError};
use deepnote_sim::{Clock, SimDuration};
use deepnote_telemetry::{Layer, Tracer, Value};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// An owned key-value pair, as returned by [`Db::scan`].
pub type KvPair = (Vec<u8>, Vec<u8>);

const DB_DIR: &str = "/db";
const WAL_PATH: &str = "/db/wal";
const MANIFEST_PATH: &str = "/db/MANIFEST";

/// Compaction into L1 starts once L0 holds more tables than this.
const L0_COMPACTION_TRIGGER: usize = 4;
/// CPU cost charged per public operation (the in-memory work).
const CPU_OP_COST: SimDuration = SimDuration::from_micros(8);

/// Database tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DbConfig {
    /// Memtable flush threshold in bytes.
    pub memtable_limit_bytes: usize,
    /// Group-commit size: WAL is synced every this many mutations.
    pub wal_sync_every_ops: u64,
    /// How long WAL persistence may stay blocked before the store dies
    /// with [`DbError::WalSyncFailed`]. Calibrated to the paper's
    /// Table 3 (RocksDB crashes ≈ 81 s into the attack).
    pub wal_patience: SimDuration,
}

impl Default for DbConfig {
    fn default() -> Self {
        DbConfig {
            memtable_limit_bytes: 256 << 10,
            // db_bench runs with sync=0: the WAL is written but only
            // group-synced occasionally, so syncs amortize over many ops.
            wal_sync_every_ops: 1024,
            wal_patience: SimDuration::from_secs(81),
        }
    }
}

/// Operation counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DbStats {
    /// Puts applied.
    pub puts: u64,
    /// Gets served.
    pub gets: u64,
    /// Deletes applied.
    pub deletes: u64,
    /// Memtable flushes.
    pub flushes: u64,
    /// L0→L1 compactions.
    pub compactions: u64,
    /// WAL group syncs.
    pub wal_syncs: u64,
    /// Payload bytes accepted from the application (keys + values).
    pub user_bytes: u64,
    /// Bytes written to SSTables by memtable flushes.
    pub flush_bytes: u64,
    /// Bytes rewritten by compactions.
    pub compaction_bytes: u64,
}

impl DbStats {
    /// Write amplification: bytes the storage engine wrote (flushes +
    /// compactions; the WAL roughly doubles it again) per byte the
    /// application handed in. `None` before any user writes.
    pub fn write_amplification(&self) -> Option<f64> {
        (self.user_bytes > 0).then(|| {
            (self.user_bytes + self.flush_bytes + self.compaction_bytes) as f64
                / self.user_bytes as f64
        })
    }
}

/// One SSTable of a level: its file, and its contents once faulted in.
#[derive(Debug, Clone)]
struct TableSlot {
    path: String,
    table: Option<SsTable>,
}

impl TableSlot {
    /// A table known from the manifest, not yet read.
    fn on_disk(path: String) -> Self {
        TableSlot { path, table: None }
    }

    /// A table this process just wrote.
    fn loaded(table: SsTable) -> Self {
        TableSlot {
            path: table.path().to_string(),
            table: Some(table),
        }
    }

    /// The table, read from `fs` on first access.
    fn load<D: BlockDevice>(&mut self, fs: &mut Filesystem<D>) -> Result<&SsTable, DbError> {
        match &mut self.table {
            Some(table) => Ok(table),
            absent => Ok(absent.insert(SsTable::load(fs, self.path.as_str())?)),
        }
    }
}

/// A RocksDB-style LSM store on the journaling filesystem.
///
/// See the crate docs for an example.
#[derive(Debug)]
pub struct Db<D: BlockDevice> {
    fs: Filesystem<D>,
    clock: Clock,
    config: DbConfig,
    memtable: Memtable,
    wal: Wal,
    /// L0 tables, oldest first (lookup scans newest first).
    level0: Vec<TableSlot>,
    /// L1 tables, sorted by key range, non-overlapping.
    level1: Vec<TableSlot>,
    next_file_no: u64,
    ops_since_sync: u64,
    crashed: bool,
    stats: DbStats,
    tracer: Tracer,
}

impl<D: BlockDevice> Db<D> {
    /// Formats `dev` with a fresh filesystem and creates an empty store.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn create(dev: D, clock: Clock) -> Result<Self, DbError> {
        Self::create_with(dev, clock, DbConfig::default())
    }

    /// Creates with an explicit configuration.
    ///
    /// # Errors
    ///
    /// Filesystem errors.
    pub fn create_with(dev: D, clock: Clock, config: DbConfig) -> Result<Self, DbError> {
        // The store's availability is bounded by how long its WAL can
        // stay unpersisted, so the filesystem journal inherits the WAL
        // patience budget.
        let mut fs = Filesystem::format_with_patience(dev, clock.clone(), config.wal_patience)?;
        fs.create(DB_DIR)?;
        fs.create_file(WAL_PATH)?;
        fs.create_file(MANIFEST_PATH)?;
        fs.commit()?;
        let mut db = Db {
            fs,
            clock,
            config,
            memtable: Memtable::new(),
            wal: Wal::new(WAL_PATH, 0, config.wal_patience),
            level0: Vec::new(),
            level1: Vec::new(),
            next_file_no: 1,
            ops_since_sync: 0,
            crashed: false,
            stats: DbStats::default(),
            tracer: Tracer::disabled(),
        };
        db.write_manifest()?;
        Ok(db)
    }

    /// Opens an existing store, replaying the filesystem journal and the
    /// WAL.
    ///
    /// # Errors
    ///
    /// [`DbError::Corruption`] for a damaged manifest; filesystem errors.
    pub fn open(dev: D, clock: Clock) -> Result<Self, DbError> {
        Self::open_with(dev, clock, DbConfig::default())
    }

    /// Opens with an explicit configuration.
    ///
    /// # Errors
    ///
    /// As for [`Db::open`].
    pub fn open_with(dev: D, clock: Clock, config: DbConfig) -> Result<Self, DbError> {
        let (mut fs, _replayed) =
            Filesystem::mount_with_patience(dev, clock.clone(), config.wal_patience)?;
        let (level0, level1, next_file_no) = Self::read_manifest(&mut fs)?;
        let (records, durable_len) = Wal::load(WAL_PATH, &mut fs)?;
        let mut memtable = Memtable::new();
        for rec in records {
            memtable.apply(rec);
        }
        Ok(Db {
            fs,
            clock,
            config,
            memtable,
            wal: Wal::new(WAL_PATH, durable_len, config.wal_patience),
            level0: level0.into_iter().map(TableSlot::on_disk).collect(),
            level1: level1.into_iter().map(TableSlot::on_disk).collect(),
            next_file_no,
            ops_since_sync: 0,
            crashed: false,
            stats: DbStats::default(),
            tracer: Tracer::disabled(),
        })
    }

    /// A copy of this store over `dev` (a copy of this store's device)
    /// on `clock`: filesystem, memtable, WAL, levels and counters carry
    /// over; the tracer starts disabled. Used to commission many nodes
    /// from one formatted image.
    pub fn replica(&self, dev: D, clock: Clock) -> Self {
        Db {
            fs: self.fs.replica(dev, clock.clone()),
            clock,
            config: self.config,
            memtable: self.memtable.clone(),
            wal: self.wal.clone(),
            level0: self.level0.clone(),
            level1: self.level1.clone(),
            next_file_no: self.next_file_no,
            ops_since_sync: self.ops_since_sync,
            crashed: self.crashed,
            stats: self.stats,
            tracer: Tracer::disabled(),
        }
    }

    /// Whether the store has died (WAL persistence failure).
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Operation counters.
    pub fn stats(&self) -> DbStats {
        self.stats
    }

    /// The configuration in effect.
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// The clock the store runs on.
    pub fn clock(&self) -> &Clock {
        &self.clock
    }

    /// Attaches a tracer to the store and its filesystem; WAL syncs,
    /// memtable flushes, and compactions become kv-layer spans on the
    /// tracer's track, journal commits fs-layer spans.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.fs.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// One background-work span on this store's clock.
    fn trace_span(&self, name: &'static str, t0: deepnote_sim::SimTime, ok: bool, bytes: u64) {
        if !self.tracer.is_enabled() {
            return;
        }
        self.tracer.span(
            Layer::Kv,
            name,
            t0,
            self.clock.now().saturating_duration_since(t0),
            vec![
                ("outcome", Value::Str(if ok { "ok" } else { "error" })),
                ("bytes", Value::U64(bytes)),
            ],
        );
    }

    /// The underlying filesystem (diagnostics, device counters).
    pub fn filesystem(&self) -> &Filesystem<D> {
        &self.fs
    }

    /// The underlying filesystem (attack wiring, diagnostics).
    pub fn filesystem_mut(&mut self) -> &mut Filesystem<D> {
        &mut self.fs
    }

    fn check_alive(&self) -> Result<(), DbError> {
        if self.crashed {
            Err(DbError::Closed)
        } else {
            Ok(())
        }
    }

    fn fatal<T>(&mut self, e: DbError) -> Result<T, DbError> {
        if e.is_fatal() {
            self.crashed = true;
        }
        Err(e)
    }

    /// Fails background work (flush, compaction, journal commit): an I/O
    /// error there is the WAL failure RocksDB reports, and any fatal
    /// error crashes the store.
    fn background_failure<T>(&mut self, e: DbError) -> Result<T, DbError> {
        self.fatal(match e {
            DbError::Fs(FsError::Io(_)) => DbError::WalSyncFailed,
            e => e,
        })
    }

    // ----- manifest ----------------------------------------------------

    fn write_manifest(&mut self) -> Result<(), DbError> {
        let mut text = String::new();
        for slot in &self.level0 {
            text.push_str(&format!("0 {}\n", slot.path));
        }
        for slot in &self.level1 {
            text.push_str(&format!("1 {}\n", slot.path));
        }
        text.push_str(&format!("next {}\n", self.next_file_no));
        crate::wal::replace_file(&mut self.fs, MANIFEST_PATH, text.as_bytes())
    }

    fn read_manifest(fs: &mut Filesystem<D>) -> Result<(Vec<String>, Vec<String>, u64), DbError> {
        let size = fs.stat(MANIFEST_PATH)?.size;
        let raw = fs.read_file(MANIFEST_PATH, 0, size as usize)?;
        let text = String::from_utf8(raw).map_err(|_| DbError::Corruption {
            what: "manifest is not UTF-8".into(),
        })?;
        let mut level0 = Vec::new();
        let mut level1 = Vec::new();
        let mut next = 1;
        for line in text.lines() {
            let mut parts = line.split_whitespace();
            match (parts.next(), parts.next()) {
                (Some("0"), Some(p)) => level0.push(p.to_string()),
                (Some("1"), Some(p)) => level1.push(p.to_string()),
                (Some("next"), Some(n)) => {
                    next = n.parse().map_err(|_| DbError::Corruption {
                        what: "bad manifest next-file number".into(),
                    })?;
                }
                (None, _) => {}
                _ => {
                    return Err(DbError::Corruption {
                        what: format!("bad manifest line: {line}"),
                    })
                }
            }
        }
        Ok((level0, level1, next))
    }

    // ----- public API ---------------------------------------------------

    /// Inserts or overwrites a key.
    ///
    /// # Errors
    ///
    /// [`DbError::WalSyncFailed`] (fatal) when the WAL cannot be
    /// persisted; [`DbError::Closed`] after a crash; size/space errors.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), DbError> {
        self.mutate(key, Some(value))?;
        self.stats.puts += 1;
        Ok(())
    }

    /// Deletes a key (writes a tombstone).
    ///
    /// # Errors
    ///
    /// As for [`Db::put`].
    pub fn delete(&mut self, key: &[u8]) -> Result<(), DbError> {
        self.mutate(key, None)?;
        self.stats.deletes += 1;
        Ok(())
    }

    /// Applies a [`WriteBatch`](crate::WriteBatch) atomically: all
    /// records enter the WAL as one group, so a crash preserves either
    /// the whole batch or none of it.
    ///
    /// # Errors
    ///
    /// As for [`Db::put`].
    pub fn write(&mut self, batch: crate::WriteBatch) -> Result<(), DbError> {
        self.check_alive()?;
        if batch.is_empty() {
            return Ok(());
        }
        self.clock.advance(CPU_OP_COST);
        let records = batch.into_records();
        // The whole batch is checked before any record reaches the WAL
        // buffer or the memtable: a refused batch leaves no trace.
        for rec in &records {
            check_len(&rec.key, rec.value.as_deref())?;
        }
        let encoded: usize = records.iter().map(Record::encoded_len).sum();
        if !self.memtable.has_room(encoded) {
            return Err(DbError::TooLarge);
        }
        for rec in &records {
            self.wal
                .append_encoded(self.memtable.insert(&rec.key, rec.value.as_deref())?);
            self.stats.user_bytes += rec.payload_len() as u64;
            match rec.value {
                Some(_) => self.stats.puts += 1,
                None => self.stats.deletes += 1,
            }
        }
        self.after_mutations(records.len() as u64)
    }

    /// Returns all live key-value pairs with `start <= key < end`, in
    /// ascending key order, merged across the memtable and every level
    /// (newest version wins, tombstones excluded).
    ///
    /// # Errors
    ///
    /// [`DbError::Closed`] after a crash; I/O errors faulting tables in.
    pub fn scan(&mut self, start: &[u8], end: &[u8]) -> Result<Vec<KvPair>, DbError> {
        self.check_alive()?;
        self.clock.advance(CPU_OP_COST);
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        // Oldest first so newer versions overwrite: L1, then L0 in age
        // order, then the memtable.
        for slot in self.level1.iter_mut().chain(&mut self.level0) {
            let in_range = |r: &RecordRef<'_>| r.key >= start && r.key < end;
            for rec in slot.load(&mut self.fs)?.iter().filter(in_range) {
                merged.insert(rec.key.to_vec(), rec.value.map(<[u8]>::to_vec));
            }
        }
        for (key, value) in self.memtable.range(start, end) {
            merged.insert(key.to_vec(), value.map(<[u8]>::to_vec));
        }
        Ok(merged
            .into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .collect())
    }

    fn mutate(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<(), DbError> {
        self.check_alive()?;
        self.clock.advance(CPU_OP_COST);
        self.wal.append_encoded(self.memtable.insert(key, value)?);
        self.stats.user_bytes += (key.len() + value.map_or(0, <[u8]>::len)) as u64;
        self.after_mutations(1)
    }

    /// Counts `ops` accepted mutations toward the WAL group commit, then
    /// syncs the WAL and flushes the memtable when they are due.
    fn after_mutations(&mut self, ops: u64) -> Result<(), DbError> {
        self.ops_since_sync += ops;
        if self.ops_since_sync >= self.config.wal_sync_every_ops {
            self.sync_wal()?;
        }
        if self.memtable.approx_bytes() >= self.config.memtable_limit_bytes {
            self.flush()?;
        }
        Ok(())
    }

    /// Forces the WAL group buffer to disk.
    ///
    /// # Errors
    ///
    /// [`DbError::WalSyncFailed`] (fatal) past the patience budget.
    pub fn sync_wal(&mut self) -> Result<(), DbError> {
        self.check_alive()?;
        let t0 = self.clock.now();
        match self.wal.sync(&mut self.fs, &self.clock) {
            Ok(()) => {
                self.ops_since_sync = 0;
                self.stats.wal_syncs += 1;
                self.trace_span("wal_sync", t0, true, 0);
                Ok(())
            }
            Err(e) => {
                self.trace_span("wal_sync", t0, false, 0);
                self.fatal(e)
            }
        }
    }

    /// Reads a key. The value is borrowed from the memtable or the
    /// table that holds it; a caller that keeps it copies it.
    ///
    /// # Errors
    ///
    /// [`DbError::Closed`] after a crash; I/O or corruption errors while
    /// faulting in an SSTable.
    pub fn get(&mut self, key: &[u8]) -> Result<Option<&[u8]>, DbError> {
        self.check_alive()?;
        self.clock.advance(CPU_OP_COST);
        self.stats.gets += 1;
        // One hash serves every index the key is looked up in.
        let hashed = HashedKey::new(key);
        if let Some(hit) = self.memtable.get(hashed) {
            return Ok(hit);
        }
        // Tables fault in lazily, newest L0 first, then L1 in key order
        // up to the first table that holds the key. On a reopened store
        // that order decides which device reads happen, and when.
        for slot in self.level0.iter_mut().rev() {
            if let Some(hit) = slot.load(&mut self.fs)?.get(hashed) {
                return Ok(hit);
            }
        }
        for slot in &mut self.level1 {
            let t = slot.load(&mut self.fs)?;
            if t.min_key().is_some_and(|mk| key >= mk) && t.max_key().is_some_and(|mk| key <= mk) {
                if let Some(hit) = t.get(hashed) {
                    return Ok(hit);
                }
            }
        }
        Ok(None)
    }

    /// Flushes the memtable to a new L0 SSTable, resets the WAL, and
    /// compacts if L0 is full.
    ///
    /// # Errors
    ///
    /// Fatal WAL/flush persistence failures crash the store.
    pub fn flush(&mut self) -> Result<(), DbError> {
        self.check_alive()?;
        if self.memtable.is_empty() {
            return Ok(());
        }
        self.sync_wal()?;
        let t0 = self.clock.now();
        let table = self.memtable.drain_sorted();
        let flush_bytes = table.encoded_len() as u64;
        self.stats.flush_bytes += flush_bytes;
        let path = format!("{DB_DIR}/sst_0_{}", self.next_file_no);
        self.next_file_no += 1;
        let result: Result<(), DbError> = (|| {
            let table = table.finish(path);
            table.write(&mut self.fs)?;
            self.level0.push(TableSlot::loaded(table));
            self.write_manifest()?;
            self.fs.commit().map_err(DbError::from)?;
            self.wal.reset(&mut self.fs)?;
            Ok(())
        })();
        self.trace_span("memtable_flush", t0, result.is_ok(), flush_bytes);
        match result {
            Ok(()) => {
                self.stats.flushes += 1;
                if self.level0.len() > L0_COMPACTION_TRIGGER {
                    self.compact()?;
                }
                Ok(())
            }
            // Background flush failure is a hard error in RocksDB too.
            Err(e) => self.background_failure(e),
        }
    }

    /// Merges all of L0 and L1 into a fresh, non-overlapping L1.
    ///
    /// # Errors
    ///
    /// As for [`Db::flush`].
    pub fn compact(&mut self) -> Result<(), DbError> {
        self.check_alive()?;
        let t0 = self.clock.now();
        // Fault in every input, L0 newest→oldest then L1, and merge them
        // as runs newest-first: each L0 table is a run, L1 is one run.
        let mut runs: Vec<Vec<&SsTable>> = Vec::new();
        for slot in self.level0.iter_mut().rev() {
            runs.push(vec![slot.load(&mut self.fs)?]);
        }
        let mut bottom = Vec::new();
        for slot in &mut self.level1 {
            bottom.push(slot.load(&mut self.fs)?);
        }
        runs.push(bottom);
        // L1 is the bottom level: tombstones are dropped.
        let files = compact(&runs);
        let compaction_bytes = files.iter().map(|f| f.encoded_len() as u64).sum::<u64>();
        self.stats.compaction_bytes += compaction_bytes;

        let old: Vec<TableSlot> = self.level0.drain(..).chain(self.level1.drain(..)).collect();
        let result: Result<(), DbError> = (|| {
            for file in files {
                let table = file.finish(format!("{DB_DIR}/sst_1_{}", self.next_file_no));
                self.next_file_no += 1;
                table.write(&mut self.fs)?;
                self.level1.push(TableSlot::loaded(table));
            }
            self.write_manifest()?;
            self.fs.commit().map_err(DbError::from)?;
            for slot in &old {
                self.fs.unlink(&slot.path)?;
            }
            Ok(())
        })();
        self.trace_span("compaction", t0, result.is_ok(), compaction_bytes);
        match result {
            Ok(()) => {
                self.stats.compactions += 1;
                Ok(())
            }
            Err(e) => self.background_failure(e),
        }
    }

    /// Drives periodic background work (filesystem journal commits).
    ///
    /// # Errors
    ///
    /// Fatal filesystem errors crash the store.
    pub fn tick(&mut self) -> Result<(), DbError> {
        self.check_alive()?;
        match self.fs.tick(self.clock.now()) {
            Ok(()) => Ok(()),
            Err(e) => self.background_failure(e.into()),
        }
    }

    /// Gracefully shuts down: flush + unmount, returning the device.
    ///
    /// # Errors
    ///
    /// Anything the final flush/unmount hits.
    pub fn close(mut self) -> Result<D, DbError> {
        self.flush()?;
        self.sync_wal()?;
        Ok(self.fs.unmount()?)
    }

    /// Returns the device without any I/O, as a process crash leaves it:
    /// unsynced WAL bytes and the memtable are lost, and the next open
    /// recovers from what reached the platters. Unlike [`Db::close`],
    /// this cannot fail.
    pub fn into_device(self) -> D {
        self.fs.into_device()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepnote_blockdev::{ChaosInjector, ChaosPlan, IoError, MemDisk};
    use deepnote_sim::SimRng;

    fn small_config() -> DbConfig {
        DbConfig {
            memtable_limit_bytes: 4 << 10,
            wal_sync_every_ops: 8,
            ..DbConfig::default()
        }
    }

    fn key(i: u32) -> Vec<u8> {
        format!("key{i:08}").into_bytes()
    }

    fn val(i: u32) -> Vec<u8> {
        format!("value-{i:08}").into_bytes()
    }

    #[test]
    fn put_get_delete_roundtrip() {
        let mut db = Db::create(MemDisk::new(1 << 17), Clock::new()).unwrap();
        db.put(b"k", b"v").unwrap();
        assert_eq!(db.get(b"k").unwrap(), Some(&b"v"[..]));
        db.delete(b"k").unwrap();
        assert_eq!(db.get(b"k").unwrap(), None);
        assert_eq!(db.get(b"absent").unwrap(), None);
        let s = db.stats();
        assert_eq!((s.puts, s.deletes, s.gets), (1, 1, 3));
    }

    #[test]
    fn flush_and_compaction_preserve_data() {
        let mut db = Db::create_with(MemDisk::new(1 << 18), Clock::new(), small_config()).unwrap();
        for i in 0..1_000 {
            db.put(&key(i), &val(i)).unwrap();
        }
        assert!(db.stats().flushes > 0, "{:?}", db.stats());
        assert!(db.stats().compactions > 0, "{:?}", db.stats());
        for i in (0..1_000).step_by(97) {
            assert_eq!(db.get(&key(i)).unwrap(), Some(&val(i)[..]), "key {i}");
        }
    }

    #[test]
    fn overwrites_and_deletes_survive_compaction() {
        let mut db = Db::create_with(MemDisk::new(1 << 18), Clock::new(), small_config()).unwrap();
        for i in 0..300 {
            db.put(&key(i), &val(i)).unwrap();
        }
        for i in 0..300 {
            if i % 3 == 0 {
                db.delete(&key(i)).unwrap();
            } else if i % 3 == 1 {
                db.put(&key(i), b"updated").unwrap();
            }
        }
        db.flush().unwrap();
        db.compact().unwrap();
        for i in 0..300 {
            let got = db.get(&key(i)).unwrap();
            match i % 3 {
                0 => assert_eq!(got, None, "key {i}"),
                1 => assert_eq!(got, Some(&b"updated"[..]), "key {i}"),
                _ => assert_eq!(got, Some(&val(i)[..]), "key {i}"),
            }
        }
    }

    #[test]
    fn recovery_replays_wal_and_manifest() {
        let clock = Clock::new();
        let mut db = Db::create_with(MemDisk::new(1 << 18), clock.clone(), small_config()).unwrap();
        for i in 0..500 {
            db.put(&key(i), &val(i)).unwrap();
        }
        // Synced-but-unflushed tail lives only in the WAL.
        db.sync_wal().unwrap();
        let dev = db.close().unwrap();
        let mut db2 = Db::open(dev, clock).unwrap();
        for i in (0..500).step_by(41) {
            assert_eq!(db2.get(&key(i)).unwrap(), Some(&val(i)[..]), "key {i}");
        }
    }

    #[test]
    fn crash_recovery_without_close() {
        let clock = Clock::new();
        let mut db = Db::create_with(MemDisk::new(1 << 18), clock.clone(), small_config()).unwrap();
        for i in 0..100 {
            db.put(&key(i), &val(i)).unwrap();
        }
        db.sync_wal().unwrap();
        // Unsynced writes after the sync may be lost on crash.
        db.put(b"maybe-lost", b"x").unwrap();
        // Steal the device (process crash).
        let dev = {
            let mut out = MemDisk::new(1);
            std::mem::swap(&mut out, db.filesystem_mut().device_mut());
            out
        };
        let mut db2 = Db::open_with(dev, clock, small_config()).unwrap();
        for i in 0..100 {
            assert_eq!(db2.get(&key(i)).unwrap(), Some(&val(i)[..]), "key {i}");
        }
    }

    #[test]
    fn blocked_wal_crashes_store_with_paper_signature() {
        let clock = Clock::new();
        let disk = ChaosInjector::new(MemDisk::new(1 << 18), ChaosPlan::quiet(), SimRng::seeded(0));
        let mut db = Db::create_with(disk, clock.clone(), small_config()).unwrap();
        db.put(b"before", b"attack").unwrap();
        db.sync_wal().unwrap();

        db.filesystem_mut()
            .device_mut()
            .set_plan(ChaosPlan::fail_writes(IoError::NoResponse));
        let t0 = clock.now();
        let mut crash = None;
        for i in 0..10_000u32 {
            if let Err(e) = db.put(&key(i), &val(i)) {
                crash = Some(e);
                break;
            }
        }
        let err = crash.expect("store should crash under blocked WAL");
        assert_eq!(err, DbError::WalSyncFailed);
        assert!(err.to_string().contains("sync_without_flush"));
        assert!(db.crashed());
        let waited = (clock.now() - t0).as_secs_f64();
        assert!((80.0..86.0).contains(&waited), "crashed after {waited}s");
        // Everything afterwards is refused.
        assert_eq!(db.get(b"before"), Err(DbError::Closed));
        assert_eq!(db.put(b"x", b"y"), Err(DbError::Closed));
    }

    #[test]
    fn stats_count_background_work() {
        let mut db = Db::create_with(MemDisk::new(1 << 18), Clock::new(), small_config()).unwrap();
        for i in 0..400 {
            db.put(&key(i), &val(i)).unwrap();
        }
        let s = db.stats();
        assert!(s.wal_syncs >= s.flushes);
        assert!(s.flushes >= 1);
    }

    #[test]
    fn write_batch_is_atomic_across_crash_recovery() {
        let clock = Clock::new();
        let mut db = Db::create_with(MemDisk::new(1 << 18), clock.clone(), small_config()).unwrap();
        let mut batch = crate::WriteBatch::new();
        batch
            .put(b"alice", b"90")
            .put(b"bob", b"110")
            .delete(b"pending");
        db.put(b"pending", b"transfer").unwrap();
        db.write(batch).unwrap();
        db.sync_wal().unwrap();
        // Crash without close.
        let dev = {
            let mut out = MemDisk::new(1);
            std::mem::swap(&mut out, db.filesystem_mut().device_mut());
            out
        };
        let mut db2 = Db::open_with(dev, clock, small_config()).unwrap();
        assert_eq!(db2.get(b"alice").unwrap(), Some(&b"90"[..]));
        assert_eq!(db2.get(b"bob").unwrap(), Some(&b"110"[..]));
        assert_eq!(db2.get(b"pending").unwrap(), None);
        let s = db2.stats();
        assert_eq!((s.puts, s.deletes), (0, 0)); // fresh stats after open
    }

    #[test]
    fn refused_batch_leaves_no_trace_after_crash_recovery() {
        let clock = Clock::new();
        let mut db = Db::create_with(MemDisk::new(1 << 18), clock.clone(), small_config()).unwrap();
        let mut batch = crate::WriteBatch::new();
        batch
            .put(b"ok1", b"1")
            .put(b"ok2", b"2")
            .put(b"big", &vec![0u8; crate::record::MAX_LEN + 1]);
        assert_eq!(db.write(batch), Err(DbError::TooLarge));
        let big = vec![0u8; crate::record::MAX_LEN + 1];
        assert_eq!(db.put(b"big", &big), Err(DbError::TooLarge));
        db.put(b"after", b"x").unwrap();
        assert_eq!(db.stats().user_bytes, 6);
        assert_eq!((db.stats().puts, db.stats().deletes), (1, 0));
        db.sync_wal().unwrap();
        // Crash without close.
        let dev = {
            let mut out = MemDisk::new(1);
            std::mem::swap(&mut out, db.filesystem_mut().device_mut());
            out
        };
        let mut db2 = Db::open_with(dev, clock, small_config()).unwrap();
        assert_eq!(db2.get(b"ok1").unwrap(), None);
        assert_eq!(db2.get(b"ok2").unwrap(), None);
        assert_eq!(db2.get(b"after").unwrap(), Some(&b"x"[..]));
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let mut db = Db::create(MemDisk::new(1 << 17), Clock::new()).unwrap();
        db.write(crate::WriteBatch::new()).unwrap();
        assert_eq!(db.stats().puts, 0);
    }

    #[test]
    fn scan_merges_all_levels_newest_wins() {
        let mut db = Db::create_with(MemDisk::new(1 << 18), Clock::new(), small_config()).unwrap();
        // Enough keys to force flushes and a compaction.
        for i in 0..1_000 {
            db.put(&key(i), &val(i)).unwrap();
        }
        assert!(db.stats().compactions > 0, "{:?}", db.stats());
        // Overwrites and deletes living in newer levels / the memtable.
        db.put(&key(10), b"newest").unwrap();
        db.delete(&key(11)).unwrap();

        let results = db.scan(&key(5), &key(15)).unwrap();
        let keys: Vec<&[u8]> = results.iter().map(|(k, _)| k.as_slice()).collect();
        // 5..15 minus the deleted 11 = 9 keys, sorted.
        assert_eq!(results.len(), 9, "{keys:?}");
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        let v10 = results.iter().find(|(k, _)| k == &key(10)).unwrap();
        assert_eq!(v10.1, b"newest");
        assert!(!results.iter().any(|(k, _)| k == &key(11)));
    }

    #[test]
    fn scan_empty_range() {
        let mut db = Db::create(MemDisk::new(1 << 17), Clock::new()).unwrap();
        db.put(b"k", b"v").unwrap();
        assert!(db.scan(b"x", b"z").unwrap().is_empty());
        assert!(db.scan(b"k", b"k").unwrap().is_empty()); // end-exclusive
    }

    #[test]
    fn write_amplification_accounted() {
        let mut db = Db::create_with(MemDisk::new(1 << 18), Clock::new(), small_config()).unwrap();
        assert_eq!(db.stats().write_amplification(), None);
        // Enough puts for five flushes, so L0 passes its trigger of 4.
        for i in 0..1_000 {
            db.put(&key(i), &val(i)).unwrap();
        }
        let s = db.stats();
        assert_eq!(s.user_bytes, 1_000 * (key(0).len() + val(0).len()) as u64);
        assert!(s.flush_bytes > 0, "{s:?}");
        assert!(s.compaction_bytes > 0, "{s:?}");
        let wa = s.write_amplification().unwrap();
        // Flushes + compactions rewrite data at least once on top of the
        // user's own bytes.
        assert!(wa > 2.0, "write amplification = {wa}");
    }

    #[test]
    fn tick_advances_journal() {
        let clock = Clock::new();
        let mut db = Db::create_with(MemDisk::new(1 << 18), clock.clone(), small_config()).unwrap();
        db.put(b"a", b"b").unwrap();
        clock.advance(SimDuration::from_secs(6));
        db.tick().unwrap();
        assert!(!db.crashed());
    }
}
